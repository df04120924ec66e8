"""Command-line interface.

Exit codes: 0 for success (including a feasible search), 1 for a definite
negative answer (no sequence, failed validation, counterexample found), 2 for
an inconclusive answer (a search or check budget ran out, including the
expansion budget of ``exact``), 3 for input errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .algorithms import interchangeable_greedy
from .core import (
    AdjacencyRule,
    BudgetExceededError,
    ProblemInstance,
    Verdict,
    check_monotone,
    check_submodular,
    total_curvature,
    validate_sequence,
)
from .experiment import ExperimentConfig, run_experiment
from .fileio import (
    InstanceParseError,
    format_ids_1indexed,
    load_cnf,
    load_edge_list,
    load_gram,
    load_instance,
    load_sequence_csv,
    parse_ids_1indexed,
    write_instance,
    write_sequence_csv,
)
from .oracles import (
    CnfFormula,
    influence_oracle,
    is_vertex_cover,
    logdet_oracle,
    modular_oracle,
    sample_rr_sets,
)
from .reductions import (
    SatAssignment,
    VcReconfigInstance,
    inapprox_gadget,
    minvc_to_usreco_tjar,
    nae3sat_to_usreco_tar,
    obs52_instance,
    obs54_instance,
    obs55_instance,
    sat_reconfig_to_vc_reconfig,
    vc_to_msreco,
)

OK, INFEASIBLE, INCONCLUSIVE, INPUT_ERROR = 0, 1, 2, 3


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", nargs="?", help="instance file")
    p.add_argument("--graph", help="edge list for an influence experiment")
    p.add_argument("--gram", help="gram matrix for a determinant experiment")
    # the --graph flags default to None, so that another source can refuse them
    p.add_argument("--directed", action="store_true", default=None, help="edge list holds arcs")
    p.add_argument("--probability-mode", choices=["inverse-in-degree", "given"])
    p.add_argument("--rr-count", type=int, help="RR sets to sample (default 100000)")
    p.add_argument("--seed", type=int, help="sampling seed (required with --graph)")
    p.add_argument("--k", type=int, help="endpoint size for greedy construction")
    p.add_argument("--rule", choices=["tj", "tar", "tjar"])
    p.add_argument("--theta", type=float)
    p.add_argument("--theta-frac", type=float)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--budget", type=int, help="A* expansion budget (exact: summed over its rounds)")


def _source_instance(args) -> ProblemInstance:
    """The instance of the source flags, with its source's own threshold as
    ``theta``: an instance file, or disjoint greedy endpoints of size ``--k``
    on an edge list (influence, TJ) or a gram matrix (log-det, TJAR)."""
    if sum(s is not None for s in (args.instance, args.graph, args.gram)) != 1:
        raise ValueError("exactly one instance source must be set")
    if args.graph is None:
        for name in ("seed", "directed", "probability_mode", "rr_count"):
            if getattr(args, name) is not None:
                raise ValueError(f"{name} applies only to an edge-list (--graph) source")
    if args.instance is not None:
        if args.k is not None:
            raise ValueError("k applies only to --graph and --gram sources")
        return load_instance(args.instance)
    if args.k is None:
        raise ValueError("endpoint construction needs k")
    if args.gram is not None:
        oracle = logdet_oracle(load_gram(args.gram))
        return ProblemInstance(oracle, *interchangeable_greedy(oracle, args.k), AdjacencyRule.TJAR)
    if args.seed is None:
        raise ValueError("influence experiments need an explicit seed")
    mode = args.probability_mode or "inverse-in-degree"
    graph = load_edge_list(args.graph, directed=bool(args.directed), probability_mode=mode)
    rr_count = 100_000 if args.rr_count is None else args.rr_count
    oracle = influence_oracle(sample_rr_sets(graph, rr_count, args.seed))
    x, y = interchangeable_greedy(oracle, args.k)
    return ProblemInstance(oracle, x, y, AdjacencyRule.TJ, None, args.k)


def _with_run_options(args, instance: ProblemInstance) -> ProblemInstance:
    """``instance`` under ``--rule`` and ``--theta``, else ``--theta-frac``
    times min(f(X), f(Y)); the new instance checks the rule and threshold."""
    rule = instance.rule if args.rule is None else AdjacencyRule.parse(args.rule)
    if rule is not instance.rule:
        instance = replace(instance, rule=rule, cardinality_k=None)
    theta, frac = args.theta, args.theta_frac
    if not all(t is None or math.isfinite(t) for t in (theta, frac)):
        raise ValueError(f"threshold must be finite, got theta={theta} theta_frac={frac}")
    if theta is None and frac is not None:
        f = instance.oracle
        theta = frac * min(f.evaluate(instance.x), f.evaluate(instance.y))
    return instance if theta is None else replace(instance, theta=theta)


def _cmd_solve(args) -> int:
    """``solve`` and ``exact``: one algorithm on the source instance."""
    instance = _source_instance(args)
    n = instance.oracle.universe.n
    restriction = None if args.restrict is None else parse_ids_1indexed(args.restrict, n)
    instance = _with_run_options(args, instance)
    if args.solver == "astar" and instance.theta is None:
        raise ValueError("astar needs --theta or --theta-frac")
    report = run_experiment(ExperimentConfig(args.solver, instance, args.budget, restriction))
    # the CSV is written first, so a path that cannot be written prints no summary
    out = None if args.out is None or not report.rows else Path(args.out)
    if out is not None:
        write_sequence_csv(out, report.rows)
    print(report.summary() + ("" if restriction is None else " restricted=yes"))
    if out is not None:
        print(f"csv={out}")
    if report.status in ("ok", "found"):
        return OK
    if report.status == "inconclusive":
        return INCONCLUSIVE
    return INFEASIBLE


def _print_verdict(verdict: Verdict, label: str) -> int:
    """Print ``ok``, or ``label`` and the failure with 1-indexed ids."""
    if verdict:
        print("ok")
        return OK
    print(f"{label}: {verdict.describe(format_ids_1indexed)}")
    return INFEASIBLE


def _cmd_validate(args) -> int:
    instance = _with_run_options(args, load_instance(args.instance))
    seq = load_sequence_csv(args.sequence, instance.oracle.universe.n)
    verdict = validate_sequence(instance, seq)
    return _print_verdict(verdict, f"invalid at step {verdict.index}")


def _require(args, *flags: str) -> None:
    if any(getattr(args, f) in (None, "") for f in flags):
        raise ValueError(f"gen {args.name} needs " + ", ".join(f"--{f}" for f in flags))


def _cover_pair(args) -> VcReconfigInstance:
    _require(args, "graph", "x", "y")
    graph = load_edge_list(args.graph)
    x, y = (parse_ids_1indexed(ids, graph.n) for ids in (args.x, args.y))
    for cover in (x, y):  # named as typed: VcReconfigInstance would name it 0-indexed
        if not is_vertex_cover(graph, cover):
            raise ValueError(f"{format_ids_1indexed(cover)} is not a vertex cover")
    return VcReconfigInstance(graph, x, y)


def _assignment_pair(args) -> tuple[CnfFormula, SatAssignment, SatAssignment]:
    _require(args, "cnf", "sx", "sy")
    sx, sy = (SatAssignment.from_string(t) for t in (args.sx, args.sy))
    return load_cnf(args.cnf), sx, sy


def _gadget(args) -> ProblemInstance:
    _require(args, "upsilon")
    if args.n is not None and args.n < 0:
        raise ValueError(f"gen {args.name} --n must be nonnegative, got {args.n}")
    tokens = args.weights.replace(",", " ").split() if args.weights else ["0"] * (args.n or 0)
    if args.n is not None and args.n != len(tokens):
        raise ValueError(f"gen {args.name} --n {args.n} differs from the {len(tokens)} weights")
    return inapprox_gadget(modular_oracle([float(t) for t in tokens]), args.upsilon)


# generator name -> builder of its instance from the parsed flags
_GENERATORS = {
    "obs52": lambda args: obs52_instance(),
    "obs54": lambda args: obs54_instance(8 if args.n is None else args.n),
    "obs55": lambda args: obs55_instance(),
    "vc2msreco": lambda args: vc_to_msreco(_cover_pair(args)),
    "minvc2tjar": lambda args: minvc_to_usreco_tjar(_cover_pair(args)),
    "nae2tar": lambda args: nae3sat_to_usreco_tar(*_assignment_pair(args)),
    # the instance format holds a cover pair only as its fixed-size threshold form
    "sat2vc": lambda args: vc_to_msreco(sat_reconfig_to_vc_reconfig(*_assignment_pair(args))),
    "gadget": _gadget,
}


def _cmd_gen(args) -> int:
    out = Path(args.out)
    inst = _GENERATORS[args.name](args)
    write_instance(out, inst.oracle, inst.x, inst.y, inst.rule, theta=inst.theta)
    print(f"wrote {out}")
    return OK


def _cmd_curvature(args) -> int:
    spec = load_instance(args.instance)
    kappa = total_curvature(spec.oracle)
    print(f"curvature={kappa!r}")
    return OK


def _cmd_check(args) -> int:
    # unset sampling flags take the checks' own defaults
    sampling = {"sample_count": args.samples, "seed": args.seed}
    sampling = {k: v for k, v in sampling.items() if v is not None}
    if sampling and args.mode != "sampled":
        raise ValueError("--samples and --seed apply only to --mode sampled")
    spec = load_instance(args.instance)
    checker = check_submodular if args.property == "submodular" else check_monotone
    return _print_verdict(checker(spec.oracle, mode=args.mode, **sampling), "counterexample")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subreco",
        description="Reconfiguration of feasible subsets under submodular objectives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run an approximation or search algorithm")
    p.add_argument("solver", choices=["swap", "tjar", "astar"])
    _add_source_flags(p)
    p.set_defaults(fn=_cmd_solve, restrict=None)

    p = sub.add_parser("exact", help="optimal threshold and a shortest sequence")
    _add_source_flags(p)
    p.add_argument("--restrict", help="1-indexed ground restriction, e.g. '1,2,3,4'")
    p.set_defaults(fn=_cmd_solve, solver="exact")

    p = sub.add_parser("validate", help="check a sequence CSV against an instance")
    p.add_argument("instance")
    p.add_argument("sequence")
    p.add_argument("--theta", type=float)
    p.add_argument("--theta-frac", type=float)
    p.set_defaults(fn=_cmd_validate, rule=None)

    p = sub.add_parser("gen", help="emit a named instance to a file")
    p.add_argument("name", choices=list(_GENERATORS))
    p.add_argument("--n", type=int)
    p.add_argument("--graph")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--cnf")
    p.add_argument("--sx")
    p.add_argument("--sy")
    p.add_argument("--upsilon", type=float)
    p.add_argument("--weights", help="inner modular weights, e.g. '0,0,0'")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("curvature", help="total curvature of an instance's oracle")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_curvature)

    p = sub.add_parser("check", help="audit an oracle's structural claims")
    p.add_argument("property", choices=["submodular", "monotone"])
    p.add_argument("instance")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--samples", type=int, help="sampled mode: samples (default 1000)")
    p.add_argument("--seed", type=int, help="sampled mode: seed (default 0)")
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"inconclusive: {exc}")
        return INCONCLUSIVE
    except (InstanceParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
