"""Command-line interface.

Exit codes: 0 for success (including a feasible search), 1 for a definite
negative answer (no sequence, failed validation, counterexample found), 2 for
an inconclusive answer (a search or check budget ran out, including the
expansion budget of ``exact``), 3 for input errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .core import (
    AdjacencyRule,
    BudgetExceededError,
    ProblemInstance,
    check_monotone,
    check_submodular,
    resolve_threshold,
    total_curvature,
    validate_sequence,
)
from .experiment import ExperimentConfig, run_experiment
from .fileio import (
    InstanceParseError,
    format_ids_1indexed,
    ids_1indexed,
    load_cnf,
    load_edge_list,
    load_instance,
    load_sequence_csv,
    parse_ids_1indexed,
    write_instance,
)
from .oracles import CnfFormula, modular_oracle
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


def _run_solver(args, algorithm: str, restriction=None) -> int:
    cfg = ExperimentConfig(
        algorithm=algorithm,
        instance=args.instance,
        graph_path=args.graph,
        gram_path=args.gram,
        directed=args.directed,
        probability_mode=args.probability_mode,
        rr_count=args.rr_count,
        seed=args.seed,
        k=args.k,
        rule=None if args.rule is None else AdjacencyRule.parse(args.rule),
        theta=args.theta,
        theta_frac=args.theta_frac,
        out=args.out,
        budget=args.budget,
        restriction=restriction,
    )
    report = run_experiment(cfg)
    print(report.summary() + ("" if restriction is None else " restricted=yes"))
    if report.csv_path is not None:
        print(f"csv={report.csv_path}")
    if report.status in ("ok", "found"):
        return OK
    if report.status == "inconclusive":
        return INCONCLUSIVE
    return INFEASIBLE


def _cmd_solve(args) -> int:
    return _run_solver(args, args.solver)


def _cmd_exact(args) -> int:
    restriction = None if args.restrict is None else ids_1indexed(args.restrict)
    return _run_solver(args, "exact", restriction)


def _cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    f, x, y = instance.oracle, instance.x, instance.y
    theta = resolve_threshold(
        args.theta, args.theta_frac, instance.theta, lambda: min(f.evaluate(x), f.evaluate(y))
    )
    seq = load_sequence_csv(args.sequence, f.universe.n)
    verdict = validate_sequence(replace(instance, theta=theta), seq)
    if verdict:
        print("ok")
        return OK
    print(f"invalid at step {verdict.index}: {verdict.describe(format_ids_1indexed)}")
    return INFEASIBLE


def _require(args, *flags: str) -> None:
    if any(getattr(args, f) in (None, "") for f in flags):
        raise ValueError(f"gen {args.name} needs " + ", ".join(f"--{f}" for f in flags))


def _cover_pair(args) -> VcReconfigInstance:
    _require(args, "graph", "x", "y")
    graph = load_edge_list(args.graph)
    return VcReconfigInstance(
        graph, parse_ids_1indexed(args.x, graph.n), parse_ids_1indexed(args.y, graph.n)
    )


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
    verdict = checker(spec.oracle, mode=args.mode, **sampling)
    if verdict:
        print("ok")
        return OK
    witness = ", ".join(str(w) for w in verdict.witness)
    print(f"counterexample: {witness} ({verdict.detail})")
    return INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subreco",
        description="Reconfiguration of feasible subsets under submodular objectives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run an approximation or search algorithm")
    p.add_argument("solver", choices=["swap", "tjar", "astar"])
    _add_source_flags(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("exact", help="optimal threshold and a shortest sequence")
    _add_source_flags(p)
    p.add_argument("--restrict", help="1-indexed ground restriction, e.g. '1,2,3,4'")
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("validate", help="check a sequence CSV against an instance")
    p.add_argument("instance")
    p.add_argument("sequence")
    p.add_argument("--theta", type=float)
    p.add_argument("--theta-frac", type=float)
    p.set_defaults(fn=_cmd_validate)

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
