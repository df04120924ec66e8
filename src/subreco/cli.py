"""Command-line interface.

Exit codes: 0 for success (including a feasible search), 1 for a definite
negative answer (no sequence, failed validation, counterexample found), 2 for
an inconclusive answer (a search or check budget ran out, including the
expansion budget of ``exact``), 3 for input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import (
    AdjacencyRule,
    BudgetExceededError,
    check_monotone,
    check_submodular,
    total_curvature,
    validate_sequence,
)
from .experiment import ExperimentConfig, run_experiment
from .fileio import (
    InstanceParseError,
    ids_1indexed,
    load_cnf,
    load_edge_list,
    load_instance,
    load_sequence_csv,
    parse_ids_1indexed,
    write_instance,
    write_instance_for,
)
from .oracles import modular_oracle
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
    p.add_argument("--directed", action="store_true", help="edge list holds arcs")
    p.add_argument(
        "--probability-mode",
        default="inverse-in-degree",
        choices=["inverse-in-degree", "given"],
    )
    p.add_argument("--rr-count", type=int, default=100_000)
    p.add_argument("--seed", type=int, help="sampling seed (required with --graph)")
    p.add_argument("--k", type=int, help="endpoint size for greedy construction")
    p.add_argument("--rule", choices=["tj", "tar", "tjar"])
    p.add_argument("--theta", type=float)
    p.add_argument("--theta-frac", type=float)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--budget", type=int, help="A* expansion budget (exact: over all searches)")


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
    spec = load_instance(args.instance)
    instance = spec.to_problem_instance(spec.resolve_theta(args.theta, args.theta_frac))
    seq = load_sequence_csv(args.sequence, spec.oracle.universe.n)
    verdict = validate_sequence(instance, seq)
    if verdict:
        print("ok")
        return OK
    print(f"invalid at step {verdict.index}: {verdict.reason}")
    return INFEASIBLE


def _cmd_gen(args) -> int:
    out = Path(args.out)
    name = args.name
    if name == "obs52":
        write_instance_for(obs52_instance(), out)
    elif name == "obs54":
        write_instance_for(obs54_instance(8 if args.n is None else args.n), out)
    elif name == "obs55":
        write_instance_for(obs55_instance(), out)
    elif name in ("vc2msreco", "minvc2tjar"):
        if not (args.graph and args.x and args.y):
            raise ValueError(f"gen {name} needs --graph, --x, and --y")
        graph = load_edge_list(args.graph)
        vc = VcReconfigInstance(
            graph,
            parse_ids_1indexed(args.x, graph.n),
            parse_ids_1indexed(args.y, graph.n),
        )
        instance = vc_to_msreco(vc) if name == "vc2msreco" else minvc_to_usreco_tjar(vc)
        write_instance_for(instance, out)
    elif name == "nae2tar":
        if not (args.cnf and args.sx and args.sy):
            raise ValueError("gen nae2tar needs --cnf, --sx, and --sy")
        phi = load_cnf(args.cnf)
        instance = nae3sat_to_usreco_tar(
            phi, SatAssignment.from_string(args.sx), SatAssignment.from_string(args.sy)
        )
        write_instance_for(instance, out)
    elif name == "sat2vc":
        if not (args.cnf and args.sx and args.sy):
            raise ValueError("gen sat2vc needs --cnf, --sx, and --sy")
        phi = load_cnf(args.cnf)
        vc = sat_reconfig_to_vc_reconfig(
            phi, SatAssignment.from_string(args.sx), SatAssignment.from_string(args.sy)
        )
        # the cover pair is only expressible in the instance format through
        # its fixed-size threshold form, so emit that composition
        write_instance_for(vc_to_msreco(vc), out)
    elif name == "gadget":
        if args.upsilon is None:
            raise ValueError("gen gadget needs --upsilon")
        if args.n is not None and args.n < 0:
            raise ValueError(f"gen gadget --n must be nonnegative, got {args.n}")
        weights = (
            [float(t) for t in args.weights.replace(",", " ").split()]
            if args.weights
            else [0.0] * (0 if args.n is None else args.n)
        )
        gadget = inapprox_gadget(modular_oracle(weights), args.upsilon)
        write_instance(
            out, gadget.oracle, gadget.x, gadget.y, AdjacencyRule.TJAR
        )
    else:
        raise ValueError(f"unknown generator {name!r}")
    print(f"wrote {out}")
    return OK


def _cmd_curvature(args) -> int:
    spec = load_instance(args.instance)
    kappa = total_curvature(spec.oracle)
    print(f"curvature={kappa!r}")
    return OK


def _cmd_check(args) -> int:
    spec = load_instance(args.instance)
    checker = check_submodular if args.property == "submodular" else check_monotone
    verdict = checker(
        spec.oracle, mode=args.mode, sample_count=args.samples, seed=args.seed
    )
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
    p.add_argument(
        "name",
        choices=[
            "obs52",
            "obs54",
            "obs55",
            "vc2msreco",
            "minvc2tjar",
            "nae2tar",
            "sat2vc",
            "gadget",
        ],
    )
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
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
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
    except (InstanceParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
