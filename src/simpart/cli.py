"""Command-line front end: refine, verify, cone, optimize.

Exit codes separate the outcomes CI cares about: 0 success, 1 a theorem
check genuinely failed, 2 usage or validation errors, 3 I/O errors,
4 an unexpected internal error (a bug), reported on one line instead of
a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cones import MonteCarloConfig, cone_at_point, solid_angle_fraction
from .errors import BudgetTooSmall, DimensionMismatch, SimpartError, UnsupportedDimension
from .geometry import make_simplex
from .optimizer import OBJECTIVES, build_objective, optimize
from .partition import (
    kuhn_triangulation,
    max_valence,
    min_regularity,
    partition_from_simplices,
    refine,
    verify_theorem,
)
from .serialization import (
    fmt_float,
    read_partition,
    read_simplex,
    write_fraction_csv,
    write_partition,
    write_theorem_report_csv,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_THEOREM_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simpart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ref = sub.add_parser("refine", help="build and refine a partition, write it as JSON")
    p_ref.add_argument("--root", default="kuhn", help="'kuhn' or a path to a simplex JSON file")
    p_ref.add_argument(
        "--dim", type=int, default=None, help="dimension for the kuhn root (>= 2); with a file, it must match"
    )
    p_ref.add_argument("--steps", type=int, default=0, help="refinement rounds")
    p_ref.add_argument(
        "--strategy",
        choices=("bisect-all-leaves", "bisect-largest-leaf"),
        default="bisect-all-leaves",
    )
    p_ref.add_argument("-o", "--output", required=True, help="partition JSON path")
    p_ref.set_defaults(func=cmd_refine)

    p_ver = sub.add_parser("verify", help="audit a partition against the intersection bound")
    p_ver.add_argument("partition", help="partition JSON path")
    # accepted, and ignored, so that command lines written for the sampling audit still run
    p_ver.add_argument("--samples", type=int, default=None, help="ignored: every cone is measured exactly")
    p_ver.add_argument("--seed", type=int, default=None, help="ignored: the audit draws no samples")
    p_ver.add_argument("--report", default=None, help="write the check rows to this CSV")
    p_ver.set_defaults(func=cmd_verify)

    p_cone = sub.add_parser("cone", help="estimate the solid-angle fraction at a point of a simplex")
    p_cone.add_argument("--simplex", required=True, help="simplex JSON path")
    p_cone.add_argument("--point", required=True, help="comma-separated coordinates")
    p_cone.add_argument("--samples", type=int, default=1_000_000, help="Monte-Carlo draws per cone")
    p_cone.add_argument("--seed", type=int, default=42, help="base seed (default 42)")
    p_cone.add_argument("--shards", type=int, default=4, help="independent sampling shards")
    p_cone.add_argument("-o", "--output", default=None, help="write estimates to this CSV")
    p_cone.set_defaults(func=cmd_cone)

    p_opt = sub.add_parser("optimize", help="branch-and-bound over the unit cube")
    p_opt.add_argument("--objective", required=True, help="one of: " + ", ".join(sorted(OBJECTIVES)))
    p_opt.add_argument("--dim", type=int, default=2)
    p_opt.add_argument("--budget", type=int, default=5000, help="objective evaluation budget")
    p_opt.add_argument("--tol", type=float, default=1e-3, help="stop when the gap reaches this")
    p_opt.add_argument("--trace", default=None, help="write the iteration trace to this CSV")
    p_opt.set_defaults(func=cmd_optimize)

    return parser


def cmd_refine(args) -> int:
    if args.root == "kuhn":
        if args.dim is None:
            raise ValueError("--dim is required with --root kuhn")
        p = kuhn_triangulation(args.dim)
    else:
        s = read_simplex(args.root)
        if args.dim is not None and args.dim != s.dimension:
            raise DimensionMismatch(f"--dim {args.dim} does not match the d = {s.dimension} simplex of {args.root}")
        p = partition_from_simplices([s])
    refine(p, args.steps, args.strategy)
    # measures and validates every leaf in stacked passes before the
    # descent; a degenerate leaf stops the command before any file is written
    eta_min = min_regularity(p)
    _, valence = max_valence(p)
    write_partition(p, args.output)
    print(
        f"leaves={len(p.leaves)} eta_min={fmt_float(eta_min)} "
        f"max_valence={valence} output={args.output}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    p = read_partition(args.partition)
    report = verify_theorem(p)
    if args.report:
        write_theorem_report_csv(report, args.report)
    strong_ok = sum(c.passed_strong for c in report.per_vertex_checks)
    decomp_ok = sum(c.passed for c in report.decomposition_checks)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"eta_min={fmt_float(report.eta_min)} N={fmt_float(report.theoretical_bound)} "
        f"max_valence={report.max_observed_valence} "
        f"vertex_checks={strong_ok}/{len(report.per_vertex_checks)} "
        f"decomposition={decomp_ok}/{len(report.decomposition_checks)} "
        f"audited={report.total_pairs}/{report.total_pairs} method=exact {verdict}"
    )
    return EXIT_OK if report.passed else EXIT_THEOREM_FAILURE


def cmd_cone(args) -> int:
    s = read_simplex(args.simplex)
    point = np.array([float(c) for c in args.point.split(",")])
    est = solid_angle_fraction(cone_at_point(s, point), MonteCarloConfig(args.samples, args.seed, args.shards))
    print(
        f"cone={est.cone_id} fraction={fmt_float(est.fraction)} "
        f"stderr={fmt_float(est.stderr)} samples={est.samples} seed={est.seed}"
    )
    if args.output:
        write_fraction_csv([est], args.output)
    return EXIT_OK


def cmd_optimize(args) -> int:
    if args.dim < 2:
        raise UnsupportedDimension(f"dimension must be >= 2, got {args.dim}")
    # the d! Kuhn roots need (d + 1) d! evaluations; refuse before building
    # them, multiplying only until the product passes the budget
    required = args.dim + 1
    for k in range(2, args.dim + 1):
        if required > args.budget:
            break
        required *= k
    if required > args.budget:
        raise BudgetTooSmall(
            f"budget {args.budget} cannot cover the (d + 1) d! root vertex evaluations of d = {args.dim}"
        )
    # built after the checks: an objective may allocate per dimension
    objective = build_objective(args.objective, args.dim)
    result = optimize(objective, kuhn_triangulation(args.dim), args.budget, args.tol)
    if args.trace:
        write_trace_csv(result.trace, args.trace)
    point = ",".join(fmt_float(c) for c in result.point)
    print(
        f"objective={objective.name} incumbent=({point}) value={fmt_float(result.value)} "
        f"gap={fmt_float(result.gap)} evaluations={result.evaluations} "
        f"leaves_explored={result.leaves_explored} eta_min={fmt_float(result.eta_min)} "
        f"stop={result.stop_reason}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"simpart: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SimpartError, ValueError, KeyError, json.JSONDecodeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"simpart: error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # never exit 1, which means a theorem check failed
        detail = (str(exc).splitlines() or [""])[0]
        print(f"simpart: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
