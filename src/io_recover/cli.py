"""Command-line front end: solve problem files, verify solutions, replay the
built-in demonstrations, and export 2D region polylines."""

import argparse
import sys

import numpy as np

from . import fixtures, problem_io, solve, verify
from .errors import InverseLpError
from .model import Status, validate
from .regions import polylines_to_doc, region_polylines

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_TRIVIAL = 3


def _err(message):
    print(message, file=sys.stderr)


def _cmd_solve(args):
    bundle = problem_io.parse_problem(problem_io.load_json(args.input))
    report = validate(
        bundle.problem,
        bundle.x_hat,
        bundle.structure,
        bundle.model,
        omega=bundle.omega,
        prior=bundle.prior,
    )
    solution = solve(
        bundle.model,
        bundle.problem,
        bundle.x_hat,
        structure=bundle.structure,
        omega=bundle.omega,
        prior=bundle.prior,
    )
    # reported once the solve has not raised, so a rejected input gets one line
    for entry in report.entries:
        if entry.level != "pass":
            rows = f" rows {list(entry.rows)}" if entry.rows else ""
            _err(f"{entry.level}: {entry.check}{rows}: {entry.message}")
    cert = None
    if solution.status in (Status.OPTIMAL, Status.TRIVIAL_DETECTED):
        cert = verify.check_certificate(
            bundle.model, bundle.problem, bundle.x_hat, bundle.structure, solution
        )
    doc = problem_io.serialize_solution(bundle, solution, report=cert, validation=report)
    problem_io.dump_json(args.output, doc)
    if solution.status == Status.OPTIMAL:
        return EXIT_OK
    if solution.status == Status.TRIVIAL_DETECTED:
        return EXIT_TRIVIAL
    _err(solution.message or solution.status.value)
    return EXIT_INFEASIBLE


def _format_value(value):
    if isinstance(value, str):
        return value
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return str(value)
    if arr.ndim == 0:
        return f"{float(arr):.6g}"
    return np.array2string(arr, precision=6, suppress_small=True)


def _cmd_demo(args):
    case, solution, checks = fixtures.evaluate_example(args.example)
    print(f"example {args.example}: {fixtures.TITLES[args.example]} [{case.model.value}]")
    print(f"  status: {solution.status.value}")
    failed = None
    for chk in checks:
        mark = "ok" if chk.ok else "MISMATCH"
        print(
            f"  {chk.name:<32} computed {_format_value(chk.computed):<28} "
            f"expected {_format_value(chk.expected):<24} {mark}"
        )
        if not chk.ok and failed is None:
            failed = chk.name
    if failed is not None:
        _err(f"mismatch in example {args.example}: {failed}")
        return EXIT_INPUT
    return EXIT_OK


def _cmd_verify(args):
    bundle = problem_io.parse_problem(problem_io.load_json(args.input))
    solution = problem_io.parse_solution(problem_io.load_json(args.solution), bundle)
    if solution.status not in (Status.OPTIMAL, Status.TRIVIAL_DETECTED):
        _err(f"nothing to verify: solution status is {solution.status.value}")
        return EXIT_INFEASIBLE
    report = verify.check_certificate(
        bundle.model, bundle.problem, bundle.x_hat, bundle.structure, solution
    )
    print(f"verdict: {report.verdict}")
    if report.reason:
        print(f"reason: {report.reason}")
    for name, value in sorted(report.residuals.items()):
        print(f"  {name:<32} {value:.3e}")
    for name, value in sorted(report.nontriviality.items()):
        print(f"  nontriviality.{name:<18} {value}")
    return EXIT_OK if report.verdict == "valid" else EXIT_INFEASIBLE


def _cmd_regions(args):
    bundle = problem_io.parse_problem(problem_io.load_json(args.input))
    solution = None
    if args.solution is not None:
        solution = problem_io.parse_solution(problem_io.load_json(args.solution), bundle)
    try:
        parts = [float(v) for v in args.bbox.split(",")]
    except ValueError:
        _err(f"cannot parse bbox {args.bbox!r}; expected x0,y0,x1,y1")
        return EXIT_INPUT
    if len(parts) != 4:
        _err(f"bbox needs 4 numbers, got {len(parts)}")
        return EXIT_INPUT
    polylines = region_polylines(bundle, solution=solution, bbox=tuple(parts))
    problem_io.dump_json(args.output, polylines_to_doc(polylines))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="io-recover",
        description=(
            "Recover constraint or uncertainty-set parameters that make an "
            "observed decision optimal (or minimally suboptimal) for a linear program."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file, write a solution document")
    p_solve.add_argument("--input", required=True, help="problem JSON file")
    p_solve.add_argument("--output", required=True, help="solution JSON file to write")
    p_solve.set_defaults(func=_cmd_solve)

    p_demo = sub.add_parser("demo", help="run a built-in demonstration instance")
    p_demo.add_argument("--example", type=int, required=True, choices=range(1, 9))
    p_demo.set_defaults(func=_cmd_demo)

    p_verify = sub.add_parser("verify", help="check the optimality certificate of a solution file")
    p_verify.add_argument("--input", required=True, help="problem JSON file")
    p_verify.add_argument("--solution", required=True, help="solution JSON file")
    p_verify.set_defaults(func=_cmd_verify)

    p_regions = sub.add_parser("regions", help="export exact 2D constraint-boundary polylines")
    p_regions.add_argument("--input", required=True, help="problem JSON file")
    p_regions.add_argument("--solution", help="solution JSON file (for imputed boundaries)")
    p_regions.add_argument("--bbox", required=True, help="x0,y0,x1,y1")
    p_regions.add_argument("--output", required=True, help="polyline JSON file to write")
    p_regions.set_defaults(func=_cmd_regions)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InverseLpError as exc:
        _err(str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
