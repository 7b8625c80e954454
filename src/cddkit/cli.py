"""Command-line pipeline: evaluate, quantify, solve, verify, rosetta, logic.

Exit codes are a stable contract:

    0  success
    2  validation error (bad arguments, schema, caps)
    3  infeasible seed
    4  solve produced a box that failed maximality certification
    5  verify found a disagreement with the stored result
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import CddError, InfeasibleSeed, read_json, reading

# Each command imports the layers it runs inside its own body, so that a
# call starts only what it needs: logic loads no numeric layer, and no
# numeric command loads the logic kernel; only rosetta loads the report
# layer.  The package has no runtime dependency to import.

EXIT_VALIDATION = 2
EXIT_INFEASIBLE_SEED = 3
EXIT_CERTIFICATE = 4
EXIT_DISAGREEMENT = 5


def _read_document(path: str):
    """The JSON document in a file; malformed text raises ``SchemaError`` (exit 2)."""
    return read_json(Path(path).read_bytes(), path)


def _load_problem_file(path: str):
    from .designspace import load_problem

    return load_problem(_read_document(path))


def _parse_point(text: str, dim: int) -> tuple[float, ...]:
    with reading(f"point {text!r}"):
        point = tuple(float(v) for v in text.split(","))
    if len(point) != dim:
        raise CddError(f"point {text!r} has {len(point)} coordinates, problem needs {dim}")
    for i, v in enumerate(point):
        if not math.isfinite(v):
            raise CddError(f"point coordinate {i} is {v!r}; coordinates must be finite")
    return point


def _parse_option(what: str, text: str | None, convert):
    # a malformed text is refused before any file is read; the command checks the value
    if text is None:
        return None
    with reading(f"{what} {text!r}"):
        return convert(text)


def _dump_json(payload) -> str:
    # strict JSON: callers write an infinite bound or slack, meaning unconstrained, as null
    return json.dumps(payload, indent=2, allow_nan=False)


def cmd_evaluate(args) -> int:
    problem = _load_problem_file(args.problem)
    point = _parse_point(args.point, problem.dim)
    region = problem.region()
    feasible, slacks = region.is_point_feasible(point)
    values = {s.name: s.evaluate(point) for s in problem.surfaces}
    for name, value in values.items():
        if not math.isfinite(value):
            raise CddError(f"objective {name!r} is {value!r} at the point: its surface overflows there")
    for c, sl in zip(problem.constraints, slacks):
        # only an infinite bound gives an infinite slack that is not an overflow
        if math.isfinite(c.bound) and not math.isfinite(sl):
            raise CddError(f"slack of constraint '{c}' is {sl!r} at the point: it overflows there")
    slack_by_name = {c.surface: sl for c, sl in zip(problem.constraints, slacks)}
    if args.json:
        print(
            _dump_json(
                {
                    "point": list(point),
                    "objectives": values,
                    "slacks": {name: None if sl == math.inf else sl for name, sl in slack_by_name.items()},
                    "feasible": feasible,
                }
            )
        )
        return 0
    bounds = {c.surface: c.bound for c in problem.constraints}
    print(f"problem: {problem.name}   point: {', '.join(repr(v) for v in point)}")
    print(f"{'objective':<12} {'value':>14} {'bound':>12} {'slack':>14}")
    for name, value in values.items():
        bound = bounds.get(name)
        btxt = f"{bound:g}" if bound is not None else "-"
        stxt = f"{slack_by_name[name]:.6g}" if name in slack_by_name else "-"
        print(f"{name:<12} {value:>14.6g} {btxt:>12} {stxt:>14}")
    print(f"feasible: {'yes' if feasible else 'no'}")
    return 0


def cmd_quantify(args) -> int:
    from .designspace import quantify_requirement

    problem = _load_problem_file(args.problem)
    constraint = quantify_requirement(args.requirement, problem)
    if args.json:
        bound = None if constraint.bound == math.inf else constraint.bound
        print(_dump_json({"surface": constraint.surface, "op": "<=", "bound": bound}))
    else:
        print(str(constraint))
    return 0


def cmd_solve(args) -> int:
    from .orthotope import solve_greedy

    ranking = _parse_option("ranking", args.ranking, lambda text: tuple(int(v) for v in text.split(",")))
    problem = _load_problem_file(args.problem)
    result = solve_greedy(problem, ranking=ranking)

    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{problem.name}_solution.json"
    out_path.write_text(_dump_json(result.to_json()) + "\n")

    if args.json:
        print(_dump_json(result.to_json()))
    else:
        print(f"problem: {problem.name}")
        print(f"ranking: {', '.join(str(i) for i in result.ranking)}")
        for var, iv in zip(problem.variables, result.orthotope.intervals):
            print(f"  {var.name:<16} [{iv.lo:.6g}, {iv.hi:.6g}] {var.unit}")
        print(f"maximal: {'yes' if result.certificate.maximal else 'NO'}")
        print(f"written: {out_path}")
    if not result.certificate.maximal:
        print("certification failed: some face is not blocked", file=sys.stderr)
        return EXIT_CERTIFICATE
    return 0


def cmd_verify(args) -> int:
    """The file, which loads only if ``to_json`` writes it back as it is, must be what ``solve_greedy`` writes."""
    from .orthotope import SolveResult, _differences, solve_greedy

    problem = _load_problem_file(args.problem)
    result = SolveResult.from_json(_read_document(args.result))

    failures = []
    # a box of the wrong dimension or outside the ambient box is refused here
    feasible, slacks = problem.region().is_box_feasible(result.orthotope.intervals)
    if not feasible:
        worst = min(range(len(slacks)), key=lambda i: slacks[i])
        failures.append(f"stored box violates {problem.constraints[worst]} by {-slacks[worst]:.3g}")
    fresh = solve_greedy(problem, result.ranking)
    failures += [f"face {j}/{side} can still expand" for j, pair in enumerate(fresh.certificate.faces)
                 for side, face in zip(("lo", "hi"), pair) if not face.blocked]
    failures += _differences(result.to_json(), fresh.to_json(), "re-solve")

    payload = {"problem": problem.name, "agreement": not failures, "failures": failures}
    if args.json:
        print(_dump_json(payload))
    else:
        print(f"problem: {problem.name}")
        for line in failures:
            print(f"FAIL {line}")
        print(f"agreement: {'yes' if not failures else 'no'}")
    return 0 if not failures else EXIT_DISAGREEMENT


def cmd_rosetta(args) -> int:
    from .orthotope import SolveResult
    from .rosetta import build_report, emit

    resolution = _parse_option("resolution", args.resolution, int)
    problem = _load_problem_file(args.problem)
    solution = None
    if args.solution:
        # ``build_report`` refuses a box of the wrong dimension or outside the ambient box
        solution = SolveResult.from_json(_read_document(args.solution))
    report = build_report(problem, solution, resolution=resolution)
    formats = []
    if args.csv:
        formats.append("csv")
    if args.svg:
        formats.append("svg")
    if not formats:
        formats = ["csv", "svg"]
    written = []
    for fmt in formats:
        written.extend(emit(report, fmt, args.out or "."))
    for path in written:
        print(path)
    return 0


def cmd_logic(args) -> int:
    # each form imports only its own modules: a graph needs neither the structures nor the parser
    from .modeltheory import to_text

    if args.graph:
        from .modeltheory import graph_to_sentence, load_graph

        graph = load_graph(_read_document(args.graph))
        sig, sentence = graph_to_sentence(graph)
        if args.json:
            print(_dump_json({"signature": sig.to_json(), "sentence": to_text(sentence)}))
        else:
            print(to_text(sentence))
        return 0
    if not (args.theory and args.structure):
        raise CddError("logic needs --theory and --structure, or --graph")
    from .modeltheory import Interpretation, check_theory, load_structure, load_theory

    sig, struct = load_structure(_read_document(args.structure))
    theory = load_theory(_read_document(args.theory), signature=sig)
    verdicts = check_theory(theory, struct, Interpretation.identity(theory.signature))
    if args.json:
        print(
            _dump_json(
                {
                    "theory": theory.name,
                    "verdicts": verdicts,
                    "model": all(verdicts),
                }
            )
        )
    else:
        for sentence, verdict in zip(theory.sentences, verdicts):
            print(f"{'true ' if verdict else 'false'}  {to_text(sentence)}")
        print(f"model: {'yes' if all(verdicts) else 'no'}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdd",
        description="Constraint-driven design over quadratic response surfaces",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="evaluate objectives and slacks at a point")
    p.add_argument("problem")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("quantify", help="turn 'NAME <= NUMBER' into a constraint")
    p.add_argument("problem")
    p.add_argument("requirement")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quantify)

    p = sub.add_parser("solve", help="greedy maximal orthotope, certified at the problem's tolerance")
    p.add_argument("problem")
    p.add_argument("--ranking", help="comma-separated variable indices")
    p.add_argument("--out", help="output directory for the result JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-solve at a stored result's ranking and compare the whole file")
    p.add_argument("problem")
    p.add_argument("result")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rosetta", help="emit M/N/Q matrix reports")
    p.add_argument("problem")
    p.add_argument("--solution", help="solve result JSON to overlay")
    p.add_argument("--resolution", default="21", help="grid points per axis (default 21)")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_rosetta)

    p = sub.add_parser("logic", help="check a theory against a structure, or translate a graph")
    p.add_argument("--theory", help="theory JSON file")
    p.add_argument("--structure", help="structure JSON file")
    p.add_argument("--graph", help="conceptual graph JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_logic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleSeed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_SEED
    except (CddError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
