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
from typing import TYPE_CHECKING

from . import __version__
from .errors import CddError, InfeasibleSeed, SchemaError, read_json, reading

if TYPE_CHECKING:
    from .orthotope import SolveResult

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


def _load_result_file(path: str, problem) -> tuple[SolveResult, dict]:
    """The stored solve result, and the document it was read from."""
    from .orthotope import SolveResult

    doc = _read_document(path)
    result = SolveResult.from_json(doc)
    for step in result.steps:
        if not 0 <= step.factor < problem.dim:
            raise SchemaError(f"step factor {step.factor} outside 0..{problem.dim - 1}")
        for interval in (step.before, step.after):
            problem.variables[step.factor].check_inside(interval)
    return result, doc


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


def _face_fields(face: dict) -> tuple:
    margin = face["margin"]
    return face["axis"], face["side"], face["blocked_by"], None if margin is None else float(margin).hex()


def _certificate_mismatches(stored: dict, certificate) -> list[str]:
    """How the stored certificate document differs from the recomputed certificate, one line per field.

    ``stored`` is a document that ``MaximalityCertificate.from_json`` has
    read, so every entry of ``faces`` holds the four keys and a margin that
    is null or converts to a float.  Margins compare by ``float.hex``, and
    null matches only null.
    """
    recomputed = certificate.to_json()
    failures = []
    maximal = stored.get("maximal")
    if maximal is not recomputed["maximal"]:
        failures.append(
            f"stored certificate says maximal {json.dumps(maximal)}, recomputed {json.dumps(recomputed['maximal'])}"
        )
    faces = list(stored["faces"])
    if len(faces) != len(recomputed["faces"]):
        failures.append(f"stored certificate has {len(faces)} faces, recomputed {len(recomputed['faces'])}")
        return failures
    for k, (face, expected) in enumerate(zip(faces, recomputed["faces"])):
        if _face_fields(face) != _face_fields(expected):
            shown = json.dumps({key: face[key] for key in expected})
            failures.append(f"stored certificate face {k} is {shown}, recomputed {json.dumps(expected)}")
    return failures


def _step_record_failures(problem, result) -> list[str]:
    """One line per broken rule of the step record.

    The ranking is a permutation of 0..N−1 and the steps expand its
    factors in its order.  Each step grows the seed's point interval to the
    stored box's interval, both bit for bit.  Each binding is "ambient",
    "numerical" or a constrained surface, and outside "numerical" an end
    reads "ambient" exactly when it equals its ambient bound.
    """
    failures = []
    ranking, factors = list(result.ranking), [step.factor for step in result.steps]
    if sorted(ranking) != list(range(problem.dim)):
        failures.append(f"stored ranking {ranking} is not a permutation of 0..{problem.dim - 1}")
    if factors != ranking:
        failures.append(f"stored steps expand factors {factors}, not one per factor in ranking order {ranking}")
    names = {"ambient", "numerical", *(c.surface for c in problem.constraints)}
    for step in result.steps:
        j, before, after = step.factor, step.before, step.after
        x, box, ambient = problem.seed[j], result.orthotope.intervals[j], problem.variables[j].ambient
        if (before.lo.hex(), before.hi.hex()) != (x.hex(), x.hex()):
            failures.append(f"step for factor {j}: before [{before.lo!r}, {before.hi!r}] is not the seed {x!r}")
        if (after.lo.hex(), after.hi.hex()) != (box.lo.hex(), box.hi.hex()):
            failures.append(f"step for factor {j}: after [{after.lo!r}, {after.hi!r}] "
                            f"is not the stored box's [{box.lo!r}, {box.hi!r}]")
        for side, binding, end, bound in (("lo", step.binding_lo, after.lo, ambient.lo),
                                          ("hi", step.binding_hi, after.hi, ambient.hi)):
            if binding not in names:
                failures.append(f"step for factor {j}: {side} binding {binding!r} is not ambient, "
                                "numerical or a constrained surface")
            elif binding != "numerical" and (binding == "ambient") != (end == bound):
                failures.append(f"step for factor {j}: {side} binding {binding!r} on the end {end!r}, "
                                f"ambient bound {bound!r}")
    return failures


def cmd_verify(args) -> int:
    from .orthotope import ORACLE_MAX_RESOLUTION, oracle_check_steps, verify_maximality

    problem = _load_problem_file(args.problem)
    result, doc = _load_result_file(args.result, problem)

    failures = []
    epsilon = doc["certificate"]["epsilon"]
    if epsilon != problem.tolerance:
        failures.append(f"stored certificate epsilon {json.dumps(epsilon)} is not the tolerance {problem.tolerance!r}")
    # a box of the wrong dimension or outside the ambient box is refused here, before the step record reads it
    feasible, slacks = problem.region().is_box_feasible(result.orthotope.intervals)
    failures += _step_record_failures(problem, result)
    if feasible:
        certificate = verify_maximality(problem, result.orthotope)
        for face in certificate.faces:
            if not face.blocked:
                failures.append(f"face {face.axis}/{face.side} can still expand")
        failures += _certificate_mismatches(doc["certificate"], certificate)
        for check in oracle_check_steps(problem, result, ORACLE_MAX_RESOLUTION):
            if not check.ok:
                failures.append(
                    f"step for factor {check.factor}: stored "
                    f"[{check.stored_lo:.6g}, {check.stored_hi:.6g}] vs grid "
                    f"[{check.grid_lo:.6g}, {check.grid_hi:.6g}] "
                    f"(tolerance {check.tolerance:.3g})"
                )
    else:
        worst = min(range(len(slacks)), key=lambda i: slacks[i])
        failures.append(f"stored box violates {problem.constraints[worst]} by {-slacks[worst]:.3g}")

    payload = {
        "problem": problem.name,
        "agreement": not failures,
        "failures": failures,
        "steps_replayed": feasible,
    }
    if args.json:
        print(_dump_json(payload))
    else:
        print(f"problem: {problem.name}")
        for line in failures:
            print(f"FAIL {line}")
        print(f"agreement: {'yes' if not failures else 'no'}")
    return 0 if not failures else EXIT_DISAGREEMENT


def cmd_rosetta(args) -> int:
    from .rosetta import build_report, emit

    resolution = _parse_option("resolution", args.resolution, int)
    problem = _load_problem_file(args.problem)
    solution = None
    if args.solution:
        solution, _ = _load_result_file(args.solution, problem)
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

    p = sub.add_parser("verify", help="independently check a stored solve result at the problem's tolerance")
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
