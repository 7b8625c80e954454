"""Seeded output fingerprint of the numeric core and the logic kernel.

Solves a fixed, seeded set of random problems and hashes everything the
package prints or writes for them: the ``solve_greedy`` solution JSON,
the grid oracle's step checks (at every N) and boxes (at the dimensions
its max-volume search runs at, N <= 3) and the ROSETTA CSV and SVG
bytes.  The ``checks`` part hashes the verdicts and slacks of
``is_box_feasible`` for the solved box, the box after each factor's
expansion in ranking order and the ambient box, and of
``is_point_feasible`` at the seed and at the solved box's lower and
upper corners.  The ``logic`` part hashes every model
``enumerate_models`` returns, in order, for the ``logic-enumerate``
sentences at their domain sizes and for seeded random sentences over
signatures that mix relations, unary predicates, constants and
functions.  The ``zero_budget`` part hashes the solution JSON of eight
fixed problems whose last budget cancels to exactly +0.0 or -0.0
before a linear term.  Two checkouts that print the same
digests produce byte-identical outputs on every one of those problems,
so a refactor that claims to change no output can be checked by running
this script before and after it:

    PYTHONPATH=src python tools/fingerprint.py [--seed 0] [--repeats 13]

The problem mix is every combination of N in {1, 2, 3, 5, 10, 20},
M in {1, 2, 3, 5, 10}, coefficient scale in {1e-4, 1, 1e3, 1e6} and
plain or ADAS-style offset domain (1600-2000), ``--repeats`` times.
The logic and zero_budget parts do not depend on ``--repeats``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

from cddkit.designspace import DesignProblem, DesignVariable, ObjectiveConstraint
from cddkit.errors import CddError
from cddkit.modeltheory import (
    And,
    Apply,
    Atom,
    Eq,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Signature,
    Var,
    enumerate_models,
    free_variables,
    parse_sentence,
)
from cddkit.orthotope import VOLUME_SEARCH_RESOLUTION, oracle_check_steps, oracle_solve, solve_greedy
from cddkit.rosetta import build_report, emit
from cddkit.surface import Interval, QuadraticResponseSurface

DIMS = (1, 2, 3, 5, 10, 20)
COUNTS = (1, 2, 3, 5, 10)
SCALES = (1e-4, 1.0, 1e3, 1e6)
OFFSET = (1600.0, 2000.0)
ORACLE_RESOLUTION = 41
VOLUME_RESOLUTION = 11
# a report costs r^2 points per cell, so every dimension gets one
ROSETTA_RESOLUTION = 5
# the logic-enumerate sentences of perfbench/logic.py, with their domain sizes
LOGIC_CASES = (
    ((("R", 2),), (), "forall x. forall y. R(x, y) -> R(y, x)", (2, 3, 4)),
    ((("R", 2),), (), "forall x. forall y. forall z. R(x, y) and R(y, z) -> R(x, z)", (2, 3)),
    ((("R", 2),), (), "forall x. R(x, x)", (2, 3)),
    ((("P", 1),), (("f", 1),), "forall x. P(x) -> P(f(x))", (2, 3, 4)),
)
# (predicates, functions, domain sizes): relations of 8 tuples or fewer and of
# more than 8, constants and unary and binary functions side by side
LOGIC_SIGNATURES = (
    ((("R", 2), ("P", 1)), (("f", 1), ("g", 2)), (1, 2)),
    ((("R", 3),), (("c", 0),), (1, 2)),
    ((("R", 2),), (("c", 0),), (1, 2, 3)),
    ((("P", 1), ("Q", 1)), (("f", 1),), (1, 2, 3)),
    ((), (("g", 2),), (1, 2)),
)
LOGIC_SENTENCES = 12  # per random signature


def random_problem(rng: random.Random, n: int, m: int, scale: float, offset: float) -> DesignProblem:
    variables, seed = [], []
    for j in range(n):
        lo = offset + rng.uniform(-2.0, 1.0)
        width = rng.uniform(0.8, 2.0)
        variables.append(DesignVariable(f"x{j}", "", Interval(lo, lo + width)))
        seed.append(lo + width * rng.uniform(0.15, 0.85))
    surfaces = [
        QuadraticResponseSurface(
            name=f"z{i}",
            unit="",
            beta0=scale * rng.uniform(-2.0, 2.0),
            linear=tuple(scale * rng.uniform(-2.0, 2.0) for _ in range(n)),
            quadratic=tuple(scale * rng.uniform(-1.0, 1.0) for _ in range(n)),
        )
        for i in range(m)
    ]
    constraints = [
        ObjectiveConstraint(s.name, s.evaluate(seed) + scale * rng.uniform(0.5, 2.5)) for s in surfaces
    ]
    return DesignProblem(tuple(variables), tuple(surfaces), tuple(constraints), tuple(seed), name="fp")


def outputs(problem: DesignProblem, work: Path) -> dict[str, bytes]:
    """Every output of one problem, keyed by the part of the package that made it."""
    out: dict[str, bytes] = {}
    try:
        result = solve_greedy(problem)
    except CddError as exc:
        out["solve"] = f"{type(exc).__name__}: {exc}".encode()
        return out
    out["solve"] = json.dumps(result.to_json(), indent=2).encode()
    out["checks"] = feasibility_checks(problem, result)

    checks = oracle_check_steps(problem, result, ORACLE_RESOLUTION)
    out["oracle_steps"] = repr(
        [(c.factor, c.grid_lo, c.grid_hi, c.tolerance, c.ok) for c in checks]
    ).encode()
    if problem.dim in VOLUME_SEARCH_RESOLUTION:
        oracle = oracle_solve(problem, VOLUME_RESOLUTION)
        out["oracle_boxes"] = json.dumps(
            [oracle.greedy_box.to_json(), oracle.volume_box.to_json(), list(oracle.ranking)]
        ).encode()
    report = build_report(problem, result, ROSETTA_RESOLUTION)
    paths = emit(report, "csv", work) + emit(report, "svg", work)
    out["rosetta"] = b"".join(p.name.encode() + p.read_bytes() for p in paths)
    return out


def feasibility_checks(problem: DesignProblem, result) -> bytes:
    """Each box and point verdict of the ``checks`` part on one line: the verdict, then every slack as hex."""
    region = problem.region()
    box = [Interval(x, x) for x in problem.seed]
    boxes = [result.orthotope.intervals]
    # the solver's box after each factor's expansion: the seed point box with the solved
    # intervals of the factors ranked so far
    for j in result.ranking:
        box[j] = result.orthotope.intervals[j]
        boxes.append(tuple(box))
    boxes.append(tuple(v.ambient for v in problem.variables))
    corners = [tuple(iv.lo for iv in result.orthotope.intervals), tuple(iv.hi for iv in result.orthotope.intervals)]
    verdicts = [region.is_box_feasible(b) for b in boxes]
    verdicts += [region.is_point_feasible(p) for p in (problem.seed, *corners)]
    return "".join(f"{ok:d} {' '.join(map(float.hex, slacks))}\n" for ok, slacks in verdicts).encode()


def zero_budget_problems():
    """Problems z = x0 + l1*x1 whose budget for x1 cancels to exactly +0.0 or -0.0.

    Under the bound 1.0, x0 grows to 1.0 and spends the budget: 1.0 - 1.0
    is +0.0.  Under the bound -0.0 with beta0 0.0, x0 stops at -0.0, every
    addend of x1's budget is -0.0 and so is the budget.  x1's end is then
    ``budget / l1`` against a seed of +0.0 or -0.0, so the sign of the
    budget, and which operand a tie keeps, reach the solution JSON.
    """
    for bound, lo0, seed0 in ((1.0, 0.0, 0.5), (-0.0, -2.0, -1.0)):
        for l1 in (1.0, -1.0):
            for seed1 in (0.0, -0.0):
                yield DesignProblem(
                    variables=(
                        DesignVariable("x0", "", Interval(lo0, 2.0)),
                        DesignVariable("x1", "", Interval(-1.0, 1.0)),
                    ),
                    surfaces=(QuadraticResponseSurface("z", "", 0.0, (1.0, l1), (0.0, 0.0)),),
                    constraints=(ObjectiveConstraint("z", bound),),
                    seed=(seed0, seed1),
                    ranking=(0, 1),
                    name="zero",
                )


def random_sentence(rng: random.Random, sig: Signature, depth: int = 3):
    """A closed formula over the signature's symbols and the variables x, y.

    Kept here rather than shared with the tests, like ``random_problem``,
    so that a change to a test's generator does not move the digests.
    """

    def term(depth):
        if depth == 0 or not sig.functions or rng.random() < 0.5:
            return Var(rng.choice("xy"))
        name, arity = rng.choice(sig.functions)
        return Apply(name, tuple(term(depth - 1) for _ in range(arity)))

    def formula(depth):
        if depth == 0 or rng.random() < 0.3:
            if sig.predicates and rng.random() < 0.7:
                name, arity = rng.choice(sig.predicates)
                return Atom(name, tuple(term(1) for _ in range(arity)))
            return Eq(term(1), term(1))
        kind = rng.choice((Not, And, Or, Implies, Forall, Exists))
        if kind is Not:
            return Not(formula(depth - 1))
        if kind in (Forall, Exists):
            return kind(rng.choice("xy"), formula(depth - 1))
        return kind(formula(depth - 1), formula(depth - 1))

    sentence = formula(depth)
    for var in sorted(free_variables(sentence)):
        sentence = rng.choice((Forall, Exists))(var, sentence)
    return sentence


def model_text(model) -> str:
    """A model as canonical text: relations with their tuples sorted, tables in argument order."""
    lines = [" ".join(model.domain)]
    for name, extension in sorted(model.relations.items()):
        lines.append(f"{name}: " + " ".join(",".join(t) for t in sorted(extension)))
    for name, table in sorted(model.functions.items()):
        entries = (",".join(args) + ">" + value for args, value in sorted(table.items()))
        lines.append(f"{name}: " + " ".join(entries))
    return "\n".join(lines) + "\n"


def logic_problems(seed: int):
    """(signature, sentence, domain size) for every enumeration the logic part hashes."""
    for preds, fns, text, sizes in LOGIC_CASES:
        sig = Signature(predicates=preds, functions=fns)
        for size in sizes:
            yield sig, parse_sentence(text, sig), size
    rng = random.Random(f"logic {seed}")
    for preds, fns, sizes in LOGIC_SIGNATURES:
        sig = Signature(predicates=preds, functions=fns)
        for size in sizes:
            for _ in range(LOGIC_SENTENCES):
                yield sig, random_sentence(rng, sig), size


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=13)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    combos = list(itertools.product(DIMS, COUNTS, SCALES, (False, True)))
    total = hashlib.sha256()
    parts: dict = {}
    counts: dict[str, int] = {}
    problems = 0
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.repeats):
            for n, m, scale, shifted in combos:
                offset = rng.uniform(*OFFSET) if shifted else 0.0
                problem = random_problem(rng, n, m, scale, offset)
                problems += 1
                for key, blob in outputs(problem, Path(tmp)).items():
                    record = f"{problems}:{key}:{len(blob)}:".encode() + blob
                    total.update(record)
                    parts.setdefault(key, hashlib.sha256()).update(record)
                    counts[key] = counts.get(key, 0) + 1
    for index, (sig, sentence, size) in enumerate(logic_problems(args.seed), 1):
        models = enumerate_models(sig, sentence, size)
        blob = "".join(map(model_text, models)).encode()
        record = f"{index}:logic:{size}:{len(models)}:{len(blob)}:".encode() + blob
        total.update(record)
        parts.setdefault("logic", hashlib.sha256()).update(record)
        counts["logic"] = counts.get("logic", 0) + 1
    for index, problem in enumerate(zero_budget_problems(), 1):
        blob = json.dumps(solve_greedy(problem).to_json(), indent=2).encode()
        record = f"{index}:zero_budget:{len(blob)}:".encode() + blob
        total.update(record)
        parts.setdefault("zero_budget", hashlib.sha256()).update(record)
        counts["zero_budget"] = counts.get("zero_budget", 0) + 1

    print(f"problems: {problems}")
    for key in ("solve", "checks", "oracle_steps", "oracle_boxes", "rosetta", "logic", "zero_budget"):
        if key in parts:
            print(f"{key:<13} {counts[key]:>5}  {parts[key].hexdigest()}")
    print(f"{'all':<13} {'':>5}  {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
