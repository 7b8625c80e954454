"""Seeded output fingerprint of the numeric core.

Solves a fixed, seeded set of random problems and hashes everything the
package prints or writes for them: the ``solve_greedy`` solution JSON,
the grid oracle's step checks and boxes (N <= 3), the lattice masks of
``grid_feasible_set`` (N <= 10) and the ROSETTA CSV and SVG bytes.  Two checkouts
that print the same digests produce byte-identical outputs on every one
of those problems, so a refactor that claims to change no output can
be checked by running this script before and after it:

    PYTHONPATH=src python tools/fingerprint.py [--seed 0] [--repeats 13]

The problem mix is every combination of N in {1, 2, 3, 5, 10, 20},
M in {1, 2, 3, 5, 10}, coefficient scale in {1e-4, 1, 1e3, 1e6} and
plain or ADAS-style offset domain (1600-2000), ``--repeats`` times.
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
from cddkit.orthotope import oracle_check_steps, oracle_solve, solve_greedy
from cddkit.rosetta import build_report, emit
from cddkit.surface import Interval, QuadraticResponseSurface

DIMS = (1, 2, 3, 5, 10, 20)
COUNTS = (1, 2, 3, 5, 10)
SCALES = (1e-4, 1.0, 1e3, 1e6)
OFFSET = (1600.0, 2000.0)
ORACLE_MAX_DIM = 3
ORACLE_RESOLUTION = 41
VOLUME_RESOLUTION = 11
MASK_MAX_DIM = 10
MASK_RESOLUTION = {1: 9, 2: 7, 3: 5, 5: 3}  # 2 for the other dimensions
# a report costs r^2 points per cell, so every dimension gets one
ROSETTA_RESOLUTION = 5


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

    n = problem.dim
    if n <= ORACLE_MAX_DIM:
        checks = oracle_check_steps(problem, result, ORACLE_RESOLUTION)
        out["oracle_steps"] = repr(
            [(c.factor, c.grid_lo, c.grid_hi, c.tolerance, c.ok) for c in checks]
        ).encode()
        oracle = oracle_solve(problem, VOLUME_RESOLUTION)
        out["oracle_boxes"] = json.dumps(
            [oracle.greedy_box.to_json(), oracle.volume_box.to_json(), list(oracle.ranking)]
        ).encode()
    if n <= MASK_MAX_DIM:
        resolution = MASK_RESOLUTION.get(n, 2)
        mask = problem.region().grid_feasible_set(resolution)
        # the bytes of the shape and of a numpy bool array, as earlier digests hashed them
        out["mask"] = repr((resolution,) * n).encode() + bytes(mask)
    report = build_report(problem, result, ROSETTA_RESOLUTION)
    paths = emit(report, "csv", work) + emit(report, "svg", work)
    out["rosetta"] = b"".join(p.name.encode() + p.read_bytes() for p in paths)
    return out


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

    print(f"problems: {problems}")
    for key in ("solve", "oracle_steps", "oracle_boxes", "mask", "rosetta"):
        if key in parts:
            print(f"{key:<13} {counts[key]:>5}  {parts[key].hexdigest()}")
    print(f"{'all':<13} {'':>5}  {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
