"""Seeded problem generator for the benchmark.

The distributions are those of ``random_problem`` in ``tests/conftest.py``
with the dimension N and the constraint count M fixed, plus two knobs:
``scale`` multiplies every surface coefficient and the seed slack, and
``offset`` shifts every ambient interval (ADAS-style domains sit around
1600-2000).  The seed is strictly feasible by construction.
"""

from __future__ import annotations

import random

from cddkit.designspace import DesignProblem, DesignVariable, ObjectiveConstraint
from cddkit.surface import Interval, QuadraticResponseSurface


def random_surface(rng: random.Random, dim: int, name: str, scale: float = 1.0) -> QuadraticResponseSurface:
    return QuadraticResponseSurface(
        name=name,
        unit="",
        beta0=scale * rng.uniform(-2.0, 2.0),
        linear=tuple(scale * rng.uniform(-2.0, 2.0) for _ in range(dim)),
        quadratic=tuple(scale * rng.uniform(-1.0, 1.0) for _ in range(dim)),
    )


def random_problem(
    rng: random.Random, n: int, m: int, scale: float = 1.0, offset: float = 0.0
) -> DesignProblem:
    variables = []
    seed = []
    for j in range(n):
        lo = offset + rng.uniform(-2.0, 1.0)
        width = rng.uniform(0.8, 2.0)
        variables.append(DesignVariable(f"x{j}", "", Interval(lo, lo + width)))
        seed.append(lo + width * rng.uniform(0.15, 0.85))
    surfaces = [random_surface(rng, n, f"z{i}", scale) for i in range(m)]
    constraints = [
        ObjectiveConstraint(s.name, s.evaluate(seed) + scale * rng.uniform(0.5, 2.5)) for s in surfaces
    ]
    return DesignProblem(
        variables=tuple(variables),
        surfaces=tuple(surfaces),
        constraints=tuple(constraints),
        seed=tuple(seed),
        name=f"random_N{n}xM{m}",
    )
