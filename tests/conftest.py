import random
import sys

import pytest

from cddkit import data_path, load_problem
from cddkit.designspace import DesignProblem, DesignVariable, ObjectiveConstraint
from cddkit.surface import Interval, QuadraticResponseSurface


# text that no loader can parse, by what is wrong with it
MALFORMED_JSON = {
    "nested-too-deep": "[" * 100_000 + "]" * 100_000,
    "truncated": "{",
    "not-utf8": b'{"name": "\xff"}',
}
if hasattr(sys, "get_int_max_str_digits"):  # Python 3.11 and later
    MALFORMED_JSON["int-past-digit-limit"] = "9" * 5000


def load_bundled(name: str) -> DesignProblem:
    return load_problem(data_path(name).read_text())


@pytest.fixture
def emissions():
    return load_bundled("emissions.json")


@pytest.fixture
def adas():
    return load_bundled("adas.json")


@pytest.fixture
def adas_tall():
    return load_bundled("adas_tall.json")


def replace(obj, **changes):
    """A copy of a value object with ``changes`` applied, built through its constructor.

    The other fields keep their values, read from the class's ``__slots__``.
    """
    fields = {name: getattr(obj, name) for name in obj.__slots__}
    return type(obj)(**{**fields, **changes})


def random_surface(
    rng: random.Random, dim: int, name: str = "z", scale: float = 1.0
) -> QuadraticResponseSurface:
    return QuadraticResponseSurface(
        name=name,
        unit="",
        beta0=scale * rng.uniform(-2.0, 2.0),
        linear=tuple(scale * rng.uniform(-2.0, 2.0) for _ in range(dim)),
        quadratic=tuple(scale * rng.uniform(-1.0, 1.0) for _ in range(dim)),
    )


def random_problem(
    rng: random.Random,
    dim: int | None = None,
    count: int | None = None,
    scale: float = 1.0,
    offset: float = 0.0,
) -> DesignProblem:
    """A randomized problem whose seed is strictly feasible by construction.

    ``count`` fixes the number of constraints, ``scale`` multiplies every
    coefficient and the seed slack, and ``offset`` shifts every ambient
    interval (ADAS-style domains sit around 1600-2000).
    """
    n = dim if dim is not None else rng.randint(1, 3)
    variables = []
    seed = []
    for j in range(n):
        lo = offset + rng.uniform(-2.0, 1.0)
        width = rng.uniform(0.8, 2.0)
        variables.append(DesignVariable(f"x{j}", "", Interval(lo, lo + width)))
        seed.append(lo + width * rng.uniform(0.15, 0.85))
    m = count if count is not None else rng.randint(1, 3)
    surfaces = [random_surface(rng, n, f"z{i}", scale) for i in range(m)]
    constraints = [
        ObjectiveConstraint(s.name, s.evaluate(seed) + scale * rng.uniform(0.5, 2.5))
        for s in surfaces
    ]
    return DesignProblem(
        variables=tuple(variables),
        surfaces=tuple(surfaces),
        constraints=tuple(constraints),
        seed=tuple(seed),
        name="random",
    )


def problem_document(problem: DesignProblem) -> dict:
    """The JSON problem document of a problem whose constraints all use ``<=``."""
    return {
        "name": problem.name,
        "variables": [{"name": v.name, "lo": v.ambient.lo, "hi": v.ambient.hi} for v in problem.variables],
        "surfaces": [s.to_json() for s in problem.surfaces],
        "constraints": [{"surface": c.surface, "bound": c.bound} for c in problem.constraints],
        "seed": list(problem.seed),
    }


def reference_is_box_feasible(problem: DesignProblem, box):
    """``FeasibleRegion.is_box_feasible`` from before the term-max table decided it, verbatim.

    One ``box_extremum`` per constraint, so a test that compares the table
    with it compares two independent sums.
    """
    region = problem.region()
    region.check_inside(box)
    pairs = problem.constrained_pairs()
    slacks = tuple(bound - s.box_extremum(box, "max")[0] for s, bound in pairs)
    return all(sl >= 0.0 for sl in slacks), slacks


def numpy_lattice_sum(beta0, per_axis):
    """``beta0`` plus ``per_axis[j]`` along each axis j, a numpy broadcast shaped like the lattice.

    The lattice sum of the numpy reference volume search; the library itself has no numpy path.
    """
    import numpy as np

    per_axis = [np.asarray(v, dtype=float) for v in per_axis]
    n = len(per_axis)
    total = np.full(tuple(len(v) for v in per_axis), beta0)
    for j, v in enumerate(per_axis):
        total = total + v.reshape([-1 if k == j else 1 for k in range(n)])
    return total
