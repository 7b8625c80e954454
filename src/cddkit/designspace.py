"""Design variables, objective constraints, and the feasible region.

Objective constraints have the single form ``z <= c``.  Pushing them
through the response surfaces induces the feasible region in design
space; membership is always computed, never stored.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import Sequence

from ._frozen import Frozen
from .errors import (
    BoxOutsideAmbient,
    CapExceeded,
    DimensionMismatch,
    InfeasibleSeed,
    SchemaError,
    UnknownSurfaceReference,
    UnsupportedRelation,
    read_json,
    reading,
)
from .surface import Interval, QuadraticResponseSurface

__all__ = [
    "DesignVariable",
    "ObjectiveConstraint",
    "DesignProblem",
    "FeasibleRegion",
    "load_problem",
    "quantify_requirement",
]

DEFAULT_TOLERANCE = 1e-6
# the most points a grid axis, or a ROSETTA report cell, may have
GRID_CAP = 10_000_000


class DesignVariable(Frozen):
    """A named design factor with its measured ambient bounds, strictly ordered and of finite width."""

    __slots__ = ("name", "unit", "ambient")

    def __init__(self, name: str, unit: str, ambient: Interval):
        if not ambient.lo < ambient.hi:
            raise ValueError(f"variable {name!r} needs strictly ordered ambient bounds")
        # every grid step, face push and certificate margin is a fraction of the width
        if not math.isfinite(ambient.width):
            raise ValueError(
                f"variable {name!r} has ambient bounds [{ambient.lo!r}, {ambient.hi!r}] whose width overflows"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "ambient", ambient)

    def check_inside(self, interval: Interval) -> None:
        """Raise ``BoxOutsideAmbient`` unless the interval lies inside the ambient bounds."""
        if not self.ambient.contains_interval(interval):
            raise BoxOutsideAmbient(
                f"interval [{interval.lo}, {interval.hi}] of {self.name!r} "
                f"outside ambient [{self.ambient.lo}, {self.ambient.hi}]"
            )


class ObjectiveConstraint(Frozen):
    """Upper bound on one objective: surface value <= bound."""

    __slots__ = ("surface", "bound")

    def __str__(self) -> str:
        return f"{self.surface} <= {self.bound!r}"


def check_ranking(ranking: tuple[int, ...], n: int) -> None:
    """Refuse a ranking that is not a permutation of 0..n-1, in one message for every reader."""
    if sorted(ranking) != list(range(n)):
        raise SchemaError(f"ranking {ranking} is not a permutation of 0..{n - 1}")


class DesignProblem(Frozen):
    """A full constraint-driven design problem.

    The seed must lie in the ambient box and satisfy every constraint
    with slack of at least ``tolerance`` (a NaN slack does not); the
    greedy solver anchors its expansion there.
    """

    __slots__ = ("variables", "surfaces", "constraints", "seed", "ranking", "tolerance", "name")

    def __init__(
        self,
        variables: tuple[DesignVariable, ...],
        surfaces: tuple[QuadraticResponseSurface, ...],
        constraints: tuple[ObjectiveConstraint, ...],
        seed: tuple[float, ...],
        ranking: tuple[int, ...] | None = None,
        tolerance: float = DEFAULT_TOLERANCE,
        name: str = "problem",
    ):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "surfaces", tuple(surfaces))
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "seed", tuple(float(v) for v in seed))
        object.__setattr__(self, "ranking", None if ranking is None else tuple(int(i) for i in ranking))
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "name", name)

        # the name is the stem of every file a solve or report writes
        if self.name in ("", ".", "..") or any(ch in self.name for ch in "/\\\0"):
            raise SchemaError(
                f"problem name {self.name!r} must be a plain file stem: "
                "not empty, '.' or '..', and without '/', '\\' or NUL"
            )
        n = len(self.variables)
        if n == 0:
            raise SchemaError("a problem needs at least one design variable")
        if len(self.seed) != n:
            raise DimensionMismatch(f"seed has {len(self.seed)} coordinates for {n} variables")
        for var, x in zip(self.variables, self.seed):
            if not math.isfinite(x):
                raise SchemaError(f"seed coordinate {x!r} of {var.name!r} is not finite")
        for s in self.surfaces:
            if s.dim != n:
                raise DimensionMismatch(f"surface {s.name!r} has dimension {s.dim}, problem has {n}")
        names = [s.name for s in self.surfaces]
        if len(set(names)) != len(names):
            raise SchemaError("surface names must be unique")
        constrained = set()
        for c in self.constraints:
            if c.surface not in names:
                raise UnknownSurfaceReference(f"constraint references unknown surface {c.surface!r}")
            if c.surface in constrained:
                # the tighter bound alone decides; a second one would only hide its slack
                raise SchemaError(f"surface {c.surface!r} has more than one constraint")
            constrained.add(c.surface)
            if math.isnan(c.bound):
                raise SchemaError(f"constraint on {c.surface!r} has a NaN bound")
        if self.ranking is not None:
            check_ranking(self.ranking, n)
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise SchemaError(f"tolerance must be positive and finite, got {self.tolerance!r}")

        for var, x in zip(self.variables, self.seed):
            if not var.ambient.contains(x):
                raise InfeasibleSeed(f"seed coordinate {x} outside ambient bounds of {var.name!r}")
        # the only seed check: the solver and the grid replay start from the seed point box,
        # whose table slacks are these bit for bit; a NaN slack violates it too
        for c, slack in zip(self.constraints, self.region().is_point_feasible(self.seed)[1]):
            if not slack >= self.tolerance:
                if slack >= 0:
                    raise InfeasibleSeed(
                        f"seed slack {slack:.3g} on {c} is below the tolerance {self.tolerance:.3g}"
                    )
                raise InfeasibleSeed(f"seed violates {c} (slack {slack:.3g})")

    @property
    def dim(self) -> int:
        return len(self.variables)

    def ambient_widths(self) -> tuple[float, ...]:
        return tuple(v.ambient.width for v in self.variables)

    def constrained_pairs(self) -> list[tuple[QuadraticResponseSurface, float]]:
        surfaces = {s.name: s for s in self.surfaces}
        return [(surfaces[c.surface], c.bound) for c in self.constraints]

    def region(self) -> "FeasibleRegion":
        return FeasibleRegion(self)


class FeasibleRegion(Frozen):
    """Membership queries for the constraint-induced feasible region: a box's verdict is its ``_TermMax``."""

    __slots__ = ("problem",)

    def is_point_feasible(self, point: Sequence[float]) -> tuple[bool, tuple[float, ...]]:
        """Feasibility plus the per-constraint slack vector c - z(point), the table's over [x, x] bit for bit.

        A point outside the ambient box is infeasible no matter the slacks.
        """
        p = self.problem
        if len(point) != p.dim:
            raise DimensionMismatch(f"point has {len(point)} coordinates for dimension {p.dim}")
        slacks = tuple(bound - s.evaluate(point) for s, bound in p.constrained_pairs())
        in_ambient = all(v.ambient.contains(x) for v, x in zip(p.variables, point))
        return in_ambient and all(sl >= 0.0 for sl in slacks), slacks

    def is_box_feasible(self, box: Sequence[Interval]) -> tuple[bool, tuple[float, ...]]:
        """Exact box feasibility via per-constraint worst case.

        Returns the per-constraint worst slack c - max(z over box), the
        term-max table's ``slacks()``; the box is feasible iff all are
        >= 0.  The box must lie inside the ambient bounds.
        """
        self.check_inside(box)
        slacks = _TermMax(self.problem.constrained_pairs(), box).slacks()
        return all(sl >= 0.0 for sl in slacks), slacks

    def check_inside(self, box: Sequence[Interval]) -> None:
        """Raise unless the box has one interval per variable, each inside its ambient bounds."""
        p = self.problem
        if len(box) != p.dim:
            raise DimensionMismatch(f"box has {len(box)} intervals for dimension {p.dim}")
        for var, interval in zip(p.variables, box):
            var.check_inside(interval)

    def grid_axes(self, resolution: int) -> list[list[float]]:
        """Inclusive regular lattice axes over the ambient box, ``resolution`` points per variable.

        Point i of an r-point axis is ``i*step + lo`` with
        ``step = (hi - lo) / (r - 1)``, and the last point is ``hi`` exactly.
        The grid cap bounds each axis, not their product: a sweep along one
        axis at a time builds no lattice.
        """
        if resolution < 2:
            raise SchemaError("grid resolution must be at least 2 per axis")
        if resolution > GRID_CAP:
            raise CapExceeded(f"axis of {resolution} points exceeds cap {GRID_CAP}")
        axes = []
        for v in self.problem.variables:
            lo, hi = v.ambient.lo, v.ambient.hi
            step = (hi - lo) / (resolution - 1)
            axes.append([i * step + lo for i in range(resolution - 1)] + [hi])
        return axes


# --- term-max table ----------------------------------------------------------

_FLOAT_EPS = 2.220446049250313e-16
# while the magnitudes of a sum stay below this, no left-to-right partial sum can overflow
_SUM_LIMIT = 2.0**1022


class _LeftToRight(float):
    """A float that starts a builtin ``sum`` left to right: ``((start + c0) + c1) + ...``.

    CPython 3.12+ compensates a float ``sum`` (Neumaier) only while its
    running total is exactly a ``float``; from a subclass start, ``sum``
    takes its generic loop on every version, one ``+`` per cell in order,
    as ``reduce(add)`` does, with no Python call per cell.  The table starts
    its sums with it on CPython 3.12+ and on other implementations.
    """

    __slots__ = ()


# The start of every table sum.  Before 3.12, CPython sums from a plain ``float``
# in a C loop of uncompensated ``double`` additions, left to right, several times
# faster per cell than the generic loop that ``_LeftToRight`` takes.
_SUM_START = float if sys.implementation.name == "cpython" and sys.version_info < (3, 12) else _LeftToRight


class _TermMax:
    """Maximum of every coordinate term over one box: per constraint, a row of N floats.

    The only code that decides whether a box is feasible.  ``pairs`` are
    the constrained ``(surface, bound)`` pairs, ``intervals`` the box as a
    list of ``Interval``s that the caller has checked against the ambient
    bounds.  ``column`` is the cell kernel of every box: each cell is
    ``extremum(linear[k], quadratic[k], lo, hi)[0]`` bit for bit, computed
    inline, and the constructor builds the rows from the columns, unless
    it is given them: ``at_seed`` gives the seed point box's rows, whose
    cells are ``column(j, x, x)`` bit for bit.  Every sum runs left
    to right, ``sum`` from a ``_SUM_START`` start (a plain float on CPython
    before 3.12, ``_LeftToRight`` elsewhere), as ``evaluate`` adds a
    point's terms.  ``abs_rows`` holds the cells' magnitudes, which every
    roundoff bound sums, and ``neg_rows`` their negations, which the
    budgets add: x - y is exactly x + (-y).  Swapping one interval costs
    one column of M term evaluations.  ``linear[k]`` and ``quadratic[k]``
    are factor k's coefficients in every constrained surface, and
    ``names`` the constrained surfaces, in constraint order.

    It also holds the one float filter of expansion tries, face pushes,
    grid replay points, ROSETTA slice points and the oracle's max-volume
    boxes (README, "Verification notes"): ``budgets`` gives a budget pair,
    the parallel lists ``(rests, noises)``.  Charged with a column, a budget
    gives each constraint's slack estimate ``rest - c`` and its error bound
    ``noise + spread * |c|``, inf from ``limit`` on.  ``fits`` is the sign
    test of a try, which grid replay points, slice points and max-volume
    boxes are too, and ``face_slacks`` the least slack of a face push, each
    charging the budget in one pass over the column; ``slack`` is the one
    left-to-right sum they both fall back to.  ``slacks`` sums the whole
    rows in one ``map(sum, ...)`` pass, the same additions as ``slack``
    with each row's first cell kept.
    """

    def __init__(
        self,
        pairs: Sequence[tuple[QuadraticResponseSurface, float]],
        intervals: Sequence[Interval],
        rows: list[list[float]] | None = None,
    ):
        self.intervals = list(intervals)
        self.pairs = pairs
        # per factor, its coefficient in every constrained surface; empty with no constraint
        self.linear = list(zip(*(s.linear for s, _ in self.pairs))) or [()] * len(self.intervals)
        self.quadratic = list(zip(*(s.quadratic for s, _ in self.pairs))) or [()] * len(self.intervals)
        self.names = tuple(s.name for s, _ in self.pairs)
        if rows is None:
            columns = [self.column(j, iv.lo, iv.hi) for j, iv in enumerate(self.intervals)]
            rows = [list(row) for row in zip(*columns)]
        self.rows = rows
        self.abs_rows = [list(map(abs, row)) for row in self.rows]
        self.neg_rows = [[-c for c in row] for row in self.rows]
        # per constraint, the start of its budget, noise and slack sums
        self.budget_starts = [_SUM_START(bound - s.beta0) for s, bound in self.pairs]
        self.noise_starts = [_SUM_START(abs(bound) + abs(s.beta0)) for s, bound in self.pairs]
        self.slack_starts = [_SUM_START(s.beta0) for s, _ in self.pairs]
        # a slack estimate's error bound per unit of the magnitudes it sums
        self.spread = (2 * len(self.intervals) + 3) * _FLOAT_EPS
        self.limit = self.spread * _SUM_LIMIT

    @classmethod
    def at_seed(cls, problem: DesignProblem) -> "_TermMax":
        """The table of the seed point box, built row by row: the box constructor's table bit for bit.

        Each cell is its term's value at the seed, ``l * x + q * x * x``.
        That is ``column(j, x, x)``: over [x, x] no vertex lies strictly
        inside and ``hi == lo``, so the kernel keeps its first value, the
        same expression.  One pass per row makes no column and no transpose.
        """
        pairs, seed = problem.constrained_pairs(), problem.seed
        rows = [[l * x + q * x * x for l, q, x in zip(s.linear, s.quadratic, seed)] for s, _ in pairs]
        return cls(pairs, [Interval(x, x) for x in seed], rows)

    def column(self, j: int, lo: float, hi: float) -> list[float]:
        """Cell j of every row, for interval j replaced by [lo, hi]: each term's maximum.

        ``extremum(l, q, lo, hi)[0]`` inline, bit for bit: the value at
        ``lo``, then the vertex ``-l / q / 2.0`` if it lies strictly inside,
        then the value at ``hi``, each kept only if strictly greater, so a
        tie or a NaN keeps the earlier value.  A call to ``extremum`` would
        cost about a third of each cell, so the kernel makes none.
        """
        cells = []
        for l, q in zip(self.linear[j], self.quadratic[j]):
            best = l * lo + q * lo * lo
            if q != 0.0:
                x = -l / q / 2.0
                if lo < x < hi:
                    v = l * x + q * x * x
                    if v > best:
                        best = v
            if hi != lo:
                v = l * hi + q * hi * hi
                if v > best:
                    best = v
            cells.append(best)
        return cells

    def write(self, j: int, column: Sequence[float]) -> None:
        """Set cell j of every row, its magnitude and its negation, to ``column``'s value."""
        for row, abs_row, neg_row, value in zip(self.rows, self.abs_rows, self.neg_rows, column):
            row[j], abs_row[j], neg_row[j] = value, abs(value), -value

    def swap(self, j: int, interval: Interval, column: list[float]) -> None:
        self.intervals[j] = interval
        self.write(j, column)

    def budgets(self, j: int | None = None) -> tuple[list[float], list[float]]:
        """Per constraint, the budget ``((bound - beta0) - t0) - ...`` without cell j, and its noise,
        ``spread`` times the magnitudes it sums; with j None, no budgets and the whole rows' noise.

        The budget adds the negated row, ``((bound - beta0) + -t0) + ...``,
        with cell j set to -0.0 for the moment, and the noise adds the
        magnitudes with cell j at +0.0: x + (-0.0) is x for every x, as
        x - (+0.0) is, and adding +0.0 to a sum of magnitudes leaves it.
        """
        spread = self.spread
        if j is None:
            return [], [spread * total for total in map(sum, self.abs_rows, self.noise_starts)]
        rests, noises = [], []
        for neg_row, abs_row, rest_start, noise_start in zip(
            self.neg_rows, self.abs_rows, self.budget_starts, self.noise_starts
        ):
            cell, size = neg_row[j], abs_row[j]
            neg_row[j], abs_row[j] = -0.0, 0.0
            rests.append(sum(neg_row, rest_start))
            noises.append(spread * sum(abs_row, noise_start))
            neg_row[j], abs_row[j] = cell, size
        return rests, noises

    def fits(self, j: int, column: Sequence[float], rests: Sequence[float], noises: Sequence[float]) -> bool:
        """Whether every left-to-right slack is >= 0 with column j replaced by ``column``, from the
        budget pair without cell j; a slack is summed only where its error bound leaves the sign open.

        One pass charges and tests each constraint in turn and stops at the
        first that fails; an error bound from ``limit`` on leaves every sign open.
        """
        spread, limit = self.spread, self.limit
        for i, (rest, noise, c) in enumerate(zip(rests, noises, column)):
            estimate, error = rest - c, noise + spread * abs(c)
            if not (error < limit and (estimate > error or estimate < -error)):
                estimate = self.slack(i, j, c)
            if not estimate >= 0.0:
                return False
        return True

    def face_slacks(
        self, j: int, column: Sequence[float], slacks: Sequence[float], noises: Sequence[float]
    ) -> tuple[bool, float, int]:
        """Left-to-right slack, with column j replaced, of each constraint that could hold the least one:
        whether every such slack is >= 0, the least one (inf if none) and its constraint's index.

        ``slacks`` are the box's ``slacks()`` and ``noises`` its whole rows'
        noise, ``budgets()``'s.  Each constraint's budget without cell j is
        its slack plus the cell, ``sl + row[j]``, formed in the one pass.  A
        constraint whose lowest possible slack lies above the least highest
        one can neither hold nor tie the least slack, so it is left out.
        The ceiling, that least highest slack, is ``min``'s: the first value
        wins ties and a NaN first value stays.  If some error bound reaches
        ``limit``, every constraint is summed.  As with ``min``, the first of
        tied slacks wins, and a NaN first slack stays the least.
        """
        spread, limit, lows, ceiling = self.spread, self.limit, [], math.inf
        for sl, row, noise, c in zip(slacks, self.rows, noises, column):
            estimate, error = (sl + row[j]) - c, noise + spread * abs(c)
            if not error < limit:
                candidates = range(len(column))
                break
            high = estimate + error
            if high < ceiling or not lows:
                ceiling = high
            lows.append(estimate - error)
        else:
            candidates = [i for i, low in enumerate(lows) if low <= ceiling]
        feasible, least, worst = True, math.inf, -1
        for i in candidates:
            slack = self.slack(i, j, column[i])
            if not slack >= 0.0:
                feasible = False
            if worst < 0 or slack < least:
                least, worst = slack, i
        return feasible, least, worst

    def slack(self, i: int, j: int, c: float) -> float:
        """Left-to-right slack of constraint i, with cell j of its row replaced by ``c``."""
        row = self.rows[i]
        cell, row[j] = row[j], c
        total = sum(row, self.slack_starts[i])
        row[j] = cell
        return self.pairs[i][1] - total

    def slacks(self) -> tuple[float, ...]:
        """Left-to-right slack of every constraint over the box."""
        totals = map(sum, self.rows, self.slack_starts)
        return tuple(bound - total for (_, bound), total in zip(self.pairs, totals))


# --- loading and quantification ------------------------------------------

_PROBLEM_KEYS = {"name", "variables", "surfaces", "constraints", "seed", "ranking", "tolerance"}


def load_problem(text_or_doc) -> DesignProblem:
    """Build a validated problem from its JSON document (text or parsed dict)."""
    doc = read_json(text_or_doc, "problem document")
    if not isinstance(doc, dict):
        raise SchemaError("problem document must be a JSON object")
    unknown = set(doc) - _PROBLEM_KEYS
    if unknown:
        raise SchemaError(f"unknown problem keys: {sorted(unknown)}")
    for key in ("variables", "surfaces", "constraints", "seed"):
        if key not in doc:
            raise SchemaError(f"problem document missing key {key!r}")
        if not isinstance(doc[key], list):
            raise SchemaError(f"problem key {key!r} must be a JSON array, got {json.dumps(doc[key])}")

    variables = []
    for entry in doc["variables"]:
        with reading("variable entry"):
            variables.append(
                DesignVariable(
                    name=str(entry["name"]),
                    unit=str(entry.get("unit", "")),
                    ambient=Interval(float(entry["lo"]), float(entry["hi"])),
                )
            )

    surfaces = [QuadraticResponseSurface.from_json(entry) for entry in doc["surfaces"]]

    constraints = []
    for entry in doc["constraints"]:
        with reading("constraint entry"):
            op = entry.get("op", "<=")
            constraint = ObjectiveConstraint(str(entry["surface"]), float(entry["bound"]))
        if op != "<=":
            raise SchemaError(f"constraint operator must be '<=', got {op!r}")
        constraints.append(constraint)

    ranking = doc.get("ranking", "auto")
    if ranking == "auto":
        ranking = None
    elif not (isinstance(ranking, list) and all(type(i) is int for i in ranking)):
        raise SchemaError("ranking must be 'auto' or a list of integer variable indices")

    with reading("seed"):
        seed = tuple(float(v) for v in doc["seed"])
    with reading("tolerance"):
        tolerance = float(doc.get("tolerance", DEFAULT_TOLERANCE))

    return DesignProblem(
        variables=tuple(variables),
        surfaces=tuple(surfaces),
        constraints=tuple(constraints),
        seed=seed,
        ranking=None if ranking is None else tuple(ranking),
        tolerance=tolerance,
        name=str(doc.get("name", "problem")),
    )


_REQUIREMENT = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(<=|>=|==|=|<|>)\s*(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)\s*$"
)


def quantify_requirement(text: str, problem: DesignProblem) -> ObjectiveConstraint:
    """Turn a one-atom requirement sentence ``NAME <= NUMBER`` into a constraint.

    This is the bridge from a requirement symbol to its interpreted
    relation: the name must resolve to a surface of the problem, and the
    only relation admitted is the upper bound.
    """
    m = _REQUIREMENT.match(text)
    if m is None:
        raise UnsupportedRelation(f"requirement {text!r} does not match 'NAME <= NUMBER'")
    name, op, bound = m.group(1), m.group(2), float(m.group(3))
    if op != "<=":
        raise UnsupportedRelation(f"relation {op!r} not supported; only '<=' is")
    if all(s.name != name for s in problem.surfaces):
        raise UnknownSurfaceReference(f"requirement names unknown surface {name!r}")
    if bound == -math.inf:
        # no point meets it, so no problem holding it could load
        raise SchemaError(f"requirement {text!r} has bound -inf, which no design meets")
    return ObjectiveConstraint(name, bound)
