"""Greedy construction and certification of maximal inscribed orthotopes.

The solver ranks the design variables, then grows an axis-aligned box
from the seed point one factor at a time, pushing each factor to its
constraint limit.  Because the surfaces are separable, each step is
solved in closed form: the budget left for a coordinate after charging
every other coordinate's worst case is a quadratic inequality whose
roots give the exact endpoints.  Every admitted interval is floored at
the current one, so each step's box contains the box before it and the
exact slack of every constraint is non-increasing along the run; the
float slack may still rise by an ulp of a term maximum, since a vertex
value rounds differently from an endpoint value.  The seed itself is
checked once, when the ``DesignProblem`` is built.

A box is maximal when every face is blocked: pushing any face outward
by epsilon times the ambient width breaks feasibility, or the face
already sits on an ambient bound; epsilon is the problem's tolerance.
For containment-ordered orthotopes this face-wise test is equivalent to
set-theoretic maximality, since a strictly containing box must extend
some face.
"""

from __future__ import annotations

import json
import math
from itertools import product
from typing import Sequence

from ._frozen import Frozen
from .designspace import DesignProblem, _TermMax, check_ranking
from .errors import (
    CapExceeded,
    InfeasibleInput,
    SchemaError,
    SeedNotContained,
    reading,
)
from .surface import Interval

__all__ = [
    "Orthotope",
    "FaceCheck",
    "MaximalityCertificate",
    "SolveResult",
    "OracleResult",
    "StepCheck",
    "auto_rank",
    "expand_factor",
    "solve_greedy",
    "verify_maximality",
    "oracle_solve",
    "oracle_check_steps",
]

COEFF_EPS = 1e-12
ORACLE_MAX_RESOLUTION = 201
# the max-volume search may try every grid box, a number exponential in N, so it runs only at the dimensions listed
VOLUME_SEARCH_RESOLUTION = {1: ORACLE_MAX_RESOLUTION, 2: 41, 3: 21}


class Orthotope(Frozen):
    """Axis-aligned box: one closed interval per design variable."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[Interval, ...]):
        object.__setattr__(self, "intervals", tuple(intervals))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def replaced(self, j: int, interval: Interval) -> "Orthotope":
        items = list(self.intervals)
        items[j] = interval
        return Orthotope(tuple(items))

    @classmethod
    def point(cls, point: Sequence[float]) -> "Orthotope":
        return cls(tuple(Interval(float(x), float(x)) for x in point))

    def to_json(self) -> list[dict]:
        return [{"lo": iv.lo, "hi": iv.hi} for iv in self.intervals]


class FaceCheck(Frozen):
    """Outcome of pushing one face outward by the problem's tolerance times its ambient width.

    ``blocked_by`` is a constraint surface name, "ambient", or None if the
    face is free; ``margin`` is the blocker's violation of the pushed box,
    the room left to an ambient bound, or a free face's least slack.
    """

    __slots__ = ("blocked_by", "margin")

    @property
    def blocked(self) -> bool:
        return self.blocked_by is not None


class MaximalityCertificate(Frozen):
    """``faces[j]`` is the ``(lo, hi)`` pair of axis j's face checks; ``epsilon`` the tolerance pushed."""

    __slots__ = ("faces", "epsilon")

    @property
    def maximal(self) -> bool:
        return all(lo.blocked and hi.blocked for lo, hi in self.faces)


def _margin(face: FaceCheck) -> float | None:
    # a margin past every float (the pushed objective overflows) is written as null
    return face.margin if math.isfinite(face.margin) else None


class SolveResult(Frozen):
    """The solved box, the expansion order and the certificate.

    ``bindings[j]`` is the ``(lo, hi)`` pair of names bounding axis j's
    ends: a constraint surface, "ambient", or "numerical" on both ends of
    an axis that kept the seed because every roundoff retreat failed.
    The file holds each axis's ends, bindings and faces under that axis.
    """

    __slots__ = ("orthotope", "bindings", "ranking", "certificate")

    def to_json(self) -> dict:
        return {
            "orthotope": [
                {"lo": iv.lo, "hi": iv.hi, "binding": {"lo": b_lo, "hi": b_hi},
                 "blocked_by": {"lo": f_lo.blocked_by, "hi": f_hi.blocked_by},
                 "margin": {"lo": _margin(f_lo), "hi": _margin(f_hi)}}
                for iv, (b_lo, b_hi), (f_lo, f_hi)
                in zip(self.orthotope.intervals, self.bindings, self.certificate.faces)
            ],
            "ranking": list(self.ranking),
            "certificate": {"epsilon": self.certificate.epsilon, "maximal": self.certificate.maximal},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SolveResult":
        """The result a solution document holds; it loads only if writing it back gives the same document.

        Numbers are read with ``float`` or ``int`` and names with ``str`` (a ``null`` margin as infinite).
        ``SchemaError`` refuses, in this order, a missing or malformed field (a file of an older format
        lacks each axis's face checks), a ranking that is not a permutation of the axes, and the first field
        where the document differs from ``to_json`` of what was read, by the compare ``cdd verify`` runs
        against a re-solve: so a ``maximal`` that the face checks contradict is refused too.
        """
        with reading("solve result"):
            axes = doc["orthotope"]
            orthotope = Orthotope(tuple(Interval(float(d["lo"]), float(d["hi"])) for d in axes))
            bindings = tuple((str(d["binding"]["lo"]), str(d["binding"]["hi"])) for d in axes)
            ranking = tuple(int(i) for i in doc["ranking"])
            faces = tuple(
                tuple(FaceCheck(None if d["blocked_by"][side] is None else str(d["blocked_by"][side]),
                                math.inf if d["margin"][side] is None else float(d["margin"][side]))
                      for side in ("lo", "hi"))
                for d in axes
            )
            certificate = MaximalityCertificate(faces, float(doc["certificate"]["epsilon"]))
            check_ranking(ranking, orthotope.dim)
            result = cls(orthotope, bindings, ranking, certificate)
            differences = _differences(doc, result.to_json(), "reading it back")
        if differences:
            raise SchemaError(f"malformed solve result: {differences[0]}")
        return result


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _differences(stored, normal, other: str, path: str = "") -> list[str]:
    """One line per field where ``stored`` differs from ``normal``, which ``other`` gives, in its key order.

    A number equals a number of the same value and sign of zero (a bool is
    not a number); one past the float range raises ``OverflowError``.  Any
    other leaf equals one of the same type and value.  A missing or extra
    key, or a list of another length, is one line.
    """
    if isinstance(stored, dict) and isinstance(normal, dict):
        prefix = f"{path}." if path else ""
        lines = []
        for key, value in normal.items():
            if key in stored:
                lines += _differences(stored[key], value, other, prefix + key)
            else:
                lines.append(f"{prefix}{key} is missing, {other} gives {json.dumps(value)}")
        return lines + [f"{prefix}{key} is {json.dumps(value)}, {other} has no such key"
                        for key, value in stored.items() if key not in normal]
    if isinstance(stored, list) and isinstance(normal, list):
        if len(stored) != len(normal):
            return [f"{path} has length {len(stored)}, {other} gives {len(normal)}"]
        return [line for k, pair in enumerate(zip(stored, normal))
                for line in _differences(*pair, other, f"{path}[{k}]")]
    if _is_number(stored) and _is_number(normal):
        # the signs first, so an integer past the float range raises whatever it is compared with
        same = math.copysign(1.0, stored) == math.copysign(1.0, normal) and stored == normal
    else:
        same = type(stored) is type(normal) and stored == normal
    return [] if same else [f"{path} is {json.dumps(stored)}, {other} gives {json.dumps(normal)}"]


# --- ranking --------------------------------------------------------------

def auto_rank(problem: DesignProblem) -> tuple[int, ...]:
    """Rank variables by aggregate sensitivity at the seed.

    Score of variable j is sum_i |dz_i/dx_j at seed| * ambient width of j;
    higher scores go first, ties break by ascending index.  The width
    weighting frees the score of the variables' units but not of the
    objectives': it adds raw slopes of objectives in different units, so
    rescaling one objective can reorder the ranking (ROADMAP.md, item 7).
    """
    # per variable, |sensitivity| summed over the surfaces left to right from 0.0,
    # never with ``sum``: its rounding depends on the Python version
    totals = [0.0] * problem.dim
    for s in problem.surfaces:
        totals = [t + abs(l + 2.0 * q * x) for t, l, q, x in zip(totals, s.linear, s.quadratic, problem.seed)]
    scores = [t * w for t, w in zip(totals, problem.ambient_widths())]
    return tuple(sorted(range(problem.dim), key=lambda j: (-scores[j], j)))


# --- one-factor expansion ---------------------------------------------------

def _quadratic_roots(a: float, b: float, c: float) -> tuple[float, float] | None:
    """Real roots of a*x**2 + b*x + c = 0 (a != 0, a and b finite), numerically stable, sorted."""
    disc = b * b - 4.0 * a * c
    if not math.isfinite(disc) and math.isfinite(c):
        # b*b or 4*a*c overflowed: divide the equation by a power of two that
        # brings its largest coefficient below 2**510, which keeps the roots
        k = math.frexp(max(abs(a), abs(b), abs(c)))[1] - 510
        a, b, c = math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(c, -k)
        disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    t = -(b + sq) / 2.0 if b >= 0.0 else -(b - sq) / 2.0
    if t == 0.0:
        r1 = r2 = 0.0
    else:
        r1 = t / a
        r2 = c / t
    return (r1, r2) if r1 <= r2 else (r2, r1)


def _admitted_interval(
    l: float, q: float, seed_term: float, budget: float, accept: float, seed: float
) -> tuple[float, float]:
    """Largest interval around the seed where the term ``l*x + q*x*x`` is <= budget.

    ``seed_term`` is the term's value at the seed.  ``accept`` (>= budget
    by the arithmetic noise allowance) decides whether the seed itself
    counts as inside the solution set; this keeps downhill growth alive
    when an earlier step has consumed the budget exactly and roundoff
    puts the seed a hair past the boundary.  An end is infinite where
    the solution set is a ray or the whole line.  A refused seed admits
    nothing, the empty interval (inf, -inf), which the caller's floor
    replaces by the current interval.
    """
    small_q = -COEFF_EPS < q < COEFF_EPS
    if small_q and -COEFF_EPS < l < COEFF_EPS:
        # the coordinate has no effect on this constraint
        return (-math.inf, math.inf) if accept >= 0.0 else (math.inf, -math.inf)

    # ``seed if seed < a else a`` is ``min(a, seed)`` and ``seed if seed > a else a`` is
    # ``max(a, seed)``, operands in the builtins' order, so a tie keeps a's sign of zero
    seed_ok = seed_term <= accept
    if small_q:
        if not seed_ok:
            return math.inf, -math.inf
        x0 = budget / l
        if l > 0.0:
            return -math.inf, seed if seed > x0 else x0
        return seed if seed < x0 else x0, math.inf

    roots = _quadratic_roots(q, l, -budget)
    if q > 0.0:
        # solution set is the interval between the roots (empty if none)
        if not seed_ok or roots is None:
            return math.inf, -math.inf
        r1, r2 = roots
        return seed if seed < r1 else r1, seed if seed > r2 else r2

    # concave: solution set is everything outside the roots
    if roots is None:
        # vertex value is at or below the budget, the whole line qualifies
        return -math.inf, math.inf
    if not seed_ok:
        return math.inf, -math.inf
    r1, r2 = roots
    # pick the ray nearest the seed
    if abs(seed - r1) <= abs(seed - r2):
        return -math.inf, seed if seed > r1 else r1
    return seed if seed < r2 else r2, math.inf


def _expand_once(
    problem: DesignProblem, table: _TermMax, j: int, bias: float, rests: list[float], noises: list[float]
) -> tuple[float, float, str, str]:
    """The candidate interval [lo, hi] of factor j, and the constraint binding each end.

    Each constraint's admitted interval is clamped to the ambient bounds
    and floored at the current (feasible) interval, so intersecting them
    never shrinks what the box already has; the floor contains the seed.
    Since ``lo`` never falls below the ambient ``lo``, the clamp and floor,
    ``min(max(ambient_lo, raw_lo), floor_lo)``, raise ``lo`` exactly when
    both ``raw_lo`` and ``floor_lo`` lie above it, to the lesser of the two
    (NaN, infinite and signed-zero ends included); ``hi`` mirrors it.
    """
    x = problem.seed[j]
    ambient = problem.variables[j].ambient
    floor = table.intervals[j]
    lo, hi = ambient.lo, ambient.hi
    floor_lo, floor_hi = floor.lo, floor.hi
    binding_lo = binding_hi = "ambient"
    for l, q, name, rest, noise in zip(table.linear[j], table.quadratic[j], table.names, rests, noises):
        raw_lo, raw_hi = _admitted_interval(l, q, l * x + q * x * x, rest - bias * noise, rest + 4.0 * noise, x)
        if raw_lo > lo and floor_lo > lo:
            lo, binding_lo = min(raw_lo, floor_lo), name
        if raw_hi < hi and floor_hi < hi:
            hi, binding_hi = max(raw_hi, floor_hi), name
    return lo, hi, binding_lo, binding_hi


def _slice_verdicts(table: _TermMax, j: int, k: int, xs: Sequence[float], ys: Sequence[float]) -> list[bool]:
    """``is_box_feasible`` of the table's box with x_j fixed at x and x_k at y, for each (x, y) in xs × ys.

    Row-major.  The point's cells are the columns over [x, x] and [y, y].
    For each x, column j holds the cells at x, and each point is decided
    as a try of column k: ``table.fits`` of its cells at y, from the
    budget pair of ``table.budgets(k)``.
    """
    held_j = [row[j] for row in table.rows]
    columns_k = [table.column(k, y, y) for y in ys]
    verdicts = []
    for x in xs:
        table.write(j, table.column(j, x, x))
        rests, noises = table.budgets(k)
        verdicts += [table.fits(k, column_k, rests, noises) for column_k in columns_k]
    table.write(j, held_j)
    return verdicts


def _expand_step(problem: DesignProblem, table: _TermMax, j: int) -> tuple[str, str]:
    """Expand factor j of the table's box in place; the names binding its lo and hi ends."""
    rests, noises = table.budgets(j)
    # exact budgets first; on a roundoff trip, retreat by escalating
    # noise-scaled slack, and fall back to no growth
    for bias in (0.0, 1.0, 32.0, 1024.0):
        lo, hi, blo, bhi = _expand_once(problem, table, j, bias, rests, noises)
        column = table.column(j, lo, hi)
        if table.fits(j, column, rests, noises):
            table.swap(j, Interval(lo, hi), column)
            return blo, bhi
    return "numerical", "numerical"


def expand_factor(problem: DesignProblem, box: Orthotope, j: int) -> Orthotope:
    """Enlarge interval j of a feasible box to its exact constraint limit.

    Only coordinate j changes; the result stays feasible, still contains
    the seed coordinate, and cannot be extended at either endpoint by
    more than a hair without breaking a constraint or the ambient bound.
    """
    if not box.intervals[j].contains(problem.seed[j]):
        raise SeedNotContained(
            f"interval {box.intervals[j]} of factor {j} does not contain seed {problem.seed[j]}"
        )
    problem.region().check_inside(box.intervals)
    table = _TermMax(problem.constrained_pairs(), box.intervals)
    _expand_step(problem, table, j)
    return Orthotope(table.intervals)


# --- greedy solve -----------------------------------------------------------

def solve_greedy(problem: DesignProblem, ranking: Sequence[int] | None = None) -> SolveResult:
    """Factor-ranked greedy maximal orthotope anchored at the seed.

    Expansion order is the explicit ranking argument, then the problem's
    own ranking, then the sensitivity auto-ranking.  Each step keeps the
    box feasible and contains the box before it; the result carries a
    face-wise maximality certificate.
    """
    if ranking is not None:
        order = tuple(int(i) for i in ranking)
        check_ranking(order, problem.dim)
    elif problem.ranking is not None:
        # ``DesignProblem`` has checked its own ranking, and ``auto_rank`` returns a permutation
        order = problem.ranking
    else:
        order = auto_rank(problem)

    # the seed point box needs no ambient check: ``DesignProblem`` has checked the seed
    table = _TermMax.at_seed(problem)
    bindings = [None] * problem.dim
    for j in order:
        bindings[j] = _expand_step(problem, table, j)
    certificate = _certify(problem, table)
    return SolveResult(Orthotope(table.intervals), tuple(bindings), order, certificate)


# --- maximality -------------------------------------------------------------

def verify_maximality(problem: DesignProblem, box: Orthotope) -> MaximalityCertificate:
    """Face-wise maximality certificate for a feasible box.

    With eps the problem's tolerance, each of the 2N faces must either
    sit within eps*width of an ambient bound or become infeasible when
    pushed outward by eps*width (exact box-maximum test).  The
    certificate names the blocker per face.
    """
    problem.region().check_inside(box.intervals)
    return _certify(problem, _TermMax(problem.constrained_pairs(), box.intervals))


def _certify(problem: DesignProblem, table: _TermMax) -> MaximalityCertificate:
    """``verify_maximality`` of the table's box; each face push swaps one column."""
    slacks = table.slacks()
    if not all(sl >= 0.0 for sl in slacks):
        raise InfeasibleInput("maximality is only defined for feasible boxes")
    _, noises = table.budgets()

    faces = []
    for j, (var, interval) in enumerate(zip(problem.variables, table.intervals)):
        ambient, lo, hi = var.ambient, interval.lo, interval.hi
        push = problem.tolerance * ambient.width
        pair = []
        for room, pushed_lo, pushed_hi in ((lo - ambient.lo, lo - push, hi), (ambient.hi - hi, lo, hi + push)):
            if room < push:
                pair.append(FaceCheck("ambient", room))
                continue
            feasible, least, worst = table.face_slacks(j, table.column(j, pushed_lo, pushed_hi), slacks, noises)
            pair.append(FaceCheck(None, least) if feasible else FaceCheck(table.names[worst], -least))
        faces.append(tuple(pair))
    return MaximalityCertificate(tuple(faces), problem.tolerance)


# --- brute-force grid oracle -------------------------------------------------

class OracleResult(Frozen):
    """The grid oracle's greedy box, and its max-volume grid box or None when not searched."""

    __slots__ = ("greedy_box", "volume_box", "resolution", "ranking")


class StepCheck(Frozen):
    __slots__ = ("factor", "grid_lo", "grid_hi", "stored_lo", "stored_hi", "tolerance")

    @property
    def ok(self) -> bool:
        return (
            abs(self.grid_lo - self.stored_lo) <= self.tolerance
            and abs(self.grid_hi - self.stored_hi) <= self.tolerance
        )


def _oracle_axes(problem: DesignProblem, resolution: int) -> list[list[float]]:
    """The grid axes of the oracle; ``grid_axes`` builds all N at once, so r is capped."""
    if resolution > ORACLE_MAX_RESOLUTION:
        raise CapExceeded(f"grid oracle resolution capped at {ORACLE_MAX_RESOLUTION}")
    return problem.region().grid_axes(resolution)


def _grid_sweep(table: _TermMax, axes: list[list[float]], j: int, seed_j: float) -> tuple[float, float]:
    """Widest grid-endpoint interval for axis j, the table's other intervals held.

    Endpoints extend independently from the seed anchor over the grid
    points on their own side of it; the first infeasible one stops each
    sweep (the admitted set along one axis is an interval, so feasibility
    is monotone).  A grid point's verdict is ``table.fits`` of its column,
    ``is_box_feasible``'s verdict bit for bit, from one budget pair
    without cell j.
    """
    grid = axes[j]
    rests, noises = table.budgets(j)
    held_lo = min(table.intervals[j].lo, seed_j)

    hi = seed_j
    for g in grid:
        if g < seed_j:
            continue
        if not table.fits(j, table.column(j, held_lo, g), rests, noises):
            break
        hi = g

    lo = seed_j
    for g in grid[::-1]:
        if g > seed_j:
            continue
        if not table.fits(j, table.column(j, g, hi), rests, noises):
            break
        lo = g

    return lo, hi


# no command runs the grid oracle (this, ``oracle_check_steps``); perfbench imports and times it
def oracle_solve(
    problem: DesignProblem,
    resolution: int,
    include_volume_box: bool = True,
) -> OracleResult:
    """Brute-force reference solver on the ambient lattice.

    Anchored at the seed point, factors expand over grid endpoints in
    ranking order, each candidate tested by the exact analytic box
    maximum, which bounds every corner evaluation.  A separate
    max-volume grid box is returned for comparison; that search runs on
    an internally reduced grid above one dimension to stay tractable,
    and raises ``CapExceeded`` above three.
    Every box either search tries is decided by the term-max table, as
    ``is_box_feasible`` decides it.
    """
    axes = _oracle_axes(problem, resolution)
    order = problem.ranking if problem.ranking is not None else auto_rank(problem)

    table = _TermMax.at_seed(problem)
    for j in order:
        lo, hi = _grid_sweep(table, axes, j, problem.seed[j])
        table.swap(j, Interval(lo, hi), table.column(j, lo, hi))

    volume_box = _volume_search(problem, resolution) if include_volume_box else None
    return OracleResult(Orthotope(table.intervals), volume_box, resolution, order)


def _volume_search(problem: DesignProblem, resolution: int) -> Orthotope:
    """The first grid box of largest volume that the table at the seed accepts, or the seed point box.

    Each axis offers the intervals between a grid endpoint at or below the
    seed and one at or above it.  Boxes run row-major; each combination of
    the outer axes takes one budget pair, and each last-axis column is a try
    (``fits``), as in ``_slice_verdicts``.  A combination whose volume times
    the widest last-axis width is not above the best is skipped: rounding is
    monotone, so none of its boxes could win.
    """
    if problem.dim not in VOLUME_SEARCH_RESOLUTION:
        raise CapExceeded(f"max-volume grid search supports at most {max(VOLUME_SEARCH_RESOLUTION)} variables")
    k = min(resolution, VOLUME_SEARCH_RESOLUTION[problem.dim])
    table = _TermMax.at_seed(problem)
    # per axis, (width, lo, hi, column) of each interval of grid endpoints around the seed
    *outer, last = [
        [
            (grid[b] - grid[a], grid[a], grid[b], table.column(j, grid[a], grid[b]))
            for a in range(k)
            for b in range(a + 1, k)
            if grid[a] <= seed_j <= grid[b]
        ]
        for j, (grid, seed_j) in enumerate(zip(problem.region().grid_axes(k), problem.seed))
    ]
    j, widest = len(outer), max(width for width, *_ in last)
    best, ends = -1.0, [(x, x) for x in problem.seed]
    for combo in product(*outer):
        volume = math.prod(width for width, *_ in combo)
        if volume * widest <= best:
            continue
        for i, (_, _, _, column) in enumerate(combo):
            table.write(i, column)
        rests, noises = table.budgets(j)
        for width, lo, hi, column in last:
            size = volume * width
            if size > best and table.fits(j, column, rests, noises):
                best, ends = size, [(a, b) for _, a, b, _ in combo] + [(lo, hi)]
    return Orthotope(tuple(Interval(lo, hi) for lo, hi in ends))


def oracle_check_steps(
    problem: DesignProblem, result: SolveResult, resolution: int
) -> list[StepCheck]:
    """Check each factor's stored interval against a fresh grid sweep, in ranking order.

    The sweep of factor j runs from the seed point box with the stored
    intervals of the factors ranked before j in place, as the solver
    expanded them, so the grid endpoint is guaranteed within one grid
    step of the exact endpoint; disagreement beyond that flags the factor.
    A stored interval outside its ambient bounds raises ``BoxOutsideAmbient``.
    """
    axes = _oracle_axes(problem, resolution)
    table = _TermMax.at_seed(problem)

    checks = []
    for j in result.ranking:
        stored = result.orthotope.intervals[j]
        problem.variables[j].check_inside(stored)
        lo, hi = _grid_sweep(table, axes, j, problem.seed[j])
        width = problem.variables[j].ambient.width
        tol = width / (resolution - 1) + 1e-9 * max(1.0, width)
        checks.append(StepCheck(j, lo, hi, stored.lo, stored.hi, tol))
        table.swap(j, stored, table.column(j, stored.lo, stored.hi))
    return checks
