import functools
import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add, neg, sub
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cddkit import cli, data_path, load_problem, orthotope
from cddkit.designspace import _SUM_START, DesignProblem, DesignVariable, ObjectiveConstraint, _LeftToRight, _TermMax
from cddkit.errors import (
    CapExceeded,
    InfeasibleInput,
    InfeasibleSeed,
    SchemaError,
    SeedNotContained,
)
from cddkit.orthotope import (
    FaceCheck,
    MaximalityCertificate,
    Orthotope,
    SolveResult,
    _expand_step,
    VOLUME_SEARCH_RESOLUTION,
    _admitted_interval,
    _expand_once,
    _quadratic_roots,
    _slice_verdicts,
    _volume_search,
    auto_rank,
    expand_factor,
    oracle_check_steps,
    oracle_solve,
    solve_greedy,
    verify_maximality,
)
from cddkit.surface import Interval, QuadraticResponseSurface

from conftest import numpy_lattice_sum, random_problem, reference_is_box_feasible, replace


def one_dim_problem(beta0=0.0, linear=0.0, quadratic=1.0, bound=4.0, ambient=(-10.0, 10.0), seed=0.0):
    return DesignProblem(
        variables=(DesignVariable("x", "", Interval(*ambient)),),
        surfaces=(QuadraticResponseSurface("z", "", beta0, (linear,), (quadratic,)),),
        constraints=(ObjectiveConstraint("z", bound),),
        seed=(seed,),
        name="one",
    )


def unconstrained_problem(dim=2, seed=42):
    rng = random.Random(seed)
    base = random_problem(rng, dim=dim)
    return DesignProblem(
        variables=base.variables,
        surfaces=base.surfaces,
        constraints=(),
        seed=base.seed,
        name="open",
    )


# --- ranking ---------------------------------------------------------------

def test_auto_rank_single_variable():
    assert auto_rank(one_dim_problem()) == (0,)


def test_auto_rank_emissions_at_center(emissions):
    # hand-computed sensitivity scores at (0.5, 0.5, 0.5):
    #   x0: |-0.91| + |4.16| + |-0.07| = 5.14
    #   x1: |-5.04| + |1.17| + |-0.15| = 6.36
    #   x2: |-0.04| + |-0.21| + |0.01| = 0.26
    problem = replace(emissions, seed=(0.5, 0.5, 0.5))
    assert auto_rank(problem) == (1, 0, 2)


def test_auto_rank_adds_left_to_right():
    # variable 1 scores 1.0 + 1.1e-16 + 1.1e-16: left to right that is 1.0,
    # a tie with variable 0 broken by index; a compensated sum would make it
    # 1.0000000000000002 and put variable 1 first
    problem = DesignProblem(
        variables=(
            DesignVariable("x0", "", Interval(-1.0, 1.0)),
            DesignVariable("x1", "", Interval(-1.0, 1.0)),
        ),
        surfaces=tuple(
            QuadraticResponseSurface(f"z{i}", "", 0.0, (l0, l1), (0.0, 0.0))
            for i, (l0, l1) in enumerate([(1.0, 1.0), (0.0, 1.1e-16), (0.0, 1.1e-16)])
        ),
        constraints=(),
        seed=(0.0, 0.0),
        name="near-tie",
    )
    assert auto_rank(problem) == (0, 1)


def test_explicit_ranking_bypasses_auto(emissions):
    problem = replace(emissions, ranking=(2, 0, 1))
    result = solve_greedy(problem)
    assert result.ranking == (2, 0, 1)


# --- expand_factor -----------------------------------------------------------

def test_expand_symmetric_parabola():
    problem = one_dim_problem()
    box = expand_factor(problem, Orthotope.point(problem.seed), 0)
    assert box.intervals[0].lo == pytest.approx(-2.0, abs=1e-9)
    assert box.intervals[0].hi == pytest.approx(2.0, abs=1e-9)


def test_expand_unbound_coordinate_reaches_ambient():
    problem = DesignProblem(
        variables=(
            DesignVariable("x", "", Interval(-1.0, 1.0)),
            DesignVariable("y", "", Interval(-5.0, 5.0)),
        ),
        surfaces=(QuadraticResponseSurface("z", "", 0.0, (1.0, 0.0), (1.0, 0.0)),),
        constraints=(ObjectiveConstraint("z", 3.0),),
        seed=(0.0, 0.0),
        name="flat",
    )
    box = expand_factor(problem, Orthotope.point(problem.seed), 1)
    assert box.intervals[1] == Interval(-5.0, 5.0)


def test_expand_concave_term_under_budget_reaches_ambient():
    # concave coordinate term with vertex value 0.25 <= budget 1.0
    problem = one_dim_problem(linear=1.0, quadratic=-1.0, bound=1.0, ambient=(-3.0, 3.0))
    box = expand_factor(problem, Orthotope.point(problem.seed), 0)
    assert box.intervals[0] == Interval(-3.0, 3.0)


INF = math.inf


ADMITTED_CASES = [
    # case, l, q, seed_term, budget, accept, seed, the raw admitted interval
    ("no effect", 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, (-INF, INF)),
    ("no effect, refused", 0.0, 0.0, 0.0, -1.0, -1.0, 0.0, (INF, -INF)),
    ("linear, l > 0", 2.0, 0.0, 0.0, 1.0, 1.0, 0.0, (-INF, 0.5)),
    ("linear, l < 0", -2.0, 0.0, 0.0, 1.0, 1.0, 0.0, (-0.5, INF)),
    ("linear, refused", 2.0, 0.0, 2.0, 1.0, 1.0, 1.0, (INF, -INF)),
    ("convex", 0.0, 1.0, 0.0, 4.0, 4.0, 0.0, (-2.0, 2.0)),
    ("convex, seed past a root", 0.0, 1.0, 4.0, 4.0, 4.0 + 1e-12, 2.0 + 1e-15, (-2.0, 2.0 + 1e-15)),
    ("convex, no roots", 0.0, 1.0, 0.0, -1.0, 0.0, 0.0, (INF, -INF)),
    ("convex, refused", 0.0, 1.0, 9.0, 4.0, 4.0, 3.0, (INF, -INF)),
    ("concave, no roots", 0.0, -1.0, 0.0, 1.0, 1.0, 0.0, (-INF, INF)),
    ("concave, ray above", 0.0, -1.0, -2.25, -1.0, -1.0, 1.5, (1.0, INF)),
    ("concave, ray below", 0.0, -1.0, -2.25, -1.0, -1.0, -1.5, (-INF, -1.0)),
    ("concave, refused", 0.0, -1.0, -0.25, -1.0, -1.0, 0.5, (INF, -INF)),
    # a root of one zero sign against a seed of the other: the root's sign is kept, as
    # ``max(root, seed)`` and ``min(root, seed)`` keep their first operand on a tie
    ("linear, l > 0, root -0.0, seed 0.0", 2.0, 0.0, 0.0, -0.0, 0.0, 0.0, (-INF, -0.0)),
    ("linear, l > 0, root 0.0, seed -0.0", 2.0, 0.0, -0.0, 0.0, 0.0, -0.0, (-INF, 0.0)),
    ("linear, l < 0, root -0.0, seed 0.0", -2.0, 0.0, -0.0, 0.0, 0.0, 0.0, (-0.0, INF)),
    ("linear, l < 0, root 0.0, seed -0.0", -2.0, 0.0, 0.0, -0.0, 0.0, -0.0, (0.0, INF)),
    ("convex, lower root -0.0, seed 0.0", -1.0, 1.0, 0.0, 0.0, 0.0, 0.0, (-0.0, 1.0)),
    ("convex, lower root 0.0, seed -0.0", -1.0, 1.0, 0.0, -0.0, 0.0, -0.0, (0.0, 1.0)),
    ("convex, upper root 0.0, seed -0.0", 1.0, 1.0, 0.0, 0.0, 0.0, -0.0, (-1.0, 0.0)),
    ("convex, upper root -0.0, seed 0.0", 1.0, 1.0, 0.0, -0.0, 0.0, 0.0, (-1.0, -0.0)),
    ("concave, ray below, root 0.0, seed -0.0", 1.0, -1.0, 0.0, 0.0, 0.0, -0.0, (-INF, 0.0)),
    ("concave, ray below, root -0.0, seed 0.0", 1.0, -1.0, 0.0, -0.0, 0.0, 0.0, (-INF, -0.0)),
    ("concave, ray above, root -0.0, seed 0.0", -1.0, -1.0, 0.0, 0.0, 0.0, 0.0, (-0.0, INF)),
    ("concave, ray above, root 0.0, seed -0.0", -1.0, -1.0, 0.0, -0.0, 0.0, -0.0, (0.0, INF)),
]


@pytest.mark.parametrize(
    "case, l, q, seed_term, budget, accept, seed, expected", ADMITTED_CASES, ids=[c[0] for c in ADMITTED_CASES]
)
def test_admitted_interval_raw_result(case, l, q, seed_term, budget, accept, seed, expected):
    # the term's own interval around the seed, before the caller's ambient clamp and floor:
    # an infinite end for a ray or the whole line, the empty (inf, -inf) for a refused seed;
    # compared by hex spelling, so that the sign of a zero end counts
    result = _admitted_interval(l, q, seed_term, budget, accept, seed)
    assert list(map(float.hex, result)) == list(map(float.hex, expected)), case


def reference_admitted_interval(l, q, seed_term, budget, accept, seed):
    """``_admitted_interval`` as it was written with ``abs``, ``min`` and ``max``, kept as the reference."""
    if abs(q) < orthotope.COEFF_EPS and abs(l) < orthotope.COEFF_EPS:
        return (-math.inf, math.inf) if accept >= 0.0 else (math.inf, -math.inf)
    seed_ok = seed_term <= accept
    if abs(q) < orthotope.COEFF_EPS:
        if not seed_ok:
            return math.inf, -math.inf
        x0 = budget / l
        if l > 0.0:
            return -math.inf, max(x0, seed)
        return min(x0, seed), math.inf
    roots = _quadratic_roots(q, l, -budget)
    if q > 0.0:
        if not seed_ok or roots is None:
            return math.inf, -math.inf
        r1, r2 = roots
        return min(r1, seed), max(r2, seed)
    if roots is None:
        return -math.inf, math.inf
    if not seed_ok:
        return math.inf, -math.inf
    r1, r2 = roots
    if abs(seed - r1) <= abs(seed - r2):
        return -math.inf, max(r1, seed)
    return min(r2, seed), math.inf


def _outcome(f, *args):
    """The hex spelling of each float ``f`` returns (every NaN spelt ``nan``), or the exception it raises."""
    try:
        return ["nan" if math.isnan(v) else v.hex() for v in f(*args)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


# ties of signed zeros, subnormals, coefficients at the cut-off, infinities and NaN
_TIE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-12, -1e-12, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, math.inf, -math.inf, math.nan]
)
_ANY_FLOAT = st.one_of(_TIE_FLOATS, st.floats())


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT)
def test_admitted_interval_chooses_as_min_and_max(l, q, seed_term, budget, accept, seed):
    args = (l, q, seed_term, budget, accept, seed)
    assert _outcome(_admitted_interval, *args) == _outcome(reference_admitted_interval, *args)


def reference_clamp(ambient, floor, names, raws):
    """``_expand_once``'s intersection as it was written: each raw interval clamped with ``min`` and ``max``."""
    lo, hi, binding_lo, binding_hi = ambient.lo, ambient.hi, "ambient", "ambient"
    for name, (raw_lo, raw_hi) in zip(names, raws):
        alo = min(max(ambient.lo, raw_lo), floor.lo)
        ahi = max(min(ambient.hi, raw_hi), floor.hi)
        if alo > lo:
            lo, binding_lo = alo, name
        if ahi < hi:
            hi, binding_hi = ahi, name
    return lo, hi, binding_lo, binding_hi


_FINITE_TIES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    st.lists(st.one_of(_FINITE_TIES, st.floats(-4.0, 4.0)), min_size=5, max_size=5),
    st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=4),
)
def test_expand_once_clamps_as_min_and_max(ends, raws):
    # ambient lo <= floor lo <= seed <= floor hi <= ambient hi, and raw intervals anywhere
    amb_lo, floor_lo, seed, floor_hi, amb_hi = sorted(ends)
    assume(amb_lo < amb_hi)
    names = [f"c{i}" for i in range(len(raws))]
    problem = DesignProblem(
        variables=(DesignVariable("x", "", Interval(amb_lo, amb_hi)),),
        surfaces=tuple(QuadraticResponseSurface(name, "", 0.0, (0.0,), (0.0,)) for name in names),
        constraints=tuple(ObjectiveConstraint(name, 1.0) for name in names),
        seed=(seed,),
        name="clamp",
    )
    floor = Interval(floor_lo, floor_hi)
    table = _TermMax(problem.constrained_pairs(), (floor,))
    given_raws = iter(raws)
    with mock.patch.object(orthotope, "_admitted_interval", lambda *args: next(given_raws)):
        lo, hi, binding_lo, binding_hi = _expand_once(problem, table, 0, 0.0, [0.0] * len(raws), [0.0] * len(raws))
    ref_lo, ref_hi, ref_binding_lo, ref_binding_hi = reference_clamp(problem.variables[0].ambient, floor, names, raws)
    assert (lo.hex(), hi.hex(), binding_lo, binding_hi) == (ref_lo.hex(), ref_hi.hex(), ref_binding_lo, ref_binding_hi)


def _two_constraint_table(bounds, ambient=(-10.0, 10.0)):
    """The term-max table of the box [-1, 1] for constraints a: x**2 <= bounds[0] and b: 2*x**2 <= bounds[1]."""
    problem = DesignProblem(
        variables=(DesignVariable("x", "", Interval(*ambient)),),
        surfaces=(
            QuadraticResponseSurface("a", "", 0.0, (0.0,), (1.0,)),
            QuadraticResponseSurface("b", "", 0.0, (0.0,), (2.0,)),
        ),
        constraints=(ObjectiveConstraint("a", bounds[0]), ObjectiveConstraint("b", bounds[1])),
        seed=(0.0,),
        name="clamp",
    )
    return problem, _TermMax(problem.constrained_pairs(), (Interval(-1.0, 1.0),))


def test_expand_once_floor_tie_keeps_the_first_binding():
    # both admitted intervals, [-0.5, 0.5] and [-0.5, 0.5]·√2, lie inside the floor [-1, 1]:
    # both clamp to its ends, and the first constraint keeps the binding names
    problem, table = _two_constraint_table((4.0, 8.0))
    assert _expand_once(problem, table, 0, 0.0, [0.25, 1.0], [0.0, 0.0]) == (-1.0, 1.0, "a", "a")
    # where the second constraint is the tighter one, the first still binds
    assert _expand_once(problem, table, 0, 0.0, [0.5, 0.5], [0.0, 0.0]) == (-1.0, 1.0, "a", "a")


def test_expand_once_ambient_tie_stays_ambient():
    # both admitted intervals, [-2, 2] and [-3, 3], reach past the ambient [-1.5, 1.5]
    problem, table = _two_constraint_table((4.0, 8.0), ambient=(-1.5, 1.5))
    assert _expand_once(problem, table, 0, 0.0, [4.0, 18.0], [0.0, 0.0]) == (-1.5, 1.5, "ambient", "ambient")
    assert expand_factor(problem, Orthotope(table.intervals), 0).intervals[0] == Interval(-1.5, 1.5)


@pytest.mark.parametrize(
    "constraints, tries, after, binding",
    [
        # an infinite bound makes the budget inf - 0*inf, NaN, so a quadratic term's roots are NaN
        (
            [("wild", 0.0, 1.0, INF), ("tight", 0.0, 1.0, 0.25)],
            [(-0.5, 0.5, "tight", "tight"), (-0.4999999999999997, 0.4999999999999997, "tight", "tight")],
            (-0.5, 0.5),
            ("tight", "tight"),
        ),
        (
            [("tight", 0.0, 1.0, 0.25), ("wild", 0.0, 1.0, INF)],
            [(-0.5, 0.5, "tight", "tight"), (-0.4999999999999997, 0.4999999999999997, "tight", "tight")],
            (-0.5, 0.5),
            ("tight", "tight"),
        ),
        ([("wild", 1.0, 0.0, INF)], [(-1.0, 1.0, "ambient", "ambient")] * 2, (-1.0, 1.0), ("ambient", "ambient")),
        ([("wild", -1.0, 0.0, INF)], [(-1.0, 1.0, "ambient", "ambient")] * 2, (-1.0, 1.0), ("ambient", "ambient")),
        ([("wild", 0.0, -1.0, INF)], [(-1.0, 1.0, "ambient", "ambient")] * 2, (-1.0, 1.0), ("ambient", "ambient")),
        (
            [("wild", 0.5, 1.0, INF), ("cap", 1.0, 0.0, 0.5)],
            [(-1.0, 0.5, "ambient", "cap"), (-1.0, 0.49999999999999944, "ambient", "cap")],
            (-1.0, 0.5),
            ("ambient", "cap"),
        ),
    ],
    ids=["convex first", "convex second", "linear, l > 0", "linear, l < 0", "concave", "convex and linear"],
)
def test_expand_with_an_infinite_bound(constraints, tries, after, binding):
    # NaN roots lose every comparison of the clamp, so the ambient bound or another constraint binds
    problem = DesignProblem(
        variables=(DesignVariable("x", "", Interval(-1.0, 1.0)),),
        surfaces=tuple(QuadraticResponseSurface(name, "", 0.0, (l,), (q,)) for name, l, q, _ in constraints),
        constraints=tuple(ObjectiveConstraint(name, bound) for name, _, _, bound in constraints),
        seed=(0.25,),
        name="inf",
    )
    table = _TermMax(problem.constrained_pairs(), Orthotope.point(problem.seed).intervals)
    rests, noises = table.budgets(0)
    assert [_expand_once(problem, table, 0, bias, rests, noises) for bias in (0.0, 1.0)] == tries
    result = solve_greedy(problem)
    assert result.orthotope == Orthotope((Interval(*after),))
    assert result.bindings == (binding,)


def test_expand_requires_seed_in_interval():
    problem = one_dim_problem()
    with pytest.raises(SeedNotContained):
        expand_factor(problem, Orthotope((Interval(1.0, 2.0),)), 0)


def test_expand_keeps_other_intervals():
    rng = random.Random(5)
    problem = random_problem(rng, dim=3)
    box = Orthotope.point(problem.seed)
    grown = expand_factor(problem, box, 1)
    assert grown.intervals[0] == box.intervals[0]
    assert grown.intervals[2] == box.intervals[2]
    assert grown.intervals[1].width >= 0.0


def test_expand_downhill_after_budget_exhausted():
    # the first factor consumes the whole budget (endpoint at sqrt(7), an
    # irrational root), leaving the second factor's seed on the constraint
    # boundary; growth away from the boundary must still happen
    problem = DesignProblem(
        variables=(
            DesignVariable("x0", "", Interval(0.0, 10.0)),
            DesignVariable("x1", "", Interval(-3.0, 0.0)),
        ),
        surfaces=(QuadraticResponseSurface("z", "", 0.0, (0.0, 2.0), (1.0, 1.0)),),
        constraints=(ObjectiveConstraint("z", 7.0),),
        seed=(1.0, 0.0),
        name="downhill",
    )
    result = solve_greedy(problem, ranking=(0, 1))
    x0, x1 = result.orthotope.intervals
    assert x0.lo == 0.0
    assert x0.hi == pytest.approx(math.sqrt(7.0), abs=1e-9)
    # term 2*x + x**2 is zero at both -2 and 0, the downhill interval
    assert x1.lo == pytest.approx(-2.0, abs=1e-6)
    assert x1.hi == 0.0
    assert result.certificate.maximal


def test_randomized_solves_across_scales():
    # coefficient and bound scales spanning a few orders of magnitude,
    # seeds sometimes on the ambient boundary
    rng = random.Random(24680)
    for _ in range(120):
        n = rng.randint(1, 3)
        variables, seed = [], []
        for j in range(n):
            scale = 10.0 ** rng.randint(-2, 2)
            lo = rng.uniform(-2.0, 2.0) * scale
            width = rng.uniform(0.5, 2.0) * scale
            variables.append(DesignVariable(f"x{j}", "", Interval(lo, lo + width)))
            edge = rng.random()
            if edge < 0.2:
                seed.append(lo)
            elif edge < 0.4:
                seed.append(lo + width)
            else:
                seed.append(lo + width * rng.uniform(0.05, 0.95))
        surfaces = []
        for k in range(rng.randint(1, 3)):
            cscale = 10.0 ** rng.randint(-2, 2)
            surfaces.append(
                QuadraticResponseSurface(
                    f"z{k}",
                    "",
                    rng.uniform(-2.0, 2.0) * cscale,
                    tuple(rng.uniform(-2.0, 2.0) * cscale for _ in range(n)),
                    tuple(rng.uniform(-1.0, 1.0) * cscale for _ in range(n)),
                )
            )
        constraints = tuple(
            ObjectiveConstraint(
                s.name,
                s.evaluate(seed)
                + rng.uniform(0.01, 2.0) * max(1.0, abs(s.evaluate(seed))),
            )
            for s in surfaces
        )
        problem = DesignProblem(
            tuple(variables), tuple(surfaces), constraints, tuple(seed), name="scales"
        )
        assert problem.tolerance == 1e-6
        result = solve_greedy(problem)
        assert problem.region().is_box_feasible(result.orthotope.intervals)[0]
        assert result.certificate.maximal


def test_expand_enlarges_an_already_grown_box():
    rng = random.Random(9)
    for _ in range(20):
        problem = random_problem(rng, dim=3)
        box = expand_factor(problem, Orthotope.point(problem.seed), 0)
        grown = expand_factor(problem, box, 1)
        for before, after in zip(box.intervals, grown.intervals):
            assert after.lo <= before.lo and before.hi <= after.hi
        # re-expanding a settled factor must not shrink it
        again = expand_factor(problem, grown, 0)
        assert again.intervals[0].lo <= grown.intervals[0].lo
        assert again.intervals[0].hi >= grown.intervals[0].hi


# --- solve_greedy -------------------------------------------------------------

def test_unconstrained_solve_returns_ambient_box():
    problem = unconstrained_problem()
    result = solve_greedy(problem)
    assert result.orthotope.intervals == tuple(v.ambient for v in problem.variables)
    assert result.certificate.maximal
    assert all(f.blocked_by == "ambient" for pair in result.certificate.faces for f in pair)


def test_emissions_solve_against_closed_forms(emissions):
    result = solve_greedy(emissions)
    assert result.ranking == (1, 0, 2)
    maf, frp, egr = result.orthotope.intervals

    assert frp == Interval(0.0, 1.0)

    # NOx budget for MAF once FRP spans [0, 1]: the FRP term peaks at
    # 2.89**2 / (4 * 1.72); the MAF endpoint is the smaller root of
    # 2.37 x'2 - 6.53 x + budget = 0
    frp_peak = 2.89**2 / (4 * 1.72)
    budget = 4.01 - frp_peak
    root = (6.53 - math.sqrt(6.53**2 - 4 * 2.37 * budget)) / (2 * 2.37)
    assert maf.lo == 0.0
    assert maf.hi == pytest.approx(root, abs=1e-9)

    # Soot budget for EGR stays 0.008; endpoint from 0.03 x^2 - 0.02 x = 0.008
    soot_root = (0.02 + math.sqrt(0.02**2 + 4 * 0.03 * 0.008)) / (2 * 0.03)
    assert egr.lo == 0.0
    assert egr.hi == pytest.approx(soot_root, abs=1e-9)

    assert result.bindings == (("ambient", "NOx"), ("ambient", "ambient"), ("ambient", "Soot"))


def test_solve_output_is_feasible_and_contains_seed(emissions):
    result = solve_greedy(emissions)
    region = emissions.region()
    assert region.is_box_feasible(result.orthotope.intervals)[0]
    assert all(iv.contains(x) for iv, x in zip(result.orthotope.intervals, emissions.seed))


def test_two_rankings_give_distinct_maximal_boxes(adas):
    wide = solve_greedy(adas, ranking=(0, 1))
    tall = solve_greedy(adas, ranking=(1, 0))
    assert wide.orthotope != tall.orthotope
    assert wide.certificate.maximal
    assert tall.certificate.maximal
    # ranking torque first from the centered seed: the torque endpoint is
    # the quarter-ellipse boundary at u = 0.5, then speed closes at 1800
    v_limit = math.sqrt((30.0 - 30.0 * 0.25) / 29.4)
    assert tall.orthotope.intervals[1].hi == pytest.approx(100.0 + 140.0 * v_limit, abs=1e-6)
    assert tall.orthotope.intervals[0].hi == pytest.approx(1800.0, abs=1e-6)


def test_permutation_equivariance(emissions):
    order = [2, 0, 1]  # permuted_doc variable i is original variable order[i]
    doc = json.loads(data_path("emissions.json").read_text())
    doc["variables"] = [doc["variables"][i] for i in order]
    for s in doc["surfaces"]:
        s["linear"] = [s["linear"][i] for i in order]
        s["quadratic"] = [s["quadratic"][i] for i in order]
    doc["seed"] = [doc["seed"][i] for i in order]
    permuted = load_problem(doc)

    base_ranking = (1, 0, 2)
    inverse = {orig: new for new, orig in enumerate(order)}
    permuted_ranking = tuple(inverse[j] for j in base_ranking)

    base = solve_greedy(emissions, ranking=base_ranking)
    other = solve_greedy(permuted, ranking=permuted_ranking)
    for new_index, orig_index in enumerate(order):
        expected = base.orthotope.intervals[orig_index]
        got = other.orthotope.intervals[new_index]
        assert got.lo == pytest.approx(expected.lo, abs=1e-9)
        assert got.hi == pytest.approx(expected.hi, abs=1e-9)


def test_randomized_solves_are_feasible_and_maximal():
    rng = random.Random(101)
    for _ in range(40):
        problem = random_problem(rng)
        result = solve_greedy(problem)
        region = problem.region()
        assert region.is_box_feasible(result.orthotope.intervals)[0]
        assert result.certificate.maximal
        for iv, x in zip(result.orthotope.intervals, problem.seed):
            assert iv.lo - 1e-12 <= x <= iv.hi + 1e-12


def test_bound_near_the_float_limit_admits_the_whole_convex_range():
    # z = x**2 with a bound past about 4.5e307: b*b - 4*a*c overflows unless the quadratic is rescaled
    for bound in [10.0**k for k in range(150, 309)] + [1.7976931348623157e308]:
        result = solve_greedy(one_dim_problem(bound=bound))
        assert result.orthotope.intervals == (Interval(-10.0, 10.0),), bound
        assert result.bindings == (("ambient", "ambient"),)
        assert result.certificate.maximal


@pytest.mark.parametrize(
    "a, b, c, expected",
    [
        (1.0, 0.0, -1e308, (-1e154, 1e154)),
        (1e308, 0.0, -1e308, (-1.0, 1.0)),
        (1.0, 1e200, -1.0, (-1e200, 1e-200)),
        (-1e-12, 1e160, 1e300, (-1e140, 1e172)),
    ],
)
def test_quadratic_roots_survive_an_overflowing_discriminant(a, b, c, expected):
    assert not math.isfinite(b * b - 4.0 * a * c)
    roots = orthotope._quadratic_roots(a, b, c)
    assert roots == pytest.approx(expected, rel=1e-15)


# --- verify_maximality -----------------------------------------------------------

def test_shrunk_box_is_not_maximal(emissions):
    result = solve_greedy(emissions)
    iv = result.orthotope.intervals[0]
    shrunk = result.orthotope.replaced(0, Interval(iv.lo, iv.hi - 10 * emissions.tolerance))
    cert = verify_maximality(emissions, shrunk)
    assert not cert.maximal
    free_axes = {j for j, pair in enumerate(cert.faces) for f in pair if not f.blocked}
    assert free_axes == {0}


def test_verify_maximality_rejects_infeasible_box(emissions):
    with pytest.raises(InfeasibleInput):
        verify_maximality(emissions, Orthotope(tuple(v.ambient for v in emissions.variables)))


def test_certificate_names_blockers(emissions):
    result = solve_greedy(emissions)
    blockers = [(lo.blocked_by, hi.blocked_by) for lo, hi in result.certificate.faces]
    assert blockers[1] == ("ambient", "ambient")
    assert blockers[0][1] == "NOx"
    assert blockers[2][1] == "Soot"


# --- oracle ------------------------------------------------------------------

def test_oracle_one_dimensional_parabola():
    problem = one_dim_problem()
    result = oracle_solve(problem, 201)
    step = 20.0 / 200
    assert abs(result.greedy_box.intervals[0].lo - (-2.0)) <= step + 1e-9
    assert abs(result.greedy_box.intervals[0].hi - 2.0) <= step + 1e-9


def test_oracle_unconstrained_reaches_ambient_exactly():
    problem = unconstrained_problem()
    result = oracle_solve(problem, 51)
    assert result.greedy_box.intervals == tuple(v.ambient for v in problem.variables)
    assert result.volume_box.intervals == tuple(v.ambient for v in problem.variables)


def test_oracle_caps():
    rng = random.Random(3)
    problem = random_problem(rng, dim=2)
    with pytest.raises(CapExceeded):
        oracle_solve(problem, 500)


@pytest.mark.parametrize("dim", [5, 10, 20])
def test_step_checks_agree_above_three_variables(dim):
    # the replay sweeps one axis at a time, so it runs at any N: across scales, plain and offset domains
    rng = random.Random(7000 + dim)
    for scale in (1e-4, 1.0, 1e3, 1e6):
        for offset in (0.0, rng.uniform(1600.0, 2000.0)):
            problem = random_problem(rng, dim, rng.randint(1, 10), scale=scale, offset=offset)
            result = solve_greedy(problem)
            checks = oracle_check_steps(problem, result, 201)
            assert [c.factor for c in checks] == list(result.ranking)
            assert all(c.ok for c in checks)


def test_oracle_solve_above_three_variables_runs_without_the_volume_search():
    problem = random_problem(random.Random(4), dim=4, count=3)
    with pytest.raises(CapExceeded, match="^max-volume grid search supports at most 3 variables$"):
        oracle_solve(problem, 21)
    oracle = oracle_solve(problem, 21, include_volume_box=False)
    assert oracle.volume_box is None and oracle.ranking == auto_rank(problem)
    axes = problem.region().grid_axes(21)
    for iv, grid, x in zip(oracle.greedy_box.intervals, axes, problem.seed):
        assert iv.lo <= x <= iv.hi
        assert {iv.lo, iv.hi} <= {*grid, x}
    assert problem.region().is_box_feasible(oracle.greedy_box.intervals)[0]
    assert max(iv.width for iv in oracle.greedy_box.intervals) > 0.0


def test_greedy_volume_dominates_grid_volume(emissions):
    result = solve_greedy(emissions)
    oracle = oracle_solve(emissions, 201)
    widths = [[iv.width for iv in box.intervals] for box in (result.orthotope, oracle.greedy_box)]
    assert math.prod(widths[0]) >= 0.99 * math.prod(widths[1])


def test_step_checks_pass_on_bundled_problems(emissions, adas, adas_tall):
    for problem in (emissions, adas, adas_tall):
        result = solve_greedy(problem)
        checks = oracle_check_steps(problem, result, 201)
        assert all(c.ok for c in checks)


def test_step_checks_flag_tampered_result(emissions):
    result = solve_greedy(emissions)
    step = 1.0 / 200
    # inflate the second expanded interval by two grid steps
    j = result.ranking[1]
    stored = result.orthotope.intervals[j]
    inflated = Interval(stored.lo, min(1.0, stored.hi + 2.5 * step))
    tampered = replace(result, orthotope=result.orthotope.replaced(j, inflated))
    checks = oracle_check_steps(emissions, tampered, 201)
    assert not all(c.ok for c in checks)


def test_solve_result_json_roundtrip(emissions):
    # each binding and face check sits on its axis, and a document survives the round trip bit for bit: on
    # emissions, N 1-20 over four scales, plain and 1600-2000 offset domains, and the ladder's
    # "numerical" case
    rng = random.Random(1937)
    problems = [emissions] + [
        random_problem(rng, dim, rng.randint(1, 10), scale=scale, offset=offset)
        for dim in (1, 2, 3, 4, 5, 10, 15, 20)
        for scale in (1e-4, 1.0, 1e3, 1e6)
        for offset in (0.0, rng.uniform(1600.0, 2000.0))
    ]
    problems.append(one_dim_problem(quadratic=5e-13, bound=1.5, ambient=(1e6, 2e6), seed=1.5e6))
    for k, problem in enumerate(problems):
        result = solve_greedy(problem)
        text = json.dumps(result.to_json())
        doc = json.loads(text)
        assert list(doc) == ["orthotope", "ranking", "certificate"], k
        assert [list(d) for d in doc["orthotope"]] == [["lo", "hi", "binding", "blocked_by", "margin"]] * problem.dim, k
        assert list(doc["certificate"]) == ["epsilon", "maximal"], k
        assert [(d["binding"]["lo"], d["binding"]["hi"]) for d in doc["orthotope"]] == list(result.bindings), k
        restored = SolveResult.from_json(doc)
        assert restored == result, k
        # the text too, so a sign of zero survives
        assert json.dumps(restored.to_json()) == text, k
    assert result.bindings == (("numerical", "numerical"),)


def test_a_loaded_certificate_has_one_face_pair_per_axis():
    # the file cannot leave out a face, repeat one or put one on another axis: each axis holds its two
    for name in ("emissions", "adas", "adas_tall"):
        doc = json.loads((Path(__file__).parent / "golden" / f"{name}_solution.json").read_text())
        result = SolveResult.from_json(doc)
        assert len(result.certificate.faces) == result.orthotope.dim == len(doc["orthotope"])
        for pair, axis in zip(result.certificate.faces, doc["orthotope"]):
            assert type(pair) is tuple and [type(f) for f in pair] == [FaceCheck, FaceCheck]
            assert [f.blocked_by for f in pair] == [axis["blocked_by"]["lo"], axis["blocked_by"]["hi"]]
            assert [f.margin for f in pair] == [axis["margin"]["lo"], axis["margin"]["hi"]]


def test_a_document_with_a_step_log_is_refused_whatever_else_it_holds(emissions):
    doc = solve_greedy(emissions).to_json()
    for stale, message in (
        ({**doc, "steps": []}, "malformed solve result: steps is [], reading it back has no such key"),
        ({"steps": None}, "solve result missing key 'orthotope'"),
    ):
        with pytest.raises(SchemaError) as info:
            SolveResult.from_json(stale)
        assert str(info.value) == message
    assert SolveResult.from_json(doc) == solve_greedy(emissions)


def test_greedy_replay_at_scale_on_offset_domain():
    # ten factors, ten constraints, coefficients near 1e6 on an ADAS-style domain
    problem = random_problem(random.Random(1013), 10, 10, scale=1e6, offset=1800.0)
    result = solve_greedy(problem)
    order = auto_rank(problem)
    assert result.ranking == order
    box = Orthotope.point(problem.seed)
    for j in order:
        box = expand_factor(problem, box, j)
    assert box == result.orthotope
    assert result.certificate.maximal
    assert verify_maximality(problem, box).maximal
    assert max(iv.width for iv in box.intervals) > 0.0


def test_the_solver_never_claims_maximal_when_its_ladder_gives_up():
    # every try of x on [1e6, 2e6] fails the roundoff check, so the step keeps the seed point; this pins
    # that such a box is never called maximal, not that the box is right
    problem = one_dim_problem(quadratic=5e-13, bound=1.5, ambient=(1e6, 2e6), seed=1.5e6)
    result = solve_greedy(problem)
    point = Interval(1.5e6, 1.5e6)
    assert result.orthotope == Orthotope((point,))
    assert result.bindings == (("numerical", "numerical"),)
    ((lo, hi),) = result.certificate.faces
    assert (lo.blocked_by, hi.blocked_by) == (None, None)
    assert lo.margin == 0.375
    assert hi.margin == pytest.approx(0.3749985)
    assert not result.certificate.maximal


# --- term-max table ------------------------------------------------------------

TABLE_SHAPES = tuple(itertools.product((1, 5, 30, 100), (1, 10, 30)))
TABLE_SCALES = (1e-4, 1.0, 1e3, 1e6)


def table_problems():
    """Two seeded problems per shape, one plain and one on a 1600-2000 offset domain."""
    rng = random.Random(3003)
    for i, (n, m) in enumerate(TABLE_SHAPES):
        for k, shifted in enumerate((False, True)):
            offset = rng.uniform(1600.0, 2000.0) if shifted else 0.0
            scale = TABLE_SCALES[(i + k) % len(TABLE_SCALES)]
            yield random_problem(rng, n, m, scale=scale, offset=offset)


def reference_certificate(problem, box):
    """The face-wise certificate, one ``reference_is_box_feasible`` call per face."""
    eps = problem.tolerance
    faces = []
    for j, (var, iv) in enumerate(zip(problem.variables, box.intervals)):
        push = eps * var.ambient.width
        pair = []
        for room, candidate in (
            (iv.lo - var.ambient.lo, Interval(iv.lo - push, iv.hi)),
            (var.ambient.hi - iv.hi, Interval(iv.lo, iv.hi + push)),
        ):
            if room < push:
                pair.append(FaceCheck("ambient", room))
                continue
            ok, slacks = reference_is_box_feasible(problem, box.replaced(j, candidate).intervals)
            if ok:
                pair.append(FaceCheck(None, min(slacks) if slacks else math.inf))
            else:
                worst = min(range(len(slacks)), key=lambda i: slacks[i])
                pair.append(FaceCheck(problem.constraints[worst].surface, -slacks[worst]))
        faces.append(tuple(pair))
    return MaximalityCertificate(tuple(faces), eps)


def reference_budgets(problem, box, j):
    """Per constraint, one term at a time in coordinate order: the budget of coordinate j
    and its roundoff noise, as a pair of lists."""
    surfaces = {s.name: s for s in problem.surfaces}
    rests, noises = [], []
    for c in problem.constraints:
        s = surfaces[c.surface]
        rest, magnitude = c.bound - s.beta0, abs(c.bound) + abs(s.beta0)
        for k, iv in enumerate(box.intervals):
            if k != j:
                tm = s.term_extremum(k, iv, "max")[0]
                rest -= tm
                magnitude += abs(tm)
        rests.append(rest)
        noises.append((2 * problem.dim + 3) * 2.220446049250313e-16 * magnitude)
    return rests, noises


def _hex_budgets(budgets):
    """A budget pair with every float as its hex spelling, so that signed zeros and NaNs compare exactly."""
    return [[v.hex() for v in values] for values in budgets]


def test_term_max_table_matches_exact_box_checks(monkeypatch):
    tries = []
    column, fits = _TermMax.column, _TermMax.fits

    def recorded_column(self, j, lo, hi):
        self.tried = Interval(lo, hi)
        return column(self, j, lo, hi)

    def recorded_fits(table, j, column, rests, noises):
        decision = fits(table, j, column, rests, noises)
        tries.append((Orthotope(table.intervals).replaced(j, table.tried), decision))
        return decision

    monkeypatch.setattr(_TermMax, "column", recorded_column)
    monkeypatch.setattr(_TermMax, "fits", recorded_fits)
    for problem in table_problems():
        table = _TermMax(problem.constrained_pairs(), Orthotope.point(problem.seed).intervals)
        assert table.slacks() == reference_is_box_feasible(problem, table.intervals)[1]
        for j in auto_rank(problem):
            if problem.dim <= 30:
                box = Orthotope(table.intervals)
                assert _hex_budgets(table.budgets(j)) == _hex_budgets(reference_budgets(problem, box, j))
            tries.clear()
            _expand_step(problem, table, j)
            assert tries
            for box, decision in tries:
                assert decision == reference_is_box_feasible(problem, box.intervals)[0]
            assert table.slacks() == reference_is_box_feasible(problem, table.intervals)[1]
        box = Orthotope(table.intervals)
        result = solve_greedy(problem)
        assert result.orthotope == box
        reference = reference_certificate(problem, box)
        assert verify_maximality(problem, box) == reference == result.certificate


def test_solve_term_evaluations_are_linear_in_n_times_m(monkeypatch):
    n, m = 100, 30
    problem = random_problem(random.Random(77), n, m)
    cells = 0
    original = _TermMax.column

    def counted(self, j, lo, hi):
        nonlocal cells
        column = original(self, j, lo, hi)
        cells += len(column)
        return column

    # every cell of the term-max table, and every column a try or face push swaps in
    monkeypatch.setattr(_TermMax, "column", counted)
    assert solve_greedy(problem).certificate.maximal
    assert 0 < cells <= 8 * n * m


def seed_table_problems():
    """Seeded random problems over N 1-20, M 1-10 and scales 1e-4-1e6, plain and on 1600-2000
    offset domains, then the three bundled problems.
    """
    rng = random.Random(3303)
    for scale in (1e-4, 1e-2, 1.0, 1e3, 1e6):
        for shifted in (False, True):
            for _ in range(6):
                offset = rng.uniform(1600.0, 2000.0) if shifted else 0.0
                yield random_problem(rng, rng.randint(1, 20), rng.randint(1, 10), scale=scale, offset=offset)
    for name in ("emissions", "adas", "adas_tall"):
        yield load_problem(data_path(f"{name}.json").read_text())


def _hex_rows(rows):
    return [list(map(float.hex, row)) for row in rows]


def test_seed_table_matches_the_box_constructor_over_the_seed_point_box():
    for problem in seed_table_problems():
        seeded = _TermMax.at_seed(problem)
        boxed = _TermMax(problem.constrained_pairs(), Orthotope.point(problem.seed).intervals)
        for table in (seeded, boxed):
            assert table.intervals == list(Orthotope.point(problem.seed).intervals)
            assert all(type(x) is float for row in table.rows for x in row)
        for name in ("rows", "abs_rows", "neg_rows"):
            assert _hex_rows(getattr(seeded, name)) == _hex_rows(getattr(boxed, name)), name
        for name in ("budget_starts", "noise_starts", "slack_starts"):
            assert list(map(float.hex, getattr(seeded, name))) == list(map(float.hex, getattr(boxed, name))), name
        assert (seeded.linear, seeded.quadratic, seeded.names) == (boxed.linear, boxed.quadratic, boxed.names)
        assert (seeded.spread, seeded.limit) == (boxed.spread, boxed.limit)
        # the whole-row sums of ``slacks()`` are each constraint's ``slack`` with its first cell kept
        for table in (seeded, boxed):
            expected = [table.slack(i, 0, row[0]).hex() for i, row in enumerate(table.rows)]
            assert list(map(float.hex, table.slacks())) == expected


# --- left-to-right sums ---------------------------------------------------------
# Every sum of the table adds its cells one at a time in order, as ``reduce``
# does.  A compensated sum, which CPython 3.12+ ``sum`` makes from a plain
# float start, differs on the rows below; so do a budget negated from an
# add-sum (+0.0 and -0.0 swap) and a budget that adds +0.0 for the left-out
# cell where the table adds -0.0.

# (beta0, bound, row): four cells per row, one constraint each
SUM_CASES = (
    (0.0, 0.0, (1e16, 1.0, -1e16, 1.0)),  # 1e16 + 1.0 rounds back to 1e16
    (0.0, 1.0, (-1e16, 1.0, 1e16, -1.0)),
    (0.0, 2.0, (1.0, 1e-16, 1e-16, -1.0)),  # 0.0 left to right, 2e-16 compensated
    (0.0, 5e-324, (5e-324, -0.0, -5e-324, 0.0)),  # subnormals and signed zeros
    (0.0, 1.0, (1.0, 0.0, 0.0, 0.0)),  # budgets of exactly +0.0 left to right
    (0.0, -0.0, (0.0, 0.0, 0.0, 0.0)),  # budgets of exactly -0.0
    (-0.0, -0.0, (-0.0, -0.0, -0.0, -0.0)),  # sums of -0.0 from -0.0
    (0.5, 1.0, (math.inf, 1.0, 2.0, 3.0)),
    (0.5, 1.0, (1.0, -math.inf, 1.0, 0.0)),
    (0.5, 1.0, (math.inf, -math.inf, 1.0, 0.0)),  # inf - inf: NaN
)


def _same_float(a, b):
    """Bit for bit, signed zeros included; any NaN matches any NaN."""
    return math.isnan(a) and math.isnan(b) or a.hex() == b.hex()


def sum_table():
    """A term-max table whose constraints and rows are the ``SUM_CASES``.

    Its bounds reach past the seed check (a bound of -0.0 leaves the seed
    a slack of -0.0), so no problem holds them: the table takes the pairs.
    """
    pairs = tuple(
        (QuadraticResponseSurface(f"z{i}", "", beta0, (0.0,) * 4, (0.0,) * 4), bound)
        for i, (beta0, bound, _) in enumerate(SUM_CASES)
    )
    table = _TermMax(pairs, (Interval(0.0, 0.0),) * 4)
    for j in range(4):
        table.write(j, [row[j] for _, _, row in SUM_CASES])
    return table


def test_sum_cases_tell_left_to_right_from_compensated_sums():
    rows = [row for _, _, row in SUM_CASES]
    assert any(math.fsum(row) != reduce(add, row) for row in rows[:3])
    rests = [reduce(sub, row[1:], bound - beta0) for beta0, bound, row in SUM_CASES]
    negated = [-reduce(add, row[1:], beta0 - bound) for beta0, bound, row in SUM_CASES]
    assert "0x0.0p+0" in map(float.hex, rests) and "-0x0.0p+0" in map(float.hex, rests)
    assert not all(map(_same_float, rests, negated))


def test_table_sums_match_reduce_bit_for_bit():
    table = sum_table()
    rows = [list(row) for _, _, row in SUM_CASES]
    bounds = [(s.beta0, bound) for s, bound in table.pairs]
    spread = table.spread

    def noise(beta0, bound, cells):
        return spread * reduce(add, map(abs, cells), abs(bound) + abs(beta0))

    for j in range(4):
        rests, noises = table.budgets(j)
        for (beta0, bound), row, rest, error in zip(bounds, rows, rests, noises):
            cells = row[:j] + [0.0] + row[j + 1 :]
            assert type(rest) is float and _same_float(rest, reduce(sub, cells, bound - beta0))
            assert type(error) is float and _same_float(error, noise(beta0, bound, cells))
        for i, ((beta0, bound), row) in enumerate(zip(bounds, rows)):
            for c in (row[j], 1.0, 0.0, -0.0, 1e16, -1e16, 5e-324, math.inf, -math.inf):
                expected = bound - reduce(add, row[:j] + [c] + row[j + 1 :], beta0)
                assert _same_float(table.slack(i, j, c), expected)
    rests, noises = table.budgets()
    assert rests == [] and all(map(_same_float, noises, (noise(b0, b, row) for (b0, b), row in zip(bounds, rows))))
    expected = [bound - reduce(add, row, beta0) for (beta0, bound), row in zip(bounds, rows)]
    assert all(map(_same_float, table.slacks(), expected))
    # every sum leaves the table as it found it
    for row, abs_row, neg_row, cells in zip(table.rows, table.abs_rows, table.neg_rows, rows):
        assert [c.hex() for c in row] == [c.hex() for c in cells]
        assert [c.hex() for c in abs_row] == [abs(c).hex() for c in cells]
        assert [c.hex() for c in neg_row] == [(-c).hex() for c in cells]


_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e16, -1e16, math.inf, -math.inf]
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.lists(st.one_of(st.floats(), _EDGE_FLOATS), max_size=12), st.one_of(st.floats(), _EDGE_FLOATS))
def test_left_to_right_start_sums_as_reduce(cells, start):
    total = sum(cells, _LeftToRight(start))
    assert _same_float(total, reduce(add, cells, start))
    assert not cells or type(total) is float


def test_sum_start_adds_left_to_right_on_this_python():
    # the start the table uses sums every case as ``reduce`` does, on whichever version runs it
    for beta0, bound, row in SUM_CASES:
        assert _same_float(sum(row, _SUM_START(beta0)), reduce(add, row, beta0))
        assert _same_float(sum(map(neg, row), _SUM_START(bound - beta0)), reduce(sub, row, bound - beta0))
    if sys.implementation.name == "cpython" and sys.version_info >= (3, 12):
        # a plain float start would compensate there, so the table must keep the subclass
        assert not all(_same_float(sum(row, beta0), reduce(add, row, beta0)) for beta0, _, row in SUM_CASES)


# --- single-pass filters against the charged ones they replaced ---
# ``fits`` and ``face_slacks`` once charged the whole column with ``charge`` and then read
# the two lists; the earlier forms, kept verbatim, are the references.

def reference_charge(table, rests, noises, column):
    """``_TermMax.charge``, verbatim: the budget pair charged with a column, as the lists of
    ``rest - c`` and ``noise + spread * |c|``, each bound from ``limit`` on set to inf.
    """
    spread, limit, estimates, errors = table.spread, table.limit, [], []
    for rest, noise, c in zip(rests, noises, column):
        error = noise + spread * abs(c)
        estimates.append(rest - c)
        errors.append(error if error < limit else math.inf)
    return estimates, errors


def reference_fits(table, j, column, rests, noises):
    """``_TermMax.fits`` as it read ``charge``'s lists."""
    for i, (estimate, error) in enumerate(zip(*reference_charge(table, rests, noises, column))):
        if not (estimate > error or estimate < -error):
            estimate = table.slack(i, j, column[i])
        if not estimate >= 0.0:
            return False
    return True


def reference_face_slacks(table, j, column, rests, noises):
    """The certificate's face check as it read ``charge``'s lists."""
    estimates, errors = reference_charge(table, rests, noises, column)
    if math.inf in errors:
        candidates = range(len(column))
    else:
        ceiling = min(map(add, estimates, errors), default=math.inf)
        candidates = [i for i, low in enumerate(map(sub, estimates, errors)) if low <= ceiling]
    feasible, least, worst = True, math.inf, -1
    for i in candidates:
        slack = table.slack(i, j, column[i])
        if not slack >= 0.0:
            feasible = False
        if worst < 0 or slack < least:
            least, worst = slack, i
    return feasible, least, worst


def _filter_table(linear, bounds, points):
    """A table whose cell (i, k) is ``linear[i][k] * points[k]`` (+0.0 added), with bound ``bounds[i]``."""
    pairs = [
        (QuadraticResponseSurface(f"z{i}", "", 0.0, tuple(row), (0.0,) * len(row)), bound)
        for i, (row, bound) in enumerate(zip(linear, bounds))
    ]
    return _TermMax(pairs, [Interval(x, x) for x in points])


def _assert_filters_match(table, j, column, rests, slacks, noises):
    """The single-pass ``fits`` and ``face_slacks`` decide as the charged references, bit for bit.

    ``fits`` takes the budgets ``rests``; ``face_slacks`` takes box slacks and charges each
    budget ``sl + row[j]``, which the reference is given.
    """
    assert table.fits(j, column, rests, noises) == reference_fits(table, j, column, rests, noises)
    feasible, least, worst = table.face_slacks(j, column, slacks, noises)
    budgets = [sl + row[j] for sl, row in zip(slacks, table.rows)]
    ref_feasible, ref_least, ref_worst = reference_face_slacks(table, j, column, budgets, noises)
    assert (feasible, least.hex(), worst) == (ref_feasible, ref_least.hex(), ref_worst)


# finite coefficients whose cells tie, are subnormal or overflow to +-inf at x = 2.0
_FILTER_COEFFS = st.sampled_from([0.0, -0.0, 5e-324, 0.5, -0.5, 1.0, -1.0, 2.0, 1.7e308, -1.7e308])


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(st.data())
def test_single_pass_filters_match_the_charged_ones(data):
    n, m = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 5))
    linear = data.draw(st.lists(st.lists(_FILTER_COEFFS, min_size=n, max_size=n), min_size=m, max_size=m))
    bounds = data.draw(st.lists(_TIE_FLOATS, min_size=m, max_size=m))
    points = data.draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n))
    table = _filter_table(linear, bounds, points)
    j = data.draw(st.integers(0, n - 1))
    # error bounds below, at and over ``limit``, and NaN; estimates NaN where a rest or a cell is
    limit = table.limit
    noise = st.one_of(
        st.sampled_from([0.0, 1e-300, 1e-16, 1.0, limit / 2, math.nextafter(limit, 0.0), limit, math.inf, math.nan]),
        st.floats(0.0, 4.0),
    )
    column = data.draw(st.lists(st.one_of(_TIE_FLOATS, st.floats(-4.0, 4.0)), min_size=m, max_size=m))
    # budgets for ``fits`` and box slacks for ``face_slacks``, each drawn from the same values
    budget = st.lists(
        st.one_of(_TIE_FLOATS, st.sampled_from([1e300, -1e300]), st.floats(-4.0, 4.0)), min_size=m, max_size=m
    )
    rests, slacks = data.draw(budget), data.draw(budget)
    noises = data.draw(st.lists(noise, min_size=m, max_size=m))
    _assert_filters_match(table, j, column, rests, slacks, noises)


@pytest.mark.parametrize(
    "rests, noises, column",
    [
        # the first upper bound is NaN: ``min`` keeps it, so no slack is summed
        ([math.nan, 1.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        # a NaN estimate after the first: it neither lowers the ceiling nor passes the filter
        ([1.0, math.nan, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        # errors exactly at ``limit`` (every slack summed) and one ulp below it (filtered); the
        # estimate -1e300 lies past both, and the summed slack is 0.0
        ([-1e300, 2.0, 3.0], ["limit", 0.0, 0.0], [0.0, 0.0, 0.0]),
        ([-1e300, 2.0, 3.0], ["below", 0.0, 0.0], [0.0, 0.0, 0.0]),
        ([1.0, 2.0, 3.0], [0.0, 0.0, math.inf], [0.0, 0.0, 0.0]),
        ([1.0, 2.0, 3.0], [0.0, math.nan, 0.0], [0.0, 0.0, 0.0]),
        # tied estimates and error bounds: the first of the tied slacks wins
        ([0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0.0, -0.0, 0.0]),
        ([-0.5, -0.5, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ],
)
def test_single_pass_filters_match_the_charged_ones_at_the_edges(rests, noises, column):
    # three constraints whose slacks all tie: bound 0.5 less 0.25 + 0.25 at every cell
    table = _filter_table([[0.25, 0.25]] * 3, [0.5, 0.5, 0.5], [1.0, 1.0])
    marks = {"limit": table.limit, "below": math.nextafter(table.limit, 0.0)}
    noises = [marks[v] if isinstance(v, str) else v for v in noises]
    # the box slacks whose budget without a cell of 0.25 is each rest, bit for bit
    slacks = [rest - 0.25 for rest in rests]
    assert [(sl + 0.25).hex() for sl in slacks] == [rest.hex() for rest in rests]
    for j in (0, 1):
        _assert_filters_match(table, j, column, rests, slacks, noises)


# --- N-cell points decided as tries against the twice-charged budget they replaced ---

def reference_slice_verdicts(table, j, k, xs, ys):
    """``orthotope._slice_verdicts`` as it charged one budget pair without cells j and k twice, verbatim."""
    held_j, held_k = [row[j] for row in table.rows], [row[k] for row in table.rows]
    table.write(k, [0.0] * len(held_k))
    rests, noises = table.budgets(j)
    table.write(k, held_k)
    columns_k = [table.column(k, y, y) for y in ys]
    verdicts = []
    for x in xs:
        column_j = table.column(j, x, x)
        table.write(j, column_j)
        charged = reference_charge(table, rests, noises, column_j)
        verdicts += [table.fits(k, column_k, *charged) for column_k in columns_k]
    table.write(j, held_j)
    return verdicts


# cells l*x + q*x*x that cancel (1e16, 1.0, -1e16, 1.0 left to right is 0.0, exactly 2.0),
# tie, are subnormal or overflow to +-inf
_SLICE_LINEAR = st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, -1.0, 3.0, 1e16, -1e16, 1.7e308])
_SLICE_QUADRATIC = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 0.25])
_SLICE_POINTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_slice_verdicts_match_the_twice_charged_ones(data):
    n, m = data.draw(st.integers(2, 10)), data.draw(st.integers(1, 5))
    linear, quadratic = (
        data.draw(st.lists(st.lists(coeffs, min_size=n, max_size=n), min_size=m, max_size=m))
        for coeffs in (_SLICE_LINEAR, _SLICE_QUADRATIC)
    )
    beta0s = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1e16]), min_size=m, max_size=m))
    ends = data.draw(st.lists(st.lists(_SLICE_POINTS, min_size=2, max_size=2), min_size=n, max_size=n))
    held = [Interval(*sorted(pair)) for pair in ends]
    j, k = data.draw(st.permutations(range(n)))[:2]
    xs, ys = (data.draw(st.lists(_SLICE_POINTS, min_size=1, max_size=5)) for _ in range(2))
    surfaces = [
        QuadraticResponseSurface(f"z{i}", "", beta0, tuple(l), tuple(q))
        for i, (beta0, l, q) in enumerate(zip(beta0s, linear, quadratic))
    ]

    def cells(x, y):
        """Each constraint's row with x_j at x and x_k at y, and its left-to-right sum from beta0."""
        table = _TermMax([(s, 0.0) for s in surfaces], held)
        table.write(j, table.column(j, x, x))
        table.write(k, table.column(k, y, y))
        return [reduce(add, row, s.beta0) for s, row in zip(surfaces, table.rows)]

    # a bound is drawn, or the sum at one point of the slice, whose slack is then exactly 0.0
    tie = cells(data.draw(st.sampled_from(xs)), data.draw(st.sampled_from(ys)))
    bounds = [
        total if data.draw(st.booleans()) else data.draw(st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e16, math.inf]))
        for total in tie
    ]
    table = _TermMax(list(zip(surfaces, bounds)), held)
    before = [[c.hex() for c in row] for row in table.rows]
    verdicts = _slice_verdicts(table, j, k, xs, ys)
    assert verdicts == reference_slice_verdicts(table, j, k, xs, ys)
    # each is the sign of the point's left-to-right slack, and the table is left as it was
    expected = [all(b - z >= 0.0 for b, z in zip(bounds, cells(x, y))) for x in xs for y in ys]
    assert verdicts == expected
    assert [[c.hex() for c in row] for row in table.rows] == before


# --- filtered expansion and certificate against the left-to-right ones they replaced ---
# The earlier slack method, expansion step and certificate, kept verbatim as the reference.

class ReferenceTable(_TermMax):
    """The term-max table with its earlier slack method, which sums every constraint."""

    def slacks(self, j: int = 0, column: list[float] | None = None) -> tuple[float, ...]:
        """Per-constraint slack of the box, or of the box with column j replaced by ``column``."""
        if column is None:
            column = [row[j] for row in self.rows]
        return tuple(
            bound - reduce(add, row[j + 1 :], reduce(add, row[:j], s.beta0) + c)
            for (s, bound), row, c in zip(self.pairs, self.rows, column)
        )


def reference_expand_step(problem: DesignProblem, table: _TermMax, j: int) -> tuple[str, str]:
    """Expand factor j of the table's box in place; the names binding its lo and hi ends."""
    rests, noises = table.budgets(j)
    # exact budgets first; on a roundoff trip, retreat by escalating
    # noise-scaled slack, and fall back to no growth
    for bias in (0.0, 1.0, 32.0, 1024.0):
        lo, hi, blo, bhi = _expand_once(problem, table, j, bias, rests, noises)
        cand = Interval(lo, hi)
        column = table.column(j, lo, hi)
        if all(sl >= 0.0 for sl in table.slacks(j, column)):
            table.swap(j, cand, column)
            return blo, bhi
    return "numerical", "numerical"


def reference_certify(problem: DesignProblem, table: _TermMax) -> MaximalityCertificate:
    """``verify_maximality`` of the table's box; each face push swaps one column."""
    epsilon = problem.tolerance
    if not all(sl >= 0.0 for sl in table.slacks()):
        raise InfeasibleInput("maximality is only defined for feasible boxes")

    faces = []
    for j, (var, interval) in enumerate(zip(problem.variables, table.intervals)):
        push = epsilon * var.ambient.width
        pair = []
        for side in ("lo", "hi"):
            if side == "lo":
                room = interval.lo - var.ambient.lo
                candidate = Interval(interval.lo - push, interval.hi)
            else:
                room = var.ambient.hi - interval.hi
                candidate = Interval(interval.lo, interval.hi + push)
            if room < push:
                pair.append(FaceCheck("ambient", margin=room))
                continue
            slacks = table.slacks(j, table.column(j, candidate.lo, candidate.hi))
            if all(sl >= 0.0 for sl in slacks):
                pair.append(FaceCheck(None, margin=min(slacks) if slacks else math.inf))
            else:
                worst = min(range(len(slacks)), key=lambda i: slacks[i])
                pair.append(FaceCheck(problem.constraints[worst].surface, margin=-slacks[worst]))
        faces.append(tuple(pair))
    return MaximalityCertificate(faces=tuple(faces), epsilon=epsilon)


def reference_solve(problem):
    """``solve_greedy`` with the expansion step and certificate above."""
    order = problem.ranking if problem.ranking is not None else auto_rank(problem)
    table = ReferenceTable(problem.constrained_pairs(), Orthotope.point(problem.seed).intervals)
    bindings = {j: reference_expand_step(problem, table, j) for j in order}
    return SolveResult(Orthotope(table.intervals), tuple(bindings[j] for j in range(problem.dim)), order,
                       reference_certify(problem, table))


def assert_same_as_reference(problem, boxes=(), tolerances=(None,)):
    """Solve and certificates (of the result and of ``boxes``) equal the references, NaN and signed zeros included.

    Each box is certified at each of ``tolerances``, None being the problem's own.
    """
    expected = reference_solve(problem)
    assert repr(solve_greedy(problem)) == repr(expected)
    for tolerance in tolerances:
        at = problem if tolerance is None else replace(problem, tolerance=tolerance)
        for box in (expected.orthotope, *boxes):
            assert repr(verify_maximality(at, box)) == repr(
                reference_certify(at, ReferenceTable(at.constrained_pairs(), box.intervals))
            )
    return expected


FILTER_SHAPES = tuple(itertools.product((1, 2, 3, 10, 30, 100), (1, 3, 30)))


def test_filtered_solve_matches_left_to_right_solve():
    rng = random.Random(8008)
    for i, (n, m) in enumerate(FILTER_SHAPES):
        for k, shifted in enumerate((False, True)):
            offset = rng.uniform(1600.0, 2000.0) if shifted else 0.0
            scale = TABLE_SCALES[(i + k) % len(TABLE_SCALES)]
            problem = random_problem(rng, n, m, scale=scale, offset=offset)
            # the certificate also of part-grown boxes, whose free faces report their least slack
            partial = Orthotope.point(problem.seed)
            for j in auto_rank(problem)[: max(1, n // 2)]:
                partial = expand_factor(problem, partial, j)
            # a tolerance is also the least seed slack, here 0.5 * scale or more
            tolerances = (None, 1e-12, 0.05 * min(1.0, scale)) if n <= 10 else (None,)
            assert_same_as_reference(problem, (Orthotope.point(problem.seed), partial), tolerances)


def _counting_slack(monkeypatch):
    """Record (constraint, column) of every left-to-right slack the table sums; the whole-row
    pass of ``slacks()``, which replaces no cell, records (constraint, None) for each row.
    """
    summed = []
    slack, slacks = _TermMax.slack, _TermMax.slacks

    def counted(self, i, j, c):
        summed.append((i, j))
        return slack(self, i, j, c)

    def counted_rows(self):
        summed.extend((i, None) for i in range(len(self.rows)))
        return slacks(self)

    monkeypatch.setattr(_TermMax, "slack", counted)
    monkeypatch.setattr(_TermMax, "slacks", counted_rows)
    return summed


def test_constraint_exhausted_to_zero_slack_is_summed(monkeypatch):
    # z0 = x0 reaches its bound exactly, so its slack is 0 for every later factor
    problem = DesignProblem(
        variables=(DesignVariable("x0", "", Interval(0.0, 2.0)), DesignVariable("x1", "", Interval(0.0, 2.0))),
        surfaces=(
            QuadraticResponseSurface("z0", "", 0.0, (1.0, 0.0), (0.0, 0.0)),
            QuadraticResponseSurface("z1", "", 0.0, (0.5, 1.0), (0.0, 0.25)),
        ),
        constraints=(ObjectiveConstraint("z0", 1.0), ObjectiveConstraint("z1", 3.0)),
        seed=(0.5, 0.5),
        ranking=(0, 1),
    )
    summed = _counting_slack(monkeypatch)
    result = assert_same_as_reference(problem, tolerances=(None, 1e-12))
    assert result.orthotope.intervals[0].hi == 1.0
    assert problem.region().is_box_feasible(result.orthotope.intervals)[1][0] == 0.0
    summed.clear()
    solve_greedy(problem)
    # the estimate of z0 while x1 grows is 0, inside its error bound, so it is summed left to right
    assert (0, 1) in summed


def test_identical_surfaces_tie_for_the_blocker():
    rng = random.Random(515)
    for n in (1, 3, 12):
        base = random_problem(rng, n, 2)
        twin = replace(base.surfaces[0], name="twin")
        bound = base.constraints[0].bound
        problem = replace(
            base,
            surfaces=(base.surfaces[0], twin, base.surfaces[1]),
            constraints=(base.constraints[0], ObjectiveConstraint("twin", bound), base.constraints[1]),
        )
        result = assert_same_as_reference(problem, tolerances=(None, 0.05))
        blockers = {f.blocked_by for pair in result.certificate.faces for f in pair}
        assert base.surfaces[0].name in blockers and "twin" not in blockers


@pytest.mark.parametrize("first", ["plus", "minus"])
def test_tied_face_slacks_keep_the_first_constraint(first):
    # z = x under bounds 0.0 and -0.0: pushed to [-1.5, 0.0], the slacks are +0.0 and -0.0,
    # both >= 0, and the face's margin is the first one's; pushed to [-1.5, 1.0], both are -1.0
    # and the first constraint blocks the face
    bounds = {"plus": 0.0, "minus": -0.0}
    order = (first, "minus" if first == "plus" else "plus")
    problem = DesignProblem(
        variables=(DesignVariable("x", "", Interval(-2.0, 2.0)),),
        surfaces=tuple(QuadraticResponseSurface(name, "", 0.0, (1.0,), (0.0,)) for name in order),
        constraints=tuple(ObjectiveConstraint(name, bounds[name]) for name in order),
        seed=(-1.0,),
        name="tie",
    )
    box = Orthotope((Interval(-1.5, -1.0),))
    free = verify_maximality(replace(problem, tolerance=0.25), box).faces[0][1]
    assert (free.blocked_by, free.margin.hex()) == (None, bounds[first].hex())
    blocked = verify_maximality(replace(problem, tolerance=0.5), box).faces[0][1]
    assert (blocked.blocked_by, blocked.margin) == (first, 1.0)
    assert_same_as_reference(problem, (box,), tolerances=(0.25, 0.5))


def test_surfaces_a_few_ulps_apart_keep_the_exact_blocker():
    # the twin's linear coefficients sit a few ulps off, so roundoff decides which slack is least
    rng = random.Random(616)
    blockers = set()
    for k in range(30):
        n = (2, 10, 30)[k % 3]
        base = random_problem(rng, n, 2, scale=(1.0, 1e6)[k % 2], offset=(0.0, 1800.0)[k % 2])
        linear = list(base.surfaces[0].linear)
        for col in range(n):
            for _ in range(rng.randint(0, 3)):
                linear[col] = math.nextafter(linear[col], rng.choice((math.inf, -math.inf)))
        twin = replace(base.surfaces[0], name="twin", linear=tuple(linear))
        problem = replace(
            base,
            surfaces=(base.surfaces[0], twin, base.surfaces[1]),
            constraints=(
                base.constraints[0],
                ObjectiveConstraint("twin", base.constraints[0].bound),
                base.constraints[1],
            ),
        )
        result = assert_same_as_reference(problem)
        blockers |= {f.blocked_by for pair in result.certificate.faces for f in pair}
    assert {"z0", "twin"} <= blockers


def test_overflowing_terms_take_the_full_pass(monkeypatch):
    # pushed far enough, one term overflows to NaN (-inf + inf) and one to inf
    problem = DesignProblem(
        variables=(
            DesignVariable("x0", "", Interval(-2e10, 0.0)),
            DesignVariable("x1", "", Interval(0.0, 4e10)),
            DesignVariable("x2", "", Interval(-1.0, 1.0)),
        ),
        surfaces=(
            QuadraticResponseSurface("nan", "", 0.0, (1e298, 0.0, 1.0), (1e288, 0.0, 0.0)),
            QuadraticResponseSurface("inf", "", 0.0, (0.0, 0.0, 0.5), (0.0, 1e288, 1.0)),
            QuadraticResponseSurface("plain", "", 0.0, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
        ),
        constraints=(
            ObjectiveConstraint("nan", 1e300),
            ObjectiveConstraint("inf", 1e307),
            ObjectiveConstraint("plain", 1.5),
        ),
        seed=(-1.0, 1.0, 0.0),
    )
    box = Orthotope((Interval(-1e10, 0.0), Interval(0.0, 1e9), Interval(-0.5, 0.5)))
    assert problem.region().is_box_feasible(box.intervals)[0]
    column = _TermMax(problem.constrained_pairs(), box.intervals).column
    assert math.isnan(column(0, -1.8e10, 0.0)[0])
    assert column(1, 0.0, 1.7e10)[1] == math.inf
    assert_same_as_reference(problem, (box,), tolerances=(None, 0.4))

    wide = replace(problem, tolerance=0.4)
    summed = _counting_slack(monkeypatch)
    faces = verify_maximality(wide, box).faces
    assert [(lo.blocked_by, hi.blocked_by) for lo, hi in faces] == [("nan", "ambient"), ("ambient", "inf"),
                                                                    ("ambient", "ambient")]
    assert math.isnan(faces[0][0].margin) and faces[1][1].margin == math.inf
    # the precheck sums each constraint once, in one whole-row pass, and each of the two pushed
    # faces sums all three
    assert Counter(summed) == Counter([(i, None) for i in range(3)] + [(i, j) for j in (0, 1) for i in range(3)])


def test_magnitudes_near_the_overflow_limit_are_summed(monkeypatch):
    # with a bound of 1e308 some partial sum could overflow, so the error bound is not trusted
    problem = one_dim_problem(linear=1.0, quadratic=0.0, bound=1e308)
    summed = _counting_slack(monkeypatch)
    assert repr(solve_greedy(problem)) == repr(reference_solve(problem))
    # the one expansion try and the certificate's whole-row precheck; the seed was checked on load
    assert summed == [(0, 0), (0, None)]


def vertex_seed_problem(rng, n, m, scale, lo, hi):
    """Concave terms whose vertices sit within 40 ulps of the seed, and bounds just above the seed's values."""
    variables, vertices = [], []
    for j in range(n):
        variables.append(DesignVariable(f"x{j}", "", Interval(lo, hi)))
        vertices.append(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
    surfaces = []
    for i in range(m):
        quadratic = tuple(-scale * rng.uniform(0.5, 2.0) for _ in range(n))
        linear = tuple(-2.0 * q * v for q, v in zip(quadratic, vertices))
        surfaces.append(QuadraticResponseSurface(f"z{i}", "", scale * rng.uniform(-2.0, 2.0), linear, quadratic))
    seed = []
    for j in range(n):
        x = -surfaces[0].linear[j] / (2.0 * surfaces[0].quadratic[j])
        for _ in range(rng.randint(0, 40)):
            x = math.nextafter(x, rng.choice((lo, hi)))
        seed.append(x)
    constraints = []
    for s in surfaces:
        value = s.evaluate(seed)
        slack = max(2e-6, abs(value) * rng.choice((1e-15, 1e-12, 1e-10)))
        constraints.append(ObjectiveConstraint(s.name, value + slack))
    return DesignProblem(tuple(variables), tuple(surfaces), tuple(constraints), tuple(seed), name="vertex")


def test_seed_a_few_ulps_off_a_concave_vertex_solves(tmp_path):
    # 3.6e9*x - 1e6*x**2 peaks at 1800; its float value two ulps off the vertex rounds
    # above the value at the vertex, so the float slack rises by an ulp as x grows
    doc = {
        "name": "vertex",
        "variables": [{"name": "x", "lo": 1790.0, "hi": 1810.0}],
        "surfaces": [{"name": "z", "beta0": 0.0, "linear": [3.6e9], "quadratic": [-1e6]}],
        "constraints": [{"surface": "z", "bound": 3240000001000.0005}],
        "seed": [1800.0000000000005],
    }
    path = tmp_path / "vertex.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "vertex_solution.json").read_text())
    assert doc["certificate"]["maximal"] is True
    (axis,) = doc["orthotope"]
    assert (axis["lo"], axis["hi"], axis["binding"]) == (1790.0, 1810.0, {"lo": "ambient", "hi": "ambient"})

    rng = random.Random(1800)
    for scale in (1.0, 1e2, 1e4, 1e6, 1e8):
        for lo, hi in ((1600.0, 2000.0), (1e5 - 200.0, 1e5 + 200.0)):
            for n, m in ((1, 1), (2, 2), (3, 2)):
                for _ in range(4):
                    problem = vertex_seed_problem(rng, n, m, scale, lo, hi)
                    result = solve_greedy(problem)
                    assert result.certificate.maximal
                    assert all(iv.contains(x) for iv, x in zip(result.orthotope.intervals, problem.seed))


def exact_slacks(problem, box):
    """Each constraint's slack over the box in exact rationals, from the term values at lo, hi and the vertex."""
    out = []
    for s, bound in problem.constrained_pairs():
        total = Fraction(s.beta0)
        for l, q, iv in zip(map(Fraction, s.linear), map(Fraction, s.quadratic), box):
            candidates = [Fraction(iv.lo), Fraction(iv.hi)]
            if q != 0 and iv.lo < -l / (2 * q) < iv.hi:
                candidates.append(-l / (2 * q))
            total += max(l * x + q * x * x for x in candidates)
        out.append(Fraction(bound) - total)
    return out


def test_every_step_contains_the_last_and_the_exact_slack_never_grows():
    rng = random.Random(4242)
    shapes = itertools.product((1, 2, 3, 5, 10), (1, 2, 3, 5, 10), (1e-4, 1.0, 1e3, 1e6), (False, True))
    for n, m, scale, shifted in shapes:
        offset = rng.uniform(1600.0, 2000.0) if shifted else 0.0
        problem = random_problem(rng, n, m, scale=scale, offset=offset)
        result = solve_greedy(problem)
        # the solve's steps, each from the seed point to the solved interval, then a second
        # round over the grown box, where the floor at the current interval is what keeps
        # an endpoint from moving in
        steps = [(j, Interval(problem.seed[j], problem.seed[j]), result.orthotope.intervals[j]) for j in result.ranking]
        box = result.orthotope
        for j in result.ranking:
            grown = expand_factor(problem, box, j)
            steps.append((j, box.intervals[j], grown.intervals[j]))
            box = grown

        box = list(Orthotope.point(problem.seed).intervals)
        slacks = exact_slacks(problem, box)
        for j, before, after in steps:
            assert before == box[j] and after.contains_interval(before)
            box[j] = after
            now = exact_slacks(problem, box)
            assert all(new <= old for old, new in zip(slacks, now))
            slacks = now


def test_solve_sums_at_most_n_times_m_slacks(monkeypatch):
    n, m = 100, 30
    problem = random_problem(random.Random(77), n, m)
    summed = _counting_slack(monkeypatch)
    assert solve_greedy(problem).certificate.maximal
    assert len(summed) <= n * m


# --- the max-volume search against its numpy implementation -----------------------

def _numpy_volume_search(problem, resolution):
    # the numpy implementation that _volume_search replaced, kept as its reference
    n = problem.dim
    k = min(resolution, VOLUME_SEARCH_RESOLUTION[n])
    axes = [np.linspace(v.ambient.lo, v.ambient.hi, k) for v in problem.variables]

    pair_lists = []
    for j, grid in enumerate(axes):
        seed_j = problem.seed[j]
        a0 = int(np.searchsorted(grid, seed_j, side="right") - 1)
        a0 = max(0, min(a0, len(grid) - 1))
        b0 = int(np.searchsorted(grid, seed_j, side="left"))
        b0 = max(0, min(b0, len(grid) - 1))
        pairs = [(a, b) for a in range(a0 + 1) for b in range(b0, len(grid)) if a < b]
        if not pairs:
            pairs = [(a0, b0)]
        pair_lists.append(pairs)

    term_tables = []
    widths = []
    for j, (grid, pairs) in enumerate(zip(axes, pair_lists)):
        per_surface = []
        for s, _ in problem.constrained_pairs():
            vals = np.array(
                [s.term_extremum(j, Interval(grid[a], grid[b]), "max")[0] for a, b in pairs]
            )
            per_surface.append(vals)
        term_tables.append(per_surface)
        widths.append(np.array([grid[b] - grid[a] for a, b in pairs]))

    shape = tuple(len(p) for p in pair_lists)
    feasible = np.ones(shape, dtype=bool)
    for i, (s, bound) in enumerate(problem.constrained_pairs()):
        feasible &= numpy_lattice_sum(s.beta0, [term_tables[j][i] for j in range(n)]) <= bound

    volume = np.where(feasible, functools.reduce(np.multiply.outer, widths), -1.0)
    flat_best = int(np.argmax(volume))
    if volume.flat[flat_best] < 0:
        return Orthotope.point(problem.seed)
    best = np.unravel_index(flat_best, shape)
    intervals = []
    for j, idx in enumerate(best):
        a, b = pair_lists[j][idx]
        intervals.append(Interval(float(axes[j][a]), float(axes[j][b])))
    return Orthotope(tuple(intervals))


def _volume_cases():
    """Seeded N <= 3 problems: plain and offset domains, seeds on ambient bounds and grid points, tight bounds."""
    rng = random.Random(6102)
    for case in range(90):
        n = 1 + case % 3
        scale = 10.0 ** rng.randint(-3, 6)
        offset = rng.uniform(1600.0, 2000.0) if case % 2 else 0.0
        base = random_problem(rng, n, rng.randint(1, 3), scale, offset)
        seed = list(base.seed)
        kind = case % 5
        if kind == 1:  # a seed coordinate on an ambient bound
            j = rng.randrange(n)
            seed[j] = rng.choice((base.variables[j].ambient.lo, base.variables[j].ambient.hi))
        elif kind == 2:  # every seed coordinate on the lattice
            seed = [v.ambient.lo + (v.ambient.hi - v.ambient.lo) / 2 for v in base.variables]
        # a share of each surface's rise over the ambient box; tight bounds leave few feasible boxes
        share = rng.choice((1e-6, 1e-2, 0.3, 0.6, 0.9))
        ambient = tuple(v.ambient for v in base.variables)
        constraints = tuple(
            ObjectiveConstraint(s.name, s.evaluate(seed) + share * (s.box_extremum(ambient)[0] - s.evaluate(seed)))
            for s in base.surfaces
        )
        # the largest lattices, 201 / 41 / 21 points per axis for N = 1 / 2 / 3, cost seconds
        resolution = rng.choice(((2, 11, 21, 201), (2, 11, 21), (2, 5, 11))[n - 1])
        try:
            yield DesignProblem(
                base.variables, base.surfaces, constraints, tuple(seed), tolerance=5e-324, name="volume"
            ), resolution
        except InfeasibleSeed:  # the slack rounded away at this scale
            continue
    # symmetric in x0 and x1, so mirrored boxes tie on volume and the first one must win
    for offset, share in ((0.0, 0.3), (0.0, 0.6), (1800.0, 0.4)):
        variables = tuple(DesignVariable(f"x{j}", "", Interval(offset, offset + 1.0)) for j in range(2))
        surface = QuadraticResponseSurface("z", "", 0.5, (-0.3, -0.3), (1.0, 1.0))
        seed = (offset + 0.5, offset + 0.5)
        rise = surface.box_extremum(tuple(v.ambient for v in variables))[0] - surface.evaluate(seed)
        bound = surface.evaluate(seed) + share * rise
        yield DesignProblem(variables, (surface,), (ObjectiveConstraint("z", bound),), seed, name="tie"), 21


def test_volume_search_boxes_are_feasible():
    # one rule decides the search's boxes and is_box_feasible: 1e308 * 10 overflows, and
    # inf - inf is a NaN slack, so [0, 10] is infeasible though its maximum is <= the bound
    variables = (DesignVariable("x", "", Interval(0.0, 10.0)),)
    surface = QuadraticResponseSurface("z", "", 0.0, (1e308,), (0.0,))
    constraints = (ObjectiveConstraint("z", math.inf),)
    overflow = DesignProblem(variables, (surface,), constraints, (0.5,), name="overflow")
    assert _volume_search(overflow, 11).intervals == (Interval(0.0, 1.0),)
    for problem, resolution in [*_volume_cases(), (overflow, 11)]:
        box = _volume_search(problem, resolution)
        assert problem.region().is_box_feasible(box.intervals)[0], (problem, resolution)


def test_volume_search_matches_numpy_reference():
    cases = seed_boxes = 0
    for problem, resolution in _volume_cases():
        got = _volume_search(problem, resolution)
        expected = _numpy_volume_search(problem, resolution)
        hexes = [[(iv.lo.hex(), iv.hi.hex()) for iv in box.intervals] for box in (got, expected)]
        assert hexes[0] == hexes[1], (problem, resolution)
        cases += 1
        seed_boxes += got == Orthotope.point(problem.seed)
    assert cases >= 70
    assert seed_boxes > 0 and cases - seed_boxes >= 25  # both outcomes occur
