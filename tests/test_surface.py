import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cddkit import data_path
from cddkit.designspace import _TermMax
from cddkit.errors import DimensionMismatch
from cddkit.surface import Interval, QuadraticResponseSurface, extremum

from conftest import random_surface


@pytest.fixture(scope="module")
def table():
    docs = json.loads(data_path("emissions_tableI.json").read_text())
    return {s.name: s for s in map(QuadraticResponseSurface.from_json, docs)}


def test_constants_at_origin(table):
    assert table["CO2"].evaluate((0.0, 0.0, 0.0)) == 5.97
    assert table["NOx"].evaluate((0.0, 0.0, 0.0)) == -4.01
    assert table["Soot"].evaluate((0.0, 0.0, 0.0)) == 1.22


def test_co2_at_unit_corner(table):
    # hand substitution: 5.97 - 1.21 - 11.31 - 0.07 + 0.30 + 6.27 + 0.03
    assert table["CO2"].evaluate((1.0, 1.0, 1.0)) == pytest.approx(-0.02, abs=1e-12)


def test_dimension_mismatch(table):
    with pytest.raises(DimensionMismatch):
        table["CO2"].evaluate((0.0, 0.0))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    assert Interval(2.0, 2.0).width == 0.0


def test_mismatched_coefficient_lengths():
    with pytest.raises(DimensionMismatch):
        QuadraticResponseSurface("bad", "", 0.0, (1.0,), (1.0, 2.0))


def test_an_unknown_mode_is_refused_by_both_extrema():
    # z = x - x**2 peaks at (0.5, 0.25); an unknown mode once answered with the value at lo
    s = QuadraticResponseSurface("z", "", 0.0, (1.0,), (-1.0,))
    assert s.term_extremum(0, Interval(0.0, 2.0), "max") == (0.25, 0.5)
    assert s.box_extremum((Interval(0.0, 2.0),), "max") == (0.25, (0.5,))
    for extremum_in_mode in (lambda mode: s.term_extremum(0, Interval(0.0, 2.0), mode),
                             lambda mode: s.box_extremum((Interval(0.0, 2.0),), mode)):
        for mode in ("maximum", "MAX", "", None):
            with pytest.raises(ValueError, match="mode must be 'max' or 'min'"):
                extremum_in_mode(mode)


def gradient(s, point):
    return tuple(s.sensitivity(j, point) for j in range(s.dim))


def test_gradient_at_origin_is_linear_part(table):
    for s in table.values():
        assert gradient(s, (0.0, 0.0, 0.0)) == s.linear


def test_nox_slope_along_first_factor(table):
    nox = table["NOx"]
    assert nox.sensitivity(0, (0.0, 0.0, 0.0)) == pytest.approx(6.53, abs=1e-12)
    # 6.53 + 2 * (-2.37) * 0.5
    assert nox.sensitivity(0, (0.5, 0.0, 0.0)) == pytest.approx(4.16, abs=1e-12)


def test_linear_surface_has_constant_gradient():
    s = QuadraticResponseSurface("lin", "", 1.0, (2.0, -3.0), (0.0, 0.0))
    assert gradient(s, (0.0, 0.0)) == gradient(s, (5.0, -7.0)) == (2.0, -3.0)


def test_gradient_matches_central_differences():
    rng = random.Random(7)
    h = 1e-4
    for _ in range(200):
        s = random_surface(rng, rng.randint(1, 4))
        x = [rng.uniform(-10.0, 10.0) for _ in range(s.dim)]
        grad = gradient(s, x)
        for j in range(s.dim):
            xp = list(x)
            xm = list(x)
            xp[j] += h
            xm[j] -= h
            fd = (s.evaluate(xp) - s.evaluate(xm)) / (2.0 * h)
            assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(grad[j]))


def test_sensitivity_values(table):
    assert table["CO2"].sensitivity(1, (0.0, 0.0, 0.0)) == -11.31
    assert table["Soot"].sensitivity(2, (0.0, 0.0, 0.0)) == -0.02
    with pytest.raises(IndexError):
        table["CO2"].sensitivity(3, (0.0, 0.0, 0.0))


def test_sensitivity_vanishes_at_term_vertex(table):
    s = table["NOx"]
    vertex = -s.linear[0] / (2.0 * s.quadratic[0])
    point = (vertex, 0.0, 0.0)
    assert s.sensitivity(0, point) == pytest.approx(0.0, abs=1e-12)


def test_term_extrema_against_table_rows(table):
    # convex Soot term along factor 0: endpoint comparison 0 vs -0.07
    value, at = table["Soot"].term_extremum(0, Interval(0.0, 1.0), "max")
    assert value == 0.0 and at == 0.0
    # concave NOx term along factor 0: vertex outside [0, 1], endpoint 1 wins
    value, at = table["NOx"].term_extremum(0, Interval(0.0, 1.0), "max")
    assert at == 1.0
    assert value == pytest.approx(4.16, abs=1e-12)


def test_point_box_reduces_to_evaluate(table):
    s = table["CO2"]
    box = [Interval(0.3, 0.3), Interval(0.7, 0.7), Interval(0.1, 0.1)]
    value, at = s.box_extremum(box, "max")
    assert value == s.evaluate((0.3, 0.7, 0.1))
    assert at == (0.3, 0.7, 0.1)


def test_box_extremum_dominates_sampling():
    rng = random.Random(11)
    for _ in range(60):
        s = random_surface(rng, rng.randint(1, 4))
        box = []
        for _ in range(s.dim):
            lo = rng.uniform(-5.0, 5.0)
            box.append(Interval(lo, lo + rng.uniform(0.0, 4.0)))
        hi, hi_at = s.box_extremum(box, "max")
        lo_val, lo_at = s.box_extremum(box, "min")
        assert s.evaluate(hi_at) == hi
        assert s.evaluate(lo_at) == lo_val
        for _ in range(300):
            x = [rng.uniform(iv.lo, iv.hi) for iv in box]
            v = s.evaluate(x)
            assert lo_val <= v <= hi


def test_box_extremum_monotone_in_containment():
    rng = random.Random(13)
    for _ in range(100):
        s = random_surface(rng, 3)
        inner = []
        outer = []
        for _ in range(3):
            lo = rng.uniform(-3.0, 3.0)
            width = rng.uniform(0.1, 2.0)
            pad = rng.uniform(0.0, 1.0)
            inner.append(Interval(lo, lo + width))
            outer.append(Interval(lo - pad, lo + width + pad))
        assert s.box_extremum(inner, "max")[0] <= s.box_extremum(outer, "max")[0]
        assert s.box_extremum(inner, "min")[0] >= s.box_extremum(outer, "min")[0]


def test_separability_against_grid_oracle():
    rng = random.Random(17)
    steps = 10_000
    for _ in range(20):
        s = random_surface(rng, 3)
        box = []
        for _ in range(3):
            lo = rng.uniform(-4.0, 4.0)
            box.append(Interval(lo, lo + rng.uniform(0.5, 3.0)))
        total = s.beta0
        tolerance = 0.0
        for j, iv in enumerate(box):
            step = iv.width / steps
            best = max(
                s.term(j, iv.lo + k * step) for k in range(steps + 1)
            )
            total += best
            tolerance += step * step * abs(s.quadratic[j])
        assert s.box_extremum(box, "max")[0] == pytest.approx(total, abs=tolerance + 1e-12)


def test_surface_json_roundtrip(table):
    for s in table.values():
        assert QuadraticResponseSurface.from_json(json.loads(json.dumps(s.to_json()))) == s


# --- term_extremum against the candidate-list implementation it replaced ----------

def reference_term_extremum(self, j, interval, mode="max"):
    # the earlier body of QuadraticResponseSurface.term_extremum, verbatim but for the
    # vertex, which takes ``extremum``'s formula: -l / (2.0 * q) overflows for |q| >= 2**1023
    candidates = [interval.lo]
    # the stationary point of the term, which a linear term lacks
    q = self.quadratic[j]
    vertex = -self.linear[j] / q / 2.0 if q != 0.0 else None
    if vertex is not None and interval.lo < vertex < interval.hi:
        candidates.append(vertex)
    if interval.hi != interval.lo:
        candidates.append(interval.hi)
    best_x = candidates[0]
    best_v = self.term(j, best_x)
    for x in candidates[1:]:
        v = self.term(j, x)
        if (mode == "max" and v > best_v) or (mode == "min" and v < best_v):
            best_v, best_x = v, x
    return best_v, best_x


def _term_cases():
    """(linear, quadratic, lo, hi) covering degenerate terms, point intervals, vertices on endpoints,
    signed zeros, terms that overflow and subnormal coefficients."""
    rng = random.Random(4242)
    cases = [
        (l, q, lo, hi)
        for l in (0.0, -0.0, 1.5, -2.0)
        for q in (0.0, -0.0, 0.5, -1.0)
        for lo, hi in ((-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (-1.0, 1.0), (0.0, 2.0), (-2.0, -0.0), (1.0, 1.0))
    ]
    for scale in (1e-4, 1e-2, 1.0, 1e3, 1e6):
        for offset in (0.0, 1600.0, 1800.0, 2000.0):
            for _ in range(12):
                lo = offset + rng.uniform(-2.0, 1.0)
                hi = lo + rng.choice((0.0, rng.uniform(0.0, 2.0)))
                l, q = scale * rng.uniform(-2.0, 2.0), scale * rng.uniform(-1.0, 1.0)
                cases.append((l, q, lo, hi))
                cases.append((rng.choice((0.0, l)), rng.choice((0.0, q)), lo, hi))
                # the vertex -l/(2q) on an endpoint, and an endpoint on the vertex as computed
                cases.append((-2.0 * q * lo, q, lo, hi))
                cases.append((-2.0 * q * hi, q, lo, hi))
                if q != 0.0:
                    vertex = -l / q / 2.0
                    cases.append((l, q, vertex, max(vertex, hi)))
                    cases.append((l, q, min(lo, vertex), vertex))
    # q*x*x or l*x overflows to inf, their sum to inf - inf = NaN, 2*q overflows (the
    # vertex at a signed zero) and -l/(2*q) overflows; subnormal l, q, 2*q and terms
    cases += [
        (l, q, lo, hi)
        for l in (0.0, 5e-324, -1e-310, 1.0, 1e300, -1e300, 1.7e308)
        for q in (5e-324, -2.5e-323, 1e-310, -1.0, 1e300, -1e300, 1.7e308, -1.7e308)
        for lo, hi in ((-1e10, 1e10), (-1.0, 1.0), (0.0, 1e155), (-1e200, -1e100), (1e-300, 2e-300), (-5e-324, 5e-324))
    ]
    return cases


def test_term_extremum_matches_candidate_list_implementation():
    for l, q, lo, hi in _term_cases():
        s = QuadraticResponseSurface("z", "", 0.0, (l,), (q,))
        interval = Interval(lo, hi)
        for mode in ("max", "min"):
            value, x = s.term_extremum(0, interval, mode)
            ref_value, ref_x = reference_term_extremum(s, 0, interval, mode)
            assert (value.hex(), x.hex()) == (ref_value.hex(), ref_x.hex()), (l, q, lo, hi, mode)
        with pytest.raises(ValueError, match="mode must be 'max' or 'min', got 'other'"):
            s.term_extremum(0, interval, "other")
        # the solver's call: the shared function with its default sign, the maximum
        value, x = extremum(l, q, lo, hi)
        ref_value, ref_x = reference_term_extremum(s, 0, interval, "max")
        assert (value.hex(), x.hex()) == (ref_value.hex(), ref_x.hex()), (l, q, lo, hi)


def _assert_column_is_extremum(terms, lo, hi):
    """``_TermMax.column`` over [lo, hi] of one factor whose coefficient in constraint i is
    ``terms[i]``, and the rows the table builds from it, are ``extremum``'s maxima by ``float.hex``."""
    pairs = [(QuadraticResponseSurface(f"z{i}", "", 0.0, (l,), (q,)), 0.0) for i, (l, q) in enumerate(terms)]
    table = _TermMax(pairs, [Interval(lo, hi)])
    expected = [extremum(l, q, lo, hi)[0].hex() for l, q in terms]
    assert [c.hex() for c in table.column(0, lo, hi)] == expected, (terms, lo, hi)
    assert [row[0].hex() for row in table.rows] == expected, (terms, lo, hi)


def test_term_max_column_is_extremum_on_the_term_cases():
    # one column per interval, one constraint per term over it
    cases = sorted(_term_cases(), key=lambda case: (case[2], case[3]))
    for (lo, hi), group in itertools.groupby(cases, key=lambda case: (case[2], case[3])):
        _assert_column_is_extremum([(l, q) for l, q, _, _ in group], lo, hi)


# signed zeros, subnormals, the smallest normal, and coefficients whose terms overflow
# to +-inf, and their sums to NaN, over wide intervals
_EDGE_COEFFS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e300, -1e300, 1.7e308, -1.7e308]
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EDGE_ENDS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e10, -1e10, 1e155, -1e155, 1e300, -1e300])


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(
    st.lists(st.tuples(st.one_of(_EDGE_COEFFS, _FINITE), st.one_of(_EDGE_COEFFS, _FINITE)), min_size=1, max_size=6),
    st.one_of(_EDGE_ENDS, _FINITE),
    st.one_of(_EDGE_ENDS, _FINITE),
    st.booleans(),
)
def test_term_max_column_is_extremum(terms, a, b, point):
    lo, hi = (a, a) if point else (min(a, b), max(a, b))
    _assert_column_is_extremum(terms, lo, hi)
