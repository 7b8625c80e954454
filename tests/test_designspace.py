import itertools
import json
import math
import random
from functools import reduce
from operator import add

import numpy as np
import pytest

from cddkit import build_report, data_path, designspace, load_problem, quantify_requirement
from cddkit.designspace import DesignProblem, DesignVariable, ObjectiveConstraint, _TermMax
from cddkit.errors import (
    BoxOutsideAmbient,
    CapExceeded,
    DimensionMismatch,
    InfeasibleSeed,
    SchemaError,
    UnknownSurfaceReference,
    UnsupportedRelation,
)
from cddkit.surface import Interval, QuadraticResponseSurface

from conftest import MALFORMED_JSON, random_problem


def test_bundled_adas_loads(adas):
    assert [v.ambient.lo for v in adas.variables] == [1600.0, 100.0]
    assert [v.ambient.hi for v in adas.variables] == [2000.0, 240.0]
    assert [c.bound for c in adas.constraints] == [30.0, 100.0]


def test_bundled_emissions_loads(emissions):
    assert emissions.dim == 3
    assert [s.name for s in emissions.surfaces] == ["CO2", "NOx", "Soot"]
    assert emissions.seed == (0.0, 0.0, 0.0)


def test_infeasible_seed_rejected(emissions):
    doc = json.loads(data_path("emissions.json").read_text())
    doc["seed"] = [1.0, 0.84, 0.0]  # violates the NOx bound
    with pytest.raises(InfeasibleSeed):
        load_problem(doc)


@pytest.mark.parametrize(
    "bound, message",
    [
        # a slack of at least 0 but under the tolerance is too small, not a violation
        (0.5000005, "seed slack 5e-07 on z <= 0.5000005 is below the tolerance 1e-06"),
        (0.5, "seed slack 0 on z <= 0.5 is below the tolerance 1e-06"),
        (0.4999999, "seed violates z <= 0.4999999 (slack -1e-07)"),
        (float("-inf"), "seed violates z <= -inf (slack -inf)"),
    ],
)
def test_seed_check_says_whether_the_slack_is_small_or_violated(bound, message):
    variable = DesignVariable("x", "", Interval(0.0, 1.0))
    surface = QuadraticResponseSurface("z", "", 0.0, (1.0,), (0.0,))
    with pytest.raises(InfeasibleSeed) as info:
        DesignProblem((variable,), (surface,), (ObjectiveConstraint("z", bound),), (0.5,), tolerance=1e-6)
    assert str(info.value) == message


def test_seed_outside_ambient_rejected():
    doc = json.loads(data_path("adas.json").read_text())
    doc["seed"] = [1500.0, 142.0]
    with pytest.raises(InfeasibleSeed):
        load_problem(doc)


def test_schema_violations():
    doc = json.loads(data_path("adas.json").read_text())
    bad = dict(doc)
    del bad["seed"]
    with pytest.raises(SchemaError):
        load_problem(bad)
    bad = dict(doc)
    bad["extra"] = 1
    with pytest.raises(SchemaError):
        load_problem(bad)
    bad = json.loads(data_path("adas.json").read_text())
    bad["constraints"][0]["op"] = ">="
    with pytest.raises(SchemaError):
        load_problem(bad)
    bad = json.loads(data_path("adas.json").read_text())
    bad["ranking"] = [0, 0]
    with pytest.raises(SchemaError):
        load_problem(bad)


@pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
def test_load_problem_refuses_malformed_text(text):
    with pytest.raises(SchemaError, match="^problem document: "):
        load_problem(text)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["variables"][0].update(hi=doc["variables"][0]["lo"]),
        lambda doc: doc["variables"][1].update(lo="low"),
        lambda doc: doc.update(ranking=[0, 1.5]),
        lambda doc: doc.update(ranking=[0, "1"]),
        lambda doc: doc["constraints"][0].update(bound="high"),
        lambda doc: doc.update(tolerance=[1e-6]),
    ],
    ids=["lo-equals-hi", "non-numeric-lo", "float-ranking", "string-ranking", "non-numeric-bound",
         "list-tolerance"],
)
def test_malformed_entries_raise_schema_error(edit):
    doc = json.loads(data_path("adas.json").read_text())
    edit(doc)
    with pytest.raises(SchemaError):
        load_problem(doc)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.7976931348623157e308, 1e300)])
def test_ambient_width_that_overflows_is_refused(lo, hi):
    # hi - lo rounds to inf: every grid step, face push and margin would be inf or NaN
    with pytest.raises(ValueError, match="^variable 'x' has ambient bounds .* whose width overflows$"):
        DesignVariable("x", "", Interval(lo, hi))
    doc = {
        "name": "wide",
        "variables": [{"name": "x", "lo": lo, "hi": hi}],
        "surfaces": [{"name": "z", "beta0": 0.0, "linear": [1.0], "quadratic": [0.0]}],
        "constraints": [{"surface": "z", "bound": 1.0}],
        "seed": [0.0],
    }
    with pytest.raises(SchemaError, match="^malformed variable entry: .* whose width overflows$"):
        load_problem(doc)


def test_largest_finite_ambient_width_is_accepted():
    assert DesignVariable("x", "", Interval(-8.9e307, 8.9e307)).ambient.width == 1.78e308


def test_unknown_surface_reference():
    doc = json.loads(data_path("adas.json").read_text())
    doc["constraints"][0]["surface"] = "HC"
    with pytest.raises(UnknownSurfaceReference):
        load_problem(doc)


def test_a_second_constraint_on_a_surface_is_refused():
    # CO2 <= 6 and CO2 <= 11 on emissions: slack 0.03 at the seed binds, and the
    # 11 bound, with slack 5.03, would have hidden it
    doc = json.loads(data_path("emissions.json").read_text())
    doc["constraints"].append({"surface": "CO2", "op": "<=", "bound": 11.0})
    with pytest.raises(SchemaError, match="^surface 'CO2' has more than one constraint$"):
        load_problem(doc)
    problem = load_problem(data_path("emissions.json").read_text())
    for twin in (problem.constraints[0], ObjectiveConstraint("CO2", 11.0)):
        with pytest.raises(SchemaError, match="^surface 'CO2' has more than one constraint$"):
            DesignProblem(problem.variables, problem.surfaces, (*problem.constraints, twin), problem.seed)
    # one bound per surface, in any order, is a problem
    DesignProblem(problem.variables, problem.surfaces, problem.constraints[::-1], problem.seed)


def test_repeated_variable_names_are_refused():
    # the report looks up each variable's range and cells by its name
    doc = json.loads(data_path("emissions.json").read_text())
    doc["variables"][2]["name"] = doc["variables"][0]["name"]
    with pytest.raises(SchemaError, match="^variable names must be unique$"):
        load_problem(doc)
    # the dimension checks come first, so their faults keep their messages
    doc["seed"].pop()
    with pytest.raises(DimensionMismatch, match="^seed has 2 coordinates for 3 variables$"):
        load_problem(doc)
    doc = json.loads(data_path("emissions.json").read_text())
    doc["variables"][1]["name"] = doc["variables"][0]["name"]
    doc["surfaces"][1]["name"] = doc["surfaces"][0]["name"]
    with pytest.raises(SchemaError, match="^variable names must be unique$"):
        load_problem(doc)


def test_quantify_requirement(adas):
    c = quantify_requirement("CO2 <= 30", adas)
    assert (c.surface, c.bound) == ("CO2", 30.0)
    c = quantify_requirement("CO <= 100", adas)
    assert (c.surface, c.bound) == ("CO", 100.0)


def test_quantify_rejects_other_relations(adas):
    with pytest.raises(UnsupportedRelation):
        quantify_requirement("CO2 >= 5", adas)
    with pytest.raises(UnsupportedRelation):
        quantify_requirement("CO2 < 5", adas)
    with pytest.raises(UnknownSurfaceReference):
        quantify_requirement("NOx <= 5", adas)


def test_quantify_print_roundtrip(emissions):
    for c in emissions.constraints:
        assert quantify_requirement(str(c), emissions) == c


def test_point_slacks_at_origin(emissions):
    feasible, slacks = emissions.region().is_point_feasible((0.0, 0.0, 0.0))
    assert feasible
    assert slacks[0] == pytest.approx(6.0 - 5.97, abs=1e-12)
    assert slacks[1] == pytest.approx(4.01, abs=1e-12)
    assert slacks[2] == pytest.approx(1.228 - 1.22, abs=1e-12)


def test_point_outside_ambient_is_infeasible(emissions):
    feasible, slacks = emissions.region().is_point_feasible((-0.1, 0.0, 0.0))
    assert not feasible
    # slacks are reported regardless of the ambient clamp
    assert len(slacks) == 3


def test_negative_slack_point(emissions):
    feasible, slacks = emissions.region().is_point_feasible((1.0, 0.84, 0.0))
    assert not feasible
    assert min(slacks) < 0


def test_point_box_matches_point_feasibility(emissions):
    region = emissions.region()
    box = [Interval(x, x) for x in emissions.seed]
    ok, slacks = region.is_box_feasible(box)
    assert ok
    _, point_slacks = region.is_point_feasible(emissions.seed)
    assert slacks == pytest.approx(point_slacks, abs=1e-12)


# rows of terms whose sum depends on the order of addition: left to right the first is 1.0,
# right to left 0.0 and compensated 2.0
ORDERED_ROWS = ((1e16, 1.0, -1e16, 1.0), (-1e16, 1.0, 1e16, -1.0), (1.0, 1e-16, 1e-16, -1.0))


def ordered_problem(rows, bound, tolerance=1e-6):
    """Each row as the terms of one surface at x = (1, 1, 1, 1): linear coefficients, no quadratic ones."""
    return DesignProblem(
        variables=tuple(DesignVariable(f"x{k}", "", Interval(0.0, 2.0)) for k in range(4)),
        surfaces=tuple(QuadraticResponseSurface(f"z{i}", "", 0.0, row, (0.0,) * 4) for i, row in enumerate(rows)),
        constraints=tuple(ObjectiveConstraint(f"z{i}", bound) for i in range(len(rows))),
        seed=(1.0,) * 4,
        tolerance=tolerance,
    )


def test_every_verdict_adds_left_to_right():
    problem = ordered_problem(ORDERED_ROWS, 10.0)
    region = problem.region()
    point = (1.0,) * 4
    box = [Interval(1.0, 1.0)] * 4
    expected = [(10.0 - reduce(add, row, 0.0)).hex() for row in ORDERED_ROWS]
    assert expected[0] == (9.0).hex()
    assert list(map(float.hex, region.is_box_feasible(box)[1])) == expected
    assert list(map(float.hex, region.is_point_feasible(point)[1])) == expected
    assert list(map(float.hex, _TermMax(problem.constrained_pairs(), box).slacks())) == expected
    # the seed check reads the same slack: 1.5 - 1.0 is below the tolerance 1.0 (right to
    # left it would be 1.5), and 2.0 - 1.0 meets it (compensated it would be 0.0)
    with pytest.raises(InfeasibleSeed, match="below the tolerance"):
        ordered_problem(ORDERED_ROWS[:1], 1.5, tolerance=1.0)
    ordered_problem(ORDERED_ROWS[:1], 2.0, tolerance=1.0)


def test_box_verdict_sees_a_vertex_past_an_overflowing_two_q():
    # z = 1e308*x - 0.9e308*x**2 <= 2e307 on [0, 1]: the exact maximum is 2.78e307, at x = 5/9;
    # 2.0 * q overflows to -inf there, which once put the vertex at x = 0.0 and passed the box
    problem = DesignProblem(
        variables=(DesignVariable("x", "", Interval(0.0, 1.0)),),
        surfaces=(QuadraticResponseSurface("z", "", 0.0, (1e308,), (-0.9e308,)),),
        constraints=(ObjectiveConstraint("z", 2e307),),
        seed=(0.0,),
    )
    region = problem.region()
    assert not region.is_point_feasible((0.5555,))[0]
    feasible, (slack,) = region.is_box_feasible((Interval(0.0, 1.0),))
    assert not feasible and slack < -7e306


def test_full_ambient_box_infeasible(emissions):
    region = emissions.region()
    ok, slacks = region.is_box_feasible(tuple(v.ambient for v in emissions.variables))
    assert not ok
    assert min(slacks) < 0


def test_sub_box_of_feasible_box_is_feasible(emissions):
    region = emissions.region()
    box = [Interval(0.0, 0.4), Interval(0.0, 0.8), Interval(0.0, 0.3)]
    ok, _ = region.is_box_feasible(box)
    assert ok
    sub = [Interval(0.1, 0.3), Interval(0.2, 0.6), Interval(0.0, 0.2)]
    ok, _ = region.is_box_feasible(sub)
    assert ok


def test_box_outside_ambient_raises(emissions):
    with pytest.raises(BoxOutsideAmbient):
        emissions.region().is_box_feasible(
            [Interval(0.0, 1.2), Interval(0.0, 1.0), Interval(0.0, 1.0)]
        )


def test_feasible_box_contains_only_feasible_lattice_points():
    rng = random.Random(23)
    for _ in range(25):
        problem = random_problem(rng)
        region = problem.region()
        box = []
        for iv, x in zip((v.ambient for v in problem.variables), problem.seed):
            span = min(x - iv.lo, iv.hi - x) * rng.uniform(0.0, 0.9)
            box.append(Interval(x - span, x + span))
        ok, _ = region.is_box_feasible(box)
        if not ok:
            # the attaining point of a violated surface's exact box maximum is a witness
            for s, bound in problem.constrained_pairs():
                worst, witness = s.box_extremum(box, "max")
                if worst > bound:
                    break
            assert not region.is_point_feasible(witness)[0]
            continue
        for _ in range(50):
            point = [rng.uniform(iv.lo, iv.hi) for iv in box]
            assert region.is_point_feasible(point)[0]


def test_grid_cap(monkeypatch, emissions):
    # the cap bounds each grid axis, and each report cell's r² points
    assert designspace.GRID_CAP == 10_000_000
    with pytest.raises(CapExceeded, match="^axis of 10000001 points exceeds cap 10000000$"):
        emissions.region().grid_axes(10_000_001)
    with pytest.raises(CapExceeded, match="^report cell of 10004569 points exceeds cap 10000000$"):
        build_report(emissions, resolution=3163)
    monkeypatch.setattr(designspace, "GRID_CAP", 10)
    assert len(emissions.region().grid_axes(10)[0]) == 10
    with pytest.raises(CapExceeded, match="^axis of 11 points exceeds cap 10$"):
        emissions.region().grid_axes(11)
    with pytest.raises(CapExceeded, match="^report cell of 16 points exceeds cap 10$"):
        build_report(emissions, resolution=4)


def test_membership_invariant_under_variable_reordering(emissions):
    doc = json.loads(data_path("emissions.json").read_text())
    order = [2, 0, 1]
    doc["variables"] = [doc["variables"][i] for i in order]
    for s in doc["surfaces"]:
        s["linear"] = [s["linear"][i] for i in order]
        s["quadratic"] = [s["quadratic"][i] for i in order]
    doc["seed"] = [doc["seed"][i] for i in order]
    permuted = load_problem(doc)

    rng = random.Random(37)
    region = emissions.region()
    permuted_region = permuted.region()
    for _ in range(100):
        point = [rng.uniform(0.0, 1.0) for _ in range(3)]
        reordered = [point[i] for i in order]
        assert region.is_point_feasible(point)[0] == permuted_region.is_point_feasible(reordered)[0]


def _random_subinterval(rng: random.Random, ambient: Interval) -> Interval:
    """A random sub-interval, sometimes on an ambient bound or a single point."""
    a, b = sorted(rng.uniform(ambient.lo, ambient.hi) for _ in range(2))
    kind = rng.random()
    if kind < 0.15:
        a = ambient.lo
    elif kind < 0.3:
        b = ambient.hi
    elif kind < 0.4:
        a, b = ambient.lo, ambient.hi
    elif kind < 0.5:
        b = a
    return Interval(a, b)


def test_box_feasible_implies_every_corner_feasible():
    # the grid oracle accepts a box on its exact maximum alone; this is the
    # proof obligation that makes a corner check redundant, on bounds set at
    # or one ulp around each box maximum
    rng = random.Random(20131)
    exercised = 0
    for case in range(1500):
        n = rng.randint(1, 6)
        scale = 10.0 ** rng.randint(-4, 6)
        offset = rng.uniform(1600.0, 2000.0) if case % 2 else 0.0
        base = random_problem(rng, n, rng.randint(1, 4), scale, offset)
        surfaces = tuple(
            QuadraticResponseSurface(
                s.name,
                "",
                s.beta0,
                tuple(0.0 if rng.random() < 0.1 else v for v in s.linear),
                tuple(0.0 if rng.random() < 0.2 else v for v in s.quadratic),
            )
            for s in base.surfaces
        )
        box = tuple(_random_subinterval(rng, v.ambient) for v in base.variables)
        constraints = []
        for s in surfaces:
            worst = s.box_extremum(box)[0]
            bound = rng.choice(
                (worst, math.nextafter(worst, math.inf), math.nextafter(worst, -math.inf))
            )
            constraints.append(ObjectiveConstraint(s.name, bound))
        seed = tuple(rng.uniform(iv.lo, iv.hi) for iv in box)
        try:
            problem = DesignProblem(
                base.variables, surfaces, tuple(constraints), seed, tolerance=5e-324
            )
        except InfeasibleSeed:
            continue
        region = problem.region()
        if not region.is_box_feasible(box)[0]:
            continue
        exercised += 1
        for corner in itertools.product(*box):
            assert region.is_point_feasible(corner)[0], (box, corner)
    assert exercised >= 500


# --- numpy as the reference implementation of the lattice ----------------------
#
# The lattice is plain Python; numpy is only the yardstick here.  Values are
# compared by ``float.hex``, so a signed zero or a one-ulp difference shows.

def _hex(values):
    return [float(v).hex() for v in values]


def test_grid_axes_match_numpy_linspace():
    rng = random.Random(6100)
    cases = 0
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-6, 6)
        offset = rng.choice((0.0, rng.uniform(-1600.0, 1600.0)))
        lo = offset + scale * rng.uniform(-2.0, 1.0)
        hi = lo + scale * rng.uniform(1e-3, 3.0)
        if not lo < hi:
            continue
        r = rng.choice((2, 3, rng.randint(2, 201)))
        variable = DesignVariable("x", "", Interval(lo, hi))
        problem = DesignProblem((variable,), (), (), (lo,), name="axis")
        (axis,) = problem.region().grid_axes(r)
        assert _hex(axis) == _hex(np.linspace(lo, hi, r)), (lo, hi, r)
        cases += 1
    assert cases >= 1900
