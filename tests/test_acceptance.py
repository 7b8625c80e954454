"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from cddkit import data_path, load_problem
from cddkit.cli import main as cli_main
from cddkit.modeltheory import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Not,
    Or,
    RelationalStructure,
    Signature,
    Var,
    check_theory,
    enumerate_models,
    holds,
    load_structure,
    load_theory,
    parse_sentence,
    satisfies,
)
from cddkit.orthotope import oracle_check_steps, solve_greedy, verify_maximality
from cddkit.rosetta import build_report, emit
from cddkit.surface import Interval, QuadraticResponseSurface

from conftest import load_bundled, random_problem, random_surface


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_surface_table_fidelity():
    docs = json.loads(data_path("emissions_tableI.json").read_text())
    surfaces = {s.name: s for s in map(QuadraticResponseSurface.from_json, docs)}
    origin = (0.0, 0.0, 0.0)
    # warm-up so the timed section measures arithmetic, not attribute caches
    for s in surfaces.values():
        s.evaluate(origin)
        s.sensitivity(0, origin)

    start = time.perf_counter()
    values = tuple(surfaces[k].evaluate(origin) for k in ("CO2", "NOx", "Soot"))
    gradients = {
        k: tuple(surfaces[k].sensitivity(j, origin) for j in range(3)) for k in ("CO2", "NOx", "Soot")
    }
    elapsed = time.perf_counter() - start

    assert values == (5.97, -4.01, 1.22)
    assert gradients["CO2"] == (-1.21, -11.31, -0.07)
    assert gradients["NOx"] == (6.53, 2.89, -0.24)
    assert gradients["Soot"] == (-0.34, -0.42, -0.02)
    assert elapsed < 1e-3
    report(1, f"constants and origin gradients exact, {elapsed * 1e6:.0f} us")


def test_table_i_is_the_emissions_problem_surfaces():
    # the paper's Table I ships beside the bundled problem built from it
    table = json.loads(data_path("emissions_tableI.json").read_text())
    assert json.loads(data_path("emissions.json").read_text())["surfaces"] == table


def test_criterion_2_gradients_match_finite_differences():
    rng = random.Random(20_240_801)
    h = 1e-4
    start = time.perf_counter()
    for _ in range(1000):
        s = random_surface(rng, rng.randint(1, 4))
        x = [rng.uniform(-10.0, 10.0) for _ in range(s.dim)]
        j = rng.randrange(s.dim)
        analytic = s.sensitivity(j, x)
        xp, xm = list(x), list(x)
        xp[j] += h
        xm[j] -= h
        central = (s.evaluate(xp) - s.evaluate(xm)) / (2.0 * h)
        assert abs(analytic - central) <= 1e-6 * max(1.0, abs(analytic))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"1000 random gradient checks within 1e-6 relative, {elapsed:.2f} s")


def test_criterion_3_exact_box_extremum():
    rng = random.Random(20_240_802)
    npr = np.random.default_rng(20_240_802)
    grid_points = 10_000
    start = time.perf_counter()
    for _ in range(500):
        dim = rng.randint(1, 4)
        s = random_surface(rng, dim)
        box = []
        for _ in range(dim):
            lo = rng.uniform(-5.0, 5.0)
            box.append(Interval(lo, lo + rng.uniform(0.1, 4.0)))

        box_max = s.box_extremum(box, "max")[0]
        box_min = s.box_extremum(box, "min")[0]

        # 10^4 random interior points, zero tolerance, accumulated in the
        # same per-coordinate order as evaluate()
        samples = np.column_stack(
            [npr.uniform(iv.lo, iv.hi, size=10_000) for iv in box]
        )
        z = np.full(len(samples), s.beta0)
        for j in range(dim):
            x = samples[:, j]
            z += s.linear[j] * x + s.quadratic[j] * x * x
        assert float(z.max()) <= box_max
        assert float(z.min()) >= box_min

        # per-coordinate 1-D grid oracle
        total = s.beta0
        tolerance = 0.0
        for j, iv in enumerate(box):
            grid = np.linspace(iv.lo, iv.hi, grid_points + 1)
            total += float((s.linear[j] * grid + s.quadratic[j] * grid * grid).max())
            step = iv.width / grid_points
            tolerance += step * step * abs(s.quadratic[j])
        assert abs(box_max - total) <= tolerance + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"500 boxes: sampling dominated exactly, grid oracle matched, {elapsed:.2f} s")


def test_criterion_4_greedy_solver_on_randomized_problems():
    rng = random.Random(20_240_803)
    start = time.perf_counter()
    for _ in range(200):
        problem = random_problem(rng)
        assert problem.tolerance == 1e-6
        result = solve_greedy(problem)
        region = problem.region()

        feasible, _ = region.is_box_feasible(result.orthotope.intervals)
        assert feasible

        certificate = verify_maximality(problem, result.orthotope)
        assert certificate.maximal

        checks = oracle_check_steps(problem, result, 201)
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"200 randomized solves feasible, maximal, grid-confirmed, {elapsed:.1f} s")


def test_criterion_5_adas_case_study():
    balanced_problem = load_bundled("adas.json")
    tall_problem = load_bundled("adas_tall.json")
    assert [v.ambient.lo for v in balanced_problem.variables] == [1600.0, 100.0]
    assert [v.ambient.hi for v in balanced_problem.variables] == [2000.0, 240.0]
    assert [c.bound for c in balanced_problem.constraints] == [30.0, 100.0]

    balanced = solve_greedy(balanced_problem)
    tall = solve_greedy(tall_problem)
    assert balanced.certificate.maximal
    assert tall.certificate.maximal
    assert balanced.orthotope != tall.orthotope

    speed_span = 400.0
    torque_span = 140.0

    def widths(box):
        speed, torque = box.intervals
        return speed.width, torque.width

    tall_speed, tall_torque = widths(tall.orthotope)
    bal_speed, bal_torque = widths(balanced.orthotope)

    # tall-narrow regime: torque width at least twice the speed width,
    # in raw units and in ambient-normalized units
    assert tall_torque >= 2.0 * tall_speed
    assert tall_torque / torque_span >= 2.0 * (tall_speed / speed_span)
    # balanced regime stays within the factor-two band
    assert bal_torque < 2.0 * bal_speed
    assert bal_torque / torque_span < 2.0 * (bal_speed / speed_span)

    report(
        5,
        "two certified-maximal rectangles: "
        f"tall {tall_speed:.1f}x{tall_torque:.1f}, balanced {bal_speed:.1f}x{bal_torque:.1f}",
    )


def test_criterion_6_emissions_case_study(tmp_path, capsys):
    problem_file = str(data_path("emissions.json"))
    out = tmp_path / "solve"
    assert cli_main(["solve", problem_file, "--out", str(out)]) == 0
    result_file = out / "emissions_solution.json"
    assert cli_main(["verify", problem_file, str(result_file)]) == 0
    capsys.readouterr()

    problem = load_bundled("emissions.json")
    report_obj = build_report(problem, resolution=21)
    for i, s in enumerate(problem.surfaces):
        for j in range(problem.dim):
            expected = s.linear[j] + 2.0 * s.quadratic[j] * problem.seed[j]
            assert report_obj.q_matrix[i][j] == expected

    result = solve_greedy(problem)
    for fmt in ("csv", "svg"):
        first = emit(build_report(problem, result, resolution=21), fmt, tmp_path / "r1")
        second = emit(build_report(problem, result, resolution=21), fmt, tmp_path / "r2")
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes()

    report(6, "solve+verify exit 0, sensitivity grid exact, reports byte-identical")


def _random_closed_formula(rng, sig, depth):
    variables = ["v1", "v2"]

    def open_formula(d):
        if d == 0 or rng.random() < 0.35:
            if rng.random() < 0.7:
                name, arity = rng.choice(sig.predicates)
                return Atom(name, tuple(Var(rng.choice(variables)) for _ in range(arity)))
            return Eq(Var(rng.choice(variables)), Var(rng.choice(variables)))
        kind = rng.choice(["not", "and", "or", "forall", "exists"])
        if kind == "not":
            return Not(open_formula(d - 1))
        if kind in ("forall", "exists"):
            cls = Forall if kind == "forall" else Exists
            return cls(rng.choice(variables), open_formula(d - 1))
        cls = And if kind == "and" else Or
        return cls(open_formula(d - 1), open_formula(d - 1))

    body = open_formula(depth)
    return Exists("v1", Exists("v2", body))


def test_criterion_7_model_theory_kernel():
    start = time.perf_counter()

    sig, s345 = load_structure(data_path("logic/triangle_345.json").read_text())
    theory = load_theory(data_path("logic/orthogonality_theory.json").read_text(), signature=sig)
    _, s234 = load_structure(data_path("logic/triangle_234.json").read_text())
    assert all(check_theory(theory, s345))
    assert not any(check_theory(theory, s234))

    # exhaustive agreement between enumeration and per-structure satisfaction
    for sig_spec, sentence_texts in (
        ((("P", 1),), ["exists v. P(v)", "forall v. P(v)"]),
        ((("R", 2),), ["forall v. R(v,v)", "exists v. forall w. R(v,w)"]),
    ):
        sig = Signature(predicates=sig_spec)
        name, arity = sig_spec[0]
        args = ", ".join(["v"] * arity)
        tautology = parse_sentence(f"forall v. {name}({args}) or not {name}({args})", sig)
        for size in (1, 2, 3):
            universe = enumerate_models(sig, tautology, size)
            assert len(universe) == 2 ** (size**arity)
            for text in sentence_texts:
                sentence = parse_sentence(text, sig)
                assert enumerate_models(sig, sentence, size) == [
                    s for s in universe if satisfies(s, sentence)
                ]

    # compositional semantics on 1000 random closed formulas
    rng = random.Random(20_240_807)
    sig = Signature(predicates=(("P", 1), ("R", 2)))
    for _ in range(1000):
        size = rng.randint(1, 4)
        domain = tuple(f"e{i}" for i in range(size))
        relations = {}
        for name, arity in sig.predicates:
            tuples = list(itertools.product(domain, repeat=arity))
            relations[name] = frozenset(t for t in tuples if rng.random() < 0.5)
        struct = RelationalStructure(domain=domain, relations=relations)
        f = _random_closed_formula(rng, sig, rng.randint(0, 3))

        assert satisfies(struct, Not(f)) == (not satisfies(struct, f))
        g = _random_closed_formula(rng, sig, 1)
        assert satisfies(struct, And(f, g)) == (satisfies(struct, f) and satisfies(struct, g))
        assert satisfies(struct, Or(f, g)) == (satisfies(struct, f) or satisfies(struct, g))

        body = f.body  # strip the outer exists v1
        assert satisfies(struct, f) == any(
            holds(struct, body, assignment={"v1": e}) for e in domain
        )
        assert satisfies(struct, Forall("v1", body)) == all(
            holds(struct, body, assignment={"v1": e}) for e in domain
        )

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"orthogonality verdicts, exhaustive enumeration, 1000 formulas, {elapsed:.1f} s")
