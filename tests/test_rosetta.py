import csv
import io
import json
import os
import random
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import cddkit
from cddkit import designspace, rosetta
from cddkit.designspace import DesignProblem, DesignVariable, ObjectiveConstraint, _TermMax
from cddkit.errors import CapExceeded
from cddkit.orthotope import Orthotope, _slice_verdicts, expand_factor, solve_greedy
from cddkit.rosetta import (
    SVG_CANVAS,
    SVG_MARGIN,
    _CellFrame,
    build_report,
    emit,
    project_orthotope,
    sample_points,
)
from cddkit.surface import Interval, QuadraticResponseSurface

from conftest import load_bundled, problem_document, random_problem, reference_is_box_feasible, replace


def test_q_matrix_is_exact_sensitivities(emissions):
    report = build_report(emissions, resolution=5)
    for i, s in enumerate(emissions.surfaces):
        for j in range(emissions.dim):
            assert report.q_matrix[i][j] == s.sensitivity(j, emissions.seed)
    # at the origin seed the rows are the linear coefficient columns
    assert report.q_matrix[0] == (-1.21, -11.31, -0.07)


def test_q_matrix_matches_finite_differences():
    rng = random.Random(77)
    h = 1e-4
    for _ in range(10):
        problem = random_problem(rng)
        report = build_report(problem, resolution=4)
        for i, s in enumerate(problem.surfaces):
            for j in range(problem.dim):
                xp, xm = list(problem.seed), list(problem.seed)
                xp[j] += h
                xm[j] -= h
                central = (s.evaluate(xp) - s.evaluate(xm)) / (2.0 * h)
                q = report.q_matrix[i][j]
                assert abs(q - central) <= 1e-6 * max(1.0, abs(q))


def test_projection_selects_coordinates():
    cube = Orthotope((Interval(0.0, 1.0), Interval(0.0, 1.0), Interval(0.0, 1.0)))
    assert project_orthotope(cube, 0, 1) == (Interval(0.0, 1.0), Interval(0.0, 1.0))
    box = Orthotope((Interval(0.0, 0.4), Interval(0.2, 0.9), Interval(0.1, 0.3)))
    assert project_orthotope(box, 0, 2) == (Interval(0.0, 0.4), Interval(0.1, 0.3))
    taller = Orthotope((Interval(0.0, 0.4), Interval(0.0, 1.0), Interval(0.1, 0.3)))
    assert project_orthotope(taller, 0, 2) == project_orthotope(box, 0, 2)


def test_projection_index_errors():
    box = Orthotope((Interval(0.0, 1.0), Interval(0.0, 1.0)))
    with pytest.raises(IndexError):
        project_orthotope(box, 0, 2)
    with pytest.raises(ValueError):
        project_orthotope(box, 1, 1)


def test_three_variables_give_three_informative_pairs(emissions):
    report = build_report(emissions, resolution=4)
    assert len(report.n_cells) == 3
    assert len(report.m_cells) == 3


# --- what each cell shows ---------------------------------------------------------

def _boundary_problem():
    # x0 + x1 <= 1 on the unit square: grid points on the diagonal have slack exactly 0,
    # so their estimate cannot decide and the slack is summed
    surface = QuadraticResponseSurface("z", "", 0.0, (1.0, 1.0, 0.5), (0.0, 0.0, 0.0))
    return DesignProblem(
        variables=tuple(DesignVariable(f"x{j}", "", Interval(0.0, 1.0)) for j in range(3)),
        surfaces=(surface,),
        constraints=(ObjectiveConstraint("z", 1.0),),
        seed=(0.0, 0.0, 0.0),
        name="boundary",
    )


def _overflow_problem():
    # partial sums pass the float range, so every estimate is refused and summed
    surface = QuadraticResponseSurface("z", "", 0.0, (1e308, 1e308), (0.0, 0.0))
    return DesignProblem(
        variables=(DesignVariable("x0", "", Interval(0.0, 1.0)), DesignVariable("x1", "", Interval(0.0, 1.0))),
        surfaces=(surface,),
        constraints=(ObjectiveConstraint("z", 1.5e308),),
        seed=(0.0, 0.0),
        name="overflow",
    )


def _report_cases():
    for name in ("emissions.json", "adas.json", "adas_tall.json"):
        yield name.removesuffix(".json"), load_bundled(name)
    rng = random.Random(1313)
    for n in range(4, 9):
        for scale, offset in ((1.0, 0.0), (1e3, 0.0), (1e6, 1800.0)):
            problem = random_problem(rng, dim=n, count=rng.randint(1, 5), scale=scale, offset=offset)
            yield f"n{n}-scale{scale:g}-offset{offset:g}", problem
    yield "boundary", _boundary_problem()
    yield "overflow", _overflow_problem()


_CASES = [pytest.param(p, id=case) for case, p in _report_cases()]
_SOLVED = pytest.mark.parametrize("solved", [False, True], ids=["bare", "solved"])


def _assert_n_cells_equal_is_box_feasible(problem, solution):
    held = solution if solution is not None else Orthotope.point(problem.seed)
    report = build_report(problem, solution, resolution=7)
    region = problem.region()
    axes = region.grid_axes(7)
    pairs = [(j, k) for j in range(problem.dim) for k in range(j + 1, problem.dim)]
    assert len(report.n_cells) == len(pairs)
    for cell, (j, k) in zip(report.n_cells, pairs):
        assert (cell.var_a, cell.var_b) == (problem.variables[j].name, problem.variables[k].name)
        assert (cell.x_a, cell.x_b) == (tuple(axes[j]), tuple(axes[k]))
        expected = [
            reference_is_box_feasible(problem, held.replaced(j, Interval(x, x)).replaced(k, Interval(y, y)).intervals)[0]
            for x in cell.x_a
            for y in cell.x_b
        ]
        assert list(cell.feasible) == expected


@pytest.mark.parametrize("problem", _CASES)
@_SOLVED
def test_n_cell_verdicts_equal_is_box_feasible(problem, solved):
    _assert_n_cells_equal_is_box_feasible(problem, solve_greedy(problem).orthotope if solved else None)


def test_n_cell_verdicts_on_exact_ties():
    # each bound is the left-to-right maximum of the seed box at one grid point of the (x0, x1)
    # slice, so that point's slack is exactly 0 and its estimate may round to either side
    rng = random.Random(5)
    ties = 0
    while ties < 60:
        problem = random_problem(rng, dim=rng.randint(3, 6), count=1, scale=rng.choice((1.0, 1e3)),
                                 offset=rng.choice((0.0, 1800.0)))
        axes = problem.region().grid_axes(7)
        x, y = rng.choice(axes[0]), rng.choice(axes[1])
        box = Orthotope.point(problem.seed).replaced(0, Interval(x, x)).replaced(1, Interval(y, y))
        surface = problem.surfaces[0]
        bound = surface.box_extremum(box.intervals)[0]
        if not bound - surface.evaluate(problem.seed) >= problem.tolerance:
            continue
        ties += 1
        problem = replace(problem, constraints=(ObjectiveConstraint(surface.name, bound),))
        _assert_n_cells_equal_is_box_feasible(problem, None)


def _near_limit_problem():
    # a bound of 1e308 puts every error bound past the overflow limit, though no sum overflows
    surface = QuadraticResponseSurface("z", "", 0.0, (1.0, 2.0, 3.0), (0.0, 0.0, 0.0))
    return DesignProblem(
        variables=tuple(DesignVariable(f"x{j}", "", Interval(0.0, 1.0)) for j in range(3)),
        surfaces=(surface,),
        constraints=(ObjectiveConstraint("z", 1e308),),
        seed=(0.0, 0.0, 0.0),
        name="near-limit",
    )


@pytest.mark.parametrize("make", [_near_limit_problem, _overflow_problem])
def test_n_cells_sum_through_the_table_slack(monkeypatch, make):
    summed = []
    slack, expand = _TermMax.slack, rosetta.expand_factor

    def counted(self, i, j, c):
        summed.append((i, j))
        return slack(self, i, j, c)

    def uncounted(*args):
        # the diagonals' expansion tries are not N cells
        start = len(summed)
        box = expand(*args)
        del summed[start:]
        return box

    monkeypatch.setattr(_TermMax, "slack", counted)
    monkeypatch.setattr(rosetta, "expand_factor", uncounted)
    problem = make()
    report = build_report(problem, resolution=5)
    # one constraint: every point of every cell (x_j, x_k) is summed once, with column k replaced
    pairs = [(j, k) for j in range(problem.dim) for k in range(j + 1, problem.dim)]
    assert summed == [(0, k) for _, k in pairs for _ in range(25)]
    _assert_n_cells_equal_is_box_feasible(problem, None)
    assert any(report.n_cells[0].feasible)


def test_slice_verdicts_in_either_axis_order():
    rng = random.Random(2121)
    for _ in range(5):
        problem = random_problem(rng, dim=4, count=3)
        table = _TermMax(problem.constrained_pairs(), solve_greedy(problem).orthotope.intervals)
        rows = [list(row) for row in table.rows]
        axes = problem.region().grid_axes(9)
        forward = _slice_verdicts(table, 1, 3, axes[1], axes[3])
        backward = _slice_verdicts(table, 3, 1, axes[3], axes[1])
        assert backward == [forward[a * 9 + b] for b in range(9) for a in range(9)]
        assert 0 < sum(forward) < 81
        assert table.rows == rows


def test_boundary_points_are_feasible():
    # the points with x0 + x1 = 1 exactly are feasible, the ones past it are not
    report = build_report(_boundary_problem(), resolution=5)
    cell = report.n_cells[0]
    grid = [(x, y) for x in cell.x_a for y in cell.x_b]
    assert [ok for ok, (x, y) in zip(cell.feasible, grid)] == [x + y <= 1.0 for x, y in grid]
    assert sum(x + y == 1.0 for x, y in grid) == 5


@pytest.mark.parametrize("problem", _CASES)
@_SOLVED
def test_diagonals_are_the_admitted_intervals(problem, solved):
    held = solve_greedy(problem).orthotope if solved else Orthotope.point(problem.seed)
    report = build_report(problem, held if solved else None, resolution=3)
    assert len(report.diagonals) == problem.dim
    for j, (var, diagonal) in enumerate(zip(problem.variables, report.diagonals)):
        assert (diagonal.var, diagonal.ambient, diagonal.held) == (var.name, var.ambient, held.intervals[j])
        assert diagonal.admitted == expand_factor(problem, held, j).intervals[j]
        assert diagonal.admitted.contains_interval(held.intervals[j])


@pytest.mark.parametrize("problem", _CASES)
def test_m_cells_plot_the_sample_points(problem):
    report = build_report(problem, resolution=6)
    points = sample_points(problem, 36)
    region = problem.region()
    assert all(region.check_inside([Interval(x, x) for x in p]) is None for p in points)
    feasible = tuple(region.is_point_feasible(p)[0] for p in points)
    values = {s.name: [s.evaluate(p).hex() for p in points] for s in problem.surfaces}
    bounds = {c.surface: c.bound for c in problem.constraints}
    names = [s.name for s in problem.surfaces]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    assert [(c.obj_a, c.obj_b) for c in report.m_cells] == pairs
    for cell in report.m_cells:
        assert [z.hex() for z in cell.z_a] == values[cell.obj_a]
        assert [z.hex() for z in cell.z_b] == values[cell.obj_b]
        assert cell.feasible == feasible
        assert (cell.bound_a, cell.bound_b) == (bounds.get(cell.obj_a), bounds.get(cell.obj_b))


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_sample_points_match_numpy_reference():
    # x_j = lo_j + frac(t * frac(sqrt(p_j))) * (hi_j - lo_j), at most hi_j, for t = 1, 2, ...
    rng = random.Random(6103)
    for n in (1, 2, 3, 5, 10):
        for scale, offset in ((1.0, 0.0), (1e-3, 0.0), (1.0, 1800.0)):
            problem = random_problem(rng, dim=n, count=1, scale=scale, offset=offset)
            lo = np.array([v.ambient.lo for v in problem.variables])
            hi = np.array([v.ambient.hi for v in problem.variables])
            alpha = np.sqrt(np.array(_PRIMES[:n], dtype=float)) % 1.0
            t = np.arange(1, 101, dtype=float)[:, None]
            reference = np.minimum(hi, lo + t * alpha % 1.0 * (hi - lo))
            got = sample_points(problem, 100)
            assert [[x.hex() for x in p] for p in got] == [[float(x).hex() for x in row] for row in reference]


def test_report_cell_cap(monkeypatch, emissions):
    monkeypatch.setattr(designspace, "GRID_CAP", 100)
    assert len(build_report(emissions, resolution=10).m_cells[0].z_a) == 100
    with pytest.raises(CapExceeded, match="report cell of 121 points exceeds cap 100"):
        build_report(emissions, resolution=11)


def test_no_solution_means_no_rectangles(emissions):
    report = build_report(emissions, resolution=4)
    assert all(cell.rects == () for cell in report.n_cells)


def test_projected_rectangles_are_exact_and_feasible(emissions):
    result = solve_greedy(emissions)
    report = build_report(emissions, result, resolution=5)
    region = emissions.region()
    box = result.orthotope
    pair_index = 0
    for j in range(emissions.dim):
        for k in range(j + 1, emissions.dim):
            (iv_a, iv_b) = report.n_cells[pair_index].rects[0]
            assert (iv_a, iv_b) == (box.intervals[j], box.intervals[k])
            # rectangle corners, completed with the box elsewhere, stay feasible
            for xa in (iv_a.lo, iv_a.hi):
                for xb in (iv_b.lo, iv_b.hi):
                    point = [iv.lo for iv in box.intervals]
                    point[j], point[k] = xa, xb
                    assert region.is_point_feasible(point)[0]
            pair_index += 1


def test_emit_csv_roundtrip_is_byte_identical(emissions, tmp_path):
    result = solve_greedy(emissions)
    report = build_report(emissions, result, resolution=5)
    paths = emit(report, "csv", tmp_path)
    for path in paths:
        original = path.read_text()
        rows = list(csv.reader(io.StringIO(original)))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        assert buf.getvalue() == original


def test_emit_is_deterministic(emissions, tmp_path):
    result = solve_greedy(emissions)
    for fmt in ("csv", "svg"):
        first = emit(build_report(emissions, result, resolution=5), fmt, tmp_path / "a")
        second = emit(build_report(emissions, result, resolution=5), fmt, tmp_path / "b")
        for p1, p2 in zip(first, second):
            assert p1.name == p2.name
            assert p1.read_bytes() == p2.read_bytes()


def test_svg_rectangles_follow_solution(emissions, tmp_path):
    bare = build_report(emissions, resolution=4)
    solved = build_report(emissions, solve_greedy(emissions), resolution=4)
    bare_paths = emit(bare, "svg", tmp_path / "bare")
    solved_paths = emit(solved, "svg", tmp_path / "solved")
    bare_n = next(p for p in bare_paths if p.name.endswith("_N.svg")).read_text()
    solved_n = next(p for p in solved_paths if p.name.endswith("_N.svg")).read_text()
    assert 'fill-opacity="0.45"' not in bare_n
    assert 'fill-opacity="0.45"' in solved_n
    for p in bare_paths + solved_paths:
        text = p.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")


def test_report_on_two_variable_problem():
    rng = random.Random(55)
    problem = random_problem(rng, dim=2)
    report = build_report(problem, resolution=6)
    assert len(report.n_cells) == 1
    assert len(report.diagonals) == 2
    assert report.q_matrix and len(report.q_matrix[0]) == 2


def test_frame_map_matches_numpy_bit_for_bit():
    rng = random.Random(6104)
    for _ in range(200):
        scale = 10.0 ** rng.randint(-6, 6)
        lo = rng.uniform(-2.0, 2.0) * scale
        hi = lo + rng.choice((0.0, rng.uniform(1e-3, 3.0) * scale))
        frame = _CellFrame(rng.randrange(3), rng.randrange(3), 3, (lo, hi), (lo, hi))
        values = [lo + rng.uniform(-0.5, 1.5) * (hi - lo or 1.0) for _ in range(50)] + [0.0, -0.0, lo, hi]
        for got, expected in ((frame.x(values), _ref_x(frame, values)), (frame.y(values), _ref_y(frame, values))):
            assert [v.hex() for v in got] == [float(v).hex() for v in expected]


# --- reference writer ---------------------------------------------------------
#
# The plain formatting rules: every row through ``csv.writer`` with
# ``repr(float(v))`` per value and ``int(f)`` per flag, every SVG coordinate
# mapped onto the canvas with numpy arrays, and each file joined in memory
# and written with ``Path.write_text``.  ``emit`` must write the same bytes.

def _ref_num(v):
    return "" if v is None else repr(float(v))


def _ref_csv(report):
    def text(header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()

    q = text(
        ["objective", *report.variable_names],
        ([name, *(_ref_num(v) for v in row)] for name, row in zip(report.objective_names, report.q_matrix)),
    )
    m = text(
        ["obj_a", "obj_b", "z_a", "z_b", "feasible", "bound_a", "bound_b"],
        (
            [c.obj_a, c.obj_b, _ref_num(za), _ref_num(zb), int(f), _ref_num(c.bound_a), _ref_num(c.bound_b)]
            for c in report.m_cells
            for za, zb, f in zip(c.z_a, c.z_b, c.feasible)
        ),
    )
    n_rows = [
        ["interval", d.var, d.var, *map(_ref_num, (d.admitted.lo, d.admitted.hi, d.held.lo, d.held.hi))]
        for d in report.diagonals
    ]
    for c in report.n_cells:
        for (xa, xb), f in zip(_ref_grid(c), c.feasible):
            n_rows.append(["point", c.var_a, c.var_b, _ref_num(xa), _ref_num(xb), int(f), ""])
        for a, b in c.rects:
            n_rows.append(["rect", c.var_a, c.var_b, _ref_num(a.lo), _ref_num(a.hi), _ref_num(b.lo), _ref_num(b.hi)])
    n = text(["kind", "var_a", "var_b", "c1", "c2", "c3", "c4"], n_rows)
    stem = report.problem_name
    return {f"{stem}_Q.csv": q, f"{stem}_M.csv": m, f"{stem}_N.csv": n}


def _ref_grid(cell):
    """The (x_a, x_b) points of an N cell, row-major, as numpy's ``meshgrid`` orders them."""
    xs, ys = np.meshgrid(np.asarray(cell.x_a), np.asarray(cell.x_b), indexing="ij")
    return list(zip(xs.reshape(-1).tolist(), ys.reshape(-1).tolist()))


def _ref_border(frame):
    return (
        f'<rect x="{frame.x0:.2f}" y="{frame.y0:.2f}" width="{frame.size:.2f}" '
        f'height="{frame.size:.2f}" fill="none" stroke="#999999" stroke-width="1"/>'
    )


def _ref_label(x, y, text, size=13):
    return f'<text x="{x:.2f}" y="{y:.2f}" font-family="monospace" font-size="{size}">{text}</text>'


def _ref_header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_CANVAS:.0f}" '
        f'height="{SVG_CANVAS:.0f}" viewBox="0 0 {SVG_CANVAS:.0f} {SVG_CANVAS:.0f}">',
        f"<title>{title}</title>",
        f'<rect x="0" y="0" width="{SVG_CANVAS:.0f}" height="{SVG_CANVAS:.0f}" fill="#ffffff"/>',
    ]


def _ref_scale(values, lo, hi, pix_lo, pix_hi):
    span = hi - lo
    if span <= 0:
        span = 1.0
    return pix_lo + (np.asarray(values, dtype=float) - lo) / span * (pix_hi - pix_lo)


def _ref_x(frame, values):
    return _ref_scale(values, *frame.x_range, *frame.px)


def _ref_y(frame, values):
    return _ref_scale(values, *frame.y_range, *frame.py)


def _data_range(values):
    lo, hi = float(np.min(values)), float(np.max(values))
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def _ref_dots(frame, xs, ys, mask):
    return [
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5" fill="{"#4477aa" if ok else "#cccccc"}"/>'
        for x, y, ok in zip(_ref_x(frame, xs), _ref_y(frame, ys), mask)
    ]


def _ref_svg(report):
    stem = report.problem_name
    dash = 'stroke="#cc3311" stroke-width="1" stroke-dasharray="4 3"/>'

    names = report.objective_names
    k = len(names)
    cells = {(c.obj_a, c.obj_b): c for c in report.m_cells}
    ranges = {}
    for c in report.m_cells:
        for name, arr, bound in ((c.obj_a, c.z_a, c.bound_a), (c.obj_b, c.z_b, c.bound_b)):
            lo, hi = _data_range(arr)
            if bound is not None:
                lo, hi = min(lo, bound), max(hi, bound)
            if name in ranges:
                lo, hi = min(lo, ranges[name][0]), max(hi, ranges[name][1])
            ranges[name] = (lo, hi)
    m = _ref_header(f"{stem}: objective pairings")
    for row in range(k):
        for col in range(row + 1):
            frame = _CellFrame(row, col, k, ranges.get(names[col], (0, 1)), ranges.get(names[row], (0, 1)))
            if row == col:
                m += [_ref_border(frame), _ref_label(frame.x0 + 8, frame.y0 + frame.size / 2, names[row])]
                continue
            c = cells.get((names[col], names[row]))
            if c is None:
                continue
            m += [_ref_border(frame), *_ref_dots(frame, c.z_a, c.z_b, c.feasible)]
            if c.bound_a is not None:
                x = _ref_x(frame, [c.bound_a])[0]
                m.append(f'<line x1="{x:.2f}" y1="{frame.py[0]:.2f}" x2="{x:.2f}" y2="{frame.py[1]:.2f}" {dash}')
            if c.bound_b is not None:
                y = _ref_y(frame, [c.bound_b])[0]
                m.append(f'<line x1="{frame.px[0]:.2f}" y1="{y:.2f}" x2="{frame.px[1]:.2f}" y2="{y:.2f}" {dash}')

    names = report.variable_names
    n = len(names)
    cells = {(c.var_a, c.var_b): c for c in report.n_cells}
    ranges = {d.var: (d.ambient.lo, d.ambient.hi) for d in report.diagonals}
    nn = _ref_header(f"{stem}: variable pairings")
    for row in range(n):
        for col in range(row + 1):
            frame = _CellFrame(row, col, n, ranges.get(names[col], (0, 1)), ranges.get(names[row], (0, 1)))
            if row == col:
                nn.append(_ref_border(frame))
                d = report.diagonals[row]
                top, bottom = frame.py[1], frame.py[0]
                third = (bottom - top) / 3
                for iv, y0, y1, style in (
                    (d.admitted, top, bottom, 'fill="#88ccee"'),
                    (d.held, top + third, bottom - third, 'fill="#ccbb44" stroke="#997700" stroke-width="1"'),
                ):
                    x0, x1 = _ref_x(frame, [iv.lo, iv.hi])
                    nn.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" height="{y1 - y0:.2f}" {style}/>')
                nn.append(_ref_label(frame.x0 + 8, frame.y0 + 16, names[row]))
                continue
            c = cells.get((names[col], names[row]))
            if c is None:
                continue
            xs, ys = zip(*_ref_grid(c))
            nn += [_ref_border(frame), *_ref_dots(frame, xs, ys, c.feasible)]
            for a, b in c.rects:
                x0, x1 = _ref_x(frame, [a.lo])[0], _ref_x(frame, [a.hi])[0]
                y0, y1 = _ref_y(frame, [b.hi])[0], _ref_y(frame, [b.lo])[0]
                nn.append(
                    f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" height="{y1 - y0:.2f}" '
                    f'fill="#ccbb44" fill-opacity="0.45" stroke="#997700" stroke-width="1"/>'
                )

    rows, cols = len(report.objective_names), len(report.variable_names)
    scale = max(abs(v) for row in report.q_matrix for v in row) or 1.0
    q = _ref_header(f"{stem}: objective-variable sensitivities")
    for r in range(rows):
        for c in range(cols):
            frame = _CellFrame(r, c, max(rows, cols), (-1, 1), (-1, 1))
            slope = report.q_matrix[r][c] / scale
            xs = _ref_x(frame, [-0.8, 0.8])
            ys = _ref_y(frame, [-0.8 * slope, 0.8 * slope])
            q += [
                _ref_border(frame),
                f'<line x1="{xs[0]:.2f}" y1="{ys[0]:.2f}" x2="{xs[1]:.2f}" y2="{ys[1]:.2f}" '
                f'stroke="#4477aa" stroke-width="2"/>',
                _ref_label(frame.x0 + 6, frame.y0 + frame.size - 6, f"{report.q_matrix[r][c]:.6g}", size=12),
            ]
            if r == 0:
                q.append(_ref_label(frame.x0 + 6, SVG_MARGIN - 8, report.variable_names[c]))
            if c == 0:
                q.append(_ref_label(4, frame.y0 + 16, report.objective_names[r], size=11))
    return {
        f"{stem}_{key}.svg": "\n".join(parts + ["</svg>"]) + "\n"
        for key, parts in (("M", m), ("N", nn), ("Q", q))
    }


# names csv.writer must quote: a comma, a double quote, edge spaces, a newline
_QUOTED_VARIABLES = ("speed, rpm", ' torque "Nm"', "egr ")
_QUOTED_SURFACES = ("CO2\nper km", ' "NOx"', "soot, dry ")


def _emit_cases():
    rng = random.Random(2024)
    for n in (1, 2, 3):
        for m in (1, 3):
            for scale, offset in ((1.0, 0.0), (1e6, 0.0), (1.0, 1800.0)):
                problem = random_problem(rng, dim=n, count=m, scale=scale, offset=offset)
                if m == 3:
                    # the last objective is reported but not constrained
                    problem = replace(problem, constraints=problem.constraints[:2])
                yield f"n{n}-m{m}-scale{scale:g}-offset{offset:g}", problem
    base = random_problem(rng, dim=3, count=3)
    variables = tuple(
        DesignVariable(name, v.unit, v.ambient) for name, v in zip(_QUOTED_VARIABLES, base.variables)
    )
    surfaces = tuple(replace(s, name=name) for name, s in zip(_QUOTED_SURFACES, base.surfaces))
    constraints = tuple(
        ObjectiveConstraint(name, c.bound) for name, c in zip(_QUOTED_SURFACES, base.constraints)
    )
    yield "quoted-names", DesignProblem(
        variables=variables, surfaces=surfaces, constraints=constraints, seed=base.seed, name="quoted"
    )


@pytest.mark.parametrize("problem", [pytest.param(p, id=case) for case, p in _emit_cases()])
@pytest.mark.parametrize("solved", [False, True], ids=["bare", "solved"])
def test_emit_bytes_match_reference_writer(problem, solved, tmp_path):
    report = build_report(problem, solve_greedy(problem) if solved else None, resolution=6)
    _assert_emits_reference(report, tmp_path)


def test_emit_keeps_signed_zeros_and_tiny_values_apart(emissions, tmp_path):
    # 0.0 and -0.0 compare equal but print differently, in one array and across cells
    report = build_report(emissions, resolution=4)
    size = len(report.m_cells[0].z_a)
    odd = tuple(np.resize([0.0, -0.0, 5e-324, -5e-324, 0.1, 1e300, 2.0 ** -1074 * 3], size).tolist())
    m_cell = replace(report.m_cells[0], z_a=odd)
    n_cell = replace(report.n_cells[0], x_b=tuple(-x for x in report.n_cells[0].x_b))
    report = replace(
        report, m_cells=(m_cell, *report.m_cells[1:]), n_cells=(n_cell, *report.n_cells[1:])
    )
    _assert_emits_reference(report, tmp_path)


def _assert_emits_reference(report, tmp_path):
    for fmt, reference in (("csv", _ref_csv(report)), ("svg", _ref_svg(report))):
        paths = emit(report, fmt, tmp_path / "emit")
        assert sorted(p.name for p in paths) == sorted(reference)
        for path in paths:
            expected = tmp_path / "ref" / path.name
            expected.parent.mkdir(exist_ok=True)
            expected.write_text(reference[path.name])
            assert path.read_bytes() == expected.read_bytes(), path.name


def test_a_constant_objective_past_2_53_keeps_a_zero_range(emissions, tmp_path):
    # widening 1e20 by 0.5 rounds back to 1e20, so the M matrix scales that axis over a zero span
    constant = QuadraticResponseSurface("w", "", 1e20, (0.0,) * 3, (0.0,) * 3)
    problem = replace(emissions, surfaces=(*emissions.surfaces, constant), name="constant")
    report = build_report(problem, solve_greedy(problem), resolution=5)
    assert {z for cell in report.m_cells if cell.obj_b == "w" for z in cell.z_b} == {1e20}
    _assert_emits_reference(report, tmp_path)


# --- SVG text and unconstrained bounds ------------------------------------------

def test_svg_text_is_xml_escaped(tmp_path):
    base = random_problem(random.Random(8), dim=2, count=2)
    names = ("CO2&more", "NOx<x>")
    problem = DesignProblem(
        variables=(DesignVariable("speed<rpm>", "", base.variables[0].ambient), base.variables[1]),
        surfaces=tuple(replace(s, name=name) for name, s in zip(names, base.surfaces)),
        constraints=tuple(ObjectiveConstraint(name, c.bound) for name, c in zip(names, base.constraints)),
        seed=base.seed,
        name="R&D<x>",
    )
    paths = emit(build_report(problem, solve_greedy(problem), resolution=4), "svg", tmp_path)
    assert len(paths) == 3
    for path in paths:
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert root.find(f"{ns}title").text.startswith("R&D<x>: ")
        labels = {t.text for t in root.iter(f"{ns}text")}
        if path.name.endswith("_M.svg"):
            assert set(names) <= labels
        else:
            assert "speed<rpm>" in labels


def test_infinite_bound_draws_no_line(tmp_path):
    adas = load_bundled("adas.json")
    constraints = tuple(
        replace(c, bound=float("inf")) if c.surface == "CO2" else c for c in adas.constraints
    )
    problem = replace(adas, constraints=constraints, name="infbound")
    report = build_report(problem, solve_greedy(problem), resolution=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = emit(report, "svg", tmp_path)
        emit(report, "csv", tmp_path)
    m_svg = next(p for p in paths if p.name == "infbound_M.svg")
    root = ET.parse(m_svg).getroot()
    values = [v for el in root.iter() for v in el.attrib.values()]
    assert not [v for v in values if "nan" in v or "inf" in v]
    cxs = {el.attrib["cx"] for el in root.iter("{http://www.w3.org/2000/svg}circle")}
    assert len(cxs) > 1
    assert len(list(root.iter("{http://www.w3.org/2000/svg}line"))) == 1  # the CO bound only
    with (tmp_path / "infbound_M.csv").open(newline="") as f:
        rows = list(csv.DictReader(f))
    assert {r["bound_a"] for r in rows if r["obj_a"] == "CO2"} == {"inf"}


# --- cost -----------------------------------------------------------------------

# the children import the same cddkit as this process, from any working directory
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(cddkit.__file__).resolve().parent.parent)}


# A child forked from this test process would count the pages it shares with it
# before its exec, so a small interpreter starts the child and reports its rusage.
_RUSAGE_OF_CHILD = """
import json, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024]))
"""


def _rosetta_child(tmp_path, problem):
    """CPU seconds and peak RSS in MiB of one ``cdd rosetta --solution`` child, from its own rusage."""
    path, solution = tmp_path / f"{problem.name}.json", tmp_path / "solution.json"
    path.write_text(json.dumps(problem_document(problem)))
    solution.write_text(json.dumps(solve_greedy(problem).to_json()))
    argv = [sys.executable, "-m", "cddkit.cli", "rosetta", str(path), "--solution", str(solution),
            "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", _RUSAGE_OF_CHILD, *argv], capture_output=True, text=True, env=CHILD_ENV, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, cpu_s, rss_mib = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return cpu_s, rss_mib


def test_report_at_n10_m5_is_cheap(tmp_path):
    cpu_s, rss_mib = _rosetta_child(tmp_path, random_problem(random.Random(10), dim=10, count=5))
    assert cpu_s < 1.0
    assert rss_mib < 50.0


def test_report_at_n20_m10_runs(tmp_path):
    _rosetta_child(tmp_path, random_problem(random.Random(20), dim=20, count=10))


# what `cdd rosetta --solution` wrote for emissions, adas and adas_tall when it drew the r^N lattice
LATTICE_REPORT_BYTES = 5_622_997 + 102_616 + 102_619


def test_bundled_reports_are_a_tenth_of_the_lattice_reports(tmp_path):
    written = 0
    for name in ("emissions", "adas", "adas_tall"):
        problem = load_bundled(f"{name}.json")
        report = build_report(problem, solve_greedy(problem))
        written += sum(p.stat().st_size for fmt in ("csv", "svg") for p in emit(report, fmt, tmp_path / name))
    assert written <= LATTICE_REPORT_BYTES / 10
