"""ROSETTA matrix reports: objective pairings (M), variable pairings (N),
and the objective-by-variable sensitivity grid (Q), emitted as CSV or SVG.

Every cell shows one stated quantity at no more than r² points, for a
resolution r, so a report costs time polynomial in the number of
variables N.  The *held box* is the solution box, or the seed point
when there is no solution.

- N cell (j, k): an r×r grid on (x_j, x_k) over their ambient
  intervals.  A point is feasible when the held box is, with x_j and
  x_k fixed at the point and every other coordinate over its held
  interval: ``is_box_feasible`` of that box, decided by the held box's
  term-max table.  The held box itself is drawn as a rectangle.
- N diagonal j: the interval of x_j that ``expand_factor`` admits with
  every other interval of the held box in place.
- M cell (a, b): (z_a, z_b) at the first r² points of a Kronecker
  sequence over the ambient box (``sample_points``), each z equal to
  ``evaluate`` and each point coloured by ``is_point_feasible`` of its z.
- Q: the analytic sensitivities at the seed.

Nothing is random, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import product
from pathlib import Path

from . import designspace
from ._frozen import Frozen
from .designspace import DesignProblem, _TermMax
from .errors import CapExceeded
from .orthotope import Orthotope, SolveResult, _slice_verdicts, expand_factor
from .surface import Interval

__all__ = ["RosettaReport", "build_report", "project_orthotope", "sample_points", "emit"]

DEFAULT_RESOLUTION = 21

SVG_CANVAS = 900.0
SVG_MARGIN = 40.0
SVG_CELL_PAD = 0.08


class MCell(Frozen):
    """One objective pairing: (z_a, z_b) at the sample points, their feasibility, the bounds."""

    __slots__ = ("obj_a", "obj_b", "z_a", "z_b", "feasible", "bound_a", "bound_b")


class NCell(Frozen):
    """One variable pairing: an r×r grid, its verdicts and the held box's projection.

    ``x_a`` and ``x_b`` are the grid's r values on each axis, and
    ``feasible`` holds the verdict of each point of their product,
    row-major (x_a slowest).
    """

    __slots__ = ("var_a", "var_b", "x_a", "x_b", "feasible", "rects")


class Diagonal(Frozen):
    """One N diagonal cell: a variable's ambient, held and admitted intervals."""

    __slots__ = ("var", "ambient", "held", "admitted")


class RosettaReport(Frozen):
    __slots__ = (
        "problem_name",
        "objective_names",
        "variable_names",
        "q_matrix",
        "m_cells",
        "n_cells",
        "diagonals",
        "design_point",
        "resolution",
    )


def project_orthotope(box: Orthotope, j: int, k: int) -> tuple[Interval, Interval]:
    """Exact projection of an orthotope onto the (j, k) coordinate plane."""
    if j == k:
        raise ValueError("projection needs two distinct coordinates")
    n = box.dim
    if not (0 <= j < n and 0 <= k < n):
        raise IndexError(f"projection indices ({j}, {k}) out of range for dimension {n}")
    return box.intervals[j], box.intervals[k]


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    p = 2
    while len(primes) < count:
        if all(p % q for q in primes if q * q <= p):
            primes.append(p)
        p += 1
    return primes


def sample_points(problem: DesignProblem, count: int) -> list[tuple[float, ...]]:
    """The first ``count`` points of a Kronecker sequence over the ambient box.

    Point t = 1, 2, ... has ``x_j = lo_j + frac(t * a_j) * (hi_j - lo_j)``,
    at most ``hi_j``, where ``a_j = frac(sqrt(p_j))`` and p_j is the
    (j+1)-th prime.  Every step is a correctly rounded float operation,
    so the points are the same on every platform.
    """
    steps = [math.sqrt(p) % 1.0 for p in _primes(problem.dim)]
    ambients = [v.ambient for v in problem.variables]
    return [
        tuple(min(iv.hi, iv.lo + t * a % 1.0 * iv.width) for iv, a in zip(ambients, steps))
        for t in range(1, count + 1)
    ]


def build_report(
    problem: DesignProblem,
    solution: SolveResult | Orthotope | None = None,
    resolution: int = DEFAULT_RESOLUTION,
) -> RosettaReport:
    """Assemble the three matrices from a problem and an optional solution.

    ``resolution`` is r, the points per axis of an N cell; every cell has
    at most r² points, which ``designspace.GRID_CAP`` bounds.  A solution
    box must lie in the ambient box and contain the seed.
    """
    count = resolution * resolution
    if count > designspace.GRID_CAP:
        raise CapExceeded(f"report cell of {count} points exceeds cap {designspace.GRID_CAP}")
    region = problem.region()
    axes = region.grid_axes(resolution)
    n = problem.dim
    box = solution.orthotope if isinstance(solution, SolveResult) else solution
    if box is None:
        # the seed point box needs no ambient check: ``DesignProblem`` has checked the seed
        table = _TermMax.at_seed(problem)
    else:
        region.check_inside(box.intervals)
        table = _TermMax(problem.constrained_pairs(), box.intervals)
    held = Orthotope(table.intervals)

    q_matrix = tuple(
        tuple(s.sensitivity(j, problem.seed) for j in range(n)) for s in problem.surfaces
    )

    points = sample_points(problem, count)
    values = {s.name: tuple(s.evaluate(p) for p in points) for s in problem.surfaces}
    # is_point_feasible of each point: its slacks, and it lies in the ambient box
    feasible = [True] * count
    for c in problem.constraints:
        feasible = [ok and c.bound - z >= 0.0 for ok, z in zip(feasible, values[c.surface])]
    feasible = tuple(feasible)
    bounds = {c.surface: c.bound for c in problem.constraints}
    names = [s.name for s in problem.surfaces]
    m_cells = tuple(
        MCell(names[a], names[b], values[names[a]], values[names[b]], feasible,
              bounds.get(names[a]), bounds.get(names[b]))
        for a in range(len(names))
        for b in range(a + 1, len(names))
    )

    n_cells = []
    for j in range(n):
        for k in range(j + 1, n):
            xs, ys = axes[j], axes[k]
            n_cells.append(
                NCell(
                    var_a=problem.variables[j].name,
                    var_b=problem.variables[k].name,
                    x_a=tuple(xs),
                    x_b=tuple(ys),
                    feasible=tuple(_slice_verdicts(table, j, k, xs, ys)),
                    rects=() if box is None else (project_orthotope(box, j, k),),
                )
            )

    diagonals = tuple(
        Diagonal(var.name, var.ambient, held.intervals[j], expand_factor(problem, held, j).intervals[j])
        for j, var in enumerate(problem.variables)
    )

    return RosettaReport(
        problem_name=problem.name,
        objective_names=tuple(names),
        variable_names=tuple(v.name for v in problem.variables),
        q_matrix=q_matrix,
        m_cells=m_cells,
        n_cells=tuple(n_cells),
        diagonals=diagonals,
        design_point=problem.seed,
        resolution=resolution,
    )


# --- CSV ---------------------------------------------------------------------
#
# Each file is streamed to its open file.  A float ``repr`` or a 0/1 flag
# never needs CSV quoting, so only names and bounds go through
# ``csv.writer``, once per cell.

def _num(v) -> str:
    return "" if v is None else repr(float(v))


def _csv_fields(*fields) -> str:
    """``fields`` as ``csv.writer`` quotes them in a row, without the line end."""
    buf = io.StringIO()
    # the writer quotes line-terminator characters, so keep the file's one
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def _emit_csv(report: RosettaReport, out_dir: Path) -> list[Path]:
    stem = report.problem_name

    q_path = out_dir / f"{stem}_Q.csv"
    with q_path.open("w") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["objective", *report.variable_names])
        writer.writerows(
            [name, *map(_num, row)] for name, row in zip(report.objective_names, report.q_matrix)
        )

    m_path = out_dir / f"{stem}_M.csv"
    with m_path.open("w") as out:
        out.write("obj_a,obj_b,z_a,z_b,feasible,bound_a,bound_b\n")
        for c in report.m_cells:
            names = _csv_fields(c.obj_a, c.obj_b)
            bounds = _csv_fields(_num(c.bound_a), _num(c.bound_b))
            out.writelines(
                f"{names},{za!r},{zb!r},{f:d},{bounds}\n" for za, zb, f in zip(c.z_a, c.z_b, c.feasible)
            )

    n_path = out_dir / f"{stem}_N.csv"
    with n_path.open("w") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["kind", "var_a", "var_b", "c1", "c2", "c3", "c4"])
        writer.writerows(
            ["interval", d.var, d.var, *map(_num, (d.admitted.lo, d.admitted.hi, d.held.lo, d.held.hi))]
            for d in report.diagonals
        )
        for c in report.n_cells:
            names = _csv_fields("point", c.var_a, c.var_b)
            grid = product(map(repr, c.x_a), list(map(repr, c.x_b)))
            out.writelines(f"{names},{xa},{xb},{f:d},\n" for (xa, xb), f in zip(grid, c.feasible))
            writer.writerows(
                ["rect", c.var_a, c.var_b, *map(_num, (a.lo, a.hi, b.lo, b.hi))] for a, b in c.rects
            )
    return [q_path, m_path, n_path]


# --- SVG ---------------------------------------------------------------------

def _scale(values, lo, hi, pix_lo, pix_hi) -> list[float]:
    span = hi - lo
    if span <= 0:
        span = 1.0
    gain = pix_hi - pix_lo
    return [pix_lo + (v - lo) / span * gain for v in values]


class _CellFrame:
    """Maps data coordinates of one matrix cell onto canvas pixels."""

    def __init__(self, row, col, grid_size, x_range, y_range):
        size = (SVG_CANVAS - 2 * SVG_MARGIN) / grid_size
        self.x0 = SVG_MARGIN + col * size
        self.y0 = SVG_MARGIN + row * size
        self.size = size
        pad = size * SVG_CELL_PAD
        self.px = (self.x0 + pad, self.x0 + size - pad)
        # SVG y grows downward; data y grows upward
        self.py = (self.y0 + size - pad, self.y0 + pad)
        self.x_range = x_range
        self.y_range = y_range

    def x(self, values):
        return _scale(values, self.x_range[0], self.x_range[1], *self.px)

    def y(self, values):
        return _scale(values, self.y_range[0], self.y_range[1], *self.py)

    def border(self) -> str:
        return (
            f'<rect x="{self.x0:.2f}" y="{self.y0:.2f}" width="{self.size:.2f}" '
            f'height="{self.size:.2f}" fill="none" stroke="#999999" stroke-width="1"/>\n'
        )


def _xml_text(text: str) -> str:
    # xml.sax.saxutils.escape, whose import pulls in urllib.request (about 26 ms)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_header(title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_CANVAS:.0f}" '
        f'height="{SVG_CANVAS:.0f}" viewBox="0 0 {SVG_CANVAS:.0f} {SVG_CANVAS:.0f}">\n'
        f'<title>{_xml_text(title)}</title>\n'
        f'<rect x="0" y="0" width="{SVG_CANVAS:.0f}" height="{SVG_CANVAS:.0f}" fill="#ffffff"/>\n'
    )


def _pixels(values) -> list[str]:
    return [f"{v:.2f}" for v in values]


def _svg_dots(out, xy, mask) -> None:
    """One dot per (x, y) pair of pixel texts, coloured by its flag."""
    out.writelines(
        f'<circle cx="{x}" cy="{y}" r="1.5" fill="{"#4477aa" if ok else "#cccccc"}"/>\n'
        for (x, y), ok in zip(xy, mask)
    )


def _svg_label(x: float, y: float, text: str, size: int = 13) -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-family="monospace" font-size="{size}">'
        f'{_xml_text(text)}</text>\n'
    )


def _data_range(values) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def _drawn(bound: float | None) -> bool:
    """Whether a bound gets a line: not when absent or infinite (unconstrained)."""
    return bound is not None and math.isfinite(bound)


def _emit_pairings(path: Path, title: str, names, ranges, cells, diagonal, pairing) -> Path:
    """The lower triangle of a matrix over ``names``: ``diagonal(out, frame, row)`` draws
    each diagonal cell, and ``pairing(out, frame, cell)`` the cell held under (column, row) name."""
    k = len(names)
    with path.open("w") as out:
        out.write(_svg_header(title))
        for row in range(k):
            for col in range(row + 1):
                cell = cells.get((names[col], names[row]))
                if row != col and cell is None:
                    continue
                frame = _CellFrame(row, col, k, ranges.get(names[col], (0, 1)), ranges.get(names[row], (0, 1)))
                out.write(frame.border())
                if row == col:
                    diagonal(out, frame, row)
                else:
                    pairing(out, frame, cell)
        out.write("</svg>\n")
    return path


def _emit_svg_m(report: RosettaReport, out_dir: Path) -> Path:
    names = report.objective_names
    ranges = {}
    for cell in report.m_cells:
        for name, arr, bound in ((cell.obj_a, cell.z_a, cell.bound_a), (cell.obj_b, cell.z_b, cell.bound_b)):
            lo, hi = _data_range(arr)
            if _drawn(bound):
                lo, hi = min(lo, bound), max(hi, bound)
            if name in ranges:
                lo = min(lo, ranges[name][0])
                hi = max(hi, ranges[name][1])
            ranges[name] = (lo, hi)

    def draw_diagonal(out, frame, row):
        out.write(_svg_label(frame.x0 + 8, frame.y0 + frame.size / 2, names[row]))

    def draw_pairing(out, frame, cell):
        _svg_dots(out, zip(_pixels(frame.x(cell.z_a)), _pixels(frame.y(cell.z_b))), cell.feasible)
        if _drawn(cell.bound_a):
            x = frame.x([cell.bound_a])[0]
            out.write(
                f'<line x1="{x:.2f}" y1="{frame.py[0]:.2f}" x2="{x:.2f}" y2="{frame.py[1]:.2f}" '
                f'stroke="#cc3311" stroke-width="1" stroke-dasharray="4 3"/>\n'
            )
        if _drawn(cell.bound_b):
            y = frame.y([cell.bound_b])[0]
            out.write(
                f'<line x1="{frame.px[0]:.2f}" y1="{y:.2f}" x2="{frame.px[1]:.2f}" y2="{y:.2f}" '
                f'stroke="#cc3311" stroke-width="1" stroke-dasharray="4 3"/>\n'
            )

    return _emit_pairings(
        out_dir / f"{report.problem_name}_M.svg", f"{report.problem_name}: objective pairings", names, ranges,
        {(c.obj_a, c.obj_b): c for c in report.m_cells}, draw_diagonal, draw_pairing,
    )


def _emit_svg_n(report: RosettaReport, out_dir: Path) -> Path:
    names = report.variable_names

    def draw_diagonal(out, frame, row):
        # the admitted interval as a bar, the held one as a band across its middle third
        diagonal = report.diagonals[row]
        top, bottom = frame.py[1], frame.py[0]
        third = (bottom - top) / 3
        out.write(_interval_bar(frame, diagonal.admitted, top, bottom, 'fill="#88ccee"'))
        out.write(
            _interval_bar(frame, diagonal.held, top + third, bottom - third,
                          'fill="#ccbb44" stroke="#997700" stroke-width="1"')
        )
        out.write(_svg_label(frame.x0 + 8, frame.y0 + 16, names[row]))

    def draw_pairing(out, frame, cell):
        _svg_dots(out, product(_pixels(frame.x(cell.x_a)), _pixels(frame.y(cell.x_b))), cell.feasible)
        for iv_a, iv_b in cell.rects:
            top, bottom = frame.y([iv_b.hi, iv_b.lo])
            out.write(_interval_bar(frame, iv_a, top, bottom,
                                    'fill="#ccbb44" fill-opacity="0.45" stroke="#997700" stroke-width="1"'))

    return _emit_pairings(
        out_dir / f"{report.problem_name}_N.svg", f"{report.problem_name}: variable pairings", names,
        {d.var: (d.ambient.lo, d.ambient.hi) for d in report.diagonals},
        {(c.var_a, c.var_b): c for c in report.n_cells}, draw_diagonal, draw_pairing,
    )


def _interval_bar(frame: _CellFrame, iv: Interval, top: float, bottom: float, style: str) -> str:
    x0, x1 = frame.x([iv.lo, iv.hi])
    return f'<rect x="{x0:.2f}" y="{top:.2f}" width="{x1 - x0:.2f}" height="{bottom - top:.2f}" {style}/>\n'


def _emit_svg_q(report: RosettaReport, out_dir: Path) -> Path:
    rows = len(report.objective_names)
    cols = len(report.variable_names)
    grid = max(rows, cols)
    flat = [v for row in report.q_matrix for v in row]
    scale = max((abs(v) for v in flat), default=0.0) or 1.0
    path = out_dir / f"{report.problem_name}_Q.svg"
    with path.open("w") as out:
        out.write(_svg_header(f"{report.problem_name}: objective-variable sensitivities"))
        for r in range(rows):
            for c in range(cols):
                frame = _CellFrame(r, c, grid, (-1, 1), (-1, 1))
                out.write(frame.border())
                slope = report.q_matrix[r][c] / scale
                xs = frame.x([-0.8, 0.8])
                ys = frame.y([-0.8 * slope, 0.8 * slope])
                out.write(
                    f'<line x1="{xs[0]:.2f}" y1="{ys[0]:.2f}" x2="{xs[1]:.2f}" y2="{ys[1]:.2f}" '
                    f'stroke="#4477aa" stroke-width="2"/>\n'
                )
                out.write(
                    _svg_label(frame.x0 + 6, frame.y0 + frame.size - 6, f"{report.q_matrix[r][c]:.6g}", size=12)
                )
                if r == 0:
                    out.write(_svg_label(frame.x0 + 6, SVG_MARGIN - 8, report.variable_names[c]))
                if c == 0:
                    out.write(_svg_label(4, frame.y0 + 16, report.objective_names[r], size=11))
        out.write("</svg>\n")
    return path


def emit(report: RosettaReport, format: str, path) -> list[Path]:
    """Write report files under a directory; returns the written paths.

    ``format`` is "csv" or "svg".  Output is byte-deterministic for a
    fixed report: no timestamps, fixed float formatting, stable order.
    """
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    if format == "csv":
        return _emit_csv(report, out_dir)
    if format == "svg":
        return [
            _emit_svg_m(report, out_dir),
            _emit_svg_n(report, out_dir),
            _emit_svg_q(report, out_dir),
        ]
    raise ValueError(f"unknown report format {format!r}")
