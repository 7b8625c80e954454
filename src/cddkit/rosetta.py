"""ROSETTA matrix reports: objective pairings (M), variable pairings (N),
and the objective-by-variable sensitivity grid (Q), emitted as CSV or SVG.

Scatter payloads come from deterministic lattice sampling of the
surfaces rather than measured experiment data, so reruns are
byte-identical.  Solution orthotopes overlay the N cells as their exact
two-dimensional projections.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path

from .designspace import DesignProblem
from .orthotope import Orthotope, SolveResult
from .surface import Interval

__all__ = ["RosettaReport", "build_report", "project_orthotope", "emit"]

DEFAULT_RESOLUTION = 21

SVG_CANVAS = 900.0
SVG_MARGIN = 40.0
SVG_CELL_PAD = 0.08


@dataclass(frozen=True)
class MCell:
    """One objective pairing: sampled (z_a, z_b) dots plus constraint lines."""

    obj_a: str
    obj_b: str
    z_a: tuple[float, ...]
    z_b: tuple[float, ...]
    feasible: tuple[bool, ...]
    bound_a: float | None
    bound_b: float | None


@dataclass(frozen=True)
class NCell:
    """One variable pairing: lattice dots with feasibility plus projected boxes."""

    var_a: str
    var_b: str
    x_a: tuple[float, ...]
    x_b: tuple[float, ...]
    feasible: tuple[bool, ...]
    rects: tuple[tuple[Interval, Interval], ...]


@dataclass(frozen=True)
class AxisSummary:
    """Feasible-value histogram of one variable, shown on N diagonal cells."""

    var: str
    edges: tuple[float, ...]
    feasible_counts: tuple[int, ...]
    total_counts: tuple[int, ...]


@dataclass(frozen=True)
class RosettaReport:
    problem_name: str
    objective_names: tuple[str, ...]
    variable_names: tuple[str, ...]
    q_matrix: tuple[tuple[float, ...], ...]
    m_cells: tuple[MCell, ...]
    n_cells: tuple[NCell, ...]
    summaries: tuple[AxisSummary, ...]
    design_point: tuple[float, ...]
    resolution: int


def project_orthotope(box: Orthotope, j: int, k: int) -> tuple[Interval, Interval]:
    """Exact projection of an orthotope onto the (j, k) coordinate plane."""
    if j == k:
        raise ValueError("projection needs two distinct coordinates")
    n = box.dim
    if not (0 <= j < n and 0 <= k < n):
        raise IndexError(f"projection indices ({j}, {k}) out of range for dimension {n}")
    return box.intervals[j], box.intervals[k]


def build_report(
    problem: DesignProblem,
    solution: SolveResult | Orthotope | None = None,
    resolution: int = DEFAULT_RESOLUTION,
) -> RosettaReport:
    """Assemble the three matrices from a problem and an optional solution.

    Q holds the analytic sensitivities at the seed.  M and N sample the
    inclusive ambient lattice at the given per-axis resolution, row-major.
    """
    region = problem.region()
    axes = region.grid_axes(resolution)
    # first, since grid_values is where the lattice size meets the grid cap
    lattice, mask = region.grid_values(axes)
    values = {name: tuple(z) for name, z in lattice.items()}
    feasible = tuple(mask)
    n = problem.dim
    size = math.prod(len(a) for a in axes)
    # flat index i sits at entry (i // inner[j]) % len(axes[j]) of axis j
    inner = [math.prod(len(a) for a in axes[j + 1:]) for j in range(n)]

    coords = [
        tuple(x for x in axis for _ in range(inner[j])) * (size // (inner[j] * len(axis)))
        for j, axis in enumerate(axes)
    ]

    bounds = {c.surface: c.bound for c in problem.constraints}

    q_matrix = tuple(
        tuple(s.sensitivity(j, problem.seed) for j in range(n)) for s in problem.surfaces
    )

    m_cells = []
    names = [s.name for s in problem.surfaces]
    for i in range(len(names)):
        for k in range(i + 1, len(names)):
            m_cells.append(
                MCell(
                    obj_a=names[i],
                    obj_b=names[k],
                    z_a=values[names[i]],
                    z_b=values[names[k]],
                    feasible=feasible,
                    bound_a=bounds.get(names[i]),
                    bound_b=bounds.get(names[k]),
                )
            )

    box = solution.orthotope if isinstance(solution, SolveResult) else solution
    n_cells = []
    for j in range(n):
        for k in range(j + 1, n):
            rects = ()
            if box is not None:
                rects = (project_orthotope(box, j, k),)
            n_cells.append(
                NCell(
                    var_a=problem.variables[j].name,
                    var_b=problem.variables[k].name,
                    x_a=coords[j],
                    x_b=coords[k],
                    feasible=feasible,
                    rects=rects,
                )
            )

    summaries = []
    for j, axis in enumerate(axes):
        counts = [0] * len(axis)
        for i in compress(range(size), feasible):
            counts[i // inner[j] % len(axis)] += 1
        summaries.append(
            AxisSummary(
                var=problem.variables[j].name,
                edges=tuple(axis),
                feasible_counts=tuple(counts),
                total_counts=(size // len(axis),) * len(axis),
            )
        )

    return RosettaReport(
        problem_name=problem.name,
        objective_names=tuple(names),
        variable_names=tuple(v.name for v in problem.variables),
        q_matrix=q_matrix,
        m_cells=tuple(m_cells),
        n_cells=tuple(n_cells),
        summaries=tuple(summaries),
        design_point=problem.seed,
        resolution=resolution,
    )


# --- CSV ---------------------------------------------------------------------
#
# Files are streamed to their open file, never assembled in memory first.
# A lattice array is formatted once per emit call (M cells share each
# surface's values, N cells each coordinate array, every cell the mask), and
# within an array that repeats its values, once per distinct float;
# ``format(v, "")`` is ``repr(v)``.  A float repr or a 0/1 flag never needs
# CSV quoting, so only the name and bound fields go through ``csv.writer``,
# once per cell.

def _num(v) -> str:
    return "" if v is None else repr(float(v))


def _csv_writer(out):
    return csv.writer(out, lineterminator="\n")


def _csv_fields(*fields) -> str:
    """``fields`` as ``csv.writer`` quotes them in a row, without the line end."""
    buf = io.StringIO()
    # the writer quotes line-terminator characters, so keep the file's one
    _csv_writer(buf).writerow(fields)
    return buf.getvalue()[:-1]


def _texts(values, spec: str = "") -> list[str]:
    """``format(v, spec)`` for each float; a repeated value is formatted once.

    Zeros are formatted one by one: ``-0.0 == 0.0``, but the two print
    apart.  An empty ``spec`` gives ``repr``.
    """
    distinct = set(values)
    if 2 * len(distinct) > len(values):  # mostly distinct: a lookup would cost more than it saves
        return list(map(format, values, repeat(spec)))
    texts = dict(zip(distinct, map(format, distinct, repeat(spec))))
    return [texts[v] if v else format(v, spec) for v in values]


def _per_array(convert):
    """``convert(array)``, computed once per distinct array object."""
    done = {}

    def get(array):
        key = id(array)
        if key not in done:
            done[key] = (array, convert(array))  # the array pins its id
        return done[key][1]

    return get


def _emit_csv(report: RosettaReport, out_dir: Path) -> list[Path]:
    stem = report.problem_name
    floats = _per_array(_texts)
    flags = _per_array(lambda a: list(map(int, a)))

    q_path = out_dir / f"{stem}_Q.csv"
    with q_path.open("w") as out:
        writer = _csv_writer(out)
        writer.writerow(["objective", *report.variable_names])
        writer.writerows(
            [name, *map(_num, row)] for name, row in zip(report.objective_names, report.q_matrix)
        )

    m_path = out_dir / f"{stem}_M.csv"
    with m_path.open("w") as out:
        _csv_writer(out).writerow(["obj_a", "obj_b", "z_a", "z_b", "feasible", "bound_a", "bound_b"])
        for cell in report.m_cells:
            names = _csv_fields(cell.obj_a, cell.obj_b)
            bounds = _csv_fields(_num(cell.bound_a), _num(cell.bound_b))
            out.writelines(
                f"{names},{za},{zb},{f},{bounds}\n"
                for za, zb, f in zip(floats(cell.z_a), floats(cell.z_b), flags(cell.feasible))
            )

    n_path = out_dir / f"{stem}_N.csv"
    with n_path.open("w") as out:
        writer = _csv_writer(out)
        writer.writerow(["kind", "var_a", "var_b", "c1", "c2", "c3", "c4"])
        for cell in report.n_cells:
            names = _csv_fields("point", cell.var_a, cell.var_b)
            out.writelines(
                f"{names},{xa},{xb},{f},\n"
                for xa, xb, f in zip(floats(cell.x_a), floats(cell.x_b), flags(cell.feasible))
            )
            writer.writerows(
                ["rect", cell.var_a, cell.var_b, _num(iv_a.lo), _num(iv_a.hi), _num(iv_b.lo), _num(iv_b.hi)]
                for iv_a, iv_b in cell.rects
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


def _pixel_texts(scale, values) -> list[str]:
    """``.2f`` texts of ``scale(values)``; a repeated value is scaled and formatted once.

    Unlike ``_texts``, zeros need no care: every pixel offset is at least
    ``SVG_MARGIN``, so ``scale`` maps 0.0 and -0.0 to the same pixel.
    """
    distinct = list(set(values))
    if 2 * len(distinct) > len(values):  # mostly distinct: a lookup would cost more than it saves
        return list(map(format, scale(values), repeat(".2f")))
    texts = dict(zip(distinct, map(format, scale(distinct), repeat(".2f"))))
    return [texts[v] for v in values]


def _svg_dots(out, frame: _CellFrame, xs, ys, mask, color_true="#4477aa", color_false="#cccccc") -> None:
    out.writelines(
        f'<circle cx="{x}" cy="{y}" r="1.5" fill="{color_true if ok else color_false}"/>\n'
        for x, y, ok in zip(_pixel_texts(frame.x, xs), _pixel_texts(frame.y, ys), mask)
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


def _emit_svg_m(report: RosettaReport, out_dir: Path) -> Path:
    names = report.objective_names
    k = len(names)
    cells = {(c.obj_a, c.obj_b): c for c in report.m_cells}
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

    path = out_dir / f"{report.problem_name}_M.svg"
    with path.open("w") as out:
        out.write(_svg_header(f"{report.problem_name}: objective pairings"))
        for row in range(k):
            for col in range(k):
                frame = _CellFrame(row, col, k, ranges.get(names[col], (0, 1)), ranges.get(names[row], (0, 1)))
                if row == col:
                    out.write(frame.border())
                    out.write(_svg_label(frame.x0 + 8, frame.y0 + frame.size / 2, names[row]))
                    continue
                if row < col:
                    continue
                cell = cells.get((names[col], names[row]))
                if cell is None:
                    continue
                out.write(frame.border())
                _svg_dots(out, frame, cell.z_a, cell.z_b, cell.feasible)
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
        out.write("</svg>\n")
    return path


def _emit_svg_n(report: RosettaReport, out_dir: Path) -> Path:
    names = report.variable_names
    n = len(names)
    cells = {(c.var_a, c.var_b): c for c in report.n_cells}
    ranges = {}
    for cell in report.n_cells:
        ranges.setdefault(cell.var_a, _data_range(cell.x_a))
        ranges.setdefault(cell.var_b, _data_range(cell.x_b))
    for summary in report.summaries:
        ranges.setdefault(summary.var, _data_range(summary.edges))

    path = out_dir / f"{report.problem_name}_N.svg"
    with path.open("w") as out:
        out.write(_svg_header(f"{report.problem_name}: variable pairings"))
        for row in range(n):
            for col in range(n):
                frame = _CellFrame(row, col, n, ranges.get(names[col], (0, 1)), ranges.get(names[row], (0, 1)))
                if row == col:
                    out.write(frame.border())
                    summary = report.summaries[row]
                    total = max(summary.total_counts) or 1
                    width = (frame.px[1] - frame.px[0]) / max(1, len(summary.edges))
                    for i, edge in enumerate(summary.edges):
                        h = (frame.py[0] - frame.py[1]) * summary.feasible_counts[i] / total
                        x = frame.x([edge])[0] - width / 2
                        out.write(
                            f'<rect x="{x:.2f}" y="{frame.py[0] - h:.2f}" width="{width:.2f}" '
                            f'height="{h:.2f}" fill="#88ccee"/>\n'
                        )
                    out.write(_svg_label(frame.x0 + 8, frame.y0 + 16, names[row]))
                    continue
                if row < col:
                    continue
                cell = cells.get((names[col], names[row]))
                if cell is None:
                    continue
                out.write(frame.border())
                _svg_dots(out, frame, cell.x_a, cell.x_b, cell.feasible)
                for iv_a, iv_b in cell.rects:
                    x0 = frame.x([iv_a.lo])[0]
                    x1 = frame.x([iv_a.hi])[0]
                    y0 = frame.y([iv_b.hi])[0]
                    y1 = frame.y([iv_b.lo])[0]
                    out.write(
                        f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" height="{y1 - y0:.2f}" '
                        f'fill="#ccbb44" fill-opacity="0.45" stroke="#997700" stroke-width="1"/>\n'
                    )
        out.write("</svg>\n")
    return path


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
