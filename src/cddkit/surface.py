"""Pure-quadratic response surfaces.

A surface maps an N-dimensional design point to one objective value:

    z = beta0 + sum_j (linear[j] * x[j] + quadratic[j] * x[j] ** 2)

There are no cross terms, so the surface is separable per coordinate.
Separability is what makes extrema over axis-aligned boxes exact: each
coordinate term is extremized independently over its interval and the
results are summed.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from ._frozen import Frozen
from .errors import DimensionMismatch, reading

__all__ = ["Interval", "QuadraticResponseSurface", "extremum"]


def extremum(l: float, q: float, lo: float, hi: float, sign: float = 1.0) -> tuple[float, float]:
    """Exact extremum of the term ``l*x + q*x*x`` over [lo, hi], and where it is attained.

    ``sign`` 1.0 gives the maximum and -1.0 the minimum.  Candidates are
    the two endpoints plus the vertex when it falls strictly inside.  Ties
    prefer the lower coordinate.  ``term_extremum`` and ``box_extremum``
    call it; no verdict does.  The term-max table, which decides every box,
    computes the same maximum inline, bit for bit
    (``designspace._TermMax.column``), since the call costs about a third
    of a cell.  Returns (value, x).
    """
    best_v, best_x = l * lo + q * lo * lo, lo
    if q != 0.0:
        # not -l / (2.0 * q): 2.0 * q overflows for |q| >= 2**1023 and puts the vertex at a zero
        x = -l / q / 2.0
        if lo < x < hi:
            v = l * x + q * x * x
            if sign * v > sign * best_v:
                best_v, best_x = v, x
    if hi != lo:
        v = l * hi + q * hi * hi
        if sign * v > sign * best_v:
            best_v, best_x = v, hi
    return best_v, best_x


def _sign(mode: str) -> float:
    """The mode "max" or "min" as ``extremum``'s sign: -v > -w is exactly v < w."""
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    return 1.0 if mode == "max" else -1.0


class Interval(Frozen):
    """Closed interval [lo, hi]; lo == hi is allowed and means a point."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"interval lower bound {lo} exceeds upper bound {hi}")
        set_lo, set_hi = self._setters
        set_lo(self, lo)
        set_hi(self, hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __iter__(self) -> Iterator[float]:
        yield self.lo
        yield self.hi


class QuadraticResponseSurface(Frozen):
    """One design objective as a pure-quadratic function of the design point."""

    __slots__ = ("name", "unit", "beta0", "linear", "quadratic")

    def __init__(
        self, name: str, unit: str, beta0: float, linear: tuple[float, ...], quadratic: tuple[float, ...]
    ):
        linear = tuple(float(v) for v in linear)
        quadratic = tuple(float(v) for v in quadratic)
        if len(linear) != len(quadratic):
            raise DimensionMismatch(
                f"surface {name!r}: {len(linear)} linear vs {len(quadratic)} quadratic coefficients"
            )
        if not all(math.isfinite(v) for v in (beta0, *linear, *quadratic)):
            raise ValueError(f"surface {name!r} has non-finite coefficients")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "quadratic", quadratic)

    @property
    def dim(self) -> int:
        return len(self.linear)

    def _check_dim(self, n: int) -> None:
        if n != self.dim:
            raise DimensionMismatch(f"surface {self.name!r} expects {self.dim} coordinates, got {n}")

    def term(self, j: int, x: float) -> float:
        """Value of the coordinate-j contribution linear[j]*x + quadratic[j]*x**2."""
        return self.linear[j] * x + self.quadratic[j] * x * x

    def term_extremum(self, j: int, interval: Interval, mode: str = "max") -> tuple[float, float]:
        """Exact extremum of the coordinate-j term over an interval: ``extremum`` of its coefficients.

        ``mode`` is "max" or "min".  Returns (value, x).
        """
        return extremum(self.linear[j], self.quadratic[j], interval.lo, interval.hi, _sign(mode))

    def evaluate(self, point: Sequence[float]) -> float:
        self._check_dim(len(point))
        acc = self.beta0
        for j, x in enumerate(point):
            acc += self.term(j, x)
        return acc

    def sensitivity(self, j: int, point: Sequence[float]) -> float:
        """Slope of this objective along coordinate j at a design point."""
        self._check_dim(len(point))
        if not 0 <= j < self.dim:
            raise IndexError(f"coordinate index {j} out of range for dimension {self.dim}")
        return self.linear[j] + 2.0 * self.quadratic[j] * point[j]

    def box_extremum(self, box: Sequence[Interval], mode: str = "max") -> tuple[float, tuple[float, ...]]:
        """Exact extremum over an axis-aligned box, with an attaining point.

        Exactness follows from separability; no sampling is involved.
        """
        sign = _sign(mode)
        self._check_dim(len(box))
        total = self.beta0
        point = []
        for l, q, interval in zip(self.linear, self.quadratic, box):
            value, x = extremum(l, q, interval.lo, interval.hi, sign)
            total += value
            point.append(x)
        return total, tuple(point)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "beta0": self.beta0,
            "linear": list(self.linear),
            "quadratic": list(self.quadratic),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "QuadraticResponseSurface":
        with reading("surface document"):
            return cls(
                name=str(doc["name"]),
                unit=str(doc.get("unit", "")),
                beta0=float(doc["beta0"]),
                linear=tuple(float(v) for v in doc["linear"]),
                quadratic=tuple(float(v) for v in doc["quadratic"]),
            )
