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
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DimensionMismatch, SchemaError

__all__ = ["Interval", "QuadraticResponseSurface"]


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; lo == hi is allowed and means a point."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

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


@dataclass(frozen=True)
class QuadraticResponseSurface:
    """One design objective as a pure-quadratic function of the design point."""

    name: str
    unit: str
    beta0: float
    linear: tuple[float, ...]
    quadratic: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "linear", tuple(float(v) for v in self.linear))
        object.__setattr__(self, "quadratic", tuple(float(v) for v in self.quadratic))
        if len(self.linear) != len(self.quadratic):
            raise DimensionMismatch(
                f"surface {self.name!r}: {len(self.linear)} linear vs "
                f"{len(self.quadratic)} quadratic coefficients"
            )
        values = (self.beta0, *self.linear, *self.quadratic)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"surface {self.name!r} has non-finite coefficients")

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
        """Exact extremum of the coordinate-j term over an interval.

        Candidates are the two endpoints plus the vertex when it falls
        inside.  Ties prefer the lower coordinate.  Returns (value, x).
        """
        l, q = self.linear[j], self.quadratic[j]
        lo, hi = interval.lo, interval.hi
        best_v, best_x = l * lo + q * lo * lo, lo
        # the mode as a sign: -v > -w is exactly v < w, and any other mode never moves off lo
        sign = 1.0 if mode == "max" else -1.0 if mode == "min" else 0.0
        if q != 0.0:
            x = -l / (2.0 * q)
            if lo < x < hi:
                v = l * x + q * x * x
                if sign * v > sign * best_v:
                    best_v, best_x = v, x
        if hi != lo:
            v = l * hi + q * hi * hi
            if sign * v > sign * best_v:
                best_v, best_x = v, hi
        return best_v, best_x

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
        if mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
        self._check_dim(len(box))
        total = self.beta0
        point = []
        for j, interval in enumerate(box):
            value, x = self.term_extremum(j, interval, mode)
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
        try:
            return cls(
                name=str(doc["name"]),
                unit=str(doc.get("unit", "")),
                beta0=float(doc["beta0"]),
                linear=tuple(float(v) for v in doc["linear"]),
                quadratic=tuple(float(v) for v in doc["quadratic"]),
            )
        except KeyError as exc:
            raise SchemaError(f"surface document missing key {exc.args[0]!r}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, DimensionMismatch):
                raise
            raise SchemaError(f"malformed surface document: {exc}") from exc

