"""In-memory spans and call counters for the traced benchmark run.

Spans go only around the benchmark's own calls into each layer.  Hot
library primitives are wrapped from here (never edited in ``src/``):
``surface`` extrema are counted, and the feasibility checks and
``satisfies`` are counted and timed, their time charged to the span
that encloses them so that self times stay exact.  Spans stay in memory
until ``write`` dumps them at exit.

The clock is this thread's CPU time: on a shared virtual machine the
wall clock also counts the time the host runs other guests (steal),
which would swamp the differences the benchmark is meant to show.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from time import thread_time_ns as clock_ns

# (owner, attribute, counter key, timed)
_PRIMITIVES = (
    ("surface", "QuadraticResponseSurface", "term_extremum", "surface.term_extremum", False),
    ("surface", "QuadraticResponseSurface", "box_extremum", "surface.box_extremum", False),
    ("designspace", "FeasibleRegion", "is_box_feasible", "designspace.is_box_feasible", True),
    ("designspace", "FeasibleRegion", "is_point_feasible", "designspace.is_point_feasible", True),
    ("modeltheory.structures", None, "satisfies", "modeltheory.satisfies", True),
)

_PARENT, _OP, _INNER, _CHILD, _ID = range(5)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Times calls; records spans and primitive counters only when enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op_id, self_ns), CPU clock
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.op_id = 0
        self.window = (0, 0)  # wall-clock span of the last call, perf_counter ns
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` and return ``(result, cpu_ns)``; a span when enabled."""
        if not self.enabled:
            w0, t0 = perf_counter_ns(), clock_ns()
            result = fn(*args, **kwargs)
            dur = clock_ns() - t0
            self.window = (w0, perf_counter_ns())
            return result, dur
        parent = self._stack[-1][_ID] if self._stack else -1
        frame = [parent, self.op_id, 0, 0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        w0, t0 = perf_counter_ns(), clock_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock_ns()
            self.window = (w0, perf_counter_ns())
            self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][_CHILD] += dur
            self.spans.append(
                (frame[_ID], name, t0, t1, parent, frame[_OP], dur - frame[_CHILD] - frame[_INNER])
            )
        return result, dur

    def new_op(self) -> None:
        self.op_id += 1

    # -- primitive wrappers ---------------------------------------------------

    def install(self) -> None:
        """Wrap the library primitives; ``uninstall`` puts the originals back."""
        import importlib

        for module, cls, attr, key, timed in _PRIMITIVES:
            mod = importlib.import_module(f"cddkit.{module}")
            owner = getattr(mod, cls) if cls else mod
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._timed(key, original) if timed else self._counted(key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _counted(self, key: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, key: str, fn):
        calls, ns, stack = self.calls, self.ns, self._stack

        def wrapper(*args, **kwargs):
            t0 = clock_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock_ns() - t0
                calls[key] += 1
                ns[key] += dt
                if stack:
                    stack[-1][_INNER] += dt

        return wrapper

    # -- reports ---------------------------------------------------------------

    def durations_ms(self, scale: float) -> dict[str, list[float]]:
        """Span durations by name, in ms times ``scale``."""
        out = defaultdict(list)
        for _, name, t0, t1, *_ in self.spans:
            out[name].append((t1 - t0) * scale / 1e6)
        return out

    def mean_ms(self, key: str, scale: float) -> float:
        """Mean ms times ``scale`` per call of a wrapped primitive."""
        return self.ns[key] * scale / 1e6 / self.calls[key] if self.calls[key] else 0.0

    def self_ms_by_layer(self, scale: float) -> dict[str, float]:
        """Total self time per layer in ms times ``scale``; wrapped primitives count to their own layer."""
        out = Counter()
        for _, name, _, _, _, _, self_ns in self.spans:
            out[layer_of(name)] += self_ns
        for key, total in self.ns.items():
            out[layer_of(key)] += total
        return {layer: total * scale / 1e6 for layer, total in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent", "op", "self_ns"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
