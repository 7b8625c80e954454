"""In-process solver workloads: ``solve-ladder`` and ``solve-small``."""

from __future__ import annotations

import itertools
import json
import random

from cddkit.orthotope import (
    Orthotope,
    auto_rank,
    expand_factor,
    oracle_check_steps,
    solve_greedy,
    verify_maximality,
)

from problems import random_problem
from stats import geomean, median, per_op, percentile

LADDER = tuple((n, m) for n in (3, 10, 30, 100) for m in (3, 10, 30))
# problems per rung: about equal solver time per rung (cost grows like N^2 * M),
# capped at 16, and one for the N=100 rungs so that each is solved often enough
LADDER_WORK = 3000
SMALL_PROBLEMS = 1512  # 28 of each of the 54 combinations
SMALL_SCALES = (1.0, 1e3, 1e6)
ADAS_OFFSET = (1600.0, 2000.0)
ORACLE_SUBSET = 24
ORACLE_STRIDE = 61  # coprime with the 54 combinations, so the subset covers 24 of them
ORACLE_RESOLUTION = 201
COUNTED = ("surface.term_extremum", "surface.box_extremum", "designspace.is_box_feasible")


def rung_key(n: int, m: int) -> str:
    return f"N{n}xM{m}"


class SolveWorkload:
    """Certified greedy solves; every solve is checked, and replayed when traced."""

    def __init__(self, name: str):
        self.name = name
        self.items: list[tuple[str, object]] = []
        self.reference: list[str | None] = []

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        if self.name == "solve-ladder":
            self.items = [
                (rung_key(n, m), random_problem(rng, n, m))
                for n, m in LADDER
                for _ in range(max(1 if n == 100 else 2, min(16, round(LADDER_WORK / (n * n * m)))))
            ]
        else:
            # every (N, M, scale, offset or not) combination equally often, so the mix is the same for every seed
            combos = list(itertools.product((1, 2, 3), (1, 2, 3), SMALL_SCALES, (False, True)))
            self.items = []
            for i in range(SMALL_PROBLEMS):
                n, m, scale, shifted = combos[i % len(combos)]
                offset = rng.uniform(*ADAS_OFFSET) if shifted else 0.0
                self.items.append(("solve", random_problem(rng, n, m, scale, offset)))
        self.reference = [None] * len(self.items)
        solve_greedy(self.items[0][1])

    def run_pass(self, stats, tracer) -> None:
        for i, (key, problem) in enumerate(self.items):
            tracer.new_op()
            errors: list[str] = []
            try:
                tracer.call("bench.solve_op", self._op, i, key, problem, stats, tracer, errors)
            except Exception as exc:  # a failed operation is counted, not fatal
                errors.append(f"{problem.name}: {type(exc).__name__}: {exc}")
            stats.settle(errors)

    def _op(self, i, key, problem, stats, tracer, errors) -> None:
        before = [tracer.calls[k] for k in COUNTED]
        result, ns = tracer.call("orthotope.solve_greedy", solve_greedy, problem)
        stats.samples[key].append(ns / 1e6)
        stats.time_op(i, ns / 1e6, tracer.window)
        for k, b in zip(COUNTED, before):
            stats.counts[k] += tracer.calls[k] - b

        if not result.certificate.maximal:
            errors.append(f"{problem.name}: certificate not maximal")
        if not problem.region().is_box_feasible(result.orthotope.intervals)[0]:
            errors.append(f"{problem.name}: solved box fails the exact feasibility check")
        text = json.dumps(result.to_json(), sort_keys=True)
        if self.reference[i] is None:
            self.reference[i] = text
        elif text != self.reference[i]:
            errors.append(f"{problem.name}: solution JSON changed between passes")
        if tracer.enabled:
            self._replay(problem, result, stats, tracer, errors)

    def _replay(self, problem, result, stats, tracer, errors) -> None:
        """The public calls solve_greedy makes, one span each; must rebuild its box."""
        order, _ = tracer.call("orthotope.auto_rank", auto_rank, problem)
        box = Orthotope.point(problem.seed)
        for j in order:
            tries = tracer.calls["designspace.is_box_feasible"]
            box, _ = tracer.call("orthotope.expand_factor", expand_factor, problem, box, j)
            stats.counts["expansions"] += 1
            stats.counts["first_try"] += tracer.calls["designspace.is_box_feasible"] - tries == 1
        feasible, _ = problem.region().is_box_feasible(box.intervals)
        certificate, _ = tracer.call("orthotope.verify_maximality", verify_maximality, problem, box)
        if order != result.ranking or box != result.orthotope or not feasible:
            errors.append(f"{problem.name}: replayed box differs from solve_greedy")
        if certificate != result.certificate:
            errors.append(f"{problem.name}: replayed certificate differs from solve_greedy")

    def finish(self, stats) -> None:
        """Untimed grid-oracle agreement on a fixed subset of the small solves."""
        if self.name != "solve-small":
            return
        for _, problem in self.items[::ORACLE_STRIDE][:ORACLE_SUBSET]:
            errors = []
            try:
                checks = oracle_check_steps(problem, solve_greedy(problem), ORACLE_RESOLUTION)
                errors += [f"{problem.name}: oracle disagrees on factor {c.factor}" for c in checks if not c.ok]
            except Exception as exc:  # counted as a failed operation
                errors.append(f"{problem.name}: oracle {type(exc).__name__}: {exc}")
            stats.settle(errors)

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, stats) -> dict:
        by_rung = self._ms_by_rung(stats)
        # the ladder weighs every rung alike; solve-small is a single rung
        return {
            "ops_per_s": geomean([1000.0 * len(b) / sum(b) for b in by_rung.values()]),
            "op_ms_p50": geomean([median(b) for b in by_rung.values()]),
        }

    def _ms_by_rung(self, stats) -> dict[str, list[float]]:
        typical = stats.op_ms()
        by_rung = {}
        for i, (key, _) in enumerate(self.items):
            by_rung.setdefault(key, []).append(typical[i])
        return by_rung

    def record(self, stats) -> dict:
        e2e = self.end_to_end(stats)
        out = {"solve_per_s": e2e["ops_per_s"], "solve_ms_p50": e2e["op_ms_p50"]}
        if self.name == "solve-ladder":
            out.update({f"solve_ms_p50.{key}": median(stats.samples[key]) for key in self._ms_by_rung(stats)})
            out.update({f"solve_ms_scaled.{key}": median(b) for key, b in self._ms_by_rung(stats).items()})
        else:
            s = stats.samples["solve"]
            out.update({"solve_ms_p90": percentile(s, 90), "solves": len(s)})
        return out

    def per_layer(self, untraced, traced, tracer) -> dict:
        spans = tracer.durations_ms(traced.run_scale())
        solves = sum(len(s) for s in traced.samples.values())
        out = {
            "orthotope.auto_rank.ms": median(spans["orthotope.auto_rank"]),
            "orthotope.expand_factor.ms": median(spans["orthotope.expand_factor"]),
            "orthotope.expand_factor.calls": per_op(len(spans["orthotope.expand_factor"]), solves),
            "orthotope.expand.first_try_ratio": per_op(traced.counts["first_try"], traced.counts["expansions"]),
            "orthotope.verify_maximality.ms": median(spans["orthotope.verify_maximality"]),
            "designspace.is_box_feasible.ms": tracer.mean_ms("designspace.is_box_feasible", traced.run_scale()),
        }
        out.update({f"{k}.calls": per_op(traced.counts[k], solves) for k in COUNTED})
        if self.name == "solve-ladder":
            # from the untraced phase: the wrappers would skew the scaling exponent
            out.update(
                {f"orthotope.solve_greedy.ms.{key}": median(b) for key, b in self._ms_by_rung(untraced).items()}
            )
        return out
