"""``logic-enumerate``: exhaustive model enumeration in the logic kernel.

Model counts are checked against closed forms (symmetric, reflexive),
OEIS A006905 (transitive relations) and, for the unary-function
sentence, an independent brute-force count written here.
"""

from __future__ import annotations

import itertools
import random

from cddkit.modeltheory import Signature, enumerate_models, parse_sentence

from stats import geomean, per_op

BINARY = Signature(predicates=(("R", 2),))
UNARY_F = Signature(predicates=(("P", 1),), functions=(("f", 1),))
TRANSITIVE_COUNTS = {1: 2, 2: 13, 3: 171, 4: 3994}  # OEIS A006905
MIN_CANDIDATES = 2048


def closure_models(n: int) -> int:
    """Pairs (P, f) on an n-element domain with P closed under f."""
    return sum(
        all(not (mask >> x & 1) or (mask >> f[x] & 1) for x in range(n))
        for f in itertools.product(range(n), repeat=n)
        for mask in range(2**n)
    )


# (name, signature, sentence, {domain size: expected model count})
CASES = (
    ("symmetric", BINARY, "forall x. forall y. R(x, y) -> R(y, x)", {n: 2 ** (n * (n + 1) // 2) for n in (2, 3, 4)}),
    ("transitive", BINARY, "forall x. forall y. forall z. R(x, y) and R(y, z) -> R(x, z)",
     {n: TRANSITIVE_COUNTS[n] for n in (2, 3)}),
    ("reflexive", BINARY, "forall x. R(x, x)", {n: 2 ** (n * n - n) for n in (2, 3)}),
    ("closure", UNARY_F, "forall x. P(x) -> P(f(x))", None),
)


def candidates(sig: Signature, n: int) -> int:
    total = 1
    for _, arity in sig.predicates:
        total *= 2 ** (n**arity)
    for _, arity in sig.functions:
        total *= n ** (n**arity)
    return total


class LogicEnumerate:
    name = "logic-enumerate"

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.items = []
        for case, sig, text, expected in CASES:
            sentence = parse_sentence(text, sig)
            counts = expected or {n: closure_models(n) for n in (2, 3, 4)}
            for n, count in counts.items():
                cands = candidates(sig, n)
                # small cases repeat so that each one is timed over a few thousand candidates
                for _ in range(max(1, MIN_CANDIDATES // cands)):
                    self.items.append((f"{case}.n{n}", sig, sentence, n, count, cands))
        enumerate_models(BINARY, self.items[0][2], 2)

    def run_pass(self, stats, tracer) -> None:
        # the seed fixes the call order; the work per pass is the same for every seed
        for key, sig, sentence, n, expected, cands in self.rng.sample(self.items, len(self.items)):
            tracer.new_op()
            errors = []
            try:
                before = tracer.calls["modeltheory.satisfies"]
                models, ns = tracer.call("modeltheory.enumerate_models", enumerate_models, sig, sentence, n)
                ms = ns / 1e6
                stats.samples[key].append(ms / cands)
                stats.time_op(key, ms, tracer.window, per=cands)
                stats.samples["enumerate"].append(ms)
                stats.counts["candidates"] += cands
                stats.counts["models"] += len(models)
                stats.counts["modeltheory.satisfies"] += tracer.calls["modeltheory.satisfies"] - before
                if len(models) != expected:
                    errors.append(f"{key}: {len(models)} models, expected {expected}")
            except Exception as exc:  # counted as a failed operation
                errors.append(f"{key}: {type(exc).__name__}: {exc}")
            stats.settle(errors)

    def finish(self, stats) -> None:
        pass

    def end_to_end(self, stats) -> dict:
        cands = {key: c for key, _, _, _, _, c in self.items}
        typical = stats.op_ms()
        return {
            "ops_per_s": 1000.0 * sum(cands.values()) / sum(typical[k] * c for k, c in cands.items()),
            "op_ms_p50": geomean([typical[k] for k in cands]),
        }

    def record(self, stats) -> dict:
        return {
            "enumerate_structs_per_s": self.end_to_end(stats)["ops_per_s"],
            "enumerate_structs_per_s_raw_cpu": 1000.0 * stats.counts["candidates"] / sum(stats.samples["enumerate"]),
            "candidates": stats.counts["candidates"],
            "models": stats.counts["models"],
        }

    def per_layer(self, untraced, traced, tracer) -> dict:
        # per-case times from the untraced phase, where satisfies is not wrapped
        typical = untraced.op_ms()
        out = {f"modeltheory.enumerate_models.ms.{key}": typical[key] * cands for key, _, _, _, _, cands in self.items}
        out.update(
            {
                "modeltheory.satisfies.calls": per_op(traced.counts["modeltheory.satisfies"], traced.counts["candidates"]),
                "modeltheory.satisfies.ms": tracer.mean_ms("modeltheory.satisfies", traced.run_scale()),
                "modeltheory.models_per_candidate": per_op(traced.counts["models"], traced.counts["candidates"]),
            }
        )
        return out
