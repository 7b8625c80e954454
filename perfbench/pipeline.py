"""``cli-pipeline``: the ``cdd`` commands a user runs, one child at a time.

Each command is timed by the user+system CPU time of its child process;
wall time goes to the record only.  Traced, each command's library work
is then replayed in-process under spans, so that the command's own cost
(argument parsing, output, first-use work) is its time minus the import
time minus that replay.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from cddkit import data_path
from cddkit.designspace import load_problem
from cddkit.modeltheory import (
    Interpretation,
    check_theory,
    graph_to_sentence,
    load_graph,
    load_structure,
    load_theory,
    to_text,
)
from cddkit.orthotope import SolveResult, oracle_check_steps, oracle_solve, solve_greedy, verify_maximality
from cddkit.rosetta import build_report, emit

from stats import geomean, median, per_op

PROBLEMS = ("emissions", "adas", "adas_tall")
THEORY = "logic/orthogonality_theory.json"
STRUCTURES = ("logic/triangle_345.json", "logic/triangle_234.json")
GRAPHS = ("logic/cdd_graph.json", "logic/ecs_graph.json")
COMMANDS = ("solve", "verify", "rosetta", "logic")
VERIFY_RESOLUTION = 201  # the CLI defaults, passed implicitly
ROSETTA_RESOLUTION = 21
CHILD_TIMEOUT_S = 120
PROBE_REPEATS = 3


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliPipeline:
    name = "cli-pipeline"

    def __init__(self, work_dir: Path, env: dict):
        self.work = work_dir
        self.env = env

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "replay").mkdir(parents=True)
        self.expected_solution = {
            name: solve_greedy(load_problem(data_path(f"{name}.json").read_text())).to_json() for name in PROBLEMS
        }
        self.expected_logic = {}
        for structure in STRUCTURES:
            sig, struct = load_structure(data_path(structure).read_text())
            theory = load_theory(data_path(THEORY).read_text(), signature=sig)
            verdicts = check_theory(theory, struct, Interpretation.identity(theory.signature))
            self.expected_logic[structure] = {"theory": theory.name, "verdicts": verdicts, "model": all(verdicts)}
        for graph in GRAPHS:
            sig, sentence = graph_to_sentence(load_graph(data_path(graph).read_text()))
            self.expected_logic[graph] = {"signature": sig.to_json(), "sentence": to_text(sentence)}
        self.hashes: dict[str, str] = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- one pass -------------------------------------------------------------

    def run_pass(self, stats, tracer) -> None:
        if tracer.enabled:
            for _ in range(PROBE_REPEATS):
                for probe, code in (("cli.python_start", "pass"), ("cli.import", "import cddkit.cli")):
                    cpu_ms = self._child(stats, tracer, probe, [sys.executable, "-c", code], lambda out: [])
                    if cpu_ms is not None:
                        stats.time_op(probe, cpu_ms, self.window)
        for name in self.rng.sample(PROBLEMS, len(PROBLEMS)):
            problem = str(data_path(f"{name}.json"))
            solution = self.work / f"{name}_solution.json"
            self._cdd(stats, tracer, "solve", name, [problem, "--out", str(self.work)])
            self._cdd(stats, tracer, "verify", name, [problem, str(solution), "--json"])
            self._cdd(stats, tracer, "rosetta", name, [problem, "--solution", str(solution), "--out", str(self.work / "rosetta")])
        logic = [(s, ["--theory", str(data_path(THEORY)), "--structure", str(data_path(s))]) for s in STRUCTURES]
        logic += [(g, ["--graph", str(data_path(g))]) for g in GRAPHS]
        for key, args in self.rng.sample(logic, len(logic)):
            self._cdd(stats, tracer, "logic", key, args + ["--json"])

    def _cdd(self, stats, tracer, command, key, args) -> None:
        argv = [sys.executable, "-m", "cddkit.cli", command, *args]
        check = getattr(self, f"_check_{command}")
        cpu_ms = self._child(stats, tracer, command, argv, lambda out: check(key, out))
        if cpu_ms is not None:
            stats.time_op((command, key), cpu_ms, self.window)
        if tracer.enabled and cpu_ms is not None:
            replay = getattr(self, f"_replay_{command}")
            errors = []
            try:
                _, ns = tracer.call(f"bench.replay_{command}", replay, key, stats, tracer)
                stats.time_op(("replay", command, key), ns / 1e6, tracer.window)
                if command == "verify":
                    self._volume_search(key, stats, tracer)
            except Exception as exc:  # counted as a failed operation
                errors.append(f"replay {command} {key}: {type(exc).__name__}: {exc}")
            stats.settle(errors)

    def _child(self, stats, tracer, key, argv, check) -> float | None:
        """Run one child to completion; its user+system CPU ms go to ``samples[key]``."""
        tracer.new_op()
        errors, cpu_ms = [], None
        try:
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter_ns()
            proc = subprocess.run(
                argv, cwd=self.work, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            self.window = (t0, time.perf_counter_ns())
            wall_ms = (self.window[1] - t0) / 1e6
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu_ms = 1000.0 * (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
            stats.samples[key].append(cpu_ms)
            stats.samples[f"wall.{key}"].append(wall_ms)
            if proc.returncode != 0:
                errors.append(f"{' '.join(argv[1:])}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            else:
                errors += check(proc.stdout)
        except (OSError, subprocess.SubprocessError, ValueError) as exc:
            errors.append(f"{' '.join(argv[1:])}: {type(exc).__name__}: {exc}")
        stats.settle(errors)
        return cpu_ms

    # -- output checks ------------------------------------------------------------

    def _same_bytes(self, path: Path) -> list[str]:
        digest = _sha(path)
        if self.hashes.setdefault(str(path), digest) != digest:
            return [f"{path.name} changed between passes"]
        return []

    def _check_solve(self, name, out) -> list[str]:
        path = self.work / f"{name}_solution.json"
        errors = self._same_bytes(path)
        if json.loads(path.read_text()) != self.expected_solution[name]:
            errors.append(f"cdd solve {name}: solution differs from the library's solve_greedy")
        return errors

    def _check_verify(self, name, out) -> list[str]:
        return [] if json.loads(out)["agreement"] is True else [f"cdd verify {name}: no agreement"]

    def _check_rosetta(self, name, out) -> list[str]:
        paths = [Path(line) for line in out.splitlines() if line.strip()]
        errors = [] if len(paths) == 6 else [f"cdd rosetta {name}: wrote {len(paths)} files, expected 6"]
        for path in paths:
            full = path if path.is_absolute() else self.work / path
            errors += self._same_bytes(full)
        return errors

    def _check_logic(self, key, out) -> list[str]:
        return [] if json.loads(out) == self.expected_logic[key] else [f"cdd logic {key}: unexpected output"]

    # -- in-process replays of each command's library work ---------------------------

    def _load(self, name, tracer):
        text = data_path(f"{name}.json").read_text()
        return tracer.call("designspace.load_problem", load_problem, text)[0]

    def _replay_solve(self, name, stats, tracer) -> None:
        problem = self._load(name, tracer)
        tracer.call("orthotope.solve_greedy", solve_greedy, problem)

    def _replay_verify(self, name, stats, tracer) -> None:
        problem = self._load(name, tracer)
        result = SolveResult.from_json(json.loads((self.work / f"{name}_solution.json").read_text()))
        before = [tracer.calls[k] for k in ("designspace.is_box_feasible", "designspace.is_point_feasible")]
        problem.region().is_box_feasible(result.orthotope.intervals)
        tracer.call("orthotope.verify_maximality", verify_maximality, problem, result.orthotope)
        tracer.call("orthotope.oracle_check_steps", oracle_check_steps, problem, result, VERIFY_RESOLUTION)
        _, with_volume = tracer.call("orthotope.oracle_solve", oracle_solve, problem, VERIFY_RESOLUTION)
        stats.counts["designspace.is_box_feasible"] += tracer.calls["designspace.is_box_feasible"] - before[0]
        stats.counts["designspace.is_point_feasible"] += tracer.calls["designspace.is_point_feasible"] - before[1]
        stats.samples["oracle_solve_with_volume"].append(with_volume / 1e6)

    def _volume_search(self, name, stats, tracer) -> None:
        """Cost of verify's max-volume search: oracle_solve with it minus without it."""
        problem = load_problem(data_path(f"{name}.json").read_text())
        _, ns = tracer.call(
            "orthotope.oracle_solve_no_volume", oracle_solve, problem, VERIFY_RESOLUTION, include_volume_box=False
        )
        stats.samples["oracle_volume_search"].append(stats.samples["oracle_solve_with_volume"][-1] - ns / 1e6)

    def _replay_rosetta(self, name, stats, tracer) -> None:
        problem = self._load(name, tracer)
        result = SolveResult.from_json(json.loads((self.work / f"{name}_solution.json").read_text()))
        report, _ = tracer.call("rosetta.build_report", build_report, problem, result, ROSETTA_RESOLUTION)
        out = self.work / "replay"
        written, _ = tracer.call("rosetta.emit_csv", emit, report, "csv", out)
        more, _ = tracer.call("rosetta.emit_svg", emit, report, "svg", out)
        stats.counts["rosetta.bytes_written"] += sum(p.stat().st_size for p in written + more)

    def _replay_logic(self, key, stats, tracer) -> None:
        text = data_path(key).read_text()
        if key in GRAPHS:
            sig, sentence = tracer.call("modeltheory.graph_to_sentence", graph_to_sentence, load_graph(text))[0]
            to_text(sentence)
            return
        sig, struct = load_structure(text)
        theory = load_theory(data_path(THEORY).read_text(), signature=sig)
        tracer.call("modeltheory.check_theory", check_theory, theory, struct, Interpretation.identity(theory.signature))

    # -- metrics --------------------------------------------------------------

    def _calls(self, stats) -> list[float]:
        return [ms for c in COMMANDS for ms in stats.samples[c]]

    def _command_ms(self, stats) -> dict:
        """Typical scaled ms of each (command, input) call; the traced phase also times probes and replays."""
        return {op: ms for op, ms in stats.op_ms().items() if isinstance(op, tuple) and op[0] in COMMANDS}

    def end_to_end(self, stats) -> dict:
        calls = self._command_ms(stats)
        return {
            "ops_per_s": 1000.0 * len(calls) / sum(calls.values()),
            "op_ms_p50": geomean([median([ms for (c, _), ms in calls.items() if c == command]) for command in COMMANDS]),
        }

    def record(self, stats) -> dict:
        out = {f"cli_{c}_s": median(stats.samples[c]) / 1000.0 for c in COMMANDS}
        out.update({f"cli_{c}_wall_s": median(stats.samples[f"wall.{c}"]) / 1000.0 for c in COMMANDS})
        out["cdd_calls"] = len(self._calls(stats))
        return out

    def finish(self, stats) -> None:
        pass

    def per_layer(self, untraced, traced, tracer) -> dict:
        k = traced.run_scale()
        spans = tracer.durations_ms(k)
        typical = traced.op_ms()
        import_ms = typical["cli.import"]
        replays = len(self._calls(traced))
        out = {
            "cli.python_start.ms": typical["cli.python_start"],
            "cli.import.ms": import_ms,
            "designspace.load_problem.ms": median(spans["designspace.load_problem"]),
            "designspace.is_box_feasible.calls": per_op(traced.counts["designspace.is_box_feasible"], replays),
            "designspace.is_box_feasible.ms": tracer.mean_ms("designspace.is_box_feasible", k),
            "designspace.is_point_feasible.calls": per_op(traced.counts["designspace.is_point_feasible"], replays),
            "orthotope.oracle_check_steps.ms": median(spans["orthotope.oracle_check_steps"]),
            "orthotope.oracle_solve.ms": median(spans["orthotope.oracle_solve"]),
            "orthotope.oracle_volume_search.ms": k * median(traced.samples["oracle_volume_search"]),
            "rosetta.build_report.ms": median(spans["rosetta.build_report"]),
            "rosetta.emit_csv.ms": median(spans["rosetta.emit_csv"]),
            "rosetta.emit_svg.ms": median(spans["rosetta.emit_svg"]),
            "rosetta.bytes_written": per_op(traced.counts["rosetta.bytes_written"], len(traced.samples["rosetta"])),
            "modeltheory.check_theory.ms": median(spans["modeltheory.check_theory"]),
            "modeltheory.graph_to_sentence.ms": median(spans["modeltheory.graph_to_sentence"]),
        }
        # a command's own cost: its call minus the replay of its library work, less the import
        calls = self._command_ms(traced)
        for c in COMMANDS:
            own = [ms - typical[("replay", *op)] for op, ms in calls.items() if op[0] == c]
            out[f"cli.{c}.self_ms"] = median(own) - import_ms
        return out
