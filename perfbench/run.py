"""cddkit benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` and the ``cdd`` CLI runs as ``python -m cddkit.cli``.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the ``end_to_end`` metrics of BENCHMARK.json untraced, or
its ``per_layer`` metrics with ``--trace 1``.  The line before it is the
full record (environment, seed, every measured value), also written to
``perfbench/out/``.  See perfbench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("solve-ladder", "solve-small", "cli-pipeline", "logic-enumerate")
SETUP_REPEATS = 3


def make_workload(name: str):
    if name in ("solve-ladder", "solve-small"):
        from solve import SolveWorkload

        return SolveWorkload(name)
    if name == "cli-pipeline":
        from pipeline import CliPipeline

        return CliPipeline(OUT / f"work-{os.getpid()}", child_env())
    from logic import LogicEnumerate

    return LogicEnumerate()


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload, seed: int) -> float:
    """Median reference-scaled CPU seconds of full set-ups.

    One set-up is a fresh interpreter importing cddkit, then the
    workload's inputs and warm-up in this process.
    """
    from stats import SpeedProbe

    times = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            w0 = time.perf_counter_ns()
            child0, self0 = cpu_s(resource.RUSAGE_CHILDREN), time.thread_time()
            subprocess.run([sys.executable, "-c", "import cddkit"], env=child_env(), check=True, timeout=120)
            workload.setup(seed)
            spent = cpu_s(resource.RUSAGE_CHILDREN) - child0 + time.thread_time() - self0
            times.append(probe.scale(spent, (w0, time.perf_counter_ns())))
    return statistics.median(times)


def measure(workload, seconds: float, tracer):
    """Whole passes over the workload's inputs until the next one would overrun ``seconds``."""
    from stats import SpeedProbe, Stats

    with SpeedProbe() as probe:
        stats = Stats(probe)
        start, cpu_start = time.perf_counter(), time.thread_time()
        while True:
            workload.run_pass(stats, tracer)
            stats.passes += 1
            if stats.passes == 1:
                # later passes repeat the same inputs and only grow the harness's sample arrays
                stats.peak_rss_mb = peak_rss_mb(workload)
            elapsed = time.perf_counter() - start
            if elapsed * (stats.passes + 1) / stats.passes > seconds:
                break
        stats.wall_s = elapsed
        stats.cpu_s = time.thread_time() - cpu_start
    return stats


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-pipeline" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def trace_summary(workload, untraced, traced, tracer) -> dict:
    """Layer self times, tracing overhead and how much traced time no span covers."""
    layers = tracer.self_ms_by_layer(traced.run_scale())
    out = {f"{layer}.self_ms": ms / traced.ops for layer, ms in layers.items()}
    plain, slow = workload.end_to_end(untraced), workload.end_to_end(traced)
    out["trace.overhead.ops_per_s"] = plain["ops_per_s"] / slow["ops_per_s"] - 1.0
    out["trace.overhead.op_ms_p50"] = slow["op_ms_p50"] / plain["op_ms_p50"] - 1.0
    root_ns = sum(t1 - t0 for _, _, t0, t1, parent, _, _ in tracer.spans if parent == -1)
    out["trace.unspanned_share"] = 1.0 - root_ns / 1e9 / traced.cpu_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cddkit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a cddkit source checkout; {SRC / 'cddkit'} or {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(SRC), str(HERE)]
    # one core for this process and its children, so the reference loop
    # measures the core that the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from tracer import Tracer

    workload = make_workload(args.workload)
    try:
        setup_s = measure_setup(workload, args.seed)
        # a traced run splits its time between an untraced and a traced phase
        phase_s = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(workload, phase_s, Tracer(enabled=False))
        phases = [untraced]
        record = {"end_to_end": {**workload.end_to_end(untraced), "setup_s": setup_s, "peak_rss_mb": untraced.peak_rss_mb}}
        record["workload_metrics"] = workload.record(untraced)
        if args.trace:
            tracer = Tracer(enabled=True)
            tracer.install()
            try:
                traced = measure(workload, phase_s, tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
            record["per_layer"] = {
                **workload.per_layer(untraced, traced, tracer),
                **trace_summary(workload, untraced, traced, tracer),
            }
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        workload.finish(untraced)
    finally:
        if hasattr(workload, "close"):
            workload.close()

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    record.update(
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        environment=environment(args.seed),
        passes=[p.passes for p in phases],
        measured_s=[p.wall_s for p in phases],
        reference_ms_median=[statistics.median(p.probe.refs) for p in phases],
        attempted=attempted,
        failed=failed,
        failed_ops_ratio=failed / attempted,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    section, values = ("per_layer", record["per_layer"]) if args.trace else ("end_to_end", record["end_to_end"])
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in spec[section]}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
