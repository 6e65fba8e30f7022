"""Benchmark of the four user paths: live, replay, serve, campaign.

Run from the root of a checkout::

    python3 perfbench/run.py --workload live --seed 0 --seconds 10 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` splits the time between an untraced and a traced window
and prints the per-layer metrics (see ``NOTES.md``).  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the host the run measured.
Spans of a traced run go to ``.perfbench/spans-<workload>.bin``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("live", "replay", "serve", "campaign")

#: A traced run fails when the wrapped layers leave more than this
#: share of the traced wall unattributed: a boundary is missing.
MAX_UNATTRIBUTED = 0.10

#: Layer times only the (traced) set-up exercises: traces are written
#: there and nowhere else.
SETUP_ONLY = ("replay.trace_io.save_s", "replay.btrace.save_s")


def _provenance() -> Dict[str, Any]:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _window(workload, seconds: float, tracer=None, first_pass: int = 0):
    """Whole passes until ``seconds`` have elapsed; a list per pass."""
    from repro.prof import perf_counter

    passes = []
    deadline = perf_counter() + seconds
    while True:
        passes.append(workload.run_pass(tracer, first_pass + len(passes)))
        if perf_counter() >= deadline:
            return passes


def _rate(passes, prefix: str = "") -> float:
    """Units of one pass over the sum of each op's fastest repetition.

    Co-tenants on a shared host only ever add time to an op, in bursts
    that can outlast a pass, so the fastest repetition of each op is the
    estimate they disturb least.
    """
    best: Dict[str, float] = {}
    units: Dict[str, int] = {}
    for ops in passes:
        for op in ops:
            if op.label.startswith(prefix):
                best[op.label] = min(best.get(op.label, op.seconds), op.seconds)
                units[op.label] = op.units
    seconds = sum(best.values())
    return sum(units.values()) / seconds if seconds > 0 else 0.0


def _tally(passes) -> Tuple[int, List[str]]:
    problems = [op.problem for ops in passes for op in ops if op.problem]
    return sum(len(ops) for ops in passes), problems


def end_to_end(workload, seconds: float) -> Tuple[Dict[str, Tuple[float, str]], list]:
    from repro.prof import perf_counter

    setups = []
    for _ in range(workload.setup_reps):
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
    passes = _window(workload, seconds)
    throughput = _rate(passes)
    if workload.name == "replay":
        per_format = (_rate(passes, "btrace:"), _rate(passes, "jsonl:"))
    else:
        # No trace file on this path: the whole path is format-free.
        per_format = (throughput, throughput)
    metrics = {
        "throughput_per_s": (throughput, "1/s"),
        "btrace_events_per_s": (per_format[0], "1/s"),
        "jsonl_events_per_s": (per_format[1], "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, passes


def per_layer(
    workload, seconds: float, spans_path: str, provenance: Dict[str, Any]
) -> Tuple[Dict[str, Tuple[float, str]], list, List[str]]:
    from spans import CALL_METRIC, EXACT_COUNTS, SELF_METRIC, SpanRecorder

    tracer = SpanRecorder()
    tracer.install()
    try:
        root = tracer.begin_op(-1)
        try:
            workload.setup()
        finally:
            tracer.end_op(root)
    finally:
        tracer.uninstall()
    untraced = _window(workload, seconds / 2)
    tracer.install()
    try:
        traced = _window(workload, seconds / 2, tracer, len(untraced))
    finally:
        tracer.uninstall()
    checks: List[str] = []
    parallel = {"busy_ratio": 0.0, "overhead_s": 0.0}
    if workload.name == "campaign":
        parallel = workload.parallel_pass()
        if not parallel.pop("identical"):
            checks.append("jobs=2 trial results differ from jobs=1")

    buckets = tracer.per_pass()
    tracer.write(spans_path, {"workload": workload.name, "seed": workload.seed,
                              "provenance": provenance})
    setup = buckets.get(-1, {})
    rows = [buckets.get(len(untraced) + k, {}) for k in range(len(traced))]
    for name in EXACT_COUNTS:
        seen = sorted({row.get(name, 0) for row in rows})
        if len(seen) > 1:
            checks.append(f"{name} differs between passes: {seen}")

    def mean(key: str) -> float:
        return sum(row.get(key, 0) for row in rows) / len(rows)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = mean("trace.wall_s")
    unattributed = mean("trace.unattributed_s")
    if ratio(unattributed, wall) > MAX_UNATTRIBUTED:
        checks.append(
            f"layers cover {1 - ratio(unattributed, wall):.1%} of the traced "
            f"wall (< {1 - MAX_UNATTRIBUTED:.0%}): a boundary is missing"
        )
    untraced_rate, traced_rate = _rate(untraced), _rate(traced)
    metrics: Dict[str, Tuple[float, str]] = {}
    for key in set(SELF_METRIC.values()) | {"trace.wall_s"}:
        metrics[key] = (setup.get(key, 0.0) if key in SETUP_ONLY else mean(key), "s")
    for key in set(CALL_METRIC.values()) | set(EXACT_COUNTS):
        metrics[key] = (mean(key), "count")
    metrics.update({
        "core.derive.calls_per_exit": (ratio(mean("core.derive.calls"), mean("hw.exits")), "ratio"),
        "hypervisor.ef.forward_ratio": (
            ratio(mean("span.hypervisor.em"), mean("span.hypervisor.kvm")), "ratio"),
        "core.channel.deliveries_per_publish": (
            ratio(mean("hypervisor.containers.deliveries"), mean("core.channel.publishes")),
            "ratio"),
        "replay.btrace.escape_ratio": (
            ratio(setup.get("btrace.escapes", 0), setup.get("btrace.records", 0)), "ratio"),
        "replay.source.reject_ratio": (
            ratio(mean("replay.source.rejected"), mean("replay.source.records")), "ratio"),
        "serve.admission.admit_ratio": (
            ratio(mean("serve.admission.admitted"), mean("serve.admission.arrivals")),
            "ratio"),
        "parallel.executor.busy_ratio": (parallel["busy_ratio"], "ratio"),
        "parallel.executor.overhead_s": (parallel["overhead_s"], "s"),
        "trace.coverage_ratio": (1 - ratio(unattributed, wall), "ratio"),
        "trace.overhead_pct": (100 * (1 - ratio(traced_rate, untraced_rate)), "%"),
    })
    return metrics, untraced + traced, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from userpaths import WORKLOADS

    provenance = _provenance()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    os.chdir(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            spans_path = str(OUT_DIR / f"spans-{args.workload}.bin")
            metrics, passes, checks = per_layer(
                workload, args.seconds, spans_path, provenance
            )
        else:
            (metrics, passes), checks = end_to_end(workload, args.seconds), []
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, problems = _tally(passes)
    for line in problems + checks:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": not problems and not checks,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
