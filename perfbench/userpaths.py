"""The four user paths the benchmark times, one class per workload.

Each workload builds its inputs from the seed in :meth:`setup`, then
runs whole *passes* of ops.  An op is one unit a user waits for (a
scenario, a trace file, a socket load, a campaign grid); its output is
checked, and a wrong output or an exception makes it a failed op with
the reason attached, never a traceback.  Only the program call of each
op is inside its timed region; checks run outside it.
"""

from __future__ import annotations

import asyncio
import gc
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.prof import perf_counter

#: The live scenarios, in pass order, with the ``(auditor, kind)``
#: verdicts their ground truth calls for.
LIVE_EXPECTED: Dict[str, List[Tuple[str, str]]] = {
    "baseline": [],
    "hang": [("goshd", "vcpu_hang"), ("goshd", "vcpu_hang")],
    "rootkit": [("hrkd", "hidden_tasks")],
    "exploit": [("ht-ninja", "privilege_escalation")],
}

#: Serve load: ``spike`` streams cycling over these scenarios.
SERVE_SCENARIOS = ("exploit", "hang", "rootkit")
SERVE_STREAMS = 8
SERVE_PROFILE = "spike"

#: Relative to the work directory (the process ``chdir``s there), so
#: the UNIX socket path stays short however deep the checkout is.
SERVE_SOCKET = "serve.sock"


@dataclass
class Op:
    """One timed op: ``units`` events (or trials) in ``seconds``."""

    label: str
    units: int
    seconds: float
    problem: Optional[str] = None


class Workload:
    """Set-up once per repetition, then passes of checked ops."""

    name = ""
    #: Set-up repetitions per run; ``setup_s`` is their median.
    setup_reps = 3

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        #: label -> output of that op's first run; later runs must match.
        self._first: Dict[str, Any] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None, pass_no: int = 0) -> List[Op]:
        raise NotImplementedError

    def _same_as_first(self, label: str, output: Any) -> Optional[str]:
        first = self._first.setdefault(label, output)
        return None if output == first else f"{label}: output differs from its first run"

    def _timed(self, label: str, tracer, pass_no: int, fn):
        """Run ``fn`` as one op; returns ``(result, seconds, error)``."""
        _settle()
        root = tracer.begin_op(pass_no) if tracer is not None else None
        t0 = perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # noqa: BLE001 - a failed op, reported
            result, error = None, f"{label}: {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if root is not None:
            tracer.end_op(root)
        return result, seconds, error


def _settle() -> None:
    """Start every op from an empty collector: garbage left by the
    previous op (or by set-up) would otherwise be collected at a random
    point inside the next timed op."""
    gc.collect()


def _verdict_kinds(verdicts: List[dict]) -> List[Tuple[str, str]]:
    return sorted((v.get("auditor"), v.get("kind")) for v in verdicts)


# ======================================================================
# live: scenario -> verdicts
# ======================================================================
class Live(Workload):
    """Each op records one scenario on the full simulated stack."""

    name = "live"
    setup_reps = 5

    def setup(self) -> None:
        # The smallest scenario end to end: boot, attach, first verdict.
        from repro.replay.recorder import record_scenario

        record_scenario("exploit", seed=self.seed)

    def run_pass(self, tracer=None, pass_no: int = 0) -> List[Op]:
        from repro.replay.recorder import record_scenario

        ops = []
        for scenario in LIVE_EXPECTED:
            run, secs, error = self._timed(
                scenario, tracer, pass_no,
                lambda: record_scenario(scenario, seed=self.seed),
            )
            if error is not None:
                ops.append(Op(scenario, 0, secs, error))
                continue
            problem = None
            if _verdict_kinds(run.live_verdicts) != sorted(LIVE_EXPECTED[scenario]):
                problem = (
                    f"{scenario}: verdicts {_verdict_kinds(run.live_verdicts)} "
                    f"!= ground truth {LIVE_EXPECTED[scenario]}"
                )
            events = run.trace.header.total_events
            problem = problem or self._same_as_first(
                scenario, (events, run.live_verdicts)
            )
            ops.append(Op(scenario, events, secs, problem))
        return ops


# ======================================================================
# replay: trace file -> verdicts
# ======================================================================
class Replay(Workload):
    """Each op loads one trace file and replays it through fresh
    auditors; the pass alternates gzip-JSONL and btrace files."""

    name = "replay"

    def setup(self) -> None:
        from repro.replay import btrace, trace_io
        from repro.replay.recorder import record_scenario

        self.files: List[Tuple[str, str, str]] = []
        self.live: Dict[str, List[dict]] = {}
        for scenario in LIVE_EXPECTED:
            run = record_scenario(scenario, seed=self.seed)
            self.live[scenario] = run.live_verdicts
            jsonl = os.path.join(self.workdir, f"{scenario}.jsonl.gz")
            binary = os.path.join(self.workdir, f"{scenario}.btrace")
            trace_io.save_trace(jsonl, run.trace)
            btrace.save_btrace(binary, run.trace)
            self.files.append(("jsonl", scenario, jsonl))
            self.files.append(("btrace", scenario, binary))

    def run_pass(self, tracer=None, pass_no: int = 0) -> List[Op]:
        from repro.replay.btrace import load_any_trace
        from repro.replay.recorder import SCENARIOS
        from repro.replay.source import ReplaySource

        def replay_file(path: str):
            trace = load_any_trace(path)
            auditors = SCENARIOS[trace.header.scenario].build_auditors()
            return trace, ReplaySource(trace, auditors).run()

        ops = []
        for fmt, scenario, path in self.files:
            label = f"{fmt}:{scenario}"
            out, secs, error = self._timed(
                label, tracer, pass_no,
                lambda: replay_file(path),
            )
            if error is not None:
                ops.append(Op(label, 0, secs, error))
                continue
            trace, report = out
            problem = None
            if report.verdicts != self.live[scenario]:
                problem = f"{label}: replay verdicts differ from the live run"
            elif report.events_rejected or (
                report.events_replayed != trace.header.total_events
            ):
                problem = (
                    f"{label}: replayed {report.events_replayed} of "
                    f"{trace.header.total_events} events, "
                    f"{report.events_rejected} rejected"
                )
            ops.append(Op(label, report.events_replayed, secs, problem))
        return ops


# ======================================================================
# serve: socket -> verdicts
# ======================================================================
class Serve(Workload):
    """Each op pushes the whole spike plan down one connection to an
    in-process ``StreamService(jobs=1)`` sharing the client's loop."""

    name = "serve"

    def setup(self) -> None:
        from repro.replay import btrace
        from repro.replay.recorder import record_scenario
        from repro.serve.load import build_plan

        paths = []
        for scenario in SERVE_SCENARIOS:
            path = os.path.join(self.workdir, f"serve-{scenario}.btrace")
            btrace.save_btrace(path, record_scenario(scenario, seed=self.seed).trace)
            paths.append(path)
        self.plan = build_plan(
            SERVE_PROFILE, self.seed, SERVE_STREAMS, traces=paths
        )
        self.records = sum(len(spec["records"]) for spec in self.plan)

    def run_pass(self, tracer=None, pass_no: int = 0) -> List[Op]:
        from repro.serve import load
        from repro.serve.load import check_payloads
        from repro.serve.service import StreamService

        async def one_load():
            service = StreamService(SERVE_SOCKET, jobs=1)
            await service.start()
            try:
                # The op (and its root span) covers exactly the load.
                return await self._timed_async(
                    tracer, pass_no, lambda: load.run_load(SERVE_SOCKET, self.plan)
                )
            finally:
                await service.stop()

        result, secs, error = asyncio.run(one_load())
        if error is not None:
            return [Op("load", 0, secs, error)]
        payloads = result["verdicts"]
        problems = check_payloads(payloads)
        problems += [
            f"{p.get('stream')}: not reproduced" for p in payloads
            if p.get("reproduced") is not True
        ]
        if len(payloads) != SERVE_STREAMS:
            problems.append(f"{len(payloads)} of {SERVE_STREAMS} streams reported")
        problem = "; ".join(problems) or self._same_as_first(
            "load", [(p["stream"], p["admitted"], p["verdicts"]) for p in payloads]
        )
        return [Op("load", self.records, secs, problem)]

    async def _timed_async(self, tracer, pass_no: int, start):
        """:meth:`_timed` for a coroutine run on the caller's loop."""
        _settle()
        root = tracer.begin_op(pass_no) if tracer is not None else None
        t0 = perf_counter()
        try:
            result, error = await start(), None
        except Exception as exc:  # noqa: BLE001 - a failed op, reported
            result, error = None, f"load: {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if root is not None:
            tracer.end_op(root)
        return result, seconds, error


# ======================================================================
# campaign: fault-injection grid
# ======================================================================
class Campaign(Workload):
    """Each op runs the ledger's 8-trial §VIII-A slice at ``jobs=1``."""

    name = "campaign"

    def setup(self) -> None:
        from repro.bench import _campaign_grid
        from repro.faults.campaign import iter_trial_grid, run_trial

        # The ledger's slice, re-seeded: same sites, workloads, modes,
        # preemption options and windows, trial seed from the benchmark.
        ledger = _campaign_grid(1.0)
        configs = [config for _, config in ledger]
        self.grid_args = dict(
            sites=_distinct(site for site, _ in ledger),
            workloads=_distinct(c.workload for c in configs),
            modes=_distinct(c.mode for c in configs),
            preempt_options=_distinct(c.preemptible for c in configs),
            seeds=(self.seed,),
            base_config=configs[0],
        )
        self.grid = iter_trial_grid(**self.grid_args)
        # One warm-up trial: boots, attaches GOSHD and fills lazy caches.
        run_trial(*self.grid[0])

    def run_pass(self, tracer=None, pass_no: int = 0) -> List[Op]:
        from repro.faults.campaign import run_campaign

        summary, secs, error = self._timed(
            "grid", tracer, pass_no,
            lambda: run_campaign(jobs=1, **self.grid_args),
        )
        if error is not None:
            return [Op("grid", 0, secs, error)]
        results = summary.results
        problem = None
        if len(results) != len(self.grid):
            problem = f"grid: {len(results)} of {len(self.grid)} trials returned"
        problem = problem or self._same_as_first("grid", results)
        return [Op("grid", len(results), secs, problem)]

    def parallel_pass(self) -> Dict[str, float]:
        """One ``jobs=2`` pass through ``parallel_map(stats=)``; the
        results must equal the serial ones."""
        from repro.faults.campaign import _trial_task
        from repro.parallel import executor

        executor.warm_pool(2)
        try:
            stats: Dict[str, Any] = {}
            t0 = perf_counter()
            results = executor.parallel_map(_trial_task, self.grid, jobs=2, stats=stats)
            wall = perf_counter() - t0
        finally:
            # The pool is persistent; stop and join its workers now.
            executor._discard_pool(wait_for_workers=True)
        busy = sum(stats.get("chunk_cpu_s", []))
        return {
            "identical": results == self._first.get("grid"),
            "busy_ratio": busy / (2 * wall) if wall > 0 else 0.0,
            "overhead_s": wall - busy / 2,
        }


def _distinct(values) -> list:
    """Values in first-seen order, once each."""
    return list(dict.fromkeys(values))


WORKLOADS = {cls.name: cls for cls in (Live, Replay, Serve, Campaign)}
