"""Outside-in span tracing for the benchmark's traced run.

Every layer boundary in :data:`BOUNDARIES` is wrapped by patching the
attribute where its callers look it up (a class attribute, or a module
global that callers reach by name).  Each wrapped call records one span
``(name, start, end, parent, op)`` in flat arrays; nothing inside the
program changes.  Self time is a span's duration minus the time its
direct children cover.  Spans nest by a plain stack: every wrapped
boundary is synchronous except ``run_load``, the one open coroutine
span, so the service's frame handling (run on the same loop while
``run_load`` awaits) nests under it and ``run_load``'s self time is the
asyncio/socket/credit residual, reported as ``serve.transport_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.prof import perf_counter

#: Root span of one measured op; its self time is what no boundary covers.
ROOT = "op"

#: (span name, module, owner path inside the module, attribute).  An
#: empty owner path means a module global.
BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.engine", "repro.sim.engine", "Engine", "run_until"),
    ("hw.dispatch", "repro.hw.machine", "Machine", "dispatch_exit"),
    ("hypervisor.kvm", "repro.hypervisor.kvm", "KvmHypervisor", "handle_exit"),
    ("hypervisor.em", "repro.hypervisor.event_multiplexer", "EventMultiplexer", "submit"),
    ("core.derive", "repro.core.derive", "ArchDeriver", "read_kernel_u64"),
    ("core.derive", "repro.core.derive", "ArchDeriver", "read_kernel_bytes"),
    ("core.derive", "repro.core.derive", "ArchDeriver", "task_gva_from_rsp0"),
    ("core.derive", "repro.core.derive", "ArchDeriver", "task_info_at"),
    ("core.derive", "repro.core.derive", "ArchDeriver", "task_info_from_rsp0"),
    ("core.derive", "repro.core.derive", "ArchDeriver", "current_task_info"),
    ("replay.recorder", "repro.replay.recorder", "RecordingAuditor", "audit"),
    ("core.channel", "repro.core.channel", "EventFanout", "publish"),
    ("hypervisor.containers", "repro.hypervisor.containers", "AuditingContainer", "deliver"),
    ("replay.trace_io.load", "repro.replay.trace_io", "", "load_trace"),
    ("replay.trace_io.save", "repro.replay.trace_io", "", "save_trace"),
    ("replay.btrace.load", "repro.replay.btrace", "", "load_btrace"),
    ("replay.btrace.save", "repro.replay.btrace", "", "save_btrace"),
    ("core.events.decode", "repro.core.events", "GuestEvent", "from_record"),
    ("replay.source", "repro.replay.source", "ReplaySource", "run"),
    ("replay.source", "repro.replay.source", "ReplaySource", "stream_feed"),
    ("serve.protocol.encode", "repro.serve.load", "", "encode_frame"),
    ("serve.protocol.encode", "repro.serve.service", "", "encode_frame"),
    ("serve.protocol.decode", "repro.serve.load", "", "decode_frame"),
    ("serve.protocol.decode", "repro.serve.service", "", "decode_frame"),
    ("serve.admission", "repro.serve.admission", "AdmissionModel", "arrive"),
    ("serve.pipeline", "repro.serve.pipeline", "StreamPipeline", "feed"),
    ("serve.transport", "repro.serve.load", "", "run_load"),
    ("guest.kernel.boot", "repro.guest.kernel", "GuestKernel", "boot"),
    ("faults.campaign.trial", "repro.faults.campaign", "", "run_trial"),
    ("obs.metrics.snapshot", "repro.obs.metrics", "MetricsRegistry", "snapshot"),
)

#: Span name -> the per-layer self-time metric it feeds.  Spans sharing
#: a metric are one layer seen through several doors.
SELF_METRIC: Dict[str, str] = {
    "sim.engine": "sim.engine.self_s",
    "hw.dispatch": "sim.engine.self_s",
    "hypervisor.kvm": "hypervisor.dispatch.self_s",
    "hypervisor.em": "hypervisor.dispatch.self_s",
    "core.derive": "core.derive.self_s",
    "replay.recorder": "replay.recorder.self_s",
    "core.channel": "core.channel.self_s",
    "hypervisor.containers": "hypervisor.containers.self_s",
    "auditors": "auditors.self_s",
    "replay.trace_io.load": "replay.trace_io.load_s",
    "replay.trace_io.save": "replay.trace_io.save_s",
    "replay.btrace.load": "replay.btrace.load_s",
    "replay.btrace.save": "replay.btrace.save_s",
    "core.events.decode": "core.events.decode_s",
    "replay.source": "replay.source.self_s",
    "serve.protocol.encode": "serve.protocol.encode_s",
    "serve.protocol.decode": "serve.protocol.decode_s",
    "serve.admission": "serve.admission.self_s",
    "serve.pipeline": "serve.pipeline.self_s",
    "serve.transport": "serve.transport_s",
    "guest.kernel.boot": "guest.kernel.boot_s",
    "faults.campaign.trial": "faults.campaign.trial_s",
    "obs.metrics.snapshot": "obs.metrics.snapshot_s",
    ROOT: "trace.unattributed_s",
}

#: Span name -> the call-count metric it feeds.
CALL_METRIC: Dict[str, str] = {
    "hw.dispatch": "hw.exits",
    "core.derive": "core.derive.calls",
    "replay.recorder": "replay.recorder.calls",
    "core.channel": "core.channel.publishes",
    "hypervisor.containers": "hypervisor.containers.deliveries",
    "core.events.decode": "core.events.decodes",
    "serve.protocol.encode": "serve.protocol.frames",
}

#: Counts that are pure functions of the seed: every pass of a run must
#: reproduce them exactly.
EXACT_COUNTS: Tuple[str, ...] = (
    "hw.exits",
    "sim.engine.events",
    "core.derive.calls",
    "core.channel.publishes",
    "hypervisor.containers.deliveries",
    "serve.protocol.frames",
    "serve.admission.admitted",
)


def _resolve(module: str, owner: str) -> Any:
    target: Any = importlib.import_module(module)
    for part in filter(None, owner.split(".")):
        target = getattr(target, part)
    return target


def _auditor_classes() -> List[type]:
    """Every concrete auditor that defines ``audit`` itself (the
    recorder is its own layer)."""
    importlib.import_module("repro.auditors")
    from repro.core.auditor import Auditor
    from repro.replay.recorder import RecordingAuditor

    found: List[type] = []
    todo = list(Auditor.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not RecordingAuditor and "audit" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: List[int] = []
        #: Op id of the open root span (-1 outside any op).
        self._op = -1
        #: Op id -> the pass it belongs to (``-1`` = set-up).
        self.op_pass: Dict[int, int] = {}
        #: (pass, metric) -> tally taken from wrapped calls' results.
        self.tally: Counter = Counter()
        self._pass = -1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span primitives ------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def begin_op(self, pass_no: int) -> int:
        """Open the root span of the next op (``pass_no`` -1 = set-up)."""
        self._op = len(self.op_pass)
        self._pass = pass_no
        self.op_pass[self._op] = pass_no
        return self._open(self._name_id(ROOT))

    def end_op(self, i: int) -> None:
        self._close(i)
        self._op = -1

    def count(self, metric: str, n: int = 1) -> None:
        """Tally ``n`` toward the open op's pass (nothing outside ops,
        like spans)."""
        if self._op >= 0:
            self.tally[(self._pass, metric)] += n

    # -- wrappers -------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[["SpanRecorder", Any], None]] = None,
    ) -> Callable:
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    # -- patching -------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every boundary; :meth:`uninstall` restores them."""
        from repro.replay.btrace import BinaryTraceWriter

        if self._patches:
            raise RuntimeError("span tracing already installed")
        for name, module, owner_path, attr in BOUNDARIES:
            owner = _resolve(module, owner_path)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.iscoroutinefunction(raw):
                self._patch(owner, attr, self.wrap_async(name, raw))
            else:
                self._patch(owner, attr, self.wrap(name, raw, _ON_RESULT.get(name)))
        for cls in _auditor_classes():
            self._patch(cls, "audit", self.wrap("auditors", cls.__dict__["audit"]))
        close = BinaryTraceWriter.__dict__["close"]

        def close_and_count(writer, *args, **kwargs):
            self.count("btrace.records", writer.records_written)
            self.count("btrace.escapes", writer.escapes)
            return close(writer, *args, **kwargs)

        self._patch(BinaryTraceWriter, "close", close_and_count)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> array:
        """Per-span self time: duration minus direct children's cover."""
        start, end, parent = self.start, self.end, self.parent
        covered = array("d", bytes(8 * len(start)))
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        return array(
            "d", (end[i] - start[i] - covered[i] for i in range(len(start)))
        )

    def per_pass(self) -> Dict[int, Counter]:
        """pass -> {metric: value} for every span inside an op."""
        own = self.self_times()
        names, name_of, op_of = self.names, self.name_of, self.op
        self_key = [SELF_METRIC.get(n) for n in names]
        call_key = [CALL_METRIC.get(n) for n in names]
        root = self._name_ids.get(ROOT)
        out: Dict[int, Counter] = {}
        for i in range(len(own)):
            op = op_of[i]
            if op < 0:
                continue
            bucket = out.get(self.op_pass[op])
            if bucket is None:
                bucket = out[self.op_pass[op]] = Counter()
            nid = name_of[i]
            if nid == root:
                bucket["trace.wall_s"] += self.end[i] - self.start[i]
            key = self_key[nid]
            if key is not None:
                bucket[key] += own[i]
            key = call_key[nid]
            if key is not None:
                bucket[key] += 1
            bucket["span." + names[nid]] += 1
        for (pass_no, metric), n in self.tally.items():
            out.setdefault(pass_no, Counter())[metric] += n
        return out

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Spans as one JSON header line followed by the raw arrays
        (native byte order, in header ``fields`` order)."""
        header = dict(meta)
        header.update(
            names=self.names,
            count=len(self.start),
            fields=[["name", "H"], ["start", "d"], ["end", "d"],
                    ["parent", "l"], ["op", "l"]],
            op_pass={str(k): v for k, v in sorted(self.op_pass.items())},
        )
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for arr in (self.name_of, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)


def _count_engine_events(rec: SpanRecorder, fired: int) -> None:
    rec.count("sim.engine.events", fired)


def _count_admission(rec: SpanRecorder, decision: Any) -> None:
    rec.count("serve.admission.arrivals")
    if decision.admitted:
        rec.count("serve.admission.admitted")


def _count_replayed(rec: SpanRecorder, result: Any) -> None:
    """``ReplaySource.run`` returns a report, ``stream_feed`` a bool."""
    if isinstance(result, bool):
        rec.count("replay.source.records")
        rec.count("replay.source.rejected", not result)
    else:
        rec.count("replay.source.records", result.events_replayed + result.events_rejected)
        rec.count("replay.source.rejected", result.events_rejected)


#: Tallies read from the results of the boundaries whose outcome matters.
_ON_RESULT: Dict[str, Callable[[SpanRecorder, Any], None]] = {
    "sim.engine": _count_engine_events,
    "serve.admission": _count_admission,
    "replay.source": _count_replayed,
}
