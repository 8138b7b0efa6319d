"""Per-layer tracing for the benchmark's traced runs (``--trace 1``).

:class:`Instrumentation` wraps the public functions of each layer of
the host-side pipeline from outside the program.  Each wrapper is
installed where the caller looks the name up -- a module attribute
(``repro.hymm.accelerator.degree_sort``) or a class attribute
(``COOMatrix.permute``) -- and :meth:`Instrumentation.uninstall` puts
the originals back, so an untraced measurement in the same process runs
the unmodified program.

Spans go through ``repro.telemetry.span`` into the program's own
``SpanRecorder``, so the program's ``runtime.*`` and ``serve.*`` spans
nest with the wrappers' spans in one Chrome-trace file.
:func:`layer_metrics` turns such a file into per-layer self times (span
duration minus the part its child spans cover) and exact work counts.

The engine's batch primitives run ~430k times per cold sweep; a span
per call would hold hundreds of MB of events and slow the run it
measures.  They are timed into a per-thread ledger instead, and each
outermost kernel span is followed by one ``engine`` instant event that
carries the calls, addresses and seconds of the engine work done inside
it.  Byte counts and hit/miss outcomes ride on instant events too, so
the span file alone (also the one a server process writes) holds every
per-layer number.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry import instant, span

#: The engine's batch entry points, the unit the kernels drive it in.
ENGINE_PRIMITIVES = (
    "mac_load_batch",
    "load_batch",
    "mac_stream_load_batch",
    "store_batch",
    "accumulate_store_batch",
    "merge_rmw_batch",
)
#: Per-access engine calls the kernels make next to the batches; timed
#: so that kernel self time excludes them (no address count).
ENGINE_SCALAR_OPS = ("stream", "mac_local")
ENGINE_OPS = ENGINE_PRIMITIVES + ENGINE_SCALAR_OPS

_ENGINE_CLASSES = (
    ("repro.sim.engine", "AccessExecuteEngine"),
    ("repro.sim.engine", "BatchedAccessExecuteEngine"),
)
_ACCELERATOR_CLASSES = (
    ("repro.hymm.base", "AcceleratorBase"),
    ("repro.hymm.accelerator", "HyMMAccelerator"),
    ("repro.baselines.op", "OPAccelerator"),
    ("repro.baselines.op_tiled", "TiledOPAccelerator"),
    ("repro.baselines.rwp", "RWPAccelerator"),
    ("repro.baselines.cwp", "CWPAccelerator"),
    ("repro.baselines.gcod", "GCoDAccelerator"),
)
_STATE_CLASSES = (
    ("repro.sim.buffer", "CacheBuffer"),
    ("repro.hymm.dmb", "SplitBufferPair"),
    ("repro.sim.engine", "AccessExecuteEngine"),
    ("repro.sim.engine", "BatchedAccessExecuteEngine"),
)

#: (module, attribute) -> span name, for module-level functions.
_FUNCTIONS = (
    ("repro.bench.workloads", "load_dataset", "graphs.load_dataset"),
    ("repro.bench.workloads", "GCNModel", "gcn.model_build"),
    ("repro.hymm.accelerator", "degree_sort", "prepare.degree_sort"),
    ("repro.baselines.gcod", "degree_sort", "prepare.degree_sort"),
    ("repro.hymm.accelerator", "plan_regions", "prepare.plan_regions"),
    ("repro.baselines.gcod", "plan_regions", "prepare.plan_regions"),
    ("repro.hymm.accelerator", "coo_to_csr", "prepare.coo_to_csr"),
    ("repro.baselines.rwp", "coo_to_csr", "prepare.coo_to_csr"),
    ("repro.baselines.op", "coo_to_csc", "prepare.coo_to_csc"),
    ("repro.baselines.op_tiled", "coo_to_csc", "prepare.coo_to_csc"),
    ("repro.baselines.cwp", "coo_to_csc", "prepare.coo_to_csc"),
    ("repro.baselines.gcod", "coo_to_csc", "prepare.coo_to_csc"),
)
_SERVE_FUNCTIONS = (
    ("repro.serve.server", "decode", "serve.decode"),
    ("repro.serve.server", "parse_request", "serve.parse"),
    ("repro.serve.server", "encode", "serve.encode"),
)
#: (module, class, method) -> span name, for methods (wrapped only on
#: the classes that define them, so inherited lookups see one wrapper).
_METHODS = (
    ("repro.sparse.coo", "COOMatrix", "permute", "prepare.coo_permute"),
    ("repro.sim.replay", "TraceSession", "lookup", "replay.lookup"),
    ("repro.sim.replay", "TraceSession", "record", "replay.record"),
    ("repro.runtime.cache", "TraceStore", "load_trace", "replay.load_trace"),
    ("repro.runtime.cache", "TraceStore", "store_trace", "replay.store_trace"),
    ("repro.runtime.executor", "SweepExecutor", "run", "runtime.executor"),
    ("repro.runtime.cache", "ResultCache", "load", "runtime.result_load"),
    ("repro.runtime.cache", "ShardedResultCache", "load", "runtime.result_load"),
    ("repro.runtime.cache", "ResultCache", "store", "runtime.result_store"),
    ("repro.hymm.base", "RunResult", "to_dict", "runtime.to_dict"),
    ("repro.hymm.base", "RunResult", "from_dict", "runtime.from_dict"),
)
_SERVE_METHODS = (
    ("repro.runtime.job", "JobSpec", "from_dict", "serve.spec"),
    ("repro.runtime.job", "JobSpec", "fingerprint", "serve.fingerprint"),
)

#: Program spans awaited on an event loop: other requests' spans run on
#: the same thread inside them, so they are never parents.
_ASYNC_SPANS = frozenset({"serve.batch", "serve.cache_probe"})

_KERNEL = "kernels"


class _ThreadState(threading.local):
    def __init__(self) -> None:
        #: Span names open on this thread (re-entrant calls, such as a
        #: subclass method calling ``super()``, stay inside one span).
        self.open: set = set()
        self.engine_busy = False
        self.kernel_depth = 0
        #: op -> [calls, addrs, seconds]
        self.engine: Dict[str, List[float]] = defaultdict(lambda: [0, 0, 0.0])


def _file_bytes(path: object) -> int:
    try:
        return os.path.getsize(os.fspath(path))
    except (OSError, TypeError):
        return 0


def _load_trace_bytes(store: Any, args: tuple, record: object) -> int:
    if record is None:
        return 0
    return _file_bytes(store._path(args[0]))


class Instrumentation:
    """Installs (and removes) the layer wrappers in this process."""

    def __init__(self, serve: bool = False) -> None:
        self.serve = serve
        self._state = _ThreadState()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> "Instrumentation":
        if self._undo:
            return self
        functions = _FUNCTIONS + (_SERVE_FUNCTIONS if self.serve else ())
        for module, attr, name in functions:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._spanned(getattr(mod, attr), name))
        methods = _METHODS + (_SERVE_METHODS if self.serve else ())
        for module, cls_name, attr, name in methods:
            self._wrap_method(module, cls_name, attr, name)
        for module, cls_name in _ACCELERATOR_CLASSES:
            self._wrap_method(module, cls_name, "prepare", "prepare")
            for attr in ("run_combination", "run_aggregation"):
                self._wrap_method(module, cls_name, attr, f"{_KERNEL}.{attr}")
        base = importlib.import_module("repro.hymm.base")
        self._patch(
            base, "combination_dense",
            self._kernel(base.combination_dense, f"{_KERNEL}.combination_dense"),
        )
        for module, cls_name in _STATE_CLASSES:
            self._wrap_method(module, cls_name, "snapshot_state", "replay.snapshot")
            self._wrap_method(module, cls_name, "restore_state", "replay.restore")
        for module, cls_name in _ENGINE_CLASSES:
            cls = getattr(importlib.import_module(module), cls_name)
            for op in ENGINE_OPS:
                if op in cls.__dict__:
                    self._patch(cls, op, self._engine_op(cls.__dict__[op], op))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def _patch(self, owner: object, attr: str, value: object) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def _wrap_method(self, module: str, cls_name: str, attr: str, name: str) -> None:
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._spanned(raw.__func__, name)))
        elif name.startswith(_KERNEL + "."):
            self._patch(cls, attr, self._kernel(raw, name))
        else:
            self._patch(cls, attr, self._spanned(raw, name))

    def _spanned(self, fn: Callable, name: str) -> Callable:
        state = self._state
        bytes_of = _BYTES_OF.get(name)
        outcome = name in _OUTCOME_SPANS

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if name in state.open:
                return fn(*args, **kwargs)
            state.open.add(name)
            try:
                with span(name):
                    out = fn(*args, **kwargs)
            finally:
                state.open.discard(name)
            if bytes_of is not None:
                instant(name + ".bytes", bytes=bytes_of(args[0], args[1:], out))
            if outcome:
                instant(name + ".outcome", hit=int(out is not None))
            return out

        return wrapper

    def _kernel(self, fn: Callable, name: str) -> Callable:
        """A kernel span, followed by the engine work done inside it."""
        state = self._state
        inner = self._spanned(fn, name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if state.kernel_depth:
                return inner(*args, **kwargs)
            before = {op: list(v) for op, v in state.engine.items()}
            state.kernel_depth = 1
            try:
                return inner(*args, **kwargs)
            finally:
                state.kernel_depth = 0
                delta: Dict[str, float] = {}
                for op, (calls, addrs, secs) in state.engine.items():
                    c0, a0, s0 = before.get(op, (0, 0, 0.0))
                    if calls != c0:
                        delta[f"{op}.calls"] = calls - c0
                        delta[f"{op}.addrs"] = addrs - a0
                        delta[f"{op}.self_us"] = round((secs - s0) * 1e6, 3)
                instant("engine", kernel=name, **delta)

        return wrapper

    def _engine_op(self, fn: Callable, op: str) -> Callable:
        state = self._state
        clock = time.perf_counter
        counts_addrs = op in ENGINE_PRIMITIVES

        @functools.wraps(fn)
        def wrapper(self_: Any, *args: Any, **kwargs: Any) -> Any:
            if state.engine_busy:  # a primitive built on another one
                return fn(self_, *args, **kwargs)
            state.engine_busy = True
            t0 = clock()
            try:
                return fn(self_, *args, **kwargs)
            finally:
                elapsed = clock() - t0
                state.engine_busy = False
                tally = state.engine[op]
                tally[0] += 1
                if counts_addrs:
                    tally[1] += len(args[0])
                tally[2] += elapsed
                if not state.kernel_depth:
                    instant("engine.outside_kernel", op=op,
                            self_us=round(elapsed * 1e6, 3))

        return wrapper


#: Span name -> bytes moved, from (receiver, other args, return value).
_BYTES_OF: Dict[str, Callable[[Any, tuple, Any], int]] = {
    "replay.store_trace": lambda store, args, path: _file_bytes(path),
    "replay.load_trace": _load_trace_bytes,
    "runtime.result_store": lambda cache, args, path: _file_bytes(path),
}
#: Spans followed by a hit (non-None return) / miss outcome event.
_OUTCOME_SPANS = frozenset({"replay.lookup", "runtime.result_load"})


# ----------------------------------------------------------------------
# Span file -> per-layer metrics
# ----------------------------------------------------------------------
def self_times(events: List[Dict[str, Any]]) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
    """Per span name: summed self seconds, outermost-call count and
    summed total seconds.

    Spans nest per thread; a span's children are the spans on its
    thread that start inside it, and its self time is its duration
    minus the union of its direct children's intervals.
    """
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    by_thread: Dict[tuple, list] = defaultdict(list)
    for ev in events:
        if ev.get("ph") != "X":
            continue
        total_s[ev["name"]] += ev["dur"] / 1e6
        calls[ev["name"]] += 1
        if ev["name"] in _ASYNC_SPANS:
            self_s[ev["name"]] += ev["dur"] / 1e6
        else:
            by_thread[(ev["pid"], ev["tid"])].append(ev)
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        # stack entries: [name, start, end, covered_until, covered]
        stack: List[list] = []

        def close(entry: list) -> None:
            self_s[entry[0]] += max(0.0, (entry[2] - entry[1]) - entry[4]) / 1e6

        for ev in spans:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                lo = max(start, parent[3])
                hi = min(end, parent[2])
                if hi > lo:
                    parent[4] += hi - lo
                    parent[3] = hi
            stack.append([ev["name"], start, end, start, 0.0])
        while stack:
            close(stack.pop())
    return dict(self_s), dict(calls), dict(total_s)


def _sum_instants(events: List[Dict[str, Any]], name: str, key: str) -> float:
    return sum(
        ev.get("args", {}).get(key, 0)
        for ev in events
        if ev.get("ph") == "i" and ev["name"] == name
    )


def engine_totals(events: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """op -> [calls, addrs, self seconds] from the ``engine`` events."""
    totals: Dict[str, List[float]] = {op: [0, 0, 0.0] for op in ENGINE_OPS}
    for ev in events:
        if ev.get("ph") != "i" or ev["name"] != "engine":
            continue
        args = ev.get("args", {})
        for op in ENGINE_OPS:
            if f"{op}.calls" in args:
                totals[op][0] += args[f"{op}.calls"]
                totals[op][1] += args[f"{op}.addrs"]
                totals[op][2] += args[f"{op}.self_us"] / 1e6
    return totals


def layer_metrics(trace: Dict[str, Any], serve: bool = False) -> Dict[str, float]:
    """Per-layer metrics (seconds are self time) from one span file."""
    events = trace["traceEvents"]
    self_s, calls, total_s = self_times(events)
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    m: Dict[str, float] = {}

    m["graphs.load_dataset_s"] = s("graphs.load_dataset")
    m["gcn.model_build_s"] = s("gcn.model_build")
    m["graphs.calls"] = calls.get("graphs.load_dataset", 0)

    m["prepare.self_s"] = s("prepare")
    for part in ("degree_sort", "coo_permute", "plan_regions", "coo_to_csr", "coo_to_csc"):
        m[f"prepare.{part}_s"] = s(f"prepare.{part}")
    m["prepare.calls"] = calls.get("prepare", 0)

    engine = engine_totals(events)
    engine_s = sum(v[2] for v in engine.values())
    kernel_spans = [n for n in self_s if n.startswith(_KERNEL + ".")]
    m["kernels.self_s"] = max(0.0, sum(s(n) for n in kernel_spans) - engine_s)
    m["kernels.calls"] = sum(calls[n] for n in kernel_spans)
    addrs = 0
    for op in ENGINE_OPS:
        op_calls, op_addrs, op_s = engine[op]
        m[f"engine.{op}.self_s"] = op_s
        m[f"engine.{op}.calls"] = op_calls
        if op in ENGINE_PRIMITIVES:
            m[f"engine.{op}.addrs"] = op_addrs
            addrs += op_addrs
    m["engine.calls"] = sum(engine[op][0] for op in ENGINE_PRIMITIVES)
    m["engine.outside_kernel_calls"] = sum(
        1 for ev in events
        if ev.get("ph") == "i" and ev["name"] == "engine.outside_kernel"
    )
    primitive_s = sum(engine[op][2] for op in ENGINE_PRIMITIVES)
    m["engine.ns_per_addr"] = primitive_s / addrs * 1e9 if addrs else 0.0

    replayed = _sum_instants(events, "replay.lookup.outcome", "hit")
    m["replay.lookup_s"] = s("replay.lookup")
    m["replay.load_trace_s"] = s("replay.load_trace")
    m["replay.load_trace_bytes"] = _sum_instants(events, "replay.load_trace.bytes", "bytes")
    m["replay.restore_s"] = s("replay.restore")
    m["replay.record_s"] = s("replay.record")
    m["replay.snapshot_s"] = s("replay.snapshot")
    m["replay.store_trace_s"] = s("replay.store_trace")
    m["replay.store_trace_bytes"] = _sum_instants(events, "replay.store_trace.bytes", "bytes")
    m["replay.phases_replayed"] = replayed
    m["replay.phases_recorded"] = calls.get("replay.record", 0)
    phases = replayed + m["replay.phases_recorded"]
    m["replay.hit_ratio"] = replayed / phases if phases else 0.0

    loads = calls.get("runtime.result_load", 0)
    m["runtime.result_store_s"] = s("runtime.result_store")
    m["runtime.result_store_bytes"] = _sum_instants(events, "runtime.result_store.bytes", "bytes")
    m["runtime.result_load_s"] = s("runtime.result_load")
    m["runtime.to_dict_s"] = s("runtime.to_dict")
    m["runtime.from_dict_s"] = s("runtime.from_dict")
    m["runtime.executor_overhead_s"] = (
        s("runtime.executor") + s("runtime.cache_probe") + s("runtime.sweep")
    )
    # The program's own per-job span: run-loop glue (buffer set-up,
    # phase bookkeeping, trace application) outside every named layer.
    m["runtime.run_loop_s"] = s("runtime.execute")
    hits = _sum_instants(events, "runtime.result_load.outcome", "hit")
    m["runtime.cache_hit_ratio"] = hits / loads if loads else 0.0

    for key, span_name in (
        ("decode", "serve.decode"), ("parse", "serve.parse"),
        ("spec", "serve.spec"), ("fingerprint", "serve.fingerprint"),
        ("encode", "serve.encode"),
    ):
        m[f"serve.{key}_s"] = s(span_name)
    if serve:
        m["serve.cache_load_s"] = s("runtime.result_load")
        m["serve.to_dict_s"] = s("runtime.to_dict")
        m["serve.probe_wait_s"] = total_s.get("serve.cache_probe", 0.0)
        m["serve.miss_lane_busy_s"] = total_s.get("runtime.executor", 0.0)
    else:
        for key in ("cache_load_s", "to_dict_s", "probe_wait_s", "miss_lane_busy_s"):
            m[f"serve.{key}"] = 0.0
    return m


def engine_calls_between(trace: Dict[str, Any], t0: float, t1: float) -> int:
    """Engine batch calls whose kernel ended in the wall-clock window
    ``[t0, t1)`` (``time.time()`` seconds), using the trace's epoch."""
    epoch = trace.get("otherData", {}).get("epoch_s", 0.0)
    lo, hi = (t0 - epoch) * 1e6, (t1 - epoch) * 1e6
    n = 0
    for ev in trace["traceEvents"]:
        if ev.get("ph") == "i" and ev["name"] == "engine" and lo <= ev["ts"] < hi:
            n += sum(ev["args"].get(f"{op}.calls", 0) for op in ENGINE_PRIMITIVES)
    return n


def format_table(metrics: Dict[str, float], not_applicable: Optional[set] = None) -> str:
    """Aligned per-layer table; seconds rows also show their share of
    the summed self time."""
    not_applicable = not_applicable or set()
    timed = {
        k: v for k, v in metrics.items()
        if k.endswith("_s") and k not in not_applicable
        and not k.startswith("overhead.")
        and k not in ("serve.miss_lane_busy_s", "serve.probe_wait_s")
    }
    whole = sum(timed.values()) or 1.0
    lines = []
    for key in sorted(metrics):
        if key in not_applicable:
            lines.append(f"  {key:40s} {'n/a':>14s}")
            continue
        value = metrics[key]
        share = f"  {100.0 * value / whole:5.1f}%" if key in timed else ""
        if isinstance(value, float) and not float(value).is_integer():
            lines.append(f"  {key:40s} {value:14.6f}{share}")
        else:
            lines.append(f"  {key:40s} {int(value):14d}{share}")
    return "\n".join(lines)
