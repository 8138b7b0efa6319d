"""The benchmark's three workloads, driven through public entry points.

``sweep-cold``
    One serial ``SweepExecutor.run`` of the 13-job sweep against an
    empty result cache and an empty trace store: every job simulates
    live, records its phase traces and stores its result.
``sweep-replay``
    The same 13 jobs after a recording pass (set-up): each timed pass
    runs against a fresh, empty result cache, so all 52 phases replay
    from the trace store and the engine does no work.
``serve``
    A ``python -m repro.serve serve`` subprocess.  Its 9-spec working
    set is submitted once, cold (the timed "sweep" through the server),
    then hits arrive open-loop at a fixed rate on connection 1: a
    ``quiet`` phase of hits only, then a ``mixed`` phase where misses on
    connection 2 simulate live on the server's worker thread beside
    the hits.

See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.workloads import bench_scale, make_model
from repro.hymm.base import RunResult
from repro.hymm.config import HyMMConfig
from repro.obs.schema import validate_trace
from repro.runtime import JobSpec, ResultCache, SweepExecutor
from repro.serve.client import ServeClient
from repro.telemetry import SpanRecorder, install_recorder

import children
import layers
import loadgen
import oracle

HERE = pathlib.Path(__file__).resolve().parent

KINDS = ("op", "rwp", "cwp", "gcod", "op-deferred", "op-tiled", "hymm")
#: cora covers all seven dataflows; amazon-photo (low miss rates: the
#: all-hit lane and merge/RMW) and coauthor-cs (high miss rates: miss
#: epochs) cover both engine regimes of the 7x7 suite.
SWEEP_JOBS = tuple(("cora", k) for k in KINDS) + tuple(
    (d, k) for d in ("amazon-photo", "coauthor-cs") for k in ("op", "rwp", "hymm")
)
WORKING_SET = tuple(("cora", k) for k in KINDS) + (
    ("amazon-photo", "hymm"), ("coauthor-cs", "hymm"),
)
N_LAYERS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Host seconds of ``--seconds`` per timed replay pass (16 passes at
#: 16 s), and the fixed pass count of a traced run.
SECONDS_PER_PASS = 1.0
TRACED_PASSES = 3
#: Serve: offered hit rate, about half the hit path's closed-loop
#: capacity when the shared 2-core host runs slow (~90 req/s; ~135 when
#: it runs fast).  At 60 req/s the queue amplified host-speed noise: the
#: 10-seed quartile spread of hit p50 was 0.28.
HIT_RATE = 40.0
#: p99 generator lateness above which a serve run is invalid: one gap
#: between arrivals.  Past it the slowest 1% of sends land in the next
#: request's slot, so the offered load is no longer the stated one.
LATE_LIMIT_MS = 1000.0 / HIT_RATE
#: Measurements per serve run: an invalid one is reported and taken again
#: on a fresh server, and the run is invalid only if every one was.
LOAD_ATTEMPTS = 2
#: Share of ``--seconds`` in the quiet phase: 512 hits at 16 s, so p98
#: has 10 samples beyond it.
QUIET_SHARE = 0.8
#: Misses per run, spaced so that the hits queued behind one miss have
#: drained before the next starts.
N_MISSES = 5
MISS_SPACING_S = 2.5

clock = time.perf_counter


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _spec(dataset: str, kind: str, seed: int, config: Optional[HyMMConfig] = None) -> JobSpec:
    return JobSpec(dataset, kind, bench_scale(dataset), n_layers=N_LAYERS,
                   seed=seed, config=config)


def sweep_specs(seed: int) -> List[JobSpec]:
    return [_spec(d, k, seed) for d, k in SWEEP_JOBS]


def working_set(seed: int) -> List[JobSpec]:
    return [_spec(d, k, seed) for d, k in WORKING_SET]


def miss_specs(seed: int) -> List[JobSpec]:
    """cora/hymm with a seeded DMB size: a timing-relevant change, so
    neither the result cache nor the trace store holds it."""
    rng = random.Random(f"misses-{seed}")
    steps = rng.sample([k for k in range(-8, 9) if k], N_MISSES)
    return [
        _spec("cora", "hymm", seed, HyMMConfig(dmb_bytes=(256 + 8 * k) * 1024))
        for k in steps
    ]


def all_specs(seed: int) -> List[JobSpec]:
    """Every job any workload checks against the oracle."""
    return sweep_specs(seed) + miss_specs(seed)


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------
class Checks:
    """Operations attempted, failures, and digests awaiting the oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._pending: List[Tuple[str, str, Dict[str, object]]] = []

    def op(self, what: str, label: str, got: Optional[Dict[str, object]], error: str = "") -> None:
        self.attempted += 1
        if got is None or error:
            self.fail(f"{what} {label}: {error or 'no result'}")
        else:
            self._pending.append((what, label, got))

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def sweep(self, what: str, specs: Sequence[JobSpec], sweep) -> None:
        for spec in specs:
            result = sweep.for_spec(spec)
            self.op(what, oracle.spec_label(spec),
                    None if result is None else oracle.digest(result))

    def verify(self, refs: Dict[str, Dict[str, object]]) -> None:
        for what, label, got in self._pending:
            want = refs.get(label)
            bad = "no reference" if want is None else oracle.mismatch(got, want)
            if bad:
                self.fail(f"{what} {label}: {bad}")
        self._pending.clear()


@dataclass
class Report:
    """What one run measured."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    not_applicable: set = field(default_factory=set)
    lines: List[str] = field(default_factory=list)
    invalid: str = ""


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def p98(values: Sequence[float]) -> float:
    return percentile(values, 98)


def p99(values: Sequence[float]) -> float:
    return percentile(values, 99)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_totals(results: Sequence[RunResult]) -> Dict[str, int]:
    out = {"sim.accesses": 0, "sim.misses": 0, "sim.dram_bytes": 0,
           "sim.lsq_forwards": 0, "sim.cycles": 0}
    for result in results:
        totals = oracle.stats_totals(result.stats)
        for key in ("accesses", "misses", "dram_bytes", "lsq_forwards", "cycles"):
            out[f"sim.{key}"] += totals[key]
    return out


class Tracing:
    """Layer wrappers plus a span recorder, on only inside :meth:`on`."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.recorder = SpanRecorder()
        self._instrumentation = layers.Instrumentation()

    @contextmanager
    def on(self) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        self._instrumentation.install()
        previous = install_recorder(self.recorder)
        try:
            yield
        finally:
            install_recorder(previous)
            self._instrumentation.uninstall()


def check_span_file(path: pathlib.Path, report: Report) -> dict:
    """Load a span file and check it the way ``repro.obs validate`` does."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    problems = validate_trace(doc)
    if problems:
        raise RuntimeError(f"span file {path} is invalid: {problems[:3]}")
    report.lines.append(f"span file: {path} ({len(doc['traceEvents'])} events, valid)")
    return doc


SERVE_LAYER_KEYS = (
    "serve.submitted", "serve.cache_served", "serve.executed", "serve.failed",
    "serve.server_hitpath_p50_ms",
)
LOADGEN_KEYS = tuple(
    f"loadgen.{phase}.{key}"
    for phase in ("quiet", "mixed")
    for key in ("late_p99_ms", "sent", "succeeded", "failed")
) + (
    "loadgen.quiet.hit_p50_ms", "loadgen.quiet.hit_p98_ms", "loadgen.quiet.hit_p99_ms",
    "loadgen.mixed.hit_p50_ms", "loadgen.mixed.hit_p99_ms", "loadgen.mixed.miss_p50_s",
)


# ----------------------------------------------------------------------
# sweep-cold / sweep-replay
# ----------------------------------------------------------------------
def record_main(seed: int, cache_dir: str, trace_root: str, out: str) -> int:
    """The recording pass of sweep-replay's set-up, run as a helper
    process: one cold sweep of the seed's jobs into ``trace_root``;
    writes each job's digest (``null`` if it failed) to ``out``."""
    specs = sweep_specs(seed)
    sweep = SweepExecutor(cache=ResultCache(cache_dir), trace_root=trace_root).run(specs)
    digests = [None if r is None else oracle.digest(r) for r in map(sweep.for_spec, specs)]
    pathlib.Path(out).write_text(json.dumps(digests), encoding="utf-8")
    return 0


class SweepWorkload:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 work: pathlib.Path, checks: Checks) -> None:
        self.replay = name == "sweep-replay"
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.checks = checks
        self.specs = sweep_specs(seed)
        self.traces = work / "traces"
        self.tracing = Tracing(trace)

    def _dir(self, prefix: str) -> pathlib.Path:
        return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))

    def _executor(self, cache_dir: pathlib.Path, trace_root: pathlib.Path) -> SweepExecutor:
        return SweepExecutor(cache=ResultCache(cache_dir), trace_root=str(trace_root))

    # ------------------------------------------------------------------
    def setup(self) -> float:
        datasets = sorted({s.dataset for s in self.specs})
        times = []
        for i in range(SETUP_REPEATS):
            make_model.cache_clear()
            traced = self.tracing.on() if i == SETUP_REPEATS - 1 else nullcontext()
            with traced:
                t0 = clock()
                for d in datasets:
                    make_model(d, bench_scale(d), n_layers=N_LAYERS, seed=self.seed)
                times.append(clock() - t0)
        setup_s = p50(times)
        if self.replay:
            # In a helper process, so that this process's peak RSS is the
            # replay passes' and not the live recording's.
            t0 = clock()
            [digests] = children.run_json("workloads.py", [[
                "record", str(self.seed), str(self._dir("record-")), str(self.traces)]], self.work)
            setup_s += clock() - t0
            for spec, got in zip(self.specs, digests):
                self.checks.op("recording pass", oracle.spec_label(spec), got)
        return setup_s

    def _pass(self, what: str) -> Tuple[float, object, pathlib.Path]:
        """One timed sweep against an empty result cache."""
        cache_dir = self._dir("cache-")
        trace_root = self.traces if self.replay else self._dir("traces-")
        executor = self._executor(cache_dir, trace_root)
        t0 = clock()
        sweep = executor.run(self.specs)
        wall = clock() - t0
        self.checks.sweep(what, self.specs, sweep)
        m = sweep.manifest
        phases = 2 * N_LAYERS * len(self.specs)
        want = (phases, 0) if self.replay else (0, phases)
        if (m.replay_hits, m.replay_misses) != want:
            self.checks.fail(
                f"{what}: replayed/recorded phases {m.replay_hits}/{m.replay_misses},"
                f" expected {want[0]}/{want[1]}"
            )
        return wall, sweep, cache_dir

    def timed(self, passes: int) -> Dict[str, object]:
        """The measured part: ``passes`` sweeps, each against an empty
        result cache."""
        walls: List[float] = []
        sim: Dict[str, int] = {}
        for _ in range(passes):
            wall, sweep, cache_dir = self._pass("replayed job" if self.replay else "cold job")
            walls.append(wall)
            sim = sim or sim_totals(list(sweep.results.values()))
            shutil.rmtree(cache_dir, ignore_errors=True)
        return {"walls": walls, "sim": sim}

    # ------------------------------------------------------------------
    def run(self) -> Report:
        report = Report()
        setup_s = self.setup()
        passes = 1
        if self.replay:
            passes = TRACED_PASSES if self.trace else max(3, round(self.seconds / SECONDS_PER_PASS))
        untraced = self.timed(passes)
        sweep_s = p50(untraced["walls"])
        if not self.trace:
            accesses = untraced["sim"]["sim.accesses"]
            report.end_to_end = {
                "setup_s": setup_s,
                "sweep_s": sweep_s,
                "sim_accesses_per_s": accesses / sweep_s,
                "peak_rss_mb": peak_rss_mb(),
            }
            report.lines.append(
                "timed sweep(s), s: " + " ".join(f"{w:.3f}" for w in untraced["walls"]))
            report.lines.append("exact counts: " + json.dumps(untraced["sim"], sort_keys=True))
            return report

        with self.tracing.on():
            traced = self.timed(passes)
        span_file = self.work.parent / "spans" / f"{self.name}-seed{self.seed}.json"
        span_file.parent.mkdir(exist_ok=True)
        self.tracing.recorder.write(
            str(span_file), tool="perfbench", workload=self.name, seed=self.seed)
        doc = check_span_file(span_file, report)
        m = layers.layer_metrics(doc)
        m.update(traced["sim"])
        m["overhead.sweep_s"] = p50(traced["walls"]) - sweep_s
        for key in SERVE_LAYER_KEYS + LOADGEN_KEYS + ("overhead.hit_p50_ms",):
            m[key] = 0
        report.not_applicable = {
            k for k in m if k.startswith(("serve.", "loadgen.")) or k == "overhead.hit_p50_ms"}
        if self.replay and (m["engine.calls"] or m["kernels.calls"]):
            self.checks.fail(
                f"sweep-replay ran {m['engine.calls']} engine and "
                f"{m['kernels.calls']} kernel calls: replay fell back to live simulation"
            )
        report.per_layer = m
        return report


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.serve serve`` in a subprocess (via the launcher)."""

    def __init__(self, work: pathlib.Path, cache_dir: pathlib.Path,
                 span_file: Optional[pathlib.Path] = None) -> None:
        self.work = work
        self.cache_dir = cache_dir
        self.span_file = span_file
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> float:
        """Spawn and wait until it accepts; returns the seconds taken."""
        fd, ready_name = tempfile.mkstemp(prefix="ready-", dir=self.work)
        os.close(fd)
        ready = pathlib.Path(ready_name)
        ready.unlink()
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if self.span_file is not None:
            cmd.append("--traced")
        cmd += ["serve", "--host", "127.0.0.1", "--port", "0",
                "--cache-dir", str(self.cache_dir), "--ready-file", str(ready)]
        if self.span_file is not None:
            cmd += ["--span-file", str(self.span_file)]
        env = dict(os.environ, REPRO_TRACE_DIR=str(self.cache_dir / "traces"))
        self.log = open(ready.with_suffix(".log"), "wb")
        t0 = clock()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=self.log, env=env)
        while not ready.exists() or not ready.read_text().endswith("\n"):
            if self.proc.poll() is not None:
                self.log.close()
                raise RuntimeError(
                    "server exited at start-up:\n"
                    + ready.with_suffix(".log").read_text(errors="replace")[-2000:]
                )
            if clock() - t0 > 120:
                self.kill()
                raise RuntimeError("server did not become ready in 120s")
            time.sleep(0.005)
        elapsed = clock() - t0
        host, port = ready.read_text().split()
        self.host, self.port = host, int(port)
        return elapsed

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=300)

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            with self.client() as client:
                client.shutdown()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.proc = None
            self.log.close()

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


class ServeWorkload:
    def __init__(self, seed: int, seconds: float, trace: bool,
                 work: pathlib.Path, checks: Checks) -> None:
        self.seed = seed
        self.trace = trace
        self.work = work
        self.checks = checks
        self.working_set = working_set(seed)
        self.misses = miss_specs(seed)
        self.quiet_s = QUIET_SHARE * seconds
        self.mixed_s = max(seconds - self.quiet_s,
                           0.5 + MISS_SPACING_S * (N_MISSES - 1) + 1.5)
        self.servers: List[ServerProcess] = []

    def _server(self, cache_dir: pathlib.Path, span_file: Optional[pathlib.Path] = None) -> ServerProcess:
        server = ServerProcess(self.work, cache_dir, span_file)
        self.servers.append(server)
        return server

    def close(self) -> None:
        for server in self.servers:
            server.kill()

    # ------------------------------------------------------------------
    def prime(self, server: ServerProcess) -> Tuple[float, List[RunResult]]:
        """Submit the working set once (all misses); the timed sweep."""
        results = []
        with server.client() as client:
            t0 = clock()
            answers = [client.submit(s.to_dict(), wait=True, include_result=True)
                       for s in self.working_set]
            wall = clock() - t0
        for spec, answer in zip(self.working_set, answers):
            label = oracle.spec_label(spec)
            if answer.get("status") != "done" or answer.get("source") != "executed":
                self.checks.op("primed job", label, None,
                               f"status {answer.get('status')}, source {answer.get('source')}")
                continue
            result = RunResult.from_dict(answer["result"])
            results.append(result)
            self.checks.op("primed job", label, oracle.digest(result))
        return wall, results

    def load(self, server: ServerProcess, with_misses: bool = True) -> Dict[str, object]:
        """The open-loop phases; returns latencies and bookkeeping."""
        rng = random.Random(f"hits-{self.seed}")
        span_s = self.quiet_s + (self.mixed_s if with_misses else 0.0)
        hit_docs = [s.to_dict() for s in self.working_set]
        hits = loadgen.Stream([
            (i / HIT_RATE, loadgen.submit_line(hit_docs[j]), ("hit", j))
            for i in range(int(span_s * HIT_RATE))
            for j in [rng.randrange(len(hit_docs))]
        ])
        misses = loadgen.Stream([
            (self.quiet_s + 0.5 + MISS_SPACING_S * k,
             loadgen.submit_line(spec.to_dict()), ("miss", k))
            for k, spec in enumerate(self.misses)
        ] if with_misses else [])
        wall_offset = time.time() - clock()
        t0 = loadgen.run_streams(server.host, server.port, [hits, misses])
        out: Dict[str, object] = {
            "quiet_window": (t0 + wall_offset, t0 + wall_offset + self.quiet_s)}
        for stream in (hits, misses):
            if stream.error:
                self.checks.fail(f"load generator: {stream.error}")
        phases: Dict[str, Dict[str, list]] = {
            p: {"lat": [], "late": [], "sent": 0, "ok": 0, "failed": 0}
            for p in ("quiet", "mixed")}
        miss_lat = []
        # A mixed-phase hit counts when it is due while a miss is in
        # flight: one regime (simulation beside the hit path), whatever
        # share of the phase the misses cover on this host.
        in_flight = [(off, misses.done[k] - t0) for k, (off, _, _) in enumerate(misses.schedule)]
        beside = []
        for stream, specs in ((hits, self.working_set), (misses, self.misses)):
            for i, (offset, _, (kind, j)) in enumerate(stream.schedule):
                phase_name = "quiet" if offset < self.quiet_s else "mixed"
                phase = phases[phase_name]
                phase["sent"] += 1
                phase["late"].append(stream.lateness(i, t0))
                answer = stream.responses[i] or {}
                label = oracle.spec_label(specs[j])
                want_source = "cache-disk" if kind == "hit" else "executed"
                error = ""
                if answer.get("status") != "done" or answer.get("source") != want_source:
                    error = (f"status {answer.get('status')}, source "
                             f"{answer.get('source')}, error {answer.get('error')}")
                summary = answer.get("result_summary") or {}
                self.checks.op(f"{phase_name} {kind}",
                               label, {"cycles": summary.get("cycles")}, error)
                if error:
                    phase["failed"] += 1
                    continue
                phase["ok"] += 1
                latency = stream.latency(i, t0)
                if kind == "miss":
                    miss_lat.append(latency)
                elif phase_name == "quiet" or any(lo <= offset < hi for lo, hi in in_flight):
                    phase["lat"].append(latency)
                else:
                    beside.append(latency)
        for name, phase in phases.items():
            if not phase["sent"]:
                continue
            late = p99(phase["late"]) * 1e3
            out[name] = phase
            out[f"loadgen.{name}.late_p99_ms"] = late
            out[f"loadgen.{name}.sent"] = phase["sent"]
            out[f"loadgen.{name}.succeeded"] = phase["ok"]
            out[f"loadgen.{name}.failed"] = phase["failed"]
            if late > LATE_LIMIT_MS:
                out["invalid"] = (f"{name} phase: generator ran {late:.1f} ms late at p99 "
                                  f"(limit {LATE_LIMIT_MS:.1f} ms)")
        quiet = phases["quiet"]["lat"]
        out["loadgen.quiet.hit_p50_ms"] = p50(quiet) * 1e3
        out["loadgen.quiet.hit_p98_ms"] = p98(quiet) * 1e3
        out["loadgen.quiet.hit_p99_ms"] = p99(quiet) * 1e3
        if with_misses:
            # No hit overlapped a miss: fall back to every mixed-phase hit.
            mixed = phases["mixed"]["lat"] or beside
            out["loadgen.mixed.hit_p50_ms"] = p50(mixed) * 1e3
            out["loadgen.mixed.hit_p99_ms"] = p99(mixed) * 1e3
            out["loadgen.mixed.miss_p50_s"] = p50(miss_lat)
        return out

    def _finish(self, server: ServerProcess) -> Dict[str, object]:
        with server.client() as client:
            metrics = client.metrics()
        server.stop()
        return metrics

    def measure(self, server: ServerProcess, report: Report, with_misses: bool = True):
        """Prime ``server`` and run the load on it.  If the generator fell
        behind, the attempt is reported and discarded, and the whole
        measurement is taken again on a fresh server with an empty cache
        (whose start-up is not set-up time).  Outputs of every attempt
        are checked."""
        for attempt in range(1, LOAD_ATTEMPTS + 1):
            if attempt > 1:
                server = self._server(
                    pathlib.Path(tempfile.mkdtemp(prefix="serve-cache-", dir=self.work)),
                    server.span_file)
                server.start()
            sweep_s, results = self.prime(server)
            load = self.load(server, with_misses)
            metrics = self._finish(server)
            report.invalid = str(load.get("invalid", ""))
            if not report.invalid:
                break
            report.lines.append(f"measurement {attempt} of {LOAD_ATTEMPTS} invalid: {report.invalid}")
        return sweep_s, results, load, metrics

    # ------------------------------------------------------------------
    def run(self) -> Report:
        report = Report()
        if not self.trace:
            cache_dir = pathlib.Path(tempfile.mkdtemp(prefix="serve-cache-", dir=self.work))
            starts = []
            for i in range(SETUP_REPEATS):
                server = self._server(cache_dir)
                starts.append(server.start())
                if i < SETUP_REPEATS - 1:
                    server.stop()
            sweep_s, results, load, metrics = self.measure(server, report)
            if report.invalid:
                return report
            accesses = sim_totals(results)["sim.accesses"]
            report.end_to_end = {
                "setup_s": p50(starts),
                "sweep_s": sweep_s,
                "sim_accesses_per_s": accesses / sweep_s,
                "peak_rss_mb": (metrics["workers"]["peak_rss_kb"] or 0) / 1024.0,
            }
            report.lines.append(
                f"open loop at {HIT_RATE:g} req/s: quiet {len(load['quiet']['lat'])} hits, p50 "
                f"{load['loadgen.quiet.hit_p50_ms']:.1f} ms, p98 "
                f"{load['loadgen.quiet.hit_p98_ms']:.1f} ms, p99 "
                f"{load['loadgen.quiet.hit_p99_ms']:.1f} ms; mixed "
                f"{len(load['mixed']['lat'])} hits due while one of "
                f"{len(self.misses)} misses was in flight: p50 "
                f"{load['loadgen.mixed.hit_p50_ms']:.1f} ms, p99 "
                f"{load['loadgen.mixed.hit_p99_ms']:.1f} ms; miss p50 "
                f"{load['loadgen.mixed.miss_p50_s']:.2f} s; generator late p99 "
                f"{load['loadgen.quiet.late_p99_ms']:.2f} / "
                f"{load['loadgen.mixed.late_p99_ms']:.2f} ms"
            )
            report.lines.append("exact counts: " + json.dumps(sim_totals(results), sort_keys=True))
            return report

        span_file = self.work.parent / "spans" / f"serve-seed{self.seed}.json"
        span_file.parent.mkdir(parents=True, exist_ok=True)
        traced = self._server(pathlib.Path(tempfile.mkdtemp(prefix="serve-cache-", dir=self.work)),
                              span_file)
        traced.start()
        sweep_s, results, load, metrics = self.measure(traced, report)
        if report.invalid:
            return report
        # Untraced reference for the tracing overhead: same steps, no wrappers.
        plain = self._server(pathlib.Path(tempfile.mkdtemp(prefix="serve-cache-", dir=self.work)))
        plain.start()
        plain_sweep_s, _, plain_load, _ = self.measure(plain, report, with_misses=False)
        if report.invalid:
            return report

        doc = check_span_file(span_file, report)
        m = layers.layer_metrics(doc, serve=True)
        m.update(sim_totals(results))
        jobs = metrics["jobs"]
        m["serve.submitted"] = jobs["submitted"]
        m["serve.cache_served"] = jobs["cache_served"]
        m["serve.executed"] = jobs["executed"]
        m["serve.failed"] = jobs["failed"]
        m["serve.server_hitpath_p50_ms"] = metrics["hitpath_ms"].get("p50", 0.0)
        for key in LOADGEN_KEYS:
            m[key] = load[key]
        m["overhead.sweep_s"] = sweep_s - plain_sweep_s
        m["overhead.hit_p50_ms"] = (p50(load["quiet"]["lat"])
                                    - p50(plain_load["quiet"]["lat"])) * 1e3
        quiet_engine = layers.engine_calls_between(doc, *load["quiet_window"])
        if quiet_engine:
            self.checks.fail(f"quiet phase ran {quiet_engine} engine calls: hits simulated")
        report.lines.append(f"engine calls in the quiet phase: {quiet_engine}")
        report.per_layer = m
        return report


if __name__ == "__main__":
    if sys.argv[1:2] == ["record"]:
        sys.exit(record_main(int(sys.argv[2]), *sys.argv[3:6]))
    sys.exit(f"usage: {sys.argv[0]} record SEED CACHE_DIR TRACE_ROOT OUT")
