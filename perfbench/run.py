"""Host-time benchmark of the HyMM reproduction.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check --workload W --seed N

Workloads: ``sweep-cold``, ``sweep-replay``, ``serve`` (see README.md).
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace
1`` it runs the measured part once untraced and once with the layer
wrappers installed, and prints per-layer self times and exact work
counts.  ``--check`` runs the traced workload twice and fails if any
exact count differs between the two.  Every result is checked against
reference digests from the scalar engine, stored for the seeds 0 .. N-1;
``--seed`` picks the inputs of stored seed ``seed mod N``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Run from the root of a source checkout; everything the run writes stays
under ``.perfbench-work/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("sweep-cold", "sweep-replay", "serve")

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "sim_accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("ns_per_addr"):
        return "ns"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def is_exact(name: str) -> bool:
    """Per-layer counts that must repeat bit-for-bit for one seed.

    Result-cache bytes are left out: each record embeds its creation
    time and measured wall seconds, whose printed length varies."""
    if name == "runtime.result_store_bytes" or name.startswith("overhead."):
        return False
    return per_layer_unit(name) in ("count", "bytes", "ratio")


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: program sources not found under {ROOT / 'src'}; "
                 "run from the root of a source checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    WORK.mkdir(exist_ok=True)
    # Nothing the program writes may leave the checkout: default result
    # cache, trace tree and temp files all point under the work dir.
    for var in ("REPRO_FULL_SCALE", "REPRO_TELEMETRY_LOG"):
        os.environ.pop(var, None)
    os.environ["TMPDIR"] = str(WORK)
    tempfile.tempdir = str(WORK)


def run_once(args: argparse.Namespace) -> int:
    _bootstrap()
    import layers
    import oracle
    import workloads

    seed = oracle.input_seed(args.seed)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    os.environ["REPRO_TRACE_DIR"] = str(work / "default-traces")
    checks = workloads.Checks()
    serve = None
    try:
        if args.workload == "serve":
            serve = workloads.ServeWorkload(seed, args.seconds, args.trace, work, checks)
            report = serve.run()
        else:
            report = workloads.SweepWorkload(
                args.workload, seed, args.seconds, args.trace, work, checks).run()
        checks.verify(oracle.references(seed))
    finally:
        if serve is not None:
            serve.close()
        shutil.rmtree(work, ignore_errors=True)

    for line in report.lines:
        print(line)
    for error in checks.errors[:10]:
        print(f"FAILED: {error}")
    if report.invalid:
        print(f"INVALID RUN: {report.invalid}", file=sys.stderr)
        return 3

    if args.trace:
        values = report.per_layer
        print(f"per-layer self time and work ({args.workload}, input seed {seed}):")
        print(layers.format_table(values, report.not_applicable))
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(values.items())}
    else:
        values = report.end_to_end
        failed_frac = checks.failed / max(1, checks.attempted)
        for key, value in values.items():
            print(f"  {key:20s} {value:16.6f} {END_TO_END_UNITS[key]}")
        print(f"  {'failed_frac':20s} {failed_frac:16.6f} ({checks.failed}/{checks.attempted})")
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def check(args: argparse.Namespace) -> int:
    """Run the traced workload twice; fail on any drift in exact counts."""
    counts = []
    for i in range(2):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(proc.stdout)
            print(f"check: run {i + 1} exited with {proc.returncode}", file=sys.stderr)
            return 1
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if is_exact(k)})
    drift = sorted(k for k in counts[0].keys() | counts[1].keys()
                   if counts[0].get(k) != counts[1].get(k))
    for key in drift:
        print(f"DRIFT {key}: {counts[0].get(key)} != {counts[1].get(key)}")
    print(f"check {args.workload} seed {args.seed}: {len(counts[0])} exact counts, "
          f"{len(drift)} drifted")
    return 1 if drift else 0


def _terminate(signum, frame) -> None:
    # Unwind, so that every ``finally`` stops the processes it started.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run the traced workload twice, fail on count drift")
    args = parser.parse_args()
    if args.check:
        return check(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
