"""Output oracle: per-job reference digests from the scalar engine.

A digest is a job's SimStats totals plus a SHA-256 over its output
matrices.  References come from the scalar reference engine
(``engine="scalar"``) with replay off, never from the batched engine or
the trace store the benchmark times.  ``oracle_digests.json`` holds
them for the seeds ``0 .. N-1`` (``python3 perfbench/oracle.py SEED...``
adds the entries those seeds lack, two helper processes wide), and every
``--seed`` of a run maps onto one of them (:func:`input_seed`).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Dict, List, Optional

import children

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST_FILE = HERE / "oracle_digests.json"

#: Fields compared between a result and its reference.
DIGEST_KEYS = (
    "cycles", "busy_cycles", "accesses", "misses", "dram_bytes",
    "lsq_forwards", "output_sha256",
)


def spec_label(spec) -> str:
    """Readable, seed-free key of one job within a seed's table."""
    label = f"{spec.dataset}/{spec.kind}"
    if spec.config is not None:
        label += f"/dmb={spec.config.dmb_bytes}"
    return label


def stats_totals(stats) -> Dict[str, int]:
    hits = sum(stats.buffer_hits.values())
    misses = sum(stats.buffer_misses.values())
    return {
        "cycles": int(stats.cycles),
        "busy_cycles": int(stats.busy_cycles),
        "accesses": int(hits + misses),
        "misses": int(misses),
        "dram_bytes": int(
            sum(stats.dram_read_bytes.values()) + sum(stats.dram_write_bytes.values())
        ),
        "lsq_forwards": int(stats.lsq_forwards),
    }


def digest(result) -> Dict[str, object]:
    """Digest of a :class:`repro.hymm.base.RunResult`."""
    h = hashlib.sha256()
    for out in result.outputs:
        h.update(str(out.dtype).encode())
        h.update(str(out.shape).encode())
        h.update(out.tobytes())
    doc: Dict[str, object] = stats_totals(result.stats)
    doc["output_sha256"] = h.hexdigest()
    return doc


def reference_digest(spec) -> Dict[str, object]:
    """Run ``spec`` live on the scalar engine and digest the result."""
    from repro.bench.workloads import make_model
    from repro.runtime import make_accelerator

    base = spec.config
    if base is None:
        base = make_accelerator(spec.kind, seed=spec.seed).config
    accelerator = make_accelerator(
        spec.kind, base.with_overrides(engine="scalar"), spec.sort_mode,
        seed=spec.seed,
    )
    model = make_model(
        spec.dataset, spec.scale, n_layers=spec.n_layers, seed=spec.seed,
        feature_length=spec.feature_length,
    )
    return digest(accelerator.run_inference(model, replay_session=None))


def _compute(seed: int, specs: List,
             work_dir: Optional[pathlib.Path] = None) -> Dict[str, Dict[str, object]]:
    """Reference digests of ``specs``, in two helper processes."""
    labels = [spec_label(s) for s in specs]
    halves = [labels[i::2] for i in range(2) if labels[i::2]]
    tables = children.run_json(
        "oracle.py", [["--compute", str(seed), *half] for half in halves], work_dir)
    return {label: d for table in tables for label, d in table.items()}


def compute_main(seed: int, labels: List[str], out: str) -> int:
    """Helper-process side of :func:`_compute`: write the digests of
    the seed's jobs named by ``labels`` to ``out`` as JSON."""
    from workloads import all_specs

    specs = [s for s in all_specs(seed) if spec_label(s) in labels]
    table = {spec_label(s): reference_digest(s) for s in specs}
    pathlib.Path(out).write_text(json.dumps(table), encoding="utf-8")
    return 0


def _stored() -> Dict[str, Dict[str, Dict[str, object]]]:
    if not DIGEST_FILE.exists():
        return {}
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))["seeds"]


def input_seed(seed: int) -> int:
    """The stored seed whose inputs a run with ``--seed seed`` uses.

    Any ``--seed`` maps onto the seeds ``0 .. N-1`` of
    ``oracle_digests.json``, so that no run spends minutes of scalar
    simulation on references before it can check its results."""
    return seed % len(_stored())


def references(seed: int) -> Dict[str, Dict[str, object]]:
    """Reference digest per job label, for one stored seed."""
    return _stored()[str(seed)]


def mismatch(got: Dict[str, object], want: Dict[str, object]) -> str:
    """Empty when every field of ``got`` matches ``want``, else the
    differing fields (a served hit carries only its cycle count)."""
    bad = [k for k in DIGEST_KEYS if k in got and got[k] != want.get(k)]
    return ", ".join(f"{k}: {got[k]} != {want.get(k)}" for k in bad)


def main(argv: List[str]) -> int:
    """Store the digests the given seeds lack."""
    sys.path.insert(0, str(ROOT / "src"))
    if argv[:1] == ["--compute"]:
        return compute_main(int(argv[1]), argv[2:-1], argv[-1])
    from workloads import all_specs

    doc = {"seeds": _stored()}
    for arg in argv:
        table = doc["seeds"].setdefault(str(int(arg)), {})
        missing = [s for s in all_specs(int(arg)) if spec_label(s) not in table]
        if missing:
            table.update(_compute(int(arg), missing))
            DIGEST_FILE.write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
        print(f"seed {arg}: {len(missing)} digests added", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
