"""``prepare`` output is pinned, array for array, for every accelerator.

Every dataflow's preprocessing -- HyMM's degree-sort relabelling, the
region plan, every CSR/CSC compression -- feeds the kernels, the trace
signatures and the golden stats.  Its outputs are pure functions of the
model, so this test hashes every array ``prepare`` returns (operands,
``adj_csc``/``adj_csr``, ``low_rows_csr``, ``permutation``, the region
plan's bounds and tile matrices, the tiled-OP bands) and compares them
against digests of the lexsort-based implementation they replaced.  Any
change to the sort or compression paths that is not byte-identical --
a different order within a column, a different duplicate sum, a wider
dtype -- fails here before it can move a single simulated cycle.

Intentional changes regenerate the table with::

    REPRO_PRINT_PREPARE_DIGESTS=1 python -m pytest -s tests/hymm/test_prepare_identity.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from repro.bench.runner import ALL_ACCELERATORS
from repro.gcn.model import GCNModel
from repro.graphs import load_dataset
from repro.runtime.execute import make_accelerator

#: Host-measured or callable entries: not part of the operand identity.
_SKIP_KEYS = frozenset({"sort_ms", "unpermute"})

#: kind (or ``hymm:<sort_mode>``) -> SHA-256 over the ``prepare`` dict.
EXPECTED = {
    "op": "58739c600aa59a6c7987fa05c865fa99b9915d9059bfc677fdbf068845e0d23f",
    "rwp": "c925e289aa9dd22afdb4bd44d0ce32ca73ff9bfb81aacb52f980946e873acb2a",
    "cwp": "d60600fb7e17d4af509271aacf7ceb7a4a441715f129cde48305ac8f053319b0",
    "gcod": "e66ee513ff801ae8cf4888b1819fe4c03d78f128b5ae831217a097e91269b784",
    "op-deferred": "58739c600aa59a6c7987fa05c865fa99b9915d9059bfc677fdbf068845e0d23f",
    "op-tiled": "a1971b8b9d0696fe715c84469c37a076f65ed0ac3b13bd31f1a8f6b1c8be61f3",
    "hymm": "bfb528155358e533aad5ab002be5021bb25b18acb574ec11f32ada971df7e2eb",
    "hymm:random": "87a6e98e8ed33c057e62e5a83d545d9903748e9418dd6eadc20e4902a69b32f2",
    "hymm:none": "db67702eb4708401b8fac68a1a8415a416e11d9eca4e04d8345c54deaf43c89a",
}


def _feed(h: "hashlib._Hash", obj: object) -> None:
    """Hash ``obj`` structurally: arrays by dtype, shape and bytes."""
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        h.update(f"nd{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            if key in _SKIP_KEYS:
                continue
            h.update(repr(key).encode())
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif isinstance(obj, (bool, int, float, str, type(None), np.integer)):
        h.update(f"{type(obj).__name__}:{obj!r}".encode())
    else:
        raise TypeError(f"prepare returned an unhashable {type(obj).__name__}")


def prepare_digest(prep: dict) -> str:
    h = hashlib.sha256()
    _feed(h, prep)
    return h.hexdigest()


@pytest.fixture(scope="module")
def model():
    return GCNModel(load_dataset("cora", scale=0.1, seed=1), n_layers=2, seed=2)


def _accelerator(case: str):
    kind, _, sort_mode = case.partition(":")
    return make_accelerator(kind, sort_mode=sort_mode or None, seed=5)


def test_table_covers_every_accelerator():
    assert set(ALL_ACCELERATORS) <= set(EXPECTED)


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_prepare_matches_reference_digest(case, model):
    digest = prepare_digest(_accelerator(case).prepare(model))
    if os.environ.get("REPRO_PRINT_PREPARE_DIGESTS"):
        print(f'    "{case}": "{digest}",')
    assert digest == EXPECTED[case]

