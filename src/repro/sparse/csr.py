"""Compressed sparse row (CSR) matrix.

CSR is the format HyMM's row-wise-product (RWP) dataflow consumes
(paper Table I: "CSR (others)").  The pointer array is what the SMQ's
pointer buffer holds; ``indices``/``values`` fill the index buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.sparse.coo import COOMatrix, INDEX_BYTES, INDEX_DTYPE, VALUE_BYTES, VALUE_DTYPE


@dataclass
class CSRMatrix:
    """Compressed sparse row storage.

    ``indptr`` has ``shape[0] + 1`` entries; row ``i`` owns the slice
    ``indices[indptr[i]:indptr[i+1]]`` / ``values[...]`` with column
    indices sorted ascending within each row.
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        self.indptr = np.asarray(self.indptr, dtype=INDEX_DTYPE)
        self.indices = np.asarray(self.indices, dtype=INDEX_DTYPE)
        self.values = np.asarray(self.values, dtype=VALUE_DTYPE)
        self._validate()

    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if self.indptr.size != n_rows + 1:
            raise ValueError(
                f"indptr must have {n_rows + 1} entries, got {self.indptr.size}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size != self.values.size:
            raise ValueError("indices and values must have equal length")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n_cols):
            raise ValueError("column index out of bounds")

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self.values.size)

    def row(self, i: int) -> "Tuple[np.ndarray, np.ndarray]":
        """Return ``(col_indices, values)`` views of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def row_nnz(self, i: int) -> int:
        """Non-zero count of row ``i``."""
        return int(self.indptr[i + 1] - self.indptr[i])

    def row_degrees(self) -> np.ndarray:
        """Per-row non-zero counts (the out-degree vector for an adjacency matrix)."""
        return np.diff(self.indptr)

    def iter_rows(self) -> "Iterator[Tuple[int, np.ndarray, np.ndarray]]":
        """Yield ``(row, col_indices, values)`` for every non-empty row."""
        for i in range(self.shape[0]):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            if hi > lo:
                yield i, self.indices[lo:hi], self.values[lo:hi]

    def storage_bytes(self, pointer_bytes: int = INDEX_BYTES) -> int:
        """Bytes for the compressed stream: pointers + indices + values.

        This is the quantity the paper's Figure 6 compares against the
        region-tiled format.
        """
        return (
            self.indptr.size * pointer_bytes
            + self.nnz * INDEX_BYTES
            + self.nnz * VALUE_BYTES
        )

    def to_coo(self) -> COOMatrix:
        """Expand back to canonical COO triplets."""
        rows = np.repeat(
            np.arange(self.shape[0], dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        return COOMatrix(self.shape, rows, self.indices.copy(), self.values.copy())

    def to_dense(self) -> np.ndarray:
        """Materialise as dense ``float32`` (tests / small matrices only)."""
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        rows = np.repeat(
            np.arange(self.shape[0], dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        out[rows, self.indices] = self.values
        return out

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        """Compress canonical COO triplets (already row-major sorted)."""
        indptr = np.zeros(coo.shape[0] + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(coo.rows, minlength=coo.shape[0]), out=indptr[1:])
        return cls(coo.shape, indptr, coo.cols.copy(), coo.values.copy())

    def columns_ascend(self) -> bool:
        """Whether column indices strictly ascend within every row, O(nnz)."""
        step = np.diff(self.indices) > 0
        # A step across a row boundary may descend.
        starts = self.indptr[1:-1]
        step[starts[(starts > 0) & (starts < self.nnz)] - 1] = True
        return bool(step.all())

    def permute_rows(self, perm: np.ndarray) -> "CSRMatrix":
        """Relabel rows: row ``i`` moves to ``perm[i]`` (old -> new index).

        The row-only case of :meth:`COOMatrix.permute` followed by
        compression, in O(nnz) with no sort: each row's slice moves
        whole, and its column indices stay ascending.  ``perm`` must be
        a bijection on the rows; relabellings that merge rows go through
        :meth:`COOMatrix.permute`, which sums the colliding entries.

        A matrix built from raw arrays may hold unsorted or repeated
        column indices within a row; it takes the COO route, which
        sorts and merges them, so the result is canonical either way.
        """
        n_rows = self.shape[0]
        perm = np.asarray(perm, dtype=INDEX_DTYPE)
        if perm.shape != (n_rows,) or (
            n_rows and (perm.min() < 0 or perm.max() >= n_rows)
        ):
            raise ValueError(f"perm must map the {n_rows} rows into [0, {n_rows})")
        if not np.all(np.bincount(perm, minlength=n_rows) == 1):
            raise ValueError("perm must be a bijection: two rows map to one")
        if not self.columns_ascend():
            return CSRMatrix.from_coo(self.to_coo().permute(row_perm=perm))
        source = np.empty_like(perm)
        source[perm] = np.arange(n_rows, dtype=INDEX_DTYPE)
        counts = np.diff(self.indptr)[source]
        indptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        # Entry k of new row r comes from old position indptr_old[source[r]] + k.
        gather = np.repeat(self.indptr[source] - indptr[:-1], counts)
        gather += np.arange(indptr[-1], dtype=INDEX_DTYPE)
        return CSRMatrix(self.shape, indptr, self.indices[gather], self.values[gather])

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
