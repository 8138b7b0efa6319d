"""The single-sort and no-sort conversions match two-key lexsort, byte for byte.

``COOMatrix`` canonicalises with one stable sort of ``row * n_cols +
col``; ``CSCMatrix.from_coo`` stable-sorts the column index alone;
``CSRMatrix.permute_rows`` moves row slices without sorting.  Each is
compared here against the lexsort-based formulation it replaced, kept
below as the reference: same dtypes, same shapes, same bytes -- order
within columns, order of duplicate accumulation and explicit zeros
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import COOMatrix, CSCMatrix, CSRMatrix, coo_to_csr
from repro.sparse.coo import INDEX_DTYPE, MAX_KEYED_CELLS, VALUE_DTYPE


# ----------------------------------------------------------------------
# lexsort references
# ----------------------------------------------------------------------
def _indptr(index: np.ndarray, n: int) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.add.at(indptr, index + 1, 1)
    return np.cumsum(indptr)


def ref_canonical(rows, cols, values):
    """Row-major lexsort, then sum duplicate runs in float64.

    Values pass through untouched when no coordinate repeats (summing
    would turn an explicit ``-0.0`` into ``0.0``)."""
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    if rows.size == 0:
        return rows, cols, values
    new_run = np.empty(rows.size, dtype=bool)
    new_run[0] = True
    new_run[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    if new_run.all():
        return rows, cols, values
    run_ids = np.cumsum(new_run) - 1
    summed = np.zeros(run_ids[-1] + 1, dtype=np.float64)
    np.add.at(summed, run_ids, values.astype(np.float64))
    keep = np.flatnonzero(new_run)
    return rows[keep], cols[keep], summed.astype(VALUE_DTYPE)


def ref_csc(coo: COOMatrix):
    order = np.lexsort((coo.rows, coo.cols))
    return _indptr(coo.cols, coo.shape[1]), coo.rows[order], coo.values[order]


def assert_same_bytes(got, expected):
    for a, b in zip(got, expected):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_values = st.one_of(
    st.just(0.0),
    st.floats(-1e3, 1e3, allow_nan=False, width=32),
    st.sampled_from([-0.0, 0.1, 1.0 / 3.0, 1e-7, 1e7]),
)


@st.composite
def triplets(draw, max_cols=12):
    """Unsorted triplets on a small grid, so duplicates are common."""
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, max_cols))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), _values
            ),
            max_size=60,
        )
    )
    rows = np.array([e[0] for e in entries], dtype=INDEX_DTYPE)
    cols = np.array([e[1] for e in entries], dtype=INDEX_DTYPE)
    values = np.array([e[2] for e in entries], dtype=VALUE_DTYPE)
    return (n_rows, n_cols), rows, cols, values


@st.composite
def wide_coo(draw):
    """Canonical COO whose column count straddles the uint16 limit."""
    n_cols = draw(st.sampled_from([65534, 65535, 65536, 65537, 200_000]))
    n_rows = draw(st.integers(1, 8))
    n = draw(st.integers(0, 40))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n))
    # Bias columns towards both ends of the range.
    col = st.one_of(
        st.integers(0, 3), st.integers(n_cols - 4, n_cols - 1), st.integers(0, n_cols - 1)
    )
    cols = draw(st.lists(col, min_size=n, max_size=n))
    values = np.arange(1, n + 1, dtype=VALUE_DTYPE)
    return COOMatrix((n_rows, n_cols), rows, cols, values)


# ----------------------------------------------------------------------
# canonicalisation
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(triplets())
def test_canonicalise_matches_lexsort(case):
    shape, rows, cols, values = case
    coo = COOMatrix(shape, rows, cols, values)
    assert_same_bytes(
        (coo.rows, coo.cols, coo.values), ref_canonical(rows, cols, values)
    )


def test_duplicates_sum_in_input_order():
    # Sums run in float64, where 1e17 + 1 rounds back to 1e17: in input
    # order the run (1e17, 1, -1e17) sums to 0, while any reordering
    # that cancels the big terms first would give 1.
    big = float(np.float32(1e17))
    vals = np.array([big, 1.0, 2.0, -big], dtype=VALUE_DTYPE)
    rows = np.array([0, 0, 0, 0])
    cols = np.array([1, 1, 0, 1])
    coo = COOMatrix((1, 2), rows, cols, vals)
    assert coo.values.tolist() == [2.0, 0.0]
    assert_same_bytes((coo.rows, coo.cols, coo.values), ref_canonical(rows, cols, vals))


def test_many_duplicates_sum_like_lexsort():
    # Small inputs sort stably even under an unstable algorithm; long
    # runs of equal keys do not, and their float64 sums then differ.
    rng = np.random.default_rng(0)
    n = 20_000
    rows = rng.integers(0, 6, n)
    cols = rng.integers(0, 5, n)
    big = float(np.float32(1e17))
    vals = rng.choice(np.array([big, -big, 1.0, 3.0], dtype=VALUE_DTYPE), n)
    coo = COOMatrix((6, 5), rows, cols, vals)
    assert_same_bytes((coo.rows, coo.cols, coo.values), ref_canonical(rows, cols, vals))


# ----------------------------------------------------------------------
# compression
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(triplets())
def test_csr_from_coo_matches_reference(case):
    coo = COOMatrix(*case)
    csr = CSRMatrix.from_coo(coo)
    assert_same_bytes(
        (csr.indptr, csr.indices, csr.values),
        (_indptr(coo.rows, coo.shape[0]), coo.cols, coo.values),
    )


@settings(max_examples=100, deadline=None)
@given(triplets())
def test_csc_from_coo_matches_lexsort(case):
    coo = COOMatrix(*case)
    csc = CSCMatrix.from_coo(coo)
    assert_same_bytes((csc.indptr, csc.indices, csc.values), ref_csc(coo))


@settings(max_examples=60, deadline=None)
@given(wide_coo())
def test_csc_from_coo_both_sides_of_uint16(coo):
    csc = CSCMatrix.from_coo(coo)
    assert_same_bytes((csc.indptr, csc.indices, csc.values), ref_csc(coo))


@pytest.mark.parametrize("n_cols", [65535, 65536, 65537])
def test_csc_last_column_at_the_boundary(n_cols):
    # The largest column index must survive narrowing (or its absence).
    coo = COOMatrix((2, n_cols), [0, 1, 1], [n_cols - 1, 0, n_cols - 1], [1, 2, 3])
    csc = CSCMatrix.from_coo(coo)
    assert_same_bytes((csc.indptr, csc.indices, csc.values), ref_csc(coo))
    assert csc.col(n_cols - 1)[0].tolist() == [0, 1]


# ----------------------------------------------------------------------
# row permutation
# ----------------------------------------------------------------------
@st.composite
def csr_and_perm(draw):
    shape, rows, cols, values = draw(triplets())
    csr = coo_to_csr(COOMatrix(shape, rows, cols, values))
    perm = draw(st.permutations(range(shape[0])))
    return csr, np.array(perm, dtype=INDEX_DTYPE)


@settings(max_examples=150, deadline=None)
@given(csr_and_perm())
def test_permute_rows_matches_coo_route(case):
    """Against ``to_coo().permute(row_perm=perm)`` -> ``coo_to_csr`` as
    the lexsort implementation computed it."""
    csr, perm = case
    got = csr.permute_rows(perm)
    old_rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    rows, cols, values = ref_canonical(perm[old_rows], csr.indices, csr.values)
    assert got.shape == csr.shape
    assert_same_bytes(
        (got.indptr, got.indices, got.values),
        (_indptr(rows, csr.shape[0]), cols, values),
    )


@st.composite
def raw_csr_and_perm(draw):
    """CSR from raw arrays: columns within a row in drawn order, repeats kept."""
    shape, rows, cols, values = draw(triplets())
    by_row = np.argsort(rows, kind="stable")
    csr = CSRMatrix(shape, _indptr(rows, shape[0]), cols[by_row], values[by_row])
    perm = draw(st.permutations(range(shape[0])))
    return csr, np.array(perm, dtype=INDEX_DTYPE)


@settings(max_examples=150, deadline=None)
@given(raw_csr_and_perm())
def test_permute_rows_canonicalises_raw_rows(case):
    """Unsorted or repeated columns within a row are sorted and merged, as
    the COO route did."""
    csr, perm = case
    got = csr.permute_rows(perm)
    old_rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    rows, cols, values = ref_canonical(perm[old_rows], csr.indices, csr.values)
    assert_same_bytes(
        (got.indptr, got.indices, got.values),
        (_indptr(rows, csr.shape[0]), cols, values),
    )


@pytest.mark.parametrize(
    "indptr, indices, ascend",
    [
        ([0, 2, 4], [0, 2, 1, 3], True),  # descends only across the row boundary
        ([0, 0, 2, 2], [1, 3], True),  # empty first and last rows
        ([0, 2, 2], [3, 1], False),  # unsorted within a row
        ([0, 2, 3], [1, 1, 0], False),  # repeated column
        ([0, 1], [0], True),
    ],
)
def test_columns_ascend(indptr, indices, ascend):
    n_rows = len(indptr) - 1
    csr = CSRMatrix((n_rows, 4), indptr, indices, np.ones(len(indices)))
    assert csr.columns_ascend() is ascend


@pytest.mark.parametrize(
    "perm",
    [[0, 0, 2], [0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1]],
    ids=["duplicate", "short", "long", "out-of-range", "negative"],
)
def test_permute_rows_rejects_non_bijective(perm):
    csr = coo_to_csr(COOMatrix.from_dense(np.eye(3, dtype=VALUE_DTYPE)))
    with pytest.raises(ValueError):
        csr.permute_rows(np.array(perm))


def test_permute_rows_empty_matrix():
    csr = coo_to_csr(COOMatrix.empty((0, 4)))
    assert csr.permute_rows(np.zeros(0, dtype=INDEX_DTYPE)).nnz == 0


def test_coo_permute_still_merges_colliding_rows():
    # Rows 0 and 1 both land on row 0: coordinates (0, 1) collide and sum.
    coo = COOMatrix((3, 2), [0, 1, 2], [1, 1, 0], [1.5, 2.0, 4.0])
    merged = coo.permute(row_perm=np.array([0, 0, 1]))
    assert merged.rows.tolist() == [0, 1]
    assert merged.cols.tolist() == [1, 0]
    assert merged.values.tolist() == [3.5, 4.0]


# ----------------------------------------------------------------------
# key range
# ----------------------------------------------------------------------
def test_overflowing_shape_raises():
    with pytest.raises(ValueError, match="int64"):
        COOMatrix.empty((2**32, 2**31 + 1))


def test_largest_keyed_shape_sorts_exactly():
    shape = (2**32, 2**31)
    assert shape[0] * shape[1] == MAX_KEYED_CELLS
    last = (shape[0] - 1, shape[1] - 1)  # key 2**63 - 1
    coo = COOMatrix(shape, [last[0], 0, last[0]], [last[1], 0, 0], [1, 2, 3])
    assert coo.rows.tolist() == [0, last[0], last[0]]
    assert coo.cols.tolist() == [0, 0, last[1]]
