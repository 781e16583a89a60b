"""The packed GF(2) layer against a dense numpy reference, plus identities.

The reference below is the earlier numpy implementation of ``gf2``
(uint8 arrays, one row operation at a time); the packed one must agree
with it entry for entry wherever the answer is canonical, and span for
span where it is a choice of basis (``intersect``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webfoam import gf2

# the same examples on every run
examples = settings(max_examples=100, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# reference: dense numpy arithmetic mod 2


def ref_matmul(a, b):
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


def ref_rref(a):
    m = a.copy() % 2
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + hits[0]
        if p != r:
            m[[r, p]] = m[[p, r]]
        for i in np.nonzero(m[:, c])[0]:
            if i != r:
                m[i] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def ref_rank(a):
    if a.size == 0:
        return 0
    return len(ref_rref(a)[1])


def ref_nullspace(a):
    rows, cols = a.shape
    red, pivots = ref_rref(a)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = np.zeros(cols, dtype=np.uint8)
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = red[i, f]
        basis.append(v)
    if not basis:
        return np.zeros((cols, 0), dtype=np.uint8)
    return np.stack(basis, axis=1)


def ref_column_space(a):
    _, pivots = ref_rref(a)
    return a[:, pivots].copy() if pivots else np.zeros((a.shape[0], 0), dtype=np.uint8)


def ref_intersect(a, b):
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=np.uint8)
    ker = ref_nullspace(np.concatenate([a, b], axis=1))
    return ref_column_space(ref_matmul(a, ker[: a.shape[1], :]))


def ref_solve(a, b):
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    red, pivots = ref_rref(aug)
    n = a.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.uint8)
    for i, p in enumerate(pivots):
        x[p] = red[i, n]
    return x


# ---------------------------------------------------------------------------
# conversions and strategies


def to_np(m: gf2.Mat) -> np.ndarray:
    return np.array(m.tolist(), dtype=np.uint8).reshape(m.shape)


def vec_to_np(v: int, n: int) -> np.ndarray:
    return np.array([v >> i & 1 for i in range(n)], dtype=np.uint8)


def hcat(a: gf2.Mat, b: gf2.Mat) -> gf2.Mat:
    """Columns of a, then columns of b."""
    return gf2.Mat(a.nrows, a.ncols + b.ncols, tuple(x | (y << a.ncols) for x, y in zip(a.rows, b.rows)))


def random_mat(nrows: int, ncols: int):
    """Uniform nrows x ncols matrices, cut from one random integer."""
    full = (1 << ncols) - 1
    return st.integers(0, (1 << (nrows * ncols)) - 1).map(
        lambda bits: gf2.Mat(nrows, ncols, tuple(bits >> (i * ncols) & full for i in range(nrows)))
    )


@st.composite
def mats(draw, nrows=None, ncols=None):
    """Small matrices, half of them products through a narrow middle, so
    that low rank and dependent columns are common."""
    n = draw(st.integers(0, 9)) if nrows is None else nrows
    m = draw(st.integers(0, 9)) if ncols is None else ncols
    if draw(st.booleans()):
        return draw(random_mat(n, m))
    k = draw(st.integers(0, 3))
    return gf2.matmul(draw(random_mat(n, k)), draw(random_mat(k, m)))


@st.composite
def mat_pairs(draw):
    """(a, b) with as many rows; b's columns partly lie in col(a)."""
    a = draw(mats())
    shared = gf2.matmul(a, draw(mats(nrows=a.ncols)))
    return a, hcat(shared, draw(mats(nrows=a.nrows)))


# ---------------------------------------------------------------------------
# packed against reference


@examples
@given(mats())
def test_rank(a):
    assert gf2.rank(a) == ref_rank(to_np(a))


@examples
@given(mats())
def test_rref(a):
    red, pivots = gf2.rref(a)
    ref_red, ref_pivots = ref_rref(to_np(a))
    assert pivots == ref_pivots
    assert np.array_equal(to_np(red), ref_red)


@examples
@given(mats())
def test_nullspace(a):
    assert np.array_equal(to_np(gf2.nullspace(a)), ref_nullspace(to_np(a)))


@examples
@given(mats())
def test_column_space(a):
    assert np.array_equal(to_np(gf2.column_space(a)), ref_column_space(to_np(a)))


@examples
@given(mat_pairs())
def test_intersect(pair):
    a, b = pair
    got = gf2.intersect(a, b)
    ref = ref_intersect(to_np(a), to_np(b))
    assert got.nrows == a.nrows
    # a basis of the same subspace: independent columns, same span
    assert gf2.rank(got) == got.ncols == ref.shape[1]
    assert ref_rank(np.concatenate([to_np(got), ref], axis=1)) == got.ncols


@examples
@given(mats(), st.data())
def test_solve(a, data):
    b = data.draw(st.integers(0, (1 << a.nrows) - 1))
    got = gf2.solve(a, b)
    ref = ref_solve(to_np(a), vec_to_np(b, a.nrows))
    if ref is None:
        assert got is None
    else:
        assert np.array_equal(vec_to_np(got, a.ncols), ref)


@examples
@given(st.data())
def test_matmul(data):
    n, k, m = (data.draw(st.integers(0, 9)) for _ in range(3))
    a, b = data.draw(mats(n, k)), data.draw(mats(k, m))
    assert np.array_equal(to_np(gf2.matmul(a, b)), ref_matmul(to_np(a), to_np(b)))


@examples
@given(mats(), mats())
def test_kron(a, b):
    ref = (np.kron(to_np(a).astype(np.int64), to_np(b).astype(np.int64)) % 2).astype(np.uint8)
    assert np.array_equal(to_np(gf2.kron(a, b)), ref)


@examples
@given(st.integers(0, 8).flatmap(lambda n: mats(n, n)))
def test_det(a):
    assert gf2.det(a) == (1 if ref_rank(to_np(a)) == a.nrows else 0)


# ---------------------------------------------------------------------------
# exact identities


@examples
@given(mats())
def test_nullspace_is_annihilated(a):
    ker = gf2.nullspace(a)
    assert gf2.matmul(a, ker) == gf2.zeros(a.nrows, ker.ncols)


@examples
@given(mats())
def test_rank_nullity(a):
    assert gf2.rank(a) + gf2.nullspace(a).ncols == a.ncols


@examples
@given(mat_pairs())
def test_intersection_dimension(pair):
    a, b = pair
    assert gf2.intersect(a, b).ncols == gf2.rank(a) + gf2.rank(b) - gf2.rank(hcat(a, b))


@examples
@given(mat_pairs())
def test_intersection_lies_in_both(pair):
    a, b = pair
    inter = gf2.intersect(a, b)
    for y in inter.columns():
        assert gf2.solve(a, y) is not None
        assert gf2.solve(b, y) is not None


@examples
@given(mats())
def test_solution_solves(a):
    for y in a.columns():
        x = gf2.solve(a, y)
        assert gf2.matmul(a, gf2.from_columns(a.ncols, [x])) == gf2.from_columns(a.nrows, [y])


@examples
@given(mats())
def test_transpose_and_lists(a):
    assert a.T.T == a
    assert gf2.asmat(a.tolist()) == a or a.nrows == 0
    assert gf2.asmat(to_np(a)) == a
    assert gf2.from_columns(a.nrows, a.columns()) == a


# ---------------------------------------------------------------------------
# shapes and errors


def test_empty_shapes():
    assert gf2.asmat(np.zeros((0, 3), dtype=np.uint8)).shape == (0, 3)
    assert gf2.asmat(np.zeros((3, 0), dtype=np.uint8)).shape == (3, 0)
    assert gf2.nullspace(gf2.zeros(0, 4)) == gf2.identity(4)
    assert gf2.column_space(gf2.zeros(3, 0)).shape == (3, 0)
    assert gf2.intersect(gf2.identity(3), gf2.zeros(3, 0)).shape == (3, 0)
    assert gf2.solve(gf2.zeros(2, 0), 0) == 0
    assert gf2.solve(gf2.zeros(2, 0), 1) is None


def test_asmat_takes_entries_mod_2():
    assert gf2.asmat([[2, 3], [1, 0]]) == gf2.Mat(2, 2, (0b10, 0b01))


def test_bad_shapes_refused():
    with pytest.raises(ValueError):
        gf2.matmul(gf2.zeros(2, 3), gf2.zeros(2, 3))
    with pytest.raises(ValueError):
        gf2.det(gf2.zeros(2, 3))
    with pytest.raises(ValueError):
        gf2.asmat([[1, 0], [1]])
    with pytest.raises(ValueError):
        gf2.asmat(np.zeros(3, dtype=np.uint8))
