"""Dense linear algebra over the two-element field.

Matrices are numpy arrays with dtype uint8 and entries in {0, 1}; all
arithmetic is mod 2.  Nothing here is clever: the spaces in this package
have dimension at most a few dozen.
"""

from __future__ import annotations

import numpy as np


def asmat(rows) -> np.ndarray:
    m = np.array(rows, dtype=np.uint8) % 2
    if m.ndim != 2:
        m = m.reshape(1, -1)
    return m


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def zeros(n: int, m: int) -> np.ndarray:
    return np.zeros((n, m), dtype=np.uint8)


def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduce a copy of ``a``; return (reduced matrix, pivot columns)."""
    m = a.copy() % 2
    rows, cols = m.shape
    pivots: list[int] = []
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
        others = np.nonzero(m[:, c])[0]
        for i in others:
            if i != r:
                m[i] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    return len(rref(a)[1])


def nullspace(a: np.ndarray) -> np.ndarray:
    """Columns form a basis of {x : a @ x = 0}."""
    rows, cols = a.shape
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.uint8)
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = red[i, f]
        basis.append(v)
    if not basis:
        return np.zeros((cols, 0), dtype=np.uint8)
    return np.stack(basis, axis=1)


def column_space(a: np.ndarray) -> np.ndarray:
    """Columns form a basis of the column space of ``a``."""
    _, pivots = rref(a)
    return a[:, pivots].copy() if pivots else np.zeros((a.shape[0], 0), dtype=np.uint8)


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Basis (as columns) of col(a) ∩ col(b)."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=np.uint8)
    stacked = np.concatenate([a, b], axis=1)
    ker = nullspace(stacked)
    vecs = matmul(a, ker[: a.shape[1], :])
    return column_space(vecs)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution x of a @ x = b (vectors), or None."""
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    red, pivots = rref(aug)
    n = a.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.uint8)
    for i, p in enumerate(pivots):
        x[p] = red[i, n]
    return x


def det(a: np.ndarray) -> int:
    n, m = a.shape
    if n != m:
        raise ValueError("determinant needs a square matrix")
    return 1 if rank(a) == n else 0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (np.kron(a.astype(np.int64), b.astype(np.int64)) % 2).astype(np.uint8)
