"""Dense linear algebra over the two-element field, on bit-packed rows.

A matrix is a ``Mat``: its shape and one Python ``int`` per row, whose
bit j is the entry in column j.  A vector is an ``int`` the same way
(bit i is coordinate i).  Adding rows is one XOR of two integers, so
row reduction and the product (row i of ``a @ b`` is the XOR of the rows
of ``b`` picked out by the bits of row i of ``a``) act on whole rows at
once.  No numpy is imported.  A subspace is returned as a matrix whose
columns form a basis.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mat:
    """An ``nrows`` x ``ncols`` matrix; ``rows[i]`` bit j is entry (i, j)."""

    nrows: int
    ncols: int
    rows: tuple

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def columns(self) -> list[int]:
        """The columns as vectors (the rows of the transpose)."""
        if not self.nrows or not self.ncols:
            return [0] * self.ncols
        # one bit string per row, last row first, so that zip reads each
        # column off as a binary numeral whose top bit is the last row
        bits = [format(r, f"0{self.ncols}b") for r in reversed(self.rows)]
        return [int("".join(col), 2) for col in zip(*bits)][::-1]

    @property
    def T(self) -> "Mat":
        return Mat(self.ncols, self.nrows, tuple(self.columns()))

    def tolist(self) -> list[list[int]]:
        if not self.ncols:
            return [[] for _ in self.rows]
        return [[int(b) for b in format(r, f"0{self.ncols}b")[::-1]] for r in self.rows]


def asmat(data) -> Mat:
    """Pack a 2-D array of 0/1 entries (taken mod 2): nested lists, or an
    object with ``shape`` and ``tolist()`` such as a numpy array."""
    ncols = 0
    if hasattr(data, "tolist"):
        if len(data.shape) != 2:
            raise ValueError(f"need a 2-D array, got shape {tuple(data.shape)}")
        ncols = int(data.shape[1])
        data = data.tolist()
    rows = [list(r) for r in data]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError("rows of unequal length")
    if widths:
        ncols = widths.pop()
    packed = (int("".join("1" if x % 2 else "0" for x in reversed(r)) or "0", 2) for r in rows)
    return Mat(len(rows), ncols, tuple(packed))


def from_columns(nrows: int, cols) -> Mat:
    """The ``nrows`` x ``len(cols)`` matrix with the given column vectors."""
    return Mat(len(cols), nrows, tuple(cols)).T


def identity(n: int) -> Mat:
    return Mat(n, n, tuple(1 << i for i in range(n)))


def zeros(n: int, m: int) -> Mat:
    return Mat(n, m, (0,) * n)


def block_diag(a: Mat, b: Mat) -> Mat:
    return Mat(a.nrows + b.nrows, a.ncols + b.ncols, a.rows + tuple(r << a.ncols for r in b.rows))


def matmul(a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    brows = b.rows
    out = []
    for r in a.rows:
        acc = 0
        while r:
            low = r & -r
            acc ^= brows[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return Mat(a.nrows, b.ncols, tuple(out))


def kron(a: Mat, b: Mat) -> Mat:
    # row (i, k) is row k of b copied into block j for each bit j of row
    # i of a: one integer product, since the copies never overlap
    out = []
    for r in a.rows:
        spread = 0
        while r:
            low = r & -r
            spread |= 1 << ((low.bit_length() - 1) * b.ncols)
            r ^= low
        out.extend(rb * spread for rb in b.rows)
    return Mat(a.nrows * b.nrows, a.ncols * b.ncols, tuple(out))


def _echelon(rows) -> dict:
    """Pivot column -> row, each row's lowest set bit its own pivot."""
    piv: dict = {}
    for v in rows:
        while v:
            c = (v & -v).bit_length() - 1
            p = piv.get(c)
            if p is None:
                piv[c] = v
                break
            v ^= p
    return piv


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form of ``a`` and its pivot columns.

    The nonzero rows come first, in pivot order, then the zero rows, so
    the result has the shape of ``a``.
    """
    piv = _echelon(a.rows)
    pivots = sorted(piv)
    # clear the other pivot columns of each row, highest pivot first: a
    # row reduced already holds no pivot bit but its own
    done = 0
    for c in reversed(pivots):
        r = piv[c]
        hits = r & done
        while hits:
            low = hits & -hits
            r ^= piv[low.bit_length() - 1]
            hits ^= low
        piv[c] = r
        done |= 1 << c
    rows = tuple(piv[c] for c in pivots) + (0,) * (a.nrows - len(pivots))
    return Mat(a.nrows, a.ncols, rows), pivots


def rank(a: Mat) -> int:
    return len(_echelon(a.rows))


def nullspace(a: Mat) -> Mat:
    """Columns form a basis of {x : a @ x = 0}, one per free column f:
    x_f = 1 and the pivot coordinates read off column f of the RREF."""
    red, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for f in range(a.ncols):
        if f in pivot_set:
            continue
        v = 1 << f
        for row, p in zip(red.rows, pivots):
            if row >> f & 1:
                v |= 1 << p
        basis.append(v)
    return from_columns(a.ncols, basis)


def column_space(a: Mat) -> Mat:
    """Columns form a basis of the column space of ``a``: its pivot columns."""
    _, pivots = rref(a)
    cols = a.columns()
    return from_columns(a.nrows, [cols[p] for p in pivots])


def intersect(a: Mat, b: Mat) -> Mat:
    """Basis (as columns) of col(a) ∩ col(b), by Zassenhaus's method.

    Rows (x | x) for the columns x of a and (y | 0) for those of b are
    reduced with the first block pivoting first; the reduced rows whose
    first block vanished carry a basis of the intersection.
    """
    n = a.nrows
    rows = [x | (x << n) for x in a.columns()] + b.columns()
    return from_columns(n, [v >> n for c, v in sorted(_echelon(rows).items()) if c >= n])


def solve(a: Mat, b: int) -> int | None:
    """One solution x of a @ x = b (vectors as ints), or None."""
    n = a.ncols
    aug = Mat(a.nrows, n + 1, tuple(r | ((b >> i & 1) << n) for i, r in enumerate(a.rows)))
    red, pivots = rref(aug)
    if pivots and pivots[-1] == n:
        return None
    x = 0
    for row, p in zip(red.rows, pivots):
        x |= (row >> n & 1) << p
    return x


def det(a: Mat) -> int:
    if a.nrows != a.ncols:
        raise ValueError("determinant needs a square matrix")
    return 1 if rank(a) == a.nrows else 0
