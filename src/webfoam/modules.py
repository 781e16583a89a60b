"""Explicit GF(2) module structures for the computed web homologies.

Each module carries a commuting family of edge operators satisfying
u^3 + u = 0, so the space splits into simultaneous kernel/image pieces
indexed by edge subsets; only 1-sets contribute.  Presentations are
realized by degree-bounded linear algebra on the monomial slice.  All
of it is exact arithmetic on ``gf2.Mat``.  numpy, a test-only dependency
(the ``test`` extra), is imported only by the ``F2Module.operators``
export, for numpy callers.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property
from itertools import product

from . import Frozen, gf2


class ModuleError(ValueError):
    pass


class F2Module(Frozen):
    """Finite-dimensional GF(2) space with named commuting edge operators.

    ``ops`` maps each name to its operator as a ``gf2.Mat``; the
    constructor also takes nested lists or numpy arrays and packs them.
    ``grading`` is a tuple of 0/1 labels per basis vector, or None when
    the source states no grading.
    """

    def __init__(self, dim: int, basis: tuple, ops: dict, grading: tuple | None = None):
        packed = {}
        for name, m in ops.items():
            if not isinstance(m, gf2.Mat):
                try:
                    m = gf2.asmat(m)
                except (TypeError, ValueError) as exc:
                    raise ModuleError(f"operator {name!r} is not a 0/1 matrix: {exc}") from None
            if m.shape != (dim, dim):
                raise ModuleError(f"operator {name!r} has shape {m.shape}, dim is {dim}")
            if gf2.matmul(gf2.matmul(m, m), m) != m:
                raise ModuleError(f"operator {name!r} violates u^3 + u = 0")
            packed[name] = m
        names = list(packed)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if gf2.matmul(packed[a], packed[b]) != gf2.matmul(packed[b], packed[a]):
                    raise ModuleError(f"operators {a!r}, {b!r} do not commute")
        if grading is not None and len(grading) != dim:
            raise ModuleError("grading must label every basis vector")
        self.__dict__.update(dim=dim, basis=basis, ops=packed, grading=grading)

    def _key(self) -> tuple:
        return self.dim, self.basis, self.ops, self.grading

    @cached_property
    def operators(self) -> dict:
        """The operators as numpy uint8 arrays, for numpy callers.

        Built, and numpy imported, on first access; nothing in the
        package reads it.
        """
        import numpy as np

        return {name: np.array(m.tolist(), dtype=np.uint8).reshape(m.shape) for name, m in self.ops.items()}

    def euler_characteristic(self) -> int:
        even, odd = self.graded_dims()
        return even - odd

    def graded_dims(self) -> tuple[int, int]:
        if self.grading is None:
            raise ModuleError("module carries no grading")
        even = sum(1 for g in self.grading if g % 2 == 0)
        return even, self.dim - even

    def shift(self) -> "F2Module":
        """Grading shift: toggle every label."""
        if self.grading is None:
            raise ModuleError("cannot shift an ungraded module")
        return F2Module(self.dim, self.basis, dict(self.ops), tuple(1 - g for g in self.grading))


def direct_sum(a: F2Module, b: F2Module) -> F2Module:
    if set(a.ops) != set(b.ops):
        raise ModuleError("direct summands must share operator names")
    ops = {name: gf2.block_diag(a.ops[name], b.ops[name]) for name in a.ops}
    grading = None
    if a.grading is not None and b.grading is not None:
        grading = a.grading + b.grading
    return F2Module(a.dim + b.dim, a.basis + b.basis, ops, grading)


def tensor(a: F2Module, b: F2Module, tags=("1", "2")) -> F2Module:
    """Tensor product; each factor's operators act on its own side.

    Operator names are prefixed with the tags; empty tags keep the names,
    which must then be disjoint.
    """
    dim = a.dim * b.dim
    basis = tuple(f"{x}*{y}" for x in a.basis for y in b.basis)
    ops = {}
    for name, m in a.ops.items():
        key = f"{tags[0]}.{name}" if tags[0] else name
        ops[key] = gf2.kron(m, gf2.identity(b.dim))
    for name, m in b.ops.items():
        key = f"{tags[1]}.{name}" if tags[1] else name
        if key in ops:
            raise ModuleError(f"operator name collision in tensor product: {key!r}")
        ops[key] = gf2.kron(gf2.identity(a.dim), m)
    grading = None
    if a.grading is not None and b.grading is not None:
        grading = tuple((x + y) % 2 for x in a.grading for y in b.grading)
    return F2Module(dim, basis, ops, grading)


def min_poly(m: gf2.Mat) -> str:
    """Minimal polynomial over GF(2) of an operator satisfying u^3 + u = 0.

    Returned as a string in u, highest power first, e.g. ``"u^2 + 1"``;
    the zero-dimensional operator gives ``"1"``.  It divides
    u^3 + u = u (u + 1)^2, so it is read off four tests, with one
    product: m = 0, m = 1, m^2 = m, m^2 = 1 (the first that holds).
    """
    n = m.nrows
    if n == 0:
        return "1"
    rows, one = tuple(m.rows), gf2.identity(n).rows
    if not any(rows):
        return "u"
    if rows == one:
        return "u + 1"
    square = gf2.matmul(m, m).rows
    if square == rows:
        return "u^2 + u"
    return "u^2 + 1" if square == one else "u^3 + u"


# ---------------------------------------------------------------------------
# presentations


class Presentation(namedtuple("Presentation", "generators relations")):
    """Generators, and relations each a frozenset of monomials (exponent
    tuples)."""

    __slots__ = ()

    @staticmethod
    def parse(generators, relation_strings) -> "Presentation":
        """Parse relations like ``"u1*u2 + u2*u3 + u3*u1 + 1"``.

        Terms are separated by '+', factors by '*', powers by '^'.
        """
        gens = tuple(generators)
        index = {g: i for i, g in enumerate(gens)}
        rels = []
        for s in relation_strings:
            monos = set()
            for term in s.split("+"):
                term = term.strip()
                expo = [0] * len(gens)
                if term != "1":
                    for factor in term.split("*"):
                        m = re.fullmatch(r"\s*([A-Za-z_]\w*)\s*(?:\^\s*(\d+))?\s*", factor)
                        if not m or m.group(1) not in index:
                            raise ModuleError(f"cannot parse factor {factor!r} in {s!r}")
                        expo[index[m.group(1)]] += int(m.group(2) or 1)
                key = tuple(expo)
                monos.symmetric_difference_update({key})
            rels.append(frozenset(monos))
        return Presentation(gens, tuple(rels))


def _monomials_upto(nvars: int, degree: int) -> list[tuple]:
    out = [t for t in product(range(degree + 1), repeat=nvars) if sum(t) <= degree]
    # graded lex, largest first, so row reduction pivots on leading monomials
    out.sort(key=lambda t: (sum(t), t), reverse=True)
    return out


class QuotientError(ModuleError):
    """The monomial slice did not stabilize within the degree bound."""


def _slice_dim(p: Presentation, degree: int):
    monos = _monomials_upto(len(p.generators), degree)
    col = {m: i for i, m in enumerate(monos)}
    rows = []
    for rel in p.relations:
        rel_deg = max(sum(m) for m in rel) if rel else 0
        for mult in _monomials_upto(len(p.generators), degree - rel_deg):
            row = 0
            for m in rel:
                shifted = tuple(a + b for a, b in zip(m, mult))
                if sum(shifted) <= degree:
                    row ^= 1 << col[shifted]
                else:
                    break
            else:
                rows.append(row)
    red, pivots = gf2.rref(gf2.Mat(len(rows), len(monos), tuple(rows)))
    pivot_set = set(pivots)
    standard = [monos[i] for i in range(len(monos)) if i not in pivot_set]
    return monos, col, red, pivots, standard


def quotient_module(p: Presentation, degree_bound: int = 8) -> F2Module:
    """Quotient of GF(2)[generators] by the relation ideal, as an F2Module.

    Works on the monomial slice of total degree <= ``degree_bound`` and
    requires the apparent dimension to agree at the bound and one step
    below; otherwise a QuotientError reports non-termination.
    """
    monos, col, red, pivots, standard = _slice_dim(p, degree_bound)
    _, _, _, _, standard_lo = _slice_dim(p, degree_bound - 1)
    if len(standard) != len(standard_lo):
        raise QuotientError(
            f"monomial basis did not stabilize by degree {degree_bound}: "
            f"{len(standard_lo)} vs {len(standard)} standard monomials"
        )
    if standard and max(sum(m) for m in standard) >= degree_bound:
        raise QuotientError("standard monomials reach the degree bound")

    # a pivot monomial equals the rest of its reduced row, which holds
    # standard monomials only
    normal_form = {c: row ^ (1 << c) for row, c in zip(red.rows, pivots)}
    std_bit = {col[m]: 1 << i for i, m in enumerate(standard)}

    def reduce_monomial(mono) -> int:
        c = col[mono]
        v = normal_form.get(c, 1 << c)
        out = 0
        while v:
            low = v & -v
            out |= std_bit[low.bit_length() - 1]
            v ^= low
        return out

    ops = {}
    for gi, g in enumerate(p.generators):
        cols = []
        for mono in standard:
            shifted = list(mono)
            shifted[gi] += 1
            cols.append(reduce_monomial(tuple(shifted)))
        ops[g] = gf2.from_columns(len(standard), cols)

    def label(mono):
        if sum(mono) == 0:
            return "1"
        return "*".join(
            f"{g}^{e}" if e > 1 else g for g, e in zip(p.generators, mono) if e
        )

    return F2Module(len(standard), tuple(label(m) for m in standard), ops)


# ---------------------------------------------------------------------------
# edge decomposition


class EdgeDecomposition(namedtuple("EdgeDecomposition", "summands total")):
    """``summands`` maps a frozenset of edges to the dimension of its
    summand; ``total`` is their sum."""

    __slots__ = ()


def _split(vecs: list, n: int, proj_t: gf2.Mat) -> tuple[list, list]:
    """Bases of p W and (1 + p) W for W = span(vecs), p an idempotent
    given by its transpose.  Both are RREF rows, so each basis is the
    canonical one of its subspace."""
    w = gf2.Mat(len(vecs), n, tuple(vecs))
    image = gf2.matmul(w, proj_t)  # row i is p applied to vecs[i]
    kernel = gf2.Mat(len(vecs), n, tuple(x ^ y for x, y in zip(vecs, image.rows)))
    return _row_basis(image), _row_basis(kernel)


def _row_basis(m: gf2.Mat) -> list:
    red, pivots = gf2.rref(m)
    return list(red.rows[: len(pivots)])


def _projectors_t(mod: F2Module, edges) -> dict:
    """p_e = u_e^2 for each edge, transposed for ``_split``.

    u^3 = u makes p_e idempotent with im p_e = im u_e and ker p_e = ker
    u_e, and the p_e commute, so V(s) = prod (1 + p_e) prod p_e V with
    e in s and e outside s respectively.
    """
    return {e: gf2.matmul(mod.ops[e], mod.ops[e]).T for e in edges}


def _summands(mod: F2Module, edges):
    """(s, RREF basis vectors of V(s)) for each nonzero summand V(s), with
    s running over edge subsets in ``itertools.product`` order."""
    proj_t = _projectors_t(mod, edges)

    def walk(i, vecs, s):
        if not vecs:
            return
        if i == len(edges):
            yield frozenset(s), vecs
            return
        image, kernel = _split(vecs, mod.dim, proj_t[edges[i]])
        yield from walk(i + 1, image, s)
        yield from walk(i + 1, kernel, s + [edges[i]])

    yield from walk(0, [1 << i for i in range(mod.dim)], [])


def edge_decomposition(mod: F2Module, edges=None) -> EdgeDecomposition:
    """Simultaneous kernel/image splitting under the chosen edge operators.

    For each subset s of edges, the summand is the intersection of
    ker(u_e) for e in s with im(u_e) for e outside s.  Nonzero summands
    are reported; their dimensions add up to the module dimension.
    """
    if edges is None:
        edges = sorted(mod.ops)
    edges = list(edges)
    for e in edges:
        if e not in mod.ops:
            raise ModuleError(f"no operator for edge {e!r}")
    summands = {s: len(vecs) for s, vecs in _summands(mod, edges)}
    total = sum(summands.values())
    if total != mod.dim:
        raise ModuleError(f"decomposition dims {total} != module dim {mod.dim}")
    return EdgeDecomposition(summands, total)


def restrict_to_subspace(mod: F2Module, basis_cols: gf2.Mat) -> F2Module:
    """Restrict all operators to an invariant subspace given by basis columns."""
    k = basis_cols.ncols
    ops = {}
    for name, m in mod.ops.items():
        cols = []
        for y in gf2.matmul(m, basis_cols).columns():
            x = gf2.solve(basis_cols, y)
            if x is None:
                raise ModuleError(f"subspace is not invariant under {name!r}")
            cols.append(x)
        ops[name] = gf2.from_columns(k, cols)
    return F2Module(k, tuple(f"b{i}" for i in range(k)), ops)


def subspace_for(mod: F2Module, s, edges) -> gf2.Mat:
    """Basis columns of the summand V(s) inside the module."""
    proj_t = _projectors_t(mod, edges)
    vecs = [1 << i for i in range(mod.dim)]
    for e in edges:
        image, kernel = _split(vecs, mod.dim, proj_t[e])
        vecs = kernel if e in s else image
    return gf2.from_columns(mod.dim, vecs)


def is_cyclic(mod: F2Module) -> bool:
    """True iff some vector generates the whole module under the operators.

    On a summand V(s) of the edge decomposition over every operator, u_e
    is 0 for e in s, and u_e + 1 is nilpotent for e outside s (there
    u_e^2 = 1).  So the operators act on V(s) through a local algebra
    with residue field F2 and maximal ideal m generated by those u_e + 1,
    and by Nakayama V(s) is cyclic iff dim V(s) - dim m V(s) <= 1.  The
    projections onto the summands are polynomials in the operators, so V
    is cyclic iff every V(s) is.
    """
    edges = sorted(mod.ops)
    ops_t = {e: mod.ops[e].T for e in edges}
    for s, vecs in _summands(mod, edges):
        w = gf2.Mat(len(vecs), mod.dim, tuple(vecs))
        moved = []
        for e in edges:
            if e not in s:
                moved.extend(x ^ y for x, y in zip(vecs, gf2.matmul(w, ops_t[e]).rows))
        if len(vecs) - gf2.rank(gf2.Mat(len(moved), mod.dim, tuple(moved))) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# the catalogue of computed modules


def _unknot_op() -> gf2.Mat:
    # multiplication by u on 1, u, u^2 with u^3 = u
    return gf2.asmat([[0, 0, 0], [1, 0, 1], [0, 1, 0]])


def _theta_ops() -> tuple[tuple, dict]:
    """Basis u1^a u2^b (a <= 2, b <= 1); u3 = u1 + u2, sym2 = 1, sym3 = 0."""
    basis = ("1", "u1", "u1^2", "u2", "u1*u2", "u1^2*u2")
    idx = {(0, 0): 0, (1, 0): 1, (2, 0): 2, (0, 1): 3, (1, 1): 4, (2, 1): 5}

    def normal(a, b):
        """Normal form of u1^a u2^b as a vector over the basis."""
        out = 0

        def emit(a, b):
            nonlocal out
            while a >= 3:
                a -= 2
            if b <= 1:
                out ^= 1 << idx[(a, b)]
            else:
                # u2^2 = 1 + u1^2 + u1 u2
                for da, db in ((0, 0), (2, 0), (1, 1)):
                    emit(a + da, b - 2 + db)

        emit(a, b)
        return out

    m1 = gf2.from_columns(6, [normal(a + 1, b) for a, b in idx])
    m2 = gf2.from_columns(6, [normal(a, b + 1) for a, b in idx])
    m3 = gf2.Mat(6, 6, tuple(x ^ y for x, y in zip(m1.rows, m2.rows)))
    return basis, {"e1": m1, "e2": m2, "e3": m3}


def _swap2() -> gf2.Mat:
    return gf2.asmat([[0, 1], [1, 0]])


KNOWN_WEBS = (
    "unknot",
    "unlink_2",
    "theta",
    "tetrahedron",
    "hopf",
    "lhc",
    "trefoil",
    "tangled_handcuffs",
    "k33",
    "kinoshita_theta",
)

# unlink_N is a 3^N-dimensional module; building and decomposing it takes
# about 0.01 s at N = 5 (243), 0.1 s at N = 6 and 0.9 s at N = 7 (2187).
MAX_UNLINK = 5


def known_module(name: str) -> F2Module:
    """Module structures of the webs computed in the source calculus.

    Dims, operators and gradings are the stated values; webs for which no
    operator action is stated (k33) carry only dims and gradings.
    """
    if name == "unknot":
        return F2Module(3, ("1", "u", "u^2"), {"e": _unknot_op()}, (0, 0, 0))
    unlink = re.fullmatch(r"unlink_([0-9]+)", name)
    if unlink:
        n = int(unlink.group(1))
        if not 1 <= n <= MAX_UNLINK:
            raise ModuleError(f"{name!r}: unlink_N needs 1 <= N <= {MAX_UNLINK}")
        single = known_module("unknot")
        out = F2Module(3, single.basis, {"e1": single.ops["e"]}, single.grading)
        for k in range(2, n + 1):
            nxt = F2Module(3, single.basis, {f"e{k}": single.ops["e"]}, single.grading)
            out = tensor(out, nxt, tags=("", ""))
        return out
    if name in ("theta", "kinoshita_theta"):
        # the knotted theta has the same vector space and edge decomposition
        # as the unknotted one; both are supported in a single grading
        basis, ops = _theta_ops()
        return F2Module(6, basis, ops, (0,) * 6)
    if name == "tetrahedron":
        basis, ops = _theta_ops()
        full = dict(ops)
        # the operator of the opposite edge f_i equals that of e_i
        full["f1"], full["f2"], full["f3"] = ops["e1"], ops["e2"], ops["e3"]
        return F2Module(6, basis, full, (0,) * 6)
    if name == "hopf":
        unknot = _unknot_op()
        theta_basis, theta_ops = _theta_ops()
        u1 = gf2.block_diag(unknot, theta_ops["e1"])
        u2 = gf2.block_diag(unknot, theta_ops["e2"])
        basis = tuple(f"U.{b}" for b in ("1", "u", "u^2")) + tuple(f"T.{b}" for b in theta_basis)
        return F2Module(9, basis, {"e1": u1, "e2": u2}, (0,) * 9)
    if name == "lhc":
        m = F2Module(2, ("1", "u1"), {"u1": _swap2(), "u2": _swap2(), "v": gf2.zeros(2, 2)}, (0, 0))
        return direct_sum(m, m.shift())
    if name == "trefoil":
        n = F2Module(1, ("n",), {"e": gf2.zeros(1, 1)}, (0,))
        m = F2Module(2, ("1", "u"), {"e": _swap2()}, (0, 0))
        return direct_sum(direct_sum(direct_sum(n, m), m), m.shift())
    if name == "tangled_handcuffs":
        z = gf2.zeros(0, 0)
        return F2Module(0, (), {"cuff1": z, "cuff2": z, "chain": z}, ())
    if name == "k33":
        return F2Module(12, tuple(f"x{i}" for i in range(12)), {}, (0,) * 6 + (1,) * 6)
    raise ModuleError(
        f"unknown web name {name!r}; known: {', '.join(sorted(KNOWN_WEBS))}, "
        f"or unlink_N with 1 <= N <= {MAX_UNLINK}"
    )
