"""Explicit GF(2) module structures for the computed web homologies.

Each module carries a commuting family of edge operators satisfying
u^3 + u = 0, so the space splits into simultaneous kernel/image pieces
indexed by edge subsets; only 1-sets contribute.  Presentations are
realized by degree-bounded linear algebra on the monomial slice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import gf2


class ModuleError(ValueError):
    pass


@dataclass(frozen=True)
class F2Module:
    """Finite-dimensional GF(2) space with named commuting edge operators.

    ``grading`` is a tuple of 0/1 labels per basis vector, or None when
    the source states no grading.
    """

    dim: int
    basis: tuple
    operators: dict
    grading: tuple | None = None

    def __post_init__(self):
        for name, m in self.operators.items():
            if m.shape != (self.dim, self.dim):
                raise ModuleError(f"operator {name!r} has shape {m.shape}, dim is {self.dim}")
            cube = gf2.matmul(gf2.matmul(m, m), m)
            if not np.array_equal((cube ^ m) % 2, gf2.zeros(self.dim, self.dim)):
                raise ModuleError(f"operator {name!r} violates u^3 + u = 0")
        ops = list(self.operators.items())
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                a, b = ops[i][1], ops[j][1]
                if not np.array_equal(gf2.matmul(a, b), gf2.matmul(b, a)):
                    raise ModuleError(f"operators {ops[i][0]!r}, {ops[j][0]!r} do not commute")
        if self.grading is not None and len(self.grading) != self.dim:
            raise ModuleError("grading must label every basis vector")

    def euler_characteristic(self) -> int:
        if self.grading is None:
            raise ModuleError("module carries no grading")
        even = sum(1 for g in self.grading if g % 2 == 0)
        return even - (self.dim - even)

    def graded_dims(self) -> tuple[int, int]:
        if self.grading is None:
            raise ModuleError("module carries no grading")
        even = sum(1 for g in self.grading if g % 2 == 0)
        return even, self.dim - even

    def shift(self) -> "F2Module":
        """Grading shift: toggle every label."""
        if self.grading is None:
            raise ModuleError("cannot shift an ungraded module")
        return F2Module(self.dim, self.basis, dict(self.operators), tuple(1 - g for g in self.grading))


def direct_sum(a: F2Module, b: F2Module) -> F2Module:
    if set(a.operators) != set(b.operators):
        raise ModuleError("direct summands must share operator names")
    dim = a.dim + b.dim
    ops = {}
    for name in a.operators:
        m = gf2.zeros(dim, dim)
        m[: a.dim, : a.dim] = a.operators[name]
        m[a.dim :, a.dim :] = b.operators[name]
        ops[name] = m
    grading = None
    if a.grading is not None and b.grading is not None:
        grading = a.grading + b.grading
    return F2Module(dim, a.basis + b.basis, ops, grading)


def tensor(a: F2Module, b: F2Module, tags=("1", "2")) -> F2Module:
    """Tensor product; each factor's operators act on its own side.

    Operator names are prefixed with the tags; empty tags keep the names,
    which must then be disjoint.
    """
    dim = a.dim * b.dim
    basis = tuple(f"{x}*{y}" for x in a.basis for y in b.basis)
    ops = {}
    for name, m in a.operators.items():
        key = f"{tags[0]}.{name}" if tags[0] else name
        ops[key] = gf2.kron(m, gf2.identity(b.dim))
    for name, m in b.operators.items():
        key = f"{tags[1]}.{name}" if tags[1] else name
        if key in ops:
            raise ModuleError(f"operator name collision in tensor product: {key!r}")
        ops[key] = gf2.kron(gf2.identity(a.dim), m)
    grading = None
    if a.grading is not None and b.grading is not None:
        grading = tuple((x + y) % 2 for x in a.grading for y in b.grading)
    return F2Module(dim, basis, ops, grading)


def min_poly(m: np.ndarray) -> str:
    """Minimal polynomial over GF(2) of an operator satisfying u^3 + u = 0.

    Returned as a string in u, highest power first, e.g. ``"u^2 + 1"``;
    the zero-dimensional operator gives ``"1"``.
    """
    n = m.shape[0]
    if n == 0:
        return "1"
    powers = [gf2.identity(n)]
    for _ in range(3):
        powers.append(gf2.matmul(powers[-1], m))
    for degree in range(1, 4):
        mat = np.stack([p.ravel() for p in powers[: degree + 1]], axis=1)
        ker = gf2.nullspace(mat)
        for j in range(ker.shape[1]):
            if ker[degree, j]:
                coeffs = ker[:, j]
                terms = [
                    ("1" if k == 0 else "u" if k == 1 else f"u^{k}")
                    for k in range(degree, -1, -1)
                    if coeffs[k]
                ]
                return " + ".join(terms)
    return "u^3 + u"


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    relations: tuple  # each relation: frozenset of monomials (exponent tuples)

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
            row = np.zeros(len(monos), dtype=np.uint8)
            for m in rel:
                shifted = tuple(a + b for a, b in zip(m, mult))
                if sum(shifted) <= degree:
                    row[col[shifted]] ^= 1
                else:
                    break
            else:
                rows.append(row)
    mat = np.stack(rows) if rows else gf2.zeros(0, len(monos))
    red, pivots = gf2.rref(mat)
    standard = [monos[i] for i in range(len(monos)) if i not in set(pivots)]
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

    pivot_of = {monos[c]: r for r, c in enumerate(pivots)}
    std_index = {m: i for i, m in enumerate(standard)}

    def reduce_vec(vec: np.ndarray) -> np.ndarray:
        v = vec.copy()
        for c in np.nonzero(v)[0]:
            m = monos[c]
            if m in pivot_of:
                v ^= red[pivot_of[m]]
        out = np.zeros(len(standard), dtype=np.uint8)
        for c in np.nonzero(v)[0]:
            out[std_index[monos[c]]] = 1
        return out

    ops = {}
    for gi, g in enumerate(p.generators):
        m = gf2.zeros(len(standard), len(standard))
        for j, mono in enumerate(standard):
            shifted = list(mono)
            shifted[gi] += 1
            vec = np.zeros(len(monos), dtype=np.uint8)
            vec[col[tuple(shifted)]] = 1
            m[:, j] = reduce_vec(vec)
        ops[g] = m

    def label(mono):
        if sum(mono) == 0:
            return "1"
        return "*".join(
            f"{g}^{e}" if e > 1 else g for g, e in zip(p.generators, mono) if e
        )

    return F2Module(len(standard), tuple(label(m) for m in standard), ops)


# ---------------------------------------------------------------------------
# edge decomposition


@dataclass(frozen=True)
class EdgeDecomposition:
    summands: dict = field(default_factory=dict)  # frozenset of edges -> dim
    total: int = 0


def edge_decomposition(mod: F2Module, edges=None) -> EdgeDecomposition:
    """Simultaneous kernel/image splitting under the chosen edge operators.

    For each subset s of edges, the summand is the intersection of
    ker(u_e) for e in s with im(u_e) for e outside s.  Nonzero summands
    are reported; their dimensions add up to the module dimension.
    """
    if edges is None:
        edges = sorted(mod.operators)
    edges = list(edges)
    for e in edges:
        if e not in mod.operators:
            raise ModuleError(f"no operator for edge {e!r}")
    kernels = {e: gf2.nullspace(mod.operators[e]) for e in edges}
    images = {e: gf2.column_space(mod.operators[e]) for e in edges}
    summands = {}
    total = 0
    for mask in product((0, 1), repeat=len(edges)):
        space = gf2.identity(mod.dim)
        for e, bit in zip(edges, mask):
            space = gf2.intersect(space, kernels[e] if bit else images[e])
            if space.shape[1] == 0:
                break
        d = space.shape[1]
        if d:
            s = frozenset(e for e, bit in zip(edges, mask) if bit)
            summands[s] = d
            total += d
    if total != mod.dim:
        raise ModuleError(f"decomposition dims {total} != module dim {mod.dim}")
    return EdgeDecomposition(summands, total)


def restrict_to_subspace(mod: F2Module, basis_cols: np.ndarray) -> F2Module:
    """Restrict all operators to an invariant subspace given by basis columns."""
    k = basis_cols.shape[1]
    ops = {}
    for name, m in mod.operators.items():
        mat = gf2.zeros(k, k)
        img = gf2.matmul(m, basis_cols)
        for j in range(k):
            x = gf2.solve(basis_cols, img[:, j])
            if x is None:
                raise ModuleError(f"subspace is not invariant under {name!r}")
            mat[:, j] = x
        ops[name] = mat
    return F2Module(k, tuple(f"b{i}" for i in range(k)), ops)


def subspace_for(mod: F2Module, s, edges) -> np.ndarray:
    """Basis columns of the summand V(s) inside the module."""
    space = gf2.identity(mod.dim)
    for e in edges:
        m = mod.operators[e]
        space = gf2.intersect(space, gf2.nullspace(m) if e in s else gf2.column_space(m))
    return space


def is_cyclic(mod: F2Module) -> bool:
    """True iff some vector generates the whole module under the operators."""
    if mod.dim == 0:
        return True
    ops = list(mod.operators.values())
    for bits in product((0, 1), repeat=mod.dim):
        if not any(bits):
            continue
        v = np.array(bits, dtype=np.uint8)
        span = v.reshape(-1, 1)
        frontier = [v]
        while frontier:
            nxt = []
            for w in frontier:
                for m in ops:
                    u = gf2.matmul(m, w.reshape(-1, 1)).ravel()
                    cand = np.concatenate([span, u.reshape(-1, 1)], axis=1)
                    if gf2.rank(cand) > span.shape[1]:
                        span = gf2.column_space(cand)
                        nxt.append(u)
            frontier = nxt
        if span.shape[1] == mod.dim:
            return True
    return False


# ---------------------------------------------------------------------------
# the catalogue of computed modules


def _unknot_op() -> np.ndarray:
    # multiplication by u on 1, u, u^2 with u^3 = u
    return gf2.asmat([[0, 0, 0], [1, 0, 1], [0, 1, 0]])


def _theta_ops() -> tuple[tuple, dict]:
    """Basis u1^a u2^b (a <= 2, b <= 1); u3 = u1 + u2, sym2 = 1, sym3 = 0."""
    basis = ("1", "u1", "u1^2", "u2", "u1*u2", "u1^2*u2")
    idx = {(0, 0): 0, (1, 0): 1, (2, 0): 2, (0, 1): 3, (1, 1): 4, (2, 1): 5}

    def normal(a, b):
        """Normal form of u1^a u2^b as a set of basis indices."""
        out: set = set()

        def add(term):
            out.symmetric_difference_update({term})

        def emit(a, b):
            while a >= 3:
                a -= 2
            if b <= 1:
                add(idx[(a, b)])
            else:
                # u2^2 = 1 + u1^2 + u1 u2
                for da, db in ((0, 0), (2, 0), (1, 1)):
                    emit(a + da, b - 2 + db)

        emit(a, b)
        return out

    m1 = gf2.zeros(6, 6)
    m2 = gf2.zeros(6, 6)
    for (a, b), j in idx.items():
        for i in normal(a + 1, b):
            m1[i, j] ^= 1
        for i in normal(a, b + 1):
            m2[i, j] ^= 1
    m3 = (m1 ^ m2) % 2
    return basis, {"e1": m1, "e2": m2, "e3": m3}


def _swap2() -> np.ndarray:
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

# unlink_N is a dense 3^N-dimensional module: unlink_5 (243) builds and
# decomposes in a few seconds, unlink_6 (729) takes over a minute.
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
        out = F2Module(3, single.basis, {"e1": single.operators["e"]}, single.grading)
        for k in range(2, n + 1):
            nxt = F2Module(3, single.basis, {f"e{k}": single.operators["e"]}, single.grading)
            out = tensor(out, nxt, tags=("", ""))
        return out
    if name == "theta":
        basis, ops = _theta_ops()
        return F2Module(6, basis, ops, (0,) * 6)
    if name == "kinoshita_theta":
        # same vector space and edge decomposition as the unknotted theta;
        # supported in a single grading
        basis, ops = _theta_ops()
        return F2Module(6, basis, ops, (0,) * 6)
    if name == "tetrahedron":
        basis, ops = _theta_ops()
        full = dict(ops)
        # the operator of the opposite edge f_i equals that of e_i
        full["f1"], full["f2"], full["f3"] = ops["e1"], ops["e2"], ops["e3"]
        return F2Module(6, basis, full, (0,) * 6)
    if name == "hopf":
        unknot = known_module("unknot")
        _, theta_ops = _theta_ops()
        dim = 9
        u1 = gf2.zeros(dim, dim)
        u2 = gf2.zeros(dim, dim)
        u1[:3, :3] = unknot.operators["e"]
        u2[:3, :3] = unknot.operators["e"]
        u1[3:, 3:] = theta_ops["e1"]
        u2[3:, 3:] = theta_ops["e2"]
        basis = tuple(f"U.{b}" for b in unknot.basis) + tuple(f"T.{b}" for b in _theta_ops()[0])
        return F2Module(dim, basis, {"e1": u1, "e2": u2}, (0,) * 9)
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
