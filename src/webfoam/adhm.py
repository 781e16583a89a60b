"""Equivariant ADHM data for the order-N^3 symmetry group and the
second Chern class of the basepoint bundle.

The finite group generated by clock and shift matrices acts on charge-N
framed instantons on C^2; invariant solutions reduce to two complex
scalars (t1, t2).  The code builds the representation, finds the
intertwiners by monomial search, solves the reduced ADHM equations,
checks the matrix equations and the rank conditions numerically, and
computes the Chern number of the basepoint bundle exactly from the
series (1 - h^2)^(-N).

Every matrix the check builds is a sum of monomial matrices, a diagonal
times a power of the cyclic shift, and is held as one (``ShiftMat``) on
plain Python complex numbers; no numpy is imported.  The rank margins
are the smallest eigenvalues of Gram matrices that are Hermitian
periodic tridiagonal, found by bisection on a Cholesky test.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from functools import reduce
from operator import add, matmul, mul

TOL_REL = 1e-12
TOL_EQ = 1e-10
TOL_RANK = 1e-6

# Largest rank ``build_rep`` accepts.  ``verify_report(64)`` takes 0.26 s
# (0.53 s with the dense SVDs of numpy that the bisection replaced): most
# of it goes to its 202 rank margins, each about 50 Cholesky tests of an
# N x N periodic tridiagonal matrix.  The time grows about like N (0.7 s
# at 128, 2.2 s at 512); the bound is the one the dense check needed.
MAX_RANK = 64


class AdhmError(ValueError):
    pass


# ---------------------------------------------------------------------------
# matrices as sums of monomials


class ShiftMat(namedtuple("ShiftMat", "n terms")):
    """The n x n complex matrix sum_k diag(terms[k]) P^k, where P is the
    cyclic shift e_j -> e_{j+1}: its entry (i, (i - k) mod n) is
    terms[k][i].  ``terms`` maps each shift k in 0..n-1 to a tuple of n
    complex numbers.  Distinct shifts fill distinct entries, so the
    largest entry is the largest number in ``terms``."""

    __slots__ = ()

    @classmethod
    def scalar(cls, n: int, c) -> "ShiftMat":
        return cls(n, {0: (complex(c),) * n})

    def __add__(self, other: "ShiftMat") -> "ShiftMat":
        terms = dict(self.terms)
        for k, d in other.terms.items():
            terms[k] = tuple(map(add, terms[k], d)) if k in terms else d
        return ShiftMat(self.n, terms)

    def __sub__(self, other: "ShiftMat") -> "ShiftMat":
        return self + other.scale(-1)

    def scale(self, c) -> "ShiftMat":
        """c times the matrix."""
        return ShiftMat(self.n, {k: tuple(c * x for x in d) for k, d in self.terms.items()})

    def __matmul__(self, other: "ShiftMat") -> "ShiftMat":
        # diag(a) P^j diag(b) P^k = diag(a_i b_(i-j)) P^(j+k)
        n, out = self.n, {}
        for j, a in self.terms.items():
            for k, b in other.terms.items():
                d = tuple(map(mul, a, b[n - j :] + b[: n - j]))
                s = (j + k) % n
                out[s] = tuple(map(add, out[s], d)) if s in out else d
        return ShiftMat(n, out)

    def H(self) -> "ShiftMat":
        """The conjugate transpose: (diag(d) P^k)^H = diag(conj d_(i+k)) P^-k."""
        return ShiftMat(self.n, {-k % self.n: tuple(x.conjugate() for x in d[k:] + d[:k]) for k, d in self.terms.items()})

    def max_abs(self) -> float:
        return max((abs(x) for d in self.terms.values() for x in d), default=0.0)

    def tolist(self) -> list[list[complex]]:
        n = self.n
        rows = [[0j] * n for _ in range(n)]
        for k, d in self.terms.items():
            for i, x in enumerate(d):
                rows[i][(i - k) % n] = x
        return rows


def _monomial(m: ShiftMat) -> tuple[int, tuple]:
    """The one (shift, diagonal) term of a monomial matrix."""
    ((k, d),) = m.terms.items()
    return k, d


def _inverse(m: ShiftMat) -> ShiftMat:
    """(diag(d) P^k)^-1 = diag(1 / d_(i+k)) P^-k."""
    k, d = _monomial(m)
    return ShiftMat(m.n, {-k % m.n: tuple(1 / x for x in d[k:] + d[:k])})


def _det(m: ShiftMat) -> complex:
    """det(diag(d) P^k): the product of d times the sign of the shift by k,
    which has gcd(n, k) cycles."""
    k, d = _monomial(m)
    return math.prod(d) * (-1) ** (m.n - math.gcd(m.n, k))


class BlockOp(namedtuple("BlockOp", "blocks axis")):
    """Three N x N ``ShiftMat`` blocks, one above the other (axis 0: the
    3N x N map alpha) or side by side (axis 1: the N x 3N map beta)."""

    __slots__ = ()

    def tolist(self) -> list[list[complex]]:
        parts = [m.tolist() for m in self.blocks]
        if self.axis == 0:
            return [row for rows in parts for row in rows]
        return [a + b + c for a, b, c in zip(*parts)]

    def gram(self) -> ShiftMat:
        """The N x N Hermitian Gram matrix: alpha^H alpha for axis 0,
        beta beta^H for axis 1."""
        if self.axis == 0:
            return reduce(add, (m.H() @ m for m in self.blocks))
        return reduce(add, (m @ m.H() for m in self.blocks))


# ---------------------------------------------------------------------------
# the group representation


class GroupRep(namedtuple("GroupRep", "N rho_g rho_h rho_gamma zeta epsilon")):
    """The rank N; the clock ``rho_g``, the shift ``rho_h`` and the
    central ``rho_gamma`` as N x N ``ShiftMat``s; zeta = exp(2 pi i / N)
    and the clock's factor epsilon."""

    __slots__ = ()


def build_rep(N: int) -> GroupRep:
    """Clock-and-shift representation of the central extension of C_N x C_N.

    For N = 3 the displayed matrices are diag(w, 1, w^-1), the cyclic
    permutation, and w * identity.  For general N the clock is
    eps * diag(1, z, ..., z^(N-1)) with z = exp(2 pi i / N) and eps = 1
    for odd N, an N-th root of -1 for even N (so both generators have
    determinant one).
    """
    if N < 2:
        raise AdhmError("the rank N must be at least 2")
    if N > MAX_RANK:
        raise AdhmError(f"the rank N = {N} is above MAX_RANK = {MAX_RANK}")
    zeta = cmath.exp(2j * cmath.pi / N)
    if N == 3:
        w = zeta
        rho_g = ShiftMat(3, {0: (w, 1 + 0j, w ** -1)})
        rho_h = ShiftMat(3, {2: (1 + 0j,) * 3})  # e_i -> e_(i-1), the displayed permutation
        eps = 1.0 + 0j
    else:
        eps = 1.0 + 0j if N % 2 == 1 else cmath.exp(1j * cmath.pi / N)
        rho_g = ShiftMat(N, {0: tuple(eps * zeta ** k for k in range(N))})
        rho_h = ShiftMat(N, {1: (eps,) * N})  # e_i -> e_(i+1); conjugating the clock by this scales by zeta
    rep = GroupRep(N, rho_g, rho_h, ShiftMat.scalar(N, zeta), zeta, eps)
    _check_rep(rep)
    return rep


def _check_rep(rep: GroupRep) -> None:
    N = rep.N
    comm = rep.rho_g @ rep.rho_h @ _inverse(rep.rho_g) @ _inverse(rep.rho_h)
    if (comm - rep.rho_gamma).max_abs() > TOL_REL * 10:
        raise AdhmError("commutator relation [g, h] = gamma fails")
    if (rep.rho_gamma - ShiftMat.scalar(N, rep.zeta)).max_abs() > TOL_REL:
        raise AdhmError("gamma must act as the scalar zeta")
    scalar = ShiftMat.scalar(N, rep.epsilon ** N)
    for name, m in (("g", rep.rho_g), ("h", rep.rho_h)):
        if (reduce(matmul, [m] * N) - scalar).max_abs() > TOL_REL * 100:
            raise AdhmError(f"rho({name})^N is not the scalar eps^N")
        if abs(_det(m) - 1) > TOL_REL * 100:
            raise AdhmError(f"rho({name}) must have determinant one")


# ---------------------------------------------------------------------------
# intertwiners


def _is_unitary(m: ShiftMat, tol=TOL_REL * 100) -> bool:
    return (m @ m.H() - ShiftMat.scalar(m.n, 1)).max_abs() < tol


def find_intertwiners(rep: GroupRep):
    """Unitary maps F1, F2 making the action commute with the two characters.

    The group acts on the coordinate plane by (zeta, zeta^-1) and
    (zeta, 1); F_i must satisfy F_i rho(x) = chi_i(x) rho(x) F_i.  By the
    irreducibility of the representation the intertwiners are monomials
    rho(g)^p rho(h)^q up to phase, so a 9-element search suffices (N^2 in
    general).  Returns (F1, F2, S, C) with S = C [F1, F2] unitary and C
    on the negative real axis, which makes the reduced ADHM equation
    t1 t2 + C a b = 0 solvable with a, b carrying the phases of t1, t2.
    """
    N, zeta = rep.N, rep.zeta
    chars = [
        {"g": zeta, "h": zeta},  # coordinate 1
        {"g": zeta ** -1, "h": 1.0},  # coordinate 2
    ]
    g_powers, h_powers = [ShiftMat.scalar(N, 1)], [ShiftMat.scalar(N, 1)]
    for _ in range(N - 1):
        g_powers.append(g_powers[-1] @ rep.rho_g)
        h_powers.append(h_powers[-1] @ rep.rho_h)
    found = []
    for chi in chars:
        hit = None
        for gp in g_powers:
            for hq in h_powers:
                m = gp @ hq
                if all((m @ gen - (gen @ m).scale(chi[name])).max_abs() <= TOL_REL * 100
                       for name, gen in (("g", rep.rho_g), ("h", rep.rho_h))):
                    hit = m
                    break
            if hit is not None:
                break
        if hit is None:
            raise AdhmError("no monomial intertwiner found; contradicts Schur uniqueness")
        if not _is_unitary(hit):
            raise AdhmError("monomial intertwiner is not unitary")
        found.append(hit)
    f1, f2 = found
    bracket = f1 @ f2 - f2 @ f1
    norm = bracket.max_abs()  # a monomial: its operator norm is its largest entry
    if norm < TOL_RANK:
        raise AdhmError("[F1, F2] vanishes; the commutator must be a unitary multiple")
    c = -1.0 / norm
    s = bracket.scale(c)
    if not _is_unitary(s):
        raise AdhmError("[F1, F2] is not a scalar multiple of a unitary")
    return f1, f2, s, c


# ---------------------------------------------------------------------------
# ADHM data


class AdhmData(namedtuple("AdhmData", "t1 t2 a b F1 F2 S C uhlenbeck", defaults=(False,))):
    """A solution (t1, t2, a, b) of the reduced equations, the intertwiners
    F1, F2, S and the scalar C, and whether a = b = 0 (the Uhlenbeck
    boundary)."""

    __slots__ = ()


def scalar_solution(inter, t1: complex, t2: complex) -> AdhmData:
    """Solve the reduced ADHM equations for the pair (t1, t2).

    ``inter`` is the (F1, F2, S, C) of ``find_intertwiners``.

    With S unitary the equations are t1 t2 + C a b = 0 and |a| = |b|;
    the solution keeps the phases of t1 and t2 on a and b, with
    |a| = |b| = (|t1 t2| / |C|)^(1/2).  When t1 t2 = 0 the Uhlenbeck
    boundary datum a = b = 0 is returned, flagged.
    """
    f1, f2, s, c = inter
    t1 = complex(t1)
    t2 = complex(t2)
    if t1 == 0 and t2 == 0:
        raise AdhmError("t1 and t2 must not both vanish")
    if t1 * t2 == 0:
        return AdhmData(t1, t2, 0j, 0j, f1, f2, s, c, uhlenbeck=True)
    r = math.sqrt(abs(t1 * t2) / abs(c))
    a = r * cmath.exp(1j * cmath.phase(t1))
    b = r * cmath.exp(1j * cmath.phase(t2))
    if abs(t1 * t2 + c * a * b) > TOL_EQ * max(1.0, abs(t1 * t2)):
        raise AdhmError("scalar ADHM equation failed")
    return AdhmData(t1, t2, a, b, f1, f2, s, c)


def adhm_operators(d: AdhmData, z) -> tuple[BlockOp, BlockOp]:
    """The maps alpha_z ((2N+N) x N) and beta_z (N x (2N+N)), as ``BlockOp``s."""
    z1, z2 = complex(z[0]), complex(z[1])
    N = d.F1.n
    x1 = d.F1.scale(d.t1) - ShiftMat.scalar(N, z1)
    x2 = d.F2.scale(d.t2) - ShiftMat.scalar(N, z2)
    alpha = BlockOp((x1, x2, ShiftMat.scalar(N, d.a)), 0)
    beta = BlockOp((x2.scale(-1), x1, d.S.scale(d.b)), 1)
    return alpha, beta


def adhm_residuals(d: AdhmData, z=(0, 0)) -> dict:
    """Residuals of the two ADHM matrix equations at the point z: the
    largest entries of beta alpha and of the moment map
    alpha^H alpha - beta beta^H at the origin."""
    alpha, beta = adhm_operators(d, z)
    alpha0, beta0 = (alpha, beta) if tuple(z) == (0, 0) else adhm_operators(d, (0, 0))
    complex_eq = reduce(add, (b @ a for b, a in zip(beta.blocks, alpha.blocks))).max_abs()
    moment = (alpha0.gram() - beta0.gram()).max_abs()
    return {"complex": complex_eq, "moment": moment}


def _positive_definite(first, rows, corner, tail, last, lam: float) -> bool:
    """Whether the Cholesky factorisation of A - lam I succeeds, for a
    Hermitian periodic tridiagonal n x n matrix A given as its entry
    A[0][0]; one (|A[i][i-1]|^2, conj A[i][i-1], A[i][i]) per row i in
    1..n-2; its corner A[n-1][0]; A[n-1][n-2]; and A[n-1][n-1].

    The rows are taken in order, and the factor fills the last column
    (cf. Barth-Martin-Wilkinson, Numer. Math. 9, 1967).  In the LDL^H
    form, ``p`` is the current pivot, ``w`` the current entry of the last
    row and ``last`` the last pivot as the eliminations reduce it.
    """
    p = first - lam
    if p <= 0:
        return False
    w = corner
    last -= lam
    for e2, ec, x in rows:
        last -= (w.real * w.real + w.imag * w.imag) / p
        w = -w * ec / p
        p = x - lam - e2 / p
        if p <= 0:
            return False
    w += tail
    return last - (w.real * w.real + w.imag * w.imag) / p > 0


def _min_eigenvalue(g: ShiftMat) -> float:
    """The smallest eigenvalue of the positive semidefinite Gram matrix
    ``g``, which must be periodic tridiagonal (shifts 0 and +-1), by
    bisection: lam is below it exactly when A - lam I has a Cholesky
    factorisation.  The bracket starts at [0, smallest diagonal entry]
    and ends within 2^-52 of its top, or of 2^-52 times its starting
    top, so the square root is good to about eps * |op|^2 / sigma_min."""
    n = g.n
    for k in g.terms:
        if k not in (0, 1, n - 1):
            raise AdhmError(f"the Gram matrix has a term at shift {k}; only 0 and +-1 are periodic tridiagonal")
    zero = (0j,) * n
    diag = [x.real for x in g.terms.get(0, zero)]
    sub = g.terms.get(1, zero)  # sub[i] = A[i][i-1]
    rows = [(e.real * e.real + e.imag * e.imag, e.conjugate(), x) for e, x in zip(sub[1:-1], diag[1:-1])]
    corner = g.terms.get(n - 1, zero)[n - 1] if n > 2 else 0j
    lo = 0.0
    hi = top = min(diag)
    while hi - lo > 2.0 ** -52 * max(hi, 2.0 ** -52 * top):
        mid = 0.5 * (lo + hi)
        if _positive_definite(diag[0], rows, corner, sub[-1], diag[-1], mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _min_sv(op: BlockOp) -> float:
    """Smallest singular value of ``op``: the square root of the smallest
    eigenvalue of its N x N Gram matrix."""
    return math.sqrt(_min_eigenvalue(op.gram()))


def min_singular_values(d: AdhmData, z) -> tuple[float, float]:
    """Smallest singular values of alpha_z and beta_z (rank certificates)."""
    alpha, beta = adhm_operators(d, z)
    return _min_sv(alpha), _min_sv(beta)


# ---------------------------------------------------------------------------
# the homogeneous family over projective space


def homogeneous_operators(inter, point) -> tuple[BlockOp, BlockOp]:
    """alpha, beta at homogeneous coordinates [t1, t2, a, b, u]: the
    ``adhm_operators`` of (t1, t2, a, b) at z = (u, u)."""
    t1, t2, a, b, u = (complex(x) for x in point)
    return adhm_operators(AdhmData(t1, t2, a, b, *inter), (u, u))


def on_quadric(inter, point, tol=TOL_EQ) -> bool:
    """Whether the composite beta alpha vanishes at the point (t1 t2 + C a b = 0),
    to ``tol`` relative to max(1, |t1 t2|), as in ``scalar_solution``."""
    _, _, _, c = inter
    t1, t2, a, b, _ = (complex(x) for x in point)
    return abs(t1 * t2 + c * a * b) < tol * max(1.0, abs(t1 * t2))


def quadric_point(inter, t1, t2, a=1.0):
    """Affine quadric point [t1, t2, a, b, 1] through the given scalars."""
    _, _, _, c = inter
    b = -t1 * t2 / (c * a)
    return (t1, t2, a, b, 1.0)


def homogeneous_rank_scan(inter, samples) -> dict:
    """Injectivity/surjectivity of the homogeneous maps along the quadric.

    Returns per-sample minimal singular values.  Away from the two
    degenerate points (only a nonzero, where beta collapses; only b
    nonzero, where alpha collapses) both maps have full rank N.
    """
    report = []
    for point in samples:
        if not on_quadric(inter, point):
            raise AdhmError(f"sample {point!r} is off the quadric")
        alpha, beta = homogeneous_operators(inter, point)
        report.append({"point": tuple(point), "alpha_min_sv": _min_sv(alpha), "beta_min_sv": _min_sv(beta)})
    return {
        "samples": report,
        "alpha_full_rank": all(r["alpha_min_sv"] > TOL_RANK for r in report),
        "beta_full_rank": all(r["beta_min_sv"] > TOL_RANK for r in report),
    }


DEGENERATE_ALPHA_POINT = (0, 0, 0, 1, 0)  # only b nonzero: alpha vanishes
DEGENERATE_BETA_POINT = (0, 0, 1, 0, 0)  # only a nonzero: beta vanishes


# ---------------------------------------------------------------------------
# the Chern number


def chern_series(N: int, order: int = 10) -> list[int]:
    """Coefficients of (1 - x)^(-N) up to x^order, exact integers (x = h^2)."""
    if order < 2:
        raise AdhmError("need at least the x^2 coefficient")
    return [math.comb(N - 1 + k, k) for k in range(order + 1)]


def series_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def binomial_series(N: int, order: int) -> list[int]:
    """Coefficients of (1 - x)^N, exact."""
    return [(-1) ** k * math.comb(N, k) if k <= N else 0 for k in range(order + 1)]


def chern_nu(N: int, order: int = 10) -> tuple[int, int]:
    """Point-class number from the basepoint bundle's total Chern class.

    The bundle deficit is (O(-1) + O(1)) tensor C^N inside a trivial
    bundle, so c = (1 - h^2)^(-N); the h^2 coefficient is the second
    Chern number nu_N = N.  Returns (nu, nu mod 2) after verifying the
    series identity (1 - h^2)^N * (1 - h^2)^(-N) = 1 exactly.
    """
    if order < 4:
        raise AdhmError("order must be at least 4")
    half = order // 2
    series = chern_series(N, half)
    check = series_mul(binomial_series(N, half), series, half)
    if check != [1] + [0] * half:
        raise AdhmError("chern series fails the defining identity")
    nu = series[1]  # coefficient of h^2
    return nu, nu % 2


# ---------------------------------------------------------------------------
# the full check


def verify_report(N: int) -> dict:
    """Check the rank-N construction end to end and report the margins.

    Solves the reduced equations on a 10 x 10 log grid of |t1|, |t2| in
    [0.1, 100] (random phases from ``random.Random(0)``), records the
    worst residual of each ADHM equation relative to max(1, |t1 t2|) and
    the smallest singular value of alpha_z, beta_z at a random z (normal
    coordinates from the same generator), computes nu_N exactly, and
    gives the smallest singular value of each map at its degenerate
    point.  ``pass`` holds when the residuals are below TOL_EQ, the rank
    margin is above TOL_RANK and nu_N == N.
    """
    rep = build_rep(N)
    inter = find_intertwiners(rep)
    worst_complex = 0.0
    worst_moment = 0.0
    worst_rank_margin = float("inf")
    rng = random.Random(0)
    grid = [10.0 ** (k / 3 - 1) for k in range(10)]
    for t1m in grid:
        for t2m in grid:
            t1 = t1m * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            t2 = t2m * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            d = scalar_solution(inter, t1, t2)
            res = adhm_residuals(d)
            scale = max(1.0, abs(t1 * t2))
            worst_complex = max(worst_complex, res["complex"] / scale)
            worst_moment = max(worst_moment, res["moment"] / scale)
            z = (complex(rng.gauss(0, 1), rng.gauss(0, 1)), complex(rng.gauss(0, 1), rng.gauss(0, 1)))
            sa, sb = min_singular_values(d, z)
            worst_rank_margin = min(worst_rank_margin, sa, sb)
    nu, nu_mod2 = chern_nu(N)
    degenerate = {}
    for label, point in (("alpha", DEGENERATE_ALPHA_POINT), ("beta", DEGENERATE_BETA_POINT)):
        alpha, beta = homogeneous_operators(inter, point)
        degenerate[f"{label}_min_sv_at_degenerate_point"] = _min_sv(alpha if label == "alpha" else beta)
    ok = (
        worst_complex < TOL_EQ
        and worst_moment < TOL_EQ
        and worst_rank_margin > TOL_RANK
        and nu == N
    )
    return {
        "rank": N,
        "max_complex_residual": worst_complex,
        "max_moment_residual": worst_moment,
        "min_rank_margin": worst_rank_margin,
        "nu": nu,
        "nu_mod2": nu_mod2,
        **degenerate,
        "pass": bool(ok),
    }
