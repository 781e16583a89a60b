"""Equivariant ADHM data for the order-N^3 symmetry group and the
second Chern class of the basepoint bundle.

The finite group generated by clock and shift matrices acts on charge-N
framed instantons on C^2; invariant solutions reduce to two complex
scalars (t1, t2).  The code builds the representation, finds the
intertwiners by monomial search, solves the reduced ADHM equations,
checks the matrix equations and the rank conditions numerically, and
computes the Chern number of the basepoint bundle exactly from the
series (1 - h^2)^(-N).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np

TOL_REL = 1e-12
TOL_EQ = 1e-10
TOL_RANK = 1e-6

# Largest rank ``build_rep`` accepts.  ``adhm-verify`` takes 0.8 s at rank
# 64 (mostly its 200 singular value decompositions of 3N x N matrices),
# 4.3 s at 128 and more than a minute at 400, and rank 100,000 runs out of
# memory.
MAX_RANK = 64


class AdhmError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the group representation


class GroupRep(namedtuple("GroupRep", "N rho_g rho_h rho_gamma zeta epsilon")):
    """The rank N; the clock ``rho_g``, the shift ``rho_h`` and the
    central ``rho_gamma`` as N x N matrices; zeta = exp(2 pi i / N) and
    the clock's factor epsilon."""

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
        rho_g = np.diag([w, 1.0, w ** -1]).astype(complex)
        rho_h = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
        eps = 1.0 + 0j
    else:
        eps = 1.0 + 0j if N % 2 == 1 else cmath.exp(1j * cmath.pi / N)
        rho_g = eps * np.diag([zeta ** k for k in range(N)])
        shift = np.zeros((N, N), dtype=complex)
        for i in range(N):
            shift[(i + 1) % N, i] = 1.0  # e_i -> e_{i+1}; conjugating the clock by this scales by zeta
        rho_h = eps * shift
    rho_gamma = zeta * np.eye(N, dtype=complex)
    rep = GroupRep(N, rho_g, rho_h, rho_gamma, zeta, eps)
    _check_rep(rep)
    return rep


def _check_rep(rep: GroupRep) -> None:
    N = rep.N
    eye = np.eye(N)
    comm = rep.rho_g @ rep.rho_h @ np.linalg.inv(rep.rho_g) @ np.linalg.inv(rep.rho_h)
    if np.max(np.abs(comm - rep.rho_gamma)) > TOL_REL * 10:
        raise AdhmError("commutator relation [g, h] = gamma fails")
    if np.max(np.abs(rep.rho_gamma - rep.zeta * eye)) > TOL_REL:
        raise AdhmError("gamma must act as the scalar zeta")
    scalar = rep.epsilon ** N
    for name, m in (("g", rep.rho_g), ("h", rep.rho_h)):
        if np.max(np.abs(np.linalg.matrix_power(m, N) - scalar * eye)) > TOL_REL * 100:
            raise AdhmError(f"rho({name})^N is not the scalar eps^N")
        if abs(np.linalg.det(m) - 1) > TOL_REL * 100:
            raise AdhmError(f"rho({name}) must have determinant one")


# ---------------------------------------------------------------------------
# intertwiners


def _is_unitary(m: np.ndarray, tol=TOL_REL * 100) -> bool:
    return np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) < tol


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
    found = []
    for chi in chars:
        hit = None
        for p in range(N):
            for q in range(N):
                m = np.linalg.matrix_power(rep.rho_g, p) @ np.linalg.matrix_power(rep.rho_h, q)
                ok = True
                for name, gen in (("g", rep.rho_g), ("h", rep.rho_h)):
                    if np.max(np.abs(m @ gen - chi[name] * gen @ m)) > TOL_REL * 100:
                        ok = False
                        break
                if ok:
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
    norm = np.linalg.norm(bracket, 2)
    if norm < TOL_RANK:
        raise AdhmError("[F1, F2] vanishes; the commutator must be a unitary multiple")
    c = -1.0 / norm
    s = c * bracket
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


def adhm_operators(d: AdhmData, z) -> tuple[np.ndarray, np.ndarray]:
    """The maps alpha_z ((2N+N) x N) and beta_z (N x (2N+N))."""
    z1, z2 = complex(z[0]), complex(z[1])
    N = d.F1.shape[0]
    eye = np.eye(N, dtype=complex)
    alpha = np.concatenate([d.t1 * d.F1 - z1 * eye, d.t2 * d.F2 - z2 * eye, d.a * eye])
    beta = np.concatenate([-d.t2 * d.F2 + z2 * eye, d.t1 * d.F1 - z1 * eye, d.b * d.S], axis=1)
    return alpha, beta


def adhm_residuals(d: AdhmData, z=(0, 0)) -> dict:
    """Residuals of the two ADHM matrix equations at the point z."""
    alpha, beta = adhm_operators(d, z)
    alpha0, beta0 = (alpha, beta) if tuple(z) == (0, 0) else adhm_operators(d, (0, 0))
    complex_eq = np.max(np.abs(beta @ alpha))
    moment = np.max(np.abs(alpha0.conj().T @ alpha0 - beta0 @ beta0.conj().T))
    return {"complex": float(complex_eq), "moment": float(moment)}


def _min_sv(m: np.ndarray) -> float:
    """Smallest singular value of ``m``."""
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def min_singular_values(d: AdhmData, z) -> tuple[float, float]:
    """Smallest singular values of alpha_z and beta_z (rank certificates)."""
    alpha, beta = adhm_operators(d, z)
    return _min_sv(alpha), _min_sv(beta)


# ---------------------------------------------------------------------------
# the homogeneous family over projective space


def homogeneous_operators(inter, point) -> tuple[np.ndarray, np.ndarray]:
    """alpha, beta at homogeneous coordinates [t1, t2, a, b, u]: the
    ``adhm_operators`` of (t1, t2, a, b) at z = (u, u)."""
    t1, t2, a, b, u = (complex(x) for x in point)
    return adhm_operators(AdhmData(t1, t2, a, b, *inter), (u, u))


def on_quadric(inter, point, tol=TOL_EQ) -> bool:
    """Whether the composite beta alpha vanishes at the point (t1 t2 + C a b = 0)."""
    _, _, _, c = inter
    t1, t2, a, b, _ = (complex(x) for x in point)
    return abs(t1 * t2 + c * a * b) < tol


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
    [0.1, 100] (seeded random phases), records the worst residual of each
    ADHM equation relative to max(1, |t1 t2|) and the smallest singular
    value of alpha_z, beta_z at a random z, computes nu_N exactly, and
    gives the smallest singular value of each map at its degenerate
    point.  ``pass`` holds when the residuals are below TOL_EQ, the rank
    margin is above TOL_RANK and nu_N == N.
    """
    rep = build_rep(N)
    inter = find_intertwiners(rep)
    worst_complex = 0.0
    worst_moment = 0.0
    worst_rank_margin = float("inf")
    rng = np.random.default_rng(0)
    grid = [10.0 ** (k / 3 - 1) for k in range(10)]
    for t1m in grid:
        for t2m in grid:
            t1 = t1m * np.exp(1j * rng.uniform(0, 2 * np.pi))
            t2 = t2m * np.exp(1j * rng.uniform(0, 2 * np.pi))
            d = scalar_solution(inter, t1, t2)
            res = adhm_residuals(d)
            scale = max(1.0, abs(t1 * t2))
            worst_complex = max(worst_complex, res["complex"] / scale)
            worst_moment = max(worst_moment, res["moment"] / scale)
            z = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
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
