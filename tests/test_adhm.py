import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from webfoam import adhm
from webfoam.adhm import (
    AdhmError,
    DEGENERATE_ALPHA_POINT,
    DEGENERATE_BETA_POINT,
    MAX_RANK,
    TOL_EQ,
    TOL_RANK,
    ShiftMat,
    adhm_operators,
    adhm_residuals,
    binomial_series,
    build_rep,
    chern_nu,
    chern_series,
    find_intertwiners,
    homogeneous_operators,
    homogeneous_rank_scan,
    min_singular_values,
    on_quadric,
    quadric_point,
    scalar_solution,
    series_mul,
)


def dense(m):
    """The matrix as a numpy array, through its ``tolist()`` rows."""
    return np.array(m.tolist())


@pytest.fixture(scope="module")
def rep3():
    return build_rep(3)


@pytest.fixture(scope="module")
def inter3(rep3):
    return find_intertwiners(rep3)


class TestRepresentation:
    def test_displayed_matrices(self, rep3):
        w = cmath.exp(2j * cmath.pi / 3)
        assert np.allclose(dense(rep3.rho_g), np.diag([w, 1, w ** -1]), atol=1e-12)
        assert np.allclose(dense(rep3.rho_h), [[0, 1, 0], [0, 0, 1], [1, 0, 0]], atol=1e-12)
        assert np.allclose(dense(rep3.rho_gamma), w * np.eye(3), atol=1e-12)

    def test_order_three(self, rep3):
        for m in (rep3.rho_g, rep3.rho_h):
            assert np.max(np.abs(np.linalg.matrix_power(dense(m), 3) - np.eye(3))) < 1e-12

    def test_commutator(self, rep3):
        g, h = dense(rep3.rho_g), dense(rep3.rho_h)
        comm = g @ h @ np.linalg.inv(g) @ np.linalg.inv(h)
        assert np.max(np.abs(comm - dense(rep3.rho_gamma))) < 1e-12

    def test_even_rank(self):
        rep = build_rep(2)
        # the determinant-one lift squares to minus the identity
        assert abs(rep.epsilon ** 2 + 1) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(dense(rep.rho_g), 2) + np.eye(2))) < 1e-12
        for m in (rep.rho_g, rep.rho_h):
            assert abs(np.linalg.det(dense(m)) - 1) < 1e-12

    def test_general_ranks(self):
        for n in (4, 5, 6, 7, 8):
            rep = build_rep(n)
            g, h = dense(rep.rho_g), dense(rep.rho_h)
            comm = g @ h @ np.linalg.inv(g) @ np.linalg.inv(h)
            assert np.max(np.abs(comm - rep.zeta * np.eye(n))) < 1e-10

    def test_rank_one_rejected(self):
        with pytest.raises(AdhmError):
            build_rep(1)

    def test_rank_limit(self):
        assert build_rep(MAX_RANK).N == MAX_RANK
        with pytest.raises(AdhmError, match="MAX_RANK"):
            build_rep(MAX_RANK + 1)


class TestIntertwiners:
    def test_defining_property(self, rep3, inter3):
        f1, f2 = (dense(m) for m in inter3[:2])
        pairs = [
            (f1, {"g": rep3.zeta, "h": rep3.zeta}),
            (f2, {"g": rep3.zeta ** -1, "h": 1.0}),
        ]
        for f, chi in pairs:
            for name, gen in (("g", dense(rep3.rho_g)), ("h", dense(rep3.rho_h))):
                defect = np.max(np.abs(f @ gen - chi[name] * gen @ f))
                assert defect < 1e-12, name

    def test_unitary(self, inter3):
        for m in map(dense, inter3[:3]):
            assert np.max(np.abs(m @ m.conj().T - np.eye(3))) < 1e-12

    def test_commutator_scalar_times_unitary(self, inter3):
        f1, f2 = (dense(m) for m in inter3[:2])
        bracket = f1 @ f2 - f2 @ f1
        svs = np.linalg.svd(bracket, compute_uv=False)
        assert svs[0] > 1e-6
        assert np.max(np.abs(svs - svs[0])) < 1e-12

    def test_normalization_scalar(self, inter3):
        _, _, s, c = inter3
        # for rank 3 the commutator has operator norm sqrt(3)
        assert abs(abs(c) - 1 / np.sqrt(3)) < 1e-12
        assert c.real < 0 and abs(c.imag) < 1e-12


def searched_intertwiners(rep):
    """Oracle for ``find_intertwiners``: the first rho(g)^p rho(h)^q, p then
    q running over 0..N-1, that intertwines each coordinate's character."""
    N, zeta = rep.N, rep.zeta
    g_powers, h_powers = [ShiftMat.scalar(N, 1)], [ShiftMat.scalar(N, 1)]
    for _ in range(N - 1):
        g_powers.append(g_powers[-1] @ rep.rho_g)
        h_powers.append(h_powers[-1] @ rep.rho_h)
    found = []
    for chi in ({"g": zeta, "h": zeta}, {"g": zeta ** -1, "h": 1.0}):
        found.append(next(
            m for gp in g_powers for hq in h_powers for m in [gp @ hq]
            if all((m @ gen - (gen @ m).scale(chi[name])).max_abs() <= 1e-10
                   for name, gen in (("g", rep.rho_g), ("h", rep.rho_h)))
        ))
    return found


@pytest.mark.parametrize("n", [*range(2, 17), 64])
def test_derived_intertwiners_are_the_searched_ones(n):
    rep = build_rep(n)
    f1, f2, _, _ = find_intertwiners(rep)
    assert [f1, f2] == searched_intertwiners(rep)


class TestScalarSolution:
    def test_unit_point(self, inter3):
        d = scalar_solution(inter3, 1, 1)
        assert abs(d.a - d.b) < 1e-12
        res = adhm_residuals(d)
        assert res["complex"] < 1e-12 and res["moment"] < 1e-12

    def test_first_equation_exact(self, inter3):
        d = scalar_solution(inter3, 2 + 1j, -0.5 + 0.25j)
        assert abs(d.t1 * d.t2 + d.C * d.a * d.b) < 1e-12

    def test_moduli_magnitudes(self, inter3):
        d = scalar_solution(inter3, 3, -4j)
        assert abs(abs(d.a) - abs(d.b)) < 1e-12
        # |a| = (|t1 t2| / |C|)^(1/2), forced by the unitary normalization
        assert abs(abs(d.a) - (12 / abs(d.C)) ** 0.5) < 1e-10

    def test_scaling_homogeneity(self, inter3):
        d1 = scalar_solution(inter3, 1 + 1j, 2)
        lam = 3.5
        d2 = scalar_solution(inter3, lam * (1 + 1j), lam * 2)
        assert abs(d2.a - lam * d1.a) < 1e-10
        assert abs(d2.b - lam * d1.b) < 1e-10

    def test_uhlenbeck_boundary(self, inter3):
        d = scalar_solution(inter3, 1.5, 0)
        assert d.uhlenbeck and d.a == 0 and d.b == 0
        res = adhm_residuals(d)
        assert res["complex"] < 1e-12 and res["moment"] < 1e-12

    def test_both_zero_rejected(self, inter3):
        with pytest.raises(AdhmError):
            scalar_solution(inter3, 0, 0)


class TestOperators:
    def test_shapes(self, inter3):
        d = scalar_solution(inter3, 1, 1)
        alpha, beta = adhm_operators(d, (0.3, -0.7j))
        assert dense(alpha).shape == (9, 3)
        assert dense(beta).shape == (3, 9)

    def test_complex_equation_all_z(self, inter3):
        d = scalar_solution(inter3, 1 - 2j, 0.7)
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
            alpha, beta = adhm_operators(d, z)
            assert np.max(np.abs(dense(beta) @ dense(alpha))) < 1e-10

    def test_grid_residuals_and_ranks(self, inter3):
        rng = np.random.default_rng(2)
        mags = [10.0 ** (k / 3 - 1.5) for k in range(10)]
        for m1 in mags[:5]:
            for m2 in mags[:5]:
                t1 = m1 * np.exp(2j * np.pi * rng.uniform())
                t2 = m2 * np.exp(2j * np.pi * rng.uniform())
                d = scalar_solution(inter3, t1, t2)
                res = adhm_residuals(d)
                scale = max(1.0, abs(t1 * t2))
                assert res["complex"] / scale < 1e-10
                assert res["moment"] / scale < 1e-10
                for _ in range(3):
                    z = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
                    sa, sb = min_singular_values(d, z)
                    assert sa > TOL_RANK and sb > TOL_RANK

    def test_residuals_build_the_operators_once_at_the_origin(self, inter3, monkeypatch):
        import webfoam.adhm as adhm

        calls = []

        def counted(d, z):
            calls.append(z)
            return adhm_operators(d, z)

        monkeypatch.setattr(adhm, "adhm_operators", counted)
        d = scalar_solution(inter3, 1 - 2j, 0.7)
        at_origin = adhm_residuals(d)
        assert len(calls) == 1
        # elsewhere the moment map still reads the operators at the origin
        assert adhm_residuals(d, (0.3, -0.7j))["moment"] == at_origin["moment"]
        assert calls[1:] == [(0.3, -0.7j), (0, 0)]
        calls.clear()
        assert adhm.verify_report(3)["pass"]
        # per grid point one call for the residuals and one for the rank
        # margins at a random z, then one per degenerate point
        assert len(calls) == 100 * 2 + 2


class TestHomogeneousFamily:
    def test_generic_full_rank(self, inter3):
        pts = [
            quadric_point(inter3, 1 + 0.5j, -2),
            quadric_point(inter3, 0.1, 0.1, a=3),
            quadric_point(inter3, -1j, 2 + 2j, a=0.25),
        ]
        report = homogeneous_rank_scan(inter3, pts)
        assert report["alpha_full_rank"] and report["beta_full_rank"]

    def test_alpha_degenerates_only_b(self, inter3):
        alpha, beta = map(dense, homogeneous_operators(inter3, DEGENERATE_ALPHA_POINT))
        assert np.linalg.svd(alpha, compute_uv=False)[-1] < 1e-14
        assert np.linalg.svd(beta, compute_uv=False)[-1] > TOL_RANK

    def test_beta_degenerates_only_a(self, inter3):
        alpha, beta = map(dense, homogeneous_operators(inter3, DEGENERATE_BETA_POINT))
        assert np.linalg.svd(beta, compute_uv=False)[-1] < 1e-14
        assert np.linalg.svd(alpha, compute_uv=False)[-1] > TOL_RANK

    def test_degenerate_points_on_quadric(self, inter3):
        assert on_quadric(inter3, DEGENERATE_ALPHA_POINT)
        assert on_quadric(inter3, DEGENERATE_BETA_POINT)

    def test_off_quadric_rejected(self, inter3):
        with pytest.raises(AdhmError):
            homogeneous_rank_scan(inter3, [(1, 1, 1, 1, 1)])

    def test_quadric_tolerance_scales_with_t1_t2(self, inter3):
        # |t1 t2| is about 1.5e8, so its rounding alone exceeds an absolute 1e-10
        point = quadric_point(inter3, 1e4 * (1 + 0.3j), 1e4 * (0.7 - 1j))
        report = homogeneous_rank_scan(inter3, [point])
        assert report["alpha_full_rank"] and report["beta_full_rank"]
        t1, t2, a, b, u = point
        with pytest.raises(AdhmError, match="off the quadric"):
            homogeneous_rank_scan(inter3, [(t1, t2, a, b * (1 + 1e-6), u)])


def _svd_min(op):
    """numpy's smallest singular value of the dense ``op``, and the
    tolerance scale max(1, |op|) with |op| its 2-norm."""
    return np.linalg.svd(op, compute_uv=False)[-1], max(1.0, np.linalg.norm(op, 2))


def _random_t(rng):
    """|t1|, |t2| log-uniform in [0.1, 100] with uniform phases, as in
    ``verify_report``."""
    return 10.0 ** rng.uniform(-1, 2, size=2) * np.exp(2j * np.pi * rng.uniform(size=2))


def test_rank_margin_refuses_a_gram_matrix_off_the_tridiagonal():
    """The bisection reads a periodic tridiagonal Gram matrix; a term at
    any other shift is refused, not ignored."""
    from webfoam.adhm import BlockOp, ShiftMat, _min_sv

    n = 4
    tridiagonal = ShiftMat(n, {0: (2, 1, 3, 1j), 1: (0.5, 1, -1, 2j)})
    op = BlockOp((tridiagonal, ShiftMat.scalar(n, 1), ShiftMat(n, {2: (1 + 0j,) * n})), 0)
    assert sorted(op.gram().terms) == [0, 1, 3]
    assert _min_sv(op) == pytest.approx(np.linalg.svd(dense(op), compute_uv=False)[-1], abs=1e-12)
    skew = BlockOp((ShiftMat.scalar(n, 1) + ShiftMat(n, {2: (1 + 0j,) * n}),) * 3, 0)
    with pytest.raises(AdhmError, match="shift 2"):
        _min_sv(skew)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 64])
def test_margins_and_residuals_match_numpy(n):
    """``min_singular_values``, ``homogeneous_rank_scan`` and
    ``adhm_residuals`` agree with numpy's dense SVD and dense products on
    the ``tolist()`` rows within 1e-12 max(1, |op|), at random points and
    at both degenerate points.  For a residual |op| is the largest norm
    its two factors can give: |alpha| |beta|, |alpha_0|^2 or |beta_0|^2."""
    inter = find_intertwiners(build_rep(n))
    rng = np.random.default_rng(n)
    for _ in range(4):
        t1, t2 = _random_t(rng)
        z = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        d = scalar_solution(inter, t1, t2)
        alpha, beta = map(dense, adhm_operators(d, z))
        for got, op in zip(min_singular_values(d, z), (alpha, beta)):
            ref, scale = _svd_min(op)
            assert abs(got - ref) <= 1e-12 * scale
        alpha0, beta0 = map(dense, adhm_operators(d, (0, 0)))
        norms = [np.linalg.norm(op, 2) for op in (alpha, beta, alpha0, beta0)]
        scale = max(1.0, norms[0] * norms[1], norms[2] ** 2, norms[3] ** 2)
        res = adhm_residuals(d, z)
        assert abs(res["complex"] - np.max(np.abs(beta @ alpha))) <= 1e-12 * scale
        moment = alpha0.conj().T @ alpha0 - beta0 @ beta0.conj().T
        assert abs(res["moment"] - np.max(np.abs(moment))) <= 1e-12 * scale
    points = [quadric_point(inter, *_random_t(rng), a=10.0 ** rng.uniform(-1, 1)) for _ in range(3)]
    points += [DEGENERATE_ALPHA_POINT, DEGENERATE_BETA_POINT]
    scan = homogeneous_rank_scan(inter, points)
    for row, point in zip(scan["samples"], points):
        for key, op in zip(("alpha_min_sv", "beta_min_sv"), homogeneous_operators(inter, point)):
            ref, scale = _svd_min(dense(op))
            assert abs(row[key] - ref) <= 1e-12 * scale
    assert scan["samples"][-2]["alpha_min_sv"] == scan["samples"][-1]["beta_min_sv"] == 0


def grid_samples(inter):
    """The grid solutions of ``verify_report``, each with its random point
    z, drawn from ``random.Random(0)`` in the same order."""
    rng = random.Random(0)
    grid = [10.0 ** (k / 3 - 1) for k in range(10)]
    for t1m in grid:
        for t2m in grid:
            t1 = t1m * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            t2 = t2m * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            z_draws = [rng.gauss(0, 1) for _ in range(4)]
            yield scalar_solution(inter, t1, t2), (complex(*z_draws[:2]), complex(*z_draws[2:]))


def full_bisection_report(n):
    """Oracle for ``verify_report``: the same grid and draws, every rank
    margin bisected, and no certificate in ``pass``."""
    inter = find_intertwiners(build_rep(n))
    worst = [0.0, 0.0, float("inf")]
    for d, z in grid_samples(inter):
        res = adhm_residuals(d)
        scale = max(1.0, abs(d.t1 * d.t2))
        worst[0] = max(worst[0], res["complex"] / scale)
        worst[1] = max(worst[1], res["moment"] / scale)
        worst[2] = min(worst[2], *min_singular_values(d, z))
    nu, nu_mod2 = chern_nu(n)
    alpha_sv = adhm._min_sv(homogeneous_operators(inter, DEGENERATE_ALPHA_POINT)[0])
    beta_sv = adhm._min_sv(homogeneous_operators(inter, DEGENERATE_BETA_POINT)[1])
    return {
        "rank": n,
        "max_complex_residual": worst[0],
        "max_moment_residual": worst[1],
        "min_rank_margin": worst[2],
        "nu": nu,
        "nu_mod2": nu_mod2,
        "alpha_min_sv_at_degenerate_point": alpha_sv,
        "beta_min_sv_at_degenerate_point": beta_sv,
        "pass": worst[0] < TOL_EQ and worst[1] < TOL_EQ and worst[2] > TOL_RANK and nu == n,
    }


@pytest.mark.parametrize("n", range(2, 9))
def test_report_equals_the_full_bisection(n):
    assert adhm.verify_report(n) == full_bisection_report(n)


def exact_positive_definite(g, lam) -> bool:
    """Whether G - lam I is positive definite, by an exact LDL^H in
    Gaussian rationals (pairs of Fractions), G being the Hermitian matrix
    that the float entries of ``g`` on and below the diagonal denote."""
    n = g.n
    a = [[(Fraction(x.real), Fraction(x.imag)) for x in row] for row in g.tolist()]
    pivots, low = [], {}  # low[i, k]: the entry (i, k) of the unit lower factor
    for k in range(n):
        p = a[k][k][0] - Fraction(lam) - sum((low[k, j][0] ** 2 + low[k, j][1] ** 2) * pivots[j] for j in range(k))
        if p <= 0:
            return False
        pivots.append(p)
        for i in range(k + 1, n):
            re, im = a[i][k]
            for j in range(k):  # minus low[i, j] conj(low[k, j]) pivots[j]
                (x, y), (u, v) = low[i, j], low[k, j]
                re -= (x * u + y * v) * pivots[j]
                im -= (y * u - x * v) * pivots[j]
            low[i, k] = (re / p, im / p)
    return True


@pytest.mark.parametrize("n", [2, 3])
def test_certificate_and_skips_hold_exactly(n):
    """Each rank-margin Gram matrix that the float certificate passes is
    exactly positive definite above TOL_RANK^2, and each one the margin
    does not bisect is exactly so above the running minimum squared."""
    inter = find_intertwiners(build_rep(n))
    grams = [op.gram() for d, z in grid_samples(inter) for op in adhm_operators(d, z)]
    worst, bisected = float("inf"), 0
    for g in grams:
        parts = adhm._tridiagonal(g)
        assert adhm._certified_above(parts, TOL_RANK ** 2)
        assert exact_positive_definite(g, Fraction(TOL_RANK) ** 2)
        lam = adhm._min_eigenvalue(parts)  # within a relative 1e-9 of the exact eigenvalue
        assert exact_positive_definite(g, lam * (1 - 1e-9)) and not exact_positive_definite(g, lam * (1 + 1e-9))
        if adhm._certified_above(parts, worst * worst * (1 + 2.0 ** -20)):
            assert exact_positive_definite(g, Fraction(worst) ** 2)
        else:
            bisected += 1
            worst = min(worst, math.sqrt(lam))
    assert adhm._rank_margin(grams) == (worst, True, bisected)
    assert 0 < bisected < len(grams) // 10


def test_certificate_asks_for_the_rounding_bound():
    """[[1, c], [c, 1]] has smallest eigenvalue 1 - c, here 3e-15 above
    TOL_RANK^2: it is exactly positive definite there, and the bisection
    says so, but the margin is within the rounding bound (about 5e-15 at
    this size), so it is not certified."""
    c = 1 - (TOL_RANK ** 2 + 3e-15)
    g = ShiftMat(2, {0: (1 + 0j, 1 + 0j), 1: (c + 0j, c + 0j)})
    parts = adhm._tridiagonal(g)
    assert adhm._min_eigenvalue(parts) > TOL_RANK ** 2
    assert exact_positive_definite(g, Fraction(TOL_RANK) ** 2)
    assert not adhm._certified_above(parts, TOL_RANK ** 2)
    assert adhm._certified_above(parts, TOL_RANK ** 2 - 1e-14)


class TestChern:
    def test_nu_is_rank(self):
        for n in range(1, 9):
            nu, parity = chern_nu(n)
            assert nu == n
            assert parity == n % 2

    def test_nu3_odd(self):
        assert chern_nu(3) == (3, 1)

    def test_series_identity_exact(self):
        for n in (1, 2, 3, 5, 8):
            order = 9
            prod = series_mul(binomial_series(n, order), chern_series(n, order), order)
            assert prod == [1] + [0] * order

    def test_geometric_series(self):
        assert chern_series(1, 5) == [1, 1, 1, 1, 1, 1]

    def test_order_bound(self):
        with pytest.raises(AdhmError):
            chern_nu(3, order=2)
