"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every expectation is exact (integer or rational equality) except
for the stated 1e-10 numerical residuals in the ADHM criterion.
"""

import json
import random
import time
from fractions import Fraction as F
from itertools import product

import numpy as np

from webfoam import catalogue
from webfoam.adhm import (
    DEGENERATE_ALPHA_POINT,
    DEGENERATE_BETA_POINT,
    adhm_operators,
    adhm_residuals,
    build_rep,
    chern_nu,
    find_intertwiners,
    homogeneous_operators,
    scalar_solution,
)
from webfoam.dims import (
    BifoldTopology,
    dim_mod6,
    dim_parity,
    formal_dim,
    octahedron_consistent,
    octahedron_triangle_parities,
    psi_invariants,
)
from webfoam.foams import (
    SUM_R_MINUS,
    SUM_R_PLUS,
    SUM_T2,
    OrientableSurface,
    Sphere,
    Theta,
    apply_sum,
    burst_bubble,
    eval_crosscap,
    eval_sphere,
    eval_surface,
    eval_theta,
    neck_cut,
    sphere_closure_oracle,
    theta_closure_oracle,
)
from webfoam.generate import planar_cubic_webs, random_diagram
from webfoam.modules import (
    Presentation,
    edge_decomposition,
    is_cyclic,
    known_module,
    quotient_module,
    restrict_to_subspace,
    subspace_for,
)
from webfoam.skein import euler_char
from webfoam.tait import planar_lsharp_dim, signed_tait, tait_count
from webfoam.webs import parse_diagram


def report(number: int, label: str, start: float, budget: float) -> None:
    elapsed = time.monotonic() - start
    print(f"criterion {number}: PASS - {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_planar_tait_theorem():
    from webfoam.webs import disjoint_union_webs, make_web

    start = time.monotonic()
    checked = 0
    for entry in catalogue.CATALOGUE:
        if entry.planar_dim is None:
            continue
        web = catalogue.load_web(entry)
        if web.has_loop():
            continue
        assert planar_lsharp_dim(web) == tait_count(web), entry.name
        checked += 1
    generated = planar_cubic_webs(8)
    assert len(generated) == 1 + 2 + 5 + 17  # planar members of the census
    for web in generated:
        assert planar_lsharp_dim(web) == tait_count(web)
        checked += 1
    # disconnected webs up to 8 vertices: split unions of census members,
    # and circle components alongside them
    small = [w for w in generated if len(w.vertices) <= 4]
    for w1 in small:
        for w2 in small:
            if len(w1.vertices) + len(w2.vertices) > 8:
                continue
            u = disjoint_union_webs(w1, w2)
            assert planar_lsharp_dim(u) == tait_count(u)
            checked += 1
    for w in generated:
        if len(w.vertices) <= 6:
            wc = make_web(
                w.vertices, [(e, *w.edge_ends[e]) for e in w.edge_ends], ["extra-circle"]
            )
            assert planar_lsharp_dim(wc) == tait_count(wc)
            checked += 1
    report(1, f"planar dimension equals Tait count on {checked} webs", start, 30)


def test_criterion_2_catalogue_exact_values():
    start = time.monotonic()
    problems = catalogue.verify_all()
    assert not problems, problems
    expected = {
        "unknot": (3, 3),
        "theta": (6, 6),
        "tetrahedron": (6, 6),
        "cube": (24, 24),
        "hopf": (9, 9),
        "lhc": (4, 0),
        "trefoil": (7, 3),
        "tangled_handcuffs": (0, 0),
        "k33": (12, 0),
        "kinoshita_theta": (6, None),
    }
    for name, (dim, chi) in expected.items():
        entry = catalogue.get(name)
        if entry.module_name:
            mod = known_module(entry.module_name)
            assert mod.dim == dim, name
            if chi is not None and mod.grading is not None:
                assert mod.euler_characteristic() == chi, name
        else:
            assert planar_lsharp_dim(catalogue.load_web(entry)) == dim, name
    report(2, "all catalogue dimensions and Euler characteristics", start, 10)


def test_criterion_3_skein_evaluator():
    start = time.monotonic()
    chi_table = {
        "unknot": 3,
        "unlink_2": 9,
        "theta": 6,
        "tetrahedron": 6,
        "cube": 24,
        "hopf": 9,
        "lhc": 0,
        "trefoil": 3,
        "handcuffs": 0,
        "tangled_handcuffs": 0,
        "k33": 0,
    }
    for name, chi in chi_table.items():
        entry = catalogue.get(name)
        assert euler_char(catalogue.load_diagram(entry)) == chi, name
    seeds = [
        parse_diagram(json.dumps({"circles": ["a"]})),
        parse_diagram(json.dumps({"circles": ["a", "b"]})),
        catalogue.load_diagram(catalogue.get("theta")),
        catalogue.load_diagram(catalogue.get("tetrahedron")),
        catalogue.load_diagram(catalogue.get("handcuffs")),
    ]
    rng = random.Random(20250809)
    for _ in range(200):
        d = random_diagram(seeds, 10, rng)
        n = len(d.vertices)
        assert euler_char(d) == (-1) ** (n // 2) * signed_tait(d)
    report(3, "catalogue chi values and 200 random spatial diagrams", start, 60)


def test_criterion_4_foam_tables():
    start = time.monotonic()
    sphere_oracle = sphere_closure_oracle(10)
    for l in range(11):
        assert eval_sphere(l) == sphere_oracle[l]
    theta_oracle = theta_closure_oracle(6)
    for dots in product(range(7), repeat=3):
        assert eval_theta(*dots) == theta_oracle[dots]
    assert eval_theta(0, 1, 2) == 1
    assert eval_theta(1, 1, 1) == 0
    assert eval_theta(2, 2, 0) == 0
    assert eval_sphere(2) == 1
    report(4, "sphere and theta tables match the relation-closure oracle", start, 5)


def test_criterion_5_neck_cutting_and_bubbles():
    start = time.monotonic()
    assert neck_cut(OrientableSurface(1, 0), "handle").value() == 1 == eval_surface(1, 0)
    for k in (1, 2):
        assert burst_bubble(Theta((k, 0, 0))).value() == eval_sphere(k - 1)
    for dots in range(5):
        assert apply_sum(Sphere(dots), SUM_R_PLUS).value() == eval_sphere(dots)
        t2 = apply_sum(Sphere(dots), SUM_T2).value()
        rm = apply_sum(Sphere(dots), SUM_R_MINUS).value()
        assert t2 == rm
    from webfoam.foams import FoamExpr

    for g in range(1, 4):
        for dots in range(5):
            acc = FoamExpr.atom(Sphere(dots))
            for _ in range(g):
                out = FoamExpr.zero()
                for term in acc.terms:
                    out = out + apply_sum(term[0], SUM_T2)
                acc = out
            assert acc.value() == eval_surface(g, dots), (g, dots)
    for a in range(3):
        for b in range(3):
            if a + b == 0:
                continue
            for dots in range(5):
                acc = FoamExpr.atom(Sphere(dots))
                for deco in [SUM_R_PLUS] * a + [SUM_R_MINUS] * b:
                    out = FoamExpr.zero()
                    for term in acc.terms:
                        out = out + apply_sum(term[0], deco)
                    acc = out
                assert acc.value() == eval_crosscap(a, b, dots), (a, b, dots)
    report(5, "neck-cutting, bubble-bursting, and the surface table", start, 5)


def test_criterion_6_dimension_formulas():
    start = time.monotonic()
    b = BifoldTopology(kappa=0, b_plus=0, b_1=0, sigma_self=0, chi_sigma=4, t=2)
    assert formal_dim(b) == -2
    assert [psi_invariants(n)[3] for n in range(4)] == [-4, F(-5, 2), -2, F(-5, 2)]
    rng = random.Random(6)
    for _ in range(10_000):
        t = rng.randint(0, 6)
        s = rng.randint(-6, 6)
        if (s - t) % 2:
            s += 1
        b = BifoldTopology(
            kappa=F(rng.randint(0, 12), 2),
            b_plus=rng.randint(0, 5),
            b_1=rng.randint(0, 5),
            sigma_self=F(s),
            chi_sigma=rng.randint(-4, 8),
            t=t,
        )
        d = formal_dim(b)
        assert dim_mod6(b) == d % 6
        assert int(d) % 2 == dim_parity(b) == int(2 * b.sigma_self) % 2
    report(6, "formal dimension, psi constants, mod-6 and parity laws", start, 5)


def test_criterion_7_octahedron_parities():
    start = time.monotonic()
    assert octahedron_triangle_parities() == [1, 1, 1, 1]
    assert octahedron_consistent()
    report(7, "four exact triangles odd, four faces consistent", start, 1)


def test_criterion_8_adhm_appendix():
    start = time.monotonic()
    rep = build_rep(3)
    inter = find_intertwiners(rep)
    eye = np.eye(3)
    assert np.max(np.abs(np.linalg.matrix_power(rep.rho_g, 3) - eye)) < 1e-12
    assert np.max(np.abs(np.linalg.matrix_power(rep.rho_h, 3) - eye)) < 1e-12
    comm = rep.rho_g @ rep.rho_h @ np.linalg.inv(rep.rho_g) @ np.linalg.inv(rep.rho_h)
    assert np.max(np.abs(comm - rep.rho_gamma)) < 1e-12

    rng = np.random.default_rng(8)
    mags = [10.0 ** (k / 3 - 1.5) for k in range(10)]
    zs = [
        (complex(x, y), complex(u, v))
        for x, y, u, v in rng.normal(size=(100, 4))
    ]
    for m1 in mags:
        for m2 in mags:
            t1 = m1 * np.exp(2j * np.pi * rng.uniform())
            t2 = m2 * np.exp(2j * np.pi * rng.uniform())
            d = scalar_solution(inter, t1, t2)
            res = adhm_residuals(d)
            scale = max(1.0, abs(t1 * t2))
            assert res["complex"] < 1e-10 * scale
            assert res["moment"] < 1e-10 * scale
            for z in zs[:10]:
                alpha, beta = adhm_operators(d, z)
                zscale = max(1.0, abs(t1 * t2), abs(z[0] * z[1]))
                assert np.max(np.abs(beta @ alpha)) < 1e-10 * zscale
            z = zs[rng.integers(len(zs))]
            alpha, beta = adhm_operators(d, z)
            assert np.linalg.svd(alpha, compute_uv=False)[-1] > 1e-6
            assert np.linalg.svd(beta, compute_uv=False)[-1] > 1e-6

    alpha, beta = homogeneous_operators(inter, DEGENERATE_ALPHA_POINT)
    assert np.linalg.svd(alpha, compute_uv=False)[-1] < 1e-12
    alpha, beta = homogeneous_operators(inter, DEGENERATE_BETA_POINT)
    assert np.linalg.svd(beta, compute_uv=False)[-1] < 1e-12

    for n in range(1, 9):
        nu, parity = chern_nu(n)
        assert nu == n
    assert chern_nu(3)[1] == 1
    report(8, "representation, ADHM equations, ranks, and nu_N = N", start, 30)


def test_criterion_9_module_algebra():
    start = time.monotonic()
    dims = []
    for gens, rels in (
        (["u"], ["u^3 + u"]),
        (["u1", "u2", "u3"], ["u1 + u2 + u3", "u1*u2 + u2*u3 + u3*u1 + 1", "u1*u2*u3"]),
        (["u1", "u2", "v"], ["v", "u1 + u2", "u1^2 + 1"]),
    ):
        dims.append(quotient_module(Presentation.parse(gens, rels)).dim)
    assert dims == [3, 6, 2]

    dec = edge_decomposition(known_module("unknot"))
    assert dec.summands == {frozenset(): 2, frozenset({"e"}): 1}
    dec = edge_decomposition(known_module("theta"))
    assert sorted(dec.summands.values()) == [2, 2, 2]
    assert all(len(s) == 1 for s in dec.summands)

    cyclicity = {}
    for name in ("hopf", "unlink_2"):
        mod = known_module(name)
        edges = sorted(mod.ops)
        sub = restrict_to_subspace(mod, subspace_for(mod, frozenset(), edges))
        cyclicity[name] = (sub.dim, is_cyclic(sub))
    assert cyclicity["unlink_2"] == (4, True)
    assert cyclicity["hopf"] == (4, False)
    report(9, "presentation dims, edge decompositions, cyclicity split", start, 5)
