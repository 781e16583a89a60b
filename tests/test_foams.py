import signal
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webfoam import gf2
from webfoam.foams import (
    MAX_NESTING,
    MAX_TERMS,
    NECK_TERMS,
    SUM_R_MINUS,
    SUM_R_PLUS,
    SUM_T2,
    CrossCapSurface,
    FoamError,
    FoamExpr,
    OrientableSurface,
    Sphere,
    TetSusp,
    Theta,
    apply_sum,
    burst_bubble,
    eval_crosscap,
    eval_sphere,
    eval_surface,
    eval_tet_susp,
    eval_theta,
    neck_cut,
    parse_expr,
    sphere_closure_oracle,
    theta_closure_oracle,
    unknot_pairing_matrix,
)


class TestSphere:
    def test_stated_values(self):
        assert eval_sphere(0) == 0
        assert eval_sphere(2) == 1
        assert eval_sphere(5) == 0
        assert eval_sphere(6) == 1

    def test_cube_relation(self):
        for l in range(9):
            assert eval_sphere(l + 3) == eval_sphere(l + 1)

    def test_closure_oracle(self):
        oracle = sphere_closure_oracle(12)
        for l in range(13):
            assert oracle[l] == eval_sphere(l)

    def test_negative_rejected(self):
        with pytest.raises(FoamError):
            eval_sphere(-1)


class TestTheta:
    @pytest.mark.parametrize(
        "dots,expected",
        [((0, 1, 2), 1), ((1, 1, 1), 0), ((2, 2, 0), 0), ((0, 3, 2), 1), ((2, 2, 2), 0)],
    )
    def test_stated_values(self, dots, expected):
        assert eval_theta(*dots) == expected

    def test_general_family(self):
        for m in range(3):
            for n in range(3):
                assert eval_theta(0, 1 + 2 * m, 2 + 2 * n) == 1

    def test_permutation_symmetry(self):
        from itertools import permutations

        for dots in product(range(5), repeat=3):
            vals = {eval_theta(*p) for p in permutations(dots)}
            assert len(vals) == 1

    def test_migration_relation(self):
        for l1, l2, l3 in product(range(7), repeat=3):
            total = (
                eval_theta(l1 + 1, l2, l3)
                + eval_theta(l1, l2 + 1, l3)
                + eval_theta(l1, l2, l3 + 1)
            )
            assert total % 2 == 0

    def test_equal_pair_vanishes(self):
        for l1, l3 in product(range(5), repeat=2):
            assert eval_theta(l1, l1, l3 + 1) == 0

    def test_cube_relation(self):
        for l in range(8):
            assert eval_theta(l + 3, 1, 2) == eval_theta(l + 1, 1, 2)

    def test_closure_oracle_full_grid(self):
        oracle = theta_closure_oracle(6)
        for dots in product(range(7), repeat=3):
            assert oracle[dots] == eval_theta(*dots)


class TestTetSusp:
    def test_stated_values(self):
        assert eval_tet_susp(0, 1, 2, 0, 0, 0) == 1
        assert eval_tet_susp(0, 1, 1, 1, 0, 0) == 0
        assert eval_tet_susp(0, 0, 0, 0, 1, 2) == 1

    def test_opposite_facets_add(self):
        for k in product(range(3), repeat=3):
            for l in product(range(3), repeat=3):
                assert eval_tet_susp(*k, *l) == eval_theta(
                    k[0] + l[0], k[1] + l[1], k[2] + l[2]
                )

    def test_k_permutation_symmetry(self):
        from itertools import permutations

        for k in product(range(4), repeat=3):
            vals = {eval_tet_susp(*p, 0, 0, 0) for p in permutations(k)}
            assert len(vals) == 1


class TestSurfaces:
    def test_torus(self):
        assert eval_surface(1, 0) == 1

    def test_genus_two_with_dot(self):
        assert eval_surface(2, 1) == 0

    def test_crosscap_table(self):
        assert eval_crosscap(1, 0, 2) == 1
        assert eval_crosscap(1, 1, 0) == 1
        assert eval_crosscap(0, 1, 0) == 1
        assert eval_crosscap(1, 0, 0) == 0
        assert eval_crosscap(2, 1, 2) == 0

    def test_genus_zero_is_sphere(self):
        for l in range(8):
            assert eval_surface(0, l) == eval_sphere(l)

    def test_surface_by_torus_sums(self):
        # Sigma_g built as g torus sums on a sphere matches the table
        for g in range(1, 4):
            for dots in range(5):
                expr = FoamExpr.atom(Sphere(dots))
                for _ in range(g):
                    out = FoamExpr.zero()
                    for term in expr.terms:
                        out = out + apply_sum(term[0], SUM_T2)
                    expr = out
                assert expr.value() == eval_surface(g, dots), (g, dots)

    def test_crosscap_by_rp2_sums(self):
        for a in range(3):
            for b in range(3):
                if a + b == 0:
                    continue
                for dots in range(5):
                    expr = FoamExpr.atom(Sphere(dots))
                    for deco in [SUM_R_PLUS] * a + [SUM_R_MINUS] * b:
                        out = FoamExpr.zero()
                        for term in expr.terms:
                            out = out + apply_sum(term[0], deco)
                        expr = out
                    assert expr.value() == eval_crosscap(a, b, dots), (a, b, dots)


class TestApplySum:
    def test_torus_sum_on_sphere(self):
        assert apply_sum(Sphere(0), SUM_T2).value() == 1

    def test_rplus_transparent(self):
        for f in range(3):
            assert apply_sum(Theta((0, 1, 2)), SUM_R_PLUS, f).value() == 1

    def test_rminus_on_sphere(self):
        assert apply_sum(Sphere(0), SUM_R_MINUS).value() == 1

    def test_rplus_idempotent(self):
        for dots in range(5):
            once = apply_sum(Sphere(dots), SUM_R_PLUS)
            assert once.value() == eval_sphere(dots)

    def test_rminus_after_rplus_is_torus(self):
        # value(X # R+ # R-) = value(X # T^2)
        for dots in range(6):
            via_rp = FoamExpr.zero()
            for term in apply_sum(Sphere(dots), SUM_R_PLUS).terms:
                via_rp = via_rp + apply_sum(term[0], SUM_R_MINUS)
            assert via_rp.value() == apply_sum(Sphere(dots), SUM_T2).value()

    def test_unknown_facet(self):
        with pytest.raises(FoamError):
            apply_sum(Sphere(0), SUM_T2, facet=1)
        # every facet of every kind takes dots; the next one and -1 do not
        dotted = {
            Sphere(1): [Sphere(3)],
            Theta((0, 1, 2)): [Theta((2, 1, 2)), Theta((0, 3, 2)), Theta((0, 1, 4))],
            TetSusp((0, 1, 2, 3, 4, 5)): [
                TetSusp((2, 1, 2, 3, 4, 5)),
                TetSusp((0, 3, 2, 3, 4, 5)),
                TetSusp((0, 1, 4, 3, 4, 5)),
                TetSusp((0, 1, 2, 5, 4, 5)),
                TetSusp((0, 1, 2, 3, 6, 5)),
                TetSusp((0, 1, 2, 3, 4, 7)),
            ],
            OrientableSurface(2, 1): [OrientableSurface(2, 3)],
            CrossCapSurface(1, 2, 0): [CrossCapSurface(1, 2, 2)],
        }
        for atom, results in dotted.items():
            assert atom.facets() == len(results)
            assert [atom.add_dots(f, 2) for f in range(atom.facets())] == results
            for bad in (-1, atom.facets()):
                for call in (lambda: atom.add_dots(bad, 2), lambda: apply_sum(atom, SUM_R_PLUS, bad),
                             lambda: apply_sum(atom, "no such decoration", bad)):
                    with pytest.raises(FoamError, match=f"has no facet {bad}"):
                        call()


class TestNeckCutting:
    def test_torus_to_spheres(self):
        total = neck_cut(OrientableSurface(1, 0), "handle")
        vals = [eval_sphere(k1 + k2) for k1, k2 in NECK_TERMS]
        assert total.value() == sum(vals) % 2 == 1

    def test_sphere_equator_identity(self):
        for l in range(7):
            assert neck_cut(Sphere(l), "equator").value() == eval_sphere(l)

    def test_theta_neck_consistency(self):
        for dots in product(range(4), repeat=3):
            for f in range(3):
                assert neck_cut(Theta(dots), "facet", f).value() == eval_theta(*dots)

    def test_unsupported_site(self):
        with pytest.raises(FoamError):
            neck_cut(Sphere(0), "handle")


class TestBubbleBursting:
    def test_k1(self):
        assert burst_bubble(Theta((1, 0, 0))).value() == eval_sphere(0) == 0

    def test_k2(self):
        assert burst_bubble(Theta((2, 0, 0))).value() == eval_sphere(1) == 0

    def test_k0_zero(self):
        assert burst_bubble(Theta((0, 0, 0))).value() == 0

    def test_matches_theta_table(self):
        for k in range(7):
            for host in range(5):
                got = burst_bubble(Theta((k, 0, host))).value()
                assert got == eval_theta(k, 0, host), (k, host)

    def test_double_dotted_host_rejected(self):
        with pytest.raises(FoamError):
            burst_bubble(Theta((1, 1, 1)))

    def test_facet_outside_theta_rejected(self):
        for facet in (-1, 3, 5):
            with pytest.raises(FoamError, match="theta facets are 0, 1, 2"):
                burst_bubble(Theta((1, 0, 0)), facet)

    def test_negative_dots_rejected(self):
        for dots in ((-1, 0, 5), (1, -1, 0), (1, 0, -3), (-2, 0, 0)):
            with pytest.raises(FoamError, match="dot counts are non-negative"):
                burst_bubble(Theta(dots), 0)


class TestPairingMatrix:
    def test_stated_matrix(self):
        assert unknot_pairing_matrix() == [[0, 0, 1], [0, 1, 0], [1, 0, 1]]

    def test_determinant_nonzero(self):
        m = gf2.asmat(unknot_pairing_matrix())
        assert gf2.det(m) == 1

    def test_dual_basis(self):
        # beta'_0 = D'(2) + D'(0), beta'_1 = D'(1), beta'_2 = D'(0)
        duals = {0: (2, 0), 1: (1,), 2: (0,)}
        for i, pieces in duals.items():
            for m in range(3):
                val = sum(eval_sphere(a + m) for a in pieces) % 2
                assert val == (1 if i == m else 0)


class TestExpressions:
    def test_parse_atoms(self):
        assert parse_expr("theta 0 1 2").value() == 1
        assert parse_expr("sphere 4").value() == 1
        assert parse_expr("tet 0 1 2 0 0 0").value() == 1
        assert parse_expr("surface 2 0").value() == 1
        assert parse_expr("crosscap 1 1 0").value() == 1

    def test_parse_sums(self):
        assert parse_expr("(sum-t2 (sphere 0))").value() == 1
        assert parse_expr("(sum-r+ (theta 0 1 2) 1)").value() == 1
        assert parse_expr("(sum-r- (sphere 0))").value() == 1

    def test_parse_unions_and_plus(self):
        assert parse_expr("(union (sphere 2) (theta 0 1 2))").value() == 1
        assert parse_expr("(plus (sphere 2) (sphere 4))").value() == 0
        assert parse_expr("(plus (sphere 2) (sphere 1))").value() == 1

    def test_linear_combination_cancels(self):
        e = FoamExpr.atom(Sphere(2)) + FoamExpr.atom(Sphere(2))
        assert e.value() == 0 and not e.terms

    def test_parse_errors(self):
        for bad in ("", "sphere", "wedge 1", "(sphere 1", "sphere 1 2"):
            with pytest.raises(FoamError):
                parse_expr(bad)

    def test_negative_dots_rejected_on_every_atom(self):
        # each dot argument of each evaluation, the others valid
        for fn, args, dot_slots in (
            (eval_sphere, (2,), [0]),
            (eval_theta, (0, 1, 2), [0, 1, 2]),
            (eval_tet_susp, (1, 0, 0, 1, 2, 0), range(6)),
            (eval_surface, (2, 2), [1]),
            (eval_surface, (0, 2), [1]),
            (eval_crosscap, (0, 1, 2), [2]),
            (eval_crosscap, (1, 0, 2), [2]),
        ):
            for i in dot_slots:
                bad = list(args)
                bad[i] = -1 if args[i] % 2 else -2
                with pytest.raises(FoamError, match="dot counts are non-negative"):
                    fn(*bad)
        for text in ("surface 2 -1", "crosscap 0 1 -2", "tet -1 0 0 1 0 0", "(sum-t2 (surface 1 -2))"):
            with pytest.raises(FoamError, match="dot counts are non-negative"):
                parse_expr(text).value()

    def test_nesting_limit(self):
        # each "(plus" opens two levels and the innermost "(sphere 2)" two more
        at_limit = "(plus " * (MAX_NESTING // 2 - 1) + "(sphere 2)" + ")" * (MAX_NESTING // 2 - 1)
        assert parse_expr(at_limit).value() == 1
        for deep in (
            "(plus " * (MAX_NESTING // 2) + "(sphere 2)" + ")" * (MAX_NESTING // 2),
            "(plus " * 3000 + "(sphere 2)" + ")" * 3000,
            "plus " * 3000 + "sphere 2",
            "sum-t2 " * 3000 + "sphere 0",
        ):
            with pytest.raises(FoamError, match="levels deep"):
                parse_expr(deep)

    def test_term_limit(self):
        # a union of k distinct two-term sums multiplies out to 2^k terms
        def union(k):
            sums = (f"(plus (sphere {2 * i}) (sphere {2 * i + 1}))" for i in range(k))
            return "(union " + " ".join(sums) + ")"

        k = MAX_TERMS.bit_length() - 1  # 2^k == MAX_TERMS
        assert len(parse_expr(union(k)).terms) == MAX_TERMS
        with pytest.raises(FoamError, match="more than"):
            parse_expr(union(k + 1))
        with pytest.raises(FoamError, match="more than"):
            parse_expr(union(40))

    def test_atoms_of_different_kinds_differ(self):
        # equal fields, different kinds: the two terms must not cancel
        pairs = [
            (Theta((0, 0, 0)), TetSusp((0, 0, 0))),
            (Sphere(2), Theta(2)),
            (OrientableSurface(1, 0), CrossCapSurface(1, 0)),
        ]
        for a, b in pairs:
            assert a != b and not a == b, (a, b)
            assert a != tuple(a) and b != tuple(b)
            assert a == type(a)(*a) and hash(a) == hash(type(a)(*a))
            assert len((FoamExpr.atom(a) + FoamExpr.atom(b)).terms) == 2

    def test_cross_cap_atom(self):
        assert FoamExpr.atom(CrossCapSurface(0, 1, 0)).value() == 1
        assert FoamExpr.atom(TetSusp((0, 1, 2, 0, 0, 0))).value() == 1


# --- fuzzed expressions ---------------------------------------------------------

WORDS = ["(", ")", "sphere", "theta", "tet", "surface", "crosscap", "sum-t2", "sum-r+", "sum-r-",
         "plus", "+", "union", "*", "wedge", "1e3", "-"]
NUMBERS = st.integers(-3, 9) | st.integers(10 ** 29, 10 ** 30 - 1) | st.sampled_from([-(10 ** 29), 10 ** 9])
TOKENS = st.lists(st.sampled_from(WORDS) | NUMBERS.map(str), max_size=40)


@contextmanager
def time_limit(seconds: float):
    """Raise ``TimeoutError`` in the body once ``seconds`` have passed, so
    that a runaway evaluation fails the test instead of hanging it."""

    def stop(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=400, deadline=1000, derandomize=True, database=None)
@given(TOKENS)
@example(["theta", str(10 ** 29 + 1), "0", "2"])
def test_fuzzed_expressions_raise_only_foam_error(tokens):
    # 30-digit dot counts included: evaluation is exact and its time does
    # not grow with the counts
    with time_limit(2.0):
        try:
            parse_expr(" ".join(tokens)).value()
        except FoamError:
            pass


# --- random expressions against an evaluator written here ------------------------

DOTS = st.integers(0, 9)
# word -> (evaluation, its arguments, facets: the last arguments are their dots)
ATOM_KINDS = {
    "sphere": (eval_sphere, st.tuples(DOTS), 1),
    "theta": (eval_theta, st.tuples(DOTS, DOTS, DOTS), 3),
    "tet": (eval_tet_susp, st.tuples(*[DOTS] * 6), 6),
    "surface": (eval_surface, st.tuples(st.integers(0, 3), DOTS), 1),
    "crosscap": (
        eval_crosscap,
        st.tuples(st.integers(0, 2), st.integers(0, 2), DOTS).filter(lambda t: t[0] + t[1] >= 1),
        1,
    ),
}
ATOMS = st.sampled_from(sorted(ATOM_KINDS)).flatmap(
    lambda word: ATOM_KINDS[word][1].map(lambda args: ("atom", word, args))
)
DECORATED = st.tuples(st.sampled_from(["sum-t2", "sum-r+", "sum-r-"]), ATOMS).flatmap(
    lambda d: st.integers(0, ATOM_KINDS[d[1][1]][2] - 1).map(lambda facet: (d[0], d[1], facet))
)
TREES = st.recursive(
    ATOMS | DECORATED,
    lambda kids: st.tuples(st.sampled_from(["plus", "+", "union", "*"]), st.lists(kids, max_size=3)),
    max_leaves=10,
)


def prefix_text(tree) -> str:
    if tree[0] == "atom":
        return f"({tree[1]} {' '.join(map(str, tree[2]))})"
    if tree[0].startswith("sum-"):
        return f"({tree[0]} {prefix_text(tree[1])} {tree[2]})"
    return f"({tree[0]} {' '.join(prefix_text(kid) for kid in tree[1])})"


def expected_value(tree) -> int:
    """plus is XOR, union is AND, an atom is its eval_*; sum-r+ leaves the
    atom as it is, sum-t2 and sum-r- add the value with two more dots on
    the facet."""
    if tree[0] == "atom":
        return ATOM_KINDS[tree[1]][0](*tree[2])
    if tree[0].startswith("sum-"):
        deco, (_, word, args), facet = tree
        plain = ATOM_KINDS[word][0](*args)
        if deco == "sum-r+":
            return plain
        dotted = list(args)
        dotted[len(args) - ATOM_KINDS[word][2] + facet] += 2
        return ATOM_KINDS[word][0](*dotted) ^ plain
    values = [expected_value(kid) for kid in tree[1]]
    if tree[0] in ("plus", "+"):
        return sum(values) % 2
    return int(all(values))


@settings(max_examples=300, deadline=1000, derandomize=True, database=None)
@given(TREES)
def test_values_match_an_independent_evaluator(tree):
    assert parse_expr(prefix_text(tree)).value() == expected_value(tree)


def test_huge_dot_counts_reduce_by_the_cube_relation():
    big = 10 ** 29
    assert parse_expr(f"theta {big} 0 1").value() == 1  # big is even: reduces to 2
    assert parse_expr(f"theta {big + 1} 0 2").value() == 1
    assert parse_expr(f"theta {big + 1} 1 2").value() == 0
    assert parse_expr(f"sphere {big}").value() == 1
    assert [parse_expr(f"theta {k} 0 1").value() for k in range(9)] == [0, 0, 1, 0, 1, 0, 1, 0, 1]
