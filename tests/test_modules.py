from itertools import product
from operator import xor

import numpy as np
import pytest

from webfoam import gf2
from webfoam.modules import (
    F2Module,
    KNOWN_WEBS,
    MAX_UNLINK,
    ModuleError,
    Presentation,
    QuotientError,
    direct_sum,
    edge_decomposition,
    is_cyclic,
    known_module,
    min_poly,
    quotient_module,
    restrict_to_subspace,
    subspace_for,
    tensor,
)
from webfoam.tait import one_set_summary, one_sets
from webfoam import catalogue


UNKNOT_PRES = Presentation.parse(["u"], ["u^3 + u"])
THETA_PRES = Presentation.parse(
    ["u1", "u2", "u3"],
    ["u1 + u2 + u3", "u1*u2 + u2*u3 + u3*u1 + 1", "u1*u2*u3"],
)
M_PRES = Presentation.parse(["u1", "u2", "v"], ["v", "u1 + u2", "u1^2 + 1"])


class TestQuotientModule:
    def test_unknot_dim_and_operator(self):
        m = quotient_module(UNKNOT_PRES)
        assert m.dim == 3
        u = m.ops["u"]
        cube = gf2.matmul(gf2.matmul(u, u), u)
        assert cube == u  # companion relation u^3 = u

    def test_theta_dim_and_basis(self):
        m = quotient_module(THETA_PRES)
        assert m.dim == 6

    def test_theta_matches_handbuilt(self):
        # same decomposition dims as the explicit substitution construction
        m = quotient_module(THETA_PRES)
        dec = edge_decomposition(m)
        assert sorted(dec.summands.values()) == [2, 2, 2]
        assert all(len(s) == 1 for s in dec.summands)

    def test_m_module(self):
        m = quotient_module(M_PRES)
        assert m.dim == 2
        assert m.ops["v"] == gf2.zeros(2, 2)
        assert m.ops["u1"] == m.ops["u2"]

    def test_nonterminating_reported(self):
        p = Presentation.parse(["x", "y"], ["x*y"])  # infinite-dimensional quotient
        with pytest.raises(QuotientError):
            quotient_module(p)

    def test_relation_parser_rejects_garbage(self):
        with pytest.raises(ModuleError):
            Presentation.parse(["u"], ["u + w"])


class TestModuleInvariants:
    @pytest.mark.parametrize("name", [n for n in KNOWN_WEBS])
    def test_cube_relation_and_split(self, name):
        mod = known_module(name)
        for op_name, u in mod.ops.items():
            cube = gf2.matmul(gf2.matmul(u, u), u)
            assert cube == u, (name, op_name)
            ker = gf2.nullspace(u)
            img = gf2.column_space(u)
            assert ker.shape[1] + img.shape[1] == mod.dim
            assert gf2.intersect(ker, img).shape[1] == 0

    def test_each_relation_enforced(self):
        nilpotent = [[0, 1], [0, 0]]  # u^3 = 0 != u
        with pytest.raises(ModuleError, match=r"u\^3 \+ u"):
            F2Module(2, ("x", "y"), {"p": nilpotent})
        swap, idempotent = [[0, 1], [1, 0]], [[1, 0], [0, 0]]  # each satisfies u^3 = u
        with pytest.raises(ModuleError, match="do not commute"):
            F2Module(2, ("x", "y"), {"p": swap, "q": idempotent})

    def test_dim_and_basis_enforced(self):
        with pytest.raises(ModuleError, match="basis names 1 vectors, dim is 3"):
            F2Module(3, ("x",), {})
        with pytest.raises(ModuleError, match="basis names 0 vectors, dim is -2"):
            F2Module(-2, (), {})

    def test_list_basis_and_grading_kept_as_tuples(self):
        mod = known_module("theta")
        twin = F2Module(mod.dim, list(mod.basis), dict(mod.ops), list(mod.grading))
        assert twin == mod and hash(twin) == hash(mod)
        assert type(twin.basis) is type(twin.grading) is tuple

    def test_commutation_enforced(self):
        a = gf2.asmat([[0, 1], [1, 0]])
        b = gf2.asmat([[1, 0], [1, 1]])  # violates u^3 + u = 0 anyway
        with pytest.raises(ModuleError):
            F2Module(2, ("x", "y"), {"p": a, "q": b})


class TestEdgeDecomposition:
    def test_unknot(self):
        dec = edge_decomposition(known_module("unknot"))
        assert dec.summands == {frozenset(): 2, frozenset({"e"}): 1}

    def test_theta_three_rank_two(self):
        dec = edge_decomposition(known_module("theta"))
        assert sorted(dec.summands.values()) == [2, 2, 2]
        assert sorted(sorted(s) for s in dec.summands) == [["e1"], ["e2"], ["e3"]]

    def test_summands_are_one_sets(self):
        # nonzero summands of unknot/theta/tetrahedron sit on 1-sets only
        for name in ("unknot", "theta"):
            web = catalogue.load_web(catalogue.get(name))
            sets = {frozenset(map(str, s)) for s in one_sets(web)}
            dec = edge_decomposition(known_module(name))
            got = {frozenset(map(str, s)) for s in dec.summands}
            assert got <= sets

    def test_matches_even_one_set_dims(self):
        # dims agree with 2^{n(s)} per even 1-set from the planar formula
        for name in ("unknot", "theta"):
            web = catalogue.load_web(catalogue.get(name))
            expected = {}
            for s in one_sets(web):
                even, n = one_set_summary(web, s)
                if even:
                    expected[frozenset(map(str, s))] = 2 ** n
            dec = edge_decomposition(known_module(name))
            got = {frozenset(map(str, s)): d for s, d in dec.summands.items()}
            assert got == expected

    def test_tetrahedron_on_edge_triple(self):
        mod = known_module("tetrahedron")
        dec = edge_decomposition(mod, edges=["e1", "e2", "e3"])
        assert sorted(dec.summands.values()) == [2, 2, 2]

    def test_all_edges_not_one_set_vanishes(self):
        mod = known_module("theta")
        cols = subspace_for(mod, frozenset(["e1", "e2", "e3"]), ["e1", "e2", "e3"])
        assert cols.shape[1] == 0


class TestTensor:
    def test_unknot_squared(self):
        uu = tensor(known_module("unknot"), known_module("unknot"))
        assert uu.dim == 9
        dec = edge_decomposition(uu)
        assert sorted(dec.summands.values()) == [1, 2, 2, 4]

    def test_zero_factor(self):
        z = known_module("tangled_handcuffs")
        zz = tensor(known_module("unknot"), F2Module(0, (), {"e": gf2.zeros(0, 0)}, ()))
        assert zz.dim == 0
        assert z.dim == 0

    def test_unknot_theta(self):
        m = tensor(known_module("unknot"), known_module("theta"))
        assert m.dim == 18

    def test_grading_adds(self):
        m = known_module("lhc")
        t = tensor(m, m)
        assert t.graded_dims() == (8, 8)


class TestKnownModules:
    def test_hopf(self):
        mod = known_module("hopf")
        assert mod.dim == 9
        assert mod.graded_dims() == (9, 0)
        assert mod.euler_characteristic() == 9

    def test_trefoil(self):
        mod = known_module("trefoil")
        assert mod.dim == 7
        assert mod.graded_dims() == (5, 2)
        assert mod.euler_characteristic() == 3

    def test_lhc(self):
        mod = known_module("lhc")
        assert mod.dim == 4
        assert mod.euler_characteristic() == 0
        dec = edge_decomposition(mod, edges=["v"])
        assert dec.summands == {frozenset({"v"}): 4}

    def test_kinoshita(self):
        mod = known_module("kinoshita_theta")
        assert mod.dim == 6
        even, odd = mod.graded_dims()
        assert {even, odd} == {6, 0}  # a single grading carries everything

    def test_k33(self):
        mod = known_module("k33")
        assert mod.dim == 12
        assert mod.euler_characteristic() == 0

    def test_tangled_handcuffs(self):
        assert known_module("tangled_handcuffs").dim == 0

    def test_tetrahedron_opposite_edges(self):
        mod = known_module("tetrahedron")
        for i in (1, 2, 3):
            assert mod.ops[f"e{i}"] == mod.ops[f"f{i}"]

    def test_unlink_3(self):
        mod = known_module("unlink_3")
        assert mod.dim == 27
        assert sorted(mod.ops) == ["e1", "e2", "e3"]

    def test_unknown_name(self):
        with pytest.raises(ModuleError) as exc:
            known_module("mystery")
        # the error is where the known names are listed
        assert all(name in str(exc.value) for name in KNOWN_WEBS)
        assert f"1 <= N <= {MAX_UNLINK}" in str(exc.value)

    @pytest.mark.parametrize("name", ["unlink_0", "unlink_-1", "unlink_1_2", "unlink_", f"unlink_{MAX_UNLINK + 1}"])
    def test_bad_unlink_refused(self, name):
        with pytest.raises(ModuleError):
            known_module(name)

    def test_min_poly(self):
        unknot = known_module("unknot").ops["e"]
        swap = gf2.asmat([row[1:3] for row in known_module("trefoil").ops["e"].tolist()[1:3]])
        assert min_poly(unknot) == "u^3 + u"
        assert min_poly(swap) == "u^2 + 1"
        assert min_poly(gf2.identity(2)) == "u + 1"
        assert min_poly(gf2.zeros(2, 2)) == "u"
        assert min_poly(gf2.zeros(0, 0)) == "1"

    def test_min_poly_matches_the_definition(self):
        """Every GF(2) matrix of size 1-3 with u^3 = u: 176 of them, which
        reach all five divisors of u^3 + u of positive degree."""
        seen = []
        for n in (1, 2, 3):
            for bits in product((0, 1), repeat=n * n):
                m = gf2.asmat([bits[i * n : (i + 1) * n] for i in range(n)])
                if gf2.matmul(gf2.matmul(m, m), m) == m:
                    seen.append(min_poly(m))
                    assert seen[-1] == min_poly_by_definition(m)
        assert len(seen) == 176
        assert set(seen) == {"u", "u + 1", "u^2 + u", "u^2 + 1", "u^3 + u"}

    def test_shift_toggles(self):
        m = known_module("trefoil").shift()
        assert m.graded_dims() == (2, 5)
        assert m.euler_characteristic() == -3


def min_poly_by_definition(m) -> str:
    """Oracle for ``min_poly``: the monic relation of least degree among
    the powers of ``m``, degrees and then coefficient vectors in order."""
    powers = [gf2.identity(m.nrows)]
    for _ in range(3):
        powers.append(gf2.matmul(powers[-1], m))
    for degree in range(1, 4):
        for coeffs in product((0, 1), repeat=degree):
            acc = powers[degree].rows
            for k in range(degree):
                if coeffs[k]:
                    acc = tuple(map(xor, acc, powers[k].rows))
            if not any(acc):
                terms = [degree] + [k for k in range(degree - 1, -1, -1) if coeffs[k]]
                return " + ".join("1" if k == 0 else "u" if k == 1 else f"u^{k}" for k in terms)
    raise AssertionError("u^3 + u does not vanish")


def cyclic_by_search(mod: F2Module) -> bool:
    """Oracle for ``is_cyclic``: try every nonzero vector, coordinate 0
    in bit 0, and close its span under the operators."""
    if mod.dim == 0:
        return True
    ops_t = [m.T for m in mod.ops.values()]
    for v in range(1, 1 << mod.dim):
        span = [v]
        frontier = [v]
        while frontier:
            nxt = []
            for w in frontier:
                for m in ops_t:
                    u = gf2.matmul(gf2.Mat(1, mod.dim, (w,)), m).rows[0]
                    if gf2.rank(gf2.Mat(len(span) + 1, mod.dim, tuple(span) + (u,))) > len(span):
                        span.append(u)
                        nxt.append(u)
            frontier = nxt
        if len(span) == mod.dim:
            return True
    return False


def decomposition_by_intersection(mod: F2Module, edges) -> dict:
    """Oracle for ``edge_decomposition``: V(s) as the intersection of the
    kernels of u_e, e in s, with the images of u_e, e outside s."""
    out = {}
    for mask in product((0, 1), repeat=len(edges)):
        space = gf2.identity(mod.dim)
        for e, bit in zip(edges, mask):
            m = mod.ops[e]
            space = gf2.intersect(space, gf2.nullspace(m) if bit else gf2.column_space(m))
        if space.ncols:
            out[frozenset(e for e, bit in zip(edges, mask) if bit)] = space
    return out


UNLINKS = [f"unlink_{n}" for n in range(1, MAX_UNLINK + 1)]


class TestOperatorExport:
    """``operators`` stays a dict of numpy uint8 arrays for numpy callers."""

    @pytest.mark.parametrize("name", list(KNOWN_WEBS) + UNLINKS)
    def test_export_matches_packed(self, name):
        mod = known_module(name)
        assert sorted(mod.operators) == sorted(mod.ops)
        for e, m in mod.ops.items():
            arr = mod.operators[e]
            assert isinstance(arr, np.ndarray) and arr.dtype == np.uint8
            assert arr.shape == (mod.dim, mod.dim)
            assert arr.tolist() == m.tolist()

    @pytest.mark.parametrize("k", range(1, MAX_UNLINK + 1))
    def test_unlink_is_u_on_one_factor(self, k):
        u = np.array([[0, 0, 0], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
        mod = known_module(f"unlink_{k}")
        for i in range(1, k + 1):
            want = np.eye(1, dtype=np.uint8)
            for j in range(1, k + 1):
                want = np.kron(want, u if j == i else np.eye(3, dtype=np.uint8))
            assert np.array_equal(mod.operators[f"e{i}"], want)

    def test_numpy_operators_are_packed(self):
        theta = known_module("theta")
        again = F2Module(6, theta.basis, dict(theta.operators), theta.grading)
        assert again.ops == theta.ops
        assert edge_decomposition(again) == edge_decomposition(theta)

    def test_bad_operator_refused(self):
        with pytest.raises(ModuleError):
            F2Module(2, ("x", "y"), {"p": np.zeros((2, 3), dtype=np.uint8)})
        with pytest.raises(ModuleError):
            F2Module(2, ("x", "y"), {"p": [[0, 1], [1]]})
        with pytest.raises(ModuleError):
            F2Module(2, ("x", "y"), {"p": np.zeros(4, dtype=np.uint8)})


class TestDecompositionOracle:
    @pytest.mark.parametrize("name", list(KNOWN_WEBS) + UNLINKS[:3])
    def test_matches_intersections(self, name):
        mod = known_module(name)
        edges = sorted(mod.ops)
        want = decomposition_by_intersection(mod, edges)
        dec = edge_decomposition(mod)
        assert list(dec.summands) == list(want)  # same subsets, same order
        assert dec.summands == {s: space.ncols for s, space in want.items()}
        for s, space in want.items():
            got = subspace_for(mod, s, edges)
            # the same subspace, given by independent columns
            assert gf2.rank(got) == got.ncols == gf2.intersect(got, space).ncols == space.ncols


class TestCyclicity:
    @pytest.mark.parametrize("name", list(KNOWN_WEBS) + UNLINKS[:3])
    def test_matches_search(self, name):
        mod = known_module(name)
        assert is_cyclic(mod) == cyclic_by_search(mod)
        edges = sorted(mod.ops)
        for s in edge_decomposition(mod).summands if edges else []:
            sub = restrict_to_subspace(mod, subspace_for(mod, s, edges))
            assert is_cyclic(sub) == cyclic_by_search(sub), (name, sorted(s))

    def test_quotients_are_cyclic(self):
        # a quotient of a polynomial ring is generated by 1
        for p in (UNKNOT_PRES, THETA_PRES, M_PRES):
            assert is_cyclic(quotient_module(p))

    def test_direct_square_is_not_cyclic(self):
        unknot = known_module("unknot")
        assert not is_cyclic(direct_sum(unknot, unknot))
        assert not cyclic_by_search(direct_sum(unknot, unknot))

    def test_hopf_vs_unlink(self):
        # both eigenvalue-1 pieces are 4-dimensional; only the unlink's is
        # cyclic over its edge operators
        results = {}
        for name in ("hopf", "unlink_2"):
            mod = known_module(name)
            edges = sorted(mod.ops)
            cols = subspace_for(mod, frozenset(), edges)
            sub = restrict_to_subspace(mod, cols)
            results[name] = (sub.dim, is_cyclic(sub))
        assert results["hopf"] == (4, False)
        assert results["unlink_2"] == (4, True)

    def test_cyclic_examples(self):
        assert is_cyclic(known_module("unknot"))
        assert is_cyclic(known_module("theta"))
        assert not is_cyclic(known_module("lhc"))


class TestBigonTriangleSquare:
    """Dimension relations on the planar catalogue, via the Tait side."""

    def test_bigon_doubles(self):
        from webfoam.tait import planar_lsharp_dim
        from webfoam.webs import web_from_incidences

        # theta = unknot with a bigon inserted on its edge: 6 = 2 * 3
        theta = catalogue.load_web(catalogue.get("theta"))
        unknot = catalogue.load_web(catalogue.get("unknot"))
        assert planar_lsharp_dim(theta) == 2 * planar_lsharp_dim(unknot)
        # doubled square = theta with a bigon on one edge: 12 = 2 * 6
        doubled = web_from_incidences(
            {
                "u": ["e2", "a", "e3"],
                "m1": ["a", "p", "q"],
                "m2": ["p", "q", "b"],
                "w": ["b", "e2", "e3"],
            }
        )
        assert planar_lsharp_dim(doubled) == 12

    def test_triangle_removal_preserves(self):
        from webfoam.tait import planar_lsharp_dim
        from webfoam.webs import web_from_incidences

        # tetrahedron = theta with a triangle blown up at a vertex
        tet = catalogue.load_web(catalogue.get("tetrahedron"))
        theta = catalogue.load_web(catalogue.get("theta"))
        assert planar_lsharp_dim(tet) == planar_lsharp_dim(theta)
        # prism (triangle blow-up of a theta vertex... of K4's vertex)
        prism = web_from_incidences(
            {
                1: ["a1", "c1", "s1"],
                2: ["a1", "b1", "s2"],
                3: ["b1", "c1", "s3"],
                4: ["a2", "c2", "s1"],
                5: ["a2", "b2", "s2"],
                6: ["b2", "c2", "s3"],
            }
        )
        assert planar_lsharp_dim(prism) == planar_lsharp_dim(tet) == 6

    def test_square_removal_splits(self):
        from webfoam.tait import planar_lsharp_dim
        from webfoam.webs import web_from_incidences

        # the cube contains a square (the inner face); removing it joins
        # the four spokes in two planar ways, each yielding the 4-cycle
        # with two opposite edges doubled
        cube = catalogue.load_web(catalogue.get("cube"))
        kp = web_from_incidences(
            {
                1: ["o12", "o41", "a"],
                2: ["o12", "a", "o23"],
                3: ["o23", "o34", "b"],
                4: ["o34", "b", "o41"],
            }
        )
        kpp = web_from_incidences(
            {
                1: ["o12", "o41", "a"],
                2: ["o12", "a", "o23"],
                3: ["o23", "o34", "b"],
                4: ["o34", "b", "o41"],
            }
        )
        assert planar_lsharp_dim(cube) == 24
        assert planar_lsharp_dim(cube) == planar_lsharp_dim(kp) + planar_lsharp_dim(kpp)
