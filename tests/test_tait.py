import json
import time
from itertools import combinations, permutations, product
from math import prod

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_skein import census_webs, criterion_3_stream
from webfoam import catalogue, skein, tait
from webfoam.cli import main
from webfoam.generate import cubic_multigraphs, planar_cubic_webs
from webfoam.tait import (
    CACHE_ENTRIES,
    COLORS,
    MATCHING_WEIGHTS,
    MAX_EDGES,
    MAX_ONE_SETS,
    MAX_WIDTH,
    SIGNED_VERTEX_WEIGHTS,
    VERTEX_WEIGHTS,
    contract,
    is_even_one_set,
    is_one_set,
    one_set_summary,
    one_sets,
    planar_lsharp_dim,
    signed_tait,
    signed_tait_count,
    signed_tait_web,
    tait_colorings,
    tait_count,
    vertex_sign,
)
from webfoam.webs import (
    Web,
    WebError,
    disjoint_union_webs,
    parse_diagram,
    serialize_diagram,
    serialize_web,
    underlying_web,
    web_from_incidences,
)


def theta_web():
    return catalogue.load_web(catalogue.get("theta"))


def unknot_web():
    return Web((), [], ["e"])


def handcuffs_web():
    return web_from_incidences({"v1": ["l1", "l1", "b"], "v2": ["l2", "b", "l2"]})


def prism_web(k: int, by_rings: bool = True):
    """The k-sided prism: two k-cycles joined by k spokes (3k edges).

    Its vertices are listed ring by ring (a0 .. a{k-1}, b0 .. b{k-1}), or
    else rung by rung (a0, b0, a1, b1, ...).
    """
    a = {f"a{i}": [f"p{i}", f"p{(i - 1) % k}", f"s{i}"] for i in range(k)}
    b = {f"b{i}": [f"q{i}", f"q{(i - 1) % k}", f"s{i}"] for i in range(k)}
    if by_rings:
        return web_from_incidences({**a, **b})
    return web_from_incidences({v: inc[v] for i in range(k) for inc, v in ((a, f"a{i}"), (b, f"b{i}"))})


def prism_tait(k: int) -> int:
    """Closed form of the prism's Tait count."""
    return 2 ** k + 8 if k % 2 == 0 else 2 ** k - 2


def prism_diagram(k: int):
    """Plane diagram of the k-sided prism: the outer ring's vertices list
    their darts counterclockwise as (next, previous, spoke), the inner
    ring's as (previous, next, spoke)."""
    vertices = [{"id": f"a{i}", "darts": [f"p{i}", f"p{(i - 1) % k}", f"s{i}"]} for i in range(k)]
    vertices += [{"id": f"b{i}", "darts": [f"q{(i - 1) % k}", f"q{i}", f"s{i}"]} for i in range(k)]
    return parse_diagram(json.dumps({"vertices": vertices}))


def nx_web(g):
    """The web of a networkx graph: vertices in node order, edge i of
    ``g.edges()`` named ``e{i}``, each vertex's slots in edge order."""
    incidences = {v: [] for v in g.nodes}
    for idx, (u, v) in enumerate(g.edges()):
        incidences[u].append(f"e{idx}")
        incidences[v].append(f"e{idx}")
    return web_from_incidences(incidences)


def wide_web():
    """A random cubic web on 100 vertices: its contraction frontier passes 20 arcs."""
    return nx_web(nx.random_regular_graph(3, 100, seed=1))


class TestSizeLimit:
    """The enumeration recurses once per edge and the 1-set search once per
    matched pair; past MAX_EDGES they refuse, not crash.  The contraction
    does not recurse and takes no such limit."""

    def test_prism_over_limit_refused(self):
        w = prism_web(MAX_EDGES // 3 + 1)
        assert len(w.edge_ends) > MAX_EDGES
        start = time.perf_counter()
        for search in (one_sets, planar_lsharp_dim, lambda w: next(tait_colorings(w))):
            with pytest.raises(WebError, match="at most"):
                search(w)
        # refused before any search: unchecked, this prism's searches run for ages
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("sides", [MAX_EDGES // 3 + 1, 800])
    def test_count_past_the_limit(self, sides):
        # 2,400 edges at 800 sides, and the frontier stays within 5 arcs
        assert tait_count(prism_web(sides)) == prism_tait(sides)

    # just over the limit, and deep enough to overflow the stack unchecked
    @pytest.mark.parametrize("sides", [MAX_EDGES // 3 + 1, 800])
    def test_cli_exits_one(self, capsys, tmp_path, sides):
        path = tmp_path / "prism.web.json"
        path.write_text(serialize_web(prism_web(sides)))
        assert main(["tait", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(MAX_EDGES) in err


class TestWidthLimit:
    """A contraction whose frontier would pass MAX_WIDTH arcs is refused
    from the arcs alone, before any state is built."""

    def test_refused_before_contracting(self):
        w = wide_web()
        assert len(w.edge_ends) <= MAX_EDGES
        start = time.perf_counter()
        for search in (tait_count, one_sets, planar_lsharp_dim):
            with pytest.raises(WebError, match=f"at most {MAX_WIDTH}$"):
                search(w)
        assert time.perf_counter() - start < 1.0

    def test_cli_exits_one(self, capsys, tmp_path):
        path = tmp_path / "wide.web.json"
        path.write_text(serialize_web(wide_web()))
        assert main(["tait", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: contraction frontier") and str(MAX_WIDTH) in captured.err

    @pytest.mark.parametrize("by_rings", [True, False])
    def test_prisms_up_to_166_sides(self, by_rings):
        # 166 sides is the largest prism under MAX_EDGES
        for k in range(101, 167):
            assert tait_count(prism_web(k, by_rings)) == prism_tait(k), k
        assert len(prism_web(167).edge_ends) > MAX_EDGES


class TestStatesLimit:
    """A contraction that has built more than MAX_STATES states, counted
    once per step, is refused at the end of the step that passes the
    bound; the count does not depend on the host."""

    def test_bound(self):
        assert tait.MAX_STATES == 10**7

    def test_count_is_exact(self, monkeypatch):
        # the Tait count of the 12-sided prism builds 257 states in all
        w = prism_web(12)
        monkeypatch.setattr(tait, "MAX_STATES", 257)
        assert tait_count(w) == prism_tait(12)
        monkeypatch.setattr(tait, "MAX_STATES", 256)
        with pytest.raises(WebError, match="^contraction built 257 states; the Tait and skein counts build at most 256$"):
            tait_count(w)

    def test_refused_at_the_step_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(tait, "MAX_STATES", 100)
        with pytest.raises(WebError, match="^contraction built 117 states; .* at most 100$"):
            tait_count(prism_web(12))

    def test_cli_exits_one(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "prism.web.json"
        path.write_text(serialize_web(prism_web(12)))
        monkeypatch.setattr(tait, "MAX_STATES", 100)
        assert main(["tait", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: contraction built ") and captured.err.count("\n") == 1
        assert captured.err.endswith("build at most 100\n")


def refused_below(monkeypatch, count, x, width: int) -> None:
    """``count(x)`` plans a frontier of exactly ``width`` arcs: it is refused
    with ``MAX_WIDTH`` at ``width - 1``, naming the width, and accepted at
    ``width``."""
    monkeypatch.setattr(tait, "MAX_WIDTH", width - 1)
    with pytest.raises(WebError, match=f"^contraction frontier would reach {width} arcs;"):
        count(x)
    monkeypatch.setattr(tait, "MAX_WIDTH", width)
    count(x)


# planned widths of the Tait counts of the catalogue webs, of the skein
# state sums of the catalogue diagrams and of the first 60 diagrams of
# criterion 3's stream
CATALOGUE_WEB_WIDTHS = {
    "unknot": 0, "unlink_2": 0, "theta": 3, "tetrahedron": 4, "cube": 5, "handcuffs": 1, "kinoshita_theta": 3,
}
CATALOGUE_DIAGRAM_WIDTHS = {
    "unknot": 0, "unlink_2": 0, "theta": 3, "tetrahedron": 4, "cube": 5, "hopf": 4, "lhc": 5, "trefoil": 4,
    "handcuffs": 1, "tangled_handcuffs": 3, "k33": 6,
}
STREAM_WIDTHS = [
    6, 4, 4, 2, 4, 2, 4, 4, 2, 2, 2, 3, 4, 3, 4, 4, 4, 4, 5, 4, 4, 2, 2, 3, 6, 5, 0, 2, 2, 6,
    3, 6, 4, 3, 4, 5, 1, 2, 6, 5, 2, 4, 4, 5, 6, 2, 0, 5, 5, 1, 4, 3, 2, 0, 5, 5, 7, 4, 5, 2,
]


class TestPlannedWidth:
    """The planned frontier widths that the greedy order and its
    breadth-first tie-break give; a drift in either shows here."""

    @pytest.mark.parametrize("k", range(3, 31))
    def test_prisms(self, monkeypatch, k):
        width = 4 if k == 3 else 5 if k == 4 else 6
        refused_below(monkeypatch, tait_count, prism_web(k), width)

    @pytest.mark.parametrize("name", sorted(CATALOGUE_WEB_WIDTHS))
    def test_catalogue_webs(self, monkeypatch, name):
        refused_below(monkeypatch, tait_count, catalogue.load_web(catalogue.get(name)), CATALOGUE_WEB_WIDTHS[name])

    @pytest.mark.parametrize("name", sorted(CATALOGUE_DIAGRAM_WIDTHS))
    def test_catalogue_diagrams(self, monkeypatch, name):
        d = catalogue.load_diagram(catalogue.get(name))
        refused_below(monkeypatch, skein.euler_char, d, CATALOGUE_DIAGRAM_WIDTHS[name])

    def test_every_catalogue_entry_is_pinned(self):
        assert set(CATALOGUE_WEB_WIDTHS) == {e.name for e in catalogue.CATALOGUE if e.web_file}
        assert set(CATALOGUE_DIAGRAM_WIDTHS) == {e.name for e in catalogue.CATALOGUE if e.diagram_file}

    def test_criterion_3_stream(self, monkeypatch):
        for d, width in zip(criterion_3_stream(), STREAM_WIDTHS):
            refused_below(monkeypatch, skein.euler_char, d, width)


class TestOneSetLimit:
    """The 1-sets are counted by the contraction before they are listed."""

    def test_prism_within_limit(self):
        sets = one_sets(prism_web(18))
        assert len(sets) == 5780 <= MAX_ONE_SETS
        assert len(set(sets)) == len(sets) and all(len(s) == 18 for s in sets)

    @pytest.mark.parametrize("w", [prism_web(20), Web((), [], [f"c{i}" for i in range(14)])])
    def test_refused_before_listing(self, w):
        start = time.perf_counter()
        for search in (one_sets, planar_lsharp_dim):
            with pytest.raises(WebError, match=f"1-set list holds at most {MAX_ONE_SETS}"):
                search(w)
        assert time.perf_counter() - start < 1.0

    def test_cli_exits_one(self, capsys, tmp_path):
        # the 30-sided prism web: L_30 + 2 = 1,860,500 1-sets (Lucas number L_30)
        path = tmp_path / "prism.web.json"
        path.write_text(serialize_web(prism_web(30)))
        assert main(["tait", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: web has 1860500 1-sets; the 1-set list holds at most {MAX_ONE_SETS}\n"


class TestLocalTableCache:
    """``contract`` memoizes each node's expanded table by value: an equal
    table gives the same results, a different one is never served a stale
    expansion, and the cache stays within its bound."""

    def test_equal_table_gives_equal_results(self):
        copy = tuple((tuple(colors), w) for colors, w in VERTEX_WEIGHTS)
        assert copy == VERTEX_WEIGHTS and copy is not VERTEX_WEIGHTS
        for w in POOL:
            assert contract(tait._vertex_nodes(w, copy)) * 3 ** len(w.circles) == tait_count(w)

    def test_other_tables_are_not_served_stale(self):
        for w in POOL:
            count = tait_count(w)
            doubled = tuple((colors, 2 * x) for colors, x in VERTEX_WEIGHTS)
            assert contract(tait._vertex_nodes(w, doubled)) * 3 ** len(w.circles) == 2 ** len(w.vertices) * count
            nodes = tait._vertex_nodes(w, SIGNED_VERTEX_WEIGHTS)
            orders = {v: arcs for v, (arcs, _) in zip(w.vertices, nodes)}
            assert contract(nodes) * 3 ** len(w.circles) == signed_tait_web(w, orders)
            assert tait_count(w) == count

    def test_bounded(self):
        caches = (tait._local_table, tait._symmetry, tait._picker, tait._step)
        assert [c.cache_info().maxsize for c in caches] == [CACHE_ENTRIES] * 4
        theta = theta_web()
        for m in range(1, CACHE_ENTRIES + 50):  # each scaled table gets expansions and steps of its own
            scaled = tuple((colors, m) for colors, _ in VERTEX_WEIGHTS)
            assert contract(tait._vertex_nodes(theta, scaled)) == 6 * m * m
        assert tait_count(theta) == 6
        for i in range(CACHE_ENTRIES + 50):  # evicts every projection theta used
            assert tait._picker((i + 1, 0))(tuple(range(i + 2))) == (i + 1, 0)
        assert all(c.cache_info().currsize <= CACHE_ENTRIES for c in caches)
        assert tait_count(theta) == 6


S3 = frozenset(permutations(range(3)))
A3 = frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)})


class TestColorSymmetry:
    """``_symmetry`` finds the color permutations a table is invariant
    under, and the first node of a component keeps one coloring per orbit."""

    def test_package_tables(self):
        assert tait._symmetry(VERTEX_WEIGHTS) == S3
        assert len(skein._CROSSING_WEIGHTS) == 4
        for weights in skein._CROSSING_WEIGHTS.values():
            assert tait._symmetry(weights) == S3
        assert tait._symmetry(SIGNED_VERTEX_WEIGHTS) == A3
        assert tait._symmetry(MATCHING_WEIGHTS) == {(0, 1, 2)}

    def test_repeated_coloring_is_summed(self):
        (first, _), *_ = VERTEX_WEIGHTS
        assert tait._symmetry(VERTEX_WEIGHTS + (((0, 0, 0), 1), ((0, 0, 0), -1))) == S3
        assert tait._symmetry(VERTEX_WEIGHTS[1:] + ((first, 3), (first, -2))) == S3
        # (0, 1, 2) weighs 2, its images 1: only the identity fixes it
        assert tait._symmetry(VERTEX_WEIGHTS + ((first, 1),)) == {(0, 1, 2)}

    def test_first_node_keeps_one_coloring_per_orbit(self):
        closed = (False, False, False)
        assert tait._local_table(VERTEX_WEIGHTS, (0, 1, 2), closed, S3) == {(): (((0, 1, 2), 6),)}
        assert tait._local_table(SIGNED_VERTEX_WEIGHTS, (0, 1, 2), closed, A3) == {
            (): (((0, 1, 2), 3), ((0, 2, 1), -3))
        }


class TestPrism:
    """The contraction's order must not follow the vertex list: listed
    ring by ring, ties broken by position alone contract one whole ring
    first, and the frontier grows as wide as the ring."""

    def test_closed_form_matches_enumeration(self):
        for k in range(3, 9):
            assert len(list(tait_colorings(prism_web(k)))) == prism_tait(k)

    @pytest.mark.parametrize("by_rings", [True, False])
    def test_closed_form_up_to_100_sides(self, by_rings):
        for k in range(3, 101):
            assert tait_count(prism_web(k, by_rings)) == prism_tait(k), k


def filtered_product(w) -> list:
    """The Tait colorings of ``w`` by brute force: every coloring of its
    regular edges, sorted as strings, in the lexicographic order of
    ``product``, kept when every vertex sees three colors, each followed
    by every coloring of its circles, sorted as strings, in that order."""
    regular = sorted(w.edge_ends, key=str)
    circles = sorted(w.circles, key=str)
    at_vertex = [[regular.index(e) for e in w.slot_edges[v]] for v in w.vertices]
    out = []
    for colors in product(COLORS, repeat=len(regular)):
        if all(len({colors[i] for i in slots}) == 3 for slots in at_vertex):
            out += [dict(zip(regular + circles, colors + free)) for free in product(COLORS, repeat=len(circles))]
    return out


@pytest.fixture(scope="module")
def enumerated() -> list:
    """The census to 6 vertices with loops, two prisms, and webs with one
    and two circles, each with its colorings by ``filtered_product``."""
    theta = theta_web()
    with_circles = [
        Web(theta.vertices, [(e, *theta.edge_ends[e]) for e in theta.edge_ends], circles)
        for circles in (["c"], ["c", "d"])
    ]
    census = [w for n in (2, 4, 6) for w in cubic_multigraphs(n, allow_loops=True)]
    pool = census + [prism_web(3), prism_web(4), unknot_web(), Web((), [], ["a", "b"]), *with_circles]
    return [(w, filtered_product(w)) for w in pool]


class TestEnumerationOracle:
    """``tait_colorings`` against a filter of every coloring, which shares no search with it."""

    def test_colorings_and_their_order(self, enumerated):
        assert any(w.has_loop() for w, _ in enumerated)
        for w, want in enumerated:
            got = list(tait_colorings(w))
            assert [list(t.items()) for t in got] == [list(t.items()) for t in want]

    def test_signed_count_is_the_sum_of_vertex_sign_products(self, enumerated):
        for w, colorings in enumerated:
            for orders in (w.slot_edges, {v: (b, a, c) for v, (a, b, c) in w.slot_edges.items()}):
                want = sum(prod(vertex_sign(t[e] for e in orders[v]) for v in w.vertices) for t in colorings)
                assert signed_tait_web(w, orders) == want


class TestTaitCount:
    def test_theta(self):
        assert tait_count(theta_web()) == 6

    def test_tetrahedron(self):
        assert tait_count(catalogue.load_web(catalogue.get("tetrahedron"))) == 6

    def test_cube(self):
        assert tait_count(catalogue.load_web(catalogue.get("cube"))) == 24

    def test_handcuffs_loop_forces_zero(self):
        assert tait_count(handcuffs_web()) == 0

    def test_circle_factor(self):
        w = Web((), [], ["a", "b", "c"])
        assert tait_count(w) == 27

    def test_multiplicative_under_disjoint_union(self):
        u = disjoint_union_webs(theta_web(), catalogue.load_web(catalogue.get("tetrahedron")))
        assert tait_count(u) == 36

    def test_enumeration_matches_count(self):
        for w in (theta_web(), catalogue.load_web(catalogue.get("tetrahedron"))):
            assert len(list(tait_colorings(w))) == tait_count(w)

    def test_colorings_proper(self):
        w = catalogue.load_web(catalogue.get("cube"))
        for t in tait_colorings(w):
            for v in w.vertices:
                assert sorted(t[e] for e in w.slot_edges[v]) == [1, 2, 3]


class TestSignedTait:
    def test_planar_sign_identity(self):
        # every planar diagram: signed count = (-1)^{n/2} tait count
        for name in ("theta", "tetrahedron", "cube", "unknot", "handcuffs"):
            entry = catalogue.get(name)
            d = catalogue.load_diagram(entry)
            n = len(d.vertices)
            assert signed_tait(d) == (-1) ** (n // 2) * tait_count(underlying_web(d))

    def test_k33_cancellation(self):
        d = catalogue.load_diagram(catalogue.get("k33"))
        assert tait_count(underlying_web(d)) == 12
        assert signed_tait(d) == 0

    def test_empty_web(self):
        d = parse_diagram(json.dumps({"circles": []}))
        assert signed_tait(d) == 1

    def test_one_vertex_reversal_flips_sign(self):
        d = catalogue.load_diagram(catalogue.get("tetrahedron"))
        w = underlying_web(d)
        orders = dict(w.slot_edges)
        base = signed_tait_web(w, orders)
        assert base != 0
        for v in list(orders):
            flipped = dict(orders)
            a, b, c = flipped[v]
            flipped[v] = (a, c, b)
            assert signed_tait_web(w, flipped) == -base

    def test_bounded_by_tait(self):
        for name in ("theta", "k33", "cube", "hopf", "trefoil"):
            entry = catalogue.get(name)
            if not entry.diagram_file:
                continue
            d = catalogue.load_diagram(entry)
            assert abs(signed_tait(d)) <= tait_count(underlying_web(d))


class TestSignedTaitCount:
    """The kernel's signed count against the enumeration oracle."""

    def test_catalogue_diagrams(self):
        diagrams = [e for e in catalogue.CATALOGUE if e.diagram_file]
        assert len(diagrams) >= 10
        for entry in diagrams:
            d = catalogue.load_diagram(entry)
            assert signed_tait_count(d) == signed_tait(d), entry.name

    def test_prism_diagram_is_plane(self):
        # the planar sign identity: signed = (-1)^{n/2} tait, n = 2k vertices
        for k in range(3, 8):
            d = prism_diagram(k)
            assert signed_tait(d) == signed_tait_count(d) == (-1) ** k * prism_tait(k)

    def test_22_sided_prism(self):
        # 4,194,312 colourings: through the enumeration, `webfoam tait` did not finish in 30 s
        start = time.perf_counter()
        assert signed_tait_count(prism_diagram(22)) == prism_tait(22)
        assert time.perf_counter() - start < 5.0

    def test_cli_signed_field(self, capsys, tmp_path):
        path = tmp_path / "prism.diagram.json"
        path.write_text(serialize_diagram(prism_diagram(16)))
        assert main(["tait", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["signed"] == doc["count"] == doc["planar_dim"] == prism_tait(16)


class TestOneSets:
    def test_unknot_two(self):
        s = one_sets(unknot_web())
        assert sorted(map(sorted, s)) == [[], ["e"]]

    def test_theta_three_singletons(self):
        s = one_sets(theta_web())
        assert sorted(sorted(map(str, x)) for x in s) == [["e1"], ["e2"], ["e3"]]

    def test_tetrahedron_three_matchings(self):
        s = one_sets(catalogue.load_web(catalogue.get("tetrahedron")))
        assert len(s) == 3
        assert all(len(x) == 2 for x in s)

    def test_complement_is_circles(self):
        for w in planar_cubic_webs(6):
            for s in one_sets(w):
                assert is_one_set(w, s)

    def test_evenness(self):
        assert is_even_one_set(unknot_web(), frozenset())
        assert is_even_one_set(unknot_web(), frozenset({"e"}))
        assert is_even_one_set(theta_web(), frozenset({"e1"}))

    def test_odd_one_set(self):
        # handcuffs with the bar subdivided by a bigon: the 1-set through
        # the bigon leaves a circle meeting exactly one vertex... realized
        # here with the 4-vertex web: loop--v1--bigon--v2--loop pattern
        w = web_from_incidences(
            {
                "v1": ["l1", "l1", "p"],
                "m1": ["p", "a", "b"],
                "m2": ["a", "b", "q"],
                "v2": ["q", "l2", "l2"],
            }
        )
        s = frozenset({"p", "q"})
        assert is_one_set(w, s)
        assert not is_even_one_set(w, s)

    def test_not_a_one_set_raises(self):
        with pytest.raises(ValueError):
            is_even_one_set(theta_web(), frozenset({"e1", "e2"}))

    def test_unknown_id_is_not_a_one_set(self):
        theta = theta_web()
        for s in ({"zz"}, {"e1", "zz"}):
            assert not is_one_set(theta, frozenset(s))
            with pytest.raises(ValueError, match="not a 1-set"):
                is_even_one_set(theta, frozenset(s))
        assert not is_one_set(unknot_web(), frozenset({"zz"}))  # no vertex to cover: the id alone decides
        assert not is_one_set(handcuffs_web(), frozenset({"b", 7}))

    def test_one_sets_are_the_edge_sets_covering_each_vertex_once(self):
        for n in (2, 4, 6):
            for w in cubic_multigraphs(n, allow_loops=True):
                edges = list(w.edge_ends)
                found = {
                    frozenset(c) for k in range(len(edges) + 1) for c in combinations(edges, k) if is_one_set(w, c)
                }
                assert found == set(one_sets(w))

    def test_summary_matches_networkx_components(self):
        # the complement of every 1-set, as a multigraph: each vertex keeps
        # degree 2 (a loop counts twice), so each component is one circle
        with_circles = [
            Web(w.vertices, [(e, *ends) for e, ends in w.edge_ends.items()], ["o1", "o2"])
            for w in (theta_web(), handcuffs_web())
        ]
        pool = census_webs() + [prism_web(k) for k in range(3, 13)] + with_circles + [unknot_web()]
        checked = 0
        for w in pool:
            for s in one_sets(w):
                g = nx.MultiGraph()
                g.add_nodes_from(w.vertices)
                g.add_edges_from((u, v) for e, ((u, _), (v, _)) in w.edge_ends.items() if e not in s)
                assert all(d == 2 for _, d in g.degree())
                sizes = [len(c) for c in nx.connected_components(g)]
                n = len(sizes) + len(w.circles - s)
                assert one_set_summary(w, s) == (all(k % 2 == 0 for k in sizes), n)
                checked += 1
        assert checked == 1198


class TestPlanarDim:
    def test_unknot_3(self):
        assert planar_lsharp_dim(unknot_web()) == 3

    def test_theta_6(self):
        assert planar_lsharp_dim(theta_web()) == 6

    def test_tetrahedron_6(self):
        assert planar_lsharp_dim(catalogue.load_web(catalogue.get("tetrahedron"))) == 6

    def test_cube_24(self):
        assert planar_lsharp_dim(catalogue.load_web(catalogue.get("cube"))) == 24

    def test_matches_tait_on_generated_webs(self):
        webs = planar_cubic_webs(6)
        assert webs
        for w in webs:
            assert planar_lsharp_dim(w) == tait_count(w)

    def test_circle_multiplies_by_three(self):
        w = theta_web()
        wc = Web(w.vertices, [(e, *w.edge_ends[e]) for e in w.edge_ends], ["c"])
        assert planar_lsharp_dim(wc) == 3 * planar_lsharp_dim(w)
        assert tait_count(wc) == 3 * tait_count(w)

    def test_loopy_webs_vanish(self):
        from webfoam.generate import cubic_multigraphs, is_planar_multigraph

        for w in cubic_multigraphs(4, allow_loops=True):
            if not is_planar_multigraph(w):
                continue
            if w.has_loop():
                assert tait_count(w) == 0
                assert planar_lsharp_dim(w) == 0


class TestThreeWayIdentity:
    """The contraction (``tait_count``), the matching sum
    (``planar_lsharp_dim``) and the enumeration (``tait_colorings``) are
    three algorithms for one number, on every cubic web, planar or not."""

    @staticmethod
    def three_ways(w):
        return tait_count(w), planar_lsharp_dim(w), len(list(tait_colorings(w)))

    def test_census_with_loops(self):
        webs = [w for n in range(2, 9, 2) for w in cubic_multigraphs(n, allow_loops=True)]
        assert len(webs) >= 69
        for w in webs:
            count, dim, listed = self.three_ways(w)
            assert count == dim == listed

    def test_petersen(self):
        assert self.three_ways(nx_web(nx.petersen_graph())) == (0, 0, 0)


examples = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def web_pool():
    webs = [w for n in (2, 4, 6) for w in cubic_multigraphs(n, allow_loops=True)]
    theta = theta_web()
    theta_circle = Web(theta.vertices, [(e, *theta.edge_ends[e]) for e in theta.edge_ends], ["c"])
    return webs + [prism_web(5), unknot_web(), theta_circle]


POOL = web_pool()


def relabelled(w, data):
    """``w`` with its vertices, edges and slots reordered and new labels,
    integers or strings."""
    vertices = data.draw(st.permutations(w.vertices))
    edges = data.draw(st.permutations(sorted(w.edge_ends, key=str)))
    circles = data.draw(st.permutations(sorted(w.circles, key=str)))
    names = data.draw(st.permutations(range(len(vertices) + len(edges) + len(circles))))
    if data.draw(st.booleans()):
        names = [f"x{i}" for i in names]
    new = dict(zip([*vertices, *edges, *circles], names))
    slot = {v: data.draw(st.permutations((0, 1, 2))) for v in vertices}
    ends = [(new[e], *((new[v], slot[v][i]) for v, i in w.edge_ends[e])) for e in edges]
    return Web([new[v] for v in vertices], ends, [new[c] for c in circles])


@examples
@given(st.sampled_from(POOL), st.data())
def test_counts_ignore_labels(w, data):
    v = relabelled(w, data)
    assert tait_count(v) == tait_count(w)
    assert planar_lsharp_dim(v) == planar_lsharp_dim(w)


@examples
@given(st.sampled_from(POOL), st.sampled_from(POOL), st.data())
def test_counts_multiply_under_disjoint_union(a, b, data):
    # relabelled, so the two components' vertices interleave
    u = relabelled(disjoint_union_webs(a, b), data)
    assert tait_count(u) == tait_count(a) * tait_count(b)
    assert planar_lsharp_dim(u) == planar_lsharp_dim(a) * planar_lsharp_dim(b)


def brute_force(nodes) -> int:
    """``contract``'s sum, by visiting every coloring of the arcs."""
    arcs = sorted({a for node_arcs, _ in nodes for a in node_arcs}, key=str)
    tables = []
    for _, weights in nodes:
        table: dict = {}  # a coloring listed twice weighs the sum of its entries
        for colors, w in weights:
            table[colors] = table.get(colors, 0) + w
        tables.append(table)
    total = 0
    for colors in product(range(3), repeat=len(arcs)):
        color = dict(zip(arcs, colors))
        term = 1
        for (node_arcs, _), table in zip(nodes, tables):
            term *= table.get(tuple(color[a] for a in node_arcs), 0)
        total += term
    return total


@st.composite
def networks(draw):
    """``contract`` inputs of up to 7 arcs: nodes of 0 to 4 slots paired at
    random, so an arc can meet one node twice and two nodes can share
    several arcs, in one component or several, with weight tables of signed
    and zero entries.  Every table of a network may be symmetrised over S3
    or A3: the sum of a drawn table and all of its relabelled images.  A
    table may list one coloring twice."""
    arity = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(lambda a: sum(a) <= 12))
    if sum(arity) % 2:
        arity.append(1)
    slots = draw(st.permutations([(i, k) for i, n in enumerate(arity) for k in range(n)]))
    names = draw(st.sampled_from([lambda j: j, lambda j: f"e{j}"]))
    label = {slot: names(j // 2) for j, slot in enumerate(slots)}
    group = draw(st.sampled_from([{(0, 1, 2)}, A3, S3]))
    nodes = []
    for i, n in enumerate(arity):
        colors = st.tuples(*[st.integers(0, 2)] * n)
        weights = draw(st.dictionaries(colors, st.integers(-2, 2), max_size=3 ** n))
        table: dict = {}  # the drawn table plus its images, summed
        for perm in sorted(group):
            for col, w in weights.items():
                image = tuple(perm[x] for x in col)
                table[image] = table.get(image, 0) + w
        items = list(table.items())
        if items and draw(st.booleans()):  # list one coloring twice; its entries add up
            colors, _ = draw(st.sampled_from(items))
            items.insert(draw(st.integers(0, len(items))), (colors, draw(st.integers(-2, 2))))
        nodes.append((tuple(label[i, k] for k in range(n)), tuple(items)))
    return nodes


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(networks())
def test_contract_matches_brute_force(nodes):
    assert contract(nodes) == brute_force(nodes)
