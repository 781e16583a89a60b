import json
import re
from collections import Counter
from itertools import chain, count, permutations
from importlib import resources
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_skein import census_webs, criterion_3_stream
from test_tait import prism_web
from webfoam import catalogue, gf2, modules
from webfoam.foams import FoamExpr, Theta
from webfoam.generate import cubic_multigraphs
from webfoam.skein import site_modifications
from webfoam.webs import (
    EDGE_A,
    EDGE_B,
    RESOLUTIONS,
    SMOOTH_A,
    SMOOTH_B,
    Crossing,
    Diagram,
    Vertex,
    Web,
    WebError,
    _union_find,
    disjoint_union_diagrams,
    flip_crossing,
    parse_diagram,
    parse_web,
    resolve_crossing,
    serialize_diagram,
    serialize_web,
    underlying_web,
    web_component_count,
    web_from_incidences,
)

THETA_DOC = json.dumps(
    {
        "vertices": ["u", "w"],
        "edges": [
            {"id": "e1", "ends": [["u", 0], ["w", 0]]},
            {"id": "e2", "ends": [["u", 1], ["w", 1]]},
            {"id": "e3", "ends": [["u", 2], ["w", 2]]},
        ],
    }
)

KINK_DOC = json.dumps({"crossings": [{"id": "x", "darts": ["A", "A", "B", "B"], "over": [0, 2]}]})


def hopf_diagram():
    return parse_diagram(
        json.dumps(
            {
                "crossings": [
                    {"id": "c1", "darts": ["c", "a", "d", "b"], "over": [1, 3]},
                    {"id": "c2", "darts": ["b", "d", "a", "c"], "over": [1, 3]},
                ]
            }
        )
    )


def trefoil_diagram():
    return catalogue.load_diagram(catalogue.get("trefoil"))


class TestParseWeb:
    def test_theta(self):
        w = parse_web(THETA_DOC)
        assert len(w.vertices) == 2
        assert len(w.edges) == 3

    def test_unknot(self):
        w = parse_web(json.dumps({"vertices": [], "edges": [{"id": "e", "circle": True}]}))
        assert len(w.vertices) == 0
        assert w.edges == ["e"]

    def test_four_valent_vertex_rejected(self):
        doc = {
            "vertices": ["v", "w"],
            "edges": [
                {"id": "a", "ends": [["v", 0], ["w", 0]]},
                {"id": "b", "ends": [["v", 1], ["w", 1]]},
                {"id": "c", "ends": [["v", 2], ["w", 2]]},
                {"id": "d", "ends": [["v", 3], ["w", 3]]},
            ],
        }
        with pytest.raises(WebError):
            parse_web(json.dumps(doc))

    def test_degree_two_rejected(self):
        doc = {
            "vertices": ["v", "w"],
            "edges": [
                {"id": "a", "ends": [["v", 0], ["w", 0]]},
                {"id": "b", "ends": [["v", 1], ["w", 1]]},
            ],
        }
        with pytest.raises(WebError):
            parse_web(json.dumps(doc))

    def test_dangling_edge_rejected(self):
        doc = {"vertices": ["v"], "edges": [{"id": "a", "ends": [["v", 0]]}]}
        with pytest.raises(WebError):
            parse_web(json.dumps(doc))

    def test_odd_vertex_count_impossible(self):
        # three slots at one vertex can only pair internally via a loop
        # plus a dangler, so a single-vertex web cannot close up
        doc = {
            "vertices": ["v"],
            "edges": [
                {"id": "l", "ends": [["v", 0], ["v", 1]]},
                {"id": "d", "ends": [["v", 2], ["v", 2]]},
            ],
        }
        with pytest.raises(WebError):
            parse_web(json.dumps(doc))

    def test_round_trip(self):
        w = parse_web(THETA_DOC)
        assert parse_web(serialize_web(w)) == w

    def test_round_trip_generated(self):
        from webfoam.generate import planar_cubic_webs

        for w in planar_cubic_webs(6):
            assert parse_web(serialize_web(w)) == w


class TestParseDiagram:
    def test_hopf(self):
        d = hopf_diagram()
        assert len(d.crossings) == 2
        uw = underlying_web(d)
        assert len(uw.circles) == 2 and not uw.vertices

    def test_tetrahedron_euler(self):
        d = catalogue.load_diagram(catalogue.get("tetrahedron"))
        v = len(d.vertices)
        e = len(d.arcs)
        f = len(d.faces)
        assert (v, e, f) == (4, 6, 4)
        assert v - e + f == 2

    def test_lhc_matches_figure(self):
        d = catalogue.load_diagram(catalogue.get("lhc"))
        assert len(d.vertices) == 2
        uw = underlying_web(d)
        loops = [e for e in uw.edge_ends if uw.is_loop(e)]
        assert len(loops) == 2 and len(uw.edges) == 3

    def test_unmatched_darts(self):
        with pytest.raises(WebError):
            parse_diagram(json.dumps({"vertices": [{"id": "v", "darts": ["a", "b", "c"]}]}))

    def test_adjacent_over_pair_rejected(self):
        doc = {"crossings": [{"id": "x", "darts": ["A", "A", "B", "B"], "over": [0, 1]}]}
        with pytest.raises(WebError):
            parse_diagram(json.dumps(doc))

    def test_non_planar_rotation_rejected(self):
        # two vertices joined by three parallel edges with the SAME ccw
        # order on both sides embeds on the torus, not the sphere
        doc = {
            "vertices": [
                {"id": "u", "darts": ["e1", "e2", "e3"]},
                {"id": "w", "darts": ["e1", "e2", "e3"]},
            ]
        }
        with pytest.raises(WebError, match="non-planar"):
            parse_diagram(json.dumps(doc))

    @pytest.mark.parametrize("darts", [[], 0, ""])
    @pytest.mark.parametrize("kind, record", [("vertex", "vertices"), ("crossing", "crossings")])
    def test_falsy_darts_are_read(self, darts, kind, record):
        # a 'darts' key is read even when its value is falsy; 'arcs' is only its stand-in
        doc = {record: [{"id": "u", "darts": darts, "arcs": ["a", "a", "b", "b"][: 3 if kind == "vertex" else 4]}]}
        if darts == []:
            message = f"{kind} 'u' must list {3 if kind == 'vertex' else 4} arcs"
        else:
            message = f"'darts' of {kind} 'u' must be a list, not {darts!r}"
        with pytest.raises(WebError) as exc:
            parse_diagram(json.dumps(doc))
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", ["unknot", "theta"])
    def test_web_document_refused(self, name):
        # read as a diagram, the unknot's edges were ignored (an empty
        # diagram) and theta's vertex ids were taken for vertex records
        text = catalogue.data_text(f"{name}.web.json")
        for doc in (text, json.loads(text)):
            with pytest.raises(WebError, match=r"^this is a web document \(it has 'edges'\), not a diagram$"):
                parse_diagram(doc)

    def test_arcs_stand_in_for_missing_darts(self):
        doc = {"crossings": [{"id": "x", "arcs": ["A", "A", "B", "B"]}]}
        assert parse_diagram(json.dumps(doc)) == parse_diagram(KINK_DOC)
        with pytest.raises(WebError, match="^vertex 'u' needs a 'darts' list$"):
            parse_diagram(json.dumps({"vertices": [{"id": "u"}]}))

    def test_explicit_strand_pairing(self):
        doc = {
            "vertices": [
                {"id": "u", "darts": ["u0", "u1", "u2"]},
                {"id": "w", "darts": ["w1", "w0", "w2"]},
            ],
            "strands": [["u0", "w0"], ["u1", "w1"], ["u2", "w2"]],
        }
        d = parse_diagram(json.dumps(doc))
        assert len(underlying_web(d).edges) == 3


class TestUnderlyingWeb:
    def test_hopf_two_circles(self):
        assert len(underlying_web(hopf_diagram()).circles) == 2

    def test_trefoil_one_circle(self):
        uw = underlying_web(trefoil_diagram())
        assert len(uw.circles) == 1 and not uw.vertices

    def test_lhc_handcuffs(self):
        uw = underlying_web(catalogue.load_diagram(catalogue.get("lhc")))
        assert sorted(uw.is_loop(e) for e in uw.edge_ends) == [False, True, True]

    def test_bundled_webs_derive_from_their_diagrams(self):
        # each bundled .web.json with a .diagram.json sibling is, byte for
        # byte, the serialized underlying web of that diagram
        data = resources.files("webfoam").joinpath("data")
        derived = []
        for f in sorted(data.iterdir(), key=lambda f: f.name):
            sibling = data.joinpath(f.name.replace(".web.json", ".diagram.json"))
            if f.name.endswith(".web.json") and sibling.is_file():
                web = underlying_web(parse_diagram(sibling.read_text()))
                assert f.read_text() == json.dumps(json.loads(serialize_web(web)), indent=1) + "\n", f.name
                derived.append(f.name.removesuffix(".web.json"))
        assert derived == ["cube", "handcuffs", "tetrahedron", "theta", "unknot", "unlink_2"]


class TestResolveCrossing:
    def test_kink_smoothings(self):
        d = parse_diagram(KINK_DOC)
        counts = set()
        for kind in (SMOOTH_A, SMOOTH_B):
            uw = underlying_web(resolve_crossing(d, "x", kind))
            counts.add(len(uw.circles))
        assert counts == {1, 2}

    def test_trefoil_smoothings_classified(self):
        # either smoothing of any trefoil crossing leaves a 2-crossing
        # diagram of the Hopf link (2 components) or a kinked unknot (1)
        d = trefoil_diagram()
        for c in d.crossings:
            comps = set()
            for kind in (SMOOTH_A, SMOOTH_B):
                r = resolve_crossing(d, c.id, kind)
                assert len(r.crossings) == 2
                comps.add(web_component_count(underlying_web(r)))
            assert comps == {1, 2}

    def test_kink_edge_insertion_theta(self):
        d = parse_diagram(KINK_DOC)
        r = resolve_crossing(d, "x", EDGE_B)
        uw = underlying_web(r)
        assert len(uw.vertices) == 2 and len(uw.edges) == 3
        assert not any(uw.is_loop(e) for e in uw.edge_ends)

    def test_insertions_add_two_vertices(self):
        d = hopf_diagram()
        for kind in (EDGE_A, EDGE_B):
            r = resolve_crossing(d, "c1", kind)
            assert len(r.vertices) == 2
            assert len(r.crossings) == 1

    def test_unknown_crossing(self):
        with pytest.raises(WebError):
            resolve_crossing(parse_diagram(KINK_DOC), "nope", SMOOTH_A)

    def test_component_change_at_most_one(self):
        d = trefoil_diagram()
        base = web_component_count(underlying_web(d))
        for c in d.crossings:
            for kind in (SMOOTH_A, SMOOTH_B):
                got = web_component_count(underlying_web(resolve_crossing(d, c.id, kind)))
                assert abs(got - base) <= 1

    def test_labels_do_not_depend_on_call_history(self):
        d = hopf_diagram()
        first = serialize_diagram(resolve_crossing(d, "c1", EDGE_A))
        for kind in RESOLUTIONS:
            resolve_crossing(trefoil_diagram(), trefoil_diagram().crossings[0].id, kind)
        assert serialize_diagram(resolve_crossing(d, "c1", EDGE_A)) == first

    def test_labels_kept_and_fresh(self):
        d = hopf_diagram()
        r = resolve_crossing(d, "c1", EDGE_A)
        assert [n.id for n in r.vertices] == ["c1.w0", "c1.w1"]
        assert r.crossing("c2") == d.crossing("c2")
        assert sorted(r.arcs) == ["a", "b", "c", "d", "s0"]
        # a smoothing joins two arcs under the lesser label
        assert resolve_crossing(d, "c1", SMOOTH_A).crossing("c2").arcs == ("b", "b", "a", "a")

    def test_labels_that_print_alike_are_refused(self):
        # the arcs 2 and "2" (and 1 and "1") would make a smoothing's least
        # label as a string a tie; the diagram itself is refused
        x1 = Crossing("x1", (1, 1, 0, "2"), (1, 3))
        with pytest.raises(WebError, match="^arc 2 and arc '2' print alike$"):
            Diagram((), (Crossing("x0", ("1", "1", 2, "2"), (1, 3)), x1, Crossing("x2", ("0", "0", 2, 0))))

    def test_ids_outside_the_id_rule_name_no_crossing(self):
        # True and 1.0 equal the crossing id 1 but are not ids; they named
        # it, and the new vertices "True.w0" and "1.0.w0"
        d = Diagram((), (Crossing(1, ("A", "A", "B", "B")),))
        assert resolve_crossing(d, 1, EDGE_A).vertices[0].id == "1.w0"
        for cid in (True, 1.0):
            for op in (d.crossing, lambda cid: flip_crossing(d, cid), lambda cid: resolve_crossing(d, cid, EDGE_A)):
                with pytest.raises(WebError, match=f"^unknown crossing id {cid!r}$"):
                    op(cid)

    def test_resolution_kinds_closed(self):
        assert set(RESOLUTIONS) == {SMOOTH_A, SMOOTH_B, EDGE_A, EDGE_B}


class TestDiagramOps:
    def test_flip_crossing(self):
        d = parse_diagram(KINK_DOC)
        f = flip_crossing(d, "x")
        assert f.crossing("x").over == (1, 3)
        assert flip_crossing(f, "x").crossing("x").over == (0, 2)

    def test_disjoint_union(self):
        d = disjoint_union_diagrams(hopf_diagram(), trefoil_diagram())
        assert len(d.crossings) == 5
        uw = underlying_web(d)
        assert len(uw.circles) == 3


def test_web_immutability():
    w = web_from_incidences({"u": ["a", "b", "c"], "w": ["a", "b", "c"]})
    assert isinstance(w, Web)
    with pytest.raises(AttributeError):
        w.vertices = ()
    d = parse_diagram(KINK_DOC)
    records = [
        (d, "circles"),
        (d.crossings[0], "over"),
        (Vertex("v", ("a", "b", "c")), "arcs"),
        (gf2.identity(2), "rows"),
        (modules.known_module("unknot"), "ops"),
        (Theta((0, 1, 2)), "dots"),
        (FoamExpr.one(), "terms"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, ())


def test_records_hash_as_they_compare():
    """Every ``Frozen`` record hashes, and equal records hash alike though
    their dicts were filled in different orders, so a set holds one."""
    from fractions import Fraction

    from webfoam import Frozen, dims

    theta = json.loads(THETA_DOC)
    mod = modules.known_module("theta")
    pairs = [
        (parse_web(THETA_DOC), parse_web({**theta, "edges": theta["edges"][::-1]})),
        (parse_diagram(KINK_DOC), parse_diagram(KINK_DOC)),
        (mod, modules.F2Module(mod.dim, mod.basis, dict(reversed(mod.ops.items())), mod.grading)),
        (dims.SemiFraming({"a": 1, "b": Fraction(1, 2)}), dims.SemiFraming({"b": 0.5, "a": 1})),
        (dims.BifoldTopology(1, sigma_self=Fraction(1, 2)), dims.BifoldTopology(Fraction(2, 2), sigma_self=0.5)),
        (FoamExpr.one(), FoamExpr.one()),
    ]
    assert {type(a) for a, _ in pairs} == set(Frozen.__subclasses__())
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)


def test_loop_occupies_two_slots():
    w = web_from_incidences({"v1": ["l", "l", "b"], "v2": ["m", "b", "m"]})
    assert w.is_loop("l") and w.is_loop("m") and not w.is_loop("b")


def test_web_rejects_reused_slot():
    with pytest.raises(WebError):
        Web(("v", "w"), [("a", ("v", 0), ("w", 0)), ("b", ("v", 0), ("w", 1)),
                         ("c", ("v", 1), ("w", 2))])


@pytest.mark.parametrize("edge, text", [
    (("e", ("u", 0)), r"edge \('e', \('u', 0\)\) is not an \(edge id, end, end\) triple"),
    ("e", "edge 'e' is not an"),
    (7, "edge 7 is not an"),
    (("e", ("u", 0, 1), ("w", 0)), r"edge 'e' has the end \('u', 0, 1\); an end is a \(vertex, slot\) pair"),
    (("e", ("u", 0), 5), "edge 'e' has the end 5;"),
])
def test_web_names_a_malformed_edge(edge, text):
    """An edge that is not an (id, (vertex, slot), (vertex, slot)) triple
    is a ``WebError`` naming it, also after well-formed edges."""
    good = ("f", ("u", 1), ("w", 1))
    for edges in ([edge], [good, edge]):
        with pytest.raises(WebError, match=text):
            Web(("u", "w"), edges)


class TestRepeatedLabels:
    def test_web_rejects_repeated_circle(self):
        with pytest.raises(WebError, match="circle id 'a'"):
            Web((), [], ["a", "a"])

    def test_web_rejects_repeated_edge(self):
        with pytest.raises(WebError, match="edge id 'e'"):
            Web(("u", "w"), [("e", ("u", 0), ("w", 0)), ("e", ("u", 1), ("w", 1)),
                             ("f", ("u", 2), ("w", 2))])

    def test_parse_web_rejects_repeated_circle_record(self):
        doc = {"edges": [{"id": "a", "circle": True}, {"id": "a", "circle": True}]}
        with pytest.raises(WebError, match="circle id 'a'"):
            parse_web(json.dumps(doc))

    def test_parse_web_rejects_repeated_edge_record(self):
        doc = json.loads(THETA_DOC)
        doc["edges"][1]["id"] = "e1"
        with pytest.raises(WebError, match="edge id 'e1'"):
            parse_web(json.dumps(doc))

    def test_diagram_rejects_repeated_circle(self):
        with pytest.raises(WebError, match="circle 'a'"):
            parse_diagram(json.dumps({"circles": ["a", "a"]}))

    def test_parse_web_rejects_repeated_vertex(self):
        # each listed copy would find its three slots filled
        doc = json.loads(THETA_DOC)
        doc["vertices"] = ["u", "w", "u", "w"]
        with pytest.raises(WebError, match="vertex id 'u'"):
            parse_web(json.dumps(doc))
        with pytest.raises(WebError, match="vertex id 'u'"):
            Web(("u", "u"), [])
        # with the ends complete, the copies alone are refused
        ends = [(f"e{k}", ("u", k), ("w", k)) for k in range(3)]
        with pytest.raises(WebError, match="vertex id 'u' is used more than once"):
            Web(("u", "w", "u", "w"), ends)


NOT_IDS = [1.5, 1.0, True, False, None, float("nan"), float("inf")]


class TestIdRule:
    """An id is a string or an integer that is not a bool, and two ids of
    one kind that differ do not print alike."""

    @pytest.mark.parametrize("x", NOT_IDS)
    @pytest.mark.parametrize("place, noun", [("node", "node id"), ("arc", "arc"), ("circle", "circle"), ("strand", "dart")])
    def test_diagram_documents_refuse_other_scalars(self, x, place, noun):
        doc = json.loads(KINK_DOC)
        if place == "node":
            doc["crossings"][0]["id"] = x
        elif place == "arc":
            doc["crossings"][0]["darts"] = [x, x, "B", "B"]
        elif place == "circle":
            doc["circles"] = [x]
        else:
            doc["strands"] = [[x, "B"]]
        with pytest.raises(WebError, match=rf"^{noun} .* must be a string or an? (number|integer)$"):
            parse_diagram(json.dumps(doc))

    @pytest.mark.parametrize("x", NOT_IDS)
    @pytest.mark.parametrize("place, noun", [("vertex", "vertex id"), ("edge", "edge id"), ("circle", "edge id")])
    def test_web_documents_refuse_other_scalars(self, x, place, noun):
        doc = json.loads(THETA_DOC)
        if place == "vertex":
            doc["vertices"][0] = x
        elif place == "edge":
            doc["edges"][0]["id"] = x
        else:
            doc["edges"].append({"id": x, "circle": True})
        with pytest.raises(WebError, match=rf"^{noun} .* must be a string or an? (number|integer)$"):
            parse_web(json.dumps(doc))

    @pytest.mark.parametrize("x", [True, 1.0])
    def test_an_end_that_only_equals_a_vertex_is_unknown(self, x):
        # True == 1.0 == 1, but none of them prints like the vertex 1
        doc = {"vertices": [1, "w"], "edges": [{"id": f"e{k}", "ends": [[1, k], ["w", k]]} for k in range(3)]}
        doc["edges"][1]["ends"][0][0] = x
        with pytest.raises(WebError, match=f"^edge 'e1' meets unknown vertex {x!r}$"):
            parse_web(json.dumps(doc))
        doc["edges"][1]["ends"][0][0] = 1
        assert parse_web(json.dumps(doc)).vertices == (1, "w")

    def test_ids_that_print_alike_are_refused(self):
        kink = Crossing("x", (1, 1, 2, 2))
        cases = [
            (lambda: Diagram((), (kink, Crossing("y", ("1", "1", "b", "b")))), "arc 1 and arc '1'"),
            (lambda: Diagram((), (kink,), ("2",)), "arc 2 and circle '2'"),
            (lambda: Diagram((), (kink, Crossing(1, ("a", "a", "b", "b")), Crossing("1", ("c", "c", "d", "d")))),
             "node id 1 and node id '1'"),
            (lambda: Web((7, "7"), [(f"e{k}", (7, k), ("7", k)) for k in range(3)]), "vertex id 7 and vertex id '7'"),
            (lambda: Web((), [], [0, "0"]), "edge id 0 and edge id '0'"),
            (lambda: Web(("u", "w"), [(k, ("u", k - 3), ("w", k - 3)) for k in (3, 4, 5)], ["3"]),
             "edge id (3 and edge id '3'|'3' and edge id 3)"),
        ]
        for build, both in cases:
            with pytest.raises(WebError, match=f"^{both} print alike$"):
                build()

    @pytest.mark.parametrize("x", [("w", 1), ("w", True)])
    def test_tuples_are_not_ids(self, x):
        # ("w", True) == ("w", 1), though they print apart: the fault the rule mends for True and 1, inside a tuple
        refused = r"must be a string or a number$"
        with pytest.raises(WebError, match=rf"^node id {re.escape(repr(x))} {refused}"):
            Diagram((), (Crossing(x, ("A", "A", "B", "B")),))
        with pytest.raises(WebError, match=rf"^arc {re.escape(repr(x))} {refused}"):
            Diagram((), (Crossing("c", (x, x, "B", "B")),))
        with pytest.raises(WebError, match=rf"^vertex id {re.escape(repr(x))} {refused}"):
            Web((x, "w"), [(f"e{k}", (x, k), ("w", k)) for k in range(3)])
        with pytest.raises(WebError, match=rf"^edge id {re.escape(repr(x))} {refused}"):
            Web(("u", "w"), [(x, ("u", 0), ("w", 0)), *((f"e{k}", ("u", k), ("w", k)) for k in (1, 2))])
        with pytest.raises(WebError, match=rf"^unknown crossing id {re.escape(repr(x))}$"):
            parse_diagram(KINK_DOC).crossing(x)

    def test_kinds_may_print_alike(self):
        # a node "1" beside an arc 1, a vertex 0 beside an edge "0"
        d = Diagram((), (Crossing("1", (1, 1, 2, 2)),))
        assert underlying_web(d).circles == {"1"}
        assert Web((0, 1), [(str(k), (0, k), (1, k)) for k in range(3)]).edges == ["0", "1", "2"]

    def test_found_document_refused_by_both_commands(self):
        # arcs 0 and "0": erasing crossings used to name two circles "0"
        doc = {"crossings": [{"id": "x", "darts": [0, 0, 1, 1]}, {"id": "y", "darts": ["0", "0", "1", "1"]}]}
        with pytest.raises(WebError, match="^arc 0 and arc '0' print alike$"):
            parse_diagram(json.dumps(doc))

    @pytest.mark.parametrize("slot", [True, 1.0, False, 0.0, "1", None, 3, -1])
    def test_slots_are_the_integers_0_1_2(self, slot):
        # True and 1.0 equal the slot 1 they replace, so a test by == alone lets them through
        doc = json.loads(THETA_DOC)
        doc["edges"][1]["ends"][1][1] = slot
        with pytest.raises(WebError, match=rf"^edge 'e2' uses slot {re.escape(repr(slot))}; a slot is the integer 0, 1 or 2$"):
            parse_web(json.dumps(doc))

    @pytest.mark.parametrize("over", [[True, 3], [0.0, 2.0], [1, 3.0], [False, 2], [0, 2, 0], [2, 0]])
    def test_over_pairs_are_integer_pairs(self, over):
        doc = json.loads(KINK_DOC)
        doc["crossings"][0]["over"] = over
        with pytest.raises(WebError, match="over-pair .* must be opposite positions"):
            parse_diagram(json.dumps(doc))

    @pytest.mark.parametrize("over", [[0, 2], [1, 3]])
    def test_integer_over_pairs_round_trip(self, over):
        doc = json.loads(KINK_DOC)
        doc["crossings"][0]["over"] = over
        assert json.loads(serialize_diagram(parse_diagram(json.dumps(doc))))["crossings"][0]["over"] == over

    def test_ids_may_mix_integers_and_strings(self):
        d = parse_diagram(json.dumps({"vertices": [{"id": 0, "darts": [1, "a", 2]}, {"id": "v", "darts": [1, 2, "a"]}]}))
        assert d.arcs == [1, 2, "a"]
        assert underlying_web(d).vertices == (0, "v")


@pytest.mark.parametrize("vertex", [["u"], {"u": 0}, [], None])
def test_end_at_a_non_vertex_is_a_web_error(vertex):
    doc = json.loads(THETA_DOC)
    doc["edges"][0]["ends"][1][0] = vertex
    with pytest.raises(WebError, match="meets unknown vertex"):
        parse_web(json.dumps(doc))


# --- the incidence tables that validation keeps ---------------------------------


def scanned_vertex_edges(w, v) -> list:
    """Edges at ``v`` in slot order, by a scan of every edge's ends."""
    out = {slot: e for e, ends in w.edge_ends.items() for u, slot in ends if u == v}
    return [out[s] for s in (0, 1, 2)]


def node_partner(d) -> dict:
    """The dart involution from the node records: the two darts (node id,
    position) that carry one arc label are each other's partner."""
    darts: dict = {}
    for n in d.vertices + d.crossings:
        for pos, a in enumerate(n.arcs):
            darts.setdefault(a, []).append((n.id, pos))
    return {x: y for a, b in darts.values() for x, y in ((a, b), (b, a))}


def test_slot_table_matches_a_scan_of_the_ends():
    diagrams = [catalogue.load_diagram(e) for e in catalogue.CATALOGUE if e.diagram_file] + criterion_3_stream()
    webs = census_webs() + [catalogue.load_web(e) for e in catalogue.CATALOGUE]
    webs += [underlying_web(d) for d in diagrams]
    assert sum(w.has_loop() for w in webs) > 0
    for w in webs:
        assert list(w.slot_edges) == list(w.vertices)
        for v in w.vertices:
            assert list(w.slot_edges[v]) == scanned_vertex_edges(w, v)


def test_stored_involution_matches_the_node_records():
    diagrams = [catalogue.load_diagram(e) for e in catalogue.CATALOGUE if e.diagram_file] + criterion_3_stream()
    diagrams += [parse_diagram(KINK_DOC), hopf_diagram()]
    for d in diagrams:
        partner, labels = d._partner, d._labels
        darts = [(n.id, pos) for n in d.vertices + d.crossings for pos in range(len(n.arcs))]  # in dart order
        assert len(partner) == len(labels) == len(darts)
        assert {darts[x]: darts[y] for x, y in enumerate(partner)} == node_partner(d)
        assert all(partner[partner[x]] == x != partner[x] for x in range(len(partner)))
        assert dict(zip(darts, labels)) == {(n.id, pos): a for n in d.vertices + d.crossings for pos, a in enumerate(n.arcs)}


def tuple_walk_underlying_web(d) -> Web:
    """``underlying_web`` by a walk over tuple-keyed tables built from the
    node records (the dart involution and the arc at each dart), from the
    vertex darts and then the crossing darts in (str(node id), position)
    order."""
    partner = node_partner(d)
    arc_at = {(n.id, pos): a for n in d.vertices + d.crossings for pos, a in enumerate(n.arcs)}
    crossings = [c.id for c in d.crossings]
    key = lambda dart: (str(dart[0]), dart[1])  # noqa: E731
    edges = []
    walked = set()
    for start in sorted(((n.id, pos) for n in d.vertices for pos in range(3)), key=key):
        if start in walked:
            continue
        labels = [arc_at[start]]
        dart = partner[start]
        while dart[0] in crossings:
            walked.update((dart, (dart[0], dart[1] ^ 2)))
            dart = (dart[0], dart[1] ^ 2)
            labels.append(arc_at[dart])
            dart = partner[dart]
        walked.update((start, dart))
        edges.append((str(min(labels, key=str)), start, dart))
    circles = list(d.circles)
    for start in sorted(((c, pos) for c in crossings for pos in range(4)), key=key):
        labels = []
        cur = start
        while cur not in walked:
            walked.update((cur, (cur[0], cur[1] ^ 2)))
            labels.append(arc_at[cur])
            cur = partner[(cur[0], cur[1] ^ 2)]
        if labels:
            circles.append(str(min(labels, key=str)))
    return Web([n.id for n in d.vertices], edges, circles)


def test_underlying_web_matches_the_tuple_walk():
    diagrams = [catalogue.load_diagram(e) for e in catalogue.CATALOGUE if e.diagram_file] + criterion_3_stream()
    diagrams += [parse_diagram(KINK_DOC), hopf_diagram()]
    for d in diagrams:
        d = parse_diagram(serialize_diagram(d))
        w = underlying_web(d)
        # the walk reads the integer tables alone and caches no table on d
        assert d.__dict__.keys() == {"vertices", "crossings", "circles", "_labels", "_partner"}
        want = tuple_walk_underlying_web(d)
        assert w == want
        assert list(w.edge_ends.items()) == list(want.edge_ends.items())


# --- the two local moves against a slot-involution model ---------------------

MODEL_PAIRS = {SMOOTH_A: ((0, 1), (2, 3)), SMOOTH_B: ((1, 2), (3, 0))}
MODEL_PAIRS.update({EDGE_A: MODEL_PAIRS[SMOOTH_A], EDGE_B: MODEL_PAIRS[SMOOTH_B]})


def model_move(links, cid, kind) -> tuple:
    """The involution ``links`` on slots (node id, position) after crossing
    ``cid`` is resolved by ``kind``, and the number of circles it closes.  A
    smoothing joins the slots each position pair meets, pair by pair; an
    inserted edge moves positions p, q, r, s to slots 0, 1 of the vertices
    ("w", cid, 0), ("w", cid, 1) and joins their slots 2."""
    links = dict(links)
    if kind in (EDGE_A, EDGE_B):
        new = {(cid, pos): (("w", cid, i // 2), i % 2) for i, pos in enumerate(chain(*MODEL_PAIRS[kind]))}
        links = {new.get(x, x): new.get(y, y) for x, y in links.items()}
        links[("w", cid, 0), 2], links[("w", cid, 1), 2] = (("w", cid, 1), 2), (("w", cid, 0), 2)
        return links, 0
    closed = 0
    for p, q in MODEL_PAIRS[kind]:
        a, b = links.pop((cid, p)), links.pop((cid, q))
        if a == (cid, q):
            closed += 1
        else:
            links[a], links[b] = b, a
    return links, closed


def model_resolution(d, cid, kind) -> str:
    """``resolve_crossing(d, cid, kind)`` as ``model_move`` and the labels
    its docstring gives, serialized."""
    arc_at = {(n.id, pos): a for n in d.vertices + d.crossings for pos, a in enumerate(n.arcs)}
    links, closed = model_move(node_partner(d), cid, kind)
    used = {str(x) for x in [*arc_at.values(), *d.circles, *(n.id for n in d.vertices + d.crossings)]}

    def fresh(base):
        used.add(name := next(f"{base}{k}" for k in count() if f"{base}{k}" not in used))
        return name

    new = [(("w", cid, i), k) for i, k in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2))]  # p, q, r, s, the edge
    label = {}
    for x in [*arc_at, *new]:
        if x in links and x not in label:
            kept = [arc_at[y] for y in (x, links[x]) if y in arc_at]
            label[x] = label[links[x]] = min(kept, key=str) if kept else fresh("s")
    vertices = [Vertex(n.id, tuple(label[n.id, j] for j in range(3))) for n in d.vertices]
    if kind in (EDGE_A, EDGE_B):
        vertices += [Vertex(fresh(f"{cid}.w"), tuple(label[("w", cid, i), j] for j in range(3))) for i in (0, 1)]
    crossings = [Crossing(c.id, tuple(label[c.id, j] for j in range(4)), c.over) for c in d.crossings if c.id != cid]
    circles = (*d.circles, *(fresh("s") for _ in range(closed)))
    return serialize_diagram(Diagram(tuple(vertices), tuple(crossings), circles))


def model_sites(w, e, f) -> dict:
    """``site_modifications(w, e, f)`` as ``model_move`` at the virtual
    crossing ("site",) and the web its docstring gives, serialized: the
    inserted vertices ("w", ("site",), i) are named by the first two of
    "site.w0", "site.w1", ... that do not print like a vertex of ``w``."""
    cid = ("site",)
    taken = {str(v) for v in w.vertices}
    names = [x for x in (f"site.w{k}" for k in range(len(taken) + 2)) if x not in taken]
    new = {("w", cid, i): names[i] for i in (0, 1)}
    ends = dict(w.edge_ends)
    for x, (p, q) in ((e, (0, 2)), (f, (1, 3))):
        a, b = ends.pop(x, ((cid, q), (cid, p)))  # a circle joins p to q
        ends[x, 0], ends[x, 1] = (a, (cid, p)), (b, (cid, q))
    links = {y: z for a, b in ends.values() for y, z in ((a, b), (b, a))}
    out = {}
    for key, kind in (("recon_a", SMOOTH_A), ("recon_b", SMOOTH_B), ("bar_a", EDGE_A), ("bar_b", EDGE_B)):
        moved, closed = model_move(links, cid, kind)
        moved = {(new.get(x, x), i): (new.get(y, y), j) for (x, i), (y, j) in moved.items()}
        edges, done = [], set()
        for x in sorted(moved, key=lambda x: (str(x[0]), x[1])):
            if x not in done:
                done.update((x, moved[x]))
                edges.append((f"s{len(edges)}", x, moved[x]))
        circles = [f"s{k}" for k in range(len(edges), len(edges) + len(w.circles - {e, f}) + closed)]
        out[key] = serialize_web(Web(sorted({x[0] for x in moved}, key=str), edges, circles))
    return out


def matchings(slots) -> list:
    """Every pairing of the slots into twos."""
    if not slots:
        return [[]]
    return [[(slots[0], y), *rest] for k, y in enumerate(slots[1:]) for rest in matchings(slots[1:k + 1] + slots[k + 2:])]


def one_crossing_layouts() -> list:
    """Every planar diagram of the crossing "x" and none or two vertices
    "u", "v" in which an arc joins two positions of "x", opposite ones
    included."""
    layouts = []
    for nodes in ({"x": 4}, {"x": 4, "u": 3, "v": 3}):
        for pairs in matchings([(n, pos) for n, k in nodes.items() for pos in range(k)]):
            if not any(a[0] == b[0] == "x" for a, b in pairs):
                continue
            label = {x: f"a{i}" for i, pair in enumerate(pairs) for x in pair}
            arcs = {n: tuple(label[n, pos] for pos in range(k)) for n, k in nodes.items()}
            try:
                layouts.append(Diagram(tuple(Vertex(v, arcs[v]) for v in "uv" if v in nodes), (Crossing("x", arcs["x"]),)))
            except WebError:  # not planar
                pass
    return layouts


def turned(d, r):
    """``d`` with each crossing's positions renumbered r places back: the
    same plane diagram."""
    crossings = (Crossing(c.id, c.arcs[r:] + c.arcs[:r], tuple(sorted((k - r) % 4 for k in c.over))) for c in d.crossings)
    return Diagram(d.vertices, tuple(crossings), d.circles)


def test_resolutions_match_the_slot_model():
    # the digests reach kinks at positions 0-1 alone (``add_kink`` writes no
    # other), so the layouts and turns put arcs between every two positions
    layouts = one_crossing_layouts()
    assert {tuple(c.arcs.count(a) for a in c.arcs) for d in layouts for c in d.crossings} >= {(2, 1, 2, 1), (2, 2, 2, 2)}
    diagrams = [catalogue.load_diagram(e) for e in catalogue.CATALOGUE if e.diagram_file] + criterion_3_stream()[:20]
    for d in layouts + [turned(d, r) for d in diagrams for r in range(4)]:
        for c in d.crossings:
            for kind in RESOLUTIONS:
                assert serialize_diagram(resolve_crossing(d, c.id, kind)) == model_resolution(d, c.id, kind)


def test_tutte_sites_match_the_slot_model():
    census = [w for n in (2, 4, 6) for w in cubic_multigraphs(n, allow_loops=True)]
    webs = census + [Web(w.vertices, [(e, *ends) for e, ends in w.edge_ends.items()], ["o1", "o2"]) for w in census[:8]]
    webs += [Web((), (), ["o1", "o2"]), Web((), (), ["o1", "o2", "o3"]), prism_web(3), prism_web(4)]
    webs.append(Web(("site.w0", "u"), [(f"e{k}", ("site.w0", k), ("u", k)) for k in range(3)]))  # the next name is taken
    assert any(w.has_loop() for w in webs)
    for w in webs:
        for e, f in permutations(w.edges, 2):
            assert {k: serialize_web(m) for k, m in site_modifications(w, e, f).items()} == model_sites(w, e, f)


class TestParseProperties:
    def test_round_trips(self):
        diagrams = [catalogue.load_diagram(e) for e in catalogue.CATALOGUE if e.diagram_file]
        diagrams += criterion_3_stream()
        webs = [catalogue.load_web(e) for e in catalogue.CATALOGUE] + [underlying_web(d) for d in diagrams]
        for d in diagrams:
            assert parse_diagram(serialize_diagram(d)) == d
        for w in webs:
            assert parse_web(serialize_web(w)) == w


# --- the Euler check against the component-by-component oracle -------------


def oracle_trace_faces(d) -> tuple:
    """Faces as tuples of darts (node, pos), each traced from its least dart
    in (str(node), pos) order: the tracing ``Diagram`` did on construction
    before it counted face orbits unsorted."""
    partner = {}
    for (n1, p1), (n2, p2) in d.arc_ends.values():
        partner[(n1, p1)] = (n2, p2)
        partner[(n2, p2)] = (n1, p1)
    degree = {n.id: len(n.arcs) for nodes in (d.vertices, d.crossings) for n in nodes}
    seen = set()
    faces = []
    for start in sorted(partner, key=lambda dart: (str(dart[0]), dart[1])):
        if start in seen:
            continue
        face = []
        dart = start
        while True:
            face.append(dart)
            seen.add(dart)
            n, p = partner[dart]
            dart = (n, (p + 1) % degree[n])
            if dart == start:
                break
        faces.append(tuple(face))
    return tuple(faces)


def oracle_check_euler(d) -> None:
    """Euler formula V - E + F = 2, checked component by component in
    order of their first nodes; a component is named by its first node
    in record order (vertices, then crossings)."""
    ids = [n.id for n in d.vertices] + [c.id for c in d.crossings]
    root = _union_find(ids, ((n1, n2) for (n1, _), (n2, _) in d.arc_ends.values()))
    comp_e = Counter(root[occ[0][0]] for occ in d.arc_ends.values())
    comp_f = Counter(root[face[0][0]] for face in d.faces)
    first = {}  # root -> the component's first node
    for x in ids:
        first.setdefault(root[x], x)
    for r, v in Counter(root.values()).items():
        e, f = comp_e[r], comp_f[r]
        if v - e + f != 2:
            raise WebError(
                f"non-planar face structure: component of {first[r]!r} has V-E+F = {v}-{e}+{f} = {v - e + f}"
            )


def oracle(vertices, crossings) -> tuple:
    """(message or None, faces) of the oracle on nodes whose arcs pair up."""
    arc_ends = {}
    for n in (*vertices, *crossings):
        for pos, a in enumerate(n.arcs):
            arc_ends.setdefault(a, []).append((n.id, pos))
    d = SimpleNamespace(vertices=vertices, crossings=crossings, arc_ends=arc_ends)
    d.faces = oracle_trace_faces(d)
    try:
        oracle_check_euler(d)
    except WebError as exc:
        return str(exc), d.faces
    return None, d.faces


@st.composite
def rotation_systems(draw):
    """Vertices and crossings with their darts paired at random, so loops,
    kinks, several components and non-planar ones all occur; the node ids
    are integers or strings."""
    n_vertices, n_crossings = 2 * draw(st.integers(0, 2)), draw(st.integers(0, 3))
    ids = draw(st.permutations(range(n_vertices + n_crossings)))
    if draw(st.booleans()):
        ids = [f"n{i}" for i in ids]
    degree = [3] * n_vertices + [4] * n_crossings
    slots = [(i, pos) for i, k in enumerate(degree) for pos in range(k)]
    order = draw(st.permutations(slots))
    label = {slot: f"a{k // 2}" for k, slot in enumerate(order)}
    arcs = [tuple(label[i, pos] for pos in range(k)) for i, k in enumerate(degree)]
    vertices = tuple(Vertex(ids[i], arcs[i]) for i in range(n_vertices))
    crossings = tuple(
        Crossing(ids[i], arcs[i], draw(st.sampled_from([(0, 2), (1, 3)])))
        for i in range(n_vertices, n_vertices + n_crossings)
    )
    return vertices, crossings


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rotation_systems())
def test_euler_check_matches_component_oracle(nodes):
    message, faces = oracle(*nodes)
    if message is None:
        assert Diagram(*nodes).faces == faces
    else:
        with pytest.raises(WebError) as exc:
            Diagram(*nodes)
        assert str(exc.value) == message


def test_toroidal_second_component_named():
    # a planar kink first, then a crossing whose strands meet as on a torus
    # (V - E + F = 1 - 2 + 1): the diagram sums to 2 where two spheres give 4
    crossings = (Crossing("x", ("A", "A", "B", "B")), Crossing("y", ("a", "b", "a", "b")))
    message = "non-planar face structure: component of 'y' has V-E+F = 1-2+1 = 0"
    assert oracle((), crossings)[0] == message
    with pytest.raises(WebError) as exc:
        parse_diagram(json.dumps({"crossings": [{"id": c.id, "darts": list(c.arcs)} for c in crossings]}))
    assert str(exc.value) == message


def test_refusal_names_the_first_node_of_a_component():
    # a planar theta, then a theta whose vertices list its edges in the same
    # counterclockwise order (V - E + F = 2 - 3 + 1, a torus): the refusal
    # names "u", the component's first node in record order
    vertices = (
        Vertex("s", ("a", "b", "c")),
        Vertex("t", ("a", "c", "b")),
        Vertex("u", ("x", "y", "z")),
        Vertex("v", ("x", "y", "z")),
    )
    message = "non-planar face structure: component of 'u' has V-E+F = 2-3+1 = 0"
    assert oracle(vertices, ())[0] == message
    with pytest.raises(WebError) as exc:
        parse_diagram(json.dumps({"vertices": [{"id": n.id, "darts": list(n.arcs)} for n in vertices]}))
    assert str(exc.value) == message


# --- fuzzed documents ----------------------------------------------------------

KEYS = ["vertices", "crossings", "circles", "strands", "edges", "id", "darts", "arcs", "over", "ends", "circle"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False) | st.sampled_from(["a", "u", "x", "e1"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=12,
)


def mutated(x, data):
    """``x`` with one entry somewhere in it replaced by random JSON, dropped
    or, in a list, repeated."""
    keys = sorted(x) if isinstance(x, dict) else range(len(x)) if isinstance(x, list) else []
    if not keys:
        return data.draw(JSON)
    k = data.draw(st.sampled_from(keys))
    move = data.draw(st.sampled_from(["descend", "descend", "replace", "drop", "repeat"]))
    out = dict(x) if isinstance(x, dict) else list(x)
    if move == "descend":
        out[k] = mutated(x[k], data)
    elif move == "replace":
        out[k] = data.draw(JSON)
    elif move == "drop":
        del out[k]
    elif isinstance(out, list):
        out.insert(k, x[k])
    return out


DOCUMENTS = [
    (parse, json.loads(catalogue.data_text(getattr(e, f"{kind}_file"))))
    for e in catalogue.CATALOGUE
    for kind, parse in (("diagram", parse_diagram), ("web", parse_web))
    if getattr(e, f"{kind}_file")
] + [(parse_diagram, json.loads(KINK_DOC)), (parse_web, json.loads(THETA_DOC))]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(DOCUMENTS), st.data())
def test_fuzzed_documents_raise_only_web_error(parse_doc, data):
    parse, doc = parse_doc
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutated(doc, data)
    try:
        parse(json.dumps(doc))
    except WebError:
        pass


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([parse_diagram, parse_web]), JSON)
def test_random_json_raises_only_web_error(parse, doc):
    try:
        parse(json.dumps(doc))
    except WebError:
        pass
