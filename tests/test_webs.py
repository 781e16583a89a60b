import json

import pytest

from webfoam import catalogue
from webfoam.webs import (
    EDGE_A,
    EDGE_B,
    RESOLUTIONS,
    SMOOTH_A,
    SMOOTH_B,
    Web,
    WebError,
    disjoint_union_diagrams,
    flip_crossing,
    make_web,
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


def test_loop_occupies_two_slots():
    w = web_from_incidences({"v1": ["l", "l", "b"], "v2": ["m", "b", "m"]})
    assert w.is_loop("l") and w.is_loop("m") and not w.is_loop("b")


def test_make_web_rejects_reused_slot():
    with pytest.raises(WebError):
        make_web(("v", "w"), [("a", ("v", 0), ("w", 0)), ("b", ("v", 0), ("w", 1)),
                             ("c", ("v", 1), ("w", 2))])


class TestRepeatedLabels:
    def test_make_web_rejects_repeated_circle(self):
        with pytest.raises(WebError, match="circle id 'a'"):
            make_web((), [], ["a", "a"])

    def test_make_web_rejects_repeated_edge(self):
        with pytest.raises(WebError, match="edge id 'e'"):
            make_web(("u", "w"), [("e", ("u", 0), ("w", 0)), ("e", ("u", 1), ("w", 1)),
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
