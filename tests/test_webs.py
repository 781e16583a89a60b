import json
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_skein import census_webs, criterion_3_stream
from webfoam import catalogue, gf2, modules
from webfoam.foams import FoamExpr, Theta
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

    def test_parse_web_rejects_repeated_vertex(self):
        # each listed copy would find its three slots filled
        doc = json.loads(THETA_DOC)
        doc["vertices"] = ["u", "w", "u", "w"]
        with pytest.raises(WebError, match="vertex id 'u'"):
            parse_web(json.dumps(doc))
        with pytest.raises(WebError, match="vertex id 'u'"):
            make_web(("u", "u"), [])
        # the constructor itself refuses the copies too
        ends = {f"e{k}": (("u", k), ("w", k)) for k in range(3)}
        with pytest.raises(WebError, match="vertex id 'u' is used more than once"):
            Web(("u", "w", "u", "w"), ends, frozenset())


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
            assert w.vertex_edges(v) == list(w.slot_edges[v]) == scanned_vertex_edges(w, v)


def test_stored_involution_matches_the_node_records():
    diagrams = [catalogue.load_diagram(e) for e in catalogue.CATALOGUE if e.diagram_file] + criterion_3_stream()
    diagrams += [parse_diagram(KINK_DOC), hopf_diagram()]
    for d in diagrams:
        assert d.partner == node_partner(d)
        assert all(d.partner[d.partner[x]] == x != d.partner[x] for x in d.partner)
        assert d.arc_at == {(n.id, pos): a for n in d.vertices + d.crossings for pos, a in enumerate(n.arcs)}


def tuple_walk_underlying_web(d) -> Web:
    """``underlying_web`` by a walk over the tuple-keyed tables ``partner``
    and ``arc_at``, from the vertex darts and then the crossing darts in
    (str(node id), position) order."""
    partner, arc_at = d.partner, d.arc_at
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
    labels = [e[0] for e in edges] + circles
    if len(labels) != len(set(labels)):
        edges = [(f"e{idx}:{lbl}", a, b) for idx, (lbl, a, b) in enumerate(edges)]
    return make_web([n.id for n in d.vertices], edges, circles)


def test_underlying_web_matches_the_tuple_walk():
    diagrams = [catalogue.load_diagram(e) for e in catalogue.CATALOGUE if e.diagram_file] + criterion_3_stream()
    diagrams += [parse_diagram(KINK_DOC), hopf_diagram()]
    for d in diagrams:
        d = parse_diagram(serialize_diagram(d))
        w = underlying_web(d)
        assert not {"partner", "arc_ends", "arc_at"} & d.__dict__.keys()
        want = tuple_walk_underlying_web(d)
        assert w == want
        assert list(w.edge_ends.items()) == list(want.edge_ends.items())


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
    """Euler formula V - E + F = 2, checked component by component."""
    root = _union_find(
        [n.id for n in d.vertices] + [c.id for c in d.crossings],
        ((n1, n2) for (n1, _), (n2, _) in d.arc_ends.values()),
    )
    comp_e = Counter(root[occ[0][0]] for occ in d.arc_ends.values())
    comp_f = Counter(root[face[0][0]] for face in d.faces)
    for r, v in Counter(root.values()).items():
        e, f = comp_e[r], comp_f[r]
        if v - e + f != 2:
            raise WebError(
                f"non-planar face structure: component of {r!r} has V-E+F = {v}-{e}+{f} = {v - e + f}"
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
