"""Combinatorial webs and their planar diagrams.

A *web* is an abstract trivalent graph: it may have loops, parallel
edges, and vertexless circle components.  A *diagram* is a planar
presentation of a spatial web: trivalent vertices and 4-valent crossings,
each carrying a counterclockwise cyclic order of incident arcs, with an
over-strand designation at every crossing.  Strands are encoded PD-style:
every arc label occurs exactly twice among the node slots (or not at all,
for a free circle).  An id is a string or an integer that is not a bool,
and two ids of one kind that differ may not print alike (``_check_ids``),
so every order and derived name, which go by ``str``, is total and
deterministic.  An over-pair is the integer pair (0, 2) or (1, 3).

All structures are immutable after construction; every operation returns
a new object.  Each has one constructor, on raw parts (a ``Web`` on
vertex ids, edge triples and circle ids, a ``Diagram`` on node
records), which validates them and keeps the tables it builds:
``Web.slot_edges`` (each vertex's edges in slot order), which the other
layers read, and a ``Diagram``'s integer dart tables (the arc at each
dart and the dart involution), its one representation of the darts,
which ``underlying_web``, ``fresh_namer`` and the face walk read.  A
``Diagram`` checks the Euler formula on construction; its sorted
``faces`` are the one view built on first use.  One label rewrite,
``resolved_records`` (a crossing resolved on the node records, whose
labels pair the darts), serves ``resolve_crossing`` (validated as a
diagram) and the Tutte-site modifications of ``skein`` (read back as
webs).
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property
from itertools import chain

from . import Frozen


class WebError(ValueError):
    """Structurally invalid web or diagram data."""


# ---------------------------------------------------------------------------
# webs


class Web(Frozen):
    """Abstract trivalent graph with circle components, built from raw
    parts: vertex ids, ``(edge id, (v, slot), (v, slot))`` triples and
    circle ids, which the one constructor validates.

    ``edge_ends`` maps a regular edge id to its pair of (vertex, slot)
    endpoints; slots at each vertex are 0, 1, 2.  A loop uses the same
    vertex twice with different slots.  ``circles`` holds the ids of
    vertexless circle edges.  ``slot_edges`` maps each vertex to its
    edges in slot order; validation builds it, in one pass over the ends.
    Equality compares ``vertices``, ``edge_ends`` and ``circles``.
    """

    def __init__(self, vertices: Iterable, edges: Iterable, circles: Iterable = ()):
        vertices, edges, circles = tuple(vertices), list(edges), list(circles)
        try:
            names = [e for e, _, _ in edges]
        except (TypeError, ValueError):
            raise _shape_error(edges) from None
        _check_ids(("edge id", names + circles))
        for what, ids in (("edge", names), ("circle", circles)):
            if len(set(ids)) != len(ids):  # then name the first repeat
                raise WebError(f"{what} id {next(x for x, k in Counter(ids).items() if k > 1)!r} is used more than once")
        _check_ids(("vertex id", vertices))
        table = {v: {} for v in vertices}  # vertex -> slot -> edge
        if len(table) != len(vertices):
            raise WebError(f"vertex id {next(v for v, k in Counter(vertices).items() if k > 1)!r} is used more than once")
        edge_ends = {}
        try:
            for e, (x, i), (y, j) in edges:  # each end a (vertex, slot) pair, kept as a tuple
                edge_ends[e] = ends = (x, i), (y, j)
                for v, slot in ends:
                    if not _is_id(v) or (at := table.get(v)) is None:
                        raise WebError(f"edge {e!r} meets unknown vertex {v!r}")
                    if type(slot) is not int or slot not in (0, 1, 2):  # a bool or float slot would pass ==
                        raise WebError(f"edge {e!r} uses slot {slot!r}; a slot is the integer 0, 1 or 2")
                    if slot in at:
                        raise WebError(f"vertex {v!r} slot {slot} used twice")
                    at[slot] = e
        except WebError:
            raise
        except (TypeError, ValueError):  # an end that is not a pair
            raise _shape_error(edges) from None
        for v, at in table.items():
            if len(at) != 3:
                raise WebError(f"vertex {v!r} has degree {len(at)}, not 3")
            table[v] = (at[0], at[1], at[2])
        for c in circles:
            if c in edge_ends:
                raise WebError(f"edge id {c!r} is both a circle and a regular edge")
        if len(vertices) % 2 != 0:
            raise WebError("a trivalent graph has an even number of vertices")
        self.__dict__.update(vertices=vertices, edge_ends=edge_ends, circles=frozenset(circles), slot_edges=table)

    def _key(self) -> tuple:
        return self.vertices, self.edge_ends, self.circles

    # -- accessors ---------------------------------------------------------

    @property
    def edges(self) -> list:
        return sorted(self.edge_ends, key=str) + sorted(self.circles, key=str)

    def is_loop(self, e) -> bool:
        if e in self.circles:
            return False
        (u, _), (v, _) = self.edge_ends[e]
        return u == v

    def has_loop(self) -> bool:
        return any(self.is_loop(e) for e in self.edge_ends)


def _shape_error(edges: list) -> WebError:
    """The refusal of the first of ``edges`` that does not unpack as
    ``(edge id, (vertex, slot), (vertex, slot))``.  ``Web`` builds it
    only after an unpacking failed, so the checks cost a well-formed web
    nothing."""
    for edge in edges:
        try:
            e, *ends = edge
        except (TypeError, ValueError):
            ends = ()
        if len(ends) != 2:
            return WebError(f"edge {edge!r} is not an (edge id, end, end) triple")
        for end in ends:
            try:
                _, _ = end
            except (TypeError, ValueError):
                return WebError(f"edge {e!r} has the end {end!r}; an end is a (vertex, slot) pair")
    raise AssertionError("every edge unpacks")


def web_from_incidences(vertex_edges: Mapping, circles: Iterable = ()) -> Web:
    """Build a web from a map vertex -> list of 3 incident edge ids.

    Slot order follows the given lists.  Loops must appear twice in
    their vertex's list.
    """
    endpoints: dict = {}
    for v, incident in vertex_edges.items():
        if len(incident) != 3:
            raise WebError(f"vertex {v!r} lists {len(incident)} edges, not 3")
        for slot, e in enumerate(incident):
            endpoints.setdefault(e, []).append((v, slot))
    edges = []
    for e, pts in endpoints.items():
        if len(pts) != 2:
            raise WebError(f"edge {e!r} has {len(pts)} endpoints, expected 2")
        edges.append((e, pts[0], pts[1]))
    return Web(vertex_edges, edges, circles)


def load_document(text: str | dict, what: str) -> dict:
    """The JSON object ``text`` holds; ``what`` names the document in a
    ``WebError``.  A dict is taken as already decoded, so a caller that
    must look inside a document before choosing its parser decodes it
    once."""
    if isinstance(text, dict):
        return text
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WebError(f"{what} document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise WebError(f"{what} document must be a JSON object")
    return doc


def _items(x, what: str) -> list:
    if not isinstance(x, list):
        raise WebError(f"{what} must be a list, not {x!r}")
    return x


def _is_id(x) -> bool:
    """A string or an integer that is not a bool."""
    return type(x) in (str, int)


def _check_ids(*kinds) -> None:
    """The id rule on the ids of one kind, as (noun, ids) pairs: each id
    passes ``_is_id`` (a float, a bool, null, a list, an object or a
    tuple does not), and no two that differ print alike, as 1 and "1"
    do; a refusal names the id, or both.  The kinds: node ids, arcs with
    circles, web vertices, web edges with circles."""
    try:  # strings alone, the common case, print apart when they differ; a join finds them fast
        for _, ids in kinds:
            "".join(ids)
        return
    except TypeError:
        pass
    printed: dict = {}  # str(id) -> (noun, id)
    for what, ids in kinds:
        for x in ids:
            if not _is_id(x):  # a float is a number, but not an integer
                raise WebError(f"{what} {x!r} must be a string or {'an integer' if type(x) is float else 'a number'}")
            other, y = printed.setdefault(str(x), (what, x))
            if y != x:
                raise WebError(f"{other} {y!r} and {what} {x!r} print alike")


def parse_web(text: str | dict) -> Web:
    """Parse the JSON web format, from its text or from the dict that
    ``load_document`` decoded it to.

    ``{"vertices": [ids], "edges": [{"id": e, "ends": [[v, slot], [v, slot]]}
    | {"id": e, "circle": true}]}``
    """
    doc = load_document(text, "web")
    if "edges" not in doc:
        raise WebError("web document must be an object with an 'edges' list")
    vertices = _items(doc.get("vertices", []), "'vertices'")
    edges = []
    circles = []
    for rec in _items(doc["edges"], "'edges'"):
        if not isinstance(rec, dict) or "id" not in rec:
            raise WebError("every edge record needs an 'id'")
        e = rec["id"]
        if rec.get("circle"):
            circles.append(e)
        else:
            ends = rec.get("ends")
            if not isinstance(ends, list) or len(ends) != 2 or any(
                not isinstance(end, list) or len(end) != 2 for end in ends
            ):
                raise WebError(f"edge {e!r}: need 'ends' with 2 [vertex, slot] entries or 'circle': true")
            edges.append((e, tuple(ends[0]), tuple(ends[1])))
    return Web(vertices, edges, circles)


def serialize_web(w: Web) -> str:
    recs = []
    for e in sorted(w.edge_ends, key=str):
        a, b = w.edge_ends[e]
        recs.append({"id": e, "ends": [list(a), list(b)]})
    for c in sorted(w.circles, key=str):
        recs.append({"id": c, "circle": True})
    return json.dumps({"vertices": list(w.vertices), "edges": recs}, default=str)


def _union_find(nodes, pairs) -> dict:
    """Map each of ``nodes`` to the root of its connected component.

    Each pair joins the components of its two nodes (all among ``nodes``);
    the root of the second becomes the root of the union.
    """
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {x: find(x) for x in parent}


def web_component_count(w: Web) -> int:
    """Connected components; vertexless circles count singly."""
    root = _union_find(w.vertices, ((u, v) for (u, _), (v, _) in w.edge_ends.values()))
    return len(set(root.values())) + len(w.circles)


def disjoint_union_webs(a: Web, b: Web, tags=("A", "B")) -> Web:
    """Disjoint union, relabelling everything as ``"<tag>:<label>"``."""
    verts = [f"{t}:{v}" for t, w in zip(tags, (a, b)) for v in w.vertices]
    edges = []
    for t, w in zip(tags, (a, b)):
        for e, ((u, i), (v, j)) in w.edge_ends.items():
            edges.append((f"{t}:{e}", (f"{t}:{u}", i), (f"{t}:{v}", j)))
    circles = [f"{t}:{c}" for t, w in zip(tags, (a, b)) for c in w.circles]
    return Web(verts, edges, circles)


# ---------------------------------------------------------------------------
# diagrams


class Vertex(namedtuple("Vertex", "id arcs")):
    """A trivalent vertex: its id and its 3 arc ids, counterclockwise."""

    __slots__ = ()


class Crossing(namedtuple("Crossing", "id arcs over", defaults=((0, 2),))):
    """A crossing: its id, its 4 arc ids counterclockwise, and the
    positions of the over-strand pair."""

    __slots__ = ()


class Diagram(Frozen):
    """Planar diagram: trivalent vertices, crossings, free circles.

    Darts are numbered node by node: vertex i owns darts 3i..3i+2 and
    crossing j the four darts after all vertex darts and those of the
    crossings before it, each node's in position order.  Construction
    validates on integer tables, which it keeps: ``_labels`` holds each
    dart's arc and ``_partner`` the dart at the other end of that arc.
    ``faces``, built on first use, lists the faces as tuples of darts
    named (node id, position), each from its least dart in node order
    (nodes by ``str(id)``, a total order under the id rule, darts by
    position), in that order.

    Construction tests V - E + F = 2 on each connected component, on
    flat integer lists: one walk labels each node with its component and
    counts the component's nodes and arcs, one walk of the face orbits
    counts its faces, and the components are checked in order of their
    first nodes, the same way whether the diagram passes or not.  A
    refusal names the component by its first node in record order
    (vertices, then crossings).
    Equality compares ``vertices``, ``crossings`` and ``circles``.
    """

    def __init__(self, vertices: tuple = (), crossings: tuple = (), circles: tuple = ()):
        ids = [n.id for n in vertices] + [c.id for c in crossings]
        _check_ids(("node id", ids))
        if len(ids) != len(set(ids)):
            raise WebError("node ids must be distinct")
        for kind, nodes, k in (("vertex", vertices, 3), ("crossing", crossings, 4)):
            for n in nodes:
                if len(n.arcs) != k:
                    raise WebError(f"{kind} {n.id!r} must list {k} arcs")
                if k == 4 and not ((over := tuple(n.over)) in ((0, 2), (1, 3)) and type(over[0]) is type(over[1]) is int):
                    raise WebError(
                        f"crossing {n.id!r}: over-pair {n.over!r} must be opposite positions [0,2] or [1,3], as integers"
                    )
        labels = [a for n in vertices for a in n.arcs]
        n3 = len(labels)
        labels += [a for c in crossings for a in c.arcs]
        _check_ids(("arc", labels), ("circle", circles))
        n = len(labels)
        first: dict = {}  # arc -> its first dart
        partner = [-1] * n
        for d, a in enumerate(labels):
            e = first.setdefault(a, d)
            if e != d:
                partner[d] = e
                partner[e] = d
        if 2 * len(first) != n or -1 in partner:  # then some arc has not 2 darts
            for a, k in Counter(labels).items():
                if k != 2:
                    raise WebError(f"arc {a!r} has {k} endpoints, expected 2 (unmatched darts)")
        if len(circles) != len(set(circles)):
            repeated = [a for a, k in Counter(circles).items() if k > 1]
            raise WebError(f"circle {repeated[0]!r} is listed more than once")
        for a in circles:
            if a in first:
                raise WebError(f"arc {a!r} is both a circle and attached to a node")
        nv = len(vertices)
        owner = [i for i, node in enumerate(chain(vertices, crossings)) for _ in node.arcs]  # dart -> node position
        comp = [None] * len(ids)  # node position -> its component
        tally = []  # per component: its first node, V and E
        for k in range(len(ids)):
            if comp[k] is None:
                c = comp[k] = len(tally)
                stack = [k]
                v = x = 0  # nodes and crossings
                while stack:
                    i = stack.pop()
                    v += 1
                    if i < nv:
                        lo = 3 * i
                        hi = lo + 3
                    else:
                        lo = n3 + 4 * (i - nv)
                        hi = lo + 4
                        x += 1
                    for d in partner[lo:hi]:
                        j = owner[d]
                        if comp[j] is None:
                            comp[j] = c
                            stack.append(j)
                tally.append((k, v, (3 * v + x) // 2))  # 3 darts a vertex, 4 a crossing, 2 an arc
        successor = _face_successor(partner, n3)
        seen = bytearray(n)
        faces = [0] * len(tally)  # per component: F
        for start in range(n):
            if not seen[start]:
                faces[comp[owner[start]]] += 1
                dart = start
                while not seen[dart]:  # the orbit closes at start
                    seen[dart] = 1
                    dart = successor[dart]
        for (k, v, e), f in zip(tally, faces):
            if v - e + f != 2:
                raise WebError(f"non-planar face structure: component of {ids[k]!r} has V-E+F = {v}-{e}+{f} = {v - e + f}")
        self.__dict__.update(vertices=vertices, crossings=crossings, circles=circles, _labels=labels, _partner=partner)

    def _key(self) -> tuple:
        return self.vertices, self.crossings, self.circles

    # -- structure ---------------------------------------------------------

    def crossing(self, cid) -> Crossing:
        """The crossing ``cid``; an id that breaks the id rule names none,
        though it may equal one (True and 1.0 equal 1)."""
        if _is_id(cid):
            for c in self.crossings:
                if c.id == cid:
                    return c
        raise WebError(f"unknown crossing id {cid!r}")

    @property
    def arcs(self) -> list:
        return sorted({*self.circles, *self._labels}, key=str)

    def _dart_faces(self) -> list:
        """The face orbits as lists of integer darts, each traced from its
        least dart in node order (nodes by ``str(id)``, darts by position)."""
        nodes, n3 = (*self.vertices, *self.crossings), 3 * len(self.vertices)
        first = [*range(0, n3, 3), *range(n3, len(self._partner), 4)]  # each node's first dart
        order = sorted(range(len(nodes)), key=lambda i: str(nodes[i].id))
        starts = [x for i in order for x in range(first[i], first[i] + len(nodes[i].arcs))]
        return _face_orbits(_face_successor(self._partner, n3), starts)

    @cached_property
    def faces(self) -> tuple:
        darts = [(n.id, pos) for n in (*self.vertices, *self.crossings) for pos in range(len(n.arcs))]
        return tuple(tuple(map(darts.__getitem__, face)) for face in self._dart_faces())


def _face_successor(partner: list, n3: int) -> list:
    """The face permutation on darts: the partner's next dart
    counterclockwise at its node.  ``n3`` is the number of vertex darts."""
    following = list(range(1, len(partner) + 1))
    following[2:n3:3] = range(0, n3, 3)
    following[n3 + 3 :: 4] = range(n3, len(partner), 4)
    return [following[p] for p in partner]


def _face_orbits(successor: list, starts) -> list:
    """The orbits of ``successor`` as lists of darts, each traced from its
    first dart in ``starts``."""
    seen = bytearray(len(successor))
    faces = []
    for start in starts:
        if not seen[start]:
            face = []
            dart = start
            while not seen[dart]:  # the orbit closes at start
                seen[dart] = 1
                face.append(dart)
                dart = successor[dart]
            faces.append(face)
    return faces


def parse_diagram(text: str | dict) -> Diagram:
    """Parse the JSON diagram format, from its text or from the dict that
    ``load_document`` decoded it to.

    ``{"vertices": [{"id": v, "darts": [3 arcs ccw]}],
       "crossings": [{"id": c, "darts": [4 arcs ccw], "over": [0,2]}],
       "circles": [arc ids]}``

    Arc labels pair the darts: each label occurs exactly twice.  An
    explicit ``"strands": [[d1, d2], ...]`` list may be given instead, in
    which case dart labels are treated as unique endpoint names.  A node
    record without ``darts`` may give its list as ``arcs``.  A document
    with an ``"edges"`` key is a web document and is refused.
    """
    doc = load_document(text, "diagram")
    if "edges" in doc:
        raise WebError("this is a web document (it has 'edges'), not a diagram")
    rename = {}
    if strands := _items(doc.get("strands", []), "'strands'"):
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in strands):
            raise WebError("each strand must pair exactly 2 darts")
        _check_ids(("dart", [x for pair in strands for x in pair]))
        rename = {x: str(min(pair, key=str)) for pair in strands for x in pair}
    new = tuple.__new__  # the namedtuples' own __new__ adds a Python call
    nodes = []
    for kind, key in (("vertex", "vertices"), ("crossing", "crossings")):
        out = []
        for rec in _items(doc.get(key, []), f"'{key}'"):
            if not isinstance(rec, dict) or "id" not in rec:
                raise WebError(f"every {kind} record needs an 'id'")
            i = rec["id"]
            arcs = rec["darts"] if "darts" in rec else rec.get("arcs")
            if type(arcs) is not list:
                if arcs is None:
                    raise WebError(f"{kind} {i!r} needs a 'darts' list")
                raise WebError(f"'darts' of {kind} {i!r} must be a list, not {arcs!r}")
            if rename:
                _check_ids(("dart", arcs))
                arcs = map(rename.get, arcs, arcs)
            arcs = tuple(arcs)
            if kind == "vertex":
                out.append(new(Vertex, (i, arcs)))
            else:
                out.append(new(Crossing, (i, arcs, tuple(_items(rec.get("over", [0, 2]), "'over'")))))
        nodes.append(tuple(out))
    return Diagram(*nodes, tuple(_items(doc.get("circles", []), "'circles'")))


def serialize_diagram(d: Diagram) -> str:
    doc = {
        "vertices": [{"id": n.id, "darts": list(n.arcs)} for n in d.vertices],
        "crossings": [
            {"id": c.id, "darts": list(c.arcs), "over": list(c.over)} for c in d.crossings
        ],
        "circles": list(d.circles),
    }
    return json.dumps(doc, default=str)


# ---------------------------------------------------------------------------
# erasing crossings


def underlying_web(d: Diagram) -> Web:
    """Erase all crossings, concatenating the strands passing through.

    A web edge or circle made of several arcs is labelled by the least of
    their labels (compared as strings).  Edges are walked from the vertex
    darts, then circles from the crossing darts left, in node order (nodes
    by ``str(id)``, a total order under the id rule; darts by position),
    on the diagram's integer dart tables: vertex dart k is position k % 3
    of vertex k // 3.  It caches no table on ``d``.
    """
    partner, labels, vertices, crossings = d._partner, d._labels, d.vertices, d.crossings
    n3 = 3 * len(vertices)
    edges = []  # (edge label, its two (vertex id, slot) ends)
    walked = bytearray(len(labels))  # vertex darts ending an edge, crossing darts passed through
    for i in sorted(range(len(vertices)), key=lambda i: str(vertices[i].id)):
        for start in range(3 * i, 3 * i + 3):
            if walked[start]:
                continue
            arcs = [labels[start]]
            dart = partner[start]
            while dart >= n3:  # go straight through: position p exits at p ^ 2
                out = n3 + ((dart - n3) ^ 2)
                walked[dart] = walked[out] = 1
                arcs.append(labels[out])
                dart = partner[out]
            walked[start] = walked[dart] = 1
            edges.append((str(min(arcs, key=str)), (vertices[i].id, start % 3), (vertices[dart // 3].id, dart % 3)))
    circles = [*d.circles]
    if 0 in walked:  # closed strands running through crossings only
        for j in sorted(range(len(crossings)), key=lambda j: str(crossings[j].id)):
            for start in range(n3 + 4 * j, n3 + 4 * j + 4):
                arcs = []
                dart = start
                while not walked[dart]:
                    out = n3 + ((dart - n3) ^ 2)
                    walked[dart] = walked[out] = 1
                    arcs.append(labels[dart])
                    dart = partner[out]
                if arcs:
                    circles.append(str(min(arcs, key=str)))
    return Web([n.id for n in vertices], edges, circles)  # distinct arcs print apart, so do their labels


# ---------------------------------------------------------------------------
# resolutions

SMOOTH_A = "smooth_a"
SMOOTH_B = "smooth_b"
EDGE_A = "edge_a"
EDGE_B = "edge_b"

RESOLUTIONS = (SMOOTH_A, SMOOTH_B, EDGE_A, EDGE_B)

# crossing positions joined by each smoothing, and grouped alike by the
# matching inserted edge
_PAIRS = {
    SMOOTH_A: ((0, 1), (2, 3)),
    SMOOTH_B: ((1, 2), (3, 0)),
    EDGE_A: ((0, 1), (2, 3)),
    EDGE_B: ((1, 2), (3, 0)),
}


def fresh_namer(d: Diagram):
    """Function ``fresh(base)`` giving the first name ``"<base><k>"``, k =
    0, 1, ..., that is neither an arc label or node id of ``d`` (compared
    as strings) nor given out by an earlier call."""
    used = set(map(str, chain(d._labels, d.circles)))
    used.update(str(n.id) for nodes in (d.vertices, d.crossings) for n in nodes)

    def fresh(base: str) -> str:
        k = 0
        while f"{base}{k}" in used:
            k += 1
        used.add(f"{base}{k}")
        return f"{base}{k}"

    return fresh


def resolved_records(vertices: tuple, crossings: tuple, circles: tuple, j: int, kind: str, fresh, new_ids) -> tuple:
    """The records (vertices, crossings, circles) with ``crossings[j]``
    resolved by ``kind``, on labels alone, since labels pair the darts.

    A smoothing joins the labels at its two position pairs.  A strand that
    closes on itself becomes a ``fresh()`` circle; otherwise, of the
    strand's labels that leave the crossing, the least as a string
    replaces the other on that label's one dart outside the crossing.  An
    inserted edge appends the vertices ``new_ids``: for the kind's pairs
    (p, q), (r, s), the first takes positions p, q in its slots 0, 1, the
    second r, s, and their slots 2 hold the edge.  Each arc with both
    ends at the crossing takes a ``fresh()`` label, in position order p,
    q, r, s, and then the edge.
    """
    arcs = crossings[j].arcs
    crossings = crossings[:j] + crossings[j + 1 :]
    (p, q), (r, s) = _PAIRS[kind]
    a, b, c, e = arcs[p], arcs[q], arcs[r], arcs[s]
    if kind in (EDGE_A, EDGE_B):
        inner = {}  # an arc with both ends here -> its fresh label
        for x in (a, b, c, e):
            if x not in inner and arcs.count(x) == 2:
                inner[x] = fresh()
        if inner:
            a, b, c, e = map(inner.get, (a, b, c, e), (a, b, c, e))
        edge = fresh()
        return (*vertices, Vertex(new_ids[0], (a, b, edge)), Vertex(new_ids[1], (c, e, edge))), crossings, circles
    # the pairs make two strands, or one if an arc runs from pair to pair
    strands = ((a, b), (c, e)) if {a, b}.isdisjoint((c, e)) else (tuple({a, b} ^ {c, e}) or (a, a),)
    rename = {}
    for x, y in strands:
        if x == y:
            circles = (*circles, fresh())
        else:
            keep, drop = sorted((x, y), key=str)
            rename[drop] = keep
    if rename:
        untouched = rename.keys().isdisjoint
        vertices, crossings = (
            tuple([n if untouched(n.arcs) else n._replace(arcs=tuple(map(rename.get, n.arcs, n.arcs))) for n in nodes])
            for nodes in (vertices, crossings)
        )
    return vertices, crossings, circles


def resolve_crossing(d: Diagram, cid, kind: str) -> Diagram:
    """Replace crossing ``cid`` by a smoothing or an inserted-edge web.

    ``smooth_a`` joins the counterclockwise position pairs (0,1), (2,3);
    ``smooth_b`` joins (1,2), (3,0).  ``edge_a``/``edge_b`` insert a new
    edge between two new trivalent vertices grouped like the matching
    smoothing; the new vertices inherit counterclockwise order from the
    plane.

    Labels depend on ``d`` alone.  Nodes and free circles of ``d`` keep
    their ids.  An arc keeps the label of an arc of ``d`` that ended
    where it ends, the least as a string if two did (a smoothing joins
    two arcs into one).  The new vertices take the first unused names
    ``"<cid>.w0"``, ``"<cid>.w1"``, ...; each arc with both ends at the
    crossing, by its first position in the order p, q, r, s of the kind's
    pairs (p, q), (r, s), then the inserted edge, and any circle closed
    by a smoothing take the first unused names ``"s0"``, ``"s1"``, ...
    ``resolved_records`` rewrites the records, and they are validated as
    a new ``Diagram``.  A ``cid`` that breaks the id rule, or names no
    crossing, raises ``WebError``.
    """
    j = d.crossings.index(d.crossing(cid))  # an unknown crossing id raises WebError
    if kind not in RESOLUTIONS:
        raise WebError(f"unknown resolution kind {kind!r}")
    fresh = fresh_namer(d)
    new_ids = fresh(f"{cid}.w"), fresh(f"{cid}.w")  # no "s<k>" name holds ".w", so the order of calls is free
    return Diagram(*resolved_records(d.vertices, d.crossings, d.circles, j, kind, lambda: fresh("s"), new_ids))


def flip_crossing(d: Diagram, cid) -> Diagram:
    """Exchange the over- and under-strands of one crossing."""
    c = d.crossing(cid)
    new_over = (1, 3) if tuple(c.over) == (0, 2) else (0, 2)
    crossings = tuple(Crossing(x.id, x.arcs, new_over) if x.id == cid else x for x in d.crossings)
    return Diagram(d.vertices, crossings, d.circles)


def disjoint_union_diagrams(a: Diagram, b: Diagram, tags=("A", "B")) -> Diagram:
    """Disjoint union of diagrams, relabelling arcs and nodes as ``"<tag>:<label>"``."""
    verts = []
    crossings = []
    circles = []
    for t, d in zip(tags, (a, b)):
        for n in d.vertices:
            verts.append(Vertex(f"{t}:{n.id}", tuple(f"{t}:{x}" for x in n.arcs)))
        for c in d.crossings:
            crossings.append(Crossing(f"{t}:{c.id}", tuple(f"{t}:{x}" for x in c.arcs), c.over))
        circles.extend(f"{t}:{x}" for x in d.circles)
    return Diagram(tuple(verts), tuple(crossings), tuple(circles))
