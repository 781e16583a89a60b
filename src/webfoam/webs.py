"""Combinatorial webs and their planar diagrams.

A *web* is an abstract trivalent graph: it may have loops, parallel
edges, and vertexless circle components.  A *diagram* is a planar
presentation of a spatial web: trivalent vertices and 4-valent crossings,
each carrying a counterclockwise cyclic order of incident arcs, with an
over-strand designation at every crossing.  Strands are encoded PD-style:
every arc label occurs exactly twice among the node slots (or not at all,
for a free circle).

All structures are immutable after construction; every operation returns
a new object.  Validation keeps the tables it builds:
``Web.slot_edges`` (each vertex's edges in slot order), which the other
layers read, and a ``Diagram``'s integer dart tables (the arc at each
dart and the dart involution), which ``underlying_web`` walks.  A
``Diagram`` checks the Euler formula on construction; its tuple-keyed
tables (``arc_ends``, the involution ``partner`` on (node id, position)
darts, the dart -> arc map ``arc_at`` and the sorted ``faces``) are
views built from the integer tables on first use.  One strand-rewrite
engine, ``Splice`` (the involution on node slots, starting from a
diagram's own), serves ``resolve_crossing`` (read back as a diagram) and
the Tutte-site modifications of ``skein`` (read back as webs).
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
    """Abstract trivalent graph with circle components.

    ``edge_ends`` maps a regular edge id to a pair of (vertex, slot)
    endpoints; slots at each vertex are 0, 1, 2.  A loop uses the same
    vertex twice with different slots.  ``circles`` holds the ids of
    vertexless circle edges.  ``slot_edges`` maps each vertex to its
    edges in slot order; validation builds it, in one pass over the ends.
    Equality compares ``vertices``, ``edge_ends`` and ``circles``.
    """

    def __init__(self, vertices: tuple, edge_ends: Mapping, circles: frozenset):
        self.__dict__.update(vertices=vertices, edge_ends=edge_ends, circles=circles)
        table = {v: {} for v in self.vertices}  # vertex -> slot -> edge
        if len(table) != len(self.vertices):
            repeated = [v for v, k in Counter(self.vertices).items() if k > 1]
            raise WebError(f"vertex id {repeated[0]!r} is used more than once")
        for e, ends in self.edge_ends.items():
            if len(ends) != 2:
                raise WebError(f"edge {e!r} must have exactly 2 ends")
            for v, slot in ends:
                at = None if isinstance(v, (list, dict)) else table.get(v)  # JSON lists, objects: no ids
                if at is None:
                    raise WebError(f"edge {e!r} meets unknown vertex {v!r}")
                if slot not in (0, 1, 2):
                    raise WebError(f"edge {e!r} uses slot {slot!r}; vertices are trivalent")
                if slot in at:
                    raise WebError(f"vertex {v!r} slot {slot} used twice")
                at[slot] = e
        for v, at in table.items():
            if len(at) != 3:
                raise WebError(f"vertex {v!r} has degree {len(at)}, not 3")
            table[v] = (at[0], at[1], at[2])
        for c in self.circles:
            if c in self.edge_ends:
                raise WebError(f"edge id {c!r} is both a circle and a regular edge")
        if len(self.vertices) % 2 != 0:
            raise WebError("a trivalent graph has an even number of vertices")
        object.__setattr__(self, "slot_edges", table)

    def _key(self) -> tuple:
        return self.vertices, self.edge_ends, self.circles

    # -- accessors ---------------------------------------------------------

    @property
    def edges(self) -> list:
        return sorted(self.edge_ends, key=str) + sorted(self.circles, key=str)

    def is_circle(self, e) -> bool:
        return e in self.circles

    def vertex_edges(self, v) -> list:
        """Edges at ``v`` in slot order 0, 1, 2 (a loop appears twice)."""
        return list(self.slot_edges[v])

    def is_loop(self, e) -> bool:
        if e in self.circles:
            return False
        (u, _), (v, _) = self.edge_ends[e]
        return u == v

    def has_loop(self) -> bool:
        return any(self.is_loop(e) for e in self.edge_ends)


def make_web(vertices: Iterable, edges: Iterable, circles: Iterable = ()) -> Web:
    """Build a web from (edge_id, (v, slot), (v, slot)) triples.

    A repeated vertex, edge or circle id raises ``WebError``.
    """
    vertices = tuple(vertices)
    edges = list(edges)
    circles = list(circles)
    for what, ids in (("vertex", vertices), ("edge", [e for e, _, _ in edges]), ("circle", circles)):
        repeated = [x for x, k in Counter(ids).items() if k > 1]
        if repeated:
            raise WebError(f"{what} id {repeated[0]!r} is used more than once")
    ends = {e: (tuple(a), tuple(b)) for e, a, b in edges}
    return Web(vertices, ends, frozenset(circles))


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
    return make_web(tuple(vertex_edges), edges, circles)


def _load(text: str, what: str) -> dict:
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


def _ident(x, what: str):
    if isinstance(x, (list, dict)):
        raise WebError(f"{what} {x!r} must be a string or a number")
    return x


def _idents(xs: list, what: str) -> tuple:
    """``xs`` as a tuple of ids.  Lists and dicts, JSON's only unhashable
    values, make the tuple's hash fail; then ``_ident`` names the first."""
    xs = tuple(xs)
    try:
        hash(xs)
    except TypeError:
        for x in xs:
            _ident(x, what)
    return xs


def parse_web(text: str) -> Web:
    """Parse the JSON web format.

    ``{"vertices": [ids], "edges": [{"id": e, "ends": [[v, slot], [v, slot]]}
    | {"id": e, "circle": true}]}``
    """
    doc = _load(text, "web")
    if "edges" not in doc:
        raise WebError("web document must be an object with an 'edges' list")
    vertices = _idents(_items(doc.get("vertices", []), "'vertices'"), "vertex id")
    edges = []
    circles = []
    for rec in _items(doc["edges"], "'edges'"):
        if not isinstance(rec, dict) or "id" not in rec:
            raise WebError("every edge record needs an 'id'")
        e = _ident(rec["id"], "edge id")
        if rec.get("circle"):
            circles.append(e)
        else:
            ends = rec.get("ends")
            if not isinstance(ends, list) or len(ends) != 2 or any(
                not isinstance(end, list) or len(end) != 2 for end in ends
            ):
                raise WebError(f"edge {e!r}: need 'ends' with 2 [vertex, slot] entries or 'circle': true")
            edges.append((e, tuple(ends[0]), tuple(ends[1])))
    return make_web(vertices, edges, circles)


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
    return make_web(verts, edges, circles)


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
    The tuple-keyed tables are views built from them on first use:
    ``arc_ends`` maps each attached arc to its two (node id, position)
    ends, in dart order, ``partner`` each such dart to the other end of
    its arc, ``arc_at`` each dart to its arc, and ``faces`` lists the
    faces as tuples of darts, each from its least dart by ``_dart_key``,
    in that order.

    Construction counts the face orbits, unsorted, and tests V - E + F =
    2c once, c the number of connected components.  The test is exact: a
    connected rotation system has V - E + F = 2 - 2g <= 2, so the total
    is 2c only if every component has genus 0.  Only on failure are the
    components checked one by one, to name the first non-planar one.
    Equality compares ``vertices``, ``crossings`` and ``circles``.
    """

    def __init__(self, vertices: tuple = (), crossings: tuple = (), circles: tuple = ()):
        self.__dict__.update(vertices=vertices, crossings=crossings, circles=circles)
        ids = [n.id for n in vertices] + [c.id for c in crossings]
        if len(ids) != len(set(ids)):
            raise WebError("node ids must be distinct")
        for kind, nodes, k in (("vertex", vertices, 3), ("crossing", crossings, 4)):
            for n in nodes:
                if len(n.arcs) != k:
                    raise WebError(f"{kind} {n.id!r} must list {k} arcs")
                if k == 4 and tuple(n.over) not in ((0, 2), (1, 3)):
                    raise WebError(
                        f"crossing {n.id!r}: over-pair {n.over!r} must be opposite positions [0,2] or [1,3]"
                    )
        labels = [a for n in vertices for a in n.arcs]
        n3 = len(labels)
        labels += [a for c in crossings for a in c.arcs]
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
        self.__dict__.update(_labels=labels, _partner=partner)
        owner = [i for i, node in enumerate(chain(vertices, crossings)) for _ in node.arcs]  # dart -> node position
        firsts = list(first.values())  # arcs in order of their first darts
        seconds = map(partner.__getitem__, firsts)
        joins = [*zip(map(owner.__getitem__, firsts), map(owner.__getitem__, seconds))]  # node positions
        root = _union_find(range(len(ids)), joins)
        faces = _face_orbits(_face_successor(partner, n3), range(n))
        if len(ids) - len(joins) + len(faces) != 2 * len(set(root.values())):
            comp_e = Counter(root[u] for u, _ in joins)
            comp_f = Counter(root[owner[face[0]]] for face in faces)
            for r, v in Counter(root.values()).items():
                e, f = comp_e[r], comp_f[r]
                if v - e + f != 2:
                    raise WebError(
                        f"non-planar face structure: component of {ids[r]!r} has V-E+F = {v}-{e}+{f} = {v - e + f}"
                    )

    def _key(self) -> tuple:
        return self.vertices, self.crossings, self.circles

    # -- structure ---------------------------------------------------------

    def crossing(self, cid) -> Crossing:
        for c in self.crossings:
            if c.id == cid:
                return c
        raise WebError(f"unknown crossing id {cid!r}")

    @property
    def arcs(self) -> list:
        return sorted({*self.circles, *self._labels}, key=str)

    @cached_property
    def _darts(self) -> list:
        """(node id, position) of each dart, in dart order."""
        return [(n.id, pos) for nodes in (self.vertices, self.crossings) for n in nodes for pos in range(len(n.arcs))]

    @cached_property
    def arc_ends(self) -> dict:
        darts, labels = self._darts, self._labels
        return {labels[d]: [darts[d], darts[p]] for d, p in enumerate(self._partner) if d < p}

    @cached_property
    def partner(self) -> dict:
        return {x: y for x, y in self.arc_ends.values() for x, y in ((x, y), (y, x))}

    @cached_property
    def arc_at(self) -> dict:
        return {dart: a for a, ends in self.arc_ends.items() for dart in ends}

    @cached_property
    def faces(self) -> tuple:
        darts, partner = self._darts, self._partner
        # both ends of each arc, arcs by first dart: the order of ``partner``'s
        # keys, which decides ties between ids equal as strings, such as 1 and "1"
        ends = (x for d, p in enumerate(partner) if d < p for x in (d, p))
        starts = sorted(ends, key=lambda x: _dart_key(darts[x]))
        orbits = _face_orbits(_face_successor(partner, 3 * len(self.vertices)), starts)
        return tuple(tuple(map(darts.__getitem__, face)) for face in orbits)


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


def _dart_key(dart) -> tuple:
    return str(dart[0]), dart[1]


def parse_diagram(text: str) -> Diagram:
    """Parse the JSON diagram format.

    ``{"vertices": [{"id": v, "darts": [3 arcs ccw]}],
       "crossings": [{"id": c, "darts": [4 arcs ccw], "over": [0,2]}],
       "circles": [arc ids]}``

    Arc labels pair the darts: each label occurs exactly twice.  An
    explicit ``"strands": [[d1, d2], ...]`` list may be given instead, in
    which case dart labels are treated as unique endpoint names.  A node
    record without ``darts`` may give its list as ``arcs``.
    """
    doc = _load(text, "diagram")
    rename = {}
    for pair in _items(doc.get("strands", []), "'strands'"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise WebError("each strand must pair exactly 2 darts")
        a, b = _idents(pair, "dart")
        label = str(min(a, b, key=str))
        rename[a] = label
        rename[b] = label
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
            arcs = _idents(arcs, "arc")
            if type(i) not in (str, int):
                _ident(i, f"{kind} id")
            if rename:
                arcs = tuple(map(rename.get, arcs, arcs))
            if kind == "vertex":
                out.append(new(Vertex, (i, arcs)))
            else:
                out.append(new(Crossing, (i, arcs, tuple(_items(rec.get("over", [0, 2]), "'over'")))))
        nodes.append(tuple(out))
    return Diagram(*nodes, _idents(_items(doc.get("circles", []), "'circles'"), "circle"))


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
    darts, and circles from the crossing darts, in (str(node id),
    position) order.  The walk reads the diagram's integer dart tables.
    """
    partner, labels = d._partner, d._labels
    n3 = 3 * len(d.vertices)
    ends = [(n.id, pos) for n in d.vertices for pos in range(3)]
    keys = [_dart_key(x) for x in ends]
    keys += [(str(c.id), pos) for c in d.crossings for pos in range(4)]
    edges = []
    walked = bytearray(len(labels))  # vertex darts ending an edge, crossing darts passed through
    for start in sorted(range(n3), key=keys.__getitem__):
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
        edges.append((str(min(arcs, key=str)), ends[start], ends[dart]))
    circles = list(d.circles)
    # closed strands running through crossings only
    for start in sorted(range(n3, len(labels)), key=keys.__getitem__):
        arcs = []
        dart = start
        while not walked[dart]:
            out = n3 + ((dart - n3) ^ 2)
            walked[dart] = walked[out] = 1
            arcs.append(labels[dart])
            dart = partner[out]
        if arcs:
            circles.append(str(min(arcs, key=str)))
    # guard against a merged edge label colliding with a circle label
    names = [e[0] for e in edges] + circles
    if len(names) != len(set(names)):
        edges = [(f"e{idx}:{lbl}", a, b) for idx, (lbl, a, b) in enumerate(edges)]
    return make_web([n.id for n in d.vertices], edges, circles)


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
    used = {str(x) for x in d.arcs}
    used.update(str(n.id) for nodes in (d.vertices, d.crossings) for n in nodes)

    def fresh(base: str) -> str:
        k = 0
        while f"{base}{k}" in used:
            k += 1
        used.add(f"{base}{k}")
        return f"{base}{k}"

    return fresh


class Splice:
    """A diagram or web under local moves: the strand involution on node slots.

    ``links`` pairs each slot (node id, position) with the slot at the
    other end of its arc; ``verts`` and ``crossings`` hold the ids of the
    trivalent and 4-valent nodes, and ``circles`` counts free circles.
    Each step copies ``links`` before changing it and returns a new
    splice, so ``from_diagram`` shares the diagram's ``partner``.
    ``insert_edge`` at crossing ``cid`` adds the vertices ("w", cid, 0)
    and ("w", cid, 1).  It serves
    ``resolve_crossing`` (``to_diagram``) and the Tutte sites of
    ``skein.site_modifications``, a virtual crossing on a web (``to_web``).
    """

    __slots__ = ("links", "verts", "crossings", "circles")

    def __init__(self, links, verts, crossings, circles):
        self.links = links
        self.verts = verts
        self.crossings = crossings
        self.circles = circles

    @staticmethod
    def from_diagram(d: Diagram) -> "Splice":
        verts, crossings = (frozenset(n.id for n in nodes) for nodes in (d.vertices, d.crossings))
        return Splice(d.partner, verts, crossings, len(d.circles))

    def smooth(self, cid, kind: str) -> "Splice":
        out = Splice(dict(self.links), self.verts, self.crossings, self.circles)
        for p, q in _PAIRS[kind]:
            a = out.links.pop((cid, p))
            if a == (cid, q):
                out.links.pop((cid, q), None)
                out.circles += 1
            else:
                b = out.links.pop((cid, q))
                out.links[a] = b
                out.links[b] = a
        out.crossings = self.crossings - {cid}
        return out

    def insert_edge(self, cid, kind: str) -> "Splice":
        out = Splice(dict(self.links), self.verts, self.crossings, self.circles)
        w1, w2 = ("w", cid, 0), ("w", cid, 1)
        rehome = {}
        for vid, (p, q) in zip((w1, w2), _PAIRS[kind]):
            rehome[(cid, p)] = (vid, 0)
            rehome[(cid, q)] = (vid, 1)
        for s, new_s in rehome.items():
            partner = out.links.pop(s)
            if partner in rehome:
                out.links[new_s] = rehome[partner]
            else:
                out.links[new_s] = partner
                out.links[partner] = new_s
        out.links[(w1, 2)] = (w2, 2)
        out.links[(w2, 2)] = (w1, 2)
        out.verts = self.verts | {w1, w2}
        out.crossings = self.crossings - {cid}
        return out

    def to_diagram(self, d: Diagram) -> Diagram:
        """The validated diagram of this splice of ``d``, labelled as
        ``resolve_crossing`` describes."""
        fresh = fresh_namer(d)
        label: dict = {}
        for s, t in self.links.items():
            if s not in label:
                kept = [d.arc_at[x] for x in (s, t) if x in d.arc_at]
                label[s] = label[t] = min(kept, key=str) if kept else fresh("s")
        new = sorted(self.verts.difference(n.id for n in d.vertices), key=lambda v: v[2])
        vertices = [
            Vertex(n.id, tuple(label[(n.id, k)] for k in range(3)))
            for n in d.vertices
            if n.id in self.verts
        ] + [Vertex(fresh(f"{v[1]}.w"), tuple(label[(v, k)] for k in range(3))) for v in new]
        crossings = [
            Crossing(c.id, tuple(label[(c.id, k)] for k in range(4)), c.over)
            for c in d.crossings
            if c.id in self.crossings
        ]
        circles = list(d.circles) + [fresh("s") for _ in range(self.circles - len(d.circles))]
        return Diagram(tuple(vertices), tuple(crossings), tuple(circles))

    def to_web(self) -> Web:
        """The web of a crossing-free splice.  Vertices are sorted as
        strings; edge ``"s<k>"`` joins the k-th unvisited slot, in slot
        order, to its partner, and the circles come after the edges."""
        edges = []
        done = set()
        for s in sorted(self.links, key=_dart_key):
            if s not in done:
                done.update((s, self.links[s]))
                edges.append((f"s{len(edges)}", s, self.links[s]))
        circles = [f"s{k}" for k in range(len(edges), len(edges) + self.circles)]
        return make_web(sorted(self.verts, key=str), edges, circles)


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
    ``"<cid>.w0"``, ``"<cid>.w1"``, ...; the inserted edge, any other arc
    with both ends at the crossing, and any circle closed by a smoothing
    take the first unused names ``"s0"``, ``"s1"``, ...
    """
    d.crossing(cid)  # an unknown crossing id raises WebError
    if kind not in RESOLUTIONS:
        raise WebError(f"unknown resolution kind {kind!r}")
    sp = Splice.from_diagram(d)
    sp = sp.smooth(cid, kind) if kind in (SMOOTH_A, SMOOTH_B) else sp.insert_edge(cid, kind)
    return sp.to_diagram(d)


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


def diagram_vertex_orders(d: Diagram) -> dict:
    """Vertex id -> ccw tuple of web edge labels: the slots of underlying_web."""
    return dict(underlying_web(d).slot_edges)
