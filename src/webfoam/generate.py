"""Exhaustive generation of small trivalent webs and random diagrams.

Connected cubic multigraphs are grown by edge insertion: subdivide two
(possibly equal, possibly loop) edges and join the two new vertices.
Removing any non-loop edge and smoothing inverts the move, so starting
from the two cubic multigraphs on 2 vertices (the theta graph and the
dumbbell) every connected cubic multigraph is reached.  Planar loop-free
ones become webs for the Tait-theorem harness.

The diagram generator grows valid planar diagrams from seed webs by kink
insertion, face pokes, and crossing flips; it backs the skein property
suites.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

import networkx as nx

from .webs import Crossing, Diagram, Vertex, Web, fresh_namer, web_from_incidences


# ---------------------------------------------------------------------------
# cubic multigraph generation


def _theta_graph() -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_edges_from([(0, 1), (0, 1), (0, 1)])
    return g


def _dumbbell_graph() -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_edges_from([(0, 0), (0, 1), (1, 1)])
    return g


def _insertions(g: nx.MultiGraph):
    """All graphs obtained by subdividing two edge slots and joining."""
    edges = list(g.edges(keys=True))
    n = g.number_of_nodes()
    a, b = n, n + 1
    for i, e in enumerate(edges):
        for f in edges[i:]:
            h = nx.MultiGraph(g)
            if e == f:
                u, v, k = e
                h.remove_edge(u, v, key=k)
                h.add_edge(u, a)
                h.add_edge(a, b)
                h.add_edge(b, v)
                h.add_edge(a, b)
            else:
                (u, v, k1), (x, y, k2) = e, f
                h.remove_edge(u, v, key=k1)
                h.remove_edge(x, y, key=k2)
                h.add_edge(u, a)
                h.add_edge(a, v)
                h.add_edge(x, b)
                h.add_edge(b, y)
                h.add_edge(a, b)
            yield h


def _iso_invariant(g: nx.MultiGraph) -> tuple:
    loops = sorted(sum(1 for u, v in g.edges() if u == v == w) for w in g.nodes)
    mults = sorted(
        g.number_of_edges(u, v) for u, v in {tuple(sorted((x, y))) for x, y in g.edges()}
    )
    simple = nx.Graph(g)
    simple.remove_edges_from(nx.selfloop_edges(simple))
    tri = sorted(nx.triangles(simple).values())
    return (tuple(loops), tuple(mults), tuple(tri))


def _same_graph(a: nx.MultiGraph, b: nx.MultiGraph) -> bool:
    return nx.is_isomorphic(a, b)


def cubic_multigraphs(n: int, allow_loops: bool = True) -> list:
    """Non-isomorphic connected cubic multigraphs on n vertices."""
    if n <= 0 or n % 2:
        return []
    level = [_theta_graph(), _dumbbell_graph()]
    for _ in range((n - 2) // 2):
        buckets: dict = {}
        nxt = []
        for g in level:
            for h in _insertions(g):
                key = _iso_invariant(h)
                bucket = buckets.setdefault(key, [])
                if any(_same_graph(h, other) for other in bucket):
                    continue
                bucket.append(h)
                nxt.append(h)
        level = nxt
    if not allow_loops:
        level = [g for g in level if all(u != v for u, v in g.edges())]
    return level


def is_planar_multigraph(g: nx.MultiGraph) -> bool:
    simple = nx.Graph()
    simple.add_nodes_from(g.nodes)
    for idx, (u, v, _) in enumerate(g.edges(keys=True)):
        m = ("mid", idx)
        simple.add_edge(u, m)
        simple.add_edge(m, v)
    return nx.check_planarity(simple)[0]


def multigraph_to_web(g: nx.MultiGraph) -> Web:
    incidences: dict = {v: [] for v in g.nodes}
    for idx, (u, v, _) in enumerate(g.edges(keys=True)):
        e = f"e{idx}"
        if u == v:
            incidences[u].extend([e, e])  # a loop fills two slots
        else:
            incidences[u].append(e)
            incidences[v].append(e)
    return web_from_incidences(incidences)


def planar_cubic_webs(max_vertices: int = 8, allow_loops: bool = False):
    """Connected planar trivalent webs with 2..max_vertices vertices."""
    out = []
    for n in range(2, max_vertices + 1, 2):
        for g in cubic_multigraphs(n, allow_loops=allow_loops):
            if is_planar_multigraph(g):
                out.append(multigraph_to_web(g))
    return out


# ---------------------------------------------------------------------------
# random diagram generation


def add_kink(d: Diagram, arc, cross_id, rng: random.Random) -> Diagram:
    """Twist a small loop into the given arc (one new crossing)."""
    fresh = fresh_namer(d)
    k, r1, r2 = (fresh(f"k{cross_id}_") for _ in range(3))
    over = rng.choice([(0, 2), (1, 3)])
    if arc in d.circles:
        crossing = Crossing(cross_id, (k, k, r1, r1), over)
        circles = tuple(x for x in d.circles if x != arc)
        return Diagram(d.vertices, d.crossings + (crossing,), circles)
    records = list(d.vertices) + list(d.crossings)
    records, circles, found = _split_arc(records, d.circles, arc, (r1, r2))
    if found != 2:
        raise ValueError(f"arc {arc!r} does not have two endpoints")
    vertices = tuple(rec for rec in records if isinstance(rec, Vertex))
    crossings = tuple(rec for rec in records if isinstance(rec, Crossing))
    crossing = Crossing(cross_id, (k, k, r1, r2), over)
    return Diagram(vertices, crossings + (crossing,), tuple(circles))


def _face_arcs(d: Diagram) -> list[list]:
    return [[d.arc_at[dart] for dart in face] for face in d.faces]


def add_poke(d: Diagram, rng: random.Random, tag: str) -> Diagram | None:
    """Slide one arc across another along a shared face (two new crossings)."""
    candidates = []
    for arcs in _face_arcs(d):
        distinct = sorted(set(arcs), key=str)
        for r, s in combinations_with_replacement(distinct, 2):
            if r != s:
                candidates.append((r, s))
    if not candidates:
        return None
    rng.shuffle(candidates)
    for r, s in candidates[:8]:
        for flip in (False, True):
            try:
                return _poke(d, r, s, flip, tag)
            except ValueError:  # WebError included: the poke is not planar
                continue
    return None


def _split_arc(records, circles, arc, pieces):
    found = 0
    out = []
    for rec in records:
        arcs = list(rec.arcs)
        for i, a in enumerate(arcs):
            if a == arc and found < 2:
                arcs[i] = pieces[0] if found == 0 else pieces[-1]
                found += 1
        if isinstance(rec, Vertex):
            out.append(Vertex(rec.id, tuple(arcs)))
        else:
            out.append(Crossing(rec.id, tuple(arcs), rec.over))
    return out, [c for c in circles if c != arc], found


def _poke(d: Diagram, r, s, flip: bool, tag: str) -> Diagram:
    x_id, y_id = f"px{tag}", f"py{tag}"
    fresh = fresh_namer(d)
    r1, rm, r2, s1, sm, s2 = (fresh(f"p{tag}_") for _ in range(6))
    records = list(d.vertices) + list(d.crossings)
    circles = list(d.circles)
    records, circles, found_r = _split_arc(records, circles, r, (r1, r2))
    records, circles, found_s = _split_arc(records, circles, s, (s1, s2))
    if found_r != 2 or found_s != 2:
        raise ValueError("poke needs two attached arcs")
    over = (0, 2)
    # crossing X: the r-strand runs through positions (0, 2), the s-strand
    # through (1, 3); sm joins the crossings, rm is the poking arc; the
    # flipped variant mirrors both rotations for the opposite face sense
    if not flip:
        x = Crossing(x_id, (rm, sm, r1, s1), over)
        y = Crossing(y_id, (r2, sm, rm, s2), over)
    else:
        x = Crossing(x_id, (rm, s1, r1, sm), over)
        y = Crossing(y_id, (r2, s2, rm, sm), over)
    vertices = tuple(rec for rec in records if isinstance(rec, Vertex))
    crossings = tuple(rec for rec in records if isinstance(rec, Crossing)) + (x, y)
    return Diagram(vertices, crossings, tuple(circles))


def random_diagram(seed_diagrams, max_crossings: int, rng: random.Random) -> Diagram:
    """Grow a random valid diagram from a random seed."""
    from .webs import flip_crossing

    d = rng.choice(seed_diagrams)
    target = rng.randint(0, max_crossings)
    step = 0
    while len(d.crossings) < target and step < 4 * max_crossings:
        step += 1
        if rng.random() < 0.55 or len(d.crossings) >= target - 1:
            arcs = d.arcs
            if not arcs:
                break
            d = add_kink(d, rng.choice(arcs), f"kx{step}", rng)
        else:
            nxt = add_poke(d, rng, f"{step}")
            if nxt is not None and len(nxt.crossings) <= max_crossings:
                d = nxt
    for c in list(d.crossings):
        if rng.random() < 0.5:
            d = flip_crossing(d, c.id)
    return d
