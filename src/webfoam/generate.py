"""Exhaustive generation of small trivalent webs and random diagrams.

The census holds a connected cubic multigraph on n vertices as a sorted
tuple of ``(u, v)`` pairs, u <= v, on 0..n-1, and grows them from the
theta graph and the dumbbell by two moves that add two vertices: edge
insertion (subdivide two edge slots, possibly of one edge or a loop, and
join the new vertices) and the lollipop (subdivide an edge and hang from
the new vertex a pendant edge ending in a new looped vertex).  Each level
is deduplicated by an exact canonical key, colour refinement then
individualisation, and sorted by it, so ``cubic_multigraphs`` returns
its ``Web``s (vertices 0..n-1, edges ``e0, e1, ...`` in key order) in an
order fixed by n alone.  Planarity is ``Diagram``'s Euler test on the
web's rotation systems.

The diagram generator grows valid planar diagrams from seed webs by kink
insertion, face pokes, and crossing flips; it backs the skein property
suites.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, product

from .webs import Crossing, Diagram, Vertex, Web, WebError, flip_crossing, fresh_namer, web_from_incidences


# ---------------------------------------------------------------------------
# cubic multigraph generation


def _grown(n: int, edges: tuple):
    """Every graph one move from ``edges`` on n vertices, adding vertices n and n + 1."""
    a, b = n, n + 1
    for i, (u, v) in enumerate(edges):
        rest = edges[:i] + edges[i + 1 :]
        yield rest + ((u, a), (a, b), (a, b), (v, b))  # the same slot twice
        yield rest + ((u, a), (v, a), (a, b), (b, b))  # the lollipop
        for j in range(i, len(rest)):
            x, y = rest[j]
            yield rest[:j] + rest[j + 1 :] + ((u, a), (v, a), (x, b), (y, b), (a, b))


def _refine(adj: list, col: list) -> list:
    """Split colour cells by their rows of the multiplicity matrix, as
    (neighbour colour, multiplicity) pairs, until stable.  Colours are the
    ranks of the sorted signatures, which begin with the old colour: the
    result is canonical and keeps the order of the cells it splits."""
    while True:
        sig = [(c, *sorted([(col[w], m) for w, m in a.items()])) for c, a in zip(col, adj)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        if len(rank) == len(set(col)):
            return [rank[s] for s in sig]
        col = [rank[s] for s in sig]


def _canonical(n: int, edges: tuple) -> tuple:
    """The least relabelled sorted edge list over the discrete leaves of
    the individualisation-refinement search: equal exactly for isomorphic
    graphs."""
    adj = [Counter() for _ in range(n)]  # the multiplicity matrix, by rows; a loop counts 2
    for u, v in edges:
        adj[u][v] += 1
        adj[v][u] += 1
    best = None
    stack = [_refine(adj, [0] * n)]
    while stack:
        col = stack.pop()
        cells = Counter(col)
        if len(cells) == n:
            key = tuple(sorted((min(col[u], col[v]), max(col[u], col[v])) for u, v in edges))
            best = key if best is None else min(best, key)
            continue
        target = min((k, c) for c, k in cells.items() if k > 1)[1]
        for v in range(n):
            if col[v] == target:
                stack.append(_refine(adj, [2 * c + (c == target and w != v) for w, c in enumerate(col)]))
    return best


def _census(max_vertices: int):
    """Yield ``(n, keys)`` for n = 2, 4, ..., max_vertices: the sorted
    canonical keys of the connected cubic multigraphs on n vertices."""
    level = [((0, 0), (0, 1), (1, 1)), ((0, 1), (0, 1), (0, 1))]  # dumbbell, theta: their own keys
    for n in range(2, max_vertices + 1, 2):
        level = level if n == 2 else sorted({_canonical(n, h) for g in level for h in _grown(n - 2, g)})
        yield n, level


def _web(n: int, key: tuple) -> Web:
    """Edge i is ``e{i}``; each vertex lists its edges in key order, a loop twice."""
    return web_from_incidences({v: [f"e{i}" for i, ends in enumerate(key) for x in ends if x == v] for v in range(n)})


def cubic_multigraphs(n: int, allow_loops: bool = True) -> list:
    """Non-isomorphic connected cubic multigraphs on n vertices, as webs,
    in canonical key order."""
    if n <= 0 or n % 2:
        return []
    return [_web(n, k) for k in dict(_census(n))[n] if allow_loops or all(u != v for u, v in k)]


def is_planar_multigraph(w: Web) -> bool:
    """Whether ``w`` has a crossing-free diagram: whether one of its
    rotation systems has genus 0 (Heffter-Edmonds), which ``Diagram``'s
    Euler test decides.  Mirroring every rotation keeps the genus, so
    vertex 0 keeps its slot order and each other vertex keeps it or swaps
    slots 1 and 2; a looped vertex has one rotation."""
    slots = [w.slot_edges[v] for v in w.vertices]
    choices = [(s,) if i == 0 or len(set(s)) < 3 else (s, (s[0], s[2], s[1])) for i, s in enumerate(slots)]
    for rotation in product(*choices):
        try:
            Diagram(tuple(map(Vertex, w.vertices, rotation)), (), tuple(w.circles))
        except WebError:
            continue
        return True
    return False


def planar_cubic_webs(max_vertices: int = 8) -> list:
    """Connected planar loop-free trivalent webs with 2..max_vertices
    vertices, by size, then in canonical key order."""
    webs = (_web(n, k) for n, keys in _census(max_vertices) for k in keys if all(u != v for u, v in k))
    return list(filter(is_planar_multigraph, webs))


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
    vertices, crossings, found = _split_arc(d.vertices, d.crossings, arc, (r1, r2))
    if found != 2:
        raise ValueError(f"arc {arc!r} does not have two endpoints")
    crossing = Crossing(cross_id, (k, k, r1, r2), over)
    return Diagram(vertices, crossings + (crossing,), d.circles)


def add_poke(d: Diagram, rng: random.Random, tag: str) -> Diagram | None:
    """Slide one arc across another along a shared face (two new crossings).
    The candidate pairs are the arcs of each face, sorted as strings, which
    is a total order on arc labels."""
    faces = (set(map(d._labels.__getitem__, face)) for face in d._dart_faces())
    candidates = [pair for arcs in faces for pair in combinations(sorted(arcs, key=str), 2)]
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


def _split_arc(vertices: tuple, crossings: tuple, arc, pieces: tuple) -> tuple:
    """The vertices and the crossings with the first and second ends of
    ``arc``, in dart order, relabelled ``pieces[0]`` and ``pieces[1]``,
    and the number of ends found."""
    found = 0
    out = []
    for nodes in (vertices, crossings):
        split = []
        for rec in nodes:
            arcs = list(rec.arcs)
            for i, a in enumerate(arcs):
                if a == arc and found < 2:
                    arcs[i] = pieces[found]
                    found += 1
            split.append(rec._replace(arcs=tuple(arcs)))
        out.append(tuple(split))
    return *out, found


def _poke(d: Diagram, r, s, flip: bool, tag: str) -> Diagram:
    x_id, y_id = f"px{tag}", f"py{tag}"
    fresh = fresh_namer(d)
    r1, rm, r2, s1, sm, s2 = (fresh(f"p{tag}_") for _ in range(6))
    vertices, crossings, found_r = _split_arc(d.vertices, d.crossings, r, (r1, r2))
    vertices, crossings, found_s = _split_arc(vertices, crossings, s, (s1, s2))
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
    return Diagram(vertices, crossings + (x, y), d.circles)


def random_diagram(seed_diagrams, max_crossings: int, rng: random.Random) -> Diagram:
    """Grow a random valid diagram from a random seed."""
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
