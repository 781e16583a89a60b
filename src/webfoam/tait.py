"""Tait colorings, signed counts, 1-sets, and the planar dimension formula.

A Tait coloring assigns one of three colors to every edge so that all
three colors appear at each vertex.  For a planar web the number of Tait
colorings equals the dimension of the instanton homology, computed
independently here as a sum of powers of two over even 1-sets.
Webs with more than ``MAX_EDGES`` regular edges are refused with a
``WebError``.
"""

from __future__ import annotations

from itertools import combinations

from .webs import Diagram, Web, WebError, _union_find, diagram_vertex_orders, underlying_web

COLORS = (1, 2, 3)

# The colouring and 1-set searches recurse once per regular edge, and
# Python stops at 1000 frames; 500 leaves room for the caller's frames.
MAX_EDGES = 500

_EVEN_PERMS = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}


def _check_size(n_edges: int) -> None:
    if n_edges > MAX_EDGES:
        raise WebError(f"web has {n_edges} regular edges; the Tait searches take at most {MAX_EDGES}")


def tait_colorings(w: Web):
    """Yield all Tait colorings as edge -> color maps.

    Backtracking over edges in sorted order with forward checking.
    Vertexless circles take a free color.
    """
    _check_size(len(w.edge_ends))
    regular = sorted(w.edge_ends, key=str)
    circles = sorted(w.circles, key=str)
    vertex_slots = {v: w.vertex_edges(v) for v in w.vertices}

    def consistent(assign, v) -> bool:
        known = [assign[e] for e in vertex_slots[v] if e in assign]
        return len(set(known)) == len(known)

    def backtrack(i, assign):
        if i == len(regular):
            yield dict(assign)
            return
        e = regular[i]
        (u, _), (v, _) = w.edge_ends[e]
        for c in COLORS:
            assign[e] = c
            if consistent(assign, u) and consistent(assign, v):
                yield from backtrack(i + 1, assign)
        del assign[e]

    def with_circles(base):
        if not circles:
            yield base
            return
        def rec(i, acc):
            if i == len(circles):
                yield dict(acc)
                return
            for c in COLORS:
                acc[circles[i]] = c
                yield from rec(i + 1, acc)
            del acc[circles[i]]
        yield from rec(0, dict(base))

    for base in backtrack(0, {}):
        yield from with_circles(base)


def _count(ends: list) -> int:
    """Tait colorings of the graph whose edges are the vertex pairs ``ends``.

    The one bitmask counter: edges are colored in connectivity order
    (next comes the first edge in ``ends`` meeting an edge already
    colored, else the first left), so the search prunes early.  A loop
    admits no coloring.
    """
    _check_size(len(ends))
    if any(u == v for u, v in ends):
        return 0
    order = []
    remaining = list(ends)
    covered: set = set()
    while remaining:
        pick = 0
        for idx, (u, v) in enumerate(remaining):
            if u in covered or v in covered:
                pick = idx
                break
        edge = remaining.pop(pick)
        order.append(edge)
        covered.update(edge)
    used = dict.fromkeys(covered, 0)
    n = len(order)

    def backtrack(i: int) -> int:
        if i == n:
            return 1
        u, v = order[i]
        free = ~(used[u] | used[v])
        total = 0
        for bit in (1, 2, 4):
            if free & bit:
                used[u] |= bit
                used[v] |= bit
                total += backtrack(i + 1)
                used[u] ^= bit
                used[v] ^= bit
        return total

    return backtrack(0)


def tait_count(w: Web) -> int:
    """Number of Tait colorings; vertexless circles contribute a factor 3."""
    ends = [(w.edge_ends[e][0][0], w.edge_ends[e][1][0]) for e in sorted(w.edge_ends, key=str)]
    return _count(ends) * 3 ** len(w.circles)


def vertex_sign(colors_ccw) -> int:
    """+1 iff the colors in counterclockwise order are an even permutation of (1,2,3)."""
    return 1 if tuple(colors_ccw) in _EVEN_PERMS else -1


def signed_tait_web(w: Web, orders: dict) -> int:
    """Signed Tait count for explicit per-vertex ccw edge orders.

    ``orders`` maps each vertex to its counterclockwise triple of edge
    labels; the sign of a coloring is the product over vertices of the
    parity of its color triple.
    """
    if w.has_loop():
        return 0
    total = 0
    for t in tait_colorings(w):
        sign = 1
        for v in w.vertices:
            sign *= vertex_sign(tuple(t[e] for e in orders[v]))
        total += sign
    return total


def signed_tait(d: Diagram) -> int:
    """Signed Tait count of a diagram, signs from the planar cyclic orders."""
    w = underlying_web(d)
    return signed_tait_web(w, diagram_vertex_orders(d))


def one_sets(w: Web) -> list[frozenset]:
    """All 1-sets (perfect matchings); circle edges appear freely."""
    _check_size(len(w.edge_ends))
    regular = sorted(w.edge_ends, key=str)
    circles = sorted(w.circles, key=str)
    results = []

    def covered(chosen):
        cover = {v: 0 for v in w.vertices}
        for e in chosen:
            for v, _ in w.edge_ends[e]:
                cover[v] += 1
        return cover

    def backtrack(i, chosen):
        cover = covered(chosen)
        if any(c > 1 for c in cover.values()):
            return
        if i == len(regular):
            if all(c == 1 for c in cover.values()):
                results.append(frozenset(chosen))
            return
        backtrack(i + 1, chosen)
        backtrack(i + 1, chosen + [regular[i]])

    backtrack(0, [])
    out = []
    for base in results:
        for k in range(len(circles) + 1):
            for extra in combinations(circles, k):
                out.append(base | frozenset(extra))
    return sorted(out, key=lambda s: sorted(map(str, s)))


def is_one_set(w: Web, s) -> bool:
    cover = {v: 0 for v in w.vertices}
    for e in s:
        if e not in w.circles:
            for v, _ in w.edge_ends[e]:
                cover[v] += 1
    return all(c == 1 for c in cover.values())


def complement_components(w: Web, s) -> list[dict]:
    """Connected components of the 2-set complementary to the 1-set ``s``.

    Each component is reported as {"edges": set, "vertices": set}; every
    component is a circle (each vertex keeps exactly two incidences).
    """
    comp_edges = [e for e in w.edge_ends if e not in s]
    root = _union_find(w.vertices, ((w.edge_ends[e][0][0], w.edge_ends[e][1][0]) for e in comp_edges))
    groups: dict = {}
    for e in comp_edges:
        (u, _), (v, _) = w.edge_ends[e]
        group = groups.setdefault(root[u], {"edges": set(), "vertices": set()})
        group["edges"].add(e)
        group["vertices"].update((u, v))
    out = list(groups.values())
    for c in w.circles:
        if c not in s:
            out.append({"edges": {c}, "vertices": set()})
    return out


def is_even_one_set(w: Web, s) -> bool:
    """True iff every circle of the complementary 2-set has evenly many vertices."""
    if not is_one_set(w, s):
        raise ValueError("the given edge set is not a 1-set")
    return all(len(comp["vertices"]) % 2 == 0 for comp in complement_components(w, s))


def planar_lsharp_dim(w: Web) -> int:
    """Dimension of the homology of a planar web: sum of 2^{n(s)} over even 1-sets.

    ``n(s)`` counts the circles of the 2-set complementary to ``s``.  The
    caller asserts planarity; no embedding check is performed.
    """
    total = 0
    for s in one_sets(w):
        comps = complement_components(w, s)
        if all(len(c["vertices"]) % 2 == 0 for c in comps):
            total += 2 ** len(comps)
    return total
