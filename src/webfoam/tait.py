"""Tait colorings, signed counts, 1-sets, and the planar dimension formula.

A Tait coloring assigns one of three colors to every edge so that all
three colors appear at each vertex.  For a planar web the number of Tait
colorings equals the dimension of the instanton homology, computed
independently here as a sum of powers of two over even 1-sets.  Three
algorithms give the number, and the tests compare them: ``contract``,
the one contraction kernel behind ``tait_count`` and ``skein``'s state
sum, whose cost follows the width of its frontier, not the size of the
web; matching branching in ``one_sets``, summed by
``planar_lsharp_dim``; and the brute-force enumeration
``tait_colorings``, the reference oracle.  ``signed_tait_web`` and
``signed_tait`` sum over the enumeration, not the kernel, as they are
the independent check of ``skein.euler_char``.  Webs with more than
``MAX_EDGES`` regular edges are refused with a ``WebError`` by all four
searches.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from .webs import Diagram, Web, WebError, _union_find, diagram_vertex_orders, underlying_web

COLORS = (1, 2, 3)

# tait_colorings recurses once per regular edge, and Python stops at 1000
# frames; 500 leaves room for the caller's frames.  The contraction does
# not recurse and one_sets recurses once per matched pair, but all four
# searches keep this one limit.
MAX_EDGES = 500

_EVEN_PERMS = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}

# the weight of a Tait vertex in ``contract``: 1 on three distinct colors 0, 1, 2
VERTEX_WEIGHTS = {colors: 1 for colors in permutations(range(3))}


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

    for base in backtrack(0, {}):
        for colors in product(COLORS, repeat=len(circles)):
            yield {**base, **dict(zip(circles, colors))}


def _picker(idx):
    """Function taking a tuple to the tuple of its entries at ``idx``."""
    idx = tuple(idx)
    return lambda t: tuple(t[i] for i in idx)


def contract(nodes) -> int:
    """Sum over colorings of the arcs of the product of the node weights.

    ``nodes`` is a list of ``(arcs, weights)``.  ``arcs`` is a tuple of
    arc labels, and every label occurs exactly twice among all the nodes
    (twice in one node for a loop).  ``weights`` maps a tuple of colors,
    one per entry of ``arcs``, to an integer; a missing tuple weighs 0.

    The nodes are contracted one at a time over a dict from colorings of
    the frontier (arcs with one end contracted) to summed weight, zero
    entries dropped, so the cost grows with the width of the frontier,
    not with the number of arcs.  The next node is the one with the most
    open arcs; ties go to the node first in breadth-first order over
    shared arcs, started from the first node of each component, so the
    contraction sweeps outward instead of following the order of the
    list.
    """
    holders: dict = {}  # arc -> positions of the nodes holding it
    for i, (arcs, _) in enumerate(nodes):
        for a in arcs:
            holders.setdefault(a, []).append(i)
    todo: list = []  # breadth-first order over shared arcs, component by component
    seen: set = set()
    for root in range(len(nodes)):
        if root not in seen:
            seen.add(root)
            queue = [root]
            for i in queue:
                for a in nodes[i][0]:
                    for j in holders[a]:
                        if j not in seen:
                            seen.add(j)
                            queue.append(j)
            todo += queue
    frontier: list = []  # arcs with exactly one end contracted
    states = {(): 1}  # frontier coloring -> summed weight
    while todo and states:
        open_arcs = set(frontier)
        k = max(todo, key=lambda i: len(open_arcs.intersection(nodes[i][0])))  # first of the ties
        todo.remove(k)
        arcs, weights = nodes[k]
        old = [a for a in dict.fromkeys(arcs) if a in open_arcs]
        new = [a for a in dict.fromkeys(arcs) if a not in open_arcs and arcs.count(a) == 1]
        # colors of the old arcs -> {colors of the new arcs: weight}, arcs
        # with both ends here summed out
        local: dict = {}
        for col, w in weights.items():
            color = {}
            if all(color.setdefault(a, x) == x for a, x in zip(arcs, col)):  # one color per arc
                row = local.setdefault(tuple(color[a] for a in old), {})
                out = tuple(color[a] for a in new)
                row[out] = row.get(out, 0) + w
        pick_old = _picker(frontier.index(a) for a in old)
        pick_kept = _picker(i for i, a in enumerate(frontier) if a not in old)
        nxt: dict = {}
        for state, weight in states.items():
            moves = local.get(pick_old(state))
            if moves:
                kept = pick_kept(state)
                for colors, w in moves.items():
                    key = kept + colors
                    nxt[key] = nxt.get(key, 0) + weight * w
        states = {key: w for key, w in nxt.items() if w}
        frontier = [a for a in frontier if a not in old] + new
    return states.get((), 0)


def tait_count(w: Web) -> int:
    """Number of Tait colorings; vertexless circles contribute a factor 3.

    One ``contract`` node per vertex, its edges in slot order, weighing 1
    on three distinct colors.  A loop meets its vertex twice in one
    color, so it weighs 0.
    """
    _check_size(len(w.edge_ends))
    slots = {end: e for e, ends in w.edge_ends.items() for end in ends}
    nodes = [(tuple(slots[v, i] for i in range(3)), VERTEX_WEIGHTS) for v in w.vertices]
    return contract(nodes) * 3 ** len(w.circles)


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
    """All 1-sets (perfect matchings); circle edges appear freely.

    Branches on the first uncovered vertex over its non-loop edges to
    uncovered vertices, so the cost follows the number of matchings.
    """
    _check_size(len(w.edge_ends))
    links: dict = {v: [] for v in w.vertices}  # vertex -> (edge, other end)
    for e, ((u, _), (v, _)) in w.edge_ends.items():
        links[u].append((e, v))
        links[v].append((e, u))
    results = []

    def branch(uncovered: list, chosen: list) -> None:
        if not uncovered:
            results.append(frozenset(chosen))
            return
        v, *rest = uncovered
        for e, u in links[v]:
            if u in rest:  # never for a loop, whose other end is v
                branch([x for x in rest if x != u], chosen + [e])

    branch(list(w.vertices), [])
    circles = sorted(w.circles, key=str)
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


def one_set_summary(w: Web, s) -> tuple[bool, int]:
    """``(even, n)`` for the 1-set ``s``: whether every circle of the
    complementary 2-set has evenly many vertices, and the number of those
    circles."""
    comps = complement_components(w, s)
    return all(len(c["vertices"]) % 2 == 0 for c in comps), len(comps)


def is_even_one_set(w: Web, s) -> bool:
    """True iff every circle of the complementary 2-set has evenly many vertices."""
    if not is_one_set(w, s):
        raise ValueError("the given edge set is not a 1-set")
    return one_set_summary(w, s)[0]


def planar_lsharp_dim(w: Web) -> int:
    """Dimension of the homology of a planar web: sum of 2^{n(s)} over even 1-sets.

    ``n(s)`` counts the circles of the 2-set complementary to ``s``.  The
    caller asserts planarity; no embedding check is performed.
    """
    total = 0
    for s in one_sets(w):
        even, n = one_set_summary(w, s)
        if even:
            total += 2 ** n
    return total
