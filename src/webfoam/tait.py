"""Tait colorings, signed counts, 1-sets, and the planar dimension formula.

A Tait coloring assigns one of three colors to every edge so that all
three colors appear at each vertex.  For a planar web the number of Tait
colorings equals the dimension of the instanton homology, computed
independently here as a sum of powers of two over even 1-sets.  Three
algorithms give the number, and the tests compare them: ``contract``,
the one contraction kernel behind ``tait_count``, ``signed_tait_count``
and ``skein``'s state sum, whose cost follows the width of its frontier,
not the size of the web; matching branching in ``one_sets``, summed by
``planar_lsharp_dim`` over ``one_set_summary``'s union-find count of
each complement's circles; and the enumeration ``tait_colorings``, the
reference oracle: a backtracker with one bitmask of used colors per
vertex, which yields nothing at once on a web with a loop and shares no
code or table with the kernel.  ``signed_tait_web`` and ``signed_tait``
sum over it, as they are the independent check of ``skein.euler_char``.
The kernel's vertex nodes and ``is_one_set`` read ``Web.slot_edges``.

``contract`` numbers the arcs once and plans every step on those
numbers: the node's expanded table, rows keyed by the colors of its open
arcs, and the two projections of a frontier coloring, onto those arcs and
onto the arcs kept.  A step depends only on the node's weight table, its
pattern (per arc position, the arc's frontier position, or the node
position where an arc off the frontier first occurs), the frontier's
width and the call's color symmetry, so ``_step`` resolves it through
an LRU cache.  Behind it, the table depends only on the weight table,
the node's arc-multiplicity shape, which of its arcs are open and the
color symmetry, so ``_local_table`` memoizes it on those four values;
``_picker`` memoizes a projection by its index tuple.  Each cache,
``_symmetry``'s too, holds ``CACHE_ENTRIES`` entries and is keyed by
value, never by identity.  A run over many diagrams builds a few dozen
tables and pickers and a few hundred steps, not one of each per
contraction step.  The weight tables are tuples of ``(colors, weight)``
items so that they can be keys.

The color symmetry: ``VERTEX_WEIGHTS`` and the skein crossing tables are
unchanged by all six permutations of the colors, ``SIGNED_VERTEX_WEIGHTS``
by the three cyclic ones, and ``MATCHING_WEIGHTS`` by none but the
identity; ``_symmetry`` finds them for any table, memoized by value.  A
product of invariant tables is invariant, so at the first node of each
component ``contract`` keeps one coloring per orbit of the permutations
every table of the call admits, weighing the orbit's sum.  The states
fall sixfold there for Tait counts and the skein sum, threefold for
signed counts; the saving fades as the first node's arcs leave the
frontier.  The enumeration oracles and ``one_sets`` do not use it.

Limits, each refused with a ``WebError`` before the work starts: webs
with more than ``MAX_EDGES`` regular edges, by the two recursive
searches ``tait_colorings`` and ``one_sets`` (so by ``planar_lsharp_dim``
too); a contraction whose frontier would be wider than ``MAX_WIDTH``
arcs; and a 1-set list longer than ``MAX_ONE_SETS``.  A contraction that
has built more than ``MAX_STATES`` states is refused at the end of the
step that passes the bound, so its time is bounded too.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import itemgetter

from .webs import Diagram, Web, WebError, _union_find, underlying_web

COLORS = (1, 2, 3)

# tait_colorings recurses once per regular edge, and Python stops at 1000
# frames; 500 leaves room for the caller's frames.  one_sets recurses once
# per matched pair and keeps the same limit; the contraction does not
# recurse and has none.
MAX_EDGES = 500

# Widest frontier ``contract`` accepts.  Every catalogue entry, the census,
# the prisms up to 166 sides and criterion 3's diagrams stay within 8 arcs.
# Width alone does not bound time: a Tait count on an 80-vertex plane web
# of width 15 takes 2-4 s and about 105 MB on a shared 2-vCPU host, while
# the 166-sided prism counts in hundredths of a second, as the time follows
# how many steps stay wide and how dense their states are.
MAX_WIDTH = 16

# Most states ``contract`` builds, summed over its steps and checked after
# each step, which bounds the time: the 96-vertex plane web of width 15
# builds 7.8M states in 6.8 s on a shared 2-vCPU host.  The count does not
# depend on the host, so neither does a refusal.
MAX_STATES = 10**7

# Longest 1-set list ``one_sets`` builds: the 18-sided prism (5,780 sets)
# is listed by ``webfoam tait`` in under a second, the 20-sided one
# (15,129 sets, 2.4 MB of JSON) is refused.
MAX_ONE_SETS = 10_000

# bound of each LRU cache behind ``contract`` (planned steps, expanded node
# tables, frontier projections, table symmetries); one cold pass over the
# timed diagrams of perfbench's ``skein_random`` fills at most 140 of one
CACHE_ENTRIES = 512

_EVEN_PERMS = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
_ALL_PERMS = frozenset(permutations(range(3)))  # permutations of the colors 0, 1, 2, as tuples of images


def vertex_sign(colors_ccw) -> int:
    """+1 iff the colors in counterclockwise order are an even permutation of (1,2,3)."""
    return 1 if tuple(colors_ccw) in _EVEN_PERMS else -1


# weight tables of a vertex in ``contract``, as (colors of its slots, weight)
# items over the colors 0, 1, 2: a Tait vertex weighs 1 on three distinct
# colors; a signed one +1 on an even and -1 on an odd permutation of its
# counterclockwise colors; a matched one 1 when exactly one slot is in the
# matching (color 1)
VERTEX_WEIGHTS = tuple((colors, 1) for colors in permutations(range(3)))
SIGNED_VERTEX_WEIGHTS = tuple((colors, vertex_sign(c + 1 for c in colors)) for colors in permutations(range(3)))
MATCHING_WEIGHTS = tuple((colors, 1) for colors in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _check_size(n_edges: int) -> None:
    if n_edges > MAX_EDGES:
        raise WebError(f"web has {n_edges} regular edges; the Tait searches take at most {MAX_EDGES}")


def tait_colorings(w: Web):
    """Yield all Tait colorings as edge -> color maps.

    Backtracks over the regular edges sorted by ``str``, one level per
    edge, each trying the colors neither end's bitmask of used colors
    holds, then every coloring of the circles; a loop yields none, at once.
    """
    _check_size(len(w.edge_ends))
    regular = sorted(w.edge_ends, key=str)
    names = regular + sorted(w.circles, key=str)
    at = {v: i for i, v in enumerate(w.vertices)}  # vertex -> its position
    ends = [(at[u], at[v]) for (u, _), (v, _) in map(w.edge_ends.__getitem__, regular)]
    if any(a == b for a, b in ends):
        return
    used = [0] * len(at)  # vertex position -> bitmask of the colors its edges took

    def backtrack(i, colors):
        if i == len(regular):
            for free in product(COLORS, repeat=len(names) - i):
                yield dict(zip(names, colors + free))
            return
        a, b = ends[i]
        ua, ub = used[a], used[b]
        for c in COLORS:
            if not (ua | ub) >> c & 1:
                used[a], used[b] = ua | 1 << c, ub | 1 << c
                yield from backtrack(i + 1, colors + (c,))
        used[a], used[b] = ua, ub

    yield from backtrack(0, ())


@lru_cache(maxsize=CACHE_ENTRIES)
def _picker(idx: tuple):
    """Function taking a tuple to the tuple of its entries at ``idx``.

    Both cases run in C.  A run of consecutive indices (one index or none
    included, where ``itemgetter`` would return a bare entry or fail) is a
    slice; anything else is an ``itemgetter`` of two or more indices.
    """
    if idx and idx != tuple(range(idx[0], idx[0] + len(idx))):
        return itemgetter(*idx)
    return itemgetter(slice(idx[0], idx[0] + len(idx)) if idx else slice(0))


@lru_cache(maxsize=CACHE_ENTRIES)
def _symmetry(weights: tuple) -> frozenset:
    """The permutations of the colors 0, 1, 2 that leave ``weights``
    unchanged; entries listing one coloring twice are summed first."""
    table: dict = {}
    for col, w in weights:
        table[col] = table.get(col, 0) + w
    return frozenset(
        perm
        for perm in _ALL_PERMS
        if all(table.get(tuple(map(perm.__getitem__, col)), 0) == w for col, w in table.items())
    )


@lru_cache(maxsize=CACHE_ENTRIES)
def _local_table(weights: tuple, shape: tuple, is_open: tuple, group: frozenset) -> dict:
    """One node's weight table with its open arcs as the row key.

    ``shape`` gives, per position of the node's arcs, the index of its arc
    among the node's distinct arcs (in order of first occurrence), and
    ``is_open`` says per distinct arc whether it is on the frontier.
    Returns colors of the open arcs -> tuple of (colors of the new arcs,
    weight), where the new arcs are the closed ones met once; arcs met
    twice are summed out, and a coloring that gives one arc two colors
    weighs 0.  A node with no open arc starts a component: its one row
    keeps the least image of each coloring under the color permutations
    ``group``, which every table of the call admits, weighing the orbit's
    sum.  The result is shared by every caller and never modified.
    """
    first = list(map(shape.index, range(len(is_open))))  # each distinct arc's first position
    twins = [(i, first[u]) for i, u in enumerate(shape) if first[u] != i]  # a loop's second end, its first
    pick_old = _picker(tuple(first[u] for u, o in enumerate(is_open) if o))
    pick_new = _picker(tuple(first[u] for u, o in enumerate(is_open) if not o and shape.count(u) == 1))
    starts = not any(is_open)
    local: dict = {}
    for col, w in weights:
        if twins and not all(col[i] == col[j] for i, j in twins):
            continue
        row = local.setdefault(pick_old(col), {})
        out = pick_new(col)
        if starts:
            out = min(tuple(map(perm.__getitem__, out)) for perm in group)
        row[out] = row.get(out, 0) + w
    return {key: tuple(row.items()) for key, row in local.items()}


@lru_cache(maxsize=CACHE_ENTRIES)
def _step(weights: tuple, pattern: tuple, width: int, group: frozenset) -> tuple:
    """One step of ``contract``, from its node's arc pattern.

    ``pattern`` holds, per position of the node's arcs, the arc's position
    on the frontier of ``width`` arcs, or ``~i`` for an arc off the
    frontier whose first position in the node is ``i``, so both ends of a
    loop give the same entry.  Returns the node's expanded table, the
    pickers of the open arcs' colors and of the kept arcs' (in frontier
    order), and the node positions of the new arcs, the closed ones met
    once, which follow the kept arcs on the next frontier.
    """
    old, fresh, shape, is_open = [], [], [], []  # shape and is_open as ``_local_table`` takes them
    for i, p in enumerate(pattern):
        if p >= 0:
            shape.append(len(is_open))
            is_open.append(True)
            old.append(p)
        elif p == ~i:  # a closed arc's first end
            shape.append(len(is_open))
            is_open.append(False)
            fresh.append(i)
        else:  # the second end of a loop: summed out
            shape.append(shape[~p])
            fresh.remove(~p)
    kept = [*range(width)]
    for p in old:
        kept.remove(p)
    table = _local_table(weights, tuple(shape), tuple(is_open), group)
    return table, _picker(tuple(old)), _picker(tuple(kept)), tuple(fresh)


def contract(nodes) -> int:
    """Sum over colorings of the arcs of the product of the node weights.

    ``nodes`` is a list of ``(arcs, weights)``.  ``arcs`` is a tuple of
    arc labels, and every label occurs exactly twice among all the nodes
    (twice in one node for a loop).  ``weights`` is a tuple of
    ``(colors, weight)`` items: a tuple of colors 0, 1, 2, one per entry
    of ``arcs``, and an integer; a missing tuple weighs 0, and one listed
    twice the sum of its entries.

    The nodes are contracted one at a time over a dict from colorings of
    the frontier (arcs with one end contracted) to summed weight, zero
    sums skipped, so the cost grows with the width of the frontier,
    not with the number of arcs.  The next node is the one with the most
    open arcs; ties go to the node first in breadth-first order over
    shared arcs, started from the first node of each component, so the
    contraction sweeps outward instead of following the order of the
    list.  The order and every frontier depend on the arcs alone, so they
    are planned before any state is built, on arcs numbered in order of
    first occurrence: lists hold each arc's frontier position and the
    nodes at its ends, and each node's open-arc count.  A step is
    described by its node's pattern (see ``_step``), which resolves its
    table and projections through the caches above.  A frontier wider
    than ``MAX_WIDTH`` arcs (up to 3^width states) is refused with a
    ``WebError`` before any state is built, and a run that has built more
    than ``MAX_STATES`` states, counted once per step, after the step
    that passes the bound.  A color permutation that every weight table
    admits (``_symmetry``) leaves the sum over a component unchanged, so
    the first node of each component keeps one coloring per orbit.  A
    result does not depend on what the process computed before.
    """
    group = _ALL_PERMS  # the color permutations every table is invariant under
    last = None
    number: dict = {}  # arc label -> its number
    ends: list = []  # arc number -> the sum of the positions of the two nodes holding it
    node_arcs = []  # each node's arc numbers
    for i, (arcs, weights) in enumerate(nodes):
        if weights is not last:  # a run of nodes sharing one table probes it once
            last = weights
            group &= _symmetry(weights)
        nums = []
        for a in arcs:
            x = number.setdefault(a, len(ends))
            if x == len(ends):
                ends.append(i)
            else:
                ends[x] += i
            nums.append(x)
        node_arcs.append(nums)
    todo: list = []  # breadth-first order over shared arcs, component by component
    seen = bytearray(len(nodes))
    for root in range(len(nodes)):
        if not seen[root]:
            seen[root] = 1
            queue = [root]
            for i in queue:
                for x in node_arcs[i]:
                    j = ends[x] - i  # the arc's other end
                    if not seen[j]:
                        seen[j] = 1
                        queue.append(j)
            todo += queue
    steps: list = []  # (expanded table, picker of the open arcs' colors, of the kept arcs')
    frontier: list = []  # arcs with exactly one end contracted
    where = [-1] * len(ends)  # arc -> its frontier position, while it is on the frontier
    n_open = [0] * len(nodes)  # open arcs of each node
    width = 0
    while todo:
        k = max(todo, key=n_open.__getitem__)  # first of the ties
        todo.remove(k)
        arcs = node_arcs[k]
        pattern = []
        for x in arcs:
            p = where[x]
            pattern.append(p if p >= 0 else ~arcs.index(x))
        table, pick_old, pick_kept, fresh = _step(nodes[k][1], tuple(pattern), len(frontier), group)
        steps.append((table, pick_old, pick_kept))
        frontier = [*pick_kept(frontier)]
        for i in fresh:
            x = arcs[i]
            frontier.append(x)
            n_open[ends[x] - k] += 1
        for p, x in enumerate(frontier):
            where[x] = p
        if len(frontier) > width:
            width = len(frontier)
    if width > MAX_WIDTH:
        raise WebError(
            f"contraction frontier would reach {width} arcs; the Tait and skein counts take at most {MAX_WIDTH}"
        )
    states = {(): 1}  # frontier coloring -> summed weight
    built = 0
    for local, pick_old, pick_kept in steps:
        nxt: dict = {}
        for state, weight in states.items():
            moves = local.get(pick_old(state))
            if moves and weight:  # a sum that cancelled to 0 is not expanded
                head = pick_kept(state)
                for colors, w in moves:
                    key = head + colors
                    nxt[key] = nxt.get(key, 0) + weight * w
        states = nxt
        built += len(nxt)
        if built > MAX_STATES:
            raise WebError(
                f"contraction built {built} states; the Tait and skein counts build at most {MAX_STATES}"
            )
    return states.get((), 0)


def _vertex_nodes(w: Web, weights: tuple) -> list:
    """One ``contract`` node per vertex of ``w``: its edges in slot order,
    weighted by ``weights``."""
    return [(w.slot_edges[v], weights) for v in w.vertices]


def tait_count(w: Web) -> int:
    """Number of Tait colorings; vertexless circles contribute a factor 3.

    One ``contract`` node per vertex, weighing 1 on three distinct
    colors.  A loop meets its vertex twice in one color, so it weighs 0.
    """
    return contract(_vertex_nodes(w, VERTEX_WEIGHTS)) * 3 ** len(w.circles)


def signed_tait_count(d: Diagram) -> int:
    """Signed Tait count of a diagram by the contraction kernel.

    The value of ``signed_tait``: one ``contract`` node per vertex of the
    underlying web, whose slot order is the diagram's counterclockwise
    order, weighing the sign of the permutation its colors make; a
    factor 3 per circle.  ``signed_tait`` stays on the
    enumeration as the oracle of ``skein.euler_char``.
    """
    w = underlying_web(d)
    return contract(_vertex_nodes(w, SIGNED_VERTEX_WEIGHTS)) * 3 ** len(w.circles)


def signed_tait_web(w: Web, orders: dict) -> int:
    """Signed Tait count for explicit per-vertex ccw edge orders.

    ``orders`` maps each vertex to its counterclockwise triple of edge
    labels; the sign of a coloring, summed over ``tait_colorings``, is
    the product over vertices of the parity of its color triple.
    """
    triples = [orders[v] for v in w.vertices]
    total = 0
    for t in tait_colorings(w):
        sign = 1
        for a, b, c in triples:
            if (t[a], t[b], t[c]) not in _EVEN_PERMS:
                sign = -sign
        total += sign
    return total


def signed_tait(d: Diagram) -> int:
    """Signed Tait count of a diagram, signs from its underlying web's (ccw) slot order."""
    w = underlying_web(d)
    return signed_tait_web(w, w.slot_edges)


def one_sets(w: Web) -> list[frozenset]:
    """All 1-sets (perfect matchings); circle edges appear freely.

    Branches on the first uncovered vertex over its non-loop edges to
    uncovered vertices, so the cost follows the number of matchings.  A
    web with more than ``MAX_EDGES`` regular edges is refused with a
    ``WebError``, and so is one with more than ``MAX_ONE_SETS``, counted
    by ``contract`` first.
    """
    _check_size(len(w.edge_ends))
    count = contract(_vertex_nodes(w, MATCHING_WEIGHTS)) << len(w.circles)
    if count > MAX_ONE_SETS:
        raise WebError(f"web has {count} 1-sets; the 1-set list holds at most {MAX_ONE_SETS}")
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
    """True iff every id in ``s`` is an edge or circle of ``w`` and every
    vertex has exactly one slot on an edge of ``s``."""
    return all(e in w.edge_ends or e in w.circles for e in s) and all(
        sum(e in s for e in edges) == 1 for edges in w.slot_edges.values()
    )


def one_set_summary(w: Web, s) -> tuple[bool, int]:
    """``(even, n)`` for the 1-set ``s``: whether every circle of the
    complementary 2-set has evenly many vertices, and the number of those
    circles.  Every vertex keeps two edges outside ``s``, so each
    component of those edges is one circle; only its vertices are counted."""
    root = _union_find(w.vertices, ((u, v) for e, ((u, _), (v, _)) in w.edge_ends.items() if e not in s))
    sizes = Counter(root.values()).values()
    return all(k % 2 == 0 for k in sizes), len(sizes) + sum(c not in s for c in w.circles)


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
