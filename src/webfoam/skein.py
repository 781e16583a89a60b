"""Euler-characteristic evaluation of spatial web diagrams.

The graded Euler characteristic of the homology of a semi-framed web is
computed by resolving crossings: a crossing equals a smoothing minus the
inserted-edge web grouped like the *other* smoothing, and a crossing-free
planar diagram evaluates to its Tait coloring count.  The pairing of
smoothings with inserted-edge webs is fixed by calibration on the kinked
unknot, the Hopf link and the trefoil; see ``CALIBRATED_PAIRING``.

The signed sum over the 2^n leaves of that expansion is evaluated as one
state sum over colorings of the diagram's arcs by {0, 1, 2}.  A vertex
weighs 1 if its three arcs have distinct colors (``tait.VERTEX_WEIGHTS``);
a crossing weighs [both smoothing pairs agree] - [its inserted edge can
be colored], the smoothing's strands sharing a color and the inserted
edge taking the color missing from the pair it joins; a free circle is a
factor 3.  By distributivity this equals the signed sum of the leaf Tait
counts.  The sum runs on the kernel behind ``tait.tait_count`` too:
``tait.plan`` orders the diagram's nodes from their arcs alone, and
``tait.contract`` contracts them node by node in that order, each vertex
weighted by the vertex table and each crossing by the relation's
crossing table, so its cost grows with the width of the frontier, not
with 2^n.  The planned steps are memoized on the arc patterns alone
(``tait._step``), so the two relations and ``tait_count`` share them.
The four crossing tables, like the vertex table, are tuples of
``(colors, weight)`` items, so the kernel memoizes their expansion by
value across diagrams (``tait._local_table``, keyed by the table, the
node's shape and open arcs and the tables' color symmetry).  Its value agrees
with the signed Tait count oracle and with expanding crossings by
``webs.resolve_crossing`` down to leaves counted by the
``tait.tait_colorings`` enumeration (asserted in the tests); neither
oracle runs on the kernel.
"""

from __future__ import annotations

from itertools import count, islice, product

from .tait import VERTEX_WEIGHTS, contract, plan, tait_count
from .webs import (
    _PAIRS,
    Crossing,
    Diagram,
    EDGE_A,
    EDGE_B,
    SMOOTH_A,
    SMOOTH_B,
    Vertex,
    Web,
    WebError,
    resolved_records,
    underlying_web,
)

# Relation used by euler_char: crossing = SMOOTH minus EDGE, where the
# inserted-edge web groups the darts like the opposite smoothing.  The
# aligned pairing fails the calibration targets (see the tests).
CALIBRATED_PAIRING = {SMOOTH_A: EDGE_B, SMOOTH_B: EDGE_A}
ALIGNED_PAIRING = {SMOOTH_A: EDGE_A, SMOOTH_B: EDGE_B}


def _crossing_weights(smooth_kind: str, edge_kind: str) -> tuple:
    """Nonzero crossing weights, as (colors at positions 0-3, weight) items."""
    (p, q), (r, s) = _PAIRS[smooth_kind]
    (a, b), (c, d) = _PAIRS[edge_kind]
    table = []
    for col in product(range(3), repeat=4):
        smooth = col[p] == col[q] and col[r] == col[s]
        edge = col[a] != col[b] and {col[a], col[b]} == {col[c], col[d]}
        if smooth != edge:
            table.append((col, 1 if smooth else -1))
    return tuple(table)


_CROSSING_WEIGHTS = {
    (sk, ek): _crossing_weights(sk, ek) for sk in (SMOOTH_A, SMOOTH_B) for ek in (EDGE_A, EDGE_B)
}


def _state_sum(d: Diagram, smooth_kind: str, edge_kind: str) -> int:
    """Signed sum of the leaf Tait counts of the skein expansion of ``d``."""
    tables = [VERTEX_WEIGHTS] * len(d.vertices) + [_CROSSING_WEIGHTS[smooth_kind, edge_kind]] * len(d.crossings)
    return contract(plan([n.arcs for n in d.vertices] + [c.arcs for c in d.crossings]), tables) * 3 ** len(d.circles)


def euler_char(d: Diagram, pairing=CALIBRATED_PAIRING) -> int:
    """Euler characteristic of the homology of the diagrammed web."""
    return _state_sum(d, SMOOTH_A, pairing[SMOOTH_A])


def euler_char_dual(d: Diagram, pairing=CALIBRATED_PAIRING) -> int:
    """Same value computed with the quarter-turn-rotated relation."""
    return _state_sum(d, SMOOTH_B, pairing[SMOOTH_B])


def euler_char_report(d: Diagram) -> dict:
    """Euler characteristic and the number of leaves of its skein expansion, 2^crossings."""
    chi = _state_sum(d, SMOOTH_A, CALIBRATED_PAIRING[SMOOTH_A])
    return {"chi": chi, "expansion_leaves": 2 ** len(d.crossings)}


# ---------------------------------------------------------------------------
# the Tutte relation at a marked planar site


_SITE = ("site",)  # the virtual crossing of a Tutte site; no id is a tuple


def site_modifications(w: Web, e, f) -> dict:
    """The four local modifications at a two-strand site.

    Returns the webs for the two reconnections and the two inserted-edge
    webs, keyed 'recon_a', 'recon_b', 'bar_a', 'bar_b'; bar_x groups the
    strand ends exactly like recon_x.

    The site is one virtual crossing on the node records of ``w``, which
    ``webs.resolved_records`` resolves: the ends of ``e`` sit at its
    positions 0 and 2 and those of ``f`` at 1 and 3, each end's half of
    the edge labelled by its position (a circle is one arc from 0 to 2,
    or 1 to 3).  recon_x is its smoothing ``smooth_x`` and bar_x its
    inserted edge ``edge_x``, on the first two vertices ``"site.w<k>"``
    that print like no vertex of ``w``, so recon_a and bar_a pair the
    first ends of ``e`` and ``f`` and the second ends, and recon_b and
    bar_b pair each end of ``e`` with the other end of ``f``.  Each
    result is read back as a web:
    vertices sorted as strings, edge ``"s<k>"`` the k-th label met in
    slot order (vertices by ``str(id)``, then slots), and the circles
    after the edges.  An id that is not an edge of ``w`` raises
    ``WebError``.
    """
    for x in (e, f):
        if x not in w.edge_ends and x not in w.circles:
            raise WebError(f"invalid site ({e!r}, {f!r}): {x!r} is not an edge of the web")
    if e == f:
        raise WebError("site needs two distinct edges")
    slots = dict(w.slot_edges)  # vertex -> its labels in slot order
    site = [None] * 4
    for x, (p, q) in ((e, (0, 2)), (f, (1, 3))):
        if x in w.circles:
            site[p] = site[q] = (_SITE, p)
            continue
        for (v, i), pos in zip(w.edge_ends[x], (p, q)):
            site[pos] = (_SITE, pos)  # no edge id is a tuple
            slots[v] = (*slots[v][:i], site[pos], *slots[v][i + 1 :])
    vertices = tuple([Vertex(v, slots[v]) for v in w.vertices])
    crossings, circles = (Crossing(_SITE, tuple(site)),), tuple(w.circles - {e, f})
    fresh = zip(count()).__next__  # (0,), (1,), ...: neither an edge id nor a half
    taken = set(map(str, w.vertices))
    new_ids = tuple(islice((x for k in count() if (x := f"site.w{k}") not in taken), 2))
    ids = (*w.vertices, *new_ids)
    order = sorted(range(len(ids)), key=lambda i: str(ids[i]))
    darts = [((v, 0), (v, 1), (v, 2)) for v in ids]
    out = {}
    for key, kind in (("recon_a", SMOOTH_A), ("recon_b", SMOOTH_B), ("bar_a", EDGE_A), ("bar_b", EDGE_B)):
        nodes, _, free = resolved_records(vertices, crossings, circles, 0, kind, fresh, new_ids)
        kept = [i for i in order if i < len(nodes)]  # a smoothing adds no vertex
        ends: dict = {}  # label -> its two (vertex, slot) ends
        for i in kept:
            for x, a in zip(darts[i], nodes[i].arcs):
                ends.setdefault(a, []).append(x)
        edges = [(f"s{k}", *pair) for k, pair in enumerate(ends.values())]
        names = [f"s{k}" for k in range(len(edges), len(edges) + len(free))]
        out[key] = Web([ids[i] for i in kept], edges, names)
    return out


def tutte_check(d: Diagram, site) -> bool:
    """Verify Tait(H) - Tait(I) + Tait(Res1) - Tait(Res0) = 0 at a site.

    ``d`` must have no crossings; ``site`` names two distinct edges of its
    underlying web.
    """
    if d.crossings:
        raise WebError("the Tutte relation site lives on a crossing-free diagram")
    w = underlying_web(d)
    mods = site_modifications(w, *site)
    lhs = tait_count(mods["bar_a"]) + tait_count(mods["recon_a"])
    rhs = tait_count(mods["bar_b"]) + tait_count(mods["recon_b"])
    return lhs == rhs