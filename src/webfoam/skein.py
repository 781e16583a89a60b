"""Euler-characteristic evaluation of spatial web diagrams.

The graded Euler characteristic of the homology of a semi-framed web is
computed by resolving crossings: a crossing equals a smoothing minus the
inserted-edge web grouped like the *other* smoothing, and a crossing-free
planar diagram evaluates to its Tait coloring count.  The pairing of
smoothings with inserted-edge webs is fixed by calibration on the kinked
unknot, the Hopf link and the trefoil; see ``CALIBRATED_PAIRING``.

The expansion steps a ``webs.Splice``, the same resolution engine that
``webs.resolve_crossing`` runs once and turns back into a validated
diagram, and counts each leaf with the Tait counter behind
``tait.tait_count``.  Its value agrees with the signed Tait count oracle
and with expanding one crossing by ``resolve_crossing`` (asserted in the
tests).
"""

from __future__ import annotations

from .tait import _count, tait_count
from .webs import (
    Diagram,
    EDGE_A,
    EDGE_B,
    SMOOTH_A,
    SMOOTH_B,
    Splice,
    Web,
    WebError,
    make_web,
    underlying_web,
)

# Relation used by euler_char: crossing = SMOOTH minus EDGE, where the
# inserted-edge web groups the darts like the opposite smoothing.  The
# aligned pairing fails the calibration targets (see the tests).
CALIBRATED_PAIRING = {SMOOTH_A: EDGE_B, SMOOTH_B: EDGE_A}
ALIGNED_PAIRING = {SMOOTH_A: EDGE_A, SMOOTH_B: EDGE_B}


def _leaf_count(sp: Splice) -> int:
    """Tait count of a crossing-free splice."""
    ends = []
    seen = set()
    for ep, q in sp.links.items():
        if ep not in seen:
            seen.add(q)
            ends.append((ep[0], q[0]))
    return _count(ends) * 3 ** sp.circles


def _expand(d: Diagram, smooth_kind: str, pairing=CALIBRATED_PAIRING) -> tuple[int, int]:
    """Signed sum of the leaf Tait counts, and the number of leaves."""
    edge_kind = pairing[smooth_kind]
    pending = [(Splice.from_diagram(d), +1)]
    total = leaves = 0
    while pending:
        sp, sign = pending.pop()
        if sp.crossings:
            cid = min(sp.crossings, key=str)
            pending.append((sp.smooth(cid, smooth_kind), sign))
            pending.append((sp.insert_edge(cid, edge_kind), -sign))
        else:
            total += sign * _leaf_count(sp)
            leaves += 1
    return total, leaves


def euler_char(d: Diagram, pairing=CALIBRATED_PAIRING) -> int:
    """Euler characteristic of the homology of the diagrammed web."""
    return _expand(d, SMOOTH_A, pairing)[0]


def euler_char_dual(d: Diagram, pairing=CALIBRATED_PAIRING) -> int:
    """Same value computed with the quarter-turn-rotated relation."""
    return _expand(d, SMOOTH_B, pairing)[0]


def euler_char_report(d: Diagram) -> dict:
    chi, leaves = _expand(d, SMOOTH_A)
    return {"chi": chi, "expansion_leaves": leaves}


# ---------------------------------------------------------------------------
# the Tutte relation at a marked planar site


def _cut_edge(w: Web, e):
    """Remove edge ``e``; return the two loose endpoint descriptors.

    For a regular edge these are its (vertex, slot) ends; for a circle,
    two fresh symbolic ends of the cut strand.
    """
    if w.is_circle(e):
        return ("cut", e, 0), ("cut", e, 1)
    return w.edge_ends[e]


def _site_web(w: Web, e, f, joins, bar=None):
    """Rebuild ``w`` with edges e, f replaced per the join instructions.

    ``joins`` pairs the four loose ends.  With ``bar`` set, two new
    trivalent vertices are created instead, each absorbing one pair,
    joined by a fresh edge.
    """
    verts = list(w.vertices)
    edges = [(x, a, b) for x, (a, b) in w.edge_ends.items() if x not in (e, f)]
    circles = [c for c in w.circles if c not in (e, f)]
    counter = 0

    def fresh_edge():
        nonlocal counter
        counter += 1
        return f"site.{counter}"

    if bar is None:
        cut_links = {}
        for a, b in joins:
            cut_links[a] = b
            cut_links[b] = a
        real_ends = [p for pair in joins for p in pair if p[0] != "cut"]
        seen = set()
        for start in real_ends:
            if start in seen:
                continue
            cur = cut_links[start]
            while cur[0] == "cut":
                _, circ, side = cur
                cur = cut_links[("cut", circ, 1 - side)]
            seen.add(start)
            seen.add(cur)
            if start == cur:
                raise WebError("degenerate site")
            edges.append((fresh_edge(), start, cur))
        visited = set(seen)
        for a, b in joins:
            for p in (a, b):
                if p[0] == "cut" and p not in visited:
                    cur = p
                    while cur not in visited:
                        visited.add(cur)
                        visited.add(cut_links[cur])
                        _, circ, side = cut_links[cur]
                        cur = ("cut", circ, 1 - side)
                    circles.append(fresh_edge())
    else:
        w1, w2 = f"{bar}.v1", f"{bar}.v2"
        verts += [w1, w2]
        pend = []
        for vid, (a, b) in zip((w1, w2), joins):
            for slot, p in enumerate((a, b)):
                if p[0] == "cut":
                    pend.append((p[1], p[2], (vid, slot)))
                else:
                    edges.append((fresh_edge(), (vid, slot), p))
        edges.append((bar, (w1, 2), (w2, 2)))
        halves: dict = {}
        for circ, side, slot_end in pend:
            halves.setdefault(circ, {})[side] = slot_end
        for circ, sides in halves.items():
            if len(sides) != 2:
                raise WebError("invalid site on a circle edge")
            edges.append((f"{circ}.arc", sides[0], sides[1]))
    used = set()
    final = []
    for name, a, b in edges:
        while name in used:
            name = f"{name}'"
        used.add(name)
        final.append((name, a, b))
    return make_web(verts, final, circles)


def site_modifications(w: Web, e, f) -> dict:
    """The four local modifications at a two-strand site.

    Returns the webs for the two reconnections and the two inserted-edge
    webs, keyed 'recon_a', 'recon_b', 'bar_a', 'bar_b'; bar_x groups the
    strand ends exactly like recon_x.
    """
    if e == f:
        raise WebError("site needs two distinct edges")
    e0, e1 = _cut_edge(w, e)
    f0, f1 = _cut_edge(w, f)
    ja = [(e0, f0), (e1, f1)]
    jb = [(e0, f1), (e1, f0)]
    return {
        "recon_a": _site_web(w, e, f, ja),
        "recon_b": _site_web(w, e, f, jb),
        "bar_a": _site_web(w, e, f, ja, bar="barA"),
        "bar_b": _site_web(w, e, f, jb, bar="barB"),
    }


def tutte_check(d: Diagram, site) -> bool:
    """Verify Tait(H) - Tait(I) + Tait(Res1) - Tait(Res0) = 0 at a site.

    ``d`` must have no crossings; ``site`` names two distinct edges of its
    underlying web.
    """
    if d.crossings:
        raise WebError("the Tutte relation site lives on a crossing-free diagram")
    w = underlying_web(d)
    e, f = site
    if e not in w.edges or f not in w.edges:
        raise WebError(f"invalid site {site!r}: not edges of the web")
    mods = site_modifications(w, e, f)
    lhs = tait_count(mods["bar_a"]) + tait_count(mods["recon_a"])
    rhs = tait_count(mods["bar_b"]) + tait_count(mods["recon_b"])
    return lhs == rhs