"""Closed dotted-foam evaluation over the two-element field.

The supported atoms are the dotted 2-sphere, the theta foam, the dotted
suspension of the tetrahedron, closed orientable surfaces, and sums of
projective planes, together with connected-sum decorations and formal
GF(2) combinations of disjoint unions.  Every closed foam evaluated in
the source calculus reduces to these.

An atom kind is declared once: a named tuple whose last field is
``dots`` (one count, or a tuple with one count per facet), its
``eval_*`` function as ``evaluate``, and its word in ``ATOM_WORDS``.
Facets, dot addition, evaluation and parsing are shared by all kinds.
Dot counts are non-negative on every atom; every ``eval_*`` refuses a
negative one with ``FoamError``.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from . import Frozen


class FoamError(ValueError):
    pass


# ---------------------------------------------------------------------------
# atom values


def _check_dots(*dots: int) -> None:
    """Refuse a negative dot count: the rule every atom's evaluation applies."""
    if min(dots) < 0:
        raise FoamError("dot counts are non-negative")


def _reduce_dots(l: int) -> int:
    """Apply the cube relation u^3 = u: reduce a dot count into {0, 1, 2}."""
    return l if l < 3 else 2 - l % 2


def eval_sphere(l: int) -> int:
    """Unknotted 2-sphere with l dots: 0 for l = 0 or l odd, else 1."""
    _check_dots(l)
    return 0 if (l == 0 or l % 2 == 1) else 1


def eval_theta(l1: int, l2: int, l3: int) -> int:
    """Theta foam with dots: 1 iff the reduced triple is a permutation of (0,1,2)."""
    _check_dots(l1, l2, l3)
    reduced = sorted(_reduce_dots(l) for l in (l1, l2, l3))
    return 1 if reduced == [0, 1, 2] else 0


def eval_tet_susp(k1: int, k2: int, k3: int, l1: int, l2: int, l3: int) -> int:
    """Dotted suspension of the tetrahedron: dots on opposite facet pairs add."""
    _check_dots(k1, k2, k3, l1, l2, l3)
    return eval_theta(k1 + l1, k2 + l2, k3 + l3)


def eval_surface(g: int, dots: int) -> int:
    """Standard closed orientable surface of genus g with dots."""
    if g < 0:
        raise FoamError("genus is non-negative")
    _check_dots(dots)
    if g == 0:
        return eval_sphere(dots)
    return 1 if dots == 0 else 0


def eval_crosscap(a: int, b: int, dots: int) -> int:
    """Connected sum of a copies of RP^2 (self-int +2) and b copies (-2)."""
    if a < 0 or b < 0 or a + b < 1:
        raise FoamError("need a, b >= 0 with a + b >= 1")
    _check_dots(dots)
    if b >= 1:
        return 1 if dots == 0 else 0
    return eval_sphere(dots)


# ---------------------------------------------------------------------------
# symbolic expressions


class _Atom:
    """Base of the atoms, which are named tuples whose last field is
    ``dots``: one count, or a tuple of counts with one facet per entry.
    Each kind names its evaluation function as ``evaluate``.  Atoms of
    different kinds never compare equal, even with equal fields.  An atom
    hashes as the tuple of its fields."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def facets(self) -> int:
        return len(self.dots) if isinstance(self.dots, tuple) else 1

    def add_dots(self, facet: int, k: int) -> "_Atom":
        if not 0 <= facet < self.facets():
            raise FoamError(f"atom {self!r} has no facet {facet}")
        if not isinstance(self.dots, tuple):
            return self._replace(dots=self.dots + k)
        d = list(self.dots)
        d[facet] += k
        return self._replace(dots=tuple(d))

    def value(self) -> int:
        *fields, dots = self
        return self.evaluate(*fields, *(dots if isinstance(dots, tuple) else (dots,)))


class Sphere(_Atom, namedtuple("Sphere", "dots", defaults=(0,))):
    __slots__ = ()
    evaluate = staticmethod(eval_sphere)


class Theta(_Atom, namedtuple("Theta", "dots", defaults=((0, 0, 0),))):
    __slots__ = ()
    evaluate = staticmethod(eval_theta)


class TetSusp(_Atom, namedtuple("TetSusp", "dots", defaults=((0,) * 6,))):
    """Suspension of the tetrahedral web; facets 0-2 and 3-5 are opposite pairs."""

    __slots__ = ()
    evaluate = staticmethod(eval_tet_susp)


class OrientableSurface(_Atom, namedtuple("OrientableSurface", "genus dots", defaults=(1, 0))):
    __slots__ = ()
    evaluate = staticmethod(eval_surface)


class CrossCapSurface(_Atom, namedtuple("CrossCapSurface", "plus minus dots", defaults=(1, 0, 0))):
    __slots__ = ()
    evaluate = staticmethod(eval_crosscap)


Atom = _Atom


class FoamExpr(Frozen):
    """GF(2)-linear combination of disjoint unions of atoms.

    ``terms`` is a frozenset of tuples of atoms; a tuple denotes the
    disjoint union of its members and set membership is the mod-2
    coefficient.
    """

    def __init__(self, terms: frozenset):
        self.__dict__["terms"] = terms

    def _key(self) -> tuple:
        return (self.terms,)

    @staticmethod
    def atom(a) -> "FoamExpr":
        return FoamExpr(frozenset({(a,)}))

    @staticmethod
    def zero() -> "FoamExpr":
        return FoamExpr(frozenset())

    @staticmethod
    def one() -> "FoamExpr":
        return FoamExpr(frozenset({()}))

    def __add__(self, other: "FoamExpr") -> "FoamExpr":
        return FoamExpr(self.terms ^ other.terms)

    def __mul__(self, other: "FoamExpr") -> "FoamExpr":
        pairs = len(self.terms) * len(other.terms)
        if pairs > MAX_TERMS:  # refused before any term is built
            raise FoamError(f"a union would pair {pairs} terms, more than MAX_TERMS = {MAX_TERMS}")
        out = set()
        for s in self.terms:
            for t in other.terms:
                u = tuple(sorted(s + t, key=repr))
                if u in out:
                    out.discard(u)
                else:
                    out.add(u)
        return FoamExpr(frozenset(out))

    def value(self) -> int:
        total = 0
        for term in self.terms:
            v = 1
            for a in term:
                v &= a.value()
            total ^= v
        return total


SUM_T2 = "sum_t2"
SUM_R_PLUS = "sum_r_plus"
SUM_R_MINUS = "sum_r_minus"


def apply_sum(a: Atom, deco: str, facet: int = 0) -> FoamExpr:
    """Rewrite a connected-sum decoration on one atom facet.

    A torus summand becomes (two extra dots) + (no change); an RP^2 of
    self-intersection +2 is transparent; one of self-intersection -2
    behaves like the torus.
    """
    dotted = a.add_dots(facet, 2)
    if deco == SUM_R_PLUS:
        return FoamExpr.atom(a)
    if deco in (SUM_T2, SUM_R_MINUS):
        return FoamExpr.atom(dotted) + FoamExpr.atom(a)
    raise FoamError(f"unknown decoration {deco!r}")


NECK_TERMS = ((0, 0), (0, 2), (1, 1), (2, 0))


def neck_cut(a: Atom, site: str, facet: int = 0) -> FoamExpr:
    """Surger a compressible neck; the result is the four-term dotted sum.

    Supported sites: ``"handle"`` on an orientable surface of positive
    genus (an essential disk of one handle), ``"equator"`` on a sphere
    (all existing dots kept on the first piece), and ``"facet"`` on a
    theta foam (a circle in the given facet parallel to the seam; the
    facet's dots go to the cut-off sphere, the other facets' dots stay
    on the small theta piece).
    """
    out = FoamExpr.zero()
    if site == "handle":
        if not isinstance(a, OrientableSurface) or a.genus < 1:
            raise FoamError("handle sites need an orientable surface of genus >= 1")
        for k1, k2 in NECK_TERMS:
            smaller = (
                Sphere(a.dots + k1 + k2)
                if a.genus == 1
                else OrientableSurface(a.genus - 1, a.dots + k1 + k2)
            )
            out = out + FoamExpr.atom(smaller)
        return out
    if site == "equator":
        if not isinstance(a, Sphere):
            raise FoamError("equator sites need a sphere")
        for k1, k2 in NECK_TERMS:
            out = out + FoamExpr.atom(Sphere(a.dots + k1)) * FoamExpr.atom(Sphere(k2))
        return out
    if site == "facet":
        if not isinstance(a, Theta):
            raise FoamError("facet sites need a theta foam")
        if not 0 <= facet < 3:
            raise FoamError("theta facets are 0, 1, 2")
        others = [i for i in range(3) if i != facet]
        for k1, k2 in NECK_TERMS:
            inner = [0, 0, 0]
            inner[others[0]] = a.dots[others[0]]
            inner[others[1]] = a.dots[others[1]]
            inner[facet] = k1
            out = out + FoamExpr.atom(Theta(tuple(inner))) * FoamExpr.atom(
                Sphere(a.dots[facet] + k2)
            )
        return out
    raise FoamError(f"unsupported neck site {site!r}")


def burst_bubble(a: Atom, bubble_facet: int = 0) -> FoamExpr:
    """Burst an innermost bubble facet of a theta foam.

    The bubble disk and a half of the host sphere bound a ball; the two
    host facets merge into one sphere.  One of the host facets must be
    dot-free (the bounding disk carries no dots).  With k dots on the
    bubble the result is the host sphere with k - 1 extra dots; k = 0
    gives zero, and k >= 3 first reduces by the cube relation.  Negative
    dot counts are refused, as by every atom's evaluation.
    """
    if not isinstance(a, Theta):
        raise FoamError("bubble bursting is implemented for theta foams")
    if not 0 <= bubble_facet < 3:
        raise FoamError("theta facets are 0, 1, 2")
    _check_dots(*a.dots)
    hosts = [i for i in range(3) if i != bubble_facet]
    if all(a.dots[h] > 0 for h in hosts):
        raise FoamError("bubble bursting needs a dot-free host disk")
    k = _reduce_dots(a.dots[bubble_facet])
    if k == 0:
        return FoamExpr.zero()
    host_dots = a.dots[hosts[0]] + a.dots[hosts[1]]
    return FoamExpr.atom(Sphere(host_dots + k - 1))


def unknot_pairing_matrix() -> list[list[int]]:
    """Pairing of dotted disks against dotted opposite disks: sphere values."""
    return [[eval_sphere(l + lp) for lp in range(3)] for l in range(3)]


def theta_closure_oracle(max_dots: int = 8) -> dict:
    """Independent recomputation of the theta-foam table by relation closure.

    Seeds: evaluations with total dot count three (flag-manifold values)
    and zero below three dots.  Relations: the cube relation in each slot
    and dot migration (the three single-dot additions at the seam sum to
    zero).  The resulting GF(2) linear system is solved exactly; a raise
    means the grid up to ``max_dots`` per facet is underdetermined.
    """
    from . import gf2

    limit = max_dots + 2
    triples = list(product(range(limit + 1), repeat=3))
    index = {t: i for i, t in enumerate(triples)}
    nvars = len(triples)
    rows = []

    def equation(vars_, rhs):
        row = rhs << nvars
        for v in vars_:
            row ^= 1 << index[v]
        rows.append(row)

    for t in triples:
        s = sum(t)
        if s < 3:
            equation([t], 0)  # no moduli contribution below three dots
        elif s == 3:
            equation([t], 1 if sorted(t) == [0, 1, 2] else 0)
        for i in range(3):
            if t[i] >= 3:
                u = list(t)
                u[i] -= 2
                equation([t, tuple(u)], 0)
        if all(x + 1 <= limit for x in t):
            trip = []
            for i in range(3):
                u = list(t)
                u[i] += 1
                trip.append(tuple(u))
            equation(trip, 0)

    red, pivots = gf2.rref(gf2.Mat(len(rows), nvars + 1, tuple(rows)))
    if nvars in pivots:
        raise FoamError("the relation set is inconsistent")
    pivot_row = {c: r for r, c in enumerate(pivots)}
    values: dict = {}
    for t in product(range(max_dots + 1), repeat=3):
        c = index[t]
        if c not in pivot_row:
            raise FoamError(f"relation closure failed to determine {t}")
        row = red.rows[pivot_row[c]]
        if row & ((1 << nvars) - 1) != 1 << c:
            raise FoamError(f"relation closure failed to determine {t}")
        values[t] = row >> nvars
    return values


def sphere_closure_oracle(max_dots: int = 12) -> dict:
    """Sphere table from the cube relation and the three smallest values."""
    known = {0: 0, 1: 0, 2: 1}
    for l in range(3, max_dots + 1):
        known[l] = known[l - 2]
    return known


# ---------------------------------------------------------------------------
# prefix mini-language

MAX_NESTING = 200
MAX_TERMS = 4096  # term pairs one disjoint union may multiply out
# atom words; each field reads one integer, or one per entry of a tuple default
ATOM_WORDS = {
    "sphere": Sphere,
    "theta": Theta,
    "tet": TetSusp,
    "surface": OrientableSurface,
    "crosscap": CrossCapSurface,
}


def parse_expr(text: str) -> FoamExpr:
    """Parse the prefix mini-language for foam expressions.

    Examples: ``theta 0 1 2``, ``sphere 4``, ``(sum-t2 (sphere 0))``,
    ``(plus (sphere 2) (union (sphere 2) (theta 0 1 2)))``,
    ``surface 2 0``, ``crosscap 1 1 0``, ``(sum-r+ (theta 0 1 2) 1)``.

    Expressions nest at most ``MAX_NESTING`` (200) levels deep, each
    opening parenthesis and each constructor counting as one level;
    deeper ones raise ``FoamError``.  A ``union`` is multiplied out, and
    one whose product would pair more than ``MAX_TERMS`` (4096) terms
    raises ``FoamError`` too.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise FoamError("empty expression")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        if tok is None:
            raise FoamError("unexpected end of expression")
        pos += 1
        return tok

    def parse_int():
        tok = take()
        try:
            return int(tok)
        except ValueError as exc:
            raise FoamError(f"expected an integer, got {tok!r}") from exc

    def parse_node(depth: int = 1) -> FoamExpr:
        if depth > MAX_NESTING:
            raise FoamError(f"expression nests more than {MAX_NESTING} levels deep")
        tok = take()
        if tok == "(":
            inner = parse_node(depth + 1)
            if take() != ")":
                raise FoamError("expected ')'")
            return inner
        head = tok
        if head in ATOM_WORDS:
            kind = ATOM_WORDS[head]
            return FoamExpr.atom(kind(*(
                tuple(parse_int() for _ in default) if isinstance(default, tuple) else parse_int()
                for default in kind._field_defaults.values()
            )))
        if head in ("sum-t2", "sum-r+", "sum-r-"):
            deco = {"sum-t2": SUM_T2, "sum-r+": SUM_R_PLUS, "sum-r-": SUM_R_MINUS}[head]
            inner = parse_node(depth + 1)
            facet = 0
            if peek() not in (None, ")"):
                facet = parse_int()
            out = FoamExpr.zero()
            for term in inner.terms:
                if len(term) != 1:
                    raise FoamError("connected-sum decorations apply to single atoms")
                out = out + apply_sum(term[0], deco, facet)
            return out
        if head in ("plus", "+"):
            out = FoamExpr.zero()
            while peek() not in (None, ")"):
                out = out + parse_node(depth + 1)
            return out
        if head in ("union", "*"):
            out = FoamExpr.one()
            while peek() not in (None, ")"):
                out = out * parse_node(depth + 1)
            return out
        raise FoamError(f"unknown foam constructor {head!r}")

    expr = parse_node()
    if pos != len(tokens):
        raise FoamError(f"trailing tokens: {' '.join(tokens[pos:])}")
    return expr
