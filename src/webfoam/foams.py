"""Closed dotted-foam evaluation over the two-element field.

The supported atoms are the dotted 2-sphere, the theta foam, the dotted
suspension of the tetrahedron, closed orientable surfaces, and sums of
projective planes, together with connected-sum decorations and formal
GF(2) combinations of disjoint unions.  Every closed foam evaluated in
the source calculus reduces to these.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product


class FoamError(ValueError):
    pass


# ---------------------------------------------------------------------------
# atom values


def _reduce_dots(l: int) -> int:
    """Apply the cube relation u^3 = u: reduce a dot count into {0, 1, 2}."""
    if l < 0:
        raise FoamError("dot counts are non-negative")
    while l >= 3:
        l -= 2
    return l


def eval_sphere(l: int) -> int:
    """Unknotted 2-sphere with l dots: 0 for l = 0 or l odd, else 1."""
    if l < 0:
        raise FoamError("dot counts are non-negative")
    return 0 if (l == 0 or l % 2 == 1) else 1


def eval_theta(l1: int, l2: int, l3: int) -> int:
    """Theta foam with dots: 1 iff the reduced triple is a permutation of (0,1,2)."""
    reduced = sorted(_reduce_dots(l) for l in (l1, l2, l3))
    return 1 if reduced == [0, 1, 2] else 0


def eval_tet_susp(k1: int, k2: int, k3: int, l1: int, l2: int, l3: int) -> int:
    """Dotted suspension of the tetrahedron: dots on opposite facet pairs add."""
    return eval_theta(k1 + l1, k2 + l2, k3 + l3)


def eval_surface(g: int, dots: int) -> int:
    """Standard closed orientable surface of genus g with dots."""
    if g < 0:
        raise FoamError("genus is non-negative")
    if g == 0:
        return eval_sphere(dots)
    return 1 if dots == 0 else 0


def eval_crosscap(a: int, b: int, dots: int) -> int:
    """Connected sum of a copies of RP^2 (self-int +2) and b copies (-2)."""
    if a < 0 or b < 0 or a + b < 1:
        raise FoamError("need a, b >= 0 with a + b >= 1")
    if b >= 1:
        return 1 if dots == 0 else 0
    return eval_sphere(dots)


# ---------------------------------------------------------------------------
# symbolic expressions


@dataclass(frozen=True)
class Sphere:
    dots: int = 0

    def facets(self):
        return 1

    def add_dots(self, facet: int, k: int) -> "Sphere":
        if facet != 0:
            raise FoamError("the sphere has a single facet")
        return Sphere(self.dots + k)

    def value(self) -> int:
        return eval_sphere(self.dots)


@dataclass(frozen=True)
class Theta:
    dots: tuple = (0, 0, 0)

    def facets(self):
        return 3

    def add_dots(self, facet: int, k: int) -> "Theta":
        if not 0 <= facet < 3:
            raise FoamError("theta facets are 0, 1, 2")
        d = list(self.dots)
        d[facet] += k
        return Theta(tuple(d))

    def value(self) -> int:
        return eval_theta(*self.dots)


@dataclass(frozen=True)
class TetSusp:
    """Suspension of the tetrahedral web; facets 0-2 and 3-5 are opposite pairs."""

    dots: tuple = (0, 0, 0, 0, 0, 0)

    def facets(self):
        return 6

    def add_dots(self, facet: int, k: int) -> "TetSusp":
        if not 0 <= facet < 6:
            raise FoamError("tetrahedron-suspension facets are 0..5")
        d = list(self.dots)
        d[facet] += k
        return TetSusp(tuple(d))

    def value(self) -> int:
        return eval_tet_susp(*self.dots)


@dataclass(frozen=True)
class OrientableSurface:
    genus: int = 1
    dots: int = 0

    def facets(self):
        return 1

    def add_dots(self, facet: int, k: int) -> "OrientableSurface":
        if facet != 0:
            raise FoamError("a closed surface has a single facet")
        return OrientableSurface(self.genus, self.dots + k)

    def value(self) -> int:
        return eval_surface(self.genus, self.dots)


@dataclass(frozen=True)
class CrossCapSurface:
    plus: int = 1
    minus: int = 0
    dots: int = 0

    def facets(self):
        return 1

    def add_dots(self, facet: int, k: int) -> "CrossCapSurface":
        if facet != 0:
            raise FoamError("a closed surface has a single facet")
        return CrossCapSurface(self.plus, self.minus, self.dots + k)

    def value(self) -> int:
        return eval_crosscap(self.plus, self.minus, self.dots)


Atom = object


@dataclass(frozen=True)
class FoamExpr:
    """GF(2)-linear combination of disjoint unions of atoms.

    ``terms`` is a frozenset of tuples of atoms; a tuple denotes the
    disjoint union of its members and set membership is the mod-2
    coefficient.
    """

    terms: frozenset

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
    if facet >= a.facets() or facet < 0:
        raise FoamError(f"atom {a!r} has no facet {facet}")
    if deco == SUM_R_PLUS:
        return FoamExpr.atom(a)
    if deco in (SUM_T2, SUM_R_MINUS):
        return FoamExpr.atom(a.add_dots(facet, 2)) + FoamExpr.atom(a)
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
    gives zero, and k >= 3 first reduces by the cube relation.
    """
    if not isinstance(a, Theta):
        raise FoamError("bubble bursting is implemented for theta foams")
    hosts = [i for i in range(3) if i != bubble_facet]
    if all(a.dots[h] > 0 for h in hosts):
        raise FoamError("bubble bursting needs a dot-free host disk")
    k = _reduce_dots(a.dots[bubble_facet]) if a.dots[bubble_facet] >= 3 else a.dots[bubble_facet]
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
        if head == "sphere":
            return FoamExpr.atom(Sphere(parse_int()))
        if head == "theta":
            return FoamExpr.atom(Theta((parse_int(), parse_int(), parse_int())))
        if head == "tet":
            return FoamExpr.atom(TetSusp(tuple(parse_int() for _ in range(6))))
        if head == "surface":
            return FoamExpr.atom(OrientableSurface(parse_int(), parse_int()))
        if head == "crosscap":
            return FoamExpr.atom(CrossCapSurface(parse_int(), parse_int(), parse_int()))
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
