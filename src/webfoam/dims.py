"""Exact-arithmetic moduli dimension formulas and mod-2 grading bookkeeping.

Everything is computed with rationals; half-integers and sixth-integers
are never rounded.  The octahedral diagram's map parities ship as a data
table guarded by the triangle and face consistency checks.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from . import Frozen

Rat = Fraction


class DimensionError(ValueError):
    pass


class BifoldTopology(Frozen):
    """Topological data of a closed 4-dimensional bifold.

    ``sigma_self`` is the foam self-intersection (a half-integer),
    ``chi_sigma`` the foam Euler characteristic, ``t`` the number of
    tetrahedral points.  ``kappa`` is the instanton action; on the
    trifold-atom cylinder it is a multiple of 1/6, but RP^2-based foams
    realize eighths, so any exact rational is accepted here.
    """

    def __init__(
        self, kappa: Rat, b_plus: int = 0, b_1: int = 0, sigma_self: Rat = Fraction(0), chi_sigma: int = 0, t: int = 0
    ):
        kappa, sigma_self = Fraction(kappa), Fraction(sigma_self)
        if (2 * sigma_self).denominator != 1:
            raise DimensionError("the self-intersection must be a half-integer")
        if t < 0:
            raise DimensionError("tetrahedral point count is non-negative")
        self.__dict__.update(kappa=kappa, b_plus=b_plus, b_1=b_1, sigma_self=sigma_self, chi_sigma=chi_sigma, t=t)

    def _key(self) -> tuple:
        return self.kappa, self.b_plus, self.b_1, self.sigma_self, self.chi_sigma, self.t


def formal_dim(b: BifoldTopology) -> Rat:
    """12k - 8(b+ - b1 + 1) + S.S + 2 chi - t."""
    return (
        12 * b.kappa
        - 8 * (b.b_plus - b.b_1 + 1)
        + b.sigma_self
        + 2 * b.chi_sigma
        - b.t
    )


def _mod(x: Rat, n: int) -> Rat:
    return x - n * (x / n).__floor__()


def dim_mod6(b: BifoldTopology) -> Rat:
    """Residue mod 6 of the formal dimension, from topology alone.

    Computes -2(b+ - b1 + 1) + 2(-S.S + chi + t) and checks it against the
    direct formula; disagreement flags an action incompatible with the
    existence of a real-form connection.
    """
    m6 = -2 * (b.b_plus - b.b_1 + 1) + 2 * (-b.sigma_self + b.chi_sigma + b.t)
    d = formal_dim(b)
    if _mod(d - m6, 6) != 0:
        raise DimensionError(
            f"kappa={b.kappa} is inconsistent: dimension {d} differs from the "
            f"mod-6 formula {m6} by {d - m6}, not a multiple of 6"
        )
    return _mod(d, 6)


def dim_parity(b: BifoldTopology) -> int:
    """Formal dimension mod 2, which equals 2 S.S mod 2."""
    return int((2 * b.sigma_self) % 2)


def so3_dim(kappa_r: Rat, b_plus: int = 0, b_1: int = 0, sigma_self=Fraction(0), chi_sigma: int = 0, t: int = 0):
    """Real-form index 8k_r - 3(b+ - b1 + 1) + S.S/2 + chi - t/2, and k = 4 k_r."""
    kappa_r = Fraction(kappa_r)
    sigma_self = Fraction(sigma_self)
    d_r = (
        8 * kappa_r
        - 3 * (b_plus - b_1 + 1)
        + sigma_self / 2
        + chi_sigma
        - Fraction(t, 2)
    )
    return d_r, 4 * kappa_r


def psi_invariants(n: int):
    """Data of the RP^2-based foams with n disks: (S.S, chi, t, constant).

    The dimension of the action-kappa moduli space is 12 kappa plus the
    returned constant, which is -4 + 2n - n^2/2.
    """
    if not 0 <= n <= 3:
        raise DimensionError("the disk count n ranges over 0..3")
    sigma_self = 2 - Fraction(n, 2)
    chi = n + 1
    t = n * (n - 1) // 2
    constant = -4 + 2 * n - Fraction(n * n, 2)
    return sigma_self, chi, t, constant


def closed_foam_dim(kappa: Rat, sigma_self: Rat, chi_sigma: int, t: int) -> Rat:
    """Moduli dimension over the atom cylinder: 12k + S.S + 2 chi - t."""
    return 12 * Fraction(kappa) + Fraction(sigma_self) + 2 * chi_sigma - t


def dot_budget(l: int, sigma_self: Rat, chi_sigma: int, t: int):
    """Action needed to pair l dots against the moduli space.

    Solves 12k + S.S + 2 chi - t = 2l for k and reports whether k is a
    non-negative multiple of 1/6 (otherwise the evaluation vanishes).
    """
    kappa = Fraction(2 * l - Fraction(sigma_self) - 2 * chi_sigma + t, 12)
    feasible = kappa >= 0 and (6 * kappa).denominator == 1
    return kappa, feasible


# ---------------------------------------------------------------------------
# semi-framings


class SemiFraming(Frozen):
    """Per-edge normal-line offsets in half-integers (stored exactly):
    ``offsets`` maps each edge to a Fraction, a multiple of 1/2."""

    def __init__(self, offsets: Mapping):
        clean = {}
        for e, x in offsets.items():
            f = Fraction(x)
            if (2 * f).denominator != 1:
                raise DimensionError(f"offset of edge {e!r} must be a half-integer")
            clean[e] = f
        self.__dict__["offsets"] = clean

    def _key(self) -> tuple:
        return (self.offsets,)


def framing_delta(phi1: SemiFraming, phi2: SemiFraming) -> Rat:
    if set(phi1.offsets) != set(phi2.offsets):
        raise DimensionError("semi-framings must share the same edge set")
    return sum((phi2.offsets[e] - phi1.offsets[e] for e in phi1.offsets), Fraction(0))


def same_parity(phi1: SemiFraming, phi2: SemiFraming) -> bool:
    return framing_delta(phi1, phi2).denominator == 1


def relative_self_intersection(q_values) -> Rat:
    """Q = sum of the per-facet extension obstructions (half-integers)."""
    total = Fraction(0)
    for q in q_values:
        f = Fraction(q)
        if (2 * f).denominator != 1:
            raise DimensionError("facet obstructions are half-integers")
        total += f
    return total


def map_parity(q_values) -> int:
    """Mod-2 degree of a cobordism map: parity of 2Q."""
    return int((2 * relative_self_intersection(q_values)) % 2)


# ---------------------------------------------------------------------------
# the octahedral diagram

# Parities (0 even, 1 odd) of the twelve cobordism maps when all webs
# carry their diagram semi-framings.  Maps among the four planar webs are
# even; the remaining parities are forced by the triangle rule (each exact
# triangle composes to an odd map) and the commuting faces.
OCTAHEDRON_MAP_PARITY = {
    ("K2", "K1"): 0,
    ("K1", "L0"): 0,
    ("L0", "K2"): 1,
    ("K0", "K2"): 0,
    ("K2", "L1"): 1,
    ("L1", "K0"): 0,
    ("K0", "K1"): 0,
    ("K1", "L2"): 1,
    ("L2", "K0"): 0,
    ("L0", "L1"): 0,
    ("L1", "L2"): 0,
    ("L2", "L0"): 1,
}

# Exact triangles as directed 3-cycles.
OCTAHEDRON_TRIANGLES = (
    ("K2", "K1", "L0"),
    ("K0", "K2", "L1"),
    ("K0", "K1", "L2"),
    ("L0", "L1", "L2"),
)

# Commuting faces: the composite of the first two maps equals the third.
OCTAHEDRON_FACES = (
    (("K0", "K2"), ("K2", "K1"), ("K0", "K1")),
    (("L0", "K2"), ("K2", "L1"), ("L0", "L1")),
    (("K1", "L2"), ("L2", "L0"), ("K1", "L0")),
    (("L1", "L2"), ("L2", "K0"), ("L1", "K0")),
)


def octahedron_triangle_parities() -> list[int]:
    """Parity sum of each exact triangle (all odd)."""
    out = []
    for a, b, c in OCTAHEDRON_TRIANGLES:
        total = (
            OCTAHEDRON_MAP_PARITY[(a, b)]
            + OCTAHEDRON_MAP_PARITY[(b, c)]
            + OCTAHEDRON_MAP_PARITY[(c, a)]
        ) % 2
        out.append(total)
    return out


def octahedron_consistent() -> bool:
    """Triangles compose odd; commuting faces have matching parities."""
    if any(p != 1 for p in octahedron_triangle_parities()):
        return False
    for f1, f2, direct in OCTAHEDRON_FACES:
        if (OCTAHEDRON_MAP_PARITY[f1] + OCTAHEDRON_MAP_PARITY[f2]) % 2 != OCTAHEDRON_MAP_PARITY[direct]:
            return False
    return True
