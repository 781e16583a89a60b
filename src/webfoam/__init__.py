"""Calculators for trivalent webs, closed foams, and their GF(2) invariants.

Subpackages cover: web/diagram combinatorics (``webs``), Tait coloring
counts and the planar dimension formula (``tait``), Euler-characteristic
skein evaluation (``skein``), closed dotted-foam values (``foams``),
explicit edge-operator modules (``modules``), moduli dimension and
grading formulas (``dims``), and the equivariant ADHM verification
(``adhm``).
"""

__version__ = "0.1.0"


class Frozen:
    """Base of the records that validate, or derive fields, on construction.

    A subclass's ``__init__`` sets its fields in its ``__dict__``, and
    ``_key`` returns the fields that count.  Two records are equal when
    they are of one class with equal keys.  A record hashes as its key,
    each dict in it as the set of its items, so equal records hash alike
    whatever the order their dicts were filled in; it refuses assignment.
    The standard library's frozen-record decorator would write these
    methods, but importing it loads ``inspect`` (and ``ast``, ``dis``,
    ``tokenize``), 7-11 ms of every command's start-up.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(tuple(frozenset(x.items()) if isinstance(x, dict) else x for x in self._key()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


__all__ = [
    "adhm",
    "catalogue",
    "dims",
    "foams",
    "generate",
    "gf2",
    "modules",
    "skein",
    "tait",
    "webs",
]
