"""Generalized Pauli symbols and Bell-state sets at the exponent level.

A symbol (m, n) stands for the shift-and-clock unitary X^m Z^n on C^d with
its overall phase dropped, so the product rule is plain addition mod d.  A
GBS set is an ordered, duplicate-free collection of symbols over a single
modulus; it labels the family of maximally entangled states obtained by
acting with the symbols on one half of the standard maximally entangled
state.  Everything here is exact integer work; the operators' action on
vectors lives in the numerics module.  The set-literal wire format
'm,n;m,n' and the one-literal-per-line file format are parsed and written
here only.

Two symbols commute exactly when n*x - m*y = 0 (mod d), and for prime d the
nonzero symbols organize into d + 1 lines through the origin indexed by the
projective slope m^{-1} n (INF on the clock axis m = 0).
"""

from functools import lru_cache
from itertools import combinations, permutations
from operator import index
from pathlib import Path

from .modring import is_prime

__all__ = [
    "INF",
    "Gpm",
    "GbsSet",
    "SetFormatError",
    "parse_gbs_set",
    "format_gbs_set",
    "load_set_rows",
    "commutes",
    "weyl_exponent",
    "all_gpms",
    "difference_set",
    "is_commutative",
    "slope",
    "index_set",
]

INF = float("inf")

Gpm = tuple[int, int]


class SetFormatError(ValueError):
    """A GBS set literal or element collection violates the wire format."""


def weyl_exponent(a: Gpm, b: Gpm, d: int) -> int:
    """Exponent e with U_a U_b = omega^e U_b U_a, namely a.n*b.m - a.m*b.n mod d."""
    return (a[1] * b[0] - a[0] * b[1]) % d


def commutes(a: Gpm, b: Gpm, d: int) -> bool:
    return (a[1] * b[0] - a[0] * b[1]) % d == 0


@lru_cache(maxsize=256)
def all_gpms(d: int) -> frozenset[Gpm]:
    """All d^2 symbols over Z_d."""
    return frozenset((m, n) for m in range(d) for n in range(d))


class GbsSet:
    """Ordered, duplicate-free set of symbols over one modulus.

    Input order is preserved for reporting; comparisons that care about set
    identity should go through the canonical sorted form (see equivalence).
    An immutable value: equal and hashed by (d, elements).
    """

    __slots__ = ("d", "elements")

    def __init__(self, d: int, elements: tuple[Gpm, ...]):
        # operator.index takes every integer type and refuses the floats
        # and strings that int() would truncate or parse.
        try:
            modulus = index(d)
            elems = tuple((index(m), index(n)) for m, n in elements)
        except TypeError:
            raise SetFormatError("modulus and coordinates must be integers in "
                                 f"GbsSet(d={d!r}, elements={elements!r})") from None
        if modulus < 2:
            raise SetFormatError(f"modulus must be >= 2, got {modulus}")
        if not elems:
            raise SetFormatError("a GBS set needs at least one element")
        seen = set()
        for m, n in elems:
            if not (0 <= m < modulus and 0 <= n < modulus):
                raise SetFormatError(
                    f"coordinate out of range in ({m},{n}): must lie in [0, {modulus})"
                )
            if (m, n) in seen:
                raise SetFormatError(f"duplicate element ({m},{n})")
            seen.add((m, n))
        # The one write of each slot; __setattr__ refuses every other.
        object.__setattr__(self, "d", modulus)
        object.__setattr__(self, "elements", elems)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"GbsSet(d={self.d!r}, elements={self.elements!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.d, self.elements) == (other.d, other.elements)

    def __hash__(self):
        return hash((self.d, self.elements))

    def __reduce__(self):
        return GbsSet, (self.d, self.elements)

    @classmethod
    def parse(cls, text: str, d: int) -> "GbsSet":
        return parse_gbs_set(text, d)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def parse_gbs_set(text: str, d: int) -> GbsSet:
    """Parse a set literal like '0,0;0,1;1,0;1,2'.

    Raises SetFormatError with a distinct message for a malformed token, an
    out-of-range coordinate, or a duplicate element.
    """
    elements = []
    for token in text.strip().split(";"):
        parts = token.strip().split(",")
        if len(parts) != 2:
            raise SetFormatError(
                f"malformed element {token.strip()!r}: expected 'm,n'"
            )
        m, n = parts[0].strip(), parts[1].strip()
        try:
            # A coordinate is an optional sign and ASCII digits.  int() also
            # takes '1_0' and non-ASCII digits such as '\u0663'; on ASCII
            # text without '_' it takes exactly the coordinates.
            if "_" in token or not (m.isascii() and n.isascii()):
                raise ValueError
            pair = (int(m), int(n))
        except ValueError:
            raise SetFormatError(
                f"malformed element {token.strip()!r}: coordinates must be integers"
            ) from None
        elements.append(pair)
    return GbsSet(d, tuple(elements))


def format_gbs_set(elements) -> str:
    """Wire form of (m, n) pairs: elements joined by ';', coordinates by ','."""
    return ";".join(f"{m},{n}" for m, n in elements)


def load_set_rows(path, d: int) -> tuple[GbsSet, ...]:
    """Read a file with one set literal per line; blank lines and '#'
    comments are skipped, and so is a leading byte-order mark.  Any bad
    line, or bytes that are not UTF-8, raise SetFormatError naming the path
    (and the line).  read_text has turned '\\r\\n' and '\\r' into '\\n', so
    lines end there only, not at the other breaks of str.splitlines."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SetFormatError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    rows = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(parse_gbs_set(line, d))
        except SetFormatError as exc:
            raise SetFormatError(f"{path}:{lineno}: {exc}") from None
    return tuple(rows)


def difference_set(S: GbsSet) -> frozenset[Gpm]:
    """All nonzero pairwise differences of S; empty for a singleton.

    Closed under negation and invariant under reordering or translating S.
    """
    d = S.d
    return frozenset(((mi - mj) % d, (ni - nj) % d)
                     for (mi, ni), (mj, nj) in permutations(S.elements, 2))


def is_commutative(symbols, d: int) -> bool:
    """Whether the symbols pairwise commute."""
    return all(commutes(a, b, d) for a, b in combinations(symbols, 2))


def slope(g: Gpm, d: int):
    """Projective slope m^{-1} n of a nonzero symbol over prime d; INF when m = 0."""
    if not is_prime(d):
        raise ValueError(f"slopes need a prime modulus, got {d}")
    m, n = g[0] % d, g[1] % d
    if m == 0 and n == 0:
        raise ValueError("the identity symbol has no slope")
    if m == 0:
        return INF
    return pow(m, -1, d) * n % d


def index_set(S: GbsSet) -> frozenset:
    """Slopes of the difference set; at most d + 1 values for prime d."""
    if len(S) < 2:
        raise ValueError("index set needs at least two elements")
    return frozenset(slope(g, S.d) for g in difference_set(S))
