"""Symbolic one-way LOCC distinguishability decisions for GBS sets.

The engine works entirely on the difference set Delta(S) = {a - b} of the
input, read as one difference per unordered pair: a difference and its
negative commute with the same symbols, so the list decide builds once
serves every rule.  A discriminant symbol T commuting with nothing in
Delta(S) turns the eigenbasis of its matrix into a perfect one-way
protocol.  The reported witness is the lexicographically least such T,
found by scanning rows x = 0, 1, ... of Z_d x Z_d and stopping at the first
free y: each row is one bitmask of d bits, the OR of the rows that
modring.weyl_rows gives for the differences, and the slope gap is row d - 1
of the same scan.  At prime d the rows also carry each difference's slope,
whose distinct values the index cardinality counts.  The discriminant set
itself can have about d^2 members; decide never builds it, and its memory
stays linear in d.  A fully commutative Delta(S) admits a common
eigenvector witness; and for composite d a difference set whose members
each carry an invertible coordinate admits a shared eigenstate of a factor
pair of shift/clock powers.  Those three sufficient conditions are checked
in a fixed order.  For (d, k) = (4, 4) and d = 5 with k in {4, 5} the
condition family is known to be exhaustive, so a fully negative outcome
there is a proof of indistinguishability rather than an unknown.
"""

from functools import partial
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .gpm import INF, GbsSet, Gpm, is_commutative
from .modring import is_prime, set_bits, smallest_prime_factor, weyl_rows

__all__ = [
    "DISTINGUISHABLE",
    "INDISTINGUISHABLE",
    "INCONCLUSIVE",
    "ONE_WAY",
    "FULL_LOCC",
    "SMALL_SET",
    "TOO_MANY",
    "DISCRIMINANT",
    "COMMUTATIVE",
    "INVERTIBLE",
    "COMPLETE_D4",
    "COMPLETE_D5",
    "SlopeGap",
    "DecisionReport",
    "discriminant_set",
    "condition_commutative",
    "condition_invertible",
    "slope_gap",
    "decide",
    "decide_with_gap",
]

# Verdicts.
DISTINGUISHABLE = "DISTINGUISHABLE"
INDISTINGUISHABLE = "INDISTINGUISHABLE"
INCONCLUSIVE = "INCONCLUSIVE"

# Protocol modes the verdict speaks to.
ONE_WAY = "ONE_WAY"
FULL_LOCC = "FULL_LOCC"

# Which rule fired.
SMALL_SET = "SMALL_SET"          # at most three states, always distinguishable
TOO_MANY = "TOO_MANY"            # more than d states, never distinguishable
DISCRIMINANT = "DISCRIMINANT"    # a symbol commuting with nothing in Delta(S)
COMMUTATIVE = "COMMUTATIVE"      # Delta(S) pairwise commutes
INVERTIBLE = "INVERTIBLE"        # composite d, every difference has an invertible coordinate
COMPLETE_D4 = "COMPLETE_D4"      # all conditions failed; family exhaustive at (4, 4)
COMPLETE_D5 = "COMPLETE_D5"      # all conditions failed; family exhaustive at d = 5


class SlopeGap(NamedTuple):
    """Measurement-parameter bookkeeping for the standard one-way protocol.

    Alice's projective measurement is indexed by y in Z_d plus INF.  A pair
    of set elements i, j excludes the y solving
    (m_i - m_j) * y = n_j - n_i (mod d), plus INF when m_i = m_j.  Any
    admissible y left over (the gap) hands Bob orthogonal residual states,
    and a finite leftover y always produces the discriminant symbol
    (d - 1, y).
    """

    d: int
    admissible: frozenset
    excluded: frozenset
    gap: frozenset


class DecisionReport(NamedTuple):
    verdict: str
    mode: str
    condition: str | None = None
    witness: tuple[int, int] | None = None
    index_cardinality: int | None = None


def _differences(S: GbsSet, what: str | None = None) -> list[Gpm]:
    """One difference per unordered pair of S.

    A difference and its negative commute with the same symbols, so every
    rule below reads this list in place of the negation-closed Delta(S).
    A singleton has none: decide reads that as an empty list, and the
    public rules, which name themselves as `what`, refuse it.
    """
    if len(S) < 2 and what:
        raise ValueError(f"{what} needs at least two elements")
    d = S.d
    return [
        ((mi - mj) % d, (ni - nj) % d)
        for (mi, ni), (mj, nj) in combinations(S.elements, 2)
    ]


def _pair_rows(S: GbsSet, what: str | None = None):
    """The pair differences of S, as _differences(S, what), and their Weyl rows."""
    diffs = _differences(S, what)
    return diffs, [weyl_rows(m, n, S.d) for m, n in diffs]


def _row_cover(rows, x: int) -> int:
    """The symbols of row x commuting with some difference, as a d-bit mask."""
    covered = 0
    for comb, r, step, q in rows:
        if x % r == 0:
            covered |= comb << (x // r * step % q)
    return covered


def _free_symbols(rows, d: int):
    """Yield the symbols commuting with no difference, in lexicographic order."""
    full = (1 << d) - 1
    for x in range(d):
        free = full ^ _row_cover(rows, x)
        while free:
            low = free & -free
            yield x, low.bit_length() - 1
            free ^= low


def _invertible(diffs: list[Gpm], d: int) -> bool:
    return all(gcd(m, d) == 1 or gcd(n, d) == 1 for m, n in diffs)


def discriminant_set(S: GbsSet) -> frozenset[Gpm]:
    """All symbols that commute with no member of the difference set.

    Rows x = 0, ..., d - 1 are scanned in turn: the symbols of row x that
    commute with some difference are ORed into one d-bit mask, and its clear
    bits are the members of that row.  decide runs the same scan and stops
    at the first member, its witness; the whole set can hold about d^2
    symbols, and decide never builds it.
    """
    return frozenset(_free_symbols(_pair_rows(S, "discriminant set")[1], S.d))


def condition_commutative(S: GbsSet) -> bool:
    """Whether the difference set is pairwise commutative."""
    return is_commutative(_differences(S, "condition"), S.d)


def condition_invertible(S: GbsSet) -> bool:
    """Whether every difference has an invertible coordinate (composite d only)."""
    diffs = _differences(S, "condition")
    if is_prime(S.d):
        raise ValueError(f"condition is only defined for composite moduli, got {S.d}")
    return _invertible(diffs, S.d)


def slope_gap(S: GbsSet) -> SlopeGap:
    """Excluded measurement parameters and whatever the pairs leave open.

    A pair excludes the finite y exactly when (d - 1, y) commutes with its
    difference, so the finite exclusions are row d - 1 of the witness scan;
    a pair with equal m excludes INF.
    """
    d = S.d
    covered, inf = _gap_row(_pair_rows(S, "slope gap")[1], d)
    excluded = frozenset(set_bits(covered)) | ({INF} if inf else frozenset())
    admissible = frozenset(range(d)) | {INF}
    return SlopeGap(d, admissible, excluded, admissible - excluded)


def _gap_row(rows, d: int) -> tuple[int, bool]:
    """Row d - 1 of the scan as a d-bit mask, and whether a pair excludes INF.

    A difference has m = 0, and so excludes INF, exactly when its rows have
    period q = 1.
    """
    return _row_cover(rows, d - 1), any(q == 1 for _, _, _, q in rows)


def decide(S: GbsSet) -> DecisionReport:
    """Classify S, in a fixed rule order so reports are reproducible.

    Size rules come first, then the three sufficient conditions, then the
    exhaustiveness results for (4, 4) and d = 5.  Anything else is
    INCONCLUSIVE: the conditions are only sufficient in general.
    """
    return _ladder(S, *_pair_rows(S))


def decide_with_gap(S: GbsSet) -> tuple[DecisionReport, tuple[int, bool] | None]:
    """decide(S) and the slope gap's row, read from one list of Weyl rows.

    The row is (covered, inf): the finite parameters that some pair
    excludes, as a d-bit mask, and whether a pair excludes INF.  It is None
    for a singleton, which has no slope gap.  slope_gap(S) holds the same
    parameters as frozensets.
    """
    diffs, rows = _pair_rows(S)
    return _ladder(S, diffs, rows), _gap_row(rows, S.d) if rows else None


def _ladder(S: GbsSet, diffs: list[Gpm], rows) -> DecisionReport:
    """The rules of decide, on the pair differences of S and their Weyl rows.

    At prime d a difference (m, n) has rows of period q = d and step
    n * m^-1, its slope, when m != 0, and period q = 1 when m = 0, the slope
    INF; the index cardinality counts the distinct slopes.
    """
    d, size = S.d, len(S)
    prime = is_prime(d)
    idx = len({step if q > 1 else INF for _, _, step, q in rows}) if rows and prime else None
    report = partial(DecisionReport, index_cardinality=idx)

    if size <= 3 and (size <= 2 or d >= 3):
        return report(DISTINGUISHABLE, FULL_LOCC, SMALL_SET)
    if size >= d + 1:
        return report(INDISTINGUISHABLE, FULL_LOCC, TOO_MANY)

    witness = next(_free_symbols(rows, d), None)
    if witness is not None:
        return report(DISTINGUISHABLE, ONE_WAY, DISCRIMINANT, witness=witness)
    if is_commutative(diffs, d):
        return report(DISTINGUISHABLE, ONE_WAY, COMMUTATIVE)
    if not prime and _invertible(diffs, d):
        s = smallest_prime_factor(d)
        return report(DISTINGUISHABLE, ONE_WAY, INVERTIBLE, witness=(s, d // s))

    if d == 4 and size == 4:
        return report(INDISTINGUISHABLE, FULL_LOCC, COMPLETE_D4)
    if d == 5 and size in (4, 5):
        mode = ONE_WAY if size == 4 else FULL_LOCC
        return report(INDISTINGUISHABLE, mode, COMPLETE_D5)
    return report(INCONCLUSIVE, FULL_LOCC)
