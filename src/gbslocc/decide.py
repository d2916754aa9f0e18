"""Symbolic one-way LOCC distinguishability decisions for GBS sets.

The engine works entirely on the difference set Delta(S) = {a - b} of the
input, read as one difference per unordered pair: a difference and its
negative commute with the same symbols, so one difference per pair
serves every rule.  A discriminant symbol T commuting with nothing in
Delta(S) turns the eigenbasis of its matrix into a perfect one-way
protocol.  The reported witness is the lexicographically least such T,
found by scanning row x = 0 and then the rows x that divide d, ascending,
and stopping at the first free y: each row is one bitmask of d bits, the OR
of the rows that modring.weyl_rows gives for the differences, and the slope
gap is row d - 1 of the same rows.  At prime d a difference of slope s
excludes exactly the parameter -s, and INF when s = INF, so the index
cardinality, the number of distinct slopes, is the number of parameters
the slope gap excludes.
For d <= SMALL_D those rows are read from one cached cover per difference
symbol, which packs all of them, the INF exclusion and whether the symbol
lacks a unit coordinate into one int, so a set is scanned with one OR per
difference and read off from a cache of those ORs; above it they are
built for each set, and the witness rows are scanned only when a rule
reads the witness.
The discriminant set itself can have about d^2 members; decide never builds
it, and its memory stays linear in d.  A fully commutative Delta(S) admits
a common eigenvector witness, and decide tests it on the k - 1 translates
s_i - s_0 alone; for composite d a difference set whose members each
carry an invertible coordinate admits a shared eigenstate of a factor
pair of shift/clock powers.  Those three sufficient conditions are checked
in a fixed order.  For (d, k) = (4, 4) and d = 5 with k in {4, 5} the
condition family is known to be exhaustive, so a fully negative outcome
there is a proof of indistinguishability rather than an unknown.
"""

from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .gpm import INF, GbsSet, Gpm, is_commutative
from .modring import LazyTable, is_prime, set_bits, smallest_prime_factor, weyl_rows

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


def _free_symbols(rows, d: int, xs=None):
    """Yield the symbols of rows xs (default all d) commuting with no difference.

    They come row by row in the order of xs, and ascending in y within a row.
    """
    full = (1 << d) - 1
    for x in range(d) if xs is None else xs:
        free = full ^ _row_cover(rows, x)
        while free:
            low = free & -free
            yield x, low.bit_length() - 1
            free ^= low


@lru_cache(maxsize=64)
def _witness_rows(d: int) -> tuple[int, ...]:
    """Row 0, then the proper divisors of d ascending: the rows decide scans.

    Scaling a symbol by a unit u scales its commutation form with every
    difference by u, so (x, y) is free exactly when (ux, uy) is, and some
    unit takes x to gcd(x, d).  The least row holding a free symbol is
    therefore one of these, and a set without a witness costs one row per
    divisor, not d rows.  The divisors come from trial division up to
    sqrt(d).
    """
    low, high = [0], []
    a = 1
    while a * a <= d:
        if d % a == 0:
            low.append(a)
            if a * a != d:
                high.append(d // a)
        a += 1
    # high descends from d itself, which is row 0 again.
    return (*low, *reversed(high[1:]))


def _invertible(diffs: list[Gpm], d: int) -> bool:
    return all(gcd(m, d) == 1 or gcd(n, d) == 1 for m, n in diffs)


def discriminant_set(S: GbsSet) -> frozenset[Gpm]:
    """All symbols that commute with no member of the difference set.

    Rows x = 0, ..., d - 1 are scanned in turn: the symbols of row x that
    commute with some difference are ORed into one d-bit mask, and its clear
    bits are the members of that row.  decide's witness is the first member;
    it lies in row 0 or in a row dividing d, and decide reads only those.
    The whole set can hold about d^2 symbols, and decide never builds it.
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
    a pair with equal m, whose rows have period q = 1, excludes INF.
    """
    d = S.d
    rows = _pair_rows(S, "slope gap")[1]
    covered, inf = _row_cover(rows, d - 1), any(q == 1 for _, _, _, q in rows)
    excluded = frozenset(set_bits(covered)) | ({INF} if inf else frozenset())
    admissible = frozenset(range(d)) | {INF}
    return SlopeGap(d, admissible, excluded, admissible - excluded)


def decide(S: GbsSet) -> DecisionReport:
    """Classify S, in a fixed rule order so reports are reproducible.

    Size rules come first, then the three sufficient conditions, then the
    exhaustiveness results for (4, 4) and d = 5.  Anything else is
    INCONCLUSIVE: the conditions are only sufficient in general.
    """
    return _ladder(S, *_scan(S)[:3])


def decide_with_gap(S: GbsSet) -> tuple[DecisionReport, tuple[int, bool] | None]:
    """decide(S) and the slope gap's row, read from one scan of the differences.

    The row is (covered, inf): the finite parameters that some pair
    excludes, as a d-bit mask, and whether a pair excludes INF.  It is None
    for a singleton, which has no slope gap.  slope_gap(S) holds the same
    parameters as frozensets.
    """
    idx, witness, units, gap_row = _scan(S)
    return _ladder(S, idx, witness, units), gap_row if len(S.elements) > 1 else None


# The largest modulus whose per-symbol rows are cached: the covers here
# and batch's frames.  All d^2 <= 4096 symbols of such a modulus fit
# in one LazyTable.  A cover costs tau(d) + 1 rows where the lazy scan
# mostly reads two, so the covers pay only when a batch repeats its
# symbols, as a sweep does: the 52,360 standard 5-sets at d = 6 have 35
# differences.  Past the bound a batch of random sets empties the table
# before they repeat, and the covers run 1.5 to 3 times slower.
SMALL_D = 64


@lru_cache(maxsize=8)
def _covers(d: int) -> LazyTable:
    """The cover of each difference (m, n) at d <= SMALL_D, by its code m*d + n.

    A cover packs the rows of (m, n) that decide reads at d bits a
    segment: segment i holds the symbols of row _witness_rows(d)[i] that
    commute with (m, n), and the next one those of the slope-gap row
    d - 1.  The bit above them says whether the difference excludes INF,
    that is whether m = 0, and the bit above that whether neither of its
    coordinates is a unit.  Covers are made as differences are met.
    """
    xs = (*_witness_rows(d), d - 1)

    def cover(code: int) -> int:
        m, n = divmod(code, d)
        rows = (weyl_rows(m, n, d),)
        packed = 0
        for i, x in enumerate(xs):
            packed |= _row_cover(rows, x) << i * d
        no_unit = gcd(m, d) != 1 and gcd(n, d) != 1
        return packed | ((m == 0) | no_unit << 1) << len(xs) * d

    return LazyTable(cover)


@lru_cache(maxsize=4096)
def _decoded(covered: int, d: int) -> tuple[tuple[int, bool], Gpm | None, bool]:
    """The slope gap's row (gap, inf), the witness of an OR of covers, and
    whether every difference ORed has a unit coordinate.

    The witness is the least free symbol: the lowest clear bit below the
    gap segment.  The segments are in the order _free_symbols scans the
    rows, so this is the symbol that scan yields first.
    """
    xs = _witness_rows(d)
    width = len(xs) * d
    free = ~covered & ((1 << width) - 1)
    witness = None
    if free:
        i, y = divmod((free & -free).bit_length() - 1, d)
        witness = xs[i], y
    flags = covered >> width + d
    return (covered >> width & ((1 << d) - 1), flags & 1 == 1), witness, flags < 2


def _scan(S: GbsSet):
    """The index cardinality of S, the thunks of its DISCRIMINANT witness
    and of whether every difference has a unit coordinate, and its slope
    gap's row (covered, inf), as decide_with_gap returns it.

    At d <= SMALL_D the covers of the pair differences are ORed, and the
    row, the witness and the units are read off that int.  Above it each
    difference has its Weyl rows, and the row is row d - 1 of them.  The
    witness there stays a thunk, read only after the size rules: a
    SMALL_SET verdict on {(0,0),(0,t),(t,0)} at d = 2t = 3,603,600, which
    has no witness, would otherwise scan its 480 divisor rows.  At prime d
    a difference of slope s excludes exactly the parameter -s, and INF when
    s = INF, so the index cardinality of a set of two or more elements is
    the number of parameters the row excludes.
    """
    d = S.d
    if d > SMALL_D:
        diffs = _differences(S)
        rows = [weyl_rows(m, n, d) for m, n in diffs]
        witness = lambda: next(_free_symbols(rows, d, _witness_rows(d)), None)
        units = lambda: _invertible(diffs, d)
        gap_row = _row_cover(rows, d - 1), any(q == 1 for _, _, _, q in rows)
    else:
        covers, covered = _covers(d), 0
        for (mi, ni), (mj, nj) in combinations(S.elements, 2):
            covered |= covers[(mi - mj) % d * d + (ni - nj) % d]
        gap_row, found, all_units = _decoded(covered, d)
        witness, units = (lambda: found), (lambda: all_units)
    gap, inf = gap_row
    idx = gap.bit_count() + inf if len(S.elements) > 1 and is_prime(d) else None
    return idx, witness, units, gap_row


def _ladder(S: GbsSet, idx: int | None, witness, units) -> DecisionReport:
    """The rules of decide, on S, its index cardinality and the thunks of
    its DISCRIMINANT witness and of its units, from _scan.

    The commutation form is bilinear and every difference is s_i - s_j =
    (s_i - s_0) - (s_j - s_0), so the differences pairwise commute exactly
    when the k - 1 translates s_i - s_0 do: 6 pairs for a 5-set, not 45.
    """
    d, size = S.d, len(S.elements)

    if size <= 3 and (size <= 2 or d >= 3):
        return DecisionReport(DISTINGUISHABLE, FULL_LOCC, SMALL_SET, None, idx)
    if size >= d + 1:
        return DecisionReport(INDISTINGUISHABLE, FULL_LOCC, TOO_MANY, None, idx)

    witness = witness()
    if witness is not None:
        return DecisionReport(DISTINGUISHABLE, ONE_WAY, DISCRIMINANT, witness, idx)
    (m0, n0), *rest = S.elements
    if is_commutative([(m - m0, n - n0) for m, n in rest], d):
        return DecisionReport(DISTINGUISHABLE, ONE_WAY, COMMUTATIVE, None, idx)
    if not is_prime(d) and units():
        s = smallest_prime_factor(d)
        return DecisionReport(DISTINGUISHABLE, ONE_WAY, INVERTIBLE, (s, d // s), idx)

    if d == 4 and size == 4:
        return DecisionReport(INDISTINGUISHABLE, FULL_LOCC, COMPLETE_D4, None, idx)
    if d == 5 and size in (4, 5):
        mode = ONE_WAY if size == 4 else FULL_LOCC
        return DecisionReport(INDISTINGUISHABLE, mode, COMPLETE_D5, None, idx)
    return DecisionReport(INCONCLUSIVE, FULL_LOCC, None, None, idx)
