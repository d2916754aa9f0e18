"""Local-unitary equivalence of GBS sets via translations and matrix action.

Multiplying every state label by a fixed symbol translates the exponent
pairs, and conjugating by a Clifford unitary acts through a determinant-one
matrix, so the reachable standard forms of a set N are exactly

    { W . (N - N_i) : N_i in N, W symplectic },

canonicalized by sorting.  When N contains invertible shift and clock
powers this candidate family provably exhausts the equivalence class; for
other inputs it may undergenerate, which classify() surfaces honestly
through its coverage count instead of hiding.
"""

from itertools import combinations
from math import comb, gcd
from typing import NamedTuple

from .clifford import enumerate_symplectic
from .gpm import GbsSet, Gpm

__all__ = [
    "CanonicalSet",
    "OrbitReport",
    "Classification",
    "anchored_translate",
    "unpack",
    "orbit",
    "classify",
]

CanonicalSet = tuple[Gpm, ...]


def anchored_translate(S: GbsSet, i: int) -> CanonicalSet:
    """Subtract element i from every element and sort; the anchor lands on (0, 0)."""
    mi, ni = S.elements[i]
    d = S.d
    return tuple(sorted(((m - mi) % d, (n - ni) % d) for m, n in S.elements))


def _generation_certified(S: GbsSet) -> bool:
    # Complete generation is guaranteed when the set carries an invertible
    # shift power (s, 0) and an invertible clock power (0, t).
    d = S.d
    has_shift = any(n == 0 and m and gcd(m, d) == 1 for m, n in S.elements)
    has_clock = any(m == 0 and n and gcd(n, d) == 1 for m, n in S.elements)
    return has_shift and has_clock


class OrbitReport(NamedTuple):
    """One orbit, whose members are standard sets: (0, 0), then k - 1 other
    symbols in ascending order.

    `packed` holds each member as one int: the base-d^2 digits of the codes
    m * d + n of its symbols after (0, 0), most significant first.  Codes
    order as their (m, n) pairs do, so `packed` ascends in the order of the
    sorted member tuples.
    """

    representative: CanonicalSet
    d: int
    packed: tuple[int, ...]
    generation_certified: bool

    @property
    def size(self) -> int:
        return len(self.packed)

    @property
    def members(self) -> frozenset[CanonicalSet]:
        """The members as tuples of (m, n) pairs, decoded on each access."""
        k = len(self.representative)
        return frozenset(unpack(self.d, k, p) for p in self.packed)


def unpack(d: int, k: int, packed: int) -> CanonicalSet:
    """The standard k-set that one int of OrbitReport.packed holds."""
    pairs = []
    for _ in range(k - 1):
        packed, code = divmod(packed, d * d)
        pairs.append(divmod(code, d))
    return ((0, 0), *reversed(pairs))


def _packed_images(symbols, d: int):
    """The packed standard set of (0, 0) and the nonzero symbols, under each
    symplectic matrix.

    (0, 0) maps to itself, and so to code 0, the least; each other symbol
    gives one column, its image code under each matrix of a block.  Blocks
    of 4096 matrices keep the columns small: at d = 64 one column of all
    196,608 matrices would take about 8 MB.
    """
    D = d * d
    mats = enumerate_symplectic(d)
    for start in range(0, len(mats), 4096):
        block = mats[start:start + 4096]
        columns = [[(a1 * m + b1 * n) % d * d + (a2 * m + b2 * n) % d
                    for a1, b1, a2, b2 in block] for m, n in symbols]
        for row in map(sorted, zip(*columns)):
            packed = 0
            for code in row:
                packed = packed * D + code
            yield packed


def orbit(N: GbsSet) -> OrbitReport:
    """All standard sets reachable from N by translation plus matrix action."""
    if len(N) < 2:
        raise ValueError("orbits need at least two elements")
    d = N.d
    members = set()
    for i in range(len(N)):
        members.update(_packed_images(anchored_translate(N, i)[1:], d))
    anchor = N.elements.index((0, 0)) if (0, 0) in N.elements else 0
    rep = anchored_translate(N, anchor)
    return OrbitReport(rep, d, tuple(sorted(members)), _generation_certified(N))


class Classification(NamedTuple):
    d: int
    k: int
    orbits: tuple[OrbitReport, ...]
    total_standard: int
    covered: int
    uncovered: tuple[CanonicalSet, ...]


def _uncovered(d: int, k: int, covered: set[int]) -> list[CanonicalSet]:
    """The standard k-sets whose packed ints are not in covered, ascending.

    With every code but the last fixed, the candidates' packed ints run over
    one contiguous block, so only the last code is varied per prefix.
    """
    if k < 2:  # the one standard 1-set, which no orbit holds
        return [((0, 0),)]
    D = d * d
    # Each pair as a 1-tuple, so that a row is its prefix's tuple plus one.
    pairs = [(divmod(code, d),) for code in range(D)]
    uncovered = []
    for prefix in combinations(range(1, D), k - 2):
        base = 0
        for code in prefix:
            base = base * D + code
        base *= D
        head = ((0, 0), *(pairs[code][0] for code in prefix))
        start = prefix[-1] + 1 if prefix else 1
        uncovered += [head + pairs[last] for last in range(start, D) if base + last not in covered]
    return uncovered


def classify(d: int, k: int, representatives) -> Classification:
    """Expand every representative's orbit and audit coverage of the
    C(d^2 - 1, k - 1) standard k-sets.

    Overlapping orbits would contradict the representatives' pairwise
    inequivalence, so they raise instead of returning.
    """
    reps = list(representatives)
    for rep in reps:
        if rep.d != d:
            raise ValueError(f"representative modulus {rep.d} != {d}")
        if len(rep) != k:
            raise ValueError(f"representative size {len(rep)} != {k}")
    reports = [orbit(rep) for rep in reps]
    covered = set()
    for report in reports:
        covered.update(report.packed)
    if len(covered) < sum(report.size for report in reports):
        for (ia, a), (ib, b) in combinations(enumerate(reports), 2):
            if clash := set(a.packed).intersection(b.packed):
                raise ValueError(
                    f"orbits of representatives {ia} and {ib} overlap in "
                    f"{unpack(d, k, min(clash))}; the input sets are not pairwise inequivalent"
                )
    # Members are distinct standard k-sets, so the union counts the covered ones.
    total = comb(d * d - 1, k - 1)
    uncovered = [] if len(covered) == total else _uncovered(d, k, covered)
    return Classification(d, k, tuple(reports), total, len(covered), tuple(uncovered))
