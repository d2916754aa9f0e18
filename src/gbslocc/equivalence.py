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

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd

from .clifford import enumerate_symplectic
from .gpm import GbsSet, Gpm, all_gpms

__all__ = [
    "CanonicalSet",
    "OrbitReport",
    "Classification",
    "anchored_translate",
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


@dataclass(frozen=True)
class OrbitReport:
    representative: CanonicalSet
    members: frozenset[CanonicalSet]
    size: int
    generation_certified: bool


def orbit(N: GbsSet) -> OrbitReport:
    """All standard sets reachable from N by translation plus matrix action."""
    if len(N) < 2:
        raise ValueError("orbits need at least two elements")
    d = N.d
    mats = enumerate_symplectic(d)
    members = set()
    for i in range(len(N)):
        base = anchored_translate(N, i)
        for a1, b1, a2, b2 in mats:
            members.add(tuple(sorted(
                ((a1 * m + b1 * n) % d, (a2 * m + b2 * n) % d) for m, n in base
            )))
    anchor = N.elements.index((0, 0)) if (0, 0) in N.elements else 0
    rep = anchored_translate(N, anchor)
    return OrbitReport(rep, frozenset(members), len(members), _generation_certified(N))


@dataclass(frozen=True)
class Classification:
    d: int
    k: int
    orbits: tuple[OrbitReport, ...]
    total_standard: int
    covered: int
    uncovered: tuple[CanonicalSet, ...]


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
    for (ia, a), (ib, b) in combinations(enumerate(reports), 2):
        clash = a.members & b.members
        if clash:
            raise ValueError(
                f"orbits of representatives {ia} and {ib} overlap in {min(clash)}; "
                "the input sets are not pairwise inequivalent"
            )
    covered_sets = frozenset().union(*(r.members for r in reports))
    nonzero = sorted(all_gpms(d) - {(0, 0)})
    total = comb(len(nonzero), k - 1)
    uncovered = []
    for rest in combinations(nonzero, k - 1):
        candidate = ((0, 0),) + rest
        if candidate not in covered_sets:
            uncovered.append(candidate)
    return Classification(
        d, k, tuple(reports), total, total - len(uncovered), tuple(uncovered)
    )

