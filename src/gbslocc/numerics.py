"""Closed-form certificates, checked through the Weyl operators' action.

Every constructive verdict reduces to one fact: a unit vector v with
<v|U_delta|v> = 0 for every difference delta of the set.  Twirling |v><v|
over the d^2 Weyl operators then gives Alice a measurement after which
Bob's states are pairwise orthogonal (Nathanson, J. Math. Phys. 46,
062103 (2005)).  A discriminant witness supplies v as one of its
eigenvectors, a phased Fourier vector on the cycle through 0; commutative
difference sets and factor-pair witnesses supply a comb, a uniform
superposition over an arithmetic progression of basis states.  Each v has
an exact closed form over Z_d, built with integer exponents, and
`max_abs_expectation` measures it against the unitaries themselves, and
`certify` picks the vector and the check for a decision report.  The
Weyl operator X^m Z^n sends |c> to omega^{n c} |c + m>, a permutation with
phases, so `weyl_apply` applies it to a vector in O(d) with plain Python
complex numbers.
"""

from cmath import exp, pi
from itertools import accumulate
from math import gcd, sqrt

from .decide import COMMUTATIVE, DISCRIMINANT, INVERTIBLE
from .gpm import GbsSet, commutes, difference_set, is_commutative
from .modring import is_prime, smallest_prime_factor

__all__ = [
    "VERIFY_TOL",
    "weyl_apply",
    "eigenvector",
    "one_way_gram_check",
    "commuting_witness",
    "composite_witness",
    "max_abs_expectation",
    "certify",
]

VERIFY_TOL = 1e-9

# One check takes O(d |Delta|) time, and |Delta| grows like k^2 up to d^2,
# so d alone does not bound the work; nor has the float error of the long
# cycles (L = d) been studied past d = 64.  Certificates stop there; the
# refusal is `verify`'s exit-3 error line.
_MAX_DIM = 64


def _check_dim(d: int) -> None:
    if not 2 <= d <= _MAX_DIM:
        raise ValueError(f"certificates are checked at 2 <= d <= {_MAX_DIM} only, got {d}")


def _phase(e: int, order: int) -> complex:
    """exp(2 pi i e / order), with e reduced first."""
    return exp(2j * pi * (e % order) / order)


def weyl_apply(g, v, d: int) -> list[complex]:
    """U v for the symbol g = (m, n): entry c of v moves to c + m, times omega^{n c}."""
    m, n = g[0] % d, g[1] % d
    phased = [_phase(n * c, d) * x for c, x in enumerate(v)]
    return phased[d - m:] + phased[:d - m]


def _inner(u, v) -> complex:
    """<u|v>, conjugate-linear in u."""
    return sum(x.conjugate() * y for x, y in zip(u, v))


def eigenvector(g, d: int) -> list[complex]:
    """Closed-form unit eigenvector of the unitary for the symbol (m, n).

    X^m Z^n permutes the basis along cycles of length L = d / gcd(m, d).
    On the cycle through 0, c_j = j m, take theta_j = sum_{i<j} n c_i and
    Theta = theta_L.  The vector with entries
    v[c_j] = omega^{theta_j - j Theta / L} / sqrt(L), and zero off the cycle,
    has eigenvalue omega^{Theta / L}, one L-th root of omega^Theta.  Every
    phase is an integer power of exp(2 pi i / (L d)), reduced before use.
    """
    _check_dim(d)
    m, n = g[0] % d, g[1] % d
    length = d // gcd(m, d)
    cycle = [j * m % d for j in range(length)]
    theta = [n * t % d for t in accumulate(cycle, initial=0)]
    vec = [0j] * d
    for j, c in enumerate(cycle):
        vec[c] = _phase(length * theta[j] - j * theta[-1], length * d) / sqrt(length)
    return vec


def one_way_gram_check(S: GbsSet, witness) -> float:
    """Largest deviation of the witness protocol from a perfect one.

    The witness must lie in the discriminant set: U_T^dag U_delta U_T =
    omega^e U_delta with e != 0 for every difference delta.  For any
    eigenvector U_T v = lambda v this gives <v|U_delta|v> =
    omega^e <v|U_delta|v>, so the expectation vanishes, and twirling |v><v|
    over the Weyl operators is Alice's measurement; Bob's states are then
    pairwise orthogonal.  One closed-form eigenvector is measured.
    """
    d = S.d
    deltas = difference_set(S)
    for delta in sorted(deltas):
        if commutes(witness, delta, d):
            raise ValueError(
                f"witness {witness} commutes with difference {delta}; "
                "it does not lie in the discriminant set"
            )
    return max_abs_expectation(eigenvector(witness, d), deltas, d)


def _comb(d: int, stride: int, teeth: int) -> list[complex]:
    """Unit vector (|0> + |stride> + ... + |(teeth-1) stride>) / sqrt(teeth)."""
    vec = [0j] * d
    vec[:teeth * stride:stride] = [complex(1 / sqrt(teeth))] * teeth
    return vec


def commuting_witness(S: GbsSet) -> list[complex]:
    """Unit vector with vanishing expectation on every difference of S.

    Commuting differences generate an isotropic subgroup, which lies in a
    Lagrangian <(a, b), (0, d/a)> for some divisor a of d.  The comb
    (|0> + ... + |a-1>) / sqrt(a) has zero expectation on (m, n) when
    a <= m <= d - a (the shifted comb misses itself) or when m = 0 and
    a n = 0 mod d (the clock phases sum to zero), and every nonzero member
    of that Lagrangian is of one of these kinds.  Returns the comb for the
    least divisor a that every difference passes.
    """
    d = S.d
    deltas = difference_set(S)
    if not is_commutative(deltas, d):
        raise ValueError("difference set is not commutative; no common eigenbasis exists")
    a = min(
        a for a in range(1, d + 1)
        if d % a == 0
        and all(a <= m <= d - a or (m == 0 and a * n % d == 0) for m, n in deltas)
    )
    return _comb(d, 1, a)


def composite_witness(S: GbsSet) -> list[complex]:
    """Shared unit eigenstate of the shift power (s, 0) and clock power (0, t).

    s is the smallest prime factor of composite d and t = d // s, the factor
    pair decide() reports.  Requires every difference of S to carry an
    invertible coordinate; the comb over {0, s, ..., (t-1) s} then has
    exactly vanishing expectation on each difference.
    """
    d = S.d
    if is_prime(d):
        raise ValueError(f"modulus {d} is prime; no nontrivial factor pair exists")
    for m, n in sorted(difference_set(S)):
        if gcd(m, d) != 1 and gcd(n, d) != 1:
            raise ValueError(
                f"difference ({m},{n}) has no invertible coordinate; "
                "the factor-pair witness does not apply"
            )
    s = smallest_prime_factor(d)
    return _comb(d, s, d // s)


def max_abs_expectation(vec, symbols, d: int) -> float:
    """Max of | ||v|| - 1 | and, over the symbols, |<v|U|v>|: how far v is
    from a unit vector whose Weyl twirl separates the states."""
    _check_dim(d)
    return max([abs(sqrt(_inner(vec, vec).real) - 1)]
               + [abs(_inner(vec, weyl_apply(g, vec, d))) for g in symbols])


def certify(S: GbsSet, report):
    """Check the certificate of report = decide(S): (check name, deviation).

    DISCRIMINANT is checked by one_way_gram_check on its witness,
    COMMUTATIVE and INVERTIBLE by max_abs_expectation on their combs.  Any
    other condition has no constructive certificate and gives None.  Past
    d = 64 a constructive condition raises ValueError.
    """
    if report.condition == DISCRIMINANT:
        return "one_way_gram", one_way_gram_check(S, report.witness)
    if report.condition == COMMUTATIVE:
        name, comb = "commuting_witness", commuting_witness(S)
    elif report.condition == INVERTIBLE:
        name, comb = "composite_witness", composite_witness(S)
    else:
        return None
    return name, max_abs_expectation(comb, difference_set(S), S.d)
