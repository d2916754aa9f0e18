"""Closed-form certificates, checked through the Weyl operators' action.

Every certificate the decision layer emits has an exact closed form over
Z_d, and each is built from it with integer exponents and then measured
against the unitaries themselves.  The Weyl operator X^m Z^n sends |c> to
omega^{n c} |c + m>, a permutation with phases, so `weyl_apply` applies it
to a vector in O(d) with plain Python complex numbers.  A discriminant
witness permutes the basis along cycles, so its eigenbasis is a phased
Fourier basis on each cycle; Alice measures in it, and Bob's residual
states must be pairwise orthogonal.  Commutative difference sets and
factor-pair witnesses are both served by a comb, a uniform superposition
over an arithmetic progression of basis states, whose expectation on every
difference vanishes.  The maximally entangled reference state is never
materialized; acting on one half of it turns overlap checks into inner
products of d-vectors.
"""

from cmath import exp, pi
from itertools import accumulate, combinations
from math import gcd, sqrt

from .gpm import GbsSet, commutes, difference_set, is_commutative
from .modring import is_prime, smallest_prime_factor

__all__ = [
    "VERIFY_TOL",
    "weyl_apply",
    "eigensystem",
    "one_way_gram_check",
    "commuting_witness",
    "composite_witness",
    "max_abs_expectation",
]

VERIFY_TOL = 1e-9

# The Gram check of a k-set takes O(d^2 (d + k^2)) time: each of the d
# eigenvectors against all d others, and k^2 / 2 overlaps of Bob's states
# for each.  That is about 1.4 s for a 64-set at d = 64, where certificates
# stop; the refusal is `verify`'s exit-3 error line.
_MAX_DIM = 64


def _check_dim(d: int) -> None:
    if not 2 <= d <= _MAX_DIM:
        raise ValueError(f"dense matrices support 2 <= d <= {_MAX_DIM}, got {d}")


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


def eigensystem(g, d: int) -> tuple[list[complex], list[list[complex]]]:
    """Exact eigen-decomposition of the unitary for the symbol (m, n).

    X^m Z^n permutes the basis along gcd(m, d) cycles c_j = c_0 + j m of
    length L = d / gcd(m, d).  With theta_j = sum_{i<j} n c_i and
    Theta = theta_L, the eigenvalues on a cycle are the L roots of
    lambda^L = omega^Theta, and the eigenvector for lambda has entries
    v[c_j] = omega^{theta_j} lambda^{-j} / sqrt(L).  Disjoint cycles and
    distinct roots make the vectors orthonormal.  Returns (eigenvalues,
    vectors) with vectors[i] the eigenvector for eigenvalues[i]; every
    phase is an integer power of exp(2 pi i / (L d)), reduced before use.
    """
    _check_dim(d)
    m, n = g[0] % d, g[1] % d
    length = d // gcd(m, d)
    order = length * d
    values, vectors = [], []
    for start in range(d // length):
        cycle = [(start + j * m) % d for j in range(length)]
        theta = [n * t % d for t in accumulate(cycle, initial=0)]
        for k in range(length):
            root = theta[-1] + k * d                    # lambda_k^L = omega^Theta
            vec = [0j] * d
            for j, c in enumerate(cycle):
                vec[c] = _phase(length * theta[j] - j * root, order) / sqrt(length)
            values.append(_phase(root, order))
            vectors.append(vec)
    return values, vectors


def one_way_gram_check(S: GbsSet, witness) -> float:
    """Largest deviation of the witness protocol from a perfect one.

    Alice measures in the witness eigenbasis; for each eigenvector v the
    states U_i v (U_i running over S) must be pairwise orthogonal for the
    protocol to be perfect.  The witness must lie in the discriminant set.
    The closed-form basis is measured too: its residual under the witness
    operator and its distance from orthonormality are folded in.
    """
    d = S.d
    for delta in sorted(difference_set(S)):
        if commutes(witness, delta, d):
            raise ValueError(
                f"witness {witness} commutes with difference {delta}; "
                "it does not lie in the discriminant set"
            )
    if len(S) == 1:
        return 0.0
    values, vecs = eigensystem(witness, d)
    worst = 0.0
    for i, (value, v) in enumerate(zip(values, vecs)):
        image = weyl_apply(witness, v, d)
        bob = [weyl_apply(g, v, d) for g in S.elements]
        worst = max(worst,
                    *(abs(a - value * b) for a, b in zip(image, v)),
                    *(abs(_inner(u, v) - (i == j)) for j, u in enumerate(vecs)),
                    *(abs(_inner(a, b)) for a, b in combinations(bob, 2)))
    return worst


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
    """Max over the symbols of |<v|U|v>| for a fixed vector v."""
    _check_dim(d)
    return max((abs(_inner(vec, weyl_apply(g, vec, d))) for g in sorted(symbols)), default=0.0)
