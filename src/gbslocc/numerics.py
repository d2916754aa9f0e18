"""Closed-form certificates, checked against dense matrices.

Every certificate the decision layer emits has an exact closed form over
Z_d, and each is built from it with integer exponents and then measured
against explicit unitaries.  A discriminant witness X^m Z^n permutes the
basis along cycles, so its eigenbasis is a phased Fourier basis on each
cycle; Alice measures in it, and Bob's residual states must be pairwise
orthogonal.  Commutative difference sets and factor-pair witnesses are both
served by a comb, a uniform superposition over an arithmetic progression of
basis states, whose expectation on every difference vanishes.  The
maximally entangled reference state is never materialized; acting on one
half of it turns overlap checks into d x d Gram computations.
"""

from math import gcd

import numpy as np

from .gpm import GbsSet, commutes, difference_set, is_commutative, weyl_exponent
from .modring import is_prime, smallest_prime_factor

__all__ = [
    "VERIFY_TOL",
    "gpm_matrix",
    "weyl_relation_check",
    "eigensystem",
    "one_way_gram_check",
    "commuting_witness",
    "composite_witness",
    "max_abs_expectation",
]

VERIFY_TOL = 1e-9

_MAX_DENSE_DIM = 64


def _check_dense_dim(d: int) -> None:
    if not 2 <= d <= _MAX_DENSE_DIM:
        raise ValueError(f"dense matrices support 2 <= d <= {_MAX_DENSE_DIM}, got {d}")


def gpm_matrix(g, d: int) -> np.ndarray:
    """Dense unitary for the symbol (m, n): column c maps to omega^{n c} row c+m."""
    _check_dense_dim(d)
    m, n = g[0] % d, g[1] % d
    cols = np.arange(d)
    out = np.zeros((d, d), dtype=complex)
    out[(cols + m) % d, cols] = np.exp(2j * np.pi * n * cols / d)
    return out


def weyl_relation_check(a, b, d: int) -> float:
    """Max deviation in U_a U_b = omega^e U_b U_a for the symbolic exponent e."""
    ma, mb = gpm_matrix(a, d), gpm_matrix(b, d)
    phase = np.exp(2j * np.pi * weyl_exponent(a, b, d) / d)
    return float(np.max(np.abs(ma @ mb - phase * (mb @ ma))))


def eigensystem(g, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact eigen-decomposition of the unitary for the symbol (m, n).

    X^m Z^n permutes the basis along gcd(m, d) cycles c_j = c_0 + j m of
    length L = d / gcd(m, d).  With theta_j = sum_{i<j} n c_i and
    Theta = theta_L, the eigenvalues on a cycle are the L roots of
    lambda^L = omega^Theta, and the eigenvector for lambda has entries
    v[c_j] = omega^{theta_j} lambda^{-j} / sqrt(L).  Disjoint cycles and
    distinct roots make the columns orthonormal.  Returns (eigenvalues,
    vectors) with vectors[:, i] the eigenvector for eigenvalues[i]; every
    phase is an integer power of exp(2 pi i / (L d)), reduced before use.
    """
    _check_dense_dim(d)
    m, n = g[0] % d, g[1] % d
    cycles = gcd(m, d)
    length = d // cycles
    order = length * d
    j = np.arange(length)
    rows = (np.arange(cycles)[:, None] + j * m) % d            # rows[c_0, j] = c_j
    theta = n * (np.cumsum(rows, axis=1) - rows) % d
    roots = (n * rows.sum(axis=1) % d)[:, None] + j * d        # lambda_k^L = omega^Theta
    expo = (length * theta[:, :, None] - j[:, None] * roots[:, None, :]) % order
    vectors = np.zeros((d, d), dtype=complex)
    cols = np.arange(cycles)[:, None] * length + j
    vectors[rows[:, :, None], cols[:, None, :]] = np.exp(2j * np.pi * expo / order) / np.sqrt(length)
    return np.exp(2j * np.pi * roots.ravel() / order), vectors


def one_way_gram_check(S: GbsSet, witness) -> float:
    """Largest deviation of the witness protocol from a perfect one.

    Alice measures in the witness eigenbasis; for each eigenvector v the
    states U_i v (U_i running over S) must be pairwise orthogonal for the
    protocol to be perfect.  The witness must lie in the discriminant set.
    The closed-form basis is measured too: its residual against the dense
    witness matrix and its distance from orthonormality are folded in.
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
    basis = max(
        np.abs(gpm_matrix(witness, d) @ vecs - vecs * values).max(),
        np.abs(vecs.conj().T @ vecs - np.eye(d)).max(),
    )
    # bob[col] has U_i v_col as its column i.
    bob = np.stack([gpm_matrix(g, d) @ vecs for g in S.elements], axis=2).transpose(1, 0, 2)
    gram = bob.conj().transpose(0, 2, 1) @ bob
    off = ~np.eye(len(S), dtype=bool)
    return float(max(basis, np.abs(gram[:, off]).max()))


def _comb(d: int, stride: int, teeth: int) -> np.ndarray:
    """Unit vector (|0> + |stride> + ... + |(teeth-1) stride>) / sqrt(teeth)."""
    vec = np.zeros(d, dtype=complex)
    vec[np.arange(teeth) * stride] = 1 / np.sqrt(teeth)
    return vec


def commuting_witness(S: GbsSet) -> np.ndarray:
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


def composite_witness(S: GbsSet) -> np.ndarray:
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
    v = np.asarray(vec, dtype=complex)
    worst = 0.0
    for g in sorted(symbols):
        worst = max(worst, float(abs(np.vdot(v, gpm_matrix(g, d) @ v))))
    return worst
