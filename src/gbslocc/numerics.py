"""Dense complex-matrix verification of the symbolic verdicts.

Every certificate the decision layer emits can be checked against explicit
unitaries: discriminant witnesses must turn into perfectly orthogonal
residual states on Bob's side, commutative difference sets must admit a
common eigenvector with vanishing expectations, and factor-pair witnesses
must be shared eigenstates of the chosen shift and clock powers.  The
maximally entangled reference state is never materialized; acting on one
half of it turns overlap checks into d x d Gram computations.
"""

from math import gcd

import numpy as np
from scipy.linalg import schur

from .gpm import GbsSet, commutes, difference_set, is_commutative, weyl_exponent
from .modring import is_prime, smallest_prime_factor

__all__ = [
    "VERIFY_TOL",
    "EIGEN_TOL",
    "gpm_matrix",
    "weyl_relation_check",
    "eigensystem",
    "one_way_gram_check",
    "commuting_witness",
    "composite_witness",
    "max_abs_expectation",
]

VERIFY_TOL = 1e-9
EIGEN_TOL = 1e-8

_MAX_DENSE_DIM = 64
_COMBO_SEED = 1729  # fixed so the random linear combination is reproducible


def gpm_matrix(g, d: int) -> np.ndarray:
    """Dense unitary for the symbol (m, n): column c maps to omega^{n c} row c+m."""
    if not 2 <= d <= _MAX_DENSE_DIM:
        raise ValueError(f"dense matrices support 2 <= d <= {_MAX_DENSE_DIM}, got {d}")
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


def eigensystem(U) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a unitary via its complex Schur form.

    Returns (eigenvalues, vectors) with vectors[:, i] the unit eigenvector
    for eigenvalues[i].  The Schur basis of a normal matrix diagonalizes it,
    so the columns stay orthonormal even inside degenerate eigenspaces.
    Convergence failures from the underlying LAPACK call propagate as-is.
    """
    t, z = schur(np.asarray(U, dtype=complex), output="complex")
    return np.diag(t).copy(), z


def one_way_gram_check(S: GbsSet, witness) -> float:
    """Largest off-diagonal Gram entry of Bob's residual states.

    Alice measures in the witness eigenbasis; for each eigenvector v the
    states U_i v (U_i running over S) must be pairwise orthogonal for the
    protocol to be perfect.  The witness must lie in the discriminant set.
    """
    d = S.d
    for delta in sorted(difference_set(S)):
        if commutes(witness, delta, d):
            raise ValueError(
                f"witness {witness} commutes with difference {delta}; "
                "it does not lie in the discriminant set"
            )
    _, vecs = eigensystem(gpm_matrix(witness, d))
    mats = [gpm_matrix(g, d) for g in S.elements]
    size = len(mats)
    if size == 1:
        return 0.0
    off = ~np.eye(size, dtype=bool)
    worst = 0.0
    for col in range(d):
        v = vecs[:, col]
        bob = np.column_stack([u @ v for u in mats])
        gram = bob.conj().T @ bob
        worst = max(worst, float(np.abs(gram[off]).max()))
    return worst


def _cluster_eigenvalues(w, tol):
    order = np.lexsort((np.round(w.imag, 9), np.round(w.real, 9)))
    groups: list[list[int]] = []
    reps: list[complex] = []
    for i in order:
        for gi, rep in enumerate(reps):
            if abs(w[i] - rep) < tol:
                groups[gi].append(i)
                break
        else:
            groups.append([i])
            reps.append(w[i])
    return [np.asarray(g) for g in groups]


def _split_block(basis, mat, tol):
    if basis.shape[1] == 1:
        return [basis]
    sub = basis.conj().T @ mat @ basis
    t, z = schur(sub, output="complex")
    return [basis @ z[:, idx] for idx in _cluster_eigenvalues(np.diag(t), tol)]


def _joint_diagonalizer(mats, dim, tol=1e-8):
    """Unitary whose columns jointly diagonalize a commuting normal family.

    Schur-decomposes a fixed-seed random real combination first, then splits
    any block that stayed degenerate against each family member in turn.
    Surviving multi-dimensional blocks are joint eigenspaces, where any
    orthonormal basis serves.
    """
    rng = np.random.default_rng(_COMBO_SEED)
    coeffs = rng.standard_normal(len(mats))
    combo = sum(c * m for c, m in zip(coeffs, mats))
    blocks = [np.eye(dim, dtype=complex)]
    for mat in [combo, *mats]:
        blocks = [piece for b in blocks for piece in _split_block(b, mat, tol)]
        if all(b.shape[1] == 1 for b in blocks):
            break
    return np.hstack(blocks)


def commuting_witness(S: GbsSet) -> np.ndarray:
    """Unit vector with vanishing expectation on every difference of S.

    Valid when the difference set pairwise commutes: in a joint eigenbasis Q
    each difference is diagonal and traceless, so Q applied to the uniform
    vector averages each spectrum to zero exactly.
    """
    d = S.d
    deltas = sorted(difference_set(S))
    if not is_commutative(deltas, d):
        raise ValueError("difference set is not commutative; no common eigenbasis exists")
    beta = np.full(d, 1 / np.sqrt(d), dtype=complex)
    if not deltas:
        return beta
    q = _joint_diagonalizer([gpm_matrix(g, d) for g in deltas], d)
    return q @ beta


def composite_witness(S: GbsSet, s: int | None = None, t: int | None = None) -> np.ndarray:
    """Shared unit eigenstate of the shift power (s, 0) and clock power (0, t).

    Defaults to s = smallest prime factor of d, t = d // s.  Requires
    composite d and every difference of S to carry an invertible coordinate;
    the returned uniform comb over {0, s, ..., (t-1) s} then has exactly
    vanishing expectation on each difference.
    """
    d = S.d
    if is_prime(d):
        raise ValueError(f"modulus {d} is prime; no nontrivial factor pair exists")
    if s is None:
        s = smallest_prime_factor(d)
    if t is None:
        t = d // s
    if s < 2 or t < 2 or s * t != d:
        raise ValueError(f"invalid factor pair ({s}, {t}) for modulus {d}")
    for m, n in sorted(difference_set(S)):
        if gcd(m, d) != 1 and gcd(n, d) != 1:
            raise ValueError(
                f"difference ({m},{n}) has no invertible coordinate; "
                "the factor-pair witness does not apply"
            )
    gamma = np.zeros(d, dtype=complex)
    gamma[np.arange(t) * s] = 1 / np.sqrt(t)
    return gamma


def max_abs_expectation(vec, symbols, d: int) -> float:
    """Max over the symbols of |<v|U|v>| for a fixed vector v."""
    v = np.asarray(vec, dtype=complex)
    worst = 0.0
    for g in sorted(symbols):
        worst = max(worst, float(abs(np.vdot(v, gpm_matrix(g, d) @ v))))
    return worst
