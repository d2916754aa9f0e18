import numpy as np
import pytest

from gbslocc.decide import decide, discriminant_set
from gbslocc.gpm import GbsSet, all_gpms, difference_set
from gbslocc.numerics import (
    EIGEN_TOL,
    VERIFY_TOL,
    commuting_witness,
    composite_witness,
    eigensystem,
    gpm_matrix,
    max_abs_expectation,
    one_way_gram_check,
    weyl_relation_check,
)
from oracles import brute_gpm_matrix

L1 = GbsSet(6, ((0, 0), (0, 1), (1, 0), (1, 4), (5, 5)))
L2 = GbsSet(4, ((1, 2), (1, 0), (3, 2), (3, 0)))
L4 = GbsSet(4, ((1, 2), (1, 3), (2, 2), (0, 1)))
K4 = GbsSet(4, ((0, 0), (2, 0), (0, 2), (2, 2)))


def test_gpm_matrix_matches_shift_clock_products():
    for d in range(2, 9):
        for g in sorted(all_gpms(d)):
            np.testing.assert_allclose(
                gpm_matrix(g, d), brute_gpm_matrix(g[0], g[1], d), atol=1e-12
            )


def test_gpm_matrix_is_unitary():
    for d in (2, 5, 8):
        for g in sorted(all_gpms(d)):
            u = gpm_matrix(g, d)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)


def test_gpm_matrix_dimension_guard():
    with pytest.raises(ValueError):
        gpm_matrix((0, 0), 65)
    with pytest.raises(ValueError):
        gpm_matrix((0, 0), 1)


def test_trace_vanishes_off_identity():
    for d in (3, 4, 6):
        assert abs(np.trace(gpm_matrix((0, 0), d)) - d) < 1e-12
        for g in all_gpms(d) - {(0, 0)}:
            assert abs(np.trace(gpm_matrix(g, d))) < 1e-12


def test_weyl_relation_at_matrix_level():
    worst = 0.0
    for d in range(2, 7):
        for a in all_gpms(d):
            for b in all_gpms(d):
                worst = max(worst, weyl_relation_check(a, b, d))
    assert worst < VERIFY_TOL


def test_eigensystem_residual_and_orthonormality():
    for d in (4, 5, 6):
        for g in sorted(all_gpms(d)):
            u = gpm_matrix(g, d)
            values, vectors = eigensystem(u)
            np.testing.assert_allclose(
                u @ vectors, vectors * values[None, :], atol=EIGEN_TOL
            )
            np.testing.assert_allclose(
                vectors.conj().T @ vectors, np.eye(d), atol=EIGEN_TOL
            )


def test_eigensystem_handles_degenerate_spectra():
    # X^2 at d = 4 has eigenvalues +-1, each twice.
    values, vectors = eigensystem(gpm_matrix((2, 0), 4))
    assert sorted(np.round(values.real).astype(int)) == [-1, -1, 1, 1]
    np.testing.assert_allclose(
        vectors.conj().T @ vectors, np.eye(4), atol=EIGEN_TOL
    )


def test_one_way_gram_check_certifies_discriminant_witnesses():
    report = decide(L1)
    assert one_way_gram_check(L1, report.witness) < VERIFY_TOL
    for witness in sorted(discriminant_set(L1)):
        assert one_way_gram_check(L1, witness) < VERIFY_TOL


def test_one_way_gram_check_rejects_non_witness():
    with pytest.raises(ValueError):
        one_way_gram_check(L1, (0, 1))


def test_one_way_gram_check_trivial_singleton():
    assert one_way_gram_check(GbsSet(4, ((1, 2),)), (0, 1)) == 0.0


def test_commuting_witness_kills_all_differences():
    for S in (L2, K4, GbsSet(5, ((0, 0), (0, 1), (0, 2), (0, 3)))):
        vec = commuting_witness(S)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert max_abs_expectation(vec, difference_set(S), S.d) < VERIFY_TOL


def test_commuting_witness_rejects_noncommutative_differences():
    with pytest.raises(ValueError):
        commuting_witness(GbsSet(4, ((0, 0), (1, 0), (0, 1), (2, 0))))


def test_composite_witness_kills_all_differences():
    for S in (L4, GbsSet(4, ((0, 0), (1, 0), (0, 1), (3, 3)))):
        vec = composite_witness(S)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert max_abs_expectation(vec, difference_set(S), S.d) < VERIFY_TOL


def test_composite_witness_explicit_factors():
    vec = composite_witness(L4, 2, 2)
    assert max_abs_expectation(vec, difference_set(L4), 4) < VERIFY_TOL
    with pytest.raises(ValueError):
        composite_witness(L4, 2, 3)


def test_composite_witness_rejects_prime_modulus():
    with pytest.raises(ValueError):
        composite_witness(GbsSet(5, ((0, 0), (0, 1), (1, 0), (1, 1))))


def test_composite_witness_rejects_uncovered_difference():
    # (2,0) has no invertible coordinate at d = 4.
    with pytest.raises(ValueError):
        composite_witness(GbsSet(4, ((0, 0), (2, 0))))


def test_max_abs_expectation_known_value():
    # |<0| Z |0>| = 1 at any d.
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1.0
    assert abs(max_abs_expectation(vec, {(0, 1)}, 4) - 1.0) < 1e-12
