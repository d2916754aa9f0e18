import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gbslocc.decide import SMALL_SET, decide, discriminant_set
from gbslocc.gpm import GbsSet, all_gpms, difference_set, is_commutative, weyl_exponent
from gbslocc.numerics import (
    VERIFY_TOL,
    certify,
    commuting_witness,
    composite_witness,
    eigenvector,
    max_abs_expectation,
    one_way_gram_check,
    weyl_apply,
)
from oracles import brute_gpm_matrix

L1 = GbsSet(6, ((0, 0), (0, 1), (1, 0), (1, 4), (5, 5)))
L2 = GbsSet(4, ((1, 2), (1, 0), (3, 2), (3, 0)))
L4 = GbsSet(4, ((1, 2), (1, 3), (2, 2), (0, 1)))
K4 = GbsSet(4, ((0, 0), (2, 0), (0, 2), (2, 2)))

# The certificates are exact closed forms; only rounding separates them
# from the dense matrices.
CLOSED_FORM_TOL = 1e-12

SRC = Path(__file__).resolve().parents[1] / "src"


def weyl_matrix(g, d):
    """The dense matrix of weyl_apply: column c is U_g applied to |c>."""
    return np.array([weyl_apply(g, np.eye(d)[c], d) for c in range(d)]).T


def test_weyl_apply_matches_shift_clock_products():
    for d in range(2, 9):
        for g in sorted(all_gpms(d)):
            np.testing.assert_allclose(
                weyl_matrix(g, d), brute_gpm_matrix(g[0], g[1], d), atol=1e-12
            )


def test_weyl_apply_is_unitary():
    for d in (2, 5, 8):
        for g in sorted(all_gpms(d)):
            u = weyl_matrix(g, d)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)


def test_certificate_dimension_guard():
    message = "certificates are checked at 2 <= d <= 64 only, got 65"
    with pytest.raises(ValueError, match=message):
        eigenvector((0, 0), 65)
    with pytest.raises(ValueError):
        eigenvector((0, 0), 1)
    with pytest.raises(ValueError, match=message):
        max_abs_expectation([1] + [0] * 64, {(0, 1)}, 65)


def test_trace_vanishes_off_identity():
    for d in (3, 4, 6):
        assert abs(np.trace(weyl_matrix((0, 0), d)) - d) < 1e-12
        for g in all_gpms(d) - {(0, 0)}:
            assert abs(np.trace(weyl_matrix(g, d))) < 1e-12


def test_weyl_relation_at_matrix_level():
    # U_a U_b = omega^e U_b U_a, applied to every basis vector.
    worst = 0.0
    for d in range(2, 7):
        basis = np.eye(d)
        for a in all_gpms(d):
            for b in all_gpms(d):
                phase = np.exp(2j * np.pi * weyl_exponent(a, b, d) / d)
                for e in basis:
                    ab = weyl_apply(a, weyl_apply(b, e, d), d)
                    ba = weyl_apply(b, weyl_apply(a, e, d), d)
                    worst = max(worst, np.abs(np.subtract(ab, phase * np.array(ba))).max())
    assert worst < VERIFY_TOL


def _assert_unit_eigenvector(g, d):
    vec = np.array(eigenvector(g, d))
    image = brute_gpm_matrix(g[0], g[1], d) @ vec
    value = np.vdot(vec, image)
    assert abs(np.linalg.norm(vec) - 1.0) < CLOSED_FORM_TOL
    assert abs(abs(value) - 1.0) < CLOSED_FORM_TOL
    np.testing.assert_allclose(image, value * vec, rtol=0, atol=CLOSED_FORM_TOL)


def test_eigenvector_is_a_unit_eigenvector():
    for d in range(2, 17):
        for g in sorted(all_gpms(d)):
            _assert_unit_eigenvector(g, d)
    # The shifts give every cycle length 1, 2, 4, ..., 64.
    sample = (0, 1, 2, 3, 4, 8, 16, 21, 32, 63)
    for m in sample:
        for n in sample:
            _assert_unit_eigenvector((m, n), 64)


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


def test_one_way_gram_check_on_the_64_set_is_fast():
    # One eigenvector against 63 differences, not the whole eigenbasis.
    S = GbsSet(64, tuple((0, n) for n in range(64)))
    witness = decide(S).witness
    start = time.perf_counter()
    deviation = one_way_gram_check(S, witness)
    assert time.perf_counter() - start < 0.25
    assert deviation < VERIFY_TOL


def test_commuting_witness_kills_all_differences():
    for S in (L2, K4, GbsSet(5, ((0, 0), (0, 1), (0, 2), (0, 3)))):
        vec = commuting_witness(S)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert max_abs_expectation(vec, difference_set(S), S.d) < VERIFY_TOL


def _subgroups(d):
    """Every subgroup of Z_d^2, once each, in Hermite normal form
    <(a, b), (0, c)> with a | d, c | d, 0 <= b < c and (d / a) b = 0 mod c."""
    divisors = [a for a in range(1, d + 1) if d % a == 0]
    for a in divisors:
        for c in divisors:
            for b in range(c):
                if (d // a) * b % c == 0:
                    yield frozenset(
                        (t * a % d, (t * b + u * c) % d)
                        for t in range(d // a)
                        for u in range(d // c)
                    )


def test_subgroup_enumeration_matches_spans_of_pairs():
    for d in range(2, 7):
        gpms = sorted(all_gpms(d))
        spans = {
            frozenset(
                ((t * a[0] + u * b[0]) % d, (t * a[1] + u * b[1]) % d)
                for t in range(d)
                for u in range(d)
            )
            for a in gpms
            for b in gpms
        }
        listed = list(_subgroups(d))
        assert len(listed) == len(set(listed))
        assert set(listed) == spans


def test_commuting_witness_covers_every_isotropic_subgroup():
    for d in range(2, 13):
        for H in _subgroups(d):
            if not is_commutative(H, d):
                continue
            S = GbsSet(d, tuple(sorted(H)))
            vec = commuting_witness(S)
            assert abs(np.linalg.norm(vec) - 1.0) < CLOSED_FORM_TOL
            assert max_abs_expectation(vec, difference_set(S), d) < CLOSED_FORM_TOL


def test_commuting_witness_rejects_noncommutative_differences():
    with pytest.raises(ValueError):
        commuting_witness(GbsSet(4, ((0, 0), (1, 0), (0, 1), (2, 0))))


def test_composite_witness_kills_all_differences():
    for S in (L4, GbsSet(4, ((0, 0), (1, 0), (0, 1), (3, 3)))):
        vec = composite_witness(S)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert max_abs_expectation(vec, difference_set(S), S.d) < VERIFY_TOL


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


def test_max_abs_expectation_reports_non_unit_vectors():
    # Both vectors have zero expectation on (1, 0); only the norm is wrong.
    doubled = [2.0] + [0.0] * 3
    assert max_abs_expectation(doubled, {(1, 0)}, 4) >= 1.0
    assert max_abs_expectation([0j] * 4, {(1, 0)}, 4) >= 1.0
    assert max_abs_expectation([0j] * 4, set(), 4) >= 1.0


def test_certify_names_the_check_of_each_constructive_condition():
    for S, check in ((L1, "one_way_gram"), (L2, "commuting_witness"),
                     (L4, "composite_witness")):
        name, deviation = certify(S, decide(S))
        assert name == check
        assert deviation < VERIFY_TOL
    assert certify(L1, decide(L1))[1] == one_way_gram_check(L1, decide(L1).witness)
    # SMALL_SET, COMPLETE_D4 and INCONCLUSIVE verdicts carry no certificate.
    small = GbsSet(4, ((0, 0), (1, 0)))
    assert decide(small).condition == SMALL_SET
    for S in (small, GbsSet(4, ((0, 0), (0, 1), (1, 0), (1, 2))),
              GbsSet(6, ((2, 3), (2, 0), (5, 3), (5, 0)))):
        assert certify(S, decide(S)) is None


def test_cli_import_adds_no_third_party_package():
    # The package has no runtime dependency: the command line, numerics
    # included, pulls in nothing beyond the standard library.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gbslocc.cli\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'gbslocc'}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
