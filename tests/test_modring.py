import math
from itertools import product

import pytest

from gbslocc.modring import (
    gcd_ext,
    is_prime,
    mod_inverse,
    smallest_prime_factor,
    solve_linear_congruence,
    solve_weyl_congruence,
)
from oracles import brute_congruence_solutions, brute_inverse, brute_weyl_solutions


def test_gcd_ext_bezout_identity():
    for a in range(-30, 31):
        for b in range(-30, 31):
            g, u, v = gcd_ext(a, b)
            assert g == math.gcd(a, b)
            assert u * a + v * b == g


def test_mod_inverse_matches_brute_force():
    for d in range(2, 14):
        for a in range(-d, 2 * d):
            assert mod_inverse(a, d) == brute_inverse(a % d, d)


def test_mod_inverse_known_values():
    assert mod_inverse(3, 4) == 3
    assert mod_inverse(2, 4) is None
    assert mod_inverse(4, 5) == 4


def test_solve_linear_congruence_matches_brute_force():
    for d in range(2, 13):
        for a, b in product(range(d), repeat=2):
            assert solve_linear_congruence(a, b, d) == brute_congruence_solutions(
                a, b, d
            ), (a, b, d)


def test_solve_linear_congruence_normalizes_arguments():
    assert solve_linear_congruence(-1, 7, 4) == solve_linear_congruence(3, 3, 4)


def test_solve_linear_congruence_degenerate_coefficient():
    # 0*y = b has every solution or none.
    assert solve_linear_congruence(0, 0, 5) == frozenset(range(5))
    assert solve_linear_congruence(0, 3, 5) == frozenset()


def test_solve_linear_congruence_rejects_bad_modulus():
    with pytest.raises(ValueError):
        solve_linear_congruence(1, 0, 1)
    with pytest.raises(ValueError):
        solve_linear_congruence(1, 0, 0)


def test_weyl_congruence_matches_brute_force():
    for d in range(2, 13):
        for m, n in product(range(d), repeat=2):
            assert solve_weyl_congruence(m, n, d) == brute_weyl_solutions(m, n, d), (
                m,
                n,
                d,
            )


def test_weyl_congruence_count_law():
    # |S(m,n)| = d * gcd(m, n, d) for every nonidentity symbol.
    for d in range(2, 13):
        for m, n in product(range(d), repeat=2):
            if (m, n) == (0, 0):
                continue
            assert len(solve_weyl_congruence(m, n, d)) == d * math.gcd(math.gcd(m, n), d)


def test_weyl_congruence_identity_generator():
    # Everything commutes with the identity.
    assert len(solve_weyl_congruence(0, 0, 6)) == 36


def test_weyl_congruence_spot_values():
    # (m,n) = (1,2) at d=4: 2x - y = 0, one y per x.
    assert solve_weyl_congruence(1, 2, 4) == frozenset(
        {(0, 0), (1, 2), (2, 0), (3, 2)}
    )


def test_smallest_prime_factor():
    assert smallest_prime_factor(4) == 2
    assert smallest_prime_factor(9) == 3
    assert smallest_prime_factor(35) == 5
    for d in range(2, 200):
        p = smallest_prime_factor(d)
        assert d % p == 0
        assert all(p % q for q in range(2, p))


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for d in range(2, 50):
        assert is_prime(d) == (d in primes)
