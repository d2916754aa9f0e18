import math
from itertools import product

import pytest

from gbslocc.modring import (
    is_prime,
    set_bits,
    smallest_prime_factor,
    solve_weyl_congruence,
    weyl_rows,
)
from oracles import brute_congruence_solutions, brute_weyl_solutions


def test_weyl_rows_match_brute_force():
    # Row x of (m, n) holds exactly the y with n*x = m*y (mod d): none unless
    # r divides x, else a comb of gcd(m, d) teeth at stride d / gcd(m, d),
    # shifted by x // r * step mod q.  Nothing in the result grows with d
    # but the comb's bits.
    for d in range(2, 17):
        for m, n in product(range(d), repeat=2):
            rows = weyl_rows(m, n, d)
            assert all(type(v) is int for v in rows), (m, n, d)
            comb, r, step, q = rows
            g = math.gcd(m, d)
            assert q == d // g
            assert comb == sum(1 << t * q for t in range(g)), (m, n, d)
            assert 0 <= step < q and d % r == 0
            for x in range(d):
                want = brute_congruence_solutions(m, n * x, d)
                if x % r:
                    assert not want, (m, n, d, x)
                else:
                    shift = x // r * step % q
                    assert list(set_bits(comb << shift)) == sorted(want), (m, n, d, x)


def test_set_bits():
    assert list(set_bits(0)) == []
    assert list(set_bits(1)) == [0]
    assert list(set_bits(0b101001)) == [0, 3, 5]
    assert list(set_bits(1 << 1000 | 1 << 3)) == [3, 1000]


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


def test_weyl_congruence_normalizes_arguments():
    assert solve_weyl_congruence(-1, 7, 4) == solve_weyl_congruence(3, 3, 4)


def test_weyl_congruence_rejects_bad_modulus():
    with pytest.raises(ValueError):
        solve_weyl_congruence(1, 0, 1)
    with pytest.raises(ValueError):
        solve_weyl_congruence(1, 0, 0)


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
