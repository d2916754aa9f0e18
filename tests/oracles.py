"""Brute-force reference implementations.

Everything here is deliberately dumb: direct scans and explicit matrix
products, sharing no code with the package, so the fast implementations
have something independent to be compared against.
"""

from itertools import product

import numpy as np


def brute_congruence_solutions(a, b, d):
    return frozenset(y for y in range(d) if (a * y - b) % d == 0)


def brute_weyl_solutions(m, n, d):
    return frozenset(
        (x, y) for x, y in product(range(d), repeat=2) if (n * x - m * y) % d == 0
    )


def brute_differences(elements, d):
    return {
        ((a - c) % d, (b - e) % d)
        for (a, b) in elements for (c, e) in elements if (a, b) != (c, e)
    }


def _commutes_with_none(x, y, diffs, d):
    return all((n * x - m * y) % d for m, n in diffs)


def brute_discriminant_witness(elements, d):
    """Least (x, y) whose Weyl exponent is nonzero against every difference."""
    diffs = brute_differences(elements, d)
    for x, y in product(range(d), repeat=2):
        if _commutes_with_none(x, y, diffs, d):
            return (x, y)
    return None


def brute_discriminant_set(elements, d):
    diffs = brute_differences(elements, d)
    return frozenset(
        (x, y) for x, y in product(range(d), repeat=2)
        if _commutes_with_none(x, y, diffs, d)
    )


def shift_matrix(d):
    out = np.zeros((d, d), dtype=complex)
    for j in range(d):
        out[(j + 1) % d, j] = 1.0
    return out


def clock_matrix(d):
    omega = np.exp(2j * np.pi / d)
    return np.diag([omega ** j for j in range(d)])


def brute_gpm_matrix(m, n, d):
    return np.linalg.matrix_power(shift_matrix(d), m) @ np.linalg.matrix_power(
        clock_matrix(d), n
    )


def prime_factors(n):
    factors = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors.add(p)
            n //= p
        p += 1
    if n > 1:
        factors.add(n)
    return factors


def symplectic_order(d):
    # |SL(2, Z_d)| = d^3 * prod over prime divisors of (1 - p^-2).
    total = d ** 3
    for p in prime_factors(d):
        total = total * (p * p - 1) // (p * p)
    return total
