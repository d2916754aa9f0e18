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


def _has_inverse(a, d):
    return any(a * u % d == 1 for u in range(d))


def brute_report(elements, d):
    """(verdict, mode, condition, witness, index cardinality) by the README
    ladder, on the full negation-closed difference set."""
    k = len(elements)
    diffs = brute_differences(elements, d)
    prime = prime_factors(d) == {d}
    index = None
    if prime and k >= 2:
        index = len({
            "inf" if m == 0 else next(y for y in range(d) if (m * y - n) % d == 0)
            for m, n in diffs
        })
    if k <= 3 and (k <= 2 or d >= 3):
        return "DISTINGUISHABLE", "FULL_LOCC", "SMALL_SET", None, index
    if k > d:
        return "INDISTINGUISHABLE", "FULL_LOCC", "TOO_MANY", None, index
    witness = brute_discriminant_witness(elements, d)
    if witness is not None:
        return "DISTINGUISHABLE", "ONE_WAY", "DISCRIMINANT", witness, index
    if all((b * c - a * e) % d == 0 for a, b in diffs for c, e in diffs):
        return "DISTINGUISHABLE", "ONE_WAY", "COMMUTATIVE", None, index
    if not prime and all(_has_inverse(m, d) or _has_inverse(n, d) for m, n in diffs):
        s = min(prime_factors(d))
        return "DISTINGUISHABLE", "ONE_WAY", "INVERTIBLE", (s, d // s), index
    if (d, k) == (4, 4):
        return "INDISTINGUISHABLE", "FULL_LOCC", "COMPLETE_D4", None, index
    if d == 5 and k in (4, 5):
        mode = "ONE_WAY" if k == 4 else "FULL_LOCC"
        return "INDISTINGUISHABLE", mode, "COMPLETE_D5", None, index
    return "INCONCLUSIVE", "FULL_LOCC", None, None, index


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


def brute_symplectic(d):
    """Every (a1, b1, a2, b2) over Z_d with determinant one, by testing all
    d^4 tuples, in lexicographic order."""
    return tuple(
        (a1, b1, a2, b2) for a1, b1, a2, b2 in product(range(d), repeat=4)
        if (a1 * b2 - a2 * b1) % d == 1
    )


def generated_group(d):
    """Closure of the Fourier (0, d-1, 1, 0) and phase (1, 0, 1, 1) matrices
    under products mod d, as (a1, b1, a2, b2) tuples of [[a1, b1], [a2, b2]]."""

    def times(w, g):
        a1, b1, a2, b2 = w
        c1, e1, c2, e2 = g
        return ((a1 * c1 + b1 * c2) % d, (a1 * e1 + b1 * e2) % d,
                (a2 * c1 + b2 * c2) % d, (a2 * e1 + b2 * e2) % d)

    gens = ((0, d - 1, 1, 0), (1, 0, 1, 1))
    seen = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = times(w, g)
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
        frontier = nxt
    return frozenset(seen)
