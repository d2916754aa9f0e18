"""Exact arithmetic in Z_d: extended gcd, inverses, and congruence solvers.

Every residue is normalized into [0, d) at the function boundary, and
gcd(0, 0) is taken to be 0.  The solvers return complete solution sets as
frozensets so callers (and tests) can compare them verbatim against
brute-force scans.  All intermediates are Python ints, so moduli well past
64 are safe from overflow.
"""

from functools import lru_cache
from math import gcd

__all__ = [
    "gcd_ext",
    "mod_inverse",
    "solve_linear_congruence",
    "solve_weyl_congruence",
    "is_prime",
    "smallest_prime_factor",
]


def _check_modulus(d):
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")


def gcd_ext(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, u, v) with g = gcd(|a|, |b|) >= 0 and u*a + v*b = g."""
    sa = -1 if a < 0 else 1
    sb = -1 if b < 0 else 1
    r0, r1 = abs(a), abs(b)
    u0, u1 = 1, 0
    v0, v1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return r0, sa * u0, sb * v0


def mod_inverse(a: int, d: int) -> int | None:
    """Inverse of a modulo d, or None when a is not invertible."""
    _check_modulus(d)
    g, u, _ = gcd_ext(a % d, d)
    if g != 1:
        return None
    return u % d


def solve_linear_congruence(a: int, b: int, d: int) -> frozenset[int]:
    """All y in Z_d with a*y = b (mod d).

    Empty when gcd(a, d) does not divide b; all of Z_d when a = b = 0.
    """
    _check_modulus(d)
    return _linear_solutions(a % d, b % d, d)


@lru_cache(maxsize=65536)
def _linear_solutions(a, b, d):
    if a == 0:
        return frozenset(range(d)) if b == 0 else frozenset()
    g = gcd(a, d)
    if b % g:
        return frozenset()
    dg = d // g
    y0 = (b // g) * mod_inverse(a // g, dg) % dg
    return frozenset(y0 + t * dg for t in range(g))


def solve_weyl_congruence(m: int, n: int, d: int) -> frozenset[tuple[int, int]]:
    """Complete solution set of n*x - m*y = 0 (mod d) over Z_d x Z_d.

    A pair (x, y) lies here exactly when the Weyl operators labelled (m, n)
    and (x, y) commute.  The set has d * gcd(m, n, d) pairs for
    (m, n) != (0, 0) and all d^2 pairs for the identity label.
    """
    _check_modulus(d)
    return _weyl_solutions(m % d, n % d, d)


@lru_cache(maxsize=65536)
def _weyl_solutions(m, n, d):
    if m == 0 and n == 0:
        return frozenset((x, y) for x in range(d) for y in range(d))
    if m == 0:
        xs = range(0, d, d // gcd(n, d))
        return frozenset((x, y) for x in xs for y in range(d))
    if n == 0:
        ys = range(0, d, d // gcd(m, d))
        return frozenset((x, y) for x in range(d) for y in ys)
    # Both coordinates nonzero: the solutions are the multiples of the
    # primitive direction (m, n)/gcd(m, n), shifted independently in x and y
    # by multiples of d / gcd(m, n, d).
    g = gcd(m, n)
    gd = gcd(g, d)
    mg, ng = m // g, n // g
    offsets = range(0, d, d // gd)
    sols = set()
    for k in range(d // gd):
        xk, yk = mg * k, ng * k
        for ox in offsets:
            x = (xk + ox) % d
            for oy in offsets:
                sols.add((x, (yk + oy) % d))
    return frozenset(sols)


def smallest_prime_factor(d: int) -> int:
    if d < 2:
        raise ValueError(f"need an integer >= 2, got {d}")
    p = 2
    while p * p <= d:
        if d % p == 0:
            return p
        p += 1
    return d


def is_prime(d: int) -> bool:
    return d >= 2 and smallest_prime_factor(d) == d
