"""Determinant-one 2x2 matrices over Z_d, the exponent action of the Clifford group.

Conjugating X^m Z^n by a Clifford unitary permutes the symbols linearly (up
to phase), so at the exponent level the Clifford group acts through these
matrices.  The action preserves the Weyl exponent of every pair, which is
why orbits under it preserve all distinguishability verdicts.

A matrix [[a1, b1], [a2, b2]] is the plain tuple (a1, b1, a2, b2); it maps
the symbol (m, n) to ((a1*m + b1*n) % d, (a2*m + b2*n) % d).
"""

from functools import lru_cache
from math import gcd

from .modring import is_prime

__all__ = ["enumerate_symplectic", "symplectic_order"]


@lru_cache(maxsize=64)
def enumerate_symplectic(d: int) -> tuple[tuple[int, int, int, int], ...]:
    """All (a1, b1, a2, b2) over Z_d with a1*b2 - a2*b1 = 1 (mod d), in
    lexicographic order."""
    out = []
    for a1 in range(d):
        # a1 * b2 = want (mod d) is solvable exactly when g = gcd(a1, d)
        # divides want, and then b2 runs over one solution mod q = d / g
        # and its shifts by q, ascending.
        g = gcd(a1, d)
        q = d // g
        inverse = pow(a1 // g, -1, q)
        for b1 in range(d):
            for a2 in range(d):
                want = (1 + a2 * b1) % d
                if want % g == 0:
                    first = want // g * inverse % q
                    out.extend((a1, b1, a2, b2) for b2 in range(first, d, q))
    return tuple(out)


def symplectic_order(d: int) -> int:
    """|SL(2, Z_d)| = d^3 prod over the primes p | d of (1 - p^-2), in closed form."""
    order = d ** 3
    for p in range(2, d + 1):
        if d % p == 0 and is_prime(p):
            order = order // (p * p) * (p * p - 1)
    return order
