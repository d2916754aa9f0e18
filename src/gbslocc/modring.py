"""Exact arithmetic in Z_d: the Weyl congruence and prime factors.

Two Weyl operators (m, n) and (x, y) commute exactly when
n*x = m*y (mod d), and `weyl_rows` is the one solver of that congruence.
It describes the solutions row by row with four ints: for each x, the y
that solve it form a shifted d-bit comb.  The witness scan of `decide` ORs
these rows, the slope gap is row d - 1 of them (a pair excludes y exactly
when (d - 1, y) commutes with its difference), and `solve_weyl_congruence`
expands them into pairs.  All intermediates are Python ints, so moduli
well past 64 are safe from overflow.
"""

from functools import lru_cache
from math import gcd

__all__ = [
    "weyl_rows",
    "set_bits",
    "solve_weyl_congruence",
    "is_prime",
    "smallest_prime_factor",
]


@lru_cache(maxsize=256)
def weyl_rows(m: int, n: int, d: int) -> tuple[int, int, int, int]:
    """The symbols (x, y) commuting with (m, n) as (comb, r, step, q); m, n in [0, d).

    They solve m*y = n*x (mod d).  With g = gcd(m, d) and q = d / g, row x
    has solutions exactly when g divides n*x, that is when r divides x for
    r = g / gcd(g, n), and then they are

        y in set_bits(comb << (x // r * step % q)),

    where comb holds g teeth at stride q and
    step = (n / gcd(g, n)) * (m / g)^-1 (mod q).  m = 0 needs no special
    case: g = d and q = 1, so a row is either all covered or free.
    """
    g = gcd(m, d)
    q = d // g
    h = gcd(g, n)
    # Written out in binary, linear in the comb's own width (g - 1) q + 1,
    # so a single tooth (g = 1) costs nothing: a sum of g shifts is
    # quadratic when g is large, and the repunit quotient
    # (2^d - 1) // (2^q - 1) when g is small.
    comb = int(("1" + "0" * (q - 1)) * (g - 1) + "1", 2) if g > 1 else 1
    return comb, g // h, n // h * pow(m // g, -1, q) % q, q


def set_bits(mask: int) -> list[int]:
    """Positions of the one bits of mask, ascending, in time linear in its width."""
    # bin() read from its last digit; the reversed '0b' prefix holds no '1'.
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def solve_weyl_congruence(m: int, n: int, d: int) -> frozenset[tuple[int, int]]:
    """Complete solution set of n*x - m*y = 0 (mod d) over Z_d x Z_d.

    A pair (x, y) lies here exactly when the Weyl operators labelled (m, n)
    and (x, y) commute.  The set has d * gcd(m, n, d) pairs for
    (m, n) != (0, 0) and all d^2 pairs for the identity label.
    """
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    comb, r, step, q = weyl_rows(m % d, n % d, d)
    teeth = set_bits(comb)
    return frozenset(
        (x, y + k * step % q) for k, x in enumerate(range(0, d, r)) for y in teeth
    )


# Cached, because trial division costs O(sqrt(d)) and callers repeat the
# modulus: decide asks is_prime(d) once per set, so a `check --file` batch
# asks about one modulus thousands of times, and gpm.slope asks once per
# difference.
@lru_cache(maxsize=64)
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
