"""Exact integer primitives: perfect-square tests, Legendre symbol, factorisation.

Everything here is plain arbitrary-precision integer arithmetic; nothing
returns a float.
"""

import math

__all__ = [
    "TRIAL_DIVISION_BOUND",
    "is_perfect_square",
    "legendre",
    "factorize",
]

TRIAL_DIVISION_BOUND = 10**6

# Squares land on only 44 of the 256 residues mod 256; the table rejects most
# non-squares without computing a root.
_SQUARES_MOD_256 = bytearray(256)
for _r in range(128):
    _SQUARES_MOD_256[(_r * _r) & 255] = 1
del _r


def is_perfect_square(n: int) -> int | None:
    """The nonnegative square root of n, or None when n is not a perfect square.

    Negative n is never a perfect square.
    """
    if n < 0 or not _SQUARES_MOD_256[n & 255]:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion.

    Returns 0 when p divides a, +1 when a is a nonzero quadratic residue
    mod p, and -1 otherwise.  a may be negative; it is reduced mod p first.

    p is validated by factorize, so a p it cannot factor (one that leaves a
    cofactor above TRIAL_DIVISION_BOUND**2) is rejected like a composite.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"{p} is not an odd prime")
    try:
        factors = factorize(p)
    except ValueError:
        raise ValueError(
            f"cannot verify primality of {p} by trial division up to "
            f"{TRIAL_DIVISION_BOUND}"
        ) from None
    if factors != [(p, 1)]:
        raise ValueError(f"{p} is composite ({factors[0][0]} divides it)")
    a %= p
    if a == 0:
        return 0
    # p is prime, so the criterion gives 1 or p - 1
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 as (prime, exponent) pairs, ascending.

    Trial division runs up to TRIAL_DIVISION_BOUND.  A cofactor left over
    below TRIAL_DIVISION_BOUND**2 has no factor below its square root and is
    prime; a larger one cannot be factored this way and raises ValueError.
    """
    if n < 1:
        raise ValueError(f"can only factorize positive integers, got {n}")
    given = n
    factors = []
    d = 2
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        if n > TRIAL_DIVISION_BOUND * TRIAL_DIVISION_BOUND:
            raise ValueError(
                f"cannot factor {given}: the cofactor {n} has no prime factor up "
                f"to {TRIAL_DIVISION_BOUND} and exceeds {TRIAL_DIVISION_BOUND}**2"
            )
        factors.append((n, 1))
    return factors

