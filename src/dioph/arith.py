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

# Squares land on only 44 of the 256 residues mod 256, 16 of the 63 mod 63,
# 21 of the 65 mod 65, 6 of the 11 mod 11, and (p + 1)/2 of the p mod each
# prime p = 17, 19, 23 and 29.  The tables reject all but
# 44*16*21*6*9*10*12*15 / (256*63*65*11*17*19*23*29), about 1/1729, of
# uniformly random values before a root is computed (the first four alone
# leave 1/130).  They run in two stages, each on one residue below 2^30:
# the first four read n mod 256*45045 = 256*63*65*11, the last four
# n mod 215441 = 17*19*23*29.  A stage passes n exactly when it passes
# n's residue, so the Pell walk of dioph.extension runs them on its
# members' residues mod _SQUARE_MODULI.
_SQUARES_MOD_256 = bytearray(256)
_SQUARES_MOD_63 = bytearray(63)
_SQUARES_MOD_65 = bytearray(65)
_SQUARES_MOD_11 = bytearray(11)
_SQUARES_MOD_17 = bytearray(17)
_SQUARES_MOD_19 = bytearray(19)
_SQUARES_MOD_23 = bytearray(23)
_SQUARES_MOD_29 = bytearray(29)
for _table in (_SQUARES_MOD_256, _SQUARES_MOD_63, _SQUARES_MOD_65, _SQUARES_MOD_11,
               _SQUARES_MOD_17, _SQUARES_MOD_19, _SQUARES_MOD_23, _SQUARES_MOD_29):
    for _r in range(len(_table)):
        _table[_r * _r % len(_table)] = 1
del _table, _r

_SQUARE_MODULI = (256 * 45045, 215441)


def _first_square_stage(n: int) -> bool:
    # False only when n >= 0 is no square by the tables mod 256, 63, 65 and 11
    if not _SQUARES_MOD_256[n & 255]:
        return False
    res = n % 45045
    return bool(_SQUARES_MOD_63[res % 63] and _SQUARES_MOD_65[res % 65] and _SQUARES_MOD_11[res % 11])


def _second_square_stage(n: int) -> bool:
    # False only when n >= 0 is no square by the tables mod 17, 19, 23 and 29
    res = n % 215441
    return bool(_SQUARES_MOD_17[res % 17] and _SQUARES_MOD_19[res % 19]
                and _SQUARES_MOD_23[res % 23] and _SQUARES_MOD_29[res % 29])


def is_perfect_square(n: int) -> int | None:
    """The nonnegative square root of n, or None when n is not a perfect square.

    Negative n is never a perfect square.
    """
    if n < 0 or not (_first_square_stage(n) and _second_square_stage(n)):
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

