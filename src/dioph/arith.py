"""Exact integer primitives: perfect-square tests, Legendre symbol,
factorisation, and the square roots of k modulo n.

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


def _sqrt_mod(k: int, n: int) -> list[int]:
    """Every z in [0, n) with z^2 = k (mod n), ascending, for n >= 1.

    The roots mod each prime power p**e of factorize(n) are combined by
    CRT, so a factorisation that raises raises here too.  Past the
    factorisation, each prime power costs at most one Tonelli-Shanks root
    and a Hensel lift, and each root one CRT step.
    """
    zs, size = [0], 1
    for p, e in factorize(n):
        roots = _roots_mod_prime_power(k, p, e)
        if not roots:
            return []
        q = p**e
        zs, size = _crt(zs, size, roots, q), size * q
    return sorted(zs)


def _crt(zs: list[int], n: int, roots: list[int], q: int) -> list[int]:
    """Every residue mod n*q that is one of zs mod n and one of roots mod q,
    for coprime n and q."""
    inv = pow(n, -1, q)
    return [z + n * ((r - z) * inv % q) for z in zs for r in roots]


def _roots_mod_prime_power(D: int, p: int, e: int) -> list[int]:
    """Every z in [0, p**e) with z^2 = D (mod p**e), for a prime p."""
    q = p**e
    D %= q
    if D == 0:
        return list(range(0, q, p ** ((e + 1) // 2)))
    v = 0
    while D % p == 0:
        D //= p
        v += 1
    if v % 2:
        return []
    # z = p**h * w with w^2 = D/p**v (mod p**(e-v)); w is free mod p**(e-h)
    h = v // 2
    step = p ** (e - h)
    return [
        p**h * w + t * step
        for w in _unit_roots_mod_prime_power(D, p, e - v)
        for t in range(p**h)
    ]


def _unit_roots_mod_prime_power(u: int, p: int, j: int) -> list[int]:
    """Every w in [0, p**j) with w^2 = u (mod p**j), for u prime to p."""
    q = p**j
    if p == 2:
        if j <= 2:
            return [w for w in range(1, q, 2) if (w * w - u) % q == 0]
        if u % 8 != 1:
            return []
        w = 1
        for i in range(3, j):  # w^2 = u (mod 2**i) -> (mod 2**(i+1)), w < 2**(i-1)
            if (w * w - u) >> i & 1:
                w += 1 << (i - 1)
        half = q >> 1
        return [w, q - w, half + w, half - w]
    w = _sqrt_mod_prime(u % p, p)
    if w is None:
        return []
    precision = p
    while precision < q:  # Newton steps double the p-adic precision
        precision = min(precision * precision, q)
        w = (w - (w * w - u) * pow(2 * w, -1, precision)) % precision
    return [w, q - w]


def _sqrt_mod_prime(u: int, p: int) -> int | None:
    """A root of w^2 = u (mod p) for an odd prime p and u prime to p
    (Tonelli-Shanks), or None when u is a non-residue."""
    if pow(u, (p - 1) // 2, p) != 1:
        return None
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    t, w = pow(u, odd, p), pow(u, (odd + 1) // 2, p)
    if t == 1:  # always so for p = 3 (mod 4); no non-residue is needed
        return w
    c = 2
    while pow(c, (p - 1) // 2, p) == 1:
        c += 1
    c = pow(c, odd, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (twos - i - 1), p)
        twos, c, t, w = i, b * b % p, t * b * b % p, w * b % p
    return w
