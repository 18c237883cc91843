"""Pell equations x^2 - D*y^2 = N.

The fundamental solution of the unit equation (N = 1), the complete set of
solution classes of the generalized equation for arbitrary N != 0, and the
walk through a class by increasing y; the solutions of the unit equation are
the one class, that of (1, 0).  The unit and the classes both come from one
pass over the period of the continued fraction of sqrt(D), which stays internal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from .arith import factorize, is_perfect_square

__all__ = [
    "PellSolution",
    "PellProblem",
    "PellClass",
    "fundamental_solution",
    "solve_general",
]


@dataclass(frozen=True)
class PellSolution:
    x: int
    y: int


@dataclass(frozen=True)
class PellProblem:
    """x^2 - D*y^2 = N with D >= 2 non-square and N nonzero."""

    D: int
    N: int = 1

    def __post_init__(self) -> None:
        _require_nonsquare(self.D)
        if self.N == 0:
            raise ValueError("N must be nonzero")


def _require_nonsquare(D: int) -> None:
    if D < 2 or is_perfect_square(D) is not None:
        raise ValueError(f"D must be a non-square integer >= 2, got {D}")


def _expand(
    D: int,
) -> tuple[int, set[tuple[int, int]], tuple[int, int], tuple[int, int] | None]:
    """One period of the continued fraction sqrt(D) = [a0; a1, ..., aL],
    which ends at the first partial quotient aL = 2*a0.

    Returns a0; the states (P, Q) of the period, the complete quotients
    (P + sqrt(D))/Q of the principal cycle; and the fundamental solutions of
    x^2 - D*y^2 = 1 and of x^2 - D*y^2 = -1, the latter None when -1 is not
    a norm.  One pass of the classical recurrence on (P, Q, a) finds them
    all: the convergents p/q advance with each partial quotient before the
    closing 2*a0, and the last of them, [a0; a1, ..., a(L-1)], has
    p^2 - D*q^2 = (-1)^L.  For even L that is the unit and -1 is not a norm;
    for odd L it is the norm -1 solution and its square is the unit.  D is
    a non-square >= 2.
    """
    a0 = isqrt(D)
    P, Q, a = 0, 1, a0
    p, p0, q, q0 = a0, 1, 1, 0  # the convergent a0/1 and the one before it
    states = set()
    while True:
        P = Q * a - P
        Q = (D - P * P) // Q
        a = (a0 + P) // Q
        states.add((P, Q))
        if a == 2 * a0:
            break
        p, p0 = a * p + p0, p
        q, q0 = a * q + q0, q
    if p * p - D * q * q == 1:
        return a0, states, (p, q), None
    return a0, states, (p * p + D * q * q, 2 * p * q), (p, q)


def fundamental_solution(D: int) -> PellSolution:
    """Minimal solution of x^2 - D*y^2 = 1 with y >= 1, from the convergents
    of sqrt(D)."""
    _require_nonsquare(D)
    return PellSolution(*_expand(D)[2])


@dataclass(frozen=True)
class PellClass:
    """One class of solutions of x^2 - D*y^2 = N: the members +/- rep * unit**n
    for n in Z.

    The class may be built on any of its members; construction replaces rep
    by the member of least y >= 0, x >= 0 on a tie (_least_member), so two
    classes built on members of one class compare equal.
    """

    problem: PellProblem
    rep: PellSolution
    unit: PellSolution

    def __post_init__(self) -> None:
        D, N = self.problem.D, self.problem.N
        x, y = self.rep.x, self.rep.y
        if x * x - D * y * y != N:
            raise ValueError("rep does not satisfy the defining equation")
        if self.unit.x * self.unit.x - D * self.unit.y * self.unit.y != 1:
            raise ValueError("unit does not satisfy the unit equation")
        least = _least_member(D, self.unit.x, self.unit.y, x, y)
        object.__setattr__(self, "rep", PellSolution(*least))

    def walk(self) -> Iterator[tuple[int, int]]:
        """The signed members rep * unit**n for n = 0, 1, 2, ..., without
        end, from the member of least |y| that construction stored as rep.

        The member at n = -s is, up to sign, the conjugate of the mirror
        class's member at n = s (the mirror is the class of (-x, y)), or at
        n = s - 1 when rep ties in |y| with the member behind it and the
        class is its own mirror.  So the first s + 1 members of a class and
        of its mirror meet all members at -s <= n <= s of both.
        """
        x1, y1 = self.unit.x, self.unit.y
        Dy1 = self.problem.D * y1
        u, v = self.rep.x, self.rep.y
        while True:
            yield u, v
            u, v = u * x1 + v * Dy1, u * y1 + v * x1

    def solutions(self) -> Iterator[PellSolution]:
        """Every solution with x, y >= 0 lying in this class, by increasing y:
        the members of walk() whose coordinates share a sign.

        Write a member as beta = u + v*sqrt(D), with conjugate N/beta.  Its
        coordinates share a sign (or one is 0) exactly when
        |beta|^2 >= |N|, and 2*sqrt(D)*|v| = | |beta| - N/|beta| | falls as
        |beta| rises to sqrt(|N|) and rises after it.  A unit step raises
        |beta|, so the walk forwards from the member of least |v| (rep)
        meets every member of one sign, by strictly increasing |v|.  Only
        the member it starts at can have mixed signs, and every member
        behind it does; such a member and its negation give no solution with
        x, y >= 0.  A member with both coordinates <= 0 contributes its
        negation, which lies in the same class.  The walk never ends.
        """
        for u, v in self.walk():
            if u >= 0 and v >= 0:
                yield PellSolution(u, v)
            elif u <= 0 and v <= 0:
                yield PellSolution(-u, -v)


def solve_general(problem: PellProblem) -> list[PellClass]:
    """All solution classes of x^2 - D*y^2 = N.

    Uses the Lagrange-Matthews-Mollin reduction (J. P. Robertson, "Solving
    the generalized Pell equation x^2 - Dy^2 = N", 2004; K. Matthews,
    Expo. Math. 18, 2000).  Every solution with gcd(x, y) = f is f times a
    primitive solution of x^2 - D*y^2 = m, m = N/f^2, and the primitive
    classes correspond one to one with the roots z of z^2 = D (mod |m|) in
    (-|m|/2, |m|/2] that carry a solution.  The continued fraction of
    (z + sqrt(D))/|m| finds that solution at its first Q_i = +-1 within one
    period, or shows there is none; the root -z carries the conjugate
    class.  The result is therefore complete, whatever the size of the
    fundamental unit.

    A square shared by D and N is divided out first, since the number of
    roots z, and so of expansions, grows with it.  With s the largest
    integer such that s^2 divides both, s^2 divides x^2 = N + D*y^2, so
    s | x, and x = s*x' maps the solutions one to one onto those of
    x'^2 - (D/s^2)*y^2 = N/s^2.  A unit u + v*sqrt(D) acts on them as the
    reduced unit u + s*v*sqrt(D/s^2), so the units of D are the
    +-e'**(r*n), e' the unit of D/s^2 and r the least power of e' whose y
    is divisible by s.  Each reduced class therefore splits into the r
    classes of rep * e'**i, 0 <= i < r.  With s = 1, r = 1 and nothing
    splits.

    Each class holds its member of least y >= 0 (x >= 0 on a tie) as rep,
    and the classes are sorted by (rep.y, rep.x < 0).  |N| is factored by
    trial division (see dioph.arith.factorize), which raises ValueError when
    it leaves a cofactor above TRIAL_DIVISION_BOUND**2.

    The classes are built from the integers of _class_points, which the
    Pell walk of dioph.extension reads directly.
    """
    points, (x1, y1) = _class_points(problem.D, problem.N)
    unit = PellSolution(x1, y1)
    return [PellClass(problem, PellSolution(x, y), unit) for x, y in points]


def _class_points(D: int, N: int) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """solve_general's classes of x^2 - D*y^2 = N as plain integers: the
    least member (x, y) of each class, sorted by (y, x < 0), and the
    fundamental unit (x1, y1) of D.  N is nonzero and D >= 1.

    A square D, which PellProblem rejects, has no unit to walk by: the
    equation has finitely many solutions with x, y >= 0, each one its own
    class, and they come sorted by y with the unit (1, 0), which fixes
    every point.
    """
    factors = factorize(abs(N))
    if is_perfect_square(D) is not None:
        return _square_discriminant_solutions(D, N, factors), (1, 0)
    s = 1
    for i, (p, e) in enumerate(factors):
        q = p * p
        while e >= 2 and D % q == 0:
            D, N, s, e = D // q, N // q, s * p, e - 2
        factors[i] = p, e  # now a factorisation of |N| / s^2
    a0, principal, (x1, y1), negative_unit = _expand(D)
    # (f, |m|, the roots of D modulo |m|) for each f with f^2 | N, m = N/f^2,
    # one prime power p**e of |N| at a time: p**h in f leaves p**(e-2h) in |m|
    parts = [(1, 1, [0])]
    for p, e in factors:
        grown = []
        for h in range(e // 2 + 1):
            q = p ** (e - 2 * h)
            if q == 1:  # the one root 0 of D mod 1 leaves each zs as it is
                grown += [(f * p**h, size, zs) for f, size, zs in parts]
            elif roots := _roots_mod_prime_power(D, p, e - 2 * h):
                grown += [(f * p**h, size * q, _crt(zs, size, roots, q)) for f, size, zs in parts]
            # a q with no root leaves that f no class, and no part
        parts = grown
    reps: list[tuple[int, int]] = []
    for f, size, zs in parts:
        m = N // (f * f)
        for z in zs:
            if 2 * z > size:
                continue  # -z < |m|/2 is a root too; its class is the conjugate
            xy = _lmm_solution(D, a0, principal, negative_unit, z, m)
            if xy is None:
                continue
            reps.append((f * xy[0], f * xy[1]))
            if 0 < 2 * z < size:
                reps.append((-f * xy[0], f * xy[1]))
    powers = [(1, 0)]  # e'**i for 0 <= i < r
    ux, uy = x1, y1
    while uy % s:
        powers.append((ux, uy))
        ux, uy = ux * x1 + D * uy * y1, ux * y1 + uy * x1
    unit = ux, uy // s
    full = D * s * s  # the D asked about
    points = [
        _least_member(full, *unit, s * (u * px + D * v * py), u * py + v * px)
        for u, v in reps
        for px, py in powers
    ]
    points.sort(key=lambda xy: (xy[1], xy[0] < 0))
    return points, unit


def _square_discriminant_solutions(
    D: int, N: int, factors: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    # X^2 - d^2*Y^2 = N is (X - d*Y)(X + d*Y) = lo*hi = N, factors being those
    # of |N|.  X, Y >= 0 means 0 < |lo| <= hi, so each point comes from one
    # divisor lo of N with the sign of N and lo^2 <= |N|.  Sorted by X, the
    # points are sorted by Y too, as X^2 = N + D*Y^2.
    d = isqrt(D)
    los = [1 if N > 0 else -1]
    for p, power in factors:
        los = [q * p**i for q in los for i in range(power + 1)]
    points = []
    for lo in los:
        hi = N // lo
        if -hi <= lo <= hi and (lo + hi) % 2 == 0 and (hi - lo) % (2 * d) == 0:
            points.append(((lo + hi) // 2, (hi - lo) // (2 * d)))
    return sorted(points)


def _lmm_solution(
    D: int,
    a0: int,
    principal: set[tuple[int, int]],
    negative_unit: tuple[int, int] | None,
    z: int,
    m: int,
) -> tuple[int, int] | None:
    """A solution of x^2 - D*y^2 = m in the class belonging to the root z,
    or None when that class is empty.  a0 is isqrt(D)."""
    P, Q = z, abs(m)
    G1, G0, B1, B0 = abs(m), -z, 0, 1  # G_{i-1}, G_{i-2}, B_{i-1}, B_{i-2}
    while True:
        a = (P + a0) // Q if Q > 0 else (P + a0 + 1) // Q
        G1, G0 = a * G1 + G0, G1
        B1, B0 = a * B1 + B0, B1
        P = a * Q - P
        Q = (D - P * P) // Q
        if Q == 1 or Q == -1:
            break
        # From its first reduced term on, the expansion is purely periodic.
        # Only the cycle of sqrt(D) itself holds a term with Q = 1, a0+sqrt(D).
        if 0 < P <= a0 and a0 - P < Q <= a0 + P and (P, Q) not in principal:
            return None
    # G^2 - D*B^2 = +-|m| = +-m; a norm -1 unit turns -m into m
    if G1 * G1 - D * B1 * B1 == m:
        return G1, B1
    if negative_unit is None:
        return None
    t, u = negative_unit
    return G1 * t + D * B1 * u, G1 * u + B1 * t


def _least_member(D: int, x1: int, y1: int, x: int, y: int) -> tuple[int, int]:
    """The member of the class of (x, y) with least y >= 0, x >= 0 on a tie.

    Along rep * unit**n, 2*sqrt(D)*y = alpha*e**n - alpha'*e**-n with
    alpha*alpha' = N: monotone in n for N > 0, convex and of one sign for
    N < 0.  Either way |y| falls and then rises, so the walk stops at the
    least |y|, and a tie can only be with one neighbour.  (x1, y1) is the
    fundamental unit of D.
    """
    while True:
        # the y of the neighbours (x, y) * unit**(+-1); their x only on a step
        p, q = x * y1, y * x1
        fy, by = q + p, q - p
        if abs(fy) < abs(y):
            x, y = x * x1 + D * y * y1, fy
        elif abs(by) < abs(y):
            x, y = x * x1 - D * y * y1, by
        else:
            break
    least = (-x, -y) if (y, x) < (0, 0) else (x, y)
    if abs(fy) == abs(y) or abs(by) == abs(y):
        # a neighbour ties only in a class that is its own mirror
        u, v = (x * x1 + D * y * y1, fy) if abs(fy) == abs(y) else (x * x1 - D * y * y1, by)
        least = max(least, (-u, -v) if (v, u) < (0, 0) else (u, v))
    return least


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
    c = 2
    while pow(c, (p - 1) // 2, p) == 1:
        c += 1
    c = pow(c, odd, p)
    t, w = pow(u, odd, p), pow(u, (odd + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (twos - i - 1), p)
        twos, c, t, w = i, b * b % p, t * b * b % p, w * b % p
    return w
