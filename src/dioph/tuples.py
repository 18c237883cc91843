"""Diophantine tuples with a shift.

A D(k) set is a set of distinct positive integers such that the product of
any two elements plus k is a perfect square.  This module verifies the
property, walks the m that make a*m + k a square, enumerates the triples
below a bound, classifies triples as regular or not, reduces a pair
condition to a generalized Pell equation, and tells whether k = 2 (mod 4)
rules out every D(k) quadruple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from typing import Iterator

from .arith import _sqrt_mod, is_perfect_square

__all__ = [
    "DiophTuple",
    "PairCheck",
    "VerificationReport",
    "PairReduction",
    "verify",
    "enumerate_triples",
    "square_points",
    "is_regular",
    "reduce_pair",
    "mod4_quadruple_obstruction",
]


def _require_shift(k: int) -> None:
    if k == 0:
        raise ValueError("the shift k must be nonzero")


@dataclass(frozen=True)
class DiophTuple:
    """Distinct positive integers together with the shift k (k != 0).

    Elements are stored sorted ascending; at least two are required.
    """

    elements: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        elements = tuple(sorted(self.elements))
        if len(elements) < 2:
            raise ValueError("a tuple needs at least two elements")
        if elements[0] < 1:
            raise ValueError("elements must be positive")
        if len(set(elements)) != len(elements):
            raise ValueError("elements must be distinct")
        _require_shift(self.k)
        object.__setattr__(self, "elements", elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.elements)
        return f"{{{inner}}} with k={self.k}"


@dataclass(frozen=True)
class PairCheck:
    """One pairwise condition a*b + k, with its square root if it has one."""

    a: int
    b: int
    product: int
    shifted: int
    root: int | None

    @property
    def ok(self) -> bool:
        return self.root is not None


@dataclass(frozen=True)
class VerificationReport:
    pairs: tuple[PairCheck, ...]

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    def failing_pairs(self) -> list[PairCheck]:
        return [p for p in self.pairs if not p.ok]


def verify(t: DiophTuple) -> VerificationReport:
    """Check every pairwise condition of t exactly."""
    return VerificationReport(tuple(PairCheck(a, b, a * b, s, r) for a, b, s, r in _pair_roots(t)))


def _pair_roots(t: DiophTuple) -> Iterator[tuple[int, int, int, int | None]]:
    # (a, b, a*b + k, its root or None) for each pair a < b of t, lazily, in
    # combinations order (the elements are sorted): the one walk of the pair
    # condition, which verify records and the extension searches' guard reads
    return ((a, b, (s := a * b + t.k), is_perfect_square(s))
            for a, b in combinations(t.elements, 2))


def enumerate_triples(limit: int, k: int) -> Iterator[tuple[int, int, int]]:
    """Every D(k) triple (a, b, c) with a < b < c <= limit, in ascending
    lexicographic order, yielded one a at a time.

    The partners b > a of each a are the points of square_points(a, k,
    limit); a triple is two partners b < c of a with b*c + k a square.
    Only the partners of the current a are held.  k is checked at the
    call, before the first triple is asked for.
    """
    _require_shift(k)
    return (
        (a, b, c)
        for a in range(1, limit + 1)
        for b, c in combinations(sorted(m for m, _ in square_points(a, k, limit) if m > a), 2)
        if is_perfect_square(b * c + k) is not None
    )


def square_points(a: int, k: int, max_m: int) -> Iterator[tuple[int, int]]:
    """Every (m, r) with 1 <= m <= max_m and a*m + k = r*r, r >= 0, in no
    set order, for a >= 1; a < 1 raises ValueError.

    a*m + k = r^2 forces r^2 = k (mod a), so instead of testing every m the
    walk takes each root rho in [0, a) of rho^2 = k (mod a) and steps
    r = rho, rho + a, ... up to isqrt(a*max_m + k).  The roots come from
    factorize(a), by CRT over its prime powers (dioph.arith), so a walk
    costs the factorisation plus one step per point, about
    rho(a)*sqrt(max_m/a) points, where rho(a) is the number of roots; an a
    that factorize cannot split raises its ValueError.  When a > max_m,
    fewer m than residues are left and a need not factor, so the starts are
    instead the roots of the m in [1, max_m] at which a*m + k is a square,
    each the one point of its walk: a huge a never costs more than max_m
    square tests.  _root_walks hands out these walks, one range of r per
    start.
    """
    if a < 1:
        raise ValueError(f"square_points needs a >= 1, got a={a}")
    for walk in _root_walks(a, k, max_m):
        for r in walk:
            m = (r * r - k) // a
            if m >= 1:
                yield m, r


def _root_walks(a: int, k: int, max_m: int) -> list[range]:
    # square_points' walks, one range(start, rmax + 1, a) of r per start,
    # rmax = isqrt(a*max_m + k), -1 when that is negative, in ascending
    # order of start: each root rho <= rmax of rho^2 = k (mod a), from the
    # factorisation of a, or for a > max_m (fewer m than residues, and a may
    # not factor) the root r of each square a*m + k, whose walk holds one
    # point, as r + a gives m + 2*r + a > max_m.  A walk can outgrow
    # sys.maxsize, so callers slice and iterate it, never len() it
    largest = a * max_m + k
    rmax = isqrt(largest) if largest >= 0 else -1
    if a > max_m:
        starts = [r for m in range(1, max_m + 1)
                  if (r := is_perfect_square(a * m + k)) is not None]
    else:
        starts = [rho for rho in _sqrt_mod(k, a) if rho <= rmax]
    return [range(start, rmax + 1, a) for start in starts]


def is_regular(t: DiophTuple) -> bool:
    """Whether the triple satisfies (c - b - a)^2 = 4*(a*b + k).

    The condition is symmetric in the three elements (expanding gives
    a^2 + b^2 + c^2 - 2ab - 2bc - 2ca = 4k), so the sorted order used here
    loses nothing.  Raises ValueError for sizes other than 3.
    """
    if t.size != 3:
        raise ValueError(f"regularity is defined for triples, got size {t.size}")
    a, b, c = t.elements
    return (c - b - a) ** 2 == 4 * (a * b + t.k)


@dataclass(frozen=True)
class PairReduction:
    """The Pell form of the two conditions a*m + k = x^2, b*m + k = y^2.

    Eliminating m gives b*x^2 - a*y^2 = k*(b - a); multiplying by b and
    substituting X = b*x turns it into X^2 - D*Y^2 = N with D = a*b and
    N = k*b*(b - a).  X carries b times the square root of a*m + k and Y
    carries the square root of b*m + k.
    """

    a: int
    b: int
    k: int
    D: int
    N: int


def reduce_pair(a: int, b: int, k: int) -> PairReduction:
    """Reduce the pair of conditions for elements a < b and shift k."""
    if not 0 < a < b:
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    _require_shift(k)
    return PairReduction(a, b, k, a * b, k * b * (b - a))


def mod4_quadruple_obstruction(k: int) -> bool:
    """Whether k = 2 (mod 4), which rules out any D(k) quadruple.

    Squares are 0 or 1 mod 4, so the four pairwise conditions cannot all be
    met; every D(k) triple with such k is non-extendable a priori.
    """
    _require_shift(k)
    return k % 4 == 2
