"""Seeded inputs: the pool of D(k) triples and the streams drawn from it.

The pool is every D(k) triple with elements <= 300 and 1 <= |k| <= 8
(2033 triples), enumerated here without dioph so that a library change
cannot change the inputs.  A stream is endless: each pass is a fresh seeded
shuffle of its triples, interleaved across strata so that any prefix holds
every stratum in proportion to its size, within one triple.  The strata
follow the input properties that set a triple's cost, which keeps runs on
different seeds comparable.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Iterator

from checks import (
    extension_witnesses,
    regular_extension,
    two_power_certificate,
)

LIMIT = 300
MAX_ABS_K = 8

Triple = tuple[tuple[int, int, int], int]  # (elements, k)


def dk_triples(limit: int, k: int) -> list[tuple[int, int, int]]:
    """All D(k) triples a < b < c <= limit, in lexicographic order."""
    squares = {r * r for r in range(math.isqrt(limit * limit + abs(k)) + 2)}
    partners = [set() for _ in range(limit + 1)]
    for a in range(1, limit + 1):
        partners[a] = {b for b in range(a + 1, limit + 1) if a * b + k in squares}
    return [
        (a, b, c)
        for a in range(1, limit + 1)
        for b in sorted(partners[a])
        for c in sorted(partners[a] & partners[b])
    ]


def triple_pool(limit: int = LIMIT, max_abs_k: int = MAX_ABS_K) -> list[Triple]:
    return [
        (elements, k)
        for k in range(-max_abs_k, max_abs_k + 1) if k
        for elements in dk_triples(limit, k)
    ]


def _unit_x(D: int) -> int:
    """x of the fundamental solution of x^2 - D*y^2 = 1 (D not a square)."""
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    while p * p - D * q * q != 1:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p


def pell_difficulty(triple: Triple) -> int:
    """Size class 0..5 of the Pell y-range sqrt(|N|(x1+1)/2D) of the pair
    reduction X^2 - ab*Y^2 = kb(b-a): the range solve_general scans.
    Class 5 means the reduction factors (ab is a square)."""
    (a, b, _), k = triple
    D, N = a * b, k * b * (b - a)
    if math.isqrt(D) ** 2 == D:
        return 5
    y_range = math.isqrt(abs(N) * (_unit_x(D) + 1) // (2 * D))
    return bisect.bisect([10**2, 10**3, 10**4, 10**5], y_range)


def stratified_passes(strata: list[list[Triple]], rng: random.Random) -> Iterator[Triple]:
    """Endless stream of seeded passes over all triples in `strata`."""
    strata = [s for s in strata if s]
    total = sum(map(len, strata))
    while True:
        order = [rng.sample(s, len(s)) for s in strata]
        taken = [0] * len(order)
        for i in range(1, total + 1):
            g = max(range(len(order)), key=lambda j: i * len(order[j]) / total - taken[j])
            yield order[g][taken[g]]
            taken[g] += 1


def _group(triples: list[Triple], key) -> list[list[Triple]]:
    groups: dict = {}
    for t in triples:
        groups.setdefault(key(t), []).append(t)
    return [groups[g] for g in sorted(groups)]


# On this pool, the triples the Pell walk at unit index 30 extends are
# exactly those with the regular extension or some extension m <= this.
WITNESS_BOUND = 2 * 10**6
FAST_CERTIFICATE_CAP = 64
FAST_TRIPLES = 400  # more than an extend run gets through


def known_extension(triple: Triple) -> bool:
    return regular_extension(*triple) is not None or bool(extension_witnesses(*triple, WITNESS_BOUND))


SQUARES_MOD_256 = frozenset(r * r % 256 for r in range(256))


def square_share(triple: Triple) -> float:
    """Share of m mod 256 for which a*m + k is a square mod 256: how often a
    brute-force scan over m gets past a mod-256 filter on its first element
    to an exact square test."""
    (a, _, _), k = triple
    return sum((a * m + k) % 256 in SQUARES_MOD_256 for m in range(256)) / 256


def census_stream(pool: list[Triple], seed: int) -> Iterator[Triple]:
    """Strata: Pell difficulty, and whether the census settles the triple."""
    key = lambda t: (pell_difficulty(t), settles_fast(t))
    return stratified_passes(_group(pool, key), random.Random(seed))


def oracle_stream(pool: list[Triple], seed: int) -> Iterator[Triple]:
    """Strata: whether the triple extends, Pell difficulty, and whether more
    than a quarter of all m pass the brute-force scan's cheap filter."""
    key = lambda t: (known_extension(t), pell_difficulty(t), square_share(t) > 0.25)
    return stratified_passes(_group(pool, key), random.Random(seed))


def settles_fast(triple: Triple) -> bool:
    """Whether a power-of-two certificate <= 64 or a known extension exists.
    On this pool that is exactly when `dioph extend` settles the triple
    without a long modulus scan, and when the census settles it (tests
    check both)."""
    return two_power_certificate(*triple, FAST_CERTIFICATE_CAP) is not None or known_extension(triple)


def extend_inputs(pool: list[Triple], seed: int) -> tuple[Iterator[Triple], Triple]:
    """A stream of triples `dioph extend` settles quickly, and the one
    inconclusive triple that closes every extend run.

    Walks one seeded permutation of the pool, so the inconclusive triple is a
    uniform draw from the triples that settle neither way.
    """
    rng = random.Random(seed)
    fast, slow = [], None
    for t in rng.sample(pool, len(pool)):
        if settles_fast(t):
            fast.append(t)
        elif slow is None:
            slow = t
        if slow is not None and len(fast) >= FAST_TRIPLES:
            break
    return stratified_passes(_group(fast, pell_difficulty), rng), slow

