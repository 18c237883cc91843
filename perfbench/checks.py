"""Independent checks of what dioph reports, and the arithmetic they rest on.

Nothing here imports dioph or shares code with it: squares are tested with
math.isqrt and residue sets are re-derived by enumerating squares mod M, so
a defect in the library cannot hide in the checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EXTENDED = "extended"
CERTIFIED = "certified_non_extendable"
BOUNDED = "no_extension_below_bound"
SETTLED = (EXTENDED, CERTIFIED)

# Exit codes the CLI documents for each verdict.
EXIT_BY_VERDICT = {EXTENDED: 0, CERTIFIED: 3, BOUNDED: 4}


@dataclass(frozen=True)
class Outcome:
    """What one operation reported about one triple, in plain integers.

    complete holds every m the program marked as extending the triple;
    brute holds the brute-force oracle's m values (oracle workload only);
    allowed maps each element to its claimed residue set mod `modulus`.
    """

    elements: tuple[int, int, int]
    k: int
    verdict: str
    complete: tuple[int, ...] = ()
    modulus: int | None = None
    allowed: dict[int, frozenset[int]] | None = None
    exit_code: int | None = None
    brute: tuple[int, ...] | None = None


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def extends(elements: tuple[int, ...], k: int, m: int) -> bool:
    """Whether m is a new positive element with every e*m + k a square."""
    return m >= 1 and m not in elements and all(is_square(e * m + k) for e in elements)


def residue_sets(elements: tuple[int, ...], k: int, M: int) -> dict[int, frozenset[int]]:
    """{e: {m mod M : e*m + k is a square mod M}} by enumeration."""
    squares = {r * r % M for r in range(M)}
    return {e: frozenset(m for m in range(M) if (e * m + k) % M in squares) for e in elements}


def certifies(elements: tuple[int, ...], k: int, M: int) -> bool:
    """Whether the residue sets mod M share no residue."""
    return not frozenset.intersection(*residue_sets(elements, k, M).values())


def two_power_certificate(elements: tuple[int, ...], k: int, cap: int) -> int | None:
    """Smallest power of two M <= cap that certifies the triple, if any."""
    M = 2
    while M <= cap:
        if certifies(elements, k, M):
            return M
        M *= 2
    return None


def extension_witnesses(elements: tuple[int, int, int], k: int, max_m: int) -> list[int]:
    """Every m <= max_m extending the triple, by stepping over the square
    roots r of c*m + k for the largest element c."""
    a, b, c = elements
    found = []
    for rho in range(c):
        if (rho * rho - k) % c:
            continue
        for r in range(rho, math.isqrt(c * max_m + k) + 1, c):
            m = (r * r - k) // c
            if m >= 1 and is_square(a * m + k) and is_square(b * m + k) and m not in elements:
                found.append(m)
    return sorted(set(found))


def regular_extension(elements: tuple[int, int, int], k: int) -> int | None:
    """The regular fourth element a+b+c + 2(abc +/- rst)/k^2, when one extends."""
    a, b, c = elements
    r, s, t = math.isqrt(a * b + k), math.isqrt(a * c + k), math.isqrt(b * c + k)
    for sign in (1, -1):
        num = 2 * (a * b * c + sign * r * s * t)
        if num % (k * k) == 0 and extends(elements, k, a + b + c + num // (k * k)):
            return a + b + c + num // (k * k)
    return None


def search_problems(o: Outcome, cap: int) -> list[str]:
    """Faults in a search-and-certify outcome whose certificate cap was `cap`."""
    where = f"{o.elements} k={o.k}"
    problems = []
    if o.exit_code is not None and o.exit_code != EXIT_BY_VERDICT.get(o.verdict):
        problems.append(f"{where}: exit code {o.exit_code} for verdict {o.verdict}")
    problems += [f"{where}: m={m} does not extend" for m in o.complete
                 if not extends(o.elements, o.k, m)]
    if o.verdict == EXTENDED:
        if not o.complete:
            problems.append(f"{where}: extended without a complete candidate")
        if o.k % 4 == 2:
            problems.append(f"{where}: extended although k = 2 (mod 4)")
    elif o.verdict == CERTIFIED:
        if o.modulus is None or o.allowed is None or o.modulus < 2:
            problems.append(f"{where}: certified without a certificate")
        elif o.allowed != residue_sets(o.elements, o.k, o.modulus):
            problems.append(f"{where}: residue sets mod {o.modulus} are wrong")
        elif not certifies(o.elements, o.k, o.modulus):
            problems.append(f"{where}: residue sets mod {o.modulus} intersect")
    elif o.verdict == BOUNDED:
        M = two_power_certificate(o.elements, o.k, cap)
        if M is not None:
            problems.append(f"{where}: bounded, but modulus {M} certifies it")
    else:
        problems.append(f"{where}: {o.verdict}")
    return problems


def oracle_problems(o: Outcome, max_m: int) -> list[str]:
    """Faults in an oracle outcome: the brute-force m values must extend and
    equal the Pell walk's complete candidates up to max_m."""
    where = f"{o.elements} k={o.k}"
    if o.brute is None:
        return [f"{where}: {o.verdict}"]
    problems = [f"{where}: m={m} does not extend" for m in o.complete + o.brute
                if not extends(o.elements, o.k, m)]
    problems += [f"{where}: brute force reported m={m} > {max_m}" for m in o.brute if m > max_m]
    pell = sorted(m for m in o.complete if m <= max_m)
    if pell != sorted(o.brute):
        problems.append(f"{where}: Pell walk {pell} != brute force {sorted(o.brute)}")
    if o.k % 4 == 2 and (o.complete or o.brute):
        problems.append(f"{where}: extended although k = 2 (mod 4)")
    return problems
