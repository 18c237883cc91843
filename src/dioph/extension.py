"""Extension of a D(k) triple by a fourth element.

Two search strategies list the fourth elements m that extend a triple:

* ``pell_extension_search`` reduces the two smallest elements to a
  generalized Pell equation and walks its solution classes, recovering m
  from each class member and testing the remaining condition.
* ``brute_force_search`` steps over the square roots r of e*m + k for the
  element e with the shortest such walk, up to a bound on m; it is the
  oracle the Pell route is measured against.

``find_certificate`` looks for a modulus M at which the three allowed
residue sets for m have empty intersection: a finite, machine-checkable
proof that no extension exists at all.  It tries only the powers of 2,
since no power of an odd prime can certify.  ``search_and_certify`` runs
that scan first and walks only a triple it leaves uncertified: a
certificate excludes every integer m, so no walk could extend a
certified triple.
``verify_certificate`` re-derives a claimed certificate from scratch and
deliberately shares no residue-set code with the finder.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

from .arith import factorize, is_perfect_square
from .pell import PellProblem, solve_general
from .tuples import DiophTuple, reduce_pair, square_points, verify

__all__ = [
    "ExtensionCandidate",
    "ModularCertificate",
    "SearchReport",
    "pell_extension_search",
    "brute_force_search",
    "find_certificate",
    "verify_certificate",
    "search_and_certify",
]

VERDICT_EXTENDED = "extended"
VERDICT_BOUNDED = "no_extension_below_bound"
VERDICT_CERTIFIED = "certified_non_extendable"


@dataclass(frozen=True, slots=True)
class ExtensionCandidate:
    """A positive m outside the triple that extends it.

    roots maps each of the three elements e, in element order, to the
    square root of e*m + k.  Unhashable, as roots is a dict.
    """

    m: int
    roots: dict[int, int]

    @property
    def complete(self) -> bool:
        return True  # every candidate extends its triple; perfbench still reads this


@dataclass(frozen=True)
class ModularCertificate:
    """Proof of non-extendability: mod `modulus` no residue class for m
    makes all three shifted products squares.

    allowed_residues maps each element t to {m mod M : t*m + k is a square
    mod M}; the three sets share nothing.
    """

    modulus: int
    allowed_residues: dict[int, frozenset[int]]


@dataclass(frozen=True)
class SearchReport:
    triple: DiophTuple
    strategy: str  # "pell_sequence" | "brute_force"
    bound: int
    candidates: tuple[ExtensionCandidate, ...]
    self_hits: tuple[int, ...] = ()
    certificate: ModularCertificate | None = None

    @cached_property
    def verdict(self) -> str:
        if self.candidates:
            return VERDICT_EXTENDED
        if self.certificate is not None:
            return VERDICT_CERTIFIED
        return VERDICT_BOUNDED


def _require_verified_triple(t: DiophTuple) -> None:
    if t.size != 3:
        raise ValueError(f"extension search needs a triple, got size {t.size}")
    report = verify(t)
    if not report.ok:
        bad = report.failing_pairs()[0]
        raise ValueError(
            f"{t} is not a D({t.k}) triple: "
            f"{bad.a}*{bad.b}{t.k:+d} = {bad.shifted} is not a square"
        )


def _require_bound(name: str, value: int, floor: int) -> None:
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}")


def _search(
    t: DiophTuple, strategy: str, bound: int, max_modulus: int | None = None
) -> SearchReport:
    # The stages every search runs, in order: check the bounds (the cap
    # first), verify t once, and, when there is a cap, scan for a
    # certificate; the strategy's walk runs only when none certifies.
    walk, name, floor = _STRATEGIES[strategy]
    if max_modulus is not None:
        _require_bound("max_modulus", max_modulus, 2)
    _require_bound(name, bound, floor)
    _require_verified_triple(t)
    if max_modulus is not None:
        cert = _scan_moduli(t, max_modulus)
        if cert is not None:
            return SearchReport(t, strategy, bound, (), (), cert)
    return walk(t, bound)


def pell_extension_search(t: DiophTuple, max_index: int) -> SearchReport:
    """The fourth elements of t that the Pell reduction reaches.

    The two smallest elements a < b are reduced to X^2 - (a*b)*Y^2 =
    k*b*(b-a); every solution class (solve_general finds them all) is walked
    forwards max_index unit-multiplications from its member of least |Y|
    (as PellClass.walk does).  Each member yields m = (x^2 - k)/a with
    x = X/b when both divisions are exact, and a*m + k = x^2, b*m + k = Y^2
    hold.  m <= 0 is discarded and m equal to an existing element is
    reported as a self-hit.  Every other m with c*m + k a square extends
    t and is a candidate; the report lists them distinct and ascending in
    m, as brute_force_search does.  The members that fail this third
    condition, most of the walk, are not recorded.

    Whether b | X and a | x^2 - k is the same for every member of a class,
    so a class whose least member fails is dead and is skipped unwalked.
    Proof: with unit (x1, y1), x1^2 = 1 + a*b*y1^2, so x1^2 = 1 (mod ab).
    The next member is X' = x1*X + a*b*y1*Y = x1*X (mod b), and x1 is
    invertible mod b, so b | X' exactly when b | X.  Then x' = X'/b =
    x1*x + a*y1*Y = x1*x (mod a), so x'^2 = x^2 (mod a).  Members of a
    live class need no further check: b*m + k = Y^2 follows from the
    reduced equation (PairReduction.recover_m).  A live class is walked in
    the reduced coordinates (x, Y): with X = b*x the step X' = x1*X +
    a*b*y1*Y, Y' = y1*X + x1*Y reads x' = x1*x + a*y1*Y, Y' = b*y1*x +
    x1*Y, integral at every member, so no member is divided by b.

    When a*b happens to be a perfect square the reduced equation factors and
    has finitely many solutions, which are enumerated outright and walked
    as classes of one member each.  Either way
    |k*b*(b-a)| is factored by trial division, which raises ValueError when
    it leaves a cofactor above TRIAL_DIVISION_BOUND**2.
    """
    return _search(t, "pell_sequence", max_index)


def _pell_members(t: DiophTuple, max_index: int) -> Iterator[tuple[int, int, int]]:
    # every member of pell_extension_search's walk with m > 0, as (m, x, Y)
    # with x^2 = a*m + k and Y^2 = b*m + k, for a D(k) triple that is
    # already verified; an m may come more than once, and may be in t
    a, b, _ = t.elements
    k = t.k
    red = reduce_pair(a, b, k)
    if is_perfect_square(red.D) is not None:
        starts = [(X, Y, 1, 0) for X, Y in _square_discriminant_solutions(red.D, red.N)]
        members = 1
    else:
        starts = [
            (cls.rep.x, cls.rep.y, cls.unit.x, cls.unit.y)
            for cls in solve_general(PellProblem(red.D, red.N))
        ]
        members = max_index + 1
    for X, Y, x1, y1 in starts:
        if red.recover_m(X, Y) is None:
            continue  # dead
        x, ay1, by1 = X // b, a * y1, b * y1
        for _ in range(members):
            m = (x * x - k) // a
            if m > 0:
                yield m, x, Y
            x, Y = x1 * x + ay1 * Y, by1 * x + x1 * Y


def _pell_walk(t: DiophTuple, max_index: int) -> SearchReport:
    # pell_extension_search's walk, for a D(k) triple that is already verified
    a, b, c = elements = t.elements
    k = t.k
    found: dict[int, ExtensionCandidate] = {}
    self_hits = set()
    for m, x, Y in _pell_members(t, max_index):
        if m in elements:
            self_hits.add(m)
        elif (rc := is_perfect_square(c * m + k)) is not None:
            found[m] = ExtensionCandidate(m, {a: abs(x), b: abs(Y), c: rc})
    candidates = tuple(found[m] for m in sorted(found))
    return SearchReport(t, "pell_sequence", max_index, candidates, tuple(sorted(self_hits)))


def _square_discriminant_solutions(D: int, N: int) -> list[tuple[int, int]]:
    # X^2 - d^2*Y^2 = N factors as (X - d*Y)(X + d*Y) = N: finitely many
    # divisor pairs, no unit to advance by.
    d = isqrt(D)
    divisors = [1]
    for p, power in factorize(abs(N)):
        divisors = [q * p**i for q in divisors for i in range(power + 1)]
    out = set()
    for e in divisors:
        for lo in (e, -e):
            hi = N // lo
            if (lo + hi) % 2 or (hi - lo) % (2 * d):
                continue
            out.add((abs(lo + hi) // 2, abs(hi - lo) // (2 * d)))
    return sorted(out)


def brute_force_search(t: DiophTuple, max_m: int) -> SearchReport:
    """Oracle search: every m in [1, max_m] outside t that extends t.

    Only the m with e*m + k a square are visited, e the element whose
    dioph.tuples.square_points walk costs least by that function's estimate
    with rho(e) = 1: min(e, isqrt(e*max_m)) + isqrt(max_m // e), or max_m
    when e > max_m, ties going to the smaller element.  Ignoring rho(e) can
    cost one triple up to a factor rho(e): {1, 3, 8} with k = 1 at
    max_m = 10^6 walks 8 (about 1422 values), not 1 (1001).  The other two
    elements are checked with exact integer square tests.  Returns the m
    that extend t as candidates, ascending; an element of t that meets
    the a- and b-conditions (a < b the two smallest) is in self_hits.
    """
    return _search(t, "brute_force", max_m)


def _brute_force_walk(t: DiophTuple, max_m: int) -> SearchReport:
    # brute_force_search's walk, for a D(k) triple that is already verified
    a, b, _ = elements = t.elements
    k = t.k
    e = min(elements, key=lambda e: max_m if e > max_m
            else min(e, isqrt(e * max_m)) + isqrt(max_m // e))
    x, y = (f for f in elements if f != e)
    found = []
    for m, r in square_points(e, k, max_m):
        rx = is_perfect_square(x * m + k)
        if rx is None or m in elements:
            continue
        ry = is_perfect_square(y * m + k)
        if ry is not None:
            found.append(ExtensionCandidate(m, dict(sorted([(e, r), (x, rx), (y, ry)]))))
    found.sort(key=lambda cand: cand.m)
    # same diagnostic the pair-reduction strategy emits
    hits = tuple(h for h in elements if h <= max_m
                 and is_perfect_square(a * h + k) is not None
                 and is_perfect_square(b * h + k) is not None)
    return SearchReport(t, "brute_force", max_m, tuple(found), hits)


# each strategy's walk, the name of its bound, and the least bound it takes
_STRATEGIES = {
    "pell_sequence": (_pell_walk, "max_index", 0),
    "brute_force": (_brute_force_walk, "max_m", 1),
}


def find_certificate(t: DiophTuple, max_modulus: int) -> ModularCertificate | None:
    """Smallest modulus M <= max_modulus certifying t non-extendable, if any.

    For each element e the allowed residues are {m mod M : e*m + k is a
    square mod M}; an empty three-way intersection proves no integer m can
    extend the triple.  Squareness mod M decomposes over the prime powers of
    M, so a composite modulus certifies exactly when one of its prime-power
    parts does.  No power of an odd prime p can certify, so the smallest
    certifying M is always a power of 2, and only those are tried.

    Proof for an odd prime p.  It is enough to find an m in Z_p that makes
    every e*m + k a square in Z_p: each reduction of m mod p^j is then a
    residue that all three elements allow.  A unit of Z_p that is a square
    mod p is a square in Z_p (Hensel).  Let chi be the Legendre symbol mod p
    and v_p the p-adic valuation.

    1. Some element e has 2*v_p(e) < v_p(k).  This covers every e with p
       not dividing e when p divides k.  Take m = e.  For e' != e, e*e' + k
       is an integer square, and e^2 + k = e^2*(1 + k/e^2) with k/e^2 in
       p*Z_p, so the second factor is 1 mod p and a unit square.
    2. Case 1 fails and k is a square in Z_p.  Take m = 0.
    3. Neither case holds and p does not divide k.  Then chi(k) = -1, and no
       element is divisible by p, since e*e' + k = k (mod p) would then be a
       non-square.  An m mod p at which exactly one e*m + k is 0 and the
       other two are nonzero squares serves as well as one at which all
       three are nonzero squares: the p-adic root m = -k/e of that factor
       makes it exactly 0.  For p >= 29 a count gives an m with every
       e*m + k a nonzero square.  Coinciding residues impose one condition
       between them.  For the r <= 3 distinct residues e, 2^r times the
       number of good m is the sum of prod(1 + chi(e*m + k)) over the m that
       are no root -k/e.  Over all m the linear sums vanish, each sum
       chi((e*m + k)(e'*m + k)) is -chi(e*e') (the roots differ), and the
       cubic sum is at most 2*sqrt(p) in size (Hasse); each of the r roots
       adds at most 2^(r-1).  So 8*count >= p - 3 - 2*sqrt(p) - 12 for
       r = 3, which is positive for p > 25, and 4*count >= p - 5 for r = 2;
       r = 1 needs one m with e*m + k = 1.  For 3 <= p <= 23 the residues a
       D(k) triple can have are few: scaling k by a square makes it 1 or the
       least non-residue mod p, and every e*e' + k is a square or 0 mod p.
       An exhaustive check over every such k and multiset of residues
       (test_odd_primes_to_23_leave_a_liftable_common_residue in
       tests/test_extension.py) finds one of the two kinds of m in each.
       Nonzero squares alone fall short: {2, 4, 10} with k = 2 mod 13 needs
       the root m = 6 of 4*m + 2.
    4. Neither case holds and p divides k.  Every v_p(e) is at least
       v_p(k)/2.  If v_p(e) + v_p(e') > v_p(k) for some pair, then
       e*e' + k = k*(1 + e*e'/k) is a nonzero square whose second factor is
       a unit square, which would make k a square in Z_p, against case 2.
       So all three valuations equal a = v_p(k)/2.  Write e = p^a*u_e and
       k = p^(2a)*h: the u_e are units, chi(h) = -1, and each
       u_e*u_e' + h = (r/p^a)^2 is an integer square.  So (u_e; h) is
       case 3, and its m' gives m = p^a*m'.

    Squareness mod 2^j is decided without a table: write x = 2^v*u with u
    odd; x is a square mod 2^j exactly when x = 0 mod 2^j, or v is even and
    u = 1 mod 2^min(j-v, 3).  A modulus that does not certify stops at the
    first residue m allowed by all three elements; only a certifying modulus
    enumerates all M residues.

    The powers 2, 4, 8, ... up to max_modulus are scanned upwards, and the
    first that certifies is returned with its allowed residues listed.  A
    square mod 2^i stays a square mod every 2^j with j <= i, so a residue
    common mod 2^i is common mod every smaller power of 2.  Two things
    follow.  The scan of 2^(j+1) starts at the least residue common mod 2^j,
    since a residue below it is below 2^j and so is not common mod 2^(j+1)
    either.  And once the least common residue mod 2^j is also common mod
    the largest power 2^J under the cap, it is common mod every 2^i between,
    so no modulus under the cap can certify and the scan stops.
    """
    _require_bound("max_modulus", max_modulus, 2)
    _require_verified_triple(t)
    return _scan_moduli(t, max_modulus)


def _scan_moduli(t: DiophTuple, max_modulus: int) -> ModularCertificate | None:
    # find_certificate's scan, for a D(k) triple that is already verified
    e1, e2, e3 = t.elements
    k = t.k
    square = _is_square_mod_power_of_2

    def common(m: int, j: int) -> bool:
        return square(e1 * m + k, j) and square(e2 * m + k, j) and square(e3 * m + k, j)

    top = max_modulus.bit_length() - 1  # 2^top is the largest power under the cap
    least = None  # least common residue mod the power below 2^j
    for j in range(1, top + 1):
        M = 1 << j
        m = next((m for m in range(least or 0, M) if common(m, j)), None)
        if m is None:
            allowed = {
                e: frozenset(m for m in range(M) if square(e * m + k, j)) for e in t.elements
            }
            return ModularCertificate(M, allowed)
        # a carried m was tried mod the top power when it was first found
        if m != least and common(m, top):
            return None  # common up to the cap: no power of 2 can certify
        least = m
    return None


def _is_square_mod_power_of_2(x: int, j: int) -> bool:
    # the 2-adic criterion of find_certificate's docstring
    x &= (1 << j) - 1
    if x == 0:
        return True
    v = (x & -x).bit_length() - 1
    return not v & 1 and (x >> v) & ((1 << min(j - v, 3)) - 1) == 1


def verify_certificate(cert: ModularCertificate, t: DiophTuple) -> bool:
    """Re-derive the certificate from scratch and check it against t.

    Recomputes each allowed-residue set by exhaustive enumeration mod the
    claimed modulus, requires them to match the certificate exactly, and
    requires their intersection to be empty.  Implemented independently of
    find_certificate on purpose.
    """
    M = cert.modulus
    if M < 2:
        return False
    if set(cert.allowed_residues) != set(t.elements):
        return False
    squares = {(r * r) % M for r in range(M)}
    recomputed = {
        e: frozenset(m for m in range(M) if (e * m + t.k) % M in squares)
        for e in t.elements
    }
    for e in t.elements:
        if recomputed[e] != frozenset(cert.allowed_residues[e]):
            return False
    common = set(range(M))
    for e in t.elements:
        common &= recomputed[e]
    return not common


def search_and_certify(
    t: DiophTuple,
    max_index: int = 30,
    max_modulus: int = 10**5,
) -> SearchReport:
    """Certificate first; the Pell walk only when no certificate exists.

    The bounds are checked, max_modulus first, and t is verified once.
    The powers of 2 up to max_modulus are then scanned as find_certificate
    does.  A certified report has no candidates and no self-hits: the
    certificate excludes every integer m, so the walk could not extend the
    triple, and it is skipped.  Otherwise the report is
    pell_extension_search(t, max_index)'s, an extended or a bounded one.
    """
    return _search(t, "pell_sequence", max_index, max_modulus)
