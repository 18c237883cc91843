"""Extension of a D(k) triple by a fourth element.

Two search strategies list the fourth elements m that extend a triple:

* ``pell_extension_search`` reduces the two smallest elements to a
  generalized Pell equation and walks its solution classes, recovering m
  from each class member and testing the remaining condition.
* ``brute_force_search`` steps over the square roots r of e*m + k for the
  element e with the shortest such walk, up to a bound on m, and tests
  exactly only the points a wheel mod 16 keeps; it is the oracle the Pell
  route is measured against.

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

from dataclasses import dataclass
from math import gcd, inf, isqrt

from .arith import _SQUARE_MODULI, _first_square_stage, _second_square_stage, is_perfect_square
from .pell import _class_points
from .tuples import DiophTuple, _pair_roots, _root_walks

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

# brute_force_search's wheel: m mod 16 repeats every 16 steps of a root walk
_WHEEL = 16


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

    @property
    def verdict(self) -> str:
        if self.candidates:
            return VERDICT_EXTENDED
        if self.certificate is not None:
            return VERDICT_CERTIFIED
        return VERDICT_BOUNDED


def _require_verified_triple(t: DiophTuple) -> None:
    # the first pair of dioph.tuples' pair walk that is not a square is named
    if t.size != 3:
        raise ValueError(f"extension search needs a triple, got size {t.size}")
    for x, y, shifted, root in _pair_roots(t):
        if root is None:
            raise ValueError(f"{t} is not a D({t.k}) triple: "
                             f"{x}*{y}{t.k:+d} = {shifted} is not a square")


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
    k*b*(b-a); every solution class is walked forwards max_index
    unit-multiplications from its member of least |Y| (as PellClass.walk
    does).  The classes come as plain integers from dioph.pell's core
    _class_points, the one that dioph.pell.solve_general wraps in PellClass
    records, so the walk and the public solver share one code path.  Each
    member yields m = (x^2 - k)/a with x = X/b when both divisions are
    exact, and a*m + k = x^2, b*m + k = Y^2 hold.  m <= 0 is discarded and
    m equal to an existing element is reported as a self-hit.  Every other
    m with c*m + k a square extends t and is a candidate; the report lists
    them distinct and ascending in m, as brute_force_search does.  The
    members that fail this third condition, most of the walk, are not
    recorded.

    A class is live when its least member passes two divisibility tests:
    b | X, and a | x^2 - k with x = X/b.  Both hold at every member of a
    class or at none, so a class whose least member fails is dead and is
    skipped unwalked.  Proof: with unit (x1, y1), x1^2 = 1 + a*b*y1^2, so
    x1^2 = 1 (mod ab).  The next member is X' = x1*X + a*b*y1*Y = x1*X
    (mod b), and x1 is invertible mod b, so b | X' exactly when b | X.
    Then x' = X'/b = x1*x + a*y1*Y = x1*x (mod a), so x'^2 = x^2 (mod a).
    The members of a live class need no third test: dividing the reduced
    equation by b gives a*Y^2 = b*x^2 - k*(b-a) = a*(b*m + k), so
    b*m + k = Y^2.

    A live class is walked by the value the third condition tests,
    w = c*m + k, which obeys a recurrence of its own.  In the reduced
    coordinates (x, Y) the step X' = x1*X + a*b*y1*Y, Y' = y1*X + x1*Y
    reads x' = x1*x + a*y1*Y, Y' = b*y1*x + x1*Y, that is
    x'*sqrt(b) + Y'*sqrt(a) = (x*sqrt(b) + Y*sqrt(a))*L with the unit
    L = x1 + y1*sqrt(a*b) of norm 1.  So the n-th member has
    x_n = (u*L^n + v*L^-n)/(2*sqrt(b)) for numbers u, v fixed by the class,
    and m_n = (x_n^2 - k)/a, hence w_n, is a fixed combination of L^(2n),
    1 and L^(-2n).  Those are powers of the roots of
    (z - 1)*(z^2 - (4*x1^2 - 2)*z + 1) = z^3 - q*z^2 + q*z - 1 with
    q = 4*x1^2 - 1, since L^2 + L^-2 = (2*x1)^2 - 2, so
    w_(n+1) = q*(w_n - w_(n-1)) + w_(n-2).  When a*b is a square the unit
    is (1, 0), q = 3, and the recurrence keeps w constant, as the walk is.
    The coefficients are integers, so three integral seeds make every
    later w an exact integer.  The seeds are w at the least member and at
    its two neighbours, x = x1*x + a*y1*Y and x = x1*x - a*y1*Y: the
    backward step is the forward one with the unit (x1, -y1), and the
    liveness proof above holds for it too, so both neighbours give an
    integral m.  The backward neighbour only starts the recurrence; the
    members walked are still the least one and the max_index after it.
    m > 0 exactly when w > k, and w = c*e + k for an element e exactly when
    m = e.  Only a w that is a square is turned back into
    m = (w - k)/c; its roots for a and b are isqrt(a*m + k) and
    isqrt(b*m + k), exact because a*m + k = x^2 and b*m + k = Y^2 at every
    member of a live class.

    Most members are no square, and the walk finds them without their
    exact w.  dioph.arith's square filter runs in two stages, the first on
    w mod M1 = 256*45045 and the second on w mod M2 = 215441, together
    w mod R with R = M1*M2 = 256*45045*215441; M1 and M2 are below 2^30,
    so the residues are small integers.  Each class runs the recurrence
    on w mod M1 through every member, on w mod M2 only up to the last
    member whose residue mod M1 passes the first stage or equals c's own
    value (c^2 + k) mod M1, and on w itself only up to the last member
    that also passes the second stage or matches (c^2 + k) mod M2.  Only
    those members are looked up among the c*e + k, compared with k and
    tested for a square.  Nothing that the report lists is skipped: an
    integer square is a square modulo every modulus, so every candidate
    passes both stages; the self-hits of a and b are squares, since
    c*a + k and c*b + k are (t is a D(k) triple); and c's own value
    c^2 + k, which need not be a square, matches its own residues.  The
    filter passes about 1 in 1730 uniformly random values, so the exact
    recurrence seldom runs past the last member that is a square or c's
    own value, however large w grows.

    When a*b happens to be a perfect square the reduced equation factors and
    has finitely many solutions; _class_points lists them as classes of one
    member each, with the unit (1, 0), so the walk stays on each.  Either
    way |k*b*(b-a)| is factored by trial division, which raises ValueError
    when it leaves a cofactor above TRIAL_DIVISION_BOUND**2.
    """
    return _search(t, "pell_sequence", max_index)


def _live_classes(a: int, e: int, k: int) -> list[tuple[int, int, int, int]]:
    # the live classes of the reduction of the pair a < e of a triple,
    # X^2 - (a*e)*Y^2 = k*e*(e - a): those whose least member passes
    # pell_extension_search's two tests with e for b, e | X and
    # a | x^2 - k with x = X/e.  Each is (x, Y, x1, y1): that member in the
    # reduced coordinates x and Y, and the unit of D = a*e, which is (1, 0)
    # when a*e is a square.  The walk reads (a, b); (a, c) is the other
    # reduction that shares a*m + k = x^2
    points, unit = _class_points(a * e, k * e * (e - a))
    live = []
    for X, Y in points:
        x, r = divmod(X, e)
        if r == 0 and (x * x - k) % a == 0:
            live.append((x, Y, *unit))
    return live


def _pell_walk(t: DiophTuple, max_index: int) -> SearchReport:
    # pell_extension_search's walk, for a D(k) triple that is already
    # verified; each class is walked by w = c*m + k through the recurrence
    # of that function's docstring, seeded at its least member and the two
    # members beside it.  r = w mod M1 steps through every member; s = w mod
    # M2 catches up with it only at a member whose r passes, and w only at
    # one whose s passes too.  m > 0 exactly when w > k; an m may come more
    # than once (the unit (1, 0) of a square a*b repeats its point)
    a, b, c = t.elements
    k = t.k
    M1, M2 = _SQUARE_MODULI
    hits = {c * e + k: e for e in t.elements}
    own1, own2 = (c * c + k) % M1, (c * c + k) % M2
    found: dict[int, ExtensionCandidate] = {}
    self_hits = set()
    for x, Y, x1, y1 in _live_classes(a, b, k):
        xb, xf = x1 * x - a * y1 * Y, x1 * x + a * y1 * Y
        w0 = c * ((xb * xb - k) // a) + k
        w = c * ((x * x - k) // a) + k
        w1 = c * ((xf * xf - k) // a) + k
        q = 4 * x1 * x1 - 1
        r0, r, r1, q1 = w0 % M1, w % M1, w1 % M1, q % M1
        s0, s, s1, q2 = w0 % M2, w % M2, w1 % M2, q % M2
        s_at = w_at = 0  # the members s and w stand at
        for n in range(max_index + 1):
            if r == own1 or _first_square_stage(r):
                for _ in range(n - s_at):
                    s0, s, s1 = s, s1, (q2 * (s1 - s) + s0) % M2
                s_at = n
                if s == own2 or _second_square_stage(s):
                    for _ in range(n - w_at):
                        w0, w, w1 = w, w1, q * (w1 - w) + w0
                    w_at = n
                    if w in hits:
                        self_hits.add(hits[w])
                    elif w > k and (rc := is_perfect_square(w)) is not None:
                        m = (w - k) // c
                        found[m] = ExtensionCandidate(m, {a: isqrt(a * m + k), b: isqrt(b * m + k), c: rc})
            r0, r, r1 = r, r1, (q1 * (r1 - r) + r0) % M1
    candidates = tuple(found[m] for m in sorted(found))
    return SearchReport(t, "pell_sequence", max_index, candidates, tuple(sorted(self_hits)))


def brute_force_search(t: DiophTuple, max_m: int) -> SearchReport:
    """Oracle search: every m in [1, max_m] outside t that extends t.

    Only the m with e*m + k a square are visited, along the
    dioph.tuples.square_points walk of one element e: the one with the
    least min(e, max_m) + isqrt(max_m // e), ties going to the smaller
    element.  For e <= max_m the walk's starts come from the factorisation
    of e, which the term min(e, max_m) does not measure, and an e <= max_m
    that trial division cannot factor raises ValueError.  The rule ignores
    rho(e), the number of roots of r^2 = k (mod e), which can cost one
    triple up to a factor rho(e): {1, 3, 8} with k = 1 at max_m = 10^6
    walks 8 (1413 points), not 1 (1000).

    The walk is sieved by a wheel mod 16, and only the points it keeps get
    the exact square tests of the other two elements x and y.  On the walk
    r = rho, rho + e, ... of one root rho of r^2 = k (mod e), the point
    m = (r^2 - k)/e moves by ((r + 16*e)^2 - r^2)/e = 32*r + 256*e over 16
    steps, a multiple of 16; so m mod 16, and with it x*m + k and y*m + k
    mod 16, repeats every 16 steps.  The wheel is the first 16 points of
    each root walk (all of them, if it has fewer), plus every 16th point
    from each kept one: it keeps the points among the first 16 at which
    x*m + k and y*m + k are both squares mod 16, that is 0, 1, 4 or 9, and
    tests each kept point and every 16th point after it, its walk in steps
    of 16*e.  This is sound because an integer square is a square mod 16:
    a point the wheel drops makes x*m + k or y*m + k a non-square, so it
    extends nothing.  At max_m = 10^6, {1, 3, 8} with
    k = 1 reads 64 wheel points and tests 176 of the walk's 1413 points
    exactly; {7, 14, 41} with k = 2 reads 32 and tests none of 312, since
    no m makes 7*m + 2, 14*m + 2 and 41*m + 2 all squares mod 4.  The
    wheel cuts the exact tests, not the order of the cost: where it keeps
    points, the time still grows as sqrt(max_m), and {1, 3, 8} at
    max_m = 10^20 runs for about a quarter of an hour.

    Returns the m that extend t as candidates, ascending; an element of t
    that meets the a- and b-conditions (a < b the two smallest) is in
    self_hits.
    """
    return _search(t, "brute_force", max_m)


def _brute_force_walk(t: DiophTuple, max_m: int) -> SearchReport:
    # brute_force_search's walk, for a D(k) triple that is already verified:
    # the wheel reads the first _WHEEL points of each root walk of e, and the
    # i-th one, when x*m + k and y*m + k are squares mod _WHEEL there, walks
    # on as walk[i::_WHEEL]; x is tested exactly first, then the elements
    a, b, _ = elements = t.elements
    k = t.k
    e = min(elements, key=lambda e: min(e, max_m) + isqrt(max_m // e))
    x, y = (f for f in elements if f != e)
    squares = {r * r % _WHEEL for r in range(_WHEEL)}
    found = []
    for walk in _root_walks(e, k, max_m):
        for i, r in enumerate(walk[:_WHEEL]):
            m = (r * r - k) // e
            if (x * m + k) % _WHEEL not in squares or (y * m + k) % _WHEEL not in squares:
                continue
            for r in walk[i::_WHEEL]:
                m = (r * r - k) // e
                if m < 1 or (rx := is_perfect_square(x * m + k)) is None or m in elements:
                    continue
                if (ry := is_perfect_square(y * m + k)) is not None:
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
    odd; x is a square mod 2^j exactly when j <= v, or v is even and
    u = 1 mod 2^min(j-v, 3).  The scan reads this once per value as a
    number, the square depth of x: the largest j at which x is a square
    mod 2^j.  It is infinite for x = 0 and for a square in Z_2 (v even,
    u = 1 mod 8); otherwise an odd v gives v, and an even v gives v + 2
    when u = 5 (mod 8) and v + 1 when u is 3 or 7 (mod 8).  A modulus that
    does not certify stops at the first residue m allowed by all three
    elements.  Only a certifying modulus lists the allowed residues, and it
    lists them without testing each m: by the criterion, e*m + k is a square
    mod 2^j exactly when e*m + k = 0 (mod 2^j) or
    e*m + k = 2^v (mod 2^(v + min(j-v, 3))) for an even v < j.  A linear
    congruence e*m + k = r (mod 2^i) holds on one residue class of m modulo
    2^i/gcd(e, 2^i), or on none, so each element allows a union of at most
    ceil(j/2) + 1 progressions mod 2^j, and listing them costs about as
    much as the residues they hold.
    verify_certificate still re-derives every set by enumeration.

    The powers 2, 4, 8, ... up to max_modulus are scanned upwards, and the
    first that certifies is returned with its allowed residues listed.  A
    square mod 2^i stays a square mod every 2^j with j <= i, so x is a
    square mod 2^j exactly when its depth is at least j, and a residue
    common mod 2^i is common mod every smaller power of 2.  So the scan of
    2^(j+1) starts at the least residue common mod 2^j, since a residue
    below it is below 2^j and so is not common mod 2^(j+1) either.  And
    once the scan finds its least common residue m, m stays common up to
    the smallest depth d of its three values and fails at d + 1, so the
    scan goes straight to level d + 1 and resumes at m + 1: every level it
    skips would have found the same m on its first test.  The last level
    is v + 4, with v = v_2(k), or the cap's if that is lower.  When the
    smallest depth passes it, the scan returns None, its one exit without
    a certificate, at the least residue common mod the last power.

    The scan decides the 2-adic question: no power of 2 certifies a triple
    that 2^(v+4) leaves uncertified.  Call m in Z_2 a point when every
    e*m + k is 0 or a square in Z_2; a point is common mod every 2^j.  It
    is enough to turn an m common mod 2^(v+4) into a point.  Write
    k = 2^v*kap, with kap odd.  Three points come for free; at m = x the
    other two values e*x + k are integer squares, as t is a D(k) triple:
    P0. k is a square in Z_2 (v even, kap = 1 mod 8): m = 0.
    P1. An element x has 2*v_2(x) + 3 <= v: m = x, as x^2 + k =
        x^2*(1 + k/x^2) with k/x^2 = 0 (mod 8).
    P2. kap = 5 (mod 8) and an element x has 2*v_2(x) = v + 2: m = x, as
        x^2 + k = 2^v*(kap + 4*u^2) = 2^v (mod 2^(v+3)) for an odd u.
    A finite depth is at most the value's valuation + 2, so each value at
    m either has valuation at least v + 2 or is a nonzero square in Z_2
    with valuation at most v + 1.  Let H be the elements whose value is of
    the first kind (a zero value counts).  For e in H, v_2(e*m) = v, so
    m != 0, and every e in H has the same a = v_2(e) = v - b, b = v_2(m).
    |H| = 0.  m is a point.
    |H| = 1, H = {e}.  Each other element f has a value of valuation
       w_f <= v + 1 with w_f - v_2(f) - b <= 1: w_f = v_2(f*m) if that is
       below v, w_f = v if it is above, and w_f = v + 1 if it equals v.  So
       T = max(0, max over f of w_f + 3 - v_2(f)) <= b + 4, a + T <= v + 4,
       and e*m + k = s^2 (mod 2^(a+T)) for some s.  Then
       m + (s^2 - e*m - k)/e is a point: e's value becomes s^2, and each
       other value moves by a multiple of 2^(w_f + 3), which keeps that
       nonzero square a square.
    |H| >= 2, with e != f in H.  Write e = 2^a*eps and f = 2^a*phi, with
       eps and phi odd.  (e - f)*m = 0 (mod 2^(v+2)), so e = f
       (mod 2^(a+2)) and eps*phi = 1 (mod 4), and e*f + k =
       2^(2a)*eps*phi + 2^v*kap is 0 or a square in Z_2.  By a - b = 2a - v:
       - a - b <= -3: P1 with x = e.
       - a - b = 1 or -1: e*f + k has an odd valuation, or the odd part
         eps*phi + 2*kap = 3 (mod 4); neither is possible.
       - a - b >= 3: e*f + k = k (mod 2^(v+3)), so k is a square: P0.
       - a - b = 2: e*f + k = 2^v*(kap + 4*eps*phi) gives kap = 5 (mod 8),
         and 2*a = v + 2: P2 with x = e.
       - a - b = -2: e*f + k = 2^(2a)*(eps*phi + 4*kap) gives
         eps*phi = 5 (mod 8).  Let g be the third element.  If
         v_2(g) < a, P1 holds with x = g.  v_2(g) = a is impossible: e*g + k
         and f*g + k would give eps*gam = phi*gam = 5 (mod 8) for g's odd
         part gam in the same way, so eps*phi = 1 (mod 8).  v_2(g) = a + 1
         gives e*g + k an odd valuation.  If v_2(g) >= a + 2, g's value
         2^v*(kap + g*m/2^v) is a nonzero square, and g*m/2^v is 4 (mod 8)
         when v_2(g) = a + 2, so kap = 5 and P2 holds with x = g, and
         0 (mod 8) beyond, so kap = 1: P0.
       - a - b = 0: v = 2a, and the even e*f + k = 2^v*(eps*phi + kap)
         gives kap = 3 (mod 4).  If the third element g is in H too, its
         odd part is eps (mod 4) as well, and m = 2^(a+1)*u with u odd and
         2*eps*u = 1 - kap (mod 8) is a point: each value is
         2^v*(2*eps*u + kap) = 2^v (mod 2^(v+3)).  Otherwise g's value is
         a nonzero square of valuation at most v, and only v_2(g) = a + 1
         leaves one: v_2(g) <= a - 2 is P1, a - 1 gives the odd valuation
         v - 1, a a valuation above v, and a + 2 or more the odd part
         kap = 3 (mod 4).  Write m = 2^a*mu and move to
         m_y = 2^a*(y^2 - kap)/eps for an even y in Z_2.  e's value becomes
         2^v*y^2.  g's value moves by g*2^a*(y^2 - eps*mu - kap)/eps, a
         multiple of 2^(v+3), since e's value 2^v*(eps*mu + kap) has
         valuation at least v + 2; so it stays a square.  f's value is
         2^v/eps^2 times P*y^2 - 2^beta*R, where P = eps*phi,
         beta = v_2(phi - eps) >= 2 and R = kap*eps*(phi - eps)/2^beta
         is odd.  The values of e and f over 2^v have depth at least 4 at
         m, so each has valuation 2 and odd part 1 (mod 4), or valuation
         at least 4; they differ by (phi - eps)*mu, so beta is 2 or at
         least 4.  If beta is odd, then beta >= 5 and P = eps^2 = 1
         (mod 8), and y = 2 gives 4*(P - 2^(beta-2)*R), a square.  If beta
         is even: R = 7 (mod 8) takes y = 0, for -2^beta*R; R = 3 (mod 8)
         takes y = 2^(beta/2 + 1), for 2^beta*(4*P - R); and R = 1 (mod 4)
         takes y = 2^(beta/2)*y' with y'^2 whichever of R/P and (R + 4)/P
         is 1 (mod 8), for 0 or 2^(beta + 2).
    So the first certifying power of 2, if any, is at most 2^(v+4), and a
    cap above it changes nothing.  The bound is reached: {2, 5, 13} with
    k = -1 certifies first at 16, and {16, 96, 144} with k = -1280 first
    at 2^12.
    """
    _require_bound("max_modulus", max_modulus, 2)
    _require_verified_triple(t)
    return _scan_moduli(t, max_modulus)


def _scan_moduli(t: DiophTuple, max_modulus: int) -> ModularCertificate | None:
    # find_certificate's scan, for a D(k) triple that is already verified
    (e1, e2, e3), k = t.elements, t.k
    # the last level: the cap's, or v_2(k) + 4, past which none certifies
    top = min(max_modulus.bit_length() - 1, (k & -k).bit_length() + 3)
    depth = _square_depth
    m = 0  # the least residue common mod 2^(j-1); it fails at level j
    j = depth(k) + 1
    while j <= top:
        for m in range(m + 1, 1 << j):
            if ((d1 := depth(e1 * m + k)) >= j and (d2 := depth(e2 * m + k)) >= j
                    and (d3 := depth(e3 * m + k)) >= j):
                break
        else:
            return ModularCertificate(1 << j, {e: _allowed_residues(e, k, j) for e in t.elements})
        j = min(d1, d2, d3) + 1  # the first level at which m fails
    return None


def _allowed_residues(e: int, k: int, j: int) -> frozenset[int]:
    # {m mod 2^j : e*m + k is a square mod 2^j}, as the union of the
    # progressions of find_certificate's docstring: one per target
    # e*m + k = r (mod 2^i) that has a solution
    targets = [(0, j)] + [(1 << v, v + min(j - v, 3)) for v in range(0, j, 2)]
    progressions = []
    for r, i in targets:
        g = gcd(e, 1 << i)
        if (r - k) % g == 0:
            step = (1 << i) // g
            start = (r - k) // g * pow(e // g, -1, step) % step
            progressions.append(range(start, 1 << j, step))
    return frozenset().union(*progressions)


def _square_depth(x: int) -> float:
    # the largest j at which x is a square mod 2^j, by find_certificate's
    # criterion; inf for 0 and for a square in Z_2, which are squares mod
    # every 2^j
    if x == 0:
        return inf
    v = (x & -x).bit_length() - 1
    u = (x >> v) & 7
    return v if v & 1 else inf if u == 1 else v + 2 if u == 5 else v + 1


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
