import io
import random
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import FrozenInstanceError, replace
from functools import cache
from itertools import islice
from math import gcd, inf, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dioph.arith import _SQUARES_MOD_45045, factorize, is_perfect_square
from dioph.cli import main as cli_main
from dioph.extension import (
    VERDICT_BOUNDED,
    VERDICT_CERTIFIED,
    VERDICT_EXTENDED,
    ExtensionCandidate,
    ModularCertificate,
    SearchReport,
    _allowed_residues,
    _live_classes,
    _require_verified_triple,
    _root_walks,
    _search,
    _square_depth,
    brute_force_search,
    find_certificate,
    pell_extension_search,
    search_and_certify,
    verify_certificate,
)
from dioph.pell import PellProblem, _class_points, solve_general
from dioph.tuples import (
    DiophTuple,
    enumerate_triples,
    reduce_pair,
    square_points,
    verify,
)
from reduction_oracle import recover_m, reference_walk

T_7_14_41 = DiophTuple((7, 14, 41), 2)
T_1_3_8 = DiophTuple((1, 3, 8), 1)
T_3_4_13 = DiophTuple((3, 4, 13), -3)
T_1_2_7 = DiophTuple((1, 2, 7), 2)
# the odd primes below the character-sum count's reach (p >= 29)
ODD_PRIMES_TO_23 = (3, 5, 7, 11, 13, 17, 19, 23)

K2_FIXTURES = [
    DiophTuple((7, 14, 41), 2),
    DiophTuple((1, 7, 14), 2),
    DiophTuple((41, 239, 478), 2),
    DiophTuple((7, 41, 82), 2),
    DiophTuple((41, 82, 239), 2),
]

WALK_FIXTURES = K2_FIXTURES + [
    T_1_3_8,
    T_3_4_13,
    T_1_2_7,
    DiophTuple((1, 4, 11), 5),
    DiophTuple((7, 83, 138), -5),
    DiophTuple((1, 61, 78), 3),
    # classes that are their own mirror, of the three kinds
    DiophTuple((1, 33, 44), -8),  # x = 0: class (0, 16)
    DiophTuple((6, 8, 28), 1),  # y = 0: class (4, 0)
    DiophTuple((2, 4, 6), -8),  # ties the member behind it: class (8, 4)
]


def reference_certifies(t, M):
    """No m mod M makes every e*m + k a square mod M, by direct enumeration."""
    squares = {r * r % M for r in range(M)}
    sets = [{m for m in range(M) if (e * m + t.k) % M in squares} for e in t.elements]
    return not (sets[0] & sets[1] & sets[2])


def reference_first_certificate_modulus(t, max_modulus):
    """Ascending scan over every modulus, squares by direct enumeration."""
    for M in range(2, max_modulus + 1):
        if reference_certifies(t, M):
            return M
    return None


def unit_step(D, unit, u, v, direction):
    """(u + v*sqrt(D)) times the unit (direction 1) or its inverse (-1)."""
    x1, y1 = unit.x, direction * unit.y
    return u * x1 + v * y1 * D, u * y1 + v * x1


def square_discriminant_points(D, N):
    """Every solution with x, y >= 0 of x^2 - D*y^2 = N for a square D = d^2,
    sorted by y, by enumerating the box 0 <= y <= |N| // d: |x - d*y| >= 1
    forces x + d*y <= |N|, and each y fixes x."""
    d = isqrt(D)
    points = [(is_perfect_square(N + D * y * y), y) for y in range(abs(N) // d + 1)]
    return [(x, y) for x, y in points if x is not None]


def reference_ladder(t, max_index):
    """The members of a walk of every Pell class, mirrors included, max_index
    unit steps both ways from its stored representative, as (rungs,
    self_hits): rungs maps each distinct m outside t, ascending, to its
    roots of a*m + k and b*m + k; a repeated m has the same roots."""
    a, b, _ = t.elements
    red = reduce_pair(a, b, t.k)
    if (d := is_perfect_square(red.D)) is not None:
        # the box has |N| // d + 1 rows; past 10^6 the points come from
        # _class_points, which test_pell holds equal to the box on small N
        if abs(red.N) // d <= 10**6:
            solutions = square_discriminant_points(red.D, red.N)
        else:
            solutions = _class_points(red.D, red.N)[0]
    else:
        solutions = []
        for cls in solve_general(PellProblem(red.D, red.N)):
            rep = (cls.rep.x, cls.rep.y)
            solutions.append(rep)
            for direction in (1, -1):
                u, v = rep
                for _ in range(max_index):
                    u, v = unit_step(red.D, cls.unit, u, v, direction)
                    solutions.append((u, v))
        solutions = [(abs(u), abs(v)) for u, v in solutions]
    rungs = {}
    hits = set()
    for X, Y in solutions:
        m = recover_m(red, X, Y)
        if m is None or m <= 0:
            continue
        if m in t.elements:
            hits.add(m)
        else:
            assert rungs.setdefault(m, (X // b, Y)) == (X // b, Y), (t, m)
    return dict(sorted(rungs.items())), tuple(sorted(hits))


def exact_steps(t, max_index, tested):
    """The exact recurrence steps of pell_extension_search(t, max_index),
    read off the values it tested for a square.

    A class steps its exact w from its least member up to the last member
    it tests, and it tests every member it steps to (a w that is no
    element's c*e + k and exceeds k goes to is_perfect_square), so the
    steps are the sum over the classes of the index of the last member
    whose w is in tested.  Members are told apart by w mod the prime
    2^61 - 1, stepped by the recurrence of that function's docstring."""
    P = 2**61 - 1
    a, b, c = t.elements
    k = t.k
    tested = {v % P for v in tested}
    steps = 0
    for x, Y, x1, y1 in _live_classes(a, b, k):
        xb, xf = x1 * x - a * y1 * Y, x1 * x + a * y1 * Y
        w0, w, w1 = ((c * ((z * z - k) // a) + k) % P for z in (xb, x, xf))
        q = (4 * x1 * x1 - 1) % P
        last = 0
        for n in range(max_index + 1):
            if w in tested:
                last = n
            w0, w, w1 = w, w1, (q * (w1 - w) + w0) % P
        steps += last
    return steps


def checked_ladder(t, max_index):
    """t's reference ladder, once pell_extension_search is checked to list
    exactly its rungs with c*m + k a square, with the ladder's roots, and
    its self-hits."""
    rungs, hits = ladder = reference_ladder(t, max_index)
    a, b, c = t.elements
    extensions = tuple(
        ExtensionCandidate(m, {a: ra, b: rb, c: rc})
        for m, (ra, rb) in rungs.items()
        if (rc := is_perfect_square(c * m + t.k)) is not None
    )
    report = pell_extension_search(t, max_index)
    assert report == SearchReport(t, "pell_sequence", max_index, extensions, hits), t
    assert_roots_hold(report)
    return ladder


def assert_roots_hold(report):
    """Each candidate's roots are those of e*m + k for the three elements, in order."""
    t = report.triple
    for cand in report.candidates:
        assert list(cand.roots) == list(t.elements), cand
        for e, r in cand.roots.items():
            assert r * r == e * cand.m + t.k, (e, cand)


def small_dk_triples(seed, count):
    """count seeded D(k) triples with elements <= 60 and 0 < |k| <= 8."""
    pool = [
        (elements, k)
        for k in range(-8, 9) if k
        for elements in enumerate_triples(60, k)
    ]
    sample = random.Random(seed).sample(pool, count)
    assert {k > 0 for _, k in sample} == {True, False}
    return [DiophTuple(elements, k) for elements, k in sample]


@cache
def census_triples() -> tuple[DiophTuple, ...]:
    """The 618 triples of the default census: elements <= 150, k in [-5, 5]."""
    return tuple(DiophTuple(e, k) for k in range(-5, 6) if k for e in enumerate_triples(150, k))


@cache
def wide_census_triples() -> tuple[DiophTuple, ...]:
    """The 3764 triples of the wide census: elements <= 150, k in [-30, 30]."""
    return tuple(DiophTuple(e, k) for k in range(-30, 31) if k for e in enumerate_triples(150, k))


@st.composite
def triples_dk_or_not(draw):
    """Triples with elements <= 200 and 1 <= |k| <= 50: random ones, almost
    never D(k); default-census ones, always D(k); and census ones with one
    element swapped for another D(k) partner of a second, so that the pair
    left to fail may be any of the three."""
    kind = draw(st.sampled_from(["random", "census", "swapped"]))
    if kind == "random":
        elements = draw(st.lists(st.integers(1, 200), min_size=3, max_size=3, unique=True))
        return DiophTuple(tuple(elements), draw(st.integers(-50, 50).filter(bool)))
    t = draw(st.sampled_from(census_triples()))
    elements = list(t.elements)
    hub, swapped = draw(st.permutations(range(3)))[:2]
    partners = [m for m in range(1, 201) if m not in elements
                and is_perfect_square(elements[hub] * m + t.k) is not None]
    if kind == "census" or not partners:
        return t
    elements[swapped] = draw(st.sampled_from(partners))
    return DiophTuple(tuple(elements), t.k)


@cache
def squares_mod_2_to(j):
    """The squares mod 2^j, enumerated."""
    return frozenset(r * r % (1 << j) for r in range(1 << j))


def is_2_adic_square_or_zero(x):
    """x is 0 or a square in Z_2: its 2-valuation is even and its odd part is 1 mod 8."""
    if x == 0:
        return True
    v = 0
    while x % 2 == 0:
        x //= 2
        v += 1
    return v % 2 == 0 and x % 8 == 1


def least_2_adic_point(t):
    """The least m >= 0 at which every e*m + k is 0 or a square in Z_2,
    found by a plain walk; none of the triples tested needs 2^12 steps."""
    return next(m for m in range(1 << 12)
                if all(is_2_adic_square_or_zero(e * m + t.k) for e in t.elements))


def has_common_root_off_the_integers(t):
    """Some root -k/e is in Z_2, is no nonnegative integer, and makes the
    other two values, k*(e - f)/e, squares in Z_2."""
    k = t.k
    for e in t.elements:
        if (k & -k) % (e & -e) or k % e == 0 and -k // e >= 0:
            continue  # v_2(e) > v_2(k), or -k/e is a nonnegative integer
        if all(is_2_adic_square_or_zero(k * (e - f) * e) for f in t.elements if f != e):
            return True
    return False


@cache
def shared_prime_triples(max_element, max_abs_k):
    """(t, primes) for each D(k) triple with elements <= max_element and
    1 <= |k| <= max_abs_k in which an odd prime divides both k and an
    element; primes are the odd primes of gcd(k, e1*e2*e3)."""
    out = []
    for k in range(-max_abs_k, max_abs_k + 1):
        if not k:
            continue
        for e1, e2, e3 in enumerate_triples(max_element, k):
            primes = tuple(p for p, _ in factorize(gcd(k, e1 * e2 * e3)) if p != 2)
            if primes:
                out.append((DiophTuple((e1, e2, e3), k), primes))
    return tuple(out)


def valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def p_adic_witness(t, p, q):
    """(case, m mod q) from find_certificate's proof for the odd prime p,
    q a power of p: every e*m + k is then a square in Z_p."""
    k = t.k
    vk = valuation(k, p)
    for e in t.elements:
        if 2 * valuation(e, p) < vk:
            return 1, e % q
    residues = {r * r % p for r in range(1, p)}
    if vk % 2 == 0 and k // p**vk % p in residues:
        return 2, 0
    # cases 3 and 4: all valuations are vk/2, and the unit parts are case 3
    a = vk // 2
    assert all(valuation(e, p) == a for e in t.elements), (t, p)
    s = p**a
    units = [e // s for e in t.elements]
    h = k // (s * s)
    for m in range(p):
        values = [(u * m + h) % p for u in units]
        if all(v in residues for v in values):
            break
        if values.count(0) == 1 and all(v in residues for v in values if v):
            m = -h * pow(units[values.index(0)], -1, q) % q  # the p-adic root
            break
    else:
        raise AssertionError(f"no liftable residue for {t} at {p}")
    return (3 if a == 0 else 4), s * m % q


def common_square(p, k, elements, squares):
    """Whether some m makes every e*m + k a nonzero square mod p."""
    return any(all((e * m + k) % p in squares for e in elements) for m in range(p))


def liftable_common_residue(p, k, elements, squares):
    """Whether some m mod p makes every e*m + k a nonzero square mod p, or
    exactly one of them 0 and the other two nonzero squares: the p-adic root
    of the zero factor then reduces to a common residue mod every p^j."""
    for m in range(p):
        values = [(e * m + k) % p for e in elements]
        zeros = values.count(0)
        if zeros <= 1 and all(v in squares for v in values if v):
            return True
    return False


def dk_configurations(p, shifts):
    """(k, residues) for each k in shifts and each multiset of three residues
    mod p whose pairwise products plus k are squares or 0 mod p."""
    squares = {r * r % p for r in range(p)}
    for k in shifts:
        for e1 in range(p):
            for e2 in range(e1, p):
                for e3 in range(e2, p):
                    pairs = ((e1, e2), (e1, e3), (e2, e3))
                    if all((x * y + k) % p in squares for x, y in pairs):
                        yield k, (e1, e2, e3)


def reference_brute_force(t, max_m):
    """Test every m in [1, max_m] in turn, as brute_force_search once did."""
    a, b, c = t.elements
    found = []
    hits = []
    for m in range(1, max_m + 1):
        ra = is_perfect_square(a * m + t.k)
        rb = is_perfect_square(b * m + t.k)
        if ra is None or rb is None:
            continue
        if m in t.elements:
            hits.append(m)
            continue
        rc = is_perfect_square(c * m + t.k)
        if rc is not None:
            found.append(ExtensionCandidate(m, {a: ra, b: rb, c: rc}))
    return SearchReport(t, "brute_force", max_m, tuple(found), tuple(hits))


# (triple, walked element e): for e = 1, 2, 8 and 41, triples whose walk
# runs on e at wheel_cases' bounds; k < 0 with e | k puts a point at r = 0,
# and 1680 lies past every bound of {1, 120, 1680}
WHEEL_TRIPLES = [
    (DiophTuple((1, 21, 85), -21), 1),
    (DiophTuple((1, 120, 1680), 1), 1),
    (DiophTuple((2, 42, 170), -84), 2),
    (DiophTuple((8, 64, 180), -71), 8),
    (DiophTuple((8, 13, 37), -40), 8),
    (DiophTuple((1, 41, 161), -40), 41),
    (DiophTuple((41, 42, 165), -41), 41),
]


def wheel_cases():
    """(t, e, max_m) for each of WHEEL_TRIPLES, each root rho of
    r^2 = k (mod e) and each max_m that puts the top root isqrt(e*max_m + k)
    at rho + 16*e - 1, rho + 16*e and rho + 16*e + 1: just before the walk's
    second pass over its first 16 points, at its first point and past it."""
    cases = []
    for t, e in WHEEL_TRIPLES:
        for rho in (r for r in range(e) if (r * r - t.k) % e == 0):
            for top in range(rho + 16 * e - 1, rho + 16 * e + 2):
                max_m = -(-(top * top - t.k) // e)  # the least with isqrt(e*max_m + k) >= top
                assert isqrt(e * max_m + t.k) == top
                cases.append((t, e, max_m))
    return cases


def reference_smallest_element_walk(t, max_m):
    """Walk the square roots of a*m + k for the smallest element a, as
    brute_force_search once did whatever the cost of that walk."""
    a, b, c = t.elements
    found = []
    hits = []
    for m, ra in square_points(a, t.k, max_m):
        rb = is_perfect_square(b * m + t.k)
        if rb is None:
            continue
        if m in t.elements:
            hits.append(m)
            continue
        rc = is_perfect_square(c * m + t.k)
        if rc is not None:
            found.append(ExtensionCandidate(m, {a: ra, b: rb, c: rc}))
    found.sort(key=lambda cand: cand.m)
    return SearchReport(t, "brute_force", max_m, tuple(found), tuple(sorted(hits)))


@pytest.fixture
def walked(monkeypatch):
    """The element of each square_points walk that dioph.extension starts."""
    elements = []

    def recording_root_walks(a, *args):
        elements.append(a)
        return _root_walks(a, *args)

    monkeypatch.setattr("dioph.extension._root_walks", recording_root_walks)
    return elements


@pytest.fixture
def square_tested(monkeypatch):
    """Every value dioph.extension tests exactly for a square."""
    values = []

    def recording_is_perfect_square(n):
        values.append(n)
        return is_perfect_square(n)

    monkeypatch.setattr("dioph.extension.is_perfect_square", recording_is_perfect_square)
    return values


class TestPellExtensionSearch:
    def test_rejects_non_triples_and_non_dk_sets(self):
        with pytest.raises(ValueError):
            pell_extension_search(DiophTuple((1, 3), 1), 10)
        with pytest.raises(ValueError, match=r"7\*40\+2 = 282"):
            pell_extension_search(DiophTuple((7, 14, 40), 2), 10)
        with pytest.raises(ValueError, match=r"4\*12-8 = 40 is not"):
            pell_extension_search(DiophTuple((4, 12, 33), -8), 10)
        with pytest.raises(ValueError):
            pell_extension_search(T_7_14_41, -1)

    @pytest.mark.parametrize(
        "elements,k,failing",
        [
            ((1, 2, 3), 1, "1*2+1 = 3"),  # the first pair fails, the others too
            ((1, 3, 9), 1, "1*9+1 = 10"),  # the second pair
            ((1, 3, 15), 1, "3*15+1 = 46"),  # the third pair only
            ((4, 12, 33), -8, "4*12-8 = 40"),
        ],
    )
    def test_names_the_first_failing_pair(self, elements, k, failing):
        # the pairs are tested in verify's order and the first failure is
        # named, for every search
        t = DiophTuple(elements, k)
        bad = verify(t).failing_pairs()[0]
        assert failing == f"{bad.a}*{bad.b}{k:+d} = {bad.shifted}"
        message = f"{t} is not a D({k}) triple: {failing} is not a square"
        for search in (lambda: pell_extension_search(t, 10), lambda: brute_force_search(t, 10),
                       lambda: find_certificate(t, 512), lambda: search_and_certify(t)):
            with pytest.raises(ValueError) as raised:
                search()
            assert str(raised.value) == message

    def test_live_classes_are_the_classes_that_recover_an_m(self):
        # _live_classes keeps exactly the classes of solve_general (or the
        # finite points, for a square a*b) whose least member recover_m
        # accepts, in the reduced coordinates (X/b, Y), with their unit
        kinds = Counter()
        for t in benchmark_pool():
            a, b, _ = t.elements
            red = reduce_pair(a, b, t.k)
            if is_perfect_square(red.D) is not None:
                points = [(X, Y, 1, 0) for X, Y in square_discriminant_points(red.D, red.N)]
            else:
                points = [(c.rep.x, c.rep.y, c.unit.x, c.unit.y)
                          for c in solve_general(PellProblem(red.D, red.N))]
            live = [(X // b, Y, x1, y1) for X, Y, x1, y1 in points
                    if recover_m(red, X, Y) is not None]
            assert _live_classes(a, b, t.k) == live, t
            kinds["live"] += len(live)
            kinds["dead"] += len(points) - len(live)
            kinds["finite"] += sum(y1 == 0 for *_, y1 in live)
        assert kinds["live"] and kinds["dead"] and kinds["finite"]

    def test_near_extension_ladder_of_7_14_41(self):
        rungs, hits = checked_ladder(T_7_14_41, 30)
        report = pell_extension_search(T_7_14_41, 30)
        assert report.strategy == "pell_sequence"
        assert report.bound == 30
        assert report.self_hits == hits == (41,)
        assert report.verdict == VERDICT_BOUNDED
        assert report.candidates == ()
        assert list(rungs)[:4] == [1, 47561, 1615681, 1864494721]
        assert rungs[1] == (3, 4)

    def test_positive_control_1_3_8(self):
        rungs, hits = checked_ladder(T_1_3_8, 10)
        report = pell_extension_search(T_1_3_8, 10)
        assert hits == (8,)
        assert report.verdict == VERDICT_EXTENDED
        assert report.candidates == (ExtensionCandidate(120, {1: 11, 3: 19, 8: 31}),)
        assert list(rungs)[:4] == [120, 1680, 23408, 326040]
        assert rungs[120] == (11, 19)

    def test_negative_k_fixture_3_4_13(self):
        rungs, hits = checked_ladder(T_3_4_13, 30)
        assert pell_extension_search(T_3_4_13, 30).candidates == ()
        assert hits == (13,)
        assert list(rungs)[:3] == [1, 2353, 456301]
        assert rungs[1] == (0, 1)

    def test_smallest_pair_ladder_1_2_7(self):
        rungs, hits = checked_ladder(T_1_2_7, 30)
        assert pell_extension_search(T_1_2_7, 30).candidates == ()
        assert hits == (7,)
        assert list(rungs)[:3] == [287, 9799, 332927]

    def test_square_discriminant_pair_handled(self):
        # the two smallest elements of {1, 4, 11} multiply to a square, so
        # the reduction degenerates to a finite divisor problem
        report = pell_extension_search(DiophTuple((1, 4, 11), 5), 30)
        assert report.self_hits == (11,)
        assert report.candidates == ()
        assert report.verdict == VERDICT_BOUNDED

    @pytest.mark.parametrize(
        "elements,k,m",
        [((7, 83, 138), -5, 1881932883), ((1, 61, 78), 3, 184443558)],
    )
    def test_candidates_from_classes_past_the_old_cap(self, elements, k, m):
        # these come from Pell classes a y-scan capped at 10^5 never found
        rungs, _ = checked_ladder(DiophTuple(elements, k), 30)
        assert m in rungs
        assert is_perfect_square(elements[2] * m + k) is None

    def test_huge_square_discriminant_triple(self):
        # a*b = 999983^2 and |k*b*(b-a)| is about 2*10^30: the divisor pairs
        # come from a factorisation, not from a scan up to sqrt(|N|)
        t = DiophTuple((1, 999966000289, 999968000258), 1999967)
        rungs, hits = checked_ladder(t, 30)
        assert hits == (999968000258,)
        assert list(rungs) == [999964000322]
        assert pell_extension_search(t, 30).candidates == ()

    def test_deeper_search_only_adds_candidates(self):
        shallow = set(checked_ladder(T_7_14_41, 10)[0])
        deep = set(checked_ladder(T_7_14_41, 30)[0])
        assert shallow <= deep
        assert len(deep) > len(shallow)

    def test_candidates_sorted_and_distinct(self):
        for t in [T_7_14_41, T_1_3_8, T_3_4_13, T_1_2_7]:
            candidates = pell_extension_search(t, 20).candidates
            for ms in ([c.m for c in candidates], list(reference_ladder(t, 20)[0])):
                assert ms == sorted(set(ms))
                assert all(m >= 1 for m in ms)

    @pytest.mark.parametrize("index", [0, 1, 2, 15, 30])
    def test_matches_walk_over_every_class(self, index):
        cases = WALK_FIXTURES + small_dk_triples(6, 40)
        if index == 15:  # the census's depth, over the census's triples
            cases += census_triples()
        kinds = set()
        for t in cases:
            red = reduce_pair(t.elements[0], t.elements[1], t.k)
            if is_perfect_square(red.D) is None:
                classes = solve_general(PellProblem(red.D, red.N))
                reps = {(cls.rep.x, cls.rep.y) for cls in classes}
                for cls in classes:
                    x, y = cls.rep.x, cls.rep.y
                    if x < 0 and (-x, y) in reps:
                        kinds.add("mirror pair")
                    if x == 0:
                        kinds.add("x = 0")
                    if y == 0:
                        kinds.add("y = 0")
                    if abs(unit_step(red.D, cls.unit, x, y, -1)[1]) == y > 0:
                        kinds.add("tie")
            assert checked_ladder(t, index) == reference_ladder(t, index), t
        # the forward walk has to stand in for the backward one in each case
        assert kinds == {"mirror pair", "x = 0", "y = 0", "tie"}

    @pytest.mark.parametrize("index", [0, 1, 2, 15, 30])
    @pytest.mark.parametrize("name", ["census", "pool"])
    def test_matches_the_walk_with_every_member_exact(self, name, index):
        # the residue filter skips only members that are no square and not
        # c's own value c*c + k; {1, 3, 8} meets its self-hit 8 at index 1,
        # where 8*8 + 1 = 65 is no square
        triples = {"census": census_triples, "pool": benchmark_pool}[name]()
        for t in (*WALK_FIXTURES, *triples):
            assert pell_extension_search(t, index) == reference_walk(t, index), t

    def test_keeps_the_own_value_of_c_though_it_is_no_square(self):
        # at index 1 the self-hit 8 of {1, 3, 8} comes only from c's own
        # value, 65, which the square filter's first stage rejects (65 = 2 mod 9)
        assert not _SQUARES_MOD_45045[8 * 8 + 1]
        assert pell_extension_search(T_1_3_8, 1).self_hits == (8,)

    @pytest.mark.parametrize("t", [DiophTuple((7168, 14336, 41984), 2**21),
                                   DiophTuple((1792, 21248, 35328), -327680)],
                             ids=["7168,14336,41984 k=2^21", "7,83,138*2^8"])
    def test_hard_walks_step_no_member_exactly(self, t, square_tested):
        # each class's w passes c's own value c*c + k by index 1, so past the
        # least member only the three square stages can call for an exact
        # step, and on these walks (1024 and 768 live classes, units of 1176
        # and 735 digits) no member passes them all
        report = pell_extension_search(t, 30)
        assert report.candidates == () and report.self_hits == (t.elements[2],)
        a, b, c = t.elements
        least = {c * ((x * x - t.k) // a) + t.k for x, *_ in _live_classes(a, b, t.k)}
        assert set(square_tested) <= least
        assert exact_steps(t, 30, square_tested) == 0

    def test_candidate_record_contract(self):
        # equality and repr by fields; frozen, yet unhashable, since roots is a dict
        found = pell_extension_search(T_1_3_8, 15).candidates
        expected = ExtensionCandidate(120, {1: 11, 3: 19, 8: 31})
        assert found == (expected,)
        assert repr(expected) == "ExtensionCandidate(m=120, roots={1: 11, 3: 19, 8: 31})"
        with pytest.raises(TypeError):
            hash(expected)
        with pytest.raises(FrozenInstanceError):
            expected.m = 121

    def test_a_class_yields_m_at_every_member_or_at_none(self):
        # pell_extension_search skips a class whose rep yields no m; the
        # default census's triples have 443 such classes among 2400
        census = census_triples()
        samples = small_dk_triples(6, 40) + small_dk_triples(11, 40) + small_dk_triples(4, 40)
        counts = {}
        for name, cases in [("fixtures", WALK_FIXTURES + samples), ("census", census)]:
            dead = total = 0
            for t in cases:
                red = reduce_pair(t.elements[0], t.elements[1], t.k)
                if is_perfect_square(red.D) is not None:
                    continue
                for cls in solve_general(PellProblem(red.D, red.N)):
                    live = recover_m(red, cls.rep.x, cls.rep.y) is not None
                    for u, v in islice(cls.walk(), 31):
                        assert (recover_m(red, abs(u), abs(v)) is not None) == live, (t, cls)
                    dead += not live
                    total += 1
            counts[name] = (dead, total)
        assert counts["census"] == (443, 2400)
        assert 0 < counts["fixtures"][0] < counts["fixtures"][1]


class TestBruteForceSearch:
    def test_finds_known_extension(self):
        report = brute_force_search(T_1_3_8, 200)
        assert report.strategy == "brute_force"
        assert report.bound == 200
        assert report.candidates == (ExtensionCandidate(120, {1: 11, 3: 19, 8: 31}),)
        assert report.verdict == VERDICT_EXTENDED
        assert report.self_hits == (8,)

    def test_records_only_complete_candidates(self):
        report = brute_force_search(T_7_14_41, 10**5)
        assert report.candidates == ()
        assert report.verdict == VERDICT_BOUNDED

    def test_agrees_with_pell_search_on_fixtures(self):
        for t in [T_7_14_41, T_3_4_13, T_1_2_7, T_1_3_8]:
            brute = {c.m for c in brute_force_search(t, 10**5).candidates}
            pell = {c.m for c in pell_extension_search(t, 30).candidates if c.m <= 10**5}
            assert brute == pell

    def test_reports_what_the_pell_search_reports_on_default_census(self):
        # both strategies list only the m that extend, so below the
        # oracle's bound their lists agree record for record
        triples = census_triples()
        assert len(triples) == 618
        extended = 0
        for t in triples:
            pell = pell_extension_search(t, 30).candidates
            brute = brute_force_search(t, 10**6).candidates
            assert repr(tuple(c for c in pell if c.m <= 10**6)) == repr(brute), t
            extended += bool(brute)
        assert extended == 249

    def test_matches_per_m_reference(self):
        cases = [
            (DiophTuple((1, 3, 4), -3), 1),  # a*max_m + k < 0
            (DiophTuple((1, 3, 4), -3), 50),  # a + k < 0
            (DiophTuple((5, 10, 25), -25), 5),  # residue loop cut to r = 0
            # a <= max_m but a*max_m + k < 0; r = 0 would give self-hit 9
            (DiophTuple((8, 9, 17), -72), 8),
            (DiophTuple((4, 8, 10), -31), 8),  # cut short though a <= max_m
            (DiophTuple((41, 239, 478), 2), 7),  # a > max_m: one start per square a*m + k
            (T_7_14_41, 1),
            (T_1_3_8, 120),  # a*max_m + k = 11^2: the bound is inclusive
            (T_1_3_8, 119),
            # self-hits (4, 19): a is one, and the walk meets 19 first
            (DiophTuple((4, 7, 19), -12), 100),
            (DiophTuple((2, 5, 9), -9), 100),  # self-hits (5, 9): b is one
            # extensions 45 and 69, the walk meets 69 first
            (DiophTuple((5, 13, 24), -56), 100),
            # the same three walking c, whose walk is the shortest
            (DiophTuple((4, 7, 19), -12), 10**5),
            (DiophTuple((2, 5, 9), -9), 10**5),
            (DiophTuple((5, 13, 24), -56), 10**5),
            (T_1_3_8, 5),  # c > max_m
            (DiophTuple((1, 3, 120), 1), 100),  # c > max_m, and walks b
        ]
        cases += [(t, max_m) for t, _, max_m in wheel_cases()]
        cases += [
            (t, max_m) for t in small_dk_triples(11, 40) for max_m in (1, 7, 300, 20000)
        ]
        assert brute_force_search(DiophTuple((4, 7, 19), -12), 100).self_hits == (4, 19)
        assert brute_force_search(DiophTuple((2, 5, 9), -9), 100).self_hits == (5, 9)
        report = brute_force_search(DiophTuple((5, 13, 24), -56), 100)
        assert [c.m for c in report.candidates] == [45, 69]
        for t, max_m in cases:
            report = brute_force_search(t, max_m)
            assert report == reference_brute_force(t, max_m), (t, max_m)
            assert repr(report) == repr(reference_smallest_element_walk(t, max_m)), (t, max_m)
            assert_roots_hold(report)

    @given(st.integers(0, 617), st.integers(1, 5000))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_m_reference_at_random_bounds(self, index, max_m):
        # a bound anywhere cuts the root walks at any point of the wheel's
        # first pass or of a kept point's steps, and for e > max_m too
        t = census_triples()[index]
        assert brute_force_search(t, max_m) == reference_brute_force(t, max_m), (t, max_m)

    def test_wheel_keeps_the_points_square_mod_16(self, walked, square_tested):
        # the points kept are those of the walk at which both other elements
        # give a square mod 16, e > max_m as well.  x*m + k is tested exactly
        # at each that passes dioph.arith's table mod 45045, y*m + k where that
        # test succeeds, m is no element and y*m + k passes the table too, and
        # then come the self-hit tests of the two smallest elements a and b
        squares = {0, 1, 4, 9}
        counts = {}
        cases = wheel_cases() + [(T_1_3_8, 8, 10**6), (T_7_14_41, 41, 10**6), (T_1_3_8, 3, 1)]
        for t, e, max_m in cases:
            walked.clear()
            square_tested.clear()
            brute_force_search(t, max_m)
            assert walked == [e], (t, max_m)
            k = t.k
            a, b, _ = t.elements
            x, y = (f for f in t.elements if f != e)
            points = list(square_points(e, k, max_m))
            kept = [m for m, _ in points
                    if (x * m + k) % 16 in squares and (y * m + k) % 16 in squares]
            passed = [m for m in kept if _SQUARES_MOD_45045[(x * m + k) % 45045]]
            tested = [x * m + k for m in passed]
            tested += [y * m + k for m in passed
                       if is_perfect_square(x * m + k) is not None and m not in t.elements
                       and _SQUARES_MOD_45045[(y * m + k) % 45045]]
            hits = [h for h in t.elements if h <= max_m]
            tested += [a * h + k for h in hits]
            tested += [b * h + k for h in hits if is_perfect_square(a * h + k) is not None]
            assert Counter(square_tested) == Counter(tested), (t, max_m)
            counts[t.elements, max_m] = (len(points), len(kept), len(passed))
        # brute_force_search's docstring quotes these
        assert counts[(1, 3, 8), 10**6] == (1413, 176, 27)
        assert counts[(7, 14, 41), 10**6] == (312, 0, 0)
        # 3 > max_m = 1: the wheel drops m = 1, as 1*1 + 1 = 2 is no square mod 16
        assert counts[(1, 3, 8), 1] == (1, 0, 0)

    def test_matches_smallest_element_walk_on_default_census(self, walked):
        triples = census_triples()
        assert len(triples) == 618
        stepped_elsewhere = {}
        for max_m in (1, 7, 100, 10**4):
            walked.clear()
            for t in triples:
                report = brute_force_search(t, max_m)
                assert repr(report) == repr(reference_smallest_element_walk(t, max_m)), (t, max_m)
            smallest = [t.elements[0] for t in triples]
            stepped_elsewhere[max_m] = sum(e != a for e, a in zip(walked, smallest, strict=True))
        assert stepped_elsewhere == {1: 125, 7: 27, 100: 35, 10**4: 251}

    def test_walks_the_element_with_the_shortest_walk(self, walked):
        # 41 + isqrt(10^6 // 41) = 197 values, against 384 for 7 and 281 for 14
        report = brute_force_search(T_7_14_41, 10**6)
        assert walked == [41]
        assert report.candidates == ()
        walked.clear()
        # the rule ignores rho(8) = 4: 8 walks 1413 points on 4 roots, not 1000
        report = brute_force_search(T_1_3_8, 10**6)
        assert walked == [8]
        assert repr(report) == repr(reference_smallest_element_walk(T_1_3_8, 10**6))
        walked.clear()
        brute_force_search(T_1_3_8, 1)  # 1 costs 2, an element > 1 costs 1
        assert walked == [3]

    def test_huge_smallest_element_costs_at_most_max_m(self):
        # a*(a+2) + 1, a*(4a+4) + 1 and (a+2)*(4a+4) + 1 are squares; the
        # roots of a*m + 1 up to m = 10^4 run past 10^8, the m only to 10^4
        a = 10**12
        t = DiophTuple((a, a + 2, 4 * a + 4), 1)
        start = time.perf_counter()
        report = brute_force_search(t, 10**4)
        elapsed = time.perf_counter() - start
        assert report == reference_brute_force(t, 10**4)
        assert elapsed < 2.0, f"search took {elapsed:.2f}s"

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_force_search(T_1_3_8, 0)
        with pytest.raises(ValueError):
            brute_force_search(DiophTuple((7, 14, 40), 2), 100)


def pair_walk_points(a, e, k, max_m):
    """Every m in [1, max_m] with a*m + k and e*m + k squares, read off the
    live classes of the reduction of the pair a < e: each class is walked
    from its least member while |Y| <= isqrt(e*max_m + k), as e*m + k = Y^2.
    The mirror of a class, also listed, covers its negative indices."""
    top = isqrt(e * max_m + k)
    points = set()
    for x, Y, x1, y1 in _live_classes(a, e, k):
        while abs(Y) <= top:
            m = (x * x - k) // a
            if m >= 1:
                points.add(m)
            if y1 == 0:  # the unit (1, 0) of a square a*e keeps the walk in place
                break
            x, Y = x1 * x + a * y1 * Y, e * y1 * x + x1 * Y
    return points


def two_walk_extensions(t, max_m):
    """The m <= max_m outside t common to the (a, b) and (a, c) walks."""
    a, b, c = t.elements
    return sorted((pair_walk_points(a, b, t.k, max_m)
                   & pair_walk_points(a, c, t.k, max_m)) - set(t.elements))


class TestTwoWalksMeet:
    # a third strategy beside the Pell walk and brute force: an extension is
    # an m that both the (a, b) and the (a, c) reductions reach
    @pytest.mark.parametrize("name", ["census", "pool"])
    def test_common_points_are_the_extensions(self, name):
        triples = {"census": census_triples, "pool": benchmark_pool}[name]()
        assert len(triples) == {"census": 618, "pool": 2033}[name]
        extended = 0
        for t in triples:
            brute = [c.m for c in brute_force_search(t, 10**6).candidates]
            assert two_walk_extensions(t, 10**6) == brute, t
            pell = [c.m for c in pell_extension_search(t, 30).candidates if c.m <= 10**15]
            assert two_walk_extensions(t, 10**15) == pell, t
            extended += bool(pell)
        assert extended == {"census": 249, "pool": 637}[name]


class TestFindCertificate:
    def test_rejects_a_non_dk_triple_and_a_cap_below_two(self):
        with pytest.raises(ValueError, match=r"7\*40\+2 = 282"):
            find_certificate(DiophTuple((7, 14, 40), 2), 10**4)
        with pytest.raises(ValueError, match="needs a triple"):
            find_certificate(DiophTuple((7, 14), 2), 10**4)
        for cap in (-1, 0, 1):
            with pytest.raises(ValueError, match="max_modulus must be >= 2"):
                find_certificate(T_7_14_41, cap)

    def test_k2_fixtures_certified_at_modulus_4(self):
        for t in K2_FIXTURES:
            cert = find_certificate(t, 10**4)
            assert cert is not None
            assert cert.modulus == 4
            assert verify_certificate(cert, t)

    def test_frozen_allowed_residues_7_14_41(self):
        cert = find_certificate(T_7_14_41, 10**4)
        assert cert.allowed_residues == {
            7: frozenset({1, 2}),
            14: frozenset({1, 3}),
            41: frozenset({2, 3}),
        }

    def test_frozen_allowed_residues_3_4_13(self):
        cert = find_certificate(T_3_4_13, 10**4)
        assert cert.modulus == 8
        assert cert.allowed_residues == {
            3: frozenset({1, 4, 5}),
            4: frozenset({1, 3, 5, 7}),
            13: frozenset({3, 4, 7}),
        }

    def test_extendable_triple_has_no_certificate(self):
        assert find_certificate(T_1_3_8, 300) is None

    def test_bound_below_first_modulus_gives_none(self):
        assert find_certificate(T_7_14_41, 3) is None

    def test_prime_power_scan_matches_full_scan(self):
        # the reference tries every modulus, odd ones included, the scan only
        # the powers of 2; up to 2^9, so that the scan settles below its top
        # power and carries common residues from one power to the next, and
        # to 2^7 on triples that share an odd prime with k
        cases = K2_FIXTURES + [T_3_4_13, T_1_3_8, T_1_2_7, DiophTuple((1, 5, 65), -1)]
        cases = [(t, 512) for t in cases + small_dk_triples(4, 40)]
        # caps whose first power is the top one (2, 3) or next to it (4, 5)
        cases += [(t, cap) for t in small_dk_triples(4, 40) for cap in (2, 3, 4, 5)]
        shared = random.Random(23).sample(shared_prime_triples(60, 300), 40)
        cases += [(t, 128) for t, _ in shared]
        for t, cap in cases:
            ref = reference_first_certificate_modulus(t, cap)
            cert = find_certificate(t, cap)
            got = None if cert is None else cert.modulus
            assert got == ref, f"{t}: expected first modulus {ref}, got {got}"

    def test_square_test_matches_enumeration(self):
        # the depth, read up to each top, is the largest j <= top with x a
        # square mod 2^j, against the squares mod each 2^j enumerated
        for top in range(1, 13):
            for x in range(-(1 << top), 1 << (top + 1)):
                expected = max(j for j in range(1, top + 1) if x % (1 << j) in squares_mod_2_to(j))
                assert min(_square_depth(x), top) == expected, (x, top)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4000).flatmap(
        lambda bits: st.integers(-(1 << bits), 1 << bits)), st.integers(1, 16))
    def test_square_depth_is_exact_far_past_any_cap(self, x, j):
        # values of thousands of bits, of both signs: the depth is infinite
        # exactly at 0 and the squares in Z_2, and at least j exactly when
        # x is a square mod 2^j
        assert (_square_depth(x) == inf) == is_2_adic_square_or_zero(x), x
        assert (_square_depth(x) >= j) == (x % (1 << j) in squares_mod_2_to(j)), (x, j)

    def test_listing_matches_enumeration(self):
        # the certifying branch's progressions against the enumerated
        # squares mod 2^j at every m: every e and k mod 2^j for j <= 8, then
        # seeded random e and k, 2-heavy ones included, up to 2^14
        for j in range(1, 9):
            M = 1 << j
            squares = {r * r % M for r in range(M)}
            for e in range(M):
                by_product = [[] for _ in range(M)]  # the m with e*m = x (mod M), per x
                for m in range(M):
                    by_product[e * m % M].append(m)
                for k in range(M):
                    expected = frozenset(m for x in squares for m in by_product[(x - k) % M])
                    assert _allowed_residues(e, k, j) == expected, (e, k, j)
        rng = random.Random(31)
        for j in range(9, 15):
            M = 1 << j
            squares = {r * r % M for r in range(M)}
            for _ in range(24):
                e = rng.randrange(1, 1 << 20) << rng.randrange(16)
                k = rng.choice([-1, 1]) * (rng.randrange(1, 1 << 20) << rng.randrange(16))
                expected = frozenset(m for m in range(M) if (e * m + k) % M in squares)
                assert _allowed_residues(e, k, j) == expected, (e, k, j)

    def test_proof_gives_a_p_adic_witness_at_every_odd_prime(self):
        # find_certificate's four cases on real triples: every triple with
        # elements <= 60 and 1 <= |k| <= 300 in which an odd prime divides
        # k and an element, at each such prime and, since case 3 needs a p
        # not dividing k, at each odd prime up to 23; the witness is checked
        # mod every p^j <= 2000 by direct enumeration of the squares
        squares = {}
        cases = Counter()
        pairs = 0
        for t, shared in shared_prime_triples(60, 300):
            pairs += len(shared)
            for p in sorted(set(shared) | set(ODD_PRIMES_TO_23)):
                top = p
                while top * p <= 2000:
                    top *= p
                case, m = p_adic_witness(t, p, top)
                cases[case] += 1
                q = p
                while q <= top:
                    if q not in squares:
                        squares[q] = {r * r % q for r in range(q)}
                    sq = squares[q]
                    assert all((e * m + t.k) % q in sq for e in t.elements), (t, p, case, q)
                    q *= p
        assert pairs == 3618
        assert sorted(cases) == [1, 2, 3, 4]

    def test_every_prime_from_29_leaves_a_common_square(self):
        # the character-sum case of find_certificate's docstring, exhaustively:
        # scaling m makes e1 = 1, scaling by a square makes k = 1 or the least
        # non-residue, and p | e in a D(k) triple forces k to be a residue
        for p in range(29, 114):
            if any(p % d == 0 for d in range(2, isqrt(p) + 1)):
                continue
            squares = {r * r % p for r in range(1, p)}
            non_residue = min(set(range(1, p)) - squares)
            for k in (1, non_residue):
                lowest = 0 if k == 1 else 1
                for e2 in range(lowest, p):
                    for e3 in range(e2, p):
                        assert common_square(p, k, (1, e2, e3), squares), (p, k, e2, e3)

    def test_odd_primes_to_23_leave_a_liftable_common_residue(self):
        # the exhaustive case of find_certificate's docstring: every k up to a
        # square factor and every multiset of element residues, zero
        # included, that a D(k) triple can have mod p
        for p in ODD_PRIMES_TO_23:
            squares = {r * r % p for r in range(1, p)}
            non_residue = min(set(range(1, p)) - squares)
            for k, elements in dk_configurations(p, (1, non_residue)):
                assert liftable_common_residue(p, k, elements, squares), (p, k, elements)
        # mod 13 nonzero squares alone can fail: (2, 4, 10) with k = 2 needs
        # the root m = 6 of 4*m + 2
        squares = {r * r % 13 for r in range(1, 13)}
        assert (2, (2, 4, 10)) in dk_configurations(13, (2,))
        assert not common_square(13, 2, (2, 4, 10), squares)
        assert [(e * 6 + 2) % 13 for e in (2, 4, 10)] == [1, 0, 10]
        assert {1, 10} <= squares

    def test_no_odd_prime_power_certifies_a_census_triple(self):
        # the proof's conclusion on real triples, by direct enumeration of
        # the squares mod each p^j <= 512, stopping at the first residue
        # common to all three elements
        squares = {}
        for t in census_triples():
            e1, e2, e3 = t.elements
            for p in ODD_PRIMES_TO_23:
                q = p
                while q <= 512:
                    if q not in squares:
                        squares[q] = {r * r % q for r in range(q)}
                    sq = squares[q]
                    assert any(
                        (e1 * m + t.k) % q in sq
                        and (e2 * m + t.k) % q in sq
                        and (e3 * m + t.k) % q in sq
                        for m in range(q)
                    ), (t, q)
                    q *= p

    def test_uncertifiable_triple_scans_a_huge_cap_quickly(self):
        start = time.perf_counter()
        cert = find_certificate(DiophTuple((2, 6, 14), -3), 10**9)
        elapsed = time.perf_counter() - start
        assert cert is None
        assert elapsed < 0.5, f"scan took {elapsed:.2f}s"

    @pytest.fixture
    def depth_values(self, monkeypatch):
        # the values whose square depth the scan reads, in order
        values = []

        def recording_depth(x):
            values.append(x)
            return _square_depth(x)

        monkeypatch.setattr("dioph.extension._square_depth", recording_depth)
        return values

    def test_scan_stops_once_its_least_residue_is_common_mod_the_top_power(self, depth_values):
        # the stop reads no cap: {2, 6, 14}'s least common residue 2 gives 1,
        # 9 and 25, {1, 3, 8}'s residue 0 gives 1, 1 and 1, and {7, 8, 31}'s
        # residue 7 gives 57, 64 and 225, all squares in Z_2, so each scan
        # reads the same 5, 1 and 11 values at caps 2^40 and 2^400
        cases = [(DiophTuple((2, 6, 14), -3), 5), (T_1_3_8, 1), (DiophTuple((7, 8, 31), 8), 11)]
        for t, count in cases:
            seen = []
            for cap in (1 << 40, 1 << 400):
                depth_values.clear()
                assert find_certificate(t, cap) is None
                seen.append(list(depth_values))
            assert seen[0] == seen[1], t
            assert len(seen[0]) == count, (t, seen[0])

    def test_square_test_past_the_bit_length_decides_2_adic_squares(self):
        # a nonzero x is a square in Z_2 exactly when it is one mod
        # 2^(v_2(x) + 3), and v_2(x) + 1 <= x.bit_length(), so the depth is
        # infinite exactly when x is 0 or a square mod 2^(x.bit_length() + 2);
        # checked against enumeration mod a far larger power, at zero and at
        # negative x too
        squares = {}
        for x in range(-(1 << 9), (1 << 9) + 1):
            J = x.bit_length() + 10
            if J not in squares:
                squares[J] = {r * r % (1 << J) for r in range(1 << (J - 1))}
            expected = x % (1 << J) in squares[J]
            assert (_square_depth(x) == inf) == expected, x

    def test_no_wide_census_certificate_lies_above_2_to_the_9(self):
        # every wide-census triple (elements <= 150, |k| <= 30) is decided
        # below 2^10: a cap of 2^64 gives the certificate of cap 512, or None.
        # Both scans stop by 2^(v_2(k) + 4) <= 2^9; that no later power
        # certifies is the 2-adic point witnessed in
        # test_uncertified_scan_stops_at_level_v_plus_4
        triples = wide_census_triples()
        assert len(triples) == 3764
        for t in triples:
            assert find_certificate(t, 1 << 64) == find_certificate(t, 512), t

    def test_uncertified_scan_stops_at_level_v_plus_4(self, depth_values):
        # find_certificate's decision on the wide census: each scan without
        # a certificate at cap 2^64 reads its last depths at the least m >= 0
        # common mod 2^(v+4), v = v_2(k), found here by plain enumeration.
        # {2, 27, 39} with k = -29 stops at m = 7, where -15, 160 and 244
        # are squares mod 16, though its least 2-adic point is 87
        stops = []
        for t in wide_census_triples():
            depth_values.clear()
            if find_certificate(t, 1 << 64) is not None:
                continue
            j = (t.k & -t.k).bit_length() + 3
            squares = squares_mod_2_to(j)
            m = next(m for m in range(1 << j)
                     if all((e * m + t.k) % (1 << j) in squares for e in t.elements))
            # at m = 0 every value is k, read once
            last = [t.k] if m == 0 else [e * m + t.k for e in t.elements]
            assert depth_values[-len(last):] == last, (t, m)
            stops.append((t, m))
        assert (DiophTuple((2, 27, 39), -29), 7) in stops
        assert len(stops) == 2015
        # the theorem's witness: each of these triples has an integer m0 >= 0
        # at which every e*m0 + k is 0 or a square in Z_2, so no power of 2
        # certifies it; 349 of them also have a common 2-adic point -k/e
        # that is no nonnegative integer
        assert max(least_2_adic_point(t) for t, _ in stops) == 1822
        assert least_2_adic_point(DiophTuple((2, 27, 39), -29)) == 87
        assert sum(has_common_root_off_the_integers(t) for t, _ in stops) == 349

    def test_uncertified_pool_triples_have_integer_2_adic_points(self):
        # the same witness on the benchmark pool (elements <= 300, |k| <= 8)
        uncertified = [t for t in benchmark_pool() if find_certificate(t, 1 << 64) is None]
        assert len(uncertified) == 1256
        assert max(least_2_adic_point(t) for t in uncertified) == 1151

    def test_residue_classes_need_no_level_past_v_plus_4(self):
        # the bound on residues alone: for v = v_2(k) <= 4 and every odd part
        # kap mod 8, no multiset e1 <= e2 <= e3 of residues mod 2^(v+6) whose
        # three pair values are squares mod 2^(v+6) has a residue common mod
        # 2^(v+4) and none mod 2^(v+6).  kap mod 8 covers every k = 2^v*kap'
        # with kap' = kap (mod 8): an odd u with u^2*kap' = kap (mod 2^6)
        # exists, and (e, k, m) -> (u*e, u^2*k, u*m) multiplies every value
        # e*m + k and every pair value by the square u^2
        for v in range(5):
            L, N = v + 4, v + 6
            Q, low_Q = 1 << N, 1 << L
            for kap in (1, 3, 5, 7):
                k = kap << v
                squares, low_squares = squares_mod_2_to(N), squares_mod_2_to(L)
                # bit m of allowed[e] (m < 2^N) and of low[e] (m < 2^L): e*m + k
                # is a square mod 2^N, mod 2^L; read at m = f, bit f of
                # allowed[e] says that the pair value e*f + k is one mod 2^N
                allowed = [sum(1 << m for m in range(Q) if (e * m + k) % Q in squares)
                           for e in range(Q)]
                low = [sum(1 << m for m in range(low_Q) if (e * m + k) % low_Q in low_squares)
                       for e in range(low_Q)]
                kinds = {}  # the residues e3, grouped by their two masks
                for e in range(Q):
                    key = (low[e % low_Q], allowed[e])
                    kinds[key] = kinds.get(key, 0) | 1 << e
                stuck = {}  # for a pair's masks, the e3 common with it mod 2^L only
                for e1 in range(Q):
                    for e2 in range(e1, Q):
                        if not allowed[e1] >> e2 & 1:
                            continue
                        pair = (low[e1 % low_Q] & low[e2 % low_Q], allowed[e1] & allowed[e2])
                        if pair not in stuck:
                            stuck[pair] = sum(mask for (lo, al), mask in kinds.items()
                                              if pair[0] & lo and not pair[1] & al)
                        bad = stuck[pair] & pair[1] >> e2 << e2
                        assert not bad, (v, kap, e1, e2, (bad & -bad).bit_length() - 1)

    def test_the_last_level_v_plus_4_is_reached(self):
        # {2, 5, 13} with k = -1 (v = 0) certifies first at 16, and
        # {16, 96, 144} with k = -1280 (v = 8) first at 2^12: no certificate
        # at cap 2^(v+3), and the same one at 2^(v+4) and at 2^64
        for t, v in [(DiophTuple((2, 5, 13), -1), 0), (DiophTuple((16, 96, 144), -1280), 8)]:
            assert find_certificate(t, 1 << (v + 3)) is None
            cert = find_certificate(t, 1 << (v + 4))
            assert cert.modulus == 1 << (v + 4)
            assert find_certificate(t, 1 << 64) == cert
            assert verify_certificate(cert, t)

    def test_certifies_without_factoring_k(self):
        # k = 2*G^2 with G = 10^12 + 39 a prime above the trial-division
        # bound, so k cannot be factored; the scan never factors it
        G = 10**12 + 39
        t = DiophTuple((7 * G, 14 * G, 41 * G), 2 * G * G)
        cert = find_certificate(t, 512)
        assert cert.modulus == 4
        assert verify_certificate(cert, t)

    def test_huge_cap_settles_small_certificate(self):
        # a depth is read from the value alone, so a cap of 2^(2^23), built
        # before tracing starts, costs what 10^12 does: {7, 14, 41}
        # certifies at 4, {2, 6, 14} stops at m = 2, and {4, 54, 86} stops
        # at its last level v_2(-20) + 4 = 6
        caps = (10**12, 1 << (1 << 23))
        cases = [(T_7_14_41, 4), (DiophTuple((2, 6, 14), -3), None),
                 (DiophTuple((4, 54, 86), -20), None)]
        for t, modulus in cases:
            for cap in caps:
                tracemalloc.start()
                try:
                    cert = find_certificate(t, cap)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                got = None if cert is None else cert.modulus
                assert got == modulus, (t, cap.bit_length())
                assert peak < 10**6, (t, cap.bit_length(), peak)

    def test_certificate_is_sound_against_brute_force(self):
        # a certificate must be consistent with an empty brute-force sweep
        cert = find_certificate(T_7_14_41, 10**4)
        assert cert is not None
        report = brute_force_search(T_7_14_41, 10**5)
        assert report.candidates == ()


class TestVerifyCertificate:
    def test_accepts_genuine_certificates(self):
        for t in K2_FIXTURES + [T_3_4_13]:
            cert = find_certificate(t, 10**4)
            assert verify_certificate(cert, t)

    def test_rejects_tampered_modulus(self):
        cert = find_certificate(T_7_14_41, 10**4)
        forged = ModularCertificate(8, cert.allowed_residues)
        assert not verify_certificate(forged, T_7_14_41)

    def test_rejects_tampered_residue_set(self):
        cert = find_certificate(T_7_14_41, 10**4)
        residues = dict(cert.allowed_residues)
        residues[7] = residues[7] - {1}
        forged = ModularCertificate(cert.modulus, residues)
        assert not verify_certificate(forged, T_7_14_41)

    def test_rejects_certificate_for_wrong_triple(self):
        cert = find_certificate(T_7_14_41, 10**4)
        assert not verify_certificate(cert, T_1_3_8)
        assert not verify_certificate(cert, T_3_4_13)

    def test_rejects_exact_sets_that_share_a_residue(self):
        # mod 3 the allowed sets are right but share m = 1, so they prove nothing
        residues = {
            e: frozenset(m for m in range(3) if (e * m + 2) % 3 in {0, 1})
            for e in T_7_14_41.elements
        }
        assert residues[7] & residues[14] & residues[41]
        assert not verify_certificate(ModularCertificate(3, residues), T_7_14_41)

    def test_rejects_degenerate_modulus(self):
        forged = ModularCertificate(1, {7: frozenset(), 14: frozenset(), 41: frozenset()})
        assert not verify_certificate(forged, T_7_14_41)


class TestSearchAndCertify:
    def test_certified_outranks_bounded(self):
        # the certificate comes first, and a certified triple is not walked
        report = search_and_certify(T_7_14_41)
        assert report == SearchReport(
            T_7_14_41, "pell_sequence", 30, (), (), find_certificate(T_7_14_41, 10**5)
        )
        assert report.verdict == VERDICT_CERTIFIED
        assert report.certificate.modulus == 4

    def test_extension_found_means_no_certificate_exists(self):
        report = search_and_certify(T_1_3_8, max_modulus=300)
        assert report.verdict == VERDICT_EXTENDED
        assert report.certificate is None
        assert 120 in {c.m for c in report.candidates}

    def test_negative_k_fixture(self):
        report = search_and_certify(T_3_4_13)
        assert report.verdict == VERDICT_CERTIFIED
        assert report.certificate.modulus == 8

    @pytest.mark.parametrize("max_modulus", [-1, 0, 1])
    def test_rejects_modulus_cap_below_two_before_the_walk(self, max_modulus):
        # {1, 3, 8} extends at index 30, where the certificate search never runs
        with pytest.raises(ValueError, match="max_modulus must be >= 2"):
            search_and_certify(T_1_3_8, 30, max_modulus)
        with pytest.raises(ValueError, match="max_modulus must be >= 2"):
            search_and_certify(T_1_3_8, -1, max_modulus)
        # the brute-force stages reject it too, whatever the verdict
        for t in (T_1_3_8, T_7_14_41):
            with pytest.raises(ValueError, match="max_modulus must be >= 2"):
                _search(t, "brute_force", 100, max_modulus)

    def test_certify_leaves_an_extended_report_unchanged(self):
        report = search_and_certify(T_1_3_8, 30, 300)
        assert repr(report) == repr(pell_extension_search(T_1_3_8, 30))

    def test_certify_attaches_a_certificate_to_a_brute_force_report(self):
        report = _search(T_7_14_41, "brute_force", 10**4, 10**4)
        assert report == SearchReport(
            T_7_14_41, "brute_force", 10**4, (), (), find_certificate(T_7_14_41, 10**4)
        )
        assert report.verdict == VERDICT_CERTIFIED
        assert report.certificate.modulus == 4

    def test_bounded_when_certificate_out_of_reach(self):
        report = search_and_certify(T_7_14_41, max_index=10, max_modulus=3)
        assert report.verdict == VERDICT_BOUNDED
        assert report.certificate is None


class TestVerifiesOncePerSearch:
    @pytest.fixture
    def guard_calls(self, monkeypatch):
        # the searches check a triple with _require_verified_triple, not verify
        calls = []

        def counting_guard(t):
            calls.append(t)
            return _require_verified_triple(t)

        monkeypatch.setattr("dioph.extension._require_verified_triple", counting_guard)
        return calls

    @pytest.mark.parametrize(
        "t,max_modulus,verdict",
        [
            (T_1_3_8, 300, VERDICT_EXTENDED),
            (T_7_14_41, 10**5, VERDICT_CERTIFIED),
            (T_7_14_41, 3, VERDICT_BOUNDED),
        ],
    )
    def test_search_and_certify(self, guard_calls, t, max_modulus, verdict):
        # the certificate scan trusts the triple the search has verified
        assert search_and_certify(t, 15, max_modulus).verdict == verdict
        assert guard_calls == [t]

    def test_extend_with_brute_force(self, guard_calls, capsys):
        argv = ["extend", "--set", "7,14,41", "--k", "2", "--strategy", "brute", "--max-m", "1000"]
        assert cli_main(argv) == 3
        assert guard_calls == [T_7_14_41]

    @given(triples_dk_or_not())
    @settings(max_examples=100, deadline=None)
    def test_every_search_names_the_first_pair_verify_fails(self, t):
        # the guard reads verify's own pair walk: a D(k) triple runs every
        # search, any other is refused with the first pair verify fails
        report = verify(t)
        searches = (lambda: pell_extension_search(t, 2), lambda: brute_force_search(t, 100),
                    lambda: find_certificate(t, 64), lambda: search_and_certify(t, 2, 64))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(["extend", "--set", ",".join(map(str, t.elements)), f"--k={t.k}"])
        if report.ok:
            for search in searches:
                search()
            assert code in (0, 3, 4)
            return
        bad = report.failing_pairs()[0]
        message = (f"{t} is not a D({t.k}) triple: "
                   f"{bad.a}*{bad.b}{t.k:+d} = {bad.shifted} is not a square")
        for search in searches:
            with pytest.raises(ValueError) as raised:
                search()
            assert str(raised.value) == message
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@cache
def benchmark_pool() -> tuple[DiophTuple, ...]:
    # the benchmark's own pool, every D(k) triple with elements <= 300 and
    # 1 <= |k| <= 8, enumerated without dioph
    sys.path.insert(0, str(PERFBENCH))
    try:
        import pool
    finally:
        sys.path.remove(str(PERFBENCH))
    return tuple(DiophTuple(elements, k) for elements, k in pool.triple_pool())


def regular_fourth_elements(t):
    """The d = a + b + c + 2*(a*b*c +- r*s*u)/k, with r, s, u the roots of
    a*b + k, a*c + k and b*c + k, that are positive integers outside t and
    extend t: the regular extensions, in closed form."""
    a, b, c = t.elements
    k = t.k
    rsu = isqrt(a * b + k) * isqrt(a * c + k) * isqrt(b * c + k)
    found = []
    for numerator in (2 * (a * b * c + rsu), 2 * (a * b * c - rsu)):
        if numerator % k == 0:
            d = a + b + c + numerator // k
            if d >= 1 and d not in t.elements and all(
                e * d + k >= 0 and isqrt(e * d + k) ** 2 == e * d + k for e in t.elements
            ):
                found.append(d)
    return found


class TestRegularExtensionsAreWalked:
    @pytest.mark.parametrize(
        "triples,pairs,extended",
        [(census_triples, 247, 241), (wide_census_triples, 501, 493), (benchmark_pool, 625, 613)],
        ids=["census", "wide", "pool"],
    )
    def test_walk_finds_every_regular_fourth_element(self, triples, pairs, extended):
        # every closed-form d+ or d- that extends is a candidate of the Pell
        # walk at index 30, past the brute-force oracle's 10^6 too (166 of
        # the pool's lie above it)
        regular = {t: ds for t in triples() if (ds := regular_fourth_elements(t))}
        assert (sum(map(len, regular.values())), len(regular)) == (pairs, extended)
        for t, ds in regular.items():
            walked = {c.m for c in pell_extension_search(t, 30).candidates}
            assert set(ds) <= walked, (t, ds)


def walk_first(t, strategy, bound, max_modulus):
    """The walk, then find_certificate when nothing extends: the order that
    search_and_certify's certificate-first stages must agree with."""
    search = {"pell_sequence": pell_extension_search, "brute_force": brute_force_search}
    report = search[strategy](t, bound)
    if report.verdict == VERDICT_EXTENDED:
        return report
    cert = find_certificate(t, max_modulus)
    return report if cert is None else replace(report, certificate=cert)


class TestCertificateFirst:
    @pytest.fixture
    def class_calls(self, monkeypatch):
        # the walk reads the classes from dioph.pell's integer core, the
        # one solve_general wraps
        calls = []

        def counting_class_points(D, N):
            calls.append((D, N))
            return _class_points(D, N)

        monkeypatch.setattr("dioph.extension._class_points", counting_class_points)
        return calls

    @pytest.mark.parametrize("strategy,bound", [("pell_sequence", 15), ("brute_force", 10**4)])
    @pytest.mark.parametrize(
        "triples,size", [(benchmark_pool, 2033), (census_triples, 618)], ids=["pool", "census"]
    )
    def test_agrees_with_the_walk_first_order(self, triples, size, strategy, bound):
        triples = triples()
        assert len(triples) == size
        verdicts = Counter()
        for t in triples:
            report = _search(t, strategy, bound, 512)
            expected = walk_first(t, strategy, bound, 512)
            assert report.verdict == expected.verdict, t
            assert report.certificate == expected.certificate, t
            assert (report.verdict == VERDICT_EXTENDED) == bool(report.candidates), t
            for c in report.candidates:
                assert verify(DiophTuple(t.elements + (c.m,), t.k)).ok, (t, c)
            if report.verdict == VERDICT_CERTIFIED:
                assert report == replace(expected, candidates=(), self_hits=()), t
            else:
                assert repr(report) == repr(expected), t
            verdicts[report.verdict] += 1
        if strategy == "pell_sequence":
            counts = {2033: (637, 777, 619), 618: (249, 228, 141)}[size]
            assert verdicts == dict(zip(
                (VERDICT_EXTENDED, VERDICT_CERTIFIED, VERDICT_BOUNDED), counts
            ))

    def test_a_certified_triple_is_not_walked(self, class_calls):
        assert search_and_certify(T_7_14_41).verdict == VERDICT_CERTIFIED
        assert class_calls == []
        # below its certifying modulus 4 the walk runs
        assert search_and_certify(T_7_14_41, 30, 3).verdict == VERDICT_BOUNDED
        assert len(class_calls) == 1

    def test_the_pool_walks_only_its_uncertified_triples(self, class_calls):
        # every walk reads _class_points, square a*b included; the 777 pool
        # triples that a power of 2 up to 512 certifies are not walked
        for t in benchmark_pool():
            search_and_certify(t, 15, 512)
        assert len(class_calls) == 2033 - 777
        class_calls.clear()
        for t in benchmark_pool():
            walk_first(t, "pell_sequence", 15, 512)
        assert len(class_calls) == 2033
