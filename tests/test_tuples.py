import itertools
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import dioph.tuples
from dioph.arith import is_perfect_square, legendre
from dioph.tuples import (
    DiophTuple,
    enumerate_triples,
    is_regular,
    mod4_quadruple_obstruction,
    reduce_pair,
    square_points,
    verify,
)
from reduction_oracle import recover_m

# (elements, k) -> square roots of a*b + k in pair order (a, b) ascending
GOOD_FIXTURES = {
    ((7, 14, 41), 2): (10, 17, 24),
    ((1, 7, 14), 2): (3, 4, 10),
    ((41, 239, 478), 2): (99, 140, 338),
    ((7, 41, 82), 2): (17, 24, 58),
    ((41, 82, 239), 2): (58, 99, 140),
    ((3, 4, 13), -3): (3, 6, 7),
    ((1, 2, 7), 2): (2, 3, 4),
    ((1, 5, 10), -1): (2, 3, 7),
    ((1, 3, 8), 1): (2, 3, 5),
}

REGULAR_TRIPLES = [
    ((7, 14, 41), 2),
    ((1, 7, 14), 2),
    ((41, 239, 478), 2),
    ((7, 41, 82), 2),
    ((41, 82, 239), 2),
    ((3, 4, 13), -3),
    ((1, 3, 8), 1),
    ((1, 5, 10), -1),
]

IRREGULAR_TRIPLES = [
    ((1, 5, 65), -1),
    ((1, 3, 120), 1),
]


class TestDiophTuple:
    def test_elements_sorted_on_construction(self):
        t = DiophTuple((41, 7, 14), 2)
        assert t.elements == (7, 14, 41)
        assert t.size == 3

    def test_str(self):
        assert str(DiophTuple((14, 7, 41), 2)) == "{7, 14, 41} with k=2"

    def test_validation(self):
        with pytest.raises(ValueError):
            DiophTuple((7,), 2)
        with pytest.raises(ValueError):
            DiophTuple((7, 7, 41), 2)
        with pytest.raises(ValueError):
            DiophTuple((0, 7), 2)
        with pytest.raises(ValueError):
            DiophTuple((-3, 7), 2)
        with pytest.raises(ValueError):
            DiophTuple((7, 14), 0)

    def test_pairs_are_allowed(self):
        t = DiophTuple((1, 2), 2)
        assert verify(t).ok


class TestVerify:
    @pytest.mark.parametrize("fixture,roots", sorted(GOOD_FIXTURES.items()))
    def test_fixtures_pass_with_exact_roots(self, fixture, roots):
        elements, k = fixture
        report = verify(DiophTuple(elements, k))
        assert report.ok
        assert report.failing_pairs() == []
        assert tuple(p.root for p in report.pairs) == roots
        for p in report.pairs:
            assert p.shifted == p.product + k == p.a * p.b + k
            assert p.root * p.root == p.shifted

    def test_near_miss_reports_exact_failing_pairs(self):
        report = verify(DiophTuple((7, 14, 40), 2))
        assert not report.ok
        bad = {(p.a, p.b): p.shifted for p in report.failing_pairs()}
        assert bad == {(7, 40): 282, (14, 40): 562}
        good = [p for p in report.pairs if p.ok]
        assert [(p.a, p.b, p.root) for p in good] == [(7, 14, 10)]

    def test_permutation_invariance(self):
        for elements, k in GOOD_FIXTURES:
            for perm in itertools.permutations(elements):
                assert verify(DiophTuple(perm, k)).ok

    @given(
        st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=5, unique=True),
        st.integers(min_value=-100, max_value=100).filter(lambda k: k != 0),
    )
    @settings(max_examples=200)
    def test_pairs_in_combinations_order_with_exact_values(self, elements, k):
        # every pair a < b of the sorted elements once, in combinations
        # order, with the exact product, shift and nonnegative root; small
        # elements make many of the shifts squares
        def root(x):
            return isqrt(x) if x >= 0 and isqrt(x) ** 2 == x else None

        expected = [(a, b, a * b, a * b + k, root(a * b + k))
                    for a, b in itertools.combinations(sorted(elements), 2)]
        report = verify(DiophTuple(tuple(elements), k))
        assert [(p.a, p.b, p.product, p.shifted, p.root) for p in report.pairs] == expected

    @given(
        st.lists(
            st.integers(min_value=1, max_value=10**6),
            min_size=2,
            max_size=5,
            unique=True,
        ),
        st.integers(min_value=-100, max_value=100).filter(lambda k: k != 0),
    )
    @settings(max_examples=60)
    def test_matches_direct_definition(self, elements, k):
        t = DiophTuple(tuple(elements), k)
        expected = all(
            is_perfect_square(a * b + k) is not None
            for a, b in itertools.combinations(t.elements, 2)
        )
        assert verify(t).ok == expected


class TestSquarePoints:
    @staticmethod
    def per_m(a, k, max_m):
        return [(m, r) for m in range(1, max_m + 1)
                if (r := is_perfect_square(a * m + k)) is not None]

    def test_matches_per_m_enumeration(self):
        # a on both sides of max_m, where the starts switch from the
        # roots of rho^2 = k (mod a) to the roots of each square a*m + k; k below
        # -a*max_m leaves no point, and k = a^2 puts a root at a
        cases = 0
        for max_m in (1, 2, 7, 100):
            for a in (1, 2, max_m - 1, max_m, max_m + 1, 3 * max_m + 7):
                if a < 1:
                    continue
                for k in (-a * max_m - 1, -a, -1, 1, 2, a, a + 1, a * a, 3 * a * a + 5):
                    expected = self.per_m(a, k, max_m)
                    assert sorted(square_points(a, k, max_m)) == expected, (a, k, max_m)
                    cases += bool(expected)
        assert cases > 100
        # {a, a + 2, 4a + 4} with k = 1 is a D(1) triple; each element is
        # far above max_m, so every start is the root of one point
        a = 10**12
        for e in (a, a + 2, 4 * a + 4):
            assert sorted(square_points(e, 1, 10**4)) == self.per_m(e, 1, 10**4), e


    @pytest.mark.parametrize("a,max_m", [(0, 10), (-3, 10), (0, -1), (-3, -5)])
    def test_nonpositive_a_rejected(self, a, max_m):
        # a < 1 has no walk, whether or not it is above max_m
        with pytest.raises(ValueError, match=f"got a={a}$"):
            list(square_points(a, 1, max_m))


class TestEnumerateTriples:
    def test_matches_exhaustive_search(self):
        for k in [-7, -3, -1, 1, 2, 4, 8]:
            expected = [
                (a, b, c)
                for a, b, c in itertools.combinations(range(1, 41), 3)
                if verify(DiophTuple((a, b, c), k)).ok
            ]
            assert list(enumerate_triples(40, k)) == expected, k

    def test_limit_is_inclusive(self):
        assert (1, 3, 8) in enumerate_triples(8, 1)
        assert (1, 3, 8) not in enumerate_triples(7, 1)
        assert list(enumerate_triples(2, 1)) == []

    def test_zero_shift_rejected(self):
        with pytest.raises(ValueError):
            enumerate_triples(10, 0)

    def test_first_triple_reads_only_the_partners_of_its_a(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return square_points(*args)

        square_points = dioph.tuples.square_points
        monkeypatch.setattr(dioph.tuples, "square_points", spy)
        assert next(iter(enumerate_triples(200, 1))) == (1, 3, 8)
        assert calls == [(1, 1, 200)]


class TestIsRegular:
    @pytest.mark.parametrize("elements,k", REGULAR_TRIPLES)
    def test_regular_fixtures(self, elements, k):
        assert is_regular(DiophTuple(elements, k))

    @pytest.mark.parametrize("elements,k", IRREGULAR_TRIPLES)
    def test_irregular_fixtures(self, elements, k):
        t = DiophTuple(elements, k)
        assert verify(t).ok  # still a valid triple, just not regular
        assert not is_regular(t)

    def test_requires_triple(self):
        with pytest.raises(ValueError):
            is_regular(DiophTuple((1, 3), 1))
        with pytest.raises(ValueError):
            is_regular(DiophTuple((1, 3, 8, 120), 1))

    def test_agrees_with_symmetric_form(self):
        # (c-b-a)^2 = 4(ab+k) rewritten without ordering assumptions:
        # a^2+b^2+c^2 - 2ab - 2bc - 2ca = 4k
        for elements, k in REGULAR_TRIPLES + IRREGULAR_TRIPLES:
            for a, b, c in itertools.permutations(elements):
                sym = a * a + b * b + c * c - 2 * (a * b + b * c + c * a) == 4 * k
                assert is_regular(DiophTuple((a, b, c), k)) == sym


class TestReducePair:
    def test_examples(self):
        red = reduce_pair(7, 14, 2)
        assert (red.D, red.N) == (98, 196)
        red = reduce_pair(3, 4, -3)
        assert (red.D, red.N) == (12, -12)
        red = reduce_pair(239, 478, 2)
        assert (red.D, red.N) == (114242, 228484)

    def test_validation(self):
        with pytest.raises(ValueError):
            reduce_pair(14, 7, 2)
        with pytest.raises(ValueError):
            reduce_pair(7, 7, 2)
        with pytest.raises(ValueError):
            reduce_pair(0, 7, 2)
        with pytest.raises(ValueError):
            reduce_pair(7, 14, 0)

    def test_witness_satisfies_pell_equation(self):
        # m = 239 extends the pair (239, 478) trivially; use the known pair
        # m such that 239*m+2 and 478*m+2 are both squares: m = 41.
        red = reduce_pair(239, 478, 2)
        X, Y = red.b * 99, 140
        assert X * X - red.D * Y * Y == red.N
        assert recover_m(red, X, Y) == 41

    def test_recover_m_roundtrip_by_enumeration(self):
        for (a, b), k in [((7, 14), 2), ((3, 4), -3), ((1, 3), 1), ((2, 7), 2)]:
            red = reduce_pair(a, b, k)
            seen = []
            for m in range(1, 2001):
                ra = is_perfect_square(a * m + k)
                rb = is_perfect_square(b * m + k)
                if ra is None or rb is None:
                    continue
                X, Y = red.b * ra, rb
                assert X * X - red.D * Y * Y == red.N
                assert recover_m(red, X, Y) == m
                seen.append(m)
            assert seen, f"no condition witnesses below 2000 for {(a, b, k)}"

    def test_recover_m_rejects_spurious_solutions(self):
        red = reduce_pair(7, 14, 2)
        # (14, 0) solves X^2 - 98Y^2 = 196 but m = (1-2)/7 is not integral
        assert 14 * 14 - red.D * 0 * 0 == red.N
        assert recover_m(red, 14, 0) is None
        # X not a multiple of b
        assert recover_m(red, 197, 52) is None
        # m integral but the second condition b*m+k = Y^2 violated
        assert recover_m(red, 42, 5) is None
        assert recover_m(red, 42, 4) == 1


class TestObstructions:
    # multiples of the odd prime p are excluded from every D(k) set exactly
    # when (k/p) = -1, the symbol `dioph obstruct` prints
    def test_residue_examples(self):
        assert legendre(2, 3) == -1
        assert legendre(2, 5) == -1
        assert legendre(-3, 5) == -1
        assert legendre(1, 3) != -1
        assert legendre(6, 3) != -1  # k = 0 mod p: no exclusion

    def test_residue_requires_verified_prime(self):
        with pytest.raises(ValueError):
            legendre(2, 4)
        with pytest.raises(ValueError):
            legendre(2, 15)

    def test_residue_obstruction_is_sound(self):
        # if k is a non-residue mod p, no t divisible by p admits any s with
        # t*s + k square: t*s + k = k mod p would need k to be a residue
        for k, p in [(2, 3), (2, 5), (-3, 5), (3, 7)]:
            assert legendre(k, p) == -1
            for t in range(p, 200, p):
                for s in range(1, 200):
                    assert is_perfect_square(t * s + k) is None

    def test_mod4_examples(self):
        assert mod4_quadruple_obstruction(2)
        assert mod4_quadruple_obstruction(6)
        assert mod4_quadruple_obstruction(-2)
        assert not mod4_quadruple_obstruction(-3)
        assert not mod4_quadruple_obstruction(1)
        assert not mod4_quadruple_obstruction(4)

    def test_zero_shift_is_rejected(self):
        with pytest.raises(ValueError, match="the shift k must be nonzero"):
            mod4_quadruple_obstruction(0)
