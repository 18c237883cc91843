import random
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from dioph import arith
from dioph.arith import (
    TRIAL_DIVISION_BOUND,
    _crt,
    _roots_mod_prime_power,
    _sqrt_mod,
    factorize,
    is_perfect_square,
    legendre,
)


def small_primes(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, limit + 1) if sieve[p]]


ODD_PRIMES = [p for p in small_primes(1000) if p > 2]


class TestIsPerfectSquare:
    def test_examples(self):
        assert is_perfect_square(0) == 0
        assert is_perfect_square(1) == 1
        assert is_perfect_square(100) == 10
        assert is_perfect_square(9801) == 99
        assert is_perfect_square(43) is None
        assert is_perfect_square(-4) is None
        assert is_perfect_square(-1) is None

    @given(st.integers(min_value=0, max_value=10**20))
    def test_roundtrip(self, n):
        assert is_perfect_square(n * n) == n

    @given(st.integers(min_value=0, max_value=10**20))
    def test_agrees_with_isqrt(self, n):
        r = isqrt(n)
        expected = r if r * r == n else None
        assert is_perfect_square(n) == expected

    @pytest.mark.parametrize("q", [256, 45045, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43])
    def test_residue_tables_hold_exactly_the_squares(self, q):
        table = getattr(arith, f"_SQUARES_MOD_{q}")
        assert len(table) == q
        assert {r for r in range(q) if table[r]} == {r * r % q for r in range(q)}
        # the stage that reads the table may read it from a residue mod its modulus
        stage = [q in (256, 45045, 63, 65, 11), q in (17, 19, 23, 29), q in (31, 37, 41, 43)]
        assert arith._SQUARE_MODULI[stage.index(True)] % q == 0

    def test_mod_45045_table_is_the_and_of_the_tables_mod_63_65_and_11(self):
        table = arith._SQUARES_MOD_45045
        for r in range(45045):
            assert table[r] == (arith._SQUARES_MOD_63[r % 63] and arith._SQUARES_MOD_65[r % 65]
                                and arith._SQUARES_MOD_11[r % 11]), r

    @given(st.integers(min_value=0, max_value=10**40))
    def test_each_square_stage_reads_only_the_residue_of_its_modulus(self, n):
        # the Pell walk runs the stages on its members' residues; the first
        # is read inline, from the tables mod 256 and mod 45045
        first, second, third = arith._SQUARE_MODULI

        def first_stage(v):
            return bool(arith._SQUARES_MOD_256[v & 255] and arith._SQUARES_MOD_45045[v % 45045])

        assert first_stage(n) == first_stage(n % first)
        assert arith._second_square_stage(n) == arith._second_square_stage(n % second)
        assert arith._third_square_stage(n) == arith._third_square_stage(n % third)

    @given(st.one_of(
        st.integers(min_value=0, max_value=10**5000).flatmap(
            lambda r: st.sampled_from([r * r - 1, r * r, r * r + 1])),
        st.integers(min_value=0, max_value=10**10000),
    ))
    def test_agrees_with_isqrt_on_squares_their_neighbours_and_huge_values(self, n):
        r = isqrt(max(n, 0))
        assert is_perfect_square(n) == (r if r * r == n else None)

    def test_agrees_with_isqrt_on_a_dense_range(self):
        for n in range(-10, 2 * 10**6 + 1):
            r = isqrt(max(n, 0))
            assert is_perfect_square(n) == (r if r * r == n else None), n

    def test_agrees_with_isqrt_next_to_large_squares(self):
        # the Pell walk tests c*m + k of about 4100 bits
        rng = random.Random(13)
        for bits in range(1, 4097, 7):
            r = rng.getrandbits(bits) | (1 << (bits - 1))
            assert is_perfect_square(r * r) == r
            assert is_perfect_square(r * r + 1) is None
            assert is_perfect_square(r * r - 1) == (0 if r == 1 else None)


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == []
        assert factorize(2) == [(2, 1)]
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert factorize(31540) == [(2, 2), (5, 1), (19, 1), (83, 1)]
        # 999983 is the largest prime below the trial-division bound
        assert factorize(2 * 999983**2) == [(2, 1), (999983, 2)]

    def test_prime_cofactor_up_to_bound_squared(self):
        # 10^9+7 and 10^12-11 have no factor below their square roots
        assert factorize(10**9 + 7) == [(10**9 + 7, 1)]
        assert factorize(6 * (10**12 - 11)) == [(2, 1), (3, 1), (10**12 - 11, 1)]

    def test_cofactor_beyond_bound_squared_rejected(self):
        assert 10**12 + 39 > TRIAL_DIVISION_BOUND**2
        with pytest.raises(ValueError, match="cannot factor"):
            factorize(10**12 + 39)
        with pytest.raises(ValueError):
            factorize(1000003 * 1000033)

    @pytest.mark.parametrize("bad", [0, -1, -12])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            factorize(bad)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_product_of_ascending_primes(self, n):
        factors = factorize(n)
        product = 1
        for p, e in factors:
            assert e >= 1
            assert all(p % d for d in range(2, min(isqrt(p), 10**4) + 1))
            product *= p**e
        assert product == n
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})


class TestLegendre:
    def test_examples(self):
        assert legendre(2, 3) == -1
        assert legendre(2, 5) == -1
        assert legendre(4, 7) == 1
        assert legendre(6, 3) == 0
        assert legendre(-3, 5) == -1
        assert legendre(0, 11) == 0
        assert legendre(2, 7) == 1

    def test_negative_argument_reduced_mod_p(self):
        # -3 = 2 mod 5, and 2 is a non-residue mod 5
        assert legendre(-3, 5) == legendre(2, 5)

    def test_rejects_even_or_small_modulus(self):
        for bad in (2, 1, 0, -7, 4, 100):
            with pytest.raises(ValueError):
                legendre(1, bad)

    def test_rejects_composite_modulus(self):
        for bad in (9, 15, 21, 91, 561):
            with pytest.raises(ValueError):
                legendre(1, bad)

    def test_composite_modulus_names_its_least_factor(self):
        with pytest.raises(ValueError, match=r"91 is composite \(7 divides it\)"):
            legendre(1, 91)

    def test_unfactorable_modulus_is_unverified_even_with_a_small_factor(self):
        # 3 * (10^12 + 39) leaves a cofactor factorize cannot split
        with pytest.raises(ValueError, match="cannot verify primality"):
            legendre(1, 3 * (10**12 + 39))

    def test_large_modulus_within_trial_division_reach(self):
        # sqrt(1e9+7) ~ 31623, well under the division bound: no flag needed
        assert legendre(5, 10**9 + 7) == -1
        assert legendre(4, 10**9 + 7) == 1

    def test_large_unverified_modulus_is_rejected(self):
        p = 10**13 + 37
        with pytest.raises(ValueError):
            legendre(2, p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_multiplicative_exhaustive(self, p):
        for a in range(p):
            for b in range(p):
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    @given(
        st.sampled_from(ODD_PRIMES),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=-(10**6), max_value=10**6),
    )
    def test_multiplicative_sampled(self, p, a, b):
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    @given(st.sampled_from(ODD_PRIMES), st.integers(min_value=1, max_value=10**6))
    def test_residue_one_iff_square_exists(self, p, a):
        if legendre(a, p) == 1:
            assert any(x * x % p == a % p for x in range(p))
        elif legendre(a, p) == -1:
            assert all(x * x % p != a % p for x in range(p))
        else:
            assert a % p == 0


class TestSqrtMod:
    def test_matches_a_scan_of_every_residue(self):
        for n in range(1, 501):
            for k in range(-12, 13):
                assert _sqrt_mod(k, n) == [z for z in range(n) if (z * z - k) % n == 0], (k, n)

    def test_agrees_with_sympy(self):
        ntheory = pytest.importorskip("sympy.ntheory")
        rng = random.Random(53)
        rooted = 0
        for i in range(3000):
            n = rng.randrange(2, 10**9)
            # every other k is a square, so that many n have roots
            k = rng.randrange(n) ** 2 if i % 2 else rng.randrange(-n, n)
            expected = sorted(ntheory.sqrt_mod(k % n, n, all_roots=True) or [])
            assert _sqrt_mod(k, n) == expected, (k, n)
            rooted += bool(expected)
        assert rooted >= 1500

    def test_a_prime_power_dividing_f_fully_keeps_each_root(self):
        # when p**h in f takes all of p**e from N, the modulus left is
        # p**0 = 1: its one root is 0, and combining with it changes no root
        for p in (2, 3, 5, 7, 97):
            for D in (0, 1, 2, 3, 5, 50, 2**25, 10**30 + 7):
                assert _roots_mod_prime_power(D, p, 0) == [0], (D, p)
        for n, zs in [(1, [0]), (7, [3, 4]), (8, [1, 3, 5, 7]), (45, [10, 35, 44])]:
            assert _crt(zs, n, [0], 1) == zs, (n, zs)
