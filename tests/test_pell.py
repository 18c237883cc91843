import json
import random
import time
from itertools import islice, takewhile

import pytest
from hypothesis import example, given, settings, strategies as st

from dioph.arith import TRIAL_DIVISION_BOUND, is_perfect_square
from dioph.pell import (
    PellClass,
    PellProblem,
    PellSolution,
    _class_points,
    fundamental_solution,
    solve_general,
)
from dioph.cli import main
from dioph.tuples import reduce_pair

NONSQUARE_D = [D for D in range(2, 200) if is_perfect_square(D) is None]


def unit_solutions(D, count):
    """The first count solutions of x^2 - D*y^2 = 1: those of its one class."""
    (cls,) = solve_general(PellProblem(D, 1))
    return list(islice(cls.solutions(), count))


def up_to(cls, max_y):
    return list(takewhile(lambda s: s.y <= max_y, cls.solutions()))


def brute_solutions(D, N, max_y):
    out = []
    for y in range(max_y + 1):
        x = is_perfect_square(N + D * y * y)
        if x is not None:
            out.append((x, y))
    return out


class TestSqrtCF:
    """The continued fraction of sqrt(D), read through fundamental_solution."""

    @pytest.mark.parametrize("bad", [0, 1, 4, 9, 49, 100, -3])
    def test_square_or_small_rejected(self, bad):
        with pytest.raises(ValueError):
            fundamental_solution(bad)


class TestFundamentalSolution:
    def test_examples(self):
        assert fundamental_solution(2) == PellSolution(3, 2)
        assert fundamental_solution(8) == PellSolution(3, 1)
        assert fundamental_solution(48) == PellSolution(7, 1)
        assert fundamental_solution(13) == PellSolution(649, 180)

    def test_notoriously_large_case(self):
        assert fundamental_solution(61) == PellSolution(1766319049, 226153980)

    def test_minimality_against_brute_force(self):
        for D in [D for D in range(2, 100) if is_perfect_square(D) is None]:
            fund = fundamental_solution(D)
            assert fund.x * fund.x - D * fund.y * fund.y == 1
            assert fund.y >= 1
            brute = [(x, y) for x, y in brute_solutions(D, 1, 10**4) if y >= 1]
            if brute:
                assert (fund.x, fund.y) == brute[0]
            else:
                assert fund.y > 10**4
            # the norm -1 class, when there is one, squares to the unit
            negative = solve_general(PellProblem(D, -1))
            assert len(negative) <= 1
            for cls in negative:
                x, y = cls.rep.x, cls.rep.y
                assert PellSolution(x * x + D * y * y, 2 * x * y) == fund
            if fund.y <= 10**4:
                assert bool(negative) == bool(brute_solutions(D, -1, fund.y - 1))
            if D == 61:
                assert negative[0].rep == PellSolution(29718, 3805)


class TestUnitSequence:
    def test_frozen_values_d8(self):
        assert unit_solutions(8, 5) == [
            PellSolution(1, 0),
            PellSolution(3, 1),
            PellSolution(17, 6),
            PellSolution(99, 35),
            PellSolution(577, 204),
        ]

    def test_frozen_values_d48(self):
        assert unit_solutions(48, 4) == [
            PellSolution(1, 0),
            PellSolution(7, 1),
            PellSolution(97, 14),
            PellSolution(1351, 195),
        ]

    def test_recurrence_coefficients(self):
        # 2 * x1 for the two discriminants used throughout the fixtures
        assert 2 * fundamental_solution(8).x == 6
        assert 2 * fundamental_solution(48).x == 14

    def test_count_validation(self, capsys):
        # the count is a CLI bound; the library walk has no end
        assert main(["pell", "--d", "8", "--count", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --count must be >= 1\n"
        assert main(["pell", "--d", "8", "--count", "1", "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["solutions"] == [[1, 0]]

    @given(st.sampled_from(NONSQUARE_D), st.integers(min_value=2, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_every_term_solves_unit_equation(self, D, count):
        seq = unit_solutions(D, count)
        assert len(seq) == count
        c = 2 * seq[1].x
        for i, s in enumerate(seq):
            assert s.x * s.x - D * s.y * s.y == 1
            if i >= 2:
                assert s.x == c * seq[i - 1].x - seq[i - 2].x
                assert s.y == c * seq[i - 1].y - seq[i - 2].y


class TestPellProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            PellProblem(4, 1)
        with pytest.raises(ValueError):
            PellProblem(1, 1)
        with pytest.raises(ValueError):
            PellProblem(8, 0)


class TestPellClass:
    def test_post_init_rejects_non_solutions(self):
        prob = PellProblem(8, 1)
        unit = fundamental_solution(8)
        with pytest.raises(ValueError):
            PellClass(prob, PellSolution(2, 1), unit)
        with pytest.raises(ValueError):
            PellClass(prob, PellSolution(1, 0), PellSolution(3, 2))

    def test_unit_must_walk_away_from_the_least_member(self):
        # solutions() walks forwards from rep, which needs each unit step to
        # raise |beta|: (3, -2) and (-3, 2) walk towards the mixed-sign
        # members and never yield again, and (1, 0) yields (3, 1) forever
        prob, rep = PellProblem(2, 7), PellSolution(3, 1)
        for x, y in [(1, 0), (-1, 0), (3, -2), (-3, 2)]:
            with pytest.raises(ValueError, match="x\\*y > 0"):
                PellClass(prob, rep, PellSolution(x, y))
        forwards = PellClass(prob, rep, PellSolution(3, 2))
        negated = PellClass(prob, rep, PellSolution(-3, -2))
        assert negated.rep == forwards.rep == rep
        assert list(islice(negated.solutions(), 3)) == list(islice(forwards.solutions(), 3))
        assert PellClass(prob, rep, PellSolution(17, 12)).rep == rep

    def test_members_stay_on_conic(self):
        for prob in [PellProblem(2, -2), PellProblem(5, -4), PellProblem(2, 7)]:
            for cls in solve_general(prob):
                members = list(islice(cls.walk(), 7))
                assert members[0] == (cls.rep.x, cls.rep.y)
                assert len(set(members)) == 7
                for u, v in members:
                    assert u * u - prob.D * v * v == prob.N

    def test_solutions_walk_from_any_member_of_the_class(self):
        # a class built on a member other than the least one walks the same
        unit = fundamental_solution(8)
        for member in [PellSolution(17, 6), PellSolution(-99, 35)]:
            cls = PellClass(PellProblem(8, 1), member, unit)
            assert list(islice(cls.solutions(), 4)) == unit_solutions(8, 4)
            assert up_to(cls, 35) == unit_solutions(8, 4)
            assert list(islice(cls.walk(), 3)) == [(1, 0), (3, 1), (17, 6)]
        # the class of (0, 1) of x^2 - 2*y^2 = -2, built on (-24, 17)
        cls = PellClass(PellProblem(2, -2), PellSolution(-24, 17), fundamental_solution(2))
        assert list(islice(cls.walk(), 3)) == [(0, 1), (4, 3), (24, 17)]

    @given(
        st.sampled_from(NONSQUARE_D),
        st.integers(min_value=-(10**4), max_value=10**4).filter(lambda n: n != 0),
    )
    # classes whose rep ties in |y| with the member behind it: (-x, y) for
    # N < 0, (x, -y) for N > 0
    @example(2, -1)
    @example(5, -4)
    @example(61, -1)
    @example(2, 2)
    @settings(max_examples=100, deadline=None)
    def test_class_built_on_any_member_equals_the_solved_class(self, D, N):
        problem = PellProblem(D, N)
        for cls in solve_general(problem):
            x, y = cls.rep.x, cls.rep.y
            x1, y1 = cls.unit.x, cls.unit.y
            members = list(islice(cls.walk(), 4))
            members.append((x * x1 - D * y * y1, y * x1 - x * y1))  # rep / unit
            if abs(members[-1][1]) == y:  # a tie: the class is its own mirror
                assert members[-1] in [(-x, y), (x, -y)] and x > 0
            members += [(-u, -v) for u, v in members]
            for u, v in members:
                assert PellClass(problem, PellSolution(u, v), cls.unit) == cls


class TestSolveGeneral:
    def test_single_class_examples(self):
        classes = solve_general(PellProblem(2, -2))
        assert len(classes) == 1
        assert [(s.x, s.y) for s in up_to(classes[0], 100)] == [
            (0, 1),
            (4, 3),
            (24, 17),
            (140, 99),
        ]
        assert list(islice(classes[0].solutions(), 4)) == up_to(classes[0], 100)

    def test_unit_equation_as_general_case(self):
        classes = solve_general(PellProblem(8, 1))
        assert len(classes) == 1
        assert [(s.x, s.y) for s in up_to(classes[0], 100)] == [
            (1, 0),
            (3, 1),
            (17, 6),
            (99, 35),
        ]
        assert list(islice(classes[0].solutions(), 4)) == up_to(classes[0], 100)
        # the unit equation is one class, that of (1, 0), for every D
        for D in range(2, 1000):
            if is_perfect_square(D) is None:
                (cls,) = solve_general(PellProblem(D, 1))
                assert cls.rep == PellSolution(1, 0)
                assert cls.unit == fundamental_solution(D)

    def test_insoluble_case_gives_no_classes(self):
        # x^2 = 2 mod 3 has no solution
        assert solve_general(PellProblem(3, 2)) == []

    def test_ambiguous_class_with_even_y_is_found(self):
        # D=5, N=-4: three classes, including (4, 2) which a base-solution
        # bound tied to the N<0 branch alone would miss.
        classes = solve_general(PellProblem(5, -4))
        reps = {(c.rep.x, c.rep.y) for c in classes}
        assert reps == {(1, 1), (-1, 1), (4, 2)}
        union = set()
        for c in classes:
            union.update((s.x, s.y) for s in up_to(c, 100))
        assert union == {(1, 1), (4, 2), (11, 5), (29, 13), (76, 34), (199, 89)}

    def test_mirrored_representatives_both_kept(self):
        reps = {(c.rep.x, c.rep.y) for c in solve_general(PellProblem(2, 7))}
        assert reps == {(3, 1), (-3, 1)}

    @pytest.mark.parametrize(
        "a,b,k,count",
        [(7, 83, -5, 12), (21, 49, -5, 42), (1, 61, 3, 18)],
    )
    def test_reductions_with_huge_units_find_every_class(self, a, b, k, count):
        # a scan of y below sqrt(|N|*(x1+1)/(2*D)) capped at 10^5 found only
        # 8, 28 and 16 of these classes
        red = reduce_pair(a, b, k)
        classes = solve_general(PellProblem(red.D, red.N))
        assert len(classes) == count
        reps = [(c.rep.x, c.rep.y) for c in classes]
        assert len(set(reps)) == count
        assert reps == sorted(reps, key=lambda r: (r[1], r[0] < 0))

    def test_records_wrap_the_integer_core(self):
        # solve_general builds its records from _class_points and changes
        # nothing: the same reps in the same order, and the same unit, also
        # where D and N share a square that is divided out
        grid = [(D, N) for D in NONSQUARE_D if D < 60 for N in range(-30, 31) if N]
        grid += [(s * s * D, s * s * N) for s in (2, 3, 4, 5, 6)
                 for D in (2, 3, 5, 7, 13) for N in (-14, -7, -1, 1, 2, 14)]
        soluble = 0
        for D, N in grid:
            points, unit = _class_points(D, N)
            classes = solve_general(PellProblem(D, N))
            assert [(c.rep.x, c.rep.y) for c in classes] == points, (D, N)
            assert all((c.unit.x, c.unit.y) == unit for c in classes), (D, N)
            assert unit[0] ** 2 - D * unit[1] ** 2 == 1 and unit[1] >= 1, (D, N)
            soluble += bool(classes)
        assert soluble > len(grid) // 4

    def test_square_discriminant_points_match_the_box(self):
        # a square D = d^2 has finitely many solutions with x, y >= 0, each
        # its own class, fixed by the unit (1, 0); |x - d*y| >= 1 forces
        # x + d*y <= |N|, so the box x <= |N|, y <= |N| // d holds them all
        for d in range(1, 13):
            for N in range(-200, 201):
                if N:
                    box = brute_solutions(d * d, N, abs(N) // d)
                    assert all(x <= abs(N) for x, _ in box), (d, N)
                    assert _class_points(d * d, N) == (box, (1, 0)), (d, N)

    def test_unfactorable_n_rejected(self):
        # 10^12 + 39 is prime, above TRIAL_DIVISION_BOUND**2
        assert TRIAL_DIVISION_BOUND**2 < 10**12 + 39
        with pytest.raises(ValueError, match="cannot factor"):
            solve_general(PellProblem(2, -(10**12 + 39)))

    @given(
        st.sampled_from(NONSQUARE_D),
        st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rep_is_least_member_of_its_class(self, D, N):
        for cls in solve_general(PellProblem(D, N)):
            _assert_least_member(cls)

    def test_square_shared_by_d_and_n_is_stripped(self):
        # D and N share 2^24: solved as x'^2 - 2*y^2 = 1, whose one class
        # splits into 2048; the LMM loop on (D, N) itself runs 4108
        # expansions and misses the time bound
        D, N = 2**25, 2**24
        start = time.perf_counter()
        classes = solve_general(PellProblem(D, N))
        elapsed = time.perf_counter() - start
        assert len(classes) == 2048
        assert elapsed < 1.0
        unit = fundamental_solution(D)
        for cls in classes:
            assert cls.unit == unit
            assert cls.rep.x**2 - D * cls.rep.y**2 == N
            _assert_least_member(cls)

    @given(
        st.sampled_from([D for D in range(2, 120) if is_perfect_square(D) is None]),
        st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
        st.sampled_from([2, 3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_square_multiple_classes_split_each_class(self, D, N, s):
        # the classes of (s^2*D, s^2*N) are s*x' for the solutions (x', y)
        # of (D, N), and each class of (D, N) splits into r of them, r the
        # least power of its unit whose y is divisible by s
        unit = fundamental_solution(D)
        powers = PellClass(PellProblem(D), PellSolution(1, 0), unit).walk()
        r, (ux, uy) = next((i, p) for i, p in enumerate(powers) if i and p[1] % s == 0)
        base = solve_general(PellProblem(D, N))
        split = solve_general(PellProblem(s * s * D, s * s * N))
        assert len(split) == r * len(base)
        images = []
        for cls in split:
            assert cls.unit == PellSolution(ux, uy // s)
            assert cls.rep.x % s == 0
            images.append(PellClass(PellProblem(D, N), PellSolution(cls.rep.x // s, cls.rep.y), unit))
        assert all(images.count(cls) == r for cls in base)

    @given(
        st.sampled_from([D for D in range(2, 40) if is_perfect_square(D) is None]),
        st.integers(min_value=-40, max_value=40).filter(lambda n: n != 0),
    )
    @settings(max_examples=60, deadline=None)
    def test_classes_cover_brute_force_window(self, D, N):
        window = brute_solutions(D, N, 500)
        got = set()
        for cls in solve_general(PellProblem(D, N)):
            got.update((s.x, s.y) for s in up_to(cls, 500))
            # the walk meets the class's part of the window first, in order
            expected = [s for s in window if _same_class(D, N, *s, cls.rep.x, cls.rep.y)]
            first = list(islice(cls.solutions(), len(expected) + 1))
            assert [(s.x, s.y) for s in first[:-1]] == expected
            assert first[-1].y > 500
            assert all(s.x * s.x - D * s.y * s.y == N for s in first)
            assert all(s.y < t.y for s, t in zip(first, first[1:]))
        assert got == set(window)

    @pytest.mark.parametrize(
        "D,N",
        [(2, -1), (2, 1), (5, -4), (5, 4), (13, -1), (13, 3), (61, -1), (61, 3), (581, -31540)],
    )
    def test_solutions_rise_strictly_and_solve_the_equation(self, D, N):
        # far beyond any brute-force window, and through members that tie
        # in |y|, such as (x1, y1) and (x1, -y1) of the class of (1, 0)
        for cls in solve_general(PellProblem(D, N)):
            first = list(islice(cls.solutions(), 12))
            assert first[0] == cls.rep or cls.rep.x < 0
            assert all(s.x >= 0 and s.x * s.x - D * s.y * s.y == N for s in first)
            assert all(s.y < t.y for s, t in zip(first, first[1:]))


def test_class_counts_match_sympy_diop_dn():
    diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    rng = random.Random(20170419)
    # the reduction of {7, 83, 138} with k=-5 has a unit too large for a
    # y-scan; the rest are random
    cases = [(581, -31540)] + [
        (rng.choice(NONSQUARE_D), rng.choice([-1, 1]) * rng.randint(1, 10**5))
        for _ in range(20)
    ]
    # D and N sharing the square s^2, which solve_general divides out
    for s in (2, 3, 4, 6, 4, 6):
        D0 = rng.choice([D for D in NONSQUARE_D if D < 40])
        x0, y0 = rng.randint(1, 20), rng.randint(1, 20)  # D0 is no square: N != 0
        cases.append((s * s * D0, s * s * (x0 * x0 - D0 * y0 * y0)))
    for D, N in cases:
        # diop_DN may list only one of a conjugate pair (x, y), (-x, y):
        # count the distinct classes among its solutions and their mirrors
        reps = []
        for x, y in diophantine.diop_DN(D, N):
            for u, v in ((x, y), (-x, y)):
                if not any(_same_class(D, N, u, v, c, d) for c, d in reps):
                    reps.append((u, v))
        assert len(solve_general(PellProblem(D, N))) == len(reps), (D, N)


def _assert_least_member(cls):
    # |y| along rep * unit**n falls and then rises, so no smaller |y|
    # one unit step away means rep has the least y >= 0 of its class
    x, y = cls.rep.x, cls.rep.y
    x1, y1 = cls.unit.x, cls.unit.y
    assert y >= 0
    for v in (x * y1 + y * x1, y * x1 - x * y1):
        assert abs(v) >= y
        if abs(v) == y:
            assert x >= 0


def _same_class(D, N, a, b, c, d):
    # (a + b*sqrt(D)) / (c + d*sqrt(D)) is a unit of norm one exactly when N
    # divides both a*c - D*b*d and a*d - b*c
    return (a * c - D * b * d) % N == 0 and (a * d - b * c) % N == 0
