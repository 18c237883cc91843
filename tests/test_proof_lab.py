"""The proof lab: find_certificate's 2-adic proof, run as a construction.

find_certificate's docstring proves that no power of 2 certifies a D(k)
triple that 2^(v+4) leaves uncertified, v = v_2(k): it turns any m common
mod 2^(v+4) (every e*m + k a square mod 2^(v+4)) into a point of Z_2, an m
at which every e*m + k is 0 or a square in Z_2, which is then common mod
every power of 2.  `two_adic_point` follows that proof case by case.  Each
branch the proof calls impossible is an assertion, and the point it builds
is checked on its own by `is_point`, to precision 2^(v + 64).  No odd prime
power certifies either (the same docstring), so where the scan reaches
2^(v+4), as the census's cap of 10^5 does for v <= 12, a "bounded" verdict
means that no modulus certifies the triple.
"""

from collections import Counter
from functools import cache
from itertools import islice

from dioph import DiophTuple, enumerate_triples, find_certificate

# the point is built mod 2^(v + PRECISION)
PRECISION = 64
# the common residues checked per triple
SAMPLE = 32

# every branch of the proof that builds a point, and the residues of the
# sample that reach it
CONSTRUCTIVE = {
    "|H| = 0": 37363,
    "|H| = 1": 1724,
    "|H| = 1, e's value 0": 5222,
    "a - b <= -3: P1": 202,
    "a - b >= 3: P0": 16,
    "a - b = 2: P2": 8,
    "a - b = -2, v_2(g) = a + 2: P2": 54,
    "a - b = -2, v_2(g) > a + 2: P0": 45,
    "a - b = 0, |H| = 3": 35,
    "a - b = 0, v_2(g) < a - 1: P1": 4,
    "a - b = 0, beta odd": 128,
    "a - b = 0, R = 7 (mod 8)": 269,
    "a - b = 0, R = 3 (mod 8)": 219,
    "a - b = 0, R = 1 (mod 4), f's value 0": 188,
    "a - b = 0, R = 1 (mod 4), f's value 2^(beta+2)": 209,
}


def v2(x):
    return (x & -x).bit_length() - 1


@cache
def squares_mod_2_to(j):
    return frozenset(r * r % (1 << j) for r in range(1 << j))


def common_residues(elements, k, level):
    """The m mod 2^level at which every e*m + k is a square mod 2^level,
    lifted level by level, depth first: a residue r common mod 2^j has the
    lifts r and r + 2^j mod 2^(j+1), and each lift that stays common is
    followed to the last level, r's before r + 2^j's."""
    stack = [(0, 0)]
    while stack:
        r, j = stack.pop()
        if j == level:
            yield r
            continue
        squares = squares_mod_2_to(j + 1)
        stack += [(m, j + 1) for m in (r + (1 << j), r)
                  if all((e * m + k) % (2 << j) in squares for e in elements)]


def sqrt_1_mod_8(u, n):
    """An r with r^2 = u (mod 2^n), for u = 1 (mod 2^min(n, 3)): each step
    fixes one more bit of r^2, as (r + 2^(i-1))^2 = r^2 + 2^i (mod 2^(i+1))."""
    r = 1
    for i in range(3, n):
        if (r * r - u) >> i & 1:
            r += 1 << (i - 1)
    return r


def sqrt_mod_2_to(x, j):
    """An s with s^2 = x (mod 2^j), for x a square mod 2^j; s = 0 when x is."""
    x %= 1 << j
    if x == 0:
        return 0
    w = v2(x)
    return sqrt_1_mod_8(x >> w, j - w) << (w // 2)


def two_adic_point(elements, k, m):
    """The point of Z_2 that find_certificate's proof builds from m, common
    mod 2^(v+4): (the branch, the point, the elements whose value the branch
    makes exactly 0).  The point is an integer in the branches that name
    P0, P1, P2, |H| = 0 or |H| = 3, and a 2-adic integer mod 2^(v+64) in
    the others."""
    v = v2(k)
    kap = k >> v
    mod = 1 << (v + PRECISION)
    values = {e: e * m + k for e in elements}

    def integer_point(branch, x):
        return branch, x, {e for e in elements if e * x + k == 0}

    def p0(branch):
        assert v % 2 == 0 and kap % 8 == 1, branch
        return integer_point(branch + ": P0", 0)

    def p1(branch, x):
        assert 2 * v2(x) + 3 <= v, branch
        return integer_point(branch + ": P1", x)

    def p2(branch, x):
        assert kap % 8 == 5 and 2 * v2(x) == v + 2, branch
        return integer_point(branch + ": P2", x)

    # a finite square depth is at most the valuation + 2, so a value of
    # valuation at most v + 1 is a nonzero square in Z_2
    H = [e for e in elements if values[e] == 0 or v2(values[e]) >= v + 2]
    for e in elements:
        if e not in H:
            w = v2(values[e])
            assert w % 2 == 0 and (values[e] >> w) % 8 == 1, ("not a square in Z_2", e)
    if not H:
        return integer_point("|H| = 0", m)
    # for e in H, v_2(e*m) = v
    assert m != 0
    b = v2(m)
    a = v - b
    assert all(v2(e) == a for e in H), "every e in H has v_2(e) = v - v_2(m)"
    if len(H) == 1:
        (e,) = H
        T = max([0] + [v2(values[f]) + 3 - v2(f) for f in elements if f != e])
        assert T <= b + 4, "a + T <= v + 4"
        s = sqrt_mod_2_to(values[e], a + T)
        # e's value becomes s^2; each other value moves by a multiple of
        # 2^(w_f + 3)
        point = (m + ((s * s - values[e]) >> a) * pow(e >> a, -1, mod)) % mod
        if s == 0:
            return "|H| = 1, e's value 0", point, {e}
        return "|H| = 1", point, set()
    e, f = H[:2]
    (g,) = [x for x in elements if x not in (e, f)]
    eps, phi, gamma = e >> a, f >> a, v2(g)
    assert (e - f) * m % (1 << (v + 2)) == 0 and eps * phi % 4 == 1
    d = a - b
    if d <= -3:
        return p1("a - b <= -3", e)
    assert d not in (-1, 1), "a - b = 1 or -1: e*f + k is no square"
    if d >= 3:
        return p0("a - b >= 3")
    if d == 2:
        return p2("a - b = 2", e)
    if d == -2:
        assert eps * phi % 8 == 5
        assert gamma >= a + 2, "a - b = -2: v_2(g) <= a + 1 is impossible"
        if gamma == a + 2:
            return p2("a - b = -2, v_2(g) = a + 2", g)
        return p0("a - b = -2, v_2(g) > a + 2")
    assert v == 2 * a and kap % 4 == 3
    if g in H:
        assert (g >> a) % 4 == eps % 4
        # 2*eps*u = 1 - kap (mod 8): each value is 2^v (mod 2^(v+3))
        u = eps * (1 - kap) // 2 % 4
        return integer_point("a - b = 0, |H| = 3", u << (a + 1))
    if gamma <= a - 2:
        return p1("a - b = 0, v_2(g) < a - 1", g)
    assert gamma == a + 1, "a - b = 0: only v_2(g) = a + 1 leaves g's value a square"
    # move to m_y = 2^a*(y^2 - kap)/eps: e's value becomes 2^v*y^2, and f's
    # 2^v/eps^2 times P*y^2 - 2^beta*R
    P = eps * phi
    beta = v2(phi - eps)
    R = kap * eps * (phi - eps) >> beta
    assert beta == 2 or beta >= 4
    zeros = set()
    if beta % 2:
        assert beta >= 5 and P % 8 == 1
        branch, y = "a - b = 0, beta odd", 2
    elif R % 8 == 7:
        branch, y, zeros = "a - b = 0, R = 7 (mod 8)", 0, {e}
    elif R % 8 == 3:
        branch, y = "a - b = 0, R = 3 (mod 8)", 1 << (beta // 2 + 1)
    else:
        target = R * pow(P, -1, mod) % mod
        branch, zeros = "a - b = 0, R = 1 (mod 4), f's value 0", {f}
        if target % 8 != 1:
            target = (R + 4) * pow(P, -1, mod) % mod
            branch, zeros = "a - b = 0, R = 1 (mod 4), f's value 2^(beta+2)", set()
        y = sqrt_1_mod_8(target, v + PRECISION) << (beta // 2)
    return branch, ((y * y - kap) * pow(eps, -1, mod) << a) % mod, zeros


def is_point(elements, k, point, zeros):
    """Every e*point + k, read mod 2^(v + PRECISION), is 0 for e in zeros,
    and otherwise has an even valuation w with w + 3 within the precision
    and an odd part = 1 (mod 8): a square in Z_2 at every lift."""
    n = v2(k) + PRECISION
    for e in elements:
        x = (e * point + k) % (1 << n)
        if x == 0 or e in zeros:
            if not (x == 0 and e in zeros):
                return False
            continue
        w = v2(x)
        if w % 2 or w + 3 > n or (x >> w) % 8 != 1:
            return False
    return True


def proof_sample():
    """The triples the proof runs on: the wide census (elements <= 150,
    k in [-30, 30]), and k = +-2^i*{1, 3, 5, 7} for 5 <= i <= 12 with
    elements <= 100, so that v_2(k) reaches 12."""
    for k in range(-30, 31):
        if k:
            yield from ((elements, k) for elements in enumerate_triples(150, k))
    for i in range(5, 13):
        for k in (sign * odd << i for odd in (1, 3, 5, 7) for sign in (1, -1)):
            yield from ((elements, k) for elements in enumerate_triples(100, k))


def test_every_residue_common_at_the_last_level_lifts_to_a_point():
    # sampling rule, to keep the test near 1 s: the first SAMPLE residues of
    # each triple in common_residues' order, 45 686 of the 600 612
    branches = Counter()
    uncertified = 0
    for elements, k in proof_sample():
        level = v2(k) + 4
        common = list(islice(common_residues(elements, k, level), SAMPLE))
        # a triple is uncertified at 2^level exactly when a residue is common
        assert (find_certificate(DiophTuple(elements, k), 1 << level) is None) == bool(common)
        for m in common:
            branch, point, zeros = two_adic_point(elements, k, m)
            assert is_point(elements, k, point, zeros), (elements, k, m, branch)
            branches[branch] += 1
        uncertified += bool(common)
    assert (uncertified, branches) == (3132, CONSTRUCTIVE)


def test_one_level_short_the_construction_fails():
    # {2, 5, 13} with k = -1 certifies first at 16 = 2^(v+4): no residue
    # common mod 2^(v+3) = 8 lifts to a point
    def lifts(m):
        try:
            return is_point((2, 5, 13), -1, *two_adic_point((2, 5, 13), -1, m)[1:])
        except AssertionError:
            return False

    common = list(common_residues((2, 5, 13), -1, 3))
    assert common and not any(lifts(m) for m in common)
