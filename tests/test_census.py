import json
import sys
from collections import Counter
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest

from dioph import DiophTuple, enumerate_triples, find_certificate, search_and_certify
from dioph.cli import _CENSUS_BOUND_INDEX, main as dioph_main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from triple_census import main  # noqa: E402


@pytest.mark.parametrize(
    "argv,totals",
    [
        ([], ["618", "593", "249", "228", "141"]),
        (["--k-min", "-30", "--k-max", "30"], ["3764", "3435", "720", "1749", "1295"]),
        (["--limit", "1000"], ["5228", "5126", "2764", "1528", "936"]),
    ],
    ids=["default", "wide", "limit-1000"],
)
def test_default_run_totals(capsys, argv, totals):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].split() == ["all"] + totals


def test_default_run_certificate_moduli():
    # the census's own settings: elements <= 150, k in [-5, 5], its depth
    # and the library's default cap
    moduli = Counter()
    for k in [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]:
        for elements in enumerate_triples(150, k):
            cert = search_and_certify(DiophTuple(elements, k), _CENSUS_BOUND_INDEX).certificate
            if cert is not None:
                moduli[cert.modulus] += 1
    assert moduli == {4: 79, 8: 72, 16: 73, 64: 4}


# k with v_2(k) >= 6, elements <= 150: each k's row (triples, regular,
# extended, certified, bounded).  A cap of 512 ended the scan below its last
# level 2^(v_2(k)+4) and counted 18 of these triples bounded
CENSUS_ROWS_PAST_512 = {
    -64: [77, 63, 22, 9, 46], 64: [108, 92, 74, 0, 34],
    -128: [99, 83, 20, 6, 73], 128: [30, 30, 1, 3, 26],
    -192: [75, 63, 20, 8, 47], 192: [38, 35, 2, 6, 30],
    -256: [64, 55, 21, 4, 39], 256: [89, 65, 47, 0, 42],
    -320: [122, 97, 41, 18, 63], 320: [27, 24, 2, 3, 22],
    -512: [85, 69, 27, 3, 55], 512: [21, 19, 1, 1, 19],
    -1280: [85, 71, 31, 5, 49],
}


def test_census_certifies_what_extend_certifies_past_modulus_512(capsys):
    totals = [0] * 5
    certified = set()
    for k, row in CENSUS_ROWS_PAST_512.items():
        assert main(["--k-min", str(k), "--k-max", str(k), "--show", "150"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("search depth 15, modulus cap 100000")
        assert lines[4].split() == [str(k)] + [str(n) for n in row]
        certified |= {(k, line.split(": ")[1]) for line in lines if "certified:" in line}
        totals = [t + n for t, n in zip(totals, row)]
    assert totals == [920, 766, 309, 66, 545]
    assert len(certified) == 66
    # dioph extend certifies the same two at the same moduli, exit 3
    for k, elements, modulus in [(-64, "16,40,104", 1024), (-1280, "16,96,144", 4096)]:
        assert (k, f"({elements.replace(',', ', ')}) at modulus {modulus}") in certified
        assert dioph_main(["extend", "--set", elements, "--k", str(k), "--output", "json"]) == 3
        assert json.loads(capsys.readouterr().out)["certificate"]["modulus"] == modulus


def test_the_papers_two_halves_on_the_wide_census():
    # elements <= 150, k in [-30, 30].  k = 2 (mod 4): modulus 4 settles
    # every triple.  k = 5 (mod 8), the D(-3) class: a power of 2 settles a
    # triple exactly when one of its elements is 4 (mod 8), and then 8 does
    two_mod_4 = five_mod_8 = certified = 0
    for k in range(-30, 31):
        if k % 4 != 2 and k % 8 != 5:
            continue
        for elements in enumerate_triples(150, k):
            t = DiophTuple(elements, k)
            if k % 4 == 2:
                assert find_certificate(t, 4).modulus == 4, t
                two_mod_4 += 1
                continue
            cert = find_certificate(t, 2**12)
            if any(e % 8 == 4 for e in elements):
                assert cert.modulus == 8, t
                certified += 1
            else:
                assert cert is None and all(e % 4 == 2 for e in elements), t
            five_mod_8 += 1
    assert (two_mod_4, five_mod_8, certified) == (798, 510, 381)


def admissible_classes(k, j):
    """The residue triples mod 2^j, as ascending tuples, whose pairwise
    x*y + k are all squares mod 2^j: the elements of every D(k) triple,
    read mod 2^j, are one of them."""
    M = 1 << j
    squares = {r * r % M for r in range(M)}
    return [t for t in combinations_with_replacement(range(M), 3)
            if all((x * y + k) % M in squares for x, y in combinations(t, 2))]


def first_certifying_level(t, k, j):
    """The least 2^i <= 2^j at which no m makes every e*m + k a square
    mod 2^i, for the residue triple t, or None when there is none."""
    for i in range(1, j + 1):
        M = 1 << i
        squares = {r * r % M for r in range(M)}
        if not any(all((e * m + k) % M in squares for e in t) for m in range(M)):
            return M
    return None


def test_the_papers_two_halves_for_every_triple():
    # whether 2^i certifies a D(k) triple depends only on k and on its
    # elements mod 2^i, and they form an admissible class, so one
    # enumeration of the classes decides every D(k) triple of a class of k.
    # k = 2 (mod 4): the one class mod 4 certifies at 4, so no D(k) triple
    # extends
    assert [(t, first_certifying_level(t, 2, 2)) for t in admissible_classes(2, 2)] == [((1, 2, 3), 4)]
    # k = 5 (mod 8), the class of k = -3, as k = 5 and k = 13 (mod 16).  A
    # class with an element = 4 (mod 8) certifies first at 8.  The others
    # certify at no 2^i <= 16 = 2^(v_2(k) + 4), the last level that can
    # (find_certificate's docstring), and no odd prime power certifies, so
    # they certify at no modulus: each element is 2 (mod 4), and every
    # m = 2 (mod 4) makes each e*m + k = 4 + 5 = 1 (mod 8), a square in Z_2
    for k in (5, 13):
        levels = {t: first_certifying_level(t, k, 4) for t in admissible_classes(k, 4)}
        kinds = Counter((any(e % 8 == 4 for e in t), level) for t, level in levels.items())
        assert kinds == {(True, 8): 16, (False, None): 20}
        open_classes = [t for t, level in levels.items() if level is None]
        assert all(e % 4 == 2 for t in open_classes for e in t)
        assert all((e * m + k) % 8 == 1 for t in open_classes for e in t for m in range(2, 16, 4))
    # the library agrees: each D(k) triple with elements <= 150 certifies
    # at its class's level, or at no 2^i <= 16
    for k, j in [(2, 2), (-2, 2), (6, 2), (-3, 4), (5, 4)]:
        levels = {t: first_certifying_level(t, k, j) for t in admissible_classes(k, j)}
        for elements in enumerate_triples(150, k):
            cert = find_certificate(DiophTuple(elements, k), 16)
            level = levels[tuple(sorted(e % (1 << j) for e in elements))]
            assert (cert and cert.modulus) == level, (elements, k)


@pytest.mark.parametrize(
    "argv",
    [
        ["--limit", "0"],
        ["--show", "-1"],
        # k ranges that hold no nonzero k: reversed, and k = 0 alone
        ["--k-max", "1", "--k-min", "3"],
        ["--k-max", "0", "--k-min", "0"],
    ],
)
def test_bad_bound_is_usage_error(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {argv[0]} must be >= ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag,value", [("--bound-index", "15"), ("--max-modulus", "512")])
def test_search_settings_are_not_options(capsys, flag, value):
    # the census searches at depth 15 and the library's default cap,
    # whatever it is asked
    assert main([flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err
