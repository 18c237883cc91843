import sys
from collections import Counter
from pathlib import Path

import pytest

from dioph import DiophTuple, enumerate_triples, find_certificate, search_and_certify

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
    # the census defaults: elements <= 150, k in [-5, 5], depth 15, cap 512
    moduli = Counter()
    for k in [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]:
        for elements in enumerate_triples(150, k):
            cert = search_and_certify(DiophTuple(elements, k), 15, 512).certificate
            if cert is not None:
                moduli[cert.modulus] += 1
    assert moduli == {4: 79, 8: 72, 16: 73, 64: 4}


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
    # the census searches at depth 15 and cap 512, whatever it is asked
    assert main([flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err
