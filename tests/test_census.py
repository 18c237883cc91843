import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from triple_census import main  # noqa: E402


@pytest.mark.parametrize(
    "argv,totals",
    [
        ([], ["618", "593", "249", "228", "141"]),
        (["--k-min", "-30", "--k-max", "30"], ["3764", "3435", "720", "1749", "1295"]),
    ],
    ids=["default", "wide"],
)
def test_default_run_totals(capsys, argv, totals):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].split() == ["all"] + totals


@pytest.mark.parametrize("argv", [["--bound-index", "-1"], ["--max-modulus", "1"]])
def test_bad_bound_is_usage_error(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {argv[0]} must be >= ")
    assert len(err.splitlines()) == 1
