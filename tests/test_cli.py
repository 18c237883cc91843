import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dioph.cli import main
from dioph.tuples import enumerate_triples


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_passing_triple(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "7,14,41", "--k", "2")
        assert code == 0
        assert "7*14+2 = 100 = 10^2" in out
        assert "property D(2): holds" in out

    def test_failing_triple(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "7,14,40", "--k", "2")
        assert code == 1
        assert "7*40+2 = 282: not a square" in out
        assert "property D(2): fails" in out

    def test_pair_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "239,478", "--k", "2")
        assert code == 0

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--set", "7,14,41", "--k", "2", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["set"] == [7, 14, 41]
        assert payload["k"] == 2
        assert payload["verdict"] == "pass"
        assert payload["pairs"][0] == {
            "a": 7,
            "b": 14,
            "product": 98,
            "shifted": 100,
            "root": 10,
        }

    def test_integers_beyond_4300_digits_parse_and_print(self, capsys):
        # str(10**4400) itself raises under the default digit limit
        a, b = "1" + "0" * 4400, "1" + "0" * 4399 + "2"
        code, out, err = run(capsys, "verify", "--set", f"{a},{b}", "--k", "1")
        assert (code, err) == (0, "")
        assert f" = {a[:-1]}1^2" in out
        # 3 + 10^4400 is not a square: the property fails, the input is valid
        assert run(capsys, "verify", "--set", "1,3", "--k", a)[0] == 1

    def test_json_roots_null_on_failure(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--set", "7,14,40", "--k", "2", "--output", "json"
        )
        assert code == 1
        payload = json.loads(out)
        failing = [p for p in payload["pairs"] if p["root"] is None]
        assert {(p["a"], p["b"]) for p in failing} == {(7, 40), (14, 40)}


class TestClassifyCommand:
    def test_regular(self, capsys):
        code, out, _ = run(capsys, "classify", "--set", "41,14,7", "--k", "2")
        assert code == 0
        assert "regular" in out

    def test_irregular(self, capsys):
        code, out, _ = run(capsys, "classify", "--set", "1,5,65", "--k", "-1")
        assert code == 1
        assert "irregular" in out

    def test_wrong_size_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "--set", "1,3", "--k", "1")
        assert code == 2
        assert "error:" in err


class TestExtendCommand:
    def test_certified_triple(self, capsys):
        # the certificate comes first, and a certified triple is not walked:
        # no candidates, no self-hits
        code, out, err = run(capsys, "extend", "--set", "7,14,41", "--k", "2")
        assert code == 3
        assert out == (
            "{7, 14, 41} with k=2\n"
            "strategy pell_sequence, unit-index bound 30\n"
            "certificate: modulus 4\n"
            "  m mod 4 allowed by 7: {1, 2}\n"
            "  m mod 4 allowed by 14: {1, 3}\n"
            "  m mod 4 allowed by 41: {2, 3}\n"
            "  intersection: empty\n"
            "verdict: certified_non_extendable\n"
        )
        assert err == ""

    def test_extended_triple(self, capsys):
        code, out, _ = run(
            capsys, "extend", "--set", "1,3,8", "--k", "1",
            "--bound-index", "8", "--max-modulus", "300",
        )
        assert code == 0
        assert "m=120: roots 1->11, 3->19, 8->31; extends the triple" in out
        assert "verdict: extended" in out

    def test_bounded_when_modulus_cap_too_low(self, capsys):
        code, out, _ = run(
            capsys, "extend", "--set", "1,2,7", "--k", "2", "--max-modulus", "3"
        )
        assert code == 4
        assert "verdict: no_extension_below_bound" in out

    def test_brute_strategy(self, capsys):
        code, out, _ = run(
            capsys, "extend", "--set", "1,3,8", "--k", "1",
            "--strategy", "brute", "--max-m", "200", "--max-modulus", "300",
        )
        assert code == 0
        assert "strategy brute_force, m bound 200" in out
        assert "m=120" in out

    def test_huge_modulus_cap_certifies_without_allocating(self, capsys):
        code, out, err = run(
            capsys, "extend", "--set", "7,14,41", "--k", "2",
            "--max-modulus", "1000000000000", "--output", "json",
        )
        assert code == 3
        assert json.loads(out)["certificate"]["modulus"] == 4
        assert "Traceback" not in err

    def test_huge_modulus_cap_without_certificate_stays_bounded(self, capsys):
        # only the powers of 2 can certify {2, 6, 14} with k = -3, and the
        # scan settles them all at once, so a cap of 10^12 costs a few moduli
        start = time.perf_counter()
        code, out, err = run(
            capsys, "extend", "--set", "2,6,14", "--k", "-3",
            "--max-modulus", "1000000000000", "--output", "json",
        )
        elapsed = time.perf_counter() - start
        assert code == 4
        assert json.loads(out)["certificate"] is None
        assert "Traceback" not in err
        assert elapsed < 5.0, f"extend took {elapsed:.2f}s"

    def test_brute_strategy_huge_m_bound_walks_roots(self, capsys):
        # 10^10 m values, but only the roots of 7*m + 2 below 264576
        start = time.perf_counter()
        code, out, err = run(
            capsys, "extend", "--set", "7,14,41", "--k", "2",
            "--strategy", "brute", "--max-m", "10000000000", "--output", "json",
        )
        elapsed = time.perf_counter() - start
        assert code == 3
        assert json.loads(out)["certificate"]["modulus"] == 4
        assert "Traceback" not in err
        assert elapsed < 10.0, f"extend took {elapsed:.2f}s"

    def test_brute_strategy_certifies_an_unfactorable_k(self, capsys):
        # {7, 14, 41}*G with k = 2*G^2, G = 10^12 + 39 a prime above the
        # trial-division bound: the certificate search needs no factorisation
        code, out, err = run(
            capsys, "extend", "--set", "7000000000273,14000000000546,41000000001599",
            "--k", "2000000000156000000003042", "--strategy", "brute", "--max-m", "1000",
        )
        assert code == 3
        assert "certificate: modulus 4" in out
        assert "verdict: certified_non_extendable" in out
        assert err == ""

    def test_pell_strategy_certifies_an_unfactorable_k(self, capsys):
        # the same triple with the default strategy: the certificate comes
        # before the walk, so |k*b*(b-a)| is never factored
        unfactorable = ("extend", "--set", "7000000000273,14000000000546,41000000001599",
                        "--k", "2000000000156000000003042")
        code, out, err = run(capsys, *unfactorable)
        assert code == 3
        assert "strategy pell_sequence, unit-index bound 30" in out
        assert "certificate: modulus 4" in out
        assert "verdict: certified_non_extendable" in out
        assert err == ""
        # below the certifying modulus the walk runs, and cannot factor
        code, out, err = run(capsys, *unfactorable, "--max-modulus", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot factor ")

    @pytest.mark.parametrize("strategy", ["pell", "brute"])
    @pytest.mark.parametrize(
        "flag,value",
        [("--bound-index", "-5"), ("--max-m", "0"), ("--max-modulus", "0"), ("--max-modulus", "1")],
    )
    def test_bad_bound_is_usage_error_whichever_strategy_runs(self, capsys, flag, value, strategy):
        # {1, 3, 8} extends, so neither strategy would reach a bound it does not use
        code, out, err = run(
            capsys, "extend", "--set", "1,3,8", "--k", "1", "--strategy", strategy, flag, value,
        )
        assert code == 2
        assert out == ""
        assert f"{flag} must be >=" in err

    def test_non_dk_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "extend", "--set", "7,14,40", "--k", "2")
        assert code == 2
        assert "7*40+2 = 282 is not a square" in err

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "extend", "--set", "7,14,41", "--k", "2", "--output", "json"
        )
        assert code == 3
        assert json.loads(out) == {
            "set": [7, 14, 41],
            "k": 2,
            "strategy": "pell_sequence",
            "bound": 30,
            "verdict": "certified_non_extendable",
            # a certified triple is not walked
            "self_hits": [],
            "candidates": [],
            "certificate": {
                "modulus": 4,
                "allowed_residues": {"7": [1, 2], "14": [1, 3], "41": [2, 3]},
            },
        }

    @pytest.mark.parametrize(
        "elements,k,code,self_hits,candidates",
        [
            ("1,3,8", "1", 0, [8],
             [{"m": 120, "complete": True, "witnesses": {"1": 11, "3": 19, "8": 31}}]),
            ("7,14,41", "2", 3, [], []),
            ("7,83,138", "-5", 4, [138], []),
            ("2,6,14", "-3", 4, [2, 14], []),
        ],
    )
    def test_json_lists_only_the_m_that_extend(
        self, capsys, elements, k, code, self_hits, candidates
    ):
        # the walk meets members that fail the third condition (m = 1680 for
        # {1, 3, 8}), but a report lists only the m that extend
        got, out, err = run(capsys, "extend", "--set", elements, f"--k={k}", "--output", "json")
        assert got == code
        assert err == ""
        payload = json.loads(out)
        assert payload["self_hits"] == self_hits
        assert payload["candidates"] == candidates


class TestPellCommand:
    def test_unit_equation(self, capsys):
        code, out, _ = run(capsys, "pell", "--d", "8", "--count", "3")
        assert code == 0
        assert "x^2 - 8*y^2 = 1" in out
        assert "fundamental solution of the unit equation: (3, 1)" in out
        assert "recurrence coefficient 6" in out
        assert "(17, 6)" in out

    def test_general_equation(self, capsys):
        code, out, _ = run(capsys, "pell", "--d", "2", "--n", "-2", "--count", "3")
        assert code == 0
        assert "x^2 - 2*y^2 = -2" in out
        assert "class with base (0, 1):" in out
        assert "(24, 17)" in out

    def test_insoluble_equation(self, capsys):
        code, out, _ = run(capsys, "pell", "--d", "3", "--n", "2")
        assert code == 0
        assert "no solutions" in out

    def test_unfactorable_n_is_usage_error(self, capsys):
        # 10^12 + 39 is prime and above the trial-division reach
        code, out, err = run(capsys, "pell", "--d", "2", "--n", "-1000000000039")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot factor 1000000000039")
        assert "Traceback" not in err

    def test_square_d_is_usage_error(self, capsys):
        code, _, err = run(capsys, "pell", "--d", "49")
        assert code == 2
        assert "non-square" in err

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "pell", "--d", "2", "--n", "-2", "--count", "3",
            "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == 2
        assert payload["n"] == -2
        assert payload["classes"][0]["members"][:2] == [[0, 1], [4, 3]]

    def test_unit_beyond_4300_digits_prints_in_full(self, capsys):
        code, out, err = run(capsys, "pell", "--d", "9999889", "--count", "1", "--output", "json")
        assert (code, err) == (0, "")
        x = str(json.loads(out)["fundamental"]["x"])
        assert (len(x), x[-6:]) == (7668, "828449")

    def test_json_classes_carry_the_sign_of_x(self, capsys):
        # the mirror of (1, 1) is the class of (-1, 1); (4, 2) is its own
        code, out, _ = run(
            capsys, "pell", "--d", "5", "--n", "-4", "--count", "2",
            "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["classes"] == [
            {"base": [1, 1], "x_sign": 1, "members": [[1, 1], [29, 13]]},
            {"base": [1, 1], "x_sign": -1, "members": [[11, 5], [199, 89]]},
            {"base": [4, 2], "x_sign": 1, "members": [[4, 2], [76, 34]]},
        ]


    @pytest.mark.parametrize(
        "d,count,text,payload",
        [
            (
                "8", "5",
                "x^2 - 8*y^2 = 1\n"
                "fundamental solution of the unit equation: (3, 1); recurrence coefficient 6\n"
                "  (1, 0)\n  (3, 1)\n  (17, 6)\n  (99, 35)\n  (577, 204)\n",
                {"coefficient": 6, "d": 8, "fundamental": {"x": 3, "y": 1}, "n": 1,
                 "solutions": [[1, 0], [3, 1], [17, 6], [99, 35], [577, 204]]},
            ),
            (
                "48", "4",
                "x^2 - 48*y^2 = 1\n"
                "fundamental solution of the unit equation: (7, 1); recurrence coefficient 14\n"
                "  (1, 0)\n  (7, 1)\n  (97, 14)\n  (1351, 195)\n",
                {"coefficient": 14, "d": 48, "fundamental": {"x": 7, "y": 1}, "n": 1,
                 "solutions": [[1, 0], [7, 1], [97, 14], [1351, 195]]},
            ),
        ],
        ids=["d8", "d48"],
    )
    def test_unit_equation_bytes(self, capsys, d, count, text, payload):
        assert run(capsys, "pell", "--d", d, "--count", count) == (0, text, "")
        # canonical JSON: sorted keys, two-space indent
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        json_out = run(capsys, "pell", "--d", d, "--count", count, "--output", "json")
        assert json_out == (0, expected, "")


class TestObstructCommand:
    def test_excluded(self, capsys):
        code, out, _ = run(capsys, "obstruct", "--k", "2", "--prime", "3")
        assert code == 0
        assert "(2/3) = -1" in out
        assert "multiples of 3 are excluded from every D(2) set" in out
        assert "no D(2) quadruple exists" in out

    def test_not_excluded(self, capsys):
        code, out, _ = run(capsys, "obstruct", "--k", "1", "--prime", "3")
        assert code == 1
        assert "no exclusion" in out
        assert "no mod-4 quadruple obstruction" in out

    def test_composite_prime_rejected(self, capsys):
        code, _, err = run(capsys, "obstruct", "--k", "2", "--prime", "4")
        assert code == 2
        assert "not an odd prime" in err

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_zero_shift_is_usage_error(self, capsys, output):
        code, out, err = run(capsys, "obstruct", "--k", "0", "--prime", "3", "--output", output)
        assert code == 2
        assert out == ""
        assert err == "error: the shift k must be nonzero\n"

    def test_unverifiable_prime_is_usage_error(self, capsys):
        # 10^12 + 39 is prime, but above the trial-division reach
        code, out, err = run(capsys, "obstruct", "--k", "2", "--prime", "1000000000039")
        assert code == 2
        assert out == ""
        assert err == (
            "error: cannot verify primality of 1000000000039 by trial division up to 1000000\n"
        )


def test_closed_stdout_exits_141_without_traceback():
    # about 3 MB of output, more than any pipe buffer holds, so the write
    # after the reader has gone always fails
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "dioph", "pell", "--d", "2", "--count", "2000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"x^2 - 2*y^2 = 1")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err


def _limit_address_space():
    # set in the child only
    resource.setrlimit(resource.RLIMIT_AS, (300 * 2**20, 300 * 2**20))


# 10^8, and 2^64, past sys.maxsize: --count has no ceiling
HUGE_COUNTS = ("100000000", "18446744073709551616")


def test_out_of_memory_exits_2_without_traceback():
    # canonical JSON collects the whole document: its list of 10^8 Pell
    # members outgrows a 300 MB address space in under a second
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for count in HUGE_COUNTS:
        argv = [sys.executable, "-m", "dioph", "pell", "--d", "2", "--count", count,
                "--output", "json"]
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=60,
                              preexec_fn=_limit_address_space)
        assert proc.returncode == 2, count
        assert proc.stderr == b"error: out of memory\n", count


def test_pell_text_streams_in_bounded_memory():
    # text prints each of the 10^8 members as the walk yields it, so the
    # first lines arrive under the same 300 MB limit, and the run ends on
    # the closed pipe, not on memory
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for count in HUGE_COUNTS:
        argv = [sys.executable, "-m", "dioph", "pell", "--d", "2", "--count", count]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                              preexec_fn=_limit_address_space) as proc:
            lines = [proc.stdout.readline() for _ in range(3)]
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert lines == [b"x^2 - 2*y^2 = 1\n",
                         b"fundamental solution of the unit equation: (3, 2); "
                         b"recurrence coefficient 6\n",
                         b"  (1, 0)\n"], count
        assert proc.returncode == 141, count
        assert b"Traceback" not in err, count


@pytest.mark.parametrize("entry", [["scripts/triple_census.py"], ["-m", "dioph", "census"]])
def test_census_closed_stdout_exits_141_without_traceback(entry):
    # about 450 KB of rows; block-buffered stdout, as in a pipeline
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, *entry, "--limit", "12", "--k-min", "-3000", "--k-max", "3000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, cwd=root) as proc:
        assert proc.stdout.readline().startswith(b"elements <= 12, k in [-3000, 3000]")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err


# D(k) triples with small elements, so that the fuzzed extend runs reach
# the Pell walk, brute force and the certificate search
DK_TRIPLES = [
    (",".join(map(str, elements)), k)
    for k in range(-6, 7) if k
    for elements in enumerate_triples(30, k)
]
SMALL_SETS = st.lists(st.integers(min_value=-5, max_value=60), min_size=2, max_size=4)
JUNK_SETS = st.sampled_from(["", ",", "7,x", "1,,2", " 3, 4", "1.5,2", "0x10,3", "--", "7;14"])
SETS_AND_SHIFTS = st.one_of(
    st.sampled_from(DK_TRIPLES),
    st.tuples(
        st.one_of(SMALL_SETS.map(lambda es: ",".join(map(str, es))), JUNK_SETS, st.text(max_size=8)),
        st.integers(min_value=-60, max_value=60),
    ),
)
OUTPUT = st.sampled_from(["text", "json"])


def set_args(set_and_shift):
    elements, k = set_and_shift
    return [f"--set={elements}", f"--k={k}"]


FUZZED_ARGV = st.one_of(
    st.tuples(st.sampled_from(["verify", "classify"]), SETS_AND_SHIFTS, OUTPUT).map(
        lambda c: [c[0], *set_args(c[1]), "--output", c[2]]
    ),
    st.tuples(
        SETS_AND_SHIFTS,
        st.integers(min_value=-2, max_value=6),
        st.integers(min_value=-2, max_value=2000),
        st.integers(min_value=-2, max_value=600),
        st.sampled_from(["pell", "brute"]),
        OUTPUT,
    ).map(
        lambda c: [
            "extend", *set_args(c[0]), f"--bound-index={c[1]}", f"--max-m={c[2]}",
            f"--max-modulus={c[3]}", "--strategy", c[4], "--output", c[5],
        ]
    ),
    st.tuples(
        st.integers(min_value=-3, max_value=200),
        st.integers(min_value=-300, max_value=300),
        st.integers(min_value=-1, max_value=6),
        OUTPUT,
    ).map(lambda c: ["pell", f"--d={c[0]}", f"--n={c[1]}", f"--count={c[2]}", "--output", c[3]]),
    st.tuples(
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=-10, max_value=200),
        OUTPUT,
    ).map(lambda c: ["obstruct", f"--k={c[0]}", f"--prime={c[1]}", "--output", c[2]]),
    st.tuples(
        st.integers(min_value=-2, max_value=25),
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-1, max_value=4),
    ).map(
        lambda c: [
            "census", f"--limit={c[0]}", f"--k-min={c[1]}", f"--k-max={c[2]}", f"--show={c[3]}",
        ]
    ),
    st.lists(st.text(max_size=10), max_size=5),
)


@given(FUZZED_ARGV)
@settings(max_examples=300, deadline=None)
def test_fuzzed_command_lines_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "badcmd")[0] == 2

    def test_no_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_malformed_set(self, capsys):
        code, _, err = run(capsys, "verify", "--set", "7,x", "--k", "2")
        assert code == 2
        assert "cannot parse" in err

    def test_zero_k(self, capsys):
        code, _, err = run(capsys, "verify", "--set", "7,14", "--k", "0")
        assert code == 2
        assert "nonzero" in err

    def test_duplicate_elements(self, capsys):
        assert run(capsys, "verify", "--set", "7,7", "--k", "2")[0] == 2

    @pytest.mark.parametrize("argv", [("verify", "--set=--", "--k", "2"), ("pell", "--d=--")])
    def test_double_dash_value_is_usage_error(self, capsys, argv):
        # argparse turns the value "--" into an empty list
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "expected one argument" in err


class TestJsonRoundTrip:
    CASES = [
        ("verify", "--set", "7,14,41", "--k", "2"),
        ("verify", "--set", "7,14,40", "--k", "2"),
        ("classify", "--set", "1,5,10", "--k", "-1"),
        ("extend", "--set", "7,14,41", "--k", "2"),
        ("extend", "--set", "1,3,8", "--k", "1", "--bound-index", "8",
         "--max-modulus", "300"),
        ("pell", "--d", "2", "--n", "-2", "--count", "4"),
        ("obstruct", "--k", "2", "--prime", "3"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
    def test_parse_and_redump_is_identity(self, capsys, argv):
        _, out, _ = run(capsys, *argv, "--output", "json")
        payload = json.loads(out)
        redumped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert redumped == out
