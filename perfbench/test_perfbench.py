"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import math
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

import checks
import pool
import reference
import run
import workloads
from checks import CERTIFIED, EXTENDED, Outcome

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def dioph():
    return run.import_dioph(ROOT / "src")


@pytest.fixture(scope="module")
def triples():
    return pool.triple_pool()


def test_pool_matches_the_census_script(dioph, triples):
    sys.path.insert(0, str(ROOT / "scripts"))
    from triple_census import dk_triples

    small = pool.triple_pool(limit=150, max_abs_k=5)
    assert len(small) == 618
    assert small == [(t, k) for k in range(-5, 6) if k for t in dk_triples(150, k)]
    assert len(triples) == 2033
    assert triples == [(t, k) for k in range(-8, 9) if k for t in dk_triples(300, k)]


def test_streams_are_seeded_stratified_passes(triples):
    strata = [triples[:300], triples[300:1000], triples[1000:]]
    stream = pool.stratified_passes(strata, random.Random(5))
    first = list(islice(stream, len(triples)))
    assert sorted(first) == sorted(triples)
    for n in (10, 333, 1500):
        for stratum in strata:
            share = sum(t in set(stratum) for t in first[:n])
            assert abs(share - n * len(stratum) / len(triples)) <= 1
    again = pool.stratified_passes(strata, random.Random(5))
    assert list(islice(again, 50)) == first[:50]
    other = pool.stratified_passes(strata, random.Random(6))
    assert list(islice(other, 50)) != first[:50]


def _prime_power_certifies(triple, cap):
    primes = [p for p in range(2, cap + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    return any(checks.certifies(*triple, p**e)
               for p in primes for e in range(1, cap.bit_length()) if p**e <= cap)


def test_extend_inputs_match_the_library_verdicts(dioph, triples):
    """Triples chosen as fast settle at a small modulus or extend; the rest
    have no certificate up to 512 and no extension from the Pell walk, so
    `dioph extend` scans every modulus up to its default cap."""
    for triple in triples:
        t = dioph.DiophTuple(*triple)
        if pool.settles_fast(triple):
            assert dioph.search_and_certify(t, 30, 64).verdict != checks.BOUNDED, triple
        else:
            assert not _prime_power_certifies(triple, 512), triple
            assert not any(c.complete for c in dioph.pell_extension_search(t, 30).candidates)


def test_census_strata_predict_the_verdict(dioph, triples):
    """The census stream is stratified by pool.settles_fast, so that every
    run settles the same share of its triples."""
    for triple in triples:
        report = dioph.search_and_certify(dioph.DiophTuple(*triple), workloads.Census.index,
                                          workloads.Census.cap)
        assert (report.verdict in checks.SETTLED) == pool.settles_fast(triple), triple


def test_checks_accept_true_outcomes():
    sets = checks.residue_sets((7, 14, 41), 2, 4)
    assert sets == {7: {1, 2}, 14: {1, 3}, 41: {2, 3}}
    assert checks.search_problems(Outcome((7, 14, 41), 2, CERTIFIED, (), 4, sets, 3), 512) == []
    assert checks.search_problems(Outcome((1, 3, 8), 1, EXTENDED, (120,), exit_code=0), 512) == []
    assert checks.oracle_problems(Outcome((1, 3, 8), 1, EXTENDED, (120,), brute=(120,)), 10**6) == []


def test_checks_catch_a_forged_certificate():
    sets = checks.residue_sets((7, 14, 41), 2, 4)
    wrong_modulus = Outcome((7, 14, 41), 2, CERTIFIED, (), 8, sets)
    emptied = Outcome((1, 3, 8), 1, CERTIFIED, (), 4, {1: frozenset({0}), 3: frozenset({1}), 8: frozenset({2})})
    honest_but_useless = Outcome((1, 3, 8), 1, CERTIFIED, (), 4, checks.residue_sets((1, 3, 8), 1, 4))
    missing = Outcome((7, 14, 41), 2, CERTIFIED)
    for forged in (wrong_modulus, emptied, honest_but_useless, missing):
        assert checks.search_problems(forged, 512), forged


def test_checks_catch_a_non_extending_m():
    assert checks.search_problems(Outcome((1, 3, 8), 1, EXTENDED, (121,)), 512)
    assert checks.search_problems(Outcome((1, 3, 8), 1, EXTENDED, (8,)), 512)
    assert checks.oracle_problems(Outcome((1, 3, 8), 1, EXTENDED, (120,), brute=(120, 121)), 10**6)
    assert checks.oracle_problems(Outcome((1, 3, 8), 1, EXTENDED, (120,), brute=()), 10**6)


def test_checks_catch_wrong_verdicts_and_exit_codes():
    assert checks.search_problems(Outcome((7, 14, 41), 2, EXTENDED, ()), 512)
    assert checks.search_problems(Outcome((1, 3, 8), 1, EXTENDED, (120,), exit_code=4), 512)
    # {7,14,41} k=2 certifies at 4, so a bounded verdict under cap 512 is wrong
    assert checks.search_problems(Outcome((7, 14, 41), 2, checks.BOUNDED), 512)
    assert checks.search_problems(Outcome((7, 14, 41), 2, "raised ValueError()"), 512)


def _run(monkeypatch, tmp_path, *args):
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main([*args])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.fixture
def small(monkeypatch):
    """Tiny runs: few traced triples, and extend closed by a fast triple
    instead of the one that scans moduli up to 10^5."""
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "traced_triples", 3)
    fast_inputs = workloads.Extend.inputs

    def inputs(self, triples, seed):
        stream, _ = fast_inputs(self, triples, seed)
        return stream, [next(stream)]

    monkeypatch.setattr(workloads.Extend, "inputs", inputs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric(small, monkeypatch, tmp_path, name, trace):
    code, lines, result = _run(monkeypatch, tmp_path, "--workload", name, "--seed", "3",
                               "--seconds", "0.3", "--trace", str(trace))
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        n: m["unit"] for n, m in result["metrics"].items()}
    text = "\n".join(lines[:-1])
    for metric in declared:
        assert metric["name"] in text
    assert "failed_frac" in text
    record = json.loads((tmp_path / f"{name}-seed3-trace{trace}.json").read_text())
    for key in ("python", "commit", "nproc", "load_before", "load_after"):
        assert key in record
    if not trace:  # timings are scaled by reference samples taken in the run
        raw, samples = record["unscaled"], record["reference_ms"]
        low, high = reference.REFERENCE_MS / max(samples), reference.REFERENCE_MS / min(samples)
        for name in ("setup_s", "verdict_ms_p50", "verdict_ms_tail"):
            assert raw[name] * low * 0.999 <= result["metrics"][name]["value"] <= raw[name] * high * 1.001
        rate = result["metrics"]["triples_per_s"]["value"]
        assert raw["triples_per_s"] / high * 0.999 <= rate <= raw["triples_per_s"] / low * 1.001


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(11) == 9
    assert [run.tail_percentile(n) for n in (31, 70, 780)] == [67, 85, 98]


def test_injected_faults_fail_the_run(small, monkeypatch, tmp_path):
    honest = workloads.Census.outcome

    def forged(self, triple, raw):
        o = honest(self, triple, raw)
        if o.verdict == CERTIFIED:  # claim one residue fewer for the first element
            first = o.elements[0]
            o = replace(o, allowed={**o.allowed, first: frozenset(sorted(o.allowed[first])[1:])})
        if o.verdict == EXTENDED:
            o = replace(o, complete=tuple(m + 1 for m in o.complete))
        return o

    monkeypatch.setattr(workloads.Census, "outcome", forged)
    code, lines, result = _run(monkeypatch, tmp_path, "--workload", "census", "--seed", "3",
                               "--seconds", "0.3", "--trace", "0")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 2  # at least both anchors
    assert any("check failed" in line for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
