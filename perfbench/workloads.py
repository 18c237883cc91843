"""The three workloads: how each drives dioph, untraced and traced, and how
its outputs are turned into checkable outcomes.

Each workload is a closed loop with one client: one triple at a time, the
next one only after the verdict.  `call` is the untraced verdict path;
`traced` makes the same public calls inside spans, plus diagnostic calls
(verify, fundamental_solution, solve_general) that time layers the verdict
path hides inside pell_extension_search.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from time import perf_counter
from typing import Callable

import checks
import pool
from checks import BOUNDED, CERTIFIED, EXTENDED, Outcome

ANCHOR_EXTENDS = ((1, 3, 8), 1)      # extends with m = 120
ANCHOR_CERTIFIED = ((7, 14, 41), 2)  # certified at modulus 4

# pell_extension_search caps solve_general's y-scan at this; the separate
# solve_general call passes the same cap while the parameter exists.
PELL_CLASS_BOUND = 10**5
# The first values N + D*y^2 of each reduction's y-scan join the candidates'
# c*m + k values as the inputs of the is_perfect_square timing.
SCAN_VALUES_PER_TRIPLE = 64
CLI_TIMEOUT_S = 170
WAIT_POLL_S = 0.05


class Workload:
    name: str
    runs_in_child = False  # whether the work runs in a child process (peak_rss_mb)
    traced_triples: int   # stream triples in a traced run, before `closing`
    # An untraced run takes round(seconds * sample_per_second) stream triples
    # and runs each of them `rounds` times; the constants make one run last
    # about --seconds on a 2-core 2.0 GHz Xeon VM.
    sample_per_second: float
    rounds: int

    def sample_size(self, seconds: float) -> int:
        return max(1, round(seconds * self.sample_per_second))

    def __init__(self, dioph, root) -> None:
        self.dioph = dioph
        self.root = root
        bound = "class_bound" in inspect.signature(dioph.solve_general).parameters
        self.solve_kwargs = {"class_bound": PELL_CLASS_BOUND} if bound else {}
        self.square_values: list[int] = []

    def tuple(self, triple):
        return self.dioph.DiophTuple(*triple)

    def traced(self, triple, tracer, tid: str):
        """(raw result, seconds on the verdict path) with spans recorded."""
        root = tracer.open("triple", tid)
        try:
            return self._traced(triple, tracer, tid, root)
        finally:
            tracer.close(root)

    def diagnose(self, t, tracer, tid, root) -> None:
        d = self.dioph
        tracer.call("tuples.verify", tid, root, d.verify, t)
        red = d.reduce_pair(t.elements[0], t.elements[1], t.k)
        self.square_values += [red.N + red.D * y * y for y in range(SCAN_VALUES_PER_TRIPLE)]
        if d.is_perfect_square(red.D) is None:
            tracer.call("pell.fundamental_solution", tid, root, d.fundamental_solution, red.D)
            problem = d.PellProblem(red.D, red.N)
            tracer.call("pell.solve_general", tid, root,
                        lambda: d.solve_general(problem, **self.solve_kwargs), count=len)

    def walk(self, t, index, tracer, tid, root):
        report = tracer.call("extension.pell_extension_search", tid, root,
                             self.dioph.pell_extension_search, t, index,
                             count=lambda r: len(r.candidates))
        return report

    def note_candidates(self, t, report) -> None:
        """Keep the candidates' c*m + k for the is_perfect_square timing."""
        self.square_values += [t.elements[2] * c.m + t.k for c in report.candidates]

    def certify(self, report, t, cap, tracer, tid, root):
        """The certificate step of search_and_certify, in a span."""
        if report.verdict == EXTENDED:
            return report
        cert = tracer.call("extension.find_certificate", tid, root,
                           self.dioph.find_certificate, t, cap,
                           count=lambda c: int(c is not None))
        return replace(report, certificate=cert) if cert is not None else report


class SearchWorkload(Workload):
    """Workloads whose verdict is search_and_certify's."""

    index: int
    cap: int

    def problems(self, o: Outcome) -> list[str]:
        return checks.search_problems(o, self.cap)

    def anchor_problems(self, o: Outcome) -> list[str]:
        if (o.elements, o.k) == ANCHOR_EXTENDS:
            if o.verdict != EXTENDED or 120 not in o.complete:
                return self.problems(o) + ["{1,3,8} k=1 is not extended with m=120"]
        elif o.verdict != CERTIFIED or o.modulus != 4:
            return self.problems(o) + ["{7,14,41} k=2 is not certified at modulus 4"]
        return self.problems(o)


def report_outcome(triple, report) -> Outcome:
    if isinstance(report, Exception):
        return Outcome(*triple, f"raised {report!r}")
    cert = report.certificate
    return Outcome(
        *triple,
        report.verdict,
        tuple(c.m for c in report.candidates if c.complete),
        cert.modulus if cert else None,
        {e: frozenset(r) for e, r in cert.allowed_residues.items()} if cert else None,
    )


class Census(SearchWorkload):
    name = "census"
    traced_triples = 1000
    sample_per_second, rounds = 26, 8  # about 5 ms per verdict
    index, cap = 15, 512  # scripts/triple_census.py's settings

    def inputs(self, triples, seed):
        return pool.census_stream(triples, seed), []

    def call(self, triple):
        return self.dioph.search_and_certify(self.tuple(triple), self.index, self.cap)

    def outcome(self, triple, raw) -> Outcome:
        return report_outcome(triple, raw)

    def _traced(self, triple, tracer, tid, root):
        t = self.tuple(triple)
        self.diagnose(t, tracer, tid, root)
        start = perf_counter()
        report = self.walk(t, self.index, tracer, tid, root)
        report = self.certify(report, t, self.cap, tracer, tid, root)
        elapsed = perf_counter() - start
        self.note_candidates(t, report)
        return report, elapsed


class Extend(SearchWorkload):
    name = "extend"
    traced_triples = 40
    index, cap = 30, 10**5  # the CLI's defaults
    runs_in_child = True
    # about 0.16 s per quick `dioph extend`: the quick triples take half of
    # --seconds, and the closing triple's scan about as long again
    sample_per_second, rounds = 1, 3

    def __init__(self, dioph, root) -> None:
        super().__init__(dioph, root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # called every WAIT_POLL_S while a CLI child runs, if set
        self.while_waiting: Callable[[], None] | None = None

    def inputs(self, triples, seed):
        fast, slow = pool.extend_inputs(triples, seed)
        return fast, [slow]

    def call(self, triple):
        elements, k = triple
        args = [sys.executable, "-m", "dioph", "extend", "--set", ",".join(map(str, elements)),
                "--k", str(k), "--output", "json"]
        deadline = perf_counter() + CLI_TIMEOUT_S
        with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=self.env, cwd=self.root) as proc:
            while True:
                try:
                    out, err = proc.communicate(timeout=WAIT_POLL_S)
                    break
                except subprocess.TimeoutExpired:
                    if perf_counter() > deadline:
                        proc.kill()
                        proc.communicate()
                        raise
                    if self.while_waiting:
                        self.while_waiting()
        return subprocess.CompletedProcess(args, proc.returncode, out, err)

    def outcome(self, triple, raw) -> Outcome:
        if isinstance(raw, Exception):
            return Outcome(*triple, f"raised {raw!r}")
        try:
            payload = json.loads(raw.stdout)
            cert = payload["certificate"]
            return Outcome(
                *triple,
                payload["verdict"],
                tuple(c["m"] for c in payload["candidates"] if c["complete"]),
                cert["modulus"] if cert else None,
                {int(e): frozenset(r) for e, r in cert["allowed_residues"].items()} if cert else None,
                raw.returncode,
            )
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(*triple, f"exit {raw.returncode}, unreadable output: {exc!r}",
                           exit_code=raw.returncode)

    def _traced(self, triple, tracer, tid, root):
        start = perf_counter()
        proc = tracer.call("cli.extend", tid, root, self.call, triple)
        elapsed = perf_counter() - start
        # the CLI's own calls, repeated in-process to split its time by layer
        t = self.tuple(triple)
        self.diagnose(t, tracer, tid, root)
        report = self.walk(t, self.index, tracer, tid, root)
        self.certify(report, t, self.cap, tracer, tid, root)
        self.note_candidates(t, report)
        return proc, elapsed


class Oracle(Workload):
    name = "oracle"
    traced_triples = 40
    sample_per_second, rounds = 7 / 3, 3  # about 0.14 s per operation
    index, max_m = 30, 10**6

    def inputs(self, triples, seed):
        return pool.oracle_stream(triples, seed), []

    def call(self, triple):
        t = self.tuple(triple)
        return (self.dioph.brute_force_search(t, self.max_m),
                self.dioph.pell_extension_search(t, self.index))

    def outcome(self, triple, raw) -> Outcome:
        if isinstance(raw, Exception):
            return Outcome(*triple, f"raised {raw!r}")
        brute, pell = raw
        complete = tuple(c.m for c in pell.candidates if c.complete)
        found = tuple(c.m for c in brute.candidates if c.complete)
        return Outcome(*triple, EXTENDED if complete or found else BOUNDED, complete, brute=found)

    def problems(self, o: Outcome) -> list[str]:
        return checks.oracle_problems(o, self.max_m)

    def anchor_problems(self, o: Outcome) -> list[str]:
        if (o.elements, o.k) == ANCHOR_EXTENDS:
            if 120 not in (o.brute or ()) or 120 not in o.complete:
                return self.problems(o) + ["{1,3,8} k=1: m=120 is not found by both strategies"]
        elif o.verdict != BOUNDED:
            return self.problems(o) + ["{7,14,41} k=2 is extended"]
        return self.problems(o)

    def _traced(self, triple, tracer, tid, root):
        t = self.tuple(triple)
        self.diagnose(t, tracer, tid, root)
        start = perf_counter()
        brute = tracer.call("extension.brute_force_search", tid, root,
                            self.dioph.brute_force_search, t, self.max_m,
                            count=lambda r: r.bound)
        pell = self.walk(t, self.index, tracer, tid, root)
        elapsed = perf_counter() - start
        self.note_candidates(t, pell)
        return (brute, pell), elapsed


WORKLOADS = {w.name: w for w in (Census, Extend, Oracle)}
