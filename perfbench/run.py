#!/usr/bin/env python3
"""Benchmark of dioph: the census, extend and oracle workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

dioph is imported from the src/ directory next to perfbench/, so the
script runs from any working directory.  With --trace 0 the run measures
the end-to-end metrics with tracing off; with --trace 1 it records spans
and reports the per-layer metrics.  Every output is checked independently
(checks.py).  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  The exit code is 0 only when every
check passed.  A JSON record of the run, and in a traced run its spans, go
to .perfbench_out/ next to perfbench/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

import pool
from baseline import baseline_rows
from checks import SETTLED
from reference import HostSpeed
from spans import Tracer, layer_metrics
from workloads import ANCHOR_CERTIFIED, ANCHOR_EXTENDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SQUARE_TIMING_REPEATS = 5
# Reference samples taken back to back before each set-up, which cannot be
# interrupted to take one.  The first few after a wait run slow, on cold caches.
SETUP_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "triples_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "settled_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "pell.solve_general.ms": "ms",
    "pell.solve_general.calls": "count",
    "pell.solve_general.classes": "count",
    "pell.solve_general.ms_max": "ms",
    "pell.fundamental_solution.ms": "ms",
    "extension.walk_self_ms": "ms",
    "extension.candidates": "count",
    "extension.find_certificate.ms": "ms",
    "extension.find_certificate.calls": "count",
    "extension.find_certificate.certified": "count",
    "extension.find_certificate.useful_ratio": "ratio",
    "extension.brute_force_search.ms": "ms",
    "extension.brute_force_search.m_per_s": "1/s",
    "arith.is_perfect_square.ns_per_call": "ns",
    "tuples.verify.ms": "ms",
    "tuples.verify.calls": "count",
    "cli.extend.ms_p50": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def import_dioph(src: Path):
    """A fresh import of dioph from src, so that each set-up pays for it."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "dioph" or n.startswith("dioph.")]:
        del sys.modules[name]
    dioph = importlib.import_module("dioph")
    if not Path(dioph.__file__).resolve().is_relative_to(src):
        raise ImportError(f"dioph was imported from {dioph.__file__}, not from {src}")
    return dioph


def set_up(workload_cls, seed: int):
    """Import dioph and generate the workload's triples."""
    dioph = import_dioph(ROOT / "src")
    workload = workload_cls(dioph, ROOT)
    stream, closing = workload.inputs(pool.triple_pool(), seed)
    return workload, stream, closing


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(workload, triple):
    """(start, end, outcome) of one operation."""
    start = perf_counter()
    try:
        raw = workload.call(triple)
    except Exception as exc:  # a raising operation is a counted failure
        raw = exc
    end = perf_counter()
    return start, end, workload.outcome(triple, raw)


def tail_percentile(n: int) -> int | None:
    """The highest percentile with at least ten of n samples beyond it, or
    None below 11 samples, where the tail is the maximum."""
    return max((p for p in range(1, 100) if n * (100 - p) >= 1000), default=None)


def measure(workload, stream, closing, seconds: float, rng: random.Random,
            host: HostSpeed, setups: list[tuple[float, float]]) -> dict:
    """The untraced closed loop.  A fixed sample of the stream runs
    `workload.rounds` times, each round in a fresh seeded order, then
    `closing` runs once.  Every timing is scaled to the reference host speed
    (reference.py), and a triple's verdict time is its fastest round: on a
    shared host the slower rounds measure the neighbours' load.  Once the
    rounds have taken 1.5 x `seconds` (on a much slower host), no further
    round starts, provided two are done."""
    sample = list(islice(stream, workload.sample_size(seconds)))
    timed = [[] for _ in sample]  # (start, end) of each run of each triple
    outcomes, verdicts = [], {}
    host.sample()
    start = perf_counter()
    rounds = 0
    while rounds < workload.rounds and (rounds < 2 or perf_counter() - start < 1.5 * seconds):
        rounds += 1
        for i in rng.sample(range(len(sample)), len(sample)):
            t0, t1, outcome = run_one(workload, sample[i])
            host.sample_if_due()
            timed[i].append((t0, t1))
            outcomes.append(outcome)
            verdicts[i] = outcome.verdict
    for triple in closing:  # a long CLI run: sample while it runs
        workload.while_waiting = host.sample
        t0, t1, outcome = run_one(workload, triple)
        workload.while_waiting = None
        host.sample()
        verdicts[len(timed)] = outcome.verdict
        timed.append([(t0, t1)])
        outcomes.append(outcome)
    wall = perf_counter() - start

    def figures(seconds_of) -> dict:
        best = [min(seconds_of(t0, t1, i >= len(sample)) for t0, t1 in runs)
                for i, runs in enumerate(timed)]
        tail = tail_percentile(len(best))
        return {
            "setup_s": statistics.median(seconds_of(t0, t1, False) for t0, t1 in setups),
            "triples_per_s": len(best) / sum(best),
            "verdict_ms_p50": statistics.median(best) * 1e3,
            "verdict_ms_tail": (statistics.quantiles(best, n=100)[tail - 1] if tail
                                else max(best)) * 1e3,
            "verdict_ms": [t * 1e3 for t in best],
        }

    # a closing operation runs once, and is scaled by the mean of the
    # samples taken while it ran (reference.py)
    metrics = figures(lambda t0, t1, once: (t1 - t0) * host.scale(
        t0, t1, statistics.fmean if once else min))
    raw = figures(lambda t0, t1, once: t1 - t0)
    verdict_ms = metrics.pop("verdict_ms")
    metrics["settled_frac"] = sum(v in SETTLED for v in verdicts.values()) / len(verdicts)
    who = resource.RUSAGE_CHILDREN if workload.runs_in_child else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    return {
        "outcomes": outcomes,
        "metrics": metrics,
        "detail": {"triples": len(timed), "rounds": rounds, "operations": len(outcomes),
                   "wall_s": wall, "tail_percentile": tail_percentile(len(timed)),
                   "unscaled": raw, "verdict_ms": verdict_ms,
                   "reference_ms": host.samples_ms},
    }


def trace(workload, stream, closing, seed: int) -> dict:
    """The traced run: spans over a fixed number of triples, each also run
    untraced right before or after (alternating) for the tracing overhead,
    then the Baseline rows."""
    tracer, outcomes, traced_s, untraced_s = Tracer(), [], [], []
    chosen = [next(stream) for _ in range(workload.traced_triples)]
    for i, triple in enumerate(chosen + closing):
        if i < len(chosen) and i % 2:
            t0, t1, _ = run_one(workload, triple)
            untraced_s.append(t1 - t0)
        try:
            raw, seconds = workload.traced(triple, tracer, str(i))
        except Exception as exc:  # a raising operation is a counted failure
            raw, seconds = exc, 0.0
        outcomes.append(workload.outcome(triple, raw))
        traced_s.append(seconds)
        if i < len(chosen) and not i % 2:
            t0, t1, _ = run_one(workload, triple)
            untraced_s.append(t1 - t0)
    overhead = sum(traced_s[:len(chosen)]) / sum(untraced_s) - 1

    is_square = workload.dioph.is_perfect_square
    values = workload.square_values
    runs = []
    for _ in range(SQUARE_TIMING_REPEATS):
        start = perf_counter()
        for v in values:
            is_square(v)
        runs.append(perf_counter() - start)

    base_tracer = Tracer()
    rows, base_checked = baseline_rows(workload.dioph, ROOT, base_tracer)
    metrics = layer_metrics(tracer.spans, base_tracer.spans)
    metrics["arith.is_perfect_square.ns_per_call"] = statistics.median(runs) / len(values) * 1e9
    metrics["trace.overhead_frac"] = overhead
    tracer.spans += base_tracer.spans
    tracer.write(OUT / f"{workload.name}-seed{seed}-spans.jsonl")
    return {
        "outcomes": outcomes,
        "metrics": metrics,
        "detail": {"triples": len(outcomes), "square_values": len(values), "baseline": rows},
        "baseline_checked": base_checked,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dioph" / "__init__.py").is_file():
        print(f"error: no dioph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One CPU for the benchmark and its child processes, so that the
    # reference loop (reference.py) runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    host, setups = HostSpeed(), []
    for _ in range(SETUP_REPEATS):
        host.sample(SETUP_SAMPLES)
        start = perf_counter()
        workload, stream, closing = set_up(WORKLOADS[args.workload], args.seed)
        setups.append((start, perf_counter()))

    load_before = os.getloadavg()
    if args.trace:
        result = trace(workload, stream, closing, args.seed)
        units = PER_LAYER
    else:
        result = measure(workload, stream, closing, args.seconds, random.Random(args.seed),
                         host, setups)
        units = END_TO_END
    load_after = os.getloadavg()

    anchors = [run_one(workload, t)[2] for t in (ANCHOR_EXTENDS, ANCHOR_CERTIFIED)]
    checked = [workload.problems(o) for o in result["outcomes"]]
    checked += [workload.anchor_problems(o) for o in anchors]
    checked += result.get("baseline_checked", [])
    problems = [p for ps in checked for p in ps]
    attempted, failed = len(checked), sum(map(bool, checked))

    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "commit": commit(),
        "nproc": os.cpu_count(), "load_before": load_before, "load_after": load_after,
        "setup_s_each": [end - start for start, end in setups], "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems[:50],
        "metrics": metrics, **result["detail"],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(f"{args.workload}: seed {args.seed}, trace {args.trace}, python "
          f"{record['python']}, commit {record['commit'][:12]}, nproc {record['nproc']}, "
          f"load {load_before[0]:.2f} -> {load_after[0]:.2f}")
    for name, m in metrics.items():
        print(f"  {name:42} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':42} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
    for problem in problems[:20]:
        print(f"  check failed: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
