"""ROADMAP's Baseline rows, measured again on this machine.

Every traced run measures the rows that take about a second or less here,
plus the default census.  The two rows that each scan moduli up to 10^5
(`dioph extend` on {7,83,138} k=-5, find_certificate on {2,6,14} k=-3 at
cap 10^5) take about half a minute each, so only a full run measures them:

    python3 perfbench/baseline.py

It prints one JSON object per row, with ROADMAP's figure beside this run's.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import pool
from spans import Tracer
from workloads import ANCHOR_CERTIFIED, ANCHOR_EXTENDS, Census, Extend

ROOT = Path(__file__).resolve().parent.parent


def _row(name: str, seconds: float, roadmap_s: float, **detail) -> dict:
    return {"row": name, "seconds": seconds, "roadmap_s": roadmap_s, **detail}


def baseline_rows(dioph, root: Path, tracer: Tracer, full: bool = False):
    """The rows, and for each checked operation in them the problems the
    independent checks found."""
    rows, checked = [], []
    extend = Extend(dioph, root)
    cli = [(ANCHOR_EXTENDS, 0.21), (ANCHOR_CERTIFIED, 0.24)]
    if full:
        cli.append((((7, 83, 138), -5), 20.3))
    for triple, roadmap_s in cli:
        proc, seconds = extend.traced(triple, tracer, f"baseline {triple}")
        o = extend.outcome(triple, proc)
        checked.append(extend.problems(o))
        rows.append(_row(f"dioph extend {triple[0]} k={triple[1]}", seconds, roadmap_s,
                         verdict=o.verdict, exit_code=o.exit_code, modulus=o.modulus))

    t = dioph.DiophTuple((2, 6, 14), -3)
    tid = "baseline ((2, 6, 14), -3)"
    caps = [(512, 0.002), (10**4, 0.31)] + ([(10**5, 18.5)] if full else [])
    for cap, roadmap_s in caps:
        cert = tracer.call("extension.find_certificate", tid, None, dioph.find_certificate,
                           t, cap, count=lambda c: int(c is not None))
        rows.append(_row(f"find_certificate {{2,6,14}} k=-3 cap {cap}", tracer.spans[-1].ms / 1e3,
                         roadmap_s, certified=cert is not None))
    walk = tracer.call("extension.pell_extension_search", tid, None,
                       dioph.pell_extension_search, t, 30, count=lambda r: len(r.candidates))
    rows.append(_row("pell_extension_search {2,6,14} k=-3 index 30", tracer.spans[-1].ms / 1e3,
                     0.001, candidates=len(walk.candidates)))
    brute = tracer.call("extension.brute_force_search", tid, None,
                        dioph.brute_force_search, t, 10**6, count=lambda r: r.bound)
    rows.append(_row("brute_force_search {2,6,14} k=-3 to 10^6", tracer.spans[-1].ms / 1e3,
                     0.10, candidates=len(brute.candidates)))

    census = Census(dioph, root)
    verdicts = Counter()
    start = perf_counter()
    for triple in pool.triple_pool(limit=150, max_abs_k=5):
        o = census.outcome(triple, census.call(triple))
        checked.append(census.problems(o))
        verdicts[f"modulus {o.modulus}" if o.modulus else o.verdict] += 1
    rows.append(_row("triple_census.py defaults (<=150, |k|<=5, 618 triples)",
                     perf_counter() - start, 1.5, verdicts=dict(sorted(verdicts.items()))))
    return rows, checked


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import dioph

    rows, checked = baseline_rows(dioph, ROOT, Tracer(), full=True)
    for row in rows:
        print(json.dumps(row))
    problems = [p for ps in checked for p in ps]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
