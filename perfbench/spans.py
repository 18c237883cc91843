"""In-memory spans around the benchmark's calls into dioph, and the
per-layer metrics computed from them.

A span records name, start, end, the index of its parent span and the id of
the triple it belongs to; `count` is the work counter recorded at the same
boundary (classes, candidates, certificates, m values tested).  Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    triple: str
    count: int | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []

    def open(self, name: str, triple: str, parent: int | None = None) -> int:
        self.spans.append(Span(name, perf_counter(), 0.0, parent, triple))
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()

    def call(self, name: str, triple: str, parent: int | None, fn: Callable, *args,
             count: Callable | None = None):
        """fn(*args) inside a span; count(result) becomes the span's counter."""
        index = self.open(name, triple, parent)
        try:
            result = fn(*args)
        finally:
            self.close(index)
        if count is not None:
            self.spans[index].count = count(result)
        return result

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


LAYERS = (
    "pell.solve_general",
    "pell.fundamental_solution",
    "extension.pell_extension_search",
    "extension.find_certificate",
    "extension.brute_force_search",
    "tuples.verify",
    "cli.extend",
)


def layer_metrics(workload: list[Span], fallback: list[Span]) -> dict[str, float]:
    """Per-layer metrics from the workload's spans.  A layer the workload
    never calls is measured on the fallback spans instead, so that every
    metric reads a measured value on every workload."""
    by_layer = {}
    for layer in LAYERS:
        chosen = [s for s in workload if s.name == layer]
        by_layer[layer] = chosen or [s for s in fallback if s.name == layer]

    def total_ms(layer):
        return sum(s.ms for s in by_layer[layer])

    def per_triple(layer, spans):
        out: dict[str, float] = {}
        for s in spans:
            if s.name == layer:
                out[s.triple] = out.get(s.triple, 0.0) + s.ms
        return out

    solve = by_layer["pell.solve_general"]
    certs = by_layer["extension.find_certificate"]
    brute = by_layer["extension.brute_force_search"]
    walk = by_layer["extension.pell_extension_search"]
    walk_ms = per_triple("extension.pell_extension_search", walk)
    solve_ms = per_triple("pell.solve_general", solve)
    # the CLI's time less the same triple's in-process walk and certificate
    # search, from whichever spans the CLI's come from
    cli_source = workload if any(s.name == "cli.extend" for s in workload) else fallback
    cli = per_triple("cli.extend", cli_source)
    in_process = [per_triple(n, cli_source)
                  for n in ("extension.pell_extension_search", "extension.find_certificate")]
    certified = sum(s.count or 0 for s in certs)
    return {
        "pell.solve_general.ms": total_ms("pell.solve_general"),
        "pell.solve_general.calls": len(solve),
        "pell.solve_general.classes": sum(s.count or 0 for s in solve),
        "pell.solve_general.ms_max": max((s.ms for s in solve), default=0.0),
        "pell.fundamental_solution.ms": total_ms("pell.fundamental_solution"),
        "extension.walk_self_ms": sum(ms - solve_ms.get(t, 0.0) for t, ms in walk_ms.items()),
        "extension.candidates": sum(s.count or 0 for s in walk),
        "extension.find_certificate.ms": total_ms("extension.find_certificate"),
        "extension.find_certificate.calls": len(certs),
        "extension.find_certificate.certified": certified,
        "extension.find_certificate.useful_ratio": certified / len(certs) if certs else 0.0,
        "extension.brute_force_search.ms": total_ms("extension.brute_force_search"),
        "extension.brute_force_search.m_per_s": (
            sum(s.count or 0 for s in brute) / (total_ms("extension.brute_force_search") / 1e3)
            if brute else 0.0),
        "tuples.verify.ms": total_ms("tuples.verify"),
        "tuples.verify.calls": len(by_layer["tuples.verify"]),
        "cli.extend.ms_p50": statistics.median(cli.values()) if cli else 0.0,
        "cli.overhead_ms": statistics.median(
            ms - sum(d.get(t, 0.0) for d in in_process) for t, ms in cli.items()
        ) if cli else 0.0,
    }
