"""Command line front end.

Subcommands: verify, classify, extend, pell, obstruct, census.  All but
census take --output text|json; JSON is emitted canonically (sorted keys,
two-space indent, integers only) so that parse + re-render is byte-identical.
census tallies search_and_certify's verdicts over every small D(k) triple.

Exit codes: 0 pass/extended/census done, 1 property fails, 2 usage or
invalid input, 3 certified non-extendable, 4 inconclusive below the search
bounds, 141 when the reader of stdout goes away first (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

from .extension import (
    VERDICT_BOUNDED,
    VERDICT_CERTIFIED,
    VERDICT_EXTENDED,
    _DEFAULT_MAX_MODULUS,
    ModularCertificate,
    SearchReport,
    _search,
    search_and_certify,
)
from .pell import PellProblem, fundamental_solution, solve_general
from .tuples import DiophTuple, enumerate_triples, is_regular, mod4_quadruple_obstruction, verify
from .arith import legendre

__all__ = ["main"]

_EXIT_BY_VERDICT = {VERDICT_EXTENDED: 0, VERDICT_CERTIFIED: 3, VERDICT_BOUNDED: 4}


def main(argv: list[str] | None = None) -> int:
    # integers of any size print and parse in full (3.10.7+ caps int <-> str at 4300 digits)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse drops "--" from a value such as --set=-- and then hands
        # back an empty list in place of the string
        for name, value in vars(args).items():
            if value == []:
                parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (dioph ... | head): drop the rest of the
        # output, so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dioph",
        description="Diophantine tuples with a shift: verify, classify, extend, certify.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("verify", help="check every pairwise condition of a set")
    _add_set_args(p)
    _add_output_arg(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="regular or irregular, for a triple")
    _add_set_args(p)
    _add_output_arg(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("extend", help="search for a fourth element, certify if none")
    _add_set_args(p)
    p.add_argument("--bound-index", type=int, default=30,
                   help="unit multiplications to walk per solution class (default %(default)s)")
    p.add_argument("--max-m", type=int, default=10**6,
                   help="ceiling for the brute-force strategy (default %(default)s)")
    p.add_argument("--max-modulus", type=int, default=_DEFAULT_MAX_MODULUS,
                   help="certificate scan cap: the scan stops at min(cap, 2^(v_2(k)+4)), "
                        "so a larger cap changes nothing (default %(default)s)")
    p.add_argument("--strategy", choices=["pell", "brute"], default="pell")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("pell", help="fundamental solution and solution classes")
    p.add_argument("--d", type=int, required=True, help="non-square D >= 2")
    p.add_argument("--n", type=int, default=1, help="right-hand side N (default %(default)s)")
    p.add_argument("--count", type=int, default=5,
                   help="solutions to list per class (default %(default)s)")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_pell)

    p = sub.add_parser("obstruct", help="residue obstructions for a shift k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prime", type=int, required=True, help="odd prime modulus")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_obstruct)

    p = sub.add_parser("census", help="tally the verdicts over every small D(k) triple")
    p.add_argument("--limit", type=int, default=150,
                   help="largest element to consider (default %(default)s)")
    p.add_argument("--k-min", type=int, default=-5)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--show", type=int, default=3,
                   help="certified examples to print per k (default %(default)s)")
    p.set_defaults(func=_cmd_census)

    return parser


def _add_set_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True, metavar="A,B,...",
                   help="comma-separated distinct positive integers")
    p.add_argument("--k", type=int, required=True, help="nonzero shift")


def _add_output_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=["text", "json"], default="text")


def _parse_tuple(args: argparse.Namespace) -> DiophTuple:
    try:
        elements = tuple(int(part) for part in args.set.split(","))
    except ValueError:
        raise ValueError(f"cannot parse --set {args.set!r} as integers") from None
    return DiophTuple(elements, args.k)


def _check_bounds(args: argparse.Namespace, **least: int) -> None:
    # callers run this before any output, so a bad bound prints only the error
    for name, floor in least.items():
        if getattr(args, name) < floor:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {floor}")


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _cmd_verify(args: argparse.Namespace) -> int:
    t = _parse_tuple(args)
    report = verify(t)
    if args.output == "json":
        payload = {
            "set": list(t.elements),
            "k": t.k,
            "verdict": "pass" if report.ok else "fail",
            "pairs": [
                {"a": p.a, "b": p.b, "product": p.product,
                 "shifted": p.shifted, "root": p.root}
                for p in report.pairs
            ],
        }
        print(_canonical_json(payload))
    else:
        print(str(t))
        for p in report.pairs:
            if p.ok:
                print(f"  {p.a}*{p.b}{t.k:+d} = {p.shifted} = {p.root}^2")
            else:
                print(f"  {p.a}*{p.b}{t.k:+d} = {p.shifted}: not a square")
        print(f"property D({t.k}): {'holds' if report.ok else 'fails'}")
    return 0 if report.ok else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    t = _parse_tuple(args)
    regular = is_regular(t)
    verdict = "regular" if regular else "irregular"
    if args.output == "json":
        print(_canonical_json({"set": list(t.elements), "k": t.k, "verdict": verdict}))
    else:
        a, b, c = t.elements
        print(f"{t}: ({c}-{b}-{a})^2 = {(c - b - a) ** 2}, "
              f"4*({a}*{b}{t.k:+d}) = {4 * (a * b + t.k)}")
        print(verdict)
    return 0 if regular else 1


def _cmd_extend(args: argparse.Namespace) -> int:
    # every bound is checked, whichever strategy runs
    _check_bounds(args, bound_index=0, max_m=1, max_modulus=2)
    t = _parse_tuple(args)
    # either strategy runs search_and_certify's stages: a certificate first,
    # the walk only when none exists
    if args.strategy == "brute":
        report = _search(t, "brute_force", args.max_m, args.max_modulus)
    else:
        report = _search(t, "pell_sequence", args.bound_index, args.max_modulus)
    if args.output == "json":
        print(_canonical_json(_report_payload(report)))
    else:
        _print_report(report)
    return _EXIT_BY_VERDICT[report.verdict]


def _report_payload(report: SearchReport) -> dict:
    t = report.triple
    payload = {
        "set": list(t.elements),
        "k": t.k,
        "strategy": report.strategy,
        "bound": report.bound,
        "verdict": report.verdict,
        "self_hits": list(report.self_hits),
        "candidates": [
            {
                "m": c.m,
                "complete": c.complete,
                "witnesses": {str(e): r for e, r in c.roots.items()},
            }
            for c in report.candidates
        ],
        "certificate": _certificate_payload(report.certificate),
    }
    return payload


def _certificate_payload(cert: ModularCertificate | None) -> dict | None:
    if cert is None:
        return None
    return {
        "modulus": cert.modulus,
        "allowed_residues": {
            str(e): sorted(res) for e, res in cert.allowed_residues.items()
        },
    }


def _print_report(report: SearchReport) -> None:
    t = report.triple
    print(str(t))
    bound_kind = "unit-index" if report.strategy == "pell_sequence" else "m"
    print(f"strategy {report.strategy}, {bound_kind} bound {report.bound}")
    for c in report.candidates:
        roots = ", ".join(f"{e}->{r}" for e, r in c.roots.items())
        print(f"  m={c.m}: roots {roots}; extends the triple")
    if report.self_hits:
        print(f"  self-hits (m already in the set): {', '.join(map(str, report.self_hits))}")
    if report.certificate is not None:
        cert = report.certificate
        print(f"certificate: modulus {cert.modulus}")
        for e in t.elements:
            allowed = ", ".join(map(str, sorted(cert.allowed_residues[e])))
            print(f"  m mod {cert.modulus} allowed by {e}: {{{allowed}}}")
        print("  intersection: empty")
    print(f"verdict: {report.verdict}")


def _cmd_pell(args: argparse.Namespace) -> int:
    _check_bounds(args, count=1)
    fund = fundamental_solution(args.d)
    coefficient = 2 * fund.x
    classes = solve_general(PellProblem(args.d, args.n))

    def members(cls):
        # zip, not islice: --count has no ceiling, and islice stops at sys.maxsize
        return (s for _, s in zip(range(args.count), cls.solutions()))

    if args.output == "json":
        # canonical JSON needs the whole document, so only JSON collects the members
        payload = {"d": args.d, "n": args.n, "fundamental": {"x": fund.x, "y": fund.y},
                   "coefficient": coefficient}
        if args.n == 1:
            # the one class, that of (1, 0), is listed bare
            payload["solutions"] = [[s.x, s.y] for s in members(classes[0])]
        else:
            payload["classes"] = [
                {
                    "base": [abs(cls.rep.x), cls.rep.y],
                    "x_sign": -1 if cls.rep.x < 0 else 1,
                    "members": [[s.x, s.y] for s in members(cls)],
                }
                for cls in classes
            ]
        print(_canonical_json(payload))
        return 0
    print(f"x^2 - {args.d}*y^2 = {args.n}")
    print(f"fundamental solution of the unit equation: ({fund.x}, {fund.y}); "
          f"recurrence coefficient {coefficient}")
    if args.n == 1:
        for s in members(classes[0]):
            print(f"  ({s.x}, {s.y})")
    elif not classes:
        print("  no solutions")
    else:
        for cls in classes:
            print(f"  class with base ({cls.rep.x}, {cls.rep.y}):")
            for s in members(cls):
                print(f"    ({s.x}, {s.y})")
    return 0


def _cmd_obstruct(args: argparse.Namespace) -> int:
    # rejects k = 0 before --prime is checked
    quadruple = mod4_quadruple_obstruction(args.k)
    symbol = legendre(args.k, args.prime)
    excluded = symbol == -1
    if args.output == "json":
        payload = {
            "k": args.k,
            "prime": args.prime,
            "legendre": symbol,
            "multiples_excluded": excluded,
            "quadruple_obstruction_mod4": quadruple,
        }
        print(_canonical_json(payload))
    else:
        print(f"({args.k}/{args.prime}) = {symbol}")
        if excluded:
            print(f"multiples of {args.prime} are excluded from every D({args.k}) set")
        else:
            print(f"no exclusion: multiples of {args.prime} may appear in D({args.k}) sets")
        if quadruple:
            print(f"k={args.k} = 2 (mod 4): no D({args.k}) quadruple exists")
        else:
            print(f"k={args.k} != 2 (mod 4): no mod-4 quadruple obstruction")
    return 0 if excluded else 1


# the census's unit-index depth; at depth 30 no verdict with elements <= 150, |k| <= 30 moves
_CENSUS_BOUND_INDEX = 15

# census columns: the key each row counts, and its heading
_CENSUS_COLUMNS = {"triples": "triples", "regular": "regular", VERDICT_EXTENDED: "extended",
                   VERDICT_CERTIFIED: "certified", VERDICT_BOUNDED: "bounded"}


def _census_row(label: int | str, cells: dict) -> str:
    # the heading line is the row of the headings themselves
    return f"{label:>4}" + "".join(
        f"  {cells[key]:>{len(heading) + 1}}" for key, heading in _CENSUS_COLUMNS.items()
    )


def _cmd_census(args: argparse.Namespace) -> int:
    # [k_min, k_max] must hold a nonzero k: k_min itself, or 1 when k_min is 0
    _check_bounds(args, limit=1, show=0, k_max=args.k_min or 1)
    start = time.perf_counter()
    print(f"elements <= {args.limit}, k in [{args.k_min}, {args.k_max}], "
          f"search depth {_CENSUS_BOUND_INDEX}, modulus cap {_DEFAULT_MAX_MODULUS}\n")
    header = _census_row("k", _CENSUS_COLUMNS)
    print(header)
    print("-" * len(header))
    grand = Counter()
    for k in range(args.k_min, args.k_max + 1):
        if k == 0:
            continue
        counts = Counter()
        examples = []
        for elements in enumerate_triples(args.limit, k):
            t = DiophTuple(elements, k)
            counts["triples"] += 1
            counts["regular"] += is_regular(t)
            report = search_and_certify(t, _CENSUS_BOUND_INDEX)
            counts[report.verdict] += 1
            if report.certificate and len(examples) < args.show:
                examples.append((elements, report.certificate.modulus))
        print(_census_row(k, counts))
        for elements, modulus in examples:
            print(f"      certified: {elements} at modulus {modulus}")
        if mod4_quadruple_obstruction(k):
            print(f"      note: k = 2 (mod 4), so no D({k}) quadruple exists at all")
        grand.update(counts)
    print("-" * len(header))
    print(_census_row("all", grand))
    print(f"\n{time.perf_counter() - start:.1f}s")
    return 0

