#!/usr/bin/env python3
"""Census of D(k) triples: enumerate, classify, and try to settle each one.

For every k in the requested range, enumerates all triples with elements up
to --limit, splits them into regular/irregular, then runs the combined
search-and-certify pipeline and tallies the verdicts.  Certificates are
capped at a small modulus by default: the census cares about the
distribution, not about squeezing out every last certificate.
"""

import argparse
import sys
import time
from collections import Counter

from dioph.extension import search_and_certify
from dioph.tuples import (
    DiophTuple,
    enumerate_triples,
    is_regular,
    mod4_quadruple_obstruction,
)


# perfbench/test_perfbench.py imports the enumerator from here under this name
dk_triples = enumerate_triples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=150,
                        help="largest element to consider (default 150)")
    parser.add_argument("--k-min", type=int, default=-5)
    parser.add_argument("--k-max", type=int, default=5)
    parser.add_argument("--bound-index", type=int, default=15,
                        help="unit-index depth of the extension search")
    parser.add_argument("--max-modulus", type=int, default=512,
                        help="certificate modulus cap (default 512)")
    parser.add_argument("--show", type=int, default=3,
                        help="certified examples to print per k")
    args = parser.parse_args(argv)
    # checked before the settings line, so a bad bound prints nothing else
    for flag, value, least in [("--bound-index", args.bound_index, 0),
                               ("--max-modulus", args.max_modulus, 2)]:
        if value < least:
            print(f"error: {flag} must be >= {least}", file=sys.stderr)
            return 2
    try:
        return _census(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _census(args):
    grand = Counter()
    t0 = time.perf_counter()
    print(f"elements <= {args.limit}, k in [{args.k_min}, {args.k_max}], "
          f"search depth {args.bound_index}, modulus cap {args.max_modulus}")
    print()
    header = (f"{'k':>4}  {'triples':>8}  {'regular':>8}  {'extended':>9}  "
              f"{'certified':>10}  {'bounded':>8}")
    print(header)
    print("-" * len(header))
    for k in range(args.k_min, args.k_max + 1):
        if k == 0:
            continue
        counts = Counter()
        certified_examples = []
        for tri in enumerate_triples(args.limit, k):
            t = DiophTuple(tri, k)
            counts["triples"] += 1
            if is_regular(t):
                counts["regular"] += 1
            report = search_and_certify(
                t, max_index=args.bound_index, max_modulus=args.max_modulus
            )
            counts[report.verdict] += 1
            if report.certificate and len(certified_examples) < args.show:
                certified_examples.append((tri, report.certificate.modulus))
        print(f"{k:>4}  {counts['triples']:>8}  {counts['regular']:>8}  "
              f"{counts['extended']:>9}  {counts['certified_non_extendable']:>10}  "
              f"{counts['no_extension_below_bound']:>8}")
        for tri, modulus in certified_examples:
            print(f"      certified: {tri} at modulus {modulus}")
        if mod4_quadruple_obstruction(k):
            print(f"      note: k = 2 (mod 4), so no D({k}) quadruple exists at all")
        grand.update(counts)
    print("-" * len(header))
    print(f"{'all':>4}  {grand['triples']:>8}  {grand['regular']:>8}  "
          f"{grand['extended']:>9}  {grand['certified_non_extendable']:>10}  "
          f"{grand['no_extension_below_bound']:>8}")
    print(f"\n{time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
