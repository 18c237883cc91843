#!/usr/bin/env python3
"""Census of D(k) triples: `dioph census`, same flags and exit codes."""

import sys

from dioph.cli import main as dioph_main
from dioph.tuples import enumerate_triples

# perfbench/test_perfbench.py imports the enumerator from here under this name
dk_triples = enumerate_triples


def main(argv):
    return dioph_main(["census", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
