"""The wide census's verdicts as a checked-in ledger, one line per triple.

tests/data/census_ledger.txt holds every D(k) triple with elements <= 150
and k in [-30, 30], in the order `dioph census --k-min -30 --k-max 30`
visits them, one line each: a, b, c, k, the census column of its verdict
(extended, certified or bounded), the certificate modulus and the m of the
candidates, comma-separated, each "-" when there is none.  A change that
moves a verdict, a modulus or a candidate shows as a changed line.

Rewrite the ledger with `PYTHONPATH=src python tests/test_ledger.py`.
"""

from itertools import zip_longest
from pathlib import Path

from dioph import DiophTuple, enumerate_triples, search_and_certify
from dioph.cli import _CENSUS_BOUND_INDEX, _CENSUS_COLUMNS

LEDGER = Path(__file__).resolve().parent / "data" / "census_ledger.txt"


def ledger_lines():
    # the census's settings: its depth and the library's default cap
    for k in range(-30, 31):
        if k == 0:
            continue
        for elements in enumerate_triples(150, k):
            report = search_and_certify(DiophTuple(elements, k), _CENSUS_BOUND_INDEX)
            modulus = report.certificate.modulus if report.certificate else "-"
            ms = ",".join(str(c.m) for c in report.candidates) or "-"
            yield " ".join(map(str, (*elements, k, _CENSUS_COLUMNS[report.verdict], modulus, ms)))


def test_the_wide_census_matches_its_ledger():
    ledger = LEDGER.read_text().splitlines()
    for number, (line, expected) in enumerate(zip_longest(ledger_lines(), ledger), 1):
        assert line == expected, f"{LEDGER.name} line {number}: now {line!r}"


if __name__ == "__main__":
    LEDGER.write_text("".join(line + "\n" for line in ledger_lines()))
