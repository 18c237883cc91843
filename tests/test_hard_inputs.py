"""Hard inputs as a table: one row per pathology, each with its exit code
and a budget.

Each row runs ``python -m dioph`` in a child process with a wall-time
limit (the run's ``timeout``) and an address-space limit
(``resource.setrlimit(RLIMIT_AS)``, set in the child only, so nothing
outside it changes).  A row must exit with its documented code, without a
traceback, inside both limits.  The budgets are far above today's times
(0.1-0.3 s each on a shared 2-vCPU host, about 1 s for the scaled bounded
walk {7, 83, 138}*2^8), so a row fails on a blow-up, not on a slow
neighbour.  An input whose budget does not hold yet, such as
{7168, 14336, 41984} with k = 2^21 at the default cap, joins the table
with the change that meets it.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SECONDS = 10
MEMORY = 512 * 2**20

HUGE_SET = "7000000000273,14000000000546,41000000001599"
HUGE_K = "2000000000156000000003042"
CAP = str(2**200)
# the Pell right-hand side k*b*(b - a) = 2*(p + 2) of {p, p + 2, 4p + 4} has
# the 14-digit cofactor p + 2, with no prime factor up to 10^6
P = 10**13 + 35

ROWS = [
    # the layer stressed, the arguments, the exit code, the start of stderr
    pytest.param("certificate scan", ["extend", "--set", HUGE_SET, "--k", HUGE_K], 3, b"",
                 id="huge-elements"),
    pytest.param("brute force", ["extend", "--set", HUGE_SET, "--k", HUGE_K,
                                 "--strategy", "brute", "--max-m", "1000"], 3, b"",
                 id="huge-elements-brute"),
    pytest.param("2-adic scan", ["extend", "--set", "2,6,14", "--k", "-3",
                                 "--max-modulus", CAP], 4, b"", id="cap-2^200-bounded"),
    pytest.param("2-adic scan", ["extend", "--set", "7,8,31", "--k", "8",
                                 "--max-modulus", CAP], 4, b"", id="cap-2^200-2-adic-root"),
    pytest.param("brute force", ["extend", "--set", "1000000000000,1000000000002,4000000000004",
                                 "--k", "1", "--strategy", "brute", "--max-m", "10000"], 4, b"",
                 id="elements-above-max-m"),
    pytest.param("factoring", ["extend", "--set", f"{P},{P + 2},{4 * P + 4}", "--k", "1"], 2,
                 b"error: cannot factor ", id="large-prime-in-N"),
    pytest.param("unit equation", ["pell", "--d", "9999889", "--count", "1"], 0, b"",
                 id="7668-digit-unit"),
    pytest.param("Pell walk", ["extend", "--set", "1792,21248,35328", "--k", "-327680",
                               "--bound-index", "15"], 4, b"", id="scaled-bounded-walk"),
]


def _limit_address_space():
    # set in the child only
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


@pytest.mark.parametrize("layer,argv,code,stderr", ROWS)
def test_row_exits_with_its_code_within_budget(layer, argv, code, stderr):
    # a run past the time budget raises TimeoutExpired
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "dioph", *argv], capture_output=True, env=env,
                          timeout=SECONDS, preexec_fn=_limit_address_space)
    assert proc.returncode == code, (layer, proc.stderr[-500:])
    assert proc.stderr.startswith(stderr) and b"Traceback" not in proc.stderr
