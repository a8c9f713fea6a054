"""Start-up cost: numpy and the process pool load on first use, and no
command loads scipy.

Each command runs in a fresh interpreter, so the modules it leaves in
sys.modules are the ones that it, and importing divrel, needed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from divrel.cli import main
from divrel.records import BOUNDS

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs main(argv) and prints one JSON line: the exit code, what main wrote on
# stdout, and whether numpy, concurrent.futures and scipy were loaded
# afterwards.
RUN_MAIN = """
import io, json, sys
from contextlib import redirect_stdout
from divrel.cli import main
out = io.StringIO()
with redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), "numpy" in sys.modules,
                  "concurrent.futures" in sys.modules, "scipy" in sys.modules]))
"""

NUMPY_FREE = [
    ["factor", "--n", "735134400"],
    ["kappa", "--n", "360", "--j", "3"],
    ["divisors", "--n", "360"],
    ["delta-hooley", "--n", "360"],
    ["residues", "--n", "360", "--q", "7"],
    ["exact-e", "--n", "30", "--j", "1", "--k", "1"],
    ["split-thm4", "--n", "1524096000", "--q", "11"],
    ["analytic", "eval", "--fn", "xi", "--alpha", "0.2", "--x", "3"],
    ["analytic", "delta-j", "--j", "2"],
    ["analytic", "tail"],
    ["triples", "--n", "360"],  # tau 24: the row walk builds the sum map
    ["map", "build", "--kind", "sum", "--n", "360"],
    ["map", "check", "--kind", "midpoint-floor", "--n", "510510"],  # tau 128: the row walk
    ["map", "check", "--kind", "midpoint-exact", "--n", "510510"],  # filters that row walk's table
    ["energy", "--n", "360"],  # tau 24: the pair sums are counted in Python ints
    # every sweepable bound id; each n <= 200 has tau <= 18, and the
    # squarefree ones tau <= 8
    ["sweep", "--bounds", ",".join(b for b, spec in BOUNDS.items() if spec.sweepable),
     "--n-lo", "1", "--n-hi", "200"],
]


def fresh_python(code, *argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=" ".join)
def test_command_starts_without_numpy_or_the_pool(capsys, argv):
    code, out, numpy_loaded, futures_loaded, scipy_loaded = fresh_python(RUN_MAIN, *argv)
    assert (numpy_loaded, futures_loaded, scipy_loaded) == (False, False, False)
    assert code == main(argv)
    assert out == capsys.readouterr().out


def test_import_divrel_loads_neither_numpy_nor_the_pool():
    loaded = fresh_python(
        "import json, sys, divrel; "
        "print(json.dumps(['numpy' in sys.modules, 'concurrent.futures' in sys.modules]))"
    )
    assert loaded == [False, False]


def test_pair_sum_command_loads_numpy(capsys):
    # the check above would pass vacuously if the probe could not see numpy
    # (tau 240: the histogram is counted by numpy)
    code, out, numpy_loaded, _, _ = fresh_python(RUN_MAIN, "energy", "--n", "720720")
    assert numpy_loaded
    assert (code, out) == (main(["energy", "--n", "720720"]), capsys.readouterr().out)


def test_optimize_loads_numpy_but_not_scipy(capsys):
    # the Nelder-Mead polish is divrel's own; only its grid scan needs numpy
    argv = ["analytic", "optimize", "--vopt", "64", "--vcertify", "64"]
    code, out, numpy_loaded, _, scipy_loaded = fresh_python(RUN_MAIN, *argv)
    assert (numpy_loaded, scipy_loaded) == (True, False)
    assert (code, out) == (main(argv), capsys.readouterr().out)


SWEEP = ["sweep", "--bounds", "thm1a", "--n-lo", "1", "--n-hi", "20"]

# Runs SWEEP --workers 2 with a stand-in pool that maps in-process and
# records, when it is made, whether numpy is already loaded.
RUN_POOLED_SWEEP = """
import concurrent.futures, io, json, sys
from contextlib import redirect_stdout
from divrel.cli import main
seen = []
class Pool:
    def __init__(self, max_workers):
        seen.append("numpy" in sys.modules)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def map(self, fn, tasks):
        return map(fn, tasks)
concurrent.futures.ProcessPoolExecutor = Pool
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:] + ["--workers", "2"])
print(json.dumps([code, seen]))
"""


def test_sweep_loads_numpy_before_the_pool_forks():
    # forked workers inherit the parent's modules, so numpy is imported
    # once in the parent rather than once in every worker
    code, _, numpy_loaded, _, _ = fresh_python(RUN_MAIN, *SWEEP)
    assert (code, numpy_loaded) == (0, False)  # the range itself needs no numpy
    assert fresh_python(RUN_POOLED_SWEEP, *SWEEP) == [0, [True]]
