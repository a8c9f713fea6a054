"""Start-up cost: numpy and the process pool load on first use, no command
loads scipy, and each command loads only the divrel modules it runs.

Each command runs in a fresh interpreter, so the modules it leaves in
sys.modules are the ones that it, and importing divrel, needed.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divrel
from divrel.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs main(argv) and prints one JSON line: the exit code, what main wrote on
# stdout, whether numpy, concurrent.futures and scipy were loaded afterwards,
# and the divrel modules that were.
RUN_MAIN = """
import io, json, sys
from contextlib import redirect_stdout
from divrel.cli import main
out = io.StringIO()
with redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), "numpy" in sys.modules,
                  "concurrent.futures" in sys.modules, "scipy" in sys.modules,
                  sorted(m for m in sys.modules if m.split(".")[0] == "divrel")]))
"""

# Every sweepable bound id, written out so that a registry that lost one
# cannot shrink the sweep below.
SWEEPABLE = ("thm1a", "thm1b", "thm2a", "thm2b", "c2", "corollary2", "corollary1", "eq4.1",
             "eq4.2", "thm3a", "thm3b", "lemma6", "corollary3")

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
    ["sweep", "--bounds", ",".join(SWEEPABLE), "--n-lo", "1", "--n-hi", "200"],
]

# The modules every command loads: the package, the command line, and what
# parsing n and factoring it need.
CORE = ["divrel", "divrel.cli", "divrel.errors", "divrel.factorcore", "divrel.records"]
# command -> the divrel modules it must leave unloaded.  The point queries on
# n load nothing else; the relation and map commands load no analytic; the
# analytic commands load no relation or map module.
UNLOADED = {
    **dict.fromkeys(("factor", "kappa", "divisors"),
                    {"divrel.analytic", "divrel.regmaps", "divrel.relations"}),
    **dict.fromkeys(("triples", "energy", "delta-hooley", "residues", "map", "exact-e"),
                    {"divrel.analytic"}),
    **dict.fromkeys(("analytic", "split-thm4"), {"divrel.regmaps", "divrel.relations"}),
    "sweep": set(),
}


def fresh_python(code, *argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=" ".join)
def test_command_starts_without_numpy_or_the_pool(capsys, argv):
    code, out, numpy_loaded, futures_loaded, scipy_loaded, modules = fresh_python(RUN_MAIN, *argv)
    assert (numpy_loaded, futures_loaded, scipy_loaded) == (False, False, False)
    assert set(CORE) <= set(modules) and not set(modules) & UNLOADED[argv[0]]
    if argv[0] in ("factor", "kappa", "divisors"):
        assert modules == CORE
    assert code == main(argv)
    assert out == capsys.readouterr().out


def test_import_divrel_loads_neither_numpy_nor_the_pool():
    # nor any divrel module: each public name loads its module on first use
    loaded = fresh_python(
        "import json, sys, divrel; "
        "print(json.dumps(['numpy' in sys.modules, 'concurrent.futures' in sys.modules, "
        "[m for m in sys.modules if m.startswith('divrel')]]))"
    )
    assert loaded == [False, False, ["divrel"]]


def test_registry_loads_every_bound():
    # in a fresh interpreter nothing has imported the evaluator modules yet
    specs = fresh_python(
        "import json; from divrel.records import BOUNDS, registry; n = len(BOUNDS); "
        "print(json.dumps([n, {b: s.sweepable for b, s in registry().items()}]))"
    )
    assert specs[0] == 0 and len(specs[1]) == 18
    assert tuple(b for b, sweepable in specs[1].items() if sweepable) == SWEEPABLE


def test_records_of_unloaded_bounds_know_whether_they_are_asserted():
    # a record made, or read back from a report, in a fresh interpreter looks
    # its bound up in the registry, which then loads the evaluator modules
    assert fresh_python(
        "import json; from divrel.cli import parse_records_json; "
        "rows = parse_records_json(json.dumps([{'bound_id': b, 'n': 6, 'lhs': 1, "
        "'log_rhs': 0.0, 'margin': 0.0, 'pass': True, 'params': {}} for b in ('thm3a', 'thm1a')])); "
        "print(json.dumps([r.asserted for r in rows]))"
    ) == [False, True]
    assert fresh_python(
        "import json; from divrel import make_record; "
        "print(json.dumps([make_record(b, 6, 5, 1.0).passed for b in ('corollary1', 'lemma6')]))"
    ) == [False, True]


# Every public name of divrel and the module that defines it.
EXPORTS = {
    "analytic": "ALPHA_STAR DELTA2_CONJECTURED R_STAR AnalyticParams SplitResult XiCertificate "
                "a_mean beta_for delta_j ell_alpha f_alpha h_value lemma45_scan lemma7_order "
                "optimize_constants pair_exponent_gain s_bounds standard_params tail_check "
                "thm4_split u_weight verify_xi_range xi",
    "errors": "DomainError ResourceLimitError",
    "factorcore": "ArithStats DivisorContext Factorization arith_stats coprime_tuples divisors "
                  "factor kappa",
    "records": "DELTA2 BoundCheckRecord make_record",
    "regmaps": "BUILTIN_KINDS MapTable RegularityReport bound_check build_builtin "
               "builtin_midpoint_map builtin_successor_map builtin_sum_map check_regularity "
               "exact_E f_value map_from_json map_to_json map_violations",
    "relations": "C_EXP ENERGY_BASE ENERGY_SPLIT_ETA SHIFTED_TRIPLE_BASE EnergyDecomposition "
                 "ResidueProfile additive_energy count_sum_triples energy_decomposition "
                 "hooley_delta inequality_report residue_profile",
}


def test_every_public_name_is_its_modules_object():
    names = {name: module for module, names in EXPORTS.items() for name in names.split()}
    assert sorted(divrel.__all__) == sorted(names)
    for name, module in names.items():
        assert getattr(divrel, name) is getattr(importlib.import_module(f"divrel.{module}"), name)
        assert name in dir(divrel)
    star = {}
    exec("from divrel import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(names)
    with pytest.raises(AttributeError):
        divrel.no_such_name  # noqa: B018


def test_a_rebound_name_is_what_divrel_returns():
    # a tracer replaces a module's binding and restores it; divrel reads the
    # binding on every access, so it keeps no copy of either
    from divrel import relations

    original = relations.additive_energy

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "additive_energy", wrapper)
        assert divrel.additive_energy is wrapper
    assert divrel.additive_energy is original
    assert "additive_energy" not in vars(divrel)


def test_pair_sum_command_loads_numpy(capsys):
    # the check above would pass vacuously if the probe could not see numpy
    # (tau 240: the histogram is counted by numpy)
    code, out, numpy_loaded, *_ = fresh_python(RUN_MAIN, "energy", "--n", "720720")
    assert numpy_loaded
    assert (code, out) == (main(["energy", "--n", "720720"]), capsys.readouterr().out)


def test_optimize_loads_numpy_but_not_scipy(capsys):
    # the Nelder-Mead polish is divrel's own; only its grid scan needs numpy
    argv = ["analytic", "optimize", "--vopt", "64", "--vcertify", "64"]
    code, out, numpy_loaded, _, scipy_loaded, _ = fresh_python(RUN_MAIN, *argv)
    assert (numpy_loaded, scipy_loaded) == (True, False)
    assert (code, out) == (main(argv), capsys.readouterr().out)


SWEEP = ["sweep", "--bounds", "thm1a", "--n-lo", "1", "--n-hi", "20"]

# Runs SWEEP --workers 2 with a stand-in pool that maps in-process and
# records, when it is made, whether numpy and every evaluator module are
# already loaded.
RUN_POOLED_SWEEP = """
import concurrent.futures, io, json, sys
from contextlib import redirect_stdout
from divrel.cli import main
seen = []
class Pool:
    def __init__(self, max_workers):
        seen.append("numpy" in sys.modules)
        seen.append(all("divrel." + m in sys.modules for m in ("analytic", "regmaps", "relations")))
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
    # forked workers inherit the parent's modules, so numpy and the
    # evaluator modules are imported once in the parent rather than once in
    # every worker
    code, _, numpy_loaded, *_ = fresh_python(RUN_MAIN, *SWEEP)
    assert (code, numpy_loaded) == (0, False)  # the range itself needs no numpy
    assert fresh_python(RUN_POOLED_SWEEP, *SWEEP) == [0, [True, True]]
