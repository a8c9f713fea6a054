"""Fuzzed command lines and map tables end in a documented exit code.

Every subcommand gets huge, zero, negative, NaN and malformed option values;
`map check` and `map bound` also get drawn map table files.  Whatever the
input, the exit code is 0, 1, 2 or 3, and stderr holds neither an internal
error (exit 4) nor a traceback.  Every kernel budget is patched down, so an
input past a budget is refused in a few ms and each example stays cheap; the
pool of `sweep --workers` runs its chunks in-process.
"""

import concurrent.futures
import importlib
import io
import json
import math
import pkgutil
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import divrel
from divrel import analytic, cli, factorcore, regmaps, relations
from divrel.records import registry

BUDGETS = (
    (factorcore, "_MAX_DIVISORS", 64),
    (factorcore, "_MAX_PAIRS", 4096),
    (factorcore, "_MAX_TUPLE_COORDS", 8192),
    (factorcore, "_RHO_MAX_WORK", 200),
    (factorcore, "_MR_MAX_WORK", 200),
    (relations, "_SHIFT_MAX_PAIRS", 20_000),
    (relations, "_RESIDUE_MAX_WORK", 4096),
    (regmaps, "_EXACT_E_MAX_WORK", 300),
    (regmaps, "_EXACT_E_MAX_NODES", 2000),
    (analytic, "_XI_MAX_POINTS", 256),
)

# Large values of every kind: past int64 and float64, semiprimes rho has to
# split, highly composite n, and arities and moduli big enough to exhaust
# str()'s digit limit or memory where no budget stops them.
HUGE = (
    10**15 + 1, 2**61 - 1, 2**89 - 1, 20_001, 300_000_001, 10**18, 2**64 + 1,
    1000000007 * 1000000009, 735134400, 6469693230, 288807105787200, 10**40,
    math.prod(sympy.primerange(72)), 10**400,
)
INT = st.one_of(st.integers(-2, 40), st.sampled_from(HUGE)).map(str)
JUNK = st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "0.5", "x", ""])
REAL = st.one_of(
    st.floats(-2, 2), st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(HUGE)
).map(str)
MAP_BOUNDS = sorted(b for b, spec in registry().items() if spec.family == "map")
SWEEP_BOUNDS = sorted(b for b, spec in registry().items() if spec.sweepable)


def choice(values):
    return st.sampled_from([*values, "nope"])


# subcommand -> (flag, values, required); a flag with values None is a switch
COMMANDS = {
    "factor": [("--n", INT, True)],
    "kappa": [("--n", INT, True), ("--j", INT, True)],
    "divisors": [("--n", INT, True)],
    "triples": [("--n", INT, True)],
    "energy": [("--n", INT, True), ("--decompose", None, False)],
    "delta-hooley": [("--n", INT, True)],
    "residues": [("--n", INT, True), ("--q", INT, True)],
    "map build": [("--kind", choice(regmaps.BUILTIN_KINDS), True), ("--n", INT, True)],
    "map check": [("--kind", choice(regmaps.BUILTIN_KINDS), False), ("--n", INT, False)],
    "map bound": [("--kind", choice(regmaps.BUILTIN_KINDS), False), ("--n", INT, False),
                  ("--bound", choice(MAP_BOUNDS), True)],
    "exact-e": [("--n", INT, True), ("--j", INT, True), ("--k", INT, True)],
    "analytic eval": [("--fn", choice(("f", "ell", "xi")), True), ("--alpha", REAL, True),
                      ("--x", REAL, True), ("--j", INT, False), ("--r", REAL, False)],
    "analytic delta-j": [("--j", INT, True)],
    "analytic verify-xi": [("--alpha", REAL, True), ("--r", REAL, True), ("--delta", REAL, True),
                           ("--vmax", INT, True)],
    "analytic tail": [("--alpha", REAL, False), ("--r", REAL, False),
                      ("--v", st.lists(INT, min_size=1, max_size=3).map(" ".join), False)],
    "analytic optimize": [("--vopt", INT, False), ("--vcertify", INT, False)],
    "analytic lemmas": [],
    "sweep": [("--bounds", st.lists(choice(SWEEP_BOUNDS), min_size=1, max_size=3).map(",".join),
               True),
              ("--squarefree-only", None, False), ("--format", choice(("csv", "json")), False),
              ("--workers", INT, False)],
    "split-thm4": [("--n", INT, True), ("--q", INT, True)],
}


class InProcessPool:
    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture(scope="module", autouse=True)
def small_budgets():
    """Patch every budget down; yields each budget's own value by name."""
    defaults = {(module.__name__, name): getattr(module, name) for module, name, _ in BUDGETS}
    with pytest.MonkeyPatch.context() as patch:
        for module, name, value in BUDGETS:
            patch.setattr(module, name, value)
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        yield defaults


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_int(text):
    """An int as the README writes it: a product of powers, like 2·10^6."""
    return math.prod(int(b) ** int(e or 1) for b, _, e in (f.partition("^") for f in text.split("·")))


def test_every_budget_is_patched_and_documented(small_budgets):
    # a budget is a module-level int of the package whose name holds MAX
    found = {
        (module.__name__, name)
        for info in pkgutil.iter_modules(divrel.__path__)
        for module in [importlib.import_module(f"divrel.{info.name}")]
        for name, value in vars(module).items()
        if "MAX" in name and type(value) is int
    }
    assert found == small_budgets.keys()
    readme = README.read_text()
    rows = re.findall(r"^\|.*`(\w+)\.(_\w+)` = ([\d·^]+)", readme, re.MULTILINE)
    documented = {(f"divrel.{module}", name, readme_int(value)) for module, name, value in rows}
    assert documented == {(*key, value) for key, value in small_budgets.items()}


def test_readme_names_only_what_the_code_has(small_budgets):
    # every `<module>.<name>` the README cites exists in that divrel module,
    # and every `<module>._NAME` = <value> outside the budget table (checked
    # above) is the code's value, so a README left describing a deleted or
    # changed name fails here
    readme = README.read_text()
    modules = {info.name for info in pkgutil.iter_modules(divrel.__path__)}
    cited = {
        (module, name)
        for module, name in re.findall(r"`(?:divrel\.)?(\w+)\.(\w+)", readme)
        if module in modules
    }
    missing = {
        (module, name) for module, name in cited
        if not hasattr(importlib.import_module(f"divrel.{module}"), name)
    }
    assert len(cited) >= 20 and not missing, missing
    prose = "\n".join(line for line in readme.splitlines() if not line.startswith("|"))
    values = re.findall(r"`(\w+)\.(_\w+)` = ([\d·^]+)", prose)
    assert len(values) >= 2
    for module, name, value in values:
        # the budgets are patched down in this module; their own values are kept
        own = small_budgets.get((f"divrel.{module}", name))
        own = getattr(importlib.import_module(f"divrel.{module}"), name) if own is None else own
        assert own == readme_int(value), (module, name, value)


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "error: internal" not in err and "Traceback" not in err, (argv, err)
    # a NaN is no answer; an infinity can be (an empty table's log_rhs is -inf)
    if code == 0:
        assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE), (argv, out.getvalue())


def draw_argv(draw, command):
    argv = command.split()
    for flag, values, required in COMMANDS[command]:
        # a required flag is now and then left out, and a value now and then
        # malformed; both are usage errors that argparse stops, so most
        # examples reach the kernels
        if not draw(st.integers(0, 19) if required else st.booleans()):
            continue
        argv.append(flag)
        if values is not None:
            argv.extend(draw(JUNK if draw(st.integers(0, 7)) == 0 else values).split(" "))
    if command == "sweep":
        # a sweep does work for each n it is asked for, so its ranges stay a
        # few n long; their ends are still of any size or sign
        lo = draw(st.one_of(st.integers(-2, 40), st.sampled_from(HUGE)))
        argv += ["--n-lo", str(lo), "--n-hi", str(lo + draw(st.integers(-1, 4)))]
    return argv


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(command, data):
    assert_clean_exit(data.draw(st.composite(draw_argv)(command), label="argv"))


JSON_INT = st.one_of(st.integers(-2, 70), st.sampled_from(HUGE))
JSON_ANY = st.one_of(
    JSON_INT, st.sampled_from([None, True, 1.5, math.nan, math.inf, "6", [], {}])
)
ROW = st.lists(st.one_of(st.integers(1, 30), JSON_ANY), max_size=4)
TABLE = st.fixed_dictionaries(
    {},
    optional={
        "n": st.one_of(st.integers(1, 60), JSON_ANY),
        "j": st.one_of(st.integers(1, 3), JSON_ANY),
        "entries": st.one_of(st.lists(ROW, max_size=8), JSON_ANY),
    },
)
MAP_TEXT = st.one_of(
    TABLE.map(json.dumps),
    st.sampled_from([
        "", "{", "[1, 2]", "null",
        '{"n": 1' + "0" * 5000 + ', "j": 1, "entries": []}',  # past the int digit limit
        "[" * 10**5 + "]" * 10**5,  # past the parser's recursion limit
    ]),
)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.json"


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    text=MAP_TEXT,
    cmd=st.sampled_from([["check"]] + [["bound", "--bound", b] for b in MAP_BOUNDS]),
)
def test_fuzzed_map_tables_exit_cleanly(table_path, text, cmd):
    table_path.write_text(text)
    assert_clean_exit(["map", *cmd, "--file", str(table_path)])


# n of a few small primes and at most one large one, which factoring proves
# prime within the patched budgets; 2^61 - 1 and 2^89 - 1 put the pair sums
# past int64, where the numpy kernels hold Python ints
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
LARGE_PRIMES = (1, 10**9 + 7, 2**61 - 1, 2**89 - 1)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    powers=st.dictionaries(st.sampled_from(SMALL_PRIMES), st.integers(1, 3), max_size=3),
    large=st.sampled_from(LARGE_PRIMES),
)
def test_relation_kernels_agree_on_both_paths(powers, large):
    # relations._NUMPY_MIN_WORK at 0 sends every kernel to numpy, and at
    # 10^9 to Python ints; tau <= 32 keeps corollary3 within its budget
    n = large * math.prod(p**v for p, v in powers.items())
    assume(n > 1 and factorcore.DivisorContext(n).stats.tau <= 32)
    results = []
    for work in (0, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(relations, "_NUMPY_MIN_WORK", work)
            ctx = factorcore.DivisorContext(n)
            rows = [relations.relation_rows(ctx, b)
                    for b in ("thm3a", "thm3b", "eq4.1", "eq4.2", "corollary3")]
            results.append((relations.additive_energy(n, ctx), rows))
    assert results[0] == results[1], n
