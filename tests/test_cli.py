"""Command-line surface: outputs, exit codes, report formats."""

import concurrent.futures
import dataclasses
import decimal
import hashlib
import json
import math
import random
from collections import Counter

import numpy as np
import pytest
import sympy

from divrel import (
    BUILTIN_KINDS,
    additive_energy,
    bound_check,
    build_builtin,
    cli,
    factor,
    factorcore,
    inequality_report,
    make_record,
    regmaps,
    relations,
)
from divrel.cli import format_records_csv, format_records_json, main, parse_records_json
from divrel.records import BOUNDS, BoundSpec, registry

# The tests' own copy of the sweepable bound ids, so the oracles below do not
# share the registry they check.
RELATION_BOUNDS = ("corollary1", "eq4.1", "eq4.2", "thm3a", "thm3b", "lemma6", "corollary3")
MAP_BOUNDS = ("thm1a", "thm1b", "thm2a", "thm2b", "c2", "corollary2")
ALL_BOUNDS = ",".join(RELATION_BOUNDS + MAP_BOUNDS)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kappa_command(capsys):
    code, out, _ = run(capsys, "kappa", "--n", "12", "--j", "2")
    assert code == 0 and out.strip() == "15"
    # past str()'s 4300 digits: (4j+1)(2j+1)(j+1)^4 at 720720 = 2^4 3^2 5 7 11 13
    j = 10**1000
    code, out, err = run(capsys, "kappa", "--n", "720720", "--j", str(j))
    assert (code, err) == (0, "")
    assert decimal.Decimal(out) == decimal.Decimal((4 * j + 1) * (2 * j + 1) * (j + 1) ** 4)


def test_factor_command(capsys):
    code, out, _ = run(capsys, "factor", "--n", "720")
    assert code == 0 and out.strip() == "2^4 * 3^2 * 5"
    code, out, _ = run(capsys, "factor", "--n", "1")
    assert code == 0 and out.strip() == "1"


def test_point_queries(capsys):
    assert run(capsys, "divisors", "--n", "12")[1].strip() == "1 2 3 4 6 12"
    assert run(capsys, "triples", "--n", "6")[1].strip() == "4"
    assert run(capsys, "energy", "--n", "6")[1].strip() == "32"
    assert run(capsys, "delta-hooley", "--n", "12")[1].strip() == "3"
    # its divisors 781379079653017 < 2124008553358849 lie in one e-window
    # that 30 digits of e cannot decide (80-digit mpmath: the count is 2)
    code, out, _ = run(capsys, "delta-hooley", "--n", "1659655848598673481608806497433")
    assert code == 0 and out == "2\n"


def test_energy_decompose(capsys):
    code, out, _ = run(capsys, "energy", "--n", "2", "--decompose")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total 6"


# SHA-256 of the stdout of point queries that read the energy cells, on both
# sides of the int64 guard: 15 * (2^61 - 1) is squarefree and takes the
# object-dtype columns.  A change to any cell, total or row changes it.
CELL_OUTPUT_SHA256 = {
    ("energy", 1): "357b77fc45ed5b2de3037c67e0aadc8f8eb44a7d4cc519aa11a55288d2e77564",
    ("energy", 12): "b665281d6333e5c501f7653e89ab5c652c14aef6abca7e19b84803cbb3e2a294",
    ("energy", 9699690): "606db7dc2264888065ef788c704d2927df7b59cfeaeda730c171336ee7f369e4",
    ("energy", 735134400): "7a7c0e8dad3840f9d1ae1ca2f7d0c517da064fa84b35d45ee7abf8d341658a3b",
    # 2^4 3^2 5 7 11 13 10000019, tau 480: 2n > 2^32, so m takes 13 digits
    ("energy", 7207213693680): "3deb5f18042504989c24aa9601484b26f30944ffe62df3974017e3e4f80dca7f",
    ("energy", 15 * (2**61 - 1)): "774b62775963f2bbf590068b590dbbd88f243cb14f15efd853d5862c461641f5",
    ("sweep", 6469693230): "fd744e3345edf828cf71d67c375c77b49f797b931c0bb02116f3bcca430bb46e",
    ("sweep", 15 * (2**61 - 1)): "caf2b1558919b02aa1c32f4748b03531a062c9f41bc0046d7f3912913ebf5a5e",
}


@pytest.mark.parametrize("cmd, n", list(CELL_OUTPUT_SHA256), ids=lambda v: str(v))
def test_cell_outputs_are_pinned(capsys, cmd, n):
    if cmd == "energy":
        argv = ["energy", "--n", str(n), "--decompose"]
    else:
        argv = ["sweep", "--bounds", "eq4.1,eq4.2", "--n-lo", str(n), "--n-hi", str(n)]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CELL_OUTPUT_SHA256[cmd, n]


def join_lines(*columns) -> str:
    """f-string oracle for cli._decimal_lines."""
    return "".join(" ".join(f"{v}" for v in row) + "\n" for row in zip(*columns))


def test_decimal_lines_match_the_fstring_join():
    edges = [0, 1, 9, 10, 99, 100, 2**62 - 1, 2**63 - 1]
    edges += [x for k in range(3, 19) for x in (10**k - 1, 10**k)]
    rng = random.Random(5)
    many = [rng.randrange(10 ** rng.randrange(1, 19)) for _ in range(3000)] + edges
    cases = [[edges], [edges, edges[::-1], edges[1:] + edges[:1]], [[7], [10**18], [1]]]
    cases += [[many, sorted(many), many[::-1]], [[1]] * 3, [[10**18 - 1]]]
    # first columns in runs, as the energy cells' e comes: one run, runs of
    # length 1, and sorted columns with repeats, with runs on both sides of
    # the one-run-per-_RUN_ROWS-rows crossover
    for rows in (cli._RUN_ROWS, 40 * cli._RUN_ROWS):
        rest = [rng.randrange(10**12) for _ in range(rows)]
        for runs in (1, rows // cli._RUN_ROWS, rows // cli._RUN_ROWS + 1, rows):
            values = rng.sample(sorted(set(many)), runs)
            first = sorted(values + rng.choices(values, k=rows - runs))
            cases.append([first, rest, first[::-1]])
    for columns in cases:
        arrays = [np.array(c, dtype=np.int64) for c in columns]
        assert cli._decimal_lines(*arrays) == join_lines(*columns)
    # object columns (here mixed with int64, as e, m and u are past the
    # int64 guard) hold exact ints of any size
    big = [15 * (2**61 - 1), 2**64, 10**30 + 7, 1]
    arrays = [np.array(big, dtype=object), np.array(big[::-1], dtype=object), np.arange(1, 5)]
    assert cli._decimal_lines(*arrays) == join_lines(big, big[::-1], [1, 2, 3, 4])


def test_residues_command(capsys):
    code, out, _ = run(capsys, "residues", "--n", "12", "--q", "5")
    payload = json.loads(out)
    assert code == 0 and payload["h"] == 10


def test_residues_writes_strict_json(capsys):
    # eta = log q / log n is infinite at n = 1; RFC 8259 JSON has no
    # Infinity, so it is written as null
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    code, out, _ = run(capsys, "residues", "--n", "1", "--q", "2")
    payload = json.loads(out, parse_constant=refuse)
    assert code == 0 and payload == {"n": 1, "q": 2, "h": 1, "eta": None, "counts": {"1": 1}}


def test_map_commands(capsys, tmp_path):
    path = tmp_path / "table.json"
    code, out, _ = run(capsys, "map", "build", "--kind", "sum", "--n", "6", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "map", "check", "--file", str(path))
    report = json.loads(out)
    assert code == 0
    assert report["k"] == 1 and report["k_strong"] == 2 and report["size"] == 3
    code, out, _ = run(capsys, "map", "bound", "--file", str(path), "--bound", "thm1b")
    assert code == 0
    assert out.splitlines()[1].startswith("6,thm1b,3,")
    assert out.splitlines()[1].endswith(",true,j=2;k=1")  # no map= param


def test_map_commands_walk_and_count_on_indices_once(capsys, monkeypatch, tmp_path):
    # map check and map bound walk their built-in table once and count it on
    # its columns once; the same table read with --file is counted in dicts
    # and gives the same bytes
    walks, counts = [], []
    numpy_walk, index_regularity = regmaps._numpy_walk, regmaps._index_regularity
    monkeypatch.setattr(regmaps, "_numpy_walk", lambda ctx, kind: walks.append(ctx.n) or numpy_walk(ctx, kind))
    monkeypatch.setattr(regmaps, "_index_regularity", lambda *cols: counts.append(1) or index_regularity(*cols))
    path = tmp_path / "table.json"
    run(capsys, "map", "build", "--kind", "midpoint-floor", "--n", "735134400", "--out", str(path))
    for cmd in (["check"], ["bound", "--bound", "thm1a"]):
        del walks[:], counts[:]
        code, out, err = run(capsys, "map", *cmd, "--kind", "midpoint-floor", "--n", "735134400")
        assert (code, err) == (0, "") and out
        assert (walks, counts) == ([735134400], [1]), cmd
        del walks[:], counts[:]
        assert run(capsys, "map", *cmd, "--file", str(path)) == (code, out, err), cmd
        assert (walks, counts) == ([], []), cmd


def test_map_commands_refuse_bad_tables(capsys, tmp_path):
    # entries that are not a list, JSON booleans in place of integers, two
    # rows for one tuple, and for map bound a table breaking the domain
    # contract (value 5 does not divide 6), are domain errors, never bound
    # verdicts
    bad_json = tmp_path / "bad_json.json"
    for text in (
        '{"n": 6, "j": 2, "entries": 5}',
        '{"n": true, "j": true, "entries": []}',
        '{"n": 6, "j": 1, "entries": [[false, 1]]}',
        '{"n": 6, "j": 1, "entries": [[2, 1], [2, 2]]}',
        '{"n": 1' + "0" * 5000 + ', "j": 1, "entries": []}',  # past the int digit limit
        "[" * 10**5 + "]" * 10**5,  # past the parser's recursion limit
    ):
        bad_json.write_text(text)
        for cmd in (["check"], ["bound", "--bound", "thm1a"]):
            code, out, err = run(capsys, "map", *cmd, "--file", str(bad_json))
            assert code == 2 and out == ""
            assert err.startswith("error: domain: bad map table") and "Traceback" not in err
    bad_table = tmp_path / "bad_table.json"
    bad_table.write_text('{"n": 6, "j": 2, "entries": [[2, 2, 5], [4, 3, 1]]}')
    code, out, err = run(capsys, "map", "bound", "--file", str(bad_table), "--bound", "thm1a")
    assert code == 2 and out == ""
    assert err == "error: domain: thm1a: value 5 at (2, 2) does not divide 6\n"
    # map check reports the broken contract instead; exit 1 is only for a
    # failed asserted bound
    code, out, err = run(capsys, "map", "check", "--file", str(bad_table))
    assert code == 0 and err == ""
    assert json.loads(out)["domain_regular"] is False


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "_cmd_factor", broken)
    code, out, err = run(capsys, "factor", "--n", "6")
    assert code == 4 and out == ""
    assert err == "error: internal: ZeroDivisionError: boom\n"


def test_exact_e_command(capsys):
    code, out, _ = run(capsys, "exact-e", "--n", "6", "--j", "1", "--k", "1")
    assert code == 0 and out.strip() == "3"
    # charged 4 * kappa_3(64) = 76 of the 1000 exact_E admits
    assert run(capsys, "exact-e", "--n", "64", "--j", "2", "--k", "1") == (0, "3\n", "")


def test_analytic_commands(capsys):
    code, out, _ = run(capsys, "analytic", "delta-j", "--j", "1")
    assert code == 0 and out.strip().startswith("0.08170416")
    code, out, _ = run(
        capsys, "analytic", "eval", "--fn", "f", "--alpha", "0.2288541994", "--x", "2"
    )
    assert code == 0 and out.strip().startswith("0.049517")


def test_analytic_tail_lemmas_and_optimize(capsys):
    code, out, err = run(capsys, "analytic", "tail")  # default --v 10^6 10^7 10^9
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 3)
    for line, v in zip(lines, (10**6, 10**7, 10**9)):
        fields = dict(tok.split("=") for tok in line.split())
        assert fields.pop("v") == str(v)
        assert set(fields) == {"numerator_margin", "arg2_margin", "ratio_margin"}
        assert all(float(x) > 0 for x in fields.values()), line
    code, out, err = run(capsys, "analytic", "lemmas")
    assert (code, err) == (0, "")
    assert out == "ratio_monotone=True domination_ok=True odd_power_sum_ok=True\n"
    code, out, err = run(capsys, "analytic", "optimize", "--vopt", "64", "--vcertify", "64")
    assert (code, err) == (0, "")
    vals = {key: float(x) for key, x in (tok.split("=") for tok in out.split())}
    assert set(vals) == {"alpha", "r", "delta"}
    assert vals["alpha"] == pytest.approx(0.2288541994, abs=1e-6)
    assert vals["r"] == pytest.approx(0.692466598, abs=1e-6)
    assert vals["delta"] >= 0.045072


def test_verify_xi_exit_codes(capsys):
    code, out, _ = run(
        capsys, "analytic", "verify-xi", "--alpha", "0.2288541994",
        "--r", "0.692466598", "--delta", "0.045072", "--vmax", "1000",
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["argmin_v"] == 1 and cert["min_margin"] > 0
    code, _, _ = run(
        capsys, "analytic", "verify-xi", "--alpha", "0.2288541994",
        "--r", "0.692466598", "--delta", "0.04512", "--vmax", "10",
    )
    assert code == 1


def test_analytic_scans_refuse_bad_input(capsys):
    # out-of-domain certificate parameters and empty scans are domain errors;
    # exit 1 is only for a failed asserted bound
    verify = ["analytic", "verify-xi", "--r", "0.692466598", "--vmax", "30"]
    for argv in (
        verify + ["--alpha", "1.5", "--delta", "0.04512"],
        verify + ["--alpha", "0.999", "--delta", "0.04512"],
        verify + ["--alpha", "nan", "--delta", "0.04512"],
        verify + ["--alpha", "0.2288541994", "--delta", "nan"],
        ["analytic", "optimize", "--vopt", "0"],
        ["analytic", "optimize", "--vopt", "-5"],
        ["analytic", "optimize", "--vopt", "64", "--vcertify", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: domain:") and err.count("\n") == 1, argv


def test_split_thm4_command(capsys):
    code, out, _ = run(capsys, "split-thm4", "--n", "1524096000", "--q", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] * payload["b"] == 1524096000


def test_sweep_report_csv(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, _, _ = run(
        capsys, "sweep", "--bounds", "corollary1", "--n-hi", "8",
        "--format", "csv", "--out", str(path),
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,bound_id,lhs,log_rhs,margin,pass,params"
    assert lines[6].startswith("6,corollary1,4,2.710105663,1.323811302,true,")
    assert len(lines) == 9


# SHA-256 of the all-13-bound sweep report for n <= 200, per format.  A
# change to any row's bytes (a count, a log_rhs digit, a param) changes it.
ALL_BOUNDS_200_SHA256 = {
    "csv": "783c210adf0c48933785fbeb8611f90d5dea23edd7dd88b56e316879d302e498",
    "json": "da5575ab1ee373893c96f0678cab7ce173251cc9d63e8ce60992688ff016ae94",
}
# The same for the serial CSV report for n <= 3000.
ALL_BOUNDS_3000_CSV_SHA256 = "1e1f332bc7ec077226bf2a2cc58667140264a2202926db6d900d0172f40b7114"


def test_all_bounds_report_to_3000_is_pinned(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out, err = run(capsys, "sweep", "--bounds", ALL_BOUNDS, "--n-hi", "3000",
                         "--out", str(path))
    assert (code, out, err) == (1, "", "error: bound-violation: eq4.2 fails at n=2 (e=1;m=3)\n")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ALL_BOUNDS_3000_CSV_SHA256


def test_sweep_deterministic_and_parallel_identical(capsys, monkeypatch, tmp_path):
    # all 13 bound ids exit 1: the literal eq4.2 bound fails at every prime.
    # Each pool worker formats its own chunk; the parent joins the texts.
    # A sweep runs chunks of at most cli._SERIAL_CHUNK n; at 7 and at 1 n
    # the serial output is unchanged.
    def sweep(*args):
        path = tmp_path / "report"
        code, _, err = run(capsys, "sweep", *args, "--out", str(path))
        return code, err, path.read_bytes()

    def serial_in_chunks(*args):
        outs = []
        for size in (7, 1):
            monkeypatch.setattr(cli, "_SERIAL_CHUNK", size)
            outs.append(sweep(*args))
        monkeypatch.undo()
        assert outs[0] == outs[1]
        return outs[0]

    for bounds, n_hi, workers, code in (
        ("corollary1,thm2b", "40", "3", 0),
        (ALL_BOUNDS, "200", "2", 1),
    ):
        for fmt in ("csv", "json"):
            args = ["--bounds", bounds, "--n-hi", n_hi, "--format", fmt]
            first = sweep(*args)
            assert first[0] == code
            assert sweep(*args) == first == sweep(*args, "--workers", workers)
            assert serial_in_chunks(*args) == first
            if bounds == ALL_BOUNDS:
                assert hashlib.sha256(first[2]).hexdigest() == ALL_BOUNDS_200_SHA256[fmt]
    # one-n chunks: 48, 49 and 50 are not squarefree, so their bodies are empty
    for fmt in ("csv", "json"):
        args = ["--bounds", "corollary1,eq4.1", "--squarefree-only", "--n-lo", "48",
                "--n-hi", "51", "--format", fmt]
        serial = sweep(*args)
        assert serial[:2] == (0, "") and serial == sweep(*args, "--workers", "2")
        assert serial_in_chunks(*args) == serial
        if fmt == "json":
            assert hashlib.md5(serial[2]).hexdigest() == "956822571367a78542df2e9bcbe2b036"
    # the first failing asserted row sits in the last chunk
    args = ["--bounds", "eq4.2", "--n-lo", "24", "--n-hi", "29"]
    serial = sweep(*args)
    assert serial[:2] == (1, "error: bound-violation: eq4.2 fails at n=29 (e=1;m=30)\n")
    assert sweep(*args, "--workers", "2") == serial == serial_in_chunks(*args)
    # with failures in many chunks, the first chunk's is the one named
    args = ["--bounds", "eq4.2", "--n-lo", "2", "--n-hi", "29"]
    serial = sweep(*args)
    assert serial[:2] == (1, "error: bound-violation: eq4.2 fails at n=2 (e=1;m=3)\n")
    assert sweep(*args, "--workers", "2") == serial == serial_in_chunks(*args)


def test_report_does_not_depend_on_bounds_order(capsys, tmp_path):
    # the 13 ids in reverse order give the pinned n <= 200 reports byte for byte
    reverse = ",".join(reversed(ALL_BOUNDS.split(",")))
    path = tmp_path / "report"
    for fmt in ("csv", "json"):
        code, out, err = run(capsys, "sweep", "--bounds", reverse, "--n-hi", "200",
                             "--format", fmt, "--out", str(path))
        assert (code, out) == (1, "")
        assert err == "error: bound-violation: eq4.2 fails at n=2 (e=1;m=3)\n"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ALL_BOUNDS_200_SHA256[fmt]


def test_sweep_pool_is_capped_by_cpus_and_tasks(capsys, monkeypatch, tmp_path):
    # the pool starts all its workers at once, so --workers N must not fork
    # N processes; a stand-in pool records its size and maps in-process
    sizes, mapped = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            mapped.append(tasks)
            # what a worker sends back: report text, never records
            for body, violation in map(fn, tasks):
                assert type(body) is str and type(violation) in (str, type(None))
                yield body, violation

    # the sweep imports the pool class when it needs one, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    args = ["sweep", "--bounds", "corollary1,thm2b", "--n-lo", "1", "--format", "csv"]
    serial = tmp_path / "serial.csv"
    assert run(capsys, *args, "--n-hi", "40", "--out", str(serial))[0] == 0
    for cpus, n_hi, workers, size in (
        (3, "40", "1000", 3),  # 40 one-n tasks, 3 cpus
        (None, "40", "1000", 1),  # cpu count unknown
        (64, "5", "1000", 5),  # 5 one-n tasks
        (64, "40", "2", 2),
    ):
        monkeypatch.setattr(cli.os, "cpu_count", lambda count=cpus: count)
        path = tmp_path / f"w{workers}.csv"
        assert run(capsys, *args, "--n-hi", n_hi, "--workers", workers, "--out", str(path))[0] == 0
        assert sizes.pop() == size
        if n_hi == "40":
            assert path.read_bytes() == serial.read_bytes()
    # a chunk holds at most cli._SERIAL_CHUNK n, however wide the range:
    # not the quarter of a worker's share, 5 n
    monkeypatch.setattr(cli, "_SERIAL_CHUNK", 3)
    path = tmp_path / "capped.csv"
    assert run(capsys, *args, "--n-hi", "40", "--workers", "2", "--out", str(path))[0] == 0
    assert [hi - lo + 1 for lo, hi, *_ in mapped[-1]] == [3] * 13 + [1]
    assert path.read_bytes() == serial.read_bytes()


def test_bound_registry_declares_every_bound():
    bounds = registry()
    assert bounds is BOUNDS and len(bounds) == 18
    assert {b for b, spec in bounds.items() if spec.sweepable} == set(RELATION_BOUNDS + MAP_BOUNDS)
    assert {b for b, spec in bounds.items() if spec.family == "map"} == set(MAP_BOUNDS)
    assert {b for b, spec in bounds.items() if spec.asserted} == {
        "corollary1", "eq4.1", "eq4.2", "thm1a", "thm1b", "thm2a", "thm2b", "c2",
        "s_minus", "s_plus", "thm4_split_a", "thm4_split_b",
    }
    assert {b for b, spec in bounds.items() if spec.squarefree_only} == {
        "eq4.1", "eq4.2", "thm3a", "corollary3", "thm2a",
    }
    assert {b: spec.min_n for b, spec in bounds.items() if spec.min_n != 1} == {
        "thm3b": 2, "lemma6": 2, "thm4": 2, "corollary2": 2,
    }
    assert {b: spec.arity for b, spec in bounds.items() if spec.arity} == {"thm1b": 2}


def _fresh_records(n):
    """All 13 bound ids at n through the public calls, each on its own:
    the sweep's skip rules, but nothing shared between bound ids."""
    squarefree = all(v == 1 for _, v in factor(n).parts)
    out = []
    for bound_id in RELATION_BOUNDS + MAP_BOUNDS:
        if not squarefree and bound_id in ("eq4.1", "eq4.2", "thm3a", "corollary3", "thm2a"):
            continue
        if n < 2 and bound_id in ("thm3b", "lemma6", "corollary2"):
            continue
        if bound_id in RELATION_BOUNDS:
            out.extend(inequality_report(n, bound_id))
            continue
        for kind in BUILTIN_KINDS:
            table = build_builtin(kind, n)
            if bound_id == "thm1b" and table.j != 2:
                continue
            rec = bound_check(table, bound_id)
            out.append(rec._replace(params=rec.params + (("map", kind),)))
    return out


@pytest.mark.parametrize("lo,hi", [(1, 300), (720720, 720720), (2162160, 2162160)])
def test_sweep_matches_uncached_public_calls(capsys, tmp_path, lo, hi):
    # the sweep shares one DivisorContext per n across all bound ids; its
    # report must equal the one built from fresh public calls
    path = tmp_path / "sweep.csv"
    run(capsys, "sweep", "--bounds", ALL_BOUNDS, "--n-lo", str(lo), "--n-hi", str(hi),
        "--out", str(path))
    fresh = [rec for n in range(lo, hi + 1) for rec in _fresh_records(n)]
    fresh.sort(key=lambda r: (r.n, r.bound_id, r.params))
    assert path.read_text() == format_records_csv(fresh)


def test_one_n_sweep_computes_each_piece_once(capsys, monkeypatch):
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(regmaps, "build_builtin")
    counted(regmaps, "check_regularity")
    counted(factorcore, "factor")
    counted(factorcore, "divisors")
    counted(BoundSpec, "violation")
    counted(regmaps, "map_violations")
    # 30 is squarefree, so every bound id applies; each is domain-checked
    # once, and no built-in table, valid by construction, is checked again
    code, _, _ = run(capsys, "sweep", "--bounds", ALL_BOUNDS, "--n-lo", "30", "--n-hi", "30")
    assert code == 0
    assert calls == {
        "build_builtin": 4, "check_regularity": 4, "factor": 1, "divisors": 1, "violation": 13,
    }
    assert calls["map_violations"] == 0


def test_one_map_query_computes_each_piece_once(capsys, monkeypatch, tmp_path):
    # a built-in table is built, checked and counted on one context of n; a
    # table from a file is counted without listing n's divisors, and map
    # check does not factor n
    path = tmp_path / "table.json"
    run(capsys, "map", "build", "--kind", "midpoint-floor", "--n", "735134400", "--out", str(path))
    calls = Counter()

    def counted(name):
        original = getattr(factorcore, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(factorcore, name, wrapper)

    counted("factor")
    counted("divisors")
    for argv, factored, listed in (
        (("bound", "--kind", "midpoint-floor", "--n", "735134400", "--bound", "thm1a"), 1, 1),
        (("check", "--kind", "midpoint-floor", "--n", "735134400"), 1, 1),
        (("bound", "--file", str(path), "--bound", "thm1a"), 1, 0),
        (("check", "--file", str(path)), 0, 0),
    ):
        calls.clear()
        code, _, _ = run(capsys, "map", *argv)
        assert code == 0
        assert (calls["factor"], calls["divisors"]) == (factored, listed), argv


def test_sweep_header_only_when_no_rows(capsys, tmp_path):
    # thm3a applies to squarefree n only; n = 4 contributes nothing
    path = tmp_path / "empty.csv"
    code, _, _ = run(
        capsys, "sweep", "--bounds", "thm3a", "--n-lo", "4", "--n-hi", "4",
        "--out", str(path),
    )
    assert code == 0
    assert path.read_text() == "n,bound_id,lhs,log_rhs,margin,pass,params\n"


def test_sweep_rejects_unknown_bound(capsys):
    code, _, err = run(capsys, "sweep", "--bounds", "bogus", "--n-hi", "5")
    assert code == 2 and "error: domain:" in err


def test_sweep_rejects_a_repeated_bound(capsys):
    # a repeated id would print each of its rows twice
    for bounds in ("corollary1,corollary1", "corollary1,thm1a,corollary1"):
        code, out, err = run(capsys, "sweep", "--bounds", bounds, "--n-hi", "3")
        assert (code, out) == (2, "")
        assert err == "error: domain: sweep: repeated bound id 'corollary1'\n"


def test_sweep_rejects_empty_range(capsys):
    code, out, err = run(capsys, "sweep", "--bounds", "thm3a", "--n-lo", "5", "--n-hi", "4")
    assert (code, out) == (2, "")
    assert err == "error: domain: sweep: bad range [5, 4]\n"


def test_sweep_rejects_fewer_than_one_worker(capsys):
    for workers in ("0", "-3"):
        code, out, err = run(capsys, "sweep", "--bounds", "thm3a", "--n-hi", "4", "--workers", workers)
        assert (code, out) == (2, "")
        assert err == f"error: domain: sweep: --workers must be at least 1, got {workers}\n"


def test_sweep_squarefree_only_keeps_squarefree_rows(capsys):
    argv = ("sweep", "--bounds", "thm3b,c2", "--n-hi", "40")
    code, full, _ = run(capsys, *argv)
    assert code == 0
    code, out, err = run(capsys, *argv, "--squarefree-only")
    assert (code, err) == (0, "")
    squarefree = {n for n in range(1, 41) if all(v == 1 for _, v in factor(n).parts)}
    header, *rows = full.splitlines()
    kept = [row for row in rows if int(row.split(",")[0]) in squarefree]
    assert out.splitlines() == [header, *kept]
    assert {int(row.split(",")[0]) for row in kept} == squarefree


def test_sweep_exit_one_on_asserted_violation(capsys):
    # the literal eq4.2 cell bound genuinely fails at n = 2, which makes it a
    # real probe of the asserted-violation exit path
    code, out, err = run(capsys, "sweep", "--bounds", "eq4.2", "--n-lo", "2", "--n-hi", "2")
    assert code == 1
    assert err == "error: bound-violation: eq4.2 fails at n=2 (e=1;m=3)\n"
    assert any(line.endswith("false,e=1;m=3") for line in out.splitlines())


def test_map_check_accepts_builtin_kind(capsys):
    code, out, _ = run(capsys, "map", "check", "--kind", "midpoint-exact", "--n", "6")
    assert code == 0 and json.loads(out)["k"] == 1


def test_map_build_writes_json_to_stdout(capsys):
    code, out, err = run(capsys, "map", "build", "--kind", "sum", "--n", "6")
    assert (code, err) == (0, "")
    assert out == '{"n": 6, "j": 2, "entries": [[1, 1, 2], [1, 2, 3], [2, 1, 3]]}\n'
    assert out == regmaps.map_to_json(build_builtin("sum", 6)) + "\n"


def test_map_check_refuses_missing_table(capsys, tmp_path):
    code, out, err = run(capsys, "map", "check")
    assert (code, out) == (2, "")
    assert err == "error: domain: map: provide --file or both --kind and --n\n"
    code, out, err = run(capsys, "map", "check", "--file", str(tmp_path / "absent.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: io:") and "absent.json" in err and err.count("\n") == 1


def test_map_refuses_an_unknown_kind_or_bound_first(capsys, monkeypatch, tmp_path):
    # the parser names no kind or bound id; the map command refuses an unknown
    # one as a domain error before it reads --file or builds a table, which
    # here would pass its budget (exit 3) or be read and checked (exit 0)
    path = tmp_path / "table.json"
    assert run(capsys, "map", "build", "--kind", "sum", "--n", "6", "--out", str(path))[0] == 0
    monkeypatch.setattr(factorcore, "_MAX_PAIRS", 2000)
    for argv, err in (
        (["build", "--kind", "nope", "--n", "6"], "unknown builtin map kind: 'nope'"),
        (["check", "--file", str(path), "--kind", "nope"], "unknown builtin map kind: 'nope'"),
        (["bound", "--kind", "", "--n", "720720", "--bound", "thm1a"], "unknown builtin map kind: ''"),
        (["bound", "--kind", "sum", "--n", "720720", "--bound", "nope"], "unknown bound id: nope"),
        (["bound", "--file", str(path), "--bound", "thm3a"], "unknown bound id: thm3a"),
        (["bound", "--file", str(path), "--bound", "s_minus"], "unknown bound id: s_minus"),
    ):
        assert run(capsys, "map", *argv) == (2, "", f"error: domain: {err}\n"), argv


def test_json_round_trip():
    records = [
        make_record("corollary1", 1, 0, 0.0),
        make_record("corollary1", 6, 4, 2.7101056628667824),
        make_record("lemma6", 12, 3, 0.9877832533, extra="y"),
    ]
    text = format_records_json(records)
    parsed = parse_records_json(text)
    assert len(parsed) == len(records)
    for rec, back in zip(records, parsed):
        assert back.n == rec.n and back.bound_id == rec.bound_id
        assert back.lhs == rec.lhs
        assert back.log_rhs == rec.log_rhs  # exact float round trip
        assert back.margin == rec.margin
        assert back.passed == rec.passed
    assert format_records_json(parsed) == text


def test_report_order_does_not_depend_on_input_order(capsys, monkeypatch):
    # each n's rows are sorted into report order, (n, bound_id, params),
    # where the sweep makes them, so neither the --bounds order, the chunking
    # nor the pool changes the report.  Three corollary1 rows of each n share
    # one key; they keep the order they were made in.
    made = relations.relation_rows

    def with_ties(ctx, bound_id):
        rows = made(ctx, bound_id)
        if bound_id != "corollary1":
            return rows
        return [*rows, rows[0]._replace(lhs=-1), rows[0]._replace(lhs=-2)]

    monkeypatch.setattr(relations, "relation_rows", with_ties)
    ids = ALL_BOUNDS.split(",")
    reports = set()
    for order in (ids, ids[::-1], random.Random(5).sample(ids, len(ids))):
        for size, workers in ((200, "1"), (7, "1"), (1, "1"), (200, "2")):
            monkeypatch.setattr(cli, "_SERIAL_CHUNK", size)
            code, out, _ = run(capsys, "sweep", "--bounds", ",".join(order), "--n-hi", "40",
                               "--format", "json", "--workers", workers)
            assert code == 1
            reports.add(out)
    assert len(reports) == 1
    records = parse_records_json(reports.pop())
    keys = [(r.n, r.bound_id, r.params) for r in records]
    assert keys == sorted(keys) and len(records) > 500
    assert [r.lhs for r in records if r.n == 6 and r.bound_id == "corollary1"] == [4, -1, -2]
    # the writers keep the order they are given
    shuffled = random.Random(7).sample(records, len(records))
    assert parse_records_json(format_records_json(shuffled)) == shuffled
    rows = format_records_csv(shuffled).splitlines()[1:]
    assert rows == [format_records_csv([r]).splitlines()[1] for r in shuffled]


def test_failure_line_names_the_reports_first_failing_row(capsys, monkeypatch):
    # thm1a, moved down by 100 in log space, fails on every table at n = 2,
    # where eq4.2 fails too; the line names the report's first false asserted
    # row whatever the --bounds order, serially and with --workers 2
    spec = BOUNDS["thm1a"]

    def shifted(*args):
        log_rhs, params = spec.evaluate(*args)
        return log_rhs - 100, params

    monkeypatch.setitem(BOUNDS, "thm1a", dataclasses.replace(spec, evaluate=shifted))
    lines = {}
    for bounds in ("thm1a,eq4.2", "eq4.2,thm1a", "thm1a"):
        for workers in ("1", "2"):
            code, out, err = run(capsys, "sweep", "--bounds", bounds, "--n-lo", "2",
                                 "--n-hi", "3", "--workers", workers)
            assert code == 1
            first_false = next(row for row in out.splitlines() if ",false," in row)
            n, bound_id, *_, params = first_false.split(",")
            assert err == f"error: bound-violation: {bound_id} fails at n={n} ({params})\n"
            lines[bounds, workers] = err
    assert len({lines[key] for key in lines if key[0] != "thm1a"}) == 1
    assert lines["eq4.2,thm1a", "1"] == "error: bound-violation: eq4.2 fails at n=2 (e=1;m=3)\n"
    assert lines["thm1a", "1"] == lines["thm1a", "2"] == (
        "error: bound-violation: thm1a fails at n=2 (j=1;k=1;map=successor)\n"
    )


def test_csv_formatting_is_idempotent():
    records = [make_record("corollary1", 6, 4, 2.7101056628667824)]
    text = format_records_csv(records)
    assert text == format_records_csv(records)
    assert "2.710105663" in text


def test_domain_error_exit(capsys):
    for argv in (
        ["residues", "--n", "6", "--q", "3"],
        ["analytic", "eval", "--fn", "xi", "--alpha", "-0.1", "--x", "1", "--j", "2"],
        ["analytic", "eval", "--fn", "xi", "--alpha", "0.2", "--x", "1", "--j", "0", "--r", "1"],
        *(
            ["analytic", "eval", "--fn", fn, "--alpha", "0.2", "--x", x]
            for fn in ("f", "ell", "xi")
            for x in ("nan", "inf")
        ),
        # xi at a v too large for float64 evaluation
        ["analytic", "eval", "--fn", "xi", "--alpha", "0.2", "--x", "1e262"],
        ["analytic", "eval", "--fn", "xi", "--alpha", "0.2288541994", "--x", "1e142"],
        ["analytic", "tail", "--v", str(10**142)],
        ["analytic", "tail", "--v", str(10**300)],
        ["analytic", "tail", "--v", str(10**400)],
        # alpha*x overflows, and ell would be inf - inf
        ["analytic", "eval", "--fn", "ell", "--alpha", "0.6", "--x", "1.7e308"],
        # r = -1 is the pole of beta_for; delta_j's f_alpha overflows float64
        ["analytic", "eval", "--fn", "xi", "--alpha", "0.2", "--x", "1", "--r", "-1"],
        ["analytic", "verify-xi", "--alpha", "0.2", "--r", "-1", "--delta", "0.04", "--vmax", "10"],
        ["analytic", "delta-j", "--j", str(10**400)],
        # here it is j, not v, that leaves float range
        ["analytic", "eval", "--fn", "xi", "--alpha", "0.2", "--x", "1", "--j", str(10**200)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: domain:"), argv
    # the last argv's refusal names j as well as v
    assert err == f"error: domain: xi: v = 1.0 and j = {10**200} are too large for float64 evaluation\n"


def test_map_bound_refuses_an_arity_past_float_range(capsys, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": 6, "j": 10**400, "entries": []}))
    for bound_id, reason in (("thm2a", "thm2a: j = 1000"), ("thm2b", "thm2b: j = 1000"),
                             ("thm1a", "delta_j: j = 1000")):
        code, out, err = run(capsys, "map", "bound", "--file", str(path), "--bound", bound_id)
        assert (code, out) == (2, "") and err.startswith(f"error: domain: {reason}")
        assert "is too large for float64" in err


def test_map_check_and_bound_refuse_n_zero(capsys):
    for cmd in (["check"], ["bound", "--bound", "thm1a"]):
        code, out, err = run(capsys, "map", *cmd, "--kind", "sum", "--n", "0")
        assert (code, out) == (2, "")
        assert err == "error: domain: factor: n must be a positive integer, got 0\n"


def test_resource_error_exit(capsys, monkeypatch):
    too_many = str(10**8 + 1)
    hc = "288807105787200"  # tau 21504: 462,422,016 ordered divisor pairs
    # the exact-e search and the rho below run past their budgets; small ones
    # refuse them fast
    monkeypatch.setattr(regmaps, "_EXACT_E_MAX_NODES", 1000)
    monkeypatch.setattr(factorcore, "_RHO_MAX_WORK", 1000)
    for argv, measure in (
        (["analytic", "verify-xi", "--alpha", "0.2288541994", "--r", "0.692466598",
          "--delta", "0.045072", "--vmax", too_many], "v_max"),
        (["analytic", "optimize", "--vopt", too_many], "v_max"),
        (["analytic", "optimize", "--vcertify", too_many], "v_max"),
        (["exact-e", "--n", "30", "--j", "2", "--k", "1"], "1000 nodes"),  # charged 256
        (["exact-e", "--n", "2", "--j", "20000", "--k", "1"],
         "exact_E: 20000^2 * kappa_20001(2) = 8000800000000 exceeds budget 1000"),
        (["exact-e", "--n", "2", "--j", "300000000", "--k", "1"], "exceeds budget 1000"),
        # n = 1 has one tuple, but of j entries
        (["exact-e", "--n", "1", "--j", "20000", "--k", "1"], "kappa_20001(1) = 400000000 exceeds"),
        # the charge bounds the search's depth; uncharged, both overflow the stack
        (["exact-e", "--n", "510510", "--j", "2", "--k", "1"], "kappa_3(510510) = 65536 exceeds"),
        (["exact-e", "--n", str(2**1000), "--j", "1", "--k", "1"], " = 2001 exceeds budget 1000"),
        (["energy", "--n", hc], f"pair sums: tau({hc})^2 pairs = 462422016 exceeds budget"),
        (["energy", "--n", hc, "--decompose"], "pair sums: tau"),
        (["sweep", "--bounds", "corollary3", "--n-lo", "6469693230", "--n-hi", "6469693230"],
         "corollary3: tau(6469693230) * pair sums = 372686848 exceeds budget"),  # tau 1024
        (["residues", "--n", "6", "--q", "1000000000000001"], "tau(6) + q = 1000000000000005"),
        (["divisors", "--n", str(math.prod(sympy.primerange(74)))], "= 2097152 exceeds budget"),
        (["factor", "--n", str(1000000007 * 1000000009)], "passed 1000 steps"),
        # the Mersenne prime 2^11213 - 1, 3376 digits, before its first round
        (["factor", "--n", str(2**11213 - 1)], "Miller-Rabin: 12 rounds x 176^3 limbs"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("error: resource:"), argv
        assert measure in err, (argv, err)
    # the map walks are charged the pairs they test: at tau 240, where the
    # numpy walk builds them, the sum map tests 2159 pairs and the
    # midpoint-floor map more
    assert len(factorcore.DivisorContext(720720).divs) >= regmaps._NUMPY_MIN_TAU
    monkeypatch.setattr(factorcore, "_MAX_PAIRS", 2000)
    for argv, measure in (
        (["triples", "--n", "720720"], "sum map of 720720: pairs tested = "),
        (["map", "build", "--kind", "sum", "--n", "720720"], "sum map of 720720: pairs tested"),
        (["map", "check", "--kind", "midpoint-floor", "--n", "720720"],
         "midpoint-floor map of 720720: pairs tested"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("error: resource:"), argv
        assert measure in err, (argv, err)


def test_env_var_overrides_divisor_cap(capsys, monkeypatch):
    # The user-set divisor cap is gone: each kernel has its own fixed budget,
    # and neither DIVREL_CAP_DIVISORS nor --cap-divisors moves one.
    code, out, err = run(capsys, "energy", "--n", "720720", "--cap-divisors", "100")
    assert (code, out) == (2, "") and "unrecognized arguments: --cap-divisors 100" in err
    # nor does the retired exact-e --guard
    code, out, err = run(capsys, "exact-e", "--n", "6", "--j", "1", "--k", "1", "--guard", "16")
    assert (code, out) == (2, "") and "unrecognized arguments: --guard 16" in err
    monkeypatch.setenv("DIVREL_CAP_DIVISORS", "100")
    assert run(capsys, "energy", "--n", "720720") == (0, f"{additive_energy(720720)}\n", "")
    assert run(capsys, "divisors", "--n", "6") == (0, "1 2 3 6\n", "")


def test_env_var_cap_must_be_an_integer(capsys, monkeypatch):
    # DIVREL_CAP_DIVISORS is no longer read, so a non-integer value is not refused
    monkeypatch.setenv("DIVREL_CAP_DIVISORS", "abc")
    assert run(capsys, "energy", "--n", "720720") == (0, f"{additive_energy(720720)}\n", "")
    assert run(capsys, "divisors", "--n", "6") == (0, "1 2 3 6\n", "")


def test_unknown_flag_rejected(capsys):
    code = main(["kappa", "--n", "12", "--j", "2", "--frob"])
    capsys.readouterr()
    assert code == 2


def test_usage_error_exit(capsys):
    code = main(["kappa", "--n", "12"])  # missing --j
    capsys.readouterr()
    assert code == 2


def test_help_lists_flags(capsys):
    code = main(["sweep", "--help"])
    out = capsys.readouterr().out
    assert code == 0
    for flag in ("--bounds", "--n-lo", "--n-hi", "--squarefree-only",
                 "--format", "--out", "--workers"):
        assert flag in out
    assert "--cap-divisors" not in out


def test_cached_parser_keeps_no_state(capsys, tmp_path):
    table, report = tmp_path / "table.json", tmp_path / "report.csv"
    assert run(capsys, "map", "build", "--kind", "sum", "--n", "60", "--out", str(table))[0] == 0
    sequence = (
        ["analytic", "tail"],  # the default --v samples
        ["analytic", "tail", "--v", "2000000"],
        ["analytic", "tail"],
        ["map", "check", "--file", str(table)],
        ["map", "check", "--kind", "midpoint-floor", "--n", "36"],  # no --file left over
        ["sweep", "--bounds", "corollary1,thm1a", "--n-hi", "30", "--format", "json"],
        ["sweep", "--bounds", "eq4.1", "--n-hi", "30", "--out", str(report)],
        ["sweep", "--bounds", "eq4.2", "--n-hi", "30"],  # eq4.2 fails at n = 2: exit 1
        ["kappa", "--n", "12"],  # usage error: --j missing
    )

    def one_pass(fresh):
        outcomes = []
        for argv in sequence:
            if fresh:
                cli._parser.cache_clear()
            report.unlink(missing_ok=True)
            outcome = run(capsys, *argv)
            outcomes.append((*outcome, report.read_text() if report.exists() else None))
        return outcomes

    # each call of the first pass parses with a parser of its own
    first = one_pass(fresh=True)
    assert [o[0] for o in first] == [0, 0, 0, 0, 0, 0, 0, 1, 2]
    assert first[0] == first[2] and first[1] != first[0]
    assert first[6][1] == "" and first[6][3].startswith(cli.CSV_HEADER)
    cli._parser.cache_clear()
    assert one_pass(fresh=False) == first
    assert one_pass(fresh=False) == first
    assert cli._parser.cache_info().misses == 1  # one parser served both passes
