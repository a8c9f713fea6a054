"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q divbench

They run from the checkout root, like the benchmark, and import divrel from
./src.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402

sys.path.insert(0, run.SRC)

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from divrel import analytic, cli, factorcore, relations  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    level, value = run.tail_percentile([float(x) for x in range(100, 0, -1)], 10)
    assert (level, value) == (90.0, 90.0)
    level, value = run.tail_percentile(list(range(11)), 10)
    assert value == 0 and level == pytest.approx(100 / 11)
    xs = [float(x) for x in range(57)]
    level, value = run.tail_percentile(xs, 10)
    assert sum(x > value for x in xs) == 10
    with pytest.raises(ValueError):
        run.tail_percentile(list(range(10)), 10)
    assert run.tail_percentile([3.0, 1.0, 2.0], 0) == (100.0, 3.0)


def test_nested_self_time():
    tracer = Tracer()
    fns = {}

    def factor():
        time.sleep(0.01)

    def divisors():
        time.sleep(0.02)
        fns["factor"]()

    def additive_energy():
        time.sleep(0.03)
        fns["divisors"]()

    def inequality_report():
        time.sleep(0.04)
        fns["additive_energy"]()

    for fn in (factor, divisors, additive_energy, inequality_report):
        fns[fn.__name__] = tracer.wrap(fn, fn.__name__)
    fns["inequality_report"]()
    for name, want in (("factor", 0.01), ("divisors", 0.02), ("additive_energy", 0.03), ("inequality_report", 0.04)):
        assert tracer.calls(name) == 1
        assert want <= tracer.self_s(name) < 2 * want, name
    total = tracer.spans["inequality_report"][1]
    assert sum(rec[2] for rec in tracer.spans.values()) == total


def test_nested_self_time_on_divrel():
    tracer = Tracer()
    layers.install(tracer)
    try:
        relations.inequality_report(720720, "thm3b")
    finally:
        tracer.uninstall()
    assert not hasattr(relations.inequality_report, "__wrapped__")  # uninstalled
    for name in (
        "relations.inequality_report.thm3b",
        "relations.additive_energy",
        "factorcore.divisors",
        "factorcore.factor",
        "records.make_record",
    ):
        assert tracer.calls(name) >= 1, name
    # Self times partition the outermost span exactly.
    total = tracer.spans["relations.inequality_report.thm3b"][1]
    assert sum(rec[2] for rec in tracer.spans.values()) == total
    assert tracer.counts["relations.pair_sums"] == 240**2


def test_generator_timing():
    tracer = Tracer()

    def produce():
        for i in range(10):
            time.sleep(0.005)
            yield i

    def consume():
        for _ in tracer.wrap(produce, "produce", generator=True)():
            time.sleep(0.003)

    tracer.wrap(consume, "consume")()
    assert tracer.counts["produce.yielded"] == 10
    # Sleeps overshoot on a loaded host, so only lower bounds are sharp.
    assert 0.05 <= tracer.self_s("produce") < 0.1
    assert 0.03 <= tracer.self_s("consume") < 0.06
    assert tracer.spans["produce"][2] + tracer.spans["consume"][2] == tracer.spans["consume"][1]


def test_coprime_tuples_are_counted_through_s_bounds():
    tracer = Tracer()
    layers.install(tracer)
    try:
        analytic.s_bounds(30030, 2, 0.2)
    finally:
        tracer.uninstall()
    assert tracer.counts["factorcore.coprime_tuples.yielded"] == factorcore.kappa(factorcore.factor(30030), 2)
    assert tracer.self_s("factorcore.coprime_tuples") > 0
    assert tracer.calls("records.make_record") == 2


SMALL_MEMBER = workloads.Member(720720, ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)), 101)


def _small_sweep(seed: int) -> workloads.SweepSmall:
    w = workloads.SweepSmall(seed)
    w.window = 12
    return w


def _hc_queries(ctx) -> None:
    workloads.PointHC(1).queries(ctx, SMALL_MEMBER, workloads.Round(), [], [])


def test_exact_counts_repeat():
    w = _small_sweep(3)
    ctx = run.Context(cli)
    w.run_round(ctx, 0)
    untraced_s = ctx.op_seconds
    a = run.traced_replay(w, ctx, untraced_s)
    b = run.traced_replay(w, ctx, untraced_s)
    assert ctx.failed == 0, ctx.problems
    exact = [name for name, _ in layers.PER_LAYER if name.endswith((".calls", "distinct_ratio", "yielded", "evals", "rows"))]
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}
    assert a["factorcore.factor.calls"] > 0 and a["cli.sweep.rows"] > 0


def test_clean_run_has_no_failures():
    ctx = run.Context(cli, run.load_reference())
    _hc_queries(ctx)
    _small_sweep(1).run_round(ctx, 0)
    assert ctx.attempted > 0 and ctx.failed == 0, ctx.problems


def test_corrupted_energy_is_a_failed_op(monkeypatch):
    real = relations.additive_energy
    monkeypatch.setattr(relations, "additive_energy", lambda n, cap=None: real(n, cap) + 1)
    ctx = run.Context(cli)
    _hc_queries(ctx)
    assert ctx.failed >= 1
    assert any("decomposition total" in p for p in ctx.problems)


def test_unexpected_failing_row_is_a_failed_op(monkeypatch):
    real = cli.format_records_csv

    def corrupt(records):
        # The first row of each report is a c2 row, an asserted map bound.
        return real(records).replace("true,", "false,", 1)

    monkeypatch.setattr(cli, "format_records_csv", corrupt)
    ctx = run.Context(cli)
    _small_sweep(1).run_round(ctx, 0)
    assert ctx.failed >= 1
    assert ctx.failed / ctx.attempted > 0


def test_output_differing_from_its_recorded_digest_is_a_failed_op():
    argv = ["factor", "--n", "720720"]
    ctx = run.Context(cli, {"divrel " + " ".join(argv): "0" * 16})
    ctx.cli("factor", argv, lambda o: [])
    assert ctx.failed == 1 and "recorded" in ctx.problems[0]


def test_output_differing_from_an_earlier_run_of_its_input_is_a_failed_op(monkeypatch):
    argv = ["energy", "--n", "720720"]
    ctx = run.Context(cli)
    ctx.cli("energy", argv, lambda o: [])
    real = relations.additive_energy
    monkeypatch.setattr(relations, "additive_energy", lambda n, cap=None: real(n, cap) + 1)
    ctx.cli("energy", argv, lambda o: [])
    assert ctx.failed == 1 and "earlier" in ctx.problems[0]


def test_reference_points_have_recorded_digests():
    reference = run.load_reference()
    ctx = run.Context(cli, reference)
    workloads.Concentration(1).warmup(ctx)
    workloads.SweepSmall(1).warmup(ctx)
    for m in workloads.HC_REFERENCE_POINTS:
        assert f"divrel energy --n {m.n}" in reference
    assert ctx.failed == 0, ctx.problems
    assert ctx.checked_digests == len(ctx.digests)


def test_reference_seconds_use_the_samples_of_the_operation():
    sp = speed.Speedometer()
    # Samples at t = 0, 1, 2, 3; each took 0.01 s from the program.
    sp.starts, sp.spent = [0.0, 1.0, 2.0, 3.0], [0.01] * 4
    sp.loops = [speed.REFERENCE_S, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S, 9 * speed.REFERENCE_S]
    # [0.5, 2.5] holds the samples at 1 and 2, and the one at 0 comes just before it.
    assert sp.reference_seconds(0.5, 2.5) == pytest.approx((2.0 - 0.02) / 2)
    # A span after the last sample uses the last sample.
    assert sp.reference_seconds(3.5, 4.5) == pytest.approx(1.0 / 9)
