"""Which divrel functions the traced run wraps, and the per-layer metrics.

Layers are divrel's modules.  Span names are `<module>.<function>`, with the
bound id or map kind appended where one function serves several of them.
"""

from __future__ import annotations

from tracer import Tracer
from workloads import MAP_KINDS, RELATION_BOUND_IDS

RELATION_KERNELS = (
    "additive_energy",
    "energy_decomposition",
    "count_sum_triples",
    "hooley_delta",
    "residue_profile",
)
CERTIFY_FUNCTIONS = ("verify_xi_range", "tail_check", "lemma45_scan", "optimize_constants")

# (name, unit) of every per-layer metric, in pipeline order.
PER_LAYER = (
    [
        ("factorcore.factor.calls", "count"),
        ("factorcore.factor.distinct_ratio", "ratio"),
        ("factorcore.factor.self_s", "s"),
        ("factorcore.divisors.calls", "count"),
        ("factorcore.divisors.self_s", "s"),
        ("factorcore.coprime_tuples.yielded", "count"),
        ("factorcore.coprime_tuples.self_s", "s"),
    ]
    + [(f"relations.inequality_report.{b}.self_s", "s") for b in RELATION_BOUND_IDS]
    + [(f"relations.{k}.self_s", "s") for k in RELATION_KERNELS]
    + [
        ("relations.pair_sums", "pairs_computed"),
        ("regmaps.build_builtin.calls", "count"),
        ("regmaps.build_builtin.distinct_ratio", "ratio"),
    ]
    + [(f"regmaps.build_builtin.{k}.self_s", "s") for k in MAP_KINDS]
    + [
        ("regmaps.check_regularity.calls", "count"),
        ("regmaps.check_regularity.self_s", "s"),
        ("regmaps.check_regularity.entries", "count"),
        ("regmaps.bound_check.self_s", "s"),
        ("records.make_record.calls", "count"),
        ("records.make_record.self_s", "s"),
        ("cli.format_records_csv.self_s", "s"),
        ("cli.sweep.rows", "count"),
        ("analytic.s_bounds.self_s", "s"),
    ]
    + [(f"analytic.{f}.self_s", "s") for f in CERTIFY_FUNCTIONS]
    + [
        ("analytic.optimize_constants.evals", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def install(tracer: Tracer) -> None:
    """Wrap every binding of the traced divrel functions."""
    from divrel import analytic, cli, factorcore, records, regmaps, relations

    def wrap(module, attr, name=None, **kw):
        label = name or f"{module.__name__.split('.')[-1]}.{attr}"
        tracer.install(module, attr, tracer.wrap(getattr(module, attr), label, **kw))

    wrap(factorcore, "factor", key=lambda *a, **k: _arg(a, k, 0, "n"))
    wrap(factorcore, "divisors")
    wrap(factorcore, "coprime_tuples", generator=True)
    wrap(
        relations,
        "inequality_report",
        name=lambda *a, **k: f"relations.inequality_report.{_arg(a, k, 1, 'bound_id')}",
    )
    for kernel in RELATION_KERNELS:
        wrap(relations, kernel)

    def count_pairs(result, divs):
        tracer.counts["relations.pair_sums"] += len(divs) ** 2

    # The pair-sum histogram is private; it only counts, so its time stays
    # with the public function that asked for it.
    wrap(relations, "_pair_sum_counts", span=False, after=count_pairs)
    wrap(
        regmaps,
        "build_builtin",
        name=lambda *a, **k: f"regmaps.build_builtin.{_arg(a, k, 0, 'kind')}",
        key=lambda *a, **k: (_arg(a, k, 0, "kind"), _arg(a, k, 1, "n"), _arg(a, k, 2, "cap")),
    )

    def count_entries(result, table, *a, **k):
        tracer.counts["regmaps.check_regularity.entries"] += len(table.entries)

    wrap(regmaps, "check_regularity", after=count_entries)
    wrap(regmaps, "bound_check")
    wrap(records, "make_record")
    wrap(cli, "format_records_csv")
    wrap(analytic, "s_bounds")
    for fn in CERTIFY_FUNCTIONS:
        wrap(analytic, fn)

    def count_eval(result, *a, **k):
        tracer.counts["analytic.optimize_constants.evals"] += 1

    wrap(analytic, "pair_exponent_gain", span=False, after=count_eval)


def metrics(tracer: Tracer, rows: int, overhead: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never reached reads 0."""
    builds = [f"regmaps.build_builtin.{k}" for k in MAP_KINDS]
    build_calls = sum(tracer.calls(b) for b in builds)
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name == "factorcore.factor.distinct_ratio":
            value = tracer.distinct_ratio("factorcore.factor")
        elif name == "regmaps.build_builtin.calls":
            value = build_calls
        elif name == "regmaps.build_builtin.distinct_ratio":
            distinct = sum(len(tracer.keys[b]) for b in builds)
            value = distinct / build_calls if build_calls else 0.0
        elif name == "cli.sweep.rows":
            value = rows
        elif name == "trace.overhead_frac":
            value = overhead
        elif name.endswith(".calls"):
            value = tracer.calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            value = tracer.self_s(name[: -len(".self_s")])
        else:
            value = tracer.counts[name]
        out[name] = value
    return out
