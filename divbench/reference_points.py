#!/usr/bin/env python3
"""Time the fixed reference cases of the divrel roadmap on the checkout's src/.

    python3 divbench/reference_points.py [--repeats 3] > divbench/seed_reference.json

Each case is timed untraced (median of --repeats) and then once traced, which
gives the self time of every span it touched.  Untraced times are given raw
and in the benchmark's reference seconds (see speed.py).  The committed
seed_reference.json holds this output for the tree the benchmark was
defined on, so later changes can quote before/after numbers per case.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the src/ location)
from speed import Speedometer  # noqa: E402
from workloads import ALL_BOUNDS, MAP_BOUND_IDS, RELATION_BOUND_IDS  # noqa: E402

SWEEP_MAPS = ",".join(MAP_BOUND_IDS)
SWEEP_RELATIONS = ",".join(RELATION_BOUND_IDS)


def cases():
    from divrel import analytic, cli, regmaps, relations

    def sweep(bounds, *extra):
        def call():
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                return cli.main(["sweep", "--bounds", bounds, "--n-hi", "3000", *extra])

        return call

    return [
        ("sweep all 13 bounds, n <= 3000, serial", sweep(ALL_BOUNDS)),
        ("sweep map bounds, n <= 3000, serial", sweep(SWEEP_MAPS)),
        ("sweep relation bounds, n <= 3000, serial", sweep(SWEEP_RELATIONS)),
        ("sweep all 13 bounds, n <= 3000, --workers 2", sweep(ALL_BOUNDS, "--workers", "2")),
        ("additive_energy(735134400)", lambda: relations.additive_energy(735134400)),
        ("energy_decomposition(735134400)", lambda: relations.energy_decomposition(735134400)),
        ("count_sum_triples(735134400)", lambda: relations.count_sum_triples(735134400)),
        ("builtin_midpoint_map(735134400)", lambda: regmaps.builtin_midpoint_map(735134400)),
        ("corollary3 at n = 9699690", lambda: relations.inequality_report(9699690, "corollary3")),
        ("s_bounds(6469693230, j=2)", lambda: analytic.s_bounds(6469693230, 2, analytic.ALPHA_STAR)),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(run.SRC, "divrel", "__init__.py")):
        print(f"error: no divrel source tree at {run.SRC}/divrel", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    import layers
    from tracer import Tracer

    rows = []
    for label, fn in cases():
        times, scaled = [], []
        speed = Speedometer()
        speed.start()
        try:
            for _ in range(args.repeats):
                t0 = perf_counter()
                fn()
                t1 = perf_counter()
                times.append(t1 - t0)
                scaled.append(speed.reference_seconds(t0, t1))
        finally:
            speed.stop()
        tracer = Tracer()
        layers.install(tracer)
        try:
            t0 = perf_counter()
            fn()
            traced_s = perf_counter() - t0
        finally:
            tracer.uninstall()
        spans = {name: round(rec[2] / 1e9, 4) for name, rec in sorted(tracer.spans.items())}
        rows.append(
            {
                "case": label,
                "median_s": round(statistics.median(times), 4),
                "runs_s": [round(t, 4) for t in times],
                "median_reference_s": round(statistics.median(scaled), 4),
                "traced_s": round(traced_s, 4),
                "span_self_s": spans,
                "span_calls": {name: rec[0] for name, rec in sorted(tracer.spans.items())},
            }
        )
        print(f"{label}: {statistics.median(times):.3f} s", file=sys.stderr)
    print(json.dumps({"environment": run.environment(), "cases": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
