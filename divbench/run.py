#!/usr/bin/env python3
"""divrel benchmark: one workload, one seed, one run.

Run from the root of a divrel checkout; divrel is imported from ./src:

    python3 divbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

The run measures set-up time in fresh interpreters, warms up, then runs the
workload's rounds, checking every output.  --seconds sets the amount of
work: the number of rounds is --seconds over the round's wall time at the
commit that defined the benchmark (more if the tail percentile needs more
samples), so parent and child do the same work.  With --trace 1 it then
replays round 0 with divrel's functions wrapped in spans and reports
per-layer metrics instead of the end-to-end ones.  The last line of stdout
is the JSON result; the line before it holds the details (environment,
sample counts, output digests, problems).  The exit code is 0 when every
output passed its checks, 1 when one did not, and 2 when there is no
divrel source tree to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import layers
from speed import REFERENCE_S, Speedometer
from tracer import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "digests.json")
SETUP_PROBES = 9
# A set-up probe: time the speed loop (best of two), run divrel, time the
# loop again, and print both loop times as the last line of stderr.
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; from speed import loop_s; a = min(loop_s(), loop_s()); "
    "from divrel.cli import main; rc = main(sys.argv[3:]); "
    "print(a, min(loop_s(), loop_s()), file=sys.stderr); sys.exit(rc)"
)

# (name, unit) of the end-to-end metrics; see README.md for each workload's meaning.
END_TO_END = (
    ("setup_s", "s"),
    ("main_per_s", "1/s"),
    ("side_per_s", "1/s"),
    ("main_p50_ms", "ms"),
    ("main_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# The workload-specific name of each end-to-end metric, printed
# alongside so a reader can find them.
ALIASES = {
    "sweep-small": {"main_per_s": "sweep_serial_n_per_s", "side_per_s": "sweep_w2_n_per_s"},
    "point-hc": {"main_p50_ms": "hc_query_p50_ms", "main_tail_ms": "hc_query_tail_ms"},
    "concentration": {"main_per_s": "conc_tuples_per_s", "side_per_s": "1 / certify_s"},
}


@dataclass
class Outcome:
    label: str
    rc: int | None
    out: str
    seconds: float  # reference seconds, see speed.py
    error: str | None
    op: int = -1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> dict[str, str]:
    """Recorded output digests, keyed by the operation's input."""
    with open(REFERENCE) as handle:
        return json.load(handle)


class Context:
    """Runs operations in-process and keeps the attempted/failed ledger.

    Every exact output is digested under its operation's input.  It must
    match the digest recorded for that input in digests.json, if there is
    one, and every earlier output for the same input in this run (so the
    traced replay must reproduce the untraced outputs byte for byte).
    """

    def __init__(self, cli, reference: dict[str, str] | None = None, speed: Speedometer | None = None) -> None:
        self._cli = cli
        self.speed = speed
        self.reference = reference or {}
        self.digests: dict[str, str] = {}
        self.checked_digests = 0
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        self.rows = 0
        self.op_seconds = 0.0

    def seconds(self, t0: float) -> float:
        """Reference seconds since perf_counter() read t0; raw without a speedometer."""
        t1 = perf_counter()
        return self.speed.reference_seconds(t0, t1) if self.speed else t1 - t0

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def judge(self, out: Outcome, check, key: str | None = None) -> Outcome:
        """Check out; key, when given, names the input of an exact output.

        It first collects cyclic garbage, so no operation starts with
        another's.  Otherwise the speed sampler's allocations shift when
        the collector runs, and the peak memory moves by megabytes from run
        to run.  After the warm-up, main() freezes the objects alive then
        (modules, caches), so this collection costs microseconds, not the
        20 ms a full one takes once scipy is imported.
        """
        gc.collect()
        out.op = self.attempted
        self.attempted += 1
        self.op_seconds += out.seconds
        try:
            problems = check(out)
        except Exception as exc:  # a malformed output must not stop the run
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if key is not None and out.error is None:
            got = digest(out.out)
            for want, source in ((self.reference.get(key), "recorded"), (self.digests.get(key), "earlier")):
                if want is not None and want != got:
                    problems.append(f"output digest {got} differs from the {source} {want}")
            self.checked_digests += key in self.reference
            self.digests.setdefault(key, got)
        for problem in problems:
            self.fail(out, problem)
        return out

    def fail(self, out: Outcome, problem: str) -> None:
        self.failed_ops.add(out.op)
        self.problems.append(f"{out.label}: {problem}")

    def cli(self, label: str, argv: list[str], check, exact: bool = True) -> Outcome:
        """`divrel <argv>` in this process, stdout captured, stderr dropped."""
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                rc = self._cli.main(argv)
            out = Outcome(label, rc, buf.getvalue(), self.seconds(t0), None)
        except Exception as exc:
            out = Outcome(label, None, buf.getvalue(), self.seconds(t0), f"{type(exc).__name__}: {exc}")
        return self.judge(out, check, "divrel " + " ".join(argv) if exact else None)

    def call(self, label: str, fn, render, check) -> Outcome:
        """A library call; render turns its result into the checked text,
        and label, which names the call's input, keys its digest."""
        t0 = perf_counter()
        try:
            result = fn()
            seconds = self.seconds(t0)
            out = Outcome(label, 0, render(result), seconds, None)
        except Exception as exc:
            out = Outcome(label, None, "", self.seconds(t0), f"{type(exc).__name__}: {exc}")
        return self.judge(out, check, label)


def tail_percentile(samples: list[float], beyond: int) -> tuple[float, float]:
    """(level, value) of the highest nearest-rank percentile with `beyond` samples above it."""
    xs = sorted(samples)
    if len(xs) <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {len(xs)}")
    rank = len(xs) - beyond
    return 100.0 * rank / len(xs), xs[rank - 1]


def measure_setup(workload, ctx: Context) -> tuple[list[float], list[float]]:
    """Time from a fresh interpreter to the workload's first result, in
    reference seconds and raw.

    The first probe is untimed: it lets Python write its bytecode cache,
    which an installed package would already have.
    """
    argv, check = workload.probe()
    times, raw = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", PROBE, HERE, SRC, *argv],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
            raw_s = perf_counter() - t0
            loops = [float(x) for x in proc.stderr.splitlines()[-1].split()] if proc.returncode in (0, 1) else []
            seconds = raw_s * REFERENCE_S * len(loops) / sum(loops) if len(loops) == 2 else raw_s
            out = Outcome("setup probe", proc.returncode, proc.stdout, seconds, None)
        except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
            raw_s = perf_counter() - t0
            out = Outcome("setup probe", None, "", raw_s, f"{type(exc).__name__}: {exc}")
        ctx.judge(out, check)
        if i:
            times.append(out.seconds)
            raw.append(raw_s)
    return times, raw


def environment() -> dict:
    import numpy
    import scipy

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "divrel")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": h.hexdigest()[:16],
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))  # look no higher
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def traced_replay(workload, ctx: Context, untraced_s: float) -> dict[str, float]:
    """Replay round 0 with tracing on; return the per-layer metrics.

    The replay's outputs are digested under the same inputs as round 0's,
    so the Context fails any that differ from the untraced ones.
    """
    tracer = Tracer()
    layers.install(tracer)
    rows_before, seconds_before = ctx.rows, ctx.op_seconds
    try:
        workload.run_round(ctx, 0)
    finally:
        tracer.uninstall()
    overhead = (ctx.op_seconds - seconds_before) / untraced_s - 1
    return layers.metrics(tracer, ctx.rows - rows_before, overhead)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "divrel", "__init__.py")):
        print(f"error: no divrel source tree at {SRC}/divrel; run from the checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import divrel
    from divrel import cli

    if not os.path.abspath(divrel.__file__).startswith(SRC + os.sep):
        print(f"error: imported divrel from {divrel.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    speed = Speedometer()
    ctx = Context(cli, load_reference(), speed)
    setup, setup_raw = measure_setup(workload, ctx)
    speed.start()
    try:
        workload.warmup(ctx)
        gc.collect()
        gc.freeze()
        t0 = perf_counter()
        target = round(args.seconds / workload.round_seconds)
        rounds, round_s = [], []
        while len(rounds) < target or sum(len(r.latencies) for r in rounds) <= workload.tail_beyond:
            before = ctx.op_seconds
            rounds.append(workload.run_round(ctx, len(rounds)))
            round_s.append(ctx.op_seconds - before)
        measured_s = perf_counter() - t0
        per_layer = traced_replay(workload, ctx, round_s[0]) if args.trace else None
    finally:
        speed.stop()

    latencies = [x for rnd in rounds for x in rnd.latencies]
    tail_level, tail_value = tail_percentile(latencies, workload.tail_beyond)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "main_per_s": statistics.median(x for rnd in rounds for x in rnd.main_rates),
        "side_per_s": statistics.median(x for rnd in rounds for x in rnd.side_rates),
        "main_p50_ms": 1000 * statistics.median(latencies),
        "main_tail_ms": 1000 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if per_layer is None:
        reported, units = end_to_end, dict(END_TO_END)
    else:
        reported, units = per_layer, dict(layers.PER_LAYER)

    aliases = ALIASES.get(workload.name, {})
    for name, value in end_to_end.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name} = {value:.6g} {dict(END_TO_END)[name]}{alias}")
    print(f"ops_failed_frac = {ctx.failed / ctx.attempted:.6g}  ({ctx.failed} of {ctx.attempted})")
    if per_layer is not None:
        for name, value in per_layer.items():
            print(f"{name} = {value:.6g} {units[name]}")
    for problem in ctx.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "round_op_seconds": round_s,
        "measured_s": measured_s,
        "main_samples": len(latencies),
        "tail_percentile": tail_level,
        "setup_probes": setup,
        "setup_probes_raw": setup_raw,
        "calibration_ms": speed.summary_ms(),
        "digests_checked": ctx.checked_digests,
        "digests": ctx.digests,
        "problems": ctx.problems[:20],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }
    print(json.dumps(result))
    return 0 if ctx.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
