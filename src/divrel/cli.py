"""Command-line surface: point queries, map tools, range sweeps, reports.

Exit codes: 0 success / all asserted bounds hold; 1 at least one asserted
bound violated; 2 usage or domain error; 3 a kernel's work budget exceeded; 4 internal
error (an unexpected exception, i.e. a bug).  Errors print one line
`error: <kind>: <detail>` on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable

from . import factorcore
from .errors import DomainError, ResourceLimitError, _num
from .records import BOUNDS, BoundCheckRecord, registry

# analytic, regmaps and relations are imported by the commands that run them.


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _params_str(params: tuple[tuple[str, object], ...]) -> str:
    items = []
    for key, val in params:
        items.append(f"{key}={_fmt(val) if isinstance(val, float) else val}")
    return ";".join(items)


CSV_HEADER = "n,bound_id,lhs,log_rhs,margin,pass,params\n"


def format_records_csv(records: list[BoundCheckRecord]) -> str:
    """The CSV report of the records, one row each, in the order given."""
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(
            f"{rec.n},{rec.bound_id},{rec.lhs},{_fmt(rec.log_rhs)},"
            f"{_fmt(rec.margin)},{'true' if rec.passed else 'false'},"
            f"{_params_str(rec.params)}\n"
        )
    return "".join(lines)


def format_records_json(records: list[BoundCheckRecord]) -> str:
    """The JSON report of the records, one object each, in the order given."""
    rows = [
        {
            "n": rec.n,
            "bound_id": rec.bound_id,
            "lhs": rec.lhs,
            "log_rhs": rec.log_rhs,
            "margin": rec.margin,
            "pass": rec.passed,
            "params": dict(rec.params),
        }
        for rec in records
    ]
    return json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n"


def parse_records_json(text: str) -> list[BoundCheckRecord]:
    rows = json.loads(text)
    return [
        BoundCheckRecord(
            row["bound_id"],
            row["n"],
            row["lhs"],
            row["log_rhs"],
            row["margin"],
            row["pass"],
            tuple(sorted(row["params"].items())),
        )
        for row in rows
    ]


def _violation_line(records: Iterable[BoundCheckRecord]) -> str | None:
    """The error line naming the first failing asserted row, if any."""
    for rec in records:
        if rec.asserted and not rec.passed:
            witness = f" ({_params_str(rec.params)})" if rec.params else ""
            return f"error: bound-violation: {rec.bound_id} fails at n={rec.n}{witness}"
    return None


def _exit_code(violation: str | None) -> int:
    if violation is None:
        return 0
    print(violation, file=sys.stderr)
    return 1


def _records_for_n(
    ctx: factorcore.DivisorContext, bounds: tuple[str, ...]
) -> list[BoundCheckRecord]:
    """All requested bound rows for one n, sorted stably into report order;
    bounds whose domain excludes n (or a built-in table's arity) are
    skipped.  Every bound id reads the one context, so each piece of work
    on n is done once.
    """
    from . import regmaps, relations
    out: list[BoundCheckRecord] = []
    for bound_id in bounds:
        spec = BOUNDS[bound_id]
        if spec.violation(ctx):
            continue
        if spec.family == "relation":
            out.extend(relations.relation_rows(ctx, bound_id))
        else:
            out.extend(regmaps.builtin_rows(ctx, bound_id))
    out.sort(key=lambda rec: (rec.bound_id, rec.params))
    return out


# A sweep runs its n range in chunks of at most this many n, and of at most
# a quarter of one worker's share of the range (of all of it, serially), so
# it holds the records of one chunk at a time.
_SERIAL_CHUNK = 200


def _sweep_chunk(task: tuple[int, int, tuple[str, ...], bool, str]) -> tuple:
    """(the report rows for n in [lo, hi], without the CSV header or the JSON
    brackets; the violation line of the first failing asserted row or None).

    Chunks are ascending, contiguous n ranges, so their rows joined in order
    are the whole report; a pool worker sends back text, not records.
    """
    lo, hi, bounds, squarefree_only, fmt = task
    records = []
    for n in range(lo, hi + 1):
        ctx = factorcore.DivisorContext(n)
        if squarefree_only and ctx.stats.v_max > 1:
            continue
        records.extend(_records_for_n(ctx, bounds))
    if fmt == "csv":
        body = format_records_csv(records)[len(CSV_HEADER):]
    else:
        body = format_records_json(records)[1:-2]
    return body, _violation_line(records)


def _cmd_factor(args: argparse.Namespace) -> int:
    f = factorcore.factor(args.n)
    print(" * ".join(f"{p}^{v}" if v > 1 else str(p) for p, v in f.parts) or "1")
    return 0


def _cmd_kappa(args: argparse.Namespace) -> int:
    print(_num(factorcore.kappa(factorcore.factor(args.n), args.j)))
    return 0


def _cmd_divisors(args: argparse.Namespace) -> int:
    divs = factorcore.divisors(factorcore.factor(args.n))
    print(" ".join(map(str, divs)))
    return 0


def _cmd_triples(args: argparse.Namespace) -> int:
    from . import relations
    print(relations.count_sum_triples(args.n))
    return 0


# _decimal_lines writes a column's digits once per run of equal values when
# it has at most one run per this many rows, and repeats their bytes.  On
# 400,000 random rows on a 2-core x86 box (best of 9), with one run per 20
# rows that took 5.9 ms for 9-digit and 8.4 ms for 13-digit values, against
# 7.3 and 21.9 ms for writing every row; with one run per 10 rows, 9.8 and
# 14.7 ms against 7.6 and 22.9 ms.  The energy cells' e has one run per 23
# to 303 rows at tau 96 to 1344.
_RUN_ROWS = 16


def _decimal_lines(*columns: np.ndarray) -> str:
    """One line per row of the aligned non-negative integer columns, the
    values in decimal, separated by spaces.

    int64 columns are written by numpy: each column takes one byte row per
    digit position, filled from the last digit, with 0 in place of leading
    zeros, and the zeros are dropped at the end.  A column in long runs of
    equal values (the energy cells' e) is written at the first row of each
    run and the bytes repeated.  Object columns, which hold Python ints of
    any size, go through str.
    """
    import numpy as np
    from .regmaps import _run_starts
    if any(c.dtype == object for c in columns):
        rows = zip(*(c.tolist() for c in columns))
        return "".join(" ".join(map(str, row)) + "\n" for row in rows)
    widths = [len(str(int(c.max()))) for c in columns]
    text = np.zeros((sum(widths) + len(columns), len(columns[0])), dtype=np.uint8)
    end = 0
    for c, width in zip(columns, widths):
        first = _run_starts(c)
        if len(first) * _RUN_ROWS <= len(c):
            block = np.zeros((width, len(first)), dtype=np.uint8)
            _digit_rows(c[first], block)
            text[end : end + width] = np.repeat(block, np.diff(first, append=len(c)), axis=1)
        else:
            _digit_rows(c, text[end : end + width])
        end += width
        text[end] = ord(" ")
        end += 1
    text[-1] = ord("\n")
    text = np.ascontiguousarray(text.T)  # one row per line
    return text[text != 0].tobytes().decode("ascii")


def _digit_rows(c: np.ndarray, rows: np.ndarray) -> None:
    """Write the decimal digits of c into rows, one row per digit position,
    the last digit in the last row, 0 in place of leading zeros."""
    import numpy as np
    # 9 digits stay below 2^32, and uint32 divides about twice as fast
    q = c.astype(np.uint32 if len(rows) <= 9 else np.uint64)
    digit, rest = np.empty_like(q), np.empty_like(q)
    for k in range(len(rows)):  # k-th digit from the right
        np.floor_divide(q, 10, out=rest)
        np.subtract(q, np.multiply(rest, 10, out=digit), out=digit)
        digit += ord("0")
        if k:
            digit *= q != 0  # past the first digit, q == 0 is a leading zero
        rows[-1 - k] = digit
        q, rest = rest, q


def _cmd_energy(args: argparse.Namespace) -> int:
    from . import relations
    if args.decompose:
        dec = relations.energy_decomposition(args.n)
        sys.stdout.write(_decimal_lines(dec.e, dec.m, dec.u))
        print(f"total {dec.total_energy}")
    else:
        print(relations.additive_energy(args.n))
    return 0


def _cmd_delta_hooley(args: argparse.Namespace) -> int:
    from . import relations
    print(relations.hooley_delta(args.n))
    return 0


def _cmd_residues(args: argparse.Namespace) -> int:
    from . import relations
    profile = relations.residue_profile(args.n, args.q)
    nonzero = {t + 1: c for t, c in enumerate(profile.counts) if c}
    eta = profile.eta if math.isfinite(profile.eta) else None  # JSON has no Infinity
    print(json.dumps({"n": profile.n, "q": profile.q, "h": profile.h_value,
                      "eta": eta, "counts": nonzero}, sort_keys=True, allow_nan=False))
    return 0


def _load_table(
    args: argparse.Namespace,
) -> tuple[regmaps.MapTable, factorcore.DivisorContext | None]:
    """The table of --file, with no context, so n is not factored; or the
    built-in table of --kind and --n with the context it was built on."""
    from . import regmaps
    if args.file:
        with open(args.file) as handle:
            return regmaps.map_from_json(handle.read()), None
    if args.kind and args.n is not None:
        ctx = factorcore.DivisorContext(args.n)
        return regmaps.build_builtin(args.kind, args.n, ctx=ctx), ctx
    raise DomainError("map: provide --file or both --kind and --n")


def _cmd_map(args: argparse.Namespace) -> int:
    from . import regmaps
    # The parser names no kind or bound id, so that it loads no regmaps; they
    # are checked here, with the library's words, before a table is read or built.
    if args.kind is not None and args.kind not in regmaps.BUILTIN_KINDS:
        raise DomainError(f"unknown builtin map kind: {args.kind!r}")
    if args.map_cmd == "bound" and getattr(registry().get(args.bound), "family", None) != "map":
        raise DomainError(f"unknown bound id: {args.bound}")
    if args.map_cmd == "build":
        table = regmaps.build_builtin(args.kind, args.n)
        text = regmaps.map_to_json(table)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        else:
            print(text)
        return 0
    if args.map_cmd == "check":
        table = _load_table(args)[0]
        report = regmaps.check_regularity(table)
        print(
            json.dumps(
                {
                    "n": table.n,
                    "j": table.j,
                    "size": regmaps.f_value(table),
                    "k1": report.k1,
                    "k2": report.k2,
                    "k3": report.k3,
                    "k": report.k,
                    "k_strong": report.k_strong,
                    "domain_regular": not regmaps.map_violations(table),
                },
                sort_keys=True,
            )
        )
        return 0
    table, ctx = _load_table(args)
    rec = regmaps.bound_check(table, args.bound, ctx=ctx)
    sys.stdout.write(format_records_csv([rec]))
    return _exit_code(_violation_line([rec]))


def _cmd_exact_e(args: argparse.Namespace) -> int:
    from . import regmaps
    print(regmaps.exact_E(args.n, args.j, args.k))
    return 0


def _analytic_params(args: argparse.Namespace) -> analytic.AnalyticParams:
    from . import analytic
    return analytic.AnalyticParams.from_alpha_r(
        args.alpha, args.r, delta=getattr(args, "delta", analytic.DELTA2)
    )


def _cmd_analytic(args: argparse.Namespace) -> int:
    from . import analytic
    # an --alpha or --r left out is analytic's constant, which the parser does not load
    args.alpha = analytic.ALPHA_STAR if getattr(args, "alpha", None) is None else args.alpha
    args.r = analytic.R_STAR if getattr(args, "r", None) is None else args.r
    if args.analytic_cmd == "eval":
        if args.fn == "f":
            print(_fmt(analytic.f_alpha(args.alpha, args.x)))
        elif args.fn == "ell":
            print(_fmt(analytic.ell_alpha(args.alpha, args.x)))
        else:
            beta = analytic.beta_for(args.alpha, args.r)
            print(_fmt(analytic.xi(args.x, args.alpha, beta, args.j, args.r)))
        return 0
    if args.analytic_cmd == "delta-j":
        print(_fmt(analytic.delta_j(args.j)))
        return 0
    if args.analytic_cmd == "verify-xi":
        cert = analytic.verify_xi_range(_analytic_params(args), args.vmax)
        print(json.dumps(cert.to_json_dict(), sort_keys=True))
        return 0 if cert.valid else 1
    if args.analytic_cmd == "tail":
        report = analytic.tail_check(_analytic_params(args), args.v)
        for s in report.samples:
            print(
                f"v={s.v} numerator_margin={_fmt(s.numerator_margin)} "
                f"arg2_margin={_fmt(s.arg2_margin)} ratio_margin={_fmt(s.ratio_margin)}"
            )
        return 0 if report.ok else 1
    if args.analytic_cmd == "optimize":
        alpha, r, delta = analytic.optimize_constants(args.vopt, args.vcertify)
        print(f"alpha={_fmt(alpha)} r={_fmt(r)} delta={_fmt(delta)}")
        return 0
    report = analytic.lemma45_scan()
    print(
        f"ratio_monotone={report.ratio_monotone} "
        f"domination_ok={report.domination_ok} "
        f"odd_power_sum_ok={report.odd_power_sum_ok}"
    )
    return 0 if report.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    bounds = tuple(args.bounds.split(","))
    # every bound registered, and with that every evaluator module loaded
    # here, so no pool worker imports one again
    specs = registry()
    for i, b in enumerate(bounds):
        if b not in specs or not specs[b].sweepable:
            raise DomainError(f"sweep: unknown bound id {b!r}")
        if b in bounds[:i]:
            raise DomainError(f"sweep: repeated bound id {b!r}")
    lo, hi = args.n_lo, args.n_hi
    if lo < 1 or hi < lo:
        raise DomainError(f"sweep: bad range [{lo}, {hi}]")
    if args.workers < 1:
        raise DomainError(f"sweep: --workers must be at least 1, got {args.workers}")
    task = (bounds, args.squarefree_only, args.format)
    size = min(_SERIAL_CHUNK, max(1, (hi - lo + 1) // (4 * args.workers)))
    tasks = ((start, min(hi, start + size - 1), *task) for start in range(lo, hi + 1, size))
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        import numpy  # loaded before the pool forks, so no worker imports it again
        tasks = list(tasks)
        # the pool forks every worker at once, so start no more than can run
        workers = min(args.workers, os.cpu_count() or 1, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_chunk, tasks))
    else:
        chunks = list(map(_sweep_chunk, tasks))
    bodies, violations = zip(*chunks)
    if args.format == "csv":
        text = CSV_HEADER + "".join(bodies)
    else:
        text = "[" + ",".join(body for body in bodies if body) + "]\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
    return _exit_code(next(filter(None, violations), None))


def _cmd_split_thm4(args: argparse.Namespace) -> int:
    from . import analytic
    res = analytic.thm4_split(args.n, args.q)
    print(
        json.dumps(
            {
                "n": res.n,
                "q": res.q,
                "eta": res.eta,
                "epsilon": res.epsilon,
                "trivial": res.trivial,
                "a": res.a,
                "b": res.b,
                "split_size": res.split_size,
            },
            sort_keys=True,
        )
    )
    return _exit_code(_violation_line(res.records))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divrel",
        description="Divisor-set relation counts, regular divisor maps, and bound reports.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("factor", help="prime factorization")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("kappa", help="ordered pairwise-coprime divisor tuple count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    p = sub.add_parser("divisors", help="sorted divisor list")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("triples", help="count of d1 + d2 = d3 in divisors")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("energy", help="additive energy of the divisor set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--decompose", action="store_true", help="print (e, m, u) rows")

    p = sub.add_parser("delta-hooley", help="max divisors in a window (x, e*x]")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("residues", help="divisor counts per residue class mod q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("map", help="build/check/bound explicit divisor maps")
    msub = p.add_subparsers(dest="map_cmd", required=True)
    mb = msub.add_parser("build", help="emit a built-in map table as JSON")
    mb.add_argument("--kind", required=True)
    mb.add_argument("--n", type=int, required=True)
    mb.add_argument("--out", default=None)
    mc = msub.add_parser("check", help="regularity constants of a table")
    mc.add_argument("--file", default=None, help="map table JSON file")
    mc.add_argument("--kind", default=None)
    mc.add_argument("--n", type=int, default=None)
    mo = msub.add_parser("bound", help="check one bound for a table")
    mo.add_argument("--file", default=None)
    mo.add_argument("--kind", default=None)
    mo.add_argument("--n", type=int, default=None)
    mo.add_argument("--bound", required=True)

    p = sub.add_parser("exact-e", help="exhaustive max domain size of k-regular maps")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("analytic", help="weight functions, certificates, optimization")
    asub = p.add_subparsers(dest="analytic_cmd", required=True)
    ae = asub.add_parser("eval", help="evaluate f, ell, or xi at a point")
    ae.add_argument("--fn", choices=("f", "ell", "xi"), required=True)
    ae.add_argument("--alpha", type=float, required=True)
    ae.add_argument("--x", type=float, required=True)
    ae.add_argument("--j", type=int, default=2)
    ae.add_argument("--r", type=float, default=None)
    ad = asub.add_parser("delta-j", help="exponent saving at arity j")
    ad.add_argument("--j", type=int, required=True)
    av = asub.add_parser("verify-xi", help="scan xi(v)/log(j*v+1) >= delta")
    av.add_argument("--alpha", type=float, required=True)
    av.add_argument("--r", type=float, required=True)
    av.add_argument("--delta", type=float, required=True)
    av.add_argument("--vmax", type=int, required=True)
    at = asub.add_parser("tail", help="large-v envelope checks")
    at.add_argument("--alpha", type=float, default=None)
    at.add_argument("--r", type=float, default=None)
    at.add_argument("--v", type=int, nargs="+", default=(10**6, 10**7, 10**9))
    ao = asub.add_parser("optimize", help="re-derive (alpha, r) by direct search")
    ao.add_argument("--vopt", type=int, default=10_000)
    ao.add_argument("--vcertify", type=int, default=10**6)
    asub.add_parser("lemmas", help="grid checks behind the concentration bounds")

    p = sub.add_parser("sweep", help="evaluate bounds over an n range; emit report")
    p.add_argument("--bounds", required=True, help="comma-separated bound ids")
    p.add_argument("--n-lo", type=int, default=1)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--squarefree-only", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("split-thm4", help="coprime split n = a*b for coprime q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser()'s parser, built on the first call in a process.

    parse_args leaves a parser as it was, the parser holds no handler (main
    finds `_cmd_<command>` by name at each call) and every default is
    immutable, so one parser serves every later call.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()["_cmd_" + args.cmd.replace("-", "_")](args)
    except DomainError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: resource: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, never a bound verdict
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
