"""The three divrel workloads: seeded inputs, the operations, and their checks.

Each workload is a closed loop with one client.  It runs in rounds of fixed
composition; round r's inputs depend only on (workload, seed, r).
`round_seconds` is a round's wall time at the commit that defined the
benchmark (2-core x86 box); a run of --seconds S does round(S / round_seconds)
rounds, so every commit does the same work for the same S.  Every
operation's output is checked; a failed check is reported as a problem
string and the operation counts as failed.  The warm-up of each workload
runs fixed inputs, the roadmap's reference points among them, whose output
digests are recorded in digests.json, so every seed checks them exactly.

Each round reports
  latencies  seconds of every main-stream operation; a run's tail is the
             highest percentile with `tail_beyond` latencies above it;
  main_rates, side_rates
             rate samples (work units per second) of the main and the side
             stream.  The median over a run's samples shrugs off the slow
             spells a shared host goes through.
"""

from __future__ import annotations

import io
import json
import math
import random
import statistics
from dataclasses import dataclass, field

# The benchmark's own copy of divrel's bound ids and map kinds, so a change
# to divrel's registries cannot silently change what is measured.
RELATION_BOUND_IDS = ("corollary1", "eq4.1", "eq4.2", "thm3a", "thm3b", "lemma6", "corollary3")
MAP_BOUND_IDS = ("thm1a", "thm1b", "thm2a", "thm2b", "c2", "corollary2")
ALL_BOUNDS = ",".join(RELATION_BOUND_IDS + MAP_BOUND_IDS)
MAP_KINDS = ("sum", "successor", "midpoint-exact", "midpoint-floor")
# The literal eq4.2 cell bound is false as printed (tier-1 criterion-04), so a
# sweep that includes it exits 1 with failing eq4.2 rows; nothing else may fail.
EXPECTED_FALSE_BOUND = "eq4.2"
# Samples the tail percentile leaves above it, where a run has enough.
TAIL_BEYOND = 10

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass
class Round:
    latencies: list[float] = field(default_factory=list)
    main_rates: list[float] = field(default_factory=list)
    side_rates: list[float] = field(default_factory=list)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def big_prime(rng: random.Random) -> int:
    """A prime in (10^7, 2*10^7): above divrel's sieve, so factor() uses Miller-Rabin."""
    while True:
        p = rng.randrange(10**7 + 1, 2 * 10**7, 2)
        if is_prime(p):
            return p


def factor_string(parts: list[tuple[int, int]]) -> str:
    """The text `divrel factor` prints for these prime powers."""
    return " * ".join(f"{p}^{v}" if v > 1 else str(p) for p, v in sorted(parts)) or "1"


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


# divrel grows its smallest-prime-factor sieve to cover the largest cofactor
# below 10^7 it has had to factor.  On concentration that cofactor, and so
# the sieve's size (up to 80 MB), depends on the seed; factoring a number
# just below 10^7 in the warm-up grows the sieve to its full size at once.
# (point-hc's largest sieved cofactor is below 2^19 on every seed.)
SIEVE_FILLER = 9_999_991


def warm_sieve(ctx) -> None:
    def check(out) -> list[str]:
        if out.error or out.rc != 0:
            return [f"exit {out.rc} {out.error or ''}"]
        product = 1
        for tok in out.out.strip().split(" * "):
            p, _, v = tok.partition("^")
            product *= int(p) ** int(v or 1)
        return [] if product == SIEVE_FILLER else [f"factors {out.out.strip()!r}"]

    ctx.cli("warmup sieve", ["factor", "--n", str(SIEVE_FILLER)], check)


def check_sweep(out) -> list[str]:
    """Exit-code and row rules for one `divrel sweep` CSV report."""
    problems = []
    if out.error:
        return [f"raised {out.error}"]
    if out.rc not in (0, 1):
        return [f"exit code {out.rc}"]
    lines = out.out.splitlines()
    if not lines or lines[0] != "n,bound_id,lhs,log_rhs,margin,pass,params":
        return ["missing CSV header"]
    expected_false = 0
    for line in lines[1:]:
        cols = line.split(",")
        if len(cols) != 7 or cols[5] not in ("true", "false"):
            problems.append(f"malformed row {line!r}")
        elif cols[5] == "false":
            if cols[1] == EXPECTED_FALSE_BOUND:
                expected_false += 1
            else:
                problems.append(f"failing row {line!r}")
    if (out.rc == 1) != (expected_false > 0):
        problems.append(f"exit code {out.rc} with {expected_false} failing {EXPECTED_FALSE_BOUND} rows")
    return problems


# -- sweep-small -------------------------------------------------------------


class SweepSmall:
    """All 13 bound ids over contiguous windows of 1000 small n.

    Round r sweeps n in [first + 1000 r, first + 1000 r + 999], where the
    seed puts first in 201..700, so no n is swept twice and the warm-up's
    fixed window (n <= 200) stays apart.  Each window is swept once with
    `--workers 2` and once serially (the pool goes first, so its forked
    workers never inherit anything the serial sweep computed).
    """

    name = "sweep-small"
    round_seconds = 5.2
    window = 1000
    # Four windows in a 20 s run: too few for a percentile with ten samples
    # above it.  The tail leaves one window above it (the 75th percentile),
    # because the slowest window alone swings by a fifth from run to run.
    tail_beyond = 1
    warmup_hi = 200

    def __init__(self, seed: int) -> None:
        self.first = random.Random(f"{self.name}:{seed}").randrange(self.warmup_hi + 1, self.warmup_hi + 501)

    def argv(self, lo: int, hi: int) -> list[str]:
        return ["sweep", "--bounds", ALL_BOUNDS, "--n-lo", str(lo), "--n-hi", str(hi)]

    def probe(self) -> tuple[list[str], callable]:
        return self.argv(self.first, self.first), check_sweep

    def warmup(self, ctx) -> None:
        """Start the first pool, then check the JSON round trip on a fixed window."""
        from divrel import cli as divrel_cli

        argv = self.argv(1, self.warmup_hi)
        ctx.cli("warmup w2", argv + ["--workers", "2"], check_sweep)
        csv = ctx.cli("warmup csv", argv, check_sweep)
        js = ctx.cli("warmup json", argv + ["--format", "json"], lambda o: [f"raised {o.error}"] if o.error else [])
        if js.error is None:
            again = divrel_cli.format_records_csv(divrel_cli.parse_records_json(js.out))
            if again != csv.out:
                ctx.fail(js, "JSON report read back does not re-emit the CSV report")

    def run_round(self, ctx, r: int) -> Round:
        res = Round()
        lo = self.first + self.window * r
        argv = self.argv(lo, lo + self.window - 1)
        par = ctx.cli(f"w2 {lo}", argv + ["--workers", "2"], check_sweep)
        ser = ctx.cli(f"serial {lo}", argv, check_sweep)
        if par.out != ser.out:
            ctx.fail(ser, "serial and --workers 2 reports differ")
        ctx.rows += max(0, ser.out.count("\n") - 1)
        res.latencies.append(ser.seconds)
        res.main_rates.append(self.window / ser.seconds)
        res.side_rates.append(self.window / par.seconds)
        return res


# -- point-hc ----------------------------------------------------------------

# (exponents, fixed primes, seeded pool for the remaining primes, whether a
# prime cofactor > 10^7 is added).  The first three exponents sit on 2, 3, 5;
# narrow pools keep each member's cost close to the same across seeds.
HC_TEMPLATES = (
    ((6, 3, 2, 1, 1, 1, 1), (7, 11, 13), (17, 19, 23), False),  # tau 1344, like 735134400
    ((1,) * 8, (7, 11, 13), (17, 19, 23), False),  # squarefree, tau 256, like 9699690
    ((4, 2, 1, 1, 1, 1), (7, 11), (13, 17, 19, 23), True),  # tau 480
    ((3, 3, 2, 1, 1, 1), (7, 11), (13, 17, 19, 23), False),  # tau 384
    ((2, 2, 2, 1, 1, 1), (7, 11), (13, 17, 19, 23), True),  # tau 432
)
SQUAREFREE_SWEEP_BOUNDS = ("corollary3", "thm3a", "eq4.1")


@dataclass(frozen=True)
class Member:
    n: int
    parts: tuple[tuple[int, int], ...]
    q: int

    @property
    def tau(self) -> int:
        return math.prod(v + 1 for _, v in self.parts)

    @property
    def squarefree(self) -> bool:
        return all(v == 1 for _, v in self.parts)


def hc_member(
    rng: random.Random, exps: tuple[int, ...], fixed: tuple[int, ...], pool: tuple[int, ...], cofactor: bool
) -> Member:
    """2, 3, 5, the fixed primes and seeded primes from pool carry exps."""
    primes = [2, 3, 5, *fixed] + sorted(rng.sample(pool, len(exps) - 3 - len(fixed)))
    parts = list(zip(primes, exps))
    if cofactor:
        parts.append((big_prime(rng), 1))
    n = math.prod(p**v for p, v in parts)
    q = rng.choice([p for p in range(101, 998) if is_prime(p)])
    return Member(n, tuple(sorted(parts)), q)


HC_REFERENCE_POINTS = (
    Member(735134400, ((2, 6), (3, 3), (5, 2), (7, 1), (11, 1), (13, 1), (17, 1)), 101),  # tau 1344
    Member(9699690, tuple((p, 1) for p in SMALL_PRIMES[:8]), 101),  # tau 256, squarefree
)


class PointHC:
    """CLI point queries on seeded highly composite n, tau 256..1344."""

    name = "point-hc"
    round_seconds = 12.5
    tail_beyond = TAIL_BEYOND

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rounds: dict[int, list[Member]] = {}

    def members(self, r: int) -> list[Member]:
        if r not in self._rounds:
            rng = random.Random(f"{self.name}:{self.seed}:{r}")
            members = [hc_member(rng, *template) for template in HC_TEMPLATES]
            rng.shuffle(members)
            self._rounds[r] = members
        return self._rounds[r]

    def probe(self) -> tuple[list[str], callable]:
        m = next(m for m in self.members(0) if m.parts[-1][0] > 10**7)
        want = factor_string(list(m.parts))

        def check(out) -> list[str]:
            if out.error or out.rc != 0:
                return [f"exit {out.rc} {out.error or ''}"]
            return [] if out.out.strip() == want else [f"factor {m.n}: {out.out.strip()!r} != {want!r}"]

        return ["factor", "--n", str(m.n)], check

    def warmup(self, ctx) -> None:
        """Every query on the roadmap's two reference points."""
        for m in HC_REFERENCE_POINTS:
            self.queries(ctx, m, Round(), [], [])

    def run_round(self, ctx, r: int) -> Round:
        """Main rate: divisor pairs per second of the pair-sum queries; side
        rate: table cells (tau^2) per second of the map queries.  Query
        kinds differ several-fold in cost per pair, so a round's sample is
        the geometric mean over its queries, which no gap between kinds can
        swing the way it swings a median."""
        res, pairs, cells = Round(), [], []
        for m in self.members(r):
            self.queries(ctx, m, res, pairs, cells)
        res.main_rates.append(statistics.geometric_mean(pairs))
        res.side_rates.append(statistics.geometric_mean(cells))
        return res

    def queries(self, ctx, m: Member, res: Round, pairs: list[float], cells: list[float]) -> None:
        n, tau = str(m.n), m.tau
        label = f"n={m.n}"

        def ok_int(lo: int, hi: float):
            def check(out) -> list[str]:
                if out.error or out.rc != 0:
                    return [f"exit {out.rc} {out.error or ''}"]
                vals = _ints(out.out)
                return [] if len(vals) == 1 and lo <= vals[0] <= hi else [f"value {out.out.strip()!r}"]
            return check

        def query(what: str, argv: list[str], check, rates: list[float] | None = None) -> str:
            out = ctx.cli(f"{label} {what}", argv, check)
            res.latencies.append(out.seconds)
            if rates is not None:
                rates.append(tau * tau / out.seconds)
            return out.out

        query("triples", ["triples", "--n", n], ok_int(0, tau * tau), pairs)
        energy = query("energy", ["energy", "--n", n], ok_int(2 * tau * tau - tau, tau**3), pairs)
        query("energy --decompose", ["energy", "--n", n, "--decompose"],
              lambda o: _check_decompose(o, energy, tau), pairs)
        query("delta-hooley", ["delta-hooley", "--n", n], ok_int(1, tau))
        query("residues", ["residues", "--n", n, "--q", str(m.q)], lambda o: _check_residues(o, m))
        for kind in MAP_KINDS:
            query(f"map check {kind}", ["map", "check", "--kind", kind, "--n", n],
                  lambda o, k=kind: _check_map(o, m, k), cells)
        query("map bound", ["map", "bound", "--kind", "midpoint-floor", "--n", n, "--bound", "thm1a"],
              lambda o: _check_rows(o, m, "thm1a", 1), cells)
        if m.squarefree:
            for bound in SQUAREFREE_SWEEP_BOUNDS:
                argv = ["sweep", "--bounds", bound, "--n-lo", n, "--n-hi", n]
                rows = tau if bound == "eq4.1" else 1
                text = query(f"sweep {bound}", argv, lambda o, b=bound, k=rows: _check_rows(o, m, b, k))
                ctx.rows += max(0, text.count("\n") - 1)


def _check_decompose(out, energy_text: str, tau: int) -> list[str]:
    if out.error or out.rc != 0:
        return [f"exit {out.rc} {out.error or ''}"]
    head, _, last = out.out.rstrip("\n").rpartition("\n")
    if not last.startswith("total "):
        return ["no total line"]
    total = int(last[6:])
    s1 = s2 = 0
    for line in io.StringIO(head):  # line by line: the text can hold 10^6 rows
        u = int(line.rsplit(" ", 1)[1])
        s1 += u
        s2 += u * u
    problems = []
    if energy_text.strip() != str(total):
        problems.append(f"energy {energy_text.strip()} != decomposition total {total}")
    if s2 != total:
        problems.append(f"sum of u^2 {s2} != total {total}")
    if s1 != tau * tau:
        problems.append(f"sum of u {s1} != tau^2 {tau * tau}")
    return problems


def _check_residues(out, m: Member) -> list[str]:
    if out.error or out.rc != 0:
        return [f"exit {out.rc} {out.error or ''}"]
    obj = json.loads(out.out)
    counts = obj["counts"].values()
    problems = []
    if (obj["n"], obj["q"]) != (m.n, m.q):
        problems.append("wrong n or q")
    if sum(counts) != m.tau:
        problems.append(f"class counts sum to {sum(counts)}, tau is {m.tau}")
    if obj["h"] != sum(c * c for c in counts):
        problems.append("h is not the sum of squared class counts")
    return problems


def _check_map(out, m: Member, kind: str) -> list[str]:
    if out.error or out.rc != 0:
        return [f"exit {out.rc} {out.error or ''}"]
    obj = json.loads(out.out)
    problems = []
    if obj["n"] != m.n or obj["j"] != (1 if kind == "successor" else 2):
        problems.append("wrong n or j")
    if not obj["domain_regular"]:
        problems.append("built-in table breaks the domain contract")
    if obj["size"] > 0 and not 1 <= obj["k"] <= obj["size"]:
        problems.append(f"k = {obj['k']} outside 1..size")
    return problems


def _check_rows(out, m: Member, bound: str, rows: int) -> list[str]:
    if out.error or out.rc != 0:
        return [f"exit {out.rc} {out.error or ''}"]
    lines = out.out.splitlines()[1:]
    problems = [] if len(lines) == rows else [f"{len(lines)} rows, expected {rows}"]
    for line in lines:
        cols = line.split(",")
        if cols[0] != str(m.n) or cols[1] != bound or cols[5] != "true":
            problems.append(f"row {line!r}")
    return problems


# -- concentration -----------------------------------------------------------

# (exponents on seeded small primes, arity j, alpha).  An odd number of
# slots puts the median s_bounds call inside one slot's cluster of
# latencies, never in the gap between two.
CONC_SLOTS = (
    ((1,) * 10, 2, 0.2),  # 59049 tuples
    ((1,) * 8, 3, 0.1),  # 65536
    ((2, 2, 2, 1, 1, 1, 1, 1), 2, 1 / 3),  # 30375
    ((3, 2, 1, 1, 1, 1), 3, 0.2),  # 17920
    ((2, 2, 1, 1, 1, 1, 1), 2, 0.2),  # 6075
    ((1,) * 6, 3, 1 / 3),  # 4096
    ((3, 2, 1, 1, 1, 1), 2, 0.1),  # 2835
    ((1,) * 9, 1, 0.2),  # 512
    ((3, 2, 1, 1, 1, 1), 1, 1 / 3),  # 192
)


class Concentration:
    """analytic.s_bounds on seeded squarefree and smooth n, then certification."""

    name = "concentration"
    round_seconds = 0.55
    tail_beyond = TAIL_BEYOND

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, r: int) -> list[tuple[int, tuple[tuple[int, int], ...], int, float]]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        out = []
        for exps, j, alpha in CONC_SLOTS:
            primes = sorted(rng.sample(SMALL_PRIMES, len(exps)))
            parts = tuple(zip(primes, sorted(exps, reverse=True)))
            out.append((math.prod(p**v for p, v in parts), parts, j, alpha))
        rng.shuffle(out)
        return out

    def probe(self) -> tuple[list[str], callable]:
        def check(out) -> list[str]:
            return [] if out.rc == 0 and out.out.startswith("alpha=") else [f"exit {out.rc} {out.error or ''}"]

        return ["analytic", "optimize", "--vopt", "64", "--vcertify", "64"], check

    def certify_commands(self, analytic) -> list[tuple[str, list[str], callable, bool]]:
        params = ["--alpha", repr(analytic.ALPHA_STAR), "--r", repr(analytic.R_STAR), "--delta", repr(analytic.DELTA2)]

        def verify(out) -> list[str]:
            if out.error or out.rc != 0:
                return [f"exit {out.rc} {out.error or ''}"]
            cert = json.loads(out.out)
            return [] if cert["min_margin"] >= 0 and cert["v_max"] == 10**6 else ["certificate invalid"]

        def all_ok(out) -> list[str]:
            if out.error or out.rc != 0:
                return [f"exit {out.rc} {out.error or ''}"]
            return [] if "False" not in out.out and out.out.strip() else ["a check reports False"]

        def optimum(out) -> list[str]:
            if out.error or out.rc != 0:
                return [f"exit {out.rc} {out.error or ''}"]
            vals = dict(tok.split("=") for tok in out.out.split())
            alpha, r, delta = (float(vals[k]) for k in ("alpha", "r", "delta"))
            if abs(alpha - analytic.ALPHA_STAR) > 1e-6 or abs(r - analytic.R_STAR) > 1e-6:
                return [f"optimum moved: {out.out.strip()}"]
            return [] if delta >= analytic.DELTA2 else [f"delta {delta} below {analytic.DELTA2}"]

        # (label, argv, check, exact).  numpy's vectorised log and exp may
        # round differently on other CPUs, so the outputs of verify-xi and
        # optimize are not exact and get no digest.
        return [
            ("verify-xi", ["analytic", "verify-xi", *params, "--vmax", "1000000"], verify, False),
            ("tail", ["analytic", "tail"], all_ok, True),
            ("lemmas", ["analytic", "lemmas"], all_ok, True),
            ("optimize", ["analytic", "optimize"], optimum, False),
        ]

    def warmup(self, ctx) -> None:
        """Grow the sieve, run the certification once and the roadmap's
        reference point s_bounds(6469693230, j=2)."""
        from divrel import analytic

        warm_sieve(ctx)
        for what, argv, check, exact in self.certify_commands(analytic):
            ctx.cli(f"warmup {what}", argv, check, exact)
        n = math.prod(SMALL_PRIMES[:10])
        self._s_bounds(ctx, analytic, n, tuple((p, 1) for p in SMALL_PRIMES[:10]), 2, analytic.ALPHA_STAR)

    @staticmethod
    def _s_bounds(ctx, analytic, n, parts, j, alpha):
        kappa = math.prod(j * v + 1 for _, v in parts)
        out = ctx.call(f"s_bounds n={n} j={j} alpha={alpha!r}", lambda: analytic.s_bounds(n, j, alpha),
                       render_records, _check_s_bounds(n, kappa))
        return out, kappa

    def run_round(self, ctx, r: int) -> Round:
        from divrel import analytic

        res = Round()
        tuples = 0
        for n, parts, j, alpha in self.inputs(r):
            out, kappa = self._s_bounds(ctx, analytic, n, parts, j, alpha)
            res.latencies.append(out.seconds)
            tuples += kappa
        res.main_rates.append(tuples / sum(res.latencies))
        certify_s = 0.0
        for what, argv, check, exact in self.certify_commands(analytic):
            certify_s += ctx.cli(what, argv, check, exact).seconds
        res.side_rates.append(1 / certify_s)
        return res


def render_records(records) -> str:
    """The exact fields of bound-check records, one line each."""
    return "".join(f"{r.bound_id},{r.n},{r.lhs},{r.passed}\n" for r in records)


def _check_s_bounds(n: int, kappa: int):
    def check(out) -> list[str]:
        if out.error:
            return [f"raised {out.error}"]
        problems = []
        for line in out.out.splitlines():
            bound_id, rn, lhs, passed = line.split(",")
            if int(rn) != n or not 0 <= int(lhs) <= kappa:
                problems.append(f"row {line!r} outside 0..kappa={kappa}")
            if passed != "True":
                problems.append(f"{bound_id} fails at n={n}")
        return problems

    return check


WORKLOADS = {w.name: w for w in (SweepSmall, PointHC, Concentration)}
