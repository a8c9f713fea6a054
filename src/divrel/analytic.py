"""Concentration machinery for coprime divisor tuples.

Exponential-moment bounds for the additive weight h (built from u_weight)
concentrate the tuple counts S- and S+ below kappa_j(n)^(1-delta).  The
functions here evaluate those bounds, certify the v-wise inequality that
pins down the arity-2 constant delta = 0.045072, and re-derive the
underlying (alpha, r) pair by direct optimization.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import factorcore
from .errors import DomainError, ResourceLimitError, _num
from .records import BOUNDS, DELTA2, LOG_SLACK, BoundCheckRecord, BoundSpec, make_record

# The weight parameters achieving the arity-2 saving DELTA2 (defined in
# records).  beta is always derived from (alpha, r), never free.
ALPHA_STAR = 0.2288541994
R_STAR = 0.692466598

# Conjectured limit of the arity-2 saving if squarefree n were extremal.
DELTA2_CONJECTURED = 1 - 1.5 * math.log(2) / math.log(3)

# Large-v envelope constants for the arity-2 ratio xi(v)/log(2v+1):
# the numerator inside xi's first logarithm stays below
# TAIL_NUM_COEFF*(2v+1)^TAIL_NUM_EXPONENT, the argument of its second
# logarithm stays above TAIL_ARG2_COEFF*(2v+1), and the ratio itself stays
# above TAIL_DELTA_FLOOR + TAIL_LOG_TERM/log(2v+1), for every v >= TAIL_MIN_V.
TAIL_MIN_V = 10**6
TAIL_NUM_COEFF = 0.11994463
TAIL_NUM_EXPONENT = 2.181707220906701759
TAIL_ARG2_COEFF = 0.29677163413447
TAIL_DELTA_FLOOR = 0.0450722
TAIL_LOG_TERM = 0.63

# Points per block of the xi-ratio scan: each 128 KiB temporary stays in L2.
_XI_CHUNK = 1 << 14
# Tuple coordinates per block of s_bounds' walk, 512 KiB of float64 weights.
_S_BLOCK = 1 << 16
# Most points one xi-ratio scan may take, about 3.6 s at 0.036 s per 10^6 points.
_XI_MAX_POINTS = 10**8

# s_bounds and thm4_split produce these asserted rows in pairs, so they have
# no evaluator of their own.
BOUNDS.update(
    {b: BoundSpec("analytic", True) for b in ("s_minus", "s_plus", "thm4_split_a", "thm4_split_b")}
)


def beta_for(alpha: float, r: float) -> float:
    """The tilt exponent paired with (alpha, r): (2+r)/(1+r)*(1-alpha) - 1."""
    if r == -1:  # other r < 0 give a beta that xi then refuses
        raise DomainError("beta_for: r = -1 is the pole of (2+r)/(1+r)")
    return (2 + r) / (1 + r) * (1 - alpha) - 1


@dataclass(frozen=True)
class AnalyticParams:
    alpha: float
    beta: float
    r: float
    j: int
    delta: float

    @classmethod
    def from_alpha_r(
        cls, alpha: float, r: float, j: int = 2, delta: float = DELTA2
    ) -> "AnalyticParams":
        return cls(alpha, beta_for(alpha, r), r, j, delta)


def standard_params() -> AnalyticParams:
    """The parameter set realizing delta = 0.045072 at arity 2."""
    return AnalyticParams.from_alpha_r(ALPHA_STAR, R_STAR)


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < 1:
        raise DomainError(f"alpha must lie in [0, 1), got {_num(alpha)}")


# One body per weight formula, over a math namespace xp: math for the public
# scalar functions, numpy for grids.  numpy's log and exp may differ from
# math's in the last bit, so scalars never go through numpy.
def _f(xp, alpha: float, x):
    return -(1 - alpha) * x / (x + 1) * math.log(1 / (1 - alpha)) + (
        alpha * x + 1
    ) / (x + 1) * xp.log(alpha * x + 1)


def _ell(xp, alpha: float, x):
    return (1 + alpha) * x / (x + 1) * xp.log((alpha * x + 1) / (1 - alpha)) - xp.log(
        (alpha * (x - 1) + 1) / (1 - alpha)
    )


def _u(xp, alpha: float, j: int, v):
    return j * xp.log((alpha * j * v + 1) / (1 - alpha))


def _xi_terms(xp, v, alpha: float, beta: float, j: int, r: float) -> tuple:
    """(the numerator inside xi's first logarithm, xi) at v."""
    u = _u(xp, alpha, j, v)
    s = 1 + (j - 1) * r
    num = 1 + v * xp.exp(u / s) + (j - 1) * v * xp.exp(r * u / s)
    t = j * v + 1
    return num, -xp.log(num / t) + (1 + beta) * v * u / t


def _scalar(refused: str, body, *args):
    """body over math; refused as "<refused> too large for float64
    evaluation" where it overflows, raising (an int argument past float
    range: converting it to float first would round x / (x + 1) differently)
    or giving a value, or a tuple's first element, that is not finite."""
    try:
        value = body(math, *args)
        if math.isfinite(value[0] if type(value) is tuple else value):
            return value
    except OverflowError:
        pass
    raise DomainError(f"{refused} too large for float64 evaluation")


def f_alpha(alpha: float, x: float) -> float:
    """-(1-a)*x/(x+1)*log(1/(1-a)) + (a*x+1)/(x+1)*log(a*x+1), for x >= 0."""
    _check_alpha(alpha)
    if not 0 <= x < math.inf:  # also refuses NaN
        raise DomainError(f"f_alpha: x must be finite and >= 0, got {_num(x)}")
    return _scalar(f"f_alpha: x = {_num(x)} is", _f, alpha, x)


def ell_alpha(alpha: float, x: float) -> float:
    """(1+a)*x/(x+1)*log((a*x+1)/(1-a)) - log((a*(x-1)+1)/(1-a)), for x >= 1.

    Dominates f_alpha on x >= 1, with equality at x = 1.
    """
    _check_alpha(alpha)
    if not 1 <= x < math.inf:
        raise DomainError(f"ell_alpha: x must be finite and >= 1, got {_num(x)}")
    return _scalar(f"ell_alpha: x = {_num(x)} is", _ell, alpha, x)


def _check_u(alpha: float, j: int, v: float) -> None:
    _check_alpha(alpha)
    if j < 1:
        raise DomainError(f"u_weight: j must be >= 1, got {_num(j)}")
    if not 1 <= v < math.inf:  # exact for huge integer v
        raise DomainError(f"u_weight: v must be >= 1 and finite, got {_num(v)}")


def u_weight(alpha: float, j: int, v: float) -> float:
    """Per-prime additive weight j*log((alpha*j*v+1)/(1-alpha))."""
    _check_u(alpha, j, v)
    return _scalar(f"u_weight: v = {_num(v)} and j = {_num(j)} are", _u, alpha, j, v)


def h_value(alpha: float, j: int, f: factorcore.Factorization, d: int) -> float:
    """Additive weight of a divisor d: sum of u_weight over primes dividing d.

    The weight of p is set by p's exponent in n, not its exponent in d.
    """
    if d < 1 or f.n % d != 0:
        raise DomainError(f"h_value: {_num(d)} does not divide {_num(f.n)}")
    return sum(u_weight(alpha, j, v) for p, v in f.parts if d % p == 0)


def a_mean(alpha: float, j: int, f: factorcore.Factorization) -> float:
    """Average of h over one coordinate of a coprime j-tuple."""
    _check_alpha(alpha)
    if j < 1:
        raise DomainError(f"a_mean: j must be >= 1, got {_num(j)}")
    return sum(v * u_weight(alpha, j, v) / (j * v + 1) for _, v in f.parts)


def _check_xi(v: float, alpha: float, beta: float, j: int, r: float) -> None:
    _check_u(alpha, j, v)  # first, as a bad alpha also makes beta < 0
    if not (0 <= beta < math.inf and 0 <= r < math.inf):  # also refuses NaN
        raise DomainError(
            f"xi: beta and r must be finite and >= 0, got beta={_num(beta)}, r={_num(r)}"
        )


def _xi_refused(v: float, j: int) -> str:
    """How xi and its scan name a (v, j) whose numerator overflows."""
    return f"xi: v = {_num(v)} and j = {_num(j)} are"


def _xi_scalar(v: float, alpha: float, beta: float, j: int, r: float) -> tuple:
    """_xi_terms over math after _check_xi; refused where the numerator overflows."""
    _check_xi(v, alpha, beta, j, r)
    return _scalar(_xi_refused(v, j), _xi_terms, v, alpha, beta, j, r)


def xi(v: float, alpha: float, beta: float, j: int, r: float) -> float:
    """Per-prime exponent gained by the tilted second-moment bound.

    xi(x/j, alpha, alpha, j, 1) collapses to ell_alpha(x).
    """
    return _xi_scalar(v, alpha, beta, j, r)[1]


def _check_scan_size(v_max: int) -> None:
    if v_max < 1:
        raise DomainError(f"xi scan: v_max must be >= 1, got {_num(v_max)}")
    if v_max > _XI_MAX_POINTS:
        raise ResourceLimitError(f"xi scan: v_max = {_num(v_max)} exceeds cap {_XI_MAX_POINTS}")


@functools.lru_cache(maxsize=4)
def _xi_columns(j: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 (v, log(j*v+1)) for v = lo..hi: the scan's
    parameter-free columns, kept for at most four blocks (1 MiB)."""
    import numpy as np
    v = np.arange(lo, hi + 1, dtype=np.float64)
    log_t = np.log(j * v + 1)
    v.flags.writeable = log_t.flags.writeable = False  # shared by every scan
    return v, log_t


def _xi_margin_scan(params: AnalyticParams, v_max: int) -> tuple[float, int]:
    """(min over v = 1..v_max of xi(v)/log(j*v+1) - delta, first v attaining it),
    in float64 blocks of _XI_CHUNK points; parameters, and float overflow
    in the numerator, are refused as by xi."""
    import numpy as np
    _check_scan_size(v_max)
    alpha, beta, j, r = params.alpha, params.beta, params.j, params.r
    _check_xi(1, alpha, beta, j, r)
    if not math.isfinite(params.delta):
        raise DomainError(f"xi scan: delta must be finite, got {params.delta}")
    min_margin = math.inf
    argmin_v = 1
    for lo in range(1, v_max + 1, _XI_CHUNK):
        v, log_t = _xi_columns(j, lo, min(v_max, lo + _XI_CHUNK - 1))
        with np.errstate(over="ignore", invalid="ignore"):
            num, margins = _xi_terms(np, v, alpha, beta, j, r)
        margins /= log_t
        margins -= params.delta
        i = int(np.argmin(margins))
        # a numerator that is not finite makes the least margin -inf or NaN
        if not math.isfinite(margins[i]) and not np.isfinite(num).all():
            v_bad = lo + int(np.argmin(np.isfinite(num)))
            raise DomainError(f"{_xi_refused(v_bad, j)} too large for float64 evaluation")
        if margins[i] < min_margin:
            min_margin = float(margins[i])
            argmin_v = lo + i
    return min_margin, argmin_v


@functools.lru_cache(maxsize=16)
def delta_j(j: int) -> float:
    """Exponent saving at arity j: f_{1/(2j+1)}(j) / log(j+1).

    At j = 1 this equals 1 - (log 3/log 2 - 2/3) exactly.  Kept per j: the
    map bound thm1a reads it on every row.
    """
    if j < 1:
        raise DomainError(f"delta_j: j must be >= 1, got {_num(j)}")
    return _scalar(f"delta_j: j = {_num(j)} is", _f, 1 / (2 * j + 1), j) / math.log(j + 1)


@dataclass(frozen=True)
class XiCertificate:
    """Outcome of checking xi(v)/log(j*v+1) >= delta for v = 1..v_max."""

    params: AnalyticParams
    v_max: int
    min_margin: float
    argmin_v: int
    tail_checked: bool

    @property
    def valid(self) -> bool:
        return self.min_margin >= 0

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "r": self.params.r,
            "delta": self.params.delta,
            "v_max": self.v_max,
            "min_margin": self.min_margin,
            "argmin_v": self.argmin_v,
            "tail_checked": self.tail_checked,
        }


def verify_xi_range(
    params: AnalyticParams, v_max: int, tail_samples: Iterable[int] = ()
) -> XiCertificate:
    """Scan v = 1..v_max for the minimal margin of xi(v)/log(j*v+1) - delta."""
    min_margin, argmin_v = _xi_margin_scan(params, v_max)
    samples = tuple(tail_samples)
    tail_checked = bool(samples) and tail_check(params, samples).ok
    return XiCertificate(params, v_max, min_margin, argmin_v, tail_checked)


@dataclass(frozen=True)
class TailSample:
    v: int
    numerator_margin: float
    arg2_margin: float
    ratio_margin: float

    @property
    def ok(self) -> bool:
        return (
            self.numerator_margin >= -LOG_SLACK
            and self.arg2_margin >= -LOG_SLACK
            and self.ratio_margin >= -1e-12
        )


@dataclass(frozen=True)
class TailCheckReport:
    samples: tuple[TailSample, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.samples)


def tail_check(params: AnalyticParams, v_samples: Sequence[int]) -> TailCheckReport:
    """Check the three large-v envelope inequalities at each sampled v >= 10**6."""
    if params.j != 2:
        raise DomainError("tail_check: envelope constants are specific to j = 2")
    rows = []
    for v in v_samples:
        if v < TAIL_MIN_V:
            raise DomainError(f"tail_check: samples must be >= {TAIL_MIN_V}, got {_num(v)}")
        alpha, beta, r = params.alpha, params.beta, params.r
        num, xi_v = _xi_scalar(v, alpha, beta, 2, r)
        t = 2 * v + 1
        m1 = math.log(TAIL_NUM_COEFF) + TAIL_NUM_EXPONENT * math.log(t) - math.log(num)
        m2 = _u(math, alpha, 2, v) / 2 - math.log(TAIL_ARG2_COEFF * t)
        ratio = xi_v / math.log(t)
        m3 = ratio - (TAIL_DELTA_FLOOR + TAIL_LOG_TERM / math.log(t))
        rows.append(TailSample(v, m1, m2, m3))
    return TailCheckReport(tuple(rows))


def pair_exponent_gain(alpha: float, r: float, v_max: int) -> float:
    """min(f_alpha(2)/log 3, min over v <= v_max of xi(v)/log(2v+1)).

    This is the exponent saving delta certified by the parameter pair.
    """
    f_term = f_alpha(alpha, 2) / math.log(3)
    beta = beta_for(alpha, r)
    if beta < 0:
        return -math.inf
    ratio_min = _xi_margin_scan(AnalyticParams(alpha, beta, r, 2, 0.0), v_max)[0]
    return min(f_term, ratio_min)


def _xi_ratio_limit(alpha: float, beta: float, r: float) -> float:
    """Limit of xi(v)/log(2v+1) as v grows: (1+beta) - 2/(1+r)."""
    return (1 + beta) - 2 / (1 + r)


# optimize_constants searches this (alpha, r) box, seeded by the best point
# of an OPT_GRID[0] x OPT_GRID[1] grid over it scanned to v = 512.
OPT_ALPHA_BOUNDS = (0.02, 0.48)
OPT_R_BOUNDS = (0.05, 1.95)
OPT_GRID = (24, 20)


def _opt_grid() -> tuple[np.ndarray, tuple[float, float]]:
    """The search objective at v = 512 over the OPT_GRID cells, one scan per
    alpha row over columns of r and beta, and the first cell at its maximum."""
    import numpy as np
    alphas = np.linspace(*OPT_ALPHA_BOUNDS, OPT_GRID[0])
    rs = np.linspace(*OPT_R_BOUNDS, OPT_GRID[1])
    v, log_t = _xi_columns(2, 1, 512)
    cells = np.empty(OPT_GRID)
    for row, alpha in zip(cells, alphas.tolist()):
        beta = np.array([beta_for(alpha, r) for r in rs.tolist()])
        xis = _xi_terms(np, v, alpha, beta[:, None], 2, rs[:, None])[1]
        gain = np.minimum(f_alpha(alpha, 2) / math.log(3), (xis / log_t).min(axis=1))
        gain = np.minimum(gain, _xi_ratio_limit(alpha, beta, rs))
        row[:] = np.where(beta < 0, -math.inf, gain)
    a, r = np.unravel_index(np.argmax(cells), OPT_GRID)
    return cells, (float(alphas[a]), float(rs[r]))


def _search_objective(alpha: float, r: float, v_max: int) -> float:
    """The pair's saving scanned to v_max, capped by its large-v limit;
    -inf outside the search box."""
    # The truncated scan alone overfits to small v; capping the value by
    # the closed-form large-v limit keeps the search honest.
    (a_lo, a_hi), (r_lo, r_hi) = OPT_ALPHA_BOUNDS, OPT_R_BOUNDS
    if not (a_lo <= alpha <= a_hi and r_lo <= r <= r_hi):
        return -math.inf
    limit = _xi_ratio_limit(alpha, beta_for(alpha, r), r)
    return min(pair_exponent_gain(alpha, r, v_max), limit)


def _nelder_mead(f: Callable[[list[float]], float], x0: Sequence[float]) -> list[float]:
    """Minimize f over the plane from x0; return the best vertex.

    A port of SciPy's Nelder-Mead minimize with options xatol=1e-9,
    fatol=1e-12, maxiter=600: the same first simplex, steps and stopping
    rule, each step's float operations in SciPy's order, and a stable sort
    by value after every step.  So for an f that never returns NaN, every
    iterate is bit-identical to SciPy's.
    """
    vertices = [list(x0) for _ in range(3)]
    for k in range(2):
        vertices[k + 1][k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    simplex = sorted(([f(x), x] for x in vertices), key=lambda v: v[0])
    for _ in range(599):
        (f0, best), (f1, mid), (f2, worst) = simplex
        near = all(abs(a - b) <= 1e-9 for x in (mid, worst) for a, b in zip(x, best))
        if near and abs(f0 - f1) <= 1e-12 and abs(f0 - f2) <= 1e-12:
            break
        xbar = [(a + b) / 2 for a, b in zip(best, mid)]

        def along(c):  # xbar + c*(xbar - worst), rounded as SciPy rounds it
            x = [(1 + c) * a - c * b for a, b in zip(xbar, worst)]
            return [f(x), x]

        xr = along(1)
        if xr[0] < f0:
            xe = along(2)
            simplex[2] = xe if xe[0] < xr[0] else xr
        elif xr[0] < f1:
            simplex[2] = xr
        else:
            outside = xr[0] < f2
            xc = along(0.5 if outside else -0.5)
            if xc[0] <= xr[0] if outside else xc[0] < f2:
                simplex[2] = xc
            else:  # shrink towards the best vertex
                for j in (1, 2):
                    x = [a + 0.5 * (b - a) for a, b in zip(best, simplex[j][1])]
                    simplex[j] = [f(x), x]
        simplex.sort(key=lambda v: v[0])
    return simplex[0][1]


def optimize_constants(
    v_search: int = 10_000, v_certify: int = 10**6
) -> tuple[float, float, float]:
    """Maximize the arity-2 exponent saving over (alpha, r).

    Coarse grid scan, then a Nelder-Mead polish of the best cell with the
    ratio scanned to v_search; the final point is re-certified to v_certify.
    Fully deterministic.
    """
    _check_scan_size(v_search)
    _check_scan_size(v_certify)
    alpha, r = _nelder_mead(lambda x: -_search_objective(*x, v_search), _opt_grid()[1])
    return alpha, r, pair_exponent_gain(alpha, r, v_certify)


@dataclass(frozen=True)
class LemmaScanReport:
    ratio_monotone: bool
    domination_ok: bool
    odd_power_sum_ok: bool
    worst_ratio_step: float
    worst_domination_margin: float
    worst_sum_margin: float

    @property
    def ok(self) -> bool:
        return self.ratio_monotone and self.domination_ok and self.odd_power_sum_ok


def lemma45_scan() -> LemmaScanReport:
    """Grid-check the three scalar facts behind the concentration bounds.

    (1) f_alpha(x)/log(x+1) strictly increases in x for each alpha;
    (2) ell_alpha(x) >= f_alpha(x) on x >= 1;
    (3) sum_{i=0..s} (2i+1)^(beta-1) <= (s+1)^beta for 1 <= beta <= 2.

    Grids: alpha = 1/100..99/100, x = 0.01..100 in steps of 0.01, beta =
    1.0..2.0 in steps of 0.1, s <= 10^4.  (1) must rise by more than 1e-15
    per step and (2) may dip 1e-12 below zero.
    """
    import numpy as np
    alphas = np.arange(1, 100, dtype=np.float64) / 100
    xs = 0.01 * np.arange(1, 10_001, dtype=np.float64)
    log_x1 = np.log(xs + 1)
    mask = xs >= 1
    xs_ge1 = xs[mask]
    worst_step = math.inf
    worst_dom = math.inf
    for alpha in alphas:
        fa = _f(np, alpha, xs)
        ratio = fa / log_x1
        worst_step = min(worst_step, float(np.min(np.diff(ratio))))
        worst_dom = min(worst_dom, float(np.min(_ell(np, alpha, xs_ge1) - fa[mask])))

    worst_sum = math.inf
    s_grid = np.arange(10_001, dtype=np.float64)
    odd = 2 * s_grid + 1
    for beta in (round(1 + 0.1 * i, 1) for i in range(11)):
        lhs = np.cumsum(odd ** (beta - 1))
        rhs = (s_grid + 1) ** beta
        worst_sum = min(worst_sum, float(np.min(rhs - lhs)))

    return LemmaScanReport(
        worst_step > 1e-15,
        worst_dom >= -1e-12,
        worst_sum >= -LOG_SLACK,
        worst_step,
        worst_dom,
        worst_sum,
    )


def lemma7_order(
    pairs: Sequence[tuple[float, float]], tol: float = 0.0
) -> tuple[int, ...]:
    """Order indices so every prefix has sum(x) <= sum(y); needs total x <= y.

    Sorting by x - y ascending puts the smallest differences first, so each
    prefix's mean difference is at most the overall mean, which is not
    positive.  Ties put the larger index first.
    """
    try:
        xs = [float(x) for x, _ in pairs]
        ys = [float(y) for _, y in pairs]
    except OverflowError:  # an int past float range
        xs = ys = None
    if xs is None or any(not 0 < x < math.inf for x in xs + ys):  # also refuses NaN
        raise DomainError("lemma7_order: pair entries must be finite and strictly positive")
    if tol != tol:  # a NaN tol would skip the sum check
        raise DomainError("lemma7_order: tol must not be NaN")
    if sum(xs) > sum(ys) + tol:
        raise DomainError(
            f"lemma7_order: sum(x) = {sum(xs)} exceeds sum(y) = {sum(ys)}"
        )
    return tuple(sorted(range(len(xs)), key=lambda i: (xs[i] - ys[i], -i)))


def s_bounds(
    n: int, j: int, alpha: float, beta: float | None = None, r: float = R_STAR
) -> tuple[BoundCheckRecord, BoundCheckRecord]:
    """Exact low/high concentration counts against their closed-form bounds.

    S- counts coprime j-tuples whose mean weight falls at or below
    (1-alpha) times the average; S+ counts tuples whose (1, r, .., r)-tilted
    weight reaches (1+beta) times the average.  Both are asserted against
    kappa_j(n) * exp(-sum_p f_alpha(j v)) and kappa_j(n) * exp(-sum_p xi(v)).

    A tuple's weight is 0.0 plus its coordinates' weights, added left to
    right in float64.  The tuples are read from coprime_tuples in blocks of
    _S_BLOCK coordinates and counted with numpy, so the walk holds one block.
    """
    import numpy as np
    if beta is None:
        beta = beta_for(alpha, r)
    f = factorcore.factor(n)
    divs = factorcore.divisors(f)
    # h_value's sums, with u_weight computed once per distinct exponent.
    u = {v: u_weight(alpha, j, v) for v in {v for _, v in f.parts}}
    h = {d: sum(u[v] for p, v in f.parts if d % p == 0) for d in divs}
    avg = a_mean(alpha, j, f)
    # The bounds come first: a bad beta or r, or a float overflow in xi, is
    # refused before the walk, and the tuple budget after them.
    total = factorcore.kappa(f, j)
    log_kappa = math.log(total)
    log_minus = log_kappa - sum(f_alpha(alpha, j * v) for _, v in f.parts)
    log_plus = log_kappa - sum(xi(v, alpha, beta, j, r) for _, v in f.parts)
    s = 1 + (j - 1) * r
    lo_thresh = j * (1 - alpha) * avg
    hi_thresh = (1 + beta) * avg
    s_minus = 0
    s_plus = 0
    tuples = factorcore.coprime_tuples(f, j)
    rows = max(1, _S_BLOCK // j)
    for done in range(0, total, rows):
        m = min(rows, total - done)
        coords = itertools.chain.from_iterable(itertools.islice(tuples, m))
        w = np.fromiter(map(h.__getitem__, coords), np.float64, m * j).reshape(m, j)
        hs = 0.0
        for c in range(j):
            hs = hs + w[:, c]
        h0 = w[:, 0]
        s_minus += int(np.count_nonzero(hs <= lo_thresh))
        s_plus += int(np.count_nonzero((h0 + r * (hs - h0)) / s >= hi_thresh))
    common = {"alpha": alpha, "beta": beta, "r": r, "j": j}
    return (
        make_record("s_minus", n, s_minus, log_minus, **common),
        make_record("s_plus", n, s_plus, log_plus, **common),
    )


@dataclass(frozen=True)
class SplitResult:
    """Coprime factorization n = a*b steered by the prefix-ordering lemma.

    rho and theta are per-prime shares of log tau(n) and log n; sigma orders
    them so rho-prefixes never exceed theta-prefixes, and b collects the
    first split_size prime powers in that order.  trivial flags the regime
    epsilon >= eta in which the resulting residue-class bound says nothing;
    the split itself is still produced whenever its prefix threshold
    1 - 4*eta + epsilon is attainable (epsilon <= 4*eta), and a = b = None
    otherwise.
    """

    n: int
    q: int
    eta: float
    epsilon: float
    trivial: bool
    a: int | None
    b: int | None
    sigma: tuple[int, ...]
    rho: tuple[float, ...]
    theta: tuple[float, ...]
    split_size: int
    records: tuple[BoundCheckRecord, ...]


def thm4_split(n: int, q: int) -> SplitResult:
    """Split n = a*b with a small and tau(b) controlled, for 2 <= q < n^(1/4).

    Asserts a <= n^(4*eta - epsilon) and
    tau(b) <= 2 * v_max(n) * tau(n)^(1 - 4*eta + epsilon),
    where eta = log q / log n and epsilon = 1/log tau(n).
    """
    if n < 2 or q < 2:
        raise DomainError("thm4_split: requires n, q >= 2")
    if math.gcd(n, q) != 1:
        raise DomainError(f"thm4_split: gcd({_num(n)}, {_num(q)}) != 1")
    if q**4 >= n:
        raise DomainError(f"thm4_split: requires q < n^(1/4), got q = {_num(q)}")
    f = factorcore.factor(n)
    stats = factorcore.arith_stats(f)
    eta = math.log(q) / math.log(n)
    epsilon = 1 / math.log(stats.tau)
    rho = tuple(math.log(v + 1) / math.log(stats.tau) for _, v in f.parts)
    theta = tuple(v * math.log(p) / math.log(n) for p, v in f.parts)
    trivial = epsilon >= eta
    threshold = 1 - 4 * eta + epsilon
    if threshold > 1 + 1e-12:
        return SplitResult(
            n, q, eta, epsilon, trivial, None, None, (), rho, theta, 0, ()
        )
    sigma = lemma7_order(list(zip(rho, theta)), tol=1e-9)
    acc = 0.0
    split_size = len(sigma)
    for idx, i in enumerate(sigma, start=1):
        acc += theta[i]
        if acc >= threshold:
            split_size = idx
            break
    b = 1
    tau_b = 1
    for i in sigma[:split_size]:
        p, v = f.parts[i]
        b *= p**v
        tau_b *= v + 1
    a = n // b
    rec_a = make_record(
        "thm4_split_a", n, a, (4 * eta - epsilon) * math.log(n), q=q
    )
    rec_b = make_record(
        "thm4_split_b",
        n,
        tau_b,
        math.log(2 * stats.v_max) + (1 - 4 * eta + epsilon) * math.log(stats.tau),
        q=q,
    )
    return SplitResult(
        n, q, eta, epsilon, trivial, a, b, sigma, rho, theta, split_size, (rec_a, rec_b)
    )
