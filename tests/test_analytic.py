"""Weight functions, xi certificates, constant optimization, splits."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from divrel import (
    ALPHA_STAR,
    DELTA2,
    DELTA2_CONJECTURED,
    R_STAR,
    AnalyticParams,
    DomainError,
    ResourceLimitError,
    a_mean,
    arith_stats,
    beta_for,
    coprime_tuples,
    delta_j,
    divisors,
    ell_alpha,
    f_alpha,
    factor,
    h_value,
    kappa,
    lemma45_scan,
    lemma7_order,
    optimize_constants,
    pair_exponent_gain,
    s_bounds,
    standard_params,
    tail_check,
    thm4_split,
    u_weight,
    verify_xi_range,
    xi,
)
from divrel import analytic

LN2 = math.log(2)
LN3 = math.log(3)


def test_f_alpha_zero_at_origin():
    for k in range(1, 100):
        assert f_alpha(k / 100, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_f_alpha_standard_point():
    assert f_alpha(ALPHA_STAR, 2) / LN3 == pytest.approx(0.045072, abs=2e-6)
    assert f_alpha(ALPHA_STAR, 2) == pytest.approx(0.04951759791084156, abs=1e-12)


def test_f_alpha_third_at_one():
    assert f_alpha(1 / 3, 1) == pytest.approx(0.05663301226513248, abs=1e-12)
    assert f_alpha(1 / 3, 1) / LN2 == pytest.approx(0.0817042, abs=1e-6)


def test_f_alpha_domain():
    with pytest.raises(DomainError):
        f_alpha(1.0, 2)
    with pytest.raises(DomainError):
        f_alpha(-0.1, 2)
    with pytest.raises(DomainError):
        f_alpha(0.2, -1)


def test_ell_alpha_examples():
    for alpha in (0.05, 0.3, 0.7, 0.95):
        assert ell_alpha(alpha, 1) == pytest.approx(f_alpha(alpha, 1), abs=1e-12)
    for x in (1, 2, 5.5, 40):
        assert ell_alpha(0.0, x) == 0.0
    assert ell_alpha(0.3, 2) >= f_alpha(0.3, 2)
    with pytest.raises(DomainError):
        ell_alpha(0.3, 0.5)


def test_weight_scalars_are_pinned():
    # exact float values: the scalar weights are evaluated with math's log
    # and exp, so their bits never change
    beta = beta_for(ALPHA_STAR, R_STAR)
    assert f_alpha(ALPHA_STAR, 0.5) == 0.013690467907057136
    assert f_alpha(ALPHA_STAR, 2) == 0.049517597910841565
    assert f_alpha(ALPHA_STAR, 37.25) == 0.3660904755869623
    assert ell_alpha(ALPHA_STAR, 1) == 0.026420638513902417
    assert ell_alpha(ALPHA_STAR, 2.5) == 0.07024144261242682
    assert ell_alpha(ALPHA_STAR, 1000) == 1.2978582563965544
    assert xi(1, ALPHA_STAR, beta, 2, R_STAR) == 0.04951759792936211
    assert xi(7, ALPHA_STAR, beta, 2, R_STAR) == 0.25571593884653043
    assert xi(10**6, ALPHA_STAR, beta, 2, R_STAR) == 1.284386734232406


def test_weight_scalar_and_grid_paths_agree():
    # one body per weight serves math scalars and numpy grids; the two
    # paths differ only by the last-bit rounding of log and exp
    xs = 0.01 * np.arange(1, 10_001, dtype=np.float64)  # lemma45_scan's grid
    for alpha in (0.01, 0.12, ALPHA_STAR, 0.5, 0.77, 0.99):
        grid_f = analytic._f(np, alpha, xs)
        scalar_f = np.array([f_alpha(alpha, float(x)) for x in xs])
        assert np.max(np.abs(grid_f - scalar_f)) <= 1e-13
        big = xs[xs >= 1]
        grid_ell = analytic._ell(np, alpha, big)
        scalar_ell = np.array([ell_alpha(alpha, float(x)) for x in big])
        assert np.max(np.abs(grid_ell - scalar_ell)) <= 1e-13
    params = standard_params()
    vs = np.arange(1, 10**5 + 1, dtype=np.float64)
    grid_xi = analytic._xi_terms(np, vs, params.alpha, params.beta, 2, params.r)[1]
    grid_xi /= np.log(2 * vs + 1)
    scalar_xi = np.array(
        [xi(v, params.alpha, params.beta, 2, params.r) / math.log(2 * v + 1) for v in vs.tolist()]
    )
    assert np.max(np.abs(grid_xi - scalar_xi) / scalar_xi) <= 1e-13


def test_u_weight_examples():
    for j in (1, 2, 5):
        for v in (1, 3, 10):
            assert u_weight(0.0, j, v) == 0.0
    assert u_weight(0.2, 2, 2) == pytest.approx(2 * math.log(1.8 / 0.8))


def test_h_value_and_a_mean_examples():
    f12 = factor(12)
    assert h_value(0.2, 2, f12, 6) == pytest.approx(2.741092008303503, abs=1e-12)
    assert h_value(0.2, 2, f12, 1) == 0.0
    assert a_mean(0.2, 2, f12) == pytest.approx(1.0218213649300114, abs=1e-12)
    with pytest.raises(DomainError):
        h_value(0.2, 2, f12, 5)


def test_h_value_additive_over_coprime_parts():
    f = factor(360)
    for d1, d2 in ((8, 9), (5, 72), (9, 40)):
        assert h_value(0.3, 2, f, d1 * d2) == pytest.approx(
            h_value(0.3, 2, f, d1) + h_value(0.3, 2, f, d2)
        )


def test_xi_vanishes_at_zero_params():
    for v in (1, 2, 17):
        for j in (1, 2, 3):
            for r in (0.2, 1.0, 1.7):
                assert xi(v, 0.0, 0.0, j, r) == pytest.approx(0.0, abs=1e-12)


def test_xi_standard_point():
    p = standard_params()
    val = xi(1, p.alpha, p.beta, 2, p.r) / LN3
    assert val == pytest.approx(0.045095, abs=5e-5)
    assert val > DELTA2
    assert val == pytest.approx(0.04507286004364125, abs=1e-12)


def test_xi_collapses_to_ell():
    for alpha in (0.1, 0.31, 0.8):
        for j in (1, 2, 3):
            for v in (1, 2, 7):
                assert xi(v, alpha, alpha, j, 1.0) == pytest.approx(
                    ell_alpha(alpha, j * v), abs=1e-12
                )


def test_arity_parameters_refuse_zero():
    with pytest.raises(DomainError, match="^delta_j: j must be >= 1, got 0$"):
        delta_j(0)
    with pytest.raises(DomainError, match="^a_mean: j must be >= 1, got 0$"):
        a_mean(ALPHA_STAR, 0, factor(12))


def test_xi_domain():
    p = standard_params()
    for bad_alpha in (-0.1, 1.0):
        with pytest.raises(DomainError, match="alpha must lie in"):
            xi(1, bad_alpha, p.beta, 2, p.r)
    with pytest.raises(DomainError, match="j must be >= 1"):
        xi(1, 0.2, 0.2, 0, 1.0)
    with pytest.raises(DomainError, match="v must be >= 1"):
        xi(0.5, 0.2, 0.2, 2, 1.0)
    with pytest.raises(DomainError, match="beta and r"):
        xi(1, 0.2, -0.1, 2, 1.0)
    # an infinite beta or r is refused as a negative one is, not certified
    inf = math.inf
    for call, got in (
        (lambda: xi(1, 0.2, inf, 2, 0.5), "beta=inf, r=0.5"),
        (lambda: xi(1, 0.2, 0.3, 2, inf), "beta=0.3, r=inf"),
        (lambda: verify_xi_range(AnalyticParams(0.2, inf, 0.5, 2, 0.01), 10), "beta=inf, r=0.5"),
    ):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == f"xi: beta and r must be finite and >= 0, got {got}"


def test_weights_refuse_non_finite_points():
    p = standard_params()
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError, match="f_alpha: x must be finite"):
            f_alpha(0.2, x)
        with pytest.raises(DomainError, match="ell_alpha: x must be finite"):
            ell_alpha(0.2, x)
        with pytest.raises(DomainError, match="v must be >= 1"):
            u_weight(0.2, 2, x)
        with pytest.raises(DomainError, match="v must be >= 1"):
            xi(x, p.alpha, p.beta, 2, p.r)
    # a huge integer v is still accepted, up to where float64 evaluation ends
    sample = tail_check(p, (10**140,)).samples[0]
    assert sample.v == 10**140 and math.isfinite(sample.ratio_margin)


def test_xi_float_overflow_is_a_domain_error():
    # alpha*j*v leaves float range at 10^400; exp overflows at 10^300 and
    # 1e262; from about 10^141 the numerator alone overflows to inf
    p = standard_params()
    for v in (10**142, 10**300, 10**400):
        with pytest.raises(DomainError, match=f"xi: v = {v} and j = 2 are too large"):
            tail_check(p, (v,))
        with pytest.raises(DomainError, match="too large for float64"):
            xi(v, p.alpha, p.beta, 2, p.r)
    with pytest.raises(DomainError, match="v = 1e[+]262 and j = 2 are too large"):
        xi(1e262, 0.2, beta_for(0.2, R_STAR), 2, R_STAR)
    # only the numerator is refused: at a finite one, a huge beta makes xi inf
    assert xi(1, 0.5, 1e308, 2, 0.0) == math.inf


def test_ell_and_u_weight_refuse_a_result_past_float64():
    # alpha*x overflows to inf, so ell would be inf - inf = nan and u inf
    with pytest.raises(DomainError, match=r"^ell_alpha: x = 1.7e\+308 is too large for float64"):
        ell_alpha(0.6, 1.7e308)
    with pytest.raises(DomainError, match=r"^u_weight: v = 1.7e\+308 and j = 2 are too large"):
        u_weight(0.6, 2, 1.7e308)
    assert math.isfinite(ell_alpha(0.6, 1e308)) and math.isfinite(u_weight(0.6, 2, 1e307))


def test_weight_scalars_refuse_an_int_past_float_range():
    # alpha*x overflows converting the int, which is not made a float up front:
    # past 2^53 x / (x + 1) would round differently
    big = 10**400
    with pytest.raises(DomainError, match=rf"^f_alpha: x = {big} is too large for float64"):
        f_alpha(0.6, big)
    with pytest.raises(DomainError, match=rf"^ell_alpha: x = {big} is too large for float64"):
        ell_alpha(0.6, big)
    with pytest.raises(DomainError, match=rf"^u_weight: v = {big} and j = 2 are too large"):
        u_weight(0.6, 2, big)
    with pytest.raises(DomainError, match=rf"^u_weight: v = 2 and j = {big} are too large"):
        u_weight(0.6, big, 2)
    x = 6961582771009265151  # the nearest float gives another value
    assert f_alpha(0.6, x) == 25.3591514521987 != f_alpha(0.6, float(x))


def test_weight_scalars_refuse_an_int_past_the_digit_limit():
    # str() refuses an int past 4300 digits, so a refusal writes it in full
    # through Decimal; a float is written as before
    big, digits = 10**5000, "10{5000}"
    p = standard_params()
    refusals = [
        (lambda: f_alpha(0.6, big), rf"^f_alpha: x = {digits} is too large for float64"),
        (lambda: f_alpha(0.6, -big), rf"^f_alpha: x must be finite and >= 0, got -{digits}$"),
        (lambda: ell_alpha(0.6, big), rf"^ell_alpha: x = {digits} is too large for float64"),
        (lambda: u_weight(0.6, 2, big), rf"^u_weight: v = {digits} and j = 2 are too large"),
        (lambda: u_weight(0.6, big, 2), rf"^u_weight: v = 2 and j = {digits} are too large"),
        (lambda: u_weight(0.6, -big, 2), rf"^u_weight: j must be >= 1, got -{digits}$"),
        (lambda: xi(big, p.alpha, p.beta, 2, p.r), rf"^xi: v = {digits} and j = 2 are too large"),
        (lambda: delta_j(big), rf"^delta_j: j = {digits} is too large for float64"),
        (lambda: a_mean(0.6, -big, factor(12)), rf"^a_mean: j must be >= 1, got -{digits}$"),
        (lambda: h_value(0.6, 2, factor(12), big), rf"^h_value: {digits} does not divide 12$"),
        (lambda: tail_check(p, (-big,)), rf"^tail_check: samples must be >= 1000000, got -{digits}$"),
        (lambda: thm4_split(big, 10), rf"^thm4_split: gcd\({digits}, 10\) != 1$"),
        (lambda: ell_alpha(0.6, 1.7e308), r"^ell_alpha: x = 1.7e\+308 is too large for float64"),
        (lambda: f_alpha(0.6, -0.5), r"^f_alpha: x must be finite and >= 0, got -0.5$"),
    ]
    for call, message in refusals:
        with pytest.raises(DomainError, match=message):
            call()


def test_xi_scan_refuses_float_overflow_like_xi():
    # the scan names the first v whose numerator overflows, as xi does, and
    # numpy warns of nothing on the way
    assert math.isfinite(xi(7880, 0.2, 0.3, 60, 0.0))
    for j, v, v_max in ((400, 1, 1000), (60, 7881, 10**6)):
        msg = f"xi: v = {v} and j = {j} are too large for float64 evaluation"
        with pytest.raises(DomainError, match=msg):
            xi(v, 0.2, 0.3, j, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=msg):
                verify_xi_range(AnalyticParams(0.2, 0.3, 0.0, j, 0.01), v_max)


def test_delta_j_values():
    assert delta_j(1) == pytest.approx(1 - (LN3 / LN2 - 2 / 3), abs=1e-12)
    assert delta_j(2) == pytest.approx(0.03459863270029111, abs=1e-12)
    assert delta_j(2) < DELTA2  # the arity-2 refinement beats the generic value
    assert 0 < DELTA2 < DELTA2_CONJECTURED


def test_beta_consistency():
    p = standard_params()
    assert p.beta == pytest.approx((2 + p.r) / (1 + p.r) * (1 - p.alpha) - 1, abs=1e-12)


def test_verify_xi_range_standard():
    cert = verify_xi_range(standard_params(), 5000)
    assert cert.valid
    assert cert.argmin_v == 1
    assert cert.min_margin == pytest.approx(8.600436412486978e-07, abs=1e-12)
    assert not cert.tail_checked


def test_verify_xi_range_raised_delta_fails_at_one():
    params = AnalyticParams.from_alpha_r(ALPHA_STAR, R_STAR, delta=0.04512)
    cert = verify_xi_range(params, 50)
    assert not cert.valid
    assert cert.argmin_v == 1


def test_verify_xi_range_zero_params_invalid():
    cert = verify_xi_range(AnalyticParams(0.0, 0.0, 1.0, 2, 0.001), 10)
    assert not cert.valid and cert.argmin_v == 1


def _one_shot_scan(params, v_max):
    """The xi-ratio margin scan in one piece: (least margin, first v at it)."""
    vs = np.arange(1, v_max + 1, dtype=np.float64)
    xis = analytic._xi_terms(np, vs, params.alpha, params.beta, params.j, params.r)[1]
    margins = xis / np.log(params.j * vs + 1) - params.delta
    i = int(np.argmin(margins))
    return float(margins[i]), i + 1


# Block boundaries of the scan, at its first block and at four blocks, the
# most its column cache keeps.
_CHUNK = analytic._XI_CHUNK
_EDGES = [e + d for e in (_CHUNK, 4 * _CHUNK) for d in (-1, 0, 1)]


@pytest.mark.parametrize("v_max", [1, *_EDGES, 10**6])
def test_xi_scan_matches_one_shot_oracle(v_max):
    # the least margin lies at v = 1 for the standard pair and at v = v_max
    # for (0.2, 1.5), whose ratio falls; at alpha = 0 every v ties, so v = 1
    for params in (
        standard_params(),
        AnalyticParams.from_alpha_r(0.2, 1.5),
        AnalyticParams(0.0, 0.0, 1.0, 2, 0.001),
    ):
        assert analytic._xi_margin_scan(params, v_max) == _one_shot_scan(params, v_max)


def test_xi_scan_columns_are_kept_per_arity_and_range():
    # scans that alternate j and v_max over the same blocks: a cached column
    # read under the wrong key would change the result
    for v_max in (500, _CHUNK + 7, 500, 3 * _CHUNK):
        for j in (1, 2, 3, 2, 1):
            params = AnalyticParams.from_alpha_r(0.2, 0.5, j=j)
            assert analytic._xi_margin_scan(params, v_max) == _one_shot_scan(params, v_max)
    v, log_t = analytic._xi_columns(2, 1, 10)
    for column in (v, log_t):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0


def test_xi_scan_memory_is_bounded():
    # one block of the scan at a time: the one-piece scan peaked at 45.8 MiB
    for scan in (
        lambda: verify_xi_range(standard_params(), 10**6),
        lambda: pair_exponent_gain(ALPHA_STAR, R_STAR, 10**6),
    ):
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


def test_xi_scan_refuses_out_of_domain_params():
    nan = math.nan
    for params, match in (
        (AnalyticParams.from_alpha_r(1.5, R_STAR), "alpha must lie in"),
        (AnalyticParams.from_alpha_r(nan, R_STAR), "alpha must lie in"),
        (AnalyticParams.from_alpha_r(0.999, R_STAR), "beta and r must be finite and >= 0"),
        (AnalyticParams.from_alpha_r(ALPHA_STAR, nan), "beta and r must be finite and >= 0"),
        (AnalyticParams.from_alpha_r(ALPHA_STAR, R_STAR, delta=nan), "delta must be finite"),
        (AnalyticParams.from_alpha_r(ALPHA_STAR, R_STAR, delta=math.inf), "delta must be finite"),
    ):
        with pytest.raises(DomainError, match=match):
            verify_xi_range(params, 30)
    for v_max in (0, -1):
        with pytest.raises(DomainError, match="v_max must be >= 1"):
            verify_xi_range(standard_params(), v_max)
        with pytest.raises(DomainError, match="v_max must be >= 1"):
            pair_exponent_gain(ALPHA_STAR, R_STAR, v_max)
    # a pair whose beta is negative certifies nothing; it is not an error
    assert pair_exponent_gain(0.999, R_STAR, 10) == -math.inf


def test_xi_scan_size_is_capped(monkeypatch):
    monkeypatch.setattr(analytic, "_XI_MAX_POINTS", 100)
    assert verify_xi_range(standard_params(), 100).argmin_v == 1
    with pytest.raises(ResourceLimitError, match="exceeds cap 100"):
        verify_xi_range(standard_params(), 101)
    with pytest.raises(ResourceLimitError, match="exceeds cap 100"):
        pair_exponent_gain(ALPHA_STAR, R_STAR, 101)

    def no_scan(*args):
        raise AssertionError("optimize_constants scanned before checking its sizes")

    monkeypatch.setattr(analytic, "_xi_margin_scan", no_scan)
    for v_search, v_certify in ((101, 50), (50, 101)):
        with pytest.raises(ResourceLimitError):
            optimize_constants(v_search, v_certify)


def test_certificate_json_fields():
    cert = verify_xi_range(standard_params(), 10, tail_samples=(10**6,))
    d = cert.to_json_dict()
    assert set(d) == {
        "alpha", "beta", "r", "delta", "v_max", "min_margin", "argmin_v", "tail_checked",
    }
    assert d["tail_checked"] is True


def test_tail_check_standard_samples():
    report = tail_check(standard_params(), (10**6, 10**7, 10**9))
    assert report.ok
    for sample in report.samples:
        assert sample.numerator_margin > 0
        assert sample.arg2_margin > 0
        assert sample.ratio_margin > 0


def test_tail_arg2_ratio_decreases_to_limit():
    p = standard_params()
    limit = p.alpha / (1 - p.alpha)
    last = math.inf
    for v in (10**6, 10**7, 10**8, 10**9):
        ratio = (2 * p.alpha * v + 1) / (1 - p.alpha) / (2 * v + 1)
        assert ratio < last
        assert ratio > 0.29677163413447
        last = ratio
    assert limit == pytest.approx(0.29677163413447, abs=1e-13)


def test_tail_check_domain():
    with pytest.raises(DomainError):
        tail_check(standard_params(), (10**5,))
    with pytest.raises(DomainError):
        tail_check(AnalyticParams(0.2, 0.2, 0.7, 3, 0.01), (10**6,))
    for bad_alpha in (-0.1, 1.0):
        with pytest.raises(DomainError, match="alpha must lie in"):
            tail_check(AnalyticParams.from_alpha_r(bad_alpha, R_STAR), (10**6,))


def test_optimizer_quick_budget_recovers_constants():
    alpha, r, delta = optimize_constants(v_search=2000, v_certify=10**4)
    assert delta >= 0.045072
    assert abs(alpha - ALPHA_STAR) <= 1e-3
    assert abs(r - R_STAR) <= 1e-2


def _rosenbrock(x, scale=100):
    return (1 - x[0]) ** 2 + scale * (x[1] - x[0] ** 2) ** 2


def _search(x):
    return -analytic._search_objective(x[0], x[1], 512)


_GRID_CELLS = random.Random(0).sample(
    [[a, r] for a in np.linspace(*analytic.OPT_ALPHA_BOUNDS, analytic.OPT_GRID[0]).tolist()
     for r in np.linspace(*analytic.OPT_R_BOUNDS, analytic.OPT_GRID[1]).tolist()],
    6,
)


# (f, x0, scipy's status: 0 at the tolerances, 2 at maxiter, None either)
@pytest.mark.parametrize("f, x0, status", [
    *((_search, cell, None) for cell in _GRID_CELLS),  # starts the polish could take
    (_search, [0.6, 1.0], 2),  # outside the box: every vertex is +inf
    (_search, [0.2, 0.0], 2),  # a zero coordinate is stepped to 0.00025
    (_rosenbrock, [0.0, 0.0], 0),  # both are
    (_rosenbrock, [-1.2, 1.0], 0),
    (lambda x: _rosenbrock(x, 1e8), [-1.2, 1.0], 2),
    # plateaus: contractions fail, so the simplex shrinks, and steps tie
    (lambda x: math.floor(10 * x[0]) ** 2 + math.floor(10 * x[1]) ** 2 + 1e-3 * (x[0] + x[1]),
     [1.0, 2.0], 0),
    (lambda x: math.floor(abs(x[0]) + abs(x[1])), [3.0, 4.0], 0),
])
def test_nelder_mead_matches_scipy(f, x0, status):
    # scipy is the oracle: the same point, bit for bit, after the same
    # number of evaluations
    minimize = pytest.importorskip("scipy.optimize").minimize
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # scipy's inf - inf
        want = minimize(counted, x0, method="Nelder-Mead",
                        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 600})
    assert status in (None, want.status)
    assert len(calls) == want.nfev
    got = analytic._nelder_mead(counted, x0)
    assert [x.hex() for x in got] == [float(x).hex() for x in want.x]
    assert len(calls) == 2 * want.nfev


def test_opt_grid_matches_per_cell_oracle():
    # the search objective evaluated cell by cell is the reference for the
    # grid scanned one alpha row at a time, cell values and start alike
    cells, start = analytic._opt_grid()
    alphas = np.linspace(*analytic.OPT_ALPHA_BOUNDS, analytic.OPT_GRID[0]).tolist()
    rs = np.linspace(*analytic.OPT_R_BOUNDS, analytic.OPT_GRID[1]).tolist()
    best = (-math.inf, alphas[0], rs[0])
    for a, alpha in enumerate(alphas):
        for k, r in enumerate(rs):
            limit = analytic._xi_ratio_limit(alpha, beta_for(alpha, r), r)
            val = min(pair_exponent_gain(alpha, r, 512), limit)
            assert cells[a, k] == val, (alpha, r)
            if val > best[0]:
                best = (val, alpha, r)
    assert start == best[1:]
    assert np.isneginf(cells).any() and np.isfinite(cells).any()


def test_objective_at_named_points():
    assert pair_exponent_gain(ALPHA_STAR, R_STAR, 10**4) == pytest.approx(
        0.045072, abs=2e-6
    )
    assert pair_exponent_gain(0.1, 1.0, 10**4) < pair_exponent_gain(
        ALPHA_STAR, R_STAR, 10**4
    )


def test_lemma45_scan_default_grid():
    report = lemma45_scan()
    assert report.ratio_monotone
    assert report.domination_ok
    assert report.odd_power_sum_ok
    assert report.worst_ratio_step > 1e-15
    assert report.worst_domination_margin >= -1e-12


def test_lemma5_boundary_cases():
    # beta = 2: equality (s+1)^2 = sum of first s+1 odd numbers
    for s in (0, 1, 10, 1000):
        assert sum((2 * i + 1) for i in range(s + 1)) == (s + 1) ** 2
    # beta = 1: equality s+1 = s+1
    for s in (0, 5, 100):
        assert sum((2 * i + 1) ** 0 for i in range(s + 1)) == s + 1
    # interior sample
    lhs = 1 + 3**0.5 + 5**0.5
    assert lhs == pytest.approx(4.96811, abs=1e-5)
    assert lhs <= 3**1.5


def test_lemma7_order_examples():
    assert lemma7_order([(3, 1), (1, 4)]) == (1, 0)
    sigma = lemma7_order([(2, 2), (5, 5), (1, 1)])
    xs, ys = [2, 5, 1], [2, 5, 1]
    acc_x = acc_y = 0.0
    for i in sigma:
        acc_x += xs[i]
        acc_y += ys[i]
        assert acc_x <= acc_y + 1e-12
    with pytest.raises(DomainError):
        lemma7_order([(5, 1), (1, 2)])
    with pytest.raises(DomainError):
        lemma7_order([(0.0, 1.0)])
    with pytest.raises(DomainError, match="^lemma7_order: tol must not be NaN$"):
        lemma7_order([(5, 1), (1, 2)], tol=math.nan)  # would skip the sum check
    for bad in (math.nan, math.inf, 10**5000):  # the int is past float range
        message = "^lemma7_order: pair entries must be finite and strictly positive$"
        with pytest.raises(DomainError, match=message):
            lemma7_order([(bad, 1.0), (1.0, 2.0)])
        with pytest.raises(DomainError, match=message):
            lemma7_order([(1.0, bad), (1.0, 2.0)])


def back_filled_lemma7_order(xs, ys):
    """The O(k^2) loop lemma7_order replaced: fill positions from the back with
    the remaining index maximizing x - y, the smallest such index on ties."""
    k = len(xs)
    remaining = list(range(k))
    order = [0] * k
    for t in range(k - 1, -1, -1):
        pick = remaining[0]
        for i in remaining[1:]:
            if xs[i] - ys[i] > xs[pick] - ys[pick]:
                pick = i
        order[t] = pick
        remaining.remove(pick)
    return tuple(order)


def test_lemma7_order_matches_back_filling_with_ties():
    rng = random.Random(11)
    for _ in range(2000):
        k = rng.randrange(1, 13)
        # few distinct values, so equal differences x - y are common
        ys = [float(rng.randrange(2, 6)) for _ in range(k)]
        xs = [float(rng.randrange(1, 6)) for _ in range(k)]
        if sum(xs) > sum(ys):
            continue
        assert lemma7_order(list(zip(xs, ys))) == back_filled_lemma7_order(xs, ys), (xs, ys)


def test_lemma7_prefix_property_random():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randrange(1, 51)
        ys = [rng.uniform(0.1, 10) for _ in range(k)]
        xs = [y * rng.uniform(0.0, 1.0) + 1e-6 for y in ys]
        rng.shuffle(xs)
        if sum(xs) > sum(ys):
            continue
        sigma = lemma7_order(list(zip(xs, ys)))
        assert sorted(sigma) == list(range(k))
        acc = 0.0
        for i in sigma:
            acc += xs[i] - ys[i]
            assert acc <= 1e-9


def test_s_bounds_alpha_zero_equalities():
    for n in (12, 30):
        for j in (1, 2):
            lo, hi = s_bounds(n, j, 0.0, beta=0.0, r=1.0)
            kap = kappa(factor(n), j)
            assert lo.lhs == kap and math.exp(lo.log_rhs) == pytest.approx(kap)
            assert hi.lhs == kap and math.exp(hi.log_rhs) == pytest.approx(kap)
            assert lo.passed and hi.passed


def test_s_bounds_example_n12():
    lo, hi = s_bounds(12, 2, 0.2)
    expected = 15 * math.exp(-f_alpha(0.2, 4) - f_alpha(0.2, 2))
    assert math.exp(lo.log_rhs) == pytest.approx(expected)
    assert lo.passed and hi.passed


def test_s_bounds_brute_force_thresholds():
    # recount S- and S+ independently from the set definitions
    n, j, alpha = 60, 2, 0.3
    beta = beta_for(alpha, R_STAR)
    f = factor(n)
    avg = a_mean(alpha, j, f)
    lo = hi = 0
    for tup in coprime_tuples(f, j):
        hs = [h_value(alpha, j, f, d) for d in tup]
        if sum(hs) / j <= (1 - alpha) * avg:
            lo += 1
        if (hs[0] + R_STAR * sum(hs[1:])) / (1 + (j - 1) * R_STAR) >= (1 + beta) * avg:
            hi += 1
    rec_lo, rec_hi = s_bounds(n, j, alpha)
    assert (rec_lo.lhs, rec_hi.lhs) == (lo, hi)


def oracle_s_counts(n, j, alpha, beta=None, r=R_STAR):
    """(S-, S+) by a plain loop over the tuples: h_value per divisor, and
    each tuple's weight 0.0 plus its coordinates' weights, left to right.

    The loop pins that order: sum() of floats is compensated on Python 3.12
    and later, so it could round a tie differently."""
    if beta is None:
        beta = beta_for(alpha, r)
    f = factor(n)
    h = {d: h_value(alpha, j, f, d) for d in divisors(f)}
    avg = a_mean(alpha, j, f)
    s = 1 + (j - 1) * r
    lo = hi = 0
    for tup in coprime_tuples(f, j):
        hs = 0.0
        for d in tup:
            hs += h[d]
        if hs <= j * (1 - alpha) * avg:
            lo += 1
        if (h[tup[0]] + r * (hs - h[tup[0]])) / s >= (1 + beta) * avg:
            hi += 1
    return lo, hi


# (exponents, j, alpha): the shapes of divbench's concentration workload.
CONC_SHAPES = (
    ((1,) * 10, 2, 0.2),
    ((1,) * 8, 3, 0.1),
    ((2, 2, 2, 1, 1, 1, 1, 1), 2, 1 / 3),
    ((3, 2, 1, 1, 1, 1), 3, 0.2),
    ((2, 2, 1, 1, 1, 1, 1), 2, 0.2),
    ((1,) * 6, 3, 1 / 3),
    ((3, 2, 1, 1, 1, 1), 2, 0.1),
    ((1,) * 9, 1, 0.2),
    ((3, 2, 1, 1, 1, 1), 1, 1 / 3),
)
SHAPE_PRIMES = (3, 5, 7, 11, 13, 19, 23, 29, 31, 37)


def test_s_bounds_counts_match_oracle():
    cases = [
        (math.prod(p**v for p, v in zip(SHAPE_PRIMES, exps)), j, alpha, None, R_STAR)
        for exps, j, alpha in CONC_SHAPES
    ]
    # ties on the thresholds: alpha = 0 (every weight 0), beta = 0, r = 1
    cases += [(30030, j, 0.0, 0.0, 1.0) for j in (1, 2, 3)]
    cases += [(2**3 * 3**2 * 5 * 7, 2, 0.2, 0.0, 1.0), (2**3 * 3**2 * 5 * 7, 3, 1 / 3, 0.0, R_STAR)]
    cases += [(1, j, 0.2, None, R_STAR) for j in (1, 2, 3)]
    cases += [(3**7, j, ALPHA_STAR, None, R_STAR) for j in (1, 2, 3)]
    for n, j, alpha, beta, r in cases:
        lo, hi = s_bounds(n, j, alpha, beta=beta, r=r)
        assert (lo.lhs, hi.lhs) == oracle_s_counts(n, j, alpha, beta, r), (n, j, alpha, beta, r)


def test_s_bounds_block_boundaries(monkeypatch):
    # blocks of one coordinate (smaller than a tuple), a few, and one tuple
    # short of or past the whole stream
    cases = [
        (math.prod(p**v for p, v in zip(SHAPE_PRIMES, exps)), j, alpha)
        for exps, j, alpha in CONC_SHAPES[4:]
    ]
    cases += [(n, j, ALPHA_STAR) for n in (1, 3**7) for j in (1, 2, 3)]
    for n, j, alpha in cases:
        want = oracle_s_counts(n, j, alpha)
        kap = kappa(factor(n), j)
        for block in sorted({1, 2, 5, (kap - 1) * j, (kap + 1) * j}):
            monkeypatch.setattr(analytic, "_S_BLOCK", block)
            lo, hi = s_bounds(n, j, alpha)
            assert (lo.lhs, hi.lhs) == want, (n, j, alpha, block)


def test_s_bounds_walk_is_blockwise():
    # 3^12 = 531441 tuples; a list of their weights alone would take 8.5 MB
    n = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
    tracemalloc.start()
    try:
        lo, hi = s_bounds(n, 2, ALPHA_STAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (lo.lhs, hi.lhs) == (94449, 80096)
    assert peak < 4 * 2**20, peak


def test_s_bounds_refuses_bad_parameters_before_the_walk(monkeypatch):
    nan = math.nan
    bad = [
        ((30030, 2, 0.2), {"beta": -0.1}, "beta and r must be finite and >= 0"),
        ((30030, 2, 0.2), {"beta": nan}, "beta and r must be finite and >= 0"),
        ((30030, 2, 0.2), {"r": -0.5}, "beta and r must be finite and >= 0"),
        ((2, 300, 0.5), {"r": 0.0}, "too large for float64"),
        ((30030, 2, 1.5), {"beta": -0.1}, "alpha must lie in"),
    ]
    errors = []
    for args, kw, match in bad:
        with pytest.raises(DomainError, match=match) as exc:
            s_bounds(*args, **kw)
        errors.append(str(exc.value))

    def no_walk(f, j):
        raise AssertionError("s_bounds walked the tuples of a refused call")

    monkeypatch.setattr(analytic.factorcore, "coprime_tuples", no_walk)
    for (args, kw, _), message in zip(bad, errors):
        with pytest.raises(DomainError) as exc:
            s_bounds(*args, **kw)
        assert str(exc.value) == message
    # beta and r are refused before the tuple budget
    monkeypatch.setattr(analytic.factorcore, "_MAX_TUPLE_COORDS", 10)
    with pytest.raises(DomainError, match="beta and r must be finite and >= 0"):
        s_bounds(30030, 2, 0.2, beta=-0.1)


def test_thm4_split_structured_example():
    n = 2**10 * 3**5 * 5**3 * 7**2
    res = thm4_split(n, 11)
    assert res.a * res.b == n
    assert math.gcd(res.a, res.b) == 1
    assert all(rec.passed for rec in res.records)
    assert res.rho == tuple(sorted(res.rho, reverse=True)) or True  # shares recorded
    assert sum(res.rho) == pytest.approx(1.0)
    assert sum(res.theta) == pytest.approx(1.0)


def test_thm4_split_prime_power():
    res = thm4_split(3**12, 5)
    assert (res.a, res.b) == (1, 3**12)
    assert all(rec.passed for rec in res.records)


def test_thm4_split_unattainable_threshold():
    res = thm4_split(3**12, 2)  # epsilon > 4*eta: no usable split
    assert res.trivial and res.a is None and res.b is None


def test_thm4_split_domain_errors():
    with pytest.raises(DomainError):
        thm4_split(6, 3)
    with pytest.raises(DomainError):
        thm4_split(100, 7)
    with pytest.raises(DomainError):
        thm4_split(1, 2)


def test_thm4_split_random_pairs_hold():
    rng = random.Random(17)
    primes = (2, 3, 5, 7, 11, 13)
    checked = 0
    for _ in range(60):
        n = 1
        for p in primes:
            n *= p ** rng.randrange(0, 9)
        if n < 2:
            continue
        q = rng.choice((17, 19, 23, 29, 31, 37, 41))
        if q**4 >= n:
            continue
        res = thm4_split(n, q)
        if res.a is None:
            continue
        checked += 1
        assert res.a * res.b == n and math.gcd(res.a, res.b) == 1
        assert all(rec.passed for rec in res.records)
    assert checked >= 20
