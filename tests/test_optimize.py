import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp

from mzinet import errors, laws
from mzinet.errors import AllocationError, ConfigError, FloatRangeError
from mzinet.network import sensitivity_numeric, weight_pattern
from mzinet.optimize import (
    configure_optimal,
    optimal_allocation,
    optimize_squeezing,
    scan,
)
from mzinet.scenarios import _random_config

from separable_reference import separable_min_variance, slope


# --- allocation --------------------------------------------------------------


def test_allocation_uniform_weights():
    alphas, P = optimal_allocation(weight_pattern("ave", 6), 60.0)
    mags = [m for m, _ in alphas]
    assert mags == pytest.approx([math.sqrt(10)] * 6)
    assert P == pytest.approx([1 / 6] * 6)
    assert sum(m**2 for m in mags) == pytest.approx(60.0, rel=1e-9)


def test_allocation_signed_weights():
    alphas, P = optimal_allocation((0.5, -0.5), 100.0)
    assert [m**2 for m, _ in alphas] == pytest.approx([50.0, 50.0])
    assert [ph for _, ph in alphas] == [0.0, math.pi]
    assert P == pytest.approx([0.5, 0.5])


def test_allocation_single_weight_takes_all_power():
    alphas, P = optimal_allocation(weight_pattern("single", 4), 100.0)
    assert alphas[0][0] ** 2 == pytest.approx(100.0)
    assert P[0] == 1.0
    assert all(m == 0.0 for m, _ in alphas[1:])


def test_allocation_rejects_zero_weights():
    with pytest.raises(AllocationError):
        optimal_allocation((0.0, 0.0), 10.0)


def test_allocation_perturbation_never_improves():
    nu = (0.55, -0.25, 0.2)
    n_c = 40.0
    cfg = configure_optimal(nu, n_c, 0.6)
    best = sensitivity_numeric(cfg)
    rng = np.random.default_rng(5)
    for _ in range(30):
        mags2 = np.array([m**2 for m, _ in cfg.alphas])
        mags2 *= rng.uniform(0.95, 1.05, mags2.size)
        mags2 *= n_c / mags2.sum()
        perturbed = cfg.with_updates(
            alphas=tuple((math.sqrt(m2), ph) for m2, (_, ph) in zip(mags2, cfg.alphas))
        )
        assert sensitivity_numeric(perturbed) >= best - 1e-12 * best


def test_allocation_saturates_cauchy_schwarz():
    nu = np.array([0.4, -0.35, 0.25])
    alphas, P = optimal_allocation(nu, 25.0)
    mags = np.array([m for m, _ in alphas])
    p = np.array(P)
    lhs = float(np.sum(np.abs(nu) * np.sqrt(p) / mags)) ** 2
    rhs = float(np.sum(nu**2 / mags**2))
    assert abs(lhs - rhs) <= 1e-12 * rhs


# --- squeezing optimization --------------------------------------------------


def test_optimum_derivation_quadratic():
    x, n_t, lam, k, d = sp.symbols("x n_T Lambda K D", positive=True)
    n_s = (x - 1) ** 2 / (4 * x)                       # sinh^2 r, x = e^{2r}
    variance = (1 / x + lam) / (k * (n_t - n_s))
    assert sp.simplify(sp.diff(n_s, x) - (x**2 - 1) / (4 * x**2)) == 0
    # dV/dn_s = (dV/dx) / (dn_s/dx) vanishes where this quadratic does
    quadratic = lam * x**2 + 2 * x - (4 * n_t + 2 + lam)
    assert sp.simplify(4 * x**2 * k * (n_t - n_s) ** 2 * sp.diff(variance, x)
                       - quadratic) == 0

    # with D^2 = (1 + Lambda)^2 + 4 Lambda n_T, x* is a root, and x* - 1 and
    # (x* - 1)/x* have the cancellation-free forms the optimizer evaluates
    d_squared = (1 + lam) ** 2 + 4 * lam * n_t
    x_star = (4 * n_t + 2 + lam) / (1 + d)

    def vanishes(expr):
        numerator = sp.numer(sp.together(expr))
        return sp.expand(sp.rem(sp.expand(numerator), d**2 - d_squared, d)) == 0

    assert vanishes(quadratic.subs(x, x_star))
    assert vanishes(x_star - 1 - 4 * n_t / (1 + lam + d))
    assert vanishes((x_star - 1) / x_star - 4 * n_t / (1 + lam + 4 * n_t + d))
    # x* - 1 = 4 n_T / (1 + Lambda + D) >= 0 and D > 0, so x* is the root
    # >= 1; the other root, -(1 + D)/Lambda by Vieta, is negative
    assert vanishes(quadratic.subs(x, -(1 + d) / lam))

    # lossless: x* = 2 n_T + 1, n_s* = n_T^2 / (2 n_T + 1)
    lossless = x_star.subs({lam: 0, d: 1})
    assert sp.simplify(lossless - (2 * n_t + 1)) == 0
    assert sp.simplify(n_s.subs(x, lossless) - n_t**2 / (2 * n_t + 1)) == 0


def _mp_optimum(n_t, lam):
    """n_s* from a 50-digit Newton root of the shifted quadratic
    Lambda y^2 + 2(1 + Lambda) y - 4 n_T = 0 in y = x - 1, started above
    the root so that it converges monotonically."""
    with mpmath.workdps(50):
        n_t, lam = mpmath.mpf(n_t), mpmath.mpf(lam)
        y = 2 * n_t / (1 + lam)
        if lam > 0:
            y = min(y, 2 * mpmath.sqrt(n_t / lam))
        for _ in range(200):
            step = ((lam * y + 2 * (1 + lam)) * y - 4 * n_t) / (2 * lam * y + 2 * (1 + lam))
            y -= step
            if abs(step) <= abs(y) * mpmath.mpf(10) ** -45:
                break
        return y * y / (4 * (1 + y))


@pytest.mark.filterwarnings("error")
def test_optimize_squeezing_matches_mpmath_root():
    # 2e-15 relative; below the normal range the float itself carries an
    # absolute rounding of one subnormal step, 2^-1074
    for n_t in np.logspace(-300, 300, 121):
        for lam in (0.0, 1e-10, 1e-3, 0.1, 10.0):
            n_s, _ = optimize_squeezing(float(n_t), Lambda=lam)
            exact = _mp_optimum(float(n_t), lam)
            assert abs(mpmath.mpf(n_s) - exact) <= 2e-15 * exact + 2.0**-1074, (n_t, lam)


def test_optimize_squeezing_lossless_exact_values():
    for n_t in (1e-12, 0.03, 1.0, 100.0, 2.7e16, 1e150):
        n_s, variance = optimize_squeezing(n_t, K=3.0)
        exact = Fraction(n_t) ** 2 / (2 * Fraction(n_t) + 1)
        assert abs(Fraction(n_s) - exact) <= Fraction(2e-15) * exact
        assert variance == laws.variance_vs_ns(n_t, n_s, K=3.0)


def test_optimize_squeezing_out_of_float_range():
    with pytest.raises(FloatRangeError, match="n_s_opt"):
        optimize_squeezing(1e308)
    with pytest.raises(FloatRangeError, match="n_s_opt"):
        optimize_squeezing(1e308, Lambda=0.1)


_TINY_MU = configure_optimal(weight_pattern("ave", 2), 1e4, 0.5, mu=1e-300)


@pytest.mark.parametrize("axis, value, base, quantity", [
    # mu = 1e-300: the laws' K n divisors underflow to 0, the closed-form
    # variance reads inf, and the report's range guard names the ratio
    ("n_c", 1e-30, _TINY_MU, "db_below_sql"),
    ("n_T", 1e-30, _TINY_MU, "db_below_sql"),
    # sum|nu| = 3e200: its square, which scales every law, overflows
    ("n_c", 1e4, configure_optimal((1e200,) * 3, 1e4, 0.5), "(sum|nu|)^2"),
], ids=["n_c_divisor_underflow", "n_T_divisor_underflow", "weight_sum_squared"])
def test_point_past_the_float_range_is_a_typed_row_error(axis, value, base, quantity):
    (row,) = scan(axis, [value], base, engines=("analytic",))
    assert row.status.startswith(f"error:FloatRangeError: {quantity}: "), row.status


def test_optimize_squeezing_lossless_half_split():
    n_s, variance = optimize_squeezing(100.0)
    assert n_s == pytest.approx(50.0, abs=0.5)
    assert variance == pytest.approx(1e-4, rel=0.02)


def test_optimize_squeezing_matches_dense_grid():
    n_s, variance = optimize_squeezing(100.0)
    grid = np.linspace(0, 100 * (1 - 1e-9), 1_000_000)
    dense = laws.variance_vs_ns(100.0, grid).min()
    assert variance <= dense + 1e-15


def test_optimize_squeezing_never_beaten_by_grid(rng):
    for _ in range(100):
        n_t = float(10 ** rng.uniform(-3, 4))
        lam = float(10 ** rng.uniform(-5, 0.5))
        k = float(rng.integers(1, 6))
        _, best = optimize_squeezing(n_t, Lambda=lam, K=k)
        grid = np.linspace(0, n_t * (1 - 1e-9), 10_000)
        grid_best = laws.variance_vs_ns(n_t, grid, Lambda=lam, K=k).min()
        assert best <= grid_best * (1 + 1e-8)


def test_optimize_squeezing_below_asymptotic_branches(rng):
    for _ in range(25):
        n_t = float(10 ** rng.uniform(-2, 4))
        lam = float(10 ** rng.uniform(-5, 0))
        _, best = optimize_squeezing(n_t, Lambda=lam)
        root = math.sqrt(1 + 4 * lam * n_t)
        assert best <= (1 + root) ** 2 / (4 * n_t**2) * (1 + 1e-12)
        assert best <= (1 + lam) / n_t * (1 + 1e-12)


def test_optimize_squeezing_tiny_budget():
    lam = 0.1
    n_s, variance = optimize_squeezing(1e-4, Lambda=lam)
    assert n_s < 1e-7
    assert variance == pytest.approx((1 + lam) / 1e-4, rel=1e-3)


def test_optimize_squeezing_experimental_splits_near_optimal():
    # reported operating points: total budget vs squeezed photons used
    budgets = [0.09, 0.28, 0.46, 0.88, 1.56, 2.4, 3.29]
    used = [0.006, 0.04, 0.09, 0.21, 0.42, 0.68, 0.93]
    lam = configure_optimal((1.0,), 1.0, 0.0, K=5, eta_dis=0.99, eta_mzi=0.89,
                            eta_m=0.9999).Lambda
    for n_t, n_s_exp in zip(budgets, used):
        n_s_opt, _ = optimize_squeezing(n_t, Lambda=lam, K=5)
        assert abs(n_s_opt - n_s_exp) / n_s_exp <= 0.25


def test_optimize_squeezing_rejects_bad_budget():
    with pytest.raises(AllocationError):
        optimize_squeezing(0.0)


# --- separable baseline ------------------------------------------------------


def test_separable_single_node_matches_scalar_optimum():
    result = separable_min_variance(10.0, Lambda=0.01, nu=(1.0,))
    _, expected = optimize_squeezing(10.0, Lambda=0.01)
    assert result.variance == pytest.approx(expected, rel=1e-9)
    assert result.budgets == (10.0,)


def test_separable_symmetric_weights_split_evenly():
    result = separable_min_variance(1000.0, Lambda=1e-6, nu=weight_pattern("ave", 4))
    assert np.allclose(result.budgets, 250.0, rtol=1e-3)


def test_separable_zero_weight_nodes_get_nothing():
    result = separable_min_variance(100.0, Lambda=0.0, nu=(1.0, 0.0))
    assert result.budgets[1] == 0.0


UNEQUAL = (0.7, -0.2, 0.1)


@pytest.mark.parametrize("lam", [0.0, 1e-6, 0.1])
@pytest.mark.parametrize("budget", [1e-3, 1.0, 1e4])
def test_separable_slope_is_the_envelope_derivative(budget, lam):
    # -dV*/db = V*(b) / (b - n_s*(b)), against a central difference
    h = 1e-6 * budget
    above, below = (optimize_squeezing(b, Lambda=lam)[1] for b in (budget + h, budget - h))
    assert slope(budget, lam, 1.0) == pytest.approx((below - above) / (2 * h), rel=1e-6)


@pytest.mark.parametrize("n_t, lam, nu", [
    (10.0, 0.01, (1.0,)),
    (100.0, 0.0, (1.0, 0.0)),
    (1000.0, 1e-6, weight_pattern("ave", 4)),
    (1e4, 1e-8, weight_pattern("ave", 6)),
    (1e6, 0.1, weight_pattern("ave", 4)),
    (1e3, 1e-4, UNEQUAL),
    (1e4, 1e-8, UNEQUAL),
    (1e6, 0.1, UNEQUAL),
], ids=["single", "zero_weight", "ave4", "ave6_heisenberg", "ave4_floor",
        "unequal", "unequal_heisenberg", "unequal_floor"])
def test_separable_split_meets_the_optimality_condition(n_t, lam, nu):
    # every weighted node at one marginal nu_j^2 V*/(b_j - n_s*), the
    # budgets summing to n_T
    result = separable_min_variance(n_t, Lambda=lam, nu=nu)
    assert sum(result.budgets) == pytest.approx(n_t, rel=1e-12, abs=0)
    marginals = [w ** 2 * slope(b, lam, 1.0) for w, b in zip(nu, result.budgets) if w]
    assert max(marginals) == pytest.approx(min(marginals), rel=1e-9, abs=0)


def test_separable_split_is_the_minimum():
    n_t, lam = 1e3, 1e-4
    result = separable_min_variance(n_t, Lambda=lam, nu=UNEQUAL)
    budgets = np.array(result.budgets)
    rng = np.random.default_rng(20260808)
    for _ in range(2000):
        # a feasible step: zero sum, each budget kept positive
        step = rng.normal(size=budgets.size)
        step -= step.mean()
        step *= 10 ** rng.uniform(-6, -0.5) * budgets.min() / np.abs(step).max()
        moved = sum(w ** 2 * optimize_squeezing(b, Lambda=lam)[1]
                    for w, b in zip(UNEQUAL, budgets + step))
        assert moved >= result.variance


def test_gain_realization_low_and_high_regime():
    # Heisenberg window: Lambda * n_T = 1e-4, n_T >> 1
    lam = 1e-8
    n_t = 1e-4 / lam
    for d in (2, 4, 6):
        nu = weight_pattern("ave", d)
        _, ent = optimize_squeezing(n_t, Lambda=lam)
        sep = separable_min_variance(n_t, Lambda=lam, nu=nu).variance
        realized = sep / (ent * laws.weight_sum(nu) ** 2)
        assert realized == pytest.approx(laws.gain(nu, "low"), rel=0.02)

    # loss floor: n_T >> 1/Lambda
    lam = 0.1
    n_t = 1e6
    nu = weight_pattern("ave", 4)
    _, ent = optimize_squeezing(n_t, Lambda=lam)
    sep = separable_min_variance(n_t, Lambda=lam, nu=nu).variance
    realized = sep / (ent * laws.weight_sum(nu) ** 2)
    assert realized == pytest.approx(1.0, rel=0.02)


# --- scans -------------------------------------------------------------------


def test_scan_eta_dis_rows_ordered_and_complete():
    base = configure_optimal(weight_pattern("ave", 3), 1e4, 0.75,
                             eta_mzi=0.89, eta_m=0.9999)
    grid = np.linspace(0.1, 1.0, 10)
    rows = scan("eta_dis", grid, base)
    assert [row.value for row in rows] == pytest.approx(list(grid))
    assert all(row.status == "ok" for row in rows)
    variances = [row.variance_closed_form for row in rows]
    assert all(a >= b for a, b in zip(variances, variances[1:]))
    for row in rows:
        assert row.variance_numeric == pytest.approx(row.variance_closed_form,
                                                     rel=1e-9)


def test_scan_requires_monotone_grid():
    base = configure_optimal(weight_pattern("ave", 2), 100.0, 0.3)
    with pytest.raises(ConfigError):
        scan("eta_dis", [0.5, 0.9, 0.7], base)
    with pytest.raises(ConfigError):
        scan("eta_dis", [], base)


@pytest.mark.parametrize("axis, engines, message", [
    ("n_c", ("numerc",), "engines: unknown scan engine 'numerc'"),
    ("n_c", ("analytic", "trace"), "engines: unknown scan engine 'trace'"),
    ("n_cc", ("analytic",), "axis: unknown scan axis 'n_cc'"),
], ids=["misspelled_engine", "trace_engine", "unknown_axis"])
def test_scan_refuses_an_axis_or_engine_it_does_not_run(axis, engines, message):
    # an engine name scan does not run would leave every row "ok" with its
    # cells empty; the trace engine runs in run_scenario, on scan's rows
    base = configure_optimal(weight_pattern("ave", 2), 100.0, 0.3)
    with pytest.raises(ConfigError, match=message):
        scan(axis, [10.0, 100.0], base, engines=engines)


def test_scan_d_axis_keeps_per_node_power():
    base = configure_optimal(weight_pattern("ave", 6), 6e4, 0.75)
    rows = scan("d", [3, 5, 6], base)
    for row, d in zip(rows, (3, 5, 6)):
        assert row.variance_closed_form == pytest.approx(
            laws.scaling_with_d(1e4, d, 0.75), rel=1e-12)


def test_scan_n_t_axis_reports_optimal_split():
    # d = 6 'ave' weights sum to 1 - 2**-53, so a factor taken from the
    # normalized weights would miss (sum|nu|)^2 in the last bit
    for d in (2, 6):
        base = configure_optimal(weight_pattern("ave", d), 10.0, 0.5, K=5,
                                 eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)
        rows = scan("n_T", np.logspace(-1.5, 1.5, 31).tolist(), base)
        # config.n_T = (n_T - n_s) + n_s misses the grid value in the last
        # bit at some points; the budget columns must not follow that rounding
        assert any(row.config.n_T != row.value for row in rows)
        for row in rows:
            cfg = row.config
            assert row.status == "ok"
            assert row.n_s_opt is not None and 0 <= row.n_s_opt < row.value
            # the row keeps the operating point it was evaluated at
            assert cfg.n_T == pytest.approx(row.value, rel=1e-12)
            assert cfg.n_s == pytest.approx(row.n_s_opt, rel=1e-9)
            # one rule: each law per unit weight sum, times (sum|nu|)^2 once
            factor = laws.weight_sum(cfg.weights) ** 2
            assert row.variance_closed_form == laws.optimized_variance(
                cfg.n_c, cfg.r, Lambda=cfg.Lambda, K=cfg.enhancement) * factor
            assert row.variance_qcrb == laws.qcrb(
                cfg.n_c, cfg.r, K=cfg.enhancement) * factor
            assert row.sql == laws.sql_variance(row.value, K=1.0) * factor
            limits = laws.regime_limits(row.value, cfg.Lambda, K=cfg.enhancement)
            assert row.regime == limits.active
            assert (row.branch_low, row.branch_heisenberg, row.branch_floor) == (
                limits.low_n * factor, limits.heisenberg * factor,
                limits.loss_floor * factor)


def test_scan_records_errors_per_row():
    base = configure_optimal(weight_pattern("ave", 2), 100.0, 0.3)
    rows = scan("n_c", [-5.0, 10.0], base)
    assert rows[0].status.startswith("error:")
    assert rows[1].status == "ok"
    # a pass count whose square is no float fails its row, naming K
    rows = scan("K", [2, 2**512], base)
    assert [row.status[:17] for row in rows] == ["ok", "error:ConfigError"]
    assert rows[1].status.startswith("error:ConfigError: K: ")


def _extreme_points(seed, count):
    """(axis, value, base): `count` points on random optimal networks of
    d <= 6 (`_random_config`'s base), on the n_c, n_T or eta_dis axis, at a
    value log-uniform over [1e-320, 1e308] (eta_dis: [1e-320, 1])."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        base = _random_config(rng, d_max=6)
        axis = ("n_c", "n_T", "eta_dis")[int(rng.integers(3))]
        yield axis, 10.0 ** rng.uniform(-320.0, 0.0 if axis == "eta_dis" else 308.0), base


def _leaves_float_range(axis, value, row) -> bool:
    """Whether a quantity of the row's point lies, in 60-digit arithmetic on
    its own floats, at the edge of the float range or past it (above
    DBL_MAX / 2 or below 1e-300): the closed-form variance, the SQL, their
    ratio, or twice the numeric engine's vacuum term sum x_j^2, which bounds
    its rounding scale |x|^T |Gamma| |x|.  Without a config, the n_T axis's
    squeezing optimum, which needs 4 n_T."""
    edge = mpmath.mpf(sys.float_info.max) / 2

    def out(q):
        return not mpmath.mpf("1e-300") <= q <= edge

    if row.config is None:
        return axis == "n_T" and out(4 * mpmath.mpf(value))
    cfg = row.config
    eta = mpmath.mpf(cfg.eta_total)
    gain = mpmath.sqrt(mpmath.mpf(cfg.enhancement))
    factor = mpmath.fsum(abs(mpmath.mpf(w)) for w in cfg.weights) ** 2
    variance = ((mpmath.exp(-2 * mpmath.mpf(cfg.r)) + 1 / eta - 1)
                / (mpmath.mpf(cfg.enhancement) * mpmath.mpf(cfg.n_c)) * factor)
    sql = factor / mpmath.mpf(value if axis == "n_T" else cfg.n_T)
    vacuum = mpmath.fsum((mpmath.mpf(w) / (mpmath.sqrt(eta) * gain * mpmath.mpf(mag))) ** 2
                         for w, (mag, _) in zip(cfg.weights, cfg.alphas))
    return any(map(out, (variance, sql, sql / variance, 2 * vacuum)))


def test_extreme_points_fail_only_where_a_quantity_leaves_the_float_range():
    """3000 seeded points up to the float range: every row is ok or carries
    an errors.py class, no RuntimeWarning is emitted, an ok row's variances
    are finite, and a row fails only where a quantity it reports leaves the
    float range (`_leaves_float_range`), never for a bookkeeping column such
    as the Heisenberg branch 1/(K n_T^2).  Before the failure rule was
    typed, 832 of these rows failed, 756 of them on an OverflowError or a
    ZeroDivisionError of that branch, and one emitted a RuntimeWarning; now
    2924 are ok and 76 carry FloatRangeError."""
    statuses = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mpmath.workdps(60):
            for axis, value, base in _extreme_points(34, 3000):
                (row,) = scan(axis, [value], base)
                name = row.status.split(":")[1] if row.status != "ok" else "ok"
                statuses[name] = statuses.get(name, 0) + 1
                if row.status == "ok":
                    assert all(0.0 < v < math.inf for v in (
                        row.variance_closed_form, row.variance_numeric, row.sql))
                    assert math.isfinite(row.db_below_sql)
                else:
                    assert issubclass(getattr(errors, name), errors.MzinetError), row.status
                    assert _leaves_float_range(axis, value, row), (axis, value, row.status)
    assert statuses["ok"] > 2900, statuses


def test_scan_weights_axis():
    base = configure_optimal(weight_pattern("ave", 6), 1e4, 0.75)
    rows = scan("weights", ["ave", "stag", "asym"], base)
    values = [row.variance_closed_form for row in rows]
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[0] == pytest.approx(values[2], rel=1e-12)
