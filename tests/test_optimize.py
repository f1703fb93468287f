import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp

from mzinet import laws
from mzinet.errors import AllocationError, ConfigError
from mzinet.network import sensitivity_numeric, weight_pattern
from mzinet.optimize import (
    configure_optimal,
    optimal_allocation,
    optimize_squeezing,
    scan,
)

from separable_reference import separable_min_variance


# --- allocation --------------------------------------------------------------


def test_allocation_uniform_weights():
    alloc = optimal_allocation(weight_pattern("ave", 6), 60.0)
    mags = [m for m, _ in alloc.alphas]
    assert mags == pytest.approx([math.sqrt(10)] * 6)
    assert alloc.P == pytest.approx([1 / 6] * 6)
    assert sum(m**2 for m in mags) == pytest.approx(60.0, rel=1e-9)


def test_allocation_signed_weights():
    alloc = optimal_allocation((0.5, -0.5), 100.0)
    assert [m**2 for m, _ in alloc.alphas] == pytest.approx([50.0, 50.0])
    assert [ph for _, ph in alloc.alphas] == [0.0, math.pi]
    assert alloc.P == pytest.approx([0.5, 0.5])


def test_allocation_single_weight_takes_all_power():
    alloc = optimal_allocation(weight_pattern("single", 4), 100.0)
    assert alloc.alphas[0][0] ** 2 == pytest.approx(100.0)
    assert alloc.P[0] == 1.0
    assert all(m == 0.0 for m, _ in alloc.alphas[1:])


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
    alloc = optimal_allocation(nu, 25.0)
    mags = np.array([m for m, _ in alloc.alphas])
    p = np.array(alloc.P)
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
    with pytest.raises(OverflowError):
        optimize_squeezing(1e308)
    with pytest.raises(OverflowError):
        optimize_squeezing(1e308, Lambda=0.1)


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


def test_scan_d_axis_keeps_per_node_power():
    base = configure_optimal(weight_pattern("ave", 6), 6e4, 0.75)
    rows = scan("d", [3, 5, 6], base)
    for row, d in zip(rows, (3, 5, 6)):
        assert row.variance_closed_form == pytest.approx(
            laws.scaling_with_d(1e4, d, 0.75), rel=1e-12)


def test_scan_n_t_axis_reports_optimal_split():
    base = configure_optimal(weight_pattern("ave", 2), 10.0, 0.5, K=5,
                             eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)
    rows = scan("n_T", [0.5, 1.0, 2.0], base)
    for row in rows:
        assert row.status == "ok"
        assert row.n_s_opt is not None and 0 <= row.n_s_opt < row.value
        assert row.branch_low is not None
        # the row keeps the operating point it was evaluated at
        assert row.config.n_T == pytest.approx(row.value, rel=1e-12)
        assert row.config.n_s == pytest.approx(row.n_s_opt, rel=1e-9)


def test_scan_records_errors_per_row():
    base = configure_optimal(weight_pattern("ave", 2), 100.0, 0.3)
    rows = scan("n_c", [-5.0, 10.0], base)
    assert rows[0].status.startswith("error:")
    assert rows[1].status == "ok"


def test_scan_weights_axis():
    base = configure_optimal(weight_pattern("ave", 6), 1e4, 0.75)
    rows = scan("weights", ["ave", "stag", "asym"], base)
    values = [row.variance_closed_form for row in rows]
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[0] == pytest.approx(values[2], rel=1e-12)
