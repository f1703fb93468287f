import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzinet import laws
from mzinet.errors import AllocationError
from mzinet.network import NetworkConfig


def _loss_budget(K=1, **etas):
    """One-node network: NetworkConfig is the one source of eta and Lambda."""
    return NetworkConfig(d=1, K=K, alphas=((1.0, 0.0),), weights=(1.0,),
                         P=(1.0,), **etas)


def test_loss_model_total_efficiency():
    model = _loss_budget(K=5, eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)
    assert model.eta_total == pytest.approx(0.99 * 0.89 * 0.9999**9, rel=1e-14)
    assert model.Lambda == pytest.approx(1 / model.eta_total - 1, rel=1e-14)


def test_loss_model_lambda_zero_iff_lossless():
    assert _loss_budget().Lambda == 0.0
    assert _loss_budget(eta_dis=0.999).Lambda > 0.0


@given(st.floats(1e-9, 1e6))
@settings(deadline=None, max_examples=80)
def test_varq_identity_across_scales(n_s):
    r = laws.ns_to_r(n_s)
    assert abs(laws.varq_from_ns(n_s) - math.exp(-2 * r)) <= 1e-12


@given(st.floats(0.0, 15.0))
@settings(deadline=None, max_examples=80)
def test_ns_r_round_trip(r):
    # n_s = sinh^2 r, as NetworkConfig.n_s computes it
    assert laws.ns_to_r(math.sinh(r) ** 2) == pytest.approx(r, abs=1e-12)


def test_ns_to_r_known_point():
    assert laws.ns_to_r(0.68) == pytest.approx(0.7518, abs=1e-4)
    assert laws.ns_to_r(0.0) == 0.0


def test_ns_to_r_rejects_negative():
    with pytest.raises(ValueError):
        laws.ns_to_r(-0.1)


def test_optimized_variance_squeezed_lossless():
    assert laws.optimized_variance(100, 0.75) == pytest.approx(
        math.exp(-1.5) / 100, rel=1e-12)


def test_optimized_variance_recovers_shot_noise():
    for k in (1, 2, 5):
        assert laws.optimized_variance(50, 0.0, Lambda=0.0, K=k) == pytest.approx(
            1 / (k * 50), rel=1e-12)


def test_optimized_variance_high_intensity_point():
    # K = 5 multipass at n_c = 2.7e16, caption efficiencies
    loss = _loss_budget(K=5, eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)
    var = laws.optimized_variance(2.7e16, 0.75, Lambda=loss.Lambda, K=5)
    assert math.sqrt(var) == pytest.approx(1.63e-9, abs=0.005e-9)
    assert math.sqrt(var) / 1.4e-9 < 1.2


def test_variance_vs_ns_no_squeezing():
    assert laws.variance_vs_ns(10, 0.0, Lambda=0.2, K=2) == pytest.approx(
        1.2 / 20, rel=1e-12)


def test_variance_vs_ns_half_split():
    value = laws.variance_vs_ns(100, 50)
    expected = (101 - 2 * math.sqrt(2550)) / 50
    assert value == pytest.approx(expected, rel=1e-12)
    # Heisenberg neighborhood: within a percent of 1/n_T^2
    assert value == pytest.approx(1e-4, rel=0.01)


def test_variance_vs_ns_rejects_exhausted_budget():
    # an exhausted budget, a negative split or NaN, alone or in an array
    for bad in (10.0, 12.0, -1e-3, math.nan):
        with pytest.raises(AllocationError):
            laws.variance_vs_ns(10, bad)
        with pytest.raises(AllocationError):
            laws.variance_vs_ns(10, np.array([0.0, 5.0, bad, 1.0]))


def test_variance_vs_ns_array_equals_scalar_bit_for_bit():
    rng = np.random.default_rng(2026)
    for _ in range(20):
        n_t = float(10 ** rng.uniform(-3, 4))
        lam = float(10 ** rng.uniform(-5, 0.5))
        k = float(rng.integers(1, 6))
        # verify's brute-force grid, then random splits over the budget
        for grid in (np.linspace(0.0, n_t * (1 - 1e-9), 10_000),
                     rng.uniform(0.0, n_t, 500)):
            scalar = [laws.variance_vs_ns(n_t, float(x), Lambda=lam, K=k)
                      for x in grid]
            assert np.array_equal(
                laws.variance_vs_ns(n_t, grid, Lambda=lam, K=k), scalar)
            assert np.array_equal(laws.varq_from_ns(grid),
                                  [laws.varq_from_ns(float(x)) for x in grid])
    value = laws.variance_vs_ns(100.0, 50.0, Lambda=0.1, K=2.0)
    assert type(value) is float
    assert value == laws.variance_vs_ns(100.0, np.array([50.0]), Lambda=0.1, K=2.0)[0]


def test_variance_vs_ns_array_reads_the_float_range_edge_as_the_scalar_does():
    # K (n_T - n_s) of 1e-308, 1e-309 (the quotient overflows) and 0 (it
    # underflows), then n_s^2 past the float range: each element has the
    # bits of the scalar call, and none warns
    n_t = 1e-20
    cases = [(n_t, np.array([0.0, 0.9 * n_t, np.nextafter(n_t, 0.0)]), 1e-288,
              [False, True, True]),
             (1e300, np.array([1.0, 1e200, 1e250]), 1e300, [False, False, False])]
    for n_t, grid, k, inf in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = laws.variance_vs_ns(n_t, grid, Lambda=0.1, K=k)
        scalar = [laws.variance_vs_ns(n_t, float(x), Lambda=0.1, K=k) for x in grid]
        assert values.tobytes() == np.array(scalar).tobytes()
        assert np.isinf(values).tolist() == inf
    # n_s^2 (from 1e155) and 2 n_s (1e308) past the float range read inf,
    # so e^{-2r} reads 0
    grid = np.array([0.0, 1e-300, 1.0, 1e154, 1e155, 1e200, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = laws.varq_from_ns(grid)
        # a numpy scalar reads as its float
        scalars = [laws.varq_from_ns(np.float64(x)) for x in grid[:-1]]
    assert values.tobytes() == np.array([laws.varq_from_ns(float(x)) for x in grid]).tobytes()
    assert np.array(scalars).tobytes() == values[:-1].tobytes()
    assert values[-1] == 0.0


def test_min_variance_over_r_lossless():
    result = laws.min_variance_over_r(100)
    assert result.variance_asymptotic == pytest.approx(1e-4, rel=1e-12)
    assert result.n_s_asymptotic == pytest.approx(50, rel=1e-12)
    assert result.n_s_opt == pytest.approx(50, abs=0.5)
    assert result.variance <= result.variance_asymptotic + 1e-15


def test_min_variance_over_r_lossy_point():
    result = laws.min_variance_over_r(10, Lambda=0.1)
    assert result.variance_asymptotic == pytest.approx(
        (1 + math.sqrt(5)) ** 2 / 400, rel=1e-12)
    assert result.variance <= result.variance_asymptotic


def test_min_variance_over_r_small_budget():
    result = laws.min_variance_over_r(1e-3, Lambda=0.1)
    assert result.variance == pytest.approx(1.1 / 1e-3, rel=2e-3)
    assert result.n_s_opt == pytest.approx((1e-3 / 1.1) ** 2, rel=0.05)


def test_regime_limits_branches():
    limits = laws.regime_limits(0.01, Lambda=0.14, K=5)
    assert limits.low_n == pytest.approx(1.14 / 0.05, rel=1e-12)
    assert limits.active == "low-n"

    limits = laws.regime_limits(1e4, Lambda=1e-3)
    assert limits.loss_floor == pytest.approx(1e-7, rel=1e-12)
    assert limits.heisenberg == pytest.approx(1e-8, rel=1e-12)
    # crossover region: the numeric minimum lies between the two branches
    numeric = laws.min_variance_over_r(1e4, Lambda=1e-3).variance
    assert limits.heisenberg < numeric < limits.low_n


def test_regime_branch_out_of_float_range_reads_inf_or_zero():
    # n_T^2 underflows to 0 below about 1e-162 and overflows above about
    # 1.3e154; the Heisenberg branch then reads inf or 0 and never raises
    assert laws.regime_limits(1e-200, Lambda=0.1, K=2.0).heisenberg == math.inf
    assert laws.regime_limits(1e-320, Lambda=0.1).heisenberg == math.inf
    assert laws.regime_limits(1e200, Lambda=0.1, K=2.0).heisenberg == 0.0
    assert laws.regime_limits(3.0, Lambda=0.1, K=2.0).heisenberg == 1.0 / 18.0
    # so does the asymptote of the squeezing optimum, whose divisor has n_T^2
    assert laws.min_variance_over_r(1e200, 0.1).variance_asymptotic == 0.0


def test_underflowed_divisor_reads_inf():
    # K n_c = 1e-330 underflows to 0: each law reads inf, not a bare
    # ZeroDivisionError, and the QCRB still refuses only n_c = r = 0
    assert laws.optimized_variance(1e-30, 0.5, Lambda=0.1, K=1e-300) == math.inf
    assert laws.variance_vs_ns(1e-30, 1e-31, Lambda=0.1, K=1e-300) == math.inf
    assert laws.qcrb(1e-30, 0.0, K=1e-300) == math.inf
    with pytest.raises(ValueError, match="need n_c > 0 or r > 0"):
        laws.qcrb(0.0, 0.0, K=1e-300)
    limits = laws.regime_limits(1e-30, 0.1, K=1e-300)
    assert limits.low_n == limits.heisenberg == limits.loss_floor == math.inf
    # no loss: the floor is 0 whatever the divisor
    assert laws.regime_limits(1e-30, 0.0, K=1e-300).loss_floor == 0.0
    assert laws.sql_variance(1e-30, K=1e-300) == math.inf
    assert laws.min_variance_over_r(1e-30, 0.1, K=1e-300).variance_asymptotic == math.inf
    assert laws.scaling_with_d(1e-300, 1, 0.0, K=1e-300) == math.inf


def test_regime_limits_lossless_has_no_floor():
    limits = laws.regime_limits(1e4, Lambda=0.0)
    assert limits.loss_floor == 0.0
    assert limits.active == "heisenberg"


def test_regime_consistency_with_numeric_minimum():
    # low-photon branch
    numeric = laws.min_variance_over_r(1e-3, Lambda=0.14).variance
    assert numeric == pytest.approx(laws.regime_limits(1e-3, 0.14).low_n, rel=0.02)
    # Heisenberg branch, lossless
    numeric = laws.min_variance_over_r(100, Lambda=0.0).variance
    assert numeric == pytest.approx(laws.regime_limits(100, 0.0).heisenberg, rel=0.02)
    # loss floor
    lam = 1e-3
    numeric = laws.min_variance_over_r(1e3 / lam, Lambda=lam).variance
    assert numeric == pytest.approx(
        laws.regime_limits(1e3 / lam, lam).loss_floor, rel=0.05)


def test_qcrb_values():
    assert laws.qcrb(100, 0.0) == pytest.approx(0.01, rel=1e-12)
    expected = 1 / (1e6 * math.exp(1.5) + math.sinh(0.75) ** 2)
    assert laws.qcrb(1e6, 0.75) == pytest.approx(expected, rel=1e-14)
    assert laws.qcrb(0.0, 0.75, K=2) == pytest.approx(
        1 / (2 * math.sinh(0.75) ** 2), rel=1e-14)


def test_qcrb_rejects_empty_probe():
    with pytest.raises(ValueError):
        laws.qcrb(0.0, 0.0)


@given(
    n_c=st.floats(1.0, 1e8),
    r=st.floats(0.0, 2.0),
    lam=st.floats(0.0, 1.0),
)
@settings(deadline=None, max_examples=100)
def test_bound_ordering(n_c, r, lam):
    assert laws.optimized_variance(n_c, r, Lambda=lam) >= laws.qcrb(n_c, r) - 1e-12


def test_qcrb_saturation_rate():
    for n_c in (1e4, 1e6, 1e8):
        for r in (0.2, 0.75, 1.0):
            ratio = laws.optimized_variance(n_c, r) / laws.qcrb(n_c, r)
            margin = 10 * math.sinh(r) ** 2 * math.exp(-2 * r) / n_c
            assert ratio - 1 < margin


def test_gain_average_weights_equals_d():
    for d in range(1, 65):
        nu = np.full(d, 1.0 / d)
        assert laws.gain(nu, "low") == pytest.approx(d, rel=1e-12)


def test_gain_single_phase_is_one():
    assert laws.gain([1.0, 0.0, 0.0], "low") == pytest.approx(1.0)
    assert laws.gain([0.3, -0.2], "high") == 1.0


def test_gain_two_node_example():
    assert laws.gain([0.5, 0.5], "low") == pytest.approx(2.0, rel=1e-12)


def test_gain_scale_invariant():
    nu = np.array([0.6, -0.3, 0.1])
    assert laws.gain(nu, "low") == pytest.approx(laws.gain(nu * 7.3, "low"), rel=1e-12)


def test_gain_rejects_zero_weights():
    with pytest.raises(ValueError):
        laws.gain([0.0, 0.0])


def test_scaling_with_d():
    v6 = laws.scaling_with_d(4.5e15, 6, 0.75, Lambda=0.14, K=5)
    assert v6 == pytest.approx(2.69e-18, rel=2e-3)
    v3 = laws.scaling_with_d(4.5e15, 3, 0.75, Lambda=0.14, K=5)
    assert v3 / v6 == pytest.approx(2.0, rel=1e-12)
    assert math.sqrt(v3 / v6) == pytest.approx(math.sqrt(2), rel=1e-12)
    assert laws.scaling_with_d(100, 1, 0.3, Lambda=0.1) == pytest.approx(
        laws.optimized_variance(100, 0.3, Lambda=0.1), rel=1e-12)


def test_db_below_sql_values():
    assert laws.db_below_sql(0.0, 0.0) == 0.0
    assert laws.db_below_sql(0.75, 0.136) == pytest.approx(
        -10 * math.log10(math.exp(-1.5) + 0.136), rel=1e-12)
    # caption efficiencies land inside the reported band
    lam = _loss_budget(eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999).Lambda
    db = laws.db_below_sql(0.75, lam)
    assert 4.36 - 0.35 <= db <= 4.36 + 0.35


@given(st.floats(0.01, 3.0))
@settings(deadline=None, max_examples=60)
def test_db_break_even_loss(r):
    assert abs(laws.db_below_sql(r, 1 - math.exp(-2 * r))) <= 1e-12


def test_sensitivity_report_consistency():
    # a sensitivity report's dB-vs-SQL figure is the laws' db_below_sql, and
    # its QCRB lies below its variance
    nu = (0.5, 0.3, -0.2)
    factor = laws.weight_sum(nu) ** 2
    for r, lam, K in [(0.75, 0.0, 1.0), (0.75, 0.136, 1.0), (1.2, 0.05, 3.0)]:
        variance = laws.optimized_variance(1e4, r, Lambda=lam, K=K) * factor
        sql = laws.sql_variance(1e4, K=K) * factor
        assert 10 * math.log10(sql / variance) == pytest.approx(
            laws.db_below_sql(r, lam), abs=1e-9)
        assert variance >= laws.qcrb(1e4, r, K=K) * factor - 1e-12
