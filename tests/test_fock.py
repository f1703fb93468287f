import math

import numpy as np
import pytest

from mzinet.errors import ResourceLimitError, TruncationError
from mzinet.fock import (
    FockStateVector,
    mode_moments,
    multinomial_split,
    oracle_sensitivity,
    squeezed_vacuum_fock,
)
from mzinet.network import closed_form_variance, sensitivity_numeric
from mzinet.optimize import configure_optimal
from mzinet.scenarios import _random_config


def test_squeezed_vacuum_r_zero_is_vacuum():
    state = squeezed_vacuum_fock(0.0, 8)
    expected = np.zeros(9)
    expected[0] = 1.0
    assert np.array_equal(state.amplitudes, expected)


def test_squeezed_vacuum_amplitudes_r02():
    state = squeezed_vacuum_fock(0.2, 16)
    assert state.amplitudes[0] == pytest.approx(0.990115, abs=1e-6)
    assert state.amplitudes[2] == pytest.approx(-0.138186, abs=1e-6)
    assert np.all(state.amplitudes[1::2] == 0.0)


def test_squeezed_vacuum_moments_match_continuous_variable_values():
    r = 0.2
    state = squeezed_vacuum_fock(r, 24)
    mm = mode_moments(multinomial_split(state, [1.0]))
    assert mm.pair[0, 0].real == pytest.approx(-math.sinh(r) * math.cosh(r),
                                               abs=1e-10)
    varq = 1 + 2 * mm.number[0, 0].real + 2 * mm.pair[0, 0].real
    assert varq == pytest.approx(math.exp(-2 * r), abs=1e-10)


def test_squeezed_vacuum_truncation_error():
    with pytest.raises(TruncationError):
        squeezed_vacuum_fock(1.5, 4)


def test_multinomial_split_single_photon():
    one = np.zeros(3)
    one[1] = 1.0
    split = multinomial_split(FockStateVector(2, 1, one), [0.5, 0.5])
    assert split.amplitudes[1, 0] == pytest.approx(1 / math.sqrt(2))
    assert split.amplitudes[0, 1] == pytest.approx(1 / math.sqrt(2))
    assert split.amplitudes[1, 1] == 0.0


def test_multinomial_split_two_photons():
    two = np.zeros(3)
    two[2] = 1.0
    split = multinomial_split(FockStateVector(2, 1, two), [0.5, 0.5])
    assert split.amplitudes[2, 0] == pytest.approx(0.5)
    assert split.amplitudes[1, 1] == pytest.approx(1 / math.sqrt(2))
    assert split.amplitudes[0, 2] == pytest.approx(0.5)


def test_multinomial_split_norm_exact(rng):
    state = squeezed_vacuum_fock(0.35, 20)
    for _ in range(5):
        p = rng.uniform(0, 1, 3)
        p /= p.sum()
        split = multinomial_split(state, p)
        assert abs(split.norm_squared - state.norm_squared) < 1e-13


def test_multinomial_split_occupancies():
    state = squeezed_vacuum_fock(0.3, 20)
    p = [0.2, 0.5, 0.3]
    split = multinomial_split(state, p)
    mm = mode_moments(split)
    n_bar = math.sinh(0.3) ** 2
    for j in range(3):
        assert mm.number[j, j].real == pytest.approx(p[j] * n_bar, abs=1e-9)


def test_multinomial_split_size_guard():
    state = squeezed_vacuum_fock(0.2, 40)
    with pytest.raises(ResourceLimitError):
        multinomial_split(state, [0.2] * 5)


def test_split_parity_only_even_shells():
    split = multinomial_split(squeezed_vacuum_fock(0.3, 12), [0.6, 0.4])
    total = np.add.outer(np.arange(13), np.arange(13))
    assert np.all(split.amplitudes[total % 2 == 1] == 0.0)


def test_moment_identities_for_split_states(rng):
    r = 0.3
    base = squeezed_vacuum_fock(r, 20)
    single = mode_moments(multinomial_split(base, [1.0]))
    bb = single.pair[0, 0].real
    n_bar = single.number[0, 0].real
    for _ in range(5):
        p = rng.uniform(0.05, 1.0, int(rng.integers(2, 4)))
        p /= p.sum()
        mm = mode_moments(multinomial_split(base, p))
        for j in range(p.size):
            assert abs(mm.first[j]) < 1e-12
            for k in range(p.size):
                root = math.sqrt(p[j] * p[k])
                assert mm.number[j, k].real == pytest.approx(root * n_bar, abs=1e-8)
                assert mm.pair[j, k].real == pytest.approx(root * bb, abs=1e-8)
        assert n_bar == pytest.approx(math.sinh(r) ** 2, abs=1e-9)
        assert bb == pytest.approx(-math.sinh(r) * math.cosh(r), abs=1e-9)


def test_oracle_shot_noise_point():
    cfg = configure_optimal((1.0,), 0.49, 0.0)
    assert oracle_sensitivity(cfg) == pytest.approx(1 / 0.49, rel=1e-9)


def test_oracle_two_node_closed_form():
    cfg = configure_optimal((0.5, 0.5), 0.98, 0.2)
    expected = math.exp(-0.4) / 0.98
    assert oracle_sensitivity(cfg) == pytest.approx(expected, rel=1e-6)


def test_oracle_matches_engine_with_loss():
    cfg = configure_optimal((0.5, 0.5), 0.98, 0.2, eta_dis=0.9)
    assert oracle_sensitivity(cfg) == pytest.approx(
        sensitivity_numeric(cfg), rel=1e-6)


def test_oracle_engine_closed_form_three_way_agreement(rng):
    worst = 0.0
    for _ in range(25):
        cfg = _random_config(rng, d_max=3, r_max=0.4)
        cfg = cfg.with_updates(
            alphas=tuple((min(m, 1.0) * 0.33, ph) for m, ph in cfg.alphas), K=1)
        oracle = oracle_sensitivity(cfg)
        engine = sensitivity_numeric(cfg)
        closed = closed_form_variance(cfg)
        worst = max(worst, abs(oracle - engine) / engine,
                    abs(oracle - closed) / closed)
    assert worst < 1e-6


def test_oracle_matches_engine_with_multipass():
    cfg = configure_optimal((0.5, -0.5), 0.72, 0.25, K=3, eta_dis=0.92,
                            eta_m=0.999)
    assert oracle_sensitivity(cfg) == pytest.approx(
        sensitivity_numeric(cfg), rel=1e-6)
    # enhancement scales the variance by 1/(mu K^2) = 1/K at the default mu,
    # up to the mirror-loss difference between the two runs
    single = oracle_sensitivity(cfg.with_updates(K=1, eta_m=1.0))
    varq = math.exp(-0.5)
    lambda_single = 1 / 0.92 - 1
    assert oracle_sensitivity(cfg) * 3 == pytest.approx(
        single * (varq + cfg.Lambda) / (varq + lambda_single), rel=1e-6)


def test_oracle_refuses_large_problems():
    big_d = configure_optimal((0.25,) * 4, 0.5, 0.1)
    with pytest.raises(ResourceLimitError):
        oracle_sensitivity(big_d)
    hot = configure_optimal((1.0,), 0.5, 0.8)
    with pytest.raises(ResourceLimitError):
        oracle_sensitivity(hot)
    bright = configure_optimal((1.0,), 4.0, 0.1)
    with pytest.raises(ResourceLimitError):
        oracle_sensitivity(bright)


def test_oracle_truncation_budget_reported():
    state = squeezed_vacuum_fock(0.4, 20)
    assert 0 <= state.truncation_budget < 1e-8
