import importlib.resources
import math
import tracemalloc

import numpy as np
import pytest

from mzinet import fock, optimize
from mzinet.errors import ResourceLimitError, TruncationError
from mzinet.fock import (
    AMPLITUDE_GUARD,
    _cutoff,
    _ladders,
    _pick_cutoff,
    _split,
    _squeezed_vacuum,
    oracle_sensitivity,
)
from mzinet.network import closed_form_variance, sensitivity_numeric
from mzinet.optimize import configure_optimal
from mzinet.scenarios import _random_config, load_scenario


def _amplitudes(c, P):
    """The split state as {occupation vector: amplitude}."""
    psi, occ = _split(np.asarray(c, dtype=float), P)
    return dict(zip(map(tuple, occ.tolist()), psi))


def _moments(psi, occ):
    """<b_j>, <b_j† b_k> and <b_j b_k> of a split state, from its ladders."""
    lowered, raised = _ladders(psi, occ)
    return (lowered @ psi, np.einsum("ji,ki->jk", lowered, lowered),
            np.einsum("ji,ki->jk", raised, lowered))


def test_squeezed_vacuum_r_zero_is_vacuum():
    expected = np.zeros(9)
    expected[0] = 1.0
    assert np.array_equal(_squeezed_vacuum(0.0, 8), expected)


def test_squeezed_vacuum_amplitudes_r02():
    c = _squeezed_vacuum(0.2, 16)
    assert c[0] == pytest.approx(0.990115, abs=1e-6)
    assert c[2] == pytest.approx(-0.138186, abs=1e-6)
    assert np.all(c[1::2] == 0.0)


def test_squeezed_vacuum_moments_match_continuous_variable_values():
    r = 0.2
    _, number, pair = _moments(*_split(_squeezed_vacuum(r, 24), [1.0]))
    assert pair[0, 0] == pytest.approx(-math.sinh(r) * math.cosh(r), abs=1e-10)
    varq = 1 + 2 * number[0, 0] + 2 * pair[0, 0]
    assert varq == pytest.approx(math.exp(-2 * r), abs=1e-10)


def test_squeezed_vacuum_truncation_error():
    # no even cutoff below 64 leaves a norm deficit under the target
    with pytest.raises(TruncationError):
        _pick_cutoff(1.5)


def test_multinomial_split_single_photon():
    split = _amplitudes([0.0, 1.0, 0.0], [0.5, 0.5])
    assert split[1, 0] == pytest.approx(1 / math.sqrt(2))
    assert split[0, 1] == pytest.approx(1 / math.sqrt(2))
    assert split[1, 1] == 0.0
    assert set(split) == {(a, b) for a in range(3) for b in range(3 - a)}


def test_multinomial_split_two_photons():
    split = _amplitudes([0.0, 0.0, 1.0], [0.5, 0.5])
    assert split[2, 0] == pytest.approx(0.5)
    assert split[1, 1] == pytest.approx(1 / math.sqrt(2))
    assert split[0, 2] == pytest.approx(0.5)


def test_multinomial_split_norm_exact(rng):
    c = _squeezed_vacuum(0.35, 20)
    for _ in range(5):
        p = rng.uniform(0, 1, 3)
        p /= p.sum()
        psi, _ = _split(c, p)
        assert abs(psi @ psi - c @ c) < 1e-13


def test_multinomial_split_occupancies():
    p = [0.2, 0.5, 0.3]
    _, number, _ = _moments(*_split(_squeezed_vacuum(0.3, 20), p))
    n_bar = math.sinh(0.3) ** 2
    for j in range(3):
        assert number[j, j] == pytest.approx(p[j] * n_bar, abs=1e-9)


def test_multinomial_split_size_guard():
    # C(n + d, d) occupation vectors of d entries: 2.26 M at d = 6, r = 0.4
    assert _cutoff(6, 0.4) == 22
    assert math.comb(28, 6) * 6 <= AMPLITUDE_GUARD < math.comb(29, 7) * 7
    assert _cutoff(13, 0.1) == 8
    for d, r in ((7, 0.4), (14, 0.1)):
        with pytest.raises(ResourceLimitError):
            _cutoff(d, r)
    with pytest.raises(ResourceLimitError):
        _cutoff(1, 0.41)


def test_split_parity_only_even_shells():
    psi, occ = _split(_squeezed_vacuum(0.3, 12), [0.6, 0.4])
    assert psi.size == math.comb(14, 2)
    assert np.all(psi[occ.sum(axis=1) % 2 == 1] == 0.0)
    assert np.all(psi[occ.sum(axis=1) % 2 == 0] != 0.0)


def test_ladders_match_the_dense_shift(rng):
    # the index map against b_j applied to the dense (n+1)^d tensor
    n, p = 6, rng.uniform(0.1, 1.0, 3)
    psi, occ = _split(_squeezed_vacuum(0.3, n) + 0.1, p / p.sum())
    dense = np.zeros((n + 1,) * 3)
    dense[tuple(occ.T)] = psi
    lowered, raised = _ladders(psi, occ)
    root = np.sqrt(np.arange(n + 1.0))
    for j in range(3):
        shape = [1, 1, 1]
        shape[j] = n + 1
        down = np.roll(dense * root.reshape(shape), -1, axis=j)
        up = np.roll(dense, 1, axis=j) * root.reshape(shape)
        assert np.array_equal(lowered[j], down[tuple(occ.T)])
        assert np.array_equal(raised[j], up[tuple(occ.T)])


def test_moment_identities_for_split_states(rng):
    r = 0.3
    base = _squeezed_vacuum(r, 20)
    _, single_number, single_pair = _moments(*_split(base, [1.0]))
    bb = single_pair[0, 0]
    n_bar = single_number[0, 0]
    for _ in range(5):
        p = rng.uniform(0.05, 1.0, int(rng.integers(2, 4)))
        p /= p.sum()
        first, number, pair = _moments(*_split(base, p))
        for j in range(p.size):
            assert abs(first[j]) < 1e-12
            for k in range(p.size):
                root = math.sqrt(p[j] * p[k])
                assert number[j, k] == pytest.approx(root * n_bar, abs=1e-8)
                assert pair[j, k] == pytest.approx(root * bb, abs=1e-8)
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


def test_oracle_with_an_empty_node():
    # the unweighted node gets no photons: P = (1, 0)
    cfg = configure_optimal((1.0, 0.0), 0.5, 0.2)
    assert cfg.P[1] == 0.0
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


def _three_way(cfg):
    oracle = oracle_sensitivity(cfg)
    return max(abs(oracle - sensitivity_numeric(cfg)) / oracle,
               abs(oracle - closed_form_variance(cfg)) / oracle)


def test_oracle_at_six_nodes_on_fig4_low_intensity_points():
    # the paper's crossover regime: every fig4 point whose optimal split
    # squeezes by r <= 0.4 (n_T <= 0.6), at K = 5 and fig4's losses
    scenario = load_scenario(importlib.resources.files("mzinet") / "scenarios" / "fig4.json")
    base = scenario.base_config()
    configs = [optimize._config_for_point("n_T", value, base)[0]
               for value in scenario.scans[0].grid]
    low = [cfg for cfg in configs if cfg.r <= 0.4]
    assert len(low) == 17 and {(cfg.d, cfg.K) for cfg in low} == {(6, 5)}
    assert max(_three_way(cfg) for cfg in low) < 1e-6


def test_oracle_matches_engine_on_four_to_six_nodes(rng):
    configs = []
    while len(configs) < 8:
        cfg = _random_config(rng, d_max=6, r_max=0.3, optimal_p=False)
        if cfg.d >= 4:
            configs.append(cfg)
    assert {cfg.d for cfg in configs} == {4, 5, 6}
    assert max(_three_way(cfg) for cfg in configs) < 1e-6


def test_oracle_reads_large_coherent_amplitudes():
    # no coherent amplitude enters the truncated state
    cfg = configure_optimal((0.5, 0.5), 7e4, 0.3)
    assert cfg.alphas[0][0] > 180
    assert oracle_sensitivity(cfg) == pytest.approx(
        sensitivity_numeric(cfg), rel=1e-6)


def test_oracle_memory_at_six_nodes():
    cfg = configure_optimal((1 / 6,) * 6, 0.6, 0.4, K=5, eta_dis=0.9)
    tracemalloc.start()
    try:
        oracle = oracle_sensitivity(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128e6
    assert oracle == pytest.approx(sensitivity_numeric(cfg), rel=1e-6)


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
    # the size guard: 1.1e7 entries at d = 7, r = 0.4 and 4.5e6 at d = 14,
    # r = 0.1, while d = 13 holds 2.6e6
    for d, r in ((7, 0.4), (14, 0.1)):
        with pytest.raises(ResourceLimitError):
            oracle_sensitivity(configure_optimal((1 / d,) * d, 0.5, r))
    cfg = configure_optimal((1 / 13,) * 13, 0.5, 0.1)
    assert oracle_sensitivity(cfg) == pytest.approx(sensitivity_numeric(cfg), rel=1e-6)
    hot = configure_optimal((1.0,), 0.5, 0.8)
    with pytest.raises(ResourceLimitError):
        oracle_sensitivity(hot)


def test_oracle_truncation_budget_reported(monkeypatch):
    c = _squeezed_vacuum(0.4, 20)
    assert 0 <= 1 - c @ c < 1e-8
    # the split state's norm deficit is guarded against its budget
    monkeypatch.setattr(fock, "ORACLE_NORM_DEFICIT", 1e-13)
    with pytest.raises(TruncationError):
        oracle_sensitivity(configure_optimal((0.5, 0.5), 0.98, 0.4))
