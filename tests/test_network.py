import hashlib
import math
import sys

import numpy as np
import pytest

from mzinet import gaussian as g, scenarios
from mzinet.errors import (
    ConfigError,
    DarkResponseError,
    FloatRangeError,
    InfeasibleSplitError,
    PrecisionLossError,
)
from mzinet.fock import oracle_sensitivity
from mzinet.network import (
    K_MAX,
    R_MAX,
    REMAINDER_FLOOR,
    NetworkConfig,
    build_network,
    closed_form_variance,
    noise_matrix,
    qc_cascade,
    response,
    sensitivity_numeric,
    sensitivity_separable,
    weight_pattern,
)
from mzinet.optimize import configure_optimal, scan
from mzinet.scenarios import _random_config
from mzinet.tracelab import TraceParams, simulate_joint_noise

import reference_ops as ref
from reference_ops import homodyne_moments


# --- configuration -----------------------------------------------------------


def test_config_validation_names_fields():
    with pytest.raises(ConfigError, match="P"):
        NetworkConfig(d=2, alphas=((1, 0), (1, 0)), weights=(0.5, 0.5),
                      P=(0.5, 0.6))
    with pytest.raises(ConfigError, match="eta_dis"):
        NetworkConfig(d=1, alphas=((1, 0),), weights=(1,), P=(1,), eta_dis=1.2)
    with pytest.raises(ConfigError, match="K"):
        NetworkConfig(d=1, alphas=((1, 0),), weights=(1,), P=(1,), K=0)


def test_config_pass_count_square_is_a_float():
    # K_MAX**2 is at most the largest float and (K_MAX + 1)**2 is not; the
    # rule compares integers exactly, so the edge is sharp
    assert K_MAX**2 <= sys.float_info.max < (K_MAX + 1) ** 2
    base = dict(d=1, alphas=((1.0, 0.0),), weights=(1.0,), P=(1.0,))
    assert NetworkConfig(K=K_MAX, **base).enhancement == pytest.approx(K_MAX, rel=1e-15)
    for K in (K_MAX + 1, 2**512 - 1, float(2**512)):
        with pytest.raises(ConfigError, match="^K: .* whose square is a float$"):
            NetworkConfig(K=K, **base)


def test_config_enhancement_defaults_to_pass_count():
    cfg = configure_optimal((1.0,), 10.0, 0.2, K=5)
    assert cfg.mu_value == pytest.approx(0.2)
    assert cfg.enhancement == pytest.approx(5.0)
    assert cfg.signal_gain == pytest.approx(math.sqrt(5.0))
    custom = cfg.with_updates(mu=1.0)
    assert custom.enhancement == pytest.approx(25.0)


def test_config_efficiency_law():
    cfg = configure_optimal((1.0,), 10.0, 0.0, K=5,
                            eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)
    assert cfg.eta_total == pytest.approx(0.99 * 0.89 * 0.9999**9, rel=1e-14)
    assert 0 < cfg.eta_total <= 1


def test_weight_patterns():
    assert weight_pattern("ave", 3) == (1 / 3, 1 / 3, 1 / 3)
    assert weight_pattern("single", 3) == (1.0, 0.0, 0.0)
    assert weight_pattern("stag", 4) == (0.25, -0.25, 0.25, -0.25)
    assert weight_pattern("asym", 6) == (1 / 6, 1 / 6, 1 / 6, -1 / 6, -1 / 6, -1 / 6)


# sha256 of the reprs, one per line, of the first 8 configs that
# _random_config draws from default_rng(seed), as drawn with
# rng.choice([-1.0, 1.0], d) for the signs; every field holds Python
# floats, so the text does not depend on numpy's scalar repr
RANDOM_CONFIG_STREAMS = [
    (0, 4, True, "0e5d49847627a336707d467935f697f04e847548bf3bf2ac6f11b5f9073687dd"),
    (0, 4, False, "96c23dcfcb8c8a8d971732f052d5e68697e0da10e9d316ba92da08e74fdc36c7"),
    (0, 8, True, "f225925eddc01da2e95fb9f28f84a5153a50a90018d0ca119819cb9e41aedd2f"),
    (0, 8, False, "543d01593d56d545acd9146534740cf21f4b7fce4edd5276415dfccc623c7a54"),
    (20260808, 4, True, "d8d3ac6a5bd434bed5bb068bee9c2b76f2f1f6e482f19da293251afe72cc37ff"),
    (20260808, 4, False, "7ea5c25794b3baffd79b95fff9215dac8ed4150331e9f422887305cffd3b4c77"),
    (20260808, 8, True, "e8d618ea45c701a3b2bc94161d655b40a5a7170c9c9a3dbc3b01ee62d1f2de0f"),
    (20260808, 8, False, "375d57845c52f6bb553b4d4c7e4c4144b456f81a83d770f85fbb2b0aeb05848f"),
]


@pytest.mark.parametrize("seed, d_max, optimal_p, digest", RANDOM_CONFIG_STREAMS,
                         ids=[f"{seed}-{d_max}-{p}" for seed, d_max, p, _ in RANDOM_CONFIG_STREAMS])
def test_random_config_stream_is_pinned(seed, d_max, optimal_p, digest):
    # verify's checks and many tests draw from this one generator
    rng = np.random.default_rng(seed)
    text = "\n".join(repr(_random_config(rng, d_max=d_max, optimal_p=optimal_p))
                     for _ in range(8))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# --- cascade -----------------------------------------------------------------


def test_cascade_two_way_split():
    ops = qc_cascade([0.5, 0.5])
    assert len(ops) == 1
    (pair, t) = ops[0]
    assert t == pytest.approx(0.5)


def test_cascade_three_way_peel():
    ops = qc_cascade([1 / 3, 1 / 3, 1 / 3])
    assert [1 - t for _, t in ops] == pytest.approx([1 / 3, 1 / 2])


def test_cascade_single_port():
    ops = qc_cascade([1.0, 0.0, 0.0])
    assert all(t == 1.0 for _, t in ops)


def test_cascade_underflow_guard():
    # mass exhausted by output 2 but output 3 still wants photons
    with pytest.raises(InfeasibleSplitError):
        qc_cascade([0.0, 1.0 - 1e-16, 1e-16])

    with pytest.raises(InfeasibleSplitError):
        qc_cascade([0.5, 0.5, 0.1])  # does not sum to one


def test_cascade_total_transfer_is_fine():
    # carrier may end up empty as long as nothing is requested afterwards
    ops = qc_cascade([0.0, 1.0])
    assert ops == [((1, 0), 0.0)]


def test_cascade_distribution_matches_p_exactly(rng):
    for _ in range(20):
        d = int(rng.integers(1, 9))
        p = rng.uniform(0, 1, d)
        p /= p.sum()
        amp = np.zeros(d)
        amp[0] = 1.0
        for (i, j), t in qc_cascade(p):
            ai, aj = amp[i], amp[j]
            amp[i] = math.sqrt(t) * ai + math.sqrt(1 - t) * aj
            amp[j] = -math.sqrt(1 - t) * ai + math.sqrt(t) * aj
        assert np.max(np.abs(amp**2 - p)) < 1e-12
        assert np.all(amp >= -1e-15)  # all-positive splitting amplitudes


def _cascade_outcome(cascade, P):
    try:
        return repr(cascade(P))
    except InfeasibleSplitError as exc:
        return f"InfeasibleSplitError: {exc}"


def test_cascade_equals_the_loop_bit_for_bit(rng):
    for d in [1, 2, 3, 4, 7, 64, 513, 4096] + [int(x) for x in rng.integers(1, 40, 30)]:
        P = rng.uniform(0.0, 1.0, d)
        P[rng.uniform(size=d) < 0.3] = 0.0
        P[0] = P[0] or 1.0
        P /= P.sum()
        assert _cascade_outcome(qc_cascade, P) == _cascade_outcome(ref.qc_cascade, P)
    # outputs 1 and 2 leave exactly REMAINDER_FLOOR (both subtractions are
    # exact), which still counts as mass; output 3 then leaves half of it,
    # which is empty
    left = 19 * 2.0**-53
    p1, p2 = 1.0 - left, left - REMAINDER_FLOOR
    assert (1.0 - p1) - p2 == REMAINDER_FLOOR
    half = REMAINDER_FLOOR / 2
    edges = [
        [0.0, p1, p2, half, 0.0],
        [0.0, p1, p2, half, half],  # starved at output 4
        [0.0, p1, p2, REMAINDER_FLOOR, 0.0],
        [0.5, -0.0, 0.5, 0.0],
    ]
    for P in edges:
        assert _cascade_outcome(qc_cascade, P) == _cascade_outcome(ref.qc_cascade, P)


def test_cascade_errors_match_the_loop():
    cases = (
        [0.0, 1.0 - 1e-16, 1e-16],  # no mass left for output 2
        [0.25, 0.75, 0.0, 0.0, 1e-3, 1e-3],  # the first starved output is named
        [0.5, 0.5, 0.1],  # does not sum to one
        [0.5, -0.5, 1.0],  # negative
    )
    for P in cases:
        with pytest.raises(InfeasibleSplitError) as err:
            qc_cascade(P)
        assert f"InfeasibleSplitError: {err.value}" == _cascade_outcome(ref.qc_cascade, P)
    # the loop let NaN through (NaN < 0 is false); the array pass refuses it
    # by NetworkConfig's rule, P_j >= 0
    with pytest.raises(InfeasibleSplitError, match="must be >= 0"):
        qc_cascade([0.0, 1.0, math.nan])


# --- build_network -----------------------------------------------------------


def test_build_network_dark_port_vacuum():
    cfg = configure_optimal((1.0,), 100.0, 0.0)
    state = build_network(cfg)
    mean, cov = homodyne_moments(state, [0])
    assert abs(mean[0]) < 1e-12
    assert cov[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_build_network_split_noise_matches_analytic():
    cfg = configure_optimal(weight_pattern("ave", 2), 100.0, 0.75)
    gamma = noise_matrix(cfg)
    expected = np.eye(2) + 0.5 * (math.exp(-1.5) - 1) * np.ones((2, 2))
    assert np.max(np.abs(gamma - expected)) < 1e-10


def test_build_network_mean_response():
    for k in (1, 3):
        cfg = configure_optimal((1.0,), 9.0, 0.0, K=k, eta_dis=0.9,
                                thetas=(0.2,))
        state = build_network(cfg)
        mean, _ = homodyne_moments(state, [0])
        gain = cfg.signal_gain
        expected = 2 * 3 * math.sin(gain * 0.2 / 2) * math.sqrt(cfg.eta_total)
        assert mean[0] == pytest.approx(expected, rel=1e-12)


def _pure_build(config):
    """build_network written out one op at a time: the cascade loop and the
    pure ops of the test reference, each returning a fresh state, and the
    engine's loss, which scales the rows of the state it is handed."""
    d = config.d
    state = ref.vacuum_state(2 * d)
    state = ref.apply_squeezer(state, 0, float(config.r))
    for (i, j), t in ref.qc_cascade(config.P):
        state = ref.apply_beam_splitter(state, i, j, t)
    gain = config.signal_gain
    eta_out = config.eta_mzi * config.eta_m ** (2 * config.K - 1)
    for j in range(d):
        mag, phi = config.alphas[j]
        state = ref.apply_displacement(state, d + j, mag, phi)
        state = g.apply_loss(state, j, config.eta_dis)
        state = g.apply_loss(state, d + j, config.eta_dis)
        state = ref.apply_mzi(state, d + j, j, gain * config.thetas[j])
        state = g.apply_loss(state, j, eta_out)
    return state


def _assert_same_state(built, expected):
    # the factor too: a change to U and s that cancels in cov must not pass
    for name in ("mean", "U", "s", "cov"):
        assert getattr(built, name).tobytes() == getattr(expected, name).tobytes(), name


def test_build_network_equals_the_pure_op_sequence(rng):
    for _ in range(40):
        cfg = _random_config(rng, d_max=6, optimal_p=bool(rng.integers(0, 2)))
        if rng.integers(0, 2):
            cfg = cfg.with_updates(thetas=tuple(rng.uniform(-0.5, 0.5, cfg.d)))
        _assert_same_state(build_network(cfg), _pure_build(cfg))


@pytest.mark.parametrize("d", [64, 257])
def test_build_network_equals_the_pure_op_sequence_at_large_d(rng, d):
    # many nodes per strided view; g theta_j / 2 beyond +-pi/2, so cos and sin
    # take both signs; phi_j = pi and 0; a node without coherent light; and P
    # empty at node 0 and from d // 2 on, where the cascade's remaining mass
    # is below REMAINDER_FLOOR
    P = np.zeros(d)
    P[1: d // 2] = rng.uniform(0.5, 1.5, d // 2 - 1)
    P /= P.sum()
    mags = rng.uniform(0.5, 5.0, d)
    mags[d // 3] = 0.0
    phis = rng.uniform(-math.pi, math.pi, d)
    phis[::3] = math.pi
    phis[1::3] = 0.0
    cfg = NetworkConfig(d=d, r=0.8, K=3, alphas=tuple(zip(mags, phis)),
                        thetas=tuple(rng.uniform(-4.0, 4.0, d)),
                        weights=weight_pattern("ave", d), P=tuple(P),
                        eta_dis=0.9, eta_mzi=0.8, eta_m=0.99)
    _assert_same_state(build_network(cfg), _pure_build(cfg))


# --- response matrix ---------------------------------------------------------


def test_response_matrix_diagonal_values():
    cfg = NetworkConfig(d=2, r=0.0, alphas=((3, 0), (3, math.pi)),
                        weights=(0.5, -0.5), P=(0.5, 0.5))
    c = response(cfg)
    # one entry per channel: the diagonal of C, which has no other entry
    assert c.shape == (2,)
    assert c[0] == pytest.approx(3.0)
    assert c[1] == pytest.approx(-3.0)


def test_response_vanishes_at_quadrature_null():
    cfg = configure_optimal((1.0,), 9.0, 0.0)
    dark = cfg.with_updates(thetas=(math.pi / cfg.signal_gain,))
    c = response(dark)
    assert abs(c[0]) < 1e-12


def test_response_matches_finite_differences(rng):
    step = 1e-6
    for _ in range(8):
        cfg = _random_config(rng)
        cfg = cfg.with_updates(thetas=tuple(rng.uniform(-0.4, 0.4, cfg.d)))
        analytic = response(cfg)
        scale = np.max(np.abs(analytic))
        for j in range(cfg.d):
            up = list(cfg.thetas)
            up[j] += step
            dn = list(cfg.thetas)
            dn[j] -= step
            mu_up, _ = homodyne_moments(
                build_network(cfg.with_updates(thetas=tuple(up))),
                range(cfg.d))
            mu_dn, _ = homodyne_moments(
                build_network(cfg.with_updates(thetas=tuple(dn))),
                range(cfg.d))
            fd = (mu_up - mu_dn) / (2 * step)
            for i in range(cfg.d):
                c_ij = analytic[j] if i == j else 0.0
                assert abs(fd[i] - c_ij) / scale < 1e-6


# --- noise matrix ------------------------------------------------------------


def test_noise_matrix_coherent_is_identity():
    cfg = configure_optimal(weight_pattern("ave", 3), 30.0, 0.0)
    assert np.max(np.abs(noise_matrix(cfg) - np.eye(3))) < 1e-12


def test_noise_matrix_lossy_single_mode():
    cfg = NetworkConfig(d=1, r=0.75, alphas=((1, 0),), weights=(1,), P=(1,),
                        eta_dis=0.88)
    gamma = noise_matrix(cfg)
    assert gamma[0, 0] == pytest.approx(0.88 * math.exp(-1.5) + 0.12, abs=1e-12)


def test_noise_matrix_analytic_at_working_point(rng):
    for _ in range(10):
        cfg = _random_config(rng)
        gamma = noise_matrix(cfg)
        p = np.asarray(cfg.P)
        varq = math.exp(-2 * float(cfg.r))
        expected = cfg.eta_total * np.sqrt(np.outer(p, p)) * (varq - 1) + np.eye(cfg.d)
        assert np.max(np.abs(gamma - expected)) < 1e-10


def test_noise_matrix_positive_semidefinite(rng):
    for _ in range(5):
        cfg = _random_config(rng, optimal_p=False)
        eigs = np.linalg.eigvalsh(noise_matrix(cfg))
        assert eigs.min() > -1e-12


def test_noise_matrix_is_the_homodyne_covariance_of_the_built_state(rng):
    # noise_matrix reads Gamma from the measured q rows of the state it
    # builds, and verify's response check reads the q means as every other
    # row of the mean; the homodyne read of the same state must give the
    # same bytes
    configs = [_random_config(rng, d_max=8, optimal_p=bool(rng.integers(0, 2)))
               for _ in range(60)]
    configs = [c.with_updates(thetas=tuple(rng.uniform(-0.5, 0.5, c.d))) for c in configs]
    assert {c.d for c in configs} == set(range(1, 9))
    configs.append(configure_optimal(weight_pattern("asym", 257), 1e8, 0.8, eta_dis=0.9))
    for cfg in configs:
        state = build_network(cfg)
        mean, cov = homodyne_moments(state, range(cfg.d))
        assert noise_matrix(cfg).tobytes() == cov.tobytes(), cfg.d
        assert state.mean[:2 * cfg.d:2].tobytes() == mean.tobytes(), cfg.d


# --- sensitivities -----------------------------------------------------------


def test_sensitivity_shot_noise_limit():
    cfg = configure_optimal((1.0,), 100.0, 0.0)
    assert sensitivity_numeric(cfg) == pytest.approx(0.01, rel=1e-12)


def test_sensitivity_two_node_squeezed():
    cfg = configure_optimal(weight_pattern("ave", 2), 100.0, 0.75)
    assert sensitivity_numeric(cfg) == pytest.approx(math.exp(-1.5) / 100,
                                                     rel=1e-12)


def test_sensitivity_dark_response_error():
    cfg = configure_optimal((1.0,), 9.0, 0.0)
    dark = cfg.with_updates(thetas=(math.pi / cfg.signal_gain,))
    with pytest.raises(DarkResponseError) as err:
        sensitivity_numeric(dark)
    assert 0 in err.value.channels


def test_sensitivity_drops_zero_weight_channels():
    cfg = configure_optimal((1.0, 0.0), 100.0, 0.0)
    # node 1 has no light and no weight; estimation uses node 0 only
    assert sensitivity_numeric(cfg) == pytest.approx(0.01, rel=1e-12)


def _dim_channel_config(weights):
    # channel 1 answers with 1e-14 of full scale: g theta = pi - 2e-14, g = 1
    return NetworkConfig(d=2, r=0.3, alphas=((0.8, 0.0), (0.8, 0.0)),
                         thetas=(0.0, math.pi - 2e-14), weights=weights,
                         P=(0.5, 0.5), eta_dis=0.9)


DIM_TRACE = TraceParams(sample_rate=2e7, cycle=4e-3, gate=(1.2e-3, 2.0e-3),
                        n_cycles=4, drive_freq=4e6)


def test_one_dark_channel_rule_for_every_engine():
    cfg = _dim_channel_config((0.5, 0.5))
    assert 0 < abs(response(cfg)[1]) < 1e-13
    engines = (
        sensitivity_numeric,
        oracle_sensitivity,
        lambda c: simulate_joint_noise(c, 1.0, 0.0, DIM_TRACE, seed=1),
    )
    for engine in engines:
        with pytest.raises(DarkResponseError) as err:
            engine(cfg)
        assert err.value.channels == (1,)
    # separable sensors are read at their working point, where channel 1 answers
    assert sensitivity_separable(cfg, (0.3, 0.3)) == pytest.approx(
        0.25 * 2 * (math.exp(-0.6) + cfg.Lambda) / 0.64, rel=1e-12)


def test_unweighted_dark_channel_is_dropped_by_every_engine():
    cfg = _dim_channel_config((1.0, 0.0))
    assert oracle_sensitivity(cfg) == pytest.approx(sensitivity_numeric(cfg),
                                                    rel=1e-6)
    assert sensitivity_separable(cfg, (0.3, 0.3)) == pytest.approx(
        (math.exp(-0.6) + cfg.Lambda) / 0.64, rel=1e-12)
    result = simulate_joint_noise(cfg, sensitivity_numeric(cfg), 0.0, DIM_TRACE,
                                  seed=1)
    assert math.isfinite(result.db_below_sql)
    assert math.isfinite(result.snr_db)


def test_engine_matches_closed_form_on_random_configs(rng):
    # below b / (1 + b) relative to the larger side is below b relative to either
    assert scenarios._deviation(scenarios._closed_form_check, rng, 200) < 1e-9 / (1 + 1e-9)


def _large_network(d):
    # fixed coherent intensity per node, as on the scan's d axis
    return configure_optimal(weight_pattern("ave", d), 4.5e15 * d, 0.75,
                             eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)


def test_engine_matches_closed_form_and_one_over_d_law_at_d_512():
    large = _large_network(512)
    numeric = sensitivity_numeric(large)
    assert numeric == pytest.approx(closed_form_variance(large), rel=1e-9, abs=0)
    scaled = sensitivity_numeric(_large_network(128)) * 128
    assert numeric * 512 == pytest.approx(scaled, rel=1e-9, abs=0)


def test_engine_matches_closed_form_and_one_over_d_law_at_d_2048():
    large = _large_network(2048)
    numeric = sensitivity_numeric(large)
    assert numeric == pytest.approx(closed_form_variance(large), rel=1e-9, abs=0)
    scaled = sensitivity_numeric(_large_network(512)) * 512
    assert numeric * 2048 == pytest.approx(scaled, rel=1e-9, abs=0)


def _engine_outcome(engine, config):
    try:
        return repr(engine(config))
    except PrecisionLossError as exc:
        return f"PrecisionLossError: {exc}"


def test_sensitivity_equals_the_three_array_formula_bit_for_bit(rng):
    configs = [_random_config(rng, d_max=4, optimal_p=bool(rng.integers(0, 2)))
               for _ in range(100)]
    configs += [cfg.with_updates(thetas=tuple(rng.uniform(-0.5, 0.5, cfg.d)))
                for cfg in configs[:40]]
    # the large_network scan's grid, then beyond it
    base = configure_optimal(weight_pattern("ave", 6), 2.7e16, 0.75,
                             eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)
    grid = (32, 48, 64, 96, 128, 160, 192, 256)
    configs += [row.config for row in scan("d", grid, base, engines=("analytic",))]
    configs += [_large_network(512), _large_network(2048)]
    # an unweighted dark channel: the keep mask drops it
    configs.append(_dim_channel_config((1.0, 0.0)))
    # the variance cancels to rounding noise: PrecisionLossError
    configs.append(configure_optimal(weight_pattern("ave", 2), 100.0, 100))
    outcomes = [(_engine_outcome(sensitivity_numeric, cfg),
                 _engine_outcome(ref.sensitivity_three_arrays, cfg)) for cfg in configs]
    assert [new for new, old in outcomes if new != old] == []
    assert outcomes[-1][0].startswith("PrecisionLossError: variance")


def test_sensitivity_holds_one_d_by_d_array(peak_bytes):
    d = 2048
    cfg = _large_network(d)
    # Gamma alone is d * d * 8 = 33.6 MB here; the three-array form peaks at
    # twice that
    assert peak_bytes(lambda: sensitivity_numeric(cfg)) < d * d * 8 + 2e6


def test_build_network_memory_is_linear_in_d(peak_bytes):
    cfg = _large_network(1024)
    # a dense 4d x 4d covariance alone would take 134 MB here
    assert peak_bytes(lambda: build_network(cfg)) < 4e6


def test_variance_lost_to_rounding_is_an_error_row_not_ok():
    # at r = 100 the squeezed term e^{-2r} sits far below eps of the vacuum
    # term, so x^T Gamma x cancels to rounding noise
    base = configure_optimal(weight_pattern("ave", 2), 100.0, 100)
    with pytest.raises(PrecisionLossError):
        sensitivity_numeric(base)
    # the closed form cancels the same way in (varq - 1) cross^2 + direct
    with pytest.raises(PrecisionLossError):
        closed_form_variance(base)
    rows = scan("n_c", [1e2, 1e4], base)
    assert [row.status.split(":")[:2] for row in rows] == [
        ["error", "PrecisionLossError"]] * 2
    assert all(row.variance_numeric is None for row in rows)


def test_squeezing_beyond_float_range_raises_overflow_not_nan():
    # e^{2r} leaves the float range just above R_MAX = ln(DBL_MAX)/2, where
    # the config refuses r, naming it; at R_MAX the state is finite
    for r in (400.0, math.nextafter(R_MAX, math.inf), math.inf, math.nan):
        with pytest.raises(ConfigError) as info:
            configure_optimal(weight_pattern("ave", 2), 100.0, r)
        assert info.value.field == "r"
    cfg = configure_optimal(weight_pattern("ave", 2), 100.0, R_MAX)
    state = build_network(cfg)
    assert np.isfinite(state.s).all() and np.isfinite(state.rows).all()
    assert np.isfinite(noise_matrix(cfg)).all()


def test_overflowed_rounding_scale_is_a_float_range_error():
    # |x|^T |Gamma| |x| = 1 / n_c overflows while x^T Gamma x = e^{-2} / n_c
    # would not: the variance's rounding cannot be judged, and no
    # RuntimeWarning is emitted (Tier-1 turns one into a failure)
    cfg = configure_optimal(weight_pattern("ave", 2), 4e-309, 1.0)
    with pytest.raises(FloatRangeError, match="variance_numeric"):
        sensitivity_numeric(cfg)
    (row,) = scan("n_c", [4e-309], cfg)
    assert row.status.startswith("error:FloatRangeError: variance_numeric")


def test_multipass_enhancement_scaling():
    base = configure_optimal(weight_pattern("ave", 2), 100.0, 0.4)
    v1 = sensitivity_numeric(base)
    for k in (2, 5):
        vk = sensitivity_numeric(base.with_updates(K=k))
        assert vk == pytest.approx(v1 / k, rel=1e-12)
    # explicit multipass coefficient: enhancement mu*K^2
    v_mu = sensitivity_numeric(base.with_updates(K=5, mu=1.0))
    assert v_mu == pytest.approx(v1 / 25, rel=1e-12)


def test_separable_equals_entangled_at_fixed_r(rng):
    assert scenarios._deviation(scenarios._separable_check, rng, 10) < 1e-10 / (1 + 1e-10)


def test_separable_shot_noise_and_single_node():
    cfg = configure_optimal((0.5, 0.5), 100.0, 0.0)
    expected = sum(0.25 / 50 for _ in range(2))
    assert sensitivity_separable(cfg, (0.0, 0.0)) == pytest.approx(expected, rel=1e-12)

    single = configure_optimal((1.0,), 100.0, 0.3)
    assert sensitivity_separable(single, (0.3,)) == pytest.approx(
        sensitivity_numeric(single), rel=1e-12)


def test_separable_per_node_squeezing():
    # the config's shared r plays no part
    for r in (0.0, 0.9):
        cfg = configure_optimal((0.5, 0.5), 100.0, r)
        expected = 0.25 * (math.exp(-0.6) + math.exp(-1.2)) / 50
        assert sensitivity_separable(cfg, (0.3, 0.6)) == pytest.approx(
            expected, rel=1e-12)


def test_separable_dark_node_raises():
    cfg = NetworkConfig(d=2, alphas=((1, 0), (0, 0)),
                        weights=(0.5, 0.5), P=(1.0, 0.0))
    with pytest.raises(DarkResponseError):
        sensitivity_separable(cfg, (0.0, 0.0))


def test_sign_structure_invariance(rng):
    assert scenarios._deviation(scenarios._sign_check, rng, 10) < 1e-10 / (1 + 1e-10)


def test_variance_monotone_in_eta_and_k():
    nu = weight_pattern("ave", 3)
    etas = np.linspace(0.3, 1.0, 8)
    values = [
        sensitivity_numeric(configure_optimal(nu, 50.0, 0.6, eta_dis=e))
        for e in etas
    ]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    ks = [1, 2, 3, 4, 6]
    values = [
        sensitivity_numeric(configure_optimal(nu, 50.0, 0.6, K=k, eta_m=0.999))
        for k in ks
    ]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_lumped_loss_equivalence_at_measured_port(rng):
    assert scenarios._deviation(scenarios._lumped_loss_check, rng, 6) < 1e-12


def test_closed_form_requires_working_point():
    cfg = configure_optimal((1.0,), 10.0, 0.1, thetas=(0.3,))
    with pytest.raises(ConfigError):
        closed_form_variance(cfg)


def test_opposite_rotation_sign_flips_response_not_variance():
    # the opposite interferometer generator sign is the engine run at -theta:
    # measured means (hence C) negate, the noise matrix is even in theta,
    # so the assembled variance is convention-independent
    cfg = configure_optimal((0.6, 0.4), 50.0, 0.5, thetas=(0.15, -0.2),
                            eta_dis=0.95)
    mirrored = cfg.with_updates(thetas=tuple(-t for t in cfg.thetas))
    mean_fwd, _ = homodyne_moments(build_network(cfg), [0, 1])
    mean_rev, _ = homodyne_moments(build_network(mirrored), [0, 1])
    assert np.allclose(mean_rev, -mean_fwd, atol=1e-12)
    gamma = noise_matrix(cfg)
    assert np.allclose(gamma, noise_matrix(mirrored), atol=1e-12)
    c = response(cfg)
    nu = np.asarray(cfg.weights)
    forward = (nu / c) @ gamma @ (nu / c)
    reverse = (nu / -c) @ gamma @ (nu / -c)
    assert forward == pytest.approx(reverse, rel=1e-14)


def test_dim_amplitude_is_dark_for_numeric_and_closed_forms():
    # channel 1 has 1e-14 of channel 0's amplitude: dark by the one rule
    cfg = NetworkConfig(d=2, r=0.3, alphas=((1.0, 0.0), (1e-14, 0.0)),
                        weights=(0.5, 0.5), P=(0.5, 0.5), eta_dis=0.9)
    for engine in (sensitivity_numeric, closed_form_variance,
                   lambda config: sensitivity_separable(config, (0.3, 0.3))):
        with pytest.raises(DarkResponseError) as err:
            engine(cfg)
        assert err.value.channels == (1,)
