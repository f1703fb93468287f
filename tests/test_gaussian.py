import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzinet.gaussian import apply_loss
from mzinet.network import noise_matrix, qc_cascade
from mzinet.scenarios import _random_config

from reference_ops import (
    apply_beam_splitter,
    apply_displacement,
    apply_mzi,
    apply_squeezer,
    copy_state,
    homodyne_moments,
    vacuum_state,
)


def mode_photon_number(state, mode):
    """Mean photon number of one mode, n = (<q>^2+<p>^2+Var q+Var p-2)/4."""
    iq, ip = 2 * mode, 2 * mode + 1
    return (state.mean[iq] ** 2 + state.mean[ip] ** 2
            + state.cov[iq, iq] + state.cov[ip, ip] - 2.0) / 4.0


def test_vacuum_single_mode():
    state = vacuum_state(1)
    assert np.array_equal(state.mean, np.zeros(2))
    assert np.array_equal(state.cov, np.eye(2))


def test_vacuum_three_modes_identity_cov():
    state = vacuum_state(3)
    assert np.array_equal(state.cov, np.eye(6))


def test_vacuum_homodyne_unit_variance():
    mean, cov = homodyne_moments(vacuum_state(2), [1])
    assert mean[0] == 0.0
    assert cov[0, 0] == 1.0


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum_state(0)


def test_squeezer_variances():
    state = apply_squeezer(vacuum_state(1), 0, 0.75)
    assert state.cov[0, 0] == pytest.approx(math.exp(-1.5), rel=1e-12)
    assert state.cov[1, 1] == pytest.approx(math.exp(1.5), rel=1e-12)


def test_squeezer_r_zero_is_identity():
    before = vacuum_state(2)
    after = apply_squeezer(before, 1, 0.0)
    assert np.array_equal(after.cov, before.cov)
    assert np.array_equal(after.mean, before.mean)


def test_squeezer_photon_number_matches_sinh():
    state = apply_squeezer(vacuum_state(1), 0, 0.75)
    n = mode_photon_number(state, 0)
    assert n == pytest.approx(math.sinh(0.75) ** 2, rel=1e-12)
    # matches the reported resource intensity 0.68 +/- 0.01
    assert abs(n - 0.68) <= 0.01


def test_squeezer_rejects_negative_r():
    with pytest.raises(ValueError):
        apply_squeezer(vacuum_state(1), 0, -0.1)


def test_squeezer_mode_out_of_range():
    with pytest.raises(IndexError):
        apply_squeezer(vacuum_state(1), 1, 0.2)


def test_displacement_real_amplitude():
    state = apply_displacement(vacuum_state(1), 0, 3.0, 0.0)
    assert state.mean[0] == pytest.approx(6.0)
    assert state.mean[1] == pytest.approx(0.0)
    assert np.array_equal(state.cov, np.eye(2))


def test_displacement_pi_phase_flips_sign():
    state = apply_displacement(vacuum_state(1), 0, 1.0, math.pi)
    assert state.mean[0] == pytest.approx(-2.0)


def test_displacement_photon_number():
    state = apply_displacement(vacuum_state(1), 0, 3.0, 0.3)
    assert mode_photon_number(state, 0) == pytest.approx(9.0, rel=1e-12)


def test_beam_splitter_identity_at_full_transmission():
    state = apply_squeezer(vacuum_state(2), 0, 0.4)
    out = apply_beam_splitter(state, 0, 1, 1.0)
    assert np.allclose(out.cov, state.cov, atol=1e-15)


def test_beam_splitter_half_on_squeezed_vacuum():
    # squeezed mode enters the reflected argument so both outputs carry
    # positive amplitude of the resource
    state = apply_squeezer(vacuum_state(2), 1, 0.75)
    out = apply_beam_splitter(state, 0, 1, 0.5)
    vq = math.exp(-1.5)
    assert out.cov[0, 0] == pytest.approx((vq + 1) / 2, rel=1e-12)
    assert out.cov[2, 2] == pytest.approx((vq + 1) / 2, rel=1e-12)
    assert out.cov[0, 2] == pytest.approx((vq - 1) / 2, rel=1e-12)


def test_beam_splitter_swap_at_zero_transmission():
    state = apply_displacement(vacuum_state(2), 0, 1.5, 0.0)
    out = apply_beam_splitter(state, 0, 1, 0.0)
    assert abs(out.mean[0]) < 1e-15
    assert abs(abs(out.mean[2]) - 3.0) < 1e-12


def test_beam_splitter_validates_arguments():
    state = vacuum_state(2)
    with pytest.raises(ValueError):
        apply_beam_splitter(state, 0, 0, 0.5)
    with pytest.raises(ValueError):
        apply_beam_splitter(state, 0, 1, 1.5)


def test_mzi_zero_angle_is_identity():
    state = apply_displacement(vacuum_state(2), 0, 2.0, 0.1)
    out = apply_mzi(state, 0, 1, 0.0)
    assert np.allclose(out.mean, state.mean, atol=1e-15)
    assert np.allclose(out.cov, state.cov, atol=1e-15)


def test_mzi_pi_swaps_modes_up_to_sign():
    state = apply_displacement(vacuum_state(2), 0, 1.0, 0.0)
    out = apply_mzi(state, 0, 1, math.pi)
    assert abs(out.mean[0]) < 1e-12
    assert abs(abs(out.mean[2]) - 2.0) < 1e-12


def test_mzi_output_mean_small_angle():
    # coherent |a|=3 into the a mode, vacuum into b, theta = 0.2:
    # <q~_b> = 6 sin(0.1)
    state = apply_displacement(vacuum_state(2), 0, 3.0, 0.0)
    out = apply_mzi(state, mode_a=0, mode_b=1, theta=0.2)
    assert out.mean[2] == pytest.approx(6.0 * math.sin(0.1), rel=1e-12)


def test_mzi_rejects_same_mode():
    with pytest.raises(ValueError):
        apply_mzi(vacuum_state(2), 1, 1, 0.1)


def test_mzi_equals_beam_splitter_decomposition():
    # rotation by theta/2: apply_mzi(a, b, theta) == apply_beam_splitter(b, a, cos^2)
    rng = np.random.default_rng(7)
    for theta in rng.uniform(0.0, math.pi, 6):
        state = apply_squeezer(vacuum_state(2), 0, 0.3)
        state = apply_displacement(state, 1, 1.2, 0.4)
        via_mzi = apply_mzi(state, 0, 1, theta)
        via_bs = apply_beam_splitter(state, 1, 0, math.cos(theta / 2) ** 2)
        assert np.allclose(via_mzi.mean, via_bs.mean, atol=1e-12)
        assert np.allclose(via_mzi.cov, via_bs.cov, atol=1e-12)


def test_loss_identity_at_unit_transmission():
    state = apply_squeezer(vacuum_state(1), 0, 0.5)
    cov = state.cov
    out = apply_loss(state, 0, 1.0)
    assert np.array_equal(out.cov, cov)


def test_loss_on_squeezed_variance():
    state = apply_squeezer(vacuum_state(1), 0, 0.75)
    out = apply_loss(state, 0, 0.88)
    assert out.cov[0, 0] == pytest.approx(0.88 * math.exp(-1.5) + 0.12, rel=1e-12)


def test_loss_total_restores_vacuum():
    state = apply_displacement(apply_squeezer(vacuum_state(1), 0, 0.9), 0, 2.0, 0.3)
    out = apply_loss(state, 0, 0.0)
    assert np.allclose(out.mean, 0.0, atol=1e-15)
    assert np.allclose(out.cov, np.eye(2), atol=1e-15)


@given(eta=st.floats(0.0, 1.0), r=st.floats(0.0, 2.0))
@settings(deadline=None, max_examples=60)
def test_loss_is_exact_affine_map(eta, r):
    state = apply_squeezer(vacuum_state(2), 0, r)
    state = apply_beam_splitter(state, 1, 0, 0.7)
    expected = state.cov
    out = apply_loss(state, 0, eta)
    idx = [0, 1]
    expected[idx, :] *= math.sqrt(eta)
    expected[:, idx] *= math.sqrt(eta)
    expected[0, 0] += 1 - eta
    expected[1, 1] += 1 - eta
    assert np.max(np.abs(out.cov - expected)) <= 1e-12


def test_loss_never_pushes_eigenvalues_below_vacuum_floor():
    state = apply_squeezer(vacuum_state(2), 0, 1.0)
    state = apply_beam_splitter(state, 1, 0, 0.5)
    before = np.linalg.eigvalsh(state.cov).min()
    for eta in (0.9, 0.5, 0.1):
        after = np.linalg.eigvalsh(apply_loss(copy_state(state), 0, eta).cov).min()
        assert after >= min(before, 1.0) - 1e-12


def test_homodyne_moments_read_only_and_selective():
    state = apply_squeezer(vacuum_state(3), 1, 0.75)
    cov_before = state.cov.copy()
    mean, cov = homodyne_moments(state, [1, 2])
    assert cov.shape == (2, 2)
    assert cov[0, 0] == pytest.approx(math.exp(-1.5), rel=1e-12)
    assert cov[1, 1] == pytest.approx(1.0)
    assert np.array_equal(state.cov, cov_before)


def test_homodyne_moments_two_mode_split():
    state = apply_squeezer(vacuum_state(2), 1, 0.75)
    state = apply_beam_splitter(state, 0, 1, 0.5)
    _, cov = homodyne_moments(state, [0, 1])
    assert cov[0, 1] == pytest.approx((math.exp(-1.5) - 1) / 2, rel=1e-12)


def test_homodyne_rejects_duplicates():
    with pytest.raises(IndexError):
        homodyne_moments(vacuum_state(2), [0, 0])


def test_homodyne_names_the_first_mode_out_of_range():
    state = vacuum_state(2)
    with pytest.raises(IndexError, match="duplicate"):
        homodyne_moments(state, np.array([5, 1, 5]))  # duplicates are checked first
    # the first mode out of range, in selection order, is named
    for modes, bad in (([1, 5, -1], 5), ([-1, 5], -1), (range(3), 2)):
        with pytest.raises(IndexError, match=f"^mode {bad} out of range for 2-mode state$"):
            homodyne_moments(state, modes)
    with pytest.raises(IndexError):
        homodyne_moments(state, [1.0])  # not an integer index
    mean, cov = homodyne_moments(state, [])
    assert mean.shape == (0,) and cov.shape == (0, 0)


def _random_passive_circuit(rng, state):
    for _ in range(6):
        i, j = rng.choice(state.n_modes, size=2, replace=False)
        if rng.integers(2):
            state = apply_beam_splitter(state, int(i), int(j), float(rng.uniform()))
        else:
            state = apply_mzi(state, int(i), int(j), float(rng.uniform(0, math.pi)))
    return state


def test_purity_preserved_without_loss(rng):
    state = vacuum_state(4)
    for m in range(4):
        state = apply_squeezer(state, m, float(rng.uniform(0, 1.2)))
        state = apply_displacement(state, m, float(rng.uniform(0, 2)), float(rng.uniform(0, 7)))
    state = _random_passive_circuit(rng, state)
    assert np.linalg.det(state.cov) == pytest.approx(1.0, rel=1e-9)


def test_passive_ops_preserve_photon_number(rng):
    state = vacuum_state(3)
    state = apply_squeezer(state, 0, 0.8)
    state = apply_displacement(state, 1, 1.7, 0.5)
    before = sum(mode_photon_number(state, m) for m in range(3))
    state = _random_passive_circuit(rng, state)
    after = sum(mode_photon_number(state, m) for m in range(3))
    assert after == pytest.approx(before, rel=1e-9)


def test_physicality_cov_plus_i_omega(rng):
    state = vacuum_state(3)
    state = apply_squeezer(state, 0, 1.0)
    state = _random_passive_circuit(rng, state)
    state = apply_loss(state, 1, 0.6)
    # symplectic form of the (q1, p1, ..., q3, p3) ordering
    omega = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    eigs = np.linalg.eigvalsh(state.cov + 1j * omega)
    assert eigs.min() >= -1e-9


def test_no_loss_eigenvalues_respect_squeezing_bound(rng):
    r = 0.9
    state = apply_squeezer(vacuum_state(3), 0, r)
    state = _random_passive_circuit(rng, state)
    assert np.linalg.eigvalsh(state.cov).min() >= math.exp(-2 * r) - 1e-9


def test_operations_are_pure():
    state = vacuum_state(2)
    snapshot = state.cov.copy()
    apply_squeezer(state, 0, 0.3)
    apply_displacement(state, 0, 1.0, 0.0)
    apply_beam_splitter(state, 0, 1, 0.5)
    apply_mzi(state, 0, 1, 0.7)
    assert np.array_equal(state.cov, snapshot)
    assert np.array_equal(state.mean, np.zeros(4))


# the reference squeezer's knob; the engine's loss is always in place
INPLACE_OPS = [
    pytest.param(apply_squeezer, (1, 0.4), id="squeezer"),
]


def _correlated_state():
    state = vacuum_state(3)
    state = apply_squeezer(state, 0, 0.8)
    state = apply_displacement(state, 1, 0.5, 1.1)
    state = apply_beam_splitter(state, 0, 1, 0.4)
    return apply_mzi(state, 1, 2, 0.3)


@pytest.mark.parametrize("op, args", INPLACE_OPS)
def test_inplace_op_updates_its_argument_to_the_pure_result(op, args):
    given_state = _correlated_state()
    mean, cov = given_state.mean.copy(), given_state.cov.copy()
    pure = op(given_state, *args)
    assert pure is not given_state
    assert given_state.mean.tobytes() == mean.tobytes()
    assert given_state.cov.tobytes() == cov.tobytes()
    same = op(given_state, *args, inplace=True)
    assert same is given_state
    assert same.mean.tobytes() == pure.mean.tobytes()
    assert same.cov.tobytes() == pure.cov.tobytes()


@pytest.mark.parametrize("op, args", INPLACE_OPS)
def test_pure_op_leaves_the_callers_views_unchanged(op, args):
    # mean and U are views into the state's one row matrix: a pure op must
    # write to its copy, never through a view its caller holds
    given_state = _correlated_state()
    mean, U = given_state.mean, given_state.U
    mean_bytes, U_bytes = mean.tobytes(), U.tobytes()
    pure = op(given_state, *args)
    assert mean.tobytes() == mean_bytes and U.tobytes() == U_bytes
    assert not np.shares_memory(pure.rows, given_state.rows)
    assert pure.mean.tobytes() != mean_bytes or pure.U.tobytes() != U_bytes


def test_loss_scales_the_mode_rows_of_its_argument():
    state = _correlated_state()
    rows, s = state.rows, state.s.copy()
    expected = rows.copy()
    expected[2:4] *= math.sqrt(0.7)
    assert apply_loss(state, 1, 0.7) is state
    assert state.rows is rows and state.rows.tobytes() == expected.tobytes()
    assert state.s.tobytes() == s.tobytes()


def test_loss_refuses_a_bad_mode_or_eta_and_leaves_the_state():
    state = _correlated_state()
    rows = state.rows.copy()
    for mode in (3, -1):
        with pytest.raises(IndexError, match=f"^mode {mode} out of range for 3-mode state$"):
            apply_loss(state, mode, 0.5)
    for eta in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"^eta must lie in \[0, 1\]$"):
            apply_loss(state, 0, eta)
    assert state.rows.tobytes() == rows.tobytes()


# --- the dense covariance formulas, as a reference for the factored engine ---


def _dense_squeezer(mean, cov, mode, r):
    iq, ip = 2 * mode, 2 * mode + 1
    sq, sp = math.exp(-r), math.exp(r)
    mean[iq] *= sq
    mean[ip] *= sp
    cov[iq, :] *= sq
    cov[:, iq] *= sq
    cov[ip, :] *= sp
    cov[:, ip] *= sp


def _dense_displacement(mean, cov, mode, amplitude, phase):
    mean[2 * mode] += 2.0 * amplitude * math.cos(phase)
    mean[2 * mode + 1] += 2.0 * amplitude * math.sin(phase)


def _dense_orthogonal(mean, cov, mode_i, mode_j, o11, o12, o21, o22):
    idx = [2 * mode_i, 2 * mode_i + 1, 2 * mode_j, 2 * mode_j + 1]
    s4 = np.array([[o11, 0.0, o12, 0.0], [0.0, o11, 0.0, o12],
                   [o21, 0.0, o22, 0.0], [0.0, o21, 0.0, o22]])
    mean[idx] = s4 @ mean[idx]
    cov[idx, :] = s4 @ cov[idx, :]
    cov[:, idx] = cov[:, idx] @ s4.T


def _dense_beam_splitter(mean, cov, mode_i, mode_j, transmissivity):
    t, rfl = math.sqrt(transmissivity), math.sqrt(1.0 - transmissivity)
    _dense_orthogonal(mean, cov, mode_i, mode_j, t, rfl, -rfl, t)


def _dense_mzi(mean, cov, mode_a, mode_b, theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    _dense_orthogonal(mean, cov, mode_a, mode_b, c, -s, s, c)


def _dense_loss(mean, cov, mode, eta):
    block = slice(2 * mode, 2 * mode + 2)
    mean[block] *= math.sqrt(eta)
    cov[block, :] *= math.sqrt(eta)
    cov[:, block] *= math.sqrt(eta)
    cov[2 * mode, 2 * mode] += 1.0 - eta
    cov[2 * mode + 1, 2 * mode + 1] += 1.0 - eta


DENSE = {
    apply_squeezer: _dense_squeezer,
    apply_displacement: _dense_displacement,
    apply_beam_splitter: _dense_beam_splitter,
    apply_mzi: _dense_mzi,
    apply_loss: _dense_loss,
}


def _random_op(rng, n_modes):
    """One op with its arguments; r = 0 and eta in {0, 1} come up often."""
    kind = int(rng.integers(5))
    mode = int(rng.integers(n_modes))
    other = int((mode + rng.integers(1, n_modes)) % n_modes)
    if kind == 0:
        return apply_squeezer, (mode, float(rng.choice([0.0, rng.uniform(0, 0.6)])))
    if kind == 1:
        return apply_displacement, (mode, float(rng.uniform(0, 2)),
                                    float(rng.uniform(0, 2 * math.pi)))
    if kind == 2:
        return apply_beam_splitter, (mode, other, float(rng.uniform()))
    if kind == 3:
        return apply_mzi, (mode, other, float(rng.uniform(-math.pi, math.pi)))
    return apply_loss, (mode, float(rng.choice([0.0, 1.0, rng.uniform()])))


def _assert_physical(cov):
    n = cov.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.linalg.eigvalsh(cov + 1j * omega).min() >= -1e-9


def test_factored_ops_match_the_dense_formulas_on_random_sequences(rng):
    for _ in range(60):
        n_modes = int(rng.integers(2, 5))
        state = apply_squeezer(vacuum_state(n_modes), 0, float(rng.uniform(0, 0.6)))
        mean, cov = state.mean.copy(), state.cov
        for _ in range(int(rng.integers(4, 16))):
            # squeezers land on mixed and lossy states as the sequence goes on
            op, args = _random_op(rng, n_modes)
            inplace = bool(rng.integers(2))  # drawn for every op: same stream
            if op is apply_squeezer:
                state = op(state, *args, inplace=inplace)
            else:
                state = op(state, *args)
            DENSE[op](mean, cov, *args)
            assert np.array_equal(state.mean, mean)
            assert np.max(np.abs(state.cov - cov)) <= 1e-12
        _assert_physical(state.cov)
        modes = [int(m) for m in rng.permutation(n_modes)[:int(rng.integers(1, n_modes + 1))]]
        sel = [2 * m for m in modes]  # the q rows
        got_mean, got_cov = homodyne_moments(state, modes)
        assert np.array_equal(got_mean, mean[sel])
        assert np.max(np.abs(got_cov - cov[np.ix_(sel, sel)])) <= 1e-12


def test_cov_is_materialized_from_the_factor_and_read_only():
    state = apply_beam_splitter(apply_squeezer(vacuum_state(2), 0, 0.5), 0, 1, 0.3)
    assert state.U.shape == (4, 2)
    assert np.array_equal(state.cov, np.eye(4) + (state.U * state.s) @ state.U.T)
    with pytest.raises(AttributeError):
        state.cov = np.eye(4)


def test_noise_matrix_matches_the_dense_build():
    rng = np.random.default_rng(20260417)
    worst = 0.0
    for _ in range(200):
        cfg = _random_config(rng, d_max=6, optimal_p=bool(rng.integers(2)))
        if rng.integers(2):
            cfg = cfg.with_updates(thetas=tuple(rng.uniform(-0.5, 0.5, cfg.d)))
        d = cfg.d
        mean, cov = np.zeros(4 * d), np.eye(4 * d)
        _dense_squeezer(mean, cov, 0, float(cfg.r))
        for (i, j), t in qc_cascade(cfg.P):
            _dense_beam_splitter(mean, cov, i, j, t)
        eta_out = cfg.eta_mzi * cfg.eta_m ** (2 * cfg.K - 1)
        for j in range(d):
            _dense_displacement(mean, cov, d + j, *cfg.alphas[j])
            _dense_loss(mean, cov, j, cfg.eta_dis)
            _dense_loss(mean, cov, d + j, cfg.eta_dis)
            _dense_mzi(mean, cov, d + j, j, cfg.signal_gain * cfg.thetas[j])
            _dense_loss(mean, cov, j, eta_out)
        dense = cov[0:2 * d:2, 0:2 * d:2]
        worst = max(worst, float(np.max(np.abs(noise_matrix(cfg) - dense))))
    assert worst <= 1e-12
