"""Loop and two-mode forms of the network's array code: the references it is
checked against bit for bit.

``network.build_network`` writes the squeezed, split carrier straight into
its row matrix and applies the displacements and the interferometers of all
d nodes as array operations; the ops here start from the vacuum and apply
one step to one mode or one pair of modes, and the tests check the build
against a sequence of them.  Each op is pure: it returns a new state (the
squeezer also updates a state in place on request), where
``gaussian.apply_loss`` always scales its argument's rows where they stand.
``homodyne_moments`` reads the q moments of selected modes, as
``noise_matrix`` reads them from the built state's measured rows.
``qc_cascade`` is the cascade as a loop over the outputs, and
``sensitivity_three_arrays`` the engine's variance read from a copied
kept-channel block and a separate |Gamma|.
"""

import math

import numpy as np

from mzinet.errors import InfeasibleSplitError
from mzinet.gaussian import GaussianState, _identity_plus
from mzinet.network import (
    PROB_TOL,
    REMAINDER_FLOOR,
    _kept_weights,
    _significant,
    noise_matrix,
)


def qc_cascade(P) -> list:
    """network.qc_cascade, one output at a time: peel R_j = P_j / (mass left)
    off the carrier, with the mass left below REMAINDER_FLOOR counted as
    empty."""
    P = [float(p) for p in P]
    if any(p < 0 for p in P):
        raise InfeasibleSplitError("probabilities must be >= 0")
    if abs(sum(P) - 1.0) > PROB_TOL:
        raise InfeasibleSplitError(f"probabilities sum to {sum(P)!r}, not 1")
    ops = []
    remaining = 1.0
    for j in range(1, len(P)):
        if remaining < REMAINDER_FLOOR:
            if P[j] > 0:
                raise InfeasibleSplitError(
                    f"no probability mass left for output {j} (P_j = {P[j]})"
                )
            reflectivity = 0.0
        else:
            reflectivity = min(max(P[j] / remaining, 0.0), 1.0)
        ops.append(((j, 0), 1.0 - reflectivity))
        remaining -= P[j]
    return ops


def sensitivity_three_arrays(config) -> float:
    """network.sensitivity_numeric with a copy of the kept block of Gamma and
    a separate |Gamma|: three d x d arrays where the engine holds one."""
    x, keep = _kept_weights(config)
    gamma = noise_matrix(config)[np.ix_(keep, keep)]
    variance = float(x @ gamma @ x)
    scale = float(np.abs(x) @ np.abs(gamma) @ np.abs(x))
    return _significant(variance, scale, x.size)


def copy_state(state: GaussianState) -> GaussianState:
    """A state with its own copies of the rows and weights of `state`."""
    return GaussianState(state.n_modes, state.rows.copy(), state.s.copy())


def _check_mode(state: GaussianState, mode: int):
    if not 0 <= mode < state.n_modes:
        raise IndexError(f"mode {mode} out of range for {state.n_modes}-mode state")


def homodyne_moments(state: GaussianState, modes):
    """First and second moments of the q quadratures of selected modes.

    Args:
        modes: mode indices, no duplicates, as a sequence or an integer array.

    Returns:
        (mean vector, covariance submatrix) restricted to the selection;
        only that block is materialized.  Read-only: the state is not
        modified.
    """
    modes = np.asarray(modes)
    if not modes.size:
        modes = modes.astype(np.intp)  # an empty list reads as floats
    if len(set(modes.tolist())) != modes.size:
        raise IndexError("duplicate mode index in homodyne selection")
    if modes.size and not 0 <= modes.min() <= modes.max() < state.n_modes:
        for mode in modes:  # raises at the first mode out of range
            _check_mode(state, mode)
    sel = 2 * modes  # the q rows
    return state.mean[sel], _identity_plus(state.U[sel], state.s)


def vacuum_state(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, identity covariance (an empty factor)."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return GaussianState(n_modes, np.zeros((2 * n_modes, 1)), np.zeros(0))


def apply_squeezer(state: GaussianState, mode: int, r: float, *,
                   inplace: bool = False) -> GaussianState:
    """Squeeze one mode: q -> e^{-r} q, p -> e^{+r} p.

    The squeezing phase is fixed to zero (q is the squeezed quadrature);
    r < 0 is rejected rather than interpreted as anti-squeezing.  With
    S = diag(e^{-r}, e^{r}) on the mode, S V S = S^2 + (S U) diag(s) (S U)^T
    and S^2 = I + expm1(-2r) e_q e_q^T + expm1(2r) e_p e_p^T, so U gains the
    columns e_q and e_p; expm1 raises OverflowError once e^{2r} leaves the
    float range.
    Pure unless a caller that owns the state passes inplace=True.
    """
    _check_mode(state, mode)
    if r < 0:
        raise ValueError("squeezing strength r must be >= 0")
    out = state if inplace else copy_state(state)
    iq, ip = 2 * mode, 2 * mode + 1
    weights = (math.expm1(-2.0 * r), math.expm1(2.0 * r))
    out.rows[iq] *= math.exp(-r)
    out.rows[ip] *= math.exp(r)
    columns = np.zeros((2 * out.n_modes, 2))
    columns[iq, 0] = columns[ip, 1] = 1.0
    out.rows = np.hstack((out.rows, columns))
    out.s = np.append(out.s, weights)
    return out



def apply_displacement(state: GaussianState, mode: int, amplitude: float,
                       phase: float = 0.0) -> GaussianState:
    """Displace one mode by alpha = amplitude * e^{i*phase}.

    With q = b + b† the means shift by (2|a|cos(phi), 2|a|sin(phi)); the
    covariance is untouched.
    """
    _check_mode(state, mode)
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0 (carry signs in the phase)")
    out = copy_state(state)
    out.mean[2 * mode] += 2.0 * amplitude * math.cos(phase)
    out.mean[2 * mode + 1] += 2.0 * amplitude * math.sin(phase)
    return out


def _apply_two_mode_orthogonal(
    state: GaussianState, mode_i: int, mode_j: int, o11, o12, o21, o22
) -> GaussianState:
    """Apply the same 2x2 orthogonal map to the q and p blocks of two modes."""
    out = copy_state(state)
    idx = [2 * mode_i, 2 * mode_i + 1, 2 * mode_j, 2 * mode_j + 1]
    s4 = np.array(
        [
            [o11, 0.0, o12, 0.0],
            [0.0, o11, 0.0, o12],
            [o21, 0.0, o22, 0.0],
            [0.0, o21, 0.0, o22],
        ]
    )
    out.mean[idx] = s4 @ out.mean[idx]
    out.U[idx] = s4 @ out.U[idx]
    return out


def apply_beam_splitter(state: GaussianState, mode_i: int, mode_j: int,
                        transmissivity: float) -> GaussianState:
    """Mix two modes: b_i -> sqrt(T) b_i + sqrt(1-T) b_j.

    Sign convention: the reflected path picks up the minus sign on mode_j,
    i.e. b_j -> -sqrt(1-T) b_i + sqrt(T) b_j.
    """
    _check_mode(state, mode_i)
    _check_mode(state, mode_j)
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    t = math.sqrt(transmissivity)
    rfl = math.sqrt(1.0 - transmissivity)
    return _apply_two_mode_orthogonal(state, mode_i, mode_j, t, rfl, -rfl, t)


def apply_mzi(state: GaussianState, mode_a: int, mode_b: int,
              theta: float) -> GaussianState:
    """Mach-Zehnder transfer on two modes: rotation by theta/2.

    Output mode operators in terms of inputs:
        b~ = b cos(theta/2) + a sin(theta/2)
        a~ = a cos(theta/2) - b sin(theta/2)
    so the measured quadrature obeys q~_b = q_b cos(theta/2) + q_a sin(theta/2).
    """
    _check_mode(state, mode_a)
    _check_mode(state, mode_b)
    if mode_a == mode_b:
        raise ValueError("interferometer needs two distinct modes")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    # ordering (a, b): a' = c*a - s*b ; b' = s*a + c*b
    return _apply_two_mode_orthogonal(state, mode_a, mode_b, c, -s, s, c)
