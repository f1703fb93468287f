"""Phase-space engine for multimode Gaussian states.

Quadrature convention: q = b + b†, p = (b − b†)/i, stored interleaved as
(q1, p1, ..., qn, pn).  With this normalization the vacuum has unit variance
in every quadrature, so the vacuum covariance matrix is the identity and a
squeezed vacuum has Var(q) = e^{−2r}, Var(p) = e^{+2r}.

Every operation is pure by default: it returns a new state and never mutates
its input.  A caller that owns a state (``build_network`` on the vacuum it
creates) passes ``inplace=True`` to update it where it stands instead; the
arithmetic is the same, only the copy of the whole state is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianState",
    "vacuum_state",
    "apply_squeezer",
    "apply_displacement",
    "apply_beam_splitter",
    "apply_mzi",
    "apply_loss",
    "homodyne_moments",
]


@dataclass
class GaussianState:
    """Mean quadrature vector and covariance matrix of an n-mode state.

    Attributes:
        n_modes: number of optical modes.
        mean: length 2n vector (q1, p1, ..., qn, pn).
        cov: real symmetric 2n x 2n covariance matrix, same ordering.
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def copy(self) -> "GaussianState":
        return GaussianState(self.n_modes, self.mean.copy(), self.cov.copy())

    def q_index(self, mode: int) -> int:
        return 2 * mode

    def p_index(self, mode: int) -> int:
        return 2 * mode + 1


def _check_mode(state: GaussianState, mode: int):
    if not 0 <= mode < state.n_modes:
        raise IndexError(f"mode {mode} out of range for {state.n_modes}-mode state")


def vacuum_state(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, identity covariance."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return GaussianState(
        n_modes=n_modes,
        mean=np.zeros(2 * n_modes),
        cov=np.eye(2 * n_modes),
    )


def apply_squeezer(state: GaussianState, mode: int, r: float, *,
                   inplace: bool = False) -> GaussianState:
    """Squeeze one mode: q -> e^{-r} q, p -> e^{+r} p.

    The squeezing phase is fixed to zero (q is the squeezed quadrature);
    r < 0 is rejected rather than interpreted as anti-squeezing.
    Pure unless a caller that owns the state passes inplace=True.
    """
    _check_mode(state, mode)
    if r < 0:
        raise ValueError("squeezing strength r must be >= 0")
    out = state if inplace else state.copy()
    iq, ip = out.q_index(mode), out.p_index(mode)
    sq, sp = math.exp(-r), math.exp(r)
    out.mean[iq] *= sq
    out.mean[ip] *= sp
    out.cov[iq, :] *= sq
    out.cov[:, iq] *= sq
    out.cov[ip, :] *= sp
    out.cov[:, ip] *= sp
    return out


def apply_displacement(state: GaussianState, mode: int, amplitude: float,
                       phase: float = 0.0, *, inplace=False) -> GaussianState:
    """Displace one mode by alpha = amplitude * e^{i*phase}.

    With q = b + b† the means shift by (2|a|cos(phi), 2|a|sin(phi)); the
    covariance is untouched.
    Pure unless a caller that owns the state passes inplace=True.
    """
    _check_mode(state, mode)
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0 (carry signs in the phase)")
    out = state if inplace else state.copy()
    out.mean[out.q_index(mode)] += 2.0 * amplitude * math.cos(phase)
    out.mean[out.p_index(mode)] += 2.0 * amplitude * math.sin(phase)
    return out


def _apply_two_mode_orthogonal(
    state: GaussianState, mode_i: int, mode_j: int, o11, o12, o21, o22, inplace
) -> GaussianState:
    """Apply the same 2x2 orthogonal map to the q and p blocks of two modes."""
    out = state if inplace else state.copy()
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
    out.cov[idx, :] = s4 @ out.cov[idx, :]
    out.cov[:, idx] = out.cov[:, idx] @ s4.T
    return out


def apply_beam_splitter(state: GaussianState, mode_i: int, mode_j: int,
                        transmissivity: float, *, inplace=False) -> GaussianState:
    """Mix two modes: b_i -> sqrt(T) b_i + sqrt(1-T) b_j.

    Sign convention: the reflected path picks up the minus sign on mode_j,
    i.e. b_j -> -sqrt(1-T) b_i + sqrt(T) b_j.
    Pure unless a caller that owns the state passes inplace=True.
    """
    _check_mode(state, mode_i)
    _check_mode(state, mode_j)
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    t = math.sqrt(transmissivity)
    rfl = math.sqrt(1.0 - transmissivity)
    return _apply_two_mode_orthogonal(state, mode_i, mode_j, t, rfl, -rfl, t, inplace)


def apply_mzi(state: GaussianState, mode_a: int, mode_b: int, theta: float, *,
              inplace: bool = False) -> GaussianState:
    """Mach-Zehnder transfer on two modes: rotation by theta/2.

    Output mode operators in terms of inputs:
        b~ = b cos(theta/2) + a sin(theta/2)
        a~ = a cos(theta/2) - b sin(theta/2)
    so the measured quadrature obeys q~_b = q_b cos(theta/2) + q_a sin(theta/2).
    Pure unless a caller that owns the state passes inplace=True.
    """
    _check_mode(state, mode_a)
    _check_mode(state, mode_b)
    if mode_a == mode_b:
        raise ValueError("interferometer needs two distinct modes")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    # ordering (a, b): a' = c*a - s*b ; b' = s*a + c*b
    return _apply_two_mode_orthogonal(state, mode_a, mode_b, c, -s, s, c, inplace)


def apply_loss(state: GaussianState, mode: int, eta: float, *,
               inplace: bool = False) -> GaussianState:
    """Pure-loss channel of transmission eta on one mode.

    Mean scales by sqrt(eta); the mode's covariance block maps to
    eta*V + (1-eta)*I and cross covariances scale by sqrt(eta).
    Pure unless a caller that owns the state passes inplace=True.
    """
    _check_mode(state, mode)
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    out = state if inplace else state.copy()
    iq, ip = out.q_index(mode), out.p_index(mode)
    # q and p of a mode are adjacent, so its rows and columns are one slice
    block = slice(iq, ip + 1)
    root = math.sqrt(eta)
    out.mean[block] *= root
    out.cov[block, :] *= root
    out.cov[:, block] *= root
    out.cov[iq, iq] += 1.0 - eta
    out.cov[ip, ip] += 1.0 - eta
    return out


def homodyne_moments(state: GaussianState, modes, quadratures="q"):
    """First and second moments of selected quadratures, one per mode.

    Args:
        modes: mode indices, no duplicates.
        quadratures: "q" or "p", either one label for all modes or a
            sequence with one label per mode.

    Returns:
        (mean vector, covariance submatrix) restricted to the selection.
        Read-only: the state is not modified.
    """
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise IndexError("duplicate mode index in homodyne selection")
    if isinstance(quadratures, str):
        quadratures = [quadratures] * len(modes)
    if len(quadratures) != len(modes):
        raise IndexError("need one quadrature label per mode")
    sel = []
    for mode, quad in zip(modes, quadratures):
        _check_mode(state, mode)
        if quad == "q":
            sel.append(state.q_index(mode))
        elif quad == "p":
            sel.append(state.p_index(mode))
        else:
            raise ValueError(f"unknown quadrature label {quad!r}")
    sel = np.array(sel, dtype=int)
    return state.mean[sel].copy(), state.cov[np.ix_(sel, sel)].copy()

