"""Phase-space engine for multimode Gaussian states.

Quadrature convention: q = b + b†, p = (b − b†)/i, stored interleaved as
(q1, p1, ..., qn, pn).  With this normalization the vacuum has unit variance
in every quadrature, so the vacuum covariance matrix is the identity and a
squeezed vacuum has Var(q) = e^{−2r}, Var(p) = e^{+2r}.

A state holds its covariance in factored form, V = I + U diag(s) U^T, with
one column of U per squeezed quadrature.  Every op keeps that form exactly:
a beam splitter or interferometer is orthogonal, so U -> O U; pure loss maps
V -> L V L + (1 − eta) I_m = I + (L U) diag(s) (L U)^T, a row scale of U; a
displacement moves only the mean; and a squeezer scales two rows of U and
appends the columns e_q, e_p with s += (expm1(−2r), expm1(2r)).  So a network
with one squeezer costs O(1) per op on a 2n x 2 factor, and no 2n x 2n matrix
is ever stored; ``cov`` materializes it on read.

Every operation is pure by default: it returns a new state and never mutates
its input.  The squeezer and the loss also take ``inplace=True``, which
updates a state its caller owns where it stands, with the same arithmetic.
``build_network`` calls those two that way and applies the split, the
displacements and the interferometers as array operations over all nodes; the
ops here stay the tested reference for those.
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
    """Mean quadrature vector and factored covariance of an n-mode state.

    The covariance is V = I + U diag(s) U^T.

    Attributes:
        n_modes: number of optical modes.
        mean: length 2n vector (q1, p1, ..., qn, pn).
        U: 2n x k factor, rows in the same ordering.
        s: length k weights of the columns of U.
    """

    n_modes: int
    mean: np.ndarray
    U: np.ndarray
    s: np.ndarray

    @property
    def cov(self) -> np.ndarray:
        """The 2n x 2n covariance matrix, materialized on every read."""
        return _identity_plus(self.U, self.s)

    def copy(self) -> "GaussianState":
        return GaussianState(self.n_modes, self.mean.copy(), self.U.copy(),
                             self.s.copy())

    def q_index(self, mode: int) -> int:
        return 2 * mode

    def p_index(self, mode: int) -> int:
        return 2 * mode + 1


def _identity_plus(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """I + rows diag(s) rows^T, built in the one array it returns."""
    out = (rows * s) @ rows.T
    out.flat[:: len(rows) + 1] += 1.0
    return out


def _check_mode(state: GaussianState, mode: int):
    if not 0 <= mode < state.n_modes:
        raise IndexError(f"mode {mode} out of range for {state.n_modes}-mode state")


def vacuum_state(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, identity covariance (an empty factor)."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return GaussianState(
        n_modes=n_modes,
        mean=np.zeros(2 * n_modes),
        U=np.zeros((2 * n_modes, 0)),
        s=np.zeros(0),
    )


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
    out = state if inplace else state.copy()
    iq, ip = out.q_index(mode), out.p_index(mode)
    weights = (math.expm1(-2.0 * r), math.expm1(2.0 * r))
    sq, sp = math.exp(-r), math.exp(r)
    out.mean[iq] *= sq
    out.mean[ip] *= sp
    out.U[iq] *= sq
    out.U[ip] *= sp
    columns = np.zeros((2 * out.n_modes, 2))
    columns[iq, 0] = columns[ip, 1] = 1.0
    out.U = np.hstack((out.U, columns))
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
    out = state.copy()
    out.mean[out.q_index(mode)] += 2.0 * amplitude * math.cos(phase)
    out.mean[out.p_index(mode)] += 2.0 * amplitude * math.sin(phase)
    return out


def _apply_two_mode_orthogonal(
    state: GaussianState, mode_i: int, mode_j: int, o11, o12, o21, o22
) -> GaussianState:
    """Apply the same 2x2 orthogonal map to the q and p blocks of two modes."""
    out = state.copy()
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


def apply_loss(state: GaussianState, mode: int, eta: float, *,
               inplace: bool = False) -> GaussianState:
    """Pure-loss channel of transmission eta on one mode.

    Mean scales by sqrt(eta); the mode's covariance block maps to
    eta*V + (1-eta)*I and cross covariances scale by sqrt(eta).  Since
    L I L + (1-eta) I_m = I, this is the sqrt(eta) scale of the mode's rows
    of U.
    Pure unless a caller that owns the state passes inplace=True.
    """
    _check_mode(state, mode)
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    out = state if inplace else state.copy()
    iq, ip = out.q_index(mode), out.p_index(mode)
    # q and p of a mode are adjacent, so its rows are one slice
    block = slice(iq, ip + 1)
    root = math.sqrt(eta)
    out.mean[block] *= root
    out.U[block] *= root
    return out


def homodyne_moments(state: GaussianState, modes, quadratures="q"):
    """First and second moments of selected quadratures, one per mode.

    Args:
        modes: mode indices, no duplicates.
        quadratures: "q" or "p", either one label for all modes or a
            sequence with one label per mode.

    Returns:
        (mean vector, covariance submatrix) restricted to the selection;
        only that block is materialized.  Read-only: the state is not
        modified.
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
    rows = state.U[sel]
    return state.mean[sel], _identity_plus(rows, state.s)

