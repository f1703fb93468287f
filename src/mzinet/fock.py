"""Truncated Fock-space oracle.

Independent brute-force check of the Gaussian engine at desk scale: the split
squeezed resource is represented by explicit number-state amplitudes, the
coherent inputs and loss ancillas by exact analytic moments, and the measured
output moments are assembled in the Heisenberg picture (the output quadrature
is linear in the input quadratures, so no multimode state evolution through
the interferometers is needed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, TruncationError
from .network import NetworkConfig, _estimator_variance, _kept_weights

__all__ = [
    "FockStateVector",
    "squeezed_vacuum_fock",
    "multinomial_split",
    "mode_moments",
    "ModeMoments",
    "oracle_sensitivity",
]

AMPLITUDE_GUARD = int(1e7)      # max tensor entries for a split state
ORACLE_MAX_D = 3
ORACLE_MAX_R = 0.4
ORACLE_MAX_ALPHA = 1.0
ORACLE_NORM_DEFICIT = 1e-8     # hard guard on the split-state budget
ORACLE_CUTOFF_TARGET = 1e-10   # cutoff selection aims lower: moment errors
                               # amplify the norm deficit by ~the cutoff


@dataclass
class FockStateVector:
    """Amplitudes over {0..cutoff}^n_modes (tensor indexed by photon numbers)."""

    cutoff: int
    n_modes: int
    amplitudes: np.ndarray

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def truncation_budget(self) -> float:
        """Probability mass lost to the cutoff, 1 - |psi|^2."""
        return 1.0 - self.norm_squared


def squeezed_vacuum_fock(r, cutoff) -> FockStateVector:
    """Squeezed vacuum in the number basis (even components only):

        c(2m) = (-tanh r)^m sqrt((2m)!) / (2^m m! sqrt(cosh r))

    The sign fixes q as the squeezed quadrature; the expansion is validated
    through its moments (Var q = e^{-2r}, <bb> = -sinh r cosh r).
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    c = np.zeros(cutoff + 1)
    c[0] = 1.0 / math.sqrt(math.cosh(r))
    t = math.tanh(r)
    for m in range(1, cutoff // 2 + 1):
        # ratio c(2m)/c(2m-2) = -tanh(r) * sqrt((2m)(2m-1)) / (2m)
        c[2 * m] = c[2 * m - 2] * (-t) * math.sqrt(2 * m * (2 * m - 1)) / (2 * m)
    state = FockStateVector(cutoff=cutoff, n_modes=1, amplitudes=c)
    if state.truncation_budget > 1e-3:
        raise TruncationError(
            f"cutoff {cutoff} too small for r = {r}: norm deficit "
            f"{state.truncation_budget:.2e}"
        )
    return state


def multinomial_split(state: FockStateVector, P) -> FockStateVector:
    """Split a single-mode state over d modes with fractions P:

        c(m1..md) = c(m) sqrt(m!/(m1!..md!)) P1^{m1/2} .. Pd^{md/2},  m = sum mj

    Norm is preserved exactly shell by shell.
    """
    if state.n_modes != 1:
        raise ValueError("multinomial_split takes a single-mode state")
    P = np.asarray(P, dtype=float)
    if np.any(P < 0) or abs(P.sum() - 1.0) > 1e-12:
        raise ValueError("P must be a probability vector")
    d = P.size
    n = state.cutoff
    if (n + 1) ** d > AMPLITUDE_GUARD:
        raise ResourceLimitError(
            f"split tensor would hold {(n + 1) ** d:.3g} amplitudes"
        )
    shape = (n + 1,) * d
    occupations = np.indices(shape)          # d index grids
    total = occupations.sum(axis=0)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    log_multinomial = log_fact[np.minimum(total, n)]
    half_log_p = np.zeros(shape)
    for j in range(d):
        log_multinomial = log_multinomial - log_fact[occupations[j]]
        with np.errstate(divide="ignore"):
            logp = np.log(P[j]) if P[j] > 0 else -np.inf
        term = np.where(occupations[j] > 0, 0.5 * occupations[j] * logp, 0.0)
        half_log_p = half_log_p + term
    weight = np.exp(0.5 * log_multinomial + half_log_p)
    weight[~np.isfinite(weight)] = 0.0
    coeffs = np.where(total <= n, state.amplitudes[np.minimum(total, n)], 0.0)
    return FockStateVector(cutoff=n, n_modes=d, amplitudes=coeffs * weight)


def _lowered(amplitudes: np.ndarray, axis: int) -> np.ndarray:
    """Apply the annihilation operator along one mode axis."""
    n = amplitudes.shape[axis] - 1
    out = np.zeros_like(amplitudes)
    src = [slice(None)] * amplitudes.ndim
    dst = [slice(None)] * amplitudes.ndim
    src[axis] = slice(1, n + 1)
    dst[axis] = slice(0, n)
    shape = [1] * amplitudes.ndim
    shape[axis] = n
    root = np.sqrt(np.arange(1, n + 1, dtype=float)).reshape(shape)
    out[tuple(dst)] = root * amplitudes[tuple(src)]
    return out


@dataclass
class ModeMoments:
    first: np.ndarray       # <b_j>
    number: np.ndarray      # <b_j† b_k>
    pair: np.ndarray        # <b_j b_k>


def mode_moments(state: FockStateVector) -> ModeMoments:
    """First moments, number correlations and pair correlations by direct
    ladder-operator contraction on the amplitude tensor."""
    a = state.amplitudes
    d = state.n_modes
    lowered = [_lowered(a, j) for j in range(d)]
    first = np.array([np.vdot(a, lowered[j]) for j in range(d)])
    number = np.zeros((d, d), dtype=complex)
    pair = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            number[j, k] = np.vdot(lowered[j], lowered[k])
            pair[j, k] = np.vdot(a, _lowered(lowered[k], j))
    return ModeMoments(first=first, number=number, pair=pair)


def _pick_cutoff(r) -> int:
    """Smallest even cutoff with norm deficit under the selection target."""
    for cutoff in range(8, 64, 2):
        state = squeezed_vacuum_fock(r, cutoff)
        if state.truncation_budget < ORACLE_CUTOFF_TARGET:
            return cutoff
    raise TruncationError(f"no acceptable cutoff below 64 for r = {r}")


def oracle_sensitivity(config: NetworkConfig) -> float:
    """Brute-force variance of the weighted phase estimate for small networks
    (d <= 3, r <= 0.4, |alpha_j| <= 1).

    Output-quadrature moments are assembled in the Heisenberg picture from
    the split squeezed resource (Fock tensor), exact coherent moments and
    vacuum loss ancillas; the responses are the analytic C_jj of
    network.response, and the variance keeps the engine's channels and
    rounding check.
    """
    if config.d > ORACLE_MAX_D:
        raise ResourceLimitError(f"oracle limited to d <= {ORACLE_MAX_D}")
    r = config.r
    if r > ORACLE_MAX_R:
        raise ResourceLimitError(f"oracle limited to r <= {ORACLE_MAX_R}")
    if any(mag > ORACLE_MAX_ALPHA for mag, _ in config.alphas):
        raise ResourceLimitError(f"oracle limited to |alpha| <= {ORACLE_MAX_ALPHA}")

    split = multinomial_split(squeezed_vacuum_fock(r, _pick_cutoff(r)), config.P)
    if split.truncation_budget > ORACLE_NORM_DEFICIT:
        raise TruncationError(
            f"norm deficit {split.truncation_budget:.2e} exceeds the budget"
        )
    mm = mode_moments(split)
    d = config.d
    # Cov(q_bj, q_bk) = <bj† bk> + <bk† bj> + <bj bk> + conj(<bj bk>) + delta
    cov_b = (mm.number + mm.number.conj().T + mm.pair + mm.pair.conj()).real
    cov_b += np.eye(d)

    eta = config.eta_total
    gain = config.signal_gain
    cos = np.array([math.cos(gain * t / 2.0) for t in config.thetas])
    sin = np.array([math.sin(gain * t / 2.0) for t in config.thetas])

    gamma = eta * np.outer(cos, cos) * cov_b
    gamma[np.diag_indices(d)] += eta * sin**2 + (1.0 - eta)
    x, keep = _kept_weights(config)
    return _estimator_variance(x, keep, gamma)
