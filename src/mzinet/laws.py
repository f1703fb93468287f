"""Closed-form sensitivity laws, bounds and resource conversions.

Conventions used throughout:

* ``Lambda = 1/eta - 1`` quantifies photon loss (0 for a lossless network).
* ``K`` in these formulas is the *effective* multipass enhancement of the
  variance denominator.  A K-pass interrogation with multipass coefficient
  ``mu`` has effective enhancement ``mu*K**2``; at the default ``mu = 1/K``
  this equals the pass count, so callers can pass K directly.
* A divisor K n that underflows to 0 gives inf, the float range's edge,
  not a ZeroDivisionError (`_divide`); the caller's range guard reports it.
* Every variance law is per unit weight sum: for the weights nu of the
  estimated combination nu . theta it scales by ``(sum_j |nu_j|)**2``,
  which the caller applies once (`optimize._point_report`).  `gain` alone
  takes nu, whose weights are its input rather than a factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllocationError

__all__ = [
    "SqueezingOptimum",
    "RegimeLimits",
    "weight_sum",
    "optimized_variance",
    "variance_vs_ns",
    "min_variance_over_r",
    "regime_limits",
    "qcrb",
    "gain",
    "scaling_with_d",
    "db_below_sql",
    "sql_variance",
    "ns_to_r",
    "varq_from_ns",
]

REGIME_LOW = "low-n"
REGIME_HL = "heisenberg"
REGIME_FLOOR = "loss-floor"

# label thresholds only; the underlying limits are asymptotic, not sharp
_LOW_N_EDGE = 0.1


def _divide(numerator: float, divisor: float) -> float:
    """numerator / divisor for numerator >= 0 and a divisor K n > 0 that
    may underflow to 0: then inf, or 0 for a zero numerator."""
    if divisor:
        return numerator / divisor
    return math.inf if numerator else 0.0


def weight_sum(nu) -> float:
    """sum_j |nu_j|, the weight normalization of all closed forms."""
    return float(np.sum(np.abs(np.asarray(nu, dtype=float))))


def ns_to_r(n_s: float) -> float:
    """Squeezing strength from mean photon number, r = asinh(sqrt(n_s))."""
    if n_s < 0:
        raise ValueError("n_s must be >= 0")
    return math.asinh(math.sqrt(n_s))


def varq_from_ns(n_s):
    """Squeezed-quadrature variance as a function of photon number:
    e^{-2r} = 1 + 2 n_s - 2 sqrt(n_s + n_s^2).

    Evaluated as 1 / (1 + 2 n_s + 2 sqrt(n_s + n_s^2)), the same quantity
    without the catastrophic cancellation at large n_s.  n_s is a float or
    an ndarray; an array is evaluated elementwise with the same operations
    in the same order, so each element has the bits of the scalar result."""
    if isinstance(n_s, np.ndarray):
        if n_s.min() < 0:
            raise ValueError("n_s must be >= 0")
        # n_s^2 past the float range reads inf, as in the scalar's float
        # arithmetic, without a warning
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + 2.0 * n_s + 2.0 * np.sqrt(n_s + n_s * n_s))
    n_s = float(n_s)  # a numpy scalar overflows as the float does, silently
    if n_s < 0:
        raise ValueError("n_s must be >= 0")
    return 1.0 / (1.0 + 2.0 * n_s + 2.0 * math.sqrt(n_s + n_s * n_s))


def optimized_variance(n_c, r, Lambda=0.0, K=1.0) -> float:
    """Variance at the optimal splitting/intensity allocation:

        (e^{-2r} + Lambda) / (K * n_c)

    Exact for the optimally allocated network at the working point; equals
    the total-budget form in the regime n_c >> n_s.
    """
    if n_c <= 0:
        raise AllocationError("n_c must be > 0")
    if Lambda < 0:
        raise ValueError("Lambda must be >= 0")
    if K <= 0:
        raise ValueError("K must be > 0")
    return _divide(math.exp(-2.0 * r) + Lambda, K * n_c)


def variance_vs_ns(n_T, n_s, Lambda=0.0, K=1.0):
    """Optimized variance as a function of the squeezed/coherent split:

        (1 + 2 n_s - 2 sqrt(n_s + n_s^2) + Lambda) / (K (n_T - n_s))

    n_s is a float or an ndarray of splits; an array gives the array of
    variances, each element bit-identical to the scalar call.  Raises
    AllocationError when any n_s is negative or NaN, or when n_s >= n_T (no
    coherent photons left); the divergence as n_s -> n_T is therefore
    reported as a typed error, never as a raw infinity.
    """
    # min and max of an array carry a NaN, so one comparison each covers it
    if isinstance(n_s, np.ndarray):
        lo, hi = n_s.min(), n_s.max()
    else:
        lo = hi = n_s
    if not 0.0 <= lo:
        raise AllocationError("n_s must be >= 0")
    if hi >= n_T:
        raise AllocationError(f"n_s = {hi} must be < n_T = {n_T}")
    if isinstance(n_s, np.ndarray):
        # each element as the scalar call reads it: float arithmetic, which
        # warns of nothing, and `_divide`'s rule where the divisor is 0
        with np.errstate(all="ignore"):
            numerator = varq_from_ns(n_s) + Lambda
            divisor = K * (n_T - n_s)
            return np.where(divisor != 0, numerator / divisor,
                            np.where(numerator, np.inf, 0.0))
    return _divide(varq_from_ns(n_s) + Lambda, K * (n_T - n_s))


@dataclass
class SqueezingOptimum:
    """Exact minimum over the squeezing fraction plus the large-n_s
    asymptote it approaches."""

    n_s_opt: float
    variance: float
    n_s_asymptotic: float
    variance_asymptotic: float


def min_variance_over_r(n_T, Lambda=0.0, K=1.0) -> SqueezingOptimum:
    """Minimize variance_vs_ns over n_s for a fixed total budget n_T.

    Returns both the exact minimum (optimize_squeezing's closed form) and
    the asymptotic pair
        n_s = n_T / (1 + sqrt(1 + 4 Lambda n_T)),
        variance = (1 + sqrt(1 + 4 Lambda n_T))^2 / (4 K n_T^2),
    which the minimum approaches in the n_s >> 1 regime.
    """
    if n_T <= 0:
        raise AllocationError("n_T must be > 0")
    from .optimize import optimize_squeezing  # local import avoids a cycle

    n_s_opt, variance = optimize_squeezing(n_T, Lambda=Lambda, K=K)
    split = 1.0 + math.sqrt(1.0 + 4.0 * Lambda * n_T)
    return SqueezingOptimum(
        n_s_opt=n_s_opt,
        variance=variance,
        n_s_asymptotic=n_T / split,
        variance_asymptotic=_divide(split * split, 4.0 * K * (n_T * n_T)),
    )


@dataclass
class RegimeLimits:
    """The three asymptotic branches of the fully optimized sensitivity."""

    low_n: float
    heisenberg: float
    loss_floor: float
    active: str


def regime_limits(n_T, Lambda=0.0, K=1.0) -> RegimeLimits:
    """Branch values {(1+L)/(K n_T), 1/(K n_T^2), L/(K n_T)} with a label.

    The labels use fixed bookkeeping thresholds (n_T < 0.1 low; below
    1/(10 Lambda) Heisenberg; loss floor beyond); the physical crossovers
    are asymptotic, not sharp.  A branch out of float range reads inf or 0.
    """
    if n_T <= 0:
        raise AllocationError("n_T must be > 0")
    if n_T < _LOW_N_EDGE:
        active = REGIME_LOW
    elif Lambda <= 0 or n_T < 1.0 / (10.0 * Lambda):
        active = REGIME_HL
    else:
        active = REGIME_FLOOR
    return RegimeLimits(
        low_n=_divide(1.0 + Lambda, K * n_T),
        heisenberg=_divide(1.0, K * (n_T * n_T)),
        loss_floor=_divide(Lambda, K * n_T),
        active=active,
    )


def qcrb(n_c, r, K=1.0) -> float:
    """Quantum Cramer-Rao bound of the lossless network:

        1 / (K * (n_c e^{2r} + sinh^2 r))
    """
    if n_c < 0:
        raise ValueError("n_c must be >= 0")
    photons = n_c * math.exp(2.0 * r) + math.sinh(r) ** 2
    if photons <= 0:
        raise ValueError("need n_c > 0 or r > 0 for a finite bound")
    return _divide(1.0, K * photons)


def gain(nu, regime="low") -> float:
    """Variance gain of the shared-resource network over d independently
    optimized nodes, for the weight vector nu.

    low regime:  ||nu||_{2/3}^2 / ||nu||_1^2  =  (sum|nu|^{2/3})^3 for
                 normalized weights (ranges over [1, d]);
    high regime: 1.

    The regime label is an explicit argument because the crossover variable
    is realized at the Heisenberg window boundary, see the project notes.
    """
    v = np.abs(np.asarray(nu, dtype=float))
    total = weight_sum(nu)
    if total == 0.0:
        raise ValueError("weight vector must be nonzero")
    if regime == "high":
        return 1.0
    if regime != "low":
        raise ValueError("regime must be 'low' or 'high'")
    return float(np.sum(v ** (2.0 / 3.0)) ** 3) / total**2


def scaling_with_d(n_c_per_node, d, r, Lambda=0.0, K=1.0) -> float:
    """Average-weight variance at fixed per-node coherent intensity:

        (e^{-2r} + Lambda) / (K * d * n_c')
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n_c_per_node <= 0:
        raise AllocationError("n_c_per_node must be > 0")
    return _divide(math.exp(-2.0 * r) + Lambda, K * d * n_c_per_node)


def db_below_sql(r, Lambda=0.0) -> float:
    """Joint-noise suppression relative to the ideal coherent network:

        -10 log10(e^{-2r} + Lambda)

    Positive values mean sub-shot-noise performance; zero exactly at the
    break-even loss Lambda = 1 - e^{-2r}.
    """
    if r < 0 or Lambda < 0:
        raise ValueError("r and Lambda must be >= 0")
    return -10.0 * math.log10(math.exp(-2.0 * r) + Lambda)


def sql_variance(n_T, K=1.0) -> float:
    """Shot-noise-limited variance 1 / (K n_T)."""
    if n_T <= 0:
        raise AllocationError("n_T must be > 0")
    return _divide(1.0, K * n_T)
