"""Resource-allocation optimization and parameter scans.

Both optima are closed forms: the Lagrangian allocation of the coherent
light over the nodes, and the squeezed/coherent split of a photon budget,
the root of a quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import laws
from .errors import (
    AllocationError,
    AnalysisError,
    ConfigError,
    DarkResponseError,
    InfeasibleSplitError,
    RegularizationError,
    ResourceLimitError,
    TruncationError,
)
from .network import (
    NetworkConfig,
    sensitivity_numeric,
    weight_pattern,
)

__all__ = [
    "Allocation",
    "optimal_allocation",
    "configure_optimal",
    "optimize_squeezing",
    "ScanRow",
    "scan",
]

@dataclass
class Allocation:
    """Optimal coherent intensities and splitting for a weight vector."""

    alphas: tuple           # (magnitude, phase) per node, phase in {0, pi}
    P: tuple                # splitting probabilities, P_j = |nu_j| / sum|nu|


def optimal_allocation(nu, n_c) -> Allocation:
    """Lagrangian optimum: |alpha_j|^2 = n_c |nu_j|/sum|nu|, P_j = |nu_j|/sum|nu|,
    phi_j = 0 for nu_j >= 0 else pi."""
    nu = np.asarray(nu, dtype=float)
    scale = laws.weight_sum(nu)
    if scale == 0.0:
        raise AllocationError("weight vector must be nonzero")
    if n_c <= 0:
        raise AllocationError("n_c must be > 0")
    frac = (np.abs(nu) / scale).tolist()
    alphas = tuple(
        (math.sqrt(n_c * fj), 0.0 if nuj >= 0 else math.pi)
        for fj, nuj in zip(frac, nu.tolist())
    )
    return Allocation(alphas=alphas, P=tuple(frac))


def configure_optimal(nu, n_c, r, K=1, mu=None, eta_dis=1.0, eta_mzi=1.0,
                      eta_m=1.0, thetas=()) -> NetworkConfig:
    """NetworkConfig with the optimal allocation for the given weights."""
    alloc = optimal_allocation(nu, n_c)
    return NetworkConfig(
        d=len(nu),
        r=r,
        K=K,
        mu=mu,
        alphas=alloc.alphas,
        thetas=thetas,
        weights=nu,
        P=alloc.P,
        eta_dis=eta_dis,
        eta_mzi=eta_mzi,
        eta_m=eta_m,
    )


def optimize_squeezing(n_T, Lambda=0.0, K=1.0):
    """Best split of a fixed photon budget between squeezing and coherent
    light: the exact minimum of variance_vs_ns over n_s in [0, n_T).

    With x = e^{2r} >= 1 the squeezed photons are n_s = sinh^2 r =
    (x - 1)^2 / (4x) and V = (1/x + Lambda) / (K (n_T - n_s)).  Since
    dn_s/dx = (x^2 - 1)/(4x^2) > 0 for x > 1, dV/dn_s = 0 where dV/dx = 0,
    and 4x^2 K (n_T - n_s)^2 dV/dx reduces to the quadratic

        Lambda x^2 + 2x - (4 n_T + 2 + Lambda) = 0.

    Its root x >= 1 is x* = (4 n_T + 2 + Lambda) / (1 + D), with
    D = sqrt((1 + Lambda)^2 + 4 Lambda n_T); for Lambda > 0 the other root
    is negative.  The quadratic is negative below x* and positive above, so
    V falls and then rises: x* is the minimum, and it lies below the split
    n_s = n_T, where V diverges.  K scales V and does not move it.
    Lambda = 0 gives x* = 2 n_T + 1 and n_s* = n_T^2 / (2 n_T + 1).

    x* - 1 is evaluated without cancellation: it is the positive root
    of the shifted quadratic Lambda y^2 + 2(1 + Lambda) y - 4 n_T = 0,

        y = x* - 1 = 4 n_T / (1 + Lambda + D),
        q = (x* - 1) / x* = y / (1 + y) = 4 n_T / (1 + Lambda + 4 n_T + D),

    and n_s* = y q / 4.  Both ratios are finite wherever 4 n_T is, and
    y q = 4 n_s* < 4 n_T, so no product overflows.

    Returns (n_s_opt, variance).  Raises OverflowError when an intermediate
    leaves the float range (4 n_T overflows above about 4.5e307).
    """
    if n_T <= 0:
        raise AllocationError("n_T must be > 0")
    if Lambda < 0:
        raise AllocationError("Lambda must be >= 0")
    if K <= 0:
        raise AllocationError("K must be > 0")
    four_n = 4.0 * n_T
    root = math.sqrt((1.0 + Lambda) ** 2 + 4.0 * Lambda * n_T)
    outer = 1.0 + Lambda + four_n + root
    if not math.isfinite(outer):
        raise OverflowError(f"squeezing optimum at n_T = {n_T} is out of float range")
    y = four_n / (1.0 + Lambda + root)
    n_s = y * (four_n / outer) / 4.0
    return n_s, laws.variance_vs_ns(n_T, n_s, Lambda=Lambda, K=K)


# ---------------------------------------------------------------------------
# parameter scans


@dataclass
class ScanRow:
    value: object
    config: NetworkConfig | None = None   # the operating point; not a CSV column
    variance_numeric: float | None = None
    variance_closed_form: float | None = None
    variance_oracle: float | None = None
    variance_qcrb: float | None = None
    sql: float | None = None
    db_below_sql: float | None = None
    regime: str = ""
    n_s_opt: float | None = None
    branch_low: float | None = None
    branch_heisenberg: float | None = None
    branch_floor: float | None = None
    db_below_sql_mc: float | None = None
    snr_db_mc: float | None = None
    status: str = "ok"


SCAN_AXES = ("n_c", "eta_dis", "K", "d", "n_T", "weights")

# Failures of one scan point that become its row status: the typed errors,
# and float range failures (overflow, a divisor that underflows to zero) of
# an extreme but valid point.  Anything else is a programming error and
# propagates.
ROW_ERRORS = (
    ConfigError,
    InfeasibleSplitError,
    DarkResponseError,
    AllocationError,
    TruncationError,
    ResourceLimitError,
    AnalysisError,
    RegularizationError,
    np.linalg.LinAlgError,
    ArithmeticError,
)


def _config_for_point(axis, value, base: NetworkConfig):
    """The operating point of one grid value: `configure_optimal` on the base
    network's weights, n_c, r, K, mu and efficiencies, the axis replacing its
    own input (d: the 'ave' pattern of d nodes at the base's n_c per node;
    n_T: n_c = n_T - n_s_opt and the r of the optimal split n_s_opt, also
    returned; weights: the named pattern).  No point reads the base's
    amplitudes, splitting or working points."""
    inputs = dict(nu=base.weights, n_c=base.n_c, r=base.r, K=base.K, mu=base.mu,
                  eta_dis=base.eta_dis, eta_mzi=base.eta_mzi, eta_m=base.eta_m)
    n_s_opt = None
    if axis == "d":
        inputs.update(nu=weight_pattern("ave", int(value)),
                      n_c=base.n_c / base.d * int(value))
    elif axis == "n_T":
        n_s_opt, _ = optimize_squeezing(float(value), Lambda=base.Lambda,
                                        K=base.enhancement)
        inputs.update(n_c=float(value) - n_s_opt, r=laws.ns_to_r(n_s_opt))
    elif axis == "weights":
        inputs["nu"] = weight_pattern(str(value), base.d)
    else:  # n_c, eta_dis, K
        inputs[axis] = int(value) if axis == "K" else float(value)
    return configure_optimal(**inputs), n_s_opt


def _evaluate_point(axis, value, base, engines):
    row = ScanRow(value=value)
    try:
        cfg, row.n_s_opt = _config_for_point(axis, value, base)
        row.config = cfg
        weights = np.asarray(cfg.weights)
        scale = laws.weight_sum(weights)
        norm = weights / scale
        enhancement = cfg.enhancement
        n_c = cfg.n_c
        row.variance_closed_form = laws.optimized_variance(
            n_c, cfg.r, Lambda=cfg.Lambda, K=enhancement, nu=norm
        ) * scale**2
        row.variance_qcrb = laws.qcrb(n_c, cfg.r, K=enhancement,
                                      nu=norm) * scale**2
        # on the n_T axis the budget is the grid value itself; n_c + n_s is
        # (n_T - n_s) + n_s, which rounds with the split
        n_total = float(value) if axis == "n_T" else n_c + cfg.n_s
        row.sql = laws.sql_variance(n_total, K=1.0, nu=norm) * scale**2
        ratio = row.sql / row.variance_closed_form
        if not 0.0 < ratio < math.inf:
            raise OverflowError("closed-form variance out of float range")
        row.db_below_sql = 10.0 * math.log10(ratio)
        limits = laws.regime_limits(n_total, cfg.Lambda, K=enhancement)
        row.regime = limits.active
        row.branch_low = limits.low_n * scale**2
        row.branch_heisenberg = limits.heisenberg * scale**2
        row.branch_floor = limits.loss_floor * scale**2
        if "numeric" in engines:
            row.variance_numeric = sensitivity_numeric(cfg)
        if "oracle" in engines:
            from .fock import oracle_sensitivity

            row.variance_oracle = oracle_sensitivity(cfg)
    except ROW_ERRORS as exc:  # recorded per-row, scan continues
        row.status = f"error:{type(exc).__name__}: {exc}"
    return row


def _check_axis(axis):
    """A scan axis must be one of SCAN_AXES."""
    if axis not in SCAN_AXES:
        raise ConfigError("axis", f"unknown scan axis {axis!r}")


def _number(name: str, value) -> float:
    """value as a float; anything but a number raises ConfigError(name).
    JSON true and false are not numbers, although Python's bool is an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)):
        raise ConfigError(name, f"must be a number, got {value!r}")
    return float(value)


def _integer(name: str, value) -> int:
    """value as an int; anything but a whole number raises ConfigError(name)."""
    if not _number(name, value).is_integer():
        raise ConfigError(name, f"must be an integer, got {value!r}")
    return int(value)


def _count(name: str, value) -> int:
    """value as an int; anything but a whole number >= 1 raises ConfigError(name)."""
    count = _integer(name, value)
    if count < 1:
        raise ConfigError(name, f"must be an integer >= 1, got {value!r}")
    return count


def _finite(name: str, value) -> float:
    """value as a float; anything but a finite number raises ConfigError(name)."""
    number = _number(name, value)
    if not math.isfinite(number):
        raise ConfigError(name, f"must be a finite number, got {value!r}")
    return number


def _check_grid(axis, grid):
    """A scan grid must be nonempty, hold values of its axis (a pattern
    name on weights, a whole number >= 1 on K and d, a finite number
    elsewhere: ConfigError(axis)) and repeat no point, and on a numeric axis
    it must be monotone (so strictly monotone).  The loader and `scan` check
    a grid here, before any point is evaluated."""
    if not grid:
        raise ConfigError("grid", "grid must be nonempty")
    for point in grid:
        if axis == "weights":
            weight_pattern(str(point), 1)
        else:
            (_count if axis in ("K", "d") else _finite)(axis, point)
    seen = set()
    for point in grid:
        if point in seen:
            raise ConfigError("grid", f"grid repeats the point {point!r}")
        seen.add(point)
    if axis != "weights":
        diffs = np.diff([float(v) for v in grid])
        if not (np.all(diffs >= 0) or np.all(diffs <= 0)):
            raise ConfigError("grid", "grid must be monotone")


def scan(axis, grid, base: NetworkConfig,
         engines=("analytic", "numeric")) -> list:
    """Evaluate a grid of operating points; one ScanRow per grid value.

    A grid that `_check_grid` refuses raises ConfigError before any row is
    computed; then rows are evaluated and returned in grid order, and
    per-point failures are recorded in the row status.
    """
    grid = list(grid)
    _check_axis(axis)
    _check_grid(axis, grid)
    return [_evaluate_point(axis, v, base, engines) for v in grid]
