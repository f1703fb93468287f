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
    frac = np.abs(nu) / scale
    alphas = tuple(
        (math.sqrt(n_c * fj), 0.0 if nuj >= 0 else math.pi)
        for fj, nuj in zip(frac, nu)
    )
    return Allocation(alphas=alphas, P=tuple(frac))


def configure_optimal(nu, n_c, r, K=1, mu=None, eta_dis=1.0, eta_mzi=1.0,
                      eta_m=1.0, thetas=None, topology="entangled") -> NetworkConfig:
    """NetworkConfig with the optimal allocation for the given weights.

    r may be a per-node sequence for the separable topology; a scalar is
    broadcast to every node there."""
    nu = tuple(float(x) for x in nu)
    if topology == "separable" and not isinstance(r, (list, tuple, np.ndarray)):
        r = (r,) * len(nu)
    alloc = optimal_allocation(nu, n_c)
    return NetworkConfig(
        d=len(nu),
        r=r,
        K=K,
        mu=mu,
        alphas=alloc.alphas,
        thetas=thetas if thetas is not None else (0.0,) * len(nu),
        weights=nu,
        P=alloc.P,
        eta_dis=eta_dis,
        eta_mzi=eta_mzi,
        eta_m=eta_m,
        topology=topology,
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
    """Derive the operating point for one grid value.

    n_c / eta_dis / K keep the weight structure and reallocate optimally;
    d rebuilds the weight pattern at fixed per-node coherent intensity;
    n_T additionally optimizes the squeezing split (n_s_opt reported);
    weights switches the estimated combination by pattern name.
    """
    nu = base.weights
    r = float(base.r)
    kw = dict(
        K=base.K, mu=base.mu, eta_dis=base.eta_dis, eta_mzi=base.eta_mzi,
        eta_m=base.eta_m,
    )
    n_s_opt = None
    if axis == "n_c":
        cfg = configure_optimal(nu, float(value), r, **kw)
    elif axis == "eta_dis":
        kw["eta_dis"] = float(value)
        cfg = configure_optimal(nu, base.n_c, r, **kw)
    elif axis == "K":
        kw["K"] = int(value)
        cfg = configure_optimal(nu, base.n_c, r, **kw)
    elif axis == "d":
        d = int(value)
        n_c_per_node = base.n_c / base.d
        pattern = weight_pattern("ave", d)
        cfg = configure_optimal(pattern, n_c_per_node * d, r, **kw)
    elif axis == "n_T":
        n_s_opt, _ = optimize_squeezing(float(value), Lambda=base.Lambda,
                                        K=base.enhancement)
        n_c = float(value) - n_s_opt
        cfg = configure_optimal(nu, n_c, laws.ns_to_r(n_s_opt), **kw)
    elif axis == "weights":
        pattern = weight_pattern(str(value), base.d)
        cfg = configure_optimal(pattern, base.n_c, r, **kw)
    return cfg, n_s_opt


def _evaluate_point(axis, value, base, engines):
    row = ScanRow(value=value)
    try:
        cfg, row.n_s_opt = _config_for_point(axis, value, base)
        row.config = cfg
        weights = np.asarray(cfg.weights)
        scale = laws.weight_sum(weights)
        norm = weights / scale
        enhancement = cfg.enhancement
        row.variance_closed_form = laws.optimized_variance(
            cfg.n_c, float(cfg.r), Lambda=cfg.Lambda, K=enhancement, nu=norm
        ) * scale**2
        row.variance_qcrb = laws.qcrb(cfg.n_c, float(cfg.r), K=enhancement,
                                      nu=norm) * scale**2
        row.sql = laws.sql_variance(cfg.n_T, K=1.0, nu=norm) * scale**2
        ratio = row.sql / row.variance_closed_form
        if not 0.0 < ratio < math.inf:
            raise OverflowError("closed-form variance out of float range")
        row.db_below_sql = 10.0 * math.log10(ratio)
        limits = laws.regime_limits(cfg.n_T, cfg.Lambda, K=enhancement)
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


def _check_grid(axis, grid):
    """A scan grid must be nonempty and repeat no point, and on a numeric
    axis it must be monotone (so strictly monotone)."""
    if not grid:
        raise ConfigError("grid", "grid must be nonempty")
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

    Rows are evaluated and returned in grid order, and per-point failures
    are recorded in the row status.
    """
    grid = list(grid)
    _check_axis(axis)
    _check_grid(axis, grid)
    return [_evaluate_point(axis, v, base, engines) for v in grid]
