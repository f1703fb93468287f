"""Resource-allocation optimization and parameter scans.

The scalar workhorse is a bracketed golden-section minimizer seeded by a
guard grid (protects against undetected multimodality).
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
    "golden_min",
    "Allocation",
    "optimal_allocation",
    "configure_optimal",
    "optimize_squeezing",
    "ScanRow",
    "scan",
]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MAX_ITER = 200
GOLDEN_REL_TOL = 1e-10
SEED_POINTS = 64


def golden_min(f, lo, hi):
    """Bounded scalar minimization: seed grid + golden-section refinement.

    Returns (argmin, minimum).  The seed grid picks the best starting
    bracket, so a narrow interior dip near a bound is still found even when
    the function is almost flat elsewhere.
    """
    if hi <= lo:
        raise ValueError("need lo < hi")
    xs = np.linspace(lo, hi, SEED_POINTS)
    fs = [f(x) for x in xs]
    best = int(np.argmin(fs))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, SEED_POINTS - 1)]
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_MAX_ITER):
        if (b - a) <= GOLDEN_REL_TOL * max(abs(x1), abs(x2), GOLDEN_REL_TOL):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_PHI * (b - a)
            f2 = f(x2)
    x = x1 if f1 <= f2 else x2
    fx = min(f1, f2)
    # never report worse than a seed or boundary evaluation
    if fs[best] < fx:
        x, fx = xs[best], fs[best]
    return float(x), float(fx)


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
    light: minimizes variance_vs_ns over n_s in [0, n_T).

    Returns (n_s_opt, variance).
    """
    if n_T <= 0:
        raise AllocationError("n_T must be > 0")
    if Lambda < 0:
        raise AllocationError("Lambda must be >= 0")
    if K <= 0:
        raise AllocationError("K must be > 0")

    def objective(n_s):
        return laws.variance_vs_ns(n_T, n_s, Lambda=Lambda, K=K)

    hi = n_T * (1.0 - 1e-9)
    n_s, variance = golden_min(objective, 0.0, hi)
    # tiny-budget optima sit at n_s ~ n_T^2, far below the seed grid pitch;
    # refine inside the first grid cell when the coarse answer is the origin
    cell = hi / (SEED_POINTS - 1)
    if n_s <= cell:
        n_s2, var2 = golden_min(objective, 0.0, cell)
        if var2 < variance:
            n_s, variance = n_s2, var2
    return n_s, variance


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
