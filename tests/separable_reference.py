"""The fully optimized separable baseline: the reference of criterion 10.

d independent sensors, each with its own squeezer and photon budget, each
budget split optimally between squeezing and coherent light.  The entangled
network's gain over this baseline is the gain law ``laws.gain`` states.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from mzinet.errors import AllocationError
from mzinet.optimize import optimize_squeezing


@dataclass
class SeparableOptimum:
    budgets: tuple          # per-node photon budgets n_j
    n_s: tuple              # per-node optimal squeezed photons
    variance: float


def _node_variance(n_budget, Lambda, K):
    if n_budget <= 0:
        return math.inf
    return optimize_squeezing(n_budget, Lambda=Lambda, K=K)[1]


def separable_min_variance(n_T, Lambda=0.0, K=1.0, nu=(1.0,)) -> SeparableOptimum:
    """Fully optimized separable baseline: per-node squeezing and per-node
    photon budgets n_j (sum n_j = n_T) minimizing sum_j nu_j^2 V(n_j).

    The budget allocation is solved with SLSQP from two analytic seeds
    (proportional to |nu_j| and to |nu_j|^{2/3}); nodes with zero weight get
    zero budget.
    """
    nu = np.asarray(nu, dtype=float)
    if np.all(nu == 0):
        raise AllocationError("weight vector must be nonzero")
    if n_T <= 0:
        raise AllocationError("n_T must be > 0")
    active = np.nonzero(nu)[0]
    w2 = nu[active] ** 2

    def objective(budgets):
        return sum(
            w2j * _node_variance(bj, Lambda, K) for w2j, bj in zip(w2, budgets)
        )

    if active.size == 1:
        budgets = np.array([n_T])
    else:
        absnu = np.abs(nu[active])
        seeds = [absnu / absnu.sum(), absnu ** (2.0 / 3.0) / (absnu ** (2.0 / 3.0)).sum()]
        best = None
        floor = n_T * 1e-9
        for seed in seeds:
            res = minimize(
                objective,
                seed * n_T,
                method="SLSQP",
                bounds=[(floor, n_T)] * active.size,
                constraints=[{"type": "eq", "fun": lambda b: b.sum() - n_T}],
                options={"ftol": 1e-14, "maxiter": 300},
            )
            candidate = (objective(res.x), res.x)
            if best is None or candidate[0] < best[0]:
                best = candidate
        budgets = best[1]

    full_budgets = np.zeros(nu.size)
    full_budgets[active] = budgets
    n_s = np.zeros(nu.size)
    for idx, b in zip(active, budgets):
        n_s[idx] = optimize_squeezing(b, Lambda=Lambda, K=K)[0]
    return SeparableOptimum(
        budgets=tuple(full_budgets),
        n_s=tuple(n_s),
        variance=float(objective(budgets)),
    )
