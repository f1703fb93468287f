"""The fully optimized separable baseline: the reference of criterion 10.

d independent sensors, each with its own squeezer and photon budget, each
budget split optimally between squeezing and coherent light.  The entangled
network's gain over this baseline is the gain law ``laws.gain`` states.
The split is solved from its optimality condition, not searched.
"""

from dataclasses import dataclass

import numpy as np

from mzinet.errors import AllocationError
from mzinet.optimize import optimize_squeezing


@dataclass
class SeparableOptimum:
    budgets: tuple          # per-node photon budgets n_j
    n_s: tuple              # per-node optimal squeezed photons
    variance: float


def slope(budget, Lambda, K):
    """-dV*/db of a node's best variance V*(b) = optimize_squeezing(b): by
    the envelope theorem V*(b) / (b - n_s*(b)).  V* is convex in b, so the
    slope falls as b grows."""
    n_s, variance = optimize_squeezing(budget, Lambda=Lambda, K=K)
    return variance / (budget - n_s)


def _bisect(holds, lo, hi):
    """The point between lo, where `holds` is true, and hi, where it is
    false, halving until the midpoint is one of the bracket's ends."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return hi


def separable_min_variance(n_T, Lambda=0.0, K=1.0, nu=(1.0,)) -> SeparableOptimum:
    """Fully optimized separable baseline: per-node squeezing and per-node
    photon budgets n_j (sum n_j = n_T) minimizing sum_j nu_j^2 V*(n_j).

    At the optimum every weighted node has one marginal nu_j^2 slope(n_j)
    = mu.  Each n_j(mu) is bisected on (0, n_T], and mu until the budgets
    sum to n_T: at mu = max_j nu_j^2 slope(n_T) they sum to at least n_T,
    at max_j nu_j^2 slope(n_T / m), m weighted nodes, to at most n_T.
    Nodes with zero weight get zero budget; a lone weighted node gets n_T.
    """
    nu = np.asarray(nu, dtype=float)
    if np.all(nu == 0):
        raise AllocationError("weight vector must be nonzero")
    if n_T <= 0:
        raise AllocationError("n_T must be > 0")
    active = np.nonzero(nu)[0]
    w2 = (nu[active] ** 2).tolist()

    def budgets(mu):
        return [_bisect(lambda b: w2j * slope(b, Lambda, K) > mu, 0.0, n_T)
                for w2j in w2]

    if len(w2) == 1:
        split = [n_T]
    else:
        top = max(w2)
        split = budgets(_bisect(lambda mu: sum(budgets(mu)) > n_T, top * slope(n_T, Lambda, K),
                                top * slope(n_T / len(w2), Lambda, K)))

    full_budgets = np.zeros(nu.size)
    full_budgets[active] = split
    n_s, variance = np.zeros(nu.size), 0.0
    for idx, w2j, b in zip(active, w2, split):
        n_s[idx], v = optimize_squeezing(b, Lambda=Lambda, K=K)
        variance += w2j * v
    return SeparableOptimum(budgets=tuple(full_budgets), n_s=tuple(n_s), variance=variance)
