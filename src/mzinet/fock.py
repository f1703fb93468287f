"""Truncated Fock-space oracle.

Independent brute-force check of the Gaussian engine: the split squeezed
resource is one real vector of number-state amplitudes over the photon-number
simplex, the occupation vectors m with sum m_j <= n at cutoff n; the coherent
inputs and loss ancillas enter by their exact analytic moments, and the
measured output moments are assembled in the Heisenberg picture (the output
quadrature is linear in the input quadratures, so no multimode state evolution
through the interferometers is needed).  One size rule, `_cutoff`, bounds the
state for the oracle and for the scenario loader alike.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimitError, TruncationError
from .network import NetworkConfig, _estimator_variance, _kept_weights

__all__ = ["oracle_sensitivity"]

AMPLITUDE_GUARD = int(4e6)      # max stored entries, C(n + d, d) rows of d
ORACLE_MAX_R = 0.4
ORACLE_NORM_DEFICIT = 1e-8     # hard guard on the split-state budget
ORACLE_CUTOFF_TARGET = 1e-10   # cutoff selection aims lower: moment errors
                               # amplify the norm deficit by ~the cutoff


def _squeezed_vacuum(r, cutoff) -> np.ndarray:
    """Squeezed vacuum amplitudes c(0..cutoff) in the number basis (even
    components only):

        c(2m) = (-tanh r)^m sqrt((2m)!) / (2^m m! sqrt(cosh r))

    The sign fixes q as the squeezed quadrature; the expansion is validated
    through its moments (Var q = e^{-2r}, <bb> = -sinh r cosh r).
    """
    c = np.zeros(cutoff + 1)
    c[0] = 1.0 / math.sqrt(math.cosh(r))
    t = math.tanh(r)
    for m in range(1, cutoff // 2 + 1):
        # ratio c(2m)/c(2m-2) = -tanh(r) * sqrt((2m)(2m-1)) / (2m)
        c[2 * m] = c[2 * m - 2] * (-t) * math.sqrt(2 * m * (2 * m - 1)) / (2 * m)
    return c


def _pick_cutoff(r) -> int:
    """Smallest even cutoff with norm deficit under the selection target."""
    for cutoff in range(8, 64, 2):
        c = _squeezed_vacuum(r, cutoff)
        if 1.0 - c @ c < ORACLE_CUTOFF_TARGET:
            return cutoff
    raise TruncationError(f"no acceptable cutoff below 64 for r = {r}")


def _cutoff(d, r) -> int:
    """The size rule of the oracle and of the scenario loader: the cutoff n
    of the split state of d modes at squeezing r.  ResourceLimitError when
    r > ORACLE_MAX_R, or when its C(n + d, d) occupation vectors of d
    entries each would hold more than AMPLITUDE_GUARD entries."""
    if r > ORACLE_MAX_R:
        raise ResourceLimitError(f"oracle limited to r <= {ORACLE_MAX_R}")
    n = _pick_cutoff(r)
    entries = math.comb(n + d, d) * d
    if entries > AMPLITUDE_GUARD:
        raise ResourceLimitError(f"split state of d = {d} at cutoff {n} would "
                                 f"hold {entries:.3g} entries")
    return n


def _split(c, P):
    """(psi, occ): the single-mode amplitudes c split over len(P) modes with
    fractions P, on the occupation vectors occ (one row each) of the simplex
    sum m_j <= n = c.size - 1, in lexicographic order:

        psi(m) = c(s) sqrt(s!) prod_j P_j^{m_j/2} / sqrt(m_j!),  s = sum m_j

    Built mode by mode: each row of the modes so far takes every m_j that
    keeps s <= n.  Norm is preserved exactly shell by shell; an empty node
    (P_j = 0) keeps only its m_j = 0 rows, as 0 ** 0 = 1.
    """
    n = c.size - 1
    root_fact = np.sqrt([float(math.factorial(k)) for k in range(n + 1)])
    occ = np.zeros((1, 0), dtype=np.int64)
    total = np.zeros(1, dtype=np.int64)
    psi = np.ones(1)
    for p in P:
        counts = n + 1 - total
        rows = np.repeat(np.arange(total.size), counts)
        m = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        occ = np.column_stack((occ[rows], m))
        total = total[rows] + m
        psi = psi[rows] * (math.sqrt(p) ** np.arange(n + 1) / root_fact)[m]
    return psi * (c * root_fact)[total], occ


def _ladders(psi, occ):
    """(lowered, raised): the rows b_j psi and b_j† psi of the state psi on
    the occupation vectors occ of `_split`.  b_j maps m to m - e_j with
    weight sqrt(m_j), found by np.searchsorted on the rows' mixed-radix keys,
    which their lexicographic order sorts.  b_j† psi keeps only its entries
    inside the simplex, all that <b_j b_k> = (b_j† psi) . (b_k psi) reads,
    as b_k psi vanishes on the top shell."""
    radix = (occ.max() + 1) ** np.arange(occ.shape[1] - 1, -1, -1)
    keys = occ @ radix
    lowered = np.zeros(occ.shape[::-1])
    raised = np.zeros_like(lowered)
    for j, m_j in enumerate(occ.T):
        src = np.flatnonzero(m_j)
        dst = np.searchsorted(keys, keys[src] - radix[j])
        root = np.sqrt(m_j[src])
        lowered[j, dst] = root * psi[src]
        raised[j, src] = root * psi[dst]
    return lowered, raised


def oracle_sensitivity(config: NetworkConfig) -> float:
    """Brute-force variance of the weighted phase estimate for networks
    within the size rule of `_cutoff` (r <= 0.4; up to d = 6 at r = 0.4).

    Output-quadrature moments are assembled in the Heisenberg picture from
    the split squeezed resource (amplitudes on the photon-number simplex),
    exact coherent moments and vacuum loss ancillas; the responses are the
    analytic C_jj of network.response, and the variance keeps the engine's
    channels and rounding check.
    """
    r = config.r
    psi, occ = _split(_squeezed_vacuum(r, _cutoff(config.d, r)), config.P)
    deficit = 1.0 - np.einsum("i,i->", psi, psi)
    if deficit > ORACLE_NORM_DEFICIT:
        raise TruncationError(f"norm deficit {deficit:.2e} exceeds the budget")
    lowered, raised = _ladders(psi, occ)
    number = np.einsum("ji,ki->jk", lowered, lowered)     # <b_j† b_k>
    pair = np.einsum("ji,ki->jk", raised, lowered)        # <b_j b_k>
    d = config.d
    # Cov(q_bj, q_bk) = <bj† bk> + <bk† bj> + <bj bk> + <bk bj> + delta_jk,
    # every moment real, as the state is
    cov_b = number + number.T + pair + pair.T + np.eye(d)

    eta = config.eta_total
    gain = config.signal_gain
    cos = np.array([math.cos(gain * t / 2.0) for t in config.thetas])
    sin = np.array([math.sin(gain * t / 2.0) for t in config.thetas])

    gamma = eta * np.outer(cos, cos) * cov_b
    gamma[np.diag_indices(d)] += eta * sin**2 + (1.0 - eta)
    x, keep = _kept_weights(config)
    return _estimator_variance(x, keep, gamma)
