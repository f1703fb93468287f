"""Phase-space engine for multimode Gaussian states.

Quadrature convention: q = b + b†, p = (b − b†)/i, stored interleaved as
(q1, p1, ..., qn, pn).  With this normalization the vacuum has unit variance
in every quadrature, so the vacuum covariance matrix is the identity and a
squeezed vacuum has Var(q) = e^{−2r}, Var(p) = e^{+2r}.

A state holds its covariance in factored form, V = I + U diag(s) U^T, with
one column of U per squeezed quadrature, and stores its mean and U side by
side as one 2n x (1 + k) row matrix [mean | U].  Every linear op of the
engine is a row map, mean -> S mean and U -> S U (Weedbrook et al., RMP 84, 621 (2012)),
so it acts on that one matrix and keeps the factored form exactly: pure loss
maps V -> L V L + (1 − eta) I_m = I + (L U) diag(s) (L U)^T, a scale of the
mode's two rows, and a squeezer on a vacuum mode leaves it zero mean and
the columns e_q, e_p of U with s = (expm1(−2r), expm1(2r)).  A passive
orthogonal map O (a beam splitter or an interferometer) maps the rows by O,
and a displacement adds to the mean column alone.  ``build_network`` writes
the squeezed, split carrier straight into its row matrix and applies the
displacements and interferometers as array operations over all nodes; the
tests keep the vacuum, the squeezer and the two-mode ops as the reference it
is checked against (``tests/reference_ops.py``).  So a network with one
squeezer is a 2n x 3 row matrix, and no 2n x 2n matrix is ever stored;
``cov`` materializes it on read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianState",
    "apply_loss",
]


@dataclass
class GaussianState:
    """Mean quadrature vector and factored covariance of an n-mode state.

    The covariance is V = I + U diag(s) U^T.  The mean and U are the columns
    of one row matrix, since every op maps them by the same rows; ``mean``
    and ``U`` are views into it, so writing to them writes to the state.

    Attributes:
        n_modes: number of optical modes.
        rows: 2n x (1 + k) matrix [mean | U], rows ordered (q1, p1, ..., qn, pn).
        s: length k weights of the columns of U.
    """

    n_modes: int
    rows: np.ndarray
    s: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        """Length 2n mean vector, a view of column 0 of ``rows``."""
        return self.rows[:, 0]

    @property
    def U(self) -> np.ndarray:
        """2n x k covariance factor, a view of the other columns of ``rows``."""
        return self.rows[:, 1:]

    @property
    def cov(self) -> np.ndarray:
        """The 2n x 2n covariance matrix, materialized on every read."""
        return _identity_plus(self.U, self.s)


def _identity_plus(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """I + rows diag(s) rows^T, built in the one array it returns."""
    out = (rows * s) @ rows.T
    out.reshape(-1)[:: len(rows) + 1] += 1.0
    return out


def apply_loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure-loss channel of transmission eta on one mode of `state`, applied
    where the state stands; returns that state.

    Mean scales by sqrt(eta); the mode's covariance block maps to
    eta*V + (1-eta)*I and cross covariances scale by sqrt(eta).  Since
    L I L + (1-eta) I_m = I, this is the sqrt(eta) scale of the mode's two
    rows of [mean | U].
    """
    if not 0 <= mode < state.n_modes:
        raise IndexError(f"mode {mode} out of range for {state.n_modes}-mode state")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    # q and p of a mode are adjacent rows; scale that view where it stands
    block = state.rows[2 * mode: 2 * mode + 2]
    block *= math.sqrt(eta)
    return state
