"""Entangled interferometer-network model.

Builds the 2d-mode Gaussian output state of d Mach-Zehnder sensors that share
one split squeezed-vacuum resource, and evaluates the moment matrices and the
error-propagation variance

    Delta^2(nu . theta) = nu^T C^{-1} Gamma (C^T)^{-1} nu

where C_ij = d<Q_i>/d(theta_j) and Gamma is the covariance of the measured
output quadratures.

Mode layout inside the engine: modes 0..d-1 carry the split squeezed vacuum
("b" modes, measured ports), modes d..2d-1 the coherent inputs ("a" modes).

Multipass: a K-pass interrogation with multipass coefficient mu amplifies the
variance denominator by mu*K**2, i.e. the measured signal amplitude by
g = sqrt(mu*K**2) (the signal gain).  The engine realizes this by driving the
interferometer rotation with phase g*theta_j.  At the default mu = 1/K the
enhancement equals the pass count.

Loss model: distribution loss eta_dis is applied to both inputs of each
sensor and eta_mzi * eta_m^(2K-1) to the measured output, which makes the
measured-port statistics exactly those of a single lumped transmission
eta = eta_dis * eta_mzi * eta_m^(2K-1) at any working point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian as g
from .errors import (
    ConfigError,
    DarkResponseError,
    FloatRangeError,
    InfeasibleSplitError,
    PrecisionLossError,
)

__all__ = [
    "NetworkConfig",
    "qc_cascade",
    "build_network",
    "response",
    "noise_matrix",
    "active_channels",
    "sensitivity_numeric",
    "sensitivity_separable",
    "closed_form_variance",
    "sql_reference_config",
    "weight_pattern",
]

PROB_TOL = 1e-12
REMAINDER_FLOOR = 1e-15
DARK_THRESHOLD = 1e-12  # relative to the brightest channel's theta = 0 response
# |x^T Gamma x| at or below ROUNDING_FACTOR * d * eps * |x|^T |Gamma| |x| is
# within the rounding error of the quadratic form: no digit is significant
ROUNDING_FACTOR = 4.0
_EPS = float(np.finfo(float).eps)
R_MAX = math.log(sys.float_info.max) / 2.0  # the largest r whose e^{2r} is a float
K_MAX = math.isqrt(int(sys.float_info.max))  # the largest K whose K**2 is a float


def _check_squeezing(r: float):
    if not 0.0 <= r <= R_MAX:
        raise ConfigError("r", f"squeezing strength must lie in [0, {R_MAX!r}], got {r!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """Immutable description of one network of d sensors that share one
    split squeezed-vacuum resource.

    Fields:
        d: number of interferometers.
        K: multipass count, an integer in [1, K_MAX]: K**2 is at most the
            largest float, compared exactly as integers.
        mu: multipass coefficient; None means the default 1/K.
        r: squeezing strength of the shared resource, in [0, R_MAX].
        alphas: d pairs (|alpha_j|, phi_j) of coherent amplitudes/phases.
        thetas: d working-point phases (radians); empty means all zero.
        weights: weight vector nu of the estimated phase combination.
        P: splitting probabilities of the shared resource (sum to 1).
        eta_dis, eta_mzi, eta_m: efficiencies in (0, 1].
    """

    d: int
    r: float = 0.0
    K: int = 1
    mu: float | None = None
    alphas: tuple = ()
    thetas: tuple = ()
    weights: tuple = ()
    P: tuple = ()
    eta_dis: float = 1.0
    eta_mzi: float = 1.0
    eta_m: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "alphas", tuple((float(m), float(p)) for m, p in self.alphas))
        for name in ("thetas", "weights", "P"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if not self.thetas:
            object.__setattr__(self, "thetas", (0.0,) * self.d)
        self.validate()

    def validate(self):
        if self.d < 1:
            raise ConfigError("d", "need at least one interferometer")
        if not (1 <= self.K <= K_MAX and int(self.K) == self.K):
            raise ConfigError("K", "multipass count must be an integer >= 1 "
                                   "whose square is a float")
        if self.mu is not None and not 0.0 < self.mu < math.inf:
            raise ConfigError("mu", "multipass coefficient must be finite and > 0")
        _check_squeezing(self.r)
        if len(self.alphas) != self.d:
            raise ConfigError("alphas", f"need {self.d} (magnitude, phase) pairs")
        if not all(0.0 <= mag < math.inf and math.isfinite(phi)
                   for mag, phi in self.alphas):
            raise ConfigError("alphas", "need finite amplitudes >= 0 and finite phases")
        if len(self.thetas) != self.d:
            raise ConfigError("thetas", f"need {self.d} working-point phases")
        if not all(map(math.isfinite, self.thetas)):
            raise ConfigError("thetas", "working-point phases must be finite")
        if len(self.weights) != self.d:
            raise ConfigError("weights", f"need {self.d} weights")
        if not all(map(math.isfinite, self.weights)):
            raise ConfigError("weights", "weights must be finite")
        if len(self.P) != self.d:
            raise ConfigError("P", f"need {self.d} splitting probabilities")
        if not all(p >= 0 for p in self.P):
            raise ConfigError("P", "splitting probabilities must be >= 0")
        if abs(sum(self.P) - 1.0) > PROB_TOL:
            raise ConfigError("P", f"probabilities sum to {sum(self.P)!r}, not 1")
        for name in ("eta_dis", "eta_mzi", "eta_m"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(name, f"must lie in (0, 1], got {value}")
        if not math.isfinite(self.enhancement):
            raise ConfigError("mu", "effective enhancement mu*K^2 must be finite, "
                                    f"got mu = {self.mu_value!r} and K = {self.K}")

    # -- derived quantities -------------------------------------------------

    @property
    def mu_value(self) -> float:
        return self.mu if self.mu is not None else 1.0 / self.K

    @property
    def enhancement(self) -> float:
        """Effective multipass enhancement of the variance denominator."""
        return self.mu_value * self.K**2

    @property
    def signal_gain(self) -> float:
        """Amplitude gain of the measured phase signal, sqrt(mu*K^2)."""
        return math.sqrt(self.enhancement)

    @property
    def eta_total(self) -> float:
        return self.eta_dis * self.eta_mzi * self.eta_m ** (2 * self.K - 1)

    @property
    def Lambda(self) -> float:
        return 1.0 / self.eta_total - 1.0

    @property
    def n_c(self) -> float:
        return sum(mag * mag for mag, _ in self.alphas)

    @property
    def n_s(self) -> float:
        return math.sinh(self.r) ** 2

    @property
    def n_T(self) -> float:
        return self.n_c + self.n_s

    def with_updates(self, **kwargs) -> "NetworkConfig":
        return replace(self, **kwargs)


def weight_pattern(name: str, d: int) -> tuple:
    """Named weight vectors: 'ave', 'single', 'stag', 'asym' (all 1/d scaled)."""
    if name == "ave":
        signs = [1.0] * d
    elif name == "single":
        return tuple([1.0] + [0.0] * (d - 1))
    elif name == "stag":
        signs = [(-1.0) ** j for j in range(d)]
    elif name == "asym":
        signs = [1.0 if j < d - d // 2 else -1.0 for j in range(d)]
    else:
        raise ConfigError("weights", f"unknown weight pattern {name!r}")
    return tuple(s / d for s in signs)


def qc_cascade(P) -> list:
    """Sequential peel decomposition of a 1-to-d splitting.

    For j = 2..d a beam splitter peels fraction R_j = P_j / (remaining mass)
    off the carrier; the pair ordering (peeled mode, carrier) keeps every
    single-photon amplitude positive, matching the all-positive multinomial
    splitting.  Returns [((mode_i, mode_j), transmissivity), ...], one beam
    splitter each, b_i -> sqrt(T) b_i + sqrt(1 - T) b_j as the reference op
    apply_beam_splitter of tests/reference_ops.py applies it; the carrier is
    mode 0.

    The resulting single-photon output distribution equals P exactly.  P
    must pass NetworkConfig's checks (P_j >= 0, which NaN fails, and a sum
    within PROB_TOL of 1).
    """
    P = np.array(P, dtype=float)
    if not (P >= 0).all():
        raise InfeasibleSplitError("probabilities must be >= 0")
    total = sum(P.tolist())
    if abs(total - 1.0) > PROB_TOL:
        raise InfeasibleSplitError(f"probabilities sum to {total!r}, not 1")
    return [((j, 0), t) for j, t in enumerate(_transmissivities(P).tolist(), 1)]


def _transmissivities(P) -> np.ndarray:
    """The d - 1 transmissivities T_j = 1 - R_j of `qc_cascade`, j = 1..d-1,
    of splitting probabilities P that pass NetworkConfig's checks.

    The remaining mass before output j is 1 - P_1 - ... - P_{j-1}, subtracted
    in that order (np.subtract.accumulate runs left to right).  Below
    REMAINDER_FLOOR it counts as empty, and an output that still asks for
    mass is infeasible."""
    P = np.array(P, dtype=float)
    peeled = P[1:]
    P[0] = 1.0  # the mass before output 1 (P_0 itself is not read)
    remaining = np.subtract.accumulate(P[:-1])
    starved = (remaining < REMAINDER_FLOOR) & (peeled > 0)
    if starved.any():
        j = int(starved.argmax()) + 1
        raise InfeasibleSplitError(
            f"no probability mass left for output {j} (P_j = {float(P[j])})"
        )
    # an empty remainder now faces P_j = 0, so the floor gives it R_j = 0;
    # R_j >= 0, and rounding can put it above 1
    reflectivity = peeled / np.maximum(remaining, REMAINDER_FLOOR)
    return 1.0 - np.minimum(reflectivity, 1.0)


def build_network(config: NetworkConfig) -> g.GaussianState:
    """Assemble the network and return its 2d-mode output state.

    Pipeline: squeeze the carrier, split it over the d sensor inputs,
    distribute (loss eta_dis on both inputs of each sensor), displace the
    coherent inputs, interfere with phase g*theta_j, and apply the readout
    loss eta_mzi * eta_m^(2K-1) to each measured port.

    The squeezed, split carrier is written straight into one zeroed 4d x 3
    row matrix [mean | U], as the squeezer and the cascade of
    tests/reference_ops.py leave it: zero mean, U's columns e_q and e_p of
    the carrier times each output's cascade amplitude, and
    s = (expm1(-2r), expm1(2r)), finite since the config's r <= R_MAX.
    """
    d = config.d
    weights = np.array([math.expm1(-2.0 * config.r), math.expm1(2.0 * config.r)])
    # [b modes, a modes] x node x (q, p) x (mean, columns of U); the ops and
    # the array steps below update it in place
    rows = np.zeros((2, d, 2, 3))
    # the cascade on the carrier and d - 1 vacuum inputs hands mode j the
    # carrier's rows times sqrt(1 - T_j) and the carrier left before it
    t = _transmissivities(config.P)  # config.P passed the config's checks
    carrier = np.cumprod(np.concatenate(([1.0], np.sqrt(t))))
    rows[0, :, 0, 1] = rows[0, :, 1, 2] = np.concatenate(
        (carrier[-1:], np.sqrt(1.0 - t) * carrier[:-1]))
    state = g.GaussianState(2 * d, rows.reshape(4 * d, 3), weights)
    # cos and sin from math, as the ops take them: np.cos may differ in the
    # last bit; added to the zero mean, which turns a -0.0 into +0.0
    rows[1, :, :, 0] += [(2.0 * mag * math.cos(phi), 2.0 * mag * math.sin(phi))
                         for mag, phi in config.alphas]
    for j in range(d):
        g.apply_loss(state, j, config.eta_dis)
        g.apply_loss(state, d + j, config.eta_dis)
    gain = config.signal_gain
    half = [gain * theta / 2.0 for theta in config.thetas]
    c = np.array([math.cos(x) for x in half])
    s = np.array([math.sin(x) for x in half])
    _interfere(rows, c[:, None, None], s[:, None, None])
    eta_out = config.eta_mzi * config.eta_m ** (2 * config.K - 1)
    for j in range(d):
        g.apply_loss(state, j, eta_out)
    return state


def _interfere(rows, c, s):
    """The interferometer of every node, as the reference op apply_mzi of
    tests/reference_ops.py applies it to one: a' = c a - s b, b' = s a + c b,
    with b the measured rows[0] and a the coherent rows[1].  Here one of a
    and b is exactly zero in every entry (the b-entries of the mean column,
    the a-rows of U), so each entry is one rounded product, as in the op;
    + 0.0 turns an exact -0.0 into the +0.0 the op's matrix product sums
    to."""
    b, a = rows
    measured = s * a + c * b
    rows[1] = c * a - s * b
    rows[0] = measured
    rows += 0.0


def _response_scale(config: NetworkConfig) -> float:
    """sqrt(eta) * g, the working-point response of a unit amplitude."""
    return math.sqrt(config.eta_total) * config.signal_gain


def response(config: NetworkConfig) -> np.ndarray:
    """Responses C_jj = sqrt(eta) * g * |alpha_j| cos(phi_j) cos(g theta_j / 2),
    one per channel: the diagonal of the response matrix C, which has no
    other entry.

    This is the exact derivative of the engine's measured means with respect
    to theta_j (cross-validated against finite differences in the tests).
    """
    scale = _response_scale(config)
    gain = config.signal_gain
    return np.array([
        scale * mag * math.cos(phi) * math.cos(gain * theta / 2.0)
        for (mag, phi), theta in zip(config.alphas, config.thetas)
    ])


def noise_matrix(config: NetworkConfig) -> np.ndarray:
    """Covariance Gamma of the measured output quadratures, from the engine.

    Valid at any working point; at theta = 0 and phi in {0, pi} it equals
    eta sqrt(P_j P_k) (e^{-2r} - 1) + delta_jk.  Away from theta = 0 the
    loss contribution here is theta-independent (independent vacuum per loss
    channel); a single shared loss vacuum would add a sin(theta_j) term of
    convention-dependent sign, which only matters off the working point.
    """
    state = build_network(config)
    # the q rows of the measured modes 0..d-1
    return g._identity_plus(state.U[:2 * config.d:2], state.s)


def active_channels(config: NetworkConfig, response) -> np.ndarray:
    """Keep mask of the channels a variance inverts, from the responses C_jj.

    The one dark-channel rule of every engine: a channel is dark when
    |C_jj| <= DARK_THRESHOLD times the theta = 0 response of the brightest
    channel, so a fully dark channel is caught even when d = 1.  Dark
    channels with zero weight in `config.weights` are dropped; a weighted
    dark channel raises DarkResponseError."""
    full_response = _response_scale(config) * max(mag for mag, _ in config.alphas)
    scale = full_response if full_response > 0 else 1.0
    dark = np.abs(response) <= DARK_THRESHOLD * scale
    if dark.any():
        bad = np.flatnonzero(dark & (np.asarray(config.weights, dtype=float) != 0))
        if bad.size:
            raise DarkResponseError(bad.tolist())
    return ~dark


def _kept_weights(config: NetworkConfig):
    """(x, keep): the keep mask of `active_channels` and the estimator
    weights x_j = nu_j / C_jj over the kept channels, the one rule of the
    engine's and the oracle's variance and of the trace estimator; a
    weighted dark channel raises DarkResponseError."""
    c_diag = response(config)
    keep = active_channels(config, c_diag)
    return np.asarray(config.weights, dtype=float)[keep] / c_diag[keep], keep


def sensitivity_numeric(config: NetworkConfig) -> float:
    """Error-propagation variance nu^T C^{-1} Gamma (C^T)^{-1} nu (rad^2).

    C is diagonal, so the inversion is a division.  Channels with zero
    weight and zero response are excluded; a weighted channel without
    response raises DarkResponseError.  A variance that cancels down to its
    own rounding error (extreme squeezing, where Gamma's squeezed term sits
    far below eps of its vacuum term) raises PrecisionLossError.
    """
    x, keep = _kept_weights(config)
    return _estimator_variance(x, keep, noise_matrix(config))


def _estimator_variance(x, keep, gamma) -> float:
    """x^T Gamma x over the kept channels of the full d x d `gamma`, the one
    kept-channel rule of the engine and the oracle, rounding-checked against
    |x|^T |Gamma| |x| by `_significant`.  `gamma` is consumed: |Gamma| is
    taken in its place, so a d x d array is the only one held.  A scale out
    of float range raises FloatRangeError: no rounding bound is left."""
    if not keep.all():
        gamma = gamma[np.ix_(keep, keep)]
    with np.errstate(over="ignore", invalid="ignore"):
        variance = float(x @ gamma @ x)
        x_abs = np.abs(x)
        scale = float(x_abs @ np.abs(gamma, out=gamma) @ x_abs)
    if not (scale < math.inf and abs(variance) < math.inf):
        raise FloatRangeError(f"variance_numeric: rounding scale {scale!r} out of float range")
    return _significant(variance, scale, x.size)


def _significant(variance: float, scale: float, n: int) -> float:
    """`variance`, a sum over n channels of terms whose magnitudes sum to
    `scale`; PrecisionLossError when it is within the rounding error of that
    sum, so no digit of it is significant."""
    if abs(variance) <= ROUNDING_FACTOR * n * _EPS * scale:
        raise PrecisionLossError(
            f"variance {variance:.3g} is rounding noise of terms of size {scale:.3g}")
    return variance


def _working_point_response(config: NetworkConfig) -> np.ndarray:
    """|C_jj| at theta = 0 and phi_j in {0, pi}, the operating point of the
    closed forms: sqrt(eta) * g * |alpha_j|."""
    return _response_scale(config) * np.array([mag for mag, _ in config.alphas])


def sensitivity_separable(config: NetworkConfig, rs) -> float:
    """Variance of d independent sensors, sensor j squeezed by its own
    r_j = rs[j] in place of the shared resource:

        sum_j nu_j^2 (e^{-2 r_j} + Lambda) / |alpha_j|^2 / (mu K^2)

    with `config`'s amplitudes, weights, loss model and multipass
    enhancement; its shared r and split P play no part.
    """
    nu = np.asarray(config.weights, dtype=float)
    active_channels(config, _working_point_response(config))
    total = 0.0
    for j in range(config.d):
        if nu[j] == 0.0:
            continue
        mag = config.alphas[j][0]
        square = mag * mag  # 0 if it underflows (the term is inf), inf if it overflows (0)
        total += (nu[j] ** 2 * (math.exp(-2.0 * rs[j]) + config.Lambda) / square
                  if square else math.inf)
    return total / config.enhancement


def closed_form_variance(config: NetworkConfig) -> float:
    """Working-point variance for an arbitrary allocation:

        [ (e^{-2r} - 1) (sum_j nu_j sqrt(P_j) / (|a_j| cos phi_j))^2
          + sum_j nu_j^2 / (eta |a_j|^2) ] / (mu K^2)

    Requires theta_j = 0 and phi_j in {0, pi}; used as the independent
    cross-check of the numeric engine.  Like the engine, it raises
    PrecisionLossError where the squeezed and vacuum terms cancel to
    rounding noise.
    """
    nu = np.asarray(config.weights, dtype=float)
    if any(abs(t) > 1e-12 for t in config.thetas):
        raise ConfigError("thetas", "closed form is valid at theta = 0 only")
    active_channels(config, _working_point_response(config))
    varq = math.exp(-2.0 * config.r)
    cross = 0.0
    direct = 0.0
    for j in range(config.d):
        if nu[j] == 0.0:
            continue
        mag, phi = config.alphas[j]
        sign = math.cos(phi)
        if abs(abs(sign) - 1.0) > 1e-12:
            raise ConfigError("alphas", "closed form needs phi_j in {0, pi}")
        cross += nu[j] * math.sqrt(config.P[j]) / (mag * sign)
        direct += nu[j] ** 2 / (config.eta_total * (mag * mag))
    variance = (varq - 1.0) * (cross * cross) + direct
    scale = abs(varq - 1.0) * (cross * cross) + direct
    return _significant(variance, scale, np.count_nonzero(nu)) / config.enhancement


def sql_reference_config(config: NetworkConfig) -> NetworkConfig:
    """Ideal shot-noise reference: same coherent budget, no squeezing,
    lossless, single pass."""
    return config.with_updates(
        r=0.0,
        K=1,
        mu=None,
        eta_dis=1.0,
        eta_mzi=1.0,
        eta_m=1.0,
        thetas=(0.0,) * config.d,
    )
