"""Homodyne time-series synthesis and joint spectral analysis.

Mimics the gated measurement chain of the experiment: a sinusoidal phase
drive is switched on inside a gate window of each acquisition cycle, the
per-channel noise floor carries the cross-channel covariance of the network,
and band powers around the drive frequency are compared between the gated
(signal) and idle (noise) portions.

The dB-below-SQL reference is the ideal lossless coherent single-pass run
with the same photon budget; both sides of the ratio go through the same
band-power kernel and calibration, so the spectral calibration cancels.

A `TraceSet` holds per-channel traces with their one `TraceParams`, whose
n_cycles is the samples' whole cycles.  A run is made and read by two
rules.  The fill rule (`_cycle_filler`) writes any span [a, b) of one
cycle k: each channel's Philox stream draws its next b - a normals into its
row, the calling thread drawing one share of the rows and each of the
run's min(d, cores) - 1 plain helper threads another, one queued task per
helper (each row depends only on its own stream, so the bytes do not
depend on the thread count), the noise factor mixes the rows in place by
column blocks, and the drive is added over the span's overlap with the
cycle's gate span.
`synthesize` applies it to each whole cycle of its d x n output and
allocates nothing else of that size.  The reading rule (`_read_pieces`)
walks a run's pieces in time order: each gated or idle span's blocks of
whole analysis segments, then the unread tail after its last full segment.
It reads one Hann-weighted DFT bin of each segment of a block of the joint
estimator y = sum_j nu_j x_j / C_jj, and averages those band powers over
the gated and over the idle segments of the run as in a Welch periodogram
(Welch, IEEE Trans. Audio Electroacoust. 15, 70 (1967)).  It forms y one
block at a time in channel order and reads its bins by einsum, so it runs
no BLAS and its bits depend neither on the BLAS kernel or thread count nor
on the blocks; it never builds the series: besides the samples it
allocates about one block (at most `_ANALYSIS_BLOCK` = 16 384 samples) and
one band power per segment.
`joint_noise_analysis` reads the pieces as views of its traces, and
`synthesize_and_analyse` fills each piece into one reused buffer of one
analysis block and reads it before drawing the next, so it returns the
analysis of the synthesized run, bit for bit, holding one block of samples
(0.5 MB at d = 4, inside a 2 MiB L2 cache).
The joint noise is white with variance w^T Gamma w (w_j = nu_j / C_jj),
which is the engine's `sensitivity_numeric`, and the segments are disjoint,
so each window's summed bin power, with the gated tone's share of it, is a
sum of two scaled noncentral chi-square variates: `simulate_joint_noise`
draws that sum directly, two gamma and two normal variates per window, and
never builds the series or its segments.  It takes the variance from its
caller (a scan row's `variance_numeric`), so a scan point builds the
network once.  The reference run has r = 0, no loss and theta = 0, so its
Gamma is exactly the identity and its variance is x . x over the kept
channels, with no network build; both paths draw its idle power the same
way (`_reference_power`).  The gate is one rule in whole samples: the cycle
and both gate edges are whole numbers of samples (`_whole_samples`, which
`TraceParams` applies), and each cycle's gate span is [k N + lo, k N + hi)
(`_window_spans`).  The drive fills exactly those spans and the analysis
reads its gated segments from them and its idle segments from outside them,
so a gated segment holds the drive throughout and an idle segment holds
none of it.  The spans, the segment layout (`_segment_layout`), its check
(`_check_analysis`: the rbw, and one segment in a gated and in an idle
span) and the kernel (`_bin_kernel`) have one definition each, shared by
both paths and, for the layout and its check, by the scenario load check.

Two caches hold what depends only on the timing and rbw: `_bin_kernel`
(the last four kernels, shared by the blocks of an analysis) and
`_segment_plan` (the last two plans: the kernel norm, the eigenvalues of
K^T K and each window's segment count and unit-tone energy along their
eigenvectors; a few numbers, whatever the segment count), so a point and
its reference run, and every point of a scan, share one plan.  The cached
kernel is read-only, a refused rbw or layout raises on every call, and a
plan is built by the same operations as a per-call build, so the bits do
not depend on whether it was cached.

Trace file layout (little endian, version 2): magic "MZTR", version u32,
d u32, sample_rate f64, cycle f64, gate 2*f64, drive_freq f64, seed u64
(60 bytes), then channel-major f64 samples.  The header holds the whole
timing except the cycle count, which is the payload's whole cycles.
"""

from __future__ import annotations

import functools
import math
import os
import queue
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import laws
from .errors import AnalysisError, ConfigError, RegularizationError
from .network import (
    NetworkConfig,
    _kept_weights,
    noise_matrix,
    response,
    sql_reference_config,
)

__all__ = [
    "TraceParams",
    "TraceSet",
    "synthesize",
    "segment_band_powers",
    "JointNoiseResult",
    "joint_noise_analysis",
    "synthesize_and_analyse",
    "simulate_joint_noise",
    "write_trace",
    "read_trace",
]

MAGIC = b"MZTR"
VERSION = 2

# experimental timing defaults: 80 ms cycle, drive gated 30-50 ms, 4 MHz tone
DEFAULT_SAMPLE_RATE = 50e6
DEFAULT_CYCLE = 80e-3
DEFAULT_GATE = (30e-3, 50e-3)
DEFAULT_DRIVE = 4e6
# analysis bandwidth: segments of sample_rate/rbw samples
DEFAULT_RBW = 100e3

# Hann band-power calibration: a unit-variance white channel reads
# rbw/(sample_rate/2) in linear units (0 dB reference after normalization),
# and a sinusoid of amplitude A at a bin center reads A^2/3 (the factor 2/3
# vs A^2/2 is the Hann equivalent-noise-bandwidth of 1.5 bins).
SINE_POWER_FACTOR = 3.0

# columns per block when `synthesize` mixes its channel rows in place
_MIX_BLOCK = 8192

# joint samples per analysis block, rounded down to whole segments: the
# samples `synthesize_and_analyse` holds per channel (16 200 at verify's
# timing, 0.5 MB at d = 4; the smallest power of two from 2^12 whose
# verify --full ran no slower than with 2^16)
_ANALYSIS_BLOCK = 1 << 14


@dataclass(frozen=True)
class TraceParams:
    sample_rate: float = DEFAULT_SAMPLE_RATE
    cycle: float = DEFAULT_CYCLE
    gate: tuple = DEFAULT_GATE
    n_cycles: int = 1
    drive_freq: float = DEFAULT_DRIVE

    def __post_init__(self):
        """The one check of a timing, for the scenario loader, `read_trace`
        and Python callers: each refusal is a ValueError naming its field."""
        object.__setattr__(self, "gate", tuple(float(g) for g in self.gate))
        for name in ("sample_rate", "cycle", "drive_freq"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not (isinstance(self.n_cycles, (int, np.integer)) and self.n_cycles >= 1):
            raise ValueError(f"n_cycles must be an integer >= 1, got {self.n_cycles!r}")
        if self.sample_rate < 5.0 * self.drive_freq:
            raise ValueError("sample_rate must be >= 5x the drive frequency")
        n = _cycle_samples(self)
        lo, hi = (_whole_samples("gate", edge, self.sample_rate) for edge in self.gate)
        if not 0 <= lo < hi <= n:
            raise ValueError("gate window must fit inside one cycle")


@dataclass
class TraceSet:
    """Per-channel traces and their one timing record: `samples` holds
    `params.n_cycles` whole cycles, and possibly part of one more."""
    samples: np.ndarray      # shape (d, n_samples)
    params: TraceParams
    seed: int

    def __post_init__(self):
        whole = self.n_samples // _cycle_samples(self.params)
        if whole != self.params.n_cycles:
            raise ValueError(f"the samples hold {whole} whole cycles but "
                             f"params.n_cycles is {self.params.n_cycles}")

    @property
    def d(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


def _whole_samples(name, seconds, sample_rate) -> int:
    """Samples in `seconds`, seconds * sample_rate.  Raises ValueError naming
    `name` unless that product is finite and within four ulps of a whole
    number, so the cycle and the gate edges fall on samples: the drive, the
    analysis windows and the cycle count of a file all repeat every cycle
    on the same sample."""
    n = seconds * sample_rate
    if not (math.isfinite(n) and abs(n - round(n)) <= 4.0 * math.ulp(n)):
        raise ValueError(f"{name} must be a whole number of samples, got "
                         f"{name} * sample_rate = {n!r}")
    return round(n)


def _channel_rng(seed: int, channel: int) -> np.random.Generator:
    # one counter-based Philox stream per channel: a channel's draws depend
    # only on the seed and its index, not on d or on the other channels.
    # The key and the trace header's seed field are both u64.
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", f"must lie in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, channel]))


def _noise_factor(gamma: np.ndarray) -> np.ndarray:
    sym = 0.5 * (gamma + gamma.T)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        try:
            vals, vecs = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:
            raise RegularizationError(f"noise matrix eigh failed: {exc}") from exc
        if vals.min() < -1e-10 * max(vals.max(), 1.0):
            raise RegularizationError(
                f"noise matrix has negative eigenvalue {vals.min():.3e}"
            )
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def _reference_seed(seed: int) -> int:
    return (seed ^ 0x9E3779B97F4A7C15) & (2**64 - 1)


def _cycle_samples(params: TraceParams) -> int:
    """N, the samples in one cycle."""
    return _whole_samples("cycle", params.cycle, params.sample_rate)


def _n_samples(params: TraceParams) -> int:
    return _cycle_samples(params) * params.n_cycles


@contextmanager
def _draw_pool(d: int):
    """The helper threads of one run's draws: yields one (tasks, replies)
    pair of queues per helper, min(d, cpus) - 1 plain threads, none at
    d = 1 or on one CPU, since the calling thread draws a share itself
    (`_draw_rows`).  cpus counts the CPUs this process may run on (its
    affinity, where the platform has one), not the machine's.  Each helper
    draws the tasks it takes until it takes None, which it is sent when the
    run ends; the run then joins it."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    pool = [(queue.SimpleQueue(), queue.SimpleQueue()) for _ in range(min(d, cpus) - 1)]
    started = []
    try:
        for pair in pool:
            helper = threading.Thread(target=_draw_helper, args=pair, daemon=True)
            helper.start()
            started.append(helper)
        yield pool
    finally:
        for tasks, _ in pool:
            tasks.put(None)
        for helper in started:
            helper.join()


def _draw_helper(tasks, replies):
    """Draw each (rngs, rows) task of `tasks` until None, replying with the
    task's error or None."""
    for rngs, rows in iter(tasks.get, None):
        try:
            _draw_share(rngs, rows)
        except BaseException as exc:  # handed to the run's thread, which raises it
            replies.put(exc)
        else:
            replies.put(None)


def _draw_share(rngs, rows):
    for rng, row in zip(rngs, rows):
        rng.standard_normal(out=row)


def _draw_rows(rngs, samples: np.ndarray, pool):
    """Fill row j of `samples` with standard normals from rngs[j].  With the
    helpers' queues `pool` from `_draw_pool` and w = helpers + 1, helper i
    draws rows i::w as one task and the calling thread draws rows 0::w, so a
    call costs one hand-off per helper, not one per row.
    `standard_normal(out=...)` releases the GIL while it fills a row, and
    each stream writes only its own row, so the bytes do not depend on the
    thread count.  A row's error is raised here, after every helper has
    finished, the helpers' in helper order."""
    w = len(pool) + 1
    for i, (tasks, _) in enumerate(pool, 1):
        tasks.put((rngs[i::w], samples[i::w]))
    try:
        _draw_share(rngs[::w], samples[::w])
    finally:
        errors = [replies.get() for _, replies in pool]  # waits for each helper
    for error in filter(None, errors):
        raise error


def _cycle_filler(config: NetworkConfig, delta_thetas, params: TraceParams,
                  seed: int, pool):
    """The fill rule of the run of `seed`: returns fill(out, a, b), which
    writes the samples [a, b) of the run, a span inside one cycle, into the
    (d, b - a) array `out` and returns it, for consecutive spans from a = 0
    on (each channel's stream continues where the last span stopped).  The
    noise factor, the streams and the drive amplitudes are set up here, so a
    bad config, seed or delta raises at this call.

    fill draws each channel's next b - a normals into its row, shared
    between the calling thread and the helpers of `pool` (`_draw_rows`),
    mixes the rows in place by the noise factor `_MIX_BLOCK`
    columns at a time from the span's start, the last block taking one more
    column rather than leaving one alone, and adds the drive over the span's
    overlap with its cycle's gate span [k N + lo, k N + hi)
    (`_window_spans`).  However a run is cut into spans of two or more
    columns, each element gets the same products and sums as from the whole
    product factor @ z over the run plus the outer product of the amplitudes
    and the gated tone: a stream drawn in pieces draws the same normals, a
    column's mix does not depend on the block of two or more columns it is
    mixed in, and the tone is elementwise.  A span of one column is mixed by
    gemv, whose sums differ in the last bits from gemm's for d >= 4."""
    d = config.d
    delta = np.broadcast_to(np.asarray(delta_thetas, dtype=float), (d,))
    factor = _noise_factor(noise_matrix(config))
    rngs = [_channel_rng(seed, j) for j in range(d)]
    amps = response(config) * delta
    driven = bool(np.any(amps != 0.0))
    n = _cycle_samples(params)
    (lo, hi), *_ = _window_spans(params)
    omega = 2.0 * math.pi * params.drive_freq

    def fill(out, a, b):
        _draw_rows(rngs, out, pool)
        width = b - a
        start = 0
        while start < width:
            stop = width if width - start <= _MIX_BLOCK + 1 else start + _MIX_BLOCK
            block = out[:, start:stop]
            block[...] = factor @ block
            start = stop
        cycle = a - a % n
        on, off = max(a, cycle + lo), min(b, cycle + hi)
        if driven and on < off:
            tone = np.arange(on, off) / params.sample_rate
            tone *= omega
            np.sin(tone, out=tone)
            for j in range(d):
                out[j, on - a:off - a] += amps[j] * tone
        return out

    return fill


def synthesize(config: NetworkConfig, delta_thetas, params: TraceParams,
               seed: int) -> TraceSet:
    """Gaussian noise floor with the network's cross-covariance plus a gated
    sinusoidal phase drive of per-channel amplitude C_jj * delta_theta_j.

    delta_thetas are phase amplitudes in radians (scalar or one per channel).
    Deterministic for a given seed.

    Allocates the d x n output and nothing else of that size, and fills it
    one whole cycle at a time by the fill rule (`_cycle_filler`), so for
    cycles of more than one sample each element gets the same products and
    sums as from the whole product factor @ z plus the outer product of the
    amplitudes and the gated tone, whatever the worker count of the draws.
    `synthesize_and_analyse` analyses the same run without holding it.
    """
    n = _cycle_samples(params)
    with _draw_pool(config.d) as pool:
        fill = _cycle_filler(config, delta_thetas, params, seed, pool)
        samples = np.empty((config.d, _n_samples(params)))
        for a in range(0, samples.shape[1], n):
            fill(samples[:, a:a + n], a, a + n)
    return TraceSet(samples, params, int(seed))


def _hann(length: int) -> np.ndarray:
    # periodic Hann: sum w = L/2 and sum w^2 = 3L/8 exactly
    n = np.arange(length)
    return 0.5 * (1.0 - np.cos(2.0 * math.pi * n / length))


def _check_rbw(sample_rate, center, rbw) -> int:
    """The analysis segment length round(sample_rate/rbw).  Raises
    AnalysisError unless 0 < rbw <= sample_rate/4 and the band around
    `center` stays below Nyquist."""
    if not rbw > 0.0:
        raise AnalysisError(f"rbw must be > 0, got {rbw!r}")
    if rbw > sample_rate / 4.0:
        raise AnalysisError("rbw must be <= sample_rate/4")
    if center + rbw / 2.0 >= sample_rate / 2.0:
        raise AnalysisError("band extends past Nyquist")
    return int(round(sample_rate / rbw))


@functools.lru_cache(maxsize=4)
def _bin_kernel(sample_rate, center, rbw):
    """The (length x 2) kernel [w cos, -w sin] of the Hann-weighted DFT bin at
    `center`, length round(sample_rate/rbw), and the band-power norm
    sample_rate * sum(w^2).  Raises AnalysisError for an rbw that
    `_check_rbw` refuses.

    Memoized, so the blocks of an analysis share one kernel; the cached
    kernel is read-only, and a refused rbw raises on every call."""
    length = _check_rbw(sample_rate, center, rbw)
    window = _hann(length)
    bin_index = int(round(center / sample_rate * length))
    # exp(-2 pi i k n / L) as real and imaginary columns; k n is reduced
    # mod L first so the phase stays exact for long segments
    phase = 2.0 * math.pi * (bin_index * np.arange(length) % length) / length
    kernel = np.stack((window * np.cos(phase), -window * np.sin(phase)), axis=1)
    kernel.flags.writeable = False
    return kernel, sample_rate * np.sum(window**2)


def _band_powers(parts, norm, rbw):
    """Linear band power of each row of kernel coefficients: the one-sided
    PSD at the bin, times rbw."""
    return 2.0 * (parts[:, 0] ** 2 + parts[:, 1] ** 2) / norm * rbw


def _segments_per_block(length: int) -> int:
    """Segments of `length` samples per analysis block: the whole segments
    in `_ANALYSIS_BLOCK` samples, at least one."""
    return max(_ANALYSIS_BLOCK // length, 1)


def segment_band_powers(series, sample_rate, center, rbw):
    """Per-segment linear band power at `center` from Hann periodograms of
    length round(sample_rate/rbw).  Calibrated so unit-variance white noise
    averages to rbw/(sample_rate/2).

    Only the bin at `center` is read, so each segment takes a single-bin
    Hann-weighted DFT (Goertzel, Am. Math. Monthly 65, 34 (1958)) in place
    of a full FFT.  Every bin is read by one einsum (no BLAS) of the
    contiguous series against the kernel's contiguous transpose (einsum's
    sum order follows the operands' layout), so a segment's bits depend
    neither on the BLAS kernel nor on the segments read with it."""
    series = np.ascontiguousarray(series, dtype=float)
    kernel, norm = _bin_kernel(sample_rate, center, rbw)
    length = kernel.shape[0]
    if series.size < length:
        raise AnalysisError("analysis window longer than the trace")
    segments = series[: series.size // length * length].reshape(-1, length)
    parts = np.einsum("sn,kn->sk", segments, np.ascontiguousarray(kernel.T))
    return _band_powers(parts, norm, rbw)


def _window_spans(params: TraceParams, invert=False):
    """The gate span [k N + lo, k N + hi) of each cycle k < params.n_cycles
    (or, with invert, the two idle spans [k N, k N + lo) and
    [k N + hi, (k + 1) N) around it), in time order; N, lo and hi are the
    cycle and the gate edges in whole samples (`_whole_samples`).

    The one gate rule: `synthesize` drives exactly the gate spans, and the
    analysis reads the full segments of round(sample_rate/rbw) samples from
    each span's start."""
    n = _cycle_samples(params)
    lo, hi = (_whole_samples("gate", edge, params.sample_rate) for edge in params.gate)
    spans = [(0, lo), (hi, n)] if invert else [(lo, hi)]
    return [(k * n + a, k * n + b) for k in range(params.n_cycles) for a, b in spans]


def _segment_layout(params: TraceParams, length, invert):
    """(start, count) of the full analysis segments of `length` samples from
    the start of each span of `_window_spans` that holds one, in time order
    (empty when no span holds one): the one segment layout of both paths and
    of the load check."""
    return [(a, (b - a) // length)
            for a, b in _window_spans(params, invert)
            if b - a >= length]


def _check_analysis(params: TraceParams, rbw) -> int:
    """The analysis segment length: the one check of an analysis's rbw and
    timing, for both paths and the load check.  Raises AnalysisError unless
    `_check_rbw` accepts rbw and one segment fits in a gated span and in an
    idle span."""
    length = _check_rbw(params.sample_rate, params.drive_freq, rbw)
    for invert, window in ((False, "gated"), (True, "idle")):
        if not _segment_layout(params, length, invert):
            raise AnalysisError(f"no complete analysis segment ({length} samples) "
                                f"in the {window} window")
    return length


def _read_pieces(weights, piece, params: TraceParams, rbw):
    """(signal, noise): the mean band power of the joint series
    y = sum_j weights_j x_j over the gated and over the idle analysis
    segments of a run, read in one walk over its pieces in time order.

    The pieces of each span of `_window_spans`, gated or idle, are its
    blocks of whole segments from its start, `_segments_per_block` segments
    each but the last, and then the unread tail after its last full segment,
    if any; a cycle's spans are taken in time order, so the pieces tile the
    run.  piece(a, b) returns the (d, b - a) samples [a, b) of the run; it
    is called for every piece in turn, tails included, and each block is
    read before the next call, so a caller may refill one buffer.  y is
    formed per block in channel order with einsum (no BLAS, so no BLAS
    thread) and its bins are read by `segment_band_powers`: the series is
    never built, and each window's band powers are averaged in time order.
    Raises AnalysisError, before asking for a piece, for a refused rbw or a
    window with no segment."""
    length = _check_analysis(params, rbw)
    step = _segments_per_block(length) * length
    spans = sorted((a, b, invert) for invert in (False, True)
                   for a, b in _window_spans(params, invert))
    powers = ([], [])
    for a, b, invert in spans:
        stop = a + (b - a) // length * length
        for start in range(a, stop, step):
            block = piece(start, min(start + step, stop))
            powers[invert].append(segment_band_powers(
                np.einsum("j,jn->n", weights, block), params.sample_rate,
                params.drive_freq, rbw))
        if stop < b:
            piece(stop, b)
    return tuple(float(np.concatenate(window).mean()) for window in powers)


@dataclass
class JointNoiseResult:
    db_below_sql: float
    snr_db: float
    delta_theta_hat: float
    noise_power: float       # linear, joint estimator units
    signal_power: float
    reference_power: float


def _joint_weights(config: NetworkConfig) -> np.ndarray:
    """Estimator weights w_j = nu_j / C_jj, zero on unweighted dark channels;
    a weighted dark channel raises DarkResponseError."""
    x, keep = _kept_weights(config)
    w = np.zeros(config.d)
    w[keep] = x
    return w


def _joint_result(config: NetworkConfig, params: TraceParams, seed: int, rbw,
                  signal, noise) -> JointNoiseResult:
    """dB below the SQL, SNR and drive estimate from the joint estimator's
    mean band powers in the gated (signal) and idle (noise) windows of the
    run of `seed` and the idle power of its reference run
    (`_reference_power`); a window mean outside (0, inf) raises AnalysisError."""
    ref_noise = _reference_power(config, params, seed, rbw)
    for window, power in ("gated", signal), ("idle", noise), ("reference idle", ref_noise):
        if not 0.0 < power < math.inf:
            raise AnalysisError(f"the mean band power of the {window} window is {power!r}")
    tone = max(signal - noise, 0.0)
    amp = math.sqrt(SINE_POWER_FACTOR * tone)
    return JointNoiseResult(
        db_below_sql=10.0 * math.log10(ref_noise / noise),
        snr_db=10.0 * math.log10(signal / noise),
        delta_theta_hat=amp / laws.weight_sum(config.weights),
        noise_power=noise,
        signal_power=signal,
        reference_power=ref_noise,
    )


def joint_noise_analysis(traces: TraceSet, config: NetworkConfig,
                         rbw=DEFAULT_RBW) -> JointNoiseResult:
    """Joint processing of the channel traces for the weighted phase sum
    nu = config.weights.

    Forms the estimator y[n] = sum_j nu_j x_j[n] / C_jj (phase units) and
    measures the drive-band power in the gated (signal) and idle (noise)
    windows, one block of whole segments of the traces at a time
    (`_read_pieces`, which reads each piece as a view of the traces): y is
    accumulated in channel order and its bins read by einsum, without BLAS,
    so the bits depend neither on a BLAS kernel nor on its thread count,
    nor on the block size.  Besides the traces, the call allocates about one
    block of y (at most `_ANALYSIS_BLOCK` samples, 131 kB) and one band power
    per segment.
    The idle noise is referenced to the ideal shot-noise run with the
    traces' timing (`_reference_power`), whose idle power is drawn as one
    window sum from a seed derived from the traces' seed.
    """
    if traces.d != config.d:
        raise ConfigError("d", f"the config has {config.d} channels but the "
                               f"traces have {traces.d}")
    weights = _joint_weights(config)
    signal, noise = _read_pieces(weights, lambda a, b: traces.samples[:, a:b],
                                 traces.params, rbw)
    return _joint_result(config, traces.params, traces.seed, rbw, signal, noise)


def synthesize_and_analyse(config: NetworkConfig, delta_thetas,
                           params: TraceParams, seed: int) -> JointNoiseResult:
    """``joint_noise_analysis(synthesize(config, delta_thetas, params, seed),
    config)``, bit for bit and with the same errors, without holding
    the run: each piece of `_read_pieces` (a block of whole segments, or an
    unread tail) is filled in turn into one reused (d, w) buffer by the fill
    rule (`_cycle_filler`) and read before the next is drawn.  w is one
    analysis block, `_segments_per_block(length) * length` samples (at most
    `_ANALYSIS_BLOCK` when a segment fits in it; 16 200 at verify's timing,
    0.5 MB at d = 4), or the cycle if shorter, so the call holds one block
    of samples, not a cycle or the run.  The run's draw helpers
    (`_draw_pool`) are started once and joined before it returns."""
    with _draw_pool(config.d) as pool:
        fill = _cycle_filler(config, delta_thetas, params, seed, pool)
        weights = _joint_weights(config)
        length = _check_analysis(params, DEFAULT_RBW)
        buffer = np.empty((config.d, min(_segments_per_block(length) * length,
                                         _cycle_samples(params))))
        signal, noise = _read_pieces(weights,
                                     lambda a, b: fill(buffer[:, :b - a], a, b),
                                     params, DEFAULT_RBW)
    return _joint_result(config, params, int(seed), DEFAULT_RBW, signal, noise)


def _tone_parts(starts, kernel, params: TraceParams) -> np.ndarray:
    """Kernel coefficients K^T tone of the unit tone sin(w n) over each
    segment [s, s + L) of `starts`, each inside one gate span, where the
    drive runs throughout: sum_m K[m] sin(w (s + m)) = sin(w s) sum_m K[m]
    cos(w m) + cos(w s) sum_m K[m] sin(w m) by angle addition;
    w = 2 pi f / sample_rate."""
    fs = params.sample_rate
    phase = 2.0 * math.pi * params.drive_freq * (np.arange(kernel.shape[0]) / fs)
    cos_sum = np.sum(kernel * np.cos(phase)[:, None], axis=0)
    sin_sum = np.sum(kernel * np.sin(phase)[:, None], axis=0)
    theta = 2.0 * math.pi * params.drive_freq * (starts / fs)
    return np.sin(theta)[:, None] * cos_sum + np.cos(theta)[:, None] * sin_sum


def _kernel_eigen(kernel):
    """Eigenvalues (lambda_1, lambda_2) of K^T K for the (L x 2) kernel K and
    their unit eigenvectors (q_1, q_2), in closed form from the three
    entries of K^T K (`math.fsum` of elementwise products, no BLAS)."""
    a, b, c = (math.fsum(kernel[:, i] * kernel[:, j])
               for i, j in ((0, 0), (0, 1), (1, 1)))
    mean, half = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    angle = 0.5 * math.atan2(2.0 * b, a - c)
    cos, sin = math.cos(angle), math.sin(angle)
    return (mean + half, max(mean - half, 0.0)), ((cos, sin), (-sin, cos))


@dataclass(frozen=True)
class _SegmentPlan:
    """What `_sampled_powers` reads of one trace timing and rbw: a few
    numbers, whatever the segment count."""
    norm: float
    eigenvalues: tuple   # (lambda_1, lambda_2) of K^T K
    windows: tuple       # (N, T_1, T_2) of the gated and of the idle window


@functools.lru_cache(maxsize=2)
def _segment_plan(params: TraceParams, rbw) -> _SegmentPlan:
    """The part of `_sampled_powers` that depends only on the timing and rbw:
    the bin kernel's norm, the eigenvalues lambda_k of K^T K = Q diag(lambda)
    Q^T, and for the gated and for the idle window its segment count N and
    T_k = sum_s (q_k^T t_s)^2, where t_s = K^T tone is the unit gated tone's
    kernel pair of segment s (`_tone_parts`, over the gated segments; an
    idle segment holds no drive, so the idle window's T_k are 0).

    Memoized on the frozen `params` and rbw, so a point and its reference
    run, and every point of a scan, share one plan; a plan holds no array,
    so its size does not grow with the trace.  A timing and rbw that
    `_check_analysis` refuses raise on every call, before the kernel of a
    segment is built."""
    length = _check_analysis(params, rbw)
    gated, idle = (_segment_layout(params, length, invert)
                   for invert in (False, True))
    starts = np.concatenate([a + length * np.arange(count) for a, count in gated])
    kernel, norm = _bin_kernel(params.sample_rate, params.drive_freq, rbw)
    eigenvalues, basis = _kernel_eigen(kernel)
    tone = _tone_parts(starts, kernel, params)
    return _SegmentPlan(
        norm=float(norm),
        eigenvalues=eigenvalues,
        windows=((starts.size, *(math.fsum((qx * tone[:, 0] + qy * tone[:, 1]) ** 2)
                                 for qx, qy in basis)),
                 (sum(count for _, count in idle), 0.0, 0.0)),
    )


def _sampled_powers(sigma: float, amp: float, params: TraceParams, seed: int,
                    rbw, windows) -> list:
    """Mean band power over the analysis segments of each window in
    `windows` (False: inside the gate window, True: outside it; both in that
    order, or one) that `_read_pieces` reads from a joint series of white
    noise of standard deviation `sigma` plus the unit gated tone times
    `amp`, drawn without the series or its segments.

    The segments are disjoint, so the kernel pair K^T x of segment s is an
    independent normal pair of mean amp t_s and covariance sigma^2 K^T K,
    whose k-th component in the eigenbasis of K^T K has variance
    sigma^2 lambda_k.  A window's summed |K^T x|^2 over its N segments is
    then sum_k [sigma^2 lambda_k chi^2(N - 1) + (sigma sqrt(lambda_k) u_k +
    amp sqrt(T_k))^2], u_k standard normal: each component's noncentral
    chi-square split into its central part and one shifted normal.  Each
    window in turn draws two `standard_gamma((N - 1) / 2)` (chi^2 = 2 Gamma)
    and two standard normals from Philox channel 0 of `seed`, whatever N.
    Nothing is divided by sigma, so sigma = 0 gives the tone's power
    exactly.  Everything but the draws, `sigma` and `amp` comes from the
    timing's cached `_segment_plan`, which raises AnalysisError for a timing
    that `_check_analysis` refuses."""
    plan = _segment_plan(params, rbw)
    scales = [sigma * math.sqrt(lam) for lam in plan.eigenvalues]
    rng = _channel_rng(seed, 0)
    powers = []
    for count, *tone in (plan.windows[invert] for invert in windows):
        chi2 = 2.0 * rng.standard_gamma(0.5 * (count - 1), 2)
        normal = rng.standard_normal(2)
        try:
            total = math.fsum(scale * scale * c + (scale * u + amp * math.sqrt(t)) ** 2
                              for scale, c, u, t in zip(scales, chi2.tolist(),
                                                        normal.tolist(), tone))
        except OverflowError:  # a square past the float range: so is the sum
            total = math.inf
        powers.append(2.0 * total / (plan.norm * count) * rbw)
    return powers


def _reference_power(config: NetworkConfig, params: TraceParams, seed: int,
                     rbw) -> float:
    """Idle band power of the joint estimator of the ideal shot-noise run
    (`sql_reference_config`), drawn by `_sampled_powers` from the seed
    derived from `seed`.

    The reference run has r = 0, no loss and theta = 0, so every squeezer
    weight is expm1(0) = 0 and the engine's Gamma is exactly the identity:
    its variance x^T Gamma x is x . x, with x = nu_j / C_jj over the
    channels the dark rule keeps, and needs no network build.  Its joint
    noise is white of that variance, so the sampled idle power has exactly
    the distribution of the synthesized run's.  A weighted dark channel of
    the reference raises DarkResponseError."""
    x, _ = _kept_weights(sql_reference_config(config))
    (power,) = _sampled_powers(math.sqrt(x @ x), 0.0, params,
                               _reference_seed(seed), rbw, (True,))
    return power


def simulate_joint_noise(config: NetworkConfig, variance: float,
                         delta_thetas, params: TraceParams, seed: int,
                         rbw=DEFAULT_RBW) -> JointNoiseResult:
    """Monte Carlo joint-noise run of one operating point, whose joint noise
    has the engine's `variance` = sensitivity_numeric(config).

    Same statistics as ``joint_noise_analysis(synthesize(config,
    delta_thetas, params, seed), config, rbw)``, with the same reference
    power, but draws only each window's summed single-bin power from its
    exact distribution (`_sampled_powers`): noise of `variance` and a drive
    of amplitude sum_j nu_j delta_j (w_j C_jj = nu_j).  Neither the series
    nor its segments are drawn, so past the timing's plan the cost is four
    variates per window, whatever the segment or sample count.  The caller
    passes the variance it already has (a scan row's `variance_numeric`),
    and the reference's Gamma is the identity (`_reference_power`), so the
    call builds no network.  The run and its reference share the timing's
    cached `_segment_plan`, so a call past the first at one timing computes
    only the draws and a few scalar sums.  The config meets the
    engine's guard all the same: a weighted dark channel raises
    DarkResponseError.
    """
    _kept_weights(config)
    delta = np.broadcast_to(np.asarray(delta_thetas, dtype=float), (config.d,))
    amp = float(np.asarray(config.weights) @ delta)
    return _joint_result(config, params, seed, rbw,
                         *_sampled_powers(math.sqrt(variance), amp, params,
                                          seed, rbw, (False, True)))


# ---------------------------------------------------------------------------
# trace files

_HEADER = struct.Struct("<4sII5dQ")


@contextmanager
def _replacing(path: Path):
    """Yield a temporary sibling of `path` to write; it replaces `path` only
    if the block completes, and is removed otherwise."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_trace(path, traces: TraceSet):
    """Write `traces` to `path`, one file holding the samples and their whole
    timing, through a temporary file."""
    path = Path(path)
    params = traces.params
    header = _HEADER.pack(MAGIC, VERSION, traces.d, params.sample_rate, params.cycle,
                          *params.gate, params.drive_freq, traces.seed)
    with _replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(traces.samples, dtype="<f8").data)
    return path


def read_trace(path) -> TraceSet:
    """The traces of `path`, with one `TraceParams` built from its header
    alone, whose n_cycles is the payload's whole cycles; the payload is kept
    in full.  A malformed file, a timing `TraceParams` refuses or a payload
    shorter than one cycle raises AnalysisError naming the file."""
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            magic, version, d, sample_rate, cycle, g0, g1, drive_freq, seed = (
                _HEADER.unpack(fh.read(_HEADER.size)))
        except struct.error as exc:
            raise AnalysisError(f"truncated trace header in {path}") from exc
        if magic != MAGIC:
            raise AnalysisError(f"not a trace file: bad magic {magic!r}")
        if version != VERSION:
            raise AnalysisError(f"unsupported trace version {version}")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size % 8:
            raise AnalysisError(f"truncated trace payload in {path}")
        count = size // 8
        if d < 1 or count < d or count % d:
            raise AnalysisError(f"trace payload inconsistent with {d} channels")
        # the payload is read once, straight into the samples' buffer
        samples = np.empty((d, count // d), dtype="<f8")
        if fh.readinto(samples.data.cast("B")) != size:
            raise AnalysisError(f"truncated trace payload in {path}")
    try:
        params = TraceParams(sample_rate=sample_rate, cycle=cycle, gate=(g0, g1),
                             drive_freq=drive_freq)
    except ValueError as exc:
        raise AnalysisError(f"trace {path}: {exc}") from exc
    n = _cycle_samples(params)
    if samples.shape[1] < n:
        raise AnalysisError(f"trace payload in {path} is shorter than one cycle: "
                            f"{samples.shape[1]} of {n} samples")
    return TraceSet(samples, replace(params, n_cycles=samples.shape[1] // n), seed)
