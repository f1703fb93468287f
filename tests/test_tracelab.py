import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzinet import laws, network, scenarios, tracelab
from mzinet.errors import AnalysisError, ConfigError, DarkResponseError
from mzinet.network import (
    NetworkConfig,
    noise_matrix,
    response,
    sensitivity_numeric,
    sql_reference_config,
    weight_pattern,
)
from mzinet.optimize import configure_optimal, scan
from mzinet.scenarios import bundled_scenario_path, load_scenario
from reference_sampler import per_segment_powers
from mzinet.tracelab import (
    TraceParams,
    TraceSet,
    joint_noise_analysis,
    read_trace,
    segment_band_powers,
    simulate_joint_noise,
    synthesize,
    write_trace,
)

FAST = TraceParams(sample_rate=2e7, cycle=4e-3, gate=(1.2e-3, 2.0e-3),
                   n_cycles=4, drive_freq=4e6)
# gates inside the cycle, over all of it, from its start and to its end, with
# a sample rate and cycle that are not round numbers
GATE_CASES = [
    FAST,
    TraceParams(sample_rate=2e7, cycle=1e-3, gate=(0.0, 1e-3), n_cycles=3,
                drive_freq=4e6),
    TraceParams(sample_rate=3.3e7, cycle=7.77e-4, gate=(0.0, 2.5e-4),
                n_cycles=7, drive_freq=4e6),
    TraceParams(sample_rate=3.3e7, cycle=7.77e-4, gate=(1e-4, 7.77e-4),
                n_cycles=7, drive_freq=4e6),
]


# verify's trace check: 1.28 M samples per channel, analysed at rbw 1e5
VERIFY = TraceParams(sample_rate=2e7, cycle=8e-3, gate=(2.4e-3, 4e-3),
                     n_cycles=8, drive_freq=4e6)


def _ideal_config(d=2, r=0.0, n_c=1e6):
    return configure_optimal(weight_pattern("ave", d), n_c, r)


def _lossy_config(d):
    return configure_optimal(weight_pattern("ave", d), 1e12, 0.75,
                             eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)


def test_trace_params_validation():
    with pytest.raises(ValueError):
        TraceParams(sample_rate=1e6, drive_freq=4e6)
    with pytest.raises(ValueError):
        TraceParams(gate=(3e-3, 90e-3))
    with pytest.raises(ValueError):
        TraceParams(n_cycles=0)


@pytest.mark.parametrize("fields, message", [
    ({"drive_freq": math.nan}, "drive_freq must be finite and > 0, got nan"),
    ({"drive_freq": 0.0}, "drive_freq must be finite and > 0, got 0.0"),
    ({"sample_rate": math.nan}, "sample_rate must be finite and > 0, got nan"),
    ({"sample_rate": math.inf}, "sample_rate must be finite and > 0, got inf"),
    ({"cycle": -8e-3}, "cycle must be finite and > 0, got -0.008"),
    ({"n_cycles": 1.5}, "n_cycles must be an integer >= 1, got 1.5"),
    ({"n_cycles": 0}, "n_cycles must be an integer >= 1, got 0"),
], ids=["drive_nan", "drive_zero", "rate_nan", "rate_inf", "cycle_negative",
        "n_cycles_fraction", "n_cycles_zero"])
def test_trace_params_names_the_field_it_refuses(fields, message):
    # a NaN drive used to pass every comparison and fail in the bin kernel
    with pytest.raises(ValueError) as err:
        dataclasses.replace(FAST, **fields)
    assert str(err.value) == message


def test_cycle_is_a_whole_number_of_samples():
    # 1000.4 samples per cycle: the drive would drift 7-8 samples by cycle 18
    with pytest.raises(ValueError, match="cycle must be a whole number of samples"):
        TraceParams(sample_rate=1e6, cycle=1.0004e-3, gate=(2e-4, 4e-4),
                    drive_freq=1e5)
    with pytest.raises(ConfigError, match="trace: cycle must be a whole number"):
        scenarios._trace_block({"sample_rate": 1e6, "cycle": 1.0004e-3,
                                "gate": [2e-4, 4e-4], "drive_freq": 1e5})
    # the float product 3.3e7 * 7.77e-4 is whole; a file's cycles are counted
    # in whole cycles of its samples, 2 of 2.6 here
    assert tracelab._whole_samples("cycle", 7.77e-4, 3.3e7) == 25641
    params = TraceParams(sample_rate=1e6, cycle=1e-3, gate=(2e-4, 4e-4),
                         n_cycles=2, drive_freq=1e5)
    assert TraceSet(np.zeros((1, 2600)), params, seed=0).params.n_cycles == 2
    for n_cycles in (1, 3):
        with pytest.raises(ValueError, match=f"hold 2 whole cycles but "
                                             f"params.n_cycles is {n_cycles}"):
            TraceSet(np.zeros((1, 2600)), dataclasses.replace(params, n_cycles=n_cycles),
                     seed=0)


@pytest.mark.parametrize("gate", [(2.0004e-4, 4e-4), (2e-4, 3.9996e-4),
                                  (1.0001e-4, 1.0004e-4)],
                         ids=["on", "off", "between_two_samples"])
def test_gate_edges_are_whole_numbers_of_samples(gate):
    # at 1 MHz: an on edge at 200.04 samples, an off edge at 399.96, and a
    # gate 0.03 samples wide that holds no sample
    with pytest.raises(ValueError, match="gate must be a whole number of samples"):
        TraceParams(sample_rate=1e6, cycle=1e-3, gate=gate, drive_freq=1e5)
    with pytest.raises(ConfigError, match="trace: gate must be a whole number"):
        scenarios._trace_block({"sample_rate": 1e6, "cycle": 1e-3,
                                "gate": list(gate), "drive_freq": 1e5})


def test_edges_within_four_ulps_are_rounded():
    # 2e-4 * 2e7 = 4000 and 6e-4 * 2e7 = 11999.999999999998: the gate span
    # is [4000, 12000), whose 8000 samples hold 40 segments of 200
    params = TraceParams(sample_rate=2e7, cycle=1e-3, gate=(2e-4, 6e-4),
                         n_cycles=3, drive_freq=4e6)
    assert 6e-4 * 2e7 < 12000
    assert tracelab._window_spans(params) == [
        (4000, 12000), (24000, 32000), (44000, 52000)]
    assert tracelab._segment_plan(params, 1e5).windows[0][0] == 3 * 40
    assert [count for _, count in tracelab._segment_layout(
        params, 200, True)] == [20, 40] * 3


def test_synthesize_deterministic_given_seed():
    cfg = _ideal_config()
    a = synthesize(cfg, 0.0, FAST, seed=42)
    b = synthesize(cfg, 0.0, FAST, seed=42)
    assert np.array_equal(a.samples, b.samples)
    c = synthesize(cfg, 0.0, FAST, seed=43)
    assert not np.array_equal(a.samples, c.samples)


def test_synthesize_noise_streams_are_pinned():
    # verify's trace check and criteria 01, 02 and 07 read these per-channel
    # streams; any change to how they are drawn or mixed moves the digest
    cfg = configure_optimal(weight_pattern("ave", 3), 1e6, 0.5, eta_dis=0.95)
    traces = synthesize(cfg, 1e-6, FAST, seed=7)
    assert hashlib.sha256(traces.samples.tobytes()).hexdigest() == (
        "7b4440c7d6621334c6b7538e27088fd5cf4485704b3071e78f1358944675cc1f")


def test_driven_analysis_is_pinned():
    # the analysis of a driven run reads only analysis segments, so a change
    # of the drive at samples of Hann weight 0 leaves every bit of it
    cfg = configure_optimal(weight_pattern("asym", 3), 1e8, 0.3, eta_dis=0.95)
    traces = synthesize(cfg, np.array([2e-4, -1e-4, 3e-4]), FAST, seed=8)
    assert repr(joint_noise_analysis(traces, cfg)) == (
        "JointNoiseResult(db_below_sql=2.0053690299324516, "
        "snr_db=13.85623689012585, delta_theta_hat=6.664769760127187e-05, "
        "noise_power=6.35440605424434e-11, signal_power=1.5441825923926368e-09, "
        "reference_power=1.0083513087686998e-10)")


def test_trace_file_bytes_are_pinned(tmp_path):
    # the pinned noise streams above, written as a trace file: the payload
    # is their bytes, and any change to the header moves its digest
    cfg = configure_optimal(weight_pattern("ave", 3), 1e6, 0.5, eta_dis=0.95)
    path = write_trace(tmp_path / "run.mztr", synthesize(cfg, 1e-6, FAST, seed=7))
    data = path.read_bytes()
    assert [hashlib.sha256(part).hexdigest()
            for part in (data[:tracelab._HEADER.size], data[tracelab._HEADER.size:])] == [
        "72bef2e7a5363e64ed5ed078e6d21c61f74722efeaa2636e20f6de6aa3972a28",
        "7b4440c7d6621334c6b7538e27088fd5cf4485704b3071e78f1358944675cc1f"]


def test_synthesize_vacuum_floor_variance():
    cfg = _ideal_config()
    traces = synthesize(cfg, 0.0, FAST, seed=1)
    for j in range(cfg.d):
        var = traces.samples[j].var()
        n = traces.n_samples
        assert abs(var - 1.0) < 3.5 / math.sqrt(n / 2)


def test_synthesize_weighted_sum_hits_squeezed_floor():
    cfg = configure_optimal(weight_pattern("ave", 6), 1e6, 0.75)
    params = TraceParams(sample_rate=2e7, cycle=5e-2, gate=(1e-2, 2e-2),
                         n_cycles=1, drive_freq=4e6)
    traces = synthesize(cfg, 0.0, params, seed=3)
    nu = np.asarray(cfg.weights)
    joint = (nu / np.abs(nu).sum()) @ traces.samples * math.sqrt(cfg.d)
    ratio = joint.var()  # normalized so the shot-noise floor is 1
    assert ratio == pytest.approx(math.exp(-1.5), rel=0.05)


def _gate_mask(params, n_total):
    """Samples n with n % N in [lo, hi): the cycle and the gate edges
    rounded to whole samples."""
    n, lo, hi = (round(x * params.sample_rate) for x in (params.cycle, *params.gate))
    in_cycle = np.arange(n_total) % n
    return (in_cycle >= lo) & (in_cycle < hi)


def test_synthesize_gated_drive_only_inside_window():
    cfg = _ideal_config(d=1)
    delta = 5e-3
    traces = synthesize(cfg, delta, FAST, seed=9)
    quiet = synthesize(cfg, 0.0, FAST, seed=9)
    diff = traces.samples - quiet.samples
    in_gate = _gate_mask(FAST, traces.n_samples)
    assert np.max(np.abs(diff[:, ~in_gate])) == 0.0
    assert np.max(np.abs(diff[:, in_gate])) > 0.0


@pytest.mark.parametrize("params", GATE_CASES)
def test_drive_fills_exactly_the_gate_spans(params, monkeypatch):
    n_total = tracelab._n_samples(params)
    spans = tracelab._window_spans(params, False)
    index = np.concatenate([np.arange(a, b) for a, b in spans])
    assert np.array_equal(index, np.flatnonzero(_gate_mask(params, n_total)))
    # with no noise and a unit response, synthesize's samples are the tone
    monkeypatch.setattr(tracelab, "_noise_factor", np.zeros_like)
    monkeypatch.setattr(tracelab, "response", lambda cfg: np.ones(cfg.d))
    tone = synthesize(_ideal_config(d=1), 1.0, params, seed=0).samples[0]
    t = index / params.sample_rate
    assert np.array_equal(tone[index], np.sin(2.0 * math.pi * params.drive_freq * t))
    tone[index] = 0.0
    assert not tone.any()


def _whole_product_synthesis(cfg, delta, params, seed):
    """synthesize's samples as the whole product of the noise factor and the
    per-channel draws, plus the outer product of the drive amplitudes and the
    gated tone at the samples of `_gate_mask`."""
    n_total = tracelab._n_samples(params)
    z = np.empty((cfg.d, n_total))
    for j in range(cfg.d):
        tracelab._channel_rng(seed, j).standard_normal(out=z[j])
    samples = tracelab._noise_factor(noise_matrix(cfg)) @ z
    amps = response(cfg) * delta
    if np.any(amps != 0.0):
        index = np.flatnonzero(_gate_mask(params, n_total))
        t = index / params.sample_rate
        samples[:, index] += np.outer(amps, np.sin(2.0 * math.pi * params.drive_freq * t))
    return samples


@pytest.mark.parametrize("d", [1, 2, 5, 6])
@pytest.mark.parametrize("params", [FAST, GATE_CASES[2]])
def test_synthesize_equals_the_whole_product_and_outer_drive(d, params):
    assert tracelab._n_samples(params) % tracelab._MIX_BLOCK
    cfg = configure_optimal(weight_pattern("asym", d), 1e8, 0.5, eta_dis=0.95)
    for delta in (0.0, np.linspace(-2e-3, 3e-3, d)):
        samples = synthesize(cfg, delta, params, seed=17 + d).samples
        expected = _whole_product_synthesis(cfg, delta, params, 17 + d)
        assert samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [4, 6])
def test_a_cycle_of_one_sample_past_whole_mix_blocks_equals_the_whole_product(d):
    # N = 8193: a one-column last block would be mixed by gemv, whose sums
    # differ in the last bits from gemm's for d >= 4
    params = TraceParams(sample_rate=2e7, cycle=8193 / 2e7, gate=(1e-4, 2e-4),
                         n_cycles=3, drive_freq=4e6)
    assert tracelab._cycle_samples(params) % tracelab._MIX_BLOCK == 1
    cfg = configure_optimal(weight_pattern("asym", d), 1e8, 0.5, eta_dis=0.95)
    for delta in (0.0, np.linspace(-2e-3, 3e-3, d)):
        samples = synthesize(cfg, delta, params, seed=23 + d).samples
        expected = _whole_product_synthesis(cfg, delta, params, 23 + d)
        assert samples.tobytes() == expected.tobytes()


def _allow_cpus(monkeypatch, cpus):
    """Let this process run on `cpus` CPUs, as `_draw_pool` counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_synthesize_bytes_do_not_depend_on_the_thread_count(d, cpus, monkeypatch):
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    _allow_cpus(monkeypatch, cpus)
    monkeypatch.setattr(threading, "Thread", CountedThread)
    cfg = configure_optimal(weight_pattern("asym", d), 1e8, 0.5, eta_dis=0.95)
    delta = np.linspace(-2e-3, 3e-3, d)
    samples = synthesize(cfg, delta, FAST, seed=40 + d).samples
    # the calling thread draws a share itself: the run starts at most
    # min(d, cpus) - 1 helper threads, none at d = 1 or on one CPU
    assert len(started) <= min(d, cpus) - 1
    expected = _whole_product_synthesis(cfg, delta, FAST, 40 + d)
    assert samples.tobytes() == expected.tobytes()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_a_process_pinned_to_one_cpu_starts_no_draw_helper(monkeypatch):
    # a machine of four CPUs, of which this process may use one (taskset,
    # cpusets): a helper could not draw beside the calling thread
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(threading, "Thread", CountedThread)
    cfg = configure_optimal(weight_pattern("asym", 4), 1e8, 0.5, eta_dis=0.95)
    delta = np.linspace(-2e-3, 3e-3, 4)
    samples = synthesize(cfg, delta, FAST, seed=44).samples
    assert started == []
    assert samples.tobytes() == _whole_product_synthesis(cfg, delta, FAST, 44).tobytes()


def test_a_failed_row_draw_is_raised(monkeypatch):
    # two CPUs: one helper draws row 1 and the calling thread rows 0 and 2;
    # three CPUs: two helpers draw rows 1 and 2 and the calling thread row 0
    class Broken:
        def standard_normal(self, out):
            raise MemoryError("row")

    threads = threading.active_count()
    for cpus in (2, 3):
        _allow_cpus(monkeypatch, cpus)
        for broken in (0, 1, 2):
            rngs = [np.random.default_rng(j) for j in range(3)]
            rngs[broken] = Broken()
            with tracelab._draw_pool(3) as pool, pytest.raises(MemoryError, match="row"):
                assert len(pool) == cpus - 1
                tracelab._draw_rows(rngs, np.empty((3, 16)), pool)
            # the run's helpers are joined when it ends, an error or not
            assert threading.active_count() == threads, (cpus, broken)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_run_joins_its_draw_helpers(cpus, monkeypatch):
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    _allow_cpus(monkeypatch, cpus)
    monkeypatch.setattr(threading, "Thread", CountedThread)
    cfg = _lossy_config(4)
    threads = threading.active_count()
    for run in (synthesize, tracelab.synthesize_and_analyse):
        del started[:]
        run(cfg, 0.0, FAST, seed=3)
        # min(d, cpus) - 1 helpers for the whole run, none left after it
        assert len(started) == cpus - 1, run
        assert not any(helper.is_alive() for helper in started), run
        assert threading.active_count() == threads, run


_VERIFY_IMPORTS = """
import sys
from mzinet.scenarios import verify

assert verify("full").ok
print("concurrent.futures" in sys.modules)
"""


def test_verify_full_runs_without_concurrent_futures():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _VERIFY_IMPORTS], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]


@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_synthesize_allocates_only_its_output(delta, peak_bytes):
    # d = 4 at verify's timing: 1.28 M samples per channel (41 MB)
    params = TraceParams(sample_rate=2e7, cycle=8e-3, gate=(2.4e-3, 4e-3),
                         n_cycles=8, drive_freq=4e6)
    cfg = configure_optimal(weight_pattern("ave", 4), 1e12, 0.75,
                            eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)
    nbytes = 4 * tracelab._n_samples(params) * 8
    assert peak_bytes(lambda: synthesize(cfg, delta, params, seed=3)) < nbytes + 4e6


def test_band_power_sinusoid_calibration():
    # amplitude A at a bin center reads A^2/3 with the Hann calibration
    fs, rbw = 2e7, 1e5
    n = int(fs * 2e-3)
    t = np.arange(n) / fs
    amp = 0.7
    series = amp * np.sin(2 * math.pi * 4e6 * t)
    powers = segment_band_powers(series, fs, 4e6, rbw)
    assert powers.mean() == pytest.approx(amp**2 / 3, rel=1e-6)


def test_band_power_white_noise_calibration():
    fs, rbw = 2e7, 1e5
    rng = np.random.default_rng(11)
    sigma = 1.3
    series = rng.normal(0, sigma, int(fs * 20e-3))
    powers = segment_band_powers(series, fs, 4e6, rbw)
    expected = sigma**2 * rbw / (fs / 2)
    assert powers.mean() == pytest.approx(expected, rel=0.1)


def test_band_power_off_band_rejection():
    fs, rbw = 2e7, 1e5
    n = int(fs * 2e-3)
    t = np.arange(n) / fs
    series = np.sin(2 * math.pi * 4e6 * t)
    on = segment_band_powers(series, fs, 4e6, rbw).mean()
    shifted = np.sin(2 * math.pi * (4e6 + 10.3 * rbw) * t)
    off = segment_band_powers(shifted, fs, 4e6, rbw).mean()
    assert 10 * math.log10(on / off) >= 30.0


def test_single_bin_dft_matches_full_fft_bin():
    fs, rbw, center = 2e7, 1e5, 4e6
    rng = np.random.default_rng(4)
    t = np.arange(int(fs * 1e-3)) / fs
    series = rng.normal(0.0, 1.0, t.size) + 0.3 * np.sin(2 * math.pi * 4.02e6 * t)
    length = int(round(fs / rbw))
    segments = series[: series.size // length * length].reshape(-1, length)
    window = tracelab._hann(length)
    spectra = np.fft.rfft(segments * window, axis=1)
    k = int(round(center / fs * length))
    expected = 2.0 * np.abs(spectra[:, k]) ** 2 / (fs * np.sum(window**2)) * rbw
    np.testing.assert_allclose(segment_band_powers(series, fs, center, rbw),
                               expected, rtol=1e-9, atol=0.0)


def test_band_power_window_guards():
    with pytest.raises(AnalysisError):
        segment_band_powers(np.zeros(50), 2e7, 4e6, 1e5)
    with pytest.raises(AnalysisError):
        segment_band_powers(np.zeros(1000), 2e7, 9.99e6, 1e5)


def test_joint_noise_analysis_recovers_model_suppression():
    for r in (0.0, 0.3, 0.75):
        cfg = configure_optimal(weight_pattern("ave", 4), 1e10, r,
                                eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)
        params = TraceParams(sample_rate=2e7, cycle=8e-3, gate=(2.4e-3, 4e-3),
                             n_cycles=8, drive_freq=4e6)
        traces = synthesize(cfg, 0.0, params, seed=100 + int(10 * r))
        result = joint_noise_analysis(traces, cfg)
        model = laws.db_below_sql(r, cfg.Lambda)
        assert abs(result.db_below_sql - model) < 0.2


def test_joint_noise_analysis_estimates_drive_amplitude():
    cfg = configure_optimal(weight_pattern("ave", 2), 1e8, 0.3)
    delta = 2e-4
    signs = np.sign(cfg.weights)
    traces = synthesize(cfg, signs * delta, FAST, seed=21)
    result = joint_noise_analysis(traces, cfg)
    assert result.snr_db > 20.0
    assert result.delta_theta_hat == pytest.approx(delta, rel=0.02)


def test_joint_noise_analysis_weight_structures_agree():
    results = {}
    params = TraceParams(sample_rate=2e7, cycle=8e-3, gate=(2.4e-3, 4e-3),
                         n_cycles=6, drive_freq=4e6)
    for offset, name in enumerate(("ave", "stag", "asym")):
        nu = weight_pattern(name, 6)
        cfg = configure_optimal(nu, 1e10, 0.75, eta_dis=0.99, eta_mzi=0.89,
                                eta_m=0.9999)
        traces = synthesize(cfg, 0.0, params, seed=7 + offset)
        results[name] = joint_noise_analysis(traces, cfg).db_below_sql
    spread = max(results.values()) - min(results.values())
    assert spread < 0.2


@pytest.mark.parametrize("d", [2, 4, 6])
def test_joint_series_is_the_sum_in_channel_order(d, monkeypatch):
    # 1 280 013 samples: a length whose BLAS product split across threads
    # gave other bytes than one thread
    n = 1_280_013
    cfg = configure_optimal(weight_pattern("asym", d), 1e10, 0.5, eta_dis=0.95)
    samples = np.random.default_rng(d).standard_normal((d, n))
    traces = TraceSet(samples, VERIFY, seed=1)
    blocks = []
    analyse = tracelab.segment_band_powers

    def recording(block, *args):
        blocks.append(block)
        return analyse(block, *args)

    monkeypatch.setattr(tracelab, "segment_band_powers", recording)
    joint_noise_analysis(traces, cfg)
    w = tracelab._joint_weights(cfg)
    expected = w[0] * samples[0]
    for j in range(1, d):
        expected += w[j] * samples[j]
    # the full segments of the gated and idle spans in time order: the
    # blocks cover exactly these samples, in this order
    length = 200
    spans = _spans_in_reading_order(VERIFY)
    full = b"".join(expected[a:a + (b - a) // length * length].tobytes()
                    for a, b in spans)
    assert b"".join(block.tobytes() for block in blocks) == full
    # each block is whole segments, small enough for a one-thread product,
    # and some span is read in more than one block
    assert all(block.size % length == 0 and block.size <= tracelab._ANALYSIS_BLOCK
               for block in blocks)
    assert len(blocks) > len(spans)


def _spans_in_reading_order(params):
    """The gated and the idle spans of the run in time order: the order in
    which the analysis reads them."""
    return sorted(tracelab._window_spans(params) + tracelab._window_spans(params, True))


def test_block_powers_equal_one_product_per_span(monkeypatch):
    # at verify's timing each span's bins read in one call equal those read
    # in blocks of 81 segments: a bin's sum does not depend on the segments
    # read with it
    series = np.random.default_rng(0).standard_normal(tracelab._n_samples(VERIFY))
    read = []
    analyse = tracelab.segment_band_powers

    def recording(*args):
        read.append(analyse(*args))
        return read[-1]

    monkeypatch.setattr(tracelab, "segment_band_powers", recording)
    tracelab._read_pieces(np.ones(1), lambda a, b: series[None, a:b], VERIFY, 1e5)
    per_span = [analyse(series[a:b], 2e7, 4e6, 1e5)
                for a, b in _spans_in_reading_order(VERIFY)]
    assert np.concatenate(read).tobytes() == np.concatenate(per_span).tobytes()


_BAND_POWERS_OF_A_LONG_SPAN = """
import hashlib
import numpy as np
from mzinet.tracelab import segment_band_powers

# the 1.5 M-sample idle span of the default timing, read in one call
series = np.random.default_rng(4).standard_normal(1_500_000)
powers = segment_band_powers(series, 50e6, 4e6, 1e5)
print(hashlib.sha256(powers.tobytes()).hexdigest())
"""


def test_long_series_bins_are_read_in_blocks():
    series = np.random.default_rng(5).standard_normal(1_000_123)
    length = 500
    step = tracelab._segments_per_block(length) * length
    assert step <= tracelab._ANALYSIS_BLOCK
    whole = segment_band_powers(series, 50e6, 4e6, 1e5)
    blocks = [segment_band_powers(series[a:a + step], 50e6, 4e6, 1e5)
              for a in range(0, series.size - length + 1, step)]
    assert whole.size == series.size // length
    assert whole.tobytes() == np.concatenate(blocks).tobytes()


def _openblas_is_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, so that
    OPENBLAS_CORETYPE picks its kernel at load."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "").split()


def test_long_series_bins_do_not_depend_on_the_blas_thread_count():
    # the same digest with one BLAS thread and, where OPENBLAS_CORETYPE can
    # force a kernel, under the kernels of AVX-512, AVX2 and SSE3 hosts: a
    # bin read by a BLAS product rounds by the kernel's own order
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("OPENBLAS_")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [{}, {"OPENBLAS_NUM_THREADS": "1"}]
    if _openblas_is_dynamic_arch():
        runs += [{"OPENBLAS_CORETYPE": kernel}
                 for kernel in ("SkylakeX", "Haswell", "Prescott")]
    digests = {}
    for extra in runs:
        run = subprocess.run(
            [sys.executable, "-c", _BAND_POWERS_OF_A_LONG_SPAN],
            env=dict(env, **extra), capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests[str(extra)] = run.stdout
    assert len(set(digests.values())) == 1, digests
    if len(runs) == 2:
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                    "OPENBLAS_CORETYPE cannot force a kernel: the kernel runs "
                    "were skipped")


@pytest.mark.parametrize("d, params", [(4, VERIFY), (2, TraceParams())],
                         ids=["verify", "default_timing"])
def test_joint_noise_analysis_holds_no_joint_series(d, params, peak_bytes):
    cfg = _lossy_config(d)
    traces = synthesize(cfg, 0.0, params, seed=3)
    # the whole joint series alone would take 10.24 MB and 32 MB
    assert peak_bytes(lambda: joint_noise_analysis(traces, cfg)) < 2e6


@pytest.mark.parametrize("driven", [False, True], ids=["undriven", "driven"])
@pytest.mark.parametrize("params", [FAST, VERIFY, dataclasses.replace(FAST, n_cycles=1),
                                    GATE_CASES[2]],
                         ids=["fast", "verify", "one_cycle", "unread_tails"])
@pytest.mark.parametrize("d", [1, 3, 4])
def test_synthesize_and_analyse_equals_the_analysis_of_the_whole_run(d, params, driven):
    # FAST's cycle (80 000 samples) is no multiple of _MIX_BLOCK, so each
    # cycle ends on a short mix block; GATE_CASES[2]'s idle spans of 17 391
    # samples end on a 231-sample tail past their last 330-sample segment,
    # which the run synthesizes and the analysis does not read
    cfg = _lossy_config(d)
    delta = np.linspace(-2e-3, 3e-3, d) if driven else 0.0
    whole = joint_noise_analysis(synthesize(cfg, delta, params, seed=11 + d), cfg)
    assert repr(tracelab.synthesize_and_analyse(cfg, delta, params, seed=11 + d)) == repr(whole)


# a bad seed, and a gate of 100 samples, which holds no segment of 200
@pytest.mark.parametrize("seed, params, error", [
    (-1, FAST, ConfigError),
    (3, dataclasses.replace(FAST, gate=(1.2e-3, 1.205e-3)), AnalysisError)])
def test_synthesize_and_analyse_raises_what_the_analysis_of_the_whole_run_raises(
        seed, params, error):
    cfg = _ideal_config(d=2)
    with pytest.raises(error) as whole:
        joint_noise_analysis(synthesize(cfg, 0.0, params, seed=seed), cfg)
    with pytest.raises(error) as cycled:
        tracelab.synthesize_and_analyse(cfg, 0.0, params, seed=seed)
    assert str(cycled.value) == str(whole.value)


def test_synthesize_and_analyse_holds_one_cycle(peak_bytes):
    # verify's trace check: one cycle is 4 x 160 000 samples (5.12 MB), the
    # whole run 41 MB
    cfg = _lossy_config(4)
    cycle_bytes = 4 * tracelab._cycle_samples(VERIFY) * 8
    assert peak_bytes(lambda: tracelab.synthesize_and_analyse(
        cfg, 0.0, VERIFY, seed=3)) < cycle_bytes + 2e6


@pytest.mark.parametrize("d, params, bound", [
    (4, VERIFY, 4 * tracelab._ANALYSIS_BLOCK * 8 + 2e6),
    (2, TraceParams(), 4e6),
], ids=["verify", "default_timing"])
def test_synthesize_and_analyse_holds_one_analysis_block(d, params, bound, peak_bytes):
    # one cycle is 5.12 MB at verify's timing and 64 MB at the default
    # timing; one analysis block of 16 200 samples per channel is 0.52 MB at
    # d = 4
    cfg = _lossy_config(d)
    assert peak_bytes(lambda: tracelab.synthesize_and_analyse(
        cfg, 0.0, params, seed=3)) < bound


def test_the_analysis_does_not_depend_on_the_block_size(monkeypatch):
    # verify's trace check (d = 4): 1.28 M samples per channel, read in
    # blocks of 20, 81 and 327 segments of 200 samples
    cfg = _lossy_config(4)
    traces = synthesize(cfg, 0.0, VERIFY, seed=3)
    results = set()
    for block in (1 << 12, 1 << 14, 1 << 16):
        monkeypatch.setattr(tracelab, "_ANALYSIS_BLOCK", block)
        results.add(repr(tracelab.synthesize_and_analyse(cfg, 0.0, VERIFY, seed=3)))
        results.add(repr(joint_noise_analysis(traces, cfg)))
    assert len(results) == 1, results


@pytest.mark.parametrize("d", [1, 4, 6])
def test_a_run_filled_in_spans_equals_synthesize(d):
    # spans of 2 to 20 000 samples, some across a gate edge, each inside one
    # cycle of 25 641 samples: the streams, the gemm mix and the tone are cut
    # anywhere without moving a bit
    params = GATE_CASES[3]
    cfg = configure_optimal(weight_pattern("asym", d), 1e8, 0.5, eta_dis=0.95)
    delta = np.linspace(-2e-3, 3e-3, d)
    n = tracelab._cycle_samples(params)
    cuts = np.random.default_rng(d).integers(2, 20_000, size=200).cumsum()
    pieces = []
    with tracelab._draw_pool(d) as pool:
        fill = tracelab._cycle_filler(cfg, delta, params, seed=5, pool=pool)
        for k in range(params.n_cycles):
            edges = [k * n] + [c for c in cuts if k * n + 2 <= c <= (k + 1) * n - 2] + [(k + 1) * n]
            pieces += [fill(np.empty((d, b - a)), a, b) for a, b in zip(edges, edges[1:])]
    assert len(pieces) > 2 * params.n_cycles
    expected = synthesize(cfg, delta, params, seed=5).samples
    assert np.concatenate(pieces, axis=1).tobytes() == expected.tobytes()


def test_joint_noise_analysis_leaves_no_thread_spinning():
    # verify's trace check (d = 4), and the default timing at d = 2, whose
    # 1.5 M-sample idle spans wake BLAS threads when read in one product
    for d, params in ((4, VERIFY), (2, TraceParams())):
        cfg = _lossy_config(d)
        joint_noise_analysis(synthesize(cfg, 0.0, params, seed=3), cfg)
        cpu = time.process_time()
        time.sleep(0.3)
        assert time.process_time() - cpu < 0.03, d


_ANALYSE_AT_DEFAULT_TIMING = """
import sys
from mzinet.network import weight_pattern
from mzinet.optimize import configure_optimal
from mzinet.tracelab import TraceParams, joint_noise_analysis, synthesize

d = int(sys.argv[1])
cfg = configure_optimal(weight_pattern("asym", d), 1e12, 0.75, eta_dis=0.99,
                        eta_mzi=0.89, eta_m=0.9999)
print(repr(joint_noise_analysis(synthesize(cfg, 0.0, TraceParams(), seed=3), cfg)))
"""


@pytest.mark.parametrize("d", [2, 6])
def test_joint_noise_analysis_bytes_do_not_depend_on_the_blas_thread_count(d):
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    results = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        run = subprocess.run(
            [sys.executable, "-c", _ANALYSE_AT_DEFAULT_TIMING, str(d)],
            env=dict(env, **threads), capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        results.append(run.stdout)
    assert results[0] == results[1]


def test_joint_noise_analysis_needs_idle_window():
    cfg = _ideal_config(d=1)
    params = TraceParams(sample_rate=2e7, cycle=1e-3, gate=(0.0, 1e-3),
                         n_cycles=2, drive_freq=4e6)
    traces = synthesize(cfg, 1e-3, params, seed=2)
    with pytest.raises(AnalysisError):
        joint_noise_analysis(traces, cfg)


@pytest.mark.parametrize("params", GATE_CASES)
def test_sampled_tone_matches_materialized_joint_series(params, monkeypatch):
    cfg = configure_optimal(weight_pattern("asym", 3), 1e8, 0.3, eta_dis=0.95)
    delta = np.array([2e-4, -1e-4, 3e-4])
    w = tracelab._joint_weights(cfg)
    amp = float(np.dot(cfg.weights, delta))
    # zero noise factor: only the gated drive is left in either path
    monkeypatch.setattr(tracelab, "_noise_factor", lambda gamma: np.zeros_like(gamma))
    traces = synthesize(cfg, delta, params, seed=8)
    joint = w @ (traces.samples - synthesize(cfg, 0.0, params, seed=8).samples)
    try:
        length = tracelab._check_analysis(params, 1e5)
    except AnalysisError as refused:
        # a window without a segment: the sampler and the analysis of the
        # materialized run refuse the timing with the same message
        with pytest.raises(AnalysisError, match=re.escape(str(refused))):
            simulate_joint_noise(cfg, 1.0, delta, params, seed=8)
        with pytest.raises(AnalysisError, match=re.escape(str(refused))):
            joint_noise_analysis(traces, cfg)
        return
    # the materialized series' band powers over each window's segments
    expected = [float(np.concatenate([
        segment_band_powers(joint[a:a + count * length], params.sample_rate,
                            params.drive_freq, 1e5)
        for a, count in tracelab._segment_layout(params, length, invert)]).mean())
        for invert in (False, True)]
    sampled = tracelab._sampled_powers(0.0, amp, params, 8, 1e5, (False, True))
    assert sampled == pytest.approx(expected, rel=1e-9, abs=0.0)
    assert expected[0] > 0.0


def test_a_trace_scan_builds_one_segment_plan(tmp_path):
    # fig5b's three trace points and their three reference runs share one
    # plan, and the analysis blocks of a synthesized run share one kernel
    scenarios.reproduce("fig5b", tmp_path)
    info = tracelab._segment_plan.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    tracelab._bin_kernel.cache_clear()
    cfg = _ideal_config()
    joint_noise_analysis(synthesize(cfg, 1e-3, FAST, seed=3), cfg)
    info = tracelab._bin_kernel.cache_info()
    assert info.misses == 1 and info.hits > 10


def _leaves(value):
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_cached_plan_arrays_are_read_only():
    # the cached kernel is read-only, and the cached plan holds a few
    # numbers per window, not arrays that grow with the trace
    kernel, _ = tracelab._bin_kernel(FAST.sample_rate, FAST.drive_freq, 1e5)
    with pytest.raises(ValueError, match="read-only"):
        kernel[0] = 0
    short, long = (tracelab._segment_plan(dataclasses.replace(FAST, n_cycles=n), 1e5)
                   for n in (10, 1000))
    shapes = [[type(leaf) for leaf in _leaves(dataclasses.astuple(plan))]
              for plan in (short, long)]
    assert shapes[0] == shapes[1]
    assert set(shapes[0]) <= {int, float}
    assert [n for n, *_ in long.windows] == [100 * n for n, *_ in short.windows]


def test_a_trace_point_builds_the_network_once(tmp_path, monkeypatch):
    # fig5b's three points: one build each for the numeric engine, whose
    # variance the trace engine reuses; the reference run needs none
    builds = []
    build = network.build_network
    monkeypatch.setattr(network, "build_network",
                        lambda cfg: builds.append(cfg) or build(cfg))
    scenarios.reproduce("fig5b", tmp_path)
    assert len(builds) == 3


def test_reference_variance_is_the_engine_variance_without_a_build(rng, monkeypatch):
    # r = 0, no loss and theta = 0: the engine's Gamma is exactly the
    # identity, so x . x over the kept channels is its x^T Gamma x, bit for
    # bit, with zero-weight dark channels dropped
    sigmas = []
    monkeypatch.setattr(tracelab, "_sampled_powers",
                        lambda sigma, *args: sigmas.append(sigma) or [1.0])
    n_dark = 0
    for _ in range(300):
        cfg = scenarios._random_config(rng, d_max=8, optimal_p=False)
        dark = rng.random(cfg.d) < 0.3
        dark &= not dark.all()
        if dark.any():
            n_dark += 1
            cfg = cfg.with_updates(
                weights=tuple(np.where(dark, 0.0, cfg.weights)),
                alphas=tuple((0.0, 0.0) if off else alpha
                             for off, alpha in zip(dark, cfg.alphas)))
        ref = sql_reference_config(cfg)
        assert np.array_equal(noise_matrix(ref), np.eye(cfg.d))
        x, keep = network._kept_weights(ref)
        assert np.array_equal(keep, ~dark)
        assert float(x @ x) == sensitivity_numeric(ref)
        tracelab._reference_power(cfg, FAST, 1, 1e5)
        assert sigmas[-1] == math.sqrt(sensitivity_numeric(ref))
    assert n_dark > 50
    # a weighted dark channel is still refused
    dark = NetworkConfig(d=2, r=0.3, alphas=((1.0, 0.0), (0.0, 0.0)),
                         weights=(0.5, 0.5), P=(0.5, 0.5))
    with pytest.raises(DarkResponseError):
        tracelab._reference_power(dark, FAST, 1, 1e5)


def test_refused_analysis_raises_on_every_call():
    no_idle = GATE_CASES[1]
    cfg = _ideal_config(d=1)
    for _ in range(2):
        with pytest.raises(AnalysisError, match="rbw must be > 0"):
            tracelab._segment_plan(FAST, 0.0)
        with pytest.raises(AnalysisError, match="rbw must be <= sample_rate/4"):
            tracelab._bin_kernel(FAST.sample_rate, FAST.drive_freq, 1e7)
        # 50 000-sample segments fit in no gated and in no idle span
        with pytest.raises(AnalysisError, match="in the gated window"):
            tracelab._segment_plan(FAST, 400.0)
        with pytest.raises(AnalysisError, match="in the idle window"):
            simulate_joint_noise(cfg, sensitivity_numeric(cfg), 1e-3, no_idle,
                                 seed=2)
    # a refused analysis caches no plan and builds no kernel
    assert tracelab._segment_plan.cache_info().currsize == 0
    assert tracelab._bin_kernel.cache_info().currsize == 0


def test_both_paths_share_the_reference_power():
    cfg = configure_optimal(weight_pattern("asym", 3), 1e8, 0.3, eta_dis=0.95)
    for seed in (0, 5):
        analysed = joint_noise_analysis(synthesize(cfg, 0.0, FAST, seed), cfg)
        sampled = simulate_joint_noise(cfg, sensitivity_numeric(cfg), 0.0, FAST,
                                       seed)
        assert analysed.reference_power == sampled.reference_power


def test_sampled_reference_matches_synthesized_reference_over_seeds():
    # the shot-noise run's joint series, synthesized per channel and
    # analysed, against its segment-sampled idle power; the synthesized run
    # takes key `seed` and the sampler key _reference_seed(seed), so the two
    # samples are independent
    cfg = configure_optimal(weight_pattern("asym", 3), 1e8, 0.3, eta_dis=0.95)
    ref = sql_reference_config(cfg)
    w_ref = tracelab._joint_weights(ref)
    sampled, synthesized = [], []
    for seed in range(64):
        sampled.append(tracelab._reference_power(cfg, FAST, seed, 1e5))
        series = w_ref @ synthesize(ref, 0.0, FAST, seed).samples
        synthesized.append(tracelab._read_pieces(
            np.ones(1), lambda a, b: series[None, a:b], FAST, 1e5)[1])
    a, b = 10.0 * np.log10(sampled), 10.0 * np.log10(synthesized)
    n = a.size
    mean_se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n)
    assert abs(a.mean() - b.mean()) < 4.0 * mean_se
    sd_se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(2.0 * (n - 1))
    assert abs(a.std(ddof=1) - b.std(ddof=1)) < 4.0 * sd_se


def test_window_draws_match_the_per_segment_sampler_over_seeds():
    # each window's dB at the fig2 timing and variance, drive off and on,
    # against the sampler that draws one normal pair per segment
    scenario = load_scenario(bundled_scenario_path("fig2"))
    trace = scenarios._trace_block(scenario.trace)
    cfg = scenario.base_config()
    sigma = math.sqrt(sensitivity_numeric(cfg))
    drive = float(np.dot(cfg.weights, scenarios._signed_drive(cfg, trace)))
    for amp in (0.0, drive):
        exact, reference = (
            10.0 * np.log10([sampler(sigma, amp, trace.params, seed, trace.rbw,
                                     (False, True)) for seed in range(64)])
            for sampler in (tracelab._sampled_powers, per_segment_powers))
        n = exact.shape[0]
        for a, b in zip(exact.T, reference.T):
            spread = math.hypot(a.std(ddof=1), b.std(ddof=1))
            assert abs(a.mean() - b.mean()) < 4.0 * spread / math.sqrt(n)
            assert (abs(a.std(ddof=1) - b.std(ddof=1))
                    < 4.0 * spread / math.sqrt(2.0 * (n - 1)))


class _DrawLog:
    """A generator that logs how many variates each of its calls returns."""

    def __init__(self, rng):
        self._rng, self.counts = rng, []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.counts.append(np.size(out))
            return out
        return draw


def test_draw_count_does_not_depend_on_the_segment_count(monkeypatch):
    # two gamma and two normal variates per window, at 10 and at 1000 cycles
    logs = []
    channel_rng = tracelab._channel_rng
    monkeypatch.setattr(tracelab, "_channel_rng", lambda seed, channel: logs.append(
        _DrawLog(channel_rng(seed, channel))) or logs[-1])
    for windows in ((False,), (True,), (False, True)):
        for n_cycles in (10, 1000):
            params = dataclasses.replace(FAST, n_cycles=n_cycles)
            tracelab._sampled_powers(1.0, 1e-3, params, 5, 1e5, windows)
            assert logs[-1].counts == [2, 2] * len(windows)


def _fig2_trace_points():
    scenario = load_scenario(bundled_scenario_path("fig2"))
    spec = scenario.scans[0]
    rows = scan(spec.axis, spec.grid, scenario.base_config(spec.overrides),
                engines=("analytic",))
    return scenario, rows


def test_sampled_noise_matches_segment_statistics_over_seeds():
    # the idle power of each run is a mean of N exponential segment powers,
    # so the dB ratio of two runs has sd 10/ln(10) sqrt(1/N_idle + 1/N_ref)
    scenario, rows = _fig2_trace_points()
    trace = scenarios._trace_block(scenario.trace)
    params = trace.params
    length = int(round(params.sample_rate / scenario.trace["rbw"]))
    n_idle = sum((b - a) // length
                 for a, b in tracelab._window_spans(params, invert=True))
    sd_model = 10.0 / math.log(10.0) * math.sqrt(2.0 / n_idle)
    for row in rows:
        errors = np.array([
            scenarios._run_trace_point(row, trace, seed)[0] - row.db_below_sql
            for seed in range(64)
        ])
        sd = errors.std(ddof=1)
        assert abs(errors.mean()) < 4.0 * sd / math.sqrt(errors.size)
        assert abs(sd - sd_model) < 4.0 * sd / math.sqrt(2.0 * (errors.size - 1))


def test_simulate_joint_noise_builds_no_series(peak_bytes):
    scenario, rows = _fig2_trace_points()
    trace = scenarios._trace_block(scenario.trace)
    peak = peak_bytes(lambda: scenarios._run_trace_point(rows[0], trace, 1))
    # one 1.6 M-sample series alone would take 12.8 MB
    assert peak < 4e6


def test_simulate_joint_noise_recovers_model_over_seeds():
    cfg = configure_optimal(weight_pattern("asym", 4), 1e10, 0.75,
                            eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)
    model = laws.db_below_sql(0.75, cfg.Lambda)
    variance = sensitivity_numeric(cfg)
    errors = np.array([
        simulate_joint_noise(cfg, variance, 0.0, FAST, seed=seed).db_below_sql - model
        for seed in range(16)
    ])
    std_error = errors.std(ddof=1) / math.sqrt(errors.size)
    assert abs(errors.mean()) < 4.0 * std_error


def test_simulate_joint_noise_estimates_drive_amplitude():
    cfg = configure_optimal(weight_pattern("ave", 2), 1e8, 0.3)
    delta = 2e-4
    result = simulate_joint_noise(cfg, sensitivity_numeric(cfg),
                                  np.sign(cfg.weights) * delta, FAST, seed=21)
    assert result.snr_db > 20.0
    assert result.delta_theta_hat == pytest.approx(delta, rel=0.02)


def test_simulate_joint_noise_guards():
    dark = NetworkConfig(d=2, r=0.3, alphas=((1.0, 0.0), (0.0, 0.0)),
                         weights=(0.5, 0.5), P=(0.5, 0.5))
    # the trace engine checks its own config, whatever variance it is handed:
    # channel 1 is dark only in this config, not in its shot-noise reference
    dim = NetworkConfig(d=2, r=0.3, alphas=((0.8, 0.0), (0.8, 0.0)),
                        thetas=(0.0, math.pi - 2e-14), weights=(0.5, 0.5),
                        P=(0.5, 0.5), eta_dis=0.9)
    network._kept_weights(sql_reference_config(dim))
    for cfg in (dark, dim):
        with pytest.raises(DarkResponseError) as err:
            simulate_joint_noise(cfg, 1.0, 0.0, FAST, seed=1)
        assert err.value.channels == (1,)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_u64_key_range_is_a_config_error(seed):
    cfg = _ideal_config()
    with pytest.raises(ConfigError, match="seed"):
        simulate_joint_noise(cfg, sensitivity_numeric(cfg), 0.0, FAST, seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        synthesize(cfg, 0.0, FAST, seed=seed)


def test_noise_factor_rejects_indefinite_matrix():
    from mzinet.errors import RegularizationError
    from mzinet.tracelab import _noise_factor

    with pytest.raises(RegularizationError):
        _noise_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    # borderline PSD (zero eigenvalue) is accepted via the eigen fallback
    factor = _noise_factor(np.ones((2, 2)))
    assert np.allclose(factor @ factor.T, np.ones((2, 2)), atol=1e-12)


def test_noise_factor_maps_a_failed_decomposition_to_its_typed_error(monkeypatch):
    from mzinet.errors import RegularizationError

    def no_convergence(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(RegularizationError, match="did not converge"):
        tracelab._noise_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_zero_band_power_names_its_window():
    # all-zero samples, the record of a dead acquisition
    cfg = _ideal_config(d=2)
    samples = np.zeros((2, tracelab._n_samples(FAST)))
    with pytest.raises(AnalysisError, match="gated window is 0.0"):
        joint_noise_analysis(TraceSet(samples, FAST, 5), cfg)
    # noise inside the gate spans only: the idle window reads 0
    for a, b in tracelab._window_spans(FAST):
        samples[:, a:b] = np.random.default_rng(a).standard_normal((2, b - a))
    with pytest.raises(AnalysisError, match="idle window is 0.0"):
        joint_noise_analysis(TraceSet(samples, FAST, 5), cfg)


def test_trace_file_round_trip(tmp_path):
    cfg = _ideal_config()
    traces = synthesize(cfg, 1e-3, FAST, seed=77)
    path = write_trace(tmp_path / "run.mztr", traces)
    loaded = read_trace(path)
    assert loaded.params == traces.params
    assert loaded.seed == traces.seed
    assert np.array_equal(loaded.samples, traces.samples)


@st.composite
def _trace_sets(draw):
    """TraceSets of 1-3 channels at short timings that TraceParams accepts:
    whole-sample cycles and gates at any rate, and a payload of n_cycles
    whole cycles plus part of one more."""
    rate = draw(st.floats(1e3, 1e9))
    n = draw(st.integers(2, 400))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    params = TraceParams(sample_rate=rate, cycle=n / rate, gate=(lo / rate, hi / rate),
                         n_cycles=draw(st.integers(1, 3)),
                         drive_freq=rate * draw(st.floats(1e-3, 0.19)))
    shape = (draw(st.integers(1, 3)), n * params.n_cycles + draw(st.integers(0, n - 1)))
    samples = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(shape)
    return TraceSet(samples, params, draw(st.integers(0, 2**64 - 1)))


@settings(deadline=None, max_examples=60)
@given(traces=_trace_sets())
def test_trace_file_round_trip_of_any_accepted_timing(tmp_path_factory, traces):
    loaded = read_trace(write_trace(tmp_path_factory.mktemp("trace") / "run.mztr", traces))
    assert loaded.params == traces.params
    assert loaded.seed == traces.seed
    assert np.array_equal(loaded.samples, traces.samples)


def test_trace_file_round_trip_holds_one_copy_of_the_samples(tmp_path, peak_bytes):
    traces = synthesize(_ideal_config(d=4), 1e-3, FAST, seed=77)
    path = tmp_path / "run.mztr"
    peak = peak_bytes(lambda: read_trace(write_trace(path, traces)))
    assert peak < traces.samples.nbytes + 1e6


def test_failed_trace_write_leaves_no_partial_file(tmp_path):
    cfg = _ideal_config()
    good = synthesize(cfg, 0.0, FAST, seed=3)
    path = write_trace(tmp_path / "run.mztr", good)
    # the header packs, then the samples fail to convert mid-write
    params = TraceParams(sample_rate=2e7, cycle=1e-4, gate=(0.0, 5e-5), drive_freq=4e6)
    bad = TraceSet(np.full((1, 2000), "x", dtype=object), params, seed=1)
    with pytest.raises(ValueError):
        write_trace(path, bad)
    with pytest.raises(ValueError):
        write_trace(tmp_path / "fresh.mztr", bad)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.mztr"]
    assert np.array_equal(read_trace(path).samples, good.samples)


def test_trace_file_magic_guard(tmp_path):
    bad = tmp_path / "bad.mztr"
    bad.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(AnalysisError):
        read_trace(bad)


def test_trace_file_truncation_guards(tmp_path):
    short = tmp_path / "short.mztr"
    short.write_bytes(b"MZTR\x01")
    with pytest.raises(AnalysisError):
        read_trace(short)
    cfg = _ideal_config()
    traces = synthesize(cfg, 0.0, FAST, seed=3)
    path = write_trace(tmp_path / "cut.mztr", traces)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])  # breaks the channel alignment
    with pytest.raises(AnalysisError):
        read_trace(path)
    # whole samples of two channels, but one short of FAST's 80 000-sample
    # cycle: a TraceSet cannot hold that, so the file is written here
    path = tmp_path / "short_cycle.mztr"
    path.write_bytes(tracelab._HEADER.pack(tracelab.MAGIC, tracelab.VERSION, 2, 2e7,
                                           FAST.cycle, *FAST.gate, 4e6, 3)
                     + np.zeros((2, 79_999)).tobytes())
    with pytest.raises(AnalysisError) as err:
        read_trace(path)
    assert str(path) in str(err.value) and "shorter than one cycle" in str(err.value)


def _with_header_fields(tmp_path, start, *values):
    """A two-channel FAST run of 320 000 samples per channel written as a
    trace file, with header fields start, start + 1, ... set to values."""
    path = write_trace(tmp_path / "run.mztr", synthesize(_ideal_config(), 0.0, FAST, seed=3))
    data = bytearray(path.read_bytes())
    fields = list(tracelab._HEADER.unpack_from(data))
    fields[start:start + len(values)] = values
    tracelab._HEADER.pack_into(data, 0, *fields)
    path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize("field, value, message", [
    (1, 1, "unsupported trace version 1"),
    (2, 3, "trace payload inconsistent with 3 channels"),
    (2, 0, "trace payload inconsistent with 0 channels"),
], ids=["unknown_version", "channels_not_dividing_payload", "no_channels"])
def test_trace_header_must_match_its_version_and_payload(tmp_path, field, value, message):
    # a version-1 file kept its cycle and drive in a sidecar: it is refused
    with pytest.raises(AnalysisError, match=message):
        read_trace(_with_header_fields(tmp_path, field, value))


@pytest.mark.parametrize("gate, message", [
    ((2.0e-3, 1.2e-3), "gate window must fit inside one cycle"),
    ((1.2e-3, 4.5e-3), "gate window must fit inside one cycle"),
    ((1.2e-3, 2.00001e-3), "gate must be a whole number of samples"),
], ids=["reversed", "outside_the_cycle", "not_whole_samples"])
def test_trace_header_gate_is_the_timing_trace_params_accepts(tmp_path, gate, message):
    path = _with_header_fields(tmp_path, 5, *gate)
    with pytest.raises(AnalysisError) as err:
        read_trace(path)
    assert str(path) in str(err.value) and message in str(err.value)


@pytest.mark.parametrize("field, value, message", [
    (4, 0.0, "cycle must be finite and > 0, got 0.0"),
    (4, math.nan, "cycle must be finite and > 0, got nan"),
    (4, 0.00400001, "cycle must be a whole number of samples"),
    (7, -4e6, "drive_freq must be finite and > 0, got -4000000.0"),
    (7, math.inf, "drive_freq must be finite and > 0, got inf"),
    (3, 0.0, "sample_rate must be finite and > 0, got 0.0"),
], ids=["cycle_zero", "cycle_nan", "cycle_not_whole_samples", "drive_negative",
        "drive_inf", "rate_zero"])
def test_trace_header_timing_is_checked_by_trace_params(tmp_path, field, value, message):
    path = _with_header_fields(tmp_path, field, value)
    with pytest.raises(AnalysisError) as err:
        read_trace(path)
    assert str(err.value).startswith(f"trace {path}: {message}")
