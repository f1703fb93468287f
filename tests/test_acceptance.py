"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured value (run with -s to see them inline)."""

import math
import time

import numpy as np
import pytest

from mzinet import laws
from mzinet.fock import oracle_sensitivity
from mzinet.network import (
    closed_form_variance,
    sensitivity_numeric,
    weight_pattern,
)
from mzinet.optimize import (
    configure_optimal,
    optimize_squeezing,
    scan,
)
from mzinet.scenarios import reproduce
from mzinet.tracelab import TraceParams, joint_noise_analysis, synthesize

from separable_reference import separable_min_variance

CAPTION_EFFS = dict(eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)


def _caption_lambda(k):
    return configure_optimal((1.0,), 1.0, 0.0, K=k, **CAPTION_EFFS).Lambda


def _report(number, detail):
    print(f"[ACCEPTANCE] criterion {number}: PASS - {detail}")


@pytest.fixture(scope="module")
def fig2_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    start = time.monotonic()
    (csv_path,) = reproduce("fig2", out)
    elapsed = time.monotonic() - start
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows[int(row["K"])] = row
    return rows, elapsed


def test_criterion_01_joint_noise_suppression(fig2_rows):
    rows, elapsed = fig2_rows
    row = rows[1]
    assert row["status"] == "ok"
    model = float(row["db_below_sql"])
    direct = laws.db_below_sql(0.75, _caption_lambda(1))
    assert model == pytest.approx(direct, abs=1e-9)
    assert round(model, 2) == 4.46
    assert 4.36 - 0.35 <= model <= 4.36 + 0.35
    # The Monte Carlo row scatters from seed to seed by
    # 10/ln(10) sqrt(1/N_idle + 1/N_ref) = 4.343 sqrt(2/6400) = 0.077 dB at
    # fig2's 6400 idle segments per run: a quarter of the paper's +-0.35 dB,
    # so most of that error bar lies outside the shot-noise model.  It is
    # stated here, not fitted.
    mc = float(row["db_below_sql_mc"])
    assert abs(mc - model) < 0.2
    assert elapsed < 30.0
    _report(1, f"model {model:.2f} dB in 4.36+-0.35, MC {mc:.2f} dB, "
               f"{elapsed:.1f} s")


def test_criterion_02_snr_multipass_gain(fig2_rows):
    rows, elapsed = fig2_rows
    row = rows[5]
    assert row["status"] == "ok"
    model_gain = float(row["db_below_sql"])  # vs the K=1 ideal coherent run
    assert model_gain == pytest.approx(
        10 * math.log10(5) + laws.db_below_sql(0.75, _caption_lambda(5)),
        abs=1e-6)
    assert abs(model_gain - 11.45) < 0.05
    assert 11.09 - 0.38 <= model_gain <= 11.09 + 0.38
    mc = float(row["db_below_sql_mc"])
    assert abs(mc - model_gain) < 0.2
    assert elapsed < 30.0
    _report(2, f"model gain {model_gain:.2f} dB in 11.09+-0.38, MC {mc:.2f} dB")


def test_criterion_03_high_intensity_point():
    start = time.monotonic()
    variance = laws.optimized_variance(2.7e16, 0.75, Lambda=_caption_lambda(5),
                                       K=5)
    std = math.sqrt(variance)
    assert std == pytest.approx(1.6e-9, abs=0.05e-9)
    assert std / 1.4e-9 < 1.2
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(3, f"std {std:.3e} rad, ratio to 1.4e-9 = {std / 1.4e-9:.3f}")


def _crossover(rows, baseline):
    previous = None
    for row in rows:
        value = float(row.variance_numeric)
        if previous is not None and previous[1] > baseline >= value:
            x0, v0 = previous
            x1, v1 = float(row.value), value
            return x0 + (v0 - baseline) * (x1 - x0) / (v0 - v1)
        previous = (float(row.value), value)
    raise AssertionError("no sub-baseline crossing found")


def test_criterion_04_loss_crossover():
    start = time.monotonic()
    grid = np.linspace(0.05, 1.0, 96)
    thresholds = {}
    for k in (1, 5):
        base = configure_optimal(weight_pattern("ave", 6), 2.7e16, 0.75,
                                 K=k, **CAPTION_EFFS)
        rows = scan("eta_dis", grid, base)
        baseline = 1.0 / base.n_T  # conventional single-pass shot noise
        thresholds[k] = _crossover(rows, baseline)
    assert abs(thresholds[1] - 0.65) <= 0.03
    assert abs(thresholds[5] - 0.20) <= 0.03
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(4, f"eta_dis thresholds K=1: {thresholds[1]:.3f}, "
               f"K=5: {thresholds[5]:.3f}")


def test_criterion_05_sql_to_heisenberg_crossover():
    start = time.monotonic()
    _, v = optimize_squeezing(100.0, Lambda=0.0)
    assert v == pytest.approx(1e-4, rel=0.02)
    _, v = optimize_squeezing(1e-3, Lambda=0.14)
    assert v == pytest.approx(1.14 / 1e-3, rel=0.02)
    _, v = optimize_squeezing(1e6, Lambda=1e-3)
    assert v == pytest.approx(1e-3 / 1e6, rel=0.05)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(5, "Heisenberg at n_T=100, shot-noise prefactor at n_T=1e-3, "
               "loss floor at n_T=1e6")


def test_criterion_06_d_scaling():
    start = time.monotonic()
    n_c_per_node = 4.5e15
    lam = _caption_lambda(5)
    closed = {d: laws.scaling_with_d(n_c_per_node, d, 0.75, Lambda=lam, K=5)
              for d in (3, 5, 6)}
    for d in (3, 5, 6):
        assert closed[d] * d == pytest.approx(closed[6] * 6, rel=1e-9)
    numeric = {}
    for d in (3, 5, 6):
        cfg = configure_optimal(weight_pattern("ave", d), d * n_c_per_node,
                                0.75, K=5, **CAPTION_EFFS)
        numeric[d] = sensitivity_numeric(cfg)
    for d in (3, 5, 6):
        assert numeric[d] * d == pytest.approx(numeric[6] * 6, rel=1e-6)
        assert math.sqrt(numeric[d] / numeric[6]) == pytest.approx(
            math.sqrt(6 / d), rel=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(6, f"variance*d constant to {max(abs(numeric[d] * d / (numeric[6] * 6) - 1) for d in (3, 5)):.1e}")


def test_criterion_07_weight_structure_invariance():
    start = time.monotonic()
    analytic = {}
    numeric = {}
    mc = {}
    params = TraceParams(sample_rate=2e7, cycle=8e-3, gate=(2.4e-3, 4e-3),
                         n_cycles=10, drive_freq=4e6)
    for offset, name in enumerate(("ave", "stag", "asym")):
        nu = weight_pattern(name, 6)
        cfg = configure_optimal(nu, 2.7e16, 0.75, **CAPTION_EFFS)
        analytic[name] = laws.optimized_variance(
            cfg.n_c, 0.75, Lambda=cfg.Lambda,
            K=cfg.enhancement) * laws.weight_sum(nu) ** 2
        numeric[name] = sensitivity_numeric(cfg)
        # independent noise draws per pattern: the 0.2 dB agreement is a
        # statistical statement, not a shared-seed identity
        traces = synthesize(cfg, 0.0, params, seed=424242 + offset)
        mc[name] = joint_noise_analysis(traces, cfg).db_below_sql
    for name in ("stag", "asym"):
        assert analytic[name] == pytest.approx(analytic["ave"], rel=1e-10)
        assert numeric[name] == pytest.approx(numeric["ave"], rel=1e-10)
    assert max(mc.values()) - min(mc.values()) < 0.2
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(7, f"three weight structures agree; MC spread "
               f"{max(mc.values()) - min(mc.values()):.3f} dB, {elapsed:.1f} s")


def test_criterion_08_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(25):
        d = int(rng.integers(1, 4))
        nu = rng.uniform(0.2, 1.0, d) * rng.choice([-1.0, 1.0], d)
        mags = rng.uniform(0.3, 1.0, d)
        alphas = tuple((m, 0.0 if w >= 0 else math.pi)
                       for m, w in zip(mags, nu))
        p = rng.uniform(0.05, 1.0, d)
        p /= p.sum()
        from mzinet.network import NetworkConfig

        cfg = NetworkConfig(
            d=d, r=float(rng.uniform(0.0, 0.4)), alphas=alphas,
            weights=tuple(nu), P=tuple(p),
            eta_dis=float(rng.uniform(0.8, 1.0)),
            eta_mzi=float(rng.uniform(0.9, 1.0)),
        )
        oracle = oracle_sensitivity(cfg)
        engine = sensitivity_numeric(cfg)
        closed = closed_form_variance(cfg)
        worst = max(worst, abs(oracle - engine) / engine,
                    abs(oracle - closed) / closed,
                    abs(engine - closed) / closed)
    assert worst < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(8, f"25 configs, worst three-way deviation {worst:.2e}")


def test_criterion_09_qcrb_saturation():
    start = time.monotonic()
    for n_c in (1e4, 1e5, 1e7, 1e9):
        for r in (0.1, 0.4, 0.75, 1.0):
            ratio = laws.optimized_variance(n_c, r) / laws.qcrb(n_c, r)
            assert ratio - 1 < 10 * math.sinh(r) ** 2 * math.exp(-2 * r) / n_c
            assert ratio >= 1 - 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(9, "bound saturated at rate sinh^2(r) e^{-2r} / n_c")


def test_criterion_10_gain_law():
    start = time.monotonic()
    unequal = (0.7, -0.2, 0.1)  # an arbitrary linear combination of the phases
    realized = {"low": {}, "high": {}}
    for regime, lam, n_t, vectors in (
            # Heisenberg window, Lambda n_T = 1e-4
            ("low", 1e-8, 1e4, [weight_pattern("ave", d) for d in (2, 4, 6)] + [unequal]),
            ("high", 0.1, 1e6, [weight_pattern("ave", 4), unequal])):  # deep loss floor
        _, ent = optimize_squeezing(n_t, Lambda=lam)
        for nu in vectors:
            sep = separable_min_variance(n_t, Lambda=lam, nu=nu).variance
            gain = sep / (ent * laws.weight_sum(nu) ** 2)
            assert gain == pytest.approx(laws.gain(nu, regime), rel=0.02)
            realized[regime][f"nu={nu}" if nu is unequal else len(nu)] = gain
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(10, f"low-regime gains {realized['low']}, "
                f"high-regime gains {realized['high']}")
