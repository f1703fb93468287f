import hashlib
import json
import math
from pathlib import Path

import mpmath
import pytest

import numpy as np

from mzinet import cli, optimize, scenarios
from mzinet.errors import (
    AnalysisError,
    ConfigError,
    DarkResponseError,
    ScenarioParseError,
)
from mzinet.network import noise_matrix, response
from mzinet.scenarios import (
    FIGURES,
    bundled_scenario_path,
    load_scenario,
    photon_flux,
    reproduce,
    run_scenario,
    verify,
)

SCENARIO = {
    "schema": 1,
    "name": "demo",
    "seed": 123,
    "network": {
        "d": 3, "r": 0.75, "K": 1, "weights": "ave", "n_c": 1e4,
        "eta_dis": 0.99, "eta_mzi": 0.89, "eta_m": 0.9999,
    },
    "scans": [
        {"label": "loss", "axis": "eta_dis",
         "grid": [0.2, 0.4, 0.6, 0.8, 1.0],
         "engines": ["analytic", "numeric"]},
    ],
}


def _write_scenario(tmp_path, doc=SCENARIO, name="demo.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_run_scenario_writes_expected_columns(tmp_path):
    path = _write_scenario(tmp_path)
    written = run_scenario(path, tmp_path / "out")
    assert len(written) == 1
    header, rows = _read_csv(written[0])
    assert header[0] == "eta_dis"
    for column in ("variance_numeric", "variance_closed_form", "variance_qcrb",
                   "sql", "db_below_sql", "regime", "n_s_opt", "status"):
        assert column in header
    assert len(rows) == 5
    assert all(row["status"] == "ok" for row in rows)
    for row in rows:
        num = float(row["variance_numeric"])
        closed = float(row["variance_closed_form"])
        assert num == pytest.approx(closed, rel=1e-9)
    assert (tmp_path / "out" / "demo_meta.txt").exists()


def test_run_scenario_leaves_a_passed_scenario_unchanged(tmp_path):
    scenario = load_scenario(_write_scenario(tmp_path))
    run_scenario(scenario, tmp_path / "out", seed=7)
    assert scenario.seed == 123
    meta = (tmp_path / "out" / "demo_meta.txt").read_text().splitlines()
    assert meta[1] == "seed: 7"


def test_run_scenario_float_format_round_trips(tmp_path):
    path = _write_scenario(tmp_path)
    (csv_path,) = run_scenario(path, tmp_path / "out")
    _, rows = _read_csv(csv_path)
    value = float(rows[0]["variance_closed_form"])
    assert f"{value:.16e}" == rows[0]["variance_closed_form"]


def test_run_scenario_deterministic_bytes(tmp_path):
    path = _write_scenario(tmp_path)
    (a,) = run_scenario(path, tmp_path / "out1")
    (b,) = run_scenario(path, tmp_path / "out2")
    assert a.read_bytes() == b.read_bytes()


def test_run_scenario_parse_error_no_partial_output(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1, "name": "x", oops}')
    out = tmp_path / "out"
    with pytest.raises(ScenarioParseError) as err:
        run_scenario(path, out)
    assert err.value.line is not None
    assert not out.exists() or not list(out.glob("*.csv"))


def test_run_scenario_schema_mismatch(tmp_path):
    doc = dict(SCENARIO, schema=2)
    path = _write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioParseError):
        run_scenario(path, tmp_path / "out")


def test_run_scenario_rejects_non_object_document(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ScenarioParseError):
        run_scenario(path, tmp_path / "out")


def test_scenario_rejects_oracle_for_large_networks(tmp_path):
    doc = json.loads(json.dumps(SCENARIO))
    doc["scans"][0]["engines"] = ["analytic", "oracle"]
    doc["network"]["d"] = 6
    path = _write_scenario(tmp_path, doc)
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_run_scenario_oracle_engine_column(tmp_path):
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"].update(d=2, r=0.2, n_c=0.98)
    doc["scans"] = [{"label": "tiny", "axis": "eta_dis", "grid": [0.9, 1.0],
                     "engines": ["analytic", "numeric", "oracle"]}]
    path = _write_scenario(tmp_path, doc)
    (csv_path,) = run_scenario(path, tmp_path / "out")
    _, rows = _read_csv(csv_path)
    for row in rows:
        assert row["status"] == "ok"
        oracle = float(row["variance_oracle"])
        assert oracle == pytest.approx(float(row["variance_numeric"]), rel=1e-6)


TRACE_BLOCK = {
    "sample_rate": 2e7, "cycle": 4e-3, "gate": [1.2e-3, 2.0e-3],
    "n_cycles": 4, "drive_freq": 4e6, "delta_theta": 2e-4, "rbw": 1e5,
}


def _trace_scenario(tmp_path, **trace):
    doc = json.loads(json.dumps(SCENARIO))
    doc["scans"] = [{"label": "mc", "axis": "eta_dis", "grid": [0.9, 1.0],
                     "engines": ["analytic", "trace"]}]
    doc["trace"] = dict(TRACE_BLOCK, **trace)
    return _write_scenario(tmp_path, doc)


def test_trace_row_status_only_for_typed_errors(tmp_path, monkeypatch):
    path = _trace_scenario(tmp_path)

    def analysis_failure(row, trace, row_seed):
        raise AnalysisError("no complete analysis segment in the window")

    monkeypatch.setattr(scenarios, "_run_trace_point", analysis_failure)
    (csv_path,) = run_scenario(path, tmp_path / "out")
    _, rows = _read_csv(csv_path)
    assert all(row["status"].startswith("error:AnalysisError") for row in rows)

    def programming_error(row, trace, row_seed):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(scenarios, "_run_trace_point", programming_error)
    with pytest.raises(TypeError):
        run_scenario(path, tmp_path / "out")

    # analytic rows follow the same rule
    path = _write_scenario(tmp_path)

    def dark_engine(cfg):
        raise DarkResponseError([0])

    monkeypatch.setattr(optimize, "sensitivity_numeric", dark_engine)
    (csv_path,) = run_scenario(path, tmp_path / "out")
    _, rows = _read_csv(csv_path)
    assert all(row["status"].startswith("error:DarkResponseError") for row in rows)

    def broken_engine(cfg):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(optimize, "sensitivity_numeric", broken_engine)
    with pytest.raises(TypeError):
        run_scenario(path, tmp_path / "out")


def test_trace_cells_do_not_depend_on_the_numeric_engine(tmp_path):
    # with the numeric engine the trace point reuses the row's variance,
    # without it the point computes that variance itself
    cells = []
    for engines in (["analytic", "trace"], ["analytic", "numeric", "trace"]):
        doc = json.loads(_trace_scenario(tmp_path).read_text())
        doc["scans"][0]["engines"] = engines
        out = tmp_path / "-".join(engines)
        (csv_path,) = run_scenario(_write_scenario(tmp_path, doc), out)
        _, rows = _read_csv(csv_path)
        assert all(row["status"] == "ok" for row in rows)
        cells.append([(row["db_below_sql_mc"], row["snr_db_mc"]) for row in rows])
    assert cells[0] == cells[1]
    assert all(cell != "" for row in cells[0] for cell in row)


def test_scenario_rejects_bad_trace_block_at_load(tmp_path):
    path = _trace_scenario(tmp_path, sample_rate=1e6)
    with pytest.raises(ConfigError) as info:
        load_scenario(path)
    assert info.value.field == "trace"


def test_expand_grid_keeps_points_below_the_rounding_quantum():
    tiny = {"start": 1e-14, "stop": 1e-12, "num": 3, "spacing": "log"}
    assert scenarios._expand_grid(tiny) == pytest.approx(
        [1e-14, 1e-13, 1e-12], rel=1e-12, abs=0)
    # last-digit noise on ordinary grids is still rounded away
    assert scenarios._expand_grid({"start": 0.2, "stop": 1.0, "num": 9}) == [
        0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


@pytest.mark.parametrize("network, axis, grid", [
    ({"K": 2.7}, "K", [1, 5]),
    ({}, "K", [1, 2.7]),
    ({}, "d", [2, 2.5]),
], ids=["network_K", "grid_K", "grid_d"])
def test_cli_rejects_fractional_counts_at_load(tmp_path, capsys, network, axis, grid):
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"].update(network)
    doc["scans"] = [{"label": axis, "axis": axis, "grid": grid,
                     "engines": ["analytic"]}]
    _assert_rejected_at_load(tmp_path, capsys, doc, axis)


def _assert_rejected_at_load(tmp_path, capsys, doc, field):
    path = _write_scenario(tmp_path, doc)
    out = tmp_path / "o"
    code = cli.main(["scan", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert f"configuration error: {field}:" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError) as info:
        load_scenario(path)
    assert info.value.field == field


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, network, scan, trace", [
    ("r", {"r": NAN}, None, None),
    ("r", {"r": INF}, None, None),
    ("r", {"r": -0.1}, None, None),
    ("eta_dis", {"eta_dis": NAN}, None, None),
    ("eta_dis", {"eta_dis": 1.5}, None, None),
    ("n_c", {"n_c": NAN}, None, None),
    ("eta_dis", {}, {"axis": "eta_dis", "grid": [0.5, NAN]}, None),
    ("n_c", {}, {"axis": "n_c", "grid": [1e4, INF]}, None),
    ("n_T", {}, {"axis": "n_T", "grid": {"start": 1.0, "stop": NAN, "num": 3}}, None),
    ("weights", {}, {"axis": "weights", "grid": ["ave", "bogus"]}, None),
    ("trace", {}, None, {"delta_theta": NAN}),
    ("trace", {}, None, {"gate": [1.2e-3, INF]}),
    ("grid", {}, {"axis": "eta_dis", "grid": [0.5, 1.0, 0.9]}, None),
    ("axis", {}, {"axis": "n_x", "grid": [0.5, 0.9]}, None),
    ("axis", {}, {"grid": [0.5, 0.9]}, None),
    ("grid", {}, {"axis": "eta_dis"}, None),
    ("start", {}, {"axis": "n_T", "grid": {"stop": 1e4, "num": 3}}, None),
    ("stop", {}, {"axis": "n_T", "grid": {"start": 1e2, "num": 3}}, None),
    ("num", {}, {"axis": "n_T", "grid": {"start": 1e2, "stop": 1e4}}, None),
    ("num", {}, {"axis": "n_T", "grid": {"start": 1e2, "stop": 1e4, "num": 2.5}}, None),
    ("num", {}, {"axis": "n_T", "grid": {"start": 1e2, "stop": 1e4, "num": 0}}, None),
    ("num", {}, {"axis": "n_T", "grid": {"start": 1e2, "stop": 1e4, "num": -2}}, None),
    ("trace", {}, None, {"n_cycles": 2.7}),
    ("r", {"r": "0.75"}, None, None),
    ("mu", {"mu": "1"}, None, None),
    ("eta_dis", {"eta_dis": "0.9"}, None, None),
    ("weights", {"weights": [0.5, "0.25", 0.25]}, None, None),
    ("alphas", {"P": [0.2, 0.3, 0.5]}, None, None),
    ("P", {"alphas": [[30.0, 0.0], [30.0, 0.0], [30.0, 0.0]]}, None, None),
    ("alphas", {"alphas": [["30", 0.0], [30.0, 0.0], [30.0, 0.0]],
                "P": [0.2, 0.3, 0.5]}, None, None),
    ("thetas", {"thetas": [0.0, "0.1", 0.0]}, None, None),
    ("start", {}, {"axis": "n_T", "grid": {"start": "a", "stop": 1e4, "num": 3}}, None),
    ("include", {}, {"axis": "n_T", "grid": {"start": 1e2, "stop": 1e4, "num": 3,
                                             "include": [5e2, "x"]}}, None),
    ("start", {}, {"axis": "n_T", "grid": {"start": 0.0, "stop": 1e4, "num": 3,
                                           "spacing": "log"}}, None),
    ("stop", {}, {"axis": "n_T", "grid": {"start": 1e2, "stop": -1e4, "num": 3,
                                          "spacing": "log"}}, None),
    ("topology", {"topology": "separable"}, None, None),
    ("rbw", {}, None, {"rbw": 0}),
    ("rbw", {}, None, {"rbw": -1e5}),
    ("rbw", {}, None, {"rbw": 1e7}),
    ("grid", {}, {"axis": "n_c", "grid": [1e12, 1e12]}, None),
    ("grid", {}, {"axis": "K", "grid": [1, 1.0]}, None),
    ("grid", {}, {"axis": "weights", "grid": ["ave", "ave"]}, None),
    ("rbw", {}, None, {"rbw": 10}),
    ("rbw", {}, None, {"rbw": 1e3}),
    ("rbw", {}, None, {"gate": [5e-5, 3.95e-3], "rbw": 1e4}),
    ("K", {"K": True}, None, None),
    ("eta_dis", {"eta_dis": True}, None, None),
    ("eta_dis", {}, {"axis": "eta_dis", "grid": [0.5, True]}, None),
    ("num", {}, {"axis": "n_T", "grid": {"start": 1e2, "stop": 1e4, "num": True}}, None),
    ("trace", {}, None, {"delta_theta": True}),
    ("weights", {"weights": True}, None, None),
    ("weights", {"weights": 0.5}, None, None),
    ("weights", {"weights": {"ave": 1}}, None, None),
    ("trace", {}, None, {"cycle": 4.00001e-3}),
    ("trace", {}, None, {"gate": [1.2e-3, 2.00001e-3]}),
], ids=["network_r_nan", "network_r_inf", "network_r_negative",
        "network_eta_nan", "network_eta_above_one", "network_n_c_nan",
        "grid_nan", "grid_inf", "range_grid_nan", "grid_unknown_pattern",
        "trace_nan", "trace_inf", "grid_not_monotone", "unknown_axis",
        "scan_axis_missing", "scan_grid_missing", "range_start_missing",
        "range_stop_missing", "range_num_missing", "range_num_fraction",
        "range_num_zero", "range_num_negative", "trace_n_cycles_fraction",
        "network_r_string", "network_mu_string", "network_eta_string",
        "weights_string", "P_without_alphas", "alphas_without_P",
        "alphas_string", "thetas_string", "range_start_string",
        "range_include_string", "log_range_start_zero", "log_range_stop_negative",
        "network_topology_separable", "trace_rbw_zero", "trace_rbw_negative",
        "trace_rbw_above_quarter_rate", "grid_n_c_repeat", "grid_K_repeat",
        "grid_weights_repeat", "trace_rbw_segment_fits_no_span",
        "trace_rbw_segment_longer_than_gate", "trace_rbw_segment_longer_than_idle",
        "network_K_bool", "network_eta_bool", "grid_bool", "range_num_bool",
        "trace_bool", "weights_bool", "weights_number", "weights_object",
        "trace_cycle_not_whole_samples", "trace_gate_not_whole_samples"])
def test_cli_rejects_bad_values_at_load(tmp_path, capsys, field, network, scan, trace):
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"].update(network)
    if scan is not None:
        # after a valid scan, so a check made only at run time would have
        # written that scan's CSV before failing
        doc["scans"].append(dict(scan, label="s", engines=["analytic"]))
    if trace is not None:
        doc["scans"][0]["engines"] = ["analytic", "trace"]
        doc["trace"] = dict(TRACE_BLOCK, **trace)
    _assert_rejected_at_load(tmp_path, capsys, doc, field)


@pytest.mark.parametrize("axis, grid, repeat", [
    ("n_c", [1e12, 1e12], "1000000000000.0"),
    ("K", [1, 2, 1.0], "1.0"),
    ("weights", ["ave", "stag", "ave"], "'ave'"),
])
def test_scan_grid_repeat_names_the_point(axis, grid, repeat):
    base = scenarios._config_from_spec(SCENARIO["network"])
    with pytest.raises(ConfigError, match=f"grid: grid repeats the point {repeat}"):
        optimize.scan(axis, grid, base)


@pytest.mark.parametrize("field, edit", [
    ("d", lambda doc: doc["network"].pop("d")),
    ("seed", lambda doc: doc.update(seed=1.5)),
    ("seed", lambda doc: doc.update(seed=True)),
    ("include", lambda doc: doc["scans"][0].update(
        grid={"start": 0.2, "stop": 1.0, "num": 5, "include": 5})),
    ("overrides", lambda doc: doc["scans"][0].update(overrides=5)),
    ("overrides", lambda doc: doc["scans"][0].update(overrides=[1, 2])),
    ("scans", lambda doc: doc.update(scans=[5])),
    ("scans", lambda doc: doc.update(scans={"a": 1})),
    ("network", lambda doc: doc.update(network=[1, 2])),
    ("trace", lambda doc: doc.update(trace=[1, 2])),
    ("engines", lambda doc: doc["scans"][0].update(engines=5)),
    ("alphas", lambda doc: doc["network"].update(alphas=5, P=[0.5, 0.25, 0.25])),
    ("P", lambda doc: doc["network"].update(alphas=[[1.0, 0.0]] * 3, P=1.0)),
    ("name", lambda doc: doc.update(name="../escaped")),
    ("name", lambda doc: doc.update(name="a/b")),
    ("name", lambda doc: doc.update(name=".hidden")),
    ("name", lambda doc: doc.update(name=5)),
    ("name", lambda doc: doc.update(name="")),
    ("label", lambda doc: doc["scans"][0].update(label="../escaped")),
    ("label", lambda doc: doc["scans"][0].update(label="a/b")),
    ("label", lambda doc: doc["scans"][0].update(label=".hidden")),
    ("label", lambda doc: doc["scans"][0].update(label=5)),
    ("label", lambda doc: doc["scans"][0].update(label="")),
    ("engines", lambda doc: doc["scans"][0].update(engines=["fast"])),
    ("spacing", lambda doc: doc["scans"][0].update(
        grid={"start": 0.2, "stop": 1.0, "num": 5, "spacing": "cubic"})),
], ids=["network_d_missing", "seed_fraction", "seed_bool", "include_number",
        "overrides_number", "overrides_list", "scan_number", "scans_object",
        "network_list", "trace_list", "engines_number", "alphas_number",
        "P_number", "name_parent_path", "name_slash", "name_leading_dot",
        "name_number", "name_empty", "label_parent_path", "label_slash",
        "label_leading_dot", "label_number", "label_empty", "engines_unknown",
        "spacing_unknown"])
def test_cli_rejects_bad_document_fields_at_load(tmp_path, capsys, field, edit):
    doc = json.loads(json.dumps(SCENARIO))
    edit(doc)
    _assert_rejected_at_load(tmp_path, capsys, doc, field)
    # nothing but the scenario file, in or outside the output directory
    assert [path.name for path in tmp_path.rglob("*")] == ["demo.json"]


def test_failed_rows_are_counted_on_stderr(tmp_path, capsys):
    doc = json.loads(json.dumps(SCENARIO))
    doc["scans"] = [
        {"label": "bad", "axis": "eta_dis", "grid": [1.2, 1.5]},
        {"label": "mixed", "axis": "eta_dis", "grid": [0.5, 0.9, 1.2]},
        {"label": "clean", "axis": "eta_dis", "grid": [0.5, 0.9]},
    ]
    path = _write_scenario(tmp_path, doc)
    out = tmp_path / "o"
    assert cli.main(["scan", "--config", str(path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == ["demo_bad.csv: 2 of 2 rows failed",
                                "demo_mixed.csv: 1 of 3 rows failed"]
    _, rows = _read_csv(out / "demo_bad.csv")
    assert all(row["status"].startswith("error:ConfigError: eta_dis:") for row in rows)


def test_bundled_scenarios_exist_and_parse():
    for figure in FIGURES:
        scenario = load_scenario(bundled_scenario_path(figure))
        assert scenario.scans
        assert scenario.base_config().d >= 1


FINGERPRINT = Path(__file__).with_name("figure_fingerprint.json")
MC_COLUMNS = ("db_below_sql_mc", "snr_db_mc")


def _column_digest(path, monte_carlo):
    """sha256 of the Monte Carlo columns of a figure CSV (with monte_carlo)
    or of its other columns (without)."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, col in enumerate(rows[0]) if (col in MC_COLUMNS) == monte_carlo]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _figure_digests(path):
    """{key: sha256} of one figure output: the whole _meta.txt file, a CSV's
    deterministic columns, and, under "<name> monte_carlo", the Monte Carlo
    columns of a CSV that has any."""
    if path.suffix != ".csv":
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()}
    digests = {path.name: _column_digest(path, monte_carlo=False)}
    _, rows = _read_csv(path)
    if any(row[col] for row in rows for col in MC_COLUMNS):
        digests[f"{path.name} monte_carlo"] = _column_digest(path, monte_carlo=True)
    return digests


def test_every_bundled_figure_runs_quickly(tmp_path):
    """Each bundled figure runs in under a minute, and its deterministic
    columns, its Monte Carlo columns (fig2 and fig5b) and its _meta.txt hash
    to the committed behaviour fingerprint.  The Monte Carlo pin holds the
    seeded draw stream fixed: a change that moves it states why and
    regenerates the pin."""
    import time

    digests = {}
    for figure in FIGURES:
        start = time.monotonic()
        written = reproduce(figure, tmp_path / figure)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"{figure} took {elapsed:.1f} s"
        assert written
        for path in written:
            header, rows = _read_csv(path)
            assert rows, f"{path} is empty"
        for path in written + [tmp_path / figure / f"{figure}_meta.txt"]:
            digests.update(_figure_digests(path))
    expected = json.loads(FINGERPRINT.read_text())
    assert digests == expected, (
        "figure outputs moved; new digests:\n"
        + json.dumps(digests, indent=2, sort_keys=True))


def test_reproduce_fig3a_high_intensity_row(tmp_path):
    written = reproduce("fig3a", tmp_path)
    by_name = {p.name: p for p in written}
    assert set(by_name) == {"fig3a_K1.csv", "fig3a_K3.csv", "fig3a_K5.csv"}
    _, rows = _read_csv(by_name["fig3a_K5.csv"])
    assert all(row["status"] == "ok" for row in rows)
    stds = [math.sqrt(float(row["variance_closed_form"])) for row in rows]
    assert all(a >= b for a, b in zip(stds, stds[1:]))  # monotone decreasing
    target = [row for row in rows if float(row["n_c"]) == pytest.approx(2.7e16)]
    assert target
    std = math.sqrt(float(target[0]["variance_closed_form"]))
    assert std == pytest.approx(1.63e-9, abs=0.005e-9)


def test_reproduce_fig4_branches(tmp_path):
    (csv_path,) = reproduce("fig4", tmp_path)
    _, rows = _read_csv(csv_path)
    assert all(row["status"] == "ok" for row in rows)
    for row in rows:
        assert row["n_s_opt"] != ""
        numeric = float(row["variance_numeric"])
        closed = float(row["variance_closed_form"])
        assert numeric == pytest.approx(closed, rel=1e-9)
        low = float(row["branch_low"])
        floor = float(row["branch_floor"])
        assert closed <= low * (1 + 1e-9)
        assert closed >= floor * (1 - 1e-9)
    labels = {row["regime"] for row in rows}
    assert "low-n" in labels  # grid spans the crossover


def test_photon_flux_values():
    assert photon_flux(9.6e-3, 895e-9) == pytest.approx(4.325e16, rel=1e-3)
    assert photon_flux(2.22e-19, 895e-9) == pytest.approx(1.0, rel=1e-2)
    with pytest.raises(ValueError):
        photon_flux(0.0, 895e-9)
    with pytest.raises(ValueError):
        photon_flux(1.0, -1.0)


def test_verify_quick_passes():
    report = verify("quick")
    assert report.ok, report.text()
    assert report.elapsed < 30.0
    assert any("oracle" in check.name for check in report.checks)


def test_verify_flags_injected_noise_sign_bug(monkeypatch):
    def flipped_gamma_oracle(cfg):
        # every noise deviation from vacuum negated (Gamma -> 2I - Gamma): a
        # sign bug in the cross-correlations, detectable even when d = 1
        bad = 2.0 * np.eye(cfg.d) - noise_matrix(cfg)
        x = np.asarray(cfg.weights) / response(cfg)
        return float(x @ bad @ x)

    monkeypatch.setattr(scenarios, "oracle_sensitivity", flipped_gamma_oracle)
    report = verify("quick")
    assert not report.ok
    bad = [c for c in report.checks if not c.ok]
    assert any("oracle" in c.name for c in bad)


# --- command line ------------------------------------------------------------


def test_cli_flux(capsys):
    code = cli.main(["flux", "--power", "9.6e-3", "--wavelength", "895e-9"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(4.325e16, rel=1e-3)


def test_cli_flux_rejects_nonpositive(capsys):
    code = cli.main(["flux", "--power", "0", "--wavelength", "895e-9"])
    assert code == 3


@pytest.mark.parametrize("argv, option", [
    (["optimize", "--n-total", "nan"], "--n-total"),
    (["optimize", "--n-total", "100", "--loss", "nan"], "--loss"),
    (["optimize", "--n-total", "100", "--loss", "inf"], "--loss"),
    (["optimize", "--n-total", "100", "--passes", "nan"], "--passes"),
    (["optimize", "--n-total", "100", "--passes", "inf"], "--passes"),
    (["flux", "--power", "nan", "--wavelength", "895e-9"], "--power"),
    (["flux", "--power", "9.6e-3", "--wavelength", "inf"], "--wavelength"),
], ids=["n_total_nan", "loss_nan", "loss_inf", "passes_nan", "passes_inf",
        "power_nan", "wavelength_inf"])
def test_cli_rejects_non_finite_options(capsys, argv, option):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"configuration error: {option}: must be a finite number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("option, value", [
    ("--loss", "-0.5"), ("--passes", "0"), ("--passes", "-2"),
], ids=["loss_negative", "passes_zero", "passes_negative"])
def test_cli_optimize_rejects_out_of_range_values(capsys, option, value):
    # the same typed range error as a non-positive --n-total
    assert cli.main(["optimize", "--n-total", "100", option, value]) == 3
    captured = capsys.readouterr()
    assert "numerical failure: AllocationError" in captured.err
    assert captured.out == ""


def test_cli_optimize(capsys):
    code = cli.main(["optimize", "--n-total", "100"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_s_opt"] == pytest.approx(50, abs=0.5)
    assert payload["variance_rad2"] == pytest.approx(1e-4, rel=0.02)


@pytest.mark.filterwarnings("error")
def test_cli_optimize_extreme_budget(capsys):
    assert cli.main(["optimize", "--n-total", "1e300", "--loss", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    with mpmath.workdps(50):
        n_t, lam = mpmath.mpf(1e300), mpmath.mpf(0.1)
        x = (4 * n_t + 2 + lam) / (1 + mpmath.sqrt((1 + lam) ** 2 + 4 * lam * n_t))
        exact = (x - 1) ** 2 / (4 * x)
        assert abs(payload["n_s_opt"] - exact) <= 2e-15 * exact


def test_cli_optimize_budget_out_of_float_range(tmp_path, capsys):
    assert cli.main(["optimize", "--n-total", "1e308"]) == 3
    captured = capsys.readouterr()
    assert "numerical failure: OverflowError" in captured.err
    assert captured.out == ""
    doc = json.loads(json.dumps(SCENARIO))
    doc["scans"] = [{"label": "huge", "axis": "n_T", "grid": [1e308],
                     "engines": ["analytic"]}]
    path = _write_scenario(tmp_path, doc)
    out = tmp_path / "o"
    assert cli.main(["scan", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == ["demo_huge.csv: 1 of 1 rows failed"]
    _, rows = _read_csv(out / "demo_huge.csv")
    assert [row["status"].split(":")[:2] for row in rows] == [["error", "OverflowError"]]


def test_cli_sensitivity(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    code = cli.main(["sensitivity", "--config", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    expected = (math.exp(-1.5) + 1 / (0.99 * 0.89 * 0.9999) - 1) / 1e4
    variance = payload["variance_rad2"]
    assert variance == pytest.approx(expected, rel=1e-9)
    assert payload["std_rad"] == pytest.approx(math.sqrt(variance), rel=1e-15)
    sql = 1.0 / (1e4 + math.sinh(0.75) ** 2)  # ave weights: sum|nu| = 1
    assert payload["db_vs_sql"] == pytest.approx(
        10 * math.log10(sql / variance), abs=1e-9)
    assert payload["qcrb_rad2"] <= variance


def test_cli_sensitivity_of_a_separable_network(tmp_path, capsys):
    # only scans need the entangled topology; sensitivity reads the network
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"]["topology"] = "separable"
    doc["scans"] = []
    path = _write_scenario(tmp_path, doc)
    assert cli.main(["sensitivity", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = (math.exp(-1.5) + 1 / (0.99 * 0.89 * 0.9999) - 1) / 1e4
    assert payload["variance_rad2"] == pytest.approx(expected, rel=1e-9)


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # sinh(400)^2 overflows in NetworkConfig.n_s: a float-range failure
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"]["r"] = 400
    path = _write_scenario(tmp_path, doc)
    assert cli.main(["sensitivity", "--config", str(path)]) == 3
    assert "numerical failure: OverflowError" in capsys.readouterr().err


def test_cli_scan_and_reproduce(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    code = cli.main(["scan", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "demo_loss.csv").exists()

    code = cli.main(["reproduce", "fig5a", "--out", str(tmp_path / "r")])
    assert code == 0
    assert (tmp_path / "r" / "fig5a_K5.csv").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = cli.main(["scan", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_missing_file_exit_code(tmp_path, capsys):
    code = cli.main(["scan", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
    assert code == 2


def test_cli_trace_synth_and_analyze(tmp_path, capsys):
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"]["n_c"] = 1e8
    doc["trace"] = {
        "sample_rate": 2e7, "cycle": 4e-3, "gate": [1.2e-3, 2.0e-3],
        "n_cycles": 4, "drive_freq": 4e6, "delta_theta": 2e-4, "rbw": 1e5,
    }
    path = _write_scenario(tmp_path, doc)
    code = cli.main(["trace", "synth", "--config", str(path),
                     "--out", str(tmp_path / "t"), "--seed", "5"])
    assert code == 0
    trace_path = capsys.readouterr().out.strip()
    code = cli.main(["trace", "analyze", "--trace", trace_path,
                     "--config", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["snr_db"] > 10
    assert payload["delta_theta_hat"] == pytest.approx(2e-4, rel=0.05)


def _trace_doc(d):
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"].update(d=d, n_c=1e8)
    doc["trace"] = {
        "sample_rate": 2e7, "cycle": 1e-3, "gate": [2e-4, 6e-4],
        "n_cycles": 2, "drive_freq": 4e6, "rbw": 1e5,
    }
    return doc


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_trace_synth_rejects_seed_outside_u64(tmp_path, capsys, seed):
    path = _write_scenario(tmp_path, _trace_doc(3))
    out = tmp_path / "t"
    code = cli.main(["trace", "synth", "--config", str(path),
                     "--out", str(out), "--seed", seed])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_trace_analyze_rejects_channel_count_mismatch(tmp_path, capsys):
    wide = _write_scenario(tmp_path, _trace_doc(6))
    code = cli.main(["trace", "synth", "--config", str(wide),
                     "--out", str(tmp_path / "t"), "--seed", "5"])
    assert code == 0
    trace_path = capsys.readouterr().out.strip()
    narrow = _write_scenario(tmp_path, _trace_doc(4), name="narrow.json")
    code = cli.main(["trace", "analyze", "--trace", trace_path,
                     "--config", str(narrow)])
    assert code == 2
    assert ("configuration error: d: the config has 4 channels but the traces "
            "have 6") in capsys.readouterr().err


def test_cli_trace_analyze_needs_the_sidecar(tmp_path, capsys):
    path = _write_scenario(tmp_path, _trace_doc(3))
    code = cli.main(["trace", "synth", "--config", str(path),
                     "--out", str(tmp_path / "t"), "--seed", "5"])
    assert code == 0
    trace_path = capsys.readouterr().out.strip()
    sidecar = Path(trace_path + ".meta.json")
    sidecar.unlink()
    code = cli.main(["trace", "analyze", "--trace", trace_path,
                     "--config", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert str(sidecar) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text, named", [
    ("[0.001, 4000000.0]", "not a JSON object"),
    ('{"cycle": 0.001, "drive_freq": 4e6', "not JSON"),
    ('{"cycle": 0.001, "drive_freq": true}', "'drive_freq'"),
    ('{"cycle": 0, "drive_freq": 4e6}', "'cycle'"),
], ids=["list", "malformed", "drive_bool", "cycle_zero"])
def test_cli_trace_analyze_names_a_bad_sidecar(tmp_path, capsys, text, named):
    path = _write_scenario(tmp_path, _trace_doc(3))
    code = cli.main(["trace", "synth", "--config", str(path),
                     "--out", str(tmp_path / "t"), "--seed", "5"])
    assert code == 0
    trace_path = capsys.readouterr().out.strip()
    sidecar = Path(trace_path + ".meta.json")
    sidecar.write_text(text)
    code = cli.main(["trace", "analyze", "--trace", trace_path,
                     "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"numerical failure: AnalysisError: trace "
                                   f"sidecar {sidecar} ")
    assert named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("named, trace", [
    ("gate", {"gate": [2.0e-3, 1.2e-3]}),
    ("n_cycles", {"n_cycles": 0}),
    ("sample_rate", {"sample_rate": NAN}),
    ("sample_rate", {"sample_rate": "2e7"}),
    ("delta_theta", {"delta_theta": "2e-4"}),
    ("gait", {"gait": [1.2e-3, 2.0e-3]}),
    ("rbw", {"rbw": 10}),
], ids=["gate_reversed", "n_cycles_zero", "sample_rate_nan",
        "sample_rate_string", "delta_theta_string", "unknown_field",
        "rbw_segment_fits_no_span"])
def test_cli_trace_commands_check_the_trace_block(tmp_path, capsys, named, trace):
    good = _write_scenario(tmp_path, _trace_doc(3))
    code = cli.main(["trace", "synth", "--config", str(good),
                     "--out", str(tmp_path / "t"), "--seed", "5"])
    assert code == 0
    trace_path = capsys.readouterr().out.strip()
    doc = _trace_doc(3)
    doc["trace"].update(trace)
    bad = _write_scenario(tmp_path, doc, name="bad.json")
    out = tmp_path / "o"
    for argv in (["synth", "--out", str(out)], ["analyze", "--trace", trace_path]):
        code = cli.main(["trace", *argv, "--config", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("configuration error: ")
        assert named in captured.err
        assert captured.out == ""
    assert not out.exists()


def test_cli_verify_exit_codes(capsys, monkeypatch):
    code = cli.main(["verify"])
    assert code == 0
    assert "OK" in capsys.readouterr().out

    from mzinet import scenarios as scen

    def failing_verify(level):
        return scen.VerifyReport(
            level=level,
            checks=[scen.VerifyCheck("probe", deviation=1.0, bound=1e-9)],
            elapsed=0.0,
        )

    monkeypatch.setattr(scen, "verify", failing_verify)
    code = cli.main(["verify"])
    assert code == 4
    assert "FAIL" in capsys.readouterr().out
