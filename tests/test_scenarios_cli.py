import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import pytest

import numpy as np

from mzinet import cli, laws, optimize, scenarios, tracelab
from mzinet.errors import (
    AnalysisError,
    ConfigError,
    DarkResponseError,
    FloatRangeError,
    ScenarioParseError,
)
from mzinet.network import ROUNDING_FACTOR, noise_matrix, response, weight_pattern
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


def test_an_infinite_value_of_an_ok_row_is_an_empty_cell(tmp_path):
    # at r = 0 and n_c = 1e-170, n_T^2 underflows to 0, so the Heisenberg
    # branch 1/(K n_T^2) is inf: the row stays ok and the cell is left empty
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"]["r"] = 0.0
    doc["scans"] = [{"label": "tiny", "axis": "n_c", "grid": [1e-170],
                     "engines": ["analytic"]}]
    (path,) = run_scenario(_write_scenario(tmp_path, doc), tmp_path / "out")
    assert path.read_text().splitlines()[1] == (
        "9.9999999999999998e-171,,1.1350584610157761e+170,,1.0000000000000002e+170,"
        "1.0000000000000002e+170,-5.5018230377344857e-01,low-n,,1.1350584610157761e+170,"
        ",1.3505846101577593e+169,,,ok")


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


def test_the_analytic_engine_selects_the_laws_report(tmp_path):
    # on the n_T axis every row also has its optimal split n_s_opt
    report = ("variance_closed_form", "variance_qcrb", "sql", "db_below_sql",
              "regime", "branch_low", "branch_heisenberg", "branch_floor")
    tables = {}
    for engines in (["numeric"], ["analytic", "numeric"]):
        doc = json.loads(json.dumps(SCENARIO))
        doc["scans"] = [{"label": "budget", "axis": "n_T",
                         "grid": [0.1, 3.0, 1e4], "engines": engines}]
        (path,) = run_scenario(_write_scenario(tmp_path, doc),
                               tmp_path / "+".join(engines))
        tables[len(engines)] = _read_csv(path)[1]
    numeric, both = tables[1], tables[2]
    assert [row["status"] for row in both] == ["ok"] * 3
    for alone, with_laws in zip(numeric, both):
        assert all(alone[column] == "" for column in report)
        assert all(with_laws[column] != "" for column in report)
        for column in ("variance_numeric", "n_s_opt", "status"):
            assert alone[column] == with_laws[column]


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


@pytest.mark.parametrize("target", ["demo_loss.csv", "demo_meta.txt"])
def test_a_failed_replace_leaves_no_tmp_and_the_old_file(tmp_path, monkeypatch, target):
    out = tmp_path / "out"
    out.mkdir()
    (out / target).write_text("old\n")
    real = os.replace

    def failing(src, dst):
        if Path(dst).name == target:
            raise OSError("replace failed")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="replace failed"):
        run_scenario(_write_scenario(tmp_path), out)
    assert (out / target).read_text() == "old\n"
    assert [path.name for path in out.iterdir() if path.suffix == ".tmp"] == []


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


def test_cli_oracle_scan_of_an_empty_node_warns_nothing(tmp_path):
    # the 'single' pattern puts no photon on its unweighted node (P_j = 0)
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"].update(d=2, r=0.2, n_c=0.5, weights="single")
    doc["scans"] = [{"label": "empty", "axis": "eta_dis", "grid": [0.9, 1.0],
                     "engines": ["numeric", "oracle"]}]
    path = _write_scenario(tmp_path, doc)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "mzinet.cli", "scan", "--config", str(path),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    _, rows = _read_csv(Path(run.stdout.split()[0]))
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["variance_oracle"]) == pytest.approx(
            float(row["variance_numeric"]), rel=1e-6)


def test_oracle_scan_of_six_nodes(tmp_path):
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"].update(d=6, r=0.3, n_c=0.6)
    doc["scans"] = [{"label": "six", "axis": "eta_dis", "grid": [0.9, 1.0],
                     "engines": ["numeric", "oracle"]}]
    (csv_path,) = run_scenario(_write_scenario(tmp_path, doc), tmp_path / "out")
    _, rows = _read_csv(csv_path)
    assert len(rows) == 2
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["variance_oracle"]) == pytest.approx(
            float(row["variance_numeric"]), rel=1e-6)


def test_cli_rejects_an_oracle_network_past_the_size_guard(tmp_path, capsys):
    # r = 0.4 fits the oracle, but seven nodes would hold 1.1e7 entries
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"].update(d=7, r=0.4)
    doc["scans"][0]["engines"] = ["analytic", "oracle"]
    _assert_rejected_at_load(tmp_path, capsys, doc, "engines")


def _fig4_points():
    """fig4's document, and its n_T grid values with the r of each one's
    optimal operating point."""
    doc = json.loads(bundled_scenario_path("fig4").read_text())
    scenario = load_scenario(bundled_scenario_path("fig4"))
    base = scenario.base_config()
    return doc, [(value, optimize._config_for_point("n_T", value, base)[0].r)
                 for value in scenario.scans[0].grid]


def test_oracle_scan_of_fig4_low_intensity_points(tmp_path):
    # the base network squeezes by r = 0.75, past the oracle's rule, but an
    # n_T point reads only its own optimal r: the 17 points with r <= 0.4 load
    doc, points = _fig4_points()
    low = [value for value, r in points if r <= 0.4]
    assert len(low) == 17 and doc["network"]["r"] > 0.4
    doc["scans"] = [{"label": "low", "axis": "n_T", "grid": low,
                     "engines": ["analytic", "numeric", "oracle"]}]
    (csv_path,) = run_scenario(_write_scenario(tmp_path, doc), tmp_path / "out")
    _, rows = _read_csv(csv_path)
    assert len(rows) == 17
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["variance_oracle"]) == pytest.approx(
            float(row["variance_numeric"]), rel=1e-6)


def test_the_full_fig4_grid_with_the_oracle_is_refused_at_its_first_point_past_the_rule(
        tmp_path, capsys):
    doc, points = _fig4_points()
    first = next(value for value, r in points if r > 0.4)
    doc["scans"][0]["engines"].append("oracle")
    _assert_rejected_at_load(tmp_path, capsys, doc, "engines")
    with pytest.raises(ConfigError, match=re.escape(f"scan 'optimized' at n_T = {first!r}: "
                                                    "oracle limited to r <= 0.4")):
        load_scenario(_write_scenario(tmp_path, doc))


def test_an_oracle_d_scan_past_the_size_rule_is_refused_at_load(tmp_path, capsys):
    # r = 0.4 fits the oracle up to d = 6; the base network has d = 3
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"]["r"] = 0.4
    doc["scans"] = [{"label": "nodes", "axis": "d", "grid": [2, 6, 7],
                     "engines": ["analytic", "oracle"]}]
    _assert_rejected_at_load(tmp_path, capsys, doc, "engines")
    with pytest.raises(ConfigError, match="scan 'nodes' at d = 7: split state of d = 7"):
        load_scenario(_write_scenario(tmp_path, doc))


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


def test_trace_row_past_the_float_range_fails_by_name(tmp_path):
    # at n_c = 1e-307 a sampled window power's square overflows: the row
    # fails naming the window, and the next row runs
    doc = json.loads(json.dumps(SCENARIO))
    doc["scans"] = [{"label": "mc", "axis": "n_c", "grid": [1e-307, 1e4],
                     "engines": ["analytic", "trace"]}]
    doc["trace"] = TRACE_BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (csv_path,) = run_scenario(_write_scenario(tmp_path, doc), tmp_path / "o")
    _, rows = _read_csv(csv_path)
    assert [row["status"] for row in rows] == [
        "error:AnalysisError: the mean band power of the gated window is inf", "ok"]


def test_a_point_that_builds_no_network_fails_its_row_only(tmp_path, monkeypatch):
    # n_c = -5 builds no operating point: the loader's oracle size check
    # leaves it to its row, whose status names the error, and the trace
    # engine runs on the row that passed only
    doc = json.loads(json.dumps(SCENARIO))
    doc["scans"] = [{"label": "oracle", "axis": "n_c", "grid": [-5.0, 1.0],
                     "engines": ["oracle"], "overrides": {"r": 0.3}},
                    {"label": "mc", "axis": "n_c", "grid": [-5.0, 1e4],
                     "engines": ["analytic", "trace"]}]
    doc["trace"] = TRACE_BLOCK
    traced = []
    run_trace_point = scenarios._run_trace_point

    def counted(row, trace, row_seed):
        traced.append(row.value)
        return run_trace_point(row, trace, row_seed)

    monkeypatch.setattr(scenarios, "_run_trace_point", counted)
    written = run_scenario(load_scenario(_write_scenario(tmp_path, doc)), tmp_path / "o")
    oracle_rows, mc_rows = (_read_csv(path)[1] for path in written)
    for rows, engine_column in ((oracle_rows, "variance_oracle"), (mc_rows, "snr_db_mc")):
        assert [row["status"] for row in rows] == [
            "error:AllocationError: n_c must be > 0", "ok"]
        assert rows[0][engine_column] == "" and rows[1][engine_column] != ""
    assert traced == [1e4]


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


def test_log_grid_points_are_correctly_rounded():
    # fig3a's grid: 10^16.75 and the stop 10^17 are each one ulp off when
    # taken from numpy's AVX-512 power loop or its 12-decimal round
    grid = {"start": 1e15, "stop": 1e17, "num": 9, "spacing": "log"}
    with mpmath.workdps(60):
        expected = [float(mpmath.mpf(10) ** x) for x in np.linspace(15, 17, 9).tolist()]
    assert scenarios._expand_grid(grid) == expected


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
    ("stop", {}, {"axis": "n_T", "grid": {"start": 1.0, "stop": NAN, "num": 3}}, None),
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
    ("stop", {}, {"axis": "n_T", "grid": {"start": 1e2, "stop": 1.7976931348623157e308,
                                          "num": 3, "spacing": "log"}}, None),
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
    ("topology", {"topology": "mesh"}, None, None),
    ("r", {"r": [0.75, 0.75, 0.75]}, None, None),
    ("r", {"topology": "separable", "r": [0.75, 0.75]}, None, None),
    ("r", {"topology": "separable", "r": [0.75, -0.1, 0.75]}, None, None),
    ("r", {"topology": "separable", "r": [0.75, NAN, 0.75]}, None, None),
    ("d", {"d": 0}, None, None),
    ("d", {"d": -1}, None, None),
    ("n_c", {"n_c": 0}, None, None),
    ("n_c", {"n_c": -1e4}, None, None),
    ("weights", {"weights": [0, 0, 0]}, None, None),
    ("thetas", {"thetas": [0.4, -0.3, 0.1]}, None, None),
    ("thetas", {}, {"axis": "n_c", "grid": [1e3, 1e5], "overrides": {"thetas": 0.1}}, None),
    ("alphas", {"alphas": [[900.0, 0.0], [300.0, 0.0], [300.0, 0.0]],
                "P": [0.2, 0.4, 0.4]}, None, None),
    ("weights", {"weights": "stag"}, {"axis": "d", "grid": [2, 4]}, None),
    ("weights", {}, {"axis": "d", "grid": [2, 4], "overrides": {"weights": [1, 1, 1]}},
     None),
    ("alphas", {"alphas": [[1.0, 0.0, 5.0], [1.0, 0.0], [1.0, 0.0]],
                "P": [0.2, 0.4, 0.4]}, None, None),
    ("alphas", {"alphas": [[1.0], [1.0, 0.0], [1.0, 0.0]], "P": [0.2, 0.4, 0.4]},
     None, None),
    ("d", {}, {"axis": "d", "grid": [0, 2]}, None),
    ("K", {}, {"axis": "K", "grid": [0, 2]}, None),
    ("r", {"r": 400}, None, None),
    ("r", {"topology": "separable", "r": [0.75, 400, 0.75]}, None, None),
    ("K", {"K": 1e200}, None, None),
    ("mu", {"K": 10**10, "mu": 1e300}, None, None),
    ("K", {"K": 2**512 - 1}, None, None),
    ("grid", {}, {"axis": "n_c", "grid": {"start": 100.0, "stop": 100.0, "num": 3}}, None),
    ("grid", {}, {"axis": "n_c", "grid": {"start": 1.0, "stop": 2.0, "num": 3,
                                          "include": [1.5]}}, None),
    ("alphas", {"alphas": [[90.0, 0.0], [30.0, 0.0]], "P": [0.2, 0.4, 0.4]}, None, None),
    ("P", {"alphas": [[90.0, 0.0], [30.0, 0.0], [30.0, 0.0]], "P": [0.5, 0.5]}, None, None),
    ("thetas", {"thetas": [0.1, 0.2]}, None, None),
    ("P", {"alphas": [[90.0, 0.0], [30.0, 0.0], [30.0, 0.0]], "P": [0.6, 0.6, -0.2]},
     None, None),
    ("alphas", {"alphas": [[90.0, 0.0], [-30.0, 0.0], [30.0, 0.0]], "P": [0.2, 0.4, 0.4]},
     None, None),
    ("mu", {"mu": 0}, None, None),
    ("mu", {"mu": -0.5}, None, None),
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
        "log_range_stop_float_max",
        "network_topology_separable", "trace_rbw_zero", "trace_rbw_negative",
        "trace_rbw_above_quarter_rate", "grid_n_c_repeat", "grid_K_repeat",
        "grid_weights_repeat", "trace_rbw_segment_fits_no_span",
        "trace_rbw_segment_longer_than_gate", "trace_rbw_segment_longer_than_idle",
        "network_K_bool", "network_eta_bool", "grid_bool", "range_num_bool",
        "trace_bool", "weights_bool", "weights_number", "weights_object",
        "trace_cycle_not_whole_samples", "trace_gate_not_whole_samples",
        "network_topology_unknown", "network_r_list_shared",
        "network_r_list_short", "network_r_list_negative", "network_r_list_nan",
        "network_d_zero", "network_d_negative", "network_n_c_zero",
        "network_n_c_negative", "weights_all_zero", "scan_network_thetas",
        "scan_overrides_thetas", "scan_network_alphas_P", "d_scan_weights_pattern",
        "d_scan_weights_list", "alphas_triple", "alphas_single", "grid_d_zero",
        "grid_K_zero", "network_r_past_float_range",
        "network_r_list_past_float_range", "network_K_past_float_range",
        "network_mu_K_squared_past_float_range", "network_K_squared_past_float_range",
        "range_grid_collapses", "range_include_repeats_a_point",
        "network_alphas_short", "network_P_short", "network_thetas_short",
        "network_P_negative", "network_amplitude_negative", "network_mu_zero",
        "network_mu_negative"])
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
    base, _ = scenarios._config_from_spec(SCENARIO["network"])
    with pytest.raises(ConfigError, match=f"grid: grid repeats the point {repeat}"):
        optimize.scan(axis, grid, base)


@pytest.mark.parametrize("axis, grid", [
    ("K", [2.5, 3]),
    ("d", [2.7, 4]),
    ("K", [True, 3]),
    ("n_c", [NAN, 1e4]),
    ("eta_dis", [0.5, "0.9"]),
    ("weights", ["ave", "bogus"]),
    ("K", [0, 2]),
    ("d", [0, 2]),
], ids=["K_fraction", "d_fraction", "K_bool", "n_c_nan", "eta_dis_string",
        "weights_unknown", "K_zero", "d_zero"])
def test_scan_refuses_the_points_the_loader_refuses(monkeypatch, axis, grid):
    def evaluated(*args):
        raise AssertionError("a point was evaluated before the grid was checked")

    monkeypatch.setattr(optimize, "_evaluate_point", evaluated)
    base, _ = scenarios._config_from_spec(SCENARIO["network"])
    with pytest.raises(ConfigError) as info:
        optimize.scan(axis, grid, base)
    assert info.value.field == axis


def test_scan_takes_numpy_grid_points():
    base, _ = scenarios._config_from_spec(SCENARIO["network"])
    rows = optimize.scan("K", np.arange(1, 3), base)
    assert [(row.config.K, row.status) for row in rows] == [(1, "ok"), (2, "ok")]


@pytest.mark.parametrize("alphas", [
    [[1.0, 0.0, 5.0], [1.0, 0.0], [1.0, 0.0]],
    [[1.0], [1.0, 0.0], [1.0, 0.0]],
], ids=["triple", "single"])
def test_cli_sensitivity_refuses_an_alphas_entry_that_is_not_a_pair(
        tmp_path, capsys, alphas):
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"].update(alphas=alphas, P=[0.2, 0.4, 0.4])
    doc["scans"] = []
    path = _write_scenario(tmp_path, doc)
    assert cli.main(["sensitivity", "--config", str(path)]) == 2
    assert "configuration error: alphas: must be [magnitude, phase]" in (
        capsys.readouterr().err)


def test_a_document_without_scans_keeps_the_fields_no_scan_reads(tmp_path, capsys):
    """`sensitivity` evaluates the network as written: its working points,
    amplitudes and splitting, which no scan point reads."""
    doc = json.loads(json.dumps(SCENARIO))
    doc["scans"] = []
    variances = []
    for network in ({}, {"thetas": [0.4, -0.3, 0.1]},
                    {"alphas": [[90.0, 0.0], [30.0, 0.0], [30.0, 0.0]],
                     "P": [0.2, 0.4, 0.4]}):
        path = _write_scenario(tmp_path, dict(doc, network=dict(doc["network"], **network)))
        assert cli.main(["sensitivity", "--config", str(path)]) == 0
        variances.append(json.loads(capsys.readouterr().out)["variance_rad2"])
    assert len(set(variances)) == 3


# The network fields that each scan axis replaces (optimize._config_for_point)
AXIS_INPUTS = {"n_c": {"n_c"}, "eta_dis": {"eta_dis"}, "K": {"K"}, "d": {"d"},
               "n_T": {"n_c", "r"}, "weights": {"weights"}}
AXIS_GRIDS = {"n_c": [1e3, 1e5], "eta_dis": [0.5, 0.9], "K": [1, 3], "d": [2, 4],
              "n_T": [1e2, 1e4], "weights": ["ave", "asym"]}
# another valid value of each network field; alphas and P change as a pair
OTHER_VALUES = {
    "d": {"d": 4},
    "weights": {"weights": [1.0, 0.5, 0.25]},
    "r": {"r": 0.5},
    "topology": {"topology": "separable"},
    "mu": {"mu": 0.5},
    "K": {"K": 2},
    "eta_dis": {"eta_dis": 0.9},
    "eta_mzi": {"eta_mzi": 0.8},
    "eta_m": {"eta_m": 0.95},
    "alphas": {"alphas": [[60.0, 0.0], [50.0, 0.0], [40.0, 0.0]], "P": [0.4, 0.35, 0.25]},
    "thetas": {"thetas": [0.4, -0.3, 0.1]},
    "n_c": {"n_c": 2e4},
}


def test_every_network_field_reaches_a_scans_csv_or_fails_at_load(tmp_path):
    """A network field that an axis leaves either moves the scan's CSV or
    is refused at load under its own name: no field is silently unread."""
    assert set().union(*OTHER_VALUES.values()) == set(scenarios.NETWORK)

    def scan_csv(axis, network):
        doc = dict(SCENARIO, network=network,
                   scans=[{"axis": axis, "grid": AXIS_GRIDS[axis],
                           "engines": ["analytic", "numeric"]}])
        [path] = run_scenario(scenarios._scenario_from_doc(doc), tmp_path)
        return path.read_bytes()

    unread = []
    for axis, replaced in AXIS_INPUTS.items():
        base = scan_csv(axis, SCENARIO["network"])
        for field, change in OTHER_VALUES.items():
            if field in replaced:
                continue
            try:
                changed = scan_csv(axis, dict(SCENARIO["network"], **change))
            except ConfigError as exc:
                assert exc.field in change, (axis, field, exc)
            else:
                if changed == base:
                    unread.append((axis, field))
    assert unread == [], unread


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
    ("sedd", lambda doc: doc.update(sedd=1)),
    ("engine", lambda doc: doc["scans"][0].update(engine=["numeric"])),
    ("steps", lambda doc: doc["scans"][0].update(
        grid={"start": 0.2, "stop": 1.0, "num": 5, "steps": 2})),
    ("grid", lambda doc: doc["scans"][0].update(grid=5)),
    ("scenario", lambda doc: doc.update(schema=True)),
    ("d", lambda doc: doc.update(scans=[], network={"d": "bogus"})),
], ids=["network_d_missing", "seed_fraction", "seed_bool", "include_number",
        "overrides_number", "overrides_list", "scan_number", "scans_object",
        "network_list", "trace_list", "engines_number", "alphas_number",
        "P_number", "name_parent_path", "name_slash", "name_leading_dot",
        "name_number", "name_empty", "label_parent_path", "label_slash",
        "label_leading_dot", "label_number", "label_empty", "engines_unknown",
        "spacing_unknown", "unknown_top_level_key", "unknown_scan_key",
        "unknown_range_key", "grid_number", "schema_true", "no_scans_network_d"])
def test_cli_rejects_bad_document_fields_at_load(tmp_path, capsys, field, edit):
    doc = json.loads(json.dumps(SCENARIO))
    edit(doc)
    _assert_rejected_at_load(tmp_path, capsys, doc, field)
    # nothing but the scenario file, in or outside the output directory
    assert [path.name for path in tmp_path.rglob("*")] == ["demo.json"]


TABLES = (scenarios.DOCUMENT, scenarios.SCAN, scenarios.RANGE, scenarios.NETWORK,
          scenarios.TRACE)


@pytest.mark.parametrize("field", ["mu", "alphas", "P", "thetas"])
def test_null_network_field_loads_as_if_absent(tmp_path, field):
    doc = json.loads(json.dumps(SCENARIO))
    absent = load_scenario(_write_scenario(tmp_path, doc, name="absent.json"))
    doc["network"][field] = None
    null = load_scenario(_write_scenario(tmp_path, doc, name="null.json"))
    # the document's network block keeps its keys; nothing else differs
    assert null.network == dict(absent.network, **{field: None})
    assert replace(null, network=absent.network) == absent
    assert null.base_config() == absent.base_config()


def test_null_is_refused_under_the_fields_name(tmp_path):
    """Every field of a document that uses each object kind refuses a JSON
    null under its own name, but the schema (a parse error) and a trace
    field (the trace block)."""
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"]["topology"] = "entangled"
    doc["scans"] = [
        {"label": "loss", "axis": "eta_dis", "grid": [0.5, 1.0],
         "engines": ["analytic", "trace"], "overrides": {"K": 2}},
        {"label": "budget", "axis": "n_T", "engines": ["analytic"],
         "grid": {"start": 1e2, "stop": 1e4, "num": 3, "spacing": "log",
                  "include": [5e2]}},
    ]
    doc["trace"] = dict(TRACE_BLOCK)
    load_scenario(_write_scenario(tmp_path, doc))
    refused = set()
    for path, _ in _json_values(doc):
        if not path or not isinstance(path[-1], str):
            continue
        mutant = json.loads(json.dumps(doc))
        _json_at(mutant, path[:-1])[path[-1]] = None
        field = ("trace" if path[0] == "trace" else
                 "scenario" if path == ("schema",) else path[-1])
        with pytest.raises(ConfigError) as info:
            load_scenario(_write_scenario(tmp_path, mutant))
        assert info.value.field == field, path
        refused.add(path[-1])
    assert refused == set().union(*TABLES) - {"mu", "alphas", "P", "thetas"}


WRONG_KINDS = {"string": "x", "number": 1, "list": [], "object": {}, "null": None,
               "boolean": True}
UNKNOWN_KEY = "zz_unknown"


def _json_values(node, path=()):
    """(path, value) of a JSON value and of every value within it."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _json_values(value, path + (key,))


def _json_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _json_kind(value):
    return {type(None): "null", bool: "boolean", str: "string", int: "number",
            float: "number", list: "list", dict: "object"}[type(value)]


def _one_field_mutants(doc):
    """(mutant, added key or None) of each mutant of a scenario document
    that differs from it in one place: a value (a field's or a list
    entry's) of each other JSON kind, a number that is NaN, inf or false, a
    name or label with a path separator, `..` or a leading dot, a field
    dropped, or an unknown key added to an object."""
    text = json.dumps(doc)
    for path, value in _json_values(doc):
        if isinstance(value, dict):
            mutant = json.loads(text)
            _json_at(mutant, path)[UNKNOWN_KEY] = 1
            yield mutant, UNKNOWN_KEY
        if not path:
            continue
        kind = _json_kind(value)
        substitutes = [sub for name, sub in WRONG_KINDS.items() if name != kind]
        if kind == "number":
            substitutes += [NAN, INF, False]
        if path[-1] in ("name", "label"):
            substitutes += ["a/b", "..", ".hidden"]
        for sub in substitutes:
            mutant = json.loads(text)
            _json_at(mutant, path[:-1])[path[-1]] = sub
            yield mutant, None
        if isinstance(path[-1], str):
            mutant = json.loads(text)
            del _json_at(mutant, path[:-1])[path[-1]]
            yield mutant, None


def test_one_field_mutants_of_the_bundled_documents_load_or_fail_at_load(
        tmp_path, capsys, monkeypatch):
    """Every one-field mutant of a bundled document loads, or fails with a
    ConfigError naming a table field, the key it added, a scan axis, the
    document or the trace block; the scan command then exits 2 and writes
    nothing.  No count is mutated to a large value, which would allocate
    that many grid points or weights."""
    fields = set().union(*TABLES, optimize.SCAN_AXES, {"scenario", "trace"})
    # one parser for every run of the command
    monkeypatch.setattr(cli, "_build_parser", lambda parser=cli._build_parser(): parser)
    path, out = tmp_path / "mutant.json", tmp_path / "o"
    counts = {"loaded": 0, "refused": 0}
    # one file rewritten in place: a write that truncates on open takes
    # about 0.1 ms on some file systems, 20 times longer
    with path.open("w") as handle:
        for figure in FIGURES:
            doc = json.loads(bundled_scenario_path(figure).read_text())
            for mutant, added in _one_field_mutants(doc):
                try:
                    scenarios._scenario_from_doc(mutant)
                except ConfigError as exc:
                    field = exc.field
                else:
                    counts["loaded"] += 1
                    assert added is None, (figure, mutant)
                    continue
                counts["refused"] += 1
                assert field == added if added else field in fields, (figure, mutant)
                handle.seek(0)
                handle.write(json.dumps(mutant))
                handle.truncate()
                handle.flush()
                assert cli.main(["scan", "--config", str(path), "--out", str(out)]) == 2
                assert f"configuration error: {field}:" in capsys.readouterr().err
                assert not out.exists()
    assert counts["refused"] > 2000 and counts["loaded"] > 100, counts
    assert [p.name for p in tmp_path.rglob("*")] == ["mutant.json"]


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


def test_bundled_figures_do_not_depend_on_numpy_cpu_dispatch(tmp_path):
    """The seven figures reproduced with numpy's dispatched SIMD loops
    switched off (NPY_DISABLE_CPU_FEATURES, numpy >= 2) hash to the same
    fingerprint as the committed one."""
    from numpy._core import _multiarray_umath as umath

    targets = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    if not targets:
        pytest.skip("numpy dispatches to no CPU feature beyond its baseline here")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import sys\nfrom mzinet.scenarios import FIGURES, reproduce\n"
              "for figure in FIGURES:\n    reproduce(figure, f'{sys.argv[1]}/{figure}')")
    run = subprocess.run([sys.executable, "-W", "error", "-c", script, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stderr) == (0, "")
    digests = {}
    for path in sorted(tmp_path.glob("*/*")):
        digests.update(_figure_digests(path))
    assert digests == json.loads(FINGERPRINT.read_text())


# worst errors over the 340 rows when these bounds were set: closed form
# 2.47 ulp, QCRB 2.93, SQL 1.44, branches 1.97 / 2.07 / 2.03, n_s_opt 2.49,
# and 2.7e-15 dB
LAWS_ULPS = {"variance_closed_form": 3.0, "variance_qcrb": 3.5, "sql": 2.0,
             "branch_low": 2.5, "branch_heisenberg": 2.5, "branch_floor": 2.5,
             "n_s_opt": 3.0}
LAWS_DB = 3e-15


def _laws_reference(row, axis):
    """60-digit values of the `laws` formulas on the row config's own floats
    (n_c, r, Lambda, enhancement, weights) and on its float budget: the grid
    value on the n_T axis, else the config's n_T."""
    cfg = row.config
    n_c, r, lam, k = map(mpmath.mpf, (cfg.n_c, cfg.r, cfg.Lambda, cfg.enhancement))
    n_t = mpmath.mpf(float(row.value) if axis == "n_T" else cfg.n_T)
    factor = mpmath.fsum(abs(mpmath.mpf(w)) for w in cfg.weights) ** 2
    closed = (mpmath.exp(-2 * r) + lam) / (k * n_c) * factor
    sql = factor / n_t
    reference = {
        "variance_closed_form": closed,
        "variance_qcrb": factor / (k * (n_c * mpmath.exp(2 * r) + mpmath.sinh(r) ** 2)),
        "sql": sql,
        "db_below_sql": 10 * mpmath.log10(sql / closed),
        "branch_low": (1 + lam) / (k * n_t) * factor,
        "branch_heisenberg": factor / (k * n_t**2),
        "branch_floor": lam / (k * n_t) * factor,
    }
    if axis == "n_T":
        # n_s = (x - 1)^2 / (4x) at the optimal x = e^{2r} = 1 + y
        y = 4 * n_t / (1 + lam + mpmath.sqrt((1 + lam) ** 2 + 4 * lam * n_t))
        reference["n_s_opt"] = y * y / (4 * (1 + y))
    return reference


def test_bundled_laws_columns_against_60_digit_values():
    worst = dict.fromkeys([*LAWS_ULPS, "db_below_sql"], 0.0)
    count = 0
    with mpmath.workdps(60):
        for figure in FIGURES:
            scenario = load_scenario(bundled_scenario_path(figure))
            for spec in scenario.scans:
                rows = optimize.scan(spec.axis, spec.grid,
                                     scenario.base_config(spec.overrides),
                                     engines=("analytic",))
                for row in rows:
                    assert row.status == "ok", (figure, row.value)
                    count += 1
                    for column, exact in _laws_reference(row, spec.axis).items():
                        error = abs(mpmath.mpf(getattr(row, column)) - exact)
                        if column != "db_below_sql":  # ulps; exactly 0 stays 0
                            error /= math.ulp(float(exact))
                        worst[column] = max(worst[column], float(error))
    assert count == 340
    assert worst["db_below_sql"] <= LAWS_DB
    for column, bound in LAWS_ULPS.items():
        assert worst[column] <= bound, (column, worst[column])


def test_bundled_numeric_variance_against_60_digit_values():
    """variance_numeric of every numeric row of the bundled scans against
    the working-point variance V = sum_j x_j^2 + (e^{-2r} - 1)
    (sum_j x_j sqrt(eta P_j))^2, x_j = nu_j / (sqrt(eta) g |alpha_j| cos phi_j),
    at 60 digits on the row config's own floats (eta the product of its
    efficiencies), within the engine's own rounding rule:
    |v - V| <= ROUNDING_FACTOR * d * eps * |x|^T |Gamma| |x|.  The worst
    row read 2.94 of the factor 4 when this test was written."""
    worst, count = 0.0, 0
    with mpmath.workdps(60):
        for figure in FIGURES:
            scenario = load_scenario(bundled_scenario_path(figure))
            for spec in scenario.scans:
                if "numeric" not in spec.engines:
                    continue
                for row in optimize.scan(spec.axis, spec.grid,
                                         scenario.base_config(spec.overrides),
                                         engines=("numeric",)):
                    assert row.status == "ok", (figure, row.value)
                    cfg, mpf = row.config, mpmath.mpf
                    eta = mpf(cfg.eta_dis) * mpf(cfg.eta_mzi) * mpf(cfg.eta_m) ** (2 * cfg.K - 1)
                    gain = mpmath.sqrt(mpf(cfg.enhancement))
                    x = [mpf(w) / (mpmath.sqrt(eta) * gain * mpf(mag) * mpmath.cos(mpf(phi)))
                         for w, (mag, phi) in zip(cfg.weights, cfg.alphas)]
                    amp = [mpmath.sqrt(eta * mpf(p)) for p in cfg.P]
                    squeezed = mpmath.expm1(-2 * mpf(cfg.r))
                    exact = (mpmath.fsum(v * v for v in x)
                             + squeezed * mpmath.fsum(v * a for v, a in zip(x, amp)) ** 2)
                    # |x|^T |Gamma| |x|, Gamma_jk = delta_jk + (e^{-2r} - 1) amp_j amp_k
                    scale = mpmath.fsum(abs(x[j] * x[k] * ((j == k) + squeezed * amp[j] * amp[k]))
                                        for j in range(cfg.d) for k in range(cfg.d))
                    error = abs(mpf(row.variance_numeric) - exact) / (
                        cfg.d * sys.float_info.epsilon * scale)
                    worst, count = max(worst, float(error)), count + 1
    assert count == 340
    assert worst <= ROUNDING_FACTOR, worst


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
    for power, wavelength in ((1e308, 1e308), (1e-308, 1e-308)):
        with pytest.raises(FloatRangeError, match="flux: photon rate"):
            photon_flux(power, wavelength)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])  # None: verify's own seed
def test_verify_quick_passes(seed):
    report = verify("quick") if seed is None else verify("quick", seed=seed)
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


def _nan_mean(state):
    state.mean[:] = math.nan
    return state


@pytest.mark.parametrize("module, name, nan_version, check", [
    (scenarios, "sensitivity_numeric", lambda real: lambda cfg: math.nan,
     "engine vs closed form"),
    (scenarios, "build_network", lambda real: lambda cfg: _nan_mean(real(cfg)),
     "response matrix vs finite differences"),
    (scenarios, "qc_cascade",
     lambda real: lambda p: [(pair, math.nan) for pair, _ in real(p)],
     "cascade splitting distribution"),
    (optimize, "optimize_squeezing",
     lambda real: lambda n_t, Lambda, K: (real(n_t, Lambda, K)[0], math.nan),
     "squeezing optimizer vs grid"),
    (laws, "varq_from_ns", lambda real: lambda n_s: math.nan,
     "resource conversion identities"),
], ids=["sensitivity_numeric", "build_network", "qc_cascade", "optimize_squeezing",
        "varq_from_ns"])
def test_verify_fails_a_nan_variance(monkeypatch, module, name, nan_version, check):
    # max() alone would drop a NaN deviation, and the check would pass
    monkeypatch.setattr(module, name, nan_version(getattr(module, name)))
    report = verify("quick")
    assert check in [c.name for c in report.checks if not c.ok], report.text()


@pytest.mark.parametrize("row", range(len(scenarios._CHECKS)),
                         ids=[name for name, *_ in scenarios._CHECKS])
def test_verify_fails_a_nan_last_draw(monkeypatch, row):
    # the row's last draw draws as usual, so every later row draws the same
    # numbers and passes, but it returns NaN, which only its own row fails on
    name, bound, quick, full, check = scenarios._CHECKS[row]
    level, count = ("quick", quick) if quick else ("full", full)
    draws = []

    def nan_last(rng):
        draws.append(check(rng))
        return math.nan if len(draws) == count else draws[-1]

    table = list(scenarios._CHECKS)
    table[row] = (name, bound, quick, full, nan_last)
    monkeypatch.setattr(scenarios, "_CHECKS", tuple(table))
    report = verify(level)
    assert len(draws) == count
    assert [c.name for c in report.checks if not c.ok] == [name], report.text()


def test_verify_full_checks_match_the_benchmark_reference():
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "reference.json").read_text())
    report = verify("full")
    assert report.ok, report.text()
    assert ([[c.name, c.bound] for c in report.checks]
            == reference["verify_full"]["verify"])


def _trace_check_config(r):
    return optimize.configure_optimal(
        weight_pattern("ave", 4), 1e12, r, eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)


def test_trace_check_synthesizes_only_the_most_squeezed_run(monkeypatch):
    calls = []
    real = tracelab.synthesize_and_analyse

    def recording(config, delta_thetas, params, seed):
        calls.append((config, delta_thetas, seed))
        return real(config, delta_thetas, params, seed=seed)

    def whole_run(*args, **kwargs):
        raise AssertionError("the trace check holds a whole synthesized run")

    monkeypatch.setattr(tracelab, "synthesize_and_analyse", recording)
    monkeypatch.setattr(tracelab, "synthesize", whole_run)
    deviation = scenarios._trace_noise_deviation(np.random.default_rng(7))
    twin = np.random.default_rng(7)
    seeds = [int(twin.integers(2**62)) for _ in range(3)]
    assert calls == [(_trace_check_config(0.75), 0.0, seeds[2])]
    assert deviation <= 0.2


def test_trace_check_fails_on_a_biased_sampler_variance(monkeypatch):
    real = tracelab.simulate_joint_noise

    def biased(config, variance, *args, **kwargs):
        return real(config, 1.1 * variance, *args, **kwargs)

    monkeypatch.setattr(tracelab, "simulate_joint_noise", biased)
    # a 10% variance bias is 0.41 dB, about 20 standard errors of the mean
    assert scenarios._trace_noise_deviation(np.random.default_rng(7)) > 0.2


# --- command line ------------------------------------------------------------


def test_cli_flux(capsys):
    code = cli.main(["flux", "--power", "9.6e-3", "--wavelength", "895e-9"])
    assert code == 0
    assert capsys.readouterr().out == "4.3253129548326960e+16\n"


@pytest.mark.parametrize("value", ["1e308", "1e-308"], ids=["overflow", "underflow"])
def test_cli_flux_out_of_float_range(capsys, value):
    code = cli.main(["flux", "--power", value, "--wavelength", value])
    assert code == 3
    captured = capsys.readouterr()
    assert "numerical failure: FloatRangeError: flux: photon rate" in captured.err
    assert captured.out == ""


def test_cli_flux_rejects_nonpositive(capsys):
    for power, wavelength, option in (("0", "895e-9", "--power"),
                                      ("9.6e-3", "-1", "--wavelength")):
        code = cli.main(["flux", "--power", power, "--wavelength", wavelength])
        assert code == 2
        captured = capsys.readouterr()
        assert f"configuration error: {option}: must be a number > 0" in captured.err
        assert captured.out == ""


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
    ("--loss", "-0.5"), ("--passes", "0"), ("--passes", "-2"), ("--n-total", "-5"),
], ids=["loss_negative", "passes_zero", "passes_negative", "n_total_negative"])
def test_cli_optimize_rejects_out_of_range_values(capsys, option, value):
    options = {"--n-total": "100", option: value}
    assert cli.main(["optimize", *(word for pair in options.items() for word in pair)]) == 2
    captured = capsys.readouterr()
    assert f"configuration error: {option}: must be a number" in captured.err
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
    assert "numerical failure: FloatRangeError: n_s_opt: " in captured.err
    assert captured.out == ""
    doc = json.loads(json.dumps(SCENARIO))
    doc["scans"] = [{"label": "huge", "axis": "n_T", "grid": [1e308],
                     "engines": ["analytic"]}]
    path = _write_scenario(tmp_path, doc)
    out = tmp_path / "o"
    assert cli.main(["scan", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == ["demo_huge.csv: 1 of 1 rows failed"]
    _, rows = _read_csv(out / "demo_huge.csv")
    assert [row["status"].split(":")[:3] for row in rows] == [
        ["error", "FloatRangeError", " n_s_opt"]]


@pytest.mark.parametrize("n_total", ["1e-20", "1e-30"], ids=["overflow", "underflow"])
def test_cli_optimize_variance_out_of_float_range(capsys, n_total):
    # K (n_T - n_s) of 1e-320 (a subnormal) or 1e-330 (0): the variance is inf
    assert cli.main(["optimize", "--n-total", n_total, "--passes", "1e-300"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: FloatRangeError: variance_rad2: ")
    assert captured.out == ""


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


@pytest.mark.parametrize("network, rs", [
    ({"r": 0.75}, (0.75, 0.75, 0.75)),
    ({"r": [0.2, 1.1, 0.5]}, (0.2, 1.1, 0.5)),
    # explicit amplitudes: a scalar r squeezes every node here as well
    ({"r": 0.75, "alphas": [[60.0, 0.0], [50.0, 0.0], [40.0, 0.0]],
      "P": [0.4, 0.35, 0.25]}, (0.75, 0.75, 0.75)),
], ids=["scalar_r", "list_r", "explicit_alphas_scalar_r"])
def test_cli_sensitivity_of_a_separable_network(tmp_path, capsys, network, rs):
    # only scans need the entangled topology; sensitivity reads the network
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"].update(network, topology="separable")
    doc["scans"] = []
    path = _write_scenario(tmp_path, doc)
    assert cli.main(["sensitivity", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    n_c2 = [a[0] ** 2 for a in network.get("alphas", [])] or [1e4 / 3] * 3
    n_c = sum(n_c2)
    loss = 1 / (0.99 * 0.89 * 0.9999) - 1
    # ave weights: nu_j = 1/3, sum|nu| = 1
    expected = sum((math.exp(-2 * r) + loss) / 9 / m for r, m in zip(rs, n_c2))
    variance = payload["variance_rad2"]
    assert variance == pytest.approx(expected, rel=1e-9)
    # the budget counts every node's squeezed photons
    sql = 1.0 / (n_c + sum(math.sinh(r) ** 2 for r in rs))
    assert payload["db_vs_sql"] == pytest.approx(
        10 * math.log10(sql / variance), abs=1e-9)
    # the lossless bound of the strongest squeezer
    r = max(rs)
    assert payload["qcrb_rad2"] == pytest.approx(
        1.0 / (n_c * math.exp(2 * r) + math.sinh(r) ** 2), rel=1e-12)


@pytest.mark.parametrize("network, quantity", [
    # x_j = nu_j / C_jj ~ 1e160 at n_c = 1e-320: the variance's rounding
    # scale |x|^T |Gamma| |x| leaves the float range
    ({"n_c": 1e-320}, "variance_numeric"),
    # sum|nu| = 3e154: its square, which scales the laws' report, overflows
    ({"weights": [1e154] * 3}, "(sum|nu|)^2"),
    ({"weights": [1e154] * 3, "topology": "separable"}, "(sum|nu|)^2"),
    # |alpha_j|^2 underflows to 0: the separable variance reads inf, with no
    # RuntimeWarning, and the report's range guard names the ratio
    ({"d": 2, "weights": [0.5, 0.5], "alphas": [[1e-170, 0.0]] * 2,
      "P": [0.5, 0.5], "topology": "separable"}, "db_below_sql"),
    # |alpha_j|^2 overflows to inf: the separable variance reads 0, with no
    # bare OverflowError, and the same guard names the ratio
    ({"d": 2, "weights": [0.5, 0.5], "alphas": [[1e200, 0.0]] * 2,
      "P": [0.5, 0.5], "topology": "separable"}, "db_below_sql"),
], ids=["rounding_scale", "weight_sum_squared", "separable_weight_sum_squared",
        "separable_amplitude_underflow", "separable_amplitude_overflow"])
def test_cli_numerical_failure_exit_code(tmp_path, capsys, network, quantity):
    doc = json.loads(json.dumps(SCENARIO))
    doc["network"].update(network)
    doc["scans"] = []  # only scans need the entangled topology
    path = _write_scenario(tmp_path, doc)
    assert cli.main(["sensitivity", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        f"numerical failure: FloatRangeError: {quantity}: ")


@pytest.mark.parametrize("bug", [ZeroDivisionError, ValueError])
def test_a_bare_builtin_error_is_a_bug_that_propagates(tmp_path, monkeypatch, bug):
    """Only an errors.py class becomes a row status or an exit code: a bare
    ZeroDivisionError or ValueError raised inside a scan row, a trace row
    or `mzinet sensitivity` propagates."""
    def broken(*args, **kwargs):
        raise bug("planted")

    path = _write_scenario(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(laws, "qcrb", broken)  # every point report calls it
        with pytest.raises(bug, match="planted"):
            optimize.scan("n_c", [1e4], load_scenario(path).base_config())
        with pytest.raises(bug, match="planted"):
            cli.main(["sensitivity", "--config", str(path)])
    monkeypatch.setattr(tracelab, "simulate_joint_noise", broken)
    with pytest.raises(bug, match="planted"):
        run_scenario(_trace_scenario(tmp_path), tmp_path / "o")


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


@pytest.mark.parametrize("command", [
    ["scan", "--config", "{dir}", "--out", "{out}"],
    ["sensitivity", "--config", "{dir}"],
    ["trace", "synth", "--config", "{dir}", "--out", "{out}"],
    ["trace", "analyze", "--trace", "{dir}", "--config", "{good}"],
], ids=["scan_config", "sensitivity_config", "synth_config", "analyze_trace"])
def test_cli_unreadable_input_path_exit_code(tmp_path, capsys, command):
    # a directory cannot be read as a file: exit 2 naming the path, as a
    # missing file does
    good = _write_scenario(tmp_path, _trace_doc(3))
    folder = tmp_path / "folder.json"
    folder.mkdir()
    code = cli.main([arg.format(dir=folder, good=good, out=tmp_path / "o")
                     for arg in command])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("configuration error: ")
    assert str(folder) in captured.err
    assert not (tmp_path / "o").exists()


def test_cli_non_utf8_scenario_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ScenarioParseError, match="not UTF-8"):
        load_scenario(path)
    for command in ("scan", "sensitivity"):
        code = cli.main([command, "--config", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: scenario: not UTF-8 text: 'utf-8' codec ")


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


def test_cli_trace_analyze_names_a_window_without_power(tmp_path, capsys):
    path = _write_scenario(tmp_path, _trace_doc(2))
    params = scenarios._trace_block(load_scenario(path).trace).params
    zeros = tracelab.TraceSet(np.zeros((2, tracelab._n_samples(params))), params, 5)
    trace_path = tracelab.write_trace(tmp_path / "zero.mztr", zeros)
    code = cli.main(["trace", "analyze", "--trace", str(trace_path),
                     "--config", str(path)])
    assert code == 3
    assert capsys.readouterr().err == ("numerical failure: AnalysisError: the mean "
                                       "band power of the gated window is 0.0\n")


@pytest.mark.parametrize("field, value, message", [
    (4, 0.0, "cycle must be finite and > 0, got 0.0"),
    (7, -4e6, "drive_freq must be finite and > 0, got -4000000.0"),
], ids=["cycle_zero", "drive_negative"])
def test_cli_trace_analyze_names_a_bad_header(tmp_path, capsys, field, value, message):
    path = _write_scenario(tmp_path, _trace_doc(3))
    code = cli.main(["trace", "synth", "--config", str(path),
                     "--out", str(tmp_path / "t"), "--seed", "5"])
    assert code == 0
    trace_path = capsys.readouterr().out.strip()
    data = bytearray(Path(trace_path).read_bytes())
    fields = list(tracelab._HEADER.unpack_from(data))
    fields[field] = value
    tracelab._HEADER.pack_into(data, 0, *fields)
    Path(trace_path).write_bytes(bytes(data))
    code = cli.main(["trace", "analyze", "--trace", trace_path,
                     "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == (f"numerical failure: AnalysisError: trace "
                            f"{trace_path}: {message}\n")
    assert captured.out == ""


@pytest.mark.parametrize("trace, message", [
    ({"drive_freq": 0}, "drive_freq must be finite and > 0, got 0.0"),
    ({"drive_freq": -4e6}, "drive_freq must be finite and > 0, got -4000000.0"),
    ({"cycle": -8e-3}, "cycle must be finite and > 0, got -0.008"),
], ids=["drive_zero", "drive_negative", "cycle_negative"])
def test_cli_refuses_a_timing_trace_params_refuses_at_load(tmp_path, capsys, trace,
                                                          message):
    # fig2 with no tone ran to ok rows: the timing's one check is TraceParams
    doc = json.loads(bundled_scenario_path("fig2").read_text())
    doc["trace"].update(trace)
    path = _write_scenario(tmp_path, doc)
    out = tmp_path / "o"
    code = cli.main(["scan", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: trace: {message}\n"
    assert not out.exists()


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
