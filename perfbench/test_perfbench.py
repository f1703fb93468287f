"""Tests of the benchmark harness itself: input generator, correctness gate,
self-time accounting and tracer installation."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import gate, layers, tracing, workloads  # noqa: E402

REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = workloads.generate(workload, 7, tmp_path / "a")
    again = workloads.generate(workload, 7, tmp_path / "b")
    other = workloads.generate(workload, 8, tmp_path / "c")
    assert [p.name for p in first] == [p.name for p in again] == [p.name for p in other]
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]


def _clean_outputs():
    """trace_figures CSVs as a correct run writes them: the reference with
    each Monte Carlo cell set to the model value."""
    texts = {}
    for name, entry in REFERENCE["trace_figures"]["files"].items():
        header = entry["header"]
        model = header.index("db_below_sql")
        lines = [",".join(header)]
        for row in entry["rows"]:
            row = [row[model] if cell == gate.MC_PRESENT else cell for cell in row]
            lines.append(",".join(row))
        texts[name] = "\n".join(lines) + "\n"
    return texts


def _mutate(texts, column, change, rows=(0,), name="fig2_joint_noise.csv"):
    texts = dict(texts)
    header, body = gate.parse_csv(texts[name])
    i = header.index(column)
    for r in rows:
        body[r][i] = change(body[r][i])
    texts[name] = "\n".join(",".join(line) for line in [header] + body) + "\n"
    return texts


def _gate(texts):
    return gate.check_outputs(texts, REFERENCE["trace_figures"]["files"])


def test_gate_accepts_clean_outputs():
    attempted, failures = _gate(_clean_outputs())
    assert failures == []
    assert attempted == 2 + 3 + 1  # fig2 rows, fig5b rows, Monte Carlo mean


def test_gate_tolerates_last_digit_noise():
    texts = _mutate(_clean_outputs(), "variance_qcrb",
                    lambda v: f"{float(v) * (1 + 1e-14):.16e}")
    assert _gate(texts)[1] == []


@pytest.mark.parametrize("column", ["variance_closed_form", "sql", "n_s_opt",
                                    "branch_floor", "K"])
def test_gate_rejects_moved_deterministic_cell(column):
    def move(v):
        return f"{float(v) * (1 + 1e-11):.16e}" if v else "1"

    attempted, failures = _gate(_mutate(_clean_outputs(), column, move))
    assert len(failures) == 1 and column in failures[0]


def test_gate_rejects_changed_string_cell():
    texts = _mutate(_clean_outputs(), "regime", lambda v: v + "x")
    assert len(_gate(texts)[1]) == 1


def test_gate_rejects_engine_disagreement():
    texts = _mutate(_clean_outputs(), "variance_numeric",
                    lambda v: f"{float(v) * (1 + 1e-8):.16e}")
    assert len(_gate(texts)[1]) == 1


def test_gate_rejects_monte_carlo_row_off():
    texts = _mutate(_clean_outputs(), "db_below_sql_mc",
                    lambda v: f"{float(v) + 0.5:.16e}")
    failures = _gate(texts)[1]
    assert len(failures) == 1 and "db_below_sql_mc" in failures[0]


def test_gate_rejects_monte_carlo_column_0_3_db_off():
    texts = _clean_outputs()
    for name in texts:
        n_rows = len(gate.parse_csv(texts[name])[1])
        texts = _mutate(texts, "db_below_sql_mc", lambda v: f"{float(v) + 0.3:.16e}",
                        rows=range(n_rows), name=name)
    failures = _gate(texts)[1]
    assert len(failures) == 1 and "mean" in failures[0]


def test_gate_rejects_missing_monte_carlo_value():
    texts = _mutate(_clean_outputs(), "db_below_sql_mc", lambda v: "")
    assert len(_gate(texts)[1]) == 1


def test_gate_rejects_error_status():
    texts = _mutate(_clean_outputs(), "status",
                    lambda v: "error:DarkResponseError: channels [0]")
    failures = _gate(texts)[1]
    assert len(failures) == 1 and "error:" in failures[0]


def test_gate_rejects_missing_rows():
    texts = _clean_outputs()
    texts["fig5b_patterns.csv"] = texts["fig5b_patterns.csv"].split("\n", 1)[0] + "\n"
    attempted, failures = _gate(texts)
    assert len(failures) == 3 and attempted == 6


def test_gate_rejects_short_row():
    texts = _clean_outputs()
    texts["fig2_joint_noise.csv"] = texts["fig2_joint_noise.csv"].rstrip("\n") + ",,\n"
    texts["fig5b_patterns.csv"] = texts["fig5b_patterns.csv"].rsplit(",", 3)[0] + "\n"
    entries = {name: gate.reference_entry(text) for name, text in texts.items()}
    assert gate.digest(entries) != REFERENCE["trace_figures"]["sha256"]
    assert len(_gate(texts)[1]) == 2


def test_verify_gate():
    reference = REFERENCE["verify_full"]["verify"]
    checks = [(name, 0.0, bound, True) for name, bound in reference]
    assert gate.check_verify(checks, reference) == (len(reference), [])
    checks[0] = (checks[0][0], 1.0, checks[0][2], False)
    assert len(gate.check_verify(checks, reference)[1]) == 1
    assert gate.check_verify(checks[1:], reference)[1]


def test_reference_digests_match_entries():
    for workload in ("trace_figures", "analytic_figures", "large_network"):
        entry = REFERENCE[workload]
        assert gate.digest(entry["files"]) == entry["sha256"]
    assert gate.verify_digest(REFERENCE["verify_full"]["verify"]) == \
        REFERENCE["verify_full"]["sha256"]


def _span(span_id, parent, name, start, end, thread=1, value=0):
    return (span_id, parent, thread, name, start, end, value)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, 0, "cli.main", 0.0, 10.0, value="reproduce fig2"),
        _span(2, 1, "scenarios.run_scenario", 1.0, 4.0, value=100),
        _span(3, 2, "network.build_network", 2.0, 3.0),
        _span(4, 1, "network.build_network", 5.0, 6.0),
        # a child on another thread overlapping both siblings counts once
        _span(5, 1, "laws.qcrb", 3.5, 5.5, thread=2),
        _span(6, 0, "laws.qcrb", 20.0, 20.25),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 2.0, 6: 0.25}
    table = tracing.summarize(spans)
    assert table["network.build_network"] == {"calls": 2, "self_s": 2.0, "amount": 0}
    assert table["laws.qcrb"]["self_s"] == 2.25
    assert table["scenarios.run_scenario"]["amount"] == 100
    assert table["cli.main:reproduce fig2"]["self_s"] == 10.0
    assert layers.value(table, ("network.", "laws."), "calls") == 4


def test_tracer_wraps_every_binding_and_restores_them():
    import mzinet
    from mzinet import gaussian, network, optimize, scenarios

    original = network.sensitivity_numeric
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        for holder in (network, optimize, scenarios, mzinet):
            assert holder.sensitivity_numeric is not original
            assert holder.sensitivity_numeric.__wrapped__ is original
        assert network.g.apply_loss is gaussian.apply_loss
        cfg = optimize.configure_optimal((0.5, 0.5), 1e6, 0.3, eta_dis=0.9)
        optimize.sensitivity_numeric(cfg)
    finally:
        uninstall()
    assert network.sensitivity_numeric is original
    assert optimize.sensitivity_numeric is original
    by_id = {s[0]: s for s in tracer.spans}
    names = [s[3] for s in tracer.spans]
    assert names.count("network.sensitivity_numeric") == 1
    assert names.count("network.build_network") == 1
    build = next(s for s in tracer.spans if s[3] == "network.build_network")
    assert by_id[build[1]][3] == "network.noise_matrix"
    losses = [s for s in tracer.spans if s[3] == "gaussian.apply_loss"]
    assert len(losses) == 3 * 2 and all(by_id[s[1]] == build for s in losses)
    assert all(s[6] == (8 + 64) * 8 for s in losses)  # 4 modes: mean + cov bytes


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    defined = {name: (unit, better) for name, unit, better, *_ in
               layers.PER_LAYER + layers.TRACE_METRICS}
    assert declared == defined
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
