"""Per-layer metrics of the traced run, computed from span summaries.

Each metric sums one field (``calls``, ``self_s`` or the computed
``amount``) over a set of traced functions; a name ending in ``.`` selects
every public function of that module.  The value reported for a run is the
median over its traced passes (the lower median for counts, so they stay
whole).  BENCHMARK.json lists the same names.
"""

from __future__ import annotations

import statistics

from perfbench.tracing import GAUSSIAN_OPS, LAYERS

OPS = tuple(f"gaussian.{op}" for op in GAUSSIAN_OPS)

# (name, unit, better, traced functions, field)
PER_LAYER = (
    ("gaussian.ops.calls", "count", "lower", OPS, "calls"),
    ("gaussian.ops.self_s", "s", "lower", OPS, "self_s"),
    # computed: mean plus cov bytes of each input state, each op copies it
    ("gaussian.ops.bytes_copied", "bytes", "lower", OPS, "amount"),
    ("gaussian.homodyne_moments.self_s", "s", "lower",
     ("gaussian.homodyne_moments",), "self_s"),
    ("network.build_network.calls", "count", "lower",
     ("network.build_network",), "calls"),
    ("network.build_network.self_s", "s", "lower", ("network.build_network",), "self_s"),
    ("network.noise_matrix.calls", "count", "lower", ("network.noise_matrix",), "calls"),
    ("network.sensitivity_numeric.calls", "count", "lower",
     ("network.sensitivity_numeric",), "calls"),
    ("network.sensitivity_numeric.self_s", "s", "lower",
     ("network.sensitivity_numeric",), "self_s"),
    ("network.closed_form_variance.self_s", "s", "lower",
     ("network.closed_form_variance",), "self_s"),
    ("optimize.configure_optimal.calls", "count", "lower",
     ("optimize.configure_optimal",), "calls"),
    ("optimize.optimize_squeezing.calls", "count", "lower",
     ("optimize.optimize_squeezing",), "calls"),
    ("optimize.optimize_squeezing.self_s", "s", "lower",
     ("optimize.optimize_squeezing",), "self_s"),
    ("optimize.golden_min.evals", "count", "lower", ("optimize.golden_min",), "amount"),
    ("optimize.scan.rows", "count", "higher", ("optimize.scan",), "amount"),
    # includes waiting for the thread pool: row spans run on pool threads
    ("optimize.scan.self_s", "s", "lower", ("optimize.scan",), "self_s"),
    ("fock.oracle_sensitivity.calls", "count", "lower",
     ("fock.oracle_sensitivity",), "calls"),
    ("fock.oracle_sensitivity.self_s", "s", "lower",
     ("fock.oracle_sensitivity",), "self_s"),
    ("tracelab.synthesize.calls", "count", "lower", ("tracelab.synthesize",), "calls"),
    ("tracelab.synthesize.self_s", "s", "lower", ("tracelab.synthesize",), "self_s"),
    # computed: d x samples per channel of each synthesize call
    ("tracelab.normals_drawn", "count", "lower", ("tracelab.synthesize",), "amount"),
    ("tracelab.joint_noise_analysis.self_s", "s", "lower",
     ("tracelab.joint_noise_analysis",), "self_s"),
    ("tracelab.segment_band_powers.calls", "count", "lower",
     ("tracelab.segment_band_powers",), "calls"),
    ("tracelab.segment_band_powers.self_s", "s", "lower",
     ("tracelab.segment_band_powers",), "self_s"),
    # computed: band powers returned, one per analysis segment
    ("tracelab.segments", "count", "lower", ("tracelab.segment_band_powers",), "amount"),
    ("scenarios.load_scenario.self_s", "s", "lower", ("scenarios.load_scenario",), "self_s"),
    # CSV emission plus the trace-point glue
    ("scenarios.run_scenario.self_s", "s", "lower", ("scenarios.run_scenario",), "self_s"),
    # computed: size of the CSV files run_scenario returns
    ("scenarios.csv_bytes", "bytes", "lower", ("scenarios.run_scenario",), "amount"),
    ("scenarios.verify.self_s", "s", "lower", ("scenarios.verify",), "self_s"),
    ("cli.main.self_s", "s", "lower", ("cli.main",), "self_s"),
) + tuple(
    (f"{layer}.{field}", "count" if field == "calls" else "s", "lower", (f"{layer}.",), field)
    for layer in LAYERS for field in ("calls", "self_s")
)
TRACE_METRICS = (
    ("trace.wall_s", "s", "lower"),      # median wall time of a traced pass
    ("trace.overhead_s", "s", "lower"),  # traced minus untraced median pass wall time
)


def _selected(summary, functions):
    for name, entry in summary.items():
        if ":" in name:
            continue
        if any(name == f or (f.endswith(".") and name.startswith(f)) for f in functions):
            yield entry


def value(summary, functions, field):
    return sum(entry[field] for entry in _selected(summary, functions))


def metrics(traced, untraced) -> dict:
    """Per-layer metrics of a traced run from its traced and untraced passes."""
    out = {}
    for name, unit, _, functions, field in PER_LAYER:
        samples = [value(p["layers"], functions, field) for p in traced]
        # counts and computed amounts stay whole: report one pass's value
        median = statistics.median if unit == "s" else statistics.median_low
        out[name] = {"value": median(samples), "unit": unit}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return out


def shares(traced) -> dict:
    """Share of each layer in the summed self time of the traced passes."""
    totals = {layer: sum(value(p["layers"], (f"{layer}.",), "self_s") for p in traced)
              for layer in LAYERS}
    whole = sum(totals.values()) or 1.0
    return {layer: total / whole for layer, total in totals.items()}


def figure_seconds(traced) -> dict:
    """Median wall seconds of each labelled cli.main call, e.g. 'reproduce fig2'."""
    labels = sorted({n for p in traced for n in p["layers"] if n.startswith("cli.main:")})
    return {label.split(":", 1)[1]: statistics.median(
        p["layers"][label]["self_s"] for p in traced if label in p["layers"])
        for label in labels}
