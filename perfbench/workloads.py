"""Workload definitions and the deterministic input generator.

A workload is a list of operations run back to back as one pass.  Each
operation is either a ``cli`` argv handed to ``mzinet.cli.main`` in-process,
or a ``verify`` call of ``mzinet.scenarios.verify``.  The generator writes
every input a pass reads (the plan, and any generated scenario) as files, so
their sha256 digests can go into the run fingerprint.

This module does not import mzinet, so the generator can be tested alone.
"""

from __future__ import annotations

import json
from pathlib import Path

TRACE_FIGURES = ("fig2", "fig5b")
ANALYTIC_FIGURES = ("fig3a", "fig3b", "fig3c", "fig4", "fig5a")

# Distributed-sensing regime: eight network sizes from 32 to 256 nodes.  d=512
# is left out because one point costs about 27 s with the O(d^3) Gaussian
# engine of the seed commit.
LARGE_D_GRID = (32, 48, 64, 96, 128, 160, 192, 256)
LARGE_NETWORK = {
    "d": 6, "r": 0.75, "K": 1, "weights": "ave", "n_c": 2.7e16,
    "eta_dis": 0.99, "eta_mzi": 0.89, "eta_m": 0.9999,
}

# BENCHMARK.json lists all but analytic_figures, whose wall time is too
# unsteady on a shared 2-vCPU machine to hold a bound; it is run by hand.
WORKLOADS = ("trace_figures", "analytic_figures", "large_network", "verify_full")
OUT = "out"  # output directory of the CLI operations, relative to the run directory


def _reproduce(figures, seed):
    return [{"cli": ["reproduce", fig, "--out", OUT, "--seed", str(seed)],
             "scenario": {"bundled": fig}} for fig in figures]


def plan(workload: str, seed: int) -> tuple[list, dict]:
    """Operations of one pass plus the generated scenario documents.

    Returns (operations, {file name: scenario document}).  Scenario paths in
    the operations are relative to the input directory.
    """
    if workload == "trace_figures":
        return _reproduce(TRACE_FIGURES, seed), {}
    if workload == "analytic_figures":
        return _reproduce(ANALYTIC_FIGURES, seed), {}
    if workload == "large_network":
        doc = {
            "schema": 1,
            "name": "large_network",
            "seed": seed,
            "network": dict(LARGE_NETWORK),
            "scans": [{"label": "d", "axis": "d", "grid": list(LARGE_D_GRID),
                       "engines": ["analytic", "numeric"]}],
        }
        op = {"cli": ["scan", "--config", "large_network.json", "--out", OUT,
                      "--seed", str(seed)],
              "scenario": {"generated": "large_network.json"}}
        return [op], {"large_network.json": doc}
    if workload == "verify_full":
        # verify runs with the program's own seed, as `mzinet verify --full`
        # does: its "trace noise recovery" check fails at some seeds (2 and 13
        # of 0..39) because its 0.2 dB bound is about 2.5 standard deviations
        # of one Monte Carlo estimate.
        return [{"verify": {"level": "full"}}], {}
    raise ValueError(f"unknown workload {workload!r}; know {WORKLOADS}")


def generate(workload: str, seed: int, directory) -> list[Path]:
    """Write the inputs of a workload for this seed; returns the files written.

    The same workload and seed always give byte-identical files.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    operations, documents = plan(workload, seed)
    written = []
    for name, doc in sorted(documents.items()):
        path = directory / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        written.append(path)
    path = directory / "plan.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "operations": operations},
                               indent=2, sort_keys=True) + "\n")
    written.append(path)
    return written
