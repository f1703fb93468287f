"""Regenerate perfbench/reference.json from the current sources.

    PYTHONPATH=src:. python3 -m perfbench.make_reference

The reference holds the deterministic CSV columns of every workload (Monte
Carlo cells reduced to whether they are filled) and the names and bounds of
the verify checks.  Deterministic columns do not depend on the workload seed,
so one seed serves every run.  Only regenerate it when a change to the
program is meant to change those columns, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
from pathlib import Path

from perfbench import gate, worker, workloads
from perfbench.run import source_digest

ROOT = Path(__file__).resolve().parent.parent


def reference_for(workload: str) -> dict:
    operations, _ = worker.load_inputs(workload, seed=0)
    codes, checks = worker.run_operations(operations)
    if any(codes):
        raise SystemExit(f"{workload}: exit codes {codes}")
    if checks:
        names = [[name, bound] for name, _, bound, _ in checks]
        return {"verify": names, "sha256": gate.verify_digest(names)}
    files = {p.name: gate.reference_entry(p.read_text())
             for p in sorted(worker.OUT.glob("*.csv"))}
    return {"files": files, "sha256": gate.digest(files)}


def main():
    work = ROOT / ".perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for workload in workloads.WORKLOADS:
        (work / workload).mkdir(parents=True)
        os.chdir(work / workload)
        reference[workload] = reference_for(workload)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    reference["source"] = {"git_commit": commit or None,
                           "src_sha256": source_digest(ROOT / "src")}
    path = worker.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(path)


if __name__ == "__main__":
    main()
