#!/usr/bin/env python3
"""Wall time of each check of the full verification suite.

Folds the draws of each row of ``scenarios._CHECKS`` at its full count
(``scenarios._deviation``, verify's fold) N times in process, after one
untimed warm-up run, each run on one generator seeded as ``verify`` seeds it
and in verify's order, so every run draws the same configs.  Prints each
check's minimum and median wall time over the N runs, then those of the
whole run.

Usage: python scripts/verify_timing.py [N]   (default: 20)
"""

import inspect
import statistics
import sys
import time

import numpy as np

from mzinet.scenarios import _CHECKS, _deviation, verify

SEED = inspect.signature(verify).parameters["seed"].default


def run_once():
    """Seconds of each check, in `_CHECKS` order, of one full run."""
    rng = np.random.default_rng(SEED)
    times = []
    for _, _, _, full, check in _CHECKS:
        start = time.perf_counter()
        _deviation(check, rng, full)
        times.append(time.perf_counter() - start)
    return times


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    if n < 1:
        raise SystemExit("N must be >= 1")
    run_once()
    runs = [run_once() for _ in range(n)]
    rows = [(name, [run[i] for run in runs]) for i, (name, *_) in enumerate(_CHECKS)]
    rows.append(("total", [sum(run) for run in runs]))
    width = max(len(name) for name, _ in rows)
    print(f"{'check':<{width}} {'min_ms':>9} {'median_ms':>10}")
    for name, times in rows:
        print(f"{name:<{width}} {min(times) * 1e3:>9.2f} {statistics.median(times) * 1e3:>10.2f}")


if __name__ == "__main__":
    main()
