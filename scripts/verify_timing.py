#!/usr/bin/env python3
"""Wall time and memory of each check of the full verification suite.

Folds the draws of each row of ``scenarios._CHECKS`` at its full count
(``scenarios._deviation``, verify's fold) N times in process, after one
untimed cold run, each run on one generator seeded as ``verify`` seeds it
and in verify's order, so every run draws the same configs.  Prints each
check's minimum and median wall time over the N runs, then those of the
whole run.  Then, from the cold run, prints the process's resident MB
before the first check and after each check (from ``/proc/self/statm``;
"-" where it is absent) and its peak resident MB so far (``ru_maxrss``),
so verify's memory can be traced to its checks.

Usage: python scripts/verify_timing.py [N]   (default: 20)
"""

import inspect
import os
import resource
import statistics
import sys
import time

import numpy as np

from mzinet.scenarios import _CHECKS, _deviation, verify

SEED = inspect.signature(verify).parameters["seed"].default
MB = 1 << 20


def memory():
    """(resident, peak resident) MB of this process; resident is None
    without /proc/self/statm.  The kernel updates the two counts apart, so
    the resident size may read a little above the peak.  ru_maxrss is in kB
    on Linux and in bytes on macOS."""
    try:
        with open("/proc/self/statm") as fh:
            rss = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MB
    except OSError:
        rss = None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss, peak / (MB if sys.platform == "darwin" else 1024)


def run_once(readings=None):
    """Seconds of each check, in `_CHECKS` order, of one full run; with a
    list `readings`, also appends `memory()` after each check."""
    rng = np.random.default_rng(SEED)
    times = []
    for _, _, _, full, check in _CHECKS:
        start = time.perf_counter()
        _deviation(check, rng, full)
        times.append(time.perf_counter() - start)
        if readings is not None:
            readings.append(memory())
    return times


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    if n < 1:
        raise SystemExit("N must be >= 1")
    readings = [memory()]
    run_once(readings)
    runs = [run_once() for _ in range(n)]
    rows = [(name, [run[i] for run in runs]) for i, (name, *_) in enumerate(_CHECKS)]
    rows.append(("total", [sum(run) for run in runs]))
    width = max(len(name) for name, _ in rows)
    print(f"{'check':<{width}} {'min_ms':>9} {'median_ms':>10}")
    for name, times in rows:
        print(f"{name:<{width}} {min(times) * 1e3:>9.2f} {statistics.median(times) * 1e3:>10.2f}")
    print()
    print(f"{'cold run':<{width}} {'rss_mb':>9} {'peak_mb':>10}")
    for name, (rss, peak) in zip(["start"] + [name for name, *_ in _CHECKS], readings):
        rss = "-" if rss is None else f"{rss:.2f}"
        print(f"{name:<{width}} {rss:>9} {peak:>10.2f}")


if __name__ == "__main__":
    main()
