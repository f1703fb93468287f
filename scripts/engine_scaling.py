#!/usr/bin/env python3
"""Wall time and memory peak of the numeric engine against the network size.

For each d, builds the scan's d-axis network (the "ave" weights with a fixed
coherent intensity per node, r = 0.75, the bundled efficiencies) and prints
the median wall time of ``sensitivity_numeric`` over five warm calls and the
tracemalloc peak of one more call.  The default sizes start at verify's
d = 4 and the bundled figures' d = 6, where fixed per-call costs dominate;
sizes beyond a scan's grid show how the engine's time and memory grow
with d.

Usage: python scripts/engine_scaling.py [d ...]   (default: 4 6 32 64 ... 2048)
"""

import statistics
import sys
import time
import tracemalloc

from mzinet.network import sensitivity_numeric, weight_pattern
from mzinet.optimize import configure_optimal

REPEATS = 5


def network(d):
    return configure_optimal(weight_pattern("ave", d), 4.5e15 * d, 0.75,
                             eta_dis=0.99, eta_mzi=0.89, eta_m=0.9999)


def measure(d):
    """(median wall seconds, tracemalloc peak bytes) of sensitivity_numeric."""
    cfg = network(d)
    sensitivity_numeric(cfg)
    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        sensitivity_numeric(cfg)
        walls.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        sensitivity_numeric(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(walls), peak


def main():
    sizes = [int(a) for a in sys.argv[1:]] or [4, 6] + [32 << k for k in range(7)]
    print(f"{'d':>6} {'wall_ms':>10} {'peak_mb':>9}")
    for d in sizes:
        wall, peak = measure(d)
        print(f"{d:>6} {wall * 1e3:>10.3f} {peak / 1e6:>9.2f}")


if __name__ == "__main__":
    main()
