#!/usr/bin/env python3
"""Seed sweep of the full verification suite.

Runs ``verify("full", seed=s)`` for every s in [first, stop) and prints each
failing check with its deviation and bound, then how many seeds failed.  A
Monte Carlo check bounds an estimate at a few standard errors, so a few
failing seeds in a long sweep are expected by chance; the sweep reports
them and exits 0.

Usage: python scripts/verify_sweep.py [first] [stop]   (defaults: 0, first + 40)
"""

import sys

from mzinet.scenarios import verify


def main():
    first = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    stop = int(sys.argv[2]) if len(sys.argv) > 2 else first + 40
    failed = 0
    for seed in range(first, stop):
        failing = [c for c in verify("full", seed=seed).checks if not c.ok]
        for check in failing:
            print(f"seed {seed}: {check.name}: deviation {check.deviation!r} "
                  f"> bound {check.bound!r}")
        failed += bool(failing)
    print(f"{failed} of {stop - first} seeds failed ({first}..{stop - 1})")


if __name__ == "__main__":
    main()
