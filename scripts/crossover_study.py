#!/usr/bin/env python3
"""Budget-allocation crossover study.

For a few loss levels, sweep the total photon budget, optimize the
squeezed/coherent split at each point and tabulate where the optimized
variance leaves the shot-noise branch, how close it gets to the 1/n_T^2
scaling and where the loss floor takes over.

Usage: python scripts/crossover_study.py [out.csv]
"""

import sys

import numpy as np

from mzinet import laws
from mzinet.optimize import optimize_squeezing


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else "crossover_study.csv"
    lambdas = (1e-1, 1e-3)
    budgets = np.logspace(-3, 7, 51)
    lines = ["Lambda,n_T,n_s_opt,variance,branch_low,branch_heisenberg,"
             "branch_floor,regime"]
    for lam in lambdas:
        variances = []
        for n_t in budgets:
            n_s, variance = optimize_squeezing(n_t, Lambda=lam)
            variances.append(variance)
            limits = laws.regime_limits(n_t, lam)
            lines.append(
                f"{lam:.3e},{n_t:.6e},{n_s:.6e},{variance:.6e},"
                f"{limits.low_n:.6e},{limits.heisenberg:.6e},"
                f"{limits.loss_floor:.6e},{limits.active}"
            )
        # summarize the two crossovers for this loss level
        hl_entry = min(
            (abs(variance * n_t**2 - 1), n_t)
            for n_t, variance in zip(budgets, variances) if 1 < n_t < 1 / lam
        )
        print(f"Lambda={lam:g}: closest Heisenberg approach at "
              f"n_T={hl_entry[1]:.3g} (variance*n_T^2 off by {hl_entry[0]:.2%})")
    with open(out, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
