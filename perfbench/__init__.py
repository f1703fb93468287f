"""Benchmark harness for mzinet: workloads, correctness gate and layer tracing.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""
