"""Run one mzinet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The workload runs in a fresh Python process
(``perfbench/worker.py``) that imports mzinet from ``src``, generates its
inputs from the seed, runs one untimed warm-up pass, then runs passes back to
back from one client (a closed loop), starting a pass only while it fits in
``--seconds``.  Every pass goes through the correctness gate.
``MZINET_THREADS`` is removed from the worker's environment, so scans use the
program's default thread budget.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(median pass wall and CPU time, peak RSS, median set-up time of the worker and
of ten probes started between its passes); with ``--trace 1`` untraced and
traced passes alternate and it reports the per-layer metrics of the traced
passes plus the tracing overhead.  The line before it is a JSON object with
the run fingerprint, the output digests and the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent))

from perfbench import layers, workloads  # noqa: E402

RUN_LIMIT_S = 170.0     # the whole run must end within 180 s


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_worker(args, workdir: Path, env, deadline: float):
    """Start the workload process and wait for it; returns (its result, the
    seconds from its start until its inputs were loaded)."""
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit("worker did not finish within the run limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    return result, result["ready"] - start


def main(argv=None) -> int:
    started = time.monotonic()
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "mzinet" / "__init__.py").is_file():
        print(f"error: no mzinet sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    threads_env_set = env.pop("MZINET_THREADS", None) is not None
    env["PYTHONPATH"] = os.pathsep.join((str(src), str(BENCH_DIR.parent)))
    base = root / ".perfbench" / args.workload
    shutil.rmtree(base, ignore_errors=True)

    result, setup = run_worker(args, base, env, started + RUN_LIMIT_S)
    setups = [setup] + result["setup_probes_s"]

    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    checked = [result["warmup"]] + passes
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    failures = [f for p in checked for f in p["failures"]][:10]
    # same seed, same bytes: every pass, traced or not, must write identical outputs
    digests = sorted({p["full_sha256"] for p in checked})
    if len(digests) != 1:
        attempted += 1
        failed += 1
        failures.append(f"outputs differ between passes: {len(digests)} digests")

    if args.trace:
        metrics = layers.metrics(traced, untraced)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in untraced),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in untraced),
                      "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    fingerprint = dict(result["fingerprint"])
    fingerprint.update({
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
        "mzinet_threads_was_set": threads_env_set,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    detail = {
        "fingerprint": fingerprint,
        "deterministic_sha256": checked[-1]["det_sha256"],
        "deterministic_matches_reference": checked[-1]["det_sha256"] == json.loads(
            (BENCH_DIR / "reference.json").read_text())[args.workload]["sha256"],
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        "failed_fraction": failed / attempted,
        "failures": failures,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "wall_s_samples": [p["wall_s"] for p in untraced],
        "cpu_s_samples": [p["cpu_s"] for p in untraced],
        "setup_s_samples": setups,
    }
    if args.trace:
        detail["layer_shares"] = layers.shares(traced)
        detail["figure_s"] = layers.figure_seconds(traced)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
