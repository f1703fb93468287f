"""One workload process: set up, warm up, then run passes back to back.

Started by ``run.py`` with the run directory as working directory and
``src`` on ``PYTHONPATH``; writes its measurements as JSON to ``--result``.
With ``--setup-only`` it stops once the inputs are generated and loaded; the
worker starts such probes between passes to time set-up in fresh processes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import mzinet
from mzinet import cli, scenarios

from perfbench import gate, tracing, workloads

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
OUT = Path(workloads.OUT)
SETUP_PROBES = 10  # fresh processes timed between passes of an untraced run


def load_inputs(workload: str, seed: int):
    """Generate the inputs in the working directory and load every scenario.

    Returns (operations, {input file name: sha256})."""
    files = workloads.generate(workload, seed, ".")
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    operations = json.loads(Path("plan.json").read_text())["operations"]
    for op in operations:
        source = op.get("scenario")
        if source is None:
            continue
        if "bundled" in source:
            path = scenarios.bundled_scenario_path(source["bundled"])
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            path = source["generated"]
        scenarios.load_scenario(path)
    return operations, hashes


def run_operations(operations):
    """Run one pass; returns (exit codes, verify checks)."""
    codes, checks = [], []
    for op in operations:
        if "cli" in op:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(op["cli"]))
        else:
            report = scenarios.verify(**op["verify"])
            checks += [(c.name, c.deviation, c.bound, c.ok) for c in report.checks]
    return codes, checks


def collect_outputs(reference, checks):
    """The text of each reference CSV as this pass wrote it ("" if missing),
    and a sha256 over every output byte (CSV, metadata, verify deviations)."""
    full = hashlib.sha256()
    entries = {}
    for name in sorted(reference.get("files", ())):
        path = OUT / name
        text = path.read_text() if path.exists() else ""
        entries[name] = text
        full.update(name.encode() + b"\n" + text.encode())
    for path in sorted(OUT.glob("*_meta.txt")):
        full.update(path.read_bytes())
    full.update(repr(checks).encode())
    return entries, full.hexdigest()


def gate_pass(reference, codes, checks):
    """Apply the correctness gate; returns (attempted, failures, det sha256, full sha256)."""
    attempted = len(codes)
    failures = [f"exit code {code}" for code in codes if code != 0]
    texts, full = collect_outputs(reference, checks)
    if texts:
        n, problems = gate.check_outputs(texts, reference["files"])
        attempted += n
        failures += problems
    if "verify" in reference:
        n, problems = gate.check_verify(checks, reference["verify"])
        attempted += n
        failures += problems
        det = gate.verify_digest([[c[0], c[2]] for c in checks])
    else:
        det = gate.digest({name: gate.reference_entry(t) for name, t in texts.items()})
    return attempted, failures, det, full


def one_pass(operations, reference, tracer=None):
    shutil.rmtree(OUT, ignore_errors=True)
    uninstall = tracer.install() if tracer is not None else None
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        codes, checks = run_operations(operations)
        wall = time.perf_counter() - t0
        cpu1 = time.process_time()
    finally:
        if uninstall is not None:
            uninstall()
    attempted, failures, det, full = gate_pass(reference, codes, checks)
    return {
        "traced": tracer is not None,
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures[:5],
        "det_sha256": det,
        "full_sha256": full,
        "layers": tracing.summarize(tracer.spans) if tracer is not None else None,
    }


def blas_build():
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 prints only
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def fingerprint(seed, input_hashes):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mzinet": mzinet.__version__,
        "mzinet_path": str(Path(mzinet.__file__).resolve().parent),
        "blas": blas_build(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "seed": seed,
        "inputs_sha256": input_hashes,
    }


def time_setup(args) -> float:
    """Seconds from starting a fresh worker until its inputs are loaded."""
    workdir = Path("probe")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--result", "probe.json",
           "--setup-only"]
    start = time.monotonic()
    subprocess.run(cmd, cwd=workdir, check=True, capture_output=True, timeout=60)
    return json.loads((workdir / "probe.json").read_text())["ready"] - start


def write_spans(path, spans):
    with open(path, "w") as fh:
        fh.write("id\tparent\tthread\tname\tstart\tend\tamount\n")
        for span in spans:
            fh.write("\t".join(str(x) for x in span) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    operations, input_hashes = load_inputs(args.workload, args.seed)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        reference = json.loads(REFERENCE.read_text())[args.workload]
        result["fingerprint"] = fingerprint(args.seed, input_hashes)
        result["warmup"] = one_pass(operations, reference)
        passes, setups, spans = [], [], None
        # set-up probes are spread over the run, between passes, so their
        # median averages over the machine's slower and faster periods
        probes = 0 if args.trace else SETUP_PROBES
        probe_offsets = [i * args.seconds / probes for i in range(probes)]
        start = time.perf_counter()
        deadline = start + args.seconds
        # a pass starts only if one more pass of the last one's length fits
        while not passes or (args.trace and len(passes) < 2) or (
                time.perf_counter() + passes[-1]["wall_s"] <= deadline):
            tracer = tracing.Tracer() if args.trace and len(passes) % 2 else None
            passes.append(one_pass(operations, reference, tracer))
            if tracer is not None:
                spans = tracer.spans
            if probe_offsets and time.perf_counter() - start >= probe_offsets[0]:
                probe_offsets.pop(0)
                setups.append(time_setup(args))
        setups += [time_setup(args) for _ in probe_offsets]
        if spans is not None:
            write_spans("spans.tsv", spans)
        result["passes"] = passes
        result["setup_probes_s"] = setups
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
