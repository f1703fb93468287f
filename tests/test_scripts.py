"""Smoke tests: the scripts under scripts/ run end to end and exit 0."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from mzinet.scenarios import _CHECKS, FIGURES, reproduce

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_reproduce_all_writes_every_figure(tmp_path):
    out = tmp_path / "out"
    result = _run_script("reproduce_all.py", out, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    for figure in FIGURES:
        assert list((out / figure).glob(f"{figure}_*.csv")), figure
        assert (out / figure / f"{figure}_meta.txt").exists()


def test_crossover_study_writes_its_table(tmp_path):
    table = tmp_path / "study.csv"
    result = _run_script("crossover_study.py", table, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = table.read_text().splitlines()
    assert lines[0].startswith("Lambda,n_T,n_s_opt")
    assert len(lines) == 1 + 2 * 51


def test_verify_sweep_reports_each_seed(tmp_path):
    result = _run_script("verify_sweep.py", 0, 2, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 of 2 seeds failed (0..1)"


def test_engine_scaling_reports_each_size(tmp_path):
    result = _run_script("engine_scaling.py", 32, 64, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].split() == ["d", "wall_ms", "peak_mb"]
    assert [line.split()[0] for line in lines[1:]] == ["32", "64"]


def test_engine_scaling_default_sizes_start_at_small_d(tmp_path):
    result = _run_script("engine_scaling.py", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert [line.split()[0] for line in result.stdout.splitlines()[1:]] == [
        str(d) for d in (4, 6, 32, 64, 128, 256, 512, 1024, 2048)]


def test_verify_timing_reports_each_check(tmp_path):
    result = _run_script("verify_timing.py", 1, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    timing, memory = (table.splitlines() for table in result.stdout.split("\n\n"))
    assert timing[0].split() == ["check", "min_ms", "median_ms"]
    rows = [line.rsplit(None, 2) for line in timing[1:]]
    assert [name for name, _, _ in rows] == [name for name, *_ in _CHECKS] + ["total"]
    assert all(float(low) <= float(mid) for _, low, mid in rows)
    # the cold run's resident and peak MB before the first check and after
    # each; the peak never falls
    assert memory[0].split() == ["cold", "run", "rss_mb", "peak_mb"]
    rows = [line.rsplit(None, 2) for line in memory[1:]]
    assert [name for name, _, _ in rows] == ["start"] + [name for name, *_ in _CHECKS]
    peaks = [float(peak) for _, _, peak in rows]
    assert peaks == sorted(peaks) and peaks[0] > 0
    if os.path.exists("/proc/self/statm"):
        assert all(float(rss) > 0 for _, rss, _ in rows)


def test_figure_diff_names_an_edited_cell(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    reproduce("fig5b", old / "fig5b")
    shutil.copytree(old, new)
    table = new / "fig5b" / "fig5b_patterns.csv"
    lines = table.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[2].split(",")
    column = header.index("sql")
    cells[column] = repr(float(cells[column]) * 1.5)
    lines[2] = ",".join(cells)
    table.write_text("\n".join(lines) + "\n")
    (new / "fig5b" / "fig5b_meta.txt").write_text("edited\n")
    result = _run_script("figure_diff.py", old, new, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    report = result.stdout.splitlines()
    assert "fig5b/fig5b_patterns.csv: 1 cells moved in 3 rows" in report
    assert "  sql: 1, largest relative move 0.5" in report
    assert "fig5b/fig5b_meta.txt: differs" in report
    assert report[-1] == "moved cells per column: sql 1"


def test_line_coverage_lists_the_lines_a_test_leaves_unrun(tmp_path):
    test = ROOT / "tests" / "test_laws.py"
    result = _run_script("line_coverage.py", f"{test}::test_variance_vs_ns_half_split",
                         "-q", "-p", "no:cacheprovider", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    *listed, summary = result.stdout.splitlines()
    listed = [line for line in listed if line.startswith("src/mzinet/")]
    laws_lines = [line.split(": ", 1)[1] for line in listed
                  if line.startswith("src/mzinet/laws.py:")]
    # the test runs both split laws to their end, but exhausts no budget
    assert "return value if x.ndim else float(value)" not in laws_lines
    assert 'raise AllocationError(f"n_s = {hi} must be < n_T = {n_T}")' in laws_lines
    missed, total = map(int, summary.removesuffix(" executable lines not run").split(" of "))
    assert len(listed) == missed < total
