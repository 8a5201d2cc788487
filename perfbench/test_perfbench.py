"""The benchmark's own tests. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_emits_every_metric_and_passes_checks():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scene",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced_surface_run(monkeypatch, targets):
    """One tiny traced surface job with the tracer's targets replaced."""
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import jobs
    import run
    import spans

    real = spans._targets
    monkeypatch.setattr(spans, "_targets", lambda: targets(real()))
    _, failures, _, _ = run.measure("surface", 1, 0.0, True, jobs.SMOKE)
    return failures


def test_missing_trace_target_fails_the_run(monkeypatch):
    import radiant.octree

    failures = _traced_surface_run(
        monkeypatch, lambda t: t + [(radiant.octree, "no_such_function", "octree.x", None)])
    assert any("no_such_function" in f for f in failures), failures


def test_layer_that_reads_zero_fails_the_run(monkeypatch):
    # as if project_to_surface were renamed: its layer is no longer traced
    failures = _traced_surface_run(
        monkeypatch, lambda t: [x for x in t if x[1] != "project_to_surface"])
    assert any("octree.project_s read 0" in f for f in failures), failures


def test_end_to_end_scales_times_and_rate(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    # (ok, job wall, job cpu, iteration wall); the failed step still costs loop time
    steps = [(True, 2.0, 2.2, 2.5), (True, 4.0, 4.4, 4.5), (False, 9.0, 9.9, 9.0)]
    raw = run._end_to_end([0.5, 0.7, 0.6], steps)
    assert raw == {"setup_s": 0.6, "job_s.p50": 3.0, "jobs_per_s": 2 / 16.0,
                   "cpu_s_per_job": 4.4}
    scaled = run._end_to_end([0.5, 0.7, 0.6], steps, setup_scale=0.5, loop_scale=0.8)
    assert scaled["setup_s"] == 0.3
    assert scaled["job_s.p50"] == 3.0 * 0.8
    assert scaled["jobs_per_s"] == 2 / (16.0 * 0.8)
    assert scaled["cpu_s_per_job"] == 4.4 * 0.8
