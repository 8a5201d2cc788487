"""Work counts of one traced job of each of the benchmark's workloads.

Counters repeat exactly for a seed, so they are pinned here like the output
hashes: a change that moves field, trilinear, render, octree or metric work
must update them and say why. The tracer counts a field eval's points as its
input's size over 3, so these also check that it still reads the points right.
Every job is job 0 of seed 0 at the benchmark's FULL sizes.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a 64^3 grid near field, a box with a constant object field, two 32x32
# cameras, n_coarse 64, n_fine 32
SCENE_COUNTS = {
    "fields.radiance_eval_calls": 52,
    "fields.radiance_eval_points": 660_351,
    "grids.trilinear_calls": 16,
    "grids.trilinear_points": 196_608,
    "render.calls": 8,
    "render.rays": 2048,
    "render.samples": 398_207,
    "render.composite_calls": 8,
}

# the union shape extracted at LoD 8 and LoD 7, both PLYs written and read
SURFACE_COUNTS = {
    "octree.traversal_evals": 286_872,
    "octree.projection_evals": 1_286_028,
    "octree.surface_points": 107_169,
    "fields.sdf_eval_calls": 100,
    "fields.sdf_eval_points": 1_572_900,
    "fields.gradient_points": 214_338,
    "io.bytes_written": 6_008_075,
}

# 300 ground-truth boxes (5 labels) against 330 predictions, 300 poses a
# side (6 labels), two 500-point paths and two 64^3 label grids
EVALUATE_COUNTS = {
    "metrics.iou3d_calls": 435,
    "metrics.detection_ap_calls": 1,
    "metrics.pose_errors_calls": 6,
}


def traced_job(monkeypatch, workload):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import jobs
    import run

    metrics, failures, _, _ = run.measure(workload, 0, 0.0, True, jobs.FULL)
    assert not failures
    return metrics


def test_scene_job_counts(monkeypatch):
    metrics = traced_job(monkeypatch, "scene")
    assert {k: metrics[k] for k in SCENE_COUNTS} == SCENE_COUNTS


def test_surface_job_counts(monkeypatch):
    metrics = traced_job(monkeypatch, "surface")
    assert {k: metrics[k] for k in SURFACE_COUNTS} == SURFACE_COUNTS


def test_evaluate_job_counts(monkeypatch):
    metrics = traced_job(monkeypatch, "evaluate")
    assert {k: metrics[k] for k in EVALUATE_COUNTS} == EVALUATE_COUNTS
