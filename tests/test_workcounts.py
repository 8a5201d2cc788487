"""Work counts of one traced job of the benchmark's scene workload.

Counters repeat exactly for a seed, so they are pinned here like the output
hashes: a change that moves field, trilinear or render work must update
them and say why. The tracer counts a field eval's points as its input's
size over 3, so these also check that it still reads the points right.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# job 0 of seed 0 at the benchmark's FULL sizes: a 64^3 grid near field, a
# box with a constant object field, two 32x32 cameras, n_coarse 64, n_fine 32
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


def test_scene_job_counts(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import jobs
    import run

    metrics, failures, _, _ = run.measure("scene", 0, 0.0, True, jobs.FULL)
    assert not failures
    assert {k: metrics[k] for k in SCENE_COUNTS} == SCENE_COUNTS
