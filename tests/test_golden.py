"""Golden output hashes: the bytes of every output of the acceptance suite's
subcommand run, of a fine render with an object field, and of seed-0 jobs
0-2 of each perfbench workload, against the sha256 digests committed in
golden_sha256.json. JSON outputs are hashed after the acceptance suite's
_strip_timing, so wall-clock fields do not count.

Float bits depend on the platform: the digests hold for Python 3.11.7 and
numpy 2.4.6 on x86-64, and another numpy or libm may move them. A change
that moves bytes on purpose regenerates the manifest, from the repository
root, with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which outputs moved and why.
"""

import hashlib
import json
import sys
from pathlib import Path

from radiant.cli import dispatch
from test_acceptance import _run_all_subcommands, _strip_timing

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden_sha256.json")
PERFBENCH_JOBS = range(3)

# the acceptance scene has no fine pass and no object field: this one has
# both, and its box holds near samples of both cameras
FINE_SCENE = {
    "near_field": {"type": "gaussian", "color": [0.9, 0.4, 0.1], "amplitude": 6.0,
                   "center": [0, 0, 0.5], "scale": 0.2},
    "far_field": {"type": "constant", "color": [0.1, 0.2, 0.4], "sigma": 3.0},
    "object_field": {"type": "constant", "color": [1, 1, 0], "sigma": 80.0},
    "boxes": [{"center": [0, 0, 0.45], "size": [0.3, 0.3, 0.3], "yaw": 0.3,
               "class": "car"}],
    "cameras": [
        {"intrinsics": {"fx": 8, "fy": 8, "cx": 3.5, "cy": 3.5, "width": 8, "height": 8},
         "pose": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]}},
        {"intrinsics": {"fx": 6, "fy": 6, "cx": 2.5, "cy": 3.5, "width": 6, "height": 8},
         "pose": {"rotation": [0.96, 0, 0.28, 0, 1, 0, -0.28, 0, 0.96],
                  "translation": [-0.1, 0, 0]}},
    ],
    "n_coarse": 16, "n_fine": 8,
}


def _digest(path: Path) -> str:
    raw = path.read_bytes()
    if path.suffix == ".json":
        raw = json.dumps(_strip_timing(json.loads(raw))).encode()
    return hashlib.sha256(raw).hexdigest()


def _render_fine(base: Path) -> list:
    base.mkdir(parents=True)
    scene = base / "scene.json"
    scene.write_text(json.dumps(FINE_SCENE))
    assert dispatch(["render", "--scene", str(scene), "--out", str(base / "img"),
                     "--seed", "4"]) == 0
    return [base / "img_000.ppm", base / "img_001.ppm", base / "img_metrics.json"]


def golden_digests(base: Path, jobs) -> dict:
    """{output name: sha256} of every golden output, written under base;
    jobs is perfbench's jobs module."""
    digests = {}
    for cmd, paths in _run_all_subcommands(base / "acceptance").items():
        digests.update({f"acceptance/{cmd}/{p.name}": _digest(p) for p in paths})
    digests.update({f"fine-render/{p.name}": _digest(p)
                    for p in _render_fine(base / "fine-render")})
    for name, workload in jobs.WORKLOADS.items():
        for index in PERFBENCH_JOBS:
            d = base / f"{name}{index}"
            (d / "in").mkdir(parents=True)
            (d / "out").mkdir()
            job = workload.make(d / "in", 0, index, jobs.FULL)
            workload.run(d / "in", d / "out", job, jobs.FULL)
            digests.update({f"perfbench/{name}/{index}/{p.name}": _digest(p)
                            for p in sorted((d / "out").iterdir())})
    return digests


def test_outputs_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import jobs

    want = json.loads(MANIFEST.read_text())
    got = golden_digests(tmp_path, jobs)
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{len(moved)} outputs moved from {MANIFEST.name}:\n" + "\n".join(moved)


if __name__ == "__main__":
    import tempfile
    from contextlib import redirect_stdout
    from io import StringIO

    sys.path.insert(0, str(ROOT / "perfbench"))
    import jobs

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(StringIO()):
        digests = golden_digests(Path(tmp), jobs)
    MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{MANIFEST}: {len(digests)} digests")
