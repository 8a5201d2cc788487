"""Workload jobs: seeded input generation, the job steps, and output checks.

A job is generated from (workload seed, job index) and written as input
files; the program only ever sees those files (and a CLI ``--seed`` drawn
from the same generator). Steps go through ``radiant.cli.dispatch`` in
process, plus library calls where a step has no CLI. Checks recompute what
they can with plain numpy and parse outputs with the benchmark's own readers,
so they do not trust the program's readers to judge its writers.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import radiant.cli
import radiant.io
import radiant.metrics
import radiant.octree


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, SMOKE the benchmark's own test."""

    grid_dims: int = 64
    image: int = 32
    n_coarse: int = 64
    n_fine: int = 32
    depth_hw: tuple = (120, 160)
    lod_fine: int = 8
    lod_coarse: int = 7
    n_boxes: int = 300
    n_poses: int = 300
    path_points: int = 500
    label_dims: int = 64


FULL = Sizes()
SMOKE = Sizes(grid_dims=16, image=8, n_coarse=16, n_fine=8, depth_hw=(30, 40),
              lod_fine=5, lod_coarse=4, n_boxes=30, n_poses=30, path_points=50,
              label_dims=16)

DETECT_CLASSES = ("car", "truck", "pedestrian", "cyclist", "barrier")
DETECT_BASE_SIZE = {"car": (4.5, 1.9, 1.6), "truck": (8.0, 2.6, 3.2),
                    "pedestrian": (0.7, 0.7, 1.8), "cyclist": (1.8, 0.7, 1.7),
                    "barrier": (2.5, 0.5, 1.0)}
POSE_CLASSES = ("bottle", "bowl", "camera", "can", "laptop", "mug")
SEMMAP_CLASSES = 8
VOXEL_CLASSES = 12


class CheckFailed(Exception):
    """A job's output failed a benchmark check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def job_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def dispatch(*argv) -> None:
    """One CLI call in process; a nonzero exit raises with its stderr."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = radiant.cli.dispatch([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"radiant {argv[0]} exited {code}: {err.getvalue().strip()}")


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps({"version": 1, **doc}))


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# independent encoders/decoders for the binary formats (see README "File
# formats"); the benchmark uses these instead of radiant.io for its own I/O


_NFVG = struct.Struct("<4sIIIII")


def write_nfvg(path: Path, data: np.ndarray, lo, hi) -> None:
    x, y, z, c = data.shape
    with open(path, "wb") as fh:
        fh.write(_NFVG.pack(b"NFVG", 1, x, y, z, c))
        fh.write(np.asarray([*lo, *hi], dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def read_nfvg(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, version, x, y, z, c = _NFVG.unpack_from(raw)
    require(magic == b"NFVG" and version == 1, f"{path.name}: bad NFVG header")
    offset = _NFVG.size + 48
    require(len(raw) == offset + x * y * z * c * 4, f"{path.name}: bad NFVG size")
    return np.frombuffer(raw, dtype="<f4", offset=offset).reshape(x, y, z, c)


def read_ppm(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    head = raw.split(maxsplit=4)
    require(len(head) == 5 and head[0] == b"P6" and head[3] == b"255",
            f"{path.name}: bad PPM header")
    w, h = int(head[1]), int(head[2])
    pixels = raw[len(raw) - w * h * 3:]
    require(len(raw) == len(b" ".join(head[:4])) + 1 + w * h * 3,
            f"{path.name}: bad PPM size")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


# ---------------------------------------------------------------------------
# scene: voxelize -> mask -> render, then semmap


def _yaw_rotation(yaw: float) -> np.ndarray:
    """Camera-to-world rotation looking along +z turned by yaw about y."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def make_scene(d: Path, seed: int, index: int, sz: Sizes) -> dict:
    rng = job_rng(seed, index)
    field = {"type": "gaussian", "color": rng.uniform(0.2, 0.9, 3).tolist(),
             "amplitude": float(rng.uniform(15.0, 25.0)),
             "center": rng.uniform(-0.15, 0.15, 3).tolist(),
             "scale": float(rng.uniform(0.22, 0.3))}
    (d / "field.json").write_text(json.dumps(field))
    f = sz.image
    k = {"fx": float(f), "fy": float(f), "cx": (f - 1) / 2.0, "cy": (f - 1) / 2.0,
         "width": f, "height": f}
    cameras = []
    for yaw in (float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0.4, 0.8))):
        rot = _yaw_rotation(yaw)
        cameras.append({"intrinsics": k, "pose": {
            "rotation": rot.reshape(-1).tolist(),
            "translation": (-0.6 * rot[:, 2]).tolist()}})
    box = {"center": [*rng.uniform(-0.15, 0.15, 2).tolist(), float(rng.uniform(0.1, 0.3))],
           "size": rng.uniform(0.3, 0.45, 3).tolist(),
           "yaw": float(rng.uniform(-math.pi, math.pi)), "class": "car"}
    write_json(d / "scene.json", {
        "near_field": {"type": "grid", "path": "masked.nfvg"},
        "far_field": {"type": "constant", "color": rng.uniform(0.0, 0.5, 3).tolist(),
                      "sigma": float(rng.uniform(2.0, 6.0))},
        "object_field": {"type": "constant", "color": rng.uniform(0.5, 1.0, 3).tolist(),
                         "sigma": float(rng.uniform(100.0, 300.0))},
        "boxes": [box], "cameras": cameras,
        "near": 0.02, "far": 3.0, "n_coarse": sz.n_coarse, "n_fine": sz.n_fine,
    })

    h, w = sz.depth_hw
    depth = rng.uniform(0.5, 5.0, (h, w))
    depth[rng.random((h, w)) < 0.1] = 0.0
    np.save(d / "depth.npy", depth)
    np.save(d / "sem.npy", rng.integers(0, SEMMAP_CLASSES, (h, w)))
    write_json(d / "k.json", {"fx": 0.5 * w, "fy": 0.5 * w, "cx": (w - 1) / 2.0,
                              "cy": (h - 1) / 2.0, "width": w, "height": h})
    # camera z -> world x, camera x -> world -y, camera y (down) -> world -z
    rot = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    write_json(d / "pose.json", {"rotation": rot.reshape(-1).tolist(),
                                 "translation": [*rng.uniform(-1, 1, 2).tolist(), 1.0]})
    return {"seed": int(rng.integers(0, 2**31)), "n_cameras": len(cameras)}


def run_scene(d: Path, o: Path, job: dict, sz: Sizes) -> dict:
    dispatch("voxelize", "--field", d / "field.json", "--dims", sz.grid_dims,
             "--out", o / "grid.nfvg")
    dispatch("mask", "--grid", o / "grid.nfvg", "--ratio", 0.5, "--patch", 4,
             "--seed", job["seed"], "--out", o / "masked.nfvg", "--mask-out", o / "mask.json")
    scene = o / "scene.json"
    scene.write_bytes((d / "scene.json").read_bytes())  # next to masked.nfvg
    dispatch("render", "--scene", scene, "--out", o / "img", "--seed", job["seed"])
    dispatch("semmap", "--depth", d / "depth.npy", "--semantics", d / "sem.npy",
             "--intrinsics", d / "k.json", "--pose", d / "pose.json",
             "--classes", SEMMAP_CLASSES, "--out", o / "map.nfvg")
    return {}


def check_scene(d: Path, o: Path, job: dict, result: dict, sz: Sizes) -> None:
    grid = read_nfvg(o / "grid.nfvg")
    n = sz.grid_dims
    require(grid.shape == (n, n, n, 4), f"grid shape {grid.shape}")
    require(bool(np.all((grid >= 0) & (grid <= 1))), "grid channels outside [0, 1]")
    mask = read_json(o / "mask.json")
    n_patches = (n // 4) ** 3
    require(len(mask["masked_indices"]) == math.floor(0.5 * n_patches + 0.5),
            "mask does not hold ratio * patches indices")
    report = read_json(o / "img_metrics.json")
    require(len(report["images"]) == job["n_cameras"], "one metrics row per camera")
    for row in report["images"]:
        img = read_ppm(o / row["image"])
        require(img.shape == (sz.image, sz.image, 3), f"{row['image']}: shape {img.shape}")
        require(0.0 <= row["mean_acc"] <= 1.0, f"mean_acc {row['mean_acc']} outside [0, 1]")
    smap = read_nfvg(o / "map.nfvg")
    require(smap.shape == (80, 80, 1, SEMMAP_CLASSES), f"semmap shape {smap.shape}")
    require(bool(np.all((smap == 0) | (smap == 1))), "semmap holds values other than 0/1")
    require(smap.any(), "semmap is empty")


# ---------------------------------------------------------------------------
# surface: extract at two LoDs -> read both PLYs -> chamfer


def make_surface(d: Path, seed: int, index: int, sz: Sizes) -> dict:
    rng = job_rng(seed, index)
    sphere = {"type": "sphere",
              "center": (np.array([-0.35, 0.0, 0.0]) + rng.uniform(-0.05, 0.05, 3)).tolist(),
              "radius": float(rng.uniform(0.295, 0.305))}
    box = {"type": "box",
           "center": (np.array([0.35, 0.0, 0.0]) + rng.uniform(-0.05, 0.05, 3)).tolist(),
           "half_extents": rng.uniform(0.245, 0.255, 3).tolist()}
    shape = {"type": "union", "shapes": [sphere, box]}
    (d / "shape.json").write_text(json.dumps(shape))
    return {"shape": shape}


def run_surface(d: Path, o: Path, job: dict, sz: Sizes) -> dict:
    for lod in (sz.lod_fine, sz.lod_coarse):
        dispatch("extract-surface", "--shape", d / "shape.json", "--lod-end", lod,
                 "--out", o / f"lod{lod}.ply")
    clouds = {lod: radiant.octree.samples_to_arrays(radiant.io.read_ply(o / f"lod{lod}.ply"))[:2]
              for lod in (sz.lod_fine, sz.lod_coarse)}
    return {"chamfer": radiant.metrics.chamfer(clouds[sz.lod_fine][0], clouds[sz.lod_coarse][0]),
            "clouds": clouds}


def analytic_sdf(shape: dict, pts: np.ndarray) -> np.ndarray:
    """Exact SDF of the generated sphere-box union, in plain numpy."""
    sphere, box = shape["shapes"]
    d_sphere = np.linalg.norm(pts - sphere["center"], axis=1) - sphere["radius"]
    q = np.abs(pts - box["center"]) - box["half_extents"]
    d_box = np.linalg.norm(np.maximum(q, 0.0), axis=1) + np.minimum(q.max(axis=1), 0.0)
    return np.minimum(d_sphere, d_box)


def surface_tolerance(lod: int) -> float:
    """|sdf| bound for projected points: half the LoD cell edge of [-1, 1]^3."""
    return 0.5 * 2.0 / (1 << lod)


def check_surface(d: Path, o: Path, job: dict, result: dict, sz: Sizes) -> None:
    for lod, (pos, nrm) in result["clouds"].items():
        require(pos.shape[0] > 0, f"LoD {lod}: no surface points")
        residual = np.abs(analytic_sdf(job["shape"], pos)).max()
        require(residual < surface_tolerance(lod),
                f"LoD {lod}: max |sdf| {residual:.3g} >= {surface_tolerance(lod):.3g}")
        norm_err = np.abs(np.linalg.norm(nrm, axis=1) - 1.0).max()
        require(norm_err < 1e-5, f"LoD {lod}: normal length off by {norm_err:.3g}")
        stats = read_json(o / f"lod{lod}.ply.stats.json")
        require(stats["surface_points"] == pos.shape[0], f"LoD {lod}: stats point count")
    require(math.isfinite(result["chamfer"]) and result["chamfer"] >= 0.0,
            f"chamfer {result['chamfer']} not finite and nonnegative")


# ---------------------------------------------------------------------------
# evaluate: eval-detect, eval-pose, eval-nav, eval-voxels


def _random_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def _small_rotations(rng: np.random.Generator, n: int, sigma_deg: float) -> np.ndarray:
    """Rodrigues rotations about random axes by N(0, sigma) degrees."""
    axis = rng.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    theta = np.radians(rng.normal(0.0, sigma_deg, n))[:, None, None]
    k = np.zeros((n, 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -axis[:, 2], axis[:, 1], -axis[:, 0]
    k = k - k.transpose(0, 2, 1)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def make_evaluate(d: Path, seed: int, index: int, sz: Sizes) -> dict:
    rng = job_rng(seed, index)

    # every class gets the same number of boxes and poses, so the matching
    # work (pairs within a class) is the same for every job
    n = sz.n_boxes
    labels = np.array(DETECT_CLASSES)[rng.permutation(np.arange(n) % len(DETECT_CLASSES))]
    base = np.array([DETECT_BASE_SIZE[c] for c in labels])
    gts = {"center": np.column_stack([rng.uniform(-40, 40, (n, 2)), rng.uniform(0, 2, n)]),
           "size": base * rng.uniform(0.8, 1.2, (n, 3)),
           "yaw": rng.uniform(-math.pi, math.pi, n)}
    write_json(d / "gt_boxes.json", {"boxes": [
        {"center": gts["center"][i].tolist(), "size": gts["size"][i].tolist(),
         "yaw": float(gts["yaw"][i]), "class": str(labels[i])} for i in range(n)]})
    per_class = round(0.85 * n / len(DETECT_CLASSES))
    kept = np.concatenate([rng.permutation(np.flatnonzero(labels == c))[:per_class]
                           for c in DETECT_CLASSES])
    preds = [{"center": (gts["center"][i] + rng.normal(0, 0.08, 3) * gts["size"][i]).tolist(),
              "size": (gts["size"][i] * (1 + rng.normal(0, 0.05, 3))).tolist(),
              "yaw": float(gts["yaw"][i] + rng.normal(0, 0.1)), "class": str(labels[i]),
              "score": float(rng.uniform(0.3, 1.0))} for i in kept]
    for i in range(round(0.25 * n)):
        c = DETECT_CLASSES[i % len(DETECT_CLASSES)]
        preds.append({"center": [*rng.uniform(-40, 40, 2).tolist(), float(rng.uniform(0, 2))],
                      "size": (np.array(DETECT_BASE_SIZE[c]) * rng.uniform(0.8, 1.2, 3)).tolist(),
                      "yaw": float(rng.uniform(-math.pi, math.pi)), "class": c,
                      "score": float(rng.uniform(0.0, 0.7))})
    write_json(d / "pred_boxes.json", {"boxes": preds})

    m = sz.n_poses
    plabels = np.array(POSE_CLASSES)[rng.permutation(np.arange(m) % len(POSE_CLASSES))]
    rots = _random_rotations(rng, m)
    trans = rng.uniform(-1, 1, (m, 3))
    scales = rng.uniform(0.1, 0.3, m)
    write_json(d / "gt_poses.json", {"poses": [
        {"rotation": rots[i].reshape(-1).tolist(), "translation": trans[i].tolist(),
         "scale": float(scales[i]), "class": str(plabels[i])} for i in range(m)]})
    n_true = round(0.85 * m)
    jitter = _small_rotations(rng, n_true, 4.0)
    pred_rots = np.concatenate([jitter @ rots[:n_true], _random_rotations(rng, m - n_true)])
    pred_trans = np.concatenate([trans[:n_true] + rng.normal(0, 0.03, (n_true, 3)),
                                 rng.uniform(-1, 1, (m - n_true, 3))])
    write_json(d / "pred_poses.json", {"poses": [
        {"rotation": pred_rots[i].reshape(-1).tolist(), "translation": pred_trans[i].tolist(),
         "scale": float(scales[i]), "class": str(plabels[i]),
         "score": float(rng.uniform(0.0, 1.0))} for i in range(m)]})

    p = sz.path_points
    goal = np.array([*rng.uniform(10, 20, 2), 0.0])
    reference = np.linspace(0.0, 1.0, p)[:, None] * goal
    positions = reference + np.column_stack([rng.normal(0, 0.3, (p, 2)), np.zeros(p)])
    positions[0] = 0.0
    write_json(d / "traj.json", {"trajectory": {
        "positions": positions.tolist(), "reference": reference.tolist(),
        "goal": goal.tolist(), "success_threshold": 3.0}})

    v = sz.label_dims
    gt_labels = rng.integers(0, VOXEL_CLASSES, (v, v, v))
    pred_labels = np.where(rng.random((v, v, v)) < 0.8, gt_labels,
                           rng.integers(0, VOXEL_CLASSES, (v, v, v)))
    for name, lab in (("gt", gt_labels), ("pred", pred_labels)):
        write_nfvg(d / f"{name}_labels.nfvg", lab[..., None].astype(np.float32),
                   (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        write_json(d / f"{name}_voxels.json",
                   {"labels_file": f"{name}_labels.nfvg", "n_classes": VOXEL_CLASSES})
    return {"positions": positions, "goal": goal,
            "acc": float(np.mean(gt_labels == pred_labels))}


def run_evaluate(d: Path, o: Path, job: dict, sz: Sizes) -> dict:
    dispatch("eval-detect", "--pred", d / "pred_boxes.json", "--gt", d / "gt_boxes.json",
             "--out", o / "detect.json")
    dispatch("eval-pose", "--pred", d / "pred_poses.json", "--gt", d / "gt_poses.json",
             "--out", o / "pose.json")
    dispatch("eval-nav", "--trajectory", d / "traj.json", "--out", o / "nav.json")
    dispatch("eval-voxels", "--pred", d / "pred_voxels.json", "--gt", d / "gt_voxels.json",
             "--out", o / "voxels.json")
    return {}


def _unit(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def check_evaluate(d: Path, o: Path, job: dict, result: dict, sz: Sizes) -> None:
    det = read_json(o / "detect.json")["results"]
    require(set(det) == {"0.25", "0.5"}, f"detect thresholds {sorted(det)}")
    for t, res in det.items():
        rows = [res, *res["per_class"].values()]
        require(all(_unit(r["ap"]) and _unit(r["recall"]) for r in rows),
                f"detect AP/recall outside [0, 1] at {t}")
    require(det["0.25"]["ap"] >= det["0.5"]["ap"], "detect AP@0.25 < AP@0.5")
    for label, row in det["0.25"]["per_class"].items():
        require(row["ap"] >= det["0.5"]["per_class"][label]["ap"],
                f"detect {label}: AP@0.25 < AP@0.5")
    require(det["0.25"]["ap"] > 0.0, "detect AP@0.25 is 0 on jittered ground truth")

    pose = read_json(o / "pose.json")["results"]
    require(len(pose) == 3, f"pose thresholds {sorted(pose)}")
    for res in pose.values():
        require(all(_unit(r["ap"]) for r in [res, *res["per_class"].values()]),
                "pose AP outside [0, 1]")

    nav = read_json(o / "nav.json")
    pos = job["positions"]
    tl = float(np.linalg.norm(np.diff(pos, axis=0), axis=1).sum())
    ne = float(np.linalg.norm(pos[-1] - job["goal"]))
    require(math.isclose(nav["TL"], tl, rel_tol=1e-9), f"nav TL {nav['TL']} != {tl}")
    require(math.isclose(nav["NE"], ne, rel_tol=1e-9, abs_tol=1e-12),
            f"nav NE {nav['NE']} != {ne}")
    require(all(_unit(nav[k]) for k in ("SR", "SPL", "nDTW")), "nav SR/SPL/nDTW outside [0, 1]")

    vox = read_json(o / "voxels.json")
    require(all(_unit(vox[k]) for k in ("mIoU", "mAcc", "Acc")), "voxel metric outside [0, 1]")
    require(math.isclose(vox["Acc"], job["acc"], rel_tol=1e-12), f"voxel Acc {vox['Acc']}")


@dataclass(frozen=True)
class Workload:
    make: object
    run: object
    check: object
    # per-layer metrics that cannot read 0 on a traced job of this workload;
    # a 0 means a trace target went stale (renamed or no longer called)
    layers: tuple


WORKLOADS = {
    "scene": Workload(make_scene, run_scene, check_scene, (
        "fields.radiance_eval_calls", "fields.radiance_eval_points", "grids.trilinear_calls",
        "grids.trilinear_points", "render.calls", "render.rays", "render.samples",
        "render.composite_calls", "io.nfvg_read_s", "io.nfvg_write_s", "io.ppm_write_s",
        "io.json_s", "gridsample.sample_grid_s", "masking.s", "projmaps.semmap_s")),
    "surface": Workload(make_surface, run_surface, check_surface, (
        "fields.sdf_eval_calls", "fields.sdf_eval_points", "fields.gradient_points",
        "octree.extract_s", "octree.project_s", "octree.traversal_evals",
        "octree.projection_evals", "octree.surface_points", "io.ply_write_s", "io.ply_read_s",
        "io.json_s", "metrics.chamfer_s")),
    "evaluate": Workload(make_evaluate, run_evaluate, check_evaluate, (
        "metrics.iou3d_calls", "metrics.detection_ap_calls", "metrics.pose_errors_calls",
        "metrics.pose_ap_s", "metrics.dtw_s", "metrics.voxel_s", "io.nfvg_read_s",
        "io.json_s")),
}
