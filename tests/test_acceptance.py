"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Wall-clock budgets are asserted where the criterion states one.
"""

import json
import math
import time
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import qmc

from radiant import io
from radiant.cli import dispatch as _dispatch
from radiant.core_math import Aabb, Intrinsics, Pose, Ray, rotation_about
from radiant.fields import (
    BoxSdf,
    ConstantField,
    GaussianBlobField,
    GridField,
    SphereSdf,
    UnionSdf,
)
from radiant.grids import VoxelGrid4D
from radiant.gridsample import sample_grid
from radiant.masking import apply_mask, psnr3d, random_mask, recon_losses
from radiant.metrics import (
    OrientedBox3,
    PoseRecord,
    Trajectory,
    chamfer,
    detection_ap,
    iou3d,
    nav_metrics,
    pose_errors,
    voxel_label_metrics,
)
from radiant.octree import LodConfig, dense_extract, extract_surface, samples_to_arrays
from radiant.projmaps import (
    SemanticMapConfig,
    build_semantic_map,
    collapse_to_triplanes,
    detect_peaks,
    sample_triplane,
    splat_heatmap,
)
from radiant.render import (
    RenderConfig,
    composite,
    render_full,
    stratified_samples,
)

CUBE = Aabb([-1, -1, -1], [1, 1, 1])
SPHERE = SphereSdf((0, 0, 0), 0.5)
BOX = BoxSdf((0, 0, 0), (0.35, 0.3, 0.25))
UNION = UnionSdf(
    [SphereSdf((-0.35, 0, 0), 0.3), BoxSdf((0.35, 0, 0), (0.25, 0.25, 0.25))]
)


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def dispatch(argv):
    """Run a CLI subcommand with its stdout path chatter suppressed."""
    with redirect_stdout(StringIO()):
        return _dispatch(argv)


def test_criterion_1_octree_dense_equivalence():
    t0 = time.perf_counter()
    finest_edge = 2.0 / 64
    worst_chamfer, worst_resid = 0.0, 0.0
    for field in (SPHERE, BOX):
        oct_samples, _ = extract_surface(field, LodConfig(3, 6))
        den_samples = dense_extract(field, 64, 0.03)
        oct_pos, _ = samples_to_arrays(oct_samples)
        den_pos, _ = samples_to_arrays(den_samples)
        worst_chamfer = max(worst_chamfer, chamfer(oct_pos, den_pos))
        worst_resid = max(
            worst_resid,
            float(np.abs(field.eval(oct_pos.T)).max()),
            float(np.abs(field.eval(den_pos.T)).max()),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_chamfer <= 2 * finest_edge and worst_resid <= 1e-3 and elapsed < 10.0
    report(
        1,
        ok,
        f"chamfer {worst_chamfer:.2e} <= {2 * finest_edge:.2e}, "
        f"surface residual {worst_resid:.2e} <= 1e-3, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_octree_efficiency(tmp_path):
    budget = 0.15 * 64**3
    evals = {}
    for name, field in (("sphere", SPHERE), ("box", BOX), ("union", UNION)):
        _, stats = extract_surface(field, LodConfig(3, 6))
        evals[name] = stats.total_sdf_evals
    code = dispatch(
        ["bench-octree", "--shape", "sphere", "--out", str(tmp_path / "bench.json")]
    )
    doc = json.loads((tmp_path / "bench.json").read_text())
    ordinary = [r for r in doc["rows"] if r["grid_type"] == "ordinary"]
    octree = [r for r in doc["rows"] if r["grid_type"] == "octree"]
    ratios = doc["eval_ratios_matched"]
    rowwise = all(
        o["input_points"] < d["input_points"] for o, d in zip(octree, ordinary)
    )
    ok = (
        all(v <= budget for v in evals.values())
        and code == 0
        and ordinary[2]["input_points"] == 216000
        and ratios[0] > ratios[1] > ratios[2]
        and rowwise
    )
    report(
        2,
        ok,
        f"LoD6 evals {evals} all <= {budget:.0f}; dense-60 input 216000; "
        f"matched ratios {[f'{r:.3f}' for r in ratios]} strictly decreasing",
    )


def test_criterion_3_conservation_and_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_gap, worst_acc = 0.0, 0.0
    for _ in range(10_000):
        n = 64
        sigmas = rng.uniform(0, 30, n)
        deltas = rng.uniform(1e-4, 0.1, n)
        res = composite(rng.uniform(0, 1, (n, 3))[..., None], sigmas[None], deltas[None])
        acc = res.acc[0]
        worst_acc = max(worst_acc, acc)
        t_analytic = np.prod(1.0 - (-np.expm1(-sigmas * deltas)))
        worst_gap = max(
            worst_gap,
            abs(acc - res.weights.sum()),
            abs(acc - (1.0 - t_analytic)),
        )

    # the same bound on fully rendered rays (random directions and seeds)
    near = GaussianBlobField((0.9, 0.4, 0.1), 12.0, (0.1, -0.1, 0.5), 0.25)
    far = ConstantField((0.1, 0.2, 0.4), 1.5)
    for seed in range(200):
        v = rng.normal(size=3)
        o, d = rng.uniform(-0.3, 0.3, 3), v / np.linalg.norm(v)
        res = render_full(Ray(o[:, None], d[:, None]), RenderConfig(seed=seed), near, far)
        worst_acc = max(worst_acc, res.acc[0])

    blob = GaussianBlobField((1, 1, 1), 10.0, (0, 0, 1.2), 0.35)
    integral, _ = quad(
        lambda t: 10.0 * math.exp(-((t - 1.2) ** 2) / (2 * 0.35**2)), 0.02, 3.0
    )
    t_exact = math.exp(-integral)
    ray = Ray(np.zeros(3)[:, None], np.array([0.0, 0.0, 1.0])[:, None])

    def mean_error(n):
        errs = []
        for seed in range(20):
            cfg = RenderConfig(near=0.02, far=3.0, n_coarse=n, seed=seed)
            s = stratified_samples(cfg)
            _, sig = blob.eval(ray.at(s.t_values[None]))
            acc = composite(np.zeros((n, 3, 1)), sig, s.deltas[None]).acc[0]
            errs.append(abs((1.0 - acc) - t_exact))
        return float(np.mean(errs))

    errors = {n: mean_error(n) for n in (32, 64, 128, 256)}
    halving = all(errors[2 * n] <= 0.6 * errors[n] for n in (32, 64, 128))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and worst_acc <= 1.0 + 1e-9 and halving and elapsed < 5.0
    report(
        3,
        ok,
        f"acc gap {worst_gap:.1e} <= 1e-9 on 10^4 rays, max acc {worst_acc:.6f}; "
        f"errors {errors[32]:.2e}->{errors[64]:.2e}->{errors[128]:.2e}->{errors[256]:.2e} "
        f"halve at <= 0.6; {elapsed:.1f}s < 5s",
    )


def test_criterion_4_grid_round_trip():
    rng = np.random.default_rng(1)
    worst_alpha = 0.0
    rgb_exact = True
    for _ in range(5):
        g = VoxelGrid4D(rng.uniform(0, 0.97, size=(16, 16, 16, 4)), CUBE)
        out = sample_grid(GridField(g), g.bounds, g.dims)
        rgb_exact &= bool(np.array_equal(out.data[..., :3], g.data[..., :3]))
        worst_alpha = max(worst_alpha, float(np.abs(out.data[..., 3] - g.data[..., 3]).max()))
    ok = rgb_exact and worst_alpha <= 1e-9
    report(4, ok, f"rgb exact: {rgb_exact}, alpha gap {worst_alpha:.1e} <= 1e-9")


def test_criterion_5_masking_exactness():
    mask1000 = random_mask(1000, 0.75, seed=0)
    visible = mask1000.n_patches - mask1000.n_masked

    rng = np.random.default_rng(2)
    target = VoxelGrid4D(rng.uniform(0.02, 1, size=(8, 8, 8, 4)), CUBE)
    m = random_mask(8, 0.5, seed=3, patch_size=4, grid_dims=(8, 8, 8))
    same = recon_losses(target, target, m)
    perturbed = VoxelGrid4D(target.data.copy(), CUBE)
    masked_voxel = None
    for idx in np.flatnonzero(m.masked):
        from radiant.masking import patchify

        sl = patchify((8, 8, 8), 4).patch_slices(idx)
        masked_voxel = (sl[0].start, sl[1].start, sl[2].start)
        break
    perturbed.data[masked_voxel] = np.clip(perturbed.data[masked_voxel] + 0.2, 0, 1)
    diff = recon_losses(perturbed, target, m)
    visible_only = VoxelGrid4D(target.data.copy(), CUBE)
    for idx in np.flatnonzero(~m.masked):
        from radiant.masking import patchify

        sl = patchify((8, 8, 8), 4).patch_slices(idx)
        visible_only.data[sl] = rng.uniform(0, 1, size=(4, 4, 4, 4))
    vis = recon_losses(visible_only, target, m)

    a = VoxelGrid4D(np.zeros((4, 4, 4, 4)), CUBE)
    b = VoxelGrid4D(np.full((4, 4, 4, 4), 0.1), CUBE)
    psnr = psnr3d(b, a)

    ok = (
        mask1000.n_masked == 750
        and visible == 250
        and same == (0.0, 0.0, same.rgb_voxels)
        and (diff.rgb > 0 or diff.alpha > 0)
        and vis.rgb == 0.0
        and vis.alpha == 0.0
        and abs(psnr - 20.0) <= 1e-9
    )
    report(
        5,
        ok,
        f"750 masked / {visible} visible of 1000; losses zero iff masked voxels "
        f"match; psnr(MSE 0.01) = {psnr:.12f} within 1e-9 of 20",
    )


def _sobol_iou(a: OrientedBox3, b: OrientedBox3, seed: int) -> float:
    """Independent randomized-QMC volume oracle (2^20 >= 10^6 samples)."""

    def corners(box):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        pts = []
        for dx in (-1, 1):
            for dy in (-1, 1):
                for dz in (-1, 1):
                    lx = dx * box.size[0] / 2
                    ly = dy * box.size[1] / 2
                    lz = dz * box.size[2] / 2
                    pts.append([
                        box.center[0] + c * lx - s * ly,
                        box.center[1] + s * lx + c * ly,
                        box.center[2] + lz,
                    ])
        return np.array(pts)

    def inside(box, pts):
        d = pts - box.center
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        lx = c * d[:, 0] + s * d[:, 1]
        ly = -s * d[:, 0] + c * d[:, 1]
        return (
            (np.abs(lx) <= box.size[0] / 2)
            & (np.abs(ly) <= box.size[1] / 2)
            & (np.abs(d[:, 2]) <= box.size[2] / 2)
        )

    allc = np.vstack([corners(a), corners(b)])
    lo, hi = allc.min(axis=0), allc.max(axis=0)
    u01 = qmc.Sobol(d=3, scramble=True, seed=seed).random(2**20)
    pts = lo + u01 * (hi - lo)
    in_a, in_b = inside(a, pts), inside(b, pts)
    union = np.count_nonzero(in_a | in_b)
    return np.count_nonzero(in_a & in_b) / union if union else 0.0


@pytest.mark.filterwarnings("ignore::UserWarning")  # Sobol balance notice
def test_criterion_6_metric_identities_and_oracles():
    # identities from the module examples
    assert chamfer([[0, 0, 0]], [[1, 0, 0]]) == pytest.approx(2.0)
    box_a = OrientedBox3((0, 0, 0), (1, 1, 1))
    assert iou3d(box_a, box_a) == pytest.approx(1.0, abs=1e-9)
    assert iou3d(box_a, OrientedBox3((0.5, 0, 0), (1, 1, 1))) == pytest.approx(1 / 3)
    gts = [OrientedBox3((0, 0, 0), (1, 1, 1), label="a"),
           OrientedBox3((3, 0, 0), (1, 1, 1), label="a")]
    preds = [OrientedBox3((0, 0, 0), (1, 1, 1), label="a", score=0.9),
             OrientedBox3((9, 0, 0), (1, 1, 1), label="a", score=0.1)]
    ap, recall, _ = detection_ap(preds, gts, [0.5])[0]
    assert (ap, recall) == (pytest.approx(0.5), pytest.approx(0.5))
    deg, _ = pose_errors(
        PoseRecord(rotation_about([0, 0, 1], math.radians(30)), (0, 0, 0)),
        PoseRecord(np.eye(3), (0, 0, 0)),
    )
    assert deg == pytest.approx(30.0, abs=1e-9)
    path = np.array([[0.0, 0, 0], [2, 0, 0], [4, 0, 0]])
    nav = nav_metrics(Trajectory(path, path, goal=(4, 0, 0)))
    assert (nav.sr, nav.spl, nav.ndtw, nav.ne) == (1.0, 1.0, 1.0, 0.0)
    gt_labels = np.zeros((2, 2, 2), dtype=int)
    gt_labels[1] = 1
    assert voxel_label_metrics(np.ones((2, 2, 2), int), gt_labels, 2) == (
        pytest.approx(0.25), 0.5, 0.5)

    # 100 random yaw-box pairs against the 10^6-sample volume oracle
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(100):
        a = OrientedBox3(rng.uniform(-0.2, 0.2, 3), rng.uniform(0.8, 1.6, 3),
                         yaw=rng.uniform(-math.pi, math.pi))
        b = OrientedBox3(a.center + rng.uniform(-0.4, 0.4, 3),
                         rng.uniform(0.8, 1.6, 3),
                         yaw=rng.uniform(-math.pi, math.pi))
        worst = max(worst, abs(iou3d(a, b) - _sobol_iou(a, b, seed=i)))
    elapsed = time.perf_counter() - t0

    # symmetric pose error invariance to axis spins
    rng = np.random.default_rng(7)
    inv_gap = 0.0
    for _ in range(50):
        v = rng.normal(size=3)
        axis = v / np.linalg.norm(v)
        base_rot = rotation_about(rng.normal(size=3), rng.uniform(0, math.pi))
        g = PoseRecord(base_rot, (0, 0, 0))
        p = PoseRecord(np.eye(3), (0, 0, 0))
        base, _ = pose_errors(p, g, axis)
        spun = PoseRecord(rotation_about(axis, rng.uniform(-math.pi, math.pi)) @ base_rot,
                          (0, 0, 0))
        inv_gap = max(inv_gap, abs(pose_errors(p, spun, axis)[0] - base))

    ok = worst <= 1e-3 and elapsed < 60.0 and inv_gap <= 1e-9
    report(
        6,
        ok,
        f"identities pass; IoU vs Monte Carlo worst gap {worst:.1e} <= 1e-3 "
        f"({elapsed:.1f}s < 60s); symmetry invariance gap {inv_gap:.1e} <= 1e-9",
    )


def test_criterion_7_projection_round_trips():
    # 100 planted centers, pairwise separation >= 6 sigma, exact recovery
    sigma = 2.0
    rng = np.random.default_rng(5)
    lattice = [(12 + 13 * i, 12 + 13 * j) for i in range(10) for j in range(10)]
    centers = [lattice[i] for i in rng.permutation(100)]
    heat = splat_heatmap(centers, [sigma] * 100, (150, 150))
    peaks = detect_peaks(heat, 0.3)
    recovered = sorted((u, v) for u, v, _ in peaks) == sorted(centers)

    # semantic map single-pixel hand case (see test_projmaps for derivation)
    depth = np.zeros((100, 100))
    depth[40, 60] = 2.0
    k = Intrinsics(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
    pose = Pose(np.array([[0, 0, 1.0], [-1, 0, 0], [0, -1, 0]]), (0, 0, 0))
    cfg = SemanticMapConfig(r=40, cell_size=0.25, height_min=0.1, height_max=1.8,
                            classes=5)
    smap = build_semantic_map(depth, np.full((100, 100), 3), k, pose, cfg)
    sem_ok = smap.occupancy.sum() == 1 and bool(smap.occupancy[48, 39, 3])

    # triplane sampling vs the axis-mean brute-force oracle at all 8^3 nodes
    vol = VoxelGrid4D(rng.uniform(0, 1, size=(8, 8, 8, 2)), CUBE)
    tp = collapse_to_triplanes(vol)
    got = sample_triplane(tp, vol.voxel_centers()).reshape(8, 8, 8, 6)
    tri_gap = 0.0
    for i in range(8):
        for j in range(8):
            for kk in range(8):
                xy = sum(vol.data[i, j, z] for z in range(8)) / 8
                xz = sum(vol.data[i, y, kk] for y in range(8)) / 8
                yz = sum(vol.data[x, j, kk] for x in range(8)) / 8
                want = np.concatenate([xy, xz, yz])
                tri_gap = max(tri_gap, float(np.abs(got[i, j, kk] - want).max()))

    ok = recovered and sem_ok and tri_gap <= 1e-12
    report(
        7,
        ok,
        f"splat->detect recovered 100/100 planted centers exactly: {recovered}; "
        f"semantic-map pixel in hand-computed cell: {sem_ok}; "
        f"triplane vs axis-mean oracle gap {tri_gap:.1e}",
    )


def test_criterion_8_scene_editing_consistency():
    near = GaussianBlobField((0.9, 0.4, 0.1), 6.0, (0, 0, 0.5), 0.2)
    far = ConstantField((0.1, 0.2, 0.4), 3.0)
    # editing with a box that holds no near sample (it sits behind the
    # camera) against no editing: the box branch runs and must change no bit
    behind = OrientedBox3((0, 0, -0.6), (0.3, 0.3, 0.3))
    obj = ConstantField((1, 1, 0), 80.0)
    d = np.array([0.1, 0.05, 0.99]) / np.linalg.norm([0.1, 0.05, 0.99])
    ray = Ray(np.zeros(3)[:, None], d[:, None])
    bit_equal = True
    for seed in range(10):
        for n_fine in (0, 8):
            cfg = RenderConfig(seed=seed, n_fine=n_fine)
            base = render_full(ray, cfg, near, far)
            edited = render_full(ray, cfg, near, far, [behind], obj)
            bit_equal &= all(np.array_equal(a, b) for a, b in zip(base, edited))

    box = OrientedBox3((0, 0, 0.5), (3, 3, 1.2))
    cfg = RenderConfig(seed=3)
    ray = Ray(np.zeros(3)[:, None], np.array([0.0, 0.0, 1.0])[:, None])
    pruned = render_full(ray, cfg, ConstantField((1, 0, 0), 80.0), far, [box]).color
    background = render_full(ray, cfg, ConstantField((0, 0, 0), 0.0), far).color
    prune_gap = float(np.abs(pruned - background).max())

    ok = bit_equal and prune_gap <= 1e-12
    report(
        8,
        ok,
        f"box holding no sample bit-identical to no box over 10 seeds x n_fine "
        f"0/8: {bit_equal}; fully pruned ray "
        f"vs background-only gap {prune_gap:.1e} <= 1e-12",
    )


def _strip_timing(doc):
    if isinstance(doc, dict):
        return {k: _strip_timing(v) for k, v in doc.items()
                if k not in ("wall_time", "time_s")}
    if isinstance(doc, list):
        return [_strip_timing(v) for v in doc]
    return doc


def _run_all_subcommands(base):
    """Exercise every subcommand once into `base`; returns output paths."""
    base.mkdir(parents=True, exist_ok=True)
    out = {}

    def must(code):
        assert code == 0

    grid = base / "g.nfvg"
    must(dispatch(["voxelize", "--field", "sphere", "--dims", "8", "--out", str(grid)]))
    out["voxelize"] = [grid]

    ply = base / "pts.ply"
    must(dispatch(["extract-surface", "--shape", "sphere", "--lod-end", "5",
                   "--out", str(ply)]))
    out["extract-surface"] = [ply, base / "pts.ply.stats.json"]

    masked = base / "masked.nfvg"
    mask_json = base / "mask.json"
    must(dispatch(["mask", "--grid", str(grid), "--out", str(masked),
                   "--mask-out", str(mask_json), "--seed", "5"]))
    out["mask"] = [masked, mask_json]

    scene = base / "scene.json"
    scene.write_text(json.dumps({
        "near_field": {"type": "grid", "path": "g.nfvg"},
        "far_field": {"type": "constant", "color": [0.1, 0.2, 0.4], "sigma": 4.0},
        "boxes": [{"center": [0, 0, 0.4], "size": [0.3, 0.3, 0.3], "yaw": 0.2,
                   "class": "car"}],
        "cameras": [{
            "intrinsics": {"fx": 6, "fy": 6, "cx": 2.5, "cy": 2.5,
                           "width": 6, "height": 6},
            "pose": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                     "translation": [0, 0, 0]},
        }],
        "n_coarse": 24,
    }))
    must(dispatch(["render", "--scene", str(scene), "--out", str(base / "img"),
                   "--seed", "9"]))
    out["render"] = [base / "img_000.ppm", base / "img_metrics.json"]

    boxes = {"boxes": [{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0.0,
                        "class": "chair", "score": 0.9}]}
    (base / "pred_boxes.json").write_text(json.dumps(boxes))
    gt_boxes = {"boxes": [dict(boxes["boxes"][0])]}
    del gt_boxes["boxes"][0]["score"]
    (base / "gt_boxes.json").write_text(json.dumps(gt_boxes))
    must(dispatch(["eval-detect", "--pred", str(base / "pred_boxes.json"),
                   "--gt", str(base / "gt_boxes.json"),
                   "--out", str(base / "detect.json")]))
    out["eval-detect"] = [base / "detect.json"]

    eye = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    poses = {"poses": [{"rotation": eye, "translation": [0, 0, 0], "scale": 1.0,
                        "class": "bottle", "score": 0.8}]}
    (base / "pred_poses.json").write_text(json.dumps(poses))
    gt_poses = {"poses": [{k: v for k, v in poses["poses"][0].items()
                           if k != "score"}]}
    (base / "gt_poses.json").write_text(json.dumps(gt_poses))
    must(dispatch(["eval-pose", "--pred", str(base / "pred_poses.json"),
                   "--gt", str(base / "gt_poses.json"),
                   "--out", str(base / "pose.json")]))
    out["eval-pose"] = [base / "pose.json"]

    labels = VoxelGrid4D(
        np.random.default_rng(3).integers(0, 3, size=(4, 4, 4))[..., None].astype(float),
        Aabb([0, 0, 0], [1, 1, 1]))
    io.write_nfvg(base / "labels.nfvg", labels)
    (base / "labels.json").write_text(json.dumps(
        {"labels_file": "labels.nfvg", "n_classes": 3}))
    must(dispatch(["eval-voxels", "--pred", str(base / "labels.json"),
                   "--gt", str(base / "labels.json"),
                   "--out", str(base / "voxels.json")]))
    out["eval-voxels"] = [base / "voxels.json"]

    (base / "traj.json").write_text(json.dumps({"trajectory": {
        "positions": [[0, 0, 0], [1, 0, 0]], "reference": [[0, 0, 0], [1, 0, 0]],
        "goal": [1, 0, 0]}}))
    must(dispatch(["eval-nav", "--trajectory", str(base / "traj.json"),
                   "--out", str(base / "nav.json")]))
    out["eval-nav"] = [base / "nav.json"]

    must(dispatch(["bench-octree", "--shape", "sphere",
                   "--out", str(base / "bench.json")]))
    out["bench-octree"] = [base / "bench.json"]

    depth = np.zeros((50, 50))
    depth[25, 30] = 2.0
    np.save(base / "depth.npy", depth)
    np.save(base / "sem.npy", np.zeros((50, 50), dtype=np.int64))
    (base / "k.json").write_text(json.dumps(
        {"fx": 50, "fy": 50, "cx": 25, "cy": 25, "width": 50, "height": 50}))
    (base / "cam.json").write_text(json.dumps(
        {"rotation": [0, 0, 1, -1, 0, 0, 0, -1, 0], "translation": [0, 0, 0.5]}))
    must(dispatch(["semmap", "--depth", str(base / "depth.npy"),
                   "--semantics", str(base / "sem.npy"),
                   "--intrinsics", str(base / "k.json"),
                   "--pose", str(base / "cam.json"),
                   "--classes", "1", "--out", str(base / "map.nfvg")]))
    out["semmap"] = [base / "map.nfvg"]
    return out


def test_criterion_9_io_determinism(tmp_path):
    # format round trips
    rng = np.random.default_rng(4)
    grid = VoxelGrid4D(
        rng.uniform(0, 1, size=(8, 8, 8, 4)).astype(np.float32).astype(np.float64),
        CUBE)
    io.write_nfvg(tmp_path / "rt.nfvg", grid)
    back = io.read_nfvg(tmp_path / "rt.nfvg")
    io.write_nfvg(tmp_path / "rt2.nfvg", back)
    nfvg_ok = (np.array_equal(back.data, grid.data)
               and (tmp_path / "rt.nfvg").read_bytes() == (tmp_path / "rt2.nfvg").read_bytes())

    samples, _ = extract_surface(SPHERE, LodConfig(3, 4))
    io.write_ply(tmp_path / "rt.ply", samples)
    ply_back = io.read_ply(tmp_path / "rt.ply")
    io.write_ply(tmp_path / "rt2.ply", ply_back)
    ply_ok = (tmp_path / "rt.ply").read_bytes() == (tmp_path / "rt2.ply").read_bytes()

    # every subcommand, run twice, byte-compared (timing fields excluded)
    run_a = _run_all_subcommands(tmp_path / "a")
    run_b = _run_all_subcommands(tmp_path / "b")
    mismatches = []
    for cmd, paths_a in run_a.items():
        for pa, pb in zip(paths_a, run_b[cmd]):
            ba, bb = pa.read_bytes(), pb.read_bytes()
            if pa.suffix == ".json":
                da = _strip_timing(json.loads(ba))
                db = _strip_timing(json.loads(bb))
                if da != db:
                    mismatches.append(f"{cmd}:{pa.name}")
            elif ba != bb:
                mismatches.append(f"{cmd}:{pa.name}")

    ok = nfvg_ok and ply_ok and not mismatches
    report(
        9,
        ok,
        f"NFVG round trip bit-identical: {nfvg_ok}; PLY round trip bit-identical: "
        f"{ply_ok}; all 10 subcommands byte-reproducible "
        f"(mismatches: {mismatches or 'none'})",
    )
