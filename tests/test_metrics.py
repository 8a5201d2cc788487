import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import radiant.metrics
from radiant.core_math import rotation_about, skew
from radiant.errors import DimsMismatch, EmptyPath, EmptySet, LabelOutOfRange
from radiant.metrics import (
    DTW_BLOCK,
    LABEL_CHUNK,
    BoxBatch,
    OrientedBox3,
    PoseRecord,
    Trajectory,
    chamfer,
    detection_ap,
    dtw_distance,
    iou3d,
    nav_metrics,
    pose_ap,
    pose_errors,
    voxel_label_metrics,
)


def detection_ap_at(preds, gts, iou_thresh):
    """Overall (AP, recall) of detection_ap at one IoU threshold."""
    (result,) = detection_ap(preds, gts, [iou_thresh])
    return result.ap, result.recall


def pose_ap_at(preds, gts, deg_thresh, cm_thresh, symmetric_axes=None):
    """Overall AP of pose_ap at one (degrees, cm) pair."""
    (result,) = pose_ap(preds, gts, [(deg_thresh, cm_thresh)], symmetric_axes)
    return result.ap


def mc_iou_oracle(a: OrientedBox3, b: OrientedBox3, n=10**6, seed=0):
    """Independent Monte Carlo IoU: own containment math, own AABB."""

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

    all_corners = np.vstack([corners(a), corners(b)])
    lo, hi = all_corners.min(axis=0), all_corners.max(axis=0)
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(n, 3))
    in_a, in_b = inside(a, pts), inside(b, pts)
    union = np.count_nonzero(in_a | in_b)
    return np.count_nonzero(in_a & in_b) / union if union else 0.0


def iou3d_monte_carlo(
    a: OrientedBox3, b: OrientedBox3, n_samples: int = 10**6, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo IoU estimate with its standard error: samples the joint
    AABB and uses the correlated ratio estimator IoU = |in both| / |in either|,
    with the boxes' own containment test."""
    corners = np.vstack([a.corners(), b.corners()])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, 3))
    in_a = a.contains(pts.T)
    in_b = b.contains(pts.T)
    n_union = int(np.count_nonzero(in_a | in_b))
    if n_union == 0:
        return 0.0, 0.0
    n_inter = int(np.count_nonzero(in_a & in_b))
    p = n_inter / n_union
    stderr = math.sqrt(p * (1.0 - p) / n_union)
    return p, stderr


# Reference implementations: the per-pair loops the array code replaced,
# kept as oracles. The array code must reproduce their results exactly.


def _oracle_sorted(preds):
    order = np.argsort([-p.score for p in preds], kind="stable")
    return [preds[i] for i in order]


def oracle_detection_ap(preds, gts, iou_thresh):
    matched = [False] * len(gts)
    tp = []
    for p in _oracle_sorted(preds):
        best, best_iou = -1, 0.0
        for gi, g in enumerate(gts):
            if matched[gi] or g.label != p.label:
                continue
            v = iou3d(p, g)
            if v > best_iou:
                best, best_iou = gi, v
        if best >= 0 and best_iou >= iou_thresh:
            matched[best] = True
            tp.append(1.0)
        else:
            tp.append(0.0)
    return radiant.metrics._average_precision(np.array(tp), len(gts))


def oracle_pose_ap(preds, gts, deg_thresh, cm_thresh, symmetric_axes=None):
    symmetric_axes = symmetric_axes or {}
    matched = [False] * len(gts)
    tp = []
    for p in _oracle_sorted(preds):
        axis = symmetric_axes.get(p.label)
        best, best_err = -1, (math.inf, math.inf)
        for gi, g in enumerate(gts):
            if matched[gi] or g.label != p.label:
                continue
            deg, cm = pose_errors(p, g, axis)
            if deg < deg_thresh and cm < cm_thresh and (deg, cm) < best_err:
                best, best_err = gi, (deg, cm)
        if best >= 0:
            matched[best] = True
            tp.append(1.0)
        else:
            tp.append(0.0)
    ap, _ = radiant.metrics._average_precision(np.array(tp), len(gts))
    return ap


def oracle_pose_errors(pred, gt, symmetric_axis=None):
    m = gt.rotation @ pred.rotation.T
    if symmetric_axis is None:
        best_trace = np.trace(m)
    else:
        a = np.asarray(symmetric_axis, dtype=np.float64)
        big_a = np.trace(m) - a @ m @ a
        big_b = np.trace(skew(a) @ m)
        best_trace = math.hypot(big_a, big_b) + a @ m @ a
    c = (best_trace - 1.0) / 2.0
    angle = math.acos(min(1.0, max(-1.0, c)))
    return math.degrees(angle), float(np.linalg.norm(pred.translation - gt.translation)) * 100.0


def oracle_dtw(a, b):
    n, m = len(a), len(b)
    cost = np.full((n + 1, m + 1), np.inf)
    cost[0, 0] = 0.0
    dists = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost[i, j] = dists[i - 1, j - 1] + min(
                cost[i - 1, j], cost[i, j - 1], cost[i - 1, j - 1]
            )
    return float(cost[n, m])


def oracle_voxel_label_metrics(pred, gt, n_classes):
    """voxel_label_metrics counted over the whole grids at once, with
    float64 bincounts."""
    p = np.asarray(pred).ravel().astype(np.int64)
    g = np.asarray(gt).ravel().astype(np.int64)
    n = n_classes
    if n > g.size:
        _, ranks = np.unique(np.concatenate([g, p]), return_inverse=True)
        g, p = ranks[:g.size], ranks[g.size:]
        n = 2 * g.size
    gt_count = np.bincount(g, minlength=n).astype(np.float64)
    present = gt_count > 0
    gt_count = gt_count[present]
    pred_count = np.bincount(p, minlength=n)[present].astype(np.float64)
    tp = np.bincount(g, weights=p == g, minlength=n)[present]
    iou = tp / (gt_count + pred_count - tp)
    return float(iou.mean()), float((tp / gt_count).mean()), float(tp.sum() / g.size)


def random_box_sets(seed):
    """Crowded boxes: ground truth with duplicates, jittered and stray
    predictions with tied scores, one label on each side only."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 14))
    gts = [OrientedBox3((*rng.uniform(-2.5, 2.5, 2), rng.uniform(0, 1)),
                        rng.uniform(0.5, 2.0, 3), yaw=rng.uniform(-math.pi, math.pi),
                        label=str(rng.choice(["a", "b", "gt_only"])))
           for _ in range(n)]
    gts += [OrientedBox3(g.center, g.size, g.yaw, g.label) for g in gts[:2]]
    preds = []
    for g in gts:
        if rng.random() < 0.7:
            preds.append(OrientedBox3(g.center + rng.normal(0, 0.2, 3),
                                      g.size * rng.uniform(0.8, 1.2, 3),
                                      yaw=g.yaw + rng.normal(0, 0.2), label=g.label,
                                      score=rng.integers(0, 4) / 4))
    for _ in range(int(rng.integers(2, 6))):
        preds.append(OrientedBox3((*rng.uniform(-2.5, 2.5, 2), rng.uniform(0, 1)),
                                  rng.uniform(0.5, 2.0, 3),
                                  yaw=rng.uniform(-math.pi, math.pi),
                                  label=str(rng.choice(["a", "b", "pred_only"])),
                                  score=rng.integers(0, 4) / 4))
    return preds, gts


def random_rotation(rng, max_deg=180.0):
    return rotation_about(rng.normal(size=3), math.radians(rng.uniform(0, max_deg)))


def random_pose_sets(seed):
    """Ground truth with duplicates; predictions near it, some spun about a
    class's symmetry axis, plus strays; tied scores; one-sided labels."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 14))
    gts = [PoseRecord(random_rotation(rng), rng.uniform(-0.3, 0.3, 3),
                      label=str(rng.choice(["bottle", "can", "cup", "gt_only"])))
           for _ in range(n)]
    gts += [PoseRecord(g.rotation, g.translation, label=g.label) for g in gts[:2]]
    preds = []
    for g in gts:
        if rng.random() < 0.8:
            spin = rotation_about(SYM_AXES.get(g.label, [0, 0, 1]), rng.uniform(0, 6))
            rot = random_rotation(rng, 8.0) @ (spin if rng.random() < 0.5 else np.eye(3))
            preds.append(PoseRecord(rot @ g.rotation, g.translation + rng.normal(0, 0.03, 3),
                                    label=g.label, score=rng.integers(0, 4) / 4))
    for _ in range(int(rng.integers(2, 6))):
        preds.append(PoseRecord(random_rotation(rng), rng.uniform(-0.3, 0.3, 3),
                                label=str(rng.choice(["bottle", "cup", "pred_only"])),
                                score=rng.integers(0, 4) / 4))
    return preds, gts


SYM_AXES = {"bottle": np.array([0.0, 1.0, 0.0]), "can": np.array([0.0, 0.0, 1.0])}


class TestChamfer:
    def test_identical_sets(self):
        pts = np.random.default_rng(0).normal(size=(20, 3))
        assert chamfer(pts, pts) == 0.0

    def test_unit_offset(self):
        assert chamfer([[0, 0, 0]], [[1, 0, 0]]) == pytest.approx(2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(15, 3))
        b = rng.normal(size=(25, 3))
        assert chamfer(a, b) == pytest.approx(chamfer(b, a), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            chamfer(np.zeros((0, 3)), np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(3, 100), (100, 2), (100, 4), (2, 50, 3)])
    def test_points_not_n_by_3_refused(self, shape):
        # (3, N) rows were read as 3 points of N dimensions
        a = np.random.default_rng(5).uniform(-1, 1, (100, 3))
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            chamfer(np.zeros(shape), a)
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            chamfer(a, np.zeros(shape))

    def test_subset_not_zero(self):
        # zero only when both directions vanish
        a = np.array([[0.0, 0, 0]])
        b = np.array([[0.0, 0, 0], [1, 0, 0]])
        assert chamfer(a, b) > 0

    def test_bits_equal_balanced_tree_formula(self):
        # nearest distances do not depend on how the KD-trees split
        rng = np.random.default_rng(3)
        for n, m in ((1, 1), (7, 300), (2000, 500)):
            a = rng.uniform(-1, 1, size=(n, 3))
            b = np.round(rng.uniform(-1, 1, size=(m, 3)), 1)  # duplicates and ties
            d_ab, _ = cKDTree(b).query(a)
            d_ba, _ = cKDTree(a).query(b)
            want = float(np.mean(d_ab**2) + np.mean(d_ba**2))
            assert float.hex(chamfer(a, b)) == float.hex(want)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for n, m in ((1, 5), (30, 17), (200, 150)):
            a, b = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
            d2 = cdist(a, b, "sqeuclidean")
            want = d2.min(axis=1).mean() + d2.min(axis=0).mean()
            assert chamfer(a, b) == pytest.approx(want, rel=1e-12)


class TestIou3d:
    def test_identical(self):
        b = OrientedBox3((1, 2, 3), (2, 1, 0.5), yaw=0.4)
        assert iou3d(b, b) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint(self):
        a = OrientedBox3((0, 0, 0), (1, 1, 1))
        b = OrientedBox3((5, 0, 0), (1, 1, 1))
        assert iou3d(a, b) == 0.0

    def test_half_offset_unit_cubes(self):
        a = OrientedBox3((0, 0, 0), (1, 1, 1))
        b = OrientedBox3((0.5, 0, 0), (1, 1, 1))
        assert iou3d(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_yawed_pair_against_monte_carlo(self):
        a = OrientedBox3((0, 0, 0), (1, 1, 1))
        b = OrientedBox3((0.3, 0.1, 0), (1, 1, 1), yaw=math.radians(45))
        assert iou3d(a, b) == pytest.approx(mc_iou_oracle(a, b), abs=1e-3)

    def test_symmetry_and_rigid_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = OrientedBox3(rng.uniform(-1, 1, 3), rng.uniform(0.5, 2, 3),
                             yaw=rng.uniform(-math.pi, math.pi))
            b = OrientedBox3(a.center + rng.uniform(-0.5, 0.5, 3),
                             rng.uniform(0.5, 2, 3),
                             yaw=rng.uniform(-math.pi, math.pi))
            v = iou3d(a, b)
            assert v == pytest.approx(iou3d(b, a), abs=1e-12)
            shift = rng.uniform(-3, 3, 3)
            spin = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(spin), math.sin(spin)
            rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
            a2 = OrientedBox3(rot @ a.center + shift, a.size, a.yaw + spin)
            b2 = OrientedBox3(rot @ b.center + shift, b.size, b.yaw + spin)
            assert iou3d(a2, b2) == pytest.approx(v, abs=1e-9)

    def test_library_monte_carlo_matches_exact(self):
        a = OrientedBox3((0, 0, 0), (1.5, 1, 1))
        b = OrientedBox3((0.4, -0.2, 0.1), (1, 1.2, 0.8), yaw=0.7)
        est, stderr = iou3d_monte_carlo(a, b, n_samples=200_000, seed=3)
        assert est == pytest.approx(iou3d(a, b), abs=max(5 * stderr, 1e-3))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**31))
    def test_bounds_property(self, seed):
        rng = np.random.default_rng(seed)
        a = OrientedBox3(rng.uniform(-1, 1, 3), rng.uniform(0.2, 2, 3),
                         yaw=rng.uniform(-math.pi, math.pi))
        b = OrientedBox3(rng.uniform(-1, 1, 3), rng.uniform(0.2, 2, 3),
                         yaw=rng.uniform(-math.pi, math.pi))
        v = iou3d(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert iou3d(b, a) == pytest.approx(v, abs=1e-12)


class TestDetectionAp:
    def gt_pair(self):
        return [
            OrientedBox3((0, 0, 0), (1, 1, 1), label="a"),
            OrientedBox3((3, 0, 0), (1, 1, 1), label="a"),
        ]

    def test_perfect_predictions(self):
        gts = self.gt_pair()
        preds = [OrientedBox3(g.center, g.size, g.yaw, g.label, score=0.9) for g in gts]
        ap, recall = detection_ap_at(preds, gts, 0.5)
        assert ap == 1.0 and recall == 1.0

    def test_no_predictions(self):
        ap, recall = detection_ap_at([], self.gt_pair(), 0.5)
        assert ap == 0.0 and recall == 0.0

    def test_hand_pr_curve(self):
        gts = self.gt_pair()
        preds = [
            OrientedBox3((0, 0, 0), (1, 1, 1), label="a", score=0.9),   # TP
            OrientedBox3((10, 0, 0), (1, 1, 1), label="a", score=0.1),  # FP
        ]
        ap, recall = detection_ap_at(preds, gts, 0.5)
        assert ap == pytest.approx(0.5) and recall == pytest.approx(0.5)

    def test_adding_correct_top_prediction_never_lowers_ap(self):
        gts = self.gt_pair()
        preds = [OrientedBox3((10, 0, 0), (1, 1, 1), label="a", score=0.4)]
        base, _ = detection_ap_at(preds, gts, 0.5)
        better = preds + [OrientedBox3((0, 0, 0), (1, 1, 1), label="a", score=0.95)]
        improved, _ = detection_ap_at(better, gts, 0.5)
        assert improved >= base

    def test_class_labels_must_match(self):
        gts = [OrientedBox3((0, 0, 0), (1, 1, 1), label="a")]
        preds = [OrientedBox3((0, 0, 0), (1, 1, 1), label="b", score=1.0)]
        ap, recall = detection_ap_at(preds, gts, 0.5)
        assert ap == 0.0 and recall == 0.0

    def test_prediction_order_irrelevant(self):
        rng = np.random.default_rng(3)
        gts = self.gt_pair()
        preds = [
            OrientedBox3((0.1, 0, 0), (1, 1, 1), label="a", score=0.8),
            OrientedBox3((3.05, 0, 0), (1, 1, 1), label="a", score=0.6),
            OrientedBox3((7, 0, 0), (1, 1, 1), label="a", score=0.3),
        ]
        base = detection_ap_at(preds, gts, 0.25)
        for _ in range(5):
            order = rng.permutation(len(preds))
            assert detection_ap_at([preds[i] for i in order], gts, 0.25) == base


class TestPoseErrors:
    def test_identical(self):
        p = PoseRecord(np.eye(3), (0, 0, 0), 1.0, "cup", 0.9)
        g = PoseRecord(np.eye(3), (0, 0, 0), 1.0, "cup")
        assert pose_errors(p, g) == (0.0, 0.0)

    def test_30_degrees(self):
        p = PoseRecord(rotation_about([0, 0, 1], math.radians(30)), (0, 0, 0))
        g = PoseRecord(np.eye(3), (0, 0, 0))
        deg, cm = pose_errors(p, g)
        assert deg == pytest.approx(30.0, abs=1e-9)
        assert cm == 0.0

    def test_symmetric_axis_cancels(self):
        p = PoseRecord(rotation_about([0, 1, 0], math.radians(73)), (0, 0, 0))
        g = PoseRecord(np.eye(3), (0, 0, 0))
        deg, _ = pose_errors(p, g, symmetric_axis=[0, 1, 0])
        assert deg == pytest.approx(0.0, abs=1e-9)

    def test_translation_in_cm(self):
        p = PoseRecord(np.eye(3), (0.05, 0, 0))
        g = PoseRecord(np.eye(3), (0, 0, 0))
        assert pose_errors(p, g)[1] == pytest.approx(5.0)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**31), st.floats(-math.pi, math.pi),
           st.floats(-math.pi, math.pi))
    def test_symmetric_invariance(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        r = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ])
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        g = PoseRecord(r, (0, 0, 0))
        p = PoseRecord(np.eye(3), (0, 0, 0))
        base, _ = pose_errors(p, g, axis)
        spun_g = PoseRecord(rotation_about(axis, t1) @ r, (0, 0, 0))
        spun_p = PoseRecord(rotation_about(axis, t2) @ np.eye(3), (0, 0, 0))
        assert pose_errors(p, spun_g, axis)[0] == pytest.approx(base, abs=1e-9)
        assert pose_errors(spun_p, g, axis)[0] == pytest.approx(base, abs=1e-9)

    def test_symmetric_angle_is_the_minimum_over_axis_spins(self):
        # brute force: the unsymmetric angle of the prediction spun about the
        # axis in 0.5 degree steps; the closed-form minimum lies within a
        # quarter step of the best spin, and the angle moves at most 1 degree
        # a degree of spin
        rng = np.random.default_rng(5)
        thetas = np.linspace(-math.pi, math.pi, 721)
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            p = PoseRecord(random_rotation(rng), (0, 0, 0))
            g = PoseRecord(random_rotation(rng), (0, 0, 0))
            spins = np.array([rotation_about(axis, t) for t in thetas])
            spun = radiant.metrics._PoseStack(spins @ p.rotation, np.zeros((721, 3)))
            brute = pose_errors(spun, g)[0].min()
            deg, _ = pose_errors(p, g, axis)
            assert brute - 0.25 <= deg <= brute + 1e-9


class TestPoseAp:
    def records(self):
        gts = [
            PoseRecord(np.eye(3), (0, 0, 0), label="cup"),
            PoseRecord(np.eye(3), (1, 0, 0), label="cup"),
        ]
        return gts

    def test_perfect(self):
        gts = self.records()
        preds = [PoseRecord(g.rotation, g.translation, label=g.label, score=0.9)
                 for g in gts]
        assert pose_ap_at(preds, gts, 5, 5) == 1.0

    def test_rotation_beyond_threshold(self):
        gts = self.records()
        bad = rotation_about([0, 0, 1], math.radians(20))
        preds = [PoseRecord(bad, g.translation, label=g.label, score=0.9) for g in gts]
        assert pose_ap_at(preds, gts, 10, 10) == 0.0

    def test_hand_pr_curve(self):
        gts = self.records()
        preds = [
            PoseRecord(np.eye(3), (0, 0, 0), label="cup", score=0.9),
            PoseRecord(np.eye(3), (9, 9, 9), label="cup", score=0.1),
        ]
        assert pose_ap_at(preds, gts, 5, 5) == pytest.approx(0.5)

    def test_symmetric_class_axis(self):
        gts = [PoseRecord(np.eye(3), (0, 0, 0), label="bottle")]
        spun = rotation_about([0, 1, 0], math.radians(140))
        preds = [PoseRecord(spun, (0, 0, 0), label="bottle", score=1.0)]
        assert pose_ap_at(preds, gts, 5, 5) == 0.0
        assert pose_ap_at(preds, gts, 5, 5, {"bottle": np.array([0, 1, 0.0])}) == 1.0


class TestVoxelLabels:
    def test_perfect(self):
        g = np.random.default_rng(0).integers(0, 4, size=(6, 6, 6))
        assert voxel_label_metrics(g, g, 4) == (1.0, 1.0, 1.0)

    def test_half_split_confusion(self):
        gt = np.zeros((2, 2, 2), dtype=int)
        gt[1] = 1  # 50/50 split between classes 0 and 1
        pred = np.ones((2, 2, 2), dtype=int)
        m_iou, m_acc, acc = voxel_label_metrics(pred, gt, 2)
        assert acc == 0.5
        assert m_acc == 0.5
        assert m_iou == pytest.approx(0.25)

    def test_label_out_of_range(self):
        gt = np.zeros((2, 2, 2), dtype=int)
        pred = np.full((2, 2, 2), 2)
        with pytest.raises(LabelOutOfRange):
            voxel_label_metrics(pred, gt, 2)

    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_nan_labels_out_of_range(self, side):
        labels = {"pred": np.zeros((2, 2, 2)), "gt": np.zeros((2, 2, 2))}
        labels[side][1, 1, 1] = np.nan
        with pytest.raises(LabelOutOfRange, match=f"{side} labels outside"):
            voxel_label_metrics(labels["pred"], labels["gt"], 2)

    def test_absent_classes_ignored(self):
        gt = np.zeros((2, 2, 2), dtype=int)
        pred = np.zeros((2, 2, 2), dtype=int)
        m_iou, m_acc, acc = voxel_label_metrics(pred, gt, 5)
        assert (m_iou, m_acc, acc) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("offset,n_classes", [(0, 40), (0, 65), (10**12, 10**12 + 40)],
                             ids=["per-class", "ranks", "huge-labels"])
    def test_counts_match_per_class_oracle(self, offset, n_classes):
        # more classes than the 64 voxels are counted by label rank; the
        # report must not depend on n_classes or on where the labels sit
        rng = np.random.default_rng(23)
        gt = rng.integers(0, 30, size=(4, 4, 4))
        pred = np.where(rng.random(gt.shape) < 0.6, gt, rng.integers(0, 40, gt.shape))
        ious, accs = [], []
        for c in np.unique(gt):
            tp = np.sum((pred == c) & (gt == c))
            ious.append(tp / (np.sum(gt == c) + np.sum(pred == c) - tp))
            accs.append(tp / np.sum(gt == c))
        want = (np.mean(ious), np.mean(accs), np.mean(pred == gt))
        got = voxel_label_metrics(pred + offset, gt + offset, n_classes)
        assert got == pytest.approx(want, abs=1e-15)
        assert got == voxel_label_metrics(pred, gt, 40)


class TestChunkedVoxelCounts:
    """voxel_label_metrics counts LABEL_CHUNK voxels at a time; the report
    must be the unchunked one, bit for bit, at and around the chunk edge."""

    @pytest.mark.parametrize("size", [LABEL_CHUNK - 1, LABEL_CHUNK, LABEL_CHUNK + 1,
                                      3 * LABEL_CHUNK + 5])
    def test_matches_unchunked_oracle(self, size):
        rng = np.random.default_rng(size)
        # classes 5, 6 and 8 never appear, 4 appears in predictions only,
        # and the last voxel holds a class seen nowhere else
        gt = rng.integers(0, 4, size).astype(np.float64)
        pred = np.where(rng.random(size) < 0.7, gt, rng.integers(0, 5, size))
        gt[-1] = pred[-1] = 7.0
        for p, g in ((pred, gt), (pred.astype(np.int32), gt.reshape(1, 1, size))):
            got = voxel_label_metrics(p.reshape(g.shape), g, 9)
            assert got == oracle_voxel_label_metrics(p.reshape(g.shape), g, 9)

    def test_rank_path(self):
        # more classes than voxels: counted over label ranks, in chunks too
        rng = np.random.default_rng(5)
        size = LABEL_CHUNK + 1
        gt = rng.integers(0, 10**9, size)
        pred = np.where(rng.random(size) < 0.5, gt, rng.integers(0, 10**9, size))
        got = voxel_label_metrics(pred, gt, 10**9)
        assert got == oracle_voxel_label_metrics(pred, gt, 10**9)


class TestNavMetrics:
    def straight_path(self):
        return np.array([[0.0, 0, 0], [2, 0, 0], [4, 0, 0]])

    def test_perfect_episode(self):
        path = self.straight_path()
        t = Trajectory(path, path, goal=(4, 0, 0))
        m = nav_metrics(t)
        assert m.sr == 1.0 and m.spl == 1.0 and m.ndtw == 1.0
        assert m.ne == 0.0 and m.tl == 4.0

    def test_stop_far_from_goal(self):
        path = self.straight_path()
        t = Trajectory(path, path, goal=(9, 0, 0))  # ends 5 m away
        m = nav_metrics(t)
        assert m.sr == 0.0 and m.spl == 0.0
        assert m.ne == pytest.approx(5.0)

    def test_spl_halves_for_double_length(self):
        ref = self.straight_path()
        detour = np.array([[0.0, 0, 0], [0, 2, 0], [0, 0, 0], [4, 0, 0]])
        assert np.linalg.norm(np.diff(detour, axis=0), axis=1).sum() == 8.0
        m = nav_metrics(Trajectory(detour, ref, goal=(4, 0, 0)))
        assert m.sr == 1.0 and m.spl == pytest.approx(0.5)

    def test_ndtw_range_and_identity(self):
        rng = np.random.default_rng(4)
        ref = np.cumsum(rng.uniform(-1, 1, size=(10, 3)), axis=0)
        path = ref + rng.uniform(-0.5, 0.5, size=ref.shape)
        t = Trajectory(path, ref, goal=ref[-1])
        m = nav_metrics(t)
        assert 0.0 < m.ndtw <= 1.0
        assert nav_metrics(Trajectory(ref, ref, goal=ref[-1])).ndtw == 1.0

    def test_dtw_standard_dp(self):
        a = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
        b = np.array([[0.0, 0, 0], [2, 0, 0]])
        # optimal alignment: (0,0), (1,1), (2,1): cost 0 + 1 + 0
        assert dtw_distance(a, b) == pytest.approx(1.0)

    def test_dtw_refuses_mismatched_point_dims(self):
        # a broadcast of (n, 1) against (m, 3) points is not a distance
        with pytest.raises(DimsMismatch):
            dtw_distance(np.zeros((4, 1)), np.zeros((3, 3)))
        with pytest.raises(DimsMismatch):
            dtw_distance(np.zeros(4), np.zeros(4))
        # points with no coordinates are not a path
        with pytest.raises(DimsMismatch):
            dtw_distance(np.zeros((4, 0)), np.zeros((3, 0)))

    def test_empty_path_rejected(self):
        with pytest.raises(EmptyPath):
            Trajectory(np.zeros((0, 3)), np.zeros((1, 3)), goal=(0, 0, 0))

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.inf, math.nan])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        # a zero threshold divided by zero in nDTW, and a negative one gave nDTW > 1
        path = np.array([[0.0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError, match="threshold"):
            Trajectory(path, path, goal=(1, 0, 0), success_threshold=threshold)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 4), (4,), (2, 3, 1)])
    def test_points_must_be_3d(self, shape):
        good = np.zeros((2, 3))
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            Trajectory(np.zeros(shape), good, goal=(0, 0, 0))
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            Trajectory(good, np.zeros(shape), goal=(0, 0, 0))

    def test_one_flat_point_reads_as_a_path(self):
        t = Trajectory([1.0, 0, 0], [[0.0, 0, 0], [1, 0, 0]], goal=(1, 0, 0))
        assert t.positions.shape == (1, 3)
        # an empty path is a ValueError too, for library callers
        with pytest.raises(ValueError):
            Trajectory([], [[0.0, 0, 0]], goal=(0, 0, 0))

    def test_threshold_is_strict(self):
        path = np.array([[0.0, 0, 0]])
        t = Trajectory(path, path, goal=(3.0, 0, 0), success_threshold=3.0)
        assert nav_metrics(t).sr == 0.0


class TestArrayMetricsAgainstOracles:
    @pytest.mark.parametrize("seed", range(15))
    def test_detection_ap_exact(self, seed):
        preds, gts = random_box_sets(seed)
        for thresh in (0.05, 0.25, 0.5, 0.7):
            assert detection_ap_at(preds, gts, thresh) == oracle_detection_ap(preds, gts, thresh)
            # the CLI's per-class calls: one label on both sides, or one side empty
            for label in ("a", "gt_only", "pred_only"):
                p = [b for b in preds if b.label == label]
                g = [b for b in gts if b.label == label]
                assert detection_ap_at(p, g, thresh) == oracle_detection_ap(p, g, thresh)

    def test_detection_ap_empty_sets(self):
        preds, gts = random_box_sets(0)
        for p, g in (([], gts), (preds, []), ([], [])):
            assert detection_ap_at(p, g, 0.5) == oracle_detection_ap(p, g, 0.5)

    def test_detection_ties_pick_first_gt(self):
        # the top prediction overlaps both ground truths by exactly 1/3; only
        # the first-index choice leaves the second one for the next prediction
        gts = [OrientedBox3((-0.5, 0, 0), (1, 1, 1), label="a"),
               OrientedBox3((0.5, 0, 0), (1, 1, 1), label="a"),
               OrientedBox3((0.5, 0, 0), (1, 1, 1), label="a")]
        preds = [OrientedBox3((0, 0, 0), (1, 1, 1), label="a", score=0.9),
                 OrientedBox3((0.75, 0, 0), (1, 1, 1), label="a", score=0.5),
                 OrientedBox3((0.75, 0, 0), (1, 1, 1), label="a", score=0.5)]
        edge = iou3d(preds[0], gts[0])
        assert edge == iou3d(preds[0], gts[1])
        # IoU equal to the threshold matches
        assert detection_ap_at(preds, gts, 0.25) == detection_ap_at(preds, gts, edge) == (1.0, 1.0)
        for thresh in (0.25, edge, 0.5, 0.7):
            assert detection_ap_at(preds, gts, thresh) == oracle_detection_ap(preds, gts, thresh)

    @pytest.mark.parametrize("seed", range(15))
    def test_pose_ap_exact(self, seed):
        preds, gts = random_pose_sets(seed)
        for deg, cm in ((5, 5), (5, 10), (10, 10), (180, 100)):
            for axes in (None, SYM_AXES):
                assert pose_ap_at(preds, gts, deg, cm, axes) == oracle_pose_ap(
                    preds, gts, deg, cm, axes)

    def test_pose_ap_empty_and_one_sided(self):
        preds, gts = random_pose_sets(1)
        cases = (([], gts), (preds, []), ([], []),
                 ([p for p in preds if p.label == "pred_only"], gts),
                 (preds, [g for g in gts if g.label == "gt_only"]))
        for p, g in cases:
            assert pose_ap_at(p, g, 10, 10, SYM_AXES) == oracle_pose_ap(p, g, 10, 10, SYM_AXES)

    def test_pose_tied_errors_pick_first_gt(self):
        # the top prediction is 1 cm from both ground truths; only the
        # first-index choice leaves the second one for the next prediction
        gts = [PoseRecord(np.eye(3), (-0.01, 0, 0), label="cup"),
               PoseRecord(np.eye(3), (0.01, 0, 0), label="cup"),
               PoseRecord(np.eye(3), (0.01, 0, 0), label="cup")]
        preds = [PoseRecord(np.eye(3), (0.0, 0, 0), label="cup", score=0.9),
                 PoseRecord(np.eye(3), (0.012, 0, 0), label="cup", score=0.5),
                 PoseRecord(np.eye(3), (0.012, 0, 0), label="cup", score=0.5)]
        assert pose_errors(preds[0], gts[0]) == pose_errors(preds[0], gts[1])
        assert pose_ap_at(preds, gts, 5, 1.5) == 1.0
        for cm in (0.5, 1.5, 5):
            assert pose_ap_at(preds, gts, 5, cm) == oracle_pose_ap(preds, gts, 5, cm)

    def test_pose_key_is_degrees_then_cm(self):
        # the top prediction prefers (1 deg, 3 cm) over (3 deg, 1 cm), which
        # leaves the second ground truth for the next prediction
        z3 = rotation_about([0, 0, 1], math.radians(3))
        gts = [PoseRecord(rotation_about([0, 0, 1], math.radians(1)), (0.03, 0, 0),
                          label="cup"),
               PoseRecord(z3, (-0.01, 0, 0), label="cup")]
        preds = [PoseRecord(np.eye(3), (0.0, 0, 0), label="cup", score=0.9),
                 PoseRecord(z3, (-0.01, 0, 0), label="cup", score=0.5)]
        assert pose_ap_at(preds, gts, 5, 3.5) == 1.0
        assert pose_ap_at(preds, gts, 5, 3.5) == oracle_pose_ap(preds, gts, 5, 3.5)

    # the sweep fills point distances DTW_BLOCK diagonals at a time: sizes
    # on each side of the block edge, one- and two-block paths, one-point paths
    B = DTW_BLOCK

    @pytest.mark.parametrize("n,m", [
        (1, 1), (1, 9), (9, 1), (7, 12), (12, 7), (30, 30), (0, 4), (4, 0), (0, 0),
        (1, 300), (300, 1), (B - 1, 7), (7, B - 1), (B, 7), (7, B), (B + 1, 7), (7, B + 1),
        (2 * B + 1, 7), (7, 2 * B + 1), (B, B), (B + 1, B - 1), (B - 1, 2 * B + 1),
        (2 * B + 1, 2 * B + 1),
    ])
    def test_dtw_exact(self, n, m):
        rng = np.random.default_rng(n * 100 + m)
        for dims in (3, 2):
            a, b = rng.normal(size=(n, dims)), rng.normal(size=(m, dims))
            assert dtw_distance(a, b) == oracle_dtw(a, b)
            # repeated points give tied neighbours in the recurrence
            a2, b2 = np.round(a), np.round(b)
            assert dtw_distance(a2, b2) == oracle_dtw(a2, b2)


def corner_to_corner(ca, sa, sb, phi, gap):
    """Two boxes whose footprint corners point at each other along phi, with
    centers gap apart: at gap = r_a + r_b the corners touch."""
    cb = np.asarray(ca, dtype=float) + [gap * math.cos(phi), gap * math.sin(phi), 0.0]
    a = OrientedBox3(ca, sa, yaw=phi - math.atan2(sa[1], sa[0]), label="a", score=1.0)
    b = OrientedBox3(cb, sb, yaw=phi + math.pi - math.atan2(sb[1], sb[0]), label="a")
    return a, b


def footprint_radius(box):
    return 0.5 * math.hypot(box.size[0], box.size[1])


# corner-to-corner pairs whose centers lie farther apart than the sum of the
# footprint radii, yet whose clipped polygons keep a sliver (iou3d ~1e-16)
SLIVER_PAIRS = [
    ([-2.802272475007601, -2.429973862504987, -4.64623564809009],
     [1.1289019851380877, 2.6080965861726306, 0.7714811588934074],
     [-5.173901617077526, -4.033958893291308, -4.64623564809009],
     [2.8383214742249594, 0.5128606273542093, 2.178219373835258],
     2.573950415817096, 0.4158946528245089),
    ([4.295829986764952, 2.007642266317826, -1.492778157170215],
     [2.2418868398737857, 1.337670894761471, 1.7036480158781875],
     [5.19279000670983, 0.023063579089011244, -1.492778157170215],
     [1.079268798845535, 1.3713213805476439, 2.735246686094475],
     -1.6842783225929159, 1.0912679815896982),
    ([-3.315970987740312, 0.3457972734581407, 3.8276281577613336],
     [2.474268471466127, 1.5416788617268233, 0.4382861469277832],
     [-5.774716267049309, -0.27222843208676295, 3.8276281577613336],
     [1.2857149971704374, 1.729677555314172, 2.839786031829421],
     2.8306283371345344, -0.6853234904421618),
]


def iou_matrix(preds, gts):
    return radiant.metrics._iou_matrix(BoxBatch.of(preds), BoxBatch.of(gts))


class TestIouPrefilter:
    def test_margin_keeps_circle_disjoint_slivers(self):
        for ca, sa, cb, sb, yaw_a, yaw_b in SLIVER_PAIRS:
            a = OrientedBox3(ca, sa, yaw=yaw_a, label="a", score=1.0)
            b = OrientedBox3(cb, sb, yaw=yaw_b, label="a")
            gap = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
            assert gap > footprint_radius(a) + footprint_radius(b)
            assert iou3d(a, b) > 0.0
            assert iou_matrix([a], [b])[0, 0] == iou3d(a, b)

    def test_dropped_pairs_have_zero_iou(self):
        """Corner-to-corner pairs at and around the tangent of the footprint
        circles, some with z-intervals that only touch, laid out 20 m apart:
        the prefiltered matrix equals iou3d on every pair, so every dropped
        pair is exactly 0."""
        rng = np.random.default_rng(11)
        preds, gts = [], []
        for i in range(400):
            sa, sb = rng.uniform(0.3, 3.0, 3), rng.uniform(0.3, 3.0, 3)
            reach = 0.5 * (math.hypot(sa[0], sa[1]) + math.hypot(sb[0], sb[1]))
            rel = rng.integers(-4, 5) * 2.0**-52 if i % 2 else rng.uniform(-2e-9, 4e-9)
            a, b = corner_to_corner([20.0 * i, 0.0, 0.0], sa, sb,
                                    rng.uniform(-math.pi, math.pi), reach * (1.0 + rel))
            if i % 5 == 0:  # z-intervals touching end to end
                b.center[2] = (sa[2] + sb[2]) / 2.0
            preds.append(a)
            gts.append(b)
        got = iou_matrix(preds, gts)
        want = np.array([iou3d(p, g) for p, g in zip(preds, gts)])
        assert np.array_equal(np.diag(got), want)
        assert np.count_nonzero(got) == np.count_nonzero(want)
        assert (want > 0).any() and (want == 0).any()


class TestBroadcastPoseErrors:
    def test_matches_pairs_and_reference(self):
        rng = np.random.default_rng(12)
        preds = [PoseRecord(random_rotation(rng), rng.normal(size=3)) for _ in range(7)]
        gts = [PoseRecord(random_rotation(rng), rng.normal(size=3)) for _ in range(5)]
        stack = radiant.metrics._PoseStack
        p = stack(np.array([x.rotation for x in preds])[:, None],
                  np.array([x.translation for x in preds])[:, None])
        g = stack(np.array([x.rotation for x in gts])[None],
                  np.array([x.translation for x in gts])[None])
        for axis in (None, np.array([0.0, 1.0, 0.0]), np.array([0.6, 0.0, 0.8])):
            deg, cm = pose_errors(p, g, axis)
            assert deg.shape == cm.shape == (7, 5)
            for i, pi in enumerate(preds):
                for j, gj in enumerate(gts):
                    pair = pose_errors(pi, gj, axis)
                    assert type(pair[0]) is float and type(pair[1]) is float
                    assert deg[i, j] == pytest.approx(pair[0], abs=1e-12)
                    assert cm[i, j] == pytest.approx(pair[1], abs=1e-12)
                    ref = oracle_pose_errors(pi, gj, axis)
                    assert pair[0] == pytest.approx(ref[0], abs=1e-9)
                    assert pair[1] == pytest.approx(ref[1], abs=1e-9)


class TestTracedNames:
    def test_matching_calls_module_level_kernels(self, monkeypatch):
        """The benchmark's tracer wraps these names on radiant.metrics; each
        must still be looked up there by the function that uses it."""
        counts = {}
        for name in ("iou3d", "pose_errors", "dtw_distance"):
            original = getattr(radiant.metrics, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(radiant.metrics, name, counted)
        boxes, gts = random_box_sets(0)
        detection_ap_at(boxes, gts, 0.25)
        poses, pose_gts = random_pose_sets(0)
        pose_ap_at(poses, pose_gts, 10, 10)
        path = np.array([[0.0, 0, 0], [1, 0, 0]])
        nav_metrics(Trajectory(path, path, goal=(1, 0, 0)))
        assert counts.get("iou3d", 0) >= 1
        assert counts.get("pose_errors", 0) >= 1
        assert counts.get("dtw_distance", 0) >= 1


def dense_greedy_match(pref, ok):
    """The matcher as first written: a dense argmax over each row's allowed
    columns, the taken column blanked out after each match."""
    avail = np.where(ok, pref, -np.inf)
    matched = np.zeros(len(avail), dtype=bool)
    if not ok.any():
        return matched
    for i, row in enumerate(avail):
        j = int(np.argmax(row))
        if row[j] > -np.inf:
            matched[i] = True
            avail[:, j] = -np.inf
    return matched


class TestGreedyMatch:
    def test_candidate_walk_equals_dense_argmax(self):
        rng = np.random.default_rng(21)
        for trial in range(3000):
            p, g = rng.integers(0, 9, 2)
            # few distinct values: ties within rows and columns
            pref = rng.integers(-3, 4, (p, g)) * [1.0, 0.5][trial % 2]
            if trial % 3 == 0:
                pref = -pref + 0.0  # -0.0 ties with 0.0
            ok = rng.random((p, g)) < rng.choice([0.0, 0.2, 0.6, 1.0])
            if p and trial % 5 == 0:
                ok[rng.integers(0, p)] = False  # a row with no candidate
            got = radiant.metrics._greedy_match(pref, ok)
            assert got.dtype == bool and got.shape == (p,)
            assert np.array_equal(got, dense_greedy_match(pref, ok)), (pref, ok)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 5)])
    def test_no_candidates(self, shape):
        got = radiant.metrics._greedy_match(np.ones(shape), np.zeros(shape, dtype=bool))
        assert got.shape == shape[:1] and not got.any()

    def test_first_column_wins_ties(self):
        pref = np.array([[0.5, 0.7, 0.7], [0.7, 0.7, 0.1], [0.9, 0.9, 0.9]])
        ok = np.ones((3, 3), dtype=bool)
        assert radiant.metrics._greedy_match(pref, ok).tolist() == [True, True, True]
        assert dense_greedy_match(pref, ok).tolist() == [True, True, True]
        # row 0 takes column 1, row 1 column 0, row 2 what is left
        ok[2, 2] = False
        assert radiant.metrics._greedy_match(pref, ok).tolist() == [True, True, False]


def corners2d_per_box(box):
    """OrientedBox3.corners2d as first written, one box at a time."""
    hx, hy = box.size[0] / 2.0, box.size[1] / 2.0
    local = np.array([[-hx, -hy], [hx, -hy], [hx, hy], [-hx, hy]])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return local @ np.array([[c, -s], [s, c]]).T + box.center[:2]


class TestBatchedCorners:
    def test_bit_equal_to_corners2d(self):
        """The corners of a batch, made by one stacked product, against each
        box's own corners2d() and the per-box formula, at the yaws where the
        sine or cosine is 0 or 1 and at coordinates near 1e3."""
        rng = np.random.default_rng(22)
        edges = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, math.nextafter(-math.pi, 0.0),
                 math.pi / 4, 3.0]
        yaws = edges + list(rng.uniform(-math.pi, math.pi, 400))
        boxes = []
        for i, yaw in enumerate(yaws):
            scale = 1e3 if i % 2 else 1.0
            center = rng.uniform(-1, 1, 3) * scale + (1e3 if i % 3 == 0 else 0.0)
            boxes.append(OrientedBox3(center, rng.uniform(0.01, 10, 3), yaw=float(yaw)))
        batch = BoxBatch.of(boxes)
        corners = radiant.metrics._corners2d(batch.centers, batch.sizes, batch.yaws.tolist())
        assert corners.shape == (len(boxes), 4, 2)
        for box, got in zip(boxes, corners):
            assert np.array_equal(got, box.corners2d())
            assert np.array_equal(got, corners2d_per_box(box))

    def test_prisms_hold_what_iou3d_computed(self):
        rng = np.random.default_rng(23)
        boxes = [OrientedBox3(rng.uniform(-5, 5, 3), rng.uniform(0.1, 3, 3),
                              yaw=float(rng.uniform(-4, 4))) for _ in range(50)]
        batch = BoxBatch.of(boxes)
        for box, (corners, z_lo, z_hi, volume) in zip(
                boxes, radiant.metrics._prisms(batch.centers, batch.sizes, batch.yaws.tolist())):
            assert corners == corners2d_per_box(box).tolist()
            assert z_lo == float(box.center[2]) - float(box.size[2]) / 2.0
            assert z_hi == float(box.center[2]) + float(box.size[2]) / 2.0
            assert volume == box.volume


def oracle_by_label(oracle, preds, gts, *args):
    """The oracle run on each label's own predictions and ground truth."""
    labels = sorted({x.label for x in [*preds, *gts]})
    return {label: oracle([p for p in preds if p.label == label],
                          [g for g in gts if g.label == label], *args)
            for label in labels}


class TestOnePassAgainstOracles:
    """One detection_ap/pose_ap call gives, at every threshold and in the
    order given, the overall result the oracle gives on all predictions and
    each label's result the oracle gives on that label's lists alone."""

    @pytest.mark.parametrize("seed", range(15))
    def test_detection(self, seed):
        preds, gts = random_box_sets(seed)
        # an IoU of the data as a threshold: that pair matches at it
        edge = next(v for p in preds for g in gts
                    if p.label == g.label and 0.0 < (v := iou3d(p, g)) < 1.0)
        thresholds = [0.5, 0.05, edge, 0.7, 0.25]
        results = detection_ap(preds, gts, thresholds)
        assert len(results) == len(thresholds)
        for thresh, r in zip(thresholds, results):
            assert (r.ap, r.recall) == oracle_detection_ap(preds, gts, thresh)
            assert r.per_class == oracle_by_label(oracle_detection_ap, preds, gts, thresh)

    @pytest.mark.parametrize("seed", range(15))
    def test_pose(self, seed):
        preds, gts = random_pose_sets(seed)
        # errors of the data as thresholds: that pair does not match at them
        deg0, cm0 = pose_errors(preds[0], next(g for g in gts if g.label == preds[0].label))
        thresholds = [(10, 10), (5, 5), (180, 100), (deg0, 100), (180, cm0), (5, 10)]
        for axes in (None, SYM_AXES):
            results = pose_ap(preds, gts, thresholds, axes)
            assert len(results) == len(thresholds)
            for (deg, cm), r in zip(thresholds, results):
                assert r.ap == oracle_pose_ap(preds, gts, deg, cm, axes)
                assert r.per_class == oracle_by_label(oracle_pose_ap, preds, gts, deg, cm, axes)

    def test_one_sided_labels_report_zero(self):
        box = OrientedBox3((0, 0, 0), (1, 1, 1), label="gt_only")
        pred = OrientedBox3((0, 0, 0), (1, 1, 1), label="pred_only", score=0.5)
        (r,) = detection_ap([pred], [box], [0.5])
        assert r == (0.0, 0.0, {"gt_only": (0.0, 0.0), "pred_only": (0.0, 0.0)})
        pose = PoseRecord(np.eye(3), (0, 0, 0), label="gt_only")
        guess = PoseRecord(np.eye(3), (0, 0, 0), label="pred_only", score=0.5)
        (r,) = pose_ap([guess], [pose], [(5, 5)])
        assert r == (0.0, {"gt_only": 0.0, "pred_only": 0.0})
        assert detection_ap([], [], [0.25, 0.5]) == [(0.0, 0.0, {})] * 2
        assert pose_ap([], [], [(5, 5)]) == [(0.0, {})]

    def test_every_threshold_is_checked(self):
        preds, gts = random_box_sets(0)
        for bad in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError):
                detection_ap(preds, gts, [0.5, bad])
        preds, gts = random_pose_sets(0)
        for bad in ((0, 5), (5, -1)):
            with pytest.raises(ValueError):
                pose_ap(preds, gts, [(5, 5), bad])


def oracle_clip_polygon(poly: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman step: clip poly against the half-plane left of a->b."""
    if len(poly) == 0:
        return poly
    edge = b - a
    rel = poly - a
    side = edge[0] * rel[:, 1] - edge[1] * rel[:, 0]  # >= 0: inside (CCW clip)
    out = []
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        pi, pj = poly[i], poly[j]
        si, sj = side[i], side[j]
        if si >= 0:
            out.append(pi)
        if (si >= 0) != (sj >= 0):
            t = si / (si - sj)
            out.append(pi + t * (pj - pi))
    return np.array(out) if out else np.zeros((0, 2))


def oracle_iou3d(a, b):
    """iou3d with the polygon area through np.roll and the volumes through
    np.prod, as it was first written, and the clip on numpy arrays."""
    poly, clip = a.corners2d(), b.corners2d()
    for i in range(4):
        poly = oracle_clip_polygon(poly, clip[i], clip[(i + 1) % 4])
        if len(poly) == 0:
            break
    inter_xy = 0.0
    if len(poly) >= 3:
        x, y = poly[:, 0], poly[:, 1]
        inter_xy = 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
    z_lo = max(a.center[2] - a.size[2] / 2.0, b.center[2] - b.size[2] / 2.0)
    z_hi = min(a.center[2] + a.size[2] / 2.0, b.center[2] + b.size[2] / 2.0)
    inter = inter_xy * max(0.0, z_hi - z_lo)
    union = float(np.prod(a.size)) + float(np.prod(b.size)) - inter
    return inter / union if union > 0 else 0.0


def test_iou3d_bit_identical_to_roll_and_prod_formula():
    rng = np.random.default_rng(31)
    nonzero = 0
    for _ in range(2000):
        a, b = (OrientedBox3(rng.uniform(-1, 1, 3), rng.uniform(0.2, 2.5, 3),
                             yaw=rng.uniform(-math.pi, math.pi)) for _ in range(2))
        v = iou3d(a, b)
        assert v == oracle_iou3d(a, b)
        nonzero += v > 0.0
    assert nonzero >= 1000


def touching_pairs(rng, n):
    """Box pairs whose footprints meet on their boundaries, where the clip's
    side tests land on 0: corners touching at the tangent of the footprint
    circles, edges shared exactly (axis-aligned, dyadic sizes) or up to
    rounding (a common yaw), and identical footprints."""
    for i in range(n):
        sa, sb = rng.uniform(0.3, 3.0, 3), rng.uniform(0.3, 3.0, 3)
        yaw = rng.uniform(-math.pi, math.pi)
        kind = i % 4
        if kind == 0:
            reach = 0.5 * (math.hypot(sa[0], sa[1]) + math.hypot(sb[0], sb[1]))
            yield corner_to_corner([0.0, 0.0, 0.0], sa, sb, yaw, reach)
        elif kind == 1:
            sa, sb = rng.integers(1, 12, 3) / 4.0, rng.integers(1, 12, 3) / 4.0
            shift = [(sa[0] + sb[0]) / 2.0, rng.integers(-4, 5) / 8.0, 0.0]
            yield OrientedBox3([0.0, 0.0, 0.0], sa), OrientedBox3(shift, sb)
        elif kind == 2:
            d = (sa[0] + sb[0]) / 2.0
            cb = [d * math.cos(yaw), d * math.sin(yaw), 0.0]
            yield OrientedBox3([0.0, 0.0, 0.0], sa, yaw=yaw), OrientedBox3(cb, sb, yaw=yaw)
        else:
            yield (OrientedBox3([0.0, 0.0, 0.0], sa, yaw=yaw),
                   OrientedBox3([0.0, 0.0, 0.5], [sa[0], sa[1], sb[2]], yaw=yaw))


def test_iou3d_bit_identical_to_numpy_clip():
    """iou3d clips in Python floats; on random pairs (the recipe above) and
    on touching ones every IoU equals the numpy clip's bit for bit."""
    rng = np.random.default_rng(31)
    pairs = [tuple(OrientedBox3(rng.uniform(-1, 1, 3), rng.uniform(0.2, 2.5, 3),
                                yaw=rng.uniform(-math.pi, math.pi)) for _ in range(2))
             for _ in range(20000)]
    pairs += touching_pairs(np.random.default_rng(32), 2000)
    values = [iou3d(a, b) for a, b in pairs]
    assert values == [oracle_iou3d(a, b) for a, b in pairs]
    touching = values[20000:]
    assert sum(v > 0.0 for v in touching) >= 500 and sum(v == 0.0 for v in touching) >= 200
