"""Evaluation metrics: Chamfer distance, yaw-box IoU and detection AP,
category-level pose errors/AP with symmetry handling, voxel-label metrics,
and navigation metrics (SR / SPL / nDTW / TL / NE).

Definitions implemented here:
  * chamfer(A, B) = mean_A min ||a-b||^2 + mean_B min ||b-a||^2
  * box IoU = exact convex xy-polygon intersection x z-interval overlap
  * AP = area under the all-point interpolated precision-recall curve with
    greedy score-descending one-to-one matching within each label; one
    matching pass gives every threshold's overall and per-label AP
  * pose error = geodesic rotation angle (minimized over rotations about the
    symmetry axis when one is given) and Euclidean translation error in cm
  * SPL = SR * L / max(P, L); nDTW = exp(-DTW / (|ref| * threshold))
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core_math import as_vec3, check_rotation, skew
from .errors import DimsMismatch, EmptyPath, EmptySet, LabelOutOfRange

# scipy.spatial takes ~0.3 s to import and only chamfer uses it, so it is
# registered with importlib's LazyLoader: its code (and the scipy package's)
# runs on the first attribute access. The spec is looked up on scipy's path,
# which finds it without running scipy. A scipy.spatial imported earlier is
# used as it is; a LazyLoader on its spec would run it a second time.
_spatial = sys.modules.get("scipy.spatial")
if _spatial is None:
    _scipy = importlib.util.find_spec("scipy")
    if _scipy is None:
        raise ModuleNotFoundError("radiant needs scipy", name="scipy")
    _spec = importlib.machinery.PathFinder.find_spec(
        "scipy.spatial", _scipy.submodule_search_locations)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _spatial = sys.modules["scipy.spatial"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_spatial)


def wrap_yaw(yaw: float) -> float:
    """yaw in (-pi, pi]: a yaw outside maps to atan2(sin, cos)."""
    return yaw if -math.pi < yaw <= math.pi else math.atan2(math.sin(yaw), math.cos(yaw))


@dataclass
class OrientedBox3:
    """3D box with yaw-only rotation about world z.

    size is the full extent along the box axes; score is None for ground
    truth. Containment tests treat faces as inside (closed box).
    """

    center: np.ndarray
    size: np.ndarray
    yaw: float = 0.0
    label: str = ""
    score: Optional[float] = None

    def __post_init__(self):
        self.center = as_vec3(self.center)
        self.size = as_vec3(self.size)
        if not min(self.size.tolist()) > 0:
            raise ValueError("box size must be positive")
        self.yaw = wrap_yaw(self.yaw)

    @property
    def volume(self) -> float:
        return float(self.size[0] * self.size[1] * self.size[2])

    def corners2d(self) -> np.ndarray:
        """Footprint corners in xy, counter-clockwise, shape (4, 2)."""
        return _corners2d(self.center[None], self.size[None], [self.yaw])[0]

    def corners(self) -> np.ndarray:
        """All 8 corners, shape (8, 3)."""
        xy = self.corners2d()
        z0 = self.center[2] - self.size[2] / 2.0
        z1 = self.center[2] + self.size[2] / 2.0
        bottom = np.column_stack([xy, np.full(4, z0)])
        top = np.column_stack([xy, np.full(4, z1)])
        return np.vstack([bottom, top])

    def contains(self, pts) -> np.ndarray:
        """Mask of the (..., 3) points inside the box, of shape pts.shape[:-1]
        (a single (3,) point gives shape (1,))."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        d = pts - self.center
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        lx = c * d[..., 0] + s * d[..., 1]
        ly = -s * d[..., 0] + c * d[..., 1]
        half = self.size / 2.0
        return (
            (np.abs(lx) <= half[0])
            & (np.abs(ly) <= half[1])
            & (np.abs(d[..., 2]) <= half[2])
        )


_CORNER_SIGNS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def _corners2d(centers: np.ndarray, sizes: np.ndarray, yaws) -> np.ndarray:
    """(N, 4, 2) footprint corners of N boxes, counter-clockwise: one
    (4, 2) @ (2, 2) product a box, whose rounding (BLAS may fuse the
    multiply-adds) the IoU's bits depend on; cos and sin are math's."""
    cos, sin = [math.cos(y) for y in yaws], [math.sin(y) for y in yaws]
    rot = np.array([cos, np.negative(sin), sin, cos]).T.reshape(-1, 2, 2)
    local = _CORNER_SIGNS * (sizes[:, None, :2] / 2.0)
    return local @ rot.transpose(0, 2, 1) + centers[:, None, :2]


@dataclass
class PoseRecord:
    """Category-level object pose: rotation, translation (m), 1D scale."""

    rotation: np.ndarray
    translation: np.ndarray
    scale: float = 1.0
    label: str = ""
    score: Optional[float] = None

    def __post_init__(self):
        self.rotation = check_rotation(self.rotation)
        self.translation = as_vec3(self.translation)
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def _column(values, shape=()) -> np.ndarray:
    return np.array(values, dtype=np.float64).reshape((len(values),) + shape)


def _scores(records) -> np.ndarray:
    return _column([math.nan if r.score is None else r.score for r in records])


class _Batch:
    """Records as columns: every field is an array with one row per record,
    and len() is the record count."""

    def __len__(self) -> int:
        return len(self.scores)

    def take(self, rows):
        """The batch of the given rows (an index array)."""
        return type(self)(*(col[rows] for col in vars(self).values()))


@dataclass
class BoxBatch(_Batch):
    """N yaw boxes as columns: centers and sizes (N, 3), yaws (N,) in
    (-pi, pi], labels (N,) an object array of str, and scores (N,), NaN for
    a box without one. detection_ap reads boxes in this form."""

    centers: np.ndarray
    sizes: np.ndarray
    yaws: np.ndarray
    labels: np.ndarray
    scores: np.ndarray

    @classmethod
    def of(cls, boxes) -> "BoxBatch":
        """The batch of a sequence of OrientedBox3; a BoxBatch is returned
        as it is."""
        if isinstance(boxes, cls):
            return boxes
        return cls(_column([b.center for b in boxes], (3,)),
                   _column([b.size for b in boxes], (3,)), _column([b.yaw for b in boxes]),
                   np.array([b.label for b in boxes], dtype=object), _scores(boxes))


@dataclass
class PoseBatch(_Batch):
    """N poses as columns: rotations (N, 3, 3), translations (N, 3), scales,
    labels (an object array of str) and scores (NaN for a pose without one).
    pose_ap reads poses in this form."""

    rotations: np.ndarray
    translations: np.ndarray
    scales: np.ndarray
    labels: np.ndarray
    scores: np.ndarray

    @classmethod
    def of(cls, poses) -> "PoseBatch":
        """The batch of a sequence of PoseRecord; a PoseBatch is returned as
        it is."""
        if isinstance(poses, cls):
            return poses
        return cls(_column([p.rotation for p in poses], (3, 3)),
                   _column([p.translation for p in poses], (3,)),
                   _column([p.scale for p in poses]),
                   np.array([p.label for p in poses], dtype=object), _scores(poses))


@dataclass
class Trajectory:
    """Agent path against a reference path and a goal position."""

    positions: np.ndarray
    reference: np.ndarray
    goal: np.ndarray
    success_threshold: float = 3.0

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        self.reference = np.atleast_2d(np.asarray(self.reference, dtype=np.float64))
        self.goal = as_vec3(self.goal)
        if self.positions.size == 0 or self.reference.size == 0:
            raise EmptyPath("trajectory paths must be nonempty")


class NavMetrics(NamedTuple):
    sr: float
    spl: float
    ndtw: float
    tl: float
    ne: float


def chamfer(a, b) -> float:
    """Symmetric Chamfer distance: both directional means of squared
    nearest-neighbor distances, summed."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise EmptySet("chamfer needs two nonempty point sets")
    # nearest distances do not depend on the tree's shape, and an unbalanced
    # (sliding-midpoint) tree builds faster than a median-split one
    d_ab, _ = _spatial.cKDTree(b, balanced_tree=False).query(a)
    d_ba, _ = _spatial.cKDTree(a, balanced_tree=False).query(b)
    return float(np.mean(d_ab**2) + np.mean(d_ba**2))


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    # shoelace formula; x1, y1 hold each vertex's successor (cheaper than np.roll)
    x1, y1 = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    return 0.5 * abs(float(np.dot(x, y1) - np.dot(y, x1)))


def _clip_polygon(poly: list, a: Sequence[float], b: Sequence[float]) -> list:
    """Sutherland-Hodgman step: clip poly, a list of (x, y) float pairs,
    against the half-plane left of a->b. Python floats round each operation
    as numpy's elementwise float64 ops do, and cost less on a 4-gon."""
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    side = [ex * (y - ay) - ey * (x - ax) for x, y in poly]  # >= 0: inside (CCW clip)
    out = []
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        (xi, yi), (xj, yj) = poly[i], poly[j]
        si, sj = side[i], side[j]
        if si >= 0:
            out.append((xi, yi))
        if (si >= 0) != (sj >= 0):
            t = si / (si - sj)
            out.append((xi + t * (xj - xi), yi + t * (yj - yi)))
    return out


def _prisms(c: np.ndarray, s: np.ndarray, yaws) -> list[tuple]:
    """What iou3d reads of each box of centers c and sizes s: (footprint
    corners as a list of 4 [x, y] lists, bottom z, top z, volume)."""
    corners = _corners2d(c, s, yaws).tolist()
    z_lo, z_hi = (c[:, 2] - s[:, 2] / 2.0).tolist(), (c[:, 2] + s[:, 2] / 2.0).tolist()
    return list(zip(corners, z_lo, z_hi, (s[:, 0] * s[:, 1] * s[:, 2]).tolist()))


def iou3d(a, b) -> float:
    """Exact IoU of two yaw boxes: polygon clipping in xy times z overlap.

    a and b are two OrientedBox3, or two _prisms tuples (detection_ap makes
    each box's once). The corners (a matrix product) and the area (np.dot)
    stay numpy calls: their rounding defines the result's bits."""
    if isinstance(a, OrientedBox3):
        a, b = _prisms(np.array([a.center, b.center]), np.array([a.size, b.size]), [a.yaw, b.yaw])
    (poly, a_lo, a_hi, a_vol), (clip, b_lo, b_hi, b_vol) = a, b
    for i in range(4):
        poly = _clip_polygon(poly, clip[i], clip[(i + 1) % 4])
        if not poly:
            break
    inter = _polygon_area(np.array(poly)) * max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))
    union = a_vol + b_vol - inter
    return inter / union if union > 0 else 0.0


def _average_precision(tp_sorted: np.ndarray, n_gt: int) -> tuple[float, float]:
    """All-point interpolated AP and final recall from score-sorted TP flags."""
    if n_gt == 0 or tp_sorted.size == 0:
        return 0.0, 0.0
    tp_cum = np.cumsum(tp_sorted)
    recall = tp_cum / n_gt
    precision = tp_cum / np.arange(1, tp_sorted.size + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - prev) * envelope))
    return ap, float(recall[-1])


def _label_buckets(preds, gts) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Split predictions and ground truth (BoxBatch or PoseBatch) by label.

    Every label on either side gets a bucket (ranks, pred rows, gt rows), in
    sorted label order: ranks are the bucket's positions in the
    descending-score order of all predictions (stable on ties), pred rows
    index preds in that order and gt rows index gts in input order. A
    bucket with one side empty can match nothing.
    """
    if np.isnan(preds.scores).any():
        raise ValueError("every prediction needs a score")
    order = np.argsort(-preds.scores, kind="stable")
    labels, codes = np.unique(np.concatenate([preds.labels, gts.labels]), return_inverse=True)
    ranked, gt_codes = codes[order], codes[len(preds):]
    buckets = {}
    for k, label in enumerate(labels.tolist()):
        ranks = np.flatnonzero(ranked == k)
        buckets[label] = (ranks, order[ranks], np.flatnonzero(gt_codes == k))
    return buckets


def _ap_records(buckets: dict, tp: np.ndarray, n_gt: int) -> tuple[tuple[float, float], dict]:
    """Overall (AP, recall) from the TP flags of all predictions in
    descending-score order, and (AP, recall) per label from its own flags
    (the same order restricted to the label) and its own ground truth."""
    per_class = {label: _average_precision(tp[ranks], len(gt_rows))
                 for label, (ranks, _, gt_rows) in buckets.items()}
    return _average_precision(tp, n_gt), per_class


def _greedy_match(pref: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Greedy one-to-one matching of score-ordered rows to columns.

    Row by row, a row takes the unmatched column with the largest pref among
    those where ok holds, the first such column on ties. Returns a bool flag
    per row: whether it matched. Only the candidates (the cells where ok
    holds) are visited: sorted by row, then by descending pref, stably, so
    that the first column comes first on ties (np.nonzero lists a row's
    columns in order).
    """
    rows, cols = np.nonzero(ok)
    matched = np.zeros(len(ok), dtype=bool)
    order = np.lexsort((-pref[rows, cols], rows))
    taken = np.zeros(ok.shape[1], dtype=bool).tolist()
    done = -1
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if i != done and not taken[j]:
            taken[j] = True
            matched[i] = True
            done = i
    return matched


def _footprints(boxes: BoxBatch) -> tuple[np.ndarray, ...]:
    """Per box: x and y of the center, radius of the circle around the xy
    footprint, and the two ends of the z-interval."""
    c, s = boxes.centers, boxes.sizes
    return (c[:, 0], c[:, 1], 0.5 * np.hypot(s[:, 0], s[:, 1]),
            c[:, 2] - s[:, 2] / 2.0, c[:, 2] + s[:, 2] / 2.0)


def _iou_matrix(preds: BoxBatch, gts: BoxBatch) -> np.ndarray:
    """(P, G) IoU matrix that calls iou3d only on pairs that can overlap,
    on the _prisms of both batches, made once.

    A pair is dropped, and stays 0, when its z-intervals do not overlap (by
    iou3d's own z arithmetic) or its xy centers lie farther apart than the
    sum of the footprint radii. The 1e-9 relative margin keeps corner-to-
    corner pairs just past the tangent, where clipping still leaves a sliver
    (IoU ~1e-16).
    """
    px, py, pr, p_lo, p_hi = (v[:, None] for v in _footprints(preds))
    gx, gy, gr, g_lo, g_hi = _footprints(gts)
    near = np.hypot(px - gx, py - gy) <= (pr + gr) * (1.0 + 1e-9)
    keep = near & (np.minimum(p_hi, g_hi) - np.maximum(p_lo, g_lo) > 0.0)
    iou = np.zeros(keep.shape)
    rows, cols = np.nonzero(keep)
    if rows.size:
        a = _prisms(preds.centers, preds.sizes, preds.yaws.tolist())
        b = _prisms(gts.centers, gts.sizes, gts.yaws.tolist())
        for i, j in zip(rows.tolist(), cols.tolist()):
            iou[i, j] = iou3d(a[i], b[j])
    return iou


class DetectionAp(NamedTuple):
    """Detection result at one IoU threshold; per_class maps each label to
    its (AP, recall)."""

    ap: float
    recall: float
    per_class: dict


def detection_ap(preds, gts, iou_thresholds: Sequence[float]) -> list[DetectionAp]:
    """Detection AP and recall at each IoU threshold, overall and per label.

    preds and gts are BoxBatches or sequences of OrientedBox3 (converted
    once); every prediction needs a score.

    Predictions are matched greedily in descending score (stable on ties) to
    the unmatched same-label ground truth with the highest IoU, the first in
    input order on ties; a match requires IoU > 0 and IoU >= the threshold.

    Matching never crosses labels, so one pass serves every threshold and
    both views: each label's IoU matrix is built once, and at each threshold
    its TP flags give the label's AP and recall (against its own ground
    truth) and, placed by score rank among all predictions, the overall
    ones. A label with no ground truth or no predictions reports 0 and 0.
    One record per threshold, in the order given.
    """
    if not all(0.0 < t < 1.0 for t in iou_thresholds):
        raise ValueError("IoU thresholds must lie in (0, 1)")
    preds, gts = BoxBatch.of(preds), BoxBatch.of(gts)
    buckets = _label_buckets(preds, gts)
    ious = [(ranks, _iou_matrix(preds.take(p_rows), gts.take(g_rows)))
            for ranks, p_rows, g_rows in buckets.values() if p_rows.size and g_rows.size]
    results = []
    for thresh in iou_thresholds:
        tp = np.zeros(len(preds))
        for ranks, iou in ious:
            tp[ranks] = _greedy_match(iou, (iou > 0.0) & (iou >= thresh))
        (ap, recall), per_class = _ap_records(buckets, tp, len(gts))
        results.append(DetectionAp(ap, recall, per_class))
    return results


class _PoseStack(NamedTuple):
    """Rotations (..., 3, 3) and translations (..., 3) for pose_errors."""

    rotation: np.ndarray
    translation: np.ndarray


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum(x * y) over the last axis, added left to right: one pair and a
    broadcast stack round the same way."""
    prod = x * y
    total = prod[..., 0]
    for k in range(1, prod.shape[-1]):
        total = total + prod[..., k]
    return total


def _flat9(m: np.ndarray) -> np.ndarray:
    return m.reshape(m.shape[:-2] + (9,))


def pose_errors(pred, gt, symmetric_axis=None):
    """(rotation error in degrees, translation error in cm).

    With a symmetry axis the rotation error is minimized over all rotations
    about that axis inserted between the two poses, which makes it invariant
    to pre-multiplying either pose by any rotation about the axis.

    pred and gt are PoseRecords, or records whose rotation (..., 3, 3) and
    translation (..., 3) arrays broadcast against each other; errors then
    come back as arrays of the broadcast shape. A PoseRecord pair gives two
    floats.
    """
    r_pred, r_gt = pred.rotation, gt.rotation
    # m = R_gt R_pred^T; tr(m) is the Frobenius product of the two rotations
    trace = _dot(_flat9(r_gt), _flat9(r_pred))
    if symmetric_axis is None:
        best_trace = trace
    else:
        a = as_vec3(symmetric_axis)
        if abs(np.linalg.norm(a) - 1.0) > 1e-6:
            raise ValueError("symmetry axis must be unit length")
        # maximize tr(Rot(a, phi) @ m) = A cos(phi) + B sin(phi) + a.m.a with
        # a.m.a = (R_gt^T a).(R_pred^T a) and tr([a]x m) = <[a]x R_gt, R_pred>
        t_gt, t_pred = np.swapaxes(r_gt, -1, -2), np.swapaxes(r_pred, -1, -2)
        ama = _dot(_dot(a, t_gt), _dot(a, t_pred))
        k_gt = _dot(skew(a)[:, None, :], t_gt[..., None, :, :])
        big_b = _dot(_flat9(k_gt), _flat9(r_pred))
        best_trace = np.hypot(trace - ama, big_b) + ama
    c = (best_trace - 1.0) / 2.0
    deg = np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))
    d = pred.translation - gt.translation
    cm = np.sqrt(_dot(d, d)) * 100.0
    if np.ndim(deg) == 0 and np.ndim(cm) == 0:
        return float(deg), float(cm)
    return deg, cm


class PoseAp(NamedTuple):
    """Pose result at one (degrees, cm) pair; per_class maps each label to
    its AP."""

    ap: float
    per_class: dict


def pose_ap(
    preds,
    gts,
    thresholds: Sequence[tuple[float, float]],
    symmetric_axes: Optional[dict] = None,
) -> list[PoseAp]:
    """Pose AP at each (degrees, cm) threshold pair, overall and per label.

    preds and gts are PoseBatches or sequences of PoseRecord (converted
    once); every prediction needs a score.

    symmetric_axes maps class labels to their symmetry axis; matching is
    greedy in descending score (stable on ties), both errors must fall
    strictly below their thresholds, and among those the ground truth with
    the lexicographically smallest (degrees, cm) wins, the first in input
    order on ties.

    As in detection_ap, one pass serves every pair and both views: each
    label's pose errors and their (degrees, cm) ranking are computed once,
    and a label with no ground truth or no predictions reports 0. One
    record per pair, in the order given.
    """
    if any(deg <= 0 or cm <= 0 for deg, cm in thresholds):
        raise ValueError("thresholds must be positive")
    symmetric_axes = symmetric_axes or {}
    preds, gts = PoseBatch.of(preds), PoseBatch.of(gts)
    buckets = _label_buckets(preds, gts)
    errors = []
    for label, (ranks, p_rows, g_rows) in buckets.items():
        if not (p_rows.size and g_rows.size):
            continue
        pred = _PoseStack(preds.rotations[p_rows][:, None], preds.translations[p_rows][:, None])
        gt = _PoseStack(gts.rotations[g_rows][None], gts.translations[g_rows][None])
        deg, cm = pose_errors(pred, gt, symmetric_axes.get(label))
        # rank of (deg, cm, column) over the bucket: the smallest rank in a
        # row is its lexicographic minimum, the first column on ties
        rank = np.empty(deg.size)
        rank[np.lexsort((cm.ravel(), deg.ravel()))] = np.arange(deg.size)
        errors.append((ranks, deg, cm, -rank.reshape(deg.shape)))
    results = []
    for deg_thresh, cm_thresh in thresholds:
        tp = np.zeros(len(preds))
        for ranks, deg, cm, pref in errors:
            tp[ranks] = _greedy_match(pref, (deg < deg_thresh) & (cm < cm_thresh))
        (ap, _), per_class = _ap_records(buckets, tp, len(gts))
        results.append(PoseAp(ap, {label: c_ap for label, (c_ap, _) in per_class.items()}))
    return results


def voxel_label_metrics(pred, gt, n_classes: int) -> tuple[float, float, float]:
    """(mIoU, mAcc, Acc) for integer label grids.

    Per-class IoU and accuracy are averaged over the classes present in the
    ground truth; Acc is the overall fraction of correct voxels.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimsMismatch(f"{pred.shape} vs {gt.shape}")
    if gt.size == 0:
        raise DimsMismatch("label grids must be nonempty")
    for name, arr in (("pred", pred), ("gt", gt)):
        if not (arr.min() >= 0 and arr.max() < n_classes):
            raise LabelOutOfRange(f"{name} labels outside [0, {n_classes})")
    p = pred.ravel().astype(np.int64)
    g = gt.ravel().astype(np.int64)
    confusion = np.bincount(g * n_classes + p, minlength=n_classes * n_classes)
    confusion = confusion.reshape(n_classes, n_classes)
    tp = np.diag(confusion).astype(np.float64)
    gt_count = confusion.sum(axis=1).astype(np.float64)
    pred_count = confusion.sum(axis=0).astype(np.float64)
    present = gt_count > 0
    union = gt_count + pred_count - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = np.where(union > 0, tp / union, 0.0)
        acc_c = np.where(gt_count > 0, tp / gt_count, 0.0)
    m_iou = float(iou[present].mean())
    m_acc = float(acc_c[present].mean())
    acc = float(tp.sum() / max(g.size, 1))
    return m_iou, m_acc, acc


def _path_length(path: np.ndarray) -> float:
    if len(path) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(path, axis=0), axis=1).sum())


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Standard DTW with Euclidean point distance.

    The cost table is filled one anti-diagonal (i + j = k) at a time: a
    diagonal's cells depend only on the two before it. In the flattened
    (n + 1, m + 1) table a diagonal is a slice with step m, and its up, left
    and up-left neighbours are the same slice shifted.
    """
    if a.ndim != 2 or a.shape[1:] != b.shape[1:]:
        raise DimsMismatch(f"paths of points {a.shape} and {b.shape}")
    n, m = len(a), len(b)
    w = m + 1
    dists = np.zeros((n + 1, w))
    # the squared coordinate differences summed left to right, as
    # np.linalg.norm(a[:, None] - b[None], axis=-1) sums them
    sq, diff = dists[1:, 1:], np.empty((n, m))
    for k in range(a.shape[1]):
        np.subtract.outer(a[:, k], b[:, k], out=diff)
        diff *= diff
        sq += diff
    np.sqrt(sq, out=sq)
    dists = dists.ravel()
    cost = np.full((n + 1) * w, np.inf)
    cost[0] = 0.0
    buf = np.empty(min(n, m))
    for k in range(2, n + m + 1) if n and m else ():
        i0, i1 = max(1, k - m), min(n, k - 1)
        first, last = i0 * w + k - i0, i1 * w + k - i1
        cells = slice(first, last + 1, m)
        best = buf[: i1 - i0 + 1]
        # min(up, left, diag): ties are equal values, no cost is -0 or NaN,
        # so which one np.minimum keeps does not change the bits
        np.minimum(cost[first - 1 : last : m], cost[first - w : last - w + 1 : m], out=best)
        np.minimum(cost[first - w - 1 : last - w : m], best, out=best)
        np.add(dists[cells], best, out=cost[cells])
    return float(cost[-1])


def nav_metrics(t: Trajectory) -> NavMetrics:
    """Navigation episode metrics (SR, SPL, nDTW, TL, NE)."""
    ne = float(np.linalg.norm(t.positions[-1] - t.goal))
    sr = 1.0 if ne < t.success_threshold else 0.0
    tl = _path_length(t.positions)
    ref_len = _path_length(t.reference)
    denom = max(tl, ref_len)
    spl = sr if denom == 0.0 else sr * ref_len / denom
    dtw = dtw_distance(t.positions, t.reference)
    ndtw = math.exp(-dtw / (len(t.reference) * t.success_threshold))
    return NavMetrics(sr=sr, spl=spl, ndtw=ndtw, tl=tl, ne=ne)
