"""Projection-derived representations: top-down semantic maps from RGB-D,
center heatmaps with peak detection, image-feature lifting into a world
grid, triplane collapse, and batched point sampling of triplanes, image
features and parameter maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import Aabb, Intrinsics, MIN_DEPTH, Pose, as_points, backproject_pixels, project_points
from .errors import DimsMismatch, LabelOutOfRange, NonPositiveDepth, OutOfBounds
from .grids import VoxelGrid4D


@dataclass
class SemanticMapConfig:
    r: int = 40  # half extent in cells; the map is 2r x 2r
    cell_size: float = 0.1
    height_min: float = 0.1
    height_max: float = 1.8
    classes: int = 1

    def __post_init__(self):
        # each test is written so that NaN fails it
        for name, ok, rule in (("r", self.r >= 1, "at least 1"),
                               ("classes", self.classes >= 1, "at least 1"),
                               ("cell_size", 0 < self.cell_size < np.inf, "finite and positive"),
                               ("height_min", abs(self.height_min) < np.inf, "finite"),
                               ("height_max", abs(self.height_max) < np.inf, "finite")):
            if not ok:
                raise ValueError(f"semantic map {name} must be {rule}, got {getattr(self, name)}")


@dataclass
class SemanticMap:
    """Agent-centered 2r x 2r top-down map of per-class occupancy bits."""

    half_extent: int
    cell_size: float
    occupancy: np.ndarray  # (2r, 2r, K) bool

    def __post_init__(self):
        self.occupancy = np.asarray(self.occupancy, dtype=bool)
        r = self.half_extent
        if self.occupancy.shape[:2] != (2 * r, 2 * r):
            raise DimsMismatch(
                f"occupancy {self.occupancy.shape} does not match half extent {r}"
            )

    @property
    def classes(self) -> int:
        return self.occupancy.shape[2]


def build_semantic_map(
    depth: np.ndarray,
    semantics: np.ndarray,
    k: Intrinsics,
    pose: Pose,
    cfg: SemanticMapConfig,
) -> SemanticMap:
    """Backproject an RGB-D frame and bin obstacle pixels into the map.

    Pixels whose depth is not finite and positive are skipped. A pixel
    whose world height (z) falls inside [height_min, height_max] is an
    obstacle and sets the bit of its semantic class in its cell; everything
    else contributes free space.
    Cells beyond the map extent are dropped; the agent sits at cell (r, r).
    """
    depth = np.asarray(depth, dtype=np.float64)
    semantics = np.asarray(semantics)
    if depth.shape != semantics.shape:
        raise DimsMismatch(f"depth {depth.shape} vs semantics {semantics.shape}")
    r, k_classes = cfg.r, cfg.classes
    occupancy = np.zeros((2 * r, 2 * r, k_classes), dtype=bool)

    vv, uu = np.nonzero(np.isfinite(depth) & (depth > 0))
    if vv.size == 0:
        return SemanticMap(r, cfg.cell_size, occupancy)
    labels = semantics[vv, uu].astype(np.int64)
    if labels.min() < 0 or labels.max() >= k_classes:
        raise LabelOutOfRange(f"semantic labels outside [0, {k_classes})")
    world = backproject_pixels(
        k, pose, np.stack([uu, vv], axis=-1).astype(np.float64), depth[vv, uu]
    )

    obstacle = (world[:, 2] >= cfg.height_min) & (world[:, 2] <= cfg.height_max)
    rel = world[obstacle, :2] - pose.translation[:2]
    cells = np.floor(rel / cfg.cell_size + r).astype(np.int64)
    labels = labels[obstacle]
    in_map = np.all((cells >= 0) & (cells < 2 * r), axis=1)
    occupancy[cells[in_map, 0], cells[in_map, 1], labels[in_map]] = True
    return SemanticMap(r, cfg.cell_size, occupancy)


def splat_heatmap(centers, sigmas, dims) -> np.ndarray:
    """Max-combined Gaussian splats, one per center, value 1 at each center.

    centers are (u, v) pixel coordinates, dims is (H, W).
    """
    h, w = dims
    sigmas = np.asarray(sigmas, dtype=np.float64).ravel()
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if centers.shape[0] != sigmas.size:
        raise ValueError("need one sigma per center")
    if np.any(sigmas <= 0):
        raise ValueError("sigmas must be positive")
    ys, xs = np.mgrid[0:h, 0:w]
    out = np.zeros((h, w))
    for (cu, cv), sig in zip(centers, sigmas):
        d2 = (xs - cu) ** 2 + (ys - cv) ** 2
        np.maximum(out, np.exp(-d2 / (2.0 * sig * sig)), out=out)
    return out


def detect_peaks(heatmap: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    """3x3 non-maximum suppression: pixels equal to their neighborhood max
    and strictly above the threshold. Cells outside the map count as -inf.

    Within each 3x3 window, plateau ties keep the lexicographically smallest
    (u, v). Results are sorted by descending score (ties again by (u, v)).
    A heatmap holding NaN raises ValueError: NaN has no place in an order,
    so a NaN cell would make its neighborhood max undefined.
    """
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("threshold must lie in [0, 1]")
    h = np.asarray(heatmap, dtype=np.float64)
    if np.isnan(h).any():
        raise ValueError("heatmap holds NaN")
    rows, cols = h.shape
    padded = np.pad(h, 1, constant_values=-np.inf)
    # the 3x3 max, separably: over each 3-row window, then each 3-column one
    rows_max = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
    local_max = np.maximum(np.maximum(rows_max[:, :-2], rows_max[:, 1:-1]), rows_max[:, 2:])
    is_peak = (h == local_max) & (h > threshold)

    # kill plateau pixels that see an equal-valued, lexicographically smaller
    # (u, v) inside their window: offsets with du < 0, or du == 0 and dv < 0
    for du, dv in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):
        neighbor = padded[1 + dv : 1 + dv + rows, 1 + du : 1 + du + cols]
        is_peak &= neighbor != h

    vs, us = np.nonzero(is_peak)
    peaks = [(int(u), int(v), float(h[v, u])) for u, v in zip(us, vs)]
    peaks.sort(key=lambda t: (-t[2], t[0], t[1]))
    return peaks


def sample_param_map(param_map: np.ndarray, centers) -> np.ndarray:
    """Parameter vectors at (N, 2) centers (u, v), each read at its nearest
    integer pixel: (N, C) float64 for an (H, W, C) map. Raises OutOfBounds
    naming the first center outside the map."""
    pm = np.asarray(param_map)
    rows, cols = pm.shape[:2]
    uv = as_points(centers, 2)
    u, v = np.floor(uv + 0.5).T
    outside = ~((0 <= u) & (u < cols) & (0 <= v) & (v < rows))
    if outside.any():
        cu, cv = uv[outside.argmax()]
        raise OutOfBounds(f"center ({cu:g}, {cv:g}) outside {cols}x{rows}")
    return pm[v.astype(np.int64), u.astype(np.int64)].astype(np.float64)


def bilinear_image(fmap: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Bilinear samples of an (H, W, C) map at continuous pixel coords,
    clamped to the pixel-center lattice."""
    fmap = np.asarray(fmap, dtype=np.float64)
    rows, cols = fmap.shape[:2]
    uv = np.atleast_2d(np.asarray(uv, dtype=np.float64))
    x = np.clip(uv[:, 0], 0.0, cols - 1.0)
    y = np.clip(uv[:, 1], 0.0, rows - 1.0)
    x0 = np.minimum(np.floor(x).astype(np.int64), max(cols - 2, 0))
    y0 = np.minimum(np.floor(y).astype(np.int64), max(rows - 2, 0))
    x1 = np.minimum(x0 + 1, cols - 1)
    y1 = np.minimum(y0 + 1, rows - 1)
    fx = (x - x0)[:, None]
    fy = (y - y0)[:, None]
    top = fmap[y0, x0] * (1 - fx) + fmap[y0, x1] * fx
    bot = fmap[y1, x0] * (1 - fx) + fmap[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def _image_features(fmap: np.ndarray, uv: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """(N, C) bilinear features at the (N, 2) pixel coords that are valid
    and inside fmap's pixel-center lattice; zeros elsewhere."""
    rows, cols = fmap.shape[:2]
    u, v = uv.T
    valid = valid & (u >= 0.0) & (u <= cols - 1.0) & (v >= 0.0) & (v <= rows - 1.0)
    out = np.zeros((len(uv), fmap.shape[2]))
    out[valid] = bilinear_image(fmap, uv[valid])
    return out


def lift_features_to_grid(
    feature_map: np.ndarray,
    k: Intrinsics,
    pose: Pose,
    dims,
    bounds: Aabb,
) -> VoxelGrid4D:
    """Project every grid cell center into the image and store the bilinear
    feature there; cells behind the camera or outside the image get zeros.
    All cells along one camera ray therefore share the ray's feature."""
    fmap = np.asarray(feature_map, dtype=np.float64)
    vol = VoxelGrid4D.zeros(dims, fmap.shape[2], bounds)
    uv, z = project_points(k, pose, vol.voxel_centers())
    vol.data = _image_features(fmap, uv, z > MIN_DEPTH).reshape(vol.data.shape)
    return vol


@dataclass
class TriplaneSet:
    """Three axis-aligned feature planes over shared world bounds."""

    s_xy: np.ndarray
    s_xz: np.ndarray
    s_yz: np.ndarray
    bounds: Aabb
    dims: tuple[int, int, int]

    def __post_init__(self):
        x, y, z = self.dims
        expected = {(x, y), (x, z), (y, z)}
        got = {self.s_xy.shape[:2], self.s_xz.shape[:2], self.s_yz.shape[:2]}
        if got != expected:
            raise DimsMismatch(f"plane shapes {got} do not match dims {self.dims}")


def collapse_to_triplanes(v: VoxelGrid4D) -> TriplaneSet:
    """Mean-collapse the volume along z, y and x into the xy, xz and yz
    planes (uniform weights stand in for learned softmax aggregation)."""
    return TriplaneSet(
        s_xy=v.data.mean(axis=2),
        s_xz=v.data.mean(axis=1),
        s_yz=v.data.mean(axis=0),
        bounds=v.bounds,
        dims=v.dims,
    )


def sample_triplane(s: TriplaneSet, pts) -> np.ndarray:
    """Orthogonally project (N, 3) points into each plane, sample bilinearly,
    and concatenate in xy, xz, yz order: (N, 3C). Points outside the bounds
    clamp."""
    cell = s.bounds.extent / np.array(s.dims, dtype=np.float64)
    c = (as_points(pts) - s.bounds.min) / cell - 0.5
    # plane[i, j] is pixel (u, v) = (i, j) of the transposed plane
    planes = ((s.s_xy, [0, 1]), (s.s_xz, [0, 2]), (s.s_yz, [1, 2]))
    return np.concatenate([bilinear_image(p.swapaxes(0, 1), c[:, axes]) for p, axes in planes],
                          axis=1)


def sample_image_feature(feature_map: np.ndarray, k: Intrinsics, pose: Pose, pts) -> np.ndarray:
    """Bilinear image features at the projections of (N, 3) world points:
    (N, C), zeros for points that project outside the image. Raises
    NonPositiveDepth if any point is at or behind the camera."""
    fmap = np.asarray(feature_map, dtype=np.float64)
    uv, z = project_points(k, pose, as_points(pts))
    behind = z <= MIN_DEPTH
    if behind.any():
        raise NonPositiveDepth(f"depth {z[behind][0]:g} is not positive")
    return _image_features(fmap, uv, ~behind)
