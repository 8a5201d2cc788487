"""Extraction of explicit RGBA voxel grids from radiance fields.

Each voxel center is queried once per direction, or once in all for a field
that is not view dependent; the density is converted to opacity with the
preset spacing (alpha = 1 - exp(-sigma * 0.01)) and all four channels are
averaged over the direction set. Scene bounds come from the enlarged AABB
of cameras and object boxes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core_math import Aabb, Pose, normalize
from .errors import EmptyScene
from .fields import RadianceField
from .grids import ALPHA_DELTA, VoxelGrid4D, sigma_to_alpha, trilinear
from .metrics import OrientedBox3

# Default direction set when no cameras drive the averaging: the six axes.
AXIS_DIRECTIONS = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
    ]
)

# Voxels per field query in sample_grid: bounds its per-chunk arrays and
# keeps each chunk's columns (256 KB) in cache; a 64^3 gaussian grid samples
# in 13 ms, against 29 ms as one 2^18-voxel chunk (2-core x86 host).
CHUNK_VOXELS = 1 << 15


def compute_scene_bounds(
    cameras: Sequence[Pose],
    boxes: Sequence[OrientedBox3] = (),
    margin: float = 0.1,
) -> Aabb:
    """AABB of all camera centers and box corners, each side pushed out by
    margin * (max - min) per axis. Degenerate (zero-volume) results are
    rejected."""
    pts = [p.translation for p in cameras]
    for box in boxes:
        pts.extend(box.corners())
    if not pts:
        raise EmptyScene("need at least one camera or box")
    pts = np.asarray(pts)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = margin * (hi - lo)
    lo, hi = lo - pad, hi + pad
    if not np.all(lo < hi):
        raise EmptyScene("scene bounds have zero volume")
    return Aabb(lo, hi)


def sample_grid(
    field: RadianceField,
    bounds: Aabb,
    dims,
    directions,
    delta: float = ALPHA_DELTA,
) -> VoxelGrid4D:
    """Average (r, g, b, alpha) over the direction set, an (N >= 1, 3) array
    of view directions, at every voxel center.

    Voxels are processed in chunks of CHUNK_VOXELS, each with its own
    centers, so the working set beside the output grid is a few chunk-sized
    arrays; chunking does not change the output (each voxel is
    independent).
    """
    directions = np.asarray(directions, dtype=np.float64)
    if directions.ndim != 2 or directions.shape[0] < 1 or directions.shape[1] != 3:
        raise ValueError(f"need (N >= 1, 3) directions, got shape {directions.shape}")
    directions = normalize(directions)
    if not 0 < delta < np.inf:  # NaN fails too
        raise ValueError(f"delta must be finite and positive, got {delta}")
    grid = VoxelGrid4D.zeros(dims, 4, bounds)
    out = grid.data.reshape(-1, 4)
    for lo in range(0, out.shape[0], CHUNK_VOXELS):
        hi = min(lo + CHUNK_VOXELS, out.shape[0])
        pts = grid.voxel_centers(lo, hi)
        # the sums start from zeros (so -0.0 values sum to +0.0) and take
        # one add per direction, in direction order
        color_sum, alpha_sum = np.zeros((hi - lo, 3)), np.zeros(hi - lo)
        for i, d in enumerate(directions):
            # a view-independent field is evaluated for the first direction
            # only; adding its values once per direction keeps the sum's bytes
            if i == 0 or field.view_dependent:
                colors, sigmas = field.eval(pts, np.tile(d, (hi - lo, 1)))
                alpha = sigma_to_alpha(np.asarray(sigmas, dtype=np.float64), delta)
            color_sum += colors
            alpha_sum += alpha
        color_sum /= directions.shape[0]
        alpha_sum /= directions.shape[0]
        out[lo:hi, :3], out[lo:hi, 3] = color_sum, alpha_sum
    return grid


def resample_grid(g: VoxelGrid4D, new_dims) -> VoxelGrid4D:
    """Trilinear resampling with the align-corners convention: the first and
    last voxel centers of every axis coincide with the source grid's."""
    new_dims = tuple(int(n) for n in new_dims)
    if any(n < 2 for n in new_dims):
        raise ValueError("each target dimension must be at least 2")
    old = g.dims
    axes = [
        np.linspace(0.0, old[i] - 1.0, new_dims[i]) if old[i] > 1 else np.zeros(new_dims[i])
        for i in range(3)
    ]
    cx, cy, cz = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([cx, cy, cz], axis=-1).reshape(-1, 3)
    data = trilinear(g.data, coords).reshape(*new_dims, g.channels)
    return VoxelGrid4D(data, g.bounds)
