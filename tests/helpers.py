"""Writers and decoders the tests use to build and read back inputs: the
JSON forms of the records io reads, the NFVG encodings of heatmaps and
semantic maps, and the geodesic angle of a rotation."""

import math

import numpy as np

from radiant.core_math import Aabb, Intrinsics, Pose
from radiant.errors import FileFormatError
from radiant.grids import VoxelGrid4D
from radiant.metrics import OrientedBox3, PoseRecord
from radiant.projmaps import SemanticMap


def grid_to_semantic_map(grid: VoxelGrid4D) -> SemanticMap:
    """Decode io.semantic_map_to_grid's layout."""
    x, y, z = grid.dims
    if z != 1 or x != y or x % 2:
        raise FileFormatError(f"not a semantic-map grid: dims {grid.dims}")
    r = x // 2
    cell_size = float(grid.bounds.extent[0]) / x
    return SemanticMap(r, cell_size, grid.data[:, :, 0, :] != 0.0)


def heatmap_to_grid(heatmap: np.ndarray) -> VoxelGrid4D:
    """Encode an (H, W) heatmap as a single-channel grid with dims (H, W, 1)
    and pixel-extent bounds."""
    h = np.asarray(heatmap, dtype=np.float64)
    rows, cols = h.shape
    bounds = Aabb([0.0, 0.0, 0.0], [float(rows), float(cols), 1.0])
    return VoxelGrid4D(h[:, :, None, None], bounds)


def grid_to_heatmap(grid: VoxelGrid4D) -> np.ndarray:
    x, y, z = grid.dims
    if z != 1 or grid.channels != 1:
        raise FileFormatError(f"not a heatmap grid: dims {grid.dims}, "
                              f"channels {grid.channels}")
    return grid.data[:, :, 0, 0]


def intrinsics_to_json(k: Intrinsics) -> dict:
    return {
        "fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy,
        "width": k.width, "height": k.height,
    }


def pose_to_json(p: Pose) -> dict:
    return {
        "rotation": [float(v) for v in p.rotation.reshape(-1)],  # row-major
        "translation": [float(v) for v in p.translation],
    }


def box_to_json(b: OrientedBox3) -> dict:
    out = {
        "center": [float(v) for v in b.center],
        "size": [float(v) for v in b.size],
        "yaw": float(b.yaw),
        "class": b.label,
    }
    if b.score is not None:
        out["score"] = float(b.score)
    return out


def pose_record_to_json(p: PoseRecord) -> dict:
    out = {
        "rotation": [float(v) for v in p.rotation.reshape(-1)],
        "translation": [float(v) for v in p.translation],
        "scale": float(p.scale),
        "class": p.label,
    }
    if p.score is not None:
        out["score"] = float(p.score)
    return out


def geodesic_angle(r1, r2=None) -> float:
    """Angle (radians) of r1 @ r2^T, or of r1 alone when r2 is None."""
    m = np.asarray(r1, dtype=np.float64)
    if r2 is not None:
        m = m @ np.asarray(r2, dtype=np.float64).T
    c = (np.trace(m) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))
