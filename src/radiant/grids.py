"""Dense voxel grids and trilinear interpolation helpers.

The 4D grid (X, Y, Z, channels) is the working representation for extracted
radiance/density volumes: channels are (r, g, b, alpha) with alpha stored,
not raw density. Data is float64 in memory; the NFVG file format stores f32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import Aabb
from .errors import DimsMismatch

# Preset sample spacing used to convert density to opacity (and back) when a
# grid stores alpha: alpha = 1 - exp(-sigma * ALPHA_DELTA).
ALPHA_DELTA = 0.01


@dataclass
class VoxelGrid4D:
    """Dense (X, Y, Z, C) grid with voxel centers mapped into `bounds`."""

    data: np.ndarray
    bounds: Aabb

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise ValueError(f"grid data must be 4D, got shape {self.data.shape}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[:3]

    @property
    def channels(self) -> int:
        return self.data.shape[3]

    @property
    def cell_size(self) -> np.ndarray:
        return self.bounds.extent / np.array(self.dims, dtype=np.float64)

    @classmethod
    def zeros(cls, dims, channels: int, bounds: Aabb) -> "VoxelGrid4D":
        x, y, z = dims
        return cls(np.zeros((x, y, z, channels)), bounds)

    def voxel_centers(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """World positions min + (i + 0.5) * cell of the voxel centers with
        flat x-major indices [start, stop) (all by default), shape
        (stop - start, 3): a view of the x-planes that hold the range."""
        x, y, z = self.dims
        stop = x * y * z if stop is None else stop
        plane = y * z
        x0, x1 = start // plane, -(-stop // plane)
        lo, cell = self.bounds.min, self.cell_size
        out = np.empty((x1 - x0, y, z, 3))
        out[..., 0] = (lo[0] + (np.arange(x0, x1) + 0.5) * cell[0])[:, None, None]
        out[..., 1] = (lo[1] + (np.arange(y) + 0.5) * cell[1])[:, None]
        out[..., 2] = lo[2] + (np.arange(z) + 0.5) * cell[2]
        return out.reshape(-1, 3)[start - x0 * plane:stop - x0 * plane]

    def world_to_grid(self, pts) -> np.ndarray:
        """Continuous voxel-center coordinates: centers land on integers."""
        pts = np.asarray(pts, dtype=np.float64)
        return (pts - self.bounds.min) / self.cell_size - 0.5

    def check_same_dims(self, other: "VoxelGrid4D"):
        if self.data.shape != other.data.shape:
            raise DimsMismatch(f"{self.data.shape} vs {other.data.shape}")


def trilinear(data: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of (X, Y, Z, C) data at continuous coords.

    Coordinates are in voxel-index space (integers hit stored values) and are
    clamped to the valid range, so queries between a boundary and the nearest
    center reuse the edge value. Coordinates within 1e-9 of an integer snap
    to it, which keeps voxel-center queries exact despite the world-to-grid
    division.
    """
    dims = np.array(data.shape[:3])
    c = np.clip(coords, 0.0, dims - 1.0)
    snapped = np.rint(c)
    c = np.where(np.abs(c - snapped) < 1e-9, snapped, c)
    i0 = np.floor(c).astype(np.int64)
    i0 = np.minimum(i0, dims - 2)  # keep i0+1 in range; exact upper edge ok
    i0 = np.maximum(i0, 0)
    f = c - i0

    if (dims == 1).any():
        # degenerate axes: only index 0 exists, force zero fraction there
        f = np.where(dims - 1 == 0, 0.0, f)
        i0 = np.minimum(i0, np.maximum(dims - 2, 0))

    # corners by row of the (X*Y*Z, C) view: the lower corner's row plus a
    # step per axis to the upper one (0 where the upper index is clamped)
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    base = i0 @ strides
    dx, dy, dz = ((np.minimum(i0 + 1, dims - 1) - i0) * strides).T
    flat = data.reshape(-1, data.shape[-1])

    def corner(step):
        return np.take(flat, base + step, axis=0).T  # (C, N): weights broadcast along N

    fx, fy, fz = f.T
    c00 = corner(0) * (1 - fx) + corner(dx) * fx
    c01 = corner(dz) * (1 - fx) + corner(dx + dz) * fx
    c10 = corner(dy) * (1 - fx) + corner(dx + dy) * fx
    c11 = corner(dy + dz) * (1 - fx) + corner(dx + dy + dz) * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return (c0 * (1 - fz) + c1 * fz).T


def sigma_to_alpha(sigma, delta):
    """Opacity of a segment of length delta at density sigma:
    alpha = 1 - exp(-sigma * delta)."""
    return -np.expm1(-sigma * delta)


def alpha_to_sigma(alpha, delta: float = ALPHA_DELTA):
    """Invert the extraction formula: sigma = -ln(1 - alpha) / delta."""
    with np.errstate(divide="ignore"):
        return -np.log1p(-np.asarray(alpha, dtype=np.float64)) / delta
