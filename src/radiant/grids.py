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

# points trilinear interpolates at a time: a block's (C, n) corner and lerp
# temporaries stay in cache
TRILINEAR_BLOCK = 1 << 12


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

    def check_same_dims(self, other: "VoxelGrid4D"):
        if self.data.shape != other.data.shape:
            raise DimsMismatch(f"{self.data.shape} vs {other.data.shape}")


def trilinear(data: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of (X, Y, Z, C) data at the continuous
    (3, N) coordinate rows, as a (C, N) array.

    Coordinates are in voxel-index space (integers hit stored values) and are
    clamped to the valid range, so queries between a boundary and the nearest
    center reuse the edge value. Coordinates within 1e-9 of an integer snap
    to it, which keeps voxel-center queries exact despite the world-to-grid
    division. Points are interpolated TRILINEAR_BLOCK at a time; each point's
    result is independent of the blocking.
    """
    coords = np.asarray(coords, dtype=np.float64)
    flat = data.reshape(-1, data.shape[-1])
    out = np.empty((flat.shape[1], coords.shape[1]))
    for lo in range(0, coords.shape[1], TRILINEAR_BLOCK):
        hi = lo + TRILINEAR_BLOCK
        _trilinear_block(flat, data.shape[:3], coords[:, lo:hi], out[:, lo:hi])
    return out


def _trilinear_block(flat, dims, coords, out) -> None:
    """Interpolate the rows of the (X*Y*Z, C) view `flat` at (3, n) coords
    into the (C, n) array `out`, axis by axis on (n,) rows."""
    strides = (dims[1] * dims[2], dims[2], 1)
    base = np.zeros(coords.shape[1], dtype=np.int64)  # the lower corner's row
    weights = []
    for axis, (size, stride) in enumerate(zip(dims, strides)):
        i0, f = _axis_prep(coords[axis], size)
        i0 *= stride
        base += i0
        weights.append((1 - f, f))
    (gx, fx), (gy, fy), (gz, fz) = weights
    # a step per axis from the lower corner's row to the upper one: 0 on a
    # degenerate axis, whose upper index is clamped to 0
    dx, dy, dz = (stride if size > 1 else 0 for size, stride in zip(dims, strides))

    def corner(step):  # (C, n): weights broadcast along n
        return np.take(flat, base + step, axis=0).T.copy()

    def face(step):  # the bilinear x-y face whose lower corner is base + step
        return _lerp(_lerp(corner(step), corner(step + dx), gx, fx),
                     _lerp(corner(step + dy), corner(step + dx + dy), gx, fx), gy, fy)

    np.multiply(face(0), gz, out=out)  # lower face first: at most 3 corners held
    upper = face(dz)
    upper *= fz
    out += upper


def _lerp(a: np.ndarray, b: np.ndarray, g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """a * g + b * f with g = 1 - f, in place in a (b is overwritten)."""
    a *= g
    b *= f
    a += b
    return a


def _axis_prep(row: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower corner index and fraction of coordinates `row` along an axis of
    `size` values: clipped, snapped within 1e-9 of an integer, and the index
    clamped so that index + 1 stays in range (an exact upper edge gets
    fraction 1). A degenerate axis has only index 0 and fraction 0."""
    c = np.clip(row, 0.0, size - 1.0)  # a contiguous copy
    snapped = np.rint(c)
    gap = c - snapped
    np.abs(gap, out=gap)
    np.copyto(c, snapped, where=gap < 1e-9)
    i0 = c.astype(np.int64)  # the floor: c >= 0 (NaN casts out of range)
    np.minimum(i0, size - 2, out=i0)
    np.maximum(i0, 0, out=i0)
    if size == 1:
        c.fill(0.0)
    else:
        c -= i0
    return i0, c


def sigma_to_alpha(sigma, delta, out=None):
    """Opacity of a segment of length delta at density sigma:
    alpha = 1 - exp(-sigma * delta), as -expm1((-sigma) * delta). Given out
    (which may be sigma itself), every step writes there; negation is exact,
    so the bits are those of the allocating form."""
    alpha = np.multiply(np.negative(sigma, out=out), delta, out=out)
    return np.negative(np.expm1(alpha, out=out), out=out)


def alpha_to_sigma(alpha):
    """Invert the extraction formula: sigma = -ln(1 - alpha) / ALPHA_DELTA."""
    with np.errstate(divide="ignore"):
        return -np.log1p(-np.asarray(alpha, dtype=np.float64)) / ALPHA_DELTA
