"""Field abstractions: signed distance fields and radiance fields.

Analytic shapes stand in for learned SDF networks so that extraction and
rendering can be checked against exact surfaces. Every field evaluates
(3, ...) coordinate rows x, y, z pointwise, with no view-direction input.
JSON specs are read into these classes by io.field_from_spec and
io.make_analytic_sdf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import as_rows, as_vec3
from .errors import EmptyUnion, NegativeDensity, VanishingGradient
from .grids import VoxelGrid4D, alpha_to_sigma, trilinear


class SdfField:
    """Scalar signed-distance field; negative inside, zero on the surface."""

    def eval(self, xyz) -> np.ndarray:
        """xyz (3, ...) -> signed distances (...); other shapes raise ValueError."""
        raise NotImplementedError


# The analytic kernels work in place on the three coordinate rows. That gives
# the bits of np.linalg.norm, np.sum and q.max(axis=-1), which reduce a
# length-3 axis left to right, at a third of their cost.
def _rows(xyz, center) -> tuple[list[np.ndarray], tuple]:
    """Fresh float64 rows x, y, z of xyz (3, ...) minus center (at least 1-D, so
    they can be updated in place), and the point shape of xyz. An SDF returns
    result.reshape(shape)[()]: a numpy scalar for one point."""
    xyz = as_rows(xyz)
    return [np.atleast_1d(xyz[i] - center[i]) for i in range(3)], xyz.shape[1:]


def _squared_distance(xyz, center) -> tuple[np.ndarray, tuple]:
    """|xyz - center|^2 as a fresh, at least 1-D array, and the point shape of xyz."""
    (x, y, z), shape = _rows(xyz, center)
    x *= x
    y *= y
    x += y
    z *= z
    x += z
    return x, shape


@dataclass
class SphereSdf(SdfField):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = as_vec3(self.center)
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def eval(self, xyz) -> np.ndarray:
        d, shape = _squared_distance(xyz, self.center)
        np.sqrt(d, out=d)
        d -= self.radius
        return d.reshape(shape)[()]


@dataclass
class BoxSdf(SdfField):
    center: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self):
        self.center = as_vec3(self.center)
        self.half_extents = as_vec3(self.half_extents)
        if not np.all(self.half_extents > 0):
            raise ValueError("half extents must be positive")

    def eval(self, xyz) -> np.ndarray:
        # exact box distance: outside part + inside part
        q, shape = _rows(xyz, self.center)
        for qi, hi in zip(q, self.half_extents):
            np.abs(qi, out=qi)
            qi -= hi
        qx, qy, qz = q
        out = np.maximum(qx, 0.0)
        out *= out
        t = np.maximum(qy, 0.0)
        t *= t
        out += t
        np.maximum(qz, 0.0, out=t)
        t *= t
        out += t
        np.sqrt(out, out=out)
        np.maximum(qx, qy, out=t)
        np.maximum(t, qz, out=t)
        np.minimum(t, 0.0, out=t)
        out += t
        return out.reshape(shape)[()]


class UnionSdf(SdfField):
    """Pointwise minimum over child SDFs."""

    def __init__(self, children):
        self.children = list(children)
        if not self.children:
            raise EmptyUnion("union of zero shapes")

    def eval(self, xyz) -> np.ndarray:
        xyz = as_rows(xyz)
        out = self.children[0].eval(xyz)
        for c in self.children[1:]:
            out = np.minimum(out, c.eval(xyz))
        return out


def sdf_gradients(f: SdfField, xyz, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients at the points of (3, N) rows.

    Returns (normals (3, N), valid (N,)) where invalid points had gradient
    magnitude below 1e-8 and hold NaN.
    """
    xyz = as_rows(xyz).reshape(3, -1)[:, None]
    offsets = np.eye(3)[:, :, None] * h
    # taps[:, i] is xyz moved along axis i, so row i of grad is axis i's
    # difference. One buffer serves the +h and then the -h taps (two would
    # raise a surface job's peak memory), so the +h values are copied out.
    taps = xyz + offsets
    grad = np.array(f.eval(taps), dtype=np.float64)
    grad -= f.eval(np.subtract(xyz, offsets, out=taps))
    grad /= 2.0 * h
    # the bits of np.linalg.norm(axis=-1), which sums 3 values left to right
    gx, gy, gz = grad
    mag = gx * gx + gy * gy + gz * gz
    np.sqrt(mag, out=mag)
    valid = mag >= 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        grad /= mag
    grad[:, ~valid] = np.nan
    return grad, valid


def sdf_normal(f: SdfField, x, h: float = 1e-4) -> np.ndarray:
    """Unit surface normal estimate at one (3,) point; raises on flat gradients."""
    if h <= 0:
        raise ValueError("step must be positive")
    normals, valid = sdf_gradients(f, as_vec3(x), h)
    if not valid[0]:
        raise VanishingGradient(f"gradient magnitude < 1e-8 at {x}")
    return normals[:, 0]


class RadianceField:
    """Emission/absorption field: eval maps points to (rgb in [0,1]^3,
    density sigma >= 0).

    eval is pointwise: a point's output depends only on that point, bit
    for bit, whatever else is in the batch. The renderer relies on it to
    reuse the coarse pass's values in the fine pass."""

    def eval(self, xyz) -> tuple[np.ndarray, np.ndarray]:
        """xyz (3, ...) -> (colors (3, ...), sigmas (...)); other shapes raise ValueError."""
        raise NotImplementedError


def _color_rows(color: np.ndarray, shape: tuple) -> np.ndarray:
    """One color at every point of `shape`: a read-only (3, *shape) broadcast."""
    return np.broadcast_to(color.reshape((3,) + (1,) * len(shape)), (3,) + shape)


@dataclass
class ConstantField(RadianceField):
    color: np.ndarray
    sigma: float

    def __post_init__(self):
        self.color = as_vec3(self.color)
        if self.sigma < 0:
            raise NegativeDensity(f"sigma {self.sigma:g} < 0")
        if np.any(self.color < 0) or np.any(self.color > 1):
            raise ValueError("color components must lie in [0, 1]")

    def eval(self, xyz):
        shape = as_rows(xyz).shape[1:]
        return _color_rows(self.color, shape), np.full(shape, float(self.sigma))


@dataclass
class GaussianBlobField(RadianceField):
    """Smooth density bump sigma(x) = amplitude * exp(-|x-c|^2 / (2 s^2))."""

    color: np.ndarray
    amplitude: float
    center: np.ndarray
    scale: float

    def __post_init__(self):
        self.color = as_vec3(self.color)
        self.center = as_vec3(self.center)
        if self.amplitude < 0:
            raise NegativeDensity("amplitude must be nonnegative")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def eval(self, xyz):
        x, shape = _squared_distance(xyz, self.center)
        np.negative(x, out=x)
        x /= 2.0 * self.scale**2
        np.exp(x, out=x)
        x *= self.amplitude
        return _color_rows(self.color, shape), x.reshape(shape)


@dataclass
class BallField(RadianceField):
    """Uniform-density emitter ball: sigma inside the radius, empty outside."""

    color: np.ndarray
    sigma: float
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.color = as_vec3(self.color)
        self.center = as_vec3(self.center)
        if self.sigma < 0:
            raise NegativeDensity("sigma must be nonnegative")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def eval(self, xyz):
        d, shape = _squared_distance(xyz, self.center)
        inside = (np.sqrt(d, out=d) <= self.radius).reshape(shape)
        return _color_rows(self.color, shape), np.where(inside, self.sigma, 0.0)


class GridField(RadianceField):
    """Radiance field backed by an extracted RGBA grid.

    Trilinear interpolation of the stored channels; the stored alpha is
    converted back to an effective density via sigma = -ln(1-alpha)/0.01,
    the exact inverse of the extraction formula. Outside the grid bounds the
    field is empty.
    """

    def __init__(self, grid: VoxelGrid4D):
        if grid.channels != 4:
            raise ValueError("GridField needs an RGBA grid")
        self.grid = grid
        self.bounds = grid.bounds

    def interpolate(self, xyz) -> np.ndarray:
        """Raw trilinear (C, ...) channel values; zeros outside the bounds."""
        xyz = as_rows(xyz)
        inside = self.bounds.contains(xyz)
        every = inside.all()  # as a render's near samples are: skip the gather and scatter
        pts = xyz.reshape(3, -1) if every else xyz[:, inside]
        # continuous voxel-center coordinates: centers land on integers
        coords = (pts - self.bounds.min[:, None]) / self.grid.cell_size[:, None] - 0.5
        vals = trilinear(self.grid.data, coords)
        if every:
            return vals.reshape(vals.shape[:1] + xyz.shape[1:])
        out = np.zeros((self.grid.channels,) + xyz.shape[1:])
        out[:, inside] = vals
        return out

    def eval(self, xyz):
        vals = self.interpolate(xyz)
        return vals[:3], alpha_to_sigma(vals[3])
