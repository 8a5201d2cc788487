"""Field abstractions: signed distance fields and radiance fields.

Analytic shapes stand in for learned SDF networks so that extraction and
rendering can be checked against exact surfaces. All eval methods are
vectorized over a leading batch of points. JSON specs are read into these
classes by io.field_from_spec and io.make_analytic_sdf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import Aabb, as_vec3
from .errors import EmptyUnion, NegativeDensity, VanishingGradient
from .grids import VoxelGrid4D, alpha_to_sigma, trilinear


class SdfField:
    """Scalar signed-distance field; negative inside, zero on the surface."""

    bounds: Aabb

    def eval(self, pts) -> np.ndarray:
        """Signed distances for points of shape (..., 3)."""
        raise NotImplementedError


# The analytic kernels work in place on the three coordinate columns. That
# gives the bits of np.linalg.norm and q.max(axis=-1), which reduce a length-3
# axis left to right, at a third of their cost.
def _columns(pts, center) -> tuple[list[np.ndarray], tuple]:
    """Fresh float64 columns x, y, z of pts (..., 3) minus center (at least
    1-D, so they can be updated in place), and the leading shape of pts. A
    kernel returns result.reshape(shape)[()]: a numpy scalar for one point,
    as the axis reductions gave."""
    pts = np.asarray(pts, dtype=np.float64)
    return [np.atleast_1d(pts[..., i] - center[i]) for i in range(3)], pts.shape[:-1]


@dataclass
class SphereSdf(SdfField):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = as_vec3(self.center)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.bounds = Aabb(self.center - self.radius, self.center + self.radius)

    def eval(self, pts) -> np.ndarray:
        (x, y, z), shape = _columns(pts, self.center)
        x *= x
        y *= y
        x += y
        z *= z
        x += z
        np.sqrt(x, out=x)
        x -= self.radius
        return x.reshape(shape)[()]


@dataclass
class BoxSdf(SdfField):
    center: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self):
        self.center = as_vec3(self.center)
        self.half_extents = as_vec3(self.half_extents)
        if not np.all(self.half_extents > 0):
            raise ValueError("half extents must be positive")
        self.bounds = Aabb(self.center - self.half_extents, self.center + self.half_extents)

    def eval(self, pts) -> np.ndarray:
        # exact box distance: outside part + inside part
        q, shape = _columns(pts, self.center)
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
        lo = np.min([c.bounds.min for c in self.children], axis=0)
        hi = np.max([c.bounds.max for c in self.children], axis=0)
        self.bounds = Aabb(lo, hi)

    def eval(self, pts) -> np.ndarray:
        out = self.children[0].eval(pts)
        for c in self.children[1:]:
            out = np.minimum(out, c.eval(pts))
        return out


def sdf_gradients(f: SdfField, pts, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients for a batch of points.

    Returns (normals (N,3), valid (N,)) where invalid rows had gradient
    magnitude below 1e-8 and hold NaN.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    n = pts.shape[0]
    offsets = np.zeros((3, 3))
    np.fill_diagonal(offsets, h)
    # taps[i] is pts moved along axis i, so each axis's difference comes back
    # as one contiguous row of grad. One buffer serves the +h and then the -h
    # taps (two would raise the peak memory of a surface job), so the +h
    # values are copied out before it is refilled.
    taps = np.empty((3, n, 3))
    for i in range(3):
        np.add(pts, offsets[i], out=taps[i])
    grad = np.array(f.eval(taps.reshape(-1, 3)), dtype=np.float64).reshape(3, n)
    for i in range(3):
        np.subtract(pts, offsets[i], out=taps[i])
    grad -= f.eval(taps.reshape(-1, 3)).reshape(3, n)
    grad /= 2.0 * h
    # the bits of np.linalg.norm(axis=-1), which sums a length-3 axis left
    # to right
    gx, gy, gz = grad
    mag = gx * gx + gy * gy + gz * gz
    np.sqrt(mag, out=mag)
    valid = mag >= 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        grad /= mag
    grad[:, ~valid] = np.nan
    return np.ascontiguousarray(grad.T), valid


def sdf_normal(f: SdfField, x, h: float = 1e-4) -> np.ndarray:
    """Unit surface normal estimate at one point; raises on flat gradients."""
    if h <= 0:
        raise ValueError("step must be positive")
    normals, valid = sdf_gradients(f, as_vec3(x), h)
    if not valid[0]:
        raise VanishingGradient(f"gradient magnitude < 1e-8 at {x}")
    return normals[0]


class RadianceField:
    """Emission/absorption field: eval maps (points, directions) to
    (rgb in [0,1]^3, density sigma >= 0). view_dependent is False for a
    field whose eval ignores dirs: callers may evaluate a point once for a
    whole direction set."""

    view_dependent = True

    def eval(self, pts, dirs) -> tuple[np.ndarray, np.ndarray]:
        """pts, dirs of shape (N, 3) -> (colors (N, 3), sigmas (N,))."""
        raise NotImplementedError


@dataclass
class ConstantField(RadianceField):
    color: np.ndarray
    sigma: float

    view_dependent = False

    def __post_init__(self):
        self.color = as_vec3(self.color)
        if self.sigma < 0:
            raise NegativeDensity(f"sigma {self.sigma:g} < 0")
        if np.any(self.color < 0) or np.any(self.color > 1):
            raise ValueError("color components must lie in [0, 1]")

    def eval(self, pts, dirs):
        n = np.atleast_2d(pts).shape[0]
        return np.tile(self.color, (n, 1)), np.full(n, float(self.sigma))


@dataclass
class GaussianBlobField(RadianceField):
    """Smooth density bump sigma(x) = amplitude * exp(-|x-c|^2 / (2 s^2))."""

    color: np.ndarray
    amplitude: float
    center: np.ndarray
    scale: float

    view_dependent = False

    def __post_init__(self):
        self.color = as_vec3(self.color)
        self.center = as_vec3(self.center)
        if self.amplitude < 0:
            raise NegativeDensity("amplitude must be nonnegative")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def eval(self, pts, dirs):
        pts = np.atleast_2d(pts)
        d2 = np.sum((pts - self.center) ** 2, axis=-1)
        sig = self.amplitude * np.exp(-d2 / (2.0 * self.scale**2))
        return np.tile(self.color, (pts.shape[0], 1)), sig


@dataclass
class BallField(RadianceField):
    """Uniform-density emitter ball: sigma inside the radius, empty outside."""

    color: np.ndarray
    sigma: float
    center: np.ndarray
    radius: float

    view_dependent = False

    def __post_init__(self):
        self.color = as_vec3(self.color)
        self.center = as_vec3(self.center)
        if self.sigma < 0:
            raise NegativeDensity("sigma must be nonnegative")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def eval(self, pts, dirs):
        pts = np.atleast_2d(pts)
        inside = np.linalg.norm(pts - self.center, axis=-1) <= self.radius
        return np.tile(self.color, (pts.shape[0], 1)), np.where(inside, self.sigma, 0.0)


class GridField(RadianceField):
    """Radiance field backed by an extracted RGBA grid.

    Trilinear interpolation of the stored channels; the stored alpha is
    converted back to an effective density via sigma = -ln(1-alpha)/0.01,
    the exact inverse of the extraction formula. Outside the grid bounds the
    field is empty.
    """

    view_dependent = False

    def __init__(self, grid: VoxelGrid4D):
        if grid.channels != 4:
            raise ValueError("GridField needs an RGBA grid")
        self.grid = grid
        self.bounds = grid.bounds

    def interpolate(self, pts) -> np.ndarray:
        """Raw trilinear channel values; zeros outside the bounds."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        out = np.zeros((pts.shape[0], self.grid.channels))
        inside = self.bounds.contains(pts)
        if inside.any():
            coords = self.grid.world_to_grid(pts[inside])
            out[inside] = trilinear(self.grid.data, coords)
        return out

    def eval(self, pts, dirs):
        vals = self.interpolate(pts)
        return vals[:, :3], alpha_to_sigma(vals[:, 3])
