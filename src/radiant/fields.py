"""Field abstractions: signed distance fields and radiance fields.

Analytic shapes stand in for learned SDF networks so that extraction and
rendering can be checked against exact surfaces. All eval methods are
vectorized over a leading batch of points.
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
        pts = np.asarray(pts, dtype=np.float64)
        return np.linalg.norm(pts - self.center, axis=-1) - self.radius


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
        q = np.abs(np.asarray(pts, dtype=np.float64) - self.center) - self.half_extents
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(q.max(axis=-1), 0.0)
        return outside + inside


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
        return np.min([c.eval(pts) for c in self.children], axis=0)


def make_analytic_sdf(shape: dict, where: str = "shape") -> SdfField:
    """Build an analytic SDF from a plain dict description.

    Accepted forms:
      {"type": "sphere", "center": [x,y,z], "radius": r}
      {"type": "box", "center": [x,y,z], "half_extents": [hx,hy,hz]}
      {"type": "union", "shapes": [ ... ]}

    where names the description in errors ("shape.json: shapes[1]"): a part
    that is not an object or a missing required key raises FileFormatError.
    """
    from .io import json_list, read_key

    kind = read_key(shape, "type", where, default=None)
    if kind == "sphere":
        return SphereSdf(shape.get("center", (0, 0, 0)), read_key(shape, "radius", where))
    if kind == "box":
        return BoxSdf(shape.get("center", (0, 0, 0)), read_key(shape, "half_extents", where))
    if kind == "union":
        shapes = read_key(shape, "shapes", where, json_list, [])
        return UnionSdf([make_analytic_sdf(s, f"{where}: shapes[{i}]")
                         for i, s in enumerate(shapes)])
    raise ValueError(f"unknown shape type {kind!r}")


def sdf_gradients(f: SdfField, pts, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients for a batch of points.

    Returns (normals (N,3), valid (N,)) where invalid rows had gradient
    magnitude below 1e-8 and hold NaN.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    n = pts.shape[0]
    offsets = np.zeros((3, 3))
    np.fill_diagonal(offsets, h)
    plus = f.eval((pts[:, None, :] + offsets).reshape(-1, 3)).reshape(n, 3)
    minus = f.eval((pts[:, None, :] - offsets).reshape(-1, 3)).reshape(n, 3)
    grad = (plus - minus) / (2.0 * h)
    mag = np.linalg.norm(grad, axis=-1)
    valid = mag >= 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = np.where(valid[:, None], grad / mag[:, None], np.nan)
    return normals, valid


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
    (rgb in [0,1]^3, density sigma >= 0)."""

    def eval(self, pts, dirs) -> tuple[np.ndarray, np.ndarray]:
        """pts, dirs of shape (N, 3) -> (colors (N, 3), sigmas (N,))."""
        raise NotImplementedError


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

    def eval(self, pts, dirs):
        n = np.atleast_2d(pts).shape[0]
        return np.tile(self.color, (n, 1)), np.full(n, float(self.sigma))


def make_constant_field(color, sigma: float) -> ConstantField:
    return ConstantField(color, sigma)


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


def grid_field_eval(g: GridField, x, d) -> tuple[np.ndarray, float]:
    """Single-point GridField query: (rgb, sigma); direction is ignored."""
    colors, sigmas = g.eval(as_vec3(x), d)
    return colors[0], float(sigmas[0])


def field_from_spec(spec: dict) -> RadianceField:
    """Build a radiance field from a plain dict description.

    Accepted forms:
      {"type": "constant", "color": [r,g,b], "sigma": s}
      {"type": "gaussian", "color", "amplitude", "center", "scale"}
      {"type": "ball", "color", "sigma", "center", "radius"}
      {"type": "grid", "path": "grid.nfvg"}   (resolved by the caller via io)
    """
    kind = spec.get("type")
    if kind == "constant":
        return ConstantField(spec.get("color", (1, 1, 1)), spec.get("sigma", 0.0))
    if kind == "gaussian":
        return GaussianBlobField(
            spec.get("color", (1, 1, 1)),
            spec.get("amplitude", 20.0),
            spec.get("center", (0, 0, 0)),
            spec.get("scale", 0.25),
        )
    if kind == "ball":
        return BallField(
            spec.get("color", (1, 1, 1)),
            spec.get("sigma", 40.0),
            spec.get("center", (0, 0, 0)),
            spec.get("radius", 0.5),
        )
    if kind == "grid":
        from .io import read_nfvg

        return GridField(read_nfvg(spec["path"]))
    raise ValueError(f"unknown field type {kind!r}")
