"""Geometric primitives (vectors, rigid poses, pinhole cameras, rotations)
and the package's counter-based random streams.

Conventions (fixed here because file formats depend on them):
  * camera looks down +z, +x right, +y down; poses are camera-to-world
  * rotation matrices act on column vectors, world point = R @ p_cam + t
  * pixel (u, v) = (column, row), pixel centers at integer coordinates

All functions are pure; everything operates on float64 numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDepth

# Depths at or below this are treated as "behind the camera".
MIN_DEPTH = 1e-9

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1E4357B3)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x) -> np.ndarray:
    """SplitMix64 finalizer; a stateless uniform hash of uint64 values.
    A Python int is first reduced mod 2**64, so any int seed hashes."""
    if isinstance(x, int):
        x %= 1 << 64
    # work on arrays: numpy scalar uint64 multiplies emit overflow warnings
    z = np.atleast_1d(np.asarray(x, dtype=np.uint64)) + _SPLITMIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def splitmix64_stream(seeds, n: int) -> np.ndarray:
    """Hashes 0..n-1 of each seed's stream as (R, n) uint64 for R seeds (an int
    is one seed): hash k of seed s is splitmix64(splitmix64(s) + k)."""
    return splitmix64(splitmix64(seeds)[:, None] + np.arange(n, dtype=np.uint64))


def uniform_stream(seeds, n: int) -> np.ndarray:
    """splitmix64_stream as float64 in [0, 1): the top 53 bits times 2**-53."""
    return (splitmix64_stream(seeds, n) >> np.uint64(11)) * 2.0**-53


# as_vec3 runs once per record read from a file, so it tests Python floats:
# math.isfinite over a few values costs less than one np.isfinite call.
def as_vec3(v) -> np.ndarray:
    """Coerce to a finite float64 3-vector."""
    out = np.asarray(v, dtype=np.float64)
    if out.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {out.shape}")
    if not all(map(math.isfinite, out.tolist())):
        raise ValueError("vector components must be finite")
    return out


def as_rows(xyz) -> np.ndarray:
    """Coerce to float64 (3, ...) coordinate rows x, y and z; refuse other shapes."""
    out = np.asarray(xyz, dtype=np.float64)
    if out.shape[:1] != (3,):
        raise ValueError(f"expected (3, ...) coordinate rows x, y, z, got shape {out.shape}")
    return out


def as_points(v, dim: int = 3) -> np.ndarray:
    """Coerce to a finite float64 (N, dim) array of points."""
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != dim or not np.isfinite(out).all():
        raise ValueError(f"expected finite (N, {dim}) points, got shape {out.shape}")
    return out


def normalize(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / n


# how far R^T R may be from I, and det R from +1, entry by entry
ROTATION_TOL = 1e-6


def check_rotation(m) -> np.ndarray:
    """Validate a 3x3 matrix, or an (N, 3, 3) stack of them, as proper
    rotations (orthonormal, det +1, within ROTATION_TOL)."""
    r = np.asarray(m, dtype=np.float64)
    if r.shape[-2:] != (3, 3) or r.ndim > 3:
        raise ValueError(f"expected a 3x3 matrix, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("matrix has non-finite entries")
    a, b, c, d, e, f, g, h, i = r.reshape(-1, 9).T
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail as inf
        # the entries of R^T R - I: dot products of the columns (a d g), (b e h), (c f i)
        gram = (a * a + d * d + g * g - 1.0, b * b + e * e + h * h - 1.0,
                c * c + f * f + i * i - 1.0, a * b + d * e + g * h,
                a * c + d * f + g * i, b * c + e * f + h * i)
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if any((abs(x) > ROTATION_TOL).any() for x in gram):
        raise ValueError("matrix columns are not orthonormal")
    if (abs(det - 1.0) > ROTATION_TOL).any():
        raise ValueError("matrix determinant is not +1")
    return r


def skew(v) -> np.ndarray:
    """Cross-product matrix [v]x such that skew(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=np.float64)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rodrigues formula: rotation by `angle` (radians) about a unit axis."""
    a = normalize(as_vec3(axis))
    k = skew(a)
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


@dataclass
class Aabb:
    """Axis-aligned box, min/max corners in world units."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        self.min = as_vec3(self.min)
        self.max = as_vec3(self.max)
        if not np.all(self.min < self.max):
            raise ValueError("Aabb requires min < max on every axis")

    @property
    def extent(self) -> np.ndarray:
        return self.max - self.min

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.extent))

    def contains(self, xyz) -> np.ndarray:
        """Whether each point of the (3, ...) rows lies in the closed box (NaN does not)."""
        xyz = as_rows(xyz)
        inside = (xyz[0] >= self.min[0]) & (xyz[0] <= self.max[0])
        for axis in (1, 2):
            inside &= xyz[axis] >= self.min[axis]
            inside &= xyz[axis] <= self.max[axis]
        return inside


def cube_bounds() -> Aabb:
    """The default scene box, [-1, 1]^3."""
    return Aabb(np.full(3, -1.0), np.full(3, 1.0))


@dataclass
class Intrinsics:
    """Pinhole camera: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("image size must be at least 1x1")


@dataclass
class Pose:
    """Rigid camera-to-world transform."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = check_rotation(self.rotation)
        self.translation = as_vec3(self.translation)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def transform(self, pts) -> np.ndarray:
        """Camera-frame points to world frame."""
        pts = np.asarray(pts, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def inverse_transform(self, pts) -> np.ndarray:
        """World points to camera frame."""
        pts = np.asarray(pts, dtype=np.float64)
        return (pts - self.translation) @ self.rotation


@dataclass
class Ray:
    """Ray with unit direction, or a packet of R rays: origin and direction
    are both (3,) or both (R, 3)."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64)
        self.direction = np.asarray(self.direction, dtype=np.float64)
        shape = self.origin.shape
        if self.direction.shape != shape or shape[-1:] != (3,) or len(shape) > 2:
            raise ValueError(f"expected (3,) or (R, 3) origin and direction, got "
                             f"{shape} and {self.direction.shape}")
        if not (np.all(np.isfinite(self.origin)) and np.all(np.isfinite(self.direction))):
            raise ValueError("ray components must be finite")
        if np.any(np.abs(np.linalg.norm(self.direction, axis=-1) - 1.0) > 1e-9):
            raise ValueError("ray direction must be unit length")

    def at(self, t) -> np.ndarray:
        """Points origin + t * direction as (3, *t.shape) rows x, y, z; for
        a packet, t's first axis indexes the rays."""
        t = np.asarray(t, dtype=np.float64)
        shape = (3,) + (-1,) * (self.origin.ndim - 1) + (1,) * (t.ndim - self.origin.ndim + 1)
        return self.origin.T.reshape(shape) + t * self.direction.T.reshape(shape)


def project_points(k: Intrinsics, pose: Pose, pts) -> tuple[np.ndarray, np.ndarray]:
    """Batched pinhole projection; no depth check.

    Returns (uv (N,2), depth (N,)). Callers filter on depth themselves;
    see project_point for the checked single-point variant.
    """
    pc = pose.inverse_transform(np.atleast_2d(pts))
    z = pc[:, 2]
    # avoid divide warnings for invalid depths; callers mask them out
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.fx * pc[:, 0] / z + k.cx
        v = k.fy * pc[:, 1] / z + k.cy
    return np.stack([u, v], axis=-1), z


def project_point(k: Intrinsics, pose: Pose, x) -> tuple[tuple[float, float], float]:
    """Project a world point; raises NonPositiveDepth behind the camera."""
    uv, z = project_points(k, pose, as_vec3(x))
    depth = float(z[0])
    if depth <= MIN_DEPTH:
        raise NonPositiveDepth(f"depth {depth:g} is not positive")
    return (float(uv[0, 0]), float(uv[0, 1])), depth


def backproject_pixels(k: Intrinsics, pose: Pose, uv, depth) -> np.ndarray:
    """Batched inverse pinhole: pixels + depths to world points."""
    uv = np.atleast_2d(np.asarray(uv, dtype=np.float64))
    depth = np.asarray(depth, dtype=np.float64)
    xc = (uv[:, 0] - k.cx) / k.fx * depth
    yc = (uv[:, 1] - k.cy) / k.fy * depth
    return pose.transform(np.stack([xc, yc, depth], axis=-1))


def backproject_pixel(k: Intrinsics, pose: Pose, pixel, depth: float) -> np.ndarray:
    """Invert project_point for one pixel at a known positive depth."""
    if depth <= MIN_DEPTH:
        raise NonPositiveDepth(f"depth {depth:g} is not positive")
    return backproject_pixels(k, pose, [pixel], [depth])[0]


def generate_ray_arrays(k: Intrinsics, pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel rays as arrays: origins (N,3), unit directions (N,3).

    Pixel order is row-major: index = v * width + u.
    """
    u, v = np.meshgrid(np.arange(k.width), np.arange(k.height))
    dirs_cam = np.stack(
        [
            (u.ravel() - k.cx) / k.fx,
            (v.ravel() - k.cy) / k.fy,
            np.ones(k.width * k.height),
        ],
        axis=-1,
    )
    dirs = normalize(dirs_cam @ pose.rotation.T)
    origins = np.broadcast_to(pose.translation, dirs.shape).copy()
    return origins, dirs
