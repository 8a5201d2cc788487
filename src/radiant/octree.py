"""Octree level-of-detail surface extraction from an SDF, plus the dense
narrowband baseline it is benchmarked against.

The traversal starts from the root cell and subdivides every cell into its
8 children in Morton (Z-order) order, so each level is in Morton order
without a sort. From lod_start on it keeps only the cells whose center SDF
value is within the cell edge length (shell rule), and at the final level
projects the surviving cell centers onto the zero isosurface along the
finite-difference normal: p' = p - n * sdf(p).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core_math import Aabb, cube_bounds
from .errors import RadiantError
from .fields import SdfField, sdf_gradients

# cells one traversal level may hold: a level whose index array would exceed
# it is refused before allocating (the sphere preset at LoD 11 needs 1.3e7)
MAX_LEVEL_CELLS = 1 << 23


@dataclass
class LodConfig:
    """Octree traversal configuration.

    literal_occupancy keeps cells with signed sdf < cell size (which also
    retains the whole interior of watertight shapes); the default shell rule
    |sdf| < cell size tracks only the surface band.

    projection_iterations stays at the single-step formula by default;
    min()-composed SDFs have gradient ridges where finite-difference normals
    need a second step to land on the surface.
    """

    lod_start: int = 3
    lod_end: int = 6
    bounds: Aabb = field(default_factory=cube_bounds)
    literal_occupancy: bool = False
    projection_iterations: int = 1

    def __post_init__(self):
        if not (1 <= self.lod_start <= self.lod_end <= 12):
            raise ValueError("need 1 <= lod_start <= lod_end <= 12")
        if self.projection_iterations < 1:
            raise ValueError("projection_iterations must be at least 1")

    def cell_edge(self, level: int) -> float:
        """Edge length of a level-`level` cell (level 0 is the root cell)."""
        return float(self.bounds.extent.max()) / (1 << level)


@dataclass
class SurfaceSamples:
    """Extracted surface points as parallel float64 arrays: positions (N,3),
    unit normals (N,3) and the SDF values left after projection (N,).
    len() is N."""

    positions: np.ndarray
    normals: np.ndarray
    residuals: np.ndarray

    def __len__(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def empty(cls) -> "SurfaceSamples":
        return cls(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))


@dataclass
class ExtractionStats:
    """Per-level traversal evals (total_sdf_evals is their sum) and, apart
    from them, the SDF points projection evaluates, gradient taps included."""

    evals_per_level: dict[int, int] = field(default_factory=dict)
    total_sdf_evals: int = 0
    projection_evals: int = 0
    surface_points: int = 0
    wall_time: float = 0.0
    no_surface: bool = False
    dropped_points: int = 0


def samples_to_arrays(samples: SurfaceSamples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(positions (N,3), normals (N,3), residuals (N,)) of a sample record."""
    return samples.positions, samples.normals, samples.residuals


# child c of cell i is cell 2i + _CHILDREN[c]: x varies fastest, so the
# children of a cell, and by induction each level grown from the root cell,
# are in Morton order (bit b of axis k is bit 3b + k of the code)
_CHILDREN = np.array([[c & 1, c >> 1 & 1, c >> 2] for c in range(8)])


def project_to_surface(
    f: SdfField, points, iterations: int = 1, h: float = 1e-4,
    stats: ExtractionStats | None = None, values=None,
) -> SurfaceSamples:
    """Project points onto the zero isosurface: p <- p - n * sdf(p).

    Applies the step `iterations` times. Points whose gradient vanishes at
    any step are dropped (callers can count them as len(points) - len(out)).
    values, when given, is f.eval(points) already computed (the traversal's
    final-level values): the first step uses it instead of evaluating again.
    Each step then costs 7 SDF evals per point (the value and six gradient
    taps), the first one 6 with values, and the residual and normal of the
    result 7 more; the evals made are added to stats.projection_evals.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64)).copy()
    if values is not None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != pts.shape[:1]:
            raise ValueError(f"values of shape {values.shape} for {pts.shape[0]} points")
    s, evals = values, 0
    for _ in range(iterations):
        if pts.shape[0] == 0:
            break
        if s is None:
            s = f.eval(pts)
            evals += pts.shape[0]
        evals += 6 * pts.shape[0]
        normals, ok = sdf_gradients(f, pts, h)
        pts = pts[ok] - normals[ok] * s[ok, None]
        s = None
    if stats is not None:
        stats.projection_evals += evals + 7 * pts.shape[0]
    if pts.shape[0] == 0:
        return SurfaceSamples.empty()
    residual = f.eval(pts)
    normals, ok = sdf_gradients(f, pts, h)
    return SurfaceSamples(pts[ok], normals[ok], residual[ok])


def _check_level_cells(level: int, n: int) -> None:
    if n > MAX_LEVEL_CELLS:
        raise RadiantError(
            f"octree LoD {level} would hold {n} cells, over the per-level "
            f"budget of {MAX_LEVEL_CELLS}; use a lower LoD")


def extract_surface(
    f: SdfField, cfg: LodConfig | None = None
) -> tuple[SurfaceSamples, ExtractionStats]:
    """Octree-accelerated surface extraction.

    Returns the projected surface samples (final-level cells in Morton order)
    and per-level instrumentation. A level with zero occupied cells stops the
    traversal: empty samples with stats.no_surface set.
    """
    cfg = cfg or LodConfig()
    stats = ExtractionStats()
    t0 = time.perf_counter()

    _check_level_cells(cfg.lod_start, 8**cfg.lod_start)
    idx = np.zeros((1, 3), dtype=np.int64)  # the root cell
    cell = np.asarray(cfg.bounds.extent)
    for level in range(cfg.lod_end + 1):
        if level >= cfg.lod_start:
            centers = cfg.bounds.min + (idx + 0.5) * cell
            sdf = f.eval(centers)
            stats.evals_per_level[level] = int(sdf.size)
            stats.total_sdf_evals += int(sdf.size)

            edge = cfg.cell_edge(level)
            occ = sdf < edge if cfg.literal_occupancy else np.abs(sdf) < edge
            if not occ.any():
                stats.no_surface = True
                stats.wall_time = time.perf_counter() - t0
                return SurfaceSamples.empty(), stats
            if level == cfg.lod_end:
                break
            idx = idx[occ]
            _check_level_cells(level + 1, 8 * len(idx))
        # each kept cell yields its 8 children at level + 1
        idx = (idx[:, None, :] * 2 + _CHILDREN).reshape(-1, 3)
        cell = cell / 2.0

    centers = centers[occ]
    samples = project_to_surface(
        f,
        centers,
        iterations=cfg.projection_iterations,
        h=cfg.cell_edge(cfg.lod_end) / 4.0,
        stats=stats,
        values=sdf[occ],
    )

    stats.dropped_points = len(centers) - len(samples)
    stats.surface_points = len(samples)
    stats.wall_time = time.perf_counter() - t0
    return samples, stats


def dense_extract(
    f: SdfField,
    resolution: int,
    band: float,
    bounds: Aabb | None = None,
) -> SurfaceSamples:
    """Brute-force baseline: evaluate every cell center of a regular grid,
    keep |sdf| <= band, and project the survivors onto the surface."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not 0 < band < np.inf:  # NaN fails too
        raise ValueError(f"band must be finite and positive, got {band}")
    bounds = bounds or cube_bounds()
    cell = bounds.extent / resolution
    ax = [bounds.min[i] + (np.arange(resolution) + 0.5) * cell[i] for i in range(3)]
    gx, gy, gz = np.meshgrid(*ax, indexing="ij")
    pts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    sdf = f.eval(pts)
    band_mask = np.abs(sdf) <= band
    return project_to_surface(f, pts[band_mask], iterations=1, h=float(cell.max()) / 4.0,
                              values=sdf[band_mask])
