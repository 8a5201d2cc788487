"""Octree level-of-detail surface extraction from an SDF, plus the dense
narrowband baseline it is benchmarked against.

The traversal starts from the root cell and subdivides every cell into its
8 children in Morton (Z-order) order, so each level is in Morton order
without a sort. From lod_start on it keeps only the cells whose center SDF
value is within the cell edge length (shell rule), and at the final level
projects the surviving cell centers onto the zero isosurface along the
finite-difference normal: p' = p - n * sdf(p). Points, cell indices and
centers are (3, ...) coordinate rows, as fields read them; only the
SurfaceSamples record keeps a PLY's (N, 3) layout.

Both run in blocks of BLOCK_POINTS points, so every temporary stays
cache-sized and no whole level is built: a level is evaluated
BLOCK_POINTS // 8 kept parents at a time, and projection runs on
BLOCK_POINTS-point slices. Every kernel is pointwise, so the samples and
the stats do not depend on the block size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core_math import Aabb, as_rows, cube_bounds
from .errors import RadiantError
from .fields import SdfField, sdf_gradients

# cells one traversal level may hold: a level whose index array would exceed
# it is refused before allocating (the sphere preset at LoD 11 needs 1.3e7)
MAX_LEVEL_CELLS = 1 << 23

# points the traversal evaluates and projection steps at a time: 2^13 points
# keep a block's float64 (3, N) temporaries at 192 kB, well inside L2
BLOCK_POINTS = 1 << 13


@dataclass
class LodConfig:
    """Octree traversal configuration.

    literal_occupancy keeps cells with signed sdf < cell size (which also
    retains the whole interior of watertight shapes); the default shell rule
    |sdf| < cell size tracks only the surface band.
    """

    lod_start: int = 3
    lod_end: int = 6
    bounds: Aabb = field(default_factory=cube_bounds)
    literal_occupancy: bool = False

    def __post_init__(self):
        if not (1 <= self.lod_start <= self.lod_end <= 12):
            raise ValueError("need 1 <= lod_start <= lod_end <= 12")

    def cell_edge(self, level: int) -> float:
        """Edge length of a level-`level` cell (level 0 is the root cell)."""
        return float(self.bounds.extent.max()) / (1 << level)


@dataclass
class SurfaceSamples:
    """Extracted surface points as parallel float64 (N, 3) arrays, positions
    and unit normals, as a PLY holds them; len() is N. Fields read (3, ...)
    rows, so the SDF left at the samples is f.eval(samples.positions.T)."""

    positions: np.ndarray
    normals: np.ndarray

    def __len__(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def empty(cls) -> "SurfaceSamples":
        return cls(np.zeros((0, 3)), np.zeros((0, 3)))


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


def samples_to_arrays(samples: SurfaceSamples) -> tuple[np.ndarray, np.ndarray]:
    """(positions (N,3), normals (N,3)) of a sample record."""
    return samples.positions, samples.normals


# child c of cell i is cell 2i + _CHILDREN[:, c]: x varies fastest, so the
# children of a cell, and by induction each level grown from the root cell,
# are in Morton order (bit b of axis k is bit 3b + k of the code)
_CHILDREN = np.array([[c & 1, c >> 1 & 1, c >> 2] for c in range(8)]).T


def project_to_surface(
    f: SdfField, xyz, h: float = 1e-4,
    stats: ExtractionStats | None = None, values=None,
) -> SurfaceSamples:
    """Project the points of (3, N) rows onto the zero isosurface in one
    step: p <- p - n * sdf(p).

    Points whose gradient vanishes, before or after the step, are dropped
    (callers can count them as N - len(out)). values, when given, is
    f.eval(xyz) already computed (the traversal's final-level values):
    the step uses it instead of evaluating again. The step costs 7 SDF evals
    per point (the value and six gradient taps), 6 with values, and the
    normal of the result 6 more; the evals made are added to
    stats.projection_evals.
    The points are projected BLOCK_POINTS at a time, in order; each point's
    result does not depend on the block it falls in.
    """
    xyz = as_rows(xyz).reshape(3, -1)
    n = xyz.shape[1]
    if values is not None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (n,):
            raise ValueError(f"values of shape {values.shape} for {n} points")
    # each block's (3, k) results are written, transposed, into the (N, 3)
    # output arrays at once, so the blocks are never held beside a joined copy
    out = (np.empty((n, 3)), np.empty((n, 3)))
    filled = 0
    for lo in range(0, n, BLOCK_POINTS):
        block = _project_block(f, xyz[:, lo:lo + BLOCK_POINTS], h, stats,
                               None if values is None else values[lo:lo + BLOCK_POINTS])
        k = block[0].shape[1]
        for dst, src in zip(out, block):
            dst[filled:filled + k] = src.T
        filled += k
    return SurfaceSamples(*(a[:filled] for a in out))


def _project_block(f, xyz, h, stats, s):
    """project_to_surface on one block of (3, n) rows, s their SDF values or
    None: (3, k) positions and normals of the points it keeps."""
    evals = 6 * xyz.shape[1]
    if s is None:
        s = f.eval(xyz)
        evals += xyz.shape[1]
    normals, ok = sdf_gradients(f, xyz, h)
    xyz = xyz[:, ok] - normals[:, ok] * s[ok]
    if stats is not None:
        stats.projection_evals += evals + 6 * xyz.shape[1]
    normals, ok = sdf_gradients(f, xyz, h)
    return xyz[:, ok], normals[:, ok]


def _check_level_cells(level: int, n: int) -> None:
    if n > MAX_LEVEL_CELLS:
        raise RadiantError(
            f"octree LoD {level} would hold {n} cells, over the per-level "
            f"budget of {MAX_LEVEL_CELLS}; use a lower LoD")


def _children(parents: np.ndarray) -> np.ndarray:
    """The 8 children of each parent cell index of (3, M) rows, as (3, 8M)
    in Morton order when the parents are."""
    return (parents[:, :, None] * 2 + _CHILDREN[:, None, :]).reshape(3, -1)


def _child_blocks(parents: np.ndarray):
    """The children of `parents`, BLOCK_POINTS // 8 parents at a time: each
    block is the next Morton-ordered run of the child level."""
    step = BLOCK_POINTS // 8
    for lo in range(0, parents.shape[1], step):
        yield _children(parents[:, lo:lo + step])


def extract_surface(
    f: SdfField, cfg: LodConfig | None = None
) -> tuple[SurfaceSamples, ExtractionStats]:
    """Octree-accelerated surface extraction.

    Returns the projected surface samples (final-level cells in Morton order)
    and per-level instrumentation. A level with zero occupied cells stops the
    traversal: empty samples with stats.no_surface set.

    Each level from lod_start on is evaluated in blocks of BLOCK_POINTS
    children of its kept parents, and only the kept cells of a block are
    joined, in Morton order: the memory a level takes is that of its kept
    cells, not of all the cells evaluated. The samples and the stats are the
    same for every block size.
    """
    cfg = cfg or LodConfig()
    stats = ExtractionStats()
    t0 = time.perf_counter()

    _check_level_cells(cfg.lod_start, 8**cfg.lod_start)
    kept = np.zeros((3, 1), dtype=np.int64)  # the root cell
    cell = cfg.bounds.extent[:, None]
    for level in range(1, cfg.lod_end + 1):
        cell = cell / 2.0
        if level < cfg.lod_start:
            kept = _children(kept)
            continue
        # the final level keeps the centers of its cells for projection, the
        # levels before it the index of each kept cell to subdivide
        final = level == cfg.lod_end
        edge = cfg.cell_edge(level)
        cells, values, evals = [], [], 0
        for idx in _child_blocks(kept):
            centers = cfg.bounds.min[:, None] + (idx + 0.5) * cell
            sdf = f.eval(centers)
            occ = sdf < edge if cfg.literal_occupancy else np.abs(sdf) < edge
            cells.append((centers if final else idx)[:, occ])
            values.append(sdf[occ])
            evals += idx.shape[1]
        stats.evals_per_level[level] = evals
        stats.total_sdf_evals += evals
        kept = np.concatenate(cells, axis=1)
        del cells
        if kept.shape[1] == 0:
            stats.no_surface = True
            stats.wall_time = time.perf_counter() - t0
            return SurfaceSamples.empty(), stats
        if not final:
            _check_level_cells(level + 1, 8 * kept.shape[1])

    centers, values = kept, np.concatenate(values)
    samples = project_to_surface(f, centers, h=cfg.cell_edge(cfg.lod_end) / 4.0,
                                 stats=stats, values=values)

    stats.dropped_points = centers.shape[1] - len(samples)
    stats.surface_points = len(samples)
    stats.wall_time = time.perf_counter() - t0
    return samples, stats


def dense_extract(f: SdfField, resolution: int, band: float) -> SurfaceSamples:
    """Brute-force baseline: evaluate every cell center of a regular grid
    over the default cube, keep |sdf| <= band, and project the survivors
    onto the surface."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not 0 < band < np.inf:  # NaN fails too
        raise ValueError(f"band must be finite and positive, got {band}")
    bounds = cube_bounds()
    cell = bounds.extent / resolution
    ax = [bounds.min[i] + (np.arange(resolution) + 0.5) * cell[i] for i in range(3)]
    xyz = np.stack(np.meshgrid(*ax, indexing="ij")).reshape(3, -1)
    sdf = f.eval(xyz)
    band_mask = np.abs(sdf) <= band
    return project_to_surface(f, xyz[:, band_mask], h=float(cell.max()) / 4.0,
                              values=sdf[band_mask])
