import dataclasses
import tracemalloc

import numpy as np
import pytest

import radiant.octree
from radiant.core_math import Aabb, cube_bounds
from radiant.errors import RadiantError
from radiant.fields import BoxSdf, SdfField, SphereSdf, UnionSdf
from radiant.metrics import chamfer
from radiant.octree import (
    ExtractionStats,
    LodConfig,
    SurfaceSamples,
    dense_extract,
    extract_surface,
    project_to_surface,
    samples_to_arrays,
)

SPHERE = SphereSdf((0, 0, 0), 0.5)
BOX = BoxSdf((0, 0, 0), (0.35, 0.3, 0.25))
UNION = UnionSdf(
    [SphereSdf((-0.35, 0, 0), 0.3), BoxSdf((0.35, 0, 0), (0.25, 0.25, 0.25))]
)


class FarAwaySdf(SdfField):
    """Always farther from the surface than the bounds diagonal."""

    def eval(self, xyz):
        return np.full(np.asarray(xyz).shape[1:], 10.0)


class CountingSdf(SdfField):
    """Counts every point evaluated through it, and the most one call got."""

    def __init__(self, inner):
        self.inner, self.points, self.most = inner, 0, 0

    def eval(self, xyz):
        n = np.asarray(xyz).size // 3
        self.points += n
        self.most = max(self.most, n)
        return self.inner.eval(xyz)


class TestExtractSurface:
    def test_sphere_samples_on_surface(self):
        samples, stats = extract_surface(SPHERE, LodConfig())
        pos, nrm = samples_to_arrays(samples)
        assert len(samples) > 1000
        assert np.abs(np.linalg.norm(pos, axis=1) - 0.5).max() <= 1e-3
        assert np.abs(np.linalg.norm(nrm, axis=1) - 1.0).max() < 1e-9
        assert stats.surface_points == len(samples)
        assert stats.total_sdf_evals == sum(stats.evals_per_level.values())

    def test_empty_field_flags_no_surface(self):
        samples, stats = extract_surface(FarAwaySdf(), LodConfig())
        assert len(samples) == 0
        assert vars(samples).keys() == {"positions", "normals"}
        assert samples.positions.shape == samples.normals.shape == (0, 3)
        assert stats.no_surface

    def test_eval_budget_on_sphere(self):
        # re-derived on this fixture: 17984 evals, well under 10% of 64^3
        _, stats = extract_surface(SPHERE, LodConfig(3, 6))
        assert stats.total_sdf_evals <= 0.10 * 64**3
        assert stats.total_sdf_evals == 17984

    def test_deterministic(self):
        s1, _ = extract_surface(UNION, LodConfig())
        s2, _ = extract_surface(UNION, LodConfig())
        p1, n1 = samples_to_arrays(s1)
        p2, n2 = samples_to_arrays(s2)
        assert np.array_equal(p1, p2) and np.array_equal(n1, n2)

    def test_residuals_shrink(self):
        samples, _ = extract_surface(BOX, LodConfig())
        res = BOX.eval(samples.positions.T)
        assert np.abs(res).max() <= 1e-3 * LodConfig().bounds.diagonal

    def test_literal_occupancy_keeps_interior(self):
        shell, _ = extract_surface(SPHERE, LodConfig(3, 5))
        literal, stats = extract_surface(
            SPHERE, LodConfig(3, 5, literal_occupancy=True)
        )
        # signed rule also keeps the watertight interior
        assert stats.total_sdf_evals > 0
        assert len(literal) > len(shell)


class TestDenseExtract:
    def test_matches_triple_loop_oracle(self):
        res, band = 16, 0.05
        kept_oracle = 0
        for i in range(res):
            for j in range(res):
                for k in range(res):
                    p = -1 + (np.array([i, j, k]) + 0.5) * (2 / res)
                    if abs(SPHERE.eval(p)) <= band:
                        kept_oracle += 1
        samples = dense_extract(SPHERE, res, band)
        assert len(samples) == kept_oracle

    def test_huge_band_keeps_all(self):
        bounds = Aabb([-1, -1, -1], [1, 1, 1])
        samples = dense_extract(SPHERE, 8, band=bounds.diagonal)
        assert len(samples) == 8**3

    def test_projected_points_on_sphere(self):
        samples = dense_extract(SPHERE, 64, 0.03)
        pos, _ = samples_to_arrays(samples)
        assert np.abs(np.linalg.norm(pos, axis=1) - 0.5).max() <= 1e-3


class TestProjectToSurface:
    def test_single_step_exact_on_distance_field(self):
        out = project_to_surface(SPHERE, [[0.6], [0.0], [0.0]])
        assert np.abs(out.positions[0] - (0.5, 0, 0)).max() < 1e-9

    def test_surface_point_unchanged(self):
        out = project_to_surface(SPHERE, [[0.0], [0.5], [0.0]])
        assert np.abs(out.positions[0] - (0, 0.5, 0)).max() < 1e-9

    def test_monotone_residuals_batch(self):
        rng = np.random.default_rng(5)
        xyz = rng.uniform(-0.9, 0.9, size=(3, 128))
        before = np.abs(BOX.eval(xyz))
        out = project_to_surface(BOX, xyz)
        assert len(out) == 128
        after = np.abs(BOX.eval(out.positions.T))
        assert np.all(after <= before + 1e-9)

    def test_record_arrays(self):
        xyz = np.random.default_rng(6).uniform(-0.9, 0.9, size=(3, 40))
        out = project_to_surface(BOX, xyz)
        assert isinstance(out, SurfaceSamples) and len(out) == 40
        assert vars(out).keys() == {"positions", "normals"}
        assert out.positions.shape == out.normals.shape == (40, 3)
        assert all(a.dtype == np.float64 for a in samples_to_arrays(out))
        # one step leaves an SDF value at the samples: smaller, but not zero
        residuals = BOX.eval(out.positions.T)
        assert residuals.shape == (40,) and np.count_nonzero(residuals) > 0
        assert np.abs(residuals).max() < np.abs(BOX.eval(xyz)).max()

    def test_points_as_columns_refused(self):
        with pytest.raises(ValueError, match=r"\(3, \.\.\.\)"):
            project_to_surface(SPHERE, np.full((40, 3), 0.6))


def same_samples(a: SurfaceSamples, b: SurfaceSamples) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in
               zip(samples_to_arrays(a), samples_to_arrays(b)))


class TestTraversalValuesReused:
    """Projection takes its first step's SDF values from the final traversal
    level; the samples are bit for bit those of evaluating the centers again."""

    @pytest.mark.parametrize("field", [SPHERE, BOX, UNION], ids=["sphere", "box", "union"])
    @pytest.mark.parametrize("literal", [False, True], ids=["shell", "literal"])
    def test_extract_equals_fresh_projection(self, monkeypatch, field, literal):
        calls = []
        real = radiant.octree.project_to_surface

        def spy(f, points, **kw):
            calls.append((points, kw))
            return real(f, points, **kw)

        monkeypatch.setattr(radiant.octree, "project_to_surface", spy)
        cfg = LodConfig(3, 5, literal_occupancy=literal)
        samples, _ = extract_surface(field, cfg)
        [(centers, kw)] = calls
        assert kw["values"].tobytes() == field.eval(centers).tobytes()
        fresh = real(field, centers, h=kw["h"])
        assert len(samples) > 0 and same_samples(samples, fresh)

    def test_dense_extract_equals_fresh_projection(self):
        res, band = 24, 0.05
        ax = -1 + (np.arange(res) + 0.5) * (2 / res)
        xyz = np.stack(np.meshgrid(ax, ax, ax, indexing="ij")).reshape(3, -1)
        kept = xyz[:, np.abs(UNION.eval(xyz)) <= band]
        fresh = project_to_surface(UNION, kept, h=(2 / res) / 4.0)
        assert same_samples(dense_extract(UNION, res, band), fresh)

    def test_values_count_as_no_evals(self):
        xyz = np.random.default_rng(8).uniform(-0.9, 0.9, size=(3, 50))
        counting = CountingSdf(BOX)
        stats = ExtractionStats()
        out = project_to_surface(counting, xyz, stats=stats, values=BOX.eval(xyz))
        # six gradient taps for the step, six for the normal of the result
        assert stats.projection_evals == counting.points == (6 + 6) * len(out)
        assert same_samples(out, project_to_surface(BOX, xyz))

    def test_values_shape_checked(self):
        with pytest.raises(ValueError, match="values"):
            project_to_surface(SPHERE, np.zeros((3, 4)), values=np.zeros(3))


def same_stats(a: ExtractionStats, b: ExtractionStats) -> bool:
    a, b = dataclasses.asdict(a), dataclasses.asdict(b)
    del a["wall_time"], b["wall_time"]
    return a == b


class TestBlocks:
    """Extraction and projection run BLOCK_POINTS points at a time and give
    the same bytes and stats for every block size: one parent a traversal
    block (8), the same with ragged projection blocks (9), 64 points, and a
    single block for everything (above N)."""

    SIZES = [8, 9, 64]
    WHOLE = 1 << 30

    @pytest.mark.parametrize("field", [SPHERE, BOX, UNION], ids=["sphere", "box", "union"])
    @pytest.mark.parametrize("literal", [False, True], ids=["shell", "literal"])
    @pytest.mark.parametrize("bounds", [cube_bounds(), Aabb([-1, -0.6, -0.8], [0.9, 0.6, 0.8])],
                             ids=["cube", "noncubic"])
    def test_extraction_ignores_block_size(self, monkeypatch, field, literal, bounds):
        cfg = LodConfig(2, 5, bounds=bounds, literal_occupancy=literal)
        monkeypatch.setattr(radiant.octree, "BLOCK_POINTS", self.WHOLE)
        whole, whole_stats = extract_surface(field, cfg)
        assert len(whole) > 100
        for size in self.SIZES:
            monkeypatch.setattr(radiant.octree, "BLOCK_POINTS", size)
            samples, stats = extract_surface(field, cfg)
            assert same_samples(samples, whole), size
            assert same_stats(stats, whole_stats), size

    def test_no_surface_ignores_block_size(self, monkeypatch):
        monkeypatch.setattr(radiant.octree, "BLOCK_POINTS", 9)
        samples, stats = extract_surface(FarAwaySdf(), LodConfig(2, 4))
        assert len(samples) == 0 and stats.no_surface
        assert stats.evals_per_level == {2: 64}

    def test_no_eval_call_exceeds_a_block(self, monkeypatch):
        # the gradient taps of a projection block are evaluated in one call
        # of 3 * BLOCK_POINTS points; no call sees a whole level
        monkeypatch.setattr(radiant.octree, "BLOCK_POINTS", 64)
        field = CountingSdf(UNION)
        samples, stats = extract_surface(field, LodConfig(3, 5))
        assert stats.evals_per_level[5] > 3 * 64 and len(samples) > 3 * 64
        assert field.most == 3 * 64

    @pytest.mark.parametrize("with_values", [False, True], ids=["fresh", "values"])
    def test_projection_ignores_block_size(self, monkeypatch, with_values):
        xyz = np.random.default_rng(9).uniform(-0.9, 0.9, size=(3, 70))
        values = UNION.eval(xyz) if with_values else None

        def project(size):
            monkeypatch.setattr(radiant.octree, "BLOCK_POINTS", size)
            stats = ExtractionStats()
            out = project_to_surface(UNION, xyz, stats=stats, values=values)
            return out, stats

        whole, whole_stats = project(self.WHOLE)
        assert len(whole) == 70
        for size in self.SIZES:
            out, stats = project(size)
            assert same_samples(out, whole) and same_stats(stats, whole_stats), size

    @pytest.mark.parametrize("size", SIZES + [WHOLE])
    def test_projection_of_zero_points(self, monkeypatch, size):
        monkeypatch.setattr(radiant.octree, "BLOCK_POINTS", size)
        stats = ExtractionStats()
        out = project_to_surface(SPHERE, np.zeros((3, 0)), stats=stats, values=np.zeros(0))
        assert vars(out).keys() == {"positions", "normals"}
        assert out.positions.shape == out.normals.shape == (0, 3)
        assert stats.projection_evals == 0

    @pytest.mark.parametrize("size", SIZES + [WHOLE])
    def test_vanishing_gradient_in_a_later_block(self, monkeypatch, size):
        # the sphere's center has a zero central-difference gradient; at
        # index 11 it falls in the second block of 8 or 9 points, and is
        # dropped from the middle of the output
        pts = np.random.default_rng(10).uniform(-0.9, 0.9, size=(20, 3))
        pts[11] = SPHERE.center
        monkeypatch.setattr(radiant.octree, "BLOCK_POINTS", size)
        stats = ExtractionStats()
        out = project_to_surface(SPHERE, pts.T, stats=stats)
        rest = np.delete(pts, 11, axis=0)
        assert same_samples(out, project_to_surface(SPHERE, rest.T))
        # every point costs its value and six gradient taps for the step; the
        # 19 kept points cost six more taps for their normals, the dropped one
        # none
        assert stats.projection_evals == 7 * len(pts) + 6 * len(rest)


class TestPeakMemory:
    def test_union_lod8_traced_peak(self):
        # numpy reports its buffers to tracemalloc, so the peak is exact
        # (10.2 MB); whole-level arrays made it 32.5 MB
        tracemalloc.start()
        try:
            samples, _ = extract_surface(UNION, LodConfig(3, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples) > 50_000
        assert peak < 20 * 2**20


class TestHonestStats:
    @pytest.mark.parametrize("field", [SPHERE, UNION], ids=["sphere", "union"])
    def test_traversal_plus_projection_is_every_eval(self, field):
        counting = CountingSdf(field)
        samples, stats = extract_surface(counting, LodConfig(3, 6))
        assert stats.total_sdf_evals == sum(stats.evals_per_level.values())
        assert stats.total_sdf_evals + stats.projection_evals == counting.points
        # six gradient taps per point for the step (the traversal already
        # computed the value), then six taps for the normal of the result
        assert stats.projection_evals >= (6 + 6) * len(samples)

    def test_no_surface_has_no_projection(self):
        counting = CountingSdf(FarAwaySdf())
        _, stats = extract_surface(counting, LodConfig())
        assert stats.projection_evals == 0
        assert stats.total_sdf_evals == counting.points


class TestLevelBudget:
    def test_child_level_over_budget_is_refused(self, monkeypatch):
        _, stats = extract_surface(SPHERE, LodConfig(3, 5))
        monkeypatch.setattr(radiant.octree, "MAX_LEVEL_CELLS", stats.evals_per_level[5] - 1)
        with pytest.raises(RadiantError, match=f"LoD 5 would hold {stats.evals_per_level[5]} "):
            extract_surface(SPHERE, LodConfig(3, 5))
        # a level of exactly the budget fits
        monkeypatch.setattr(radiant.octree, "MAX_LEVEL_CELLS", stats.evals_per_level[5])
        samples, _ = extract_surface(SPHERE, LodConfig(3, 5))
        assert len(samples) == stats.surface_points

    def test_start_level_over_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(radiant.octree, "MAX_LEVEL_CELLS", 8**3 - 1)
        with pytest.raises(RadiantError, match="LoD 3 would hold 512 "):
            extract_surface(SPHERE, LodConfig(3, 5))


class TestOracleEquivalence:
    @pytest.mark.parametrize("field", [SPHERE, BOX], ids=["sphere", "box"])
    def test_chamfer_octree_vs_dense(self, field):
        oct_samples, stats = extract_surface(field, LodConfig(3, 6))
        dense_samples = dense_extract(field, 64, 0.03)
        oct_pos, _ = samples_to_arrays(oct_samples)
        den_pos, _ = samples_to_arrays(dense_samples)
        finest_edge = 2.0 / 64
        assert chamfer(oct_pos, den_pos) <= 2 * finest_edge

    @pytest.mark.parametrize("field", [SPHERE, BOX, UNION], ids=["sphere", "box", "union"])
    def test_efficiency(self, field):
        _, stats = extract_surface(field, LodConfig(3, 6))
        assert stats.total_sdf_evals < 0.15 * 64**3

    @pytest.mark.parametrize("field", [SPHERE, BOX], ids=["sphere", "box"])
    def test_projected_residuals(self, field):
        samples, _ = extract_surface(field, LodConfig(3, 6))
        pos, _ = samples_to_arrays(samples)
        vals = np.abs(field.eval(pos.T))
        assert vals.max() <= 1e-3 * LodConfig().bounds.diagonal


def oracle_morton3(idx):
    """Bit-by-bit interleave: bit b of axis k to bit 3b + k."""
    codes = np.zeros(idx.shape[0], dtype=np.uint64)
    for bit in range(12):
        for axis in range(3):
            codes |= ((idx[:, axis].astype(np.uint64) >> bit) & 1) << (3 * bit + axis)
    return codes


class TestMortonOrder:
    """The final-level cell centers reach projection in Morton order."""

    LOD_END = 6

    @pytest.mark.parametrize("field", [SPHERE, BOX, UNION], ids=["sphere", "box", "union"])
    @pytest.mark.parametrize("lod_start", [1, 3, LOD_END])
    @pytest.mark.parametrize("literal", [False, True], ids=["shell", "literal"])
    def test_centers_strictly_increase(self, monkeypatch, field, lod_start, literal):
        calls = []
        real = radiant.octree.project_to_surface

        def spy(f, points, **kw):
            calls.append(points)
            return real(f, points, **kw)

        monkeypatch.setattr(radiant.octree, "project_to_surface", spy)
        cfg = LodConfig(lod_start, self.LOD_END, literal_occupancy=literal)
        _, stats = extract_surface(field, cfg)
        [centers] = calls
        cell = cfg.bounds.extent / (1 << self.LOD_END)
        idx = np.rint((centers.T - cfg.bounds.min) / cell - 0.5).astype(np.int64)
        assert np.array_equal(cfg.bounds.min + (idx + 0.5) * cell, centers.T)
        assert centers.shape[1] == stats.surface_points + stats.dropped_points > 100
        assert np.all(np.diff(oracle_morton3(idx).astype(np.int64)) > 0)
