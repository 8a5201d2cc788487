import math

import numpy as np
import pytest

from radiant import gridsample
from radiant.core_math import Aabb, Pose
from radiant.errors import EmptyScene
from radiant.fields import BallField, ConstantField, GaussianBlobField, GridField, RadianceField
from radiant.grids import VoxelGrid4D
from radiant.gridsample import compute_scene_bounds, resample_grid, sample_grid
from radiant.metrics import OrientedBox3

CUBE = Aabb([-1, -1, -1], [1, 1, 1])


class TestSceneBounds:
    def test_eight_cameras_with_margin(self):
        cams = [
            Pose(np.eye(3), (sx, sy, sz))
            for sx in (-1, 1)
            for sy in (-1, 1)
            for sz in (-1, 1)
        ]
        b = compute_scene_bounds(cams, margin=0.1)
        assert np.allclose(b.min, [-1.2, -1.2, -1.2])
        assert np.allclose(b.max, [1.2, 1.2, 1.2])

    def test_single_camera_degenerate(self):
        with pytest.raises(EmptyScene):
            compute_scene_bounds([Pose.identity()], margin=0.0)

    def test_no_inputs(self):
        with pytest.raises(EmptyScene):
            compute_scene_bounds([], [])

    def test_boxes_only_corner_oracle(self):
        box = OrientedBox3((1, 2, 3), (2, 1, 0.5), yaw=math.radians(30))
        b = compute_scene_bounds([], [box], margin=0.0)
        # independent corner enumeration
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        corners = []
        for dx in (-1, 1):
            for dy in (-1, 1):
                for dz in (-1, 1):
                    lx, ly, lz = dx * 1.0, dy * 0.5, dz * 0.25
                    corners.append(
                        [1 + c * lx - s * ly, 2 + s * lx + c * ly, 3 + lz]
                    )
        corners = np.array(corners)
        assert np.allclose(b.min, corners.min(axis=0))
        assert np.allclose(b.max, corners.max(axis=0))


class TestSampleGrid:
    def test_constant_transparent_red(self):
        field = ConstantField((1, 0, 0), 0.0)
        g = sample_grid(field, CUBE, (4, 4, 4))
        assert np.array_equal(g.data[..., :3], np.tile([1.0, 0, 0], (4, 4, 4, 1)))
        assert np.array_equal(g.data[..., 3], np.zeros((4, 4, 4)))

    def test_constant_density_alpha(self):
        field = ConstantField((0, 0, 0), 100.0)
        g = sample_grid(field, CUBE, (3, 3, 3))
        assert np.abs(g.data[..., 3] - (1 - math.exp(-1))).max() < 1e-15

    def test_alpha_monotone_in_sigma(self):
        lo = sample_grid(ConstantField((0, 0, 0), 5.0), CUBE, (2, 2, 2))
        hi = sample_grid(ConstantField((0, 0, 0), 9.0), CUBE, (2, 2, 2))
        assert np.all(hi.data[..., 3] > lo.data[..., 3])
        assert np.all(hi.data[..., 3] < 1.0)

    def test_round_trip_through_grid_field(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 0.97, size=(16, 16, 16, 4))
        g = VoxelGrid4D(data, CUBE)
        resampled = sample_grid(GridField(g), g.bounds, g.dims)
        assert np.array_equal(resampled.data[..., :3], g.data[..., :3])
        assert np.abs(resampled.data[..., 3] - g.data[..., 3]).max() < 1e-9


def view_independent_fields():
    grid = VoxelGrid4D(np.random.default_rng(2).uniform(0, 0.9, (5, 4, 3, 4)), CUBE)
    return [ConstantField((0.2, 0.4, 0.6), 30.0),
            GaussianBlobField((0.9, 0.5, 0.1), 20.0, (0.1, -0.2, 0.0), 0.5),
            BallField((1.0, 0.0, 0.5), 40.0, (0.0, 0.2, 0.0), 0.7),
            GridField(grid)]


def count_evals(monkeypatch, field) -> list:
    """Points per eval call of this field, recorded while sample_grid runs."""
    calls, original = [], field.eval

    def counted(pts):
        calls.append(np.shape(pts)[1])
        return original(pts)

    monkeypatch.setattr(field, "eval", counted)
    return calls


class TestViewIndependence:
    """Radiance fields take positions only, so every field is evaluated
    once per chunk of voxels."""

    @pytest.mark.parametrize("field", view_independent_fields(),
                             ids=["constant", "gaussian", "ball", "grid"])
    def test_evaluated_once_per_chunk(self, monkeypatch, field):
        monkeypatch.setattr(gridsample, "CHUNK_VOXELS", 10)
        calls = count_evals(monkeypatch, field)
        sample_grid(field, CUBE, (3, 3, 3))
        assert calls == [10, 10, 7]


def meshgrid_centers(grid: VoxelGrid4D) -> np.ndarray:
    """Every voxel center, built as VoxelGrid4D.voxel_centers built them:
    per-axis coordinates, a meshgrid and a stack."""
    axes = [grid.bounds.min[i] + (np.arange(grid.dims[i]) + 0.5) * grid.cell_size[i]
            for i in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def strided_sample_grid(field, bounds, dims) -> VoxelGrid4D:
    """sample_grid by its definition: one eval over every voxel center, the
    extraction formula for alpha, and 0.0 added to every value, written into
    the first 3 and the last column of one (N, 4) array."""
    grid = VoxelGrid4D.zeros(dims, 4, bounds)
    colors, sigmas = field.eval(meshgrid_centers(grid).T)
    acc = np.empty((len(sigmas), 4))
    acc[:, :3] = colors.T + 0.0
    acc[:, 3] = -np.expm1(-np.asarray(sigmas, dtype=np.float64) * 0.01) + 0.0
    grid.data = acc.reshape(*grid.dims, 4)
    return grid


class SignedZeroField(RadianceField):
    """-0.0 colors and sigmas for x < 0, NaN for x > 0.5, and a value that
    depends on the point in between."""

    def eval(self, xyz):
        x = xyz[0]
        colors = np.where(x < 0, -0.0, np.where(x > 0.5, np.nan, np.abs(xyz)))
        sigmas = np.where(x < 0, -0.0, np.where(x > 0.5, np.nan, 40.0 * colors[0]))
        return colors, sigmas


class TestContiguousSums:
    """sample_grid's contiguous per-chunk writes give the bytes of the (N, 4)
    strided oracle over every voxel center."""

    FIELDS = {"constant": view_independent_fields()[0],
              "gaussian": view_independent_fields()[1],
              "ball": view_independent_fields()[2],
              "grid": view_independent_fields()[3],
              "signed-zero-independent": SignedZeroField()}

    @pytest.mark.parametrize("chunk", [1, 7, 7 * 6 * 5], ids=["1", "7", "whole"])
    @pytest.mark.parametrize("name", list(FIELDS))
    def test_bits_equal_strided_accumulator(self, monkeypatch, name, chunk):
        field = self.FIELDS[name]
        bounds = Aabb([-1.0, -0.5, -0.25], [1.0, 0.75, 1.0])
        want = strided_sample_grid(field, bounds, (7, 6, 5))
        monkeypatch.setattr(gridsample, "CHUNK_VOXELS", chunk)
        got = sample_grid(field, bounds, (7, 6, 5))
        assert got.data.shape == want.data.shape
        assert got.data.tobytes() == want.data.tobytes()
        if name.startswith("signed-zero"):
            # -0.0 values are stored as +0.0; NaN stays NaN
            assert np.isnan(got.data).any() and (got.data == 0).any()
            assert not np.signbit(got.data[got.data == 0]).any()

    def test_voxel_centers_range_bits_equal_meshgrid(self):
        grid = VoxelGrid4D.zeros((7, 6, 5), 4, Aabb([-1.0, -0.5, -0.25], [1.0, 0.75, 1.0]))
        want = meshgrid_centers(grid)
        assert grid.voxel_centers().tobytes() == want.tobytes()
        for lo, hi in [(0, 1), (0, 7), (5, 36), (31, 210), (209, 210), (40, 40)]:
            assert grid.voxel_centers(lo, hi).tobytes() == want[lo:hi].tobytes()


class TestResampleGrid:
    def test_identity_dims(self):
        rng = np.random.default_rng(1)
        g = VoxelGrid4D(rng.uniform(size=(4, 5, 6, 4)), CUBE)
        out = resample_grid(g, (4, 5, 6))
        assert np.array_equal(out.data, g.data)

    def test_constant_stays_constant(self):
        g = VoxelGrid4D(np.full((3, 3, 3, 4), 0.25), CUBE)
        out = resample_grid(g, (7, 5, 9))
        assert np.array_equal(out.data, np.full((7, 5, 9, 4), 0.25))

    def test_linear_ramp_align_corners(self):
        g = VoxelGrid4D.zeros((2, 1, 1), 4, Aabb([0, 0, 0], [1, 1, 1]))
        g.data[1, 0, 0, :] = 1.0
        out = resample_grid(g, (3, 2, 2))
        assert np.allclose(out.data[:, 0, 0, 0], [0.0, 0.5, 1.0])

    def test_up_down_round_trip(self):
        rng = np.random.default_rng(2)
        const = VoxelGrid4D(np.full((4, 4, 4, 4), 0.6), CUBE)
        back = resample_grid(resample_grid(const, (8, 8, 8)), (4, 4, 4))
        assert np.array_equal(back.data, const.data)

        ramp = VoxelGrid4D.zeros((4, 4, 4), 4, CUBE)
        ramp.data[...] = np.linspace(0, 1, 4)[:, None, None, None]
        back = resample_grid(resample_grid(ramp, (7, 7, 7)), (4, 4, 4))
        assert np.abs(back.data - ramp.data).max() < 1e-9
