import math
import re

import numpy as np
import pytest
from scipy.ndimage import maximum_filter

from radiant.core_math import Aabb, Intrinsics, Pose, project_point
from radiant.errors import DimsMismatch, NonPositiveDepth, OutOfBounds
from radiant.grids import VoxelGrid4D
from radiant.projmaps import (
    SemanticMapConfig,
    build_semantic_map,
    collapse_to_triplanes,
    detect_peaks,
    lift_features_to_grid,
    sample_image_feature,
    sample_param_map,
    sample_triplane,
    splat_heatmap,
)

K = Intrinsics(fx=100, fy=100, cx=50, cy=50, width=100, height=100)

# camera at the origin looking along world +x, camera-down = world -z,
# camera-right = world -y (right-handed, det +1)
R_FORWARD_X = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


class TestSemanticMap:
    def cfg(self):
        return SemanticMapConfig(r=40, cell_size=0.25, height_min=0.1,
                                 height_max=1.8, classes=5)

    def test_single_pixel_hand_case(self):
        # pixel (60, 40) at depth 2: camera point (0.2, -0.2, 2), mapped by
        # the forward-x pose to world (2, -0.2, 0.2). Height 0.2 is in band;
        # cells: floor(2/0.25 + 40) = 48, floor(-0.2/0.25 + 40) = 39, class 3
        depth = np.zeros((100, 100))
        depth[40, 60] = 2.0
        semantics = np.full((100, 100), 3)
        pose = Pose(R_FORWARD_X, (0, 0, 0))
        smap = build_semantic_map(depth, semantics, K, pose, self.cfg())
        assert smap.occupancy.sum() == 1
        assert smap.occupancy[48, 39, 3]

    def test_zero_depth_empty(self):
        depth = np.zeros((100, 100))
        smap = build_semantic_map(depth, np.zeros((100, 100), int), K,
                                  Pose(R_FORWARD_X, (0, 0, 0)), self.cfg())
        assert smap.occupancy.sum() == 0

    def test_below_band_is_free_space(self):
        # principal ray points at height 0: below height_min
        depth = np.zeros((100, 100))
        depth[50, 50] = 2.0
        smap = build_semantic_map(depth, np.zeros((100, 100), int), K,
                                  Pose(R_FORWARD_X, (0, 0, 0)), self.cfg())
        assert smap.occupancy.sum() == 0

    def test_bit_count_bounded_and_agent_centered(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(0.5, 5.0, size=(50, 50))
        semantics = rng.integers(0, 5, size=(50, 50))
        pose = Pose(R_FORWARD_X, (3.0, -2.0, 0.0))
        smap = build_semantic_map(depth, semantics, K, pose, self.cfg())
        assert smap.occupancy.sum() <= depth.size
        # a pixel projecting straight at the agent's own column maps to (r, r)
        assert smap.occupancy.shape == (80, 80, 5)

    def test_dims_mismatch(self):
        with pytest.raises(DimsMismatch):
            build_semantic_map(np.zeros((4, 4)), np.zeros((4, 5), int), K,
                               Pose(R_FORWARD_X, (0, 0, 0)), self.cfg())


class TestHeatmap:
    def test_center_is_one(self):
        h = splat_heatmap([(7, 5)], [2.0], (16, 16))
        assert h[5, 7] == 1.0
        assert h.max() == 1.0

    def test_one_sigma_value(self):
        h = splat_heatmap([(8, 8)], [3.0], (17, 17))
        assert h[8, 11] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_two_far_centers_keep_unit_peaks(self):
        sigma = 1.5
        h = splat_heatmap([(10, 10), (40, 40)], [sigma, sigma], (64, 64))
        assert h[10, 10] == 1.0
        assert h[40, 40] == 1.0

    def test_max_combination(self):
        a = splat_heatmap([(6, 8)], [2.0], (16, 16))
        b = splat_heatmap([(9, 8)], [1.0], (16, 16))
        both = splat_heatmap([(6, 8), (9, 8)], [2.0, 1.0], (16, 16))
        assert np.array_equal(both, np.maximum(a, b))


class TestDetectPeaks:
    def test_recovers_planted_center(self):
        h = splat_heatmap([(12, 9)], [2.0], (32, 32))
        peaks = detect_peaks(h, 0.3)
        assert peaks == [(12, 9, 1.0)]

    def test_zero_heatmap(self):
        assert detect_peaks(np.zeros((8, 8)), 0.3) == []

    def test_threshold_above_max(self):
        h = splat_heatmap([(4, 4)], [1.0], (9, 9))
        assert detect_peaks(h, 1.0) == []

    def test_plateau_keeps_lexicographic_min(self):
        h = np.zeros((8, 8))
        h[3:5, 3:5] = 0.9  # 2x2 plateau
        peaks = detect_peaks(h, 0.3)
        assert peaks == [(3, 3, 0.9)]

    def test_peak_on_border(self):
        h = np.zeros((6, 6))
        h[0, 0] = 0.8
        h[5, 5] = 0.7
        assert detect_peaks(h, 0.3) == [(0, 0, 0.8), (5, 5, 0.7)]

    def test_scores_sorted_descending(self):
        h = splat_heatmap([(4, 4), (14, 14)], [1.0, 1.0], (20, 20))
        h[14, 14] = 0.9  # deflate the second peak
        peaks = detect_peaks(h, 0.3)
        assert [p[2] for p in peaks] == sorted((p[2] for p in peaks), reverse=True)

    def test_many_well_separated_centers(self):
        rng = np.random.default_rng(1)
        sigma = 2.0
        centers = [(10 + 13 * i, 10 + 13 * j) for i in range(9) for j in range(9)]
        centers = [centers[i] for i in rng.permutation(len(centers))[:50]]
        h = splat_heatmap(centers, [sigma] * len(centers), (140, 140))
        peaks = detect_peaks(h, 0.3)
        assert sorted((u, v) for u, v, _ in peaks) == sorted(centers)


def detect_peaks_maximum_filter(heatmap, threshold):
    """detect_peaks as it was written on scipy.ndimage.maximum_filter: the
    oracle for the separable numpy max."""
    h = np.asarray(heatmap, dtype=np.float64)
    local_max = maximum_filter(h, size=3, mode="constant", cval=-np.inf)
    is_peak = (h == local_max) & (h > threshold)
    rows, cols = h.shape
    padded = np.pad(h, 1, constant_values=-np.inf)
    for du, dv in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):
        is_peak &= padded[1 + dv : 1 + dv + rows, 1 + du : 1 + du + cols] != h
    vs, us = np.nonzero(is_peak)
    peaks = [(int(u), int(v), float(h[v, u])) for u, v in zip(us, vs)]
    peaks.sort(key=lambda t: (-t[2], t[0], t[1]))
    return peaks


def hexed(peaks):
    return [(u, v, score.hex()) for u, v, score in peaks]


class TestDetectPeaksAgainstMaximumFilter:
    def test_random_maps_with_plateaus_and_infinities(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            rows, cols = rng.integers(1, 40, size=2)
            # one or two decimals make plateaus of equal cells
            h = np.round(rng.random((rows, cols)), int(rng.integers(1, 3)))
            special = rng.random((rows, cols))
            h[special < 0.03] = np.inf
            h[special > 0.97] = -np.inf
            threshold = float(rng.choice([0.0, 0.3, rng.random(), 1.0]))
            assert hexed(detect_peaks(h, threshold)) == \
                hexed(detect_peaks_maximum_filter(h, threshold))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (0, 5)])
    def test_thin_maps(self, shape):
        h = np.random.default_rng(3).random(shape)
        assert detect_peaks(h, 0.1) == detect_peaks_maximum_filter(h, 0.1)

    def test_all_infinite(self):
        for value in (np.inf, -np.inf):
            h = np.full((4, 5), value)
            assert detect_peaks(h, 0.5) == detect_peaks_maximum_filter(h, 0.5)

    @pytest.mark.parametrize("where", [(0, 0), (2, 3), (4, 4)])
    def test_nan_is_refused(self, where):
        h = splat_heatmap([(2, 2)], [1.0], (5, 5))
        h[where] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            detect_peaks(h, 0.3)


class TestSampleParamMap:
    def test_constant_map(self):
        pm = np.full((8, 8, 3), 0.7)
        out = sample_param_map(pm, [(2, 3), (5.4, 6.6)])
        assert np.array_equal(out, np.full((2, 3), 0.7))

    def test_planted_value(self):
        pm = np.zeros((8, 8, 2))
        pm[3, 5] = [1.0, 2.0]
        assert np.array_equal(sample_param_map(pm, [(5, 3)]), [[1.0, 2.0]])
        # nearest-pixel rounding
        assert np.array_equal(sample_param_map(pm, [(4.6, 3.4)]), [[1.0, 2.0]])

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            sample_param_map(np.zeros((4, 4, 1)), [(10, 0)])


class TestLiftFeatures:
    BOUNDS = Aabb([-0.5, -0.5, 0.5], [0.5, 0.5, 1.5])

    def test_constant_map_fills_visible(self):
        fmap = np.full((100, 100, 2), 0.3)
        vol = lift_features_to_grid(fmap, K, Pose.identity(), (4, 4, 4), self.BOUNDS)
        flat = vol.data.reshape(-1, 2)
        nonzero = np.any(flat != 0, axis=1)
        assert nonzero.any()
        assert np.array_equal(flat[nonzero], np.full((nonzero.sum(), 2), 0.3))

    def test_features_constant_along_ray(self):
        rng = np.random.default_rng(2)
        fmap = rng.uniform(0, 1, size=(100, 100, 3))
        pose = Pose.identity()
        vol1 = lift_features_to_grid(fmap, K, pose, (1, 1, 1),
                                     Aabb([-0.01, -0.01, 0.9], [0.01, 0.01, 1.1]))
        vol2 = lift_features_to_grid(fmap, K, pose, (1, 1, 1),
                                     Aabb([-0.02, -0.02, 1.8], [0.02, 0.02, 2.2]))
        # both cells sit on the optical axis: identical features at two depths
        assert np.allclose(vol1.data, vol2.data)

    def test_linear_in_u_matches_hand_projection(self):
        fmap = np.zeros((100, 100, 1))
        fmap[..., 0] = np.arange(100)[None, :]  # feature = u
        x = np.array([0.123, 0.0, 1.0])
        vol = lift_features_to_grid(fmap, K, Pose.identity(), (1, 1, 1),
                                    Aabb(x - 1e-6, x + 1e-6))
        u_expected = 100 * 0.123 / 1.0 + 50
        assert vol.data[0, 0, 0, 0] == pytest.approx(u_expected, abs=1e-9)

    def test_out_of_frustum_zero(self):
        fmap = np.full((100, 100, 1), 0.9)
        behind = Aabb([-0.1, -0.1, -2.0], [0.1, 0.1, -1.0])
        vol = lift_features_to_grid(fmap, K, Pose.identity(), (2, 2, 2), behind)
        assert np.array_equal(vol.data, np.zeros_like(vol.data))


class TestTriplanes:
    def make_volume(self, rng, n=8, c=3):
        return VoxelGrid4D(rng.uniform(0, 1, size=(n, n, n, c)),
                           Aabb([-1, -1, -1], [1, 1, 1]))

    def test_constant_volume(self):
        vol = VoxelGrid4D(np.full((4, 4, 4, 2), 0.6), Aabb([-1, -1, -1], [1, 1, 1]))
        tp = collapse_to_triplanes(vol)
        assert np.array_equal(tp.s_xy, np.full((4, 4, 2), 0.6))
        assert np.array_equal(tp.s_xz, np.full((4, 4, 2), 0.6))
        assert np.array_equal(tp.s_yz, np.full((4, 4, 2), 0.6))

    def test_single_cell_spreads_mean(self):
        vol = VoxelGrid4D.zeros((4, 4, 4), 1, Aabb([-1, -1, -1], [1, 1, 1]))
        vol.data[1, 2, 3, 0] = 4.0
        tp = collapse_to_triplanes(vol)
        assert tp.s_xy[1, 2, 0] == 1.0  # 4 / K with K = 4
        assert tp.s_xz[1, 3, 0] == 1.0
        assert tp.s_yz[2, 3, 0] == 1.0
        assert tp.s_xy.sum() == 1.0

    def test_permutation_along_collapsed_axis(self):
        rng = np.random.default_rng(3)
        vol = self.make_volume(rng)
        tp1 = collapse_to_triplanes(vol)
        shuffled = VoxelGrid4D(vol.data[:, :, rng.permutation(8)], vol.bounds)
        tp2 = collapse_to_triplanes(shuffled)
        assert np.allclose(tp1.s_xy, tp2.s_xy)

    def test_constant_planes_concatenate(self):
        bounds = Aabb([-1, -1, -1], [1, 1, 1])
        tp = collapse_to_triplanes(VoxelGrid4D(np.zeros((4, 4, 4, 2)), bounds))
        tp.s_xy[...] = 0.1
        tp.s_xz[...] = 0.2
        tp.s_yz[...] = 0.3
        out = sample_triplane(tp, [(0.0, 0.0, 0.0)])
        assert np.allclose(out, [[0.1, 0.1, 0.2, 0.2, 0.3, 0.3]])

    def test_grid_nodes_match_axis_mean_oracle(self):
        rng = np.random.default_rng(4)
        vol = self.make_volume(rng, n=8, c=2)
        tp = collapse_to_triplanes(vol)
        centers = vol.voxel_centers().reshape(8, 8, 8, 3)
        nodes = [(0, 0, 0), (3, 5, 7), (7, 7, 7), (2, 6, 1)]
        out = sample_triplane(tp, [centers[n] for n in nodes])
        for (i, j, k), got in zip(nodes, out):
            xy = np.mean([vol.data[i, j, kk] for kk in range(8)], axis=0)
            xz = np.mean([vol.data[i, jj, k] for jj in range(8)], axis=0)
            yz = np.mean([vol.data[ii, j, k] for ii in range(8)], axis=0)
            assert np.allclose(got, np.concatenate([xy, xz, yz]), atol=1e-12)

    def test_linear_plane_bilinear(self):
        bounds = Aabb([0, 0, 0], [4, 4, 4])
        vol = VoxelGrid4D.zeros((4, 4, 4), 1, bounds)
        vol.data[...] = np.arange(4)[:, None, None, None]  # linear in x index
        tp = collapse_to_triplanes(vol)
        # halfway between the first two x-centers: bilinear gives 0.5
        out = sample_triplane(tp, [(1.0, 2.0, 2.0)])
        assert out[0, 0] == pytest.approx(0.5)

    def test_outside_clamps(self):
        rng = np.random.default_rng(5)
        vol = self.make_volume(rng, n=4, c=1)
        tp = collapse_to_triplanes(vol)
        corner_node = vol.voxel_centers().reshape(4, 4, 4, 3)[0, 0, 0]
        inside, outside = sample_triplane(tp, [corner_node, corner_node - 10.0])
        assert np.allclose(inside, outside)


class TestSampleImageFeature:
    def test_constant(self):
        fmap = np.full((100, 100, 4), 0.25)
        out = sample_image_feature(fmap, K, Pose.identity(), [(0.1, -0.1, 2.0)])
        assert np.array_equal(out, np.full((1, 4), 0.25))

    def test_exact_pixel_center(self):
        fmap = np.zeros((100, 100, 1))
        fmap[50, 60, 0] = 3.0
        # u = 100 * 0.2 / 2 + 50 = 60, v = 50
        out = sample_image_feature(fmap, K, Pose.identity(), [(0.2, 0.0, 2.0)])
        assert out[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_behind_camera(self):
        with pytest.raises(NonPositiveDepth):
            sample_image_feature(np.zeros((4, 4, 1)), K, Pose.identity(), [(0, 0, -1)])

    def test_out_of_image_zeros(self):
        fmap = np.full((100, 100, 2), 0.9)
        out = sample_image_feature(fmap, K, Pose.identity(), [(5.0, 0.0, 1.0)])
        assert np.array_equal(out, np.zeros((1, 2)))


# Per-point oracles: the one-point samplers the batched calls replaced, with
# the bilinear arithmetic written out on Python floats in the same order.
def bilinear_at(fmap, u, v):
    rows, cols = fmap.shape[:2]
    x = min(max(u, 0.0), cols - 1.0)
    y = min(max(v, 0.0), rows - 1.0)
    x0 = min(math.floor(x), max(cols - 2, 0))
    y0 = min(math.floor(y), max(rows - 2, 0))
    x1, y1 = min(x0 + 1, cols - 1), min(y0 + 1, rows - 1)
    fx, fy = x - x0, y - y0
    top = fmap[y0, x0] * (1 - fx) + fmap[y0, x1] * fx
    bot = fmap[y1, x0] * (1 - fx) + fmap[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def triplane_at(tp, x):
    cell = tp.bounds.extent / np.array(tp.dims, dtype=np.float64)
    cx, cy, cz = ((np.asarray(x) - tp.bounds.min) / cell - 0.5).tolist()
    planes = ((tp.s_xy, cx, cy), (tp.s_xz, cx, cz), (tp.s_yz, cy, cz))
    return np.concatenate([bilinear_at(p.swapaxes(0, 1), u, v) for p, u, v in planes])


def image_feature_at(fmap, k, pose, x):
    (u, v), _ = project_point(k, pose, x)
    rows, cols = fmap.shape[:2]
    if not (0.0 <= u <= cols - 1.0 and 0.0 <= v <= rows - 1.0):
        return np.zeros(fmap.shape[2])
    return bilinear_at(fmap, u, v)


def param_map_at(pm, u, v):
    ui, vi = math.floor(u + 0.5), math.floor(v + 0.5)
    rows, cols = pm.shape[:2]
    if not (0 <= ui < cols and 0 <= vi < rows):
        raise OutOfBounds(f"center ({u:g}, {v:g})")
    return np.array(pm[vi, ui], dtype=np.float64)


class TestBatchedSamplersAgainstPerPoint:
    def test_triplane_bit_equal(self):
        rng = np.random.default_rng(20)
        bounds = Aabb([-1.0, -0.5, 0.0], [1.0, 1.5, 0.5])
        tp = collapse_to_triplanes(VoxelGrid4D(rng.normal(size=(6, 5, 4, 3)), bounds))
        # a box half again as wide as the bounds: many points clamp
        pts = rng.uniform(bounds.min - 0.5, bounds.max + 0.5, (2000, 3))
        assert not bounds.contains(pts).all() and bounds.contains(pts).any()
        got = sample_triplane(tp, pts)
        assert got.shape == (2000, 9)
        want = np.array([triplane_at(tp, x) for x in pts])
        assert np.array_equal(got, want)

    def test_image_feature_bit_equal(self):
        rng = np.random.default_rng(21)
        fmap = rng.normal(size=(30, 40, 2))
        k = Intrinsics(fx=35, fy=30, cx=19.5, cy=14.5, width=40, height=30)
        pose = Pose(R_FORWARD_X, (0.3, -0.2, 0.1))
        # in front of the camera (world +x), about a third outside the image
        pts = np.column_stack([rng.uniform(0.5, 3.0, 2000), rng.uniform(-2.5, 2.5, (2000, 2))])
        got = sample_image_feature(fmap, k, pose, pts)
        want = np.array([image_feature_at(fmap, k, pose, x) for x in pts])
        outside = (want == 0).all(axis=1)
        assert 200 < outside.sum() < 1800
        assert got.shape == (2000, 2) and np.array_equal(got, want)

    def test_image_feature_one_point_behind_raises(self):
        pts = np.array([(0.0, 0.0, 1.0)] * 5 + [(0.0, 0.0, 0.0), (0.0, 0.0, -1.0)])
        with pytest.raises(NonPositiveDepth, match="depth 0 "):
            sample_image_feature(np.zeros((4, 4, 1)), K, Pose.identity(), pts)

    def test_param_map_equal(self):
        rng = np.random.default_rng(22)
        pm = rng.normal(size=(12, 20, 4))
        # centers round to pixels inside the map: u in [-0.5, 19.5), v in [-0.5, 11.5)
        uv = rng.uniform((-0.5, -0.5), (19.49, 11.49), (2000, 2))
        got = sample_param_map(pm, uv)
        assert got.dtype == np.float64 and got.shape == (2000, 4)
        assert np.array_equal(got, [param_map_at(pm, u, v) for u, v in uv])

    def test_param_map_names_first_center_outside(self):
        rng = np.random.default_rng(23)
        uv = rng.uniform((-3.0, -3.0), (23.0, 15.0), (1000, 2))
        outside = [not (0 <= math.floor(u + 0.5) < 20 and 0 <= math.floor(v + 0.5) < 12)
                   for u, v in uv]
        u, v = uv[outside.index(True)]
        assert outside.index(True) > 0 and sum(outside) > 1
        with pytest.raises(OutOfBounds, match=re.escape(f"center ({u:g}, {v:g}) outside 20x12")):
            sample_param_map(np.zeros((12, 20, 1)), uv)

    @pytest.mark.parametrize("pts", [(0.0, 0.0, 1.0), [(0.0, 0.0)], [(0.0, np.nan, 1.0)],
                                     [(0.0, 0.0, np.inf)]])
    def test_points_must_be_finite_n_by_3(self, pts):
        tp = collapse_to_triplanes(VoxelGrid4D(np.zeros((2, 2, 2, 1)), Aabb([0, 0, 0], [1, 1, 1])))
        with pytest.raises(ValueError, match="finite"):
            sample_triplane(tp, pts)
        with pytest.raises(ValueError, match="finite"):
            sample_image_feature(np.zeros((4, 4, 1)), K, Pose.identity(), pts)

    @pytest.mark.parametrize("centers", [(1.0, 1.0), [(1.0, 1.0, 1.0)], [(np.nan, 1.0)]])
    def test_centers_must_be_finite_n_by_2(self, centers):
        with pytest.raises(ValueError, match="finite"):
            sample_param_map(np.zeros((4, 4, 1)), centers)
