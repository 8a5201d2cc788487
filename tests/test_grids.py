import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiant import grids
from radiant.core_math import Aabb
from radiant.grids import sigma_to_alpha, trilinear
from radiant.metrics import OrientedBox3

# query_coords(..., n=QUERY_N) gives 10,002 points: more than two default
# trilinear blocks
QUERY_N = 2000


def corner_tuple_trilinear(data, coords):
    """The formula the flat-index gather replaced, kept as its oracle: the
    same clamping, snapping and degenerate-axis handling, then eight
    3-tuple fancy indexes and the lerps on (N, C) rows."""
    dims = np.array(data.shape[:3])
    c = np.clip(coords, 0.0, dims - 1.0)
    snapped = np.rint(c)
    c = np.where(np.abs(c - snapped) < 1e-9, snapped, c)
    i0 = np.floor(c).astype(np.int64)
    i0 = np.minimum(i0, dims - 2)
    i0 = np.maximum(i0, 0)
    f = c - i0
    if (dims == 1).any():
        f = np.where(dims - 1 == 0, 0.0, f)
        i0 = np.minimum(i0, np.maximum(dims - 2, 0))
    x0, y0, z0 = i0[..., 0], i0[..., 1], i0[..., 2]
    x1 = np.minimum(x0 + 1, dims[0] - 1)
    y1 = np.minimum(y0 + 1, dims[1] - 1)
    z1 = np.minimum(z0 + 1, dims[2] - 1)
    fx, fy, fz = (f[..., i, None] for i in range(3))
    c00 = data[x0, y0, z0] * (1 - fx) + data[x1, y0, z0] * fx
    c01 = data[x0, y0, z1] * (1 - fx) + data[x1, y0, z1] * fx
    c10 = data[x0, y1, z0] * (1 - fx) + data[x1, y1, z0] * fx
    c11 = data[x0, y1, z1] * (1 - fx) + data[x1, y1, z1] * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return c0 * (1 - fz) + c1 * fz


def query_coords(rng, dims, n=400):
    """Interior, out-of-range, boundary, integer and near-integer (snapped)
    coordinates for a grid of the given dims."""
    top = np.array(dims) - 1.0
    interior = rng.uniform(0.0, top, (n, 3))
    outside = rng.uniform(-2.0, top + 2.0, (n, 3))
    integers = rng.integers(0, np.array(dims), (n, 3)).astype(np.float64)
    near_int = integers + rng.uniform(-5e-10, 5e-10, (n, 3))
    faces = interior.copy()
    axis = rng.integers(0, 3, n)
    faces[np.arange(n), axis] = np.where(rng.random(n) < 0.5, 0.0, top[axis])
    return np.concatenate([interior, outside, integers, near_int, faces, [top, np.zeros(3)]])


class TestTrilinear:
    @pytest.mark.parametrize("dims", [(5, 4, 6), (1, 4, 3), (3, 1, 1), (1, 1, 1),
                                      (2, 2, 2), (2, 1, 5), (1, 2, 1)])
    @pytest.mark.parametrize("channels", [1, 4])
    def test_matches_corner_tuple_formula(self, dims, channels):
        rng = np.random.default_rng([len(dims), *dims, channels])
        data = rng.normal(size=(*dims, channels))
        coords = query_coords(rng, dims, n=QUERY_N)
        assert len(coords) > 2 * grids.TRILINEAR_BLOCK
        got = trilinear(data, coords.T).T
        want = corner_tuple_trilinear(data, coords)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    # block 1 runs ~10k blocks, so the block sizes run on one regular and one
    # degenerate grid of the matrix above
    @pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "over-N"])
    @pytest.mark.parametrize("dims,channels", [((5, 4, 6), 4), ((2, 1, 5), 1)])
    def test_bytes_do_not_depend_on_the_block_size(self, monkeypatch, dims, channels, block):
        rng = np.random.default_rng([len(dims), *dims, channels])
        data = rng.normal(size=(*dims, channels))
        coords = query_coords(rng, dims, n=QUERY_N)
        monkeypatch.setattr(grids, "TRILINEAR_BLOCK", block or len(coords) + 1)
        got = trilinear(data, coords.T).T
        want = corner_tuple_trilinear(data, coords)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    def test_coords_are_not_written(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(4, 3, 5, 2))
        coords = np.asfortranarray(query_coords(rng, data.shape[:3]))
        before = coords.copy()
        trilinear(data, coords.T)
        assert np.array_equal(coords, before)

    def test_no_points(self):
        got = trilinear(np.ones((3, 3, 3, 4)), np.zeros((3, 0)))
        assert got.shape == (4, 0)

    def test_non_contiguous_data(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(6, 5, 4, 8))[:, ::-1, :, ::2]
        coords = query_coords(rng, data.shape[:3])
        assert np.array_equal(trilinear(data, coords.T).T, corner_tuple_trilinear(data, coords))

    def test_centers_hit_stored_values(self):
        data = np.random.default_rng(3).normal(size=(3, 4, 2, 2))
        idx = np.stack(np.meshgrid(*(np.arange(n) for n in data.shape[:3]), indexing="ij"),
                       axis=-1).reshape(-1, 3)
        assert np.array_equal(trilinear(data, idx.T.astype(np.float64)).T, data.reshape(-1, 2))


def oracle_contains(box: Aabb, pts) -> np.ndarray:
    """The np.all form Aabb.contains replaced."""
    pts = np.asarray(pts, dtype=np.float64)
    return np.all((pts >= box.min) & (pts <= box.max), axis=-1)


class TestAabbContains:
    BOX = Aabb([-1.0, -0.5, 0.0], [1.0, 0.5, 2.0])

    def points(self, rng, n=300):
        """Points inside, outside, on each face and with NaN coordinates."""
        pts = rng.uniform([-1.5, -1.0, -0.5], [1.5, 1.0, 2.5], (n, 3))
        axis = rng.integers(0, 3, n // 3)
        face = np.where(rng.random(n // 3) < 0.5, self.BOX.min[axis], self.BOX.max[axis])
        pts[np.arange(n // 3), axis] = face
        pts[np.arange(n - 10, n), rng.integers(0, 3, 10)] = np.nan
        return pts

    def test_matches_np_all_form(self):
        pts = self.points(np.random.default_rng(5))
        got = self.BOX.contains(pts.T)
        want = oracle_contains(self.BOX, pts)
        assert got.shape == want.shape == (300,) and got.dtype == bool
        assert np.array_equal(got, want)
        assert 0 < got.sum() < len(got)

    def test_matches_on_ray_sample_shape(self):
        pts = self.points(np.random.default_rng(6)).reshape(20, 15, 3)
        got = self.BOX.contains(np.moveaxis(pts, -1, 0))
        assert got.shape == (20, 15)
        assert np.array_equal(got, oracle_contains(self.BOX, pts))

    @pytest.mark.parametrize("pt", [[0, 0, 1], [1.0, 0.5, 2.0], [-1.0, -0.5, 0.0],
                                    [1.5, 0, 1], [0, 0, -0.1], [np.nan, 0, 1]])
    def test_single_point(self, pt):
        got = self.BOX.contains(pt)
        assert np.shape(got) == ()
        assert got == oracle_contains(self.BOX, pt)

    @pytest.mark.parametrize("box", [BOX, OrientedBox3((0, 0, 1), (2, 1, 2), 0.3)],
                             ids=["aabb", "oriented"])
    @pytest.mark.parametrize("n", [0, 1, 2, 4, 300])
    def test_refuses_points_as_columns(self, box, n):
        """(N, 3) points are refused, not read as x, y and z rows."""
        with pytest.raises(ValueError, match=r"\(3, \.\.\.\) coordinate rows"):
            box.contains(np.zeros((n, 3)))


class TestSigmaToAlpha:
    def test_zero(self):
        assert sigma_to_alpha(0.0, 0.01) == 0.0

    def test_direct_value(self):
        assert sigma_to_alpha(100.0, 0.01) == pytest.approx(1 - math.exp(-1), abs=1e-15)

    def test_saturates(self):
        assert sigma_to_alpha(1e9, 0.01) == pytest.approx(1.0, abs=1e-12)

    def test_out_keeps_the_bits(self):
        rng = np.random.default_rng(2)
        sigma = rng.uniform(0, 200, (6, 50))
        sigma[0] = [0.0, -0.0, 1e308, 1e-300] * 12 + [0.0, 0.0]
        delta = rng.uniform(0, 0.1, 50)
        want = -np.expm1(-sigma * delta)
        buf = sigma.copy()
        assert sigma_to_alpha(buf, delta, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert sigma_to_alpha(sigma, delta).tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=50)
    @given(st.floats(0, 1e6), st.floats(1e-6, 10))
    def test_bounds_and_monotonicity(self, sigma, delta):
        a = sigma_to_alpha(sigma, delta)
        assert 0.0 <= a <= 1.0
        if sigma * delta < 36:  # below float64 saturation of 1 - exp(-x)
            assert a < 1.0
        assert sigma_to_alpha(sigma + 1.0, delta) >= a
