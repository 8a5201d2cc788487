import numpy as np
import pytest

from radiant.grids import trilinear


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
        coords = query_coords(rng, dims)
        got = trilinear(data, coords)
        want = corner_tuple_trilinear(data, coords)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    def test_non_contiguous_data(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(6, 5, 4, 8))[:, ::-1, :, ::2]
        coords = query_coords(rng, data.shape[:3])
        assert np.array_equal(trilinear(data, coords), corner_tuple_trilinear(data, coords))

    def test_centers_hit_stored_values(self):
        data = np.random.default_rng(3).normal(size=(3, 4, 2, 2))
        idx = np.stack(np.meshgrid(*(np.arange(n) for n in data.shape[:3]), indexing="ij"),
                       axis=-1).reshape(-1, 3)
        assert np.array_equal(trilinear(data, idx.astype(np.float64)), data.reshape(-1, 2))
