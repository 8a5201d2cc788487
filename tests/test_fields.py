import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiant.core_math import Aabb
from radiant.errors import EmptyUnion, NegativeDensity, VanishingGradient
from radiant.fields import (
    BoxSdf,
    ConstantField,
    GridField,
    SdfField,
    SphereSdf,
    UnionSdf,
    sdf_gradients,
    sdf_normal,
)
from radiant.grids import VoxelGrid4D, alpha_to_sigma
from radiant.io import make_analytic_sdf


class ConstantSdf(SdfField):
    def __init__(self, value):
        self.value = value
        self.bounds = Aabb([-1, -1, -1], [1, 1, 1])

    def eval(self, pts):
        return np.full(np.asarray(pts).shape[:-1], self.value)


class TestAnalyticSdf:
    def test_sphere_surface_and_center(self):
        s = SphereSdf((0, 0, 0), 0.5)
        assert s.eval(np.array([0.5, 0, 0])) == 0.0
        assert s.eval(np.array([0.0, 0, 0])) == -0.5

    def test_union_is_pointwise_min(self):
        sphere = SphereSdf((0, 0, 0), 0.5)
        box = BoxSdf((0, 0, 0), (0.1, 0.1, 0.1))
        union = UnionSdf([sphere, box])
        pts = np.random.default_rng(0).uniform(-1, 1, size=(100, 3))
        assert np.array_equal(
            union.eval(pts), np.minimum(sphere.eval(pts), box.eval(pts))
        )

    def test_empty_union(self):
        with pytest.raises(EmptyUnion):
            UnionSdf([])

    def test_factory(self):
        f = make_analytic_sdf(
            {
                "type": "union",
                "shapes": [
                    {"type": "sphere", "center": [0, 0, 0], "radius": 0.5},
                    {"type": "box", "center": [0.2, 0, 0], "half_extents": [0.1, 0.2, 0.3]},
                ],
            }
        )
        assert isinstance(f, UnionSdf)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**31))
    def test_one_lipschitz(self, seed):
        rng = np.random.default_rng(seed)
        fields = [
            SphereSdf(rng.uniform(-0.3, 0.3, 3), rng.uniform(0.1, 0.7)),
            BoxSdf(rng.uniform(-0.3, 0.3, 3), rng.uniform(0.05, 0.6, 3)),
        ]
        a = rng.uniform(-1.5, 1.5, size=(64, 3))
        b = rng.uniform(-1.5, 1.5, size=(64, 3))
        gap = np.linalg.norm(a - b, axis=-1)
        for f in fields:
            assert np.all(np.abs(f.eval(a) - f.eval(b)) <= gap + 1e-12)


def oracle_sdf(f: SdfField, pts) -> np.ndarray:
    """The axis-reduction SDF formulas the column kernels replaced."""
    if isinstance(f, UnionSdf):
        return np.min([oracle_sdf(c, pts) for c in f.children], axis=0)
    pts = np.asarray(pts, dtype=np.float64)
    if isinstance(f, SphereSdf):
        return np.linalg.norm(pts - f.center, axis=-1) - f.radius
    q = np.abs(pts - f.center) - f.half_extents
    return np.linalg.norm(np.maximum(q, 0.0), axis=-1) + np.minimum(q.max(axis=-1), 0.0)


KERNEL_SPHERE = SphereSdf((0.1, -0.2, 0.0), 0.5)
KERNEL_BOX = BoxSdf((0.0, 0.25, -0.1), (0.25, 0.5, 0.125))
KERNEL_SHAPES = {
    "sphere": KERNEL_SPHERE,
    "box": KERNEL_BOX,
    "origin-box": BoxSdf((0, 0, 0), (0.5, 0.25, 0.75)),
    "union1": UnionSdf([KERNEL_BOX]),
    "union2": UnionSdf([KERNEL_SPHERE, KERNEL_BOX]),
    "union3": UnionSdf([KERNEL_BOX, SphereSdf((0, 0, 0), 0.25), KERNEL_SPHERE]),
}


def kernel_inputs() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    seeded = rng.uniform(-1.2, 1.2, size=(5000, 3))
    tied = np.round(seeded, 1)  # ties between axes and with the box faces
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    on_box = []
    for box in (KERNEL_BOX, KERNEL_SHAPES["origin-box"]):
        h = box.half_extents
        corners = box.center + signs * h
        edges = box.center + signs * h * [0.5, 1, 1]
        faces = box.center + signs * h * [0.3, 0.6, 1]
        on_box += [corners, edges, faces, box.center[None, :]]
    on_sphere = KERNEL_SPHERE.center + KERNEL_SPHERE.radius * np.eye(3)
    zeros = np.array([[-0.0, 0.0, 0.0], [0.0, -0.0, -0.0], [-0.0, -0.0, -0.0]])
    nans = np.array([[np.nan, 0.1, 0.2], [0.3, np.nan, 0.0], [0.0, 0.0, np.nan],
                     [np.nan, np.nan, np.nan]])
    return [seeded, tied, *on_box, on_sphere, zeros, nans,
            np.array([0.3, -0.4, 0.2]), np.zeros((0, 3)), seeded[:20].reshape(4, 5, 3)]


class TestColumnKernels:
    """The column-wise kernels give the bits of the axis-reduction formulas
    (np.linalg.norm and max over the last axis, np.min over the children)."""

    @pytest.mark.parametrize("name", sorted(KERNEL_SHAPES))
    def test_bits_equal_axis_formulas(self, name):
        f = KERNEL_SHAPES[name]
        for pts in kernel_inputs():
            got, want = f.eval(pts), oracle_sdf(f, pts)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want) == pts.shape[:-1]
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), pts[:3]

    def test_input_left_unchanged(self):
        # the kernels work in place on their own column copies
        pts = np.random.default_rng(12).uniform(-1, 1, size=(40, 3))
        before = pts.copy()
        for f in KERNEL_SHAPES.values():
            f.eval(pts)
        assert np.array_equal(pts, before)

    def test_lists_and_ints_accepted(self):
        for f in KERNEL_SHAPES.values():
            assert f.eval([[1, 0, 0], [0, 0, 0]]).tobytes() == \
                oracle_sdf(f, [[1, 0, 0], [0, 0, 0]]).tobytes()


def oracle_gradients(f: SdfField, pts, h: float):
    """The (N, 3, 3) tap broadcast and np.linalg.norm that sdf_gradients
    replaced with per-axis tap blocks and a written-out norm."""
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


class TestSdfGradients:
    @pytest.mark.parametrize("name", sorted(KERNEL_SHAPES))
    @pytest.mark.parametrize("h", [1e-4, 0.05])
    def test_bits_equal_axis_formula(self, name, h):
        f = KERNEL_SHAPES[name]
        # centers have a vanishing gradient: every tap pair reads the same value
        centers = np.array([KERNEL_SPHERE.center, KERNEL_BOX.center, np.zeros(3)])
        for pts in [*kernel_inputs(), centers]:
            if pts.ndim != 2:
                continue
            got, want = sdf_gradients(f, pts, h), oracle_gradients(f, pts, h)
            assert got[0].shape == want[0].shape == (len(pts), 3)
            assert got[0].tobytes() == want[0].tobytes(), pts[:3]
            assert got[1].tobytes() == want[1].tobytes(), pts[:3]

    def test_field_returning_a_view_of_its_points(self):
        # the z = 0 plane's eval is a view of the tap buffer, which the -h
        # taps refill after the +h evaluation
        class PlaneSdf(SdfField):
            def eval(self, pts):
                return np.asarray(pts)[..., 2]

        pts = np.random.default_rng(5).uniform(-1, 1, size=(50, 3))
        normals, valid = sdf_gradients(PlaneSdf(), pts, 1e-4)
        assert valid.all() and np.array_equal(normals, np.tile([0.0, 0.0, 1.0], (50, 1)))

    def test_vanishing_rows_hold_nan(self):
        pts = np.array([KERNEL_SPHERE.center, [0.9, 0.1, 0.2], [-0.0, 0.0, -0.0]])
        normals, valid = sdf_gradients(UnionSdf([KERNEL_SPHERE]), pts, 1e-4)
        assert valid.tolist() == [False, True, True]
        assert np.isnan(normals[0]).all() and np.isfinite(normals[1:]).all()
        normals, valid = sdf_gradients(ConstantSdf(0.2), pts, 1e-4)
        assert not valid.any() and np.isnan(normals).all()
        assert normals.flags.c_contiguous


class TestSdfNormal:
    def test_sphere_x_axis(self):
        f = SphereSdf((0, 0, 0), 0.5)
        assert np.abs(sdf_normal(f, (0.5, 0, 0), 1e-4) - (1, 0, 0)).max() < 1e-4

    def test_sphere_y_axis(self):
        f = SphereSdf((0, 0, 0), 0.5)
        assert np.abs(sdf_normal(f, (0, 0.7, 0), 1e-4) - (0, 1, 0)).max() < 1e-4

    def test_vanishing_gradient(self):
        with pytest.raises(VanishingGradient):
            sdf_normal(ConstantSdf(0.2), (0, 0, 0), 1e-4)

    def test_second_order_convergence(self):
        # error(h/2) / error(h) should sit near 0.25 for a smooth point
        f = SphereSdf((0, 0, 0), 0.5)
        p = np.array([0.31, 0.42, 0.17])
        exact = p / np.linalg.norm(p)
        h = 0.05
        e1 = np.linalg.norm(sdf_normal(f, p, h) - exact)
        e2 = np.linalg.norm(sdf_normal(f, p, h / 2) - exact)
        assert 0.15 <= e2 / e1 <= 0.45


class TestConstantField:
    def test_everywhere_constant(self):
        f = ConstantField((1, 0, 0), 0.0)
        colors, sigmas = f.eval(np.zeros((5, 3)), np.zeros((5, 3)))
        assert np.array_equal(colors, np.tile([1, 0, 0], (5, 1)))
        assert np.array_equal(sigmas, np.zeros(5))

    def test_direction_independent(self):
        f = ConstantField((0.2, 0.4, 0.6), 3.0)
        pts = np.random.default_rng(1).normal(size=(4, 3))
        c1, s1 = f.eval(pts, np.tile([0, 0, 1.0], (4, 1)))
        c2, s2 = f.eval(pts, np.tile([1.0, 0, 0], (4, 1)))
        assert np.array_equal(c1, c2) and np.array_equal(s1, s2)

    def test_negative_sigma_rejected(self):
        with pytest.raises(NegativeDensity):
            ConstantField((1, 0, 0), -1.0)


class TestGridField:
    def make_grid(self, rng, n=4):
        data = rng.uniform(0.0, 0.9, size=(n, n, n, 4))
        return VoxelGrid4D(data, Aabb([-1, -1, -1], [1, 1, 1]))

    def test_voxel_center_is_stored_value(self):
        rng = np.random.default_rng(2)
        grid = self.make_grid(rng)
        f = GridField(grid)
        centers = grid.voxel_centers().reshape(4, 4, 4, 3)
        c = centers[1, 2, 3]
        vals = f.interpolate(c)[0]
        assert np.abs(vals - grid.data[1, 2, 3]).max() < 1e-12
        colors, sigmas = f.eval([c], [(0, 0, 1)])
        assert np.abs(colors[0] - grid.data[1, 2, 3, :3]).max() < 1e-12
        assert sigmas[0] == pytest.approx(alpha_to_sigma(grid.data[1, 2, 3, 3]))

    def test_midpoint_interpolates_red(self):
        grid = VoxelGrid4D.zeros((2, 1, 1), 4, Aabb([0, 0, 0], [2, 1, 1]))
        grid.data[1, 0, 0, 0] = 1.0  # red goes 0 -> 1 along x
        f = GridField(grid)
        mid = np.array([1.0, 0.5, 0.5])  # halfway between the two centers
        assert f.interpolate(mid)[0, 0] == pytest.approx(0.5)

    def test_outside_bounds_is_empty(self):
        rng = np.random.default_rng(3)
        f = GridField(self.make_grid(rng))
        colors, sigmas = f.eval([(5.0, 0, 0)], [(0, 0, 1)])
        assert np.array_equal(colors, np.zeros((1, 3))) and np.array_equal(sigmas, [0.0])

    def test_centers_reproduce_grid_exactly(self):
        rng = np.random.default_rng(4)
        grid = self.make_grid(rng, n=5)
        f = GridField(grid)
        vals = f.interpolate(grid.voxel_centers())
        assert np.array_equal(vals.reshape(grid.data.shape), grid.data)
