import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiant.core_math import (
    Intrinsics,
    Pose,
    Ray,
    backproject_pixel,
    canonicalize_symmetric,
    check_rotation,
    gaussian_pe_kernel,
    generate_rays,
    project_point,
    rotation_about,
    sinusoidal_pe,
    svd_plus,
)
from radiant.errors import DegenerateMatrix, NonPositiveDepth

from helpers import geodesic_angle


K100 = Intrinsics(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
IDENTITY = Pose.identity()


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestProjection:
    def test_principal_ray(self):
        (u, v), depth = project_point(K100, IDENTITY, (0, 0, 1))
        assert (u, v) == (50.0, 50.0)
        assert depth == 1.0

    def test_pinhole_arithmetic(self):
        # u = 100 * 0.5 / 1 + 50 = 100 by hand
        (u, v), depth = project_point(K100, IDENTITY, (0.5, 0, 1))
        assert (u, v) == (100.0, 50.0)
        assert depth == 1.0

    def test_behind_camera(self):
        with pytest.raises(NonPositiveDepth):
            project_point(K100, IDENTITY, (0, 0, -1))

    def test_backproject_inverse_pinhole(self):
        # principal pixel at depth 2 sits on the optical axis
        assert np.allclose(backproject_pixel(K100, IDENTITY, (50, 50), 2.0), (0, 0, 2))

    def test_round_trip(self):
        x = np.array([0.3, -0.2, 1.7])
        pix, depth = project_point(K100, IDENTITY, x)
        assert np.abs(backproject_pixel(K100, IDENTITY, pix, depth) - x).max() < 1e-9

    def test_zero_depth_rejected(self):
        with pytest.raises(NonPositiveDepth):
            backproject_pixel(K100, IDENTITY, (50, 50), 0.0)

    @settings(deadline=None, max_examples=50)
    @given(
        st.floats(-0.4, 0.4),
        st.floats(-0.4, 0.4),
        st.floats(-3, 3).map(lambda e: 10.0**e),
        st.integers(0, 2**31),
    )
    def test_mutual_inverse_with_pose(self, nx, ny, depth, seed):
        rng = np.random.default_rng(seed)
        pose = Pose(random_rotation(rng), rng.normal(size=3))
        x_cam = np.array([nx * depth, ny * depth, depth])
        x = pose.transform(x_cam)
        pix, d = project_point(K100, pose, x)
        assert d == pytest.approx(depth, abs=1e-9 * max(1, depth))
        back = backproject_pixel(K100, pose, pix, d)
        assert np.abs(back - x).max() < 1e-9 * max(1.0, float(np.abs(x).max()))


class TestSvdPlus:
    def test_identity(self):
        assert np.allclose(svd_plus(np.eye(3)), np.eye(3))

    def test_positive_scale_invariance(self):
        r = rotation_about([0, 0, 1], math.radians(30))
        assert np.abs(svd_plus(1.1 * r) - r).max() < 1e-12

    def test_reflection_maps_to_nearest_rotation(self):
        # brute-force oracle: discretized axis-angle search over SO(3)
        m = np.diag([1.0, 1.0, -1.0])
        got = svd_plus(m)
        assert np.linalg.det(got) == pytest.approx(1.0, abs=1e-9)
        best = np.inf
        rng = np.random.default_rng(7)
        for _ in range(20000):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            r = rotation_about(axis, rng.uniform(0, math.pi))
            best = min(best, np.linalg.norm(r - m))
        # the returned rotation must be at least as close as any sampled one
        assert np.linalg.norm(got - m) <= best + 1e-9

    def test_degenerate(self):
        with pytest.raises(DegenerateMatrix):
            svd_plus(np.diag([1.0, 1.0, 0.0]))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**31))
    def test_output_in_so3(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(3, 3))
        if np.linalg.svd(m, compute_uv=False)[-1] < 1e-6:
            return
        r = svd_plus(m)
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-6
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-6)
        s = rng.uniform(0.1, 10.0)
        assert np.abs(svd_plus(s * m) - r).max() < 1e-9

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**31))
    def test_fixed_point_on_so3(self, seed):
        r = random_rotation(np.random.default_rng(seed))
        assert np.abs(svd_plus(r) - r).max() < 1e-9


class TestCanonicalize:
    def test_pure_axis_rotation_cancels(self):
        r = rotation_about([0, 1, 0], math.radians(73))
        assert np.abs(canonicalize_symmetric(r, [0, 1, 0]) - np.eye(3)).max() < 1e-12

    def test_identity(self):
        assert np.allclose(canonicalize_symmetric(np.eye(3), [0, 0, 1]), np.eye(3))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**31), st.floats(-math.pi, math.pi))
    def test_idempotent_and_invariant(self, seed, theta):
        rng = np.random.default_rng(seed)
        r = random_rotation(rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        canon = canonicalize_symmetric(r, axis)
        again = canonicalize_symmetric(canon, axis)
        assert np.abs(again - canon).max() < 1e-9
        spun = rotation_about(axis, theta) @ r
        assert np.abs(canonicalize_symmetric(spun, axis) - canon).max() < 1e-9

    def test_minimizes_geodesic_angle(self):
        rng = np.random.default_rng(3)
        r = random_rotation(rng)
        axis = np.array([0.0, 0.0, 1.0])
        canon = canonicalize_symmetric(r, axis)
        base = geodesic_angle(canon)
        for theta in np.linspace(-math.pi, math.pi, 721):
            assert geodesic_angle(rotation_about(axis, theta) @ r) >= base - 1e-12


class TestPositionalEncodings:
    def test_zero_input(self):
        assert np.allclose(sinusoidal_pe([0.0], 2), [0, 1, 0, 1])

    def test_half(self):
        out = sinusoidal_pe([0.5], 1)
        assert out == pytest.approx([math.sin(math.pi / 2), math.cos(math.pi / 2)])

    def test_output_length(self):
        assert sinusoidal_pe([0.1, 0.2, 0.3], 4).shape == (24,)

    def test_gaussian_kernel_center(self):
        r, w, b = 4, 1.5, 2.0
        kern = gaussian_pe_kernel(r, w, b)
        peak = b * b / math.sqrt(2 * math.pi * w * w)
        assert kern[r, r] == pytest.approx(peak, rel=1e-12)
        assert kern.max() == kern[r, r]
        assert kern.shape == (2 * r, 2 * r)

    def test_gaussian_kernel_one_sigma(self):
        r, w, b = 5, 3.0, 1.0
        kern = gaussian_pe_kernel(r, w, b)
        # integer offset w = 3 cells from the center is one sigma out
        assert kern[r, r + 3] == pytest.approx(kern[r, r] * math.exp(-0.5), rel=1e-12)

    def test_gaussian_kernel_reflection_symmetric(self):
        kern = gaussian_pe_kernel(3, 1.0, 1.0)
        core = kern[1:, 1:]  # symmetric block around the center cell
        assert np.array_equal(core, core[::-1, ::-1])
        assert np.array_equal(core, core.T)


class TestGenerateRays:
    def test_counts_and_unit_norm(self):
        k = Intrinsics(fx=10, fy=10, cx=0.5, cy=0.5, width=2, height=2)
        rays = generate_rays(k, IDENTITY)
        assert len(rays) == 4
        for ray in rays:
            assert np.linalg.norm(ray.direction) == pytest.approx(1.0, abs=1e-12)

    def test_principal_pixel_along_optical_axis(self):
        k = Intrinsics(fx=10, fy=10, cx=1, cy=1, width=3, height=3)
        rays = generate_rays(k, IDENTITY)
        center = rays[1 * 3 + 1]
        assert np.allclose(center.direction, (0, 0, 1))

    def test_corner_matches_backprojection(self):
        rng = np.random.default_rng(11)
        pose = Pose(random_rotation(rng), rng.normal(size=3))
        k = Intrinsics(fx=20, fy=25, cx=1.0, cy=2.0, width=4, height=4)
        rays = generate_rays(k, pose)
        corner = rays[3 * 4 + 3]  # pixel (u=3, v=3)
        target = backproject_pixel(k, pose, (3, 3), 1.0)
        expected = target - pose.translation
        expected /= np.linalg.norm(expected)
        assert np.abs(corner.direction - expected).max() < 1e-12


class TestRayPacket:
    def test_packet_rows_match_single_rays(self):
        rng = np.random.default_rng(2)
        dirs = rng.normal(size=(5, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        origins = rng.uniform(-0.5, 0.5, (5, 3))
        t = rng.uniform(0, 2, (5, 4))
        packet = Ray(origins, dirs)
        pts = packet.at(t)
        assert pts.shape == (5, 4, 3)
        for i in range(5):
            assert np.array_equal(pts[i], Ray(origins[i], dirs[i]).at(t[i]))
        assert np.array_equal(packet.at(t[:, 0]), pts[:, 0])

    def test_each_row_validated(self):
        dirs = np.tile([0.0, 0.0, 1.0], (3, 1))
        with pytest.raises(ValueError, match="unit length"):
            Ray(np.zeros((3, 3)), dirs * [[1.0], [1.0], [1.1]])
        with pytest.raises(ValueError, match="finite"):
            Ray([[0, 0, 0], [0, 0, np.nan], [0, 0, 0]], dirs)
        with pytest.raises(ValueError, match="expected"):
            Ray(np.zeros(3), dirs)
        with pytest.raises(ValueError):
            Ray(np.zeros((3, 2)), np.zeros((3, 2)))


class TestCheckRotation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        for i in range(9):
            m = np.eye(3)
            m.flat[i] = bad
            with pytest.raises(ValueError, match="non-finite"):
                check_rotation(m)
            with pytest.raises(ValueError):
                Pose(m, np.zeros(3))

    def test_proper_rotation_accepted(self):
        r = random_rotation(np.random.default_rng(3))
        assert np.array_equal(check_rotation(r), r)
