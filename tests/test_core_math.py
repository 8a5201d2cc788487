import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiant.core_math import (
    Intrinsics,
    Pose,
    Ray,
    backproject_pixel,
    check_rotation,
    generate_ray_arrays,
    project_point,
)
from radiant.errors import NonPositiveDepth


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


class TestGenerateRays:
    def test_counts_and_unit_norm(self):
        k = Intrinsics(fx=10, fy=10, cx=0.5, cy=0.5, width=2, height=2)
        origins, dirs = generate_ray_arrays(k, IDENTITY)
        assert origins.shape == dirs.shape == (4, 3)
        assert np.array_equal(origins, np.zeros((4, 3)))
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12

    def test_principal_pixel_along_optical_axis(self):
        k = Intrinsics(fx=10, fy=10, cx=1, cy=1, width=3, height=3)
        _, dirs = generate_ray_arrays(k, IDENTITY)
        assert np.allclose(dirs[1 * 3 + 1], (0, 0, 1))

    def test_corner_matches_backprojection(self):
        rng = np.random.default_rng(11)
        pose = Pose(random_rotation(rng), rng.normal(size=3))
        k = Intrinsics(fx=20, fy=25, cx=1.0, cy=2.0, width=4, height=4)
        origins, dirs = generate_ray_arrays(k, pose)
        corner = dirs[3 * 4 + 3]  # pixel (u=3, v=3)
        target = backproject_pixel(k, pose, (3, 3), 1.0)
        expected = target - pose.translation
        expected /= np.linalg.norm(expected)
        assert np.abs(corner - expected).max() < 1e-12
        assert np.array_equal(origins[3 * 4 + 3], pose.translation)


class TestRayPacket:
    def test_packet_rows_match_single_rays(self):
        rng = np.random.default_rng(2)
        dirs = rng.normal(size=(5, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        origins = rng.uniform(-0.5, 0.5, (5, 3))
        t = rng.uniform(0, 2, (5, 4))
        packet = Ray(origins, dirs)
        pts = packet.at(t)
        assert pts.shape == (3, 5, 4)
        for i in range(5):
            assert np.array_equal(pts[:, i], Ray(origins[i], dirs[i]).at(t[i]))
        assert np.array_equal(packet.at(t[:, 0]), pts[:, :, 0])

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
