import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from radiant.core_math import Intrinsics, Pose, Ray, generate_ray_arrays
from radiant.errors import (
    InsideUnitSphere,
    LengthMismatch,
    NegativeDensity,
    OriginOutsideSphere,
)
from radiant.fields import ConstantField, GaussianBlobField
from radiant.masking import _splitmix64
from radiant.metrics import OrientedBox3
from radiant.render import (
    RenderConfig,
    SUPPRESSION_SIGMA,
    alpha_from_sigma,
    composite,
    contract_nerfpp,
    distortion_reg,
    prune_rays_in_boxes,
    render_composed,
    render_full,
    render_ray_nearfar,
    stratified_samples,
)

RAY_Z = Ray((0, 0, 0), (0, 0, 1))
RED = ConstantField((1, 0, 0), 1e9)
EMPTY = ConstantField((0, 0, 0), 0.0)


class TestStratifiedSamples:
    def test_single_sample_in_range(self):
        cfg = RenderConfig(n_coarse=1, seed=3)
        s = stratified_samples(RAY_Z, cfg)
        assert s.t_values.shape == (1,)
        assert cfg.near <= s.t_values[0] < cfg.far

    def test_one_sample_per_stratum(self):
        cfg = RenderConfig(n_coarse=64, seed=9)
        s = stratified_samples(RAY_Z, cfg)
        edges = np.linspace(cfg.near, cfg.far, 65)
        bins = np.digitize(s.t_values, edges) - 1
        assert np.array_equal(bins, np.arange(64))

    def test_deterministic(self):
        cfg = RenderConfig(seed=123)
        a = stratified_samples(RAY_Z, cfg)
        b = stratified_samples(RAY_Z, cfg)
        assert np.array_equal(a.t_values, b.t_values)
        assert np.array_equal(a.deltas, b.deltas)

    def test_last_delta_reaches_far(self):
        cfg = RenderConfig(n_coarse=16, seed=0)
        s = stratified_samples(RAY_Z, cfg)
        assert np.all(s.deltas > 0)
        assert s.t_values[-1] + s.deltas[-1] == pytest.approx(cfg.far, abs=1e-12)


class TestRaySamplesValidation:
    def test_rejects_unsorted(self):
        from radiant.render import RaySamples

        with pytest.raises(ValueError):
            RaySamples([0.2, 0.1], [0.1, 0.1])

    def test_rejects_nonpositive_deltas(self):
        from radiant.render import RaySamples

        with pytest.raises(ValueError):
            RaySamples([0.1, 0.2], [0.1, 0.0])

    def test_rejects_length_mismatch(self):
        from radiant.render import RaySamples

        with pytest.raises(LengthMismatch):
            RaySamples([0.1, 0.2], [0.1])


class TestAlphaFromSigma:
    def test_zero(self):
        assert alpha_from_sigma(0.0, 0.01) == 0.0

    def test_direct_value(self):
        assert alpha_from_sigma(100.0, 0.01) == pytest.approx(1 - math.exp(-1), abs=1e-15)

    def test_saturates(self):
        assert alpha_from_sigma(1e9, 0.01) == pytest.approx(1.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(NegativeDensity):
            alpha_from_sigma(-0.1, 0.01)

    @settings(deadline=None, max_examples=50)
    @given(st.floats(0, 1e6), st.floats(1e-6, 10))
    def test_bounds_and_monotonicity(self, sigma, delta):
        a = alpha_from_sigma(sigma, delta)
        assert 0.0 <= a <= 1.0
        if sigma * delta < 36:  # below float64 saturation of 1 - exp(-x)
            assert a < 1.0
        assert alpha_from_sigma(sigma + 1.0, delta) >= a


class TestComposite:
    def test_single_opaque_sample(self):
        res = composite([[0.2, 0.7, 0.1]], [1e308], [1.0])
        assert np.array_equal(res.color, [0.2, 0.7, 0.1])
        assert res.acc == 1.0
        assert np.array_equal(res.weights, [1.0])

    def test_vacuum(self):
        res = composite(np.ones((5, 3)), np.zeros(5), np.full(5, 0.1))
        assert np.array_equal(res.color, np.zeros(3))
        assert res.acc == 0.0

    def test_two_half_opacity_samples(self):
        sigma = math.log(2.0)  # alpha = 0.5 with delta = 1
        res = composite([[1, 0, 0], [0, 1, 0]], [sigma, sigma], [1.0, 1.0])
        assert np.abs(res.weights - [0.5, 0.25]).max() < 1e-12
        assert np.abs(res.color - [0.5, 0.25, 0]).max() < 1e-12
        assert res.acc == pytest.approx(0.75, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            composite(np.ones((3, 3)), np.ones(2), np.ones(3))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**31))
    def test_conservation(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 80)
        sigmas = rng.uniform(0, 50, n)
        deltas = rng.uniform(1e-4, 0.2, n)
        res = composite(rng.uniform(0, 1, (n, 3)), sigmas, deltas)
        assert res.acc <= 1.0 + 1e-9
        assert res.acc == pytest.approx(res.weights.sum(), abs=1e-9)
        t_analytic = np.prod(1.0 - (-np.expm1(-sigmas * deltas)))
        assert res.acc == pytest.approx(1.0 - t_analytic, abs=1e-9)
        assert np.all(res.weights >= 0) and np.all(res.weights <= 1)

    def test_packet_rows_match_single_rays(self):
        rng = np.random.default_rng(6)
        colors = rng.uniform(0, 1, (4, 30, 3))
        sigmas = rng.uniform(0, 20, (4, 30))
        deltas = rng.uniform(1e-3, 0.1, (4, 30))
        packet = composite(colors, sigmas, deltas)
        assert packet.color.shape == (4, 3) and packet.acc.shape == (4,)
        for i in range(4):
            row = composite(colors[i], sigmas[i], deltas[i])
            assert np.array_equal(packet.color[i], row.color)
            assert packet.acc[i] == row.acc
            assert np.array_equal(packet.weights[i], row.weights)

    def test_occlusion_monotonicity(self):
        rng = np.random.default_rng(4)
        n = 20
        sigmas = rng.uniform(0, 5, n)
        deltas = rng.uniform(0.01, 0.1, n)
        colors = rng.uniform(0, 1, (n, 3))
        base = composite(colors, sigmas, deltas).weights
        for i in range(n - 1):
            bumped = sigmas.copy()
            bumped[i] += 1.0
            w = composite(colors, bumped, deltas).weights
            assert np.all(w[i + 1 :] <= base[i + 1 :] + 1e-12)


class TestContract:
    def test_basic(self):
        assert np.allclose(contract_nerfpp((2, 0, 0)), (1, 0, 0, 0.5))

    def test_boundary(self):
        out = contract_nerfpp((0, 1, 0))
        assert np.allclose(out, (0, 1, 0, 1))

    def test_inside_rejected(self):
        with pytest.raises(InsideUnitSphere):
            contract_nerfpp((0.5, 0, 0))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**31), st.floats(0.0, 6.0))
    def test_unit_norm(self, seed, log_r):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * (1.0 + 10.0**log_r * rng.uniform(0.001, 1))
        out = contract_nerfpp(v)
        assert np.linalg.norm(out[:3]) == pytest.approx(1.0, abs=1e-12)
        assert 0 < out[3] <= 1


class TestDistortionReg:
    def test_zero_weights(self):
        assert distortion_reg([0, 1, 2], [0, 0]) == 0.0

    def test_single_interval(self):
        assert distortion_reg([0.0, 1.0], [1.0]) == pytest.approx(1 / 3)

    def test_two_interval_hand_case(self):
        # cross 2 * 0.25 * |0.5 - 1.5| + self (1/3)(0.25 + 0.25)
        val = distortion_reg([0.0, 1.0, 2.0], [0.5, 0.5])
        assert val == pytest.approx(0.5 + 1 / 6, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            distortion_reg([0, 1], [0.5, 0.5])

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = rng.integers(1, 30)
            s = np.sort(rng.uniform(0, 3, n + 1))
            s += np.arange(n + 1) * 1e-6  # strictness
            assert distortion_reg(s, rng.uniform(0, 1, n)) >= 0.0


class TestPrune:
    def test_suppression_value(self):
        # stored for fidelity; compositing clamps it to zero at use
        assert SUPPRESSION_SIGMA == -1e-5

    def test_no_boxes_identity(self):
        sig = np.array([1.0, 2.0, 3.0])
        out = prune_rays_in_boxes(np.zeros((3, 3)), sig, [])
        assert np.array_equal(out, sig)

    def test_face_point_counts_inside(self):
        box = OrientedBox3((0, 0, 0), (1, 1, 1))
        out = prune_rays_in_boxes([[0.5, 0, 0]], [7.0], [box])
        assert out[0] == SUPPRESSION_SIGMA

    def test_outside_unchanged(self):
        box = OrientedBox3((0, 0, 0), (1, 1, 1))
        out = prune_rays_in_boxes([[0.51, 0, 0], [0, 0, 0]], [7.0, 9.0], [box])
        assert out[0] == 7.0 and out[1] == SUPPRESSION_SIGMA


class TestNearFar:
    def test_opaque_near_hides_far(self):
        cfg = RenderConfig(seed=1)
        color1, acc1 = render_ray_nearfar(RED, ConstantField((0, 1, 0), 1e9), RAY_Z, cfg)
        color2, acc2 = render_ray_nearfar(RED, EMPTY, RAY_Z, cfg)
        assert np.array_equal(color1, color2)
        assert np.array_equal(color1, [1, 0, 0])
        assert acc1 == pytest.approx(1.0, abs=1e-12)

    def test_transparent_near_passes_to_far(self):
        cfg = RenderConfig(seed=2)
        blue = ConstantField((0, 0, 1), 1e9)
        color, acc_near = render_ray_nearfar(EMPTY, blue, RAY_Z, cfg)
        assert np.array_equal(color, [0, 0, 1])
        assert acc_near == 0.0

    def test_both_empty(self):
        cfg = RenderConfig(seed=3)
        color, acc_near = render_ray_nearfar(EMPTY, EMPTY, RAY_Z, cfg)
        assert np.array_equal(color, np.zeros(3))
        assert acc_near == 0.0

    def test_origin_outside_rejected(self):
        with pytest.raises(OriginOutsideSphere):
            render_ray_nearfar(EMPTY, EMPTY, Ray((2, 0, 0), (0, 0, 1)), RenderConfig())

    def test_composited_matches_two_stage_formula(self):
        # translucent near over an opaque far background
        cfg = RenderConfig(seed=11)
        near = ConstantField((1, 0, 0), 1.0)
        far = ConstantField((0, 0, 1), 1e9)
        color, acc_near = render_ray_nearfar(near, far, RAY_Z, cfg)
        expected = acc_near * np.array([1, 0, 0]) + (1 - acc_near) * np.array([0, 0, 1])
        assert np.abs(color - expected).max() < 1e-12


class TestRenderComposed:
    def test_empty_boxes_bit_identical(self):
        cfg = RenderConfig(seed=21)
        near = GaussianBlobField((0.9, 0.4, 0.1), 5.0, (0, 0, 0.4), 0.2)
        far = ConstantField((0.1, 0.2, 0.3), 2.0)
        base, _ = render_ray_nearfar(near, far, RAY_Z, cfg)
        composed = render_composed(None, near, far, [], RAY_Z, cfg)
        assert np.array_equal(base, composed)

    def test_opaque_object_occludes(self):
        cfg = RenderConfig(seed=5)
        box = OrientedBox3((0, 0, 0.5), (1, 1, 1.2))
        yellow = ConstantField((1, 1, 0), 1e9)
        near = ConstantField((1, 0, 0), 5.0)
        color = render_composed(yellow, near, EMPTY, [box], RAY_Z, cfg)
        assert np.array_equal(color, [1, 1, 0])

    def test_deleted_object_hole_filled_by_far(self):
        # hand-built two-segment composite over the engine's own sample ladder
        cfg = RenderConfig(n_coarse=32, seed=17)
        near_sigma, far_sigma = 2.0, 3.0
        near_color = np.array([0.8, 0.2, 0.1])
        far_color = np.array([0.1, 0.3, 0.9])
        box = OrientedBox3((0, 0, 0.45), (2, 2, 0.5))  # z in [0.2, 0.7]
        got = render_composed(
            None,
            ConstantField(near_color, near_sigma),
            ConstantField(far_color, far_sigma),
            [box],
            RAY_Z,
            cfg,
        )

        # oracle: replay the rng ladders, composite manually
        rng = np.random.default_rng(cfg.seed)
        nj = rng.random(cfg.n_coarse)
        fj = rng.random(cfg.n_coarse)
        t_sphere = 1.0
        n = cfg.n_coarse
        near_ts = cfg.near + (np.arange(n) + nj) * (t_sphere - cfg.near) / n
        near_deltas = np.append(np.diff(near_ts), t_sphere - near_ts[-1])
        u = (n - np.arange(n) - fj) / n
        far_ts = 1.0 / u
        far_deltas = np.append(np.diff(far_ts), far_ts[-1] - far_ts[-2])
        color = np.zeros(3)
        trans = 1.0
        for t, d in zip(near_ts, near_deltas):
            sig = 0.0 if 0.2 <= t <= 0.7 else near_sigma
            a = 1 - math.exp(-sig * d)
            color += trans * a * near_color
            trans *= 1 - a
        for t, d in zip(far_ts, far_deltas):
            a = 1 - math.exp(-far_sigma * d)
            color += trans * a * far_color
            trans *= 1 - a
        assert np.abs(got - color).max() < 1e-12

    def test_fully_pruned_ray_equals_background_only(self):
        cfg = RenderConfig(seed=31)
        box = OrientedBox3((0, 0, 0.5), (3, 3, 1.2))
        near = ConstantField((1, 0, 0), 50.0)
        far = ConstantField((0.2, 0.5, 0.7), 4.0)
        pruned = render_composed(None, near, far, [box], RAY_Z, cfg)
        background, _ = render_ray_nearfar(EMPTY, far, RAY_Z, cfg)
        assert np.abs(pruned - background).max() < 1e-12

    def test_fine_sampling_conserves(self):
        cfg = RenderConfig(seed=41, n_coarse=32, n_fine=32)
        near = GaussianBlobField((0.9, 0.4, 0.1), 8.0, (0, 0, 0.4), 0.15)
        far = ConstantField((0.1, 0.2, 0.3), 2.0)
        color, acc_near = render_ray_nearfar(near, far, RAY_Z, cfg)
        assert 0.0 <= acc_near <= 1.0 + 1e-9
        assert np.all(color >= 0) and np.all(color <= 1 + 1e-9)


class TestQuadratureConvergence:
    def test_transmittance_error_halves(self):
        # smooth density bump along the segment; oracle is adaptive quadrature
        cfg0 = RenderConfig(near=0.02, far=3.0)
        blob = GaussianBlobField((1, 1, 1), 10.0, (0, 0, 1.2), 0.35)

        def sigma_t(t):
            return 10.0 * math.exp(-((t - 1.2) ** 2) / (2 * 0.35**2))

        integral, _ = quad(sigma_t, cfg0.near, cfg0.far, epsabs=1e-12)
        t_exact = math.exp(-integral)

        def mean_error(n):
            errs = []
            for seed in range(20):
                cfg = RenderConfig(near=0.02, far=3.0, n_coarse=n, seed=seed)
                s = stratified_samples(RAY_Z, cfg)
                pts = RAY_Z.at(s.t_values)
                _, sig = blob.eval(pts, np.tile([0, 0, 1.0], (n, 1)))
                res = composite(np.zeros((n, 3)), sig, s.deltas)
                errs.append(abs((1.0 - res.acc) - t_exact))
            return float(np.mean(errs))

        e32, e64, e128, e256 = (mean_error(n) for n in (32, 64, 128, 256))
        assert e64 <= 0.6 * e32
        assert e128 <= 0.6 * e64
        assert e256 <= 0.6 * e128


def _per_ray_reference(o, d, cfg, near_field, far_field, boxes, object_field):
    """One ray at a time with np.interp and np.unique: the renderer's
    algorithm before it was batched into packets. Returns (color, acc, acc_near)."""
    rng = np.random.default_rng(cfg.seed)
    b, c = float(o @ d), float(o @ o)
    t_sphere = -b + math.sqrt(b * b - (c - 1.0))

    def radius_to_t(r):
        return -b + np.sqrt(b * b + r**2 - c)

    def sample_pdf(edges, w, m):
        w = np.maximum(w, 0.0) + 1e-9
        cdf = np.concatenate([[0.0], np.cumsum(w / w.sum())])
        return np.interp((np.arange(m) + rng.random(m)) / m, cdf, edges)

    def compose(near_ts, near_deltas, far_ts, far_deltas):
        near_pts = o + near_ts[:, None] * d
        near_c, near_s = near_field.eval(near_pts, np.tile(d, (near_ts.size, 1)))
        inside = np.zeros(near_ts.size, dtype=bool)
        for box in boxes:
            inside |= box.contains(near_pts)
        near_s = np.where(inside, SUPPRESSION_SIGMA, near_s)
        obj_c, obj_s = np.zeros((0, 3)), np.zeros(0)
        if object_field is not None and inside.any():
            obj_c, obj_s = object_field.eval(near_pts[inside], np.tile(d, (inside.sum(), 1)))
        far_c, far_s = far_field.eval(o + far_ts[:, None] * d, np.tile(d, (far_ts.size, 1)))
        t_all = np.concatenate([near_ts[inside], near_ts, far_ts])
        ranks = np.repeat([0, 1, 2], [inside.sum(), near_ts.size, far_ts.size])
        order = np.lexsort((ranks, t_all))
        res = composite(np.concatenate([obj_c, near_c, far_c])[order],
                        np.concatenate([obj_s, near_s, far_s])[order],
                        np.concatenate([near_deltas[inside], near_deltas, far_deltas])[order])
        return res.color, res.acc, res.weights[ranks[order] == 1], res.weights[ranks[order] == 2]

    n = cfg.n_coarse
    near_j, far_j = rng.random(n), rng.random(n)
    near_ts = near_deltas = np.zeros(0)
    if t_sphere > cfg.near:
        near_ts = cfg.near + (np.arange(n) + near_j) * (t_sphere - cfg.near) / n
        near_deltas = np.append(np.diff(near_ts), t_sphere - near_ts[-1])
    u = (n - np.arange(n) - far_j) / n
    far_ts = radius_to_t(1.0 / u)
    far_deltas = np.append(np.diff(far_ts), far_ts[-1] - far_ts[-2])
    if cfg.n_fine > 0:
        _, _, near_w, far_w = compose(near_ts, near_deltas, far_ts, far_deltas)
        if near_ts.size >= 2:
            edges = np.concatenate([[cfg.near], 0.5 * (near_ts[:-1] + near_ts[1:]), [t_sphere]])
            near_ts = np.unique(np.concatenate([near_ts, sample_pdf(edges, near_w, cfg.n_fine)]))
            near_deltas = np.maximum(np.append(np.diff(near_ts), t_sphere - near_ts[-1]), 1e-12)
        u_asc = u[::-1]
        edges_u = np.concatenate([[0.0], 0.5 * (u_asc[:-1] + u_asc[1:]), [1.0]])
        fine_u = sample_pdf(edges_u, far_w[::-1], cfg.n_fine)
        far_ts = radius_to_t(1.0 / np.unique(np.concatenate([u_asc, fine_u[fine_u > 1e-9]]))[::-1])
        far_deltas = np.maximum(np.append(np.diff(far_ts), far_ts[-1] - far_ts[-2]), 1e-12)
    color, acc, near_w, _ = compose(near_ts, near_deltas, far_ts, far_deltas)
    return color, acc, near_w.sum()


class TestPacket:
    """Packets of rays against single rays and the per-ray algorithm."""

    NEAR = GaussianBlobField((0.9, 0.4, 0.1), 12.0, (0.05, -0.05, 0.45), 0.25)
    FAR = ConstantField((0.1, 0.2, 0.4), 1.5)
    OBJECT = ConstantField((1.0, 1.0, 0.0), 200.0)
    BOXES = [OrientedBox3((0.0, 0.0, 0.5), (0.4, 0.4, 0.3), 0.3)]

    @staticmethod
    def _rays():
        """An 8x8 camera whose pixel 5 leaves the sphere before `near`."""
        origins, dirs = generate_ray_arrays(Intrinsics(8, 8, 3.5, 3.5, 8, 8),
                                            Pose(np.eye(3), (0.0, 0.1, 0.0)))
        origins[5], dirs[5] = (0.0, 0.0, 0.99), (0.0, 0.0, 1.0)
        return origins, dirs, _splitmix64(np.arange(64, dtype=np.uint64))

    def _render(self, origins, dirs, seed):
        cfg = RenderConfig(n_coarse=16, n_fine=8, seed=seed)
        return render_full(Ray(origins, dirs), cfg, self.NEAR, self.FAR, self.BOXES, self.OBJECT)

    def test_partition_invariance(self):
        origins, dirs, seeds = self._rays()
        whole = self._render(origins, dirs, seeds)
        singles = [self._render(origins[i], dirs[i], int(seeds[i])) for i in range(64)]
        splits = [self._render(origins[sl], dirs[sl], seeds[sl])
                  for sl in (slice(0, 1), slice(1, 8), slice(8, 64))]
        assert whole.acc_near[5] == 0.0 and whole.acc_near.max() > 0.0
        for field in ("color", "acc", "acc_near"):
            single = np.array([getattr(r, field) for r in singles])
            split = np.concatenate([getattr(r, field) for r in splits])
            assert np.array_equal(getattr(whole, field), single), field
            assert np.array_equal(getattr(whole, field), split), field

    @pytest.mark.parametrize("n_coarse,n_fine", [(16, 0), (16, 8), (2, 5), (64, 32)])
    def test_matches_per_ray_reference(self, n_coarse, n_fine):
        # only the order of the final colour and acc sums differs
        origins, dirs, seeds = self._rays()
        cfg = RenderConfig(n_coarse=n_coarse, n_fine=n_fine, seed=seeds)
        got = render_full(Ray(origins, dirs), cfg, self.NEAR, self.FAR, self.BOXES, self.OBJECT)
        for i in range(64):
            want = _per_ray_reference(origins[i], dirs[i],
                                      RenderConfig(n_coarse=n_coarse, n_fine=n_fine, seed=int(seeds[i])),
                                      self.NEAR, self.FAR, self.BOXES, self.OBJECT)
            assert np.abs(got.color[i] - want[0]).max() <= 1e-12
            assert abs(got.acc[i] - want[1]) <= 1e-12
            assert abs(got.acc_near[i] - want[2]) <= 1e-12

    def test_rejects_origin_outside_in_packet(self):
        origins, dirs, seeds = self._rays()
        origins[3] = (0.0, 0.0, 1.0)
        with pytest.raises(OriginOutsideSphere):
            self._render(origins, dirs, seeds)
