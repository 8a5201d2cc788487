import hashlib
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import radiant.cli
from radiant import render
from radiant.core_math import Intrinsics, Pose, Ray, generate_ray_arrays, splitmix64_stream
from radiant.errors import (
    LengthMismatch,
    OriginOutsideSphere,
)
from radiant.fields import ConstantField, GaussianBlobField, RadianceField
from radiant.metrics import OrientedBox3
from radiant.render import (
    RenderConfig,
    SUPPRESSION_SIGMA,
    composite,
    render_full,
    stratified_samples,
)

RAY_Z = Ray((0, 0, 0), (0, 0, 1))
RED = ConstantField((1, 0, 0), 1e9)
EMPTY = ConstantField((0, 0, 0), 0.0)

MASK64 = 2**64 - 1


def splitmix64_int(x: int) -> int:
    """SplitMix64 finalizer on plain Python ints (reference for the library's)."""
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1E4357B3) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_uniforms(seed: int, start: int, m: int) -> np.ndarray:
    """Draws start..start+m-1 of a seed's stream: the top 53 bits of
    splitmix64(splitmix64(seed) + k), times 2**-53."""
    key = splitmix64_int(seed & MASK64)
    return np.array([(splitmix64_int((key + k) & MASK64) >> 11) * 2.0**-53
                     for k in range(start, start + m)])


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
        colors = rng.uniform(0, 1, (30, 3, 4))
        sigmas = rng.uniform(0, 20, (4, 30))
        deltas = rng.uniform(1e-3, 0.1, (4, 30))
        packet = composite(colors, sigmas, deltas)
        assert packet.color.shape == (4, 3) and packet.acc.shape == (4,)
        for i in range(4):
            row = composite(colors[..., i], sigmas[i], deltas[i])
            assert np.array_equal(packet.color[i], row.color)
            assert packet.acc[i] == row.acc
            assert np.array_equal(packet.weights[i], row.weights)

    @pytest.mark.parametrize("n_rays", [1, 2, 5])
    def test_packet_layout_edges(self, n_rays):
        # (S, 3, R) colors with -0.0 values and an all -0.0 channel, and a
        # sigma of 1e308: every ray gets its single-ray bits, signed zeros too
        rng = np.random.default_rng(n_rays)
        colors = rng.uniform(0, 1, (40, 3, n_rays))
        colors[::3, 0] = -0.0
        colors[:, 2] = -0.0
        sigmas = rng.uniform(0, 20, (n_rays, 40))
        sigmas[0, 7] = 1e308
        deltas = rng.uniform(1e-3, 0.1, (n_rays, 40))
        packet = composite(colors, sigmas, deltas)
        for i in range(n_rays):
            row = composite(colors[..., i], sigmas[i], deltas[i])
            assert packet.color[i].tobytes() == row.color.tobytes()
            assert np.float64(packet.acc[i]).tobytes() == np.float64(row.acc).tobytes()
            assert packet.weights[i].tobytes() == row.weights.tobytes()

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


def _allocating_weights(sigmas, deltas):
    """render._weights as it was, with a temporary for each step."""
    alpha = -np.expm1(-np.maximum(sigmas, 0.0) * deltas)
    trans = np.cumprod(np.concatenate([np.ones_like(alpha[..., :1]), 1.0 - alpha[..., :-1]],
                                      axis=-1), axis=-1)
    return alpha * trans


class TestCompositeBuffers:
    """composite in fewer buffers has the bits of the allocating formulas:
    _weights in two buffers, the color sum in SUM_PIECES pieces; and it
    leaves the arrays it is given as they were."""

    @pytest.mark.parametrize("shape", [(0,), (1,), (2,), (7,), (3, 0), (1, 1), (5, 40),
                                       (256, 288)])
    def test_bits_equal_the_oracle(self, shape):
        rng = np.random.default_rng(sum(shape) * 10 + len(shape))
        sigmas = rng.uniform(-1.0, 50.0, shape)
        deltas = rng.uniform(1e-4, 0.2, shape)
        deltas.flat[::4] = 0.0  # zero-length segments
        sigmas.flat[1::5] = SUPPRESSION_SIGMA  # pruned samples
        sigmas.flat[2::7] = 0.0
        sigmas.flat[3::9] = -0.0
        sigmas.flat[5::11] = 1e308  # opaque: alpha 1
        got = render._weights(sigmas, deltas)
        want = _allocating_weights(sigmas, deltas)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_rays", [None, 1, 5])
    @pytest.mark.parametrize("n_samples", [0, 1, 7, 8, 9, 17, 288])
    def test_color_sum_equals_one_reduce(self, n_rays, n_samples):
        rng = np.random.default_rng(n_samples * 10 + (n_rays or 0))
        rows = () if n_rays is None else (n_rays,)
        colors = rng.uniform(0, 1, (n_samples, 3) + rows)
        colors[::3, 1] = -0.0
        sigmas = rng.uniform(0, 30, rows + (n_samples,))
        deltas = rng.uniform(1e-3, 0.1, rows + (n_samples,))
        weights = _allocating_weights(sigmas, deltas)
        want = np.add.reduce(colors * weights.T[:, None], axis=0).T
        got = composite(colors, sigmas, deltas).color
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_composite_keeps_its_inputs(self):
        rng = np.random.default_rng(8)
        colors = rng.uniform(0, 1, (40, 3, 6))
        sigmas = rng.uniform(-1, 20, (6, 40))
        sigmas[:, ::3] = SUPPRESSION_SIGMA
        deltas = rng.uniform(0.0, 0.1, (6, 40))
        before = [a.copy() for a in (colors, sigmas, deltas)]
        res = composite(colors, sigmas, deltas)
        for a, b in zip((colors, sigmas, deltas), before):
            assert a.tobytes() == b.tobytes()
        assert res.weights.tobytes() == _allocating_weights(sigmas, deltas).tobytes()


class TestPrune:
    """render_full prunes the near field inside the boxes: _in_boxes masks
    the samples and _eval_streams writes SUPPRESSION_SIGMA there."""

    @staticmethod
    def near_sigmas(near_ts, boxes):
        """Near and object sigmas of z-axis samples at near_ts, with a near
        field of sigma 7 and no object field."""
        (_, obj_sigmas, _, sigmas), _ = render._eval_streams(
            RAY_Z, near_ts, near_ts + 2.0, ConstantField((1, 0, 0), 7.0), EMPTY, boxes, None)
        return sigmas, obj_sigmas

    def test_suppression_value(self):
        # stored for fidelity; compositing clamps it to zero at use
        assert SUPPRESSION_SIGMA == -1e-5

    def test_no_boxes_identity(self):
        sigmas, obj_sigmas = self.near_sigmas(np.array([[0.25, 0.5, 0.75]]), [])
        assert np.array_equal(sigmas, np.full((1, 3), 7.0))
        assert np.array_equal(obj_sigmas, np.zeros((1, 3)))

    def test_face_point_counts_inside(self):
        box = OrientedBox3((0, 0, 0), (1, 1, 1))
        assert np.array_equal(render._in_boxes(np.array([[0.5], [0], [0]]), [box]), [True])

    def test_outside_unchanged(self):
        # near samples on the z axis at 0.125 and 0.875 lie outside the box
        # over [0.25, 0.75], those at 0.25 and 0.75 (its faces) and 0.5 inside
        box = OrientedBox3((0, 0, 0.5), (1, 1, 0.5))
        sigmas, obj_sigmas = self.near_sigmas(np.array([[0.125, 0.25, 0.5, 0.75, 0.875]]), [box])
        assert np.array_equal(sigmas, [[7.0] + [SUPPRESSION_SIGMA] * 3 + [7.0]])
        assert np.array_equal(obj_sigmas, np.zeros((1, 5)))

    def test_any_of_several_boxes(self):
        boxes = [OrientedBox3((0, 0, 0), (1, 1, 1)), OrientedBox3((2, 0, 0), (1, 1, 1))]
        pts = np.array([[0, 0, 0], [2, 0, 0], [1, 0, 0.9]], dtype=float)
        assert np.array_equal(render._in_boxes(pts.T, boxes), [True, True, False])

    @pytest.mark.parametrize("shape", [(2, 4, 3), (2, 3, 3)])
    def test_ray_sample_batches_read_the_last_axis(self, shape):
        # (3, R, S) samples give the (R, S) mask of their flattened (3, R*S) rows;
        # with S = 3 a mask read along the wrong axis would still have that shape
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.0, 1.0, shape)
        boxes = [OrientedBox3((0.2, -0.1, 0.0), (1.0, 0.8, 1.2), yaw=0.4),
                 OrientedBox3((-0.5, 0.5, 0.3), (0.6, 0.6, 0.6))]
        pts[0, 1], pts[1, 2] = boxes[0].center, boxes[1].center + 0.1
        pts[0, 0] = pts[1, 1] = 5.0
        xyz = np.moveaxis(pts, -1, 0)
        flat = xyz.reshape(3, -1)
        for box in boxes:
            want = box.contains(flat).reshape(shape[:-1])
            assert want.any() and not want.all()
            assert np.array_equal(box.contains(xyz), want)
        mask = render._in_boxes(xyz, boxes)
        assert np.array_equal(mask, render._in_boxes(flat, boxes).reshape(shape[:-1]))
        assert mask.any() and not mask.all()


class TestNearFar:
    def test_opaque_near_hides_far(self):
        cfg = RenderConfig(seed=1)
        color1, _, acc1 = render_full(RAY_Z, cfg, RED, ConstantField((0, 1, 0), 1e9))
        color2, _, acc2 = render_full(RAY_Z, cfg, RED, EMPTY)
        assert np.array_equal(color1, color2)
        assert np.array_equal(color1, [1, 0, 0])
        assert acc1 == pytest.approx(1.0, abs=1e-12)

    def test_transparent_near_passes_to_far(self):
        cfg = RenderConfig(seed=2)
        blue = ConstantField((0, 0, 1), 1e9)
        color, _, acc_near = render_full(RAY_Z, cfg, EMPTY, blue)
        assert np.array_equal(color, [0, 0, 1])
        assert acc_near == 0.0

    def test_both_empty(self):
        cfg = RenderConfig(seed=3)
        color, _, acc_near = render_full(RAY_Z, cfg, EMPTY, EMPTY)
        assert np.array_equal(color, np.zeros(3))
        assert acc_near == 0.0

    def test_origin_outside_rejected(self):
        with pytest.raises(OriginOutsideSphere):
            render_full(Ray((2, 0, 0), (0, 0, 1)), RenderConfig(), EMPTY, EMPTY)

    def test_composited_matches_two_stage_formula(self):
        # translucent near over an opaque far background
        cfg = RenderConfig(seed=11)
        near = ConstantField((1, 0, 0), 1.0)
        far = ConstantField((0, 0, 1), 1e9)
        color, _, acc_near = render_full(RAY_Z, cfg, near, far)
        expected = acc_near * np.array([1, 0, 0]) + (1 - acc_near) * np.array([0, 0, 1])
        assert np.abs(color - expected).max() < 1e-12


class TestRenderComposed:
    def test_empty_boxes_bit_identical(self):
        # a box behind the camera holds no near sample: the editing branch
        # runs, prunes nothing and never queries the object field
        near = GaussianBlobField((0.9, 0.4, 0.1), 5.0, (0, 0, 0.4), 0.2)
        far = ConstantField((0.1, 0.2, 0.3), 2.0)
        box = OrientedBox3((0, 0, -0.6), (0.3, 0.3, 0.3))
        obj = ConstantField((1, 1, 0), 1e9)
        for seed, n_fine in itertools.product(range(21, 31), (0, 8)):
            cfg = RenderConfig(seed=seed, n_fine=n_fine)
            base = render_full(RAY_Z, cfg, near, far)
            edited = render_full(RAY_Z, cfg, near, far, [box], obj)
            assert all(np.array_equal(a, b) for a, b in zip(base, edited))

    def test_opaque_object_occludes(self):
        cfg = RenderConfig(seed=5)
        box = OrientedBox3((0, 0, 0.5), (1, 1, 1.2))
        yellow = ConstantField((1, 1, 0), 1e9)
        near = ConstantField((1, 0, 0), 5.0)
        color = render_full(RAY_Z, cfg, near, EMPTY, [box], yellow).color
        assert np.array_equal(color, [1, 1, 0])

    def test_deleted_object_hole_filled_by_far(self):
        # hand-built two-segment composite over the engine's own sample ladder
        cfg = RenderConfig(n_coarse=32, seed=17)
        near_sigma, far_sigma = 2.0, 3.0
        near_color = np.array([0.8, 0.2, 0.1])
        far_color = np.array([0.1, 0.3, 0.9])
        box = OrientedBox3((0, 0, 0.45), (2, 2, 0.5))  # z in [0.2, 0.7]
        got = render_full(RAY_Z, cfg, ConstantField(near_color, near_sigma),
                          ConstantField(far_color, far_sigma), [box]).color

        # oracle: replay the near [0, n) and far [n, 2n) draws, composite manually
        t_sphere = 1.0
        n = cfg.n_coarse
        nj = stream_uniforms(cfg.seed, 0, n)
        fj = stream_uniforms(cfg.seed, n, n)
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
        pruned = render_full(RAY_Z, cfg, near, far, [box]).color
        background = render_full(RAY_Z, cfg, EMPTY, far).color
        assert np.abs(pruned - background).max() < 1e-12
        # the same near segment covered by two boxes that meet at z = 0.5
        halves = [OrientedBox3((0, 0, 0.2), (3, 3, 0.6)), OrientedBox3((0, 0, 0.8), (3, 3, 0.6))]
        assert np.array_equal(render_full(RAY_Z, cfg, near, far, halves).color, pruned)

    def test_fine_sampling_conserves(self):
        cfg = RenderConfig(seed=41, n_coarse=32, n_fine=32)
        near = GaussianBlobField((0.9, 0.4, 0.1), 8.0, (0, 0, 0.4), 0.15)
        far = ConstantField((0.1, 0.2, 0.3), 2.0)
        color, _, acc_near = render_full(RAY_Z, cfg, near, far)
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
                _, sig = blob.eval(pts)
                res = composite(np.zeros((n, 3)), sig, s.deltas)
                errs.append(abs((1.0 - res.acc) - t_exact))
            return float(np.mean(errs))

        e32, e64, e128, e256 = (mean_error(n) for n in (32, 64, 128, 256))
        assert e64 <= 0.6 * e32
        assert e128 <= 0.6 * e64
        assert e256 <= 0.6 * e128


def _per_ray_reference(o, d, cfg, near_field, far_field, boxes, object_field):
    """One ray at a time with np.interp and np.unique: the renderer's
    algorithm before it was batched into packets, with jitter replayed from
    the seed's stream at the fixed offsets near [0, n), far [n, 2n), near
    fine [2n, 2n + f) and far fine [2n + f, 2n + 2f). Returns (color, acc,
    acc_near)."""
    n, f = cfg.n_coarse, cfg.n_fine
    b, c = float(o @ d), float(o @ o)
    t_sphere = -b + math.sqrt(b * b - (c - 1.0))

    def radius_to_t(r):
        return -b + np.sqrt(b * b + r**2 - c)

    def sample_pdf(edges, w, start):
        w = np.maximum(w, 0.0) + 1e-9
        cdf = np.concatenate([[0.0], np.cumsum(w / w.sum())])
        return np.interp((np.arange(f) + stream_uniforms(cfg.seed, start, f)) / f, cdf, edges)

    def compose(near_ts, near_deltas, far_ts, far_deltas):
        near_pts = o[:, None] + near_ts * d[:, None]
        near_c, near_s = near_field.eval(near_pts)
        inside = np.zeros(near_ts.size, dtype=bool)
        for box in boxes:
            inside |= box.contains(near_pts)
        near_s = np.where(inside, SUPPRESSION_SIGMA, near_s)
        obj_c, obj_s = np.zeros((3, 0)), np.zeros(0)
        if object_field is not None and inside.any():
            obj_c, obj_s = object_field.eval(near_pts[:, inside])
        far_c, far_s = far_field.eval(o[:, None] + far_ts * d[:, None])
        t_all = np.concatenate([near_ts[inside], near_ts, far_ts])
        ranks = np.repeat([0, 1, 2], [inside.sum(), near_ts.size, far_ts.size])
        order = np.lexsort((ranks, t_all))
        res = composite(np.concatenate([obj_c, near_c, far_c], axis=1)[:, order].T,
                        np.concatenate([obj_s, near_s, far_s])[order],
                        np.concatenate([near_deltas[inside], near_deltas, far_deltas])[order])
        return res.color, res.acc, res.weights[ranks[order] == 1], res.weights[ranks[order] == 2]

    near_j, far_j = stream_uniforms(cfg.seed, 0, n), stream_uniforms(cfg.seed, n, n)
    near_ts = near_deltas = np.zeros(0)
    if t_sphere > cfg.near:
        near_ts = cfg.near + (np.arange(n) + near_j) * (t_sphere - cfg.near) / n
        near_deltas = np.append(np.diff(near_ts), t_sphere - near_ts[-1])
    u = (n - np.arange(n) - far_j) / n
    far_ts = radius_to_t(1.0 / u)
    far_deltas = np.append(np.diff(far_ts), far_ts[-1] - far_ts[-2])
    if f > 0:
        _, _, near_w, far_w = compose(near_ts, near_deltas, far_ts, far_deltas)
        if near_ts.size >= 2:
            edges = np.concatenate([[cfg.near], 0.5 * (near_ts[:-1] + near_ts[1:]), [t_sphere]])
            near_ts = np.unique(np.concatenate([near_ts, sample_pdf(edges, near_w, 2 * n)]))
            near_deltas = np.maximum(np.append(np.diff(near_ts), t_sphere - near_ts[-1]), 1e-12)
        u_asc = u[::-1]
        edges_u = np.concatenate([[0.0], 0.5 * (u_asc[:-1] + u_asc[1:]), [1.0]])
        fine_u = sample_pdf(edges_u, far_w[::-1], 2 * n + f)
        far_ts = radius_to_t(1.0 / np.unique(np.concatenate([u_asc, fine_u[fine_u > 1e-9]]))[::-1])
        far_deltas = np.maximum(np.append(np.diff(far_ts), far_ts[-1] - far_ts[-2]), 1e-12)
    color, acc, near_w, _ = compose(near_ts, near_deltas, far_ts, far_deltas)
    return color, acc, near_w.sum()


class TestPacket:
    """Packets of rays against single rays and the per-ray algorithm."""

    NEAR = GaussianBlobField((0.9, 0.4, 0.1), 12.0, (0.05, -0.05, 0.45), 0.25)
    FAR = ConstantField((0.1, 0.2, 0.4), 1.5)
    FAR_BLOB = GaussianBlobField((0.2, 0.6, 0.3), 2.0, (0.0, 0.0, 2.0), 1.0)
    OBJECT = ConstantField((1.0, 1.0, 0.0), 200.0)
    BOXES = [OrientedBox3((0.0, 0.0, 0.5), (0.4, 0.4, 0.3), 0.3)]

    @staticmethod
    def _rays():
        """An 8x8 camera whose pixel 5 leaves the sphere before `near`."""
        origins, dirs = generate_ray_arrays(Intrinsics(8, 8, 3.5, 3.5, 8, 8),
                                            Pose(np.eye(3), (0.0, 0.1, 0.0)))
        origins[5], dirs[5] = (0.0, 0.0, 0.99), (0.0, 0.0, 1.0)
        return origins, dirs, np.array([splitmix64_int(i) for i in range(64)], dtype=np.uint64)

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

    def _check_reference(self, n_coarse, n_fine, far):
        # only the order of the final colour and acc sums differs
        origins, dirs, seeds = self._rays()
        cfg = RenderConfig(n_coarse=n_coarse, n_fine=n_fine, seed=seeds)
        got = render_full(Ray(origins, dirs), cfg, self.NEAR, far, self.BOXES, self.OBJECT)
        for i in range(64):
            want = _per_ray_reference(origins[i], dirs[i],
                                      RenderConfig(n_coarse=n_coarse, n_fine=n_fine, seed=int(seeds[i])),
                                      self.NEAR, far, self.BOXES, self.OBJECT)
            assert np.abs(got.color[i] - want[0]).max() <= 1e-12
            assert abs(got.acc[i] - want[1]) <= 1e-12
            assert abs(got.acc_near[i] - want[2]) <= 1e-12

    @pytest.mark.parametrize("n_coarse,n_fine", [(16, 0), (16, 8), (2, 5), (64, 32)])
    def test_matches_per_ray_reference(self, n_coarse, n_fine):
        self._check_reference(n_coarse, n_fine, self.FAR)

    @pytest.mark.parametrize("n_coarse,n_fine", [(16, 8), (64, 32)])
    def test_far_jitter_matches_per_ray_reference(self, n_coarse, n_fine):
        # a constant far field makes far transmittance ~0 whatever the sample
        # positions; a far blob of finite mass shows the far and far-fine draws
        self._check_reference(n_coarse, n_fine, self.FAR_BLOB)

    def test_image_with_a_one_ray_packet(self):
        # 257 pixels: a packet of 256 rays, then one of a single ray
        cfg = RenderConfig(n_coarse=16, n_fine=8, seed=5)
        k, pose = Intrinsics(40, 40, 128.0, 0.0, 257, 1), Pose(np.eye(3), (0.0, 0.1, 0.0))
        img, _ = radiant.cli._render_image(k, pose, cfg, 0, self.NEAR, self.FAR, self.BOXES,
                                           self.OBJECT)
        origins, dirs = generate_ray_arrays(k, pose)
        cam_key = splitmix64_stream(cfg.seed, 1)[0, -1]
        for i, seed in enumerate(splitmix64_stream(cam_key, 257)[0]):
            one = render_full(Ray(origins[i], dirs[i]), replace(cfg, seed=int(seed)),
                              self.NEAR, self.FAR, self.BOXES, self.OBJECT)
            assert img[0, i].tobytes() == np.clip(one.color, 0.0, 1.0).tobytes(), i

    def test_rejects_origin_outside_in_packet(self):
        origins, dirs, seeds = self._rays()
        origins[3] = (0.0, 0.0, 1.0)
        with pytest.raises(OriginOutsideSphere):
            self._render(origins, dirs, seeds)


def _lexsort_compose_streams(ray, near_ts, near_deltas, far_ts, far_deltas,
                             near_field, far_field, boxes, object_field):
    """The stream merge the static layout replaced, kept as its oracle:
    concatenate the object, near and far streams, lexsort each ray's samples
    by (t, stream), gather, composite, and scatter the weights back."""

    def evaluate(field, pts, mask):
        colors, sigmas = np.zeros(pts.shape), np.zeros(pts.shape[:-1])
        c, sigmas[mask] = field.eval(pts[mask].T)
        colors[mask] = c.T
        return colors, sigmas

    near_pts, far_pts = (np.moveaxis(ray.at(t), 0, -1) for t in (near_ts, far_ts))
    near_colors, near_sigmas = evaluate(near_field, near_pts, np.ones_like(near_ts, dtype=bool))
    obj_colors, obj_sigmas = np.zeros(near_colors.shape), np.zeros(near_ts.shape)
    if boxes:
        inside = np.any([box.contains(near_pts.reshape(-1, 3).T) for box in boxes], axis=0)
        inside = inside.reshape(near_ts.shape)
        near_sigmas[inside] = SUPPRESSION_SIGMA
        if object_field is not None and inside.any():
            obj_colors, obj_sigmas = evaluate(object_field, near_pts, inside)
    far_colors, far_sigmas = evaluate(far_field, far_pts, np.ones_like(far_ts, dtype=bool))

    sn, sf = near_ts.shape[1], far_ts.shape[1]
    t = np.concatenate([near_ts, near_ts, far_ts], axis=-1)
    deltas = np.concatenate([near_deltas, near_deltas, far_deltas], axis=-1)
    sigmas = np.concatenate([obj_sigmas, near_sigmas, far_sigmas], axis=-1)
    sigmas = np.where(deltas > 0, sigmas, 0.0)
    colors = np.concatenate([obj_colors, near_colors, far_colors], axis=1)
    ranks = np.broadcast_to(np.repeat([0, 1, 2], [sn, sn, sf]), t.shape)
    order = np.lexsort((ranks, t), axis=-1)
    comp = composite(np.take_along_axis(colors, order[..., None], axis=1).transpose(1, 2, 0),
                     np.take_along_axis(sigmas, order, axis=1),
                     np.take_along_axis(deltas, order, axis=1))
    weights = np.empty_like(comp.weights)
    np.put_along_axis(weights, order, comp.weights, axis=1)
    return comp.color, comp.acc, weights[:, sn:2 * sn], weights[:, 2 * sn:]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStaticOrder:
    """The static (object, near) pairs + far layout against the lexsort merge,
    at the same depths: every _stream_weights and _compose_streams call of a
    render runs both.
    The merge evaluates every field afresh, so the fine pass's reuse of the
    coarse pass's values is checked too."""

    SCENES = {"no-box": ((), None),
              "box": (TestPacket.BOXES, None),
              "box-object": (TestPacket.BOXES, TestPacket.OBJECT)}

    @staticmethod
    def _check(monkeypatch, origins, dirs, cfg, boxes, object_field):
        """Render once, comparing every pass with the lexsort merge at the
        same depths: the near and far weights of the coarse pass's
        _stream_weights (with n_fine) and of the final _compose_streams, and
        the final color and acc; returns which rays have a near region."""
        calls = []
        ray = Ray(origins, dirs)

        def hook(name):
            real = getattr(render, name)

            def both(near_ts, near, far_ts, far, t_sphere, has_near):
                got = real(near_ts, near, far_ts, far, t_sphere, has_near)
                near_deltas = np.where(has_near, np.diff(near_ts, axis=-1, append=t_sphere), 0.0)
                gaps = np.diff(far_ts, axis=-1, prepend=t_sphere)
                far_deltas = np.concatenate([gaps[:, 1:], gaps[:, -1:]], axis=-1)
                calls.append((name, got, _lexsort_compose_streams(
                    ray, near_ts, near_deltas, far_ts, far_deltas,
                    TestPacket.NEAR, TestPacket.FAR_BLOB, boxes, object_field)))
                return got

            monkeypatch.setattr(render, name, both)

        hook("_stream_weights")
        hook("_compose_streams")
        render_full(ray, cfg, TestPacket.NEAR, TestPacket.FAR_BLOB, boxes, object_field)
        assert [c[0] for c in calls] == ["_stream_weights"] * (cfg.n_fine > 0) + ["_compose_streams"]
        b = np.sum(origins * dirs, axis=-1)
        has_near = -b + np.sqrt(b * b - (np.sum(origins**2, axis=-1) - 1.0)) > cfg.near
        for name, got, want in calls:
            near_w, far_w = got[-2:]
            assert _same_bits(near_w, want[2]) and _same_bits(far_w, want[3])
            if name == "_compose_streams":
                color, acc = got[:2]
                assert _same_bits(color, want[0])
                # acc is a pairwise sum: rays without a near region used to
                # sort their zero-length near samples in among the far ones,
                # which may regroup it
                assert _same_bits(acc[has_near], want[1][has_near])
                assert np.abs(acc - want[1]).max() <= 1e-15
        return has_near

    @pytest.mark.parametrize("scene", list(SCENES))
    @pytest.mark.parametrize("n_fine", [0, 8])
    def test_matches_lexsort_merge(self, monkeypatch, n_fine, scene):
        origins, dirs, seeds = TestPacket._rays()
        cfg = RenderConfig(n_coarse=16, n_fine=n_fine, seed=seeds)
        has_near = self._check(monkeypatch, origins, dirs, cfg, *self.SCENES[scene])
        assert not has_near.all() and has_near.any()

    def test_zero_length_segments_ignore_infinite_density(self):
        # pixel 5 leaves the sphere before `near`: its near segments have length 0
        origins, dirs, seeds = TestPacket._rays()
        ray, cfg = Ray(origins[5], dirs[5]), RenderConfig(n_coarse=8, seed=int(seeds[5]))
        opaque = render_full(ray, cfg, ConstantField((1, 0, 0), np.inf), TestPacket.FAR_BLOB)
        empty = render_full(ray, cfg, EMPTY, TestPacket.FAR_BLOB)
        assert _same_bits(opaque.color, empty.color) and opaque.acc == empty.acc

    def test_random_rays(self, monkeypatch):
        # half the origins near the sphere's edge, where many rays leave the
        # sphere before `near` and so have no near region
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(300, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        radii = np.concatenate([rng.uniform(0.0, 0.95, 150), rng.uniform(0.95, 0.999, 150)])
        origins = rng.normal(size=(300, 3))
        origins *= (radii / np.linalg.norm(origins, axis=-1))[:, None]
        seeds = np.arange(300, dtype=np.uint64)
        cfg = RenderConfig(n_coarse=16, n_fine=8, seed=seeds)
        has_near = self._check(monkeypatch, origins, dirs, cfg, *self.SCENES["box-object"])
        assert (~has_near).sum() >= 10


class _Counting(RadianceField):
    """A field that records every point it evaluates."""

    def __init__(self, field):
        self.field, self.points = field, []

    def eval(self, pts):
        self.points.append(np.array(pts))
        return self.field.eval(pts)

    def count(self) -> int:
        return sum(p[0].size for p in self.points)


class TestEvalOnce:
    """The fine pass evaluates only its new draws and reuses the coarse
    pass's values, with the bits of the renderer that evaluated every
    sample again."""

    # sha256 of color, acc and acc_near of the packet below as rendered by
    # the re-evaluating fine pass
    SHA256 = {"no-box": "8bad7a6ae46812ab3e86bb97fafd5d979cc082472eceef7e22f24fd62f2c10f7",
              "box-object": "1151da5c533b6dac8f715fc992eb211281399525279a904f84ffc086c96adbb8"}

    @pytest.mark.parametrize("scene", list(SHA256))
    def test_each_sample_is_evaluated_once(self, scene):
        origins, dirs, seeds = TestPacket._rays()
        n, f = 16, 8
        boxes, object_field = TestStaticOrder.SCENES[scene]
        near, far = _Counting(TestPacket.NEAR), _Counting(TestPacket.FAR_BLOB)
        obj = None if object_field is None else _Counting(object_field)
        res = render_full(Ray(origins, dirs), RenderConfig(n_coarse=n, n_fine=f, seed=seeds),
                          near, far, boxes, obj)
        # pixel 5 has no near region: its fine near draws repeat its first
        # sample, and are evaluated all the same
        assert near.count() == far.count() == len(origins) * (n + f)
        if obj is not None:
            near_pts = np.concatenate([p.reshape(3, -1) for p in near.points], axis=1)
            inside = np.any([box.contains(near_pts) for box in boxes], axis=0)
            assert 0 < obj.count() == inside.sum()
        digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in res))
        assert digest.hexdigest() == self.SHA256[scene]


class TestCompositeCalls:
    """Only the final pass runs the color composite; the coarse pass of a
    fine render computes weights alone."""

    @staticmethod
    def _count(monkeypatch) -> list:
        calls, real = [], render.composite

        def counted(colors, sigmas, deltas):
            calls.append(np.shape(colors))
            return real(colors, sigmas, deltas)

        monkeypatch.setattr(render, "composite", counted)
        return calls

    @pytest.mark.parametrize("n_fine", [0, 8])
    def test_once_per_packet(self, monkeypatch, n_fine):
        calls = self._count(monkeypatch)
        origins, dirs, seeds = TestPacket._rays()
        render_full(Ray(origins, dirs), RenderConfig(n_coarse=16, n_fine=n_fine, seed=seeds),
                    TestPacket.NEAR, TestPacket.FAR_BLOB, TestPacket.BOXES, TestPacket.OBJECT)
        # the final layout: (object, near) pairs and the far ladder
        assert calls == [(3 * (16 + n_fine), 3, 64)]

    def test_once_per_packet_of_an_image(self, monkeypatch, tmp_path):
        calls = self._count(monkeypatch)
        # just under 25 rays' bytes: 8x8 pixels in packets of 24 rays, 3 packets
        ray_bytes = render.packet_bytes(1, RenderConfig(n_coarse=16, n_fine=8))
        monkeypatch.setattr(radiant.cli, "PACKET_BYTES", 25 * ray_bytes - 1)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "near_field": {"type": "gaussian", "color": [0.9, 0.4, 0.1], "amplitude": 12.0,
                           "center": [0.05, -0.05, 0.45], "scale": 0.25},
            "far_field": {"type": "constant", "color": [0.1, 0.2, 0.4], "sigma": 1.5},
            "cameras": [{"intrinsics": {"fx": 8, "fy": 8, "cx": 3.5, "cy": 3.5,
                                        "width": 8, "height": 8},
                         "pose": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                                  "translation": [0, 0, 0]}}],
            "n_coarse": 16, "n_fine": 8}))
        assert radiant.cli.dispatch(["render", "--scene", str(scene),
                                     "--out", str(tmp_path / "img")]) == 0
        assert [c[2] for c in calls] == [24, 24, 16]


def _broadcast_sample_pdf(edges, weights, jitter):
    """render._sample_pdf as it searched the CDF before: each draw's bin
    from an (R, n_fine, n_coarse + 1) count of the knots <= u."""
    w = np.maximum(weights, 0.0) + 1e-9
    cdf = np.cumsum(w / w.sum(axis=-1, keepdims=True), axis=-1)
    cdf = np.concatenate([np.zeros_like(cdf[:, :1]), cdf], axis=-1)
    u = (np.arange(jitter.shape[-1]) + jitter) / jitter.shape[-1]
    hi = np.clip(np.count_nonzero(cdf[:, None, :] <= u[..., None], axis=-1), 1, cdf.shape[-1] - 1)
    lo = hi - 1 + np.arange(len(cdf))[:, None] * cdf.shape[-1]
    c0, c1 = np.take(cdf, lo), np.take(cdf, lo + 1)
    e0, e1 = np.take(edges, lo), np.take(edges, lo + 1)
    return np.where(u >= cdf[:, -1:], edges[:, -1:], (e1 - e0) / (c1 - c0) * (u - c0) + e0)


class TestSamplePdf:
    """The stable-merge CDF search gives the broadcast count's bits."""

    @staticmethod
    def _check(edges, weights, jitter):
        got = render._sample_pdf(edges, weights, jitter)
        assert got.tobytes() == _broadcast_sample_pdf(edges, weights, jitter).tobytes()

    @pytest.mark.parametrize("n_coarse,n_fine", [(1, 1), (1, 3), (2, 1), (2, 5), (16, 8),
                                                 (64, 32), (200, 400)])
    def test_random_rows(self, n_coarse, n_fine):
        rng = np.random.default_rng(n_coarse * 1000 + n_fine)
        rows = 40
        edges = np.sort(rng.uniform(0.0, 3.0, (rows, n_coarse + 1)), axis=-1)
        weights = rng.exponential(size=(rows, n_coarse)) * (rng.random((rows, n_coarse)) < 0.7)
        weights[:4] = 0.0  # all-zero rows: the 1e-9 floor makes the pdf uniform
        weights[4:8] = -rng.random((4, n_coarse))
        self._check(edges, weights, rng.random((rows, n_fine)))

    @pytest.mark.parametrize("n_coarse", [1, 2, 8])
    def test_draws_on_knots(self, n_coarse):
        # equal weights put the knots near k / n_coarse and zero jitter puts
        # draws at k / n_fine: draw 0 ties knot 0, and with 2 bins draw 2
        # ties the knot at exactly 1/2
        n_fine = 2 * n_coarse
        edges = np.sort(np.random.default_rng(n_coarse).uniform(0.0, 3.0, (3, n_coarse + 1)))
        weights = np.ones((3, n_coarse))
        jitter = np.zeros((3, n_fine))
        jitter[1] = 1.0 - 2.0**-53  # the largest jitter below 1
        self._check(edges, weights, jitter)

    def test_tied_knots(self):
        # one huge weight: the 1e-9 floor of the others is lost to rounding,
        # so runs of equal knots sit before and after it
        edges = np.linspace(0.5, 2.5, 9)[None, :].repeat(4, axis=0)
        weights = np.zeros((4, 8))
        weights[:, 3] = 1e10
        weights[1, 0] = 1e10
        weights[2, 7] = 1e10
        weights[3, 0] = 1e10  # knots 1 to 4 are 1/2, which draw 3 ties
        jitter = np.linspace(0.0, 0.999, 4 * 6).reshape(4, 6)
        jitter[3] = 0.0
        cdf = np.cumsum(weights[0] + 1e-9) / np.sum(weights[0] + 1e-9)
        assert cdf[4] == cdf[5] == cdf[7] == 1.0  # the ties are real
        self._check(edges, weights, jitter)

    def test_nan_knots_are_not_counted(self):
        edges = np.linspace(0.0, 1.0, 6)[None, :].repeat(2, axis=0)
        weights = np.ones((2, 5))
        weights[0, 2] = np.nan
        weights[1, 0] = np.inf
        with np.errstate(invalid="ignore"):
            self._check(edges, weights, np.full((2, 4), 0.25))
