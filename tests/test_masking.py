import math

import numpy as np
import pytest

from radiant.cli import dispatch
from radiant.core_math import Aabb
from radiant.errors import DimsMismatch, IndivisibleDims
from radiant.grids import VoxelGrid4D
from radiant.masking import (
    PatchMask,
    apply_mask,
    mse3d,
    patchify,
    psnr3d,
    random_mask,
    recon_losses,
)

CUBE = Aabb([-1, -1, -1], [1, 1, 1])


def splitmix64_int(x: int) -> int:
    """SplitMix64 finalizer on plain Python ints (reference for the library's)."""
    mask = 2**64 - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1E4357B3) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def random_grid(rng, n=8):
    return VoxelGrid4D(rng.uniform(0, 1, size=(n, n, n, 4)), CUBE)


class TestPatchify:
    def test_paper_scale_arithmetic(self):
        p = patchify((160, 160, 160), 4)
        assert p.n_patches == 40**3 == 64000

    def test_single_patch(self):
        assert patchify((8, 8, 8), 8).n_patches == 1

    def test_indivisible(self):
        with pytest.raises(IndivisibleDims):
            patchify((10, 10, 10), 4)

    def test_bijection(self):
        p = patchify((8, 12, 16), 4)
        seen = set()
        for idx in range(p.n_patches):
            sl = p.patch_slices(idx)
            key = (sl[0].start, sl[1].start, sl[2].start)
            assert key not in seen
            seen.add(key)
            px, py, pz = (k // 4 for k in key)
            assert p.patch_index(px, py, pz) == idx
        assert len(seen) == p.n_patches


class TestRandomMask:
    def test_750_of_1000(self):
        m = random_mask(1000, 0.75, seed=0)
        assert m.n_masked == 750
        assert m.n_patches - m.n_masked == 250

    def test_ratio_zero(self):
        assert random_mask(100, 0.0, seed=1).n_masked == 0

    def test_ratio_one(self):
        assert random_mask(100, 1.0, seed=1).n_masked == 100

    def test_deterministic(self):
        a = random_mask(4096, 0.75, seed=42)
        b = random_mask(4096, 0.75, seed=42)
        assert np.array_equal(a.masked, b.masked)

    def test_rounding_half_up(self):
        assert random_mask(5, 0.1, seed=0).n_masked == 1  # 0.5 rounds up

    def test_hundred_seeds_all_distinct(self):
        n = 40**3
        seen = {random_mask(n, 0.75, seed=s).masked.tobytes() for s in range(100)}
        assert len(seen) == 100

    def test_partition(self):
        m = random_mask(512, 0.3, seed=9)
        assert m.n_masked == round(0.3 * 512)
        assert np.count_nonzero(~m.masked) == 512 - m.n_masked

    @pytest.mark.parametrize("seed", [0, -3, 2**64 + 5])
    def test_keys_are_the_seed_stream(self, seed):
        # patch i's key is splitmix64(splitmix64(seed mod 2**64) + i), worked
        # here on plain ints; every k masks the k lowest keys
        n = 60
        key = splitmix64_int(seed % 2**64)
        keys = [splitmix64_int((key + i) % 2**64) for i in range(n)]
        order = sorted(range(n), key=keys.__getitem__)
        for k in range(n + 1):
            want = np.zeros(n, dtype=bool)
            want[order[:k]] = True
            assert np.array_equal(random_mask(n, k / n, seed).masked, want), k


class TestApplyMask:
    def test_ratio_zero_identity(self):
        rng = np.random.default_rng(0)
        g = random_grid(rng)
        m = random_mask(8, 0.0, seed=0, patch_size=4, grid_dims=g.dims)
        assert np.array_equal(apply_mask(g, m).data, g.data)

    def test_ratio_one_zeroes_everything(self):
        rng = np.random.default_rng(1)
        g = random_grid(rng)
        m = random_mask(8, 1.0, seed=0, patch_size=4, grid_dims=g.dims)
        assert np.array_equal(apply_mask(g, m).data, np.zeros_like(g.data))

    def test_visible_patches_bit_identical(self):
        rng = np.random.default_rng(2)
        g = random_grid(rng, n=12)
        p = patchify(g.dims, 4)
        m = random_mask(p.n_patches, 0.5, seed=3, patch_size=4, grid_dims=g.dims)
        out = apply_mask(g, m)
        for idx in range(p.n_patches):
            sl = p.patch_slices(idx)
            if m.masked[idx]:
                assert np.array_equal(out.data[sl], np.zeros_like(out.data[sl]))
            else:
                assert np.array_equal(out.data[sl], g.data[sl])

    def test_dims_mismatch(self):
        rng = np.random.default_rng(3)
        g = random_grid(rng, n=8)
        m = random_mask(27, 0.5, seed=0, patch_size=4)
        with pytest.raises(DimsMismatch):
            apply_mask(g, m)


def oracle_apply_mask(g: VoxelGrid4D, m: PatchMask) -> VoxelGrid4D:
    """The apply_mask that copied the grid and zeroed it through a
    voxel-level boolean mask."""
    gx, gy, gz = patchify(g.dims, m.patch_size).grid
    p = m.patch_size
    m3 = m.masked.reshape(gx, gy, gz)
    vm = np.repeat(np.repeat(np.repeat(m3, p, axis=0), p, axis=1), p, axis=2)
    data = g.data.copy()
    data[vm] = 0.0
    return VoxelGrid4D(data, g.bounds)


class TestOnePassMask:
    """apply_mask's one np.where over the voxel blocks has the bits of the
    copy-and-scatter oracle."""

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("dims", [(8, 8, 8), (4, 12, 8), (16, 4, 12)])
    def test_bits_equal_the_oracle(self, p, dims):
        rng = np.random.default_rng(p * 100 + dims[0])
        data = rng.normal(size=(*dims, 3))
        data.flat[::5] = -0.0
        data.flat[1::7] = np.nan
        data.flat[2::11] = -np.inf
        g = VoxelGrid4D(data, CUBE)
        n = patchify(dims, p).n_patches
        for ratio in (0.0, 0.3, 0.5, 1.0):
            m = random_mask(n, ratio, seed=9, patch_size=p, grid_dims=dims)
            got, want = apply_mask(g, m).data, oracle_apply_mask(g, m).data
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(g.data.view(np.uint64), data.view(np.uint64))  # input untouched

    def test_non_contiguous_grid(self):
        data = np.random.default_rng(5).normal(size=(8, 4, 12, 2)).transpose(2, 1, 0, 3)
        g = VoxelGrid4D(data, CUBE)
        m = random_mask(patchify(g.dims, 4).n_patches, 0.5, seed=1, patch_size=4)
        assert np.array_equal(apply_mask(g, m).data.view(np.uint64),
                              oracle_apply_mask(g, m).data.view(np.uint64))

    def test_errors_unchanged(self):
        g = VoxelGrid4D(np.zeros((8, 8, 12, 4)), CUBE)
        with pytest.raises(DimsMismatch, match=r"^mask has 8 patches, grid has 12$"):
            apply_mask(g, random_mask(8, 0.5, seed=0, patch_size=4))
        with pytest.raises(DimsMismatch, match=r"^mask dims \(8, 12, 8\) vs grid dims \(8, 8, 12\)$"):
            apply_mask(g, PatchMask(4, np.zeros(12, bool), 0, 0.5, grid_dims=(8, 12, 8)))
        with pytest.raises(IndivisibleDims, match=r"^dims \(8, 8, 12\) not divisible by 8$"):
            apply_mask(g, random_mask(1, 0.5, seed=0, patch_size=8))

    def test_cli_mask_in_place(self, tmp_path):
        def run(*argv):
            return dispatch([str(a) for a in argv])

        assert run("voxelize", "--field", "gaussian", "--dims", "8,12,16",
                   "--out", tmp_path / "g.nfvg") == 0
        args = ("--ratio", "0.5", "--patch", "4", "--seed", "3")
        assert run("mask", "--grid", tmp_path / "g.nfvg", *args, "--out", tmp_path / "m.nfvg",
                   "--mask-out", tmp_path / "m.json") == 0
        assert run("mask", "--grid", tmp_path / "g.nfvg", *args, "--out", tmp_path / "g.nfvg",
                   "--mask-out", tmp_path / "g.json", "--force") == 0
        assert (tmp_path / "g.nfvg").read_bytes() == (tmp_path / "m.nfvg").read_bytes()
        assert (tmp_path / "g.json").read_bytes() == (tmp_path / "m.json").read_bytes()


class TestReconLosses:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(4)
        g = random_grid(rng)
        m = random_mask(8, 0.75, seed=1, patch_size=4, grid_dims=g.dims)
        out = recon_losses(g, g, m)
        assert out.rgb == 0.0 and out.alpha == 0.0

    def test_visible_errors_ignored(self):
        rng = np.random.default_rng(5)
        target = random_grid(rng)
        m = random_mask(8, 0.5, seed=2, patch_size=4, grid_dims=target.dims)
        pred = VoxelGrid4D(target.data.copy(), target.bounds)
        p = patchify(target.dims, 4)
        for idx in np.flatnonzero(~m.masked):
            pred.data[p.patch_slices(idx)] = rng.uniform(0, 1, (4, 4, 4, 4))
        out = recon_losses(pred, target, m)
        assert out.rgb == 0.0 and out.alpha == 0.0

    def test_single_voxel_hand_case(self):
        bounds = CUBE
        target = VoxelGrid4D.zeros((4, 4, 4), 4, bounds)
        m = random_mask(1, 1.0, seed=0, patch_size=4, grid_dims=(4, 4, 4))
        target.data[1, 2, 3] = [0.3, 0.4, 0.5, 0.5]  # alpha 0.5 passes the gate
        pred = VoxelGrid4D(target.data.copy(), bounds)
        pred.data[1, 2, 3, 0] += 0.1
        out = recon_losses(pred, target, m)
        # one gated voxel: mean over rgb components of (0.1, 0, 0)^2
        assert out.rgb == pytest.approx(0.01 / 3, abs=1e-15)
        assert out.rgb_voxels == 1
        # alpha loss averages over all 64 masked voxels, here error 0
        assert out.alpha == 0.0

        pred.data[1, 2, 3, 3] = 0.7
        out = recon_losses(pred, target, m)
        assert out.alpha == pytest.approx(0.2**2 / 64, abs=1e-15)

    def test_empty_gate_flagged(self):
        target = VoxelGrid4D.zeros((4, 4, 4), 4, CUBE)  # all alpha 0
        pred = VoxelGrid4D(np.full((4, 4, 4, 4), 0.5), CUBE)
        m = random_mask(1, 1.0, seed=0, patch_size=4, grid_dims=(4, 4, 4))
        out = recon_losses(pred, target, m)
        assert out.rgb == 0.0 and out.rgb_voxels == 0
        assert out.alpha > 0.0

    def test_invariant_to_visible_changes(self):
        rng = np.random.default_rng(6)
        target = random_grid(rng)
        pred = VoxelGrid4D(rng.uniform(0, 1, target.data.shape), CUBE)
        m = random_mask(8, 0.5, seed=7, patch_size=4, grid_dims=target.dims)
        base = recon_losses(pred, target, m)
        vis = VoxelGrid4D(pred.data.copy(), CUBE)
        p = patchify(target.dims, 4)
        for idx in np.flatnonzero(~m.masked):
            vis.data[p.patch_slices(idx)] = rng.uniform(0, 1, (4, 4, 4, 4))
        out = recon_losses(vis, target, m)
        assert out == base


class TestPsnr3d:
    def test_spot_value_20db(self):
        target = VoxelGrid4D.zeros((4, 4, 4), 4, CUBE)
        pred = VoxelGrid4D(np.full((4, 4, 4, 4), 0.1), CUBE)  # MSE 0.01
        assert mse3d(pred, target) == pytest.approx(0.01, abs=1e-15)
        assert psnr3d(pred, target) == pytest.approx(20.0, abs=1e-9)

    def test_identical_caps_at_99(self):
        rng = np.random.default_rng(7)
        g = random_grid(rng)
        assert psnr3d(g, g) == 99.0

    def test_zero_vs_one(self):
        target = VoxelGrid4D.zeros((2, 2, 2), 4, CUBE)
        pred = VoxelGrid4D(np.ones((2, 2, 2, 4)), CUBE)
        assert psnr3d(pred, target) == pytest.approx(0.0, abs=1e-12)

    def test_strictly_decreases_with_error(self):
        target = VoxelGrid4D.zeros((2, 2, 2), 4, CUBE)
        pred = VoxelGrid4D(np.full((2, 2, 2, 4), 0.2), CUBE)
        base = psnr3d(pred, target)
        pred.data[0, 0, 0, 0] = 0.5
        assert psnr3d(pred, target) < base

    def test_out_of_range_rejected(self):
        target = VoxelGrid4D.zeros((2, 2, 2), 4, CUBE)
        pred = VoxelGrid4D(np.full((2, 2, 2, 4), 1.5), CUBE)
        with pytest.raises(ValueError):
            psnr3d(pred, target)
