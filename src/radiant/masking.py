"""3D patch masking and masked-reconstruction objectives.

A grid is divided into p^3 voxel patches; a seeded counter-based hash ranks
the patches and the top fraction is masked (zeroed). Reconstruction quality
is scored with the masked rgb/alpha losses and 3D PSNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core_math import splitmix64_stream
from .errors import DimsMismatch, IndivisibleDims
from .grids import ALPHA_DELTA, VoxelGrid4D

def patch_grid(dims, p: int) -> tuple[int, int, int]:
    """Patch counts per axis; every dimension must divide by p."""
    if p < 1:
        raise ValueError("patch size must be positive")
    x, y, z = dims
    if x % p or y % p or z % p:
        raise IndivisibleDims(f"dims {tuple(dims)} not divisible by {p}")
    return x // p, y // p, z // p


@dataclass
class Patchify:
    """Bijection between flat patch indices and voxel blocks (x-major)."""

    dims: tuple[int, int, int]
    p: int

    def __post_init__(self):
        self.grid = patch_grid(self.dims, self.p)

    @property
    def n_patches(self) -> int:
        gx, gy, gz = self.grid
        return gx * gy * gz

    def patch_index(self, px: int, py: int, pz: int) -> int:
        gx, gy, gz = self.grid
        return (px * gy + py) * gz + pz

    def patch_slices(self, index: int) -> tuple[slice, slice, slice]:
        gx, gy, gz = self.grid
        px, rem = divmod(index, gy * gz)
        py, pz = divmod(rem, gz)
        p = self.p
        return (
            slice(px * p, (px + 1) * p),
            slice(py * p, (py + 1) * p),
            slice(pz * p, (pz + 1) * p),
        )


def patchify(dims, p: int) -> Patchify:
    return Patchify(tuple(int(d) for d in dims), int(p))


@dataclass
class PatchMask:
    """Which patches of a grid are masked.

    grid_dims is optional metadata; when present it must divide by
    patch_size into exactly len(masked) patches.
    """

    patch_size: int
    masked: np.ndarray
    seed: int
    ratio: float
    grid_dims: Optional[tuple[int, int, int]] = None

    def __post_init__(self):
        self.masked = np.asarray(self.masked, dtype=bool)
        if self.grid_dims is not None:
            self.grid_dims = tuple(int(d) for d in self.grid_dims)
            gx, gy, gz = patch_grid(self.grid_dims, self.patch_size)
            if gx * gy * gz != self.masked.size:
                raise DimsMismatch(f"{self.masked.size} mask bits for {gx * gy * gz} patches")

    @property
    def n_patches(self) -> int:
        return int(self.masked.size)

    @property
    def n_masked(self) -> int:
        return int(np.count_nonzero(self.masked))

    def masked_indices(self) -> np.ndarray:
        return np.flatnonzero(self.masked)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def random_mask(
    n_patches: int,
    ratio: float,
    seed: int,
    patch_size: int = 4,
    grid_dims=None,
) -> PatchMask:
    """Mask exactly round(ratio * n_patches) patches.

    Each patch gets the counter-based hash of (seed, index); the lowest-ranked
    hashes are masked, so the result is independent of any evaluation order.
    """
    if not (0.0 <= ratio <= 1.0):
        raise ValueError("ratio must lie in [0, 1]")
    k = round_half_up(ratio * n_patches)
    keys = splitmix64_stream(seed, n_patches)[0]
    order = np.argsort(keys, kind="stable")
    masked = np.zeros(n_patches, dtype=bool)
    masked[order[:k]] = True
    return PatchMask(
        patch_size=patch_size,
        masked=masked,
        seed=int(seed),
        ratio=float(ratio),
        grid_dims=tuple(int(d) for d in grid_dims) if grid_dims is not None else None,
    )


def _patch_bits(dims, m: PatchMask) -> tuple[np.ndarray, tuple]:
    """The patch bitset as (gx, 1, gy, 1, gz, 1), and the shape
    (gx, p, gy, p, gz, p) of the voxel blocks of dims it broadcasts against."""
    p = m.patch_size
    gx, gy, gz = patch_grid(dims, p)
    if gx * gy * gz != m.n_patches:
        raise DimsMismatch(f"mask has {m.n_patches} patches, grid has {gx * gy * gz}")
    if m.grid_dims is not None and m.grid_dims != tuple(dims):
        raise DimsMismatch(f"mask dims {m.grid_dims} vs grid dims {tuple(dims)}")
    return m.masked.reshape(gx, 1, gy, 1, gz, 1), (gx, p, gy, p, gz, p)


def apply_mask(g: VoxelGrid4D, m: PatchMask, in_place: bool = False) -> VoxelGrid4D:
    """Zero all channels of every masked patch in one np.copyto over the
    grid's voxel blocks; visible voxels are untouched. Returns a C-contiguous
    copy of g so masked, g untouched, or with in_place g itself, masked in
    place: its data must then be C-contiguous, as a block view of any other
    layout is a copy."""
    bits, blocks = _patch_bits(g.dims, m)
    if in_place and not g.data.flags.c_contiguous:
        raise ValueError("apply_mask in place needs a C-contiguous grid")
    out = g if in_place else VoxelGrid4D(g.data.copy(), g.bounds)
    np.copyto(out.data.reshape(*blocks, g.channels), 0.0, where=bits[..., None])
    return out


class ReconLosses(NamedTuple):
    rgb: float
    alpha: float
    rgb_voxels: int  # size of the alpha-gated rgb set; 0 flags an empty gate


def recon_losses(
    pred: VoxelGrid4D,
    target: VoxelGrid4D,
    m: PatchMask,
) -> ReconLosses:
    """Masked reconstruction losses.

    rgb: mean squared rgb error (over voxels and channels jointly) on masked
    voxels whose target alpha exceeds grids.ALPHA_DELTA; alpha: mean squared
    alpha error over all masked voxels. An empty rgb gate yields 0, flagged
    via rgb_voxels == 0.
    """
    pred.check_same_dims(target)
    bits, blocks = _patch_bits(pred.dims, m)
    vm = np.broadcast_to(bits, blocks).reshape(pred.dims)  # voxel-level (X, Y, Z) mask
    if not vm.any():
        return ReconLosses(0.0, 0.0, 0)
    gate = vm & (target.data[..., 3] > ALPHA_DELTA)
    n_rgb = int(np.count_nonzero(gate))
    if n_rgb:
        diff = pred.data[gate][:, :3] - target.data[gate][:, :3]
        l_rgb = float(np.mean(diff**2))
    else:
        l_rgb = 0.0
    d_alpha = pred.data[vm][:, 3] - target.data[vm][:, 3]
    return ReconLosses(l_rgb, float(np.mean(d_alpha**2)), n_rgb)


def mse3d(pred: VoxelGrid4D, target: VoxelGrid4D) -> float:
    """Mean squared error over all voxels and channels."""
    pred.check_same_dims(target)
    return float(np.mean((pred.data - target.data) ** 2))


def psnr3d(pred: VoxelGrid4D, target: VoxelGrid4D) -> float:
    """3D PSNR in dB for grids with values in [0, 1]; equality caps at 99."""
    for name, g in (("pred", pred), ("target", target)):
        if g.data.min() < 0.0 or g.data.max() > 1.0:
            raise ValueError(f"{name} values must lie in [0, 1]")
    mse = mse3d(pred, target)
    if mse == 0.0:
        return 99.0
    return min(99.0, -10.0 * math.log10(mse))
