"""Volume rendering: stratified ray sampling, alpha compositing, the
inverted-sphere near/far decomposition for unbounded scenes, and box
pruning for compositional scene editing.

Rays for the near/far renderer must start inside the unit sphere. The near
region covers [near, t_sphere] along the ray; the far region is sampled
uniformly in inverse radius 1/r over (0, 1], which allocates resolution
inversely with distance. Near depths lie in [near, t_sphere] and far depths
past it, so the object, near and far streams need no sort: object and near
samples alternate (objects reuse the near depths), then the far ladder
follows, composited in one pass; with no boxes, editing reproduces plain
near/far rendering bit for bit.

render_full is the one renderer. It takes one ray or a packet of R rays (a
Ray with (R, 3) arrays) and lays out every ray alike, in (R, S) samples,
(3, R, S) points and (S, 3, R) colors, so a ray renders the same bits in any packet.
Each sample is evaluated once: the fine pass evaluates only its new near
and far draws and merges them by depth with the coarse pass's values,
which, as field evals are pointwise, are the bits a fresh evaluation gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .core_math import Ray, uniform_stream
from .errors import LengthMismatch, OriginOutsideSphere
from .fields import RadianceField
from .grids import sigma_to_alpha
from .metrics import OrientedBox3

# Density written into pruned samples; compositing clamps sigma at zero, so
# this deletes the sample exactly while keeping the stored value faithful.
SUPPRESSION_SIGMA = -1e-5


@dataclass
class RenderConfig:
    near: float = 0.02
    far: float = 3.0
    n_coarse: int = 64
    n_fine: int = 0  # hierarchical resampling, off by default
    # jitter seed of one ray, or an (R,) array of per-ray seeds for a packet
    seed: Union[int, np.ndarray] = 0

    def __post_init__(self):
        if not (0 < self.near < self.far):
            raise ValueError("need 0 < near < far")
        if self.n_coarse < 1:
            raise ValueError("n_coarse must be at least 1")
        if self.n_fine < 0:
            raise ValueError("n_fine must be nonnegative")


@dataclass
class RaySamples:
    """Sorted sample depths and the segment length owned by each sample
    (the last segment runs to the far bound)."""

    t_values: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        self.t_values = np.asarray(self.t_values, dtype=np.float64)
        self.deltas = np.asarray(self.deltas, dtype=np.float64)
        if self.t_values.shape != self.deltas.shape:
            raise LengthMismatch("t_values and deltas must have equal length")
        if self.t_values.size and np.any(np.diff(self.t_values) <= 0):
            raise ValueError("t_values must be strictly increasing")
        if np.any(self.deltas <= 0):
            raise ValueError("deltas must be positive")


class CompositeResult(NamedTuple):
    color: np.ndarray
    acc: float
    weights: np.ndarray


def _stratified(lo, hi, jitter: np.ndarray) -> np.ndarray:
    """One draw per equal-width stratum of [lo, hi), placed by the uniform
    jitter in [0, 1) along the last axis; lo and hi broadcast against it."""
    n = jitter.shape[-1]
    return lo + (np.arange(n) + jitter) * (hi - lo) / n


def stratified_samples(ray: Ray, cfg: RenderConfig) -> RaySamples:
    """Stratified coarse samples of [near, far]; jitter is the seed's draws [0, n)."""
    t = _stratified(cfg.near, cfg.far, uniform_stream(cfg.seed, cfg.n_coarse)[0])
    deltas = np.append(np.diff(t), cfg.far - t[-1])
    return RaySamples(t, deltas)


def composite(colors, sigmas, deltas) -> CompositeResult:
    """Front-to-back alpha compositing along the sample axis.

    w_i = alpha_i * prod_{j<i} (1 - alpha_j); returns the weighted color,
    the accumulated opacity (= sum of weights), and the weights themselves.
    Negative densities (pruned samples) are clamped to zero here.

    One ray passes colors (S, 3) and sigmas, deltas (S,) and gets a (3,)
    color and a float acc; a packet of R rays passes (S, 3, R) colors and
    (R, S) sigmas and deltas, and gets (R, 3) colors, (R,) acc and (R, S)
    weights. Both sum colors sample after sample: a ray's bits in any packet.
    """
    colors = np.asarray(colors, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if sigmas.ndim < 2:
        sigmas, deltas = sigmas.ravel(), deltas.ravel()
        colors = np.zeros((0, 3)) if colors.size == sigmas.size == 0 else np.atleast_2d(colors)
    if not (colors.shape == (sigmas.shape[-1], 3) + sigmas.shape[:-1]
            and sigmas.shape == deltas.shape):
        raise LengthMismatch(f"colors/sigmas/deltas shapes {colors.shape}/{sigmas.shape}/"
                             f"{deltas.shape}")
    weights = _weights(sigmas, deltas)
    acc = weights.sum(axis=-1)
    color = np.add.reduce(colors * weights.T[:, None], axis=0).T
    return CompositeResult(color, float(acc) if acc.ndim == 0 else acc, weights)


def _weights(sigmas, deltas) -> np.ndarray:
    """composite's weights of (..., S) sigmas, clamped at zero here, and
    deltas: w_i = alpha_i * prod_{j<i} (1 - alpha_j) along the last axis."""
    alpha = sigma_to_alpha(np.maximum(sigmas, 0.0), deltas)
    trans = np.cumprod(np.concatenate([np.ones_like(alpha[..., :1]), 1.0 - alpha[..., :-1]],
                                      axis=-1), axis=-1)
    return alpha * trans


def _in_boxes(xyz: np.ndarray, boxes: Sequence[OrientedBox3]) -> np.ndarray:
    """Mask of the points of the (3, ...) rows inside any of the boxes, faces included."""
    inside = boxes[0].contains(xyz)
    for box in boxes[1:]:
        inside |= box.contains(xyz)
    return inside


def _sample_pdf(edges: np.ndarray, weights: np.ndarray, jitter: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF draws from the piecewise-constant pdf over each
    row's bins, one per equal stratum of [0, 1) placed by the jitter; the
    arithmetic is np.interp's, row by row."""
    w = np.maximum(weights, 0.0) + 1e-9
    cdf = np.cumsum(w / w.sum(axis=-1, keepdims=True), axis=-1)
    cdf = np.concatenate([np.zeros_like(cdf[:, :1]), cdf], axis=-1)
    u = _stratified(0.0, 1.0, jitter)
    # row-wise searchsorted, cdf[hi - 1] <= u < cdf[hi], by a stable merge:
    # u ascends and a knot tied with a draw sorts first, so draw k lands at
    # position hi + k (NaN knots sort last, uncounted as by <=)
    order = np.argsort(np.concatenate([cdf, u], axis=-1), axis=-1, kind="stable")
    pos = np.flatnonzero(order >= cdf.shape[-1]).reshape(u.shape) % order.shape[-1]
    hi = np.clip(pos - np.arange(u.shape[-1]), 1, cdf.shape[-1] - 1)
    lo = hi - 1 + np.arange(len(cdf))[:, None] * cdf.shape[-1]  # flat index of cdf[hi - 1]
    c0, c1 = np.take(cdf, lo), np.take(cdf, lo + 1)
    e0, e1 = np.take(edges, lo), np.take(edges, lo + 1)
    return np.where(u >= cdf[:, -1:], edges[:, -1:], (e1 - e0) / (c1 - c0) * (u - c0) + e0)


def packet_bytes(n_rays: int, cfg: RenderConfig) -> int:
    """Bytes of the largest array render_full makes for a packet of n_rays:
    the (3 (n_coarse + n_fine), 3, R) float64 colors of its sample layout."""
    return n_rays * 3 * (cfg.n_coarse + cfg.n_fine) * 3 * 8


class RenderResult(NamedTuple):
    """Composited color, accumulated opacity, and the part of it from the
    near region: (3,) and floats for one ray, (R, 3) and (R,) for a packet."""

    color: np.ndarray
    acc: float
    acc_near: float


def render_full(
    ray: Ray,
    cfg: RenderConfig,
    near_field: RadianceField,
    far_field: RadianceField,
    boxes: Sequence[OrientedBox3] = (),
    object_field: Optional[RadianceField] = None,
) -> RenderResult:
    """Render one ray, or a packet of R rays with cfg.seed an (R,) array of
    per-ray seeds. Inside the boxes the near field is pruned and object_field
    (if given) is queried instead; with no boxes the object field is unused.

    Every ray gets the same (R, S) sample layout: where the per-ray
    algorithm has fewer samples (no near region when t_sphere <= near, a
    repeated depth, a dropped far draw) the layout holds a zero-length
    segment, which contributes nothing. So a ray renders the same bit for
    bit in any packet.
    """
    o, d = np.atleast_2d(ray.origin), np.atleast_2d(ray.direction)
    b = np.sum(o * d, axis=-1, keepdims=True)
    oo = np.sum(o * o, axis=-1, keepdims=True)
    if np.any(oo >= 1.0):
        raise OriginOutsideSphere("ray origin must lie inside the unit sphere")
    t_sphere = -b + np.sqrt(b * b - (oo - 1.0))
    has_near = t_sphere > cfg.near
    n, n_fine = cfg.n_coarse, cfg.n_fine

    # jitter k of a ray is draw k of its seed's stream: near [0, n), far
    # [n, 2n), near fine [2n, 2n + f), far fine [2n + f, 2n + 2f)
    jitter = np.broadcast_to(uniform_stream(cfg.seed, 2 * (n + n_fine)), (len(o), 2 * (n + n_fine)))
    near_ts = _stratified(cfg.near, t_sphere, jitter[:, :n])
    # descending inverse radius over (0, 1]: first sample sits just outside
    # the sphere, later samples stride toward infinity
    u = (n - np.arange(n) - jitter[:, n:2 * n]) / n

    def far_depths(u_desc):
        return -b + np.sqrt(b * b + (1.0 / u_desc) ** 2 - oo)  # where |o + t d| = 1 / u

    def evaluate(near_ts, far_ts):
        return _eval_streams(ray, near_ts, far_ts, near_field, far_field, boxes, object_field)

    far_ts = far_depths(u)
    near, far = evaluate(near_ts, far_ts)
    if n_fine > 0:
        near_w, far_w = _stream_weights(near_ts, near, far_ts, far, t_sphere, has_near)
        # rays with fewer than 2 near samples repeat their first sample
        fine_near = has_near & (n >= 2)
        edges = np.concatenate([np.full_like(t_sphere, cfg.near),
                                0.5 * (near_ts[:, :-1] + near_ts[:, 1:]), t_sphere], axis=-1)
        fine = _sample_pdf(edges, near_w, jitter[:, 2 * n:2 * n + n_fine])
        fine_ts = np.where(fine_near, fine, near_ts[:, :1])

        u_asc = u[:, ::-1]
        edges_u = np.concatenate([np.zeros_like(t_sphere), 0.5 * (u_asc[:, :-1] + u_asc[:, 1:]),
                                  np.ones_like(t_sphere)], axis=-1)
        fine_u = _sample_pdf(edges_u, far_w[:, ::-1], jitter[:, 2 * n + n_fine:])
        # draws at u ~ 0 (infinite radius) become repeats of the first sample
        fine_u = np.where(fine_u > 1e-9, fine_u, u[:, :1])

        # only the new draws are evaluated; far depths never rise with u, so
        # ordering them by depth is the ladder's descending-u order
        fine_far_ts = far_depths(fine_u)
        fine_near_vals, fine_far_vals = evaluate(fine_ts, fine_far_ts)
        near_ts, *near = _merge((near_ts, *near), (fine_ts, *fine_near_vals))
        far_ts, *far = _merge((far_ts, *far), (fine_far_ts, *fine_far_vals))

    color, acc, near_w, _ = _compose_streams(near_ts, near, far_ts, far, t_sphere, has_near)
    acc_near = near_w.sum(axis=-1)
    if ray.origin.ndim == 1:
        return RenderResult(color[0], float(acc[0]), float(acc_near[0]))
    return RenderResult(color, acc, acc_near)


def _merge(coarse, fine):
    """Join each coarse (R, S) or (C, R, S) array to its fine counterpart
    along the last, sample axis, and order every ray's samples by the joined
    depths, the first array. Equal depths give a point equal values, so which
    of two tied samples comes first does not change any array."""
    joined = [np.concatenate([c, f], axis=-1) for c, f in zip(coarse, fine)]
    n_rays, s = joined[0].shape
    rows = np.argsort(joined[0], axis=1) + (np.arange(n_rays) * s)[:, None]
    return [np.take(a.reshape(a.shape[:-2] + (-1,)), rows, axis=-1) for a in joined]


def _eval_streams(ray, near_ts, far_ts, near_field, far_field, boxes, object_field):
    """Field values at each ray's near and far depths: (3, R, S), (R, S).

    Returns near = (object colors, object sigmas, near colors, near sigmas)
    and far = (colors, sigmas). Inside the boxes the near sigmas hold
    SUPPRESSION_SIGMA and the object field's values fill the object arrays,
    which hold zeros everywhere else (and everywhere with no object field)."""
    near_xyz = ray.at(near_ts)
    colors, sigmas = near_field.eval(near_xyz)
    obj_colors, obj_sigmas = np.zeros(near_xyz.shape), np.zeros(near_ts.shape)
    if boxes:
        inside = _in_boxes(near_xyz, boxes)
        sigmas = np.where(inside, SUPPRESSION_SIGMA, sigmas)
        if object_field is not None and inside.any():
            obj_colors[:, inside], obj_sigmas[inside] = object_field.eval(near_xyz[:, inside])
    return (obj_colors, obj_sigmas, colors, sigmas), far_field.eval(ray.at(far_ts))


def _layout(near_ts, near, far_ts, far, t_sphere, has_near):
    """Lay out each ray's object, near and far streams, the (R, S) depths
    and the values of _eval_streams, in one static (R, 2 sn + sf) layout
    ordered by t (ties: object, then near, then far): object sample i in
    column 2i, near sample i in column 2i + 1, the far ladder from column
    2 sn. Object slots stay at sigma 0 with no boxes (moving zero weights
    would regroup acc's pairwise sum), as do zero-length segments.

    A near sample's segment runs to the next one (the last to the sphere)
    and has length 0 on a ray with no near region; a far segment runs to
    the next far sample, and the last repeats the one before it (for a lone
    sample, the gap from the sphere), as the ladder runs to infinity.
    Returns the layout's sigmas and deltas, and the column slices of the
    object, near and far samples. Colors are laid out by the caller that
    needs them."""
    (n_rays, sn), sf = near_ts.shape, far_ts.shape[1]
    slots = obj, near_s, far_s = np.s_[:, 0:2 * sn:2], np.s_[:, 1:2 * sn:2], np.s_[:, 2 * sn:]
    sigmas = np.empty((n_rays, 2 * sn + sf))
    deltas = np.empty_like(sigmas)
    sigmas[obj], sigmas[near_s], sigmas[far_s] = near[1], near[3], far[1]
    deltas[obj] = deltas[near_s] = np.where(has_near, np.diff(near_ts, axis=-1, append=t_sphere),
                                            0.0)
    gaps = np.diff(far_ts, axis=-1, prepend=t_sphere)
    deltas[:, 2 * sn:-1] = gaps[:, 1:]
    deltas[:, -1:] = gaps[:, -1:]
    return np.where(deltas > 0, sigmas, 0.0), deltas, slots


def _stream_weights(near_ts, near, far_ts, far, t_sphere, has_near):
    """The near and far weights of the layout, and nothing else: what the
    coarse pass needs to place the fine draws."""
    sigmas, deltas, (_, near_s, far_s) = _layout(near_ts, near, far_ts, far, t_sphere, has_near)
    weights = _weights(sigmas, deltas)
    return weights[near_s], weights[far_s]


def _compose_streams(near_ts, near, far_ts, far, t_sphere, has_near):
    """Composite the layout of the streams (see _layout), colors (S, 3, R);
    returns color, acc and the near and far weights."""
    sigmas, deltas, slots = _layout(near_ts, near, far_ts, far, t_sphere, has_near)
    colors = np.empty((sigmas.shape[1], 3, sigmas.shape[0]))
    for (_, cols), stream in zip(slots, (near[0], near[2], far[0])):
        colors[cols] = stream.transpose(2, 0, 1)
    comp = composite(colors, sigmas, deltas)
    return comp.color, comp.acc, comp.weights[slots[1]], comp.weights[slots[2]]
