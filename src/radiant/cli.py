"""Command-line front end.

Subcommands are deterministic given (inputs, seed): primary outputs are
byte-reproducible, with wall-clock fields in stats/bench reports being the
only exception. Exit codes: 0 success, 1 usage error, 2 I/O error, 3 domain
error (module errors, reported as structured JSON on stderr). stdout carries
only primary payloads or output paths.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io
from .core_math import Aabb, Ray, generate_ray_arrays, splitmix64_stream
from .errors import DimsMismatch, RadiantError
from .fields import ConstantField
from .gridsample import sample_grid
from .masking import apply_mask, patchify, random_mask
from .metrics import detection_ap, nav_metrics, pose_ap, voxel_label_metrics
from .octree import LodConfig, dense_extract, extract_surface
from .projmaps import SemanticMapConfig, build_semantic_map
from .render import RenderConfig, packet_bytes, render_full

SDF_PRESETS = {
    "sphere": {"type": "sphere", "center": [0, 0, 0], "radius": 0.5},
    "box": {"type": "box", "center": [0, 0, 0], "half_extents": [0.35, 0.3, 0.25]},
    "union": {
        "type": "union",
        "shapes": [
            {"type": "sphere", "center": [-0.35, 0, 0], "radius": 0.3},
            {"type": "box", "center": [0.35, 0, 0], "half_extents": [0.25, 0.25, 0.25]},
        ],
    },
}

FIELD_PRESETS = {
    "sphere": {"type": "ball", "color": [1.0, 0.6, 0.2], "sigma": 40.0, "radius": 0.5},
    "gaussian": {"type": "gaussian", "color": [0.3, 0.5, 1.0], "amplitude": 20.0,
                 "scale": 0.25},
    "constant": {"type": "constant", "color": [0.5, 0.5, 0.5], "sigma": 1.0},
}


class _UsageError(Exception):
    pass


_NUMBER = r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
_NUMBER_LIST = re.compile(rf"{_NUMBER}(,{_NUMBER})*")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # argparse reads a token that starts with "-" as an option unless it
        # is one negative number; a comma-separated list of numbers
        # ("-0.4,-0.4,-0.4,0.4,0.4,0.4") is a value too
        if _NUMBER_LIST.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "type": type(exc).__name__,
                      "message": str(exc)}), file=sys.stderr)


def _require_inputs(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).exists():
            raise FileNotFoundError(f"input file not found: {p}")


def _prepare_output(path, force: bool) -> Path:
    out = Path(path)
    if out.exists() and not force:
        raise FileExistsError(f"{out} exists; pass --force to overwrite")
    if out.parent and not out.parent.exists():
        raise FileNotFoundError(f"output directory does not exist: {out.parent}")
    return out


def _prepare_outputs(force: bool, **paths) -> list[Path]:
    """_prepare_output for each output flag, named by keyword (mask_out for
    --mask-out), after refusing two flags that name one file."""
    flags = {}
    for name, path in paths.items():
        flag = "--" + name.replace("_", "-")
        same = flags.setdefault(Path(path).resolve(), flag)
        if same != flag:
            raise OSError(f"{same} and {flag} name the same file: {path}")
    return [_prepare_output(path, force) for path in paths.values()]


# values one voxelized RGBA grid (a 203^3 grid) or one semantic map (2r x 2r
# cells by classes) may hold: larger ones are refused before they are allocated
MAX_GRID_VALUES = 1 << 25


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = [int(t) for t in text.split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3 or any(p < 1 for p in parts):
        raise ValueError(f"bad dims {text!r}; expected N or X,Y,Z")
    values = parts[0] * parts[1] * parts[2] * 4
    if values > MAX_GRID_VALUES:
        raise RadiantError(f"--dims {text}: an RGBA grid of {values} values, over the "
                           f"budget of {MAX_GRID_VALUES}; use smaller dims")
    return tuple(parts)


def _parse_bounds(text: str) -> Aabb:
    vals = [float(t) for t in text.split(",")]
    if len(vals) != 6:
        raise ValueError(f"bad bounds {text!r}; expected x0,y0,z0,x1,y1,z1")
    return Aabb(vals[:3], vals[3:])


def _load_spec(arg: str, presets: dict) -> dict:
    """The spec of a preset name, or the JSON object in the file arg names."""
    return presets[arg] if arg in presets else io.load_versioned_json(arg)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_voxelize(args) -> None:
    spec = _load_spec(args.field, FIELD_PRESETS)
    out = _prepare_output(args.out, args.force)
    field = io.field_from_spec(spec, Path(), args.field)
    grid = sample_grid(field, _parse_bounds(args.bounds), _parse_dims(args.dims))
    io.write_nfvg(out, grid)
    print(out)


def _cmd_extract_surface(args) -> None:
    shape = _load_spec(args.shape, SDF_PRESETS)
    out = Path(args.out)
    out, stats_path = _prepare_outputs(
        args.force, out=out, stats=args.stats or out.with_suffix(out.suffix + ".stats.json"))
    f = io.make_analytic_sdf(shape, args.shape)
    cfg = LodConfig(
        lod_start=args.lod_start,
        lod_end=args.lod_end,
        bounds=_parse_bounds(args.bounds),
        literal_occupancy=args.literal_occupancy,
    )
    samples, stats = extract_surface(f, cfg)
    io.write_ply(out, samples)
    io.dump_json(stats_path, {
        "evals_per_level": {str(k): v for k, v in stats.evals_per_level.items()},
        "total_sdf_evals": stats.total_sdf_evals,
        "projection_evals": stats.projection_evals,
        "surface_points": stats.surface_points,
        "wall_time": stats.wall_time,
        "no_surface": stats.no_surface,
        "dropped_points": stats.dropped_points,
    })
    print(out)


def _cmd_mask(args) -> None:
    _require_inputs(args.grid)
    out, mask_out = _prepare_outputs(args.force, out=args.out, mask_out=args.mask_out)
    grid = io.read_nfvg(args.grid)
    patches = patchify(grid.dims, args.patch)
    mask = random_mask(patches.n_patches, args.ratio, args.seed,
                       patch_size=args.patch, grid_dims=grid.dims)
    io.write_nfvg(out, apply_mask(grid, mask, in_place=True))
    io.dump_json(mask_out, {
        "p": mask.patch_size,
        "dims": list(grid.dims),
        "seed": mask.seed,
        "ratio": mask.ratio,
        "masked_indices": [int(i) for i in mask.masked_indices()],
    })
    print(out)


# bytes of a packet's largest array (render.packet_bytes): each render_full
# call takes as many rays as fit, at least one; a scene whose single ray is
# over it is refused before rendering
PACKET_BYTES = 1 << 20
# pixels of one camera: the image's ray, color and seed arrays hold W*H rows
MAX_IMAGE_PIXELS = 1 << 22


def _render_image(k, pose, cfg, cam_index, near_field, far_field, boxes, object_field):
    origins, dirs = generate_ray_arrays(k, pose)
    # pixel p's seed is hash p of the stream keyed by hash cam_index of the
    # seed's stream, so it does not depend on how the image is split into packets
    cam_key = splitmix64_stream(cfg.seed, cam_index + 1)[0, -1]
    seeds = splitmix64_stream(cam_key, len(origins))[0]
    colors = np.zeros(origins.shape)
    accs = np.zeros(len(origins))
    rays = min(len(origins), max(1, PACKET_BYTES // packet_bytes(1, cfg)))
    for lo in range(0, len(origins), rays):
        sl = slice(lo, lo + rays)
        res = render_full(Ray(origins[sl], dirs[sl]), replace(cfg, seed=seeds[sl]),
                          near_field, far_field, boxes, object_field)
        colors[sl] = res.color
        accs[sl] = res.acc
    img = np.clip(colors, 0.0, 1.0).reshape(k.height, k.width, 3)
    return img, float(accs.mean())


def _cmd_render(args) -> None:
    _require_inputs(args.scene)
    scene_dir = Path(args.scene).parent
    doc = io.load_versioned_json(args.scene)

    def build_field(key):
        spec = doc.get(key)
        return None if spec is None else io.field_from_spec(spec, scene_dir,
                                                            f"{args.scene}: {key}")

    empty = ConstantField((0, 0, 0), 0.0)
    near_field = build_field("near_field") or empty
    far_field = build_field("far_field") or empty
    object_field = build_field("object_field")
    boxes = [io.box_from_json(b, f"{args.scene}: boxes[{i}]")
             for i, b in enumerate(io.read_key(doc, "boxes", args.scene, io.json_list, []))]
    cameras = io.read_key(doc, "cameras", args.scene, io.json_list, [])
    if not cameras:
        raise RadiantError("scene has no cameras")
    views = []
    for ci, cam in enumerate(cameras):
        where = f"{args.scene}: cameras[{ci}]"
        views.append((
            io.intrinsics_from_json(io.read_key(cam, "intrinsics", where),
                                    f"{where}: intrinsics"),
            io.pose_from_json(io.read_key(cam, "pose", where), f"{where}: pose")))
    cfg = RenderConfig(
        near=io.read_key(doc, "near", args.scene, io.json_float, RenderConfig.near),
        far=io.read_key(doc, "far", args.scene, io.json_float, RenderConfig.far),
        n_coarse=io.read_key(doc, "n_coarse", args.scene, io.json_int, RenderConfig.n_coarse),
        n_fine=io.read_key(doc, "n_fine", args.scene, io.json_int, RenderConfig.n_fine),
        seed=args.seed,
    )
    for ci, (k, _) in enumerate(views):
        if k.width * k.height > MAX_IMAGE_PIXELS:
            raise RadiantError(
                f"{args.scene}: cameras[{ci}] is {k.width}x{k.height}, over the budget "
                f"of {MAX_IMAGE_PIXELS} pixels a camera; use a smaller image")
    nbytes = packet_bytes(1, cfg)
    if nbytes > PACKET_BYTES:
        raise RadiantError(
            f"{args.scene}: n_coarse {cfg.n_coarse} and n_fine {cfg.n_fine} need a "
            f"{nbytes}-byte array for one ray, over the budget of {PACKET_BYTES}; "
            f"use fewer samples")

    image_paths = [
        _prepare_output(f"{args.out}_{ci:03d}.ppm", args.force)
        for ci in range(len(cameras))
    ]
    metrics_path = _prepare_output(f"{args.out}_metrics.json", args.force)
    outputs = []
    for ci, ((k, pose), path) in enumerate(zip(views, image_paths)):
        img, mean_acc = _render_image(k, pose, cfg, ci,
                                      near_field, far_field, boxes, object_field)
        io.write_ppm(path, img)
        outputs.append({"image": path.name, "mean_acc": mean_acc})
        print(path)
    io.dump_json(metrics_path, {"images": outputs})


def _parse_iou_thresholds(text: str) -> list[float]:
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"--iou-thresholds {text!r}: expected comma-separated "
                         "numbers") from None
    if not all(0.0 < v < 1.0 for v in vals):
        raise ValueError(f"--iou-thresholds {text!r}: each must lie in (0, 1)")
    return vals


def _parse_pose_thresholds(text: str) -> list[tuple[float, float]]:
    pairs = []
    for pair in text.split(","):
        try:
            deg_s, cm_s = pair.split(":")
            deg, cm = float(deg_s), float(cm_s)
        except ValueError:
            raise ValueError(f"--pose-thresholds: bad pair {pair!r}; expected "
                             "deg:cm") from None
        if not (deg > 0 and cm > 0):
            raise ValueError(f"--pose-thresholds: pair {pair!r} must be positive")
        pairs.append((deg, cm))
    return pairs


def _parse_axis(text: str) -> np.ndarray:
    try:
        axis = np.array([float(t) for t in text.split(",")])
    except ValueError:
        axis = np.zeros(0)
    # written so that a NaN norm (any NaN component) fails the test too
    if axis.shape != (3,) or not abs(np.linalg.norm(axis) - 1.0) <= 1e-6:
        raise ValueError(f"--symmetry-axis {text!r}: expected a unit 3-vector x,y,z")
    return axis


def _entries(path, key: str) -> tuple[list, str]:
    """The list under key in a JSON document, and its name in errors."""
    entries = io.read_key(io.load_versioned_json(path), key, str(path), io.json_list)
    return entries, f"{path}: {key}"


def _cmd_eval_detect(args) -> None:
    thresholds = _parse_iou_thresholds(args.iou_thresholds)
    _require_inputs(args.pred, args.gt)
    out = _prepare_output(args.out, args.force)
    preds = io.boxes_from_json(*_entries(args.pred, "boxes"), scored=True)
    gts = io.boxes_from_json(*_entries(args.gt, "boxes"))
    results = {}
    for thresh, r in zip(thresholds, detection_ap(preds, gts, thresholds)):
        per_class = {label: {"ap": ap, "recall": recall}
                     for label, (ap, recall) in r.per_class.items()}
        results[f"{thresh:g}"] = {"ap": r.ap, "recall": r.recall, "per_class": per_class}
    io.dump_json(out, {"iou_thresholds": thresholds, "results": results})
    print(out)


def _cmd_eval_pose(args) -> None:
    pairs = _parse_pose_thresholds(args.pose_thresholds)
    axis = _parse_axis(args.symmetry_axis)
    _require_inputs(args.pred, args.gt)
    out = _prepare_output(args.out, args.force)
    preds = io.poses_from_json(*_entries(args.pred, "poses"), scored=True)
    gts = io.poses_from_json(*_entries(args.gt, "poses"))
    sym_classes = [c for c in args.symmetric_classes.split(",") if c]
    axes = {c: axis for c in sym_classes}
    results = {}
    for (deg, cm), r in zip(pairs, pose_ap(preds, gts, pairs, axes)):
        per_class = {label: {"ap": ap} for label, ap in r.per_class.items()}
        results[f"{deg:g}deg{cm:g}cm"] = {"ap": r.ap, "per_class": per_class}
    io.dump_json(out, {"pose_thresholds": args.pose_thresholds.split(","),
                       "results": results})
    print(out)


def _labels_from_doc(path) -> tuple[np.ndarray, int]:
    doc = io.load_versioned_json(path)
    labels = Path(path).parent / io.read_key(doc, "labels_file", str(path), io.json_str)
    n_classes = io.read_key(doc, "n_classes", str(path), io.json_int)
    _require_inputs(labels)
    grid = io.read_nfvg(labels)
    if grid.channels != 1:
        raise RadiantError("label grids must have a single channel")
    data = grid.data[..., 0]
    np.rint(data, out=data)
    return data, n_classes


def _cmd_eval_voxels(args) -> None:
    _require_inputs(args.pred, args.gt)
    out = _prepare_output(args.out, args.force)
    pred, n_pred = _labels_from_doc(args.pred)
    gt, n_gt = _labels_from_doc(args.gt)
    if n_pred != n_gt:
        raise RadiantError(f"n_classes disagree: {n_pred} vs {n_gt}")
    m_iou, m_acc, acc = voxel_label_metrics(pred, gt, n_gt)
    io.dump_json(out, {"mIoU": m_iou, "mAcc": m_acc, "Acc": acc})
    print(out)


def _cmd_eval_nav(args) -> None:
    _require_inputs(args.trajectory)
    out = _prepare_output(args.out, args.force)
    doc = io.load_versioned_json(args.trajectory)
    where = str(args.trajectory)
    t = io.trajectory_from_json(io.read_key(doc, "trajectory", where),
                                f"{where}: trajectory")
    m = nav_metrics(t)
    io.dump_json(out, {"SR": m.sr, "SPL": m.spl, "nDTW": m.ndtw, "TL": m.tl, "NE": m.ne})
    print(out)


def _cmd_bench_octree(args) -> None:
    out = _prepare_output(args.out, args.force)
    shape = _load_spec(args.shape, SDF_PRESETS)
    f = io.make_analytic_sdf(shape, args.shape)
    rows = []
    for res in (40, 50, 60):
        t0 = time.perf_counter()
        samples = dense_extract(f, res, args.band)
        rows.append({
            "grid_type": "ordinary",
            "resolution": str(res),
            "input_points": res**3,
            "output_points": len(samples),
            "time_s": time.perf_counter() - t0,
        })
    ratios = []
    for i, lod in enumerate((5, 6, 7)):
        samples, stats = extract_surface(f, LodConfig(lod_start=3, lod_end=lod))
        matched = (1 << lod) ** 3
        ratios.append(stats.total_sdf_evals / matched)
        rows.append({
            "grid_type": "octree",
            "resolution": f"LoD{lod}",
            "input_points": stats.total_sdf_evals,
            "output_points": len(samples),
            "time_s": stats.wall_time,
            "eval_ratio_matched": ratios[-1],
        })
        if stats.total_sdf_evals >= rows[i]["input_points"]:
            raise RadiantError(f"octree LoD{lod} used {stats.total_sdf_evals} evals, not "
                               f"below the ordinary {rows[i]['resolution']} grid")
    if not (ratios[0] > ratios[1] > ratios[2]):
        raise RadiantError(f"matched eval ratios not strictly decreasing: {ratios}")
    io.dump_json(out, {"shape": args.shape, "band": args.band, "rows": rows,
                       "eval_ratios_matched": ratios})
    print(out)


def _cmd_semmap(args) -> None:
    cfg = SemanticMapConfig(
        r=args.half_extent,
        cell_size=args.cell_size,
        height_min=args.height_min,
        height_max=args.height_max,
        classes=args.classes,
    )
    values = (2 * cfg.r) ** 2 * cfg.classes
    if values > MAX_GRID_VALUES:
        raise RadiantError(f"--half-extent {cfg.r} and --classes {cfg.classes}: a map of "
                           f"{values} values, over the budget of {MAX_GRID_VALUES}; use a "
                           "smaller map or fewer classes")
    _require_inputs(args.depth, args.semantics, args.intrinsics, args.pose)
    out = _prepare_output(args.out, args.force)
    depth = io.read_npy(args.depth, 2)
    semantics = io.read_npy(args.semantics, 2, integral=True)
    k = io.intrinsics_from_json(io.load_versioned_json(args.intrinsics),
                                str(args.intrinsics))
    if depth.shape != (k.height, k.width):
        raise DimsMismatch(f"{args.depth}: depth of shape {depth.shape} does not fit the "
                           f"{k.width}x{k.height} image of {args.intrinsics}")
    pose = io.pose_from_json(io.load_versioned_json(args.pose), str(args.pose))
    smap = build_semantic_map(depth, semantics, k, pose, cfg)
    io.write_nfvg(out, io.semantic_map_to_grid(smap))
    print(out)


@functools.cache
def build_parser() -> _Parser:
    """The radiant argument parser, built on first use and then shared:
    parsing leaves it unchanged."""
    parser = _Parser(prog="radiant", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p):
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")

    p = sub.add_parser("voxelize", help="sample a radiance field into an NFVG grid")
    p.add_argument("--field", required=True,
                   help=f"preset ({', '.join(FIELD_PRESETS)}) or field JSON path")
    p.add_argument("--dims", default="160", help="N or X,Y,Z voxel counts")
    p.add_argument("--bounds", default="-1,-1,-1,1,1,1")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("extract-surface", help="octree SDF surface extraction to PLY")
    p.add_argument("--shape", required=True,
                   help=f"preset ({', '.join(SDF_PRESETS)}) or shape JSON path")
    p.add_argument("--lod-start", type=int, default=LodConfig.lod_start)
    p.add_argument("--lod-end", type=int, default=LodConfig.lod_end)
    p.add_argument("--bounds", default="-1,-1,-1,1,1,1")
    p.add_argument("--literal-occupancy", action="store_true",
                   help="keep cells with signed sdf < cell size instead of |sdf|")
    p.add_argument("--stats", help="stats JSON path (default: <out>.stats.json)")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_extract_surface)

    p = sub.add_parser("mask", help="apply seeded 3D patch masking to a grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--ratio", type=float, default=0.75)
    p.add_argument("--patch", type=int, default=4)
    p.add_argument("--out", required=True)
    p.add_argument("--mask-out", required=True, help="mask JSON output path")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("render", help="render scene JSON to PPM images")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("eval-detect", help="3D detection AP/recall")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--iou-thresholds", default="0.25,0.5")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_eval_detect)

    p = sub.add_parser("eval-pose", help="category-level pose AP")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--pose-thresholds", default="5:5,5:10,10:10",
                   help="comma-separated deg:cm pairs")
    p.add_argument("--symmetric-classes", default="bottle,bowl,can")
    p.add_argument("--symmetry-axis", default="0,1,0")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_eval_pose)

    p = sub.add_parser("eval-voxels", help="semantic voxel label metrics")
    p.add_argument("--pred", required=True, help='JSON with {"labels_file", "n_classes"}')
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_eval_voxels)

    p = sub.add_parser("eval-nav", help="navigation metrics for one episode")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_eval_nav)

    p = sub.add_parser("bench-octree", help="octree vs dense-grid sampling benchmark")
    p.add_argument("--shape", default="sphere",
                   help=f"preset ({', '.join(SDF_PRESETS)}) or shape JSON path")
    p.add_argument("--band", type=float, default=0.03)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_bench_octree)

    p = sub.add_parser("semmap", help="top-down semantic map from an RGB-D frame")
    p.add_argument("--depth", required=True, help=".npy depth image")
    p.add_argument("--semantics", required=True, help=".npy integer class image")
    p.add_argument("--intrinsics", required=True, help="intrinsics JSON")
    p.add_argument("--pose", required=True, help="pose JSON")
    p.add_argument("--half-extent", type=int, default=SemanticMapConfig.r)
    p.add_argument("--cell-size", type=float, default=SemanticMapConfig.cell_size)
    p.add_argument("--height-min", type=float, default=SemanticMapConfig.height_min)
    p.add_argument("--height-max", type=float, default=SemanticMapConfig.height_max)
    p.add_argument("--classes", type=int, default=SemanticMapConfig.classes)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_semmap)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.func(args)
    except (RadiantError, ValueError) as e:
        _emit_error("domain", e)
        return 3
    except OSError as e:
        _emit_error("io", e)
        return 2
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
