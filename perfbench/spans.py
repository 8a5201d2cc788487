"""In-memory span tracer around the calls into each radiant module.

Every traced function is replaced, for the duration of a traced job, at the
name its caller looks it up (``radiant.cli.render_full``,
``radiant.octree.project_to_surface``, ``radiant.fields.trilinear``, the
``eval`` method of each field class, ...). A span is (id, name, job, parent,
start ns, end ns, work); ``work`` is a count chosen per name (points, rays,
bytes written, a nonzero IoU). Parents come from a per-thread stack, and a
span opened on a worker thread with an empty stack hangs under the open
``cli.dispatch`` span, so the render thread pool's rays keep their parent.

Layer metrics are derived from the spans of one job: counts from job 0, whose
inputs are fixed by the seed, and times as medians over the traced jobs.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import statistics
import threading
import time
from pathlib import Path

import numpy as np

import radiant.cli
import radiant.fields
import radiant.io
import radiant.metrics
import radiant.octree
import radiant.render

FIELD_NAMES = ("fields.sdf_eval", "fields.radiance_eval")
# primary outputs only: JSON reports carry wall-clock fields, so their size
# is not a count that repeats
WRITE_NAMES = ("io.write_nfvg", "io.write_ply", "io.write_ppm")


def _points(pts) -> int:
    return int(np.asarray(pts).size // 3)


def _arg1_points(args, kwargs, result) -> int:
    # fields' eval(self, pts, dirs), trilinear(data, coords), sdf_gradients(f, pts, h)
    return _points(args[1])


def _rays(args, kwargs, result) -> int:
    return _points(args[0].origin)


def _bytes_written(args, kwargs, result) -> int:
    return Path(args[0]).stat().st_size


def _nonzero(args, kwargs, result) -> int:
    return int(result > 0.0)


def _extraction(args, kwargs, result):
    stats = result[1]
    return (sum(stats.evals_per_level.values()), stats.total_sdf_evals,
            stats.surface_points)


def _targets():
    """(owner, attribute, span name, work function) for every traced call."""
    cli, io, met = radiant.cli, radiant.io, radiant.metrics
    out = [
        (cli, "dispatch", "cli.dispatch", None),
        (cli, "render_full", "render.ray", _rays),
        (cli, "extract_surface", "octree.extract", _extraction),
        (cli, "sample_grid", "gridsample.sample_grid", None),
        (cli, "patchify", "masking.patchify", None),
        (cli, "random_mask", "masking.random_mask", None),
        (cli, "apply_mask", "masking.apply_mask", None),
        (cli, "build_semantic_map", "projmaps.build_semantic_map", None),
        (cli, "detection_ap", "metrics.detection_ap", None),
        (cli, "pose_ap", "metrics.pose_ap", None),
        (cli, "voxel_label_metrics", "metrics.voxel_label_metrics", None),
        (io, "write_nfvg", "io.write_nfvg", _bytes_written),
        (io, "read_nfvg", "io.read_nfvg", None),
        (io, "write_ply", "io.write_ply", _bytes_written),
        (io, "read_ply", "io.read_ply", None),
        (io, "write_ppm", "io.write_ppm", _bytes_written),
        (io, "load_versioned_json", "io.load_json", None),
        (io, "dump_json", "io.dump_json", None),
        (radiant.fields, "trilinear", "grids.trilinear", _arg1_points),
        (radiant.octree, "project_to_surface", "octree.project", None),
        (radiant.octree, "sdf_gradients", "fields.sdf_gradients", _arg1_points),
        (radiant.render, "composite", "render.composite", None),
        (met, "iou3d", "metrics.iou3d", _nonzero),
        (met, "pose_errors", "metrics.pose_errors", None),
        (met, "dtw_distance", "metrics.dtw_distance", None),
        (met, "chamfer", "metrics.chamfer", None),
    ]
    for cls in vars(radiant.fields).values():
        if isinstance(cls, type) and "eval" in vars(cls):
            if issubclass(cls, radiant.fields.SdfField):
                out.append((cls, "eval", "fields.sdf_eval", _arg1_points))
            elif issubclass(cls, radiant.fields.RadianceField):
                out.append((cls, "eval", "fields.radiance_eval", _arg1_points))
    return out


class Tracer:
    """Records spans while installed; install() and uninstall() swap the
    traced attributes in and out, so untraced jobs run the plain program."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._wrappers = []
        for owner, attr, name, work in _targets():
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._wrappers.append((owner, attr, original, self._wrap(original, name, work)))

    def _wrap(self, fn, name, work):
        local, spans, ids = self._local, self.spans, self._ids
        is_root = name == "cli.dispatch"
        # nested evals of one field layer (a union's children) are part of
        # the outer call: they get no span of their own
        flatten = name in FIELD_NAMES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if flatten and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else self._root
            sid = next(ids)
            stack.append((sid, name))
            if is_root:
                self._root = sid
            result, ok = None, False
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if is_root:
                    self._root = None
                n = work(args, kwargs, result) if work and ok else 0
                spans.append((sid, name, self.job, parent, t0, t1, n))

        return traced

    def install(self, job) -> None:
        self.job = job
        for owner, attr, _, traced in self._wrappers:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._wrappers:
            setattr(owner, attr, original)
        self.job = None

    def write(self, path: Path) -> None:
        """Spans as gzipped tab-separated rows: id, name, job, parent,
        start_ns, end_ns, work."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tjob\tparent\tstart_ns\tend_ns\twork\n")
            for s in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in s) + "\n")


def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def job_layers(spans) -> tuple[dict, list[str]]:
    """Layer metrics of one job's spans, plus any cross-check failures."""
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    by_name: dict = {}
    for s in spans:
        children.setdefault(s[3], []).append(s)
        by_name.setdefault(s[1], []).append(s)

    def dur(s):
        return (s[5] - s[4]) * 1e-9

    def total(name):
        return sum((dur(s) for s in by_name.get(name, ())), 0.0)

    def count(name):
        return len(by_name.get(name, ()))

    def work(name):
        return sum(s[6] for s in by_name.get(name, ()))

    def ancestor(s, name):
        while s[3] is not None:
            s = by_id[s[3]]
            if s[1] == name:
                return s
        return None

    m = {}
    cli_self = 0.0
    for s in by_name.get("cli.dispatch", ()):
        kids = [(c[4], c[5]) for c in children.get(s[0], [])]
        cli_self += dur(s) - _union_ns(kids) * 1e-9
    m["cli.self_s"] = cli_self

    m["io.ply_write_s"] = total("io.write_ply")
    m["io.ply_read_s"] = total("io.read_ply")
    m["io.nfvg_read_s"] = total("io.read_nfvg")
    m["io.nfvg_write_s"] = total("io.write_nfvg")
    m["io.ppm_write_s"] = total("io.write_ppm")
    m["io.json_s"] = total("io.load_json") + total("io.dump_json")
    m["io.bytes_written"] = sum(work(n) for n in WRITE_NAMES)

    sdf_calls, sdf_points = count("fields.sdf_eval"), work("fields.sdf_eval")
    rad_calls, rad_points = count("fields.radiance_eval"), work("fields.radiance_eval")
    m["fields.sdf_eval_calls"] = sdf_calls
    m["fields.sdf_eval_points"] = sdf_points
    m["fields.radiance_eval_calls"] = rad_calls
    m["fields.radiance_eval_points"] = rad_points
    calls = sdf_calls + rad_calls
    m["fields.points_per_call"] = (sdf_points + rad_points) / calls if calls else 0.0
    m["fields.eval_s"] = sum(total(n) for n in FIELD_NAMES)
    m["fields.gradient_points"] = work("fields.sdf_gradients")

    m["grids.trilinear_calls"] = count("grids.trilinear")
    m["grids.trilinear_points"] = work("grids.trilinear")
    m["grids.trilinear_s"] = total("grids.trilinear")

    rays = by_name.get("render.ray", [])
    m["render.calls"] = len(rays)
    m["render.rays"] = sum(s[6] for s in rays)
    m["render.samples"] = sum(s[6] for s in by_name.get("fields.radiance_eval", ())
                              if ancestor(s, "render.ray"))
    m["render.composite_calls"] = count("render.composite")
    m["render.s"] = sum((dur(s) for s in rays), 0.0)
    m["render.self_s"] = m["render.s"] - sum(
        dur(c) for s in rays for c in children.get(s[0], [])
        if c[1].startswith(("fields.", "grids.")))

    m["gridsample.sample_grid_s"] = total("gridsample.sample_grid")
    m["masking.s"] = sum(total(n) for n in
                         ("masking.patchify", "masking.random_mask", "masking.apply_mask"))
    m["projmaps.semmap_s"] = total("projmaps.build_semantic_map")

    failures = []
    traversal = projection = stats_total = surface = 0
    for ext in by_name.get("octree.extract", ()):
        own = [s for s in by_name.get("fields.sdf_eval", ())
               if ancestor(s, "octree.extract") is ext]
        in_projection = sum(s[6] for s in own if ancestor(s, "octree.project"))
        ext_traversal = sum(s[6] for s in own) - in_projection
        stats_levels, stats_total_one, surface_one = ext[6] or (0, 0, 0)
        if ext_traversal != stats_levels:
            failures.append(f"octree traversal evals {ext_traversal} != "
                            f"ExtractionStats evals_per_level sum {stats_levels}")
        traversal += ext_traversal
        projection += in_projection
        stats_total += stats_total_one
        surface += surface_one
    m["octree.extract_s"] = total("octree.extract")
    m["octree.project_s"] = total("octree.project")
    m["octree.traverse_s"] = m["octree.extract_s"] - m["octree.project_s"]
    m["octree.traversal_evals"] = traversal
    m["octree.projection_evals"] = projection
    m["octree.surface_points"] = surface
    all_evals = traversal + projection
    m["octree.useful_ratio"] = surface / all_evals if all_evals else 0.0
    m["octree.stats_eval_gap"] = all_evals / stats_total if stats_total else 0.0
    m["octree.uncounted_evals"] = all_evals - stats_total

    iou_calls = count("metrics.iou3d")
    m["metrics.iou3d_calls"] = iou_calls
    m["metrics.iou3d_s"] = total("metrics.iou3d")
    m["metrics.iou_nonzero_ratio"] = work("metrics.iou3d") / iou_calls if iou_calls else 0.0
    m["metrics.detection_ap_calls"] = count("metrics.detection_ap")
    m["metrics.detection_ap_s"] = total("metrics.detection_ap")
    m["metrics.pose_errors_calls"] = count("metrics.pose_errors")
    m["metrics.pose_ap_s"] = total("metrics.pose_ap")
    m["metrics.dtw_s"] = total("metrics.dtw_distance")
    m["metrics.voxel_s"] = total("metrics.voxel_label_metrics")
    m["metrics.chamfer_s"] = total("metrics.chamfer")
    m["trace.spans"] = len(spans)
    return m, failures


# metrics that are counts (or ratios of counts): reported from job 0
COUNT_KEYS = {
    "io.bytes_written", "fields.sdf_eval_calls", "fields.sdf_eval_points",
    "fields.radiance_eval_calls", "fields.radiance_eval_points",
    "fields.points_per_call", "fields.gradient_points", "grids.trilinear_calls",
    "grids.trilinear_points", "render.calls", "render.rays", "render.samples",
    "render.composite_calls", "octree.traversal_evals", "octree.projection_evals",
    "octree.surface_points", "octree.useful_ratio", "octree.stats_eval_gap",
    "octree.uncounted_evals", "metrics.iou3d_calls", "metrics.iou_nonzero_ratio",
    "metrics.detection_ap_calls", "metrics.pose_errors_calls", "trace.spans",
}


def layer_metrics(per_job: dict) -> dict:
    """Counts from the lowest job index, times as medians over all jobs."""
    first = per_job[min(per_job)]
    return {k: first[k] if k in COUNT_KEYS else
            statistics.median(m[k] for m in per_job.values())
            for k in first}
