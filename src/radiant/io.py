"""File formats: NFVG binary voxel grids, ASCII PLY point clouds, PPM
images, and the JSON schemas for cameras, boxes, poses, trajectories, and
radiance-field and SDF shape specs.

NFVG layout (little-endian): magic "NFVG", u32 version=1, u32 X, Y, Z,
u32 channels, 6 x f64 bounds (min xyz, max xyz), then X*Y*Z*channels f32
values ordered index(x, y, z, c) = ((x*Y + y)*Z + z)*channels + c.
"""

from __future__ import annotations

import json
import math
import re
import struct
from itertools import chain
from pathlib import Path

import numpy as np

from .core_math import Aabb, Intrinsics, Pose
from .errors import BadMagic, BadVersion, FileFormatError, TruncatedFile
from .fields import (BallField, BoxSdf, ConstantField, GaussianBlobField, GridField,
                     RadianceField, SdfField, SphereSdf, UnionSdf)
from .grids import VoxelGrid4D
from .metrics import OrientedBox3, PoseRecord, Trajectory
from .octree import SurfaceSamples
from .projmaps import SemanticMap

NFVG_MAGIC = b"NFVG"
NFVG_VERSION = 1
_HEADER = struct.Struct("<4sIIIII")
JSON_VERSION = 1


def write_nfvg(path, grid: VoxelGrid4D) -> None:
    """Write a grid; values are materialized as f32."""
    x, y, z = grid.dims
    header = _HEADER.pack(NFVG_MAGIC, NFVG_VERSION, x, y, z, grid.channels)
    bounds = np.concatenate([grid.bounds.min, grid.bounds.max]).astype("<f8")
    payload = np.ascontiguousarray(grid.data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(bounds.tobytes())
        fh.write(payload.tobytes())


def read_nfvg(path) -> VoxelGrid4D:
    raw = Path(path).read_bytes()
    if raw[:4] != NFVG_MAGIC:
        raise BadMagic(f"{path}: magic {raw[:4]!r}")
    if len(raw) < _HEADER.size:
        raise TruncatedFile(f"{path}: shorter than the NFVG header")
    magic, version, x, y, z, channels = _HEADER.unpack_from(raw)
    if version != NFVG_VERSION:
        raise BadVersion(f"{path}: unsupported NFVG version {version}")
    offset = _HEADER.size
    if len(raw) < offset + 48:
        raise TruncatedFile(f"{path}: missing bounds block")
    bounds_vals = np.frombuffer(raw, dtype="<f8", count=6, offset=offset)
    offset += 48
    expected = x * y * z * channels * 4
    if len(raw) - offset < expected:
        raise TruncatedFile(f"{path}: payload {len(raw) - offset} < {expected} bytes")
    if len(raw) - offset > expected:
        raise FileFormatError(f"{path}: {len(raw) - offset - expected} trailing bytes")
    data = np.frombuffer(raw, dtype="<f4", count=x * y * z * channels, offset=offset)
    return VoxelGrid4D(
        data.astype(np.float64).reshape(x, y, z, channels),
        Aabb(bounds_vals[:3], bounds_vals[3:]),
    )


_PLY_HEADER = """ply
format ascii 1.0
element vertex {}
property float x
property float y
property float z
property float nx
property float ny
property float nz
end_header
"""


def write_ply(path, samples: SurfaceSamples) -> None:
    """ASCII PLY with per-vertex position and normal. Values are rounded to
    f32 and written with 9 significant digits, which identify every f32
    exactly and re-format stably."""
    n = len(samples)
    vals = np.concatenate([samples.positions, samples.normals], axis=1).astype(np.float32)
    body = ("%.9g %.9g %.9g %.9g %.9g %.9g\n" * n) % tuple(vals.ravel().tolist())
    Path(path).write_text(_PLY_HEADER.format(n) + body)


def read_ply(path) -> SurfaceSamples:
    """Read the PLY layout written by write_ply; residuals come back as 0.

    The body goes through numpy's C text parser. A malformed header or body
    raises a FileFormatError subclass naming the path."""
    # undecodable bytes (a binary body) are replaced, so the header's format
    # line is what refuses such a file
    lines = Path(path).read_bytes().decode("utf-8", errors="replace").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise BadMagic(f"{path}: not a PLY file")
    try:
        end = lines.index("end_header")
    except ValueError:
        raise TruncatedFile(f"{path}: missing end_header") from None
    n = _ply_vertex_count(path, lines[1:end])
    body = lines[end + 1 : end + 1 + n]
    if len(body) < n:
        raise TruncatedFile(f"{path}: {len(body)} of {n} vertices present")
    v = _ply_body(path, body).astype(np.float64)
    return SurfaceSamples(v[:, :3], v[:, 3:], np.zeros(n))


def _ply_vertex_count(path, header: list[str]) -> int:
    """Vertex count of an ASCII 1.0 PLY header (the lines between "ply" and
    "end_header")."""
    n = None
    for line in header:
        parts = line.split()
        if parts[:1] == ["format"]:
            if len(parts) != 3:
                raise FileFormatError(f"{path}: malformed format line {line!r}")
            if parts[1] != "ascii":
                raise BadVersion(f"{path}: unsupported PLY format {parts[1]!r}")
            if parts[2] != "1.0":
                raise BadVersion(f"{path}: PLY format version {parts[2]}")
        elif parts[:2] == ["element", "vertex"]:
            if len(parts) != 3:
                raise FileFormatError(f"{path}: malformed vertex element line {line!r}")
            try:
                n = int(parts[2])
            except ValueError:
                raise FileFormatError(f"{path}: bad vertex count {parts[2]!r}") from None
    if n is None:
        raise FileFormatError(f"{path}: no vertex element")
    if n < 0:
        raise FileFormatError(f"{path}: negative vertex count {n}")
    return n


def _ply_body(path, body: list[str]) -> np.ndarray:
    """(N, 6) float32 values of N vertex lines. The properties are f32:
    parsing through float32 gives back the values write_ply wrote, bit for
    bit."""
    if not body:
        return np.zeros((0, 6), dtype=np.float32)  # loadtxt warns on no input
    reason = "expected 6 floats per vertex"
    try:
        v = np.loadtxt(body, dtype=np.float32, comments=None, ndmin=2)
        if v.shape == (len(body), 6):
            return v
    except ValueError as e:
        reason = f"non-numeric vertex value ({e})"
    # a refused body: name the first vertex without 6 tokens (two such lines
    # can keep the total at 6 N), else pass on the parser's complaint
    bad = next((i for i, line in enumerate(body) if len(line.split()) != 6), None)
    if bad is not None:
        raise FileFormatError(f"{path}: expected 6 floats per vertex (vertex {bad})")
    raise FileFormatError(f"{path}: {reason}")


def write_ppm(path, image: np.ndarray) -> None:
    """Binary PPM (P6, 8-bit) from an (H, W, 3) float image in [0, 1]."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {img.shape}")
    h, w = img.shape[:2]
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P6"):
        raise BadMagic(f"{path}: not a P6 PPM")
    header = re.match(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)  # w, h, maxval
    if header is None:
        raise FileFormatError(f"{path}: P6 header is not width, height and maxval")
    w, h, maxval = map(int, header.groups())
    offset = header.end()
    if maxval != 255:
        raise BadVersion(f"{path}: maxval {maxval} unsupported")
    expected = w * h * 3
    if len(raw) - offset < expected:
        raise TruncatedFile(f"{path}: pixel payload truncated")
    data = np.frombuffer(raw, dtype=np.uint8, count=expected, offset=offset)
    return data.reshape(h, w, 3).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# NFVG encodings of 2D payloads


def semantic_map_to_grid(smap: SemanticMap) -> VoxelGrid4D:
    """Encode a semantic map as an NFVG-serializable grid.

    Layout: dims (2r, 2r, 1) with channels = K holding 0/1 values; bounds
    carry the metric map extent (agent at the center, unit z slab).
    """
    extent = smap.half_extent * smap.cell_size
    bounds = Aabb([-extent, -extent, 0.0], [extent, extent, 1.0])
    return VoxelGrid4D(smap.occupancy.astype(np.float64)[:, :, None, :], bounds)


# ---------------------------------------------------------------------------
# JSON schemas


def intrinsics_from_json(d: dict, where: str = "intrinsics") -> Intrinsics:
    return Intrinsics(
        fx=read_key(d, "fx", where, json_float), fy=read_key(d, "fy", where, json_float),
        cx=read_key(d, "cx", where, json_float), cy=read_key(d, "cy", where, json_float),
        width=read_key(d, "width", where, json_int),
        height=read_key(d, "height", where, json_int),
    )


def pose_from_json(d: dict, where: str = "pose") -> Pose:
    return Pose(read_key(d, "rotation", where, _rotation),
                read_key(d, "translation", where, json_floats))


_REQUIRED = object()


def read_key(d, key: str, where: str, convert=None, default=_REQUIRED):
    """d[key] passed through convert, for a JSON object read from a file.

    where names the object for error messages ("scene.json: boxes[3]"). A
    value that is not an object, a missing key without a default, or a value
    convert rejects raises FileFormatError naming where and the key.
    """
    if not isinstance(d, dict):
        raise FileFormatError(f"{where} must be an object, got {type(d).__name__}")
    if key not in d:
        if default is _REQUIRED:
            raise FileFormatError(f"{where} is missing key {key!r}")
        return default
    if convert is None:
        return d[key]
    try:
        return convert(d[key])
    except (TypeError, ValueError, OverflowError) as e:
        raise FileFormatError(f"{where}: bad {key!r}: {e}") from None


def json_list(v) -> list:
    """read_key convert for a value that must be a JSON list."""
    if not isinstance(v, list):
        raise TypeError(f"expected a list, got {type(v).__name__}")
    return v


def json_str(v) -> str:
    """read_key convert for a value that must be a JSON string."""
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {type(v).__name__}")
    return v


def json_int(v) -> int:
    """read_key convert for a value that must be a JSON integer: refuses
    bools, fractions, NaN and infinities instead of truncating them."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected an integer, got {type(v).__name__}")
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


# NaN and Infinity parse as JSON numbers; a NaN box would prune nothing.
# Bools and strings are refused, though float() takes them. The checks run
# once per record, so they test Python values: math.isfinite over a few
# values costs less than one np.isfinite call.
_NUMBER = frozenset((int, float))


def json_float(v) -> float:
    """read_key convert for a value that must be a finite JSON number."""
    if type(v) not in _NUMBER:
        raise TypeError(f"expected a number, got {type(v).__name__}")
    if not math.isfinite(v):
        raise ValueError("non-finite value")
    return float(v)


def json_floats(v) -> np.ndarray:
    """read_key convert for a finite JSON number or a list of them nested to
    any depth, as a float64 array."""
    items, kinds = [v], {type(v)}
    while kinds == {list}:  # one nesting level per pass
        items = list(chain.from_iterable(items))
        kinds = set(map(type, items))
    if not kinds <= _NUMBER:
        names = ", ".join(sorted(k.__name__ for k in kinds - _NUMBER))
        raise TypeError(f"expected numbers, got {names}")
    if not all(map(math.isfinite, items)):
        raise ValueError("non-finite value")
    return np.array(v, dtype=np.float64)


def _rotation(v) -> np.ndarray:
    return json_floats(v).reshape(3, 3)


def box_from_json(d: dict, where: str = "box") -> OrientedBox3:
    return OrientedBox3(
        center=read_key(d, "center", where, json_floats),
        size=read_key(d, "size", where, json_floats),
        yaw=read_key(d, "yaw", where, json_float, 0.0),
        label=read_key(d, "class", where, json_str, ""),
        score=read_key(d, "score", where, json_float, None),
    )


def pose_record_from_json(d: dict, where: str = "pose") -> PoseRecord:
    return PoseRecord(
        rotation=read_key(d, "rotation", where, _rotation),
        translation=read_key(d, "translation", where, json_floats),
        scale=read_key(d, "scale", where, json_float, 1.0),
        label=read_key(d, "class", where, json_str, ""),
        score=read_key(d, "score", where, json_float, None),
    )


def trajectory_from_json(d: dict, where: str = "trajectory") -> Trajectory:
    return Trajectory(
        positions=read_key(d, "positions", where, json_floats),
        reference=read_key(d, "reference", where, json_floats),
        goal=read_key(d, "goal", where, json_floats),
        success_threshold=read_key(d, "success_threshold", where, json_float, 3.0),
    )


def make_analytic_sdf(shape: dict, where: str = "shape") -> SdfField:
    """Build an analytic SDF from a shape spec.

    Accepted forms:
      {"type": "sphere", "center": [x,y,z], "radius": r}
      {"type": "box", "center": [x,y,z], "half_extents": [hx,hy,hz]}
      {"type": "union", "shapes": [ ... ]}

    where names the spec in errors ("shape.json: shapes[1]"): a part that is
    not an object, a missing required key, a value that is not a finite JSON
    number (or list of them) and an unknown type raise FileFormatError.
    """
    kind = read_key(shape, "type", where, json_str)
    if kind == "sphere":
        return SphereSdf(read_key(shape, "center", where, json_floats, (0, 0, 0)),
                         read_key(shape, "radius", where, json_float))
    if kind == "box":
        return BoxSdf(read_key(shape, "center", where, json_floats, (0, 0, 0)),
                      read_key(shape, "half_extents", where, json_floats))
    if kind == "union":
        shapes = read_key(shape, "shapes", where, json_list, [])
        return UnionSdf([make_analytic_sdf(s, f"{where}: shapes[{i}]")
                         for i, s in enumerate(shapes)])
    raise FileFormatError(f"{where}: bad 'type': unknown shape type {kind!r}")


def field_from_spec(spec: dict, base_dir, where: str = "field") -> RadianceField:
    """Build a radiance field from a field spec.

    Accepted forms (every key but type and path has a default):
      {"type": "constant", "color": [r,g,b], "sigma": s}
      {"type": "gaussian", "color", "amplitude", "center", "scale"}
      {"type": "ball", "color", "sigma", "center", "radius"}
      {"type": "grid", "path": "grid.nfvg"}

    A grid path is read relative to base_dir (a scene's directory, or the
    working directory for a spec given on the command line); an absolute
    path is taken as it is. where names the spec in errors, as for
    make_analytic_sdf.
    """
    def key(name, convert, default):
        return read_key(spec, name, where, convert, default)

    kind = read_key(spec, "type", where, json_str)
    if kind == "constant":
        return ConstantField(key("color", json_floats, (1, 1, 1)), key("sigma", json_float, 0.0))
    if kind == "gaussian":
        return GaussianBlobField(key("color", json_floats, (1, 1, 1)),
                                 key("amplitude", json_float, 20.0),
                                 key("center", json_floats, (0, 0, 0)),
                                 key("scale", json_float, 0.25))
    if kind == "ball":
        return BallField(key("color", json_floats, (1, 1, 1)),
                         key("sigma", json_float, 40.0),
                         key("center", json_floats, (0, 0, 0)),
                         key("radius", json_float, 0.5))
    if kind == "grid":
        return GridField(read_nfvg(Path(base_dir) / read_key(spec, "path", where, json_str)))
    raise FileFormatError(f"{where}: bad 'type': unknown field type {kind!r}")


def load_versioned_json(path) -> dict:
    """Read a JSON object and reject unknown format versions. Text that is
    not JSON raises FileFormatError naming the path."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:  # a JSON syntax error or undecodable bytes
            raise FileFormatError(f"{path}: {e}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(
            f"{path}: top-level JSON value is a {type(doc).__name__}, expected an object")
    version = read_key(doc, "version", str(path), json_int, default=JSON_VERSION)
    if version != JSON_VERSION:
        raise BadVersion(f"{path}: unsupported JSON version {version}")
    return doc


def dump_json(path, doc: dict) -> None:
    doc = {"version": JSON_VERSION, **doc}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
