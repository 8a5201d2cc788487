"""File formats: NFVG binary voxel grids, ASCII PLY point clouds, PPM
images, and the JSON schemas for cameras, boxes, poses and trajectories.

NFVG layout (little-endian): magic "NFVG", u32 version=1, u32 X, Y, Z,
u32 channels, 6 x f64 bounds (min xyz, max xyz), then X*Y*Z*channels f32
values ordered index(x, y, z, c) = ((x*Y + y)*Z + z)*channels + c.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .core_math import Aabb, Intrinsics, Pose
from .errors import BadMagic, BadVersion, FileFormatError, TruncatedFile
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
    """Read the PLY layout written by write_ply; residuals come back as 0."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise BadMagic(f"{path}: not a PLY file")
    try:
        end = lines.index("end_header")
    except ValueError:
        raise TruncatedFile(f"{path}: missing end_header") from None
    n = None
    for line in lines[1:end]:
        parts = line.split()
        if parts[:2] == ["format", "ascii"]:
            if parts[2] != "1.0":
                raise BadVersion(f"{path}: PLY format version {parts[2]}")
        elif parts[:2] == ["element", "vertex"]:
            n = int(parts[2])
    if n is None:
        raise FileFormatError(f"{path}: no vertex element")
    if n < 0:
        raise FileFormatError(f"{path}: negative vertex count {n}")
    body = lines[end + 1 : end + 1 + n]
    if len(body) < n:
        raise TruncatedFile(f"{path}: {len(body)} of {n} vertices present")
    bad = next((i for i, line in enumerate(body) if len(line.split()) != 6), None)
    if bad is not None:
        raise FileFormatError(f"{path}: expected 6 floats per vertex (vertex {bad})")
    # the properties are f32: parse through float32 so values written by
    # write_ply come back bit-identical
    try:
        v = np.array(" ".join(body).split(), dtype=np.float32)
    except ValueError as e:
        raise FileFormatError(f"{path}: non-numeric vertex value ({e})") from None
    v = v.astype(np.float64).reshape(n, 6)
    return SurfaceSamples(v[:, :3], v[:, 3:], np.zeros(n))


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
    fields, offset = [], 2
    while len(fields) < 3:
        while offset < len(raw) and raw[offset : offset + 1].isspace():
            offset += 1
        start = offset
        while offset < len(raw) and not raw[offset : offset + 1].isspace():
            offset += 1
        fields.append(int(raw[start:offset]))
    offset += 1  # single whitespace after maxval
    w, h, maxval = fields
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


def grid_to_semantic_map(grid: VoxelGrid4D) -> SemanticMap:
    x, y, z = grid.dims
    if z != 1 or x != y or x % 2:
        raise FileFormatError(f"not a semantic-map grid: dims {grid.dims}")
    r = x // 2
    cell_size = float(grid.bounds.extent[0]) / x
    return SemanticMap(r, cell_size, grid.data[:, :, 0, :] != 0.0)


def heatmap_to_grid(heatmap: np.ndarray) -> VoxelGrid4D:
    """Encode an (H, W) heatmap as a single-channel grid with dims (H, W, 1)
    and pixel-extent bounds."""
    h = np.asarray(heatmap, dtype=np.float64)
    rows, cols = h.shape
    bounds = Aabb([0.0, 0.0, 0.0], [float(rows), float(cols), 1.0])
    return VoxelGrid4D(h[:, :, None, None], bounds)


def grid_to_heatmap(grid: VoxelGrid4D) -> np.ndarray:
    x, y, z = grid.dims
    if z != 1 or grid.channels != 1:
        raise FileFormatError(f"not a heatmap grid: dims {grid.dims}, "
                              f"channels {grid.channels}")
    return grid.data[:, :, 0, 0]


# ---------------------------------------------------------------------------
# JSON schemas


def intrinsics_to_json(k: Intrinsics) -> dict:
    return {
        "fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy,
        "width": k.width, "height": k.height,
    }


def intrinsics_from_json(d: dict, where: str = "intrinsics") -> Intrinsics:
    return Intrinsics(
        fx=read_key(d, "fx", where, float), fy=read_key(d, "fy", where, float),
        cx=read_key(d, "cx", where, float), cy=read_key(d, "cy", where, float),
        width=read_key(d, "width", where, int), height=read_key(d, "height", where, int),
    )


def pose_to_json(p: Pose) -> dict:
    return {
        "rotation": [float(v) for v in p.rotation.reshape(-1)],  # row-major
        "translation": [float(v) for v in p.translation],
    }


def pose_from_json(d: dict, where: str = "pose") -> Pose:
    return Pose(read_key(d, "rotation", where, _rotation),
                read_key(d, "translation", where, _floats))


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
    except (TypeError, ValueError) as e:
        raise FileFormatError(f"{where}: bad {key!r}: {e}") from None


def json_list(v) -> list:
    """read_key convert for a value that must be a JSON list."""
    if not isinstance(v, list):
        raise TypeError(f"expected a list, got {type(v).__name__}")
    return v


def _floats(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64)


def _rotation(v) -> np.ndarray:
    return _floats(v).reshape(3, 3)


def box_to_json(b: OrientedBox3) -> dict:
    out = {
        "center": [float(v) for v in b.center],
        "size": [float(v) for v in b.size],
        "yaw": float(b.yaw),
        "class": b.label,
    }
    if b.score is not None:
        out["score"] = float(b.score)
    return out


def box_from_json(d: dict, where: str = "box") -> OrientedBox3:
    return OrientedBox3(
        center=read_key(d, "center", where, _floats),
        size=read_key(d, "size", where, _floats),
        yaw=read_key(d, "yaw", where, float, 0.0),
        label=read_key(d, "class", where, str, ""),
        score=read_key(d, "score", where, float, None),
    )


def pose_record_to_json(p: PoseRecord) -> dict:
    out = {
        "rotation": [float(v) for v in p.rotation.reshape(-1)],
        "translation": [float(v) for v in p.translation],
        "scale": float(p.scale),
        "class": p.label,
    }
    if p.score is not None:
        out["score"] = float(p.score)
    return out


def pose_record_from_json(d: dict, where: str = "pose") -> PoseRecord:
    return PoseRecord(
        rotation=read_key(d, "rotation", where, _rotation),
        translation=read_key(d, "translation", where, _floats),
        scale=read_key(d, "scale", where, float, 1.0),
        label=read_key(d, "class", where, str, ""),
        score=read_key(d, "score", where, float, None),
    )


def trajectory_from_json(d: dict, where: str = "trajectory") -> Trajectory:
    return Trajectory(
        positions=read_key(d, "positions", where, _floats),
        reference=read_key(d, "reference", where, _floats),
        goal=read_key(d, "goal", where, _floats),
        success_threshold=read_key(d, "success_threshold", where, float, 3.0),
    )


def load_versioned_json(path) -> dict:
    """Read a JSON object and reject unknown format versions."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise FileFormatError(
            f"{path}: top-level JSON value is a {type(doc).__name__}, expected an object")
    version = doc.get("version", JSON_VERSION)
    if version != JSON_VERSION:
        raise BadVersion(f"{path}: unsupported JSON version {version}")
    return doc


def dump_json(path, doc: dict) -> None:
    doc = {"version": JSON_VERSION, **doc}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
