"""File formats: NFVG binary voxel grids, ASCII PLY point clouds, PPM
images, checked .npy arrays, and the JSON schemas for cameras, boxes, poses,
trajectories, and radiance-field and SDF shape specs.

NFVG layout (little-endian): magic "NFVG", u32 version=1, u32 X, Y, Z,
u32 channels (each at least 1), 6 x f64 bounds (min xyz, max xyz), then
X*Y*Z*channels f32 values ordered index(x, y, z, c) = ((x*Y + y)*Z + z)*channels + c.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import warnings
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from .core_math import Aabb, Intrinsics, Pose, as_vec3, check_rotation
from .errors import BadMagic, BadVersion, FileFormatError, TruncatedFile
from .fields import (BallField, BoxSdf, ConstantField, GaussianBlobField, GridField,
                     RadianceField, SdfField, SphereSdf, UnionSdf)
from .grids import VoxelGrid4D
from .metrics import (BoxBatch, OrientedBox3, PoseBatch, PoseRecord, Trajectory, box_size,
                      nav_threshold, path_points, pose_scale, wrap_yaw)
from .octree import SurfaceSamples
from .projmaps import SemanticMap

NFVG_MAGIC = b"NFVG"
NFVG_VERSION = 1
_HEADER = struct.Struct("<4sIIIII")
JSON_VERSION = 1


# f32 values read_nfvg converts at a time, and about the values write_nfvg
# converts at a time (whole x-planes): no file-sized copy is held
NFVG_CHUNK_VALUES = 1 << 16


def write_nfvg(path, grid: VoxelGrid4D) -> None:
    """Write a grid; values are converted to f32 and written a run of
    x-planes (about NFVG_CHUNK_VALUES values) at a time."""
    x, y, z = grid.dims
    header = _HEADER.pack(NFVG_MAGIC, NFVG_VERSION, x, y, z, grid.channels)
    bounds = np.concatenate([grid.bounds.min, grid.bounds.max]).astype("<f8")
    planes = max(1, NFVG_CHUNK_VALUES // max(1, y * z * grid.channels))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(bounds.tobytes())
        for lo in range(0, x, planes):
            fh.write(np.ascontiguousarray(grid.data[lo:lo + planes], dtype="<f4"))


def read_nfvg(path) -> VoxelGrid4D:
    """Read a grid. The header and the payload length (from fstat) are
    checked before anything is allocated; the float64 grid is then filled
    NFVG_CHUNK_VALUES values at a time through one f32 buffer."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size + 48)
        if head[:4] != NFVG_MAGIC:
            raise BadMagic(f"{path}: magic {head[:4]!r}")
        if len(head) < _HEADER.size:
            raise TruncatedFile(f"{path}: shorter than the NFVG header")
        magic, version, x, y, z, channels = _HEADER.unpack_from(head)
        if version != NFVG_VERSION:
            raise BadVersion(f"{path}: unsupported NFVG version {version}")
        if 0 in (x, y, z, channels):
            raise FileFormatError(f"{path}: empty NFVG grid: dims {x}x{y}x{z}, {channels} channels")
        if len(head) < _HEADER.size + 48:
            raise TruncatedFile(f"{path}: missing bounds block")
        bounds_vals = np.frombuffer(head, dtype="<f8", count=6, offset=_HEADER.size)
        n = x * y * z * channels
        payload = size - len(head)
        if payload < 4 * n:
            raise TruncatedFile(f"{path}: payload {payload} < {4 * n} bytes")
        if payload > 4 * n:
            raise FileFormatError(f"{path}: {payload - 4 * n} trailing bytes")
        data = np.empty(n)
        buf = np.empty(min(n, NFVG_CHUNK_VALUES), dtype="<f4")
        with np.errstate(invalid="ignore"):  # a signaling NaN reads as a quiet one
            for lo in range(0, n, len(buf)):
                part = buf[:n - lo]
                if fh.readinto(part) != part.nbytes:
                    raise TruncatedFile(f"{path}: payload ended while it was read")
                data[lo:lo + len(part)] = part
    return VoxelGrid4D(data.reshape(x, y, z, channels), Aabb(bounds_vals[:3], bounds_vals[3:]))


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
    exactly and re-format stably: the bytes of `"%.9g" % float(f32)`, made
    in numpy by _ply_lines, PLY_CHUNK vertices at a time."""
    n = len(samples)
    # cast while concatenating: no float64 (N, 6) copy
    vals = np.concatenate([samples.positions, samples.normals], axis=1, dtype=np.float32)
    with open(path, "wb") as fh:
        # each line carries the newline before it, so the header's last
        # newline comes from the first vertex and the body ends with one more
        fh.write(_PLY_HEADER.format(n)[:-1].encode())
        for start in range(0, n, PLY_CHUNK):
            fh.write(_ply_lines(vals[start : start + PLY_CHUNK]))
        fh.write(b"\n")


# The PLY body formatter. Each value gets a 20-byte row of ASCII
#   byte 0       the separator before it: "\n" for a line's first value, else " "
#   bytes 1-3    "-0."
#   bytes 4-15   "000" and the 9 significant digits d0..d8, as three 4-digit words
#   bytes 16-19  "e+dd" or "e-dd", the decimal exponent X
# and a keep mask selects the bytes of the value's %.9g form. %g writes
# fixed notation for -4 <= X < 9, else scientific, and strips trailing zeros,
# so the mask depends only on the sign, X and the count k of significant
# digits left. Where the point falls among the digits (fixed notation with
# X >= 0 and a fraction, or scientific with k > 1), the digits before it move
# one byte left (into the last "0") and "." takes the byte after them.
PLY_CHUNK = 8192  # vertices per formatting pass: bounds the temporaries
_X_MIN, _X_MAX = -45, 38  # decimal exponents of the nonzero finite f32 values
_POW10_MIN = 8 - _X_MAX - 1  # 10^(8 - X) for X one past either end
_POW10 = np.array([float(f"1e{e}") for e in range(_POW10_MIN, 8 - _X_MIN + 2)])


def _ply_tables():
    """The formatter's lookup tables: 4-digit words of 0000..9999 and their
    trailing zero counts, exponent words, separator heads, and the keep mask
    and point shift of each key = ((X - _X_MIN) * 10 + k) * 2 + sign bit."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # column n: the digits of n
    digits4 = np.ascontiguousarray((digits + ord("0")).T).view("<u4").ravel()
    trailing_zeros4 = np.logical_and.accumulate(digits[::-1] == 0).sum(axis=0)
    xs = range(_X_MIN, _X_MAX + 1)
    exponent = np.frombuffer("".join(f"e{x:+03d}" for x in xs).encode(), "<u4")
    heads = np.frombuffer(b"\n-0." + b" -0." * 5, "<u4")
    x, k, neg, j = np.ix_(np.array(xs), np.arange(10), np.arange(2), np.arange(20))
    sci = (x < -4) | (x >= 9)
    point = np.where(sci, k > 1, (x >= 0) & (k > x + 1))
    first = np.where(point, 6, np.where(sci | (x >= 0), 7, 8 + x))  # x < 0: its leading zeros
    end = np.where(point | ~sci & (x < 0), 7 + k, np.where(sci, 8, 8 + x))
    keep = ((j >= first) & (j < end) | (j == 0) | (j == 1) & (neg == 1)
            | (j >= 2) & (j <= 3) & ~sci & (x < 0) | (j >= 16) & sci)
    shift = np.broadcast_to(np.where(point, np.where(sci, 1, x + 1), 0)[..., 0], keep.shape[:3])
    return (digits4, trailing_zeros4, exponent, heads,
            keep.reshape(-1, 20).view("V20").ravel(), shift.ravel())


_DIGITS4, _TRAILING_ZEROS4, _EXPONENT, _HEADS, _KEEP, _POINT_SHIFT = _ply_tables()


def _ply_lines(block: np.ndarray) -> np.ndarray:
    """ASCII bytes of "\\n%.9g %.9g %.9g %.9g %.9g %.9g" for each row of the
    (N, 6) float32 block, as a uint8 array."""
    v = block.astype(np.float64).ravel()
    a = np.abs(v)
    finite, zero = np.isfinite(a), a == 0
    a[~finite | zero] = 1.0
    # the 9 digits D = round(s) of s = |v| 10^(8 - X) in [1e8, 1e9); s is
    # within 3e-7 of exact (two roundings), so D is exact unless s is near a
    # half: those values, and non-finite ones, are formatted by % below
    x = np.floor(np.log10(a)).astype(np.intp)
    s = a * _POW10[8 - x - _POW10_MIN]
    off = (s >= 1e9).astype(np.intp) - (s < 1e8)  # log10 rounded across a power of ten
    redo = np.flatnonzero(off)
    x[redo] += off[redo]
    s[redo] = a[redo] * _POW10[8 - x[redo] - _POW10_MIN]
    fallback = np.flatnonzero((np.abs(s - np.floor(s) - 0.5) < 1e-5) | ~finite)
    d = np.rint(s)
    del a, s, off  # each array goes once spent: these passes set write_ply's peak
    carry = np.flatnonzero(d >= 1e9)  # 9.999999996e0 rounds to 1.00000000e1
    d[carry] = 1e8
    x[carry] += 1
    d[zero] = 0  # "0" and "-0": X = 0, k = 1
    d = d.astype(np.uint32)
    hi = d // 100_000_000
    mid = d // 10_000
    lo = (d - mid * 10_000).astype(np.intp)
    mid = (mid - hi * 10_000).astype(np.intp)
    # d0 is nonzero unless D is, so at most 8 trailing zeros
    k = 9 - _TRAILING_ZEROS4.take(lo) - (lo == 0) * _TRAILING_ZEROS4.take(mid)
    key = ((x - _X_MIN) * 10 + k) * 2 + np.signbit(v)
    del d, k

    words = np.empty((len(block), 6, 5), "<u4")
    words[:, :, 0] = _HEADS
    words[:, :, 1] = _DIGITS4.take(hi).reshape(-1, 6)
    words[:, :, 2] = _DIGITS4.take(mid).reshape(-1, 6)
    words[:, :, 3] = _DIGITS4.take(lo).reshape(-1, 6)
    words[:, :, 4] = _EXPONENT.take(x - _X_MIN).reshape(-1, 6)
    del hi, mid, lo, x
    rows = words.view(np.uint8).reshape(-1, 20)
    keep = _KEEP.take(key).view(np.bool_).reshape(-1, 20)
    shift = _POINT_SHIFT.take(key)
    del key
    for width in np.flatnonzero(np.bincount(shift)[1:]) + 1:
        r = np.flatnonzero(shift == width)
        rows[r, 6 : 6 + width] = rows[r, 7 : 7 + width]
        rows[r, 6 + width] = ord(".")
    for i in fallback:
        text = np.frombuffer(b"%.9g" % v[i], np.uint8)
        rows[i, 1 : 1 + len(text)] = text
        keep[i, 1:] = False
        keep[i, 1 : 1 + len(text)] = True
    return rows[keep]


# vertices np.loadtxt parses at a time: bounds its working set beside the output
PLY_READ_CHUNK = 1 << 15
_PLY_MIN_LINE = 12  # bytes of the shortest vertex line, "0 0 0 0 0 0\n"


def read_ply(path) -> SurfaceSamples:
    """Read the PLY layout written by write_ply: positions and normals.

    Lines end at "\\n"; a "\\r" before it is dropped. The header is read line
    by line, and the vertex count is checked against the bytes left in the
    file before the (N, 6) output is allocated. The body then streams from
    the same handle through numpy's C text parser, PLY_READ_CHUNK vertices
    at a time; lines after the N vertices are not read. A malformed header
    or body raises a FileFormatError subclass naming the path."""
    with open(path, "rb") as fh:
        # undecodable bytes are replaced, so the header's format line is
        # what refuses a binary file
        lines = (raw.decode("utf-8", errors="replace").removesuffix("\n").removesuffix("\r")
                 for raw in fh)
        if next(lines, "").strip() != "ply":
            raise BadMagic(f"{path}: not a PLY file")
        header = []
        for line in lines:
            if line == "end_header":
                break
            header.append(line)
        else:
            raise TruncatedFile(f"{path}: missing end_header")
        n = _ply_vertex_count(path, header)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < _PLY_MIN_LINE * n - 1:  # the last line may lack its "\n"
            raise TruncatedFile(f"{path}: {left} body bytes cannot hold {n} vertices")
        v = _ply_body(path, fh, n)
    return SurfaceSamples(v[:, :3], v[:, 3:])


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


def _ply_body(path, fh, n: int) -> np.ndarray:
    """(N, 6) float64 values of the N vertex lines next in fh. The properties
    are f32: parsing through float32 gives back the values write_ply wrote,
    bit for bit. Lines are read again only to name a fault: in a chunk the
    parser refuses, or one holding a non-finite value (a finite token past
    f32 reads as inf)."""
    out = np.empty((n, 6))
    past = None  # the first vertex holding a finite value past f32
    for lo in range(0, n, PLY_READ_CHUNK):
        rows = min(PLY_READ_CHUNK, n - lo)
        start = fh.tell()
        reason = "expected 6 floats per vertex"
        try:
            with warnings.catch_warnings():
                # the parser warns of a blank line, and would skip it
                warnings.simplefilter("error", UserWarning)
                v = np.loadtxt(fh, dtype=np.float32, comments=None, ndmin=2, max_rows=rows,
                               encoding="utf-8")
        except UserWarning:
            v = None
        except ValueError as e:  # the parser counts rows from the chunk's first
            message = re.sub(r"(?<=at row )\d+", lambda m: str(int(m[0]) + lo), str(e))
            reason, v = f"non-numeric vertex value ({message})", None
        if v is None or v.shape != (rows, 6):
            fh.seek(start)
            _ply_refuse(path, fh, lo, n, reason)
        out[lo : lo + rows] = v
        if past is None and not np.isfinite(v).all():
            end = fh.tell()
            fh.seek(start)
            past = _ply_past_f32(fh, v, lo)
            fh.seek(end)
    if past is not None:  # raised last: a later refused chunk names its own fault
        raise FileFormatError(f"{path}: vertex {past} holds a value past float32")
    return out


def _ply_refuse(path, fh, lo: int, n: int, reason: str):
    """Raise the fault of vertices lo..n-1, whose lines are next in fh: a
    body cut short, else the first vertex without 6 values (two such lines
    can keep a chunk's total at 6 a vertex), else reason."""
    bad = None
    for i in range(lo, n):
        line = fh.readline()
        if not line:
            raise TruncatedFile(f"{path}: {i} of {n} vertices present")
        if bad is None and len(line.decode("utf-8", errors="replace").split()) != 6:
            bad = i
    if bad is not None:
        raise FileFormatError(f"{path}: expected 6 floats per vertex (vertex {bad})")
    raise FileFormatError(f"{path}: {reason}")


def _ply_past_f32(fh, v: np.ndarray, lo: int) -> Optional[int]:
    """The first vertex of a parsed chunk v (vertices lo.., their lines next
    in fh) holding a non-finite value not spelled inf, infinity or nan."""
    bad = ~np.isfinite(v)
    for i, line in zip(range(len(v)), fh):
        tokens = line.decode().split()
        if any(tokens[j].lower().lstrip("+-") not in ("inf", "infinity", "nan")
               for j in np.flatnonzero(bad[i])):
            return lo + i
    return None


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


def read_npy(path, ndim: int, integral: bool = False) -> np.ndarray:
    """The ndim-D integer or float (not bool) array of a .npy file, read
    without pickle. With integral, float values must be integers, by the
    rule of json_int: fractions, NaN and infinities are refused, not
    truncated. Anything else raises FileFormatError naming the file."""
    try:
        with open(path, "rb") as fh:
            a = np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, EOFError) as e:
        raise FileFormatError(f"{path}: not a .npy array: {e}") from None
    if a.dtype.kind not in "iuf":
        raise FileFormatError(f"{path}: expected numbers, got dtype {a.dtype}")
    if a.ndim != ndim:
        raise FileFormatError(f"{path}: expected a {ndim}-D array, got shape {a.shape}")
    if integral and a.dtype.kind == "f" and not np.all(np.isfinite(a) & (a == np.trunc(a))):
        raise FileFormatError(f"{path}: expected integers, got a fraction, NaN or infinity")
    return a


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
                read_key(d, "translation", where, _vec3))


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


# The record readers run each key's rules (shape, sign, orthonormality) in
# its converter, so read_key names the file, entry and key of a refusal.
def _vec3(v) -> np.ndarray:
    return as_vec3(json_floats(v))


def _rotation(v) -> np.ndarray:
    return check_rotation(json_floats(v).reshape(3, 3))


def _path(v) -> np.ndarray:
    return path_points(json_floats(v))


def box_from_json(d: dict, where: str = "box") -> OrientedBox3:
    return OrientedBox3(
        center=read_key(d, "center", where, _vec3),
        size=read_key(d, "size", where, lambda v: box_size(json_floats(v))),
        yaw=read_key(d, "yaw", where, json_float, 0.0),
        label=read_key(d, "class", where, json_str, ""),
        score=read_key(d, "score", where, json_float, None),
    )


def pose_record_from_json(d: dict, where: str = "pose") -> PoseRecord:
    return PoseRecord(
        rotation=read_key(d, "rotation", where, _rotation),
        translation=read_key(d, "translation", where, _vec3),
        scale=read_key(d, "scale", where, lambda v: pose_scale(json_float(v)), 1.0),
        label=read_key(d, "class", where, json_str, ""),
        score=read_key(d, "score", where, json_float, None),
    )


def boxes_from_json(entries: list, where: str, scored: bool = False) -> BoxBatch:
    """The boxes of a JSON list as one BoxBatch; where names the list in
    errors ("pred.json: boxes"), and scored requires every entry to carry a
    score (predictions do).

    The entries are read as columns, under the rules of box_from_json. If a
    column refuses them, the entries are read again one by one, in order,
    through box_from_json, and the first bad entry raises the error that
    box_from_json gives it (a FileFormatError names "where[i]" and the key).
    """
    n = len(entries)
    cols = _columns(entries, scored, ("center", None), ("size", None), ("yaw", 0.0))
    if cols is not None:
        center, size, yaw, labels, scores = cols
        if center.shape == size.shape == (n, 3) and yaw.shape == (n,) and (size > 0).all():
            return BoxBatch(center, size, np.array([wrap_yaw(y) for y in yaw.tolist()]),
                            labels, scores)
    return _records(entries, where, scored, box_from_json, BoxBatch)


def poses_from_json(entries: list, where: str, scored: bool = False) -> PoseBatch:
    """The poses of a JSON list as one PoseBatch, read as boxes_from_json
    reads boxes, under the rules of pose_record_from_json."""
    n = len(entries)
    cols = _columns(entries, scored, ("rotation", None), ("translation", None), ("scale", 1.0))
    if cols is not None:
        rotation, translation, scale, labels, scores = cols
        # a rotation is 9 numbers at any nesting, the same in every entry
        if rotation.size == 9 * n and translation.shape == (n, 3) and scale.shape == (n,) \
                and (scale > 0).all():
            try:
                rotation = check_rotation(rotation.reshape(n, 3, 3))
            except ValueError:
                pass
            else:
                return PoseBatch(rotation, translation, scale, labels, scores)
    return _records(entries, where, scored, pose_record_from_json, PoseBatch)


def _columns(entries: list, scored: bool, *keys) -> Optional[list]:
    """The json_floats array of each (key, default) of keys over the
    entries, then their labels and scores (NaN where an unscored entry has
    none); None where json_floats or a label or score refuses them."""
    if set(map(type, entries)) - {dict}:
        return None
    labels = [d.get("class", "") for d in entries]
    given = [d["score"] for d in entries if "score" in d]
    if set(map(type, labels)) - {str} or (scored and len(given) < len(entries)):
        return None
    try:
        cols = [json_floats([d.get(key, default) for d in entries]) for key, default in keys]
        if json_floats(given).shape != (len(given),):
            return None
    except (TypeError, ValueError, OverflowError):
        return None
    scores = np.array([d.get("score", math.nan) for d in entries], dtype=np.float64)
    return cols + [np.array(labels, dtype=object), scores]


def _records(entries: list, where: str, scored: bool, reader, batch):
    records = []
    for i, d in enumerate(entries):
        at = f"{where}[{i}]"
        if scored:
            read_key(d, "score", at)
        records.append(reader(d, at))
    return batch.of(records)


def trajectory_from_json(d: dict, where: str = "trajectory") -> Trajectory:
    return Trajectory(
        positions=read_key(d, "positions", where, _path),
        reference=read_key(d, "reference", where, _path),
        goal=read_key(d, "goal", where, _vec3),
        success_threshold=read_key(d, "success_threshold", where,
                                   lambda v: nav_threshold(json_float(v)), 3.0),
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
    path is taken as it is. A grid that is not RGBA (4 channels), or holds
    a NaN or infinite value or an alpha outside [0, 1], raises
    FileFormatError naming the file. where names the spec in errors, as for
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
        path = Path(base_dir) / read_key(spec, "path", where, json_str)
        grid = read_nfvg(path)
        if grid.channels != 4:
            raise FileFormatError(f"{path}: grid field needs 4 channels (RGBA), "
                                  f"got {grid.channels}")
        # alpha_to_sigma takes alpha in [0, 1]; past 1 it gives NaN
        if not np.isfinite(grid.data).all():
            raise FileFormatError(f"{path}: grid field holds a NaN or infinite value")
        alpha = grid.data[..., 3]
        if alpha.min() < 0 or alpha.max() > 1:
            raise FileFormatError(f"{path}: grid field alpha outside [0, 1]")
        return GridField(grid)
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
