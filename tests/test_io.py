import math
import re
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiant import io
from radiant.core_math import Aabb, Intrinsics, Pose, rotation_about
from radiant.errors import BadMagic, BadVersion, FileFormatError, RadiantError, TruncatedFile
from radiant.grids import VoxelGrid4D
from radiant.metrics import OrientedBox3, PoseRecord
from radiant.fields import BoxSdf, SphereSdf, UnionSdf
from radiant.octree import LodConfig, SurfaceSamples, extract_surface, samples_to_arrays

import helpers


def f32_grid(rng, dims=(8, 8, 8), channels=4):
    # values representable in f32 so the file round trip is lossless
    data = rng.uniform(0, 1, size=(*dims, channels)).astype(np.float32)
    return VoxelGrid4D(data.astype(np.float64), Aabb([-1, -2, -3], [4, 5, 6]))


class TestNfvg:
    def test_round_trip_bit_identical(self, tmp_path):
        grid = f32_grid(np.random.default_rng(0))
        path = tmp_path / "g.nfvg"
        io.write_nfvg(path, grid)
        back = io.read_nfvg(path)
        assert np.array_equal(back.data, grid.data)
        assert np.array_equal(back.bounds.min, grid.bounds.min)
        assert np.array_equal(back.bounds.max, grid.bounds.max)

    def test_file_level_round_trip(self, tmp_path):
        grid = f32_grid(np.random.default_rng(1), dims=(3, 4, 5), channels=2)
        p1, p2 = tmp_path / "a.nfvg", tmp_path / "b.nfvg"
        io.write_nfvg(p1, grid)
        io.write_nfvg(p2, io.read_nfvg(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.nfvg"
        grid = f32_grid(np.random.default_rng(2))
        io.write_nfvg(p, grid)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"JUNK"
        p.write_bytes(bytes(raw))
        with pytest.raises(BadMagic):
            io.read_nfvg(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "v9.nfvg"
        grid = f32_grid(np.random.default_rng(3))
        io.write_nfvg(p, grid)
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(BadVersion):
            io.read_nfvg(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "cut.nfvg"
        io.write_nfvg(p, f32_grid(np.random.default_rng(4)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-10])
        with pytest.raises(TruncatedFile):
            io.read_nfvg(p)

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "fat.nfvg"
        io.write_nfvg(p, f32_grid(np.random.default_rng(5)))
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(FileFormatError):
            io.read_nfvg(p)

    @pytest.mark.parametrize("zero", range(4), ids=["x", "y", "z", "channels"])
    def test_zero_dimension_or_channels_refused(self, tmp_path, zero):
        # a consistent file, whose payload holds the X*Y*Z*channels = 0
        # values its header asks for, but no voxel
        fields = [2, 3, 4, 2]
        fields[zero] = 0
        p = tmp_path / "zero.nfvg"
        p.write_bytes(io._HEADER.pack(io.NFVG_MAGIC, io.NFVG_VERSION, *fields)
                      + np.array([-1, -1, -1, 1, 1, 1], "<f8").tobytes())
        with pytest.raises(FileFormatError, match=re.escape(f"{p}: empty NFVG grid: ")):
            io.read_nfvg(p)

    def test_huge_dims_refused_before_allocating(self, tmp_path):
        p = tmp_path / "huge.nfvg"
        io.write_nfvg(p, f32_grid(np.random.default_rng(7), dims=(2, 2, 2), channels=1))
        raw = bytearray(p.read_bytes())
        raw[8:24] = io._HEADER.pack(io.NFVG_MAGIC, 1, *[2**32 - 1] * 4)[8:]
        p.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFile, match="payload"):
                io.read_nfvg(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_random_shapes_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        for i in range(10):
            dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
            channels = int(rng.integers(1, 6))
            grid = f32_grid(rng, dims=dims, channels=channels)
            p = tmp_path / f"g{i}.nfvg"
            io.write_nfvg(p, grid)
            back = io.read_nfvg(p)
            assert back.dims == dims and back.channels == channels
            assert np.array_equal(back.data, grid.data)


def oracle_write_nfvg(grid: VoxelGrid4D) -> bytes:
    """The NFVG bytes as written in one piece: header, bounds, and the whole
    payload converted to f32 at once."""
    header = io._HEADER.pack(io.NFVG_MAGIC, io.NFVG_VERSION, *grid.dims, grid.channels)
    bounds = np.concatenate([grid.bounds.min, grid.bounds.max]).astype("<f8")
    return header + bounds.tobytes() + np.ascontiguousarray(grid.data, dtype="<f4").tobytes()


class TestNfvgChunkedWrite:
    """write_nfvg converts and writes runs of x-planes, with the bytes of
    the whole-payload write."""

    @pytest.mark.parametrize("chunk", [1, 20, 60, 61, 1 << 20])
    def test_bytes_equal_one_piece_write(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(io, "NFVG_CHUNK_VALUES", chunk)
        rng = np.random.default_rng(7)
        grids = [VoxelGrid4D(rng.normal(size=(7, 3, 5, 4)), Aabb([-1, -2, -3], [4, 5, 6])),
                 # a transposed, non-contiguous array and one x-plane
                 VoxelGrid4D(rng.normal(size=(4, 5, 3, 7)).transpose(3, 2, 1, 0),
                             Aabb([0, 0, 0], [1, 1, 1])),
                 VoxelGrid4D(np.array([[[[np.nan, -0.0, np.inf, 1e30]]]]),
                             Aabb([0, 0, 0], [1, 1, 1])),
                 VoxelGrid4D(np.zeros((3, 0, 2, 4)), Aabb([0, 0, 0], [1, 1, 1]))]
        for i, grid in enumerate(grids):
            path = tmp_path / f"g{i}.nfvg"
            io.write_nfvg(path, grid)
            assert path.read_bytes() == oracle_write_nfvg(grid)


def oracle_read_nfvg_values(path) -> np.ndarray:
    """The payload as the whole-file reader converted it: every f32 at once."""
    return np.frombuffer(Path(path).read_bytes()[72:], "<f4").astype(np.float64)


class TestNfvgStream:
    """read_nfvg fills the grid NFVG_CHUNK_VALUES values at a time and
    write_nfvg writes runs of x-planes: the edges of both loops."""

    N = io.NFVG_CHUNK_VALUES

    @pytest.mark.parametrize("n", [N - 1, N, N + 1, 3 * N + 5])
    @pytest.mark.parametrize("layout", ["x-planes", "one-plane"])
    def test_round_trip_at_chunk_edges(self, tmp_path, n, layout):
        rng = np.random.default_rng(n)
        shape = (n, 1, 1, 1) if layout == "x-planes" else (1, 1, n, 1)
        grid = VoxelGrid4D(rng.normal(size=shape).astype(np.float32), Aabb([0, 0, 0], [1, 2, 3]))
        path = tmp_path / "g.nfvg"
        io.write_nfvg(path, grid)
        assert path.read_bytes() == oracle_write_nfvg(grid)
        back = io.read_nfvg(path)
        assert back.data.shape == shape
        assert np.array_equal(back.data.view(np.uint64), grid.data.view(np.uint64))

    def test_non_contiguous_grid_round_trips(self, tmp_path):
        data = np.random.default_rng(2).normal(size=(40, 41, 42, 3)).astype(np.float32)
        grid = VoxelGrid4D(data.astype(np.float64).transpose(2, 1, 0, 3)[::-1], Aabb([0] * 3, [1] * 3))
        assert not grid.data.flags.c_contiguous and grid.data.size > 3 * self.N
        path = tmp_path / "g.nfvg"
        io.write_nfvg(path, grid)
        assert path.read_bytes() == oracle_write_nfvg(grid)
        assert np.array_equal(io.read_nfvg(path).data.view(np.uint64), grid.data.view(np.uint64))

    @pytest.mark.parametrize("chunk", [1, 3, 4, 1 << 16])
    def test_edge_values_equal_the_whole_payload_oracle(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(io, "NFVG_CHUNK_VALUES", chunk)
        values = np.array(EDGE_VALUES + [np.nan, -np.nan], dtype="<f4")
        # quiet f32 NaNs with payloads, beside the default one
        values = np.concatenate([values, np.array([0x7FC00001, 0xFFC00002], "<u4").view("<f4")])
        path = tmp_path / "edge.nfvg"
        path.write_bytes(io._HEADER.pack(io.NFVG_MAGIC, io.NFVG_VERSION, 2, 1, len(values) // 2, 1)
                         + np.array([0, 0, 0, 1, 1, 1], "<f8").tobytes() + values.tobytes())
        got = io.read_nfvg(path).data.ravel()
        want = oracle_read_nfvg_values(path)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(np.signbit(got), np.signbit(values))

    @pytest.mark.parametrize("edit, error, message", [
        (lambda raw: raw[:-1], TruncatedFile, "payload 479 < 480 bytes"),
        (lambda raw: raw + b"\0", FileFormatError, "1 trailing bytes"),
        (lambda raw: raw[:3], BadMagic, "magic b'NFV'"),
    ], ids=["one-byte-short", "one-trailing-byte", "three-bytes"])
    def test_length_errors_keep_their_type_and_message(self, tmp_path, edit, error, message):
        path = tmp_path / "g.nfvg"
        io.write_nfvg(path, f32_grid(np.random.default_rng(8), dims=(3, 4, 5), channels=2))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(error) as info:
            io.read_nfvg(path)
        assert type(info.value) is error and str(info.value) == f"{path}: {message}"


def oracle_write_ply(path, positions, normals) -> None:
    """The per-value PLY writer that io.write_ply replaced."""

    def fmt_f32(v):
        return f"{float(np.float32(v)):.9g}"

    lines = ["ply", "format ascii 1.0", f"element vertex {len(positions)}",
             "property float x", "property float y", "property float z",
             "property float nx", "property float ny", "property float nz",
             "end_header"]
    for p, n in zip(positions, normals):
        lines.append(" ".join(fmt_f32(v) for v in list(p) + list(n)))
    Path(path).write_text("\n".join(lines) + "\n")


def oracle_read_ply(path) -> tuple[np.ndarray, np.ndarray]:
    """The per-line PLY body parser that io.read_ply replaced (header checks
    left out): positions and normals of the first N body lines."""
    lines = Path(path).read_text().splitlines()
    end = lines.index("end_header")
    n = next(int(line.split()[2]) for line in lines[1:end]
             if line.split()[:2] == ["element", "vertex"])
    pos, nrm = [], []
    for line in lines[end + 1 : end + 1 + n]:
        v = np.array(line.split(), dtype=np.float32).astype(np.float64)
        if v.size != 6:
            raise FileFormatError("expected 6 floats per vertex")
        pos.append(v[:3])
        nrm.append(v[3:])
    return np.array(pos).reshape(-1, 3), np.array(nrm).reshape(-1, 3)


# f32 edge values: signed zero, subnormals (1e-45 rounds to the smallest),
# the largest finite f32 of each sign, exponent-form values and non-finites
EDGE_VALUES = [-0.0, 0.0, 1e-45, -1e-45, 1.4e-45, 1e-40, -2.5e-39, 1.1754942e-38,
               3.4028235e38, -3.4028235e38, 3.4e38, -3.4e38, 1e20, -7.5e-12,
               123456789.0, 0.1, 1 / 3, float("nan"), float("inf"), float("-inf")]


_PLY_BINARY_HEADER = """ply
format binary_little_endian 1.0
element vertex 1
property float x
property float y
property float z
property float nx
property float ny
property float nz
end_header
"""

class TestPly:
    def samples(self, rng, n=20):
        pos = rng.normal(size=(n, 3)).astype(np.float32).astype(np.float64)
        nrm = rng.normal(size=(n, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        nrm = nrm.astype(np.float32).astype(np.float64)
        return SurfaceSamples(pos, nrm)

    def edge_samples(self, rng):
        vals = np.array(EDGE_VALUES * 6)
        rng.shuffle(vals)
        vals = vals[: len(vals) // 6 * 6].reshape(-1, 6)
        return SurfaceSamples(vals[:, :3], vals[:, 3:])

    def test_round_trip(self, tmp_path):
        samples = self.samples(np.random.default_rng(0))
        p = tmp_path / "pts.ply"
        io.write_ply(p, samples)
        back = io.read_ply(p)
        assert len(back) == len(samples)
        assert np.array_equal(back.positions, samples.positions)
        assert np.array_equal(back.normals, samples.normals)
        assert vars(back).keys() == {"positions", "normals"}

    def test_file_level_round_trip(self, tmp_path):
        samples = self.samples(np.random.default_rng(1))
        p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
        io.write_ply(p1, samples)
        io.write_ply(p2, io.read_ply(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header(self, tmp_path):
        p = tmp_path / "h.ply"
        io.write_ply(p, self.samples(np.random.default_rng(2), n=3))
        lines = p.read_text().splitlines()
        assert lines[0] == "ply"
        assert lines[1] == "format ascii 1.0"
        assert "element vertex 3" in lines
        assert lines[:2] + ["end_header"] == ["ply", "format ascii 1.0", "end_header"][:3]

    def test_version_rejected(self, tmp_path):
        p = tmp_path / "v2.ply"
        io.write_ply(p, self.samples(np.random.default_rng(3), n=1))
        text = p.read_text().replace("format ascii 1.0", "format ascii 2.0")
        p.write_text(text)
        with pytest.raises(BadVersion):
            io.read_ply(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "cut.ply"
        io.write_ply(p, self.samples(np.random.default_rng(4), n=5))
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(TruncatedFile):
            io.read_ply(p)

    def clouds(self):
        """Seeded clouds (unrounded f64, so the writer's f32 rounding shows),
        the edge values, and an empty cloud."""
        rng = np.random.default_rng(7)
        out = [SurfaceSamples(rng.normal(scale=10.0 ** rng.integers(-8, 9), size=(n, 3)),
                              rng.normal(size=(n, 3)))
               for n in (1, 2, 17, 500, 2000)]
        out += [self.edge_samples(np.random.default_rng(i)) for i in range(3)]
        out.append(SurfaceSamples.empty())
        return out

    def test_bytes_equal_oracle_writer(self, tmp_path):
        for i, s in enumerate(self.clouds()):
            new, old = tmp_path / f"new{i}.ply", tmp_path / f"old{i}.ply"
            with np.errstate(over="ignore"):
                io.write_ply(new, s)
                oracle_write_ply(old, s.positions, s.normals)
            assert new.read_bytes() == old.read_bytes(), i

    def test_write_peak_below_a_float64_copy(self, tmp_path):
        # 48 bytes a vertex is what the float64 (N, 6) copy of the positions
        # and normals alone took, before its float32 cast
        n = 200_000
        s = self.samples(np.random.default_rng(5), n=n)
        tracemalloc.start()
        try:
            io.write_ply(tmp_path / "big.ply", s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * n

    def test_read_peak_is_the_output_plus_a_chunk(self, tmp_path):
        # the float64 (N, 6) output is 48 bytes a vertex; the body streams
        # through the parser PLY_READ_CHUNK vertices at a time, so no copy
        # of the file, its text or its lines is held beside it
        n = 200_000
        p = tmp_path / "big.ply"
        io.write_ply(p, self.samples(np.random.default_rng(5), n=n))
        tracemalloc.start()
        try:
            io.read_ply(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * n + 4 * 2**20

    def test_arrays_equal_oracle_reader(self, tmp_path):
        for i, s in enumerate(self.clouds()):
            p = tmp_path / f"c{i}.ply"
            oracle_write_ply(p, s.positions, s.normals)
            back = io.read_ply(p)
            pos, nrm = oracle_read_ply(p)
            # bit patterns, so signed zeros and NaNs are compared too
            assert back.positions.tobytes() == pos.tobytes(), i
            assert back.normals.tobytes() == nrm.tobytes(), i
            assert back.positions.dtype == back.normals.dtype == np.float64
            assert vars(back).keys() == {"positions", "normals"}

    def test_edge_values_survive(self, tmp_path):
        s = self.edge_samples(np.random.default_rng(0))
        p = tmp_path / "edge.ply"
        io.write_ply(p, s)
        back = io.read_ply(p)
        want = np.concatenate([s.positions, s.normals], axis=1).astype(np.float32)
        got = np.concatenate([back.positions, back.normals], axis=1).astype(np.float32)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("token", ["1e39", "-3.5e38", "3.4028236e38", "1e400"])
    def test_token_past_float32_refused(self, tmp_path, token):
        # parsed as float32 these read as infinities; write_ply spells an
        # infinity inf, and such spellings still read
        p = tmp_path / "big.ply"
        io.write_ply(p, self.samples(np.random.default_rng(8), n=4))
        lines = p.read_text().splitlines()
        lines[-3] = "inf -Infinity NaN +inf 0 1"
        lines[-2] = f"0 1 2 3 {token} nan"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(p))}: vertex 2 "):
            io.read_ply(p)
        lines[-2] = "0 1 2 3 -inf nan"
        p.write_text("\n".join(lines) + "\n")
        back = io.read_ply(p)
        assert np.isinf(back.positions[1, :2]).all() and np.isnan(back.positions[1, 2])
        assert np.isinf(back.normals[1, 0]) and np.isinf(back.normals[2, 1])

    @pytest.mark.parametrize("line", ["1 2 3 4 5", "1 2 3 4 5 6 7"])
    def test_wrong_token_count_rejected(self, tmp_path, line):
        p = tmp_path / "bad.ply"
        io.write_ply(p, self.samples(np.random.default_rng(5), n=4))
        lines = p.read_text().splitlines()
        lines[-2] = line
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="6 floats"):
            io.read_ply(p)
        with pytest.raises(FileFormatError):
            oracle_read_ply(p)

    def test_compensating_token_counts_rejected(self, tmp_path):
        # a 5-token line next to a 7-token line keeps the total at 6 N
        p = tmp_path / "bad.ply"
        io.write_ply(p, self.samples(np.random.default_rng(6), n=4))
        lines = p.read_text().splitlines()
        lines[-2], lines[-1] = "1 2 3 4 5", "6 7 8 9 10 11 12"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="vertex 2"):
            io.read_ply(p)

    def test_non_numeric_token_rejected(self, tmp_path):
        p = tmp_path / "bad.ply"
        io.write_ply(p, self.samples(np.random.default_rng(7), n=3))
        lines = p.read_text().splitlines()
        lines[-2] = "1 2 abc 4 5 6"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="bad.ply: non-numeric .*'abc'"):
            io.read_ply(p)

    def test_negative_vertex_count_rejected(self, tmp_path):
        p = tmp_path / "neg.ply"
        io.write_ply(p, self.samples(np.random.default_rng(9), n=2))
        p.write_text(p.read_text().replace("element vertex 2", "element vertex -1"))
        with pytest.raises(FileFormatError, match="negative"):
            io.read_ply(p)

    @pytest.mark.parametrize("old,new,error,names", [
        ("element vertex 2", "element vertex abc", FileFormatError, "'abc'"),
        ("element vertex 2", "element vertex", FileFormatError, "'element vertex'"),
        ("format ascii 1.0", "format ascii", FileFormatError, "'format ascii'"),
        ("format ascii 1.0", "format binary_little_endian 1.0", BadVersion,
         "'binary_little_endian'"),
    ], ids=["non-integer-count", "no-count", "no-version", "binary"])
    def test_bad_header_line_rejected(self, tmp_path, old, new, error, names):
        p = tmp_path / "hdr.ply"
        io.write_ply(p, self.samples(np.random.default_rng(10), n=2))
        p.write_text(p.read_text().replace(old, new))
        with pytest.raises(error) as e:
            io.read_ply(p)
        assert str(p) in str(e.value) and names in str(e.value)

    def test_binary_body_rejected_by_its_format(self, tmp_path):
        # a body that is not UTF-8 text is refused by the header, not by decoding
        p = tmp_path / "bin.ply"
        header = _PLY_BINARY_HEADER.encode()
        p.write_bytes(header + np.array([0.5, -1.0, 3e38, 1, 0, 0], "<f4").tobytes() + b"\xff\xfe")
        with pytest.raises(BadVersion, match="'binary_little_endian'"):
            io.read_ply(p)

    def test_crlf_and_trailing_lines_accepted(self, tmp_path):
        samples = self.samples(np.random.default_rng(8), n=6)
        p = tmp_path / "a.ply"
        io.write_ply(p, samples)
        crlf = tmp_path / "crlf.ply"
        crlf.write_bytes(p.read_bytes().replace(b"\n", b"\r\n") + b"extra line\r\n\r\n")
        trailing = tmp_path / "trailing.ply"
        trailing.write_text(p.read_text() + "comment after the vertices\n1 2\n")
        for q in (crlf, trailing):
            back = io.read_ply(q)
            pos, nrm = oracle_read_ply(q)
            assert np.array_equal(back.positions, samples.positions)
            assert np.array_equal(back.normals, samples.normals)
            assert np.array_equal(back.positions, pos) and np.array_equal(back.normals, nrm)


def _read_outcome(path):
    """read_ply's arrays as bytes, or its error's type and message."""
    try:
        s = io.read_ply(path)
    except FileFormatError as e:
        return type(e), str(e)
    return s.positions.tobytes(), s.normals.tobytes()


class TestPlyStream:
    """read_ply parses the body PLY_READ_CHUNK vertices at a time; neither
    its arrays nor its errors may depend on where the chunks fall."""

    @pytest.mark.parametrize("n", [2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 5])
    def test_chunk_edges_equal_the_oracle(self, tmp_path, n):
        assert io.PLY_READ_CHUNK == 2**15
        rng = np.random.default_rng(n)
        v = rng.normal(scale=10.0 ** rng.integers(-6, 7, size=(n, 1)), size=(n, 6))
        v[np.unique(np.minimum([0, 2**15 - 1, 2**15, n - 1], n - 1)), 1:4] = [np.nan, -np.inf, -0.0]
        p = tmp_path / "c.ply"
        io.write_ply(p, SurfaceSamples(v[:, :3], v[:, 3:]))
        back = io.read_ply(p)
        pos, nrm = oracle_read_ply(p)
        assert back.positions.tobytes() == pos.tobytes()
        assert back.normals.tobytes() == nrm.tobytes()
        want = v.astype(np.float32).astype(np.float64)
        assert back.positions.tobytes() == np.ascontiguousarray(want[:, :3]).tobytes()
        assert back.normals.tobytes() == np.ascontiguousarray(want[:, 3:]).tobytes()

    def body_file(self, tmp_path, edits: dict[int, str], n=9) -> Path:
        """A PLY of n vertices whose body lines at the keys of edits are
        replaced (a key of n or more cuts the body to that many lines)."""
        p = tmp_path / "b.ply"
        io.write_ply(p, TestPly().samples(np.random.default_rng(11), n=n))
        lines = p.read_text().splitlines()
        end = lines.index("end_header") + 1
        for i, line in edits.items():
            if i >= n:
                lines = lines[: end + i - n]
            else:
                lines[end + i] = line
        p.write_text("\n".join(lines) + "\n")
        return p

    @pytest.mark.parametrize("edits", [
        {}, {4: "inf -Infinity NaN +inf 0 1", 8: "-0 nan 1 2 3 4"},
        {5: "1 2 abc 4 5 6"}, {5: "1 2 3 4 5"}, {5: ""}, {5: "   "},
        {3: "1 2 3 4 5", 4: "6 7 8 9 10 11 12"},
        {1: "0 1 2 3 1e39 nan"}, {1: "0 1 2 3 1e39 nan", 7: "1 2 x 4 5 6"},
        {1: "0 1 2 3 1e39 nan", 7: "1 2 3"}, {7: "1 2 3", 2: "1 2 y 4 5 6"},
        {15: ""}, {17: ""}, {8: "1 2 3 4 5 6 7"}, {2: "1 2 3 4 5 6\x0c"},
    ], ids=["clean", "non-finite", "non-numeric", "five", "blank", "spaces", "compensating",
            "past-f32", "past-f32-then-non-numeric", "past-f32-then-short",
            "non-numeric-then-short", "cut-to-6", "cut-to-8", "long-last", "form-feed"])
    def test_outcome_independent_of_chunking(self, tmp_path, monkeypatch, edits):
        # the same arrays, or the same error type and message (the parser's
        # row numbers count from the body's first line), at every chunk size
        p = self.body_file(tmp_path, edits)
        whole = _read_outcome(p)
        for chunk in (1, 2, 3, 4, 8):
            monkeypatch.setattr(io, "PLY_READ_CHUNK", chunk)
            assert _read_outcome(p) == whole, chunk

    def test_errors_name_body_vertices(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "PLY_READ_CHUNK", 2)
        p = self.body_file(tmp_path, {5: "1 2 abc 4 5 6"})
        with pytest.raises(FileFormatError, match=r"non-numeric .*'abc' .* at row 5, column 3"):
            io.read_ply(p)
        p = self.body_file(tmp_path, {1: "0 1 2 3 1e39 nan", 6: "1 2 3 4 5"})
        with pytest.raises(FileFormatError, match=r"6 floats per vertex \(vertex 6\)$"):
            io.read_ply(p)
        p = self.body_file(tmp_path, {1: "0 1 2 3 nan inf", 6: "0 1 -1e39 3 4 5"})
        with pytest.raises(FileFormatError, match="vertex 6 holds a value past float32$"):
            io.read_ply(p)
        p = self.body_file(tmp_path, {15: ""})
        with pytest.raises(TruncatedFile, match="6 of 9 vertices present$"):
            io.read_ply(p)
        for blank in ("", "   "):  # the parser would skip it, uncounted
            p = self.body_file(tmp_path, {5: blank, 8: "1 2 3"})
            with pytest.raises(FileFormatError, match=r"6 floats per vertex \(vertex 5\)$"):
                io.read_ply(p)

    def test_lines_end_at_newline(self, tmp_path):
        # the other breaks of str.splitlines are whitespace inside a body
        # line, and a lone "\r" is refused
        p = self.body_file(tmp_path, {2: "1 2 3\x0b4 5 6", 3: "1 2 3\x1c4\u20285 6"})
        back = io.read_ply(p)
        assert back.positions[2].tolist() == back.positions[3].tolist() == [1, 2, 3]
        assert back.normals[2].tolist() == back.normals[3].tolist() == [4, 5, 6]
        p = self.body_file(tmp_path, {2: "1 2 3\r4 5 6"})
        with pytest.raises(FileFormatError, match="b.ply: non-numeric vertex value"):
            io.read_ply(p)

    @pytest.mark.parametrize("count", [10**6, 10**12])
    def test_count_past_the_file_refused_before_allocating(self, tmp_path, count):
        # a body cut mid-line, under a count its bytes cannot hold: refused
        # from the file size, before the (N, 6) output is allocated
        p = tmp_path / "cut.ply"
        io.write_ply(p, TestPly().samples(np.random.default_rng(12), n=50))
        raw = p.read_bytes().replace(b"element vertex 50", f"element vertex {count}".encode())
        p.write_bytes(raw[: len(raw) - 100])
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFile, match=f"cannot hold {count} vertices$"):
                io.read_ply(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# a valid two-vertex PLY as write_ply lays it out
PLY_BYTES = (io._PLY_HEADER.format(2)
             + "0.5 -0.00100000005 2 0 0.600000024 0.800000012\n"
             + "-0 9.99999935e-39 123456.703 -1 0 0\n").encode()
PLY_JUNK = st.one_of(st.binary(min_size=1, max_size=8),
                     st.sampled_from([b"\n", b"\r\n", b" ", b"-", b"\x00", b"1e39", b"nan",
                                      b"99999999999999999999", b"element vertex 1\n"]))


@st.composite
def mutated_ply(draw):
    """PLY_BYTES with 1-3 edits: a truncation, a byte flip, an insertion or
    appended junk."""
    raw = PLY_BYTES
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "insert", "append"]))
        at = draw(st.integers(0, max(len(raw) - 1, 0)))
        if kind == "truncate":
            raw = raw[:at]
        elif kind == "flip" and raw:
            raw = raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1:]
        elif kind == "insert":
            raw = raw[:at] + draw(PLY_JUNK) + raw[at:]
        else:
            raw += draw(PLY_JUNK)
    return raw


def header_vertex_count(raw: bytes) -> int:
    """The vertex count of the last "element vertex" line before end_header."""
    lines = raw.decode("utf-8", errors="replace").splitlines()
    header = [line.split() for line in lines[1:lines.index("end_header")]]
    return [int(parts[2]) for parts in header if parts[:2] == ["element", "vertex"]][-1]


class TestPlyMutations:
    @settings(deadline=None, max_examples=150)
    @given(mutated_ply())
    def test_read_or_refused_naming_the_file(self, tmp_path_factory, raw):
        # a mutated PLY reads as a record of its header's N vertices, or is
        # refused with a FileFormatError naming the file; nothing else, and
        # no warning
        p = tmp_path_factory.mktemp("ply") / "m.ply"
        p.write_bytes(raw)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = io.read_ply(p)
        except FileFormatError as e:
            assert str(e).startswith(f"{p}: "), e
            return
        n = header_vertex_count(raw)
        assert vars(out).keys() == {"positions", "normals"}
        assert out.positions.shape == out.normals.shape == (n, 3)
        assert out.positions.dtype == out.normals.dtype == np.float64

    def test_unmutated_bytes_round_trip(self, tmp_path):
        # the property starts from a PLY that write_ply would write
        p = tmp_path / "a.ply"
        p.write_bytes(PLY_BYTES)
        io.write_ply(tmp_path / "b.ply", io.read_ply(p))
        assert (tmp_path / "b.ply").read_bytes() == PLY_BYTES


def f32_samples(vals) -> SurfaceSamples:
    """Samples holding the given values as f32, six to a vertex (the last
    vertex padded with zeros)."""
    v = np.asarray(vals, dtype=np.float32).ravel()
    v = np.concatenate([v, np.zeros(-len(v) % 6, np.float32)]).reshape(-1, 6).astype(np.float64)
    return SurfaceSamples(v[:, :3], v[:, 3:])


def percent_ply_bytes(samples) -> bytes:
    """The `%` writer io.write_ply replaced: every f32 value through one
    `%.9g` on a tuple. It formats each value as oracle_write_ply does, fast
    enough for a million values."""
    vals = np.concatenate([samples.positions, samples.normals], axis=1).astype(np.float32)
    body = ("%.9g %.9g %.9g %.9g %.9g %.9g\n" * len(vals)) % tuple(vals.ravel().tolist())
    return (io._PLY_HEADER.format(len(vals)) + body).encode()


# The positive f32 values whose 9 digits the float64 scaling alone gets wrong:
# s = |v| 10^(8 - X) rounds to exactly N + 1/2 although v is no tie, so
# rounding s half to even picks the wrong last digit. write_ply formats them
# with %. Found by comparing, for every positive f32, those digits with '%.8e'.
NEAR_TIES = [6.661681814999999e-39, 7.838966745000001e-37, 6.985349925e-35,
             1.397069985e-34, 3.259829965e-34, 5.122589945e-34, 6.985349925e-34,
             1.397069985e-33, 3.860084235e-32, 3.752432815e-31, 2.817400485e-29,
             6.606743785000001e-29, 9.901994705e-27, 2.8634637050000003e-26,
             9.901994705e-26, 6.839422155e-23, 6.476829245e-22, 4.6696633250000004e-20,
             3.072132665e-18, 1.0194606650000001e-16, 4.0025449250000004e-15,
             6.205944775e-14, 9.407980715e-14, 1.241188955e-13, 9.171420845e-10,
             2.389027145e-07, 2.9288019050000003e-06, 4.500175055e-05, 9.310196765e-05,
             9.878415325000001e+19, 4.748830535e+22, 5.432898045e+22, 3.122925325e+23,
             9.864475945e+24, 4.023121435e+25, 6.539735695e+28, 3.101910225e+29,
             7.237790525e+29, 1.447558105e+30, 3.101910225e+30, 5.583438405e+30,
             6.410614465e+30, 1.447558105e+31, 2.274734165e+31, 3.101910225e+31,
             3.929086285e+31, 4.756262345e+31, 5.583438405e+31, 6.410614465e+31,
             7.237790525e+31, 8.064966585e+31, 8.892142645e+31, 9.719318705e+31,
             1.447558105e+32, 2.274734165e+32, 3.101910225e+32, 3.929086285e+32,
             4.756262345e+32, 5.583438405e+32, 6.410614465e+32, 7.237790525e+32,
             8.064966585e+32, 8.892142645e+32, 9.719318705e+32, 1.447558105e+33,
             7.641909335e+34, 2.190122715e+35, 6.504291905000001e+37, 2.855167375e+38]


def exact_ties() -> list[float]:
    """f32 values whose exact decimal expansion has 10 significant digits
    ending in 5, which %.9g rounds half to even."""
    cands = [m * 2.0**-p for p in range(150) for m in range(1, 64, 2)]
    cands += [n + j / 8 for n in range(1048577, 1048657) for j in (1, 3, 5, 7)]
    cands += [n + j / 16 for n in range(200000, 200040) for j in (1, 3, 13, 15)]
    ties = []
    for x in cands:
        digits = "".join(map(str, Decimal(x).as_tuple().digits)).rstrip("0")
        if float(np.float32(x)) == x and len(digits) == 10 and digits[-1] == "5":
            ties.append(x)
    return ties


class TestPlyWriterOracle:
    """write_ply formats in numpy; its bytes must be those of `%.9g` on
    every f32, with `%` kept only for near-ties and non-finite values."""

    def assert_oracle_bytes(self, tmp_path, samples, oracle=None):
        new = tmp_path / "new.ply"
        io.write_ply(new, samples)
        if oracle is None:
            old = tmp_path / "old.ply"
            oracle_write_ply(old, samples.positions, samples.normals)
            want = old.read_bytes()
        else:
            want = oracle(samples)
        assert new.read_bytes() == want

    def test_every_f32_near_each_power_of_ten(self, tmp_path):
        # +-2^12 ulps around 1e-45 .. 1e38: exponent and notation changes,
        # values rounding up into the next decade, subnormals at the low end
        centres = np.array([10.0**e for e in range(-45, 39)], np.float32).view(np.int32)
        bits = (centres[:, None] + np.arange(-4096, 4097)).ravel()
        bits = np.unique(np.clip(bits, 0, 0x7F7FFFFF)).astype(np.uint32)
        signs = np.random.default_rng(0).integers(0, 2, len(bits), dtype=np.uint32) << 31
        vals = (bits | signs).view(np.float32)
        assert len(vals) > 600_000
        self.assert_oracle_bytes(tmp_path, f32_samples(vals), percent_ply_bytes)

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(1).integers(0, 2**32, 1_000_000, dtype=np.uint64)
        vals = bits.astype(np.uint32).view(np.float32)
        assert np.isnan(vals).any()
        with np.errstate(invalid="ignore"):  # casts of signalling NaNs
            self.assert_oracle_bytes(tmp_path, f32_samples(vals), percent_ply_bytes)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(width=32), max_size=48))
    def test_any_f32_property(self, tmp_path_factory, vals):
        self.assert_oracle_bytes(tmp_path_factory.mktemp("ply"), f32_samples(vals))

    def test_ties_and_near_ties(self, tmp_path):
        ties = exact_ties() + NEAR_TIES
        assert len(ties) > 500 and all(float(np.float32(t)) == t for t in NEAR_TIES)
        vals = np.array(ties + [-t for t in ties])
        self.assert_oracle_bytes(tmp_path, f32_samples(vals))
        p = tmp_path / "ties.ply"
        io.write_ply(p, f32_samples([1234567.125, 1234567.375, 2.0**-14, -200000.0625,
                                     0.01025390625, 131073.1875]))
        assert p.read_text().splitlines()[-1] == \
            "1234567.12 1234567.38 6.10351562e-05 -200000.062 0.0102539062 131073.188"

    def test_zeros_subnormals_extremes_and_non_finite(self, tmp_path):
        sub = np.concatenate([np.arange(1, 2049), np.arange(0x7FFFFF - 2048, 0x800001)])
        special = np.array([0.0, -0.0, 3.4028235e38, -3.4028235e38, 1.1754944e-38,
                            float("nan"), float("-nan"), float("inf"), float("-inf")],
                           np.float32).view(np.uint32)
        bits = np.concatenate([sub, sub | 0x80000000, special]).astype(np.uint32)
        self.assert_oracle_bytes(tmp_path, f32_samples(bits.view(np.float32)))

    def test_box_face_clouds(self, tmp_path):
        # box faces give normals whose components are exactly 0, -0 or +-1
        rng = np.random.default_rng(2)
        n = 3000
        axis, side = rng.integers(0, 3, n), rng.choice([-1.0, 1.0], n)
        normals = np.zeros((n, 3))
        normals[np.arange(n), axis] = side
        normals[rng.random((n, 3)) < 0.2] *= -1.0
        centre = np.array([0.35, 0.0, 0.0])
        positions = centre + rng.uniform(-0.25, 0.25, (n, 3))
        positions[np.arange(n), axis] = centre[axis] + 0.25 * side
        box = SurfaceSamples(positions, normals)
        union, _ = extract_surface(UnionSdf([SphereSdf((-0.35, 0, 0), 0.3),
                                             BoxSdf((0.35, 0, 0), (0.25, 0.25, 0.25))]),
                                   LodConfig(3, 6))
        vals = np.concatenate([union.positions, union.normals], axis=1)
        assert np.isin(vals, (0.0, 1.0, -1.0)).mean() > 0.1
        for s in (box, union):
            self.assert_oracle_bytes(tmp_path, s)

    @pytest.mark.parametrize("n", [io.PLY_CHUNK - 1, io.PLY_CHUNK, io.PLY_CHUNK + 1,
                                   2 * io.PLY_CHUNK + 3, 0])
    def test_output_independent_of_chunking(self, tmp_path, n):
        rng = np.random.default_rng(n)
        vals = rng.normal(scale=10.0 ** rng.integers(-6, 10, (n, 1)), size=(n, 6))
        # values formatted by % at each chunk's first and last vertex
        ends = np.unique(np.clip([0, io.PLY_CHUNK - 1, io.PLY_CHUNK, n - 1], 0, max(n - 1, 0)))
        if n:
            vals[ends, 0], vals[ends, 4], vals[ends, 5] = float("nan"), 1234567.125, -0.0
        self.assert_oracle_bytes(tmp_path, f32_samples(vals), percent_ply_bytes)


class TestBenchmarkContract:
    def test_extract_write_read_arrays(self, tmp_path):
        # the call shape the benchmark's surface job uses on each PLY
        samples, _ = extract_surface(SphereSdf((0.1, 0, 0), 0.5), LodConfig(3, 5))
        p = tmp_path / "s.ply"
        io.write_ply(p, samples)
        out = samples_to_arrays(io.read_ply(p))[:2]
        assert len(out) == 2
        pos, nrm = out
        assert pos.shape == nrm.shape == (len(samples), 3)
        assert pos.dtype == nrm.dtype == np.float64
        assert np.array_equal(pos, samples.positions.astype(np.float32))
        assert np.array_equal(nrm, samples.normals.astype(np.float32))
        assert np.abs(np.linalg.norm(pos - (0.1, 0, 0), axis=1) - 0.5).max() < 1e-3
        assert np.abs(np.linalg.norm(nrm, axis=1) - 1.0).max() < 1e-6


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = np.round(rng.uniform(0, 1, size=(6, 9, 3)) * 255) / 255
        p = tmp_path / "img.ppm"
        io.write_ppm(p, img)
        back = io.read_ppm(p)
        assert np.abs(back - img).max() < 1e-12
        assert p.read_bytes().startswith(b"P6\n9 6\n255\n")

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(BadMagic):
            io.read_ppm(p)

    @pytest.mark.parametrize("raw", [b"P6", b"P6\n4 4", b"P6\n4 4\n255", b"P6\nx 4\n255\n",
                                     b"P6\n-4 4\n255\n", b"P6\n4 4 # comment\n255\n"])
    def test_bad_header_names_file(self, tmp_path, raw):
        p = tmp_path / "x.ppm"
        p.write_bytes(raw)
        with pytest.raises(FileFormatError, match="x.ppm: P6 header"):
            io.read_ppm(p)


class TestMapEncodings:
    def test_semantic_map_round_trip(self, tmp_path):
        from radiant.projmaps import SemanticMap

        rng = np.random.default_rng(0)
        smap = SemanticMap(6, 0.25, rng.random((12, 12, 3)) > 0.7)
        p = tmp_path / "map.nfvg"
        io.write_nfvg(p, io.semantic_map_to_grid(smap))
        back = helpers.grid_to_semantic_map(io.read_nfvg(p))
        assert back.half_extent == 6
        assert back.cell_size == pytest.approx(0.25)
        assert np.array_equal(back.occupancy, smap.occupancy)

    def test_heatmap_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        heat = np.round(rng.random((7, 9)) * 1e4) / 1e4  # f32-exact values
        heat = heat.astype(np.float32).astype(np.float64)
        p = tmp_path / "heat.nfvg"
        io.write_nfvg(p, helpers.heatmap_to_grid(heat))
        grid = io.read_nfvg(p)
        assert grid.dims == (7, 9, 1) and grid.channels == 1
        assert np.array_equal(helpers.grid_to_heatmap(grid), heat)

    def test_wrong_layout_rejected(self):
        from radiant.core_math import Aabb
        from radiant.grids import VoxelGrid4D

        grid = VoxelGrid4D(np.zeros((2, 2, 2, 1)), Aabb([0, 0, 0], [1, 1, 1]))
        with pytest.raises(FileFormatError):
            helpers.grid_to_heatmap(grid)
        with pytest.raises(FileFormatError):
            helpers.grid_to_semantic_map(grid)


class TestJsonSchemas:
    def test_pose_round_trip(self):
        pose = Pose(rotation_about([0.3, 0.5, 0.8], 1.1), (1, 2, 3))
        back = io.pose_from_json(helpers.pose_to_json(pose))
        assert np.abs(back.rotation - pose.rotation).max() < 1e-15
        assert np.array_equal(back.translation, pose.translation)

    def test_intrinsics_round_trip(self):
        k = Intrinsics(fx=100, fy=90, cx=32, cy=24, width=64, height=48)
        assert io.intrinsics_from_json(helpers.intrinsics_to_json(k)) == k

    def test_box_round_trip(self):
        b = OrientedBox3((1, 2, 3), (0.5, 0.6, 0.7), yaw=0.3, label="car", score=0.8)
        back = io.box_from_json(helpers.box_to_json(b))
        assert np.array_equal(back.center, b.center)
        assert back.label == "car" and back.score == 0.8

    def test_pose_record_round_trip(self):
        r = PoseRecord(rotation_about([0, 0, 1], 0.4), (0.1, 0.2, 0.3),
                       scale=1.5, label="mug", score=0.7)
        back = io.pose_record_from_json(helpers.pose_record_to_json(r))
        assert np.abs(back.rotation - r.rotation).max() < 1e-15
        assert back.scale == 1.5

    def test_versioned_json_rejects_unknown(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text('{"version": 2, "boxes": []}')
        with pytest.raises(BadVersion):
            io.load_versioned_json(p)


# ---------------------------------------------------------------------------
# boxes_from_json / poses_from_json against the per-record readers

BAD_NUMBERS = [True, False, "0.5", None, float("nan"), float("inf"), -float("inf"), 10**400,
               [0.5], {}]
# values some number slots take and others refuse (a size or scale must be positive)
EDGE_NUMBERS = [0, 0.0, -1.0, 7.5, 1e300]


# a change to a list slot or shape leaves a value an earlier change made
# into something else as it is


def _set(key, value, slot=None):
    def change(d):
        v = d.get(key)
        if slot is None:
            d[key] = value
        elif isinstance(v, list) and slot < len(v):
            d[key] = v[:slot] + [value] + v[slot + 1:]
        return d
    return change


def _reshape(key, how):
    def change(d):
        if isinstance(d.get(key), list) and d[key]:
            d[key] = how(d[key])
        return d
    return change


def mutations(vectors, scalars, required):
    """Changes to one entry (each takes a copy of a dict and returns it
    changed, or a non-dict to put in its place): bad or edge values in every
    number slot, missing keys, wrong lengths, nested lists, non-object
    entries, classes that are not strings, and forms the record readers
    take (a yaw past pi, say)."""
    out = [_set(key, v, slot) for key in vectors for slot in (0, 2)
           for v in BAD_NUMBERS + EDGE_NUMBERS]
    out += [_set(key, v) for key in scalars + ["class"]
            for v in BAD_NUMBERS + EDGE_NUMBERS + [4.0, -7.5, 2 * math.pi, -math.pi]]
    out += [lambda d, key=key: {k: v for k, v in d.items() if k != key} for key in required]
    out += [_reshape(key, how) for key in vectors for how in (
        lambda v: v[:-1], lambda v: v + [0.0], lambda v: [v], lambda v: [], lambda v: v[0])]
    out += [lambda d, v=v: v for v in ([], 3, "box", None)]
    return out


BOX_MUTATIONS = mutations(["center", "size"], ["yaw", "score"], ["center", "size", "score"])
POSE_MUTATIONS = mutations(["rotation", "translation"], ["scale", "score"],
                           ["rotation", "translation", "score"])


def apply(mutation, entries, targets):
    return [mutation(dict(d)) if i in targets and isinstance(d, dict) else d
            for i, d in enumerate(entries)]


@st.composite
def box_entries(draw):
    n = draw(st.integers(0, 5))
    xs = st.floats(-50, 50, allow_nan=False)
    entries = []
    for _ in range(n):
        d = {"center": draw(st.lists(xs, min_size=3, max_size=3)),
             "size": draw(st.lists(st.floats(0.1, 5), min_size=3, max_size=3)),
             "class": draw(st.sampled_from(["car", "van", ""])),
             "score": draw(st.floats(0, 1))}
        if draw(st.booleans()):
            d["yaw"] = draw(st.floats(-math.pi, math.pi).filter(lambda y: y > -math.pi))
        entries.append(d)
    return entries


@st.composite
def pose_entries(draw):
    n = draw(st.integers(0, 5))
    nested = draw(st.booleans())  # 3x3 nested rotations, the same in every entry
    entries = []
    for _ in range(n):
        axis = draw(st.sampled_from([[1, 0, 0], [0, 1, 0], [0.6, 0, 0.8], [0.48, 0.6, 0.64]]))
        r = rotation_about(axis, draw(st.floats(-math.pi, math.pi)))
        if draw(st.integers(0, 9)) == 0:  # not orthonormal
            r = 1.01 * r
        d = {"rotation": r.tolist() if nested else r.ravel().tolist(),
             "translation": draw(st.lists(st.floats(-2, 2), min_size=3, max_size=3)),
             "class": draw(st.sampled_from(["mug", "can"])), "score": draw(st.floats(0, 1))}
        if draw(st.booleans()):
            d["scale"] = draw(st.floats(0.01, 2))
        entries.append(d)
    return entries


@st.composite
def mutated(draw, entries, all_mutations):
    """entries with 0-2 mutations, each on one entry or on every entry."""
    entries = draw(entries)
    for _ in range(draw(st.integers(0, 2)) if entries else 0):
        every = draw(st.booleans())
        targets = range(len(entries)) if every else {draw(st.integers(0, len(entries) - 1))}
        entries = apply(draw(st.sampled_from(all_mutations)), entries, targets)
    return entries


def read_per_record(reader, entries, where, scored):
    """How eval-detect and eval-pose read a list before it was read as
    columns: a record an entry, in order, a prediction's score checked
    first."""
    records = []
    for i, d in enumerate(entries):
        if scored:
            io.read_key(d, "score", f"{where}[{i}]")
        records.append(reader(d, f"{where}[{i}]"))
    return records


def outcome(read, *args):
    try:
        return read(*args)
    except (RadiantError, ValueError) as e:
        return type(e), str(e)


def assert_agree(batch, records, columns):
    """The batch reader's result against the per-record readers': the same
    error, or each column equal to the stacked record values."""
    if isinstance(records, tuple):
        assert batch == records
        return
    assert not isinstance(batch, tuple), batch
    assert len(batch) == len(records)
    for column, attr, shape in columns:
        want = np.array([getattr(r, attr) for r in records], dtype=np.float64)
        got = getattr(batch, column)
        assert got.dtype == np.float64 and got.shape == (len(records),) + shape
        assert np.array_equal(got, want.reshape(got.shape))
    assert batch.labels.tolist() == [r.label for r in records]
    scores = [math.nan if r.score is None else r.score for r in records]
    assert np.array_equal(batch.scores, np.array(scores, dtype=np.float64), equal_nan=True)


BOX_COLUMNS = [("centers", "center", (3,)), ("sizes", "size", (3,)), ("yaws", "yaw", ())]
POSE_COLUMNS = [("rotations", "rotation", (3, 3)), ("translations", "translation", (3,)),
                ("scales", "scale", ())]


BOX_BASE = [{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0.5, "class": "car", "score": 0.9},
            {"center": [1, 2, 3], "size": [2, 1, 0.5], "class": "van", "score": 0.5},
            {"center": [-1, 0, 1.5], "size": [1, 3, 1], "yaw": -2.0, "score": 1}]
POSE_BASE = [{"rotation": np.eye(3).ravel().tolist(), "translation": [0, 0, 0], "class": "mug",
              "score": 0.9},
             {"rotation": rotation_about([0, 1, 0], 0.3).ravel().tolist(),
              "translation": [0.1, 0, 0], "scale": 0.5, "score": 0.2},
             {"rotation": rotation_about([0.6, 0, 0.8], -2.0).ravel().tolist(),
              "translation": [0, 1, 0], "class": "can", "score": 1}]
POSE_BASE_NESTED = [dict(d, rotation=np.reshape(d["rotation"], (3, 3)).tolist())
                    for d in POSE_BASE]


class TestBatchReaders:
    """boxes_from_json and poses_from_json return the columns of the stacked
    per-record results, or raise the same error for the same first entry."""

    @pytest.mark.parametrize("scored", [False, True])
    def test_every_mutation_agrees(self, scored):
        """Each mutation of the base entries reads the same both ways, and
        every refusal is a FileFormatError naming the entry."""
        where = "f.json: x"
        for read, reader, base, all_mutations, columns in (
                (io.boxes_from_json, io.box_from_json, [BOX_BASE], BOX_MUTATIONS, BOX_COLUMNS),
                (io.poses_from_json, io.pose_record_from_json, [POSE_BASE, POSE_BASE_NESTED],
                 POSE_MUTATIONS, POSE_COLUMNS)):
            for entries in base:
                for mutation in all_mutations:
                    for targets in ({1}, range(3)):
                        changed = apply(mutation, entries, targets)
                        got = outcome(read, changed, where, scored)
                        assert_agree(got, outcome(read_per_record, reader, changed, where,
                                                  scored), columns)
                        if isinstance(got, tuple):
                            assert got[0] is FileFormatError, got
                            assert got[1].startswith(f"{where}["), got

    @settings(deadline=None, max_examples=100)
    @given(mutated(box_entries(), BOX_MUTATIONS), st.booleans())
    def test_boxes_agree_with_box_from_json(self, entries, scored):
        where = "pred.json: boxes"
        assert_agree(outcome(io.boxes_from_json, entries, where, scored),
                     outcome(read_per_record, io.box_from_json, entries, where, scored),
                     BOX_COLUMNS)

    @settings(deadline=None, max_examples=100)
    @given(mutated(pose_entries(), POSE_MUTATIONS), st.booleans())
    def test_poses_agree_with_pose_record_from_json(self, entries, scored):
        where = "gt.json: poses"
        assert_agree(outcome(io.poses_from_json, entries, where, scored),
                     outcome(read_per_record, io.pose_record_from_json, entries, where, scored),
                     POSE_COLUMNS)

    def test_ground_truth_scores_and_wrapped_yaws(self):
        entries = [{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 4.0, "score": 0.5},
                   {"center": [1, 0, 0], "size": [1, 2, 1], "class": "van"}]
        boxes = io.boxes_from_json(entries, "gt.json: boxes")
        assert boxes.yaws[0] == OrientedBox3([0, 0, 0], [1, 1, 1], yaw=4.0).yaw
        assert boxes.scores[0] == 0.5 and math.isnan(boxes.scores[1])
        assert boxes.labels.tolist() == ["", "van"]
        with pytest.raises(FileFormatError, match=r"boxes\[1\] is missing key 'score'"):
            io.boxes_from_json(entries, "pred.json: boxes", scored=True)

    def test_common_forms_read_no_records(self, monkeypatch):
        """Flat and 3x3 nested rotations, yaws past pi and unscored ground
        truth are read as columns, without a record a box or pose."""
        def refuse(*args):
            raise AssertionError("read through the record reader")

        monkeypatch.setattr(io, "box_from_json", refuse)
        monkeypatch.setattr(io, "pose_record_from_json", refuse)
        boxes = [{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 7.0}, {"center": [1, 2, 3],
                  "size": [1, 2, 3], "class": "car", "score": 0.4}]
        assert len(io.boxes_from_json(boxes, "gt.json: boxes")) == 2
        eye = np.eye(3)
        for rot in (eye.ravel().tolist(), eye.tolist()):
            poses = [{"rotation": rot, "translation": [0, 0, 0], "score": 1}] * 3
            batch = io.poses_from_json(poses, "p.json: poses", scored=True)
            assert batch.rotations.shape == (3, 3, 3)
