from pathlib import Path

import numpy as np
import pytest

from radiant import io
from radiant.core_math import Aabb, Intrinsics, Pose, rotation_about
from radiant.errors import BadMagic, BadVersion, FileFormatError, TruncatedFile
from radiant.grids import VoxelGrid4D
from radiant.metrics import OrientedBox3, PoseRecord
from radiant.fields import SphereSdf
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
        return SurfaceSamples(pos, nrm, np.zeros(n))

    def edge_samples(self, rng):
        vals = np.array(EDGE_VALUES * 6)
        rng.shuffle(vals)
        vals = vals[: len(vals) // 6 * 6].reshape(-1, 6)
        return SurfaceSamples(vals[:, :3], vals[:, 3:], np.zeros(len(vals)))

    def test_round_trip(self, tmp_path):
        samples = self.samples(np.random.default_rng(0))
        p = tmp_path / "pts.ply"
        io.write_ply(p, samples)
        back = io.read_ply(p)
        assert len(back) == len(samples)
        assert np.array_equal(back.positions, samples.positions)
        assert np.array_equal(back.normals, samples.normals)
        assert np.array_equal(back.residuals, np.zeros(len(samples)))

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
                              rng.normal(size=(n, 3)), rng.normal(size=n))
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
            assert np.array_equal(back.residuals, np.zeros(len(s)))

    def test_edge_values_survive(self, tmp_path):
        s = self.edge_samples(np.random.default_rng(0))
        p = tmp_path / "edge.ply"
        io.write_ply(p, s)
        back = io.read_ply(p)
        want = np.concatenate([s.positions, s.normals], axis=1).astype(np.float32)
        got = np.concatenate([back.positions, back.normals], axis=1).astype(np.float32)
        assert got.tobytes() == want.tobytes()

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
