import contextlib
import hashlib
import io as _stdio
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radiant
from radiant import io
from radiant.cli import MAX_GRID_VALUES, build_parser, dispatch


def run(*argv):
    return dispatch([str(a) for a in argv])


def child_env():
    """The environment for a child Python that imports this radiant."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(radiant.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def scene_doc(**overrides):
    doc = {
        "near_field": {"type": "ball", "color": [1.0, 0.5, 0.2], "sigma": 30.0,
                       "radius": 0.4, "center": [0, 0, 0.5]},
        "far_field": {"type": "constant", "color": [0.1, 0.2, 0.4], "sigma": 5.0},
        "cameras": [{
            "intrinsics": {"fx": 8, "fy": 8, "cx": 3.5, "cy": 3.5,
                           "width": 8, "height": 8},
            "pose": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                     "translation": [0, 0, 0]},
        }],
        "n_coarse": 16,
    }
    doc.update(overrides)
    return doc


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert run("voxelize", "--bogus") == 1

    def test_usage_error_no_command(self):
        assert run() == 1

    def test_missing_input_is_io_error(self, tmp_path):
        code = run("mask", "--grid", tmp_path / "nope.nfvg",
                   "--out", tmp_path / "o.nfvg", "--mask-out", tmp_path / "m.json")
        assert code == 2

    def test_overwrite_without_force_is_io_error(self, tmp_path):
        out = tmp_path / "g.nfvg"
        assert run("voxelize", "--field", "constant", "--dims", "4",
                   "--out", out) == 0
        assert run("voxelize", "--field", "constant", "--dims", "4",
                   "--out", out) == 2
        assert run("voxelize", "--field", "constant", "--dims", "4",
                   "--out", out, "--force") == 0

    def test_domain_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.nfvg"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = run("mask", "--grid", bad, "--out", tmp_path / "o.nfvg",
                   "--mask-out", tmp_path / "m.json")
        assert code == 3
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["type"] == "BadMagic"


class TestVoxelizeRender:
    def test_happy_path(self, tmp_path, capsys):
        grid_path = tmp_path / "g.nfvg"
        assert run("voxelize", "--field", "sphere", "--dims", "16",
                   "--out", grid_path) == 0
        grid = io.read_nfvg(grid_path)
        assert grid.dims == (16, 16, 16)
        # the emitter ball preset: alpha = 1 - exp(-40 * 0.01) inside
        assert grid.data[..., 3].max() == pytest.approx(1 - np.exp(-0.4), abs=1e-6)

        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc(
            near_field={"type": "grid", "path": "g.nfvg"})))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 0
        img = io.read_ppm(tmp_path / "img_000.ppm")
        assert img.shape == (8, 8, 3)
        metrics = json.loads((tmp_path / "img_metrics.json").read_text())
        assert 0.0 < metrics["images"][0]["mean_acc"] <= 1.0

    def test_render_deterministic(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc()))
        assert run("render", "--scene", scene, "--out", tmp_path / "a") == 0
        assert run("render", "--scene", scene, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a_000.ppm").read_bytes() == (tmp_path / "b_000.ppm").read_bytes()

    def test_render_with_boxes_and_object(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc(
            object_field={"type": "constant", "color": [1, 1, 0], "sigma": 200.0},
            boxes=[{"center": [0, 0, 0.5], "size": [0.6, 0.6, 0.4], "yaw": 0.0,
                    "class": "car"}],
        )))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 0

    def test_render_negative_seed(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc(n_fine=4)))
        assert run("render", "--scene", scene, "--out", tmp_path / "img",
                   "--seed", "-1") == 0


class TestBudgets:
    """Inputs whose arrays would exceed a budget exit 3 before any of those
    arrays is allocated."""

    @staticmethod
    def _refuse_calls(monkeypatch, *names):
        import radiant.cli

        def refuse(*args, **kwargs):
            raise AssertionError("called before the budget check")

        for name in names:
            monkeypatch.setattr(radiant.cli, name, refuse)

    def test_render_sample_budget(self, tmp_path, capsys, monkeypatch):
        self._refuse_calls(monkeypatch, "generate_ray_arrays", "splitmix64_stream",
                           "render_full")
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc(n_coarse=10**9)))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "domain" and err["type"] == "RadiantError"
        assert str(scene) in err["message"] and "n_coarse" in err["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]

    @pytest.mark.parametrize("n_coarse,n_fine,largest", [
        (16, 4, 64 * 3 * 20 * 3 * 8),  # the (64, 60, 3) float64 layout colors
    ], ids=["layout"])
    def test_render_budget_edge(self, tmp_path, monkeypatch, n_coarse, n_fine, largest):
        import radiant.cli

        scene = tmp_path / "scene.json"  # 8x8 pixels
        scene.write_text(json.dumps(scene_doc(n_coarse=n_coarse, n_fine=n_fine)))
        monkeypatch.setattr(radiant.cli, "MAX_PACKET_BYTES", largest)
        assert run("render", "--scene", scene, "--out", tmp_path / "a") == 0
        monkeypatch.setattr(radiant.cli, "MAX_PACKET_BYTES", largest - 1)
        assert run("render", "--scene", scene, "--out", tmp_path / "b") == 3

    def test_render_pixel_budget(self, tmp_path, capsys, monkeypatch):
        self._refuse_calls(monkeypatch, "generate_ray_arrays", "splitmix64_stream",
                           "render_full")
        doc = scene_doc()
        huge = json.loads(json.dumps(doc["cameras"][0]))
        huge["intrinsics"].update(width=100000, height=100000)
        doc["cameras"].append(huge)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "domain" and err["type"] == "RadiantError"
        assert str(scene) in err["message"] and "cameras[1]" in err["message"]
        assert "100000x100000" in err["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]

    def test_render_pixel_budget_edge(self, tmp_path, monkeypatch):
        import radiant.cli

        scene = tmp_path / "scene.json"  # 8x8 pixels
        scene.write_text(json.dumps(scene_doc()))
        monkeypatch.setattr(radiant.cli, "MAX_IMAGE_PIXELS", 64)
        assert run("render", "--scene", scene, "--out", tmp_path / "a") == 0
        monkeypatch.setattr(radiant.cli, "MAX_IMAGE_PIXELS", 63)
        assert run("render", "--scene", scene, "--out", tmp_path / "b") == 3
        assert not (tmp_path / "b_000.ppm").exists()

    def test_voxelize_grid_budget(self, tmp_path, capsys, monkeypatch):
        self._refuse_calls(monkeypatch, "sample_grid")
        out = tmp_path / "g.nfvg"
        assert run("voxelize", "--field", "gaussian", "--dims", "100000", "--out", out) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "domain" and err["type"] == "RadiantError"
        assert "--dims 100000" in err["message"]
        assert not out.exists()

    def test_voxelize_budget_edge(self, tmp_path, monkeypatch):
        import radiant.cli

        monkeypatch.setattr(radiant.cli, "MAX_GRID_VALUES", 4 * 4 * 5 * 4)
        assert run("voxelize", "--field", "gaussian", "--dims", "4,4,5",
                   "--out", tmp_path / "a.nfvg") == 0
        assert run("voxelize", "--field", "gaussian", "--dims", "4,5,5",
                   "--out", tmp_path / "b.nfvg") == 3

    def test_semmap_map_budget(self, tmp_path, capsys, monkeypatch):
        self._refuse_calls(monkeypatch, "build_semantic_map")
        argv = TestNonFiniteFlags.semmap_inputs(tmp_path, np.full((4, 4), 2.0))
        out = tmp_path / "map.nfvg"
        assert run(*argv, "--half-extent", "100000", "--classes", "1000", "--out", out) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "domain" and err["type"] == "RadiantError"
        assert "--half-extent 100000" in err["message"] and "--classes 1000" in err["message"]
        assert not out.exists()

    def test_semmap_budget_edge(self, tmp_path, monkeypatch):
        import radiant.cli

        argv = TestNonFiniteFlags.semmap_inputs(tmp_path, np.full((4, 4), 2.0))
        monkeypatch.setattr(radiant.cli, "MAX_GRID_VALUES", 80 * 80 * 2)
        assert run(*argv, "--classes", "2", "--out", tmp_path / "a.nfvg") == 0
        assert run(*argv, "--classes", "3", "--out", tmp_path / "b.nfvg") == 3


class TestPeakMemory:
    """Peak RSS of a command at a budget's edge, read by the child process
    that runs it, against a stated ceiling."""

    # 203^3 voxels is the largest cube under MAX_GRID_VALUES: 268 MB of
    # float64 output. The command reads ~290 MB; it read 569 MB while it
    # built every voxel center up front, kept an (N, 4) accumulator and
    # wrote the NFVG payload from two whole copies
    VOXELIZE_CEILING_MB = 400
    # the sphere at LoD 10 evaluates 3.3M cells and writes 1.6M samples: the
    # command reads ~210 MB; it read 250-270 MB while write_ply made a float64
    # (N, 6) copy of the samples, and 563 MB while the octree held whole
    # levels and projected them in one piece
    EXTRACT_CEILING_MB = 400
    # one 256-ray packet at the sample edge (n_coarse + n_fine = 3640) over a
    # 64^3 grid near field: the command reads ~530 MB
    RENDER_CEILING_MB = 600
    # two 3,000-point paths: the command reads ~37 MB; it read ~239 MB while
    # dtw_distance held three (n + 1) x (m + 1) float64 tables
    EVAL_NAV_CEILING_MB = 100
    # a 128^3 x 4 grid (32 MB of f32, 64 MB as float64): the command reads
    # ~160 MB, the grid and its masked copy; it read ~218 MB while read_nfvg
    # held the whole file beside the grid and apply_mask zeroed a copy
    # through a voxel-level boolean mask
    MASK_CEILING_MB = 190

    @staticmethod
    def _peak_mb(*argv):
        """Peak RSS in MB of `radiant *argv` run in a child process, which must
        exit 0. The child reads its own VmHWM: ru_maxrss keeps the peak of
        the process that spawned it (Linux carries it across exec), and so
        reads at least the test process's own peak."""
        script = ("import sys\n"
                  "from radiant.cli import dispatch\n"
                  "code = dispatch(sys.argv[1:])\n"
                  "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
                  "print(code, hwm[0].split()[1])\n")
        proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                              env=child_env(), capture_output=True, text=True, timeout=300)
        code, peak_kb = proc.stdout.split()[-2:]
        assert code == "0", proc.stderr
        return int(peak_kb) / 1024

    def test_voxelize_at_the_grid_budget(self, tmp_path):
        assert 203**3 * 4 <= MAX_GRID_VALUES < 204**3 * 4
        out = tmp_path / "g.nfvg"
        peak = self._peak_mb("voxelize", "--field", "gaussian", "--dims", "203", "--out", out)
        assert out.stat().st_size == 24 + 48 + 203**3 * 4 * 4
        assert peak < self.VOXELIZE_CEILING_MB

    def test_extract_surface_sphere_lod10(self, tmp_path):
        out = tmp_path / "pts.ply"
        peak = self._peak_mb("extract-surface", "--shape", "sphere", "--lod-end", "10",
                             "--out", out)
        stats = json.loads((tmp_path / "pts.ply.stats.json").read_text())
        assert stats["evals_per_level"]["10"] == 3293056
        assert stats["surface_points"] == 1646312
        assert peak < self.EXTRACT_CEILING_MB

    def test_render_grid_field_at_the_packet_edge(self, tmp_path):
        assert run("voxelize", "--field", "gaussian", "--dims", "64",
                   "--out", tmp_path / "g.nfvg") == 0
        doc = scene_doc(near_field={"type": "grid", "path": "g.nfvg"},
                        n_coarse=1820, n_fine=1820)
        doc["cameras"][0]["intrinsics"].update(cx=7.5, cy=7.5, width=16, height=16)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        peak = self._peak_mb("render", "--scene", scene, "--out", tmp_path / "img")
        assert (tmp_path / "img_000.ppm").stat().st_size == len(b"P6\n16 16\n255\n") + 16 * 16 * 3
        assert peak < self.RENDER_CEILING_MB

    def test_mask_bounded(self, tmp_path):
        n = 128
        grid = tmp_path / "g.nfvg"
        with open(grid, "wb") as fh:
            fh.write(struct.pack("<4sIIIII", b"NFVG", 1, n, n, n, 4))
            fh.write(np.array([-1, -1, -1, 1, 1, 1], "<f8").tobytes())
            rng = np.random.default_rng(0)
            for _ in range(n):
                fh.write(rng.uniform(0, 1, (n, n, 4)).astype("<f4").tobytes())
        out = tmp_path / "m.nfvg"
        peak = self._peak_mb("mask", "--grid", grid, "--ratio", "0.5", "--patch", "4",
                             "--out", out, "--mask-out", tmp_path / "m.json")
        assert out.stat().st_size == grid.stat().st_size
        doc = json.loads((tmp_path / "m.json").read_text())
        assert len(doc["masked_indices"]) == (n // 4) ** 3 // 2
        assert peak < self.MASK_CEILING_MB

    def test_eval_nav_long_paths(self, tmp_path):
        rng = np.random.default_rng(3)
        reference = np.linspace(0.0, 1.0, 3000)[:, None] * [30.0, 20.0, 0.0]
        positions = reference + rng.normal(0, 0.3, reference.shape)
        traj = tmp_path / "t.json"
        traj.write_text(json.dumps({"trajectory": {
            "positions": positions.tolist(), "reference": reference.tolist(),
            "goal": reference[-1].tolist()}}))
        out = tmp_path / "nav.json"
        peak = self._peak_mb("eval-nav", "--trajectory", traj, "--out", out)
        assert 0.0 < json.loads(out.read_text())["nDTW"] < 1.0
        assert peak < self.EVAL_NAV_CEILING_MB


class TestExtractSurface:
    def test_writes_ply_and_stats(self, tmp_path):
        out = tmp_path / "pts.ply"
        assert run("extract-surface", "--shape", "sphere", "--lod-end", "5",
                   "--out", out) == 0
        samples = io.read_ply(out)
        pos = samples.positions
        assert np.abs(np.linalg.norm(pos, axis=1) - 0.5).max() < 2e-3
        stats = json.loads((tmp_path / "pts.ply.stats.json").read_text())
        assert stats["total_sdf_evals"] == sum(stats["evals_per_level"].values())
        assert not stats["no_surface"]
        assert set(stats) == {"version", "evals_per_level", "total_sdf_evals",
                              "projection_evals", "surface_points", "wall_time",
                              "no_surface", "dropped_points"}
        # one projection step (six gradient taps: its value is the traversal's)
        # plus the final normal (six taps), 6 + 6 = 12 evals a point
        assert stats["projection_evals"] == 12 * stats["surface_points"]

    # the PLY of `extract-surface --shape union --lod-end 7`, pinned by hash
    # (its stats sidecar holds a wall time): a change to traversal,
    # projection or the PLY text shows up here
    UNION_LOD7_PLY_SHA256 = "1a17e03663edb2f6a7fd929a8c2f378bc85bfc71812b98eab31857c5f383f249"

    def test_union_ply_matches_pinned_hash(self, tmp_path):
        out = tmp_path / "union.ply"
        assert run("extract-surface", "--shape", "union", "--lod-end", "7", "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.UNION_LOD7_PLY_SHA256

    def test_level_budget_exits_3_without_output(self, tmp_path, capsys, monkeypatch):
        import radiant.octree

        monkeypatch.setattr(radiant.octree, "MAX_LEVEL_CELLS", 4000)
        out = tmp_path / "pts.ply"
        assert run("extract-surface", "--shape", "sphere", "--lod-end", "6",
                   "--out", out) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "domain" and err["type"] == "RadiantError"
        assert "LoD 6" in err["message"] and "4000" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_shape_json_file(self, tmp_path):
        shape = tmp_path / "shape.json"
        shape.write_text(json.dumps({"type": "box", "half_extents": [0.3, 0.3, 0.3]}))
        assert run("extract-surface", "--shape", shape, "--lod-end", "4",
                   "--out", tmp_path / "b.ply") == 0

    @pytest.mark.parametrize("doc,names", [
        ({"type": "sphere"}, "'radius'"),
        ({"type": "union", "shapes": [{"type": "sphere", "radius": 0.3}, {"type": "box"}]},
         "shapes[1] is missing key 'half_extents'"),
        ({"type": "union", "shapes": {"type": "box"}}, "'shapes'"),
        ([{"type": "sphere", "radius": 0.5}], "is a list"),
        ({"type": "sphere", "radius": "0.5"}, "bad 'radius'"),
        ({"type": "sphere", "radius": True}, "bad 'radius'"),
        ({"type": "union", "shapes": [{"type": "cone"}]}, "shapes[0]: bad 'type'"),
        ('{"type": "sphere", "radius": 0.5', "Expecting"),
        ({"type": "sphere", "radius": 0.5, "version": True}, "bad 'version'"),
    ], ids=["no-radius", "union-box-no-half-extents", "shapes-not-a-list", "top-level-list",
            "radius-string", "radius-bool", "unknown-type", "json-syntax", "version-bool"])
    def test_bad_shape_file_is_format_error(self, tmp_path, capsys, doc, names):
        shape = tmp_path / "shape.json"
        shape.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert run("extract-surface", "--shape", shape, "--lod-end", "4",
                   "--out", tmp_path / "b.ply") == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "FileFormatError"
        assert str(shape) in err["message"] and names in err["message"]
        assert not (tmp_path / "b.ply").exists()

    def test_missing_stats_dir_exits_2_before_writing(self, tmp_path):
        out = tmp_path / "pts.ply"
        assert run("extract-surface", "--shape", "sphere", "--lod-end", "4", "--out", out,
                   "--stats", tmp_path / "missing" / "s.json") == 2
        assert list(tmp_path.iterdir()) == []


class TestMask:
    def test_mask_schema_and_determinism(self, tmp_path):
        grid_path = tmp_path / "g.nfvg"
        run("voxelize", "--field", "sphere", "--dims", "8", "--out", grid_path)
        args = ("mask", "--grid", grid_path, "--ratio", "0.75", "--patch", "4",
                "--seed", "7")
        assert run(*args, "--out", tmp_path / "m1.nfvg",
                   "--mask-out", tmp_path / "m1.json") == 0
        assert run(*args, "--out", tmp_path / "m2.nfvg",
                   "--mask-out", tmp_path / "m2.json") == 0
        assert (tmp_path / "m1.nfvg").read_bytes() == (tmp_path / "m2.nfvg").read_bytes()
        doc = json.loads((tmp_path / "m1.json").read_text())
        assert doc["p"] == 4 and doc["dims"] == [8, 8, 8]
        assert doc["seed"] == 7 and doc["ratio"] == 0.75
        assert len(doc["masked_indices"]) == round(0.75 * 8)

    def test_negative_seed_wraps_mod_2_64(self, tmp_path):
        grid_path = tmp_path / "g.nfvg"
        run("voxelize", "--field", "sphere", "--dims", "8", "--out", grid_path)
        for name, seed in (("neg", "-1"), ("max", str(2**64 - 1))):
            assert run("mask", "--grid", grid_path, "--ratio", "0.5", "--patch", "2",
                       "--seed", seed, "--out", tmp_path / f"{name}.nfvg",
                       "--mask-out", tmp_path / f"{name}.json") == 0
        assert (tmp_path / "neg.nfvg").read_bytes() == (tmp_path / "max.nfvg").read_bytes()
        neg, top = (json.loads((tmp_path / f"{n}.json").read_text()) for n in ("neg", "max"))
        assert neg["masked_indices"] == top["masked_indices"]


class TestSameFileOutputs:
    """Two output flags of one command that name the same file exit 2,
    naming both flags, before anything is written, with or without --force."""

    @staticmethod
    def _argv(tmp_path, command, first, second):
        if command == "extract-surface":
            return ("extract-surface", "--shape", "sphere", "--lod-end", "4",
                    "--out", first, "--stats", second)
        run("voxelize", "--field", "sphere", "--dims", "4", "--out", tmp_path / "g.nfvg")
        return ("mask", "--grid", tmp_path / "g.nfvg", "--out", first, "--mask-out", second)

    FLAGS = {"extract-surface": "--out and --stats", "mask": "--out and --mask-out"}

    @pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
    @pytest.mark.parametrize("command", list(FLAGS))
    def test_refused_before_writing(self, tmp_path, capsys, command, force):
        out = tmp_path / "a.out"
        if force:
            out.write_text("kept")
        # a second spelling of the same path
        argv = self._argv(tmp_path, command, out, tmp_path / "sub" / ".." / "a.out")
        (tmp_path / "sub").mkdir()
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run(*argv, *(["--force"] if force else [])) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "io" and err["type"] == "OSError"
        assert f"{self.FLAGS[command]} name the same file" in err["message"]
        assert sorted(tmp_path.iterdir()) == before
        assert not force or out.read_text() == "kept"


class TestMalformedJson:
    def test_top_level_list_is_format_error(self, tmp_path, capsys):
        (tmp_path / "t.json").write_text("[1, 2, 3]")
        assert run("eval-nav", "--trajectory", tmp_path / "t.json",
                   "--out", tmp_path / "nav.json") == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "FileFormatError" and "t.json" in err["message"]

    @pytest.mark.parametrize("drop", ["intrinsics", "pose", "fx"])
    def test_render_camera_missing_key(self, tmp_path, capsys, drop):
        doc = scene_doc()
        cam = doc["cameras"][0]
        cam.pop(drop, None)
        cam.get("intrinsics", {}).pop(drop, None)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "FileFormatError"
        assert str(scene) in err["message"] and repr(drop) in err["message"]
        assert not (tmp_path / "img_000.ppm").exists()

    def test_render_camera_not_an_object(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc(cameras=[5])))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "FileFormatError" and "cameras[0]" in err["message"]

    @pytest.mark.parametrize("overrides,names", [
        ({"near_field": [1, 2]}, "near_field must be an object"),
        ({"far_field": {"type": "grid"}}, "far_field is missing key 'path'"),
        ({"cameras": {"a": 1}}, "bad 'cameras'"),
        ({"boxes": {"center": [0, 0, 0]}}, "bad 'boxes'"),
        ({"n_coarse": "x"}, "bad 'n_coarse'"),
        ({"far": [3.0]}, "bad 'far'"),
        ({"far_field": {"type": "constant", "sigma": "4"}}, "far_field: bad 'sigma'"),
        ({"object_field": {"type": "cone"}}, "object_field: bad 'type'"),
    ], ids=["near-field-list", "grid-no-path", "cameras-object", "boxes-object",
            "n-coarse-string", "far-list", "far-field-sigma-string", "unknown-field-type"])
    def test_render_bad_scene_part(self, tmp_path, capsys, overrides, names):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc(**overrides)))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "FileFormatError"
        assert str(scene) in err["message"] and names in err["message"]
        assert not (tmp_path / "img_000.ppm").exists()

    @pytest.mark.parametrize("doc,names", [
        ({"type": "grid"}, "'path'"),
        ([{"type": "constant"}], "is a list"),
        ({"type": "ball", "sigma": "40"}, "bad 'sigma'"),
        ({"type": "ball", "color": [1, "0.6", True]}, "bad 'color'"),
        ({"type": "ball", "radius": True}, "bad 'radius'"),
        ({"type": "cone"}, "bad 'type'"),
        ({"type": "grid", "path": ["g.nfvg"]}, "bad 'path'"),
        ({"type": None}, "bad 'type'"),
    ], ids=["grid-no-path", "top-level-list", "sigma-string", "color-string-and-bool",
            "radius-bool", "unknown-type", "path-list", "type-null"])
    def test_voxelize_bad_field_file(self, tmp_path, capsys, doc, names):
        field = tmp_path / "field.json"
        field.write_text(json.dumps(doc))
        assert run("voxelize", "--field", field, "--dims", "4",
                   "--out", tmp_path / "g.nfvg") == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "FileFormatError"
        assert str(field) in err["message"] and names in err["message"]
        assert not (tmp_path / "g.nfvg").exists()

    @pytest.mark.parametrize("drop", ["fx", "height"])
    def test_semmap_intrinsics_missing_key(self, tmp_path, capsys, drop):
        k = {"fx": 10, "fy": 10, "cx": 2, "cy": 2, "width": 4, "height": 4}
        del k[drop]
        (tmp_path / "k.json").write_text(json.dumps(k))
        (tmp_path / "pose.json").write_text(json.dumps(
            {"rotation": EYE, "translation": [0, 0, 0]}))
        np.save(tmp_path / "d.npy", np.ones((4, 4)))
        np.save(tmp_path / "s.npy", np.zeros((4, 4), dtype=np.int64))
        assert run("semmap", "--depth", tmp_path / "d.npy", "--semantics",
                   tmp_path / "s.npy", "--intrinsics", tmp_path / "k.json",
                   "--pose", tmp_path / "pose.json", "--out", tmp_path / "m.nfvg") == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "FileFormatError"
        assert "k.json" in err["message"] and repr(drop) in err["message"]


NAN_ROTATION = [1, 0, 0, 0, float("nan"), 0, 0, 0, 1]


class TestNanRotation:
    """A rotation with a NaN entry is refused (exit 3) wherever a pose is read."""

    def assert_domain_error(self, capsys):
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "domain" and "non-finite" in err["message"]

    def test_eval_pose_prediction(self, tmp_path, capsys):
        gt = {"poses": [{"rotation": EYE, "translation": [0, 0, 0], "class": "cup"}]}
        pred = {"poses": [dict(gt["poses"][0], rotation=NAN_ROTATION, score=0.9)]}
        (tmp_path / "gt.json").write_text(json.dumps(gt))
        (tmp_path / "pred.json").write_text(json.dumps(pred))
        assert "NaN" in (tmp_path / "pred.json").read_text()
        assert run("eval-pose", "--pred", tmp_path / "pred.json",
                   "--gt", tmp_path / "gt.json", "--out", tmp_path / "r.json") == 3
        self.assert_domain_error(capsys)
        assert not (tmp_path / "r.json").exists()

    def test_scene_camera_pose(self, tmp_path, capsys):
        doc = scene_doc()
        doc["cameras"][0]["pose"]["rotation"] = NAN_ROTATION
        (tmp_path / "scene.json").write_text(json.dumps(doc))
        assert run("render", "--scene", tmp_path / "scene.json",
                   "--out", tmp_path / "img") == 3
        self.assert_domain_error(capsys)


class TestEvalCommands:
    def test_eval_detect(self, tmp_path):
        boxes = [{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0.0,
                  "class": "chair"}]
        preds = [dict(boxes[0], score=0.9)]
        (tmp_path / "gt.json").write_text(json.dumps({"boxes": boxes}))
        (tmp_path / "pred.json").write_text(json.dumps({"boxes": preds}))
        out = tmp_path / "report.json"
        assert run("eval-detect", "--pred", tmp_path / "pred.json",
                   "--gt", tmp_path / "gt.json",
                   "--iou-thresholds", "0.25,0.5", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["0.25"]["ap"] == 1.0
        assert doc["results"]["0.5"]["per_class"]["chair"]["ap"] == 1.0

    def test_eval_pose(self, tmp_path):
        eye = [1, 0, 0, 0, 1, 0, 0, 0, 1]
        gt = {"poses": [{"rotation": eye, "translation": [0, 0, 0],
                         "scale": 1.0, "class": "bottle"}]}
        pred = {"poses": [dict(gt["poses"][0], score=0.9)]}
        (tmp_path / "gt.json").write_text(json.dumps(gt))
        (tmp_path / "pred.json").write_text(json.dumps(pred))
        out = tmp_path / "report.json"
        assert run("eval-pose", "--pred", tmp_path / "pred.json",
                   "--gt", tmp_path / "gt.json", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["5deg5cm"]["ap"] == 1.0

    def test_eval_voxels(self, tmp_path):
        from radiant.core_math import Aabb
        from radiant.grids import VoxelGrid4D

        labels = np.random.default_rng(0).integers(0, 3, size=(4, 4, 4))
        grid = VoxelGrid4D(labels[..., None].astype(float),
                           Aabb([0, 0, 0], [1, 1, 1]))
        io.write_nfvg(tmp_path / "labels.nfvg", grid)
        doc = {"labels_file": "labels.nfvg", "n_classes": 3}
        (tmp_path / "pred.json").write_text(json.dumps(doc))
        (tmp_path / "gt.json").write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run("eval-voxels", "--pred", tmp_path / "pred.json",
                   "--gt", tmp_path / "gt.json", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["mIoU"] == report["mAcc"] == report["Acc"] == 1.0

    def test_eval_voxels_counts_present_classes_only(self, tmp_path):
        # ten million classes used to allocate a 10^14-entry confusion matrix
        reports = []
        for n_classes in (3, 10**7):
            base = tmp_path / str(n_classes)
            base.mkdir()
            argv = _label_docs(base, 2.0, n_classes)
            assert run(*argv) == 0
            reports.append(json.loads(argv[-1].read_text()))
        assert reports[0] == reports[1]
        # class 0 only is present: 7 of its 8 voxels predicted, none predicted wrongly as 0
        assert reports[0]["mIoU"] == reports[0]["mAcc"] == reports[0]["Acc"] == 7 / 8

    def test_eval_nav(self, tmp_path):
        traj = {"trajectory": {
            "positions": [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
            "reference": [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
            "goal": [2, 0, 0],
        }}
        (tmp_path / "t.json").write_text(json.dumps(traj))
        out = tmp_path / "report.json"
        assert run("eval-nav", "--trajectory", tmp_path / "t.json",
                   "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["SR"] == 1.0 and doc["SPL"] == 1.0 and doc["nDTW"] == 1.0


EYE = [1, 0, 0, 0, 1, 0, 0, 0, 1]
BOX = {"center": [0, 0, 0], "size": [1, 1, 1], "class": "chair"}
POSE = {"rotation": EYE, "translation": [0, 0, 0], "class": "cup"}
TRAJ = {"positions": [[0, 0, 0], [1, 0, 0]], "reference": [[0, 0, 0], [1, 0, 0]],
        "goal": [1, 0, 0]}


def without(d, key):
    return {k: v for k, v in d.items() if k != key}


def assert_format_error(capsys, path, key):
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["type"] == "FileFormatError"
    assert str(path) in err["message"] and repr(key) in err["message"]
    return err["message"]


class TestEvalInputErrors:
    """Malformed eval inputs exit 3 with a FileFormatError naming the file
    and the key, before any output is written."""

    def run_eval(self, tmp_path, command, pred_doc, gt_doc=None):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(pred_doc))
        out = tmp_path / "report.json"
        if command == "eval-nav":
            code = run(command, "--trajectory", pred, "--out", out)
        else:
            gt = tmp_path / "gt.json"
            gt.write_text(json.dumps(gt_doc))
            code = run(command, "--pred", pred, "--gt", gt, "--out", out)
        assert not out.exists()
        return code

    @pytest.mark.parametrize("key", ["center", "size", "score"])
    def test_detect_box_missing_key(self, tmp_path, capsys, key):
        pred = {"boxes": [dict(BOX, score=0.9), without(dict(BOX, score=0.9), key)]}
        assert self.run_eval(tmp_path, "eval-detect", pred, {"boxes": [BOX]}) == 3
        assert "boxes[1]" in assert_format_error(capsys, tmp_path / "pred.json", key)

    @pytest.mark.parametrize("key", ["center", "size"])
    def test_detect_gt_box_missing_key(self, tmp_path, capsys, key):
        pred = {"boxes": [dict(BOX, score=0.9)]}
        assert self.run_eval(tmp_path, "eval-detect", pred, {"boxes": [without(BOX, key)]}) == 3
        assert_format_error(capsys, tmp_path / "gt.json", key)

    def test_detect_missing_boxes_and_bad_score(self, tmp_path, capsys):
        assert self.run_eval(tmp_path, "eval-detect", {"x": 1}, {"boxes": [BOX]}) == 3
        assert_format_error(capsys, tmp_path / "pred.json", "boxes")
        pred = {"boxes": [dict(BOX, score=None)]}
        assert self.run_eval(tmp_path, "eval-detect", pred, {"boxes": [BOX]}) == 3
        assert_format_error(capsys, tmp_path / "pred.json", "score")

    def test_detect_json_syntax_error(self, tmp_path, capsys):
        pred, gt, out = tmp_path / "pred.json", tmp_path / "gt.json", tmp_path / "r.json"
        pred.write_text('{"boxes": [')
        gt.write_text(json.dumps({"boxes": [BOX]}))
        assert run("eval-detect", "--pred", pred, "--gt", gt, "--out", out) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "FileFormatError" and str(pred) in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("key", ["rotation", "translation", "score"])
    def test_pose_record_missing_key(self, tmp_path, capsys, key):
        pred = {"poses": [without(dict(POSE, score=0.9), key)]}
        assert self.run_eval(tmp_path, "eval-pose", pred, {"poses": [POSE]}) == 3
        msg = assert_format_error(capsys, tmp_path / "pred.json", key)
        assert "poses[0]" in msg

    def test_pose_missing_poses(self, tmp_path, capsys):
        pred = {"poses": [dict(POSE, score=0.9)]}
        assert self.run_eval(tmp_path, "eval-pose", pred, {"boxes": []}) == 3
        assert_format_error(capsys, tmp_path / "gt.json", "poses")

    @pytest.mark.parametrize("key,value", [
        ("center", ["0.1", 0, 0]), ("size", [1, 1, True]), ("yaw", False), ("score", True),
        ("score", "0.9"), ("center", [0, None, 0]), ("size", [1, 1, 10**400]),
    ])
    def test_detect_box_field_not_a_number(self, tmp_path, capsys, key, value):
        # float() takes these (a bool as 0 or 1); a JSON number is required
        pred = {"boxes": [dict(BOX, score=0.9), {**BOX, "score": 0.5, key: value}]}
        assert self.run_eval(tmp_path, "eval-detect", pred, {"boxes": [BOX]}) == 3
        assert "boxes[1]" in assert_format_error(capsys, tmp_path / "pred.json", key)

    @pytest.mark.parametrize("key,value", [
        ("rotation", ["1", 0, 0, 0, 1, 0, 0, 0, 1]), ("rotation", [1, 0, 0, 0, 1, 0, 0, 0, True]),
        ("rotation", [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]), ("translation", [0, "0", 0]),
        ("scale", True), ("scale", "1"),
    ])
    def test_pose_record_field_not_a_number(self, tmp_path, capsys, key, value):
        gt = {"poses": [POSE, {**POSE, key: value}]}
        assert self.run_eval(tmp_path, "eval-pose", {"poses": [dict(POSE, score=0.9)]}, gt) == 3
        assert "poses[1]" in assert_format_error(capsys, tmp_path / "gt.json", key)

    @pytest.mark.parametrize("command,key,value,reason", [
        ("eval-detect", "size", [1, 1, -1], "box size must be positive"),
        ("eval-detect", "center", [0, 0], "expected a 3-vector, got shape (2,)"),
        ("eval-pose", "rotation", [1, 0, 0, 0, 1, 0, 0, 0, 2],
         "matrix columns are not orthonormal"),
        ("eval-pose", "scale", 0, "scale must be positive"),
    ], ids=["size", "center", "rotation", "scale"])
    def test_record_rule_names_entry(self, tmp_path, capsys, command, key, value, reason):
        # the record rules run in the readers, not after them in a bare ValueError
        name, record = ("boxes", BOX) if command == "eval-detect" else ("poses", POSE)
        pred = {name: [{**record, "score": 0.9, key: value}]}
        assert self.run_eval(tmp_path, command, pred, {name: [record]}) == 3
        msg = assert_format_error(capsys, tmp_path / "pred.json", key)
        assert msg == f"{tmp_path / 'pred.json'}: {name}[0]: bad {key!r}: {reason}"

    def test_render_box_size_names_entry(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc(boxes=[{"center": [0, 0, 0.5], "size": [1, 0, 1]}])))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        msg = assert_format_error(capsys, scene, "size")
        assert msg == f"{scene}: boxes[0]: bad 'size': box size must be positive"
        assert not (tmp_path / "img_000.ppm").exists()

    @pytest.mark.parametrize("key,value", [
        ("positions", [[0, 0, 0], [1, False, 0]]), ("goal", ["1", 0, 0]),
        ("success_threshold", True),
    ])
    def test_trajectory_field_not_a_number(self, tmp_path, capsys, key, value):
        assert self.run_eval(tmp_path, "eval-nav", {"trajectory": {**TRAJ, key: value}}) == 3
        assert_format_error(capsys, tmp_path / "pred.json", key)

    @pytest.mark.parametrize("key,value,rule", [
        ("success_threshold", 0, "finite and positive"),
        ("success_threshold", -2.0, "finite and positive"),
        ("positions", [[0, 0], [1, 0]], "(N, 3)"), ("reference", [[0, 0, 0, 0]], "(N, 3)"),
        ("positions", [], "nonempty"), ("reference", [[]], "nonempty"),
        ("goal", [1, 0], "3-vector"),
    ])
    def test_trajectory_rules(self, tmp_path, capsys, key, value, rule):
        assert self.run_eval(tmp_path, "eval-nav", {"trajectory": {**TRAJ, key: value}}) == 3
        assert rule in assert_format_error(capsys, tmp_path / "pred.json", key)

    @pytest.mark.parametrize("key", ["positions", "reference", "goal"])
    def test_trajectory_missing_key(self, tmp_path, capsys, key):
        assert self.run_eval(tmp_path, "eval-nav", {"trajectory": without(TRAJ, key)}) == 3
        assert_format_error(capsys, tmp_path / "pred.json", key)

    def test_missing_trajectory(self, tmp_path, capsys):
        assert self.run_eval(tmp_path, "eval-nav", {"positions": []}) == 3
        assert_format_error(capsys, tmp_path / "pred.json", "trajectory")

    @pytest.mark.parametrize("key", ["labels_file", "n_classes"])
    def test_voxels_missing_key(self, tmp_path, capsys, key):
        doc = without({"labels_file": "labels.nfvg", "n_classes": 3}, key)
        assert self.run_eval(tmp_path, "eval-voxels", doc, doc) == 3
        assert_format_error(capsys, tmp_path / "pred.json", key)

    @pytest.mark.parametrize("value", [None, 5, ["None"]])
    def test_class_not_a_string(self, tmp_path, capsys, value):
        # str() would read null as the label "None" and match a "None" box
        pred = {"boxes": [{**BOX, "score": 0.9, "class": value}]}
        assert self.run_eval(tmp_path, "eval-detect", pred, {"boxes": [{**BOX, "class": "None"}]}) == 3
        assert "boxes[0]" in assert_format_error(capsys, tmp_path / "pred.json", "class")
        gt = {"poses": [{**POSE, "class": value}]}
        assert self.run_eval(tmp_path, "eval-pose", {"poses": [dict(POSE, score=0.9)]}, gt) == 3
        assert "poses[0]" in assert_format_error(capsys, tmp_path / "gt.json", "class")

    @pytest.mark.parametrize("value", [["x"], 3, None])
    def test_voxels_labels_file_not_a_string(self, tmp_path, capsys, value):
        doc = {"labels_file": value, "n_classes": 3}
        assert self.run_eval(tmp_path, "eval-voxels", doc, doc) == 3
        assert_format_error(capsys, tmp_path / "pred.json", "labels_file")


class TestStrictIntegers:
    """Integer keys refuse bools, fractions and non-finite numbers (exit 3
    naming the file and the key) instead of truncating them."""

    @pytest.mark.parametrize("key,value", [
        ("n_coarse", 2.9), ("n_coarse", True), ("n_fine", 1.5), ("n_fine", float("inf")),
        ("n_coarse", float("nan")), ("n_coarse", "16"), ("version", True), ("version", 1.5),
    ])
    def test_render_sample_counts(self, tmp_path, capsys, key, value):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc(**{key: value})))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        assert_format_error(capsys, scene, key)
        assert not (tmp_path / "img_000.ppm").exists()

    @pytest.mark.parametrize("key,value", [("width", 8.7), ("height", True), ("width", -0.5)])
    def test_render_intrinsics(self, tmp_path, capsys, key, value):
        doc = scene_doc()
        doc["cameras"][0]["intrinsics"][key] = value
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        assert "cameras[0]: intrinsics" in assert_format_error(capsys, scene, key)
        assert not (tmp_path / "img_000.ppm").exists()

    def test_integral_float_is_accepted(self, tmp_path):
        doc = scene_doc(n_coarse=16.0, version=1.0)
        doc["cameras"][0]["intrinsics"]["width"] = 8.0
        (tmp_path / "a.json").write_text(json.dumps(doc))
        (tmp_path / "b.json").write_text(json.dumps(scene_doc()))
        assert run("render", "--scene", tmp_path / "a.json", "--out", tmp_path / "a") == 0
        assert run("render", "--scene", tmp_path / "b.json", "--out", tmp_path / "b") == 0
        assert (tmp_path / "a_000.ppm").read_bytes() == (tmp_path / "b_000.ppm").read_bytes()

    def test_semmap_intrinsics(self, tmp_path, capsys):
        (tmp_path / "k.json").write_text(json.dumps(
            {"fx": 10, "fy": 10, "cx": 2, "cy": 2, "width": 4.5, "height": 4}))
        (tmp_path / "pose.json").write_text(json.dumps({"rotation": EYE, "translation": [0, 0, 0]}))
        np.save(tmp_path / "d.npy", np.ones((4, 4)))
        np.save(tmp_path / "s.npy", np.zeros((4, 4), dtype=np.int64))
        assert run("semmap", "--depth", tmp_path / "d.npy", "--semantics",
                   tmp_path / "s.npy", "--intrinsics", tmp_path / "k.json",
                   "--pose", tmp_path / "pose.json", "--out", tmp_path / "m.nfvg") == 3
        assert_format_error(capsys, tmp_path / "k.json", "width")

    @pytest.mark.parametrize("value", [3.5, True, float("inf")])
    def test_voxels_n_classes(self, tmp_path, capsys, value):
        doc = {"labels_file": "labels.nfvg", "n_classes": value}
        (tmp_path / "pred.json").write_text(json.dumps(doc))
        (tmp_path / "gt.json").write_text(json.dumps(doc))
        assert run("eval-voxels", "--pred", tmp_path / "pred.json", "--gt", tmp_path / "gt.json",
                   "--out", tmp_path / "report.json") == 3
        assert_format_error(capsys, tmp_path / "pred.json", "n_classes")
        assert not (tmp_path / "report.json").exists()


NAN, INF = float("nan"), float("inf")


class TestFiniteBoxes:
    """NaN and Infinity in a box's center, size, yaw or score exit 3 naming
    the file, the box and the key."""

    CASES = [("center", [0, NAN, 0]), ("size", [1, INF, 1]), ("yaw", NAN), ("yaw", -INF)]

    @pytest.mark.parametrize("key,value", CASES + [("score", NAN)])
    def test_eval_detect_prediction(self, tmp_path, capsys, key, value):
        pred = {"boxes": [dict(BOX, score=0.9), {**BOX, "score": 0.5, key: value}]}
        (tmp_path / "pred.json").write_text(json.dumps(pred))
        (tmp_path / "gt.json").write_text(json.dumps({"boxes": [BOX]}))
        assert run("eval-detect", "--pred", tmp_path / "pred.json", "--gt", tmp_path / "gt.json",
                   "--out", tmp_path / "report.json") == 3
        assert "boxes[1]" in assert_format_error(capsys, tmp_path / "pred.json", key)
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key,value", CASES)
    def test_eval_detect_ground_truth(self, tmp_path, capsys, key, value):
        (tmp_path / "pred.json").write_text(json.dumps({"boxes": [dict(BOX, score=0.9)]}))
        (tmp_path / "gt.json").write_text(json.dumps({"boxes": [dict(BOX, **{key: value})]}))
        assert run("eval-detect", "--pred", tmp_path / "pred.json", "--gt", tmp_path / "gt.json",
                   "--out", tmp_path / "report.json") == 3
        assert "boxes[0]" in assert_format_error(capsys, tmp_path / "gt.json", key)

    @pytest.mark.parametrize("key,value", CASES)
    def test_render_scene_box(self, tmp_path, capsys, key, value):
        box = dict({"center": [0, 0, 0.5], "size": [0.3, 0.3, 0.3]}, **{key: value})
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc(boxes=[box])))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        assert "boxes[0]" in assert_format_error(capsys, scene, key)
        assert not (tmp_path / "img_000.ppm").exists()


class TestEvalFlags:
    """Flags are parsed before any input is read; errors name the flag."""

    def write_poses(self, tmp_path):
        (tmp_path / "pred.json").write_text(json.dumps({"poses": [dict(POSE, score=0.9)]}))
        (tmp_path / "gt.json").write_text(json.dumps({"poses": [POSE]}))

    @pytest.mark.parametrize("flag,value", [
        ("--pose-thresholds", "5"), ("--pose-thresholds", "5:x"),
        ("--pose-thresholds", "5:0"), ("--symmetry-axis", "0,2,0"),
        ("--symmetry-axis", "0,1"), ("--symmetry-axis", "a,b,c"),
        ("--symmetry-axis", "nan,0,0"), ("--symmetry-axis", "0,1,nan"),
    ])
    def test_bad_pose_flags(self, tmp_path, capsys, flag, value):
        # no prediction is of a symmetric class: the axis is still checked
        self.write_poses(tmp_path)
        assert run("eval-pose", "--pred", tmp_path / "pred.json", "--gt", tmp_path / "gt.json",
                   flag, value, "--out", tmp_path / "report.json") == 3
        assert flag in json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("value", ["0.5,x", "0.5,1.5", "0"])
    def test_bad_iou_thresholds(self, tmp_path, capsys, value):
        # rejected before the (missing) inputs are looked at
        assert run("eval-detect", "--pred", tmp_path / "nope.json", "--gt",
                   tmp_path / "nope.json", "--iou-thresholds", value,
                   "--out", tmp_path / "report.json") == 3
        assert "--iou-thresholds" in json.loads(capsys.readouterr().err.splitlines()[-1])["message"]


class TestNumberListFlags:
    """A comma-separated list of numbers that starts with "-" is a flag's
    value, given as a separate argument or after "="."""

    BOUNDS = "-0.4,-0.4,-0.4,0.4,0.4,0.4"

    def test_voxelize_bounds(self, tmp_path):
        spellings = (("a", ["--bounds", self.BOUNDS]), ("b", [f"--bounds={self.BOUNDS}"]))
        for name, spelling in spellings:
            assert run("voxelize", "--field", "gaussian", "--dims", "5", *spelling,
                       "--out", tmp_path / f"{name}.nfvg") == 0
        assert (tmp_path / "a.nfvg").read_bytes() == (tmp_path / "b.nfvg").read_bytes()
        assert np.array_equal(io.read_nfvg(tmp_path / "a.nfvg").bounds.min, [-0.4] * 3)

    def test_extract_surface_bounds(self, tmp_path):
        bounds = "-1e0,-1.,-.9,1,1,1"
        for name, spelling in (("a", ["--bounds", bounds]), ("b", [f"--bounds={bounds}"])):
            assert run("extract-surface", "--shape", "sphere", "--lod-start", "3",
                       "--lod-end", "5", *spelling, "--out", tmp_path / f"{name}.ply") == 0
        assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()

    def test_eval_pose_symmetry_axis(self, tmp_path):
        (tmp_path / "pred.json").write_text(json.dumps({"poses": [dict(POSE, score=0.9)]}))
        (tmp_path / "gt.json").write_text(json.dumps({"poses": [POSE]}))
        for name, spelling in (("a", ["--symmetry-axis", "-1,0,0"]),
                               ("b", ["--symmetry-axis=-1,0,0"])):
            assert run("eval-pose", "--pred", tmp_path / "pred.json", "--gt",
                       tmp_path / "gt.json", *spelling, "--out", tmp_path / f"{name}.json") == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("argv", [
        ("--bounds", BOUNDS, "--bogus"), ("--bogus", BOUNDS), ("--bounds", "-0.4,x"),
        ("--bounds", "-0.4,,0.4"), ("-0.4,-0.4",),
    ])
    def test_unknown_option_is_still_a_usage_error(self, tmp_path, capsys, argv):
        assert run("voxelize", "--field", "constant", "--dims", "4", *argv,
                   "--out", tmp_path / "g.nfvg") == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "g.nfvg").exists()


class TestBenchOctree:
    def test_report_rows(self, tmp_path):
        out = tmp_path / "bench.json"
        assert run("bench-octree", "--shape", "sphere", "--out", out) == 0
        doc = json.loads(out.read_text())
        ordinary = [r for r in doc["rows"] if r["grid_type"] == "ordinary"]
        octree = [r for r in doc["rows"] if r["grid_type"] == "octree"]
        assert [r["input_points"] for r in ordinary] == [40**3, 50**3, 60**3]
        assert [r["resolution"] for r in octree] == ["LoD5", "LoD6", "LoD7"]
        for o_row, d_row in zip(octree, ordinary):
            assert o_row["input_points"] < d_row["input_points"]
        ratios = doc["eval_ratios_matched"]
        assert ratios[0] > ratios[1] > ratios[2]


class TestSemmap:
    def test_single_pixel(self, tmp_path):
        depth = np.zeros((100, 100))
        depth[40, 60] = 2.0
        np.save(tmp_path / "depth.npy", depth)
        np.save(tmp_path / "sem.npy", np.full((100, 100), 3))
        (tmp_path / "k.json").write_text(json.dumps({
            "fx": 100, "fy": 100, "cx": 50, "cy": 50, "width": 100, "height": 100}))
        (tmp_path / "pose.json").write_text(json.dumps({
            "rotation": [0, 0, 1, -1, 0, 0, 0, -1, 0], "translation": [0, 0, 0]}))
        out = tmp_path / "map.nfvg"
        assert run("semmap", "--depth", tmp_path / "depth.npy",
                   "--semantics", tmp_path / "sem.npy",
                   "--intrinsics", tmp_path / "k.json",
                   "--pose", tmp_path / "pose.json",
                   "--cell-size", "0.25", "--classes", "5", "--out", out) == 0
        grid = io.read_nfvg(out)
        assert grid.dims == (80, 80, 1)
        assert grid.channels == 5
        assert grid.data.sum() == 1.0
        assert grid.data[48, 39, 0, 3] == 1.0

    def test_depth_must_fit_the_intrinsics(self, tmp_path, capsys):
        depth, k, out = tmp_path / "depth.npy", tmp_path / "k.json", tmp_path / "map.nfvg"
        np.save(depth, np.full((30, 40), 2.0))
        np.save(tmp_path / "sem.npy", np.zeros((30, 40), dtype=np.int64))
        k.write_text(json.dumps({
            "fx": 80, "fy": 80, "cx": 80, "cy": 60, "width": 160, "height": 120}))
        (tmp_path / "pose.json").write_text(json.dumps({
            "rotation": [0, 0, 1, -1, 0, 0, 0, -1, 0], "translation": [0, 0, 0]}))
        assert run("semmap", "--depth", depth, "--semantics", tmp_path / "sem.npy",
                   "--intrinsics", k, "--pose", tmp_path / "pose.json", "--out", out) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "DimsMismatch"
        assert err["message"] == (
            f"{depth}: depth of shape (30, 40) does not fit the 160x120 image of {k}")
        assert not out.exists()


class TestNonFiniteFlags:
    """Numeric flags that are NaN, infinite or out of range exit 3 with JSON
    on stderr and write no output."""

    @staticmethod
    def semmap_inputs(tmp_path, depth):
        np.save(tmp_path / "d.npy", depth)
        np.save(tmp_path / "s.npy", np.ones(depth.shape, int))
        (tmp_path / "k.json").write_text(json.dumps(
            {"fx": 10, "fy": 10, "cx": 2, "cy": 2, "width": 4, "height": 4}))
        (tmp_path / "pose.json").write_text(json.dumps(
            {"rotation": [0, 0, 1, -1, 0, 0, 0, -1, 0], "translation": [0, 0, 0]}))
        return ["semmap", "--depth", tmp_path / "d.npy", "--semantics", tmp_path / "s.npy",
                "--intrinsics", tmp_path / "k.json", "--pose", tmp_path / "pose.json",
                "--classes", "2"]

    @pytest.mark.parametrize("argv,words", [
        (["bench-octree", "--band", "nan"], "band"),
        (["bench-octree", "--band", "inf"], "band"),
    ], ids=["band-nan", "band-inf"])
    def test_voxelize_and_bench_octree(self, tmp_path, capsys, argv, words):
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "domain" and err["type"] == "ValueError"
        assert words in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,field", [
        ("--height-min", "nan", "height_min"), ("--height-max", "inf", "height_max"),
        ("--cell-size", "0", "cell_size"), ("--cell-size", "nan", "cell_size"),
        ("--half-extent", "-2", "r"), ("--classes", "0", "classes"),
    ])
    def test_semmap(self, tmp_path, capsys, flag, value, field):
        argv = self.semmap_inputs(tmp_path, np.full((4, 4), 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, flag, value, "--out", tmp_path / "map.nfvg") == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "domain" and err["type"] == "ValueError"
        assert f"semantic map {field} " in err["message"]
        assert not (tmp_path / "map.nfvg").exists()

    def test_semmap_height_range_reversed(self, tmp_path, capsys):
        argv = self.semmap_inputs(tmp_path, np.full((4, 4), 2.0))
        assert run(*argv, "--height-min", "1.8", "--height-max", "0.1",
                   "--out", tmp_path / "map.nfvg") == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "domain" and err["type"] == "ValueError"
        assert "height_min 1.8 " in err["message"] and "height_max 0.1" in err["message"]
        assert not (tmp_path / "map.nfvg").exists()
        # equal bounds are a legal range of one height
        assert run(*argv, "--height-min", "1.0", "--height-max", "1.0",
                   "--out", tmp_path / "map.nfvg") == 0

    def test_semmap_skips_infinite_depth_quietly(self, tmp_path, capsys):
        depth = np.full((4, 4), 2.0)
        depth[0, 1] = 0.0
        argv = self.semmap_inputs(tmp_path, depth)
        assert run(*argv, "--out", tmp_path / "zero.nfvg") == 0
        depth[0, 1] = np.inf
        argv = self.semmap_inputs(tmp_path, depth)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, "--out", tmp_path / "inf.nfvg") == 0
        assert capsys.readouterr().err == ""
        want = (tmp_path / "zero.nfvg").read_bytes()
        assert (tmp_path / "inf.nfvg").read_bytes() == want
        assert io.read_nfvg(tmp_path / "inf.nfvg").data.any()


class TestSemmapArrays:
    """The depth and semantics .npy files of semmap are read by io.read_npy:
    anything but a 2-D numeric array, with integer labels, exits 3 with a
    FileFormatError naming the file."""

    @staticmethod
    def _run(tmp_path, depth=None, sem=None):
        (tmp_path / "k.json").write_text(json.dumps(
            {"fx": 10, "fy": 10, "cx": 2, "cy": 2, "width": 4, "height": 4}))
        (tmp_path / "pose.json").write_text(json.dumps(
            {"rotation": [0, 0, 1, -1, 0, 0, 0, -1, 0], "translation": [0, 0, 0]}))
        for name, value in (("d.npy", depth), ("s.npy", sem)):
            path = tmp_path / name
            if isinstance(value, bytes):
                path.write_bytes(value)
            else:
                default = np.full((4, 4), 2.0) if name == "d.npy" else np.ones((4, 4), int)
                np.save(path, default if value is None else value, allow_pickle=True)
        return run("semmap", "--depth", tmp_path / "d.npy", "--semantics", tmp_path / "s.npy",
                   "--intrinsics", tmp_path / "k.json", "--pose", tmp_path / "pose.json",
                   "--classes", "3", "--out", tmp_path / "map.nfvg")

    @staticmethod
    def _assert_refused(capsys, tmp_path, path, words):
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "domain" and err["type"] == "FileFormatError"
        assert err["message"].startswith(f"{path}: ") and words in err["message"]
        assert not (tmp_path / "map.nfvg").exists()

    BAD_FILES = {
        "junk": (b"not an npy file", "not a .npy array"),
        "empty": (b"", "not a .npy array"),
        "truncated": (None, "not a .npy array"),
        "object": (np.array([{"a": 1}, 2], dtype=object), "not a .npy array"),
        "strings": (np.array([["a", "b"], ["c", "d"]]), "expected numbers"),
        "complex": (np.ones((4, 4), complex), "expected numbers"),
        "bool": (np.ones((4, 4), bool), "expected numbers"),
    }

    @pytest.mark.parametrize("which", ["d.npy", "s.npy"])
    @pytest.mark.parametrize("case", list(BAD_FILES))
    def test_not_a_numeric_npy(self, tmp_path, capsys, case, which):
        value, words = self.BAD_FILES[case]
        if case == "truncated":
            np.save(tmp_path / "full.npy", np.ones((4, 4)))
            value = (tmp_path / "full.npy").read_bytes()[:-8]
        kwargs = {"depth" if which == "d.npy" else "sem": value}
        assert self._run(tmp_path, **kwargs) == 3
        self._assert_refused(capsys, tmp_path, tmp_path / which, words)

    @pytest.mark.parametrize("which,value", [
        ("d.npy", np.full(16, 2.0)), ("d.npy", np.full((4, 4, 1), 2.0)),
        ("d.npy", np.float64(2.0)), ("s.npy", np.ones(16, int)),
        ("s.npy", np.ones((1, 4, 4), int)),
    ], ids=["depth-1d", "depth-3d", "depth-0d", "sem-1d", "sem-3d"])
    def test_not_2d(self, tmp_path, capsys, which, value):
        kwargs = {"depth" if which == "d.npy" else "sem": value}
        assert self._run(tmp_path, **kwargs) == 3
        self._assert_refused(capsys, tmp_path, tmp_path / which, "expected a 2-D array")

    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf, -np.inf])
    def test_labels_not_integers(self, tmp_path, capsys, bad):
        sem = np.ones((4, 4))
        sem[1, 2] = bad
        assert self._run(tmp_path, sem=sem) == 3
        self._assert_refused(capsys, tmp_path, tmp_path / "s.npy", "expected integers")

    def test_integral_float_labels_read_as_integers(self, tmp_path):
        assert self._run(tmp_path, sem=np.full((4, 4), 2.0)) == 0
        assert io.read_nfvg(tmp_path / "map.nfvg").data[..., 2].any()
        floats = (tmp_path / "map.nfvg").read_bytes()
        (tmp_path / "map.nfvg").unlink()
        assert self._run(tmp_path, sem=np.full((4, 4), 2, dtype=np.uint8)) == 0
        assert (tmp_path / "map.nfvg").read_bytes() == floats


def golden_eval_inputs(tmp_path):
    """Seeded box and pose files with labels on both sides and on one side
    only, tied scores and jittered near-copies of the ground truth."""
    rng = np.random.default_rng(2024)
    gt_boxes, pred_boxes = [], []
    for i in range(36):
        label = ("car", "van", "gt_only")[i % 3]
        box = {"center": rng.uniform(-6, 6, 3).tolist(), "size": rng.uniform(0.5, 2.5, 3).tolist(),
               "yaw": float(rng.uniform(-np.pi, np.pi)), "class": label}
        gt_boxes.append(box)
        if label != "gt_only" and i % 4:
            pred_boxes.append({
                "center": (np.array(box["center"]) + rng.normal(0, 0.15, 3)).tolist(),
                "size": (np.array(box["size"]) * rng.uniform(0.85, 1.15, 3)).tolist(),
                "yaw": box["yaw"] + float(rng.normal(0, 0.2)), "class": label,
                "score": round(float(rng.uniform(0, 1)), 1)})
    for i in range(12):
        pred_boxes.append({"center": rng.uniform(-6, 6, 3).tolist(),
                           "size": rng.uniform(0.5, 2.5, 3).tolist(),
                           "yaw": float(rng.uniform(-np.pi, np.pi)),
                           "class": ("car", "van", "pred_only")[i % 3],
                           "score": round(float(rng.uniform(0, 1)), 1)})
    gt_poses, pred_poses = [], []
    for i in range(36):
        label = ("bottle", "mug", "gt_only")[i % 3]
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = q * np.sign(np.linalg.det(q))
        pose = {"rotation": rot.ravel().tolist(), "translation": rng.uniform(-1, 1, 3).tolist(),
                "class": label}
        gt_poses.append(pose)
        if label != "gt_only" and i % 4:
            angle = np.radians(rng.normal(0, 5))
            c, s = np.cos(angle), np.sin(angle)
            spin = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
            pred_poses.append({
                "rotation": (spin @ rot).ravel().tolist(),
                "translation": (np.array(pose["translation"]) + rng.normal(0, 0.04, 3)).tolist(),
                "class": label, "score": round(float(rng.uniform(0, 1)), 1)})
    for i in range(12):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pred_poses.append({"rotation": (q * np.sign(np.linalg.det(q))).ravel().tolist(),
                           "translation": rng.uniform(-1, 1, 3).tolist(),
                           "class": ("bottle", "mug", "pred_only")[i % 3],
                           "score": round(float(rng.uniform(0, 1)), 1)})
    for name, key, doc in (("gt_boxes", "boxes", gt_boxes), ("pred_boxes", "boxes", pred_boxes),
                           ("gt_poses", "poses", gt_poses), ("pred_poses", "poses", pred_poses)):
        (tmp_path / f"{name}.json").write_text(json.dumps({key: doc}))


def golden_eval_outputs(tmp_path):
    """Run eval-detect and eval-pose on golden_eval_inputs; (detect, pose) bytes."""
    golden_eval_inputs(tmp_path)
    assert run("eval-detect", "--pred", tmp_path / "pred_boxes.json",
               "--gt", tmp_path / "gt_boxes.json", "--iou-thresholds", "0.5,0.1,0.25,0.7",
               "--out", tmp_path / "detect.json") == 0
    assert run("eval-pose", "--pred", tmp_path / "pred_poses.json",
               "--gt", tmp_path / "gt_poses.json", "--pose-thresholds", "10:10,5:5,5:10,20:3",
               "--symmetric-classes", "bottle", "--out", tmp_path / "pose.json") == 0
    return (tmp_path / "detect.json").read_bytes(), (tmp_path / "pose.json").read_bytes()


class TestEvalGoldenBytes:
    """eval-detect and eval-pose reports of a fixed seeded input, pinned by
    hash: any change to matching or AP arithmetic shows up here."""

    DETECT_SHA256 = "8fbb0341a842c5078c6ad5935111261d9b26ba6497e0a0102a14cc2056a9c66a"
    POSE_SHA256 = "c8dfe3b7d9d9d4eaeafcb55756f67ad45ed724703d50a02caeb496778fd54678"

    def test_reports_match_pinned_hashes(self, tmp_path):
        detect, pose = golden_eval_outputs(tmp_path)
        assert hashlib.sha256(detect).hexdigest() == self.DETECT_SHA256
        assert hashlib.sha256(pose).hexdigest() == self.POSE_SHA256


class TestFiniteNumbers:
    """NaN and Infinity in a pose record's scale, score or translation, in
    intrinsics fx/fy/cx/cy, or in a scene's near/far exit 3 naming the file
    and the key, before any output is written."""

    @pytest.mark.parametrize("key,value", [("scale", INF), ("score", NAN),
                                           ("translation", [0, INF, 0])])
    def test_eval_pose_prediction(self, tmp_path, capsys, key, value):
        pred = {"poses": [dict(POSE, score=0.9), {**POSE, "score": 0.5, key: value}]}
        (tmp_path / "pred.json").write_text(json.dumps(pred))
        (tmp_path / "gt.json").write_text(json.dumps({"poses": [POSE]}))
        assert run("eval-pose", "--pred", tmp_path / "pred.json", "--gt", tmp_path / "gt.json",
                   "--out", tmp_path / "report.json") == 3
        assert "poses[1]" in assert_format_error(capsys, tmp_path / "pred.json", key)
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key,value", [("fx", INF), ("fy", INF), ("cx", NAN), ("cy", -INF)])
    def test_render_intrinsics(self, tmp_path, capsys, key, value):
        doc = scene_doc()
        doc["cameras"][0]["intrinsics"][key] = value
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        assert "cameras[0]: intrinsics" in assert_format_error(capsys, scene, key)
        assert not (tmp_path / "img_000.ppm").exists()

    @pytest.mark.parametrize("key,value", [("near", NAN), ("far", INF)])
    def test_render_near_far(self, tmp_path, capsys, key, value):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc(**{key: value})))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        assert_format_error(capsys, scene, key)
        assert not (tmp_path / "img_000.ppm").exists()

    @pytest.mark.parametrize("key,value", [
        ("positions", [[0, 0, 0], [INF, 0, 0]]), ("reference", [[0, 0, 0], [1, NAN, 0]]),
        ("goal", [1, 0, -INF]), ("success_threshold", INF),
    ])
    def test_eval_nav_trajectory(self, tmp_path, capsys, key, value):
        # an infinite success threshold used to score SR 1.0 and SPL 1.0 far
        # from the goal, and an infinite position to write Infinity into the report
        pred = tmp_path / "traj.json"
        pred.write_text(json.dumps({"trajectory": {**TRAJ, key: value}}))
        assert run("eval-nav", "--trajectory", pred, "--out", tmp_path / "nav.json") == 3
        assert "trajectory" in assert_format_error(capsys, pred, key)
        assert not (tmp_path / "nav.json").exists()

    def test_scene_camera_translation(self, tmp_path, capsys):
        doc = scene_doc()
        doc["cameras"][0]["pose"]["translation"] = [0, 0, -INF]
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        assert run("render", "--scene", scene, "--out", tmp_path / "img") == 3
        assert_format_error(capsys, scene, "translation")
        assert not (tmp_path / "img_000.ppm").exists()


class TestSharedParser:
    """The parser is built once per process; reusing it changes nothing."""

    def test_usage_error_after_dispatch(self, tmp_path, capsys):
        build_parser.cache_clear()
        bad = (("bogus-command",), ("voxelize", "--field", "constant"))
        before = []
        for argv in bad:
            assert run(*argv) == 1
            before.append(capsys.readouterr().err)
        assert run("voxelize", "--field", "constant", "--dims", "4",
                   "--out", tmp_path / "g.nfvg") == 0
        capsys.readouterr()
        for argv, err in zip(bad, before):
            assert run(*argv) == 1
            assert capsys.readouterr().err == err
        assert build_parser() is build_parser()


def _label_docs(tmp_path, value, n_classes=3):
    """eval-voxels inputs whose prediction grid holds one label `value` among
    zeros, and whose ground truth is all zeros."""
    from radiant.core_math import Aabb
    from radiant.grids import VoxelGrid4D

    for name, label in (("pred", value), ("gt", 0.0)):
        data = np.zeros((2, 2, 2, 1))
        data[0, 0, 0, 0] = label
        io.write_nfvg(tmp_path / f"{name}.nfvg", VoxelGrid4D(data, Aabb([0, 0, 0], [1, 1, 1])))
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"labels_file": f"{name}.nfvg", "n_classes": n_classes}))
    return ("eval-voxels", "--pred", tmp_path / "pred.json", "--gt", tmp_path / "gt.json",
            "--out", tmp_path / "voxels.json")


def _bad_magic_mask(tmp_path):
    (tmp_path / "g.nfvg").write_bytes(b"JUNK" + bytes(68))
    return ("mask", "--grid", tmp_path / "g.nfvg", "--out", tmp_path / "m.nfvg",
            "--mask-out", tmp_path / "m.json")


def _scene_box_without_size(tmp_path):
    (tmp_path / "scene.json").write_text(json.dumps(scene_doc(boxes=[{"center": [0, 0, 0.5]}])))
    return ("render", "--scene", tmp_path / "scene.json", "--out", tmp_path / "img")


def _huge_semmap(tmp_path):
    argv = TestNonFiniteFlags.semmap_inputs(tmp_path, np.full((4, 4), 2.0))
    return (*argv, "--half-extent", "100000", "--classes", "1000", "--out", tmp_path / "m.nfvg")


def _zero_dim_grid(tmp_path):
    """A 0x4x4 NFVG with 4 channels: a consistent header and bounds, and
    the empty payload its dims ask for."""
    (tmp_path / "g.nfvg").write_bytes(io._HEADER.pack(io.NFVG_MAGIC, io.NFVG_VERSION, 0, 4, 4, 4)
                                      + np.array([-1, -1, -1, 1, 1, 1], "<f8").tobytes())
    return tmp_path / "g.nfvg"


def _zero_dim_render(tmp_path):
    _zero_dim_grid(tmp_path)
    scene = scene_doc(near_field={"type": "grid", "path": "g.nfvg"})
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    return ("render", "--scene", tmp_path / "scene.json", "--out", tmp_path / "img")


def _zero_dim_mask(tmp_path):
    return ("mask", "--grid", _zero_dim_grid(tmp_path), "--out", tmp_path / "m.nfvg",
            "--mask-out", tmp_path / "m.json")


def _grid_value_render(tmp_path, index: int, value: float):
    """render with the NFVG_BASE grid as its near field, payload value
    index (voxel index // 4, channel index % 4) replaced by value."""
    bits = BASE_PAYLOAD.copy()
    bits[index] = np.float32(value).view("<u4")
    (tmp_path / "g.nfvg").write_bytes(nfvg_bytes(NFVG_BASE, 0) + bits.tobytes())
    scene = scene_doc(near_field={"type": "grid", "path": "g.nfvg"})
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    return ("render", "--scene", tmp_path / "scene.json", "--out", tmp_path / "img")


def _missing_trajectory(tmp_path):
    return ("eval-nav", "--trajectory", tmp_path / "nope.json", "--out", tmp_path / "nav.json")


def _trajectory(tmp_path, **overrides):
    (tmp_path / "t.json").write_text(json.dumps({"trajectory": {**TRAJ, **overrides}}))
    return ("eval-nav", "--trajectory", tmp_path / "t.json", "--out", tmp_path / "nav.json")


class TestStderrContract:
    """An error exit writes exactly one line to stderr, the JSON record, and
    nothing before it: in-process tests cannot see this, since pytest records
    warnings instead of printing them."""

    CASES = {
        "nan-labels": (lambda p: _label_docs(p, NAN), 3, "LabelOutOfRange"),
        "f32-max-labels": (lambda p: _label_docs(p, 3e38), 3, "LabelOutOfRange"),
        "bad-magic": (_bad_magic_mask, 3, "BadMagic"),
        "scene-box-key": (_scene_box_without_size, 3, "FileFormatError"),
        "missing-input": (_missing_trajectory, 2, "FileNotFoundError"),
        "semmap-over-budget": (_huge_semmap, 3, "RadiantError"),
        # a zero threshold ended in a ZeroDivisionError traceback (exit 1), a
        # negative one exited 0 with nDTW > 1, and 2-D or 4-D points exited 3
        # with a bare numpy broadcast message
        "nav-zero-threshold": (lambda p: _trajectory(p, success_threshold=0), 3,
                               "FileFormatError"),
        "nav-negative-threshold": (lambda p: _trajectory(p, success_threshold=-1.5), 3,
                                   "FileFormatError"),
        "nav-2d-points": (lambda p: _trajectory(p, positions=[[0, 0], [1, 0]]), 3,
                          "FileFormatError"),
        "nav-4d-reference": (lambda p: _trajectory(p, reference=[[0, 0, 0, 0], [1, 0, 0, 0]]),
                             3, "FileFormatError"),
        "nav-empty-path": (lambda p: _trajectory(p, positions=[]), 3, "FileFormatError"),
        # a zero NFVG dimension ended render in an IndexError traceback (exit
        # 1), and mask exited 0 writing an empty grid
        "nfvg-zero-dim-render": (_zero_dim_render, 3, "FileFormatError"),
        "nfvg-zero-dim-mask": (_zero_dim_mask, 3, "FileFormatError"),
        # a grid field's alpha past 1, or a NaN or infinite channel, warned
        # in log1p and in the PPM cast and exited 0; a negative alpha
        # rendered silently
        "grid-alpha-over-one": (lambda p: _grid_value_render(p, 4 * 21 + 3, 1.5), 3,
                                "FileFormatError"),
        "grid-negative-alpha": (lambda p: _grid_value_render(p, 4 * 21 + 3, -0.5), 3,
                                "FileFormatError"),
        "grid-nan-color": (lambda p: _grid_value_render(p, 4 * 21, NAN), 3, "FileFormatError"),
        "grid-infinite-alpha": (lambda p: _grid_value_render(p, 4 * 21 + 3, np.inf), 3,
                                "FileFormatError"),
        # a success: nothing on stderr
        "ten-million-classes": (lambda p: _label_docs(p, 2.0, 10**7), 0, None),
        "nav-one-flat-point": (lambda p: _trajectory(p, positions=[1, 0, 0]), 0, None),
        "grid-alpha-one": (lambda p: _grid_value_render(p, 4 * 21 + 3, 1.0), 0, None),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_json_line(self, tmp_path, case):
        make_argv, code, kind = self.CASES[case]
        proc = subprocess.run([sys.executable, "-m", "radiant.cli", *map(str, make_argv(tmp_path))],
                              env=child_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        if code == 0:
            assert lines == [], proc.stderr
            return
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err == {"error": "domain" if code == 3 else "io", "type": kind,
                       "message": err["message"]}


# a 4x4x4 RGBA grid in front of scene_doc's camera, as the NFVG header
# fields a mutation may replace
NFVG_BASE = {"version": 1, "x": 4, "y": 4, "z": 4, "channels": 4,
             "bounds": [-0.5, -0.5, 0.2, 0.5, 0.5, 1.2]}
U32 = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 8, 16]), st.integers(0, 2**32 - 1))
F64 = st.one_of(st.floats(-2, 2), st.sampled_from([0.0, -0.0, 1e-300, 1e300, -1e300]), st.floats())


@st.composite
def mutated_nfvg(draw) -> bytes:
    """The NFVG of NFVG_BASE with some of its version, dims, channels and
    bounds replaced. Its payload holds the base grid's 256 values, or, when
    fit is drawn and they are few, as many values as the new header asks."""
    h = dict(NFVG_BASE)
    for key in draw(st.sets(st.sampled_from(sorted(NFVG_BASE)), min_size=1, max_size=3)):
        if key == "version":
            h[key] = draw(st.sampled_from([0, 2, 2**32 - 1]))
        elif key == "bounds":
            h[key] = [b if m is None else m for b, m in
                      zip(h[key], draw(st.lists(st.none() | F64, min_size=6, max_size=6)))]
        else:
            h[key] = draw(U32)
    n = h["x"] * h["y"] * h["z"] * h["channels"]
    return nfvg_bytes(h, n if draw(st.booleans()) and n <= 4096 else 256)


def nfvg_bytes(h: dict, n: int) -> bytes:
    """An NFVG of header fields h and a payload of n values in [0, 0.9)."""
    values = np.random.default_rng(n).uniform(0.0, 0.9, n).astype("<f4")
    return (io._HEADER.pack(io.NFVG_MAGIC, h["version"], h["x"], h["y"], h["z"], h["channels"])
            + np.array(h["bounds"], "<f8").tobytes() + values.tobytes())


# the f32 bits of NFVG_BASE's payload
BASE_PAYLOAD = np.frombuffer(nfvg_bytes(NFVG_BASE, 256), "<u4", offset=io._HEADER.size + 48)


class TestNfvgHeaderMutations:
    """render (the NFVG as its near field) and mask on a mutated NFVG header
    keep the exit-code contract: 0 with nothing on stderr, or 2 or 3 with
    exactly one JSON line on stderr; never a traceback or a warning. Huge
    dims are refused by the payload-size check before anything is
    allocated."""

    @staticmethod
    def dispatch_quietly(argv) -> tuple[int, str]:
        err = _stdio.StringIO()
        with contextlib.redirect_stdout(_stdio.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch([str(a) for a in argv])
        return code, err.getvalue()

    @staticmethod
    def run_both(d, raw: bytes):
        """(command, exit code, stderr) of render and mask on the NFVG raw."""
        (d / "g.nfvg").write_bytes(raw)
        (d / "scene.json").write_text(json.dumps(scene_doc(near_field={"type": "grid",
                                                                       "path": "g.nfvg"})))
        for argv in (("render", "--scene", d / "scene.json", "--out", d / "img"),
                     ("mask", "--grid", d / "g.nfvg", "--out", d / "m.nfvg",
                      "--mask-out", d / "m.json")):
            yield (argv[0], *TestNfvgHeaderMutations.dispatch_quietly(argv))

    def test_unmutated_grid_renders_and_masks(self, tmp_path):
        # the property starts from a grid both commands take
        for name, code, err in self.run_both(tmp_path, nfvg_bytes(NFVG_BASE, 256)):
            assert (name, code, err) == (name, 0, "")

    @settings(deadline=None, max_examples=80)
    @given(mutated_nfvg())
    @example(nfvg_bytes(dict(NFVG_BASE, x=0), 0))  # a consistent file of no value
    def test_render_and_mask_keep_the_contract(self, tmp_path_factory, raw):
        for name, code, err in self.run_both(tmp_path_factory.mktemp("nfvg"), raw):
            assert code in (0, 2, 3), (name, code, err)
            if code == 0:
                assert err == "", (name, err)
                continue
            lines = err.splitlines()
            assert len(lines) == 1, (name, err)
            assert json.loads(lines[0])["error"] == ("domain" if code == 3 else "io")


def run_cli(*argv) -> subprocess.CompletedProcess:
    """radiant's CLI in a child Python: warnings reach its stderr."""
    return subprocess.run([sys.executable, "-m", "radiant.cli", *map(str, argv)],
                          env=child_env(), capture_output=True, text=True, timeout=60)


F32_SIGNALING_NAN, F32_QUIET_NAN = 0x7FA00000, 0x7FE00000
# f32 bits a payload mutation writes: infinities, quiet and signaling NaNs
# of each sign, -0, alphas at and past the ends of [0, 1], the f32 maximum
PAYLOAD_BITS = st.sampled_from(
    [0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00000, F32_SIGNALING_NAN, 0xFFA00001]
    + np.array([-0.0, 1.0, 1.5, np.nextafter(np.float32(1), np.float32(2)), -1e-45,
                3.4028235e38], "<f4").view("<u4").tolist())


class TestNfvgPayload:
    """mask and render (the NFVG as its near field) on grids with special
    payload values, through the CLI in a child process: mask takes any f32
    and exits 0; render refuses a NaN or infinite value and an alpha outside
    [0, 1] with exit 3 and one JSON line; at exit 0 stderr is empty."""

    def test_mask_reads_a_signaling_nan_quietly(self, tmp_path):
        # the f64 cast of a signaling NaN raised "invalid value encountered
        # in cast"; it reads, and is written back, as the quiet NaN
        bits = BASE_PAYLOAD.copy()
        bits[-1] = F32_SIGNALING_NAN
        (tmp_path / "g.nfvg").write_bytes(nfvg_bytes(NFVG_BASE, 0) + bits.tobytes())
        proc = run_cli("mask", "--grid", tmp_path / "g.nfvg", "--ratio", "0",
                       "--out", tmp_path / "m.nfvg", "--mask-out", tmp_path / "m.json")
        assert (proc.returncode, proc.stderr) == (0, "")
        out = np.frombuffer((tmp_path / "m.nfvg").read_bytes(), "<u4", offset=io._HEADER.size + 48)
        bits[-1] = F32_QUIET_NAN
        assert out.tobytes() == bits.tobytes()

    @settings(deadline=None, max_examples=8)
    @given(st.dictionaries(st.integers(0, 255), PAYLOAD_BITS, min_size=1, max_size=4))
    @example({255: F32_SIGNALING_NAN})
    @example({4 * 21 + 3: 0x3FC00000})  # alpha 1.5
    def test_mask_and_render_keep_the_contract(self, tmp_path_factory, edits):
        d = tmp_path_factory.mktemp("payload")
        bits = BASE_PAYLOAD.copy()
        bits[list(edits)] = list(edits.values())
        (d / "g.nfvg").write_bytes(nfvg_bytes(NFVG_BASE, 0) + bits.tobytes())
        (d / "scene.json").write_text(json.dumps(scene_doc(near_field={"type": "grid",
                                                                       "path": "g.nfvg"})))
        v = bits.view("<f4").reshape(-1, 4)
        refused = not np.isfinite(v).all() or not ((v[:, 3] >= 0) & (v[:, 3] <= 1)).all()
        for argv, code in ((("render", "--scene", d / "scene.json", "--out", d / "img"),
                            3 if refused else 0),
                           (("mask", "--grid", d / "g.nfvg", "--ratio", "0.5", "--patch", "2",
                             "--out", d / "m.nfvg", "--mask-out", d / "m.json"), 0)):
            proc = run_cli(*argv)
            assert proc.returncode == code, (argv[0], proc.stderr)
            if code == 0:
                assert proc.stderr == "", argv[0]
                continue
            lines = proc.stderr.splitlines()
            assert len(lines) == 1, proc.stderr
            assert json.loads(lines[0])["type"] == "FileFormatError"
