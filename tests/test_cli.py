import argparse
import filecmp
import importlib.util
import math
import os
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import wassmap.cli
import wassmap.geometry
import wassmap.keyframe
import wassmap.pose_graph
import wassmap.voxel_map
from wassmap.cli import build_parser, main, resolve_config
from wassmap.geometry import Pose
from wassmap.io import TrajectoryEntry, read_graph, read_pcd, read_tum, write_pcd, write_tum
from wassmap.wasserstein import InvalidCovarianceError

from helpers import session_ids, write_padded_pcd


def run(*argv):
    return main([str(a) for a in argv])


def _load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _install_bench_tracer(monkeypatch):
    """The tracer of `perfbench/run.py --trace 1`, patched into the program."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))  # run.py sets them on import
    bench_run, spans = (_load_module(bench / f"{name}.py", f"perfbench_{name}")
                        for name in ("run", "spans"))
    tracer = spans.Tracer()
    bench_run.install_tracer(tracer, (wassmap.cli, wassmap.keyframe, wassmap.voxel_map,
                                      wassmap.geometry, wassmap.pose_graph))
    return tracer


@pytest.fixture(scope="module")
def corridor_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("corridor")
    code = run("synth", "--kind", "corridor", "--frames", "12", "--points", "800",
               "--seed", "5", "--out", out)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def two_session_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("sessions")
    code = run("synth", "--kind", "two_session", "--frames", "25", "--seed", "7",
               "--noise", "0.005", "--loops", "8", "--out", out)
    assert code == 0
    return out


def _fail_fourth_score(monkeypatch):
    """Make the fourth scored frame, frame 5 after the bootstrap frame, fail
    as a frame with an invalid covariance would."""
    real = wassmap.keyframe.map_dissimilarity
    calls = []

    def score(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise InvalidCovarianceError("covariance has eigenvalue -0.5")
        return real(*args, **kwargs)

    monkeypatch.setattr(wassmap.keyframe, "map_dissimilarity", score)


def _copy_clouds(dataset: Path, clouds: Path) -> list[Path]:
    """Copy a dataset's clouds into `clouds`; returns the copies in time order."""
    clouds.mkdir()
    for p in (dataset / "clouds").glob("*.pcd"):
        (clouds / p.name).write_bytes(p.read_bytes())
    return sorted(clouds.glob("*.pcd"))


def _decision_rows(out: Path) -> list[list[str]]:
    return [r.split(",") for r in (out / "decisions.csv").read_text().splitlines()[1:]]


def _keyframe_files(out: Path, clouds: list[Path]) -> list[str]:
    return [clouds[int(k) - 1].name for k in (out / "keyframes.txt").read_text().split()]


def _selection_peak_bytes(tmp_path: Path, frames: int) -> int:
    """Peak traced memory of one `keyframes` run over `frames` copies of a
    20,000-point cloud, all at the same pose."""
    data = tmp_path / f"frames{frames}"
    clouds = data / "clouds"
    clouds.mkdir(parents=True)
    points = np.random.default_rng(0).uniform(-10.0, 10.0, size=(20_000, 3))
    first = clouds / f"{0.0:012.6f}.pcd"
    write_pcd(first, points)
    for k in range(1, frames):
        os.link(first, clouds / f"{0.1 * k:012.6f}.pcd")
    write_tum(data / "trajectory.tum",
              [TrajectoryEntry(0.1 * k, Pose.identity()) for k in range(frames)])
    argv = ("keyframes", "--clouds", clouds, "--trajectory", data / "trajectory.tum",
            "--out", data / "out")
    assert run(*argv) == 0   # warm: imports and caches stay out of the peak
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestConfigPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tau = 0.9\nvoxel_size=2.5\n# comment\nmin_points=7\n")

        class Args:
            config = str(cfg_file)
            tau = 1.5
            voxel_size = None
            radius = None
            min_points = None
            commit = None
            max_dt = None

        cfg = resolve_config(Args())
        assert cfg.tau == 1.5          # flag wins
        assert cfg.voxel_size == 2.5   # file beats default
        assert cfg.min_points == 7
        assert cfg.radius == 100.0     # default

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        for line in ("bogus=1", "threads=1", "agg=mass", "estimator=population", "seed=1"):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"tau=0.2\n{line}\n")
            code = run("keyframes", "--clouds", "c", "--trajectory", "t.tum",
                       "--config", cfg_file, "--out", tmp_path / "o")
            assert code == 1
            assert "unknown config key" in capsys.readouterr().err

    def test_bad_flag_exits_one(self, capsys):
        assert run("keyframes", "--clouds") == 1
        assert run("unknown-command") == 1
        for flag in (("--agg", "mass"), ("--estimator", "population")):
            capsys.readouterr()
            assert run("keyframes", "--clouds", "c", "--trajectory", "t.tum", *flag) == 1
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_flags_are_unrecognized(self, capsys):
        for argv in (("merge", "--graph", "g", "--trajectory", "t", "--odometry", "o",
                      "--tau", "0.3"),
                     ("synth", "--voxel-size", "1"),
                     ("keyframes", "--clouds", "c", "--trajectory", "t", "--seed", "1")):
            capsys.readouterr()
            assert run(*argv) == 1
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_echoed(self, corridor_dataset):
        text = (corridor_dataset / "config.txt").read_text()
        assert "command=synth" in text
        assert "voxel_size" not in text
        assert "seed=5" in text

    def test_config_lists_every_accepted_option(self, corridor_dataset,
                                                two_session_dataset, tmp_path):
        clouds = ("--clouds", corridor_dataset / "clouds",
                  "--trajectory", corridor_dataset / "trajectory.tum")
        argvs = {
            "keyframes": clouds,
            "calibrate": clouds,
            "merge": ("--graph", two_session_dataset / "session1.g2o",
                      "--trajectory", two_session_dataset / "session2_estimate.tum",
                      "--odometry", two_session_dataset / "session2_odometry.txt",
                      "--loops", two_session_dataset / "loops.txt"),
        }
        outs = {"synth": corridor_dataset}
        for command, argv in argvs.items():
            outs[command] = tmp_path / command
            assert run(command, *argv, "--out", outs[command]) == 0
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for command, out in outs.items():
            accepted = {a.dest for a in subparsers.choices[command]._actions}
            keys = [line.split("=", 1)[0]
                    for line in (out / "config.txt").read_text().splitlines()]
            assert len(keys) == len(set(keys))
            assert set(keys) == {"command"} | accepted - {"help", "out"}


class TestSynthCommand:
    def test_corridor_layout(self, corridor_dataset):
        clouds = sorted((corridor_dataset / "clouds").glob("*.pcd"))
        assert len(clouds) == 12
        trajectory = read_tum(corridor_dataset / "trajectory.tum")
        assert len(trajectory) == 12

    def test_fixed_seed_byte_identical_trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--kind", "corridor", "--frames", "6", "--points",
                       "500", "--seed", "3", "--out", out) == 0
        ta, tb = _tree_bytes(a), _tree_bytes(b)
        assert ta.keys() == tb.keys()
        assert ta == tb

    def test_two_session_files(self, two_session_dataset):
        expected = {"session1.g2o", "session1_truth.tum", "session2_truth.tum",
                    "session2_estimate.tum", "session2_odometry.txt", "loops.txt",
                    "config.txt"}
        names = {p.name for p in two_session_dataset.iterdir() if p.is_file()}
        assert expected <= names
        graph = read_graph(two_session_dataset / "session1.g2o")
        assert len(graph.nodes) == 25
        assert len(graph.edges) == 24

    @pytest.mark.parametrize("flags", [("--kind", "two_session", "--noise", "nan"),
                                       ("--kind", "two_session", "--noise-rot", "nan"),
                                       ("--kind", "corridor", "--noise", "nan"),
                                       ("--kind", "corridor", "--max-range", "nan")])
    def test_nan_settings_exit_one(self, flags, tmp_path, capsys):
        out = tmp_path / "nan"
        assert run("synth", *flags, "--frames", "3", "--points", "100", "--out", out) == 1
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--kind", "two_session", "--noise", "1e300"), "noise sigmas must be below 1.34e+154"),
        (("--kind", "corridor", "--noise", "1e308", "--frames", "2", "--points", "50"),
         "--noise must be below 5.32e+36 m"),
    ], ids=["odometry-information-overflows", "points-overflow-float32"])
    def test_overflowing_noise_exits_one_and_writes_nothing(self, flags, message, tmp_path,
                                                            capsys):
        out = tmp_path / "overflow"
        assert run("synth", *flags, "--out", out) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--kind", "corridor", "--frames", "0"), "--frames must be >= 1"),
        (("--kind", "loop_course", "--frames", "-3"), "--frames must be >= 1"),
        (("--kind", "two_session", "--frames", "5", "--loops", "-1"), "--loops must be >= 0"),
    ], ids=["corridor-no-frames", "loop-course-negative-frames", "two-session-negative-loops"])
    def test_bad_counts_exit_one(self, flags, message, tmp_path, capsys):
        out = tmp_path / "bad"
        assert run("synth", *flags, "--points", "100", "--out", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestKeyframesCommand:
    def test_one_row_per_paired_frame(self, corridor_dataset, tmp_path, capsys):
        out = tmp_path / "kf"
        code = run("keyframes", "--clouds", corridor_dataset / "clouds",
                   "--trajectory", corridor_dataset / "trajectory.tum",
                   "--tau", "0.3", "--out", out)
        assert code == 0
        rows = (out / "decisions.csv").read_text().splitlines()
        assert rows[0] == "frame,timestamp,dw,keyframe,flag,affected,new,skipped,ms"
        assert len(rows) == 1 + 12
        scores = (out / "scores.csv").read_text().splitlines()
        assert len(scores) == 1 + 12
        summary = capsys.readouterr().out
        assert "frames=12" in summary and "errors=0" in summary

    def test_failed_frame_gets_error_row(self, corridor_dataset, tmp_path, capsys):
        clouds = tmp_path / "clouds"
        clouds.mkdir()
        paths = sorted((corridor_dataset / "clouds").glob("*.pcd"))
        for p in paths:
            (clouds / p.name).write_bytes(p.read_bytes())
        write_pcd(clouds / paths[4].name, np.empty((0, 3)))
        out = tmp_path / "kf"
        code = run("keyframes", "--clouds", clouds,
                   "--trajectory", corridor_dataset / "trajectory.tum",
                   "--tau", "0.3", "--out", out)
        assert code == 0
        assert "errors=1" in capsys.readouterr().out
        rows = [r.split(",") for r in (out / "decisions.csv").read_text().splitlines()[1:]]
        assert len(rows) == 12
        assert [r[4] for r in rows].count("error") == 1
        frame, _, dw, keyframe, flag = rows[4][:5]
        assert (frame, dw, keyframe, flag) == ("5", "nan", "0", "error")
        assert "5" not in (out / "keyframes.txt").read_text().split()

    def test_unpaired_cloud_keeps_every_index_on_its_file(self, corridor_dataset,
                                                           tmp_path, capsys):
        # the same eleven paired frames, once with the fifth cloud's file
        # removed and once with its pose removed
        trajectory = (corridor_dataset / "trajectory.tum").read_text().splitlines()
        without_pose = tmp_path / "trajectory.tum"
        without_pose.write_text("\n".join(trajectory[:4] + trajectory[5:]) + "\n")
        all_clouds = _copy_clouds(corridor_dataset, tmp_path / "all")
        fewer_clouds = _copy_clouds(corridor_dataset, tmp_path / "fewer")
        fewer_clouds.pop(4).unlink()

        outs = {"file": tmp_path / "no_file", "pose": tmp_path / "no_pose"}
        assert run("keyframes", "--clouds", tmp_path / "fewer",
                   "--trajectory", corridor_dataset / "trajectory.tum",
                   "--tau", "0", "--out", outs["file"]) == 0
        capsys.readouterr()
        assert run("keyframes", "--clouds", tmp_path / "all", "--trajectory", without_pose,
                   "--tau", "0", "--out", outs["pose"]) == 0
        summary = capsys.readouterr().out
        assert "frames=12 " in summary and "dropped=1 " in summary

        rows = _decision_rows(outs["pose"])
        assert [r[0] for r in rows] == [str(k) for k in range(1, 13)]
        assert rows[4][2:5] == ["nan", "0", "unpaired"]
        assert [r[4] for r in rows].count("unpaired") == 1
        for row in rows:
            stem = all_clouds[int(row[0]) - 1].stem
            assert float(row[1]) == pytest.approx(float(stem))
        named = _keyframe_files(outs["pose"], all_clouds)
        assert all_clouds[4].name not in named
        assert named == _keyframe_files(outs["file"], fewer_clouds)
        assert len(named) > 5

    def test_unreadable_cloud_gets_error_row(self, corridor_dataset, tmp_path, capsys,
                                             caplog):
        clouds = _copy_clouds(corridor_dataset, tmp_path / "clouds")
        raw = clouds[5].read_bytes()
        clouds[5].write_bytes(raw[:len(raw) // 2])
        out = tmp_path / "kf"
        with caplog.at_level("WARNING", logger="wassmap.keyframe"):
            code = run("keyframes", "--clouds", tmp_path / "clouds",
                       "--trajectory", corridor_dataset / "trajectory.tum",
                       "--tau", "0.3", "--out", out)
        assert code == 0
        assert "errors=1" in capsys.readouterr().out
        rows = _decision_rows(out)
        assert len(rows) == 12
        assert [rows[5][0]] + rows[5][2:5] == ["6", "nan", "0", "error"]
        assert all(r[4] == "scored" for r in rows[6:])
        assert any("frame 6 failed" in r.message and "truncated" in r.message
                   and clouds[5].name in r.message for r in caplog.records)

    def test_cloud_that_cannot_be_opened_gets_error_row(self, corridor_dataset, tmp_path,
                                                        capsys, caplog):
        # a directory whose name globs as a cloud, between the third and fourth
        _copy_clouds(corridor_dataset, tmp_path / "clouds")
        folder = tmp_path / "clouds" / "0000.250000.pcd"
        folder.mkdir()
        out = tmp_path / "kf"
        with caplog.at_level("WARNING", logger="wassmap.keyframe"):
            code = run("keyframes", "--clouds", tmp_path / "clouds",
                       "--trajectory", corridor_dataset / "trajectory.tum",
                       "--tau", "0.3", "--out", out)
        assert code == 0
        assert "errors=1" in capsys.readouterr().out
        rows = _decision_rows(out)
        assert len(rows) == 13
        assert rows[3][:5] == ["4", "0.25", "nan", "0", "error"]
        assert [r[4] for r in rows].count("error") == 1
        assert any("frame 4 failed" in r.message and str(folder) in r.message
                   for r in caplog.records)
        assert run("calibrate", "--clouds", tmp_path / "clouds",
                   "--trajectory", corridor_dataset / "trajectory.tum",
                   "--out", tmp_path / "cal") == 0
        assert "errors=1" in capsys.readouterr().out

    def test_cloud_with_repeated_padding_fields_is_read(self, corridor_dataset, tmp_path,
                                                        capsys):
        # the fourth cloud in a PCL layout whose padding fields are all named `_`
        clouds = _copy_clouds(corridor_dataset, tmp_path / "clouds")
        write_padded_pcd(clouds[3], read_pcd(corridor_dataset / "clouds" / clouds[3].name))
        outs = {"plain": tmp_path / "plain", "padded": tmp_path / "padded"}
        for name, source in (("plain", corridor_dataset / "clouds"),
                             ("padded", tmp_path / "clouds")):
            assert run("keyframes", "--clouds", source,
                       "--trajectory", corridor_dataset / "trajectory.tum",
                       "--tau", "0.3", "--out", outs[name]) == 0
            assert "frames=12 " in capsys.readouterr().out
        rows = {name: [row[:-1] for row in _decision_rows(out)] for name, out in outs.items()}
        assert len(rows["padded"]) == 12
        assert rows["padded"] == rows["plain"]  # every column but the time

    def test_non_numeric_stem_is_unpaired(self, corridor_dataset, tmp_path, caplog):
        clouds = _copy_clouds(corridor_dataset, tmp_path / "clouds")
        (tmp_path / "clouds" / "scan_x.pcd").write_bytes(clouds[0].read_bytes())
        out = tmp_path / "kf"
        with caplog.at_level("WARNING", logger="wassmap.io"):
            code = run("keyframes", "--clouds", tmp_path / "clouds",
                       "--trajectory", corridor_dataset / "trajectory.tum",
                       "--tau", "0.3", "--out", out)
        assert code == 0
        assert any("scan_x.pcd" in r.message for r in caplog.records)
        rows = _decision_rows(out)
        assert len(rows) == 13
        assert rows[12][:5] == ["13", "", "nan", "0", "unpaired"]
        assert "13" not in (out / "keyframes.txt").read_text().split()

        plain = tmp_path / "plain"
        assert run("keyframes", "--clouds", corridor_dataset / "clouds",
                   "--trajectory", corridor_dataset / "trajectory.tum",
                   "--tau", "0.3", "--out", plain) == 0
        assert (out / "scores.csv").read_text().splitlines()[:13] == \
            (plain / "scores.csv").read_text().splitlines()

    def test_each_cloud_is_let_go_before_the_next_is_read(self, corridor_dataset,
                                                          tmp_path, monkeypatch):
        real = wassmap.cli.read_pcd
        read = []

        def read_pcd(path):
            assert all(points() is None for points in read)
            points = real(path)
            read.append(weakref.ref(points))
            return points

        monkeypatch.setattr(wassmap.cli, "read_pcd", read_pcd)
        assert run("keyframes", "--clouds", corridor_dataset / "clouds",
                   "--trajectory", corridor_dataset / "trajectory.tum",
                   "--out", tmp_path / "kf") == 0
        assert len(read) == 12

    def test_memory_does_not_grow_with_the_sequence(self, tmp_path):
        # every cloud is read in its turn and let go before the next one, so
        # three times the frames must not mean three times the memory
        short = _selection_peak_bytes(tmp_path, 40)
        long = _selection_peak_bytes(tmp_path, 120)
        assert long <= 1.1 * short, (short, long)

    def test_invalid_covariance_gets_error_row(self, corridor_dataset, tmp_path, capsys,
                                               monkeypatch):
        _fail_fourth_score(monkeypatch)
        out = tmp_path / "kf"
        code = run("keyframes", "--clouds", corridor_dataset / "clouds",
                   "--trajectory", corridor_dataset / "trajectory.tum",
                   "--tau", "0.3", "--out", out)
        assert code == 0
        assert "errors=1" in capsys.readouterr().out
        rows = [r.split(",") for r in (out / "decisions.csv").read_text().splitlines()[1:]]
        assert len(rows) == 12
        errors = [r for r in rows if r[4] == "error"]
        assert [(r[0], r[2], r[3]) for r in errors] == [("5", "nan", "0")]

    def test_huge_tau_keeps_only_bootstrap(self, corridor_dataset, tmp_path):
        out = tmp_path / "kf"
        code = run("keyframes", "--clouds", corridor_dataset / "clouds",
                   "--trajectory", corridor_dataset / "trajectory.tum",
                   "--tau", "1e9", "--out", out)
        assert code == 0
        assert (out / "keyframes.txt").read_text().split() == ["1"]

    def test_zero_tau_marks_all_comparable(self, corridor_dataset, tmp_path):
        out = tmp_path / "kf"
        code = run("keyframes", "--clouds", corridor_dataset / "clouds",
                   "--trajectory", corridor_dataset / "trajectory.tum",
                   "--tau", "0", "--out", out)
        assert code == 0
        rows = (out / "decisions.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            dw, keyframe = cells[2], cells[3]
            if dw not in ("inf", "nan"):
                assert float(dw) > 0.0
                assert keyframe == "1"

    @pytest.mark.parametrize("flag, value, message", [
        ("--voxel-size", "nan", "voxel_size must be finite and positive"),
        ("--voxel-size", "inf", "voxel_size must be finite and positive"),
        ("--radius", "nan", "radius must be positive"),
        ("--max-dt", "nan", "max_dt must be >= 0"),
    ])
    def test_non_finite_settings_exit_one(self, corridor_dataset, tmp_path, capsys,
                                          flag, value, message):
        out = tmp_path / "o"
        code = run("keyframes", "--clouds", corridor_dataset / "clouds",
                   "--trajectory", corridor_dataset / "trajectory.tum",
                   flag, value, "--out", out)
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "decisions.csv").exists()

    def test_missing_inputs_exit_one(self, tmp_path, capsys):
        code = run("keyframes", "--clouds", tmp_path / "nope",
                   "--trajectory", tmp_path / "missing.tum", "--out", tmp_path / "o")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_quantiles_and_suggestion(self, corridor_dataset, tmp_path, capsys):
        out = tmp_path / "cal"
        code = run("calibrate", "--clouds", corridor_dataset / "clouds",
                   "--trajectory", corridor_dataset / "trajectory.tum", "--out", out)
        assert code == 0
        text = (out / "calibration.txt").read_text()
        values = dict(line.split("=") for line in text.splitlines())
        assert float(values["min"]) <= float(values["median"]) <= float(values["p90"])
        assert float(values["suggested_tau"]) == float(values["p90"])
        assert float(values["suggested_tau"]) > 0.0

    def test_counts_errors(self, corridor_dataset, tmp_path, capsys, monkeypatch):
        out = tmp_path / "cal"
        assert run("calibrate", "--clouds", corridor_dataset / "clouds",
                   "--trajectory", corridor_dataset / "trajectory.tum", "--out", out) == 0
        clean = dict(line.split("=") for line in (out / "calibration.txt").read_text().splitlines())
        assert clean["errors"] == "0"

        _fail_fourth_score(monkeypatch)
        capsys.readouterr()
        assert run("calibrate", "--clouds", corridor_dataset / "clouds",
                   "--trajectory", corridor_dataset / "trajectory.tum", "--out", out) == 0
        assert "errors=1" in capsys.readouterr().out.splitlines()
        values = dict(line.split("=") for line in (out / "calibration.txt").read_text().splitlines())
        assert values["errors"] == "1"
        assert int(values["scored"]) == int(clean["scored"]) - 1

    def test_takes_neither_tau_nor_commit(self, corridor_dataset, tmp_path, capsys):
        inputs = ("calibrate", "--clouds", corridor_dataset / "clouds",
                  "--trajectory", corridor_dataset / "trajectory.tum")
        for flag in (("--tau", "0.3"), ("--commit", "always")):
            capsys.readouterr()
            assert run(*inputs, *flag, "--out", tmp_path / "c") == 1
            assert "unrecognized arguments" in capsys.readouterr().err
        for line in ("tau=0.3", "commit=always"):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"voxel_size=4\n{line}\n")
            assert run(*inputs, "--config", cfg_file, "--out", tmp_path / "c") == 1
            assert "unknown config key" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_deterministic_across_runs(self, corridor_dataset, tmp_path):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            assert run("calibrate", "--clouds", corridor_dataset / "clouds",
                       "--trajectory", corridor_dataset / "trajectory.tum",
                       "--out", out) == 0
            outs.append((out / "calibration.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_single_frame_insufficient(self, tmp_path, capsys):
        data = tmp_path / "single"
        assert run("synth", "--kind", "corridor", "--frames", "1", "--points",
                   "300", "--out", data) == 0
        code = run("calibrate", "--clouds", data / "clouds",
                   "--trajectory", data / "trajectory.tum", "--out", tmp_path / "c")
        assert code == 1
        assert "insufficient frames" in capsys.readouterr().err


class TestMergeCommand:
    def test_merge_two_sessions(self, two_session_dataset, tmp_path, capsys):
        out = tmp_path / "merge"
        code = run("merge", "--graph", two_session_dataset / "session1.g2o",
                   "--trajectory", two_session_dataset / "session2_estimate.tum",
                   "--odometry", two_session_dataset / "session2_odometry.txt",
                   "--loops", two_session_dataset / "loops.txt",
                   "--out", out)
        assert code == 0
        merged = read_graph(out / "merged.g2o")
        assert len(merged.nodes) == 50
        session2 = read_tum(out / "session2.tum")
        assert len(session2) == 25
        report = (out / "report.txt").read_text()
        assert "final_cost=" in report and "cost_trace=" in report
        trace = [float(v) for v in report.splitlines()[-1].split("=")[1].split()]
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_third_session_merges_into_a_merged_graph(self, two_session_dataset, tmp_path):
        def merge(graph, data, out):
            return run("merge", "--graph", graph,
                       "--trajectory", data / "session2_estimate.tum",
                       "--odometry", data / "session2_odometry.txt",
                       "--loops", data / "loops.txt", "--out", out)

        third = tmp_path / "third"  # its loops name session-1 node ids
        assert run("synth", "--kind", "two_session", "--frames", "25", "--seed", "8",
                   "--noise", "0.005", "--loops", "8", "--out", third) == 0
        assert merge(two_session_dataset / "session1.g2o", two_session_dataset,
                     tmp_path / "m1") == 0
        assert merge(tmp_path / "m1" / "merged.g2o", third, tmp_path / "m2") == 0

        def same(a, b):
            return a.rotation == b.rotation and np.array_equal(a.translation, b.translation)

        before = read_graph(tmp_path / "m1" / "merged.g2o")
        after = read_graph(tmp_path / "m2" / "merged.g2o")
        ids = {k: session_ids(after, k) for k in (1, 2, 3)}
        assert ids == {1: list(range(25)), 2: list(range(25, 50)), 3: list(range(50, 75))}
        for node_id, node in before.nodes.items():  # the earlier sessions stay fixed
            kept = after.nodes[node_id]
            assert kept.session == node.session and same(kept.pose, node.pose)

        assert not (tmp_path / "m2" / "session2.tum").exists()
        session3 = read_tum(tmp_path / "m2" / "session3.tum")
        estimate = read_tum(third / "session2_estimate.tum")
        assert [e.timestamp for e in session3] == [e.timestamp for e in estimate]
        for entry, node_id in zip(session3, ids[3], strict=True):
            assert same(entry.pose, after.nodes[node_id].pose)
        assert not same(entry.pose, estimate[-1].pose)  # optimized, not the estimate

    def test_config_records_merge_options(self, two_session_dataset, tmp_path):
        out = tmp_path / "merge"
        code = run("merge", "--graph", two_session_dataset / "session1.g2o",
                   "--trajectory", two_session_dataset / "session2_estimate.tum",
                   "--odometry", two_session_dataset / "session2_odometry.txt",
                   "--loops", two_session_dataset / "loops.txt",
                   "--t-init", "0", "0", "0", "0", "0", "0", "1",
                   "--max-iterations", "3", "--out", out)
        assert code == 0
        lines = (out / "config.txt").read_text().splitlines()
        assert "max_iterations=3" in lines
        assert "t_init=0.0 0.0 0.0 0.0 0.0 0.0 1.0" in lines
        assert "t_init_prior=False" in lines
        assert not any(line.startswith("tau=") for line in lines)

    def test_exact_measurements_reach_zero_cost(self, tmp_path):
        data = tmp_path / "exact"
        assert run("synth", "--kind", "two_session", "--frames", "15",
                   "--noise", "0", "--seed", "2", "--out", data) == 0
        out = tmp_path / "merged"
        code = run("merge", "--graph", data / "session1.g2o",
                   "--trajectory", data / "session2_estimate.tum",
                   "--odometry", data / "session2_odometry.txt",
                   "--loops", data / "loops.txt", "--out", out)
        assert code == 0
        final = float([ln for ln in (out / "report.txt").read_text().splitlines()
                       if ln.startswith("final_cost=")][0].split("=")[1])
        assert final < 1e-10

    def test_missing_loops_warns_but_merges(self, two_session_dataset, tmp_path, caplog):
        out = tmp_path / "noloop"
        with caplog.at_level("WARNING"):
            code = run("merge", "--graph", two_session_dataset / "session1.g2o",
                       "--trajectory", two_session_dataset / "session2_estimate.tum",
                       "--odometry", two_session_dataset / "session2_odometry.txt",
                       "--t-init-prior", "--out", out)
        assert code == 0
        assert sum("loop" in r.message for r in caplog.records) == 1
        assert (out / "merged.g2o").exists()

    def test_explicit_missing_loops_file_is_a_usage_error(self, two_session_dataset,
                                                          tmp_path, capsys):
        out = tmp_path / "typo"
        absent = tmp_path / "absent.txt"
        code = run("merge", "--graph", two_session_dataset / "session1.g2o",
                   "--trajectory", two_session_dataset / "session2_estimate.tum",
                   "--odometry", two_session_dataset / "session2_odometry.txt",
                   "--loops", absent, "--t-init-prior", "--out", out)
        assert code == 1
        assert f"loop file not found: {absent}" in capsys.readouterr().err
        assert not (out / "merged.g2o").exists()

    def test_non_finite_t_init_is_a_usage_error(self, two_session_dataset, tmp_path,
                                                 capsys):
        out = tmp_path / "nan"
        code = run("merge", "--graph", two_session_dataset / "session1.g2o",
                   "--trajectory", two_session_dataset / "session2_estimate.tum",
                   "--odometry", two_session_dataset / "session2_odometry.txt",
                   "--loops", two_session_dataset / "loops.txt",
                   "--t-init", "nan", "0", "0", "0", "0", "0", "1", "--out", out)
        assert code == 1
        assert "non-finite --t-init value" in capsys.readouterr().err
        assert not (out / "merged.g2o").exists()

    def test_negative_max_iterations_is_a_usage_error(self, two_session_dataset, tmp_path,
                                                      capsys):
        out = tmp_path / "negative"
        code = run("merge", "--graph", two_session_dataset / "session1.g2o",
                   "--trajectory", two_session_dataset / "session2_estimate.tum",
                   "--odometry", two_session_dataset / "session2_odometry.txt",
                   "--loops", two_session_dataset / "loops.txt",
                   "--max-iterations", "-1", "--out", out)
        assert code == 1
        assert "negative --max-iterations: -1" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    def test_invalid_loop_information_names_its_line(self, two_session_dataset,
                                                      tmp_path, capsys):
        lines = (two_session_dataset / "loops.txt").read_text().splitlines()
        tokens = lines[2].split()
        tokens[10] = "-" + tokens[10]  # first diagonal entry of the information
        lines[2] = " ".join(tokens)
        loops = tmp_path / "loops.txt"
        loops.write_text("\n".join(lines) + "\n")
        code = run("merge", "--graph", two_session_dataset / "session1.g2o",
                   "--trajectory", two_session_dataset / "session2_estimate.tum",
                   "--odometry", two_session_dataset / "session2_odometry.txt",
                   "--loops", loops, "--out", tmp_path / "o")
        assert code == 1
        assert (f"error: {loops}:3: information matrix not positive definite"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name, index, message", [
        ("loops.txt", "-1", "loop edge references session-2 index -1"),
        ("session2_odometry.txt", "400", "odometry edge references session-2 index 400"),
    ])
    def test_session2_index_outside_the_trajectory_exits_one(
            self, two_session_dataset, tmp_path, capsys, name, index, message):
        files = {n: two_session_dataset / n for n in ("session2_odometry.txt", "loops.txt")}
        lines = files[name].read_text().splitlines()
        tokens = lines[0].split()
        tokens[2] = index  # the session-2 end of the first edge
        lines[0] = " ".join(tokens)
        files[name] = tmp_path / name
        files[name].write_text("\n".join(lines) + "\n")
        code = run("merge", "--graph", two_session_dataset / "session1.g2o",
                   "--trajectory", two_session_dataset / "session2_estimate.tum",
                   "--odometry", files["session2_odometry.txt"], "--loops", files["loops.txt"],
                   "--out", tmp_path / "o")
        assert code == 1
        assert (f"error: {message}, outside the trajectory's 25 poses"
                in capsys.readouterr().err)
        assert not (tmp_path / "o" / "merged.g2o").exists()

    @pytest.mark.parametrize("name, edit, message", [
        ("session1.g2o", "VERTEX_SE3:QUAT 9223372036854775806 0 0 0 0 0 0 1",
         "session-2 node id 9223372036854775808 does not fit in int64"),
        ("session1.g2o", "VERTEX_SE3:QUAT 100000000000000000000 0 0 0 0 0 0 1",
         "{path}:{line}: bad vertex id"),
        ("loops.txt", 2, "{path}:1: bad edge endpoint"),
    ])
    def test_node_id_beyond_int64_exits_one(self, two_session_dataset, tmp_path, capsys,
                                            name, edit, message):
        files = {n: two_session_dataset / n for n in ("session1.g2o", "loops.txt")}
        lines = files[name].read_text().splitlines()
        if isinstance(edit, str):
            lines.append(edit)
        else:
            tokens = lines[0].split()
            tokens[edit] = "99999999999999999999"
            lines[0] = " ".join(tokens)
        files[name] = tmp_path / name
        files[name].write_text("\n".join(lines) + "\n")
        code = run("merge", "--graph", files["session1.g2o"],
                   "--trajectory", two_session_dataset / "session2_estimate.tum",
                   "--odometry", two_session_dataset / "session2_odometry.txt",
                   "--loops", files["loops.txt"], "--out", tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: " + message.format(path=files[name], line=len(lines)) + "\n"

    def test_benchmark_tracer_reads_the_merge(self, two_session_dataset, tmp_path,
                                               monkeypatch):
        # `perfbench/run.py --trace 1` patches program functions by name and
        # counts the free nodes of the merged graph; a rename that breaks it
        # fails here instead of in the benchmark
        tracer = _install_bench_tracer(monkeypatch)
        try:
            code = run("merge", "--graph", two_session_dataset / "session1.g2o",
                       "--trajectory", two_session_dataset / "session2_estimate.tum",
                       "--odometry", two_session_dataset / "session2_odometry.txt",
                       "--loops", two_session_dataset / "loops.txt", "--out", tmp_path / "o")
        finally:
            tracer.unpatch()
        assert code == 0
        kept = {name: tracer.kept[k] for k, name in enumerate(tracer.names) if k in tracer.kept}
        assert kept["pose_graph.merge_sessions"] == 25
        assert kept["pose_graph.optimize"].iterations > 0
        assert {"io.read_graph", "io.read_edge_list", "io.write_graph"} <= set(tracer.names)

    def test_benchmark_tracer_reads_the_keyframes(self, tmp_path, monkeypatch):
        # the keyframes counterpart: the tracer patches voxel-map methods by
        # name and keeps (decision, map size) from each frame
        data = tmp_path / "loop"
        assert run("synth", "--kind", "loop_course", "--frames", "8", "--points", "1500",
                   "--seed", "2", "--out", data) == 0
        seen = []  # (decision, map size) after each frame, taken beneath the tracer
        process = wassmap.keyframe.KeyframeSelector.process_frame

        def recorded(selector, *args, **kwargs):
            decision = process(selector, *args, **kwargs)
            seen.append((decision, len(selector.map)))
            return decision
        monkeypatch.setattr(wassmap.keyframe.KeyframeSelector, "process_frame", recorded)
        tracer = _install_bench_tracer(monkeypatch)
        try:
            code = run("keyframes", "--clouds", data / "clouds",
                       "--trajectory", data / "trajectory.tum", "--voxel-size", "0.5",
                       "--radius", "10", "--commit", "always", "--out", tmp_path / "o")
        finally:
            tracer.unpatch()
        assert code == 0
        assert {"voxel_map.stage_frame", "voxel_map.commit", "voxel_map.prune_outside",
                "wasserstein.map_dissimilarity", "keyframe.process_frame"} <= set(tracer.names)
        kept = [tracer.kept[k] for k, name in enumerate(tracer.names)
                if name == "keyframe.process_frame"]
        assert len(kept) == len(seen) == 7  # every frame after the bootstrap one
        for (decision, size), (decision_seen, size_seen) in zip(kept, seen):
            assert decision is decision_seen and size == size_seen > 0

    def test_gauge_underdetermined_exits_two(self, two_session_dataset, tmp_path, capsys):
        # no loops and no alignment prior leaves session 2 as a floating
        # component: fixed session-1 nodes anchor nothing across the gap
        out = tmp_path / "gauge"
        code = run("merge", "--graph", two_session_dataset / "session1.g2o",
                   "--trajectory", two_session_dataset / "session2_estimate.tum",
                   "--odometry", two_session_dataset / "session2_odometry.txt",
                   "--out", out)
        assert code == 2
        assert "gauge underdetermined" in capsys.readouterr().err

    def test_t_init_identity_on_prealigned_data(self, two_session_dataset, tmp_path):
        out = tmp_path / "aligned"
        code = run("merge", "--graph", two_session_dataset / "session1.g2o",
                   "--trajectory", two_session_dataset / "session2_estimate.tum",
                   "--odometry", two_session_dataset / "session2_odometry.txt",
                   "--loops", two_session_dataset / "loops.txt",
                   "--t-init", "0", "0", "0", "0", "0", "0", "1", "--out", out)
        assert code == 0
        before = read_tum(two_session_dataset / "session2_estimate.tum")
        after = read_tum(out / "session2.tum")
        truth2 = read_tum(two_session_dataset / "session2_truth.tum")
        truth1 = read_tum(two_session_dataset / "session1_truth.tum")
        graph1 = read_graph(two_session_dataset / "session1.g2o")

        def max_gap(xs, ys):
            return max(np.linalg.norm(np.asarray(a) - np.asarray(b))
                       for a, b in zip(xs, ys))

        # per-session accumulated odometry drift is the noise level here;
        # session-1 drift matters too because its (fixed) estimate anchors
        # the loop closures
        drift1 = max_gap([graph1.nodes[i].pose.translation
                          for i in sorted(graph1.nodes)],
                         [e.pose.translation for e in truth1])
        drift2 = max_gap([e.pose.translation for e in before],
                         [e.pose.translation for e in truth2])
        noise_level = drift1 + drift2 + 0.02
        assert max_gap([e.pose.translation for e in before],
                       [e.pose.translation for e in after]) < noise_level
        assert max_gap([e.pose.translation for e in after],
                       [e.pose.translation for e in truth2]) < noise_level


class TestFailedCommand:
    @pytest.fixture(scope="class")
    def one_frame_dataset(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("one_frame")
        assert run("synth", "--kind", "corridor", "--frames", "1", "--points", "300",
                   "--out", out) == 0
        return out

    @pytest.mark.parametrize("argv, message", [
        (lambda two, one: ["merge", "--graph", two / "absent.g2o",
                           "--trajectory", two / "session2_estimate.tum",
                           "--odometry", two / "session2_odometry.txt"], "absent.g2o"),
        (lambda two, one: ["calibrate", "--clouds", one / "clouds",
                           "--trajectory", one / "trajectory.tum"], "insufficient frames"),
        (lambda two, one: ["synth", "--kind", "two_session", "--frames", "0"], "non-empty"),
        (lambda two, one: ["synth", "--kind", "corridor", "--max-range", "nan"],
         "max_range must be positive"),
        (lambda two, one: ["synth", "--kind", "corridor", "--noise", "inf"],
         "sigma must be finite"),
        (lambda two, one: ["synth", "--kind", "two_session", "--noise", "inf"],
         "noise sigmas must be finite"),
        (lambda two, one: ["synth", "--kind", "two_session", "--noise-rot", "inf"],
         "noise sigmas must be finite"),
        (lambda two, one: ["synth", "--kind", "corridor", "--seed", "-1"],
         "--seed must be >= 0"),
        (lambda two, one: ["synth", "--kind", "loop_course", "--seed", "-1"],
         "--seed must be >= 0"),
        (lambda two, one: ["synth", "--kind", "two_session", "--seed", "-1"],
         "--seed must be >= 0"),
    ], ids=["merge-missing-graph", "calibrate-one-frame", "two-session-no-frames",
            "corridor-nan-range", "corridor-inf-noise", "two-session-inf-noise",
            "two-session-inf-rotation-noise", "corridor-negative-seed", "loop-course-negative-seed",
            "two-session-negative-seed"])
    def test_writes_nothing(self, argv, message, two_session_dataset, one_frame_dataset,
                            tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*argv(two_session_dataset, one_frame_dataset), "--out", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
