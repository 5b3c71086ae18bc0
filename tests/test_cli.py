import filecmp
import math
from pathlib import Path

import numpy as np
import pytest

import wassmap.keyframe
from wassmap.cli import RunConfig, main, resolve_config
from wassmap.io import read_graph, read_tum, write_pcd
from wassmap.wasserstein import InvalidCovarianceError


def run(*argv):
    return main([str(a) for a in argv])


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
            estimator = None
            min_points = None
            agg = None
            commit = None
            seed = None
            max_dt = None

        cfg = resolve_config(Args())
        assert cfg.tau == 1.5          # flag wins
        assert cfg.voxel_size == 2.5   # file beats default
        assert cfg.min_points == 7
        assert cfg.radius == 100.0     # default

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        for line in ("bogus=1", "threads=1"):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"tau=0.2\n{line}\n")
            code = run("synth", "--config", cfg_file, "--out", tmp_path / "o")
            assert code == 1
            assert "unknown config key" in capsys.readouterr().err

    def test_bad_flag_exits_one(self, capsys):
        assert run("keyframes", "--clouds") == 1
        assert run("unknown-command") == 1

    def test_config_echoed(self, corridor_dataset):
        text = (corridor_dataset / "config.txt").read_text()
        assert "command=synth" in text
        assert "voxel_size=4.0" in text
        assert "seed=5" in text


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
                       "--loops", tmp_path / "absent.txt",
                       "--t-init-prior", "--out", out)
        assert code == 0
        assert any("loop" in r.message for r in caplog.records)
        assert (out / "merged.g2o").exists()

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
