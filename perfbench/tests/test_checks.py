"""The benchmark's correctness checks pass on real outputs and fail on
deliberately corrupted ones.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io

import numpy as np
import pytest

import checks
import gen
from wassmap import cli

KF = gen.KeyframeInputs(frames_per_lap=12, laps=1, points=4000, voxel_size=1.0,
                        tau=0.1, radius=100.0, commit="keyframes")
MERGE = gen.MergeInputs(nodes1=30, nodes2=40, loops=5, max_iterations=10)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def kf_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("kf")
    gen.write_keyframe_inputs(KF, 3, d / "clouds", d / "trajectory.tum", d / "warm", 2)
    _run(KF.cli_args(d / "clouds", d / "trajectory.tum", d / "out"))
    return d


@pytest.fixture(scope="module")
def merge_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("merge")
    gen.write_merge_inputs(MERGE, 4, d / "inputs")
    _run(MERGE.cli_args(d / "inputs", d / "out"))
    return d


def _check_kf(d, out):
    clouds = sorted((d / "clouds").glob("*.pcd"), key=lambda p: float(p.stem))
    return checks.check_keyframes(clouds, d / "trajectory.tum", out, KF.tau, KF.voxel_size,
                                  KF.radius, False, np.random.default_rng(0),
                                  n_sample=KF.frames)


def _copy(src, dst):
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def _edit_decisions(out, edit):
    path = out / "decisions.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_keyframe_checks_pass_on_program_output(kf_run):
    assert _check_kf(kf_run, kf_run / "out") == []


def test_perturbed_dw_fails(kf_run, tmp_path):
    out = _copy(kf_run / "out", tmp_path / "out")

    def perturb(lines):
        for k, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if cells[2] not in ("inf", "nan"):
                # small enough to leave the keyframe decision unchanged
                cells[2] = repr(float(cells[2]) + 1e-4)
                lines[k] = ",".join(cells)
                return lines
        raise AssertionError("no scored frame")
    _edit_decisions(out, perturb)
    failures = _check_kf(kf_run, out)
    assert any("reference" in f and ": dw " in f for f in failures), failures


def test_dropped_decision_row_fails(kf_run, tmp_path):
    out = _copy(kf_run / "out", tmp_path / "out")
    _edit_decisions(out, lambda lines: lines[:4] + lines[5:])
    failures = _check_kf(kf_run, out)
    assert any("offered frames" in f for f in failures), failures


def test_keyframe_list_off_the_rule_fails(kf_run, tmp_path):
    out = _copy(kf_run / "out", tmp_path / "out")
    listed = (out / "keyframes.txt").read_text().split()
    (out / "keyframes.txt").write_text("".join(f"{k}\n" for k in listed + ["7"]))
    failures = _check_kf(kf_run, out)
    assert any("keyframes.txt" in f for f in failures), failures


def test_merge_checks_pass_on_program_output(merge_run):
    assert checks.check_merge(merge_run / "inputs", merge_run / "out", MERGE.t_init()) == []


def test_moved_session1_node_fails(merge_run, tmp_path):
    out = _copy(merge_run / "out", tmp_path / "out")
    path = out / "merged.g2o"
    lines = path.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("VERTEX_SE3:QUAT 5 "))
    tokens = lines[k].split()
    tokens[2] = repr(float(tokens[2]) + 0.01)
    lines[k] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    failures = checks.check_merge(merge_run / "inputs", out, MERGE.t_init())
    assert any("session-1 nodes changed" in f for f in failures), failures


def test_rising_cost_trace_fails(merge_run, tmp_path):
    out = _copy(merge_run / "out", tmp_path / "out")
    path = out / "report.txt"
    lines = [line + " 1e9" if line.startswith("cost_trace=") else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    failures = checks.check_merge(merge_run / "inputs", out, MERGE.t_init())
    assert "cost trace increases" in failures, failures
