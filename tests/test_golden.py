"""Golden outputs: the SHA-256 of every file the commands write on fixed inputs.

`synth` writes the inputs at fixed seeds; `keyframes` (both commit policies)
and `calibrate` run on its clouds, and `merge` at two iteration budgets on its
two-session sets. Every command runs with paths relative to its working
directory, so config.txt holds no temporary directory. decisions.csv is
hashed without its `ms` column, the one timing value any output holds.

The outputs print scores to 9 significant digits, which hides a change in the
last bits of a score; so the scores of the same selections are also hashed as
`float.hex`, through the API the commands call.

tests/golden.json holds the hashes and the numpy and scipy versions they were
made with. A change of answer edits it by hand and names each changed file in
CHANGES.md; nothing here rewrites it.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy

from wassmap.cli import main
from wassmap.io import pair_frames, read_cloud_dir, read_pcd, read_tum
from wassmap.keyframe import KeyframeSelector, SelectorConfig

GOLDEN = Path(__file__).with_name("golden.json")

SYNTH = {
    "corridor": ["--kind", "corridor"],
    "loop": ["--kind", "loop_course", "--frames", "20", "--seed", "4"],
    "two": ["--kind", "two_session"],
    "two9": ["--kind", "two_session", "--frames", "30", "--noise-rot", "0.3", "--seed", "9"],
}
VOXEL_SIZE = 0.5
POLICIES = ("keyframes", "always")


def _commands():
    """(output directory, argv) of every command, inputs first."""
    for name, flags in SYNTH.items():
        yield name, ["synth", *flags]
    for data in ("corridor", "loop"):
        inputs = ["--clouds", f"{data}/clouds", "--trajectory", f"{data}/trajectory.tum",
                  "--voxel-size", str(VOXEL_SIZE)]
        for policy in POLICIES:
            yield f"{data}_{policy}", ["keyframes", *inputs, "--commit", policy]
        yield f"{data}_calibrate", ["calibrate", *inputs]
    for data in ("two", "two9"):
        for budget in (6, 100):
            yield f"{data}_merge{budget}", [
                "merge", "--graph", f"{data}/session1.g2o",
                "--trajectory", f"{data}/session2_estimate.tum",
                "--odometry", f"{data}/session2_odometry.txt",
                "--loops", f"{data}/loops.txt", "--max-iterations", str(budget)]


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "decisions.csv":
        lines = data.decode("ascii").splitlines()
        ms = lines[0].split(",").index("ms")
        data = "\n".join(",".join(v for k, v in enumerate(line.split(",")) if k != ms)
                         for line in lines).encode("ascii")
    return hashlib.sha256(data).hexdigest()


def _score_digest(data: str, commit: str) -> str:
    """SHA-256 of the `float.hex` of each frame's score, as `keyframes` selects."""
    clouds = read_cloud_dir(f"{data}/clouds")
    poses = pair_frames([stamp for _, stamp in clouds], read_tum(f"{data}/trajectory.tum"))
    selector = KeyframeSelector(SelectorConfig(voxel_size=VOXEL_SIZE, commit=commit))
    decisions = selector.run_sequence(
        (read_pcd(path), pose, stamp) for (path, stamp), pose in zip(clouds, poses))
    return hashlib.sha256(" ".join(d.dw.hex() for d in decisions).encode()).hexdigest()


def golden_hashes(root: Path, monkeypatch) -> dict:
    """Run every command under `root` and hash what it wrote, by relative path."""
    monkeypatch.chdir(root)
    for out, argv in _commands():
        assert main([*argv, "--out", out]) == 0, argv
    hashes = {str(p.relative_to(root)): _file_digest(p)
              for p in sorted(root.rglob("*")) if p.is_file()}
    for data in ("corridor", "loop"):
        for policy in POLICIES:
            hashes[f"{data}_{policy} scores as float.hex"] = _score_digest(data, policy)
    return hashes


def test_outputs_match_golden_hashes(tmp_path, monkeypatch, capsys):
    golden = json.loads(GOLDEN.read_text())
    got = golden_hashes(tmp_path, monkeypatch)
    capsys.readouterr()
    expected = golden["sha256"]
    problems = [f"{name}: missing" for name in sorted(set(expected) - set(got))]
    problems += [f"{name}: not in golden.json, sha256 {got[name]}"
                 for name in sorted(set(got) - set(expected))]
    problems += [f"{name}: sha256 {got[name]}, golden {expected[name]}"
                 for name in sorted(set(got) & set(expected)) if got[name] != expected[name]]
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    made_with = {name: golden[name] for name in versions}
    if problems and versions != made_with:
        problems.append(f"golden.json was made with {made_with}, this run has {versions}")
    assert not problems, "\n".join(problems)
