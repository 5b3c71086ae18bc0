import math
import re
import warnings

import numpy as np
import pytest

from wassmap.geometry import Pose, Rotation, se3_exp
from wassmap.io import (
    ParseError,
    TrajectoryEntry,
    pair_frames,
    read_cloud_dir,
    read_edge_list,
    read_graph,
    read_pcd,
    read_tum,
    stem_timestamp,
    write_decisions_csv,
    write_edge_list,
    write_graph,
    write_pcd,
    write_tum,
)
from wassmap.keyframe import FrameDecision, KeyframeSelector, SelectorConfig
from wassmap.pose_graph import Edges, PoseGraph

from helpers import (
    assert_maps_identical,
    build_map,
    reference_edge_list_text,
    reference_graph_text,
    reference_tum_text,
    write_ascii_pcd,
    write_padded_pcd,
)


def random_pose(rng):
    return se3_exp(rng.normal(scale=0.6, size=6))


def random_info(rng):
    a = rng.normal(size=(6, 6))
    return a @ a.T + 6.0 * np.eye(6)


def poses_close(a, b, tol=1e-12):
    return np.max(np.abs(a.as_matrix() - b.as_matrix())) <= tol


# the 21 upper-triangular information entries of an identity matrix, and of
# an indefinite one whose first diagonal entry is -1
EYE21 = " ".join("%g" % v for v in np.eye(6)[np.triu_indices(6)])
NEG21 = "-" + EYE21


# ---------------------------------------------------------------------------
# PCD


class TestPcd:
    def test_binary_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(scale=10.0, size=(257, 3)).astype(np.float32)
        f = tmp_path / "0.100000.pcd"
        write_pcd(f, pts)
        points = read_pcd(f)
        assert points.shape == (257, 3) and points.dtype == np.float64
        assert np.array_equal(points.astype(np.float32), pts)
        # file stem supplies the timestamp
        assert stem_timestamp(f) == pytest.approx(0.1)
        # writing what was read reproduces the file byte for byte
        g = tmp_path / "again.pcd"
        write_pcd(g, points)
        assert f.read_bytes() == g.read_bytes()

    def test_ascii_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 3)).astype(np.float32)
        f = tmp_path / "2.5.pcd"
        write_ascii_pcd(f, pts)
        points = read_pcd(f)
        # %.9g preserves float32 exactly
        assert np.array_equal(points.astype(np.float32), pts)
        assert stem_timestamp(f) == 2.5

    def test_extra_fields_ignored(self, tmp_path):
        # intensity column interleaved with xyz, both ascii and binary
        xyz = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32)
        intensity = np.array([9.0, 8.0], dtype=np.float32)
        header = (
            "VERSION 0.7\nFIELDS x y z intensity\nSIZE 4 4 4 4\nTYPE F F F F\n"
            "COUNT 1 1 1 1\nWIDTH 2\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\n"
        )
        fa = tmp_path / "a.pcd"
        fa.write_text(header + "DATA ascii\n1 2 3 9\n4 5 6 8\n")
        assert np.allclose(read_pcd(fa), xyz)

        fb = tmp_path / "b.pcd"
        payload = np.hstack([xyz, intensity[:, None]]).astype("<f4").tobytes()
        fb.write_bytes((header + "DATA binary\n").encode() + payload)
        assert np.array_equal(read_pcd(fb), xyz.astype(float))

    def test_padding_fields_may_repeat(self, tmp_path):
        pts = np.random.default_rng(3).normal(scale=50.0, size=(33, 3)).astype(np.float32)
        for mode in ("binary", "ascii"):
            f = tmp_path / f"{mode}.pcd"
            write_padded_pcd(f, pts, mode)
            np.testing.assert_array_equal(read_pcd(f), pts.astype(float))

    @pytest.mark.parametrize("mode", ["binary", "ascii"])
    def test_repeated_axis_rejected_at_its_header(self, tmp_path, mode):
        f = tmp_path / "twice.pcd"
        f.write_bytes(
            b"FIELDS x y z y\nSIZE 4 4 4 4\nTYPE F F F F\nCOUNT 1 1 1 1\n"
            b"POINTS 1\nDATA " + mode.encode() + b"\n" + b"\x00" * 16
        )
        with pytest.raises(ParseError, match="field 'y' appears more than once") as err:
            read_pcd(f)
        assert str(err.value).startswith(f"{f}:6: ")

    def test_signalling_nan_is_kept_without_a_warning(self, tmp_path):
        f = tmp_path / "snan.pcd"
        write_pcd(f, np.ones((2, 3)))
        raw = bytearray(f.read_bytes())
        raw[-12:-8] = np.array([0x7FA00000], dtype="<u4").tobytes()  # the last x
        f.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = read_pcd(f)
        assert np.isnan(points[1, 0]) and np.isfinite(np.delete(points.ravel(), 3)).all()

    def test_empty_binary_cloud_with_records_wider_than_a_c_int(self, tmp_path):
        f = tmp_path / "wide.pcd"
        f.write_bytes(b"FIELDS x y z pad\nSIZE 4 4 4 8\nTYPE F F F U\nCOUNT 1 1 1 300000000\n"
                      b"POINTS 0\nDATA binary\n")
        assert read_pcd(f).shape == (0, 3)

    def test_point_count_mismatch(self, tmp_path):
        f = tmp_path / "short.pcd"
        f.write_text(
            "FIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            "WIDTH 3\nHEIGHT 1\nPOINTS 3\nDATA ascii\n1 2 3\n4 5 6\n"
        )
        with pytest.raises(ParseError, match="POINTS=3 but found 2"):
            read_pcd(f)

    def test_truncated_binary_reports_offset(self, tmp_path):
        f = tmp_path / "trunc.pcd"
        pts = np.ones((10, 3), dtype="<f4")
        write_pcd(f, pts)
        raw = f.read_bytes()
        f.write_bytes(raw[:-5])
        with pytest.raises(ParseError, match="truncated") as err:
            read_pcd(f)
        assert "byte offset" in str(err.value)

    def test_nonfinite_rows_kept_and_counted_by_the_map(self, tmp_path):
        pts = np.array([[1, 2, 3], [np.nan, 0, 0], [4, 5, 6], [0, np.inf, 0]])
        f = tmp_path / "holes.pcd"
        header = (
            "FIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            "WIDTH 4\nHEIGHT 1\nPOINTS 4\nDATA binary\n"
        )
        f.write_bytes(header.encode() + pts.astype("<f4").tobytes())
        points = read_pcd(f)
        np.testing.assert_array_equal(points, pts)
        # the map is the one filter: it drops and counts the two rows
        selector = KeyframeSelector(SelectorConfig(voxel_size=2.0))
        assert selector.map.stage_frame(points).rejected == 2
        selector.bootstrap(points, Pose.identity())
        finite = build_map(Pose.identity().transform_points(points)[[0, 2]], 2.0)
        assert_maps_identical(selector.map, finite)
        assert selector.map.total_points == finite.total_points == 2

    def test_structured_errors(self, tmp_path):
        cases = {
            "nodata.pcd": b"FIELDS x y z\nSIZE 4 4 4\n",
            "nomode.pcd": b"FIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\nPOINTS 1\nDATA compressed\n1 2 3\n",
            "noy.pcd": b"FIELDS x z\nSIZE 4 4\nTYPE F F\nCOUNT 1 1\nPOINTS 1\nDATA ascii\n1 2\n",
            "f64.pcd": b"FIELDS x y z\nSIZE 8 8 8\nTYPE F F F\nCOUNT 1 1 1\nPOINTS 1\nDATA ascii\n1 2 3\n",
            "badsize.pcd": b"FIELDS x y z\nSIZE 4 4\nTYPE F F F\nCOUNT 1 1 1\nPOINTS 1\nDATA ascii\n1 2 3\n",
            "negative.pcd": b"FIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\nPOINTS -2\nDATA ascii\n",
            "alpha.pcd": b"FIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\nPOINTS 1\nDATA ascii\na b c\n",
        }
        for name, blob in cases.items():
            f = tmp_path / name
            f.write_bytes(blob)
            with pytest.raises(ParseError):
                read_pcd(f)

    def test_point_count_from_width_and_height(self, tmp_path):
        # without POINTS the count is WIDTH x HEIGHT; neither may be negative
        header = "FIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\nWIDTH {}\nHEIGHT {}\nDATA ascii\n"
        rows = "".join(f"{k} {k + 1} {k + 2}\n" for k in range(6))
        f = tmp_path / "organized.pcd"
        f.write_text(header.format(2, 3) + rows)
        np.testing.assert_array_equal(read_pcd(f), np.arange(6)[:, None] + np.arange(3))
        for width, height, message in ((-2, -3, "negative WIDTH -2"),
                                       (2, -3, "negative HEIGHT -3")):
            f.write_text(header.format(width, height) + rows)
            with pytest.raises(ParseError, match=f"^{re.escape(f'{f}:7: {message}')}$"):
                read_pcd(f)

    def test_huge_declared_count_fails_before_allocation(self, tmp_path):
        f = tmp_path / "huge.pcd"
        f.write_bytes(
            b"FIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            b"POINTS 1000000000000\nDATA binary\n\x00\x00"
        )
        with pytest.raises(ParseError, match="truncated"):
            read_pcd(f)

    def test_empty_cloud(self, tmp_path):
        f = tmp_path / "empty.pcd"
        write_ascii_pcd(f, np.empty((0, 3)))
        assert read_pcd(f).shape == (0, 3)

    def test_write_rejects_points_that_are_not_n_by_3(self, tmp_path):
        f = tmp_path / "xyzi.pcd"
        with pytest.raises(ValueError, match=r"shape \(300, 4\)"):
            write_pcd(f, np.zeros((300, 4)))
        assert not f.exists()

    def test_cloud_dir_ordered_by_stem(self, tmp_path, caplog):
        for stamp in (0.3, 0.1, 0.2):
            write_pcd(tmp_path / f"{stamp:.6f}.pcd", np.full((1, 3), stamp))
        write_pcd(tmp_path / "scan_x.pcd", np.zeros((1, 3)))
        with caplog.at_level("WARNING", logger="wassmap.io"):
            clouds = read_cloud_dir(tmp_path)
        assert [p.name for p, _ in clouds] == ["0.100000.pcd", "0.200000.pcd",
                                               "0.300000.pcd", "scan_x.pcd"]
        assert [s for _, s in clouds] == [pytest.approx(0.1), pytest.approx(0.2),
                                          pytest.approx(0.3), None]
        assert [r.message for r in caplog.records] == [
            f"{tmp_path / 'scan_x.pcd'}: file name is not a timestamp; "
            "the cloud stays unpaired"]


# ---------------------------------------------------------------------------
# TUM


class TestTum:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        entries = [TrajectoryEntry(0.1 * k, random_pose(rng)) for k in range(25)]
        f = tmp_path / "traj.txt"
        write_tum(f, entries)
        back = read_tum(f)
        assert len(back) == 25
        for a, b in zip(entries, back):
            assert b.timestamp == pytest.approx(a.timestamp, abs=1e-9)
            assert poses_close(a.pose, b.pose, 1e-12)

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "traj.txt"
        f.write_text("# header\n\n0.0 0 0 0 0 0 0 1\n# more\n1.0 1 0 0 0 0 0 1\n")
        entries = read_tum(f)
        assert [e.timestamp for e in entries] == [0.0, 1.0]
        assert np.allclose(entries[1].pose.translation, [1, 0, 0])

    def test_wrong_column_count_names_line(self, tmp_path):
        f = tmp_path / "traj.txt"
        f.write_text("0.0 0 0 0 0 0 0 1\n1.0 1 0 0\n")
        with pytest.raises(ParseError, match="traj.txt:2"):
            read_tum(f)

    def test_non_monotonic_names_line(self, tmp_path):
        f = tmp_path / "traj.txt"
        f.write_text("1.0 0 0 0 0 0 0 1\n1.0 1 0 0 0 0 0 1\n")
        with pytest.raises(ParseError, match=r"traj.txt:2.*non-monotonic"):
            read_tum(f)

    def test_quaternion_normalized_with_warning(self, tmp_path, caplog):
        f = tmp_path / "traj.txt"
        f.write_text("0.0 0 0 0 0 0 0 1.01\n")
        with caplog.at_level("WARNING", logger="wassmap.io"):
            entries = read_tum(f)
        assert any("quaternion norm" in r.message for r in caplog.records)
        q = entries[0].pose.rotation
        assert math.isclose(q.w**2 + q.x**2 + q.y**2 + q.z**2, 1.0, abs_tol=1e-12)

    def test_small_deviation_silent(self, tmp_path, caplog):
        f = tmp_path / "traj.txt"
        f.write_text("0.0 0 0 0 0 0 0 1.0000001\n")
        with caplog.at_level("WARNING", logger="wassmap.io"):
            read_tum(f)
        assert not caplog.records

    def test_norm_warnings_name_their_lines_in_order(self, tmp_path, caplog):
        # every line up to the first fault is warned about, the faulty line
        # too when its fault is the quaternion check that follows the warning
        f = tmp_path / "traj.txt"
        f.write_text("0.0 0 0 0 0 0 0 1\n"
                     "1.0 0 0 0 0 0 0 1.01\n"
                     "# comment\n"
                     "2.0 0 0 0 0 0 0 1.0000001\n"
                     "3.0 0 0 0 0.5 0 0 0.5\n"
                     "4.0 0 0 0 0 0 0 0\n"
                     "5.0 0 0 0 0 0 0 3\n")
        with caplog.at_level("WARNING", logger="wassmap.io"), pytest.raises(
                ParseError, match=f"^{re.escape(str(f))}:6: bad quaternion: quaternion must"):
            read_tum(f)
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", f"{f}:2: quaternion norm 1.010000, renormalizing"),
            ("WARNING", f"{f}:5: quaternion norm 0.707107, renormalizing"),
            ("WARNING", f"{f}:6: quaternion norm 0.000000, renormalizing"),
        ]

    def test_rejects_garbage(self, tmp_path):
        for body in ("0.0 a 0 0 0 0 0 1\n", "0.0 nan 0 0 0 0 0 1\n",
                     "0.0 0 0 0 0 0 0 0\n"):
            f = tmp_path / "bad.txt"
            f.write_text(body)
            with pytest.raises(ParseError):
                read_tum(f)


# ---------------------------------------------------------------------------
# Pairing


class TestPairFrames:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        traj = [TrajectoryEntry(float(t), random_pose(rng))
                for t in np.sort(rng.uniform(0, 60, size=200))]
        stamps = [float(rng.uniform(-1, 61)) for _ in range(150)]
        max_dt = 0.05

        expected = []
        for stamp in stamps:
            gaps = [abs(e.timestamp - stamp) for e in traj]
            best = int(np.argmin(gaps))
            expected.append(None if gaps[best] > max_dt else traj[best].pose)

        poses = pair_frames(stamps, traj, max_dt=max_dt)
        assert len(poses) == len(stamps)
        assert any(pose is None for pose in poses)
        for pose, want in zip(poses, expected):
            if want is None:
                assert pose is None
            else:
                assert poses_close(pose, want, 0.0)

    def test_drop_counting_and_order(self):
        traj = [TrajectoryEntry(0.0, Pose.identity()),
                TrajectoryEntry(1.0, Pose(Rotation.identity(), (1.0, 0.0, 0.0)))]
        poses = pair_frames([0.01, 0.5, 1.02, None], traj)
        assert poses[0] is traj[0].pose
        assert poses[1] is None
        assert poses[2] is traj[1].pose
        # a cloud without a stamp is not paired, not even with the first pose
        assert poses[3] is None

    def test_zero_survivors_errors(self):
        traj = [TrajectoryEntry(100.0, Pose.identity())]
        with pytest.raises(ValueError, match="no cloud paired"):
            pair_frames([0.0, None], traj)
        with pytest.raises(ValueError):
            pair_frames([], traj)
        with pytest.raises(ValueError):
            pair_frames([0.0], [])

    def test_non_finite_max_dt_rejected(self):
        traj = [TrajectoryEntry(0.0, Pose.identity())]
        with pytest.raises(ValueError, match="max_dt must be >= 0"):
            pair_frames([0.0], traj, max_dt=math.nan)


# ---------------------------------------------------------------------------
# Decisions CSV


class TestDecisionsCsv:
    def _decisions(self):
        return [
            FrameDecision(1, Pose.identity(), math.inf, True, "bootstrap", 0, 12, 0, 1.25,
                          timestamp=0.0),
            FrameDecision(2, Pose.identity(), 0.123456789123, False, "scored", 5, 1, 2, 2.5,
                          timestamp=0.1),
            FrameDecision(3, Pose.identity(), float("nan"), True, "no_comparable", 0, 3, 0, 0.5),
            FrameDecision(4, Pose.identity(), float("nan"), False, "error"),
        ]

    def test_header_and_rows(self, tmp_path):
        f = tmp_path / "decisions.csv"
        write_decisions_csv(f, self._decisions())
        lines = f.read_text().splitlines()
        assert lines[0] == "frame,timestamp,dw,keyframe,flag,affected,new,skipped,ms"
        assert lines[1] == "1,0,inf,1,bootstrap,0,12,0,1.25"
        # 9 significant digits on floats
        assert lines[2] == "2,0.1,0.123456789,0,scored,5,1,2,2.5"
        # missing timestamp leaves the column empty
        assert lines[3] == "3,,nan,1,no_comparable,0,3,0,0.5"
        assert lines[4] == "4,,nan,0,error,0,0,0,0"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        decisions = self._decisions()
        write_decisions_csv(a, decisions)
        write_decisions_csv(b, decisions)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_writes_header_only(self, tmp_path):
        f = tmp_path / "empty.csv"
        write_decisions_csv(f, [])
        assert f.read_text() == "frame,timestamp,dw,keyframe,flag,affected,new,skipped,ms\n"


# ---------------------------------------------------------------------------
# Graph files


def _sample_graph(rng):
    graph = PoseGraph()
    poses = [random_pose(rng) for _ in range(5)]
    for k, pose in enumerate(poses):
        graph.add_node(k, pose, session=1 if k < 3 else 2, fixed=(k == 0))
    ends = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    graph.edges = Edges(["odometry"] * 4 + ["loop", "prior"], [0, 1, 2, 3, 0, 2],
                        [1, 2, 3, 4, 4, None],
                        [poses[i].inverse() * poses[j] for i, j in ends] + [poses[2]],
                        [random_info(rng) for _ in range(6)],
                        [None] * 4 + ["huber", None], [1.0] * 4 + [0.7, 1.0])
    return graph


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        graph = _sample_graph(rng)
        f = tmp_path / "graph.g2o"
        write_graph(f, graph)
        back = read_graph(f)

        assert set(back.nodes) == set(graph.nodes)
        for node_id, node in graph.nodes.items():
            other = back.nodes[node_id]
            assert other.session == node.session
            assert other.fixed == node.fixed
            assert poses_close(other.pose, node.pose, 1e-12)

        a, b = graph.edges, back.edges
        assert len(b) == len(a) == 6
        for name in ("kind", "i", "j", "huber", "delta", "information", "whitener"):
            np.testing.assert_array_equal(getattr(b, name), getattr(a, name), err_msg=name)
        for ma, mb in zip(a.measurement, b.measurement):
            assert poses_close(ma, mb, 1e-12)

    def test_second_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        graph = _sample_graph(rng)
        f, g = tmp_path / "a.g2o", tmp_path / "b.g2o"
        write_graph(f, graph)
        write_graph(g, read_graph(f))
        assert f.read_bytes() == g.read_bytes()

    def test_plain_g2o_without_comments(self, tmp_path):
        # files from other tools carry no kind annotations: consecutive ids
        # load as odometry, the rest as loops with the default robust kernel
        f = tmp_path / "plain.g2o"
        info = " ".join(["100", "0", "0", "0", "0", "0",
                         "100", "0", "0", "0", "0",
                         "100", "0", "0", "0",
                         "100", "0", "0",
                         "100", "0",
                         "100"])
        f.write_text(
            "VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n"
            "VERTEX_SE3:QUAT 1 1 0 0 0 0 0 1\n"
            "VERTEX_SE3:QUAT 2 2 0 0 0 0 0 1\n"
            f"EDGE_SE3:QUAT 0 1 1 0 0 0 0 0 1 {info}\n"
            f"EDGE_SE3:QUAT 0 2 2 0 0 0 0 0 1 {info}\n"
        )
        graph = read_graph(f)
        assert graph.edges.kind.tolist() == ["odometry", "loop"]
        assert graph.edges.huber.tolist() == [False, True]
        assert all(n.session == 1 and not n.fixed for n in graph.nodes.values())

    def test_comment_tokens_other_than_a_lone_hash_are_plain_comments(self, tmp_path):
        # as in the TUM and edge-list readers and g2o's own loader: '#SESSION'
        # and '#FIX', without a space after '#', are comments, not annotations;
        # blank lines are skipped
        f = tmp_path / "comments.g2o"
        f.write_text("#comment\n"
                     "#SESSION 0 2\n"
                     "# SESSION 1 2\n"
                     "VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n"
                     "#FIX 1\n"
                     "\n"
                     "VERTEX_SE3:QUAT 1 1 0 0 0 0 0 1\n"
                     "#! KIND loop\n"
                     f"EDGE_SE3:QUAT 0 1 1 0 0 0 0 0 1 {EYE21}\n")
        graph = read_graph(f)
        assert [(n.id, n.session, n.fixed) for n in graph.nodes.values()] == [
            (0, 1, False), (1, 2, False)]
        assert graph.edges.kind.tolist() == ["odometry"]

    def test_structured_errors(self, tmp_path):
        info21 = " ".join(["1"] * 21)
        vertex = "VERTEX_SE3:QUAT {} 0 0 0 0 0 0 1\n"
        bad = {
            "record.g2o": ("VERTEX_SE3 0 0 0 0 0 0 0 1\n", "1: unknown record 'VERTEX_SE3'"),
            "short_vertex.g2o": ("VERTEX_SE3:QUAT 0 0 0 0\n", "1: vertex needs 9 tokens, got 5"),
            "dup.g2o": (vertex.format(0) * 2, "2: duplicate vertex 0"),
            # a vertex repeated after an edge is caught at its own line too
            "dup_after_edge.g2o": (vertex.format(0) + vertex.format(1)
                                   + f"EDGE_SE3:QUAT 0 1 0 0 0 0 0 0 1 {EYE21}\n"
                                   + vertex.format(0), "4: duplicate vertex 0"),
            "orphan.g2o": (vertex.format(0) + f"EDGE_SE3:QUAT 0 1 0 0 0 0 0 0 1 {info21}\n",
                           "2: edge (0, 1) references a missing node"),
            "short_edge.g2o": (vertex.format(0) + "EDGE_SE3:QUAT 0 1 1 2 3\n",
                               "2: edge needs 31 tokens, got 6"),
            "zeroq.g2o": ("VERTEX_SE3:QUAT 0 0 0 0 0 0 0 0\n",
                          "1: bad quaternion: quaternion must be finite and nonzero"),
            "nanq.g2o": ("VERTEX_SE3:QUAT 0 0 0 0 nan 0 0 1\n", "1: non-finite pose value"),
            # ids are int64 throughout; a larger one is a parse error
            "huge_vertex.g2o": (vertex.format(10 ** 20), "1: bad vertex id"),
            "huge_endpoint.g2o": (vertex.format(0) + "EDGE_SE3:QUAT 0 99999999999999999999 "
                                  f"0 0 0 0 0 0 1 {EYE21}\n", "2: bad edge endpoint"),
            "bad_session.g2o": ("# SESSION x 1\n", "1: bad SESSION comment"),
            "bad_fix.g2o": (vertex.format(0) + "# FIX 0.5\n", "2: bad FIX comment"),
            "bad_delta.g2o": (vertex.format(0) + vertex.format(1) + "# KIND loop huber abc\n"
                              + f"EDGE_SE3:QUAT 0 1 0 0 0 0 0 0 1 {EYE21}\n",
                              "4: bad KIND delta"),
        }
        for name, (body, message) in bad.items():
            f = tmp_path / name
            f.write_text(body)
            with pytest.raises(ParseError, match=f"^{re.escape(f'{f}:{message}')}$"):
                read_graph(f)

    def test_first_fault_is_reported_when_a_later_line_fails_to_parse(self, tmp_path):
        # the edges are checked as one table after parsing, but an indefinite
        # matrix on line 2 still comes before the bad token on line 4
        f = tmp_path / "two_faults.g2o"
        f.write_text("VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n"
                     f"EDGE_SE3_PRIOR 0 0 0 0 0 0 0 1 {NEG21}\n"
                     "VERTEX_SE3:QUAT 1 0 0 0 0 0 0 1\n"
                     "VERTEX_SE3:QUAT 2 0 0 x 0 0 0 1\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(f))}:2: information matrix not"):
            read_graph(f)
        f.write_text("VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n"
                     f"EDGE_SE3_PRIOR 0 0 0 0 0 0 0 1 {EYE21}\n"
                     "VERTEX_SE3:QUAT 1 0 0 0 0 0 0 1\n"
                     "VERTEX_SE3:QUAT 2 0 0 x 0 0 0 1\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(f))}:4: non-numeric pose value$"):
            read_graph(f)

    def test_indefinite_information_rejected(self, tmp_path):
        f = tmp_path / "neg.g2o"
        entries = ["0"] * 21
        entries[0] = "-1"
        f.write_text(
            "VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n"
            "VERTEX_SE3:QUAT 1 1 0 0 0 0 0 1\n"
            "EDGE_SE3:QUAT 0 1 1 0 0 0 0 0 1 " + " ".join(entries) + "\n"
        )
        with pytest.raises(ParseError):
            read_graph(f)

    def test_nan_huber_delta_rejected_at_its_edge(self, tmp_path):
        f = tmp_path / "nan_delta.g2o"
        f.write_text("VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n"
                     "VERTEX_SE3:QUAT 1 1 0 0 0 0 0 1\n"
                     "# KIND loop huber nan\n"
                     f"EDGE_SE3:QUAT 0 1 1 0 0 0 0 0 1 {EYE21}\n")
        message = f"{f}:4: huber delta must be positive"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_graph(f)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        edges = Edges("odometry", range(8), range(1, 9), [random_pose(rng) for _ in range(8)],
                      [random_info(rng) for _ in range(8)])
        f = tmp_path / "odom.txt"
        write_edge_list(f, edges)
        back = read_edge_list(f)
        assert len(back) == 8
        assert back.i.tolist() == list(range(8)) and back.j.tolist() == list(range(1, 9))
        assert back.kind.tolist() == ["odometry"] * 8 and not back.huber.any()
        for m, bm in zip(edges.measurement, back.measurement):
            assert poses_close(m, bm, 1e-12)
        assert np.allclose(edges.information, back.information, atol=1e-12)
        for binfo in back.information:
            assert np.array_equal(binfo, binfo.T)

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "commented.txt"
        f.write_text(f"# i j tx ty tz qx qy qz qw information\n#\n\n"
                     f"EDGE_SE3:QUAT 0 1 0 0 0 0 0 0 1 {EYE21}\n#comment\n")
        edges = read_edge_list(f)
        assert (edges.i.tolist(), edges.j.tolist()) == ([0], [1])

    def test_rejects_other_records(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n")
        with pytest.raises(ParseError):
            read_edge_list(f)

    def test_structured_errors(self, tmp_path):
        edge = "EDGE_SE3:QUAT {} {} 0 0 0 0 0 0 1 {}\n"
        bad = {
            "record.txt": ("EDGE_SE3_PRIOR 0 0 0 0 0 0 0 1\n",
                           "1: unknown record 'EDGE_SE3_PRIOR'"),
            "short.txt": (edge.format(0, 1, EYE21) + "EDGE_SE3:QUAT 1 2 0\n",
                          "2: edge needs 31 tokens, got 4"),
            "endpoint.txt": (edge.format(0, "1.5", EYE21), "1: bad edge endpoint"),
            "huge_endpoint.txt": (edge.format(0, "99999999999999999999", EYE21),
                                  "1: bad edge endpoint"),
            "nanpose.txt": ("EDGE_SE3:QUAT 0 1 0 0 0 0 0 nan 1 " + EYE21 + "\n",
                            "1: non-finite pose value"),
            "zeroq.txt": ("EDGE_SE3:QUAT 0 1 0 0 0 0 0 0 0 " + EYE21 + "\n",
                          "1: bad quaternion: quaternion must be finite and nonzero"),
            "info.txt": (edge.format(0, 1, "y" + EYE21[1:]), "1: non-numeric information entry"),
        }
        for name, (body, message) in bad.items():
            f = tmp_path / name
            f.write_text(body)
            with pytest.raises(ParseError, match=f"^{re.escape(f'{f}:{message}')}$"):
                read_edge_list(f)

    def test_invalid_information_names_its_line(self, tmp_path):
        f = tmp_path / "loops.txt"
        f.write_text(f"EDGE_SE3:QUAT 0 1 0 0 0 0 0 0 1 {EYE21}\n"
                     f"EDGE_SE3:QUAT 1 2 0 0 0 0 0 0 1 {NEG21}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(f))}:2: information matrix not positive definite$"):
            read_edge_list(f)

    def test_first_fault_is_reported_when_a_later_line_fails_to_parse(self, tmp_path):
        f = tmp_path / "two_faults.txt"
        lines = [f"EDGE_SE3:QUAT 0 1 0 0 0 0 0 0 1 {EYE21}",
                 f"EDGE_SE3:QUAT 1 2 0 0 0 0 0 0 1 {NEG21}",
                 f"EDGE_SE3:QUAT 2 3 0 0 0 0 0 0 1 {EYE21}",
                 f"EDGE_SE3:QUAT 3 4 0 0 0 0 0 0 1 x {EYE21[2:]}"]
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(f))}:2: information matrix not"):
            read_edge_list(f)
        lines[1] = lines[0]
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError,
                           match=f"^{re.escape(str(f))}:4: non-numeric information entry$"):
            read_edge_list(f)


# ---------------------------------------------------------------------------
# First fault: the earliest line wins, even when the check that fails there
# runs later in a line's order than the check that fails on a later line


@pytest.mark.parametrize("name, body, message", [
    ("a.tum", "0.0 0 0 0 0 0 0 1\n0.0 0 0 0 0 0 0 1\n1.0 0 0\n",
     "2: non-monotonic timestamp 0.0 after 0.0"),
    ("b.txt", f"EDGE_SE3:QUAT 0 1 0 0 0 0 0 0 1 inf {EYE21[2:]}\nEDGE_SE3:QUAT 1 2 0\n",
     "1: non-finite information entry"),
    ("c.g2o", "VERTEX_SE3:QUAT 0 0 0 x 0 0 0 1\nVERTEX_SE3 1 0 0 0 0 0 0 1\n",
     "1: non-numeric pose value"),
    ("d.g2o", "VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\nVERTEX_SE3:QUAT 1 0 0 0 0 0 0 0\n"
              "VERTEX_SE3:QUAT 2 0 0 0 0 0 0 1\nVERTEX_SE3:QUAT 3 0 0 0\n",
     "2: bad quaternion: quaternion must be finite and nonzero"),
])
def test_earliest_line_fault_is_reported(tmp_path, name, body, message):
    reader = {".tum": read_tum, ".txt": read_edge_list, ".g2o": read_graph}
    f = tmp_path / name
    f.write_text(body)
    with pytest.raises(ParseError, match=f"^{re.escape(f'{f}:{message}')}$"):
        reader[f.suffix](f)


# ---------------------------------------------------------------------------
# Writers: byte for byte the layout of a per-value reference writer


class TestWriterBytes:
    """Each file holds -0.0, 5e-324, 1e-300 and 1e300 in poses and information."""

    def _edges_with_extremes(self, rng, n, kind="odometry"):
        measurements = [random_pose(rng) for _ in range(n)]
        measurements[0] = Pose(Rotation(1.0, -0.0, 5e-324, 1e-300), (-0.0, 1e-300, 1e300))
        info = [random_info(rng) for _ in range(n)]
        info[0] = np.diag([1e-300, 1e300, 5e-324, 1.0, 2.0, 3.0])
        info[0][0, 1] = info[0][1, 0] = -0.0
        return measurements, info

    def test_graph(self, tmp_path):
        rng = np.random.default_rng(12)
        graph = PoseGraph()
        poses = [random_pose(rng) for _ in range(4)]
        poses[1] = Pose(Rotation(-0.0, 1.0, 5e-324, -1e-300), (1e300, 5e-324, -0.0))
        for k, pose in enumerate(poses):
            graph.add_node(k, pose, session=1 + k // 2, fixed=k in (0, 2))
        measurements, info = self._edges_with_extremes(rng, 4)
        graph.edges = Edges(["odometry", "loop", "prior", "loop"], [0, 0, 3, 1],
                            [1, 3, None, 2], measurements, info,
                            [None, "huber", None, "none"], [1.0, 0.25, 1.0, 1e300])
        f = tmp_path / "graph.g2o"
        write_graph(f, graph)
        assert f.read_text(encoding="ascii") == reference_graph_text(graph)
        assert "EDGE_SE3_PRIOR 3 " in f.read_text() and "# FIX 2" in f.read_text()

    def test_edge_list(self, tmp_path):
        rng = np.random.default_rng(13)
        measurements, info = self._edges_with_extremes(rng, 5)
        edges = Edges("odometry", [0, 1, 2, 3, 2 ** 62], [1, 2, 3, 4, 0], measurements, info)
        f = tmp_path / "edges.txt"
        write_edge_list(f, edges)
        assert f.read_text(encoding="ascii") == reference_edge_list_text(edges)

    def test_trajectory(self, tmp_path):
        rng = np.random.default_rng(14)
        entries = [TrajectoryEntry(0.1 * k - 1.0, random_pose(rng)) for k in range(5)]
        entries += [TrajectoryEntry(-0.0, Pose(Rotation(5e-324, 1e-300, 1.0, -0.0),
                                               (5e-324, -1e300, -0.0))),
                    TrajectoryEntry(5e-324, random_pose(rng)), TrajectoryEntry(1e300, Pose())]
        f = tmp_path / "traj.tum"
        write_tum(f, entries)
        assert f.read_text(encoding="ascii") == reference_tum_text(entries)

    def test_empty(self, tmp_path):
        for writer, empty in ((write_graph, PoseGraph()), (write_edge_list, Edges()),
                              (write_tum, [])):
            f = tmp_path / "empty"
            writer(f, empty)
            assert f.read_bytes() == b""


# ---------------------------------------------------------------------------
# Fuzzing: parsers fail loudly but never with an unstructured exception


_PCD_FIELD_TYPES = [("F", 4), ("F", 8), ("U", 1), ("U", 2), ("U", 4), ("U", 8),
                    ("I", 1), ("I", 2), ("I", 4), ("I", 8), ("F", 2), ("U", 3)]


def random_pcd(rng) -> bytes:
    """A PCD file with a random field list: x, y and z among padding and
    extra fields, names repeated, dropped and reordered, random SIZE, TYPE
    and COUNT, and an ascii or binary payload that fits its header or misses
    it by a little. Binary x, y and z hold floats and now and then a
    signalling NaN."""
    names = ["x", "y", "z"] + rng.choice(
        ["_", "intensity", "rgb", "ring", "x", "y", "z"], size=int(rng.integers(0, 5)),
        p=[0.35, 0.2, 0.15, 0.15, 0.05, 0.05, 0.05]).tolist()
    if rng.random() < 0.1:
        names.remove(str(rng.choice(["x", "y", "z"])))
    if rng.random() < 0.5:
        rng.shuffle(names)
    layout = []
    for name in names:
        if name in "xyz" and rng.random() < 0.95:
            layout.append((name, "F", 4, 1))
        else:
            typ, size = _PCD_FIELD_TYPES[int(rng.integers(len(_PCD_FIELD_TYPES)))]
            layout.append((name, typ, size, int(rng.integers(1, 5))))
    names, types, sizes, counts = zip(*layout)
    n = int(rng.integers(0, 6))
    binary = rng.random() < 0.5
    header = "".join(f"{key} {' '.join(map(str, values))}\n" for key, values in (
        ("VERSION", [0.7]), ("FIELDS", names), ("SIZE", sizes), ("TYPE", types),
        ("COUNT", counts), ("WIDTH", [n]), ("HEIGHT", [1]),
        ("POINTS", [n + int(rng.random() < 0.1)]), ("DATA", ["binary" if binary else "ascii"])))
    if binary:
        stride = sum(size * count for size, count in zip(sizes, counts))
        records = rng.integers(0, 256, size=(n, stride), dtype=np.uint8)
        start = 0
        for name, size, count in zip(names, sizes, counts):
            if name in "xyz" and size == 4:
                values = rng.normal(scale=10.0, size=n).astype("<f4")
                values.view("<u4")[rng.random(n) < 0.2] = 0x7FA00000
                records[:, start:start + 4] = values.view(np.uint8).reshape(n, 4)
            start += size * count
        payload = records.tobytes()[:stride * n - int(rng.random() < 0.1)]
    else:
        columns = sum(counts) - int(rng.random() < 0.1)
        payload = "".join(" ".join("%.9g" % v for v in rng.normal(size=columns)) + "\n"
                          for _ in range(n)).encode("ascii")
    return header.encode("ascii") + payload


class TestFuzz:
    READERS = [read_pcd, read_tum, read_graph, read_edge_list]

    def test_random_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(40):
            blob = rng.integers(0, 256, size=int(rng.integers(0, 400)), dtype=np.uint8)
            f = tmp_path / f"fuzz_{trial}.bin"
            f.write_bytes(blob.tobytes())
            for reader in self.READERS:
                try:
                    reader(f)
                except ParseError as err:
                    assert str(err).startswith(f"{f}:"), err

    def test_random_headers(self, tmp_path):
        rng = np.random.default_rng(10)
        read = {"binary": 0, "ascii": 0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for trial in range(400):
                blob = random_pcd(rng)
                f = tmp_path / f"header_{trial}.pcd"
                f.write_bytes(blob)
                try:
                    points = read_pcd(f)
                except ParseError as err:
                    assert str(err).startswith(f"{f}:"), err
                else:
                    assert points.dtype == np.float64 and points.shape[1:] == (3,)
                    read["binary" if b"DATA binary" in blob else "ascii"] += 1
        assert min(read.values()) >= 40, read

    def test_mutated_valid_files(self, tmp_path):
        rng = np.random.default_rng(8)
        pcd = tmp_path / "ok.pcd"
        write_pcd(pcd, rng.normal(size=(20, 3)))
        tum = tmp_path / "ok.txt"
        write_tum(tum, [TrajectoryEntry(0.1 * k, random_pose(rng)) for k in range(10)])
        g2o = tmp_path / "ok.g2o"
        write_graph(g2o, _sample_graph(rng))
        edge_list = tmp_path / "ok.edges"
        edge_rng = np.random.default_rng(9)
        write_edge_list(edge_list, Edges("odometry", range(6), range(1, 7),
                                         [random_pose(edge_rng) for _ in range(6)],
                                         [random_info(edge_rng) for _ in range(6)]))

        for source, reader in ((pcd, read_pcd), (tum, read_tum), (g2o, read_graph),
                               (edge_list, read_edge_list)):
            raw = bytearray(source.read_bytes())
            for trial in range(60):
                mutated = bytearray(raw)
                for _ in range(int(rng.integers(1, 6))):
                    pos = int(rng.integers(0, len(mutated)))
                    mutated[pos] = int(rng.integers(0, 256))
                if rng.random() < 0.3:
                    mutated = mutated[: int(rng.integers(0, len(mutated)))]
                f = tmp_path / f"mut_{source.suffix}_{trial}"
                f.write_bytes(bytes(mutated))
                try:
                    reader(f)
                except ParseError as err:
                    assert str(err).startswith(f"{f}:"), err
