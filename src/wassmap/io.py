"""File formats: PCD point clouds, TUM trajectories, decision CSVs, graphs.

Every reader raises `ParseError` with file and line (or byte offset) context
for any malformed input; no parser failure escapes as a bare exception from a
different layer. Writers validate their inputs and raise ValueError, since a
bad argument is a programming error rather than a data error.

PCD support covers v0.7 ASCII and binary (little-endian) with x, y, z stored
as 32-bit floats; extra fields are skipped using the declared record layout.
TUM lines are `timestamp tx ty tz qx qy qz qw`. Graph files use g2o-style
`VERTEX_SE3:QUAT` / `EDGE_SE3:QUAT` / `EDGE_SE3_PRIOR` records, with session
numbers, fixed flags, and edge kinds carried in comment lines so a plain g2o
reader still understands the geometry. Information matrices are stored as 21
upper-triangular entries, row-major, in the tangent order (rotation first)
used by the residuals.
"""

from __future__ import annotations

import io as _stdio
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wassmap.geometry import Pose, Rotation
from wassmap.pose_graph import PoseGraph

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed input file; message carries path plus line or byte offset."""

    def __init__(self, path, detail: str, line: int | None = None, offset: int | None = None):
        location = str(path)
        if line is not None:
            location += f":{line}"
        message = f"{location}: {detail}"
        if offset is not None:
            message += f" (byte offset {offset})"
        super().__init__(message)
        self.path = str(path)
        self.line = line
        self.offset = offset


@dataclass
class CloudFrame:
    frame_index: int
    timestamp: float
    points: np.ndarray
    dropped: int = 0  # non-finite rows removed on read


@dataclass(frozen=True)
class TrajectoryEntry:
    timestamp: float
    pose: Pose


# ---------------------------------------------------------------------------
# PCD

_PCD_TYPE_MAP = {
    ("F", 4): "<f4",
    ("F", 8): "<f8",
    ("I", 1): "<i1",
    ("I", 2): "<i2",
    ("I", 4): "<i4",
    ("I", 8): "<i8",
    ("U", 1): "<u1",
    ("U", 2): "<u2",
    ("U", 4): "<u4",
    ("U", 8): "<u8",
}


def _pcd_header(path, raw: bytes):
    """Parse header lines up to and including DATA; returns (header, offset)."""
    header: dict[str, list[str]] = {}
    offset = 0
    line_no = 0
    while True:
        newline = raw.find(b"\n", offset)
        if newline < 0:
            raise ParseError(path, "header has no DATA line", offset=offset)
        line_no += 1
        try:
            text = raw[offset:newline].decode("ascii")
        except UnicodeDecodeError:
            raise ParseError(path, "non-ascii bytes in header", line=line_no) from None
        offset = newline + 1
        text = text.strip()
        if not text or text.startswith("#"):
            continue
        tokens = text.split()
        header[tokens[0].upper()] = tokens[1:]
        if tokens[0].upper() == "DATA":
            return header, offset, line_no


def _int_field(path, header, key, line_no):
    values = header.get(key)
    if not values:
        raise ParseError(path, f"missing header field {key}", line=line_no)
    try:
        return int(values[0])
    except ValueError:
        raise ParseError(path, f"bad {key} value {values[0]!r}", line=line_no) from None


def read_pcd(path, frame_index: int = 0, timestamp: float | None = None) -> CloudFrame:
    """Read one PCD v0.7 file; x, y, z must be 4-byte floats.

    When `timestamp` is not given, a numeric file stem (the usual
    `<seconds>.pcd` layout) supplies it, defaulting to 0.0 otherwise.
    """
    path = Path(path)
    raw = path.read_bytes()
    header, offset, line_no = _pcd_header(path, raw)

    fields = header.get("FIELDS") or header.get("COLUMNS")
    if not fields:
        raise ParseError(path, "missing header field FIELDS", line=line_no)
    n_fields = len(fields)

    def _int_list(key, default=None):
        values = header.get(key, default)
        if values is None or len(values) != n_fields:
            raise ParseError(path, f"header {key} does not match FIELDS", line=line_no)
        try:
            return [int(v) for v in values]
        except ValueError:
            raise ParseError(path, f"bad {key} entry", line=line_no) from None

    sizes = _int_list("SIZE")
    counts = _int_list("COUNT", ["1"] * n_fields)
    types = header.get("TYPE")
    if types is None or len(types) != n_fields:
        raise ParseError(path, "header TYPE does not match FIELDS", line=line_no)
    if any(c < 1 for c in counts) or any(s < 1 for s in sizes):
        raise ParseError(path, "non-positive SIZE or COUNT", line=line_no)

    if "POINTS" in header:
        n_points = _int_field(path, header, "POINTS", line_no)
    else:
        n_points = _int_field(path, header, "WIDTH", line_no) * _int_field(
            path, header, "HEIGHT", line_no
        )
    if n_points < 0:
        raise ParseError(path, f"negative POINTS {n_points}", line=line_no)

    for axis in ("x", "y", "z"):
        if axis not in fields:
            raise ParseError(path, f"missing field {axis!r}", line=line_no)
        k = fields.index(axis)
        if types[k].upper() != "F" or sizes[k] != 4 or counts[k] != 1:
            raise ParseError(
                path, f"field {axis!r} must be a scalar 4-byte float", line=line_no
            )

    mode = (header.get("DATA") or [""])[0].lower()
    if mode == "ascii":
        try:
            text = raw[offset:].decode("ascii")
        except UnicodeDecodeError:
            raise ParseError(path, "non-ascii bytes in ascii payload") from None
        rows = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
        if len(rows) != n_points:
            raise ParseError(
                path, f"header says POINTS={n_points} but found {len(rows)} data rows"
            )
        total_cols = sum(counts)
        col_of = {}
        running = 0
        for name, count in zip(fields, counts):
            col_of[name] = running
            running += count
        if n_points == 0:
            xyz = np.empty((0, 3))
        else:
            try:
                table = np.loadtxt(_stdio.StringIO("\n".join(rows)), ndmin=2)
            except ValueError as err:
                raise ParseError(path, f"bad ascii payload: {err}") from None
            if table.shape[1] != total_cols:
                raise ParseError(
                    path,
                    f"expected {total_cols} columns per row, found {table.shape[1]}",
                )
            xyz = table[:, [col_of["x"], col_of["y"], col_of["z"]]]
    elif mode == "binary":
        names, formats, offsets = [], [], []
        running = 0
        for name, typ, size, count in zip(fields, types, sizes, counts):
            fmt = _PCD_TYPE_MAP.get((typ.upper(), size))
            if fmt is None:
                raise ParseError(path, f"unsupported field type {typ}{size}", line=line_no)
            names.append(name)
            formats.append(fmt if count == 1 else (fmt, (count,)))
            offsets.append(running)
            running += size * count
        stride = running
        need = stride * n_points
        have = len(raw) - offset
        if have < need:
            raise ParseError(
                path,
                f"binary payload truncated: need {need} bytes, have {have}",
                offset=len(raw),
            )
        dtype = np.dtype({"names": names, "formats": formats, "offsets": offsets,
                          "itemsize": stride})
        records = np.frombuffer(raw, dtype=dtype, count=n_points, offset=offset)
        xyz = np.stack(
            [records["x"].astype(np.float64), records["y"].astype(np.float64),
             records["z"].astype(np.float64)],
            axis=1,
        ) if n_points else np.empty((0, 3))
    else:
        raise ParseError(path, f"unsupported DATA mode {mode!r}", line=line_no)

    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    finite = np.isfinite(xyz).all(axis=1)
    dropped = int(len(xyz) - int(finite.sum()))
    if dropped:
        xyz = xyz[finite]

    if timestamp is None:
        try:
            timestamp = float(path.stem)
        except ValueError:
            timestamp = 0.0
    return CloudFrame(frame_index, float(timestamp), xyz, dropped)


def write_pcd(path, points, mode: str = "binary") -> None:
    """Write x y z points as PCD v0.7; values are stored as 32-bit floats."""
    if mode not in ("binary", "ascii"):
        raise ValueError(f"unsupported DATA mode {mode!r}")
    pts = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    n = len(pts)
    header = (
        "# .PCD v0.7 - Point Cloud Data file format\n"
        "VERSION 0.7\n"
        "FIELDS x y z\n"
        "SIZE 4 4 4\n"
        "TYPE F F F\n"
        "COUNT 1 1 1\n"
        f"WIDTH {n}\n"
        "HEIGHT 1\n"
        "VIEWPOINT 0 0 0 1 0 0 0\n"
        f"POINTS {n}\n"
        f"DATA {mode}\n"
    )
    path = Path(path)
    if mode == "binary":
        path.write_bytes(header.encode("ascii") + pts.astype("<f4").tobytes())
    else:
        rows = "\n".join("%.9g %.9g %.9g" % (p[0], p[1], p[2]) for p in pts)
        path.write_text(header + rows + ("\n" if n else ""), encoding="ascii")


def read_cloud_dir(directory) -> list[CloudFrame]:
    """All *.pcd files in a directory, ordered and stamped by numeric stem."""
    directory = Path(directory)
    files = sorted(directory.glob("*.pcd"), key=lambda p: p.name)

    def stamp(p: Path) -> float:
        try:
            return float(p.stem)
        except ValueError:
            return math.inf

    files.sort(key=stamp)
    return [read_pcd(p, frame_index=i) for i, p in enumerate(files)]


# ---------------------------------------------------------------------------
# TUM trajectories

def read_tum(path) -> list[TrajectoryEntry]:
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise ParseError(path, "non-ascii bytes") from None
    entries: list[TrajectoryEntry] = []
    previous = None
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 8:
            raise ParseError(path, f"expected 8 columns, got {len(tokens)}", line=line_no)
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(path, "non-numeric value", line=line_no) from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError(path, "non-finite value", line=line_no)
        timestamp, tx, ty, tz, qx, qy, qz, qw = values
        if previous is not None and timestamp <= previous:
            raise ParseError(
                path, f"non-monotonic timestamp {timestamp} after {previous}", line=line_no
            )
        previous = timestamp
        norm = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
        if abs(norm - 1.0) > 1e-3:
            logger.warning("%s:%d: quaternion norm %.6f, renormalizing", path, line_no, norm)
        try:
            rotation = Rotation(qw, qx, qy, qz)
        except ValueError as err:
            raise ParseError(path, f"bad quaternion: {err}", line=line_no) from None
        entries.append(TrajectoryEntry(timestamp, Pose(rotation, (tx, ty, tz))))
    return entries


def write_tum(path, entries) -> None:
    """Write `TrajectoryEntry` items, one TUM line each."""
    lines = []
    previous = None
    for entry in entries:
        timestamp, pose = entry.timestamp, entry.pose
        if previous is not None and timestamp <= previous:
            raise ValueError(f"non-monotonic timestamp {timestamp}")
        previous = timestamp
        q = pose.rotation
        t = pose.translation
        lines.append(
            "%.9f %.17g %.17g %.17g %.17g %.17g %.17g %.17g"
            % (timestamp, t[0], t[1], t[2], q.x, q.y, q.z, q.w)
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")


def pair_frames(clouds, trajectory, max_dt: float = 0.05):
    """Nearest-timestamp association of clouds to poses.

    Returns (pairs, dropped) where pairs is an ordered list of
    (CloudFrame, Pose) and dropped counts clouds without a pose within
    ``max_dt`` seconds. Raises ValueError when nothing survives.
    """
    if not clouds or not trajectory:
        raise ValueError("clouds and trajectory must both be non-empty")
    if max_dt < 0:
        raise ValueError("max_dt must be >= 0")
    stamps = np.array([entry.timestamp for entry in trajectory])
    pairs = []
    dropped = 0
    for cloud in clouds:
        idx = int(np.searchsorted(stamps, cloud.timestamp))
        best = min(
            (k for k in (idx - 1, idx) if 0 <= k < len(stamps)),
            key=lambda k: abs(stamps[k] - cloud.timestamp),
        )
        if abs(stamps[best] - cloud.timestamp) > max_dt:
            dropped += 1
            continue
        pairs.append((cloud, trajectory[best].pose))
    if not pairs:
        raise ValueError(f"no cloud paired with a pose within {max_dt} s")
    return pairs, dropped


# ---------------------------------------------------------------------------
# Decision CSV

DECISIONS_HEADER = "frame,timestamp,dw,keyframe,flag,affected,new,skipped,ms"


def write_decisions_csv(path, decisions) -> None:
    """One row per decision; floats printed with 9 significant digits."""
    lines = [DECISIONS_HEADER]
    for d in decisions:
        timestamp = "" if d.timestamp is None else "%.9g" % d.timestamp
        lines.append(
            "%d,%s,%.9g,%d,%s,%d,%d,%d,%.9g"
            % (d.frame_index, timestamp, d.dw, int(d.keyframe), d.flag,
               d.affected_count, d.new_count, d.skipped_count, d.millis)
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# Graph files (g2o-style)

def _format_pose(pose: Pose) -> str:
    t = pose.translation
    q = pose.rotation
    return "%.17g %.17g %.17g %.17g %.17g %.17g %.17g" % (
        t[0], t[1], t[2], q.x, q.y, q.z, q.w
    )


def _upper_triangle(info: np.ndarray) -> list[float]:
    return [float(info[r, c]) for r in range(6) for c in range(r, 6)]


def _info_from_upper(values) -> np.ndarray:
    info = np.zeros((6, 6))
    it = iter(values)
    for r in range(6):
        for c in range(r, 6):
            v = next(it)
            info[r, c] = v
            info[c, r] = v
    return info


def _parse_pose(path, tokens, line_no) -> Pose:
    try:
        tx, ty, tz, qx, qy, qz, qw = [float(t) for t in tokens]
    except ValueError:
        raise ParseError(path, "non-numeric pose value", line=line_no) from None
    if not all(math.isfinite(v) for v in (tx, ty, tz, qx, qy, qz, qw)):
        raise ParseError(path, "non-finite pose value", line=line_no)
    try:
        rotation = Rotation(qw, qx, qy, qz)
    except ValueError as err:
        raise ParseError(path, f"bad quaternion: {err}", line=line_no) from None
    return Pose(rotation, (tx, ty, tz))


def write_graph(path, graph: PoseGraph) -> None:
    lines = []
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        lines.append(f"# SESSION {node.id} {node.session}")
        if node.fixed:
            lines.append(f"# FIX {node.id}")
        lines.append(f"VERTEX_SE3:QUAT {node.id} {_format_pose(node.pose)}")
    for edge in graph.edges:
        info = " ".join("%.17g" % v for v in _upper_triangle(edge.information))
        lines.append(f"# KIND {edge.kind} {edge.kernel} {'%.17g' % edge.delta}")
        if edge.j is None:
            lines.append(f"EDGE_SE3_PRIOR {edge.i} {_format_pose(edge.measurement)} {info}")
        else:
            lines.append(
                f"EDGE_SE3:QUAT {edge.i} {edge.j} {_format_pose(edge.measurement)} {info}"
            )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")


def _decode_lines(path):
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise ParseError(path, "non-ascii bytes") from None
    return text.splitlines()


def read_graph(path) -> PoseGraph:
    """Parse a g2o-style graph with session/fix/kind comment annotations.

    Files without `# KIND` comments still load: binary edges between
    consecutive ids count as odometry, others as loops with the default
    Huber kernel; priors are explicit via EDGE_SE3_PRIOR.
    """
    path = Path(path)
    graph = PoseGraph()
    sessions: dict[int, int] = {}
    fixed: set[int] = set()
    pending_kind = None
    deferred_nodes: dict[int, Pose] = {}

    def flush_nodes():
        for node_id, pose in deferred_nodes.items():
            graph.add_node(node_id, pose, sessions.get(node_id, 1), node_id in fixed)
        deferred_nodes.clear()

    for line_no, line in enumerate(_decode_lines(path), 1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "#":
            if len(tokens) >= 4 and tokens[1] == "SESSION":
                try:
                    sessions[int(tokens[2])] = int(tokens[3])
                except ValueError:
                    raise ParseError(path, "bad SESSION comment", line=line_no) from None
            elif len(tokens) >= 3 and tokens[1] == "FIX":
                try:
                    fixed.add(int(tokens[2]))
                except ValueError:
                    raise ParseError(path, "bad FIX comment", line=line_no) from None
            elif len(tokens) >= 3 and tokens[1] == "KIND":
                pending_kind = tokens[2:5]
            continue
        if tokens[0] == "VERTEX_SE3:QUAT":
            if len(tokens) != 9:
                raise ParseError(path, f"vertex needs 9 tokens, got {len(tokens)}", line=line_no)
            try:
                node_id = int(tokens[1])
            except ValueError:
                raise ParseError(path, "bad vertex id", line=line_no) from None
            if node_id in deferred_nodes:
                raise ParseError(path, f"duplicate vertex {node_id}", line=line_no)
            deferred_nodes[node_id] = _parse_pose(path, tokens[2:9], line_no)
            continue
        if tokens[0] in ("EDGE_SE3:QUAT", "EDGE_SE3_PRIOR"):
            flush_nodes()
            prior = tokens[0] == "EDGE_SE3_PRIOR"
            n_ids = 1 if prior else 2
            expected = 1 + n_ids + 7 + 21
            if len(tokens) != expected:
                raise ParseError(
                    path, f"edge needs {expected} tokens, got {len(tokens)}", line=line_no
                )
            try:
                ids = [int(t) for t in tokens[1:1 + n_ids]]
            except ValueError:
                raise ParseError(path, "bad edge endpoint", line=line_no) from None
            measurement = _parse_pose(path, tokens[1 + n_ids:8 + n_ids], line_no)
            try:
                values = [float(t) for t in tokens[8 + n_ids:]]
            except ValueError:
                raise ParseError(path, "non-numeric information entry", line=line_no) from None
            if not all(math.isfinite(v) for v in values):
                raise ParseError(path, "non-finite information entry", line=line_no)
            info = _info_from_upper(values)

            if pending_kind:
                kind = pending_kind[0]
                kernel = pending_kind[1] if len(pending_kind) > 1 else None
                try:
                    delta = float(pending_kind[2]) if len(pending_kind) > 2 else 1.0
                except ValueError:
                    raise ParseError(path, "bad KIND delta", line=line_no) from None
                pending_kind = None
            elif prior:
                kind, kernel, delta = "prior", None, 1.0
            else:
                kind = "odometry" if abs(ids[0] - ids[-1]) == 1 else "loop"
                kernel, delta = None, 1.0
            try:
                graph.add_edge(
                    kind, ids[0], None if prior else ids[1], measurement, info,
                    kernel=kernel, delta=delta,
                )
            except ValueError as err:
                raise ParseError(path, str(err), line=line_no) from None
            continue
        raise ParseError(path, f"unknown record {tokens[0]!r}", line=line_no)

    flush_nodes()
    return graph


def read_edge_list(path):
    """EDGE_SE3:QUAT lines as (i, j, measurement, information) tuples."""
    path = Path(path)
    edges = []
    for line_no, line in enumerate(_decode_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] != "EDGE_SE3:QUAT":
            raise ParseError(path, f"unknown record {tokens[0]!r}", line=line_no)
        if len(tokens) != 31:
            raise ParseError(path, f"edge needs 31 tokens, got {len(tokens)}", line=line_no)
        try:
            i, j = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise ParseError(path, "bad edge endpoint", line=line_no) from None
        measurement = _parse_pose(path, tokens[3:10], line_no)
        try:
            values = [float(t) for t in tokens[10:]]
        except ValueError:
            raise ParseError(path, "non-numeric information entry", line=line_no) from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError(path, "non-finite information entry", line=line_no)
        edges.append((i, j, measurement, _info_from_upper(values)))
    return edges


def write_edge_list(path, edges) -> None:
    """Write (i, j, measurement, information) tuples as EDGE_SE3:QUAT lines."""
    lines = []
    for i, j, measurement, information in edges:
        info = np.asarray(information, dtype=float)
        if info.shape != (6, 6):
            raise ValueError("information must be 6x6")
        upper = " ".join("%.17g" % v for v in _upper_triangle(info))
        lines.append(f"EDGE_SE3:QUAT {int(i)} {int(j)} {_format_pose(measurement)} {upper}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")
