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
used by the residuals. Graph and edge-list readers build one `Edges` table
per file; its batched check names the `path:line` of a bad row, and a line
that fails to parse is reported only if no edge above it is bad.
"""

from __future__ import annotations

import io as _stdio
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wassmap.geometry import Pose, Rotation, as_points
from wassmap.pose_graph import EdgeError, Edges, PoseGraph

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


def read_pcd(path) -> np.ndarray:
    """Read one PCD v0.7 file's x, y, z (4-byte floats) as an (N, 3) float64
    array, every row as stored, non-finite ones included."""
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
        xyz = np.empty((n_points, 3))
        for k, axis in enumerate("xyz"):
            xyz[:, k] = records[axis]
    else:
        raise ParseError(path, f"unsupported DATA mode {mode!r}", line=line_no)
    return xyz


def write_pcd(path, points) -> None:
    """Write x y z points as binary PCD v0.7; values are stored as 32-bit floats."""
    pts = as_points(points, np.float32)
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
        "DATA binary\n"
    )
    Path(path).write_bytes(header.encode("ascii") + pts.astype("<f4").tobytes())


def stem_timestamp(path) -> float | None:
    """The time a cloud file's name gives: its stem as a finite number, else None."""
    try:
        stamp = float(Path(path).stem)
    except ValueError:
        return None
    return stamp if math.isfinite(stamp) else None


def read_cloud_dir(directory) -> list[tuple[Path, float | None]]:
    """(path, `stem_timestamp`) of every *.pcd file in a directory, in time
    order. Files whose names are not timestamps come last, by name, and are
    logged, since no pose can be paired with them. No file is read."""
    files = sorted(Path(directory).glob("*.pcd"), key=lambda p: p.name)
    clouds = [(p, stem_timestamp(p)) for p in files]
    clouds.sort(key=lambda cloud: (cloud[1] is None, cloud[1] or 0.0))
    for path, stamp in clouds:
        if stamp is None:
            logger.warning("%s: file name is not a timestamp; the cloud stays unpaired", path)
    return clouds


# ---------------------------------------------------------------------------
# TUM trajectories

def _decode_lines(path):
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise ParseError(path, "non-ascii bytes") from None
    return text.splitlines()


def _format_pose(pose: Pose) -> str:
    t = pose.translation
    q = pose.rotation
    return "%.17g %.17g %.17g %.17g %.17g %.17g %.17g" % (
        t[0], t[1], t[2], q.x, q.y, q.z, q.w
    )


def read_tum(path) -> list[TrajectoryEntry]:
    path = Path(path)
    entries: list[TrajectoryEntry] = []
    previous = None
    for line_no, line in enumerate(_decode_lines(path), 1):
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
        lines.append("%.9f " % timestamp + _format_pose(pose))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")


def pair_frames(stamps, trajectory, max_dt: float = 0.05) -> list[Pose | None]:
    """Nearest-timestamp association of cloud times to poses.

    Returns, for each stamp in order, the trajectory pose nearest to it, or
    None when the stamp is None or no pose lies within ``max_dt`` seconds.
    Raises ValueError when no stamp pairs.
    """
    if not stamps or not trajectory:
        raise ValueError("clouds and trajectory must both be non-empty")
    if not max_dt >= 0:
        raise ValueError("max_dt must be >= 0")
    times = np.array([entry.timestamp for entry in trajectory])
    poses = []
    for stamp in stamps:
        pose = None
        if stamp is not None:
            idx = int(np.searchsorted(times, stamp))
            best = min(
                (k for k in (idx - 1, idx) if 0 <= k < len(times)),
                key=lambda k: abs(times[k] - stamp),
            )
            if abs(times[best] - stamp) <= max_dt:
                pose = trajectory[best].pose
        poses.append(pose)
    if all(pose is None for pose in poses):
        raise ValueError(f"no cloud paired with a pose within {max_dt} s")
    return poses


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

# the 21 upper-triangular entries of a 6x6 information matrix, row-major
_UPPER = np.triu_indices(6)


def _format_edge(ids, measurement, information) -> str:
    """The record `_parse_edge` reads: EDGE_SE3_PRIOR for one endpoint,
    EDGE_SE3:QUAT for two."""
    record = "EDGE_SE3_PRIOR" if len(ids) == 1 else "EDGE_SE3:QUAT"
    upper = " ".join("%.17g" % v for v in information[_UPPER])
    return " ".join([record, *map(str, ids), _format_pose(measurement), upper])


def _info_from_upper(values) -> np.ndarray:
    info = np.zeros((6, 6))
    info[_UPPER] = values
    info[_UPPER[::-1]] = values
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


def _parse_edge(path, tokens, line_no, n_ids):
    """An edge record's tokens, record name first, to (ids, measurement,
    information): `n_ids` endpoints, a pose and a 21-entry upper triangle."""
    expected = 1 + n_ids + 7 + 21
    if len(tokens) != expected:
        raise ParseError(path, f"edge needs {expected} tokens, got {len(tokens)}", line=line_no)
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
    return ids, measurement, _info_from_upper(values)


def _edge_table(path, rows) -> Edges:
    """`Edges` of (line, *columns) rows; a row it rejects is a ParseError at its line."""
    lines, *columns = zip(*rows) if rows else ((),)
    try:
        return Edges(*columns)
    except EdgeError as err:
        raise ParseError(path, err.detail, line=lines[err.row]) from None


def write_graph(path, graph: PoseGraph) -> None:
    lines = []
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        lines.append(f"# SESSION {node.id} {node.session}")
        if node.fixed:
            lines.append(f"# FIX {node.id}")
        lines.append(f"VERTEX_SE3:QUAT {node.id} {_format_pose(node.pose)}")
    edges = graph.edges
    for kind, i, j, measurement, info, huber, delta in zip(
            edges.kind, edges.i.tolist(), edges.j.tolist(), edges.measurement,
            edges.information, edges.huber, edges.delta.tolist()):
        lines.append(f"# KIND {kind} {'huber' if huber else 'none'} {'%.17g' % delta}")
        lines.append(_format_edge((i,) if kind == "prior" else (i, j), measurement, info))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")


def read_graph(path) -> PoseGraph:
    """Parse a g2o-style graph with session/fix/kind comment annotations.

    Files without `# KIND` comments still load: binary edges between
    consecutive ids count as odometry, others as loops with the default
    Huber kernel; priors are explicit via EDGE_SE3_PRIOR.
    """
    path = Path(path)
    sessions: dict[int, int] = {}
    fixed: set[int] = set()
    pending_kind = None
    vertices: dict[int, Pose] = {}
    rows = []  # line, kind, i, j, measurement, information, kernel, delta
    try:
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
                    raise ParseError(path, f"vertex needs 9 tokens, got {len(tokens)}",
                                     line=line_no)
                try:
                    node_id = int(tokens[1])
                except ValueError:
                    raise ParseError(path, "bad vertex id", line=line_no) from None
                if node_id in vertices:
                    raise ParseError(path, f"duplicate vertex {node_id}", line=line_no)
                vertices[node_id] = _parse_pose(path, tokens[2:9], line_no)
                continue
            if tokens[0] in ("EDGE_SE3:QUAT", "EDGE_SE3_PRIOR"):
                prior = tokens[0] == "EDGE_SE3_PRIOR"
                ids, measurement, info = _parse_edge(path, tokens, line_no, 1 if prior else 2)

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
                j = None if prior else ids[1]
                if any(k not in vertices for k in ids):
                    raise ParseError(path, f"edge ({ids[0]}, {j}) references a missing node",
                                     line=line_no)
                rows.append((line_no, kind, ids[0], j, measurement, info, kernel, delta))
                continue
            raise ParseError(path, f"unknown record {tokens[0]!r}", line=line_no)
    except ParseError:
        _edge_table(path, rows)  # a bad edge above the fault is reported first
        raise

    graph = PoseGraph()
    for node_id, pose in vertices.items():
        graph.add_node(node_id, pose, sessions.get(node_id, 1), node_id in fixed)
    graph.edges = _edge_table(path, rows)
    return graph


def read_edge_list(path) -> Edges:
    """EDGE_SE3:QUAT lines as an `Edges` table of odometry rows;
    `merge_sessions` gives each list its kind. A row the table rejects raises
    ParseError at its line."""
    path = Path(path)
    rows = []
    try:
        for line_no, line in enumerate(_decode_lines(path), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if tokens[0] != "EDGE_SE3:QUAT":
                raise ParseError(path, f"unknown record {tokens[0]!r}", line=line_no)
            (i, j), measurement, info = _parse_edge(path, tokens, line_no, 2)
            rows.append((line_no, "odometry", i, j, measurement, info))
    except ParseError:
        _edge_table(path, rows)  # a bad edge above the fault is reported first
        raise
    return _edge_table(path, rows)


def write_edge_list(path, edges: Edges) -> None:
    """Write an `Edges` table of binary edges as EDGE_SE3:QUAT lines."""
    lines = [_format_edge((i, j), measurement, info)
             for i, j, measurement, info in zip(edges.i.tolist(), edges.j.tolist(),
                                                 edges.measurement, edges.information)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")
