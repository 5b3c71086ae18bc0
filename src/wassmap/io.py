"""File formats: PCD point clouds, TUM trajectories, decision CSVs, graphs.

Every reader raises `ParseError` with file and line (or byte offset) context
for any malformed input; no parser failure escapes as a bare exception from a
different layer. Writers validate their inputs and raise ValueError, since a
bad argument is a programming error rather than a data error.

PCD support covers v0.7 ASCII and binary (little-endian) with x, y, z stored
as 32-bit floats, each named once; extra fields, whose names may repeat, are
skipped using the declared record layout.
TUM lines are `timestamp tx ty tz qx qy qz qw`. Graph files use g2o-style
`VERTEX_SE3:QUAT` / `EDGE_SE3:QUAT` / `EDGE_SE3_PRIOR` records, with session
numbers, fixed flags, and edge kinds carried in comment lines so a plain g2o
reader still understands the geometry. Information matrices are stored as 21
upper-triangular entries, row-major, in the tangent order (rotation first)
used by the residuals. Node ids are int64; a larger one is a parse error.

The text readers (TUM, graph, edge list) parse and check one line at a time
and stop at the first bad line. Graph and edge-list readers keep their edges
in a list and build one `Edges` table per file at the end; its batched check
names the `path:line` of a bad row, and a line that fails to parse is reported
only if no edge above it is bad. The text writers format each record with one
format string, 17 significant digits per value.
"""

from __future__ import annotations

import io as _stdio
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wassmap.geometry import Pose, Rotation, as_points, stack_poses
from wassmap.pose_graph import ID_LIMIT, EdgeError, Edges, PoseGraph

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

# the (TYPE, SIZE) pairs a binary record may hold
_PCD_TYPES = {("F", 4), ("F", 8)} | {(typ, size) for typ in "IU" for size in (1, 2, 4, 8)}


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

    n_points = 1
    for key in ("POINTS",) if "POINTS" in header else ("WIDTH", "HEIGHT"):
        value = _int_field(path, header, key, line_no)
        if value < 0:
            raise ParseError(path, f"negative {key} {value}", line=line_no)
        n_points *= value

    # each field's first column (ascii) and first byte (binary)
    column, byte = [0], [0]
    for size, count in zip(sizes, counts):
        column.append(column[-1] + count)
        byte.append(byte[-1] + size * count)
    axes = []
    for axis in ("x", "y", "z"):
        if axis not in fields:
            raise ParseError(path, f"missing field {axis!r}", line=line_no)
        if fields.count(axis) > 1:
            raise ParseError(path, f"field {axis!r} appears more than once", line=line_no)
        k = fields.index(axis)
        if types[k].upper() != "F" or sizes[k] != 4 or counts[k] != 1:
            raise ParseError(
                path, f"field {axis!r} must be a scalar 4-byte float", line=line_no
            )
        axes.append(k)

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
        if n_points == 0:
            return np.empty((0, 3))
        try:
            table = np.loadtxt(_stdio.StringIO("\n".join(rows)), ndmin=2)
        except ValueError as err:
            raise ParseError(path, f"bad ascii payload: {err}") from None
        if table.shape[1] != column[-1]:
            raise ParseError(
                path, f"expected {column[-1]} columns per row, found {table.shape[1]}"
            )
        return table[:, [column[k] for k in axes]]
    if mode != "binary":
        raise ParseError(path, f"unsupported DATA mode {mode!r}", line=line_no)
    for typ, size in zip(types, sizes):
        if (typ.upper(), size) not in _PCD_TYPES:
            raise ParseError(path, f"unsupported field type {typ}{size}", line=line_no)
    need = byte[-1] * n_points
    have = len(raw) - offset
    if have < need:
        raise ParseError(
            path, f"binary payload truncated: need {need} bytes, have {have}", offset=len(raw)
        )
    if n_points == 0:  # no record dtype, whose itemsize must fit a C int
        return np.empty((0, 3))
    records = np.frombuffer(raw, count=n_points, offset=offset, dtype=np.dtype({
        "names": ["x", "y", "z"], "formats": ["<f4"] * 3,
        "offsets": [byte[k] for k in axes], "itemsize": byte[-1]}))
    xyz = np.empty((n_points, 3))
    with np.errstate(invalid="ignore"):  # a signalling NaN is kept, as every stored row is
        for k, axis in enumerate("xyz"):
            xyz[:, k] = records[axis]
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
# Text records

def _decode_lines(path):
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise ParseError(path, "non-ascii bytes") from None
    return text.splitlines()


def _floats(path, tokens, line_no, what: str) -> list[float]:
    try:
        values = list(map(float, tokens))
    except ValueError:
        raise ParseError(path, f"non-numeric {what}", line=line_no) from None
    if not all(map(math.isfinite, values)):
        raise ParseError(path, f"non-finite {what}", line=line_no)
    return values


def _node_id(path, token, line_no, detail: str) -> int:
    """An int64 node id; any other token raises ParseError with ``detail``."""
    try:
        node_id = int(token)
    except ValueError:
        raise ParseError(path, detail, line=line_no) from None
    if not -ID_LIMIT <= node_id < ID_LIMIT:
        raise ParseError(path, detail, line=line_no)
    return node_id


def _rotation(path, qw, qx, qy, qz, line_no) -> Rotation:
    try:
        return Rotation(qw, qx, qy, qz)
    except ValueError as err:
        raise ParseError(path, f"bad quaternion: {err}", line=line_no) from None


def _parse_pose(path, tokens, line_no) -> Pose:
    """tx ty tz qx qy qz qw as a pose; `Rotation` normalizes the values as read."""
    tx, ty, tz, qx, qy, qz, qw = _floats(path, tokens, line_no, "pose value")
    return Pose(_rotation(path, qw, qx, qy, qz, line_no), (tx, ty, tz))


def _pose_values(poses) -> np.ndarray:
    """tx ty tz qx qy qz qw of each pose, the order the text formats store."""
    q, t = stack_poses(poses)
    return np.concatenate([t, q[:, 1:], q[:, :1]], axis=1)


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")


# ---------------------------------------------------------------------------
# TUM trajectories

_TUM_FORMAT = "%.9f " + " ".join(["%.17g"] * 7)


def read_tum(path) -> list[TrajectoryEntry]:
    path = Path(path)
    entries: list[TrajectoryEntry] = []
    previous = None
    for line_no, line in enumerate(_decode_lines(path), 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 8:
            raise ParseError(path, f"expected 8 columns, got {len(tokens)}", line=line_no)
        timestamp, tx, ty, tz, qx, qy, qz, qw = _floats(path, tokens, line_no, "value")
        if previous is not None and timestamp <= previous:
            raise ParseError(
                path, f"non-monotonic timestamp {timestamp} after {previous}", line=line_no
            )
        previous = timestamp
        norm = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
        if abs(norm - 1.0) > 1e-3:
            logger.warning("%s:%d: quaternion norm %.6f, renormalizing", path, line_no, norm)
        rotation = _rotation(path, qw, qx, qy, qz, line_no)
        entries.append(TrajectoryEntry(timestamp, Pose(rotation, (tx, ty, tz))))
    return entries


def write_tum(path, entries) -> None:
    """Write `TrajectoryEntry` items, one TUM line each."""
    entries = list(entries)
    stamps = [entry.timestamp for entry in entries]
    for previous, timestamp in zip(stamps, stamps[1:]):
        if timestamp <= previous:
            raise ValueError(f"non-monotonic timestamp {timestamp}")
    values = _pose_values(entry.pose for entry in entries).tolist()
    _write_lines(path, [_TUM_FORMAT % (t, *row) for t, row in zip(stamps, values)])


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
_EDGE_VALUES = " ".join(["%.17g"] * 28)  # the measurement, then the upper triangle
_EDGE_FORMAT = "EDGE_SE3:QUAT %d %d " + _EDGE_VALUES
_PRIOR_FORMAT = "EDGE_SE3_PRIOR %d " + _EDGE_VALUES
_VERTEX_FORMAT = "VERTEX_SE3:QUAT %d " + " ".join(["%.17g"] * 7)
_EDGE_TOKENS = {"EDGE_SE3:QUAT": 31, "EDGE_SE3_PRIOR": 30}


def _parse_edge(path, tokens, line_no):
    """An EDGE_SE3:QUAT or EDGE_SE3_PRIOR record's tokens, record name first,
    to (i, j, measurement, upper triangle); j is None for a prior."""
    expected = _EDGE_TOKENS[tokens[0]]
    if len(tokens) != expected:
        raise ParseError(path, f"edge needs {expected} tokens, got {len(tokens)}", line=line_no)
    ids = [_node_id(path, t, line_no, "bad edge endpoint") for t in tokens[1:-28]]
    measurement = _parse_pose(path, tokens[-28:-21], line_no)
    upper = _floats(path, tokens[-21:], line_no, "information entry")
    return ids[0], ids[1] if len(ids) == 2 else None, measurement, upper


def _edge_table(path, rows) -> Edges:
    """`Edges` of (line, kind, i, j, measurement, upper triangle, kernel, delta)
    rows, filling every information matrix at once; a row the table rejects is
    a ParseError at its line."""
    lines, kind, i, j, measurement, upper, kernel, delta = zip(*rows) if rows else [()] * 8
    upper = np.array(upper, dtype=float).reshape(len(rows), 21)
    info = np.zeros((len(rows), 6, 6))
    info[:, _UPPER[0], _UPPER[1]] = upper
    info[:, _UPPER[1], _UPPER[0]] = upper
    try:
        return Edges(kind, i, j, measurement, info, kernel, delta)
    except EdgeError as err:
        raise ParseError(path, err.detail, line=lines[err.row]) from None


def _edge_values(edges: Edges) -> list[list[float]]:
    """Each edge's 28 stored values: its measurement, then its upper triangle."""
    return np.concatenate([_pose_values(edges.measurement),
                           edges.information[:, _UPPER[0], _UPPER[1]]], axis=1).tolist()


def write_graph(path, graph: PoseGraph) -> None:
    nodes = [graph.nodes[node_id] for node_id in sorted(graph.nodes)]
    lines = []
    for node, values in zip(nodes, _pose_values(node.pose for node in nodes).tolist()):
        lines.append(f"# SESSION {node.id} {node.session}")
        if node.fixed:
            lines.append(f"# FIX {node.id}")
        lines.append(_VERTEX_FORMAT % (node.id, *values))
    edges = graph.edges
    for kind, i, j, huber, delta, values in zip(
            edges.kind, edges.i.tolist(), edges.j.tolist(), edges.huber, edges.delta.tolist(),
            _edge_values(edges)):
        lines.append(f"# KIND {kind} {'huber' if huber else 'none'} {'%.17g' % delta}")
        lines.append(_PRIOR_FORMAT % (i, *values) if kind == "prior"
                     else _EDGE_FORMAT % (i, j, *values))
    _write_lines(path, lines)


def read_graph(path) -> PoseGraph:
    """Parse a g2o-style graph with session/fix/kind comment annotations.

    Files without `# KIND` comments still load: binary edges between
    consecutive ids count as odometry, others as loops with the default
    Huber kernel; priors are explicit via EDGE_SE3_PRIOR.
    """
    path = Path(path)
    sessions: dict[int, int] = {}
    fixed: set[int] = set()
    pending_kind: list[str] = []
    vertices: dict[int, Pose] = {}
    rows = []  # line, kind, i, j, measurement, upper triangle, kernel, delta
    try:
        for line_no, line in enumerate(_decode_lines(path), 1):
            tokens = line.split()
            if not tokens:
                continue
            record = tokens[0]
            if record == "#":
                try:
                    if len(tokens) >= 4 and tokens[1] == "SESSION":
                        sessions[int(tokens[2])] = int(tokens[3])
                    elif len(tokens) >= 3 and tokens[1] == "FIX":
                        fixed.add(int(tokens[2]))
                    elif len(tokens) >= 3 and tokens[1] == "KIND":
                        pending_kind = tokens[2:5]
                except ValueError:
                    raise ParseError(path, f"bad {tokens[1]} comment", line=line_no) from None
            elif record.startswith("#"):
                pass  # a plain comment: only a lone '#' opens an annotation
            elif record == "VERTEX_SE3:QUAT":
                if len(tokens) != 9:
                    raise ParseError(path, f"vertex needs 9 tokens, got {len(tokens)}",
                                     line=line_no)
                node_id = _node_id(path, tokens[1], line_no, "bad vertex id")
                if node_id in vertices:
                    raise ParseError(path, f"duplicate vertex {node_id}", line=line_no)
                vertices[node_id] = _parse_pose(path, tokens[2:], line_no)
            elif record in _EDGE_TOKENS:
                i, j, measurement, upper = _parse_edge(path, tokens, line_no)
                try:
                    delta = float(pending_kind[2]) if len(pending_kind) > 2 else 1.0
                except ValueError:
                    raise ParseError(path, "bad KIND delta", line=line_no) from None
                if i not in vertices or (j is not None and j not in vertices):
                    raise ParseError(path, f"edge ({i}, {j}) references a missing node",
                                     line=line_no)
                kind = (pending_kind[0] if pending_kind
                        else "prior" if j is None
                        else "odometry" if abs(i - j) == 1
                        else "loop")
                kernel = pending_kind[1] if len(pending_kind) > 1 else None
                rows.append((line_no, kind, i, j, measurement, upper, kernel, delta))
                pending_kind = []
            else:
                raise ParseError(path, f"unknown record {record!r}", line=line_no)
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
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if tokens[0] != "EDGE_SE3:QUAT":
                raise ParseError(path, f"unknown record {tokens[0]!r}", line=line_no)
            i, j, measurement, upper = _parse_edge(path, tokens, line_no)
            rows.append((line_no, "odometry", i, j, measurement, upper, None, 1.0))
    except ParseError:
        _edge_table(path, rows)  # a bad edge above the fault is reported first
        raise
    return _edge_table(path, rows)


def write_edge_list(path, edges: Edges) -> None:
    """Write an `Edges` table of binary edges as EDGE_SE3:QUAT lines."""
    _write_lines(path, [_EDGE_FORMAT % (i, j, *values) for i, j, values in zip(
        edges.i.tolist(), edges.j.tolist(), _edge_values(edges))])
