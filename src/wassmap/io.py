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

The text readers (TUM, graph, edge list) parse in bulk, as described under
"Text records" below, and report the fault that reading line by line meets
first. Graph and edge-list readers build one `Edges` table per file; its
batched check names the `path:line` of a bad row, and a line that fails to
parse is reported only if no edge above it is bad. The text writers format
each record with one format string, 17 significant digits per value.
"""

from __future__ import annotations

import io as _stdio
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wassmap.geometry import QUATERNION_ERROR, Pose, Rotation, as_points, stack_poses
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

    if "POINTS" in header:
        n_points = _int_field(path, header, "POINTS", line_no)
    else:
        n_points = _int_field(path, header, "WIDTH", line_no) * _int_field(
            path, header, "HEIGHT", line_no
        )
    if n_points < 0:
        raise ParseError(path, f"negative POINTS {n_points}", line=line_no)

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
#
# A text reader makes one pass over the lines. It checks record names and
# token counts and stops at the first line that fails them. The numbers of the
# records above that line are converted with one `np.array` call per field,
# and every check on values is an array check that flags rows. The fault
# reported is the first check, in the order a line is read, that flags the
# earliest line, so a file fails with the message and line that reading it
# line by line would give.

_BAD_QUATERNION = f"bad quaternion: {QUATERNION_ERROR}"


def _decode_lines(path):
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise ParseError(path, "non-ascii bytes") from None
    return text.splitlines()


def _numbers(rows, width: int, dtype=float):
    """Token rows as one (len(rows), width) array, and a mask flagging the
    first row that does not convert. Only when the bulk conversion fails are
    the rows walked, one conversion each, to find that row; it and the rows
    after it read as zeros."""
    bad = np.zeros(len(rows), dtype=bool)
    try:
        return np.array(rows, dtype=dtype).reshape(len(rows), width), bad
    except (ValueError, OverflowError):  # OverflowError: an integer beyond int64
        pass
    values = np.zeros((len(rows), width), dtype=dtype)
    for k, row in enumerate(rows):
        try:
            values[k] = np.array(row, dtype=dtype)
        except (ValueError, OverflowError):
            bad[k] = True
            break
    return values, bad


def _quaternion_fails(w, x, y, z) -> np.ndarray:
    """Rows that `Rotation` rejects, by its own arithmetic."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm_sq = w * w + x * x + y * y + z * z
    return ~(norm_sq > 0.0) | ~np.isfinite(norm_sq)


def _pose_checks(values, bad):
    """Checks of tx ty tz qx qy qz qw rows in the order a pose is read;
    ``bad`` flags the row that did not convert."""
    return [("non-numeric pose value", bad),
            ("non-finite pose value", ~np.isfinite(values).all(axis=1)),
            (_BAD_QUATERNION, _quaternion_fails(*values[:, [6, 3, 4, 5]].T))]


def _poses(values) -> list[Pose]:
    """tx ty tz qx qy qz qw rows as poses; each `Rotation` normalizes the values as read."""
    return [Pose(Rotation(qw, qx, qy, qz), (tx, ty, tz))
            for tx, ty, tz, qx, qy, qz, qw in values.tolist()]


def _pose_values(poses) -> np.ndarray:
    """tx ty tz qx qy qz qw of each pose, the order the text formats store."""
    q, t = stack_poses(poses)
    return np.concatenate([t, q[:, 1:], q[:, :1]], axis=1)


def _first_fault(lines, checks, fault=None):
    """The earlier of ``fault`` and the first fault of one record type's rows.

    Faults are (line, detail). ``checks`` holds (detail, flags) in the order a
    line is read; a detail may be a function of the row. A row's fault is the
    first check that flags it, and the earliest flagged row is the type's.
    """
    failed = np.array([flags for _, flags in checks], dtype=bool)
    flagged = failed.any(axis=0)
    if not flagged.any():
        return fault
    row = int(np.argmax(flagged))
    if fault and fault[0] < lines[row]:
        return fault
    detail = checks[int(np.argmax(failed[:, row]))][0]
    return lines[row], detail if isinstance(detail, str) else detail(row)


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")


# ---------------------------------------------------------------------------
# TUM trajectories

_TUM_FORMAT = "%.9f " + " ".join(["%.17g"] * 7)


def read_tum(path) -> list[TrajectoryEntry]:
    path = Path(path)
    lines, rows, fault = [], [], None
    for line_no, line in enumerate(_decode_lines(path), 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 8:
            fault = line_no, f"expected 8 columns, got {len(tokens)}"
            break
        lines.append(line_no)
        rows.append(tokens)

    values, bad = _numbers(rows, 8)
    stamp, qx, qy, qz, qw = values[:, [0, 4, 5, 6, 7]].T
    finite = np.isfinite(values).all(axis=1)
    backwards = np.zeros(len(rows), dtype=bool)
    backwards[1:] = stamp[1:] <= stamp[:-1]
    fault = _first_fault(lines, [
        ("non-numeric value", bad),
        ("non-finite value", ~finite),
        (lambda k: f"non-monotonic timestamp {float(stamp[k])} after {float(stamp[k - 1])}",
         backwards),
        (_BAD_QUATERNION, _quaternion_fails(qw, qx, qy, qz)),
    ], fault)
    # a line's norm is logged once the checks before the quaternion's pass:
    # on every line above the fault, and on the fault's line if that check failed
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    logged = (np.abs(norm - 1.0) > 1e-3) & ~bad & finite & ~backwards
    if fault:
        logged &= np.array(lines, dtype=np.int64) <= fault[0]
    for k in np.flatnonzero(logged):
        logger.warning("%s:%d: quaternion norm %.6f, renormalizing", path, lines[k], norm[k])
    if fault:
        raise ParseError(path, fault[1], line=fault[0])
    return [TrajectoryEntry(t, pose) for t, pose in zip(stamp.tolist(), _poses(values[:, 1:]))]


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


def _edge_fields(rows):
    """Endpoints (E, 2), pose values (E, 7) and information (E, 6, 6) of
    EDGE_SE3:QUAT and EDGE_SE3_PRIOR token rows, and their checks in the order
    a line is read. A prior's one endpoint fills both columns."""
    ids, bad_ids = _numbers([t[1:2] * 2 if t[0] == "EDGE_SE3_PRIOR" else t[1:3] for t in rows],
                            2, np.int64)
    pose, bad_pose = _numbers([t[-28:-21] for t in rows], 7)
    upper, bad_upper = _numbers([t[-21:] for t in rows], 21)
    info = np.zeros((len(rows), 6, 6))
    info[:, _UPPER[0], _UPPER[1]] = upper
    info[:, _UPPER[1], _UPPER[0]] = upper
    return ids, pose, info, [("bad edge endpoint", bad_ids), *_pose_checks(pose, bad_pose),
                             ("non-numeric information entry", bad_upper),
                             ("non-finite information entry", ~np.isfinite(upper).all(axis=1))]


def _edge_table(path, lines, fault, pose, **columns) -> Edges:
    """`Edges` of the rows above ``fault``, whose pose values are ``pose``.

    A line-by-line reader checks these rows before it reaches the fault, so a
    row the table rejects is raised first, as a ParseError at its line. Then
    ``fault``, if any, is raised.
    """
    n = len(lines) if fault is None else int(np.searchsorted(lines, fault[0]))
    try:
        edges = Edges(measurement=_poses(pose[:n]),
                      **{name: column[:n] for name, column in columns.items()})
    except EdgeError as err:
        raise ParseError(path, err.detail, line=lines[err.row]) from None
    if fault:
        raise ParseError(path, fault[1], line=fault[0])
    return edges


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
    vertex_lines, vertex_rows = [], []
    edge_lines, edge_rows, edge_kinds = [], [], []  # both edge records, in line order
    fault = None
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
                fault = line_no, f"bad {tokens[1]} comment"
                break
        elif record == "VERTEX_SE3:QUAT":
            if len(tokens) != 9:
                fault = line_no, f"vertex needs 9 tokens, got {len(tokens)}"
                break
            vertex_lines.append(line_no)
            vertex_rows.append(tokens)
        elif record in _EDGE_TOKENS:
            if len(tokens) != _EDGE_TOKENS[record]:
                fault = line_no, f"edge needs {_EDGE_TOKENS[record]} tokens, got {len(tokens)}"
                break
            edge_lines.append(line_no)
            edge_rows.append(tokens)
            edge_kinds.append(pending_kind)
            pending_kind = []
        else:
            fault = line_no, f"unknown record {record!r}"
            break

    node_ids, bad_ids = _numbers([t[1:2] for t in vertex_rows], 1, np.int64)
    node_ids = node_ids[:, 0]
    node_poses, bad_poses = _numbers([t[2:] for t in vertex_rows], 7)
    order = np.argsort(node_ids, kind="stable")  # each id's first line first
    repeated = np.zeros(len(node_ids), dtype=bool)
    repeated[order[1:]] = node_ids[order[1:]] == node_ids[order[:-1]]
    fault = _first_fault(vertex_lines, [
        ("bad vertex id", bad_ids),
        (lambda k: f"duplicate vertex {node_ids[k]}", repeated),
        *_pose_checks(node_poses, bad_poses),
    ], fault)

    ends, pose, info, checks = _edge_fields(edge_rows)
    delta, bad_delta = _numbers([kind[2:3] or ["1.0"] for kind in edge_kinds], 1)
    # an edge's nodes must be vertices on lines above it
    known = np.zeros(ends.shape, dtype=bool)
    if len(order):
        first = order[np.searchsorted(node_ids[order], ends).clip(max=len(order) - 1)]
        known = ((node_ids[first] == ends)
                 & (np.array(vertex_lines)[first] < np.array(edge_lines)[:, None]))
    i = ends[:, 0].tolist()
    j = [None if tokens[0] == "EDGE_SE3_PRIOR" else end
         for tokens, end in zip(edge_rows, ends[:, 1].tolist())]
    fault = _first_fault(edge_lines, [
        *checks,
        ("bad KIND delta", bad_delta),
        (lambda k: f"edge ({i[k]}, {j[k]}) references a missing node", ~known.all(axis=1)),
    ], fault)

    kind = [pending[0] if pending
            else "prior" if end is None
            else "odometry" if abs(start - end) == 1
            else "loop" for pending, start, end in zip(edge_kinds, i, j)]
    kernel = [pending[1] if len(pending) > 1 else None for pending in edge_kinds]
    edges = _edge_table(path, edge_lines, fault, pose, kind=kind, i=ends[:, 0], j=j,
                        information=info, kernel=kernel, delta=delta[:, 0])
    graph = PoseGraph()
    for node_id, node_pose in zip(node_ids.tolist(), _poses(node_poses)):
        graph.add_node(node_id, node_pose, sessions.get(node_id, 1), node_id in fixed)
    graph.edges = edges
    return graph


def read_edge_list(path) -> Edges:
    """EDGE_SE3:QUAT lines as an `Edges` table of odometry rows;
    `merge_sessions` gives each list its kind. A row the table rejects raises
    ParseError at its line."""
    path = Path(path)
    lines, rows, fault = [], [], None
    for line_no, line in enumerate(_decode_lines(path), 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] != "EDGE_SE3:QUAT":
            fault = line_no, f"unknown record {tokens[0]!r}"
            break
        if len(tokens) != 31:
            fault = line_no, f"edge needs 31 tokens, got {len(tokens)}"
            break
        lines.append(line_no)
        rows.append(tokens)
    ends, pose, info, checks = _edge_fields(rows)
    fault = _first_fault(lines, checks, fault)
    return _edge_table(path, lines, fault, pose, kind=np.full(len(rows), "odometry"),
                       i=ends[:, 0], j=ends[:, 1].tolist(), information=info)


def write_edge_list(path, edges: Edges) -> None:
    """Write an `Edges` table of binary edges as EDGE_SE3:QUAT lines."""
    _write_lines(path, [_EDGE_FORMAT % (i, j, *values) for i, j, values in zip(
        edges.i.tolist(), edges.j.tolist(), _edge_values(edges))])
