"""Streaming keyframe selection: stage, score, decide, commit, prune.

Every frame takes one path: it is transformed into the map frame and staged
onto the selector's voxel map, which drops its non-finite points and counts
them in the stage's `StagedUpdate.rejected`. The first frame that stages a
point gives the map its origin and is a keyframe by definition, with score
+inf. Each later frame is scored with the map-level Wasserstein
dissimilarity, the mean W2 distance under sample covariances over the voxels
it shares with the map, and is a keyframe when the score exceeds the
threshold; one whose score report compares no voxel (no overlap, or all
shared voxels under the point floor) is a keyframe flagged
``no_comparable``, with score NaN. By default only keyframes are committed,
so redundant frames leave the map untouched; the alternative policy commits
every frame. After every frame but the bootstrap frame, voxels beyond the
pruning radius of the current pose are dropped. In
`KeyframeSelector.run_sequence` a frame that fails (unreadable, no finite
point, bad pose, numerical error) is flagged ``error`` and a frame without a
pose ``unpaired``, instead of vanishing.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from wassmap.geometry import Pose, as_points
from wassmap.voxel_map import GmmMap
from wassmap.wasserstein import map_dissimilarity

logger = logging.getLogger(__name__)

COMMIT_POLICIES = ("keyframes", "always")


class EmptyFrameError(ValueError):
    """Frame contains no finite point."""


@dataclass(frozen=True)
class SelectorConfig:
    tau: float = 0.5
    voxel_size: float = 4.0
    radius: float = 100.0
    min_points: int = 5
    commit: str = "keyframes"  # one of COMMIT_POLICIES

    def __post_init__(self):
        if not self.tau >= 0.0:
            raise ValueError("tau must be >= 0")
        if not 0.0 < self.voxel_size < math.inf:
            raise ValueError("voxel_size must be finite and positive")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if self.min_points < 2:
            raise ValueError("sample covariance needs min_points >= 2")
        if self.commit not in COMMIT_POLICIES:
            raise ValueError(f"unknown commit policy {self.commit!r}")


@dataclass(frozen=True)
class FrameDecision:
    frame_index: int          # 1-based position in the input sequence
    dw: float                 # +inf for bootstrap, NaN when not compared
    keyframe: bool
    flag: str                 # bootstrap, scored, no_comparable, error or unpaired
    affected_count: int = 0
    new_count: int = 0
    skipped_count: int = 0
    millis: float = 0.0
    timestamp: float | None = None


def replay_decisions(decisions, tau: float) -> list[FrameDecision]:
    """Re-threshold recorded scores without touching any map state.

    Bootstrap frames stay keyframes and no-comparable frames keep their
    recorded decision; only scored frames are re-decided. Note that a
    live rerun at the new threshold can differ when commits depend on the
    decisions; replay answers "what would thresholding alone have chosen".
    """
    if not tau >= 0.0:
        raise ValueError("tau must be >= 0")
    out = []
    for d in decisions:
        if d.flag == "scored":
            out.append(replace(d, keyframe=bool(d.dw > tau)))
        else:
            out.append(d)
    return out


def keyframe_indices(decisions) -> list[int]:
    return [d.frame_index for d in decisions if d.keyframe]


class KeyframeSelector:
    """Holds the evolving map and the ordered decision log."""

    def __init__(self, config: SelectorConfig):
        self.config = config
        self.map = GmmMap(config.voxel_size)
        self.decisions: list[FrameDecision] = []
        self._frames_seen = 0

    @property
    def bootstrapped(self) -> bool:
        return self.map.origin is not None

    def bootstrap(self, points, pose: Pose, timestamp: float | None = None) -> FrameDecision:
        """Build the initial map from the first frame; always a keyframe."""
        if self.bootstrapped:
            raise RuntimeError("selector already bootstrapped")
        return self._step(points, pose, timestamp)

    def process_frame(self, points, pose: Pose, timestamp: float | None = None) -> FrameDecision:
        """Score one frame against the map and apply the configured policies."""
        if not self.bootstrapped:
            raise RuntimeError("selector not bootstrapped")
        return self._step(points, pose, timestamp)

    def _step(self, points, pose: Pose, timestamp) -> FrameDecision:
        """Stage one frame, then bootstrap a map without an origin or score
        against it, commit by policy, prune and record the decision."""
        start = time.perf_counter()
        self._frames_seen += 1
        pts = as_points(points)
        if len(pts) == 0:
            raise EmptyFrameError("frame contains no points")
        if not np.all(np.isfinite(pose.translation)):
            raise ValueError("non-finite pose")
        cfg = self.config
        bootstrapping = not self.bootstrapped

        stage = self.map.stage_frame(pose.transform_points(pts))
        if stage.point_count == 0:
            raise EmptyFrameError("frame contains no finite points")
        if bootstrapping:
            dw, keyframe, flag = math.inf, True, "bootstrap"
            counts = (0, len(stage.keys), 0)
        else:
            report = map_dissimilarity(stage, min_points=cfg.min_points)
            if report.affected_count:
                dw, keyframe, flag = report.value, report.value > cfg.tau, "scored"
            else:
                dw, keyframe, flag = math.nan, True, "no_comparable"
            counts = (report.affected_count, report.new_count, report.skipped_count)

        if cfg.commit == "always" or keyframe:
            self.map.commit(stage)
        # pruning right after the bootstrap frame would change later scores
        if not bootstrapping:
            self.map.prune_outside(pose.translation, cfg.radius)

        decision = FrameDecision(self._frames_seen, dw, keyframe, flag, *counts,
                                 millis=(time.perf_counter() - start) * 1e3,
                                 timestamp=timestamp)
        self.decisions.append(decision)
        return decision

    def run_sequence(self, frames) -> list[FrameDecision]:
        """Process an ordered sequence of (points, pose, timestamp) frames;
        returns their decisions, the tail of `decisions`.

        Every frame gets one decision. A frame whose pose is None is flagged
        ``unpaired``: it is not scored and leaves the map as it was. A frame
        that raises `ValueError` (empty frame, bad pose, invalid covariance,
        voxel out of range), or whose points are the `ValueError` that
        reading them raised, does not abort the run: it gets an ``error``
        decision, is not a keyframe and leaves the map as it was. A frame
        that fails at bootstrap leaves the selector unbootstrapped, so the
        next frame bootstraps. Each frame's points are let go before the next
        frame is drawn, so a lazy `frames` holds one frame at a time.
        """
        first = len(self.decisions)
        for points, pose, timestamp in frames:
            index = self._frames_seen + 1
            if pose is None:
                self._unscored(index, "unpaired", timestamp)
            else:
                # by attribute, not `_step`, so that wrappers of either see the call
                step = self.process_frame if self.bootstrapped else self.bootstrap
                try:
                    if isinstance(points, ValueError):
                        raise points
                    step(points, pose, timestamp)
                except ValueError as err:
                    logger.warning("frame %d failed: %s", index, err)
                    self._unscored(index, "error", timestamp)
            del points  # before `frames` reads the next one
        return self.decisions[first:]

    def _unscored(self, index: int, flag: str, timestamp) -> None:
        self._frames_seen = index
        self.decisions.append(FrameDecision(index, math.nan, False, flag, timestamp=timestamp))
