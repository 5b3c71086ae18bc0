"""Keyframe selection for LiDAR mapping via Wasserstein distances on voxel
Gaussian maps, plus multi-session pose-graph merging.

The package root exports the keyframe selector API; every other name is
imported from its own module (`wassmap.pose_graph`, `wassmap.io`, ...)."""

from wassmap.keyframe import (
    FrameDecision,
    KeyframeSelector,
    SelectorConfig,
    keyframe_indices,
    replay_decisions,
)

__all__ = [
    "FrameDecision",
    "KeyframeSelector",
    "SelectorConfig",
    "keyframe_indices",
    "replay_decisions",
]

__version__ = "0.1.0"
