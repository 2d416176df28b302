"""Association graphs over tracklets.

Detections are lifted to single-detection tracklets, tracklets become graph
nodes, and candidate edges connect temporally disjoint nodes (earlier node
ends before the later one starts).  A fixed pruning score keeps each node's
candidate set at the k most plausible successors so graph construction is
deterministic and cheap.  This module alone knows how a level tiles a clip:
level sizes nest by integer factors and grow until one window covers the
whole clip, and each level groups tracklets by the window their first frame
falls in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Detection",
    "Tracklet",
    "TrackGraph",
    "check_level_sizes",
    "clip_level_sizes",
    "group_by_window",
    "lift_detections",
    "aggregate_tracklet",
    "edge_features",
    "build_graph",
    "cosine_distance",
    "tracklet_sort_key",
]

EDGE_FEATURE_DIM = 6

# Pruning-score weights: appearance dominates, geometry and gap break near-ties.
_PRUNE_CENTER_WEIGHT = 0.05
_PRUNE_GAP_WEIGHT = 0.01


@dataclass(eq=False)
class Detection:
    """One detected box in one frame, with its appearance vector."""

    frame: int
    box: tuple[float, float, float, float]  # (left, top, width, height)
    appearance: np.ndarray
    confidence: float = 1.0
    visibility: float = 1.0
    gt_id: int | None = None

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        left, top, width, height = self.box
        if width <= 0.0 or height <= 0.0:
            raise ValueError(f"box must have positive size, got {self.box}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence outside [0, 1]: {self.confidence}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility outside [0, 1]: {self.visibility}")
        self.appearance = np.asarray(self.appearance, dtype=np.float64).ravel()

    @property
    def center(self) -> tuple[float, float]:
        left, top, width, height = self.box
        return (left + width / 2.0, top + height / 2.0)


@dataclass(eq=False)
class Tracklet:
    """A partial trajectory: detections at strictly increasing frames.

    ``node_embedding`` starts as None and is filled in by the model's node
    encoder (or by merging) once the tracklet participates in a graph.
    """

    detections: list[Detection]
    node_embedding: np.ndarray | None = None

    def __post_init__(self):
        if not self.detections:
            raise ValueError("tracklet needs at least one detection")
        frames = [d.frame for d in self.detections]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError(f"detection frames must strictly increase, got {frames}")

    @property
    def start_frame(self) -> int:
        return self.detections[0].frame

    @property
    def end_frame(self) -> int:
        return self.detections[-1].frame

    @property
    def first(self) -> Detection:
        return self.detections[0]

    @property
    def last(self) -> Detection:
        return self.detections[-1]

    @property
    def gt_id(self) -> int | None:
        """The common ground-truth id of all detections, or None if mixed/absent."""
        ids = {d.gt_id for d in self.detections}
        if len(ids) == 1:
            return next(iter(ids))
        return None


def tracklet_sort_key(t: Tracklet):
    """Deterministic total-order key; only indistinguishable tracklets tie."""
    return (
        t.start_frame,
        t.end_frame,
        t.first.box,
        t.last.box,
        t.first.appearance.tobytes(),
        t.last.appearance.tobytes(),
    )


@dataclass(eq=False)
class TrackGraph:
    """Immutable candidate graph for one frame window.

    Edges are stored as index arrays into ``nodes``; ``edge_u[i]`` always
    ends strictly before ``edge_v[i]`` starts.
    """

    nodes: list[Tracklet]
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_features: np.ndarray
    frame_span: tuple[int, int]

    def __post_init__(self):
        self.edge_u = np.asarray(self.edge_u, dtype=np.intp)
        self.edge_v = np.asarray(self.edge_v, dtype=np.intp)
        self.edge_features = np.asarray(self.edge_features, dtype=np.float64).reshape(
            -1, EDGE_FEATURE_DIM
        )
        n = len(self.nodes)
        if not (self.edge_u.shape == self.edge_v.shape == (self.edge_features.shape[0],)):
            raise ValueError("edge arrays must share their length")
        if self.num_edges:
            if self.edge_u.min() < 0 or max(self.edge_u.max(), self.edge_v.max()) >= n:
                raise ValueError("edge index out of range")
            if np.any(self.edge_u == self.edge_v):
                raise ValueError("self edges are not allowed")
            ends = np.array([t.end_frame for t in self.nodes])
            starts = np.array([t.start_frame for t in self.nodes])
            if np.any(ends[self.edge_u] >= starts[self.edge_v]):
                raise ValueError("edges must connect temporally disjoint tracklets")
            pairs = set(zip(self.edge_u.tolist(), self.edge_v.tolist()))
            if len(pairs) != self.num_edges:
                raise ValueError("duplicate edges")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.shape[0])


def check_level_sizes(level_sizes: Sequence[int]) -> None:
    """Sizes must be positive, strictly increase, and each must be a multiple
    of the previous one, so every window is an exact union of child windows."""
    sizes = list(level_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"level sizes must be non-empty and positive, got {sizes}")
    for prev, cur in zip(sizes, sizes[1:]):
        if cur <= prev or cur % prev != 0:
            raise ValueError(
                f"level sizes must strictly increase by integer factors, got {sizes}"
            )


def clip_level_sizes(num_frames: int, level_sizes: Sequence[int]) -> list[int]:
    """The configured sizes, doubled past the last until one window covers
    [1, num_frames]; a clip no longer than the last size keeps them as given."""
    check_level_sizes(level_sizes)
    sizes = list(level_sizes)
    while sizes[-1] < num_frames:
        sizes.append(2 * sizes[-1])
    return sizes


def group_by_window(
    tracklets: Sequence[Tracklet], size: int, num_frames: int
) -> list[tuple[tuple[int, int], list[Tracklet]]]:
    """Group tracklets by the ``size``-frame window their first frame falls in.

    Windows tile [1, num_frames] from frame 1 and the last may be shorter.
    Returns ``(window, members)`` pairs in window order without empty
    windows; members keep input order.
    """
    groups: dict[int, list[Tracklet]] = {}
    for t in tracklets:
        groups.setdefault((t.start_frame - 1) // size, []).append(t)
    return [((k * size + 1, min(k * size + size, num_frames)), groups[k]) for k in sorted(groups)]


def lift_detections(detections: Sequence[Detection]) -> list[Tracklet]:
    """One single-detection tracklet per detection, in input order."""
    return [Tracklet([d]) for d in detections]


def aggregate_tracklet(parts: Sequence[Tracklet]) -> Tracklet:
    """Merge tracklets covering disjoint frames into one.

    The merged embedding is the detection-count-weighted mean of the part
    embeddings (present only when every part has one), which makes merging
    associative: ((a+b)+c) and (a+(b+c)) agree.
    """
    if not parts:
        raise ValueError("nothing to merge")
    dets = sorted((d for p in parts for d in p.detections), key=lambda d: d.frame)
    frames = [d.frame for d in dets]
    if len(set(frames)) != len(frames):
        raise ValueError("cannot merge tracklets with overlapping frames")
    embedding = None
    if all(p.node_embedding is not None for p in parts):
        weights = np.array([len(p.detections) for p in parts], dtype=np.float64)
        stacked = np.stack([np.asarray(p.node_embedding, dtype=np.float64) for p in parts])
        embedding = (weights[:, None] * stacked).sum(axis=0) / weights.sum()
    return Tracklet(dets, node_embedding=embedding)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine similarity; degenerate zero vectors count as distance 1."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - float(np.dot(a, b)) / (na * nb)


def edge_features(u: Tracklet, v: Tracklet) -> np.ndarray:
    """Handcrafted 6-dim feature for the candidate edge u -> v.

    Position offsets are normalized by the mean boundary box height, sizes
    enter as log ratios, plus the frame gap and the cosine distance between
    the boundary appearance vectors (u's last detection vs v's first).
    """
    if u.end_frame >= v.start_frame:
        raise ValueError(
            f"edge endpoints must be temporally disjoint, got [{u.start_frame},{u.end_frame}]"
            f" -> [{v.start_frame},{v.end_frame}]"
        )
    du, dv = u.last, v.first
    xu, yu = du.center
    xv, yv = dv.center
    hu, hv = du.box[3], dv.box[3]
    wu, wv = du.box[2], dv.box[2]
    return np.array(
        [
            2.0 * (xv - xu) / (hu + hv),
            2.0 * (yv - yu) / (hu + hv),
            np.log(hu / hv),
            np.log(wu / wv),
            float(v.start_frame - u.end_frame),
            cosine_distance(du.appearance, dv.appearance),
        ]
    )


def _pruning_score(du: Detection, dv: Detection, dt: int) -> float:
    """Ranking score for candidate successors; lower is better."""
    xu, yu = du.center
    xv, yv = dv.center
    scale = (du.box[3] + dv.box[3]) / 2.0
    center = float(np.hypot(xv - xu, yv - yu)) / scale
    return (
        cosine_distance(du.appearance, dv.appearance)
        + _PRUNE_CENTER_WEIGHT * center
        + _PRUNE_GAP_WEIGHT * dt
    )


def build_graph(
    tracklets: Sequence[Tracklet], knn_k: int, window: tuple[int, int]
) -> TrackGraph:
    """Connect each tracklet to its knn_k best temporal successors.

    Nodes are sorted by :func:`tracklet_sort_key` first, so the result does
    not depend on input order; ranking ties fall back to (frame gap, sorted
    node index).
    """
    if knn_k < 1:
        raise ValueError(f"knn_k must be >= 1, got {knn_k}")
    lo, hi = window
    for t in tracklets:
        if t.start_frame < lo or t.end_frame > hi:
            raise ValueError(
                f"tracklet spans [{t.start_frame},{t.end_frame}] outside window {window}"
            )
    nodes = sorted(tracklets, key=tracklet_sort_key)
    starts = np.array([t.start_frame for t in nodes], dtype=np.int64)
    ends = np.array([t.end_frame for t in nodes], dtype=np.int64)
    edge_u: list[int] = []
    edge_v: list[int] = []
    feats: list[np.ndarray] = []
    for ui, u in enumerate(nodes):
        later = np.nonzero(starts > ends[ui])[0]
        if later.size == 0:
            continue
        ranked = sorted(
            later.tolist(),
            key=lambda vi: (
                _pruning_score(u.last, nodes[vi].first, int(starts[vi] - ends[ui])),
                int(starts[vi] - ends[ui]),
                vi,
            ),
        )
        for vi in ranked[:knn_k]:
            edge_u.append(ui)
            edge_v.append(vi)
            feats.append(edge_features(u, nodes[vi]))
    features = (
        np.stack(feats) if feats else np.zeros((0, EDGE_FEATURE_DIM), dtype=np.float64)
    )
    return TrackGraph(nodes, np.array(edge_u), np.array(edge_v), features, (lo, hi))
