"""Association graphs over tracklets.

Detections are lifted to single-detection tracklets, tracklets become graph
nodes, and candidate edges connect temporally disjoint nodes (earlier node
ends before the later one starts).  A fixed pruning score keeps each node's
candidate set at the k most plausible successors so graph construction is
deterministic and cheap: ``build_graph`` scores successors as arrays, a
block of rows at a time, and ranks only each row's near-ties to its k-th
score with the exact per-pair key (score, frame gap, node index), so the
graph is the one a per-pair ranking gives, bit for bit.  This module alone
knows how a level tiles a clip:
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
    "build_graph",
    "tracklet_sort_key",
    "union_graph",
]

EDGE_FEATURE_DIM = 6

# Pruning-score weights: appearance dominates, geometry and gap break near-ties.
_PRUNE_CENTER_WEIGHT = 0.05
_PRUNE_GAP_WEIGHT = 0.01

# A block of pruning scores holds at most this many pairs (or one row), so
# graph building needs memory linear in nodes per window, not quadratic.
_BLOCK_SCORES = 1 << 18

# Relative width of the band kept around a row's k-th array score.  The array
# score is off from the exact one by a few ulp plus about one ulp per
# appearance dimension (the summation order of the dot product), far inside
# this margin, so the exact top k always lies in the band.
_TIE_BAND = 1e-9


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


@dataclass(eq=False)
class Tracklet:
    """A partial trajectory: detections at strictly increasing frames."""

    detections: list[Detection]

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


def _sorted_with_keys(tracklets: Sequence[Tracklet]) -> tuple[list[Tracklet], np.ndarray]:
    """``sorted(tracklets, key=tracklet_sort_key)`` and, in that order, their
    frame and box keys: start, end, first box, last box (10 columns).  One
    lexsort orders the keys; only runs that tie on all of them (-0.0 equals
    0.0 there, as in the tuple key) compare appearance bytes."""
    keys = np.array([(t.detections[0].frame, t.detections[-1].frame,
                      *t.detections[0].box, *t.detections[-1].box) for t in tracklets],
                    dtype=np.float64).reshape(-1, 10)
    order = np.lexsort(keys.T[::-1])
    ordered = [tracklets[i] for i in order.tolist()]
    keys = keys[order]
    same = np.all(keys[1:] == keys[:-1], axis=1)
    if same.any():
        bounds = np.flatnonzero(np.concatenate(([True], ~same, [True])))  # run starts, end
        tied = np.diff(bounds) > 1
        for a, b in zip(bounds[:-1][tied].tolist(), bounds[1:][tied].tolist()):
            ordered[a:b] = sorted(ordered[a:b], key=tracklet_sort_key)
    return ordered, keys


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
            ids = np.concatenate([self.edge_u, self.edge_v])
            if ids.min() < 0 or ids.max() >= n:
                raise ValueError("edge index out of range")
            if np.any(self.edge_u == self.edge_v):
                raise ValueError("self edges are not allowed")
            ends = np.array([t.end_frame for t in self.nodes])
            starts = np.array([t.start_frame for t in self.nodes])
            if np.any(ends[self.edge_u] >= starts[self.edge_v]):
                raise ValueError("edges must connect temporally disjoint tracklets")
            if np.unique(self.edge_u * n + self.edge_v).size != self.num_edges:
                raise ValueError("duplicate edges")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.shape[0])


def union_graph(graphs: Sequence[TrackGraph], frame_span: tuple[int, int]) -> TrackGraph:
    """Batch window graphs into one disconnected graph over ``frame_span``:
    their nodes side by side, in graph order, and their edges re-indexed."""
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs[:-1]])
    return TrackGraph(
        nodes=[t for g in graphs for t in g.nodes],
        edge_u=np.concatenate([g.edge_u + o for g, o in zip(graphs, offsets)]),
        edge_v=np.concatenate([g.edge_v + o for g, o in zip(graphs, offsets)]),
        edge_features=np.vstack([g.edge_features for g in graphs]),
        frame_span=frame_span,
    )


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


def _boundary(boxes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Centre x, centre y, height and width of each (left, top, width, height) row."""
    return (
        boxes[:, 0] + boxes[:, 2] / 2.0,
        boxes[:, 1] + boxes[:, 3] / 2.0,
        boxes[:, 3],
        boxes[:, 2],
    )


def _unit_rows(app: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; zero rows stay zero."""
    norms = np.linalg.norm(app, axis=1, keepdims=True)
    return np.divide(app, norms, out=np.zeros_like(app), where=norms > 0.0)


def build_graph(
    tracklets: Sequence[Tracklet], knn_k: int, window: tuple[int, int]
) -> TrackGraph:
    """Connect each tracklet to its knn_k best temporal successors.

    Nodes are sorted by :func:`tracklet_sort_key` first, so the result does
    not depend on input order.  A successor ``v`` of ``u`` starts after
    ``u`` ends; with ``du = u.last`` and ``dv = v.first`` it is ranked by

        cos(du, dv) + 0.05 * |centre offset| / mean height + 0.01 * gap

    (lower is better), ties broken by (frame gap, sorted node index), where
    ``cos(a, b) = 1 - dot(a, b) / (|a| |b|)``, or 1 if either row is zero.
    Scores are computed as arrays, a block of ``u`` rows at a time, so
    memory grows linearly in nodes.  The matrix product behind these block
    scores rounds differently from the exact per-pair cosine, so they only
    pick each row's band: the successors within a tiny margin of its k-th
    score, which always holds the exact top k.  The band is ranked by the
    exact key and the first knn_k are kept.  Edges come out ordered by
    ``u``, then by rank.

    Edge features, 6 per edge: the centre offsets x and y over the mean
    box height, the log height and width ratios ``du / dv``, the frame gap,
    and the exact cosine distance of the ranking.
    """
    if knn_k < 1:
        raise ValueError(f"knn_k must be >= 1, got {knn_k}")
    lo, hi = window
    nodes, keys = _sorted_with_keys(tracklets)
    n = len(nodes)
    starts = keys[:, 0].astype(np.int64)
    ends = keys[:, 1].astype(np.int64)
    outside = np.flatnonzero((starts < lo) | (ends > hi))
    if outside.size:
        t = nodes[outside[0]]
        raise ValueError(
            f"tracklet spans [{t.start_frame},{t.end_frame}] outside window {window}"
        )
    # nodes are sorted by start frame, so u's successors are the suffix from here
    first_succ = np.searchsorted(starts, ends, side="right")
    if n == 0 or first_succ.min() == n:
        no_edges = np.zeros(0, dtype=np.intp)
        return TrackGraph(nodes, no_edges, no_edges, np.zeros((0, EDGE_FEATURE_DIM)), (lo, hi))
    vx, vy, vh, vw = _boundary(keys[:, 2:6])
    ux, uy, uh, uw = _boundary(keys[:, 6:10])
    lasts = [t.last for t in nodes]
    firsts = [t.first for t in nodes]
    u_app = np.stack([d.appearance for d in lasts])
    v_app = np.stack([d.appearance for d in firsts])
    u_unit, v_unit = _unit_rows(u_app), _unit_rows(v_app)

    band_u: list[np.ndarray] = []
    band_v: list[np.ndarray] = []
    rows = max(1, _BLOCK_SCORES // n)
    for r0 in range(0, n, rows):
        r = slice(r0, min(r0 + rows, n))
        c0 = int(first_succ[r].min())
        if c0 == n:
            continue
        c = slice(c0, n)
        score = 1.0 - u_unit[r] @ v_unit[c].T
        centre = np.hypot(vx[c] - ux[r, None], vy[c] - uy[r, None])
        centre /= (uh[r, None] + vh[c]) / 2.0
        score += _PRUNE_CENTER_WEIGHT * centre
        score += _PRUNE_GAP_WEIGHT * (starts[c] - ends[r, None])
        successor = np.arange(c0, n) >= first_succ[r, None]
        score[~successor] = np.inf
        if knn_k < n - c0:
            kth = np.partition(score, knn_k - 1, axis=1)[:, knn_k - 1]
        else:
            kth = np.full(score.shape[0], np.inf)
        cutoff = kth + _TIE_BAND * (1.0 + np.abs(kth))
        bu, bv = np.nonzero((score <= cutoff[:, None]) & successor)
        band_u.append(bu + r0)
        band_v.append(bv + c0)

    bu = np.concatenate(band_u)
    bv = np.concatenate(band_v)
    gap = starts[bv] - ends[bu]
    dx = vx[bv] - ux[bu]
    dy = vy[bv] - uy[bu]
    heights = uh[bu] + vh[bv]
    # vecdot runs the BLAS dot of np.dot and np.linalg.norm, so each cosine is
    # bitwise the per-pair 1 - dot(a, b) / (|a| |b|); a zero row is at distance 1
    u_norm = np.sqrt(np.vecdot(u_app, u_app))[bu]
    v_norm = np.sqrt(np.vecdot(v_app, v_app))[bv]
    nonzero = (u_norm != 0.0) & (v_norm != 0.0)
    cos = 1.0 - np.divide(np.vecdot(u_app[bu], v_app[bv]), u_norm * v_norm,
                          out=np.zeros(bu.size), where=nonzero)
    score = (
        cos
        + _PRUNE_CENTER_WEIGHT * (np.hypot(dx, dy) / (heights / 2.0))
        + _PRUNE_GAP_WEIGHT * gap
    )
    order = np.lexsort((bv, gap, score, bu))
    ranked_u = bu[order]
    rank = np.arange(order.size) - np.searchsorted(ranked_u, ranked_u, side="left")
    keep = order[rank < knn_k]
    features = np.column_stack([
        2.0 * dx[keep] / heights[keep],
        2.0 * dy[keep] / heights[keep],
        np.log(uh[bu[keep]] / vh[bv[keep]]),
        np.log(uw[bu[keep]] / vw[bv[keep]]),
        gap[keep].astype(np.float64),
        cos[keep],
    ])
    return TrackGraph(nodes, bu[keep], bv[keep], features, (lo, hi))
