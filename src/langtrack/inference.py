"""From edge probabilities to trajectories.

Greedy flow-constrained rounding keeps at most one accepted successor and
one accepted predecessor per node, merges the resulting chains, and repeats
level by level; ``graph.py`` derives the levels and their windows, and the
top level's one window covers the whole clip, so whole-clip trajectories
remain; ``run_levels`` is that loop for tracking and training alike, with
one ``build_graph`` call per level.  Tracking scores a level in cache-sized
batches: slices of the level graph over consecutive whole windows, of at
most ``_BATCH_EDGES`` candidate edges, each of which gets one model pass,
one rounding and one merge.  Windows share no nodes or edges, so a batch
accepts and merges exactly what its windows would one by one.  Tracking is
video-only by construction: no operation here takes the language embedding
store, and it runs under a guard that turns any embedding access into an
error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .autodiff import Tensor
from .graph import (
    Detection,
    TrackGraph,
    Tracklet,
    build_graph,
    check_level_sizes,
    clip_level_sizes,
    lift_detections,
    tracklet_sort_key,
    window_offsets,
)
from .guidance import language_access_forbidden
from .model import ModelParams, classify_edges, encode_graph, message_pass, node_means, node_rows
from .nn import mlp_forward

__all__ = [
    "TrackerConfig",
    "TrackResult",
    "round_edges",
    "run_levels",
    "track_video",
    "gt_oracle_scorer",
]

# An edge scorer maps a graph to one probability in [0, 1] per edge: the
# learned model (``_learned_scorer``), or an oracle in tests and diagnostics.
EdgeScorer = Callable[[TrackGraph], np.ndarray]

# Tracking scores consecutive whole windows in batches of at most this many
# candidate edges (a larger window is scored alone).  The widest batch array,
# 1024 edges x 64 float64 columns, is 512 KB and stays inside a 2 MiB L2
# cache; a whole level does not, and is slower on crowded clips.
_BATCH_EDGES = 1024


@dataclass
class TrackerConfig:
    """Inference-side knobs; model internals live in ModelConfig."""

    level_sizes: list[int] = field(default_factory=lambda: [5, 25, 75, 150])
    knn_k: int = 10
    threshold: float = 0.5

    def __post_init__(self):
        check_level_sizes(self.level_sizes)
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0,1), got {self.threshold}")
        if self.knn_k < 1:
            raise ValueError("knn_k must be >= 1")


@dataclass
class TrackResult:
    """Final trajectories keyed by track id (1..C)."""

    trajectories: dict[int, list[Detection]]

    def __post_init__(self):
        for tid, dets in self.trajectories.items():
            if tid < 1:
                raise ValueError(f"track ids must be positive, got {tid}")
            frames = [d.frame for d in dets]
            if any(b <= a for a, b in zip(frames, frames[1:])) or not frames:
                raise ValueError(f"trajectory {tid} frames must strictly increase")

    @property
    def num_tracks(self) -> int:
        return len(self.trajectories)

    def iter_detections(self):
        """Yield (track_id, detection) over all trajectories."""
        for tid in sorted(self.trajectories):
            for det in self.trajectories[tid]:
                yield tid, det


def round_edges(graph: TrackGraph, probs: np.ndarray, threshold: float) -> np.ndarray:
    """Greedy rounding under the one-successor/one-predecessor constraint.

    Edges are visited by descending probability (ties by frame gap, then
    endpoint indices); an edge is accepted iff its probability exceeds the
    threshold and both temporal slots are still free.  Returns accepted
    edge indices in ascending order.  The result is maximal: every rejected
    above-threshold edge conflicts with an accepted one.  A probability
    outside [0, 1] or NaN raises ValueError instead of failing the threshold.
    """
    p = np.asarray(probs, dtype=np.float64).ravel()
    if p.shape[0] != graph.num_edges:
        raise ValueError(f"{p.shape[0]} probs for {graph.num_edges} edges")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("edge probabilities must be finite and lie in [0,1]")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0,1), got {threshold}")
    gaps = graph.starts[graph.edge_v] - graph.ends[graph.edge_u]
    order = np.lexsort((graph.edge_v, graph.edge_u, gaps, -p)).tolist()
    succ_used: set[int] = set()
    pred_used: set[int] = set()
    accepted: list[int] = []
    for i in order:
        if p[i] <= threshold:
            break  # descending order: nothing below passes either
        u, v = int(graph.edge_u[i]), int(graph.edge_v[i])
        if u in succ_used or v in pred_used:
            continue
        succ_used.add(u)
        pred_used.add(v)
        accepted.append(i)
    return np.array(sorted(accepted), dtype=np.intp)


def merge_accepted(graph: TrackGraph, accepted: np.ndarray) -> list[Tracklet]:
    """Merge the chains of accepted edges into longer tracklets, in node order
    of their heads (nodes with no accepted predecessor).  Edges run forward in
    time, so a chain's detections, followed from its head, are in frame order.
    A node with a second accepted successor or predecessor raises RuntimeError."""
    succ: dict[int, int] = {}
    has_pred: set[int] = set()
    for u, v in zip(graph.edge_u[accepted].tolist(), graph.edge_v[accepted].tolist()):
        if u in succ or v in has_pred:
            raise RuntimeError("accepted edges violate the one-per-slot degree constraint")
        succ[u] = v
        has_pred.add(v)
    merged = []
    for head in sorted(set(range(graph.num_nodes)) - has_pred):
        chain = [head]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        merged.append(Tracklet([d for i in chain for d in graph.nodes[i].detections]))
    return merged


def gt_oracle_scorer(graph: TrackGraph) -> np.ndarray:
    """Probability 1 iff both endpoints carry the same ground-truth id (a
    node whose detections mix ids, or have none, matches nothing)."""
    ids = [node.gt_id for node in graph.nodes]
    known = np.array([gid is not None for gid in ids], dtype=bool)
    gid = np.array([gid or 0 for gid in ids], dtype=np.int64)
    u, v = graph.edge_u, graph.edge_v
    return (known[u] & known[v] & (gid[u] == gid[v])).astype(np.float64)


def _detection_sort_key(d: Detection):
    return (
        d.frame,
        d.box,
        d.confidence,
        d.visibility,
        d.gt_id is None,
        d.gt_id or 0,
        d.appearance.tobytes(),
    )


def _learned_scorer(params: ModelParams, dets: list[Detection]) -> EdgeScorer:
    """The learned model as an edge scorer for graphs over ``dets``.  As in
    training, nodes start from ``model.node_means`` of one clip-wide encoder
    pass, whose tape is dropped: inference needs no gradients."""
    app = Tensor(np.stack([d.appearance for d in dets]))
    enc = Tensor(mlp_forward(params.node_encoder, app).data)
    row_of = {d: i for i, d in enumerate(dets)}  # Detection hashes by identity

    def score(graph: TrackGraph) -> np.ndarray:
        eg = encode_graph(graph, params, node_means(enc, *node_rows(graph.nodes, row_of)))
        eg = message_pass(eg, params, params.config.message_passing_steps)
        return classify_edges(eg, params).data.ravel()

    return score


def _batches(edge_offsets: list[int]) -> Iterator[tuple[int, int]]:
    """Runs ``w0:w1`` of consecutive whole windows, where window w's edges
    are ``edge_offsets[w]:edge_offsets[w + 1]``: at most ``_BATCH_EDGES``
    candidate edges per run, and a window with more than that alone."""
    first = 0
    for w in range(1, len(edge_offsets) - 1):
        if edge_offsets[w + 1] - edge_offsets[first] > _BATCH_EDGES:
            yield first, w
            first = w
    if len(edge_offsets) > 1:
        yield first, len(edge_offsets) - 1


def run_levels(
    tracklets: Sequence[Tracklet], num_frames: int, level_sizes: Sequence[int], knn_k: int,
    merge: Callable[[TrackGraph, np.ndarray], list[Tracklet]],
) -> Iterator[tuple[TrackGraph, list[Tracklet]]]:
    """The levels of ``graph.clip_level_sizes``: each builds one graph of all
    its windows, ``merge`` turns that level graph and its window node offsets
    (``graph.window_offsets``) into merged tracklets, and the next level sees
    those.  Yields (graph, merged) per level."""
    for size in clip_level_sizes(num_frames, level_sizes):
        graph = build_graph(tracklets, knn_k, (1, num_frames), size)
        tracklets = merge(graph, window_offsets(graph.starts, 1, size))
        yield graph, tracklets


def track_video(
    detections: Sequence[Detection],
    params: ModelParams | None,
    config: TrackerConfig,
    edge_scorer: EdgeScorer | None = None,
) -> TrackResult:
    """Hierarchical tracking over a whole clip.

    Each level graph of ``run_levels`` is cut into batches, slices over
    consecutive whole windows of at most ``_BATCH_EDGES`` candidate edges;
    each batch is scored and rounded at once and its chains merged, which
    gives the merges of each window alone.  Levels past the configured ones
    double in size until one window covers the whole clip.  The learned model scores the batches unless `edge_scorer` replaces
    it (params may then be None).  Language embeddings are unreachable from
    here.  An edge probability outside [0, 1] or non-finite (say, from a NaN
    parameter) raises ValueError in ``round_edges``.
    """
    if not detections:
        raise ValueError("track_video needs at least one detection")
    if edge_scorer is None and params is None:
        raise ValueError("either model params or an edge scorer is required")
    dets = sorted(detections, key=_detection_sort_key)

    def merge(graph: TrackGraph, offsets: np.ndarray) -> list[Tracklet]:
        # edges are ordered by u and no edge leaves its window, so a run of
        # windows holds a contiguous range of nodes and one of edges
        nodes = offsets.tolist()
        edges = np.searchsorted(graph.edge_u, offsets).tolist()
        merged = []
        for w0, w1 in _batches(edges):
            a, b, e0, e1 = nodes[w0], nodes[w1], edges[w0], edges[w1]
            g = TrackGraph(graph.nodes[a:b], graph.edge_u[e0:e1] - a, graph.edge_v[e0:e1] - a,
                           graph.edge_features[e0:e1], graph.frame_span)
            merged.extend(merge_accepted(g, round_edges(g, score(g), config.threshold)))
        return merged

    with language_access_forbidden():
        score = edge_scorer or _learned_scorer(params, dets)
        for _, tracklets in run_levels(
            lift_detections(dets), dets[-1].frame, config.level_sizes, config.knn_k, merge
        ):
            pass  # a level's graphs are dropped once the next level's are built
    tracklets.sort(key=tracklet_sort_key)
    return TrackResult({tid: t.detections for tid, t in enumerate(tracklets, start=1)})
