"""From edge probabilities to trajectories.

Greedy flow-constrained rounding keeps at most one accepted successor and
one accepted predecessor per node, merges the resulting chains, and repeats
level by level; ``graph.py`` derives the levels and their windows, and the
top level's one window covers the whole clip, so whole-clip trajectories
remain; ``run_levels`` is that loop for tracking and training alike, with
one ``build_graph`` call per level.  A level's tracklets are rows of the
clip's detection arrays (``graph.TrackletRows``): rounding accepts the
locally dominant edges in array rounds, merging orders each chain's nodes by
pointer jumping and gathers their rows, and ``Detection`` lists are made
only for the final ``TrackResult``.  Tracking takes a level's node means in
one product, then scores the level in cache-sized batches: slices of the
level graph over consecutive whole windows, of at most ``_BATCH_EDGES``
candidate edges, each of which takes its rows of those means and gets one
model pass and one rounding; the level's accepted edges then merge at once.
Windows share no nodes or edges, so a batch accepts and merges exactly what
its windows would one by one.  Tracking is video-only by construction: no
operation here takes the language embedding store, and it runs under a
guard that turns any embedding access into an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .autodiff import Tensor
from .graph import (
    Detection,
    DetectionArrays,
    TrackGraph,
    TrackletRows,
    build_graph,
    check_level_sizes,
    clip_level_sizes,
    detection_order,
    lift_detections,
    tracklet_order,
    window_offsets,
)
from .guidance import language_access_forbidden
from .model import ModelParams, classify_edges, encode_graph, message_pass, node_means
from .nn import mlp_forward

__all__ = [
    "TrackerConfig",
    "TrackResult",
    "round_edges",
    "run_levels",
    "track_video",
    "gt_oracle_scorer",
]

# An edge scorer maps a graph to one probability in [0, 1] per edge: an oracle
# in tests and diagnostics, scoring each batch in place of the learned model.
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
            if type(tid) is not int or not 1 <= tid < 1 << 63:
                raise ValueError(f"track ids must be integers in [1, 2**63), got {tid!r}")
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


def _first_at_both_slots(u: np.ndarray, v: np.ndarray, num_nodes: int) -> np.ndarray:
    """Which edges, listed in rank order, come first at both their u out-slot
    and their v in-slot among the listed edges."""
    rank = np.arange(u.size)
    first_u = np.full(num_nodes, u.size)
    first_v = np.full(num_nodes, u.size)
    np.minimum.at(first_u, u, rank)
    np.minimum.at(first_v, v, rank)
    return (first_u[u] == rank) & (first_v[v] == rank)


def _greedy_pass(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Positions of the edges, listed in rank order, that the sequential
    greedy pass accepts: each one whose two slots no earlier acceptance took."""
    taken_u, taken_v, won = set(), set(), []
    for i, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
        if a not in taken_u and b not in taken_v:
            taken_u.add(a)
            taken_v.add(b)
            won.append(i)
    return np.array(won, dtype=np.intp)


def round_edges(graph: TrackGraph, probs: np.ndarray, threshold: float) -> np.ndarray:
    """Greedy rounding under the one-successor/one-predecessor constraint.

    Greedy visits edges by descending probability (ties by frame gap, then
    endpoint indices) and accepts an edge iff its probability exceeds the
    threshold and both temporal slots are still free.  Under that strict
    order greedy accepts exactly the locally dominant edges (Manne and
    Bisseling, PPAM 2007), which are found in rounds over the edges above the
    threshold: a round accepts every edge that comes first at both its u
    out-slot and its v in-slot, then drops the edges that share a slot with
    an accepted one.  A round that removes under a quarter of the edges left
    (a chain of edges, each outranked at a shared slot by the one before,
    loses two per round) hands the rest, still in order, to the sequential
    greedy pass, so there are O(log edges) rounds.  Returns accepted edge
    indices in ascending order.  The result is maximal: every rejected
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
    edges = np.flatnonzero(p > threshold)
    u, v = graph.edge_u[edges], graph.edge_v[edges]
    order = np.lexsort((v, u, graph.starts[v] - graph.ends[u], -p[edges]))
    edges, u, v = edges[order], u[order], v[order]
    free_u = np.ones(graph.num_nodes, dtype=bool)
    free_v = np.ones(graph.num_nodes, dtype=bool)
    accepted = [edges[:0]]
    while edges.size:
        win = _first_at_both_slots(u, v, graph.num_nodes)
        accepted.append(edges[win])
        free_u[u[win]] = False
        free_v[v[win]] = False
        keep = free_u[u] & free_v[v]
        left = edges.size
        edges, u, v = edges[keep], u[keep], v[keep]
        if 4 * edges.size > 3 * left:
            accepted.append(edges[_greedy_pass(u, v)])
            break
    return np.sort(np.concatenate(accepted))


def merge_accepted(graph: TrackGraph, accepted: np.ndarray) -> TrackletRows:
    """Merge the chains of accepted edges into longer tracklets, in node order
    of their heads (nodes with no accepted predecessor).  Pointer jumping
    gives each node its head and its depth below it, and the chains are the
    nodes ordered by (head, depth); edges run forward in time, so a chain's
    detections are in frame order.  A node with a second accepted successor
    or predecessor raises RuntimeError."""
    u, v = graph.edge_u[accepted], graph.edge_v[accepted]
    if np.any(np.bincount(u) > 1) or np.any(np.bincount(v) > 1):
        raise RuntimeError("accepted edges violate the one-per-slot degree constraint")
    head = np.arange(graph.num_nodes)
    head[v] = u  # each node's predecessor, and a head its own
    depth = np.zeros(graph.num_nodes, dtype=np.intp)
    depth[v] = 1
    while True:
        up = head[head]
        if np.array_equal(up, head):
            break
        depth += depth[head]
        head = up
    order = np.lexsort((depth, head))
    return graph.nodes.take(order, group=head[order])


def gt_oracle_scorer(graph: TrackGraph) -> np.ndarray:
    """Probability 1 iff both endpoints carry the same ground-truth id (a
    node whose detections mix ids, or have none, matches nothing)."""
    gid, pure = graph.nodes.node_gt()
    u, v = graph.edge_u, graph.edge_v
    return (pure[u] & pure[v] & (gid[u] == gid[v])).astype(np.float64)


def _model_probs(graph: TrackGraph, params: ModelParams, node_init: np.ndarray) -> np.ndarray:
    """The learned model's edge probabilities on ``graph``, whose node rows
    start from ``node_init``."""
    h, e = encode_graph(graph, params, Tensor(node_init))
    e = message_pass(graph, h, e, params, params.config.message_passing_steps)
    return classify_edges(e, params).data.ravel()


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
    tracklets: TrackletRows, num_frames: int, level_sizes: Sequence[int], knn_k: int,
    merge: Callable[[TrackGraph, np.ndarray], TrackletRows],
) -> Iterator[tuple[TrackGraph, TrackletRows]]:
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

    The detections are sorted (``graph.detection_order``) and lifted once;
    every level's tracklets are rows of those detections.  Each level graph
    of ``run_levels`` is cut into batches, slices over consecutive whole
    windows of at most ``_BATCH_EDGES`` candidate edges; each batch is scored
    and rounded at once, which gives the accepted edges of each window alone,
    and the level's accepted edges merge in one ``merge_accepted`` call.
    Levels past the configured ones double in size until one window covers
    the whole clip.  The learned model scores the batches unless
    `edge_scorer` replaces it (params may then be None).  As in training,
    nodes start from ``model.node_means`` of one clip-wide encoder pass,
    whose tape is dropped, taken once per level; a batch's nodes are a run
    of the level's, and each node's mean is the same bits wherever it is
    taken.  Language embeddings are unreachable from here.  An edge
    probability outside [0, 1] or non-finite (say, from a NaN parameter)
    raises ValueError in ``round_edges``.
    """
    if not detections:
        raise ValueError("track_video needs at least one detection")
    if edge_scorer is None and params is None:
        raise ValueError("either model params or an edge scorer is required")
    clip = DetectionArrays.of(detections)
    clip = clip.take(detection_order(clip))

    def merge(graph: TrackGraph, offsets: np.ndarray) -> TrackletRows:
        # edges are ordered by u and no edge leaves its window, so a run of
        # windows holds a contiguous range of nodes and one of edges
        nodes = offsets.tolist()
        edges = np.searchsorted(graph.edge_u, offsets).tolist()
        if edge_scorer is None:
            means = node_means(enc, graph.nodes).data
        accepted = []
        for w0, w1 in _batches(edges):
            a, b, e0, e1 = nodes[w0], nodes[w1], edges[w0], edges[w1]
            g = graph.sliced(a, b, e0, e1)
            probs = _model_probs(g, params, means[a:b]) if edge_scorer is None else edge_scorer(g)
            accepted.append(e0 + round_edges(g, probs, config.threshold))
        return merge_accepted(graph, np.concatenate(accepted))

    with language_access_forbidden():
        if edge_scorer is None:
            enc = Tensor(mlp_forward(params.node_encoder, Tensor(clip.app)).data)
        for _, tracklets in run_levels(
            lift_detections(clip), int(clip.frames[-1]), config.level_sizes, config.knn_k, merge
        ):
            pass  # a level's graphs are dropped once the next level's are built
    tracklets = tracklets.take(tracklet_order(tracklets))
    dets, rows, offsets = clip.detections, tracklets.rows.tolist(), tracklets.offsets.tolist()
    return TrackResult({tid: [dets[r] for r in rows[a:b]]
                        for tid, (a, b) in enumerate(zip(offsets[:-1], offsets[1:]), start=1)})
