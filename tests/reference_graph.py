"""Reference graph builders used only to cross-check the library.

``ref_build_graph`` ranks every candidate pair with scalar Python arithmetic
and builds each edge feature one edge at a time, exactly as
``graph.build_graph`` did before it scored successors as arrays.
``build_graph`` must reproduce these nodes, edges and features bitwise.
Quadratic in tracklets per window with a large constant: keep the inputs
small.

``group_by_window`` and ``union_graph`` are the per-window helpers the level
loop used before ``build_graph`` built a whole level in one call:
``ref_level_graph`` builds each window alone and joins them, and a level
``build_graph`` must reproduce that union bitwise.

``ref_teacher_forced_levels`` is the fragment loop ``trainer.prepare_clip``
ran before teacher forcing became a merge rule of the level loop shared with
tracking; ``prepare_clip`` must reproduce its levels bitwise.

``ref_track_per_window`` is ``inference.track_video`` as it ran before it
scored windows in batches and before its tracklets became rows of the
clip's detection arrays: the detections sorted by a tuple key, lists of
``Tracklet`` objects, and every window of every level with its own model
pass (node rows found through a detection dict), greedy rounding and merge.
``track_video`` must reproduce its trajectories, detection by detection and
in order.

``ref_sorted_with_keys`` is the per-tracklet node sort ``build_graph`` ran
before it sorted rows of detection arrays; ``graph.tracklet_order`` must
give its order.

``ref_prepare_levels`` is ``trainer.prepare_clip``'s level loop with the
dict walk teacher forcing merged by before it moved rows: each level's
merged ``Tracklet`` objects become rows of a new clip.  ``prepare_clip``
must reproduce its levels bitwise.

``tracklet_sort_key`` is the node order of ``graph.tracklet_order`` as one
tuple per tracklet, and ``rows_of`` turns hand-made ``Tracklet`` objects into
the ``TrackletRows`` the graph layer takes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from langtrack.data_io import compose_instance_description
from langtrack.graph import (
    EDGE_FEATURE_DIM,
    DetectionArrays,
    TrackGraph,
    Tracklet,
    TrackletRows,
    build_graph,
    clip_level_sizes,
)
from langtrack.autodiff import Tensor
from langtrack.inference import run_levels
from langtrack.model import classify_edges, encode_graph, message_pass, node_means
from langtrack.nn import mlp_forward
from langtrack.trainer import edge_labels
from reference_merge import ref_merge_walk, ref_round_edges

_PRUNE_CENTER_WEIGHT = 0.05
_PRUNE_GAP_WEIGHT = 0.01


def tracklet_sort_key(t: Tracklet):
    """Deterministic total-order key; only indistinguishable tracklets tie."""
    first, last = t.detections[0], t.detections[-1]
    return (
        t.start_frame,
        t.end_frame,
        first.box,
        last.box,
        first.appearance.tobytes(),
        last.appearance.tobytes(),
    )


def rows_of(tracklets: Sequence[Tracklet]) -> TrackletRows:
    """Rows of a new clip of the tracklets' detections, tracklet by tracklet."""
    tracklets = list(tracklets)
    sizes = [len(t.detections) for t in tracklets]
    clip = DetectionArrays.of([d for t in tracklets for d in t.detections])
    return TrackletRows(clip, np.arange(len(clip.detections)), np.cumsum([0] + sizes))


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


def union_graph(graphs: Sequence[TrackGraph], frame_span: tuple[int, int]) -> TrackGraph:
    """Batch window graphs into one disconnected graph over ``frame_span``:
    their nodes side by side, in graph order, and their edges re-indexed."""
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs[:-1]])
    return TrackGraph(
        nodes=rows_of([t for g in graphs for t in g.nodes]),
        edge_u=np.concatenate([g.edge_u + o for g, o in zip(graphs, offsets)]),
        edge_v=np.concatenate([g.edge_v + o for g, o in zip(graphs, offsets)]),
        edge_features=np.vstack([g.edge_features for g in graphs]),
        frame_span=frame_span,
    )


def ref_level_graph(tracklets, knn_k, size, num_frames, build=build_graph):
    """One level as the union of its window graphs, each built alone by
    ``build``, over [1, num_frames], and each window's node offset (plus
    the node count)."""
    graphs = [build(rows_of(members), knn_k, window)
              for window, members in group_by_window(tracklets, size, num_frames)]
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    if not graphs:
        return build(rows_of([]), knn_k, (1, num_frames)), offsets
    return union_graph(graphs, (1, num_frames)), offsets


def ref_cosine_distance(a, b):
    """1 - cosine similarity; degenerate zero vectors count as distance 1."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - float(np.dot(a, b)) / (na * nb)


def ref_center(det):
    left, top, width, height = det.box
    return (left + width / 2.0, top + height / 2.0)


def ref_edge_features(u, v):
    """Handcrafted 6-dim feature for the candidate edge u -> v."""
    if u.end_frame >= v.start_frame:
        raise ValueError(
            f"edge endpoints must be temporally disjoint, got [{u.start_frame},{u.end_frame}]"
            f" -> [{v.start_frame},{v.end_frame}]"
        )
    du, dv = u.detections[-1], v.detections[0]
    xu, yu = ref_center(du)
    xv, yv = ref_center(dv)
    hu, hv = du.box[3], dv.box[3]
    wu, wv = du.box[2], dv.box[2]
    return np.array(
        [
            2.0 * (xv - xu) / (hu + hv),
            2.0 * (yv - yu) / (hu + hv),
            np.log(hu / hv),
            np.log(wu / wv),
            float(v.start_frame - u.end_frame),
            ref_cosine_distance(du.appearance, dv.appearance),
        ]
    )


def ref_pruning_score(du, dv, dt):
    """Ranking score for candidate successors; lower is better."""
    xu, yu = ref_center(du)
    xv, yv = ref_center(dv)
    scale = (du.box[3] + dv.box[3]) / 2.0
    center = float(np.hypot(xv - xu, yv - yu)) / scale
    return (
        ref_cosine_distance(du.appearance, dv.appearance)
        + _PRUNE_CENTER_WEIGHT * center
        + _PRUNE_GAP_WEIGHT * dt
    )


def ref_build_graph(tracklets, knn_k, window):
    """Each tracklet's knn_k best successors by (score, frame gap, index)."""
    nodes = sorted(tracklets, key=tracklet_sort_key)
    starts = np.array([t.start_frame for t in nodes], dtype=np.int64)
    ends = np.array([t.end_frame for t in nodes], dtype=np.int64)
    edge_u, edge_v, feats = [], [], []
    for ui, u in enumerate(nodes):
        later = np.nonzero(starts > ends[ui])[0]
        ranked = sorted(
            later.tolist(),
            key=lambda vi: (
                ref_pruning_score(u.detections[-1], nodes[vi].detections[0],
                                  int(starts[vi] - ends[ui])),
                int(starts[vi] - ends[ui]),
                vi,
            ),
        )
        for vi in ranked[:knn_k]:
            edge_u.append(ui)
            edge_v.append(vi)
            feats.append(ref_edge_features(u, nodes[vi]))
    features = np.stack(feats) if feats else np.zeros((0, EDGE_FEATURE_DIM))
    return TrackGraph(rows_of(nodes), np.array(edge_u), np.array(edge_v), features, tuple(window))


def ref_teacher_forced_levels(clip, cfg, store):
    """Per level of the teacher-forced hierarchy: the union of its window
    graphs, each node's detection rows and count, edge labels and instance
    targets.  At each level every object contributes one fragment per
    previous-level window (single detections at the bottom)."""
    dets = sorted(clip.detections, key=lambda d: (d.frame, d.gt_id))
    num_frames = dets[-1].frame
    row_of = {d: i for i, d in enumerate(dets)}
    singles = [Tracklet([d]) for d in dets]
    sizes = clip_level_sizes(num_frames, cfg.level_sizes)
    levels = []
    for prev_size, size in zip([1] + sizes[:-1], sizes):
        fragments = []
        for _, members in group_by_window(singles, prev_size, num_frames):
            by_gt = {}
            for t in members:
                by_gt.setdefault(t.gt_id, []).extend(t.detections)
            fragments.extend(Tracklet(by_gt[gid]) for gid in sorted(by_gt))
        nodes, edge_u, edge_v, feats = [], [], [], []
        for window, members in group_by_window(fragments, size, num_frames):
            g = build_graph(rows_of(members), cfg.knn_k, window)
            edge_u.append(g.edge_u + len(nodes))
            edge_v.append(g.edge_v + len(nodes))
            feats.append(g.edge_features)
            nodes.extend(g.nodes)
        union = TrackGraph(rows_of(nodes), np.concatenate(edge_u), np.concatenate(edge_v),
                           np.vstack(feats), (1, num_frames))
        rows = np.array([row_of[d] for t in nodes for d in t.detections], dtype=np.intp)
        counts = np.array([len(t.detections) for t in nodes], dtype=np.intp)
        gt_ids = [t.gt_id for t in nodes]
        targets = np.stack([
            store.lookup(compose_instance_description(clip.annotations.instances[gid]))
            for gid in gt_ids
        ])
        levels.append((union, rows, counts, edge_labels(union, gt_ids), targets))
    return levels


def ref_detection_sort_key(d):
    return (
        d.frame,
        d.box,
        d.confidence,
        d.visibility,
        d.gt_id is None,
        d.gt_id or 0,
        d.appearance.tobytes(),
    )


def ref_sorted_with_keys(tracklets):
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


def ref_node_rows(nodes, row_of):
    """Each node's detection rows in ``row_of`` (keyed by detection
    identity), node by node, and its detection count."""
    rows = np.array([row_of[id(d)] for t in nodes for d in t.detections], dtype=np.intp)
    return rows, np.array([len(t.detections) for t in nodes], dtype=np.intp)


def ref_learned_scorer(params, dets):
    """The learned model over graphs of any tracklets of ``dets``: node rows
    looked up by detection, one clip-wide encoder pass."""
    clip = DetectionArrays.of(dets)
    enc = Tensor(mlp_forward(params.node_encoder, Tensor(clip.app)).data)
    row_of = {id(d): i for i, d in enumerate(dets)}

    def score(graph):
        rows, sizes = ref_node_rows(graph.nodes, row_of)
        nodes = TrackletRows(clip, rows, np.concatenate(([0], np.cumsum(sizes))))
        h, e = encode_graph(graph, params, node_means(enc, nodes))
        e = message_pass(graph, h, e, params, params.config.message_passing_steps)
        return classify_edges(e, params).data.ravel()

    return score


def ref_track_per_window(detections, params, config, edge_scorer=None):
    """The final tracklets of the per-window level loop, in track-id order."""
    dets = sorted(detections, key=ref_detection_sort_key)
    score = edge_scorer or ref_learned_scorer(params, dets)
    num_frames = dets[-1].frame
    tracklets = [Tracklet([d]) for d in dets]
    for size in clip_level_sizes(num_frames, config.level_sizes):
        merged = []
        for window, members in group_by_window(tracklets, size, num_frames):
            g = build_graph(rows_of(members), config.knn_k, window)
            merged.extend(ref_merge_walk(g, ref_round_edges(g, score(g), config.threshold)))
        tracklets = merged
    return sorted(tracklets, key=tracklet_sort_key)


def ref_merge_by_identity(graph, offsets):
    """Teacher forcing as a dict walk: one tracklet per first-detection gt
    id of each window's nodes, in the order of each id's first node."""
    merged = []
    for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        by_gt = {}
        for node in graph.nodes[a:b]:
            by_gt.setdefault(node.detections[0].gt_id, []).extend(node.detections)
        merged.extend(Tracklet(dets) for dets in by_gt.values())
    return merged


def ref_prepare_levels(clip, cfg, store):
    """Per level of ``prepare_clip``'s hierarchy, with the dict-walk merge:
    the level graph, each node's detection rows and count, edge labels and
    instance targets."""
    dets = sorted(clip.detections, key=lambda d: (d.frame, d.gt_id))
    row_of = {id(d): i for i, d in enumerate(dets)}
    levels = []
    for graph, _ in run_levels(rows_of([Tracklet([d]) for d in dets]), dets[-1].frame,
                               cfg.level_sizes, cfg.knn_k,
                               lambda g, offsets: rows_of(ref_merge_by_identity(g, offsets))):
        gt_ids = [t.detections[0].gt_id for t in graph.nodes]
        targets = np.stack([
            store.lookup(compose_instance_description(clip.annotations.instances[gid]))
            for gid in gt_ids
        ])
        levels.append((graph, *ref_node_rows(graph.nodes, row_of),
                       edge_labels(graph, gt_ids), targets))
    return levels
