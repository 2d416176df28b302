"""Per-pair candidate-graph construction used only to cross-check the fast path.

Every candidate pair is ranked with scalar Python arithmetic and its edge
feature built one edge at a time, exactly as ``graph.build_graph`` did
before it scored successors as arrays.  ``build_graph`` must reproduce
these nodes, edges and features bitwise.  Quadratic in tracklets per
window with a large constant: keep the inputs small.
"""

from __future__ import annotations

import numpy as np

from langtrack.graph import EDGE_FEATURE_DIM, TrackGraph, tracklet_sort_key

_PRUNE_CENTER_WEIGHT = 0.05
_PRUNE_GAP_WEIGHT = 0.01


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
    du, dv = u.last, v.first
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
                ref_pruning_score(u.last, nodes[vi].first, int(starts[vi] - ends[ui])),
                int(starts[vi] - ends[ui]),
                vi,
            ),
        )
        for vi in ranked[:knn_k]:
            edge_u.append(ui)
            edge_v.append(vi)
            feats.append(ref_edge_features(u, nodes[vi]))
    features = np.stack(feats) if feats else np.zeros((0, EDGE_FEATURE_DIM))
    return TrackGraph(nodes, np.array(edge_u), np.array(edge_v), features, tuple(window))
