"""Rounding and merging loops used only to cross-check ``inference``.

``ref_round_edges`` is the greedy loop ``inference.round_edges`` ran before
it accepted locally dominant edges in array rounds: edges in the strict
order (-p, gap, u, v), each accepted iff it passes the threshold and both
its slots are free.  ``round_edges`` must accept the same edges.

``ref_merge_walk`` is the dict walk ``inference.merge_accepted`` ran before
it ordered chains by pointer jumping: a successor dict, heads in node order,
and one ``Tracklet`` per chain.  ``merge_accepted`` must give the same
tracklets, detection by detection and in the same order.

``ref_merge_accepted`` is the merge as it was before it walked chains:
union-find finds the components of the accepted edges, a second pass checks
the one-successor, one-predecessor rule, each component's detections are
re-sorted by frame, and the merged tracklets are sorted by
``reference_graph.tracklet_sort_key``.  ``merge_accepted`` must give the
same tracklets in the same detection order.
"""

from __future__ import annotations

import numpy as np

from langtrack.graph import Tracklet


def ref_round_edges(graph, probs, threshold):
    """Greedy rounding, one edge at a time in the strict order."""
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


def ref_merge_walk(graph, accepted):
    """Chains of accepted edges walked from their heads, in head node order."""
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


def ref_components(n, pairs):
    """Connected components as sorted index lists, via union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def ref_check_degrees(pairs):
    succ, pred = set(), set()
    for u, v in pairs:
        if u in succ or v in pred:
            raise RuntimeError("accepted edges violate the one-per-slot degree constraint")
        succ.add(u)
        pred.add(v)


def ref_aggregate(parts):
    """Detections re-sorted by frame."""
    dets = sorted((d for p in parts for d in p.detections), key=lambda d: d.frame)
    frames = [d.frame for d in dets]
    if len(set(frames)) != len(frames):
        raise ValueError("cannot merge tracklets with overlapping frames")
    return Tracklet(dets)


def ref_merge_accepted(graph, accepted):
    from reference_graph import tracklet_sort_key  # reference_graph imports this module

    pairs = [(int(graph.edge_u[i]), int(graph.edge_v[i])) for i in accepted]
    ref_check_degrees(pairs)
    merged = [
        ref_aggregate([graph.nodes[i] for i in comp])
        for comp in ref_components(graph.num_nodes, pairs)
    ]
    return sorted(merged, key=tracklet_sort_key)
