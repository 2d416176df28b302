"""Union-find merge used only to cross-check ``inference.merge_accepted``.

This is the merge as it was before it walked chains: union-find finds the
components of the accepted edges, a second pass checks the one-successor,
one-predecessor rule, each component's detections are re-sorted by frame,
and the merged tracklets are sorted by ``tracklet_sort_key``.
``merge_accepted`` must give the same tracklets in the same detection order.
"""

from __future__ import annotations

from langtrack.graph import Tracklet, tracklet_sort_key


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
    pairs = [(int(graph.edge_u[i]), int(graph.edge_v[i])) for i in accepted]
    ref_check_degrees(pairs)
    merged = [
        ref_aggregate([graph.nodes[i] for i in comp])
        for comp in ref_components(graph.num_nodes, pairs)
    ]
    return sorted(merged, key=tracklet_sort_key)
