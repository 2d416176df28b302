"""Rounding, merging, id assignment, and the hierarchical tracking loop."""

from pathlib import Path

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langtrack import inference
from langtrack.autodiff import Tensor
from langtrack.data_io import SceneAttributes
from langtrack.graph import (
    Detection,
    TrackGraph,
    Tracklet,
    build_graph,
    lift_detections,
    window_offsets,
)
from langtrack.guidance import LanguageEmbeddingStore
from langtrack.inference import (
    TrackerConfig,
    TrackResult,
    gt_oracle_scorer,
    merge_accepted,
    round_edges,
    track_video,
)
from langtrack.metrics import BoxRecord, evaluate, records_from_result
from langtrack.model import (
    ModelConfig,
    classify_edges,
    encode_graph,
    init_model,
    message_pass,
    node_means,
    params_from_tensors,
)
from langtrack.nn import focal_bce_tape, load_checkpoint, mlp_forward
from langtrack.synth import SynthConfig, gen_sequence, identity_profile
from reference_graph import ref_learned_scorer, ref_track_per_window, rows_of
from reference_merge import ref_merge_accepted, ref_merge_walk, ref_round_edges


def det(frame, x=0.0, y=0.0, app=(1.0, 0.0, 0.0), gt_id=None, w=4.0, h=8.0):
    return Detection(frame, (x, y, w, h), np.asarray(app, float), gt_id=gt_id)


def single(frame, **kw):
    return Tracklet([det(frame, **kw)])


def chain_graph(n=3):
    return build_graph(rows_of([single(i + 1, x=2.0 * i) for i in range(n)]), 5, (1, n))


# -- round_edges ------------------------------------------------------------


def test_round_accepts_clean_chain():
    g = chain_graph(3)
    # direct edges 1->2, 2->3 and skip 1->3
    probs = np.zeros(g.num_edges)
    for i in range(g.num_edges):
        gap = g.nodes[g.edge_v[i]].start_frame - g.nodes[g.edge_u[i]].end_frame
        probs[i] = 0.9 if gap == 1 else 0.1
    accepted = round_edges(g, probs, 0.5)
    assert len(accepted) == 2
    gaps = [g.nodes[g.edge_v[i]].start_frame - g.nodes[g.edge_u[i]].end_frame
            for i in accepted]
    assert gaps == [1, 1]


def test_round_resolves_predecessor_conflict_by_probability():
    a, b, c = single(1, x=0.0), single(2, x=10.0), single(3, x=5.0)
    g = build_graph(rows_of([a, b, c]), 5, (1, 3))
    probs = np.zeros(g.num_edges)
    idx = {}
    for i in range(g.num_edges):
        key = (g.nodes[g.edge_u[i]].start_frame, g.nodes[g.edge_v[i]].start_frame)
        idx[key] = i
    probs[idx[(1, 3)]] = 0.9
    probs[idx[(2, 3)]] = 0.8
    accepted = round_edges(g, probs, 0.5)
    assert list(accepted) == [idx[(1, 3)]]


def test_round_empty_below_threshold():
    g = chain_graph(3)
    assert round_edges(g, np.full(g.num_edges, 0.4), 0.5).size == 0
    assert round_edges(g, np.full(g.num_edges, 0.5), 0.5).size == 0  # strict


def test_round_validates_inputs():
    g = chain_graph(2)
    with pytest.raises(ValueError):
        round_edges(g, np.ones(5), 0.5)
    with pytest.raises(ValueError):
        round_edges(g, np.ones(g.num_edges), 1.0)


@pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
def test_round_rejects_probabilities_outside_the_unit_interval(bad):
    g = chain_graph(3)
    probs = np.full(g.num_edges, 0.9)
    probs[1] = bad
    with pytest.raises(ValueError, match="finite"):
        round_edges(g, probs, 0.5)


def test_round_edgeless_graph_accepts_nothing():
    g = build_graph(rows_of([single(1), single(1, x=20.0)]), 5, (1, 1))
    assert g.num_nodes == 2 and g.num_edges == 0
    accepted = round_edges(g, np.zeros(0), 0.5)
    assert accepted.shape == (0,) and accepted.dtype == np.intp


def test_round_feasible_and_maximal_randomized():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(2, 12))
        span = int(rng.integers(2, 8))
        tracklets = [
            single(int(rng.integers(1, span + 1)), x=float(rng.uniform(0, 30)),
                   app=rng.standard_normal(3))
            for _ in range(n)
        ]
        g = build_graph(rows_of(tracklets), int(rng.integers(1, 5)), (1, span))
        if g.num_edges == 0:
            continue
        probs = rng.uniform(0, 1, g.num_edges)
        th = float(rng.uniform(0.2, 0.8))
        accepted = round_edges(g, probs, th)
        acc = set(accepted.tolist())
        succ = [int(g.edge_u[i]) for i in acc]
        pred = [int(g.edge_v[i]) for i in acc]
        assert len(succ) == len(set(succ)) and len(pred) == len(set(pred))
        assert all(probs[i] > th for i in acc)
        for i in range(g.num_edges):
            if i in acc or probs[i] <= th:
                continue
            # maximality: adding any rejected above-threshold edge must clash
            assert int(g.edge_u[i]) in succ or int(g.edge_v[i]) in pred


def greedy_by_sorted_key(g, probs, threshold):
    """round_edges' greedy pass, visiting edges in the order of a Python sort
    on (-p, frame gap, u, v)."""
    gaps = [g.nodes[v].start_frame - g.nodes[u].end_frame for u, v in zip(g.edge_u, g.edge_v)]
    order = sorted(
        range(g.num_edges),
        key=lambda i: (-probs[i], gaps[i], int(g.edge_u[i]), int(g.edge_v[i])),
    )
    succ, pred, accepted = set(), set(), []
    for i in order:
        u, v = int(g.edge_u[i]), int(g.edge_v[i])
        if probs[i] > threshold and u not in succ and v not in pred:
            succ.add(u)
            pred.add(v)
            accepted.append(i)
    return sorted(accepted)


def test_round_visits_edges_in_sorted_key_order_on_exact_ties():
    rng = np.random.default_rng(1)
    for trial in range(300):
        span = int(rng.integers(2, 6))
        tracklets = [
            single(int(rng.integers(1, span + 1)), x=float(rng.uniform(0, 30)),
                   app=rng.standard_normal(3))
            for _ in range(int(rng.integers(2, 14)))
        ]
        g = build_graph(rows_of(tracklets), int(rng.integers(1, 6)), (1, span))
        # three levels above the threshold, so most edges tie with others
        probs = rng.choice([0.6, 0.8, 0.9, 0.2], g.num_edges)
        assert round_edges(g, probs, 0.5).tolist() == greedy_by_sorted_key(g, probs, 0.5)


# -- agreement with the greedy loop and the chain walk (reference_merge.py) ------


@st.composite
def scored_graphs(draw):
    """A graph of multi-detection tracklets in any node order (so a chain's
    nodes need not come in node order), random edges forward in time in any
    order, and edge probabilities that are uniform, rounded to 0.1 (ties on
    p, broken by gap and endpoints) or all equal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = []
    for _ in range(draw(st.integers(0, 16))):
        start = int(rng.integers(1, 12))
        frames = range(start, start + int(rng.integers(1, 4)))
        nodes.append(Tracklet([det(f, x=float(rng.integers(0, 3))) for f in frames]))
    pairs = [(i, j) for i, a in enumerate(nodes) for j, b in enumerate(nodes)
             if a.end_frame < b.start_frame]
    rng.shuffle(pairs)
    pairs = pairs[:int(len(pairs) * draw(st.floats(0.0, 1.0)))]
    u = np.array([i for i, _ in pairs], dtype=np.intp)
    v = np.array([j for _, j in pairs], dtype=np.intp)
    g = TrackGraph(rows_of(nodes), u, v, np.zeros((len(pairs), 6)), (1, 14))
    probs = rng.uniform(0.0, 1.0, g.num_edges)
    kind = draw(st.sampled_from(["uniform", "tenths", "equal"]))
    if kind == "tenths":
        probs = np.round(probs, 1)
    elif kind == "equal":
        probs = np.full(g.num_edges, 0.7)
    return g, probs


def counted_rounds(monkeypatch):
    """A list that grows by one per array round of ``round_edges``."""
    rounds = []
    first_at_both_slots = inference._first_at_both_slots

    def counted(u, v, num_nodes):
        rounds.append(u.size)
        return first_at_both_slots(u, v, num_nodes)

    monkeypatch.setattr(inference, "_first_at_both_slots", counted)
    return rounds


@given(scored_graphs(), st.sampled_from([0.05, 0.5, 0.65, 0.95]))
@settings(max_examples=400, deadline=None)
def test_round_edges_matches_the_greedy_loop(case, threshold):
    g, probs = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        rounds = counted_rounds(monkeypatch)
        got = round_edges(g, probs, threshold)
    want = ref_round_edges(g, probs, threshold)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # each round but the last removes a quarter of the edges left, or is the last
    assert all(4 * b <= 3 * a for a, b in zip(rounds, rounds[1:]))
    assert len(rounds) <= 1 + math.log(max(g.num_edges, 1)) / math.log(4 / 3)


def dominance_chain(n):
    """A one-object path of n nodes with edges i->i+1 and i->i+2, in that
    order, at probabilities that fall along it: each edge is outranked at a
    shared slot by the one before, so an array round accepts one edge."""
    nodes = [single(i + 1, x=float(i)) for i in range(n)]
    u = np.repeat(np.arange(n), 2)[:-2]
    v = u + np.tile([1, 2], n)[: u.size]
    keep = v < n
    u, v = u[keep], v[keep]
    g = TrackGraph(rows_of(nodes), u, v, np.zeros((u.size, 6)), (1, n))
    return g, 0.99 - 0.4 * np.arange(u.size) / u.size


@pytest.mark.parametrize("n", [1000, 5000])
def test_round_edges_takes_few_rounds_on_a_dominance_chain(monkeypatch, n):
    g, probs = dominance_chain(n)
    rounds = counted_rounds(monkeypatch)
    got = round_edges(g, probs, 0.5)
    want = ref_round_edges(g, probs, 0.5)
    assert got.tobytes() == want.tobytes()
    assert want.size == n - 1  # the whole path, one edge at a time
    assert len(rounds) <= 2  # the first round removes 2 edges, so greedy takes over


@given(scored_graphs(), st.sampled_from([0.05, 0.5, 0.95]))
@settings(max_examples=400, deadline=None)
def test_merge_accepted_matches_the_chain_walk(case, threshold):
    g, probs = case
    accepted = ref_round_edges(g, probs, threshold)
    merged = merge_accepted(g, accepted)
    assert merged_parts(merged) == merged_parts(ref_merge_walk(g, accepted))
    assert len(merged) == g.num_nodes - accepted.size


@pytest.mark.parametrize("objects,frames", [(4, 600), (16, 150)])
def test_learned_rounding_and_merging_match_the_loops_at_every_level(objects, frames):
    detections = desk_clip(objects, frames, seed=objects + frames)
    score = ref_learned_scorer(desk_model(), detections)

    def checked_merge(graph, offsets):
        probs = score(graph)
        accepted = round_edges(graph, probs, DESK_CFG.threshold)
        assert accepted.tobytes() == ref_round_edges(graph, probs, DESK_CFG.threshold).tobytes()
        merged = merge_accepted(graph, accepted)
        assert merged_parts(merged) == merged_parts(ref_merge_walk(graph, accepted))
        return merged

    levels = list(inference.run_levels(lift_detections(detections), frames,
                                       DESK_CFG.level_sizes, DESK_CFG.knn_k, checked_merge))
    assert sum(graph.num_nodes - len(merged) for graph, merged in levels) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
def test_round_edges_rejects_what_the_greedy_loop_rejects(bad):
    g = chain_graph(4)
    probs = np.full(g.num_edges, 0.9)
    probs[-1] = bad
    for rounding in (round_edges, ref_round_edges):
        with pytest.raises(ValueError, match="finite"):
            rounding(g, probs, 0.5)


def test_merge_accepted_rejects_a_double_slot_like_the_chain_walk():
    g = chain_graph(3)  # edges 1->2, 1->3 and 2->3
    for accepted in ([edge_index(g, 1, 2), edge_index(g, 1, 3)],
                     [edge_index(g, 1, 3), edge_index(g, 2, 3)],
                     [edge_index(g, 1, 2), edge_index(g, 1, 2)]):
        for merge in (merge_accepted, ref_merge_walk):
            with pytest.raises(RuntimeError, match="one-per-slot"):
                merge(g, np.array(accepted))


# -- id assignment: merge_accepted and track_video ------------------------------


def edge_index(g, u_frame, v_frame):
    """Index of the edge from the node starting at u_frame to the one at v_frame."""
    pairs = [(g.nodes[u].start_frame, g.nodes[v].start_frame) for u, v in zip(g.edge_u, g.edge_v)]
    return pairs.index((u_frame, v_frame))


def no_links(graph):
    return np.zeros(graph.num_edges)


def test_assign_singletons():
    res = track_video([det(f) for f in (3, 1, 2, 4)], None, SMALL_CFG, edge_scorer=no_links)
    assert res.num_tracks == 4
    assert [res.trajectories[i][0].frame for i in range(1, 5)] == [1, 2, 3, 4]


def test_assign_chain_merges_detections_in_frame_order():
    g = build_graph(rows_of([single(3), single(1), single(2)]), 5, (1, 3))
    merged = merge_accepted(g, np.array(sorted([edge_index(g, 1, 2), edge_index(g, 2, 3)])))
    assert len(merged) == 1
    assert [d.frame for d in merged[0].detections] == [1, 2, 3]


def test_assign_parallel_chains_ordered_by_start():
    late = [det(5, x=1.0, gt_id=1), det(6, x=1.0, gt_id=1)]
    early = [det(2, x=9.0, gt_id=2), det(4, x=9.0, gt_id=2)]
    res = track_video(late + early, None, SMALL_CFG, edge_scorer=gt_oracle_scorer)
    assert res.num_tracks == 2
    assert [d.frame for d in res.trajectories[1]] == [2, 4]
    assert [d.frame for d in res.trajectories[2]] == [5, 6]


def test_assign_rejects_degree_violation():
    g = build_graph(rows_of([single(1), single(2), single(3)]), 5, (1, 3))
    with pytest.raises(RuntimeError):
        merge_accepted(g, np.array(sorted([edge_index(g, 1, 3), edge_index(g, 2, 3)])))
    with pytest.raises(RuntimeError):
        merge_accepted(g, np.array(sorted([edge_index(g, 1, 2), edge_index(g, 1, 3)])))


def test_merge_accepted_grows_tracklets():
    g = chain_graph(3)
    probs = np.ones(g.num_edges) * 0.05
    for i in range(g.num_edges):
        gap = g.nodes[g.edge_v[i]].start_frame - g.nodes[g.edge_u[i]].end_frame
        if gap == 1:
            probs[i] = 0.95
    merged = merge_accepted(g, round_edges(g, probs, 0.5))
    assert len(merged) == 1
    assert [d.frame for d in merged[0].detections] == [1, 2, 3]


@st.composite
def accepted_windows(draw):
    """A window of multi-detection tracklets, and the edges ``round_edges``
    accepts at random probabilities."""
    span = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few distinct boxes and rows, so tracklets tie on their sort key
    boxes = [(0.0, 0.0, 4.0, 8.0), (10.0, 0.0, 4.0, 8.0)]
    apps = [rng.standard_normal(3) for _ in range(2)]
    tracklets = []
    for _ in range(draw(st.integers(1, 16))):
        start = draw(st.integers(1, span))
        length = draw(st.integers(1, 4))
        dets = []
        for frame in range(start, min(start + length, span + 1)):
            if draw(st.booleans()):
                box, app = boxes[draw(st.integers(0, 1))], apps[draw(st.integers(0, 1))]
            else:
                box, app = tuple(rng.uniform(1.0, 30.0, 4)), rng.standard_normal(3)
            dets.append(Detection(frame, box, app))
        tracklets.append(Tracklet(dets))
    g = build_graph(rows_of(tracklets), draw(st.integers(1, 8)), (1, span))
    probs = rng.uniform(0.0, 1.0, g.num_edges)
    return g, round_edges(g, probs, draw(st.floats(0.05, 0.95)))


def merged_parts(merged):
    """Each merged tracklet as its detections' identities, in order."""
    return [tuple(id(d) for d in t.detections) for t in merged]


@given(accepted_windows())
@settings(max_examples=300, deadline=None)
def test_merge_accepted_matches_union_find_reference(case):
    g, accepted = case
    merged = merge_accepted(g, accepted)
    ref = ref_merge_accepted(g, accepted)
    assert sorted(merged_parts(merged)) == sorted(merged_parts(ref))
    # first-node order: the merged tracklets' heads come in node order
    node_of = {id(node.detections[0]): i for i, node in enumerate(g.nodes)}
    heads = [node_of[id(t.detections[0])] for t in merged]
    assert heads == sorted(heads)


def test_track_result_validation():
    with pytest.raises(ValueError):
        TrackResult({0: [det(1)]})
    with pytest.raises(ValueError):
        TrackResult({1: [det(2), det(2)]})
    with pytest.raises(ValueError):
        TrackResult({1: []})
    # write_result would write such an id into the MOT file as it is
    for tid in (1.5, True, "2", 2**63):
        with pytest.raises(ValueError, match=rf"\[1, 2\*\*63\), got {re.escape(repr(tid))}"):
            TrackResult({tid: [det(1)]})
    TrackResult({2**63 - 1: [det(1)]})


# -- track_video -------------------------------------------------------------------


SMALL_CFG = TrackerConfig(level_sizes=[5, 25, 75, 150], knn_k=10, threshold=0.5)


def tiny_model(seed=0):
    return init_model(
        np.random.default_rng(seed),
        ModelConfig(message_passing_steps=2, edge_dim=4, text_dim=4, node_dim=8,
                    appearance_dim=3),
    )


def test_single_detection_single_trajectory():
    res = track_video([det(1)], tiny_model(), SMALL_CFG)
    assert res.num_tracks == 1
    assert [d.frame for d in res.trajectories[1]] == [1]


def test_track_video_rejects_empty():
    with pytest.raises(ValueError):
        track_video([], tiny_model(), SMALL_CFG)


def two_object_scene(num_frames=10):
    dets = []
    for f in range(1, num_frames + 1):
        dets.append(det(f, x=0.0 + 0.5 * f, y=0.0, app=(1.0, 0.0, 0.0), gt_id=1))
        dets.append(det(f, x=100.0 - 0.5 * f, y=80.0, app=(0.0, 1.0, 0.0), gt_id=2))
    return dets


def test_oracle_tracks_two_objects_exactly():
    dets = two_object_scene()
    res = track_video(dets, None, SMALL_CFG, edge_scorer=gt_oracle_scorer)
    assert res.num_tracks == 2
    for tid, dets_out in res.trajectories.items():
        gt = {d.gt_id for d in dets_out}
        assert len(gt) == 1
        assert len(dets_out) == 10


def test_oracle_handles_cross_window_gaps():
    # detections vanish for a few frames mid-clip; levels 2+ must bridge
    dets = []
    for f in list(range(1, 8)) + list(range(12, 20)):
        dets.append(det(f, x=1.0 * f, app=(1.0, 0.0, 0.0), gt_id=7))
    res = track_video(dets, None, SMALL_CFG, edge_scorer=gt_oracle_scorer)
    assert res.num_tracks == 1
    assert len(res.trajectories[1]) == len(dets)


def test_oracle_matches_pure_nodes_of_one_id_only():
    # nodes: id 1, id 1, id 2, mixed ids 1 and 2, unlabeled, unlabeled
    mixed = Tracklet([det(4, gt_id=1), det(5, gt_id=2)])
    nodes = [single(1, gt_id=1), single(2, gt_id=1), single(3, gt_id=2), mixed,
             single(6), single(7)]
    u = [0, 0, 0, 3, 4, 1]
    v = [1, 2, 3, 4, 5, 5]
    graph = TrackGraph(rows_of(nodes), u, v, np.zeros((6, 6)), (1, 7))
    assert gt_oracle_scorer(graph).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("num_frames", [300, 600, 1000])
def test_oracle_links_clips_longer_than_the_top_level(num_frames):
    # criterion 5 past the configured 150-frame top level: the doubled
    # levels must still join every object into one whole-clip trajectory
    domain = identity_profile("source", SceneAttributes("medium", "static", "on a sunny day"), 8)
    synth = SynthConfig(
        num_objects=4, num_frames=num_frames, appearance_dim=8, appearance_noise=0.05,
        occlusion_rate=0.2, velocity_scale=8.0, box_jitter=0.1, seed=12,
    )
    detections, _ = gen_sequence(synth, domain)
    result = track_video(detections, None, TrackerConfig(), edge_scorer=gt_oracle_scorer)
    gt = [BoxRecord(d.frame, d.gt_id, d.box) for d in detections]
    rep = evaluate(gt, records_from_result(result))
    assert rep.idf1 == 1.0
    assert rep.hota == 1.0


def test_run_levels_feeds_each_level_the_merges_of_the_one_before():
    # one object over 40 frames; levels 5 and 10 double to 20 and 40, and
    # each window merges into one tracklet
    windows = []

    def merge_windows(graph, offsets):
        windows.append(len(offsets) - 1)
        return rows_of([Tracklet([d for t in graph.nodes[a:b] for d in t.detections])
                        for a, b in zip(offsets[:-1], offsets[1:])])

    singles = lift_detections([det(f, x=float(f)) for f in range(1, 41)])
    levels = list(inference.run_levels(singles, 40, [5, 10], 3, merge_windows))
    assert windows == [8, 4, 2, 1]
    assert [graph.num_nodes for graph, _ in levels] == [40, 8, 4, 2]
    assert [graph.frame_span for graph, _ in levels] == [(1, 40)] * 4
    assert [len(merged) for _, merged in levels] == windows
    (whole,) = levels[-1][1]
    assert [d.frame for d in whole.detections] == list(range(1, 41))


def test_level_nodes_iterate_as_the_graph_frames_and_node_ids():
    # graph.nodes, iterated, gives Tracklets whose frames are the graph's
    # starts and ends and whose gt ids are node_gt's (None where impure), on
    # merged nodes, nodes mixing two ids and nodes without ground truth
    rng = np.random.default_rng(5)
    dets = [det(f, x=float(rng.uniform(0, 40)), gt_id=gt_id)
            for f in range(1, 31) for gt_id in (0, 2, None)]

    def merge_all(graph, offsets):
        return merge_accepted(graph, round_edges(graph, np.full(graph.num_edges, 0.9), 0.5))

    merged = impure = no_gt = False
    for graph, _ in inference.run_levels(lift_detections(dets), 30, [5, 10], 3, merge_all):
        nodes = list(graph.nodes)
        gid, pure = graph.nodes.node_gt()
        assert [t.start_frame for t in nodes] == graph.starts.tolist()
        assert [t.end_frame for t in nodes] == graph.ends.tolist()
        assert [t.gt_id for t in nodes] == [int(g) if p else None for g, p in zip(gid, pure)]
        ids = [{d.gt_id for d in t.detections} for t in nodes]
        merged |= any(len(t.detections) > 1 for t in nodes)
        impure |= any(len(i - {None}) > 1 for i in ids)
        no_gt |= {None} in ids
    assert merged and impure and no_gt


@pytest.mark.parametrize("level_sizes", [[5, 10, 20], [2**62 - 1], [2**62]])
def test_a_clip_ending_at_the_frame_bound_tracks(level_sizes):
    # frames up to 2**62, the largest a detection takes: the doubled levels
    # (up to 2**63 - 2) and their windows' last frames stay inside int64
    last = 2**62
    frames = [*range(1, 6), *range(last - 4, last + 1)]
    dets = [det(f, x=50.0 * k + i, gt_id=k + 1) for i, f in enumerate(frames) for k in range(2)]
    config = TrackerConfig(level_sizes=level_sizes, knn_k=3)
    result = track_video(dets, None, config, edge_scorer=gt_oracle_scorer)
    assert sorted(map(len, result.trajectories.values())) == [10, 10]


# -- batches of whole windows ------------------------------------------------------

# The benchmark's trained desk model and its tracker settings, on clips of its world.
DESK_CHECKPOINT = Path(__file__).resolve().parent.parent / "bench/fixtures/desk30.checkpoint.json"
DESK_CFG = TrackerConfig(level_sizes=[5, 25, 75, 150], knn_k=3)


def desk_model():
    tensors, meta = load_checkpoint(DESK_CHECKPOINT)
    return params_from_tensors(tensors, ModelConfig.from_dict(meta["model"]))


def desk_clip(objects, frames, seed):
    cfg = SynthConfig(num_objects=objects, num_frames=frames, appearance_dim=64,
                      appearance_noise=0.08, occlusion_rate=0.2, velocity_scale=10.0,
                      box_jitter=0.15, seed=seed)
    scene = SceneAttributes("medium", "static", "on a sunny day")
    detections, _ = gen_sequence(cfg, identity_profile("source", scene, 64))
    return detections


def trajectory_ids(result):
    """Each trajectory as its detections' identities, in track-id order."""
    return [tuple(id(d) for d in result.trajectories[tid]) for tid in sorted(result.trajectories)]


@pytest.mark.parametrize("objects,frames", [(4, 1200), (32, 150), (8, 150)])
@pytest.mark.parametrize("oracle", [False, True])
def test_batched_tracking_matches_the_per_window_loop_bitwise(objects, frames, oracle):
    detections = desk_clip(objects, frames, seed=frames + objects)
    params = desk_model()
    scorer = gt_oracle_scorer if oracle else None
    result = track_video(detections, params, DESK_CFG, edge_scorer=scorer)
    reference = ref_track_per_window(detections, params, DESK_CFG, edge_scorer=scorer)
    assert trajectory_ids(result) == merged_parts(reference)


def test_level_node_means_sliced_are_the_batch_node_means_bitwise(monkeypatch):
    # tracking takes node means once per level and slices them per batch
    monkeypatch.setattr(inference, "_BATCH_EDGES", 50)  # several batches per level
    levels = []

    def record_level(tracklets, knn_k, window, size):
        levels.append((build_graph(tracklets, knn_k, window, size), []))
        return levels[-1][0]

    def record_batch(graph, probs, threshold):
        levels[-1][1].append(graph)
        return round_edges(graph, probs, threshold)

    monkeypatch.setattr(inference, "build_graph", record_level)
    monkeypatch.setattr(inference, "round_edges", record_batch)
    params = desk_model()
    track_video(desk_clip(4, 317, seed=11), params, DESK_CFG)
    clip = levels[0][0].nodes.clip
    enc = Tensor(mlp_forward(params.node_encoder, Tensor(clip.app)).data)
    for level, batches in levels:
        means = node_means(enc, level.nodes).data
        a = 0
        for batch in batches:
            alone = node_means(enc, batch.nodes).data
            assert means[a : a + batch.num_nodes].tobytes() == alone.tobytes()
            a += batch.num_nodes
        assert a == level.num_nodes
    assert sum(len(batches) > 1 for _, batches in levels) >= 3
    assert any(np.any(level.nodes.sizes > 1) for level, _ in levels)


def test_batches_hold_whole_consecutive_windows_within_the_edge_budget(monkeypatch):
    monkeypatch.setattr(inference, "_BATCH_EDGES", 8)
    counts = [0, 3, 5, 0, 20, 0, 2, 7, 8, 0]  # edges per window
    batches = list(inference._batches(np.cumsum([0] + counts).tolist()))
    # edgeless windows join a batch, a window over the budget is scored alone
    assert [counts[w0:w1] for w0, w1 in batches] == [[0, 3, 5, 0], [20], [0, 2], [7], [8, 0]]
    assert [w for w0, w1 in batches for w in range(w0, w1)] == list(range(len(counts)))
    assert list(inference._batches([0])) == []


@pytest.mark.parametrize("budget", [0, 50, 1 << 30])
def test_every_budget_scores_whole_windows_and_gives_the_per_window_merges(monkeypatch, budget):
    # budget 0 scores each window with edges alone; 1 << 30 scores whole levels
    monkeypatch.setattr(inference, "_BATCH_EDGES", budget)
    levels = []

    def record_level(tracklets, knn_k, window, size):
        level = build_graph(tracklets, knn_k, window, size)
        levels.append((level, window_offsets(level.starts, window[0], size).tolist(), []))
        return level

    def record_batch(graph, probs, threshold):
        levels[-1][2].append(graph)
        return round_edges(graph, probs, threshold)

    monkeypatch.setattr(inference, "build_graph", record_level)
    monkeypatch.setattr(inference, "round_edges", record_batch)
    detections = desk_clip(4, 317, seed=11)
    params = desk_model()
    result = track_video(detections, params, DESK_CFG)
    for level, offsets, batches in levels:
        a = e = 0  # each batch is the slice of the level from node a and edge e
        for batch in batches:
            b, f = a + batch.num_nodes, e + batch.num_edges
            assert a in offsets and b in offsets  # whole windows
            assert [x.detections for x in batch.nodes] == [y.detections for y in level.nodes[a:b]]
            assert np.array_equal(batch.edge_u + a, level.edge_u[e:f])
            assert np.array_equal(batch.edge_v + a, level.edge_v[e:f])
            assert batch.edge_features.tobytes() == level.edge_features[e:f].tobytes()
            windows = sum(a <= o < b for o in offsets[:-1])
            assert windows == 1 or batch.num_edges <= budget
            a, e = b, f
        assert (a, e) == (level.num_nodes, level.num_edges)  # no window split, none skipped
    reference = ref_track_per_window(detections, params, DESK_CFG)
    assert trajectory_ids(result) == merged_parts(reference)


def test_a_batch_merges_its_windows_in_window_order():
    # two windows of two parallel chains each: the batch's merged tracklets
    # come out window by window, each window's in its own head order
    members = [[single(f, x=10.0 * k + f, app=(1.0, k, 0.0), gt_id=k)
                for f in range(lo, lo + 3) for k in (1, 2)] for lo in (1, 6)]
    windows = [build_graph(rows_of(m), 3, (lo, lo + 4)) for m, lo in zip(members, (1, 6))]
    batch = build_graph(rows_of(members[0] + members[1]), 3, (1, 10), 5)
    merged = merge_accepted(batch, round_edges(batch, gt_oracle_scorer(batch), 0.5))
    alone = [t for g in windows
             for t in merge_accepted(g, round_edges(g, gt_oracle_scorer(g), 0.5))]
    assert merged_parts(merged) == merged_parts(alone)
    assert len(merged) == 4


def nan_edge_classifier_model():
    params = tiny_model()
    params.edge_classifier.layers[0].w.data[0, 0] = np.nan
    return params


def test_nan_parameter_makes_backward_raise():
    params = nan_edge_classifier_model()
    graph = build_graph(lift_detections(two_object_scene()), 10, (1, 10))
    e = message_pass(graph, *encode_graph(graph, params), params, 2)
    loss = focal_bce_tape(classify_edges(e, params), np.ones(graph.num_edges), 1.0)
    with pytest.raises(ValueError, match="not finite"):
        loss.backward()


def test_nan_parameter_makes_track_video_raise():
    with pytest.raises(ValueError, match="finite"):
        track_video(two_object_scene(), nan_edge_classifier_model(), SMALL_CFG)


def test_track_video_rejects_scorer_probabilities_above_one():
    def over_one(graph):
        return np.full(graph.num_edges, 1.5)

    with pytest.raises(ValueError, match="finite"):
        track_video(two_object_scene(), None, SMALL_CFG, edge_scorer=over_one)


def test_permuting_input_order_leaves_result_unchanged():
    rng = np.random.default_rng(1)
    dets = two_object_scene()
    params = tiny_model()
    base = track_video(dets, params, SMALL_CFG)
    for _ in range(3):
        shuffled = list(dets)
        rng.shuffle(shuffled)
        res = track_video(shuffled, params, SMALL_CFG)
        assert res.num_tracks == base.num_tracks
        for tid in base.trajectories:
            a = [(d.frame, d.box) for d in base.trajectories[tid]]
            b = [(d.frame, d.box) for d in res.trajectories[tid]]
            assert a == b


def test_every_detection_appears_exactly_once():
    params = tiny_model(3)
    rng = np.random.default_rng(4)
    dets = [
        det(int(f), x=float(rng.uniform(0, 60)), y=float(rng.uniform(0, 40)),
            app=rng.standard_normal(3))
        for f in rng.integers(1, 40, size=60)
    ]
    res = track_video(dets, params, SMALL_CFG)
    seen = [(d.frame, d.box) for _, d in res.iter_detections()]
    assert sorted(seen) == sorted((d.frame, d.box) for d in dets)


def test_every_level_starts_from_means_of_one_encoder_pass(monkeypatch):
    # the training rule at every tracking level: a node's initial embedding
    # is the mean of its detections' rows in one clip-wide encoder pass
    params = tiny_model(5)
    domain = identity_profile("source", SceneAttributes("medium", "static", "on a sunny day"), 3)
    detections, _ = gen_sequence(SynthConfig(num_objects=3, num_frames=100, appearance_dim=3,
                                             seed=2), domain)
    encoded = mlp_forward(params.node_encoder, Tensor(np.stack([d.appearance for d in detections])))
    row_of = {id(d): row for d, row in zip(detections, encoded.data)}
    calls = []

    def level_spy(*args):
        calls.append(None)  # a level starts
        return build_graph(*args)

    def spy(graph, params, node_init=None):
        calls.append((graph, node_init))
        return encode_graph(graph, params, node_init)

    monkeypatch.setattr(inference, "build_graph", level_spy)
    monkeypatch.setattr(inference, "encode_graph", spy)
    track_video(detections, params, SMALL_CFG)
    level = -1
    merged_levels = set()
    for call in calls:
        if call is None:
            level += 1
            continue
        graph, node_init = call
        assert node_init is not None and node_init.shape == (graph.num_nodes, 8)
        for node, got in zip(graph.nodes, node_init.data):
            want = np.mean([row_of[id(d)] for d in node.detections], axis=0)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            if len(node.detections) > 1:
                merged_levels.add(level)
    assert level >= 2 and {1, 2} <= merged_levels


def test_track_video_never_reads_language_store():
    store = LanguageEmbeddingStore({"desc": np.ones(4)})
    dets = two_object_scene()
    track_video(dets, tiny_model(), SMALL_CFG)
    assert store.access_count == 0


def test_track_video_signature_has_no_store_parameter():
    import inspect

    sig = inspect.signature(track_video)
    names = " ".join(sig.parameters)
    assert "store" not in names and "embedding" not in names and "language" not in names


def test_guard_active_inside_track_video():
    store = LanguageEmbeddingStore({"desc": np.ones(4)})

    def leaky_scorer(graph):
        store.lookup("desc")  # must blow up under the guard
        return np.zeros(graph.num_edges)

    with pytest.raises(RuntimeError):
        track_video(two_object_scene(), None, SMALL_CFG, edge_scorer=leaky_scorer)
