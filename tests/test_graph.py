"""Tracklet graph construction: hand examples, structural properties, and
agreement with the per-pair and per-window references in reference_graph.py."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langtrack import graph, inference
from langtrack.data_io import SceneAttributes
from langtrack.graph import (
    Detection,
    DetectionArrays,
    TrackGraph,
    Tracklet,
    build_graph,
    check_level_sizes,
    clip_level_sizes,
    lift_detections,
    window_offsets,
)
from langtrack.inference import TrackerConfig, gt_oracle_scorer, track_video
from langtrack.synth import SynthConfig, gen_sequence, identity_profile
from reference_graph import (
    group_by_window,
    ref_build_graph,
    ref_detection_sort_key,
    ref_level_graph,
    ref_sorted_with_keys,
    rows_of,
    tracklet_sort_key,
)


def det(frame, x=10.0, y=20.0, w=4.0, h=8.0, app=(1.0, 0.0), gt_id=None):
    return Detection(frame, (x, y, w, h), np.asarray(app, float), gt_id=gt_id)


def single(frame, **kw):
    return Tracklet([det(frame, **kw)])


# -- hierarchy ---------------------------------------------------------------


def windows_at(num_frames, size):
    """The windows of a clip with one detection in every frame."""
    singles = lift_detections([det(f) for f in range(1, num_frames + 1)])
    return [window for window, _ in group_by_window(singles, size, num_frames)]


def test_hierarchy_window_counts_full_clip():
    levels = [windows_at(150, size) for size in [5, 25, 75, 150]]
    assert [len(level) for level in levels] == [30, 6, 2, 1]
    assert levels[0][0] == (1, 5)
    assert levels[3][0] == (1, 150)


def test_hierarchy_single_window():
    groups = group_by_window(lift_detections([det(1), det(5)]), 5, 5)
    assert [window for window, _ in groups] == [(1, 5)]
    assert [t.start_frame for t in groups[0][1]] == [1, 5]


def test_hierarchy_truncated_tail():
    assert windows_at(7, 5) == [(1, 5), (6, 7)]


def test_empty_windows_skipped_and_input_order_kept():
    tracklets = [single(12), single(3), single(14), single(1)]
    groups = group_by_window(tracklets, 5, 20)
    assert [window for window, _ in groups] == [(1, 5), (11, 15)]
    assert groups[0][1] == [tracklets[1], tracklets[3]]
    assert groups[1][1] == [tracklets[0], tracklets[2]]


def test_hierarchy_rejects_non_multiple_sizes():
    with pytest.raises(ValueError):
        check_level_sizes([5, 12])
    with pytest.raises(ValueError):
        check_level_sizes([5, 5])
    with pytest.raises(ValueError):
        check_level_sizes([0, 5])
    with pytest.raises(ValueError):
        clip_level_sizes(100, [5, 12])


def test_frames_and_level_sizes_stop_at_the_int64_bound():
    # 2**62: the doubled top level and every window end stay below 2**63
    bound = 2**62
    assert det(bound).frame == bound
    for bad in (bound + 1, 2**63):
        with pytest.raises(ValueError, match=r"\[1, 2\*\*62\]"):
            det(bad)
        with pytest.raises(ValueError, match=r"\[1, 2\*\*62\]"):
            check_level_sizes([1, bad])
    check_level_sizes([bound - 1])
    assert clip_level_sizes(bound, [bound - 1]) == [bound - 1, 2**63 - 2]
    assert clip_level_sizes(bound, [bound]) == [bound]


def test_clip_level_sizes_double_until_one_window_covers_the_clip():
    assert clip_level_sizes(150, [5, 25, 75, 150]) == [5, 25, 75, 150]
    assert clip_level_sizes(20, [5, 25, 75, 150]) == [5, 25, 75, 150]
    assert clip_level_sizes(151, [5, 25, 75, 150]) == [5, 25, 75, 150, 300]
    assert clip_level_sizes(1000, [5, 25, 75, 150]) == [5, 25, 75, 150, 300, 600, 1200]
    assert clip_level_sizes(60, [5, 10, 20]) == [5, 10, 20, 40, 80]


nested_sizes = st.lists(st.integers(2, 4), min_size=1, max_size=4).map(
    lambda factors: [int(np.prod(factors[:i + 1])) for i in range(len(factors))]
)


@given(st.integers(1, 400))
@settings(max_examples=100)
def test_hierarchy_levels_nest_exactly(num_frames):
    sizes = clip_level_sizes(num_frames, [5, 25, 75, 150])
    levels = [windows_at(num_frames, size) for size in sizes]
    assert levels[-1] == [(1, num_frames)]
    for coarse, fine in zip(levels[1:], levels[:-1]):
        fine_bounds = {w[0] for w in fine} | {w[1] + 1 for w in fine}
        for lo, hi in coarse:
            # coarse windows start/end exactly on fine-window boundaries
            assert lo in fine_bounds and hi + 1 in fine_bounds
        covered = sum(hi - lo + 1 for lo, hi in coarse)
        assert covered == num_frames


def spanning(start, end):
    return Tracklet([det(start)] + ([det(end)] if end > start else []))


@given(
    nested_sizes,
    st.integers(1, 300),
    st.lists(st.tuples(st.integers(0, 299), st.integers(0, 10)), max_size=60),
)
@settings(max_examples=100)
def test_groups_partition_input_inside_their_windows(sizes, num_frames, spans):
    # each tracklet lies inside one bottom-level window, as after level 0
    tracklets = []
    for offset, length in spans:
        start = 1 + offset % num_frames
        bottom_end = min((start - 1) // sizes[0] * sizes[0] + sizes[0], num_frames)
        tracklets.append(spanning(start, min(start + length, bottom_end)))
    for size in clip_level_sizes(num_frames, sizes):
        groups = group_by_window(tracklets, size, num_frames)
        members = [t for _, group in groups for t in group]
        assert sorted(map(id, members)) == sorted(map(id, tracklets))
        windows = [window for window, _ in groups]
        assert windows == sorted(set(windows))
        for (lo, hi), group in groups:
            assert group
            assert 1 <= lo <= hi <= num_frames and (lo - 1) % size == 0
            assert hi - lo + 1 == size or hi == num_frames
            assert all(lo <= t.start_frame and t.end_frame <= hi for t in group)
            # members keep their input order
            positions = [next(i for i, u in enumerate(tracklets) if u is t) for t in group]
            assert positions == sorted(positions)


# -- lifting ------------------------------------------------------------------


def test_lift_bijection():
    dets = [det(3), det(1), det(7)]
    tracklets = lift_detections(dets)
    assert len(tracklets) == 3
    assert all(len(t.detections) == 1 for t in tracklets)
    assert tracklets[2].start_frame == tracklets[2].end_frame == 7
    assert [t.detections[0] for t in tracklets] == dets  # Detection compares by identity
    assert len(lift_detections([])) == 0


def test_detection_validation():
    with pytest.raises(ValueError):
        det(0)
    with pytest.raises(ValueError):
        det(1, w=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("x", "y", "w", "h"):
            with pytest.raises(ValueError, match="finite"):
                det(1, **{field: bad})
    with pytest.raises(ValueError, match="64 bits"):
        det(1, gt_id=2**63)
    # a fractional frame would be stored truncated in DetectionArrays
    for frame in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="frame index must be an integer"):
            det(frame)
    assert DetectionArrays.of([det(np.int64(2)), det(np.uint8(3))]).frames.tolist() == [2, 3]
    with pytest.raises(ValueError):
        Detection(1, (0, 0, 1, 1), np.ones(2), confidence=1.5)
    with pytest.raises(ValueError):
        Tracklet([det(2), det(2)])
    with pytest.raises(ValueError):
        Tracklet([det(3), det(2)])
    with pytest.raises(ValueError):
        Tracklet([])


# -- edge features -------------------------------------------------------------


def edge_features(u, v):
    """The feature row build_graph gives the one candidate edge u -> v."""
    g = build_graph(rows_of([u, v]), knn_k=1, window=(1, max(u.end_frame, v.end_frame)))
    assert g.num_edges == 1
    assert g.nodes[g.edge_u[0]].detections == u.detections  # the same Detection objects
    assert g.nodes[g.edge_v[0]].detections == v.detections
    return g.edge_features[0]


def test_edge_features_identity_case():
    u, v = single(1), single(2)
    assert np.allclose(edge_features(u, v), [0, 0, 0, 0, 1, 0], atol=1e-12)


def test_edge_features_height_ratio():
    u = single(1, h=16.0)
    v = single(2, h=8.0)
    f = edge_features(u, v)
    assert abs(f[2] - math.log(2.0)) < 1e-12


def test_edge_features_orthogonal_appearance():
    u = single(1, app=(1.0, 0.0))
    v = single(2, app=(0.0, 1.0))
    assert abs(edge_features(u, v)[5] - 1.0) < 1e-12


def test_edge_features_offsets_and_gap():
    u = single(1, x=0.0, y=0.0, h=8.0)
    v = single(4, x=8.0, y=4.0, h=8.0)
    f = edge_features(u, v)
    assert abs(f[0] - 1.0) < 1e-12  # 2*8/(8+8)
    assert abs(f[1] - 0.5) < 1e-12
    assert f[4] == 3.0


def test_edge_features_uses_boundary_detections():
    u = Tracklet([det(1, x=0.0), det(2, x=50.0)])
    v = Tracklet([det(4, x=50.0), det(5, x=0.0)])
    f = edge_features(u, v)
    assert abs(f[0]) < 1e-12  # last of u and first of v coincide
    assert f[4] == 2.0


def test_edge_features_rejects_overlap():
    # overlapping tracklets get no candidate edge, and a graph holding one is refused
    for u, v in [(single(2), single(2)), (Tracklet([det(1), det(3)]), single(2))]:
        assert build_graph(rows_of([u, v]), knn_k=1, window=(1, 3)).num_edges == 0
        with pytest.raises(ValueError):
            TrackGraph(rows_of([u, v]), np.array([0]), np.array([1]), np.zeros((1, 6)), (1, 3))


# frames 1, 2 and 2: node 2 overlaps node 1 in time
@pytest.mark.parametrize(
    "edge_u, edge_v, message",
    [
        ([-1], [1], "out of range"),
        ([0], [-1], "out of range"),
        ([3], [1], "out of range"),
        ([0], [3], "out of range"),
        ([1], [1], "self edges"),
        ([0, 0], [1, 1], "duplicate"),
        ([1], [2], "temporally disjoint"),
        ([0, 0], [1], "share their length"),
    ],
)
def test_track_graph_rejects_invalid_edges(edge_u, edge_v, message):
    nodes = [single(1), single(2), single(2, x=30.0)]
    with pytest.raises(ValueError, match=message):
        TrackGraph(rows_of(nodes), np.array(edge_u), np.array(edge_v),
                   np.zeros((len(edge_v), 6)), (1, 2))


# -- node order ------------------------------------------------------------------

# Boxes and appearance rows that differ only in the sign of a zero or in the
# last bit: the boxes tie or not as the tuple key compares them, and the rows
# differ only in their bytes.
_UP = float(np.nextafter(1.0, 2.0))
SORT_BOXES = [(0.0, 0.0, 4.0, 8.0), (-0.0, 0.0, 4.0, 8.0), (1.0, 0.0, 4.0, 8.0),
              (_UP, 0.0, 4.0, 8.0)]
SORT_ROWS = [np.array([0.0, 1.0]), np.array([-0.0, 1.0]), np.array([0.0, _UP])]


@st.composite
def tied_tracklets(draw):
    tracklets = []
    for _ in range(draw(st.integers(0, 25))):
        start = draw(st.integers(1, 3))
        frames = range(start, start + draw(st.integers(1, 2)))
        tracklets.append(Tracklet([
            Detection(f, draw(st.sampled_from(SORT_BOXES)), draw(st.sampled_from(SORT_ROWS)))
            for f in frames
        ]))
    return tracklets


@given(tied_tracklets())
@settings(max_examples=300, deadline=None)
def test_node_order_is_the_tuple_key_order(tracklets):
    order = graph.tracklet_order(rows_of(tracklets)).tolist()
    assert [id(tracklets[i]) for i in order] == [
        id(t) for t in sorted(tracklets, key=tracklet_sort_key)]
    ref, _ = ref_sorted_with_keys(tracklets)
    assert [id(tracklets[i]) for i in order] == [id(t) for t in ref]


@st.composite
def tied_detections(draw):
    return [
        Detection(draw(st.integers(1, 2)), draw(st.sampled_from(SORT_BOXES)),
                  draw(st.sampled_from(SORT_ROWS)),
                  confidence=draw(st.sampled_from([0.0, -0.0, 0.5, 1.0])),
                  visibility=draw(st.sampled_from([1.0, float(np.nextafter(1.0, 0.0))])),
                  gt_id=draw(st.sampled_from([None, 0, 1, -1, 2**63 - 1, -(2**63)])))
        for _ in range(draw(st.integers(0, 30)))
    ]


@given(tied_detections())
@settings(max_examples=300, deadline=None)
def test_detection_order_is_the_tuple_key_order(detections):
    order = graph.detection_order(graph.DetectionArrays.of(detections)).tolist()
    assert [id(detections[i]) for i in order] == [
        id(d) for d in sorted(detections, key=ref_detection_sort_key)]


@given(tied_tracklets(), st.data())
@settings(max_examples=200, deadline=None)
def test_tracklet_rows_index_slice_and_take_like_a_list(tracklets, data):
    rows = rows_of(tracklets)
    as_ids = lambda ts: [[id(d) for d in t.detections] for t in ts]  # noqa: E731
    assert len(rows) == len(tracklets)
    assert as_ids(rows) == as_ids(tracklets)
    assert as_ids(rows[i] for i in range(-len(rows), len(rows))) == as_ids(tracklets * 2)
    a, b = data.draw(st.integers(-30, 30)), data.draw(st.integers(-30, 30))
    step = data.draw(st.sampled_from([None, 1, 2, -1]))
    assert as_ids(rows[a:b:step]) == as_ids(tracklets[a:b:step])
    assert as_ids(rows[a:b][::-1]) == as_ids(tracklets[a:b][::-1])
    order = data.draw(st.permutations(range(len(tracklets))))
    assert as_ids(rows.take(np.array(order, dtype=np.intp))) == as_ids(
        [tracklets[i] for i in order])
    with pytest.raises(IndexError):
        rows[len(tracklets)]


# -- graph construction ----------------------------------------------------------


def test_build_graph_two_nodes():
    g = build_graph(rows_of([single(1), single(2)]), knn_k=10, window=(1, 5))
    assert g.num_nodes == 2 and g.num_edges == 1
    assert g.nodes[g.edge_u[0]].start_frame == 1
    assert g.nodes[g.edge_v[0]].start_frame == 2


def test_build_graph_single_node_no_edges():
    g = build_graph(rows_of([single(1)]), knn_k=3, window=(1, 5))
    assert g.num_edges == 0
    assert g.edge_features.shape == (0, 6)


def test_build_graph_knn_cap_counts():
    # 5 tracklets in each of 2 frames, k=2: every frame-1 node keeps 2 edges.
    tracklets = [single(f, x=10.0 * i, y=0.0) for f in (1, 2) for i in range(5)]
    g = build_graph(rows_of(tracklets), knn_k=2, window=(1, 2))
    assert g.num_edges == 10
    from_first = [u for u in g.edge_u if g.nodes[u].start_frame == 1]
    assert len(from_first) == 10


def test_build_graph_knn_prefers_similar_appearance():
    u = single(1, app=(1.0, 0.0))
    near = single(2, app=(1.0, 0.05))
    far = single(2, x=10.4, app=(0.0, 1.0))
    g = build_graph(rows_of([u, near, far]), knn_k=1, window=(1, 2))
    assert g.num_edges == 1
    v = g.nodes[g.edge_v[0]]
    assert np.allclose(v.detections[0].appearance, near.detections[0].appearance)


def test_build_graph_order_invariant():
    rng = np.random.default_rng(3)
    tracklets = [
        single(int(f), x=float(rng.uniform(0, 100)), y=float(rng.uniform(0, 100)),
               app=tuple(rng.standard_normal(4)))
        for f in rng.integers(1, 11, size=12)
    ]
    g1 = build_graph(rows_of(tracklets), knn_k=3, window=(1, 10))
    g2 = build_graph(rows_of(list(reversed(tracklets))), knn_k=3, window=(1, 10))
    assert [t.detections[0].box for t in g1.nodes] == [t.detections[0].box for t in g2.nodes]
    assert np.array_equal(g1.edge_u, g2.edge_u)
    assert np.array_equal(g1.edge_v, g2.edge_v)
    assert np.array_equal(g1.edge_features, g2.edge_features)


def test_build_graph_validates_window_and_k():
    with pytest.raises(ValueError):
        build_graph(rows_of([single(6)]), knn_k=1, window=(1, 5))
    with pytest.raises(ValueError):
        build_graph(rows_of([single(1)]), knn_k=0, window=(1, 5))


@given(st.integers(0, 40), st.integers(1, 8), st.integers(2, 20))
@settings(max_examples=60, deadline=None)
def test_build_graph_invariants_random(n, k, span):
    rng = np.random.default_rng(n * 1000 + k * 10 + span)
    tracklets = [
        single(
            int(rng.integers(1, span + 1)),
            x=float(rng.uniform(0, 50)),
            y=float(rng.uniform(0, 50)),
            app=tuple(rng.standard_normal(3)),
        )
        for _ in range(n)
    ]
    g = build_graph(rows_of(tracklets), knn_k=k, window=(1, span))
    ends = np.array([t.end_frame for t in g.nodes])
    starts = np.array([t.start_frame for t in g.nodes])
    if g.num_edges:
        assert np.all(ends[g.edge_u] < starts[g.edge_v])
        counts = np.bincount(g.edge_u, minlength=g.num_nodes)
        assert counts.max() <= k
        pairs = set(zip(g.edge_u.tolist(), g.edge_v.tolist()))
        assert len(pairs) == g.num_edges


# -- agreement with the per-pair reference ---------------------------------------


def assert_same_graph(fast, ref):
    assert len(fast.nodes) == len(ref.nodes)
    assert all(a.detections == b.detections for a, b in zip(fast.nodes, ref.nodes))
    assert np.array_equal(fast.edge_u, ref.edge_u)
    assert np.array_equal(fast.edge_v, ref.edge_v)
    assert fast.edge_features.tobytes() == ref.edge_features.tobytes()
    assert fast.frame_span == ref.frame_span


# Few distinct boxes and appearance rows, so pruning scores tie exactly.
TIE_BOXES = [(10.0, 20.0, 4.0, 8.0), (12.0, 20.0, 4.0, 8.0), (10.0, 24.0, 5.0, 6.0)]


@st.composite
def windows(draw):
    span = draw(st.integers(1, 12))
    # 33 and 129 leave a tail after the dot product's unrolled blocks
    dim = draw(st.sampled_from([1, 2, 3, 33, 64, 129]))
    scale = 10.0 ** draw(st.floats(-5.0, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # row 0 is the zero vector (cosine distance 1 to everything); the others
    # repeat, so identical rows give identical cosines
    apps = [np.zeros(dim)] + [rng.standard_normal(dim) for _ in range(draw(st.integers(1, 4)))]
    tracklets = []
    for _ in range(draw(st.integers(0, 30))):
        start = draw(st.integers(1, span))
        length = draw(st.integers(1, 3))
        dets = []
        for frame in range(start, min(start + length, span + 1)):
            if draw(st.booleans()):
                box = draw(st.sampled_from(TIE_BOXES))
            else:
                box = tuple(float(c) for c in rng.uniform(1.0, 40.0, 4))
            app = apps[draw(st.integers(0, len(apps) - 1))]
            if draw(st.booleans()):
                app = app + rng.standard_normal(dim) * 1e-3
            dets.append(Detection(frame, box, app * scale))
        tracklets.append(Tracklet(dets))
    # up to past the successor count of every node
    knn_k = draw(st.integers(1, 12))
    return tracklets, knn_k, (1, span)


@given(windows(), st.sampled_from([graph._BLOCK_SCORES, 40, 1]))
@settings(max_examples=200, deadline=None)
def test_build_graph_matches_per_pair_reference(case, block_scores):
    # small score blocks split the window into many row blocks
    tracklets, knn_k, window = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_SCORES", block_scores)
        fast = build_graph(rows_of(tracklets), knn_k, window)
    assert_same_graph(fast, ref_build_graph(tracklets, knn_k, window))


@st.composite
def extreme_windows(draw):
    """A window whose box positions (of either sign) and sizes are drawn
    independently and log-uniformly from 1e-300 to 1e300, so centre offsets
    over mean heights reach from far below to far above the float range's
    square roots."""
    span = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 3, 16]))
    apps = [rng.standard_normal(dim) for _ in range(3)]
    tracklets = []
    for _ in range(draw(st.integers(0, 20))):
        start = draw(st.integers(1, span))
        dets = []
        for frame in range(start, min(start + draw(st.integers(1, 2)), span + 1)):
            box = 10.0 ** rng.uniform(-300.0, 300.0, 4) * [*rng.choice([-1.0, 1.0], 2), 1.0, 1.0]
            dets.append(Detection(frame, tuple(box.tolist()), apps[int(rng.integers(3))]))
        tracklets.append(Tracklet(dets))
    return tracklets, draw(st.integers(1, 6)), (1, span)


@given(extreme_windows(), st.sampled_from([graph._BLOCK_SCORES, 40]))
@settings(max_examples=300, deadline=None)
def test_build_graph_matches_per_pair_reference_at_extreme_scales(case, block_scores):
    tracklets, knn_k, window = case
    # offsets, scores and size ratios over- and underflow, alike in both
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(graph, "_BLOCK_SCORES", block_scores)
        fast = build_graph(rows_of(tracklets), knn_k, window)
        ref = ref_build_graph(tracklets, knn_k, window)
    assert_same_graph(fast, ref)


def test_build_graph_keeps_a_successor_whose_array_score_overflows():
    # centre offsets over unit mean heights: v1's (x, b) squares to a finite
    # sum and v2's x_next to inf, yet hypot rounds both exact keys to x_next,
    # so v2 (the smaller gap) ranks first though its array score is inf
    x, b = 1.3407807929942596e154, 2.0 ** 485.5
    x_next = math.nextafter(x, math.inf)
    assert x * x + b * b < math.inf and x_next * x_next == math.inf
    assert np.hypot(x, b) == x_next
    u = single(1, x=-0.5, y=-0.5, w=1.0, h=1.0)
    v1 = single(3, x=x, y=b, w=1.0, h=1.0)
    v2 = single(2, x=x_next, y=-0.5, w=1.0, h=1.0)
    with np.errstate(over="ignore"):
        g = build_graph(rows_of([u, v1, v2]), 1, (1, 3))
    assert_same_graph(g, ref_build_graph([u, v1, v2], 1, (1, 3)))
    assert (g.edge_u.tolist(), g.edge_v.tolist()) == ([0, 1], [1, 2])


def test_build_graph_matches_reference_on_every_window_of_a_tracked_clip(monkeypatch):
    # gt_oracle_scorer merges true links, so later levels rank multi-detection
    # tracklets; levels 5/10/20 double to 40 and 80 to cover the 80 frames
    domain = identity_profile("source", SceneAttributes("medium", "static", "on a sunny day"), 16)
    synth = SynthConfig(
        num_objects=8, num_frames=80, appearance_dim=16, appearance_noise=0.08,
        occlusion_rate=0.2, velocity_scale=10.0, box_jitter=0.15, seed=5,
    )
    detections, _ = gen_sequence(synth, domain)
    checked = []

    def checked_build_graph(tracklets, knn_k, window, size):
        fast = build_graph(tracklets, knn_k, window, size)
        ref, offsets = ref_level_graph(tracklets, knn_k, size, window[1], build=ref_build_graph)
        assert_same_graph(fast, ref)
        assert window_offsets(fast.starts, window[0], size).tolist() == offsets.tolist()
        checked.extend(w for w, _ in group_by_window(tracklets, size, window[1]))
        return fast

    monkeypatch.setattr(inference, "build_graph", checked_build_graph)
    config = TrackerConfig(level_sizes=[5, 10, 20], knn_k=3)
    track_video(detections, None, config, edge_scorer=gt_oracle_scorer)
    assert (1, 80) in checked
    assert len(checked) == 16 + 8 + 4 + 2 + 1


# -- one call per level ----------------------------------------------------------


@given(st.data(), st.sampled_from([graph._BLOCK_SCORES, 40, 1]),
       st.sampled_from([graph._BLOCK_SAVING, 1]), st.sampled_from([1, 2, 64]))
@settings(max_examples=200, deadline=None)
def test_successor_blocks_cover_every_successor_pair_once(data, block_scores, saving, dim):
    # nodes sorted by start frame in windows of unequal size, whose end frames
    # are not monotone in start order, and empty windows; a saving of 1 cuts
    # a chunk of several windows into blocks
    size = data.draw(st.integers(1, 6))
    spans = data.draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)), max_size=30))
    spans = sorted((s, min(s + n, s // size * size + size - 1)) for s, n in spans)
    starts = np.array([s for s, _ in spans], dtype=np.int64)
    ends = np.array([e for _, e in spans], dtype=np.int64)
    offsets = window_offsets(starts, 0, size)
    window = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    want = {(u, v) for u in range(starts.size) for v in range(starts.size)
            if window[u] == window[v] and starts[v] > ends[u]}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_SCORES", block_scores)
        mp.setattr(graph, "_BLOCK_SAVING", saving)
        chunks = list(graph._successor_blocks(starts, ends, offsets, dim))
    got = []
    for rows, cols, blocks in chunks:
        windows, wide = cols.shape
        tall = rows.shape[1]
        assert windows == 1 or windows * max(tall, wide) * max(wide, dim) <= block_scores
        # each row of a chunk lies in one block, and the blocks run in order
        assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
        assert blocks[-1][1] == tall
        for r0, r1, c in blocks:
            assert r1 - r0 == 1 or windows * (r1 - r0) * max(c, dim) <= block_scores
            for w in range(windows):
                real_cols = [v for v in cols[w, wide - c:].tolist() if v >= 0]
                for u in rows[w, r0:r1].tolist():
                    if u >= 0:
                        assert {window[v] for v in real_cols} <= {window[u]}
                        got += [(u, v) for v in real_cols if starts[v] > ends[u]]
    assert len(got) == len(set(got))
    assert set(got) == want


@st.composite
def levels(draw):
    """A level: tracklets inside windows of ``size`` frames, some windows
    empty and some with one node, keys that tie and zero appearance rows."""
    num_frames = draw(st.integers(1, 30))
    size = draw(st.integers(1, 8))
    dim = draw(st.sampled_from([1, 2, 3, 33, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    apps = [np.zeros(dim)] + [rng.standard_normal(dim) for _ in range(draw(st.integers(1, 3)))]
    tracklets = []
    for _ in range(draw(st.integers(0, 40))):
        start = draw(st.integers(1, num_frames))
        last = min((start - 1) // size * size + size, num_frames)  # its window's last frame
        frames = range(start, min(start + draw(st.integers(1, 3)), last + 1))
        tracklets.append(Tracklet([
            Detection(f, draw(st.sampled_from(TIE_BOXES)), apps[draw(st.integers(0, len(apps) - 1))])
            for f in frames
        ]))
    # from 1 to past the largest window's successor count
    return tracklets, draw(st.integers(1, size * 6)), size, num_frames


@given(levels(), st.sampled_from([graph._BLOCK_SCORES, 64, 1]))
@settings(max_examples=200, deadline=None)
def test_level_graph_is_its_window_graphs_bitwise(case, block_scores):
    # a small budget splits levels into chunks of a few windows, and large
    # windows into blocks of rows
    tracklets, knn_k, size, num_frames = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_SCORES", block_scores)
        level = build_graph(rows_of(tracklets), knn_k, (1, num_frames), size)
    ref, offsets = ref_level_graph(tracklets, knn_k, size, num_frames, build=ref_build_graph)
    assert_same_graph(level, ref)
    assert level.edge_u.dtype == ref.edge_u.dtype and level.edge_v.dtype == ref.edge_v.dtype
    got = window_offsets(level.starts, 1, size)
    assert got.tolist() == offsets.tolist()


@pytest.mark.parametrize("starts, first, size, want", [
    ([], 1, 5, [0]),  # an empty level
    ([3], 1, 5, [0, 1]),
    ([1, 1, 2, 5], 1, 5, [0, 4]),  # one window
    ([1, 5, 6, 6, 16], 1, 5, [0, 2, 4, 5]),  # windows 0, 1 and 3 hold nodes
    ([0, 7, 8], 0, 8, [0, 2, 3]),
])
def test_window_offsets_cut_where_the_window_changes(starts, first, size, want):
    got = window_offsets(np.array(starts, dtype=np.int64), first, size)
    assert got.dtype == np.intp and got.tolist() == want


@given(st.lists(st.integers(-50, 200), max_size=40), st.integers(-10, 10), st.integers(1, 30))
def test_window_offsets_are_the_first_node_of_each_window(starts, first, size):
    starts = np.sort(np.array(starts, dtype=np.int64))
    window = (starts - first) // size
    want = np.append(np.searchsorted(window, np.unique(window)), window.size)
    assert window_offsets(starts, first, size).tolist() == want.tolist()


@st.composite
def merged_levels(draw):
    """A level of merged tracklets: up to a window's frames each, with gaps,
    so end frames are not monotone in start order, windows hold unequal
    numbers of nodes, and a window's last nodes have no successor."""
    size = draw(st.integers(2, 8))
    num_frames = draw(st.integers(size, 4 * size))
    dim = draw(st.sampled_from([1, 3, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    apps = [rng.standard_normal(dim) for _ in range(3)]
    tracklets = []
    for w0 in range(1, num_frames + 1, size):
        span = np.arange(w0, min(w0 + size, num_frames + 1))
        for _ in range(draw(st.integers(0, 14))):
            frames = np.sort(rng.choice(span, draw(st.integers(1, span.size)), replace=False))
            tracklets.append(Tracklet([
                Detection(int(f), draw(st.sampled_from(TIE_BOXES)), apps[int(rng.integers(3))])
                for f in frames
            ]))
    return tracklets, draw(st.integers(1, 4)), size, num_frames


def assert_level_matches_reference(tracklets, knn_k, size, num_frames, block_scores, saving):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_SCORES", block_scores)
        mp.setattr(graph, "_BLOCK_SAVING", saving)
        level = build_graph(rows_of(tracklets), knn_k, (1, num_frames), size)
    ref, _ = ref_level_graph(tracklets, knn_k, size, num_frames, build=ref_build_graph)
    assert_same_graph(level, ref)


@given(merged_levels(), st.sampled_from([graph._BLOCK_SCORES, 40, 1]),
       st.sampled_from([graph._BLOCK_SAVING, 1]))
@settings(max_examples=200, deadline=None)
def test_merged_level_matches_per_pair_reference(case, block_scores, saving):
    # a saving of 1 cuts rows at every drop in the successor count, so the
    # blocks of a chunk's windows interleave; a score bound of 40 flushes
    # the band within a chunk, and 1 scores row by row
    assert_level_matches_reference(*case, block_scores, saving)


def test_interleaved_blocks_of_unequal_windows_match_the_reference():
    # windows of 9, 4 and 7 nodes in frames 1-6, 7-12 and 13-18; merged
    # tracklets end out of start order, and each window's last rows have no
    # successor
    rng = np.random.default_rng(7)
    spans = [[1, 6], [1, 2], [2, 5], [2, 3, 4], [3], [4], [1, 3, 5, 6], [5, 6], [6],
             [7], [8, 9], [8, 12], [10, 12],
             [13, 14], [13, 17], [14], [15, 16], [16, 18], [17], [18]]
    tracklets = [Tracklet([det(f, x=float(rng.uniform(0, 40)), app=rng.standard_normal(2))
                           for f in frames]) for frames in spans]
    starts = np.array(sorted(frames[0] for frames in spans))
    ends = np.array([frames[-1] for frames in sorted(spans)])
    assert np.any(np.diff(ends) < 0)
    offsets = window_offsets(starts, 1, 6)
    assert np.diff(offsets).tolist() == [9, 4, 7]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_SAVING", 1)
        (rows, cols, blocks), = graph._successor_blocks(starts, ends, offsets, 2)
    real = (rows >= 0).sum(axis=1)
    assert rows.shape[0] == 3 and len(set(real.tolist())) > 1 and len(blocks) > 1
    assert np.all(real < np.diff(offsets))  # rows without a successor are left out
    for block_scores in (graph._BLOCK_SCORES, 40, 1):
        for saving in (graph._BLOCK_SAVING, 1):
            for knn_k in (1, 2, 5):
                assert_level_matches_reference(tracklets, knn_k, 6, 18, block_scores, saving)


def test_a_slice_of_a_level_graph_is_its_checked_construction():
    # runs of windows of a level, as tracking cuts it into batches
    rng = np.random.default_rng(4)
    tracklets = [single(int(f), x=float(rng.uniform(0, 90)), app=rng.standard_normal(4))
                 for f in rng.integers(1, 41, 120)]
    level = build_graph(rows_of(tracklets), 3, (1, 40), 8)
    nodes = window_offsets(level.starts, 1, 8).tolist()
    edges = np.searchsorted(level.edge_u, nodes).tolist()
    for w0, w1 in [(0, 1), (1, 3), (2, 5), (0, len(nodes) - 1)]:
        a, b, e0, e1 = nodes[w0], nodes[w1], edges[w0], edges[w1]
        part = level.sliced(a, b, e0, e1)
        checked = TrackGraph(level.nodes[a:b], level.edge_u[e0:e1] - a, level.edge_v[e0:e1] - a,
                             level.edge_features[e0:e1], level.frame_span)
        assert part.num_edges == e1 - e0 > 0
        assert part.frame_span == checked.frame_span
        assert part.nodes.clip is checked.nodes.clip
        for name in ("edge_u", "edge_v", "edge_features", "starts", "ends"):
            got, want = getattr(part, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for name in ("rows", "offsets"):
            assert np.array_equal(getattr(part.nodes, name), getattr(checked.nodes, name))


def test_level_build_rejects_a_tracklet_leaving_its_window():
    # frames 4-6 start in window (1, 5) of size 5 and end outside it
    crossing = Tracklet([det(4), det(6)])
    with pytest.raises(ValueError, match=r"\[4,6\] outside window \(1, 5\)"):
        build_graph(rows_of([single(1), crossing]), 3, (1, 10), 5)
    with pytest.raises(ValueError):
        build_graph(rows_of([single(1)]), 3, (1, 10), 0)
    assert build_graph(rows_of([single(1), crossing]), 3, (1, 10), 10).num_edges == 1


def test_level_build_memory_stays_bounded():
    # level 5 of a 4 x 1200 clip: 3.8k single detections in 240 windows;
    # scoring the whole level's band at once peaks near 18 MB
    domain = identity_profile("source", SceneAttributes("medium", "static", "on a sunny day"), 64)
    synth = SynthConfig(
        num_objects=4, num_frames=1200, appearance_dim=64, appearance_noise=0.08,
        occlusion_rate=0.2, velocity_scale=10.0, box_jitter=0.15, seed=3,
    )
    detections, _ = gen_sequence(synth, domain)
    singles = lift_detections(detections)
    tracemalloc.start()
    try:
        g = build_graph(singles, 10, (1, 1200), 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_nodes == len(detections)
    assert peak < 12e6, peak


def test_build_graph_memory_is_linear_in_nodes():
    # the untrained-model case: one window of ~4000 single-detection
    # tracklets; a dense n x n float64 score matrix alone would be 131 MB
    rng = np.random.default_rng(0)
    frames = np.repeat(np.arange(1, 151), 27)
    tracklets = [
        single(int(f), x=float(rng.uniform(0, 900)), y=float(rng.uniform(0, 500)),
               app=rng.standard_normal(16))
        for f in frames
    ]
    n = len(tracklets)
    tracemalloc.start()
    try:
        g = build_graph(rows_of(tracklets), knn_k=3, window=(1, 150))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges == 3 * (n - 27)
    assert peak < n * n * 8 / 4
