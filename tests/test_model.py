"""Model forward semantics: oracles, equivariance, round counts."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from langtrack.autodiff import Incidence, Tensor
from langtrack.graph import (
    Detection,
    DetectionArrays,
    TrackGraph,
    Tracklet,
    TrackletRows,
    build_graph,
)
from langtrack import model
from langtrack.model import (
    ModelConfig,
    ModelParams,
    classify_edges,
    encode_graph,
    init_model,
    message_pass,
    node_means,
    params_from_tensors,
    project_edges_for_spg,
    project_nodes_for_isg,
)
from langtrack.nn import focal_bce_tape, mlp_forward
from langtrack.ops import PROB_EPS
from gradcheck import check_gradients
from reference_graph import rows_of
from reference_tape import clamp, gather_rows, segment_sum

CFG = ModelConfig(
    message_passing_steps=2, edge_dim=4, text_dim=3, node_dim=8, appearance_dim=5
)


def single(frame, x=0.0, app=None, rng=None):
    if app is None:
        app = rng.standard_normal(CFG.appearance_dim) if rng is not None else np.ones(5)
    return Tracklet([Detection(frame, (x, 0.0, 2.0, 4.0), np.asarray(app, float))])


def path_graph(rng, n=3):
    tracklets = [single(i + 1, x=3.0 * i, rng=rng) for i in range(n)]
    return build_graph(rows_of(tracklets), knn_k=2, window=(1, n))


def zero_params(cfg=CFG):
    params = init_model(np.random.default_rng(0), cfg)
    for t in params.named_tensors().values():
        t.data = np.zeros_like(t.data)
    return params


def manual_mlp(mlp, x):
    h = x
    for layer in mlp.layers:
        h = h @ layer.w.data + layer.b.data
        if layer.activation == "relu":
            h = np.maximum(h, 0.0)
        elif layer.activation == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-h))
    return h


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(node_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(message_passing_steps=0)
    # a checkpoint's JSON may hold 16.0 or true where an integer belongs
    for name, value in (("edge_dim", 16.0), ("node_dim", True), ("text_dim", "32")):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {value!r}"):
            ModelConfig(**{name: value})


def test_encode_zero_weights_gives_zero_embeddings():
    rng = np.random.default_rng(1)
    g = path_graph(rng)
    h, e = encode_graph(g, zero_params())
    assert np.all(h.data == 0.0)
    assert np.all(e.data == 0.0)
    assert h.shape == (3, CFG.node_dim)
    assert e.shape == (g.num_edges, CFG.edge_dim)


def test_encode_identical_detections_identical_embeddings():
    params = init_model(np.random.default_rng(2), CFG)
    app = np.arange(5, dtype=float)
    g = build_graph(rows_of([single(1, app=app), single(2, app=app)]), 2, (1, 2))
    h, _ = encode_graph(g, params)
    assert np.array_equal(h.data[0], h.data[1])


def test_encode_single_node_graph_has_no_edge_embeddings():
    params = init_model(np.random.default_rng(3), CFG)
    g = build_graph(rows_of([single(1)]), 2, (1, 1))
    _, e = encode_graph(g, params)
    assert e.shape == (0, CFG.edge_dim)


def test_encode_uses_node_init_rows_verbatim():
    params = init_model(np.random.default_rng(4), CFG)
    rng = np.random.default_rng(5)
    merged = Tracklet([single(1, rng=rng).detections[0], single(2, rng=rng).detections[0]])
    fresh = single(4, rng=rng)
    g = build_graph(rows_of([fresh, merged]), 2, (1, 4))
    rows = rng.standard_normal((2, CFG.node_dim))
    h, _ = encode_graph(g, params, node_init=Tensor(rows))
    assert np.array_equal(h.data, rows)
    # without node_init the encoder runs
    h, _ = encode_graph(build_graph(rows_of([fresh]), 2, (4, 4)), params)
    want = manual_mlp(params.node_encoder, fresh.detections[0].appearance.reshape(1, -1))
    assert np.allclose(h.data[0], want[0], atol=1e-12)


def test_encode_rejects_bad_dims():
    params = init_model(np.random.default_rng(6), CFG)
    bad = Tracklet([Detection(1, (0, 0, 1, 1), np.ones(7))])
    g = build_graph(rows_of([bad]), 2, (1, 1))
    with pytest.raises(ValueError):
        encode_graph(g, params)
    multi = Tracklet([Detection(1, (0, 0, 1, 1), np.ones(5)),
                      Detection(2, (0, 0, 1, 1), np.ones(5))])
    g2 = build_graph(rows_of([multi]), 2, (1, 2))
    with pytest.raises(ValueError):
        encode_graph(g2, params)
    g3 = path_graph(np.random.default_rng(7))
    with pytest.raises(ValueError):
        encode_graph(g3, params, node_init=Tensor(np.zeros((2, CFG.node_dim))))


def passed(g, params, steps):
    """The final edge rows of ``g`` from its encoder rows."""
    return message_pass(g, *encode_graph(g, params), params, steps)


def test_message_pass_no_edges_keeps_embeddings():
    params = init_model(np.random.default_rng(8), CFG)
    g = build_graph(rows_of([single(1)]), 2, (1, 1))
    h, e = encode_graph(g, params)
    assert message_pass(g, h, e, params, steps=5) is e


def test_edgeless_graph_takes_the_general_path():
    params = init_model(np.random.default_rng(10), CFG)
    g = build_graph(rows_of([single(1), single(1, x=20.0)]), 2, (1, 1))
    assert g.num_nodes == 2 and g.num_edges == 0
    h, e = encode_graph(g, params, node_init=Tensor(np.ones((2, CFG.node_dim))))
    assert e.shape == (0, CFG.edge_dim)
    e = message_pass(g, h, e, params, steps=2)
    assert e.shape == (0, CFG.edge_dim)
    assert classify_edges(e, params).shape == (0, 1)
    assert project_edges_for_spg(e, params).shape == (0, CFG.text_dim)


def test_message_pass_zero_weights_collapse():
    rng = np.random.default_rng(9)
    g = path_graph(rng)
    params = zero_params()
    assert np.all(passed(g, params, steps=1).data == 0.0)


def test_message_pass_rejects_zero_steps():
    params = init_model(np.random.default_rng(10), CFG)
    g = path_graph(np.random.default_rng(11))
    with pytest.raises(ValueError):
        passed(g, params, steps=0)


def oracle_rounds(g, params, h, e, steps):
    """Message passing replayed without the tape: the node rows each round
    reads, and the final edge rows.  The last round stops after its edge
    update."""
    node_rows = []
    for step in range(steps):
        hu, hv = h[g.edge_u], h[g.edge_v]
        node_rows.append(h)
        e = manual_mlp(params.edge_update, np.concatenate([hu, hv, e], axis=1))
        if step == steps - 1:
            break
        past = manual_mlp(params.node_update_past, np.concatenate([hu, e], axis=1))
        fut = manual_mlp(params.node_update_future, np.concatenate([hv, e], axis=1))
        h = np.zeros_like(h)
        np.add.at(h, g.edge_v, past)
        np.add.at(h, g.edge_u, fut)
    return node_rows, e


def test_message_pass_matches_straight_line_numpy_oracle():
    """One to three rounds on a 3-node path, replayed without the tape."""
    rng = np.random.default_rng(0)
    params = init_model(rng, CFG)
    g = path_graph(np.random.default_rng(12))
    h0 = manual_mlp(params.node_encoder, np.stack([t.detections[0].appearance for t in g.nodes]))
    e0 = manual_mlp(params.edge_encoder, g.edge_features)
    for steps in (1, 2, 3):
        e = passed(g, params, steps)
        _, want_e = oracle_rounds(g, params, h0, e0, steps)
        assert np.allclose(e.data, want_e, atol=1e-12)

        probs = classify_edges(e, params).data
        want = manual_mlp(params.edge_classifier, want_e)
        assert np.allclose(probs, np.clip(want, 1e-7, 1 - 1e-7), atol=1e-12)


def test_message_pass_sums_then_projects_within_oracle_rounding():
    """More edges than nodes, nodes named by many edges, the first node with
    no incoming edge and the last with no outgoing one."""
    params = init_model(np.random.default_rng(23), CFG)
    g = path_graph(np.random.default_rng(24), n=6)
    assert g.num_edges > g.num_nodes
    assert 0 not in g.edge_v and 5 not in g.edge_u
    assert len(set(g.edge_u)) < g.num_edges and len(set(g.edge_v)) < g.num_edges
    h0 = manual_mlp(params.node_encoder, np.stack([t.detections[0].appearance for t in g.nodes]))
    e0 = manual_mlp(params.edge_encoder, g.edge_features)
    for steps in (2, 3):
        _, want = oracle_rounds(g, params, h0, e0, steps)
        got = passed(g, params, steps).data
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_a_node_gets_nothing_from_a_direction_it_has_no_edge_in():
    params = init_model(np.random.default_rng(25), CFG)
    g = path_graph(np.random.default_rng(26), n=6)
    h, e = encode_graph(g, params)
    u, v = g.incidences()
    (past, past_out), (future, future_out) = (
        params.node_update_past.layers, params.node_update_future.layers)
    x_past = model.gathered_linear([(h, u), (e, None)], past.w, past.b, past.activation)
    x_future = model.gathered_linear([(h, v), (e, None)], future.w, future.b, future.activation)
    from_past = model.scattered_linear([(x_past, v, past_out.w, past_out.b)]).data
    from_future = model.scattered_linear([(x_future, u, future_out.w, future_out.b)]).data
    assert np.all(from_past[0] == 0.0) and np.all(from_future[5] == 0.0)
    assert np.all(past_out.b.data != 0.0) and np.all(future_out.b.data != 0.0)
    # the oracle's first node-update round: MLP per edge, then np.add.at
    hu, hv = h.data[g.edge_u], h.data[g.edge_v]
    want_past, want_future = np.zeros_like(h.data), np.zeros_like(h.data)
    np.add.at(want_past, g.edge_v, manual_mlp(params.node_update_past, np.hstack([hu, e.data])))
    np.add.at(want_future, g.edge_u, manual_mlp(params.node_update_future, np.hstack([hv, e.data])))
    assert np.allclose(from_past, want_past, rtol=1e-12, atol=1e-12)
    assert np.allclose(from_future, want_future, rtol=1e-12, atol=1e-12)


def test_message_pass_gradients_through_the_summed_node_update():
    params = init_model(np.random.default_rng(27), CFG)
    g = path_graph(np.random.default_rng(28), n=4)
    h, e = encode_graph(g, params)
    h, e = Tensor(h.data, requires_grad=True), Tensor(e.data, requires_grad=True)
    c = Tensor(np.random.default_rng(29).standard_normal((g.num_edges, CFG.edge_dim)))
    blocks = ("node_update_past", "node_update_future")
    leaves = [h, e] + [t for b in blocks for t in getattr(params, b).named_tensors().values()]
    check_gradients(lambda ts: (message_pass(g, h, e, params, 2) * c).sum(), leaves)


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_node_update_runs_once_per_round_but_the_last(steps, monkeypatch):
    """Each block's layers are counted by the weight each fused node reads:
    the edge update runs every round, each node update every round but the
    last, its first layer gathered and its last scattered."""
    params = init_model(np.random.default_rng(13), CFG)
    g = path_graph(np.random.default_rng(14))
    layer_of = {
        id(layer.w): (name, i)
        for name in ("edge_update", "node_update_past", "node_update_future")
        for i, layer in enumerate(getattr(params, name).layers)
    }
    uses = Counter()

    def counted(fn, weights):
        def spy(*args, **kwargs):
            uses.update(layer_of[id(w)] for w in weights(*args))
            return fn(*args, **kwargs)
        return spy

    for name, weights in (
        ("gathered_linear", lambda parts, w, *rest: [w]),
        ("linear", lambda x, w, *rest: [w]),
        ("scattered_linear", lambda terms: [w for _, _, w, _ in terms]),
    ):
        monkeypatch.setattr(model, name, counted(getattr(model, name), weights))
    passed(g, params, steps)
    assert uses == Counter({
        ("edge_update", 0): steps, ("edge_update", 1): steps,
        ("node_update_past", 0): steps - 1, ("node_update_past", 1): steps - 1,
        ("node_update_future", 0): steps - 1, ("node_update_future", 1): steps - 1,
    })


def test_message_pass_records_no_edge_row_of_node_width():
    """Node updates scatter their hidden rows before projecting them, so no
    (edges, node_dim) array is on the tape."""
    params = init_model(np.random.default_rng(30), CFG)
    g = path_graph(np.random.default_rng(31), n=6)
    assert g.num_edges > g.num_nodes and CFG.node_dim not in (CFG.edge_dim, CFG.node_dim // 2)
    out = passed(g, params, steps=3)
    shapes, stack, seen = [], [out], {id(out)}
    while stack:
        t = stack.pop()
        shapes.append(t.shape)
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    assert (g.num_nodes, CFG.node_dim) in shapes
    assert (g.num_edges, CFG.node_dim) not in shapes


def test_classifier_zero_weights_give_half():
    g = path_graph(np.random.default_rng(17))
    params = zero_params()
    assert np.allclose(classify_edges(passed(g, params, steps=1), params).data, 0.5)


def test_probabilities_bounded_over_random_weights():
    g = path_graph(np.random.default_rng(18))
    for seed in range(50):
        params = init_model(np.random.default_rng(seed), CFG)
        for t in params.edge_classifier.named_tensors().values():
            t.data = t.data * 50.0  # exaggerate to push the sigmoid hard
        p = classify_edges(passed(g, params, steps=1), params).data
        assert np.all(p > 0.0) and np.all(p < 1.0)


def test_classify_edges_records_no_clamp_node_and_keeps_the_gradient_bits():
    """The probabilities are the sigmoid layer's own node, clipped in place;
    behind the focal loss every gradient has the bits it had behind a clamp
    node, with entries cut at both bounds."""
    g = path_graph(np.random.default_rng(34), n=6)
    labels = (np.arange(g.num_edges) % 2).astype(float)
    cut = set()
    for seed in range(8):
        params = init_model(np.random.default_rng(seed), CFG)
        head = params.edge_classifier.layers[-1]
        head.w.data = head.w.data * 400.0  # push the sigmoid past both bounds
        leaves = list(params.named_tensors().values())
        results = []
        for reference in (False, True):
            params.zero_grad()
            e = passed(g, params, steps=2)
            if reference:
                probs = clamp(mlp_forward(params.edge_classifier, e), PROB_EPS, 1.0 - PROB_EPS)
            else:
                probs = classify_edges(e, params)
                assert probs._parents[1:] == (head.w, head.b)
                cut.update(probs.data[(probs.data == PROB_EPS) | (probs.data == 1.0 - PROB_EPS)])
            focal_bce_tape(probs, labels, 2.0).backward()
            results.append([probs.data.tobytes()] + [
                None if t.grad is None else t.grad.tobytes() for t in leaves])
        assert results[0] == results[1]
    assert cut == {PROB_EPS, 1.0 - PROB_EPS}


def test_projection_shapes_and_zero_weights():
    params = init_model(np.random.default_rng(19), CFG)
    g = path_graph(np.random.default_rng(20))
    h, e = encode_graph(g, params)
    assert project_nodes_for_isg(h, params).shape == (3, CFG.text_dim)
    e = message_pass(g, h, e, params, steps=1)
    assert project_edges_for_spg(e, params).shape == (g.num_edges, CFG.text_dim)
    zp = zero_params()
    h0, e0 = encode_graph(g, zp)
    assert np.all(project_nodes_for_isg(h0, zp).data == 0.0)
    assert np.all(project_edges_for_spg(message_pass(g, h0, e0, zp, steps=1), zp).data == 0.0)


def test_pre_vs_post_isg_source_differs():
    params = init_model(np.random.default_rng(21), CFG)
    g = path_graph(np.random.default_rng(22))
    h, e = encode_graph(g, params)
    isg = project_nodes_for_isg(h, params).data
    pre = manual_mlp(params.isg_projection, h.data)
    node_rows, _ = oracle_rounds(g, params, h.data, e.data, steps=2)
    post = manual_mlp(params.isg_projection, node_rows[-1])
    assert np.allclose(isg, pre, atol=1e-12)  # ISG reads the embeddings before message passing
    assert not np.allclose(pre, post)


def _random_graph(rng, n_nodes, span=8):
    tracklets = []
    for _ in range(n_nodes):
        f = int(rng.integers(1, span + 1))
        tracklets.append(
            single(f, x=float(rng.uniform(0, 40)), app=rng.standard_normal(5))
        )
    return build_graph(rows_of(tracklets), knn_k=3, window=(1, span))


def test_permutation_equivariance():
    params = init_model(np.random.default_rng(23), CFG)
    rng = np.random.default_rng(24)
    for trial in range(20):
        g = _random_graph(rng, int(rng.integers(2, 21)))
        if g.num_edges == 0:
            continue
        e = passed(g, params, CFG.message_passing_steps)
        probs = classify_edges(e, params).data

        perm = rng.permutation(g.num_nodes)
        inv = np.argsort(perm)
        pg = TrackGraph(
            g.nodes.take(perm),
            inv[g.edge_u],
            inv[g.edge_v],
            g.edge_features,
            g.frame_span,
        )
        pe = passed(pg, params, CFG.message_passing_steps)
        pprobs = classify_edges(pe, params).data
        assert np.allclose(pe.data, e.data, atol=1e-9)
        assert np.allclose(pprobs, probs, atol=1e-9)


def test_edge_order_permutation_permutes_probabilities():
    params = init_model(np.random.default_rng(25), CFG)
    rng = np.random.default_rng(26)
    g = _random_graph(rng, 12)
    assert g.num_edges > 2
    probs = classify_edges(passed(g, params, 2), params).data
    eperm = rng.permutation(g.num_edges)
    g2 = TrackGraph(
        g.nodes, g.edge_u[eperm], g.edge_v[eperm], g.edge_features[eperm], g.frame_span
    )
    probs2 = classify_edges(passed(g2, params, 2), params).data
    assert np.allclose(probs2, probs[eperm], atol=1e-9)


def test_symmetric_branches_get_identical_embeddings():
    # Two future nodes with identical features attached to a shared root:
    # the graph has an automorphism swapping them, embeddings must match.
    params = init_model(np.random.default_rng(27), CFG)
    app_root = np.ones(5)
    app_twin = np.full(5, 0.5)
    root = single(1, x=0.0, app=app_root)
    t1 = single(2, x=4.0, app=app_twin)
    t2 = single(2, x=-4.0, app=app_twin)
    feats = np.stack([
        np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.2]),
        np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.2]),
    ])
    g = TrackGraph(rows_of([root, t1, t2]), np.array([0, 0]), np.array([1, 2]), feats, (1, 2))
    for steps in (1, 2, 5):
        e = passed(g, params, steps).data
        assert np.allclose(e[0], e[1], atol=1e-12)


def test_forward_deterministic_bitwise():
    rng_g = np.random.default_rng(28)
    g = _random_graph(rng_g, 10)
    outs = []
    for _ in range(2):
        params = init_model(np.random.default_rng(29), CFG)
        outs.append(classify_edges(passed(g, params, 3), params).data)
    assert np.array_equal(outs[0], outs[1])


def test_params_round_trip_through_tensor_dict():
    params = init_model(np.random.default_rng(30), CFG)
    rebuilt = params_from_tensors(params.named_tensors(), CFG)
    g = _random_graph(np.random.default_rng(31), 8)
    a = classify_edges(passed(g, params, 2), params).data
    b = classify_edges(passed(g, rebuilt, 2), rebuilt).data
    assert np.array_equal(a, b)


def test_named_tensor_count_matches_architecture():
    params = init_model(np.random.default_rng(32), CFG)
    names = params.named_tensors()
    # 6 two-layer blocks and 2 single-layer heads, each layer has w and b
    assert len(names) == (6 * 2 + 2) * 2
    assert all(n.endswith((".w", ".b")) for n in names)
    # blocks come in field order, which fixes Adam's order and checkpoint bytes
    blocks = list(dict.fromkeys(n.split(".")[0] for n in names))
    assert blocks == [f.name for f in dataclasses.fields(ModelParams) if f.name != "config"]


def tracklet_rows(num_rows, rows, sizes):
    """``rows`` as tracklets of ``sizes`` rows each, of a clip of ``num_rows``
    placeholder detections."""
    dets = [Detection(1, (0.0, 0.0, 1.0, 1.0), np.zeros(1)) for _ in range(num_rows)]
    return TrackletRows(DetectionArrays.of(dets), rows, np.concatenate(([0], np.cumsum(sizes))))


def gathered_means(enc, nodes):
    """``node_means`` as a row gather, a segment sum and one scale."""
    sizes = nodes.sizes
    node_ids = np.repeat(np.arange(len(sizes)), sizes)
    summed = segment_sum(gather_rows(enc, nodes.rows), Incidence(node_ids, len(sizes)))
    return summed * Tensor(1.0 / sizes.astype(np.float64)[:, None])


@pytest.mark.parametrize("seed", range(20))
def test_node_means_are_the_gathered_sums_bitwise_forward_and_backward(seed):
    # nodes take rows in any order, not every row is used, none twice
    rng = np.random.default_rng(seed)
    enc_rows = int(rng.integers(1, 40))
    data = rng.standard_normal((enc_rows, 6)) * 10.0 ** rng.uniform(-5, 5)
    data[rng.random(data.shape) < 0.1] = -0.0
    rows = rng.permutation(enc_rows)[: int(rng.integers(1, enc_rows + 1))]
    cuts = np.sort(rng.choice(np.arange(1, rows.size), int(rng.integers(0, rows.size)), False))
    nodes = tracklet_rows(enc_rows, rows, np.diff(np.concatenate(([0], cuts, [rows.size]))))
    upstream = Tensor(rng.standard_normal((len(nodes), 6)))
    # enc is also read by a second op, so the first gradient it gets is the
    # product the backward step made, and the second is added to it
    other = Tensor(rng.standard_normal(data.shape))
    results = []
    for means in (node_means, gathered_means):
        enc = Tensor(data.copy(), requires_grad=True)
        out = means(enc, nodes)
        ((out * upstream).sum() + (enc * other).sum()).backward()
        assert enc.data.tobytes() == data.tobytes()
        results.append((out.data.tobytes(), enc.grad.tobytes()))
    assert results[0] == results[1]


def test_node_means_gradients_and_bad_rows():
    rng = np.random.default_rng(41)
    enc = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
    rows, sizes = np.array([4, 0, 2, 6, 5]), np.array([2, 1, 2])
    nodes = tracklet_rows(7, rows, sizes)
    c = Tensor(rng.standard_normal((3, 3)))
    check_gradients(lambda ts: (node_means(ts[0], nodes) * c).sum(), [enc])
    assert np.all(enc.grad[[1, 3]] == 0.0)  # rows no node holds
    with pytest.raises(ValueError, match="mismatch"):
        node_means(Tensor(np.zeros((6, 3))), nodes)
    with pytest.raises(IndexError):
        node_means(enc, tracklet_rows(7, np.array([0, 7]), np.array([2])))
    with pytest.raises(ValueError, match="add up"):
        node_means(enc, tracklet_rows(7, rows, np.array([2, 2])))
    with pytest.raises(ValueError, match="at least one row"):
        node_means(enc, tracklet_rows(7, rows, np.array([5, 0])))
