"""Training loop: labels, teacher forcing, gradient flow, reproducibility."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from langtrack import trainer
from langtrack.autodiff import Incidence, Tensor
from langtrack.guidance import isg_loss, spg_loss
from langtrack.data_io import AnnotationSet, InstanceAttributes, SceneAttributes
from langtrack.graph import Detection, Tracklet, build_graph, lift_detections, window_offsets
from langtrack.inference import TrackerConfig
from langtrack.metrics import MetricReport
from langtrack.model import (
    ModelConfig,
    classify_edges,
    encode_graph,
    init_model,
    message_pass,
    node_means,
    project_edges_for_spg,
    project_nodes_for_isg,
)
from langtrack.nn import AdamState, focal_bce_tape, mlp_forward
from langtrack.synth import SynthConfig, embedding_store_for, gen_sequence, identity_profile
from langtrack.trainer import (
    ClipData,
    ExperimentSpec,
    TrainConfig,
    edge_labels,
    prepare_clip,
    run_experiment,
    run_training,
    train_step,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_graph import (
    ref_merge_by_identity,
    ref_prepare_levels,
    ref_teacher_forced_levels,
    rows_of,
)

SCENE = SceneAttributes("medium", "static", "on a sunny day")

MODEL_CFG = ModelConfig(
    message_passing_steps=2, edge_dim=8, text_dim=8, node_dim=16, appearance_dim=8
)


def small_train_cfg(**overrides) -> TrainConfig:
    base = dict(
        level_sizes=(5, 10, 20),
        batch_clips=2,
        epochs=2,
        lr=3e-3,
        weight_decay=1e-4,
        focal_gamma=1.0,
        alpha=1.0,
        beta=1.0,
        knn_k=3,
        message_passing_steps=2,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def synth_clip(name: str, seed: int, num_objects: int = 2, num_frames: int = 20) -> ClipData:
    cfg = SynthConfig(
        num_objects=num_objects,
        num_frames=num_frames,
        appearance_dim=8,
        seed=seed,
    )
    domain = identity_profile("plain", SCENE, 8)
    detections, annotations = gen_sequence(cfg, domain)
    return ClipData(name, detections, annotations)


def store_for(*clips: ClipData):
    return embedding_store_for([c.annotations for c in clips], dim=8)


def det(frame: int, gt_id: int, x: float = 0.0) -> Detection:
    return Detection(frame, (x, 0.0, 10.0, 10.0), np.ones(8), gt_id=gt_id)


def loop_edge_labels(graph, gt_ids):
    """The per-edge loop edge_labels replaced: each identity's nodes sorted
    stably by (start, end), each linked to the next."""
    by_id = {}
    for idx, gid in enumerate(gt_ids):
        by_id.setdefault(int(gid), []).append(idx)
    successor = {}
    for indices in by_id.values():
        indices.sort(key=lambda i: (graph.nodes[i].start_frame, graph.nodes[i].end_frame))
        for a, b in zip(indices, indices[1:]):
            successor[a] = b
    labels = np.zeros(graph.num_edges)
    for e in range(graph.num_edges):
        if successor.get(int(graph.edge_u[e])) == int(graph.edge_v[e]):
            labels[e] = 1.0
    return labels


def tape(*roots):
    """Ids of every tensor the roots' tapes reach, the roots included."""
    seen = {id(r) for r in roots}
    stack = list(roots)
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return seen


def node_ids(graph):
    """Each node's gt id (None for an impure node)."""
    return [node.gt_id for node in graph.nodes]


class TestEdgeLabels:
    def test_consecutive_same_id_edges_positive(self):
        tracklets = [
            Tracklet([det(1, 1)]), Tracklet([det(2, 1)]), Tracklet([det(3, 1)]),
        ]
        graph = build_graph(rows_of(tracklets), knn_k=5, window=(1, 3))
        labels = edge_labels(graph, node_ids(graph))
        for e in range(graph.num_edges):
            u, v = graph.nodes[int(graph.edge_u[e])], graph.nodes[int(graph.edge_v[e])]
            expected = 1.0 if v.start_frame == u.start_frame + 1 else 0.0
            assert labels[e] == expected

    def test_skip_edge_negative_when_same_id_intervenes(self):
        tracklets = [Tracklet([det(1, 1)]), Tracklet([det(2, 1)]), Tracklet([det(5, 1)])]
        graph = build_graph(rows_of(tracklets), knn_k=5, window=(1, 5))
        labels = edge_labels(graph, node_ids(graph))
        skip = [
            e for e in range(graph.num_edges)
            if graph.nodes[int(graph.edge_u[e])].start_frame == 1
            and graph.nodes[int(graph.edge_v[e])].start_frame == 5
        ]
        assert skip and all(labels[e] == 0.0 for e in skip)

    def test_cross_identity_edges_negative(self):
        tracklets = [
            Tracklet([det(1, 1)]), Tracklet([det(1, 2, x=50.0)]),
            Tracklet([det(2, 1)]), Tracklet([det(2, 2, x=50.0)]),
        ]
        graph = build_graph(rows_of(tracklets), knn_k=5, window=(1, 2))
        labels = edge_labels(graph, node_ids(graph))
        for e in range(graph.num_edges):
            u, v = graph.nodes[int(graph.edge_u[e])], graph.nodes[int(graph.edge_v[e])]
            assert labels[e] == (1.0 if u.gt_id == v.gt_id else 0.0)

    def test_explicit_ids_override_node_ids(self):
        tracklets = [Tracklet([det(1, 1)]), Tracklet([det(2, 2, x=50.0)])]
        graph = build_graph(rows_of(tracklets), knn_k=2, window=(1, 2))
        assert edge_labels(graph, node_ids(graph)).sum() == 0.0
        same = edge_labels(graph, [7] * graph.num_nodes)
        assert same.sum() == 1.0

    def test_missing_identity_rejected(self):
        tracklets = [Tracklet([det(1, 1)]), Tracklet([Detection(2, (0, 0, 10, 10), np.ones(8))])]
        graph = build_graph(rows_of(tracklets), knn_k=2, window=(1, 2))
        with pytest.raises(ValueError):
            edge_labels(graph, node_ids(graph))

    def test_matches_the_per_edge_loop(self):
        rng = np.random.default_rng(3)
        positives = 0
        for seed in (1, 2):
            clip = synth_clip("c", seed, num_objects=4, num_frames=40)
            bundle = prepare_clip(clip, small_train_cfg(), store_for(clip))
            for level in bundle.levels:
                graph = level.graph
                gt_ids = [node.detections[0].gt_id for node in graph.nodes]
                assert level.labels.tobytes() == loop_edge_labels(graph, gt_ids).tobytes()
                # few shared ids: many same-identity nodes tie on (start, end)
                shared = rng.integers(0, 3, graph.num_nodes).tolist()
                got = edge_labels(graph, shared)
                assert got.tobytes() == loop_edge_labels(graph, shared).tobytes()
                positives += got.sum()
        assert positives > 0

    def test_id_list_length_checked(self):
        graph = build_graph(rows_of([Tracklet([det(1, 1)]), Tracklet([det(2, 1)])]), 2, (1, 2))
        with pytest.raises(ValueError):
            edge_labels(graph, [1])


class TestPrepareClip:
    def bundle(self, clip=None, cfg=None):
        clip = clip or synth_clip("a", seed=3)
        cfg = cfg or small_train_cfg()
        return clip, prepare_clip(clip, cfg, store_for(clip))

    def test_level_node_counts_follow_hierarchy(self):
        # 2 objects, 20 frames, levels (5, 10, 20): fragments per level are
        # grouped by the previous level's windows, so 40, 8, then 4 nodes.
        _, bundle = self.bundle()
        assert [b.graph.num_nodes for b in bundle.levels] == [40, 8, 4]

    def test_every_level_has_positive_and_negative_labels(self):
        _, bundle = self.bundle()
        for level in bundle.levels:
            assert level.labels.shape == (level.graph.num_edges,)
            assert level.labels.min() == 0.0 and level.labels.max() == 1.0

    def test_node_means_are_detection_means(self):
        clip, bundle = self.bundle()
        for depth, level in enumerate(bundle.levels):
            rows, sizes = level.graph.nodes.rows, level.graph.nodes.sizes
            assert sizes.shape == (level.graph.num_nodes,)
            assert sizes.sum() == len(rows) == len(clip.detections)
            merged = node_means(Tensor(bundle.appearance), level.graph.nodes).data
            for i, node in enumerate(level.graph.nodes):
                direct = np.mean([d.appearance for d in node.detections], axis=0)
                np.testing.assert_allclose(merged[i], direct, atol=1e-12)
                if depth == 0:  # single-detection nodes: a pure gather
                    assert merged[i].tobytes() == direct.tobytes()

    @pytest.mark.parametrize("objects,frames", [(8, 150), (4, 317), (4, 1200)])
    def test_levels_match_the_fragment_loop_bitwise(self, objects, frames):
        # 4 x 317 and 4 x 1200 run past the last configured size, into the
        # doubled levels and their partial last windows
        cfg = small_train_cfg(level_sizes=(5, 25, 75, 150), knn_k=10)
        clip = synth_clip("r", seed=5, num_objects=objects, num_frames=frames)
        store = store_for(clip)
        bundle = prepare_clip(clip, cfg, store)
        reference = ref_teacher_forced_levels(clip, cfg, store)
        assert len(bundle.levels) == len(reference)
        for level, (union, rows, sizes, labels, targets) in zip(bundle.levels, reference):
            graph = level.graph
            assert [[id(d) for d in t.detections] for t in graph.nodes] == [
                [id(d) for d in t.detections] for t in union.nodes
            ]
            assert graph.frame_span == union.frame_span
            for got, want in (
                (graph.edge_u, union.edge_u), (graph.edge_v, union.edge_v),
                (graph.edge_features, union.edge_features), (graph.nodes.rows, rows),
                (graph.nodes.sizes, sizes), (level.labels, labels), (level.instance_targets, targets),
            ):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("objects,frames,knn_k", [(8, 150, 3), (4, 317, 10), (4, 1200, 3)])
    def test_bundle_matches_the_list_form_level_loop_bitwise(self, objects, frames, knn_k):
        # the same levels with teacher forcing as a dict walk over Tracklet
        # objects and node rows looked up by detection
        cfg = small_train_cfg(level_sizes=(5, 25, 75, 150), knn_k=knn_k)
        clip = synth_clip("l", seed=9, num_objects=objects, num_frames=frames)
        store = store_for(clip)
        bundle = prepare_clip(clip, cfg, store)
        reference = ref_prepare_levels(clip, cfg, store)
        assert len(bundle.levels) == len(reference)
        for level, (graph, rows, sizes, labels, targets) in zip(bundle.levels, reference):
            assert [t.detections for t in level.graph.nodes] == [t.detections for t in graph.nodes]
            assert level.graph.frame_span == graph.frame_span
            for got, want in (
                (level.graph.edge_u, graph.edge_u), (level.graph.edge_v, graph.edge_v),
                (level.graph.edge_features, graph.edge_features),
                (level.graph.nodes.rows, rows), (level.graph.nodes.sizes, sizes),
                (level.labels, labels), (level.instance_targets, targets),
            ):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_memory_is_linear_in_detections(self):
        # a dense (nodes x detections) matrix per level would make bytes per
        # detection grow with the clip: ~7x from 8x150 to 16x600
        cfg = small_train_cfg(level_sizes=(5, 25, 75, 150), knn_k=10)
        per_detection = []
        for objects, frames in ((8, 150), (16, 600), (32, 600)):
            clip = synth_clip("m", seed=3, num_objects=objects, num_frames=frames)
            store = store_for(clip)
            tracemalloc.start()
            try:
                prepare_clip(clip, cfg, store)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            per_detection.append(peak / len(clip.detections))
        assert max(per_detection) < 2.0 * per_detection[0], per_detection

    def test_instance_targets_match_store(self):
        from langtrack.data_io import compose_instance_description

        clip, bundle = self.bundle()
        store = store_for(clip)
        for level in bundle.levels:
            for i, node in enumerate(level.graph.nodes):
                desc = compose_instance_description(clip.annotations.instances[node.gt_id])
                np.testing.assert_array_equal(level.instance_targets[i], store.lookup(desc))

    def test_edges_stay_inside_level_windows(self):
        # a level graph joins its window graphs; no edge may cross windows
        _, bundle = self.bundle()
        sizes = (5, 10, 20)
        for size, level in zip(sizes, bundle.levels):
            for e in range(level.graph.num_edges):
                u = level.graph.nodes[int(level.graph.edge_u[e])]
                v = level.graph.nodes[int(level.graph.edge_v[e])]
                wu = (u.start_frame - 1) // size
                wv = (v.end_frame - 1) // size
                assert wu == wv

    def test_unlabeled_detections_rejected(self):
        clip = synth_clip("a", seed=3)
        clip.detections[0] = Detection(
            clip.detections[0].frame, clip.detections[0].box, clip.detections[0].appearance
        )
        with pytest.raises(ValueError):
            prepare_clip(clip, small_train_cfg(), store_for(clip))

    def test_missing_annotation_rejected(self):
        clip = synth_clip("a", seed=3)
        clip.annotations = AnnotationSet(SCENE, {1: clip.annotations.instances[1]})
        with pytest.raises(KeyError):
            prepare_clip(clip, small_train_cfg(), store_for(clip))

    def test_empty_clip_rejected(self):
        clip = ClipData("x", [], AnnotationSet(SCENE, {1: InstanceAttributes("man", "red", "blue")}))
        with pytest.raises(ValueError):
            prepare_clip(clip, small_train_cfg(), store_for(synth_clip("a", 3)))


class TestTrainStep:
    def setup_bundles(self, cfg, seeds=(3, 4)):
        clips = [synth_clip(f"c{s}", seed=s) for s in seeds]
        store = store_for(*clips)
        bundles = [prepare_clip(c, cfg, store) for c in clips]
        params = init_model(np.random.default_rng(0), MODEL_CFG)
        return bundles, params

    def test_components_sum_to_total(self):
        cfg = small_train_cfg(alpha=0.7, beta=0.3)
        bundles, params = self.setup_bundles(cfg)
        from langtrack.nn import AdamState

        out = train_step(bundles, params, AdamState(lr=cfg.lr), cfg)
        assert set(out) == {"lc", "isg", "spg", "total"}
        assert out["total"] == pytest.approx(
            out["lc"] + 0.7 * out["isg"] + 0.3 * out["spg"], abs=1e-12
        )
        assert out["isg"] > 0.0 and out["spg"] > 0.0

    def test_guidance_off_total_equals_lc(self):
        cfg = small_train_cfg(alpha=0.0, beta=0.0)
        bundles, params = self.setup_bundles(cfg)
        from langtrack.nn import AdamState

        out = train_step(bundles, params, AdamState(lr=cfg.lr), cfg)
        assert out["isg"] == 0.0 and out["spg"] == 0.0
        assert out["total"] == out["lc"]

    def test_loss_decreases_over_training(self):
        cfg = small_train_cfg()
        bundles, params = self.setup_bundles(cfg)
        from langtrack.nn import AdamState

        opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
        totals = [train_step(bundles, params, opt, cfg)["total"] for _ in range(50)]
        assert np.mean(totals[-10:]) < np.mean(totals[:10])

    def test_empty_batch_rejected(self):
        cfg = small_train_cfg()
        _, params = self.setup_bundles(cfg)
        from langtrack.nn import AdamState

        with pytest.raises(ValueError):
            train_step([], params, AdamState(), cfg)


    def test_each_loss_term_is_one_tape_node(self):
        cfg = small_train_cfg()
        (bundle,), params = self.setup_bundles(cfg, seeds=(3,))
        level = bundle.levels[0]
        enc = mlp_forward(params.node_encoder, Tensor(bundle.appearance))
        h, e = encode_graph(level.graph, params, node_means(enc, level.graph.nodes))
        e = message_pass(level.graph, h, e, params, cfg.message_passing_steps)
        probs = classify_edges(e, params)
        node_proj, edge_proj = project_nodes_for_isg(h, params), project_edges_for_spg(e, params)
        base = tape(probs, h, e)
        # a projection is one linear node beside its weight and bias
        assert len(tape(node_proj) - base) == len(tape(edge_proj) - base) == 3
        lc = focal_bce_tape(probs, level.labels, cfg.focal_gamma)
        isg = isg_loss(node_proj, level.instance_targets).value
        spg = spg_loss(edge_proj, bundle.scene_embedding).value
        assert len(tape(lc)) == len(tape(probs)) + 1
        assert len(tape(isg)) == len(tape(node_proj)) + 1
        assert len(tape(spg)) == len(tape(edge_proj)) + 1
        assert len(tape(lc, isg, spg)) == len(base) + (3 + 1) + (3 + 1) + 1

    def test_a_second_step_builds_no_scatter_matrix(self, monkeypatch):
        cfg = small_train_cfg()
        bundles, params = self.setup_bundles(cfg)
        built = Counter()
        make_csr, make_incidence = sparse.csr_array, Incidence.__init__

        def counted_csr(*args, **kwargs):
            built["csr"] += 1
            return make_csr(*args, **kwargs)

        def counted_incidence(self, *args):
            built["incidence"] += 1
            make_incidence(self, *args)

        monkeypatch.setattr(sparse, "csr_array", counted_csr)
        monkeypatch.setattr(Incidence, "__init__", counted_incidence)
        opt = AdamState(lr=cfg.lr)
        train_step(bundles, params, opt, cfg)
        levels = sum(len(b.levels) for b in bundles)
        # each level's two endpoint incidences and their matrices, and its
        # nodes' membership matrix
        assert built == {"incidence": 2 * levels, "csr": 3 * levels}
        built.clear()
        train_step(bundles, params, opt, cfg)
        assert not built


class TestGradientFlow:
    """Which blocks move under each loss term (weight decay off)."""

    def run_one(self, alpha, beta):
        cfg = small_train_cfg(alpha=alpha, beta=beta, weight_decay=0.0)
        clip = synth_clip("a", seed=3)
        bundle = prepare_clip(clip, cfg, store_for(clip))
        params = init_model(np.random.default_rng(0), MODEL_CFG)
        from langtrack.nn import AdamState

        train_step([bundle], params, AdamState(lr=cfg.lr, weight_decay=0.0), cfg)
        return {k: t.data.copy() for k, t in params.named_tensors().items()}

    @staticmethod
    def block_moved(before, after, block):
        keys = [k for k in before if k.startswith(block + ".")]
        assert keys
        return any(not np.array_equal(before[k], after[k]) for k in keys)

    def test_instance_term_reaches_encoder_and_its_projection(self):
        base = {
            k: t.data.copy()
            for k, t in init_model(np.random.default_rng(0), MODEL_CFG).named_tensors().items()
        }
        plain = self.run_one(0.0, 0.0)
        with_isg = self.run_one(1.0, 0.0)
        assert self.block_moved(base, with_isg, "isg_projection")
        assert not self.block_moved(base, plain, "isg_projection")
        assert any(
            not np.array_equal(plain[k], with_isg[k])
            for k in plain if k.startswith("node_encoder.")
        )

    def test_scene_term_reaches_edge_blocks_and_its_projection(self):
        base = {
            k: t.data.copy()
            for k, t in init_model(np.random.default_rng(0), MODEL_CFG).named_tensors().items()
        }
        plain = self.run_one(0.0, 0.0)
        with_spg = self.run_one(0.0, 1.0)
        assert self.block_moved(base, with_spg, "spg_projection")
        assert not self.block_moved(base, plain, "spg_projection")
        assert any(
            not np.array_equal(plain[k], with_spg[k])
            for k in plain if k.startswith("edge_update.")
        )

    def test_store_vectors_never_change(self):
        clip = synth_clip("a", seed=3)
        store = store_for(clip)
        snapshot = {d: store.lookup(d).copy() for d in store.descriptions()}
        cfg = small_train_cfg(epochs=2)
        run_training([clip], cfg, MODEL_CFG, store)
        for d, vec in snapshot.items():
            np.testing.assert_array_equal(store.lookup(d), vec)


@pytest.mark.parametrize("name", ["batch_clips", "epochs", "knn_k", "message_passing_steps", "seed"])
@pytest.mark.parametrize("value", [1.5, 2.0, True, np.int64(2), "2"])
def test_train_config_counts_must_be_integers(name, value):
    with pytest.raises(ValueError, match=name):
        small_train_cfg(**{name: value})


class TestRunTraining:
    def test_same_seed_reproduces_bitwise(self):
        clips = [synth_clip("a", 3), synth_clip("b", 4)]
        store = store_for(*clips)
        cfg = small_train_cfg(epochs=2)
        p1, h1 = run_training(clips, cfg, MODEL_CFG, store)
        p2, h2 = run_training(clips, cfg, MODEL_CFG, store)
        assert h1 == h2
        for k, t in p1.named_tensors().items():
            np.testing.assert_array_equal(t.data, p2.named_tensors()[k].data)

    def test_seed_changes_trajectory(self):
        clips = [synth_clip("a", 3)]
        store = store_for(*clips)
        p1, _ = run_training(clips, small_train_cfg(epochs=1, seed=0), MODEL_CFG, store)
        p2, _ = run_training(clips, small_train_cfg(epochs=1, seed=1), MODEL_CFG, store)
        assert any(
            not np.array_equal(t.data, p2.named_tensors()[k].data)
            for k, t in p1.named_tensors().items()
        )

    def test_zero_epochs_returns_initialization(self):
        clips = [synth_clip("a", 3)]
        store = store_for(*clips)
        params, history = run_training(clips, small_train_cfg(epochs=0), MODEL_CFG, store)
        assert history == []
        fresh = init_model(np.random.default_rng(0), MODEL_CFG)
        for k, t in params.named_tensors().items():
            np.testing.assert_array_equal(t.data, fresh.named_tensors()[k].data)

    def test_zero_weights_match_disabled_guidance_bitwise(self):
        # the zero-weight run and a run with the guidance machinery switched
        # off must produce identical parameter trajectories
        clips = [synth_clip("a", 3), synth_clip("b", 4)]
        store = store_for(*clips)
        weights_off = small_train_cfg(epochs=2, alpha=0.0, beta=0.0)
        module_off = small_train_cfg(epochs=2, alpha=1.0, beta=1.0, guidance_enabled=False)
        p1, h1 = run_training(clips, weights_off, MODEL_CFG, store)
        p2, h2 = run_training(clips, module_off, MODEL_CFG, store=None)
        assert h1 == h2
        assert all(step["total"] == step["lc"] for step in h1)
        for k, t in p1.named_tensors().items():
            np.testing.assert_array_equal(t.data, p2.named_tensors()[k].data)

    def test_guidance_without_store_rejected(self):
        with pytest.raises(ValueError):
            run_training([synth_clip("a", 3)], small_train_cfg(), MODEL_CFG, store=None)

    def test_mismatched_step_counts_rejected(self):
        # training reads the step count from TrainConfig, tracking from
        # ModelConfig; a model trained with one count must not track with another
        clips = [synth_clip("a", 3)]
        with pytest.raises(ValueError, match="message-passing steps"):
            run_training(clips, small_train_cfg(message_passing_steps=3), MODEL_CFG, store_for(*clips))

    def test_history_length_counts_batches(self):
        clips = [synth_clip(f"c{i}", seed=i) for i in range(3)]
        store = store_for(*clips)
        cfg = small_train_cfg(epochs=2, batch_clips=2)
        _, history = run_training(clips, cfg, MODEL_CFG, store)
        assert len(history) == 4  # ceil(3 / 2) = 2 batches per epoch


class TestRunExperiment:
    def spec(self):
        train = [synth_clip("train0", 3), synth_clip("train1", 4)]
        eval_in = [synth_clip("in0", 10)]
        eval_cross = [synth_clip("cross0", 11)]
        store = store_for(*train)
        return ExperimentSpec(train, eval_in, eval_cross, store, seeds=(0,))

    def test_runs_both_arms_and_writes_artifacts(self, tmp_path):
        cfg = small_train_cfg(epochs=1)
        results = run_experiment(self.spec(), cfg, MODEL_CFG, out_dir=tmp_path)
        assert set(results) == {0}
        assert set(results[0]) == {"baseline", "guided"}
        for arm in results[0].values():
            assert set(arm) == {"in_domain", "cross_domain"}
            for report in arm.values():
                assert isinstance(report, MetricReport)
                assert np.isfinite(report.idf1)
        for name in (
            "checkpoint_seed0_baseline.json",
            "checkpoint_seed0_guided.json",
            "report_seed0_guided_cross_domain.txt",
            "comparison.txt",
            "comparison.csv",
        ):
            assert (tmp_path / name).exists()
        csv_lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert csv_lines[0] == "arm,domain,seed,mota,idf1,hota"
        assert len(csv_lines) == 5

    def test_each_clip_is_prepared_once_per_experiment(self, monkeypatch):
        prepared = []
        real_prepare = trainer.prepare_clip

        def counted_prepare(clip, cfg, store):
            prepared.append(clip.name)
            return real_prepare(clip, cfg, store)

        monkeypatch.setattr(trainer, "prepare_clip", counted_prepare)
        spec = self.spec()
        spec.seeds = (0, 1)
        cfg = small_train_cfg(epochs=1)
        results = run_experiment(spec, cfg, MODEL_CFG)
        assert sorted(prepared) == ["train0", "train1"]
        # shared bundles train the same model as a run of its own
        params, _ = run_training(spec.train_clips, small_train_cfg(epochs=1, seed=1),
                                 MODEL_CFG, spec.store)
        tracker_cfg = TrackerConfig(list(cfg.level_sizes), cfg.knn_k, cfg.threshold)
        alone = trainer._evaluate_arm(params, spec.eval_in_domain, tracker_cfg)
        assert results[1]["guided"]["in_domain"] == alone

    def test_no_output_dir_returns_results_only(self):
        cfg = small_train_cfg(epochs=1)
        results = run_experiment(self.spec(), cfg, MODEL_CFG)
        assert results[0]["guided"]["in_domain"].num_gt > 0

    def test_baseline_can_be_skipped(self):
        spec = self.spec()
        spec.include_baseline = False
        results = run_experiment(spec, small_train_cfg(epochs=1), MODEL_CFG)
        assert set(results[0]) == {"guided"}

    def test_train_eval_name_overlap_rejected(self):
        train = [synth_clip("a", 3)]
        with pytest.raises(ValueError):
            ExperimentSpec(train, [synth_clip("a", 4)], [], store_for(*train))

    def test_duplicate_train_names_rejected(self):
        clips = [synth_clip("a", 3), synth_clip("a", 4)]
        with pytest.raises(ValueError):
            ExperimentSpec(clips, [], [], store_for(*clips))

    def test_empty_seeds_rejected(self):
        train = [synth_clip("a", 3)]
        with pytest.raises(ValueError):
            ExperimentSpec(train, [], [], store_for(*train), seeds=())


@given(st.lists(st.tuples(st.integers(1, 12), st.sampled_from([None, 1, 2, 3]),
                          st.integers(0, 2)), max_size=40),
       st.sampled_from([1, 2, 3, 5]))
@settings(max_examples=300, deadline=None)
def test_merge_by_identity_matches_the_dict_walk(rows, size):
    # ids repeat within a frame and some are missing: both merges must then
    # reject the same inputs, and otherwise give the same tracklets
    detections = [Detection(f, (float(x), 0.0, 4.0, 8.0), np.ones(2), gt_id=gid)
                  for f, gid, x in rows]
    graph = build_graph(lift_detections(detections), 3, (1, 12), size)
    offsets = window_offsets(graph.starts, 1, size)
    try:
        want = [t.detections for t in ref_merge_by_identity(graph, offsets)]
    except ValueError:
        with pytest.raises(ValueError):
            trainer._merge_by_identity(graph, offsets)
        return
    assert [t.detections for t in trainer._merge_by_identity(graph, offsets)] == want
