"""Release gate: one test per shipping requirement.

Each test is self-contained and carries its own oracle: finite differences
for the gradients, direct summation for the distillation losses, exhaustive
matching for the metrics, and a from-scratch feasibility checker for the
rounding.  The cross-domain trend tests share one trained experiment via a
module fixture.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import check_gradients
from langtrack.autodiff import as_tensor
from langtrack.cli import main as cli_main
from langtrack.data_io import SceneAttributes
from langtrack.graph import Detection, TrackGraph, build_graph, lift_detections
from langtrack.guidance import (
    GuidanceConfig,
    LanguageEmbeddingStore,
    isg_loss,
    spg_loss,
    total_loss,
)
from langtrack.inference import TrackerConfig, gt_oracle_scorer, round_edges, track_video
from langtrack.metrics import BoxRecord, evaluate, records_from_result
from langtrack.model import (
    ModelConfig,
    classify_edges,
    encode_graph,
    init_model,
    message_pass,
    project_edges_for_spg,
    project_nodes_for_isg,
)
from langtrack.nn import focal_bce_tape
from langtrack.synth import (
    SynthConfig,
    apply_domain_shift,
    embedding_store_for,
    gen_sequence,
    identity_profile,
    rotation_profile,
)
from langtrack.trainer import ClipData, ExperimentSpec, TrainConfig, run_experiment, run_training
from reference_metrics import ref_hota, ref_idf1, ref_mota
from test_metrics import id_switch_scenario, random_scenario, recs

SCENE = SceneAttributes("medium", "static", "on a sunny day")


# -- 1: gradients --------------------------------------------------------


GRAD_CFG = ModelConfig(
    message_passing_steps=2, edge_dim=3, text_dim=2, node_dim=4, appearance_dim=8
)


def _random_training_graph(rng: np.random.Generator) -> TrackGraph:
    while True:
        n = int(rng.integers(2, 9))
        dets = [
            Detection(
                frame=int(rng.integers(1, 9)),
                box=(
                    float(rng.uniform(0.0, 40.0)),
                    float(rng.uniform(0.0, 30.0)),
                    float(rng.uniform(3.0, 9.0)),
                    float(rng.uniform(5.0, 12.0)),
                ),
                appearance=rng.standard_normal(GRAD_CFG.appearance_dim),
                gt_id=int(rng.integers(1, 5)),
            )
            for _ in range(n)
        ]
        graph = build_graph(lift_detections(dets), 2, (1, 8))
        if graph.num_edges:
            return graph


def test_01_full_loss_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        graph = _random_training_graph(rng)
        params = init_model(rng, GRAD_CFG)
        labels = rng.integers(0, 2, size=graph.num_edges).astype(np.float64)
        inst_targets = rng.standard_normal((graph.num_nodes, GRAD_CFG.text_dim))
        scene_target = rng.standard_normal(GRAD_CFG.text_dim)
        weights = GuidanceConfig(
            alpha=float(rng.uniform(0.25, 1.5)), beta=float(rng.uniform(0.25, 1.5))
        )

        def full_loss(_):
            h, e = encode_graph(graph, params)
            isg = isg_loss(project_nodes_for_isg(h, params), inst_targets)
            e = message_pass(graph, h, e, params, GRAD_CFG.message_passing_steps)
            lc = focal_bce_tape(classify_edges(e, params), labels, 1.0)
            spg = spg_loss(project_edges_for_spg(e, params), scene_target)
            return total_loss(lc, isg.value, spg.value, weights)

        tensors = list(params.named_tensors().values())
        worst = max(worst, check_gradients(full_loss, tensors, tol=1e-3))
    elapsed = time.perf_counter() - start
    assert worst < 1e-3
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"


# -- 2: distillation loss oracles ----------------------------------------


def _np_softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def _np_kl(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(p * (np.log(p) - np.log(q))))


def test_02_distillation_losses_match_direct_summation():
    rng = np.random.default_rng(20260822)
    for _ in range(500):
        v = int(rng.integers(1, 9))
        d = int(rng.integers(2, 11))
        nodes = rng.standard_normal((v, d)) * 3.0
        targets = rng.standard_normal((v, d)) * 3.0
        want = sum(
            _np_kl(_np_softmax(n), _np_softmax(t)) for n, t in zip(nodes, targets)
        ) / v
        assert abs(isg_loss(nodes, targets).item() - want) < 1e-9
    for _ in range(500):
        e = int(rng.integers(1, 9))
        d = int(rng.integers(2, 11))
        edges = rng.standard_normal((e, d)) * 3.0
        scene = rng.standard_normal(d) * 3.0
        want = sum(_np_kl(_np_softmax(r), _np_softmax(scene)) for r in edges) / e
        assert abs(spg_loss(edges, scene).item() - want) < 1e-9

    # softmax([0,0]) = [.5,.5] against softmax([0,ln3]) = [.25,.75]
    kl_half_quarter = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    got = isg_loss(np.array([[0.0, 0.0]]), np.array([[0.0, math.log(3.0)]])).item()
    assert abs(got - kl_half_quarter) < 1e-12
    assert abs(got - 0.14384) < 1e-5
    got = spg_loss(np.array([[0.0, 0.0]]), np.array([0.0, math.log(3.0)])).item()
    assert abs(got - kl_half_quarter) < 1e-12

    got = focal_bce_tape(as_tensor([[0.5]]), np.array([1.0]), 1.0).item()
    assert abs(got - 0.5 * math.log(2.0)) < 1e-9
    assert abs(got - 0.34657) < 1e-5


# -- 3: metric oracles ---------------------------------------------------


def test_03_metrics_match_brute_force_references():
    rng = np.random.default_rng(314159)
    for _ in range(50):
        gt_rows, pred_rows = random_scenario(rng)
        rep = evaluate(recs(gt_rows), recs(pred_rows))
        assert rep.mota == pytest.approx(ref_mota(gt_rows, pred_rows)["mota"], abs=1e-9)
        assert rep.idsw == ref_mota(gt_rows, pred_rows)["idsw"]
        assert rep.idf1 == pytest.approx(ref_idf1(gt_rows, pred_rows)["idf1"], abs=1e-9)
        rh = ref_hota(gt_rows, pred_rows)
        assert rep.hota == pytest.approx(rh["hota"], abs=1e-9)
        assert rep.deta == pytest.approx(rh["deta"], abs=1e-9)
        assert rep.assa == pytest.approx(rh["assa"], abs=1e-9)

    gt, pred = id_switch_scenario()
    rep = evaluate(gt, pred)
    assert rep.mota == pytest.approx(0.9, abs=1e-9)
    assert rep.idsw == 1
    assert rep.idf1 == pytest.approx(0.5, abs=1e-9)
    assert rep.hota == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert abs(rep.hota - 0.7071) < 1e-4
    assert rep.deta == pytest.approx(1.0, abs=1e-9)
    assert rep.assa == pytest.approx(0.5, abs=1e-9)


# -- 4: rounding feasibility ---------------------------------------------


def _random_dag(rng: np.random.Generator) -> tuple[TrackGraph, np.ndarray]:
    n = int(rng.integers(2, 11))
    frames = rng.integers(1, 13, size=n)
    nodes = lift_detections([
        Detection(frame=int(f), box=(float(i), 0.0, 4.0, 8.0), appearance=np.zeros(2))
        for i, f in enumerate(frames)
    ])
    uu, vv = [], []
    for i in range(n):
        for j in range(n):
            if frames[i] < frames[j] and rng.random() < 0.6:
                uu.append(i)
                vv.append(j)
    graph = TrackGraph(
        nodes=nodes,
        edge_u=np.array(uu, dtype=np.intp),
        edge_v=np.array(vv, dtype=np.intp),
        edge_features=np.zeros((len(uu), 6)),
        frame_span=(1, 12),
    )
    # cluster a third of the probabilities around the threshold
    probs = np.where(
        rng.random(len(uu)) < (1.0 / 3.0),
        rng.uniform(0.45, 0.55, len(uu)),
        rng.uniform(0.0, 1.0, len(uu)),
    )
    return graph, probs


def test_04_rounding_always_feasible_and_maximal():
    rng = np.random.default_rng(424242)
    violations = 0
    for _ in range(10_000):
        graph, probs = _random_dag(rng)
        accepted = set(round_edges(graph, probs, 0.5).tolist())
        used_u = {int(graph.edge_u[i]) for i in accepted}
        used_v = {int(graph.edge_v[i]) for i in accepted}
        if len(used_u) != len(accepted) or len(used_v) != len(accepted):
            violations += 1  # a node fed two accepted edges on one slot
            continue
        for k in range(graph.num_edges):
            if k in accepted or probs[k] <= 0.5:
                continue
            if int(graph.edge_u[k]) not in used_u and int(graph.edge_v[k]) not in used_v:
                violations += 1  # acceptable edge left on the table
    assert violations == 0


# -- 5: oracle tracking --------------------------------------------------


def test_05_oracle_scorer_tracks_perfectly():
    domain = identity_profile("source", SCENE, 8)
    worlds = [
        dict(num_objects=2, num_frames=20, occlusion_rate=0.0, velocity_scale=4.0, box_jitter=0.0, seed=11),
        dict(num_objects=4, num_frames=60, occlusion_rate=0.2, velocity_scale=8.0, box_jitter=0.1, seed=12),
        dict(num_objects=8, num_frames=150, occlusion_rate=0.3, velocity_scale=12.0, box_jitter=0.25, seed=13),
        dict(num_objects=5, num_frames=75, occlusion_rate=0.15, velocity_scale=6.0, box_jitter=0.05, seed=14),
        dict(num_objects=3, num_frames=33, occlusion_rate=0.1, velocity_scale=10.0, box_jitter=0.2, seed=15),
    ]
    for world in worlds:
        synth = SynthConfig(appearance_dim=8, appearance_noise=0.05, **world)
        detections, _ = gen_sequence(synth, domain)
        result = track_video(detections, None, TrackerConfig(), edge_scorer=gt_oracle_scorer)
        gt = [BoxRecord(d.frame, d.gt_id, d.box) for d in detections]
        rep = evaluate(gt, records_from_result(result))
        assert rep.idf1 == 1.0, f"idf1 {rep.idf1} on {world}"
        assert rep.hota == 1.0, f"hota {rep.hota} on {world}"


# -- 6: guidance-off reduction -------------------------------------------


def _toy_clips(count: int = 2, dim: int = 8) -> list[ClipData]:
    domain = identity_profile("source", SCENE, dim)
    clips = []
    for i in range(count):
        synth = SynthConfig(
            num_objects=3, num_frames=20, appearance_dim=dim, appearance_noise=0.05,
            seed=50 + i,
        )
        detections, annotations = gen_sequence(synth, domain)
        clips.append(ClipData(f"clip{i}", detections, annotations))
    return clips


def test_06_zero_weights_reduce_to_unguided_trainer():
    clips = _toy_clips()
    model_cfg = ModelConfig(
        message_passing_steps=2, edge_dim=8, text_dim=8, node_dim=16, appearance_dim=8
    )
    base = dict(
        level_sizes=(5, 10, 20), batch_clips=2, epochs=3, lr=3e-3,
        knn_k=3, message_passing_steps=2, seed=7, alpha=0.0, beta=0.0,
    )
    store = embedding_store_for([c.annotations for c in clips], 8)
    params_zero, hist_zero = run_training(
        clips, TrainConfig(**base, guidance_enabled=True), model_cfg, store
    )
    params_off, hist_off = run_training(
        clips, TrainConfig(**base, guidance_enabled=False), model_cfg, None
    )
    for name, tensor in params_zero.named_tensors().items():
        assert tensor.data.tobytes() == params_off.named_tensors()[name].data.tobytes(), name
    assert hist_zero == hist_off


# -- 7/8: the cross-domain experiment ------------------------------------


TREND_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def trend():
    """Train both arms over all seeds once; both trend tests read from it."""
    dim = 64
    domain_a = identity_profile("source", SCENE, dim)
    domain_b = rotation_profile("shifted", SCENE, dim, 45.0, translation_scale=2.0)

    def make(prefix: str, count: int, base_seed: int) -> list[ClipData]:
        clips = []
        for i in range(count):
            synth = SynthConfig(
                num_objects=8, num_frames=150, appearance_dim=dim,
                appearance_noise=0.08, occlusion_rate=0.2, velocity_scale=10.0,
                box_jitter=0.15, seed=base_seed + i,
            )
            detections, annotations = gen_sequence(synth, domain_a)
            clips.append(ClipData(f"{prefix}{i:02d}", detections, annotations))
        return clips

    train = make("train", 10, 1000)
    eval_in = make("in", 8, 2000)
    eval_cross = [
        ClipData("x" + c.name, apply_domain_shift(c.detections, domain_a, domain_b), c.annotations)
        for c in eval_in
    ]
    store = embedding_store_for([c.annotations for c in train], 32)
    spec = ExperimentSpec(train, eval_in, eval_cross, store, seeds=TREND_SEEDS)
    cfg = TrainConfig(
        level_sizes=(5, 25, 75, 150), batch_clips=1, epochs=30, lr=2e-3,
        knn_k=3, message_passing_steps=2,
    )
    model_cfg = ModelConfig(
        message_passing_steps=2, edge_dim=16, text_dim=32, node_dim=64, appearance_dim=dim
    )
    start = time.perf_counter()
    results = run_experiment(spec, cfg, model_cfg)
    return results, time.perf_counter() - start


def test_07_guided_wins_cross_domain(trend):
    results, wall = trend
    baseline = [results[s]["baseline"]["cross_domain"].idf1 for s in TREND_SEEDS]
    guided = [results[s]["guided"]["cross_domain"].idf1 for s in TREND_SEEDS]
    wins = sum(1 for b, g in zip(baseline, guided) if g > b)
    assert np.mean(guided) > np.mean(baseline)
    assert wins >= 4, f"guided won only {wins}/5 seeds"
    assert wall < 900.0, f"experiment took {wall:.0f}s"


def test_08_guided_holds_in_domain(trend):
    results, _ = trend
    baseline = [results[s]["baseline"]["in_domain"].idf1 for s in TREND_SEEDS]
    guided = [results[s]["guided"]["in_domain"].idf1 for s in TREND_SEEDS]
    assert np.mean(guided) >= np.mean(baseline) - 0.01


# -- 9: inference runs without language ----------------------------------


def test_09_inference_never_touches_language(tmp_path, monkeypatch, capsys):
    import langtrack.inference as inference_mod

    source = Path(inference_mod.__file__).read_text()
    assert "lookup" not in source
    assert "LanguageEmbeddingStore" not in source
    assert "language_access_forbidden" in source

    clips = _toy_clips(count=1)
    store = embedding_store_for([clips[0].annotations], 8)
    params = init_model(
        np.random.default_rng(0),
        ModelConfig(message_passing_steps=2, edge_dim=8, text_dim=8, node_dim=16, appearance_dim=8),
    )
    tracker_cfg = TrackerConfig(level_sizes=[5, 10, 20], knn_k=3)
    track_video(clips[0].detections, params, tracker_cfg)
    assert store.access_count == 0

    def leaky_scorer(graph):
        store.lookup(store.descriptions()[0])
        return np.zeros(graph.num_edges)

    with pytest.raises(RuntimeError):
        track_video(clips[0].detections, None, tracker_cfg, edge_scorer=leaky_scorer)

    # the track command end to end: every store lookup is counted, none happen
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "levels": [5, 10, 20], "knn_k": 3, "mp_steps": 2, "node_dim": 16,
        "edge_dim": 8, "text_dim": 8, "epochs": 0, "alpha": 0.0, "beta": 0.0,
    }))
    data = tmp_path / "data"
    assert cli_main([
        "gen", "--config", str(config_path), "--out", str(data),
        "--sequences", "1", "--objects", "2", "--frames", "20", "--appearance-dim", "8",
    ]) == 0
    run_dir = tmp_path / "run"
    assert cli_main([
        "train", "--config", str(config_path), "--data", str(data), "--out", str(run_dir),
    ]) == 0

    calls: list[str] = []
    real_lookup = LanguageEmbeddingStore.lookup

    def counted_lookup(self, description):
        calls.append(description)
        return real_lookup(self, description)

    monkeypatch.setattr(LanguageEmbeddingStore, "lookup", counted_lookup)
    track_out = tmp_path / "tracked"
    assert cli_main([
        "track", "--config", str(config_path),
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--detections", str(data / "seq00.det.txt"), "--out", str(track_out),
    ]) == 0
    assert calls == []

    code = cli_main([
        "track", "--config", str(config_path),
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--detections", str(data / "seq00.det.txt"), "--out", str(track_out),
        "--fixture", str(tmp_path / "whatever.json"),
    ])
    assert code == 2
    assert "language" in capsys.readouterr().err


# -- 10: determinism -----------------------------------------------------


def test_10_experiment_reports_are_bit_identical(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "levels": [5, 10, 20], "knn_k": 3, "mp_steps": 2, "node_dim": 16,
        "edge_dim": 8, "text_dim": 8, "epochs": 1, "batch_clips": 2, "lr": 3e-3,
    }))
    flags = [
        "experiment", "--config", str(config_path), "--seeds", "0,1",
        "--train-sequences", "2", "--eval-sequences", "1",
        "--objects", "2", "--frames", "20", "--appearance-dim", "8",
    ]
    for name in ("first", "second"):
        assert cli_main(flags + ["--out", str(tmp_path / name)]) == 0
    first = sorted((tmp_path / "first").iterdir())
    second = sorted((tmp_path / "second").iterdir())
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name
