"""Training loop and the intra-/cross-domain experiment driver.

Training and tracking run one level loop, ``inference.run_levels``, so they
see the same levels and windows, and the top level covers the whole clip.
Teacher forcing is training's merge rule: each window's nodes join into one
tracklet per ground-truth id, so at level L every object contributes one
tracklet per level L-1 window (single detections at the bottom).  Like
tracking's, every level's tracklets are rows of the clip's detection arrays,
so teacher forcing regroups rows, and ``train_step`` takes a level's node
means over its graph's nodes.  Each level's bundle holds its one level
graph, whose windows share no edges; the graph and its nodes keep their
scatter matrices, so only the first step over a bundle builds them.
Tracklet embeddings are ``model.node_means`` of the encoder output, the rule
tracking uses too, so gradients reach the encoder.  The loss per clip is the sum
over levels of focal classification loss plus the weighted instance- and
scene-distillation terms; a batch averages clips and takes one Adam step.
``train_step`` reads the guidance weights once (zeros when guidance is
disabled) and computes a term only when its weight is positive, and
``total_loss`` returns Lc itself for zero weights, so an unguided run's
parameter trajectory is bit-identical to a build without the guidance terms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tensor, as_tensor
from .data_io import (
    AnnotationSet,
    compose_instance_description,
    compose_scene_description,
)
from .graph import (
    Detection,
    DetectionArrays,
    TrackGraph,
    TrackletRows,
    check_level_sizes,
    lift_detections,
)
from .graph import build_graph  # noqa: F401  (bench/run.py traces trainer.build_graph)
from .guidance import (
    GuidanceConfig,
    LanguageEmbeddingStore,
    isg_loss,
    spg_loss,
    total_loss,
)
from .inference import TrackerConfig, run_levels, track_video
from .metrics import (
    BoxRecord,
    MetricReport,
    evaluate_sequences,
    records_from_result,
    render_report,
    render_table,
)
from .model import (
    ModelConfig,
    ModelParams,
    classify_edges,
    encode_graph,
    init_model,
    message_pass,
    node_means,
    project_edges_for_spg,
    project_nodes_for_isg,
)
from .nn import AdamState, adam_step, focal_bce_tape, mlp_forward, save_checkpoint

__all__ = [
    "TrainConfig",
    "ClipData",
    "ClipBundle",
    "ExperimentSpec",
    "edge_labels",
    "prepare_clip",
    "train_step",
    "run_training",
    "run_experiment",
]

# The report fields ``comparison.csv`` lists, in column order.
_COMPARISON_METRICS = ("mota", "idf1", "hota")


@dataclass(frozen=True)
class TrainConfig:
    level_sizes: tuple[int, ...] = (5, 25, 75, 150)
    batch_clips: int = 8
    epochs: int = 30
    lr: float = 3e-4
    weight_decay: float = 1e-4
    focal_gamma: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    knn_k: int = 10
    message_passing_steps: int = 8
    threshold: float = 0.5
    seed: int = 0
    guidance_enabled: bool = True

    def __post_init__(self):
        check_level_sizes(self.level_sizes)
        for name in ("batch_clips", "epochs", "knn_k", "message_passing_steps", "seed"):
            # type(), not isinstance(): True must not pass as the count 1
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("lr", "weight_decay", "focal_gamma", "alpha", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.batch_clips < 1:
            raise ValueError("batch_clips must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.weight_decay < 0 or self.focal_gamma < 0:
            raise ValueError("weight_decay and focal_gamma must be >= 0")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.knn_k < 1 or self.message_passing_steps < 1:
            raise ValueError("knn_k and message_passing_steps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def use_guidance(self) -> bool:
        return self.guidance_enabled and (self.alpha > 0.0 or self.beta > 0.0)


@dataclass
class ClipData:
    """One training clip: labeled detections plus its annotations."""

    name: str
    detections: list[Detection]
    annotations: AnnotationSet


@dataclass
class _LevelBundle:
    graph: TrackGraph
    labels: np.ndarray  # (edges,)
    instance_targets: np.ndarray  # (nodes, text_dim)


@dataclass
class ClipBundle:
    """Constant per-clip training structure, built once and reused."""

    name: str
    appearance: np.ndarray  # (detections, appearance_dim)
    levels: list[_LevelBundle]
    scene_embedding: np.ndarray


def edge_labels(graph: TrackGraph, gt_ids: Sequence[int | None]) -> np.ndarray:
    """1 for edges joining temporally consecutive same-identity nodes, where
    node i's identity is ``gt_ids[i]``.

    Consecutive means no other node of the same identity starts between
    the two; every other edge is 0.
    """
    ids = np.asarray(gt_ids)
    if len(ids) != graph.num_nodes:
        raise ValueError(f"{len(ids)} gt ids for {graph.num_nodes} nodes")
    if ids.dtype == object and any(g is None for g in ids):
        raise ValueError("every node needs a ground-truth id for labeling")
    ids = ids.astype(np.int64).reshape(-1)
    # each identity's nodes in time order, stably
    order = np.lexsort((graph.ends, graph.starts, ids))
    same = ids[order[1:]] == ids[order[:-1]]
    successor = np.full(ids.size, -1)
    successor[order[:-1][same]] = order[1:][same]
    return (successor[graph.edge_u] == graph.edge_v).astype(np.float64)


def _merge_by_identity(graph: TrackGraph, offsets: np.ndarray) -> TrackletRows:
    """Teacher forcing: one tracklet per ground-truth id of each window's
    nodes (``graph.nodes[offsets[j]:offsets[j + 1]]`` for window j), keyed by
    each node's first detection, in the order of each id's first node; the
    nodes are pure and, per id, in time order."""
    nodes = graph.nodes
    window = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    key = np.column_stack((window, nodes.clip.has_gt[nodes.firsts], nodes.clip.gt[nodes.firsts]))
    _, lead, which = np.unique(key, axis=0, return_index=True, return_inverse=True)
    lead = lead[which]  # each node's id's first node in its window
    order = np.argsort(lead, kind="stable")
    merged = nodes.take(order, group=lead[order])
    steps = np.diff(nodes.clip.frames[merged.rows])
    steps[merged.offsets[1:-1] - 1] = 1  # from one tracklet to the next
    if np.any(steps <= 0):
        raise ValueError("detection frames of one identity must strictly increase")
    return merged


def prepare_clip(
    clip: ClipData,
    cfg: TrainConfig,
    store: LanguageEmbeddingStore,
) -> ClipBundle:
    """Precompute the teacher-forced hierarchy, labels, and loss targets: the
    levels of ``run_levels``, tracking's loop, with ``_merge_by_identity`` merges."""
    dets = DetectionArrays.of(clip.detections)
    if not dets.detections:
        raise ValueError(f"clip {clip.name!r} has no detections")
    if not dets.has_gt.all():
        raise ValueError(f"clip {clip.name!r} has detections without gt ids")
    dets = dets.take(np.lexsort((dets.gt, dets.frames)))
    ids = np.unique(dets.gt)
    vectors = []
    for gid in ids.tolist():
        if gid not in clip.annotations.instances:
            raise KeyError(f"clip {clip.name!r}: no instance annotation for gt id {gid}")
        vectors.append(store.lookup(compose_instance_description(clip.annotations.instances[gid])))
    instance_vectors = np.stack(vectors)
    scene_embedding = store.lookup(compose_scene_description(clip.annotations.scene))
    levels: list[_LevelBundle] = []
    for graph, _ in run_levels(lift_detections(dets), int(dets.frames[-1]), cfg.level_sizes,
                               cfg.knn_k, _merge_by_identity):
        gt_ids = dets.gt[graph.nodes.firsts]  # teacher-forced nodes are pure
        targets = instance_vectors[np.searchsorted(ids, gt_ids)]
        levels.append(_LevelBundle(graph, edge_labels(graph, gt_ids), targets))
    return ClipBundle(clip.name, dets.app, levels, scene_embedding)


def train_step(
    bundles: Sequence[ClipBundle],
    params: ModelParams,
    opt: AdamState,
    cfg: TrainConfig,
) -> dict[str, float]:
    """One optimizer step on a batch of prepared clips.

    Returns the loss components (lc, isg, spg, total) as floats.
    """
    if not bundles:
        raise ValueError("empty batch")
    params.zero_grad()
    weights = (
        GuidanceConfig(cfg.alpha, cfg.beta) if cfg.guidance_enabled else GuidanceConfig(0.0, 0.0)
    )
    lc_terms: list[Tensor] = []
    isg_terms: list[Tensor] = []
    spg_terms: list[Tensor] = []
    for bundle in bundles:
        enc = mlp_forward(params.node_encoder, as_tensor(bundle.appearance))
        for level in bundle.levels:
            phi = node_means(enc, level.graph.nodes)
            h, e = encode_graph(level.graph, params, node_init=phi)
            if weights.alpha > 0.0:
                term = isg_loss(project_nodes_for_isg(h, params), level.instance_targets)
                isg_terms.append(term.value)
            if level.graph.num_edges == 0:
                continue
            e = message_pass(level.graph, h, e, params, cfg.message_passing_steps)
            probs = classify_edges(e, params)
            lc_terms.append(focal_bce_tape(probs, level.labels, cfg.focal_gamma))
            if weights.beta > 0.0:
                term = spg_loss(project_edges_for_spg(e, params), bundle.scene_embedding)
                spg_terms.append(term.value)
    if not lc_terms:
        raise ValueError("batch produced no classifiable edges")
    inv_count = 1.0 / len(bundles)
    lc, isg, spg = (
        reduce(operator.add, terms) * inv_count if terms else Tensor(0.0)
        for terms in (lc_terms, isg_terms, spg_terms)
    )
    total = total_loss(lc, isg, spg, weights)
    total.backward()
    adam_step(params.named_tensors(), opt)
    return {"lc": lc.item(), "isg": isg.item(), "spg": spg.item(), "total": total.item()}


def run_training(
    clips: Sequence[ClipData],
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    store: LanguageEmbeddingStore | None,
) -> tuple[ModelParams, list[dict[str, float]]]:
    """Full training run: shuffled batches, one Adam step per batch.

    The store may be None only when guidance is off.  ``cfg`` and
    ``model_cfg`` must agree on the message-passing step count, because
    training reads it from the former and tracking from the latter.
    """
    bundles = _prepare_clips(clips, cfg, model_cfg, store)
    return _train_on_bundles(bundles, cfg, model_cfg)


def _prepare_clips(
    clips: Sequence[ClipData],
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    store: LanguageEmbeddingStore | None,
) -> list[ClipBundle]:
    """Check a run's settings, then prepare its clips."""
    if cfg.message_passing_steps != model_cfg.message_passing_steps:
        raise ValueError(
            f"TrainConfig has {cfg.message_passing_steps} message-passing steps, "
            f"ModelConfig {model_cfg.message_passing_steps}"
        )
    if cfg.use_guidance and store is None:
        raise ValueError("guidance requires an embedding store")
    if store is None:
        # labels and graphs never need text; reuse a placeholder-free path
        store = _ZeroStore(model_cfg.text_dim)
    return [prepare_clip(c, cfg, store) for c in clips]


def _train_on_bundles(
    bundles: Sequence[ClipBundle],
    cfg: TrainConfig,
    model_cfg: ModelConfig,
) -> tuple[ModelParams, list[dict[str, float]]]:
    """The training loop of :func:`run_training` on prepared clips.  Bundles
    depend only on the clips, the store, ``level_sizes`` and ``knn_k``, and
    training leaves them unchanged, so runs that share those share bundles."""
    rng = np.random.default_rng(cfg.seed)
    params = init_model(rng, model_cfg)
    opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    history: list[dict[str, float]] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(bundles))
        for start in range(0, len(bundles), cfg.batch_clips):
            batch = [bundles[int(i)] for i in order[start:start + cfg.batch_clips]]
            history.append(train_step(batch, params, opt, cfg))
    return params, history


class _ZeroStore:
    """Stands in for the embedding store when guidance is disabled."""

    def __init__(self, dim: int):
        self._dim = dim

    def lookup(self, description: str) -> np.ndarray:
        return np.zeros(self._dim)


@dataclass
class ExperimentSpec:
    """Data and protocol for one baseline-vs-guided comparison."""

    train_clips: list[ClipData]
    eval_in_domain: list[ClipData]
    eval_cross_domain: list[ClipData]
    store: LanguageEmbeddingStore
    seeds: tuple[int, ...] = (0,)
    include_baseline: bool = True

    def __post_init__(self):
        train_names = {c.name for c in self.train_clips}
        if len(train_names) != len(self.train_clips):
            raise ValueError("duplicate training clip names")
        for group in (self.eval_in_domain, self.eval_cross_domain):
            overlap = train_names & {c.name for c in group}
            if overlap:
                raise ValueError(f"train and eval sequences overlap: {sorted(overlap)}")
        if not self.seeds:
            raise ValueError("at least one seed required")


def _gt_records(detections: Sequence[Detection]) -> list[BoxRecord]:
    return [BoxRecord(d.frame, d.gt_id, tuple(d.box)) for d in detections]


def _evaluate_arm(
    params: ModelParams,
    sequences: Sequence[ClipData],
    tracker_cfg: TrackerConfig,
) -> MetricReport:
    pooled = {}
    for clip in sequences:
        result = track_video(clip.detections, params, tracker_cfg)
        pooled[clip.name] = (_gt_records(clip.detections), records_from_result(result))
    return evaluate_sequences(pooled)


def run_experiment(
    spec: ExperimentSpec,
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    out_dir: str | Path | None = None,
) -> dict[int, dict[str, dict[str, MetricReport]]]:
    """Train both arms per seed and evaluate in- and cross-domain.

    Returns results[seed][arm][domain]; arms are "guided" and (when
    requested) "baseline", domains are "in_domain" and "cross_domain".
    Writes checkpoints, per-run reports, and comparison tables when an
    output directory is given.
    """
    tracker_cfg = TrackerConfig(list(cfg.level_sizes), cfg.knn_k, cfg.threshold)
    arms = [("guided", cfg.alpha, cfg.beta)]
    if spec.include_baseline:
        arms.insert(0, ("baseline", 0.0, 0.0))
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    # every seed and arm trains on the same bundles: runs differ only in the
    # seed and the guidance weights, which prepare_clip does not read
    bundles = _prepare_clips(spec.train_clips, cfg, model_cfg, spec.store)
    results: dict[int, dict[str, dict[str, MetricReport]]] = {}
    for seed in spec.seeds:
        results[seed] = {}
        for arm_name, alpha, beta in arms:
            arm_cfg = replace(cfg, alpha=alpha, beta=beta, seed=seed)
            params, _ = _train_on_bundles(bundles, arm_cfg, model_cfg)
            reports = {
                "in_domain": _evaluate_arm(params, spec.eval_in_domain, tracker_cfg),
                "cross_domain": _evaluate_arm(params, spec.eval_cross_domain, tracker_cfg),
            }
            results[seed][arm_name] = reports
            if out is not None:
                save_checkpoint(
                    out / f"checkpoint_seed{seed}_{arm_name}.json",
                    params.named_tensors(),
                    {"model": model_cfg.to_dict(), "seed": seed, "arm": arm_name},
                )
                for domain, report in reports.items():
                    path = out / f"report_seed{seed}_{arm_name}_{domain}.txt"
                    path.write_text(render_report(report))
    if out is not None:
        table = {
            f"{arm}-{domain}-seed{seed}": results[seed][arm][domain]
            for seed in spec.seeds
            for arm in results[seed]
            for domain in ("in_domain", "cross_domain")
        }
        (out / "comparison.txt").write_text(render_table(table))
        (out / "comparison.csv").write_text(_comparison_csv(results, spec))
    return results


def _comparison_csv(
    results: dict[int, dict[str, dict[str, MetricReport]]],
    spec: ExperimentSpec,
) -> str:
    lines = ["arm,domain,seed," + ",".join(_COMPARISON_METRICS)]
    for seed in spec.seeds:
        for arm in sorted(results[seed]):
            for domain in ("in_domain", "cross_domain"):
                report = results[seed][arm][domain]
                values = ",".join(repr(getattr(report, c)) for c in _COMPARISON_METRICS)
                lines.append(f"{arm},{domain},{seed},{values}")
    return "\n".join(lines) + "\n"
