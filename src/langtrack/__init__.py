"""Language-guided graph tracker.

Multi-object tracking as hierarchical edge classification on tracklet
graphs, with optional distillation of text-derived instance and scene
embeddings into the association model at training time.  Inference never
touches language.
"""

from .config import RunConfig, apply_overrides, config_digest, load_config, save_config
from .graph import Detection, TrackGraph, Tracklet, build_graph
from .guidance import (
    GuidanceConfig,
    LanguageEmbeddingStore,
    isg_loss,
    language_access_forbidden,
    spg_loss,
    total_loss,
)
from .inference import TrackerConfig, TrackResult, gt_oracle_scorer, round_edges, track_video
from .metrics import BoxRecord, MetricReport, evaluate, evaluate_sequences
from .model import ModelConfig, ModelParams, init_model
from .synth import (
    SynthConfig,
    apply_domain_shift,
    embedding_store_for,
    gen_sequence,
    identity_profile,
    pseudo_text_encoder,
    rotation_profile,
)
from .trainer import ClipData, ExperimentSpec, TrainConfig, run_experiment, run_training

__version__ = "0.1.0"

__all__ = [
    "BoxRecord",
    "ClipData",
    "Detection",
    "ExperimentSpec",
    "GuidanceConfig",
    "LanguageEmbeddingStore",
    "MetricReport",
    "ModelConfig",
    "ModelParams",
    "RunConfig",
    "SynthConfig",
    "TrackGraph",
    "TrackResult",
    "TrackerConfig",
    "Tracklet",
    "TrainConfig",
    "apply_domain_shift",
    "apply_overrides",
    "build_graph",
    "config_digest",
    "embedding_store_for",
    "evaluate",
    "evaluate_sequences",
    "gen_sequence",
    "gt_oracle_scorer",
    "identity_profile",
    "init_model",
    "isg_loss",
    "language_access_forbidden",
    "load_config",
    "pseudo_text_encoder",
    "rotation_profile",
    "round_edges",
    "run_experiment",
    "run_training",
    "save_config",
    "spg_loss",
    "total_loss",
    "track_video",
]
