"""Run configuration: one flat, documented key set for the whole pipeline.

A config file is a JSON object over exactly these keys (all optional,
defaults below): alpha, beta, levels, knn_k, mp_steps, node_dim,
edge_dim, text_dim, lr, weight_decay, epochs, batch_clips, focal_gamma,
threshold, seed, and a string-valued ``paths`` object.  Unknown keys are
rejected.  Each setting is checked by the library config that consumes it
(``TrainConfig``, ``ModelConfig``, ``TrackerConfig``): a ``RunConfig``
builds all three, so it is valid exactly when they are.  The digest is the
sha256 of the canonical JSON rendering, so equal digests mean equal
resolved configurations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .inference import TrackerConfig
from .model import ModelConfig
from .trainer import TrainConfig

__all__ = [
    "RunConfig",
    "load_config",
    "save_config",
    "config_digest",
    "apply_overrides",
]

_SCALAR_TYPES = {"int": int, "float": float}


@dataclass(frozen=True)
class RunConfig:
    """Desk-scale defaults; paper-scale values are plain overrides."""

    alpha: float = 1.0
    beta: float = 1.0
    levels: tuple[int, ...] = (5, 25, 75, 150)
    knn_k: int = 3
    mp_steps: int = 2
    node_dim: int = 64
    edge_dim: int = 16
    text_dim: int = 32
    lr: float = 2e-3
    weight_decay: float = 1e-4
    epochs: int = 30
    batch_clips: int = 1
    focal_gamma: float = 1.0
    threshold: float = 0.5
    seed: int = 0
    paths: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))
        for key, value in self.paths.items():
            if not isinstance(value, str):
                raise ValueError(f"paths.{key} must be a string")
        self.train_config()
        self.model_config(appearance_dim=1)  # the real dim comes from the data
        self.tracker_config()

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return TrainConfig(
            level_sizes=self.levels,
            batch_clips=self.batch_clips,
            epochs=self.epochs,
            lr=self.lr,
            weight_decay=self.weight_decay,
            focal_gamma=self.focal_gamma,
            alpha=self.alpha,
            beta=self.beta,
            knn_k=self.knn_k,
            message_passing_steps=self.mp_steps,
            threshold=self.threshold,
            seed=self.seed if seed is None else seed,
        )

    def model_config(self, appearance_dim: int) -> ModelConfig:
        return ModelConfig(
            message_passing_steps=self.mp_steps,
            edge_dim=self.edge_dim,
            text_dim=self.text_dim,
            node_dim=self.node_dim,
            appearance_dim=appearance_dim,
        )

    def tracker_config(self) -> TrackerConfig:
        return TrackerConfig(list(self.levels), self.knn_k, self.threshold)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["levels"] = list(self.levels)
        doc["paths"] = dict(sorted(self.paths.items()))
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "paths" in doc and not isinstance(doc["paths"], dict):
            raise ValueError("paths must be an object of string values")
        for f in fields(cls):
            want = _SCALAR_TYPES.get(f.type)
            # type(), not isinstance(): JSON true/false must not pass as an int
            if want and f.name in doc and type(doc[f.name]) not in (int, want):
                raise ValueError(f"{f.name} must be a JSON {f.type}, got {doc[f.name]!r}")
        return cls(**doc)


def load_config(path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return RunConfig.from_dict(doc)


def save_config(path, config: RunConfig) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")


def config_digest(config: RunConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def apply_overrides(config: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``key=value`` scalar overrides (flags never touch levels/paths)."""
    updates = {}
    types = {f.name: _SCALAR_TYPES[f.type] for f in fields(RunConfig) if f.type in _SCALAR_TYPES}
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        if key not in types:
            raise ValueError(f"unknown or non-scalar override key {key!r}")
        try:
            updates[key] = types[key](raw)
        except ValueError:
            raise ValueError(f"override {key}={raw!r} is not a valid {types[key].__name__}") from None
    return replace(config, **updates)
