"""Synthetic tracking world with language annotations.

Objects bounce around a 2-D arena under constant velocity plus noise.
Each object draws an attribute tuple (gender, shirt color, pant color);
its appearance is an attribute-conditioned prototype, re-expressed under
a per-domain invertible transform (plane rotations plus a translation),
with fresh Gaussian noise every frame.  Attribute tuples, and therefore
descriptions and text embeddings, never change under a domain shift.
A seeded hash of the description stands in for a frozen text encoder.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .data_io import (
    AnnotationSet,
    InstanceAttributes,
    SceneAttributes,
    compose_instance_description,
    compose_scene_description,
)
from .graph import Detection
from .guidance import LanguageEmbeddingStore

__all__ = [
    "GENDERS",
    "COLORS",
    "SynthConfig",
    "DomainProfile",
    "identity_profile",
    "rotation_profile",
    "attribute_prototype",
    "gen_sequence",
    "apply_domain_shift",
    "pseudo_text_encoder",
    "embedding_store_for",
]

GENDERS = ("male", "female")
COLORS = ("red", "blue", "green", "black", "white", "yellow")

# Prototype mixing: shirt dominates, then pants, then gender.
_SHIRT_W = 1.0
_PANT_W = 0.7
_GENDER_W = 0.5
_INSTANCE_W = 0.3


def _seeded_unit(key: str, dim: int) -> np.ndarray:
    digest = hashlib.sha256(key.encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def pseudo_text_encoder(description: str, dim: int, master_seed: int = 0) -> np.ndarray:
    """Deterministic unit vector standing in for a frozen text encoder."""
    if dim < 2:
        raise ValueError(f"embedding dim must be >= 2, got {dim}")
    return _seeded_unit(f"text:{master_seed}:{description}", dim)


def attribute_prototype(attrs: InstanceAttributes, dim: int) -> np.ndarray:
    """Shared appearance prototype: equal attributes give equal vectors."""
    v = (
        _SHIRT_W * _seeded_unit(f"basis:shirt:{attrs.shirt_color}", dim)
        + _PANT_W * _seeded_unit(f"basis:pant:{attrs.pant_color}", dim)
        + _GENDER_W * _seeded_unit(f"basis:gender:{attrs.gender}", dim)
    )
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class SynthConfig:
    num_objects: int
    num_frames: int
    arena_width: float = 960.0
    arena_height: float = 540.0
    velocity_scale: float = 4.0
    appearance_dim: int = 32
    appearance_noise: float = 0.05
    occlusion_rate: float = 0.0
    detection_drop_rate: float = 0.0
    box_jitter: float = 0.0  # per-frame multiplicative box size noise
    seed: int = 0

    def __post_init__(self):
        for name in (
            "arena_width", "arena_height", "velocity_scale", "appearance_noise",
            "occlusion_rate", "detection_drop_rate", "box_jitter",
        ):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.num_objects < 1:
            raise ValueError(f"num_objects must be >= 1, got {self.num_objects}")
        if self.num_frames < 1:
            raise ValueError(f"num_frames must be >= 1, got {self.num_frames}")
        if self.arena_width <= 0 or self.arena_height <= 0:
            raise ValueError("arena size must be positive")
        if self.appearance_dim < 2:
            raise ValueError(f"appearance_dim must be >= 2, got {self.appearance_dim}")
        if self.appearance_noise < 0 or self.velocity_scale < 0:
            raise ValueError("appearance_noise and velocity_scale must be >= 0")
        for name in ("occlusion_rate", "detection_drop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if not 0.0 <= self.box_jitter <= 0.5:
            raise ValueError(f"box_jitter must be in [0, 0.5], got {self.box_jitter}")


@dataclass(frozen=True, eq=False)
class DomainProfile:
    """Invertible appearance transform plus the scene attribute tuple.

    rotations: plane rotations (i, j, angle in radians) applied in order;
    translation: added afterwards, its length fixes the appearance dim.
    """

    label: str
    scene: SceneAttributes
    rotations: tuple[tuple[int, int, float], ...]
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64).ravel()
        object.__setattr__(self, "translation", t)
        t.flags.writeable = False
        dim = t.size
        if dim < 2:
            raise ValueError(f"appearance dim must be >= 2, got {dim}")
        for i, j, _ in self.rotations:
            if not (0 <= i < dim and 0 <= j < dim) or i == j:
                raise ValueError(f"bad rotation plane ({i}, {j}) for dim {dim}")

    @property
    def dim(self) -> int:
        return self.translation.size

    def _rotate(self, x: np.ndarray, inverse: bool) -> np.ndarray:
        out = x.copy()
        order = reversed(self.rotations) if inverse else self.rotations
        for i, j, theta in order:
            if inverse:
                theta = -theta
            c, s = np.cos(theta), np.sin(theta)
            xi = out[..., i].copy()
            xj = out[..., j].copy()
            out[..., i] = c * xi - s * xj
            out[..., j] = s * xi + c * xj
        return out

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {x.shape[-1]}")
        return self._rotate(x, inverse=False) + self.translation

    def inverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {x.shape[-1]}")
        return self._rotate(x - self.translation, inverse=True)

    def same_transform(self, other: "DomainProfile") -> bool:
        return (
            self.rotations == other.rotations
            and np.array_equal(self.translation, other.translation)
        )


def identity_profile(label: str, scene: SceneAttributes, dim: int) -> DomainProfile:
    return DomainProfile(label, scene, (), np.zeros(dim))


def rotation_profile(
    label: str,
    scene: SceneAttributes,
    dim: int,
    degrees: float,
    translation_scale: float = 0.5,
) -> DomainProfile:
    """Rotate every disjoint coordinate pair by the same angle, then shift.

    The translation direction is a fixed function of the label, so equal
    labels always denote the same transform.
    """
    if not (np.isfinite(degrees) and np.isfinite(translation_scale)):
        raise ValueError(
            f"rotation degrees and translation scale must be finite, got {degrees}"
            f" and {translation_scale}"
        )
    theta = float(np.deg2rad(degrees))
    rotations = tuple((2 * k, 2 * k + 1, theta) for k in range(dim // 2))
    translation = (
        _seeded_unit(f"domain:{label}", dim) * translation_scale
        if translation_scale > 0.0
        else np.zeros(dim)
    )
    return DomainProfile(label, scene, rotations, translation)


def _sample_attributes(rng: np.random.Generator, count: int) -> list[InstanceAttributes]:
    combos = sorted(itertools.product(GENDERS, COLORS, COLORS))
    picks: list[tuple[str, str, str]] = []
    if count <= len(combos):
        order = rng.permutation(len(combos))
        picks = [combos[int(k)] for k in order[:count]]
    else:
        # more objects than distinct tuples: repeats are unavoidable
        picks = [combos[int(k)] for k in rng.integers(0, len(combos), size=count)]
    return [InstanceAttributes(g, s, p) for g, s, p in picks]


def _occluded_frames(
    rng: np.random.Generator, num_frames: int, rate: float
) -> set[int]:
    """Mark whole episodes (3 to 12 frames) until roughly rate*frames hide."""
    target = int(round(rate * num_frames))
    hidden: set[int] = set()
    guard = 0
    while len(hidden) < target and guard < 100:
        guard += 1
        length = int(rng.integers(3, 13))
        start = int(rng.integers(1, num_frames + 1))
        hidden.update(range(start, min(start + length, num_frames + 1)))
    return hidden


def gen_sequence(
    cfg: SynthConfig, domain: DomainProfile
) -> tuple[list[Detection], AnnotationSet]:
    """Generate one sequence of ground-truth detections plus annotations."""
    if domain.dim != cfg.appearance_dim:
        raise ValueError(
            f"domain dim {domain.dim} != appearance dim {cfg.appearance_dim}"
        )
    rng = np.random.default_rng(cfg.seed)
    attrs = _sample_attributes(rng, cfg.num_objects)
    w_arena, h_arena = cfg.arena_width, cfg.arena_height
    objects = []
    for idx in range(cfg.num_objects):
        bw = rng.uniform(0.03, 0.07) * min(w_arena, h_arena)
        bh = bw * rng.uniform(1.6, 2.4)  # person-shaped
        x = rng.uniform(0.0, w_arena - bw)
        y = rng.uniform(0.0, h_arena - bh)
        vel = rng.normal(0.0, cfg.velocity_scale, size=2)
        proto = attribute_prototype(attrs[idx], cfg.appearance_dim)
        instance = rng.normal(size=cfg.appearance_dim)
        base = proto + _INSTANCE_W * instance / np.linalg.norm(instance)
        shifted = domain.transform(base)
        hidden = _occluded_frames(rng, cfg.num_frames, cfg.occlusion_rate)
        objects.append({
            "gt_id": idx + 1, "bw": bw, "bh": bh, "x": x, "y": y,
            "vel": vel, "base": shifted, "hidden": hidden,
        })
    detections: list[Detection] = []
    for frame in range(1, cfg.num_frames + 1):
        for obj in objects:
            if frame > 1:
                step = obj["vel"] + rng.normal(0.0, 0.15 * cfg.velocity_scale, size=2)
                obj["x"] += step[0]
                obj["y"] += step[1]
                for axis, limit in (("x", w_arena - obj["bw"]), ("y", h_arena - obj["bh"])):
                    v_idx = 0 if axis == "x" else 1
                    if obj[axis] < 0.0:
                        obj[axis] = -obj[axis]
                        obj["vel"][v_idx] = -obj["vel"][v_idx]
                    if obj[axis] > limit:
                        obj[axis] = 2.0 * limit - obj[axis]
                        obj["vel"][v_idx] = -obj["vel"][v_idx]
                    obj[axis] = float(min(max(obj[axis], 0.0), limit))
            # noise and jitter draws stay unconditional so the stream layout
            # does not depend on occlusion or drop outcomes
            noise = rng.normal(0.0, cfg.appearance_noise, size=cfg.appearance_dim)
            jitter = rng.uniform(1.0 - cfg.box_jitter, 1.0 + cfg.box_jitter, size=2)
            if frame in obj["hidden"]:
                continue
            if cfg.detection_drop_rate > 0.0 and rng.random() < cfg.detection_drop_rate:
                continue
            bw, bh = obj["bw"] * jitter[0], obj["bh"] * jitter[1]
            detections.append(Detection(
                frame=frame,
                box=(obj["x"] + (obj["bw"] - bw) / 2.0, obj["y"] + (obj["bh"] - bh) / 2.0, bw, bh),
                appearance=obj["base"] + noise,
                confidence=1.0,
                visibility=1.0,
                gt_id=obj["gt_id"],
            ))
    annotations = AnnotationSet(
        scene=domain.scene,
        instances={i + 1: attrs[i] for i in range(cfg.num_objects)},
    )
    return detections, annotations


def apply_domain_shift(
    detections: Sequence[Detection],
    from_domain: DomainProfile,
    to_domain: DomainProfile,
) -> list[Detection]:
    """Re-express appearances under another domain; geometry and ids stay."""
    if from_domain.dim != to_domain.dim:
        raise ValueError(
            f"domain dims differ: {from_domain.dim} vs {to_domain.dim}"
        )
    if detections and detections[0].appearance.size != from_domain.dim:
        raise ValueError(
            f"appearance dim {detections[0].appearance.size} != domain dim {from_domain.dim}"
        )
    if from_domain is to_domain or from_domain.same_transform(to_domain):
        return [replace(d, appearance=d.appearance.copy()) for d in detections]
    return [
        replace(d, appearance=to_domain.transform(from_domain.inverse(d.appearance)))
        for d in detections
    ]


def embedding_store_for(
    annotation_sets: Iterable[AnnotationSet],
    dim: int,
    master_seed: int = 0,
) -> LanguageEmbeddingStore:
    """Pseudo-embeddings for every description the annotations mention."""
    records: dict[str, np.ndarray] = {}
    for ann in annotation_sets:
        scene_desc = compose_scene_description(ann.scene)
        records.setdefault(scene_desc, pseudo_text_encoder(scene_desc, dim, master_seed))
        for attrs in ann.instances.values():
            desc = compose_instance_description(attrs)
            records.setdefault(desc, pseudo_text_encoder(desc, dim, master_seed))
    if not records:
        raise ValueError("no annotations provided")
    return LanguageEmbeddingStore(records)
