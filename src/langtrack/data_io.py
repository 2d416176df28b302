"""File formats: MOT text files, language annotations, embedding fixtures.

MOT detections/ground truth/results use the positional comma-separated
layout (frame, id, left, top, width, height, conf, class_id, visibility);
trailing extra fields are ignored on read.  Annotations and embedding
fixtures are versioned JSON documents.  Every writer here round-trips
exactly through its reader: floats are serialized with shortest
round-trip formatting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .graph import Detection
from .guidance import LanguageEmbeddingStore

__all__ = [
    "MotRecord",
    "SceneAttributes",
    "InstanceAttributes",
    "AnnotationSet",
    "read_mot",
    "write_mot",
    "write_result",
    "read_appearance",
    "write_appearance",
    "to_detections",
    "compose_instance_description",
    "compose_scene_description",
    "read_annotations",
    "write_annotations",
    "read_embedding_fixture",
    "write_embedding_fixture",
    "VIEWPOINTS",
    "CAMERA_MOTIONS",
]

VIEWPOINTS = ("low", "medium", "high")
CAMERA_MOTIONS = ("static", "moving")


@dataclass(frozen=True)
class MotRecord:
    """One row of a MOT text file."""

    frame: int
    id: int
    left: float
    top: float
    width: float
    height: float
    conf: float
    class_id: int = -1
    visibility: float = -1.0

    def __post_init__(self):
        if not 1 <= self.frame < 1 << 63:
            raise ValueError(f"frame must lie in [1, 2**63), got {self.frame}")
        if not -(1 << 63) <= self.id < 1 << 63:
            raise ValueError(f"id must lie in [-2**63, 2**63), got {self.id}")
        if not (self.visibility == -1.0 or 0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility must be in [0, 1] or -1, got {self.visibility}")

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (self.left, self.top, self.width, self.height)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def read_mot(path) -> list[MotRecord]:
    """Parse a MOT file positionally, preserving row order.  Box sizes are
    not checked here: a ``Detection`` or a scorer checks them on use."""
    records = []
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 7:
            raise ValueError(f"line {lineno}: expected at least 7 fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            track = int(parts[1])
            left, top, width, height, conf = (float(p) for p in parts[2:7])
            class_id = int(float(parts[7])) if len(parts) > 7 else -1
            visibility = float(parts[8]) if len(parts) > 8 else -1.0
        except (ValueError, OverflowError) as exc:  # OverflowError: an infinite class
            raise ValueError(f"line {lineno}: {exc}") from None
        try:
            records.append(MotRecord(frame, track, left, top, width, height,
                                     conf, class_id, visibility))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return records


def write_mot(path, records: Iterable[MotRecord]) -> None:
    """Write records in the given order with all nine fields."""
    lines = []
    for r in records:
        lines.append(",".join([
            str(r.frame), str(r.id), _fmt(r.left), _fmt(r.top),
            _fmt(r.width), _fmt(r.height), _fmt(r.conf),
            str(r.class_id), _fmt(r.visibility),
        ]))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def write_result(path, result) -> None:
    """Write a TrackResult as result rows sorted by (frame, id)."""
    rows = []
    for track_id, det in result.iter_detections():
        rows.append((det.frame, track_id, det.box, det.confidence))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [
        f"{frame},{tid},{_fmt(box[0])},{_fmt(box[1])},{_fmt(box[2])},{_fmt(box[3])},{_fmt(conf)},-1,-1,-1"
        for frame, tid, box, conf in rows
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


_APPEARANCE_HEADER = "# langtrack-appearance 1 dim="


def write_appearance(path, features: np.ndarray) -> None:
    """Write per-detection appearance rows aligned with a MOT file's rows."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-D feature array, got shape {features.shape}")
    lines = [f"{_APPEARANCE_HEADER}{features.shape[1]}"]
    for row in features:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_appearance(path) -> np.ndarray:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(_APPEARANCE_HEADER):
        raise ValueError("missing appearance header line")
    dim = int(lines[0][len(_APPEARANCE_HEADER):])
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        values = [float(v) for v in line.split(",")]
        if len(values) != dim:
            raise ValueError(f"line {lineno}: expected {dim} values, got {len(values)}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"line {lineno}: appearance values must be finite")
        rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(len(rows), dim)


def to_detections(
    records: Sequence[MotRecord],
    appearance: np.ndarray | None = None,
    use_gt_ids: bool = False,
) -> list[Detection]:
    """Build model-ready detections from MOT rows.

    Appearance rows align positionally with the records; confidences are
    clipped into [0, 1] and absent visibility (-1) becomes fully visible.
    """
    if appearance is not None:
        appearance = np.asarray(appearance, dtype=np.float64)
        if appearance.shape[0] != len(records):
            raise ValueError(
                f"{appearance.shape[0]} appearance rows for {len(records)} records"
            )
    out = []
    for i, r in enumerate(records):
        feat = appearance[i] if appearance is not None else np.zeros(1)
        out.append(Detection(
            frame=r.frame,
            box=r.box,
            appearance=feat,
            confidence=float(min(max(r.conf, 0.0), 1.0)),
            visibility=1.0 if r.visibility == -1.0 else r.visibility,
            gt_id=r.id if use_gt_ids else None,
        ))
    return out


@dataclass(frozen=True)
class SceneAttributes:
    viewpoint: str
    camera: str
    condition: str

    def __post_init__(self):
        if self.viewpoint not in VIEWPOINTS:
            raise ValueError(f"viewpoint must be one of {VIEWPOINTS}, got {self.viewpoint!r}")
        if self.camera not in CAMERA_MOTIONS:
            raise ValueError(f"camera must be one of {CAMERA_MOTIONS}, got {self.camera!r}")
        if not self.condition or not self.condition.strip():
            raise ValueError("condition must be a non-empty string")


@dataclass(frozen=True)
class InstanceAttributes:
    gender: str
    shirt_color: str
    pant_color: str

    def __post_init__(self):
        for name in ("gender", "shirt_color", "pant_color"):
            value = getattr(self, name)
            if not value or not str(value).strip():
                raise ValueError(f"{name} must be a non-empty string")


@dataclass(frozen=True)
class AnnotationSet:
    """One scene record plus per-track instance records for a sequence."""

    scene: SceneAttributes
    instances: dict[int, InstanceAttributes]


def compose_instance_description(attrs: InstanceAttributes) -> str:
    return (
        f"A {attrs.gender} person wearing a {attrs.shirt_color} shirt"
        f" and {attrs.pant_color} pants"
    )


def compose_scene_description(attrs: SceneAttributes) -> str:
    return (
        f"A scene captured by a {attrs.camera} camera"
        f" from a {attrs.viewpoint} viewpoint {attrs.condition}"
    )


_ANNOTATION_FORMAT = "langtrack-annotations"
_FIXTURE_FORMAT = "langtrack-embeddings"


def _reject_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        dup = next(k for k in keys if keys.count(k) > 1)
        raise ValueError(f"duplicate key {dup!r}")
    return dict(pairs)


def write_annotations(path, annotations: AnnotationSet) -> None:
    doc = {
        "format": _ANNOTATION_FORMAT,
        "version": 1,
        "scene": {
            "viewpoint": annotations.scene.viewpoint,
            "camera": annotations.scene.camera,
            "condition": annotations.scene.condition,
        },
        "instances": {
            str(tid): {
                "gender": attrs.gender,
                "shirt_color": attrs.shirt_color,
                "pant_color": attrs.pant_color,
            }
            for tid, attrs in sorted(annotations.instances.items())
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _load_object(path, kind: str) -> dict:
    """The JSON object in ``path``; ValueError if malformed or not an object."""
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {kind}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _strings(record, keys: Sequence[str], what: str) -> list[str]:
    """The string values of ``keys`` in the JSON object ``record``."""
    if not isinstance(record, dict) or not all(isinstance(record.get(k), str) for k in keys):
        raise ValueError(f"{what} must be an object with string fields {', '.join(keys)}")
    return [record[k] for k in keys]


def read_annotations(path) -> AnnotationSet:
    doc = _load_object(path, "annotation file")
    if doc.get("format") != _ANNOTATION_FORMAT:
        raise ValueError(f"not an annotation file: format={doc.get('format')!r}")
    if doc.get("version") != 1:
        raise ValueError(f"unsupported annotation version {doc.get('version')!r}")
    scene_keys = ("viewpoint", "camera", "condition")
    scene = SceneAttributes(*_strings(doc.get("scene"), scene_keys, "scene"))
    records = doc.get("instances", {})
    if not isinstance(records, dict):
        raise ValueError("instances must be an object")
    instances: dict[int, InstanceAttributes] = {}
    for key, attrs in records.items():
        tid = int(key)
        if tid in instances:
            raise ValueError(f"duplicate instance record for track {tid}")
        instances[tid] = InstanceAttributes(
            *_strings(attrs, ("gender", "shirt_color", "pant_color"), f"instance {key}")
        )
    return AnnotationSet(scene, instances)


def write_embedding_fixture(path, store: LanguageEmbeddingStore) -> None:
    entries = {
        desc: [float(v) for v in store.lookup(desc)]
        for desc in store.descriptions()
    }
    doc = {"format": _FIXTURE_FORMAT, "version": 1, "entries": entries}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_embedding_fixture(path) -> LanguageEmbeddingStore:
    doc = _load_object(path, "embedding fixture")
    if doc.get("format") != _FIXTURE_FORMAT:
        raise ValueError(f"not an embedding fixture: format={doc.get('format')!r}")
    if doc.get("version") != 1:
        raise ValueError(f"unsupported fixture version {doc.get('version')!r}")
    entries = doc.get("entries", {})
    if not isinstance(entries, dict) or not all(
        isinstance(vec, list) and all(isinstance(x, (int, float)) for x in vec)
        for vec in entries.values()
    ):
        raise ValueError("fixture entries must map descriptions to arrays of numbers")
    if not entries:
        raise ValueError("embedding fixture has no entries")
    records = {desc: np.array(vec, dtype=np.float64) for desc, vec in entries.items()}
    return LanguageEmbeddingStore(records)
