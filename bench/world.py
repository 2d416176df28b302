"""Shared set-up for the benchmark scripts: the langtrack checkout, the desk
defaults, the synthetic world and the committed checkpoint.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
refuses to go on (exit code 1, no result printed) when that tree does not
provide ``langtrack``: the benchmark always measures the code next to it,
never an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
CHECKPOINT = FIXTURES / "desk30.checkpoint.json"
MANIFEST = FIXTURES / "manifest.json"

sys.path.insert(0, str(SRC))
try:
    import langtrack
except ImportError as exc:
    raise SystemExit(f"bench: cannot import langtrack from {SRC}: {exc}")
if Path(langtrack.__file__).resolve().parent.parent != SRC.resolve():
    raise SystemExit(f"bench: langtrack resolved to {langtrack.__file__}, not under {SRC}")

from langtrack import (  # noqa: E402
    ClipData,
    ModelConfig,
    SynthConfig,
    TrackerConfig,
    TrainConfig,
    embedding_store_for,
    identity_profile,
    run_training,
)
from langtrack import synth  # noqa: E402
from langtrack.data_io import SceneAttributes  # noqa: E402
from langtrack.model import params_from_tensors  # noqa: E402
from langtrack.nn import load_checkpoint  # noqa: E402

# The shipping desk defaults (README, acceptance criteria 7/8).
LEVELS = (5, 25, 75, 150)
KNN_K = 3
MP_STEPS = 2
APPEARANCE_DIM = 64
TEXT_DIM = 32
MODEL_CFG = ModelConfig(
    message_passing_steps=MP_STEPS, edge_dim=16, text_dim=TEXT_DIM, node_dim=64,
    appearance_dim=APPEARANCE_DIM,
)
TRACKER_CFG = TrackerConfig(level_sizes=list(LEVELS), knn_k=KNN_K)
SCENE = SceneAttributes("medium", "static", "on a sunny day")
DOMAIN = identity_profile("source", SCENE, APPEARANCE_DIM)


def train_config(epochs: int, seed: int = 0) -> TrainConfig:
    """Guided desk training: alpha = beta = 1, one clip per Adam step."""
    return TrainConfig(
        level_sizes=LEVELS, batch_clips=1, epochs=epochs, lr=2e-3, knn_k=KNN_K,
        message_passing_steps=MP_STEPS, alpha=1.0, beta=1.0, seed=seed,
    )


def make_clips(prefix: str, num_objects: int, num_frames: int, seeds) -> list[ClipData]:
    """Clips of the criterion-7/8 world: noise 0.08, occlusion 0.2, velocity 10,
    box jitter 0.15.  ``synth.gen_sequence`` is looked up on the module so the
    traced run can time it."""
    clips = []
    for seed in seeds:
        cfg = SynthConfig(
            num_objects=num_objects, num_frames=num_frames, appearance_dim=APPEARANCE_DIM,
            appearance_noise=0.08, occlusion_rate=0.2, velocity_scale=10.0,
            box_jitter=0.15, seed=seed,
        )
        detections, annotations = synth.gen_sequence(cfg, DOMAIN)
        clips.append(ClipData(f"{prefix}{seed}", detections, annotations))
    return clips


def text_store(clips):
    return embedding_store_for([c.annotations for c in clips], TEXT_DIM)


# The reference run behind train_desk's final-loss check: a fixed corpus, so the
# committed loss holds whatever workload seed a run is given.
REFERENCE_CLIP_SEEDS = (7001, 7002)
REFERENCE_OBJECTS = 4
REFERENCE_EPOCHS = 2
# Float-order changes move this loss by ~1e-12; a wrong gradient moves it by >1e-3.
REFERENCE_RTOL = 1e-6


def reference_final_loss() -> float:
    clips = make_clips("ref", REFERENCE_OBJECTS, 150, REFERENCE_CLIP_SEEDS)
    _, history = run_training(
        clips, train_config(REFERENCE_EPOCHS), MODEL_CFG, text_store(clips)
    )
    return history[-1]["total"]


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def load_desk_checkpoint():
    """The committed 30-epoch guided model; refuses a file whose sha256 differs
    from the one ``make_fixtures.py`` recorded."""
    expected = read_manifest()["checkpoint"]["sha256"]
    actual = sha256_of(CHECKPOINT)
    if actual != expected:
        raise SystemExit(
            f"bench: {CHECKPOINT.name} has sha256 {actual}, manifest expects {expected}; "
            "regenerate both with bench/make_fixtures.py"
        )
    tensors, meta = load_checkpoint(CHECKPOINT)
    model_cfg = ModelConfig.from_dict(meta["model"])
    return params_from_tensors(tensors, model_cfg)
