"""Regenerate the benchmark's committed fixtures in bench/fixtures/.

    python3 bench/make_fixtures.py

Writes ``desk30.checkpoint.json``, the guided desk model both track
workloads load, and ``manifest.json``, which records how it was made (seeds,
training and model config), its sha256, and the final loss of the reference
run behind train_desk's correctness check.  The benchmark refuses to run when
the checkpoint's sha256 differs from the manifest's.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json

import world
from langtrack import run_training
from langtrack.nn import save_checkpoint

CHECKPOINT_SEED = 0
CHECKPOINT_CLIP_SEEDS = tuple(range(1000, 1010))  # the criterion-7/8 training corpus
CHECKPOINT_OBJECTS = 8
CHECKPOINT_FRAMES = 150
CHECKPOINT_EPOCHS = 30


def main() -> None:
    clips = world.make_clips(
        "train", CHECKPOINT_OBJECTS, CHECKPOINT_FRAMES, CHECKPOINT_CLIP_SEEDS
    )
    cfg = world.train_config(CHECKPOINT_EPOCHS, seed=CHECKPOINT_SEED)
    params, history = run_training(clips, cfg, world.MODEL_CFG, world.text_store(clips))
    world.FIXTURES.mkdir(exist_ok=True)
    save_checkpoint(
        world.CHECKPOINT,
        params.named_tensors(),
        {"model": world.MODEL_CFG.to_dict(), "seed": CHECKPOINT_SEED, "arm": "guided"},
    )
    manifest = {
        "checkpoint": {
            "file": world.CHECKPOINT.name,
            "sha256": world.sha256_of(world.CHECKPOINT),
            "seed": CHECKPOINT_SEED,
            "clip_seeds": list(CHECKPOINT_CLIP_SEEDS),
            "objects": CHECKPOINT_OBJECTS,
            "frames": CHECKPOINT_FRAMES,
            "train_config": dataclasses.asdict(cfg),
            "model_config": world.MODEL_CFG.to_dict(),
            "final_loss": history[-1]["total"],
        },
        "reference_run": {
            "clip_seeds": list(world.REFERENCE_CLIP_SEEDS),
            "objects": world.REFERENCE_OBJECTS,
            "epochs": world.REFERENCE_EPOCHS,
            "final_loss": world.reference_final_loss(),
            "rtol": world.REFERENCE_RTOL,
        },
    }
    world.MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(json.dumps(manifest, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
