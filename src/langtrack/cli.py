"""Command-line entry point: gen | embed | train | track | eval | experiment.

Every run resolves one configuration (file plus scalar ``--set key=value``
overrides), writes it with the subcommand arguments to ``run.json`` in the
output directory, and logs the sha256 digest of that record.  Runs with
equal digests produce identical artifacts.  Errors exit nonzero with a
categorized message: usage errors 2, configuration errors 3, input errors 4.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_overrides, config_digest, load_config
from .data_io import (
    CAMERA_MOTIONS,
    VIEWPOINTS,
    MotRecord,
    SceneAttributes,
    compose_instance_description,
    compose_scene_description,
    read_annotations,
    read_appearance,
    read_embedding_fixture,
    read_mot,
    to_detections,
    write_annotations,
    write_appearance,
    write_embedding_fixture,
    write_mot,
    write_result,
)
from .guidance import LanguageEmbeddingStore
from .inference import track_video
from .metrics import BoxRecord, check_iou_threshold, evaluate, render_report
from .model import ModelConfig, ModelParams, params_from_tensors
from .nn import load_checkpoint, save_checkpoint
from .synth import (
    DomainProfile,
    SynthConfig,
    apply_domain_shift,
    embedding_store_for,
    gen_sequence,
    identity_profile,
    rotation_profile,
)
from .trainer import ClipData, ExperimentSpec, run_experiment, run_training

__all__ = ["main"]

USAGE_EXIT = 2
CONFIG_EXIT = 3
INPUT_EXIT = 4


class CliError(Exception):
    """A categorized, user-facing failure."""

    def __init__(self, category: str, message: str, exit_code: int):
        super().__init__(message)
        self.category = category
        self.exit_code = exit_code


def _config_error(message: str) -> CliError:
    return CliError("config error", message, CONFIG_EXIT)


def _input_error(message: str) -> CliError:
    return CliError("input error", message, INPUT_EXIT)


def _usage_error(message: str) -> CliError:
    return CliError("usage error", message, USAGE_EXIT)


def _resolve_config(args) -> RunConfig:
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        return apply_overrides(cfg, args.set or [])
    except OSError as exc:  # missing, a directory, unreadable
        raise _config_error(f"config file {args.config}: {exc.strerror or exc}") from None
    except (TypeError, ValueError) as exc:  # TypeError: a config value of the wrong JSON type
        raise _config_error(str(exc)) from None


def _path_from(args, cfg: RunConfig, flag: str, required: bool = True) -> Path | None:
    """A path flag wins over the same-named ``paths.*`` config entry."""
    value = getattr(args, flag, None) or cfg.paths.get(flag)
    if value is None:
        if required:
            raise _usage_error(f"--{flag} is required (flag or paths.{flag} in the config)")
        return None
    path = Path(value)
    if flag == "out":  # its nearest existing ancestor must be a directory
        existing = next((p for p in (path, *path.parents) if p.exists()), path)
        if not existing.is_dir():
            raise _usage_error(f"--out {path}: {existing} is not a directory")
    return path


def _write_provenance(out_dir: Path, command: str, cfg: RunConfig, arguments: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "command": command,
        "config": cfg.to_dict(),
        "config_digest": config_digest(cfg),
        "arguments": {k: arguments[k] for k in sorted(arguments)},
    }
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    (out_dir / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    (out_dir / "digest.txt").write_text(digest + "\n")
    print(f"resolved config digest: {digest}")


def _parsed_flags(args, **parsed) -> dict:
    """The subcommand's own flags as parsed, ``parsed`` replacing raw values;
    the record holds the config, its overrides and the output elsewhere."""
    skip = {"command", "config", "set", "out", "handler"}
    return {k: v for k, v in vars(args).items() if k not in skip} | parsed


def _read_file(kind: str, path: Path, reader):
    try:
        return reader(path)
    except OSError as exc:  # missing, a directory, unreadable
        raise _input_error(f"{kind} file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise _input_error(f"{kind} file {path}: {exc}") from None


# -- gen ---------------------------------------------------------------


def _scene_from_args(args) -> SceneAttributes:
    try:
        return SceneAttributes(args.viewpoint, args.camera, args.condition)
    except ValueError as exc:
        raise _usage_error(str(exc)) from None


def _world_from_args(
    args, seed: int, shift_label: str, drop_rate: float = 0.0
) -> tuple[SynthConfig, DomainProfile, DomainProfile]:
    """The clip config the world flags describe, the source-domain profile,
    and the rotated profile labelled ``shift_label``; a bad flag is a usage error."""
    scene = _scene_from_args(args)
    dim = args.appearance_dim
    try:
        synth = SynthConfig(
            num_objects=args.objects,
            num_frames=args.frames,
            appearance_dim=dim,
            appearance_noise=args.appearance_noise,
            occlusion_rate=args.occlusion_rate,
            detection_drop_rate=drop_rate,
            velocity_scale=args.velocity_scale,
            box_jitter=args.box_jitter,
            seed=seed,
        )
        shifted = rotation_profile(
            shift_label, scene, dim, args.rotation_degrees,
            translation_scale=args.translation_scale,
        )
    except ValueError as exc:
        raise _usage_error(str(exc)) from None
    return synth, identity_profile("source", scene, dim), shifted


def _sequence_rows(detections) -> tuple[list[MotRecord], list[MotRecord], np.ndarray]:
    ordered = sorted(detections, key=lambda d: (d.frame, d.gt_id))
    gt_rows, det_rows = [], []
    for d in ordered:
        left, top, width, height = d.box
        gt_rows.append(MotRecord(d.frame, d.gt_id, left, top, width, height, 1.0, -1, d.visibility))
        det_rows.append(MotRecord(d.frame, -1, left, top, width, height, d.confidence, -1, d.visibility))
    return gt_rows, det_rows, np.stack([d.appearance for d in ordered])


def cmd_gen(args) -> int:
    cfg = _resolve_config(args)
    out = _path_from(args, cfg, "out")
    if args.sequences < 1:
        raise _usage_error("sequences must be >= 1")
    synth_base, source, shifted = _world_from_args(args, cfg.seed, args.domain, args.drop_rate)
    domain = source if args.rotation_degrees == 0.0 else shifted
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.sequences):
        synth = replace(synth_base, seed=cfg.seed + i)
        detections, annotations = gen_sequence(synth, domain)
        gt_rows, det_rows, appearance = _sequence_rows(detections)
        name = f"{args.prefix}{i:02d}"
        write_mot(out / f"{name}.gt.txt", gt_rows)
        write_mot(out / f"{name}.det.txt", det_rows)
        write_appearance(out / f"{name}.appearance.csv", appearance)
        write_annotations(out / f"{name}.annotations.json", annotations)
    _write_provenance(out, "gen", cfg, _parsed_flags(args))
    print(f"wrote {args.sequences} sequences to {out}")
    return 0


# -- embed -------------------------------------------------------------


def _descriptions_for(annotation_sets) -> list[str]:
    seen: dict[str, None] = {}
    for ann in annotation_sets:
        seen.setdefault(compose_scene_description(ann.scene))
        for tid in sorted(ann.instances):
            seen.setdefault(compose_instance_description(ann.instances[tid]))
    return list(seen)


def _check_coverage(store: LanguageEmbeddingStore, annotation_sets, what: str) -> None:
    missing = [d for d in _descriptions_for(annotation_sets) if d not in store]
    if missing:
        raise _input_error(f"{what} is missing {len(missing)} descriptions, first: {missing[0]!r}")


def cmd_embed(args) -> int:
    cfg = _resolve_config(args)
    annotation_sets = [
        _read_file("annotations", Path(p), read_annotations) for p in args.annotations
    ]
    if not annotation_sets:
        raise _usage_error("at least one annotations file is required")
    dim = args.dim if args.dim is not None else cfg.text_dim
    if dim < 2:
        raise _usage_error(f"embedding dim must be >= 2, got {dim}")
    if args.validate:
        store = _read_file("fixture", Path(args.validate), read_embedding_fixture)
        if store.dim != dim:
            raise _input_error(
                f"fixture dimension {store.dim} does not match expected {dim}"
            )
        _check_coverage(store, annotation_sets, "fixture")
        print(f"fixture {args.validate} covers all {len(store)} descriptions at dim {dim}")
        return 0
    out = _path_from(args, cfg, "out")
    seed = args.seed if args.seed is not None else cfg.seed
    store = embedding_store_for(annotation_sets, dim, master_seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    write_embedding_fixture(out / "embeddings.json", store)
    _write_provenance(out, "embed", cfg, {
        "annotations": [str(p) for p in args.annotations], "dim": dim, "seed": seed,
    })
    print(f"wrote {len(store)} embeddings to {out / 'embeddings.json'}")
    return 0


# -- train -------------------------------------------------------------


def _load_clips(data_dir: Path) -> list[ClipData]:
    if not data_dir.is_dir():
        reason = "Not a directory" if data_dir.exists() else "No such file or directory"
        raise _input_error(f"data directory {data_dir}: {reason}")
    clips = []
    for ann_path in sorted(data_dir.glob("*.annotations.json")):
        name = ann_path.name[: -len(".annotations.json")]
        gt_path = data_dir / f"{name}.gt.txt"
        app_path = data_dir / f"{name}.appearance.csv"
        for required in (gt_path, app_path):
            if not required.exists():
                raise _input_error(f"sequence {name}: missing {required.name}")
        records = _read_file("gt", gt_path, read_mot)
        appearance = _read_file("appearance", app_path, read_appearance)
        try:
            detections = to_detections(records, appearance, use_gt_ids=True)
        except ValueError as exc:
            raise _input_error(f"sequence {name}: {exc}") from None
        annotations = _read_file("annotations", ann_path, read_annotations)
        seen = set()
        for r in records:
            if r.id not in annotations.instances:
                raise _input_error(f"sequence {name}: gt id {r.id} has no instance record")
            if (r.frame, r.id) in seen:
                raise _input_error(f"sequence {name}: gt id {r.id} twice in frame {r.frame}")
            seen.add((r.frame, r.id))
        clips.append(ClipData(name, detections, annotations))
    if not clips:
        raise _input_error(f"no *.annotations.json sequences under {data_dir}")
    return clips


def _appearance_dim_of(clips: list[ClipData]) -> int:
    dims = {d.appearance.size for c in clips for d in c.detections}
    if len(dims) != 1:
        raise _input_error(f"sequences disagree on appearance dimension: {sorted(dims)}")
    return dims.pop()


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    data_dir = _path_from(args, cfg, "data")
    out = _path_from(args, cfg, "out")
    fixture = _path_from(args, cfg, "fixture", required=False)
    clips = _load_clips(data_dir)
    train_cfg = cfg.train_config()
    store = None
    if fixture is not None:
        store = _read_file("fixture", fixture, read_embedding_fixture)
        if store.dim != cfg.text_dim:
            raise _input_error(
                f"fixture dimension {store.dim} does not match text_dim {cfg.text_dim}"
            )
        for clip in clips:
            _check_coverage(store, [clip.annotations], f"sequence {clip.name}: fixture {fixture}")
    elif train_cfg.use_guidance:
        raise _usage_error("training with guidance needs --fixture (or alpha=0 and beta=0)")
    model_cfg = cfg.model_config(_appearance_dim_of(clips))
    params, history = run_training(clips, train_cfg, model_cfg, store)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.json", params.named_tensors(), {
        "model": model_cfg.to_dict(), "config_digest": config_digest(cfg),
    })
    lines = ["step,lc,isg,spg,total"]
    lines += [
        f"{i},{step['lc']!r},{step['isg']!r},{step['spg']!r},{step['total']!r}"
        for i, step in enumerate(history)
    ]
    (out / "history.csv").write_text("\n".join(lines) + "\n")
    _write_provenance(out, "train", cfg, {
        "data": str(data_dir), "fixture": str(fixture) if fixture else None,
    })
    final = history[-1]["total"] if history else float("nan")
    print(f"trained {len(history)} steps on {len(clips)} sequences, final loss {final}")
    return 0


# -- track -------------------------------------------------------------


def cmd_track(args) -> int:
    if args.fixture is not None:
        raise _usage_error("track never reads language embeddings; drop --fixture")
    cfg = _resolve_config(args)
    checkpoint = _path_from(args, cfg, "checkpoint")
    det_path = _path_from(args, cfg, "detections")
    out = _path_from(args, cfg, "out")
    params = _read_file("checkpoint", checkpoint, _load_params)
    model_cfg = params.config
    records = _read_file("detections", det_path, read_mot)
    if not records:
        raise _input_error(f"no detections in {det_path}")
    app_path = Path(args.appearance) if args.appearance else _sidecar_for(det_path)
    appearance = _read_file("appearance", app_path, read_appearance)
    if appearance.shape[1] != model_cfg.appearance_dim:
        raise _input_error(
            f"appearance dimension {appearance.shape[1]} does not match "
            f"the checkpoint's {model_cfg.appearance_dim}"
        )
    try:
        detections = to_detections(records, appearance)
    except ValueError as exc:
        raise _input_error(str(exc)) from None
    result = track_video(detections, params, cfg.tracker_config())
    out.mkdir(parents=True, exist_ok=True)
    write_result(out / "result.txt", result)
    _write_provenance(out, "track", cfg, {
        "checkpoint": str(checkpoint), "detections": str(det_path),
        "appearance": str(app_path),
    })
    print(f"tracked {len(detections)} detections into {result.num_tracks} tracks")
    return 0


def _load_params(path: Path) -> ModelParams:
    tensors, meta = load_checkpoint(path)
    try:
        model_cfg = ModelConfig.from_dict(meta["model"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad model config ({exc!r})") from None
    return params_from_tensors(tensors, model_cfg)


def _sidecar_for(det_path: Path) -> Path:
    name = det_path.name
    if name.endswith(".det.txt"):
        return det_path.with_name(name[: -len(".det.txt")] + ".appearance.csv")
    return det_path.with_suffix(".appearance.csv")


# -- eval --------------------------------------------------------------


def cmd_eval(args) -> int:
    try:
        check_iou_threshold(args.iou_threshold)
    except ValueError as exc:
        raise _usage_error(str(exc)) from None
    cfg = _resolve_config(args)
    gt_path = _path_from(args, cfg, "gt")
    result_path = _path_from(args, cfg, "result")
    out = _path_from(args, cfg, "out")
    gt = [BoxRecord(r.frame, r.id, r.box) for r in _read_file("gt", gt_path, read_mot)]
    pred = [BoxRecord(r.frame, r.id, r.box) for r in _read_file("result", result_path, read_mot)]
    try:
        report = evaluate(gt, pred, iou_threshold=args.iou_threshold)
    except ValueError as exc:
        raise _input_error(str(exc)) from None
    out.mkdir(parents=True, exist_ok=True)
    text = render_report(report)
    (out / "report.txt").write_text(text)
    _write_provenance(out, "eval", cfg, {
        "gt": str(gt_path), "result": str(result_path), "iou_threshold": args.iou_threshold,
    })
    print(text, end="")
    return 0


# -- experiment --------------------------------------------------------


def _parse_seeds(raw: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(s) for s in raw.split(",") if s.strip() != "")
    except ValueError:
        raise _usage_error(f"seeds must be comma-separated integers, got {raw!r}") from None
    if not seeds:
        raise _usage_error("at least one seed is required")
    if min(seeds) < 0:
        raise _usage_error(f"seeds must be >= 0, got {raw!r}")
    if len(set(seeds)) != len(seeds):
        raise _usage_error("seeds must be distinct")
    return seeds


def _experiment_clips(args, cfg: RunConfig) -> tuple[list[ClipData], list[ClipData], list[ClipData], LanguageEmbeddingStore]:
    synth, domain_a, domain_b = _world_from_args(args, 0, "shifted")

    def make(prefix: str, count: int, base_seed: int) -> list[ClipData]:
        clips = []
        for i in range(count):
            detections, annotations = gen_sequence(replace(synth, seed=base_seed + i), domain_a)
            clips.append(ClipData(f"{prefix}{i:02d}", detections, annotations))
        return clips

    base = cfg.seed * 1_000_000
    train = make("train", args.train_sequences, base + 1000)
    eval_in = make("in", args.eval_sequences, base + 2000)
    # the cross-domain split re-expresses the same evaluation sequences in
    # the shifted domain, so the comparison isolates the appearance shift
    eval_cross = [
        ClipData("x" + c.name, apply_domain_shift(c.detections, domain_a, domain_b), c.annotations)
        for c in eval_in
    ]
    store = embedding_store_for([c.annotations for c in train], cfg.text_dim, master_seed=cfg.seed)
    return train, eval_in, eval_cross, store


def _seed_means(results, arm: str, domain: str) -> float:
    values = [results[seed][arm][domain].idf1 for seed in sorted(results)]
    return float(np.mean(values))


def _experiment_summary(results) -> str:
    seeds = sorted(results)
    lines = []
    for domain in ("in_domain", "cross_domain"):
        for arm in ("baseline", "guided"):
            if arm not in results[seeds[0]]:
                continue
            mean = _seed_means(results, arm, domain)
            lines.append(f"{arm}_{domain}_idf1_mean={mean!r}")
    if "baseline" in results[seeds[0]]:
        wins = sum(
            1 for s in seeds
            if results[s]["guided"]["cross_domain"].idf1
            > results[s]["baseline"]["cross_domain"].idf1
        )
        lines.append(f"cross_domain_guided_wins={wins}")
        lines.append(f"cross_domain_seeds={len(seeds)}")
    return "\n".join(lines) + "\n"


def cmd_experiment(args) -> int:
    cfg = _resolve_config(args)
    out = _path_from(args, cfg, "out")
    seeds = _parse_seeds(args.seeds)
    if args.train_sequences < 1 or args.eval_sequences < 1:
        raise _usage_error("train_sequences and eval_sequences must be >= 1")
    train, eval_in, eval_cross, store = _experiment_clips(args, cfg)
    spec = ExperimentSpec(
        train_clips=train,
        eval_in_domain=eval_in,
        eval_cross_domain=eval_cross,
        store=store,
        seeds=seeds,
        include_baseline=not args.skip_baseline,
    )
    results = run_experiment(
        spec, cfg.train_config(), cfg.model_config(args.appearance_dim), out_dir=out
    )
    summary = _experiment_summary(results)
    (out / "summary.txt").write_text(summary)
    _write_provenance(out, "experiment", cfg, _parsed_flags(args, seeds=list(seeds)))
    print(summary, end="")
    return 0


# -- parser ------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (documented key set)")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override one scalar config key (repeatable)",
    )


def _add_scene_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--viewpoint", default="medium", choices=VIEWPOINTS)
    parser.add_argument("--camera", default="static", choices=CAMERA_MOTIONS)
    parser.add_argument("--condition", default="on a sunny day")


def _add_world_flags(parser: argparse.ArgumentParser, objects: int, frames: int, dim: int) -> None:
    parser.add_argument("--objects", type=int, default=objects)
    parser.add_argument("--frames", type=int, default=frames)
    parser.add_argument("--appearance-dim", type=int, default=dim)
    parser.add_argument("--appearance-noise", type=float, default=0.05)
    parser.add_argument("--occlusion-rate", type=float, default=0.0)
    parser.add_argument("--velocity-scale", type=float, default=4.0)
    parser.add_argument("--box-jitter", type=float, default=0.0)
    parser.add_argument("--rotation-degrees", type=float, default=60.0)
    parser.add_argument("--translation-scale", type=float, default=1.5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langtrack",
        description="Language-guided multi-object tracking on synthetic desk-scale data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic sequences with gt and annotations")
    _add_config_flags(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--sequences", type=int, default=1)
    _add_world_flags(p, objects=8, frames=150, dim=64)
    p.add_argument("--drop-rate", type=float, default=0.0)
    p.add_argument("--prefix", default="seq", help="sequence file name prefix")
    p.add_argument("--domain", default="source", help="domain label seeding the shift")
    _add_scene_flags(p)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("embed", help="build or validate a text-embedding fixture")
    _add_config_flags(p)
    p.add_argument("annotations", nargs="+", help="annotation JSON files")
    p.add_argument("--out", help="output directory for embeddings.json")
    p.add_argument("--dim", type=int, help="embedding dimension (default: text_dim)")
    p.add_argument("--seed", type=int, help="encoder seed (default: config seed)")
    p.add_argument("--validate", metavar="FIXTURE", help="check an existing fixture instead")
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("train", help="train the edge classifier")
    _add_config_flags(p)
    p.add_argument("--data", help="directory produced by gen")
    p.add_argument("--fixture", help="embedding fixture from embed")
    p.add_argument("--out", help="output directory")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("track", help="run inference on a detection file")
    _add_config_flags(p)
    p.add_argument("--checkpoint", help="checkpoint from train")
    p.add_argument("--detections", help="MOT detection file")
    p.add_argument("--appearance", help="appearance sidecar (default: derived)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--fixture", help=argparse.SUPPRESS)  # always rejected
    p.set_defaults(handler=cmd_track)

    p = sub.add_parser("eval", help="score a result file against ground truth")
    _add_config_flags(p)
    p.add_argument("--gt", help="ground-truth MOT file")
    p.add_argument("--result", help="tracker result MOT file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--iou-threshold", type=float, default=0.5)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser(
        "experiment",
        help="baseline-vs-guided comparison, in-domain and domain-shifted",
    )
    _add_config_flags(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--train-sequences", type=int, default=10)
    p.add_argument("--eval-sequences", type=int, default=8)
    _add_world_flags(p, objects=8, frames=150, dim=64)
    _add_scene_flags(p)
    p.add_argument("--skip-baseline", action="store_true")
    # world defaults where the appearance shift separates the two arms:
    # box jitter breaks the size-ratio shortcut and occlusion gaps force
    # appearance-based re-identification
    p.set_defaults(
        handler=cmd_experiment,
        appearance_noise=0.08,
        occlusion_rate=0.2,
        velocity_scale=10.0,
        box_jitter=0.15,
        rotation_degrees=45.0,
        translation_scale=2.0,
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"langtrack {args.command}: {exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
