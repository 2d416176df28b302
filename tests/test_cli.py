"""End-to-end command-line flows on small synthetic worlds."""

import argparse
import json
import shutil

import numpy as np
import pytest

from langtrack.cli import build_parser, main
from langtrack.data_io import (
    compose_instance_description,
    read_annotations,
    read_appearance,
    read_embedding_fixture,
    read_mot,
)

SMALL_CONFIG = {
    "levels": [5, 10, 20],
    "knn_k": 3,
    "mp_steps": 2,
    "node_dim": 16,
    "edge_dim": 8,
    "text_dim": 8,
    "epochs": 1,
    "batch_clips": 2,
    "lr": 3e-3,
}

GEN_FLAGS = ["--sequences", "2", "--objects", "2", "--frames", "20", "--appearance-dim", "8"]


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def run(*argv) -> int:
    return main(list(argv))


def gen_data(tmp_path, config_path, name="data", extra=()):
    out = tmp_path / name
    code = run("gen", "--config", config_path, "--out", str(out), *GEN_FLAGS, *extra)
    assert code == 0
    return out


class TestGen:
    def test_writes_all_sequence_files_and_provenance(self, tmp_path, config_path):
        out = gen_data(tmp_path, config_path)
        for name in ("seq00", "seq01"):
            assert (out / f"{name}.gt.txt").exists()
            assert (out / f"{name}.det.txt").exists()
            assert (out / f"{name}.appearance.csv").exists()
            assert (out / f"{name}.annotations.json").exists()
        assert (out / "run.json").exists()
        assert len((out / "digest.txt").read_text().strip()) == 64

    def test_gt_and_det_rows_align_with_sidecar(self, tmp_path, config_path):
        out = gen_data(tmp_path, config_path)
        gt = read_mot(out / "seq00.gt.txt")
        det = read_mot(out / "seq00.det.txt")
        appearance = read_appearance(out / "seq00.appearance.csv")
        assert len(gt) == len(det) == appearance.shape[0]
        assert appearance.shape[1] == 8
        assert all(r.id == -1 for r in det)
        assert all(g.box == d.box and g.frame == d.frame for g, d in zip(gt, det))

    def test_annotations_cover_every_gt_id(self, tmp_path, config_path):
        out = gen_data(tmp_path, config_path)
        gt = read_mot(out / "seq00.gt.txt")
        ann = read_annotations(out / "seq00.annotations.json")
        assert {r.id for r in gt} <= set(ann.instances)

    def test_identical_runs_produce_identical_files(self, tmp_path, config_path):
        out1 = gen_data(tmp_path, config_path, "d1")
        out2 = gen_data(tmp_path, config_path, "d2")
        for path1 in sorted(out1.iterdir()):
            assert path1.read_bytes() == (out2 / path1.name).read_bytes()

    def test_bad_world_flags_rejected(self, tmp_path, config_path, capsys):
        code = run("gen", "--config", config_path, "--out", str(tmp_path / "x"),
                   "--sequences", "0")
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"lerning_rate": 1.0}))
        code = run("gen", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert code == 3
        assert "config error" in capsys.readouterr().err

    def test_out_can_come_from_config_paths(self, tmp_path):
        out = tmp_path / "from_paths"
        cfg = dict(SMALL_CONFIG, paths={"out": str(out)})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run("gen", "--config", str(path), *GEN_FLAGS) == 0
        assert (out / "seq00.gt.txt").exists()

    def test_missing_out_is_usage_error(self, config_path, capsys):
        assert run("gen", "--config", config_path) == 2
        assert "--out" in capsys.readouterr().err


class TestEmbed:
    def test_builds_fixture_covering_descriptions(self, tmp_path, config_path):
        data = gen_data(tmp_path, config_path)
        out = tmp_path / "emb"
        code = run("embed", "--config", config_path, "--out", str(out),
                   str(data / "seq00.annotations.json"), str(data / "seq01.annotations.json"))
        assert code == 0
        store = read_embedding_fixture(out / "embeddings.json")
        assert store.dim == 8
        ann = read_annotations(data / "seq00.annotations.json")
        from langtrack.data_io import compose_scene_description

        assert compose_scene_description(ann.scene) in store

    def test_validate_accepts_own_fixture(self, tmp_path, config_path, capsys):
        data = gen_data(tmp_path, config_path)
        out = tmp_path / "emb"
        ann_files = [str(data / f"seq0{i}.annotations.json") for i in (0, 1)]
        run("embed", "--config", config_path, "--out", str(out), *ann_files)
        code = run("embed", "--config", config_path,
                   "--validate", str(out / "embeddings.json"), *ann_files)
        assert code == 0
        assert "covers all" in capsys.readouterr().out

    def test_validate_rejects_missing_descriptions(self, tmp_path, config_path, capsys):
        data = gen_data(tmp_path, config_path)
        out = tmp_path / "emb"
        run("embed", "--config", config_path, "--out", str(out),
            str(data / "seq00.annotations.json"))
        other = gen_data(tmp_path, config_path, "other", extra=["--set", "seed=9"])
        code = run("embed", "--config", config_path,
                   "--validate", str(out / "embeddings.json"),
                   str(other / "seq01.annotations.json"))
        err = capsys.readouterr().err
        if code == 0:  # same attribute draw is possible; force a dim mismatch instead
            code = run("embed", "--config", config_path, "--dim", "16",
                       "--validate", str(out / "embeddings.json"),
                       str(data / "seq00.annotations.json"))
            err = capsys.readouterr().err
        assert code == 4
        assert "input error" in err

    def test_missing_annotation_file_is_input_error(self, tmp_path, config_path, capsys):
        code = run("embed", "--config", config_path, "--out", str(tmp_path / "e"),
                   str(tmp_path / "nope.json"))
        assert code == 4
        assert "input error" in capsys.readouterr().err


def train_pipeline(tmp_path, config_path):
    data = gen_data(tmp_path, config_path)
    emb = tmp_path / "emb"
    ann_files = [str(data / f"seq0{i}.annotations.json") for i in (0, 1)]
    assert run("embed", "--config", config_path, "--out", str(emb), *ann_files) == 0
    ckpt_dir = tmp_path / "ckpt"
    code = run("train", "--config", config_path, "--data", str(data),
               "--fixture", str(emb / "embeddings.json"), "--out", str(ckpt_dir))
    assert code == 0
    return data, ckpt_dir / "checkpoint.json"


class TestTrain:
    def test_writes_checkpoint_and_history(self, tmp_path, config_path):
        _, ckpt = train_pipeline(tmp_path, config_path)
        assert ckpt.exists()
        history = (ckpt.parent / "history.csv").read_text().splitlines()
        assert history[0] == "step,lc,isg,spg,total"
        assert len(history) == 2  # 2 clips, batch 2, 1 epoch
        assert (ckpt.parent / "run.json").exists()

    def test_guidance_without_fixture_is_usage_error(self, tmp_path, config_path, capsys):
        data = gen_data(tmp_path, config_path)
        code = run("train", "--config", config_path, "--data", str(data),
                   "--out", str(tmp_path / "ckpt"))
        assert code == 2
        assert "fixture" in capsys.readouterr().err

    def test_zero_weights_train_without_fixture(self, tmp_path, config_path):
        data = gen_data(tmp_path, config_path)
        code = run("train", "--config", config_path, "--set", "alpha=0", "--set", "beta=0",
                   "--data", str(data), "--out", str(tmp_path / "ckpt"))
        assert code == 0

    def test_missing_data_dir_is_input_error(self, tmp_path, config_path, capsys):
        code = run("train", "--config", config_path, "--data", str(tmp_path / "nope"),
                   "--set", "alpha=0", "--set", "beta=0", "--out", str(tmp_path / "c"))
        assert code == 4
        assert "input error" in capsys.readouterr().err

    def test_fixture_dim_mismatch_rejected(self, tmp_path, config_path, capsys):
        data = gen_data(tmp_path, config_path)
        emb = tmp_path / "emb"
        run("embed", "--config", config_path, "--dim", "4", "--out", str(emb),
            str(data / "seq00.annotations.json"), str(data / "seq01.annotations.json"))
        code = run("train", "--config", config_path, "--data", str(data),
                   "--fixture", str(emb / "embeddings.json"), "--out", str(tmp_path / "c"))
        assert code == 4
        assert "text_dim" in capsys.readouterr().err


class TestTrack:
    def test_tracks_detections_to_result_file(self, tmp_path, config_path):
        data, ckpt = train_pipeline(tmp_path, config_path)
        out = tmp_path / "tracked"
        code = run("track", "--config", config_path, "--checkpoint", str(ckpt),
                   "--detections", str(data / "seq00.det.txt"), "--out", str(out))
        assert code == 0
        rows = read_mot(out / "result.txt")
        gt_rows = read_mot(data / "seq00.gt.txt")
        assert {r.frame for r in rows} == {r.frame for r in gt_rows}
        assert all(r.id >= 1 for r in rows)

    def test_fixture_flag_is_usage_error(self, tmp_path, config_path, capsys):
        data, ckpt = train_pipeline(tmp_path, config_path)
        code = run("track", "--config", config_path, "--checkpoint", str(ckpt),
                   "--detections", str(data / "seq00.det.txt"),
                   "--out", str(tmp_path / "t"), "--fixture", "anything.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "language" in err

    def test_missing_checkpoint_is_input_error(self, tmp_path, config_path, capsys):
        data = gen_data(tmp_path, config_path)
        code = run("track", "--config", config_path,
                   "--checkpoint", str(tmp_path / "nope.json"),
                   "--detections", str(data / "seq00.det.txt"), "--out", str(tmp_path / "t"))
        assert code == 4
        assert "input error" in capsys.readouterr().err

    def test_appearance_dim_mismatch_rejected(self, tmp_path, config_path, capsys):
        data, ckpt = train_pipeline(tmp_path, config_path)
        other = tmp_path / "wide"
        run("gen", "--config", config_path, "--out", str(other), "--sequences", "1",
            "--objects", "2", "--frames", "20", "--appearance-dim", "16")
        code = run("track", "--config", config_path, "--checkpoint", str(ckpt),
                   "--detections", str(other / "seq00.det.txt"), "--out", str(tmp_path / "t"))
        assert code == 4
        assert "dimension" in capsys.readouterr().err


class TestEval:
    def test_identical_files_score_perfectly(self, tmp_path, config_path, capsys):
        data = gen_data(tmp_path, config_path)
        out = tmp_path / "scores"
        code = run("eval", "--gt", str(data / "seq00.gt.txt"),
                   "--result", str(data / "seq00.gt.txt"), "--out", str(out))
        assert code == 0
        report = dict(
            line.split("=", 1)
            for line in (out / "report.txt").read_text().splitlines()
            if "=" in line
        )
        assert float(report["mota"]) == 1.0
        assert float(report["idf1"]) == 1.0
        assert float(report["hota"]) == 1.0
        assert "mota=" in capsys.readouterr().out

    def test_missing_result_file_is_input_error(self, tmp_path, config_path, capsys):
        data = gen_data(tmp_path, config_path)
        code = run("eval", "--gt", str(data / "seq00.gt.txt"),
                   "--result", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "s"))
        assert code == 4
        assert "input error" in capsys.readouterr().err


EXPERIMENT_FLAGS = [
    "--seeds", "0", "--train-sequences", "2", "--eval-sequences", "1",
    "--objects", "2", "--frames", "20", "--appearance-dim", "8",
]


class TestExperiment:
    def test_smoke_run_produces_finite_metrics(self, tmp_path, config_path):
        out = tmp_path / "exp"
        code = run("experiment", "--config", config_path, "--set", "epochs=0",
                   "--out", str(out), *EXPERIMENT_FLAGS)
        assert code == 0
        summary = (out / "summary.txt").read_text()
        values = [
            float(line.split("=", 1)[1])
            for line in summary.splitlines() if "idf1_mean" in line
        ]
        assert len(values) == 4
        assert all(np.isfinite(v) for v in values)
        assert (out / "comparison.csv").exists()
        assert (out / "run.json").exists()

    def test_reports_are_byte_identical_across_runs(self, tmp_path, config_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            code = run("experiment", "--config", config_path, "--set", "epochs=1",
                       "--out", str(out), *EXPERIMENT_FLAGS)
            assert code == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert any(p.startswith("report_") for p in files)
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_bad_seed_list_is_usage_error(self, tmp_path, config_path, capsys):
        code = run("experiment", "--config", config_path, "--out", str(tmp_path / "e"),
                   "--seeds", "0,zero")
        assert code == 2
        assert "seeds" in capsys.readouterr().err


class TestProvenance:
    def test_run_json_records_resolved_config_and_digest(self, tmp_path, config_path):
        out = gen_data(tmp_path, config_path)
        record = json.loads((out / "run.json").read_text())
        assert record["command"] == "gen"
        assert record["config"]["levels"] == [5, 10, 20]
        assert record["config"]["epochs"] == 1
        assert len(record["config_digest"]) == 64

    @pytest.mark.parametrize("command, flags", [
        ("gen", GEN_FLAGS), ("experiment", ["--set", "epochs=0", *EXPERIMENT_FLAGS]),
    ])
    def test_recorded_arguments_are_the_parsers_flags(self, command, flags, tmp_path,
                                                      config_path):
        out = tmp_path / command
        assert run(command, "--config", config_path, "--out", str(out), *flags) == 0
        record = json.loads((out / "run.json").read_text())
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions}
        assert set(record["arguments"]) == dests - {"help", "config", "set", "out"}
        if command == "experiment":
            assert record["arguments"]["seeds"] == [0]

    def test_scalar_override_lands_in_provenance(self, tmp_path, config_path):
        out = gen_data(tmp_path, config_path, extra=["--set", "seed=5"])
        record = json.loads((out / "run.json").read_text())
        assert record["config"]["seed"] == 5


@pytest.fixture(scope="module")
def trained_world(tmp_path_factory):
    """A trained checkpoint, its data, a NaN appearance sidecar, and a config
    whose levels are not nested multiples."""
    tmp = tmp_path_factory.mktemp("world")
    config = tmp / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    data, ckpt = train_pipeline(tmp, str(config))
    (tmp / "nan.det.txt").write_text((data / "seq00.det.txt").read_text())
    rows = (data / "seq00.appearance.csv").read_text().splitlines()
    rows[1] = "nan," + rows[1].split(",", 1)[1]
    (tmp / "nan.appearance.csv").write_text("\n".join(rows) + "\n")
    det_rows = (data / "seq00.det.txt").read_text().splitlines()
    for name, field, value in (("nan_left", 2, "nan"), ("inf_width", 4, "inf")):
        bad = det_rows[0].split(",")
        bad[field] = value
        (tmp / f"{name}.det.txt").write_text("\n".join([",".join(bad)] + det_rows[1:]) + "\n")
        shutil.copy(data / "seq00.appearance.csv", tmp / f"{name}.appearance.csv")
    (tmp / "levels.json").write_text(json.dumps(dict(SMALL_CONFIG, levels=[5, 7])))
    (tmp / "levels_2_63.json").write_text(json.dumps(dict(SMALL_CONFIG, levels=[5, 5 * 2**61])))
    # seq00's gt rows as detections (with its appearance sidecar), as training
    # data and as eval gt: one row's frame or id past int64, or its frame past
    # the level loop's bound, its width 0 or its class field infinite; and the
    # rows moved to end exactly at that bound
    gt_rows = [r.split(",") for r in (data / "seq00.gt.txt").read_text().splitlines()]
    shift = 2**62 - max(int(r[0]) for r in gt_rows)
    for name, rows in (
        ("frame_2_63", [[str(2**63)] + gt_rows[0][1:]] + gt_rows[1:]),
        ("frame_2_63_less_1", [[str(2**63 - 1)] + gt_rows[0][1:]] + gt_rows[1:]),
        ("id_2_63", [[gt_rows[0][0], str(2**63)] + gt_rows[0][2:]] + gt_rows[1:]),
        ("at_bound", [[str(int(r[0]) + shift)] + r[1:] for r in gt_rows]),
        ("zero_width", [gt_rows[0][:4] + ["0"] + gt_rows[0][5:]] + gt_rows[1:]),
        ("inf_class", [gt_rows[0][:7] + ["inf"] + gt_rows[0][8:]] + gt_rows[1:]),
    ):
        text = "".join(",".join(r) + "\n" for r in rows)
        (tmp / f"{name}.det.txt").write_text(text)
        shutil.copy(data / "seq00.appearance.csv", tmp / f"{name}.appearance.csv")
        (shutil.copytree(data, tmp / f"{name}_data") / "seq00.gt.txt").write_text(text)
    (tmp / "typed.json").write_text(json.dumps(dict(SMALL_CONFIG, lr="fast")))
    annotations = json.loads((data / "seq00.annotations.json").read_text())
    del annotations["scene"]
    for name, text in (("malformed", "{not json"), ("sceneless", json.dumps(annotations))):
        shutil.copytree(data, tmp / f"{name}_data")
        (tmp / f"{name}_data" / "seq00.annotations.json").write_text(text)
    (tmp / "sceneless.annotations.json").write_text(json.dumps(annotations))
    # a gt id without an instance record, and one gt row (with its appearance
    # row) given twice
    unknown = shutil.copytree(data, tmp / "unknown_id_data")
    records = json.loads((data / "seq00.annotations.json").read_text())
    del records["instances"][min(records["instances"], key=int)]
    (unknown / "seq00.annotations.json").write_text(json.dumps(records))
    twice = shutil.copytree(data, tmp / "twice_in_frame_data")
    for suffix in ("gt.txt", "appearance.csv"):
        lines = (data / f"seq00.{suffix}").read_text().splitlines()
        (twice / f"seq00.{suffix}").write_text("\n".join(lines + lines[-1:]) + "\n")
    (tmp / "array.annotations.json").write_text("[1, 2]")
    fixture = json.loads((tmp / "emb" / "embeddings.json").read_text())
    instance = read_annotations(data / "seq00.annotations.json").instances
    short = dict(fixture, entries=dict(fixture["entries"]))
    del short["entries"][compose_instance_description(instance[min(instance)])]
    (tmp / "short_fixture.json").write_text(json.dumps(short))
    fixture["entries"] = list(fixture["entries"].values())
    (tmp / "list_entries.json").write_text(json.dumps(fixture))
    checkpoint = json.loads(ckpt.read_text())
    checkpoint["config"]["model"]["edge_dim"] = float(checkpoint["config"]["model"]["edge_dim"])
    (tmp / "float_edge_dim.json").write_text(json.dumps(checkpoint))
    checkpoint = json.loads(ckpt.read_text())
    del checkpoint["tensors"][sorted(checkpoint["tensors"])[0]]
    (tmp / "one_tensor_short.json").write_text(json.dumps(checkpoint))
    del checkpoint["tensors"]
    (tmp / "no_tensors.json").write_text(json.dumps(checkpoint))
    (tmp / "a_file").write_text("not a directory\n")
    return {
        "config": str(config), "data": str(data), "ckpt": str(ckpt), "tmp": tmp,
        "fixture": str(tmp / "emb" / "embeddings.json"),
        "det": str(data / "seq00.det.txt"), "nan_det": str(tmp / "nan.det.txt"),
    }


def _track(w, detections, checkpoint=None):
    return ["track", "--checkpoint", checkpoint or w["ckpt"], "--detections", detections]


def _train(w, data=None, fixture=None):
    return ["train", "--data", data or w["data"], "--fixture", fixture or w["fixture"]]


def _embed(w, annotations):
    return ["embed", "--config", w["config"], str(w["tmp"] / annotations)]


def _gen(w, *flags):
    return ["gen", "--config", w["config"], *GEN_FLAGS, *flags]


def _experiment(w, *flags):
    return ["experiment", "--config", w["config"], *EXPERIMENT_FLAGS, *flags]


def _eval(w, *flags, gt=None, result=None):
    gt = gt or str(w["tmp"] / "data" / "seq00.gt.txt")
    return ["eval", "--gt", gt, "--result", result or gt, *flags]


# name -> (argv, expected exit code, message prefix); "--out" follows the
# argv unless it names one
BAD_INPUTS = {
    "track threshold=0": (
        lambda w: _track(w, w["det"]) + ["--config", w["config"], "--set", "threshold=0"],
        3, "config error"),
    "experiment threshold=0": (
        lambda w: _experiment(w, "--set", "threshold=0"), 3, "config error"),
    "train levels [5,7]": (
        lambda w: _train(w) + ["--config", str(w["tmp"] / "levels.json")], 3, "config error"),
    "train alpha=nan": (
        lambda w: _train(w) + ["--config", w["config"], "--set", "alpha=nan"], 3, "config error"),
    "train lr=nan": (
        lambda w: _train(w) + ["--config", w["config"], "--set", "lr=nan"], 3, "config error"),
    "train lr of the wrong JSON type": (
        lambda w: _train(w) + ["--config", str(w["tmp"] / "typed.json")], 3, "config error"),
    "track NaN sidecar": (
        lambda w: _track(w, w["nan_det"]) + ["--config", w["config"]], 4, "input error"),
    "track NaN box left": (
        lambda w: _track(w, str(w["tmp"] / "nan_left.det.txt")) + ["--config", w["config"]],
        4, "input error"),
    "track infinite box width": (
        lambda w: _track(w, str(w["tmp"] / "inf_width.det.txt")) + ["--config", w["config"]],
        4, "input error"),
    "gen appearance-dim 0": (lambda w: _gen(w, "--appearance-dim", "0"), 2, "usage error"),
    "gen appearance-noise nan": (
        lambda w: _gen(w, "--appearance-noise", "nan"), 2, "usage error"),
    "gen rotation-degrees inf": (
        lambda w: _gen(w, "--rotation-degrees", "inf"), 2, "usage error"),
    "gen velocity-scale -1": (lambda w: _gen(w, "--velocity-scale", "-1"), 2, "usage error"),
    "experiment appearance-dim 0": (
        lambda w: _experiment(w, "--appearance-dim", "0"), 2, "usage error"),
    "experiment objects 0": (lambda w: _experiment(w, "--objects", "0"), 2, "usage error"),
    "experiment negative seed": (lambda w: _experiment(w, "--seeds=1,-1"), 2, "usage error"),
    "gen seed=-1": (lambda w: _gen(w, "--set", "seed=-1"), 3, "config error"),
    "eval iou-threshold 2": (lambda w: _eval(w, "--iou-threshold", "2"), 2, "usage error"),
    "eval iou-threshold 0": (lambda w: _eval(w, "--iou-threshold", "0"), 2, "usage error"),
    "train malformed annotations": (
        lambda w: _train(w, data=str(w["tmp"] / "malformed_data")) + ["--config", w["config"]],
        4, "input error"),
    "train annotations without scene": (
        lambda w: _train(w, data=str(w["tmp"] / "sceneless_data")) + ["--config", w["config"]],
        4, "input error"),
    "embed annotations without scene": (
        lambda w: _embed(w, "sceneless.annotations.json"), 4, "input error"),
    "embed annotations holding an array": (
        lambda w: _embed(w, "array.annotations.json"), 4, "input error"),
    "train gt id without instance record": (
        lambda w: _train(w, data=str(w["tmp"] / "unknown_id_data")) + ["--config", w["config"]],
        4, "input error: sequence seq00"),
    "train gt id twice in a frame": (
        lambda w: _train(w, data=str(w["tmp"] / "twice_in_frame_data"))
        + ["--config", w["config"]],
        4, "input error: sequence seq00"),
    "train fixture missing a description": (
        lambda w: _train(w, fixture=str(w["tmp"] / "short_fixture.json"))
        + ["--config", w["config"]],
        4, "input error: sequence seq00"),
    "train fixture entries a list": (
        lambda w: _train(w, fixture=str(w["tmp"] / "list_entries.json"))
        + ["--config", w["config"]],
        4, "input error"),
    "track checkpoint missing a tensor": (
        lambda w: _track(w, w["det"], str(w["tmp"] / "one_tensor_short.json"))
        + ["--config", w["config"]],
        4, "input error"),
    "track checkpoint without tensors": (
        lambda w: _track(w, w["det"], str(w["tmp"] / "no_tensors.json"))
        + ["--config", w["config"]],
        4, "input error"),
    "track checkpoint with a float edge_dim": (
        lambda w: _track(w, w["det"], str(w["tmp"] / "float_edge_dim.json"))
        + ["--config", w["config"]],
        4, "input error"),
    "train zero-width gt row": (
        lambda w: _train(w, data=str(w["tmp"] / "zero_width_data")) + ["--config", w["config"]],
        4, "input error: sequence seq00"),
    "eval zero-width gt row": (
        lambda w: _eval(w, gt=str(w["tmp"] / "zero_width.det.txt"),
                        result=str(w["tmp"] / "data" / "seq00.gt.txt")),
        4, "input error: gt"),
    "eval zero-width result row": (
        lambda w: _eval(w, gt=str(w["tmp"] / "data" / "seq00.gt.txt"),
                        result=str(w["tmp"] / "zero_width.det.txt")),
        4, "input error: result"),
    "eval result with an infinite class": (
        lambda w: _eval(w, result=str(w["tmp"] / "inf_class.det.txt")),
        4, "input error"),
    "eval gt a directory": (lambda w: _eval(w, gt=str(w["tmp"])), 4, "input error"),
    "eval config a directory": (
        lambda w: _eval(w, "--config", str(w["tmp"])), 3, "config error"),
    "gen out a file": (lambda w: _gen(w, "--out", str(w["tmp"] / "a_file")), 2, "usage error"),
    "gen out under a file": (
        lambda w: _gen(w, "--out", str(w["tmp"] / "a_file" / "sub")), 2, "usage error"),
    "eval out a file": (lambda w: _eval(w, "--out", str(w["tmp"] / "a_file")), 2, "usage error"),
}


# name -> (argv, expected exit code, the bound the message names): values the
# int64 level arithmetic cannot hold
INT64_INPUTS = {
    "track frame 2**63": (
        lambda w: _track(w, str(w["tmp"] / "frame_2_63.det.txt")) + ["--config", w["config"]],
        4, "2**63"),
    "train frame 2**63": (
        lambda w: _train(w, data=str(w["tmp"] / "frame_2_63_data")) + ["--config", w["config"]],
        4, "2**63"),
    "eval gt frame 2**63": (lambda w: _eval(w, gt=str(w["tmp"] / "frame_2_63.det.txt")),
                            4, "2**63"),
    "eval gt id 2**63": (lambda w: _eval(w, gt=str(w["tmp"] / "id_2_63.det.txt")), 4, "2**63"),
    "train gt id 2**63": (
        lambda w: _train(w, data=str(w["tmp"] / "id_2_63_data")) + ["--config", w["config"]],
        4, "2**63"),
    "eval result id 2**63": (
        lambda w: ["eval", "--gt", str(w["tmp"] / "data" / "seq00.gt.txt"),
                   "--result", str(w["tmp"] / "id_2_63.det.txt")],
        4, "2**63"),
    "track frame 2**63 - 1": (
        lambda w: _track(w, str(w["tmp"] / "frame_2_63_less_1.det.txt"))
        + ["--config", w["config"]],
        4, "2**62"),
    "train frame 2**63 - 1": (
        lambda w: _train(w, data=str(w["tmp"] / "frame_2_63_less_1_data"))
        + ["--config", w["config"]],
        4, "2**62"),
    "track levels past 2**62": (
        lambda w: _track(w, w["det"]) + ["--config", str(w["tmp"] / "levels_2_63.json")],
        3, "2**62"),
}


@pytest.mark.parametrize("name", list(INT64_INPUTS))
def test_values_past_the_int64_bounds_exit_with_the_bound(name, trained_world, tmp_path, capsys):
    argv, code, bound = INT64_INPUTS[name]
    argv = argv(trained_world) + ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert ("config error:" if code == 3 else "input error:") in err
    assert bound in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_clip_ending_at_the_frame_bound_trains_tracks_and_scores(trained_world, tmp_path):
    # its frames run up to 2**62, past which a detection is refused
    w = trained_world
    argv = _train(w, data=str(w["tmp"] / "at_bound_data")) + ["--config", w["config"]]
    assert run(*argv, "--out", str(tmp_path / "train")) == 0
    out = tmp_path / "track"
    argv = _track(w, str(w["tmp"] / "at_bound.det.txt")) + ["--config", w["config"]]
    assert run(*argv, "--out", str(out)) == 0
    result = read_mot(out / "result.txt")
    assert max(r.frame for r in result) == 2**62
    gt = str(w["tmp"] / "at_bound.det.txt")
    assert run("eval", "--gt", gt, "--result", str(out / "result.txt"),
               "--out", str(tmp_path / "eval")) == 0


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_bad_input_exits_with_category_not_traceback(name, trained_world, tmp_path, capsys):
    argv, code, prefix = BAD_INPUTS[name]
    argv = argv(trained_world)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert f"{prefix}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_train_data_naming_a_file_says_not_a_directory(trained_world, tmp_path, capsys):
    data = trained_world["tmp"] / "a_file"
    argv = _train(trained_world, data=str(data)) + ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert run(*argv) == 4
    assert f"input error: data directory {data}: Not a directory" in capsys.readouterr().err
