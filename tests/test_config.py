"""Config file round trips, digests, and command-line overrides."""

import json
from dataclasses import fields

import pytest

from langtrack.config import (
    RunConfig,
    apply_overrides,
    config_digest,
    load_config,
    save_config,
)
from langtrack.inference import TrackerConfig
from langtrack.model import ModelConfig
from langtrack.trainer import TrainConfig

NAN, INF = float("nan"), float("inf")

# RunConfig key -> the library config fields it feeds.
LIBRARY_FIELDS = {
    "alpha": [(TrainConfig, "alpha")],
    "beta": [(TrainConfig, "beta")],
    "levels": [(TrainConfig, "level_sizes"), (TrackerConfig, "level_sizes")],
    "knn_k": [(TrainConfig, "knn_k"), (TrackerConfig, "knn_k")],
    "mp_steps": [(TrainConfig, "message_passing_steps"), (ModelConfig, "message_passing_steps")],
    "node_dim": [(ModelConfig, "node_dim")],
    "edge_dim": [(ModelConfig, "edge_dim")],
    "text_dim": [(ModelConfig, "text_dim")],
    "lr": [(TrainConfig, "lr")],
    "weight_decay": [(TrainConfig, "weight_decay")],
    "epochs": [(TrainConfig, "epochs")],
    "batch_clips": [(TrainConfig, "batch_clips")],
    "focal_gamma": [(TrainConfig, "focal_gamma")],
    "threshold": [(TrainConfig, "threshold"), (TrackerConfig, "threshold")],
    "seed": [(TrainConfig, "seed")],
}

FLOAT_EDGES = [-1e-9, 0.0, 1e-9, 1.0, NAN, INF, -INF]
INT_EDGES = [-1, 0, 1, 2]
BOUNDARY_VALUES = {
    "alpha": FLOAT_EDGES,
    "beta": FLOAT_EDGES,
    "levels": [(), (0,), (5,), (5, 5), (5, 7), (5, 10), (10, 5), (5, 25, 75, 150)],
    "lr": FLOAT_EDGES,
    "weight_decay": FLOAT_EDGES,
    "focal_gamma": FLOAT_EDGES,
    "threshold": [-1e-9, 0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0, NAN, INF],
    **{key: INT_EDGES for key in (
        "knn_k", "mp_steps", "node_dim", "edge_dim", "text_dim", "epochs", "batch_clips", "seed",
    )},
}


def _raises(build) -> bool:
    try:
        build()
    except ValueError:
        return True
    return False


def _library_raises(key, value) -> bool:
    return any(_raises(lambda: cls(**{name: value})) for cls, name in LIBRARY_FIELDS[key])


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.levels == (5, 25, 75, 150)
        assert cfg.alpha == 1.0 and cfg.beta == 1.0

    def test_levels_coerced_to_int_tuple(self):
        cfg = RunConfig(levels=[2.0, 4.0])
        assert cfg.levels == (2, 4)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -0.1},
        {"beta": -1.0},
        {"levels": ()},
        {"knn_k": 0},
        {"mp_steps": 0},
        {"node_dim": 0},
        {"epochs": -1},
        {"lr": 0.0},
        {"weight_decay": -1e-9},
        {"threshold": 1.0},
        {"focal_gamma": -0.5},
        {"seed": -1},
        {"paths": {"out": 3}},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="momentum"):
            RunConfig.from_dict({"momentum": 0.9})

    @pytest.mark.parametrize("doc", [
        {"epochs": 1.5}, {"knn_k": True}, {"lr": "fast"}, {"seed": None},
    ])
    def test_from_dict_rejects_values_of_the_wrong_type(self, doc):
        with pytest.raises(ValueError, match=next(iter(doc))):
            RunConfig.from_dict(doc)

    def test_from_dict_accepts_an_integer_for_a_float(self):
        assert RunConfig.from_dict({"lr": 1}).lr == 1

    def test_from_dict_partial_fills_defaults(self):
        cfg = RunConfig.from_dict({"alpha": 0.5, "levels": [3, 6]})
        assert cfg.alpha == 0.5
        assert cfg.levels == (3, 6)
        assert cfg.epochs == 30


class TestOneRulePerSetting:
    def test_every_setting_is_mapped(self):
        assert set(LIBRARY_FIELDS) == {f.name for f in fields(RunConfig)} - {"paths"}
        assert set(BOUNDARY_VALUES) == set(LIBRARY_FIELDS)

    @pytest.mark.parametrize("key,value", [
        (key, value) for key, values in BOUNDARY_VALUES.items() for value in values
    ])
    def test_run_config_raises_exactly_when_library_configs_raise(self, key, value):
        assert _raises(lambda: RunConfig(**{key: value})) == _library_raises(key, value)

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0.0}, {"levels": (5, 7)}, {"alpha": NAN}, {"beta": INF},
        {"lr": NAN}, {"weight_decay": INF}, {"focal_gamma": NAN},
    ])
    def test_inputs_that_used_to_slip_through_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_library_configs_carry_the_settings(self):
        cfg = RunConfig(levels=(2, 4), knn_k=5, mp_steps=3, node_dim=8, edge_dim=4,
                        text_dim=6, lr=1e-3, threshold=0.25, seed=9)
        train = cfg.train_config()
        assert (train.level_sizes, train.knn_k, train.message_passing_steps) == ((2, 4), 5, 3)
        assert (train.lr, train.threshold, train.seed) == (1e-3, 0.25, 9)
        assert cfg.train_config(seed=4).seed == 4
        assert cfg.model_config(7) == ModelConfig(
            message_passing_steps=3, edge_dim=4, text_dim=6, node_dim=8, appearance_dim=7
        )
        assert cfg.tracker_config() == TrackerConfig(level_sizes=[2, 4], knn_k=5, threshold=0.25)

    def test_to_dict_keeps_field_order_and_json_types(self):
        doc = RunConfig(levels=(2, 4), paths={"b": "2", "a": "1"}).to_dict()
        assert list(doc) == [f.name for f in fields(RunConfig)]
        assert doc["levels"] == [2, 4]
        assert list(doc["paths"]) == ["a", "b"]


class TestFileRoundTrip:
    def test_save_load_identity(self, tmp_path):
        cfg = RunConfig(alpha=0.25, lr=1e-3, levels=(2, 4, 8), paths={"out": "runs/x"})
        path = tmp_path / "config.json"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_malformed_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            load_config(path)

    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 1.0, "alhpa": 2.0}))
        with pytest.raises(ValueError, match="alhpa"):
            load_config(path)


class TestDigest:
    def test_equal_configs_equal_digests(self):
        assert config_digest(RunConfig(alpha=0.5)) == config_digest(RunConfig(alpha=0.5))

    def test_any_field_change_changes_digest(self):
        base = config_digest(RunConfig())
        assert config_digest(RunConfig(seed=1)) != base
        assert config_digest(RunConfig(levels=(5, 25))) != base
        assert config_digest(RunConfig(paths={"out": "x"})) != base

    def test_digest_survives_file_round_trip(self, tmp_path):
        cfg = RunConfig(lr=3e-3, paths={"b": "2", "a": "1"})
        path = tmp_path / "c.json"
        save_config(path, cfg)
        assert config_digest(load_config(path)) == config_digest(cfg)

    def test_digest_is_hex_sha256(self):
        digest = config_digest(RunConfig())
        assert len(digest) == 64
        int(digest, 16)


class TestOverrides:
    def test_scalar_overrides_typed(self):
        cfg = apply_overrides(RunConfig(), ["alpha=0.5", "epochs=3", "lr=1e-3"])
        assert cfg.alpha == 0.5 and cfg.epochs == 3 and cfg.lr == 1e-3

    def test_overrides_only_touch_named_keys(self):
        cfg = apply_overrides(RunConfig(), ["seed=7"])
        assert cfg.seed == 7
        assert cfg.levels == RunConfig().levels

    @pytest.mark.parametrize("item", ["levels=1,2", "paths.out=x", "nope=1"])
    def test_non_scalar_and_unknown_keys_rejected(self, item):
        with pytest.raises(ValueError):
            apply_overrides(RunConfig(), [item])

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides(RunConfig(), ["alpha"])

    def test_bad_value_type_reported(self):
        with pytest.raises(ValueError, match="epochs"):
            apply_overrides(RunConfig(), ["epochs=three"])

    @pytest.mark.parametrize("key", [
        f.name for f in fields(RunConfig) if f.name not in ("levels", "paths")
    ])
    def test_every_scalar_key_can_be_overridden(self, key):
        default = getattr(RunConfig(), key)
        value = default / 2 if isinstance(default, float) else default + 1
        cfg = apply_overrides(RunConfig(), [f"{key}={value}"])
        assert getattr(cfg, key) == value
        assert type(getattr(cfg, key)) is type(default)

    def test_invalid_resulting_value_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides(RunConfig(), ["alpha=-1"])
