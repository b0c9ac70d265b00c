import json

import pytest

from cryptocast.config import load_config_file, validate_config
from cryptocast.errors import ConfigError


def minimal(tmp_path, **overrides):
    data_file = tmp_path / "data.csv"
    if not data_file.exists():
        data_file.write_text("date,close,volume,fgi\n2021-01-01,1,2,50\n")
    doc = {"data": {"path": str(data_file), "scenario": "bitcoin"}}
    doc.update(overrides)
    return doc


class TestDefaults:
    def test_minimal_config_gets_all_defaults(self, tmp_path):
        cfg = validate_config(json.dumps(minimal(tmp_path)))
        assert cfg["split_ratio"] == 0.8
        assert cfg["window"] == 30
        assert cfg["seed"] == 1234
        assert cfg["test_windows"] == "strict"
        assert cfg["interval_level"] == 0.95
        assert cfg["data"]["feature_columns"] == ["close", "volume", "fgi"]
        assert cfg["models"]["hybrid"]["d_model"] == 32 and cfg["models"]["hybrid"]["heads"] == 4
        assert cfg["models"]["bilstm"]["hidden_size"] == 32
        assert tuple(cfg["models"]["grnn"]["sigma_grid"]) == (0.01, 0.03, 0.1, 0.3, 1.0)

    def test_ethereum_scenario_adds_aux_column(self, tmp_path):
        cfg = validate_config(json.dumps(minimal(
            tmp_path, data={"path": str(tmp_path / "data.csv"),
                            "scenario": "ethereum"})))
        assert cfg["data"]["feature_columns"] == ["close", "volume", "fgi", "btc_close"]

    def test_split_ratio_echoes_into_snapshot(self, tmp_path):
        cfg = validate_config(json.dumps(minimal(tmp_path, split_ratio=0.8)))
        assert cfg["split_ratio"] == 0.8


class TestRejection:
    def test_unknown_top_level_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="window_size"):
            validate_config(json.dumps(minimal(tmp_path, window_size=30)))

    def test_unknown_model_key_named(self, tmp_path):
        doc = minimal(tmp_path, models={"hybrid": {"dmodel": 16}})
        with pytest.raises(ConfigError, match="dmodel"):
            validate_config(json.dumps(doc))

    def test_head_split_inconsistency(self, tmp_path):
        doc = minimal(tmp_path, models={"hybrid": {"d_model": 30, "heads": 4}})
        with pytest.raises(ConfigError, match="divisible"):
            validate_config(json.dumps(doc))

    def test_odd_d_model(self, tmp_path):
        doc = minimal(tmp_path, models={"hybrid": {"d_model": 9, "heads": 1}})
        with pytest.raises(ConfigError, match="even"):
            validate_config(json.dumps(doc))

    def test_missing_data_file(self, tmp_path):
        doc = {"data": {"path": str(tmp_path / "absent.csv")}}
        with pytest.raises(ConfigError, match="does not exist"):
            validate_config(json.dumps(doc))

    def test_bad_scenario(self, tmp_path):
        doc = minimal(tmp_path)
        doc["data"]["scenario"] = "dogecoin"
        with pytest.raises(ConfigError, match="dogecoin"):
            validate_config(json.dumps(doc))

    def test_ratio_bounds(self, tmp_path):
        with pytest.raises(ConfigError):
            validate_config(json.dumps(minimal(tmp_path, split_ratio=1.0)))
        with pytest.raises(ConfigError):
            validate_config(json.dumps(minimal(tmp_path, split_ratio=0.0)))

    def test_target_must_be_a_feature(self, tmp_path):
        doc = minimal(tmp_path)
        doc["data"]["feature_columns"] = ["volume", "fgi"]
        with pytest.raises(ConfigError, match="target"):
            validate_config(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            validate_config("{nope")

    def test_non_integer_window(self, tmp_path):
        with pytest.raises(ConfigError, match="integer"):
            validate_config(json.dumps(minimal(tmp_path, window=2.5)))

    def test_bad_sigma_grid(self, tmp_path):
        doc = minimal(tmp_path, models={"grnn": {"sigma_grid": [0.1, -1.0]}})
        with pytest.raises(ConfigError, match="sigma_grid"):
            validate_config(json.dumps(doc))


class TestFileLoading:
    def test_relative_data_path_resolves_against_config_dir(self, tmp_path):
        (tmp_path / "prices.csv").write_text("date,close\n2021-01-01,1\n")
        config_file = tmp_path / "experiment.json"
        config_file.write_text(json.dumps({
            "data": {"path": "prices.csv", "feature_columns": ["close"]},
        }))
        cfg = load_config_file(str(config_file))
        assert cfg["data"]["path"] == str(tmp_path / "prices.csv")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(str(tmp_path / "absent.json"))
