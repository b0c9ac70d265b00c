import datetime as dt
import json

import numpy as np
import pytest

from cryptocast import bundle as bundleio
from cryptocast.cli import main as cli_main
from cryptocast.data import NormStats, WindowSet
from cryptocast.errors import DataError
from cryptocast.hybrid import HybridConfig, init_hybrid
from cryptocast.params import named_arrays
from cryptocast.pipeline import MODELS, predict_windows
from cryptocast.recurrent import init_birnn
from cryptocast.rng import Rng


STATS = NormStats(["close", "volume"], np.array([1.0, 10.0]), np.array([2.0, 20.0]))
WIDTH = 8  # window 4 x two feature columns

# small hyperparameters per kind, as MODELS[kind].hyper would produce them
HYPER = {
    "rbfn": {"centers": 5},
    "grnn": {"sigma_grid": [0.1, 0.3]},
    "bilstm": {"hidden_size": 3, "input_size": 2, "epochs": 2, "lr": 0.01, "batch_size": 0},
    "bigru": {"hidden_size": 3, "input_size": 2, "epochs": 2, "lr": 0.01, "batch_size": 0},
    "hybrid": {"window": 4, "input_size": 2, "d_model": 4, "heads": 2, "layers": 2,
               "d_ffn": 8, "d_gru": 4, "epochs": 2, "lr": 0.01, "batch_size": 0},
}


def wrap(kind, model, hyper):
    return bundleio.ModelBundle(
        kind=kind, model=model, hyperparameters=hyper, window=4,
        feature_columns=["close", "volume"], target_column="close", compose_fgi=True,
        fgi_weights=[0.5, 0.5], stats=STATS,
    )


def window_batch(seed, n=6, T=4, k=2):
    return Rng(seed).uniform(0, 1, (n, T, k))


def window_set(seed, n=6):
    rng = Rng(seed)
    return WindowSet(
        X=window_batch(seed, n), y=rng.uniform(0, 1, (n,)), window=4,
        target_dates=[dt.date(2021, 1, 1)] * n,
        feature_columns=["close", "volume"], target_column="close",
    )


def fitted(kind, **overrides):
    model, _ = MODELS[kind].fit(dict(HYPER[kind], **overrides), window_set(1, n=20), 2)
    return model


def saved_doc(tmp_path, kind, model=None):
    path = tmp_path / f"{kind}.json"
    bundleio.save_bundle(wrap(kind, model or fitted(kind), HYPER[kind]), path)
    return path, json.loads(path.read_text())


class TestRoundTrips:
    @pytest.mark.parametrize("kind", list(MODELS))
    def test_round_trip(self, tmp_path, kind):
        model = fitted(kind)
        path = tmp_path / f"{kind}.json"
        bundleio.save_bundle(wrap(kind, model, HYPER[kind]), path)
        loaded = bundleio.load_bundle(path)
        ws = window_set(7)
        assert loaded.kind == kind
        assert np.array_equal(predict_windows(kind, model, ws),
                              predict_windows(kind, loaded.model, ws))
        assert loaded.stats.for_column("close") == (1.0, 2.0)
        assert loaded.window == 4

    def test_predict_windows_dispatch_consistency(self, tmp_path):
        # the pipeline-level dispatcher works identically on reloaded models
        model = init_birnn("gru", 2, 3, seed=8)
        path = tmp_path / "b.json"
        bundleio.save_bundle(
            wrap("bigru", model, {"hidden_size": 3, "input_size": 2}), path)
        loaded = bundleio.load_bundle(path)
        ws = WindowSet(
            X=window_batch(9), y=np.zeros(6), window=4,
            target_dates=[dt.date(2021, 1, 1)] * 6,
            feature_columns=["close", "volume"], target_column="close",
        )
        assert np.array_equal(predict_windows("bigru", model, ws),
                              predict_windows("bigru", loaded.model, ws))


class TestShapeRules:
    @pytest.mark.parametrize("kind", list(MODELS))
    def test_shape_rule_matches_built_model(self, kind):
        # epochs 0: the neural kinds return exactly what init_birnn /
        # init_hybrid built; the kernel kinds return their fitted arrays
        model = fitted(kind, epochs=0) if "epochs" in HYPER[kind] else fitted(kind)
        rows = 20
        expected = {name: tuple(rows if d == "rows" else d for d in shape)
                    for name, shape in MODELS[kind].shapes(HYPER[kind], WIDTH).items()}
        assert {name: a.shape for name, a in named_arrays(model).items()} == expected


class TestParameterNaming:
    def test_recurrent_gate_matrices_keep_structural_names(self, tmp_path):
        _, doc = saved_doc(tmp_path, "bilstm", init_birnn("lstm", 2, 3, seed=4))
        for direction in ("forward", "backward"):
            gates = {name.split(".", 1)[1] for name in doc["parameters"]
                     if name.startswith(direction + ".")}
            assert gates == {"W_fx", "W_fh", "b_f", "W_ix", "W_ih", "b_i",
                             "W_cx", "W_ch", "b_c", "W_ox", "W_oh", "b_o"}
        _, doc2 = saved_doc(tmp_path, "bigru", init_birnn("gru", 2, 3, seed=4))
        assert {name.split(".", 1)[1] for name in doc2["parameters"]
                if name.startswith("forward.")} == {
            "W_rx", "W_rh", "b_r", "W_zx", "W_zh", "b_z", "W_x", "W_h", "b"}

    def test_hybrid_layers_are_index_addressable(self, tmp_path):
        cfg = HybridConfig(window=4, input_size=2, d_model=4, heads=2,
                           layers=3, d_ffn=8, d_gru=4)
        path = tmp_path / "layers.json"
        hyper = dict(HYPER["hybrid"], layers=3)
        bundleio.save_bundle(wrap("hybrid", init_hybrid(cfg, seed=6), hyper), path)
        params = json.loads(path.read_text())["parameters"]
        for i in range(3):
            layer = {name.split(".", 2)[2] for name in params
                     if name.startswith(f"encoder_layers.{i}.")}
            assert layer == {"W_Q", "W_K", "W_V", "W_O", "W_1", "b_1",
                             "W_2", "b_2", "ln1_gamma", "ln1_beta",
                             "ln2_gamma", "ln2_beta"}
            assert len(params[f"encoder_layers.{i}.W_Q"]) == 2  # one projection per head
        assert not any(name.startswith("encoder_layers.3.") for name in params)


class TestBundleErrors:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else/9"}')
        with pytest.raises(DataError, match="format"):
            bundleio.load_bundle(path)

    def test_version_1_rejected(self, tmp_path):
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["format"] = "model-bundle/1"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="model-bundle/1"):
            bundleio.load_bundle(path)

    def test_version_2_rejected(self, tmp_path):
        # /2 bundles do not record how their fgi column was composed
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["format"] = "model-bundle/2"
        del doc["compose_fgi"], doc["fgi_weights"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="model-bundle/2"):
            bundleio.load_bundle(path)

    @pytest.mark.parametrize("field, value", [
        ("compose_fgi", 1), ("fgi_weights", [0.3, 0.3]), ("fgi_weights", [0.5]),
        ("fgi_weights", "ab"),
    ])
    def test_malformed_fgi_envelope_named(self, tmp_path, field, value):
        path, doc = saved_doc(tmp_path, "rbfn")
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="malformed envelope"):
            bundleio.load_bundle(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(
            '{"format": "model-bundle/3", "model": "perceptron",'
            ' "hyperparameters": {}, "parameters": {}, "window": 1,'
            ' "feature_columns": [], "target_column": "close",'
            ' "normalization": {}}'
        )
        with pytest.raises(DataError, match="perceptron"):
            bundleio.load_bundle(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(DataError):
            bundleio.load_bundle(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            bundleio.load_bundle(tmp_path / "absent.json")

    def test_missing_envelope_field_named(self, tmp_path):
        path, doc = saved_doc(tmp_path, "rbfn")
        del doc["window"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="window"):
            bundleio.load_bundle(path)

    def test_missing_parameter_named(self, tmp_path, small_csv, capsys):
        path, doc = saved_doc(tmp_path, "bilstm")
        del doc["parameters"]["forward.W_fx"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"lacks parameter forward\.W_fx"):
            bundleio.load_bundle(path)
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "pred.csv")]) == 3
        assert "lacks parameter forward.W_fx" in capsys.readouterr().err

    def test_extra_parameter_named(self, tmp_path):
        path, doc = saved_doc(tmp_path, "hybrid")
        doc["parameters"]["encoder_layers.2.W_Q"] = doc["parameters"]["encoder_layers.1.W_Q"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"unexpected parameter encoder_layers\.2\.W_Q"):
            bundleio.load_bundle(path)

    def test_wrong_shape_named(self, tmp_path):
        path, doc = saved_doc(tmp_path, "hybrid")
        doc["parameters"]["encoder_layers.0.W_K"] = doc["parameters"]["encoder_layers.0.W_K"][:1]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"encoder_layers\.0\.W_K has shape \(1, 4, 2\)"):
            bundleio.load_bundle(path)

    def test_kernel_width_comes_from_window_and_columns(self, tmp_path):
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["feature_columns"] = ["close"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"centers has shape \(5, 8\), expected \(5, 4\)"):
            bundleio.load_bundle(path)

    def test_grnn_stored_rows_must_agree(self, tmp_path):
        path, doc = saved_doc(tmp_path, "grnn")
        doc["parameters"]["stored_targets"] = doc["parameters"]["stored_targets"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"stored_targets has shape \(19,\), expected \(20,\)"):
            bundleio.load_bundle(path)

    def test_non_finite_parameter_named(self, tmp_path, small_csv, capsys):
        path, doc = saved_doc(tmp_path, "bigru")
        doc["parameters"]["W_head"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="W_head has non-finite values"):
            bundleio.load_bundle(path)
        out = tmp_path / "pred.csv"
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(out)]) == 3
        assert "W_head has non-finite values" in capsys.readouterr().err
        assert not out.exists()
