import base64
import dataclasses
import datetime as dt
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocast import bundle as bundleio
from cryptocast.cli import main as cli_main
from cryptocast.data import NormStats, WindowSet
from cryptocast.errors import CryptocastError, DataError
from cryptocast.hybrid import init_hybrid
from cryptocast.params import map_arrays, named_arrays
from cryptocast.pipeline import MODELS, predict_windows
from cryptocast.recurrent import init_birnn
from cryptocast.rng import Rng


STATS = NormStats(["close", "volume"], np.array([1.0, 10.0]), np.array([2.0, 20.0]))
WINDOW, INPUTS = 4, 2  # two feature columns
WIDTH = WINDOW * INPUTS

# small hyperparameters per kind: resolved models.<kind> sections of a config
HYPER = {
    "rbfn": {"centers": 5},
    "grnn": {"sigma_grid": [0.1, 0.3]},
    "bilstm": {"hidden_size": 3, "epochs": 2, "lr": 0.01, "batch_size": 0},
    "bigru": {"hidden_size": 3, "epochs": 2, "lr": 0.01, "batch_size": 0},
    "hybrid": {"d_model": 4, "heads": 2, "layers": 2, "d_ffn": 8, "d_gru": 4, "epochs": 2,
               "lr": 0.01, "batch_size": 0},
}


def wrap(kind, model, hyper):
    data = {"feature_columns": ["close", "volume"], "target_column": "close",
            "compose_fgi": True, "fgi_weights": [0.5, 0.5]}
    return bundleio.ModelBundle(
        kind=kind, model=model, config={"window": 4, "data": data, "models": {kind: hyper}},
        stats=STATS,
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


# The /7 layout, read and written here independently of the bundle module,
# so these helpers also pin the on-disk layout: a line of JSON, the header,
# then each array's little-endian float64 bytes at its declared offset.
class Doc(dict):
    """A bundle's header document; `tail` holds the bytes after its line."""

    tail = b""


def parse_doc(raw: bytes) -> Doc:
    header, tail = raw.split(b"\n", 1)
    doc = Doc(json.loads(header))
    doc.tail = tail
    return doc


def write_doc(path, doc: Doc):
    path.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + doc.tail)


def saved_doc(tmp_path, kind, model=None):
    path = tmp_path / f"{kind}.json"
    bundleio.save_bundle(wrap(kind, model or fitted(kind), HYPER[kind]), path)
    return path, parse_doc(path.read_bytes())


def decode_entry(doc, entry):
    return np.frombuffer(doc.tail, dtype="<f8", count=math.prod(entry["shape"]),
                         offset=entry["offset"]).reshape(entry["shape"])


def as_lists(doc):
    """doc's parameters as nested number lists, the pre-/4 layout tests edit,
    in the tail's order."""
    entries = sorted(doc["parameters"].items(), key=lambda item: item[1]["offset"])
    return {name: decode_entry(doc, entry).tolist() for name, entry in entries}


def write_lists(path, doc, params):
    """Write doc with its parameters laid out anew from nested lists, in order."""
    arrays = [np.array(value, dtype="<f8") for value in params.values()]
    offsets = np.cumsum([0] + [a.nbytes for a in arrays]).tolist()
    doc["parameters"] = {name: {"shape": list(a.shape), "offset": offset}
                         for name, a, offset in zip(params, arrays, offsets)}
    doc.tail = b"".join(a.tobytes() for a in arrays)
    write_doc(path, doc)


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
        assert loaded.config["window"] == 4

    def test_predict_windows_dispatch_consistency(self, tmp_path):
        # the pipeline-level dispatcher works identically on reloaded models
        model = init_birnn("gru", 2, 3, seed=8)
        path = tmp_path / "b.json"
        bundleio.save_bundle(
            wrap("bigru", model, {"hidden_size": 3}), path)
        loaded = bundleio.load_bundle(path)
        ws = WindowSet(
            X=window_batch(9), y=np.zeros(6), window=4,
            target_dates=[dt.date(2021, 1, 1)] * 6,
            feature_columns=["close", "volume"], target_column="close",
        )
        assert np.array_equal(predict_windows("bigru", model, ws),
                              predict_windows("bigru", loaded.model, ws))


class TestGoldenBytes:
    """The exact bytes of two bundles whose arrays are filled by hand from
    their kind's template, so no training or platform arithmetic is
    involved: a refactor of the writer must not move a byte."""

    DIGESTS = {
        "rbfn": "033396eebc52483271296b4895869ce64c94069212b8fd4d0e99b6f93ed220a4",
        "hybrid": "b10c2e5c041a20d1ea3e2b4d51b8aa792394c20e9a95b97b1dc085925c6dbf58",
    }

    @pytest.mark.parametrize("kind", list(DIGESTS))
    def test_bundle_bytes(self, kind):
        template = MODELS[kind].template(HYPER[kind], WINDOW, INPUTS)
        # eighths from 1/8 to 7/8: exact in binary and positive, as spreads must be
        model = map_arrays(template, lambda name, a: (
            (np.arange(a.size) % 7 + 1) / 8).reshape(a.shape))
        digest = hashlib.sha256(bundleio.bundle_bytes(wrap(kind, model, HYPER[kind])))
        assert digest.hexdigest() == self.DIGESTS[kind]


class TestLoadTemplate:
    @pytest.mark.parametrize("kind", list(MODELS))
    def test_load_builds_one_template_and_draws_nothing(self, tmp_path, monkeypatch, kind):
        # load_bundle runs inside every predict request; a template built by
        # an init would cost one Python step per drawn element
        path, doc = saved_doc(tmp_path, kind)
        spec = MODELS[kind]
        built = []

        def counted(hyper, window, input_size):
            built.append((window, input_size))
            return spec.template(hyper, window, input_size)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_bundle drew random numbers")

        monkeypatch.setitem(MODELS, kind, dataclasses.replace(spec, template=counted))
        for name in ("uniform", "normal", "next_u64"):
            monkeypatch.setattr(Rng, name, no_draws)
        loaded = bundleio.load_bundle(path)
        assert built == [(WINDOW, INPUTS)]
        assert {name: a.tobytes() for name, a in named_arrays(loaded.model).items()} == \
            {name: decode_entry(doc, entry).tobytes() for name, entry in doc["parameters"].items()}


class TestShapeRules:
    @pytest.mark.parametrize("kind", list(MODELS))
    def test_shape_rule_matches_built_model(self, kind):
        # epochs 0: the neural kinds return exactly what init_birnn /
        # init_hybrid built; the kernel kinds return their fitted arrays
        model = fitted(kind, epochs=0) if "epochs" in HYPER[kind] else fitted(kind)
        rows = 20
        spec = MODELS[kind]
        expected = {name: tuple(rows if d == "rows" else d for d in shape)
                    for name, shape in spec.shapes_of(spec.template(HYPER[kind], WINDOW, INPUTS)).items()}
        assert {name: a.shape for name, a in named_arrays(model).items()} == expected


class TestParameterNaming:
    def test_recurrent_gate_matrices_keep_structural_names(self, tmp_path):
        # every gate's block sits side by side in one input, one recurrent
        # and one bias array: four gates for the LSTM, three for the GRU
        for kind, cell, gates in (("bilstm", "lstm", 4), ("bigru", "gru", 3)):
            _, doc = saved_doc(tmp_path, kind, init_birnn(cell, 2, 3, seed=4))
            for direction in ("forward", "backward"):
                shapes = {name.split(".", 1)[1]: entry["shape"]
                          for name, entry in doc["parameters"].items()
                          if name.startswith(direction + ".")}
                assert shapes == {"W_x": [2, gates * 3], "W_h": [3, gates * 3],
                                  "b": [gates * 3]}

    def test_hybrid_layers_are_index_addressable(self, tmp_path):
        path = tmp_path / "layers.json"
        hyper = dict(HYPER["hybrid"], layers=3)
        bundleio.save_bundle(wrap("hybrid", init_hybrid(hyper, 2, seed=6), hyper), path)
        params = as_lists(parse_doc(path.read_bytes()))
        for i in range(3):
            layer = {name.split(".", 2)[2] for name in params
                     if name.startswith(f"encoder_layers.{i}.")}
            assert layer == {"W_QKV", "W_O", "W_1", "b_1",
                             "W_2", "b_2", "ln1_gamma", "ln1_beta",
                             "ln2_gamma", "ln2_beta"}
            # d_model rows; q, k and v columns of both heads of width 2
            assert np.shape(params[f"encoder_layers.{i}.W_QKV"]) == (4, 3 * 2 * 2)
        assert not any(name.startswith("encoder_layers.3.") for name in params)


class TestBundleErrors:
    def test_wrong_format_rejected(self, tmp_path, small_csv, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else/9"}')
        with pytest.raises(DataError, match="format"):
            bundleio.load_bundle(path)
        # /4 bundles store gate and head weights as separate arrays
        path, doc = saved_doc(tmp_path, "bilstm")
        doc["format"] = "model-bundle/4"
        write_doc(path, doc)
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "pred.csv")]) == 3
        assert "has format 'model-bundle/4', expected 'model-bundle/7'" in capsys.readouterr().err

    def test_version_5_rejected(self, tmp_path, small_csv, capsys):
        # /5 hyperparameters restate the envelope's window and input size
        path, doc = saved_doc(tmp_path, "hybrid")
        doc["format"] = "model-bundle/5"
        doc["hyperparameters"].update(window=WINDOW, input_size=INPUTS)
        write_doc(path, doc)
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "pred.csv")]) == 3
        assert "has format 'model-bundle/5', expected 'model-bundle/7'" in capsys.readouterr().err

    def test_version_1_rejected(self, tmp_path):
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["format"] = "model-bundle/1"
        write_doc(path, doc)
        with pytest.raises(DataError, match="model-bundle/1"):
            bundleio.load_bundle(path)

    def test_version_2_rejected(self, tmp_path):
        # /2 bundles do not record how their fgi column was composed
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["format"] = "model-bundle/2"
        del doc["compose_fgi"], doc["fgi_weights"]
        write_doc(path, doc)
        with pytest.raises(DataError, match="model-bundle/2"):
            bundleio.load_bundle(path)

    @pytest.mark.parametrize("field, value", [
        ("compose_fgi", 1), ("fgi_weights", [0.3, 0.3]), ("fgi_weights", [0.5]),
        ("fgi_weights", "ab"), ("fgi_weights", [10**400, 0]), ("fgi_weights", [True, False]),
    ])
    def test_malformed_fgi_envelope_named(self, tmp_path, field, value):
        path, doc = saved_doc(tmp_path, "rbfn")
        doc[field] = value
        write_doc(path, doc)
        with pytest.raises(DataError, match="malformed envelope"):
            bundleio.load_bundle(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(
            '{"format": "model-bundle/7", "model": "perceptron",'
            ' "hyperparameters": {}, "parameters": {}, "window": 1,'
            ' "feature_columns": [], "target_column": "close",'
            ' "normalization": {}}\n'
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
        write_doc(path, doc)
        with pytest.raises(DataError, match="window"):
            bundleio.load_bundle(path)

    def test_missing_parameter_named(self, tmp_path, small_csv, capsys):
        path, doc = saved_doc(tmp_path, "bilstm")
        del doc["parameters"]["forward.W_x"]
        write_doc(path, doc)
        with pytest.raises(DataError, match=r"lacks parameter forward\.W_x"):
            bundleio.load_bundle(path)
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "pred.csv")]) == 3
        assert "lacks parameter forward.W_x" in capsys.readouterr().err

    def test_extra_parameter_named(self, tmp_path):
        path, doc = saved_doc(tmp_path, "hybrid")
        params = as_lists(doc)
        params["encoder_layers.2.W_QKV"] = params["encoder_layers.1.W_QKV"]
        write_lists(path, doc, params)
        with pytest.raises(DataError, match=r"unexpected parameter encoder_layers\.2\.W_QKV"):
            bundleio.load_bundle(path)

    def test_wrong_shape_named(self, tmp_path):
        path, doc = saved_doc(tmp_path, "hybrid")
        params = as_lists(doc)
        params["encoder_layers.0.W_QKV"] = params["encoder_layers.0.W_QKV"][:1]
        write_lists(path, doc, params)
        with pytest.raises(DataError, match=r"encoder_layers\.0\.W_QKV has shape \(1, 12\)"):
            bundleio.load_bundle(path)

    def test_kernel_width_comes_from_window_and_columns(self, tmp_path):
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["feature_columns"] = ["close"]
        write_doc(path, doc)
        with pytest.raises(DataError, match=r"centers has shape \(5, 8\), expected \(5, 4\)"):
            bundleio.load_bundle(path)

    def test_grnn_stored_rows_must_agree(self, tmp_path):
        path, doc = saved_doc(tmp_path, "grnn")
        params = as_lists(doc)
        params["stored_targets"] = params["stored_targets"][:-1]
        write_lists(path, doc, params)
        with pytest.raises(DataError, match=r"stored_targets has shape \(19,\), expected \(20,\)"):
            bundleio.load_bundle(path)

    def test_grnn_without_stored_rows_rejected(self, tmp_path):
        # it would load, then fail in predict on an empty kernel row
        path, doc = saved_doc(tmp_path, "grnn")
        params = as_lists(doc)
        params["stored_inputs"] = np.zeros((0, WIDTH))
        params["stored_targets"] = []
        write_lists(path, doc, params)
        with pytest.raises(DataError, match="grnn stores no training rows"):
            bundleio.load_bundle(path)

    def test_non_finite_parameter_named(self, tmp_path, small_csv, capsys):
        path, doc = saved_doc(tmp_path, "bigru")
        params = as_lists(doc)
        params["W_head"][0][0] = float("nan")
        write_lists(path, doc, params)
        with pytest.raises(DataError, match="W_head has non-finite values"):
            bundleio.load_bundle(path)
        out = tmp_path / "pred.csv"
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(out)]) == 3
        assert "W_head has non-finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_version_3_rejected(self, tmp_path):
        # /3 bundles store parameters as JSON number lists
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["format"] = "model-bundle/3"
        doc["parameters"] = as_lists(doc)
        write_doc(path, doc)
        with pytest.raises(DataError, match="model-bundle/3"):
            bundleio.load_bundle(path)

    def test_version_6_rejected(self, tmp_path, small_csv, capsys):
        # /6 bundles are one JSON document that holds each array as base64
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["format"] = "model-bundle/6"
        doc["parameters"] = {
            name: {"shape": entry["shape"],
                   "f8le": base64.b64encode(decode_entry(doc, entry).tobytes()).decode("ascii")}
            for name, entry in doc["parameters"].items()}
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "pred.csv")]) == 3
        assert "has format 'model-bundle/6', expected 'model-bundle/7'" in capsys.readouterr().err

    def test_deeply_nested_json_is_a_data_error(self, tmp_path, small_csv, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        with pytest.raises(DataError, match="not valid UTF-8 JSON"):
            bundleio.load_bundle(path)
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "pred.csv")]) == 3
        assert capsys.readouterr().err.startswith("data error:")


class TestPayload:
    @pytest.mark.parametrize("kind", list(MODELS))
    def test_layout_is_shape_and_little_endian_float64(self, tmp_path, kind):
        model = fitted(kind)
        _, doc = saved_doc(tmp_path, kind, model)
        arrays = named_arrays(model)
        assert doc["format"] == "model-bundle/7"
        assert doc["parameters"].keys() == arrays.keys()
        for name, entry in doc["parameters"].items():
            assert entry.keys() == {"shape", "offset"}
            assert entry["shape"] == list(arrays[name].shape)
            assert decode_entry(doc, entry).tobytes() == arrays[name].astype("<f8").tobytes()
        # the arrays follow one another in named_arrays order and fill the tail
        assert doc.tail == b"".join(a.astype("<f8").tobytes() for a in arrays.values())
        offsets = [doc["parameters"][name]["offset"] for name in arrays]
        assert offsets == np.cumsum([0] + [a.nbytes for a in arrays.values()])[:-1].tolist()

    def test_header_is_one_line_of_canonical_json(self, tmp_path):
        path, doc = saved_doc(tmp_path, "hybrid")
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == json.dumps(dict(doc), sort_keys=True, separators=(",", ":")).encode()

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_saves_are_byte_identical(self, tmp_path, kind):
        model = fitted(kind)
        first, second, again = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        bundleio.save_bundle(wrap(kind, model, HYPER[kind]), first)
        bundleio.save_bundle(wrap(kind, model, HYPER[kind]), second)
        assert first.read_bytes() == second.read_bytes()
        # a loaded bundle saves back to the same bytes
        bundleio.save_bundle(bundleio.load_bundle(first), again)
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_loaded_arrays_are_owned_writable_native(self, tmp_path, kind):
        path, _ = saved_doc(tmp_path, kind)
        for name, a in named_arrays(bundleio.load_bundle(path).model).items():
            assert a.dtype == np.float64 and a.dtype.isnative, name
            assert a.flags.owndata and a.flags.writeable and a.flags.c_contiguous, name

    def test_extreme_values_are_bit_exact(self, tmp_path):
        extremes = np.array([-0.0, 5e-324, 2.2250738585072009e-308, 1e-310,
                             1.7976931348623157e308, -1.7976931348623157e308])
        model = fitted("rbfn", centers=6)
        model.weights = extremes.copy()
        model.bias = np.array(-0.0)
        path = tmp_path / "extremes.json"
        bundleio.save_bundle(wrap("rbfn", model, {"centers": 6}), path)
        loaded = bundleio.load_bundle(path).model
        assert loaded.weights.tobytes() == extremes.tobytes()
        assert loaded.bias.tobytes() == np.array(-0.0).tobytes()
        assert np.signbit(loaded.weights[0]) and np.signbit(loaded.bias)


def _set_entry(key, value):
    def edit(entry):
        entry[key] = value
    return edit


class TestPayloadErrors:
    """Each malformed `centers` entry is a data error that names it."""

    @pytest.mark.parametrize("edit, message", [
        (lambda e: e.pop("offset"), "exactly the keys 'shape' and 'offset'"),
        (_set_entry("dtype", "<f8"), "exactly the keys 'shape' and 'offset'"),
        (_set_entry("shape", [True, 8]), r"has shape \[True, 8\], expected a list"),
        (_set_entry("shape", [-1, 8]), r"has shape \[-1, 8\], expected a list"),
        (_set_entry("shape", [5.0, 8]), "expected a list of non-negative integers"),
        (_set_entry("shape", "5x8"), "expected a list of non-negative integers"),
        (_set_entry("shape", [8, 5]), r"has shape \(8, 5\), expected \(5, 8\)"),
        (_set_entry("offset", -8), "has offset -8, expected a non-negative integer"),
        (_set_entry("offset", 0.0), "has offset 0.0, expected a non-negative integer"),
        (_set_entry("offset", True), "has offset True, expected a non-negative integer"),
        (_set_entry("offset", "0"), "has offset '0', expected a non-negative integer"),
        (_set_entry("offset", None), "has offset None, expected a non-negative integer"),
    ])
    def test_malformed_entry_named(self, tmp_path, edit, message):
        path, doc = saved_doc(tmp_path, "rbfn")
        edit(doc["parameters"]["centers"])
        write_doc(path, doc)
        with pytest.raises(DataError, match="parameter centers .*" + message):
            bundleio.load_bundle(path)

    def test_entry_as_number_lists_named(self, tmp_path, small_csv, capsys):
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["parameters"]["centers"] = as_lists(doc)["centers"]
        write_doc(path, doc)
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "pred.csv")]) == 3
        assert "parameter centers must be an object" in capsys.readouterr().err


def _drop_last_byte(doc):
    doc.tail = doc.tail[:-1]


def _add_eight_bytes(doc):
    doc.tail += bytes(8)


def _offset(name, offset):
    def edit(doc):
        doc["parameters"][name]["offset"] = offset
    return edit


def _gap_before_bias(doc):
    doc["parameters"]["bias"]["offset"] += 8
    doc.tail = doc.tail[:400] + bytes(8) + doc.tail[400:]


def _swap_spreads_and_weights(doc):
    # equal sizes, so the swapped spans still tile the tail
    params = doc["parameters"]
    params["spreads"]["offset"], params["weights"]["offset"] = 360, 320
    doc.tail = doc.tail[:320] + doc.tail[360:400] + doc.tail[320:360] + doc.tail[400:]


class TestTail:
    """The arrays must follow one another in `named_arrays` order and fill the
    tail: an RBFN tail holds centers at bytes 0..320, spreads 320..360,
    weights 360..400 and bias 400..408. Every other file exits 3 naming what
    is wrong, and writes nothing."""

    @staticmethod
    def predict_refuses(path, small_csv, tmp_path, capsys, message):
        out = tmp_path / "pred.csv"
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (_drop_last_byte, "parameter bias of shape () ends at byte 408, the tail holds 407"),
        (_add_eight_bytes, "the parameters take 408 bytes, the tail holds 416"),
        (_offset("centers", 408), "parameter centers starts at byte 408, expected byte 0"),
        (_offset("spreads", 312), "parameter spreads starts at byte 312, expected byte 320"),
        (_gap_before_bias, "parameter bias starts at byte 408, expected byte 400"),
        (_swap_spreads_and_weights, "parameter spreads starts at byte 360, expected byte 320"),
    ], ids=["truncated-by-one-byte", "eight-extra-bytes", "span-past-the-end",
            "overlapping-spans", "gap", "out-of-order"])
    def test_spans_must_tile_the_tail(self, tmp_path, small_csv, capsys, edit, message):
        path, doc = saved_doc(tmp_path, "rbfn")
        edit(doc)
        write_doc(path, doc)
        self.predict_refuses(path, small_csv, tmp_path, capsys, message)

    @pytest.mark.parametrize("cut, message", [
        (lambda raw: raw.replace(b"\n", b"", 1), "header is not valid UTF-8 JSON"),
        (lambda raw: raw.split(b"\n", 1)[0], "header does not end in a line break"),
        (lambda raw: raw.replace(b'"close"', b'"clos\xff"', 1),
         "header is not valid UTF-8 JSON: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["line-break-removed", "header-alone", "non-utf8-header"])
    def test_header_must_be_a_utf8_json_line(self, tmp_path, small_csv, capsys, cut, message):
        path, _ = saved_doc(tmp_path, "rbfn")
        path.write_bytes(cut(path.read_bytes()))
        self.predict_refuses(path, small_csv, tmp_path, capsys, message)

    def test_spans_checked_before_any_array_is_allocated(self, tmp_path):
        # a GRNN's row count is free, so a file can declare more rows than it
        # holds: 10**12 rows of 8 floats, 64 TB, which no array could take
        path, doc = saved_doc(tmp_path, "grnn")
        doc["parameters"]["stored_targets"]["shape"] = [10**12]
        doc["parameters"]["stored_inputs"]["shape"][0] = 10**12
        write_doc(path, doc)
        with pytest.raises(DataError, match=r"parameter stored_inputs of shape "
                                             r"\(1000000000000, 8\) ends at byte "
                                             r"64000000000000, the tail holds 1448$"):
            bundleio.load_bundle(path)


class TestEnvelopeChecks:
    """Envelope fields that would make a bundle predict something else."""

    @staticmethod
    def rejects(path, doc, message):
        write_doc(path, doc)
        with pytest.raises(DataError, match=message):
            bundleio.load_bundle(path)

    @pytest.mark.parametrize("window", [True, 2.5, "10", 0, -3, None])
    def test_window_must_be_a_positive_int(self, tmp_path, window):
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["window"] = window
        self.rejects(path, doc, f"window={window} violates minimum: 1" if type(window) is int
                     else f"window must be a JSON integer, got {re.escape(repr(window))}")

    def test_integral_float_window_reads_as_int(self, tmp_path):
        # as in a config file
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["window"] = 4.0
        write_doc(path, doc)
        window = bundleio.load_bundle(path).config["window"]
        assert type(window) is int and window == 4

    def test_hybrid_window_must_match_envelope(self, tmp_path):
        # the window is the envelope's alone: hyperparameters cannot restate it
        path, doc = saved_doc(tmp_path, "hybrid")
        doc["hyperparameters"]["window"] = 4
        self.rejects(path, doc, "unknown key 'window' in hyperparameters")

    @pytest.mark.parametrize("kind", ["bilstm", "bigru", "hybrid"])
    @pytest.mark.parametrize("input_size", [3, "2", 2.0, True])
    def test_input_size_must_match_feature_columns(self, tmp_path, kind, input_size):
        # the input size is the number of feature columns alone
        path, doc = saved_doc(tmp_path, kind)
        doc["hyperparameters"]["input_size"] = input_size
        self.rejects(path, doc, "unknown key 'input_size' in hyperparameters")

    def test_recurrent_input_size_follows_feature_columns(self, tmp_path):
        path, doc = saved_doc(tmp_path, "bilstm")
        doc["feature_columns"].append("fgi")
        doc["normalization"]["fgi"] = [0.0, 100.0]
        self.rejects(path, doc, r"forward\.W_x has shape \(2, 12\), expected \(3, 12\)")

    def test_hybrid_without_heads_is_a_data_error(self, tmp_path):
        path, doc = saved_doc(tmp_path, "hybrid")
        doc["hyperparameters"]["heads"] = 0
        self.rejects(path, doc, "hyperparameters.heads=0 violates minimum: 1")

    @pytest.mark.parametrize("shape, message", [
        ({"d_model": 8, "heads": 3}, "d_model=8 is not divisible by heads=3"),
        ({"d_model": 7}, "d_model must be even for the sin/cos interleave, got 7"),
    ], ids=["heads-do-not-split-d_model", "odd-d_model"])
    def test_hybrid_shape_rule_is_a_data_error(self, tmp_path, small_csv, capsys, shape,
                                               message):
        # the rules JSON Schema cannot state hold for a bundle as for a config
        path, doc = saved_doc(tmp_path, "hybrid")
        doc["hyperparameters"].update(shape)
        write_doc(path, doc)
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "pred.csv")]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("kind, key, value", [
        ("rbfn", "window", 10**9), ("grnn", "window", 10**9), ("rbfn", "centers", 10**9),
        ("bilstm", "hidden_size", 10**6), ("bigru", "hidden_size", 10**6),
        ("hybrid", "d_model", 10**9), ("hybrid", "d_ffn", 10**9), ("hybrid", "d_gru", 10**9),
        ("hybrid", "layers", 10**9),
    ])
    def test_size_beyond_the_file_refused_before_allocating(self, tmp_path, small_csv, capsys,
                                                           kind, key, value):
        # a file of n bytes carries at most n/8 parameters
        path, doc = saved_doc(tmp_path, kind)
        (doc if key == "window" else doc["hyperparameters"])[key] = value
        write_doc(path, doc)
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "pred.csv")]) == 3
        assert f"{key}={value} needs more parameters than the" in capsys.readouterr().err

    def test_layers_beyond_the_arrays_refused_before_the_template(self, tmp_path, small_csv,
                                                                  capsys, monkeypatch):
        # each encoder layer holds ten arrays, so a file of k arrays has
        # fewer than k layers, whatever its size in bytes
        path, doc = saved_doc(tmp_path, "hybrid")
        arrays = len(doc["parameters"])
        doc["hyperparameters"]["layers"] = arrays + 1
        write_doc(path, doc)

        def no_template(hyper, window, input_size):
            raise AssertionError("load_bundle built the template")

        monkeypatch.setitem(MODELS, "hybrid", dataclasses.replace(MODELS["hybrid"],
                                                                  template=no_template))
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "pred.csv")]) == 3
        assert (f"layers={arrays + 1} needs more parameters than the {arrays} arrays"
                in capsys.readouterr().err)

    def test_template_out_of_memory_is_a_data_error(self, tmp_path, monkeypatch):
        path, doc = saved_doc(tmp_path, "bilstm")

        def no_memory(hyper, window, input_size):
            raise MemoryError("Unable to allocate")

        monkeypatch.setitem(MODELS, "bilstm", dataclasses.replace(MODELS["bilstm"],
                                                                  template=no_memory))
        self.rejects(path, doc, "malformed envelope: Unable to allocate")

    @pytest.mark.parametrize("columns, message", [
        pytest.param(["close", "close"], r"feature_columns=\['close', 'close'\] violates "
                     "uniqueItems", id="columns0"),
        pytest.param(["close", 3], r"feature_columns\[1\] must be a JSON string, got 3",
                     id="columns1"),
        pytest.param("close", "feature_columns must be a JSON array, got 'close'", id="close"),
    ])
    def test_feature_columns_must_be_distinct_strings(self, tmp_path, columns, message):
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["feature_columns"] = columns
        self.rejects(path, doc, message)

    def test_target_must_be_a_feature(self, tmp_path):
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["target_column"] = "btc_close"
        self.rejects(path, doc, "target column 'btc_close' must be among")

    @pytest.mark.parametrize("target, weights, message", [
        ("btc_close", [0.5, 0.5], "target column 'btc_close' must be among"),
        ("close", [0.3, 0.3], "fgi weights must be nonnegative and sum to 1, got 0.3, 0.3"),
        ("close", [0.5, 0.6], "fgi weights must be nonnegative and sum to 1, got 0.5, 0.6"),
        ("close", [1.5, -0.5], "fgi_weights[1]=-0.5 violates minimum: 0"),
        ("close", [1.0], "fgi_weights=[1.0] violates minItems: 2"),
    ])
    def test_input_rules_refuse_a_config_and_a_bundle_alike(
            self, tmp_path, small_csv, small_config_doc, capsys, target, weights, message):
        small_config_doc["data"].update(target_column=target, fgi_weights=weights)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(small_config_doc))
        assert cli_main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        path, doc = saved_doc(tmp_path, "rbfn")
        doc.update(target_column=target, fgi_weights=weights)
        write_doc(path, doc)
        assert cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "pred.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    def test_normalization_must_cover_features(self, tmp_path):
        path, doc = saved_doc(tmp_path, "rbfn")
        del doc["normalization"]["volume"]
        self.rejects(path, doc, r"normalization lacks feature columns \['volume'\]")

    @pytest.mark.parametrize("normalization", [
        [], {"close": [1.0]}, {"close": [2.0, 1.0]}, {"close": [1.0, 1.0]},
        {"close": [True, 2.0]}, {"close": "1,2"}, {"close": [0, 1e400]},
    ])
    def test_normalization_pairs_must_be_ordered_finite(self, tmp_path, normalization):
        path, doc = saved_doc(tmp_path, "rbfn")
        doc["normalization"] = normalization
        path.write_bytes(json.dumps(doc).replace("Infinity", "1e400").encode() + b"\n"
                         + doc.tail)
        with pytest.raises(DataError, match="normalization"):
            bundleio.load_bundle(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers_are_invalid_json(self, tmp_path, literal):
        path, doc = saved_doc(tmp_path, "hybrid")
        text = json.dumps(doc).replace('"lr": 0.01', f'"lr": {literal}')
        assert literal in text
        path.write_bytes(text.encode() + b"\n" + doc.tail)
        with pytest.raises(DataError, match="not valid UTF-8 JSON: non-finite number"):
            bundleio.load_bundle(path)

    @pytest.mark.parametrize("kind, key, value, message", [
        # a string once passed the shape rule as a free dimension
        ("rbfn", "centers", "5", "hyperparameters.centers must be a JSON integer, got '5'"),
        ("hybrid", "heads", 2.5, "hyperparameters.heads must be a JSON integer, got 2.5"),
        ("rbfn", "spread", 1.0, "unknown key 'spread' in hyperparameters"),
        ("bigru", "epochs", -1, r"hyperparameters.epochs=-1 violates minimum: 0"),
        # the schema check runs before the shape rule, which would call int()
        ("hybrid", "heads", "abc", "hyperparameters.heads must be a JSON integer, got 'abc'"),
        ("hybrid", "heads", None, "hyperparameters.heads must be a JSON integer, got None"),
        ("hybrid", "heads", [2], r"hyperparameters.heads must be a JSON integer, got \[2\]"),
    ], ids=["string-centers", "fractional-heads", "unknown-key", "negative-epochs",
            "string-heads", "null-heads", "list-heads"])
    def test_hyperparameters_follow_the_config_schema(self, tmp_path, small_csv, capsys,
                                                      kind, key, value, message):
        path, doc = saved_doc(tmp_path, kind)
        doc["hyperparameters"][key] = value
        write_doc(path, doc)
        code = cli_main(["predict", "--bundle", str(path), "--data", small_csv,
                         "--out", str(tmp_path / "p.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("data error:") and re.search(message, err)
        assert "Traceback" not in err


# --- fuzzing -----------------------------------------------------------------

_BASE_BYTES = {}


def base_bytes(kind):
    """A saved /7 bundle of `kind`, made once per session."""
    if kind not in _BASE_BYTES:
        _BASE_BYTES[kind] = bundleio.bundle_bytes(wrap(kind, fitted(kind), HYPER[kind]))
    return _BASE_BYTES[kind]


_ENVELOPE_KEYS = ["format", "model", "hyperparameters", "window", "feature_columns",
                  "target_column", "compose_fgi", "fgi_weights", "normalization", "parameters"]
_HYPER_KEYS = sorted({key for hyper in HYPER.values() for key in hyper})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8)
_DIM = st.integers(-2, 40) | st.booleans() | st.floats(-2, 40) | st.text(max_size=2)
_EDGE_FLOATS = st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                                 1.7976931348623157e308])
_PICK = st.integers(0, 99)  # index of a parameter, modulo how many there are
_MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_ENVELOPE_KEYS)),
    st.tuples(st.just("set"), st.sampled_from(_ENVELOPE_KEYS), _JSON),
    st.tuples(st.just("hyper"), st.sampled_from(_HYPER_KEYS) | st.text(max_size=6), _JSON),
    st.tuples(st.just("truncate"), st.integers(0, 10**4)),
    st.tuples(st.just("corrupt"), st.integers(0, 10**4), st.integers(0, 255)),
    st.tuples(st.just("append"), st.binary(max_size=80)),
    st.tuples(st.just("drop_param"), _PICK),
    st.tuples(st.just("drop_key"), _PICK, st.sampled_from(["shape", "offset"])),
    st.tuples(st.just("set_key"), _PICK, st.sampled_from(["shape", "offset", "dtype"]), _JSON),
    st.tuples(st.just("shape"), _PICK, st.lists(_DIM, max_size=4)),
    st.tuples(st.just("offset"), _PICK, st.integers(-16, 10**4)),
    st.tuples(st.just("values"), _PICK,
              st.lists(_EDGE_FLOATS | st.floats(), min_size=1, max_size=4)),
)


def mutate(doc, op, *args):
    """Apply one mutation; a no-op where an earlier one removed its target."""
    if op == "drop":
        doc.pop(args[0], None)
    elif op == "set":
        doc[args[0]] = args[1]
    elif op == "hyper":
        if isinstance(doc.get("hyperparameters"), dict):
            doc["hyperparameters"][args[0]] = args[1]
    elif op == "truncate":
        doc.tail = doc.tail[:args[0] % (len(doc.tail) + 1)]
    elif op == "corrupt":
        if doc.tail:
            at = args[0] % len(doc.tail)
            doc.tail = doc.tail[:at] + bytes([args[1]]) + doc.tail[at + 1:]
    elif op == "append":
        doc.tail += args[0]
    elif isinstance(doc.get("parameters"), dict) and doc["parameters"]:
        params = doc["parameters"]
        name = sorted(params)[args[0] % len(params)]
        entry = params[name]
        if op == "drop_param":
            del params[name]
        elif not isinstance(entry, dict):
            return
        elif op == "drop_key":
            entry.pop(args[1], None)
        elif op == "set_key":
            entry[args[1]] = args[2]
        elif op == "shape":
            entry["shape"] = args[1]
        elif op == "offset":
            entry["offset"] = args[1]
        elif op == "values":
            # as many values as the declared shape holds, cycling through
            # args[1], written over the array's span where it lies in the tail
            try:
                count, offset = int(np.prod(entry["shape"])), int(entry["offset"])
            except (KeyError, TypeError, ValueError, OverflowError):
                return
            if 0 <= count <= 4096 and 0 <= offset <= len(doc.tail) - 8 * count:
                values = np.resize(np.array(args[1], dtype="<f8"), count).tobytes()
                doc.tail = doc.tail[:offset] + values + doc.tail[offset + len(values):]


class TestLoadBundleFuzz:
    """Whatever a bundle file holds, load_bundle returns a bundle whose every
    array is finite and of its expected shape, or raises a CryptocastError."""

    @staticmethod
    def check(path):
        try:
            b = bundleio.load_bundle(path)
        except CryptocastError:
            return
        window, data = b.config["window"], b.config["data"]
        features = data["feature_columns"]
        assert b.kind in MODELS
        assert type(window) is int and window >= 1
        assert len(set(features)) == len(features)
        assert data["target_column"] in features
        assert set(features) <= set(b.stats.columns)
        assert np.all(np.isfinite(b.stats.mins)) and np.all(np.isfinite(b.stats.maxs))
        assert np.all(b.stats.mins < b.stats.maxs)
        arrays = named_arrays(b.model)
        spec = MODELS[b.kind]
        expected = spec.shapes_of(spec.template(b.config["models"][b.kind], window,
                                                len(features)))
        assert arrays.keys() == expected.keys()
        free = {}
        for name, shape in expected.items():
            a = arrays[name]
            assert a.dtype == np.float64 and a.flags.writeable and a.flags.c_contiguous
            assert np.all(np.isfinite(a))
            assert a.ndim == len(shape)
            assert a.shape == tuple(free.setdefault(d, n) if isinstance(d, str) else d
                                    for d, n in zip(shape, a.shape))

    @given(st.sampled_from(list(MODELS)), st.lists(_MUTATION, min_size=1, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_mutated_documents(self, tmp_path_factory, kind, mutations):
        doc = parse_doc(base_bytes(kind))
        for mutation in mutations:
            mutate(doc, *mutation)
        path = tmp_path_factory.mktemp("fuzz") / "bundle.json"
        write_doc(path, doc)
        self.check(path)

    @given(st.sampled_from(list(MODELS)), st.integers(0, 10**5),
           st.lists(st.tuples(st.integers(0, 10**5), st.integers(1, 255)), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_truncations_and_byte_flips(self, tmp_path_factory, kind, cut, flips):
        # a saved bundle cut short at any byte, then with some bytes flipped
        raw = bytearray(base_bytes(kind))
        del raw[cut % (len(raw) + 1):]
        for at, mask in flips:
            if raw:
                raw[at % len(raw)] ^= mask
        path = tmp_path_factory.mktemp("fuzz") / "cut.json"
        path.write_bytes(bytes(raw))
        self.check(path)

    @given(st.binary(max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "bytes.json"
        path.write_bytes(raw)
        self.check(path)
