"""Training steps compute in float32 against float64 weights: the float32
gradients agree with the float64 ones the gradient oracles check, every
float32 pass stays float32, and the trained model stays float64."""

import json

import numpy as np
import pytest

from cryptocast import data as dataio
from cryptocast import hybrid, pipeline, recurrent
from cryptocast.config import validate_config
from cryptocast.errors import DimensionError
from cryptocast.ops import Buffers
from cryptocast.params import map_arrays, named_arrays
from cryptocast.rng import Rng

# the README experiment's model sizes
KINDS = {
    "bilstm": (recurrent, "birnn_loss_and_grads", lambda k: recurrent.init_birnn("lstm", k, 16, 3)),
    "bigru": (recurrent, "birnn_loss_and_grads", lambda k: recurrent.init_birnn("gru", k, 16, 3)),
    "hybrid": (hybrid, "hybrid_loss_and_grads", lambda k: hybrid.init_hybrid(
        {"d_model": 16, "heads": 2, "layers": 1, "d_ffn": 32, "d_gru": 16}, k, 3)),
}

TRAIN = {recurrent: recurrent.birnn_train, hybrid: hybrid.hybrid_train}


@pytest.fixture(scope="module")
def readme_windows():
    """The README experiment's ~470 training windows (600 rows, window 10)."""
    frame = dataio.synthesize_series(7, 600)
    train, _ = dataio.chronological_split(frame, 0.8)
    normalized = dataio.apply_minmax(train, dataio.fit_minmax(train))
    return dataio.make_windows(normalized, 10, "close")


@pytest.mark.parametrize("kind", list(KINDS))
def test_float32_gradients_match_float64(kind, readme_windows, monkeypatch):
    module, name, init = KINDS[kind]
    model = init(readme_windows.X.shape[2])
    loss_and_grads = getattr(module, name)
    loss64, grads64 = loss_and_grads(model, readme_windows.X, readme_windows.y)
    seen = []

    def recording(*args, **kwargs):
        result = loss_and_grads(*args, **kwargs)
        seen.append((kwargs["buffers"], result))
        return result

    monkeypatch.setattr(module, name, recording)
    # the first step of a full-batch epoch computes on a float32 twin of
    # `model` itself, over every window
    TRAIN[module](model, readme_windows, {"epochs": 1, "lr": 1e-3, "batch_size": 0}, seed=0)
    buffers, (loss32, grads32) = seen[0]
    assert buffers._arrays and all(a.dtype == np.float32 for a in buffers._arrays.values())
    assert all(g.dtype == np.float32 for g in grads32.values())
    assert loss32 == pytest.approx(loss64, rel=1e-5)
    assert grads32.keys() == grads64.keys()
    for param, g64 in grads64.items():
        scale = np.abs(g64).max()
        assert np.abs(grads32[param] - g64).max() <= 1e-5 * scale, param


@pytest.mark.parametrize("kind", list(KINDS))
def test_trained_model_is_float64(kind, small_config_doc):
    cfg = validate_config(json.dumps(small_config_doc))
    cfg["models"][kind]["epochs"] = 2
    prepared = pipeline.prepare_data(cfg)
    model, trace = pipeline.train_model(kind, cfg, prepared, Rng(cfg["seed"]))
    assert len(trace) == 2
    assert all(a.dtype == np.float64 for a in named_arrays(model).values())
    assert pipeline.predict_windows(kind, model, prepared.test_windows).dtype == np.float64


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("model_dtype,buffers_dtype",
                         [(np.float64, np.float32), (np.float32, np.float64)])
def test_buffers_of_another_dtype_are_refused(kind, model_dtype, buffers_dtype):
    module, name, init = KINDS[kind]
    model = map_arrays(init(2), lambda _, a: a.astype(model_dtype))
    X = Rng(1).uniform(0.0, 1.0, (4, 3, 2))
    with pytest.raises(DimensionError, match="buffers hold"):
        getattr(module, name)(model, X, X[:, 0, 0], buffers=Buffers(buffers_dtype))
