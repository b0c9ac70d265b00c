from dataclasses import dataclass

import numpy as np
import pytest

from cryptocast.config import check_setting
from cryptocast.data import WindowSet
from cryptocast.errors import ConfigError, DimensionError, DivergenceError
from cryptocast.ops import Buffers
from cryptocast.optim import adam_step, run_adam_training


def training(**keys):
    """A resolved `models.bilstm` section: `keys` over the schema's defaults."""
    return check_setting("models.bilstm", keys, "bilstm")


@dataclass
class OneArray:
    """The smallest model `run_adam_training` trains: one named array."""
    w: np.ndarray


def windows(n):
    """`n` all-zero windows; the losses below read only the model."""
    return WindowSet(X=np.zeros((n, 1, 1)), y=np.zeros(n), window=1, target_dates=[])


def train(w, loss_grad, n, hyper, seed=0):
    """Train `OneArray(w)` through `loss_grad(w) -> (loss, grad)` of the
    twin's array; returns (trained w, trace). Every step is checked to
    get the float32 twin and float32 buffers, and the given model to be
    left bit-identical."""
    model = OneArray(np.array(w, dtype=np.float64))
    before = model.w.copy()

    def loss_and_grads(twin, X, y, buffers):
        assert twin.w.dtype == np.float32 and X.shape[1:] == (1, 1) and len(X) == len(y)
        assert isinstance(buffers, Buffers) and buffers.dtype == np.float32
        loss, grad = loss_grad(twin.w)
        return loss, {"w": grad}

    try:
        trained, trace = run_adam_training(model, loss_and_grads, windows(n), hyper, seed)
    finally:
        assert model.w.dtype == np.float64 and model.w.tobytes() == before.tobytes()
    assert trained.w.dtype == np.float64 and trained.w is not model.w
    return trained.w, trace


def fresh_moments(params):
    return {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}


def test_zero_gradients_leave_params_unchanged():
    params = {"w": np.array([[1.0, -2.0]]), "b": np.array([0.5])}
    before = {name: p.copy() for name, p in params.items()}
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    adam_step(params, grads, fresh_moments(params), 1, 1e-3)
    for name, p in params.items():
        assert np.array_equal(p, before[name])


def test_first_step_magnitude_is_learning_rate():
    # at t=1 the bias-corrected ratio m_hat/sqrt(v_hat) equals sign(g),
    # so |delta| = lr * |g| / (|g| + eps) which is lr up to eps
    for g in (0.01, -3.0, 250.0):
        params = {"w": np.array([1.0])}
        adam_step(params, {"w": np.array([g])}, fresh_moments(params), 1, 1e-3)
        delta = params["w"][0] - 1.0
        assert np.isclose(abs(delta), 1e-3, rtol=1e-5)
        assert np.sign(delta) == -np.sign(g)


def test_determinism():
    grads = {"w": np.array([[0.5, -1.0], [2.0, 0.25]])}
    out = []
    for _ in range(2):
        params = {"w": np.array([[0.3, 0.7], [0.1, -0.2]])}
        moments = fresh_moments(params)
        adam_step(params, grads, moments, 1, 0.01)
        out.append((params["w"], moments["w"][0]))
    assert np.array_equal(out[0][0], out[1][0])
    assert np.array_equal(out[0][1], out[1][1])


def test_shape_mismatch_rejected():
    params = {"w": np.zeros((2, 2))}
    with pytest.raises(DimensionError, match="for w"):
        adam_step(params, {"w": np.zeros(3)}, fresh_moments(params), 1, 1e-3)


@pytest.mark.parametrize("field, value", [("epochs", -1), ("lr", 0.0), ("batch_size", -1)])
def test_invalid_train_config_is_a_config_error(field, value):
    # the schema bounds every neural kind's training keys; run_adam_training
    # takes a section that has passed them
    for kind in ("bilstm", "bigru", "hybrid"):
        with pytest.raises(ConfigError, match=f"{kind}.{field}={value} violates"):
            check_setting(f"models.{kind}", {field: value}, kind)


def test_bias_correction_against_hand_formula():
    # two explicit steps with constant gradient, checked bit for bit against
    # the update equations evaluated by hand in the same order
    g = 0.5
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    params = {"w": np.array([0.0])}
    moments = fresh_moments(params)
    w = 0.0
    m = v = 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        adam_step(params, {"w": np.array([g])}, moments, t, lr)
        assert params["w"][0] == w


def test_update_is_written_into_the_given_arrays():
    params = {"w": np.array([1.0, -1.0])}
    w = params["w"]
    moments = fresh_moments(params)
    m, v = moments["w"]
    adam_step(params, {"w": np.array([0.5, 0.5])}, moments, 1, 0.1)
    assert params["w"] is w and moments["w"][0] is m and moments["w"][1] is v
    assert np.all(w < [1.0, -1.0]) and np.all(m > 0.0) and np.all(v > 0.0)


def test_training_loop_zero_epochs_is_noop():
    w, trace = train([2.0], lambda w: (float(w[0] ** 2), 2.0 * w), 4, training(epochs=0))
    assert w[0] == 2.0
    assert trace == []


def test_training_loop_descends_quadratic():
    w, trace = train([2.0], lambda w: (float(w[0] ** 2), 2.0 * w), 4,
                     training(epochs=300, lr=0.05))
    assert abs(w[0]) < 0.05
    assert trace[-1] < trace[0]


def test_divergence_error_names_epoch():
    calls = {"n": 0}

    def loss_grad(w):
        calls["n"] += 1
        if calls["n"] >= 3:
            return float("nan"), np.zeros(1)
        return 1.0, np.zeros(1)

    with pytest.raises(DivergenceError, match="epoch 2"):
        train([1.0], loss_grad, 4, training(epochs=10))


def test_non_finite_gradient_names_epoch_and_parameter():
    seen = []

    def loss_grad(w):
        seen.append(w.copy())
        grad = np.array([0.1, np.inf]) if len(seen) >= 2 else np.array([0.1, 0.1])
        return 1.0, grad

    with pytest.raises(DivergenceError, match=r"gradient for w at epoch 1"):
        train([0.5, -0.5], loss_grad, 4, training(epochs=10))
    assert len(seen) == 2
    assert all(np.all(np.isfinite(w)) for w in seen)


def test_minibatch_mode_is_deterministic():
    out = []
    for _ in range(2):
        def loss_grad(w):
            r = w[0] - 3.0
            return float(r * r), np.array([2.0 * r])

        cfg = training(epochs=20, lr=0.05, batch_size=2)
        w, trace = train([0.0], loss_grad, 6, cfg, seed=5)
        out.append((trace, w[0]))
    assert out[0] == out[1]
