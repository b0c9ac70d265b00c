import numpy as np
import pytest

from cryptocast.errors import DimensionError, DivergenceError
from cryptocast.optim import AdamState, TrainConfig, adam_step, run_adam_training


def test_zero_gradients_leave_params_unchanged():
    params = [np.array([[1.0, -2.0]]), np.array([0.5])]
    grads = [np.zeros_like(p) for p in params]
    state = AdamState.init(params)
    new_params, new_state = adam_step(params, grads, state)
    for p, q in zip(params, new_params):
        assert np.array_equal(p, q)
    assert new_state.t == 1


def test_first_step_magnitude_is_learning_rate():
    # at t=1 the bias-corrected ratio m_hat/sqrt(v_hat) equals sign(g),
    # so |delta| = lr * |g| / (|g| + eps) which is lr up to eps
    for g in (0.01, -3.0, 250.0):
        params = [np.array([1.0])]
        state = AdamState.init(params, lr=1e-3)
        new_params, _ = adam_step(params, [np.array([g])], state)
        delta = new_params[0][0] - 1.0
        assert np.isclose(abs(delta), 1e-3, rtol=1e-5)
        assert np.sign(delta) == -np.sign(g)


def test_determinism():
    params = [np.array([[0.3, 0.7], [0.1, -0.2]])]
    grads = [np.array([[0.5, -1.0], [2.0, 0.25]])]
    out1 = adam_step(params, grads, AdamState.init(params, lr=0.01))
    out2 = adam_step(params, grads, AdamState.init(params, lr=0.01))
    assert np.array_equal(out1[0][0], out2[0][0])
    assert np.array_equal(out1[1].m[0], out2[1].m[0])


def test_shape_mismatch_rejected():
    params = [np.zeros((2, 2))]
    with pytest.raises(DimensionError):
        adam_step(params, [np.zeros(3)], AdamState.init(params))


def test_bias_correction_against_hand_formula():
    # two explicit steps with constant gradient, checked against the
    # update equations evaluated by hand
    g = 0.5
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    params = [np.array([0.0])]
    state = AdamState.init(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    w = 0.0
    m = v = 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        params, state = adam_step(params, [np.array([g])], state)
        assert np.isclose(params[0][0], w, atol=1e-15)


def test_training_loop_zero_epochs_is_noop():
    params = {"w": np.array([2.0])}

    def loss_grad(ps, idx):
        return float(ps["w"][0] ** 2), {"w": 2.0 * ps["w"]}

    out, trace = run_adam_training(params, loss_grad, 4, TrainConfig(epochs=0))
    assert out["w"][0] == 2.0
    assert trace == []


def test_training_loop_descends_quadratic():
    params = {"w": np.array([2.0])}

    def loss_grad(ps, idx):
        return float(ps["w"][0] ** 2), {"w": 2.0 * ps["w"]}

    out, trace = run_adam_training(params, loss_grad, 4, TrainConfig(epochs=300, lr=0.05))
    assert abs(out["w"][0]) < 0.05
    assert trace[-1] < trace[0]


def test_divergence_error_names_epoch():
    params = {"w": np.array([1.0])}
    calls = {"n": 0}

    def loss_grad(ps, idx):
        calls["n"] += 1
        if calls["n"] >= 3:
            return float("nan"), {"w": np.zeros(1)}
        return 1.0, {"w": np.zeros(1)}

    with pytest.raises(DivergenceError, match="epoch 2"):
        run_adam_training(params, loss_grad, 4, TrainConfig(epochs=10))


def test_non_finite_gradient_names_epoch_and_parameter():
    params = {"w": np.array([1.0]), "b": np.array([0.5, -0.5])}
    seen = []

    def loss_grad(ps, idx):
        seen.append({name: p.copy() for name, p in ps.items()})
        b_grad = np.array([0.1, np.inf]) if len(seen) >= 2 else np.array([0.1, 0.1])
        return 1.0, {"w": np.array([0.2]), "b": b_grad}

    with pytest.raises(DivergenceError, match=r"gradient for b at epoch 1"):
        run_adam_training(params, loss_grad, 4, TrainConfig(epochs=10))
    assert len(seen) == 2
    assert all(np.all(np.isfinite(p)) for ps in seen for p in ps.values())


def test_minibatch_mode_is_deterministic():
    def loss_grad(ps, idx):
        r = ps["w"][0] - 3.0
        return float(r * r), {"w": np.array([2.0 * r])}

    cfg = TrainConfig(epochs=20, lr=0.05, seed=5, batch_size=2)
    out1, trace1 = run_adam_training({"w": np.array([0.0])}, loss_grad, 6, cfg)
    out2, trace2 = run_adam_training({"w": np.array([0.0])}, loss_grad, 6, cfg)
    assert out1["w"][0] == out2["w"][0]
    assert trace1 == trace2
