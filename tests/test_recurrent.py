import dataclasses
import datetime as dt
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocast import recurrent
from cryptocast.data import WindowSet
from cryptocast.errors import ConfigError, DimensionError, SizeError
from cryptocast.gradcheck import grad_check
from cryptocast.ops import xavier
from cryptocast.optim import TrainConfig
from cryptocast.params import named_arrays
from cryptocast.rng import Rng


# the gate blocks of a cell's stacked arrays, in kernel order
GATES = {"lstm": ("f", "i", "o", "c"), "gru": ("r", "z", "hc")}


def block(kind, a, gate):
    """The view of one gate's columns in a stacked W_x, W_h or b."""
    d = a.shape[-1] // len(GATES[kind])
    j = GATES[kind].index(gate)
    return a[..., j * d:(j + 1) * d]


def zeroed(cell):
    for f in dataclasses.fields(cell):
        setattr(cell, f.name, np.zeros_like(getattr(cell, f.name)))
    return cell


def new_cell(kind, k, d, rng):
    spec = recurrent.CELLS[kind]
    return recurrent.init_cell(spec, recurrent.cell_template(spec, k, d), rng)


def step(kind, cell, x, h_prev, c_prev=None):
    """One cell update on vectors through the sequence kernel's own step,
    `CELLS[kind].forward`, on the transposed stacked weights the kernel
    reads; state as (d, 1) columns. Returns h (GRU) or (h, c) (LSTM)."""
    spec = recurrent.CELLS[kind]
    Ux, Uh = cell.W_x.T, cell.W_h.T
    g = Ux @ np.asarray(x, dtype=float)[:, None] + cell.b[:, None]
    d = Uh.shape[1]
    h, c, scratch = np.empty((d, 1)), np.empty((d, 1)), np.empty((d, 1))
    if kind == "gru":
        spec.forward(Uh, g, h_prev[:, None], h, scratch)
        return h[:, 0]
    spec.forward(Uh, g, h_prev[:, None], h, c_prev[:, None], c, scratch)
    return h[:, 0], c[:, 0]


def make_window_set(n, T, k, seed=0):
    rng = Rng(seed)
    start = dt.date(2021, 1, 1)
    return WindowSet(
        X=rng.uniform(0, 1, (n, T, k)),
        y=rng.uniform(0, 1, (n,)),
        window=T,
        target_dates=[start + dt.timedelta(days=i) for i in range(n)],
        feature_columns=["close", "volume", "fgi"][:k],
        target_column="close",
    )


class TestLstmCell:
    def test_saturated_forget_open_input_closed_preserves_cell(self):
        cell = recurrent.cell_template(recurrent.CELLS["lstm"], 2, 3)
        block("lstm", cell.b, "f")[...] += 60.0   # forget gate pinned at 1
        block("lstm", cell.b, "i")[...] += -60.0  # input gate pinned at 0
        c = np.array([0.3, -1.2, 2.5])
        h = np.zeros(3)
        for _ in range(200):
            h, c_new = step("lstm", cell, np.array([0.4, -0.7]), h, c)
            c = c_new
        assert np.allclose(c, [0.3, -1.2, 2.5], atol=1e-12)

    def test_all_zero_params_hand_evaluation(self):
        # gates sigmoid(0)=0.5, candidate tanh(0)=0:
        # c_t = 0.5*c_prev, h_t = 0.5*tanh(0.5*c_prev)
        cell = recurrent.cell_template(recurrent.CELLS["lstm"], 2, 3)
        c_prev = np.array([1.0, -2.0, 0.5])
        h, c = step("lstm", cell, np.zeros(2), np.zeros(3), c_prev)
        assert np.allclose(c, 0.5 * c_prev)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev))

    def test_zero_everything_gives_zero_state(self):
        cell = recurrent.cell_template(recurrent.CELLS["lstm"], 2, 4)
        h, c = step("lstm", cell, np.zeros(2), np.zeros(4), np.zeros(4))
        assert np.all(h == 0.0) and np.all(c == 0.0)


class TestGruCell:
    def test_pinned_update_gate_keeps_previous_state(self):
        cell = recurrent.cell_template(recurrent.CELLS["gru"], 2, 3)
        block("gru", cell.b, "z")[...] += -60.0  # z = 0 -> h_t = h_prev
        h_prev = np.array([0.9, -0.4, 0.1])
        h = step("gru", cell, np.array([5.0, -3.0]), h_prev)
        assert np.allclose(h, h_prev, atol=1e-12)

    def test_full_update_with_zero_candidate_gives_zero(self):
        cell = recurrent.cell_template(recurrent.CELLS["gru"], 2, 3)
        block("gru", cell.b, "z")[...] += 60.0  # z = 1 -> h_t = candidate = tanh(0) = 0
        h = step("gru", cell, np.zeros(2), np.array([0.9, -0.4, 0.1]))
        assert np.allclose(h, 0.0, atol=1e-12)

    def test_all_zero_params_hand_evaluation(self):
        # r = z = 0.5, candidate tanh(0) = 0, h = 0.5*0 + 0.5*h_prev
        cell = recurrent.cell_template(recurrent.CELLS["gru"], 2, 3)
        h_prev = np.array([1.0, 2.0, 3.0])
        h = step("gru", cell, np.zeros(2), h_prev)
        assert np.allclose(h, 0.5 * h_prev)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_output_between_candidate_and_previous(self, seed):
        rng = Rng(seed)
        cell = new_cell("gru", 3, 4, rng)
        x = rng.uniform(-2, 2, (3,))
        h_prev = rng.uniform(-1, 1, (4,))
        h = step("gru", cell, x, h_prev)
        # the update gate does not enter the candidate: pinning it open
        # returns the candidate itself
        pinned = dataclasses.replace(cell, b=cell.b.copy())
        block("gru", pinned.b, "z")[...] += 60.0
        hc = step("gru", pinned, x, h_prev)
        lo = np.minimum(hc, h_prev)
        hi = np.maximum(hc, h_prev)
        assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)


class TestBiRnn:
    def test_all_zero_params_predicts_head_bias(self):
        for kind in ("lstm", "gru"):
            m = recurrent.init_birnn(kind, 3, 4, seed=2)
            zeroed(m.forward)
            zeroed(m.backward)
            m.W_head = np.zeros_like(m.W_head)
            m.b_head = np.array([0.77])
            window = Rng(3).uniform(0, 1, (5, 3))
            assert recurrent.birnn_forward_batch(m, window[None])[0] == pytest.approx(0.77)

    def test_head_consumes_double_hidden(self):
        m = recurrent.init_birnn("gru", 3, 6, seed=1)
        assert m.W_head.shape == (12, 1)
        h_f, h_b = recurrent.birnn_states(m, Rng(0).uniform(0, 1, (2, 4, 3)))
        assert h_f.shape == (2, 6) and h_b.shape == (2, 6)

    def test_reversed_window_swaps_direction_roles(self):
        # identical forward/backward cells: running the reversed window
        # exchanges the two final states
        m = recurrent.init_birnn("gru", 2, 3, seed=5)
        m.backward = dataclasses.replace(m.forward)
        window = Rng(6).uniform(0, 1, (4, 2))
        h_f, h_b = recurrent.birnn_states(m, window[None])
        h_f_rev, h_b_rev = recurrent.birnn_states(m, window[::-1].copy()[None])
        assert np.allclose(h_f_rev, h_b)
        assert np.allclose(h_b_rev, h_f)

    def test_perturbing_backward_cell_leaves_forward_state_alone(self):
        m = recurrent.init_birnn("lstm", 3, 4, seed=9)
        X = Rng(10).uniform(0, 1, (3, 5, 3))
        h_f_before, _ = recurrent.birnn_states(m, X)
        for f in dataclasses.fields(m.backward):
            setattr(m.backward, f.name,
                    getattr(m.backward, f.name) + 0.37)
        h_f_after, h_b_after = recurrent.birnn_states(m, X)
        assert np.array_equal(h_f_before, h_f_after)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_forward_keeps_no_per_step_history(self, kind):
        # inference holds only the running state: a per-step history of
        # T=30 steps would trace at least T times this bound
        n, T, d = 2000, 30, 16
        m = recurrent.init_birnn(kind, 3, d, seed=4)
        X = Rng(5).uniform(0, 1, (n, T, 3))
        tracemalloc.start()
        try:
            recurrent.birnn_forward_batch(m, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (4 * n * d * 8)

    def test_unknown_cell_kind_is_a_config_error(self):
        with pytest.raises(ConfigError, match="rnn"):
            recurrent.birnn_template("rnn", 3, 4)

    def test_input_feature_mismatch(self):
        m = recurrent.init_birnn("gru", 3, 4, seed=9)
        with pytest.raises(DimensionError):
            recurrent.birnn_forward_batch(m, np.zeros((1, 5, 2)))


def reference_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gate_blocks(kind, p, gate):
    """(input weight, recurrent weight, bias) of one gate."""
    return tuple(block(kind, a, gate) for a in (p.W_x, p.W_h, p.b))


def reference_lstm_step(p, x, h, c):
    W_fx, W_fh, b_f = gate_blocks("lstm", p, "f")
    W_ix, W_ih, b_i = gate_blocks("lstm", p, "i")
    W_cx, W_ch, b_c = gate_blocks("lstm", p, "c")
    W_ox, W_oh, b_o = gate_blocks("lstm", p, "o")
    f = reference_sigmoid(x @ W_fx + h @ W_fh + b_f)
    i = reference_sigmoid(x @ W_ix + h @ W_ih + b_i)
    cc = np.tanh(x @ W_cx + h @ W_ch + b_c)
    c = f * c + i * cc
    o = reference_sigmoid(x @ W_ox + h @ W_oh + b_o)
    return o * np.tanh(c), c


def reference_gru_step(p, x, h, c):
    W_rx, W_rh, b_r = gate_blocks("gru", p, "r")
    W_zx, W_zh, b_z = gate_blocks("gru", p, "z")
    W_x, W_h, b = gate_blocks("gru", p, "hc")
    r = reference_sigmoid(x @ W_rx + h @ W_rh + b_r)
    z = reference_sigmoid(x @ W_zx + h @ W_zh + b_z)
    hc = np.tanh(x @ W_x + (r * h) @ W_h + b)
    return z * hc + (1.0 - z) * h, c


REFERENCE_STEPS = {"lstm": reference_lstm_step, "gru": reference_gru_step}


def reference_birnn_predict(m, X):
    """The gate equations of the module docstring, one batch-major step at
    a time, with random (not pinned) weights."""
    step = REFERENCE_STEPS[m.cell_kind]
    finals = []
    for cell, steps in ((m.forward, range(X.shape[1])), (m.backward, range(X.shape[1] - 1, -1, -1))):
        h = c = np.zeros((X.shape[0], cell.W_h.shape[0]))
        for t in steps:
            h, c = step(cell, X[:, t], h, c)
        finals.append(h)
    return np.concatenate(finals, axis=1) @ m.W_head[:, 0] + m.b_head[0]


class TestReferenceEquations:
    # the sample-last kernel sums in another order than the textbook form,
    # so agreement is to float64 rounding, not bit for bit
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_inference_matches_reference(self, kind):
        # 600 windows cross the inference block boundary
        m = recurrent.init_birnn(kind, 2, 3, seed=31)
        rng = Rng(31)
        for cell in (m.forward, m.backward):
            cell.b = rng.uniform(-1, 1, cell.b.shape)
        X = Rng(32).uniform(-2, 2, (600, 4, 2))
        assert np.allclose(recurrent.birnn_forward_batch(m, X), reference_birnn_predict(m, X),
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_training_loss_matches_reference(self, kind):
        m = recurrent.init_birnn(kind, 2, 3, seed=33)
        rng = Rng(34)
        X = rng.uniform(-2, 2, (7, 5, 2))
        y = rng.uniform(-1, 1, (7,))
        loss, _ = recurrent.birnn_loss_and_grads(m, X, y)
        expected = float(np.mean((reference_birnn_predict(m, X) - y) ** 2))
        assert loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_cell_step_matches_reference(self, kind):
        rng = Rng(35)
        cell = new_cell(kind, 3, 4, rng)
        x, h, c = rng.uniform(-2, 2, (3,)), rng.uniform(-1, 1, (4,)), rng.uniform(-1, 1, (4,))
        h_ref, c_ref = REFERENCE_STEPS[kind](cell, x[None], h[None], c[None])
        if kind == "lstm":
            h_new, c_new = step("lstm", cell, x, h, c)
            assert np.allclose(c_new, c_ref[0], rtol=0.0, atol=1e-12)
        else:
            h_new = step("gru", cell, x, h)
        assert np.allclose(h_new, h_ref[0], rtol=0.0, atol=1e-12)


class TestInitLayout:
    @pytest.mark.parametrize("kind, draw_order", [("lstm", "fico"), ("gru", ("r", "z", "hc"))])
    def test_init_places_per_gate_draws_in_kernel_order(self, kind, draw_order):
        # each gate draws its Xavier input block, then its recurrent block,
        # in draw order; the blocks then sit in the kernel's gate order
        k, d, seed = 3, 4, 17
        m = recurrent.init_birnn(kind, k, d, seed)
        expected = {}
        for direction in ("forward", "backward"):
            rng = Rng(seed).derive(direction)
            drawn = {}
            for gate in draw_order:
                drawn[gate] = (xavier(rng, k, d), xavier(rng, d, d))
            expected[f"{direction}.W_x"] = np.hstack([drawn[g][0] for g in GATES[kind]])
            expected[f"{direction}.W_h"] = np.hstack([drawn[g][1] for g in GATES[kind]])
            expected[f"{direction}.b"] = np.zeros(len(GATES[kind]) * d)
        expected["W_head"] = xavier(Rng(seed).derive("head"), 2 * d, 1)
        expected["b_head"] = np.zeros(1)
        actual = named_arrays(m)
        assert list(actual) == list(expected)
        for name, a in expected.items():
            assert np.array_equal(actual[name], a), name


class TestBiRnnGradients:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("shape", [(3, 2, 2, 3), (5, 4, 3, 2)])  # n, T, k, d
    def test_bptt_matches_finite_differences(self, kind, shape):
        n, T, k, d = shape
        rng = Rng(zlib.crc32(repr((kind, shape)).encode()))
        X = rng.uniform(0, 1, (n, T, k))
        y = rng.uniform(0, 1, (n,))
        m = recurrent.init_birnn(kind, k, d, seed=13)

        err = grad_check(lambda: recurrent.birnn_loss_and_grads(m, X, y), named_arrays(m),
                         h=1e-5)
        assert err < 1e-4


class TestBiRnnTraining:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_memorizes_small_fixture(self, kind):
        data = make_window_set(8, 4, 2, seed=21)
        m = recurrent.init_birnn(kind, 2, 8, seed=22)
        trained, trace = recurrent.birnn_train(
            m, data, TrainConfig(epochs=500, lr=0.02, seed=23))
        final = float(np.mean(
            (recurrent.birnn_forward_batch(trained, data.X) - data.y) ** 2))
        assert final < 1e-3
        assert trace[-1] < trace[0]

    def test_zero_epochs_leaves_model_unchanged(self):
        data = make_window_set(4, 3, 2)
        m = recurrent.init_birnn("gru", 2, 4, seed=1)
        before = {name: a.copy() for name, a in named_arrays(m).items()}
        trained, trace = recurrent.birnn_train(m, data, TrainConfig(epochs=0))
        assert trace == []
        for name, a in named_arrays(trained).items():
            assert np.array_equal(before[name], a)

    def test_training_does_not_mutate_input_model(self):
        data = make_window_set(4, 3, 2)
        m = recurrent.init_birnn("gru", 2, 4, seed=1)
        before = {name: a.copy() for name, a in named_arrays(m).items()}
        recurrent.birnn_train(m, data, TrainConfig(epochs=5, lr=0.01))
        for name, a in named_arrays(m).items():
            assert np.array_equal(before[name], a)

    def test_deterministic_traces_and_parameters(self):
        data = make_window_set(6, 3, 3, seed=31)
        m = recurrent.init_birnn("lstm", 3, 5, seed=32)
        cfg = TrainConfig(epochs=40, lr=0.01, seed=33)
        t1, trace1 = recurrent.birnn_train(m, data, cfg)
        t2, trace2 = recurrent.birnn_train(m, data, cfg)
        assert trace1 == trace2
        p2 = named_arrays(t2)
        for name, a in named_arrays(t1).items():
            assert np.array_equal(a, p2[name])

    def test_empty_window_set_rejected(self):
        data = make_window_set(2, 3, 2)
        data.X = data.X[:0]
        data.y = data.y[:0]
        m = recurrent.init_birnn("gru", 2, 4, seed=1)
        with pytest.raises(SizeError):
            recurrent.birnn_train(m, data, TrainConfig(epochs=1))
