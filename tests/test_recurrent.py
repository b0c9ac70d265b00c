import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocast import recurrent
from cryptocast.data import WindowSet
from cryptocast.errors import DimensionError, SizeError
from cryptocast.gradcheck import grad_check
from cryptocast.optim import TrainConfig
from cryptocast.params import named_arrays, with_arrays
from cryptocast.rng import Rng


def zeroed(cell):
    for f in dataclasses.fields(cell):
        setattr(cell, f.name, np.zeros_like(getattr(cell, f.name)))
    return cell


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
        cell = zeroed(recurrent.init_cell(recurrent.LstmCellParams, 2, 3, Rng(1)))
        cell.b_f += 60.0   # forget gate pinned at 1
        cell.b_i += -60.0  # input gate pinned at 0
        c = np.array([0.3, -1.2, 2.5])
        h = np.zeros(3)
        for _ in range(200):
            h, c_new = recurrent.lstm_cell_step(cell, np.array([0.4, -0.7]), h, c)
            c = c_new
        assert np.allclose(c, [0.3, -1.2, 2.5], atol=1e-12)

    def test_all_zero_params_hand_evaluation(self):
        # gates sigmoid(0)=0.5, candidate tanh(0)=0:
        # c_t = 0.5*c_prev, h_t = 0.5*tanh(0.5*c_prev)
        cell = zeroed(recurrent.init_cell(recurrent.LstmCellParams, 2, 3, Rng(1)))
        c_prev = np.array([1.0, -2.0, 0.5])
        h, c = recurrent.lstm_cell_step(cell, np.zeros(2), np.zeros(3), c_prev)
        assert np.allclose(c, 0.5 * c_prev)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev))

    def test_zero_everything_gives_zero_state(self):
        cell = zeroed(recurrent.init_cell(recurrent.LstmCellParams, 2, 4, Rng(1)))
        h, c = recurrent.lstm_cell_step(cell, np.zeros(2), np.zeros(4), np.zeros(4))
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_dimension_mismatch(self):
        cell = recurrent.init_cell(recurrent.LstmCellParams, 2, 3, Rng(1))
        with pytest.raises(DimensionError):
            recurrent.lstm_cell_step(cell, np.zeros(3), np.zeros(3), np.zeros(3))


class TestGruCell:
    def test_pinned_update_gate_keeps_previous_state(self):
        cell = zeroed(recurrent.init_cell(recurrent.GruCellParams, 2, 3, Rng(1)))
        cell.b_z += -60.0  # z = 0 -> h_t = h_prev
        h_prev = np.array([0.9, -0.4, 0.1])
        h = recurrent.gru_cell_step(cell, np.array([5.0, -3.0]), h_prev)
        assert np.allclose(h, h_prev, atol=1e-12)

    def test_full_update_with_zero_candidate_gives_zero(self):
        cell = zeroed(recurrent.init_cell(recurrent.GruCellParams, 2, 3, Rng(1)))
        cell.b_z += 60.0  # z = 1 -> h_t = candidate = tanh(0) = 0
        h = recurrent.gru_cell_step(cell, np.zeros(2), np.array([0.9, -0.4, 0.1]))
        assert np.allclose(h, 0.0, atol=1e-12)

    def test_all_zero_params_hand_evaluation(self):
        # r = z = 0.5, candidate tanh(0) = 0, h = 0.5*0 + 0.5*h_prev
        cell = zeroed(recurrent.init_cell(recurrent.GruCellParams, 2, 3, Rng(1)))
        h_prev = np.array([1.0, 2.0, 3.0])
        h = recurrent.gru_cell_step(cell, np.zeros(2), h_prev)
        assert np.allclose(h, 0.5 * h_prev)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_output_between_candidate_and_previous(self, seed):
        rng = Rng(seed)
        cell = recurrent.init_cell(recurrent.GruCellParams, 3, 4, rng)
        x = rng.uniform(-2, 2, (3,))
        h_prev = rng.uniform(-1, 1, (4,))
        h, cache = recurrent._gru_step(cell, x[None], h_prev[None])
        hc = cache[5][0]
        lo = np.minimum(hc, h_prev)
        hi = np.maximum(hc, h_prev)
        assert np.all(h[0] >= lo - 1e-12) and np.all(h[0] <= hi + 1e-12)


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

    def test_input_feature_mismatch(self):
        m = recurrent.init_birnn("gru", 3, 4, seed=9)
        with pytest.raises(DimensionError):
            recurrent.birnn_forward_batch(m, np.zeros((1, 5, 2)))


class TestBiRnnGradients:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("shape", [(3, 2, 2, 3), (5, 4, 3, 2)])  # n, T, k, d
    def test_bptt_matches_finite_differences(self, kind, shape):
        n, T, k, d = shape
        rng = Rng(hash((kind, shape)) % (2**32))
        X = rng.uniform(0, 1, (n, T, k))
        y = rng.uniform(0, 1, (n,))
        m = recurrent.init_birnn(kind, k, d, seed=13)

        def lg(params):
            return recurrent.birnn_loss_and_grads(with_arrays(m, params), X, y)

        err = grad_check(lg, named_arrays(m), h=1e-5)
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
