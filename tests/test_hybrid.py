import dataclasses
import datetime as dt
import tracemalloc

import numpy as np
import pytest

from cryptocast import hybrid
from cryptocast.data import NormStats, SeriesFrame, WindowSet
from cryptocast.errors import ConfigError, DimensionError, SizeError
from cryptocast.gradcheck import grad_check
from cryptocast.ops import FORWARD_CHUNK as B
from cryptocast.optim import TrainConfig
from cryptocast.params import named_arrays, with_arrays
from cryptocast.rng import Rng

SMALL = hybrid.HybridConfig(window=3, input_size=2, d_model=4, heads=2,
                            layers=1, d_ffn=8, d_gru=4)


def zero_model(config=SMALL, head_bias=0.0):
    m = hybrid.init_hybrid(config, seed=0)
    m.W_e = np.zeros_like(m.W_e)
    m.b_e = np.zeros_like(m.b_e)
    for layer in m.encoder_layers:
        layer.W_Q = np.zeros_like(layer.W_Q)
        layer.W_K = np.zeros_like(layer.W_K)
        layer.W_V = np.zeros_like(layer.W_V)
        layer.W_O = np.zeros_like(layer.W_O)
        layer.W_1 = np.zeros_like(layer.W_1)
        layer.b_1 = np.zeros_like(layer.b_1)
        layer.W_2 = np.zeros_like(layer.W_2)
        layer.b_2 = np.zeros_like(layer.b_2)
    for f in dataclasses.fields(m.gru):
        setattr(m.gru, f.name, np.zeros_like(getattr(m.gru, f.name)))
    m.W_p = np.zeros_like(m.W_p)
    m.b_p = np.array([head_bias])
    return m


def make_window_set(n, T, k, seed=0):
    rng = Rng(seed)
    start = dt.date(2021, 1, 1)
    return WindowSet(
        X=rng.uniform(0, 1, (n, T, k)), y=rng.uniform(0, 1, (n,)), window=T,
        target_dates=[start + dt.timedelta(days=i) for i in range(n)],
        feature_columns=["close", "volume"][:k], target_column="close",
    )


class TestEmbedding:
    def test_zero_window_zero_bias(self):
        W_e = Rng(1).uniform(-1, 1, (4, 3))
        out = hybrid._embed(np.zeros((1, 5, 3)), W_e, np.zeros(4))
        assert np.all(out == 0.0)

    def test_scalar_affine_case(self):
        out = hybrid._embed(np.array([[[0.5]]]), np.array([[2.0]]), np.array([1.0]))
        assert out[0, 0, 0] == 2.0

    def test_identical_timesteps_identical_rows(self):
        W_e = Rng(2).uniform(-1, 1, (4, 3))
        b_e = Rng(3).uniform(-1, 1, (4,))
        row = np.array([0.2, 0.4, 0.6])
        out = hybrid._embed(np.vstack([row, row])[None], W_e, b_e)
        assert np.array_equal(out[0, 0], out[0, 1])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            hybrid._embed(np.zeros((1, 5, 2)), np.zeros((4, 3)), np.zeros(4))


class TestPositionalEncoding:
    def test_position_zero_row(self):
        pe = hybrid.positional_encoding(4, 6)
        assert np.array_equal(pe[0, 0::2], np.zeros(3))
        assert np.array_equal(pe[0, 1::2], np.ones(3))

    def test_bounded_by_one(self):
        pe = hybrid.positional_encoding(50, 16)
        assert np.all(np.abs(pe) <= 1.0)

    def test_first_column_is_sin_of_position(self):
        for d in (2, 8, 32):
            pe = hybrid.positional_encoding(3, d)
            assert pe[1, 0] == pytest.approx(np.sin(1.0), abs=1e-15)
            assert pe[2, 0] == pytest.approx(np.sin(2.0), abs=1e-15)

    def test_frequency_formula(self):
        d = 8
        pe = hybrid.positional_encoding(5, d)
        for pos in range(5):
            for j in range(d // 2):
                angle = pos / 10000 ** (2 * j / d)
                assert pe[pos, 2 * j] == pytest.approx(np.sin(angle), abs=1e-15)
                assert pe[pos, 2 * j + 1] == pytest.approx(np.cos(angle), abs=1e-15)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            hybrid.positional_encoding(4, 5)


class TestAttention:
    def test_single_timestep_weight_is_one(self):
        m = hybrid.init_hybrid(SMALL, seed=4)
        maps = hybrid.attention_maps(m, Rng(5).uniform(0, 1, (1, 2)))
        for layer_map in maps:
            assert np.allclose(layer_map, 1.0)

    def test_identical_timesteps_uniform_attention(self):
        m = hybrid.init_hybrid(
            hybrid.HybridConfig(window=4, input_size=2, d_model=4, heads=2,
                                layers=1, d_ffn=8, d_gru=4), seed=6)
        layer = m.encoder_layers[0]
        H = np.tile(Rng(7).uniform(-1, 1, (1, 4)), (3, 1))
        _, (_, _, head_caches, _) = hybrid._mha_forward(H[None], layer)
        for (_, _, _, probs) in head_caches:
            assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_single_head_hand_oracle(self):
        # T=2, one head, hand-set 2x2 projections: compare against a direct
        # softmax(Q K^T / sqrt(d_k)) V evaluation written out separately
        layer = hybrid.EncoderLayerParams(
            W_Q=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
            W_K=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
            W_V=np.array([[[1.0, 2.0], [3.0, 4.0]]]),
            W_O=np.eye(2),
            W_1=np.zeros((2, 4)), b_1=np.zeros(4),
            W_2=np.zeros((4, 2)), b_2=np.zeros(2),
            ln1_gamma=np.ones(2), ln1_beta=np.zeros(2),
            ln2_gamma=np.ones(2), ln2_beta=np.zeros(2),
        )
        H = np.array([[1.0, 0.5], [-0.25, 2.0]])
        out = hybrid._mha_forward(H[None], layer)[0][0]

        Q = H @ layer.W_Q[0]
        K = H @ layer.W_K[0]
        V = H @ layer.W_V[0]
        scores = Q @ K.T / np.sqrt(2.0)
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = (probs @ V) @ layer.W_O
        assert np.allclose(out, expected, atol=1e-14)

    def test_probability_rows_sum_to_one_everywhere(self):
        cfg = hybrid.HybridConfig(window=6, input_size=3, d_model=8, heads=4,
                                  layers=3, d_ffn=16, d_gru=8)
        m = hybrid.init_hybrid(cfg, seed=8)
        maps = hybrid.attention_maps(m, Rng(9).uniform(0, 1, (6, 3)))
        assert len(maps) == 3
        for layer_map in maps:
            assert layer_map.shape == (4, 6, 6)
            assert np.all(np.abs(layer_map.sum(axis=-1) - 1.0) < 1e-12)


class TestEncoderLayer:
    def test_output_rows_have_layernorm_statistics(self):
        m = hybrid.init_hybrid(SMALL, seed=10)
        layer = m.encoder_layers[0]
        out = hybrid._encoder_layer_forward(Rng(11).uniform(-1, 1, (3, 4))[None], layer)[0][0]
        assert np.all(np.abs(out.mean(axis=1)) < 1e-8)
        assert np.all(np.abs((out**2).mean(axis=1) - 1.0) < 1e-4)

    def test_zero_ffn_reduces_to_single_norm_chain(self):
        m = hybrid.init_hybrid(SMALL, seed=12)
        layer = m.encoder_layers[0]
        layer.W_1 = np.zeros_like(layer.W_1)
        layer.b_1 = np.zeros_like(layer.b_1)
        layer.W_2 = np.zeros_like(layer.W_2)
        layer.b_2 = np.zeros_like(layer.b_2)
        from cryptocast.ops import layer_norm
        H = Rng(13).uniform(-1, 1, (3, 4))
        attn = hybrid._mha_forward(H[None], layer)[0][0]
        h_attn = layer_norm(H + attn, layer.ln1_gamma, layer.ln1_beta,
                            hybrid.LAYER_NORM_EPS)
        expected = layer_norm(h_attn, layer.ln2_gamma, layer.ln2_beta,
                              hybrid.LAYER_NORM_EPS)
        out = hybrid._encoder_layer_forward(H[None], layer)[0][0]
        assert np.allclose(out, expected, atol=1e-14)

    def test_against_independent_reimplementation(self):
        # a from-first-principles rewrite of the whole layer (loops, no
        # shared helpers) must agree with the production path
        m = hybrid.init_hybrid(
            hybrid.HybridConfig(window=2, input_size=2, d_model=4, heads=2,
                                layers=1, d_ffn=8, d_gru=4), seed=14)
        layer = m.encoder_layers[0]
        H = Rng(15).uniform(-1, 1, (2, 4))

        def softmax_row(v):
            e = np.exp(v - v.max())
            return e / e.sum()

        def norm_row(v, gamma, beta):
            mu = v.mean()
            var = ((v - mu) ** 2).mean()
            return gamma * (v - mu) / np.sqrt(var + hybrid.LAYER_NORM_EPS) + beta

        heads = []
        for w_q, w_k, w_v in zip(layer.W_Q, layer.W_K, layer.W_V):
            Q, K, V = H @ w_q, H @ w_k, H @ w_v
            head = np.zeros_like(Q)
            for t in range(H.shape[0]):
                weights = softmax_row(Q[t] @ K.T / np.sqrt(w_q.shape[1]))
                head[t] = weights @ V
            heads.append(head)
        mh = np.concatenate(heads, axis=1) @ layer.W_O
        h_attn = np.vstack([
            norm_row(H[t] + mh[t], layer.ln1_gamma, layer.ln1_beta)
            for t in range(H.shape[0])
        ])
        ffn = np.maximum(h_attn @ layer.W_1 + layer.b_1, 0.0) @ layer.W_2 + layer.b_2
        expected = np.vstack([
            norm_row(h_attn[t] + ffn[t], layer.ln2_gamma, layer.ln2_beta)
            for t in range(H.shape[0])
        ])

        out = hybrid._encoder_layer_forward(H[None], layer)[0][0]
        assert np.allclose(out, expected, atol=1e-12)


class TestHybridForward:
    def test_all_zero_params_predicts_head_bias(self):
        m = zero_model(head_bias=0.625)
        window = Rng(16).uniform(0, 1, (3, 2))
        assert hybrid.hybrid_forward_batch(m, window[None])[0] == pytest.approx(0.625)

    def test_scalar_output_for_any_window_length(self):
        m = hybrid.init_hybrid(SMALL, seed=17)
        for T in (1, 3, 6, 12):
            out = hybrid.hybrid_forward_batch(m, Rng(T).uniform(0, 1, (1, T, 2)))
            assert out.shape == (1,)

    def test_feature_mismatch(self):
        m = hybrid.init_hybrid(SMALL, seed=18)
        with pytest.raises(DimensionError):
            hybrid.hybrid_forward_batch(m, np.zeros((1, 3, 5)))

    def test_invalid_head_split_rejected(self):
        with pytest.raises(ConfigError):
            hybrid.HybridConfig(window=3, input_size=2, d_model=30, heads=4,
                                layers=1, d_ffn=8, d_gru=4).validate()

    def test_odd_d_model_rejected(self):
        with pytest.raises(ConfigError):
            hybrid.HybridConfig(window=3, input_size=2, d_model=7, heads=1,
                                layers=1, d_ffn=8, d_gru=4).validate()

    def test_permutation_sensitivity_with_positions(self):
        m = hybrid.init_hybrid(SMALL, seed=19)
        window = Rng(20).uniform(0, 1, (3, 2))
        permuted = window[[2, 0, 1]]
        assert hybrid.hybrid_forward_batch(m, window[None])[0] != pytest.approx(
            hybrid.hybrid_forward_batch(m, permuted[None])[0], abs=1e-9)

    def test_encoder_is_permutation_equivariant_without_positions(self):
        # with the positional encoding removed and a mean-pool readout, the
        # encoder treats the window as a set: permuting rows permutes the
        # outputs and leaves the pooled vector unchanged
        m = hybrid.init_hybrid(SMALL, seed=21)
        window = Rng(22).uniform(0, 1, (3, 2))
        perm = [2, 0, 1]
        enc = hybrid.encode_window(m, window, add_positional=False)
        enc_perm = hybrid.encode_window(m, window[perm], add_positional=False)
        assert np.allclose(enc[perm], enc_perm, atol=1e-12)
        assert np.allclose(enc.mean(axis=0), enc_perm.mean(axis=0), atol=1e-12)

    def test_positional_encoding_is_the_only_order_source(self):
        m = hybrid.init_hybrid(SMALL, seed=23)
        window = Rng(24).uniform(0, 1, (3, 2))
        perm = [1, 2, 0]
        with_pe = hybrid.encode_window(m, window, add_positional=True)
        with_pe_perm = hybrid.encode_window(m, window[perm], add_positional=True)
        # with positions added, equivariance breaks generically
        assert not np.allclose(with_pe[perm], with_pe_perm, atol=1e-9)


class TestBlockedInference:
    """Inference runs in blocks of FORWARD_CHUNK windows through one reused
    set of buffers; no window may see another's block or a stale layer."""

    DEEP = hybrid.HybridConfig(window=5, input_size=2, d_model=4, heads=2,
                               layers=3, d_ffn=6, d_gru=3)

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_blocks_equal_single_window_calls(self, n):
        m = hybrid.init_hybrid(self.DEEP, seed=30)
        X = Rng(n).uniform(-1, 1, (n, 5, 2))
        single = np.array([hybrid.hybrid_forward_batch(m, X[i:i + 1])[0] for i in range(n)])
        assert np.allclose(hybrid.hybrid_forward_batch(m, X), single, rtol=0.0, atol=1e-12)

    def test_layers_sharing_a_slot_match_the_training_pass(self):
        # three layers over two inference slots, so the third writes over
        # the first's buffers; the training pass keeps one slot per layer
        # and must give the same error
        rng = Rng(34)
        X = rng.uniform(-1, 1, (B + 1, 5, 2))
        y = rng.uniform(-1, 1, (B + 1,))
        m = hybrid.init_hybrid(self.DEEP, seed=35)
        loss, _ = hybrid.hybrid_loss_and_grads(m, X, y)
        expected = float(np.mean((hybrid.hybrid_forward_batch(m, X) - y) ** 2))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_empty_batch(self):
        m = hybrid.init_hybrid(self.DEEP, seed=31)
        out = hybrid.hybrid_forward_batch(m, np.zeros((0, 5, 2)))
        assert out.shape == (0,)

    @pytest.mark.parametrize("n", [0, 1, B + 1])
    def test_feature_mismatch_at_any_size(self, n):
        m = hybrid.init_hybrid(self.DEEP, seed=32)
        with pytest.raises(DimensionError):
            hybrid.hybrid_forward_batch(m, np.zeros((n, 5, 3)))

    def test_working_set_does_not_grow_with_n(self):
        # the whole batch at once would trace four times the peak at N=4,000
        m = hybrid.init_hybrid(hybrid.HybridConfig(window=10, input_size=3, d_model=8, heads=2,
                                                   layers=2, d_ffn=16, d_gru=8), seed=33)
        peaks = {}
        for n in (1000, 4000):
            X = Rng(n).uniform(0, 1, (n, 10, 3))
            tracemalloc.start()
            try:
                hybrid.hybrid_forward_batch(m, X)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] < 1.25 * peaks[1000]


class TestHybridGradients:
    def test_full_model_gradient_check(self):
        rng = Rng(25)
        X = rng.uniform(0, 1, (4, 3, 2))
        y = rng.uniform(0, 1, (4,))
        m = hybrid.init_hybrid(SMALL, seed=26)

        def lg(params):
            return hybrid.hybrid_loss_and_grads(with_arrays(m, params), X, y)

        err = grad_check(lg, named_arrays(m), h=1e-5)
        assert err < 1e-4

    def test_two_layer_gradient_check(self):
        cfg = hybrid.HybridConfig(window=2, input_size=2, d_model=4, heads=2,
                                  layers=2, d_ffn=4, d_gru=3)
        rng = Rng(27)
        X = rng.uniform(0, 1, (3, 2, 2))
        y = rng.uniform(0, 1, (3,))
        m = hybrid.init_hybrid(cfg, seed=28)

        def lg(params):
            return hybrid.hybrid_loss_and_grads(with_arrays(m, params), X, y)

        err = grad_check(lg, named_arrays(m), h=1e-5)
        assert err < 1e-4

    def test_training_loss_matches_inference(self):
        # the training pass writes its encoder and GRU activations into
        # buffers and reuses them in place; its loss must still be the
        # inference pass's error (600 windows cross its block boundary)
        cfg = hybrid.HybridConfig(window=3, input_size=2, d_model=4, heads=2,
                                  layers=2, d_ffn=6, d_gru=3)
        rng = Rng(35)
        X = rng.uniform(0, 1, (600, 3, 2))
        y = rng.uniform(0, 1, (600,))
        m = hybrid.init_hybrid(cfg, seed=36)
        loss, _ = hybrid.hybrid_loss_and_grads(m, X, y)
        expected = float(np.mean((hybrid.hybrid_forward_batch(m, X) - y) ** 2))
        assert loss == pytest.approx(expected, rel=1e-12)


class TestHybridTraining:
    def test_memorizes_small_fixture(self):
        cfg = hybrid.HybridConfig(window=4, input_size=2, d_model=8, heads=2,
                                  layers=1, d_ffn=16, d_gru=8)
        data = make_window_set(8, 4, 2, seed=29)
        m = hybrid.init_hybrid(cfg, seed=30)
        trained, trace = hybrid.hybrid_train(
            m, data, TrainConfig(epochs=500, lr=0.01, seed=31))
        final = float(np.mean(
            (hybrid.hybrid_forward_batch(trained, data.X) - data.y) ** 2))
        assert final < 1e-3

    def test_deterministic_training(self):
        data = make_window_set(5, 3, 2, seed=32)
        m = hybrid.init_hybrid(SMALL, seed=33)
        cfg = TrainConfig(epochs=25, lr=0.01, seed=34)
        t1, trace1 = hybrid.hybrid_train(m, data, cfg)
        t2, trace2 = hybrid.hybrid_train(m, data, cfg)
        assert trace1 == trace2
        p2 = named_arrays(t2)
        for name, a in named_arrays(t1).items():
            assert np.array_equal(a, p2[name])

    def test_empty_data_rejected(self):
        data = make_window_set(2, 3, 2)
        data.X = data.X[:0]
        data.y = data.y[:0]
        with pytest.raises(SizeError):
            hybrid.hybrid_train(hybrid.init_hybrid(SMALL, seed=1), data,
                                TrainConfig(epochs=1))


class TestPredictSeries:
    def _frame_and_stats(self, n=10):
        dates = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(n)]
        rng = Rng(35)
        values = np.column_stack([
            np.linspace(10_000.0, 70_000.0, n),
            rng.uniform(1e6, 2e6, (n,)),
        ])
        frame = SeriesFrame.build(dates, ["close", "volume"], values)
        stats = NormStats(["close", "volume"],
                          np.array([10_000.0, 1e6]), np.array([70_000.0, 2e6]))
        return frame, stats

    def test_denormalization_endpoints(self):
        frame, stats = self._frame_and_stats()
        m = zero_model(hybrid.HybridConfig(window=3, input_size=2, d_model=4,
                                           heads=2, layers=1, d_ffn=8, d_gru=4),
                       head_bias=0.0)
        forecast = hybrid.predict_series(m, frame, stats, window=3)
        assert np.allclose(forecast.predicted, 10_000.0)  # normalized 0 -> min
        m.b_p = np.array([1.0])
        forecast = hybrid.predict_series(m, frame, stats, window=3)
        assert np.allclose(forecast.predicted, 70_000.0)  # normalized 1 -> max

    def test_window_enumeration_count(self):
        frame, stats = self._frame_and_stats(n=6)  # T + 3 rows
        m = hybrid.init_hybrid(SMALL, seed=36)
        forecast = hybrid.predict_series(m, frame, stats, window=3)
        assert len(forecast.predicted) == 3
        assert forecast.dates == frame.dates[3:]

    def test_round_trip_normalization(self):
        frame, stats = self._frame_and_stats()
        m = hybrid.init_hybrid(SMALL, seed=37)
        forecast = hybrid.predict_series(m, frame, stats, window=3)
        lo, hi = stats.for_column("close")
        renormalized = (forecast.predicted - lo) / (hi - lo)
        from cryptocast.data import apply_minmax, make_windows
        ws = make_windows(apply_minmax(frame, stats), 3, "close")
        raw = hybrid.hybrid_forward_batch(m, ws.X)
        assert np.all(np.abs(renormalized - raw) < 1e-10)

    def test_frame_too_short(self):
        frame, stats = self._frame_and_stats(n=3)
        m = hybrid.init_hybrid(SMALL, seed=38)
        with pytest.raises(SizeError):
            hybrid.predict_series(m, frame, stats, window=3)
