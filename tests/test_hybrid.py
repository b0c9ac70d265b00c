import dataclasses
import datetime as dt
import tracemalloc

import numpy as np
import pytest

from cryptocast import cli, hybrid
from cryptocast.bundle import ModelBundle, save_bundle
from cryptocast.config import check_setting
from cryptocast.data import (NormStats, SeriesFrame, WindowSet, apply_minmax, load_series,
                             make_windows, write_series_csv)
from cryptocast.errors import ConfigError, DimensionError, SizeError
from cryptocast.gradcheck import grad_check
from cryptocast.ops import FORWARD_CHUNK as B
from cryptocast.ops import layer_norm_with_cache, xavier
from cryptocast.params import named_arrays
from cryptocast.rng import Rng

def section(**keys):
    """A resolved `models.hybrid` section: `keys` over the schema's defaults."""
    return check_setting("models.hybrid", keys, "hybrid")


SMALL = section(d_model=4, heads=2, layers=1, d_ffn=8, d_gru=4)


def zero_model(hyper=SMALL, head_bias=0.0):
    m = hybrid.init_hybrid(hyper, 2, seed=0)
    m.W_e = np.zeros_like(m.W_e)
    m.b_e = np.zeros_like(m.b_e)
    for layer in m.encoder_layers:
        layer.W_QKV = np.zeros_like(layer.W_QKV)
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


def head_blocks(layer, heads):
    """Each head's (W_q, W_k, W_v) columns of the stacked projection, which
    holds every head's queries, then every head's keys, then the values."""
    dk = layer.W_QKV.shape[1] // (3 * heads)

    def cols(part, h):
        start = (part * heads + h) * dk
        return layer.W_QKV[:, start:start + dk]

    return [(cols(0, h), cols(1, h), cols(2, h)) for h in range(heads)]


def attention_probs(m, window):
    """Per-layer attention probabilities (heads, T, T) of one window, read
    from the `_mha_forward` caches the batched encoder keeps for backward."""
    _, layer_caches = hybrid._encode(m, window[None])
    return [probs[0] for (*_, probs, _), *_ in layer_caches]


def encode(m, window, positional):
    """Encoder output (T, d) of one window, with or without positions."""
    H = hybrid._embed(window[None], m.W_e, m.b_e)
    if positional:
        H = H + hybrid.positional_encoding(window.shape[0], len(m.b_e))
    for layer in m.encoder_layers:
        H, _ = hybrid._encoder_layer_forward(H, layer, m.heads)
    return H[0]


# four heads of width 2 over two layers, with d_ffn != d_model: a head or
# column mix-up in the stacked Q/K/V projection shows at these sizes
MULTI = section(d_model=8, heads=4, layers=2, d_ffn=6, d_gru=3)


def textbook_encode(m, X):
    """Encoder output of every window in X, written out from the definitions:
    a loop over windows and heads, exp-softmax and two-pass LayerNorm."""
    T, d = X.shape[1], len(m.b_e)
    pe = np.zeros((T, d))
    for pos in range(T):
        for j in range(d // 2):
            angle = pos / 10000.0 ** (2 * j / d)
            pe[pos, 2 * j], pe[pos, 2 * j + 1] = np.sin(angle), np.cos(angle)

    def norm(v, gamma, beta):
        mu = v.sum(axis=1, keepdims=True) / d
        var = ((v - mu) ** 2).sum(axis=1, keepdims=True) / d
        return gamma * (v - mu) / np.sqrt(var + hybrid.LAYER_NORM_EPS) + beta

    out = []
    for x in X:
        H = x @ m.W_e.T + m.b_e + pe
        for layer in m.encoder_layers:
            heads = []
            for w_q, w_k, w_v in head_blocks(layer, m.heads):
                Q, K, V = H @ w_q, H @ w_k, H @ w_v
                scores = Q @ K.T / np.sqrt(d // m.heads)
                weights = np.exp(scores - scores.max(axis=1, keepdims=True))
                weights /= weights.sum(axis=1, keepdims=True)
                heads.append(weights @ V)
            H = norm(H + np.hstack(heads) @ layer.W_O, layer.ln1_gamma, layer.ln1_beta)
            ffn = np.maximum(H @ layer.W_1 + layer.b_1, 0.0) @ layer.W_2 + layer.b_2
            H = norm(H + ffn, layer.ln2_gamma, layer.ln2_beta)
        out.append(H)
    return np.array(out)


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
        m = hybrid.init_hybrid(SMALL, 2, seed=4)
        maps = attention_probs(m, Rng(5).uniform(0, 1, (1, 2)))
        for layer_map in maps:
            assert np.allclose(layer_map, 1.0)

    def test_identical_timesteps_uniform_attention(self):
        m = hybrid.init_hybrid(section(d_model=4, heads=2, layers=1, d_ffn=8, d_gru=4),
                               2, seed=6)
        layer = m.encoder_layers[0]
        H = np.tile(Rng(7).uniform(-1, 1, (1, 4)), (3, 1))
        _, (*_, head_probs, _) = hybrid._mha_forward(H[None], layer, m.heads)
        for probs in head_probs[0]:
            assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_single_head_hand_oracle(self):
        # T=2, one head, hand-set 2x2 projections: compare against a direct
        # softmax(Q K^T / sqrt(d_k)) V evaluation written out separately
        W_q = np.array([[1.0, 0.0], [0.0, 1.0]])
        W_k = np.array([[0.0, 1.0], [1.0, 0.0]])
        W_v = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer = hybrid.EncoderLayerParams(
            W_QKV=np.hstack([W_q, W_k, W_v]),
            W_O=np.eye(2),
            W_1=np.zeros((2, 4)), b_1=np.zeros(4),
            W_2=np.zeros((4, 2)), b_2=np.zeros(2),
            ln1_gamma=np.ones(2), ln1_beta=np.zeros(2),
            ln2_gamma=np.ones(2), ln2_beta=np.zeros(2),
        )
        H = np.array([[1.0, 0.5], [-0.25, 2.0]])
        out = hybrid._mha_forward(H[None], layer, 1)[0][0]

        Q = H @ W_q
        K = H @ W_k
        V = H @ W_v
        scores = Q @ K.T / np.sqrt(2.0)
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = (probs @ V) @ layer.W_O
        assert np.allclose(out, expected, atol=1e-14)

    def test_probability_rows_sum_to_one_everywhere(self):
        cfg = section(d_model=8, heads=4, layers=3, d_ffn=16, d_gru=8)
        m = hybrid.init_hybrid(cfg, 3, seed=8)
        maps = attention_probs(m, Rng(9).uniform(0, 1, (6, 3)))
        assert len(maps) == 3
        for layer_map in maps:
            assert layer_map.shape == (4, 6, 6)
            assert np.all(np.abs(layer_map.sum(axis=-1) - 1.0) < 1e-12)


class TestMultiHead:
    def test_encode_matches_textbook_forward(self):
        m = hybrid.init_hybrid(MULTI, 2, seed=40)
        X = Rng(41).uniform(-1, 1, (5, 3, 2))
        H, _ = hybrid._encode(m, X)
        assert np.allclose(H, textbook_encode(m, X), rtol=0.0, atol=1e-12)


class TestEncoderLayer:
    def test_output_rows_have_layernorm_statistics(self):
        m = hybrid.init_hybrid(SMALL, 2, seed=10)
        layer = m.encoder_layers[0]
        out = hybrid._encoder_layer_forward(Rng(11).uniform(-1, 1, (3, 4))[None], layer,
                                            SMALL["heads"])[0][0]
        assert np.all(np.abs(out.mean(axis=1)) < 1e-8)
        assert np.all(np.abs((out**2).mean(axis=1) - 1.0) < 1e-4)

    def test_zero_ffn_reduces_to_single_norm_chain(self):
        m = hybrid.init_hybrid(SMALL, 2, seed=12)
        layer = m.encoder_layers[0]
        layer.W_1 = np.zeros_like(layer.W_1)
        layer.b_1 = np.zeros_like(layer.b_1)
        layer.W_2 = np.zeros_like(layer.W_2)
        layer.b_2 = np.zeros_like(layer.b_2)
        H = Rng(13).uniform(-1, 1, (3, 4))
        attn = hybrid._mha_forward(H[None], layer, SMALL["heads"])[0][0]
        h_attn, _ = layer_norm_with_cache(H + attn, layer.ln1_gamma, layer.ln1_beta,
                                          hybrid.LAYER_NORM_EPS)
        expected, _ = layer_norm_with_cache(h_attn, layer.ln2_gamma, layer.ln2_beta,
                                            hybrid.LAYER_NORM_EPS)
        out = hybrid._encoder_layer_forward(H[None], layer, SMALL["heads"])[0][0]
        assert np.allclose(out, expected, atol=1e-14)

    def test_against_independent_reimplementation(self):
        # a from-first-principles rewrite of the whole layer (loops, no
        # shared helpers) must agree with the production path
        m = hybrid.init_hybrid(section(d_model=4, heads=2, layers=1, d_ffn=8, d_gru=4),
                               2, seed=14)
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
        for w_q, w_k, w_v in head_blocks(layer, 2):
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

        out = hybrid._encoder_layer_forward(H[None], layer, 2)[0][0]
        assert np.allclose(out, expected, atol=1e-12)


class TestHybridForward:
    def test_all_zero_params_predicts_head_bias(self):
        m = zero_model(head_bias=0.625)
        window = Rng(16).uniform(0, 1, (3, 2))
        assert hybrid.hybrid_forward_batch(m, window[None])[0] == pytest.approx(0.625)

    def test_scalar_output_for_any_window_length(self):
        m = hybrid.init_hybrid(SMALL, 2, seed=17)
        for T in (1, 3, 6, 12):
            out = hybrid.hybrid_forward_batch(m, Rng(T).uniform(0, 1, (1, T, 2)))
            assert out.shape == (1,)

    def test_feature_mismatch(self):
        m = hybrid.init_hybrid(SMALL, 2, seed=18)
        with pytest.raises(DimensionError):
            hybrid.hybrid_forward_batch(m, np.zeros((1, 3, 5)))

    def test_invalid_head_split_rejected(self):
        hyper = section(d_model=30, heads=4, layers=1, d_ffn=8, d_gru=4)
        with pytest.raises(ConfigError, match="d_model=30 is not divisible by heads=4"):
            hybrid.check_shape(hyper)
        with pytest.raises(ConfigError, match="not divisible"):
            hybrid.hybrid_template(hyper, 2)

    def test_odd_d_model_rejected(self):
        hyper = section(d_model=7, heads=1, layers=1, d_ffn=8, d_gru=4)
        with pytest.raises(ConfigError, match="d_model must be even for the sin/cos interleave"):
            hybrid.check_shape(hyper)
        with pytest.raises(ConfigError, match="must be even"):
            hybrid.init_hybrid(hyper, 2, seed=0)

    def test_permutation_sensitivity_with_positions(self):
        m = hybrid.init_hybrid(SMALL, 2, seed=19)
        window = Rng(20).uniform(0, 1, (3, 2))
        permuted = window[[2, 0, 1]]
        assert hybrid.hybrid_forward_batch(m, window[None])[0] != pytest.approx(
            hybrid.hybrid_forward_batch(m, permuted[None])[0], abs=1e-9)

    def test_encoder_is_permutation_equivariant_without_positions(self):
        # with the positional encoding removed and a mean-pool readout, the
        # encoder treats the window as a set: permuting rows permutes the
        # outputs and leaves the pooled vector unchanged
        m = hybrid.init_hybrid(SMALL, 2, seed=21)
        window = Rng(22).uniform(0, 1, (3, 2))
        perm = [2, 0, 1]
        enc = encode(m, window, positional=False)
        enc_perm = encode(m, window[perm], positional=False)
        assert np.allclose(enc[perm], enc_perm, atol=1e-12)
        assert np.allclose(enc.mean(axis=0), enc_perm.mean(axis=0), atol=1e-12)

    def test_positional_encoding_is_the_only_order_source(self):
        m = hybrid.init_hybrid(SMALL, 2, seed=23)
        window = Rng(24).uniform(0, 1, (3, 2))
        perm = [1, 2, 0]
        with_pe = encode(m, window, positional=True)
        with_pe_perm = encode(m, window[perm], positional=True)
        # with positions added, equivariance breaks generically
        assert not np.allclose(with_pe[perm], with_pe_perm, atol=1e-9)


# four heads over 30 steps: encoder blocks of 64 windows inside read-out
# blocks of FORWARD_CHUNK
LONG = section(d_model=8, heads=4, layers=2, d_ffn=6, d_gru=3)
BE = hybrid.block_rows(LONG["heads"], 30)


class TestBlockedInference:
    """Inference runs the GRU read-out in blocks of FORWARD_CHUNK windows and
    the encoder in blocks of `block_rows`, through one reused set of buffers;
    no window may see another's block or a stale layer."""

    DEEP = section(d_model=4, heads=2, layers=3, d_ffn=6, d_gru=3)

    def test_block_rule(self):
        assert BE == 64
        assert hybrid.block_rows(self.DEEP["heads"], 5) == B
        assert hybrid.block_rows(64, 1000) == 1

    @staticmethod
    def assert_blocks_equal_single_window_calls(hyper, T, n, seed):
        m = hybrid.init_hybrid(hyper, 2, seed=seed)
        X = Rng(n).uniform(-1, 1, (n, T, 2))
        single = np.array([hybrid.hybrid_forward_batch(m, X[i:i + 1])[0] for i in range(n)])
        assert np.allclose(hybrid.hybrid_forward_batch(m, X), single, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_blocks_equal_single_window_calls(self, n):
        self.assert_blocks_equal_single_window_calls(self.DEEP, 5, n, seed=30)

    @pytest.mark.parametrize("n", [1, BE - 1, BE, BE + 1, 2 * BE + 3, B + 1])
    def test_encoder_blocks_equal_single_window_calls(self, n):
        self.assert_blocks_equal_single_window_calls(LONG, 30, n, seed=37)

    def test_layers_sharing_a_slot_match_the_training_pass(self):
        # three layers over two inference slots, so the third writes over
        # the first's buffers; the training pass keeps one slot per layer
        # and must give the same error
        rng = Rng(34)
        X = rng.uniform(-1, 1, (B + 1, 5, 2))
        y = rng.uniform(-1, 1, (B + 1,))
        m = hybrid.init_hybrid(self.DEEP, 2, seed=35)
        loss, _ = hybrid.hybrid_loss_and_grads(m, X, y)
        expected = float(np.mean((hybrid.hybrid_forward_batch(m, X) - y) ** 2))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_empty_batch(self):
        m = hybrid.init_hybrid(self.DEEP, 2, seed=31)
        out = hybrid.hybrid_forward_batch(m, np.zeros((0, 5, 2)))
        assert out.shape == (0,)

    @pytest.mark.parametrize("n", [0, 1, B + 1])
    def test_feature_mismatch_at_any_size(self, n):
        m = hybrid.init_hybrid(self.DEEP, 2, seed=32)
        with pytest.raises(DimensionError):
            hybrid.hybrid_forward_batch(m, np.zeros((n, 5, 3)))

    def test_working_set_does_not_grow_with_n(self):
        # the whole batch at once would trace four times the peak at N=4,000
        m = hybrid.init_hybrid(section(d_model=8, heads=2, layers=2, d_ffn=16, d_gru=8),
                               3, seed=33)
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


class TestInitLayout:
    def test_init_places_per_head_draws_in_the_stacked_layout(self):
        # every head's q, k and v block comes from its own derived stream;
        # the blocks sit as all queries, then all keys, then all values
        seed, cfg, k = 9, MULTI, 2
        d, dk = cfg["d_model"], cfg["d_model"] // cfg["heads"]
        rng = Rng(seed)
        expected = {"W_e": xavier(rng.derive("embed"), d, k), "b_e": np.zeros(d)}
        for ell in range(cfg["layers"]):
            lr = rng.derive(f"encoder{ell}")
            prefix = f"encoder_layers.{ell}."
            expected[prefix + "W_QKV"] = np.hstack([xavier(lr.derive(f"{w}{h}"), d, dk)
                                                    for w in "qkv" for h in range(cfg["heads"])])
            expected[prefix + "W_O"] = xavier(lr.derive("o"), cfg["heads"] * dk, d)
            expected[prefix + "W_1"] = xavier(lr.derive("ffn1"), d, cfg["d_ffn"])
            expected[prefix + "b_1"] = np.zeros(cfg["d_ffn"])
            expected[prefix + "W_2"] = xavier(lr.derive("ffn2"), cfg["d_ffn"], d)
            expected[prefix + "b_2"] = np.zeros(d)
            for norm in ("ln1", "ln2"):
                expected[f"{prefix}{norm}_gamma"] = np.ones(d)
                expected[f"{prefix}{norm}_beta"] = np.zeros(d)
        # the GRU draws r, z, then the candidate, each input block first
        gru_rng = rng.derive("gru")
        d_gru = cfg["d_gru"]
        blocks = [(xavier(gru_rng, d, d_gru), xavier(gru_rng, d_gru, d_gru)) for _ in range(3)]
        expected["gru.W_x"] = np.hstack([x for x, _ in blocks])
        expected["gru.W_h"] = np.hstack([h for _, h in blocks])
        expected["gru.b"] = np.zeros(3 * d_gru)
        expected["W_p"] = xavier(rng.derive("head"), 1, d_gru)
        expected["b_p"] = np.zeros(1)
        actual = named_arrays(hybrid.init_hybrid(cfg, k, seed))
        assert sorted(actual) == sorted(expected)
        for name, a in expected.items():
            assert np.array_equal(actual[name], a), name


class TestHybridGradients:
    def test_full_model_gradient_check(self):
        rng = Rng(25)
        X = rng.uniform(0, 1, (4, 3, 2))
        y = rng.uniform(0, 1, (4,))
        m = hybrid.init_hybrid(SMALL, 2, seed=26)

        err = grad_check(lambda: hybrid.hybrid_loss_and_grads(m, X, y), named_arrays(m), h=1e-5)
        assert err < 1e-4

    def test_two_layer_gradient_check(self):
        cfg = section(d_model=4, heads=2, layers=2, d_ffn=4, d_gru=3)
        rng = Rng(27)
        X = rng.uniform(0, 1, (3, 2, 2))
        y = rng.uniform(0, 1, (3,))
        m = hybrid.init_hybrid(cfg, 2, seed=28)

        err = grad_check(lambda: hybrid.hybrid_loss_and_grads(m, X, y), named_arrays(m), h=1e-5)
        assert err < 1e-4

    def test_multi_head_two_layer_gradient_check(self):
        rng = Rng(44)
        X = rng.uniform(0, 1, (3, 3, 2))
        y = rng.uniform(0, 1, (3,))
        m = hybrid.init_hybrid(MULTI, 2, seed=45)

        err = grad_check(lambda: hybrid.hybrid_loss_and_grads(m, X, y), named_arrays(m), h=1e-5)
        assert err < 1e-4

    def test_training_loss_matches_inference(self):
        # the training pass writes its encoder and GRU activations into
        # buffers and reuses them in place; its loss must still be the
        # inference pass's error (600 windows cross its block boundary)
        cfg = section(d_model=4, heads=2, layers=2, d_ffn=6, d_gru=3)
        rng = Rng(35)
        X = rng.uniform(0, 1, (600, 3, 2))
        y = rng.uniform(0, 1, (600,))
        m = hybrid.init_hybrid(cfg, 2, seed=36)
        loss, _ = hybrid.hybrid_loss_and_grads(m, X, y)
        expected = float(np.mean((hybrid.hybrid_forward_batch(m, X) - y) ** 2))
        assert loss == pytest.approx(expected, rel=1e-12)


class TestHybridTraining:
    def test_memorizes_small_fixture(self):
        cfg = section(d_model=8, heads=2, layers=1, d_ffn=16, d_gru=8, epochs=500, lr=0.01)
        data = make_window_set(8, 4, 2, seed=29)
        m = hybrid.init_hybrid(cfg, 2, seed=30)
        trained, trace = hybrid.hybrid_train(m, data, cfg, seed=31)
        final = float(np.mean(
            (hybrid.hybrid_forward_batch(trained, data.X) - data.y) ** 2))
        assert final < 1e-3

    def test_deterministic_training(self):
        data = make_window_set(5, 3, 2, seed=32)
        m = hybrid.init_hybrid(SMALL, 2, seed=33)
        cfg = dict(SMALL, epochs=25, lr=0.01)
        t1, trace1 = hybrid.hybrid_train(m, data, cfg, seed=34)
        t2, trace2 = hybrid.hybrid_train(m, data, cfg, seed=34)
        assert trace1 == trace2
        p2 = named_arrays(t2)
        for name, a in named_arrays(t1).items():
            assert np.array_equal(a, p2[name])

    def test_training_does_not_mutate_input_model(self):
        data = make_window_set(5, 3, 2, seed=32)
        m = hybrid.init_hybrid(SMALL, 2, seed=33)
        before = {name: a.copy() for name, a in named_arrays(m).items()}
        trained, _ = hybrid.hybrid_train(m, data, dict(SMALL, epochs=5, lr=0.01), seed=34)
        assert not np.array_equal(named_arrays(trained)["W_p"], before["W_p"])
        for name, a in named_arrays(m).items():
            assert np.array_equal(before[name], a), name

    def test_empty_data_rejected(self):
        data = make_window_set(2, 3, 2)
        data.X = data.X[:0]
        data.y = data.y[:0]
        with pytest.raises(SizeError):
            hybrid.hybrid_train(hybrid.init_hybrid(SMALL, 2, seed=1), data,
                                dict(SMALL, epochs=1), seed=0)


class TestPredictSeries:
    """`cli predict` over a saved hybrid bundle: forecasts on the original
    price scale for every window a raw series supports."""

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

    def _predict(self, tmp_path, m, frame, stats):
        """Exit code and, on success, the predictions CSV of windows of 3 steps
        as a frame; `m` has SMALL's shape."""
        bundle_path, data_path, out_path = (tmp_path / f for f in ("b.json", "s.csv", "p.csv"))
        data = {"feature_columns": ["close", "volume"], "target_column": "close",
                "compose_fgi": False, "fgi_weights": [0.5, 0.5]}
        save_bundle(ModelBundle(
            kind="hybrid", model=m,
            config={"window": 3, "data": data, "models": {"hybrid": SMALL}},
            stats=stats), bundle_path)
        write_series_csv(frame, data_path)
        code = cli.main(["predict", "--bundle", str(bundle_path), "--data", str(data_path),
                         "--out", str(out_path)])
        return code, load_series(out_path) if code == 0 else None

    def test_denormalization_endpoints(self, tmp_path):
        frame, stats = self._frame_and_stats()
        m = zero_model(head_bias=0.0)
        _, forecast = self._predict(tmp_path, m, frame, stats)
        assert np.allclose(forecast.column("predicted"), 10_000.0)  # normalized 0 -> min
        m.b_p = np.array([1.0])
        _, forecast = self._predict(tmp_path, m, frame, stats)
        assert np.allclose(forecast.column("predicted"), 70_000.0)  # normalized 1 -> max

    def test_window_enumeration_count(self, tmp_path):
        frame, stats = self._frame_and_stats(n=6)  # T + 3 rows
        m = hybrid.init_hybrid(SMALL, 2, seed=36)
        _, forecast = self._predict(tmp_path, m, frame, stats)
        assert len(forecast.column("predicted")) == 3
        assert forecast.dates == frame.dates[3:]

    def test_round_trip_normalization(self, tmp_path):
        frame, stats = self._frame_and_stats()
        m = hybrid.init_hybrid(SMALL, 2, seed=37)
        _, forecast = self._predict(tmp_path, m, frame, stats)
        lo, hi = stats.for_column("close")
        renormalized = (forecast.column("predicted") - lo) / (hi - lo)
        ws = make_windows(apply_minmax(frame, stats), 3, "close")
        raw = hybrid.hybrid_forward_batch(m, ws.X)
        assert np.all(np.abs(renormalized - raw) < 1e-10)

    def test_frame_too_short(self, tmp_path):
        frame, stats = self._frame_and_stats(n=3)
        m = hybrid.init_hybrid(SMALL, 2, seed=38)
        code, _ = self._predict(tmp_path, m, frame, stats)
        assert code == 3
