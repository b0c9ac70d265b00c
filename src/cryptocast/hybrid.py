"""Attention-encoder + GRU forecaster.

Forward path per window: affine embedding of each timestep into d
dimensions, additive sin/cos positional encoding, a stack of post-norm
encoder layers (multi-head self-attention, residual + LayerNorm,
position-wise ReLU feed-forward, residual + LayerNorm), then a GRU read
over the encoded sequence whose final hidden state feeds a linear head.

All gradients are hand-derived and validated against finite differences;
there is no autodiff here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Forecast, NormStats, SeriesFrame, WindowSet, apply_minmax, invert_minmax, make_windows
from .errors import ConfigError, DimensionError, SizeError
from .ops import (Buffers, layer_norm_backward, layer_norm_with_cache, softmax_backward, softmax_rows,
                  sum_leading, xavier)
from .optim import TrainConfig, run_adam_training
from .params import from_arrays, named_arrays, with_arrays, zeros_like
from .recurrent import (CELLS, GruCellParams, cell_shapes, init_cell, run_states, sequence_backward,
                        sequence_forward)
from .rng import Rng

LAYER_NORM_EPS = 1e-5


@dataclass
class HybridConfig:
    window: int = 30
    input_size: int = 3
    d_model: int = 32
    heads: int = 4
    layers: int = 2
    d_ffn: int = 64
    d_gru: int = 32

    def validate(self) -> "HybridConfig":
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.input_size < 1:
            raise ConfigError(f"input_size must be >= 1, got {self.input_size}")
        if self.layers < 1:
            raise ConfigError(f"need at least one encoder layer, got {self.layers}")
        if self.d_model % 2 != 0:
            raise ConfigError(
                f"d_model must be even for the sin/cos interleave, got {self.d_model}"
            )
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} is not divisible by heads={self.heads}"
            )
        if self.d_ffn < 1 or self.d_gru < 1:
            raise ConfigError("d_ffn and d_gru must be >= 1")
        return self

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads


@dataclass
class EncoderLayerParams:
    W_Q: np.ndarray        # (heads, d_model, d_head)
    W_K: np.ndarray
    W_V: np.ndarray
    W_O: np.ndarray        # (heads * d_head, d_model)
    W_1: np.ndarray        # (d_model, d_ffn)
    b_1: np.ndarray
    W_2: np.ndarray        # (d_ffn, d_model)
    b_2: np.ndarray
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray


@dataclass
class HybridModel:
    config: HybridConfig
    W_e: np.ndarray  # (d_model, input_size)
    b_e: np.ndarray  # (d_model,)
    encoder_layers: list[EncoderLayerParams]
    gru: GruCellParams
    W_p: np.ndarray  # (1, d_gru)
    b_p: np.ndarray  # (1,)


def init_hybrid(config: HybridConfig, seed: int) -> HybridModel:
    config.validate()
    rng = Rng(seed)
    d, dk = config.d_model, config.d_head
    layers = []
    for ell in range(config.layers):
        lr = rng.derive(f"encoder{ell}")
        layers.append(EncoderLayerParams(
            W_Q=np.stack([xavier(lr.derive(f"q{m}"), d, dk) for m in range(config.heads)]),
            W_K=np.stack([xavier(lr.derive(f"k{m}"), d, dk) for m in range(config.heads)]),
            W_V=np.stack([xavier(lr.derive(f"v{m}"), d, dk) for m in range(config.heads)]),
            W_O=xavier(lr.derive("o"), config.heads * dk, d),
            W_1=xavier(lr.derive("ffn1"), d, config.d_ffn),
            b_1=np.zeros(config.d_ffn),
            W_2=xavier(lr.derive("ffn2"), config.d_ffn, d),
            b_2=np.zeros(d),
            ln1_gamma=np.ones(d), ln1_beta=np.zeros(d),
            ln2_gamma=np.ones(d), ln2_beta=np.zeros(d),
        ))
    return HybridModel(
        config=config,
        W_e=xavier(rng.derive("embed"), d, config.input_size),
        b_e=np.zeros(d),
        encoder_layers=layers,
        gru=init_cell(GruCellParams, d, config.d_gru, rng.derive("gru")),
        W_p=xavier(rng.derive("head"), 1, config.d_gru),
        b_p=np.zeros(1),
    )


def hybrid_shapes(config: HybridConfig) -> dict[str, tuple]:
    """Parameter shapes of a hybrid model, by dotted name."""
    d, h, dk, f = config.d_model, config.heads, config.d_head, config.d_ffn
    layer = {"W_Q": (h, d, dk), "W_K": (h, d, dk), "W_V": (h, d, dk), "W_O": (h * dk, d),
             "W_1": (d, f), "b_1": (f,), "W_2": (f, d), "b_2": (d,),
             "ln1_gamma": (d,), "ln1_beta": (d,), "ln2_gamma": (d,), "ln2_beta": (d,)}
    gru = cell_shapes(GruCellParams, d, config.d_gru)
    return {"W_e": (d, config.input_size), "b_e": (d,),
            **{f"encoder_layers.{i}.{name}": shape
               for i in range(config.layers) for name, shape in layer.items()},
            **{f"gru.{name}": shape for name, shape in gru.items()},
            "W_p": (1, config.d_gru), "b_p": (1,)}


def hybrid_from_arrays(config: HybridConfig, arrays: dict[str, np.ndarray]) -> HybridModel:
    return HybridModel(
        config=config, W_e=arrays["W_e"], b_e=arrays["b_e"],
        encoder_layers=[from_arrays(EncoderLayerParams, arrays, f"encoder_layers.{i}.")
                        for i in range(config.layers)],
        gru=from_arrays(GruCellParams, arrays, "gru."),
        W_p=arrays["W_p"], b_p=arrays["b_p"],
    )


# ---------------------------------------------------------------------------
# building blocks (batched: leading axis = windows)
# ---------------------------------------------------------------------------

def _embed(X: np.ndarray, W_e: np.ndarray, b_e: np.ndarray, out=None) -> np.ndarray:
    """Affine map of each timestep row of an (N, T, k) batch: E_t = W_e x_t + b_e."""
    if X.shape[-1] != W_e.shape[1]:
        raise DimensionError(f"window has {X.shape[-1]} features, model expects {W_e.shape[1]}")
    out = np.matmul(X, W_e.T, out=out)
    out += b_e
    return out


def positional_encoding(length: int, d_model: int) -> np.ndarray:
    """Interleaved sin/cos position features: column 2j carries
    sin(pos / 10000^(2j/d)), column 2j+1 carries cos of the same angle."""
    if d_model % 2 != 0:
        raise ConfigError(f"positional encoding needs an even dimension, got {d_model}")
    if length < 1:
        raise DimensionError(f"length must be >= 1, got {length}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    j = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * j / d_model)
    pe = np.empty((length, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def _mha_forward(H: np.ndarray, layer: EncoderLayerParams, buffers: Buffers | None = None,
                 name: str = ""):
    """Batched multi-head self-attention; H is (N, T, d). The arrays the
    backward pass reads go into `buffers` under `name` when given."""
    buffers = Buffers() if buffers is None else buffers
    heads, _, dk = layer.W_Q.shape
    n, T, _ = H.shape
    scale = 1.0 / np.sqrt(dk)
    concat = buffers.empty(name + "concat", (n, T, heads * dk))
    head_caches = []
    for m in range(heads):
        Q, K, V = (np.matmul(H, W[m], out=buffers.empty(f"{name}{key}{m}", (n, T, dk)))
                   for key, W in (("Q", layer.W_Q), ("K", layer.W_K), ("V", layer.W_V)))
        probs = np.matmul(Q, K.transpose(0, 2, 1), out=buffers.empty(f"{name}probs{m}", (n, T, T)))
        probs *= scale
        softmax_rows(probs, out=probs)
        np.matmul(probs, V, out=concat[..., m * dk:(m + 1) * dk])
        head_caches.append((Q, K, V, probs))
    out = np.matmul(concat, layer.W_O, out=buffers.empty(name + "attn", H.shape))
    return out, (H, concat, head_caches, scale)


def _head_backward(d_head_out: np.ndarray, head_cache, scale: float):
    """Gradients w.r.t. one head's Q, K and V, written over them."""
    Q, K, V, probs = head_cache
    dprobs = d_head_out @ V.transpose(0, 2, 1)
    dV = np.matmul(probs.transpose(0, 2, 1), d_head_out, out=V)
    dscores = softmax_backward(dprobs, probs, out=dprobs)
    dQ = dscores @ K
    dK = np.matmul(dscores.transpose(0, 2, 1), Q, out=K)
    dK *= scale
    dQ = np.multiply(dQ, scale, out=Q)
    return dQ, dK, dV


def _mha_backward(dout: np.ndarray, cache, layer: EncoderLayerParams, grads: "EncoderLayerParams",
                  dH: np.ndarray):
    """Adds the attention's gradient w.r.t. its input H into `dH`, which may
    be `dout` itself. Each gradient overwrites the cached activation it
    replaces once that is no longer read."""
    H, concat, head_caches, scale = cache
    d = H.shape[-1]
    heads, _, dk = layer.W_Q.shape
    grads.W_O += concat.reshape(-1, heads * dk).T @ dout.reshape(-1, d)
    dconcat = np.matmul(dout, layer.W_O.T, out=concat)
    H_flat = H.reshape(-1, d)
    for m in range(heads):
        d_qkv = _head_backward(dconcat[..., m * dk:(m + 1) * dk], head_caches[m], scale)
        for W, dW, g in zip((layer.W_Q, layer.W_K, layer.W_V), (grads.W_Q, grads.W_K, grads.W_V), d_qkv):
            dW[m] += H_flat.T @ g.reshape(-1, dk)
            dH += g @ W[m].T
    return dH


def _encoder_layer_forward(H_in: np.ndarray, layer: EncoderLayerParams,
                           buffers: Buffers | None = None, name: str = ""):
    buffers = Buffers() if buffers is None else buffers
    res1, mha_cache = _mha_forward(H_in, layer, buffers, name)
    res1 += H_in
    H_attn, ln1_cache = layer_norm_with_cache(res1, layer.ln1_gamma, layer.ln1_beta, LAYER_NORM_EPS,
                                              buffers, name + "ln1.")
    z1 = np.matmul(H_attn, layer.W_1, out=buffers.empty(name + "z1", H_attn.shape[:-1] + layer.b_1.shape))
    z1 += layer.b_1
    a1 = np.maximum(z1, 0.0, out=buffers.empty(name + "a1", z1.shape))
    res2 = np.matmul(a1, layer.W_2, out=res1)
    res2 += layer.b_2
    res2 += H_attn
    H_out, ln2_cache = layer_norm_with_cache(res2, layer.ln2_gamma, layer.ln2_beta, LAYER_NORM_EPS,
                                             buffers, name + "ln2.")
    return H_out, (mha_cache, ln1_cache, z1, a1, H_attn, ln2_cache)


def _encoder_layer_backward(dH_out: np.ndarray, cache, layer: EncoderLayerParams,
                            grads: EncoderLayerParams):
    """Gradient w.r.t. the layer input; as in the attention, each gradient
    overwrites the cached activation it replaces once that is no longer read."""
    mha_cache, ln1_cache, z1, a1, H_attn, ln2_cache = cache
    d = dH_out.shape[-1]
    d_ffn = layer.W_1.shape[1]

    dres2, dg2, db2 = layer_norm_backward(dH_out, ln2_cache, out=dH_out)
    grads.ln2_gamma += dg2
    grads.ln2_beta += db2

    grads.W_2 += a1.reshape(-1, d_ffn).T @ dres2.reshape(-1, d)
    grads.b_2 += sum_leading(dres2)
    dz1 = np.matmul(dres2, layer.W_2.T, out=a1)
    dz1 *= z1 > 0.0
    grads.W_1 += H_attn.reshape(-1, d).T @ dz1.reshape(-1, d_ffn)
    grads.b_1 += sum_leading(dz1)
    dH_attn = np.matmul(dz1, layer.W_1.T, out=H_attn)
    dH_attn += dres2

    dres1, dg1, db1 = layer_norm_backward(dH_attn, ln1_cache, out=dH_attn)
    grads.ln1_gamma += dg1
    grads.ln1_beta += db1

    return _mha_backward(dres1, mha_cache, layer, grads, dH=dres1)


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

def _encode(m: HybridModel, X: np.ndarray, buffers: Buffers | None = None):
    """Encoder output (N, T, d_model) and each layer's backward cache."""
    buffers = Buffers() if buffers is None else buffers
    H = _embed(X, m.W_e, m.b_e, out=buffers.empty("H", X.shape[:2] + m.b_e.shape))
    H += positional_encoding(X.shape[1], m.config.d_model)
    layer_caches = []
    for idx, layer in enumerate(m.encoder_layers):
        H, cache = _encoder_layer_forward(H, layer, buffers, f"encoder_layers.{idx}.")
        layer_caches.append(cache)
    return H, layer_caches


def hybrid_forward_batch(m: HybridModel, X: np.ndarray) -> np.ndarray:
    H, _ = _encode(m, np.asarray(X, dtype=np.float64))
    h = run_states(CELLS["gru"], m.gru, H)["h"]
    return m.W_p[0] @ h + m.b_p[0]


def encode_window(m: HybridModel, window: np.ndarray, add_positional: bool = True) -> np.ndarray:
    """Encoder output (T x d) for one window; positional encoding optional
    so order-sensitivity can be probed."""
    window = np.asarray(window, dtype=np.float64)[None]
    H = _embed(window, m.W_e, m.b_e)
    if add_positional:
        H = H + positional_encoding(window.shape[1], m.config.d_model)
    for layer in m.encoder_layers:
        H, _ = _encoder_layer_forward(H, layer)
    return H[0]


def attention_maps(m: HybridModel, window: np.ndarray) -> list[np.ndarray]:
    """Per-layer attention probabilities, each (heads, T, T)."""
    window = np.asarray(window, dtype=np.float64)[None]
    H = _embed(window, m.W_e, m.b_e) + positional_encoding(window.shape[1], m.config.d_model)
    maps = []
    for layer in m.encoder_layers:
        _, (_, _, head_caches, _) = _mha_forward(H, layer)
        maps.append(np.stack([probs[0] for (_, _, _, probs) in head_caches]))
        H, _ = _encoder_layer_forward(H, layer)
    return maps


def hybrid_loss_and_grads(m: HybridModel, X: np.ndarray, y: np.ndarray,
                          buffers: Buffers | None = None):
    """Mean squared error and its analytic gradient for every parameter,
    by name. A training run passes its own `buffers` for the activations
    the backward pass reads; without them the call allocates fresh ones."""
    buffers = Buffers() if buffers is None else buffers
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, T, _ = X.shape
    d = m.config.d_model
    H, layer_caches = _encode(m, X, buffers)
    gru_in = buffers.empty("gru.X", (T, d, n))
    np.copyto(gru_in, H.transpose(1, 2, 0))
    cell = CELLS["gru"]
    h_final, gru_cache = sequence_forward(cell, m.gru, gru_in, buffers, "gru.")
    pred = m.W_p[0] @ h_final + m.b_p[0]
    resid = pred - y
    loss = float((resid**2).mean())

    dpred = 2.0 * resid / n
    grads = zeros_like(m)
    grads.W_p = (h_final @ dpred)[None, :]
    grads.b_p = np.array([dpred.sum()])
    grads.gru, dgru_in = sequence_backward(cell, gru_cache, np.outer(m.W_p[0], dpred), need_dx=True)
    dH = buffers.empty("dH", (n, T, d))
    np.copyto(dH, dgru_in.transpose(2, 0, 1))

    for idx in range(len(m.encoder_layers) - 1, -1, -1):
        dH = _encoder_layer_backward(dH, layer_caches[idx], m.encoder_layers[idx],
                                     grads.encoder_layers[idx])
    # positional encoding is constant; dH passes straight to the embedding
    grads.W_e = np.einsum("ntd,ntk->dk", dH, X)
    grads.b_e = sum_leading(dH)
    return loss, named_arrays(grads)


def hybrid_train(m: HybridModel, data: WindowSet, cfg: TrainConfig):
    """Adam training through the whole stack; returns (trained copy, trace).
    The activation buffers live exactly as long as this call."""
    if len(data) == 0:
        raise SizeError("training window set is empty")
    buffers = Buffers()

    def loss_grad(params, idx):
        return hybrid_loss_and_grads(with_arrays(m, params), data.X[idx], data.y[idx],
                                     buffers=buffers)

    params, trace = run_adam_training(named_arrays(m), loss_grad, len(data), cfg)
    return with_arrays(m, params), trace


def predict_series(m: HybridModel, frame: SeriesFrame, stats: NormStats,
                   window: int) -> Forecast:
    """Point forecasts on the original price scale for every window the
    frame supports; dates align with each window's target row."""
    if len(frame) <= window:
        raise SizeError(f"frame has {len(frame)} rows; need more than window={window}")
    normalized = apply_minmax(frame, stats)
    ws = make_windows(normalized, window, "close")
    raw = hybrid_forward_batch(m, ws.X)
    predicted = invert_minmax(raw, "close", stats)
    return Forecast(dates=list(ws.target_dates), predicted=np.asarray(predicted),
                    lower=None, upper=None, level=None)
