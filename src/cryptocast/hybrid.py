"""Attention-encoder + GRU forecaster.

Forward path per window: affine embedding of each timestep into d
dimensions, additive sin/cos positional encoding, a stack of post-norm
encoder layers (multi-head self-attention, residual + LayerNorm,
position-wise ReLU feed-forward, residual + LayerNorm), then a GRU read
over the encoded sequence whose final hidden state feeds a linear head.

All gradients are hand-derived and validated against finite differences;
there is no autodiff here.

Every pass computes in the dtype of the model's arrays. Training steps run
in float32, on a float32 copy of the float64 model (`optim.run_adam_training`);
the trained model, and so every inference pass, is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .data import WindowSet
from .errors import ConfigError, DimensionError
from .ops import (FORWARD_CHUNK, Buffers, blocks, buffers_for, layer_norm_backward,
                  layer_norm_with_cache, run_blocks, softmax_backward, softmax_rows, sum_leading,
                  threads_for, xavier)
from .optim import run_adam_training
from .params import named_arrays, zeros_like
from .recurrent import (CELLS, CellParams, cell_template, init_cell, run_states,
                        sequence_backward, sequence_forward)
from .rng import Rng

LAYER_NORM_EPS = 1e-5


def check_shape(hyper: dict) -> None:
    """The rules on a `models.hybrid` section that JSON Schema cannot state:
    the sin/cos interleave needs an even d_model, and the heads split it."""
    d, heads = hyper["d_model"], hyper["heads"]
    if d % 2 != 0:
        raise ConfigError(f"d_model must be even for the sin/cos interleave, got {d}")
    if d % heads != 0:
        raise ConfigError(f"d_model={d} is not divisible by heads={heads}")


@dataclass
class EncoderLayerParams:
    """One encoder layer's weights. W_QKV projects a token onto the queries,
    keys and values of every head at once: its columns are each head's
    d_head query columns, head by head, then each head's keys, then each
    head's values. The head count is the model's `heads`."""

    W_QKV: np.ndarray      # (d_model, 3 * d_model)
    W_O: np.ndarray        # (d_model, d_model)
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
    heads: int  # d_model is b_e's length, d_head is d_model // heads
    W_e: np.ndarray  # (d_model, input_size)
    b_e: np.ndarray  # (d_model,)
    encoder_layers: list[EncoderLayerParams]
    gru: CellParams
    W_p: np.ndarray  # (1, d_gru)
    b_p: np.ndarray  # (1,)


def hybrid_template(hyper: dict, input_size: int) -> HybridModel:
    """The model `init_hybrid` fills, with every Xavier block zero: the
    structure a bundle's parameters are loaded into. `hyper` is a resolved
    `models.hybrid` section; its shape rule is checked here."""
    check_shape(hyper)
    d, f, d_gru = hyper["d_model"], hyper["d_ffn"], hyper["d_gru"]
    layers = [EncoderLayerParams(
        W_QKV=np.zeros((d, 3 * d)), W_O=np.zeros((d, d)),
        W_1=np.zeros((d, f)), b_1=np.zeros(f), W_2=np.zeros((f, d)), b_2=np.zeros(d),
        ln1_gamma=np.ones(d), ln1_beta=np.zeros(d), ln2_gamma=np.ones(d), ln2_beta=np.zeros(d),
    ) for _ in range(hyper["layers"])]
    return HybridModel(
        heads=hyper["heads"], W_e=np.zeros((d, input_size)), b_e=np.zeros(d),
        encoder_layers=layers, gru=cell_template(CELLS["gru"], d, d_gru),
        W_p=np.zeros((1, d_gru)), b_p=np.zeros(1),
    )


def init_hybrid(hyper: dict, input_size: int, seed: int) -> HybridModel:
    """The template with each Xavier block drawn from its own derived
    stream: every head's query, key and value block, then W_O, W_1, W_2
    per layer; the embedding, the GRU and the head."""
    m = hybrid_template(hyper, input_size)
    rng = Rng(seed)
    d = hyper["d_model"]
    dk = d // m.heads
    for ell, layer in enumerate(m.encoder_layers):
        lr = rng.derive(f"encoder{ell}")
        for j, tag in enumerate(f"{w}{h}" for w in "qkv" for h in range(m.heads)):
            layer.W_QKV[:, j * dk:(j + 1) * dk] = xavier(lr.derive(tag), d, dk)
        layer.W_O[...] = xavier(lr.derive("o"), *layer.W_O.shape)
        layer.W_1[...] = xavier(lr.derive("ffn1"), *layer.W_1.shape)
        layer.W_2[...] = xavier(lr.derive("ffn2"), *layer.W_2.shape)
    m.W_e[...] = xavier(rng.derive("embed"), *m.W_e.shape)
    init_cell(CELLS["gru"], m.gru, rng.derive("gru"))
    m.W_p[...] = xavier(rng.derive("head"), *m.W_p.shape)
    return m


# ---------------------------------------------------------------------------
# building blocks (batched: leading axis = windows)
# ---------------------------------------------------------------------------

def _check_features(X: np.ndarray, W_e: np.ndarray):
    if X.shape[-1] != W_e.shape[1]:
        raise DimensionError(f"window has {X.shape[-1]} features, model expects {W_e.shape[1]}")


def _embed(X: np.ndarray, W_e: np.ndarray, b_e: np.ndarray, out=None) -> np.ndarray:
    """Affine map of each timestep row of an (N, T, k) batch: E_t = W_e x_t + b_e."""
    _check_features(X, W_e)
    out = np.matmul(X, W_e.T, out=out)
    out += b_e
    return out


def positional_encoding(length: int, d_model: int) -> np.ndarray:
    """Interleaved sin/cos position features, in float64: column 2j carries
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


def _split_heads(qkv: np.ndarray, heads: int):
    """Q, K and V of every head as (N, heads, T, d_head) views of the
    (N, T, 3·heads·d_head) projection."""
    n, T, width = qkv.shape
    return qkv.reshape(n, T, 3, heads, width // (3 * heads)).transpose(2, 0, 3, 1, 4)


def _mha_forward(H: np.ndarray, layer: EncoderLayerParams, heads: int,
                 buffers: Buffers | None = None, name: str = ""):
    """Batched multi-head self-attention; H is (N, T, d). Q, K and V of all
    heads come from one projection into an (N, T, 3·heads·d_head) array;
    its per-head views feed one batched score product into an (N, heads,
    T, T) probability array and one batched P·V product. The arrays the
    backward pass reads go into `buffers` under `name` when given."""
    buffers = buffers_for(buffers, H.dtype)
    dk = layer.W_O.shape[0] // heads
    n, T, _ = H.shape
    # a Python float: a numpy float64 scalar would widen a float32 pass
    scale = 1.0 / math.sqrt(dk)
    qkv = np.matmul(H, layer.W_QKV, out=buffers.empty(name + "qkv", (n, T, layer.W_QKV.shape[1])))
    Q, K, V = _split_heads(qkv, heads)
    probs = np.matmul(Q, K.transpose(0, 1, 3, 2),
                      out=buffers.empty(name + "probs", (n, heads, T, T)))
    probs *= scale
    softmax_rows(probs, out=probs)
    concat = buffers.empty(name + "concat", (n, T, heads * dk))
    np.matmul(probs, V, out=concat.reshape(n, T, heads, dk).transpose(0, 2, 1, 3))
    out = np.matmul(concat, layer.W_O, out=buffers.empty(name + "attn", H.shape))
    return out, (H, heads, qkv, concat, probs, scale)


def _mha_backward(dout: np.ndarray, cache, layer: EncoderLayerParams, grads: "EncoderLayerParams",
                  dH: np.ndarray):
    """Adds the attention's gradient w.r.t. its input H into `dH`, which may
    be `dout` itself. dQ, dK and dV are written over Q, K and V in the
    projection array, so the W_QKV gradient and the input gradient are one
    product each. Every gradient overwrites the cached activation it
    replaces once that is no longer read."""
    H, heads, qkv, concat, probs, scale = cache
    n, T, d = H.shape
    dk = layer.W_O.shape[0] // heads
    grads.W_O += concat.reshape(-1, heads * dk).T @ dout.reshape(-1, d)
    dconcat = np.matmul(dout, layer.W_O.T, out=concat)
    d_heads = dconcat.reshape(n, T, heads, dk).transpose(0, 2, 1, 3)
    Q, K, V = _split_heads(qkv, heads)
    dprobs = d_heads @ V.transpose(0, 1, 3, 2)
    np.matmul(probs.transpose(0, 1, 3, 2), d_heads, out=V)
    # dconcat is read for the last time above; its array holds dQ, then dH's term
    dscores = softmax_backward(dprobs, probs, out=dprobs)
    dQ = np.matmul(dscores, K, out=d_heads)
    np.matmul(dscores.transpose(0, 1, 3, 2), Q, out=K)
    K *= scale
    np.multiply(dQ, scale, out=Q)
    grads.W_QKV += H.reshape(-1, d).T @ qkv.reshape(n * T, -1)
    dH += np.matmul(qkv, layer.W_QKV.T, out=concat)
    return dH


def _encoder_layer_forward(H_in: np.ndarray, layer: EncoderLayerParams, heads: int,
                           buffers: Buffers | None = None, name: str = ""):
    buffers = buffers_for(buffers, H_in.dtype)
    res1, mha_cache = _mha_forward(H_in, layer, heads, buffers, name)
    res1 += H_in
    H_attn, ln1_cache = layer_norm_with_cache(res1, layer.ln1_gamma, layer.ln1_beta, LAYER_NORM_EPS,
                                              buffers, name + "ln1.")
    # the ReLU runs in place: the backward reads its mask from a1 > 0
    a1 = np.matmul(H_attn, layer.W_1, out=buffers.empty(name + "a1", H_attn.shape[:-1] + layer.b_1.shape))
    a1 += layer.b_1
    np.maximum(a1, 0.0, out=a1)
    res2 = np.matmul(a1, layer.W_2, out=res1)
    res2 += layer.b_2
    res2 += H_attn
    H_out, ln2_cache = layer_norm_with_cache(res2, layer.ln2_gamma, layer.ln2_beta, LAYER_NORM_EPS,
                                             buffers, name + "ln2.")
    return H_out, (mha_cache, ln1_cache, a1, H_attn, ln2_cache)


def _encoder_layer_backward(dH_out: np.ndarray, cache, layer: EncoderLayerParams,
                            grads: EncoderLayerParams):
    """Gradient w.r.t. the layer input; as in the attention, each gradient
    overwrites the cached activation it replaces once that is no longer read."""
    mha_cache, ln1_cache, a1, H_attn, ln2_cache = cache
    d = dH_out.shape[-1]
    d_ffn = layer.W_1.shape[1]

    dres2, dg2, db2 = layer_norm_backward(dH_out, ln2_cache, out=dH_out)
    grads.ln2_gamma += dg2
    grads.ln2_beta += db2

    grads.W_2 += a1.reshape(-1, d_ffn).T @ dres2.reshape(-1, d)
    grads.b_2 += sum_leading(dres2)
    active = a1 > 0.0
    dz1 = np.matmul(dres2, layer.W_2.T, out=a1)
    dz1 *= active
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

def _encode(m: HybridModel, X: np.ndarray, buffers: Buffers | None = None, slots: int | None = None):
    """Encoder output (N, T, d_model) and each layer's backward cache.
    Layer i writes its activations under buffer slot i % `slots` (every
    layer its own slot by default). Inference passes slots=1, so the working
    set does not grow with depth: each layer overwrites the previous one's
    cache, and its input, the previous layer's output, only once it has read
    it for the last time (in the first residual sum)."""
    buffers = buffers_for(buffers, X.dtype)
    slots = len(m.encoder_layers) if slots is None else slots
    H = _embed(X, m.W_e, m.b_e, out=buffers.empty("H", X.shape[:2] + m.b_e.shape))
    H += positional_encoding(X.shape[1], len(m.b_e)).astype(H.dtype, copy=False)
    layer_caches = []
    for idx, layer in enumerate(m.encoder_layers):
        H, cache = _encoder_layer_forward(H, layer, m.heads, buffers,
                                          f"encoder_layers.{idx % slots}.")
        layer_caches.append(cache)
    return H, layer_caches


def block_rows(heads: int, window: int) -> int:
    """Windows per encoder sub-block: `ops.block_rows` for heads·T² attention
    probabilities per window (64 windows at 4 heads and T=30)."""
    return ops.block_rows(heads * window * window)


def _thread_buffers(m: HybridModel, X: np.ndarray, rows: int) -> Buffers:
    """Buffers holding every array `_encode` asks for over up to `rows`
    windows shaped like X's, allocated here, on the calling thread, by an
    encoding of no windows (see `ops.run_blocks`)."""
    buffers = Buffers(X.dtype, rows)
    _encode(m, X[:0], buffers, slots=1)
    return buffers


def hybrid_forward_batch(m: HybridModel, X: np.ndarray) -> np.ndarray:
    """Predictions for an (N, T, k) batch. The GRU read-out runs in blocks
    of `ops.FORWARD_CHUNK` windows, the encoder in sub-blocks of
    `block_rows`, on one thread per CPU (`ops.run_blocks`) once N exceeds
    one read-out block, each thread through one sub-block-sized set of
    buffers of its own, so the working set does not grow with N."""
    X = np.asarray(X, dtype=m.W_e.dtype)
    _check_features(X, m.W_e)
    out = np.empty(X.shape[0], X.dtype)
    rows = block_rows(m.heads, X.shape[1])
    # threads only past one read-out block, as in the recurrent passes
    threads = threads_for(len(blocks(FORWARD_CHUNK, rows))) if len(X) > FORWARD_CHUNK else 1
    # a set per thread: the calling thread's is filled as it is used, the
    # others' are allocated here
    buffers = [Buffers(X.dtype)] + [_thread_buffers(m, X, rows) for _ in range(1, threads)]
    for chunk in blocks(len(X)):
        Xc = X[chunk]
        if len(Xc) <= rows:  # one sub-block: the read-out takes its encoding as it is
            H = _encode(m, Xc, buffers[0], slots=1)[0]
        else:
            H = buffers[0].empty("encoded", Xc.shape[:2] + m.b_e.shape)

            def encode(sub: slice, worker: int) -> None:
                H[sub] = _encode(m, Xc[sub], buffers[worker], slots=1)[0]

            run_blocks(encode, blocks(len(Xc), rows), threads)
        out[chunk] = m.W_p[0] @ run_states(CELLS["gru"], [(m.gru, H)])[0]["h"] + m.b_p[0]
    return out


def hybrid_loss_and_grads(m: HybridModel, X: np.ndarray, y: np.ndarray,
                          buffers: Buffers | None = None):
    """Mean squared error and its analytic gradient for every parameter,
    by name, computed in the dtype of the model's arrays. A training run
    passes its own `buffers` of that dtype for the activations the backward
    pass reads; without them the call allocates fresh ones."""
    X = np.asarray(X, dtype=m.W_e.dtype)
    y = np.asarray(y, dtype=X.dtype)
    buffers = buffers_for(buffers, X.dtype)
    n, T, _ = X.shape
    d = len(m.b_e)
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
    grads.W_e = dH.reshape(-1, d).T @ X.reshape(n * T, -1)
    grads.b_e = sum_leading(dH)
    return loss, named_arrays(grads)


def hybrid_train(m: HybridModel, data: WindowSet, hyper: dict, seed: int):
    """Adam training through the whole stack under `hyper` (`optim.run_adam_training`);
    returns (trained float64 copy, loss per epoch)."""
    return run_adam_training(m, hybrid_loss_and_grads, data, hyper, seed)
