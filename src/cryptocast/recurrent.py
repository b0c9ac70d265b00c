"""LSTM and GRU cells, bidirectional sequence models, and their
backpropagation-through-time gradients.

Cell steps follow the standard gate equations:

LSTM:  f = sig(W_fx x + W_fh h + b_f)
       i = sig(W_ix x + W_ih h + b_i)
       cc = tanh(W_cx x + W_ch h + b_c)
       c = f * c_prev + i * cc
       o = sig(W_ox x + W_oh h + b_o)
       h = o * tanh(c)

GRU:   r = sig(W_rx x + W_rh h + b_r)
       z = sig(W_zx x + W_zh h + b_z)
       hc = tanh(W_x x + W_h (r * h) + b)
       h = z * hc + (1 - z) * h_prev

The bidirectional wrapper runs one cell forward over t = 1..T and a second
cell over t = T..1, concatenates the two final hidden states, and applies a
linear readout. Gradients here are hand-derived; tests check every one of
them against central finite differences.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .data import WindowSet
from .errors import DimensionError, SizeError
from .ops import sigmoid, xavier
from .optim import TrainConfig, run_adam_training
from .params import from_arrays, named_arrays, with_arrays, zeros_like
from .rng import Rng


@dataclass
class LstmCellParams:
    W_fx: np.ndarray
    W_fh: np.ndarray
    b_f: np.ndarray
    W_ix: np.ndarray
    W_ih: np.ndarray
    b_i: np.ndarray
    W_cx: np.ndarray
    W_ch: np.ndarray
    b_c: np.ndarray
    W_ox: np.ndarray
    W_oh: np.ndarray
    b_o: np.ndarray

    @property
    def input_size(self) -> int:
        return self.W_fx.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.W_fx.shape[1]


@dataclass
class GruCellParams:
    W_rx: np.ndarray
    W_rh: np.ndarray
    b_r: np.ndarray
    W_zx: np.ndarray
    W_zh: np.ndarray
    b_z: np.ndarray
    W_x: np.ndarray
    W_h: np.ndarray
    b: np.ndarray

    @property
    def input_size(self) -> int:
        return self.W_rx.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.W_rx.shape[1]


CELLS = {"lstm": LstmCellParams, "gru": GruCellParams}


def cell_shapes(cls, input_size: int, hidden_size: int) -> dict[str, tuple]:
    """Field shapes of a cell: W_*x maps the input, W_*h the hidden state,
    and every other field is a bias."""
    rows = {"x": input_size, "h": hidden_size}
    return {f.name: (rows[f.name[-1]], hidden_size) if f.name.startswith("W_")
            else (hidden_size,) for f in dataclasses.fields(cls)}


def init_cell(cls, input_size: int, hidden_size: int, rng: Rng):
    """Xavier weights drawn in field order, zero biases."""
    return cls(**{name: xavier(rng, *shape) if len(shape) == 2 else np.zeros(shape)
                  for name, shape in cell_shapes(cls, input_size, hidden_size).items()})


# ---------------------------------------------------------------------------
# batched cell steps (leading axis = samples) with caches for BPTT
# ---------------------------------------------------------------------------

def _lstm_step(p: LstmCellParams, x, h_prev, c_prev):
    f = sigmoid(x @ p.W_fx + h_prev @ p.W_fh + p.b_f)
    i = sigmoid(x @ p.W_ix + h_prev @ p.W_ih + p.b_i)
    cc = np.tanh(x @ p.W_cx + h_prev @ p.W_ch + p.b_c)
    c = f * c_prev + i * cc
    o = sigmoid(x @ p.W_ox + h_prev @ p.W_oh + p.b_o)
    tc = np.tanh(c)
    h = o * tc
    cache = (x, h_prev, c_prev, f, i, cc, o, tc)
    return h, c, cache


def _lstm_step_backward(p: LstmCellParams, cache, dh, dc_in, grads: LstmCellParams):
    x, h_prev, c_prev, f, i, cc, o, tc = cache
    do = dh * tc
    dc = dc_in + dh * o * (1.0 - tc**2)
    df = dc * c_prev
    di = dc * cc
    dcc = dc * i
    dc_prev = dc * f

    da_f = df * f * (1.0 - f)
    da_i = di * i * (1.0 - i)
    da_c = dcc * (1.0 - cc**2)
    da_o = do * o * (1.0 - o)

    grads.W_fx += x.T @ da_f
    grads.W_fh += h_prev.T @ da_f
    grads.b_f += da_f.sum(axis=0)
    grads.W_ix += x.T @ da_i
    grads.W_ih += h_prev.T @ da_i
    grads.b_i += da_i.sum(axis=0)
    grads.W_cx += x.T @ da_c
    grads.W_ch += h_prev.T @ da_c
    grads.b_c += da_c.sum(axis=0)
    grads.W_ox += x.T @ da_o
    grads.W_oh += h_prev.T @ da_o
    grads.b_o += da_o.sum(axis=0)

    dx = da_f @ p.W_fx.T + da_i @ p.W_ix.T + da_c @ p.W_cx.T + da_o @ p.W_ox.T
    dh_prev = da_f @ p.W_fh.T + da_i @ p.W_ih.T + da_c @ p.W_ch.T + da_o @ p.W_oh.T
    return dx, dh_prev, dc_prev


def _gru_step(p: GruCellParams, x, h_prev):
    r = sigmoid(x @ p.W_rx + h_prev @ p.W_rh + p.b_r)
    z = sigmoid(x @ p.W_zx + h_prev @ p.W_zh + p.b_z)
    rh = r * h_prev
    hc = np.tanh(x @ p.W_x + rh @ p.W_h + p.b)
    h = z * hc + (1.0 - z) * h_prev
    cache = (x, h_prev, r, z, rh, hc)
    return h, cache


def _gru_step_backward(p: GruCellParams, cache, dh, grads: GruCellParams):
    x, h_prev, r, z, rh, hc = cache
    dz = dh * (hc - h_prev)
    dhc = dh * z
    dh_prev = dh * (1.0 - z)

    da_c = dhc * (1.0 - hc**2)
    grads.W_x += x.T @ da_c
    grads.W_h += rh.T @ da_c
    grads.b += da_c.sum(axis=0)
    drh = da_c @ p.W_h.T
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r

    da_r = dr * r * (1.0 - r)
    da_z = dz * z * (1.0 - z)
    grads.W_rx += x.T @ da_r
    grads.W_rh += h_prev.T @ da_r
    grads.b_r += da_r.sum(axis=0)
    grads.W_zx += x.T @ da_z
    grads.W_zh += h_prev.T @ da_z
    grads.b_z += da_z.sum(axis=0)

    dx = da_c @ p.W_x.T + da_r @ p.W_rx.T + da_z @ p.W_zx.T
    dh_prev = dh_prev + da_r @ p.W_rh.T + da_z @ p.W_zh.T
    return dx, dh_prev


# ---------------------------------------------------------------------------
# single-step public wrappers (1-D vectors in, 1-D vectors out)
# ---------------------------------------------------------------------------

def _check_vec(name, v, size):
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (size,):
        raise DimensionError(f"{name} has shape {v.shape}, expected ({size},)")
    return v


def lstm_cell_step(p: LstmCellParams, x_t, h_prev, c_prev):
    """One LSTM step on vectors; returns (h_t, c_t)."""
    x_t = _check_vec("x_t", x_t, p.input_size)
    h_prev = _check_vec("h_prev", h_prev, p.hidden_size)
    c_prev = _check_vec("c_prev", c_prev, p.hidden_size)
    h, c, _ = _lstm_step(p, x_t[None, :], h_prev[None, :], c_prev[None, :])
    return h[0], c[0]


def gru_cell_step(p: GruCellParams, x_t, h_prev):
    """One GRU step on vectors; returns h_t."""
    x_t = _check_vec("x_t", x_t, p.input_size)
    h_prev = _check_vec("h_prev", h_prev, p.hidden_size)
    h, _ = _gru_step(p, x_t[None, :], h_prev[None, :])
    return h[0]


# ---------------------------------------------------------------------------
# bidirectional sequence model
# ---------------------------------------------------------------------------

@dataclass
class BiRnnModel:
    cell_kind: str  # "lstm" | "gru"
    forward: LstmCellParams | GruCellParams
    backward: LstmCellParams | GruCellParams
    W_head: np.ndarray  # (2*hidden, 1)
    b_head: np.ndarray  # (1,)
    hidden_size: int
    input_size: int


def init_birnn(cell_kind: str, input_size: int, hidden_size: int, seed: int) -> BiRnnModel:
    if cell_kind not in CELLS:
        raise ValueError(f"unknown cell kind {cell_kind!r}")
    rng = Rng(seed)
    cls = CELLS[cell_kind]
    fwd = init_cell(cls, input_size, hidden_size, rng.derive("forward"))
    bwd = init_cell(cls, input_size, hidden_size, rng.derive("backward"))
    head = xavier(rng.derive("head"), 2 * hidden_size, 1)
    return BiRnnModel(
        cell_kind=cell_kind, forward=fwd, backward=bwd,
        W_head=head, b_head=np.zeros(1),
        hidden_size=hidden_size, input_size=input_size,
    )


def birnn_shapes(cell_kind: str, input_size: int, hidden_size: int) -> dict[str, tuple]:
    """Parameter shapes of a bidirectional model, by dotted name."""
    cell = cell_shapes(CELLS[cell_kind], input_size, hidden_size)
    return {**{f"{direction}.{name}": shape
               for direction in ("forward", "backward") for name, shape in cell.items()},
            "W_head": (2 * hidden_size, 1), "b_head": (1,)}


def birnn_from_arrays(cell_kind: str, input_size: int, hidden_size: int,
                      arrays: dict[str, np.ndarray]) -> BiRnnModel:
    cls = CELLS[cell_kind]
    return BiRnnModel(
        cell_kind=cell_kind, forward=from_arrays(cls, arrays, "forward."),
        backward=from_arrays(cls, arrays, "backward."),
        W_head=arrays["W_head"], b_head=arrays["b_head"],
        hidden_size=hidden_size, input_size=input_size,
    )


def _run_direction(kind: str, cell, X: np.ndarray, reverse: bool):
    """Run one cell over the (N, T, k) batch; returns final h and caches."""
    n, T, _ = X.shape
    d = cell.hidden_size
    h = np.zeros((n, d))
    c = np.zeros((n, d))
    caches = []
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        if kind == "lstm":
            h, c, cache = _lstm_step(cell, X[:, t, :], h, c)
        else:
            h, cache = _gru_step(cell, X[:, t, :], h)
        caches.append(cache)
    return h, caches


def _direction_backward(kind: str, cell, caches, dh_final, grads,
                        dX: np.ndarray | None, reverse: bool):
    """BPTT through one direction; only the final state carries an external
    gradient. Writes per-step input gradients into dX when given."""
    T = len(caches)
    dh = dh_final
    dc = np.zeros_like(dh_final)
    time_order = list(range(T - 1, -1, -1)) if reverse else list(range(T))
    for pos in range(T - 1, -1, -1):
        t = time_order[pos]
        if kind == "lstm":
            dx, dh, dc = _lstm_step_backward(cell, caches[pos], dh, dc, grads)
        else:
            dx, dh = _gru_step_backward(cell, caches[pos], dh, grads)
        if dX is not None:
            dX[:, t, :] += dx


def birnn_states(m: BiRnnModel, X: np.ndarray):
    """Final hidden states of both directions for an (N, T, k) batch."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != m.input_size:
        raise DimensionError(
            f"window has {X.shape[-1]} features, model expects {m.input_size}"
        )
    h_fwd, _ = _run_direction(m.cell_kind, m.forward, X, reverse=False)
    h_bwd, _ = _run_direction(m.cell_kind, m.backward, X, reverse=True)
    return h_fwd, h_bwd


def birnn_forward_batch(m: BiRnnModel, X: np.ndarray) -> np.ndarray:
    h_fwd, h_bwd = birnn_states(m, X)
    concat = np.concatenate([h_fwd, h_bwd], axis=1)
    return concat @ m.W_head[:, 0] + m.b_head[0]


def birnn_loss_and_grads(m: BiRnnModel, X: np.ndarray, y: np.ndarray):
    """Mean squared error over the batch and its gradient for every
    parameter, by name."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    h_fwd, caches_f = _run_direction(m.cell_kind, m.forward, X, reverse=False)
    h_bwd, caches_b = _run_direction(m.cell_kind, m.backward, X, reverse=True)
    concat = np.concatenate([h_fwd, h_bwd], axis=1)
    pred = concat @ m.W_head[:, 0] + m.b_head[0]
    resid = pred - y
    loss = float((resid**2).mean())

    dpred = 2.0 * resid / n
    grads = zeros_like(m)
    grads.W_head = (concat.T @ dpred)[:, None]
    grads.b_head = np.array([dpred.sum()])
    dconcat = dpred[:, None] * m.W_head[:, 0][None, :]
    d = m.hidden_size
    _direction_backward(m.cell_kind, m.forward, caches_f,
                        dconcat[:, :d], grads.forward, None, reverse=False)
    _direction_backward(m.cell_kind, m.backward, caches_b,
                        dconcat[:, d:], grads.backward, None, reverse=True)
    return loss, named_arrays(grads)


def birnn_train(m: BiRnnModel, data: WindowSet, cfg: TrainConfig):
    """Full BPTT training with Adam; returns (trained copy, loss per epoch)."""
    if len(data) == 0:
        raise SizeError("training window set is empty")

    def loss_grad(params, idx):
        return birnn_loss_and_grads(with_arrays(m, params), data.X[idx], data.y[idx])

    params, trace = run_adam_training(named_arrays(m), loss_grad, len(data), cfg)
    return with_arrays(m, params), trace
