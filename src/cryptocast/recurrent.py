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

Every cell runs through one sequence kernel in sample-last layout: the batch
is the last, contiguous axis, and a cell's gate weights are stacked per call
into one (gates * d, k) input and one (gates * d, d) recurrent matrix, so
each gate is a contiguous row block of a step's (gates * d, N) array.
Training projects the inputs of all T steps in one batched matmul before the
loop and forms the weight gradients after it, one batched matmul per weight
block; the (T, rows, N) per-step activations live in arrays a training run
reuses from call to call (`ops.Buffers`). Inference keeps only the running
state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import WindowSet
from .errors import DimensionError, SizeError
from .ops import Buffers, sigmoid, xavier
from .optim import TrainConfig, run_adam_training
from .params import from_arrays, named_arrays, with_arrays
from .rng import Rng

# samples per block of the inference pass: bounds its working set for any N
FORWARD_CHUNK = 512


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
# cell updates on sample-last (rows, N) views
#
# `g` holds a step's stacked gate pre-activations with the input projection
# and bias already added. The state views come in the order of the cell's
# `state` table, a carried array as (previous, new). In training they are
# per-step slices of the run's arrays; at inference a carried pair is one
# array updated in place, so every write below comes after the last read
# of the value it replaces.
# ---------------------------------------------------------------------------

def _lstm_cell_forward(Uh, g, h_prev, h, c_prev, c, tc):
    d = h.shape[0]
    g += Uh @ h_prev
    sigmoid(g[:3 * d], out=g[:3 * d])
    np.tanh(g[3 * d:], out=g[3 * d:])
    f, i, o, cc = g[:d], g[d:2 * d], g[2 * d:3 * d], g[3 * d:]
    np.multiply(f, c_prev, out=c)
    c += i * cc
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def _lstm_cell_backward(Uh, a, dh, dc, h_prev, h, c_prev, c, tc):
    """Backward through one step: overwrites the gate activations in `a`
    with the gate pre-activation gradients; returns (dh_prev, dc_prev)."""
    d = dh.shape[0]
    f, i, o, cc = a[:d], a[d:2 * d], a[2 * d:3 * d], a[3 * d:]
    dc = dc + dh * o * (1.0 - tc**2)
    dcc = dc * i
    np.multiply(dc * cc * i, 1.0 - i, out=i)
    np.multiply(dcc, 1.0 - cc**2, out=cc)
    np.multiply(dh * tc * o, 1.0 - o, out=o)
    dc_prev = dc * f
    np.multiply(dc * c_prev * f, 1.0 - f, out=f)
    return Uh.T @ a, dc_prev


def _gru_cell_forward(Uh, g, h_prev, h, rh):
    d = h.shape[0]
    rz = g[:2 * d]
    rz += Uh[:2 * d] @ h_prev
    sigmoid(rz, out=rz)
    r, z, hc = g[:d], g[d:2 * d], g[2 * d:]
    np.multiply(r, h_prev, out=rh)
    hc += Uh[2 * d:] @ rh
    np.tanh(hc, out=hc)
    np.multiply(1.0 - z, h_prev, out=h)
    h += z * hc


def _gru_cell_backward(Uh, a, dh, dc, h_prev, h, rh):
    """Backward through one step: overwrites the gate activations in `a`
    with the gate pre-activation gradients; returns (dh_prev, dc), the
    GRU having no cell state to carry."""
    d = dh.shape[0]
    r, z, hc = a[:d], a[d:2 * d], a[2 * d:]
    dz = dh * (hc - h_prev)
    dh_prev = dh * (1.0 - z)
    np.multiply(dh * z, 1.0 - hc**2, out=hc)
    drh = Uh[2 * d:].T @ hc
    dh_prev += drh * r
    np.multiply(drh * h_prev * r, 1.0 - r, out=r)
    np.multiply(dz * z, 1.0 - z, out=z)
    dh_prev += Uh[:2 * d].T @ a[:2 * d]
    return dh_prev, dc


@dataclass(frozen=True)
class Cell:
    """How one cell kind runs through the sequence kernel."""

    params: type
    # (input weight, recurrent weight, bias, recurrent input) per gate, in
    # stacked row order: sigmoid gates first, tanh candidate last
    gates: tuple
    # (name, carried) per state array: a carried one (h, c) holds T + 1
    # steps, the first zero, and is all that inference keeps; the others
    # are per-step values the backward pass reads
    state: tuple
    forward: Callable
    backward: Callable


CELLS = {
    "lstm": Cell(LstmCellParams,
                 (("W_fx", "W_fh", "b_f", "h"), ("W_ix", "W_ih", "b_i", "h"),
                  ("W_ox", "W_oh", "b_o", "h"), ("W_cx", "W_ch", "b_c", "h")),
                 (("h", True), ("c", True), ("tc", False)),
                 _lstm_cell_forward, _lstm_cell_backward),
    "gru": Cell(GruCellParams,
                (("W_rx", "W_rh", "b_r", "h"), ("W_zx", "W_zh", "b_z", "h"),
                 ("W_x", "W_h", "b", "rh")),
                (("h", True), ("rh", False)),
                _gru_cell_forward, _gru_cell_backward),
}


def _stack(cell: Cell, p):
    """Sample-last stacked weights: input (G*d, k), recurrent (G*d, d), bias (G*d,)."""
    return tuple(np.concatenate([getattr(p, gate[j]) for gate in cell.gates], axis=-1).T
                 for j in range(3))


def _views(cell: Cell, state: dict, t: int) -> list:
    return [v for name, carried in cell.state
            for v in ((state[name][t], state[name][t + 1]) if carried else (state[name][t],))]


def sequence_forward(cell: Cell, p, Xs: np.ndarray, buffers: Buffers, name: str):
    """Training pass of one cell over a sample-last (T, k, N) batch, keeping
    every step's activations in `buffers` arrays prefixed `name`. Returns the
    final hidden state (d, N) and the cache `sequence_backward` takes."""
    Ux, Uh, b = _stack(cell, p)
    T, _, n = Xs.shape
    d = Uh.shape[1]
    A = np.matmul(Ux, Xs, out=buffers.empty(name + "gates", (T, Ux.shape[0], n)))
    A += b[:, None]
    state = {}
    for key, carried in cell.state:
        state[key] = buffers.empty(name + key, (T + carried, d, n))
        if carried:
            state[key][0] = 0.0
    for t in range(T):
        cell.forward(Uh, A[t], *_views(cell, state, t))
    return state["h"][T], (Ux, Uh, Xs, A, state)


def sequence_backward(cell: Cell, cache, dh: np.ndarray, need_dx: bool = False):
    """BPTT through one cell from the gradient (d, N) of its final hidden
    state. Returns the parameter gradients and, when asked, the input
    gradient (T, k, N). The gate gradients overwrite the cached activations
    and the input gradient the cached input."""
    Ux, Uh, Xs, A, state = cache
    T = Xs.shape[0]
    d = dh.shape[0]
    dc = np.zeros_like(dh)
    for t in range(T - 1, -1, -1):
        dh, dc = cell.backward(Uh, A[t], dh, dc, *_views(cell, state, t))
    dA = A.transpose(0, 2, 1)
    dWx = np.matmul(Xs, dA).sum(axis=0)
    db = A.sum(axis=(0, 2))
    grads = {}
    for j, (wx, wh, bias, source) in enumerate(cell.gates):
        rows = slice(j * d, (j + 1) * d)
        grads[wx] = np.ascontiguousarray(dWx[:, rows])
        grads[wh] = np.matmul(state[source][:T], dA[:, :, rows]).sum(axis=0)
        grads[bias] = db[rows]
    dX = np.matmul(Ux.T, A, out=Xs) if need_dx else None
    return cell.params(**grads), dX


def run_states(cell: Cell, p, X: np.ndarray, initial: dict | None = None) -> dict:
    """Inference pass of one cell over an (N, T, k) batch: only the running
    state is kept, each step's input is projected on its own, and samples go
    through in blocks of FORWARD_CHUNK. Returns the final carried state
    arrays (d, N) by name, zero-started unless `initial` gives them."""
    Ux, Uh, b = _stack(cell, p)
    n, T, _ = X.shape
    d = Uh.shape[1]
    final = {name: np.zeros((d, n)) if initial is None else np.array(initial[name], dtype=np.float64)
             for name, carried in cell.state if carried}
    for start in range(0, n, FORWARD_CHUNK):
        cols = slice(start, min(start + FORWARD_CHUNK, n))
        width = cols.stop - start
        g = np.empty((Ux.shape[0], width))
        views = [v for name, carried in cell.state
                 for v in ((final[name][:, cols],) * 2 if carried else (np.empty((d, width)),))]
        for t in range(T):
            np.matmul(Ux, X[cols, t].T, out=g)
            g += b[:, None]
            cell.forward(Uh, g, *views)
    return final


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
    state = run_states(CELLS["lstm"], p, x_t[None, None], {"h": h_prev[:, None], "c": c_prev[:, None]})
    return state["h"][:, 0], state["c"][:, 0]


def gru_cell_step(p: GruCellParams, x_t, h_prev):
    """One GRU step on vectors; returns h_t."""
    x_t = _check_vec("x_t", x_t, p.input_size)
    h_prev = _check_vec("h_prev", h_prev, p.hidden_size)
    return run_states(CELLS["gru"], p, x_t[None, None], {"h": h_prev[:, None]})["h"][:, 0]


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
    cls = CELLS[cell_kind].params
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
    cell = cell_shapes(CELLS[cell_kind].params, input_size, hidden_size)
    return {**{f"{direction}.{name}": shape
               for direction in ("forward", "backward") for name, shape in cell.items()},
            "W_head": (2 * hidden_size, 1), "b_head": (1,)}


def birnn_from_arrays(cell_kind: str, input_size: int, hidden_size: int,
                      arrays: dict[str, np.ndarray]) -> BiRnnModel:
    cls = CELLS[cell_kind].params
    return BiRnnModel(
        cell_kind=cell_kind, forward=from_arrays(cls, arrays, "forward."),
        backward=from_arrays(cls, arrays, "backward."),
        W_head=arrays["W_head"], b_head=arrays["b_head"],
        hidden_size=hidden_size, input_size=input_size,
    )


def _checked(m: BiRnnModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != m.input_size:
        raise DimensionError(
            f"window has {X.shape[-1]} features, model expects {m.input_size}"
        )
    return X


def birnn_states(m: BiRnnModel, X: np.ndarray):
    """Final hidden states (N, d) of both directions for an (N, T, k) batch."""
    X = _checked(m, X)
    cell = CELLS[m.cell_kind]
    return (run_states(cell, m.forward, X)["h"].T,
            run_states(cell, m.backward, X[:, ::-1])["h"].T)


def birnn_forward_batch(m: BiRnnModel, X: np.ndarray) -> np.ndarray:
    h_fwd, h_bwd = birnn_states(m, X)
    concat = np.concatenate([h_fwd, h_bwd], axis=1)
    return concat @ m.W_head[:, 0] + m.b_head[0]


def birnn_loss_and_grads(m: BiRnnModel, X: np.ndarray, y: np.ndarray,
                         buffers: Buffers | None = None):
    """Mean squared error over the batch and its gradient for every
    parameter, by name. A training run passes its own `buffers` for the
    per-step activations; without them the call allocates fresh ones."""
    buffers = Buffers() if buffers is None else buffers
    X = _checked(m, X)
    y = np.asarray(y, dtype=np.float64)
    n, T, k = X.shape
    cell = CELLS[m.cell_kind]
    X_fwd = buffers.empty("forward.X", (T, k, n))
    np.copyto(X_fwd, X.transpose(1, 2, 0))
    X_bwd = buffers.empty("backward.X", (T, k, n))
    np.copyto(X_bwd, X_fwd[::-1])
    h_fwd, cache_f = sequence_forward(cell, m.forward, X_fwd, buffers, "forward.")
    h_bwd, cache_b = sequence_forward(cell, m.backward, X_bwd, buffers, "backward.")
    concat = np.concatenate([h_fwd, h_bwd])
    pred = m.W_head[:, 0] @ concat + m.b_head[0]
    resid = pred - y
    loss = float((resid**2).mean())

    dpred = 2.0 * resid / n
    dconcat = np.outer(m.W_head[:, 0], dpred)
    d = m.hidden_size
    grads = dataclasses.replace(
        m, forward=sequence_backward(cell, cache_f, dconcat[:d])[0],
        backward=sequence_backward(cell, cache_b, dconcat[d:])[0],
        W_head=(concat @ dpred)[:, None], b_head=np.array([dpred.sum()]))
    return loss, named_arrays(grads)


def birnn_train(m: BiRnnModel, data: WindowSet, cfg: TrainConfig):
    """Full BPTT training with Adam; returns (trained copy, loss per epoch).
    The activation buffers live exactly as long as this call."""
    if len(data) == 0:
        raise SizeError("training window set is empty")
    buffers = Buffers()

    def loss_grad(params, idx):
        return birnn_loss_and_grads(with_arrays(m, params), data.X[idx], data.y[idx],
                                    buffers=buffers)

    params, trace = run_adam_training(named_arrays(m), loss_grad, len(data), cfg)
    return with_arrays(m, params), trace
