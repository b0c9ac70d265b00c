"""LSTM and GRU cells, bidirectional sequence models, and their
backpropagation-through-time gradients.

A cell stores its weights stacked, in the layout the kernel computes with:
W_x (k, G·d) maps the input, W_h (d, G·d) the recurrent input and b (G·d,)
is the bias, where each of the G gates owns one block of d columns. The
blocks come in kernel order, sigmoid gates first and the tanh candidate
last: LSTM f, i, o, c; GRU r, z, candidate. Writing [g] for gate g's block,
the cell steps follow the standard gate equations:

LSTM:  f = sig(x W_x[f] + h W_h[f] + b[f])
       i = sig(x W_x[i] + h W_h[i] + b[i])
       o = sig(x W_x[o] + h W_h[o] + b[o])
       cc = tanh(x W_x[c] + h W_h[c] + b[c])
       c = f * c_prev + i * cc
       h = o * tanh(c)

GRU:   r = sig(x W_x[r] + h W_h[r] + b[r])
       z = sig(x W_x[z] + h W_h[z] + b[z])
       hc = tanh(x W_x[hc] + (r * h) W_h[hc] + b[hc])
       h = z * hc + (1 - z) * h_prev

The bidirectional wrapper runs one cell forward over t = 1..T and a second
cell over t = T..1, concatenates the two final hidden states, and applies a
linear readout. Gradients here are hand-derived; tests check every one of
them against central finite differences.

Every cell runs through one sequence kernel in sample-last layout: the batch
is the last, contiguous axis, and the kernel reads the stored weights
through their transposes W_x.T (G·d, k) and W_h.T (G·d, d), so each gate is
a contiguous row block of a step's (G·d, N) array. Training projects the
inputs of all T steps in one batched matmul before the loop and forms the
weight gradients after it, in the stored layout; the (T, rows, N) per-step
activations live in arrays a training run reuses from call to call
(`ops.Buffers`). Inference keeps only the running state.

Every pass computes in the dtype of the model's arrays. Training steps run
in float32, on a float32 copy of the float64 model (`optim.run_adam_training`);
the trained model, and so every inference pass, is float64.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import WindowSet
from .errors import ConfigError, DimensionError
from .ops import Buffers, blocks, buffers_for, sigmoid, xavier
from .optim import run_adam_training
from .params import named_arrays
from .rng import Rng


@dataclass
class CellParams:
    W_x: np.ndarray  # (input_size, gates * d)
    W_h: np.ndarray  # (d, gates * d)
    b: np.ndarray    # (gates * d,)


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

    # the recurrent input (h or rh) of each stacked gate block, in kernel order
    recurrent_inputs: tuple
    # the gate block indices in the order init draws them (LSTM: f, i, c, o)
    draws: tuple
    # (name, carried) per state array: a carried one (h, c) holds T + 1
    # steps, the first zero, and is all that inference keeps; the others
    # are per-step values the backward pass reads
    state: tuple
    forward: Callable
    backward: Callable


CELLS = {
    "lstm": Cell(("h", "h", "h", "h"), (0, 1, 3, 2), (("h", True), ("c", True), ("tc", False)),
                 _lstm_cell_forward, _lstm_cell_backward),
    "gru": Cell(("h", "h", "rh"), (0, 1, 2), (("h", True), ("rh", False)),
                _gru_cell_forward, _gru_cell_backward),
}


def cell_template(cell: Cell, input_size: int, hidden_size: int) -> CellParams:
    """An all-zero cell of the given sizes."""
    width = len(cell.recurrent_inputs) * hidden_size
    return CellParams(W_x=np.zeros((input_size, width)), W_h=np.zeros((hidden_size, width)),
                      b=np.zeros(width))


def init_cell(cell: Cell, p: CellParams, rng: Rng) -> CellParams:
    """Fill a zero cell in place and return it: biases stay zero; for each
    gate block in `cell.draws` order, a Xavier input block, then a Xavier
    recurrent block."""
    input_size, hidden_size = p.W_x.shape[0], p.W_h.shape[0]
    for j in cell.draws:
        cols = slice(j * hidden_size, (j + 1) * hidden_size)
        p.W_x[:, cols] = xavier(rng, input_size, hidden_size)
        p.W_h[:, cols] = xavier(rng, hidden_size, hidden_size)
    return p


def _views(cell: Cell, state: dict, t: int) -> list:
    return [v for name, carried in cell.state
            for v in ((state[name][t], state[name][t + 1]) if carried else (state[name][t],))]


def sequence_forward(cell: Cell, p: CellParams, Xs: np.ndarray, buffers: Buffers, name: str):
    """Training pass of one cell over a sample-last (T, k, N) batch, keeping
    every step's activations in `buffers` arrays prefixed `name`. Returns the
    final hidden state (d, N) and the cache `sequence_backward` takes."""
    Ux, Uh = p.W_x.T, p.W_h.T
    T, _, n = Xs.shape
    d = Uh.shape[1]
    A = np.matmul(Ux, Xs, out=buffers.empty(name + "gates", (T, Ux.shape[0], n)))
    A += p.b[:, None]
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
    grads = CellParams(W_x=np.matmul(Xs, dA).sum(axis=0), W_h=np.empty(Uh.T.shape, Uh.dtype),
                       b=A.sum(axis=(0, 2)))
    for j, source in enumerate(cell.recurrent_inputs):
        cols = slice(j * d, (j + 1) * d)
        grads.W_h[:, cols] = np.matmul(state[source][:T], dA[:, :, cols]).sum(axis=0)
    dX = np.matmul(Ux.T, A, out=Xs) if need_dx else None
    return grads, dX


def run_states(cell: Cell, p: CellParams, X: np.ndarray) -> dict:
    """Inference pass of one cell over an (N, T, k) batch: only the running
    state is kept, each step's input is projected on its own, and samples go
    through in blocks of `ops.FORWARD_CHUNK`. Returns the final carried state
    arrays (d, N) by name, zero-started."""
    Ux, Uh, b = p.W_x.T, p.W_h.T, p.b
    n, T, _ = X.shape
    d = Uh.shape[1]
    final = {name: np.zeros((d, n), Uh.dtype) for name, carried in cell.state if carried}
    for cols in blocks(n):
        width = cols.stop - cols.start
        g = np.empty((Ux.shape[0], width), Uh.dtype)
        views = [v for name, carried in cell.state
                 for v in ((final[name][:, cols],) * 2 if carried
                           else (np.empty((d, width), Uh.dtype),))]
        for t in range(T):
            np.matmul(Ux, X[cols, t].T, out=g)
            g += b[:, None]
            cell.forward(Uh, g, *views)
    return final


# ---------------------------------------------------------------------------
# bidirectional sequence model
# ---------------------------------------------------------------------------

@dataclass
class BiRnnModel:
    cell_kind: str  # "lstm" | "gru"
    forward: CellParams
    backward: CellParams
    W_head: np.ndarray  # (2*hidden, 1)
    b_head: np.ndarray  # (1,)


def birnn_template(cell_kind: str, input_size: int, hidden_size: int) -> BiRnnModel:
    """An all-zero bidirectional model: the structure `init_birnn` fills and
    a bundle's parameters are loaded into."""
    if cell_kind not in CELLS:
        raise ConfigError(f"unknown cell kind {cell_kind!r}")
    cell = CELLS[cell_kind]
    return BiRnnModel(
        cell_kind=cell_kind, forward=cell_template(cell, input_size, hidden_size),
        backward=cell_template(cell, input_size, hidden_size),
        W_head=np.zeros((2 * hidden_size, 1)), b_head=np.zeros(1),
    )


def init_birnn(cell_kind: str, input_size: int, hidden_size: int, seed: int) -> BiRnnModel:
    m = birnn_template(cell_kind, input_size, hidden_size)
    rng = Rng(seed)
    init_cell(CELLS[cell_kind], m.forward, rng.derive("forward"))
    init_cell(CELLS[cell_kind], m.backward, rng.derive("backward"))
    m.W_head[...] = xavier(rng.derive("head"), *m.W_head.shape)
    return m


def _checked(m: BiRnnModel, X) -> np.ndarray:
    """X cast to the model's dtype, once its feature count is checked."""
    X = np.asarray(X, dtype=m.W_head.dtype)
    k = m.forward.W_x.shape[0]
    if X.shape[-1] != k:
        raise DimensionError(f"window has {X.shape[-1]} features, model expects {k}")
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
    parameter, by name, computed in the dtype of the model's arrays. A
    training run passes its own `buffers` of that dtype for the per-step
    activations; without them the call allocates fresh ones."""
    X = _checked(m, X)
    y = np.asarray(y, dtype=X.dtype)
    buffers = buffers_for(buffers, X.dtype)
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
    d = m.forward.W_h.shape[0]
    grads = dataclasses.replace(
        m, forward=sequence_backward(cell, cache_f, dconcat[:d])[0],
        backward=sequence_backward(cell, cache_b, dconcat[d:])[0],
        W_head=(concat @ dpred)[:, None], b_head=np.array([dpred.sum()]))
    return loss, named_arrays(grads)


def birnn_train(m: BiRnnModel, data: WindowSet, hyper: dict, seed: int):
    """Full BPTT training with Adam under `hyper` (`optim.run_adam_training`);
    returns (trained float64 copy, loss per epoch)."""
    return run_adam_training(m, birnn_loss_and_grads, data, hyper, seed)
