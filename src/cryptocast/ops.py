"""Dense float64 array primitives shared by every model in the package.

Functions never mutate their inputs; those with an `out=` write only there.
Matrices are row-major 64-bit numpy arrays throughout; every exported
operation keeps results finite for finite inputs. `Buffers` holds the
activation arrays that a training run reuses from call to call and an
inference pass from block to block; `FORWARD_CHUNK` is the block size of
every inference pass.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .rng import Rng

# windows (GRNN: query rows) per block of an inference pass: bounds its
# working set for any N
FORWARD_CHUNK = 256


def blocks(n: int):
    """Consecutive slices of at most FORWARD_CHUNK covering range(n)."""
    return [slice(start, min(start + FORWARD_CHUNK, n)) for start in range(0, n, FORWARD_CHUNK)]


class Buffers:
    """Arrays reused by the loss/grad calls of one training run or the blocks
    of one inference pass, keyed by role and by every axis but the first. A
    request with a shorter first axis gets the leading, still contiguous,
    part of the array held, so a smaller last mini-batch or block touches no
    new memory; a longer one replaces it. Sample-last arrays, whose batch is
    the last axis, get one array per batch size. Contents are uninitialised
    on first use and stale afterwards, so every user writes an array before
    reading it."""

    def __init__(self):
        self._arrays: dict[tuple, np.ndarray] = {}

    def empty(self, name: str, shape: tuple) -> np.ndarray:
        key = (name, shape[1:])
        held = self._arrays.get(key)
        if held is None or held.shape[0] < shape[0]:
            held = self._arrays[key] = np.empty(shape)
        return held[:shape[0]]


def sigmoid(x, out=None):
    """Logistic function as 0.5 * (1 + tanh(x / 2)): one transcendental
    pass, finite for any input and exactly 0 or 1 far out."""
    out = np.multiply(np.asarray(x, dtype=np.float64), 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def softmax_rows(x, out=None) -> np.ndarray:
    """Row-wise softmax over the last axis, with max subtraction; `out`
    may be `x` itself."""
    x = np.asarray(x, dtype=np.float64)
    out = np.subtract(x, _max_last(x), out=out)
    np.exp(out, out=out)
    out /= _sum_last(out)
    return out


def softmax_backward(dprobs: np.ndarray, probs: np.ndarray, out=None) -> np.ndarray:
    """Gradient through softmax given upstream dprobs and forward probs;
    `out` may be `dprobs` itself."""
    inner = _sum_last(dprobs * probs)
    out = np.subtract(dprobs, inner, out=out)
    out *= probs
    return out


def _max_last(x) -> np.ndarray:
    """Max over the last axis, kept as a length-1 axis, as a running maximum
    over the columns: numpy's own reduction over a short last axis costs
    several times more."""
    top = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j:j + 1], out=top)
    return top


def _sum_last(x) -> np.ndarray:
    """Sum over the last axis, kept as a length-1 axis, as one GEMV."""
    return (x @ np.ones(x.shape[-1]))[..., None]


def sum_leading(x) -> np.ndarray:
    """Sum over every axis but the last, as one GEMV: numpy's own reduction
    over the leading axes of a narrow array costs several times more."""
    rows = x.reshape(-1, x.shape[-1])
    return np.ones(rows.shape[0]) @ rows


def mean_last(x) -> np.ndarray:
    """Mean over the last axis, kept as a length-1 axis, as one GEMV."""
    return _sum_last(x) / x.shape[-1]


def layer_norm_with_cache(x, gamma, beta, eps: float = 1e-5, buffers=None, name=""):
    """Normalize the last axis to zero mean and unit population variance,
    then scale-shift; `eps` keeps constant rows defined (they map to
    `beta`). Returns the output and the (xhat, inv_std, gamma) cache the
    backward needs; the output, xhat and inv_std go into `buffers` under
    `name` when given."""
    x = np.asarray(x, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise DimensionError(
            f"layer_norm parameter shapes {gamma.shape}/{beta.shape} "
            f"do not match feature size {x.shape[-1:]}"
        )
    if eps <= 0.0:
        raise ValueError("layer_norm eps must be positive")
    buffers = Buffers() if buffers is None else buffers
    # xhat holds the centered rows and out their squares until both are final
    xhat = np.subtract(x, mean_last(x), out=buffers.empty(name + "xhat", x.shape))
    out = np.square(xhat, out=buffers.empty(name + "out", x.shape))
    var = mean_last(out)
    inv_std = np.divide(1.0, np.sqrt(var + eps), out=buffers.empty(name + "inv_std", var.shape))
    xhat *= inv_std
    np.multiply(gamma, xhat, out=out)
    out += beta
    return out, (xhat, inv_std, gamma)


def layer_norm_backward(dout: np.ndarray, cache, out=None):
    """Backward pass; returns (dx, dgamma, dbeta).

    dgamma/dbeta are summed over all leading axes. `out` may be `dout`
    itself.
    """
    xhat, inv_std, gamma = cache
    dgamma = sum_leading(dout * xhat)
    dbeta = sum_leading(dout)
    dx = np.multiply(dout, gamma, out=out)
    # d/dx of (x - mean) * inv_std with population statistics
    xhat_term = mean_last(dx * xhat)
    dx -= mean_last(dx)
    dx -= xhat * xhat_term
    dx *= inv_std
    return dx, dgamma, dbeta


def xavier(rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Xavier-uniform matrix drawn from an existing stream."""
    if rows < 1 or cols < 1:
        raise DimensionError(f"xavier dimensions must be >= 1, got {rows}x{cols}")
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))
