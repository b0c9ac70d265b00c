"""Dense array primitives shared by every model in the package.

Functions never mutate their inputs; those with an `out=` write only there.
Matrices are row-major numpy arrays, and each operation computes in the
dtype of its array input: float32 for a training step's loss and gradients,
float64 for everything else (weights, Adam, inference, the gradient
oracles); any other input is taken as float64. No constant or helper array
of another dtype enters a pass, so a float32 pass never widens to float64.
Every exported operation keeps results finite for finite inputs. `Buffers`
holds the activation arrays that a training run reuses from call to call
and an inference pass from block to block; `FORWARD_CHUNK` is the block
size of every inference pass, or its cap where a model sizes its own blocks
by `block_rows`. `run_blocks` runs a pass's blocks on one thread per CPU;
each block computes as it would alone, so the result does not depend on the
number of threads.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import ConfigError, DimensionError
from .rng import Rng

# windows per block of an inference pass, and the most `block_rows` gives:
# bounds its working set for any N
FORWARD_CHUNK = 256
# doubles in the largest matrix of a block that `block_rows` sizes: 1.8 MB, so
# it stays in a 2 MB per-core L2 cache
BLOCK_DOUBLES = 64 * 4 * 30 * 30


def block_rows(doubles_per_row: int) -> int:
    """Rows per inference block: as many as keep `rows × doubles_per_row`
    within BLOCK_DOUBLES, at least one and at most FORWARD_CHUNK."""
    return min(FORWARD_CHUNK, max(1, BLOCK_DOUBLES // doubles_per_row))


def blocks(n: int, rows: int = FORWARD_CHUNK):
    """Consecutive slices of at most `rows` covering range(n)."""
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def threads_for(spans: int) -> int:
    """Threads for `spans` blocks: one per CPU the process may run on, at
    most one per block, one where the CPUs are unknown."""
    affinity = getattr(os, "sched_getaffinity", None)
    return max(1, min(spans, len(affinity(0)) if affinity is not None else 1))


def run_blocks(work, spans: list, threads: int) -> None:
    """Call `work(span, worker)` for every span, on min(`threads`, spans)
    threads: the calling thread, worker 0, and one started here per further
    worker. `worker` numbers the thread, so a caller can keep per-thread
    state under it. Threads claim spans in order, and each call may write
    only its own span's part of an output. numpy releases the GIL inside
    BLAS calls and ufunc loops, so the threads' arithmetic overlaps. Every
    thread is joined before this returns or raises; once a call fails no
    further span is claimed, and the exception of the earliest failed span
    is raised. numpy keeps its error state per thread, so every thread runs
    under the caller's.

    Each started thread allocates from a glibc malloc arena of its own,
    which keeps its peak after the thread ends; so large arrays a worker
    reuses are best allocated by the calling thread beforehand."""
    claims = iter(enumerate(spans))
    lock = threading.Lock()
    errors: dict[int, BaseException] = {}
    errstate = {"call": np.geterrcall(), **np.geterr()}

    def claim_and_work(worker: int) -> None:
        with np.errstate(**errstate):
            while True:
                with lock:
                    claim = None if errors else next(claims, None)
                if claim is None:
                    return
                index, span = claim
                try:
                    work(span, worker)
                except BaseException as exc:
                    errors[index] = exc
                    return

    started = []
    for worker in range(1, min(threads, len(spans))):
        thread = threading.Thread(target=claim_and_work, args=(worker,))
        try:
            thread.start()
        except RuntimeError:  # no thread to spare: the threads started claim every span
            break
        started.append(thread)
    try:
        claim_and_work(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[min(errors)]


def as_float(x) -> np.ndarray:
    """`x` as an array of its own dtype when that is float32 or float64,
    otherwise as float64."""
    x = np.asarray(x)
    return x if x.dtype in (np.float32, np.float64) else x.astype(np.float64)


class Buffers:
    """Arrays of one dtype, the compute dtype of the passes that use them,
    reused by the loss/grad calls of one training run or the blocks
    of one inference pass, keyed by role and by every axis but the first. A
    request with a shorter first axis gets the leading, still contiguous,
    part of the array held, so a smaller last mini-batch or block touches no
    new memory; a longer one replaces it. A new array's first axis is at
    least `rows` long. Sample-last arrays, whose batch is
    the last axis, get one array per batch size. Contents are uninitialised
    on first use and stale afterwards, so every user writes an array before
    reading it."""

    def __init__(self, dtype=np.float64, rows: int = 0):
        self.dtype = np.dtype(dtype)
        self.rows = rows
        self._arrays: dict[tuple, np.ndarray] = {}

    def empty(self, name: str, shape: tuple) -> np.ndarray:
        key = (name, shape[1:])
        held = self._arrays.get(key)
        if held is None or held.shape[0] < shape[0]:
            held = self._arrays[key] = np.empty((max(shape[0], self.rows), *shape[1:]),
                                                self.dtype)
        return held[:shape[0]]


def buffers_for(buffers: Buffers | None, dtype) -> Buffers:
    """`buffers`, or fresh ones when None, for a pass computing in `dtype`.
    Buffers of another dtype are refused: numpy casts a result written
    through `out=` to the out array's dtype, so the pass would silently
    narrow or widen every activation it stores."""
    if buffers is None:
        return Buffers(dtype)
    if buffers.dtype != dtype:
        raise DimensionError(f"buffers hold {buffers.dtype} arrays, the pass computes in "
                             f"{np.dtype(dtype)}")
    return buffers


def sigmoid(x, out=None):
    """Logistic function as 0.5 * (1 + tanh(x / 2)): one transcendental
    pass, finite for any input and exactly 0 or 1 far out."""
    out = np.multiply(as_float(x), 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


# entry spread, per dtype, below which softmax_rows shifts every row by one
# scalar: each row's maximum then lands at most this far below 0, so its exp
# and those of all entries within ~400 (float32: ~47) of it stay normal
SOFTMAX_SHIFT_SPREAD = {np.dtype(np.float64): 300.0, np.dtype(np.float32): 40.0}


def softmax_rows(x, out=None) -> np.ndarray:
    """Row-wise softmax over the last axis; `out` may be `x` itself. The
    rows are shifted by the largest entry of the whole array when all
    entries lie within SOFTMAX_SHIFT_SPREAD of each other, and each by its
    own maximum otherwise; softmax is the same under any shift, and one
    scalar costs two whole-array reductions instead of numpy's slower one
    over the short last axis."""
    x = as_float(x)
    top = x.max(initial=-np.inf)
    spread = SOFTMAX_SHIFT_SPREAD[x.dtype]
    shift = top if top - x.min(initial=np.inf) < spread else x.max(axis=-1, keepdims=True)
    out = np.subtract(x, shift, out=out)
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


def _sum_last(x) -> np.ndarray:
    """Sum over the last axis, kept as a length-1 axis, as one GEMV over the
    rows of all leading axes at once (a batched GEMV makes one call per row
    block)."""
    ones = np.ones(x.shape[-1], x.dtype)
    return (x.reshape(-1, x.shape[-1]) @ ones).reshape(x.shape[:-1] + (1,))


def sum_leading(x) -> np.ndarray:
    """Sum over every axis but the last, as one GEMV: numpy's own reduction
    over the leading axes of a narrow array costs several times more."""
    rows = x.reshape(-1, x.shape[-1])
    return np.ones(rows.shape[0], rows.dtype) @ rows


def mean_last(x) -> np.ndarray:
    """Mean over the last axis, kept as a length-1 axis, as one GEMV."""
    return _sum_last(x) / x.shape[-1]


def layer_norm_with_cache(x, gamma, beta, eps: float = 1e-5, buffers=None, name=""):
    """Normalize the last axis to zero mean and unit population variance,
    then scale-shift; `eps` keeps constant rows defined (they map to
    `beta`). Returns the output and the (xhat, inv_std, gamma) cache the
    backward needs; the output, xhat and inv_std go into `buffers` under
    `name` when given, which must be of x's dtype."""
    x = as_float(x)
    gamma = np.asarray(gamma, dtype=x.dtype)
    beta = np.asarray(beta, dtype=x.dtype)
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise DimensionError(
            f"layer_norm parameter shapes {gamma.shape}/{beta.shape} "
            f"do not match feature size {x.shape[-1:]}"
        )
    if eps <= 0.0:
        raise ConfigError("layer_norm eps must be positive")
    buffers = buffers_for(buffers, x.dtype)
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
