"""Adam optimizer and the shared seeded training loop.

Parameters live in one place: the model's own arrays, keyed by name
(`params.named_arrays`). Adam writes each update into those arrays and into
its (m, v) moment arrays, so a step allocates only its temporaries.

The neural kinds train in mixed precision (Micikevicius et al., arXiv
1710.03740): the model's arrays, Adam and its moments are float64, and each
step's loss and gradients are computed in float32 on a copy of the model
refreshed from those arrays (`float32_loss_grad`).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DivergenceError, SizeError
from .ops import Buffers
from .params import map_arrays, named_arrays
from .rng import Rng


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def adam_step(params: dict, grads: dict, moments: dict, t: int, lr: float) -> None:
    """Bias-corrected Adam update number `t` (from 1), in place.

    `params`, `grads` and `moments` are keyed by parameter name; each
    parameter array and its `(m, v)` moment pair are overwritten. Every
    gradient's shape is checked before any array changes; a gradient of
    lower precision is widened to its parameter's dtype, in which the
    whole update is computed.
    """
    for name, p in params.items():
        if p.shape != grads[name].shape:
            raise DimensionError(f"gradient shape {grads[name].shape} for {name} "
                                 f"does not match parameter {p.shape}")
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name].astype(p.dtype, copy=False)
        m, v = moments[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def run_adam_training(params: dict, loss_grad, n_samples: int, hyper: dict,
                      seed: int) -> list[float]:
    """Drive Adam over `loss_grad(idx) -> (loss, grads)`, training the
    arrays in `params` in place, for the `epochs` at rate `lr` that `hyper`
    (a resolved `models.<kind>` section) sets.

    `params` and `grads` map parameter names to arrays; `loss_grad` reads the
    current values from the arrays themselves. `idx` is the integer index
    array of the samples to use this step. Full-batch when `batch_size` is
    0, otherwise mini-batches shuffled from `seed`. A non-finite loss or
    gradient raises DivergenceError naming the epoch. Returns the per-epoch
    loss.
    """
    if n_samples < 1:
        raise SizeError("training requires at least one sample")
    moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
    rng = Rng(seed)
    batch_size, lr = hyper["batch_size"], hyper["lr"]
    full_batch = batch_size == 0 or batch_size >= n_samples
    trace: list[float] = []
    t = 0
    for epoch in range(hyper["epochs"]):
        order = np.arange(n_samples) if full_batch else rng.permutation(n_samples)
        step = n_samples if full_batch else batch_size
        losses = []
        for start in range(0, n_samples, step):
            loss, grads = loss_grad(order[start:start + step])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            for name in params:
                if not np.all(np.isfinite(grads[name])):
                    raise DivergenceError(f"non-finite gradient for {name} at epoch {epoch}")
            t += 1
            adam_step(params, grads, moments, t, lr)
            losses.append(float(loss))
        trace.append(losses[0] if full_batch else float(np.mean(losses)))
    return trace


def float32_loss_grad(model, loss_and_grads, data):
    """`loss_grad(idx)` for `run_adam_training` over the float64 arrays of
    `model`: each call copies them into a float32 twin of the model and
    returns `loss_and_grads(twin, X, y, buffers=...)` on the windows `idx`
    of `data`, so the loss and gradients are float32. `loss_and_grads`
    casts each gathered batch to the twin's dtype, so no float32 copy of
    the whole window set is kept; the twin and its activation buffers live
    as long as the returned function."""
    master = named_arrays(model)
    twin = map_arrays(model, lambda name, a: a.astype(np.float32))
    working = named_arrays(twin)
    buffers = Buffers(np.float32)

    def loss_grad(idx):
        for name, a in master.items():
            np.copyto(working[name], a)
        return loss_and_grads(twin, data.X[idx], data.y[idx], buffers=buffers)

    return loss_grad
