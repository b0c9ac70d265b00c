"""Adam optimizer and the shared seeded training loop.

Parameters live in one place: the model's own arrays, keyed by name
(`params.named_arrays`). Adam writes each update into those arrays and into
its (m, v) moment arrays, so a step allocates only its temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, SizeError
from .rng import Rng


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def adam_step(params: dict, grads: dict, moments: dict, t: int, lr: float) -> None:
    """Bias-corrected Adam update number `t` (from 1), in place.

    `params`, `grads` and `moments` are keyed by parameter name; each
    parameter array and its `(m, v)` moment pair are overwritten. Every
    gradient's shape is checked before any array changes.
    """
    for name, p in params.items():
        if p.shape != grads[name].shape:
            raise DimensionError(f"gradient shape {grads[name].shape} for {name} "
                                 f"does not match parameter {p.shape}")
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name]
        m, v = moments[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 1e-3
    seed: int = 0
    batch_size: int = 0  # 0 = full batch

    def validate(self) -> "TrainConfig":
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.lr <= 0.0:
            raise ConfigError("lr must be positive")
        if self.batch_size < 0:
            raise ConfigError("batch_size must be >= 0")
        return self


def run_adam_training(params: dict, loss_grad, n_samples: int, cfg: TrainConfig) -> list[float]:
    """Drive Adam over `loss_grad(idx) -> (loss, grads)`, training the
    arrays in `params` in place.

    `params` and `grads` map parameter names to arrays; `loss_grad` reads the
    current values from the arrays themselves. `idx` is the integer index
    array of the samples to use this step. Full-batch when
    cfg.batch_size == 0, otherwise seeded shuffled mini-batches. A
    non-finite loss or gradient raises DivergenceError naming the epoch.
    Returns the per-epoch loss.
    """
    cfg.validate()
    if n_samples < 1:
        raise SizeError("training requires at least one sample")
    moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
    rng = Rng(cfg.seed)
    full_batch = cfg.batch_size == 0 or cfg.batch_size >= n_samples
    trace: list[float] = []
    t = 0
    for epoch in range(cfg.epochs):
        order = np.arange(n_samples) if full_batch else rng.permutation(n_samples)
        step = n_samples if full_batch else cfg.batch_size
        losses = []
        for start in range(0, n_samples, step):
            loss, grads = loss_grad(order[start:start + step])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            for name in params:
                if not np.all(np.isfinite(grads[name])):
                    raise DivergenceError(f"non-finite gradient for {name} at epoch {epoch}")
            t += 1
            adam_step(params, grads, moments, t, cfg.lr)
            losses.append(float(loss))
        trace.append(losses[0] if full_batch else float(np.mean(losses)))
    return trace
