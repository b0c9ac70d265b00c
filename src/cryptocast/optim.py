"""Adam optimizer and the shared seeded training loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, SizeError
from .rng import Rng


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, step count and learning rate."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, params, lr: float = 1e-3) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params], t=0, lr=lr)


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update. Pure: returns (new_params, new_state)."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionError(
            f"adam_step got {len(params)} params, {len(grads)} grads, "
            f"{len(state.m)} moment slots"
        )
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match parameter {p.shape}"
            )
    t = state.t + 1
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        new_params.append(p - state.lr * m_hat / (np.sqrt(v_hat) + EPS))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(m=new_m, v=new_v, t=t, lr=state.lr)


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 1e-3
    seed: int = 0
    batch_size: int = 0  # 0 = full batch

    def validate(self) -> "TrainConfig":
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        return self


def run_adam_training(params: dict, loss_grad, n_samples: int, cfg: TrainConfig):
    """Drive Adam over `loss_grad(params, idx) -> (loss, grads)`.

    `params` and `grads` map parameter names to arrays; `idx` is the integer
    index array of the samples to use this step. Full-batch when
    cfg.batch_size == 0, otherwise seeded shuffled mini-batches. A
    non-finite loss or gradient raises DivergenceError naming the epoch.
    Returns (trained params by name, per-epoch loss).
    """
    cfg.validate()
    if n_samples < 1:
        raise SizeError("training requires at least one sample")
    names = list(params)
    values = list(params.values())
    state = AdamState.init(values, lr=cfg.lr)
    rng = Rng(cfg.seed)
    full_batch = cfg.batch_size == 0 or cfg.batch_size >= n_samples
    trace: list[float] = []
    for epoch in range(cfg.epochs):
        order = np.arange(n_samples) if full_batch else rng.permutation(n_samples)
        step = n_samples if full_batch else cfg.batch_size
        losses = []
        for start in range(0, n_samples, step):
            loss, grads = loss_grad(dict(zip(names, values)), order[start:start + step])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            grad_list = [grads[name] for name in names]
            for name, g in zip(names, grad_list):
                if not np.all(np.isfinite(g)):
                    raise DivergenceError(f"non-finite gradient for {name} at epoch {epoch}")
            values, state = adam_step(values, grad_list, state)
            losses.append(float(loss))
        trace.append(losses[0] if full_batch else float(np.mean(losses)))
    return dict(zip(names, values)), trace
