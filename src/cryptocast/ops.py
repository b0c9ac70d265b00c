"""Dense float64 array primitives shared by every model in the package.

All functions are pure: they never mutate their arguments and are safe to
call concurrently. Matrices are row-major 64-bit numpy arrays throughout;
every exported operation keeps results finite for finite inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .rng import Rng


def sigmoid(x):
    """Logistic function, overflow-safe for any finite input."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def tanh(x):
    return np.tanh(np.asarray(x, dtype=np.float64))


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def softmax_rows(x) -> np.ndarray:
    """Row-wise softmax over the last axis, with max subtraction."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(dprobs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Gradient through softmax given upstream dprobs and forward probs."""
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance, then scale-shift.

    Uses the population variance of each row. `eps` keeps the division
    defined on constant rows (their normalized value is exactly zero).
    """
    out, _ = layer_norm_with_cache(x, gamma, beta, eps)
    return out


def layer_norm_with_cache(x, gamma, beta, eps: float = 1e-5):
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
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = gamma * xhat + beta
    return out, (xhat, inv_std, gamma)


def layer_norm_backward(dout: np.ndarray, cache):
    """Backward pass; returns (dx, dgamma, dbeta).

    dgamma/dbeta are summed over all leading axes.
    """
    xhat, inv_std, gamma = cache
    d = xhat.shape[-1]
    lead_axes = tuple(range(dout.ndim - 1))
    dgamma = (dout * xhat).sum(axis=lead_axes)
    dbeta = dout.sum(axis=lead_axes)
    dxhat = dout * gamma
    # d/dx of (x - mean) * inv_std with population statistics
    dx = (
        dxhat - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    ) * inv_std
    return dx, dgamma, dbeta


def xavier(rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Xavier-uniform matrix drawn from an existing stream."""
    if rows < 1 or cols < 1:
        raise DimensionError(f"xavier dimensions must be >= 1, got {rows}x{cols}")
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))
