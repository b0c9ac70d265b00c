"""Finite-difference gradient verification.

Every trainable layer in this package is validated against this oracle:
the analytic gradients that drive training must agree with central
differences of the same loss.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


def grad_check(loss_and_grad, params, h: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    Parameters
    ----------
    loss_and_grad : callable
        Maps a dict of named parameter arrays to (scalar loss, dict of
        analytic gradient arrays under the same names and shapes). Must be
        deterministic.
    params : dict of str -> ndarray
        Point at which to check.
    h : float
        Central-difference step.

    Returns
    -------
    float
        max over all coordinates of |analytic - numeric| /
        max(|analytic|, |numeric|, 1e-8).
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    params = {name: np.array(p, dtype=np.float64) for name, p in params.items()}
    loss0, grads = loss_and_grad(params)
    if not np.isfinite(loss0):
        raise NumericalError("loss is non-finite at the checkpoint")
    if set(grads) != set(params):
        raise NumericalError(f"got gradients for {sorted(grads)}, parameters {sorted(params)}")
    max_rel = 0.0
    for name, p in params.items():
        grad = np.asarray(grads[name], dtype=np.float64)
        flat = p.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            loss_plus, _ = loss_and_grad(params)
            flat[i] = orig - h
            loss_minus, _ = loss_and_grad(params)
            flat[i] = orig
            if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
                raise NumericalError("non-finite loss during finite differencing")
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            analytic = gflat[i]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            rel = abs(analytic - numeric) / denom
            if rel > max_rel:
                max_rel = rel
    return float(max_rel)
