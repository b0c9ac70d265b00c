"""Finite-difference gradient verification.

Every trainable layer in this package is validated against this oracle:
the analytic gradients that drive training must agree with central
differences of the same loss. The oracle perturbs the model's own arrays
in place, one coordinate at a time, and restores each coordinate bit for
bit before moving on.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


def grad_check(loss_and_grad, params, h: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    Parameters
    ----------
    loss_and_grad : callable
        Takes no arguments and returns (scalar loss, dict of analytic
        gradient arrays keyed like `params`), computed from the current
        values of the arrays in `params`. Must be deterministic.
    params : dict of str -> float64 ndarray
        The arrays the loss reads (a model's `named_arrays`), at the point to
        check. Each is perturbed in place; all are bit-identical on return.
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
    loss0, grads = loss_and_grad()
    if not np.isfinite(loss0):
        raise NumericalError("loss is non-finite at the checkpoint")
    if set(grads) != set(params):
        raise NumericalError(f"got gradients for {sorted(grads)}, parameters {sorted(params)}")
    max_rel = 0.0
    for name, p in params.items():
        gflat = np.asarray(grads[name], dtype=np.float64).reshape(-1)
        for i in range(p.size):
            orig = p.flat[i]
            p.flat[i] = orig + h
            loss_plus, _ = loss_and_grad()
            p.flat[i] = orig - h
            loss_minus, _ = loss_and_grad()
            p.flat[i] = orig
            if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
                raise NumericalError("non-finite loss during finite differencing")
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            analytic = gflat[i]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            rel = abs(analytic - numeric) / denom
            if rel > max_rel:
                max_rel = rel
    return float(max_rel)
