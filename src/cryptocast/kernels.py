"""Feedforward kernel baselines: Gaussian RBF network and a memorizing
kernel regressor (weighted-average smoother).

Both models consume flat feature vectors. Fitting is deterministic given
the seed; predictions are pure functions of the fitted model.

The regressor's predictions and sigma scoring share `_grnn_sweep`: per
block of query rows, one GEMM for the exponents, scaled by 1/sigma² and
floored at GRNN_EXP_FLOOR before np.exp, and one product of the weights
with [targets, ones], whose two columns' quotient is the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError, SizeError
from .ops import block_rows, blocks
from .rng import Rng

RIDGE_JITTER = 1e-8


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of a (p,k) and b (q,k)."""
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    ab2 = a @ b.T
    ab2 *= 2.0
    sq = np.add(aa, bb)
    sq -= ab2
    return np.maximum(sq, 0.0, out=sq)


# ---------------------------------------------------------------------------
# k-means (used only to place RBF centers)
# ---------------------------------------------------------------------------

KMEANS_RESTARTS = 3    # independent random-row inits
KMEANS_MAX_ITER = 100  # Lloyd iterations per init, at most


def kmeans(X: np.ndarray, n_clusters: int, rng: Rng):
    """Seeded Lloyd iterations with random-row initialization.

    Runs KMEANS_RESTARTS independent inits and keeps the assignment with
    the lowest inertia. Empty clusters are re-seeded at the point farthest
    from its assigned center, which keeps the procedure deterministic.
    """
    n = X.shape[0]
    if n_clusters > n:
        raise SizeError(f"cannot place {n_clusters} centers on {n} samples")
    best_centers = None
    best_inertia = np.inf
    for _ in range(KMEANS_RESTARTS):
        pick = rng.sample_without_replacement(n, n_clusters)
        centers = X[pick].copy()
        for _ in range(KMEANS_MAX_ITER):
            sq = _pairwise_sq_dists(X, centers)
            assign = sq.argmin(axis=1)
            nearest = sq[np.arange(n), assign]
            new_centers = centers.copy()
            for c in range(n_clusters):
                members = assign == c
                if members.any():
                    new_centers[c] = X[members].mean(axis=0)
                else:
                    new_centers[c] = X[int(nearest.argmax())]
            if np.allclose(new_centers, centers, rtol=0.0, atol=1e-12):
                centers = new_centers
                break
            centers = new_centers
        sq = _pairwise_sq_dists(X, centers)
        inertia = float(sq.min(axis=1).sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_centers = centers
    return best_centers, best_inertia


# ---------------------------------------------------------------------------
# RBF network
# ---------------------------------------------------------------------------

@dataclass
class RbfnModel:
    """Gaussian-kernel network: hidden responses phi_i(x) =
    exp(-||x - c_i||^2 / (2 s_i^2)), output = sum w_i phi_i + w0."""

    centers: np.ndarray   # (m, k)
    spreads: np.ndarray   # (m,) all positive
    weights: np.ndarray   # (m,)
    bias: np.ndarray      # ()

    def __post_init__(self):
        if np.any(self.spreads <= 0.0):
            raise NumericalError("rbfn spreads must be positive")


def _design_matrix(X: np.ndarray, centers: np.ndarray, spreads: np.ndarray) -> np.ndarray:
    sq = _pairwise_sq_dists(X, centers)
    return np.exp(-sq / (2.0 * spreads[None, :] ** 2))


def _solve_readout(phi: np.ndarray, y: np.ndarray):
    """Least squares on [phi | 1] via normal equations with ridge jitter."""
    a = np.column_stack([phi, np.ones(phi.shape[0])])
    gram = a.T @ a + RIDGE_JITTER * np.eye(a.shape[1])
    try:
        coef = np.linalg.solve(gram, a.T @ y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"rbfn readout system is singular: {exc}") from exc
    if not np.all(np.isfinite(coef)):
        raise NumericalError("rbfn readout produced non-finite coefficients")
    return coef[:-1], np.array(coef[-1])


def rbfn_fit(X: np.ndarray, y: np.ndarray, m: int, seed: int,
             spread: float | None = None) -> RbfnModel:
    """Place m centers by seeded k-means, set a shared spread from the
    maximum inter-center distance (d_max / sqrt(2m)), then solve the
    linear readout by least squares.

    `spread` overrides the heuristic, which the interpolation tests use.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if m < 1:
        raise SizeError(f"need at least one center, got m={m}")
    if m > n:
        raise SizeError(f"m={m} centers exceed n={n} training samples")
    centers, _ = kmeans(X, m, Rng(seed))
    if spread is None:
        if m > 1:
            d_max = float(np.sqrt(_pairwise_sq_dists(centers, centers).max()))
        else:
            d_max = 0.0
        sigma = d_max / np.sqrt(2.0 * m)
        if sigma <= 0.0:
            # single center or coincident centers: fall back to the RMS
            # sample-to-center distance, then to unity
            rms = float(np.sqrt(_pairwise_sq_dists(X, centers).mean()))
            sigma = rms if rms > 0.0 else 1.0
    else:
        if spread <= 0.0:
            raise NumericalError(f"spread must be positive, got {spread}")
        sigma = float(spread)
    spreads = np.full(m, sigma)
    phi = _design_matrix(X, centers, spreads)
    weights, bias = _solve_readout(phi, y)
    return RbfnModel(centers=centers, spreads=spreads, weights=weights, bias=bias)


def rbfn_predict_batch(model: RbfnModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.centers.shape[1]:
        raise DimensionError(
            f"query matrix shape {X.shape} does not match center dimension "
            f"{model.centers.shape[1]}"
        )
    phi = _design_matrix(X, model.centers, model.spreads)
    return phi @ model.weights + model.bias


def rbfn_loss_and_grad(model: RbfnModel, X: np.ndarray, y: np.ndarray):
    """Mean squared residual of the linear readout and its gradient with
    respect to weights and bias, by name. Centers and spreads are held
    fixed, exactly as in fitting, so this is the objective the least-squares
    solve minimizes (up to the ridge jitter)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    phi = _design_matrix(X, model.centers, model.spreads)
    resid = phi @ model.weights + model.bias - y
    n = y.shape[0]
    loss = float((resid**2).mean())
    return loss, {"weights": 2.0 * phi.T @ resid / n, "bias": np.array(2.0 * resid.mean())}


# ---------------------------------------------------------------------------
# Memorizing kernel regressor
# ---------------------------------------------------------------------------

@dataclass
class GrnnModel:
    """Stores the training set verbatim; predicts the kernel-weighted
    average of stored targets with a single shared bandwidth."""

    stored_inputs: np.ndarray   # (n, k)
    stored_targets: np.ndarray  # (n,)
    sigma: np.ndarray           # ()

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise NumericalError("grnn sigma must be positive")
        if len(self.stored_targets) == 0:
            raise NumericalError("grnn stores no training rows")


# np.exp computes a result below e^-708 (subnormal or 0) on a slow path, so
# each exponent is raised to this first: only weights below e^-700 of their
# row's largest, which is 1, change, each by less than 1e-304 of the row's sum
GRNN_EXP_FLOOR = -700.0
# smaller sigmas weigh as this one: 1/sigma^2 stays finite
GRNN_MIN_SIGMA = 1e-150


def _grnn_weights(exponents: np.ndarray, sigma: float, out: np.ndarray) -> np.ndarray:
    """exp(max(exponents / sigma², GRNN_EXP_FLOOR)), into `out`."""
    sigma = max(sigma, GRNN_MIN_SIGMA)
    np.maximum(exponents, GRNN_EXP_FLOOR * sigma * sigma, out=out)
    out *= 1.0 / (sigma * sigma)
    return np.exp(out, out=out)


def _grnn_sweep(queries: np.ndarray, stored: np.ndarray, targets: np.ndarray, sigmas):
    """For each block of `ops.block_rows` query rows, its slice and the
    (len(sigmas), rows) kernel-weighted averages of `targets`. A block's
    exponents x·s − ½‖s‖², less their row maximum, serve every sigma (the
    query's own norm cancels); two (rows, stored) buffers serve every block."""
    rows = block_rows(len(stored))
    half_norms = 0.5 * np.einsum("ij,ij->i", stored, stored)
    targets_ones = np.column_stack([targets, np.ones(len(stored))])
    exponents = np.empty((min(rows, len(queries)), len(stored)))
    weights = np.empty_like(exponents)
    for block in blocks(len(queries), rows):
        e = np.matmul(queries[block], stored.T, out=exponents[:block.stop - block.start])
        e -= half_norms
        e -= e.max(axis=1, keepdims=True)
        means = np.empty((len(sigmas), len(e)))
        for j, sigma in enumerate(sigmas):
            sums, totals = (_grnn_weights(e, sigma, weights[:len(e)]) @ targets_ones).T
            np.divide(sums, totals, out=means[j])
        yield block, means


def grnn_fit(X: np.ndarray, y: np.ndarray, sigma_grid) -> GrnnModel:
    """Memorize (X, y) and pick sigma by chronological holdout: predict the
    last 20% of rows from the first 80% and keep the grid value with the
    smallest holdout MSE (earliest wins ties). The holdout is scored in
    blocks, as `grnn_predict_batch` works, so its kernel matrices stay
    block-sized for any N."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if n < 3:
        raise SizeError(f"grnn_fit needs at least 3 samples, got {n}")
    grid = [float(s) for s in sigma_grid]
    if not grid:
        raise ConfigError("sigma grid must not be empty")
    if any(s <= 0.0 for s in grid):
        raise ConfigError(f"sigma grid values must be positive: {grid}")
    n_fit = max(1, int(np.floor(0.8 * n)))
    if n_fit >= n:
        n_fit = n - 1
    x_fit, y_fit = X[:n_fit], y[:n_fit]
    x_hold, y_hold = X[n_fit:], y[n_fit:]
    sse = np.zeros(len(grid))  # squared holdout error per sigma
    for rows, means in _grnn_sweep(x_hold, x_fit, y_fit, grid):
        sse += ((means - y_hold[rows]) ** 2).sum(axis=1)
    best_sigma = grid[0]
    best_mse = np.inf
    for sigma, mse in zip(grid, sse / len(x_hold)):
        if mse < best_mse:
            best_mse = mse
            best_sigma = sigma
    return GrnnModel(stored_inputs=X.copy(), stored_targets=y.copy(), sigma=np.array(best_sigma))


def grnn_predict_batch(model: GrnnModel, X: np.ndarray) -> np.ndarray:
    """Kernel-weighted averages for the rows of X, in blocks of query rows
    (see `_grnn_sweep`), so the (queries, stored) matrices stay block-sized
    for any N."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.stored_inputs.shape[1]:
        raise DimensionError(
            f"query matrix shape {X.shape} does not match stored dimension "
            f"{model.stored_inputs.shape[1]}"
        )
    out = np.empty(X.shape[0])
    for rows, means in _grnn_sweep(X, model.stored_inputs, model.stored_targets,
                                   [float(model.sigma)]):
        out[rows] = means[0]
    return out
