"""Uniform on-disk envelope for every trained model.

A bundle is a JSON document carrying the model kind, its hyperparameters,
the fgi composition, normalization stats and windowing needed to run it
on raw data, and one flat map from dotted parameter name (`forward.W_fx`,
`encoder_layers.0.W_Q`) to array. Every model kind round-trips exactly;
loading checks each array's name, shape and finiteness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .data import NormStats, check_fgi_weights
from .errors import ConfigError, DataError, DomainError, NumericalError
from .jsonio import dumps_canonical
from .params import named_arrays
from .pipeline import MODELS

BUNDLE_FORMAT = "model-bundle/3"


@dataclass
class ModelBundle:
    kind: str
    model: object
    hyperparameters: dict
    window: int
    feature_columns: list[str]
    target_column: str
    compose_fgi: bool
    fgi_weights: list[float]
    stats: NormStats


def model_bundle(cfg: ExperimentConfig, stats: NormStats, kind: str, model,
                 hyperparameters: dict) -> ModelBundle:
    return ModelBundle(
        kind=kind, model=model, hyperparameters=hyperparameters, window=cfg.window,
        feature_columns=list(cfg.data.feature_columns), target_column=cfg.data.target_column,
        compose_fgi=cfg.data.compose_fgi, fgi_weights=list(cfg.data.fgi_weights), stats=stats,
    )


def bundle_to_json(b: ModelBundle) -> str:
    return dumps_canonical({
        "format": BUNDLE_FORMAT,
        "model": b.kind,
        "hyperparameters": b.hyperparameters,
        "window": b.window,
        "feature_columns": b.feature_columns,
        "target_column": b.target_column,
        "compose_fgi": b.compose_fgi,
        "fgi_weights": b.fgi_weights,
        "normalization": b.stats.to_json_dict(),
        "parameters": named_arrays(b.model),
    })


def save_bundle(b: ModelBundle, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bundle_to_json(b) + "\n")


def _parameter_arrays(path, expected: dict, params: dict) -> dict[str, np.ndarray]:
    """Arrays named exactly as `expected`, each of its shape and finite.
    A string dimension is free but must agree wherever it appears."""
    for name in expected:
        if name not in params:
            raise DataError(f"bundle {path} lacks parameter {name}")
    for name in params:
        if name not in expected:
            raise DataError(f"bundle {path} has unexpected parameter {name}")
    free: dict[str, int] = {}
    arrays = {}
    for name, shape in expected.items():
        try:
            a = np.array(params[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataError(f"bundle {path}: parameter {name} is not numeric: {exc}") from None
        if a.ndim == len(shape):
            shape = tuple(free.setdefault(d, n) if isinstance(d, str) else d
                          for d, n in zip(shape, a.shape))
        if a.shape != shape:
            raise DataError(f"bundle {path}: parameter {name} has shape {a.shape}, "
                            f"expected {shape}")
        if not np.all(np.isfinite(a)):
            raise DataError(f"bundle {path}: parameter {name} has non-finite values")
        arrays[name] = a
    return arrays


def load_bundle(path) -> ModelBundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open bundle {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"bundle {path} is not valid JSON: {exc}") from exc
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != BUNDLE_FORMAT:
        raise DataError(f"bundle {path} has format {found!r}, expected {BUNDLE_FORMAT!r}")
    kind = doc.get("model")
    if not isinstance(kind, str) or kind not in MODELS:
        raise DataError(f"bundle {path} names unknown model kind {kind!r}")
    spec = MODELS[kind]
    try:
        hyper = doc["hyperparameters"]
        window = int(doc["window"])
        feature_columns = list(doc["feature_columns"])
        target_column = doc["target_column"]
        compose_fgi = doc["compose_fgi"]
        if not isinstance(compose_fgi, bool):
            raise TypeError(f"compose_fgi must be a boolean, got {compose_fgi!r}")
        fgi_weights = [float(w) for w in doc["fgi_weights"]]
        check_fgi_weights(*fgi_weights)
        stats = NormStats.from_json_dict(doc["normalization"])
        params = dict(doc["parameters"])
        expected = spec.shapes(hyper, window * len(feature_columns))
    except KeyError as exc:
        raise DataError(f"bundle {path} lacks field {exc}") from None
    except (TypeError, ValueError, ConfigError, DomainError) as exc:
        raise DataError(f"bundle {path} has a malformed envelope: {exc}") from None
    arrays = _parameter_arrays(path, expected, params)
    try:
        model = spec.rebuild(hyper, arrays)
    except NumericalError as exc:
        raise DataError(f"bundle {path}: {exc}") from None
    return ModelBundle(kind=kind, model=model, hyperparameters=hyper, window=window,
                       feature_columns=feature_columns, target_column=target_column,
                       compose_fgi=compose_fgi, fgi_weights=fgi_weights, stats=stats)
