"""Uniform on-disk envelope for every trained model.

A bundle is a JSON document carrying the model kind, its hyperparameters,
the fgi composition, normalization stats and windowing needed to run it
on raw data, and one flat map from dotted parameter name (`forward.W_x`,
`encoder_layers.0.W_QKV`) to array. Arrays are stored in the layout the
kernels compute with: a recurrent cell's gates side by side in W_x, W_h and
b, an encoder layer's Q/K/V projections of all heads in one W_QKV. Each
array is stored as its shape and the base64 of its little-endian float64
bytes, so saving and loading a GRNN's whole training set costs a base64
pass, not a JSON number per value. The hyperparameters are the config's
`models.<kind>` section; the window and input size are the envelope's. Every
model kind round-trips bit-exactly; loading checks the envelope and the
hyperparameters by the config's schema and rules, and each array's name,
payload, shape and finiteness.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, check_inputs, check_setting
from .data import NormStats
from .errors import ConfigError, DataError, DomainError, NumericalError
from .jsonio import dumps_canonical
from .params import map_arrays, named_arrays
from .pipeline import MODELS

BUNDLE_FORMAT = "model-bundle/6"
F8LE = np.dtype("<f8")


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


def _encode_array(a: np.ndarray) -> dict:
    """The `parameters` entry of one array: its shape and the base64 of its
    little-endian float64 bytes in C order."""
    a = np.asarray(a, dtype=F8LE)
    return {"shape": list(a.shape), "f8le": base64.b64encode(a.tobytes("C")).decode("ascii")}


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
        "parameters": {name: _encode_array(a) for name, a in named_arrays(b.model).items()},
    })


def bundle_bytes(b: ModelBundle) -> bytes:
    """The bytes of a bundle's file."""
    return (bundle_to_json(b) + "\n").encode("utf-8")


def save_bundle(b: ModelBundle, path) -> None:
    with open(path, "wb") as fh:
        fh.write(bundle_bytes(b))


def _declared_shape(path, name: str, entry) -> tuple[int, ...]:
    """The shape a `parameters` entry declares, once the entry is an object
    with exactly `shape` and `f8le` and every dimension a non-negative int."""
    if not isinstance(entry, dict) or entry.keys() != {"shape", "f8le"}:
        raise DataError(f"bundle {path}: parameter {name} must be an object with exactly "
                        f"the keys 'shape' and 'f8le'")
    shape = entry["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"bundle {path}: parameter {name} has shape {shape!r}, "
                        f"expected a list of non-negative integers")
    return tuple(shape)


def _decode_array(path, name: str, payload, shape: tuple[int, ...]) -> np.ndarray:
    """The owned, writable, C-contiguous float64 array `payload` encodes."""
    try:
        raw = base64.b64decode(payload, validate=True)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bundle {path}: parameter {name} has an invalid f8le payload: "
                        f"{exc}") from None
    need = F8LE.itemsize * math.prod(shape)
    if len(raw) != need:
        raise DataError(f"bundle {path}: parameter {name} holds {len(raw)} bytes, "
                        f"shape {shape} needs {need}")
    return np.frombuffer(raw, dtype=F8LE).reshape(shape).astype(np.float64)


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
        declared = _declared_shape(path, name, params[name])
        if len(declared) == len(shape):
            shape = tuple(free.setdefault(d, n) if isinstance(d, str) else d
                          for d, n in zip(shape, declared))
        if declared != shape:
            raise DataError(f"bundle {path}: parameter {name} has shape {declared}, "
                            f"expected {shape}")
        a = _decode_array(path, name, params[name]["f8le"], declared)
        if not np.all(np.isfinite(a)):
            raise DataError(f"bundle {path}: parameter {name} has non-finite values")
        arrays[name] = a
    return arrays


def _finite(token: str) -> float:
    """A JSON number or NaN/Infinity constant as a float; non-finite is invalid."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def load_bundle(path) -> ModelBundle:
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open bundle {path}: {exc}") from exc
    try:
        doc = json.loads(text.decode("utf-8"), parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"bundle {path} is not valid UTF-8 JSON: {exc}") from None
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != BUNDLE_FORMAT:
        raise DataError(f"bundle {path} has format {found!r}, expected {BUNDLE_FORMAT!r}")
    kind = doc.get("model")
    if not isinstance(kind, str) or kind not in MODELS:
        raise DataError(f"bundle {path} names unknown model kind {kind!r}")
    spec = MODELS[kind]
    try:
        # the envelope and hyperparameters obey the config's schema and rules
        window = check_setting("window", doc["window"], "window")
        feature_columns = check_setting("data.feature_columns", doc["feature_columns"],
                                        "feature_columns")
        target_column = check_setting("data.target_column", doc["target_column"],
                                      "target_column")
        compose_fgi = check_setting("data.compose_fgi", doc["compose_fgi"], "compose_fgi")
        fgi_weights = check_setting("data.fgi_weights", doc["fgi_weights"], "fgi_weights")
        check_inputs(feature_columns, target_column, fgi_weights)
        hyper = check_setting(f"models.{kind}", doc["hyperparameters"], "hyperparameters")
        stats = NormStats.from_json_dict(doc["normalization"])
        missing = [c for c in feature_columns if c not in stats.columns]
        if missing:
            raise ValueError(f"normalization lacks feature columns {missing}")
        params = doc["parameters"]
        if not isinstance(params, dict):
            raise TypeError(f"parameters must be an object, got {type(params).__name__}")
        # a file of n bytes carries at most n/8 parameters, in len(params)
        # arrays, so no size or count may ask for more before the template
        # allocates it
        sizes = {"window": window, **hyper}
        for key in spec.sizes:
            if sizes[key] > len(text) // 8:
                raise ValueError(f"{key}={sizes[key]} needs more parameters than the "
                                 f"{len(text)}-byte file can hold")
        for key in spec.counts:
            if hyper[key] > len(params):
                raise ValueError(f"{key}={hyper[key]} needs more parameters than the "
                                 f"{len(params)} arrays the file holds")
        template = spec.template(hyper, window, len(feature_columns))
    except KeyError as exc:
        raise DataError(f"bundle {path} lacks field {exc}") from None
    except (TypeError, ValueError, OverflowError, MemoryError, ConfigError,
            DomainError) as exc:
        raise DataError(f"bundle {path} has a malformed envelope: {exc}") from None
    arrays = _parameter_arrays(path, spec.shapes_of(template), params)
    try:
        model = map_arrays(template, lambda name, a: arrays[name])
    except NumericalError as exc:
        raise DataError(f"bundle {path}: {exc}") from None
    return ModelBundle(kind=kind, model=model, hyperparameters=hyper, window=window,
                       feature_columns=feature_columns, target_column=target_column,
                       compose_fgi=compose_fgi, fgi_weights=fgi_weights, stats=stats)
