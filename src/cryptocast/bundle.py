"""Uniform on-disk envelope for every trained model.

A bundle file is one line of canonical JSON, the header, then the raw bytes
of every parameter array. The header carries the model kind, its
hyperparameters, the fgi composition, normalization stats and windowing
needed to run it on raw data, and one flat map from dotted parameter name
(`forward.W_x`, `encoder_layers.0.W_QKV`) to the array's shape and the byte
offset of its values in the tail. The tail holds each array as
little-endian float64 in C order, one after another in `named_arrays`
order, so saving and loading a GRNN's whole training set costs one copy of
its bytes. Arrays are stored in the layout the kernels compute with: a
recurrent cell's gates side by side in W_x, W_h and b, an encoder layer's
Q/K/V projections of all heads in one W_QKV. The hyperparameters are the
config's `models.<kind>` section; the window and input size are the
envelope's. Every model kind round-trips bit-exactly; loading checks the
envelope and the hyperparameters by the config's schema and rules, each
array's name and shape, that the arrays follow one another in that order
and fill the tail exactly, and that every value is finite.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .config import check_inputs, check_setting
from .data import NormStats
from .errors import ConfigError, DataError, DomainError, NumericalError
from .jsonio import dumps_line
from .params import map_arrays, named_arrays
from .pipeline import MODELS, write_files

BUNDLE_FORMAT = "model-bundle/7"
F8LE = np.dtype("<f8")
# the config's `data` keys a bundle records at its top level
DATA_KEYS = ("feature_columns", "target_column", "compose_fgi", "fgi_weights")


@dataclass
class ModelBundle:
    """A model of `kind` and the config it was trained under, read by key: a
    resolved config, or the `window`, DATA_KEYS and `models.<kind>` a file records."""

    kind: str
    model: object
    config: dict
    stats: NormStats


def bundle_bytes(b: ModelBundle) -> bytes:
    """The bytes of a bundle's file: the header line, then the tail."""
    arrays = {name: np.asarray(a, dtype=F8LE)
              for name, a in named_arrays(b.model).items()}
    offsets = accumulate((a.nbytes for a in arrays.values()), initial=0)
    header = dumps_line({
        "format": BUNDLE_FORMAT,
        "model": b.kind,
        "hyperparameters": b.config["models"][b.kind],
        "window": b.config["window"],
        **{key: b.config["data"][key] for key in DATA_KEYS},
        "normalization": b.stats.to_json_dict(),
        "parameters": {name: {"shape": list(a.shape), "offset": offset}
                       for (name, a), offset in zip(arrays.items(), offsets)},
    })
    return b"".join([header.encode("utf-8"), b"\n", *(a.tobytes() for a in arrays.values())])


def save_bundle(b: ModelBundle, path) -> None:
    write_files([(path, bundle_bytes(b))])


def _declared_span(path, name: str, entry) -> tuple[tuple[int, ...], int]:
    """The shape and tail offset a `parameters` entry declares, once the entry
    is an object with exactly `shape` and `offset`, every dimension and the
    offset a non-negative int."""
    if not isinstance(entry, dict) or entry.keys() != {"shape", "offset"}:
        raise DataError(f"bundle {path}: parameter {name} must be an object with exactly "
                        f"the keys 'shape' and 'offset'")
    shape, offset = entry["shape"], entry["offset"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"bundle {path}: parameter {name} has shape {shape!r}, "
                        f"expected a list of non-negative integers")
    if type(offset) is not int or offset < 0:
        raise DataError(f"bundle {path}: parameter {name} has offset {offset!r}, "
                        f"expected a non-negative integer")
    return tuple(shape), offset


def _parameter_arrays(path, expected: dict, params: dict, fh,
                      tail_bytes: int) -> dict[str, np.ndarray]:
    """Arrays named exactly as `expected`, each of its shape and finite, read
    from `fh`, which stands at the start of a tail of `tail_bytes` bytes. A
    string dimension is free but must agree wherever it appears. The arrays
    lie in `expected` order, each starting where the one before ends, the
    first at byte 0 and the last ending at the tail's end."""
    for name in expected:
        if name not in params:
            raise DataError(f"bundle {path} lacks parameter {name}")
    for name in params:
        if name not in expected:
            raise DataError(f"bundle {path} has unexpected parameter {name}")
    free: dict[str, int] = {}
    shapes, end = {}, 0
    for name, shape in expected.items():
        declared, offset = _declared_span(path, name, params[name])
        if len(declared) == len(shape):
            shape = tuple(free.setdefault(d, n) if isinstance(d, str) else d
                          for d, n in zip(shape, declared))
        if declared != shape:
            raise DataError(f"bundle {path}: parameter {name} has shape {declared}, "
                            f"expected {shape}")
        if offset != end:
            raise DataError(f"bundle {path}: parameter {name} starts at byte {offset}, "
                            f"expected byte {end}")
        shapes[name] = declared
        end += F8LE.itemsize * math.prod(declared)
        # every span is checked against the tail before any array is allocated
        if end > tail_bytes:
            raise DataError(f"bundle {path}: parameter {name} of shape {declared} ends at "
                            f"byte {end}, the tail holds {tail_bytes}")
    if end != tail_bytes:
        raise DataError(f"bundle {path}: the parameters take {end} bytes, the tail holds "
                        f"{tail_bytes}")
    arrays = {}
    for name, shape in shapes.items():
        a = np.empty(shape, dtype=F8LE)
        if fh.readinto(a.reshape(-1).view(np.uint8)) != a.nbytes:
            raise DataError(f"bundle {path} was cut short while it was read")
        if not np.isfinite(a).all():
            raise DataError(f"bundle {path}: parameter {name} has non-finite values")
        arrays[name] = a.astype(np.float64, copy=False)
    return arrays


def _finite(token: str) -> float:
    """A JSON number or NaN/Infinity constant as a float; non-finite is invalid."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def _whole_file_format(raw: bytes):
    """The format a bundle written before the header line, one JSON document,
    names; None for any other file. It names the format in the refusal
    only: no array of such a file is read."""
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError):
        return None
    return doc.get("format") if isinstance(doc, dict) else None


def load_bundle(path) -> ModelBundle:
    try:
        with open(path, "rb") as fh:
            return _read_bundle(path, fh)
    except OSError as exc:
        raise DataError(f"cannot open bundle {path}: {exc}") from exc


def _read_bundle(path, fh) -> ModelBundle:
    """The bundle in the open file `fh`: its header line is read and checked
    first, then its arrays straight from the tail."""
    head = fh.readline()
    try:
        doc = json.loads(head.decode("utf-8"), parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as exc:
        found = _whole_file_format(head + fh.read())
        if found is not None:
            raise DataError(f"bundle {path} has format {found!r}, "
                            f"expected {BUNDLE_FORMAT!r}") from None
        raise DataError(f"bundle {path} header is not valid UTF-8 JSON: {exc}") from None
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != BUNDLE_FORMAT:
        raise DataError(f"bundle {path} has format {found!r}, expected {BUNDLE_FORMAT!r}")
    if not head.endswith(b"\n"):
        raise DataError(f"bundle {path} header does not end in a line break")
    kind = doc.get("model")
    if not isinstance(kind, str) or kind not in MODELS:
        raise DataError(f"bundle {path} names unknown model kind {kind!r}")
    spec = MODELS[kind]
    try:
        # the envelope and hyperparameters obey the config's schema and rules
        window = check_setting("window", doc["window"], "window")
        data = {key: check_setting(f"data.{key}", doc[key], key) for key in DATA_KEYS}
        check_inputs(data)
        features = data["feature_columns"]
        hyper = check_setting(f"models.{kind}", doc["hyperparameters"], "hyperparameters")
        stats = NormStats.from_json_dict(doc["normalization"])
        missing = [c for c in features if c not in stats.columns]
        if missing:
            raise ValueError(f"normalization lacks feature columns {missing}")
        params = doc["parameters"]
        if not isinstance(params, dict):
            raise TypeError(f"parameters must be an object, got {type(params).__name__}")
        # a file of n bytes carries at most n/8 parameters, in len(params)
        # arrays, so no size or count may ask for more before the template
        # allocates it
        file_bytes = os.fstat(fh.fileno()).st_size
        sizes = {"window": window, **hyper}
        for key in spec.sizes:
            if sizes[key] > file_bytes // 8:
                raise ValueError(f"{key}={sizes[key]} needs more parameters than the "
                                 f"{file_bytes}-byte file can hold")
        for key in spec.counts:
            if hyper[key] > len(params):
                raise ValueError(f"{key}={hyper[key]} needs more parameters than the "
                                 f"{len(params)} arrays the file holds")
        template = spec.template(hyper, window, len(features))
    except KeyError as exc:
        raise DataError(f"bundle {path} lacks field {exc}") from None
    except (TypeError, ValueError, OverflowError, MemoryError, ConfigError,
            DomainError) as exc:
        raise DataError(f"bundle {path} has a malformed envelope: {exc}") from None
    arrays = _parameter_arrays(path, spec.shapes_of(template), params, fh, file_bytes - len(head))
    try:
        model = map_arrays(template, lambda name, a: arrays[name])
    except NumericalError as exc:
        raise DataError(f"bundle {path}: {exc}") from None
    return ModelBundle(kind, model, {"window": window, "data": data, "models": {kind: hyper}},
                       stats)
