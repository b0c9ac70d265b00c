"""Named parameter arrays: one walk over every model's fields.

A model's parameters are the ndarrays reachable through dataclass fields and
list items, named by dotted path (`forward.W_x`, `encoder_layers.0.W_QKV`);
ints and strings are structure. Adam, gradient zeroing, the gradient
oracles and bundles all go through these names. Training and the gradient
oracles write into the named arrays themselves, so a model's arrays are
its only parameter store; a trainer first takes its own copy.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def _join(prefix: str, key) -> str:
    return f"{prefix}.{key}" if prefix else str(key)


def map_arrays(obj, fn, prefix: str = ""):
    """Copy of `obj` with each parameter array `a` named `n` replaced by
    fn(n, a); structure is shared, not copied."""
    if isinstance(obj, np.ndarray):
        return fn(prefix, obj)
    if isinstance(obj, list):
        return [map_arrays(v, fn, _join(prefix, i)) for i, v in enumerate(obj)]
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{
            f.name: map_arrays(getattr(obj, f.name), fn, _join(prefix, f.name))
            for f in dataclasses.fields(obj)
        })
    return obj


def named_arrays(obj) -> dict[str, np.ndarray]:
    """Every parameter array of `obj`, keyed by dotted name."""
    out: dict[str, np.ndarray] = {}
    map_arrays(obj, out.setdefault)
    return out


def zeros_like(obj):
    """Copy of `obj` with every parameter zeroed: a gradient accumulator."""
    return map_arrays(obj, lambda name, a: np.zeros_like(a))
