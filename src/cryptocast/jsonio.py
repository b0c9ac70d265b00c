"""Canonical JSON and digest helpers so reruns emit byte-identical artifacts."""

from __future__ import annotations

import hashlib
import json

import numpy as np


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift, float repr."""
    return json.dumps(_plain(obj), sort_keys=True, indent=2, ensure_ascii=False)


def dumps_line(obj) -> str:
    """Canonical JSON on one line: sorted keys and no whitespace, so a line
    break in it can only be one the caller appends."""
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
