"""Experiment configuration: JSON in, fully-defaulted validated config out.

`config.schema.json`, next to this module, names every key, type, bound and
default once; `_resolve` executes it, so unknown keys and NaN/Infinity fail
loudly. Code adds only the rules JSON Schema cannot state. The resolved
config is what gets echoed into run artifacts.
"""

from __future__ import annotations

import json
import operator
import os
import sys

from .data import check_fgi_weights
from .errors import ConfigError, DomainError
from .hybrid import check_shape

with open(os.path.join(os.path.dirname(__file__), "config.schema.json"), encoding="utf-8") as _fh:
    SCHEMA = json.load(_fh)

# the features a scenario selects when data.feature_columns is absent
_BITCOIN = ["close", "volume", "fgi"]
SCENARIO_FEATURES = {"bitcoin": _BITCOIN, "ethereum": _BITCOIN + ["btc_close"], "custom": _BITCOIN}

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": (int, float), "number": (int, float)}
# keyword -> holds(value, keyword argument); checked after type and children
_CHECKS = {
    "enum": lambda v, allowed: v in allowed,
    "minimum": operator.ge, "exclusiveMinimum": operator.gt, "exclusiveMaximum": operator.lt,
    "minLength": lambda v, n: len(v) >= n, "minItems": lambda v, n: len(v) >= n,
    "maxItems": lambda v, n: len(v) <= n,
    "uniqueItems": lambda v, unique: not unique or len(set(v)) == len(v),
}


def _deref(schema: dict) -> dict:
    """The schema a `{"$ref": "#/$defs/<name>"}` names, or `schema` itself."""
    return SCHEMA["$defs"][schema["$ref"].rsplit("/", 1)[1]] if "$ref" in schema else schema


def _typed(kind: str, value, name: str):
    """`value` as JSON type `kind`; integers become int, numbers finite float.
    The float bounds compare exactly with ints of any size and reject NaN."""
    if (not isinstance(value, _TYPES[kind]) or isinstance(value, bool) and kind != "boolean"
            or kind == "integer" and isinstance(value, float) and not value.is_integer()
            or kind == "number" and not -sys.float_info.max <= value <= sys.float_info.max):
        finite = "finite " if kind == "number" else ""
        raise ConfigError(f"{name} must be a {finite}JSON {kind}, got {value!r}")
    return int(value) if kind == "integer" else float(value) if kind == "number" else value


def _resolve(schema: dict, value, where: str = ""):
    """`value` checked against `schema`, numbers typed, defaults filled in."""
    schema = _deref(schema)
    name = where or "config"
    if "type" in schema:
        value = _typed(schema["type"], value, name)
    if "properties" in schema:
        props = schema["properties"]
        for key in value:
            if key not in props and schema.get("additionalProperties") is False:
                raise ConfigError(f"unknown key {key!r} in {name}")
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(f"{name} requires the key {key!r}")
        value = {key: _resolve(sub, value[key] if key in value else _deref(sub)["default"],
                               f"{where}.{key}" if where else key)
                 for key, sub in props.items() if key in value or "default" in _deref(sub)}
    if "items" in schema:
        value = [_resolve(schema["items"], v, f"{name}[{i}]") for i, v in enumerate(value)]
    for keyword, holds in _CHECKS.items():
        if keyword in schema and not holds(value, schema[keyword]):
            raise ConfigError(f"{name}={value!r} violates {keyword}: {schema[keyword]!r}")
    return value


def check_setting(path: str, value, name: str):
    """`value` checked, typed and defaulted against the schema of the config
    key at the dotted `path` (`"alpha"`, `"models.rbfn"`), for a value that
    arrives outside a config file: a command-line flag or a field of a
    bundle. `name` labels errors."""
    schema = SCHEMA
    for key in path.split("."):
        schema = _deref(schema)["properties"][key]
    return _resolve(schema, value, name)


def check_weights(weights, name: str) -> list:
    """`weights` checked as `data.fgi_weights`: by its schema entry, then summing to 1."""
    weights = check_setting("data.fgi_weights", weights, name)
    try:
        check_fgi_weights(*weights)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return weights


def check_inputs(data: dict) -> None:
    """The rules on a model's inputs that JSON Schema cannot state, for the
    `data` section of a config and of a bundle alike: the target is a
    feature, and the fgi weights sum to 1."""
    target, features = data["target_column"], data["feature_columns"]
    if target not in features:
        raise ConfigError(f"target column {target!r} must be among {features}")
    check_weights(data["fgi_weights"], "fgi_weights")


def validate_config(raw: dict | str, base_dir: str = ".", check_files: bool = True) -> dict:
    """The resolved document of a raw JSON one (text or parsed dict): every
    schema key present, defaults filled in, `data.feature_columns` filled
    from the scenario and a relative `data.path` joined to `base_dir`.
    Unknown keys and inconsistent dimensions are rejected."""
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    doc = _resolve(SCHEMA, raw)
    data = doc["data"]
    # the rules JSON Schema cannot state
    if not os.path.isabs(data["path"]):
        data["path"] = os.path.normpath(os.path.join(base_dir, data["path"]))
    if check_files and not os.path.exists(data["path"]):
        raise ConfigError(f"data.path {data['path']!r} does not exist")
    data.setdefault("feature_columns", list(SCENARIO_FEATURES[data["scenario"]]))
    check_inputs(data)
    # checked up front so bad configs never reach training
    check_shape(doc["models"]["hybrid"])
    return doc


def load_config_file(path: str, check_files: bool = True) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(text, base_dir=os.path.dirname(os.path.abspath(path)),
                           check_files=check_files)
