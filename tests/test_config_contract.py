"""config.schema.json is the config contract: the loader executes it, and it
agrees with a reference JSON Schema validator everywhere except the rules
the schema cannot state."""

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cryptocast import kernels
from cryptocast.config import (_CHECKS, SCENARIO_FEATURES, SCHEMA, DataConfig, ExperimentConfig,
                               validate_config)
from cryptocast.errors import ConfigError

jsonschema = pytest.importorskip("jsonschema")
REFERENCE = jsonschema.Draft202012Validator(SCHEMA)

# annotations and structure the resolver reads; every bound is one of _CHECKS
STRUCTURE = {"$schema", "title", "description", "type", "properties", "additionalProperties",
             "required", "items", "default", "$ref", "$defs"}


def subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    for sub in schema.get("$defs", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


def section(path):
    node = SCHEMA
    for key in path:
        node = node["properties"][key]
    return SCHEMA["$defs"]["recurrent"] if "$ref" in node else node


def default(path):
    *parent, key = path
    return section(parent)["properties"][key].get("default")


class TestSchemaFile:
    def test_is_a_valid_draft_2020_12_schema(self):
        jsonschema.Draft202012Validator.check_schema(SCHEMA)

    def test_uses_only_keywords_the_resolver_executes(self):
        for schema in subschemas(SCHEMA):
            assert not set(schema) - STRUCTURE - set(_CHECKS)
            assert schema.get("additionalProperties", False) is False
            assert schema.get("$ref", "#/$defs/").startswith("#/$defs/")

    def test_dataclass_fields_are_the_schema_properties(self):
        for cls, path in ((ExperimentConfig, []), (DataConfig, ["data"])):
            assert [f.name for f in dataclasses.fields(cls)] == list(section(path)["properties"])

    def test_default_sigma_grid_is_the_schema_default(self):
        assert list(kernels.DEFAULT_SIGMA_GRID) == default(["models", "grnn", "sigma_grid"])


def code_rules_hold(doc: dict) -> bool:
    """The rules JSON Schema cannot state, on a document the schema accepts
    (data.path existence is not checked here)."""
    data = doc["data"]
    scenario = data.get("scenario", default(["data", "scenario"]))
    features = data.get("feature_columns", SCENARIO_FEATURES[scenario])
    w1, w2 = data.get("fgi_weights", default(["data", "fgi_weights"]))
    hybrid = doc.get("models", {}).get("hybrid", {})
    d_model = hybrid.get("d_model", default(["models", "hybrid", "d_model"]))
    heads = hybrid.get("heads", default(["models", "hybrid", "heads"]))
    return (data.get("target_column", default(["data", "target_column"])) in features
            and abs(w1 + w2 - 1.0) <= 1e-9 and d_model % 2 == 0 and d_model % heads == 0)


def assert_kept(raw, resolved):
    """Every value the document gave survives resolution, typed."""
    if isinstance(raw, dict):
        for key, value in raw.items():
            assert_kept(value, resolved[key])
    elif isinstance(raw, list):
        assert len(raw) == len(resolved)
        for a, b in zip(raw, resolved):
            assert_kept(a, b)
    else:
        assert raw == resolved and isinstance(raw, bool) == isinstance(resolved, bool)


# paths the generator writes to: every key the schema has, a container of each
# kind, and two names it lacks
LEAVES = [("data", key) for key in section(["data"])["properties"]] + [
    (key,) for key in SCHEMA["properties"] if key not in ("data", "models")] + [
    ("models", kind, key) for kind in section(["models"])["properties"]
    for key in section(["models", kind])["properties"]]
PATHS = LEAVES + [("models",), ("models", "rbfn"), ("models", "bilstm"), ("data",),
                  ("window_size",), ("models", "hybrid", "dmodel")]
NAMES = ["bitcoin", "ethereum", "custom", "strict", "borrow", "close", "volume", "fgi",
         "btc_close", "", "x.csv"]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.integers(-2**53, 2**53),
    st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 1, 0.0, 0.5, 1.0, 2, 16, 0.001]), st.sampled_from(NAMES))
VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=3), st.lists(st.sampled_from(NAMES), max_size=4),
    st.floats(0.0, 1.0).map(lambda w: [w, 1.0 - w]),
    st.dictionaries(st.sampled_from(["centers", "epochs", "lr", "d_model", "heads", "bogus"]),
                    SCALARS, max_size=3))
DELETE = object()
MUTATIONS = st.lists(st.tuples(st.sampled_from(PATHS), st.one_of(VALUES, st.just(DELETE))),
                     max_size=4)


def mutated(mutations) -> dict:
    doc = {"data": {"path": "prices.csv", "scenario": "bitcoin"}, "window": 4,
           "models": {"hybrid": {"d_model": 8, "heads": 2}}}
    for path, value in mutations:
        node = doc
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        if value is DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return doc


def numbers(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in numbers(item)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def leaf(path):
    return section(path[:-1])["properties"][path[-1]]


NUMBER_PATHS = [path for path in LEAVES
                if "number" in (leaf(path).get("type"), leaf(path).get("items", {}).get("type"))]


@pytest.mark.parametrize("path", NUMBER_PATHS, ids=".".join)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "1e400"])
def test_non_finite_number_rejected(path, bad):
    value = [bad, 0.5] if "items" in leaf(path) else bad
    with pytest.raises(ConfigError, match="finite"):
        validate_config(mutated([(path, value)]), check_files=False)


class TestAgainstReference:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(MUTATIONS)
    def test_accepts_exactly_what_schema_and_code_rules_accept(self, mutations):
        doc = mutated(mutations)
        expected = REFERENCE.is_valid(doc) and code_rules_hold(doc)
        try:
            cfg = validate_config(json.loads(json.dumps(doc)), check_files=False)
        except ConfigError:
            assert not expected, f"rejected a valid document: {doc}"
            return
        assert expected, f"accepted an invalid document: {doc}"
        snapshot = cfg.to_json_dict()
        assert REFERENCE.is_valid(snapshot)
        assert_kept({k: v for k, v in doc.items() if k not in ("data", "output_dir")},
                    snapshot)
        assert_kept({k: v for k, v in doc["data"].items() if k != "path"}, snapshot["data"])
        assert validate_config(snapshot, check_files=False).to_json_dict() == snapshot


JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5)),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.text(max_size=8), children, max_size=3)),
    max_leaves=12)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON, MUTATIONS.map(mutated), st.text(max_size=40)))
    def test_config_error_or_valid_config(self, raw):
        try:
            cfg = validate_config(raw, check_files=False)
        except ConfigError:
            return
        snapshot = cfg.to_json_dict()
        assert isinstance(cfg, ExperimentConfig) and REFERENCE.is_valid(snapshot)
        assert code_rules_hold(snapshot) and all(math.isfinite(x) for x in numbers(snapshot))


def test_run_snapshot_round_trips(small_config_doc):
    snapshot = validate_config(small_config_doc).to_json_dict()
    assert validate_config(json.loads(json.dumps(snapshot))).to_json_dict() == snapshot
