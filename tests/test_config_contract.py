"""config.schema.json is the config contract: the loader executes it, and it
agrees with a reference JSON Schema validator everywhere except the rules
the schema cannot state."""

import inspect
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cryptocast import hybrid, kernels, optim, recurrent
from cryptocast.config import _CHECKS, SCENARIO_FEATURES, SCHEMA, check_setting, validate_config
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

    def test_resolved_document_keys_are_the_schema_properties(self):
        assert_schema_keys(validate_config({"data": {"path": "x.csv"}}, check_files=False))

    def test_default_sigma_grid_is_the_schema_default(self):
        # grnn_fit has no grid of its own (see below): a config that names
        # none fits over the schema's default
        assert (check_setting("models", {}, "models")["grnn"]["sigma_grid"]
                == default(["models", "grnn", "sigma_grid"]) == [0.01, 0.03, 0.1, 0.3, 1.0])

    @pytest.mark.parametrize("entry_point", [
        hybrid.init_hybrid, hybrid.hybrid_template, hybrid.hybrid_train, recurrent.init_birnn,
        recurrent.birnn_train, optim.run_adam_training, kernels.rbfn_fit, kernels.grnn_fit,
    ], ids=lambda fn: fn.__name__)
    def test_model_entry_points_default_no_hyperparameter(self, entry_point):
        # the schema states every default once; an entry point takes the
        # resolved section or its values. rbfn_fit's `spread` is no config
        # key: it overrides the spread heuristic for the interpolation tests
        defaulted = [name for name, p in inspect.signature(entry_point).parameters.items()
                     if p.default is not inspect.Parameter.empty]
        assert defaulted == (["spread"] if entry_point is kernels.rbfn_fit else [])


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


def assert_schema_keys(cfg):
    """A resolved document has every top-level and `data` key of the schema,
    and no other."""
    assert set(cfg) == set(SCHEMA["properties"])
    assert set(cfg["data"]) == set(section(["data"])["properties"])


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
        assert REFERENCE.is_valid(cfg)
        assert_schema_keys(cfg)
        assert_kept({k: v for k, v in doc.items() if k != "data"}, cfg)
        assert_kept({k: v for k, v in doc["data"].items() if k != "path"}, cfg["data"])
        assert validate_config(cfg, check_files=False) == cfg


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
        assert isinstance(cfg, dict) and REFERENCE.is_valid(cfg)
        assert code_rules_hold(cfg) and all(math.isfinite(x) for x in numbers(cfg))


def test_run_snapshot_round_trips(small_config_doc):
    cfg = validate_config(small_config_doc)
    assert validate_config(json.loads(json.dumps(cfg))) == cfg
