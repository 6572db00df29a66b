"""The CLI's config validator against jsonschema's Draft 2020-12 validator.

``cli._checked_config`` interprets the JSON Schema keywords of
``cli.SCHEMAS`` itself. Here ``jsonschema`` is the reference: on every
config of ``tests/cli_cases.py``, mutated at drawn paths, both accept the
same configs and report the same first error, pointer and message.
"""

import copy

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from msmbounds.cli import _GRID, _TYPES, SCHEMAS, _checked_config, _validate
from msmbounds.errors import ConfigError

from cli_cases import CASES

# The keywords that ``cli._validate`` implements.
KEYWORDS = {
    "type", "properties", "required", "additionalProperties", "enum",
    "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "items", "minItems", "minProperties", "maxProperties", "oneOf",
}

SEEDS = sorted(CASES.items()) + [
    ("simulate", ("simulate", {"dgp": {"name": "gauss-line", "n": 20, "seed": 0},
                               "out_name": "sim.csv", "seed": 3})),
]
REFERENCE = {command: Draft202012Validator(schema) for command, schema in SCHEMAS.items()}


def _subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    children = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    if "items" in schema:
        children.append(schema["items"])
    for child in children:
        yield from _subschemas(child)


def _schema_words():
    """Every property name, enum member and number bound in SCHEMAS: the
    values most likely to pass one keyword and fail the next."""
    words, numbers = set(), {0, 1, 2, 6, 7, -1, 0.5, 1.0, 2.0, 1.5, 1e20}
    for schema in SCHEMAS.values():
        for sub in _subschemas(schema):
            words |= set(sub.get("properties", {})) | set(sub.get("enum", ()))
            numbers |= {sub[k] for k in ("minimum", "maximum", "exclusiveMinimum",
                                         "exclusiveMaximum") if k in sub}
    return sorted(words), sorted(numbers)


WORDS, NUMBERS = _schema_words()
KEYS = st.sampled_from(WORDS) | st.text(max_size=4)
SCALARS = (st.none() | st.booleans() | st.sampled_from(WORDS) | st.sampled_from(NUMBERS)
           | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=4))
NUMBERS_NEAR = st.sampled_from(NUMBERS) | st.floats(-2, 8) | st.integers(-2, 8)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def _nodes(value, path=()):
    """(path, value) of ``value`` and of every value nested in it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, (*path, key))


@st.composite
def mutated_configs(draw):
    """(command, config): a case config with 1 to 3 values replaced by any
    JSON value, numbers replaced by numbers near the schemas' bounds, and
    values deleted or added."""
    _, (command, config) = draw(st.sampled_from(SEEDS))
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["replace", "number", "delete", "add"]))
        nodes = list(_nodes(config))
        if action == "number":
            nodes = [(p, v) for p, v in nodes if _TYPES["number"](v)] or nodes
        path, node = draw(st.sampled_from(nodes))
        if action == "add" and isinstance(node, (dict, list)):
            if isinstance(node, dict):
                node[draw(KEYS)] = draw(VALUES)
            else:
                node.append(draw(VALUES))
        elif path and action != "add":
            parent = config
            for key in path[:-1]:
                parent = parent[key]
            if action == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(VALUES if action == "replace" else NUMBERS_NEAR)
    return command, config


def _reference_error(command, config):
    """jsonschema's report of the first error in path order, or None."""
    errors = sorted(REFERENCE[command].iter_errors(config), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    first = errors[0]
    return f"config/{'/'.join(map(str, first.absolute_path))}: {first.message}"


def _assert_matches(command, config):
    expected = _reference_error(command, config)
    try:
        checked = _checked_config(command, copy.deepcopy(config))
    except ConfigError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        # the only change is an int in place of an equal float
        assert checked == config


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_validator_matches_jsonschema(drawn):
    _assert_matches(*drawn)


SUBSCHEMAS = [sub for schema in SCHEMAS.values() for sub in _subschemas(schema)]


def _by_path(errors):
    return sorted(errors, key=lambda e: e[0])


GRID_ARRAY, GRID_OBJECT = _GRID["oneOf"]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(SUBSCHEMAS), NUMBERS_NEAR | VALUES)
@example(GRID_ARRAY, [])
@example(GRID_ARRAY, {})
@example(GRID_OBJECT, {"start": 0, "stop": 1, "step": 0, "x": []})
def test_every_error_of_every_subschema_matches_jsonschema(schema, value):
    # the errors inside a oneOf branch too, which a config reports only as
    # the oneOf's own failure
    errors = []
    _validate(schema, value, (), errors)
    reference = [(tuple(e.absolute_path), e.message)
                 for e in Draft202012Validator(schema).iter_errors(value)]
    assert _by_path(errors) == _by_path(reference)


def _edit(name, **sections):
    """Case ``name``'s config with each section's keys updated; None deletes a key."""
    command, config = copy.deepcopy(CASES[name])
    for section, updates in sections.items():
        node = config.setdefault(section, {})
        for key, value in updates.items():
            if value is None:
                del node[key]
            else:
                node[key] = value
    return command, config


# Config failures that the drawn mutations seldom reach first: keywords at
# their edges, several failures at one path, and integral floats.
EDGES = {
    "exclusiveMaximum": _edit("bounds-hulc", inference={"alpha": 1}),
    "maximum": _edit("bounds-grid", model={"degree": 7}),
    "maxProperties": _edit("bounds-grid", data={"csv": {"path": "x.csv"}}),
    "minProperties": _edit("bounds-grid", data={"dgp": None}),
    "oneOf-object": _edit("bounds-grid", sensitivity={"grid": {"start": 1.0, "step": 1}}),
    "required-and-additional": ("bounds", {"typo": 1}),
    "two-extras": _edit("bounds-grid", model={"z": 1, "b": 2}),
    "integer-type-and-minimum": _edit("bounds-grid", data={"dgp": {"name": "x", "n": 1.5}}),
    "integral-floats": _edit("bounds-hulc", sensitivity={"coord": 1.0},
                             inference={"seed": 2.0}, model={"degree": 1.0}),
    "bool-is-no-number": _edit("bounds-hulc", inference={"seed": True}),
}


@pytest.mark.parametrize("name", EDGES)
def test_edge_cases_match_jsonschema(name):
    _assert_matches(*EDGES[name])


@pytest.mark.parametrize("name,case", SEEDS, ids=[name for name, _ in SEEDS])
def test_every_case_config_is_valid(name, case):
    command, config = case
    assert _reference_error(command, config) is None
    assert _checked_config(command, copy.deepcopy(config)) == config


def test_schemas_use_only_the_implemented_keywords():
    for schema in SCHEMAS.values():
        for sub in _subschemas(schema):
            assert set(sub) <= KEYWORDS, sorted(set(sub) - KEYWORDS)
            assert sub.get("additionalProperties", False) is False
            # the validator compares enum members as strings
            assert all(isinstance(member, str) for member in sub.get("enum", ()))


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"type": "object", "additionalProperties": {"type": "string"}},
    {"anyOf": [{"type": "string"}]},
], ids=["pattern", "additionalProperties-schema", "anyOf"])
def test_an_unimplemented_keyword_raises(schema):
    with pytest.raises(NotImplementedError):
        _validate(schema, "a", (), [])
