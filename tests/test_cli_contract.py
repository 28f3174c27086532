"""The schemas are the CLI's input contract.

Valid payloads are drawn from strategies built from the schema files the
CLI reads, and invalid ones by one mutation of a valid payload.  The CLI
must refuse a payload exactly when jsonschema's Draft7Validator does,
apart from the named checks that no schema states, and every output of
an accepted payload must be valid against its output schema.
"""

import copy
import json
import pathlib
import re
import sys
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from referencing import Registry
from referencing.jsonschema import DRAFT7

from gridideals import cli
from support import run_cli, stack_depth

SCHEMAS = {
    path.name.removesuffix(".schema.json"): json.loads(path.read_text(encoding="utf-8"))
    for path in (pathlib.Path(cli.__file__).parent / "schemas").glob("*.schema.json")
}
# a $ref into a resource that names its "$schema" would switch to that
# dialect's plain validator, so the registry leaves the key out
REGISTRY = Registry().with_resources(
    (schema["$id"], DRAFT7.create_resource({k: v for k, v in schema.items() if k != "$schema"}))
    for schema in SCHEMAS.values()
)
KEYWORDS = {"$schema", "$id", "title", "description", "type", "properties", "required",
            "additionalProperties", "items", "minItems", "maxItems", "maxLength", "minimum",
            "enum", "pattern", "$ref"}

# (argv, input schema) for every subcommand whose payload is checked here
COMMANDS = {
    "phi": (["phi", "--ideal", "WR"], "points"),
    "witness": (["witness"], "points"),
    "oracle": (["oracle", "cover", "--kinds", "vertical-line,sparse-chain"], "points"),
    "apply-fold": (["map", "apply", "--name", "triangle-fold"], "points"),
    "apply-rank": (["map", "apply", "--name", "diag-rank"], "points"),
    "apply-zigzag": (["map", "apply", "--name", "wedge-zigzag"], "naturals"),
    "invert-fold": (["map", "invert", "--name", "triangle-fold"], "points"),
    "invert-rank": (["map", "invert", "--name", "max-rank"], "naturals"),
    "invert-zigzag": (["map", "invert", "--name", "wedge-zigzag"], "points"),
    "mon-extract": (["mon", "extract", "--target-len", "3", "--level", "1"], "mon-descriptor"),
    "mon-verify": (["mon", "verify"], "mon-verify"),
}

# each subcommand's exit-0 output as (schema, instance) pairs: a schema
# file's name, or an inline schema where no file describes the output
WITNESS = SCHEMAS["mon-certificate"]["properties"]["witnesses"]["items"]
OUTPUTS = {
    "phi": lambda doc: [("cover-certificate", doc["certificate"])],
    "witness": lambda doc: [(WITNESS, doc["witness"])],
    "oracle": lambda doc: [("cover-certificate", doc)],
    "apply-fold": lambda doc: [("points", doc["points"])],
    "apply-rank": lambda doc: [("naturals", doc["values"])],
    "apply-zigzag": lambda doc: [("points", doc["points"])],
    "invert-fold": lambda doc: [("points", doc["points"])],
    "invert-rank": lambda doc: [("points", pts) for pts in doc["preimages"]],
    "invert-zigzag": lambda doc: [("naturals", doc["indices"])],
    "mon-extract": lambda doc: [("mon-certificate", doc)],
    "mon-verify": lambda doc: [({"enum": [{"ok": True, "reasons": []}]}, doc)],
}

# full-match patterns for the errors a schema-valid payload may still get,
# each from a check that no schema states
SEMANTIC = (
    # cli._column_from_json, for mon-extract and mon-verify
    r"(approach|eventually-constant) columns need a finite limit",
    r"linear columns need an infinite limit",
    # monotone.extract_mon, for mon-extract at target length 3
    r"descriptor invalid: column \d+ breaks its declared (nondecreasing|nonincreasing) shape",
    r"not enough columns for any case \(need 5 eligible ones\)",
    r"column \d+ exhausted at depth \d+ while placing point \d+",
    r"nonempty point list required",  # covering.sparsity_witness, for witness
    # cli._cmd_map, for invert-rank
    r"map invert rank values, each plus one, must sum to at most 100000 \(cli\.MAX_RANK_SUM\)",
)


def _strict_pattern(validator, pattern, instance, schema):
    # the one known divergence: ECMA 262, and the CLI, read a final $ as
    # the end of the string, where Python's re.search also lets it match
    # before a final newline, so jsonschema accepts "1\n" as a limit
    anchored = pattern[:-1] + r"\Z" if pattern.endswith("$") else pattern
    if validator.is_type(instance, "string") and not re.search(anchored, instance):
        yield jsonschema.ValidationError(f"{instance!r} does not match {pattern!r}")


# also unlike draft 7, which calls 1.0 an integer, the CLI refuses every
# float where the schema asks for an integer
Draft7Strict = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    {"pattern": _strict_pattern},
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: type(x) is int
    ),
)


def _resolve(schema: dict) -> dict:
    if "$ref" in schema:
        return SCHEMAS[schema["$ref"].partition(":")[2]]
    return schema


def _subschemas(schema: dict):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    items = schema.get("items", [])
    for sub in items if isinstance(items, list) else [items]:
        yield from _subschemas(sub)


def test_schemas_use_only_the_validated_keywords():
    for name, schema in SCHEMAS.items():
        assert schema["$id"] == f"gridideals:{name}"
        for sub in _subschemas(schema):
            assert sub.keys() <= KEYWORDS, (name, sub.keys() - KEYWORDS)
            types = sub.get("type", [])
            assert set([types] if isinstance(types, str) else types) <= cli._TYPES.keys()
            assert sub.get("additionalProperties", False) is False
            assert all(isinstance(v, str) for v in sub.get("enum", []))
            if "$ref" in sub:
                assert sub.keys() == {"$ref"} and _resolve(sub)["$id"] == sub["$ref"]


# ---------------------------------------------------------------------------
# payloads drawn from the schemas

SMALL = 30  # bound on drawn integers and lengths, so that each CLI run is short


def from_schema(schema: dict):
    """Small valid instances of schema."""
    schema = _resolve(schema)
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    types = schema["type"]
    return st.one_of([_typed(schema, t) for t in ([types] if isinstance(types, str) else types)])


def _typed(schema: dict, t: str):
    if t == "integer":
        return st.integers(schema.get("minimum", -SMALL), SMALL)
    if t == "string":
        if "pattern" in schema:
            return st.from_regex(schema["pattern"], fullmatch=True).filter(lambda s: len(s) < 12)
        return st.text(max_size=6)
    if t == "boolean":
        return st.booleans()
    if t == "null":
        return st.none()
    if t == "array":
        items = schema.get("items", {})
        if isinstance(items, list):
            return st.tuples(*map(from_schema, items)).map(list)
        least = schema.get("minItems", 0)
        return st.lists(from_schema(items), min_size=least,
                        max_size=schema.get("maxItems", least + 6))
    props, required = schema["properties"], schema.get("required", [])
    return st.fixed_dictionaries(
        {k: from_schema(props[k]) for k in required},
        optional={k: from_schema(v) for k, v in props.items() if k not in required},
    )


def _sites(schema: dict, x, path=()):
    """(path, schema) for each node of the valid instance x."""
    schema = _resolve(schema)
    yield path, schema
    if isinstance(x, list):
        items = schema.get("items", {})
        for i, v in enumerate(x):
            yield from _sites(items[i] if isinstance(items, list) else items, v, path + (i,))
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from _sites(schema["properties"][k], v, path + (k,))


WRONG_TYPES = ("x", 1.5, 1.0, None, True, 0, [], {})


def _mutations(schema: dict, x):
    """(kind, value) for each value of the node x that breaks one rule of
    its schema."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    for v in WRONG_TYPES:
        if types and not any(type(v) is cli._TYPES[t] for t in types):
            yield "type", v
    if "enum" in schema:
        yield "enum", "no-such-value"
    if "minimum" in schema:
        yield "minimum", schema["minimum"] - 1
    if isinstance(x, str) and "pattern" in schema:
        for v in ("1.5", "1/0", "1e9", x + "\n"):
            yield "pattern", v
    if isinstance(x, str) and "maxLength" in schema:
        # digits, so that only the length rule breaks where a pattern asks for a number
        yield "length", "9" * (schema["maxLength"] + 1)
    if isinstance(x, list) and schema.get("minItems", 0) > 0:
        yield "length", x[: schema["minItems"] - 1]
    if isinstance(x, list) and "maxItems" in schema:
        yield "length", x + x[-1:]
    if isinstance(x, dict):
        for key in schema.get("required", []):
            yield "missing key", {k: v for k, v in x.items() if k != key}
        if schema.get("additionalProperties") is False:
            yield "extra key", {**x, "extra": 0}


def _replace(x, path, value):
    if not path:
        return value
    x = copy.deepcopy(x)
    node = x
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return x


def _assert_contract(name: str, payload) -> int:
    argv, schema = COMMANDS[name]
    refused = not Draft7Strict(SCHEMAS[schema], registry=REGISTRY).is_valid(payload)
    code, out = run_cli(argv, json.dumps(payload))
    assert out.endswith("\n") and out.count("\n") == 1, out
    doc = json.loads(out)
    assert code in (0, 1, 2)
    if refused:
        # the validator's errors name the place in the payload
        assert code == 1 and doc["error"].startswith("payload"), (payload, out)
    elif code == 1:
        assert any(re.fullmatch(p, doc["error"]) for p in SEMANTIC), (payload, out)
    elif code == 0:
        for schema, instance in OUTPUTS[name](doc):
            schema = SCHEMAS[schema] if isinstance(schema, str) else schema
            assert Draft7Strict(schema, registry=REGISTRY).is_valid(instance), (payload, out)
    return code


# mon-extract has its own test below, with an example that exits 0
@pytest.mark.parametrize("name", [name for name in COMMANDS if name != "mon-extract"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_accepts_what_the_schema_accepts(name, data):
    _assert_contract(name, data.draw(from_schema(SCHEMAS[COMMANDS[name][1]])))


# few drawn descriptors offer the extractor five columns of one case, so
# one that does is always tried
_EXTRACTABLE = {"columns": [{"mode": "nonincreasing", "limit": "1/2"}] * 5}


@settings(max_examples=40, deadline=None)
@given(payload=from_schema(SCHEMAS["mon-descriptor"]))
@example(payload=_EXTRACTABLE)
def test_mon_extract_accepts_what_the_schema_accepts(payload):
    code = _assert_contract("mon-extract", payload)
    assert code == 0 or payload != _EXTRACTABLE


_LIMITS = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def _extractable_descriptors(draw):
    """5-9 columns of one mode that always offer the extractor a case:
    eventually-constant columns that share one finite limit, or approach
    columns whose limits, read with the nonincreasing side negated, rise,
    stay level, or fall by at least 1, so each term clears the next
    column's limit."""
    n = draw(st.integers(5, 9))
    if draw(st.booleans()):
        limit = str(draw(_LIMITS))
        return {"columns": [
            {"mode": "eventually-constant", "limit": limit, "threshold": draw(st.integers(0, 20))}
            for _ in range(n)
        ]}
    mode, sign = draw(st.sampled_from([("nondecreasing", 1), ("nonincreasing", -1)]))
    steps = draw(st.sampled_from([
        st.fractions(min_value=Fraction(1, 1000), max_value=3, max_denominator=1000),
        st.just(0),
        st.fractions(min_value=-3, max_value=-1, max_denominator=12),
    ]))
    limit, columns = draw(_LIMITS), []
    for _ in range(n):
        columns.append({"mode": mode, "limit": str(sign * limit)})
        if draw(st.booleans()):
            columns[-1]["style"] = "approach"
        limit += draw(steps)
    return {"columns": columns}


@settings(max_examples=40, deadline=None)
@given(payload=_extractable_descriptors())
def test_mon_extract_answers_well_shaped_descriptors(payload):
    assert _assert_contract("mon-extract", payload) == 0, payload


# each kind of mutation, and the keywords whose rules it breaks
KINDS = {
    "type": {"type"}, "enum": {"enum"}, "minimum": {"minimum"}, "pattern": {"pattern"},
    "length": {"minItems", "maxItems", "maxLength"}, "missing key": {"required"},
    "extra key": {"additionalProperties"},
}


def _keywords(schema: dict) -> set:
    """The keywords of schema and of every schema below it."""
    schema = _resolve(schema)
    items = schema.get("items", [])
    subs = [*schema.get("properties", {}).values(), *(items if isinstance(items, list) else [items])]
    return set(schema).union(*map(_keywords, subs))


# mon-extract's payload is mon-verify's "descriptor", whose rules the
# mon-verify cases already break, and tests/test_cli.py breaks each rule
# through mon extract once
@pytest.mark.parametrize("name, kind", [
    (name, kind) for name, (_, schema) in COMMANDS.items() for kind, keywords in KINDS.items()
    if keywords & _keywords(SCHEMAS[schema]) and name != "mon-extract"
])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cli_refuses_what_the_schema_refuses(name, kind, data):
    schema = SCHEMAS[COMMANDS[name][1]]
    payload = data.draw(from_schema(schema))
    found = []
    for path, sub in _sites(schema, payload):
        node = payload
        for key in path:
            node = node[key]
        found += [(path, value) for k, value in _mutations(sub, node) if k == kind]
    assume(found)
    path, value = data.draw(st.sampled_from(found))
    _assert_contract(name, _replace(payload, path, value))


def test_known_divergences_from_jsonschema():
    # the CLI refuses each of these (tests/test_cli.py); plain draft 7 does not
    for schema, payload in [
        ("mon-descriptor", {"columns": [{"mode": "nondecreasing", "limit": "1\n"}]}),
        ("mon-descriptor", {"columns": [{"mode": "nondecreasing", "limit": "inf\n"}]}),
        ("points", [[1.0, 0]]),
    ]:
        assert jsonschema.Draft7Validator(SCHEMAS[schema], registry=REGISTRY).is_valid(payload)
        assert not Draft7Strict(SCHEMAS[schema], registry=REGISTRY).is_valid(payload)


# ---------------------------------------------------------------------------
# no answer depends on the recursion limit

_DESCRIPTOR = {"columns": [{"mode": "eventually-constant", "limit": "2", "threshold": 2}] * 20}
_EXTRACT = (["mon", "extract", "--target-len", "6", "--level", "2"], json.dumps(_DESCRIPTOR))

# one small valid payload per subcommand
JOBS = {
    "phi": (["phi", "--ideal", "WRpi", "--rank", "diag-rank"], "[[0,5],[1,4],[2,3]]"),
    "witness": (["witness"], "[[0,5],[1,4],[2,3]]"),
    "oracle": (["oracle", "cover", "--kinds", "vertical-line,sparse-chain"], "[[0,5],[1,4]]"),
    "map-apply": (["map", "apply", "--name", "wedge-zigzag"], "[0,2,9]"),
    "map-invert": (["map", "invert", "--name", "max-rank"], "[0,3]"),
    "map-verify": (["map", "verify", "--name", "diag-rank", "--window", "8"], ""),
    "game": (["game", "play", "--rounds", "5", "--seed", "3"], ""),
    "mon-extract": _EXTRACT,
    "sigma": (["sigma", "build", "--pi", "max-rank", "--pi0", "skew-rank", "--window", "6"], ""),
}


def test_subcommands_run_under_a_tight_recursion_limit():
    cert = json.loads(run_cli(*_EXTRACT)[1])
    jobs = {**JOBS, "mon-verify": (["mon", "verify"],
                                   json.dumps({"descriptor": _DESCRIPTOR, "certificate": cert}))}
    expected = {name: run_cli(*job) for name, job in jobs.items()}
    assert all(code in (0, 2) for code, _ in expected.values()), expected
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        got = {name: run_cli(*job) for name, job in jobs.items()}
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


@pytest.mark.parametrize("name", COMMANDS)
def test_deeply_nested_payload_is_a_json_error(name):
    code, out = run_cli(COMMANDS[name][0], "[" * 100_000)
    assert code == 1 and list(json.loads(out)) == ["error"]
