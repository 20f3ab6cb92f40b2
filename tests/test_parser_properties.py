"""Property tests: every parser returns a value or raises a DarpkitError.

Most inputs start from a valid document with one piece broken (a JSON
field, a whitespace-separated token), so the malformed inputs reach deep
into the parsers instead of failing at the first line; the text parsers
also get free-form text.
"""

import copy
import json

from hypothesis import given, settings, strategies as st

from darpkit import (
    DarpkitError, GeneratorConfig, generate_synthetic, instance_from_json,
    instance_to_json, oracle_solve, parse_cordeau, parse_mps, solution_from_json,
    solution_to_json,
)

from helpers import TINY_CORDEAU_TEXT
from test_backend import MIN_MPS

INSTANCE = generate_synthetic(GeneratorConfig(n=2, capacity=3, seed=0))
INSTANCE_DOC = json.loads(instance_to_json(INSTANCE))
SOLUTION_DOC = json.loads(solution_to_json(oracle_solve(INSTANCE)))

PROPERTY = settings(max_examples=300, deadline=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6)

TOKENS = st.sampled_from([
    "0", "1", "-2.5", "1e400", "inf", "nan", "x", "", "COST", "cap", "N", "E",
    "UP", "BND", "RHS", "RNG", "'MARKER'", "'INTORG'", "RANGES", "BOUNDS",
]) | st.text(max_size=4)


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for pos, child in enumerate(node):
            yield from _paths(child, prefix + (pos,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _one_field_replaced(doc):
    return st.builds(lambda path, value: json.dumps(_replaced(doc, path, value)),
                     st.sampled_from(list(_paths(doc))), JSON_VALUES)


def _one_token_replaced(text):
    """The text with one token replaced or one token inserted."""
    rows = [(line[:len(line) - len(line.lstrip())], line.split())
            for line in text.splitlines()]
    spots = [(i, j) for i, (_, fields) in enumerate(rows)
             for j in range(len(fields) + 1)]

    def mangle(spot, token, insert):
        i, j = spot
        fields = list(rows[i][1])
        if insert or j == len(fields):
            fields.insert(j, token)
        else:
            fields[j] = token
        out = [indent + " ".join(f) for indent, f in rows]
        out[i] = rows[i][0] + " ".join(fields)
        return "\n".join(out) + "\n"

    return st.builds(mangle, st.sampled_from(spots), TOKENS, st.booleans())


def _accepts_or_raises_typed(parse, *args):
    try:
        parse(*args)
    except DarpkitError:
        pass


@PROPERTY
@given(_one_field_replaced(INSTANCE_DOC))
def test_instance_json_parser_is_total(text):
    _accepts_or_raises_typed(instance_from_json, text)


@PROPERTY
@given(_one_field_replaced(SOLUTION_DOC))
def test_solution_json_parser_is_total(text):
    _accepts_or_raises_typed(solution_from_json, text, INSTANCE)


@PROPERTY
@given(_one_token_replaced(MIN_MPS)
       | st.lists(st.lists(TOKENS, min_size=1, max_size=5).map(" ".join),
                  max_size=8).map("\n".join))
def test_mps_parser_is_total(text):
    _accepts_or_raises_typed(parse_mps, text)


@PROPERTY
@given(_one_token_replaced(TINY_CORDEAU_TEXT) | st.text(max_size=40))
def test_cordeau_parser_is_total(text):
    _accepts_or_raises_typed(parse_cordeau, text)
