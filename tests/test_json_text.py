"""``cli._json_text`` writes the bytes of ``json.dumps(value, indent=2,
sort_keys=True)`` for the values the CLI prints and for the edge cases of the
C encoder it calls: strings that hold its raw-NUL item separator or the "]"
of a row's end, extreme and non-finite floats, large integers, and empty or
uneven rows.  So does ``cli._render_table``'s JSON, whose rows it writes
without checking each value, at both precisions."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqtsim import cli

EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, float("inf"),
               float("-inf"), float("nan"), 0.1, 1e16, 1e-7)
STRINGS = st.text(alphabet=st.sampled_from(
    ["\x00", "]", "[", '"', "\\", ",", "\n", "\x1f", "é", "中", "\U0001f600", "a", " "]),
    max_size=6)
SCALARS = st.one_of(STRINGS, st.floats(), st.sampled_from(EDGE_FLOATS),
                    st.integers(-2**70, 2**70), st.booleans(), st.none())
ROWS = st.lists(st.lists(SCALARS, max_size=4), max_size=5)
RHO = st.lists(st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=3),
               max_size=3)
VALUES = st.recursive(
    st.one_of(SCALARS, ROWS, RHO),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=25)


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@given(VALUES)
@settings(max_examples=200, deadline=None)
def test_json_text_writes_the_bytes_of_json_dumps(value):
    assert cli._json_text(value) == dumps(value)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [[], []], [[], [1]], [[1], []], [[[]]], [{}], {"": []},
    ["a\x00b", "]\x00["], [["]", "\x00"], ["["]], ["x]", 1], [[1, "]"], ["[", 2]],
    [2**63, -(2**64) - 1, True, False, None], list(EDGE_FLOATS),
    [[[0.5, -0.0], [1e-300, 0.0]], [[0.25, 0.5], [0.125, 1.7976931348623157e308]]],
    {"rho": [[[1.0, 0.0]]], "b": {"c": [1, [2, [3]]]}, "a": "é"},
    "text", 1.5, 7, None, (1, (2, 3)),
])
def test_edge_values_keep_their_bytes(value):
    assert cli._json_text(value) == dumps(value)


def test_without_the_c_encoder_the_text_is_json_dumps(monkeypatch):
    monkeypatch.setattr(cli, "_C_ENCODER", None)
    value = {"rows": [[1.5, "a"], []], "x": None}
    assert cli._json_text(value) == dumps(value)


def test_an_object_json_cannot_write_raises_as_json_dumps_does():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_text({"rows": [[object()]]})


@given(columns=st.lists(STRINGS, max_size=4), rows=ROWS, comments=st.lists(STRINGS, max_size=3),
       full_precision=st.booleans())
@settings(max_examples=200, deadline=None)
def test_render_table_writes_the_bytes_of_json_dumps(columns, rows, comments, full_precision):
    # empty and uneven rows among them; default precision rounds each float first
    payload = {"schema": cli.SCHEMA_VERSION, "comments": comments, "columns": columns,
               "rows": [[cli._json_value(v, full_precision) for v in row] for row in rows]}
    text = cli._render_table(columns, [tuple(row) for row in rows], "json", full_precision,
                             comments=comments)
    assert text == dumps(payload) + "\n"


@pytest.mark.parametrize("full_precision", [False, True])
@pytest.mark.parametrize("rows", [
    [], [[]], [[], []], [[], [1.5]], [[0.25], [], []], [["a\x00b", "]\x00["], ["[", "]"]],
    [["x]", 1], [], [2**63, -(2**64) - 1, True, None]], [list(EDGE_FLOATS)],
    [[1.0, 0.5, 0.25]] * 3, [["]"], ["\x00"], []],
])
def test_render_table_keeps_the_bytes_of_edge_rows(rows, full_precision):
    payload = {"schema": cli.SCHEMA_VERSION, "comments": ["c"], "columns": ["q"],
               "rows": [[cli._json_value(v, full_precision) for v in row] for row in rows]}
    text = cli._render_table(["q"], rows, "json", full_precision, comments=["c"])
    assert text == dumps(payload) + "\n"
