"""The report writer, ``cli._emit``, against ``json.dumps``.

Every report and corpus file goes through the writer, whose text must be
``json.dumps(obj, indent=2, allow_nan=False)`` byte for byte on the
interpreter it runs on.  The property draws nested trees of every type
the writer accepts, with the strings and floats whose text is easiest to
get wrong; the plain tests pin what it refuses.  The pair records of
``analyze``, a ``_Records`` of text rendered as the writer reaches it,
are appended as they are at the indent they were made for, and refused
at any other before any of them is made.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import report_text
from qcvx.cli import _Records

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

# Quotes, backslashes, control characters, DEL, non-ASCII in and beyond
# the basic plane, U+2028/U+2029 and lone surrogates.
AWKWARD = '"\\/\x00\x08\t\n\x1f\x7f\xe9\u20ac\u2028\u2029\U0001f600\ud800\udfff'

# Characters come from code point ranges rather than ``st.text``, which
# builds Hypothesis's Unicode tables (about 2 s) on a fresh checkout.
characters = st.one_of(
    st.sampled_from(AWKWARD),
    st.integers(0x20, 0x7E).map(chr),
    st.integers(0xD800, 0xDFFF).map(chr),
    st.integers(0, 0x10FFFF).map(chr),
)

strings = st.lists(characters, max_size=8).map("".join)

integers = st.one_of(
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.sampled_from([0, -1, 2**63, -(2**64), 10**100]),
)

floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 5e-324, 1.7976931348623157e308, 0.1, 1e-7]),
)

leaves = st.one_of(st.none(), st.booleans(), integers, floats, strings)

trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
    ),
    max_leaves=24,
)


@SETTINGS
@given(trees)
def test_matches_json_dumps(obj):
    assert report_text(obj) == json.dumps(obj, indent=2, allow_nan=False)


@pytest.mark.parametrize(
    "obj, text",
    [
        ({}, "{}"),
        ([], "[]"),
        ((), "[]"),
        ({"a": [], "b": {}}, '{\n  "a": [],\n  "b": {}\n}'),
        ([[1, (2,)], None], "[\n  [\n    1,\n    [\n      2\n    ]\n  ],\n  null\n]"),
        ({"\u2028": "\ud800"}, '{\n  "\\u2028": "\\ud800"\n}'),
    ],
)
def test_layout(obj, text):
    assert report_text(obj) == text == json.dumps(obj, indent=2, allow_nan=False)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_out_of_range_float_rejected(value):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        report_text({"pairs": [{"x": value}]})


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"x": Fraction(1, 3)}, "Object of type Fraction is not JSON serializable"),
        ([{1, 2}], "Object of type set is not JSON serializable"),
        ({"a": {1: "one"}}, "keys must be str, not int"),
        ({None: 0}, "keys must be str, not NoneType"),
    ],
)
def test_other_types_and_keys_rejected(obj, message):
    with pytest.raises(TypeError, match=message):
        report_text(obj)


class Scaled(float):
    def __repr__(self):
        return "Scaled"


class Label(str):
    pass


class Count(int):
    def __repr__(self):
        return "Count"


def test_subclasses_written_by_their_base_type():
    obj = {"f": Scaled(0.5), "s": Label("a\n"), "n": Count(7), "b": True}
    assert report_text(obj) == '{\n  "f": 0.5,\n  "s": "a\\n",\n  "n": 7,\n  "b": true\n}'
    assert report_text(obj) == json.dumps(obj, indent=2, allow_nan=False)


RECORDS = ['{\n      "x": "0"\n    }', '{\n      "x": "1/2"\n    }']


def test_records_appended_as_they_are():
    expected = json.dumps({"pairs": [{"x": "0"}, {"x": "1/2"}], "n": 2}, indent=2)
    assert report_text({"pairs": _Records(RECORDS), "n": 2}) == expected
    # Text that is not a record's is appended as it is too, never quoted.
    assert report_text({"pairs": _Records(["1", '"a"'])}) == json.dumps({"pairs": [1, "a"]}, indent=2)


def test_records_taken_from_a_generator_as_they_come():
    made = []

    def texts():
        for text in RECORDS:
            made.append(text)
            yield text

    expected = json.dumps({"pairs": [{"x": "0"}, {"x": "1/2"}]}, indent=2)
    assert report_text({"pairs": _Records(texts())}) == expected
    assert made == RECORDS
    with pytest.raises(ValueError, match="text rendered at indent 2 reached at indent 4"):
        report_text({"a": {"pairs": _Records(texts())}})
    assert made == RECORDS


def test_no_records_written_as_an_empty_list():
    assert report_text({"pairs": _Records(), "n": 2}) == json.dumps({"pairs": [], "n": 2}, indent=2)


@pytest.mark.parametrize(
    "obj",
    [{"a": {"pairs": _Records(RECORDS)}}, {"a": {"pairs": _Records()}}, [[_Records(RECORDS)]], _Records(RECORDS), _Records()],
    ids=["in-a-dict", "empty-in-a-dict", "in-a-list", "top-level", "empty-top-level"],
)
def test_records_refused_at_another_indent(obj):
    with pytest.raises(ValueError, match="text rendered at indent 2 reached at indent"):
        report_text(obj)
