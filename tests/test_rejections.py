"""Every rejection keeps its exception class, field and full message.

Each case names the error class, its ``.field`` (None for an error that
carries no field) and the whole message text, so a refactor of the
checks cannot change what a caller sees, or which check answers first.
Document cases also go through ``qcvx analyze``: exit 1, with the
message on stderr.  ``_sweep``'s own ``lo < hi`` check is not pinned
here, because every public call validates its interval before the walk.
"""

import json
import pickle
from fractions import Fraction

import pytest

from qcvx import (
    Blackbox,
    ClosedSet1D,
    PiecewiseConstant,
    PiecewiseLinear,
    Tabulated,
    argmax_set,
    build_grid,
    function_to_dict,
    infimum_on,
    local_quasiconvexity_at,
    oracle_quasiconvex,
    oracle_violation_set,
    supremum_on,
)
from qcvx import errors
from qcvx.cli import main
from qcvx.core import Point, XReal, as_rational
from qcvx.errors import (
    DomainError,
    InteriorRequiredError,
    NoSampleError,
    ParameterRangeError,
    SupremumNotAttainedError,
    ValidationError,
)
from qcvx.functions import function_from_dict
from qcvx.oracle import FLOAT_EPSILON


def rejects(call, error, field, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert getattr(info.value, "field", None) == field
    assert str(info.value) == message


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


PL, PC, TAB = "piecewise_linear", "piecewise_constant", "tabulated"

# (document, field, message): each document is rejected by
# ``function_from_dict`` with a ValidationError naming the field.
DOCUMENTS = {
    "not-an-object": (["0", "1"], "document", "expected a JSON object"),
    "no-type": ({}, "type", "missing required field"),
    "no-knots": ({"type": PL}, "knots", "missing required field"),
    "knots-not-a-list": ({"type": PL, "knots": "0 1"}, "knots", "expected a non-empty list"),
    "knots-empty": ({"type": PL, "knots": []}, "knots", "expected a non-empty list"),
    "knot-not-a-pair": (
        {"type": PL, "knots": [["0", "0"], ["1", "1", "2"]]},
        "knots[1]",
        "expected a [position, value] pair",
    ),
    "knot-value-not-a-string": (
        {"type": PL, "knots": [["0", "0"], ["1", 1]]},
        "knots[1][1]",
        "expected a rational string, got 1",
    ),
    "one-knot": ({"type": PL, "knots": [["0", "0"]]}, "knots", "need at least two knots"),
    "knots-not-increasing": (
        {"type": PL, "knots": [["0", "0"], ["1/2", "1"], ["1/2", "0"]]},
        "knots",
        "positions must strictly increase (1/2 !< 1/2)",
    ),
    "no-piece-values": (
        {"type": PC, "breaks": ["0", "1"], "point_values": ["0", "0"]},
        "piece_values",
        "missing required field",
    ),
    "piece-value-not-a-string": (
        {"type": PC, "breaks": ["0", "1"], "piece_values": [0], "point_values": ["0", "0"]},
        "piece_values[0]",
        "expected a value string, got 0",
    ),
    "one-breakpoint": (
        {"type": PC, "breaks": ["0"], "piece_values": [], "point_values": ["0"]},
        "breaks",
        "need at least two breakpoints",
    ),
    "breaks-not-increasing": (
        {"type": PC, "breaks": ["0", "1", "1/2"], "piece_values": ["0", "0"], "point_values": ["0", "0", "0"]},
        "breaks",
        "breakpoints must strictly increase (1 !< 1/2)",
    ),
    "piece-count": (
        {"type": PC, "breaks": ["0", "1"], "piece_values": ["0", "1"], "point_values": ["0", "0"]},
        "piece_values",
        "expected 1 piece values, got 2",
    ),
    "point-count": (
        {"type": PC, "breaks": ["0", "1"], "piece_values": ["0"], "point_values": ["0"]},
        "point_values",
        "expected 2 point values, got 1",
    ),
    # The breakpoints are checked before the counts.
    "one-breakpoint-and-counts": (
        {"type": PC, "breaks": ["0"], "piece_values": ["0", "0"], "point_values": []},
        "breaks",
        "need at least two breakpoints",
    ),
    "one-sample": ({"type": TAB, "positions": ["0"], "values": ["0"]}, "positions", "need at least two samples"),
    "samples-not-increasing": (
        {"type": TAB, "positions": ["1", "0"], "values": ["0", "0"]},
        "positions",
        "positions must strictly increase (1 !< 0)",
    ),
    "value-count": (
        {"type": TAB, "positions": ["0", "1"], "values": ["0", "0", "0"]},
        "values",
        "expected 2 values, got 3",
    ),
}


@pytest.mark.parametrize("doc, field, message", DOCUMENTS.values(), ids=DOCUMENTS.keys())
def test_document_rejection(doc, field, message):
    rejects(lambda: function_from_dict(doc), ValidationError, field, f"{field}: {message}")


@pytest.mark.parametrize("doc, field, message", DOCUMENTS.values(), ids=DOCUMENTS.keys())
def test_document_rejection_through_analyze(doc, field, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["analyze", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: invalid function document: {field}: {message}\n"


@pytest.mark.parametrize(
    "build, field, message",
    [
        (lambda: PiecewiseLinear(((0, 0),)), "knots", "need at least two knots"),
        (lambda: PiecewiseLinear(((0, 0), (0, 1))), "knots", "positions must strictly increase (0 !< 0)"),
        (lambda: Tabulated((0, 1), (0,)), "values", "expected 2 values, got 1"),
        (lambda: Blackbox(1, 1, lambda t: t), "domain", "need lo < hi"),
        (lambda: Blackbox(1, 0, lambda t: t), "domain", "need lo < hi"),
    ],
    ids=["one-knot", "equal-knots", "value-count", "blackbox-empty", "blackbox-reversed"],
)
def test_constructor_rejection(build, field, message):
    rejects(build, ValidationError, field, f"{field}: {message}")


TENT = PiecewiseLinear(((0, 0), (Fraction(1, 2), 1), (1, 0)))
QUERIES = {"infimum_on": infimum_on, "supremum_on": supremum_on, "argmax_set": argmax_set}


@pytest.mark.parametrize("query", QUERIES.values(), ids=QUERIES.keys())
@pytest.mark.parametrize(
    "lo, hi, error, message",
    [
        (Fraction(-1, 4), Fraction(1, 2), DomainError, "[-1/4, 1/2] not within domain [0, 1]"),
        (Fraction(1, 2), Fraction(5, 4), DomainError, "[1/2, 5/4] not within domain [0, 1]"),
        (Fraction(-2), Fraction(-1), DomainError, "[-2, -1] not within domain [0, 1]"),
        (Fraction(2), Fraction(3), DomainError, "[2, 3] not within domain [0, 1]"),
        # The domain check comes first, whatever the order of the ends.
        (Fraction(-1, 2), Fraction(-1), DomainError, "[-1/2, -1] not within domain [0, 1]"),
        (Fraction(1, 2), Fraction(1, 2), ParameterRangeError, "interval needs nonempty interior (lo < hi)"),
        (Fraction(3, 4), Fraction(1, 4), ParameterRangeError, "interval needs nonempty interior (lo < hi)"),
        (Fraction(1), Fraction(0), ParameterRangeError, "interval needs nonempty interior (lo < hi)"),
        # lo beyond the end and hi inside: no end is out on its own side.
        (Fraction(2), Fraction(1), ParameterRangeError, "interval needs nonempty interior (lo < hi)"),
        (Fraction(0), Fraction(-1), ParameterRangeError, "interval needs nonempty interior (lo < hi)"),
    ],
)
def test_interval_query_rejection(query, lo, hi, error, message):
    rejects(lambda: query(TENT, lo, hi), error, None, message)


@pytest.mark.parametrize(
    "t, message", [(Fraction(-1, 3), "-1/3 outside domain [0, 1]"), (Fraction(3, 2), "3/2 outside domain [0, 1]")]
)
def test_evaluation_outside_the_domain(t, message):
    rejects(lambda: TENT.evaluate(t), DomainError, None, message)
    rejects(lambda: TENT.evaluate_sorted([t, t + 1]), DomainError, None, message)


@pytest.mark.parametrize(
    "p, message",
    [(0, "0 is not interior to [0, 1]"), (1, "1 is not interior to [0, 1]"), (2, "2 is not interior to [0, 1]"),
     (Fraction(-1, 3), "-1/3 is not interior to [0, 1]")],
)
def test_local_shape_needs_an_interior_point(p, message):
    rejects(lambda: local_quasiconvexity_at(TENT, p), InteriorRequiredError, None, message)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ClosedSet1D(((1, 0),)), ParameterRangeError, "closed interval needs l <= r, got [1, 0]"),
        (lambda: ClosedSet1D(((0, 2), (1, 3))), ParameterRangeError, "closed components must be disjoint and sorted"),
        (lambda: ClosedSet1D(((2, 3), (0, 1))), ParameterRangeError, "closed components must be disjoint and sorted"),
        (lambda: ClosedSet1D(((0, 1), (1, 2))), ParameterRangeError, "closed components must be disjoint and sorted"),
        (lambda: ClosedSet1D(()).min_point(), SupremumNotAttainedError, "empty set has no minimum"),
        (lambda: ClosedSet1D(()).max_point(), SupremumNotAttainedError, "empty set has no maximum"),
    ],
    ids=["reversed", "overlapping", "unsorted", "touching", "empty-min", "empty-max"],
)
def test_closed_set_rejection(call, error, message):
    rejects(call, error, None, message)


@pytest.mark.parametrize("x, y", [(Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4))])
def test_oracle_violation_set_needs_x_below_y(x, y):
    rejects(
        lambda: oracle_violation_set(TENT, x, y), ParameterRangeError, None, "oracle_violation_set needs x < y"
    )


SAMPLES = Tabulated((0, Fraction(1, 2), 1), (1, 0, 1))


@pytest.mark.parametrize(
    "x, y, missing",
    [(Fraction(1, 8), 1, "1/8"), (0, Fraction(7, 8), "7/8"), (Fraction(1, 8), Fraction(7, 8), "1/8")],
    ids=["left-end", "right-end", "both-ends"],
)
def test_oracle_violation_set_needs_sample_ends(x, y, missing):
    rejects(
        lambda: oracle_violation_set(SAMPLES, x, y), NoSampleError, None, f"{missing} is not a sample position"
    )


@pytest.mark.parametrize(
    "call, error, field, message",
    [
        (lambda: as_rational(0.5), TypeError, None, "cannot interpret 0.5 as a rational"),
        (lambda: Point(()), ParameterRangeError, None, "a point needs at least one coordinate"),
        (lambda: function_to_dict(Blackbox(0, 1, lambda t: t)), ValidationError, "type",
         "type: Blackbox is not serializable"),
        (lambda: build_grid(TENT, grid_points=5, lo=Fraction(1, 2), hi=Fraction(1, 2)),
         ParameterRangeError, None, "grid needs lo < hi"),
    ],
    ids=["float-position", "empty-point", "blackbox-document", "empty-grid"],
)
def test_library_rejection(call, error, field, message):
    rejects(call, error, field, message)


NAN = float("nan")
NAN_MESSAGE = "NaN is not an extended real value"
NAN_AT_HALF = Blackbox(0, 1, lambda t: NAN if t == Fraction(1, 2) else 0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: XReal.coerce(NAN), NAN_MESSAGE),
        (lambda: Tabulated((0, 1), (0.0, NAN)), NAN_MESSAGE),
        (lambda: PiecewiseConstant((0, 1), (NAN,), (0.0, 0.0)), NAN_MESSAGE),
        (lambda: PiecewiseConstant((0, 1), (0.0,), (NAN, 0.0)), NAN_MESSAGE),
        (lambda: NAN_AT_HALF.evaluate(Fraction(1, 2)), f"black box at t = 1/2: {NAN_MESSAGE}"),
        (lambda: NAN_AT_HALF.negate().evaluate(Fraction(1, 2)), f"black box at t = 1/2: {NAN_MESSAGE}"),
        (lambda: oracle_quasiconvex(NAN_AT_HALF, grid_points=5), f"black box at t = 1/2: {NAN_MESSAGE}"),
        (lambda: oracle_violation_set(NAN_AT_HALF, 0, 1, grid_points=5), f"black box at t = 1/2: {NAN_MESSAGE}"),
    ],
    ids=["coerce", "tabulated", "piece-value", "point-value", "blackbox", "negated-blackbox", "oracle", "oracle-set"],
)
def test_nan_value_rejection(call, message):
    # A NaN compares false both ways, so it would pass any order check
    # as a value; it is refused as a QcvxError wherever a float comes in.
    rejects(call, ParameterRangeError, None, message)


def test_blackbox_oracle_report_carries_its_float_mode():
    grid = oracle_quasiconvex(Blackbox(0, 1, lambda t: t * t), grid_points=5).to_json()["grid"]
    assert grid["float_mode"] is True
    assert grid["float_epsilon"] == "1/1000000000"
    assert Fraction(grid["float_epsilon"]) == FLOAT_EPSILON


def test_analyze_rejects_a_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(["analyze", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        f"error: invalid function document: file: {path} is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
    )


@pytest.fixture
def tent_file(tmp_path):
    path = tmp_path / "tent.json"
    path.write_text(json.dumps({"type": PL, "knots": [["0", "0"], ["1/2", "1"], ["1", "0"]]}))
    return path


def test_oracle_rejects_an_unreadable_expectation(tent_file, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(["oracle", str(tent_file), "--grid", "11", "--expect", str(missing)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        f"error: invalid expectation file: expect: cannot read {missing}: "
        f"[Errno 2] No such file or directory: '{missing}'\n"
    )


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[]", "expect.components: missing components list"),
        ('{"component": []}', "expect.components: missing components list"),
        ('{"components": [{"u": "0"}]}', "expect.components: malformed entry: 'v'"),
    ],
    ids=["not-an-object", "no-components", "entry-without-v"],
)
def test_oracle_rejects_a_malformed_expectation(doc, message, tent_file, tmp_path, capsys):
    expect = tmp_path / "expect.json"
    expect.write_text(doc)
    code, out, err = run(["oracle", str(tent_file), "--grid", "11", "--expect", str(expect)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: invalid expectation file: {message}\n"


@pytest.mark.parametrize(
    "options", [[], ["--knots", "4"], ["--seed", "1"]], ids=["neither", "no-seed", "no-knots"]
)
def test_random_corpus_needs_knots_and_seed(options, tmp_path, capsys):
    code, out, err = run(["corpus", "random-pl", *options, "--out", str(tmp_path / "f.json")], capsys)
    assert (code, out) == (1, "")
    assert err == "error: random-pl needs --knots and --seed\n"
    assert not (tmp_path / "f.json").exists()


# Each error class with a constructor of its own: arguments, and the
# attributes it sets.
_OWN_CONSTRUCTORS = {
    errors.ValidationError: (("knots", "bad"), {"field": "knots"}),
    errors.SemicontinuityError: (("not usc at 1/3", (Fraction(1, 3),)), {"offending": (Fraction(1, 3),)}),
}


def test_every_own_constructor_has_a_pickle_case():
    own = {
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.QcvxError) and "__init__" in vars(cls)
    }
    assert own == set(_OWN_CONSTRUCTORS)


@pytest.mark.parametrize("cls", sorted(_OWN_CONSTRUCTORS, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_error_survives_pickling(cls):
    # Library errors stay picklable, with their notes and attributes, for
    # callers that pass them between processes.
    args, attributes = _OWN_CONSTRUCTORS[cls]
    exc = cls(*args)
    exc.__notes__ = ["pair (0, 1)"]
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is cls
    assert str(clone) == str(exc)
    assert clone.__notes__ == ["pair (0, 1)"]
    for name, value in attributes.items():
        assert getattr(clone, name) == value
