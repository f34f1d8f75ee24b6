import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qcvx import (
    MINUS_INF,
    PLUS_INF,
    Point,
    Segment,
    XReal,
    parse_rational,
    format_rational,
    segment_point,
    xreal_max,
)
from qcvx.errors import (
    DegenerateSegmentError,
    DimensionMismatchError,
    ParameterRangeError,
)

finite = st.fractions(max_denominator=10**6)
xreals = st.one_of(
    finite.map(XReal), st.just(PLUS_INF), st.just(MINUS_INF)
)


class TestXRealOrder:
    def test_minus_infinity_below_zero(self):
        assert MINUS_INF < XReal(0) and not XReal(0) < MINUS_INF

    def test_equal_fractions(self):
        third = XReal(Fraction(1, 3))
        assert third == XReal(Fraction(1, 3)) and not third < XReal(Fraction(1, 3))

    def test_plus_infinity_above_large_finite(self):
        assert XReal(10**6) < PLUS_INF and not PLUS_INF < XReal(10**6)

    def test_max_examples(self):
        assert xreal_max(XReal(2), XReal(5)) == XReal(5)
        assert xreal_max(MINUS_INF, MINUS_INF) == MINUS_INF
        assert xreal_max(XReal(0), PLUS_INF) == PLUS_INF

    @given(xreals, xreals)
    def test_trichotomy(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1

    @given(xreals, xreals, xreals)
    def test_transitivity(self, a, b, c):
        if a < b and b < c:
            assert a < c

    @given(xreals, xreals)
    def test_max_commutes_and_dominates(self, a, b):
        m = xreal_max(a, b)
        assert m == xreal_max(b, a)
        assert m >= a and m >= b
        assert m in (a, b)

    def test_negation(self):
        assert -XReal(Fraction(2, 3)) == XReal(Fraction(-2, 3))
        assert -PLUS_INF == MINUS_INF
        assert -MINUS_INF == PLUS_INF

    def test_string_round_trip(self):
        for text in ("2/3", "-7/2", "5", "inf", "-inf"):
            assert XReal.from_string(text).to_string() == text

    def test_finite_value_of_infinity_rejected(self):
        with pytest.raises(ParameterRangeError):
            PLUS_INF.finite_value

    def test_coerce_floats(self):
        assert XReal.coerce(float("inf")) == PLUS_INF
        assert XReal.coerce(float("-inf")) == MINUS_INF
        assert XReal.coerce(0.5) == XReal(Fraction(1, 2))


class TestRationalHelpers:
    def test_parse_and_format(self):
        assert parse_rational("2/6") == Fraction(1, 3)
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-1, 3)) == "-1/3"

    @pytest.mark.parametrize("numerator", [True, False], ids=["numerator", "denominator"])
    def test_format_refuses_past_the_digit_limit(self, numerator):
        # One digit past the interpreter's limit, on either side of the bar;
        # the limit itself still prints.
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer string conversion is unlimited")
        big = Fraction(10**limit) if numerator else Fraction(1, 10**limit)
        with pytest.raises(ParameterRangeError) as raised:
            format_rational(big)
        assert str(raised.value) == (
            f"a result has more than {limit} digits, "
            "the limit for converting an integer to a string"
        )
        at_limit = big / 10 if numerator else big * 10
        assert len(format_rational(at_limit)) == (limit if numerator else limit + 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParameterRangeError):
            parse_rational("one third")

    @pytest.mark.parametrize(
        "text",
        ["1e4301", "1e-4301", "-2.5E+4301", "1e10000000", "1e" + "9" * 5000],
        ids=["1e4301", "1e-4301", "-2.5E+4301", "1e10000000", "5000-digit"],
    )
    def test_parse_refuses_huge_exponents(self, text):
        # Refused before 10**e is built, so even a huge exponent is quick.
        with pytest.raises(ParameterRangeError, match="exponent above 4300"):
            parse_rational(text)

    def test_parse_keeps_exponents_up_to_the_limit(self):
        assert parse_rational("1e400") == 10**400
        assert parse_rational(" 1e-4300 ") == Fraction(1, 10**4300)
        assert parse_rational("1e0_4_300") == 10**4300

    @given(
        st.integers(-10**12, 10**12),
        st.integers(1, 10**12),
        st.integers(-10**12, 10**12),
        st.integers(1, 10**12),
    )
    def test_addition_exact_against_cross_multiplication(self, a, b, c, d):
        total = Fraction(a, b) + Fraction(c, d)
        # Independent route: big-integer cross multiplication, then reduce.
        assert total == Fraction(a * d + c * b, b * d)


class TestSegments:
    def test_midpoint(self):
        s = Segment(Point.of(0, 0), Point.of(1, 2))
        assert segment_point(s, Fraction(1, 2)) == Point.of(Fraction(1, 2), 1)

    def test_degenerate_segment_evaluates(self):
        s = Segment(Point.of(3), Point.of(3))
        assert segment_point(s, Fraction(1, 4)) == Point.of(3)
        with pytest.raises(DegenerateSegmentError):
            s.require_non_degenerate()

    def test_third(self):
        s = Segment(Point.of(0), Point.of(1))
        assert segment_point(s, Fraction(1, 3)) == Point.of(Fraction(1, 3))

    def test_orientation(self):
        s = Segment(Point.of(2), Point.of(7))
        assert segment_point(s, 0) == Point.of(2)
        assert segment_point(s, 1) == Point.of(7)

    def test_parameter_range(self):
        s = Segment(Point.of(0), Point.of(1))
        with pytest.raises(ParameterRangeError):
            segment_point(s, Fraction(3, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Segment(Point.of(0), Point.of(0, 1))

    @given(
        finite.filter(lambda q: 0 <= q <= 1),
        finite.filter(lambda q: 0 <= q <= 1),
    )
    def test_affine_in_parameter(self, t1, t2):
        s = Segment(Point.of(Fraction(-2), Fraction(5)), Point.of(3, Fraction(1, 7)))
        mid = segment_point(s, (t1 + t2) / 2)
        p1, p2 = segment_point(s, t1), segment_point(s, t2)
        expected = Point(
            tuple((a + b) / 2 for a, b in zip(p1.coordinates, p2.coordinates))
        )
        assert mid == expected

