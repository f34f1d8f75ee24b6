"""Exact numeric foundation: rationals, extended reals, points, segments.

All exact analyses run on ``fractions.Fraction`` values (arbitrary-precision
rationals); extended reals add two infinities with a total order.  Floating
point only appears in black-box mode and in report decimals.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Union

from .errors import (
    DegenerateSegmentError,
    DimensionMismatchError,
    ParameterRangeError,
)

RationalLike = Union[Fraction, int, str]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or rational string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


# The largest decimal exponent magnitude accepted: building 10**e costs
# time that grows faster than e.  CPython's default limit on int string
# digits, fixed here because a process may lift its own.
_MAX_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"n"`` or a decimal string into a Fraction.

    Fraction's own parser already handles all three forms exactly.  A
    decimal exponent above ``_MAX_EXPONENT`` in magnitude is refused
    before the number is built.
    """
    _, e, exponent = text.strip().lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > _MAX_EXPONENT):
        raise ParameterRangeError(
            f"decimal exponent above {_MAX_EXPONENT} in magnitude: {text!r}"
        )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterRangeError(f"not a rational: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render a Fraction as ``"p/q"`` in lowest terms (``"p"`` for integers).

    A numerator or denominator with more digits than the interpreter
    converts to a string (``sys.get_int_max_str_digits()``, 4300 by
    default) raises :class:`ParameterRangeError`.
    """
    return _ratio_text(q.numerator, q.denominator)


def _ratio_text(n: int, d: int) -> str:
    """n / d, in lowest terms with d > 0, as ``format_rational`` writes it."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError as exc:
        raise _past_digit_limit() from exc


def _past_digit_limit() -> ParameterRangeError:
    """The error for a result whose integer has more digits than the
    interpreter converts to a string."""
    return ParameterRangeError(
        f"a result has more than {sys.get_int_max_str_digits()} digits, "
        "the limit for converting an integer to a string"
    )


_FINITE = 0
_PLUS = 1
_MINUS = -1


@total_ordering
class XReal:
    """An extended real: a finite rational, ``+inf`` or ``-inf``.

    The order is total: ``-inf < finite(a) < +inf`` for every finite ``a``,
    finite values ordered as rationals.  Instances are immutable and
    hashable.  Arithmetic is deliberately minimal (negation only); the
    analyses never add infinite values.
    """

    __slots__ = ("_kind", "_value")

    def __init__(self, value: RationalLike):
        object.__setattr__(self, "_kind", _FINITE)
        object.__setattr__(self, "_value", as_rational(value))

    @classmethod
    def _make(cls, kind: int, value: Fraction) -> "XReal":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_kind", kind)
        object.__setattr__(obj, "_value", value)
        return obj

    @classmethod
    def coerce(cls, value) -> "XReal":
        """Coerce XReal, rational-like or float (incl. inf) to an XReal;
        NaN raises :class:`ParameterRangeError`."""
        if isinstance(value, XReal):
            return value
        if isinstance(value, float):
            if value != value:
                raise ParameterRangeError("NaN is not an extended real value")
            if value == float("inf"):
                return PLUS_INF
            if value == float("-inf"):
                return MINUS_INF
            return cls(Fraction(value))
        return cls(value)

    @classmethod
    def from_string(cls, text: str) -> "XReal":
        text = text.strip()
        if text == "inf":
            return PLUS_INF
        if text == "-inf":
            return MINUS_INF
        return cls(parse_rational(text))

    @property
    def is_finite(self) -> bool:
        return self._kind == _FINITE

    @property
    def is_plus_infinity(self) -> bool:
        return self._kind == _PLUS

    @property
    def is_minus_infinity(self) -> bool:
        return self._kind == _MINUS

    @property
    def finite_value(self) -> Fraction:
        if self._kind != _FINITE:
            raise ParameterRangeError("infinite value has no finite part")
        return self._value

    def _key(self):
        return (self._kind, self._value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XReal):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other) -> bool:
        if not isinstance(other, XReal):
            return NotImplemented
        if self._kind != other._kind:
            return self._kind < other._kind
        return self._value < other._value

    def __hash__(self):
        return hash(self._key())

    def __neg__(self) -> "XReal":
        if self._kind == _FINITE:
            return XReal(-self._value)
        return MINUS_INF if self._kind == _PLUS else PLUS_INF

    def __float__(self) -> float:
        if self._kind == _PLUS:
            return float("inf")
        if self._kind == _MINUS:
            return float("-inf")
        return self._value.numerator / self._value.denominator

    def __repr__(self) -> str:
        return f"XReal({self.to_string()})"

    def __reduce__(self):
        return (XReal._make, (self._kind, self._value))

    def to_string(self) -> str:
        """Serialize as ``"p/q"``, ``"inf"`` or ``"-inf"``."""
        if self._kind == _PLUS:
            return "inf"
        if self._kind == _MINUS:
            return "-inf"
        return format_rational(self._value)


PLUS_INF = XReal._make(_PLUS, Fraction(0))
MINUS_INF = XReal._make(_MINUS, Fraction(0))


def xreal_max(a: XReal, b: XReal) -> XReal:
    return b if a < b else a


def _decimal(value: Union[XReal, Fraction]) -> Union[float, str]:
    """JSON-safe decimal companion for an exact value: the nearest double,
    or ``"inf"`` / ``"-inf"`` for an infinite value or one beyond the
    double range."""
    if isinstance(value, XReal):
        if not value.is_finite:
            return value.to_string()
        value = value.finite_value
    return _ratio_decimal(*value.as_integer_ratio())


def _ratio_decimal(n: int, d: int) -> Union[float, str]:
    """``_decimal`` of n / d, d > 0: the nearest double, or ``"inf"`` /
    ``"-inf"`` beyond the double range."""
    try:
        return n / d
    except OverflowError:
        return "inf" if n > 0 else "-inf"


@dataclass(frozen=True)
class Point:
    """A point of n-dimensional rational coordinate space (n >= 1)."""

    coordinates: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coordinates) < 1:
            raise ParameterRangeError("a point needs at least one coordinate")
        object.__setattr__(
            self, "coordinates", tuple(as_rational(c) for c in self.coordinates)
        )

    @classmethod
    def of(cls, *coords: RationalLike) -> "Point":
        return cls(tuple(as_rational(c) for c in coords))

    @property
    def dimension(self) -> int:
        return len(self.coordinates)


@dataclass(frozen=True)
class Segment:
    """The segment between two points, parameterized z(t) = (1-t)x + t*y.

    With this convention z(0) = x and z(1) = y, so t increases from x
    toward y.  Degenerate segments (x = y) are valid values; analyses that
    need distinct endpoints reject them explicitly.
    """

    x: Point
    y: Point

    def __post_init__(self):
        if self.x.dimension != self.y.dimension:
            raise DimensionMismatchError(
                f"segment endpoints have dimensions "
                f"{self.x.dimension} and {self.y.dimension}"
            )

    @property
    def is_degenerate(self) -> bool:
        return self.x == self.y

    def require_non_degenerate(self):
        if self.is_degenerate:
            raise DegenerateSegmentError("segment endpoints coincide")


def segment_point(segment: Segment, t: RationalLike) -> Point:
    """Evaluate z(t) = (1-t)x + t*y coordinatewise in exact rationals."""
    t = as_rational(t)
    if not (0 <= t <= 1):
        raise ParameterRangeError(f"segment parameter {t} outside [0, 1]")
    one_minus = 1 - t
    coords = tuple(
        one_minus * a + t * b
        for a, b in zip(segment.x.coordinates, segment.y.coordinates)
    )
    return Point(coords)
