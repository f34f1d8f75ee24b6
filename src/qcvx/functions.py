"""Function models on a closed rational interval.

Four representations of an extended-real-valued function f on [a, b]:

* ``PiecewiseLinear`` -- continuous interpolation through finite knots.
* ``PiecewiseConstant`` -- open pieces with explicit values at every
  breakpoint, so one-sided limits and the value at a point can disagree.
  This is what makes semicontinuity a decidable, exact question.
* ``Tabulated`` -- values known only at sample positions.
* ``Blackbox`` -- an evaluation callback; marked inexact.

The exact variants support closed-form extremum queries (infimum and
supremum over a subinterval with open/closed end flags, argmax sets) that
the violation and certificate analyses build on.  Each exact model keeps
one structure index, whose integer keys only this module reads: the
extremum and argmax queries, and the threshold walk ``_sweep``, which
hands the violation analyses one stream of breakpoint and span items.
A linear piece's line is built from that piece's own ends, so its
integers do not grow with the model.

This module also validates every position input, on its located key: a
point in ``_locate``, a pair x < y in ``_pair``, an interval in
``_subinterval`` and the interior point of a local shape in ``_sides``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

from .core import (
    Point,
    RationalLike,
    Segment,
    XReal,
    as_rational,
    format_rational,
    segment_point,
    xreal_max,
)
from .errors import (
    ConsistencyError,
    DomainError,
    InexactModelError,
    InteriorRequiredError,
    NoSampleError,
    OrderingError,
    ParameterRangeError,
    PreconditionError,
    SupremumNotAttainedError,
    UnsupportedChordError,
    ValidationError,
)

MAX_CANTOR_DEPTH = 20


class Function1D:
    """Base interface shared by all one-dimensional models."""

    is_exact: bool = False

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        raise NotImplementedError

    def evaluate(self, t: RationalLike) -> XReal:
        raise NotImplementedError

    def evaluate_sorted(self, ts: Sequence[RationalLike]) -> list[XReal]:
        """``[self.evaluate(t) for t in ts]`` for ascending ``ts``.

        Models with a sorted structure answer in one walk over it; this
        default evaluates point by point, in order.
        """
        return [self.evaluate(t) for t in ts]

    def breakpoints(self) -> tuple[Fraction, ...]:
        """Structural positions (knots or breaks), domain ends included."""
        raise NotImplementedError

    def negate(self) -> "Function1D":
        raise NotImplementedError

    def _check_domain(self, t: Fraction) -> Fraction:
        a, b = self.domain
        if not (a <= t <= b):
            raise DomainError(f"{t} outside domain [{a}, {b}]")
        return t

    def __getstate__(self) -> dict:
        # The structure index is derived data: rebuilt on demand, never
        # pickled.
        state = dict(vars(self))
        state.pop("_index", None)
        return state


def require_exact(f: Function1D, operation: str) -> None:
    if not f.is_exact:
        raise InexactModelError(
            f"{operation} needs an exact model, got {type(f).__name__}"
        )


@dataclass(frozen=True)
class SemicontinuityReport:
    is_lsc: bool
    is_usc: bool
    offending_points_lsc: tuple[Fraction, ...]
    offending_points_usc: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "is_lsc": self.is_lsc,
            "is_usc": self.is_usc,
            "offending_points_lsc": [format_rational(p) for p in self.offending_points_lsc],
            "offending_points_usc": [format_rational(p) for p in self.offending_points_usc],
        }


# Integer keys stand for +inf and -inf: they order outside every finite
# key and are compared, never multiplied.
PLUS_KEY = math.inf
MINUS_KEY = -math.inf


@dataclass(frozen=True)
class _StructureIndex:
    """The structure of an exact model, built once per model by
    ``_build_index``.

    ``positions`` are the sorted breakpoints and ``values`` the values of
    f there.  On the open piece k between positions k and k + 1, f is
    the constant ``flats[k]``, or, where that is None, linear between
    the finite values at the piece ends: ``lines[k]`` holds the integers
    ``(a, b, c)``, without a common factor and with c > 0, such that
    f(t) = (a + b * t) / c there.  ``lines`` has entries only for these
    non-constant pieces.
    ``left_cmp[i]`` and ``right_cmp[i]`` compare f(positions[i]) with the
    values of f immediately left and right of it: +1 above them, 0 equal,
    -1 below; 0 at the domain ends, where that side does not exist.

    The same structure as integers: ``position_keys[i]`` is
    ``positions[i] * den``, with ``den`` the least common multiple of the
    position denominators, and ``value_keys[i]`` and ``flat_keys[k]``
    (None where ``flats[k]`` is) are the finite values times ``scale``,
    the least common multiple of the finite value denominators, or
    ``PLUS_KEY`` / ``MINUS_KEY``.
    """

    positions: tuple[Fraction, ...]
    values: tuple[XReal, ...]
    flats: tuple[Optional[XReal], ...]
    lines: dict[int, tuple[int, int, int]]
    left_cmp: tuple[int, ...]
    right_cmp: tuple[int, ...]
    semicontinuity: SemicontinuityReport
    den: int
    position_keys: tuple[int, ...]
    scale: int
    value_keys: tuple
    flat_keys: tuple

    def locate(self, t: Fraction) -> tuple[Union[int, Fraction], int]:
        """``(t * den, i)``: ``t * den`` is an int when t is a multiple
        of ``1 / den``, and positions[:i] are the breakpoints at or left
        of t, so t is breakpoint i - 1 exactly when
        ``position_keys[i - 1] == t * den``."""
        n, d = t.numerator * self.den, t.denominator
        q, r = divmod(n, d)
        return (q if r == 0 else Fraction(n, d)), bisect_right(self.position_keys, q)

    def side(self, scaled: Union[int, Fraction], i: int) -> int:
        """Where the t located at ``(scaled, i)`` lies in the domain
        [a, b]: -2 below a, -1 at a, 0 strictly inside, 1 at b, 2 above b."""
        keys = self.position_keys
        if i == len(keys):
            return 1 if scaled == keys[-1] else 2
        return -2 if i == 0 else -1 if scaled == keys[0] else 0


def _build_index(
    positions: tuple[Fraction, ...],
    values: tuple[XReal, ...],
    flats: tuple[Optional[XReal], ...],
) -> _StructureIndex:
    """The index of f with ``values`` at ``positions`` and, on piece k,
    the constant ``flats[k]``, or where that is None, the line between
    the values at the piece ends.  A side comparison is with the piece
    constant, or with the value at the linear piece's other end; the
    audit is explained at ``check_semicontinuity``."""
    den = math.lcm(*{p.denominator for p in positions})
    finite = [v for v in (*values, *flats) if v is not None and v.is_finite]
    scale = math.lcm(*{v.finite_value.denominator for v in finite})

    def key(v: Optional[XReal]):
        if v is None:
            return None
        if not v.is_finite:
            return PLUS_KEY if v.is_plus_infinity else MINUS_KEY
        q = v.finite_value
        return q.numerator * (scale // q.denominator)

    ps = tuple(p.numerator * (den // p.denominator) for p in positions)
    ks, flat_keys = tuple(map(key, values)), tuple(map(key, flats))
    pieces = list(zip(ps, ps[1:], ks, ks[1:], flat_keys))
    lines = {
        k: _line(positions[k], positions[k + 1], values[k].finite_value, values[k + 1].finite_value)
        for k, flat in enumerate(flats)
        if flat is None
    }
    left = (0, *(_cmp(k1, k0 if c is None else c) for _, _, k0, k1, c in pieces))
    right = (*(_cmp(k0, k1 if c is None else c) for _, _, k0, k1, c in pieces), 0)
    # The side comparisons beside constant pieces, where f can jump.
    jumps = list(
        zip(
            positions,
            (0, *(l if c is not None else 0 for l, c in zip(left[1:], flat_keys))),
            (*(r if c is not None else 0 for r, c in zip(right, flat_keys)), 0),
        )
    )
    bad_lsc = tuple(p for p, l, r in jumps if l > 0 or r > 0)
    bad_usc = tuple(p for p, l, r in jumps if l < 0 or r < 0)
    return _StructureIndex(
        positions=positions, values=values, flats=flats, lines=lines,
        left_cmp=left, right_cmp=right,
        semicontinuity=SemicontinuityReport(not bad_lsc, not bad_usc, bad_lsc, bad_usc),
        den=den, position_keys=ps, scale=scale, value_keys=ks, flat_keys=flat_keys,
    )


def _line(p0: Fraction, p1: Fraction, v0: Fraction, v1: Fraction) -> tuple[int, int, int]:
    """``(a, b, c)`` of the line through (p0, v0) and (p1, v1), p0 < p1,
    from these four numbers alone, so its integers stay as wide as one
    piece's denominators however many pieces the model has."""
    d0, d1, e0, e1 = p0.denominator, p1.denominator, v0.denominator, v1.denominator
    # The ends over d0 * d1 and the values over e0 * e1; the line
    # (v0 * p1 - v1 * p0 + (v1 - v0) * t) / (p1 - p0) times d0 * d1 * e0 * e1.
    s0, s1 = p0.numerator * d1, p1.numerator * d0
    w0, w1 = v0.numerator * e1, v1.numerator * e0
    a, b, c = w0 * s1 - w1 * s0, (w1 - w0) * d0 * d1, (s1 - s0) * e0 * e1
    g = math.gcd(a, b, c)
    return a // g, b // g, c // g


def _cmp(u, v) -> int:
    return (v < u) - (u < v)


# A position t located in the structure index: (t, t * den, i), see
# ``_StructureIndex.locate``.
_Located = tuple[Fraction, Union[int, Fraction], int]


class _ExactModel(Function1D):
    """Point evaluation and interval lookups over the structure index; each
    lookup bisects the integer position keys, so a query on ]lo, hi[ costs
    O(log n + k) for the k breakpoints inside."""

    is_exact = True

    def _inside(self, k: int, t: Fraction) -> XReal:
        """f(t) for t strictly inside piece k."""
        s = self._index
        flat = s.flats[k]
        if flat is not None:
            return flat
        a, b, c = s.lines[k]
        td = t.denominator
        return XReal(Fraction(a * td + b * t.numerator, c * td))

    def _locate(self, t: Fraction) -> _Located:
        """Locate a t that must lie in the domain."""
        s = self._index
        scaled, i = s.locate(t)
        if abs(s.side(scaled, i)) == 2:
            self._check_domain(t)
        return t, scaled, i

    def _located_value(self, at: _Located) -> XReal:
        """f(t) for a located t."""
        t, scaled, i = at
        s = self._index
        if s.position_keys[i - 1] == scaled:
            return s.values[i - 1]
        return self._inside(i - 1, t)

    def breakpoints(self) -> tuple[Fraction, ...]:
        return self._index.positions

    def evaluate(self, t: RationalLike) -> XReal:
        return self._located_value(self._locate(as_rational(t)))

    def evaluate_sorted(self, ts: Sequence[RationalLike]) -> list[XReal]:
        """``_locate`` places ``ts[0]``; after it the walk only moves forward
        and compares integer cross products, so its Fraction work grows with
        neither ``len(ts)`` nor the model.  The first t outside the domain
        raises the DomainError that ``evaluate`` raises."""
        if not ts:
            return []
        s = self._index
        positions = s.positions
        first, scaled, i = self._locate(as_rational(ts[0]))
        # positions[i] is the first breakpoint at or right of ts[0].
        if s.position_keys[i - 1] == scaled:
            i -= 1
        last = len(positions) - 1
        pn, pd = positions[i].numerator, positions[i].denominator
        prev_n, prev_d = first.numerator, first.denominator
        out: list[XReal] = []
        for t in ts:
            t = as_rational(t)
            tn, td = t.numerator, t.denominator
            if tn * prev_d < prev_n * td:
                raise ParameterRangeError(
                    f"positions must ascend ({format_rational(t)} after "
                    f"{format_rational(Fraction(prev_n, prev_d))})"
                )
            prev_n, prev_d = tn, td
            while pn * td < tn * pd:
                if i == last:
                    self._check_domain(t)
                i += 1
                pn, pd = positions[i].numerator, positions[i].denominator
            # Fractions are kept in lowest terms, so equal values have equal parts.
            out.append(s.values[i] if pn == tn and pd == td else self._inside(i - 1, t))
        return out

    def _span(self, lo: _Located, hi: _Located) -> tuple[int, int]:
        """``(i, j)`` for located lo < hi: positions[i:j] are the breakpoints
        strictly inside ]lo, hi[, so lo lies in piece i - 1 or on its left
        end and hi in piece j - 1 or on its right end."""
        _, scaled_hi, j = hi
        if self._index.position_keys[j - 1] == scaled_hi:
            j -= 1
        return lo[2], j

    def _sides(self, t: RationalLike) -> tuple[int, int, Fraction]:
        """``(left, right, radius)`` for t strictly inside the domain: left
        and right compare f(t) with the values of f immediately left and
        right of t (+1 above them, 0 equal, -1 below), and radius is the
        distance from t to the nearest other breakpoint, so that each of
        ]t - radius, t[ and ]t, t + radius[ lies inside one piece.  A t
        that is not interior raises InteriorRequiredError."""
        t = as_rational(t)
        s = self._index
        scaled, i = s.locate(t)
        if s.side(scaled, i) != 0:
            a, b = self.domain
            raise InteriorRequiredError(f"{t} is not interior to [{a}, {b}]")
        keys = s.position_keys
        if keys[i - 1] == scaled:
            k = i - 1
            left, right = s.left_cmp[k], s.right_cmp[k]
            below, above = keys[k - 1], keys[k + 1]
        else:
            # Inside piece i - 1, f is constant or strictly monotone with
            # the direction of its right end's left comparison.
            rise = 0 if s.flats[i - 1] is not None else s.left_cmp[i]
            left, right = rise, -rise
            below, above = keys[i - 1], keys[i]
        return left, right, Fraction(min(scaled - below, above - scaled), s.den)


def _check_positions(field: str, positions: Sequence, items: str, noun: str = "positions") -> None:
    """Reject, naming field, fewer than two positions or ones not increasing."""
    if len(positions) < 2:
        raise ValidationError(field, f"need at least two {items}")
    for p0, p1 in zip(positions, positions[1:]):
        if not p0 < p1:
            raise ValidationError(field, f"{noun} must strictly increase ({p0} !< {p1})")


def _check_count(field: str, values: Sequence, expected: int, noun: str) -> None:
    """Reject, naming field, a list of values that is not ``expected`` long."""
    if len(values) != expected:
        raise ValidationError(field, f"expected {expected} {noun}, got {len(values)}")


@dataclass(frozen=True)
class PiecewiseLinear(_ExactModel):
    """Continuous piecewise-linear function through strictly increasing
    knots with finite rational values."""

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        knots = tuple((as_rational(p), as_rational(v)) for p, v in self.knots)
        object.__setattr__(self, "knots", knots)
        _check_positions("knots", [p for p, _ in knots], "knots")

    @cached_property
    def _index(self) -> _StructureIndex:
        knots = self.knots
        values = tuple(XReal(v) for _, v in knots)
        # A linear piece between equal values is a constant piece.
        flats = (x if v0 == v1 else None for x, (_, v0), (_, v1) in zip(values, knots, knots[1:]))
        return _build_index(tuple(p for p, _ in knots), values, tuple(flats))

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self.knots[0][0], self.knots[-1][0])

    def negate(self) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple((p, -v) for p, v in self.knots))


@dataclass(frozen=True)
class PiecewiseConstant(_ExactModel):
    """Open constant pieces between breakpoints, with an explicit value at
    every breakpoint.  Piece values and point values may be infinite."""

    breaks: tuple[Fraction, ...]
    piece_values: tuple[XReal, ...]
    point_values: tuple[XReal, ...]

    def __post_init__(self):
        breaks = tuple(as_rational(b) for b in self.breaks)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(
            self, "piece_values", tuple(XReal.coerce(v) for v in self.piece_values)
        )
        object.__setattr__(
            self, "point_values", tuple(XReal.coerce(v) for v in self.point_values)
        )
        _check_positions("breaks", breaks, "breakpoints", noun="breakpoints")
        _check_count("piece_values", self.piece_values, len(breaks) - 1, "piece values")
        _check_count("point_values", self.point_values, len(breaks), "point values")

    @cached_property
    def _index(self) -> _StructureIndex:
        return _build_index(self.breaks, self.point_values, self.piece_values)

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self.breaks[0], self.breaks[-1])

    def negate(self) -> "PiecewiseConstant":
        return PiecewiseConstant(
            self.breaks,
            tuple(-v for v in self.piece_values),
            tuple(-v for v in self.point_values),
        )


@dataclass(frozen=True)
class Tabulated(Function1D):
    """Values known only at strictly increasing sample positions."""

    positions: tuple[Fraction, ...]
    values: tuple[XReal, ...]

    is_exact = False

    def __post_init__(self):
        positions = tuple(as_rational(p) for p in self.positions)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(
            self, "values", tuple(XReal.coerce(v) for v in self.values)
        )
        _check_positions("positions", positions, "samples")
        _check_count("values", self.values, len(positions), "values")

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self.positions[0], self.positions[-1])

    def breakpoints(self) -> tuple[Fraction, ...]:
        return self.positions

    def evaluate(self, t: RationalLike) -> XReal:
        t = self._check_domain(as_rational(t))
        idx = bisect_left(self.positions, t)
        if idx < len(self.positions) and self.positions[idx] == t:
            return self.values[idx]
        raise NoSampleError(f"{t} is not a sample position")

    def negate(self) -> "Tabulated":
        return Tabulated(self.positions, tuple(-v for v in self.values))


class Blackbox(Function1D):
    """A callback-backed model; marked inexact."""

    is_exact = False

    def __init__(
        self,
        lo: RationalLike,
        hi: RationalLike,
        callback: Callable[[Fraction], object],
    ):
        self._lo = as_rational(lo)
        self._hi = as_rational(hi)
        if not self._lo < self._hi:
            raise ValidationError("domain", "need lo < hi")
        self._callback = callback

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self._lo, self._hi)

    def breakpoints(self) -> tuple[Fraction, ...]:
        return (self._lo, self._hi)

    def evaluate(self, t: RationalLike) -> XReal:
        t = self._check_domain(as_rational(t))
        return XReal.coerce(self._callback(t))

    def negate(self) -> "Blackbox":
        inner = self._callback
        return Blackbox(self._lo, self._hi, lambda t: -XReal.coerce(inner(t)))


def restrict_to_segment(g: Callable[[Point], object], segment: Segment) -> Blackbox:
    """Restrict an n-dimensional black box to a segment.

    Returns h on [0, 1] with h(t) = g((1-t)x + t*y), so h(0) = g(x) and
    h(1) = g(y).
    """
    segment.require_non_degenerate()
    return Blackbox(0, 1, lambda t: g(segment_point(segment, t)))


# ---------------------------------------------------------------------------
# Semicontinuity audit.


def check_semicontinuity(f: Function1D) -> SemicontinuityReport:
    """Decide lower/upper semicontinuity exactly for an exact model.

    f runs into the ends of a linear piece, so only a constant piece can
    leave a jump, and the one-sided limit there is the piece value: lsc
    requires each breakpoint value to be at most every constant piece
    value beside it, usc at least every one.  At the domain ends only the
    inner side constrains.  The audit runs once per model, with its
    structure index.  Semicontinuity of sampled or black-box models is
    undecidable and rejected.
    """
    if not f.is_exact:
        raise InexactModelError(
            f"semicontinuity undecidable for {type(f).__name__}"
        )
    return f._index.semicontinuity


def _lsc_offenders_in(f: Function1D, lo: _Located, hi: _Located) -> tuple[Fraction, ...]:
    """The lsc offenders of f's audit in [lo, hi], for located ends.  The
    bisection compares integer position keys, not Fractions."""
    offenders = check_semicontinuity(f).offending_points_lsc
    den = f._index.den

    def key(p: Fraction) -> int:
        return p.numerator * (den // p.denominator)

    i = bisect_left(offenders, math.ceil(lo[1]), key=key)
    return offenders[i : bisect_right(offenders, math.floor(hi[1]), key=key)]


# ---------------------------------------------------------------------------
# Cantor approximant generators.


def _cantor_components(depth: int) -> list[tuple[Fraction, Fraction]]:
    parts = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        nxt = []
        for a, b in parts:
            third = (b - a) / 3
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        parts = nxt
    return parts


def _check_cantor_depth(depth: int) -> None:
    if (
        isinstance(depth, bool)
        or not isinstance(depth, int)
        or not 1 <= depth <= MAX_CANTOR_DEPTH
    ):
        raise ParameterRangeError(
            f"depth must be an integer in [1, {MAX_CANTOR_DEPTH}], got {depth}"
        )


def _check_cantor_mode(mode: str) -> None:
    if mode not in ("set", "complement"):
        raise ParameterRangeError(f"mode must be 'set' or 'complement', got {mode!r}")


def generate_cantor(depth: int, mode: str) -> PiecewiseConstant:
    """Indicator of the depth-k middle-thirds approximant, or of its open
    complement, as an exact piecewise-constant model on [0, 1].

    ``mode="set"``: value 1 on the union of 2**k closed intervals that
    remains after removing middle thirds k times, 0 elsewhere; breakpoint
    values are 1 (the retained intervals are closed).  ``mode="complement"``:
    the pointwise 1-complement, the indicator of the removed open set.
    """
    _check_cantor_depth(depth)
    _check_cantor_mode(mode)
    components = _cantor_components(depth)
    breaks: list[Fraction] = []
    for a, b in components:
        breaks.append(a)
        breaks.append(b)
    inside = XReal(1) if mode == "set" else XReal(0)
    outside = XReal(0) if mode == "set" else XReal(1)
    pieces: list[XReal] = []
    for i in range(len(breaks) - 1):
        # Even-indexed gaps are interiors of retained intervals.
        pieces.append(inside if i % 2 == 0 else outside)
    points = [inside] * len(breaks)
    f = PiecewiseConstant(tuple(breaks), tuple(pieces), tuple(points))
    if mode == "complement":
        removed = sum(1 for v in f.piece_values if v == XReal(1))
        if removed != 2**depth - 1:
            raise ConsistencyError(
                f"complement construction produced {removed} removed pieces, "
                f"expected {2 ** depth - 1}"
            )
    return f


# ---------------------------------------------------------------------------
# Interval and pair checks: each locates its ends once and checks them there.


def _subinterval(f: Function1D, lo, hi) -> tuple[_Located, _Located]:
    """The ends of a subinterval lo < hi of the domain, located."""
    lo, hi = as_rational(lo), as_rational(hi)
    s = f._index
    (sl, i), (sh, j) = s.locate(lo), s.locate(hi)
    if s.side(sl, i) == -2 or s.side(sh, j) == 2:
        a, b = f.domain
        raise DomainError(f"[{lo}, {hi}] not within domain [{a}, {b}]")
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    if not ln * hd < hn * ld:
        raise ParameterRangeError("interval needs nonempty interior (lo < hi)")
    return (lo, sl, i), (hi, sh, j)


# (m, a, b, plus): f - threshold at position p / den, where f has the
# finite key k, has the sign of k * m - a - b * p; a PLUS_KEY value has
# the sign of ``plus`` and a MINUS_KEY value is never above.  An infinite
# level is the constant sign it gives every finite value (m = 0).
_KeyThreshold = tuple[int, int, int, int]


def _pair(
    f: Function1D, x, y, chord: bool = False
) -> tuple[_Located, _Located, XReal, _KeyThreshold]:
    """``(at_x, at_y, level, thr)`` for the pair x < y of f's domain: both
    ends located in f's index, level = max(f(x), f(y)), and the walk
    threshold in f's integer keys, which is the level or, with ``chord``,
    the chord through (x, f(x)) and (y, f(y))."""
    x, y = as_rational(x), as_rational(y)
    s = f._index
    (sx, i), (sy, j) = s.locate(x), s.locate(y)
    if s.side(sx, i) == -2 or s.side(sy, j) == 2:
        lo, hi = f.domain
        raise OrderingError(f"pair ({x}, {y}) not within domain [{lo}, {hi}]")
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    if not xn * yd < yn * xd:
        raise OrderingError(f"pair needs x < y, got ({x}, {y})")
    at_x, at_y = (x, sx, i), (y, sy, j)
    fx, fy = f._located_value(at_x), f._located_value(at_y)
    level = xreal_max(fx, fy)
    if not chord:
        if not level.is_finite:
            return at_x, at_y, level, ((0, 1, 0, -1) if level.is_plus_infinity else (0, -1, 0, 1))
        q = level.finite_value
        return at_x, at_y, level, (q.denominator, q.numerator * s.scale, 0, 1)
    if not (fx.is_finite and fy.is_finite):
        raise UnsupportedChordError(
            "chord analysis needs finite endpoint values, got "
            f"f(x) = {fx.to_string()}, f(y) = {fy.to_string()}"
        )
    # The chord is (a + b * t) / c; f - chord, where f has the key k at
    # position p / den, times scale * c * den.
    a, b, c = _line(x, y, fx.finite_value, fy.finite_value)
    m, a, b = c * s.den, a * s.scale * s.den, b * s.scale
    g = math.gcd(m, a, b)
    return at_x, at_y, level, (m // g, a // g, b // g, 1)


# ---------------------------------------------------------------------------
# Exact extrema.


def _extremum(
    f: Function1D,
    lo: _Located,
    hi: _Located,
    *,
    lo_closed: bool = False,
    hi_closed: bool = False,
    maximize: bool = True,
) -> tuple[XReal, bool]:
    """The extremum of f between the located ends lo < hi with the given
    end flags, and whether a point of the open interior attains it."""
    i, j = f._span(lo, hi)
    s = f._index
    # Linear pieces attain extrema only at their ends, which the
    # breakpoint values and the end values cover.
    inner = [*s.values[i:j], *(v for v in s.flats[i - 1 : j] if v is not None)]
    # An excluded end on a linear piece still bounds the extremum as an
    # unattained limit; lo lies on piece i - 1 and hi on piece j - 1.
    ends = [
        f._located_value(at)
        for at, closed, k in ((lo, lo_closed, i - 1), (hi, hi_closed, j - 1))
        if closed or s.flats[k] is None
    ]
    pick = max if maximize else min
    best = pick(inner + ends)
    return best, bool(inner) and pick(inner) == best


def infimum_on(
    f: Function1D,
    lo: RationalLike,
    hi: RationalLike,
    *,
    lo_closed: bool = False,
    hi_closed: bool = False,
) -> tuple[XReal, bool]:
    """Exact infimum of f over a subinterval with end flags.

    Returns ``(value, attained_interior)`` where the flag is true iff some
    point of the open interior achieves the infimum.
    """
    require_exact(f, "infimum_on")
    return _extremum(
        f, *_subinterval(f, lo, hi), lo_closed=lo_closed, hi_closed=hi_closed, maximize=False
    )


def supremum_on(
    f: Function1D,
    lo: RationalLike,
    hi: RationalLike,
    *,
    lo_closed: bool = False,
    hi_closed: bool = False,
) -> tuple[XReal, bool]:
    """Exact supremum of f over a subinterval with end flags; the flag is
    true iff some point of the open interior achieves it."""
    require_exact(f, "supremum_on")
    return _extremum(
        f, *_subinterval(f, lo, hi), lo_closed=lo_closed, hi_closed=hi_closed, maximize=True
    )


# ---------------------------------------------------------------------------
# Argmax sets.


@dataclass(frozen=True)
class ClosedSet1D:
    """A finite union of pairwise disjoint closed intervals (points
    allowed), sorted; touching intervals are merged."""

    components: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        comps = tuple(
            (as_rational(l), as_rational(r)) for l, r in self.components
        )
        object.__setattr__(self, "components", comps)
        for l, r in comps:
            if not l <= r:
                raise ParameterRangeError(f"closed interval needs l <= r, got [{l}, {r}]")
        for (_, r0), (l1, _) in zip(comps, comps[1:]):
            if not r0 < l1:
                raise ParameterRangeError("closed components must be disjoint and sorted")

    @classmethod
    def from_parts(cls, parts: Sequence[tuple[Fraction, Fraction]]) -> "ClosedSet1D":
        items = sorted((as_rational(l), as_rational(r)) for l, r in parts)
        merged: list[tuple[Fraction, Fraction]] = []
        for l, r in items:
            if merged and l <= merged[-1][1]:
                if r > merged[-1][1]:
                    merged[-1] = (merged[-1][0], r)
            else:
                merged.append((l, r))
        return cls(tuple(merged))

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    @property
    def is_empty(self) -> bool:
        return not self.components

    def contains(self, t: RationalLike) -> bool:
        t = as_rational(t)
        idx = bisect_left(self.components, t, key=lambda c: c[0])
        if idx < len(self.components) and self.components[idx][0] == t:
            return True
        if idx == 0:
            return False
        l, r = self.components[idx - 1]
        return l <= t <= r

    def min_point(self) -> Fraction:
        if self.is_empty:
            raise SupremumNotAttainedError("empty set has no minimum")
        return self.components[0][0]

    def max_point(self) -> Fraction:
        if self.is_empty:
            raise SupremumNotAttainedError("empty set has no maximum")
        return self.components[-1][1]

    def to_json(self) -> list[dict]:
        return [
            {"l": format_rational(l), "r": format_rational(r)}
            for l, r in self.components
        ]


def argmax_set(
    f: Function1D, x0: RationalLike, y0: RationalLike
) -> tuple[XReal, ClosedSet1D]:
    """Supremum of f over the open interval ]x0, y0[ together with the set
    of points of the closed interval [x0, y0] attaining it.

    The attaining set of an upper-semicontinuous exact model is a finite
    union of closed intervals whenever the interior supremum dominates the
    endpoint values.  If the attaining set fails to be closed (possible
    only when that hypothesis is violated), a precondition error is
    raised rather than returning a set with wrong membership.  The set is
    never empty: the interior supremum is the value of a breakpoint
    inside, of a flat piece or of an end on a linear piece, and
    each of these is a candidate below.
    """
    require_exact(f, "argmax_set")
    lo, hi = _subinterval(f, x0, y0)
    sup, _ = _extremum(f, lo, hi)
    return sup, _attaining_set(f, lo, hi, sup)


def _attaining_set(f: Function1D, lo: _Located, hi: _Located, sup: XReal) -> ClosedSet1D:
    """The points of [lo, hi] where f equals sup, the supremum of f on
    ]lo, hi[, for located ends lo < hi; see ``argmax_set``."""
    i, j = f._span(lo, hi)
    cuts = [lo[0], *f._index.positions[i:j], hi[0]]
    values = [f._located_value(lo), *f._index.values[i:j], f._located_value(hi)]
    parts = [(t, t) for t, v in zip(cuts, values) if v == sup]
    for m in range(len(cuts) - 1):
        flat = f._index.flats[i - 1 + m]
        if flat is None or flat != sup:
            continue
        # f runs into the ends of a linear piece that is flat, so only a
        # jump beside a constant piece can fail here.
        for end, value in ((cuts[m], values[m]), (cuts[m + 1], values[m + 1])):
            if value != sup:
                raise PreconditionError(
                    "argmax set is not closed at "
                    f"{end}; upper semicontinuity of the "
                    "certificate flow is violated there"
                )
        parts.append((cuts[m], cuts[m + 1]))
    return ClosedSet1D.from_parts(parts)


# ---------------------------------------------------------------------------
# Threshold walks on the integer keys.


def _differ(thr: _KeyThreshold):
    """``diff(key, p)``: an int, or a Fraction if key or p is one, with
    the sign of f - threshold at position p / den where f has the key."""
    m, a, b, plus = thr

    def diff(key, p):
        if key is PLUS_KEY:
            return plus
        if key is MINUS_KEY:
            return -1
        # b is 0 for a constant threshold; skipping b * p keeps the
        # difference an int at an end that is not a breakpoint.
        return key * m - a - b * p if b else key * m - a

    return diff


def _diff_at(f: Function1D, at: _Located, thr: _KeyThreshold):
    """``_differ``'s ``diff`` for f's key at a located point.  Inside a
    linear piece (la + lb * t) / lc, at t = tn / td, it is one Fraction:
    times lc * td, the key is (la * td + lb * tn) * scale and the position
    tn * den * lc."""
    t, scaled, i = at
    s = f._index
    key = s.value_keys[i - 1] if s.position_keys[i - 1] == scaled else s.flat_keys[i - 1]
    if key is not None:
        return _differ(thr)(key, scaled)
    m, a, b, _ = thr
    (la, lb, lc), (tn, td) = s.lines[i - 1], t.as_integer_ratio()
    return Fraction((la * td + lb * tn) * s.scale * m - (a * td + b * tn * s.den) * lc, lc * td)


def _sweep(
    f: Function1D, lo: _Located, hi: _Located, thr: _KeyThreshold
) -> Iterator[tuple[Fraction, Optional[Fraction], bool]]:
    """Walk ]lo, hi[ against the threshold on integer keys.

    Yields ``(a, b, above)`` items from left to right: each interior
    breakpoint a once, with b None, and each open piece span ]a, b[ once,
    or as two items split at the root where f crosses the threshold inside
    it.  ``above`` says whether f lies strictly above the threshold at the
    breakpoint or on the whole span.  The ends lo and hi are not items.

    Each difference f - threshold is an integer (a Fraction only at an end
    that is not a breakpoint), and a root is the same Fraction the
    rational difference gives, since the differences of one span share
    one positive scale.
    """
    s = f._index
    den, positions = s.den, s.positions
    keys, value_keys, flat_keys = s.position_keys, s.value_keys, s.flat_keys
    (left, p_left, _), (hi_t, p_hi, _) = lo, hi
    if not p_left < p_hi:
        raise ParameterRangeError("a walk needs lo < hi")
    i, j = f._span(lo, hi)
    diff, sloped = _differ(thr), thr[2] != 0
    d_left = _diff_at(f, lo, thr)  # at the left end of the span
    for n in range(i, j + 1):
        if n < j:
            right, p_right = positions[n], keys[n]
            d_point = diff(value_keys[n], p_right)
        else:
            right, p_right = hi_t, p_hi
            d_point = None
        flat = flat_keys[n - 1]
        if flat is not None:
            dl = diff(flat, p_left)
            dr = diff(flat, p_right) if sloped else dl
        else:
            # A linear piece runs into the values at its ends.
            if d_point is None:
                d_point = _diff_at(f, hi, thr)
            dl, dr = d_left, d_point
        if dl > 0 > dr or dr > 0 > dl:
            # left + (right - left) * dl / (dl - dr), over den.
            root = Fraction(p_right * dl - p_left * dr, (dl - dr) * den)
            yield left, root, dl > 0
            yield root, right, dr > 0
        else:
            yield left, right, dl > 0 or dr > 0
        if n < j:
            yield right, None, d_point > 0
        d_left = d_point
        left, p_left = right, p_right


# ---------------------------------------------------------------------------
# Document serialization.


def _xreal_list(values: Sequence[XReal]) -> list[str]:
    return [v.to_string() for v in values]


def function_to_dict(f: Function1D) -> dict:
    """Serialize an exact or tabulated model to its document form."""
    if isinstance(f, PiecewiseLinear):
        a, b = f.domain
        return {
            "type": "piecewise_linear",
            "domain": [format_rational(a), format_rational(b)],
            "knots": [[format_rational(p), format_rational(v)] for p, v in f.knots],
        }
    if isinstance(f, PiecewiseConstant):
        return {
            "type": "piecewise_constant",
            "breaks": [format_rational(b) for b in f.breaks],
            "piece_values": _xreal_list(f.piece_values),
            "point_values": _xreal_list(f.point_values),
        }
    if isinstance(f, Tabulated):
        return {
            "type": "tabulated",
            "positions": [format_rational(p) for p in f.positions],
            "values": _xreal_list(f.values),
        }
    raise ValidationError("type", f"{type(f).__name__} is not serializable")


def _require_field(doc: dict, name: str):
    if name not in doc:
        raise ValidationError(name, "missing required field")
    return doc[name]


def _parse_list(doc: dict, name: str, parse: Callable[[str, object], object]) -> tuple:
    """The list field ``name`` of doc, its entry i parsed by
    ``parse("name[i]", entry)``."""
    value = _require_field(doc, name)
    if not isinstance(value, list):
        raise ValidationError(name, f"expected a list, got {value!r}")
    return tuple(parse(f"{name}[{i}]", entry) for i, entry in enumerate(value))


def _parse_field(field: str, parse: Callable, value):
    """``parse(value)``, its ParameterRangeError or TypeError raised as a
    ValidationError naming field."""
    try:
        return parse(value)
    except (ParameterRangeError, TypeError) as exc:
        raise ValidationError(field, str(exc)) from exc


def _parse_rational_field(field: str, text) -> Fraction:
    if not isinstance(text, str):
        raise ValidationError(field, f"expected a rational string, got {text!r}")
    return _parse_field(field, as_rational, text)


def _parse_xreal_field(field: str, text) -> XReal:
    if not isinstance(text, str):
        raise ValidationError(field, f"expected a value string, got {text!r}")
    return _parse_field(field, XReal.from_string, text)


def function_from_dict(doc: dict) -> Function1D:
    """Parse and validate a function document.

    Raises :class:`ValidationError` naming the offending field on any
    malformed input.
    """
    if not isinstance(doc, dict):
        raise ValidationError("document", "expected a JSON object")
    kind = _require_field(doc, "type")
    if kind == "piecewise_linear":
        knots_raw = _require_field(doc, "knots")
        if not isinstance(knots_raw, list) or not knots_raw:
            raise ValidationError("knots", "expected a non-empty list")
        knots = []
        for i, entry in enumerate(knots_raw):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValidationError(f"knots[{i}]", "expected a [position, value] pair")
            knots.append(
                (
                    _parse_rational_field(f"knots[{i}][0]", entry[0]),
                    _parse_rational_field(f"knots[{i}][1]", entry[1]),
                )
            )
        f = PiecewiseLinear(tuple(knots))
        if "domain" in doc:
            dom = doc["domain"]
            if (
                not isinstance(dom, list)
                or len(dom) != 2
                or (_parse_rational_field("domain[0]", dom[0]), _parse_rational_field("domain[1]", dom[1])) != f.domain
            ):
                raise ValidationError("domain", "does not match first/last knot positions")
        return f
    if kind == "piecewise_constant":
        return PiecewiseConstant(
            _parse_list(doc, "breaks", _parse_rational_field),
            _parse_list(doc, "piece_values", _parse_xreal_field),
            _parse_list(doc, "point_values", _parse_xreal_field),
        )
    if kind == "cantor":
        depth = _require_field(doc, "depth")
        mode = _require_field(doc, "mode")
        if isinstance(depth, bool) or not isinstance(depth, int):
            raise ValidationError("depth", f"expected an integer, got {depth!r}")
        _parse_field("depth", _check_cantor_depth, depth)
        _parse_field("mode", _check_cantor_mode, mode)
        return generate_cantor(depth, mode)
    if kind == "tabulated":
        return Tabulated(
            _parse_list(doc, "positions", _parse_rational_field),
            _parse_list(doc, "values", _parse_xreal_field),
        )
    raise ValidationError("type", f"unknown function type {kind!r}")
