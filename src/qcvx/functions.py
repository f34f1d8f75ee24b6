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
one structure index, whose integer layout only this module reads: the
extremum and argmax queries, the threshold walk ``_sweep``, which
hands the violation analyses one stream of breakpoint and span items,
the lattice walk ``_evaluate_lattice``, which makes and evaluates
the oracle's grid on integers, and the scans over the whole model behind
``is_quasiconvex`` and the local maxima.
In that layout each breakpoint is its own reduced (n, d) and each value
and piece its own line (a, b, c), so no integer grows with the model,
and two rationals compare by one cross product.  A position is placed
by bisection on those cross products, in the exact models and in
``Tabulated`` alike.

This module also validates every position input, where it was located:
a point in ``_locate``, a pair x < y in ``_pair``, an interval in
``_subinterval`` and the interior point of a local shape in ``_sides``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress, count
from operator import ne
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    Point,
    RationalLike,
    Segment,
    XReal,
    as_rational,
    format_rational,
    segment_point,
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


# The integer layout of an exact model.  A position is its integer ratio
# (n, d) in lowest terms, d > 0.  A value, and f on a piece, is a line
# (a, b, c) without a common factor, standing for (a + b * t) / c with
# c > 0; a constant has b = 0, and +inf and -inf are (1, 0, 0) and
# (-1, 0, 0).  Each integer comes from one position, value or piece, so
# none grows with the model, and two rationals compare by one cross
# product.  A constant's line is in lowest terms, so equal constants have
# equal lines.


def _cross(a: int, c: int, ta: int, tc: int) -> int:
    """An int with the sign of a / c - ta / tc for c, tc >= 0, where a
    zero denominator stands for the infinity of a's sign.  Two infinities
    give the cross product 0 and compare by their signs; two equal finite
    ratios have equal signs, so the second term leaves their 0 alone."""
    return a * tc - ta * c or (a > 0) - (ta > 0)


def _constant(v: XReal) -> tuple[int, int, int]:
    """The line of the constant v."""
    if not v.is_finite:
        return (1 if v.is_plus_infinity else -1), 0, 0
    n, d = v.finite_value.as_integer_ratio()
    return n, 0, d


def _line(p0: tuple[int, int], p1: tuple[int, int], v0: tuple[int, int], v1: tuple[int, int]) -> tuple[int, int, int]:
    """The line through (p0, v0) and (p1, v1), p0 < p1, each an integer
    ratio (n, d) with d > 0, from these four numbers alone, so its
    integers stay as wide as one piece's denominators however many pieces
    the model has."""
    (n0, d0), (n1, d1), (w0, e0), (w1, e1) = p0, p1, v0, v1
    # The ends over d0 * d1 and the values over e0 * e1; the line
    # (v0 * p1 - v1 * p0 + (v1 - v0) * t) / (p1 - p0) times d0 * d1 * e0 * e1.
    s0, s1, w0, w1 = n0 * d1, n1 * d0, w0 * e1, w1 * e0
    a, b, c = w0 * s1 - w1 * s0, (w1 - w0) * d0 * d1, (s1 - s0) * e0 * e1
    g = math.gcd(a, b, c)
    return a // g, b // g, c // g


def _count_below(ratios: Sequence[tuple[int, int]], t: Fraction) -> int:
    """The number of the ascending integer ratios that lie below t, found
    by bisection on cross products."""
    tn, td = t.as_integer_ratio()
    lo, hi = 0, len(ratios)
    while lo < hi:
        mid = (lo + hi) // 2
        n, d = ratios[mid]
        if n * td < tn * d:
            lo = mid + 1
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class _Positions:
    """Strictly increasing positions as integer ratios, each placed by
    ``_count_below``."""

    position_ratios: tuple[tuple[int, int], ...]

    def locate(self, t: Fraction) -> tuple[int, bool]:
        """``(i, on)``: positions[:i] lie at or left of t, and ``on`` says
        whether t is position i - 1."""
        ratios = self.position_ratios
        i = _count_below(ratios, t)
        on = i < len(ratios) and ratios[i] == t.as_integer_ratio()
        return i + on, on

    def side(self, i: int, on: bool) -> int:
        """Where the t located at ``(i, on)`` lies in the domain [a, b]:
        -2 below a, -1 at a, 0 strictly inside, 1 at b, 2 above b."""
        if i == len(self.position_ratios):
            return 1 if on else 2
        return -2 if i == 0 else -1 if i == 1 and on else 0


@dataclass(frozen=True)
class _StructureIndex(_Positions):
    """The structure of an exact model, built once per model by
    ``_build_index``.

    ``positions`` are the sorted breakpoints and ``values`` the values of
    f there.  On the open piece k between positions k and k + 1, f is
    the constant ``flats[k]``, or, where that is None, linear between
    the finite values at the piece ends.
    ``left_cmp[i]`` and ``right_cmp[i]`` compare f(positions[i]) with the
    values of f immediately left and right of it: +1 above them, 0 equal,
    -1 below; 0 at the domain ends, where that side does not exist.

    The same structure in the integer layout: ``position_ratios[i]`` is
    positions[i], ``value_lines[i]`` the constant line of values[i] and
    ``piece_lines[k]`` the line of f on piece k.  ``lsc_at`` holds the
    indices in positions of the lsc offenders.
    """

    positions: tuple[Fraction, ...]
    values: tuple[XReal, ...]
    flats: tuple[Optional[XReal], ...]
    left_cmp: tuple[int, ...]
    right_cmp: tuple[int, ...]
    semicontinuity: SemicontinuityReport
    value_lines: tuple[tuple[int, int, int], ...]
    piece_lines: tuple[tuple[int, int, int], ...]
    lsc_at: tuple[int, ...]


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
    ratios = tuple(p.as_integer_ratio() for p in positions)
    value_lines = tuple(map(_constant, values))

    def ratio(k: int) -> tuple[int, int]:
        return values[k].finite_value.as_integer_ratio()

    piece_lines = tuple(
        _line(ratios[k], ratios[k + 1], ratio(k), ratio(k + 1)) if flat is None else _constant(flat)
        for k, flat in enumerate(flats)
    )
    pieces = list(zip(value_lines, value_lines[1:], piece_lines))
    # A linear piece (b != 0) runs into the values at its ends.
    left = (0, *(_cmp(v1, v0 if line[1] else line) for v0, v1, line in pieces))
    right = (*(_cmp(v0, v1 if line[1] else line) for v0, v1, line in pieces), 0)
    # The side comparisons beside constant pieces, where f can jump.
    jumps = list(
        zip(
            (0, *(l if c is not None else 0 for l, c in zip(left[1:], flats))),
            (*(r if c is not None else 0 for r, c in zip(right, flats)), 0),
        )
    )
    lsc_at = tuple(k for k, (l, r) in enumerate(jumps) if l > 0 or r > 0)
    bad_usc = tuple(positions[k] for k, (l, r) in enumerate(jumps) if l < 0 or r < 0)
    bad_lsc = tuple(positions[k] for k in lsc_at)
    return _StructureIndex(
        position_ratios=ratios, positions=positions, values=values, flats=flats,
        left_cmp=left, right_cmp=right,
        semicontinuity=SemicontinuityReport(not bad_lsc, not bad_usc, bad_lsc, bad_usc),
        value_lines=value_lines, piece_lines=piece_lines, lsc_at=lsc_at,
    )


def _cmp(u: tuple[int, int, int], v: tuple[int, int, int]) -> int:
    """Compare the constants u and v: -1, 0 or 1."""
    d = _cross(u[0], u[2], v[0], v[2])
    return (d > 0) - (d < 0)


# A position t located in an index: (t, i, on), see ``_Positions.locate``.
_Located = tuple[Fraction, int, bool]


class _Indexed(Function1D):
    """Point evaluation for a model whose positions ``_index`` places: a
    point costs one bisection, and a sorted run of points one walk."""

    def _located_value(self, at: _Located) -> XReal:
        raise NotImplementedError

    def _locate(self, t: Fraction) -> _Located:
        """Locate a t that must lie in the domain."""
        s = self._index
        i, on = s.locate(t)
        if abs(s.side(i, on)) == 2:
            self._check_domain(t)
        return t, i, on

    def evaluate(self, t: RationalLike) -> XReal:
        return self._located_value(self._locate(as_rational(t)))

    def evaluate_sorted(self, ts: Sequence[RationalLike]) -> list[XReal]:
        return [self._located_value(at) for at in self._walk(ts)]

    def _walk(self, ts: Sequence[RationalLike]) -> Iterator[_Located]:
        """Each of the ascending ts located.  ``_locate`` places ``ts[0]``;
        after it the walk only moves forward and compares integer cross
        products, so its Fraction work grows with neither ``len(ts)`` nor
        the model.  The first t outside the domain raises the DomainError
        that ``evaluate`` raises."""
        if not ts:
            return
        ratios = self._index.position_ratios
        first, i, on = self._locate(as_rational(ts[0]))
        i -= on  # ratios[i] is the first position at or right of ts[0]
        last = len(ratios) - 1
        pn, pd = ratios[i]
        prev_n, prev_d = first.as_integer_ratio()
        for t in ts:
            t = as_rational(t)
            tn, td = t.as_integer_ratio()
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
                pn, pd = ratios[i]
            # Both ratios are in lowest terms, so equal values have equal parts.
            on = pn == tn and pd == td
            yield t, i + on, on


class _ExactModel(_Indexed):
    """Point evaluation and interval lookups over the structure index; each
    lookup bisects the position ratios, so a query on ]lo, hi[ costs
    O(log n + k) for the k breakpoints inside."""

    is_exact = True

    def _inside(self, k: int, t: Fraction) -> XReal:
        """f(t) for t strictly inside piece k."""
        s = self._index
        flat = s.flats[k]
        if flat is not None:
            return flat
        a, b, c = s.piece_lines[k]
        tn, td = t.as_integer_ratio()
        return XReal(Fraction(a * td + b * tn, c * td))

    def _located_value(self, at: _Located) -> XReal:
        t, i, on = at
        return self._index.values[i - 1] if on else self._inside(i - 1, t)

    def _evaluate_lattice(
        self, lo: Fraction, lattice: tuple[int, int, int], n: int, extras: Sequence[tuple[int, int, int, int]]
    ) -> tuple[list[tuple[int, int, int, int]], list]:
        """The n points of a uniform lattice from lo, with ascending extra
        points merged in, located and evaluated in one forward pass on
        integers: the merged positions as runs ``(index, first, step, d)``,
        point index + t being (first + step * t) / d, and keys that order
        as f does at the points.

        With ``(den, start, stride) = lattice``, lattice point j is
        (start + stride * j) / den, point 0 being lo.  An extra
        ``(q, r, pn, pd)`` is the integer ratio pn / pd, r / (stride * pd)
        of a step past lattice point q, so that point itself where r is 0.
        The extras hold every breakpoint from lo to the last lattice point
        and lie in the domain.  A finite key is f times one common multiple
        of the denominators of f on the merge; -inf and +inf are the float
        infinities.  Within a piece the lattice points' keys step by a
        constant, so each run of them is one ``range`` made from the
        piece's line; a breakpoint takes its key from its value, on a
        lattice point too.  The positions stay runs, as a common
        denominator of them all would grow with the breakpoints'
        denominators.  Points beyond the domain raise the DomainError of
        ``evaluate_sorted``, naming the first of them.
        """
        den, start, stride = lattice
        s = self._index
        ratios, values, pieces = s.position_ratios, s.value_lines, s.piece_lines
        _, i, on = self._locate(lo)
        i -= on  # ratios[i] is the first breakpoint at or right of lo
        # Each run is (first numerator, step, count, denominator, line): its
        # t-th point is (first + step * t) / denominator; an extra is a run
        # of one.
        runs: list[tuple[int, int, int, int, tuple[int, int, int]]] = []
        scales = set()  # a common multiple of these scales every finite value

        def add(first: int, step: int, count: int, d: int, line: tuple[int, int, int]) -> None:
            runs.append((first, step, count, d, line))
            a, b, c = line
            if c:
                scales.add(c * d if b else c)

        def lattice_run(j: int, stop: int) -> None:
            if i == len(ratios):
                self._check_domain(Fraction(start + stride * j, den))
            add(start + stride * j, stride, stop - j, den, pieces[i - 1])

        j = 0
        for q, r, pn, pd in extras:
            stop = q + 1 if r else q  # lattice point q is the extra where r is 0
            if j < stop:
                lattice_run(j, stop)
            bn, bd = ratios[i]
            if pn * bd == bn * pd:
                line = values[i]
                i += 1
            else:
                line = pieces[i - 1]
            add(pn, 1, 1, pd, line)
            j = q + 1
        if j < n:
            lattice_run(j, n)
        scale = math.lcm(*scales)
        positions, keys = [], []
        for first, step, count, d, (a, b, c) in runs:
            positions.append((len(keys), first, step, d))
            if not c:
                keys += [math.inf if a > 0 else -math.inf] * count
            elif b:
                m = scale // (c * d)
                key, key_step = (a * d + b * first) * m, b * step * m
                keys += range(key, key + key_step * count, key_step)
            else:
                keys += [a * (scale // c)] * count
        return positions, keys

    def breakpoints(self) -> tuple[Fraction, ...]:
        return self._index.positions

    def _span(self, lo: _Located, hi: _Located) -> tuple[int, int]:
        """``(i, j)`` for located lo < hi: positions[i:j] are the breakpoints
        strictly inside ]lo, hi[, so lo lies in piece i - 1 or on its left
        end and hi in piece j - 1 or on its right end."""
        return lo[1], hi[1] - hi[2]

    def _sides(self, t: RationalLike) -> tuple[int, int, Fraction]:
        """``(left, right, radius)`` for t strictly inside the domain: left
        and right compare f(t) with the values of f immediately left and
        right of t (+1 above them, 0 equal, -1 below), and radius is the
        distance from t to the nearest other breakpoint, so that each of
        ]t - radius, t[ and ]t, t + radius[ lies inside one piece.  A t
        that is not interior raises InteriorRequiredError."""
        t = as_rational(t)
        s = self._index
        i, on = s.locate(t)
        if s.side(i, on) != 0:
            a, b = self.domain
            raise InteriorRequiredError(f"{t} is not interior to [{a}, {b}]")
        positions = s.positions
        if on:
            k = i - 1
            left, right = s.left_cmp[k], s.right_cmp[k]
            below, above = positions[k - 1], positions[k + 1]
        else:
            # Inside piece i - 1, f is constant or strictly monotone with
            # the direction of its right end's left comparison.
            rise = 0 if s.flats[i - 1] is not None else s.left_cmp[i]
            left, right = rise, -rise
            below, above = positions[i - 1], positions[i]
        return left, right, min(t - below, above - t)


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
class Tabulated(_Indexed):
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

    @cached_property
    def _index(self) -> _Positions:
        return _Positions(tuple(p.as_integer_ratio() for p in self.positions))

    def _located_value(self, at: _Located) -> XReal:
        t, i, on = at
        if not on:
            raise NoSampleError(f"{t} is not a sample position")
        return self.values[i - 1]

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
        try:
            return XReal.coerce(self._callback(t))
        except ParameterRangeError as exc:
            raise ParameterRangeError(f"black box at t = {t}: {exc}") from exc

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
    """The lsc offenders of f's audit in [lo, hi], for located ends,
    found by bisecting their indices in the structure index."""
    offenders, at = check_semicontinuity(f).offending_points_lsc, f._index.lsc_at
    # positions[lo[1] - lo[2]:hi[1]] are the breakpoints in [lo, hi].
    return offenders[bisect_left(at, lo[1] - lo[2]) : bisect_left(at, hi[1])]


# ---------------------------------------------------------------------------
# Cantor approximant generators.


def _cantor_components(depth: int) -> list[int]:
    """The left ends l of the depth-k intervals [l, l + 1] over 3**depth,
    ascending: each interval keeps its first and last thirds."""
    lefts = [0]
    for _ in range(depth):
        lefts = [e for l in lefts for e in (3 * l, 3 * l + 2)]
    return lefts


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
    den = 3**depth
    breaks = tuple(Fraction(e, den) for l in _cantor_components(depth) for e in (l, l + 1))
    one, zero = XReal(1), XReal(0)
    inside, outside = (one, zero) if mode == "set" else (zero, one)
    # Even-indexed gaps are interiors of retained intervals.
    pieces = (inside, outside) * (len(breaks) // 2 - 1) + (inside,)
    f = PiecewiseConstant(breaks, pieces, (inside,) * len(breaks))
    if mode == "complement":
        removed = sum(1 for v in f.piece_values if v == one)
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
    (i, lo_on), (j, hi_on) = s.locate(lo), s.locate(hi)
    if s.side(i, lo_on) == -2 or s.side(j, hi_on) == 2:
        a, b = f.domain
        raise DomainError(f"[{lo}, {hi}] not within domain [{a}, {b}]")
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    if not ln * hd < hn * ld:
        raise ParameterRangeError("interval needs nonempty interior (lo < hi)")
    return (lo, i, lo_on), (hi, j, hi_on)


# The threshold of a walk, as a line (a, b, c) of the integer layout: the
# constant level max(f(x), f(y)), possibly infinite, or the chord.
_Threshold = tuple[int, int, int]


def _excess_at(f: Function1D, at: _Located, thr: _Threshold) -> int:
    """An int with the sign of f - threshold at a located point t.

    There f is on a line (a, b, c): its value's at a breakpoint, its
    piece's inside one.  f - threshold has the sign of A + B * t, with A
    the ``_cross`` of a / c and ta / tc and B = b * tc - tb * c: both
    finite, the difference is (A + B * t) / (c * tc), and an infinite
    side makes B = 0."""
    t, i, on = at
    s = f._index
    a, b, c = (s.value_lines if on else s.piece_lines)[i - 1]
    ta, tb, tc = thr
    tn, td = t.as_integer_ratio()
    return _cross(a, c, ta, tc) * td + (b * tc - tb * c) * tn


def _pair(f: Function1D, x, y) -> tuple[_Located, _Located, XReal, _Threshold]:
    """``(at_x, at_y, level, thr)`` for the pair x < y of f's domain: both
    ends located in f's index, level = max(f(x), f(y)), and the level as
    a walk threshold; ``_chord`` makes the chord's from the located ends."""
    x, y = as_rational(x), as_rational(y)
    s = f._index
    (i, x_on), (j, y_on) = s.locate(x), s.locate(y)
    if s.side(i, x_on) == -2 or s.side(j, y_on) == 2:
        lo, hi = f.domain
        raise OrderingError(f"pair ({x}, {y}) not within domain [{lo}, {hi}]")
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    if not xn * yd < yn * xd:
        raise OrderingError(f"pair needs x < y, got ({x}, {y})")
    at_x, at_y = (x, i, x_on), (y, j, y_on)
    # f(x) and f(y) as integer ratios, compared by one cross product.
    fx, fy = _value_ratio(s, at_x), _value_ratio(s, at_y)
    level = f._located_value(at_x if _cross(*fx, *fy) >= 0 else at_y)
    return at_x, at_y, level, _constant(level)


def _value_ratio(s: _StructureIndex, at: _Located) -> tuple[int, int]:
    """f at a located point as an integer ratio (n, d), d >= 0, where d = 0
    stands for the infinity of n's sign."""
    t, i, on = at
    a, b, c = (s.value_lines if on else s.piece_lines)[i - 1]
    tn, td = t.as_integer_ratio()
    return a * td + b * tn, c * td


def _chord(f: Function1D, at_x: _Located, at_y: _Located) -> _Threshold:
    """The walk threshold of the chord through (x, f(x)) and (y, f(y)),
    for the ends of a pair that ``_pair`` has located and checked."""
    s = f._index
    (vx, wx), (vy, wy) = _value_ratio(s, at_x), _value_ratio(s, at_y)
    if not (wx and wy):
        fx, fy = f._located_value(at_x), f._located_value(at_y)
        raise UnsupportedChordError(
            "chord analysis needs finite endpoint values, got "
            f"f(x) = {fx.to_string()}, f(y) = {fy.to_string()}"
        )
    return _line(at_x[0].as_integer_ratio(), at_y[0].as_integer_ratio(), (vx, wx), (vy, wy))


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
    end flags, and whether a point of the open interior attains it.

    The candidates are compared as integer ratios by ``_cross``, and each
    distinct value once: equal constants have equal lines."""
    i, j = f._span(lo, hi)
    s = f._index
    pick = 1 if maximize else -1
    # Linear pieces attain extrema only at their ends, which the
    # breakpoint values and the end values cover; their flat is None.
    inner = dict(zip(s.value_lines[i:j], s.values[i:j]))
    inner.update(zip(s.piece_lines[i - 1 : j], s.flats[i - 1 : j]))
    best = best_value = None
    for (a, _, c), value in inner.items():
        if value is not None and (best is None or _cross(a, c, *best) * pick > 0):
            best, best_value = (a, c), value
    attained = best is not None
    # An excluded end on a linear piece still bounds the extremum as an
    # unattained limit; lo lies on piece i - 1 and hi on piece j - 1.
    for at, closed, k in ((lo, lo_closed, i - 1), (hi, hi_closed, j - 1)):
        if closed or s.flats[k] is None:
            end = _value_ratio(s, at)
            if best is None or _cross(*end, *best) * pick > 0:
                best, best_value, attained = end, f._located_value(at), False
    return best_value, attained


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

    @classmethod
    def _sorted(cls, parts: list[tuple[Fraction, Fraction]]) -> "ClosedSet1D":
        """The set of ``parts``, which must already be sorted, disjoint and
        apart; made without the checks of the constructor."""
        closed = object.__new__(cls)
        object.__setattr__(closed, "components", tuple(parts))
        return closed

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
    ]lo, hi[, for located ends lo < hi; see ``argmax_set``.

    A breakpoint's value and a piece equal sup where their line is sup's
    line, and an end's value where the cross product of its ratio with
    sup's is 0.  Point m of the cuts and piece m after it are walked in
    order, so the components come out sorted and apart, and are made
    unchecked."""
    i, j = f._span(lo, hi)
    s = f._index
    level = _constant(sup)
    a, _, c = level
    cuts = [lo[0], *s.positions[i:j], hi[0]]
    on = [
        _cross(*_value_ratio(s, lo), a, c) == 0,
        *(line == level for line in s.value_lines[i:j]),
        _cross(*_value_ratio(s, hi), a, c) == 0,
    ]
    flat = [line == level for line in s.piece_lines[i - 1 : j]]
    parts: list[tuple[Fraction, Fraction]] = []
    for m, t in enumerate(cuts):
        if m and flat[m - 1]:
            # f runs into the ends of a linear piece that is flat, so only
            # a jump beside a constant piece can fail here.
            for k in (m - 1, m):
                if not on[k]:
                    raise PreconditionError(
                        "argmax set is not closed at "
                        f"{cuts[k]}; upper semicontinuity of the "
                        "certificate flow is violated there"
                    )
            parts[-1] = (parts[-1][0], t)
        elif on[m]:
            parts.append((t, t))
    return ClosedSet1D._sorted(parts)


# ---------------------------------------------------------------------------
# Model-wide scans on the integer layout.


def _quasiconvex_witness(f: Function1D) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """The violating triple (x, y, z) that ``is_quasiconvex`` reports for
    an exact model, or None where there is none.

    Candidate 2k is breakpoint k and candidate 2k + 1 the midpoint of
    piece k.  Their values are integer ratios compared by ``_cross``: a
    breakpoint's and a flat piece's are their lines, and a linear piece's
    midpoint value is the mean of its end values, so no midpoint is made
    unless it is in the witness.  z is the first candidate with a smaller
    value on each side, x the leftmost least value before it and y the
    rightmost least value after it."""
    s = f._index
    ends = s.value_lines
    values = [(ends[0][0], ends[0][2])]
    for (a0, _, c0), (a, b, c), (a1, _, c1) in zip(ends, s.piece_lines, ends[1:]):
        values.append((a0 * c1 + a1 * c0, 2 * c0 * c1) if b else (a, c))
        values.append((a1, c1))
    n = len(values)
    low = [n - 1] * n  # low[k]: the rightmost least value of values[k:]
    for k in range(n - 2, -1, -1):
        m = low[k + 1]
        low[k] = k if _cross(*values[k], *values[m]) < 0 else m
    left = 0  # the leftmost least value of values[:k]
    for k in range(1, n - 1):
        vn, vd = values[k]
        above_left = _cross(vn, vd, *values[left])
        if above_left > 0 and _cross(vn, vd, *values[low[k + 1]]) > 0:
            return _candidate(s, left), _candidate(s, low[k + 1]), _candidate(s, k)
        if above_left < 0:
            left = k
    return None


def _candidate(s: _StructureIndex, k: int) -> Fraction:
    """Candidate k of ``_quasiconvex_witness``: breakpoint k / 2 or the
    midpoint of piece (k - 1) / 2."""
    i, mid = divmod(k, 2)
    return (s.positions[i] + s.positions[i + 1]) / 2 if mid else s.positions[i]


class _Region(NamedTuple):
    """A region of interior local-maximum points: it spans
    positions[lo:hi + 1], its closed flags say whether it holds its edge
    positions, and a side is strict where f lies strictly below the
    region's value just outside a closed edge."""

    lo: int
    hi: int
    left_closed: bool
    right_closed: bool
    strict_left: bool
    strict_right: bool


def _maxima_regions(f: Function1D) -> Iterator[_Region]:
    """Each region of interior local-maximum points of an exact model.

    The atoms are breakpoint 0, the open piece after it, breakpoint 1, and
    so on.  An atom can carry local maxima only if it weakly dominates its
    immediate neighbors, which the structure index's side comparisons
    say; a piece that is not flat rises or falls, so it never dominates.
    A region is a maximal chain of dominating atoms.  Two neighboring
    atoms that both dominate are each at least the other, so a chain has
    one value and no value is compared; a lone breakpoint at a domain end
    is a boundary extremum, not a region.
    """
    s = f._index
    left, right = s.left_cmp, s.right_cmp
    last = len(left) - 1
    dominating = [False] * (2 * last + 3)  # atom t at t + 1, between two Falses
    dominating[1::2] = [l >= 0 and r >= 0 for l, r in zip(left, right)]
    dominating[2:-1:2] = [r <= 0 and l <= 0 for r, l in zip(right, left[1:])]
    # Where dominating[t] != dominating[t + 1]: a chain's first atom t and
    # the atom t after its last, alternately.
    edges = list(compress(count(), map(ne, dominating, dominating[1:])))
    for t, stop in zip(edges[::2], edges[1::2]):
        # Chain atoms t..stop - 1 span positions[lo:hi + 1]; even atoms
        # are points.
        lo, hi = t // 2, stop // 2
        if lo == hi and lo in (0, last):
            continue
        left_closed, right_closed = t % 2 == 0, stop % 2 == 1
        yield _Region(lo, hi, left_closed, right_closed, left_closed and left[lo] > 0, right_closed and right[hi] > 0)


def _nearest_gap(f: Function1D, lo: int, hi: int) -> Fraction:
    """The distance from positions[lo:hi + 1] to the nearest other
    breakpoint, or half the domain where there is none; the gaps are
    compared as integer ratios."""
    ratios = f._index.position_ratios
    last = len(ratios) - 1
    if 0 < lo and hi < last:
        below, above = _gap(ratios, lo - 1, lo), _gap(ratios, hi, hi + 1)
        n, d = above if _cross(*above, *below) < 0 else below
    elif lo or hi < last:
        n, d = _gap(ratios, lo - 1, lo) if lo else _gap(ratios, hi, hi + 1)
    else:
        n, d = _gap(ratios, 0, last)
        d *= 2
    return Fraction(n, d)


def _gap(ratios: Sequence[tuple[int, int]], k: int, m: int) -> tuple[int, int]:
    """positions[m] - positions[k] as an integer ratio with a positive
    denominator."""
    (n0, d0), (n1, d1) = ratios[k], ratios[m]
    return n1 * d0 - n0 * d1, d0 * d1


# ---------------------------------------------------------------------------
# The threshold walk on the integer layout.


def _sweep(
    f: Function1D, lo: _Located, hi: _Located, thr: _Threshold
) -> Iterator[tuple[Fraction, Optional[Fraction], bool]]:
    """Walk ]lo, hi[ against the threshold on the integer layout.

    Yields ``(a, b, above)`` items from left to right: each interior
    breakpoint a once, with b None, and each open piece span ]a, b[ once,
    or as two items split at the root where f crosses the threshold inside
    it.  ``above`` says whether f lies strictly above the threshold at the
    breakpoint or on the whole span.  The ends lo and hi are not items.

    The sign of f - threshold at a breakpoint, or on a constant piece, is
    worked out here as in ``_excess_at``; against the constant level it
    is one cross product.  A linear piece runs into the values at its
    ends, so it takes their signs, and only where they differ is its own
    line needed: the root of A + B * t is the one Fraction -A / B.
    """
    s = f._index
    ta, tb, tc = thr
    left, hi_t = lo[0], hi[0]
    (ln, ld), (hn, hd) = left.as_integer_ratio(), hi_t.as_integer_ratio()
    if not ln * hd < hn * ld:
        raise ParameterRangeError("a walk needs lo < hi")
    i, j = f._span(lo, hi)
    rights = [*zip(s.positions[i:j], s.position_ratios[i:j], s.value_lines[i:j]), (hi_t, (hn, hd), None)]
    d_left = None  # at the breakpoint left of the piece; None at lo
    for (a, b, c), (right, (rn, rd), point) in zip(s.piece_lines[i - 1 : j], rights):
        if point is not None:
            pa, _, pc = point
            d_point = pa * tc - ta * pc or (pa > 0) - (ta > 0)
            if tb:
                d_point = d_point * rd - tb * pc * rn
        if b:
            dl = _excess_at(f, lo, thr) if d_left is None else d_left
            dr = _excess_at(f, hi, thr) if point is None else d_point
        else:
            dl = dr = a * tc - ta * c or (a > 0) - (ta > 0)
            if tb:
                dl, dr = dl * ld - tb * c * ln, dr * rd - tb * c * rn
        if dl > 0 > dr or dr > 0 > dl:
            root = Fraction(ta * c - a * tc, b * tc - tb * c)
            yield left, root, dl > 0
            yield root, right, dr > 0
        else:
            yield left, right, dl > 0 or dr > 0
        if point is not None:
            yield right, None, d_point > 0
            d_left = d_point
        left, ln, ld = right, rn, rd


# ---------------------------------------------------------------------------
# Document serialization.


def function_to_dict(f: Function1D, *, max_list: Optional[int] = None) -> dict:
    """Serialize an exact or tabulated model to its document form.  With
    ``max_list``, a list of more entries is given as the text
    "(N entries)", unformatted, as a report's summary shows it."""

    def listed(items: Sequence, text: Callable) -> list | str:
        if max_list is not None and len(items) > max_list:
            return f"({len(items)} entries)"
        return [text(item) for item in items]

    if isinstance(f, PiecewiseLinear):
        a, b = f.domain
        return {
            "type": "piecewise_linear",
            "domain": [format_rational(a), format_rational(b)],
            "knots": listed(f.knots, lambda knot: [format_rational(knot[0]), format_rational(knot[1])]),
        }
    if isinstance(f, PiecewiseConstant):
        return {
            "type": "piecewise_constant",
            "breaks": listed(f.breaks, format_rational),
            "piece_values": listed(f.piece_values, XReal.to_string),
            "point_values": listed(f.point_values, XReal.to_string),
        }
    if isinstance(f, Tabulated):
        return {
            "type": "tabulated",
            "positions": listed(f.positions, format_rational),
            "values": listed(f.values, XReal.to_string),
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
