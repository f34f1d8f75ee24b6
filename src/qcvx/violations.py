"""Exact quasiconvexity violation analysis.

For f on [a, b] and a pair x < y, the violation set is

    { z in ]x, y[ : f(z) > max(f(x), f(y)) }.

For a lower-semicontinuous f this set is open and decomposes into
pairwise disjoint maximal open intervals whose endpoints satisfy
f <= max(f(x), f(y)) while every interior value stays strictly above it.
The exact piecewise models always yield a finite family, computed here in
closed form by sign analysis against the threshold.  The same machinery
runs against the chord through (x, f(x)) and (y, f(y)) to produce the
convexity violation set, and behind the component checks and interior
witnesses.

Every entry point starts from one pair: ``functions._pair`` validates
it, locates its ends in the model's structure index, picks the level
max(f(x), f(y)) by one cross product and turns it into one integer
line, as ``functions._chord`` turns the chord.  The pair check and the
threshold walk, ``functions._sweep``, live beside the index whose
integer layout they read; the walk yields one item stream, each interior
breakpoint and each piece span (split where f crosses the threshold)
with whether it lies above; ``functions._excess_at`` asks the same of
one point.  This module only consumes that stream: the violation and
chord sets join it into maximal runs, and the component checks and the
interior witness stop at its first item not above.  A component check
rejects a component outside the pair, ]x, y[ in positions or ]0, 1[ in
chord parameters.

``analyze_pairs`` answers all four questions for a list of pairs, as
``qcvx analyze`` asks them.  A violation set is the set above the
pair's level, and a chord set the set above its chord line, each cut to
the pair; the pairs of n breakpoints have at most n levels, and a pair
with f(x) = f(y) has its level for its chord.  The pairs on one line take
their parts of it from one walk, from the leftmost pair end on the line
to the rightmost.  ``qcvx analyze`` writes each pair's report record as
text rendered from the same walks (``_record_text``), the text of
``PairAnalysis.to_json()`` byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence

from .core import (
    RationalLike,
    XReal,
    _decimal,
    _past_digit_limit,
    _ratio_decimal,
    _ratio_text,
    as_rational,
    format_rational,
)
from .errors import ConsistencyError, ParameterRangeError, UnsupportedChordError
from .functions import (
    Function1D,
    _chord,
    _count_below,
    _excess_at,
    _Located,
    _lsc_offenders_in,
    _pair,
    _sweep,
    _Threshold,
    require_exact,
)
from .intervals import OpenInterval, OpenIntervalSet, _ratio_sum


def _above_set(
    f: Function1D,
    lo: _Located,
    hi: _Located,
    thr: _Threshold,
) -> tuple[list[tuple[Fraction, Fraction]], list[Fraction]]:
    """The set {z in ]lo, hi[ : f(z) > threshold(z)} as the ends of its
    maximal open intervals, in order, plus the breakpoints that belong to
    the set without being interior to it (possible only when f is not
    lower semicontinuous).  A run of spans above the threshold joins
    across a breakpoint only when that breakpoint is above it too."""
    runs: list[tuple[Fraction, Fraction]] = []
    isolated: list[Fraction] = []
    start = None  # left end of the run that reaches the current item
    cut_above = False  # whether the item just before, a breakpoint, is above
    for a, b, above in _sweep(f, lo, hi, thr):
        if b is None:
            cut_above = above
            continue
        if not (start is not None and cut_above and above):
            if start is not None:
                runs.append((start, a))
                start = None
            if cut_above:
                isolated.append(a)
        if above and start is None:
            start = a
        cut_above = False
    if start is not None:
        runs.append((start, hi[0]))
    return runs, isolated


@dataclass(frozen=True)
class ViolationDecomposition:
    """The violation set of one pair, decomposed into maximal open
    intervals.

    ``isolated_violations`` lists breakpoints whose value exceeds the
    threshold without being interior to the open union; any such point
    witnesses a lower-semicontinuity failure.  ``lsc_offenders`` carries
    the semicontinuity audit restricted to [x, y] (a warning, not an
    error: the raw set stays well defined without lsc).
    """

    x: Fraction
    y: Fraction
    threshold: XReal
    components: OpenIntervalSet
    isolated_violations: tuple[Fraction, ...] = ()
    lsc_offenders: tuple[Fraction, ...] = ()

    @cached_property
    def _total_length(self) -> Fraction:
        # Summed once for a report's exact and decimal forms.
        return self.components.total_length()

    def to_json(self) -> dict:
        return {
            "x": format_rational(self.x),
            "y": format_rational(self.y),
            "threshold": self.threshold.to_string(),
            "components": self.components.to_json(),
            "component_count": len(self.components),
            "total_length": format_rational(self._total_length),
            "isolated_violations": [format_rational(p) for p in self.isolated_violations],
            "lsc_offenders": [format_rational(p) for p in self.lsc_offenders],
        }


def violation_set(f: Function1D, x: RationalLike, y: RationalLike) -> ViolationDecomposition:
    """Exact decomposition of {z in ]x, y[ : f(z) > max(f(x), f(y))}.

    Each returned interval is maximal: it cannot be enlarged within
    ]x, y[ while staying inside the set (checked; a failure raises
    :class:`ConsistencyError`).
    """
    require_exact(f, "violation_set")
    at_x, at_y, level, thr = _pair(f, x, y)
    runs, isolated = _above_set(f, at_x, at_y, thr)
    interval_set = OpenIntervalSet._from_runs(runs)
    _check_maximal(f, interval_set, thr)
    return ViolationDecomposition(
        x=at_x[0],
        y=at_y[0],
        threshold=level,
        components=interval_set,
        isolated_violations=tuple(isolated),
        lsc_offenders=_lsc_offenders_in(f, at_x, at_y),
    )


def _check_maximal(f: Function1D, components: OpenIntervalSet, thr: _Threshold) -> None:
    # Components sharing an endpoint must be separated by a point at or
    # below the threshold, otherwise they should have merged.
    for prev, iv in zip(components.intervals, components.intervals[1:]):
        if prev.right == iv.left and _excess_at(f, f._locate(iv.left), thr) > 0:
            raise ConsistencyError(f"components touching at {iv.left} failed to merge")


@dataclass(frozen=True)
class ComponentCheck:
    """Verification of one decomposition interval ]u, v[:

    * ``endpoints_outside``: f(u) and f(v) do not exceed the threshold,
      so neither endpoint belongs to the violation set.
    * ``interior_strict``: every interior point stays strictly above the
      threshold.

    Both must hold for a decomposition of a lower-semicontinuous
    function; a failure carries the offending point.
    """

    endpoints_outside: bool
    interior_strict: bool
    failing_point: Optional[Fraction] = None

    @property
    def passed(self) -> bool:
        return self.endpoints_outside and self.interior_strict

    def to_json(self) -> dict:
        out = {
            "endpoints_outside": self.endpoints_outside,
            "interior_strict": self.interior_strict,
        }
        if self.failing_point is not None:
            out["failing_point"] = format_rational(self.failing_point)
        return out


def _component_checks(
    f: Function1D,
    spans: Iterable[tuple[Fraction, Fraction]],
    thr: _Threshold,
) -> list[ComponentCheck]:
    """Check each span ]u, v[ against the threshold: neither end lies
    above it and every interior point lies strictly above it.  The spans
    come in ascending order, so one forward walk locates all their ends."""
    checks: list[ComponentCheck] = []
    ends = f._walk([t for span in spans for t in span])
    for at_u, at_v in zip(ends, ends):
        u, v = at_u[0], at_v[0]
        endpoint_bad = u if _excess_at(f, at_u, thr) > 0 else v if _excess_at(f, at_v, thr) > 0 else None
        probe = _first_not_above(f, at_u, at_v, thr)
        checks.append(
            ComponentCheck(
                endpoints_outside=endpoint_bad is None,
                interior_strict=probe is None,
                failing_point=endpoint_bad if endpoint_bad is not None else probe,
            )
        )
    return checks


def _first_not_above(
    f: Function1D, lo: _Located, hi: _Located, thr: _Threshold
) -> Optional[Fraction]:
    """The first point of ]lo, hi[ found where f <= threshold, if any: an
    interior breakpoint, or the midpoint of the span or span part that
    lies at or below the threshold."""
    for a, b, above in _sweep(f, lo, hi, thr):
        if not above:
            return a if b is None else (a + b) / 2
    return None


def _require_within(components: OpenIntervalSet, lo: Fraction, hi: Fraction) -> None:
    """Raise ConsistencyError naming the first component not within ]lo, hi[."""
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    for iv in components:
        (un, ud), (vn, vd) = iv.left.as_integer_ratio(), iv.right.as_integer_ratio()
        if not (ln * ud <= un * ld and vn * hd <= hn * vd):
            raise ConsistencyError(f"component {iv} not within ]{lo}, {hi}[")


def verify_component_property(
    f: Function1D, decomposition: ViolationDecomposition
) -> list[ComponentCheck]:
    """Check every decomposition interval against the two structural
    properties that hold under lower semicontinuity.

    A structurally inconsistent decomposition (stale function, pair
    outside the domain, threshold mismatch) raises
    :class:`ConsistencyError`; a merely wrong one returns failing checks.
    """
    require_exact(f, "verify_component_property")
    at_x, at_y, level, thr = _pair(f, decomposition.x, decomposition.y)
    x, y = at_x[0], at_y[0]
    if decomposition.threshold != level:
        raise ConsistencyError(
            f"threshold {decomposition.threshold.to_string()} does not match "
            f"max(f(x), f(y)) = {level.to_string()}"
        )
    _require_within(decomposition.components, x, y)
    return _component_checks(
        f,
        ((iv.left, iv.right) for iv in decomposition.components),
        thr,
    )


@dataclass(frozen=True)
class QuasiconvexityVerdict:
    """Outcome of the exact quasiconvexity decision; a negative verdict
    carries a violating triple x < z < y with f(z) > max(f(x), f(y))."""

    is_quasiconvex: bool
    witness: Optional[tuple[Fraction, Fraction, Fraction]] = None

    def to_json(self, f: Optional[Function1D] = None) -> dict:
        out: dict = {"is_quasiconvex": self.is_quasiconvex}
        if self.witness is not None:
            x, y, z = self.witness
            out["witness"] = {
                "x": format_rational(x),
                "y": format_rational(y),
                "z": format_rational(z),
            }
            if f is not None:
                out["witness"]["values"] = {
                    "f_x": f.evaluate(x).to_string(),
                    "f_y": f.evaluate(y).to_string(),
                    "f_z": f.evaluate(z).to_string(),
                }
        return out


def is_quasiconvex(f: Function1D) -> QuasiconvexityVerdict:
    """Decide whether f(z) <= max(f(x), f(y)) for every x < z < y.

    Scans the finite candidate set of breakpoints plus one interior point
    (the midpoint) per piece.  On every piece of an exact model the
    extreme values occur at the piece ends (affine pieces) or uniformly
    (constant pieces), so any violating triple can be moved onto this set
    without changing the compared values.  A violating triple exists iff
    some candidate has a strictly smaller candidate value on each side,
    which is checked for every candidate via running one-sided minima.
    This is the all-triples criterion with the inner quantifiers factored;
    the brute-force oracle cross-checks it in the test suite.
    """
    require_exact(f, "is_quasiconvex")
    breaks = f.breakpoints()
    positions = [t for b0, b1 in zip(breaks, breaks[1:]) for t in (b0, (b0 + b1) / 2)]
    positions.append(breaks[-1])
    values = f.evaluate_sorted(positions)
    n = len(positions)
    suffix_min: list[XReal] = [values[-1]] * n
    for i in range(n - 2, -1, -1):
        suffix_min[i] = min(values[i], suffix_min[i + 1])
    best_left = values[0]
    best_left_at = positions[0]
    for k in range(1, n - 1):
        vk = values[k]
        if best_left < vk and suffix_min[k + 1] < vk:
            right_at = None
            for j in range(n - 1, k, -1):
                if values[j] == suffix_min[k + 1]:
                    right_at = positions[j]
                    break
            return QuasiconvexityVerdict(
                is_quasiconvex=False,
                witness=(best_left_at, right_at, positions[k]),
            )
        if vk < best_left:
            best_left = vk
            best_left_at = positions[k]
    return QuasiconvexityVerdict(is_quasiconvex=True)


def interior_witness_exists(
    f: Function1D, x: RationalLike, y: RationalLike
) -> bool:
    """Whether some z in ]x, y[ satisfies f(z) <= max(f(x), f(y)).

    Decided by the walk behind the component checks: some z exists
    unless every piece span of ]x, y[ lies wholly above the threshold and
    so does every breakpoint inside.  The walk stops at the first span or
    breakpoint that does not.
    """
    require_exact(f, "interior_witness_exists")
    at_x, at_y, _, thr = _pair(f, x, y)
    return not all(above for _, _, above in _sweep(f, at_x, at_y, thr))


def convexity_violation_set(
    f: Function1D, x: RationalLike, y: RationalLike
) -> OpenIntervalSet:
    """The set of chord parameters where f lies strictly above the chord,
    in the convention z(t) = t*x + (1-t)*y, as t ranges over [0, 1].

    Computed in position space against the secant through (x, f(x)) and
    (y, f(y)), then mapped to parameters (which reverses orientation).
    The defining inequality is strict, so t = 0 and t = 1 never belong;
    breakpoints above the chord that are not interior to the open set
    are not representable in an open decomposition and are omitted (they
    can only occur when f is not lower semicontinuous).
    """
    require_exact(f, "convexity_violation_set")
    at_x, at_y, _, _ = _pair(f, x, y)
    runs, _ = _above_set(f, at_x, at_y, _chord(f, at_x, at_y))
    return _parameters(at_x[0], at_y[0], runs)


def _parameters(x: Fraction, y: Fraction, runs: list[tuple[Fraction, Fraction]]) -> OpenIntervalSet:
    """The runs of ]x, y[ as the chord parameters t = (y - r) / (y - x) of
    their ends r, each one Fraction of integers."""
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()

    def param(r: Fraction) -> Fraction:
        rn, rd = r.as_integer_ratio()
        return Fraction((yn * rd - rn * yd) * xd, (yn * xd - xn * yd) * rd)

    return OpenIntervalSet._from_runs([(param(v), param(u)) for u, v in reversed(runs)])


def verify_chord_components(
    f: Function1D,
    x: RationalLike,
    y: RationalLike,
    components_in_params: OpenIntervalSet,
) -> list[ComponentCheck]:
    """Run the per-component checks against the chord as the (affine)
    threshold, for a convexity violation set given in parameter
    coordinates.  A component outside ]0, 1[ raises
    :class:`ConsistencyError`."""
    require_exact(f, "verify_chord_components")
    at_x, at_y, _, _ = _pair(f, x, y)
    chord = _chord(f, at_x, at_y)
    x, y = at_x[0], at_y[0]
    _require_within(components_in_params, Fraction(0), Fraction(1))

    def to_position(t: Fraction) -> Fraction:
        return y - t * (y - x)

    # Parameters run against positions: the spans ascend in reverse.
    spans = [(to_position(iv.right), to_position(iv.left)) for iv in reversed(components_in_params.intervals)]
    return _component_checks(f, spans, chord)[::-1]


@dataclass(frozen=True)
class PairAnalysis:
    """What ``analyze`` reports on one pair: its violation set, the checks
    of its components, whether ]x, y[ holds an interior witness, and its
    chord set, None when f(x) or f(y) is infinite.  ``to_json`` is the
    reference for the text that ``qcvx analyze`` renders from the walks
    (``_record_text``)."""

    decomposition: ViolationDecomposition
    checks: tuple[ComponentCheck, ...]
    interior_witness: bool
    chord: Optional[OpenIntervalSet]

    def to_json(self) -> dict:
        d = self.decomposition
        record = d.to_json()
        record["threshold_decimal"] = _decimal(d.threshold)
        record["total_length_decimal"] = _decimal(d._total_length)
        record["component_checks"] = [c.to_json() for c in self.checks]
        record["all_checks_passed"] = all(c.passed for c in self.checks)
        record["interior_witness_exists"] = self.interior_witness
        if self.chord is None:
            record["chord_violations"] = None
        else:
            record["chord_violations"] = self.chord.to_json()
            record["chord_violations_total_length"] = format_rational(self.chord.total_length())
        return record


def analyze_pairs(
    f: Function1D, pairs: Sequence[tuple[RationalLike, RationalLike]]
) -> list[PairAnalysis]:
    """``violation_set``, ``verify_component_property``,
    ``interior_witness_exists`` and ``convexity_violation_set`` of every
    pair, in order, with one walk per threshold line (``_pair_walks``).
    A pair's part is cut from its walks: its components, their checks
    and its isolated violations from its level's walk, its chord set from
    its chord's.  ``qcvx analyze`` renders each pair's report text from
    the same walks (``_record_text``), and ``PairAnalysis.to_json`` is
    that text's reference.

    An exception names its pair in a note: the pair it was raised for,
    or, inside a walk, the first pair in ``pairs`` on the walk's line.
    """
    analyses = []
    for at_x, at_y, level, walk, chord in _pair_walks(f, pairs):
        x, y = at_x[0], at_y[0]
        with _naming_pair(x, y):
            analyses.append(PairAnalysis(*walk.cut(f, at_x, at_y, level), chord and chord.chord(x, y)))
    return analyses


def _pair_walks(
    f: Function1D, pairs: Sequence[tuple[RationalLike, RationalLike]]
) -> list[tuple[_Located, _Located, XReal, "_LineWalk", Optional["_LineWalk"]]]:
    """Each pair's located ends, its level max(f(x), f(y)), the walk of
    its level line and the walk of its chord line, None when f(x) or
    f(y) is infinite.

    Each pair is located once and has two threshold lines: its level,
    and its chord when f(x) and f(y) are finite.  All pairs on one line
    share one walk of it, from the leftmost pair end on the line to the
    rightmost.  Every pair end on a line lies at or below it (a level) or
    on it (a chord), so no run above the line crosses a pair end: a
    pair's components and chord set are the runs within [x, y], and its
    isolated violations the walk's inside ]x, y[.  A run in a gap between
    the pairs lies outside every pair and is cut into none; such gaps
    cost the walk up to the model's breakpoints for pairs far apart on
    one line.  A walk checks each of its components once if the line is
    some pair's level, and a pair has an interior witness unless its only
    component is ]x, y[.  An exception names its pair as in
    ``analyze_pairs``.
    """
    require_exact(f, "analyze_pairs")
    # Each line's hull, its leftmost and rightmost pair end, and the ends
    # of its first pair, which names an error inside its walk.
    lines: dict[_Threshold, list] = {}

    def add(thr: _Threshold, at_x: _Located, at_y: _Located) -> None:
        line = lines.setdefault(thr, [at_x, at_y, at_x, at_y])
        if _left_of(at_x[0], line[0][0]):
            line[0] = at_x
        if _left_of(line[1][0], at_y[0]):
            line[1] = at_y

    uses = []
    for x, y in pairs:
        x, y = as_rational(x), as_rational(y)
        with _naming_pair(x, y):
            at_x, at_y, level, thr = _pair(f, x, y)
            add(thr, at_x, at_y)
            try:
                chord: Optional[_Threshold] = _chord(f, at_x, at_y)
            except UnsupportedChordError:
                chord = None
            else:
                add(chord, at_x, at_y)
            uses.append((at_x, at_y, level, thr, chord))
    walks = {}
    for thr, (lo, hi, at_x, at_y) in lines.items():
        with _naming_pair(at_x[0], at_y[0]):
            walks[thr] = _LineWalk(f, lo, hi, thr)
    return [(at_x, at_y, level, walks[thr], chord and walks[chord]) for at_x, at_y, level, thr, chord in uses]


def _left_of(u: Fraction, v: Fraction) -> bool:
    """Whether u < v, by one integer cross product."""
    (un, ud), (vn, vd) = u.as_integer_ratio(), v.as_integer_ratio()
    return un * vd < vn * ud


# The start of each line after the first of a pair's report record, which
# ``qcvx analyze`` writes in the "pairs" list of its top-level object.
_RECORD_NEWLINE = "\n    "


class _LineWalk:
    """One walk of ]lo, hi[ against a threshold line: the runs above it,
    with the integer ratios of their ends and lengths, and, on a constant
    line, the components and isolated violations found and the check of
    each component, with the integer ratios of the isolated points.  A
    pair takes its part from them by ``cut`` or ``chord``, or its report
    text by ``_record_text``, each through ``span``."""

    # The text of the line's level and of its components and their
    # checks, made by ``rendered`` at first use.
    _rendered: Optional[tuple] = None

    def __init__(self, f: Function1D, lo: _Located, hi: _Located, thr: _Threshold):
        self.runs, self.isolated = _above_set(f, lo, hi, thr)
        # The runs are checked as a set's intervals on every line, so that
        # a malformed walk fails whether a pair takes a level or a chord set
        # from it.
        components = OpenIntervalSet._from_runs(self.runs)
        self.ends = [(u.as_integer_ratio(), v.as_integer_ratio()) for u, v in self.runs]
        self.lefts = [left for left, _ in self.ends]
        # Each run's length as a reduced integer ratio, which a pair's
        # total sums over its slice.
        self.lengths = [_reduced(vn * ud - un * vd, vd * ud) for (un, ud), (vn, vd) in self.ends]
        # A constant line is a level of the walk's pairs: a chord with
        # f(x) = f(y) is its own pair's level, over the same span.
        _, slope, _ = thr
        if not slope:
            self.components = components
            _check_maximal(f, self.components, thr)
            self.checks = tuple(_component_checks(f, self.runs, thr))
            self.isolated_at = [p.as_integer_ratio() for p in self.isolated]

    def span(self, x: Fraction, y: Fraction) -> tuple[int, int]:
        """``(s, e)`` such that ``runs[s:e]`` are the runs within [x, y]:
        a run lies within exactly when its left end does."""
        return _count_below(self.lefts, x), _count_below(self.lefts, y)

    def chord(self, x: Fraction, y: Fraction) -> OpenIntervalSet:
        """The chord set of a pair whose chord is this line."""
        s, e = self.span(x, y)
        return _parameters(x, y, self.runs[s:e])

    def cut(self, f: Function1D, at_x: _Located, at_y: _Located, level: XReal) -> tuple:
        """The violation set, component checks and interior witness of a
        pair at this line's level whose span lies within the walk's."""
        x, y = at_x[0], at_y[0]
        s, e = self.span(x, y)
        components = object.__new__(OpenIntervalSet)  # made without __init__: a slice of a checked set
        components.__dict__["intervals"] = self.components.intervals[s:e]
        return (
            ViolationDecomposition(
                x=x,
                y=y,
                threshold=level,
                components=components,
                isolated_violations=tuple(self.isolated_within(x, y)),
                lsc_offenders=_lsc_offenders_in(f, at_x, at_y),
            ),
            self.checks[s:e],
            self.witness(s, e, x, y),
        )

    def isolated_within(self, x: Fraction, y: Fraction) -> list[Fraction]:
        """The walk's isolated violations inside ]x, y[."""
        return self.isolated[_count_below(self.isolated_at, x) : _count_below(self.isolated_at, y)]

    def witness(self, s: int, e: int, x: Fraction, y: Fraction) -> bool:
        """Whether ]x, y[, whose components are ``runs[s:e]``, holds a
        point not above the line: unless its only component is ]x, y[."""
        return not (e - s == 1 and self.runs[s][0] == x and self.runs[s][1] == y)

    def rendered(self, level: XReal) -> tuple:
        """The text of a constant line's level, exact and decimal, and the
        text of each component and of its check, at the record indent;
        ``level`` is the line's value.  Made once per walk, at the first
        record at the level.  The checks' failure counts come as prefix
        sums.  A component or check past the digit limit is None, so that
        only a record that holds it fails."""
        if self._rendered is None:
            item = _RECORD_NEWLINE + "    "
            key = item + "  "

            def component(iv: OpenInterval) -> str:
                return f'{{{key}"u": "{format_rational(iv.left)}",{key}"v": "{format_rational(iv.right)}"{item}}}'

            def check(c: ComponentCheck) -> str:
                text = f'{{{key}"endpoints_outside": {_JSON_BOOL[c.endpoints_outside]},'
                text += f'{key}"interior_strict": {_JSON_BOOL[c.interior_strict]}'
                if c.failing_point is not None:
                    text += f',{key}"failing_point": "{format_rational(c.failing_point)}"'
                return text + f"{item}}}"

            failed = [0]
            for c in self.checks:
                failed.append(failed[-1] + (not c.passed))
            self._rendered = (
                f'"{level.to_string()}"',
                _json_decimal(_decimal(level)),
                [_printable(component, iv) for iv in self.components],
                [_printable(check, c) for c in self.checks],
                failed,
            )
        return self._rendered

    def chord_text(self, x: Fraction, y: Fraction) -> str:
        """The text of the ``chord_violations`` and
        ``chord_violations_total_length`` values of a pair whose chord is
        this line, at the record indent.  Each end r becomes
        t = (y - r) / (y - x) as one integer ratio reduced by one gcd, and
        the set's length is its runs' length over y - x, since t is affine
        in r."""
        s, e = self.span(x, y)
        (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
        width = yn * xd - xn * yd  # (y - x) * xd * yd, positive
        item = _RECORD_NEWLINE + "    "
        key = item + "  "
        # Parameters run against positions: the last run comes first,
        # with its right end as u.
        entries = [
            f'{{{key}"u": "{_reduced_text((yn * vd - vn * yd) * xd, width * vd)}",'
            f'{key}"v": "{_reduced_text((yn * ud - un * yd) * xd, width * ud)}"{item}}}'
            for (un, ud), (vn, vd) in reversed(self.ends[s:e])
        ]
        n, den = _ratio_sum(self.lengths[s:e])
        total = _reduced_text(n * xd * yd, den * width)
        inner = _RECORD_NEWLINE + "  "
        return f'{_list_text(entries, item, inner)},{inner}"chord_violations_total_length": "{total}"'


_JSON_BOOL = ("false", "true")


def _record_text(
    f: Function1D,
    at_x: _Located,
    at_y: _Located,
    level: XReal,
    walk: _LineWalk,
    chord: Optional[_LineWalk],
) -> str:
    """The pair's report record, ``PairAnalysis.to_json()``, as the text
    that ``cli._emit`` writes for it where its lines after the
    first start with ``_RECORD_NEWLINE``, made from the pair's walks: its
    components and their checks are joins of the level walk's rendered
    texts over the pair's slice, its total length and chord total sum the
    walk's reduced integer ratios of its runs' lengths over their least
    common denominator (``intervals._ratio_sum``), and its chord ends are
    integer ratios.  A value past the digit limit raises
    ``ParameterRangeError``; an exception names the pair in a note."""
    x, y = at_x[0], at_y[0]
    with _naming_pair(x, y):
        s, e = walk.span(x, y)
        threshold, threshold_decimal, components, checks, failed = walk.rendered(level)
        inner, item = _RECORD_NEWLINE + "  ", _RECORD_NEWLINE + "    "
        try:
            component_text = _list_text(components[s:e], item, inner)
            check_text = _list_text(checks[s:e], item, inner)
        except TypeError:  # a None among them: a value past the digit limit
            raise _past_digit_limit() from None
        n, den = _ratio_sum(walk.lengths[s:e])
        isolated = _points_text(walk.isolated_within(x, y), item, inner)
        offenders = _points_text(_lsc_offenders_in(f, at_x, at_y), item, inner)
        chord_text = "null" if chord is None else chord.chord_text(x, y)
        return (
            f'{{{inner}"x": "{format_rational(x)}",{inner}"y": "{format_rational(y)}",'
            f'{inner}"threshold": {threshold},{inner}"components": {component_text},'
            f'{inner}"component_count": {e - s},{inner}"total_length": "{_reduced_text(n, den)}",'
            f'{inner}"isolated_violations": {isolated},{inner}"lsc_offenders": {offenders},'
            f'{inner}"threshold_decimal": {threshold_decimal},'
            f'{inner}"total_length_decimal": {_json_decimal(_ratio_decimal(n, den))},'
            f'{inner}"component_checks": {check_text},'
            f'{inner}"all_checks_passed": {_JSON_BOOL[failed[e] == failed[s]]},'
            f'{inner}"interior_witness_exists": {_JSON_BOOL[walk.witness(s, e, x, y)]},'
            f'{inner}"chord_violations": {chord_text}{_RECORD_NEWLINE}}}'
        )


def _list_text(items: list[str], item: str, newline: str) -> str:
    """The text of a list of rendered items, each on a line starting with
    ``item``, closed on a line starting with ``newline``."""
    return f"[{item}{(',' + item).join(items)}{newline}]" if items else "[]"


def _points_text(points: Iterable[Fraction], item: str, newline: str) -> str:
    """The text of a list of points, as ``_list_text`` lays it out."""
    return _list_text([f'"{format_rational(p)}"' for p in points], item, newline)


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n / d, d > 0, reduced by one gcd."""
    g = gcd(n, d)
    return n // g, d // g


def _reduced_text(n: int, d: int) -> str:
    """n / d, d > 0, reduced by one gcd and written as ``format_rational``
    writes it."""
    return _ratio_text(*_reduced(n, d))


def _json_decimal(value: float | str) -> str:
    """The JSON text of a ``_decimal`` value: a finite float, "inf" or
    "-inf"."""
    return float.__repr__(value) if isinstance(value, float) else f'"{value}"'


def _printable(render, value) -> Optional[str]:
    """``render(value)``, or None when a number in it is past the digit
    limit."""
    try:
        return render(value)
    except ParameterRangeError:
        return None


class _naming_pair:
    """Add a note naming the pair (x, y) to an exception raised inside,
    which ``cli.main`` puts before the message.  An end past the digit
    limit is named by its double.  A class, not a generator, as it is
    entered twice a pair."""

    def __init__(self, x: Fraction, y: Fraction):
        self.x, self.y = x, y

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: type, exc: Optional[BaseException], tb: object) -> None:
        if isinstance(exc, Exception):
            try:
                note = f"pair ({format_rational(self.x)}, {format_rational(self.y)})"
            except ParameterRangeError:
                note = f"pair near ({_decimal(self.x)}, {_decimal(self.y)})"
            # ``exc.add_note(note)`` on Python 3.11 and later.
            exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
