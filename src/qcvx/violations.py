"""Exact quasiconvexity violation analysis.

For f on [a, b] and a pair x < y, the violation set is

    { z in ]x, y[ : f(z) > max(f(x), f(y)) }.

For a lower-semicontinuous f this set is open and decomposes into
pairwise disjoint maximal open intervals whose endpoints satisfy
f <= max(f(x), f(y)) while every interior value stays strictly above it.
The exact piecewise models always yield a finite family, computed here in
closed form by sign analysis against the threshold.  The same machinery
runs against the chord through (x, f(x)) and (y, f(y)) to produce the
convexity violation set.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .core import RationalLike, XReal, as_rational, format_rational, xreal_max
from .errors import (
    ConsistencyError,
    OrderingError,
    UnsupportedChordError,
)
from .functions import (
    ConstCell,
    Function1D,
    PointCell,
    check_semicontinuity,
    infimum_on,
    require_exact,
    with_piece_midpoints,
)
from .intervals import OpenInterval, OpenIntervalSet, normalize


@dataclass(frozen=True)
class _AffineThreshold:
    """The affine map t -> intercept + slope * t, used as a pointwise
    threshold.  A constant finite threshold is the slope-zero case."""

    intercept: Fraction
    slope: Fraction

    def at(self, t: Fraction) -> Fraction:
        return self.intercept + self.slope * t


_Threshold = Union[XReal, _AffineThreshold]


def _threshold_value(threshold: _Threshold, t: Fraction) -> XReal:
    if isinstance(threshold, _AffineThreshold):
        return XReal(threshold.at(t))
    return threshold


def _linear_above(
    left: Fraction,
    right: Fraction,
    d_left: Fraction,
    d_right: Fraction,
) -> Optional[OpenInterval]:
    """Open sub-span of ]left, right[ where the affine difference with the
    given one-sided boundary values is strictly positive."""
    if d_left > 0 and d_right > 0:
        return OpenInterval(left, right)
    if d_left > 0 >= d_right:
        root = left + (right - left) * d_left / (d_left - d_right)
        return OpenInterval(left, root)
    if d_right > 0 >= d_left:
        root = left + (right - left) * d_left / (d_left - d_right)
        return OpenInterval(root, right)
    return None


def _cell_above(cell, threshold: _Threshold) -> Optional[OpenInterval]:
    """Strictly-above sub-span of a piece cell, exact."""
    if isinstance(threshold, XReal):
        if threshold.is_plus_infinity:
            return None
        if threshold.is_minus_infinity:
            if isinstance(cell, ConstCell) and cell.value.is_minus_infinity:
                return None
            return OpenInterval(cell.left, cell.right)
    if isinstance(cell, ConstCell):
        if not cell.value.is_finite:
            if cell.value.is_plus_infinity:
                return OpenInterval(cell.left, cell.right)
            return None
        v = cell.value.finite_value
        left_value = right_value = v
    else:
        left_value, right_value = cell.left_value, cell.right_value
    if isinstance(threshold, XReal):
        thr_left = thr_right = threshold.finite_value
    else:
        thr_left = threshold.at(cell.left)
        thr_right = threshold.at(cell.right)
    return _linear_above(
        cell.left, cell.right, left_value - thr_left, right_value - thr_right
    )


def _above_set(
    f: Function1D,
    lo: Fraction,
    hi: Fraction,
    threshold: _Threshold,
) -> tuple[list[OpenInterval], list[Fraction]]:
    """The set {z in ]lo, hi[ : f(z) > threshold(z)} as maximal open
    intervals plus the breakpoints that belong to the set without being
    interior to it (possible only when f is not lower semicontinuous)."""
    spans: list[OpenInterval] = []
    above_points: set[Fraction] = set()
    for cell in list(f.cells_in(lo, hi))[1:-1]:
        if isinstance(cell, PointCell):
            if cell.value > _threshold_value(threshold, cell.position):
                above_points.add(cell.position)
        else:
            span = _cell_above(cell, threshold)
            if span is not None:
                spans.append(span)
    merged: list[OpenInterval] = []
    for span in spans:
        if (
            merged
            and merged[-1].right == span.left
            and span.left in above_points
        ):
            merged[-1] = OpenInterval(merged[-1].left, span.right)
        else:
            merged.append(span)
    interval_set = OpenIntervalSet(tuple(merged))
    boundary = sorted(p for p in above_points if not interval_set.contains(p))
    return merged, boundary


def _validate_pair(f: Function1D, x, y) -> tuple[Fraction, Fraction]:
    x, y = as_rational(x), as_rational(y)
    a, b = f.domain
    if not (a <= x and y <= b):
        raise OrderingError(f"pair ({x}, {y}) not within domain [{a}, {b}]")
    if not x < y:
        raise OrderingError(f"pair needs x < y, got ({x}, {y})")
    return x, y


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

    def to_json(self) -> dict:
        return {
            "x": format_rational(self.x),
            "y": format_rational(self.y),
            "threshold": self.threshold.to_string(),
            "components": self.components.to_json(),
            "component_count": len(self.components),
            "total_length": format_rational(self.components.total_length()),
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
    x, y = _validate_pair(f, x, y)
    threshold = xreal_max(f.evaluate(x), f.evaluate(y))
    components, isolated = _above_set(f, x, y, threshold)
    interval_set = normalize(components)
    _check_maximal(f, interval_set, threshold)
    offenders = check_semicontinuity(f).offending_points_lsc
    return ViolationDecomposition(
        x=x,
        y=y,
        threshold=threshold,
        components=interval_set,
        isolated_violations=tuple(isolated),
        lsc_offenders=offenders[bisect_left(offenders, x) : bisect_right(offenders, y)],
    )


def _check_maximal(
    f: Function1D, components: OpenIntervalSet, threshold: XReal
) -> None:
    previous_right = None
    for iv in components:
        # Components sharing an endpoint must be separated by a point at
        # or below the threshold, otherwise they should have merged.
        if previous_right == iv.left and f.evaluate(iv.left) > threshold:
            raise ConsistencyError(
                f"components touching at {iv.left} failed to merge"
            )
        previous_right = iv.right


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
    threshold: _Threshold,
) -> list[ComponentCheck]:
    """Check each span ]u, v[ against the threshold: neither end lies
    above it and every interior point lies strictly above it.  One cell
    walk per span gives the end values and the interior."""
    checks: list[ComponentCheck] = []
    for u, v in spans:
        cells = list(f.cells_in(u, v))
        endpoint_bad = next(
            (
                c.position
                for c in (cells[0], cells[-1])
                if c.value > _threshold_value(threshold, c.position)
            ),
            None,
        )
        probe = _first_not_above(cells[1:-1], threshold)
        checks.append(
            ComponentCheck(
                endpoints_outside=endpoint_bad is None,
                interior_strict=probe is None,
                failing_point=endpoint_bad if endpoint_bad is not None else probe,
            )
        )
    return checks


def _first_not_above(cells, threshold: _Threshold) -> Optional[Fraction]:
    """A point of the given interior cells where f <= threshold, if any."""
    for cell in cells:
        if isinstance(cell, PointCell):
            if not cell.value > _threshold_value(threshold, cell.position):
                return cell.position
        else:
            span = _cell_above(cell, threshold)
            if span is None:
                return (cell.left + cell.right) / 2
            if span.left != cell.left:
                return (cell.left + span.left) / 2
            if span.right != cell.right:
                return (span.right + cell.right) / 2
    return None


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
    x, y = _validate_pair(f, decomposition.x, decomposition.y)
    expected = xreal_max(f.evaluate(x), f.evaluate(y))
    if decomposition.threshold != expected:
        raise ConsistencyError(
            f"threshold {decomposition.threshold.to_string()} does not match "
            f"max(f(x), f(y)) = {expected.to_string()}"
        )
    for iv in decomposition.components:
        if not (x <= iv.left and iv.right <= y):
            raise ConsistencyError(f"component {iv} not within ]{x}, {y}[")
    return _component_checks(
        f,
        ((iv.left, iv.right) for iv in decomposition.components),
        decomposition.threshold,
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


def _candidate_positions(f: Function1D) -> list[Fraction]:
    """Breakpoints plus one interior point per piece.

    On every piece of an exact model the extreme values occur at the
    piece ends (affine pieces) or uniformly (constant pieces), so any
    violating triple can be moved onto this finite set without changing
    the compared values.
    """
    return with_piece_midpoints(f.breakpoints())


def is_quasiconvex(f: Function1D) -> QuasiconvexityVerdict:
    """Decide whether f(z) <= max(f(x), f(y)) for every x < z < y.

    Scans the finite candidate set (breakpoints and piece midpoints): a
    violating triple exists iff some candidate has a strictly smaller
    candidate value on each side, which is checked for every candidate
    via running one-sided minima.  This is the all-triples criterion with
    the inner quantifiers factored; the brute-force oracle cross-checks
    it in the test suite.
    """
    require_exact(f, "is_quasiconvex")
    positions = _candidate_positions(f)
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

    Decided exactly through the infimum over the open interval: true iff
    the infimum lies below the threshold (then values below it exist), or
    equals it with an interior point attaining it.  The midpoint is
    probed first as a constructive shortcut; a hit settles the question
    without the full scan.
    """
    require_exact(f, "interior_witness_exists")
    x, y = _validate_pair(f, x, y)
    threshold = xreal_max(f.evaluate(x), f.evaluate(y))
    if f.evaluate((x + y) / 2) <= threshold:
        return True
    value, attained = infimum_on(f, x, y)
    return value < threshold or (value == threshold and attained)


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
    x, y = _validate_pair(f, x, y)
    fx, fy = f.evaluate(x), f.evaluate(y)
    if not (fx.is_finite and fy.is_finite):
        raise UnsupportedChordError(
            "chord analysis needs finite endpoint values, got "
            f"f(x) = {fx.to_string()}, f(y) = {fy.to_string()}"
        )
    chord = _chord_threshold(x, y, fx.finite_value, fy.finite_value)
    spans, _ = _above_set(f, x, y, chord)

    def to_param(position: Fraction) -> Fraction:
        return (y - position) / (y - x)

    return normalize(
        OpenInterval(to_param(iv.right), to_param(iv.left)) for iv in spans
    )


def _chord_threshold(
    x: Fraction, y: Fraction, fx: Fraction, fy: Fraction
) -> _AffineThreshold:
    slope = (fy - fx) / (y - x)
    return _AffineThreshold(intercept=fx - slope * x, slope=slope)


def verify_chord_components(
    f: Function1D,
    x: RationalLike,
    y: RationalLike,
    components_in_params: OpenIntervalSet,
) -> list[ComponentCheck]:
    """Run the per-component checks against the chord as the (affine)
    threshold, for a convexity violation set given in parameter
    coordinates."""
    require_exact(f, "verify_chord_components")
    x, y = _validate_pair(f, x, y)
    fx, fy = f.evaluate(x), f.evaluate(y)
    if not (fx.is_finite and fy.is_finite):
        raise UnsupportedChordError("chord checks need finite endpoint values")
    chord = _chord_threshold(x, y, fx.finite_value, fy.finite_value)

    def to_position(t: Fraction) -> Fraction:
        return y - t * (y - x)

    return _component_checks(
        f,
        ((to_position(iv.right), to_position(iv.left)) for iv in components_in_params),
        chord,
    )
