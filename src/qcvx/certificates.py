"""Certificates of non-quasiconvexity and local maxima analysis.

A function that is upper semicontinuous on a closed interval and not
quasiconvex there admits a pair of interior points p <= q with equal
values, both local maxima, p strict from the left and q strict from the
right: take the minimum and maximum of the set of points attaining the
interior supremum.  This module extracts that certificate exactly for
piecewise models, enumerates interior local maxima with one-sided
strictness classification, and evaluates the derived sufficient
condition for quasiconvexity (no local maximum strict from either side).
The certificate's pair and the local shape's point are validated and
located in functions.py, beside the structure index.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Optional

from .core import RationalLike, XReal, _decimal, format_rational
from .errors import ParameterRangeError, SemicontinuityError
from .functions import (
    ClosedSet1D,
    Function1D,
    _attaining_set,
    _extremum,
    _Located,
    _pair,
    check_semicontinuity,
    require_exact,
)

# The most uniform points ``revalidate_certificate`` may ask for: its time
# and memory grow linearly with the count.
MAX_REVALIDATION_POINTS = 100_000


@dataclass(frozen=True)
class LocalMaximum:
    """A maximal region of interior local-maximum points with a common
    value: a single point (left == right) or a plateau.

    ``left_closed``/``right_closed`` record whether the edge position
    itself belongs to the region (a plateau bordered by larger values on
    one side excludes that edge point).  ``strict_from_left`` means the
    function stays strictly below ``value`` on ]left - delta, left[ for
    the reported delta; a false flag on an interior closed edge means an
    equal-value point lies within delta on that side (inside a plateau)
    or the neighbor values exceed the region's value.  Edges on the
    domain boundary are never strict.
    """

    left: Fraction
    right: Fraction
    left_closed: bool
    right_closed: bool
    value: XReal
    strict_from_left: bool
    strict_from_right: bool
    witness_delta: Fraction

    @property
    def strict_somewhere(self) -> bool:
        return self.strict_from_left or self.strict_from_right

    def to_json(self) -> dict:
        return {
            "left": format_rational(self.left),
            "right": format_rational(self.right),
            "left_closed": self.left_closed,
            "right_closed": self.right_closed,
            "value": self.value.to_string(),
            "strict_from_left": self.strict_from_left,
            "strict_from_right": self.strict_from_right,
            "witness_delta": format_rational(self.witness_delta),
        }


def enumerate_local_maxima(f: Function1D) -> list[LocalMaximum]:
    """All regions of interior local-maximum points, plateaus grouped.

    One walk over the structural atoms in order: breakpoint 0, the open
    piece after it, breakpoint 1, and so on.  An atom can carry local
    maxima only if it weakly dominates its immediate neighbors, and a
    region is a maximal chain of equal-valued dominating atoms.  Within a
    chain every point is a weak local maximum; one-sided strictness can
    only occur at a closed chain edge whose outside neighbor values lie
    strictly below the chain value, which the structure index records per
    breakpoint side.
    """
    require_exact(f, "enumerate_local_maxima")
    s = f._index
    positions = s.positions
    last = len(positions) - 1

    def atom(t: int) -> tuple[Optional[XReal], bool]:
        i = t // 2
        if t % 2 == 0:
            return s.values[i], s.left_cmp[i] >= 0 and s.right_cmp[i] >= 0
        # A piece that is not flat rises or falls, so it never dominates.
        return s.flats[i], s.right_cmp[i] <= 0 and s.left_cmp[i + 1] <= 0

    atoms = [atom(t) for t in range(2 * last + 1)]
    records: list[LocalMaximum] = []
    t = 0
    while t < len(atoms):
        value, dominating = atoms[t]
        if not dominating:
            t += 1
            continue
        e = t
        while e + 1 < len(atoms) and atoms[e + 1][1] and atoms[e + 1][0] == value:
            e += 1
        # Chain atoms t..e span positions[lo:hi + 1]; even atoms are points.
        lo, hi = t // 2, (e + 1) // 2
        left_closed, right_closed = t % 2 == 0, e % 2 == 0
        t = e + 1
        if lo == hi and lo in (0, last):
            continue  # boundary extremum, not an interior local maximum
        gaps = []
        if lo > 0:
            gaps.append(positions[lo] - positions[lo - 1])
        if hi < last:
            gaps.append(positions[hi + 1] - positions[hi])
        records.append(
            LocalMaximum(
                left=positions[lo],
                right=positions[hi],
                left_closed=left_closed,
                right_closed=right_closed,
                value=value,
                strict_from_left=left_closed and s.left_cmp[lo] > 0,
                strict_from_right=right_closed and s.right_cmp[hi] > 0,
                witness_delta=min(gaps) if gaps else (positions[last] - positions[0]) / 2,
            )
        )
    return records


@dataclass(frozen=True)
class MaximaHypothesisResult:
    """Whether every interior local maximum is non-strict on both sides.

    For an upper-semicontinuous function this property forces
    quasiconvexity; the converse fails (a quasiconvex ramp-then-plateau
    has a local maximum strict from the left), so the check is one
    directional.
    """

    holds: bool
    offending: tuple[LocalMaximum, ...]

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "offending": [m.to_json() for m in self.offending],
        }


def check_no_strict_sided_maxima(f: Function1D) -> MaximaHypothesisResult:
    offending = tuple(
        m for m in enumerate_local_maxima(f) if m.strict_somewhere
    )
    return MaximaHypothesisResult(holds=not offending, offending=offending)


@dataclass(frozen=True)
class LocalShape:
    """One-point local shape classification.

    ``locally_quasiconvex``: for some delta, every pair taken from the
    two one-sided punctured neighborhoods has max value >= f(p).
    ``locally_strictly_quasiconcave``: for some delta, f stays strictly
    below f(p) on both punctured sides.  ``delta`` is the witnessing
    radius; on a piecewise model exactly one of the two predicates holds
    at every interior point.
    """

    locally_quasiconvex: bool
    locally_strictly_quasiconcave: bool
    delta: Fraction

    def to_json(self) -> dict:
        return {
            "locally_quasiconvex": self.locally_quasiconvex,
            "locally_strictly_quasiconcave": self.locally_strictly_quasiconcave,
            "delta": format_rational(self.delta),
        }


def local_quasiconvexity_at(f: Function1D, p: RationalLike) -> LocalShape:
    """Decide the local predicates exactly at an interior point.

    Within delta, the distance to the nearest other breakpoint, each
    punctured side lies inside one piece, where f is constant or strictly
    monotone, so f(p) compares with every value on a side as it compares
    with the value just beside p.  The structure index records that
    comparison: f is locally quasiconvex iff it is not above its values on
    some side, and locally strictly quasiconcave iff it is above them on
    both.
    """
    require_exact(f, "local_quasiconvexity_at")
    left, right, delta = f._sides(p)
    return LocalShape(
        locally_quasiconvex=left <= 0 or right <= 0,
        locally_strictly_quasiconcave=left > 0 and right > 0,
        delta=delta,
    )


@dataclass(frozen=True)
class CertificateChecks:
    """The three verified properties of a paired-maxima certificate:
    equal values at p and q, both global (hence local) maxima of the open
    interval, p strict from the left and q strict from the right."""

    values_equal: bool
    both_local_maxima: bool
    one_sided_strictness: bool

    @property
    def all_passed(self) -> bool:
        return self.values_equal and self.both_local_maxima and self.one_sided_strictness

    def to_json(self) -> dict:
        return {
            "values_equal": self.values_equal,
            "both_local_maxima": self.both_local_maxima,
            "one_sided_strictness": self.one_sided_strictness,
        }


@dataclass(frozen=True)
class PairedMaximaCertificate:
    """Witness of non-quasiconvexity on [x0, y0]: the extreme points
    p = min and q = max of the argmax set of the interior supremum,
    carrying one-sided strictness evidence."""

    x0: Fraction
    y0: Fraction
    sup_value: XReal
    argmax: ClosedSet1D
    p: Fraction
    q: Fraction
    checks: CertificateChecks

    def to_json(self) -> dict:
        return {
            "interval": [format_rational(self.x0), format_rational(self.y0)],
            "sup_value": self.sup_value.to_string(),
            "sup_value_decimal": _decimal(self.sup_value),
            "argmax": self.argmax.to_json(),
            "p": format_rational(self.p),
            "p_decimal": _decimal(self.p),
            "q": format_rational(self.q),
            "q_decimal": _decimal(self.q),
            "checks": self.checks.to_json(),
        }


def paired_maxima_certificate(
    f: Function1D, x0: RationalLike, y0: RationalLike
) -> Optional[PairedMaximaCertificate]:
    """Extract the paired-maxima certificate on [x0, y0], or None when no
    interior point exceeds max(f(x0), f(y0)) (f is then quasiconvex when
    restricted to that segment).

    Upper semicontinuity is a hard precondition: the argmax set of a
    non-usc function may be empty or fail to be closed, and the audit
    failure is raised, not warned.  x0, y0, p and q are located once
    each, and every later lookup reads those located ends.
    """
    require_exact(f, "paired_maxima_certificate")
    report = check_semicontinuity(f)
    if not report.is_usc:
        raise SemicontinuityError(
            "certificate extraction needs an upper semicontinuous function; "
            "offending breakpoints: "
            + ", ".join(format_rational(p) for p in report.offending_points_usc),
            offending=report.offending_points_usc,
        )
    at_x, at_y, level, _ = _pair(f, x0, y0)
    sup, _ = _extremum(f, at_x, at_y)
    if not sup > level:
        return None
    attaining = _attaining_set(f, at_x, at_y, sup)
    p, q = attaining.min_point(), attaining.max_point()
    at_p, at_q = f._locate(p), f._locate(q)
    fp, fq = f._located_value(at_p), f._located_value(at_q)
    values_equal = fp == sup and fq == sup
    both_local_maxima = sup <= fp and sup <= fq
    strict_left = _strictly_below_on(f, at_x, at_p, fp)
    strict_right = _strictly_below_on(f, at_q, at_y, fq)
    return PairedMaximaCertificate(
        x0=at_x[0],
        y0=at_y[0],
        sup_value=sup,
        argmax=attaining,
        p=p,
        q=q,
        checks=CertificateChecks(
            values_equal=values_equal,
            both_local_maxima=both_local_maxima,
            one_sided_strictness=strict_left and strict_right,
        ),
    )


def _strictly_below_on(f: Function1D, lo: _Located, hi: _Located, bound: XReal) -> bool:
    """Whether f < bound at every point of ]lo, hi[."""
    sup, attained = _extremum(f, lo, hi)
    return sup < bound or (sup == bound and not attained)


@dataclass(frozen=True)
class Revalidation:
    """Grid re-check of a certificate by direct evaluation."""

    grid_points: int
    checked_points: int
    all_passed: bool
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "grid_points": self.grid_points,
            "checked_points": self.checked_points,
            "all_passed": self.all_passed,
            "failures": list(self.failures),
        }


def revalidate_certificate(
    f: Function1D, cert: PairedMaximaCertificate, grid_points: int = 201
) -> Revalidation:
    """Re-check the certificate on a breakpoint-refined evaluation grid:
    no interior value exceeds the supremum, values left of p and right of
    q stay strictly below it, and f(p) = f(q) = sup.

    The certificate's points must be ordered x0 <= p <= q <= y0, as
    :func:`paired_maxima_certificate` builds them, and the uniform grid
    needs at least its two ends and at most ``MAX_REVALIDATION_POINTS``
    points; otherwise :class:`ParameterRangeError` is raised before any
    point is built.
    """
    if grid_points < 2:
        raise ParameterRangeError(f"grid_points must be at least 2, got {grid_points}")
    if grid_points > MAX_REVALIDATION_POINTS:
        raise ParameterRangeError(
            f"grid_points must be at most {MAX_REVALIDATION_POINTS}, got {grid_points}"
        )
    x0, y0 = cert.x0, cert.y0
    if not x0 <= cert.p <= cert.q <= y0:
        raise ParameterRangeError(
            "certificate needs x0 <= p <= q <= y0, got "
            f"x0 = {format_rational(x0)}, p = {format_rational(cert.p)}, "
            f"q = {format_rational(cert.q)}, y0 = {format_rational(y0)}"
        )
    breaks = f.breakpoints()
    # Three sorted runs merged, equal neighbours dropped.
    merged = heapq.merge(
        (x0 + (y0 - x0) * Fraction(i, grid_points - 1) for i in range(grid_points)),
        breaks[bisect_left(breaks, x0) : bisect_right(breaks, y0)],
        (cert.p, cert.q),
    )
    positions = [t for t, _ in groupby(merged)]
    values = f.evaluate_sorted(positions)
    failures: list[str] = []
    sup = cert.sup_value
    if f.evaluate(cert.p) != sup or f.evaluate(cert.q) != sup:
        failures.append("endpoint values differ from supremum")
    # positions[inner:outer] lie in ]x0, y0[, positions[inner:left_end]
    # in ]x0, p[ and positions[right_start:outer] in ]q, y0[; the last two
    # ranges lie inside the first because x0 <= p <= q <= y0.
    inner, outer = bisect_right(positions, x0), bisect_left(positions, y0)
    left_end = bisect_left(positions, cert.p)
    right_start = bisect_right(positions, cert.q)
    for k in range(inner, outer):
        t, v = positions[k], values[k]
        if sup < v:
            failures.append(f"f({format_rational(t)}) exceeds the supremum")
        if k < left_end and not v < sup:
            failures.append(f"f({format_rational(t)}) not strictly below left of p")
        if k >= right_start and not v < sup:
            failures.append(f"f({format_rational(t)}) not strictly below right of q")
    return Revalidation(
        grid_points=grid_points,
        checked_points=len(positions),
        all_passed=not failures,
        failures=tuple(failures[:10]),
    )
