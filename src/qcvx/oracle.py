"""Brute-force ground truth by direct evaluation on dense grids.

The oracle evaluates the defining inequality f(z) <= max(f(x), f(y)) for
every ordered grid triple, with no structural shortcuts shared with the
exact analyzer.  The triple (i, k, j) violates iff f(k) is strictly above
both f(i) and f(j), so the violating triples with middle k number
L(k) * R(k), where L(k) counts the i < k and R(k) the j > k with f(k)
strictly above their value.  Each count is one bisection into a sorted
list of the values already passed.  Witnesses are listed in (i, k, j)
index order; a row with none is skipped in one comparison, against a
suffix maximum of f over the middles with R(k) > 0.

Exact models compare as integers: each finite value is scaled to one
common multiple of the denominators on the grid, -inf sits below every
such key and +inf above.  An exact model's grid is made and evaluated in
one integer pass, the model's lattice walk: the uniform points are
numerators over one denominator, the breakpoints and piece midpoints
find their slots among them by one integer division each, and within a
piece the uniform points' keys are one arithmetic progression made from
the piece's line.  A grid position becomes a Fraction only when it is
reported (a witness or an end of a violation-set run) or checked against
a pair's end, so the Fractions one ``qcvx oracle --compare`` command
makes do not grow with the grid size.  ``diff_report`` compares the ends
of the two sets as integers over their least common denominator.
Tabulated models key the values ``evaluate_sorted`` gives on their
sample grid as integers.  Black-box models compare as floats, where f(k)
is strictly above f(i) when it is above fl(f(i) + ``FLOAT_EPSILON``), on
both grids alike.

The verdict carries its grid, evaluated and keyed, and ``qcvx oracle``
reads the violation set of the domain ends from it; another pair gets a
grid of its own.  On piecewise-constant models each grid holds every piece
midpoint, so a piece narrower than the uniform spacing still has a
sample.  A merged grid of more than ``MAX_GRID_POINTS`` points is refused
before any point is made.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, islice
from typing import Callable, Optional, Sequence, Union

from .core import XReal, as_rational, format_rational
from .errors import ParameterRangeError
from .functions import Function1D, PiecewiseConstant, Tabulated
from .intervals import OpenInterval, OpenIntervalSet

# Near this size (4,062 points on a 64-knot linear model) a verdict takes
# about 0.007 s and a 19 MB process peak, 0.5 MB of it traced, on 2 vCPUs
# with Python 3.11; the two bisection passes of the triple count take most
# of it, and making and evaluating the grid about 6%.  An ``oracle``
# command makes one such grid when its pair is the domain.
MAX_GRID_POINTS = 4096

# A black-box value is strictly above another when above by more than this.
FLOAT_EPSILON = Fraction(1, 10**9)


@dataclass(frozen=True)
class GridInfo:
    """Reproducible description of the evaluation grid."""

    resolution: int
    total_points: int
    includes_breakpoints: bool
    includes_piece_midpoints: bool
    lo: Fraction
    hi: Fraction
    float_mode: bool
    float_epsilon: Optional[Fraction] = None

    def to_json(self) -> dict:
        out = {
            "resolution": self.resolution,
            "total_points": self.total_points,
            "includes_breakpoints": self.includes_breakpoints,
            "includes_piece_midpoints": self.includes_piece_midpoints,
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "float_mode": self.float_mode,
        }
        if self.float_epsilon is not None:
            out["float_epsilon"] = format_rational(self.float_epsilon)
        return out


@dataclass(frozen=True)
class ViolatingTriple:
    """Grid parameters t_x < t_z < t_y with f(t_z) > max(f(t_x), f(t_y))."""

    t_x: Fraction
    t_y: Fraction
    t_z: Fraction

    def to_json(self) -> dict:
        return {
            "t_x": format_rational(self.t_x),
            "t_y": format_rational(self.t_y),
            "t_z": format_rational(self.t_z),
        }


@dataclass(frozen=True)
class OracleVerdict:
    is_quasiconvex_on_grid: bool
    violating_triples: tuple[ViolatingTriple, ...]
    total_violations: int
    grid: GridInfo
    # The positions (by index), keys and shifted keys of ``_sample``; not
    # in the report.
    sample: Optional[tuple] = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "is_quasiconvex_on_grid": self.is_quasiconvex_on_grid,
            "violating_triples": [t.to_json() for t in self.violating_triples],
            "total_violations": self.total_violations,
            "grid": self.grid.to_json(),
        }


def _with_piece_midpoints(breaks: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The ascending breakpoints, as integer ratios, with the midpoint of
    each consecutive pair between them, in lowest terms:
    ``[b0, (b0 + b1) / 2, b1, ..., b_last]``.  The exact analyzer builds
    its own candidate list, so a fault here cannot hide from the
    differential tests."""
    out = []
    for (n0, d0), (n1, d1) in zip(breaks, breaks[1:]):
        n, d = n0 * d1 + n1 * d0, 2 * d0 * d1
        g = math.gcd(n, d)
        out += ((n0, d0), (n // g, d // g))
    out += breaks[-1:]
    return out


def _slotted(
    lo: Fraction, hi: Fraction, n: int, extras: Sequence[tuple[int, int]]
) -> tuple[int, tuple[int, int, int], list[tuple[int, int, int, int]]]:
    """The n uniform points from lo to hi as a lattice ``(den, start,
    stride)``, point j being (start + stride * j) / den, and each of the
    ascending integer ratios ``extras`` in [lo, hi] slotted into it by one
    integer division as ``(q, r, pn, pd)``: pn / pd lies r / (stride * pd)
    of a step past point q, so is point q where r is 0.  First comes the
    merged count, the extras on no point added to n."""
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    den, start, stride = ld * hd * (n - 1), ln * hd * (n - 1), hn * ld - ln * hd
    slots = [(*divmod(pn * den - start * pd, stride * pd), pn, pd) for pn, pd in extras]
    return n + sum(1 for _, r, _, _ in slots if r), (den, start, stride), slots


def _points(lattice: tuple[int, int, int], n: int, slots: Sequence[tuple[int, int, int, int]]) -> list[Fraction]:
    """The slotted lattice of ``_slotted`` as a sorted list of Fractions
    without repeats."""
    den, start, stride = lattice
    points: list[Fraction] = []
    i = 0
    for q, r, pn, pd in slots:
        points += [Fraction(start + stride * j, den) for j in range(i, q + 1)]
        i = q + 1
        if r:
            points.append(Fraction(pn, pd))
    points += [Fraction(start + stride * j, den) for j in range(i, n)]
    return points


def uniform_points(
    lo: Fraction, hi: Fraction, n: int, extras: Sequence[Fraction] = ()
) -> tuple[int, Callable[[], list[Fraction]]]:
    """The n rationals lo + (hi - lo) * i / (n - 1) with the ascending
    ``extras`` from [lo, hi] merged in: the merged count, found on
    integers, and a function that makes the sorted list without repeats."""
    size, lattice, slots = _slotted(lo, hi, n, [p.as_integer_ratio() for p in extras])
    return size, lambda: _points(lattice, n, slots)


def _window(
    f: Function1D, grid_points: int, lo: Optional[Fraction], hi: Optional[Fraction]
) -> tuple[Fraction, Fraction, tuple[Fraction, ...]]:
    """lo and hi, the domain ends where None, and the model's breakpoints
    in [lo, hi], once the refusals that come before any point is made have
    passed: fewer than 3 uniform points, lo not below hi, and a
    piecewise-constant model with more breakpoints and piece midpoints in
    range than ``MAX_GRID_POINTS``."""
    if grid_points < 3:
        raise ParameterRangeError("grid_points must be at least 3")
    a, b = f.domain
    lo = a if lo is None else as_rational(lo)
    hi = b if hi is None else as_rational(hi)
    if not lo < hi:
        raise ParameterRangeError("grid needs lo < hi")
    bps = f.breakpoints()
    breaks = bps[bisect_left(bps, lo) : bisect_right(bps, hi)]
    if isinstance(f, PiecewiseConstant) and 2 * len(breaks) - 1 > MAX_GRID_POINTS:
        # The breakpoints and the piece midpoints are distinct grid points.
        _refuse_grid(f"at least {2 * len(breaks) - 1}", grid_points)
    return lo, hi, breaks


def _lattice(
    f: Function1D, grid_points: int, lo: Fraction, hi: Fraction, breaks: Sequence[Fraction]
) -> tuple[tuple[int, int, int], list[tuple[int, int, int, int]]]:
    """The uniform lattice on [lo, hi] with its extras slotted in: the
    breakpoints in range and, on a piecewise-constant model, the piece
    midpoints between them.  A merged grid of more than
    ``MAX_GRID_POINTS`` points is refused."""
    ratios = [p.as_integer_ratio() for p in breaks]
    extras = _with_piece_midpoints(ratios) if isinstance(f, PiecewiseConstant) else ratios
    size, lattice, slots = _slotted(lo, hi, grid_points, extras)
    if size > MAX_GRID_POINTS:
        _refuse_grid(size, grid_points)
    return lattice, slots


def build_grid(
    f: Function1D,
    grid_points: int = 201,
    lo: Optional[Fraction] = None,
    hi: Optional[Fraction] = None,
) -> list[Fraction]:
    """``grid_points`` uniformly spaced rationals plus the model's
    breakpoints in range; on a tabulated model, the samples in range.

    On a piecewise-constant model the midpoint of every pair of
    consecutive breakpoints is added, so constant pieces narrower than the
    uniform spacing always receive an interior sample.  Fewer than 3
    uniform points, or a merged grid of more than ``MAX_GRID_POINTS``
    points, raises :class:`ParameterRangeError` before any point is made;
    a piecewise-constant model with more breakpoints and midpoints in
    range than that is refused before its midpoints are made.
    """
    lo, hi, breaks = _window(f, grid_points, lo, hi)
    if isinstance(f, Tabulated):
        if len(breaks) > MAX_GRID_POINTS:
            _refuse_grid(len(breaks), grid_points)
        return list(breaks)
    lattice, slots = _lattice(f, grid_points, lo, hi, breaks)
    return _points(lattice, grid_points, slots)


def _refuse_grid(size: object, grid_points: int) -> None:
    raise ParameterRangeError(
        f"oracle grid has {size} points at resolution {grid_points}, "
        f"over the limit of {MAX_GRID_POINTS}"
    )


def _integer_keys(values: Sequence[XReal]) -> list[int]:
    """Order-preserving integer keys: each finite value times the least
    common multiple of the finite denominators, -inf one below the least
    such key and +inf one above the greatest."""
    finite = [v.finite_value for v in values if v.is_finite]
    scale = math.lcm(*{q.denominator for q in finite})
    scaled = [q.numerator * (scale // q.denominator) for q in finite]
    below, above = min(scaled, default=0) - 1, max(scaled, default=0) + 1
    keys = iter(scaled)
    return [
        next(keys) if v.is_finite else above if v.is_plus_infinity else below
        for v in values
    ]


def _sample(f: Function1D, grid_points: int, x: Fraction, y: Fraction) -> tuple:
    """The grid on [x, y], x and y added where it lacks them, as a function
    from a point's index to its position, and keys with f(k) strictly
    above f(i) iff keys[k] > shifted[i]: integer keys for both (with the
    float infinities on an exact model), or floats and
    fl(f + FLOAT_EPSILON).  An exact model's grid is made and evaluated on
    integers, and a position becomes a Fraction only when it is read, from
    the run that holds it, found by bisection on the runs' first
    indices."""
    if f.is_exact:
        lo, hi, breaks = _window(f, grid_points, x, y)
        lattice, slots = _lattice(f, grid_points, lo, hi, breaks)
        runs, keys = f._evaluate_lattice(lo, lattice, grid_points, slots)
        starts = [index for index, _, _, _ in runs]

        def position(i: int) -> Fraction:
            index, first, step, d = runs[bisect_right(starts, i) - 1]
            return Fraction(first + step * (i - index), d)

        return position, keys, keys
    grid = build_grid(f, grid_points, x, y)
    if not grid or grid[0] != x:
        grid.insert(0, x)
    if grid[-1] != y:
        grid.append(y)
    values = f.evaluate_sorted(grid)
    if isinstance(f, Tabulated):
        keys = _integer_keys(values)
        return grid.__getitem__, keys, keys
    keys = [float(v) for v in values]
    eps = float(FLOAT_EPSILON)
    return grid.__getitem__, keys, [key + eps for key in keys]


def oracle_quasiconvex(
    f: Function1D,
    grid_points: int = 201,
    *,
    max_triples: int = 50,
) -> OracleVerdict:
    """Check every ordered grid triple against the defining inequality.

    Exact models compare exactly (through integer keys); black-box
    models compare floats, where strict violation means exceeding the
    competitor by more than ``FLOAT_EPSILON``.  The triples list is
    capped at ``max_triples`` in deterministic index order;
    ``total_violations`` counts all of them.  The grid is refused as
    :func:`build_grid` refuses it.
    """
    float_mode = not f.is_exact and not isinstance(f, Tabulated)
    position, keys, shifted = sample = _sample(f, grid_points, *f.domain)
    g = len(keys)
    # below[k] is R(k); reach[k] is the greatest key of a middle at k or
    # after it with R > 0, so row i has a witness iff reach[i + 1] > shifted[i].
    below = [0] * g
    reach = [-math.inf] * (g + 1)
    seen: list = []
    for k in reversed(range(g)):
        below[k] = bisect_left(seen, keys[k])
        insort(seen, shifted[k])
        reach[k] = max(reach[k + 1], keys[k]) if below[k] else reach[k + 1]
    total = 0
    seen = []
    for k in range(g):
        total += bisect_left(seen, keys[k]) * below[k]  # L(k) * R(k)
        insort(seen, shifted[k])
    witnesses = (
        (i, k, j)
        for i in range(g)
        if reach[i + 1] > shifted[i]
        for k in range(i + 1, g)
        if below[k] and keys[k] > shifted[i]
        for j in range(k + 1, g)
        if keys[k] > shifted[j]
    )
    found = list(islice(witnesses, max(max_triples, 0)))
    # The witnesses share their points, each made a Fraction once.
    at = {t: position(t) for t in {t for triple in found for t in triple}}
    info = GridInfo(
        resolution=grid_points,
        total_points=g,
        includes_breakpoints=not isinstance(f, Tabulated),
        includes_piece_midpoints=isinstance(f, PiecewiseConstant),
        lo=f.domain[0],
        hi=f.domain[1],
        float_mode=float_mode,
        float_epsilon=FLOAT_EPSILON if float_mode else None,
    )
    return OracleVerdict(
        is_quasiconvex_on_grid=total == 0,
        violating_triples=tuple(ViolatingTriple(t_x=at[i], t_y=at[j], t_z=at[k]) for i, k, j in found),
        total_violations=total,
        grid=info,
        sample=sample,
    )


def oracle_violation_set(
    f: Function1D,
    x: Fraction,
    y: Fraction,
    grid_points: int = 201,
) -> OpenIntervalSet:
    """Grid approximation of the violation set of the pair (x, y).

    Marks grid points with f strictly above max(f(x), f(y)), a black-box
    value by more than ``FLOAT_EPSILON`` as in :func:`oracle_quasiconvex`,
    and reports each maximal run of consecutive marked points as the open
    interval between the unmarked neighbors of its first and last point.
    On a piecewise-constant model the grid holds every piece midpoint, so
    each piece between breakpoints in ]x, y[ is sampled.  This is a
    resolution-limited approximation: components narrower than the
    local spacing can be missed, and reported endpoints are accurate only
    to one grid cell.  On a tabulated model an end that is not a sample,
    even with no sample between x and y, raises :class:`NoSampleError`.
    The grid is refused as :func:`build_grid` refuses it.
    """
    x, y = as_rational(x), as_rational(y)
    if not x < y:
        raise ParameterRangeError("oracle_violation_set needs x < y")
    return _runs(*_sample(f, grid_points, x, y))


def _violation_set_from(verdict: OracleVerdict, f: Function1D, x: Fraction, y: Fraction) -> OpenIntervalSet:
    """``oracle_violation_set(f, x, y, verdict.grid.resolution)``, read from the
    verdict's sample if it runs from x to y, as for the domain ends only."""
    position, keys, _ = verdict.sample
    if position(0) != x or position(len(keys) - 1) != y:
        return oracle_violation_set(f, x, y, verdict.grid.resolution)
    return _runs(*verdict.sample)


def _runs(position: Callable[[int], Fraction], keys: list, shifted: list) -> OpenIntervalSet:
    """The violation set's runs on a sample whose ends are the pair's."""
    threshold = max(shifted[0], shifted[-1])
    runs: list[tuple[Fraction, Fraction]] = []
    i = 0
    # Neither end is marked, so each run has an unmarked neighbor on each side.
    for marked, run in groupby(keys, lambda key: key > threshold):
        n = sum(1 for _ in run)
        if marked:
            runs.append((position(i - 1), position(i + n)))
        i += n
    # The runs come out sorted and never overlap, as the constructor checks.
    return OpenIntervalSet._from_runs(runs)


@dataclass(frozen=True)
class Discrepancy:
    kind: str  # "unmatched_approx" or "missed_exact"
    interval: OpenInterval

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "u": format_rational(self.interval.left),
            "v": format_rational(self.interval.right),
        }


@dataclass(frozen=True)
class DiffReport:
    consistent: bool
    discrepancies: tuple[Discrepancy, ...]

    def to_json(self) -> dict:
        return {
            "consistent": self.consistent,
            "discrepancies": [d.to_json() for d in self.discrepancies],
        }


def _near_any(lefts: list[int], rights: list[int], slack: int) -> Callable[[int, int], bool]:
    """A test for whether some interval of a set, given by its ends on one
    integer scale, has both ends within slack of the given ends.  The
    intervals of a set are sorted and disjoint, so their left ends ascend
    and so do their right ends: each end condition selects one index
    range, found by bisection."""

    def near(left: int, right: int) -> bool:
        first = max(bisect_left(lefts, left - slack), bisect_left(rights, right - slack))
        stop = min(bisect_right(lefts, left + slack), bisect_right(rights, right + slack))
        return first < stop

    return near


def diff_report(
    exact: Union["ViolationDecomposition", OpenIntervalSet],
    approx: OpenIntervalSet,
    slack: Fraction,
) -> DiffReport:
    """Compare an exact decomposition against a grid approximation.

    Consistent iff every approximate interval lies within slack (both
    endpoints) of some exact component, and every exact component longer
    than twice the slack is matched by some approximate interval.  The
    slack must be at least the grid spacing of the approximation.

    Given a full decomposition, an approximate interval at most twice the
    slack wide that contains one of its ``isolated_violations`` is also
    matched: the grid marks such a breakpoint as a run of its own, which
    no open component can account for.

    Every end, isolated violation and the slack are scaled to integers
    over their least common denominator, and each match is found by
    bisection on those, so m exact and n approximate intervals cost
    O((m + n) log(m + n)) integer comparisons.
    """
    slack = as_rational(slack)
    if isinstance(exact, OpenIntervalSet):
        exact_set, isolated = exact, ()
    else:
        exact_set, isolated = exact.components, exact.isolated_violations
    groups = [
        [slack],
        isolated,
        [iv.left for iv in exact_set],
        [iv.right for iv in exact_set],
        [iv.left for iv in approx],
        [iv.right for iv in approx],
    ]
    ratios = [[q.as_integer_ratio() for q in group] for group in groups]
    den = math.lcm(*{d for group in ratios for _, d in group})
    [slack], points, exact_lefts, exact_rights, approx_lefts, approx_rights = (
        [n * (den // d) for n, d in group] for group in ratios
    )
    points.sort()
    near_exact = _near_any(exact_lefts, exact_rights, slack)
    near_approx = _near_any(approx_lefts, approx_rights, slack)

    def holds_isolated(left: int, right: int) -> bool:
        k = bisect_right(points, left)
        return k < len(points) and points[k] < right

    discrepancies: list[Discrepancy] = []
    for iv, l, r in zip(approx, approx_lefts, approx_rights):
        if not near_exact(l, r) and not (r - l <= 2 * slack and holds_isolated(l, r)):
            discrepancies.append(Discrepancy("unmatched_approx", iv))
    for iv, l, r in zip(exact_set, exact_lefts, exact_rights):
        if r - l > 2 * slack and not near_approx(l, r):
            discrepancies.append(Discrepancy("missed_exact", iv))
    return DiffReport(
        consistent=not discrepancies, discrepancies=tuple(discrepancies)
    )

