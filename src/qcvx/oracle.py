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

Exact models compare as integers: each finite value is scaled to the
least common multiple of the finite denominators on the grid, -inf sits
below every such key and +inf above.  Every per-point step (placing
breakpoints and piece midpoints among the uniform points, evaluating the
model in one sorted walk, comparing values) runs on Python integers, so
the Fraction work of one call grows with the breakpoint count only.
Black-box models compare as floats, where f(k) is strictly above f(i)
when it is above fl(f(i) + ``FLOAT_EPSILON``), on both grids alike.

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

# Near this size the oracle takes 0.02-0.04 s and 20 MB, mostly making and
# evaluating the Fraction grid (4,062 points, 2 vCPUs, Python 3.11); an
# ``oracle`` command makes one such grid when its pair is the domain.
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
    # The grid, keys and shifted keys of ``_sample``; not in the report.
    sample: Optional[tuple] = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "is_quasiconvex_on_grid": self.is_quasiconvex_on_grid,
            "violating_triples": [t.to_json() for t in self.violating_triples],
            "total_violations": self.total_violations,
            "grid": self.grid.to_json(),
        }


def _with_piece_midpoints(breaks: Sequence[Fraction]) -> list[Fraction]:
    """The ascending breakpoints with the midpoint of each consecutive
    pair between them: ``[b0, (b0 + b1) / 2, b1, ..., b_last]``.  The
    exact analyzer builds its own candidate list, so a fault here cannot
    hide from the differential tests."""
    out = [t for b0, b1 in zip(breaks, breaks[1:]) for t in (b0, (b0 + b1) / 2)]
    out += breaks[-1:]
    return out


def uniform_points(
    lo: Fraction, hi: Fraction, n: int, extras: Sequence[Fraction] = ()
) -> tuple[int, Callable[[], list[Fraction]]]:
    """The n rationals lo + (hi - lo) * i / (n - 1) with the ascending
    ``extras`` from [lo, hi] merged in: the merged count, found on
    integers, and a function that makes the sorted list without repeats.
    Uniform point i is (start + stride * i) / den; each extra finds its
    slot by one integer division, which also tells whether it is a
    uniform point already."""
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    den, start, stride = ld * hd * (n - 1), ln * hd * (n - 1), hn * ld - ln * hd
    # p lies r / (stride * p.denominator) of a step past uniform point q.
    slots = [
        (*divmod(p.numerator * den - start * p.denominator, stride * p.denominator), p)
        for p in extras
    ]

    def build() -> list[Fraction]:
        points: list[Fraction] = []
        i = 0
        for q, r, p in slots:
            points += [Fraction(start + stride * j, den) for j in range(i, q + 1)]
            i = q + 1
            if r:
                points.append(p)
        points += [Fraction(start + stride * j, den) for j in range(i, n)]
        return points

    return n + sum(1 for _, r, _ in slots if r), build


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
    if grid_points < 3:
        raise ParameterRangeError("grid_points must be at least 3")
    a, b = f.domain
    lo = a if lo is None else as_rational(lo)
    hi = b if hi is None else as_rational(hi)
    if not lo < hi:
        raise ParameterRangeError("grid needs lo < hi")
    bps = f.breakpoints()
    breaks = bps[bisect_left(bps, lo) : bisect_right(bps, hi)]
    midpoints = isinstance(f, PiecewiseConstant)
    if midpoints and 2 * len(breaks) - 1 > MAX_GRID_POINTS:
        # The breakpoints and the piece midpoints are distinct grid points.
        _refuse_grid(f"at least {2 * len(breaks) - 1}", grid_points)
    if isinstance(f, Tabulated):
        size, build = len(breaks), lambda: list(breaks)
    else:
        extras = _with_piece_midpoints(breaks) if midpoints else breaks
        size, build = uniform_points(lo, hi, grid_points, extras)
    if size > MAX_GRID_POINTS:
        _refuse_grid(size, grid_points)
    return build()


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
    """The grid on [x, y], x and y added where it lacks them, and keys with
    f(k) strictly above f(i) iff keys[k] > shifted[i]: integer keys for
    both, or floats and fl(f + FLOAT_EPSILON)."""
    grid = build_grid(f, grid_points, x, y)
    if not grid or grid[0] != x:
        grid.insert(0, x)
    if grid[-1] != y:
        grid.append(y)
    values = f.evaluate_sorted(grid)
    if f.is_exact or isinstance(f, Tabulated):
        keys = _integer_keys(values)
        return grid, keys, keys
    keys = [float(v) for v in values]
    eps = float(FLOAT_EPSILON)
    return grid, keys, [key + eps for key in keys]


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
    grid, keys, shifted = sample = _sample(f, grid_points, *f.domain)
    g = len(grid)
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
        ViolatingTriple(t_x=grid[i], t_y=grid[j], t_z=grid[k])
        for i in range(g)
        if reach[i + 1] > shifted[i]
        for k in range(i + 1, g)
        if below[k] and keys[k] > shifted[i]
        for j in range(k + 1, g)
        if keys[k] > shifted[j]
    )
    found = list(islice(witnesses, max(max_triples, 0)))
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
        violating_triples=tuple(found),
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
    grid = verdict.sample[0]
    if grid[0] != x or grid[-1] != y:
        return oracle_violation_set(f, x, y, verdict.grid.resolution)
    return _runs(*verdict.sample)


def _runs(grid: list[Fraction], keys: list, shifted: list) -> OpenIntervalSet:
    """The violation set's runs on a sample whose ends are the pair's."""
    threshold = max(shifted[0], shifted[-1])
    runs: list[tuple[Fraction, Fraction]] = []
    i = 0
    # Neither end is marked, so each run has an unmarked neighbor on each side.
    for marked, run in groupby(keys, lambda key: key > threshold):
        n = sum(1 for _ in run)
        if marked:
            runs.append((grid[i - 1], grid[i + n]))
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


def _near_any(
    intervals: OpenIntervalSet, slack: Fraction
) -> Callable[[OpenInterval], bool]:
    """A test for whether some interval of the set has both ends within
    slack of the ends of a given interval.  The intervals of a set are
    sorted and disjoint, so their left ends ascend and so do their right
    ends: each end condition selects one index range, found by bisection."""
    lefts = [iv.left for iv in intervals]
    rights = [iv.right for iv in intervals]

    def near(iv: OpenInterval) -> bool:
        first = max(
            bisect_left(lefts, iv.left - slack), bisect_left(rights, iv.right - slack)
        )
        stop = min(
            bisect_right(lefts, iv.left + slack), bisect_right(rights, iv.right + slack)
        )
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

    Each match is found by bisection, so m exact and n approximate
    intervals cost O((m + n) log(m + n)) comparisons.
    """
    slack = as_rational(slack)
    if isinstance(exact, OpenIntervalSet):
        exact_set, isolated = exact, []
    else:
        exact_set, isolated = exact.components, sorted(exact.isolated_violations)
    near_exact, near_approx = _near_any(exact_set, slack), _near_any(approx, slack)

    def holds_isolated(iv: OpenInterval) -> bool:
        k = bisect_right(isolated, iv.left)
        return k < len(isolated) and isolated[k] < iv.right

    discrepancies: list[Discrepancy] = []
    for approx_iv in approx:
        if not near_exact(approx_iv) and not (
            approx_iv.length <= 2 * slack and holds_isolated(approx_iv)
        ):
            discrepancies.append(Discrepancy("unmatched_approx", approx_iv))
    for exact_iv in exact_set:
        if exact_iv.length > 2 * slack and not near_approx(exact_iv):
            discrepancies.append(Discrepancy("missed_exact", exact_iv))
    return DiffReport(
        consistent=not discrepancies, discrepancies=tuple(discrepancies)
    )
