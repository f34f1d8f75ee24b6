"""Brute-force ground truth by direct evaluation on dense grids.

The oracle evaluates the defining inequality f(z) <= max(f(x), f(y)) for
every ordered grid triple, with no structural shortcuts shared with the
exact analyzer.  With boolean matrices ``left[i, k]`` (i < k and
f(k) > f(i)) and ``right[k, j]`` (k < j and f(k) > f(j)), the triple
(i, k, j) violates iff both hold, so the matrix product ``left @ right``
counts, for each outer pair (i, j), every violating middle k literally.
Witnesses are collected row by row in (i, k, j) index order.  Exact
models compare as rationals through an order-preserving rank encoding;
black-box models compare as floats with an epsilon margin on strictness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .core import ToleranceConfig, XReal, as_rational, format_rational
from .errors import ParameterRangeError
from .functions import Function1D, PiecewiseConstant, Tabulated
from .intervals import OpenInterval, OpenIntervalSet, normalize
from .violations import ViolationDecomposition


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

    def to_json(self) -> dict:
        return {
            "is_quasiconvex_on_grid": self.is_quasiconvex_on_grid,
            "violating_triples": [t.to_json() for t in self.violating_triples],
            "total_violations": self.total_violations,
            "grid": self.grid.to_json(),
        }


def build_grid(
    f: Function1D,
    cfg: ToleranceConfig,
    lo: Optional[Fraction] = None,
    hi: Optional[Fraction] = None,
    *,
    piece_midpoints: bool = False,
) -> list[Fraction]:
    """Uniformly spaced rationals plus the model's breakpoints in range.

    With ``piece_midpoints`` the midpoint of every pair of consecutive
    breakpoints is added, so constant pieces narrower than the uniform
    spacing always receive an interior sample.
    """
    a, b = f.domain
    lo = a if lo is None else as_rational(lo)
    hi = b if hi is None else as_rational(hi)
    if not lo < hi:
        raise ParameterRangeError("grid needs lo < hi")
    if isinstance(f, Tabulated):
        return [p for p in f.positions if lo <= p <= hi]
    step = (hi - lo) / (cfg.grid_points - 1)
    # lo + i * step over one common denominator: one Fraction per point.
    den = lo.denominator * step.denominator
    start = lo.numerator * step.denominator
    stride = step.numerator * lo.denominator
    points = [Fraction(start + stride * i, den) for i in range(cfg.grid_points)]
    breaks = [p for p in f.breakpoints() if lo <= p <= hi]
    points += breaks
    if piece_midpoints:
        points += [(b0 + b1) / 2 for b0, b1 in zip(breaks, breaks[1:])]
    # Ascending runs: the sort merges them in linear time.
    points.sort()
    return [p for p, prev in zip(points, [None] + points) if p != prev]


def _rank_values(values: Sequence[XReal]) -> np.ndarray:
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return np.array([order[v] for v in values], dtype=np.int64)


def oracle_quasiconvex(
    f: Function1D,
    cfg: Optional[ToleranceConfig] = None,
    *,
    max_triples: int = 50,
) -> OracleVerdict:
    """Check every ordered grid triple against the defining inequality.

    Exact models use exact rational comparisons (via ranks); black-box
    models compare floats, where strict violation means exceeding the
    competitor by more than ``cfg.float_epsilon``.  The triples list is
    capped at ``max_triples`` in deterministic index order;
    ``total_violations`` counts all of them.
    """
    cfg = cfg or ToleranceConfig()
    float_mode = not f.is_exact and not isinstance(f, Tabulated)
    grid = build_grid(
        f, cfg, piece_midpoints=isinstance(f, PiecewiseConstant)
    )
    if float_mode:
        vals = np.array([float(f.evaluate(t)) for t in grid], dtype=np.float64)
        eps = float(cfg.float_epsilon)
        above = vals[None, :] > vals[:, None] + eps  # above[i, k]: f(k) > f(i) + eps
    else:
        ranks = _rank_values([f.evaluate(t) for t in grid])
        above = ranks[None, :] > ranks[:, None]  # above[i, k]: f(k) > f(i)
    g = len(grid)
    idx = np.arange(g)
    lower = idx[:, None] < idx[None, :]
    left = above & lower          # left[i, k]: i < k and f(k) > f(i)
    right = above.T & lower       # right[k, j]: k < j and f(k) > f(j)
    # counts[i, j]: violating middles k of the outer pair (i, j).  Each
    # entry is at most g, so the float64 product is exact.
    counts = (left.astype(np.float64) @ right.astype(np.float64)).astype(np.int64)
    total = int(counts.sum())
    found: list[ViolatingTriple] = []
    for i in np.flatnonzero(counts.any(axis=1)):
        if len(found) >= max_triples:
            break
        middles = np.flatnonzero(left[i])
        for m, j in np.argwhere(right[middles]):
            found.append(
                ViolatingTriple(
                    t_x=grid[int(i)], t_y=grid[int(j)], t_z=grid[int(middles[m])]
                )
            )
            if len(found) >= max_triples:
                break
    info = GridInfo(
        resolution=cfg.grid_points,
        total_points=g,
        includes_breakpoints=not isinstance(f, Tabulated),
        includes_piece_midpoints=isinstance(f, PiecewiseConstant),
        lo=f.domain[0],
        hi=f.domain[1],
        float_mode=float_mode,
        float_epsilon=cfg.float_epsilon if float_mode else None,
    )
    return OracleVerdict(
        is_quasiconvex_on_grid=total == 0,
        violating_triples=tuple(found),
        total_violations=total,
        grid=info,
    )


def oracle_violation_set(
    f: Function1D,
    x: Fraction,
    y: Fraction,
    cfg: Optional[ToleranceConfig] = None,
) -> OpenIntervalSet:
    """Grid approximation of the violation set of the pair (x, y).

    Marks grid points with f strictly above max(f(x), f(y)) and reports
    each maximal run of consecutive marked points as the open interval
    between the unmarked neighbors of its first and last point.  This is
    a resolution-limited approximation: components narrower than the
    local spacing can be missed, and reported endpoints are accurate only
    to one grid cell.
    """
    cfg = cfg or ToleranceConfig()
    x, y = as_rational(x), as_rational(y)
    if not x < y:
        raise ParameterRangeError("oracle_violation_set needs x < y")
    grid = build_grid(f, cfg, x, y)
    if grid[0] != x:
        grid.insert(0, x)
    if grid[-1] != y:
        grid.append(y)
    values = [f.evaluate(t) for t in grid]
    threshold = max(values[0], values[-1])
    marked = [v > threshold for v in values]
    runs: list[OpenInterval] = []
    i = 0
    while i < len(grid):
        if marked[i]:
            j = i
            while j + 1 < len(grid) and marked[j + 1]:
                j += 1
            runs.append(OpenInterval(grid[i - 1], grid[j + 1]))
            i = j + 1
        i += 1
    return normalize(runs)


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


def _interval_distance(a: OpenInterval, b: OpenInterval) -> Fraction:
    return max(abs(a.left - b.left), abs(a.right - b.right))


def diff_report(
    exact: Union[ViolationDecomposition, OpenIntervalSet],
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
    """
    slack = as_rational(slack)
    if isinstance(exact, ViolationDecomposition):
        exact_set, isolated = exact.components, exact.isolated_violations
    else:
        exact_set, isolated = exact, ()
    discrepancies: list[Discrepancy] = []
    for approx_iv in approx:
        if not any(
            _interval_distance(approx_iv, exact_iv) <= slack for exact_iv in exact_set
        ) and not (
            approx_iv.length <= 2 * slack
            and any(approx_iv.contains(p) for p in isolated)
        ):
            discrepancies.append(Discrepancy("unmatched_approx", approx_iv))
    for exact_iv in exact_set:
        if exact_iv.length > 2 * slack and not any(
            _interval_distance(approx_iv, exact_iv) <= slack for approx_iv in approx
        ):
            discrepancies.append(Discrepancy("missed_exact", exact_iv))
    return DiffReport(
        consistent=not discrepancies, discrepancies=tuple(discrepancies)
    )
