"""Shared independent oracles for the test suite.

These helpers deliberately avoid the library's analysis code paths: set
membership walks base-3 digits, extrema come from dense evaluation
sweeps, and local maxima are classified by direct comparison on offset
grids.  Derived expected values in the tests are computed (or frozen
from) these.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from qcvx import cli
from qcvx import MINUS_INF, PLUS_INF, PiecewiseConstant, PiecewiseLinear, XReal, generate_cantor
from qcvx.corpus import random_piecewise_linear
from qcvx.oracle import MAX_GRID_POINTS

ACCEPTANCE_LINES: list[str] = []

# For tools/mutation_gate.py: a mutant is killed by any failing example,
# so the gate skips shrinking it, which took 35 of the 40 s one run did.
settings.register_profile("mutation-gate", phases=[Phase.explicit, Phase.reuse, Phase.generate])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture()
def point_budget(monkeypatch):
    """Let the oracle and the certificate revalidation make at most
    ``MAX_GRID_POINTS`` grid points between them: a grid that is built
    where it should be refused then fails at once, instead of filling
    memory."""
    made = itertools.count(1)

    def counted(*args):
        if next(made) > MAX_GRID_POINTS:
            raise AssertionError(f"more than {MAX_GRID_POINTS} grid points were made")
        return Fraction(*args)

    for module in ("qcvx.oracle", "qcvx.certificates"):
        monkeypatch.setattr(f"{module}.Fraction", counted)


def report_text(obj) -> str:
    """The text the report writer, ``cli._emit``, makes of ``obj``, its
    pieces joined in memory: ``json.dumps(obj, indent=2,
    allow_nan=False)`` byte for byte, which the writer tests check."""
    parts: list[str] = []
    cli._emit(obj, parts.append, "\n")
    return "".join(parts)


def cantor_membership(t: Fraction, depth: int) -> bool:
    """Digit-walk membership test for the depth-k middle-thirds set."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        return False
    for _ in range(depth):
        if t <= Fraction(1, 3):
            t = 3 * t
        elif t >= Fraction(2, 3):
            t = 3 * t - 2
        else:
            return False
    return True


def middle_thirds_components(depth: int) -> list[tuple[Fraction, Fraction]]:
    """Closed intervals remaining after k middle-third removals."""
    parts = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        parts = [
            piece
            for a, b in parts
            for piece in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))
        ]
    return parts


def removed_open_intervals(depth: int) -> list[tuple[Fraction, Fraction]]:
    """The open middle thirds removed during the first k rounds."""
    kept = middle_thirds_components(depth)
    out = []
    for (_, r0), (l1, _) in zip(kept, kept[1:]):
        out.append((r0, l1))
    return out


def uniform_grid(lo: Fraction, hi: Fraction, n: int) -> list[Fraction]:
    lo, hi = Fraction(lo), Fraction(hi)
    return [lo + (hi - lo) * Fraction(i, n - 1) for i in range(n)]


def refined_grid(f, n: int) -> list[Fraction]:
    """Uniform grid joined with all breakpoints and piece midpoints."""
    a, b = f.domain
    pts = set(uniform_grid(a, b, n))
    bps = f.breakpoints()
    pts.update(bps)
    for b0, b1 in zip(bps, bps[1:]):
        pts.add((b0 + b1) / 2)
    return sorted(pts)


def sweep_min(f, lo: Fraction, hi: Fraction, n: int = 400):
    """Dense-sweep minimum over the open interval: (value, argmin)."""
    best = None
    arg = None
    for t in uniform_grid(lo, hi, n)[1:-1]:
        v = f.evaluate(t)
        if best is None or v < best:
            best, arg = v, t
    return best, arg


def is_local_max_on_grid(f, p: Fraction, delta: Fraction, steps: int = 16) -> dict:
    """Classify p by direct evaluation at offsets within delta."""
    fp = f.evaluate(p)
    left = [f.evaluate(p - delta * Fraction(i, steps)) for i in range(1, steps + 1)]
    right = [f.evaluate(p + delta * Fraction(i, steps)) for i in range(1, steps + 1)]
    return {
        "local_max": all(v <= fp for v in left) and all(v <= fp for v in right),
        "strict_left": all(v < fp for v in left),
        "strict_right": all(v < fp for v in right),
    }


def random_pwc(seed: int, *, pieces: int = 5, allow_infinite: bool = False) -> PiecewiseConstant:
    rng = random.Random(seed)
    inner = sorted(rng.sample(range(1, 60), pieces - 1))
    breaks = [Fraction(0)] + [Fraction(i, 60) for i in inner] + [Fraction(1)]

    def draw() -> XReal:
        if allow_infinite and rng.random() < 0.1:
            return PLUS_INF if rng.random() < 0.5 else MINUS_INF
        return XReal(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))))

    piece_values = [draw() for _ in range(len(breaks) - 1)]
    point_values = [draw() for _ in range(len(breaks))]
    return PiecewiseConstant(tuple(breaks), tuple(piece_values), tuple(point_values))


def has_violating_triple_on_grid(f, grid: list[Fraction]) -> bool:
    """Literal scan: some x < z < y on the grid with f(z) > max(f(x), f(y))."""
    values = [f.evaluate(t) for t in grid]
    n = len(values)
    prefix = values[:]
    for i in range(1, n):
        prefix[i] = min(prefix[i], prefix[i - 1])
    suffix = values[:]
    for i in range(n - 2, -1, -1):
        suffix[i] = min(suffix[i], suffix[i + 1])
    for k in range(1, n - 1):
        if prefix[k - 1] < values[k] and suffix[k + 1] < values[k]:
            return True
    return False


def coprime_linear(seed: int, knots: int = 10) -> PiecewiseLinear:
    """A piecewise-linear model whose positions and values have distinct
    prime denominators from 10^4 up, so the common denominators of its
    positions and of its values are products of many primes.  The prime
    pool grows with the knot count; up to 19 knots it is the primes in
    [10007, 10500)."""
    rng = random.Random(seed)
    top = max(10500, 10007 + 25 * knots)
    primes = [p for p in range(10007, top) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    chosen = rng.sample(primes, 2 * knots)
    inner = sorted({Fraction(rng.randint(1, p - 1), p) for p in chosen[:knots]})
    positions = [Fraction(0), *inner, Fraction(1)]
    values = [Fraction(rng.randint(-40, 40), rng.choice(chosen[knots:])) for _ in positions]
    return PiecewiseLinear(tuple(zip(positions, values)))


def kernel_models() -> dict[str, list]:
    """Exact models of every kind the structure index serves: Cantor
    indicators (usc or lsc only), piecewise-constant models with +-inf
    values that are often neither lsc nor usc, and piecewise-linear ones."""
    return {
        "cantor": [generate_cantor(d, m) for d in (1, 2, 3, 4) for m in ("set", "complement")],
        "pwc": [random_pwc(s, pieces=2 + s % 12, allow_infinite=True) for s in range(30)],
        "pl": [random_piecewise_linear(2 + s % 14, 700 + s) for s in range(30)],
    }


def structural_positions(f) -> list[Fraction]:
    """Breakpoints read from the model's own fields."""
    if isinstance(f, PiecewiseLinear):
        return [p for p, _ in f.knots]
    return list(f.breaks)


def reference_value(f, t: Fraction) -> XReal:
    """f(t) by a linear scan over the model's own fields."""
    t = Fraction(t)
    if isinstance(f, PiecewiseLinear):
        for (p0, v0), (p1, v1) in zip(f.knots, f.knots[1:]):
            if p0 <= t <= p1:
                return XReal(v0 + (v1 - v0) * (t - p0) / (p1 - p0))
    else:
        for i, b in enumerate(f.breaks):
            if b == t:
                return f.point_values[i]
        for i, (b0, b1) in enumerate(zip(f.breaks, f.breaks[1:])):
            if b0 < t < b1:
                return f.piece_values[i]
    raise ValueError(f"{t} outside the domain")


def reference_cells(f, lo: Fraction, hi: Fraction) -> list[tuple]:
    """The structure of f on [lo, hi] by filtering every breakpoint, as
    tuples in order: ``("point", t, f(t))`` for lo, each breakpoint inside
    and hi, and between each two of them ``("const", l, r, value)`` for a
    piecewise-constant model or ``("affine", l, r, f(l), f(r))`` for a
    piecewise-linear one."""
    cuts = [lo] + [p for p in structural_positions(f) if lo < p < hi] + [hi]
    cells = [("point", lo, reference_value(f, lo))]
    for left, right in zip(cuts, cuts[1:]):
        if isinstance(f, PiecewiseLinear):
            cells.append(
                ("affine", left, right, reference_value(f, left), reference_value(f, right))
            )
        else:
            cells.append(("const", left, right, reference_value(f, (left + right) / 2)))
        cells.append(("point", right, reference_value(f, right)))
    return cells


def probe_points(f, rng: random.Random) -> list[Fraction]:
    """Every breakpoint (domain ends included) and one random point inside
    each piece, sorted."""
    bps = structural_positions(f)
    inside = [b0 + (b1 - b0) * Fraction(rng.randint(1, 7), 8) for b0, b1 in zip(bps, bps[1:])]
    return sorted(set(bps) | set(inside))
