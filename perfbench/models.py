"""Seeded model generators and an independent evaluator.

The benchmark builds its own inputs instead of calling ``qcvx.corpus``, so
that a change to the library's generators cannot silently change what is
measured.  Each model is kept in a plain form (breakpoints and values as
``Fraction`` or +-inf) that the reference answers evaluate directly; the
library only ever sees the JSON document written from it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Value = Union[Fraction, float]  # a Fraction, or math.inf / -math.inf

POSITION_GRAIN = 2520  # random knot positions live on this grid
VALUE_GRAIN = 16  # random knot values are multiples of 1/16 in [0, 10]


def fmt(q: Value) -> str:
    if q == math.inf:
        return "inf"
    if q == -math.inf:
        return "-inf"
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Linear:
    """Continuous piecewise-linear model through ``knots``."""

    knots: tuple[tuple[Fraction, Fraction], ...]

    @property
    def breaks(self) -> tuple[Fraction, ...]:
        return tuple(p for p, _ in self.knots)

    def value(self, t: Fraction) -> Value:
        breaks = self.breaks
        i = bisect_left(breaks, t)
        if i < len(breaks) and breaks[i] == t:
            return self.knots[i][1]
        (p0, v0), (p1, v1) = self.knots[i - 1], self.knots[i]
        return v0 + (v1 - v0) * (t - p0) / (p1 - p0)

    def doc(self) -> dict:
        return {
            "type": "piecewise_linear",
            "domain": [fmt(self.knots[0][0]), fmt(self.knots[-1][0])],
            "knots": [[fmt(p), fmt(v)] for p, v in self.knots],
        }


@dataclass(frozen=True)
class Constant:
    """Open constant pieces with an explicit value at every breakpoint.

    ``doc_override`` replaces the written document (the compact ``cantor``
    form), while ``breaks``/``pieces``/``points`` stay the benchmark's own
    construction that the reference evaluates.
    """

    breaks: tuple[Fraction, ...]
    pieces: tuple[Value, ...]
    points: tuple[Value, ...]
    doc_override: Union[dict, None] = None

    def value(self, t: Fraction) -> Value:
        i = bisect_left(self.breaks, t)
        if i < len(self.breaks) and self.breaks[i] == t:
            return self.points[i]
        return self.pieces[i - 1]

    def is_lsc_at(self, i: int) -> bool:
        limits = [self.pieces[j] for j in (i - 1, i) if 0 <= j < len(self.pieces)]
        return self.points[i] <= min(limits)

    def doc(self) -> dict:
        if self.doc_override is not None:
            return dict(self.doc_override)
        return {
            "type": "piecewise_constant",
            "breaks": [fmt(b) for b in self.breaks],
            "piece_values": [fmt(v) for v in self.pieces],
            "point_values": [fmt(v) for v in self.points],
        }


Model = Union[Linear, Constant]


def random_linear(knot_count: int, seed: int) -> Linear:
    """Random piecewise-linear model on [0, 1] with values on a 1/16 grid,
    so plateaus and ties occur."""
    rng = random.Random(seed)
    inner = sorted(rng.sample(range(1, POSITION_GRAIN), knot_count - 2))
    positions = [Fraction(0)] + [Fraction(i, POSITION_GRAIN) for i in inner] + [Fraction(1)]
    values = [Fraction(rng.randint(0, 10 * VALUE_GRAIN), VALUE_GRAIN) for _ in range(knot_count)]
    return Linear(tuple(zip(positions, values)))


def random_constant(pieces: int, seed: int) -> Constant:
    """Random piecewise-constant model on [0, 1]: breaks on a 1/60 grid,
    values in [-8, 8] with +-inf one time in ten, and point values drawn
    independently of the pieces, so most models are neither lsc nor usc."""
    rng = random.Random(seed)
    inner = sorted(rng.sample(range(1, 60), pieces - 1))
    breaks = [Fraction(0)] + [Fraction(i, 60) for i in inner] + [Fraction(1)]

    def draw() -> Value:
        if rng.random() < 0.1:
            return math.inf if rng.random() < 0.5 else -math.inf
        return Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))

    piece_values = tuple(draw() for _ in range(len(breaks) - 1))
    point_values = tuple(draw() for _ in range(len(breaks)))
    return Constant(tuple(breaks), piece_values, point_values)


def cantor(depth: int, mode: str) -> Constant:
    """Indicator of the depth-k middle-thirds approximant ("set") or of its
    removed open set ("complement"), built here from the intervals that
    survive k removals.  The document is the compact ``cantor`` form, so
    the library generates its own copy."""
    parts = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        parts = [q for a, b in parts for q in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
    breaks = tuple(e for a, b in parts for e in (a, b))
    inside, outside = (Fraction(1), Fraction(0)) if mode == "set" else (Fraction(0), Fraction(1))
    pieces = tuple(inside if i % 2 == 0 else outside for i in range(len(breaks) - 1))
    return Constant(
        breaks,
        pieces,
        (inside,) * len(breaks),
        doc_override={"type": "cantor", "depth": depth, "mode": mode},
    )
