"""Normalized finite unions of disjoint nonempty open intervals.

The canonical form merges overlapping intervals but keeps intervals that
meet only at a single shared endpoint separate: that point belongs to
neither open interval, and merging would change membership there.

The exact analyses, the oracle and ``normalize`` build their sets with
``OpenIntervalSet._from_runs`` from the ends of runs found in order.  It
checks that each run has left < right, and the set constructor that
each run starts at or after the right end of the one before, both on
integer cross products of the ends' numerators and denominators, with
the ``MalformedIntervalError`` texts of the public constructors.
``total_length`` is one integer sum over the least common denominator of
the ends (``_ratio_sum``, by which the report records of ``qcvx analyze``
also sum their runs' lengths).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import RationalLike, as_rational, format_rational
from .errors import MalformedIntervalError


@dataclass(frozen=True)
class OpenInterval:
    """A nonempty open interval ]left, right[."""

    left: Fraction
    right: Fraction

    def __post_init__(self):
        object.__setattr__(self, "left", as_rational(self.left))
        object.__setattr__(self, "right", as_rational(self.right))
        if not self.left < self.right:
            raise MalformedIntervalError(
                f"open interval needs left < right, got "
                f"]{self.left}, {self.right}["
            )

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def contains(self, t: RationalLike) -> bool:
        t = as_rational(t)
        return self.left < t < self.right

    def __repr__(self) -> str:
        return f"]{self.left}, {self.right}["


@dataclass(frozen=True)
class OpenIntervalSet:
    """A sorted tuple of pairwise disjoint nonempty open intervals.

    The constructor checks but does not repair ordering and disjointness;
    :func:`normalize` builds one from intervals in any order.
    """

    intervals: tuple[OpenInterval, ...] = ()

    def __post_init__(self):
        for prev, nxt in zip(self.intervals, self.intervals[1:]):
            (rn, rd), (ln, ld) = prev.right.as_integer_ratio(), nxt.left.as_integer_ratio()
            if not rn * ld <= ln * rd:
                raise MalformedIntervalError(
                    f"intervals {prev} and {nxt} out of order or overlapping"
                )

    @classmethod
    def _from_runs(cls, runs: Sequence[tuple[Fraction, Fraction]]) -> "OpenIntervalSet":
        """The set of the intervals ]left, right[ of ``runs``, checked on
        integers with the errors of the constructors; ends kept as given."""
        intervals = []
        for left, right in runs:
            (ln, ld), (rn, rd) = left.as_integer_ratio(), right.as_integer_ratio()
            if not ln * rd < rn * ld:
                raise MalformedIntervalError(f"open interval needs left < right, got ]{left}, {right}[")
            iv = object.__new__(OpenInterval)  # made without __init__: checked above
            iv.__dict__.update(left=left, right=right)
            intervals.append(iv)
        return cls(tuple(intervals))

    def __iter__(self) -> Iterator[OpenInterval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, t: RationalLike) -> bool:
        """Membership test, binary search over the sorted left endpoints."""
        t = as_rational(t)
        idx = bisect_left(self.intervals, t, key=lambda iv: iv.left)
        # The only candidate is the rightmost interval with left < t.
        if idx == 0:
            return False
        candidate = self.intervals[idx - 1]
        return candidate.left < t < candidate.right

    def total_length(self) -> Fraction:
        """The sum of the interval lengths: the integer ratios of the right
        ends added and of the left ends subtracted, by ``_ratio_sum``."""
        terms = []
        for iv in self.intervals:
            (ln, ld), (rn, rd) = iv.left.as_integer_ratio(), iv.right.as_integer_ratio()
            terms += ((rn, rd), (-ln, ld))
        return Fraction(*_ratio_sum(terms))

    def to_json(self) -> list[dict]:
        return [
            {"u": format_rational(iv.left), "v": format_rational(iv.right)}
            for iv in self.intervals
        ]


def _ratio_sum(terms: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the integer ratios n / d, d > 0, as integers n / den
    over den, their least common denominator, not reduced."""
    den = math.lcm(*(d for _, d in terms))
    return sum(n * (den // d) for n, d in terms), den


def normalize(raw: Iterable[OpenInterval | tuple]) -> OpenIntervalSet:
    """Canonical form of a union of open intervals.

    Overlapping intervals (shared interior) merge; intervals that touch at
    a single point stay separate because the shared endpoint is absent
    from the open union.  The result is sorted and independent of input
    order.
    """
    items = []
    for entry in raw:
        if not isinstance(entry, OpenInterval):
            left, right = entry
            entry = OpenInterval(left, right)
        items.append((entry.left, entry.right))
    items.sort()
    merged: list[tuple[Fraction, Fraction]] = []
    for left, right in items:
        if merged and left < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(right, merged[-1][1]))
        else:
            merged.append((left, right))
    return OpenIntervalSet._from_runs(merged)
