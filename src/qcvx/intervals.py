"""Normalized finite unions of disjoint nonempty open intervals.

The canonical form merges overlapping intervals but keeps intervals that
meet only at a single shared endpoint separate: that point belongs to
neither open interval, and merging would change membership there.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

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
            if not prev.right <= nxt.left:
                raise MalformedIntervalError(
                    f"intervals {prev} and {nxt} out of order or overlapping"
                )

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
        return self._total_length

    @cached_property
    def _total_length(self) -> Fraction:
        # A report asks for the total more than once; the sum is a chain
        # of Fraction additions, so it is made once per set.
        return sum((iv.length for iv in self.intervals), Fraction(0))

    def to_json(self) -> list[dict]:
        return [
            {"u": format_rational(iv.left), "v": format_rational(iv.right)}
            for iv in self.intervals
        ]


EMPTY_SET = OpenIntervalSet()


def normalize(raw: Iterable[OpenInterval | tuple]) -> OpenIntervalSet:
    """Canonical form of a union of open intervals.

    Overlapping intervals (shared interior) merge; intervals that touch at
    a single point stay separate because the shared endpoint is absent
    from the open union.  The result is sorted and independent of input
    order.
    """
    items: list[OpenInterval] = []
    for entry in raw:
        if isinstance(entry, OpenInterval):
            items.append(entry)
        else:
            left, right = entry
            items.append(OpenInterval(as_rational(left), as_rational(right)))
    if not items:
        return EMPTY_SET
    items.sort(key=lambda iv: (iv.left, iv.right))
    merged: list[OpenInterval] = []
    cur_left, cur_right = items[0].left, items[0].right
    for iv in items[1:]:
        if iv.left < cur_right:
            if iv.right > cur_right:
                cur_right = iv.right
        else:
            merged.append(OpenInterval(cur_left, cur_right))
            cur_left, cur_right = iv.left, iv.right
    merged.append(OpenInterval(cur_left, cur_right))
    return OpenIntervalSet(tuple(merged))

