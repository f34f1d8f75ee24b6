from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qcvx import OpenInterval, OpenIntervalSet, normalize
from qcvx.errors import MalformedIntervalError

F = Fraction


def iv(a, b):
    return OpenInterval(F(a), F(b))


endpoints = st.fractions(min_value=0, max_value=1, max_denominator=64)
raw_intervals = st.lists(
    # Two distinct endpoints, sorted: every draw is a valid interval.
    st.lists(endpoints, min_size=2, max_size=2, unique=True).map(lambda p: iv(*sorted(p))),
    max_size=10,
)


class TestNormalize:
    def test_overlap_merges(self):
        got = normalize([iv(0, "1/2"), iv("1/4", "3/4")])
        assert got == OpenIntervalSet((iv(0, "3/4"),))

    def test_shared_endpoint_stays_split(self):
        got = normalize([iv(0, "1/2"), iv("1/2", 1)])
        assert got == OpenIntervalSet((iv(0, "1/2"), iv("1/2", 1)))

    def test_idempotent_on_single(self):
        got = normalize([iv("1/3", "2/3")])
        assert got == OpenIntervalSet((iv("1/3", "2/3"),))

    def test_malformed_rejected(self):
        with pytest.raises(MalformedIntervalError):
            iv(1, 0)
        with pytest.raises(MalformedIntervalError):
            iv("1/2", "1/2")

    def test_containment_merges(self):
        got = normalize([iv(0, 1), iv("1/4", "1/2")])
        assert got == OpenIntervalSet((iv(0, 1),))

    @given(raw_intervals)
    def test_idempotent(self, raw):
        once = normalize(raw)
        assert normalize(once.intervals) == once

    @given(raw_intervals, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, raw, rng):
        shuffled = list(raw)
        rng.shuffle(shuffled)
        assert normalize(shuffled) == normalize(raw)

    @given(raw_intervals, st.lists(endpoints, min_size=1, max_size=20))
    def test_contains_matches_naive_membership(self, raw, probes):
        s = normalize(raw)
        for t in probes:
            assert s.contains(t) == any(a.contains(t) for a in raw)


class TestContains:
    def test_inside(self):
        assert normalize([iv("1/3", "2/3")]).contains(F(1, 2))

    def test_endpoints_excluded(self):
        assert not normalize([iv("1/3", "2/3")]).contains(F(1, 3))

    def test_gap(self):
        s = normalize([iv(0, "1/4"), iv("3/4", 1)])
        assert not s.contains(F(1, 2))


class TestTotalLength:
    def test_single(self):
        assert normalize([iv("1/3", "2/3")]).total_length() == F(1, 3)

    def test_empty(self):
        assert normalize([]).total_length() == 0

    @given(raw_intervals)
    def test_invariant_under_normalize_when_disjoint(self, raw):
        s = normalize(raw)
        # The normalized intervals are disjoint by construction, so
        # re-normalizing them cannot change the measure.
        assert normalize(s.intervals).total_length() == s.total_length()

    @given(raw_intervals)
    def test_never_exceeds_raw_sum(self, raw):
        assert normalize(raw).total_length() <= sum((r.length for r in raw), F(0))


def test_serialization_sorted():
    s = normalize([iv("1/2", 1), iv(0, "1/4")])
    assert s.to_json() == [{"u": "0", "v": "1/4"}, {"u": "1/2", "v": "1"}]
