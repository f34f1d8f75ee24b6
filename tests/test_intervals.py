from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


# Ends whose denominators are distinct primes, so a sum over their least
# common denominator works with products of many primes.
PRIMES = [p for p in range(101, 400) if all(p % q for q in range(2, 20))]
coprime_ends = st.builds(lambda p, k: F(k, p), st.sampled_from(PRIMES), st.integers(0, 800))
# Runs as the walks hand them over, sorted ends paired in order (an equal
# pair is malformed), or pairs in any order, most of them malformed.
sorted_runs = st.lists(coprime_ends, max_size=12).map(lambda e: sorted(e)[: len(e) // 2 * 2]).map(
    lambda e: list(zip(e[::2], e[1::2]))
)
any_runs = st.lists(st.tuples(coprime_ends, coprime_ends), max_size=6)
BOUNDED = settings(derandomize=True, max_examples=100, deadline=None)


class TestFromRuns:
    @BOUNDED
    @given(st.one_of(sorted_runs, any_runs))
    def test_matches_the_public_constructors(self, runs):
        # The same set, or the same MalformedIntervalError text.
        try:
            expected = OpenIntervalSet(tuple(OpenInterval(u, v) for u, v in runs))
        except MalformedIntervalError as exc:
            with pytest.raises(MalformedIntervalError) as got:
                OpenIntervalSet._from_runs(runs)
            assert str(got.value) == str(exc)
        else:
            assert OpenIntervalSet._from_runs(runs) == expected

    def test_messages(self):
        with pytest.raises(MalformedIntervalError, match=r"^open interval needs left < right, got \]1/2, 1/3\[$"):
            OpenIntervalSet._from_runs([(F(0), F(1, 4)), (F(1, 2), F(1, 3))])
        with pytest.raises(
            MalformedIntervalError, match=r"^intervals \]0, 1/2\[ and \]1/3, 1\[ out of order or overlapping$"
        ):
            OpenIntervalSet._from_runs([(F(0), F(1, 2)), (F(1, 3), F(1))])


@BOUNDED
@given(st.lists(st.tuples(coprime_ends, coprime_ends).filter(lambda p: p[0] != p[1]), max_size=10))
def test_total_length_equals_the_fraction_sum(pairs):
    s = normalize(tuple(sorted(p)) for p in pairs)
    assert s.total_length() == sum((iv.right - iv.left for iv in s), F(0))


def test_serialization_sorted():
    s = normalize([iv("1/2", 1), iv(0, "1/4")])
    assert s.to_json() == [{"u": "0", "v": "1/4"}, {"u": "1/2", "v": "1"}]
