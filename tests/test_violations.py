import random
from fractions import Fraction

import pytest

from conftest import (
    coprime_linear,
    kernel_models,
    probe_points,
    random_pwc,
    reference_value,
    refined_grid,
    removed_open_intervals,
    structural_positions,
    uniform_grid,
)
from qcvx import (
    MINUS_INF,
    OpenInterval,
    OpenIntervalSet,
    PLUS_INF,
    PiecewiseConstant,
    PiecewiseLinear,
    XReal,
    analyze_pairs,
    check_semicontinuity,
    convexity_violation_set,
    generate_cantor,
    interior_witness_exists,
    is_quasiconvex,
    normalize,
    paired_maxima_certificate,
    verify_chord_components,
    verify_component_property,
    violation_set,
)
from qcvx.corpus import (
    monotone,
    monotone_concave,
    random_corpus,
    random_piecewise_linear,
    tent,
    vee,
)
from qcvx.errors import (
    ConsistencyError,
    InexactModelError,
    MalformedIntervalError,
    OrderingError,
    UnsupportedChordError,
)
from qcvx import cli, violations
from qcvx.functions import _chord, _sweep
from qcvx.violations import ComponentCheck, ViolationDecomposition, _pair

F = Fraction


def iv(a, b):
    return OpenInterval(F(a), F(b))


class TestViolationSet:
    def test_tent_full_interior(self):
        d = violation_set(tent(), 0, 1)
        assert d.threshold == XReal(0)
        assert d.components == normalize([iv(0, 1)])
        assert not d.isolated_violations

    def test_cantor_complement_depth1(self):
        d = violation_set(generate_cantor(1, "complement"), 0, 1)
        assert d.components == normalize([iv("1/3", "2/3")])

    def test_monotone_always_empty(self):
        f = monotone()
        for x in uniform_grid(F(0), F(1), 6)[:-1]:
            for y in uniform_grid(x, F(1), 4)[1:]:
                assert violation_set(f, x, y).components.is_empty

    def test_cantor_complement_depth6_components(self):
        d = violation_set(generate_cantor(6, "complement"), 0, 1)
        expected = normalize(iv(a, b) for a, b in removed_open_intervals(6))
        assert d.components == expected
        assert len(d.components) == 63

    def test_isolated_breakpoint_violations_flag_non_lsc(self):
        # Indicator of the depth-2 middle-thirds set: on ]1/6, 1/2[ the
        # retained interval [2/9, 1/3] is above the threshold, and its
        # closed endpoints are not interior to the open component.
        f = generate_cantor(2, "set")
        d = violation_set(f, F(1, 6), F(1, 2))
        assert d.components == normalize([iv("2/9", "1/3")])
        assert d.isolated_violations == (F(2, 9), F(1, 3))
        assert d.lsc_offenders  # the same configuration breaks lsc

    @pytest.mark.parametrize("seed", range(10))
    def test_membership_soundness_on_random_pwc(self, seed):
        f = random_pwc(seed)
        x, y = F(0), F(1)
        d = violation_set(f, x, y)
        threshold = d.threshold
        isolated = set(d.isolated_violations)
        for t in refined_grid(f, 41):
            if not x < t < y:
                continue
            in_set = d.components.contains(t) or t in isolated
            assert in_set == (f.evaluate(t) > threshold)

    @pytest.mark.parametrize("index", range(25))
    def test_membership_soundness_on_random_pl(self, index):
        f = random_corpus(25)[index]
        d = violation_set(f, 0, 1)
        for t in refined_grid(f, 67):
            if not 0 < t < 1:
                continue
            assert d.components.contains(t) == (f.evaluate(t) > d.threshold)

    def test_infinite_threshold_empty(self):
        f = PiecewiseConstant(
            (F(0), F(1, 2), F(1)),
            (XReal(3), XReal(5)),
            (PLUS_INF, XReal(4), PLUS_INF),
        )
        d = violation_set(f, 0, 1)
        assert d.threshold == PLUS_INF
        assert d.components.is_empty and not d.isolated_violations

    def test_ordering_enforced(self):
        with pytest.raises(OrderingError):
            violation_set(tent(), 1, 0)

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (F(1, 2), F(1, 2), "pair needs x < y, got (1/2, 1/2)"),
            (F(1, 2), F(3, 2), "pair (1/2, 3/2) not within domain [0, 1]"),
            (F(-1), F(1, 2), "pair (-1, 1/2) not within domain [0, 1]"),
        ],
    )
    @pytest.mark.parametrize(
        "entry",
        [
            violation_set,
            interior_witness_exists,
            convexity_violation_set,
            paired_maxima_certificate,
            lambda f, x, y: verify_chord_components(f, x, y, OpenIntervalSet()),
            lambda f, x, y: verify_component_property(
                f, ViolationDecomposition(x=x, y=y, threshold=XReal(0), components=OpenIntervalSet())
            ),
        ],
        ids=[
            "violation_set",
            "interior_witness_exists",
            "convexity_violation_set",
            "paired_maxima_certificate",
            "verify_chord_components",
            "verify_component_property",
        ],
    )
    def test_every_entry_point_validates_its_pair(self, entry, x, y, message):
        with pytest.raises(OrderingError) as raised:
            entry(tent(), x, y)
        assert str(raised.value) == message

    def test_inexact_rejected(self):
        from qcvx import Blackbox

        with pytest.raises(InexactModelError):
            violation_set(Blackbox(0, 1, lambda t: t), 0, 1)


class TestComponentChecks:
    def test_tent_component_passes(self):
        f = tent()
        d = violation_set(f, 0, 1)
        (check,) = verify_component_property(f, d)
        assert check.endpoints_outside and check.interior_strict

    def test_cantor_complement_component(self):
        f = generate_cantor(1, "complement")
        d = violation_set(f, 0, 1)
        (check,) = verify_component_property(f, d)
        assert check.passed
        # Direct confirmation on a 3**-3 grid: 1 inside, 0 at endpoints.
        for j in range(28):
            t = F(j, 27)
            if F(1, 3) < t < F(2, 3):
                assert f.evaluate(t) == XReal(1)
        assert f.evaluate(F(1, 3)) == XReal(0) == f.evaluate(F(2, 3))

    def test_corrupted_component_fails_endpoint_check(self):
        f = tent()
        corrupted = ViolationDecomposition(
            x=F(0),
            y=F(1),
            threshold=XReal(0),
            components=normalize([iv("1/4", "3/4")]),
        )
        (check,) = verify_component_property(f, corrupted)
        assert not check.endpoints_outside
        assert check.failing_point == F(1, 4)

    def test_corrupted_component_fails_right_endpoint_check(self):
        corrupted = ViolationDecomposition(
            x=F(0),
            y=F(1),
            threshold=XReal(0),
            components=normalize([iv("0", "3/4")]),
        )
        (check,) = verify_component_property(tent(), corrupted)
        assert not check.endpoints_outside
        assert check.failing_point == F(3, 4)

    def test_stale_threshold_raises(self):
        corrupted = ViolationDecomposition(
            x=F(0), y=F(1), threshold=XReal(9), components=normalize([])
        )
        with pytest.raises(ConsistencyError):
            verify_component_property(tent(), corrupted)

    def test_unmerged_touching_components_raise(self, monkeypatch):
        # The check must raise, not assert, so it survives ``python -O``.
        import qcvx.violations as violations

        monkeypatch.setattr(
            violations,
            "_above_set",
            lambda f, lo, hi, threshold: ([(F(0), F(1, 2)), (F(1, 2), F(1))], []),
        )
        with pytest.raises(ConsistencyError, match="touching at 1/2"):
            violation_set(tent(), 0, 1)

    def test_component_outside_pair_raises(self):
        corrupted = ViolationDecomposition(
            x=F(0), y=F(1, 2), threshold=XReal(1), components=normalize([iv("3/4", 1)])
        )
        with pytest.raises(ConsistencyError):
            verify_component_property(tent(), corrupted)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_all_checks_pass_for_lsc_cantor_complements(self, depth):
        f = generate_cantor(depth, "complement")
        assert check_semicontinuity(f).is_lsc
        d = violation_set(f, 0, 1)
        assert len(d.components) == 2**depth - 1
        assert all(c.passed for c in verify_component_property(f, d))

    @pytest.mark.parametrize("index", range(15))
    def test_all_checks_pass_for_continuous_models(self, index):
        f = random_corpus(15)[index]
        bps = f.breakpoints()
        for x, y in ((bps[0], bps[-1]), (bps[0], bps[len(bps) // 2])):
            if not x < y:
                continue
            d = violation_set(f, x, y)
            assert all(c.passed for c in verify_component_property(f, d))


def _above(f, t, thr) -> bool:
    return reference_value(f, t) > thr(t)


def _reference_walk(f, lo, hi, thr) -> list[tuple]:
    """]lo, hi[ as ``(kind, a, b, above)`` items in order: each interior
    breakpoint ``("point", p, p, above)`` and each open piece span, split
    at the crossing root of f - thr when one lies inside it, as
    ``("span", a, b, above)``.  The root comes from the values at the
    span's thirds; aboveness from f and thr at the point or the part's
    midpoint, all in plain Fractions."""
    cuts = [lo, *(p for p in structural_positions(f) if lo < p < hi), hi]
    items = []
    for l, r in zip(cuts, cuts[1:]):
        t1, t2 = l + (r - l) / 3, l + 2 * (r - l) / 3
        values = [reference_value(f, t1), thr(t1), reference_value(f, t2), thr(t2)]
        parts = [l, r]
        if all(v.is_finite for v in values):
            d1 = values[0].finite_value - values[1].finite_value
            d2 = values[2].finite_value - values[3].finite_value
            if d1 != d2:
                root = t1 - d1 * (t2 - t1) / (d2 - d1)
                if l < root < r:
                    parts = [l, root, r]
        for a, b in zip(parts, parts[1:]):
            items.append(("span", a, b, _above(f, (a + b) / 2, thr)))
        if r != hi:
            items.append(("point", r, r, _above(f, r, thr)))
    return items


def _reference_above_set(f, lo, hi, thr):
    """Maximal open intervals of {z in ]lo, hi[ : f(z) > thr(z)} and the
    breakpoints in the set that are not interior to it."""
    items = _reference_walk(f, lo, hi, thr)
    components, isolated, joined = [], [], False
    for n, (kind, a, b, up) in enumerate(items):
        if kind == "span":
            if up and joined:
                components[-1] = (components[-1][0], b)
            elif up:
                components.append((a, b))
            joined = False
        elif up:
            if items[n - 1][3] and items[n + 1][3]:
                joined = True
            else:
                isolated.append(a)
    return components, isolated


def _reference_first_not_above(f, lo, hi, thr):
    return next(
        ((a + b) / 2 for _, a, b, up in _reference_walk(f, lo, hi, thr) if not up),
        None,
    )


def _reference_checks(f, spans, thr) -> list[ComponentCheck]:
    checks = []
    for u, v in spans:
        bad = next((t for t in (u, v) if _above(f, t, thr)), None)
        probe = _reference_first_not_above(f, u, v, thr)
        checks.append(ComponentCheck(bad is None, probe is None, bad if bad is not None else probe))
    return checks


def _walk_models() -> list:
    """Piecewise-constant models with +-inf values (some pairs get +-inf
    thresholds), piecewise-linear ones, coprime denominators and Cantor
    indicators."""
    infinite_ends = PiecewiseConstant(
        (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
        (XReal(1), MINUS_INF, PLUS_INF, XReal(-2)),
        (MINUS_INF, PLUS_INF, XReal(0), MINUS_INF, MINUS_INF),
    )
    return [
        infinite_ends,
        *(random_pwc(s, pieces=2 + s % 9, allow_infinite=True) for s in range(16)),
        *(random_piecewise_linear(3 + s % 9, 300 + s) for s in range(10)),
        coprime_linear(1),
        coprime_linear(2),
        generate_cantor(2, "set"),
        generate_cantor(3, "complement"),
    ]


class TestThresholdWalk:
    """Violation sets, component checks (also of tampered decompositions),
    chord sets and witnesses against the literal reference above, on
    pairs whose ends lie on and off breakpoints."""

    @pytest.mark.parametrize("index", range(len(_walk_models())))
    def test_matches_reference(self, index):
        f = _walk_models()[index]
        rng = random.Random(index)
        points = probe_points(f, rng)
        bps = f.breakpoints()
        pairs = [(bps[0], bps[-1])] + [tuple(sorted(rng.sample(points, 2))) for _ in range(14)]
        for x, y in pairs:
            fx, fy = reference_value(f, x), reference_value(f, y)
            level = max(fx, fy)
            const = lambda t: level
            d = violation_set(f, x, y)
            components, isolated = _reference_above_set(f, x, y, const)
            assert d.threshold == level
            assert [(iv.left, iv.right) for iv in d.components] == components, (x, y)
            assert list(d.isolated_violations) == isolated, (x, y)
            assert verify_component_property(f, d) == _reference_checks(f, components, const)
            assert interior_witness_exists(f, x, y) == (
                _reference_first_not_above(f, x, y, const) is not None
            )
            inner = [t for t in points if x <= t <= y]
            for _ in range(3):
                spans = sorted({tuple(sorted(rng.sample(inner, 2))) for _ in range(2)} if len(inner) > 1 else set())
                spans = [(u, v) for u, v in spans if u < v]
                kept = [s for n, s in enumerate(spans) if n == 0 or spans[n - 1][1] <= s[0]]
                tampered = ViolationDecomposition(
                    x=x, y=y, threshold=level, components=OpenIntervalSet(tuple(iv(u, v) for u, v in kept))
                )
                assert verify_component_property(f, tampered) == _reference_checks(f, kept, const)
            self._check_chord(f, x, y, fx, fy, rng, points)

    def _check_chord(self, f, x, y, fx, fy, rng, points):
        if not (fx.is_finite and fy.is_finite):
            with pytest.raises(UnsupportedChordError):
                convexity_violation_set(f, x, y)
            return
        fx, fy = fx.finite_value, fy.finite_value
        chord = lambda t: XReal(fx + (fy - fx) * (t - x) / (y - x))
        components, _ = _reference_above_set(f, x, y, chord)
        width = y - x
        expected = [((y - b) / width, (y - a) / width) for a, b in reversed(components)]
        got = convexity_violation_set(f, x, y)
        assert [(iv.left, iv.right) for iv in got] == expected, (x, y)
        # The checks follow the parameter order, which reverses positions.
        assert verify_chord_components(f, x, y, got) == _reference_checks(
            f, reversed(components), chord
        )
        inner = [t for t in points if x <= t <= y]
        if len(inner) > 1:
            u, v = sorted(rng.sample(inner, 2))
            params = OpenIntervalSet((iv((y - v) / width, (y - u) / width),))
            assert verify_chord_components(f, x, y, params) == _reference_checks(f, [(u, v)], chord)

    def test_infinite_thresholds_are_covered(self):
        f = _walk_models()[0]
        assert violation_set(f, F(1, 4), F(1, 2)).threshold == PLUS_INF
        assert violation_set(f, 0, 1).threshold == MINUS_INF
        d = violation_set(f, 0, 1)
        assert [(iv.left, iv.right) for iv in d.components] == [
            (F(0), F(1, 4)),
            (F(1, 2), F(3, 4)),
            (F(3, 4), F(1)),
        ]
        assert d.isolated_violations == (F(1, 4), F(1, 2))
        assert not interior_witness_exists(f, F(1, 2), F(3, 4))


@pytest.mark.parametrize("index", range(len(_walk_models())))
def test_sweep_items_match_reference_walk(index):
    # The walk's one item stream, on the pairs of
    # ``TestThresholdWalk.test_matches_reference``, against the level and
    # the chord: each interior breakpoint once, as (p, None, above), and
    # each piece span once or split at its crossing root.
    f = _walk_models()[index]
    rng = random.Random(index)
    points = probe_points(f, rng)
    bps = f.breakpoints()
    pairs = [(bps[0], bps[-1])] + [tuple(sorted(rng.sample(points, 2))) for _ in range(14)]
    for x, y in pairs:
        fx, fy = reference_value(f, x), reference_value(f, y)
        level = max(fx, fy)
        thresholds = [(False, lambda t: level)]
        if fx.is_finite and fy.is_finite:
            u, v = fx.finite_value, fy.finite_value
            thresholds.append((True, lambda t: XReal(u + (v - u) * (t - x) / (y - x))))
        for chord, thr in thresholds:
            at_x, at_y, _, key_thr = _pair(f, x, y)
            if chord:
                key_thr = _chord(f, at_x, at_y)
            items = [
                ("point", a, a, above) if b is None else ("span", a, b, above)
                for a, b, above in _sweep(f, at_x, at_y, key_thr)
            ]
            assert items == _reference_walk(f, x, y, thr), (x, y, chord)


class TestQuasiconvexityDecision:
    def test_vee_is_quasiconvex(self):
        assert is_quasiconvex(vee()).is_quasiconvex

    def test_tent_witness(self):
        verdict = is_quasiconvex(tent())
        assert not verdict.is_quasiconvex
        x, y, z = verdict.witness
        assert x < z < y
        f = tent()
        assert f.evaluate(z) > max(f.evaluate(x), f.evaluate(y))

    def test_cantor_depth2_values_at_fixture_triple(self):
        f = generate_cantor(2, "set")
        # 2/5 sits in the removed middle third, 4/5 in ]7/9, 8/9[, while
        # 2/3 is a retained endpoint: a concrete violating triple.
        assert f.evaluate(F(2, 5)) == XReal(0)
        assert f.evaluate(F(4, 5)) == XReal(0)
        assert f.evaluate(F(2, 3)) == XReal(1)
        verdict = is_quasiconvex(f)
        assert not verdict.is_quasiconvex
        x, y, z = verdict.witness
        assert f.evaluate(z) > max(f.evaluate(x), f.evaluate(y))

    def test_monotone_and_constant_quasiconvex(self):
        assert is_quasiconvex(monotone()).is_quasiconvex
        assert is_quasiconvex(monotone_concave()).is_quasiconvex


class TestInteriorWitness:
    def test_vee_has_witness(self):
        assert interior_witness_exists(vee(), 0, 1)

    def test_tent_has_none(self):
        assert not interior_witness_exists(tent(), 0, 1)

    def test_cantor_depth3_every_pair_has_witness_but_not_quasiconvex(self):
        f = generate_cantor(3, "set")
        grid = [F(j, 81) for j in range(82)]
        for i, x in enumerate(grid):
            for y in grid[i + 1 :]:
                assert interior_witness_exists(f, x, y)
        assert not is_quasiconvex(f).is_quasiconvex
        report = check_semicontinuity(f)
        assert report.is_usc and not report.is_lsc

    @pytest.mark.parametrize("index", range(20))
    def test_quasiconvex_models_witness_every_pair(self, index):
        # A quasiconvex function admits a witness on every pair; the
        # converse over breakpoint-and-midpoint pairs alone is false (the
        # refuting pair of a non-quasiconvex function has
        # threshold-crossing endpoints, which need not be candidates),
        # so the reverse containment is exercised through the first
        # decomposition component instead.
        f = random_corpus(20)[index]
        if not is_quasiconvex(f).is_quasiconvex:
            pytest.skip("not quasiconvex")
        bps = f.breakpoints()
        candidates = sorted(
            set(bps) | {(a + b) / 2 for a, b in zip(bps, bps[1:])}
        )
        for i, x in enumerate(candidates):
            for y in candidates[i + 1 :]:
                assert interior_witness_exists(f, x, y)

    def test_candidate_pair_witnesses_do_not_imply_quasiconvexity(self):
        # Witnesses on every breakpoint-and-midpoint pair do not force
        # quasiconvexity: here the violation region of the pair (0, 3/4)
        # ends at the threshold crossing 5/12, which is not a candidate.
        f = PiecewiseLinear(
            ((F(0), F(2)), (F(1, 4), F(4)), (F(1, 2), F(1)), (F(1), F(3)))
        )
        assert not is_quasiconvex(f).is_quasiconvex
        bps = f.breakpoints()
        candidates = sorted(
            set(bps) | {(a + b) / 2 for a, b in zip(bps, bps[1:])}
        )
        for i, x in enumerate(candidates):
            for y in candidates[i + 1 :]:
                assert interior_witness_exists(f, x, y)
        d = violation_set(f, 0, F(3, 4))
        first = d.components.intervals[0]
        assert first == iv(0, "5/12")
        assert not interior_witness_exists(f, first.left, first.right)

    @pytest.mark.parametrize("index", range(20))
    def test_first_component_refutes_witness(self, index):
        # On a violating pair's first maximal interval, every interior
        # value exceeds both endpoint values, so no witness exists there.
        f = random_corpus(20)[index]
        verdict = is_quasiconvex(f)
        if verdict.is_quasiconvex:
            pytest.skip("quasiconvex sample")
        x, y, _ = verdict.witness
        d = violation_set(f, x, y)
        assert not d.components.is_empty
        first = d.components.intervals[0]
        assert not interior_witness_exists(f, first.left, first.right)


class TestChordViolations:
    def test_tent_above_zero_chord(self):
        assert convexity_violation_set(tent(), 0, 1) == normalize([iv(0, 1)])

    @pytest.mark.parametrize("u, v", [(-1, F(1, 2)), (F(1, 2), 2)])
    def test_chord_checks_refuse_ends_outside_the_domain(self, u, v):
        # A parameter outside [0, 1] would map to a position outside the
        # domain; the component is refused before any end is mapped.
        with pytest.raises(ConsistencyError) as raised:
            verify_chord_components(tent(), 0, 1, OpenIntervalSet((OpenInterval(u, v),)))
        assert str(raised.value) == f"component ]{u}, {v}[ not within ]0, 1["

    @pytest.mark.parametrize("u, v", [(F(-1, 2), F(-1, 4)), (F(-3), F(-2))])
    def test_chord_checks_refuse_components_outside_the_unit_interval(self, u, v):
        # For the pair (1, 3), ]-1/2, -1/4[ maps to ]7/2, 15/4[, inside the
        # domain but outside the pair, and ]-3, -2[ to ]5, 7[, outside the
        # domain: neither is checked against the chord.
        f = PiecewiseLinear(((0, 0), (1, 1), (2, 0), (3, 3), (4, 0)))
        with pytest.raises(ConsistencyError) as raised:
            verify_chord_components(f, 1, 3, OpenIntervalSet((OpenInterval(u, v),)))
        assert str(raised.value) == f"component ]{u}, {v}[ not within ]0, 1["

    def test_vee_below_chords(self):
        assert convexity_violation_set(vee(), 0, 1).is_empty

    def test_affine_piece_gives_equality_not_violation(self):
        assert convexity_violation_set(tent(), 0, F(1, 2)).is_empty

    def test_monotone_concave_distinguishes_the_two_sets(self):
        f = monotone_concave()
        assert violation_set(f, 0, 1).components.is_empty
        chord = convexity_violation_set(f, 0, 1)
        assert not chord.is_empty
        assert chord == normalize([iv(0, 1)])

    def test_parameter_convention_orientation(self):
        # f rises steeply near 0; with z(t) = t*x + (1-t)*y the chord
        # parameters near t = 1 correspond to positions near x.
        f = monotone_concave()
        chord = convexity_violation_set(f, 0, F(1, 2))
        # On [0, 1/2] f is affine, so no chord violation.
        assert chord.is_empty
        chord_full = convexity_violation_set(f, 0, 1)
        assert chord_full.contains(F(1, 2))

    def test_grid_soundness_of_chord_set(self):
        f = monotone_concave()
        x, y = F(0), F(1)
        fx = f.evaluate(x).finite_value
        fy = f.evaluate(y).finite_value
        chord = convexity_violation_set(f, x, y)
        for t in uniform_grid(F(0), F(1), 65):
            position = t * x + (1 - t) * y
            chord_value = t * fx + (1 - t) * fy
            above = f.evaluate(position).finite_value > chord_value
            assert chord.contains(t) == above

    def test_infinite_endpoint_rejected(self):
        f = PiecewiseConstant(
            (F(0), F(1)), (XReal(0),), (PLUS_INF, XReal(0))
        )
        with pytest.raises(UnsupportedChordError):
            convexity_violation_set(f, 0, 1)

    @pytest.mark.parametrize(
        "points, named",
        [
            ((PLUS_INF, XReal(0)), "f(x) = inf, f(y) = 0"),
            ((XReal(F(1, 2)), MINUS_INF), "f(x) = 1/2, f(y) = -inf"),
            ((MINUS_INF, PLUS_INF), "f(x) = -inf, f(y) = inf"),
        ],
    )
    @pytest.mark.parametrize("entry", ["convexity_violation_set", "verify_chord_components"])
    def test_one_chord_error_names_both_values(self, points, named, entry):
        # Both chord entry points raise the one error naming f(x) and f(y).
        f = PiecewiseConstant((F(0), F(1)), (XReal(0),), points)
        with pytest.raises(UnsupportedChordError) as raised:
            if entry == "convexity_violation_set":
                convexity_violation_set(f, 0, 1)
            else:
                verify_chord_components(f, 0, 1, OpenIntervalSet())
        assert str(raised.value) == f"chord analysis needs finite endpoint values, got {named}"

    @pytest.mark.parametrize("index", range(12))
    def test_chord_components_verify_for_continuous_models(self, index):
        f = random_corpus(12)[index]
        chord = convexity_violation_set(f, 0, 1)
        checks = verify_chord_components(f, 0, 1, chord)
        assert all(c.passed for c in checks)


class TestPairBatchNamesFailures:
    """``analyze_pairs`` names the pair behind a failure in a note: its
    own pair for a per-pair step, and for a shared walk, of a level or a
    chord line, the first pair, in the order given, on that line."""

    # On the depth-2 Cantor complement every breakpoint pair has the level
    # 0 and the last three pairs' spans connect into [0, 1]; the first
    # pair, from the removed middle third, has the level 1.
    PAIRS = [(F(1, 2), F(7, 9)), (F(2, 3), F(1)), (F(0), F(1, 3)), (F(1, 9), F(8, 9))]

    def notes(self, pairs=PAIRS) -> list[str]:
        with pytest.raises(ConsistencyError) as info:
            analyze_pairs(generate_cantor(2, "complement"), pairs)
        return info.value.__notes__

    def test_shared_walk_names_the_first_pair_it_covers(self, monkeypatch):
        original = violations._above_set

        def failing(f, lo, hi, thr):
            if lo[0] == 0:
                raise ConsistencyError("walk failed")
            return original(f, lo, hi, thr)

        monkeypatch.setattr(violations, "_above_set", failing)
        assert self.notes() == ["pair (2/3, 1)"]

    def test_walk_across_a_gap_names_the_first_pair_on_its_line(self, monkeypatch):
        # (0, 1/9) and (8/9, 1) share the level 0 with a gap between them,
        # and the one walk of that line fails only because it reaches 1.
        original = violations._above_set

        def failing(f, lo, hi, thr):
            if hi[0] == 1:
                raise ConsistencyError("walk failed")
            return original(f, lo, hi, thr)

        monkeypatch.setattr(violations, "_above_set", failing)
        assert self.notes([(F(0), F(1, 9)), (F(8, 9), F(1))]) == ["pair (0, 1/9)"]

    def test_shared_chord_walk_names_the_first_pair_it_covers(self, monkeypatch):
        # f(t) = t at 0, 1/2 and 1, so the last three pairs share the chord
        # line t over [0, 1], which is no pair's level; the first pair's
        # chord falls from 1 to 0.
        f = PiecewiseLinear(((F(0), F(0)), (F(1, 4), F(1)), (F(1, 2), F(1, 2)), (F(3, 4), F(0)), (F(1), F(1))))
        original = violations._above_set

        def failing(f, lo, hi, thr):
            _, slope, _ = thr
            if slope and lo[0] == 0:
                raise ConsistencyError("chord walk failed")
            return original(f, lo, hi, thr)

        monkeypatch.setattr(violations, "_above_set", failing)
        with pytest.raises(ConsistencyError, match="chord walk failed") as info:
            analyze_pairs(f, [(F(1, 4), F(3, 4)), (F(1, 2), F(1)), (F(0), F(1, 2)), (F(0), F(1))])
        assert info.value.__notes__ == ["pair (1/2, 1)"]

    @pytest.mark.parametrize("batch", [analyze_pairs, cli.pair_records], ids=["analyses", "records"])
    def test_malformed_chord_walk_names_the_first_pair_it_covers(self, monkeypatch, batch):
        # The chord line t over [0, 1] has the one run ]0, 1/2[; returned
        # with its ends swapped, the walk's runs fail their check as the
        # walk is made, whether the pairs take chord sets or report text
        # from it.
        f = PiecewiseLinear(((F(0), F(0)), (F(1, 4), F(1)), (F(1, 2), F(1, 2)), (F(3, 4), F(0)), (F(1), F(1))))
        original = violations._above_set

        def swapped(f, lo, hi, thr):
            runs, isolated = original(f, lo, hi, thr)
            _, slope, _ = thr
            return ([(v, u) for u, v in runs] if slope else runs), isolated

        monkeypatch.setattr(violations, "_above_set", swapped)
        with pytest.raises(MalformedIntervalError, match="open interval needs left < right") as info:
            batch(f, [(F(1, 4), F(3, 4)), (F(1, 2), F(1)), (F(0), F(1, 2)), (F(0), F(1))])
        assert info.value.__notes__ == ["pair (1/2, 1)"]

    @pytest.mark.parametrize(
        "split, raises",
        [
            (F(1, 2), True),  # f(1/2) = 0 lies above the level -inf
            (F(1, 4), False),  # f(1/4) = -inf does not
        ],
    )
    def test_unmerged_touching_components_raise(self, monkeypatch, split, raises):
        # The merge check of a shared walk, against an infinite level line:
        # -inf at both ends, 0 on the pieces and at 1/2.
        f = PiecewiseConstant(
            (F(0), F(1, 4), F(1, 2), F(1)),
            (XReal(0),) * 3,
            (MINUS_INF, MINUS_INF, XReal(0), MINUS_INF),
        )
        monkeypatch.setattr(
            violations, "_above_set", lambda f, lo, hi, thr: ([(lo[0], split), (split, hi[0])], [])
        )
        if not raises:
            (analysis,) = analyze_pairs(f, [(0, 1)])
            assert len(analysis.decomposition.components) == 2
            return
        with pytest.raises(ConsistencyError, match="components touching at 1/2") as info:
            analyze_pairs(f, [(0, 1)])
        assert info.value.__notes__ == ["pair (0, 1)"]

    def test_unmerged_touching_components_raise_on_a_finite_level(self, monkeypatch):
        # The shared level-0 walk finds ]1/9, 2/9[ first; split at 1/6.
        original = violations._above_set

        def split(f, lo, hi, thr):
            runs, isolated = original(f, lo, hi, thr)
            if not runs:
                return runs, isolated
            (u, v), *rest = runs
            return [(u, (u + v) / 2), ((u + v) / 2, v), *rest], isolated

        monkeypatch.setattr(violations, "_above_set", split)
        assert self.notes() == ["pair (2/3, 1)"]

    def test_pair_outside_the_order_names_itself(self):
        with pytest.raises(OrderingError) as info:
            analyze_pairs(generate_cantor(2, "complement"), [*self.PAIRS, (F(1), F(1, 2))])
        assert info.value.__notes__ == ["pair (1, 1/2)"]

    def test_batch_of_one_is_the_single_pair_analysis(self):
        f = random_pwc(11, pieces=6, allow_infinite=True)
        (analysis,) = analyze_pairs(f, [(0, 1)])
        assert analysis.decomposition == violation_set(f, 0, 1)
        assert analysis.checks == tuple(verify_component_property(f, analysis.decomposition))
        assert analysis.interior_witness == interior_witness_exists(f, 0, 1)

    def test_inexact_model_refused(self):
        from qcvx import Blackbox

        with pytest.raises(InexactModelError, match="analyze_pairs needs an exact model"):
            analyze_pairs(Blackbox(0, 1, lambda t: t), [(0, 1)])


def _map_values(f, phi):
    """The model phi(f) for a strictly increasing phi that fixes +-inf.
    Exact for piecewise-constant models under any such phi, and for
    piecewise-linear ones when phi is affine."""
    def apply(v):
        return XReal(phi(v.finite_value)) if v.is_finite else v

    if isinstance(f, PiecewiseLinear):
        return PiecewiseLinear(tuple((p, phi(v)) for p, v in f.knots))
    return PiecewiseConstant(
        f.breaks,
        tuple(apply(v) for v in f.piece_values),
        tuple(apply(v) for v in f.point_values),
    )


def _map_domain(f, alpha, beta):
    """g with g(alpha * t + beta) = f(t) on the image of f's domain, for
    alpha != 0; a negative alpha reverses the pieces."""
    def ordered(items):
        return tuple(items) if alpha > 0 else tuple(reversed(items))

    if isinstance(f, PiecewiseLinear):
        return PiecewiseLinear(ordered([(alpha * p + beta, v) for p, v in f.knots]))
    return PiecewiseConstant(
        ordered([alpha * t + beta for t in f.breaks]),
        ordered(f.piece_values),
        ordered(f.point_values),
    )


def _pairs(f, seed, count=25):
    rng = random.Random(seed)
    ends = probe_points(f, rng)
    return [(ends[0], ends[-1])] + [tuple(sorted(rng.sample(ends, 2))) for _ in range(count)]


def _cube(v):
    return v**3


def _affine(v):
    return 2 * v + 5


class TestMetamorphic:
    """Invariances of the exact analyses (Boyd & Vandenberghe, Convex
    Optimization, section 3.4): sublevel-set properties survive a strictly
    increasing value map, the chord comparison only an increasing affine
    one, and every verdict survives an affine map t -> alpha * t + beta of
    the domain, alpha != 0."""

    @staticmethod
    def cases(maps_for_linear):
        models = kernel_models()
        for family, fs in models.items():
            maps = maps_for_linear if family == "pl" else (_cube, _affine)
            for index, f in enumerate(fs):
                for phi in maps:
                    yield index, f, phi

    def test_increasing_value_map_keeps_verdicts_and_violation_sets(self):
        # v -> v**3 is not piecewise linear on affine pieces, so linear
        # models take the affine map only.
        for index, f, phi in self.cases((_affine,)):
            g = _map_values(f, phi)
            assert is_quasiconvex(g).is_quasiconvex == is_quasiconvex(f).is_quasiconvex
            for x, y in _pairs(f, index):
                d, e = violation_set(f, x, y), violation_set(g, x, y)
                assert e.components == d.components, (index, x, y)
                assert e.isolated_violations == d.isolated_violations
                assert e.lsc_offenders == d.lsc_offenders
                assert interior_witness_exists(g, x, y) == interior_witness_exists(f, x, y)

    def test_positive_affine_value_map_keeps_chord_sets(self):
        def phi(v):
            return F(3, 2) * v - F(7, 3)

        for family, fs in kernel_models().items():
            for index, f in enumerate(fs):
                g = _map_values(f, phi)
                for x, y in _pairs(f, index):
                    try:
                        expected = convexity_violation_set(f, x, y)
                    except UnsupportedChordError:
                        with pytest.raises(UnsupportedChordError):
                            convexity_violation_set(g, x, y)
                        continue
                    assert convexity_violation_set(g, x, y) == expected, (family, index, x, y)

    def test_cubing_can_change_chord_sets(self):
        f = PiecewiseConstant(
            (F(0), F(1, 2), F(1)),
            (XReal(F(3, 2)), XReal(F(3, 2))),
            (XReal(0), XReal(F(3, 2)), XReal(2)),
        )
        cubed = _map_values(f, _cube)
        assert convexity_violation_set(cubed, 0, 1) != convexity_violation_set(f, 0, 1)
        assert violation_set(cubed, 0, 1).components == violation_set(f, 0, 1).components

    def test_domain_reflection_keeps_verdicts(self):
        # t -> alpha * t + beta: the reflection onto the same domain,
        # another reversing map, and increasing stretches with shifts.
        # Sets move with the map, reversed when alpha < 0; an increasing
        # map keeps chord parameters and moves the witness triple.
        for family, fs in kernel_models().items():
            for index, f in enumerate(fs):
                a, b = f.domain
                verdict = is_quasiconvex(f)
                for alpha, beta in ((F(-1), a + b), (F(-2), F(1, 3)), (F(3), F(-1, 7)), (F(1, 5), F(2))):
                    def phi(t):
                        return alpha * t + beta

                    def moved(points):
                        return [phi(t) for t in (points if alpha > 0 else reversed(points))]

                    g = _map_domain(f, alpha, beta)
                    mapped = is_quasiconvex(g)
                    assert mapped.is_quasiconvex == verdict.is_quasiconvex
                    if alpha > 0 and verdict.witness is not None:
                        assert mapped.witness == tuple(moved(verdict.witness))
                    for x, y in _pairs(f, index):
                        gx, gy = moved([x, y])
                        where = (family, index, alpha, x, y)
                        assert interior_witness_exists(g, gx, gy) == interior_witness_exists(f, x, y)
                        d, e = violation_set(f, x, y), violation_set(g, gx, gy)
                        ends = moved([t for iv in d.components for t in (iv.left, iv.right)])
                        assert [(iv.left, iv.right) for iv in e.components] == list(
                            zip(ends[::2], ends[1::2])
                        ), where
                        assert list(e.isolated_violations) == moved(d.isolated_violations)
                        assert list(e.lsc_offenders) == moved(d.lsc_offenders)
                        if alpha > 0:
                            try:
                                chord = convexity_violation_set(f, x, y)
                            except UnsupportedChordError:
                                continue
                            assert convexity_violation_set(g, gx, gy) == chord, where
