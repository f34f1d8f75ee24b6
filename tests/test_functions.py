import math
import pickle
import random
from fractions import Fraction

import pytest

from conftest import (
    cantor_membership,
    coprime_linear,
    kernel_models,
    middle_thirds_components,
    probe_points,
    random_pwc,
    reference_cells,
    reference_value,
    removed_open_intervals,
    structural_positions,
    sweep_min,
    uniform_grid,
)
from qcvx import (
    MINUS_INF,
    PLUS_INF,
    Blackbox,
    ClosedSet1D,
    PiecewiseConstant,
    PiecewiseLinear,
    Point,
    Segment,
    Tabulated,
    XReal,
    argmax_set,
    check_semicontinuity,
    function_from_dict,
    function_to_dict,
    generate_cantor,
    infimum_on,
    restrict_to_segment,
    supremum_on,
)
from qcvx.corpus import constant, ramp_plateau, random_piecewise_linear, tent, vee
from qcvx.errors import (
    ConsistencyError,
    DegenerateSegmentError,
    DomainError,
    InexactModelError,
    NoSampleError,
    ParameterRangeError,
    PreconditionError,
    SupremumNotAttainedError,
    ValidationError,
)

F = Fraction


class TestEvaluate:
    def test_tent_interpolation(self):
        assert tent().evaluate(F(1, 4)) == XReal(F(1, 2))

    def test_cantor_depth1_removed_point(self):
        assert generate_cantor(1, "set").evaluate(F(1, 2)) == XReal(0)

    def test_cantor_depth1_endpoint(self):
        assert generate_cantor(1, "set").evaluate(F(1, 3)) == XReal(1)

    def test_piecewise_linear_matches_affine_formula(self):
        f = PiecewiseLinear(((F(0), F(1)), (F(1, 3), F(0)), (F(1), F(2))))
        for (p0, v0), (p1, v1) in zip(f.knots, f.knots[1:]):
            assert f.evaluate(p0) == XReal(v0)
            for num in (1, 2):
                t = p0 + (p1 - p0) * F(num, 3)
                expected = v0 + (v1 - v0) * F(num, 3)
                assert f.evaluate(t) == XReal(expected)
        assert f.evaluate(f.knots[-1][0]) == XReal(f.knots[-1][1])

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tent().evaluate(F(3, 2))

    def test_tabulated_only_samples(self):
        t = Tabulated((F(0), F(1, 2), F(1)), (XReal(1), XReal(0), XReal(1)))
        assert t.evaluate(F(1, 2)) == XReal(0)
        with pytest.raises(NoSampleError):
            t.evaluate(F(1, 4))

    def test_infinite_piece_values(self):
        f = PiecewiseConstant(
            (F(0), F(1, 2), F(1)),
            (PLUS_INF, XReal(0)),
            (XReal(0), PLUS_INF, XReal(0)),
        )
        assert f.evaluate(F(1, 4)) == PLUS_INF
        assert f.evaluate(F(1, 2)) == PLUS_INF


class TestRestriction:
    def test_affine_sum(self):
        h = restrict_to_segment(
            lambda p: p.coordinates[0] + p.coordinates[1],
            Segment(Point.of(0, 0), Point.of(1, 1)),
        )
        assert h.evaluate(F(1, 2)) == XReal(1)

    def test_constant(self):
        h = restrict_to_segment(lambda p: 7, Segment(Point.of(0, 5), Point.of(2, 5)))
        for t in uniform_grid(F(0), F(1), 7):
            assert h.evaluate(t) == XReal(7)

    def test_square_through_parameterization(self):
        # z(t) = (1-t)(-1) + t(1) = 2t - 1, so z(3/4) = 1/2 and g = 1/4.
        h = restrict_to_segment(
            lambda p: p.coordinates[0] ** 2, Segment(Point.of(-1), Point.of(1))
        )
        assert h.evaluate(F(3, 4)) == XReal(F(1, 4))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSegmentError):
            restrict_to_segment(lambda p: 0, Segment(Point.of(1), Point.of(1)))


class TestSemicontinuity:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_cantor_indicator_usc_not_lsc(self, depth):
        report = check_semicontinuity(generate_cantor(depth, "set"))
        assert report.is_usc and not report.is_lsc
        assert report.offending_points_lsc

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_cantor_complement_lsc_not_usc(self, depth):
        report = check_semicontinuity(generate_cantor(depth, "complement"))
        assert report.is_lsc and not report.is_usc

    def test_piecewise_linear_both(self):
        report = check_semicontinuity(tent())
        assert report.is_lsc and report.is_usc

    def test_inexact_rejected(self):
        with pytest.raises(InexactModelError):
            check_semicontinuity(Blackbox(0, 1, lambda t: t))

    @pytest.mark.parametrize("seed", range(12))
    def test_negation_swaps_sides(self, seed):
        f = random_pwc(seed, allow_infinite=True)
        direct = check_semicontinuity(f)
        negated = check_semicontinuity(f.negate())
        assert direct.is_lsc == negated.is_usc
        assert direct.is_usc == negated.is_lsc
        assert direct.offending_points_lsc == negated.offending_points_usc


def reference_extremum(cells: list, lo_closed: bool, hi_closed: bool, maximize: bool):
    """``(value, attained_interior)`` from the candidate values of a
    ``reference_cells`` walk: interior points and constant spans attain
    their value, a sloped affine span only approaches its end values, and
    a closed end contributes its value without being interior."""
    candidates = [(cell[2], True) for cell in cells[2:-2:2]]
    for cell in cells[1::2]:
        if cell[0] == "const" or cell[3] == cell[4]:
            candidates.append((cell[3], True))
        else:
            candidates += [(cell[3], False), (cell[4], False)]
    for cell, closed in ((cells[0], lo_closed), (cells[-1], hi_closed)):
        if closed:
            candidates.append((cell[2], False))
    best = (max if maximize else min)(v for v, _ in candidates)
    return best, any(attained for v, attained in candidates if v == best)


def reference_argmax(cells: list, lo: Fraction, hi: Fraction):
    """``(sup, ClosedSet1D)``, or the ``(type, text)`` of the error that
    ``argmax_set`` raises, from a ``reference_cells`` walk."""
    sup, _ = reference_extremum(cells, False, False, True)
    parts = [(cell[1], cell[1]) for cell in cells[::2] if cell[2] == sup]
    for k in range(1, len(cells), 2):
        cell = cells[k]
        if cell[0] == "affine" and not cell[3] == cell[4] == sup:
            continue
        if cell[0] == "const" and cell[3] != sup:
            continue
        for end in (cells[k - 1], cells[k + 1]):
            if end[2] != sup:
                return PreconditionError, (
                    f"argmax set is not closed at {end[1]}; upper semicontinuity "
                    "of the certificate flow is violated there"
                )
        parts.append((cell[1], cell[2]))
    if not parts:
        return SupremumNotAttainedError, (
            f"no point of [{lo}, {hi}] attains the interior supremum {sup.to_string()}"
        )
    return sup, ClosedSet1D.from_parts(parts)


class TestStructureKernel:
    """Extrema, argmax sets, point evaluation and the semicontinuity
    audit over the structure index against literal scans of the model's
    own fields."""

    @pytest.mark.parametrize("family", ["cantor", "pwc", "pl"])
    def test_extrema_and_argmax_match_breakpoint_filter(self, family):
        flags = [(lc, hc) for lc in (False, True) for hc in (False, True)]
        for index, f in enumerate(kernel_models()[family]):
            rng = random.Random(index)
            ends = probe_points(f, rng)
            pairs = [(ends[0], ends[-1])] + [
                tuple(sorted(rng.sample(ends, 2))) for _ in range(40)
            ]
            for lo, hi in pairs:
                cells = reference_cells(f, lo, hi)
                for lc, hc in flags:
                    where = (index, lo, hi, lc, hc)
                    got = infimum_on(f, lo, hi, lo_closed=lc, hi_closed=hc)
                    assert got == reference_extremum(cells, lc, hc, False), where
                    got = supremum_on(f, lo, hi, lo_closed=lc, hi_closed=hc)
                    assert got == reference_extremum(cells, lc, hc, True), where
                try:
                    got = argmax_set(f, lo, hi)
                except (PreconditionError, SupremumNotAttainedError) as exc:
                    got = type(exc), str(exc)
                assert got == reference_argmax(cells, lo, hi), (index, lo, hi)

    @pytest.mark.parametrize("family", ["cantor", "pwc", "pl"])
    def test_evaluate_matches_scan(self, family):
        for index, f in enumerate(kernel_models()[family]):
            for t in probe_points(f, random.Random(index)):
                assert f.evaluate(t) == reference_value(f, t)
            assert f.breakpoints() == tuple(structural_positions(f))

    @pytest.mark.parametrize("family", ["cantor", "pwc", "pl"])
    def test_audit_matches_literal_definition(self, family):
        for f in kernel_models()[family] + [ramp_plateau(), constant()] * (family == "pl"):
            bad_lsc, bad_usc = [], []
            for i, b in enumerate(structural_positions(f)):
                value, limits = reference_value(f, b), one_sided_limits(f, i)
                if any(value > v for v in limits):
                    bad_lsc.append(b)
                if any(value < v for v in limits):
                    bad_usc.append(b)
            report = check_semicontinuity(f)
            assert report.offending_points_lsc == tuple(bad_lsc)
            assert report.offending_points_usc == tuple(bad_usc)
            assert (report.is_lsc, report.is_usc) == (not bad_lsc, not bad_usc)

    @pytest.mark.parametrize(
        "make",
        [lambda: generate_cantor(3, "set"), lambda: random_pwc(5, allow_infinite=True), tent],
    )
    def test_cached_index_stays_out_of_identity(self, make):
        f, twin = make(), make()
        report = check_semicontinuity(f)  # builds f's index only
        layout = integer_layout(f)
        assert f == twin and hash(f) == hash(twin) and repr(f) == repr(twin)
        assert function_to_dict(f) == function_to_dict(twin)
        assert check_semicontinuity(twin) == report
        assert integer_layout(twin) == layout

    @pytest.mark.parametrize(
        "make",
        [lambda: generate_cantor(3, "set"), lambda: random_pwc(5, allow_infinite=True), tent],
    )
    def test_model_with_its_index_survives_pickling(self, make):
        f = make()
        report = check_semicontinuity(f)  # builds f's index
        layout = integer_layout(f)
        clone = pickle.loads(pickle.dumps(f))
        assert clone == f and hash(clone) == hash(f) and repr(clone) == repr(f)
        assert check_semicontinuity(clone) == report
        assert integer_layout(clone) == layout

    @pytest.mark.parametrize("family", ["cantor", "pwc", "pl"])
    def test_integer_layout_matches_fields(self, family):
        extra = [coprime_linear(5), ramp_plateau(), constant()] * (family == "pl")
        linear = set()  # whether a piece is linear, over the family
        infinite = set()  # the infinite values met, over the family
        for f in kernel_models()[family] + extra:
            s = f._index
            positions = structural_positions(f)
            values = [reference_value(f, p) for p in positions]
            flats = piece_constants(f)
            linear.update(v is None for v in flats)
            infinite.update(v for v in values + flats if v is not None and not v.is_finite)
            # Each position and value keeps its own lowest terms.
            assert s.position_ratios == tuple((p.numerator, p.denominator) for p in positions)
            assert s.value_lines == tuple(constant_line(v) for v in values)
            assert s.flats == tuple(flats)
            assert len(s.piece_lines) == len(flats)
            for k, ((a, b, c), v) in enumerate(zip(s.piece_lines, flats)):
                if v is not None:
                    assert (a, b, c) == constant_line(v)
                    continue
                assert b != 0 and c > 0 and math.gcd(a, b, c) == 1
                for t in positions[k : k + 2]:
                    assert XReal(F(a + b * t, c)) == reference_value(f, t)
            offenders = check_semicontinuity(f).offending_points_lsc
            assert tuple(positions[k] for k in s.lsc_at) == offenders
        assert linear == ({True, False} if family == "pl" else {False})
        assert infinite == ({PLUS_INF, MINUS_INF} if family == "pwc" else set())

    def test_negation_gets_its_own_audit(self):
        f = generate_cantor(2, "set")
        report = check_semicontinuity(f)
        negated = check_semicontinuity(f.negate())
        assert (negated.is_lsc, negated.is_usc) == (True, False)
        assert negated.offending_points_usc == report.offending_points_lsc
        assert check_semicontinuity(f) == report


def integer_layout(f) -> tuple:
    s = f._index
    return s.position_ratios, s.value_lines, s.piece_lines, s.lsc_at


def constant_line(v: XReal) -> tuple[int, int, int]:
    """The line (a, 0, c) of a constant read from an XReal: its lowest
    terms a / c, or (1, 0, 0) for +inf and (-1, 0, 0) for -inf."""
    if v.is_finite:
        return v.finite_value.numerator, 0, v.finite_value.denominator
    return (1 if v == PLUS_INF else -1), 0, 0


def piece_constants(f) -> list:
    """The constant of each piece read from the model's own fields: a
    piece value, a linear piece's value where its end values are equal,
    and None for a linear piece between unequal values."""
    if isinstance(f, PiecewiseLinear):
        return [XReal(v0) if v0 == v1 else None for (_, v0), (_, v1) in zip(f.knots, f.knots[1:])]
    return list(f.piece_values)


def one_sided_limits(f, i: int) -> list[XReal]:
    """The limits of f at breakpoint i from the pieces beside it, read
    from the model's own fields: a piece value, or a linear piece's
    affine formula evaluated at the breakpoint."""
    if isinstance(f, PiecewiseLinear):
        b = f.knots[i][0]
        return [
            XReal(v0 + (v1 - v0) * (b - p0) / (p1 - p0))
            for (p0, v0), (p1, v1) in zip(f.knots, f.knots[1:])
            if b in (p0, p1)
        ]
    return list(f.piece_values[max(i - 1, 0) : i + 1])


def _sorted_walk_inputs(f, rng: random.Random) -> list[list[Fraction]]:
    """Ascending position lists: breakpoints, piece interiors and uniform
    points merged, the whole list and tails starting in mid-model, a
    single point, and a run with repeats."""
    a, b = f.domain
    merged = sorted(set(probe_points(f, rng)) | set(uniform_grid(a, b, 41)))
    starts = [0, 1, len(merged) // 3, len(merged) - 1] + rng.sample(range(len(merged)), 3)
    runs = [merged[s:] for s in starts] + [merged[s : s + 5] for s in starts]
    runs.append(sorted(rng.choices(merged, k=12)))
    runs.append([])
    return runs


class TestEvaluateSorted:
    """One sorted walk against point-by-point evaluation."""

    @pytest.mark.parametrize("family", ["cantor", "pwc", "pl"])
    def test_matches_evaluate(self, family):
        for index, f in enumerate(kernel_models()[family]):
            for ts in _sorted_walk_inputs(f, random.Random(index)):
                assert f.evaluate_sorted(ts) == [f.evaluate(t) for t in ts], (index, ts)

    def test_deep_cantor_and_integer_positions(self):
        f = generate_cantor(6, "complement")
        for ts in _sorted_walk_inputs(f, random.Random(6)):
            assert f.evaluate_sorted(ts) == [f.evaluate(t) for t in ts]
        assert f.evaluate_sorted([0, "1/2", 1]) == [XReal(0), XReal(1), XReal(0)]

    def test_tabulated_reads_samples(self):
        rng = random.Random(3)
        positions = sorted({F(rng.randint(0, 90), 90) for _ in range(30)})
        pool = [XReal(v) for v in range(-3, 4)] + [PLUS_INF, MINUS_INF]
        f = Tabulated(tuple(positions), tuple(rng.choice(pool) for _ in positions))
        for start in (0, 1, len(positions) // 2, len(positions) - 1):
            ts = positions[start:]
            assert f.evaluate_sorted(ts) == [f.evaluate(t) for t in ts]
        between = (positions[3] + positions[4]) / 2
        with pytest.raises(NoSampleError, match=str(between)):
            f.evaluate_sorted([positions[0], positions[3], between, positions[5]])

    def test_blackbox_keeps_callback_order(self):
        seen = []

        def callback(t):
            seen.append(t)
            return float(t) ** 2

        f = Blackbox(0, 1, callback)
        ts = uniform_grid(F(0), F(1), 9)
        assert f.evaluate_sorted(ts) == [XReal.coerce(float(t) ** 2) for t in ts]
        assert seen == ts

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_cantor(3, "set"),
            lambda: random_pwc(5, allow_infinite=True),
            tent,
            lambda: Tabulated((F(0), F(1, 2), F(1)), (XReal(0), XReal(1), XReal(0))),
        ],
    )
    def test_outside_domain_raises_like_evaluate(self, make):
        f = make()
        for ts in ([F(-1, 3), F(0)], [F(0), F(1, 2), F(4, 3), F(5, 3)], [F(2)]):
            first_outside = next(t for t in ts if not 0 <= t <= 1)
            with pytest.raises(DomainError) as point:
                f.evaluate(first_outside)
            with pytest.raises(DomainError) as walk:
                f.evaluate_sorted(ts)
            assert str(walk.value) == str(point.value)

    def test_descending_positions_rejected(self):
        f = tent()
        with pytest.raises(ParameterRangeError, match="ascend"):
            f.evaluate_sorted([F(0), F(3, 4), F(1, 4)])


class TestRandomPiecewiseLinear:
    def test_knot_count_range(self):
        # Knots lie on 2521 grid positions, domain ends included.
        f = random_piecewise_linear(2521, 3)
        assert [p for p, _ in f.knots] == [F(i, 2520) for i in range(2521)]
        for count in (1, 2522, 3000):
            with pytest.raises(ParameterRangeError, match=r"must be in \[2, 2521\], got"):
                random_piecewise_linear(count, 3)


class TestCantorGenerator:
    def test_depth1_complement_structure(self):
        f = generate_cantor(1, "complement")
        for t in uniform_grid(F(0), F(1), 28):
            expected = XReal(0) if cantor_membership(t, 1) else XReal(1)
            assert f.evaluate(t) == expected

    def test_depth2_set_against_digit_walk(self):
        f = generate_cantor(2, "set")
        for j in range(730):
            t = F(j, 729)
            expected = XReal(1) if cantor_membership(t, 2) else XReal(0)
            assert f.evaluate(t) == expected

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_integer_ends_match_the_recursive_fractions(self, depth):
        # The generator builds its ends as integers over 3**depth; thirding
        # Fraction intervals depth times gives the same breakpoints, and the
        # same model in both modes.
        parts = middle_thirds_components(depth)
        breaks = tuple(t for part in parts for t in part)
        for mode, inside, outside in (("set", 1, 0), ("complement", 0, 1)):
            pieces = tuple(XReal(outside if k % 2 else inside) for k in range(len(breaks) - 1))
            expected = PiecewiseConstant(breaks, pieces, (XReal(inside),) * len(breaks))
            assert repr(generate_cantor(depth, mode)) == repr(expected)

    def test_depth6_complement_open_piece_count(self):
        f = generate_cantor(6, "complement")
        ones = sum(1 for v in f.piece_values if v == XReal(1))
        # Independently: one interval is removed in round 1, two in round
        # 2, ..., 2**5 in round 6.
        assert ones == sum(2**i for i in range(6)) == 63
        assert len(removed_open_intervals(6)) == 63

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_set_plus_complement_is_one(self, depth):
        inside = generate_cantor(depth, "set")
        outside = generate_cantor(depth, "complement")
        denominator = 3**depth * 3
        for j in range(denominator + 1):
            t = F(j, denominator)
            total = (
                inside.evaluate(t).finite_value + outside.evaluate(t).finite_value
            )
            assert total == 1

    def test_depth_bounds(self):
        with pytest.raises(ParameterRangeError):
            generate_cantor(0, "set")
        with pytest.raises(ParameterRangeError):
            generate_cantor(True, "set")
        with pytest.raises(ParameterRangeError):
            generate_cantor(21, "set")
        with pytest.raises(ParameterRangeError):
            generate_cantor(2, "open")

    def test_wrong_complement_count_raises(self, monkeypatch):
        # The self-check must raise, not assert, so it survives ``python -O``.
        import qcvx.functions as functions

        real = functions._cantor_components
        monkeypatch.setattr(functions, "_cantor_components", lambda depth: real(depth - 1))
        with pytest.raises(ConsistencyError, match="expected 3"):
            generate_cantor(2, "complement")


class TestInfimum:
    def test_tent_open_interval(self):
        assert infimum_on(tent(), 0, 1) == (XReal(0), False)

    def test_vee_attains_inside(self):
        assert infimum_on(vee(), 0, 1) == (XReal(0), True)

    def test_cantor_complement_inside_removed_piece(self):
        f = generate_cantor(1, "complement")
        value, attained = infimum_on(f, F(1, 3), F(2, 3))
        assert (value, attained) == (XReal(1), True)
        # Dense-sweep confirmation over the open piece.
        swept, _ = sweep_min(f, F(1, 3), F(2, 3))
        assert swept == XReal(1)

    def test_closed_flags_include_endpoints(self):
        value, attained = infimum_on(tent(), 0, 1, lo_closed=True, hi_closed=True)
        assert (value, attained) == (XReal(0), False)

    def test_pwc_point_value_visible_only_when_closed(self):
        f = PiecewiseConstant(
            (F(0), F(1, 2), F(1)),
            (XReal(5), XReal(5)),
            (XReal(0), XReal(7), XReal(0)),
        )
        assert infimum_on(f, 0, 1) == (XReal(5), True)
        assert infimum_on(f, 0, 1, lo_closed=True) == (XReal(0), False)

    def test_supremum_mirrors(self):
        assert supremum_on(tent(), 0, 1) == (XReal(1), True)
        assert supremum_on(tent(), 0, F(1, 2)) == (XReal(1), False)

    def test_inexact_rejected(self):
        with pytest.raises(InexactModelError):
            infimum_on(Blackbox(0, 1, lambda t: t), 0, 1)

    def test_needs_interior(self):
        with pytest.raises(ParameterRangeError):
            infimum_on(tent(), F(1, 2), F(1, 2))


class TestArgmax:
    def test_tent_peak(self):
        sup, H = argmax_set(tent(), 0, 1)
        assert sup == XReal(1)
        assert H.components == ((F(1, 2), F(1, 2)),)

    def test_cantor_depth2_attains_on_all_components(self):
        sup, H = argmax_set(generate_cantor(2, "set"), 0, 1)
        assert sup == XReal(1)
        assert H.components == tuple(middle_thirds_components(2))

    def test_constant_whole_interval(self):
        sup, H = argmax_set(constant(F(3)), 0, 1)
        assert sup == XReal(3)
        assert H.components == ((F(0), F(1)),)

    def test_every_attaining_grid_point_is_in_argmax(self):
        f = generate_cantor(3, "set")
        sup, H = argmax_set(f, 0, 1)
        for j in range(3**4 + 1):
            t = F(j, 3**4)
            if f.evaluate(t) == sup:
                assert H.contains(t)
            else:
                assert not H.contains(t)

    def test_infinite_supremum(self):
        f = PiecewiseConstant(
            (F(0), F(1, 2), F(1)),
            (PLUS_INF, XReal(0)),
            (PLUS_INF, PLUS_INF, XReal(0)),
        )
        sup, H = argmax_set(f, 0, 1)
        assert sup == PLUS_INF
        assert H.components == ((F(0), F(1, 2)),)


class TestClosedSet:
    def test_touching_closed_intervals_merge(self):
        s = ClosedSet1D.from_parts([(F(0), F(1, 2)), (F(1, 2), F(1))])
        assert s.components == ((F(0), F(1)),)

    def test_membership(self):
        s = ClosedSet1D.from_parts([(F(0), F(1, 4)), (F(1, 2), F(1, 2))])
        assert s.contains(F(1, 4))
        assert s.contains(F(1, 2))
        assert not s.contains(F(3, 8))


class TestSerialization:
    def test_round_trip_piecewise_linear(self):
        doc = function_to_dict(tent())
        assert doc["type"] == "piecewise_linear"
        assert function_from_dict(doc) == tent()

    def test_round_trip_piecewise_constant(self):
        f = generate_cantor(2, "complement")
        assert function_from_dict(function_to_dict(f)) == f

    def test_cantor_document(self):
        f = function_from_dict({"type": "cantor", "depth": 2, "mode": "set"})
        assert f == generate_cantor(2, "set")

    def test_tabulated_round_trip(self):
        t = Tabulated((F(0), F(1)), (XReal(2), MINUS_INF))
        assert function_from_dict(function_to_dict(t)) == t

    def test_unknown_type_named(self):
        with pytest.raises(ValidationError) as err:
            function_from_dict({"type": "spline"})
        assert err.value.field == "type"

    def test_bad_knot_named(self):
        with pytest.raises(ValidationError) as err:
            function_from_dict({"type": "piecewise_linear", "knots": [["0", "0"], ["oops", "1"]]})
        assert "knots[1]" in err.value.field

    def test_mismatched_domain_rejected(self):
        with pytest.raises(ValidationError) as err:
            function_from_dict(
                {
                    "type": "piecewise_linear",
                    "domain": ["0", "2"],
                    "knots": [["0", "0"], ["1", "1"]],
                }
            )
        assert err.value.field == "domain"

    def test_decreasing_breaks_rejected(self):
        with pytest.raises(ValidationError):
            function_from_dict(
                {
                    "type": "piecewise_constant",
                    "breaks": ["0", "1", "1/2"],
                    "piece_values": ["0", "0"],
                    "point_values": ["0", "0", "0"],
                }
            )

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"type": "piecewise_constant", "breaks": "01", "piece_values": ["0"], "point_values": ["0", "0"]}, "breaks"),
            ({"type": "piecewise_constant", "breaks": ["0", "1"], "piece_values": "0", "point_values": ["0", "0"]}, "piece_values"),
            ({"type": "piecewise_constant", "breaks": ["0", "1"], "piece_values": ["0"], "point_values": {"a": "0"}}, "point_values"),
            ({"type": "tabulated", "positions": "01", "values": ["0", "1"]}, "positions"),
            ({"type": "tabulated", "positions": ["0", "1"], "values": 7}, "values"),
            ({"type": "cantor", "depth": True, "mode": "set"}, "depth"),
        ],
    )
    def test_malformed_fields_named(self, doc, field):
        with pytest.raises(ValidationError) as err:
            function_from_dict(doc)
        assert err.value.field == field
