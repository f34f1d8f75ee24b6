import random
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest

from conftest import (
    coprime_linear,
    is_local_max_on_grid,
    kernel_models,
    middle_thirds_components,
    probe_points,
    reference_value,
    refined_grid,
    structural_positions,
    uniform_grid,
)
from qcvx import (
    MINUS_INF,
    PLUS_INF,
    LocalMaximum,
    LocalShape,
    PiecewiseConstant,
    PiecewiseLinear,
    XReal,
    argmax_set,
    check_no_strict_sided_maxima,
    check_semicontinuity,
    enumerate_local_maxima,
    generate_cantor,
    is_quasiconvex,
    local_quasiconvexity_at,
    paired_maxima_certificate,
    revalidate_certificate,
)
from qcvx.certificates import MAX_REVALIDATION_POINTS
from qcvx.core import format_rational
from qcvx.corpus import (
    constant,
    monotone,
    monotone_concave,
    ramp_plateau,
    random_corpus,
    tent,
    usc_corpus,
    vee,
)
from qcvx.errors import (
    InteriorRequiredError,
    ParameterRangeError,
    PreconditionError,
    SemicontinuityError,
)

F = Fraction


class TestCertificateExtraction:
    def test_tent_unique_peak(self):
        cert = paired_maxima_certificate(tent(), 0, 1)
        assert cert.p == cert.q == F(1, 2)
        assert cert.sup_value == XReal(1)
        assert cert.checks.all_passed

    def test_vee_has_no_certificate(self):
        assert paired_maxima_certificate(vee(), 0, 1) is None

    def test_cantor_depth2_on_inner_interval(self):
        f = generate_cantor(2, "set")
        x0, y0 = F(2, 5), F(4, 5)
        # Independent derivation: the only retained depth-2 component
        # meeting [2/5, 4/5] is [2/3, 7/9]; confirm by exhaustive
        # evaluation on the 3**-4 grid.
        inside = [c for c in middle_thirds_components(2) if c[1] >= x0 and c[0] <= y0]
        assert inside == [(F(2, 3), F(7, 9))]
        for j in range(82):
            t = F(j, 81)
            if x0 < t < y0:
                expected = XReal(1) if F(2, 3) <= t <= F(7, 9) else XReal(0)
                assert f.evaluate(t) == expected
        cert = paired_maxima_certificate(f, x0, y0)
        assert (cert.p, cert.q) == (F(2, 3), F(7, 9))
        assert f.evaluate(cert.p) == f.evaluate(cert.q) == XReal(1)
        assert cert.checks.values_equal
        assert cert.checks.both_local_maxima
        assert cert.checks.one_sided_strictness

    def test_supremum_meets_level_before_any_argmax_set(self):
        # usc, with f(0) = 5 above everything inside ]0, 2[: the interior
        # supremum 0 does not exceed the level, so there is no certificate,
        # although the argmax set of ]0, 2[ is not closed at 0.
        f = PiecewiseConstant((0, 1, 2), (0, 0), (5, 0, 0))
        assert check_semicontinuity(f).is_usc
        assert paired_maxima_certificate(f, 0, 2) is None
        with pytest.raises(PreconditionError, match="not closed at 0"):
            argmax_set(f, 0, 2)

    def test_usc_audit_is_hard(self):
        f = generate_cantor(1, "complement")
        with pytest.raises(SemicontinuityError) as err:
            paired_maxima_certificate(f, 0, 1)
        assert F(1, 3) in err.value.offending

    def test_interval_interiority(self):
        cert = paired_maxima_certificate(tent(), 0, 1)
        assert cert.x0 < cert.p <= cert.q < cert.y0

    def test_revalidation_block(self):
        cert = paired_maxima_certificate(tent(), 0, 1)
        reval = revalidate_certificate(tent(), cert, 101)
        assert reval.all_passed
        assert reval.checked_points >= 101

    @pytest.mark.parametrize("name,f", usc_corpus())
    def test_dichotomy_on_breakpoint_pairs(self, name, f):
        # On every breakpoint pair: either no certificate and no interior
        # point above max(f(x0), f(y0)) on a dense grid, or a certificate
        # with all checks passed.
        bps = f.breakpoints()
        pairs = [(bps[0], bps[-1])]
        if len(bps) > 2:
            pairs.append((bps[0], bps[len(bps) // 2]))
            pairs.append((bps[len(bps) // 2], bps[-1]))
        for x0, y0 in pairs:
            if not x0 < y0:
                continue
            cert = paired_maxima_certificate(f, x0, y0)
            threshold = max(f.evaluate(x0), f.evaluate(y0))
            interior = [t for t in refined_grid(f, 41) if x0 < t < y0]
            if cert is None:
                assert all(f.evaluate(t) <= threshold for t in interior)
            else:
                assert cert.checks.all_passed
                assert cert.sup_value > threshold

    @pytest.mark.parametrize("index", range(15))
    def test_certificates_on_random_corpus(self, index):
        # A missing certificate on (0, 1) only means nothing exceeds
        # max(f(0), f(1)); the function may still violate on inner pairs.
        f = random_corpus(15)[index]
        cert = paired_maxima_certificate(f, 0, 1)
        threshold = max(f.evaluate(F(0)), f.evaluate(F(1)))
        if cert is None:
            for t in refined_grid(f, 67):
                if F(0) < t < F(1):
                    assert f.evaluate(t) <= threshold
        else:
            assert cert.checks.all_passed
            assert revalidate_certificate(f, cert, 101).all_passed

    def test_single_point_argmax_is_strictly_quasiconcave_locally(self):
        cert = paired_maxima_certificate(tent(), 0, 1)
        assert cert.p == cert.q
        shape = local_quasiconvexity_at(tent(), cert.p)
        assert shape.locally_strictly_quasiconcave


def _literal_revalidation(f, cert, grid_points):
    """The revalidation failures by the per-position conditions, each
    position evaluated on its own."""
    x0, y0, p, q, sup = cert.x0, cert.y0, cert.p, cert.q, cert.sup_value
    uniform = [x0 + (y0 - x0) * F(i, grid_points - 1) for i in range(grid_points)]
    breaks = [b for b in f.breakpoints() if x0 <= b <= y0]
    positions = sorted(set(chain(uniform, breaks, (p, q))))
    failures = []
    if f.evaluate(p) != sup or f.evaluate(q) != sup:
        failures.append("endpoint values differ from supremum")
    for t in positions:
        v = f.evaluate(t)
        if x0 < t < y0 and v > sup:
            failures.append(f"f({format_rational(t)}) exceeds the supremum")
        if x0 < t < p and not v < sup:
            failures.append(f"f({format_rational(t)}) not strictly below left of p")
        if q < t < y0 and not v < sup:
            failures.append(f"f({format_rational(t)}) not strictly below right of q")
    return len(positions), failures


def _tampered_certificates(f, rng, template):
    """Certificates on f with the supremum raised, lowered or replaced,
    and p and q moved inward or outward within [x0, y0]."""
    bps = f.breakpoints()
    for _ in range(12):
        x0, y0 = sorted(rng.sample(bps, 2)) if len(bps) > 2 else (bps[0], bps[-1])
        inside = [b for b in bps if x0 <= b <= y0]
        inside += [x0 + (y0 - x0) * F(rng.randint(0, 12), 12) for _ in range(3)]
        p, q = sorted(rng.choices(inside, k=2))
        values = [f.evaluate(t) for t in (p, q, (x0 + y0) / 2)]
        sups = values + [PLUS_INF, MINUS_INF]
        sups += [XReal(v.finite_value + d) for v in values if v.is_finite for d in (F(-1, 3), F(1, 3))]
        for sup in rng.sample(sups, 3):
            yield replace(template, x0=x0, y0=y0, p=p, q=q, sup_value=sup)
    for x0, y0 in [(bps[0], bps[-1]), (bps[0], bps[len(bps) // 2])]:
        try:
            cert = paired_maxima_certificate(f, x0, y0)
        except SemicontinuityError:
            continue
        if cert is None:
            continue
        p, q, sup = cert.p, cert.q, cert.sup_value
        yield cert
        if sup.is_finite:
            yield replace(cert, sup_value=XReal(sup.finite_value - F(1, 7)))
            yield replace(cert, sup_value=XReal(sup.finite_value + F(1, 7)))
        yield replace(cert, p=(p + q) / 2)
        yield replace(cert, q=(p + q) / 2)
        yield replace(cert, p=(x0 + p) / 2, q=(q + y0) / 2)
        yield replace(cert, p=x0)
        yield replace(cert, q=y0)


class TestRevalidationFailures:
    """Tampered certificates: the failures and their order against the
    literal per-position conditions."""

    def test_matches_per_position_conditions(self):
        template = paired_maxima_certificate(tent(), 0, 1)
        rng = random.Random(29)
        seen = set()
        models = kernel_models()
        for f in chain(models["cantor"], models["pwc"][::3], models["pl"][::3], [tent()]):
            for cert in _tampered_certificates(f, rng, template):
                for grid_points in (5, 21):
                    reval = revalidate_certificate(f, cert, grid_points)
                    checked, failures = _literal_revalidation(f, cert, grid_points)
                    assert reval.checked_points == checked
                    assert list(reval.failures) == failures[:10], cert
                    assert reval.all_passed == (not failures)
                    seen.update(text.rsplit(")", 1)[-1] for text in failures)
        assert seen == {
            "endpoint values differ from supremum",
            " exceeds the supremum",
            " not strictly below left of p",
            " not strictly below right of q",
        }

    @pytest.mark.parametrize(
        "p,q", [(F(3, 4), F(1, 4)), (F(-1, 8), F(1, 2)), (F(1, 2), F(9, 8))]
    )
    def test_unordered_points_rejected(self, p, q):
        cert = replace(paired_maxima_certificate(tent(), 0, 1), p=p, q=q)
        with pytest.raises(ParameterRangeError, match="x0 <= p <= q <= y0"):
            revalidate_certificate(tent(), cert, 21)

    @pytest.mark.parametrize("grid_points", [1, 0, -3])
    def test_grid_without_both_ends_rejected(self, grid_points):
        cert = paired_maxima_certificate(tent(), 0, 1)
        with pytest.raises(ParameterRangeError, match=f"grid_points must be at least 2, got {grid_points}"):
            revalidate_certificate(tent(), cert, grid_points)

    @pytest.mark.parametrize("grid_points", [MAX_REVALIDATION_POINTS + 1, 10**9])
    def test_oversized_grid_refused_before_built(self, point_budget, grid_points):
        cert = paired_maxima_certificate(tent(), 0, 1)
        message = f"grid_points must be at most {MAX_REVALIDATION_POINTS}, got {grid_points}"
        with pytest.raises(ParameterRangeError, match=message):
            revalidate_certificate(tent(), cert, grid_points)

    def test_two_point_grid_checks_the_ends(self):
        cert = paired_maxima_certificate(tent(), 0, 1)
        reval = revalidate_certificate(tent(), cert, 2)
        assert reval.all_passed and reval.grid_points == 2
        assert reval.checked_points == 3  # 0, the peak p = q = 1/2, and 1


class TestLocalShape:
    def test_tent_peak_strictly_quasiconcave(self):
        shape = local_quasiconvexity_at(tent(), F(1, 2))
        assert shape.locally_strictly_quasiconcave
        assert not shape.locally_quasiconvex
        assert shape.delta == F(1, 2)

    def test_monotone_locally_quasiconvex_everywhere(self):
        f = monotone()
        for p in uniform_grid(F(0), F(1), 9)[1:-1]:
            shape = local_quasiconvexity_at(f, p)
            assert shape.locally_quasiconvex

    def test_vee_bottom(self):
        shape = local_quasiconvexity_at(vee(), F(1, 2))
        assert shape.locally_quasiconvex
        assert not shape.locally_strictly_quasiconcave

    def test_boundary_rejected(self):
        with pytest.raises(InteriorRequiredError):
            local_quasiconvexity_at(tent(), 0)

    def test_piecewise_constant_interior_point(self):
        f = generate_cantor(1, "set")
        shape = local_quasiconvexity_at(f, F(1, 2))
        assert shape.locally_quasiconvex  # constant neighborhood
        shape_boundary = local_quasiconvexity_at(f, F(1, 3))
        # At a retained endpoint the value 1 strictly dominates the
        # removed side but not the retained side.
        assert not shape_boundary.locally_strictly_quasiconcave


class TestLocalMaxima:
    def test_tent_single_strict_peak(self):
        (record,) = enumerate_local_maxima(tent())
        assert (record.left, record.right) == (F(1, 2), F(1, 2))
        assert record.strict_from_left and record.strict_from_right
        probe = is_local_max_on_grid(tent(), F(1, 2), record.witness_delta)
        assert probe["local_max"] and probe["strict_left"] and probe["strict_right"]

    def test_ramp_plateau_record(self):
        (record,) = enumerate_local_maxima(ramp_plateau())
        assert (record.left, record.right) == (F(1, 2), F(1))
        assert record.strict_from_left
        assert not record.strict_from_right
        # Direct evaluation on a 1/8 grid around the plateau edge.
        f = ramp_plateau()
        probe = is_local_max_on_grid(f, F(1, 2), F(1, 8), steps=8)
        assert probe["local_max"] and probe["strict_left"] and not probe["strict_right"]
        inner = is_local_max_on_grid(f, F(3, 4), F(1, 8), steps=8)
        assert inner["local_max"] and not inner["strict_left"] and not inner["strict_right"]

    def test_constant_single_plateau(self):
        (record,) = enumerate_local_maxima(constant())
        assert (record.left, record.right) == (F(0), F(1))
        assert not record.strict_from_left and not record.strict_from_right

    def test_monotone_has_no_interior_maxima(self):
        assert enumerate_local_maxima(monotone()) == []
        assert enumerate_local_maxima(vee()) == []

    def test_descending_plateau_strict_right_edge(self):
        f = PiecewiseLinear(
            ((F(0), F(1)), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(1), F(0)))
        )
        (record,) = enumerate_local_maxima(f)
        assert (record.left, record.right) == (F(1, 4), F(1, 2))
        assert not record.left_closed  # 1/4 itself is dominated from the left
        assert record.right_closed
        assert not record.strict_from_left
        assert record.strict_from_right
        probe = is_local_max_on_grid(f, F(1, 2), F(1, 8), steps=8)
        assert probe["local_max"] and probe["strict_right"] and not probe["strict_left"]

    def test_cantor_depth2_components_are_plateaus(self):
        records = enumerate_local_maxima(generate_cantor(2, "set"))
        spans = [(r.left, r.right) for r in records]
        assert spans == middle_thirds_components(2)
        eight_ninths = records[-1]
        assert eight_ninths.strict_from_left and not eight_ninths.strict_from_right
        first = records[0]
        assert not first.strict_from_left and first.strict_from_right
        for middle in records[1:-1]:
            assert middle.strict_from_left and middle.strict_from_right

    def test_breakpoint_spike(self):
        f = PiecewiseConstant(
            (F(0), F(1, 2), F(1)),
            (XReal(0), XReal(0)),
            (XReal(0), XReal(1), XReal(0)),
        )
        (record,) = enumerate_local_maxima(f)
        assert (record.left, record.right) == (F(1, 2), F(1, 2))
        assert record.strict_from_left and record.strict_from_right

    def test_step_edge_is_one_sided(self):
        # Nondecreasing step: the breakpoint value matches the upper
        # piece, so the edge is a local maximum strict from the left.
        f = PiecewiseConstant(
            (F(0), F(1, 2), F(1)),
            (XReal(0), XReal(1)),
            (XReal(0), XReal(1), XReal(1)),
        )
        records = enumerate_local_maxima(f)
        assert len(records) == 1
        record = records[0]
        assert record.left == F(1, 2) and record.left_closed
        assert record.strict_from_left and not record.strict_from_right
        probe = is_local_max_on_grid(f, F(1, 2), F(1, 8), steps=8)
        assert probe["local_max"] and probe["strict_left"] and not probe["strict_right"]

    @pytest.mark.parametrize("index", range(10))
    def test_grid_classification_agrees_on_random_corpus(self, index):
        f = random_corpus(10)[index]
        records = enumerate_local_maxima(f)
        for record in records:
            if record.left_closed and F(0) < record.left < F(1):
                probe = is_local_max_on_grid(
                    f, record.left, record.witness_delta / 2, steps=8
                )
                assert probe["local_max"]
                assert probe["strict_left"] == record.strict_from_left


def reference_local_maxima(f) -> list[LocalMaximum]:
    """Chains of equal-valued dominating atoms, with every neighbour and
    gap found by scanning the breakpoints."""
    bps = structural_positions(f)
    last = len(bps) - 1
    if isinstance(f, PiecewiseLinear):
        slopes = [(v1 - v0) / (p1 - p0) for (p0, v0), (p1, v1) in zip(f.knots, f.knots[1:])]
        atoms = []
        for i, (p, v) in enumerate(f.knots):
            into_ok = i == 0 or slopes[i - 1] >= 0
            out_ok = i == last or slopes[i] <= 0
            atoms.append((p, p, True, XReal(v), into_ok and out_ok))
            if i < last:
                atoms.append((p, bps[i + 1], False, XReal(v), slopes[i] == 0))
        below_left = lambda i, value: slopes[i - 1] > 0
        below_right = lambda i, value: slopes[i] < 0
    else:
        w, v = f.point_values, f.piece_values
        atoms = []
        for i, b in enumerate(bps):
            left_ok = i == 0 or w[i] >= v[i - 1]
            right_ok = i == last or w[i] >= v[i]
            atoms.append((b, b, True, w[i], left_ok and right_ok))
            if i < last:
                atoms.append((b, bps[i + 1], False, v[i], v[i] >= w[i] and v[i] >= w[i + 1]))
        below_left = lambda i, value: v[i - 1] < value
        below_right = lambda i, value: v[i] < value
    a, b = bps[0], bps[-1]
    records = []
    i = 0
    while i < len(atoms):
        if not atoms[i][4]:
            i += 1
            continue
        j = i
        while j + 1 < len(atoms) and atoms[j + 1][4] and atoms[j + 1][3] == atoms[i][3]:
            j += 1
        left, right, left_closed, value = atoms[i][0], atoms[j][1], atoms[i][2], atoms[i][3]
        right_closed = atoms[j][2]
        i = j + 1
        if left == right and not a < left < b:
            continue
        gaps = [left - max(x for x in bps if x < left)] if left > a else []
        gaps += [min(x for x in bps if x > right) - right] if right < b else []
        records.append(
            LocalMaximum(
                left=left,
                right=right,
                left_closed=left_closed,
                right_closed=right_closed,
                value=value,
                strict_from_left=left_closed and left > a and below_left(bps.index(left), value),
                strict_from_right=right_closed and right < b and below_right(bps.index(right), value),
                witness_delta=min(gaps) if gaps else (b - a) / 2,
            )
        )
    return records


def reference_local_shape(f, p: Fraction) -> LocalShape:
    """Both punctured sides of radius delta lie inside one piece, where f
    is constant or affine, so one probe per side decides each predicate."""
    bps = structural_positions(f)
    delta = min(p - max(x for x in bps if x < p), min(x for x in bps if x > p) - p)
    fp = reference_value(f, p)
    sides = [reference_value(f, p - delta / 2), reference_value(f, p + delta / 2)]
    qc = any(w >= fp for w in sides)
    qcc = all(w < fp for w in sides)
    return LocalShape(qc, qcc, delta if qc or qcc else None)


class TestIndexedWalksAgainstScans:
    @pytest.mark.parametrize("family", ["cantor", "pwc", "pl"])
    def test_local_maxima(self, family):
        for f in kernel_models()[family]:
            assert enumerate_local_maxima(f) == reference_local_maxima(f)

    def test_local_maxima_with_plateaus(self):
        f = PiecewiseLinear(
            ((0, 0), (1, 1), (2, 1), (3, 0), (4, 0), (5, 2), (6, 2), (7, 2), (8, 1))
        )
        g = PiecewiseConstant(
            (0, 1, 2, 3, 4, 5),
            (XReal(1), XReal(1), XReal(0), XReal(1), XReal(1)),
            (XReal(0), XReal(1), XReal(1), XReal(0), XReal(1), XReal(1)),
        )
        for model in (f, g, g.negate(), f.negate()):
            assert enumerate_local_maxima(model) == reference_local_maxima(model)

    @pytest.mark.parametrize("family", ["cantor", "pwc", "pl", "coprime"])
    def test_local_shape(self, family):
        # The radius divides position keys by the common denominator, which
        # the coprime family makes a product of many primes.
        models = {**kernel_models(), "coprime": [coprime_linear(s) for s in range(6)]}
        for index, f in enumerate(models[family]):
            a, b = f.domain
            for p in probe_points(f, random.Random(index)):
                if a < p < b:
                    assert local_quasiconvexity_at(f, p) == reference_local_shape(f, p), (index, p)


class TestStrictSidedHypothesis:
    def test_constant_holds(self):
        result = check_no_strict_sided_maxima(constant())
        assert result.holds and not result.offending

    def test_tent_fails_at_peak(self):
        result = check_no_strict_sided_maxima(tent())
        assert not result.holds
        assert result.offending[0].left == F(1, 2)

    def test_ramp_plateau_asymmetry(self):
        # The sufficient condition fails while the function is
        # quasiconvex: the check is one-directional.
        result = check_no_strict_sided_maxima(ramp_plateau())
        assert not result.holds
        assert is_quasiconvex(ramp_plateau()).is_quasiconvex

    @pytest.mark.parametrize("name,f", usc_corpus())
    def test_holds_implies_quasiconvex_on_usc_corpus(self, name, f):
        assert check_semicontinuity(f).is_usc
        if check_no_strict_sided_maxima(f).holds:
            assert is_quasiconvex(f).is_quasiconvex

    @pytest.mark.parametrize("index", range(25))
    def test_holds_implies_quasiconvex_on_random_corpus(self, index):
        f = random_corpus(25)[index]
        if check_no_strict_sided_maxima(f).holds:
            assert is_quasiconvex(f).is_quasiconvex

    def test_monotone_concave_holds_and_quasiconvex(self):
        assert check_no_strict_sided_maxima(monotone_concave()).holds
        assert is_quasiconvex(monotone_concave()).is_quasiconvex
