import inspect
import math
import random
from fractions import Fraction

import pytest

from conftest import coprime_linear, random_pwc
from qcvx import (
    MINUS_INF,
    PLUS_INF,
    Blackbox,
    OpenInterval,
    PiecewiseConstant,
    Tabulated,
    XReal,
    build_grid,
    diff_report,
    generate_cantor,
    is_quasiconvex,
    normalize,
    oracle_quasiconvex,
    oracle_violation_set,
    violation_set,
)
from qcvx import oracle
from qcvx.core import xreal_max
from qcvx.corpus import monotone, random_corpus, tent, vee
from qcvx.errors import NoSampleError, ParameterRangeError, QcvxError
from qcvx.oracle import FLOAT_EPSILON, MAX_GRID_POINTS, ViolatingTriple, _integer_keys
from qcvx.intervals import OpenIntervalSet
from qcvx.violations import ViolationDecomposition

F = Fraction


def iv(a, b):
    return OpenInterval(F(a), F(b))


class TestQuasiconvexOracle:
    def test_tent_found_violating(self):
        verdict = oracle_quasiconvex(tent(), grid_points=101)
        assert not verdict.is_quasiconvex_on_grid
        assert verdict.total_violations > 0
        f = tent()
        for triple in verdict.violating_triples:
            assert triple.t_x < triple.t_z < triple.t_y
            assert f.evaluate(triple.t_z) > max(
                f.evaluate(triple.t_x), f.evaluate(triple.t_y)
            )

    def test_vee_clean(self):
        verdict = oracle_quasiconvex(vee(), grid_points=101)
        assert verdict.is_quasiconvex_on_grid
        assert verdict.total_violations == 0
        assert not verdict.violating_triples

    def test_cantor_depth3_on_power_grid(self):
        # 82 uniform points on [0, 1] are exactly the multiples of 1/81,
        # which include retained-set endpoints and removed interiors.
        f = generate_cantor(3, "set")
        verdict = oracle_quasiconvex(f, grid_points=82)
        assert not verdict.is_quasiconvex_on_grid

    def test_grid_includes_breakpoints(self):
        grid = build_grid(tent(), grid_points=4)
        assert F(1, 2) in grid
        assert grid[0] == F(0) and grid[-1] == F(1)

    def test_deterministic(self):
        a = oracle_quasiconvex(tent(), grid_points=51)
        b = oracle_quasiconvex(tent(), grid_points=51)
        assert a == b

    def test_triples_capped_but_counted(self):
        verdict = oracle_quasiconvex(
            tent(), grid_points=101, max_triples=5
        )
        assert len(verdict.violating_triples) == 5
        assert verdict.total_violations > 5

    def test_blackbox_float_mode_with_epsilon(self):
        bump = Blackbox(0, 1, lambda t: float(t) * (1.0 - float(t)))
        verdict = oracle_quasiconvex(bump, grid_points=51)
        assert verdict.grid.float_mode
        assert not verdict.is_quasiconvex_on_grid
        flat = Blackbox(0, 1, lambda t: 1.0)
        assert oracle_quasiconvex(flat, grid_points=51).is_quasiconvex_on_grid

    def test_epsilon_masks_noise(self):
        noisy = Blackbox(0, 1, lambda t: 0.0 if t != F(1, 2) else 1e-12)
        assert oracle_quasiconvex(noisy, grid_points=11).is_quasiconvex_on_grid

    def test_epsilon_masks_noise_in_the_violation_set(self):
        # Both grids compare black-box values with the same margin.
        bump = Blackbox(0, 1, lambda t: 1e-12 if 0 < t < 1 else 0.0)
        assert oracle_quasiconvex(bump, grid_points=11).total_violations == 0
        assert oracle_violation_set(bump, F(0), F(1), grid_points=11).is_empty

    def test_epsilon_keeps_a_step_above_it(self):
        step = Blackbox(0, 1, lambda t: 1.0 if F(1, 4) < t < F(3, 4) else 0.0)
        approx = oracle_violation_set(step, F(0), F(1), grid_points=11)
        assert list(approx) == [iv("1/5", "4/5")]

    @pytest.mark.parametrize("index", range(40))
    def test_agreement_with_exact_decision_on_random_corpus(self, index):
        f = random_corpus(40)[index]
        exact = is_quasiconvex(f).is_quasiconvex
        grid = oracle_quasiconvex(f, grid_points=101)
        assert grid.is_quasiconvex_on_grid == exact

    @pytest.mark.parametrize("depth,mode", [(1, "set"), (2, "set"), (3, "set"), (2, "complement")])
    def test_agreement_on_cantor_models(self, depth, mode):
        f = generate_cantor(depth, mode)
        exact = is_quasiconvex(f).is_quasiconvex
        grid = oracle_quasiconvex(f, grid_points=28)
        assert grid.is_quasiconvex_on_grid == exact

    def test_tabulated_uses_sample_grid(self):
        from qcvx import Tabulated, XReal

        t = Tabulated(
            (F(0), F(1, 4), F(1, 2), F(1)),
            (XReal(0), XReal(3), XReal(1), XReal(0)),
        )
        verdict = oracle_quasiconvex(t, grid_points=999)
        assert verdict.grid.total_points == 4
        assert not verdict.is_quasiconvex_on_grid
        triple = verdict.violating_triples[0]
        assert (triple.t_x, triple.t_z, triple.t_y) == (F(0), F(1, 4), F(1, 2))

    def test_segment_restriction_through_float_oracle(self):
        from qcvx import Point, Segment, restrict_to_segment

        def bump(point):
            u, v = point.coordinates
            return -float(u * u + v * v)

        h = restrict_to_segment(bump, Segment(Point.of(-1, -1), Point.of(1, 1)))
        verdict = oracle_quasiconvex(h, grid_points=51)
        assert verdict.grid.float_mode
        assert not verdict.is_quasiconvex_on_grid


def _literal_triples(f, grid_points, *, float_mode=False):
    """Every violating grid triple, found by a plain loop over all
    i < k < j that tests f(z) > max(f(x), f(y)) directly, in (i, k, j)
    order."""
    grid = build_grid(f, grid_points=grid_points)
    if float_mode:
        values = [float(f.evaluate(t)) for t in grid]
        eps = float(FLOAT_EPSILON)

        def violates(vx, vz, vy):
            return vz > max(vx, vy) + eps

    else:
        values = [f.evaluate(t) for t in grid]

        def violates(vx, vz, vy):
            return vz > xreal_max(vx, vy)

    g = len(grid)
    return [
        ViolatingTriple(t_x=grid[i], t_y=grid[j], t_z=grid[k])
        for i in range(g)
        for k in range(i + 1, g)
        for j in range(k + 1, g)
        if violates(values[i], values[k], values[j])
    ]


def _random_tabulated(seed):
    rng = random.Random(seed)
    positions = sorted({Fraction(rng.randint(0, 200), 200) for _ in range(48)})
    pool = [XReal(v) for v in range(-4, 5)] + [PLUS_INF, MINUS_INF]
    return Tabulated(tuple(positions), tuple(rng.choice(pool) for _ in positions))


# Found by search.  In decimal the high value is the low one plus 1e-9, so
# the pair sits on the margin, and in floating point the high value is
# above fl(low + eps) while fl(high - eps) is not above the low one.
_MARGIN_LOW, _MARGIN_HIGH = -9.32e-10, 6.8e-11

_CROSS_CHECK_MODELS = {
    "random_pl_0": lambda: random_corpus(6)[0],
    "random_pl_2": lambda: random_corpus(6)[2],
    "random_pl_5": lambda: random_corpus(6)[5],
    "pwc_inf_1": lambda: random_pwc(1, allow_infinite=True),
    "pwc_inf_2": lambda: random_pwc(2, allow_infinite=True),
    "pwc_inf_7": lambda: random_pwc(7, allow_infinite=True),
    "tabulated": lambda: _random_tabulated(3),
    "blackbox": lambda: Blackbox(0, 1, lambda t: math.sin(9 * float(t))),
    "blackbox_margin": lambda: Blackbox(
        0, 1, lambda t: _MARGIN_HIGH if F(1, 4) < t < F(3, 4) else _MARGIN_LOW
    ),
}


class TestLiteralCrossCheck:
    """The oracle against a definition-literal triple loop on ~40 points."""

    @pytest.mark.parametrize("name", sorted(_CROSS_CHECK_MODELS))
    def test_matches_triple_loop(self, name):
        f = _CROSS_CHECK_MODELS[name]()
        expected = _literal_triples(f, 33, float_mode=isinstance(f, Blackbox))
        verdict = oracle_quasiconvex(f, grid_points=33, max_triples=len(expected) + 1)
        assert verdict.total_violations == len(expected)
        assert list(verdict.violating_triples) == expected
        assert verdict.is_quasiconvex_on_grid == (not expected)
        assert len({t.t_x for t in expected}) > 1  # witnesses span rows
        cap = len(expected) // 2
        capped = oracle_quasiconvex(f, grid_points=33, max_triples=cap)
        assert list(capped.violating_triples) == expected[:cap]
        assert capped.total_violations == len(expected)

    def test_margin_model_splits_the_two_epsilon_comparisons(self):
        eps = float(FLOAT_EPSILON)
        assert _MARGIN_HIGH > _MARGIN_LOW + eps
        assert not _MARGIN_HIGH - eps > _MARGIN_LOW


class TestViolationSetOracle:
    def test_cantor_complement_depth1_run(self):
        f = generate_cantor(1, "complement")
        approx = oracle_violation_set(f, F(0), F(1), grid_points=28)
        # Spacing 1/27: marked points are 10/27 .. 17/27, so the reported
        # run spans their unmarked neighbors 9/27 and 18/27.
        assert approx == normalize([iv("1/3", "2/3")])

    def test_monotone_empty(self):
        f = monotone()
        for x, y in ((F(0), F(1)), (F(1, 4), F(3, 4))):
            assert oracle_violation_set(f, x, y, grid_points=21).is_empty

    def test_tent_full_run(self):
        approx = oracle_violation_set(tent(), F(0), F(1), grid_points=21)
        assert approx == normalize([iv(0, 1)])

    def test_inner_approximation_within_one_cell(self):
        f = generate_cantor(2, "complement")
        approx = oracle_violation_set(f, F(0), F(1), grid_points=82)
        exact = violation_set(f, F(0), F(1)).components
        report = diff_report(exact, approx, F(1, 81))
        assert report.consistent

    def test_tabulated_pair_between_two_samples_names_x(self):
        # No sample lies in [1/8, 3/8], so the grid holds only the pair's
        # ends; the first of them is reported as the missing sample.
        f = Tabulated((F(0), F(1, 2), F(1)), (XReal(1), XReal(0), XReal(1)))
        with pytest.raises(NoSampleError, match=r"^1/8 is not a sample position$"):
            oracle_violation_set(f, F(1, 8), F(3, 8))


class TestDiffReport:
    def test_matching_within_slack(self):
        exact = normalize([iv("1/3", "2/3")])
        approx = normalize([iv("9/27", "18/27")])
        assert diff_report(exact, approx, F(1, 27)).consistent

    def test_both_empty(self):
        assert diff_report(normalize([]), normalize([]), F(1, 27)).consistent

    def test_missed_component(self):
        report = diff_report(normalize([iv("1/3", "2/3")]), normalize([]), F(1, 27))
        assert not report.consistent
        assert report.discrepancies[0].kind == "missed_exact"

    def test_unmatched_approximation(self):
        report = diff_report(normalize([]), normalize([iv("1/3", "2/3")]), F(1, 27))
        assert not report.consistent
        assert report.discrepancies[0].kind == "unmatched_approx"

    def test_short_components_may_be_missed(self):
        exact = normalize([iv(0, "1/100")])
        report = diff_report(exact, normalize([]), F(1, 27))
        assert report.consistent  # shorter than twice the slack

    def test_isolated_violation_run_matched(self):
        # A spike at 1/2 above two flat pieces: the grid marks the single
        # point 1/2, the exact decomposition has no component there but
        # lists 1/2 as an isolated violation.
        f = PiecewiseConstant(
            (F(0), F(1, 2), F(1)), (XReal(0), XReal(0)), (XReal(0), XReal(1), XReal(0))
        )
        d = violation_set(f, 0, 1)
        assert d.components.is_empty and d.isolated_violations == (F(1, 2),)
        approx = oracle_violation_set(f, F(0), F(1), grid_points=21)
        assert approx == normalize([iv("9/20", "11/20")])
        assert diff_report(d, approx, F(1, 20)).consistent
        # The bare component set carries no isolated points.
        assert not diff_report(d.components, approx, F(1, 20)).consistent
        # Wider than twice the slack: still unmatched.
        report = diff_report(d, approx, F(1, 40))
        assert [x.kind for x in report.discrepancies] == ["unmatched_approx"]

    def test_accepts_decomposition(self):
        d = violation_set(tent(), 0, 1)
        approx = oracle_violation_set(tent(), F(0), F(1), grid_points=21)
        assert diff_report(d, approx, F(1, 20)).consistent


def _reference_grid(f, n, lo=None, hi=None):
    """The grid as a sort of every point followed by de-duplication; the
    piece midpoints join it on piecewise-constant models."""
    a, b = f.domain
    lo = a if lo is None else F(lo)
    hi = b if hi is None else F(hi)
    if isinstance(f, Tabulated):
        return [p for p in f.positions if lo <= p <= hi]
    breaks = [p for p in f.breakpoints() if lo <= p <= hi]
    points = [lo + (hi - lo) * F(i, n - 1) for i in range(n)] + breaks
    if isinstance(f, PiecewiseConstant):
        points += [(b0 + b1) / 2 for b0, b1 in zip(breaks, breaks[1:])]
    return sorted(set(points))


_GRID_MODELS = [generate_cantor(d, m) for d in (1, 3, 4) for m in ("set", "complement")]
_GRID_MODELS += [random_pwc(s, pieces=3 + s, allow_infinite=True) for s in range(0, 20, 4)]
_GRID_MODELS += random_corpus(6) + [_random_tabulated(4)]


class TestGridMerge:
    """The index-merged grid against a literal sort and de-duplication."""

    @pytest.mark.parametrize("n", [3, 4, 21, 61, 201])
    def test_matches_sorted_union(self, n):
        rng = random.Random(n)
        for f in _GRID_MODELS:
            a, b = f.domain
            bps = f.breakpoints()
            ranges = [
                (None, None),
                (bps[1], bps[-2]) if len(bps) > 3 else (None, None),
                (a + (b - a) * F(rng.randint(1, 30), 61), b - (b - a) * F(rng.randint(1, 30), 61)),
                (bps[0], bps[0] + (bps[1] - bps[0]) / 3),
            ]
            for lo, hi in ranges:
                assert build_grid(f, grid_points=n, lo=lo, hi=hi) == _reference_grid(f, n, lo, hi), (f, n, lo, hi)


class TestIntegerKeys:
    """The ranks of the integer keys against the ranks of the sorted
    distinct values, so the keys order as the values do."""

    @staticmethod
    def reference_ranks(values):
        order = {v: i for i, v in enumerate(sorted(set(values)))}
        return [order[v] for v in values]

    @classmethod
    def key_ranks(cls, values):
        return cls.reference_ranks(_integer_keys(values))

    @pytest.mark.parametrize(
        "values",
        [
            [PLUS_INF, MINUS_INF, PLUS_INF],
            [MINUS_INF, MINUS_INF],
            [PLUS_INF],
            [XReal(F(7, 3))] * 4,
            [XReal(F(-1, 6)), PLUS_INF, XReal(F(1, 4)), MINUS_INF, XReal(F(-1, 6)), XReal(0)],
            [XReal(F(1, 10**30)), XReal(F(1, 10**30 + 1)), XReal(0), XReal(F(-2, 3))],
        ],
    )
    def test_ranks_match_sorted_values(self, values):
        assert self.key_ranks(values) == self.reference_ranks(values)

    def test_ranks_on_random_values(self):
        rng = random.Random(11)
        pool = [PLUS_INF, MINUS_INF]
        for _ in range(200):
            values = [
                rng.choice(pool) if rng.random() < 0.15
                else XReal(F(rng.randint(-40, 40), rng.randint(1, 12)))
                for _ in range(rng.randint(1, 30))
            ]
            assert self.key_ranks(values) == self.reference_ranks(values)


# Exact models for the lattice walk: the exact grid models, one with
# +-inf pieces and values beside finite ones, and one whose positions and
# values have distinct prime denominators.
_LATTICE_MODELS = [f for f in _GRID_MODELS if f.is_exact]
_LATTICE_MODELS += [
    PiecewiseConstant(
        (F(0), F(1, 3), F(1, 2), F(5, 7), F(1)),
        (PLUS_INF, MINUS_INF, XReal(F(3, 2)), MINUS_INF),
        (MINUS_INF, XReal(1), PLUS_INF, XReal(F(3, 2)), XReal(F(-1, 2))),
    ),
    coprime_linear(3, knots=12),
]


def _lattice_ranges(f):
    """The domain and two inner pairs: the second and next-to-last
    breakpoints, and two points inside pieces."""
    a, b = f.domain
    bps = f.breakpoints()
    inner = (bps[1], bps[-2]) if len(bps) > 3 else (bps[1], b)
    return [(a, b), inner, (a + (b - a) / 7, b - (b - a) * F(2, 9))]


def _error(call):
    """The type and text of the QcvxError that ``call()`` raises."""
    with pytest.raises(QcvxError) as info:
        call()
    return type(info.value), str(info.value)


class TestLatticeSample:
    """An exact model's sample, made and evaluated on integers by its
    lattice walk, against the Fraction grid of ``build_grid`` evaluated
    by ``evaluate_sorted`` and keyed by ``_integer_keys``."""

    @pytest.mark.parametrize("n", [3, 4, 21, 201, 4001])
    def test_positions_and_key_ranks_match(self, n):
        for f in _LATTICE_MODELS:
            for x, y in _lattice_ranges(f):
                position, keys, shifted = oracle._sample(f, n, x, y)
                grid = build_grid(f, n, x, y)
                assert [position(i) for i in range(len(keys))] == grid, (f, n, x, y)
                expected = TestIntegerKeys.key_ranks(f.evaluate_sorted(grid))
                assert TestIntegerKeys.reference_ranks(keys) == expected, (f, n, x, y)
                assert shifted is keys

    @pytest.mark.parametrize("f", _LATTICE_MODELS)
    def test_errors_match(self, f):
        a, b = f.domain
        mid = (a + b) / 2
        cases = [
            (2, a, b),  # fewer than 3 points
            (201, mid, mid),  # lo >= hi
            (201, b, a),
            (5000, a, b),  # over the limit
            (201, a - 1, mid),  # out of the domain
            (201, mid, b + F(1, 3)),
            (201, b, b + 1),
            (201, a - 2, a - 1),
        ]
        for n, x, y in cases:
            expected = _error(lambda: f.evaluate_sorted(build_grid(f, n, x, y)))
            assert _error(lambda: oracle._sample(f, n, x, y)) == expected, (f, n, x, y)


class TestGridBudget:
    """Refused before the grid is evaluated: an exact model's grid is made
    and evaluated by its lattice walk, which must not be reached."""

    @pytest.fixture(autouse=True)
    def no_evaluation(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the grid was evaluated")

        monkeypatch.setattr("qcvx.functions._ExactModel._evaluate_lattice", unreachable)

    def test_grid_within_the_limit_reaches_the_walk(self):
        with pytest.raises(AssertionError, match="the grid was evaluated"):
            oracle_quasiconvex(tent(), grid_points=MAX_GRID_POINTS - 1)

    def test_large_resolution_refused(self):
        with pytest.raises(ParameterRangeError, match=f"{MAX_GRID_POINTS + 1} points"):
            oracle_quasiconvex(tent(), grid_points=MAX_GRID_POINTS + 1)

    def test_limit_counts_breakpoints_and_midpoints(self):
        f = generate_cantor(11, "set")
        with pytest.raises(ParameterRangeError, match=str(MAX_GRID_POINTS)):
            oracle_quasiconvex(f, grid_points=201)


class TestGridRefusedBeforeBuilt:
    """An oversized grid is counted, not built: with point construction
    failing past ``MAX_GRID_POINTS``, a grid of 10**9 is still refused."""

    @pytest.mark.parametrize(
        "f",
        [tent(), generate_cantor(3, "complement"), random_pwc(5, pieces=7)],
        ids=["linear", "cantor", "constant"],
    )
    def test_billion_points_refused(self, point_budget, f):
        a, b = f.domain
        with pytest.raises(ParameterRangeError, match="over the limit of 4096"):
            oracle_quasiconvex(f, grid_points=10**9)
        with pytest.raises(ParameterRangeError, match="over the limit of 4096"):
            oracle_violation_set(f, a, b, grid_points=10**9)

    def test_limit_counts_a_breakpoint_off_the_uniform_points(self, point_budget):
        # The tent's peak 1/2 is a uniform point at an odd resolution only.
        assert len(build_grid(tent(), grid_points=MAX_GRID_POINTS - 1)) == MAX_GRID_POINTS - 1
        with pytest.raises(ParameterRangeError, match=f"^oracle grid has {MAX_GRID_POINTS + 1} points"):
            build_grid(tent(), grid_points=MAX_GRID_POINTS)


    def test_constant_model_refused_before_its_midpoints(self, point_budget, monkeypatch):
        # The depth-11 Cantor set has 4,096 breakpoints, the limit; with
        # its 4,095 piece midpoints, all distinct grid points, it is over
        # the limit whatever the resolution.
        f = generate_cantor(11, "set")
        assert len(f.breakpoints()) == MAX_GRID_POINTS

        def unreachable(breaks):
            raise AssertionError("piece midpoints were made")

        monkeypatch.setattr(oracle, "_with_piece_midpoints", unreachable)
        with pytest.raises(ParameterRangeError) as info:
            oracle_quasiconvex(f, grid_points=201)
        assert str(info.value) == "oracle grid has at least 8191 points at resolution 201, over the limit of 4096"


class TestGridPoints:
    """The oracle's one setting: ``grid_points``, 201 by default and at
    least 3; the black-box margin is the constant ``FLOAT_EPSILON``."""

    def test_defaults(self):
        for fn in (build_grid, oracle_quasiconvex, oracle_violation_set):
            assert inspect.signature(fn).parameters["grid_points"].default == 201
        assert oracle_quasiconvex(tent()).grid.resolution == 201
        assert FLOAT_EPSILON == F(1, 10**9)

    @pytest.mark.parametrize("f", [tent(), _random_tabulated(5)], ids=["linear", "tabulated"])
    def test_two_points_refused(self, f):
        a, b = f.domain
        for call in (
            lambda: build_grid(f, grid_points=2),
            lambda: oracle_quasiconvex(f, grid_points=2),
            lambda: oracle_violation_set(f, a, b, grid_points=2),
        ):
            with pytest.raises(ParameterRangeError, match="^grid_points must be at least 3$"):
                call()


def _literal_diff(exact, approx, slack):
    """``diff_report`` as first written: every pair of intervals compared."""
    if isinstance(exact, ViolationDecomposition):
        exact_set, isolated = exact.components, exact.isolated_violations
    else:
        exact_set, isolated = exact, ()

    def near(a, b):
        return max(abs(a.left - b.left), abs(a.right - b.right)) <= slack

    out = []
    for a in approx:
        if not any(near(a, e) for e in exact_set) and not (
            a.length <= 2 * slack and any(a.contains(p) for p in isolated)
        ):
            out.append(("unmatched_approx", a))
    for e in exact_set:
        if e.length > 2 * slack and not any(near(a, e) for a in approx):
            out.append(("missed_exact", e))
    return out


def _random_interval_set(rng, count, scale):
    ends = sorted({F(rng.randint(0, scale), scale) for _ in range(2 * count)})
    return normalize([iv(ends[i], ends[i + 1]) for i in range(0, len(ends) - 1, 2)])


class TestDiffReportBisection:
    def test_matches_all_pairs_definition(self):
        rng = random.Random(17)
        for _ in range(400):
            scale = rng.choice((40, 200))
            exact = _random_interval_set(rng, rng.randint(0, 15), scale)
            approx = _random_interval_set(rng, rng.randint(0, 15), scale)
            slack = F(rng.randint(0, 12), scale)
            if rng.random() < 0.5:
                isolated = tuple(sorted({F(rng.randint(0, scale), scale) for _ in range(5)}))
                exact = ViolationDecomposition(
                    x=F(0), y=F(1), threshold=XReal(0), components=exact,
                    isolated_violations=isolated, lsc_offenders=(),
                )
            report = diff_report(exact, approx, slack)
            expected = _literal_diff(exact, approx, slack)
            assert [(d.kind, d.interval) for d in report.discrepancies] == expected
            assert report.consistent == (not expected)


class TestDiffReportBoundaries:
    """Ends exactly at the slack, and intervals exactly twice the slack
    long, where the integer matching must keep the inclusive and strict
    comparisons of the definition.  The slack's denominator is prime to
    the ends', so the common scale is their product."""

    SLACK = F(1, 7)
    HAIR = F(1, 10**6)

    @staticmethod
    def kinds(report):
        return [d.kind for d in report.discrepancies]

    def check(self, exact, approx, expected):
        report = diff_report(exact, approx, self.SLACK)
        assert [(d.kind, d.interval) for d in report.discrepancies] == _literal_diff(exact, approx, self.SLACK)
        assert self.kinds(report) == expected
        assert report.consistent == (not expected)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_ends_exactly_one_slack_away_match(self, shift):
        s = shift * self.SLACK
        self.check(normalize([iv(F(1, 3), F(2, 3))]), normalize([iv(F(1, 3) + s, F(2, 3) + s)]), [])
        self.check(normalize([iv(F(1, 3) + s, F(2, 3) - s)]), normalize([iv(F(1, 3), F(2, 3))]), [])

    def test_an_end_a_hair_past_the_slack_is_unmatched(self):
        exact = normalize([iv(F(1, 3), F(2, 3))])
        approx = normalize([iv(F(1, 3) + self.SLACK + self.HAIR, F(2, 3))])
        self.check(exact, approx, ["unmatched_approx", "missed_exact"])

    def test_exact_component_exactly_twice_the_slack_need_not_match(self):
        left = F(1, 5)
        self.check(normalize([iv(left, left + 2 * self.SLACK)]), OpenIntervalSet(), [])
        self.check(normalize([iv(left, left + 2 * self.SLACK + self.HAIR)]), OpenIntervalSet(), ["missed_exact"])

    def test_grid_run_exactly_twice_the_slack_holds_an_isolated_violation(self):
        left = F(1, 5)
        decomposition = ViolationDecomposition(
            x=F(0), y=F(1), threshold=XReal(0), components=OpenIntervalSet(),
            isolated_violations=(left + self.SLACK,), lsc_offenders=(),
        )
        self.check(decomposition, normalize([iv(left, left + 2 * self.SLACK)]), [])
        self.check(decomposition, normalize([iv(left, left + 2 * self.SLACK + self.HAIR)]), ["unmatched_approx"])
        # The isolated violation must lie strictly inside the run.
        self.check(decomposition, normalize([iv(left + self.SLACK, left + 2 * self.SLACK)]), ["unmatched_approx"])
