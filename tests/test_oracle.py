import math
import random
from fractions import Fraction

import pytest

from conftest import random_pwc
from qcvx import (
    MINUS_INF,
    PLUS_INF,
    Blackbox,
    OpenInterval,
    PiecewiseConstant,
    Tabulated,
    ToleranceConfig,
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
from qcvx.core import xreal_max
from qcvx.corpus import monotone, random_corpus, tent, vee
from qcvx.oracle import ViolatingTriple

F = Fraction


def iv(a, b):
    return OpenInterval(F(a), F(b))


class TestQuasiconvexOracle:
    def test_tent_found_violating(self):
        verdict = oracle_quasiconvex(tent(), ToleranceConfig(grid_points=101))
        assert not verdict.is_quasiconvex_on_grid
        assert verdict.total_violations > 0
        f = tent()
        for triple in verdict.violating_triples:
            assert triple.t_x < triple.t_z < triple.t_y
            assert f.evaluate(triple.t_z) > max(
                f.evaluate(triple.t_x), f.evaluate(triple.t_y)
            )

    def test_vee_clean(self):
        verdict = oracle_quasiconvex(vee(), ToleranceConfig(grid_points=101))
        assert verdict.is_quasiconvex_on_grid
        assert verdict.total_violations == 0
        assert not verdict.violating_triples

    def test_cantor_depth3_on_power_grid(self):
        # 82 uniform points on [0, 1] are exactly the multiples of 1/81,
        # which include retained-set endpoints and removed interiors.
        f = generate_cantor(3, "set")
        verdict = oracle_quasiconvex(f, ToleranceConfig(grid_points=82))
        assert not verdict.is_quasiconvex_on_grid

    def test_grid_includes_breakpoints(self):
        grid = build_grid(tent(), ToleranceConfig(grid_points=4))
        assert F(1, 2) in grid
        assert grid[0] == F(0) and grid[-1] == F(1)

    def test_deterministic(self):
        a = oracle_quasiconvex(tent(), ToleranceConfig(grid_points=51))
        b = oracle_quasiconvex(tent(), ToleranceConfig(grid_points=51))
        assert a == b

    def test_triples_capped_but_counted(self):
        verdict = oracle_quasiconvex(
            tent(), ToleranceConfig(grid_points=101), max_triples=5
        )
        assert len(verdict.violating_triples) == 5
        assert verdict.total_violations > 5

    def test_blackbox_float_mode_with_epsilon(self):
        bump = Blackbox(0, 1, lambda t: float(t) * (1.0 - float(t)))
        verdict = oracle_quasiconvex(bump, ToleranceConfig(grid_points=51))
        assert verdict.grid.float_mode
        assert not verdict.is_quasiconvex_on_grid
        flat = Blackbox(0, 1, lambda t: 1.0)
        assert oracle_quasiconvex(flat, ToleranceConfig(grid_points=51)).is_quasiconvex_on_grid

    def test_epsilon_masks_noise(self):
        noisy = Blackbox(0, 1, lambda t: 0.0 if t != F(1, 2) else 1e-12)
        cfg = ToleranceConfig(grid_points=11, float_epsilon=F(1, 10**9))
        assert oracle_quasiconvex(noisy, cfg).is_quasiconvex_on_grid

    @pytest.mark.parametrize("index", range(40))
    def test_agreement_with_exact_decision_on_random_corpus(self, index):
        f = random_corpus(40)[index]
        exact = is_quasiconvex(f).is_quasiconvex
        grid = oracle_quasiconvex(f, ToleranceConfig(grid_points=101))
        assert grid.is_quasiconvex_on_grid == exact

    @pytest.mark.parametrize("depth,mode", [(1, "set"), (2, "set"), (3, "set"), (2, "complement")])
    def test_agreement_on_cantor_models(self, depth, mode):
        f = generate_cantor(depth, mode)
        exact = is_quasiconvex(f).is_quasiconvex
        grid = oracle_quasiconvex(f, ToleranceConfig(grid_points=28))
        assert grid.is_quasiconvex_on_grid == exact

    def test_tabulated_uses_sample_grid(self):
        from qcvx import Tabulated, XReal

        t = Tabulated(
            (F(0), F(1, 4), F(1, 2), F(1)),
            (XReal(0), XReal(3), XReal(1), XReal(0)),
        )
        verdict = oracle_quasiconvex(t, ToleranceConfig(grid_points=999))
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
        verdict = oracle_quasiconvex(h, ToleranceConfig(grid_points=51))
        assert verdict.grid.float_mode
        assert not verdict.is_quasiconvex_on_grid


def _literal_triples(f, cfg, *, float_mode=False):
    """Every violating grid triple, found by a plain loop over all
    i < k < j that tests f(z) > max(f(x), f(y)) directly, in (i, k, j)
    order."""
    grid = build_grid(f, cfg, piece_midpoints=isinstance(f, PiecewiseConstant))
    if float_mode:
        values = [float(f.evaluate(t)) for t in grid]
        eps = float(cfg.float_epsilon)

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


_CROSS_CHECK_MODELS = {
    "random_pl_0": lambda: random_corpus(6)[0],
    "random_pl_2": lambda: random_corpus(6)[2],
    "random_pl_5": lambda: random_corpus(6)[5],
    "pwc_inf_1": lambda: random_pwc(1, allow_infinite=True),
    "pwc_inf_2": lambda: random_pwc(2, allow_infinite=True),
    "pwc_inf_7": lambda: random_pwc(7, allow_infinite=True),
    "tabulated": lambda: _random_tabulated(3),
    "blackbox": lambda: Blackbox(0, 1, lambda t: math.sin(9 * float(t))),
}


class TestLiteralCrossCheck:
    """The oracle against a definition-literal triple loop on ~40 points."""

    @pytest.mark.parametrize("name", sorted(_CROSS_CHECK_MODELS))
    def test_matches_triple_loop(self, name):
        f = _CROSS_CHECK_MODELS[name]()
        cfg = ToleranceConfig(grid_points=33)
        expected = _literal_triples(f, cfg, float_mode=isinstance(f, Blackbox))
        verdict = oracle_quasiconvex(f, cfg, max_triples=len(expected) + 1)
        assert verdict.total_violations == len(expected)
        assert list(verdict.violating_triples) == expected
        assert verdict.is_quasiconvex_on_grid == (not expected)
        assert len({t.t_x for t in expected}) > 1  # witnesses span rows
        cap = len(expected) // 2
        capped = oracle_quasiconvex(f, cfg, max_triples=cap)
        assert list(capped.violating_triples) == expected[:cap]
        assert capped.total_violations == len(expected)


class TestViolationSetOracle:
    def test_cantor_complement_depth1_run(self):
        f = generate_cantor(1, "complement")
        approx = oracle_violation_set(f, F(0), F(1), ToleranceConfig(grid_points=28))
        # Spacing 1/27: marked points are 10/27 .. 17/27, so the reported
        # run spans their unmarked neighbors 9/27 and 18/27.
        assert approx == normalize([iv("1/3", "2/3")])

    def test_monotone_empty(self):
        f = monotone()
        for x, y in ((F(0), F(1)), (F(1, 4), F(3, 4))):
            assert oracle_violation_set(f, x, y, ToleranceConfig(grid_points=21)).is_empty

    def test_tent_full_run(self):
        approx = oracle_violation_set(tent(), F(0), F(1), ToleranceConfig(grid_points=21))
        assert approx == normalize([iv(0, 1)])

    def test_inner_approximation_within_one_cell(self):
        f = generate_cantor(2, "complement")
        cfg = ToleranceConfig(grid_points=82)
        approx = oracle_violation_set(f, F(0), F(1), cfg)
        exact = violation_set(f, F(0), F(1)).components
        report = diff_report(exact, approx, F(1, 81))
        assert report.consistent


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
        approx = oracle_violation_set(f, F(0), F(1), ToleranceConfig(grid_points=21))
        assert approx == normalize([iv("9/20", "11/20")])
        assert diff_report(d, approx, F(1, 20)).consistent
        # The bare component set carries no isolated points.
        assert not diff_report(d.components, approx, F(1, 20)).consistent
        # Wider than twice the slack: still unmatched.
        report = diff_report(d, approx, F(1, 40))
        assert [x.kind for x in report.discrepancies] == ["unmatched_approx"]

    def test_accepts_decomposition(self):
        d = violation_set(tent(), 0, 1)
        approx = oracle_violation_set(tent(), F(0), F(1), ToleranceConfig(grid_points=21))
        assert diff_report(d, approx, F(1, 20)).consistent
