"""Work per query must not grow with the size of the model.

The work is counted, not timed: every ordering comparison between two
Fractions (``<``, ``<=``, ``>``, ``>=``) goes through
``Fraction._richcmp``, which the test wraps with a counter, so the bounds
are deterministic.  The models are Cantor complements with 32 and 512
breakpoints (depths 4 and 8).  Each model's structure index is built
before counting, because it is built once per model and not per query.
A pair analysis, three pieces wide or over the whole domain of the
Cantor complement with one component per removed gap, picks its level
max(f(x), f(y)) by a cross product and builds and checks its interval
sets on integers, so it compares no Fractions at all; neither does a
whole-domain violation set of the Cantor set indicator.  Pair analyses
run through the batch entry point ``analyze_pairs``, which walks each
threshold line, a pair's level or chord, once, whether or not the pairs
on it connect: its walks are counted by wrapping the walk functions, and
its grouping of the pairs compares no Fractions either.  The count of
two local shapes must not change with the size.  One point evaluation,
and a sorted evaluation within one piece, compare no Fractions at all: a
position's domain check reads where it was located.  A ``Tabulated``
evaluation places its point the same way, so its count is the same at
60 and 600 samples.  The four scans over a whole model (the
quasiconvexity verdict, the local maxima, and the domain's supremum and
argmax set) compare no Fractions at either size; the local maxima make
one Fraction per region, and their walk is counted by the lines of the
package it runs, traced with ``sys.settrace``.  The oracle's count is taken on one 16-knot
linear model at two grid resolutions: its Fraction work may depend on the
breakpoints, not on the grid size; a whole ``qcvx oracle --compare``
command on it makes as many Fractions (``Fraction.__new__`` calls) at
4001 grid points as at 201.  Index lookups are counted the same
way, by wrapping ``_StructureIndex.locate``: an interval query locates
each end once.  The index build, and a whole-domain violation set, are
measured by the widest integer they hand to ``math.gcd``, on
piecewise-linear models with 200 and 800 knots whose denominators are
distinct primes, and so are the totals of the report records on one
level walk of such a model; the four scans are measured on such a model
by the widest integer they hand to ``functions._cross``.  Rendering the
report records of all breakpoint pairs of the depth-4 and depth-5
Cantor complements is counted by ``Fraction.__new__`` calls and entries
of the report writer's recursion.
"""

import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import coprime_linear, random_pwc, report_text
import qcvx
from qcvx import (
    PiecewiseLinear,
    Tabulated,
    XReal,
    argmax_set,
    check_no_strict_sided_maxima,
    check_semicontinuity,
    convexity_violation_set,
    enumerate_local_maxima,
    interior_witness_exists,
    function_to_dict,
    generate_cantor,
    is_quasiconvex,
    local_quasiconvexity_at,
    oracle_quasiconvex,
    oracle_violation_set,
    paired_maxima_certificate,
    supremum_on,
    verify_component_property,
    violation_set,
)
from qcvx import cli, functions, violations
from qcvx.corpus import random_piecewise_linear
from qcvx.functions import _StructureIndex
from qcvx.violations import analyze_pairs

SMALL, LARGE = 32, 512


def comparisons(monkeypatch, call) -> int:
    count = 0
    original = Fraction._richcmp

    def counting(self, other, op):
        nonlocal count
        count += 1
        return original(self, other, op)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "_richcmp", counting)
        call()
    return count


def cantor_complement(breakpoints: int, mode: str = "complement"):
    f = generate_cantor(breakpoints.bit_length() - 2, mode)
    assert len(f.breakpoints()) == breakpoints
    check_semicontinuity(f)  # builds the structure index
    return f


def middle_breakpoints(f) -> tuple[Fraction, ...]:
    """Four consecutive breakpoints around the removed middle third."""
    bps = f.breakpoints()
    k = len(bps) // 2 - 2
    return bps[k : k + 4]


def analyze(f, *pairs) -> list[dict]:
    """The report records of ``pairs``, from the batch pair analysis."""
    return [analysis.to_json() for analysis in analyze_pairs(f, pairs)]


def counts(monkeypatch, query) -> list[int]:
    out = []
    for n in (SMALL, LARGE):
        f = cantor_complement(n)
        out.append(comparisons(monkeypatch, lambda: query(f)))
    return out


def test_three_piece_pair_analysis_is_flat(monkeypatch):
    # The pair's level max(f(x), f(y)) is picked by a cross product too,
    # so a pair analysis compares no Fractions at all.
    def query(f):
        x, _, _, y = middle_breakpoints(f)
        analyze(f, (x, y))

    small, large = counts(monkeypatch, query)
    assert small == large == 0, (small, large)


def test_whole_domain_pair_analysis_compares_no_components(monkeypatch):
    # The violation and chord sets are built, ordered, summed and checked
    # within the pair on integer cross products, and so is the level
    # max(f(x), f(y)), whatever the number of components.
    small, large = (
        comparisons(monkeypatch, lambda f=cantor_complement(n): analyze(f, (0, 1)))
        for n in (SMALL, LARGE)
    )
    assert small == large == 0, (small, large)


def threshold_lines(f, pairs) -> dict:
    """Each threshold line of ``pairs``, as (slope, value at 0), with the
    spans (x, y, level) that use it: the level max(f(x), f(y)), and the
    chord through (x, f(x)) and (y, f(y)) when both values are finite.
    The lines are worked out from ``f.evaluate`` at the ends."""
    lines: dict = {}
    for x, y in pairs:
        fx, fy = f.evaluate(x), f.evaluate(y)
        level = max(fx, fy)
        lines.setdefault((0, level.finite_value if level.is_finite else level), []).append((x, y, True))
        if fx.is_finite and fy.is_finite:
            slope = (fy.finite_value - fx.finite_value) / (y - x)
            lines.setdefault((slope, fx.finite_value - slope * x), []).append((x, y, False))
    return lines


def line_walks(f, pairs) -> tuple[int, int]:
    """The number of threshold lines of ``pairs``, and of those lines that
    are the level of some pair: ``analyze_pairs`` walks each line once and
    checks the components of each level line once."""
    lines = threshold_lines(f, pairs).values()
    return len(lines), sum(any(level for _, _, level in spans) for spans in lines)


def walks(monkeypatch, f, pairs) -> dict:
    """The threshold walks (``_above_set``: violation and chord sets) and
    the rounds of component checks that ``analyze_pairs`` makes."""
    counts = {"_above_set": 0, "_component_checks": 0}
    with monkeypatch.context() as patch:
        for name in counts:
            def counted(*args, _name=name, _original=getattr(violations, name)):
                counts[_name] += 1
                return _original(*args)

            patch.setattr(violations, name, counted)
        analyze_pairs(f, pairs)
    return counts


@pytest.mark.parametrize("depth", [4, 5])
def test_all_pairs_walk_each_line_once(monkeypatch, depth):
    # All breakpoint pairs of the Cantor complement share the level 0,
    # and f(x) = f(y) = 0 makes each pair's chord that level, so one walk
    # and one round of component checks serve all their violation and
    # chord sets.
    f = generate_cantor(depth, "complement")
    pairs = list(combinations(f.breakpoints(), 2))
    assert line_walks(f, pairs) == (1, 1)
    assert walks(monkeypatch, f, pairs) == {"_above_set": 1, "_component_checks": 1}


def test_pairs_walk_once_per_line(monkeypatch):
    # Breakpoint pairs and pairs inside pieces of a model with +-inf
    # values: one walk per threshold line, and one round of component
    # checks per level line.
    f = random_pwc(4, pieces=9, allow_infinite=True)
    bps = f.breakpoints()
    pairs = [*combinations(bps, 2), *((p + (q - p) / 3, q + (r - q) / 2) for p, q, r in zip(bps, bps[1:], bps[2:]))]
    lines, level_lines = line_walks(f, pairs)
    assert 1 < level_lines < len(pairs)
    assert walks(monkeypatch, f, pairs) == {"_above_set": lines, "_component_checks": level_lines}


def test_pairs_apart_on_one_line_share_its_walk(monkeypatch):
    # The level 0 holds a pair inside the constant piece [0, 1] and the
    # pair (8, 9), whose chords are that level too; the sloped line t + 1
    # holds the chords of the knot pairs (2, 3) and (6, 7).  Neither
    # line's pairs connect, and f crosses both lines in the gaps between
    # them, so each walk has runs that belong to no pair.
    knots = [(0, 0), (1, 0), ("3/2", 5), (2, 3), (3, 4), (4, 9), (5, -1)]
    knots += [(6, 7), (7, 8), ("15/2", 4), (8, 0), ("17/2", 2), (9, 0), (10, 1)]
    f = PiecewiseLinear(tuple((Fraction(t), Fraction(v)) for t, v in knots))
    pairs = [(Fraction(x), Fraction(y)) for x, y in (("1/4", "3/4"), (2, 3), (6, 7), (8, 9))]
    lines = threshold_lines(f, pairs)
    assert sorted(lines[(0, 0)]) == [(x, y, level) for x, y in (pairs[0], pairs[3]) for level in (False, True)]
    assert sorted(lines[(1, 1)]) == [(*pairs[1], False), (*pairs[2], False)]
    assert line_walks(f, pairs) == (4, 3)
    assert walks(monkeypatch, f, pairs) == {"_above_set": 4, "_component_checks": 3}
    for (x, y), analysis in zip(pairs, analyze_pairs(f, pairs)):
        decomposition = violation_set(f, x, y)
        assert analysis.decomposition == decomposition, (x, y)
        assert analysis.checks == tuple(verify_component_property(f, decomposition)), (x, y)
        assert analysis.interior_witness == interior_witness_exists(f, x, y), (x, y)
        assert analysis.chord == convexity_violation_set(f, x, y), (x, y)


def test_chord_only_lines_run_no_component_checks(monkeypatch):
    # A random piecewise-linear model whose even knots lie on the line
    # 3t/2 - 1: the 55 pairs of those knots share that sloped chord line,
    # which is no pair's level, so one walk serves their chord sets and
    # no component is checked on it.
    rng = random.Random(7)
    line = (Fraction(3, 2), Fraction(-1))
    knots = [
        (t, line[0] * t + line[1] if k % 2 == 0 else Fraction(rng.randint(-8, 8), 4))
        for k, t in enumerate(Fraction(k, 20) for k in range(21))
    ]
    f = PiecewiseLinear(tuple(knots))
    pairs = list(combinations(f.breakpoints(), 2))
    assert len(threshold_lines(f, pairs)[line]) == 55
    lines, level_lines = line_walks(f, pairs)
    assert level_lines < lines < len(pairs) + level_lines - 50
    assert walks(monkeypatch, f, pairs) == {"_above_set": lines, "_component_checks": level_lines}


def test_pair_grouping_compares_no_fractions(monkeypatch):
    # Grouping the pairs by level, merging their spans and cutting each
    # pair's part compare integer cross products, in the pairs' own order
    # or shuffled.
    f = cantor_complement(SMALL)
    pairs = list(combinations(f.breakpoints(), 2))
    shuffled = random.Random(5).sample(pairs, len(pairs))
    assert comparisons(monkeypatch, lambda: analyze(f, *pairs)) == 0
    assert comparisons(monkeypatch, lambda: analyze(f, *shuffled)) == 0


def calls(monkeypatch, owner, name: str, call) -> int:
    """The number of calls of ``owner.name`` made by ``call()``."""
    count = 0
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, counting)
        call()
    return count


def test_pair_records_make_no_fraction_per_chord_entry(monkeypatch):
    # ``qcvx analyze`` renders all breakpoint pairs of the Cantor
    # complement from one walk: each pair's chord ends are integer ratios
    # reduced by one gcd and its totals integer sums, so no
    # Fraction is made however many chord entries the records hold, as
    # the walks are taken or as the writer renders the records.  The
    # writer appends the records' text as it is, entering ``_emit`` once
    # for the report and once for its "pairs" list.
    entries, made, emitted = [], [], []
    for depth in (4, 5):
        f = generate_cantor(depth, "complement")
        check_semicontinuity(f)
        pairs = list(combinations(f.breakpoints(), 2))
        entries.append(sum(len(analysis.chord) for analysis in analyze_pairs(f, pairs)))

        def write():
            report_text({"pairs": cli.pair_records(f, pairs)})

        made.append(calls(monkeypatch, Fraction, "__new__", write))
        emitted.append(calls(monkeypatch, cli, "_emit", write))
    assert entries[1] > 8 * entries[0], entries
    assert made == [0, 0], made
    assert emitted == [2, 2], emitted


def zero_crossing_model(knots: int) -> tuple[PiecewiseLinear, list[tuple[Fraction, Fraction]]]:
    """A model whose every third knot has the value 0, between knots above
    and below it, on positions and values with distinct prime
    denominators; and the pairs of consecutive zero knots.  Their level 0
    is one walk whose runs end at crossing roots with wide, distinct
    denominators."""
    rng = random.Random(5)
    primes = [p for p in range(10007, 10007 + 40 * knots) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    chosen = rng.sample(primes, 2 * knots)
    inner = sorted({Fraction(rng.randint(1, p - 1), p) for p in chosen[:knots]})
    signs = (0, 1, -1)
    values = [signs[k % 3] * Fraction(rng.randint(1, 40), chosen[knots + k]) for k in range(len(inner))]
    f = PiecewiseLinear(((Fraction(0), Fraction(0)), *zip(inner, values), (Fraction(1), Fraction(0))))
    zeros = [t for t in f.breakpoints() if f.evaluate(t) == XReal(0)]
    return f, list(zip(zeros, zeros[1:]))


def test_record_totals_on_a_wide_walk_do_not_grow_with_it(monkeypatch):
    # Each pair sums its own runs over their own common denominator, so
    # the widest integer reduced does not grow with the walk; over the
    # walk's common denominator, as prefix sums of the whole walk would
    # take it, each pair's total would be as wide as all the walk's run
    # ends together: 3,648 bits at 200 knots, and about four times as many
    # at 800.  The text is checked against the reference.
    def widest_gcd_argument(f, pairs) -> int:
        width = 0
        original = violations.gcd

        def recording(*args):
            nonlocal width
            width = max(width, *(abs(a).bit_length() for a in args))
            return original(*args)

        with monkeypatch.context() as patch:
            patch.setattr(violations, "gcd", recording)
            text = report_text({"pairs": cli.pair_records(f, pairs)})
        expected = [analysis.to_json() for analysis in analyze_pairs(f, pairs)]
        assert text == report_text({"pairs": expected})
        return width

    small, large = (widest_gcd_argument(*zero_crossing_model(knots)) for knots in (200, 800))
    assert small > 0
    assert large <= 2 * small, (small, large)


def test_whole_domain_violation_set_compares_no_breakpoints(monkeypatch):
    # The walk locates and compares positions, values and the pair's
    # level as integer ratios, so it compares no Fractions at 32 or at
    # 512 breakpoints.
    small, large = (
        comparisons(monkeypatch, lambda f=cantor_complement(n, "set"): violation_set(f, 0, 1))
        for n in (SMALL, LARGE)
    )
    assert small == large == 0, (small, large)


def test_point_evaluation_compares_no_breakpoints(monkeypatch):
    # evaluate locates t among the integer position keys and checks its
    # domain there, so it compares no Fractions at either size.
    def query(f):
        _, p, q, _ = middle_breakpoints(f)
        return lambda: f.evaluate((p + q) / 2)

    small, large = (
        comparisons(monkeypatch, query(cantor_complement(n, "set"))) for n in (SMALL, LARGE)
    )
    assert small == large == 0, (small, large)


def test_sorted_evaluation_over_one_piece_compares_no_breakpoints(monkeypatch):
    # evaluate_sorted places its first point on the integer position keys,
    # not by bisecting the Fraction breakpoints, and then walks on integer
    # cross products.
    def query(f):
        _, p, q, _ = middle_breakpoints(f)
        ts = [p + (q - p) * Fraction(k, 4) for k in (1, 2, 3)]
        return lambda: f.evaluate_sorted(ts)

    small, large = (
        comparisons(monkeypatch, query(cantor_complement(n, "set"))) for n in (SMALL, LARGE)
    )
    assert small == large == 0, (small, large)


def five_piece_interval(f) -> tuple[Fraction, Fraction]:
    """From the middle of one removed gap to the middle of another, across
    the two retained pieces around the middle third of a Cantor set
    indicator: five pieces, with value 0 at both ends and 1 inside, so a
    certificate exists."""
    bps = f.breakpoints()
    k = len(bps) // 2 - 2
    return (bps[k - 1] + bps[k]) / 2, (bps[k + 3] + bps[k + 4]) / 2


def test_argmax_and_certificate_are_flat(monkeypatch):
    def query(f):
        x0, y0 = five_piece_interval(f)
        assert len(argmax_set(f, x0, y0)[1]) == 2
        assert paired_maxima_certificate(f, x0, y0).checks.all_passed

    small, large = (
        comparisons(monkeypatch, lambda f=cantor_complement(n, "set"): query(f))
        for n in (SMALL, LARGE)
    )
    assert small > 0
    assert large <= 2 * small, (small, large)


def test_interval_queries_locate_each_end_once(monkeypatch):
    # A certificate locates x0 and y0 once, in its pair check, and p and q
    # once each; its supremum, argmax set and strictness checks read those
    # located ends.  argmax_set and supremum_on locate their two ends once.
    f = cantor_complement(SMALL, "set")
    x0, y0 = five_piece_interval(f)
    located = []
    original = _StructureIndex.locate

    def counting(self, t):
        located.append(t)
        return original(self, t)

    def locations(call) -> int:
        located.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_StructureIndex, "locate", counting)
            call()
        return len(located)

    cert = paired_maxima_certificate(f, x0, y0)
    assert cert.checks.all_passed and cert.p < cert.q
    assert locations(lambda: paired_maxima_certificate(f, x0, y0)) == 4
    assert sorted(located) == [x0, cert.p, cert.q, y0]
    assert locations(lambda: argmax_set(f, x0, y0)) == 2
    assert locations(lambda: supremum_on(f, x0, y0)) == 2


def test_local_shape_is_flat(monkeypatch):
    # The side comparisons are read from the structure index at a position
    # located among the integer keys, where its interior check is made too;
    # only the radius compares Fractions, the same number of times at both
    # sizes.
    def query(f):
        _, p, q, _ = middle_breakpoints(f)
        local_quasiconvexity_at(f, p)
        local_quasiconvexity_at(f, (p + q) / 2)

    small, large = counts(monkeypatch, query)
    assert small > 0
    assert large == small, (small, large)


def package_lines(call) -> int:
    """The number of lines of the qcvx package that ``call()`` runs."""
    package = str(Path(qcvx.__file__).parent)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls_into(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(calls_into)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def test_local_maxima_enumeration_is_linear(monkeypatch):
    # The walk runs a fixed number of lines of the package per region and
    # compares no Fractions; 16 times the breakpoints give 17 times the
    # regions, and a walk that rescanned the atoms for each region would
    # run about 256 times the lines.  Each region makes one Fraction, its
    # witness delta.
    lines = []
    for n in (SMALL, LARGE):
        f = cantor_complement(n)
        lines.append(package_lines(lambda: enumerate_local_maxima(f)))
        made = calls(monkeypatch, Fraction, "__new__", lambda: enumerate_local_maxima(f))
        assert made == len(enumerate_local_maxima(f)) > 0
    assert lines[1] <= 20 * lines[0], lines


# The four scans over a whole model: its quasiconvexity verdict, its
# local maxima, and the supremum and argmax set over its domain.
SCANS = {
    "is_quasiconvex": is_quasiconvex,
    "check_no_strict_sided_maxima": check_no_strict_sided_maxima,
    "supremum_on": lambda f: supremum_on(f, *f.domain),
    "argmax_set": lambda f: argmax_set(f, *f.domain),
}


@pytest.mark.parametrize(
    "scan, mode",
    [(scan, mode) for scan in SCANS for mode in ("set", "complement") if (scan, mode) != ("argmax_set", "complement")],
)
def test_model_wide_scans_compare_no_fractions(monkeypatch, scan, mode):
    # Values, flats, piece midpoints and gaps are compared as integer
    # ratios, so a scan over the whole model compares no Fractions at 32
    # breakpoints or at 512.  (The complement is not usc, and its argmax
    # set over the domain is refused.)
    models = [cantor_complement(n, mode) for n in (SMALL, LARGE)]
    small, large = (comparisons(monkeypatch, lambda f=f: SCANS[scan](f)) for f in models)
    assert small == large == 0, (small, large)
    # Each scan found what there is: a violation, strict-sided maxima in
    # the set's retained intervals, the supremum 1 and its 2**depth parts.
    small_result, large_result = (SCANS[scan](f) for f in models)
    if scan == "is_quasiconvex":
        assert small_result.witness and large_result.witness
    elif scan == "check_no_strict_sided_maxima":
        assert (small_result.holds, large_result.holds) == (mode == "complement",) * 2
    elif scan == "supremum_on":
        assert small_result[0] == large_result[0] == XReal(1)
    else:
        assert (len(small_result[1]), len(large_result[1])) == (SMALL // 2, LARGE // 2)


def test_scan_integers_do_not_grow_with_the_knot_count(monkeypatch):
    # The scans compare each value, piece midpoint and gap on its own
    # integers, so the widest integer they multiply in a cross product is
    # as wide at 800 knots as at 200.  Over one common denominator of the
    # values it would grow with the knot count.
    def widest_cross_argument(f) -> int:
        width = 0
        original = functions._cross

        def recording(*args):
            nonlocal width
            width = max(width, *(abs(a).bit_length() for a in args))
            return original(*args)

        f._index  # builds the structure index
        with monkeypatch.context() as patch:
            patch.setattr(functions, "_cross", recording)
            for scan in SCANS.values():
                scan(f)
        return width

    small, large = (widest_cross_argument(zero_crossing_model(knots)[0]) for knots in (200, 800))
    assert small > 0
    assert large <= 2 * small, (small, large)


def oracle_counts(monkeypatch, query) -> list[int]:
    f = random_piecewise_linear(16, 41)
    check_semicontinuity(f)
    return [
        comparisons(monkeypatch, lambda: query(f, grid_points=n))
        for n in (201, 801)
    ]


def test_oracle_fraction_work_is_flat_in_grid_size(monkeypatch):
    small, large = oracle_counts(monkeypatch, oracle_quasiconvex)
    assert small > 0
    assert large == small, (small, large)


def test_oracle_compare_makes_fractions_only_for_what_it_reports(monkeypatch, tmp_path):
    # One ``qcvx oracle --compare`` command on the 16-knot model: the
    # verdict, the violation set of the domain ends read from its sample,
    # and the diff against the exact set.  The grid is made and evaluated
    # on integers, and a position becomes a Fraction only when the report
    # reads it (witnesses and run ends), so as many Fractions are made at
    # 4001 grid points as at 201.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(function_to_dict(random_piecewise_linear(16, 41))))
    made, reports = [], []
    for grid in (201, 4001):
        out = tmp_path / f"report_{grid}.json"
        argv = ["oracle", str(path), "--grid", str(grid), "--compare", "--no-timestamp", "--out", str(out)]
        made.append(calls(monkeypatch, Fraction, "__new__", lambda: cli.main(argv)))
        reports.append(json.loads(out.read_text()))
    assert [r["oracle"]["grid"]["total_points"] for r in reports] == [214, 4014]
    assert all(r["comparison"]["consistent"] for r in reports)
    assert made[0] > 0
    assert made[1] == made[0], made


def test_oracle_violation_set_fraction_work_is_flat_in_grid_size(monkeypatch):
    def query(f, grid_points):
        bps = f.breakpoints()
        return oracle_violation_set(f, bps[2], bps[-3], grid_points=grid_points)

    small, large = oracle_counts(monkeypatch, query)
    assert small > 0
    assert large == small, (small, large)


def test_line_integers_do_not_grow_with_the_knot_count(monkeypatch):
    # Each linear piece's line is built from the piece's own ends, not
    # from the model-wide integer keys, whose common denominator is the
    # product of all the position denominators.
    def widest_gcd_argument(f) -> int:
        width = 0
        original = math.gcd

        def recording(*args):
            nonlocal width
            width = max(width, *(abs(a).bit_length() for a in args))
            return original(*args)

        with monkeypatch.context() as patch:
            patch.setattr(math, "gcd", recording)
            f._index  # builds the structure index
        return width

    small, large = (widest_gcd_argument(coprime_linear(3, knots)) for knots in (200, 800))
    assert small > 0
    assert large <= 2 * small, (small, large)


def test_coprime_query_integers_do_not_grow_with_the_knot_count(monkeypatch):
    # A whole-domain violation set on a model whose denominators are
    # distinct primes compares each position, value and piece on its own
    # integers, so the roots it builds are as wide at 800 knots as at 200.
    # Over a model-wide common denominator they would be about four times
    # as wide, and the query's arithmetic with them.
    def widest_gcd_argument(f) -> int:
        width = 0
        original = math.gcd

        def recording(*args):
            nonlocal width
            width = max(width, *(abs(a).bit_length() for a in args))
            return original(*args)

        f._index  # builds the structure index
        with monkeypatch.context() as patch:
            patch.setattr(math, "gcd", recording)
            assert violation_set(f, 0, 1).components
        return width

    small, large = (widest_gcd_argument(coprime_linear(3, knots)) for knots in (200, 800))
    assert small > 0
    assert large <= 2 * small, (small, large)


def test_tabulated_evaluation_compares_no_samples(monkeypatch):
    # Tabulated.evaluate places t by the same cross-product bisection as
    # the exact models and checks its domain on the located index, so its
    # Fraction work is the same at 60 and at 600 samples.
    def count(n: int) -> int:
        f = Tabulated(tuple(Fraction(k, n) for k in range(n + 1)), tuple(range(n + 1)))
        f.evaluate(0)  # builds its index
        t = Fraction(1, 3)
        return comparisons(monkeypatch, lambda: f.evaluate(t))

    small, large = count(60), count(600)
    assert small == large, (small, large)
