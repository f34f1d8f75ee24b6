"""Property tests over generated exact models.

Three model strategies: piecewise-constant models with +-inf values and a
breakpoint that is neither lower nor upper semicontinuous, on a shared
1/60 grid with up to two pieces 1/600 wide, narrower than the oracle's
grid spacing; piecewise-linear models whose positions and values have
distinct prime denominators, with zero values common so that values tie;
and piecewise-linear models on shared 1/60 and 1/4 grids, whose pieces
can be narrower than the oracle's grid spacing.  Pair properties draw
each end as a breakpoint or a point inside a piece, and check the exact
violation and chord sets point by point against the model's own fields.
The batch pair analysis behind ``qcvx analyze`` is checked pair by pair
against the single-pair functions, on pair lists whose spans share
levels, overlap, nest, touch and repeat, and also on piecewise-linear
models with three or more knots on one sloped line, so that pairs share
a chord line that is not their level; and the report text that
``qcvx analyze`` renders from the batch's walks is checked against the
writer's text of the batch's records.  The oracle's triple count and
its witnesses are checked against a plain loop over every grid triple,
and the violation set read from the verdict's domain grid against a
fresh grid, also on a black box in float mode; the exact violation set
is compared with the oracle's on general draws and around an isolated
spike.
Lower and upper semicontinuous variants of the piecewise-constant models,
beside the continuous linear ones, carry the paper's two
characterizations of quasiconvexity: by interior witnesses for lsc maps
and by paired maxima for usc maps, where a pair has a certificate
exactly when its violation set is not empty.  ``tools/mutation_gate.py``
checks that this file alone kills a list of one-line mutants of the
program.  The runs are derandomized and
bounded, so the file is deterministic and takes a few seconds.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from conftest import reference_value, report_text, structural_positions
from test_oracle import _CROSS_CHECK_MODELS, _literal_triples
from qcvx import (
    MINUS_INF,
    Blackbox,
    PLUS_INF,
    OpenInterval,
    PiecewiseConstant,
    PiecewiseLinear,
    XReal,
    analyze_pairs,
    check_semicontinuity,
    check_no_strict_sided_maxima,
    convexity_violation_set,
    diff_report,
    enumerate_local_maxima,
    interior_witness_exists,
    is_quasiconvex,
    oracle_quasiconvex,
    oracle_violation_set,
    paired_maxima_certificate,
    revalidate_certificate,
    verify_chord_components,
    verify_component_property,
    violation_set,
)
from qcvx.cli import pair_records
from qcvx.errors import UnsupportedChordError
from qcvx.oracle import _violation_set_from

F = Fraction

VALUES = [MINUS_INF, XReal(-1), XReal(0), XReal(F(1, 2)), XReal(2), PLUS_INF]

# (left piece, breakpoint, right piece) with the breakpoint value strictly
# between the piece values: above one side and below the other, so f is
# neither lsc nor usc there.
NEITHER = [
    (MINUS_INF, XReal(0), PLUS_INF),
    (XReal(-1), XReal(F(1, 2)), XReal(2)),
    (PLUS_INF, XReal(2), XReal(0)),
    (XReal(2), XReal(-1), MINUS_INF),
]

PRIMES = [p for p in range(1009, 1361) if all(p % q for q in range(2, 37))]


@st.composite
def piecewise_constant_models(draw) -> PiecewiseConstant:
    inner = draw(st.lists(st.integers(1, 59), min_size=1, max_size=8, unique=True))
    breaks = [F(0), *(F(i, 60) for i in sorted(inner)), F(1)]
    # Up to two pieces 1/600 wide, each beside a breakpoint: none holds a
    # uniform point of the oracle's 9- or 41-point grid over [0, 1], so
    # only the grid's piece midpoints sample them.
    narrow = draw(st.lists(st.sampled_from(breaks[:-1]), max_size=2, unique=True))
    breaks = sorted({*breaks, *(b + F(1, 600) for b in narrow)})
    # seq[2 * i] is the value at breaks[i] and seq[2 * i + 1] the value of
    # the piece after it; breakpoint k is neither lsc nor usc.
    seq = draw(st.lists(st.sampled_from(VALUES), min_size=2 * len(breaks) - 1, max_size=2 * len(breaks) - 1))
    k = draw(st.integers(1, len(breaks) - 2))
    left, point, right = draw(st.sampled_from(NEITHER))
    if draw(st.booleans()):
        # A valley, falling to the triple and rising after it, which is
        # quasiconvex whichever way the triple runs, unless a narrow piece
        # redrawn after it spikes out, as only a sample inside it shows.
        seq[: 2 * k - 1] = sorted((max(v, left) for v in seq[: 2 * k - 1]), reverse=True)
        seq[2 * k + 2 :] = sorted(max(v, right) for v in seq[2 * k + 2 :])
        for b in narrow:
            seq[2 * breaks.index(b) + 1] = draw(st.sampled_from(VALUES))
    seq[2 * k - 1 : 2 * k + 2] = left, point, right
    return PiecewiseConstant(tuple(breaks), tuple(seq[1::2]), tuple(seq[0::2]))


@st.composite
def coprime_linear_models(draw) -> PiecewiseLinear:
    n = draw(st.integers(2, 12))
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=2 * n, max_size=2 * n, unique=True))
    # A numerator below its prime denominator keeps the fraction in lowest
    # terms, so distinct primes give distinct positions.
    inner = sorted(F(draw(st.integers(1, p - 1)), p) for p in primes[: n - 2])
    positions = [F(0), *inner, F(1)]
    values = [F(draw(st.one_of(st.just(0), st.integers(-40, 40))), q) for q in primes[n:]]
    return PiecewiseLinear(tuple(zip(positions, values)))


@st.composite
def shared_linear_models(draw) -> PiecewiseLinear:
    inner = draw(st.lists(st.integers(1, 59), min_size=0, max_size=10, unique=True))
    positions = [F(0), *(F(i, 60) for i in sorted(inner)), F(1)]
    values = draw(st.lists(st.integers(-4, 4), min_size=len(positions), max_size=len(positions)))
    return PiecewiseLinear(tuple((p, F(v, 4)) for p, v in zip(positions, values)))


@st.composite
def collinear_linear_models(draw) -> PiecewiseLinear:
    # Three to six knots on one sloped line, with random knots between
    # them on a 1/60 grid: pairs of the knots on the line share it as
    # their chord, which is no pair's level, and their spans connect.
    slope = F(draw(st.integers(1, 6)) * draw(st.sampled_from([-1, 1])), draw(st.integers(1, 4)))
    intercept = F(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    on = draw(st.lists(st.integers(0, 60), min_size=3, max_size=6, unique=True))
    between = draw(st.lists(st.integers(0, 60), max_size=6, unique=True))
    knots = []
    for i in sorted({0, 60, *on, *between}):
        value = slope * F(i, 60) + intercept if i in on else F(draw(st.integers(-12, 12)), 4)
        knots.append((F(i, 60), value))
    return PiecewiseLinear(tuple(knots))


LINEAR = st.one_of(coprime_linear_models(), shared_linear_models())
MODELS = st.one_of(piecewise_constant_models(), LINEAR)

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@SETTINGS
@given(piecewise_constant_models())
def test_constant_strategy_has_a_breakpoint_neither_lsc_nor_usc(f):
    report = check_semicontinuity(f)
    assert not report.is_lsc and not report.is_usc


@SETTINGS
@given(st.one_of(piecewise_constant_models(), MODELS))
def test_verdict_matches_the_oracle(f):
    # Weighted toward piecewise-constant models, whose narrow pieces only
    # the oracle's piece midpoints sample.
    oracle = oracle_quasiconvex(f, grid_points=41)
    assert is_quasiconvex(f).is_quasiconvex == oracle.is_quasiconvex_on_grid


@settings(SETTINGS, max_examples=100)
@given(MODELS)
def test_oracle_matches_a_literal_triple_loop(f):
    expected = _literal_triples(f, 9)
    verdict = oracle_quasiconvex(f, grid_points=9, max_triples=len(expected))
    assert verdict.total_violations == len(expected)
    assert list(verdict.violating_triples) == expected


@SETTINGS
@given(MODELS, st.data())
def test_evaluate_interpolates_the_model_fields(f, data):
    # One drawn point strictly inside each piece, where a linear model
    # reads the line built for that piece.
    bps = structural_positions(f)
    for p0, p1 in zip(bps, bps[1:]):
        t = p0 + (p1 - p0) * F(data.draw(st.integers(1, 999)), 1000)
        assert f.evaluate(t) == reference_value(f, t)


def pair_points(data, f) -> list[F]:
    """The breakpoints of f and one drawn point inside each piece, in
    order."""
    bps = structural_positions(f)
    inside = (p0 + (p1 - p0) * F(data.draw(st.integers(1, 7)), 8) for p0, p1 in zip(bps, bps[1:]))
    return sorted({*bps, *inside})


def draw_pair(data, f) -> tuple[F, F]:
    """Two points x < y of f's domain, each a breakpoint or a point inside
    a piece."""
    points = pair_points(data, f)
    ends = data.draw(st.lists(st.integers(0, len(points) - 1), min_size=2, max_size=2, unique=True))
    i, j = sorted(ends)
    return points[i], points[j]


@SETTINGS
@given(MODELS, st.data())
def test_violation_set_matches_the_oracle(f, data):
    # The oracle's grid holds every breakpoint, so a slack of one uniform
    # grid step covers its error, as in ``qcvx oracle --compare``.
    x, y = draw_pair(data, f)
    approx = oracle_violation_set(f, x, y, grid_points=41)
    report = diff_report(violation_set(f, x, y), approx, (y - x) / 40)
    assert report.consistent, report.to_json()


def spike(f: PiecewiseConstant, k: int) -> PiecewiseConstant:
    """f with +inf at its breakpoint k and -inf on the two pieces beside
    it: a point above every finite level with none beside it."""
    pieces, points = list(f.piece_values), list(f.point_values)
    pieces[k - 1] = pieces[k] = MINUS_INF
    points[k] = PLUS_INF
    return PiecewiseConstant(f.breaks, tuple(pieces), tuple(points))


@SETTINGS
@given(piecewise_constant_models(), st.data())
def test_violation_set_matches_the_oracle_at_an_isolated_spike(f, data):
    # The grid marks the spike as a run of its own, at most two grid
    # steps wide, which no open component accounts for: the comparison
    # matches it to the isolated violation inside it.
    k = data.draw(st.integers(1, len(f.breaks) - 2))
    f = spike(f, k)
    points = pair_points(data, f)
    c = points.index(f.breaks[k])
    x = points[data.draw(st.integers(0, c - 1))]
    y = points[data.draw(st.integers(c + 1, len(points) - 1))]
    decomposition = violation_set(f, x, y)
    if decomposition.threshold == PLUS_INF:
        return  # nothing lies above
    assert f.breaks[k] in decomposition.isolated_violations
    approx = oracle_violation_set(f, x, y, grid_points=41)
    report = diff_report(decomposition, approx, (y - x) / 40)
    assert report.consistent, report.to_json()


@SETTINGS
@given(
    st.one_of(piecewise_constant_models(), MODELS, st.builds(_CROSS_CHECK_MODELS["blackbox_margin"])),
    st.sampled_from([9, 41, 201]),
    st.data(),
)
def test_domain_sample_gives_the_fresh_violation_set(f, g, data):
    # ``qcvx oracle`` reads the violation set of the domain ends from the
    # verdict's grid and builds a grid of its own for any other pair; both
    # must be the set a fresh grid on [x, y] gives.  The black box has no
    # structure, so its pairs are drawn on eighths.
    verdict = oracle_quasiconvex(f, g)
    points = [F(i, 8) for i in range(9)] if isinstance(f, Blackbox) else pair_points(data, f)
    ends = data.draw(st.lists(st.integers(0, len(points) - 1), min_size=2, max_size=2, unique=True))
    i, j = sorted(ends)
    for x, y in (f.domain, (points[i], points[j])):
        assert _violation_set_from(verdict, f, x, y) == oracle_violation_set(f, x, y, g)


@SETTINGS
@given(MODELS, st.data())
def test_chord_components_lie_above_the_chord(f, data):
    x, y = draw_pair(data, f)
    fx, fy = reference_value(f, x), reference_value(f, y)
    if not (fx.is_finite and fy.is_finite):
        return  # no chord
    fx, fy = fx.finite_value, fy.finite_value
    for iv in convexity_violation_set(f, x, y):
        assert 0 <= iv.left and iv.right <= 1
        # The component's midpoint, mapped back to a position.
        z = y - (iv.left + iv.right) / 2 * (y - x)
        assert reference_value(f, z) > XReal(fx + (fy - fx) * (z - x) / (y - x))


def assert_strict_set(f, x, y, components, above, isolated=None) -> None:
    """Check that the open ``components`` within ]x, y[ are the maximal
    open intervals of {z : above(z)}, and ``isolated``, when given, the
    other points of that set.  ]x, y[ is cut at the breakpoints, the
    component ends and the isolated points; on each cell between two
    cuts f and the threshold do not cross, so three points stand for the
    cell, and a cut is interior to the union exactly when it and the
    cells on both sides lie above."""
    def inside(z):
        return any(iv.left < z < iv.right for iv in components)

    ends = (e for iv in components for e in (iv.left, iv.right))
    inner = (p for p in structural_positions(f) if x < p < y)
    cuts = sorted({x, y, *inner, *ends, *(isolated or ())})
    cells = [[u + (v - u) * F(k, 4) for k in (1, 2, 3)] for u, v in zip(cuts, cuts[1:])]
    for points in cells:
        for z in points:
            assert above(z) == inside(z), z
    for c, before, after in zip(cuts[1:-1], cells, cells[1:]):
        joined = above(c) and above(before[1]) and above(after[1])
        assert inside(c) == joined, c
        if isolated is not None:
            assert (c in isolated) == (above(c) and not joined), c


def sink_ends(f: PiecewiseConstant, x: F, y: F) -> PiecewiseConstant:
    """f with the value -inf at x and at y: at a breakpoint its point
    value, inside a piece the piece's value."""
    breaks, pieces, points = f.breaks, list(f.piece_values), list(f.point_values)
    for t in (x, y):
        if t in breaks:
            points[breaks.index(t)] = MINUS_INF
        else:
            pieces[next(k for k, b in enumerate(breaks[1:]) if t < b)] = MINUS_INF
    return PiecewiseConstant(breaks, tuple(pieces), tuple(points))


@SETTINGS
@given(MODELS, st.data())
def test_violation_set_is_the_strict_superlevel_set(f, data):
    x, y = draw_pair(data, f)
    if isinstance(f, PiecewiseConstant) and data.draw(st.booleans()):
        f = sink_ends(f, x, y)  # the level is -inf, and every other value above it
    level = max(reference_value(f, x), reference_value(f, y))
    decomposition = violation_set(f, x, y)
    assert decomposition.threshold == level
    assert_strict_set(
        f, x, y, decomposition.components,
        lambda z: reference_value(f, z) > level,
        decomposition.isolated_violations,
    )


@SETTINGS
@given(MODELS, st.data())
def test_chord_set_is_the_strict_set_above_the_chord(f, data):
    x, y = draw_pair(data, f)
    fx, fy = reference_value(f, x), reference_value(f, y)
    if not (fx.is_finite and fy.is_finite):
        return  # no chord
    fx, fy = fx.finite_value, fy.finite_value
    # Parameter t is the position y - t * (y - x).
    positions = [OpenInterval(y - iv.right * (y - x), y - iv.left * (y - x)) for iv in convexity_violation_set(f, x, y)]
    assert_strict_set(
        f, x, y, positions, lambda z: reference_value(f, z) > XReal(fx + (fy - fx) * (z - x) / (y - x))
    )


@SETTINGS
@given(LINEAR, st.data())
def test_component_checks_pass_on_lsc_models(f, data):
    assert check_semicontinuity(f).is_lsc
    x, y = draw_pair(data, f)
    checks = [
        *verify_component_property(f, violation_set(f, x, y)),
        *verify_chord_components(f, x, y, convexity_violation_set(f, x, y)),
    ]
    assert all(c.passed for c in checks)


def semicontinuous(f: PiecewiseConstant, pick) -> PiecewiseConstant:
    """f made lsc (``pick`` = min) or usc (``pick`` = max): each breakpoint
    value becomes the ``pick`` of the pieces beside it."""
    pieces = f.piece_values
    last = len(pieces) - 1
    points = (pick(pieces[max(k - 1, 0)], pieces[min(k, last)]) for k in range(len(f.breaks)))
    return PiecewiseConstant(f.breaks, pieces, tuple(points))


LSC = st.one_of(piecewise_constant_models().map(lambda f: semicontinuous(f, min)), LINEAR)
USC = st.one_of(piecewise_constant_models().map(lambda f: semicontinuous(f, max)), LINEAR)


def draw_pairs(data, f) -> list[tuple[F, F]]:
    """One to twelve pairs x < y of breakpoints and points inside pieces,
    after every breakpoint pair on half the draws, as ``qcvx analyze
    --all-breakpoint-pairs`` asks.  Each is drawn freely, repeats an
    earlier pair, starts where the pair before it ends, or keeps one end
    of the pair before it, which often keeps its level max(f(x), f(y))
    too; so spans overlap, nest, touch and share levels."""
    points = pair_points(data, f)
    last = len(points) - 1
    bps = [points.index(p) for p in structural_positions(f)]
    pairs: list[tuple[int, int]] = list(combinations(bps, 2)) if data.draw(st.booleans()) else []
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.sampled_from(["free", "repeat", "touch", "share"])) if pairs else "free"
        i, j = pairs[-1] if pairs else (0, last)
        if kind == "repeat":
            pairs.append(data.draw(st.sampled_from(pairs)))
        elif kind == "touch" and j < last:
            pairs.append((j, data.draw(st.integers(j + 1, last))))
        elif kind == "share":
            kept = data.draw(st.sampled_from([i, j]))
            other = data.draw(st.integers(0, last).filter(lambda k: k != kept))
            pairs.append((min(kept, other), max(kept, other)))
        else:
            ends = data.draw(st.lists(st.integers(0, last), min_size=2, max_size=2, unique=True))
            pairs.append((min(ends), max(ends)))
    return [(points[i], points[j]) for i, j in pairs]


@settings(SETTINGS, max_examples=200)
@given(st.one_of(piecewise_constant_models(), MODELS, LSC, USC, collinear_linear_models()), st.data())
def test_pair_batch_matches_the_single_pair_functions(f, data):
    # Pairs that share a level or a chord line share one walk of that
    # line in the batch, across any gaps between them; each pair's part
    # must be what the single-pair functions find on its own span.
    pairs = draw_pairs(data, f)
    analyses = analyze_pairs(f, pairs)
    assert len(analyses) == len(pairs)
    for (x, y), analysis in zip(pairs, analyses):
        decomposition = violation_set(f, x, y)
        assert analysis.decomposition == decomposition, (x, y)
        assert analysis.checks == tuple(verify_component_property(f, decomposition)), (x, y)
        assert analysis.interior_witness == interior_witness_exists(f, x, y), (x, y)
        try:
            chord = convexity_violation_set(f, x, y)
        except UnsupportedChordError:
            chord = None
        assert analysis.chord == chord, (x, y)


@settings(SETTINGS, max_examples=200)
@given(st.one_of(piecewise_constant_models(), MODELS, LSC, USC, collinear_linear_models()), st.data())
def test_pair_records_are_the_text_of_the_batch_analyses(f, data):
    # ``qcvx analyze`` renders each record from the walks, with each
    # walk's components and checks rendered once and each pair's chord
    # ends and totals made from integers; the text must be what the
    # report writer makes of the analyses' dicts.  The draws reach +-inf
    # levels, isolated violations, failing component checks and pairs
    # without a chord set.
    pairs = draw_pairs(data, f)
    expected = report_text({"pairs": [analysis.to_json() for analysis in analyze_pairs(f, pairs)]})
    assert report_text({"pairs": pair_records(f, pairs)}) == expected


def candidates(f) -> list[F]:
    """The breakpoints and the piece midpoints, in order."""
    bps = structural_positions(f)
    return sorted({*bps, *((p0 + p1) / 2 for p0, p1 in zip(bps, bps[1:]))})


@SETTINGS
@given(LSC)
def test_lsc_quasiconvex_has_every_interior_witness(f):
    assert check_semicontinuity(f).is_lsc
    if not is_quasiconvex(f).is_quasiconvex:
        return
    points = candidates(f)
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            assert interior_witness_exists(f, x, y), (x, y)


@SETTINGS
@given(LSC)
def test_lsc_violation_component_has_no_interior_witness(f):
    # The component of the witness's violation set around z lies above
    # max(f(x), f(y)), and its ends at or below it: so no point inside
    # it is at or below the larger value of its ends.
    witness = is_quasiconvex(f).witness
    if witness is None:
        return
    x, y, z = witness
    (component,) = [iv for iv in violation_set(f, x, y).components if iv.left < z < iv.right]
    assert not interior_witness_exists(f, component.left, component.right)


@SETTINGS
@given(USC)
def test_usc_witness_has_a_paired_maxima_certificate(f):
    assert check_semicontinuity(f).is_usc
    witness = is_quasiconvex(f).witness
    if witness is None:
        return
    x, y, _ = witness
    cert = paired_maxima_certificate(f, x, y)
    assert cert is not None and cert.checks.all_passed, cert
    revalidation = revalidate_certificate(f, cert, grid_points=41)
    assert revalidation.all_passed, revalidation.failures


@SETTINGS
@given(USC, st.data())
def test_usc_certificate_exists_iff_the_pair_has_violations(f, data):
    # The supremum over ]x0, y0[ exceeds max(f(x0), f(y0)) exactly when
    # some point there does, and on a usc model such a point lies in an
    # open component of the violation set; a supremum equal to the level,
    # as on a plateau at the level, gives no certificate.
    x0, y0 = draw_pair(data, f)
    cert = paired_maxima_certificate(f, x0, y0)
    assert (cert is None) == (not violation_set(f, x0, y0).components.intervals), (x0, y0, cert)


@SETTINGS
@given(USC)
def test_usc_failure_has_a_maximum_strict_from_both_sides(f):
    # Usc f attains its maximum on [x, y] of a witness (x, y, z) on a
    # closed set strictly inside, so the region around it dominates and
    # every atom beside it lies strictly below: a local maximum strict
    # from both sides.  Hence without strict-sided maxima f is
    # quasiconvex.  (Every hump of these models is strict from both
    # sides, so this cannot tell a one-sided maximum from a two-sided one.)
    if is_quasiconvex(f).is_quasiconvex:
        return
    maxima = enumerate_local_maxima(f)
    assert any(m.strict_from_left and m.strict_from_right for m in maxima), maxima
    assert not check_no_strict_sided_maxima(f).holds
