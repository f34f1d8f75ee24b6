"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion lines as they pass.  Every expected value is exact; timing
bounds are asserted where stated.
"""

import random
import time
from fractions import Fraction

from conftest import ACCEPTANCE_LINES
from qcvx import (
    OpenInterval,
    XReal,
    check_no_strict_sided_maxima,
    check_semicontinuity,
    convexity_violation_set,
    generate_cantor,
    interior_witness_exists,
    is_quasiconvex,
    normalize,
    oracle_quasiconvex,
    paired_maxima_certificate,
    verify_component_property,
    violation_set,
)
from qcvx.corpus import (
    monotone,
    monotone_concave,
    ramp_plateau,
    random_corpus,
    tent,
    usc_corpus,
)

F = Fraction


def _report(number: int, label: str) -> None:
    line = f"ACCEPTANCE {number} ({label}): PASS"
    print(line)
    ACCEPTANCE_LINES.append(line)


def test_criterion_1_cantor_decomposition():
    start = time.perf_counter()
    f = generate_cantor(6, "complement")
    d = violation_set(f, 0, 1)
    checks = verify_component_property(f, d)
    elapsed = time.perf_counter() - start
    assert len(d.components) == 63
    assert d.components.total_length() == F(665, 729)
    assert len(checks) == 63
    assert all(c.endpoints_outside and c.interior_strict for c in checks)
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "depth-6 decomposition: 63 components, length 665/729, checks pass")


def test_criterion_2_certificate_fixtures():
    cert = paired_maxima_certificate(tent(), 0, 1)
    assert cert.p == F(1, 2) and cert.q == F(1, 2)
    assert cert.sup_value == XReal(1)
    assert cert.checks.values_equal
    assert cert.checks.both_local_maxima
    assert cert.checks.one_sided_strictness

    f = generate_cantor(2, "set")
    cert2 = paired_maxima_certificate(f, F(2, 5), F(4, 5))
    assert cert2.p == F(2, 3) and cert2.q == F(7, 9)
    assert f.evaluate(cert2.p) == XReal(1) == f.evaluate(cert2.q)
    assert cert2.sup_value == XReal(1)
    assert cert2.checks.values_equal
    assert cert2.checks.both_local_maxima
    assert cert2.checks.one_sided_strictness
    _report(2, "certificates: tent p=q=1/2 sup=1; depth-2 p=2/3 q=7/9")


def test_criterion_3_differential_500_functions():
    start = time.perf_counter()
    functions = random_corpus(500)
    disagreements = []
    for i, f in enumerate(functions):
        exact = is_quasiconvex(f).is_quasiconvex
        grid = oracle_quasiconvex(f, grid_points=201).is_quasiconvex_on_grid
        if exact != grid:
            disagreements.append(i)
    elapsed = time.perf_counter() - start
    assert not disagreements, f"disagreements at {disagreements}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(3, f"differential 500/500 agreement in {elapsed:.1f}s")


def test_criterion_4_first_component_refutes_witness():
    exceptions = []
    for i, f in enumerate(random_corpus(500)):
        verdict = is_quasiconvex(f)
        if verdict.is_quasiconvex:
            continue
        x, y, _ = verdict.witness
        d = violation_set(f, x, y)
        assert not d.components.is_empty
        first = d.components.intervals[0]
        if interior_witness_exists(f, first.left, first.right):
            exceptions.append(i)
    assert not exceptions, f"witness found inside first component at {exceptions}"
    _report(4, "first decomposition component refutes the interior witness")


def test_criterion_5_witness_needs_lower_semicontinuity():
    f = generate_cantor(5, "set")
    report = check_semicontinuity(f)
    assert report.is_usc and not report.is_lsc
    assert not is_quasiconvex(f).is_quasiconvex
    grid = [F(j, 729) for j in range(730)]
    for i, x in enumerate(grid):
        for y in grid[i + 1 :]:
            assert interior_witness_exists(f, x, y)
    _report(5, "depth-5 indicator: witnesses everywhere, still not quasiconvex")


def test_criterion_6_strict_free_maxima_imply_quasiconvexity():
    checked = 0
    for name, f in usc_corpus():
        assert check_semicontinuity(f).is_usc
        if check_no_strict_sided_maxima(f).holds:
            assert is_quasiconvex(f).is_quasiconvex, name
            checked += 1
    for i, f in enumerate(random_corpus(500)):
        if check_no_strict_sided_maxima(f).holds:
            assert is_quasiconvex(f).is_quasiconvex, f"random[{i}]"
            checked += 1
    probe = ramp_plateau()
    assert not check_no_strict_sided_maxima(probe).holds
    assert is_quasiconvex(probe).is_quasiconvex
    _report(6, f"hypothesis implies quasiconvexity ({checked} holders); ramp-plateau is the one-way probe")


def test_criterion_7_violation_sets_versus_chord_sets():
    plain = monotone()
    bps = plain.breakpoints()
    for i, x in enumerate(bps):
        for y in bps[i + 1 :]:
            assert violation_set(plain, x, y).components.is_empty
    concave = monotone_concave()
    for i, x in enumerate(concave.breakpoints()):
        for y in concave.breakpoints()[i + 1 :]:
            assert violation_set(concave, x, y).components.is_empty
    assert not convexity_violation_set(concave, 0, 1).is_empty

    assert convexity_violation_set(tent(), 0, 1) == normalize(
        [OpenInterval(F(0), F(1))]
    )
    assert convexity_violation_set(tent(), 0, F(1, 2)).is_empty
    _report(7, "monotone: empty violations, nonempty chord set; tent chord sets exact")


def test_criterion_8_interval_algebra_bulk():
    start = time.perf_counter()
    rng = random.Random(987654321)
    for case in range(1000):
        raw = []
        for _ in range(rng.randint(0, 10)):
            a = F(rng.randint(0, 999), 1000)
            b = a + F(rng.randint(1, 200), 1000)
            raw.append(OpenInterval(a, b))
        s = normalize(raw)
        assert normalize(s.intervals) == s
        shuffled = list(raw)
        rng.shuffle(shuffled)
        assert normalize(shuffled) == s
        for _ in range(100):
            t = F(rng.randint(0, 1200), 1000)
            assert s.contains(t) == any(r.contains(t) for r in raw)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report(8, f"1000 interval-set cases, idempotent and sound in {elapsed:.1f}s")
