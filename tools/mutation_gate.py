"""Mutation gate: every listed one-line mutant of ``src/qcvx`` must make
``tests/test_properties.py`` fail on its own.

A mutant is a text replacement ``(old, new)`` in one module of
``src/qcvx``.  Each old text must occur exactly once in its module, so a
refactor that moves or rewrites a line stops the gate with a message
instead of skipping the mutant; the entry is then updated with the code.
The unmutated tree must pass the property file first.  Each mutant is
then applied to a fresh temporary copy of ``src/``, ``tests/`` and
``pyproject.toml``, and the property file runs there alone, stopping at
its first failure and without shrinking it (the ``mutation-gate``
Hypothesis profile of ``tests/conftest.py``).  The gate exits 1 unless
every mutant is killed.

Equivalent mutants, which no test can tell from the program, are listed
with the reason and checked to match, but not run.

Uses the standard library only, with pytest and hypothesis installed as
for the test suite::

    python tools/mutation_gate.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROPERTIES = "tests/test_properties.py"
# A mutant that makes a walk loop forever counts as killed when its run
# is stopped here; the property file takes a few seconds unmutated.
TIMEOUT_S = 600

# (module, old text, new text): each must fail the property file.
MUTANTS = [
    # The threshold walk, the pair and the index: a crossing seen from one
    # side only, a span above only where both ends are, the lower end value
    # taken as the level, the breakpoint test, the infinity terms of the
    # cross products, the root's sign, the index bisection and the usc
    # audit of a jump on one side.
    ("functions.py", "        if dl > 0 > dr or dr > 0 > dl:", "        if dl > 0 > dr:"),
    ("functions.py", "yield left, right, dl > 0 or dr > 0", "yield left, right, dl > 0 and dr > 0"),
    ("functions.py", "level = f._located_value(at_x if _cross(*fx, *fy) >= 0 else at_y)",
     "level = f._located_value(at_x if _cross(*fx, *fy) <= 0 else at_y)"),
    ("functions.py", "yield right, None, d_point > 0", "yield right, None, d_point >= 0"),
    ("functions.py", "    return a * tc - ta * c or (a > 0) - (ta > 0)", "    return a * tc - ta * c"),
    ("functions.py", "dl = dr = a * tc - ta * c or (a > 0) - (ta > 0)", "dl = dr = a * tc - ta * c"),
    ("functions.py", "d_point = pa * tc - ta * pc or (pa > 0) - (ta > 0)", "d_point = pa * tc - ta * pc"),
    ("functions.py", "root = Fraction(ta * c - a * tc, b * tc - tb * c)", "root = Fraction(a * tc - ta * c, b * tc - tb * c)"),
    ("functions.py", "        if n * td < tn * d:", "        if n * td <= tn * d:"),
    ("functions.py", "if l < 0 or r < 0)", "if l < 0 and r < 0)"),
    # The violation and chord sets: isolated violations dropped, a chord
    # set's first run dropped, a chord component mapped back from the
    # wrong end; in the pair batch, a chord taken from its pair's level
    # walk, the bounds of a pair's slice of a walk and a line's hull ends
    # never widened; the interior witness test.
    ("violations.py", "isolated.append(a)", "pass"),
    ("violations.py", "for u, v in reversed(runs)])", "for u, v in reversed(runs[1:])])"),
    ("violations.py", "return y - t * (y - x)", "return x + t * (y - x)"),
    ("violations.py", "chord and walks[chord])", "chord and walks[thr])"),
    ("violations.py", "return _count_below(self.lefts, x), _count_below(self.lefts, y)",
     "return _count_below(self.lefts, x), _count_below(self.lefts, y) + 1"),
    ("violations.py", "return _count_below(self.lefts, x), _count_below(self.lefts, y)",
     "return max(0, _count_below(self.lefts, x) - 1), _count_below(self.lefts, y)"),
    ("violations.py", "if _left_of(at_x[0], line[0][0]):", "if _left_of(line[0][0], at_x[0]):"),
    ("violations.py", "if _left_of(line[1][0], at_y[0]):", "if _left_of(at_y[0], line[1][0]):"),
    ("violations.py", "not (e - s == 1 and self.runs[s][0] == x", "not (e - s == 1 or self.runs[s][0] == x"),
    ("violations.py", "return not all(above for _, _, above in _sweep(f, at_x, at_y, thr))",
     "return all(above for _, _, above in _sweep(f, at_x, at_y, thr))"),
    # The model-wide scans on the integer layout: a candidate at its least
    # value on the right, or on the left, taken as a violation; a linear
    # piece's midpoint value doubled; a piece that dominates only one of
    # its ends joined into a chain of local maxima, whose one value rests
    # on every atom of the chain dominating both its neighbors.
    ("functions.py", "if above_left > 0 and _cross(vn, vd, *values[low[k + 1]]) > 0:",
     "if above_left > 0 and _cross(vn, vd, *values[low[k + 1]]) >= 0:"),
    ("functions.py", "if above_left > 0 and _cross(vn, vd, *values[low[k + 1]]) > 0:",
     "if above_left >= 0 and _cross(vn, vd, *values[low[k + 1]]) > 0:"),
    ("functions.py", "(a0 * c1 + a1 * c0, 2 * c0 * c1)", "(a0 * c1 + a1 * c0, c0 * c1)"),
    ("functions.py", "[r <= 0 and l <= 0 for r, l in zip(right, left[1:])]",
     "[r <= 0 or l <= 0 for r, l in zip(right, left[1:])]"),
    # The report text rendered from the walks: the gcd reduction of a
    # chord end or a total dropped, a total summed from the walk's first
    # run, a run's length over the wrong denominator, a chord
    # total over the wrong width, all checks passed read from the whole
    # walk, the rendered texts of one walk shared by every walk.
    ("violations.py", "    g = gcd(n, d)", "    g = 1"),
    ("violations.py", "n, den = _ratio_sum(walk.lengths[s:e])", "n, den = _ratio_sum(walk.lengths[:e])"),
    ("violations.py", "_reduced(vn * ud - un * vd, vd * ud)", "_reduced(vn * ud - un * vd, vd * vd)"),
    ("violations.py", "_reduced_text(n * xd * yd, den * width)", "_reduced_text(n * xd, den * width)"),
    ("violations.py", "_JSON_BOOL[failed[e] == failed[s]]", "_JSON_BOOL[failed[-1] == 0]"),
    ("violations.py", "            self._rendered = (", "            _LineWalk._rendered = ("),
    # The report writer: the pair records' text quoted as strings instead
    # of appended as it is.
    ("cli.py", "                append(item)", "                append(_quote(item))"),
    # Certificates and local shapes: a supremum equal to the level taken
    # as a violation, strictness on an attained bound, both local maxima
    # read strictly, and each side's strictness test.
    ("certificates.py", "    if not sup > level:", "    if not sup >= level:"),
    ("certificates.py", "return sup < bound or (sup == bound and not attained)",
     "return sup < bound or (sup == bound and attained)"),
    ("certificates.py", "both_local_maxima = sup <= fp and sup <= fq", "both_local_maxima = sup < fp and sup <= fq"),
    ("functions.py", "left_closed and left[lo] > 0,", "left_closed and left[lo] > 1,"),
    ("functions.py", "right_closed and right[hi] > 0", "right_closed and right[hi] > 1"),
    # The oracle: the L(k) count, the R(k) pass run forwards, the row skip
    # and the suffix maximum behind the witnesses, the piece midpoints of
    # the grid, the ends check before the domain sample is reused, the
    # comparison of an exact set with a grid's wanting two near intervals,
    # a grid run around an isolated violation left unmatched, and one
    # exactly twice the slack wide no longer matched to it.
    ("oracle.py", "total += bisect_left(seen, keys[k]) * below[k]", "total += bisect_right(seen, keys[k]) * below[k]"),
    ("oracle.py", "    for k in reversed(range(g)):", "    for k in range(g):"),
    ("oracle.py", "if reach[i + 1] > shifted[i]", "if reach[min(i + 2, g)] > shifted[i]"),
    ("oracle.py", "reach[k] = max(reach[k + 1], keys[k]) if below[k] else",
     "reach[k] = max(reach[k + 1], keys[k]) if below[k - 1] else"),
    ("oracle.py", "extras = _with_piece_midpoints(ratios) if isinstance(f, PiecewiseConstant) else ratios",
     "extras = ratios"),
    ("oracle.py", "    if position(0) != x or position(len(keys) - 1) != y:", "    if False:"),
    ("oracle.py", "        return first < stop", "        return first + 1 < stop"),
    ("oracle.py", "return k < len(points) and points[k] < right", "return False"),
    ("oracle.py", "r - l <= 2 * slack", "r - l < 2 * slack"),
    # The lattice walk that makes and evaluates an exact model's grid: a
    # breakpoint on a lattice point read from the piece before it, the
    # lattice points before an extra running one too far or stopping one
    # short, and the key step of a sloped piece left unscaled.
    ("functions.py", "                line = values[i]", "                line = values[i] if r else pieces[i - 1]"),
    ("functions.py", "stop = q + 1 if r else q", "stop = q + 1"),
    ("functions.py", "stop = q + 1 if r else q", "stop = q if r else q"),
    ("functions.py", "key, key_step = (a * d + b * first) * m, b * step * m", "key, key_step = (a * d + b * first) * m, b * step"),
]

# (module, old text, new text, why no test can kill it): not run.
EQUIVALENT = [
    ("certificates.py", "return sup < bound or (sup == bound and not attained)", "return sup <= bound",
     "under usc, p and q are the first and last points of [x0, y0] that attain the supremum, "
     "so no point strictly between x0 and p, or q and y0, attains it"),
    ("violations.py", "not (e - s == 1 and self.runs[s][0] == x", "not (e - s >= 1 and self.runs[s][0] == x",
     "a first component equal to ]x, y[ leaves no room for a second one within [x, y]"),
    ("oracle.py", "if reach[i + 1] > shifted[i]", "if reach[i] > shifted[i]",
     "key i is never above shifted key i, so reach[i] only skips fewer rows"),
]


def mutated_sources(entries) -> list[tuple[str, str]]:
    """Each entry's module and its mutated text; exits when an old text
    does not occur exactly once in its module."""
    out, stale = [], []
    for module, old, new, *_ in entries:
        text = (ROOT / "src" / "qcvx" / module).read_text()
        if text.count(old) != 1:
            stale.append(f"{module}: {old!r} occurs {text.count(old)} times")
            continue
        out.append((module, text.replace(old, new)))
    if stale:
        sys.exit("mutation gate: stale mutant entries, update them with the code:\n  " + "\n  ".join(stale))
    return out


def run_properties(module: str | None = None, text: str | None = None) -> tuple[str, float]:
    """The property file's outcome on a temporary copy of the tree, with
    ``module`` replaced by ``text``: "passed", "killed", "killed (timeout)"
    or "error <exit code>", and the seconds it took."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qcvx-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if module is not None:
            Path(tmp, "src", "qcvx", module).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        command += ["--hypothesis-profile", "mutation-gate", PROPERTIES]
        try:
            code = subprocess.run(command, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "killed (timeout)", time.perf_counter() - start
    # pytest exits 1 when a test failed; any other failure is the gate's.
    outcome = {0: "passed", 1: "killed"}.get(code, f"error {code}")
    return outcome, time.perf_counter() - start


def main() -> int:
    sources = mutated_sources(MUTANTS)
    mutated_sources(EQUIVALENT)
    outcome, seconds = run_properties()
    print(f"unmutated: {outcome} ({seconds:.1f} s)", flush=True)
    if outcome != "passed":
        print(f"mutation gate: {PROPERTIES} must pass on the unmutated tree")
        return 1
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # Each worker waits on one pytest process of about 100 MB.
    with ThreadPoolExecutor(max_workers=max(1, min(usable, 4))) as pool:
        results = list(pool.map(lambda source: run_properties(*source), sources))
    failed = 0
    for (module, old, new), (outcome, seconds) in zip(MUTANTS, results):
        failed += not outcome.startswith("killed")
        print(f"{outcome:>16}  {module}: {old.strip()!r} -> {new.strip()!r} ({seconds:.1f} s)")
    for module, old, new, reason in EQUIVALENT:
        print(f"{'equivalent':>16}  {module}: {old.strip()!r} -> {new.strip()!r}: {reason}")
    print(f"mutation gate: {len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
