"""The point-query stream and its reference answers.

A query names a model, a kind and its arguments.  Its reference answer is
computed by direct evaluation of the benchmark's own model (``models.py``)
at the breakpoints inside the query interval and at the midpoints of the
pieces clipped to it; it uses no ``cells_in`` and no extremum code of the
library.  ``run`` calls the library and ``normalize`` turns its result
into the same plain form as the reference, so the two compare with ``==``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import qcvx
from models import Constant, Linear, Model

KINDS = ("witness", "violation", "chord", "certificate", "local", "extremum")


def make_stream(models: dict[str, Model], count: int, seed: int) -> list[tuple]:
    """``count`` queries ``(model key, kind, args)`` whose interval ends lie
    1-4 pieces apart; each end is a breakpoint or a point inside a piece.
    Half the queries go to the piecewise-constant model, half to one of the
    linear ones."""
    rng = random.Random(f"point-queries-{seed}")
    families = [
        sorted(k for k, m in models.items() if isinstance(m, Constant)),
        sorted(k for k, m in models.items() if isinstance(m, Linear)),
    ]
    stream = []
    for _ in range(count):
        key = rng.choice(rng.choice(families))
        model = models[key]
        breaks = model.breaks
        kinds = [k for k in KINDS if k != "chord" or isinstance(model, Linear)]
        kind = rng.choice(kinds)
        if kind == "extremum":
            kind = rng.choice(("infimum", "supremum"))
        span = rng.randint(1, 4)
        i = rng.randrange(len(breaks) - span)
        x = _end(breaks, i, rng)
        y = _end(breaks, i + span - 1, rng, upper=True)
        if not x < y:  # both ends drawn inside the same piece
            x, y = breaks[i], breaks[i + span]
        if kind == "local":
            args = (_end(breaks, i + rng.randrange(span), rng, interior=True),)
        else:
            args = (x, y)
        stream.append((key, kind, args))
    return stream


def _end(breaks, piece: int, rng: random.Random, *, upper: bool = False, interior: bool = False):
    """A breakpoint bounding ``piece`` or a rational inside it."""
    lo, hi = breaks[piece], breaks[piece + 1]
    if rng.random() < 0.5:
        if interior:
            return lo if lo > breaks[0] else hi
        return hi if upper else lo
    return lo + (hi - lo) * Fraction(rng.randint(1, 7), 8)


# ---------------------------------------------------------------------------
# Library calls and their normalized answers.


def run(f, kind: str, args: tuple):
    """The library call(s) a query makes; the result is normalized later."""
    if kind == "witness":
        return qcvx.violations.interior_witness_exists(f, *args)
    if kind == "violation":
        d = qcvx.violations.violation_set(f, *args)
        return d, qcvx.violations.verify_component_property(f, d)
    if kind == "chord":
        return qcvx.violations.convexity_violation_set(f, *args)
    if kind == "certificate":
        cert = qcvx.certificates.paired_maxima_certificate(f, *args)
        if cert is None:
            return None
        return cert, qcvx.certificates.revalidate_certificate(f, cert)
    if kind == "local":
        return qcvx.certificates.local_quasiconvexity_at(f, *args)
    if kind == "infimum":
        return qcvx.functions.infimum_on(f, *args)
    return qcvx.functions.supremum_on(f, *args)


def _xr(v) -> object:
    if v.is_finite:
        return v.finite_value
    return math.inf if v.is_plus_infinity else -math.inf


def _spans(s) -> tuple:
    return tuple((iv.left, iv.right) for iv in s)


def normalize(kind: str, result) -> object:
    if kind == "witness":
        return bool(result)
    if kind == "violation":
        d, checks = result
        return (
            _spans(d.components),
            tuple(d.isolated_violations),
            tuple((c.endpoints_outside, c.interior_strict) for c in checks),
        )
    if kind == "chord":
        return _spans(result)
    if kind == "certificate":
        if result is None:
            return None
        cert, reval = result
        return (_xr(cert.sup_value), cert.argmax.components, cert.p, cert.q, cert.checks.all_passed, reval.all_passed)
    if kind == "local":
        return (result.locally_quasiconvex, result.locally_strictly_quasiconcave, result.delta)
    value, attained = result
    return (_xr(value), attained)


def to_json(kind: str, result) -> object:
    """The answer as the library serializes it (``to_json``), for the
    answer-size metric."""
    if kind == "witness":
        return result
    if kind == "violation":
        d, checks = result
        return {**d.to_json(), "component_checks": [c.to_json() for c in checks]}
    if kind == "chord":
        return result.to_json()
    if kind == "certificate":
        if result is None:
            return None
        cert, reval = result
        return {**cert.to_json(), "revalidation": reval.to_json()}
    if kind == "local":
        return result.to_json()
    value, attained = result
    return [value.to_string(), attained]


# ---------------------------------------------------------------------------
# Reference answers by direct evaluation.


def _clipped(model: Model, x: Fraction, y: Fraction) -> list[Fraction]:
    return [x] + [b for b in model.breaks if x < b < y] + [y]


def _pieces(model: Model, x: Fraction, y: Fraction):
    """(u, v, f(u), f(mid), f(v)) for every piece clipped to [x, y]; for a
    linear model f(u) and f(v) are the one-sided limits."""
    pos = _clipped(model, x, y)
    return [(u, v, model.value(u), model.value((u + v) / 2), model.value(v)) for u, v in zip(pos, pos[1:])]


def _interior_breaks(model: Model, x: Fraction, y: Fraction) -> list[Fraction]:
    return [b for b in model.breaks if x < b < y]


def _above_spans(model: Model, x, y, thr_at) -> tuple[list, list]:
    """Maximal open intervals of {z in ]x, y[ : f(z) > thr(z)} and the
    interior breakpoints above the threshold; ``thr_at`` is affine."""
    above_points = {b for b in _interior_breaks(model, x, y) if model.value(b) > thr_at(b)}
    spans = []
    for u, v, fu, fm, fv in _pieces(model, x, y):
        if isinstance(model, Constant):
            if fm > thr_at(u):
                spans.append((u, v))
            continue
        du, dv = fu - thr_at(u), fv - thr_at(v)
        if du > 0 and dv > 0:
            spans.append((u, v))
        elif du > 0 or dv > 0:
            root = u + (v - u) * du / (du - dv)
            spans.append((u, root) if du > 0 else (root, v))
    merged = []
    for span in spans:
        if merged and merged[-1][1] == span[0] and span[0] in above_points:
            merged[-1] = (merged[-1][0], span[1])
        else:
            merged.append(span)
    return merged, sorted(above_points)


def _strictly_above_inside(model: Model, u, v, thr) -> bool:
    if any(not model.value(b) > thr for b in _interior_breaks(model, u, v)):
        return False
    for a, b, fa, fm, fb in _pieces(model, u, v):
        if not fm > thr:
            return False
        if isinstance(model, Linear) and not (fa >= thr and fb >= thr):
            return False
    return True


def reference(model: Model, kind: str, args: tuple):
    if kind == "local":
        return _ref_local(model, args[0])
    x, y = args
    thr = max(model.value(x), model.value(y))
    if kind == "witness":
        if any(model.value(b) <= thr for b in _interior_breaks(model, x, y)):
            return True
        for u, v, fu, fm, fv in _pieces(model, x, y):
            if fm <= thr or (isinstance(model, Linear) and min(fu, fv) < thr):
                return True
        return False
    if kind == "violation":
        comps, above = _above_spans(model, x, y, lambda t: thr)
        inside = lambda b: any(u < b < v for u, v in comps)
        isolated = tuple(b for b in above if not inside(b))
        checks = tuple(
            (model.value(u) <= thr and model.value(v) <= thr, _strictly_above_inside(model, u, v, thr))
            for u, v in comps
        )
        return tuple(comps), isolated, checks
    if kind == "chord":
        fx, fy = model.value(x), model.value(y)
        chord = lambda t: fx + (fy - fx) * (t - x) / (y - x)
        comps, _ = _above_spans(model, x, y, chord)
        param = lambda t: (y - t) / (y - x)
        return tuple((param(v), param(u)) for u, v in reversed(comps))
    if kind == "certificate":
        return _ref_certificate(model, x, y, thr)
    lo = kind == "infimum"
    return _ref_extremum(model, x, y, minimize=lo)


def _ref_extremum(model: Model, x, y, *, minimize: bool):
    pick = min if minimize else max
    candidates = [(model.value(b), True) for b in _interior_breaks(model, x, y)]
    for u, v, fu, fm, fv in _pieces(model, x, y):
        if isinstance(model, Constant) or fu == fv:
            candidates.append((fm, True))
        else:
            candidates += [(fu, False), (fv, False)]
    best = pick(c for c, _ in candidates)
    return best, any(c == best and attained for c, attained in candidates)


def _ref_certificate(model: Model, x, y, thr):
    sup, _ = _ref_extremum(model, x, y, minimize=False)
    if not sup > thr:
        return None
    parts = [(b, b) for b in _interior_breaks(model, x, y) if model.value(b) == sup]
    parts += [(u, v) for u, v, fu, fm, fv in _pieces(model, x, y) if fm == sup and (isinstance(model, Constant) or fu == fv)]
    parts.sort()
    merged = []
    for left, right in parts:
        if merged and left <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(right, merged[-1][1]))
        else:
            merged.append((left, right))
    # For an upper semicontinuous model the certificate's checks and its
    # grid revalidation must all pass.
    return (sup, tuple(merged), merged[0][0], merged[-1][1], True, True)


def _ref_local(model: Model, p: Fraction):
    prev_b = max(b for b in model.breaks if b < p)
    next_b = min(b for b in model.breaks if b > p)
    delta = min(p - prev_b, next_b - p)
    fp = model.value(p)
    sides = []
    for lo, hi in ((p - delta, p), (p, p + delta)):
        mid = model.value((lo + hi) / 2)
        if isinstance(model, Constant):
            sides.append((mid, mid, True))
        else:
            a, c = model.value(lo), model.value(hi)
            sides.append((min(a, c), max(a, c), a == c))
    locally_qc = any(inf >= fp for inf, _, _ in sides)
    strictly_qcc = all(sup < fp or (sup == fp and not attained) for _, sup, attained in sides)
    return (locally_qc, strictly_qcc, delta if (locally_qc or strictly_qcc) else None)
