"""Named fixture functions and seeded random generators.

These cover the shapes the analyses care about: a strict interior peak
(tent), a valley (vee), a ramp into a plateau (the one-sided strictness
probe), monotone and monotone-concave ramps, constants, and the Cantor
approximant indicators.  Every generator is deterministic for fixed
parameters.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import as_rational
from .errors import ParameterRangeError
from .functions import Function1D, PiecewiseConstant, PiecewiseLinear, generate_cantor

_POSITION_GRAIN = 2520  # positions of random knots live on this grid
_VALUE_GRAIN = 16  # values are multiples of 1/16 in [0, 10]


def tent() -> PiecewiseLinear:
    """Peak at 1/2: strictly above both endpoint values inside ]0, 1[."""
    return PiecewiseLinear(((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0))))


def vee() -> PiecewiseLinear:
    """Valley at 1/2: quasiconvex."""
    return PiecewiseLinear(((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(1))))


def ramp_plateau() -> PiecewiseLinear:
    """Rise to 1/2 then stay flat: quasiconvex, yet the point 1/2 is a
    local maximum strict from the left."""
    return PiecewiseLinear(
        ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)))
    )


def monotone() -> PiecewiseLinear:
    """Strictly increasing ramp: empty violation set for every pair."""
    return PiecewiseLinear(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))


def monotone_concave() -> PiecewiseLinear:
    """Increasing but concave: still no quasiconvexity violations, yet
    strictly above its chords inside."""
    return PiecewiseLinear(
        ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(3, 4)), (Fraction(1), Fraction(1)))
    )


def constant(value=Fraction(3)) -> PiecewiseLinear:
    return PiecewiseLinear(((Fraction(0), as_rational(value)), (Fraction(1), as_rational(value))))


def cantor_indicator(depth: int, mode: str) -> PiecewiseConstant:
    return generate_cantor(depth, mode)


def random_piecewise_linear(knot_count: int, seed: int) -> PiecewiseLinear:
    """Deterministic random piecewise-linear function on [0, 1] with the
    given knot count and rational values in [0, 10].

    Values land on a coarse 1/16 grid so ties (plateaus) occur with
    realistic frequency.  The knots lie on a grid of
    ``_POSITION_GRAIN + 1`` positions, so that is the largest knot count.
    """
    if not 2 <= knot_count <= _POSITION_GRAIN + 1:
        raise ParameterRangeError(
            f"knot count must be in [2, {_POSITION_GRAIN + 1}], got {knot_count}"
        )
    rng = random.Random(seed)
    inner = sorted(rng.sample(range(1, _POSITION_GRAIN), knot_count - 2))
    positions = [Fraction(0)] + [Fraction(i, _POSITION_GRAIN) for i in inner] + [Fraction(1)]
    values = [
        Fraction(rng.randint(0, 10 * _VALUE_GRAIN), _VALUE_GRAIN)
        for _ in range(knot_count)
    ]
    return PiecewiseLinear(tuple(zip(positions, values)))


def random_corpus(count: int, *, base_seed: int = 20240901, max_knots: int = 8) -> list[PiecewiseLinear]:
    """The seeded differential-testing corpus: ``count`` random functions
    with between 3 and ``max_knots`` knots."""
    out = []
    for i in range(count):
        knots = 3 + (i % (max_knots - 2))
        out.append(random_piecewise_linear(knots, base_seed + i))
    return out


_NAMED = {
    "tent": tent,
    "vee": vee,
    "ramp-plateau": ramp_plateau,
    "monotone": monotone,
    "monotone-concave": monotone_concave,
    "constant": constant,
}


def corpus_names() -> list[str]:
    return sorted(_NAMED) + ["cantor", "random-pl"]


def corpus_function(name: str, **params) -> Function1D:
    """Build a corpus function by name.

    ``cantor`` takes ``depth`` and ``mode``; ``random-pl`` takes
    ``knots`` and ``seed``; the fixed fixtures take no parameters.
    """
    if name == "cantor":
        return cantor_indicator(params["depth"], params["mode"])
    if name == "random-pl":
        return random_piecewise_linear(params["knots"], params["seed"])
    try:
        builder = _NAMED[name]
    except KeyError:
        raise ParameterRangeError(
            f"unknown corpus name {name!r}; known: {', '.join(corpus_names())}"
        ) from None
    return builder()


def usc_corpus() -> list[tuple[str, Function1D]]:
    """Upper-semicontinuous fixtures used by the one-directional
    local-maxima property checks."""
    entries: list[tuple[str, Function1D]] = [
        (name, builder()) for name, builder in sorted(_NAMED.items())
    ]
    for depth in (1, 2, 3, 4):
        entries.append((f"cantor-set-{depth}", cantor_indicator(depth, "set")))
    return entries
