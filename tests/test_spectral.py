"""The spectral oracle: random trigonometric polynomials with integer
frequencies, whose intersection points, loop areas and periods follow from
their coefficients alone (see `oracles.TrigPolynomial`)."""

import math

import numpy as np
import pytest

from curvekit.area import SectorRegion, loop_area
from curvekit.intersect import intersections
from curvekit.polar import PolarCurve, positive_pieces
from oracles import TrigPolynomial, spectral_intersections

SEED = 20261022
PAIRS = 60


def spectral_pairs(seed: int, count: int) -> list[tuple[TrigPolynomial, TrigPolynomial]]:
    """count pairs of curves of degree 1..29 with coefficients drawn from
    [-1, 1] and rounded to 3 digits; about a third of the curves have a0 = 0
    and odd frequencies only, so period pi.  A pair with a near-double root,
    on which the oracle's |z| = 1 test is ill-conditioned, is left out."""
    rng = np.random.default_rng(seed)

    def draw():
        degree = int(rng.integers(1, 30))
        odd = rng.random() < 1 / 3
        a0 = 0.0 if odd else round(float(rng.uniform(-1.0, 1.0)), 3)
        a, b = (np.round(rng.uniform(-1.0, 1.0, degree), 3) for _ in range(2))
        if odd:
            a[1::2] = b[1::2] = 0.0
        return TrigPolynomial(a0, tuple(a.tolist()), tuple(b.tolist()))

    pairs = []
    while len(pairs) < count:
        f, g = draw(), draw()
        if spectral_intersections(f, g) is not None:
            pairs.append((f, g))
    return pairs


DRAWN = spectral_pairs(SEED, PAIRS)
CURVES = [curve for pair in DRAWN for curve in pair]

# Two roots of one family 8.9e-4 apart, inside one root-grid cell (ROADMAP
# item 10): the oracle finds 2 points, `intersections` reports 1.
GRID_CELL_MISS = (TrigPolynomial(2.0, (), ()),
                  TrigPolynomial(1 + 1e-7, (math.cos(1.0007),), (math.sin(1.0007),)))


def assert_same_points(got, expected):
    assert len(got) == len(expected)
    for point in got:
        assert np.min(np.abs(expected - point)) < 1e-5


@pytest.mark.parametrize("f, g", DRAWN, ids=[f"pair{i}" for i in range(PAIRS)])
def test_intersections_are_the_spectral_roots(f, g):
    expected = spectral_intersections(f, g)
    result = intersections(PolarCurve(f.text), PolarCurve(g.text))
    assert_same_points([p.point for p in result.points], expected)


@pytest.mark.xfail(strict=True, reason="roots closer than a root-grid cell (ROADMAP item 10)")
def test_roots_in_one_grid_cell_are_both_found():
    f, g = GRID_CELL_MISS
    expected = spectral_intersections(f, g)
    assert len(expected) == 2
    result = intersections(PolarCurve("2"), PolarCurve("1 + 1e-7 + cos(theta - 1.0007)"))
    assert_same_points([p.point for p in result.points], expected)


@pytest.mark.parametrize("f", CURVES, ids=[f"curve{i}" for i in range(2 * PAIRS)])
def test_period_and_loop_areas_follow_the_coefficients(f):
    # f(theta + pi) = -f(theta) exactly when a0 = 0 and every frequency is odd
    odd = f.a0 == 0.0 and not any(f.a[1::2]) and not any(f.b[1::2])
    assert PolarCurve(f.text).period_multiple_of_pi() == (1 if odd else 2)
    # Parseval: (1/2) integral of r^2 over a full turn
    pieces = positive_pieces(PolarCurve(f.text, {}, (0.0, 2 * math.pi)))
    area = sum(loop_area(SectorRegion.from_piece(piece)) for piece in pieces)
    parseval = math.pi * (f.a0 ** 2 + 0.5 * sum(c * c for c in f.a + f.b))
    assert area == pytest.approx(parseval, rel=1e-9)
