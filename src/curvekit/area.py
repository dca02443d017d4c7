"""Areas of polar sector regions and of intersections of such regions.

A SectorRegion is the set 0 <= r <= f(theta), theta in [a, b], for a
non-negative boundary function; its area is the classical (1/2) integral of
f(theta)^2.  Intersections of two regions reduce to (1/2) integral of
min(f, g)^2 over the overlapping sector, split at the boundary crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import TWO_PI, find_roots, integrate
from .polar import PolarCurve, Piece, sign_change_sample

# A sector may be wider than a full turn by this much: a piece's interval
# ends are zeros refined to DEFAULT_TOL, so one turn measures 2*pi to about it
SECTOR_WIDTH_SLACK = 1e-9
# An overlap window, or a stretch between crossings, narrower than this holds
# at most f^2/2 times it of area, far below the quadrature's DEFAULT_TOL: it
# is skipped, and a crossing this close to a window end is that end
OVERLAP_GAP = 1e-12


@dataclass(frozen=True)
class SectorRegion:
    """Region 0 <= r <= f(theta) over an angular interval of width <= 2*pi."""

    boundary: PolarCurve
    interval: tuple[float, float]

    def __post_init__(self):
        # frozen: store any pair as a tuple, which the canonical order compares
        object.__setattr__(self, "interval", tuple(self.interval))
        a, b = self.interval
        if not a < b:
            raise ValueError("empty sector interval")
        if b - a > TWO_PI + SECTOR_WIDTH_SLACK:
            raise ValueError("sector interval wider than a full turn")
        if sign_change_sample(self.boundary, self.interval) is not None:
            raise ValueError("boundary must be non-negative on the interval")

    @classmethod
    def from_piece(cls, piece: Piece) -> "SectorRegion":
        return cls(piece.curve, piece.interval)


def loop_area(region: SectorRegion) -> float:
    """(1/2) integral of f^2 over the sector."""
    f = region.boundary.eval_many
    return 0.5 * integrate(lambda th: f(th) ** 2, *region.interval)


def _overlap_windows(a: tuple[float, float], b: tuple[float, float]):
    """Overlaps of interval a with all 2*pi-translates of interval b.

    Yields (lo, hi, shift) with [lo, hi] inside a and [lo-shift, hi-shift]
    inside b.
    """
    (a0, a1), (b0, b1) = a, b
    k_lo = math.floor((a0 - b1) / TWO_PI)
    k_hi = math.ceil((a1 - b0) / TWO_PI)
    for k in range(k_lo, k_hi + 1):
        lo = max(a0, b0 + k * TWO_PI)
        hi = min(a1, b1 + k * TWO_PI)
        if hi - lo > OVERLAP_GAP:
            yield lo, hi, k * TWO_PI


def region_intersection_area(a: SectorRegion, b: SectorRegion) -> float:
    """Area of the common part of two sector regions (0 when disjoint)."""
    # no windows in the canonical order below, which sorts by interval first
    if not any(_overlap_windows(*sorted((a.interval, b.interval)))):
        return 0.0
    # canonical argument order makes the result exactly symmetric
    key = lambda reg: (reg.interval, reg.boundary.text, tuple(sorted(reg.boundary.params.items())))
    if key(b) < key(a):
        a, b = b, a

    fa = a.boundary.eval_many
    fb = b.boundary.eval_many
    total = 0.0
    for lo, hi, shift in _overlap_windows(a.interval, b.interval):
        def diff(th, _s=shift):
            return fa(th) - fb(th - _s)

        def integrand(th, _s=shift):
            return np.minimum(fa(th), fb(th - _s)) ** 2

        roots = find_roots(diff, lo, hi)
        cuts = [lo] + [t for t in roots if lo + OVERLAP_GAP < t < hi - OVERLAP_GAP] + [hi]
        for p, q in zip(cuts[:-1], cuts[1:]):
            if q - p < OVERLAP_GAP:
                continue
            total += 0.5 * integrate(integrand, p, q)
    return total


def rose_intersection_area(n_petals: int) -> float:
    """Full common area of the roses r = sin(N*theta) and r = cos(N*theta).

    One wedge of common area is computed on [0, pi/(2N)] and scaled by the
    number of congruent overlap wedges of width pi/(2N): N when N is odd
    (each rose has N petals and the two overlap only where both are
    positive), 4N when N is even (each rose has 2N petals covering every
    direction, so the wedges fill the circle).  The result is pi/8 - 1/4
    for odd N and pi/2 - 1 = (1/2) int_0^{2pi} min(sin^2 Nt, cos^2 Nt) dt
    for even N, the same as the pairwise sum over the decomposed pieces.
    """
    if n_petals < 1:
        raise ValueError("N must be a positive integer")
    n = int(n_petals)
    sin_region = SectorRegion(
        PolarCurve(f"sin({n}*theta)"), (0.0, math.pi / n)
    )
    cos_region = SectorRegion(
        PolarCurve(f"cos({n}*theta)"), (-math.pi / (2 * n), math.pi / (2 * n))
    )
    sector = region_intersection_area(sin_region, cos_region)
    return sector * (n if n % 2 else 4 * n)


@dataclass(frozen=True)
class LimaconAnalysis:
    """Loop geometry of r = 1 - lam*sin(theta) and r = 1 + lam*cos(theta)."""

    lam: float
    theta0: float  # arcsin(1/lam): zero of the first limacon
    phi0: float    # arccos(-1/lam): zero of the second; phi0 = pi/2 + theta0
    large_loop: SectorRegion  # large loop of r = 1 - lam*sin(theta)
    small_loop: SectorRegion  # small loop of r = 1 + lam*cos(theta)
    contained: bool           # small loop entirely inside the large loop
    theta1: float | None      # boundary-crossing angle when not contained


def limacon_analysis(lam: float) -> LimaconAnalysis:
    """Loop regions and containment for shape parameter lam > 1.

    The large loop of r = 1 - lam*sin(theta) runs over
    [pi - theta0, theta0 + 2*pi]; the small loop of r = 1 + lam*cos(theta),
    rewritten with the non-negative boundary lam*cos(theta) - 1, runs over
    [theta0 + 3*pi/2, 5*pi/2 - theta0].  The small loop lies entirely inside
    the large loop iff theta0 >= pi/4 (lam <= sqrt(2)); otherwise the two
    boundaries cross at theta1 = arcsin(1/lam - sqrt(1/2 - 1/lam^2)).
    """
    lam = float(lam)
    if not lam > 1.0:
        raise ValueError("limacon shape parameter must exceed 1")
    theta0 = math.asin(1.0 / lam)
    phi0 = math.acos(-1.0 / lam)
    large = SectorRegion(
        PolarCurve("1 - lambda*sin(theta)", {"lambda": lam}),
        (math.pi - theta0, theta0 + TWO_PI),
    )
    small = SectorRegion(
        PolarCurve("lambda*cos(theta) - 1", {"lambda": lam}),
        (theta0 + 1.5 * math.pi, 2.5 * math.pi - theta0),
    )
    contained = theta0 >= math.pi / 4.0
    theta1 = None
    if not contained:
        theta1 = math.asin(1.0 / lam - math.sqrt(0.5 - 1.0 / lam**2))
    return LimaconAnalysis(lam, theta0, phi0, large, small, contained, theta1)


def limacon_common_area(lam: float) -> float:
    """Area inside both the large loop and the small loop."""
    analysis = limacon_analysis(lam)
    if analysis.contained:
        return loop_area(analysis.small_loop)
    return region_intersection_area(analysis.large_loop, analysis.small_loop)
