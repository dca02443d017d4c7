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

from .numerics import find_roots, integrate
from .polar import PolarCurve, Piece

TWO_PI = 2.0 * math.pi
_AREA_TOL = 1e-10
_BOUNDARY_SLACK = 1e-9


@dataclass(frozen=True)
class SectorRegion:
    """Region 0 <= r <= f(theta) over an angular interval of width <= 2*pi."""

    boundary: PolarCurve
    interval: tuple[float, float]

    def __post_init__(self):
        a, b = self.interval
        if not a < b:
            raise ValueError("empty sector interval")
        if b - a > TWO_PI + 1e-9:
            raise ValueError("sector interval wider than a full turn")
        samples = np.linspace(a, b, 1024)
        if float(np.min(self.boundary.eval_many(samples))) < -_BOUNDARY_SLACK:
            raise ValueError("boundary must be non-negative on the interval")

    @classmethod
    def from_piece(cls, piece: Piece) -> "SectorRegion":
        return cls(piece.curve, piece.interval)

    def max_radius(self) -> float:
        samples = np.linspace(self.interval[0], self.interval[1], 1024)
        return float(np.max(self.boundary.eval_many(samples)))

    def contains(self, z) -> np.ndarray:
        """Vectorized membership test for complex plane points."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        theta = np.mod(np.angle(z), TWO_PI)
        a, b = self.interval
        inside = np.zeros(z.shape, dtype=bool)
        k_lo = math.floor((a - theta.max() if z.size else a) / TWO_PI)
        k_hi = math.ceil((b - (theta.min() if z.size else 0.0)) / TWO_PI)
        for k in range(k_lo, k_hi + 1):
            mapped = theta + k * TWO_PI
            mask = (mapped >= a) & (mapped <= b)
            if not mask.any():
                continue
            vals = self.boundary.eval_many(mapped[mask])
            sub = inside[mask]
            sub |= r[mask] <= vals + 1e-12
            inside[mask] = sub
        return inside


def loop_area(region: SectorRegion) -> float:
    """(1/2) integral of f^2 over the sector."""
    f = region.boundary.eval_many
    return 0.5 * integrate(lambda th: f(th) ** 2, *region.interval, _AREA_TOL)


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
        if hi - lo > 1e-12:
            yield lo, hi, k * TWO_PI


def region_intersection_area(a: SectorRegion, b: SectorRegion) -> float:
    """Area of the common part of two sector regions (0 when disjoint)."""
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

        cuts = [lo] + [t for t in find_roots(diff, lo, hi) if lo + 1e-12 < t < hi - 1e-12] + [hi]
        for p, q in zip(cuts[:-1], cuts[1:]):
            if q - p < 1e-12:
                continue
            total += 0.5 * integrate(integrand, p, q, _AREA_TOL)
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
