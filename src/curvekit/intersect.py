"""Intersection points of two polar curves.

Nonzero common points of r = f(theta) and r = g(theta) satisfy, by the
equality rule, one of the scalar equation families

    f(theta) = (-1)^m g(theta + m*pi)     (same ray for even m, opposite for odd)

with theta swept over a window long enough to trace both graphs and m over
the distinct pi-offsets of the second curve's period.  The origin carries
no angle and is tested separately: it is common exactly when each radius
function vanishes somewhere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import POLE_MAGNITUDE, find_roots, symmetric_hausdorff
from .polar import PolarCurve

ZERO_RADIUS_TOL = 1e-9
DEDUPE_TOL = 1e-8
IDENTICAL_GRAPH_TOL = 1e-6
_GRAPH_SAMPLES = 1024


class IdenticalCurvesError(ValueError):
    """Both expressions trace the same graph; every point is common."""


@dataclass(frozen=True)
class IntersectionPoint:
    point: complex
    theta1: float  # witness angle on the first curve
    theta2: float  # witness angle on the second curve
    residual: float


@dataclass(frozen=True)
class IntersectionResult:
    origin: bool
    origin_witnesses: tuple[float, float] | None
    points: tuple[IntersectionPoint, ...]

    def count_nonzero(self) -> int:
        return len(self.points)

    def all_points(self) -> list[complex]:
        pts = [p.point for p in self.points]
        if self.origin:
            pts.append(0j)
        return pts


def graph_points(curve: PolarCurve, samples: int = _GRAPH_SAMPLES) -> np.ndarray:
    """Dense sample of the full polar graph (over one period window),
    without the samples that fall on a pole."""
    a, b = curve.period_window()
    thetas = np.linspace(a, b, samples, endpoint=False)
    with np.errstate(invalid="ignore"):
        points = curve.points_many(thetas)
    return points[np.isfinite(points)]


def origin_on_curve(curve: PolarCurve, window: tuple[float, float] | None = None) -> float | None:
    """Smallest angle in the window where the radius vanishes, if any."""
    if window is None:
        n = curve.period_multiple_of_pi()
        window = (0.0, n * math.pi) if n is not None else curve.domain
    roots = find_roots(curve.eval_many, window[0], window[1])
    for theta, residual in zip(roots.roots, roots.residuals):
        if residual < ZERO_RADIUS_TOL:
            return float(theta)
    return None


def intersections(c1: PolarCurve, c2: PolarCurve) -> IntersectionResult:
    """All intersection points of two distinct polar curves.

    Raises IdenticalCurvesError when the sampled graphs coincide, and
    ValueError when either curve has no finite polar period.
    """
    n1 = c1.period_multiple_of_pi()
    n2 = c2.period_multiple_of_pi()
    if n1 is None or n2 is None:
        raise ValueError("both curves need a finite polar period")

    g1 = graph_points(c1)
    g2 = graph_points(c2)
    if symmetric_hausdorff(g1, g2) < IDENTICAL_GRAPH_TOL:
        raise IdenticalCurvesError(
            f"curves {c1.text!r} and {c2.text!r} trace the same graph"
        )

    window = math.pi * math.lcm(n1, n2, 2)
    candidates: list[IntersectionPoint] = []
    for m in range(2 * ((n2 + 1) // 2)):
        shift = m * math.pi

        def equation(th):
            with np.errstate(invalid="ignore"):  # inf - inf at common poles
                return c1.eval_many(th) - (-1.0) ** m * c2.eval_many(th + shift)

        theta1 = np.array(find_roots(equation, 0.0, window, right_open=True).roots)
        r1 = c1.eval_many(theta1)
        # the origin is tested apart, and a root on a pole of c1 is no point
        keep = (np.abs(r1) >= ZERO_RADIUS_TOL) & (np.abs(r1) < POLE_MAGNITUDE)
        theta1, r1 = theta1[keep], r1[keep]
        theta2 = theta1 + shift
        points = r1 * np.exp(1j * theta1)
        residuals = np.abs(c2.points_many(theta2) - points)
        candidates.extend(map(IntersectionPoint, points.tolist(), theta1.tolist(),
                              theta2.tolist(), residuals.tolist()))

    # Points are ordered by angle and radius; each group of near-duplicates
    # is represented by its member with the smallest witness angles, so the
    # witnesses do not follow rounding noise in the point coordinates.
    candidates.sort(key=lambda p: (round(cmath.phase(p.point) % (2 * math.pi), 9), abs(p.point)))
    anchors: list[complex] = []
    unique: list[IntersectionPoint] = []
    for cand in candidates:
        for j, anchor in enumerate(anchors):
            if abs(cand.point - anchor) < DEDUPE_TOL:
                if (cand.theta1, cand.theta2) < (unique[j].theta1, unique[j].theta2):
                    unique[j] = cand
                break
        else:
            anchors.append(cand.point)
            unique.append(cand)

    theta_f = origin_on_curve(c1)
    theta_g = origin_on_curve(c2)
    has_origin = theta_f is not None and theta_g is not None
    return IntersectionResult(
        origin=has_origin,
        origin_witnesses=(theta_f, theta_g) if has_origin else None,
        points=tuple(unique),
    )


def count_nonzero_intersections(c1: PolarCurve, c2: PolarCurve) -> int:
    """Number of common points other than the origin."""
    return intersections(c1, c2).count_nonzero()
