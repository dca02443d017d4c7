"""Polar points and curves: canonical coordinates, the complex equality rule,
periods, symmetry tests, and decomposition into non-negative pieces.

A polar curve r = f(theta) is identified with the set of complex points
f(theta) * e^(i*theta).  Two polar coordinate pairs name the same plane point
exactly when they agree after canonicalization (r >= 0, theta in [0, 2*pi)),
the origin being the single point with no well-defined angle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .numerics import POLE_MAGNITUDE, find_roots, symmetric_hausdorff

TWO_PI = 2.0 * math.pi

# Equality-rule sweeps: samples, and agreement relative to max(1, |f|).
RULE_SAMPLES = 512
RULE_TOL = 1e-9
PIECE_SAMPLES = 256
PIECE_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class PolarPoint:
    r: float
    theta: float

    def canonical(self) -> "PolarPoint":
        r, theta = self.r, self.theta
        if r < 0.0:
            r, theta = -r, theta + math.pi
        if r == 0.0:
            return PolarPoint(0.0, 0.0)
        theta = math.fmod(theta, TWO_PI)
        if theta < 0.0:
            theta += TWO_PI
        return PolarPoint(r, theta)

    def to_complex(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)


def to_complex(p: PolarPoint) -> complex:
    return p.to_complex()


def points_equal(p: PolarPoint, q: PolarPoint, tol: float = 1e-9) -> bool:
    """True when the two coordinate pairs name the same plane point."""
    return abs(p.to_complex() - q.to_complex()) < tol


class PolarCurve:
    """r = f(theta) with bound parameters, a domain, and cached metadata."""

    def __init__(self, radius, params=None, domain=(0.0, TWO_PI), text=None):
        if isinstance(radius, str):
            if text is None:
                text = radius
            radius = _expr.parse(radius)
        self.radius = radius
        self.params = dict(params or {})
        unbound = _expr.free_parameters(radius) - set(self.params)
        if unbound:
            raise _expr.EvalError(f"unbound parameters: {sorted(unbound)}")
        a, b = float(domain[0]), float(domain[1])
        if not a < b:
            raise ValueError("domain must be a non-empty interval")
        self.domain = (a, b)
        self.text = text if text is not None else _expr.to_string(radius)
        self._program = None
        self._period = None  # smallest multiple found so far
        self._period_searched = 0  # highest multiple exhaustively scanned

    def __repr__(self):
        return f"PolarCurve({self.text!r}, domain={self.domain})"

    @property
    def program(self) -> _expr.Program:
        if self._program is None:
            self._program = _expr.compile_program(self.radius, self.params)
        return self._program

    def eval(self, theta: float) -> float:
        return _expr.evaluate(self.radius, theta, self.params)

    def eval_many(self, thetas) -> np.ndarray:
        return self.program(np.asarray(thetas, dtype=float))

    def point(self, theta: float) -> complex:
        return self.eval(theta) * cmath.exp(1j * theta)

    def points_many(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        return self.eval_many(thetas) * np.exp(1j * thetas)

    def shifted(self, delta: float) -> "PolarCurve":
        """Curve g with g(theta) = f(theta - delta) (graph rotated by delta)."""
        shifted_ast = _expr.substitute_var(
            self.radius, _expr.sub(_expr.Var(), _expr.Const(float(delta)))
        )
        return PolarCurve(
            shifted_ast,
            self.params,
            (self.domain[0] + delta, self.domain[1] + delta),
        )

    def period_multiple_of_pi(self, max_multiple: int = 64) -> int | None:
        """Smallest N <= max_multiple with f(theta) = (-1)^N f(theta + N*pi)
        by `_rule_misses` on [0, N*pi): the polar graph repeats after N*pi."""
        if self._period is not None:
            return self._period if self._period <= max_multiple else None
        if self._period_searched >= max_multiple:
            return None
        for n in range(self._period_searched + 1, max_multiple + 1):
            thetas = np.linspace(0.0, n * math.pi, RULE_SAMPLES, endpoint=False)
            missed = _rule_misses(self, thetas, thetas, (n,))
            self._period_searched = n
            if not missed.any():
                self._period = n
                return n
        return None

    def period_window(self, max_multiple: int = 64) -> tuple[float, float]:
        n = self.period_multiple_of_pi(max_multiple)
        if n is None:
            raise ValueError(f"curve {self.text!r} has no period <= {max_multiple}*pi")
        return (0.0, n * math.pi)


def polar_period(curve: PolarCurve, max_multiple: int = 64) -> int | None:
    return curve.period_multiple_of_pi(max_multiple)


def _rule_misses(curve: PolarCurve, thetas, base, ns) -> np.ndarray:
    """Mask of the samples where f(theta) = (-1)^n f(base + n*pi) fails for
    every n in ns (the equality rule), searched until all match.  Poles
    (|f| >= POLE_MAGNITUDE either side) are left out, the rest must agree to
    RULE_TOL * max(1, |f(theta)|), and NaN raises EvalError naming its angle."""

    def defined(angles):
        values = curve.eval_many(angles)
        if np.isnan(values).any():
            theta = angles[np.isnan(values)][0]
            raise _expr.EvalError(f"curve is undefined at theta = {theta:.12g}")
        return values

    lhs = defined(thetas)
    missed = np.abs(lhs) < POLE_MAGNITUDE
    if not missed.any():
        raise _expr.EvalError("curve is at a pole at every sample of the rule check")
    tol = RULE_TOL * np.maximum(1.0, np.abs(lhs))
    for n in ns:
        rhs = defined(base + n * math.pi)
        if n % 2 == 1:
            rhs = -rhs
        with np.errstate(invalid="ignore"):  # inf - inf on poles, left out
            missed &= (np.abs(rhs) < POLE_MAGNITUDE) & ~(np.abs(lhs - rhs) < tol)
        if not missed.any():
            break
    return missed


def _holds_for_some_n(curve: PolarCurve, max_n: int | None, reflect: bool,
                      theta0: float) -> bool:
    n_period = curve.period_multiple_of_pi()
    if n_period is None and max_n is None:
        raise ValueError("symmetry test needs a periodic curve or an explicit max_n")
    if max_n is None:
        max_n = 2 * n_period
    window = n_period * math.pi if n_period is not None else TWO_PI
    thetas = np.linspace(0.0, window, RULE_SAMPLES, endpoint=False)
    base = (2.0 * theta0 - thetas) if reflect else (thetas + theta0)
    return not _rule_misses(curve, thetas, base, range(max_n + 1)).any()


def is_rotation_symmetric(curve: PolarCurve, theta0: float,
                          max_n: int | None = None) -> bool:
    """Does rotating the graph by theta0 map it onto itself?

    Implements the pointwise criterion: for every sampled theta there must be
    an integer n (allowed to vary with theta) with
    f(theta) = (-1)^n f(theta + theta0 + n*pi).
    """
    return _holds_for_some_n(curve, max_n, reflect=False, theta0=theta0)


def is_reflection_symmetric(curve: PolarCurve, theta0: float,
                            max_n: int | None = None) -> bool:
    """Reflection through the line theta = theta0, same n-search as rotation:
    f(theta) = (-1)^n f(2*theta0 - theta + n*pi) for some n per sample."""
    return _holds_for_some_n(curve, max_n, reflect=True, theta0=theta0)


@dataclass(frozen=True)
class Piece:
    """A non-negative stretch of a curve: r = g(theta) >= 0 on [a, b]."""

    curve: PolarCurve
    interval: tuple[float, float]
    traced_twice: bool

    def sample_points(self, n: int = PIECE_SAMPLES) -> np.ndarray:
        thetas = np.linspace(self.interval[0], self.interval[1], n)
        return self.curve.points_many(thetas)


@dataclass(frozen=True)
class PiecewiseDecomposition:
    pieces: tuple[Piece, ...]

    def __len__(self):
        return len(self.pieces)

    def __iter__(self):
        return iter(self.pieces)

    def __getitem__(self, i):
        return self.pieces[i]


def _transformed_negative(curve: PolarCurve, lo: float, hi: float) -> tuple[PolarCurve, float, float]:
    # On a stretch where f <= 0 the same plane points are g(phi) e^(i phi)
    # with g(phi) = -f(phi - pi) on [lo + pi, hi + pi].  If that window would
    # start at or beyond 2*pi, take the equivalent branch one turn earlier:
    # g(phi) = -f(phi + pi) on [lo - pi, hi - pi].
    if lo + math.pi >= TWO_PI - 1e-9:
        shift = _expr.add(_expr.Var(), _expr.Const(math.pi))
        lo2, hi2 = lo - math.pi, hi - math.pi
    else:
        shift = _expr.sub(_expr.Var(), _expr.Const(math.pi))
        lo2, hi2 = lo + math.pi, hi + math.pi
    g = _expr.neg(_expr.substitute_var(curve.radius, shift))
    return PolarCurve(g, curve.params, (lo2, hi2)), lo2, hi2


def positive_pieces(curve: PolarCurve) -> PiecewiseDecomposition:
    """Rewrite the curve over its domain as non-negative pieces.

    Stretches where f is negative are re-expressed through the half-turn
    identity; pieces whose point set duplicates an earlier piece (the curve
    is traced again) are flagged traced_twice.
    """
    a, b = curve.domain
    probe = np.linspace(a, b, 2048)
    vals = curve.eval_many(probe)
    if not np.all(np.isfinite(vals)):
        raise _expr.EvalError("curve evaluation failed on its domain")
    if np.max(np.abs(vals)) < 1e-12:
        # identically zero: the graph is the origin
        piece = Piece(curve, (a, b), traced_twice=False)
        return PiecewiseDecomposition((piece,))

    zeros = list(find_roots(curve.eval_many, a, b))
    cuts = [a] + [z for z in zeros if a + 1e-12 < z < b - 1e-12] + [b]

    raw: list[tuple[float, float, int]] = []  # (lo, hi, sign)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-9:
            continue
        mid_vals = curve.eval_many(np.linspace(lo, hi, 17)[1:-1])
        sign = 1 if float(np.median(mid_vals)) >= 0.0 else -1
        if raw and raw[-1][2] == sign:
            raw[-1] = (raw[-1][0], hi, sign)
        else:
            raw.append((lo, hi, sign))

    # When the domain wraps periodically (f(a+d) == f(b+d)) and the two ends
    # carry the same sign, the last stretch continues into the first one.
    if len(raw) > 1 and raw[0][2] == raw[-1][2]:
        probes = np.array([0.0, 0.0137, 0.031])
        wrap_ok = bool(
            np.max(np.abs(curve.eval_many(a + probes) - curve.eval_many(b + probes)))
            < 1e-9
        )
        near_a = abs(raw[0][0] - a) < 1e-9
        near_b = abs(raw[-1][1] - b) < 1e-9
        if wrap_ok and near_a and near_b:
            first = raw.pop(0)
            last = raw.pop()
            raw.append((last[0], first[1] + (b - a), last[2]))

    pieces: list[Piece] = []
    for lo, hi, sign in raw:
        if sign >= 0:
            piece_curve = PolarCurve(curve.radius, curve.params, (lo, hi), text=curve.text)
            interval = (lo, hi)
        else:
            piece_curve, lo2, hi2 = _transformed_negative(curve, lo, hi)
            interval = (lo2, hi2)
        samples = np.linspace(interval[0], interval[1], 1024)
        if float(np.min(piece_curve.eval_many(samples))) < -1e-9:
            raise ValueError("piece is not non-negative; zero isolation failed")
        pieces.append(Piece(piece_curve, interval, traced_twice=False))

    pieces.sort(key=lambda p: p.interval)
    flagged: list[Piece] = []
    earlier_points: list[np.ndarray] = []
    for piece in pieces:
        pts = piece.sample_points()
        duplicate = any(
            symmetric_hausdorff(pts, earlier) < PIECE_MATCH_TOL for earlier in earlier_points
        )
        if duplicate:
            piece = Piece(piece.curve, piece.interval, traced_twice=True)
        flagged.append(piece)
        earlier_points.append(pts)
    return PiecewiseDecomposition(tuple(flagged))
