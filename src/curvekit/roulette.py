"""Circle rolling without slipping along a regular parameterized curve.

With alpha(t) the base curve (as a complex-valued function), u = alpha'/|alpha'|
the unit tangent and theta(t) = arclength(t0, t)/r the rolled angle, the traced
contact point is

    side "normal":      c_t = alpha + i*u*r,  P = c_t - i*u*r*exp(-i*theta)
    side "antinormal":  c_t = alpha - i*u*r,  P = c_t + i*u*r*exp(+i*theta)

i.e. the circle sits on the side of the principal normal i*alpha' or on the
opposite side.  The reverse configuration negates theta(t).  A trochoid point
rides on the ray from the center through P: Q = P + k*(P - c_t).

Specialized to a line and to a circle these equations reproduce the cycloid,
epicycloid and hypocycloid, which are provided in closed form as well.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .numerics import G7_NODES, G7_WEIGHTS, integrate

REGULARITY_TOL = 1e-9


class RegularityError(ValueError):
    """The tangent vector vanishes somewhere on the parameter domain."""


def _check_regular(speeds, where: str) -> None:
    """Raise RegularityError unless every speed is finite and above
    REGULARITY_TOL; `where` ends the message ("on the domain", ...)."""
    if not np.all(np.isfinite(speeds)):
        raise RegularityError(f"tangent vector is not finite {where}")
    if float(np.min(speeds)) <= REGULARITY_TOL:
        raise RegularityError(f"tangent vector vanishes {where}")


class ParamCurve:
    """Regular plane curve t -> (x(t), y(t)) with symbolic derivatives."""

    def __init__(self, x, y, params=None, domain=(0.0, 2.0 * math.pi),
                 dx=None, dy=None):
        self.x = _expr.parse(x) if isinstance(x, str) else x
        self.y = _expr.parse(y) if isinstance(y, str) else y
        self.params = dict(params or {})
        unbound = (_expr.free_parameters(self.x) | _expr.free_parameters(self.y)) - set(self.params)
        if unbound:
            raise _expr.EvalError(f"unbound parameters: {sorted(unbound)}")
        a, b = float(domain[0]), float(domain[1])
        if not a < b:
            raise ValueError("domain must be a non-empty interval")
        self.domain = (a, b)
        self.dx = dx if dx is not None else _expr.differentiate(self.x)
        self.dy = dy if dy is not None else _expr.differentiate(self.y)
        self._programs = {}
        _check_regular(self.speed_many(np.linspace(a, b, 1024)), "on the domain")

    def program(self, *names: str) -> _expr.Program:
        """One program for the named expressions among x, y, dx, dy, built
        on first use; their common subexpressions are evaluated once."""
        program = self._programs.get(names)
        if program is None:
            nodes = [getattr(self, name) for name in names]
            program = self._programs[names] = _expr.compile_program(nodes, self.params)
        return program

    def point(self, t: float) -> complex:
        return complex(
            _expr.evaluate(self.x, t, self.params),
            _expr.evaluate(self.y, t, self.params),
        )

    def velocity(self, t: float) -> complex:
        return complex(
            _expr.evaluate(self.dx, t, self.params),
            _expr.evaluate(self.dy, t, self.params),
        )

    def speed(self, t: float) -> float:
        return abs(self.velocity(t))

    def points_many(self, ts) -> np.ndarray:
        x, y = self.program("x", "y")(ts)
        return x + 1j * y

    def velocity_many(self, ts) -> np.ndarray:
        dx, dy = self.program("dx", "dy")(ts)
        return dx + 1j * dy

    def speed_many(self, ts) -> np.ndarray:
        """|alpha'(t)|, as np.abs(velocity_many(ts)) gives it wherever that
        is finite, from a complex array filled with dx and dy in place."""
        dx, dy = self.program("dx", "dy")(ts)
        velocity = np.empty(dx.shape, dtype=complex)
        velocity.real = dx
        velocity.imag = dy
        del dx, dy
        return np.abs(velocity)


def line() -> ParamCurve:
    """The x-axis, alpha(t) = t."""
    return ParamCurve("t", "0", domain=(0.0, 16.0 * math.pi))


def circle(radius: float) -> ParamCurve:
    return ParamCurve("R*cos(t)", "R*sin(t)", {"R": float(radius)})


def ellipse(a: float, b: float) -> ParamCurve:
    return ParamCurve("a*cos(t)", "b*sin(t)", {"a": float(a), "b": float(b)})


def limacon(lam: float) -> ParamCurve:
    """Cartesian lift of r = 1 + lam*cos(theta)."""
    return ParamCurve(
        "(1 + lambda*cos(t))*cos(t)",
        "(1 + lambda*cos(t))*sin(t)",
        {"lambda": float(lam)},
    )


@dataclass(frozen=True)
class RollConfig:
    radius: float
    side: str = "normal"  # "normal" or "antinormal"
    reverse: bool = False
    k: float = 0.0        # trochoid factor; 0 traces the contact point itself
    t0: float = 0.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("rolling-circle radius must be positive")
        if self.side not in ("normal", "antinormal"):
            raise ValueError("side must be 'normal' or 'antinormal'")


@dataclass(frozen=True)
class RollState:
    t: float
    center: complex
    roll_angle: float
    point: complex      # traced contact point P
    trochoid: complex   # Q = P + k*(P - center)


def arc_length(curve: ParamCurve, t_start: float, t_end: float,
               tol: float = 1e-10) -> float:
    """Signed arc length along the curve (negative when t_end < t_start)."""
    a, b = curve.domain
    lo, hi = min(t_start, t_end), max(t_start, t_end)
    if lo < a - 1e-12 or hi > b + 1e-12:
        raise ValueError("arc-length bounds outside the curve domain")
    return integrate(curve.speed_many, t_start, t_end, tol)


def _assemble(cfg: RollConfig, alpha, unit, theta):
    if cfg.reverse:
        theta = -theta
    n = 1j * unit * cfg.radius
    if cfg.side == "normal":
        center = alpha + n
        point = center - n * np.exp(-1j * theta)
    else:
        center = alpha - n
        point = center + n * np.exp(1j * theta)
    trochoid = point + cfg.k * (point - center)
    return center, theta, point, trochoid


def roll_state(curve: ParamCurve, cfg: RollConfig, t: float) -> RollState:
    """Center, rolled angle, contact point and trochoid point at parameter t."""
    a, b = curve.domain
    if t < a - 1e-12 or t > b + 1e-12:
        raise ValueError("parameter outside the curve domain")
    alpha = curve.point(t)
    velocity = curve.velocity(t)
    speed = abs(velocity)
    _check_regular(speed, "at the requested parameter")
    theta = arc_length(curve, cfg.t0, t) / cfg.radius
    center, theta, point, trochoid = _assemble(cfg, alpha, velocity / speed, theta)
    return RollState(float(t), complex(center), float(theta), complex(point), complex(trochoid))


# trace evaluates the Gauss nodes this many sample gaps at a time.  All at
# once, the 1.4e6 nodes of a 2e5-sample trace and their temporaries peak at
# 58 MB of allocations; in blocks of 8,192 gaps the trace peaks at 24 MB, and
# each numpy call still spans 57,344 points, so per-call overhead stays
# negligible.  A power of two, so the rows of each block's matrix product
# fall into the same row groups of the BLAS kernel as in one product over
# all gaps, and the arc lengths come out bit for bit the same.
_TRACE_BLOCK = 8192


def trace(curve: ParamCurve, cfg: RollConfig, t_from: float, t_to: float,
          samples: int) -> np.ndarray:
    """Trochoid points at uniformly spaced parameters (contact points if k=0).

    Arc length is accumulated with the 7-point Gauss rule (the G7 half of
    the quadrature's Gauss-Kronrod table) on every sample gap, evaluated in
    blocks of _TRACE_BLOCK gaps so memory stays bounded; the accumulated
    value matches the adaptive quadrature within ~1e-12 for smooth speeds.
    A non-finite or vanishing tangent at any node or sample raises
    RegularityError.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    a, b = curve.domain
    if t_from < a - 1e-12 or t_to > b + 1e-12 or not t_from < t_to:
        raise ValueError("trace range outside the curve domain")
    ts = np.linspace(t_from, t_to, int(samples))
    half = 0.5 * (ts[1] - ts[0])
    weights = half * G7_WEIGHTS

    seg_lengths = np.empty(ts.size - 1)
    for lo in range(0, seg_lengths.size, _TRACE_BLOCK):
        starts = ts[lo : min(lo + _TRACE_BLOCK, seg_lengths.size)]
        nodes = (starts + half)[:, None] + half * G7_NODES
        speeds = curve.speed_many(nodes.ravel()).reshape(nodes.shape)
        del nodes
        _check_regular(speeds, "on the trace range")
        seg_lengths[lo : lo + starts.size] = speeds @ weights
        del speeds

    x, y, dx, dy = curve.program("x", "y", "dx", "dy")(ts)
    velocity = dx + 1j * dy
    del dx, dy
    speed = np.abs(velocity)
    _check_regular(speed, "on the trace range")
    unit = velocity / speed
    del velocity, speed
    alpha = x + 1j * y
    del x, y

    s = np.empty(ts.shape)
    s[0] = arc_length(curve, cfg.t0, float(ts[0]))
    s[1:] = s[0] + np.cumsum(seg_lengths)
    del seg_lengths
    _, _, _, trochoid = _assemble(cfg, alpha, unit, s / cfg.radius)
    return trochoid


def cycloid_point(r: float, t: float) -> complex:
    """Closed form for a circle of radius r rolling on the x-axis."""
    if not r > 0:
        raise ValueError("radius must be positive")
    return t + 1j * r - 1j * r * cmath.exp(-1j * t / r)


def epicycloid_point(big_r: float, r: float, t: float) -> complex:
    """Closed form for rolling on top of a circle of radius R > r."""
    if not (big_r > r > 0):
        raise ValueError("need R > r > 0")
    return (big_r + r) * cmath.exp(1j * t) - r * cmath.exp(1j * t * (1.0 + big_r / r))


def hypocycloid_point(big_r: float, r: float, t: float) -> complex:
    """Closed form for rolling inside a circle of radius R > r."""
    if not (big_r > r > 0):
        raise ValueError("need R > r > 0")
    return (big_r - r) * cmath.exp(1j * t) + r * cmath.exp(1j * t * (1.0 - big_r / r))
