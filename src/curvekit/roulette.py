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
epicycloid and hypocycloid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .numerics import G7_NODES, G7_WEIGHTS, _linspace_part, integrate, linspace

REGULARITY_TOL = 1e-9

# Parameters up to this far outside a curve's domain count as on it: an end
# computed in floating point (t0 + 2*pi, a bisected contact parameter) can
# miss the domain's end by a few ulps, under 1e-14 on domains of a few dozen
# radians, and the tolerance admits that rounding and nothing coarser.
DOMAIN_TOL = 1e-12


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

    def __init__(self, x, y, params=None, domain=(0.0, 2.0 * math.pi)):
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
        self.dx = _expr.differentiate(self.x)
        self.dy = _expr.differentiate(self.y)
        self._programs = {}
        _check_regular(self.speed_many(linspace(a, b, 1024)), "on the domain")

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

    def points_many(self, ts) -> np.ndarray:
        x, y = self.program("x", "y")(ts)
        return x + 1j * y

    def speed_many(self, ts) -> np.ndarray:
        """|alpha'(t)|, as np.abs(dx + 1j*dy) gives it wherever that is
        finite, from a complex array filled with dx and dy in place."""
        dx, dy = self.program("dx", "dy")(ts)
        velocity = np.empty(dx.shape, dtype=complex)
        velocity.real = dx
        velocity.imag = dy
        del dx, dy
        return np.abs(velocity)


def line() -> ParamCurve:
    """The x-axis, alpha(t) = t."""
    return ParamCurve("t", "0", domain=(0.0, 16.0 * math.pi))


# The closed bases below check their minimum speed in closed form first:
# the sampled check of ParamCurve misses a tangent that vanishes only
# between samples, as ellipse(0, 1)'s does at t = pi/2.

def circle(radius: float) -> ParamCurve:
    """Speed |R|."""
    _check_regular([abs(radius)], "on the domain")
    return ParamCurve("R*cos(t)", "R*sin(t)", {"R": float(radius)})


def ellipse(a: float, b: float) -> ParamCurve:
    """Speed sqrt(a^2 sin^2 t + b^2 cos^2 t), at least min(|a|, |b|)."""
    _check_regular([min(abs(a), abs(b))], "on the domain")
    return ParamCurve("a*cos(t)", "b*sin(t)", {"a": float(a), "b": float(b)})


def limacon(lam: float) -> ParamCurve:
    """Cartesian lift of r = 1 + lam*cos(theta).  Speed
    sqrt(1 + 2*lam*cos(t) + lam^2), at least |1 - |lam||."""
    _check_regular([abs(1.0 - abs(lam))], "on the domain")
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


def arc_length(curve: ParamCurve, t_start: float, t_end: float) -> float:
    """Signed arc length along the curve (negative when t_end < t_start)."""
    a, b = curve.domain
    lo, hi = min(t_start, t_end), max(t_start, t_end)
    if lo < a - DOMAIN_TOL or hi > b + DOMAIN_TOL:
        raise ValueError("arc-length bounds outside the curve domain")
    return integrate(curve.speed_many, t_start, t_end)


# numpy evaluates `a * b` in b's buffer, as `b * a`, when b is a temporary
# of at least this many bytes (temporary elision).  Complex products are not
# bitwise commutative, so this is the size from which the one-shot trace of
# a whole output multiplied exp(i*theta) * n instead of n * exp(i*theta);
# trace keeps that order for each sample count while it assembles in blocks.
_ELISION_BYTES = 256 * 1024


def _assemble(cfg: RollConfig, alpha, unit, theta, rotation_first=False):
    if cfg.reverse:
        theta = -theta
    n = 1j * unit * cfg.radius
    if cfg.side == "normal":
        center = alpha + n
        rotation = np.exp(-1j * theta)
    else:
        center = alpha - n
        rotation = np.exp(1j * theta)
    turned = rotation * n if rotation_first else n * rotation
    point = center - turned if cfg.side == "normal" else center + turned
    trochoid = point + cfg.k * (point - center)
    return center, theta, point, trochoid


def roll_state(curve: ParamCurve, cfg: RollConfig, t: float) -> RollState:
    """Center, rolled angle, contact point and trochoid point at parameter t."""
    a, b = curve.domain
    if t < a - DOMAIN_TOL or t > b + DOMAIN_TOL:
        raise ValueError("parameter outside the curve domain")
    alpha = curve.point(t)
    velocity = curve.velocity(t)
    speed = abs(velocity)
    _check_regular(speed, "at the requested parameter")
    theta = arc_length(curve, cfg.t0, t) / cfg.radius
    center, theta, point, trochoid = _assemble(cfg, alpha, velocity / speed, theta)
    return RollState(float(t), complex(center), float(theta), complex(point), complex(trochoid))


# trace finishes this many samples, and the Gauss nodes of the gaps that
# start at them, before it starts on the next ones, so besides the output it
# holds one block's arrays (about 1.1 MB) whatever the sample count.  Each
# numpy call still spans 2,048 samples or 14,336 nodes.  A power of two, so
# the rows of each block's matrix product fall into the same row groups of
# the BLAS kernel as in one product over all gaps, and the arc lengths come
# out bit for bit the same.
_TRACE_BLOCK = 2048


def trace(curve: ParamCurve, cfg: RollConfig, t_from: float, t_to: float,
          samples: int) -> np.ndarray:
    """Trochoid points at uniformly spaced parameters (contact points if k=0).

    Arc length is accumulated with the 7-point Gauss rule (the G7 half of
    the quadrature's Gauss-Kronrod table) on every sample gap; the
    accumulated value matches the adaptive quadrature within ~1e-12 for
    smooth speeds.  One pass over blocks of _TRACE_BLOCK samples builds each
    block's parameters, the Gauss nodes of its gaps, its arc lengths and its
    points before the next block, so memory stays bounded and the points are
    bit for bit those of one pass over all of them.  A non-finite or
    vanishing tangent at any node or sample raises RegularityError.
    Whatever the sample count, of the failures a trace has the one raised
    comes first in this order: a non-finite tangent at a node, a vanishing
    one at a node, a non-finite one at a sample, a vanishing one at a
    sample, a failure of the arc length from cfg.t0.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    a, b = curve.domain
    if t_from < a - DOMAIN_TOL or t_to > b + DOMAIN_TOL or not t_from < t_to:
        raise ValueError("trace range outside the curve domain")
    samples = int(samples)
    first, second = _linspace_part(t_from, t_to, samples, True, 0, 2)
    half = 0.5 * (second - first)
    weights = half * G7_WEIGHTS
    failure = None  # raised only if no tangent fails its check
    try:
        s0 = arc_length(curve, cfg.t0, float(first))
    except ValueError as error:
        failure = error

    program = curve.program("x", "y", "dx", "dy")
    trochoid = np.empty(samples, dtype=complex)
    rotation_first = trochoid.nbytes >= _ELISION_BYTES
    slowest_node = slowest_sample = math.inf  # slowest_sample: NaN once a sample is not finite
    carry = -0.0  # summed gaps before the block; adding -0.0 keeps every bit
    for lo in range(0, samples, _TRACE_BLOCK):
        hi = min(lo + _TRACE_BLOCK, samples)
        ts = _linspace_part(t_from, t_to, samples, True, lo, hi)
        starts = ts[: samples - 1 - lo]  # every sample but the last starts a gap
        nodes = (starts + half)[:, None] + half * G7_NODES
        speeds = curve.speed_many(nodes.ravel()).reshape(nodes.shape)
        del nodes
        if not np.all(np.isfinite(speeds)):
            _check_regular(speeds, "on the trace range")  # raises: not finite
        # the last block has no gap when it holds only the last sample
        slowest_node = min(slowest_node, float(np.min(speeds, initial=math.inf)))
        # s[j] sums the gaps before sample lo + j in the order of one cumsum
        # over all gaps; s[-1] carries that sum into the next block
        s = np.empty(starts.size + 1)
        s[0] = carry
        s[1:] = speeds @ weights
        del speeds
        np.cumsum(s, out=s)
        carry = s[-1]
        if math.isnan(slowest_sample):
            continue
        x, y, dx, dy = program(ts)
        velocity = dx + 1j * dy
        speed = np.abs(velocity)
        if not np.all(np.isfinite(speed)):
            slowest_sample = math.nan
            continue
        slowest_sample = min(slowest_sample, float(np.min(speed)))
        if failure is None and min(slowest_node, slowest_sample) > REGULARITY_TOL:
            trochoid[lo:hi] = _assemble(cfg, x + 1j * y, velocity / speed,
                                        (s[: ts.size] + s0) / cfg.radius, rotation_first)[3]
    _check_regular(slowest_node, "on the trace range")
    _check_regular(slowest_sample, "on the trace range")
    if failure is not None:
        raise failure
    return trochoid
