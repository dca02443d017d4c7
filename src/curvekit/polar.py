"""Polar curves: the complex equality rule, periods, symmetry tests, and
decomposition into non-negative pieces.

A polar curve r = f(theta) is identified with the set of complex points
f(theta) * e^(i*theta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .numerics import (DEDUPE_FACTOR, DEFAULT_TOL, POLE_MAGNITUDE, TWO_PI, find_roots,
                       linspace, symmetric_hausdorff)

MAX_PERIOD_MULTIPLE = 64  # the largest polar period searched by default, over pi

# Equality-rule sweeps: samples, and agreement relative to max(1, |f|).
RULE_SAMPLES = 512
RULE_TOL = 1e-9
# Rule samples sit this irrational fraction of a step (1/golden ratio) past
# k*pi/512, the zeros of sin(512*theta), which would hide such a term, and of
# sin, where sqrt(abs(sin(theta))) lifts the rounding of theta + 2*pi past RULE_TOL.
RULE_OFFSET = (math.sqrt(5.0) - 1.0) / 2.0
PIECE_SAMPLES = 256
PIECE_MATCH_TOL = 1e-6
# find_roots never reports two roots closer than this, so a zero within it
# of a domain end is that end, and no stretch between cuts is shorter
PIECE_CUT_GAP = DEDUPE_FACTOR * DEFAULT_TOL
# Offsets past each domain end where the wrap seam compares f: uneven steps
SEAM_PROBES = (0.0, 0.0137, 0.031)
# Sign checks sample an interval at SIGN_SAMPLES angles, ends included, and
# call a value below -SIGN_TOL negative.  A piece end is a root refined to
# DEFAULT_TOL, or a domain end with a zero within PIECE_CUT_GAP of it, so f
# can miss zero there by PIECE_CUT_GAP * |f'|: an end sample may go that much
# lower, with |f'| the secant slope to the next sample.  That needs no
# derivative, so abs curves are checked the same way.
SIGN_SAMPLES = 1024
SIGN_TOL = 1e-9
# A curve below this at every domain probe is zero up to rounding (as
# sin(t) + sin(t + pi) is): its graph is the origin, one piece with no cuts
ZERO_CURVE_TOL = 1e-12
# A negative stretch moves half a turn forward unless its image would start
# at 2*pi or beyond.  Its start may be a zero refined to DEFAULT_TOL, so one
# within this of pi takes the branch that a start at pi exactly takes.
HALF_TURN_SLACK = 1e-9


class _Record:
    """What the answers about one curve share that depends only on its AST
    and bound parameters: the compiled program, how far the period scan has
    gone, the first zero in the period window (a one-tuple once known, from
    the one `find_roots` call of `intersect.origin_on_curve`) and the
    intervals `sign_change_sample` passed, at most `expr.CURVE_RECORDS` of
    them.  Each is stored only once computed without an error.  Threads
    racing on one curve may each compute a fact, but they store the same
    value, so no answer depends on which wins and the record needs no lock.
    A race costs only time: it may store an earlier stage of the period scan
    or a pass past the bound, and two threads that miss on one key at once
    may each build a record, of which `_record_for` keeps one."""

    __slots__ = ("program", "period", "origin", "nonnegative_on")

    def __init__(self):
        self.program = None
        self.period = (None, 0)  # (the smallest multiple, or else the largest scanned)
        self.origin = None
        self.nonnegative_on = set()


def _bits(x) -> bytes:
    """x as the float64 that programs and samples are built from.  Keys hold
    bits, since `==` merges 0.0 with -0.0 (whose 1/x differ) and no NaN
    matches itself."""
    return np.float64(x).tobytes()


def _ast_key(node) -> tuple:
    """The AST's structure with each constant as its bits."""
    if isinstance(node, _expr.Const):
        return ("c", _bits(node.value))
    if isinstance(node, _expr.Var):
        return ("v",)
    if isinstance(node, _expr.Param):
        return ("p", node.name)
    if isinstance(node, _expr.Neg):
        return ("-", _ast_key(node.arg))
    if isinstance(node, _expr.Call):
        return (node.func, _ast_key(node.arg))
    return (node.op, _ast_key(node.left), _ast_key(node.right))


@functools.lru_cache(maxsize=_expr.CURVE_RECORDS)  # drops the least recently used
def _record_for(key: tuple) -> _Record:
    """One record per key, as `expr.parse` keeps one AST per text."""
    return _Record()


def _record_of(node, params: dict, names) -> _Record:
    """The shared record of the curve, keyed by its AST and the bits of the
    parameters it names, as `compile_program` binds them."""
    return _record_for((_ast_key(node), tuple((n, _bits(params[n])) for n in sorted(names))))


class PolarCurve:
    """r = f(theta) with bound parameters and a domain.  What depends only on
    the expression and its parameters is kept in a record shared by every
    curve object with the same ones (see `_Record`)."""

    def __init__(self, radius, params=None, domain=(0.0, TWO_PI)):
        self.text = radius if isinstance(radius, str) else _expr.to_string(radius)
        self.radius = _expr.parse(radius) if isinstance(radius, str) else radius
        self.params = dict(params or {})
        names = _expr.free_parameters(self.radius)
        unbound = names - set(self.params)
        if unbound:
            raise _expr.EvalError(f"unbound parameters: {sorted(unbound)}")
        a, b = float(domain[0]), float(domain[1])
        if not a < b:
            raise ValueError("domain must be a non-empty interval")
        self.domain = (a, b)
        self._record = _record_of(self.radius, self.params, names)

    def __repr__(self):
        return f"PolarCurve({self.text!r}, domain={self.domain})"

    @property
    def program(self) -> _expr.Program:
        record = self._record
        if record.program is None:
            record.program = _expr.compile_program(self.radius, self.params)
        return record.program

    def eval_many(self, thetas) -> np.ndarray:
        return self.program(np.asarray(thetas, dtype=float))

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

    def period_multiple_of_pi(self, max_multiple: int = MAX_PERIOD_MULTIPLE) -> int | None:
        """Smallest N <= max_multiple with f(theta) = (-1)^N f(theta + N*pi)
        by `_rule_misses` on [0, N*pi): the polar graph repeats after N*pi.
        The scan goes on from the largest N the curve's record has ruled out."""
        found, scanned = self._record.period
        if found is not None:
            return found if found <= max_multiple else None
        for n in range(scanned + 1, max_multiple + 1):
            thetas = _rule_grid(0.0, n * math.pi)
            missed = _rule_misses(self, thetas, thetas, (n,))
            if not missed.any():
                self._record.period = (n, n - 1)
                return n
            self._record.period = (None, n)
        return None

    def period_window(self) -> tuple[float, float]:
        n = self.period_multiple_of_pi()
        if n is None:
            raise ValueError(f"curve {self.text!r} has no period <= {MAX_PERIOD_MULTIPLE}*pi")
        return (0.0, n * math.pi)


def _rule_grid(lo: float, hi: float) -> np.ndarray:
    """RULE_SAMPLES angles on [lo, hi), each RULE_OFFSET of a step past a grid point."""
    return linspace(lo, hi, RULE_SAMPLES, endpoint=False) + RULE_OFFSET * (hi - lo) / RULE_SAMPLES


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


def _holds_for_some_n(curve: PolarCurve, reflect: bool, theta0: float) -> bool:
    lo, hi = curve.period_window()  # hi = n_period * pi; n runs to 2 * n_period
    thetas = _rule_grid(lo, hi)
    base = (2.0 * theta0 - thetas) if reflect else (thetas + theta0)
    return not _rule_misses(curve, thetas, base, range(2 * round(hi / math.pi) + 1)).any()


def is_rotation_symmetric(curve: PolarCurve, theta0: float) -> bool:
    """Does rotating the graph by theta0 map it onto itself?

    Implements the pointwise criterion: for every sampled theta there must be
    an integer n (allowed to vary with theta) with
    f(theta) = (-1)^n f(theta + theta0 + n*pi).
    """
    return _holds_for_some_n(curve, reflect=False, theta0=theta0)


def is_reflection_symmetric(curve: PolarCurve, theta0: float) -> bool:
    """Reflection through the line theta = theta0, same n-search as rotation:
    f(theta) = (-1)^n f(2*theta0 - theta + n*pi) for some n per sample."""
    return _holds_for_some_n(curve, reflect=True, theta0=theta0)


@dataclass(frozen=True)
class Piece:
    """A non-negative stretch of a curve: r = g(theta) >= 0 on [a, b]."""

    curve: PolarCurve
    interval: tuple[float, float]
    traced_twice: bool

    def sample_points(self) -> np.ndarray:
        thetas = linspace(self.interval[0], self.interval[1], PIECE_SAMPLES)
        return self.curve.points_many(thetas)


def _half_turn(curve: PolarCurve, forward: bool) -> PolarCurve:
    # On a stretch where f <= 0 the same plane points are g(phi) e^(i phi)
    # with g(phi) = -f(phi - pi) on [lo + pi, hi + pi] (forward), or
    # g(phi) = -f(phi + pi) on [lo - pi, hi - pi], the branch one turn
    # earlier, for a window that would start at or beyond 2*pi.
    if forward:
        shift = _expr.sub(_expr.Var(), _expr.Const(math.pi))
    else:
        shift = _expr.add(_expr.Var(), _expr.Const(math.pi))
    return PolarCurve(_expr.neg(_expr.substitute_var(curve.radius, shift)), curve.params)


def sign_change_sample(curve: PolarCurve, interval: tuple[float, float]) -> int | None:
    """None when the curve is non-negative on all SIGN_SAMPLES angles spanning
    the interval (SIGN_TOL, with the end slack; NaN fails).  Otherwise the
    index where it changes sign: the first failing sample, or, when the first
    sample fails, the first that does not (0 if none).  Passes are kept in the
    curve's record."""
    lo, hi = interval
    passed, key = curve._record.nonnegative_on, (_bits(lo), _bits(hi))
    if key in passed:
        return None
    values = curve.eval_many(linspace(lo, hi, SIGN_SAMPLES))
    failing = ~(values >= -SIGN_TOL)
    for end, inner in ((0, 1), (-1, -2)):
        if failing[end]:  # a non-finite slope, from a pole at the end, gets no slack
            rise = abs(float(values[inner]) - float(values[end]))
            slope = rise * (SIGN_SAMPLES - 1) / (hi - lo)
            failing[end] = not (math.isfinite(slope)
                                and values[end] >= -SIGN_TOL - PIECE_CUT_GAP * slope)
    if not failing.any() and len(passed) < _expr.CURVE_RECORDS:
        passed.add(key)
    return int(np.argmax(failing != failing[0])) if failing.any() else None


def positive_pieces(curve: PolarCurve) -> tuple[Piece, ...]:
    """Rewrite the curve over its domain as non-negative pieces.

    Stretches where f is negative are re-expressed through the half-turn
    identity; pieces whose point set duplicates an earlier piece (the curve
    is traced again) are flagged traced_twice.  A non-negative piece keeps
    the curve itself, and the negative ones share one half-turn curve per
    direction.
    """
    a, b = curve.domain
    probe = linspace(a, b, 2048)
    vals = curve.eval_many(probe)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmin(np.isfinite(vals)))
        what = "is undefined" if np.isnan(vals[bad]) else "has a pole"
        raise _expr.EvalError(f"curve {what} at theta = {probe[bad]:.12g}")
    if np.max(np.abs(vals)) < ZERO_CURVE_TOL:
        # identically zero: the graph is the origin
        piece = Piece(curve, (a, b), traced_twice=False)
        return (piece,)

    zeros = list(find_roots(curve.eval_many, a, b))
    cuts = [a] + [z for z in zeros if a + PIECE_CUT_GAP < z < b - PIECE_CUT_GAP] + [b]

    raw: list[tuple[float, float, int]] = []  # (lo, hi, sign)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < PIECE_CUT_GAP:
            continue
        # the sign of the median of 15 inner samples; NaN counts as negative
        mid_vals = np.sort(curve.eval_many(linspace(lo, hi, 17)[1:-1]))
        sign = 1 if mid_vals[7] >= 0.0 and not np.isnan(mid_vals[-1]) else -1
        if raw and raw[-1][2] == sign:
            raw[-1] = (raw[-1][0], hi, sign)
        else:
            raw.append((lo, hi, sign))

    # The last stretch continues into the first across the seam at b when the
    # equality rule joins b to a: b - a = k*pi (to PIECE_CUT_GAP) with (-1)^k
    # the product of their signs, f(b + d) = (-1)^k f(a + d) to RULE_TOL as in
    # _rule_misses (NaN declines), and the joined stretch at most a full turn.
    if len(raw) > 1:
        first, last = raw[0], raw[-1]
        turn, k = first[2] * last[2], round((b - a) / math.pi)
        if (k >= 1 and abs(b - a - k * math.pi) < PIECE_CUT_GAP and (-1) ** k == turn
                and first[1] + (b - a) - last[0] <= TWO_PI):
            ahead, past = curve.eval_many(np.add.outer((a, b), SEAM_PROBES))
            with np.errstate(invalid="ignore"):  # inf - inf at a pole declines
                if np.all(np.abs(past - turn * ahead) < RULE_TOL * np.maximum(1.0, np.abs(ahead))):
                    raw = raw[1:-1] + [(last[0], first[1] + (b - a), last[2])]

    half_turns: dict[bool, PolarCurve] = {}
    pieces: list[Piece] = []
    for lo, hi, sign in raw:
        piece_curve, interval = curve, (lo, hi)
        if sign < 0:
            forward = lo + math.pi < TWO_PI - HALF_TURN_SLACK
            if forward not in half_turns:
                half_turns[forward] = _half_turn(curve, forward)
            shift = math.pi if forward else -math.pi
            piece_curve, interval = half_turns[forward], (lo + shift, hi + shift)
        change = sign_change_sample(piece_curve, interval)
        if change is not None:  # a sign change where find_roots saw no zero
            near = linspace(lo, hi, SIGN_SAMPLES)[change]
            raise ValueError(f"curve changes sign inside [{lo:.12g}, {hi:.12g}] near theta = "
                             f"{near:.12g} with no zero found there (a pole, or zeros finer "
                             "than the root grid)")
        pieces.append(Piece(piece_curve, interval, traced_twice=False))

    pieces.sort(key=lambda p: p.interval)
    flagged: list[Piece] = []
    earlier_points: list[np.ndarray] = []
    for piece in pieces:
        pts = piece.sample_points()
        duplicate = any(
            symmetric_hausdorff(pts, earlier, PIECE_MATCH_TOL) < PIECE_MATCH_TOL
            for earlier in earlier_points
        )
        if duplicate:
            piece = Piece(piece.curve, piece.interval, traced_twice=True)
        flagged.append(piece)
        earlier_points.append(pts)
    return tuple(flagged)
