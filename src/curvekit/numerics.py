"""Root finding on a bracketing grid, adaptive Gauss-Kronrod quadrature, and
the Hausdorff distance between sampled graphs.

These are the shared scalar-equation and integral engines for the polar,
intersection, area and roulette computations.  Both take functions that map
numpy arrays to arrays (every curve evaluator in this package does) and call
them once per refinement round with every open bracket's or panel's points,
except that a call with only a few brackets refines each alone on Python
floats, with the same rounds and bits as inside a stack.  `find_roots` is
the package's only root search; the intersection origin test uses it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Grid density and tolerances chosen to separate roots spaced pi/(2N) for
# N up to 12 and to reject sign changes caused by poles (e.g. tan).
DEFAULT_GRID_PER_TWO_PI = 2048
DEFAULT_TOL = 1e-10
RESIDUAL_GATE = 1e-6
TANGENTIAL_GATE = 1e-8
TANGENTIAL_PREFILTER = 1e-3
POLE_MAGNITUDE = 1e12
DEDUPE_FACTOR = 10.0
_MAX_ROUNDS = 200  # a safety cap: halving a default grid cell reaches DEFAULT_TOL in 25
_SCALAR_BRACKETS = 4  # refined one by one on floats up to here; past it vector rounds win


@dataclass(frozen=True)
class RootList:
    """Sorted roots of a scalar function on an interval, with residuals."""

    roots: tuple[float, ...]
    residuals: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def linspace(start: float, stop: float, num: int, endpoint: bool = True) -> np.ndarray:
    """np.linspace(start, stop, num, endpoint) for float bounds, bit for bit.

    The same IEEE operations per element (arange * step + start, the last
    value set to stop, and numpy's division first when the step underflows
    to zero), without np.linspace's dtype and array handling, which costs
    more than the arithmetic at the sizes used here.
    """
    return _linspace_part(start, stop, num, endpoint, 0, num)


def _linspace_part(start: float, stop: float, num: int, endpoint: bool,
                   lo: int, hi: int) -> np.ndarray:
    """linspace(start, stop, num, endpoint)[lo:hi] for 0 <= lo <= hi <= num,
    computed without the rest of it."""
    start, stop = float(start), float(stop)
    div = num - 1 if endpoint else num
    delta = stop - start
    xs = np.arange(lo, hi, dtype=float)
    if div > 0:
        step = delta / div
        if step == 0.0:  # subnormal step
            xs /= div
            xs *= delta
        else:
            xs *= step
    else:
        xs *= delta
    xs += start
    if endpoint and hi == num > 1:
        xs[-1] = stop
    return xs


def _eval_grid(f, xs):
    ys = f(xs)
    ys = np.asarray(ys, dtype=float)
    if ys.shape != xs.shape:
        raise ValueError("function must map arrays to arrays")
    return ys


def _chandrupatla(f, lo, hi, flo, fhi):
    """Vectorized Chandrupatla (1997) refinement of sign-change brackets.

    Every round evaluates each open bracket once: at the inverse quadratic
    interpolation point when the last three samples make it safe, at the
    midpoint otherwise, and always at least DEFAULT_TOL/2 inside the
    bracket.  A bracket closes once it is narrower than DEFAULT_TOL (or an
    exact zero is hit); its root is the bracket end with the smaller |f|.
    """
    if lo.size <= _SCALAR_BRACKETS:
        return np.array([_chandrupatla_one(f, *v) for v in
                         zip(lo.tolist(), hi.tolist(), flo.tolist(), fhi.tolist())])
    roots = np.empty(lo.shape)
    open_ = np.arange(lo.size)
    x1, f1 = lo, flo      # newest sample
    x2, f2 = hi, fhi      # other end of the bracket
    dx = x2 - x1
    t = np.full(lo.shape, 0.5)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_ROUNDS):
            x = x1 + t * dx
            fx = _eval_grid(f, x)
            same = (fx <= 0) == (f1 <= 0)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, fx
            a1, a2 = np.abs(f1), np.abs(f2)
            roots[open_] = np.where(a1 < a2, x1, x2)
            dx = x2 - x1
            width = np.abs(dx)
            done = (width < DEFAULT_TOL) | (np.minimum(a1, a2) == 0.0)
            if np.count_nonzero(done):
                keep = ~done
                if not keep.any():
                    break
                open_ = open_[keep]
                x1, f1, x2, f2, x3, f3, dx, width = (
                    v[keep] for v in (x1, f1, x2, f2, x3, f3, dx, width)
                )
            f12, f32 = f1 - f2, f3 - f2
            xi = (x1 - x2) / (x3 - x2)
            phi = f12 / f32
            alpha = (x3 - x1) / dx
            rest = 1.0 - phi
            iqi = (phi * phi < xi) & (rest * rest < 1.0 - xi)
            t = np.where(
                iqi,
                f1 / f12 * f3 / f32 - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                0.5,
            )
            edge = 0.5 * DEFAULT_TOL / width
            t = np.minimum(np.maximum(t, edge), 1.0 - edge)
    return roots


def _chandrupatla_one(f, x1, x2, f1, f2):
    """_chandrupatla's rounds for one bracket on Python floats, which round as
    numpy's.  No divisor is zero (Python would raise): x3 - x2 and width are not
    while a bracket is open, and f32 only without a sign change, where numpy's
    phi is inf or NaN and fails the IQI test, as f12 == 0 and f3 == f1 would.
    min and max differ from numpy's on NaN only where x is NaN either way."""
    t = 0.5
    with np.errstate(all="ignore"):  # for f, as in the vector rounds
        for _ in range(_MAX_ROUNDS):
            x = x1 + t * (x2 - x1)
            fx = _eval_grid(f, np.array([x])).item()
            if (fx <= 0) != (f1 <= 0):
                x1, f1, x2, f2 = x2, f2, x1, f1
            x3, f3, x1, f1 = x1, f1, x, fx
            a1, a2 = abs(f1), abs(f2)
            root = x1 if a1 < a2 else x2
            width = abs(x2 - x1)
            if width < DEFAULT_TOL or ((a1 == 0.0 or a2 == 0.0) and not math.isnan(a1 + a2)):
                break
            f12, f32 = f1 - f2, f3 - f2
            xi = (x1 - x2) / (x3 - x2)
            alpha = (x3 - x1) / (x2 - x1)
            phi = f12 / f32 if f32 else math.inf
            rest = 1.0 - phi
            t = (f1 / f12 * f3 / f32 - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
                 if phi * phi < xi and rest * rest < 1.0 - xi else 0.5)
            edge = 0.5 * DEFAULT_TOL / width
            t = min(max(t, edge), 1.0 - edge)
    return root


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_abs_min(f, lo, hi):
    """Golden-section search for the minimum of |f| on every [lo, hi] at once."""
    if lo.size <= _SCALAR_BRACKETS:
        return np.array([_golden_abs_min_one(f, a, b) for a, b in zip(lo.tolist(), hi.tolist())])
    a, b = lo.copy(), hi.copy()
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = np.split(np.abs(_eval_grid(f, np.concatenate([c, d]))), 2)
    for _ in range(_MAX_ROUNDS):
        i = np.nonzero(b - a >= DEFAULT_TOL)[0]
        if not i.size:
            break
        shrink_right = fc[i] < fd[i]
        l, r = i[shrink_right], i[~shrink_right]
        b[l], d[l], fd[l] = d[l], c[l], fc[l]
        c[l] = b[l] - _INV_PHI * (b[l] - a[l])
        a[r], c[r], fc[r] = c[r], d[r], fd[r]
        d[r] = a[r] + _INV_PHI * (b[r] - a[r])
        fx = np.abs(_eval_grid(f, np.concatenate([c[l], d[r]])))
        fc[l], fd[r] = fx[:l.size], fx[l.size:]
    return 0.5 * (a + b)


def _golden_abs_min_one(f, a, b):
    """_golden_abs_min's rounds for one bracket, on Python floats (no division)."""
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = np.abs(_eval_grid(f, np.array([c, d]))).tolist()
    for _ in range(_MAX_ROUNDS):
        if not b - a >= DEFAULT_TOL:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = abs(_eval_grid(f, np.array([c])).item())
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = abs(_eval_grid(f, np.array([d])).item())
    return 0.5 * (a + b)


def find_roots(f, a: float, b: float, right_open: bool = False) -> RootList:
    """All roots of f on [a, b] (or [a, b) when right_open): the one root
    search of the package.

    f is sampled on a grid of DEFAULT_GRID_PER_TWO_PI cells per 2*pi (at
    least 32).  Sign changes on it are refined by Chandrupatla's method;
    zeros the function only touches (no sign change) are recovered from
    local minima of |f| and kept when the refined |f| drops below the
    tangential gate.  Grid nodes where |f| explodes or is non-finite,
    the two ends of [a, b] included, are treated as interval breaks
    (poles), never as crossings, and pole-side "roots" are rejected by the
    residual gate.
    """
    xs, ys, idx, touch, exact = _root_brackets(f, a, b)
    if not (idx.size or touch.size or exact.size):
        return RootList((), ())
    refined, residual = _refine_brackets(f, xs, ys, idx, touch)
    candidates = np.concatenate([exact, refined])
    values = np.concatenate([np.zeros(exact.size), residual])
    keep = (np.abs(candidates - float(b)) > DEDUPE_FACTOR * DEFAULT_TOL) | (not right_open)
    return _dedupe_roots(candidates[keep], values[keep])


def _root_brackets(f, a: float, b: float):
    """find_roots' grid xs on [a, b], f's values ys there, the cells idx where f
    changes sign, the nodes touch at small local minima of |f|, the exact zeros."""
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError("need a < b")
    grid_n = max(32, int(math.ceil(DEFAULT_GRID_PER_TWO_PI * (b - a) / TWO_PI)))
    xs = linspace(a, b, grid_n + 1)
    ys = _eval_grid(f, xs)
    ay = np.abs(ys)
    ok = ay < POLE_MAGNITUDE  # false on NaN and inf too
    sign = np.sign(ys)
    crossing = ok[:-1] & ok[1:] & (sign[:-1] * sign[1:] < 0)
    # touching zeros: local minima of |f| under the prefilter whose
    # neighbours are valid and not across a sign change
    flat = ~crossing
    touch = (ay > 0.0) & (ay < TANGENTIAL_PREFILTER)
    touch[1:] &= ok[:-1] & (ay[:-1] >= ay[1:]) & flat
    touch[:-1] &= ok[1:] & (ay[1:] >= ay[:-1]) & flat
    return xs, ys, crossing.nonzero()[0], touch.nonzero()[0], xs[ys == 0.0]


def _refine_brackets(f, xs, ys, idx, touch):
    """The roots refined in the cells idx and around the nodes touch that pass, and |f| there."""
    refined = np.concatenate([
        _chandrupatla(f, xs[idx], xs[idx + 1], ys[idx], ys[idx + 1]),
        _golden_abs_min(f, xs[np.maximum(touch - 1, 0)], xs[np.minimum(touch + 1, xs.size - 1)]),
    ])
    residual = np.abs(_eval_grid(f, refined)) if refined.size else refined
    passed = residual < TANGENTIAL_GATE
    passed[:idx.size] = residual[:idx.size] < RESIDUAL_GATE
    return refined[passed], residual[passed]


def _dedupe_roots(candidates, values) -> RootList:
    """The candidates sorted, one closer than DEDUPE_FACTOR*DEFAULT_TOL to the
    root kept before it merged into that root, replacing it if its value is less."""
    order = np.argsort(candidates, kind="stable")
    roots: list[float] = []
    residuals: list[float] = []
    for root, value in zip(candidates[order].tolist(), values[order].tolist()):
        if roots and root - roots[-1] < DEDUPE_FACTOR * DEFAULT_TOL:
            if value < residuals[-1]:
                roots[-1] = root
                residuals[-1] = value
            continue
        roots.append(root)
        residuals.append(value)
    return RootList(tuple(roots), tuple(residuals))


# Gauss-Kronrod 7-15 rule on [-1, 1] (QUADPACK qk15, Piessens et al. 1983),
# listed from the outermost node in to the centre.  The Gauss weights are
# zero at the eight Kronrod-only nodes.
_GK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_K15_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_G7_HALF = np.zeros(8)
_G7_HALF[1::2] = [0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                  0.381830050505118944950369775488975, 0.417959183673469387755102040816327]
_GK_NODES = np.concatenate([-_GK_HALF[:-1], _GK_HALF[::-1]])
_K15_WEIGHTS = np.concatenate([_K15_HALF[:-1], _K15_HALF[::-1]])
_G7_WEIGHTS = np.concatenate([_G7_HALF[:-1], _G7_HALF[::-1]])
G7_NODES = _GK_NODES[_G7_WEIGHTS > 0.0]
G7_WEIGHTS = _G7_WEIGHTS[_G7_WEIGHTS > 0.0]

_START_PANELS = 4
_ROUND_CAP = 40  # halvings reach ~1e-12 of the interval, far below any smooth need
_PANEL_CAP = 1 << 14  # open panels in a round: smooth integrands keep under 64
_ROUNDING_FLOOR = 50.0 * np.finfo(float).eps  # QUADPACK's |K - G| noise level


def integrate(f, a: float, b: float) -> float:
    """Adaptive Gauss-Kronrod (G7-K15) integral of f over [a, b].

    f maps arrays to arrays.  Starting from four equal panels, each round
    evaluates the 15 nodes and both edges of every open panel in one call;
    a panel of width h is accepted when |K15 - G7| <= DEFAULT_TOL*h/(b - a)
    or when |K15 - G7| is at the rounding floor 50*eps*K15(|f|), and is
    halved otherwise.  The orientation is signed: integrate(f, b, a) ==
    -integrate(f, a, b).  A non-finite sample (the edges catch a pole at a
    panel end), more than 16,384 panels open in one round, or panels still
    open after 40 rounds (a pole or a divergent integral) raise ValueError.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a)
    edges = linspace(a, b, _START_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    accepted: list[float] = []
    for _ in range(_ROUND_CAP):
        half = 0.5 * (hi - lo)
        nodes = (lo + half)[:, None] + half[:, None] * _GK_NODES
        ys = _eval_grid(f, np.concatenate([nodes.ravel(), lo, hi]))
        if not np.all(np.isfinite(ys)):
            raise ValueError("non-finite sample encountered")
        ys = ys[:nodes.size].reshape(nodes.shape)
        kronrod = half * (ys @ _K15_WEIGHTS)
        error = np.abs(kronrod - half * (ys @ _G7_WEIGHTS))
        done = (error <= DEFAULT_TOL * (hi - lo) / (b - a)) | (
            error <= _ROUNDING_FLOOR * half * (np.abs(ys) @ _K15_WEIGHTS)
        )
        accepted.extend(kronrod[done].tolist())
        if done.all():
            return math.fsum(accepted)
        lo, hi = lo[~done], hi[~done]
        if lo.size > _PANEL_CAP:
            break
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    raise ValueError("integral did not converge (pole or divergence)")


# Pairs per distance block: with no bound, 64 rows of a 1,024-point cloud.
_PAIR_BLOCK = 1 << 16


def symmetric_hausdorff(za, zb, bound=math.inf):
    """max(sup_a inf_b |a-b|, sup_b inf_a |a-b|) for two point clouds: exact
    below bound, bit for bit the brute-force scan, and otherwise some value
    >= bound, so `symmetric_hausdorff(za, zb, tol) < tol` decides whether
    the clouds coincide to tol.  The default bound asks for the distance.

    A sort-and-sweep with the threshold form of the early break of Taha &
    Hanbury (IEEE TPAMI 37(11), 2015).  Exact duplicates are collapsed
    first.  Each direction sorts the other cloud along its wider axis and
    compares every point only with the points within 2*bound of it on that
    axis, where any neighbour closer than bound lies.  Each distance is
    np.abs of a complex difference and only min and max combine them.  The
    second direction is skipped once the first reaches bound.  Before any
    of that, the clouds' extreme coordinates are compared: if the smallest
    (or largest) real (or imaginary) parts differ by at least bound, that
    gap is returned.  It is a lower bound of the computed distance, because
    |Re d| <= |d| holds in floating point too.  The points must be finite.
    """
    za, zb = (np.asarray(z, dtype=complex).reshape(-1) for z in (za, zb))
    if not (za.size and zb.size):
        raise ValueError("empty point set")
    gap = max(abs(p - q) for p, q in zip(_box(za), _box(zb)))
    if gap >= bound:
        return float(gap)
    za, zb = _distinct(za), _distinct(zb)
    found = 0.0
    for z, other in ((za, zb), (zb, za)):
        found = max(found, _directed_hausdorff(z, other, bound))
        if found >= bound:
            break
    return found


def _box(z):
    """Smallest and largest real and imaginary parts of z."""
    return z.real.min(), z.real.max(), z.imag.min(), z.imag.max()


def _distinct(z):
    """The points of z without exact duplicates, sorted by real part first."""
    z = np.sort(z)
    return z[np.concatenate(([True], z[1:] != z[:-1]))]


def _directed_hausdorff(z, other, bound):
    """sup_z inf_other |z - other| below bound, else some value >= bound.

    other comes sorted by real part from _distinct.  Consecutive windows are
    scanned together, _PAIR_BLOCK pairs (or one window) at a time.
    """
    keys, x = other.real, z.real
    if keys[-1] - keys[0] < np.ptp(other.imag):
        other = other[np.argsort(other.imag, kind="stable")]
        keys, x = other.imag, z.imag
    lo = np.searchsorted(keys, x - 2.0 * bound, side="left")
    counts = np.searchsorted(keys, x + 2.0 * bound, side="right") - lo
    if not counts.all():
        return math.inf  # no point of other lies within 2*bound on the axis
    step = max(1, _PAIR_BLOCK // int(counts.max()))
    found = 0.0
    for s in range(0, z.size, step):
        run = counts[s : s + step]
        offsets = np.cumsum(run) - run
        cols = np.arange(offsets[-1] + run[-1]) + np.repeat(lo[s : s + step] - offsets, run)
        pairs = np.abs(np.repeat(z[s : s + step], run) - other[cols])
        found = max(found, float(np.minimum.reduceat(pairs, offsets).max()))
        if found >= bound:
            break
    return found
