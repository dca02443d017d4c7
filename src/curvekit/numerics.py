"""Root finding on a bracketing grid, adaptive Gauss-Kronrod quadrature, and
the Hausdorff distance between sampled graphs.

These are the shared scalar-equation and integral engines for the polar,
intersection, area and roulette computations.  Both take functions that map
numpy arrays to arrays (every curve evaluator in this package does) and call
them once per refinement round with every open bracket's or panel's points.
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


@dataclass(frozen=True)
class RootList:
    """Sorted roots of a scalar function on an interval, with residuals."""

    roots: tuple[float, ...]
    residuals: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    def __getitem__(self, i: int) -> float:
        return self.roots[i]


def _eval_grid(f, xs):
    ys = f(xs)
    ys = np.asarray(ys, dtype=float)
    if ys.shape != xs.shape:
        raise ValueError("function must map arrays to arrays")
    return ys


def _chandrupatla(f, lo, hi, flo, fhi, tol, max_iter=200):
    """Vectorized Chandrupatla (1997) refinement of sign-change brackets.

    Every round evaluates each open bracket once: at the inverse quadratic
    interpolation point when the last three samples make it safe, at the
    midpoint otherwise, and always at least tol/2 inside the bracket.  A
    bracket closes once it is narrower than tol (or an exact zero is hit);
    its root is the bracket end with the smaller |f|.
    """
    roots = np.empty(lo.shape)
    open_ = np.arange(lo.size)
    x1, f1 = lo, flo      # newest sample
    x2, f2 = hi, fhi      # other end of the bracket
    t = np.full(lo.shape, 0.5)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            if not open_.size:
                break
            x = x1 + t * (x2 - x1)
            fx = _eval_grid(f, x)
            same = (fx <= 0) == (f1 <= 0)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, fx
            nearer = np.abs(f1) < np.abs(f2)
            best = np.where(nearer, x1, x2)
            width = np.abs(x2 - x1)
            done = (width < tol) | (np.minimum(np.abs(f1), np.abs(f2)) == 0.0)
            roots[open_] = best
            keep = ~done
            open_ = open_[keep]
            x1, f1, x2, f2, x3, f3, width = (
                v[keep] for v in (x1, f1, x2, f2, x3, f3, width)
            )
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(
                iqi,
                f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                0.5,
            )
            edge = 0.5 * tol / width
            t = np.clip(t, edge, 1.0 - edge)
    return roots


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_abs_min(f, lo, hi, tol, max_iter=200):
    """Golden-section search for the minimum of |f| on every [lo, hi] at once."""
    if not lo.size:
        return lo
    a, b = lo.copy(), hi.copy()
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = np.split(np.abs(_eval_grid(f, np.concatenate([c, d]))), 2)
    for _ in range(max_iter):
        i = np.nonzero(b - a >= tol)[0]
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


def find_roots(
    f,
    a: float,
    b: float,
    grid_n: int | None = None,
    tol: float = DEFAULT_TOL,
    right_open: bool = False,
) -> RootList:
    """All roots of f on [a, b] (or [a, b) when right_open).

    Sign changes on the sampling grid are refined by Chandrupatla's method;
    zeros the function only touches (no sign change) are recovered from
    local minima of |f| and kept when the refined |f| drops below the
    tangential gate.  Grid nodes where |f| explodes or is non-finite are
    treated as interval breaks (poles), never as crossings, and pole-side
    "roots" are rejected by the residual gate.
    """
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError("need a < b")
    if grid_n is None:
        grid_n = max(32, int(math.ceil(DEFAULT_GRID_PER_TWO_PI * (b - a) / TWO_PI)))
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")

    xs = np.linspace(a, b, grid_n + 1)
    ys = _eval_grid(f, xs)
    if not (np.isfinite(ys[0]) and np.isfinite(ys[-1])):
        raise ValueError("non-finite endpoint values")
    ok = np.isfinite(ys) & (np.abs(ys) < POLE_MAGNITUDE)
    sign = np.sign(ys)
    crossing = ok[:-1] & ok[1:] & (sign[:-1] * sign[1:] < 0)
    # touching zeros: local minima of |f| under the prefilter whose
    # neighbours are valid and not across a sign change
    ay = np.abs(ys)
    left = np.r_[True, ok[:-1] & (ay[:-1] >= ay[1:]) & ~crossing]
    right = np.r_[ok[1:] & (ay[1:] >= ay[:-1]) & ~crossing, True]
    touch = np.nonzero(ok & (ay > 0.0) & (ay < TANGENTIAL_PREFILTER) & left & right)[0]
    idx = np.nonzero(crossing)[0]

    refined = np.concatenate([
        _chandrupatla(f, xs[idx], xs[idx + 1], ys[idx], ys[idx + 1], tol),
        _golden_abs_min(f, xs[np.maximum(touch - 1, 0)], xs[np.minimum(touch + 1, grid_n)], tol),
    ])
    residual = np.abs(_eval_grid(f, refined)) if refined.size else refined
    gate = np.where(np.arange(refined.size) < idx.size, RESIDUAL_GATE, TANGENTIAL_GATE)
    passed = residual < gate

    exact = xs[ok & (ys == 0.0)]
    candidates = np.concatenate([exact, refined[passed]])
    values = np.concatenate([np.zeros(exact.size), residual[passed]])
    order = np.argsort(candidates, kind="stable")
    gap = DEDUPE_FACTOR * tol
    roots: list[float] = []
    residuals: list[float] = []
    for root, value in zip(candidates[order].tolist(), values[order].tolist()):
        if right_open and abs(root - b) <= gap:
            continue
        if roots and root - roots[-1] < gap:
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
_ROUNDING_FLOOR = 50.0 * np.finfo(float).eps  # QUADPACK's |K - G| noise level


def integrate(f, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Adaptive Gauss-Kronrod (G7-K15) integral of f over [a, b].

    f maps arrays to arrays.  Starting from four equal panels, each round
    evaluates the 15 nodes and both edges of every open panel in one call;
    a panel of width h is accepted when |K15 - G7| <= tol*h/(b - a) or when
    |K15 - G7| is at the rounding floor 50*eps*K15(|f|), and is halved
    otherwise.  The orientation is signed: integrate(f, b, a) ==
    -integrate(f, a, b).  A non-finite sample (the edges catch a pole at a
    panel end) and panels still open after 40 rounds (a pole or a divergent
    integral) raise ValueError.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, tol)
    edges = np.linspace(a, b, _START_PANELS + 1)
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
        done = (error <= tol * (hi - lo) / (b - a)) | (
            error <= _ROUNDING_FLOOR * half * (np.abs(ys) @ _K15_WEIGHTS)
        )
        accepted.extend(kronrod[done].tolist())
        if done.all():
            return math.fsum(accepted)
        lo, hi = lo[~done], hi[~done]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    raise ValueError(f"integral did not converge in {_ROUND_CAP} rounds (pole or divergence)")


# Every 16th point of the other cloud bounds each point's nearest distance
# from above at 1/16 of a full scan per direction.  On curve samples (1,024
# graph points, 256 piece points) that subsample is still dense enough to rule
# out nearly every point of two distinct graphs; strides 8 and 32 were both
# slower on the Hausdorff calls of the benchmark's library workload.
_HAUSDORFF_STRIDE = 16
# Exact nearest distances of the points with the loosest bounds give a
# distance the maximum certainly reaches.  8 points per direction cost 8
# rows of a full scan, under 1 % of it on graph samples, and leave room for
# curves whose far stretches are several (1 to 16 timed within noise).
_HAUSDORFF_SEEDS = 8
_HAUSDORFF_CHUNK = 1024


def _nearest(z, other):
    """Distance from each point of z to its nearest point of other."""
    return np.concatenate([
        np.abs(z[s : s + _HAUSDORFF_CHUNK, None] - other[None, :]).min(axis=1)
        for s in range(0, z.size, _HAUSDORFF_CHUNK)
    ])


def symmetric_hausdorff(za, zb):
    """max(sup_a inf_b |a-b|, sup_b inf_a |a-b|) for two point clouds.

    Exact, in the manner of Taha & Hanbury (IEEE TPAMI 37(11), 2015): every
    point gets an upper bound on its nearest distance from a subsample of
    the other cloud, a few points with the loosest bounds get exact nearest
    distances, and only the points whose bound still exceeds the largest of
    those are scanned in full.  Each distance is np.abs of a complex
    difference and only min and max combine them, so the result equals the
    brute-force scan bit for bit.  When most points stay open (the clouds
    nearly coincide) one full block serves both directions instead.  The
    points must be finite.
    """
    za = np.asarray(za, dtype=complex).reshape(-1)
    zb = np.asarray(zb, dtype=complex).reshape(-1)
    if za.size == 0 or zb.size == 0:
        raise ValueError("empty point set")
    clouds = ((za, zb), (zb, za))
    bounds = [_nearest(z, other[::_HAUSDORFF_STRIDE]) for z, other in clouds]
    seeds = [np.argsort(bound)[-_HAUSDORFF_SEEDS:] for bound in bounds]
    found = max(float(_nearest(z[i], other).max()) for (z, other), i in zip(clouds, seeds))
    open_ = [bound > found for bound in bounds]
    for mask, i in zip(open_, seeds):
        mask[i] = False
    if 2 * sum(int(mask.sum()) for mask in open_) > za.size + zb.size:
        return _full_block_hausdorff(za, zb)
    for (z, other), mask in zip(clouds, open_):
        if mask.any():
            found = max(found, float(_nearest(z[mask], other).max()))
    return found


def _full_block_hausdorff(za, zb):
    """Every point pair, in row chunks; each block serves both directions."""
    d_ab = 0.0
    mins_b = np.full(zb.shape, np.inf)
    for s in range(0, za.size, _HAUSDORFF_CHUNK):
        block = np.abs(za[s : s + _HAUSDORFF_CHUNK, None] - zb[None, :])
        d_ab = max(d_ab, float(block.min(axis=1).max()))
        np.minimum(mins_b, block.min(axis=0), out=mins_b)
    return max(d_ab, float(mins_b.max()))
