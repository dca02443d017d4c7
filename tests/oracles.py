"""Independent verification oracles used only by the tests.

- rasterized_intersections counts intersection points by brute force:
  sample both graphs densely, collect point pairs closer than a pixel
  tolerance (close_pair_points), and single-linkage cluster them
  (cluster_points).  It never touches the equation-family solver.
- mc_common_area estimates the area of the intersection of two region
  unions by seeded rejection sampling, independent of any quadrature.
- PolarPoint and points_equal model polar coordinates directly: a pair
  (r, theta) with its canonical form (r >= 0, theta in [0, 2*pi), the
  origin at angle 0) and its complex value r*e^(i*theta).
- cycloid_point, epicycloid_point and hypocycloid_point are the closed forms
  of a circle rolling on the x-axis, on a circle and inside a circle.
- bisection_roots is the plain reference for numerics.find_roots: the same
  grid, gates and dedupe rule, with vectorized bisection for sign changes
  and a scalar golden-section search per touching zero.
- frozen_find_roots is numerics.find_roots as it was before its per-call
  costs were cut, kept verbatim (np.linspace grid, np.r_ masks, np.clip,
  compaction every round); the lean version must return the same roots and
  residuals bit for bit.
- bisection_origin is the plain reference for intersect.origin_on_curve:
  the first root of bisection_roots over the period window with |f| below
  ZERO_RADIUS_TOL.  No Chandrupatla step is shared, so the witnesses must
  agree to 1e-9 and both or neither must be None.
- brute_hausdorff is the plain reference for numerics.symmetric_hausdorff:
  every point pair in chunks of 1,024 rows, each distance np.abs of a complex
  difference, so the bounded sweep must match it bit for bit below its bound.
- tree_program is the plain reference for expr.compile_program: one nested
  closure per tree node, nothing shared, so a subexpression is computed
  again wherever it occurs; shared programs must match it bit for bit.
- one_shot_trace is the plain reference for roulette.trace: every Gauss
  node of every sample gap in one array, speeds np.abs(dx + 1j*dy) from
  tree_program evaluators, and the trochoid assembled over all samples at
  once with its own copy of the rolling equations, so the blocked trace must
  match it bit for bit.  `n * np.exp(...)` is written as in a one-shot
  assembly: on outputs of 256 KiB or more numpy's temporary elision runs it
  as `np.exp(...) * n`, and the blocked trace must reproduce that order too.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from curvekit.expr import BinOp, Call, Const, Neg, Param, Var
from curvekit.intersect import ZERO_RADIUS_TOL
from curvekit.numerics import (
    DEDUPE_FACTOR,
    DEFAULT_GRID_PER_TWO_PI,
    DEFAULT_TOL,
    G7_NODES,
    G7_WEIGHTS,
    POLE_MAGNITUDE,
    RESIDUAL_GATE,
    TANGENTIAL_GATE,
    TANGENTIAL_PREFILTER,
)
from curvekit.roulette import REGULARITY_TOL, RegularityError, arc_length

TWO_PI = 2.0 * math.pi


def _close_pairs(za, zb, tol):
    """Index arrays (i, j) of all pairs with |za[i] - zb[j]| < tol."""
    trees = [cKDTree(np.column_stack([z.real, z.imag])) for z in (za, zb)]
    pairs = trees[0].sparse_distance_matrix(trees[1], tol, output_type="ndarray")
    pairs = pairs[pairs["v"] < tol]
    return pairs["i"], pairs["j"]


def close_pair_points(za, zb, tol):
    """Midpoints of all pairs (a, b), a from za, b from zb, with |a-b| < tol."""
    za = np.asarray(za, dtype=complex).reshape(-1)
    zb = np.asarray(zb, dtype=complex).reshape(-1)
    i, j = _close_pairs(za, zb, tol)
    return 0.5 * (za[i] + zb[j])


def cluster_points(z, tol):
    """Single-linkage clusters of a point set; returns (count, centroids).

    Points chained by gaps smaller than tol belong to one cluster, so a run
    of near-coincident samples along a tangency arc counts once.  Clusters
    come in the order of their leftmost member.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.size == 0:
        return 0, np.empty(0, dtype=complex)
    z = z[np.argsort(z.real, kind="stable")]
    i, j = _close_pairs(z, z, tol)
    graph = coo_matrix((np.ones(i.size), (i, j)), shape=(z.size, z.size))
    count, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels)
    centroids = (np.bincount(labels, z.real) + 1j * np.bincount(labels, z.imag)) / sizes
    return count, centroids


def _dense_graph(curve, pair_tol, min_samples):
    a, b = curve.period_window()
    probe = np.linspace(a, b, 4096, endpoint=False)
    pts = curve.points_many(probe)
    length = float(np.sum(np.abs(np.diff(pts))))
    samples = max(min_samples, int(3.0 * length / pair_tol))
    thetas = np.linspace(a, b, samples, endpoint=False)
    return curve.points_many(thetas)


def rasterized_intersections(c1, c2, pair_tol=1e-3, min_samples=20000):
    """(cluster_count, centroids, origin_hit) from brute-force rasterization.

    Sampling is densified beyond min_samples until adjacent samples sit
    closer than pair_tol/3 along each curve, so no transversal crossing can
    slip between samples.  Resolution caveat: intersection points whose
    separation is comparable to pair_tol (e.g. a point right next to the
    origin on two curves that both pass through it) merge into one cluster;
    shrink pair_tol to resolve them.
    """
    za = _dense_graph(c1, pair_tol, min_samples)
    zb = _dense_graph(c2, pair_tol, min_samples)
    pairs = close_pair_points(za, zb, pair_tol)
    count, reps = cluster_points(pairs, 4.0 * pair_tol)
    origin_hit = bool(count and np.min(np.abs(reps)) < 10.0 * pair_tol)
    return count, reps, origin_hit


def _union_contains(regions, radius, theta):
    """Membership in a union of sector regions from precomputed polar coords."""
    inside = np.zeros(radius.shape, dtype=bool)
    for region in regions:
        a, b = region.interval
        k_lo = math.floor((a - float(theta.max())) / TWO_PI)
        k_hi = math.ceil((b - float(theta.min())) / TWO_PI)
        for k in range(k_lo, k_hi + 1):
            mapped = theta + k * TWO_PI
            mask = (mapped >= a) & (mapped <= b) & ~inside
            if not mask.any():
                continue
            vals = region.boundary.eval_many(mapped[mask])
            sub = inside[mask]
            sub |= radius[mask] <= vals + 1e-12
            inside[mask] = sub
    return inside


def max_radius(region):
    """Largest boundary value of a sector region on 1,024 samples."""
    samples = np.linspace(region.interval[0], region.interval[1], 1024)
    return float(np.max(region.boundary.eval_many(samples)))


def mc_common_area(regions_a, regions_b, n=1_000_000, seed=20240501):
    """(estimate, sigma) for the area of (union A) intersect (union B)."""
    rmax = max(max_radius(r) for r in list(regions_a) + list(regions_b))
    half = 1.001 * rmax
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-half, half, size=(int(n), 2))
    radius = np.hypot(xy[:, 0], xy[:, 1])
    theta = np.mod(np.arctan2(xy[:, 1], xy[:, 0]), TWO_PI)
    hit = _union_contains(regions_a, radius, theta)
    # membership in B only needs testing where A already holds
    idx = np.nonzero(hit)[0]
    sub = _union_contains(regions_b, radius[idx], theta[idx])
    full = np.zeros(radius.shape, dtype=bool)
    full[idx[sub]] = True
    p = float(np.mean(full))
    box = (2.0 * half) ** 2
    estimate = box * p
    sigma = box * math.sqrt(max(p * (1.0 - p), 1e-30) / n)
    return estimate, sigma


def _bisect(f, lo, hi, width):
    flo = f(lo)
    for _ in range(200):
        if np.all(hi - lo < width):
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        left = (flo <= 0) == (fmid <= 0)
        lo, flo, hi = np.where(left, mid, lo), np.where(left, fmid, flo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def _golden(f, a, b, tol):
    def g(x):
        return abs(float(f(np.array([x]))[0]))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = g(c), g(d)
    while b - a >= tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = g(d)
    return 0.5 * (a + b)


def bisection_roots(f, a, b, tol=DEFAULT_TOL, right_open=False):
    """Sorted roots of f on [a, b] (or [a, b)) by bisection to 1e-3 * tol."""
    grid_n = max(32, int(math.ceil(DEFAULT_GRID_PER_TWO_PI * (b - a) / TWO_PI)))
    xs = np.linspace(a, b, grid_n + 1)
    ys = f(xs)
    ok = np.isfinite(ys) & (np.abs(ys) < POLE_MAGNITUDE)
    candidates = list(xs[ok & (ys == 0.0)])
    idx = np.nonzero(ok[:-1] & ok[1:] & (np.sign(ys[:-1]) * np.sign(ys[1:]) < 0))[0]
    if idx.size:
        roots = _bisect(f, xs[idx], xs[idx + 1], 1e-3 * tol)
        candidates += list(roots[np.abs(f(roots)) < RESIDUAL_GATE])
    ay = np.abs(ys)
    last = len(xs) - 1
    for i in range(len(xs)):
        if not ok[i] or ay[i] == 0.0 or ay[i] >= TANGENTIAL_PREFILTER:
            continue
        if i > 0 and not (ok[i - 1] and ay[i - 1] >= ay[i] and np.sign(ys[i - 1]) * np.sign(ys[i]) >= 0):
            continue
        if i < last and not (ok[i + 1] and ay[i + 1] >= ay[i] and np.sign(ys[i + 1]) * np.sign(ys[i]) >= 0):
            continue
        m = _golden(f, xs[max(i - 1, 0)], xs[min(i + 1, last)], tol)
        if abs(f(np.array([m]))[0]) < TANGENTIAL_GATE:
            candidates.append(m)
    roots = []
    for root in sorted(candidates):
        if right_open and abs(root - b) <= DEDUPE_FACTOR * tol:
            continue
        if roots and root - roots[-1] < DEDUPE_FACTOR * tol:
            if abs(f(np.array([root]))[0]) < abs(f(np.array([roots[-1]]))[0]):
                roots[-1] = root
            continue
        roots.append(root)
    return [float(r) for r in roots]


# Frozen copy of numerics.find_roots and its two refiners from before their
# per-call costs were cut (np.linspace grid, np.r_ masks, a gate array,
# np.clip and compaction every Chandrupatla round).  find_roots must return
# the same roots and residuals bit for bit.

def _frozen_eval_grid(f, xs):
    ys = f(xs)
    ys = np.asarray(ys, dtype=float)
    if ys.shape != xs.shape:
        raise ValueError("function must map arrays to arrays")
    return ys


def _frozen_chandrupatla(f, lo, hi, flo, fhi, tol, max_iter=200):
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
            fx = _frozen_eval_grid(f, x)
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


_FROZEN_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _frozen_golden_abs_min(f, lo, hi, tol, max_iter=200):
    """Golden-section search for the minimum of |f| on every [lo, hi] at once."""
    if not lo.size:
        return lo
    a, b = lo.copy(), hi.copy()
    c = b - _FROZEN_INV_PHI * (b - a)
    d = a + _FROZEN_INV_PHI * (b - a)
    fc, fd = np.split(np.abs(_frozen_eval_grid(f, np.concatenate([c, d]))), 2)
    for _ in range(max_iter):
        i = np.nonzero(b - a >= tol)[0]
        if not i.size:
            break
        shrink_right = fc[i] < fd[i]
        l, r = i[shrink_right], i[~shrink_right]
        b[l], d[l], fd[l] = d[l], c[l], fc[l]
        c[l] = b[l] - _FROZEN_INV_PHI * (b[l] - a[l])
        a[r], c[r], fc[r] = c[r], d[r], fd[r]
        d[r] = a[r] + _FROZEN_INV_PHI * (b[r] - a[r])
        fx = np.abs(_frozen_eval_grid(f, np.concatenate([c[l], d[r]])))
        fc[l], fd[r] = fx[:l.size], fx[l.size:]
    return 0.5 * (a + b)


def frozen_find_roots(
    f,
    a: float,
    b: float,
    grid_n: int | None = None,
    tol: float = DEFAULT_TOL,
    right_open: bool = False,
):
    """numerics.find_roots as (roots, residuals), each a tuple."""
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError("need a < b")
    if grid_n is None:
        grid_n = max(32, int(math.ceil(DEFAULT_GRID_PER_TWO_PI * (b - a) / TWO_PI)))
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")

    xs = np.linspace(a, b, grid_n + 1)
    ys = _frozen_eval_grid(f, xs)
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
        _frozen_chandrupatla(f, xs[idx], xs[idx + 1], ys[idx], ys[idx + 1], tol),
        _frozen_golden_abs_min(f, xs[np.maximum(touch - 1, 0)], xs[np.minimum(touch + 1, grid_n)], tol),
    ])
    residual = np.abs(_frozen_eval_grid(f, refined)) if refined.size else refined
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
    return tuple(roots), tuple(residuals)


def bisection_origin(curve):
    """The first root of bisection_roots over the curve's period window where
    |f| is below ZERO_RADIUS_TOL, or None."""
    f = curve.eval_many
    for theta in bisection_roots(f, *curve.period_window()):
        if abs(f(np.array([theta]))[0]) < ZERO_RADIUS_TOL:
            return theta
    return None


def brute_hausdorff(za, zb):
    """max(sup_a inf_b |a-b|, sup_b inf_a |a-b|) over every point pair."""
    za = np.asarray(za, dtype=complex).reshape(-1)
    zb = np.asarray(zb, dtype=complex).reshape(-1)
    if za.size == 0 or zb.size == 0:
        raise ValueError("empty point set")
    d_ab = 0.0
    chunk = 1024
    mins_b = np.full(zb.shape, np.inf)
    for s in range(0, za.size, chunk):
        block = np.abs(za[s : s + chunk, None] - zb[None, :])
        d_ab = max(d_ab, float(block.min(axis=1).max()))
        np.minimum(mins_b, block.min(axis=0), out=mins_b)
    return max(d_ab, float(mins_b.max()))


_UFUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "sqrt": np.sqrt, "abs": np.abs}


def _has_var(node):
    if isinstance(node, Var):
        return True
    if isinstance(node, (Const, Param)):
        return False
    if isinstance(node, (Neg, Call)):
        return _has_var(node.arg)
    return _has_var(node.left) or _has_var(node.right)


def _tree_closure(node, params):
    if isinstance(node, Const):
        value = np.float64(node.value)
        return lambda xs: value
    if isinstance(node, Param):
        value = np.float64(params[node.name])
        return lambda xs: value
    if isinstance(node, Var):
        return lambda xs: xs
    if isinstance(node, Neg):
        arg = _tree_closure(node.arg, params)
        return lambda xs: -arg(xs)
    if isinstance(node, BinOp) and node.op != "^":
        left, right = _tree_closure(node.left, params), _tree_closure(node.right, params)
        return {
            "+": lambda xs: left(xs) + right(xs),
            "-": lambda xs: left(xs) - right(xs),
            "*": lambda xs: left(xs) * right(xs),
            "/": lambda xs: left(xs) / right(xs),
        }[node.op]
    operand = node.arg if isinstance(node, Call) else node.left
    arg = _tree_closure(operand, params)
    if not _has_var(operand):
        scalar = arg
        arg = lambda xs: np.full(xs.shape, scalar(xs))  # noqa: E731
    if isinstance(node, Call):
        func = _UFUNCS[node.func]
        return lambda xs: func(arg(xs))
    exponent = node.right.value
    if exponent != int(exponent) or abs(exponent) > 64:
        return lambda xs: arg(xs) ** np.float64(exponent)
    k = int(exponent)

    def power(xs):
        base = arg(xs)
        acc = np.ones(xs.shape)
        for _ in range(abs(k)):
            acc = acc * base
        return 1.0 / acc if k < 0 else acc

    return power


def tree_program(node, params=None):
    """Array evaluator of one AST: a fresh float array of xs.shape."""
    fn = _tree_closure(node, params or {})

    def program(xs):
        xs = np.asarray(xs, dtype=float)
        with np.errstate(all="ignore"):
            out = fn(xs)
        return np.full(xs.shape, out) if out is xs or np.ndim(out) == 0 else out

    return program


def one_shot_trace(curve, cfg, t_from, t_to, samples):
    """roulette.trace for a regular curve, all Gauss nodes in one array."""
    x, y, dx, dy = (tree_program(node, curve.params) for node in (curve.x, curve.y, curve.dx, curve.dy))
    ts = np.linspace(t_from, t_to, int(samples))
    half = 0.5 * (ts[1] - ts[0])
    nodes = ((ts[:-1] + half)[:, None] + half * G7_NODES).ravel()
    speeds = np.abs(dx(nodes) + 1j * dy(nodes)).reshape(-1, G7_NODES.size)
    velocity = dx(ts) + 1j * dy(ts)
    speed = np.abs(velocity)
    if min(float(np.min(speeds)), float(np.min(speed))) <= REGULARITY_TOL:
        raise RegularityError("tangent vector vanishes on the trace range")
    s = np.empty(ts.shape)
    s[0] = arc_length(curve, cfg.t0, float(ts[0]))
    s[1:] = s[0] + np.cumsum(speeds @ (half * G7_WEIGHTS))
    alpha = x(ts) + 1j * y(ts)
    unit = velocity / speed
    theta = s / cfg.radius
    if cfg.reverse:
        theta = -theta
    n = 1j * unit * cfg.radius
    if cfg.side == "normal":
        center = alpha + n
        point = center - n * np.exp(-1j * theta)
    else:
        center = alpha - n
        point = center + n * np.exp(1j * theta)
    return point + cfg.k * (point - center)


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


def points_equal(p: PolarPoint, q: PolarPoint) -> bool:
    """True when the two coordinate pairs name the same plane point (to 1e-9)."""
    return abs(p.to_complex() - q.to_complex()) < 1e-9


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
