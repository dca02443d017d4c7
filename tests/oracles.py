"""Independent verification oracles used only by the tests.

- rasterized_intersections counts intersection points by brute force:
  sample both graphs densely, collect point pairs closer than a pixel
  tolerance (close_pair_points), and single-linkage cluster them
  (cluster_points).  It never touches the equation-family solver.
- mc_common_area estimates the area of the intersection of two region
  unions by seeded rejection sampling, independent of any quadrature.
- bisection_roots is the plain reference for numerics.find_roots: the same
  grid, gates and dedupe rule, with vectorized bisection for sign changes
  and a scalar golden-section search per touching zero.
- brute_hausdorff is the plain reference for numerics.symmetric_hausdorff:
  every point pair in chunks of 1,024 rows, each distance np.abs of a complex
  difference, so the pruned scan must match it bit for bit.
"""

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from curvekit.numerics import (
    DEDUPE_FACTOR,
    DEFAULT_GRID_PER_TWO_PI,
    DEFAULT_TOL,
    POLE_MAGNITUDE,
    RESIDUAL_GATE,
    TANGENTIAL_GATE,
    TANGENTIAL_PREFILTER,
)

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


def mc_common_area(regions_a, regions_b, n=1_000_000, seed=20240501):
    """(estimate, sigma) for the area of (union A) intersect (union B)."""
    rmax = max(r.max_radius() for r in list(regions_a) + list(regions_b))
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
