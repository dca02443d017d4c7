import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import directed_hausdorff

from curvekit import numerics
from curvekit.area import SectorRegion, loop_area
from curvekit.intersect import graph_points
from curvekit.numerics import (
    DEFAULT_GRID_PER_TWO_PI,
    DEFAULT_TOL,
    RESIDUAL_GATE,
    RootList,
    _chandrupatla,
    _golden_abs_min,
    find_roots,
    integrate,
    linspace,
    symmetric_hausdorff,
)
from curvekit.polar import PolarCurve, positive_pieces
from oracles import (
    _frozen_chandrupatla,
    _frozen_golden_abs_min,
    bisection_roots,
    brute_hausdorff,
    frozen_find_roots,
)

TWO_PI = 2.0 * math.pi


class TestFindRoots:
    def test_tangential_zero(self):
        roots = find_roots(lambda th: np.cos(th) - 1.0, 0.0, TWO_PI, right_open=True)
        assert len(roots) == 1
        assert roots.roots[0] == pytest.approx(0.0, abs=1e-9)

    def test_simple_crossing(self):
        roots = find_roots(lambda th: np.sin(th) - np.cos(th), 0.0, math.pi / 2)
        assert len(roots) == 1
        assert roots.roots[0] == pytest.approx(math.pi / 4, abs=1e-9)

    def test_tan_family_with_poles(self):
        roots = find_roots(lambda th: np.tan(3.0 * th) - 1.0, 0.0, math.pi)
        expected = [math.pi / 12 + k * math.pi / 3 for k in range(3)]
        assert len(roots) == 3
        assert list(roots) == pytest.approx(expected, abs=1e-9)

    def test_residuals_small_and_sorted(self):
        roots = find_roots(lambda th: np.sin(2.0 * th), 0.1, TWO_PI - 0.1)
        assert all(res < 1e-6 for res in roots.residuals)
        assert list(roots) == sorted(roots)

    def test_grid_doubling_is_stable(self, monkeypatch):
        f = lambda th: np.tan(5.0 * th) - 1.0
        first = find_roots(f, 0.0, math.pi)
        monkeypatch.setattr(numerics, "DEFAULT_GRID_PER_TWO_PI", 2 * DEFAULT_GRID_PER_TWO_PI)
        second = find_roots(f, 0.0, math.pi)
        assert len(first) == len(second)
        assert np.allclose(list(first), list(second), atol=1e-9)

    def test_dense_roses_are_separated(self):
        f = lambda th: np.sin(12.0 * th) - np.cos(12.0 * th)
        roots = find_roots(f, 0.0, TWO_PI, right_open=True)
        assert len(roots) == 24

    def test_right_open_drops_endpoint(self):
        closed = find_roots(lambda th: np.sin(th), 0.0, TWO_PI)
        half = find_roots(lambda th: np.sin(th), 0.0, TWO_PI, right_open=True)
        assert len(closed) == len(half) + 1

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            find_roots(lambda th: th, 1.0, 1.0)

    def test_non_finite_endpoint_is_a_pole(self):
        # a pole at either end of the window breaks the grid there, as inside
        with np.errstate(divide="ignore"):
            assert len(find_roots(lambda th: 1.0 / th, 0.0, 1.0)) == 0
            assert len(find_roots(lambda th: 1.0 / (1.0 - th), 0.0, 1.0)) == 0
            roots = find_roots(lambda th: 1.0 / np.sin(th) - 2.0, 0.0, math.pi)
            both = find_roots(lambda th: 1.0 / np.sin(th) - 2.0, 0.0, TWO_PI)
        assert np.allclose(roots.roots, [math.pi / 6, 5 * math.pi / 6], atol=1e-12)
        assert roots.roots == both.roots

    def test_returns_rootlist(self):
        roots = find_roots(lambda th: np.cos(th), 0.0, math.pi)
        assert isinstance(roots, RootList)
        assert len(roots) == len(roots.residuals) == 1

    def test_matches_bisection_reference(self):
        for f, b in reference_equations():
            roots = find_roots(f, 0.0, b, right_open=True)
            expected = bisection_roots(f, 0.0, b, right_open=True)
            assert len(roots) == len(expected)
            assert np.allclose(list(roots), expected, rtol=0.0, atol=1e-10)
            if len(roots):
                assert np.all(np.abs(f(np.array(list(roots)))) < RESIDUAL_GATE)


def reference_equations():
    """Seeded trigonometric polynomials, plus rose, limacon and tangency
    equations as the intersection and decomposition code builds them."""
    rng = np.random.default_rng(20261018)
    for _ in range(120):
        k = int(rng.integers(1, 7))
        c, s = rng.normal(size=k + 1), rng.normal(size=k + 1)
        yield (lambda t, c=c, s=s: sum(c[j] * np.cos(j * t) + s[j] * np.sin(j * t)
                                       for j in range(len(c)))), TWO_PI
    def radius(text):
        return PolarCurve(text).eval_many

    for n in range(1, 13):
        f, g = radius(f"sin({n}*theta)"), radius(f"cos({n}*theta)")
        yield (lambda t, f=f, g=g: f(t) - g(t)), TWO_PI
        yield (lambda t, f=f, g=g: f(t) + g(t + math.pi)), TWO_PI
    for m, n in [(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]:
        yield radius(f"cos({m}*theta) - sin({n}*theta)"), 2.0 * TWO_PI
    for lam in (0.5, 1.0, 1.5, 2.0, 3.0):
        f, g = radius(f"1 - {lam}*sin(theta)"), radius(f"1 + {lam}*cos(theta)")
        yield radius(f"1 + {lam}*cos(theta)"), TWO_PI
        yield (lambda t, f=f, g=g: f(t) - g(t)), TWO_PI
    for text in ("2*cos(theta) - (1 + cos(theta))", "2*cos(theta) + (1 + cos(theta + pi))",
                 "cos(theta - 0.3) - 1", "1 - sin(theta)", "cos(3*theta) - 1",
                 "sin(2*theta)^2", "(cos(theta) - 0.4)^2"):
        yield radius(text), TWO_PI


def bits(values):
    return [float(v).hex() for v in values]


def frozen_reference_equations():
    """(f, a, b, right_open) as the origin and decomposition code hands them
    to find_roots, and the intersection families over the wider windows and
    m ranges that the intersection code used before it swept one period."""
    def families(t1, t2, params=None):
        c1, c2 = PolarCurve(t1, params), PolarCurve(t2, params)
        n1, n2 = c1.period_multiple_of_pi(), c2.period_multiple_of_pi()
        window = math.pi * math.lcm(n1, n2, 2)
        for m in range(2 * ((n2 + 1) // 2)):
            def equation(th, m=m):
                with np.errstate(invalid="ignore"):
                    return c1.eval_many(th) - (-1.0) ** m * c2.eval_many(th + m * math.pi)
            yield equation, 0.0, window, True
        for c, n in ((c1, n1), (c2, n2)):
            yield c.eval_many, 0.0, n * math.pi, False

    for n in range(1, 13):
        yield from families(f"sin({n}*theta)", f"cos({n}*theta)")
    for m in range(1, 10):
        for n in range(1, 10):
            if math.gcd(m, n) == 1 and (m, n) != (1, 1):
                yield from families(f"cos({m}*theta)", f"sin({n}*theta)")
    for lam in (0.5, 0.9, 1.0, 1.1, 2.0, 3.0):
        yield from families("1 - lambda*sin(theta)", "1 + lambda*cos(theta)", {"lambda": lam})
    for text in ("tan(theta)", "1/cos(theta)", "tan(theta) - 1/cos(theta)", "tan(3*theta) - 1",
                 "1 + cos(theta)", "sin(theta)^2"):
        curve = PolarCurve(text)
        for a, b in ((0.0, TWO_PI), (-1.0, 2.5), (math.pi / 2, 3 * math.pi)):
            yield curve.eval_many, a, b, False
            yield curve.eval_many, a, b, True


def _nan_gap(x):
    # x - 0.25 up to 0.4, NaN up to 0.6, then 1: the first round samples the
    # NaN, the second hits the exact zero 0.25 with the NaN as the other end
    return np.where(x <= 0.4, x - 0.25, np.where(x < 0.6, np.nan, 1.0))


def _sin5(x):
    return np.sin(5.0 * x)


_PI_GRID = np.linspace(0.0, math.pi, 1025)

# One bracket each: (id, f, lo, hi, f(lo), f(hi)).
SINGLE_BRACKETS = [
    ("nan-inside", _nan_gap, 0.0, 1.0, -0.25, 1.0),
    ("pole-at-hi", lambda x: 1.0 / (1.0 - x) - 3.0, 0.0, 1.0, -2.0, math.inf),
    ("pole-at-lo", lambda x: 3.0 - 1.0 / x, 0.0, 1.0, -math.inf, 2.0),
    ("zero-in-round-1", lambda x: x - 0.5, 0.0, 1.0, -0.5, 0.5),
    ("zero-mid-round", lambda x: x - 0.375, 0.0, 1.0, -0.375, 0.625),
    ("x3-equals-x2", lambda x: x - 0.25, 0.5, 0.5, -1.0, 1.0),
    ("no-sign-change", np.ones_like, 0.0, 1e100, 1.0, 1.0),
    ("no-sign-change-overflow", lambda x: x * x + 1.0, -1e200, 1e200, math.inf, math.inf),
    ("sin5-crossing", _sin5, _PI_GRID[204], _PI_GRID[205],
     _sin5(_PI_GRID[204]), _sin5(_PI_GRID[205])),
    ("sin5-window-end-touch", _sin5, _PI_GRID[1023], _PI_GRID[1024],
     _sin5(_PI_GRID[1023]), _sin5(_PI_GRID[1024])),
]


class TestFrozenReference:
    """find_roots returns the frozen copy's roots and residuals bit for bit."""

    @pytest.mark.parametrize("f, lo, hi, flo, fhi", [case[1:] for case in SINGLE_BRACKETS],
                             ids=[case[0] for case in SINGLE_BRACKETS])
    def test_single_bracket_kernels(self, f, lo, hi, flo, fhi):
        # a call with one bracket runs its rounds on Python floats
        args = [np.array([v]) for v in (lo, hi, flo, fhi)]
        with np.errstate(all="ignore"):
            assert bits(_chandrupatla(f, *args)) == bits(
                _frozen_chandrupatla(f, *args, DEFAULT_TOL))
            assert bits(_golden_abs_min(f, *args[:2])) == bits(
                _frozen_golden_abs_min(f, *args[:2], DEFAULT_TOL))

    def test_fixed_equations(self):
        count = roots = 0
        for f, a, b, right_open in frozen_reference_equations():
            with np.errstate(divide="ignore", invalid="ignore"):
                got = find_roots(f, a, b, right_open=right_open)
                expected_roots, expected_residuals = frozen_find_roots(f, a, b, right_open=right_open)
            assert bits(got.roots) == bits(expected_roots)
            assert bits(got.residuals) == bits(expected_residuals)
            count += 1
            roots += len(got)
        assert count == 324 and roots > 2500

    @pytest.mark.parametrize("grid_per_two_pi", [2, 7, 64, None])
    def test_random_trigonometric_polynomials_and_their_squares(self, monkeypatch,
                                                                grid_per_two_pi):
        # a coarse density gives find_roots' floor of 32 cells on these intervals
        if grid_per_two_pi is not None:
            monkeypatch.setattr(numerics, "DEFAULT_GRID_PER_TWO_PI", grid_per_two_pi)
        rng = np.random.default_rng(20261019)
        for _ in range(40):
            k = int(rng.integers(1, 7))
            c, s = rng.normal(size=k + 1), rng.normal(size=k + 1)
            f = lambda t, c=c, s=s: sum(c[j] * np.cos(j * t) + s[j] * np.sin(j * t)
                                        for j in range(len(c)))
            a = float(rng.uniform(-3.0, 3.0))
            b = a + float(rng.uniform(0.1, 13.0))
            for g in (f, lambda t, f=f: f(t) ** 2):  # squares only touch zero
                got = find_roots(g, a, b)
                grid_n = (None if grid_per_two_pi is None else
                          max(32, math.ceil(grid_per_two_pi * (b - a) / TWO_PI)))
                expected_roots, expected_residuals = frozen_find_roots(g, a, b, grid_n=grid_n)
                assert bits(got.roots) == bits(expected_roots)
                assert bits(got.residuals) == bits(expected_residuals)


class TestLinspace:
    @staticmethod
    def check(start, stop, num, endpoint=True):
        got = linspace(start, stop, num, endpoint)
        expected = np.linspace(start, stop, num, endpoint=endpoint)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (start, stop, num)

    def test_random_bounds(self):
        rng = np.random.default_rng(20261019)
        for _ in range(400):
            start, stop = rng.normal(size=2) * 10.0 ** rng.integers(-4, 5, size=2)
            num = int(rng.choice([0, 1, 2, 3, 17, 256, 1024, 2049, 3000]))
            self.check(float(start), float(stop), num, bool(rng.integers(0, 2)))

    @pytest.mark.parametrize("endpoint", [True, False])
    @pytest.mark.parametrize("num", [0, 1, 2, 3, 5, 1000, 3000])
    def test_edge_bounds(self, num, endpoint):
        for start, stop in ((1.5, 1.5), (3.0, -2.0), (0.0, 2 * math.pi), (-0.0, 0.0),
                            (0.0, 1e-320), (1.0, 1.0 + 5e-16), (0.0, 5e-324)):
            self.check(start, stop, num, endpoint)

    def test_subnormal_step_takes_numpys_division_first_branch(self):
        # 100 * 5e-324 / 2999 underflows to zero, so numpy divides the
        # indices first and scales them by the width after
        stop = 100 * 5e-324
        assert stop / 2999 == 0.0
        self.check(0.0, stop, 3000)
        assert linspace(0.0, stop, 3000)[1500] > 0.0


class TestIntegrate:
    def test_sine_hump(self):
        assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-9)

    def test_sin_squared_closed_form(self):
        # antiderivative of sin^2 is theta/2 - sin(2*theta)/4
        expected = math.pi / 8 - 0.25
        value = integrate(lambda t: np.sin(t) ** 2, 0.0, math.pi / 4)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_circle_circumference(self):
        speed = lambda t: abs(3j * np.exp(1j * t))  # |d/dt (3 e^{it})|
        value = integrate(speed, 0.0, TWO_PI)
        assert value == pytest.approx(6.0 * math.pi, abs=1e-10)

    def test_additivity(self):
        f = lambda t: np.exp(np.sin(3.0 * t))
        tol = 1e-10
        whole = integrate(f, 0.0, 2.0)
        split = integrate(f, 0.0, 0.731) + integrate(f, 0.731, 2.0)
        assert abs(split - whole) < 3.0 * tol

    @pytest.mark.parametrize("center", [0.0, 1.3])
    def test_odd_function_cancels(self, center):
        f = lambda t: (t - center) ** 3 * np.cos(t - center) + np.sin(t - center)
        tol = 1e-10
        assert abs(integrate(f, center - 2.0, center + 2.0)) < tol * 10

    def test_signed_orientation(self):
        forward = integrate(np.sin, 0.0, math.pi)
        assert integrate(np.sin, math.pi, 0.0) == -forward

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == 0.0

    def test_non_finite_sample(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                integrate(lambda t: np.divide(1.0, t), -1.0, 1.0)

    def test_pole_at_the_end_raises(self):
        # tan(pi/2) evaluates to a finite 1.6e16, so only the round cap stops it
        with pytest.raises(ValueError):
            integrate(lambda t: np.tan(t) ** 2, 0.0, math.pi / 2)

    def test_interior_pole_stops_at_the_panel_cap(self):
        # near the pole at t = 5.057 the open panels grew about 1.7-fold a
        # round, to 66M nodes by round 34; the budget fails such a run early
        curve = PolarCurve("(0.474 - 2.397/t)^(-4)")
        evaluated = []

        def f(t):
            evaluated.append(t.size)
            assert sum(evaluated) < 5_000_000, "open panels were not capped"
            return curve.eval_many(t)

        with pytest.raises(ValueError, match="did not converge"):
            integrate(f, 0.0, TWO_PI)

    def test_large_integrand_converges_at_the_rounding_floor(self):
        # |f|^2 ~ 2e6: an absolute tol of 1e-10 lies below its rounding noise
        region = SectorRegion(PolarCurve("1000*(1 + 0.5*cos(theta))"), (0.0, TWO_PI))
        start = time.perf_counter()
        value = loop_area(region)
        assert time.perf_counter() - start < 1.0
        assert value == pytest.approx(1.125e6 * math.pi, rel=1e-12)

    def test_cli_pole_in_loop_area_exits_cleanly(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "curvekit", "area", "--loop",
             "--c1", "tan(theta)", "--domain=0:pi/2"],
            capture_output=True, env=env, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestHausdorff:
    def test_identical_sets(self):
        z = np.exp(1j * np.linspace(0, 6, 100))
        assert symmetric_hausdorff(z, z) == 0.0

    def test_known_distance(self):
        a = np.array([0j, 1.0 + 0j])
        b = np.array([0j, 1.5 + 0j])
        assert symmetric_hausdorff(a, b) == pytest.approx(0.5)

    def test_graph_samples_on_a_pole_are_left_out(self):
        # 1/sin(theta) is the line y = 1; its sample at theta = 0 is inf + nan*i
        with np.errstate(all="raise"):
            points = graph_points(PolarCurve("1/sin(theta)"))
        assert points.size == 1023 and np.all(np.isfinite(points))
        assert np.allclose(points.imag, 1.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            symmetric_hausdorff(np.empty(0, dtype=complex), np.array([0j]))

    # Pairs that trace the same graph (as in the benchmark's identical-graph
    # intersect inputs): a 2k*pi shift, the half-turn form of the equality
    # rule, and the sign flip of an even rose.
    IDENTICAL_TEMPLATES = (
        ("cos({n}*theta)", "-cos({n}*theta + {n}*pi)", None),
        ("sin({n}*theta)", "sin({n}*(theta + 2*pi))", None),
        ("cos({m}*theta)", "-cos({m}*theta)", None),
        ("sin({n}*theta)", "-sin({n}*theta + {n}*pi)", None),
        ("1 - lambda*sin(theta)", "-1 - lambda*sin(theta)", "lambda"),
        ("1 + lambda*cos(theta)", "-1 + lambda*cos(theta)", "lambda"),
    )

    def _cases(self):
        rng = np.random.default_rng(20261018)

        def cloud(n):
            return rng.normal(size=n) + 1j * rng.normal(size=n)

        sizes = [1, 2, 5, 7, 8, 9, 15, 16, 17, 33, 256, 400]
        for n in sizes:
            m = int(rng.choice(sizes))
            yield cloud(n), cloud(m) + 5.0  # disjoint, unequal sizes
            z = cloud(n)
            yield z, rng.permutation(z) + 1e-9 * cloud(n)  # jittered permutation
            yield z, np.concatenate([z, cloud(m)])  # superset
            yield z, z * np.exp(1e-3j * rng.uniform(0.5, 2.0))  # small rotation
        for n in range(1, 13):
            for trig in (("sin", "cos"), ("cos", "sin")):
                yield self._graphs(f"{trig[0]}({n}*theta)", f"{trig[1]}({n}*theta)")
        for m in range(1, 10):
            for n in range(1, 10):
                if math.gcd(m, n) == 1 and (m, n) != (1, 1):
                    yield self._graphs(f"cos({m}*theta)", f"sin({n}*theta)")
        for t1, t2, name in self.IDENTICAL_TEMPLATES:
            for n in (1, 2, 5):
                params = {name: float(rng.uniform(0.3, 2.8))} if name else {}
                yield self._graphs(t1.format(n=n, m=2 * n), t2.format(n=n, m=2 * n), params)
        # degenerate clouds: every point at the origin, and a vertical line
        yield self._graphs("0*theta", "0*theta")
        yield self._graphs("1/cos(theta)", "1/cos(theta)")
        yield self._graphs("1/cos(theta)", "2/cos(theta)")
        # every pair of petals, as positive_pieces compares them
        for text in ("sin(4*theta)", "cos(6*theta)"):
            petals = [piece.sample_points()
                      for piece in positive_pieces(PolarCurve(text, domain=(0.0, TWO_PI)))]
            for i, za in enumerate(petals):
                for zb in petals[:i]:
                    yield za, zb

    @staticmethod
    def _graphs(t1, t2, params=None):
        return graph_points(PolarCurve(t1, params)), graph_points(PolarCurve(t2, params))

    def test_sweep_matches_brute_force(self):
        for za, zb in self._cases():
            exact = brute_hausdorff(za, zb)
            got = symmetric_hausdorff(za, zb)
            assert got == exact
            xa, xb = (np.column_stack([z.real, z.imag]) for z in (za, zb))
            reference = max(directed_hausdorff(xa, xb)[0], directed_hausdorff(xb, xa)[0])
            assert math.isclose(got, reference, rel_tol=1e-12)
            # with a bound: the same decision, and the exact value below it
            for bound in (1e-6, 1e-3, 0.1):
                got = symmetric_hausdorff(za, zb, bound)
                assert (got < bound) == (exact < bound)
                if exact < bound:
                    assert got == exact

    def test_bounding_box_exit_is_a_lower_bound(self):
        exits = sweeps = 0
        for za, zb in self._cases():
            exact = brute_hausdorff(za, zb)
            gap = max(abs(float(extreme(a)) - float(extreme(b)))
                      for a, b in ((za.real, zb.real), (za.imag, zb.imag))
                      for extreme in (np.min, np.max))
            for bound in (1e-6, 1e-3, 0.1):
                got = symmetric_hausdorff(za, zb, bound)
                if gap >= bound:
                    assert got == gap and bound <= got <= exact
                    exits += 1
                else:
                    sweeps += 1
        assert exits > 100 and sweeps > 100
