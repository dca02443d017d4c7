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
    RESIDUAL_GATE,
    RootList,
    find_roots,
    integrate,
    symmetric_hausdorff,
)
from curvekit.polar import PolarCurve
from oracles import bisection_roots, brute_hausdorff

TWO_PI = 2.0 * math.pi


class TestFindRoots:
    def test_tangential_zero(self):
        roots = find_roots(lambda th: np.cos(th) - 1.0, 0.0, TWO_PI, right_open=True)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-9)

    def test_simple_crossing(self):
        roots = find_roots(lambda th: np.sin(th) - np.cos(th), 0.0, math.pi / 2)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(math.pi / 4, abs=1e-9)

    def test_tan_family_with_poles(self):
        roots = find_roots(lambda th: np.tan(3.0 * th) - 1.0, 0.0, math.pi)
        expected = [math.pi / 12 + k * math.pi / 3 for k in range(3)]
        assert len(roots) == 3
        assert list(roots) == pytest.approx(expected, abs=1e-9)

    def test_residuals_small_and_sorted(self):
        roots = find_roots(lambda th: np.sin(2.0 * th), 0.1, TWO_PI - 0.1)
        assert all(res < 1e-6 for res in roots.residuals)
        assert list(roots) == sorted(roots)

    def test_grid_doubling_is_stable(self):
        f = lambda th: np.tan(5.0 * th) - 1.0
        first = find_roots(f, 0.0, math.pi, grid_n=2048)
        second = find_roots(f, 0.0, math.pi, grid_n=4096)
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

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            find_roots(lambda th: th, 0.0, 1.0, grid_n=1)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            find_roots(lambda th: th, 1.0, 1.0)

    def test_non_finite_endpoint(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="endpoint"):
                find_roots(lambda th: 1.0 / th, 0.0, 1.0)

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


class TestIntegrate:
    def test_sine_hump(self):
        assert integrate(np.sin, 0.0, math.pi, 1e-10) == pytest.approx(2.0, abs=1e-9)

    def test_sin_squared_closed_form(self):
        # antiderivative of sin^2 is theta/2 - sin(2*theta)/4
        expected = math.pi / 8 - 0.25
        value = integrate(lambda t: np.sin(t) ** 2, 0.0, math.pi / 4, 1e-10)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_circle_circumference(self):
        speed = lambda t: abs(3j * np.exp(1j * t))  # |d/dt (3 e^{it})|
        value = integrate(speed, 0.0, TWO_PI, 1e-10)
        assert value == pytest.approx(6.0 * math.pi, abs=1e-10)

    def test_additivity(self):
        f = lambda t: np.exp(np.sin(3.0 * t))
        tol = 1e-10
        whole = integrate(f, 0.0, 2.0, tol)
        split = integrate(f, 0.0, 0.731, tol) + integrate(f, 0.731, 2.0, tol)
        assert abs(split - whole) < 3.0 * tol

    @pytest.mark.parametrize("center", [0.0, 1.3])
    def test_odd_function_cancels(self, center):
        f = lambda t: (t - center) ** 3 * np.cos(t - center) + np.sin(t - center)
        tol = 1e-10
        assert abs(integrate(f, center - 2.0, center + 2.0, tol)) < tol * 10

    def test_signed_orientation(self):
        forward = integrate(np.sin, 0.0, math.pi, 1e-10)
        assert integrate(np.sin, math.pi, 0.0, 1e-10) == -forward

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == 0.0

    def test_non_finite_sample(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                integrate(lambda t: np.divide(1.0, t), -1.0, 1.0, 1e-10)

    def test_pole_at_the_end_raises(self):
        # tan(pi/2) evaluates to a finite 1.6e16, so only the round cap stops it
        with pytest.raises(ValueError):
            integrate(lambda t: np.tan(t) ** 2, 0.0, math.pi / 2, 1e-10)

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

    @staticmethod
    def _graphs(t1, t2, params=None):
        return graph_points(PolarCurve(t1, params)), graph_points(PolarCurve(t2, params))

    def test_pruned_scan_equals_brute_force(self, monkeypatch):
        full_blocks = []
        full_block = numerics._full_block_hausdorff

        def counting(za, zb):
            full_blocks.append(za.size)
            return full_block(za, zb)

        monkeypatch.setattr(numerics, "_full_block_hausdorff", counting)
        cases = 0
        for za, zb in self._cases():
            got = symmetric_hausdorff(za, zb)
            assert got == brute_hausdorff(za, zb)
            xa, xb = (np.column_stack([z.real, z.imag]) for z in (za, zb))
            reference = max(directed_hausdorff(xa, xb)[0], directed_hausdorff(xb, xa)[0])
            assert math.isclose(got, reference, rel_tol=1e-12)
            cases += 1
        # both branches ran: the pruned scan and the full block
        assert 0 < len(full_blocks) < cases
