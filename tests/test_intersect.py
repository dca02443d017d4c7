import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from curvekit import intersect, numerics, polar
from curvekit.intersect import (
    IDENTICAL_GRAPH_TOL,
    IdenticalCurvesError,
    intersections,
    origin_on_curve,
)
from curvekit.polar import PolarCurve
from helpers import radius_at, record_hausdorff_bounds
from oracles import bisection_origin, rasterized_intersections

SQ3_4 = math.sqrt(3.0) / 4.0


def curve(text, params=None):
    return PolarCurve(text, params)


def smallest_witnesses(f, g, z):
    """Smallest (theta1, theta2) with theta1 in [0, n1*pi), theta2 = theta1 +
    m*pi for 0 <= m < n2, and f(theta1) e^(i theta1) = z = g(theta2) e^(i theta2),
    from the phase of z and the scalar evaluator, to 1e-7."""
    n1, n2 = f.period_multiple_of_pi(), g.period_multiple_of_pi()
    phase = cmath.phase(z) % (2.0 * math.pi)
    for k in range(-1, n1):
        theta1 = phase + k * math.pi
        if not 0.0 <= theta1 < n1 * math.pi or abs(radius_at(f, theta1) * cmath.exp(1j * theta1) - z) >= 1e-7:
            continue
        for m in range(n2):
            theta2 = theta1 + m * math.pi
            if abs(radius_at(g, theta2) * cmath.exp(1j * theta2) - z) < 1e-7:
                return theta1, theta1 + m * math.pi
    raise AssertionError(f"no witness pair for {z}")


def assert_smallest_witnesses(t1, t2, count):
    """theta1 runs over one period of the first curve and theta2 - theta1
    over m*pi, m < n2; among the witness pairs of each point the reported
    one is the smallest, whatever rounding noise twin roots carry."""
    f, g = curve(t1), curve(t2)
    n1, n2 = f.period_multiple_of_pi(), g.period_multiple_of_pi()
    result = intersections(f, g)
    assert len(result.points) == count
    phases = [round(math.atan2(p.point.imag, p.point.real) % (2.0 * math.pi), 9)
              for p in result.points]
    assert phases == sorted(phases)
    for p in result.points:
        assert 0.0 <= p.theta1 < n1 * math.pi
        assert 0.0 <= p.theta2 - p.theta1 < n2 * math.pi
        assert (p.theta1, p.theta2) == pytest.approx(smallest_witnesses(f, g, p.point), abs=1e-9)
    return result


def point_set(result):
    return sorted((round(p.point.real, 8), round(p.point.imag, 8)) for p in result.points)


class TestOriginOnCurve:
    def test_never_zero(self):
        assert origin_on_curve(curve("1")) is None

    def test_cosine(self):
        assert origin_on_curve(curve("cos(theta)")) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_limacon(self):
        lam = 2.0
        theta = origin_on_curve(curve("1 - lambda*sin(theta)", {"lambda": lam}))
        assert theta == pytest.approx(math.asin(1.0 / lam), abs=1e-9)

    def test_one_root_search_per_distinct_curve(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return numerics.find_roots(*args, **kwargs)

        monkeypatch.setattr(intersect, "find_roots", counting)
        polar._record_for.cache_clear()
        c = curve("1 - lambda*sin(theta)", {"lambda": 2.0})
        first = origin_on_curve(c)
        assert len(calls) == 1
        assert origin_on_curve(curve("1 - lambda*sin(theta)", {"lambda": 2.0})) == first
        assert len(calls) == 1


def library_intersect_curves(seeds, count):
    """Every distinct curve of the intersect ops among the first count ops of
    the benchmark's `library` workload for each seed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    texts = {}
    for seed in seeds:
        for op in inputs.ops_for("library", seed)[:count]:
            if op["family"] == "intersect":
                for text, params in ((op["c1"], op["p1"]), (op["c2"], op["p2"])):
                    texts[text, tuple(sorted(params.items()))] = None
    return [curve(text, dict(params)) for text, params in texts]


def assert_origin_matches_bisection(c):
    expected = bisection_origin(c)
    got = origin_on_curve(c)
    assert (got is None) == (expected is None), c
    if got is not None:
        assert abs(got - expected) < 1e-9, c


class TestOriginFirstZero:
    """origin_on_curve finds the first zero that bisection finds."""

    def test_library_curves(self):
        curves = library_intersect_curves((1, 7), 5400)
        assert len(curves) > 3000
        for c in curves:
            assert_origin_matches_bisection(c)

    def test_roses_limacons_and_poles(self):
        texts = [f"{trig}({n}*theta)" for n in range(1, 25) for trig in ("sin", "cos")]
        texts += [f"cos({n}*theta/3)" for n in range(1, 25)]
        texts += ["1 + cos(theta)", "tan(theta)", "1/cos(theta)", "sin(theta)^2",
                  "abs(sin(3*theta))"]
        curves = [curve(text) for text in texts]
        curves += [curve(text, {"lambda": lam})
                   for lam in (0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 2.8, 3.0)
                   for text in ("1 - lambda*sin(theta)", "1 + lambda*cos(theta)",
                                "lambda*cos(theta) - 1")]
        found = 0
        for c in curves:
            assert_origin_matches_bisection(c)
            found += origin_on_curve(c) is not None
        assert found > 90

    def test_dedupe_keeps_a_later_root_with_a_smaller_residual(self):
        # zeros 8e-10 apart straddle grid node 100 of [0, 2*pi]; each cell's
        # root passes, and the dedupe keeps the second, with the smaller |f|
        node = 100 * 2.0 * math.pi / 2048
        c = curve("sin(theta - p)*sin(q - theta)", {"p": node - 3e-10, "q": node + 5e-10})
        roots = numerics.find_roots(c.eval_many, *c.period_window())
        assert roots.roots[0] > node and roots.residuals[0] < intersect.ZERO_RADIUS_TOL
        assert origin_on_curve(c) == roots.roots[0]
        assert_origin_matches_bisection(c)

    def test_exact_zero_at_the_window_start_is_the_witness(self):
        # sin(5*theta) is 0 at theta = 0 and rounds to 6e-16 at the window
        # end pi, a touching zero that is refined but comes later
        c = curve("sin(5*theta)")
        assert origin_on_curve(c) == 0.0
        assert_origin_matches_bisection(c)


class TestLayerCalls:
    def test_origin_of_second_curve_skipped_when_first_misses(self, monkeypatch):
        c1, c2 = curve("1 - 0.5*sin(theta)"), curve("cos(theta)")
        expected = intersections(c1, c2)
        calls = []

        def counting(c):
            calls.append(c)
            return origin_on_curve(c)

        monkeypatch.setattr(intersect, "origin_on_curve", counting)
        result = intersections(c1, c2)
        assert calls == [c1]
        assert result == expected
        assert not result.origin and result.origin_witnesses is None
        assert point_set(result) == [(0.36, 0.48), (1.0, 0.0)]

    @pytest.mark.parametrize("t1, t2", [("sin(5*theta)", "cos(5*theta)"),
                                        ("cos(3*theta)", "-cos(3*theta + 3*pi)")])
    def test_graph_identity_is_one_bounded_hausdorff_call(self, monkeypatch, t1, t2):
        bounds = record_hausdorff_bounds(monkeypatch, intersect)
        try:
            intersections(curve(t1), curve(t2))
        except IdenticalCurvesError:
            pass
        assert bounds == [IDENTICAL_GRAPH_TOL]


class TestGoldenPairs:
    def test_unit_circle_and_cosine(self):
        result = intersections(curve("1"), curve("cos(theta)"))
        assert not result.origin
        assert len(result.points) == 1
        assert abs(result.points[0].point - 1.0) < 1e-8

    def test_cardioid_pair(self):
        result = intersections(curve("cos(theta)"), curve("1 - cos(theta)"))
        assert result.origin
        assert len(result.points) == 2
        expected = sorted([(0.25, SQ3_4), (0.25, -SQ3_4)])
        got = point_set(result)
        for (gx, gy), (ex, ey) in zip(got, expected):
            assert abs(gx - ex) < 1e-8 and abs(gy - ey) < 1e-8
        # three common points in total, counting the origin
        assert len(result.points) + result.origin == 3

    def test_circle_and_cardioid_tangency(self):
        # Solving 1 + cos = 2cos gives cos(theta) = 1, i.e. theta = 0 where
        # both radii equal 2: the nonzero common point is z = 2 (the brute
        # force oracle below agrees).
        result = intersections(curve("2*cos(theta)"), curve("1 + cos(theta)"))
        assert result.origin
        assert len(result.points) == 1
        assert abs(result.points[0].point - 2.0) < 1e-8
        count, reps, origin_hit = rasterized_intersections(
            curve("2*cos(theta)"), curve("1 + cos(theta)")
        )
        assert count == 2 and origin_hit
        nonzero = reps[np.abs(reps) > 1e-2]
        assert len(nonzero) == 1
        assert abs(nonzero[0] - 2.0) < 5e-2  # tangency arc centroid


class TestRoseCounts:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 8), (3, 3), (4, 16), (5, 5)])
    def test_same_order_roses(self, n, expected):
        c1 = curve(f"sin({n}*theta)")
        c2 = curve(f"cos({n}*theta)")
        assert len(intersections(c1, c2).points) == expected

    @pytest.mark.parametrize("m,n", [(3, 1), (5, 3), (7, 5)])
    def test_mixed_odd_roses(self, m, n):
        c1 = curve(f"cos({m}*theta)")
        c2 = curve(f"sin({n}*theta)")
        assert len(intersections(c1, c2).points) == max(m, n)

    def test_against_rasterization_oracle(self):
        for spec in [("sin(3*theta)", "cos(3*theta)"), ("cos(5*theta)", "sin(3*theta)")]:
            c1, c2 = curve(spec[0]), curve(spec[1])
            result = intersections(c1, c2)
            clusters, _, origin_hit = rasterized_intersections(c1, c2)
            assert clusters == len(result.points) + (1 if result.origin else 0)
            assert origin_hit == result.origin


class TestInvariants:
    @pytest.mark.parametrize(
        "t1,t2",
        [
            ("cos(theta)", "1 - cos(theta)"),
            ("sin(3*theta)", "cos(3*theta)"),
            ("1", "cos(theta)"),
        ],
    )
    def test_argument_symmetry(self, t1, t2):
        forward = intersections(curve(t1), curve(t2))
        backward = intersections(curve(t2), curve(t1))
        assert point_set(forward) == point_set(backward)
        assert forward.origin == backward.origin

    def test_witnesses_map_to_the_point(self):
        result = intersections(curve("sin(3*theta)"), curve("cos(3*theta)"))
        f = curve("sin(3*theta)")
        g = curve("cos(3*theta)")
        for p in result.points:
            z1 = radius_at(f, p.theta1) * np.exp(1j * p.theta1)
            z2 = radius_at(g, p.theta2) * np.exp(1j * p.theta2)
            assert abs(z1 - p.point) < 1e-8
            assert abs(z2 - p.point) < 1e-8

    def test_points_are_distinct(self):
        result = intersections(curve("sin(4*theta)"), curve("cos(4*theta)"))
        pts = [p.point for p in result.points]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert abs(pts[i] - pts[j]) > 1e-8

    def test_canonical_ordering_is_reproducible(self):
        first = intersections(curve("sin(3*theta)"), curve("cos(3*theta)"))
        second = intersections(curve("sin(3*theta)"), curve("cos(3*theta)"))
        assert [p.point for p in first.points] == [p.point for p in second.points]
        assert [p.theta1 for p in first.points] == [p.theta1 for p in second.points]

    def test_witnesses_are_the_smallest_angles(self):
        # sin(5t) = cos(5t) at t = pi/20 + k*pi/5 in [0, pi), one period of
        # sin(5t), with both curves on the same ray (m = 0)
        result = assert_smallest_witnesses("sin(5*theta)", "cos(5*theta)", 5)
        witnesses = sorted(p.theta1 for p in result.points)
        expected = [math.pi / 20.0 + k * math.pi / 5.0 for k in range(5)]
        assert witnesses == pytest.approx(expected, abs=1e-9)
        for p in result.points:
            assert p.theta2 == p.theta1

    # pairs whose points were once reported with theta2 - theta1 = n2*pi
    @pytest.mark.parametrize("t1, t2, count", [
        ("sin(7*theta)", "cos(7*theta)", 7),
        ("cos(theta)", "sin(5*theta)", 5),
        ("cos(8*theta)", "sin(3*theta)", 15),
        ("cos(2*theta)", "sin(9*theta)", 17),
    ])
    def test_witnesses_are_the_smallest_angles_for_every_offset(self, t1, t2, count):
        assert_smallest_witnesses(t1, t2, count)


class TestDegenerate:
    def test_same_expression(self):
        with pytest.raises(IdenticalCurvesError):
            intersections(curve("cos(theta)"), curve("cos(theta)"))

    def test_negated_constant_is_the_same_circle(self):
        with pytest.raises(IdenticalCurvesError):
            intersections(curve("1"), curve("-1"))

    def test_disguised_identity(self):
        with pytest.raises(IdenticalCurvesError):
            intersections(curve("cos(theta)"), curve("sin(theta + pi/2)"))

    def test_mirror_circles_meet_only_at_origin(self):
        # r = -cos(theta) is the mirror circle through the origin, not the
        # same graph: x = cos^2 >= 0 on one, <= 0 on the other
        result = intersections(curve("cos(theta)"), curve("-cos(theta)"))
        assert result.origin
        assert len(result.points) == 0

    def test_aperiodic_curve_rejected(self):
        with pytest.raises(ValueError):
            intersections(curve("theta/10"), curve("1"))
