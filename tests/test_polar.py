import math

import numpy as np
import pytest

from curvekit.expr import EvalError
from curvekit.polar import (
    PolarCurve,
    PolarPoint,
    is_reflection_symmetric,
    is_rotation_symmetric,
    points_equal,
    polar_period,
    positive_pieces,
    to_complex,
)

TWO_PI = 2.0 * math.pi


def coprime_pairs(limit=9):
    return [
        (m, n)
        for m in range(1, limit + 1)
        for n in range(1, limit + 1)
        if math.gcd(m, n) == 1
    ]


class TestPolarPoint:
    def test_unit_point(self):
        assert to_complex(PolarPoint(1.0, 0.0)) == 1.0 + 0.0j

    def test_half_radius_at_sixty_degrees(self):
        z = to_complex(PolarPoint(0.5, math.pi / 3))
        assert z.real == pytest.approx(0.25, abs=1e-15)
        assert z.imag == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)

    def test_negative_radius_convention(self):
        assert to_complex(PolarPoint(-1.0, 0.0)) == pytest.approx(-1.0 + 0j)
        assert points_equal(PolarPoint(-1.0, 0.0), PolarPoint(1.0, math.pi))

    def test_canonical_ranges(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            p = PolarPoint(float(rng.uniform(-5, 5)), float(rng.uniform(-20, 20)))
            c = p.canonical()
            assert c.r >= 0.0
            assert 0.0 <= c.theta < TWO_PI
            assert abs(c.to_complex() - p.to_complex()) < 1e-12 * (1.0 + abs(p.r))

    def test_origin_canonicalizes_to_zero_angle(self):
        assert PolarPoint(0.0, 2.3).canonical() == PolarPoint(0.0, 0.0)

    def test_equality_rule_soundness(self):
        # (r, theta) and ((-1)^n r, theta + n*pi) always name the same point
        rng = np.random.default_rng(4242)
        for _ in range(300):
            r = float(rng.uniform(-3, 3))
            theta = float(rng.uniform(-10, 10))
            n = int(rng.integers(-6, 7))
            q = PolarPoint((-1.0) ** n * r, theta + n * math.pi)
            assert points_equal(PolarPoint(r, theta), q, tol=1e-9)

    def test_mod_two_pi_branch(self):
        assert points_equal(PolarPoint(1.0, 0.0), PolarPoint(1.0, TWO_PI))
        assert not points_equal(PolarPoint(1.0, math.pi / 4), PolarPoint(1.0, -math.pi / 4))


class TestPeriod:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("cos(theta)", 1),
            ("cos(theta/2)", 4),
            ("cos(3*theta/5)", 5),
            ("sin(2*theta)", 2),
            ("1", 2),
            ("1/cos(theta)", 1),
            ("tan(theta)", 2),
        ],
    )
    def test_examples(self, text, expected):
        assert polar_period(PolarCurve(text)) == expected

    def test_rule_for_all_coprime_pairs(self):
        for m, n in coprime_pairs(9):
            curve = PolarCurve(f"cos({m}*theta/{n})")
            expected = 2 * n if (m * n) % 2 == 0 else n
            assert polar_period(curve, max_multiple=20) == expected, (m, n)

    def test_aperiodic_returns_none(self):
        assert polar_period(PolarCurve("t/10"), max_multiple=8) is None

    def test_nan_sample_raises(self):
        # sqrt(cos) is undefined on (pi/2, 3pi/2): NaN is not a pole, and the
        # error names the first sample of that stretch, 257*pi/512
        with pytest.raises(EvalError, match=r"undefined at theta = 1\.5769"):
            polar_period(PolarCurve("sqrt(cos(theta))"))

    def test_degenerate_zero_curve(self):
        assert polar_period(PolarCurve("0")) == 1

    def test_cached(self):
        curve = PolarCurve("cos(theta/2)")
        assert curve.period_multiple_of_pi() == 4
        assert curve.period_multiple_of_pi() == 4

    def test_small_search_bound_does_not_poison_the_cache(self):
        curve = PolarCurve("cos(3*theta/5)")
        assert curve.period_multiple_of_pi(max_multiple=3) is None
        assert curve.period_multiple_of_pi(max_multiple=64) == 5
        assert curve.period_multiple_of_pi(max_multiple=3) is None


class TestSymmetry:
    def test_rotation_by_full_period_angle(self):
        curve = PolarCurve("cos(theta/2)")  # period 4*pi, an even multiple
        assert is_rotation_symmetric(curve, 4.0 * math.pi)

    def test_rose_quarter_turn(self):
        assert is_rotation_symmetric(PolarCurve("sin(2*theta)"), math.pi / 2)

    def test_circle_quarter_turn_fails(self):
        assert not is_rotation_symmetric(PolarCurve("cos(theta)"), math.pi / 2)

    def test_x_axis_reflection_always_holds(self):
        for m, n in [(1, 1), (2, 3), (3, 5), (4, 7)]:
            curve = PolarCurve(f"cos({m}*theta/{n})")
            assert is_reflection_symmetric(curve, 0.0), (m, n)

    def test_y_axis_reflection_even_case(self):
        assert is_reflection_symmetric(PolarCurve("cos(2*theta/3)"), math.pi / 2)

    def test_y_axis_reflection_odd_case_fails(self):
        assert not is_reflection_symmetric(PolarCurve("cos(3*theta/5)"), math.pi / 2)

    def test_reflection_through_petal_axis(self):
        # sin(2*(pi/2 - theta)) = sin(2*theta): the diagonal splits a petal
        assert is_reflection_symmetric(PolarCurve("sin(2*theta)"), math.pi / 4)
        assert not is_reflection_symmetric(PolarCurve("sin(2*theta)"), math.pi / 8)

    def test_rotation_group_property(self):
        for text, theta0 in [("sin(2*theta)", math.pi / 2), ("cos(3*theta)", math.pi / 3)]:
            curve = PolarCurve(text)
            if is_rotation_symmetric(curve, theta0):
                assert is_rotation_symmetric(curve, -theta0)

    def test_aperiodic_needs_max_n(self):
        with pytest.raises(ValueError):
            is_rotation_symmetric(PolarCurve("t/10"), math.pi)

    def test_pole_samples_are_left_out_of_reflection(self):
        # the line y = 1 mirrors onto itself across the y axis; its pole
        # samples at theta = 0 and pi must not count as a mismatch
        assert is_reflection_symmetric(PolarCurve("1/sin(theta)"), math.pi / 2)

    def test_pole_samples_are_left_out_of_rotation(self):
        # tan(theta + pi) = tan(theta); only the samples on its poles, whose
        # finite values 1.6e16 and 5.4e15 are rounding noise, disagree
        assert is_rotation_symmetric(PolarCurve("tan(theta)"), math.pi)

    def test_nan_sample_names_its_angle(self):
        with pytest.raises(EvalError, match=r"undefined at theta = 1\.5769"):
            is_rotation_symmetric(PolarCurve("sqrt(cos(theta))"), math.pi, max_n=2)


def membership_distance(curve, g_value, phi, n_range=5):
    """min over |n| <= n_range of |g(phi) - (-1)^n f(phi + n*pi)|."""
    best = math.inf
    for n in range(-n_range, n_range + 1):
        try:
            fv = curve.eval(phi + n * math.pi)
        except EvalError:
            continue
        best = min(best, abs(g_value - (-1.0) ** n * fv))
    return best


class TestPositivePieces:
    def test_sine_circle_traced_twice(self):
        dec = positive_pieces(PolarCurve("sin(theta)", domain=(0.0, TWO_PI)))
        assert len(dec) == 2
        flags = [p.traced_twice for p in dec]
        assert flags.count(True) == 1
        for piece in dec:
            a, b = piece.interval
            assert b - a == pytest.approx(math.pi, abs=1e-8)

    def test_half_angle_cosine_matches_half_angle_sine(self):
        curve = PolarCurve("cos(theta/2)", domain=(0.0, TWO_PI))
        dec = positive_pieces(curve)
        assert len(dec) == 2
        assert not any(p.traced_twice for p in dec)
        (transformed,) = [p for p in dec if p.curve.radius != curve.radius]
        phis = np.linspace(max(transformed.interval[0], 0.0), math.pi, 200)
        values = transformed.curve.eval_many(phis)
        assert np.max(np.abs(values - np.sin(phis / 2.0))) < 1e-9

    def test_limacon_loops(self):
        lam = 2.0
        theta0 = math.asin(1.0 / lam)
        dec = positive_pieces(PolarCurve("1 - lambda*sin(theta)", {"lambda": lam}))
        assert len(dec) == 2
        large = dec[0]
        small = dec[1]
        assert large.interval[0] == pytest.approx(math.pi - theta0, abs=1e-8)
        assert large.interval[1] == pytest.approx(theta0 + TWO_PI, abs=1e-8)
        assert small.interval[0] == pytest.approx(theta0 + math.pi, abs=1e-8)
        assert small.interval[1] == pytest.approx(TWO_PI - theta0, abs=1e-8)
        phis = np.linspace(small.interval[0], small.interval[1], 200)
        expected = -(1.0 + lam * np.sin(phis))
        assert np.max(np.abs(small.curve.eval_many(phis) - expected)) < 1e-9

    def test_degenerate_zero_curve_single_piece(self):
        dec = positive_pieces(PolarCurve("0"))
        assert len(dec) == 1
        assert dec[0].interval == (0.0, TWO_PI)

    @pytest.mark.parametrize(
        "text,params",
        [
            ("sin(theta)", None),
            ("cos(theta)", None),
            ("cos(theta/2)", None),
            ("sin(3*theta)", None),
            ("1 - lambda*sin(theta)", {"lambda": 2.0}),
        ],
    )
    def test_pieces_are_nonnegative_and_cover_the_graph(self, text, params):
        curve = PolarCurve(text, params)
        n = curve.period_multiple_of_pi()
        curve = PolarCurve(text, params, domain=(0.0, n * math.pi))
        dec = positive_pieces(curve)

        for piece in dec:
            lo, hi = piece.interval
            samples = piece.curve.eval_many(np.linspace(lo, hi, 1024))
            assert float(np.min(samples)) >= -1e-9

        # each piece point lies on the original graph (membership rule) ...
        for piece in dec:
            lo, hi = piece.interval
            for phi in np.linspace(lo, hi, 50):
                g = float(piece.curve.eval_many(np.array([phi]))[0])
                assert membership_distance(curve, g, float(phi)) < 1e-8

        # ... and each original point is reproduced by some piece: in canonical
        # coordinates (r >= 0) some piece boundary passes through it exactly
        for theta in np.linspace(curve.domain[0], curve.domain[1], 200, endpoint=False):
            theta = float(theta)
            r = curve.eval(theta)
            theta_c = theta if r >= 0 else theta + math.pi
            r_c = abs(r)
            best = math.inf
            for piece in dec:
                lo, hi = piece.interval
                k_lo = math.floor((lo - theta_c) / TWO_PI)
                k_hi = math.ceil((hi - theta_c) / TWO_PI)
                for k in range(k_lo, k_hi + 1):
                    phi = theta_c + k * TWO_PI
                    if lo - 1e-9 <= phi <= hi + 1e-9:
                        g = float(piece.curve.eval_many(np.array([phi]))[0])
                        best = min(best, abs(g - r_c))
            assert best < 1e-8, (text, theta)
