import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from curvekit.roulette import (
    _TRACE_BLOCK,
    ParamCurve,
    RegularityError,
    RollConfig,
    arc_length,
    circle,
    ellipse,
    limacon,
    line,
    roll_state,
    trace,
)
from oracles import cycloid_point, epicycloid_point, hypocycloid_point, one_shot_trace

TWO_PI = 2.0 * math.pi


class TestParamCurve:
    def test_line_is_the_x_axis(self):
        base = line()
        assert base.point(2.5) == 2.5 + 0.0j
        assert base.velocity(2.5) == 1.0 + 0.0j

    def test_circle_velocity_is_tangent(self):
        base = circle(2.0)
        t = 0.8
        assert base.velocity(t) == pytest.approx(2j * np.exp(1j * t), abs=1e-12)

    def test_degenerate_curve_rejected(self):
        with pytest.raises(RegularityError):
            ParamCurve("1", "2")

    @pytest.mark.parametrize("make, args", [(ellipse, (0.0, 1.0)), (ellipse, (1e-12, 1.0)),
                                            (limacon, (1.0,)), (limacon, (-1.0,))],
                             ids=["ellipse(0, 1)", "ellipse(1e-12, 1)", "limacon(1)", "limacon(-1)"])
    def test_closed_bases_with_a_vanishing_tangent_rejected(self, make, args):
        # ellipse(0, 1)'s tangent vanishes at t = pi/2 and the limacons' at
        # t = pi or 0, between the samples of ParamCurve's own check
        with pytest.raises(RegularityError, match="tangent vector vanishes on the domain"):
            make(*args)

    def test_unbound_parameter(self):
        from curvekit.expr import EvalError

        with pytest.raises(EvalError):
            ParamCurve("R*cos(t)", "R*sin(t)")


class TestArcLength:
    def test_line(self):
        assert arc_length(line(), 0.0, 5.0) == pytest.approx(5.0, abs=1e-12)

    def test_circle(self):
        assert arc_length(circle(2.0), 0.0, math.pi) == pytest.approx(TWO_PI, abs=1e-10)

    def test_signed(self):
        assert arc_length(circle(2.0), math.pi, 0.0) == pytest.approx(-TWO_PI, abs=1e-10)

    def test_ellipse_perimeter_against_elliptic_integral(self):
        perimeter = arc_length(ellipse(3.0, 2.0), 0.0, TWO_PI)
        oracle = 12.0 * scipy.special.ellipe(1.0 - 4.0 / 9.0)
        assert perimeter == pytest.approx(oracle, abs=1e-10)
        assert perimeter == pytest.approx(15.86543958929059, abs=1e-8)

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            arc_length(circle(1.0), 0.0, 100.0)

    def test_ellipse_arc_where_the_coarse_estimate_agreed_by_accident(self):
        # coarse and refined Simpson estimates agree here by accident (1.6e-8 off)
        a, b, t = 2.3773612175017997, 1.9941926833573573, 3.301203937875852
        assert abs(arc_length(ellipse(a, b), 0.0, t) - quad_ellipse_arc(a, b, t)) < 1e-12
        assert quad_ellipse_arc(a, b, t) == pytest.approx(7.1988770111327, abs=1e-12)

    def test_random_ellipse_arcs_against_quad(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            a, b = rng.uniform(2.0, 4.0), rng.uniform(1.0, 2.0)
            t = rng.uniform(0.0, TWO_PI)
            assert abs(arc_length(ellipse(a, b), 0.0, t) - quad_ellipse_arc(a, b, t)) < 1e-12


def quad_ellipse_arc(a, b, t):
    """Independent oracle: QUADPACK on the scalar speed of (a cos s, b sin s)."""
    def speed(s):
        return math.hypot(a * math.sin(s), b * math.cos(s))

    return scipy.integrate.quad(speed, 0.0, t, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


class TestRollState:
    def test_initial_contact(self):
        state = roll_state(line(), RollConfig(1.0), 0.0)
        assert state.point == pytest.approx(0.0 + 0.0j, abs=1e-12)
        assert state.center == pytest.approx(1j, abs=1e-12)

    def test_cycloid_apex(self):
        state = roll_state(line(), RollConfig(1.0), math.pi)
        assert state.point == pytest.approx(math.pi + 2.0j, abs=1e-12)

    def test_epicycloid_quarter_turn(self):
        state = roll_state(circle(2.0), RollConfig(1.0, side="antinormal"), math.pi / 2)
        assert state.point == pytest.approx(4.0j, abs=1e-12)

    def test_tusi_couple_degenerates_to_diameter(self):
        base = circle(2.0)
        for t in (0.3, 1.1, 2.8, 4.0):
            state = roll_state(base, RollConfig(1.0, side="normal"), t)
            assert state.point == pytest.approx(2.0 * math.cos(t) + 0.0j, abs=1e-10)

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            roll_state(circle(1.0), RollConfig(0.5), 10.0 * math.pi)

    def test_regularity_failure_at_point(self):
        base = ParamCurve("t^2", "t^2", domain=(-1.0, 1.0))  # alpha'(0) = 0
        with pytest.raises(RegularityError):
            roll_state(base, RollConfig(1.0), 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RollConfig(0.0)
        with pytest.raises(ValueError):
            RollConfig(1.0, side="left")


class TestClosedFormOracles:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_cycloid(self, r):
        base = line()
        cfg = RollConfig(r)
        for t in np.linspace(0.0, 4.0 * math.pi * r, 200):
            assert abs(roll_state(base, cfg, float(t)).point - cycloid_point(r, float(t))) < 1e-8

    @pytest.mark.parametrize("big_r,r", [(2.0, 1.0), (3.0, 1.0), (5.0, 2.0)])
    def test_epicycloid(self, big_r, r):
        base = circle(big_r)
        cfg = RollConfig(r, side="antinormal")
        for t in np.linspace(0.0, TWO_PI, 200):
            expected = epicycloid_point(big_r, r, float(t))
            assert abs(roll_state(base, cfg, float(t)).point - expected) < 1e-8

    @pytest.mark.parametrize("big_r,r", [(3.0, 1.0), (4.0, 1.0), (5.0, 2.0)])
    def test_hypocycloid(self, big_r, r):
        base = circle(big_r)
        cfg = RollConfig(r, side="normal")
        for t in np.linspace(0.0, TWO_PI, 200):
            expected = hypocycloid_point(big_r, r, float(t))
            assert abs(roll_state(base, cfg, float(t)).point - expected) < 1e-8

    def test_closed_form_domain_checks(self):
        with pytest.raises(ValueError):
            epicycloid_point(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            hypocycloid_point(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            cycloid_point(-1.0, 0.0)

    def test_cycloid_examples(self):
        assert cycloid_point(1.0, 0.0) == 0.0 + 0.0j
        assert cycloid_point(1.0, math.pi) == pytest.approx(math.pi + 2.0j, abs=1e-15)
        assert cycloid_point(2.0, 4.0 * math.pi) == pytest.approx(4.0 * math.pi + 0.0j, abs=1e-12)

    def test_point_examples(self):
        assert epicycloid_point(3.0, 1.0, 0.0) == pytest.approx(3.0 + 0j, abs=1e-15)
        assert hypocycloid_point(2.0, 1.0, math.pi / 2) == pytest.approx(0.0 + 0j, abs=1e-15)
        assert epicycloid_point(2.0, 1.0, math.pi / 2) == pytest.approx(4.0j, abs=1e-12)


class TestTrace:
    def test_cycloid_ends_on_the_line(self):
        points = trace(line(), RollConfig(1.0), 0.0, TWO_PI, 400)
        assert abs(points[0].imag) < 1e-8
        assert abs(points[-1].imag) < 1e-8

    def test_epicycloid_closes(self):
        points = trace(circle(2.0), RollConfig(1.0, side="antinormal"), 0.0, TWO_PI, 500)
        assert abs(points[0] - points[-1]) < 1e-8

    def test_astroid_identity(self):
        points = trace(circle(4.0), RollConfig(1.0, side="normal"), 0.0, TWO_PI, 800)
        lhs = np.abs(points.real) ** (2.0 / 3.0) + np.abs(points.imag) ** (2.0 / 3.0)
        assert np.max(np.abs(lhs - 4.0 ** (2.0 / 3.0))) < 1e-6

    def test_incremental_arc_length_matches_one_shot(self):
        base = ellipse(3.0, 2.0)
        cfg = RollConfig(0.5)
        points = trace(base, cfg, 0.0, TWO_PI, 500)
        final = roll_state(base, cfg, TWO_PI)
        assert abs(points[-1] - final.point) < 1e-9

    def test_matches_closed_form(self):
        ts = np.linspace(0.0, 4.0 * math.pi, 500)
        points = trace(line(), RollConfig(1.0), 0.0, 4.0 * math.pi, 500)
        expected = np.array([cycloid_point(1.0, float(t)) for t in ts])
        assert np.max(np.abs(points - expected)) < 1e-9

    def test_regularity_failure_at_a_sample(self):
        base = ParamCurve("t^2", "t^2", domain=(-1.0, 1.0))  # alpha'(0) = 0
        # with 2 * _TRACE_BLOCK + 1 samples t = 0 is the first sample of the
        # second block; the bad sample is reported even when the arc length
        # from t0 = 5, outside the domain, cannot be computed
        for samples, t0 in ((3, 0.0), (2 * _TRACE_BLOCK + 1, 0.0), (2 * _TRACE_BLOCK + 1, 5.0)):
            with pytest.raises(RegularityError, match="tangent vector vanishes on the trace range"):
                trace(base, RollConfig(1.0, t0=t0), -1.0, 1.0, samples)

    @pytest.mark.parametrize("samples", [3, 2])  # the bad tangent on a sample, then a node
    def test_non_finite_tangent_raises(self, samples):
        base = ParamCurve("t", "sqrt(t^2 - 1e-8)", domain=(-1.0, 1.0))  # y' = nan near 0
        with pytest.raises(RegularityError, match="not finite"):
            trace(base, RollConfig(1.0, t0=-1.0), -1.0, 1.0, samples)

    def test_non_finite_sample_is_reported_before_a_vanishing_one(self):
        # alpha'(-0.5) = 0 in the first block, y'(0.5) = nan in the second
        base = ParamCurve("(t+0.5)^2", "(t+0.5)^2*sqrt((t-0.5)^2 - 1e-20)", domain=(-1.0, 1.0))
        with pytest.raises(RegularityError, match="not finite"):
            trace(base, RollConfig(1.0, t0=-1.0), -1.0, 1.0, 2 * _TRACE_BLOCK + 1)

    @pytest.mark.parametrize("samples", [2_001, 5_001, 8_193, 16_385, 40_001])
    def test_non_finite_node_is_reported_before_a_vanishing_one(self, samples):
        # alpha'(-0.5) = 0 and y'(0.5) = nan, in one block of Gauss nodes or
        # in two, whatever the sample count
        base = ParamCurve("(t+0.5)^3", "(t+0.5)^3*(1 + sqrt((t-0.5)^2 - 1e-8))", domain=(-1.0, 1.0))
        with pytest.raises(RegularityError, match="not finite"):
            trace(base, RollConfig(1.0, t0=-1.0), -1.0, 1.0, samples)

    def test_vanishing_node_in_a_later_block_is_reported_before_a_non_finite_sample(self):
        # y'(-0.5) = nan at sample 1,000 of 4,001, in the first block; the
        # cubic's tangent vanishes at 0.50025, the midpoint of gap 3,000 and
        # so the centre Gauss node of a gap in the second block
        base = ParamCurve("(t-0.50025)^3", "(t-0.50025)^3*(1 + sqrt((t+0.5)^2 - 1e-20))",
                          domain=(-1.0, 1.0))
        with pytest.raises(RegularityError, match="vanishes"):
            trace(base, RollConfig(1.0, t0=-1.0), -1.0, 1.0, 4_001)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            trace(line(), RollConfig(1.0), 0.0, 1.0, 1)

    def test_trochoid_trace_keeps_its_offset_radius(self):
        cfg = RollConfig(1.0, k=0.5)
        points = trace(line(), cfg, 0.0, TWO_PI, 300)
        centers = np.linspace(0.0, TWO_PI, 300) + 1j  # rolling along the x-axis
        radii = np.abs(points - centers)
        assert np.max(np.abs(radii - 1.5)) < 1e-9  # (1 + k) * r


def contact_parameter(base, cfg):
    """Parameter where the rolled angle first reaches 2*pi (arc = 2*pi*r)."""
    target = TWO_PI * cfg.radius
    lo, hi = cfg.t0, base.domain[1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if arc_length(base, cfg.t0, mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


BASES = {
    "line": line,
    "circle": lambda: circle(2.0),
    "ellipse": lambda: ellipse(3.0, 2.0),
    "limacon": lambda: limacon(2.0),
}


class TestRollingInvariants:
    @pytest.mark.parametrize("name", sorted(BASES))
    @pytest.mark.parametrize("side", ["normal", "antinormal"])
    def test_rolling_distance(self, name, side):
        base = BASES[name]()
        cfg = RollConfig(0.5, side=side, k=0.5)
        t_hi = min(base.domain[1], TWO_PI)
        for t in np.linspace(base.domain[0], t_hi, 40):
            state = roll_state(base, cfg, float(t))
            assert abs(abs(state.point - state.center) - cfg.radius) < 1e-8
            assert abs(abs(base.point(float(t)) - state.center) - cfg.radius) < 1e-8

    @pytest.mark.parametrize("k", [-1.0, 0.0, 0.5])
    def test_trochoid_linearity(self, k):
        base = ellipse(3.0, 2.0)
        cfg = RollConfig(0.5, k=k)
        for t in np.linspace(0.0, TWO_PI, 25):
            state = roll_state(base, cfg, float(t))
            lhs = state.trochoid - state.center
            rhs = (1.0 + k) * (state.point - state.center)
            assert abs(lhs - rhs) < 1e-12
            if k == 0.0:
                assert state.trochoid == state.point
            if k == -1.0:
                assert abs(state.trochoid - state.center) < 1e-12

    @pytest.mark.parametrize("name", sorted(BASES))
    @pytest.mark.parametrize("side", ["normal", "antinormal"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_contact_recurrence(self, name, side, reverse):
        base = BASES[name]()
        cfg = RollConfig(0.5, side=side, reverse=reverse)
        t_star = contact_parameter(base, cfg)
        state = roll_state(base, cfg, t_star)
        assert abs(abs(state.roll_angle) - TWO_PI) < 1e-6
        assert abs(state.point - base.point(t_star)) < 1e-5

    @pytest.mark.parametrize("name", sorted(BASES))
    @pytest.mark.parametrize("side", ["normal", "antinormal"])
    def test_cusp_rest_under_no_slip(self, name, side):
        # The traced point is momentarily at rest where it touches the base
        # curve.  This is a no-slip consequence, so it belongs to the standard
        # configuration; reversing the roll angle doubles the contact speed
        # instead (P' = alpha' * (1 + e^{i s / r}) on the line).
        base = BASES[name]()
        cfg = RollConfig(0.5, side=side)
        t_star = contact_parameter(base, cfg)
        h = 1e-4
        plus = roll_state(base, cfg, t_star + h).point
        minus = roll_state(base, cfg, t_star - h).point
        fd_speed = abs(plus - minus) / (2.0 * h)
        assert fd_speed < 1e-2 * abs(base.velocity(t_star))

    def test_reparameterization_invariance(self):
        slow = circle(2.0)
        fast = ParamCurve("R*cos(2*t)", "R*sin(2*t)", {"R": 2.0}, domain=(0.0, math.pi))
        cfg = RollConfig(0.75, side="antinormal")
        a = trace(slow, cfg, 0.0, TWO_PI, 300)
        b = trace(fast, cfg, 0.0, math.pi, 300)
        assert np.max(np.abs(a - b)) < 1e-7


class TestBlockedTrace:
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_matches_one_shot_reference(self, name):
        base = BASES[name]()
        t_to = min(base.domain[1], TWO_PI)
        for side, reverse, k in itertools.product(("normal", "antinormal"), (False, True), (0.0, 0.5)):
            cfg = RollConfig(0.7, side=side, reverse=reverse, k=k, t0=0.2)
            # 16,384 complex samples are the 256 KiB from which numpy elides
            # the one-shot product's temporary
            for samples in (2, 3, _TRACE_BLOCK - 1, _TRACE_BLOCK, _TRACE_BLOCK + 1,
                            _TRACE_BLOCK + 2, 16_383, 16_384, 16_385,
                            3 * _TRACE_BLOCK + 1, 200_000):
                got = trace(base, cfg, 0.1, t_to, samples)
                want = one_shot_trace(base, cfg, 0.1, t_to, samples)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (cfg, samples)

    def test_memory_stays_bounded(self):
        base, cfg = limacon(2.0), RollConfig(0.5)
        trace(base, cfg, 0.0, TWO_PI, 100)  # compile the programs outside the measurement
        for samples in (10_000, 200_000, 1_000_000):
            tracemalloc.start()
            try:
                points = trace(base, cfg, 0.0, TWO_PI, samples)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one block at a time: 1.1 MB besides the output whatever the
            # sample count; with full-length parameters and arc lengths it
            # was 3.2, 4.9 and 17.7 MB
            assert peak - points.nbytes < 1.5e6, samples
