import math

import numpy as np
import pytest

from curvekit.area import (
    SectorRegion,
    limacon_analysis,
    limacon_common_area,
    loop_area,
    region_intersection_area,
    rose_intersection_area,
)
from curvekit.polar import Piece, PolarCurve, positive_pieces
from oracles import _union_contains, mc_common_area

TWO_PI = 2.0 * math.pi
LENS = math.pi / 8 - 0.25


def region(text, interval, params=None):
    return SectorRegion(PolarCurve(text, params), interval)


def contains(region, z):
    return _union_contains([region], np.abs(z), np.mod(np.angle(z), TWO_PI))


class TestSectorRegion:
    def test_rejects_negative_boundary(self):
        with pytest.raises(ValueError, match="non-negative"):
            region("cos(theta)", (0.0, math.pi))

    def test_rejects_undefined_boundary(self):
        # sqrt(theta) is NaN on [-1, 0): no value is not a non-negative one
        with pytest.raises(ValueError, match="non-negative"):
            region("sqrt(theta)", (-1.0, 1.0))

    def test_end_may_miss_its_zero_by_the_cut_gap(self):
        # 100*theta is -5e-8 at an end 5e-10 from its zero, within the slope
        # times the cut gap (1e-9); 2e-9 away it is not, nor is a pole at an end
        assert region("100*theta", (-5e-10, 1.0)).interval == (-5e-10, 1.0)
        for text, interval in (("100*theta", (-2e-9, 1.0)), ("-1/theta", (-1.0, 0.0))):
            with pytest.raises(ValueError, match="non-negative"):
                region(text, interval)

    def test_piece_is_not_sampled_again(self, monkeypatch):
        pieces = positive_pieces(PolarCurve("sin(6*theta)"))
        monkeypatch.setattr(PolarCurve, "eval_many", lambda self, thetas: pytest.fail("sampled"))
        assert [SectorRegion.from_piece(p).interval for p in pieces] == [
            p.interval for p in pieces]

    def test_hand_built_piece_that_goes_negative(self):
        c = PolarCurve("sin(6*theta)")
        positive_pieces(c)  # records the intervals that passed on c
        for interval in ((0.0, 1.0), (math.pi / 6, math.pi / 3)):
            with pytest.raises(ValueError, match="non-negative"):
                SectorRegion.from_piece(Piece(c, interval, traced_twice=False))

    def test_rejects_wide_interval(self):
        with pytest.raises(ValueError, match="full turn"):
            region("1", (0.0, 3.0 * math.pi))

    def test_membership(self):
        disk = region("1", (0.0, TWO_PI))
        z = np.array([0.5 + 0.1j, 1.2 + 0.0j, -0.3 - 0.4j])
        assert list(contains(disk, z)) == [True, False, True]

    def test_membership_beyond_principal_range(self):
        lam = 2.0
        theta0 = math.asin(1.0 / lam)
        large = limacon_analysis(lam).large_loop
        # the bottom of the large loop sits at angle 3*pi/2 with radius 3
        z = np.array([-2.9j, -3.1j, 0.5 + 0.0j])
        assert list(contains(large, z)) == [True, False, True]
        assert large.interval[1] > TWO_PI
        assert theta0 < math.pi / 4


class TestLoopArea:
    def test_half_disk_from_cosine(self):
        r = region("cos(theta)", (-math.pi / 2, math.pi / 2))
        assert loop_area(r) == pytest.approx(math.pi / 4, abs=1e-10)

    def test_unit_disk(self):
        assert loop_area(region("1", (0.0, TWO_PI))) == pytest.approx(math.pi, abs=1e-10)

    def test_small_limacon_loop_closed_form(self):
        # (1/2) int (2cos - 1)^2 with antiderivative (3t - 4sin t + sin 2t)/2
        phi0 = math.acos(-0.5)
        r = region("lambda*cos(theta) - 1", (phi0 + math.pi, 3.0 * math.pi - phi0), {"lambda": 2.0})
        assert loop_area(r) == pytest.approx(math.pi - 1.5 * math.sqrt(3.0), abs=1e-9)


class TestRegionIntersection:
    def test_lens(self):
        a = region("sin(theta)", (0.0, math.pi))
        b = region("cos(theta)", (-math.pi / 2, math.pi / 2))
        assert region_intersection_area(a, b) == pytest.approx(LENS, abs=1e-9)

    def test_symmetric_in_arguments(self):
        a = region("sin(theta)", (0.0, math.pi))
        b = region("cos(theta)", (-math.pi / 2, math.pi / 2))
        assert region_intersection_area(a, b) == region_intersection_area(b, a)

    def test_identical_regions(self):
        a = region("sin(theta)", (0.0, math.pi))
        assert region_intersection_area(a, a) == pytest.approx(loop_area(a), abs=1e-9)

    def test_list_interval_is_stored_as_a_tuple(self):
        tuples = region_intersection_area(region("1", (0.0, 1.0)), region("1", (0.5, 2.0)))
        assert tuples == pytest.approx(0.25, abs=1e-12)
        a, b = region("1", [0.0, 1.0]), region("1", (0.5, 2.0))
        assert a.interval == (0.0, 1.0)
        assert region_intersection_area(a, b) == region_intersection_area(b, a) == tuples

    def test_disjoint_sectors(self):
        a = region("1", (0.0, math.pi / 4))
        b = region("1", (math.pi, 1.25 * math.pi))
        assert region_intersection_area(a, b) == 0.0

    def test_monotone_bound(self):
        a = region("sin(theta)", (0.0, math.pi))
        b = region("cos(theta)", (-math.pi / 2, math.pi / 2))
        common = region_intersection_area(a, b)
        assert common <= min(loop_area(a), loop_area(b)) + 1e-9

    def test_half_angle_cosine_pieces(self):
        # the two non-negative pieces of r = cos(theta/2) over a full turn
        # cross at pi/2; min envelope integrates to pi/4 - 1/2 in closed form
        dec = positive_pieces(PolarCurve("cos(theta/2)", domain=(0.0, TWO_PI)))
        regions = [SectorRegion.from_piece(p) for p in dec]
        assert len(regions) == 2
        value = region_intersection_area(regions[0], regions[1])
        assert value == pytest.approx(math.pi / 4 - 0.5, abs=1e-9)

    def test_wedge_against_a_rose_on_half_a_turn(self):
        # cos(2*theta) on [0, pi] has no seam at pi (pi is an odd multiple and
        # both ends are positive), so its piece [0, pi/4] meets the wedge
        pieces = positive_pieces(PolarCurve("cos(2*theta)", domain=(0.0, math.pi)))
        assert len(pieces) == 3
        wedge = region("1", (0.0, math.pi / 8))
        total = sum(region_intersection_area(wedge, SectorRegion.from_piece(p)) for p in pieces)
        assert total == pytest.approx(math.pi / 32 + 1 / 16, abs=1e-12)

    def test_rotation_invariance(self):
        a = region("sin(theta)", (0.0, math.pi))
        b = region("cos(theta)", (-math.pi / 2, math.pi / 2))
        base = region_intersection_area(a, b)
        for shift in (0.7, -1.9, 2.0 * math.pi / 3.0):
            a2 = SectorRegion(a.boundary.shifted(shift), (a.interval[0] + shift, a.interval[1] + shift))
            b2 = SectorRegion(b.boundary.shifted(shift), (b.interval[0] + shift, b.interval[1] + shift))
            assert loop_area(a2) == pytest.approx(loop_area(a), abs=1e-9)
            assert region_intersection_area(a2, b2) == pytest.approx(base, abs=1e-9)


class TestRoseArea:
    @pytest.mark.parametrize("n", [1, 3])
    def test_odd(self, n):
        assert rose_intersection_area(n) == pytest.approx(LENS, abs=1e-8)

    def test_even(self):
        assert rose_intersection_area(2) == pytest.approx(math.pi / 2 - 1.0, abs=1e-8)

    def test_matches_monte_carlo(self):
        n = 3
        sin_curve = PolarCurve("sin(3*theta)", domain=(0.0, math.pi))
        cos_curve = PolarCurve("cos(3*theta)", domain=(0.0, math.pi))
        regions_a = [SectorRegion.from_piece(p) for p in positive_pieces(sin_curve) if not p.traced_twice]
        regions_b = [SectorRegion.from_piece(p) for p in positive_pieces(cos_curve) if not p.traced_twice]
        estimate, sigma = mc_common_area(regions_a, regions_b, n=200_000, seed=91)
        assert abs(rose_intersection_area(n) - estimate) < 3.0 * sigma

    def test_even_full_common_region_is_twice_the_scaled_sector(self):
        # the 2N-petal roses tile the circle with 4N congruent overlap wedges:
        # the min envelope is min(|sin Nt|, |cos Nt|) and the full common
        # area is pi/2 - 1 for every even N, which rose_intersection_area
        # returns by scaling one wedge by 4N
        for n in (2, 4):
            window = (0.0, TWO_PI)
            a = [
                SectorRegion.from_piece(p)
                for p in positive_pieces(PolarCurve(f"sin({n}*theta)", domain=window))
                if not p.traced_twice
            ]
            b = [
                SectorRegion.from_piece(p)
                for p in positive_pieces(PolarCurve(f"cos({n}*theta)", domain=window))
                if not p.traced_twice
            ]
            total = sum(region_intersection_area(ra, rb) for ra in a for rb in b)
            assert total == pytest.approx(math.pi / 2 - 1.0, abs=1e-8)
            assert total == pytest.approx(rose_intersection_area(n), abs=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rose_intersection_area(0)


class TestLimacon:
    def test_angles(self):
        rng = np.random.default_rng(1009)
        for lam in rng.uniform(1.0 + 1e-6, 10.0, 25):
            analysis = limacon_analysis(float(lam))
            assert analysis.phi0 - analysis.theta0 == pytest.approx(math.pi / 2, abs=1e-12)

    def test_loop_intervals(self):
        lam = 2.0
        theta0 = math.asin(0.5)
        analysis = limacon_analysis(lam)
        assert analysis.large_loop.interval == pytest.approx((math.pi - theta0, theta0 + TWO_PI))
        assert analysis.small_loop.interval == pytest.approx(
            (theta0 + 1.5 * math.pi, 2.5 * math.pi - theta0)
        )

    def test_containment_boundary(self):
        root2 = math.sqrt(2.0)
        assert limacon_analysis(root2 - 1e-6).contained
        assert not limacon_analysis(root2 + 1e-6).contained
        assert limacon_analysis(1.2).theta1 is None

    def test_crossing_angle_lambda_two(self):
        analysis = limacon_analysis(2.0)
        assert analysis.theta1 == pytest.approx(0.0, abs=1e-12)
        # both loop boundaries pass through radius 1 at the crossing angle
        assert 1.0 - 2.0 * math.sin(analysis.theta1) == pytest.approx(1.0, abs=1e-12)
        assert 2.0 * math.cos(analysis.theta1) - 1.0 == pytest.approx(1.0, abs=1e-12)

    def test_crossing_angle_lambda_three(self):
        analysis = limacon_analysis(3.0)
        expected_sine = 1.0 / 3.0 - math.sqrt(0.5 - 1.0 / 9.0)
        assert math.sin(analysis.theta1) == pytest.approx(expected_sine, abs=1e-15)
        # the crossing satisfies lambda*(cos + sin) = 2
        value = 3.0 * (math.cos(analysis.theta1) + math.sin(analysis.theta1))
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_rejects_shape_at_most_one(self):
        with pytest.raises(ValueError):
            limacon_analysis(1.0)

    def test_contained_area_is_the_small_loop(self):
        analysis = limacon_analysis(1.2)
        assert limacon_common_area(1.2) == pytest.approx(
            loop_area(analysis.small_loop), abs=1e-12
        )

    def test_lambda_two_closed_form(self):
        # piecewise halves evaluate to (pi - 3sqrt(3)/2)/2 and
        # (pi/2 + 3sqrt(3)/2 - 4)/2, summing to 3*pi/4 - 2
        assert limacon_common_area(2.0) == pytest.approx(0.75 * math.pi - 2.0, abs=1e-9)

    def test_lambda_two_against_monte_carlo(self):
        analysis = limacon_analysis(2.0)
        estimate, sigma = mc_common_area(
            [analysis.large_loop], [analysis.small_loop], n=300_000, seed=1202
        )
        assert abs(limacon_common_area(2.0) - estimate) < 3.0 * sigma

    def test_degenerating_small_loop(self):
        assert limacon_common_area(1.001) < 1e-3
