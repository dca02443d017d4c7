"""The per-curve records: each distinct (AST, parameters) pair is parsed,
compiled and analysed once per process, and every answer is bit for bit the
one a fresh curve gives."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from curvekit import expr, polar
from curvekit.expr import CURVE_RECORDS, EvalError, ExprSyntaxError
from curvekit.intersect import IdenticalCurvesError, intersections, origin_on_curve
from curvekit.polar import PolarCurve, positive_pieces, sign_change_sample
from test_properties import CURVES


@pytest.fixture
def fresh_records():
    polar._records.clear()
    expr._parse_text.cache_clear()


def answers(spec_f, spec_g) -> str:
    """Period, first zero, pieces over one period, and intersections, as the
    repr of their values: repr round-trips every float, signed zeros too."""
    f, g = PolarCurve(*spec_f), PolarCurve(*spec_g)
    n = f.period_multiple_of_pi()
    out = [n, g.period_multiple_of_pi(), origin_on_curve(f), origin_on_curve(g)]
    on_period = PolarCurve(*spec_f, (0.0, n * math.pi))
    out.append([(p.curve.text, p.interval, p.traced_twice) for p in positive_pieces(on_period)])
    try:
        result = intersections(f, g)
    except IdenticalCurvesError:
        out.append("identical")
    else:
        out.append((result.origin, result.origin_witnesses,
                    [(p.point, p.theta1, p.theta2, p.residual) for p in result.points]))
    return repr(out)


class TestExactKeys:
    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_parameters_have_their_own_records(self, fresh_records, first):
        # 0.0 == -0.0, but the program binds the parameter's sign into 1/a
        for a in (first, -first):
            value = PolarCurve("1 + theta*0 + 1/a", {"a": a}).eval_many([0.5])[0]
            assert value == math.copysign(math.inf, a)

    @pytest.mark.parametrize("texts", [("1/0 + theta", "1/(-0) + theta"),
                                       ("1/(-0) + theta", "1/0 + theta")])
    def test_signed_zero_constants_have_their_own_records(self, fresh_records, texts):
        # the two ASTs compare equal: Const(0.0) == Const(-0.0)
        assert expr.parse(texts[0]) == expr.parse(texts[1])
        values = [PolarCurve(text).eval_many([0.5])[0] for text in texts]
        assert values == [math.inf if text.startswith("1/0") else -math.inf for text in texts]

    @pytest.mark.parametrize("ends", [(-0.0, 0.0), (0.0, -0.0)])
    def test_signed_zero_interval_ends_are_checked_apart(self, fresh_records, ends):
        # -1/theta is +inf at -0.0, a pass, and -inf at 0.0, a sign change
        for end in ends:
            change = sign_change_sample(PolarCurve("-1/theta"), (-1.0, end))
            assert change == (None if math.copysign(1.0, end) < 0 else 1023)

    def test_nan_parameters_keep_their_sign(self, fresh_records):
        for a in (math.nan, -math.nan, math.nan):
            (value,) = PolarCurve("a + theta*0", {"a": a}).eval_many([0.5])
            assert np.isnan(value) and np.signbit(value) == np.signbit(a)


class TestWhatIsKept:
    def test_nothing_that_raises_is_kept(self, fresh_records):
        for _ in range(2):
            with pytest.raises(ExprSyntaxError):
                PolarCurve("sin((theta")
            with pytest.raises(EvalError, match="unbound"):
                PolarCurve("a*theta")
            with pytest.raises(EvalError, match="undefined"):
                PolarCurve("sqrt(sin(theta))").period_multiple_of_pi()
        # the two texts that parsed; the scan that raised at N = 1 ruled nothing out
        assert expr._parse_text.cache_info().currsize == 2
        assert PolarCurve("sqrt(sin(theta))")._record.period == (None, 0)

    def test_a_period_scan_goes_on_where_the_last_stopped(self, fresh_records):
        curve = PolarCurve("cos(theta/3)")
        assert curve.period_multiple_of_pi(2) is None
        assert curve._record.period == (None, 2)
        assert PolarCurve("cos(theta/3)").period_multiple_of_pi() == 3
        assert curve.period_multiple_of_pi(2) is None and curve._record.period == (3, 2)

    def test_records_and_parses_stay_within_the_bound(self, fresh_records):
        oldest, kept = PolarCurve("a*theta", {"a": 0.0}), PolarCurve("a*theta", {"a": 1.0})
        for k in range(2, CURVE_RECORDS + 10):
            PolarCurve(f"a*theta + {k}", {"a": float(k)})
            PolarCurve("a*theta", {"a": 1.0})  # used again: the last to go
        assert len(polar._records) == CURVE_RECORDS
        assert expr._parse_text.cache_info().currsize == CURVE_RECORDS
        assert PolarCurve("a*theta", {"a": 1.0})._record is kept._record
        assert PolarCurve("a*theta", {"a": 0.0})._record is not oldest._record

    def test_sign_check_passes_stay_within_the_bound(self, fresh_records):
        curve = PolarCurve("1")
        for k in range(CURVE_RECORDS + 10):
            assert sign_change_sample(curve, (0.0, 1.0 + k / 1024)) is None
        assert len(curve._record.nonnegative_on) == CURVE_RECORDS


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(CURVES, CURVES)
def test_answers_are_the_same_from_fresh_and_reused_records(spec_f, spec_g):
    polar._records.clear()
    fresh = answers(spec_f, spec_g)
    assert answers(spec_f, spec_g) == fresh
    # records filled by other questions: a short period scan, the swapped pair
    polar._records.clear()
    PolarCurve(*spec_f).period_multiple_of_pi(1)
    try:
        intersections(PolarCurve(*spec_g), PolarCurve(*spec_f))
    except IdenticalCurvesError:
        pass
    assert answers(spec_f, spec_g) == fresh


def test_threads_building_the_same_curves_agree(fresh_records):
    specs = [("sin(5*theta)", {}), ("cos(3*theta)", {}), ("cos(theta/3)", {}),
             ("1 - lambda*sin(theta)", {"lambda": 2.0}), ("2*a*cos(theta)", {"a": 0.75})]
    pairs = list(zip(specs, specs[1:] + specs[:1]))
    workers = 8
    results = [None] * workers
    barrier = threading.Barrier(workers)

    def work(i):
        barrier.wait(timeout=60)
        results[i] = [answers(f, g) for f, g in pairs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    polar._records.clear()
    reference = [answers(f, g) for f, g in pairs]
    assert results == [reference] * workers
