"""Property tests for the paper's invariants: areas under rotation, the
piece decomposition's area identity, the rose loop areas, the equality rule
at every reported intersection, and a CLI that answers or exits cleanly on
any expression.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples."""

import contextlib
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvekit.area import SectorRegion, loop_area, region_intersection_area
from curvekit.cli import main as cli_main
from curvekit.expr import to_string
from curvekit.intersect import intersections
from curvekit.numerics import RESIDUAL_GATE
from curvekit.polar import PolarCurve, positive_pieces
from helpers import PARAM_NAMES, radius_at, random_ast


def examples(n):
    return settings(derandomize=True, database=None, deadline=None, max_examples=n)


def _float(lo, hi):
    return st.floats(lo, hi).map(lambda x: round(x, 3))


# The curve families of the benchmark's intersect and area inputs.
CURVES = st.one_of(
    st.builds(lambda trig, n: (f"{trig}({n}*theta)", {}),
              st.sampled_from(("sin", "cos")), st.integers(1, 6)),
    st.builds(lambda text, lam: (text, {"lambda": lam}),
              st.sampled_from(("1 + lambda*cos(theta)", "1 - lambda*sin(theta)")),
              _float(0.3, 2.8)),
    st.builds(lambda a: ("a*(1 + cos(theta))", {"a": a}), _float(0.5, 2.0)),
    st.builds(lambda a: ("2*a*cos(theta)", {"a": a}), _float(0.5, 2.0)),
    st.builds(lambda rho: ("rho", {"rho": rho}), _float(0.2, 1.8)),
)

NON_NEGATIVE = st.one_of(
    st.builds(lambda lam: ("1 + lambda*cos(theta)", {"lambda": lam}), _float(0.0, 1.0)),
    st.builds(lambda n: (f"abs(sin({n}*theta))", {}), st.integers(1, 5)),
    st.builds(lambda n: (f"cos({n}*theta)^2", {}), st.integers(1, 5)),
    st.builds(lambda a: ("a*(1 + cos(theta))", {"a": a}), _float(0.5, 2.0)),
)


def on_period(spec):
    text, params = spec
    n = PolarCurve(text, params).period_multiple_of_pi()
    return PolarCurve(text, params, (0.0, n * math.pi))


def regions(curve):
    return [SectorRegion.from_piece(piece)
            for piece in positive_pieces(curve) if not piece.traced_twice]


@examples(20)
@given(CURVES, CURVES, _float(-4.0, 4.0))
def test_areas_are_invariant_under_rotation(spec_f, spec_g, delta):
    f, g = on_period(spec_f), on_period(spec_g)
    rf, rg = f.shifted(delta), g.shifted(delta)
    for plain, turned in ((f, rf), (g, rg)):
        assert math.isclose(sum(map(loop_area, regions(turned))),
                            sum(map(loop_area, regions(plain))), abs_tol=1e-9)
    common = sum(region_intersection_area(a, b) for a in regions(f) for b in regions(g))
    turned = sum(region_intersection_area(a, b) for a in regions(rf) for b in regions(rg))
    assert math.isclose(turned, common, abs_tol=1e-9)


@examples(30)
@given(NON_NEGATIVE, _float(-4.0, 4.0), _float(0.5, 2.0 * math.pi))
def test_piece_areas_sum_to_the_loop_area(spec, start, width):
    text, params = spec
    curve = PolarCurve(text, params, (start, start + width))
    pieces = positive_pieces(curve)
    total = sum(loop_area(SectorRegion.from_piece(piece)) for piece in pieces)
    assert math.isclose(total, loop_area(SectorRegion(curve, curve.domain)), abs_tol=1e-9)


@examples(20)
@given(st.sampled_from(("sin", "cos")), st.integers(1, 60))
def test_rose_loops_sum_to_the_rose_area(trig, n):
    # one piece per petal, N of them for odd N and 2N for even N, none traced
    # twice; from N = 45 a piece end, a root known to 1e-10, has |f| above 1e-9
    pieces = positive_pieces(on_period((f"{trig}({n}*theta)", {})))
    assert len(pieces) == (n if n % 2 else 2 * n)
    assert not any(piece.traced_twice for piece in pieces)
    expected = math.pi / 4 if n % 2 else math.pi / 2
    total = sum(loop_area(SectorRegion.from_piece(piece)) for piece in pieces)
    assert math.isclose(total, expected, abs_tol=1e-9)


@examples(100)
@given(CURVES, CURVES)
def test_every_point_satisfies_the_equality_rule(spec_f, spec_g):
    if spec_f == spec_g:
        return
    f, g = PolarCurve(*spec_f), PolarCurve(*spec_g)
    n1, n2 = f.period_multiple_of_pi(), g.period_multiple_of_pi()
    for p in intersections(f, g).points:
        assert 0.0 <= p.theta1 < n1 * math.pi
        m = round((p.theta2 - p.theta1) / math.pi)
        assert 0 <= m < n2
        assert abs(p.theta2 - (p.theta1 + m * math.pi)) < 1e-12
        assert abs(radius_at(f, p.theta1) * np.exp(1j * p.theta1) - p.point) < RESIDUAL_GATE
        assert abs(radius_at(g, p.theta2) * np.exp(1j * p.theta2) - p.point) < RESIDUAL_GATE


PARAMS = [arg for name, value in zip(PARAM_NAMES, ("1.5", "2", "0.7", "-1.2"))
          for arg in ("--param", f"{name}={value}")]
COMMANDS = (
    ["period"],
    ["symmetry", "--axis", "y"],
    ["decompose", "--domain", "0:2*pi"],
    ["area", "--loop", "--domain", "0:2*pi"],
    ["intersect", "--c2", "cos(theta)"],
)


@examples(200)
@given(st.integers(0, 2**32 - 1), st.sampled_from(COMMANDS))
def test_cli_never_prints_a_traceback(seed, command):
    text = to_string(random_ast(np.random.default_rng(seed), depth=3))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # --c1=TEXT, so that a text such as "--t" is no option
        code = cli_main([*command, f"--c1={text}", *PARAMS])
    assert code in (0, 1, 2), (command, text)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == ""), (command, text, err.getvalue())
