"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from curvekit.area import (
    SectorRegion,
    limacon_analysis,
    region_intersection_area,
    rose_intersection_area,
)
from curvekit.cli import main as cli_main
from curvekit.expr import differentiate, evaluate, parse, to_string
from curvekit.intersect import intersections
from curvekit.polar import (
    PolarCurve,
    is_reflection_symmetric,
    positive_pieces,
)
from curvekit.roulette import (
    ParamCurve,
    RollConfig,
    arc_length,
    circle,
    ellipse,
    limacon,
    line,
    roll_state,
    trace,
)
from helpers import random_ast, random_smooth_ast
from oracles import (
    cycloid_point,
    epicycloid_point,
    hypocycloid_point,
    mc_common_area,
    rasterized_intersections,
)

ROOT = Path(__file__).resolve().parents[1]
TWO_PI = 2.0 * math.pi
LENS = math.pi / 8 - 0.25


def finish(cid, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {cid} {description}: {status}")
    assert not failures, f"{cid} {description}: " + " | ".join(failures)


def check(failures, condition, message):
    if not condition:
        failures.append(message)


def curve(text, params=None):
    return PolarCurve(text, params)


def nonneg_regions(text, params=None):
    c = PolarCurve(text, params)
    n = c.period_multiple_of_pi()
    c = PolarCurve(text, params, domain=(0.0, n * math.pi))
    return [SectorRegion.from_piece(p) for p in positive_pieces(c) if not p.traced_twice]


def test_c01_intersection_golden_set():
    failures = []
    tol = 1e-8

    result = intersections(curve("1"), curve("cos(theta)"))
    check(failures, not result.origin, "(1, cos): unexpected origin flag")
    check(failures, len(result.points) == 1, "(1, cos): expected exactly 1 point")
    if result.points:
        check(failures, abs(result.points[0].point - (1.0 + 0.0j)) < tol,
              f"(1, cos): point {result.points[0].point} != 1")

    result = intersections(curve("cos(theta)"), curve("1 - cos(theta)"))
    check(failures, result.origin, "(cos, 1-cos): origin missing")
    # both points have x = 1/4 (up to rounding), so pair them by y
    got = sorted(((p.point.real, p.point.imag) for p in result.points), key=lambda xy: xy[1])
    expected = sorted([(0.25, -math.sqrt(3.0) / 4.0), (0.25, math.sqrt(3.0) / 4.0)],
                      key=lambda xy: xy[1])
    check(failures, len(got) == 2, "(cos, 1-cos): expected 2 nonzero points")
    for g, e in zip(got, expected):
        check(failures, abs(g[0] - e[0]) < tol and abs(g[1] - e[1]) < tol,
              f"(cos, 1-cos): point {g} != {e}")

    result = intersections(curve("2*cos(theta)"), curve("1 + cos(theta)"))
    check(failures, result.origin, "(2cos, 1+cos): origin missing")
    check(failures, len(result.points) == 1, "(2cos, 1+cos): expected 1 nonzero point")
    if result.points:
        # the published value (1, 0) is wrong: it is the centre of the circle
        # r = 2cos(theta), at distance 1 from both curves.  2cos = 1 + cos
        # forces cos(theta) = 1, so r = 2; the half-turn family
        # 2cos(t) = -(1 + cos(t + pi)) forces cos(t) = -1, r = -2, the same
        # point.  The tangency is at (2, 0), as the rasterization oracle finds.
        check(failures, abs(result.points[0].point - (2.0 + 0.0j)) < tol,
              f"(2cos, 1+cos): point {result.points[0].point} != 2+0j")

    finish("C01", "intersection golden set", failures)


def test_c02_rose_intersection_counts():
    failures = []
    for n in (1, 3, 5, 7, 2, 4, 6):
        expected = n if n % 2 else 4 * n
        c1 = curve(f"sin({n}*theta)")
        c2 = curve(f"cos({n}*theta)")
        result = intersections(c1, c2)
        check(failures, len(result.points) == expected,
              f"N={n}: solver found {len(result.points)}, expected {expected}")
        clusters, _, origin_hit = rasterized_intersections(c1, c2)
        check(failures, clusters == expected + 1,
              f"N={n}: oracle found {clusters} clusters, expected {expected + 1}")
        check(failures, origin_hit and result.origin, f"N={n}: origin flags disagree")
    finish("C02", "rose intersection counts with brute-force oracle", failures)


def test_c03_mixed_rose_counts():
    failures = []
    for m, n in ((3, 1), (5, 3), (7, 5), (9, 7)):
        count = len(intersections(curve(f"cos({m}*theta)"), curve(f"sin({n}*theta)")).points)
        check(failures, count == max(m, n),
              f"(m,n)=({m},{n}): {count} points, expected {max(m, n)}")
    finish("C03", "mixed rose counts", failures)


def test_c04_period_and_symmetry_table():
    failures = []
    pairs = [
        (m, n)
        for m in range(1, 10)
        for n in range(1, 10)
        if math.gcd(m, n) == 1
    ]
    for m, n in pairs:
        c = curve(f"cos({m}*theta/{n})")
        expected_period = 2 * n if (m * n) % 2 == 0 else n
        got = c.period_multiple_of_pi(max_multiple=20)
        check(failures, got == expected_period,
              f"cos({m}t/{n}): period {got}, expected {expected_period}")
        check(failures, is_reflection_symmetric(c, 0.0),
              f"cos({m}t/{n}): x-axis symmetry should hold")
        expected_y = (m * n) % 2 == 0
        got_y = is_reflection_symmetric(c, math.pi / 2)
        check(failures, got_y == expected_y,
              f"cos({m}t/{n}): y-axis symmetry {got_y}, expected {expected_y}")
    finish("C04", "period/symmetry table for coprime pairs up to 9", failures)


def test_c05_area_values_with_monte_carlo():
    failures = []

    lens = region_intersection_area(
        SectorRegion(curve("sin(theta)"), (0.0, math.pi)),
        SectorRegion(curve("cos(theta)"), (-math.pi / 2, math.pi / 2)),
    )
    check(failures, abs(lens - LENS) < 1e-9, f"lens {lens} != {LENS}")
    estimate, sigma = mc_common_area(
        [SectorRegion(curve("sin(theta)"), (0.0, math.pi))],
        [SectorRegion(curve("cos(theta)"), (-math.pi / 2, math.pi / 2))],
        n=1_000_000,
        seed=137,
    )
    check(failures, abs(lens - estimate) < 3.0 * sigma,
          f"lens vs MC: |{lens} - {estimate}| >= 3*{sigma}")

    for n in (1, 3, 5, 7, 2, 4, 6):
        value = rose_intersection_area(n)
        # the published even-N value pi/4 - 1/2 counts only 2N of the 4N
        # overlap wedges: the 2N-petal roses cover every direction, so the
        # common area is (1/2) int_0^{2pi} min(sin^2 Nt, cos^2 Nt) dt = pi/2 - 1
        expected = LENS if n % 2 else math.pi / 2 - 1.0
        check(failures, abs(value - expected) < 1e-8,
              f"rose N={n}: {value} != {expected}")
        regions_a = nonneg_regions(f"sin({n}*theta)")
        regions_b = nonneg_regions(f"cos({n}*theta)")
        estimate, sigma = mc_common_area(regions_a, regions_b, n=1_000_000, seed=1000 + n)
        check(failures, abs(value - estimate) < 3.0 * sigma,
              f"rose N={n} vs MC: |{value} - {estimate}| >= 3*{sigma:.2e}")
    finish("C05", "area golden values within 3 sigma of Monte Carlo", failures)


def test_c06_limacon_analysis():
    failures = []
    rng = np.random.default_rng(60601)
    for lam in rng.uniform(1.0 + 1e-9, 10.0, 50):
        analysis = limacon_analysis(float(lam))
        check(failures, abs(analysis.phi0 - analysis.theta0 - math.pi / 2) < 1e-12,
              f"lam={lam}: phi0 - theta0 != pi/2")

    root2 = math.sqrt(2.0)
    check(failures, limacon_analysis(root2 - 1e-6).contained,
          "lam = sqrt(2)-1e-6 should be contained")
    check(failures, not limacon_analysis(root2 + 1e-6).contained,
          "lam = sqrt(2)+1e-6 should not be contained")

    two = limacon_analysis(2.0)
    check(failures, two.theta1 is not None and abs(two.theta1) < 1e-12,
          f"lam=2: theta1 {two.theta1} != 0")
    r_large = 1.0 - 2.0 * math.sin(two.theta1)
    r_small = 2.0 * math.cos(two.theta1) - 1.0
    check(failures, abs(r_large - 1.0) < 1e-12 and abs(r_small - 1.0) < 1e-12,
          f"lam=2: boundary radii ({r_large}, {r_small}) != 1")

    three = limacon_analysis(3.0)
    identity = 3.0 * (math.cos(three.theta1) + math.sin(three.theta1))
    check(failures, abs(identity - 2.0) < 1e-9,
          f"lam=3: lambda*(cos+sin) = {identity} != 2")
    finish("C06", "limacon loop analysis", failures)


def test_c07_roulette_closed_form_oracles():
    failures = []
    for r in (0.5, 1.0, 2.0):
        base = line()
        cfg = RollConfig(r)
        worst = max(
            abs(roll_state(base, cfg, float(t)).point - cycloid_point(r, float(t)))
            for t in np.linspace(0.0, 4.0 * math.pi * r, 1000)
        )
        check(failures, worst < 1e-8, f"cycloid r={r}: max error {worst}")
    for big_r, r in ((2.0, 1.0), (3.0, 1.0), (4.0, 1.0), (5.0, 2.0)):
        base = circle(big_r)
        ts = np.linspace(0.0, TWO_PI, 1000)
        worst = max(
            abs(roll_state(base, RollConfig(r, side="antinormal"), float(t)).point
                - epicycloid_point(big_r, r, float(t)))
            for t in ts
        )
        check(failures, worst < 1e-8, f"epicycloid ({big_r},{r}): max error {worst}")
        worst = max(
            abs(roll_state(base, RollConfig(r, side="normal"), float(t)).point
                - hypocycloid_point(big_r, r, float(t)))
            for t in ts
        )
        check(failures, worst < 1e-8, f"hypocycloid ({big_r},{r}): max error {worst}")
    finish("C07", "roulette closed-form oracle agreement", failures)


def _contact_parameter(base, cfg):
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


def test_c08_rolling_invariant_suite():
    failures = []
    bases = {
        "line": line(),
        "circle": circle(2.0),
        "ellipse": ellipse(3.0, 2.0),
        "limacon": limacon(2.0),
    }
    for name, base in bases.items():
        t_hi = min(base.domain[1], TWO_PI)
        ts = np.linspace(base.domain[0], t_hi, 20)
        for side in ("normal", "antinormal"):
            for reverse in (False, True):
                for k in (-1.0, 0.0, 0.5):
                    cfg = RollConfig(0.5, side=side, reverse=reverse, k=k)
                    for t in ts:
                        state = roll_state(base, cfg, float(t))
                        check(
                            failures,
                            abs(abs(state.point - state.center) - cfg.radius) < 1e-8,
                            f"{name}/{side}/rev={reverse}/k={k}: |P-c| != r at t={t}",
                        )
                        lin = state.trochoid - state.center - (1.0 + k) * (state.point - state.center)
                        check(
                            failures,
                            abs(lin) < 1e-10,
                            f"{name}/{side}/rev={reverse}/k={k}: trochoid not collinear",
                        )
                cfg = RollConfig(0.5, side=side, reverse=reverse)
                t_star = _contact_parameter(base, cfg)
                state = roll_state(base, cfg, t_star)
                check(failures, abs(abs(state.roll_angle) - TWO_PI) < 1e-6,
                      f"{name}/{side}/rev={reverse}: contact angle")
                check(failures, abs(state.point - base.point(t_star)) < 1e-5,
                      f"{name}/{side}/rev={reverse}: contact recurrence")
                if not reverse:
                    # cusp rest is the no-slip consequence of the standard
                    # configuration; reversing the angle doubles contact speed
                    h = 1e-4
                    fd = abs(
                        roll_state(base, cfg, t_star + h).point
                        - roll_state(base, cfg, t_star - h).point
                    ) / (2.0 * h)
                    check(failures, fd < 1e-2 * abs(base.velocity(t_star)),
                          f"{name}/{side}: traced point not at rest at contact")

    slow = circle(2.0)
    fast = ParamCurve("R*cos(2*t)", "R*sin(2*t)", {"R": 2.0}, domain=(0.0, math.pi))
    cfg = RollConfig(0.75, side="antinormal")
    a = trace(slow, cfg, 0.0, TWO_PI, 400)
    b = trace(fast, cfg, 0.0, math.pi, 400)
    worst = float(np.max(np.abs(a - b)))
    check(failures, worst < 1e-7, f"reparameterization deviation {worst}")
    finish("C08", "rolling invariant suite", failures)


def test_c09_parser_and_derivative_suite():
    failures = []
    rng = np.random.default_rng(90901)
    for i in range(200):
        source = to_string(random_ast(rng))
        first = parse(source)
        check(failures, parse(to_string(first)) == first, f"round-trip broke: {source!r}")

    h = 1e-5
    rng = np.random.default_rng(90902)
    for _ in range(20):
        ast = random_smooth_ast(rng)
        d = differentiate(ast)
        for _ in range(20):
            x = float(rng.uniform(-1.5, 1.5))
            fd = (evaluate(ast, x + h) - evaluate(ast, x - h)) / (2.0 * h)
            sym = evaluate(d, x)
            check(failures, abs(sym - fd) < 1e-6 * (1.0 + abs(sym)),
                  f"derivative mismatch at {x} for {to_string(ast)!r}")
    finish("C09", "parser round-trip and derivative agreement", failures)


GOLDEN_COMMANDS = [
    ["intersect", "--c1", "cos(theta)", "--c2", "1-cos(theta)"],
    ["intersect", "--c1", "1", "--c2", "cos(theta)"],
    ["area", "--c1", "sin(theta)", "--c2", "cos(theta)"],
    ["area", "--rose-N", "2"],
    ["area", "--limacon-lambda", "2"],
    ["period", "--c1", "cos(theta/2)"],
    ["symmetry", "--c1", "cos(3*theta/5)", "--axis", "y"],
    ["symmetry", "--c1", "cos(3*theta/5)", "--axis", "x"],
    ["decompose", "--c1", "cos(theta/2)", "--domain", "0:6.2832"],
    ["decompose", "--c1", "1 - lambda*sin(theta)", "--param", "lambda=2"],
    ["roulette", "--base", "line", "--radius", "1", "--from", "0",
     "--to", "12.566", "--samples", "100", "--format", "csv"],
    ["roulette", "--base", "circle", "--R", "4", "--radius", "1",
     "--side", "normal", "--format", "svg", "--samples", "150"],
]


def _run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def test_c10_cli_determinism():
    failures = []
    for argv in GOLDEN_COMMANDS:
        first = _run_cli(argv)
        second = _run_cli(argv)
        check(failures, first[0] == 0, f"{argv}: exit {first[0]}")
        check(failures, first == second, f"{argv}: output changed between runs")

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = GOLDEN_COMMANDS[0]
    runs = [
        subprocess.run(
            [sys.executable, "-m", "curvekit", *argv],
            capture_output=True,
            env=env,
            cwd=ROOT,
        )
        for _ in range(2)
    ]
    check(failures, runs[0].returncode == 0, f"{argv}: nonzero exit")
    check(failures, runs[0].stdout == runs[1].stdout,
          f"{argv}: subprocess output changed between runs")
    finish("C10", "CLI determinism", failures)
