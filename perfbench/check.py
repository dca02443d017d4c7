"""Reference answers and per-op checks, independent of the timed code path.

References are closed forms, scipy quadrature, or hand-written numpy
formulas for the roll geometry.  The library is used in two places only,
both named by the benchmark's contract: the scalar AST evaluator
(`curvekit.expr.evaluate`) judges whether a reported intersection point lies
on both curves, and `roll_state` at the end parameter judges the last point
of a `trace`.  Neither is the path the timed op ran through.
"""

from __future__ import annotations

import cmath
import math

from scipy import integrate as sp_integrate

from curvekit import expr, roulette
from curvekit.numerics import RESIDUAL_GATE
from ops import build_base, family

TWO_PI = 2.0 * math.pi
POINT_TOL = 1e-7        # analytic intersection points vs reported ones
AREA_TOL = 1e-9         # closed-form areas (the library integrates to 1e-10)
QUAD_TOL = 1e-8         # areas and arc lengths against scipy.integrate.quad
ROLL_TOL = 1e-8         # roll geometry against the independent formulas
TRACE_END_TOL = 1e-8    # last trace point against roll_state at the same t
CLI_REL_TOL = 1e-10     # CLI prints 12 significant digits


# -- intersect --------------------------------------------------------------

def rose_area(n: int, wrong_reference: bool = False) -> float:
    """Full common area of r = sin(N theta) and r = cos(N theta).

    N odd: N overlap wedges; N even: 4N wedges of the same total, pi/2 - 1.
    `wrong_reference` swaps in the published even-N value pi/4 - 1/2, which
    direct computation contradicts; the smoke test uses it to show that a
    wrong answer reaches fail_ratio.
    """
    if n % 2:
        return math.pi / 8.0 - 0.25
    return math.pi / 4.0 - 0.5 if wrong_reference else math.pi / 2.0 - 1.0


def _on_curve(text: str, params: dict, theta: float, z: complex) -> float:
    r = expr.evaluate(expr.parse(text), theta, params)
    return abs(r * cmath.exp(1j * theta) - z)


def _limacon_points(lam: float) -> list[complex]:
    """1 - lam*sin(t) and 1 + lam*cos(t): same-ray points at 3pi/4 and 7pi/4,
    opposite-ray points where sin(t) + cos(t) = 2/lam (lam > sqrt 2)."""
    f = lambda t: 1.0 - lam * math.sin(t)  # noqa: E731
    thetas = [0.75 * math.pi, 1.75 * math.pi]
    if lam > math.sqrt(2.0):
        shift = math.asin(math.sqrt(2.0) / lam)
        thetas += [-0.25 * math.pi + shift, 0.75 * math.pi - shift]
    return [f(t) * cmath.exp(1j * t) for t in thetas if abs(f(t)) > 1e-9]


def _match(reference: list[complex], got: list[complex]) -> str | None:
    if len(reference) != len(got):
        return f"{len(got)} points, expected {len(reference)}"
    for z in reference:
        if min(abs(z - g) for g in got) > POINT_TOL:
            return f"no reported point near {z:.9g}"
    return None


def _intersect_counts(op: dict) -> tuple[int | None, bool | None]:
    kind = op["kind"]
    if kind == "rose":
        n = op["n"]
        return (n if n % 2 else 4 * n), True
    if kind == "mixed":
        m, n = op["m"], op["n"]
        # max(m, n) holds only for odd/odd pairs: (2,3) gives 5, (4,9) gives 17
        return (max(m, n) if m % 2 and n % 2 else None), True
    return None, None


def check_intersect(op: dict, out: dict) -> str | None:
    if "error" in out:
        return out["error"]
    if op["kind"] == "identical":
        return None if out["identical"] else "identical graphs not detected"
    if out["identical"]:
        return "distinct curves reported identical"
    for x, y, th1, th2 in out["points"]:
        z = complex(x, y)
        for text, params, theta in ((op["c1"], op["p1"], th1), (op["c2"], op["p2"], th2)):
            residual = _on_curve(text, params, theta, z)
            if not residual < RESIDUAL_GATE:
                return f"point {z:.9g} off {text!r} by {residual:.3g}"
    got = [complex(x, y) for x, y, _, _ in out["points"]]
    kind = op["kind"]
    if kind == "limacon":
        return _match(_limacon_points(op["lam"]), got) or (
            None if out["origin"] == (op["lam"] >= 1.0) else "origin flag")
    if kind == "circle":
        phi = math.acos(op["rho"] - 1.0)
        reference = [op["rho"] * cmath.exp(1j * phi), op["rho"] * cmath.exp(-1j * phi)]
        return _match(reference, got) or (None if not out["origin"] else "origin flag")
    if kind == "tangent":
        return _match([complex(2.0 * op["a"], 0.0)], got) or (
            None if out["origin"] else "origin flag")
    count, origin = _intersect_counts(op)
    if count is not None and len(got) != count:
        return f"{len(got)} points, expected {count}"
    if origin is not None and out["origin"] != origin:
        return "origin flag"
    return None


# -- area -------------------------------------------------------------------

def limacon_common_area(lam: float) -> float:
    """Area inside the large loop of 1 - lam*sin and the small loop of
    1 + lam*cos (boundary lam*cos - 1 on [theta0 + 3pi/2, 5pi/2 - theta0]);
    past 2pi + theta0 the first limacon is negative, so the overlap ends."""
    theta0 = math.asin(1.0 / lam)
    lo = theta0 + 1.5 * math.pi
    hi = min(2.5 * math.pi - theta0, TWO_PI + theta0)
    integrand = lambda t: 0.5 * min(1.0 - lam * math.sin(t), lam * math.cos(t) - 1.0) ** 2  # noqa: E731
    # the boundaries cross where sin(t) + cos(t) = 2/lam
    points = [t for t in (-0.25 * math.pi + math.asin(min(1.0, math.sqrt(2.0) / lam)) + TWO_PI,)
              if lo < t < hi]
    value, _ = sp_integrate.quad(integrand, lo, hi, points=points or None,
                                 epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def loop_area_sum(lam: float) -> float:
    """Summed piece areas of 1 + lam*cos: (1/2) int_0^2pi f^2 = pi (1 + lam^2/2)."""
    return math.pi * (1.0 + 0.5 * lam * lam)


def _area_reference(kind: str, op: dict, wrong_reference: bool) -> tuple[float, float]:
    if kind == "rose":
        return rose_area(op["n"], wrong_reference), AREA_TOL
    if kind == "limacon":
        return limacon_common_area(op["lam"]), QUAD_TOL
    return loop_area_sum(op["lam"]), AREA_TOL


def check_area(op: dict, out: dict, wrong_reference: bool = False) -> str | None:
    if "error" in out:
        return out["error"]
    reference, tol = _area_reference(op["kind"], op, wrong_reference)
    if not abs(out["area"] - reference) <= tol * max(1.0, abs(reference)):
        return f"area {out['area']!r}, expected {reference!r}"
    return None


# -- roll -------------------------------------------------------------------

def _base_geometry(spec: dict, t: float) -> tuple[complex, complex, float]:
    """alpha(t), alpha'(t) and the arc length from 0 to t, by hand."""
    name = spec["name"]
    if name == "line":
        return complex(t, 0.0), 1.0 + 0j, t
    if name == "circle":
        big_r = spec["R"]
        return big_r * cmath.exp(1j * t), 1j * big_r * cmath.exp(1j * t), big_r * t
    if name == "ellipse":
        a, b = spec["a"], spec["b"]
        velocity = lambda s: complex(-a * math.sin(s), b * math.cos(s))  # noqa: E731
        alpha = complex(a * math.cos(t), b * math.sin(t))
    else:
        lam = spec["lam"]
        # z = (1 + lam cos s) e^{is}; z' = -lam sin s e^{is} + i (1 + lam cos s) e^{is}
        velocity = lambda s: (-lam * math.sin(s) + 1j * (1.0 + lam * math.cos(s))) * cmath.exp(1j * s)  # noqa: E731
        alpha = (1.0 + lam * math.cos(t)) * cmath.exp(1j * t)
    length, _ = sp_integrate.quad(lambda s: abs(velocity(s)), 0.0, t,
                                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return alpha, velocity(t), length


def roll_reference(spec: dict, cfg: dict, t: float) -> dict:
    """Center, angle, contact point and trochoid point of the rolling circle."""
    alpha, velocity, length = _base_geometry(spec, t)
    r = cfg["radius"]
    theta = length / r
    if cfg["reverse"]:
        theta = -theta
    normal = 1j * (velocity / abs(velocity)) * r
    if cfg["side"] == "normal":
        center = alpha + normal
        point = center - normal * cmath.exp(-1j * theta)
    else:
        center = alpha - normal
        point = center + normal * cmath.exp(1j * theta)
    return {"center": center, "angle": theta, "point": point,
            "trochoid": point + cfg["k"] * (point - center)}


def closed_form(spec: dict, cfg: dict, t: float) -> complex | None:
    """Cycloid, epicycloid (antinormal) and hypocycloid (normal) contact points."""
    if cfg["k"] != 0.0 or cfg["reverse"]:
        return None
    r = cfg["radius"]
    if spec["name"] == "line" and cfg["side"] == "normal":
        return t + 1j * r - 1j * r * cmath.exp(-1j * t / r)
    if spec["name"] == "circle":
        big_r = spec["R"]
        if cfg["side"] == "antinormal":
            return (big_r + r) * cmath.exp(1j * t) - r * cmath.exp(1j * t * (1.0 + big_r / r))
        return (big_r - r) * cmath.exp(1j * t) + r * cmath.exp(1j * t * (1.0 - big_r / r))
    return None


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def _roll_state_point(spec: dict, cfg: dict, t: float) -> complex:
    """Library roll_state at t, on a base built apart from the worker's."""
    config = roulette.RollConfig(cfg["radius"], cfg["side"], cfg["reverse"], cfg["k"])
    return roulette.roll_state(build_base(spec), config, t).trochoid


def check_roll(op: dict, out: dict, bases: list[dict]) -> str | None:
    if "error" in out:
        return out["error"]
    spec = bases[op["base"]]
    if op["kind"] == "state":
        t = op["t"]
        ref = roll_reference(spec, op, t)
        got = {"center": _z(out["center"]), "angle": out["angle"],
               "point": _z(out["point"]), "trochoid": _z(out["trochoid"])}
        for key, value in got.items():
            if not abs(value - ref[key]) < ROLL_TOL * max(1.0, abs(ref[key])):
                return f"{key} {value!r}, expected {ref[key]!r}"
        exact = closed_form(spec, op, t)
        if exact is not None and not abs(_z(out["point"]) - exact) < ROLL_TOL * max(1.0, abs(exact)):
            return f"point {_z(out['point'])!r}, closed form {exact!r}"
        return None
    n = op["samples"]
    if out["n"] != n:
        return f"{out['n']} samples, expected {n}"
    t_to = op["t_to"]
    ts = {"first": 0.0, "mid": t_to * out["mid_index"] / (n - 1), "last": t_to}
    for key, t in ts.items():
        ref = roll_reference(spec, op, t)["trochoid"]
        if not abs(_z(out[key]) - ref) < ROLL_TOL * max(1.0, abs(ref)):
            return f"trace {key} {_z(out[key])!r}, expected {ref!r}"
    end = _roll_state_point(spec, op, t_to)
    if not abs(_z(out["last"]) - end) < TRACE_END_TOL:
        return f"trace end {_z(out['last'])!r}, roll_state {end!r}"
    return None


# -- cli --------------------------------------------------------------------

def _close(got: float, expected: float, tol: float = CLI_REL_TOL) -> bool:
    return abs(got - expected) <= tol * max(1.0, abs(expected))


def _period(p: int, q: int) -> int:
    """Polar period of cos/sin(p/q theta), gcd(p, q) = 1, as a multiple of pi:
    q when p and q are both odd, else 2q."""
    return q if p % 2 and q % 2 else 2 * q


def _check_cli_json(op: dict, doc: dict, wrong_reference: bool) -> str | None:
    cmd = op["cmd"]
    if doc.get("schema") != "curvekit/1":
        return "schema tag"
    if cmd == "intersect":
        params = {"lambda": op["lam"]} if op["kind"] == "limacon" else {}
        spec = dict(op, c1=op["argv"][2], p1=params, c2=op["argv"][4], p2=params)
        got = {"identical": False, "origin": doc["origin"],
               "points": [[p["x"], p["y"], p["theta1"], p["theta2"]] for p in doc["points"]]}
        return check_intersect(spec, got)
    if cmd == "area":
        reference, tol = _area_reference(op["kind"], op, wrong_reference)
        if not _close(doc["area"], reference, max(tol, CLI_REL_TOL)):
            return f"area {doc['area']!r}, expected {reference!r}"
        return None
    if cmd == "period":
        expected = _period(op["p"], op["q"])
        return None if doc["period_multiple_of_pi"] == expected else (
            f"period {doc['period_multiple_of_pi']}, expected {expected}")
    if cmd == "symmetry":
        return None if doc["symmetric"] == op["expected"] else "symmetry verdict"
    # decompose: limacon 1 - lam sin has a large and a small loop when lam > 1,
    # one loop otherwise; sin over [0, 2pi] is the circle traced twice
    pieces = doc["pieces"]
    if op["kind"] == "twice":
        expected = (2, 1)
    else:
        expected = (2 if op["lam"] > 1.0 else 1, 0)
    got = (len(pieces), sum(p["traced_twice"] for p in pieces))
    if got != expected:
        return f"(pieces, traced twice) {got}, expected {expected}"
    width = sum(p["interval"][1] - p["interval"][0] for p in pieces)
    if not _close(width, TWO_PI, 1e-9):
        return f"piece intervals cover {width!r}, expected 2pi"
    for p in pieces:
        lo, hi = p["interval"]
        node = expr.parse(p["expression"])
        params = {"lambda": op["lam"]} if op["kind"] == "limacon" else {}
        for s in (0.1, 0.5, 0.9):
            if expr.evaluate(node, lo + s * (hi - lo), params) < -1e-9:
                return f"piece {p['expression']!r} negative inside its interval"
    return None


def _check_roulette(op: dict, out: dict) -> str | None:
    n, t_to = op["samples"], op["t_to"]
    cfg = {"radius": op["radius"], "side": op["side"], "reverse": False, "k": 0.0}
    if op["format"] == "csv":
        if out["header"] != "t,x,y" or out["rows"] != n:
            return f"csv shape ({out['header']!r}, {out['rows']} rows), expected {n} rows"
        rows = {"first": 0, "mid": out["mid_index"], "last": n - 1}
        for key, index in rows.items():
            t, x, y = out[key]
            expected_t = t_to * index / (n - 1)
            ref = roll_reference(op["base"], cfg, expected_t)["point"]
            if not (_close(t, expected_t, 1e-11) and _close(x, ref.real, 1e-9)
                    and _close(y, ref.imag, 1e-9)):
                return f"csv row {index} {out[key]!r}, expected {ref!r} at t={expected_t!r}"
        return None
    base_n, trace_n = out["polylines"]
    if trace_n != n or base_n != max(n, 256):
        return f"svg polylines {out['polylines']}, expected {[max(n, 256), n]}"
    for key, t in (("first", 0.0), ("last", t_to)):
        ref = roll_reference(op["base"], cfg, t)["point"]
        x, y = out[key][0], -out[key][1]
        if not (_close(x, ref.real, 1e-9) and _close(y, ref.imag, 1e-9)):
            return f"svg {key} point ({x!r}, {y!r}), expected {ref!r}"
    return None


def check_cli(op: dict, out: dict, wrong_reference: bool = False) -> str | None:
    if "error" in out:
        return out["error"]
    if out["traceback"]:
        return "traceback on stderr"
    expected_rc = op.get("expected_rc", 0)
    if out["rc"] != expected_rc:
        return f"exit {out['rc']}, expected {expected_rc}: {out['stderr']}"
    if expected_rc:
        return None if out["stderr"].startswith("error: ") else "no error message"
    if op["cmd"] == "roulette":
        return _check_roulette(op, out)
    return _check_cli_json(op, out["json"], wrong_reference)


def check(op: dict, out: dict, bases: list[dict], wrong_reference: bool = False) -> str | None:
    """None when the op's outcome is right, else the reason it is wrong."""
    w = family(op)
    if w == "intersect":
        return check_intersect(op, out)
    if w == "area":
        return check_area(op, out, wrong_reference)
    if w == "roll":
        return check_roll(op, out, bases)
    return check_cli(op, out, wrong_reference)
