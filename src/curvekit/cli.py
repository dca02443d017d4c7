"""Command-line front end: intersect, area, period, symmetry, decompose,
roulette, with JSON / CSV / SVG output.

Exit codes: 0 success, 1 usage or expression error, 2 mathematical
degeneracy (identical curves, regularity failure).  All numeric output is
formatted to 12 significant digits so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import expr as _expr
from .area import (
    SectorRegion,
    limacon_common_area,
    loop_area,
    region_intersection_area,
    rose_intersection_area,
)
from .intersect import IdenticalCurvesError, intersections
from .numerics import linspace
from .polar import (
    MAX_PERIOD_MULTIPLE,
    PolarCurve,
    is_reflection_symmetric,
    is_rotation_symmetric,
    positive_pieces,
)
from .roulette import (
    RegularityError,
    RollConfig,
    circle,
    ellipse,
    limacon,
    line,
    trace,
)

SCHEMA = "curvekit/1"


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _num(x: float) -> float:
    """Round-trip a float through its 12-significant-digit form."""
    return float(_fmt(x))


def _parse_number(text: str, what: str) -> float:
    """Numeric flag value; arithmetic and 'pi' are allowed (e.g. '2*pi')."""
    try:
        node = _expr.parse(text)
        return _expr.evaluate(node, 0.0)
    except _expr.ExprError as exc:
        raise UsageError(f"invalid {what}: {exc}") from None


def _parse_params(items) -> dict[str, float]:
    params = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise UsageError(f"--param expects NAME=VALUE, got {item!r}")
        params[name] = _parse_number(value, f"parameter {name!r}")
    return params


def _parse_domain(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    lo, sep, hi = text.partition(":")
    if not sep:
        raise UsageError(f"--domain expects LO:HI, got {text!r}")
    return (_parse_number(lo, "domain bound"), _parse_number(hi, "domain bound"))


def _emit(payload: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w") as handle:
                handle.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    else:
        sys.stdout.write(payload)


def _json_out(obj: dict, path: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", path)


def cmd_intersect(args) -> int:
    params = _parse_params(args.param)
    result = intersections(PolarCurve(args.c1, params), PolarCurve(args.c2, params))
    obj: dict = {"schema": SCHEMA, "origin": result.origin}
    if result.origin:
        obj["origin_witnesses"] = [_num(w) for w in result.origin_witnesses]
    obj["points"] = [
        {
            "x": _num(p.point.real),
            "y": _num(p.point.imag),
            "theta1": _num(p.theta1),
            "theta2": _num(p.theta2),
            "residual": _num(p.residual),
        }
        for p in result.points
    ]
    _json_out(obj, args.output)
    return 0


def _decomposed_regions(curve: PolarCurve) -> list[SectorRegion]:
    return [
        SectorRegion.from_piece(piece)
        for piece in positive_pieces(curve)
        if not piece.traced_twice
    ]


def cmd_area(args) -> int:
    params = _parse_params(args.param)
    chosen = [
        args.rose_N is not None,
        args.limacon_lambda is not None,
        bool(args.loop),
        args.c1 is not None and args.c2 is not None,
    ]
    if sum(chosen) != 1:
        raise UsageError(
            "area needs exactly one of: --c1/--c2, --rose-N, --limacon-lambda, --loop with --c1"
        )
    if args.rose_N is not None:
        value = rose_intersection_area(args.rose_N)
    elif args.limacon_lambda is not None:
        value = limacon_common_area(args.limacon_lambda)
    elif args.loop:
        if args.c1 is None:
            raise UsageError("--loop needs --c1")
        curve = _domain_curve(args.c1, params, args.domain)
        value = sum(loop_area(region) for region in _decomposed_regions(curve))
    else:
        c1 = _domain_curve(args.c1, params, None)
        c2 = _domain_curve(args.c2, params, None)
        value = sum(
            region_intersection_area(ra, rb)
            for ra in _decomposed_regions(c1)
            for rb in _decomposed_regions(c2)
        )
    _json_out({"schema": SCHEMA, "area": _num(value)}, args.output)
    return 0


def _domain_curve(text: str, params, domain_text: str | None) -> PolarCurve:
    """The curve over --domain, or else over one period, parsed once."""
    domain = _parse_domain(domain_text)
    if domain is not None:
        return PolarCurve(text, params, domain)
    curve = PolarCurve(text, params)
    n = curve.period_multiple_of_pi()
    if n is None:
        raise UsageError(f"curve {text!r} has no polar period; pass --domain")
    curve.domain = (0.0, n * math.pi)
    return curve


def cmd_period(args) -> int:
    params = _parse_params(args.param)
    n = PolarCurve(args.c1, params).period_multiple_of_pi(args.max_multiple)
    _json_out({"schema": SCHEMA, "period_multiple_of_pi": n}, args.output)
    return 0


def cmd_symmetry(args) -> int:
    params = _parse_params(args.param)
    curve = PolarCurve(args.c1, params)
    chosen = [args.axis is not None, args.rotation is not None, args.reflection is not None]
    if sum(chosen) != 1:
        raise UsageError("symmetry needs exactly one of --axis, --rotation, --reflection")
    if args.axis is not None:
        if args.axis == "x":
            kind, angle = "reflection", 0.0
        elif args.axis == "y":
            kind, angle = "reflection", math.pi / 2.0
        else:
            kind, angle = "rotation", math.pi
    elif args.rotation is not None:
        kind, angle = "rotation", _parse_number(args.rotation, "rotation angle")
    else:
        kind, angle = "reflection", _parse_number(args.reflection, "reflection angle")
    if kind == "rotation":
        symmetric = is_rotation_symmetric(curve, angle)
    else:
        symmetric = is_reflection_symmetric(curve, angle)
    _json_out(
        {"schema": SCHEMA, "kind": kind, "angle": _num(angle), "symmetric": bool(symmetric)},
        args.output,
    )
    return 0


def cmd_decompose(args) -> int:
    params = _parse_params(args.param)
    pieces = positive_pieces(_domain_curve(args.c1, params, args.domain))
    obj = {
        "schema": SCHEMA,
        "pieces": [
            {
                "expression": _expr.to_string(piece.curve.radius),
                "interval": [_num(piece.interval[0]), _num(piece.interval[1])],
                "traced_twice": piece.traced_twice,
            }
            for piece in pieces
        ],
    }
    _json_out(obj, args.output)
    return 0


_BASES = ("line", "circle", "ellipse", "limacon")


def _base_curve(args):
    if args.base == "line":
        return line()
    if args.base == "circle":
        return circle(args.R)
    if args.base == "ellipse":
        return ellipse(args.a, args.b)
    return limacon(args.base_lambda)


def _fmt_rows(columns, sep: str, end: str) -> str:
    """Rows of the columns' values, each as _fmt gives it, in one string
    formatting call: "%.12g" renders a float exactly as format(x, ".12g")."""
    table = np.column_stack(columns)
    row = sep.join(["%.12g"] * table.shape[1]) + end
    return (row * table.shape[0]) % tuple(table.ravel().tolist())


def _csv_trace(ts, points) -> str:
    return "t,x,y\n" + _fmt_rows((ts, points.real, points.imag), ",", "\n")


def _svg_document(polylines) -> str:
    """Minimal standalone SVG: one polyline per curve, 5% viewBox margin."""
    xs = np.concatenate([np.asarray(z).real for _, z in polylines])
    ys = np.concatenate([-np.asarray(z).imag for _, z in polylines])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    margin = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    view = (x0 - margin, y0 - margin, (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin)
    width = 0.002 * max(view[2], view[3])
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{} {} {} {}">'.format(
            *(_fmt(v) for v in view)
        ),
    ]
    for color, z in polylines:
        z = np.asarray(z)
        pts = _fmt_rows((z.real, -z.imag), ",", " ")[:-1]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{_fmt(width)}" points="{pts}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_roulette(args) -> int:
    base = _base_curve(args)
    t_from = _parse_number(args.t_from, "--from") if args.t_from is not None else 0.0
    if args.t_to is not None:
        t_to = _parse_number(args.t_to, "--to")
    elif args.base == "line":
        t_to = 2.0 * math.pi * args.radius
    else:
        t_to = 2.0 * math.pi
    cfg = RollConfig(
        radius=args.radius,
        side=args.side,
        reverse=args.reverse,
        k=args.k,
        t0=_parse_number(args.t0, "--t0") if args.t0 is not None else t_from,
    )
    points = trace(base, cfg, t_from, t_to, args.samples)
    ts = linspace(t_from, t_to, args.samples)
    if args.format == "csv":
        _emit(_csv_trace(ts, points), args.output)
    else:
        base_points = base.points_many(linspace(t_from, t_to, max(args.samples, 256)))
        _emit(_svg_document([("#888888", base_points), ("#b01010", points)]), args.output)
    return 0


def _number_flag(text: str) -> float:
    return _parse_number(text, "numeric flag")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # mathematical degeneracy and reports usage problems with 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="curvekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="bind a named parameter (repeatable)")
        p.add_argument("--output", help="write to file instead of stdout")

    p = sub.add_parser("intersect", help="intersection points of two polar curves")
    p.add_argument("--c1", required=True, help="first curve r = f(theta)")
    p.add_argument("--c2", required=True, help="second curve r = g(theta)")
    add_common(p)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("area", help="areas of polar regions and intersections")
    p.add_argument("--c1", help="first curve")
    p.add_argument("--c2", help="second curve")
    p.add_argument("--rose-N", dest="rose_N", type=int,
                   help="common area of the sin/cos roses of order N")
    p.add_argument("--limacon-lambda", dest="limacon_lambda", type=_number_flag,
                   help="area inside both limacon loops for this shape parameter")
    p.add_argument("--loop", action="store_true",
                   help="total loop area of --c1 (sum over its positive pieces)")
    p.add_argument("--domain", help="angular domain LO:HI for --loop")
    add_common(p)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("period", help="polar period as a multiple of pi")
    p.add_argument("--c1", required=True)
    p.add_argument("--max-multiple", type=int, default=MAX_PERIOD_MULTIPLE)
    add_common(p)
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("symmetry", help="rotation/reflection symmetry tests")
    p.add_argument("--c1", required=True)
    p.add_argument("--axis", choices=("x", "y", "origin"))
    p.add_argument("--rotation", help="rotation angle in radians (pi allowed)")
    p.add_argument("--reflection", help="reflection-line angle in radians")
    add_common(p)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("decompose", help="rewrite a curve as non-negative pieces")
    p.add_argument("--c1", required=True)
    p.add_argument("--domain", help="angular domain LO:HI (default: one period)")
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("roulette", help="trace a circle rolling along a base curve")
    p.add_argument("--base", choices=_BASES, required=True)
    p.add_argument("--R", type=_number_flag, default=2.0, help="circle base radius")
    p.add_argument("--a", type=_number_flag, default=3.0, help="ellipse semi-axis a")
    p.add_argument("--b", type=_number_flag, default=2.0, help="ellipse semi-axis b")
    p.add_argument("--lambda", dest="base_lambda", type=_number_flag, default=2.0,
                   help="limacon shape parameter")
    p.add_argument("--radius", type=_number_flag, required=True,
                   help="rolling-circle radius")
    p.add_argument("--side", choices=("normal", "antinormal"), default="normal")
    p.add_argument("--reverse", action="store_true",
                   help="reverse configuration (negate the rolled angle)")
    p.add_argument("--k", type=_number_flag, default=0.0, help="trochoid factor")
    p.add_argument("--t0", help="contact parameter (default: --from)")
    p.add_argument("--from", dest="t_from", help="start parameter")
    p.add_argument("--to", dest="t_to", help="end parameter")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_roulette)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (IdenticalCurvesError, RegularityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (UsageError, _expr.ExprError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
