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


def _number(text: str) -> float:
    """The argparse type of every numeric flag: a constant expression such as
    '2*pi'.  One that depends on theta, is singular or names an unbound
    parameter is refused with the reason, which argparse prints after the flag."""
    try:
        node = _expr.parse(text)
        if _expr.contains(node, _expr.Var):
            raise _expr.ExprError("depends on theta")
        return _expr.evaluate(node, 0.0)
    except _expr.ExprError as exc:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None


def _integer(text: str) -> int:
    """The argparse type of a count flag: a constant, as _number reads it,
    that is a whole number, such as '1e5' or '2^17'."""
    value = _number(text)
    if not float(value).is_integer():
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: not an integer")
    return int(value)


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise UsageError(f"{flag} must be at least {least}, got {value}")


def _param(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, _number(value)


def _domain(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    return _number(lo), _number(hi)


def cmd_intersect(args) -> dict:
    result = intersections(PolarCurve(args.c1, args.param), PolarCurve(args.c2, args.param))
    obj: dict = {"origin": result.origin}
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
    return obj


def _decomposed_regions(curve: PolarCurve) -> list[SectorRegion]:
    return [
        SectorRegion.from_piece(piece)
        for piece in positive_pieces(curve)
        if not piece.traced_twice
    ]


# Each area mode: the flags that select it, and every flag it reads.
_AREA_MODES = {
    "--rose-N": ({"rose_N"}, {"rose_N"}),
    "--limacon-lambda": ({"limacon_lambda"}, {"limacon_lambda"}),
    "--loop": ({"loop"}, {"loop", "c1", "domain", "param"}),
    "--c1/--c2": ({"c1", "c2"}, {"c1", "c2", "param"}),
}


def cmd_area(args) -> dict:
    given = {dest for dest in ("c1", "c2", "rose_N", "limacon_lambda", "loop", "domain", "param")
             if getattr(args, dest) is not None and getattr(args, dest) is not False}
    modes = [mode for mode, (select, _) in _AREA_MODES.items() if select <= given]
    if len(modes) != 1:
        raise UsageError(
            "area needs exactly one of: --c1/--c2, --rose-N, --limacon-lambda, --loop with --c1"
        )
    mode = modes[0]
    if mode == "--loop" and args.c1 is None:
        raise UsageError("--loop needs --c1")
    unread = sorted("--" + dest.replace("_", "-") for dest in given - _AREA_MODES[mode][1])
    if unread:
        raise UsageError(f"area {mode} does not read {', '.join(unread)}")
    if mode == "--rose-N":
        _at_least("--rose-N", args.rose_N, 1)
        value = rose_intersection_area(args.rose_N)
    elif mode == "--limacon-lambda":
        value = limacon_common_area(args.limacon_lambda)
    elif mode == "--loop":
        curve = _domain_curve(args.c1, args.param, args.domain)
        value = sum(loop_area(region) for region in _decomposed_regions(curve))
    else:
        c1 = _domain_curve(args.c1, args.param, None)
        c2 = _domain_curve(args.c2, args.param, None)
        regions_a, regions_b = _decomposed_regions(c1), _decomposed_regions(c2)
        value = sum(region_intersection_area(ra, rb) for ra in regions_a for rb in regions_b)
    return {"area": _num(value)}


def _domain_curve(text: str, params, domain: tuple[float, float] | None) -> PolarCurve:
    """The curve over --domain, or else over one period (one parse, one record)."""
    if domain is not None:
        return PolarCurve(text, params, domain)
    n = PolarCurve(text, params).period_multiple_of_pi()
    if n is None:
        raise UsageError(f"curve {text!r} has no polar period; pass --domain")
    return PolarCurve(text, params, (0.0, n * math.pi))


def cmd_period(args) -> dict:
    _at_least("--max-multiple", args.max_multiple, 1)
    n = PolarCurve(args.c1, args.param).period_multiple_of_pi(args.max_multiple)
    return {"period_multiple_of_pi": n}


# --axis as the (kind, angle) it tests
_AXES = {"x": ("reflection", 0.0), "y": ("reflection", math.pi / 2.0),
         "origin": ("rotation", math.pi)}


def cmd_symmetry(args) -> dict:
    curve = PolarCurve(args.c1, args.param)
    chosen = [(flag, value) for flag, value in
              (("axis", args.axis), ("rotation", args.rotation), ("reflection", args.reflection))
              if value is not None]
    if len(chosen) != 1:
        raise UsageError("symmetry needs exactly one of --axis, --rotation, --reflection")
    flag, value = chosen[0]
    kind, angle = _AXES[value] if flag == "axis" else (flag, value)
    test = is_rotation_symmetric if kind == "rotation" else is_reflection_symmetric
    return {"kind": kind, "angle": _num(angle), "symmetric": bool(test(curve, angle))}


def cmd_decompose(args) -> dict:
    pieces = positive_pieces(_domain_curve(args.c1, args.param, args.domain))
    return {
        "pieces": [
            {
                "expression": _expr.to_string(piece.curve.radius),
                "interval": [_num(piece.interval[0]), _num(piece.interval[1])],
                "traced_twice": piece.traced_twice,
            }
            for piece in pieces
        ],
    }


_BASES = {
    "line": lambda args: line(),
    "circle": lambda args: circle(args.R),
    "ellipse": lambda args: ellipse(args.a, args.b),
    "limacon": lambda args: limacon(args.base_lambda),
}


def _row_bytes(columns, sep: str, end: str) -> bytearray:
    # the kernel is imported on first use, so that only a process that
    # writes a document compiles and loads it
    from ._rows import row_bytes
    return row_bytes(columns, sep, end)


def _fmt_rows(columns, sep: str, end: str) -> str:
    """Rows of the columns' values, each as _fmt gives it, with sep after
    every value of a row but the last and end after the last (each one ASCII
    character other than "%"); curvekit._rows renders them."""
    return _row_bytes(columns, sep, end).decode("ascii")


def _csv_trace(ts, points) -> str:
    return "t,x,y\n" + _fmt_rows((ts, points.real, points.imag), ",", "\n")


# The smallest span the SVG margin is taken of, so that a drawing of one
# point still gets a viewBox of non-zero size
SVG_MIN_SPAN = 1e-9


def _svg_document(polylines) -> str:
    """Minimal standalone SVG: one polyline per curve, 5% viewBox margin."""
    xs = np.concatenate([np.asarray(z).real for _, z in polylines])
    ys = np.concatenate([-np.asarray(z).imag for _, z in polylines])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    margin = 0.05 * max(x1 - x0, y1 - y0, SVG_MIN_SPAN)
    view = (x0 - margin, y0 - margin, (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin)
    width = 0.002 * max(view[2], view[3])
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{} {} {} {}">\n'.format(
            *(_fmt(v) for v in view)
        ),
    ]
    # the points are decoded once and copied into the document by one join:
    # the peak memory of a large SVG is a few copies of its points
    for color, z in polylines:
        z = np.asarray(z)
        points = _row_bytes((z.real, -z.imag), ",", " ")
        del points[-1:]  # the separator after the last point
        parts += [f'<polyline fill="none" stroke="{color}" stroke-width="{_fmt(width)}" points="',
                  points.decode("ascii"), '"/>\n']
    parts.append("</svg>\n")
    return "".join(parts)


# The most --samples a roulette takes: 10^7 rows are about 0.45 GB of CSV, and
# a larger count would first fail in numpy's allocation with no flag named
MAX_SAMPLES = 10**7


def cmd_roulette(args) -> str:
    _at_least("--samples", args.samples, 2)
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    base = _BASES[args.base](args)
    t_from = args.t_from if args.t_from is not None else 0.0
    if args.t_to is not None:
        t_to = args.t_to
    elif args.base == "line":
        t_to = 2.0 * math.pi * args.radius
    else:
        t_to = 2.0 * math.pi
    t0 = args.t0 if args.t0 is not None else t_from
    cfg = RollConfig(radius=args.radius, side=args.side, reverse=args.reverse, k=args.k, t0=t0)
    points = trace(base, cfg, t_from, t_to, args.samples)
    if args.format == "csv":
        return _csv_trace(linspace(t_from, t_to, args.samples), points)
    base_points = base.points_many(linspace(t_from, t_to, max(args.samples, 256)))
    return _svg_document([("#888888", base_points), ("#b01010", points)])


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # mathematical degeneracy and reports usage problems with 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        # argparse reads a value such as -pi or -cos(theta) as an option
        argument, _, problem = message.partition(": ")
        if problem == "expected one argument" and argument.startswith("argument --"):
            flag = argument.removeprefix("argument ")
            message += f" (a value that starts with '-' is written {flag}=VALUE)"
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="curvekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("intersect", help="intersection points of two polar curves")
    p.add_argument("--c1", required=True, help="first curve r = f(theta)")
    p.add_argument("--c2", required=True, help="second curve r = g(theta)")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("area", help="areas of polar regions and intersections")
    p.add_argument("--c1", help="first curve")
    p.add_argument("--c2", help="second curve")
    p.add_argument("--rose-N", dest="rose_N", type=_integer,
                   help="common area of the sin/cos roses of order N")
    p.add_argument("--limacon-lambda", dest="limacon_lambda", type=_number,
                   help="area inside both limacon loops for this shape parameter")
    p.add_argument("--loop", action="store_true",
                   help="total loop area of --c1 (sum over its positive pieces)")
    p.add_argument("--domain", type=_domain, help="angular domain LO:HI for --loop")
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("period", help="polar period as a multiple of pi")
    p.add_argument("--c1", required=True)
    p.add_argument("--max-multiple", type=_integer, default=MAX_PERIOD_MULTIPLE)
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("symmetry", help="rotation/reflection symmetry tests")
    p.add_argument("--c1", required=True)
    p.add_argument("--axis", choices=tuple(_AXES))
    p.add_argument("--rotation", type=_number, help="rotation angle in radians (pi allowed)")
    p.add_argument("--reflection", type=_number, help="reflection-line angle in radians")
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("decompose", help="rewrite a curve as non-negative pieces")
    p.add_argument("--c1", required=True)
    p.add_argument("--domain", type=_domain, help="angular domain LO:HI (default: one period)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("roulette", help="trace a circle rolling along a base curve")
    p.add_argument("--base", choices=tuple(_BASES), required=True)
    p.add_argument("--R", type=_number, default=2.0, help="circle base radius")
    p.add_argument("--a", type=_number, default=3.0, help="ellipse semi-axis a")
    p.add_argument("--b", type=_number, default=2.0, help="ellipse semi-axis b")
    p.add_argument("--lambda", dest="base_lambda", type=_number, default=2.0,
                   help="limacon shape parameter")
    p.add_argument("--radius", type=_number, required=True, help="rolling-circle radius")
    p.add_argument("--side", choices=("normal", "antinormal"), default="normal")
    p.add_argument("--reverse", action="store_true",
                   help="reverse configuration (negate the rolled angle)")
    p.add_argument("--k", type=_number, default=0.0, help="trochoid factor")
    p.add_argument("--t0", type=_number, help="contact parameter (default: --from)")
    p.add_argument("--from", dest="t_from", type=_number, help="start parameter")
    p.add_argument("--to", dest="t_to", type=_number, help="end parameter")
    p.add_argument("--samples", type=_integer, default=500)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.set_defaults(func=cmd_roulette)

    for name, p in sub.choices.items():  # the common flags, last in every usage line
        if name != "roulette":
            p.add_argument("--param", action="append", type=_param, metavar="NAME=VALUE",
                           help="bind a named parameter (repeatable)")
        p.add_argument("--output", help="write to file instead of stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = args.func(args)
    except (IdenticalCurvesError, RegularityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (UsageError, _expr.ExprError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if isinstance(out, dict):
        out = json.dumps({"schema": SCHEMA, **out}, indent=2) + "\n"
    if not args.output:
        sys.stdout.write(out)
        return 0
    try:
        with open(args.output, "w") as handle:
            handle.write(out)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {args.output}: {exc.strerror}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
