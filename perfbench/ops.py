"""Executing one op against curvekit, and summarizing what it returned.

Every library call goes through a module attribute looked up at call time
(`intersect.intersections`, not a name imported once), so the tracer's
wrappers see the calls.  `run` is the timed part; `summarize` runs after the
clock stops and keeps only what the harness needs to check the answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

from curvekit import area, cli, intersect, polar, roulette

ROOT = Path(__file__).resolve().parents[1]


class Context:
    """Per-run state: the roll bases, and how `cli` ops are executed."""

    def __init__(self, workload: str, bases: list[dict], in_process: bool):
        self.in_process = in_process
        self.bases = [build_base(spec) for spec in bases] if workload == "library" else []
        self.output_bytes = 0


def build_base(spec: dict):
    name = spec["name"]
    if name == "line":
        return roulette.line()
    if name == "circle":
        return roulette.circle(spec["R"])
    if name == "ellipse":
        return roulette.ellipse(spec["a"], spec["b"])
    return roulette.limacon(spec["lam"])


def _regions(text: str, params: dict, domain=None):
    if domain is None:
        n = polar.PolarCurve(text, params).period_multiple_of_pi()
        domain = (0.0, n * math.pi)
    curve = polar.PolarCurve(text, params, domain)
    return [area.SectorRegion.from_piece(piece)
            for piece in polar.positive_pieces(curve) if not piece.traced_twice]


def _cli_subprocess(argv: list[str]):
    # the worker's environment already has PYTHONPATH=src and the BLAS settings
    proc = subprocess.run([sys.executable, "-m", "curvekit", *argv],
                          capture_output=True, cwd=ROOT, timeout=120)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def _cli_in_process(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def family(op: dict) -> str:
    """`intersect`, `area` or `roll` for a library op, `cli` for a CLI op."""
    return op.get("family", "cli")


def run(ctx: Context, op: dict):
    w = family(op)
    if w == "intersect":
        c1 = polar.PolarCurve(op["c1"], op["p1"])
        c2 = polar.PolarCurve(op["c2"], op["p2"])
        return intersect.intersections(c1, c2)
    if w == "area":
        kind = op["kind"]
        if kind == "rose":
            n = op["n"]
            r1 = _regions(f"sin({n}*theta)", {})
            r2 = _regions(f"cos({n}*theta)", {})
            return sum(area.region_intersection_area(a, b) for a in r1 for b in r2)
        if kind == "limacon":
            return area.limacon_common_area(op["lam"])
        regions = _regions("1 + lambda*cos(theta)", {"lambda": op["lam"]}, (0.0, 2.0 * math.pi))
        return sum(area.loop_area(region) for region in regions)
    if w == "roll":
        base = ctx.bases[op["base"]]
        cfg = roulette.RollConfig(op["radius"], op["side"], op["reverse"], op["k"])
        if op["kind"] == "state":
            return roulette.roll_state(base, cfg, op["t"])
        return roulette.trace(base, cfg, 0.0, op["t_to"], op["samples"])
    if ctx.in_process:
        return _cli_in_process(op["argv"])
    return _cli_subprocess(op["argv"])


def _xy(z: complex) -> list[float]:
    return [z.real, z.imag]


def _floats(row: str) -> list[float]:
    return [float(v) for v in row.split(",")]


_POLYLINE = re.compile(r'<polyline [^>]*points="([^"]*)"')


def _cli_summary(op: dict, rc: int, out: str, err: str) -> dict:
    summary = {"rc": rc, "bytes": len(out.encode()), "traceback": "Traceback" in err,
               "stderr": err.strip().splitlines()[0][:200] if err.strip() else ""}
    if rc != 0:
        return summary
    if op["cmd"] != "roulette":
        summary["json"] = json.loads(out)
    elif op["format"] == "csv":
        lines = out.splitlines()
        rows = lines[1:]
        summary.update(header=lines[0], rows=len(rows), mid_index=len(rows) // 2,
                       first=_floats(rows[0]), mid=_floats(rows[len(rows) // 2]),
                       last=_floats(rows[-1]))
    else:
        polylines = [p.split(" ") for p in _POLYLINE.findall(out)]
        summary.update(polylines=[len(p) for p in polylines],
                       first=_floats(polylines[-1][0]), last=_floats(polylines[-1][-1]))
    return summary


def summarize(ctx: Context, op: dict, result) -> dict:
    """JSON-able digest of an op's outcome (an exception is an outcome too)."""
    if isinstance(result, intersect.IdenticalCurvesError):
        return {"identical": True}
    if isinstance(result, Exception):
        return {"error": f"{type(result).__name__}: {result}"}
    w = family(op)
    if w == "intersect":
        return {"identical": False, "origin": result.origin,
                "points": [[p.point.real, p.point.imag, p.theta1, p.theta2]
                           for p in result.points]}
    if w == "area":
        return {"area": float(result)}
    if w == "roll":
        if op["kind"] == "state":
            return {"center": _xy(result.center), "angle": result.roll_angle,
                    "point": _xy(result.point), "trochoid": _xy(result.trochoid)}
        mid = len(result) // 2
        return {"n": len(result), "mid_index": mid, "first": _xy(complex(result[0])),
                "mid": _xy(complex(result[mid])), "last": _xy(complex(result[-1]))}
    rc, out, err = result
    ctx.output_bytes += len(out.encode())
    return _cli_summary(op, rc, out, err)
