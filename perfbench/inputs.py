"""Seeded inputs for the two workloads, `library` and `cli`.

A `library` op belongs to one of three families, each calling one part of
the public API: `intersect` (intersection points), `area` (region areas)
and `roll` (rolling circles).  Inputs come in blocks.  Every block holds
each input class in fixed proportions, shuffled by the seed, so the class
mix (and with it the latency quantiles) is the same on every seed while the
concrete curves, parameters and sample counts differ.  Only the standard
library is used, so the harness process and the worker process build
identical lists from the same seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("library", "cli")
FAMILIES = ("intersect", "area", "roll")

# Enough blocks that a run of `--seconds` <= 60 does not exhaust the list on
# a 2-vCPU machine; `ops_for` wraps around (and the repeat share shows it)
# if it does.
_BLOCKS = {"library": 160, "cli": 40}

# Ordered pairs (m, n) with m, n < 10, gcd 1, excluding (1, 1): 54 pairs.
COPRIME_PAIRS = [
    (m, n) for m in range(1, 10) for n in range(1, 10)
    if math.gcd(m, n) == 1 and (m, n) != (1, 1)
]

# Pairs of texts that trace the same graph: g(t) = f(t + 2k*pi), or
# g(t) = -f(t + pi) (the half-turn form of the equality rule), or the
# plain sign flip of an even rose, whose petals map onto each other.
_IDENTICAL_TEMPLATES = (
    ("cos({n}*theta)", "-cos({n}*theta + {n}*pi)", None),
    ("sin({n}*theta)", "sin({n}*(theta + 2*pi))", None),
    ("cos({m}*theta)", "-cos({m}*theta)", None),
    ("sin({n}*theta)", "-sin({n}*theta + {n}*pi)", None),
    ("1 - lambda*sin(theta)", "-1 - lambda*sin(theta)", "lambda"),
    ("1 + lambda*cos(theta)", "-1 + lambda*cos(theta)", "lambda"),
)


def _spread(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n draws from [lo, hi), one from each n-th of the range, in random order.

    Costs depend on these parameters (a limacon with lambda < 1 has one loop,
    with lambda > 1 two), so stratifying keeps each block's cost mix alike.
    """
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _intersect_block(rng: random.Random) -> list[dict]:
    ops = []
    for _ in range(5):
        n = rng.randint(1, 12)
        trig = rng.choice((("sin", "cos"), ("cos", "sin")))
        ops.append({"kind": "rose", "n": n,
                    "c1": f"{trig[0]}({n}*theta)", "p1": {},
                    "c2": f"{trig[1]}({n}*theta)", "p2": {}})
    for _ in range(5):
        m, n = rng.choice(COPRIME_PAIRS)
        ops.append({"kind": "mixed", "m": m, "n": n,
                    "c1": f"cos({m}*theta)", "p1": {},
                    "c2": f"sin({n}*theta)", "p2": {}})
    for lam in _spread(rng, 0.3, 2.8, 4):
        ops.append({"kind": "limacon", "lam": lam,
                    "c1": "1 - lambda*sin(theta)", "p1": {"lambda": lam},
                    "c2": "1 + lambda*cos(theta)", "p2": {"lambda": lam}})
    for rho in _spread(rng, 0.2, 1.8, 2):
        ops.append({"kind": "circle", "rho": rho,
                    "c1": "1 + cos(theta)", "p1": {},
                    "c2": "rho", "p2": {"rho": rho}})
    for a in _spread(rng, 0.5, 2.0, 2):
        ops.append({"kind": "tangent", "a": a,
                    "c1": "a*(1 + cos(theta))", "p1": {"a": a},
                    "c2": "2*a*cos(theta)", "p2": {"a": a}})
    for _ in range(2):
        t1, t2, pname = rng.choice(_IDENTICAL_TEMPLATES)
        n = rng.randint(1, 6)
        params = {pname: rng.uniform(0.3, 2.8)} if pname else {}
        ops.append({"kind": "identical",
                    "c1": t1.format(n=n, m=2 * n), "p1": params,
                    "c2": t2.format(n=n, m=2 * n), "p2": params})
    return ops


def _area_block(rng: random.Random) -> list[dict]:
    # 8 loops put the median inside the loop ops' latencies, not on the edge
    # between two kinds of op, where it would jump with small shifts in speed
    ops = [{"kind": "rose", "n": n} for n in range(1, 7)]
    ops += [{"kind": "limacon", "lam": lam} for lam in _spread(rng, 1.05, 3.0, 4)]
    ops += [{"kind": "loop", "lam": lam} for lam in _spread(rng, 0.2, 3.0, 8)]
    return ops


# Shapes per base kind: ops spread over several shapes, so no single seeded
# eccentricity or lambda decides how long the ellipse or limacon ops take.
SHAPES_PER_BASE = 4


def roll_bases(seed: int) -> list[dict]:
    """Bases of each kind (line, circle, ellipse, limacon), seeded shapes."""
    rng = random.Random(f"bases-{seed}")
    bases = []
    for i in range(SHAPES_PER_BASE):
        # half the limacons have an inner loop (lambda > 1), half do not
        lam = rng.uniform(1.2, 2.8) if i % 2 else rng.uniform(0.2, 0.8)
        bases += [
            {"name": "line"},
            {"name": "circle", "R": rng.uniform(2.0, 4.0)},
            {"name": "ellipse", "a": rng.uniform(2.0, 4.0), "b": rng.uniform(1.0, 2.0)},
            {"name": "limacon", "lam": lam},
        ]
    return bases


def _t_range(base: dict) -> float:
    return 16.0 * math.pi if base["name"] == "line" else 2.0 * math.pi


def _roll_config(rng: random.Random) -> dict:
    closed_form = rng.random() < 0.5
    return {
        "radius": rng.uniform(0.3, 1.5),
        "side": rng.choice(("normal", "antinormal")),
        "reverse": False if closed_form else rng.random() < 0.5,
        "k": 0.0 if closed_form else rng.uniform(-0.5, 1.5),
    }


def _roll_block(rng: random.Random, bases: list[dict]) -> list[dict]:
    ops = []
    kinds = ("line", "circle", "ellipse", "limacon")
    # one trace per base kind, with stratified sample counts over the log range
    # 1e4 .. 2e5; the largest is always 2e5, so the peak RSS of a run depends
    # on the base kinds, not on how close one draw came to the top
    strata = _spread(rng, 0.0, 1.0, len(kinds) - 1) + [1.0]
    rng.shuffle(strata)
    for kind, stratum in zip(kinds, strata):
        shapes = [i for i, base in enumerate(bases) if base["name"] == kind]
        span = _t_range(bases[shapes[0]])
        for t in _spread(rng, 0.0, span, 3):
            ops.append({"kind": "state", "base": rng.choice(shapes),
                        "t": t, **_roll_config(rng)})
        samples = int(round(10.0 ** (4.0 + stratum * math.log10(20.0))))
        ops.append({"kind": "trace", "base": rng.choice(shapes),
                    "t_to": rng.uniform(0.25 * span, span),
                    "samples": samples, **_roll_config(rng)})
    return ops


_BAD_EXPRESSIONS = ("sin(theta", "foo(theta)", "2**theta", "sin theta", "theta)", "1/", "cos()")


def _cli_block(rng: random.Random, index: int) -> list[dict]:
    ops = []
    # intersect: a rose, a coprime pair, a limacon pair with a parameter
    n = rng.randint(1, 12)
    ops.append({"cmd": "intersect", "kind": "rose", "n": n,
                "argv": ["intersect", "--c1", f"sin({n}*theta)", "--c2", f"cos({n}*theta)"]})
    m, k = rng.choice(COPRIME_PAIRS)
    ops.append({"cmd": "intersect", "kind": "mixed", "m": m, "n": k,
                "argv": ["intersect", "--c1", f"cos({m}*theta)", "--c2", f"sin({k}*theta)"]})
    lam = rng.uniform(0.3, 2.8)
    ops.append({"cmd": "intersect", "kind": "limacon", "lam": lam,
                "argv": ["intersect", "--c1", "1 - lambda*sin(theta)",
                         "--c2", "1 + lambda*cos(theta)", "--param", f"lambda={lam!r}"]})
    # area: full decomposed rose area, limacon common area, summed loop area
    n = rng.randint(1, 6)
    ops.append({"cmd": "area", "kind": "rose", "n": n,
                "argv": ["area", "--c1", f"sin({n}*theta)", "--c2", f"cos({n}*theta)"]})
    lam = rng.uniform(1.05, 3.0)
    ops.append({"cmd": "area", "kind": "limacon", "lam": lam,
                "argv": ["area", "--limacon-lambda", repr(lam)]})
    lam = rng.uniform(0.2, 3.0)
    ops.append({"cmd": "area", "kind": "loop", "lam": lam,
                "argv": ["area", "--loop", "--c1", "1 + lambda*cos(theta)",
                         "--param", f"lambda={lam!r}", "--domain", "0:2*pi"]})
    # period of cos/sin(p*theta/q)
    while True:
        p, q = rng.randint(1, 9), rng.randint(1, 9)
        if math.gcd(p, q) == 1:
            break
    trig = rng.choice(("sin", "cos"))
    ops.append({"cmd": "period", "p": p, "q": q,
                "argv": ["period", "--c1", f"{trig}({p}*theta/{q})"]})
    # symmetry of the rose cos(N*theta)
    n = rng.randint(1, 9)
    kind, angle, expected = rng.choice((
        ("--rotation", f"2*pi/{n}", True),
        ("--rotation", f"pi/{n}", n % 2 == 0),
        ("--reflection", "0", True),
        ("--reflection", f"pi/{2 * n}", n % 2 == 0),
    ))
    ops.append({"cmd": "symmetry", "expected": expected,
                "argv": ["symmetry", "--c1", f"cos({n}*theta)", kind, angle]})
    # decompose: limacon loops, or the circle traced twice
    if rng.random() < 0.5:
        lam = rng.uniform(1.1, 3.0) if rng.random() < 0.5 else rng.uniform(0.2, 0.9)
        ops.append({"cmd": "decompose", "kind": "limacon", "lam": lam,
                    "argv": ["decompose", "--c1", "1 - lambda*sin(theta)",
                             "--param", f"lambda={lam!r}", "--domain", "0:2*pi"]})
    else:
        ops.append({"cmd": "decompose", "kind": "twice",
                    "argv": ["decompose", "--c1", "sin(theta)", "--domain", "0:2*pi"]})
    # roulette traces: a CSV with 1e4 .. 10**4.5 samples on a random base kind,
    # then a CSV and an SVG with 1e5, the largest outputs, each on the base
    # kinds in turn.  The two 1e5 traces are 1 op in 7, so p90 falls among
    # them and every block holds the same ones: neither p90 nor the peak RSS
    # of a run hangs on how close a draw came to 1e5.
    kinds = ("line", "circle", "ellipse", "limacon")
    for fmt, exponent, turn in (("csv", rng.uniform(4.0, 4.5), None), ("csv", 5.0, index + 2),
                                ("svg", 5.0, index)):
        base = rng.choice(kinds) if turn is None else kinds[turn % len(kinds)]
        samples = int(round(10.0 ** exponent))
        radius = rng.uniform(0.3, 1.5)
        side = rng.choice(("normal", "antinormal"))
        spec = {"name": base}
        argv = ["roulette", "--base", base, "--radius", repr(radius), "--side", side,
                "--samples", str(samples), "--format", fmt]
        if base == "circle":
            spec["R"] = rng.uniform(2.0, 4.0)
            argv += ["--R", repr(spec["R"])]
        elif base == "ellipse":
            spec["a"], spec["b"] = rng.uniform(2.0, 4.0), rng.uniform(1.0, 2.0)
            argv += ["--a", repr(spec["a"]), "--b", repr(spec["b"])]
        elif base == "limacon":
            spec["lam"] = rng.uniform(1.2, 2.8)
            argv += ["--lambda", repr(spec["lam"])]
        t_to = 2.0 * math.pi * radius if base == "line" else 2.0 * math.pi
        ops.append({"cmd": "roulette", "format": fmt, "base": spec, "samples": samples,
                    "radius": radius, "side": side, "t_to": t_to, "argv": argv})
    # expected failures: exit 1 for a bad expression, exit 2 for identical curves
    bad = rng.choice(_BAD_EXPRESSIONS)
    ops.append({"cmd": "bad-expression", "expected_rc": 1,
                "argv": ["intersect", "--c1", bad, "--c2", "cos(theta)"]})
    n = rng.randint(1, 6)
    ops.append({"cmd": "identical", "expected_rc": 2,
                "argv": ["intersect", "--c1", f"cos({n}*theta)",
                         "--c2", f"-cos({n}*theta + {n}*pi)"]})
    return ops


def _block(workload: str, rng: random.Random, seed: int, index: int) -> list[dict]:
    if workload == "library":
        block = ([dict(op, family="intersect") for op in _intersect_block(rng)]
                 + [dict(op, family="area") for op in _area_block(rng)]
                 + [dict(op, family="roll") for op in _roll_block(rng, roll_bases(seed))])
    else:
        block = _cli_block(rng, index)
    rng.shuffle(block)
    return block


def ops_for(workload: str, seed: int) -> list[dict]:
    """The timed op list of a run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}-{seed}")
    ops = []
    for index in range(_BLOCKS[workload]):
        ops.extend(_block(workload, rng, seed, index))
    return ops


def warmup_ops(workload: str, seed: int) -> list[dict]:
    """One op of each input class, drawn apart from the timed list."""
    rng = random.Random(f"{workload}-warmup-{seed}")
    seen = set()
    ops = []
    for op in _block(workload, rng, seed, 0):
        key = (op.get("family"), op.get("cmd", op.get("kind")))
        if key not in seen:
            seen.add(key)
            ops.append(op)
    # Warm-up runs the same code paths as the timed ops, at a size that does
    # not depend on the seed, so that set-up time does not either.
    if workload == "cli":
        # two cheap commands warm the page cache and the bytecode cache
        return [op for op in ops if op["cmd"] in ("period", "symmetry")]
    sized = {("area", "rose"): {"n": 2}, ("roll", "trace"): {"samples": 10_000}}
    return [dict(op, **sized.get((op["family"], op["kind"]), {})) for op in ops]


def input_key(op: dict) -> str:
    """What the program sees of an op: texts and parameter values."""
    if "argv" in op:
        return "\0".join(op["argv"])
    if op["family"] == "intersect":
        return repr((op["c1"], sorted(op["p1"].items()), op["c2"], sorted(op["p2"].items())))
    return repr(sorted(op.items()))
