#!/usr/bin/env python3
"""curvekit benchmark: one seeded workload, checked, printed as metrics.

    python3 perfbench/run.py --workload library --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout.  With `--trace 0` it times the workload
untraced and reports the end-to-end metrics; with `--trace 1` it runs a
fixed list of the workload's ops once untraced and once under the tracer and
reports the per-layer metrics.  Every op's answer is checked against an
independent reference (check.py) after the worker has exited.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  The exit
code is 0 when every answer was right, 1 when one was wrong, and 2 when the
benchmark could not run (then no result line is printed).  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Set-up time is the median of this many fresh interpreters (the timed
# worker's own set-up is one of them).
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170
# numpy's BLAS is pinned to one thread in every worker, on every commit.
BLAS_THREADS = "1"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_LAYER_UNITS = {"calls": "count", "self_s": "s", "points": "count", "roots": "count",
                "points_per_root": "points/root", "integrand_evals": "count",
                "pieces": "count", "traced_twice": "count", "identical": "count",
                "output_bytes": "B", "interpreter_s": "s", "import_numpy_s": "s",
                "import_curvekit_s": "s", "overhead_ratio": "ratio", "ops": "count"}

PER_LAYER_NAMES = [
    "kernels.hausdorff.calls", "kernels.hausdorff.self_s",
    "numerics.find_roots.calls", "numerics.find_roots.self_s",
    "numerics.find_roots.points", "numerics.find_roots.roots",
    "numerics.find_roots.points_per_root",
    "numerics.integrate.calls", "numerics.integrate.self_s",
    "numerics.integrate.integrand_evals",
    "expr.parse.calls", "expr.parse.self_s",
    "expr.compile.calls", "expr.compile.self_s",
    "expr.array_eval.calls", "expr.array_eval.points", "expr.array_eval.self_s",
    "expr.scalar_eval.calls", "expr.scalar_eval.self_s",
    "expr.differentiate.calls",
    "polar.period.calls", "polar.period.self_s",
    "polar.pieces.calls", "polar.pieces.self_s", "polar.pieces.pieces",
    "polar.pieces.traced_twice",
    "polar.symmetry.calls", "polar.symmetry.self_s",
    "intersect.calls", "intersect.self_s", "intersect.points", "intersect.identical",
    "area.region_intersection.calls", "area.region_intersection.self_s",
    "area.loop.calls", "area.loop.self_s",
    "roulette.roll_state.calls", "roulette.roll_state.self_s",
    "roulette.arc_length.calls", "roulette.arc_length.self_s",
    "roulette.trace.calls", "roulette.trace.points", "roulette.trace.self_s",
    "cli.interpreter_s", "cli.import_numpy_s", "cli.import_curvekit_s",
    "cli.main.calls", "cli.main.self_s", "cli.main.output_bytes",
    "trace.overhead_ratio", "trace.ops",
]
PER_LAYER = {name: _LAYER_UNITS[name.rsplit(".", 1)[1]] for name in PER_LAYER_NAMES}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    for var in _BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_worker(args, mode: str, extra: list[str] | None = None) -> list[dict]:
    """Start one worker, wait for it, and return its JSON records."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--min-ops", str(args.min_ops), "--t-spawn", repr(t_spawn), *(extra or [])]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_worker_env(),
                              cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    if not records or "setup_s" not in records[0] or (mode != "setup" and "end" not in records[-1]):
        raise BenchError(f"{mode} worker wrote an incomplete record stream")
    return records


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive linear interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _repeat_share(op_list: list[dict], indices: list[int]) -> float:
    seen = set()
    repeats = 0
    for i in indices:
        key = inputs.input_key(op_list[i])
        repeats += key in seen
        seen.add(key)
    return repeats / len(indices)


def provenance(args, op_count: int, repeat_share: float) -> dict:
    import numpy
    import scipy

    try:
        git_hash = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        git_hash = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": (importlib.metadata.version("numba")
                  if importlib.util.find_spec("numba") else None),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: BLAS_THREADS for var in _BLAS_VARS},
        "git": git_hash,
        "ops": op_count,
        "input_repeat_share": repeat_share,
        "loop": "closed, one caller, one thread, at most one child process",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds per run (trace runs use a fixed op list)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=100,
                        help="ops a timed run reaches even past --seconds (p90 needs "
                             "10 samples beyond it); the smoke test lowers it")
    parser.add_argument("--trace-ops", type=int, default=0,
                        help="ops in a traced run (default: the workload's own count)")
    parser.add_argument("--inject-wrong-reference", action="store_true",
                        help="check even-N rose areas against the published pi/4 - 1/2 "
                             "(smoke test: those ops must count as failed)")
    args = parser.parse_args()

    if not (ROOT / "src" / "curvekit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no curvekit source under {ROOT / 'src'}; "
                         "run from the root of a curvekit checkout\n")
        return 2

    try:
        if args.trace:
            extra = ["--ops", str(args.trace_ops)] if args.trace_ops else []
            records = run_worker(args, "trace", extra)
            setups = []
        else:
            setups = [run_worker(args, "setup")[0]["setup_s"] for _ in range(SETUP_REPEATS - 1)]
            records = run_worker(args, "run")
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import check  # needs curvekit and scipy, so only once the workers are done

    op_list = inputs.ops_for(args.workload, args.seed)
    bases = inputs.roll_bases(args.seed)
    end = records[-1]["end"]
    op_records = records[1:-1]
    failures = []
    for rec in op_records:
        op = op_list[rec["i"]]
        try:
            reason = check.check(op, rec["out"], bases, args.inject_wrong_reference)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"outcome does not have the expected form: {exc!r}"
        if reason is not None:
            failures.append({"i": rec["i"], "pass": rec["pass"], "reason": reason,
                             "input": inputs.input_key(op)})
    attempted = len(op_records)
    fail_ratio = len(failures) / attempted

    timed = [rec for rec in op_records if rec["pass"] == ("traced" if args.trace else "plain")]
    if args.trace:
        layers = end["layers"]
        roots = layers.get("numerics.find_roots.roots", 0.0)
        layers["numerics.find_roots.points_per_root"] = (
            layers.get("numerics.find_roots.points", 0.0) / roots if roots else 0.0)
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        setups.append(records[0]["setup_s"])
        latencies = [rec["s"] for rec in timed]
        values = {
            "ops_per_s": len(latencies) / end["timed_s"],
            "latency_p50_ms": 1e3 * _quantile(latencies, 50),
            "latency_p90_ms": 1e3 * _quantile(latencies, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": end["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    prov = provenance(args, len(timed), _repeat_share(op_list, [rec["i"] for rec in timed]))
    by_family = end.get("by_family", {})
    summary = {"provenance": prov, "fail_ratio": fail_ratio, "failures": failures[:50],
               "metrics": metrics, "setup_runs_s": setups, "calls_by_family": by_family}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(summary, indent=1) + "\n")

    print(f"# curvekit benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} ops={len(timed)} repeat_share={prov['input_repeat_share']:.3f}")
    print(f"# provenance {json.dumps(prov)}")
    for failure in failures[:10]:
        line = f"# FAILED op {failure['i']} ({failure['pass']}): {failure['reason']}"
        print(line)
        # stderr too, with the input, so that a log of stderr alone shows what failed
        sys.stderr.write(f"{line}\n#   input {failure['input']}\n")
    print(f"fail_ratio = {fail_ratio:.6g} ratio ({len(failures)} of {attempted})")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for fam, calls in by_family.items():
        print(f"# {fam} ops: " + ", ".join(f"{k} = {v}" for k, v in calls.items()))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
