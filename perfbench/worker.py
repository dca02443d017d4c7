"""One workload in a fresh interpreter: set up, warm up, then run ops.

Started by run.py, never by hand.  It writes JSON lines to stdout: first
`{"setup_s": ...}`, then one record per op (`i`, `pass`, `s`, `out`), then
`{"end": {...}}`.  Answers are checked by the parent, after this process
has exited, so checking neither competes with the timed ops nor shows up
in the traced counts.

Modes:
  setup  set up and warm up, then exit (set-up time is a median of several)
  run    time ops for --seconds and at least --min-ops ops, untraced
  trace  run a fixed list of ops untraced, then the same ops traced
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import curvekit  # noqa: F401  (set-up time covers the package import)
import inputs
import ops as opmod

# A wall-clock cap on the timed loop keeps a run well inside the harness's
# time limit even on a much slower machine.
MAX_LOOP_S = 120.0
# Ops in a traced run: whole blocks, so the class mix is exact and the
# per-layer counts repeat exactly for a seed.
TRACE_OPS = {"library": 108, "cli": 28}
# Layers whose calls a traced library run also counts per op family, to show
# which family exercises them and which bypasses them.
FAMILY_LAYERS = ("kernels.hausdorff", "numerics.find_roots", "numerics.integrate")
PROBE_REPEATS = 5

_out = sys.stdout


def emit(record: dict) -> None:
    _out.write(json.dumps(record) + "\n")


def run_ops(ctx, op_list, label, tracer=None, seconds=None, min_ops=0):
    """Closed loop, one caller: each op starts when the previous one ends."""
    timed = 0.0
    loop_start = time.perf_counter()
    i = 0
    while True:
        if seconds is None:
            if i >= len(op_list):
                break
        elif (timed >= seconds and i >= min_ops) or time.perf_counter() - loop_start > MAX_LOOP_S:
            break
        op = op_list[i % len(op_list)]
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            result = opmod.run(ctx, op)
        except Exception as exc:  # an op's failure is recorded and checked, not fatal
            result = exc
        elapsed = time.perf_counter() - start
        timed += elapsed
        try:
            out = opmod.summarize(ctx, op, result)
        except (KeyError, IndexError, ValueError) as exc:  # malformed CLI output
            out = {"error": f"unreadable output: {exc!r}"}
        emit({"i": i % len(op_list), "pass": label, "s": elapsed, "out": out})
        i += 1
    return i, timed


def _probe(code: str) -> float:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         check=True, timeout=60).stdout
    return float(out)


def cli_probes() -> dict:
    """Interpreter start and import times, each in a fresh interpreter."""
    def wall(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        return time.perf_counter() - start

    timed_import = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    return {
        "cli.interpreter_s": statistics.median(wall("pass") for _ in range(PROBE_REPEATS)),
        "cli.import_numpy_s": statistics.median(
            _probe(timed_import.format("numpy")) for _ in range(PROBE_REPEATS)),
        "cli.import_curvekit_s": statistics.median(
            _probe(timed_import.format("curvekit")) for _ in range(PROBE_REPEATS)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-ops", type=int, default=100)
    parser.add_argument("--ops", type=int, default=0, help="fixed op count (trace mode)")
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args()

    op_list = inputs.ops_for(args.workload, args.seed)
    ctx = opmod.Context(args.workload, inputs.roll_bases(args.seed), args.mode == "trace")
    for op in inputs.warmup_ops(args.workload, args.seed):
        try:
            opmod.run(ctx, op)
        except Exception:  # warm-up answers are not checked; failures show in the timed ops
            pass
    emit({"setup_s": time.monotonic() - args.t_spawn})
    if args.mode == "setup":
        return 0

    if args.mode == "run":
        n, timed = run_ops(ctx, op_list, "plain", seconds=args.seconds, min_ops=args.min_ops)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        emit({"end": {"ops": n, "timed_s": timed,
                      "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0}})
        return 0

    from tracer import Tracer

    fixed = op_list[: args.ops or TRACE_OPS[args.workload]]
    _, plain_s = run_ops(ctx, fixed, "plain")
    ctx.output_bytes = 0
    tracer = Tracer()
    tracer.install()
    try:
        n, traced_s = run_ops(ctx, fixed, "traced", tracer=tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    if args.workload == "cli":
        layers["cli.main.output_bytes"] = ctx.output_bytes
        layers.update(cli_probes())
    layers["trace.overhead_ratio"] = traced_s / plain_s
    layers["trace.ops"] = n
    by_family = {}
    if args.workload == "library":
        by_family = {f: {name + ".calls": 0 for name in FAMILY_LAYERS} for f in inputs.FAMILIES}
        for _, name, _, op_index, _, _, _ in tracer.spans:
            if name in FAMILY_LAYERS:
                by_family[opmod.family(fixed[op_index])][name + ".calls"] += 1
    out_dir = opmod.ROOT / ".perfbench_out"
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "ops": n})
    emit({"end": {"ops": n, "plain_s": plain_s, "traced_s": traced_s, "layers": layers,
                  "by_family": by_family}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
