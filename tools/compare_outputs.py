"""Compare what two checkouts of curvekit answer on the benchmark's ops.

    python tools/compare_outputs.py PARENT CHANGE --seeds 1 7 [--ops N] [--shuffle SEED]

Each tree runs the op lists of `perfbench/inputs.py` through
`perfbench/ops.py` (both read as they are) in its own interpreter, with
`src/` and `perfbench/` of that tree on the path and one BLAS thread, as the
benchmark's workers have.  CLI ops run in process through `cli.main`, so an
op's rc, stdout and stderr are what the command prints; a traceback shows as
an exception outcome.  For each op the two outcomes are compared:

- library ops by the bits of every float they return (distances in ulps),
  and a roulette trace by the sha256 of its whole point array;
- CLI ops by rc, stdout (sha256, and the first differing line) and stderr.

Every difference is printed, one op a line, then a count per op class.  The
exit status is 0 when nothing differs and 1 otherwise.  `--ops N` compares
only the first N ops of each list.  `--shuffle SEED` runs the change tree's
ops in an order drawn from SEED (the parent's stay in list order) and still
compares them op by op, so state an op leaves behind for later ones, such as
the per-curve records, is filled by different ops on the two sides.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

# stdout kept whole for a line diff up to this size; larger ones by hash only
_KEEP_TEXT = 1 << 16


def _outcome(ops, ctx, op) -> dict:
    try:
        result = ops.run(ctx, op)
    except Exception as exc:  # an exception is an outcome too
        return {"error": f"{type(exc).__name__}: {exc}"}
    if ops.family(op) == "cli":
        rc, out, err = result
        digest = {"rc": rc, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
                  "stderr": err}
        if len(out) <= _KEEP_TEXT:
            digest["stdout"] = out
        return digest
    if op.get("kind") == "trace":
        return {"n": len(result), "sha256": hashlib.sha256(result.tobytes()).hexdigest()}
    return ops.summarize(ctx, op, result)  # floats in full: JSON keeps every bit


def child(workload: str, seed: int, limit: int | None, shuffle: int | None) -> None:
    """Run the ops in this interpreter, in the order drawn from shuffle if it
    is given, and print one JSON list of outcomes in list order."""
    import inputs
    import ops

    op_list = inputs.ops_for(workload, seed)[:limit]
    ctx = ops.Context(workload, inputs.roll_bases(seed), in_process=True)
    order = list(range(len(op_list)))
    if shuffle is not None:
        random.Random(shuffle).shuffle(order)
    records = [None] * len(op_list)
    for i in order:
        op = op_list[i]
        records[i] = {"key": inputs.input_key(op),
                      "class": f"{ops.family(op)}/{op.get('cmd') or op['kind']}",
                      "out": _outcome(ops, ctx, op)}
    json.dump(records, sys.__stdout__)


def _run_tree(tree: Path, workload: str, seed: int, limit: int | None,
              shuffle: int | None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(tree / "src"), str(tree / "perfbench")))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload, str(seed),
           str(limit or 0)] + ([] if shuffle is None else [str(shuffle)])
    return subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _ulps(x: float, y: float) -> float:
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return 0.0 if x == y or (math.isnan(x) and math.isnan(y)) else math.inf

    def ordered(v):
        n = struct.unpack("<q", struct.pack("<d", v))[0]
        return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)

    return float(abs(ordered(x) - ordered(y)))


def _differences(old, new, path: str = "") -> list[str]:
    """Where two JSON outcomes differ, floats by their distance in ulps."""
    if isinstance(old, float) and isinstance(new, float):
        same = struct.pack("<d", old) == struct.pack("<d", new)
        return [] if same else [f"{path}: {old!r} -> {new!r} ({_ulps(old, new):g} ulp)"]
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return [f"{path}: keys {sorted(old)} -> {sorted(new)}"]
        return [d for k in old if k != "stdout" for d in _differences(old[k], new[k], f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: {len(old)} -> {len(new)} entries"]
        return [d for i, (a, b) in enumerate(zip(old, new)) for d in _differences(a, b, f"{path}[{i}]")]
    return [] if old == new else [f"{path}: {old!r} -> {new!r}"]


def _first_line_diff(old: dict, new: dict) -> str:
    if "stdout" not in old or "stdout" not in new:
        return ""
    a, b = old["stdout"].splitlines(), new["stdout"].splitlines()
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"; stdout line {i + 1}: {x!r} -> {y!r}"
    return f"; stdout has {len(a)} -> {len(b)} lines"


def compare(parent: Path, change: Path, workload: str, seed: int, limit: int | None,
            shuffle: int | None) -> Counter:
    """Print each op whose outcome differs; return the differing ops per class."""
    procs = [_run_tree(parent, workload, seed, limit, None),
             _run_tree(change, workload, seed, limit, shuffle)]
    outputs = []
    for tree, proc in zip((parent, change), procs):
        out, err = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"{tree}: {workload} seed {seed} failed:\n{err}")
        outputs.append(json.loads(out))
    differing = Counter()
    for i, (old, new) in enumerate(zip(*outputs)):
        if old["key"] != new["key"]:
            raise SystemExit(f"{workload} seed {seed} op {i}: the trees built different ops")
        diffs = _differences(old["out"], new["out"])
        if diffs:
            differing[old["class"]] += 1
            extra = _first_line_diff(old["out"], new["out"]) if old["class"].startswith("cli/") else ""
            key = old["key"].replace("\0", " ")
            print(f"{workload} seed {seed} op {i} {old['class']} [{key}]: {'; '.join(diffs)}{extra}")
    order = "" if shuffle is None else f" (change shuffled by {shuffle})"
    print(f"{workload} seed {seed}{order}: {len(outputs[0])} ops, "
          f"{sum(differing.values())} differ"
          + "".join(f", {name} {n}" for name, n in sorted(differing.items())))
    return differing


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--child"]:
        workload, seed, limit = args[1], int(args[2]), int(args[3])
        child(workload, seed, limit or None, int(args[4]) if len(args) > 4 else None)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    parser.add_argument("--ops", type=int, default=0,
                        help="compare the first this many ops of each list (default: all)")
    parser.add_argument("--shuffle", type=int, metavar="SEED",
                        help="run the change tree's ops in an order drawn from SEED")
    opts = parser.parse_args(args)
    differing = Counter()
    for seed in opts.seeds:
        for workload in ("library", "cli"):
            differing += compare(opts.parent.resolve(), opts.change.resolve(), workload, seed,
                                 opts.ops or None, opts.shuffle)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
