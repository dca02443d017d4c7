"""Run the benchmark on two checkouts of curvekit in alternating pairs.

    python tools/bench_pairs.py PARENT CHANGE --workload cli --seeds 2701 2702 ... \
        --name cli_format [--claim latency_p90_ms]

For each seed, `perfbench/run.py --workload W --seed S --seconds 50 --trace 0`
(the end-to-end run length of perfbench/README.md) runs once in each checkout (each tree's own `perfbench/`, read as it is),
one run at a time; the parent goes first on the 1st, 3rd, ... seed and the
change on the others.  The runs and a summary go to `BENCH_<name>.json` in
the current directory, rewritten after every pair, so that a cut sitting
keeps the pairs it finished.  A workload already in that file from another
invocation is kept, so one file can hold both workloads.

The summary gives, per end-to-end metric, each side's median, the parent's
quartiles (inclusive method) and the pairs the change won (ties count for
neither side).  With `--claim METRIC` it also gives the verdict of the rule
for claiming a gain: the change wins at least nine tenths of the pairs and
the medians differ, the right way, by more than the parent's interquartile
range.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = {"ops_per_s": "higher", "latency_p50_ms": "lower", "latency_p90_ms": "lower",
           "setup_s": "lower", "peak_rss_mb": "lower"}
# The run length of an end-to-end run, as perfbench/README.md gives it
SECONDS = 50
# A run that prints no result within this long counts as failed to run
RUN_TIMEOUT_S = 600


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in tree: its result line, flattened."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{tree}: seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = {"correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"]}
    record.update({name: round(result["metrics"][name]["value"], 4) for name in METRICS})
    return record


def summarize(runs: list[dict], claim: str | None) -> dict:
    parent = {r["seed"]: r for r in runs if r["side"] == "parent"}
    change = {r["seed"]: r for r in runs if r["side"] == "change"}
    seeds = [seed for seed in parent if seed in change]
    summary: dict = {
        "pairs": len(seeds),
        "failed_ops": {"parent": sum(parent[s]["failed"] for s in seeds),
                       "change": sum(change[s]["failed"] for s in seeds)},
        "all_correct": all(parent[s]["correct"] and change[s]["correct"] for s in seeds),
    }
    if not seeds:
        return summary
    for name, better in METRICS.items():
        old = [parent[s][name] for s in seeds]
        new = [change[s][name] for s in seeds]
        sign = 1.0 if better == "lower" else -1.0
        q1, _, q3 = (statistics.quantiles(old, n=4, method="inclusive") if len(old) > 1
                     else old * 3)
        summary[name] = {
            "better": better,
            "parent_median": round(statistics.median(old), 4),
            "change_median": round(statistics.median(new), 4),
            "parent_q1": round(q1, 4),
            "parent_q3": round(q3, 4),
            "change_won": sum(sign * (b - a) < 0 for a, b in zip(old, new)),
            "pairs": len(seeds),
        }
    if claim is not None:
        summary["verdict"] = verdict(claim, summary[claim])
    return summary


def verdict(name: str, s: dict) -> str:
    gain = s["parent_median"] - s["change_median"]
    if s["better"] == "higher":
        gain = -gain
    spread = s["parent_q3"] - s["parent_q1"]
    met = s["change_won"] >= 0.9 * s["pairs"] and gain > spread
    percent = 100.0 * gain / s["parent_median"]
    return (f"claim {'met' if met else 'not met'}: {name} {s['parent_median']} -> "
            f"{s['change_median']} in the medians ({percent:+.1f} % better), the change won "
            f"{s['change_won']} of {s['pairs']} pairs (needs {math.ceil(0.9 * s['pairs'])}); "
            f"the medians differ by {gain:.4g} against the parent's interquartile range "
            f"of {spread:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--claim", choices=tuple(METRICS), help="the metric a gain is claimed on")
    args = parser.parse_args(argv)

    out = Path(f"BENCH_{args.name}.json")
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("command", "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                              f"--seconds {SECONDS} --trace 0")
    doc.setdefault("machine", f"{platform.machine()}, Python {platform.python_version()}, "
                              f"numpy {importlib.metadata.version('numpy')}")
    doc.setdefault("method", "each seed runs once in each checkout, one run at a time; "
                             "consecutive seeds alternate which side runs first; summary: "
                             "medians of each side, the parent's quartiles (inclusive), and "
                             "the pairs the change won (ties count for neither side)")
    doc.setdefault("workloads", {})[args.workload] = runs = []
    doc.setdefault("summary", {})
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for i, seed in enumerate(args.seeds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            record = {"seed": seed, "side": side}
            record.update(run_once(trees[side], args.workload, seed))
            runs.append(record)
            print(json.dumps(record), flush=True)
        doc["summary"][args.workload] = summarize(runs, args.claim)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc["summary"][args.workload], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
