"""`tools/bench_pairs.py`: the summary and verdict of alternating pairs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(seed, side, p90, ops=5.0, failed=0):
    return {"seed": seed, "side": side, "correct": failed == 0, "attempted": 100,
            "failed": failed, "ops_per_s": ops, "latency_p50_ms": 150.0,
            "latency_p90_ms": p90, "setup_s": 0.5, "peak_rss_mb": 60.0}


def test_summary_counts_pairs_won_and_gives_the_parent_quartiles():
    runs = []
    for seed, (old, new) in enumerate([(280.0, 240.0), (290.0, 250.0), (270.0, 275.0),
                                       (300.0, 245.0), (285.0, 244.0)]):
        runs += [_run(seed, "parent", old), _run(seed, "change", new, ops=5.0 + seed)]
    runs.append(_run(99, "parent", 1.0))  # a pair cut short counts for nothing
    summary = bench_pairs.summarize(runs, "latency_p90_ms")
    p90 = summary["latency_p90_ms"]
    assert summary["pairs"] == 5 and summary["all_correct"]
    assert (p90["parent_median"], p90["change_median"]) == (285.0, 245.0)
    assert (p90["parent_q1"], p90["parent_q3"]) == (280.0, 290.0)  # inclusive quartiles
    assert p90["change_won"] == 4
    # ties count for neither side; higher is better for ops_per_s
    assert summary["latency_p50_ms"]["change_won"] == 0
    assert summary["ops_per_s"]["change_won"] == 4
    # 4 of 5 pairs is short of nine tenths, though the medians differ by 40
    assert summary["verdict"].startswith("claim not met: latency_p90_ms 285.0 -> 245.0")


def test_verdict_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_spread():
    stats = {"better": "lower", "parent_median": 100.0, "change_median": 90.0,
             "parent_q1": 95.0, "parent_q3": 104.0, "change_won": 9, "pairs": 10}
    assert bench_pairs.verdict("latency_p90_ms", stats).startswith("claim met")
    assert bench_pairs.verdict("latency_p90_ms", {**stats, "parent_q1": 90.0}).startswith(
        "claim not met")
    assert bench_pairs.verdict("latency_p90_ms", {**stats, "change_won": 8}).startswith(
        "claim not met")
