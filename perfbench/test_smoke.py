"""Smoke test of the benchmark itself: every workload at a tiny size, untraced
and traced, one injected wrong reference, and a run outside a checkout.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def assert_metrics(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


def test_spec_matches_harness():
    sys.path.insert(0, str(HERE))
    import run

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_tiny(workload):
    proc, result = bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                         "--trace", "0", "--min-ops", "3")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_ratio = 0 ratio" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny(workload):
    proc, result = bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                         "--trace", "1", "--trace-ops", "3")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert_metrics(result, SPEC["per_layer"])
    assert result["correct"] and result["attempted"] == 6  # untraced + traced pass
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.ops"] == 3 and metrics["trace.overhead_ratio"] > 0
    if workload == "cli":
        assert metrics["cli.main.calls"] == 3 and metrics["cli.import_curvekit_s"] > 0


def test_traced_block_shows_which_family_uses_which_layer():
    # one whole block holds every op class of every family
    proc, result = bench("--workload", "library", "--seed", "3", "--seconds", "0.01",
                         "--trace", "1", "--trace-ops", "54")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    record = json.loads((ROOT / ".perfbench_out" / "result-library-seed3-trace1.json").read_text())
    calls = record["calls_by_family"]
    assert calls["intersect"]["kernels.hausdorff.calls"] > 0
    assert calls["area"]["kernels.hausdorff.calls"] > 0
    assert calls["roll"]["kernels.hausdorff.calls"] == 0
    assert calls["roll"]["numerics.find_roots.calls"] == 0
    assert calls["area"]["numerics.integrate.calls"] > 0
    assert calls["roll"]["numerics.integrate.calls"] > 0
    assert calls["intersect"]["numerics.integrate.calls"] == 0


def test_injected_wrong_reference_reaches_fail_ratio():
    # the first 54 library ops are one whole block: the area roses N = 1..6
    # among them, so exactly the three even-N roses meet the wrong value
    proc, result = bench("--workload", "library", "--seed", "3", "--seconds", "0.01",
                         "--trace", "0", "--min-ops", "54", "--inject-wrong-reference")
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] is False
    assert result["attempted"] == 54 and result["failed"] == 3
    assert f"fail_ratio = {3 / 54:.6g} ratio" in proc.stdout


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, result = bench("--workload", "library", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert result is None
