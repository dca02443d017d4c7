"""`tools/compare_outputs.py`: float distances in ulps, and one small run of
a checkout against itself."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "compare_outputs.py"

_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_ulps_count_floats_between():
    assert compare_outputs._ulps(0.1, 0.1) == 0
    assert compare_outputs._ulps(1.0, 1.0 + 2.0**-52) == 1
    assert compare_outputs._ulps(-0.0, 0.0) == 0
    assert compare_outputs._ulps(-5e-324, 5e-324) == 2
    assert compare_outputs._ulps(float("nan"), float("nan")) == 0


def test_differences_name_where_outcomes_differ():
    old = {"rc": 0, "area": 0.14269908169872414, "points": [[1.0, 2.0]]}
    new = {"rc": 0, "area": 0.1426990816987242, "points": [[1.0, 2.0], [3.0, 4.0]]}
    assert compare_outputs._differences(old, new) == [
        ".area: 0.14269908169872414 -> 0.1426990816987242 (2 ulp)",
        ".points: 1 -> 2 entries",
    ]
    assert compare_outputs._differences(old, dict(old)) == []
    assert compare_outputs._differences(0.0, -0.0) == [": 0.0 -> -0.0 (0 ulp)"]


def test_a_checkout_matches_itself():
    result = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--seeds", "1",
                             "--ops", "12"], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "library seed 1: 12 ops, 0 differ\ncli seed 1: 12 ops, 0 differ\n"


def test_a_shuffled_run_is_compared_op_by_op():
    result = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--seeds", "1",
                             "--ops", "12", "--shuffle", "5"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ("library seed 1 (change shuffled by 5): 12 ops, 0 differ\n"
                             "cli seed 1 (change shuffled by 5): 12 ops, 0 differ\n")
