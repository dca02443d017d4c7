import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from curvekit.cli import main
from curvekit.roulette import cycloid_point

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_inprocess(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def run_subprocess(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "curvekit", *argv],
        capture_output=True,
        env=env,
        cwd=ROOT,
        text=False,
    )


class TestIntersectCommand:
    def test_cardioid_pair(self):
        code, out = run_inprocess(["intersect", "--c1", "cos(theta)", "--c2", "1-cos(theta)"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "curvekit/1"
        assert payload["origin"] is True
        assert len(payload["origin_witnesses"]) == 2
        assert len(payload["points"]) == 2
        for point in payload["points"]:
            assert set(point) == {"x", "y", "theta1", "theta2", "residual"}
            assert point["x"] == pytest.approx(0.25, abs=1e-8)
            assert abs(point["y"]) == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-8)

    def test_single_point_no_origin(self):
        code, out = run_inprocess(["intersect", "--c1", "1", "--c2", "cos(theta)"])
        payload = json.loads(out)
        assert code == 0
        assert payload["origin"] is False
        assert "origin_witnesses" not in payload
        assert len(payload["points"]) == 1
        assert payload["points"][0]["x"] == pytest.approx(1.0, abs=1e-8)
        assert payload["points"][0]["y"] == pytest.approx(0.0, abs=1e-8)

    def test_line_tangent_to_circle(self):
        # r = 1/cos(theta) is the line x = 1, with a pole at theta = pi/2
        code, out = run_inprocess(["intersect", "--c1", "1/cos(theta)", "--c2", "1"])
        assert code == 0
        points = json.loads(out)["points"]
        assert [(p["x"], p["y"]) for p in points] == [(1.0, 0.0)]

    def test_identical_curves_exit_two(self):
        result = run_subprocess(["intersect", "--c1", "cos(theta)", "--c2", "cos(theta)"])
        assert result.returncode == 2
        assert b"identical" in result.stderr or b"same graph" in result.stderr

    def test_parse_error_exit_one(self):
        result = run_subprocess(["intersect", "--c1", "cos(theta", "--c2", "1"])
        assert result.returncode == 1

    def test_usage_error_exit_one(self):
        result = run_subprocess(["intersect", "--c1", "cos(theta)"])
        assert result.returncode == 1


class TestAreaCommand:
    def test_lens(self):
        code, out = run_inprocess(["area", "--c1", "sin(theta)", "--c2", "cos(theta)"])
        assert code == 0
        assert json.loads(out)["area"] == pytest.approx(math.pi / 8 - 0.25, abs=1e-6)

    def test_rose(self):
        code, out = run_inprocess(["area", "--rose-N", "2"])
        assert json.loads(out)["area"] == pytest.approx(math.pi / 2 - 1.0, abs=1e-6)

    def test_limacon(self):
        code, out = run_inprocess(["area", "--limacon-lambda", "2"])
        assert json.loads(out)["area"] == pytest.approx(0.75 * math.pi - 2.0, abs=1e-6)

    def test_loop(self):
        code, out = run_inprocess(["area", "--loop", "--c1", "1"])
        assert json.loads(out)["area"] == pytest.approx(math.pi, abs=1e-6)

    def test_needs_exactly_one_mode(self):
        code, _ = run_inprocess(["area", "--c1", "sin(theta)"])
        assert code == 1


class TestPeriodAndSymmetry:
    def test_period(self):
        code, out = run_inprocess(["period", "--c1", "cos(theta/2)"])
        assert json.loads(out)["period_multiple_of_pi"] == 4

    def test_period_none(self):
        code, out = run_inprocess(["period", "--c1", "theta/10", "--max-multiple", "6"])
        assert json.loads(out)["period_multiple_of_pi"] is None

    def test_symmetry_axes(self):
        _, out = run_inprocess(["symmetry", "--c1", "cos(3*theta/5)", "--axis", "y"])
        assert json.loads(out)["symmetric"] is False
        _, out = run_inprocess(["symmetry", "--c1", "cos(3*theta/5)", "--axis", "x"])
        assert json.loads(out)["symmetric"] is True

    def test_symmetry_rotation_with_pi_expression(self):
        _, out = run_inprocess(["symmetry", "--c1", "sin(2*theta)", "--rotation", "pi/2"])
        assert json.loads(out)["symmetric"] is True

    @pytest.mark.parametrize(
        "source, message",
        [
            ("(" * 1200 + "theta" + ")" * 1200, b"nested deeper than"),
            ("+".join(["theta"] * 3000), b"nested deeper than"),
            ("2^1000^1000", b"overflows or is undefined"),
            ("sin(1e400)", b"numeric literal '1e400' overflows"),
        ],
        ids=["nested-parentheses", "long-sum", "overflowing-exponent", "overflowing-literal"],
    )
    def test_bad_expression_exits_one_without_traceback(self, source, message):
        result = run_subprocess(["period", f"--c1={source}"])
        assert result.returncode == 1
        assert result.stderr.startswith(b"error:") and message in result.stderr
        assert b"Traceback" not in result.stderr
        assert result.stdout == b""


class TestDecomposeCommand:
    def test_half_angle_cosine(self):
        code, out = run_inprocess(["decompose", "--c1", "cos(theta/2)", "--domain", "0:6.2832"])
        payload = json.loads(out)
        assert len(payload["pieces"]) == 2
        assert not any(p["traced_twice"] for p in payload["pieces"])

    def test_constant(self):
        code, out = run_inprocess(["decompose", "--c1", "1"])
        payload = json.loads(out)
        assert len(payload["pieces"]) == 1
        assert payload["pieces"][0]["interval"] == [0.0, pytest.approx(2 * math.pi)]

    def test_limacon_loops(self):
        code, out = run_inprocess(
            ["decompose", "--c1", "1 - lambda*sin(theta)", "--param", "lambda=2"]
        )
        payload = json.loads(out)
        assert len(payload["pieces"]) == 2

    def test_domain_with_pi(self):
        code, out = run_inprocess(["decompose", "--c1", "sin(theta)", "--domain", "0:2*pi"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["pieces"]) == 2
        assert sum(p["traced_twice"] for p in payload["pieces"]) == 1


class TestRouletteCommand:
    def test_cycloid_csv_matches_closed_form(self):
        code, out = run_inprocess(
            ["roulette", "--base", "line", "--radius", "1", "--from", "0",
             "--to", "12.566", "--samples", "500", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == 501
        for row in lines[1:]:
            t, x, y = (float(v) for v in row.split(","))
            expected = cycloid_point(1.0, t)
            assert abs(complex(x, y) - expected) < 1e-9

    def test_astroid_svg(self, tmp_path):
        out_file = tmp_path / "astroid.svg"
        code, _ = run_inprocess(
            ["roulette", "--base", "circle", "--R", "4", "--radius", "1",
             "--side", "normal", "--format", "svg", "--samples", "300",
             "--output", str(out_file)]
        )
        assert code == 0
        text = out_file.read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        polylines = [el for el in root if el.tag.endswith("polyline")]
        assert len(polylines) == 2  # base circle and the traced curve
        box = [float(v) for v in root.attrib["viewBox"].split()]
        # bounding box of everything is the R=4 circle; 5% margin on top
        assert box[2] == pytest.approx(8.0 * 1.1, rel=0.02)

    def test_reverse_ellipse_svg_well_formed(self):
        code, out = run_inprocess(
            ["roulette", "--base", "ellipse", "--a", "3", "--b", "2",
             "--radius", "0.5", "--reverse", "--format", "svg", "--samples", "200"]
        )
        assert code == 0
        ET.fromstring(out)

    def test_limacon_base(self):
        code, out = run_inprocess(
            ["roulette", "--base", "limacon", "--lambda", "2", "--radius", "0.5",
             "--side", "antinormal", "--samples", "50", "--format", "csv"]
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 51

    def test_degenerate_radius_exit_one(self):
        code, _ = run_inprocess(["roulette", "--base", "line", "--radius", "0"])
        assert code == 1


class TestSchema:
    def test_every_analysis_payload_is_versioned(self):
        commands = [
            ["intersect", "--c1", "1", "--c2", "cos(theta)"],
            ["area", "--rose-N", "1"],
            ["period", "--c1", "cos(theta)"],
            ["symmetry", "--c1", "cos(theta)", "--axis", "x"],
            ["decompose", "--c1", "1"],
        ]
        for argv in commands:
            code, out = run_inprocess(argv)
            assert code == 0
            assert json.loads(out)["schema"] == "curvekit/1"


class TestDeterminism:
    GOLDEN = [
        ["intersect", "--c1", "cos(theta)", "--c2", "1-cos(theta)"],
        ["intersect", "--c1", "1", "--c2", "cos(theta)"],
        ["area", "--c1", "sin(theta)", "--c2", "cos(theta)"],
        ["area", "--rose-N", "2"],
        ["area", "--limacon-lambda", "2"],
        ["period", "--c1", "cos(theta/2)"],
        ["symmetry", "--c1", "cos(3*theta/5)", "--axis", "y"],
        ["decompose", "--c1", "cos(theta/2)", "--domain", "0:6.2832"],
        ["roulette", "--base", "line", "--radius", "1", "--from", "0",
         "--to", "12.566", "--samples", "100", "--format", "csv"],
        ["roulette", "--base", "circle", "--R", "4", "--radius", "1",
         "--side", "normal", "--format", "svg", "--samples", "120"],
    ]

    def test_repeat_in_process(self):
        for argv in self.GOLDEN:
            first = run_inprocess(argv)
            second = run_inprocess(argv)
            assert first == second, argv

    def test_repeat_subprocess(self):
        for argv in (self.GOLDEN[0], self.GOLDEN[8]):
            first = run_subprocess(argv)
            second = run_subprocess(argv)
            assert first.returncode == 0
            assert first.stdout == second.stdout
