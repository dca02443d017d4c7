import hashlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from curvekit.cli import _csv_trace, _fmt, _fmt_rows, main
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

    def test_pole_at_the_window_start(self):
        # y = 1 and y = 2: both radii are infinite at theta = 0, where every
        # root window starts
        result = run_subprocess(["intersect", "--c1", "1/sin(theta)", "--c2", "2/sin(theta)"])
        assert result.returncode == 0
        assert result.stderr == b""
        payload = json.loads(result.stdout)
        assert payload["origin"] is False
        assert payload["points"] == []

    def test_line_with_a_pole_at_the_window_start_touches_circle(self):
        code, out = run_inprocess(["intersect", "--c1", "1/sin(theta)", "--c2", "1"])
        assert code == 0
        points = json.loads(out)["points"]
        assert len(points) == 1
        assert (points[0]["x"], points[0]["y"]) == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_removable_pole_is_no_point(self):
        # tan(theta) - 1/cos(theta) tends to 0 at theta = pi/2, where both
        # radii blow up; that root is no intersection point
        result = run_subprocess(["intersect", "--c1", "tan(theta)", "--c2", "1/cos(theta)"])
        assert result.returncode == 0
        assert result.stderr == b""
        payload = json.loads(result.stdout)
        assert payload["origin"] is False
        assert payload["points"] == []

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

    def test_undefined_stretch_is_named(self):
        result = run_subprocess(["period", "--c1", "sqrt(cos(theta))"])
        assert result.returncode == 1
        assert result.stderr == b"error: curve is undefined at theta = 1.57693224995\n"
        assert result.stdout == b""

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


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e16, -1e16, 1e-5, 123456789012.5,
                  math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0, -2.0 ** 0.5]


class TestBulkFormatting:
    def test_rows_match_fmt_on_special_values(self):
        values = np.array(SPECIAL_VALUES)
        rows = _fmt_rows((values, -values[::-1]), ",", "\n")
        expected = "".join(f"{_fmt(a)},{_fmt(b)}\n" for a, b in zip(values, -values[::-1]))
        assert rows == expected

    def test_rows_match_fmt_on_random_values(self):
        rng = np.random.default_rng(4242)
        values = rng.uniform(-10.0, 10.0, 99_999) * 10.0 ** rng.integers(-300, 301, 99_999)
        columns = values.reshape(3, -1)
        expected = "".join(" ".join(_fmt(v) for v in row) + ";" for row in columns.T)
        assert _fmt_rows(tuple(columns), " ", ";") == expected

    def test_csv_matches_fmt_per_value(self):
        ts = np.array(SPECIAL_VALUES)
        points = np.empty(ts.shape, dtype=complex)
        points.real, points.imag = ts[::-1], ts
        expected = "t,x,y\n" + "".join(
            f"{_fmt(t)},{_fmt(z.real)},{_fmt(z.imag)}\n" for t, z in zip(ts, points)
        )
        assert _csv_trace(ts, points) == expected


class TestRouletteBytes:
    """sha256 of roulette stdout at 3,000 samples, recorded from per-value
    formatting and a one-shot trace: the output bytes must not move."""

    BASES = {"line": [], "circle": ["--R", "3"], "ellipse": ["--a", "3", "--b", "2"],
             "limacon": ["--lambda", "2"]}
    VARIANTS = {"plain": [], "k": ["--k", "0.5"], "antinormal": ["--side", "antinormal"],
                "reverse": ["--reverse"]}
    DIGESTS = {
    ("line", "csv", "plain"): "6ed6075162ef3dde7a1cbcf8441e2d66f56885c46bf0a6c8239e1a02acf45046",
    ("line", "csv", "k"): "a777755fa50374c61ca516b8d9d8ff38cd25f00cd3ef69a18ba8edccf0719119",
    ("line", "csv", "antinormal"): "48d266116c5992543b7f1e91c264dc924279b1917bfbed4be2daf717df11cbb0",
    ("line", "csv", "reverse"): "bf211c022130a7bdb21d78347994cd203678a78d4a90a20c8b6c136bde15fe95",
    ("line", "svg", "plain"): "d32807f230c6bdd43db9a4e98c3d5a2fecd17a9eb5a1e601bc154426cc01d12a",
    ("line", "svg", "k"): "ab1a27ea08bd22ff55f98c213aadebd00f610f1fa7421859eef972b2728c50ef",
    ("line", "svg", "antinormal"): "9a31367946113f34e827b3cc3f6d6404214d26c15bfc2ac2048227ccc5e0973c",
    ("line", "svg", "reverse"): "37a53b99f01952b520f6022a3d1683fc9692b5938d72863f0f37b9ffcd9b4113",
    ("circle", "csv", "plain"): "9acec2bb4ab3a8210c5814a1999b2e80be46a144ce97e62e46ede2dce086aaf2",
    ("circle", "csv", "k"): "22483f2c4e4ed74404e4cc629811ef5f4ffc21dece182a7e6abaf56ab237137d",
    ("circle", "csv", "antinormal"): "4c82da1ab2eb6da4319ca35db88562961eea2ca1ddb4b7c50f5f349bf03e5a1b",
    ("circle", "csv", "reverse"): "452432a763a7cc41d6c2b3a86efefe89507e321f2887e35617c95c8434028e71",
    ("circle", "svg", "plain"): "d243acf6d3018cf33d73277f68c07f4845cfec040a49e8230a1fca9dd207f754",
    ("circle", "svg", "k"): "355273aa01dc7617a63f107742449603013c844dcd1fdc99855357c0e259aaf6",
    ("circle", "svg", "antinormal"): "133d418a449ea050a44fc47acb3bf74e0c22558d6dc396dc988b450fa4420614",
    ("circle", "svg", "reverse"): "dcc9e871aa90764f1a1c9b4e32203269f93f96a0dcd9878fab480dbf464c20a9",
    ("ellipse", "csv", "plain"): "ebd42863bfadb8066cfa8d8effb81baf4b69ad37e70cafebe70d09567ef633e0",
    ("ellipse", "csv", "k"): "2a4371d212fdf702fd1edab863c38658ea411ffcc7e28a8e57e4ce5cf225494b",
    ("ellipse", "csv", "antinormal"): "c15a6f6dbd5b84bbfcc316a39c68fe1c43cded12aa16436c8ceb9bb0e75e2cf8",
    ("ellipse", "csv", "reverse"): "d3491b92c6c247b0464a40cef56c9369d10536ca3be6866a4529b97398248268",
    ("ellipse", "svg", "plain"): "1a7b3ec5efc2f66eeee23b4569b6e3639cbd5fc74f8dbf1f10f0c534af5363f7",
    ("ellipse", "svg", "k"): "12361a1ae3798872f4bfd027b962605fe670db63df7c509b937d03c00786e6f0",
    ("ellipse", "svg", "antinormal"): "467fa06bc9a77b98517bfb8153048302bf1576ec630837c34adff102f2a6f6c6",
    ("ellipse", "svg", "reverse"): "f27eb07096e9a6d812ce2c643c93683ea0cfb83d7c55bb6520334dd61a6b85f2",
    ("limacon", "csv", "plain"): "c458b15e6b1ce64d63d91feae23cae3e84e434f2c1322cb2b3c15e085a72153d",
    ("limacon", "csv", "k"): "c0d01db2cc0c16408f028fee737e5572b29d0bee22bd683e58ed1b4cf1bd8dfe",
    ("limacon", "csv", "antinormal"): "33d5290c8fabed0bd7a86cfebe09b1528108def5b60a9a23ea253094521872d4",
    ("limacon", "csv", "reverse"): "f0ca65e53f7c0f5d97660451aa6a1f931a22945a235cd3f1e81def6592b671a8",
    ("limacon", "svg", "plain"): "18627d8d0cf5a9af55b509ad95c5aac0dcdab8d1d0c6ceb52d0b0f754b398718",
    ("limacon", "svg", "k"): "78d8c11089d0a6f4c809790c2062a02a7312e8df88865589243c5c957b8e3ccb",
    ("limacon", "svg", "antinormal"): "8c524a9b04aedd0d0a565a57909c3f4ed6f5ceb522df4b34c47c22e2d8cff7a8",
    ("limacon", "svg", "reverse"): "228132615fb6aecb6535b86f9dd3e1025e929ef6946e2eb4fdf013880e2c3c77",
    }

    @pytest.mark.parametrize("base", sorted(BASES))
    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_stdout_digest(self, base, fmt):
        for name, variant in self.VARIANTS.items():
            argv = ["roulette", "--base", base, *self.BASES[base], "--radius", "0.7",
                    "--samples", "3000", "--format", fmt, *variant]
            code, out = run_inprocess(argv)
            assert code == 0
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == self.DIGESTS[base, fmt, name], (base, fmt, name)
