import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvekit import _rows, cli
from curvekit.cli import MAX_SAMPLES, SCHEMA, _csv_trace, _fmt, _fmt_rows, build_parser, main
from curvekit.polar import positive_pieces
from curvekit.roulette import RollConfig, ellipse, trace
from oracles import cycloid_point

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

    def test_triple_zero_at_the_origin_is_the_origin_only(self):
        # sin(2t) - 2cos(t) = 2cos(t)(sin(t) - 1) has a triple zero at
        # t = pi/2, where both radii vanish: the root is known only to about
        # eps^(1/3), but no point other than the origin is common
        code, out = run_inprocess(["intersect", "--c1", "sin(2*theta)", "--c2", "2*cos(theta)"])
        assert code == 0
        payload = json.loads(out)
        assert payload["origin"] is True
        assert payload["origin_witnesses"] == pytest.approx([0.0, math.pi / 2], abs=1e-9)
        assert payload["points"] == []

    def test_crossings_near_the_origin_are_kept(self):
        # sin(t) = 2sin(t) - 1e-4 at sin(t) = 1e-4: two genuine points 1e-4
        # from the origin, one each side of the y-axis
        code, out = run_inprocess(["intersect", "--c1", "sin(theta)", "--c2", "2*sin(theta) - 1e-4"])
        assert code == 0
        points = json.loads(out)["points"]
        assert [(p["x"], p["y"]) for p in points] == [
            pytest.approx((1e-4, 1e-8), abs=1e-11), pytest.approx((-1e-4, 1e-8), abs=1e-11)]

    def test_does_not_import_numpy_ma(self):
        # np.union1d would import numpy.ma through np.unique (about 10 ms)
        code = ("import sys, io, contextlib\n"
                "from curvekit import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    rc = cli.main(['intersect', '--c1', 'sin(3*theta)', '--c2', 'cos(theta)'])\n"
                "print(rc, 'numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                              cwd=ROOT, text=True, timeout=60)
        assert proc.stdout == "0 False\n", proc.stderr

    def test_only_documents_load_the_row_kernel(self):
        code = ("import sys, io, contextlib\n"
                "from curvekit import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    cli.main(['period', '--c1', 'sin(3*theta)'])\n"
                "    print('curvekit._rows' in sys.modules, file=sys.stderr)\n"
                "    cli.main(['roulette', '--base', 'circle', '--radius', '1', '--samples', '5'])\n"
                "print('curvekit._rows' in sys.modules, file=sys.stderr)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                              cwd=ROOT, text=True, timeout=60)
        assert proc.stderr == "False\nTrue\n"

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

    def test_loop_wider_than_a_full_turn_is_not_merged(self):
        # cos(theta/3) wraps at 3*pi, but its merged stretch would be 3*pi wide
        code, out = run_inprocess(["area", "--loop", "--c1", "cos(theta/3)"])
        assert code == 0
        assert out == f'{{\n  "schema": "{SCHEMA}",\n  "area": 2.35619449019\n}}\n'

    def test_each_curve_is_decomposed_once(self, monkeypatch):
        # the roses' 12 regions each meet the other's 12; 13 decompositions
        # when the second curve was decomposed again for every region of the first
        decomposed = []

        def counting(curve):
            decomposed.append(curve.text)
            return positive_pieces(curve)

        monkeypatch.setattr(cli, "positive_pieces", counting)
        code, out = run_inprocess(["area", "--c1", "sin(6*theta)", "--c2", "cos(6*theta)"])
        assert code == 0 and decomposed == ["sin(6*theta)", "cos(6*theta)"]
        assert json.loads(out)["area"] == pytest.approx(math.pi / 2 - 1.0, abs=1e-9)

    def test_needs_exactly_one_mode(self):
        code, _ = run_inprocess(["area", "--c1", "sin(theta)"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--rose-N", "2", "--c1", "foo(("], "error: area --rose-N does not read --c1\n"),
            (["--c1", "sin(theta)", "--c2", "cos(theta)", "--domain", "0:1"],
             "error: area --c1/--c2 does not read --domain\n"),
            (["--limacon-lambda", "2", "--domain", "0:1", "--param", "a=1"],
             "error: area --limacon-lambda does not read --domain, --param\n"),
        ],
        ids=["rose", "common", "limacon"],
    )
    def test_refuses_flags_its_mode_does_not_read(self, argv, message):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_inprocess(["area", *argv])
        assert (code, out, err.getvalue()) == (1, "", message)


class TestPeriodAndSymmetry:
    def test_period(self):
        code, out = run_inprocess(["period", "--c1", "cos(theta/2)"])
        assert json.loads(out)["period_multiple_of_pi"] == 4

    def test_period_none(self):
        code, out = run_inprocess(["period", "--c1", "theta/10", "--max-multiple", "6"])
        assert json.loads(out)["period_multiple_of_pi"] is None

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_multiple_below_one_exits_one(self, value):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_inprocess(["period", "--c1", "cos(theta)", "--max-multiple", value])
        assert (code, out) == (1, "")
        assert err.getvalue() == f"error: --max-multiple must be at least 1, got {value}\n"

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

    def test_curve_undefined_past_the_domain_end(self):
        # sqrt(2*pi - theta) is NaN past b, which declines the seam quietly
        code, out = run_inprocess(["decompose", "--c1", "sqrt(2*pi - theta)*cos(theta)",
                                   "--domain", "0:2*pi"])
        assert code == 0
        assert len(json.loads(out)["pieces"]) == 3

    # sha256 of stdout, recorded when every piece compiled its own program
    # (sin(4*theta) since zeros within 1e-9 of a domain end snap to the end,
    # cos(3*theta/5) since its wrap seam follows the equality rule);
    # sin(4*theta) on [0, 2*pi] takes both half-turn branches
    DIGESTS = {
        ("cos(theta/2)", "--domain", "0:6.2832"):
            "dae857d0c7ccd59a63247e677dc7d6ff3516e0c9223bdc9a503745112a094d9f",
        ("1 - lambda*sin(theta)", "--param", "lambda=2"):
            "fe75372b8b60fa3de4948e545986de4d7f0fe8c70325d8c45732cea10539937d",
        ("sin(4*theta)", "--domain", "0:2*pi"):
            "933b8a126908cff7dfaaaf3dde76ea0615972c4a0c29cc0d99a699df54e83e36",
        ("cos(3*theta/5)",):
            "3bab6fe711951b30d4b444d90072e6c9f1645a51fb10934dc0a4cf6628de2ec1",
    }

    @pytest.mark.parametrize("args", list(DIGESTS), ids=lambda args: args[0])
    def test_output_bytes(self, args):
        code, out = run_inprocess(["decompose", "--c1", *args])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[args]

    @pytest.mark.parametrize(
        "c1, domain, expected",
        [
            ("sin(4*theta)", "0:2*pi",
             [("sin(4*t)", [0.0, 0.785398163397], False),
              ("-sin(4*(t + 3.141592653589793))", [0.785398163397, 1.57079632679], False),
              ("sin(4*t)", [1.57079632679, 2.35619449019], False),
              ("-sin(4*(t + 3.141592653589793))", [2.35619449019, 3.14159265359], False),
              ("sin(4*t)", [3.14159265359, 3.92699081699], False),
              ("-sin(4*(t - 3.141592653589793))", [3.92699081699, 4.71238898038], False),
              ("sin(4*t)", [4.71238898038, 5.49778714378], False),
              ("-sin(4*(t - 3.141592653589793))", [5.49778714378, 6.28318530718], False)]),
            ("sin(theta)", "0:2*pi",
             [("sin(t)", [0.0, 3.14159265359], False),
              ("-sin(t + 3.141592653589793)", [0.0, 3.14159265359], True)]),
            ("sin(theta)", "0:4*pi",
             [("sin(t)", [0.0, 3.14159265359], False),
              ("-sin(t + 3.141592653589793)", [0.0, 3.14159265359], True),
              ("sin(t)", [6.28318530718, 9.42477796077], True),
              ("-sin(t + 3.141592653589793)", [6.28318530718, 9.42477796077], True)]),
        ],
        ids=["sin(4*theta)", "sin(theta)-one-turn", "sin(theta)-two-turns"],
    )
    def test_zeros_at_domain_ends_are_the_ends(self, c1, domain, expected):
        # a zero refined to within 1e-9 of a domain end is that end: pi
        # prints as 3.14159265359, and the curve's own piece comes first
        code, out = run_inprocess(["decompose", "--c1", c1, "--domain", domain])
        assert code == 0
        pieces = json.loads(out)["pieces"]
        assert [(p["expression"], p["interval"], p["traced_twice"]) for p in pieces] == expected

    @pytest.mark.parametrize(
        "argv",
        [["decompose", "--c1", "theta"], ["area", "--loop", "--c1", "theta"],
         ["area", "--c1", "1", "--c2", "theta"]],
        ids=["decompose", "loop", "common"],
    )
    def test_aperiodic_curve_needs_a_domain(self, argv):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_inprocess(argv)
        assert (code, out) == (1, "")
        assert err.getvalue() == "error: curve 'theta' has no polar period; pass --domain\n"

    @pytest.mark.parametrize(
        "c1, pieces, digest, area",
        [
            ("sin(45*theta)", 45,
             "4dae9aef5703f8e84ab3158063bb1b4db5fc8579e2b31cd4d7c7440cef8af376", "0.785398163397"),
            ("cos(51*theta)", 51,
             "34916b48983ade33d3d481221cb19b2cb2333f639612e5aec5da7ec8dcb10974", "0.785398163397"),
            ("sin(54*theta)", 108,
             "19268f94d26fff5e4928ba8f72bc75730a50f1c7ee6a169323715794bc1876bc", "1.57079632679"),
        ],
    )
    def test_fast_roses(self, c1, pieces, digest, area):
        # a piece end is a root known to 1e-10, where |f| = N*|cos| reaches
        # past 1e-9 from N = 45: the end samples allow for that slope
        code, out = run_inprocess(["decompose", "--c1", c1])
        assert code == 0
        flags = [p["traced_twice"] for p in json.loads(out)["pieces"]]
        assert len(flags) == pieces and not any(flags)
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        code, out = run_inprocess(["area", "--loop", "--c1", c1])
        assert code == 0
        assert out == f'{{\n  "schema": "{SCHEMA}",\n  "area": {area}\n}}\n'

    @pytest.mark.parametrize(
        "c1, message",
        [
            ("tan(t)", b"error: curve changes sign inside [0, 6.28318530718] near theta = "
                       b"1.57233180708 with no zero found there (a pole"),
            ("1/(2 - t)", b"error: curve changes sign inside [0, 6.28318530718] near theta = "
                          b"2.00226628557 with no zero found there (a pole"),
        ],
        ids=["tan", "reciprocal"],
    )
    def test_sign_change_through_a_pole_is_named(self, c1, message):
        result = run_subprocess(["decompose", "--c1", c1, "--domain", "0:2*pi"])
        assert result.returncode == 1
        assert result.stderr.startswith(message)
        assert b"Traceback" not in result.stderr
        assert result.stdout == b""


    @pytest.mark.parametrize(
        "c1, domain, message",
        [
            ("sqrt(sin(theta))", "0:2*pi", "error: curve is undefined at theta = 3.14312738376\n"),
            ("1/sin(theta)", "0:2*pi", "error: curve has a pole at theta = 0\n"),
        ],
        ids=["undefined", "pole"],
    )
    def test_first_rejected_probe_is_named(self, c1, domain, message):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_inprocess(["decompose", "--c1", c1, "--domain", domain])
        assert (code, out, err.getvalue()) == (1, "", message)


class TestReadmeCommandBytes:
    """sha256 of stdout for the README's commands (the roulettes at 500
    samples, the SVG on stdout): a change meant to keep the CLI bytes shows
    it here."""

    DIGESTS = {
        ("intersect", "--c1", "cos(theta)", "--c2", "1-cos(theta)"):
            "711a22d72dc425b021a78651a2ca647baac8677401397a19dc03f0ee3945acab",
        ("area", "--c1", "sin(theta)", "--c2", "cos(theta)"):
            "4c9c09ae0dfec38fa6161e5acf82d416347d4f38b1c83129324909c3f2607552",
        ("area", "--rose-N", "2"):
            "366b7ef0fe9fc3edb65b8867673825b0cd85a317b12f8717461394de9bf02aa1",
        ("area", "--limacon-lambda", "2"):
            "8aadcaaf31d2e7fb1db6895f0edb6044cd8010a2e21f64fade6141b8adc82c9a",
        ("period", "--c1", "cos(theta/2)"):
            "395d711f2dbb6f783c5cb6e7c3d1a345f96749557838cda830693838409b7956",
        ("symmetry", "--c1", "cos(3*theta/5)", "--axis", "y"):
            "330c84dd68e50a30fc0e0ae32d9cb34c4b9226bb873cf26b885525b95fdabeab",
        ("roulette", "--base", "line", "--radius", "1", "--from", "0", "--to", "12.566",
         "--samples", "500", "--format", "csv"):
            "27cb709ea7a676f96dfadbc58e79816a8f457829a1ae21238d2039d71a6823cb",
        ("roulette", "--base", "circle", "--R", "4", "--radius", "1", "--side", "normal",
         "--format", "svg", "--samples", "500"):
            "094e763560d1fcdc1e7d05a8aa7025787297b8d4041621b642dc03b483dd6d5d",
    }

    @pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
    def test_stdout_digest(self, argv):
        code, out = run_inprocess(list(argv))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[argv]


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

    @pytest.mark.parametrize("samples", ["10", "11"])
    def test_degenerate_ellipse_exits_two(self, samples):
        # the tangent vanishes at t = pi/2: a Gauss node of the 11-sample
        # trace lands on it, none of the 10-sample trace does
        code, _ = run_inprocess(["roulette", "--base", "ellipse", "--a", "0", "--b", "1",
                                 "--radius", "1", "--samples", samples])
        assert code == 2

    def test_oversized_sample_count_exits_one_without_traceback(self):
        # refused by MAX_SAMPLES before anything is allocated
        for samples in ("1e14", "1e20"):
            result = run_subprocess(["roulette", "--base", "line", "--radius", "1",
                                     "--samples", samples])
            assert result.returncode == 1
            assert result.stderr.startswith(b"error:")
            assert b"Traceback" not in result.stderr
            assert result.stderr == (f"error: --samples must be at most {MAX_SAMPLES}, "
                                     f"got {int(float(samples))}\n").encode()
            assert result.stdout == b""


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv, target", [
        (["period", "--c1", "sin(theta)"], "missing/x.json"),  # FileNotFoundError
        (["roulette", "--base", "line", "--radius", "1", "--samples", "10"], ""),  # a directory
    ])
    def test_exits_one_without_traceback(self, tmp_path, argv, target):
        path = tmp_path / target if target else tmp_path
        result = run_subprocess([*argv, "--output", str(path)])
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: cannot write {path}: ".encode())
        assert b"Traceback" not in result.stderr
        assert result.stdout == b""


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
SEPARATORS = [(",", "\n"), (",", " ")]


def _signed(value, negative):
    return -value if negative else value


def _steps_from(value, steps):
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


# Values whose 12-digit rounding is nearly a tie, or that sit next to a power
# of ten or the 1e-4 and 1e12 switches between fixed and scientific notation
NEAR_ROUNDING_EDGES = st.one_of(
    st.builds(lambda k, j, neg: _signed((k + 0.5) / 10.0 ** j, neg),
              st.integers(10**11, 10**12 - 1), st.integers(0, 15), st.booleans()),
    st.builds(lambda j, steps, neg: _signed(_steps_from(10.0 ** j, steps), neg),
              st.integers(-5, 13), st.integers(-3, 3), st.booleans()),
    st.builds(_signed, st.floats(9.9999999999e-5, 1.0000000001e-4), st.booleans()),
    st.builds(_signed, st.floats(999999999998.0, 1000000000002.0), st.booleans()),
)


def _per_value(columns, sep, end):
    return "".join(sep.join(map(_fmt, row)) + end for row in zip(*columns))


def _first_difference(got, want):
    """None, or the first row (split at end) where two long documents
    differ: pytest's own diff of two multi-megabyte strings takes minutes."""
    if got == want:
        return None
    end = "\n" if "\n" in want else " "
    rows = zip(got.split(end), want.split(end))
    return next(((i, a, b) for i, (a, b) in enumerate(rows) if a != b), "lengths differ")


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

    @pytest.mark.parametrize("sep, end", SEPARATORS)
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(values=st.lists(st.floats(), max_size=40))
    def test_rows_match_fmt_on_any_float(self, sep, end, values):
        columns = np.array(values[:len(values) // 2 * 2]).reshape(2, -1)
        assert _fmt_rows(tuple(columns), sep, end) == _per_value(columns, sep, end)

    @pytest.mark.parametrize("sep, end", SEPARATORS)
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(values=st.lists(NEAR_ROUNDING_EDGES, min_size=3, max_size=30))
    def test_rows_match_fmt_next_to_ties_and_switch_points(self, sep, end, values):
        columns = np.array(values[:len(values) // 3 * 3]).reshape(3, -1)
        assert _fmt_rows(tuple(columns), sep, end) == _per_value(columns, sep, end)

    @pytest.mark.parametrize("sep, end", SEPARATORS)
    def test_separators_stay_aligned_across_blocks(self, sep, end):
        # three columns do not divide the block, and the document spans more
        # than two blocks; every kind of value sits next to a block edge
        columns = np.random.default_rng(27).uniform(-5.0, 5.0, (3, _rows.BLOCK + 11))
        special = np.array(SPECIAL_VALUES)
        for edge in range(_rows.BLOCK // 3, columns.shape[1], _rows.BLOCK // 3):
            for c in range(3):
                columns[c, edge - 7:edge + 8] = np.roll(special, c)
        assert _first_difference(_fmt_rows(tuple(columns), sep, end),
                                 _per_value(columns, sep, end)) is None

    def test_powers_of_ten_are_exact(self):
        # the exactness argument needs each scale to be 10**k exactly
        assert [int(v) for v in _rows._POW10] == [10**k for k in range(16)]

    def test_rows_match_fmt_next_to_every_power_of_ten(self):
        # log10 misses the exponent of some of these values (238 with numpy
        # 2.4); they round to the power of ten through rint or the carry
        powers = 10.0 ** np.arange(-5, 14)
        values = (powers[:, None] + np.arange(-2000, 2001) * np.spacing(powers)[:, None]).ravel()
        columns = np.stack([values, -values])
        assert _first_difference(_fmt_rows(tuple(columns), ",", "\n"),
                                 _per_value(columns, ",", "\n")) is None

    def test_rows_match_fmt_on_random_bit_patterns(self):
        # random sign and mantissa bits, exponents 2^-17 .. 2^41 (7.6e-6 to
        # 4.4e12): the fixed-point range of "%.12g" and both switch points
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2**64, 2_000_000, dtype=np.uint64) & np.uint64(0x800FFFFFFFFFFFFF)
        bits |= rng.integers(1023 - 17, 1023 + 42, bits.size, dtype=np.uint64) << np.uint64(52)
        values = bits.view(np.float64)
        want = "\n".join(map(_fmt, values.tolist())) + "\n"
        assert _first_difference(_fmt_rows((values,), ",", "\n"), want) is None

    def test_csv_trace_of_100k_samples_peaks_below_per_value_formatting(self):
        # 18.2 MB with one "%.12g" call over every value, 9.4 MB in blocks
        ts = np.linspace(0.0, 2.0 * math.pi, 100_000)
        points = trace(ellipse(3.0, 2.0), RollConfig(radius=0.5), 0.0, 2.0 * math.pi, ts.size)
        _csv_trace(ts[:10], points[:10])
        tracemalloc.start()
        try:
            out = _csv_trace(ts, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) > 4_000_000
        assert peak <= 18.2e6


class TestRouletteBytes:
    """sha256 of roulette stdout at 3,000 samples, recorded from per-value
    formatting and a one-shot trace, of CSV at 40,000 samples, five blocks
    of the trace, recorded from a one-shot pass over the samples, and of CSV
    and SVG at 100,000 samples, recorded from one "%.12g" call over every
    value: the output bytes must not move."""

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
    MULTI_BLOCK_DIGESTS = {
    ("circle", "csv", "plain"): "f45a5a4bd6f02d605632f7e1bc58f9c7233a0b7a8ce761f46ba6b522cab40c30",
    ("circle", "csv", "reverse"): "1f444381959d8ed06ba14c1615198ae87b7bb72e6d5e65884e1d3673294633a7",
    ("ellipse", "csv", "plain"): "2a694efb489a4f2d33bcdcba889d827dbe3401aa43879904b98636378c738e0a",
    ("ellipse", "csv", "reverse"): "7e82fe1dacc33811a4ed4715fc511a8b66d58f1c2d796fdfcc42fe09b55f0186",
    ("limacon", "csv", "plain"): "8e80fddd96b6c40a1fc6aade087f0d0be939ea410f61899c48f004369ba2b967",
    ("limacon", "csv", "reverse"): "3f1bff8e0107d8881be187c9406b21473d895986e29ea57bf5e2fd0e7827ce38",
    ("line", "csv", "plain"): "dc3d10e3da12744b59633dc40756d1e1fb5e615db3e2b491cf6bf675f9f133ae",
    ("line", "csv", "reverse"): "c2a980b5c81d2993410c2f88fb05c339186eca09e940bec9eece343ad1ff73f8",
    }
    LARGE_DIGESTS = {
    ("circle", "csv"): "996fa58f5d682952e168009621d13e42bb0046ec6c6e32db09b8f37ef0995cf8",
    ("circle", "svg"): "79a54780db7de21d85efa32c276abb760c220a8336593ceed6520846d6ec961f",
    ("ellipse", "csv"): "3fffa0603738921232df76236f1a7953965c072d485d73b8f7ea86a630a1c339",
    ("ellipse", "svg"): "62c373197ad7527bdc98c991420431664990a7fdd767f39477efb59616ad0ab4",
    ("limacon", "csv"): "c12c6743c5edaf7c5600cf1c455e1aedab62fdff3b863e0fd421c11c5e88e06a",
    ("limacon", "svg"): "e9df2fb20ab583fca88a4618ba4a6fe250c1529c22d91f49000d0473510c7f67",
    ("line", "csv"): "3f13e083da6eb38ed74aeef611f89c3748059aced5d596b86dd2b574b42a51fd",
    ("line", "svg"): "dc8398c623fb0ce808ae82ddf719a0160851c85fdc917e9799195ba49412fd4b",
    }

    @pytest.mark.parametrize("base", sorted(BASES))
    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_stdout_digest(self, base, fmt):
        runs = [("3000", name, self.DIGESTS[base, fmt, name]) for name in self.VARIANTS]
        runs += [("40000", name, digest) for (b, f, name), digest in self.MULTI_BLOCK_DIGESTS.items()
                 if (b, f) == (base, fmt)]
        runs.append(("100000", "plain", self.LARGE_DIGESTS[base, fmt]))
        for samples, name, want in runs:
            argv = ["roulette", "--base", base, *self.BASES[base], "--radius", "0.7",
                    "--samples", samples, "--format", fmt, *self.VARIANTS[name]]
            code, out = run_inprocess(argv)
            assert code == 0
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == want, (base, fmt, name, samples)


# (a valid command, a flag that takes a constant, the form of its value)
_ROULETTE = ["roulette", "--base", "line", "--radius", "1", "--samples", "5"]
_SYMMETRY = ["symmetry", "--c1", "cos(theta)"]
_DECOMPOSE = ["decompose", "--c1", "1"]
FLAG_CASES = [(_ROULETTE, flag, "{}") for flag in
              ("--R", "--a", "--b", "--lambda", "--radius", "--k", "--t0", "--from", "--to")]
FLAG_CASES += [(_SYMMETRY, "--rotation", "{}"), (_SYMMETRY, "--reflection", "{}"),
               (["area"], "--limacon-lambda", "{}"), (_DECOMPOSE, "--param", "lambda={}"),
               (_DECOMPOSE, "--domain", "0:{}")]
# (a valid command, a count flag, its least value)
COUNT_CASES = [(_ROULETTE, "--samples", 2), (["area"], "--rose-N", 1),
               (["period", "--c1", "cos(theta)"], "--max-multiple", 1)]
FLAG_CASES += [(argv, flag, "{}") for argv, flag, _ in COUNT_CASES]


class TestFlags:
    """Every numeric flag, --param and --domain take constant expressions."""

    @pytest.mark.parametrize("value, reason", [("1/0", "division by zero"),
                                               ("theta", "depends on theta")])
    @pytest.mark.parametrize("argv, flag, form", FLAG_CASES,
                             ids=[flag for _, flag, _ in FLAG_CASES])
    def test_bad_value_names_the_flag_and_the_reason(self, argv, flag, form, value, reason):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_inprocess([*argv, flag, form.format(value)])
        assert (code, out) == (1, "")
        last = err.getvalue().splitlines()[-1]
        assert last == f"error: argument {flag}: invalid value {value!r}: {reason}"
        assert "Traceback" not in err.getvalue() and "_number" not in err.getvalue()

    @pytest.mark.parametrize("argv, flag, least", COUNT_CASES,
                             ids=[flag for _, flag, _ in COUNT_CASES])
    def test_count_flags_refuse_a_fraction_and_a_count_below_their_least(self, argv, flag, least):
        for value, message in (("2.5", f"argument {flag}: invalid value '2.5': not an integer"),
                               (str(least - 1), f"{flag} must be at least {least}, got {least - 1}")):
            err = io.StringIO()
            with redirect_stderr(err):
                code, out = run_inprocess([*argv, flag, value])
            assert (code, out) == (1, "")
            assert err.getvalue().splitlines()[-1] == f"error: {message}"

    @pytest.mark.parametrize("argv", [
        ["roulette", "--base", "circle", "--radius", "0.5", "--samples", "{}"],
        ["area", "--rose-N", "{}"],
        ["period", "--c1", "theta/10", "--max-multiple", "{}"],
    ], ids=["--samples", "--rose-N", "--max-multiple"])
    def test_count_flags_take_constant_expressions(self, argv):
        # 1e1, 2*5 and 10 are one count
        outputs = [run_inprocess([arg.format(value) for arg in argv]) for value in ("1e1", "2*5", "10")]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("argv, flag", [
        (["roulette", "--base", "line", "--radius", "1", "--from", "-pi"], "--from"),
        (["period", "--c1", "-cos(theta)"], "--c1"),
    ])
    def test_value_read_as_an_option_names_the_equals_form(self, argv, flag):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_inprocess(argv)
        assert (code, out) == (1, "")
        assert err.getvalue().splitlines()[-1] == (
            f"error: argument {flag}: expected one argument "
            f"(a value that starts with '-' is written {flag}=VALUE)")

    # (option strings, dest, default, choices, required) of each subcommand's
    # flags, in order, as the command line offered them before every flag went
    # through one converter
    SURFACE = {
        "intersect": [
            (("-h", "--help"), "help", "==SUPPRESS==", None, False),
            (("--c1",), "c1", None, None, True),
            (("--c2",), "c2", None, None, True),
            (("--param",), "param", None, None, False),
            (("--output",), "output", None, None, False),
        ],
        "area": [
            (("-h", "--help"), "help", "==SUPPRESS==", None, False),
            (("--c1",), "c1", None, None, False),
            (("--c2",), "c2", None, None, False),
            (("--rose-N",), "rose_N", None, None, False),
            (("--limacon-lambda",), "limacon_lambda", None, None, False),
            (("--loop",), "loop", False, None, False),
            (("--domain",), "domain", None, None, False),
            (("--param",), "param", None, None, False),
            (("--output",), "output", None, None, False),
        ],
        "period": [
            (("-h", "--help"), "help", "==SUPPRESS==", None, False),
            (("--c1",), "c1", None, None, True),
            (("--max-multiple",), "max_multiple", 64, None, False),
            (("--param",), "param", None, None, False),
            (("--output",), "output", None, None, False),
        ],
        "symmetry": [
            (("-h", "--help"), "help", "==SUPPRESS==", None, False),
            (("--c1",), "c1", None, None, True),
            (("--axis",), "axis", None, ("x", "y", "origin"), False),
            (("--rotation",), "rotation", None, None, False),
            (("--reflection",), "reflection", None, None, False),
            (("--param",), "param", None, None, False),
            (("--output",), "output", None, None, False),
        ],
        "decompose": [
            (("-h", "--help"), "help", "==SUPPRESS==", None, False),
            (("--c1",), "c1", None, None, True),
            (("--domain",), "domain", None, None, False),
            (("--param",), "param", None, None, False),
            (("--output",), "output", None, None, False),
        ],
        "roulette": [
            (("-h", "--help"), "help", "==SUPPRESS==", None, False),
            (("--base",), "base", None, ("line", "circle", "ellipse", "limacon"), True),
            (("--R",), "R", 2.0, None, False),
            (("--a",), "a", 3.0, None, False),
            (("--b",), "b", 2.0, None, False),
            (("--lambda",), "base_lambda", 2.0, None, False),
            (("--radius",), "radius", None, None, True),
            (("--side",), "side", "normal", ("normal", "antinormal"), False),
            (("--reverse",), "reverse", False, None, False),
            (("--k",), "k", 0.0, None, False),
            (("--t0",), "t0", None, None, False),
            (("--from",), "t_from", None, None, False),
            (("--to",), "t_to", None, None, False),
            (("--samples",), "samples", 500, None, False),
            (("--format",), "format", "csv", ("csv", "svg"), False),
            (("--output",), "output", None, None, False),
        ],
    }

    def test_surface_is_unchanged(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        surface = {
            name: [(tuple(a.option_strings), a.dest, a.default,
                    None if a.choices is None else tuple(a.choices), a.required)
                   for a in parser._actions]
            for name, parser in sub.choices.items()
        }
        assert surface == self.SURFACE
