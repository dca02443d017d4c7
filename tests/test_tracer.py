"""The benchmark's tracer (perfbench/tracer.py) wraps curvekit functions and
methods by name.  Renaming one of them would break only traced benchmark
runs, so this test installs the tracer on the package as it is."""

import importlib.util
from pathlib import Path

import numpy as np

from curvekit import expr, roulette

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_name_it_wraps():
    tracer = load_tracer().Tracer()
    targets = [(owner, attr) for _, _, owners in tracer._targets() for owner, attr in owners]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
        points = roulette.trace(roulette.line(), roulette.RollConfig(1.0), 0.0, 1.0, samples=5)
        program = expr.compile_program(expr.parse("sin(t)"))
        program(np.zeros(7))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(targets, originals))
    assert points.shape == (5,)
    metrics = tracer.layer_metrics()
    assert metrics["roulette.trace.calls"] == 1 and metrics["roulette.trace.points"] == 5
    assert metrics["expr.compile.calls"] >= 1
    assert metrics["expr.array_eval.points"] >= 7
