"""The package's export list, and the names it no longer carries."""

import importlib
import inspect

import pytest

import curvekit
from curvekit.numerics import integrate
from curvekit.roulette import ParamCurve, arc_length

# Names that only tests used, each with the module that held it: the oracles
# among them live in tests/oracles.py, and the rest are gone.
RETIRED = [
    ("polar", "PolarPoint"),
    ("polar", "points_equal"),
    ("polar", "PolarCurve.eval"),
    ("polar", "PolarCurve.point"),
    ("area", "SectorRegion.contains"),
    ("area", "SectorRegion.max_radius"),
    ("roulette", "cycloid_point"),
    ("roulette", "epicycloid_point"),
    ("roulette", "hypocycloid_point"),
    ("roulette", "ParamCurve.speed"),
    ("numerics", "RootList.__getitem__"),
]


def test_every_exported_name_resolves_and_is_listed_once():
    assert len(curvekit.__all__) == len(set(curvekit.__all__))
    assert [name for name in curvekit.__all__ if not hasattr(curvekit, name)] == []


def _resolves(owner, dotted):
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


@pytest.mark.parametrize("module, name", RETIRED, ids=[name for _, name in RETIRED])
def test_retired_name_does_not_resolve(module, name):
    assert not _resolves(curvekit, name)
    assert not _resolves(importlib.import_module(f"curvekit.{module}"), name)


def test_retired_parameters_are_gone():
    # derivatives always come from differentiate, tolerances from DEFAULT_TOL
    assert not {"dx", "dy"} & set(inspect.signature(ParamCurve).parameters)
    assert "tol" not in inspect.signature(arc_length).parameters
    assert "tol" not in inspect.signature(integrate).parameters
