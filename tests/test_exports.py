"""The package's export list."""

import curvekit


def test_every_exported_name_resolves_and_is_listed_once():
    assert len(curvekit.__all__) == len(set(curvekit.__all__))
    assert [name for name in curvekit.__all__ if not hasattr(curvekit, name)] == []
