"""Checks of the test-only oracles in oracles.py."""

import numpy as np
import pytest

from oracles import close_pair_points, cluster_points


def make_clouds():
    rng = np.random.default_rng(777)
    za = rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
    zb = za[:100] + 1e-4 * (rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100))
    zb = np.concatenate([zb, rng.uniform(2, 3, 400) + 1j * rng.uniform(2, 3, 400)])
    return za, zb


class TestPairOracles:
    def test_close_pairs_match_brute_force(self):
        za, zb = make_clouds()
        counts = []
        for tol in (1e-4, 1e-3, 0.05):
            i, j = np.nonzero(np.abs(za[:, None] - zb[None, :]) < tol)
            expected = np.sort_complex(0.5 * (za[i] + zb[j]))
            pairs = np.sort_complex(close_pair_points(za, zb, tol))
            assert np.array_equal(pairs, expected)
            counts.append(len(pairs))
        assert 0 < counts[0] < 100 <= counts[1] < counts[2]

    def test_cluster_chains_across_an_arc(self):
        # a tangency arc: many collinear points each within tol of the next
        arc = np.linspace(0.0, 1.0, 200) + 0.0j
        count, reps = cluster_points(arc, 0.01)
        assert count == 1
        assert reps[0] == pytest.approx(0.5, abs=1e-15)
        lonely = np.array([0.0 + 0j, 1.0 + 1j])
        count, _ = cluster_points(lonely, 0.01)
        assert count == 2

    def test_empty_inputs(self):
        count, reps = cluster_points(np.empty(0, dtype=complex), 1e-3)
        assert count == 0
        pairs = close_pair_points(np.array([0j]), np.array([10.0 + 0j]), 1e-3)
        assert len(pairs) == 0
