"""Falsifier: simplex projection correctness and improvement behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confrigid.catalog import catalog
from confrigid.errors import DisconnectedError
from confrigid.falsify import (
    random_weight_search,
    reverify,
    simplex_projection,
    subgradient_ascent,
)
from confrigid.graphs import Graph
from confrigid.spectra import lambda_ends


def _brute_force_projection(v, total, iters=20000):
    """Tiny projected-gradient QP solver used as an oracle."""
    x = np.full(len(v), total / len(v))
    for t in range(1, iters + 1):
        x = x - (2.0 / np.sqrt(t)) * (x - v)
        x = np.clip(x, 0.0, None)
        s = x.sum()
        x = x * (total / s) if s > 0 else np.full(len(v), total / len(v))
    return x


def test_simplex_projection_basics():
    out = simplex_projection(np.array([0.5, 0.5]), 1.0)
    assert np.allclose(out, [0.5, 0.5])
    out = simplex_projection(np.array([10.0, 0.0]), 1.0)
    assert np.allclose(out, [1.0, 0.0])
    out = simplex_projection(np.array([-5.0, -5.0]), 3.0)
    assert out.sum() == pytest.approx(3.0)
    assert np.all(out >= 0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=5, max_size=5
    )
)
def test_simplex_projection_is_euclidean_nearest(vals):
    v = np.array(vals)
    out = simplex_projection(v, 1.0)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(out >= -1e-12)
    oracle = _brute_force_projection(v, 1.0)
    assert np.linalg.norm(out - v) <= np.linalg.norm(oracle - v) + 1e-4


def test_random_search_improves_triangular_prism():
    g = catalog("triangular_prism")
    res = random_weight_search(g, "lower", trials=500, seed=0)
    lam2_unit, _ = lambda_ends(g)
    assert res.improved
    assert res.best_value > lam2_unit * (1.0 + 1e-6)
    assert reverify(g, res)


def test_subgradient_improves_triangular_prism():
    g = catalog("triangular_prism")
    res = subgradient_ascent(g, "lower", steps=200, seed=1)
    lam2_unit, _ = lambda_ends(g)
    assert res.improved
    assert res.best_value > lam2_unit * (1.0 + 1e-6)
    assert res.best_w.sum() == pytest.approx(g.m, abs=1e-8)


def test_no_improvement_on_rigid_graphs():
    for name in ("complete_4", "cycle_6", "petersen"):
        g = catalog(name)
        for end in ("lower", "upper"):
            res = random_weight_search(g, end, trials=300, seed=2)
            assert not res.improved, (name, end)
            res = subgradient_ascent(g, end, steps=100, seed=2)
            assert not res.improved, (name, end)


def test_random_search_rejects_disconnected_graph():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedError):
        random_weight_search(g, "lower", trials=10)


def test_rejects_bad_end():
    g = catalog("cycle_4")
    with pytest.raises(ValueError):
        random_weight_search(g, "sideways")
