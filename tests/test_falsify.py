"""Falsifier: simplex projection correctness and improvement behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confrigid.catalog import catalog
from confrigid.certify import CheckOptions, check_conformal_rigidity
from confrigid.errors import DisconnectedError
from confrigid.falsify import (
    STACK_BYTES,
    random_weight_search,
    reverify,
    simplex_projection,
    subgradient_ascent,
)
from confrigid.graphs import Graph, laplacian, normalize_edges
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


def _per_trial_search(g, end, trials, seed):
    """Reference: draw, normalize and solve one weight row at a time, keep
    the first strictly best row."""
    rng = np.random.default_rng(seed)
    lam2, lamn = lambda_ends(g)
    unit = lam2 if end == "lower" else lamn
    best, best_w = unit, np.ones(g.m)
    for _ in range(trials):
        e = rng.exponential(size=g.m)
        w = e * (g.m / e.sum())
        vals = np.linalg.eigvalsh(laplacian(g, w))
        val = float(vals[1] if end == "lower" else vals[-1])
        if (val > best) if end == "lower" else (val < best):
            best, best_w = val, w
    if end == "lower":
        return best, best_w, best > unit * (1.0 + 1e-6)
    return best, best_w, best < unit * (1.0 - 1e-6)


def _gnm(n, m, seed):
    """A connected G(n, M) graph: m distinct edges drawn uniformly."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        pick = rng.choice(len(pairs), m, replace=False)
        g = Graph(n, normalize_edges(n, [pairs[k] for k in pick]))
        if g.is_connected():
            return g


@pytest.mark.parametrize(
    "g, trials",
    # 500 prism rows span three chunks of 227; 23 rows at n = 40 span five of 5
    [(catalog("triangular_prism"), 500), (_gnm(40, 90, 3), 23)],
)
def test_random_search_matches_per_trial_loop(g, trials):
    assert trials > STACK_BYTES // (8 * g.n * g.n)
    for end in ("lower", "upper"):
        res = random_weight_search(g, end, trials=trials, seed=4)
        best, best_w, improved = _per_trial_search(g, end, trials, seed=4)
        assert res.best_value == best
        assert np.array_equal(res.best_w, best_w)
        assert res.improved == improved


def _count_solves(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0, "eigvalsh_rows": []}
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counting_eigh(a, *args, **kwargs):
        calls["eigh"] += 1
        return eigh(a, *args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        calls["eigvalsh"] += 1
        calls["eigvalsh_rows"].append(1 if np.ndim(a) == 2 else len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return calls


@pytest.mark.parametrize("steps", [0, 1, 40])
def test_subgradient_solves_once_per_step(monkeypatch, steps):
    g = catalog("triangular_prism")
    calls = _count_solves(monkeypatch)
    res = subgradient_ascent(g, "lower", steps=steps, seed=1)
    assert calls["eigh"] == steps
    # lambda_ends for the unit value, one solve for the last iterate
    assert calls["eigvalsh"] == 2
    assert reverify(g, res)


def test_check_draws_once_for_both_ends(monkeypatch):
    g = catalog("triangular_prism")
    opts = CheckOptions(steps=30)
    calls = _count_solves(monkeypatch)
    rep = check_conformal_rigidity(g, opts)
    assert (rep.lower.method, rep.upper.method) == ("Falsifier", "Falsifier")
    stacked = [rows for rows in calls["eigvalsh_rows"] if rows > 1]
    chunk = STACK_BYTES // (8 * g.n * g.n)
    assert sum(stacked) == opts.trials
    assert len(stacked) == -(-opts.trials // chunk)


def test_random_search_rejects_disconnected_graph():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedError):
        random_weight_search(g, "lower", trials=10)


def test_rejects_bad_end():
    g = catalog("cycle_4")
    with pytest.raises(ValueError):
        random_weight_search(g, "sideways")
