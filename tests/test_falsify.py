"""Falsifier: simplex projection correctness and improvement behavior."""

import functools
import itertools
import json
from dataclasses import replace
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confrigid import certify, falsify
from confrigid.catalog import catalog
from confrigid.certify import STAGES, CheckOptions, check_conformal_rigidity
from confrigid.errors import DisconnectedError
from confrigid.falsify import (
    DIRECTION_STEPS,
    ENDS,
    line_search,
    random_weight_search,
    reverify,
    simplex_projection,
    subgradient_ascent,
)
from confrigid.graphs import Graph, cartesian_product, circulant, laplacian, normalize_edges
from confrigid.sdp import length_decision
from confrigid.spectra import eigendecompose, lambda_ends


def _assert_kkt_projection(v, w, total):
    """w is the Euclidean projection of v onto {w >= 0, sum w = total} iff
    w = max(v - theta, 0) for one threshold theta and w sums to total: the
    KKT conditions of the projection, which has a unique solution."""
    assert w.sum() == pytest.approx(total, abs=1e-9)
    support = w > 0
    assert support.any()
    theta = float(np.mean(v[support] - w[support]))
    assert np.allclose(w, np.maximum(v - theta, 0.0), rtol=0, atol=1e-9)


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
    assert np.all(out >= -1e-12)
    _assert_kkt_projection(v, out, 1.0)


def test_random_search_improves_triangular_prism():
    g = catalog("triangular_prism")
    res = random_weight_search(g, "lower", trials=500, seed=0)
    lam2_unit, _ = lambda_ends(g)
    assert res.improved
    assert res.best_value > lam2_unit * (1.0 + 1e-6)
    assert reverify(g, res, lam2_unit)


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
    "g, trials", [(catalog("triangular_prism"), 500), (_gnm(40, 90, 3), 23)]
)
def test_random_search_matches_per_trial_loop(g, trials):
    for end in ("lower", "upper"):
        res = random_weight_search(g, end, trials=trials, seed=4)
        best, best_w, improved = _per_trial_search(g, end, trials, seed=4)
        assert res.best_value == best
        assert np.array_equal(res.best_w, best_w)
        assert res.improved == improved


def _count_solves(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counting_eigh(a, *args, **kwargs):
        calls["eigh"] += 1
        return eigh(a, *args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return calls


def _count_factorizations(monkeypatch):
    calls = {"cholesky": 0}
    cholesky = np.linalg.cholesky

    def counting_cholesky(a, *args, **kwargs):
        calls["cholesky"] += 1
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    return calls


@pytest.mark.parametrize("steps", [0, 1, 40])
def test_subgradient_solves_once_per_step(monkeypatch, steps):
    g = catalog("triangular_prism")
    calls = _count_solves(monkeypatch)
    res = subgradient_ascent(g, "lower", steps=steps, seed=1)
    assert calls["eigh"] == steps
    # lambda_ends for the unit value, one solve for the last iterate
    assert calls["eigvalsh"] == 2
    assert reverify(g, res, lambda_ends(g)[0])


def _relabelled(g, seed):
    p = np.random.default_rng(seed).permutation(g.n)
    return Graph(g.n, normalize_edges(g.n, [(p[i], p[j]) for i, j in g.edges]))


def _step_cases():
    prism = catalog("triangular_prism")
    cases = [
        ("prism", prism, "lower"),
        ("prism", prism, "upper"),
        ("petersen_x_k2", cartesian_product(catalog("petersen"), catalog("path_2")), "upper"),
    ]
    for name in ("path_40", "path_64"):
        g = catalog(name)
        cases.append((name, g, "lower"))
        cases += [(f"{name}~{s}", _relabelled(g, s), "lower") for s in range(3)]
    return [pytest.param(g, end, id=f"{name}-{end}") for name, g, end in cases]


STEP_CASES = _step_cases()


def _assert_witness(g, w):
    assert np.all(w >= 0)
    assert abs(w.sum() - g.m) <= 1e-9


def _edge_rows(g, lam):
    """Rows b_e = U_i - U_j of an orthonormal eigenspace basis U of lam."""
    U = eigendecompose(laplacian(g)).basis_for(lam)
    e = g.edge_array
    return U[e[:, 0]] - U[e[:, 1]]


def _improves(end, value, unit):
    if end == "lower":
        return value > unit * (1.0 + 1e-6)
    return value < unit * (1.0 - 1e-6)


def _grid(g, end, d):
    """Independent oracle: every step row w = 1 + t d of the line search's
    grid, built at once, and its target eigenvalue, one lambda_ends each."""
    d = d if end == "lower" else -d
    rows = np.maximum(1.0 + np.outer(DIRECTION_STEPS / np.max(-d), d), 0.0)
    col = 0 if end == "lower" else 1
    return rows, [lambda_ends(g, w)[col] for w in rows]


def test_line_search_along_a_zero_direction_takes_no_step(monkeypatch):
    # a centred direction lowers some weight unless it is zero up to rounding
    g = catalog("triangular_prism")
    calls = _count_solves(monkeypatch)
    for end, unit in zip(ENDS, lambda_ends(g)):
        res = line_search(g, end, np.zeros(g.m), unit)
        assert (res.improved, res.trials, res.best_value) == (False, 0, unit)
        assert np.array_equal(res.best_w, np.ones(g.m))
    assert calls == {"eigh": 0, "eigvalsh": 1}  # lambda_ends only


@pytest.mark.parametrize("g, end", STEP_CASES)
def test_line_search_refutes_at_first_improving_step(monkeypatch, g, end):
    # the decision separates at X = I / k, where c is the canonical
    # embedding's centred squared edge lengths over k, and the line search
    # along that c refutes at its first improving step
    unit = lambda_ends(g)[0 if end == "lower" else 1]
    decision = length_decision(_edge_rows(g, unit))
    assert (decision.status, decision.iterations) == ("not_rigid", 0)
    rows, vals = _grid(g, end, decision.c)
    first = next(j for j, val in enumerate(vals) if _improves(end, val, unit))
    calls = _count_solves(monkeypatch)
    factored = _count_factorizations(monkeypatch)
    res = line_search(g, end, decision.c, unit)
    # no solve for the unit value, one factorization per step down to the
    # first improving one (no larger step improves) and one solve for it
    assert calls == {"eigh": 0, "eigvalsh": 1}
    assert factored["cholesky"] == first + 1
    assert res.improved and res.trials == first + 1
    assert np.array_equal(res.best_w, rows[first])
    assert res.best_value == vals[first]
    _assert_witness(g, res.best_w)
    assert reverify(g, res, unit)


@pytest.mark.parametrize("g, end", STEP_CASES)
def test_check_refutes_along_the_decision_dual(monkeypatch, g, end):
    # the falsify stage makes no eigh call (no subgradient step)
    calls = _count_solves(monkeypatch)
    falsify_eigh = []
    falsify_end = certify._falsify_end

    def counting_falsify_end(*args, **kwargs):
        before = calls["eigh"]
        out = falsify_end(*args, **kwargs)
        falsify_eigh.append(calls["eigh"] - before)
        return out

    monkeypatch.setattr(certify, "_falsify_end", counting_falsify_end)
    reps = [check_conformal_rigidity(g) for _ in range(2)]
    assert falsify_eigh and not any(falsify_eigh)
    ers = [getattr(rep, end) for rep in reps]
    for er in ers:
        assert (er.verdict, er.method) == ("refuted", "Falsifier")
        _assert_witness(g, er.witness)
    assert np.array_equal(ers[0].witness, ers[1].witness)
    unit = ers[0].residuals["falsifier_unit"]
    lam2_w, lamn_w = lambda_ends(g, ers[0].witness)  # independent eigensolve
    if end == "lower":
        assert lam2_w > unit * (1.0 + 1e-6)
    else:
        assert lamn_w < unit * (1.0 - 1e-6)


def _k7_minus_path_and_edge():
    # K_7 minus a path on three vertices and a disjoint edge: lambda_max = 7
    # has multiplicity 3, and the canonical step lowers the cluster's mean
    # but not its top
    missing = {(0, 2), (2, 3), (1, 6)}
    return Graph(7, tuple(e for e in itertools.combinations(range(7), 2) if e not in missing))


EQUIVALENCE_CASES = STEP_CASES + [
    pytest.param(g, end, id=f"{name}-{end}")
    for name, g in [
        *((f"gnm_{n}_{m}~{s}", _gnm(n, m, s)) for n, m, s in [(10, 22, 0), (14, 31, 1), (18, 40, 2)]),
        ("k7_minus_path_and_edge", _k7_minus_path_and_edge()),
    ]
    for end in ENDS
]


@pytest.mark.parametrize("g, end", EQUIVALENCE_CASES)
def test_line_search_improves_exactly_when_some_grid_step_does(g, end):
    # along the canonical lengths (which do not improve at the upper end of
    # K_7 minus a path and an edge); with no improving step the result is
    # the grid's first strictly best step, as when the whole grid was kept
    unit = lambda_ends(g)[0 if end == "lower" else 1]
    lengths = np.sum(_edge_rows(g, unit) ** 2, axis=1)
    d = lengths - lengths.mean()
    rows, vals = _grid(g, end, d)
    res = line_search(g, end, d, unit)
    assert res.improved == any(_improves(end, val, unit) for val in vals)
    if not res.improved:
        best, best_w = unit, np.ones(g.m)
        for w, val in zip(rows, vals):
            if (val > best) if end == "lower" else (val < best):
                best, best_w = val, w
        assert res.best_value == best
        assert np.array_equal(res.best_w, best_w)
        assert res.trials == len(DIRECTION_STEPS)


def test_falsify_end_solves_no_step_past_the_first_improving_one(monkeypatch):
    # a solve budget rather than a timing: each refuted end's falsifier
    # makes one solve, for the witness, and at most the scan's
    # factorizations plus re-verification's two, so a fall back to the
    # whole 30-step grid fails here
    g = catalog("path_128")
    calls = _count_solves(monkeypatch)
    factored = _count_factorizations(monkeypatch)
    seen = []
    falsify_end = certify._falsify_end

    def counting_falsify_end(g, end, lam, decision):
        before = {**calls, **factored}
        out = falsify_end(g, end, lam, decision)
        spent = {k: v - before[k] for k, v in {**calls, **factored}.items()}
        seen.append((end, lam, decision.c, spent))
        return out

    monkeypatch.setattr(certify, "_falsify_end", counting_falsify_end)
    rep = check_conformal_rigidity(g)
    assert sorted(end for end, *_ in seen) == ["lower", "upper"]
    for end, lam, c, spent in seen:
        assert getattr(rep, end).verdict == "refuted"
        _, vals = _grid(g, end, c)
        scan = 1 + next(j for j, val in enumerate(vals) if _improves(end, val, lam))
        assert spent["eigh"] == 0
        assert spent["eigvalsh"] == 1
        assert spent["cholesky"] <= scan + 2 < len(DIRECTION_STEPS)


def _refuting_step(g, end):
    unit = lambda_ends(g)[0 if end == "lower" else 1]
    res = line_search(g, end, length_decision(_edge_rows(g, unit)).c, unit)
    assert res.improved
    return res, unit


@pytest.mark.parametrize("end", ENDS)
def test_reverify_factors_twice_and_solves_nothing(monkeypatch, end):
    g = catalog("triangular_prism")
    res, unit = _refuting_step(g, end)
    calls = _count_solves(monkeypatch)
    factored = _count_factorizations(monkeypatch)
    assert reverify(g, res, unit)
    assert calls == {"eigh": 0, "eigvalsh": 0}
    assert factored["cholesky"] == 2


@pytest.mark.parametrize("end", ENDS)
def test_reverify_rejects_a_moved_value_or_a_flipped_flag(end):
    # the value is proved to 1e-9 (1 + |v|), which a 1e-8 relative move
    # leaves for |v| > 1/9; the prism's ends are near 1 and 5
    g = catalog("triangular_prism")
    res, unit = _refuting_step(g, end)
    assert res.best_value > 0.5
    assert reverify(g, res, unit)
    for factor in (1.0 + 1e-8, 1.0 - 1e-8):
        assert not reverify(g, replace(res, best_value=res.best_value * factor), unit)
    assert not reverify(g, replace(res, improved=False), unit)


def test_reverify_accepts_a_small_lambda_2_and_an_unimproved_search():
    g = catalog("path_128")
    res, unit = _refuting_step(g, "lower")
    assert res.best_value < 1e-3
    assert reverify(g, res, unit)
    g = catalog("petersen")
    for end, unit in zip(ENDS, lambda_ends(g)):
        res = random_weight_search(g, end, trials=50, seed=3)
        assert not res.improved
        assert reverify(g, res, unit)
        assert not reverify(g, replace(res, improved=True), unit)


@pytest.mark.parametrize("screen", [True, False], ids=["passes_every_step", "passes_no_step"])
@pytest.mark.parametrize("g, end", STEP_CASES[:4])
def test_line_search_does_not_trust_its_screen(monkeypatch, g, end, screen):
    # a screen that passes a step the eigensolve does not confirm is read
    # past, and one that passes none falls back to solving every step: both
    # return the grid oracle's first improving step
    unit = lambda_ends(g)[0 if end == "lower" else 1]
    c = length_decision(_edge_rows(g, unit)).c
    rows, vals = _grid(g, end, c)
    first = next(j for j, val in enumerate(vals) if _improves(end, val, unit))
    monkeypatch.setattr(falsify, "_positive_definite", lambda A: screen)
    calls = _count_solves(monkeypatch)
    res = line_search(g, end, c, unit)
    assert res.improved
    assert calls["eigvalsh"] == first + 1
    assert res.trials == first + 1
    assert np.array_equal(res.best_w, rows[first])
    assert res.best_value == vals[first]


@pytest.mark.parametrize("name", ["triangular_prism", "path_40", "petersen"])
def test_shift_decides_each_end_at_every_theta(name):
    # the lower end's shift lifts the all-ones kernel above theta for every
    # theta, zero and negative ones included, where a 2 theta / n multiple
    # of J would leave it at or below zero
    L = catalog(name).unit_laplacian
    n = len(L)
    lam2, lamn = lambda_ends(catalog(name))
    ones = np.ones(n)
    for theta in (-3.0, -1e-12, 0.0, 1e-12, lam2 / 2, 2 * lamn):
        assert ones @ falsify._shifted(L, "lower", theta) @ ones / n > 0
    for theta in (-3.0, -1e-12, 0.0, lam2 / 2):
        assert falsify._beats(L, "lower", theta)
        assert not falsify._beats(L, "upper", theta)
    for scale, beats in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        assert falsify._beats(L, "lower", lam2 * scale) is beats
        assert falsify._beats(L, "upper", lamn * scale) is not beats
    assert falsify._beats(L, "upper", 2 * lamn) and not falsify._beats(L, "lower", 2 * lamn)


def test_line_search_refutes_with_trivial_sdp_skipped():
    # skipping the stage drops only the Gram certificate: the decision still
    # runs and its dual refutes where the canonical lengths do not
    g = _k7_minus_path_and_edge()
    lengths = np.sum(_edge_rows(g, lambda_ends(g)[1]) ** 2, axis=1)
    step = line_search(g, "upper", lengths - lengths.mean(), lambda_ends(g)[1])
    assert not step.improved
    rep = check_conformal_rigidity(g, CheckOptions(skip_stages=frozenset({"trivial_sdp"})))
    assert (rep.upper.verdict, rep.upper.method) == ("refuted", "Falsifier")
    assert rep.upper.residuals["dual_min_eig"] > 0
    _assert_witness(g, rep.upper.witness)
    assert lambda_ends(g, rep.upper.witness)[1] < 7.0 * (1.0 - 1e-6)


def test_decision_dual_refutes_where_the_canonical_lengths_cannot(monkeypatch):
    # the decision finds c with S(c) positive definite after one step, and
    # the line search along it refutes: no subgradient step
    g = _k7_minus_path_and_edge()
    calls = _count_solves(monkeypatch)
    falsify_eigh = []
    falsify_end = certify._falsify_end

    def counting_falsify_end(*args, **kwargs):
        before = calls["eigh"]
        out = falsify_end(*args, **kwargs)
        falsify_eigh.append(calls["eigh"] - before)
        return out

    monkeypatch.setattr(certify, "_falsify_end", counting_falsify_end)
    rep = check_conformal_rigidity(g)
    assert (rep.upper.verdict, rep.upper.method) == ("refuted", "Falsifier")
    assert falsify_eigh and not any(falsify_eigh)
    assert rep.upper.residuals["dual_min_eig"] > 0
    _assert_witness(g, rep.upper.witness)
    assert lambda_ends(g, rep.upper.witness)[1] < 7.0 * (1.0 - 1e-6)


def test_unsettled_decision_names_gap_and_iterations(monkeypatch):
    # a decision stopped at its cap settles nothing: the line search along
    # its iteration-0 c does not refute, and the report says how far the
    # decision and the falsifier got
    monkeypatch.setattr(certify, "length_decision", functools.partial(length_decision, max_iter=0))
    g = _k7_minus_path_and_edge()
    rep = check_conformal_rigidity(g)
    assert (rep.upper.verdict, rep.upper.method) == ("undecided", None)
    res = rep.upper.residuals
    assert set(res) == {"falsifier_best", "falsifier_unit", "decision_gap", "decision_iterations"}
    assert res["decision_iterations"] == 0
    assert 0 < res["decision_gap"] < 1
    assert res["falsifier_unit"] == pytest.approx(7.0)
    assert res["falsifier_best"] >= 7.0 * (1.0 - 1e-6)
    with resources.files("confrigid").joinpath("report_schema.json").open() as fh:
        jsonschema.validate(json.loads(json.dumps(rep.to_json_dict())), json.load(fh))


@pytest.mark.parametrize(
    "g",
    [
        catalog("triangular_prism"),
        catalog("path_40"),
        catalog("petersen"),
        circulant(7, {1, 2}),
        _k7_minus_path_and_edge(),
    ],
    ids=["prism", "path_40", "petersen", "circulant_7_1_2", "k7_minus_path_and_edge"],
)
def test_check_draws_no_random_numbers(monkeypatch, g):
    # no stage, and no stage skipped, reaches a random generator; the ends
    # a skip leaves decided keep one verdict
    def no_rng(*args, **kwargs):
        raise AssertionError("the check drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    verdicts = {"lower": set(), "upper": set()}
    for skip in [frozenset()] + [frozenset({stage}) for stage in STAGES]:
        rep = check_conformal_rigidity(g, CheckOptions(skip_stages=skip))
        for er in (rep.lower, rep.upper):
            verdicts[er.end].add(er.verdict)
    for seen in verdicts.values():
        assert len(seen - {"undecided"}) == 1


@pytest.mark.parametrize("name", ["petersen", "complete_bipartite_3_4", "cycle_9"])
def test_decision_finds_no_direction_when_edge_transitive(monkeypatch, name):
    # the canonical embedding is edge-isometric: the decision stops at
    # X = I / k before its first eigensolve, and there is no c to follow
    g = catalog(name)
    rows = [_edge_rows(g, lam) for lam in lambda_ends(g)]
    calls = _count_solves(monkeypatch)
    for B in rows:
        decision = length_decision(B)
        assert (decision.status, decision.iterations) == ("rigid", 0)
    assert calls["eigvalsh"] == 0 and calls["eigh"] == 0


def test_random_search_rejects_disconnected_graph():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedError):
        random_weight_search(g, "lower", trials=10)


def test_rejects_bad_end():
    g = catalog("cycle_4")
    with pytest.raises(ValueError):
        random_weight_search(g, "sideways")
