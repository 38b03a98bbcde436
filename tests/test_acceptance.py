"""Acceptance suite: twelve end-to-end criteria, one test each, with pinned
tolerances.  Each test prints one PASS line via pytest's verbose output."""

import json
import time

import numpy as np
import pytest
from oracles import _add, _elements, _index_of, chi_gamma

from confrigid.catalog import catalog
from confrigid.certify import check_conformal_rigidity, eigenvector_certificate
from confrigid.cli import main
from confrigid.embeddings import (
    canonical_embedding,
    edge_length_profile,
    make_embedding,
    unit_edge_normalized,
)
from confrigid.falsify import IMPROVE_MARGIN
from confrigid.graphs import CayleySpec, Graph, circulant, laplacian, normalize_edges
from confrigid.sdp import (
    build_sdp_instance,
    length_decision,
    rank_one_vector,
    rank_reduce,
    sdp_feasibility,
)
from confrigid.spectra import (
    character_spectrum,
    circulant_curve_extremes,
    eigendecompose,
    lambda_ends,
)
from confrigid.symmetry import cayley_translations, find_automorphisms, orbits
from confrigid.walkreg import canonical_walk1_check, walk_regularity

SQRT2 = np.sqrt(2.0)


def test_acceptance_01_path4_spectrum_and_lambdamax_embedding():
    g = catalog("path_4")
    dec = eigendecompose(laplacian(g))
    expected = [0.0, 2.0 - SQRT2, 2.0, 2.0 + SQRT2]
    assert len(dec.eigenvalues) == 4
    for got, want in zip(dec.eigenvalues, expected):
        assert abs(got - want) <= 1e-9
    phi = np.array([-1.0, 1.0 + SQRT2, -1.0 - SQRT2, 1.0])
    emb = make_embedding(g, phi, 2.0 + SQRT2)
    prof = edge_length_profile(emb, g)
    lengths = sorted(prof.lengths)
    assert abs(lengths[0] - (2.0 + SQRT2)) <= 1e-9
    assert abs(lengths[1] - (2.0 + SQRT2)) <= 1e-9
    assert abs(lengths[2] - (2.0 + 2.0 * SQRT2)) <= 1e-9
    assert not prof.is_edge_isometric


def test_acceptance_02_shrikhande_complement():
    g = catalog("shrikhande_complement")
    dec = eigendecompose(laplacian(g))
    assert list(dec.eigenvalues) == pytest.approx([0.0, 8.0, 12.0], abs=1e-9)
    assert list(dec.multiplicities) == [1, 9, 6]
    p = find_automorphisms(g)
    assert orbits(g, p).num_edge_orbits == 2
    assert walk_regularity(g).walk1 is True
    rep = check_conformal_rigidity(g)
    assert rep.rigid
    assert rep.lower.method == "OneWalkRegular"
    assert rep.upper.method == "OneWalkRegular"
    orb = orbits(g, p)
    U = dec.basis_for(8.0)
    B = U[g.edge_array[:, 0]] - U[g.edge_array[:, 1]]
    cert = eigenvector_certificate(g, U, 8.0, p, orb, length_decision(B, blocks=orb.edge_orbits))
    assert cert is not None and cert.kind == "eigenvector"
    sums = cert.payload["orbit_sums"]
    assert max(sums) - min(sums) <= 1e-8 * max(1.0, max(abs(s) for s in sums))


def test_acceptance_03_hoffman_graph():
    g = catalog("hoffman")
    assert walk_regularity(g).walk1 is True
    rep = check_conformal_rigidity(g)
    assert rep.lower.verdict == "certified"
    assert rep.upper.verdict == "certified"
    dec = eigendecompose(laplacian(g))
    for lam in (dec.eigenvalues[1], dec.eigenvalues[-1]):
        prof = edge_length_profile(canonical_embedding(g, dec, lam), g)
        assert prof.is_edge_isometric
        assert prof.is_spherical


def test_acceptance_04_walk1_equivalence_suite():
    disagreements = []
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        N = int(rng.integers(3, 37))
        size = int(rng.integers(1, max(2, N // 2 + 1)))
        ks = rng.choice(np.arange(1, N // 2 + 1), size=min(size, N // 2), replace=False)
        try:
            g = circulant(N, set(int(k) for k in ks))
        except Exception:
            continue
        if not g.is_connected():
            continue
        checked += 1
        dec = eigendecompose(laplacian(g))
        if walk_regularity(g).walk1 != canonical_walk1_check(g, dec):
            disagreements.append(g.name)
    for name in (
        "cycle_5", "cycle_6", "complete_4", "complete_5",
        "complete_bipartite_3_3", "hypercube_3", "hypercube_4",
        "petersen", "triangular_prism", "hoffman", "shrikhande_complement",
    ):
        g = catalog(name)
        dec = eigendecompose(laplacian(g))
        if walk_regularity(g).walk1 != canonical_walk1_check(g, dec):
            disagreements.append(name)
    assert disagreements == []


def test_acceptance_05_circulant_family_character_lp(capsys):
    t0 = time.time()
    for n in range(6, 13):
        code = main(["check", "--circulant", str(3 * n), f"1,{n - 1}", "--json"])
        out = capsys.readouterr().out
        assert code == 0, n
        rep = json.loads(out)
        assert rep["lower"]["verdict"] == "certified"
        assert rep["upper"]["verdict"] == "certified"
        assert rep["lower"]["method"] == "CharacterLP"
        assert rep["upper"]["method"] == "CharacterLP"
        assert rep["walk1"] is (n in (8, 11))
        kmin, kmax = circulant_curve_extremes(n)
        assert kmin == 3
        assert kmax == 3 * (n // 2)
    assert time.time() - t0 < 10.0


def test_acceptance_06_rank_reduction_cay_z18():
    g = circulant(18, {1, 5})
    dec = eigendecompose(laplacian(g))
    U = dec.basis_for(dec.eigenvalues[1])
    p = cayley_translations(g.cayley_spec)
    inst = build_sdp_instance(g, U, p, orbits(g, p))
    res = sdp_feasibility(inst)
    assert res.status == "feasible"
    X = rank_reduce(res.X, inst)
    a = rank_one_vector(X)
    assert a is not None
    phi = U @ a
    s1 = sum(phi[i] * phi[(i + 1) % 18] for i in range(18))
    s5 = sum(phi[i] * phi[(i + 5) % 18] for i in range(18))
    assert abs(s1 - s5) <= 1e-8 * float(phi @ phi)


def test_acceptance_07_triangular_prism_refuted():
    g = catalog("triangular_prism")
    rep = check_conformal_rigidity(g)
    assert not rep.rigid
    assert rep.lower.verdict == "refuted"
    w = rep.lower.witness
    assert w is not None
    assert np.all(w >= 0) and w.sum() == pytest.approx(g.m, abs=1e-8)
    lam2_unit, _ = lambda_ends(g)
    lam2_w, _ = lambda_ends(g, w)  # independent eigensolve
    assert lam2_w >= lam2_unit * (1.0 + 1e-6)


def test_acceptance_08_edge_transitive_battery():
    names = (
        [f"cycle_{n}" for n in range(3, 13)]
        + [f"complete_{n}" for n in range(3, 9)]
        + [
            f"complete_bipartite_{a}_{b}"
            for a in range(1, 5)
            for b in range(a, 5)
        ]
        + [f"hypercube_{d}" for d in range(1, 5)]
    )
    for name in names:
        g = catalog(name)
        rep = check_conformal_rigidity(g)
        assert rep.rigid, name
        assert rep.lower.method == "EdgeTransitive", name
        assert rep.upper.method == "EdgeTransitive", name
        lo, hi = _stacked_ends(g, _simplex_draws(g.m, 1000, seed=11))
        lam2, lamn = lambda_ends(g)
        assert not np.any(lo > lam2 * (1.0 + IMPROVE_MARGIN)), name
        assert not np.any(hi < lamn * (1.0 - IMPROVE_MARGIN)), name


def _simplex_draws(m, trials, seed):
    """The weight rows random_weight_search(g, end, trials, seed) solves:
    exponential spacings normalized to sum m.  One draw of trials x m
    values is the same stream, row for row, as trials draws of m."""
    e = np.random.default_rng(seed).exponential(size=(trials, m))
    return e * (m / e.sum(axis=1, keepdims=True))


def _stacked_ends(g, W):
    """lambda_2 and lambda_n of L(w) for each row w of W, from one stack of
    Laplacians and one eigvalsh."""
    t, n = len(W), g.n
    i, j = g.edge_array.T
    L = np.zeros((t, n, n))
    L[:, i, j] = L[:, j, i] = -W
    L[:, np.arange(n), np.arange(n)] = -L.sum(axis=2)
    vals = np.linalg.eigvalsh(L)
    return vals[:, 1], vals[:, -1]


def test_acceptance_09_product_theorem():
    from confrigid.certify import product_rigidity
    from confrigid.errors import HypothesisViolatedError
    from confrigid.graphs import cartesian_product

    c4 = catalog("cycle_4")
    k3 = catalog("complete_3")
    for a, b in ((c4, c4), (k3, k3)):
        cert = product_rigidity(a, b)
        assert cert is not None and cert.kind == "product"
        rep = check_conformal_rigidity(cartesian_product(a, b))
        assert rep.rigid
    with pytest.raises(HypothesisViolatedError):
        product_rigidity(c4, catalog("cycle_6"))


def _random_connected_graph(rng, nmax=7):
    while True:
        n = int(rng.integers(3, nmax + 1))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = [e for e in pairs if rng.random() < 0.5]
        if not keep:
            continue
        g = Graph(n, normalize_edges(n, keep))
        if g.is_connected():
            return g


def test_acceptance_10_sdp_brute_force_oracle():
    rng = np.random.default_rng(5)
    tested = 0
    while tested < 20:
        g = _random_connected_graph(rng)
        dec = eigendecompose(laplacian(g))
        lam2 = dec.eigenvalues[1]
        U = dec.basis_for(lam2)
        k = U.shape[1]
        if k > 2:
            continue
        tested += 1
        inst = build_sdp_instance(g, U)
        res = sdp_feasibility(inst)
        if res.status == "feasible":
            assert inst.residual(res.X) <= 1e-6
            assert np.min(np.linalg.eigvalsh(res.X)) >= -1e-6
        # oracle: random unit-trace-functional PSD samples
        best = np.inf
        samples = 10**5
        B = rng.standard_normal((samples, k, k))
        X = np.einsum("sik,sjk->sij", B, B)
        tr = np.einsum("ij,sij->s", inst.trace_mat, X)
        good = tr > 1e-12
        X = X[good] / tr[good][:, None, None]
        funcs = np.stack(
            [np.einsum("ij,sij->s", C, X) for C in inst.orbit_mats], axis=1
        )
        resid = np.max(np.abs(funcs - funcs[:, :1]), axis=1)
        best = float(resid.min())
        oracle_feasible = best <= 1e-6
        if oracle_feasible and res.status == "undecided":
            assert res.residual <= 1e-4, (g.edges, best, res.residual)


def test_acceptance_11_character_orthogonality():
    specs = [circulant(N, {1}).cayley_spec for N in range(3, 37)]
    specs.append(CayleySpec(orders=(3, 3), gens=((1, 0), (2, 0), (0, 1), (0, 2))))
    specs.append(CayleySpec(orders=(2, 4), gens=((1, 0), (0, 1), (0, 3))))
    for spec in specs:
        table = character_spectrum(spec)
        N = spec.size
        chars = table.rows(np.arange(N))
        elems = _elements(spec.orders)
        for s in elems:
            shift = np.array([_index_of(spec.orders, _add(spec.orders, gel, s)) for gel in elems])
            M = chars @ np.conj(chars[:, shift]).T
            off = M - np.diag(np.diag(M))
            assert np.max(np.abs(off)) <= 1e-9 * N, spec.orders
        # closed form vs brute force is cross-asserted inside chi_gamma
        for k in range(min(N, 6)):
            v = chi_gamma(spec, k, cross_check_tol=1e-10)
            assert np.allclose(np.abs(v), N, atol=1e-8)


def test_acceptance_12_radius_identity():
    for name in ("complete_4", "cycle_6", "hoffman"):
        g = catalog(name)
        dec = eigendecompose(laplacian(g))
        lam_max = dec.eigenvalues[-1]
        emb = unit_edge_normalized(canonical_embedding(g, dec, lam_max), g)
        prof = edge_length_profile(emb, g)
        assert prof.is_spherical, name
        delta = 2.0 * g.m / g.n
        want = np.sqrt(delta / (2.0 * lam_max))
        assert abs(prof.radius - want) <= 1e-8, name
