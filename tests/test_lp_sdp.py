"""Phase-1 simplex oracle checks, SDP feasibility, the equal-length
decision, and rank reduction."""

import itertools

import numpy as np
import pytest
from test_census import _connected_graphs

from confrigid.catalog import catalog
from confrigid.certify import LP_CERTIFY_TOL
from confrigid.graphs import Graph, circulant, laplacian, normalize_edges
from confrigid.lp import phase1_feasibility
from confrigid.sdp import (
    DECISION_ITERATIONS,
    DUAL_TOL,
    build_sdp_instance,
    length_decision,
    rank_one_vector,
    rank_reduce,
    sdp_feasibility,
)
from confrigid.spectra import eigendecompose
from confrigid.symmetry import cayley_translations, find_automorphisms, orbits


def test_phase1_feasible_system():
    # x1 + x2 = 1, x1 - x2 = 0 -> x = (1/2, 1/2)
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 0.0])
    res = phase1_feasibility(A, b)
    assert res.objective <= LP_CERTIFY_TOL
    assert np.allclose(A @ res.x, b, atol=1e-9)
    assert np.all(res.x >= -1e-12)


def test_phase1_infeasible_system():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = phase1_feasibility(A, b)
    assert res.objective > LP_CERTIFY_TOL
    assert res.objective > 0.1


def test_phase1_nonnegativity_binds():
    # x1 - x2 = 1 with x >= 0 is feasible; x1 + x2 = -1 is not
    res = phase1_feasibility(np.array([[1.0, -1.0]]), np.array([1.0]))
    assert res.objective <= LP_CERTIFY_TOL
    res = phase1_feasibility(np.array([[1.0, 1.0]]), np.array([-1.0]))
    assert res.objective > LP_CERTIFY_TOL


def test_phase1_random_consistent_systems():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = 4, 7
        A = rng.standard_normal((m, n))
        x0 = rng.uniform(0.1, 1.0, size=n)
        b = A @ x0  # feasible by construction
        res = phase1_feasibility(A, b)
        assert res.objective <= LP_CERTIFY_TOL
        assert np.allclose(A @ res.x, b, atol=1e-8)


def test_sdp_feasible_on_edge_transitive_graph():
    g = catalog("petersen")
    dec = eigendecompose(laplacian(g))
    U = dec.basis_for(dec.eigenvalues[1])
    p = find_automorphisms(g)
    inst = build_sdp_instance(g, U, p, orbits(g, p))
    res = sdp_feasibility(inst)
    assert res.status == "feasible"
    assert inst.residual(res.X) <= 1e-6
    assert np.min(np.linalg.eigvalsh(res.X)) >= -1e-9


def test_sdp_trivial_group_one_constraint_per_edge():
    g = catalog("cycle_5")
    dec = eigendecompose(laplacian(g))
    U = dec.basis_for(dec.eigenvalues[1])
    inst = build_sdp_instance(g, U)
    assert len(inst.orbit_mats) == g.m
    res = sdp_feasibility(inst)
    assert res.status == "feasible"


def _complete_5_minus_edge():
    return Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)))


def test_trivial_group_instance_constrains_edge_lengths():
    g = _complete_5_minus_edge()
    dec = eigendecompose(laplacian(g))
    U = dec.basis_for(dec.eigenvalues[-1])
    inst = build_sdp_instance(g, U)
    V = np.random.default_rng(0).standard_normal((U.shape[1], U.shape[1]))
    P = U @ V
    lengths = [float(np.sum((P[i] - P[j]) ** 2)) for i, j in g.edges]
    assert np.allclose(np.tensordot(inst.orbit_mats, V @ V.T), lengths, atol=1e-12)


def test_length_decision_simple_eigenvalue_decides_at_once():
    # k = 1: S(c) is the scalar c . sum B^2, which is |c|^2 up to rounding
    d = length_decision(np.array([[1.0], [2.0], [0.5]]))
    assert (d.status, d.iterations) == ("not_rigid", 0)
    assert d.dual_min_eig == pytest.approx(float(d.c @ d.c))
    assert abs(d.c.sum()) <= 1e-12


def test_length_decision_finds_equal_length_gram():
    # rows e1, e2, e1 + e2: X = [[1/2, -1/4], [-1/4, 1/2]] gives all three
    # squared length 1/2, while I/2 gives 1/2, 1/2, 1
    B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    d = length_decision(B)
    assert d.status == "rigid" and d.iterations > 0
    lengths = np.einsum("ek,kl,el->e", B, d.X, B)
    assert np.ptp(lengths) <= 1e-8 * np.linalg.norm(lengths)
    assert np.trace(d.X) == pytest.approx(1.0)
    assert np.min(np.linalg.eigvalsh(d.X)) >= -1e-12


def _edge_rows(g, lam, dec):
    U = dec.basis_for(lam)
    e = g.edge_array
    return U[e[:, 0]] - U[e[:, 1]]


def test_length_decision_on_edge_orbits_is_rigid_at_once():
    # circulant(12, {1, 2}) as a plain edge list: at lambda_n = 6 (k = 4)
    # the decision over its 2 edge orbits is a one-dimensional problem
    c = circulant(12, {1, 2})
    g = Graph(c.n, c.edges)
    dec = eigendecompose(laplacian(g))
    lam = dec.eigenvalues[-1]
    assert lam == pytest.approx(6.0) and dec.basis_for(lam).shape[1] == 4
    orb = orbits(g, find_automorphisms(g))
    assert orb.num_edge_orbits == 2
    d = length_decision(_edge_rows(g, lam, dec), blocks=orb.edge_orbits)
    assert d.status == "rigid" and d.iterations <= 3
    # c is constant on each orbit, so it is a valid dual direction
    for block in orb.edge_orbits:
        assert np.ptp(d.c[list(block)]) == 0.0


def test_singleton_blocks_match_no_blocks_bit_for_bit():
    rng = np.random.default_rng(7)
    iu, ju = np.triu_indices(12, k=1)
    while True:
        keep = np.sort(rng.choice(len(iu), size=27, replace=False))
        g = Graph(12, tuple(zip(iu[keep].tolist(), ju[keep].tolist())))
        if g.is_connected():
            break
    dec = eigendecompose(laplacian(g))
    for lam in (dec.eigenvalues[1], dec.eigenvalues[-1]):
        B = _edge_rows(g, lam, dec)
        plain = length_decision(B)
        single = length_decision(B, blocks=[(e,) for e in range(g.m)])
        assert (single.status, single.iterations) == (plain.status, plain.iterations)
        assert np.array_equal(single.X, plain.X) and np.array_equal(single.c, plain.c)


def _connected_gnm(n, m, rng):
    iu, ju = np.triu_indices(n, k=1)
    while True:
        keep = rng.choice(len(iu), size=m, replace=False)
        g = Graph(n, normalize_edges(n, zip(iu[keep].tolist(), ju[keep].tolist())))
        if g.is_connected():
            return g


def _simple_end_graphs():
    """path_40 and three seeded connected G(n, round(2.25 n)) draws, whose
    lambda_2 and lambda_n are both simple."""
    rng = np.random.default_rng(5)
    graphs = [catalog("path_40")]
    graphs += [_connected_gnm(n, round(2.25 * n), rng) for n in (24, 32, 40)]
    for g in graphs:
        vals = np.linalg.eigvalsh(laplacian(g))
        assert vals[2] - vals[1] > 1e-6 and vals[-1] - vals[-2] > 1e-6, g.edges
    return graphs


def test_simple_eigenvalue_decision_is_its_first_iteration_without_a_solve(monkeypatch):
    # at k = 1 the decision returns what the corral's first iteration
    # computes, bit for bit, and runs no eigensolve: a 1 x 1 S(c) is its own
    # eigenvalue, and without blocks a block mean is the row itself
    rows = []
    for g in _simple_end_graphs():
        dec = eigendecompose(laplacian(g))
        rows += [_edge_rows(g, lam, dec) for lam in (dec.eigenvalues[1], dec.eigenvalues[-1])]
    eigh = np.linalg.eigh
    solves = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: solves.append(a) or eigh(*a, **kw))
    for B in rows:
        assert B.shape[1] == 1
        d = length_decision(B)
        lengths = np.sum(B * B, axis=1)
        c = lengths - lengths.mean()
        S = (B.T * c) @ B
        assert d.status == "not_rigid"
        assert np.array_equal(d.c, c)
        assert d.gap == np.linalg.norm(c) / np.linalg.norm(lengths)
        assert d.dual_min_eig == S[0, 0]
        assert np.array_equal(d.X, [[1.0]]) and d.iterations == 0
        # the eigensolve of S(c) the decision skips returns its entry
        assert eigh(S)[0][0] == S[0, 0]
    assert solves == []


def _frank_wolfe_status(B, blocks=None):
    """The status of plain Frank-Wolfe on the same problem, kept as an
    oracle for `length_decision`: each step blends in one bottom-eigenspace
    atom with an exact line search and never re-weights the old ones, with
    the same start, stop tests and cap."""
    k = B.shape[1]
    label = np.arange(len(B))
    for r, block in enumerate(blocks or ()):
        label[list(block)] = r
    size = np.bincount(label)

    def mean(x):
        return (np.bincount(label, weights=x) / size)[label]

    sq = np.sum(B * B, axis=1)
    lengths = mean(sq) / k
    for _ in range(DECISION_ITERATIONS + 1):
        c = lengths - lengths.mean()
        if np.linalg.norm(c) <= 1e-8 * np.linalg.norm(lengths):
            return "rigid"
        vals, vecs = np.linalg.eigh((B.T * c) @ B)
        bound = DUAL_TOL * float(np.abs(c) @ sq)
        if vals[0] > bound:
            return "not_rigid"
        j = int(np.count_nonzero(vals - vals[0] <= bound))
        atom = mean(np.sum((B @ vecs[:, :j]) ** 2, axis=1)) / j
        d = atom - atom.mean() - c
        descent = -float(c @ d)
        if descent <= 0.0:
            break
        lengths = lengths + min(1.0, descent / float(d @ d)) * (atom - lengths)
    return "undecided"


def _plain_circulants(max_n, sizes):
    """Connected circulant(N, S) with N <= max_n and |S| in sizes, as plain
    edge lists: the check finds their groups by search."""
    for n in range(3, max_n + 1):
        for size in sizes:
            for S in itertools.combinations(range(1, n // 2 + 1), size):
                c = circulant(n, set(S))
                g = Graph(c.n, c.edges)
                if g.is_connected():
                    yield g


def _edge_orbit_ends(g):
    """Both ends' edge rows with the check's blocks: the edge orbits of the
    searched group, or single edges when every orbit is one edge."""
    dec = eigendecompose(laplacian(g))
    p = find_automorphisms(g)
    orb = orbits(g, p)
    blocks = orb.edge_orbits if orb.num_edge_orbits < g.m else None
    for lam in (dec.eigenvalues[1], dec.eigenvalues[-1]):
        yield dec.basis_for(lam), _edge_rows(g, lam, dec), blocks, p


def test_length_decision_agrees_with_frank_wolfe_where_it_decides():
    # every connected graph on n <= 6 vertices and the plain-edge-list
    # circulant(N, {a, b}) with N <= 16
    graphs = [g for n in range(2, 7) for g in _connected_graphs(n)]
    graphs += _plain_circulants(16, [2])
    ends = decided = 0
    for g in graphs:
        for _, B, blocks, _ in _edge_orbit_ends(g):
            status = _frank_wolfe_status(B, blocks)
            d = length_decision(B, blocks=blocks)
            assert d.status != "undecided", g.edges
            ends += 1
            if status != "undecided":
                assert d.status == status, g.edges
                decided += 1
    assert decided == ends


def test_length_decision_agrees_with_frank_wolfe_on_random_rows():
    # no graph above makes the minor cycle drop an atom from its corral;
    # random rows often do
    for seed in range(200):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((int(rng.integers(3, 9)), int(rng.integers(2, 5))))
        d = length_decision(B)
        assert d.status != "undecided", seed
        status = _frank_wolfe_status(B)
        assert status in ("undecided", d.status), seed
        assert np.trace(d.X) == pytest.approx(1.0)
        assert np.min(np.linalg.eigvalsh(d.X)) >= -1e-12
        lengths = np.einsum("ek,kl,el->e", B, d.X, B)
        assert np.allclose(d.c, lengths - lengths.mean(), rtol=0.0, atol=1e-12), seed
        if d.status == "rigid":
            assert np.ptp(lengths) <= 1e-8 * np.linalg.norm(lengths)


@pytest.mark.parametrize(
    "S, end",
    [((1, 2, 3), "upper"), ((2, 3, 5), "upper"), ((1, 4, 6), "lower"), ((4, 5, 6), "lower")],
)
def test_length_decision_finishes_where_frank_wolfe_caps(S, end):
    # plain Frank-Wolfe zigzags to its cap on these three edge orbits; the
    # corral's affine minimum-norm point lands on the face at once
    c = circulant(12, set(S))
    g = Graph(c.n, c.edges)
    lower, upper = _edge_orbit_ends(g)
    U, B, blocks, p = upper if end == "upper" else lower
    assert len(blocks) == 3
    assert _frank_wolfe_status(B, blocks) == "undecided"
    d = length_decision(B, blocks=blocks)
    assert d.status == "rigid" and d.iterations <= 3
    assert np.trace(d.X) == pytest.approx(1.0)
    assert np.min(np.linalg.eigvalsh(d.X)) >= -1e-12
    for sigma in p.gens:
        R = U.T @ U[list(sigma)]
        assert np.allclose(R @ d.X @ R.T, d.X, rtol=0.0, atol=1e-12)
    lengths = np.einsum("ek,kl,el->e", B, d.X, B)
    assert np.ptp(lengths) <= 1e-8 * np.linalg.norm(lengths)


def test_rank_reduction_to_rank_one_circulant18():
    g = circulant(18, {1, 5})
    dec = eigendecompose(laplacian(g))
    U = dec.basis_for(dec.eigenvalues[1])
    p = cayley_translations(g.cayley_spec)
    orb = orbits(g, p)
    inst = build_sdp_instance(g, U, p, orb)
    assert len(inst.orbit_mats) == 2  # two edge orbits -> two constraints
    res = sdp_feasibility(inst)
    assert res.status == "feasible"
    X = rank_reduce(res.X, inst)
    a = rank_one_vector(X)
    assert a is not None
    assert inst.residual(np.outer(a, a)) <= 1e-6


def test_rank_one_vector_detection():
    a = np.array([1.0, -2.0, 0.5])
    assert np.allclose(rank_one_vector(np.outer(a, a)), a) or np.allclose(
        rank_one_vector(np.outer(a, a)), -a
    )
    assert rank_one_vector(np.eye(3)) is None
    assert rank_one_vector(np.zeros((2, 2))) is None
