"""The array kernels of the abelian Cayley check path against the
per-element loops they replaced, kept here as oracles.  Each kernel must
agree with its loop exactly: the same edges, labels and permutations, the
same characters and eigenvalues bit for bit, and the same LP solution,
objective and pivot count, and the same character LP system."""

from itertools import product

import numpy as np
import pytest

from confrigid.catalog import catalog
from confrigid.certify import abelian_lp_certificate, character_lp_system
from confrigid.graphs import CayleySpec, cayley_abelian, circulant, laplacian, normalize_edges
from confrigid.lp import PIVOT_TOL, phase1_feasibility
from confrigid.spectra import character_spectrum, eigendecompose
from confrigid.symmetry import cayley_translations

# involutions (s = -s) in (2, 4), (6,), (12,) and (4, 6); a trivial factor in (1, 5)
SPECS = [
    CayleySpec((3, 3), ((1, 0), (2, 0), (0, 1), (0, 2))),
    CayleySpec((2, 4), ((1, 0), (0, 1), (0, 3))),
    CayleySpec((2, 2, 3), ((1, 0, 0), (0, 1, 1), (0, 1, 2), (1, 1, 0))),
    CayleySpec((6,), ((3,), (1,), (5,))),
    CayleySpec((12,), ((1,), (6,), (11,))),
    CayleySpec((4, 6), ((1, 2), (3, 4), (0, 3), (2, 0))),
    CayleySpec((1, 5), ((0, 1), (0, 4))),
    CayleySpec((5, 5), ((1, 1), (4, 4), (0, 2), (0, 3))),
]
SPEC_IDS = ["z3xz3", "z2xz4", "z2xz2xz3", "z6", "z12", "z4xz6", "z1xz5", "z5xz5"]


def _elements(orders):
    return [tuple(g) for g in product(*(range(o) for o in orders))]


def _index_of(orders, g):
    idx = 0
    for c, o in zip(g, orders):
        idx = idx * o + (c % o)
    return idx


def _add(orders, g, h):
    return tuple((a + b) % o for a, b, o in zip(g, h, orders))


def _cayley_edges_oracle(spec):
    pairs = []
    for g in _elements(spec.orders):
        gi = _index_of(spec.orders, g)
        for s in spec.gens:
            hi = _index_of(spec.orders, _add(spec.orders, g, s))
            if gi != hi:
                pairs.append((gi, hi))
    return normalize_edges(spec.size, pairs)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_cayley_abelian_matches_the_element_loop(spec):
    g = cayley_abelian(spec)
    assert g.edges == _cayley_edges_oracle(spec)
    assert g.labels == tuple(_elements(spec.orders))
    assert all(type(c) is int for e in g.edges for c in e)
    # the CLI hands its generators over as a frozenset
    h = cayley_abelian(CayleySpec(spec.orders, frozenset(spec.gens)))
    assert h.edges == g.edges and h.labels == g.labels


def test_circulant_matches_the_element_loop():
    for N in range(4, 40):
        for S in ({1, 3}, {1, N // 2}, {2, N - 1, N + 3}):
            g = circulant(N, S)
            assert g.edges == _cayley_edges_oracle(g.cayley_spec), (N, S)
            assert g.labels == tuple(range(N))


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_cayley_translations_match_the_element_loop(spec):
    elems = _elements(spec.orders)
    r = len(spec.orders)
    expect = tuple(
        tuple(_index_of(spec.orders, _add(spec.orders, g, tuple(int(i == t) for i in range(r))))
              for g in elems)
        for t in range(r)
    )
    p = cayley_translations(spec)
    assert p.n == spec.size and p.gens == expect


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_character_spectrum_matches_the_element_loop(spec):
    arr = np.array(_elements(spec.orders), dtype=float)
    chars = np.exp(2j * np.pi * ((arr / np.array(spec.orders, dtype=float)) @ arr.T))
    gen_idx = [_index_of(spec.orders, s) for s in spec.gens]
    eigenvalues = np.sum(1.0 - chars[:, gen_idx].real, axis=1)
    table = character_spectrum(spec)
    assert table.chars.tobytes() == chars.tobytes()
    assert table.eigenvalues.tobytes() == eigenvalues.tobytes()


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_generator_columns_and_rows_match_the_full_table(spec):
    # the check reads only gen_chars and a few rows; each must be the full
    # table's slice bit for bit, single rows included
    table = character_spectrum(spec)
    chars = table.chars
    assert table.gen_chars.tobytes() == chars[:, table.gen_idx].tobytes()
    N = spec.size
    subsets = [[k] for k in range(N)] + [list(range(N)), list(range(0, N, 2)), [N - 1, 0]]
    for ks in subsets:
        assert table.rows(ks).tobytes() == chars[ks].tobytes(), ks


def _characters_near(table, lam, tol=1e-8):
    """The oracle's own lookup: the characters whose eigenvalue is within
    tol of lam."""
    return np.flatnonzero(np.abs(table.eigenvalues - lam) <= tol).tolist()


def _grouped_means_oracle(M, group_tol):
    vals = np.linalg.eigh((M + M.T) / 2.0)[0]
    # the smallest eigenvalue is a group of its own
    cuts = sorted({0, 1, *(np.flatnonzero(np.diff(vals) > group_tol) + 1).tolist(), len(vals)})
    return np.array([float(np.mean(vals[a:b])) for a, b in zip(cuts, cuts[1:])]), np.diff(cuts)


# hoffman, hypercube_4 and shrikhande_complement have eigenspaces of
# dimension >= 3, the groups whose mean is a reduction and a division
EIGEN_GRAPHS = ["hoffman", "hypercube_4", "shrikhande_complement", "petersen", "complete_7",
                "complete_bipartite_4_5", "cycle_48", "path_40", "triangular_prism"]


def test_eigendecompose_means_equal_np_mean_bit_for_bit():
    mats = [laplacian(catalog(name)) for name in EIGEN_GRAPHS]
    mats += [laplacian(circulant(3 * n, {1, n - 1})) for n in range(6, 25)]
    rng = np.random.default_rng(0)
    for _ in range(20):  # random spectra with repeated values of each multiplicity
        Q = np.linalg.qr(rng.standard_normal((9, 9)))[0]
        d = np.repeat(rng.standard_normal(4), [1, 2, 3, 3])
        mats.append(Q @ np.diag(d) @ Q.T)
    seen = set()
    for M in mats:
        M = (M + M.T) / 2.0
        dec = eigendecompose(M)
        values, mults = _grouped_means_oracle(M, dec.group_tol)
        assert dec.eigenvalues.tobytes() == values.tobytes()
        assert np.array_equal(dec.multiplicities, mults)
        seen.update(min(int(k), 3) for k in mults)
    assert seen == {1, 2, 3}


def _phase1_oracle(A, b, max_iter=10_000):
    """The per-row loops phase1_feasibility replaced."""
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    it = 0
    while it < max_iter:
        it += 1
        enter = -1
        for j in range(n + m):
            if T[m, j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            break
        leave, best = -1, np.inf
        for i in range(m):
            if T[i, enter] > PIVOT_TOL:
                ratio = T[i, -1] / T[i, enter]
                if ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave < 0:
            break
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(m + 1):
            if i != leave and abs(T[i, enter]) > 0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i, -1]
    return x, float(-T[m, -1]), it


def test_phase1_matches_the_row_loops_on_random_lps():
    rng = np.random.default_rng(0)
    for trial in range(1500):
        m, n = rng.integers(1, 8, size=2)
        if trial % 3 == 0:  # small integers: ties in the ratio test, zero entries
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            b = rng.integers(-2, 3, size=m).astype(float)
        else:
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
        if trial % 5 == 0:  # a feasible system
            b = A @ rng.random(n)
        x, objective, iterations = _phase1_oracle(A, b)
        res = phase1_feasibility(A, b)
        assert res.x.tobytes() == x.tobytes(), trial
        assert (res.objective, res.iterations) == (objective, iterations), trial


def _lp_rows_oracle(V):
    """The per-generator row loop character_lp_system replaced."""
    d = V.shape[0]
    rows, rhs = [], []
    for col in range(V.shape[1]):
        rows.append(np.concatenate([V[:, col].real, [-1.0, 1.0]]))
        rhs.append(0.0)
        rows.append(np.concatenate([V[:, col].imag, [0.0, 0.0]]))
        rhs.append(0.0)
    rows.append(np.concatenate([np.ones(d), [0.0, 0.0]]))
    rhs.append(1.0)
    return np.stack(rows), np.array(rhs)


def _abelian_lp_oracle(spec, lam, table):
    """abelian_lp_certificate with the generator columns from index_of and
    the rows from the loop: (status, coefficients, t, complex_only)."""
    idxs = _characters_near(table, lam)
    V = np.conj(table.chars[np.ix_(idxs, [_index_of(spec.orders, s) for s in spec.gens])])
    d = len(idxs)
    res = phase1_feasibility(*_lp_rows_oracle(V))
    if res.objective > 1e-7:
        return "not_in_polytope", None, None, False
    if res.objective > 1e-9:
        return "degenerate", None, None, False
    c = np.clip(res.x[:d], 0.0, None)
    c = c / c.sum()
    t = float(res.x[d] - res.x[d + 1])
    if np.max(np.abs(c @ V - t)) > 1e-7:
        return "degenerate", None, None, False
    support = [k for k, ck in zip(idxs, c) if ck > 1e-10]
    complex_only = all(np.max(np.abs(table.chars[k].imag)) > 1e-9 for k in support)
    return "certified", c, t, complex_only


def test_character_lp_matches_the_row_loop():
    specs = SPECS + [circulant(N, {1, 3}).cayley_spec for N in range(4, 40)]
    statuses = set()
    for spec in specs:
        table = character_spectrum(spec)
        for lam in table.eigenvalues:
            idxs = _characters_near(table, lam)
            V = np.conj(table.chars[np.ix_(idxs, table.gen_idx)])
            A, b = character_lp_system(V)
            A0, b0 = _lp_rows_oracle(V)
            assert A.tobytes() == A0.tobytes() and b.tobytes() == b0.tobytes(), spec
            assert A.shape == (2 * len(spec.gens) + 1, len(idxs) + 2)
            lp = abelian_lp_certificate(table, idxs)
            status, c, t, complex_only = _abelian_lp_oracle(spec, lam, table)
            assert (lp.status, lp.t, lp.complex_only) == (status, t, complex_only), spec
            assert (c is None) == (lp.coefficients is None)
            if c is not None:
                assert lp.coefficients.tobytes() == c.tobytes()
            statuses.add(lp.status)
    assert statuses >= {"certified", "not_in_polytope"}
