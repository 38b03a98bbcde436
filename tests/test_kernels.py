"""The array kernels of the abelian Cayley check path against the
per-element loops they replaced, kept as oracles here and, for the group
elements, in oracles.py.  Each kernel must
agree with its loop exactly: the same edges and permutations, the
same characters and eigenvalues bit for bit, and the same LP solution,
objective and pivot count.  The character stage's kernel is held to the
simplex on the reference LP: the same status on every class."""

import numpy as np
import pytest
from oracles import _add, _cayley_edges_oracle, _elements, _index_of

from confrigid import certify, lp
from confrigid.catalog import catalog
from confrigid.certify import abelian_lp_certificate
from confrigid.graphs import CayleySpec, cayley_abelian, circulant, laplacian
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


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_cayley_abelian_matches_the_element_loop(spec):
    g = cayley_abelian(spec)
    assert g.edges == _cayley_edges_oracle(spec)
    assert all(type(c) is int for e in g.edges for c in e)
    # the CLI hands its generators over as a frozenset
    h = cayley_abelian(CayleySpec(spec.orders, frozenset(spec.gens)))
    assert h.edges == g.edges


def test_circulant_matches_the_element_loop():
    for N in range(4, 40):
        for S in ({1, 3}, {1, N // 2}, {2, N - 1, N + 3}):
            g = circulant(N, S)
            assert g.edges == _cayley_edges_oracle(g.cayley_spec), (N, S)


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
    assert table.rows(np.arange(spec.size)).tobytes() == chars.tobytes()
    assert table.eigenvalues.tobytes() == eigenvalues.tobytes()


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_generator_columns_and_rows_match_the_full_table(spec):
    # the check reads only gen_chars and a few rows; each must be the full
    # table's slice bit for bit, single rows included
    table = character_spectrum(spec)
    N = spec.size
    chars = table.rows(np.arange(N))
    gen_idx = [_index_of(spec.orders, s) for s in spec.gens]
    assert table.gen_chars.tobytes() == chars[:, gen_idx].tobytes()
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
        # m >= 8 with n = 1: numpy's column sums of the set-up are pairwise
        m, n = rng.integers(1, 14, size=2)
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


def test_real_characters_read_from_the_index_match_their_values():
    # the characters of a group do not depend on its generators: Z_N for
    # N = 3..40 and the product groups of SPECS
    specs = [CayleySpec((N,), ((1,), (N - 1,))) for N in range(3, 41)] + SPECS
    kinds = set()
    for spec in specs:
        table = character_spectrum(spec)
        numeric = np.max(np.abs(table.rows(np.arange(spec.size)).imag), axis=1) <= 1e-9
        real = table.real(list(range(spec.size)))
        assert np.array_equal(real, numeric), spec
        kinds.update(real)
    assert kinds == {True, False}


def _lp_rows_oracle(V):
    """The reference character LP A x = b, x >= 0, one generator's real and
    imaginary rows at a time: (2|S| + 1) x (d + 2)."""
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
    chars = table.rows(np.arange(spec.size))
    V = np.conj(chars[np.ix_(idxs, [_index_of(spec.orders, s) for s in spec.gens])])
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
    complex_only = all(np.max(np.abs(chars[k].imag)) > 1e-9 for k in support)
    return "certified", c, t, complex_only


def test_character_lp_matches_the_row_loop(monkeypatch):
    # the simplex over the row loop's system is the reference: each class
    # gets the reference's status with no simplex call from certify, and a
    # certified c gives sum_j c_j Re chi_j(s) the value t at every
    # generator (the LP's real rows; the kernel reads no imaginary part).
    # The specs add a class of several conjugate classes, circulant(12,
    # {1, 2, 4, 5}) at lambda_2, and the 15 characters of K_16
    calls = []
    monkeypatch.setattr(lp, "phase1_feasibility", lambda A, b: calls.append(1))
    assert not hasattr(certify, "phase1_feasibility")
    specs = SPECS + [circulant(N, {1, 3}).cayley_spec for N in range(4, 40)]
    specs += [circulant(12, {1, 2, 4, 5}).cayley_spec, circulant(16, set(range(1, 9))).cayley_spec]
    statuses = set()
    for spec in specs:
        table = character_spectrum(spec)
        for lam in table.eigenvalues:
            idxs = _characters_near(table, lam)
            res = abelian_lp_certificate(table, idxs)
            status, _, _, complex_only = _abelian_lp_oracle(spec, lam, table)
            assert res.status == status, (spec, lam)
            statuses.add(status)
            if status == "certified":
                values = res.coefficients @ table.gen_chars[idxs].real
                assert np.max(np.abs(values - res.t)) <= 1e-9, (spec, lam)
                # one conjugate class has one candidate c, the uniform one
                if len(idxs) == 1 or (len(idxs) == 2 and not any(table.real(idxs))):
                    assert res.complex_only == complex_only, (spec, lam)
    assert not calls
    assert statuses == {"certified", "not_in_polytope"}
