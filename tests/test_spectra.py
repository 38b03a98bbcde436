"""Eigendecomposition grouping, character spectra, and circulant extremes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confrigid.catalog import catalog
from confrigid.errors import EigenvalueError, NotSymmetricError
from confrigid.graphs import CayleySpec, circulant, laplacian
from confrigid.spectra import (
    _group,
    character_eigenspaces,
    character_spectrum,
    circulant_curve_extremes,
    eigendecompose,
    lambda_ends,
)

SQRT2 = np.sqrt(2.0)


def test_path4_spectrum_exact():
    dec = eigendecompose(laplacian(catalog("path_4")))
    expected = [0.0, 2.0 - SQRT2, 2.0, 2.0 + SQRT2]
    assert len(dec.eigenvalues) == 4
    for got, want in zip(dec.eigenvalues, expected):
        assert abs(got - want) <= 1e-9


def test_grouping_merges_multiplicities():
    dec = eigendecompose(laplacian(catalog("complete_4")))
    assert list(dec.eigenvalues) == pytest.approx([0.0, 4.0])
    assert list(dec.multiplicities) == [1, 3]
    U = dec.basis_for(4.0)
    assert U.shape == (4, 3)
    assert np.allclose(U.T @ U, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_is_near_no_eigenvalue(value):
    dec = eigendecompose(laplacian(catalog("petersen")))
    for lookup in (dec.index_of, dec.basis_for):
        with pytest.raises(EigenvalueError, match=f"no eigenvalue near {value}$"):
            lookup(float(value))


def test_nonsymmetric_rejected():
    with pytest.raises(NotSymmetricError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("seed", range(3))
def test_exactly_symmetric_matrix_goes_to_eigh_as_it_is(seed, monkeypatch):
    a = np.random.default_rng(seed).standard_normal((12, 12))
    M = a + a.T  # exactly symmetric: a float sum commutes
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: seen.append(A) or eigh(A))
    dec = eigendecompose(M)
    assert len(seen) == 1 and seen[0] is M  # no (M + M.T) / 2 copy
    vals, vecs = eigh(M)
    assert np.array_equal(dec.raw_eigenvalues, vals)
    assert np.array_equal(np.concatenate(dec.bases, axis=1), vecs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_rejected(bad):
    # a symmetric pair of infinities passes np.allclose (its atol becomes
    # inf), and eigh then returns NaN eigenvalues
    with pytest.raises(NotSymmetricError, match=r"non-finite entries at \[\[0, 1\], \[1, 0\]\]$"):
        eigendecompose(np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(NotSymmetricError, match=r"non-finite entries at \[\[1, 1\]\]$"):
        eigendecompose(np.array([[1.0, 0.0], [0.0, bad]]))


def test_lambda_ends_unit_and_weighted():
    g = catalog("cycle_4")
    lam2, lamn = lambda_ends(g)
    assert lam2 == pytest.approx(2.0)
    assert lamn == pytest.approx(4.0)
    # collapsing one edge weight lowers connectivity
    w = np.array([0.1, 1.3, 1.3, 1.3])
    lam2w, _ = lambda_ends(g, w)
    assert lam2w < lam2


def test_character_spectrum_matches_eigh():
    for spec in (
        circulant(9, {1, 2}).cayley_spec,
        CayleySpec(orders=(2, 4), gens=((1, 0), (0, 1), (0, 3))),
    ):
        table = character_spectrum(spec)
        from confrigid.graphs import cayley_abelian

        g = cayley_abelian(spec)
        want = np.linalg.eigvalsh(laplacian(g))
        got = np.sort(table.eigenvalues)
        assert np.allclose(got, want, atol=1e-9)


def test_characters_are_laplacian_eigenvectors():
    g = circulant(12, {1, 4})
    table = character_spectrum(g.cayley_spec)
    L = laplacian(g)
    for k, chi in enumerate(table.rows(np.arange(g.n))):
        assert np.max(np.abs(L @ chi - table.eigenvalues[k] * chi)) < 1e-9 * g.n


def test_character_eigenspaces_partition():
    # the classes of the characters are the dense eigenspaces: one class per
    # eigenvalue, of its multiplicity, and together every character once
    g = circulant(10, {1, 3})
    table = character_spectrum(g.cayley_spec)
    dec = eigendecompose(laplacian(g))
    means, order, cuts = character_eigenspaces(table, dec.group_tol)
    assert np.allclose(means, dec.eigenvalues, rtol=0.0, atol=1e-12)
    assert np.diff(cuts).tolist() == dec.multiplicities.tolist()
    assert sorted(order.tolist()) == list(range(g.n))
    for lam, a, b in zip(means, cuts[:-1], cuts[1:]):
        assert np.all(np.abs(table.eigenvalues[order[a:b]] - lam) <= 1e-12)


@pytest.mark.parametrize("tol", [1e-10, 0.01, 0.3, 10.0])
def test_kernel_is_its_own_group(tol):
    # however coarse group_tol is, the smallest eigenvalue is a group of
    # its own, in the dense grouping and in the characters' grouping; above
    # it each group takes, from its smallest value, every value within tol
    g = circulant(30, {1, 2})
    vals = np.linalg.eigvalsh(laplacian(g))
    groups, first = 0, -np.inf
    for v in vals[1:]:
        if v - first > tol:
            groups, first = groups + 1, v
    dec = eigendecompose(laplacian(g), group_tol=tol)
    means, _, cuts = character_eigenspaces(character_spectrum(g.cayley_spec), tol)
    for got, mults in ((dec.eigenvalues, dec.multiplicities), (means, np.diff(cuts))):
        assert mults[0] == 1 and abs(got[0]) <= 1e-12
        assert mults.sum() == g.n
        assert len(got) == 1 + groups
    p40 = eigendecompose(laplacian(catalog("path_40")), group_tol=tol)
    assert p40.multiplicities[0] == 1
    assert p40.eigenvalues[0] == p40.raw_eigenvalues[0]
    if tol <= 0.01:  # the gap lambda_3 - lambda_2 of path_40 is 0.018
        assert p40.eigenvalues[1] == pytest.approx(2.0 - 2.0 * np.cos(np.pi / 40), rel=1e-9)


def _two_pass_group(vals, group_tol):
    """The reference grouping, in two passes: cut wherever consecutive
    values differ by more than group_tol (and after vals[0]), then split
    each chain that spans more than group_tol greedily from its first
    value.  Means as `_group` forms them."""
    breaks = np.diff(vals) > group_tol
    breaks[:1] = True
    cuts = np.concatenate(([0], np.flatnonzero(breaks) + 1, [len(vals)]))
    mults = np.diff(cuts)
    big = np.flatnonzero(mults > 2).tolist()
    bounds = cuts.tolist()
    splits = []
    for k in big:
        a, b = bounds[k], bounds[k + 1]
        while vals[b - 1] - vals[a] > group_tol:
            a += int(np.argmax(vals[a:b] - vals[a] > group_tol))
            splits.append(a)
    if splits:
        cuts = np.union1d(cuts, splits)
        mults = np.diff(cuts)
        big = np.flatnonzero(mults > 2).tolist()
        bounds = cuts.tolist()
    starts = cuts[:-1]
    means = vals[starts]
    pair = mults == 2
    means[pair] = (vals[starts[pair]] + vals[starts[pair] + 1]) / 2
    for k in big:
        a, b = bounds[k], bounds[k + 1]
        means[k] = np.add.reduce(vals[a:b]) / (b - a)
    return cuts, means


# steps between consecutive values, in units of group_tol: exact ties, just
# below, at and just above group_tol, and wide gaps
NEAR_TIE_STEPS = np.array([0.0, 0.3, 0.999999, 1.0, 1.000001, 1.7, 40.0])


def _near_tie_spectrum(rng):
    """Ascending values of length 1..39 from NEAR_TIE_STEPS, at a random
    offset and a group_tol in [1e-12, 1]."""
    n = int(rng.integers(1, 40))
    group_tol = 10.0 ** rng.uniform(-12, 0)
    steps = NEAR_TIE_STEPS[rng.integers(0, len(NEAR_TIE_STEPS), size=n)] * group_tol
    steps[0] = (0.0, 1.0, 8.0)[int(rng.integers(3))] * rng.uniform(-1.0, 1.0)
    return np.cumsum(steps), group_tol


def test_greedy_grouping_matches_the_two_pass_rule():
    rng = np.random.default_rng(2026)
    for _ in range(20_000):
        vals, group_tol = _near_tie_spectrum(rng)
        cuts, means = _group(vals, group_tol)
        want_cuts, want_means = _two_pass_group(vals, group_tol)
        assert cuts.tolist() == want_cuts.tolist(), (vals.tolist(), group_tol)
        assert means.tobytes() == want_means.tobytes(), (vals.tolist(), group_tol)
        # the rule itself: vals[0] alone, no group spans more than group_tol,
        # and each later group starts at the first value more than group_tol
        # above the previous group's first value
        assert cuts[:2].tolist() == [0, 1]
        starts, ends = cuts[:-1], cuts[1:] - 1
        assert np.all(vals[ends[1:]] - vals[starts[1:]] <= group_tol)
        assert np.all(vals[starts[2:]] - vals[starts[1:-1]] > group_tol)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=6, max_value=30))
def test_circulant_extremes_formula(n):
    kmin, kmax = circulant_curve_extremes(n)
    assert kmin == 3
    assert kmax == 3 * (n // 2)


def test_circulant_extremes_against_spectrum():
    # argmin over k>0 and argmax of the character eigenvalues, up to conjugacy
    for n in (6, 7, 30):
        N = 3 * n
        g = circulant(N, {1, n - 1})
        table = character_spectrum(g.cayley_spec)
        lams = table.eigenvalues
        kmin, kmax = circulant_curve_extremes(n)
        nz = lams[1:]
        assert lams[kmin] == pytest.approx(np.min(nz), abs=1e-9)
        assert lams[kmax] == pytest.approx(np.max(lams), abs=1e-9)


def test_circulant_extremes_range_check():
    with pytest.raises(ValueError):
        circulant_curve_extremes(5)
