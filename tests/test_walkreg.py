"""Walk regularity vs the spherical/edge-isometric canonical-embedding test
and vs the character-table test of abelian Cayley graphs."""

import tracemalloc

import numpy as np
import pytest
from test_symmetry import _relabelled

from confrigid import certify, walkreg
from confrigid.catalog import catalog
from confrigid.certify import CheckOptions, check_conformal_rigidity
from confrigid.errors import NotRegularError
from confrigid.graphs import (
    CayleySpec,
    Graph,
    cartesian_product,
    cayley_abelian,
    circulant,
    laplacian,
    normalize_edges,
)
from confrigid.spectra import (
    character_eigenspaces,
    character_spectrum,
    character_walk1,
    default_group_tol,
    eigendecompose,
    resolve_group_tol,
)
from confrigid.walkreg import canonical_walk1_check, walk_regularity


def test_requires_regular():
    with pytest.raises(NotRegularError):
        walk_regularity(catalog("path_4"))


@pytest.mark.parametrize(
    "name,walk1",
    [
        ("petersen", True),
        ("hoffman", True),
        ("shrikhande_complement", True),
        ("triangular_prism", False),
        ("complete_4", True),
        ("cycle_6", True),
        ("hypercube_4", True),
    ],
)
def test_known_walk1_flags(name, walk1):
    rep = walk_regularity(catalog(name))
    assert rep.walk1 is walk1
    assert rep.walk0 or not walk1  # 1-walk-regular implies 0-walk-regular


def test_circulant_family_walk1_pattern():
    # within the family on Z_3n with connection set {1, n-1}: 1-walk-regular
    # exactly when n = -1 mod 3
    for n in range(6, 13):
        rep = walk_regularity(circulant(3 * n, {1, n - 1}))
        assert rep.walk1 is (n % 3 == 2), n


def test_agrees_with_canonical_check_on_catalog():
    for name in (
        "petersen",
        "hoffman",
        "triangular_prism",
        "cycle_5",
        "complete_5",
        "hypercube_3",
        "shrikhande_complement",
    ):
        g = catalog(name)
        dec = eigendecompose(laplacian(g))
        assert walk_regularity(g).walk1 == canonical_walk1_check(g, dec), name


def _complement_of_cycle(n):
    far = [(i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1)]
    return Graph(n, normalize_edges(n, far), name=f"complement_cycle_{n}")


def _batching_corpus():
    """Sparse and dense graphs, 1-walk-regular or not, each as built and
    under one seeded relabelling."""
    graphs = [
        catalog("cycle_48"),
        catalog("hypercube_6"),
        catalog("complete_bipartite_6_6"),
        _complement_of_cycle(12),
        cartesian_product(catalog("petersen"), catalog("complete_2")),
    ]
    return [h for g in graphs for h in (g, _relabelled(g, seed=3))]


@pytest.mark.parametrize("squares", [0, 1, None, 10**6])
def test_batched_check_agrees_with_walk_counts(monkeypatch, squares):
    # None keeps the module's budget; 0 sends every eigenspace through its
    # projector and 10**6 puts all of them in one batch
    if squares is not None:
        monkeypatch.setattr(walkreg, "BATCH_SQUARES", squares)
    seen = set()
    for g in _batching_corpus():
        dec = eigendecompose(g.unit_laplacian)
        walk1 = walk_regularity(g).walk1
        assert canonical_walk1_check(g, dec) == walk1, g.name
        seen.add(walk1)
    assert seen == {True, False}


def test_batches_stay_within_the_budget(monkeypatch):
    # shrikhande_complement's eigenspaces (1, 9 and 6 columns, 88 pairs)
    # fill two batches; K_{60,60}'s middle one is too wide for any
    sizes = []
    batch = walkreg._batch_walk1

    def recording(pairs, cuts, bases):
        sizes.append(len(pairs) * sum(B.shape[1] for B in bases))
        return batch(pairs, cuts, bases)

    monkeypatch.setattr(walkreg, "_batch_walk1", recording)
    for name, batches in (("shrikhande_complement", 2), ("complete_bipartite_60_60", 2)):
        g = catalog(name)
        sizes.clear()
        assert canonical_walk1_check(g, eigendecompose(g.unit_laplacian))
        assert len(sizes) == batches
        assert max(sizes) <= walkreg.BATCH_SQUARES * g.n**2


def test_batched_check_memory_stays_within_a_projector():
    # K_{60,60}'s eigenspace of multiplicity 118 is too wide for a batch and
    # gets its 120 x 120 projector (about 0.25 MB traced at the peak); one
    # product over all 120 columns would reach about 7 MB
    g = catalog("complete_bipartite_60_60")
    dec = eigendecompose(g.unit_laplacian)
    assert canonical_walk1_check(g, dec)  # builds the cached edge array
    tracemalloc.start()
    try:
        assert canonical_walk1_check(g, dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_agrees_on_random_circulants():
    rng = np.random.default_rng(7)
    for _ in range(25):
        N = int(rng.integers(4, 37))
        ks = rng.choice(np.arange(1, N // 2 + 1), size=min(2, N // 2), replace=False)
        g = circulant(N, set(int(k) for k in ks))
        if not g.is_connected():
            continue
        dec = eigendecompose(laplacian(g))
        assert walk_regularity(g).walk1 == canonical_walk1_check(g, dec), g.name


MULTI_FACTOR_SPECS = [
    CayleySpec((3, 3), ((1, 0), (2, 0), (0, 1), (0, 2))),
    CayleySpec((3, 3), ((1, 0), (2, 0), (1, 1), (2, 2))),
    CayleySpec((2, 4), ((1, 0), (0, 1), (0, 3))),
    CayleySpec((2, 4), ((1, 1), (1, 3), (1, 0))),
    CayleySpec((2, 2, 3), ((1, 0, 0), (0, 1, 1), (0, 1, 2), (1, 1, 0))),
    CayleySpec((4, 4), ((1, 0), (3, 0), (0, 1), (0, 3))),
    CayleySpec((4, 4), ((1, 0), (3, 0), (1, 1), (3, 3))),
]


def _cayley_corpus():
    """Every connected circulant(N, {a, b}), N <= 24, and multi-factor specs."""
    for N in range(4, 25):
        for a in range(1, N // 2 + 1):
            for b in range(a + 1, N // 2 + 1):
                g = circulant(N, {a, b})
                if g.is_connected():
                    yield g
    for spec in MULTI_FACTOR_SPECS:
        g = cayley_abelian(spec)
        assert g.is_connected()
        yield g


def _character_ends(g, group_tol=None):
    """lambda_2, lambda_n and walk1 from the character table alone."""
    table = character_spectrum(g.cayley_spec)
    values, order, cuts = character_eigenspaces(
        table, resolve_group_tol(g.unit_laplacian, group_tol)
    )
    return float(values[1]), float(values[-1]), character_walk1(table, order, cuts)


def test_character_table_agrees_with_walk_counts_and_projectors():
    seen = set()
    for g in _cayley_corpus():
        dec = eigendecompose(g.unit_laplacian)
        lam2, lamn, walk1 = _character_ends(g)
        assert walk1 == walk_regularity(g).walk1 == canonical_walk1_check(g, dec), g.name
        for got, want in ((lam2, dec.eigenvalues[1]), (lamn, dec.eigenvalues[-1])):
            assert abs(got - want) <= 1e-12 * (1.0 + want), g.name
        # the check reports the table's values on the Cayley path
        rep = check_conformal_rigidity(g)
        assert (rep.walk1, rep.lambda2, rep.lambda_max) == (walk1, lam2, lamn), g.name
        seen.add(walk1)
    assert seen == {True, False}


def test_group_tol_reaches_the_character_grouping(monkeypatch):
    # at group_tol 0.3 the top five eigenvalues of circulant(30, {1, 2})
    # merge, so lambda_n moves; the kernel is a group of its own at every
    # group_tol, so lambda_2 = 0.22 stays even where 0.3 exceeds it; the
    # table groups as the dense path does
    g = circulant(30, {1, 2})
    ends = set()
    for tol in (1e-10, 1e-3, 0.3):
        dec = eigendecompose(g.unit_laplacian, group_tol=tol)
        lam2, lamn, _ = _character_ends(g, tol)
        assert abs(lam2 - dec.eigenvalues[1]) <= 1e-12 * (1.0 + lam2)
        assert abs(lamn - dec.eigenvalues[-1]) <= 1e-12 * (1.0 + lamn)
        ends.add((round(lam2, 9), round(lamn, 9)))
    assert {lam2 for lam2, _ in ends} == {0.216613883}
    assert len(ends) == 2
    # the check hands its option, or the default, to the grouping
    tols = []
    grouping = certify.character_eigenspaces

    def recording(table, group_tol):
        tols.append(group_tol)
        return grouping(table, group_tol)

    monkeypatch.setattr(certify, "character_eigenspaces", recording)
    check_conformal_rigidity(g, CheckOptions(group_tol=1e-6))
    check_conformal_rigidity(g)
    assert tols == [1e-6, default_group_tol(g.unit_laplacian)]
    with pytest.raises(ValueError):
        check_conformal_rigidity(g, CheckOptions(group_tol=0.0))
