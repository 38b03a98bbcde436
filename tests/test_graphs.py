"""Graph containers, Cayley specs, products, and Laplacians."""

import numpy as np
import pytest

from confrigid.catalog import catalog
from confrigid.certify import CheckOptions, check_conformal_rigidity
from confrigid.errors import GeneratorError, WeightError
from confrigid.graphs import (
    CayleySpec,
    Graph,
    cartesian_product,
    cayley_abelian,
    circulant,
    laplacian,
    normalize_edges,
    parse_edge_list,
)
from confrigid.spectra import character_spectrum, lambda_ends


def test_normalize_edges_sorts_and_dedups():
    assert normalize_edges(4, [(3, 1), (1, 3), (0, 2)]) == ((0, 2), (1, 3))


def test_graph_rejects_loops_and_bad_indices():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 5),))


def test_degrees_and_regularity():
    g = Graph(4, normalize_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert g.degrees().tolist() == [2, 2, 2, 2]
    assert g.is_regular()
    assert g.is_connected()


def test_cayley_spec_requires_symmetry():
    with pytest.raises(GeneratorError):
        CayleySpec(orders=(5,), gens=frozenset({(1,)}))
    with pytest.raises(GeneratorError):
        CayleySpec(orders=(5,), gens=frozenset({(0,)}))


def test_cayley_spec_reduces_generators_mod_the_orders():
    # -1 is 5 in Z_6: the set is symmetric once reduced
    spec = CayleySpec(orders=(6,), gens=((1,), (-1,)))
    assert spec.gens == ((1,), (5,))
    assert cayley_abelian(spec).edges == circulant(6, {1}).edges


def test_cayley_spec_drops_repeated_generators():
    # 7 is 1 in Z_6; summed twice, the table's eigenvalues were {0, 1.5, 4.5, 6}
    spec = CayleySpec(orders=(6,), gens=((1,), (5,), (7,)))
    assert spec.gens == ((1,), (5,))
    g = cayley_abelian(spec)
    assert g.edges == circulant(6, {1}).edges
    lam = np.unique(np.round(character_spectrum(spec).eigenvalues, 9))
    assert lam.tolist() == [0.0, 1.0, 3.0, 4.0]
    opts = CheckOptions(skip_stages=frozenset({"edge_transitive"}))
    rep = check_conformal_rigidity(g, opts)
    assert (rep.lower.verdict, rep.upper.verdict) == ("certified", "certified")
    assert (rep.lower.method, rep.upper.method) == ("CharacterLP", "CharacterLP")


def test_cayley_spec_keeps_valid_generators_in_order():
    gens = ((0, 1), (2, 0), (1, 0), (0, 2))
    assert CayleySpec(orders=(3, 3), gens=gens).gens == gens
    as_set = frozenset(gens)
    assert CayleySpec(orders=(3, 3), gens=as_set).gens == tuple(as_set)


def test_circulant_structure():
    g = circulant(6, {1, 2})
    assert g.n == 6 and g.m == 12
    assert g.is_regular()
    assert g.cayley_spec is not None
    assert set(g.cayley_spec.gens) == {(1,), (5,), (2,), (4,)}


def test_circulant_matches_explicit_cayley():
    g1 = circulant(8, {1, 3})
    spec = CayleySpec(orders=(8,), gens=frozenset({(1,), (7,), (3,), (5,)}))
    g2 = cayley_abelian(spec)
    assert g1.edges == g2.edges


def test_cayley_z3xz3():
    spec = CayleySpec(
        orders=(3, 3),
        gens=frozenset({(1, 0), (2, 0), (0, 1), (0, 2)}),
    )
    g = cayley_abelian(spec)
    assert g.n == 9 and g.m == 18
    # the torus C3 x C3
    prod = cartesian_product(circulant(3, {1}), circulant(3, {1}))
    assert sorted(g.edges) == sorted(prod.edges)


def test_cartesian_product_counts():
    g = cartesian_product(circulant(4, {1}), circulant(3, {1}))
    assert g.n == 12
    assert g.m == 4 * 3 + 3 * 4  # |E(G)|*|V(H)| + |V(G)|*|E(H)|


def test_laplacian_rows_sum_to_zero():
    g = circulant(7, {1, 2})
    L = laplacian(g)
    assert np.allclose(L, L.T)
    assert np.allclose(L.sum(axis=1), 0.0)
    w = np.arange(1, g.m + 1, dtype=float)
    Lw = laplacian(g, w)
    assert np.allclose(Lw.sum(axis=1), 0.0)
    # bit for bit what a per-edge loop gives, zero weights included
    w = np.random.default_rng(0).exponential(size=g.m)
    w[::3] = 0.0
    ref = np.zeros((g.n, g.n))
    for (i, j), we in zip(g.edges, w):
        ref[i, j] -= we
        ref[j, i] -= we
        ref[i, i] += we
        ref[j, j] += we
    assert laplacian(g, w).tobytes() == ref.tobytes()
    # one weight per edge: a stack of rows is no weight vector
    with pytest.raises(WeightError, match="expected"):
        laplacian(g, np.stack([w, np.ones(g.m)]))
    assert laplacian(Graph(1, ())).tobytes() == np.zeros((1, 1)).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_rejected(bad):
    # NaN passes a w < 0 test, and +inf passes any sign test
    g = catalog("cycle_4")
    w = [bad, 1.0, 1.0, 1.0]
    for call in (
        lambda: laplacian(g, w),
        lambda: lambda_ends(g, w),
    ):
        with pytest.raises(WeightError, match="negative" if bad < 0 else "non-finite"):
            call()


def test_parse_edge_list():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    with pytest.raises(ValueError):
        parse_edge_list("4 2\n0 1\n")
    # blank lines are skipped; "1 0" names the edge "0 1"
    assert parse_edge_list("\n3 2\n\n1 0\n\n2 1\n\n").edges == ((0, 1), (1, 2))
    # the header's m must be the number of distinct edges: a triangle under
    # "3 2" is not read as the path P_3, nor a repeated edge as one line
    with pytest.raises(ValueError, match="header says 2 edges, but 3 edge lines follow"):
        parse_edge_list("3 2\n0 1\n1 2\n0 2\n")
    for text in ("3 3\n0 1\n1 2\n1 2\n", "3 3\n0 1\n1 2\n2 1\n"):
        with pytest.raises(ValueError, match="header says 3 edges, but the lines name 2 distinct"):
            parse_edge_list(text)
    # a malformed line is named by its number, blank lines counted, and quoted
    for text, message in (
        ("3\n0 1\n", "line 1: the header \"n m\" must be two integers, got '3'"),
        ("\n3 2\n\n0 1 5\n1 2\n", "line 4: an edge line \"i j\" must be two integers, got '0 1 5'"),
        ("3 2\n0 1\n1 x\n", "line 3: an edge line \"i j\" must be two integers, got '1 x'"),
    ):
        with pytest.raises(ValueError) as err:
            parse_edge_list(text)
        assert str(err.value) == message
