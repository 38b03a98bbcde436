"""Graph containers, Cayley specs, products, and Laplacians."""

import numpy as np
import pytest

from confrigid.errors import GeneratorError, WeightError
from confrigid.graphs import (
    CayleySpec,
    Graph,
    cartesian_product,
    cayley_abelian,
    circulant,
    laplacian,
    normalize_edges,
    normalized_weights,
    parse_edge_list,
)


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


def test_normalized_weights_scale_and_reject():
    g = circulant(5, {1})
    w = normalized_weights(g, [1, 2, 3, 4, 5])
    assert w.sum() == pytest.approx(g.m)
    with pytest.raises(WeightError):
        normalized_weights(g, [-1, 1, 1, 1, 1])
    with pytest.raises(WeightError):
        normalized_weights(g, [0, 0, 0, 0, 0])


def test_parse_edge_list():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    with pytest.raises(ValueError):
        parse_edge_list("4 2\n0 1\n")
