"""Automorphism search, group closure, and orbit partitions."""

import numpy as np
import pytest

from confrigid.catalog import catalog
from confrigid.errors import NotAutomorphismError
from confrigid.graphs import Graph, circulant, normalize_edges
from confrigid.symmetry import (
    PermutationSet,
    cayley_translations,
    compose,
    find_automorphisms,
    group_closure,
    group_order,
    is_edge_transitive,
    is_vertex_transitive,
    orbits,
    parse_generators,
)


def test_compose_order():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # (p o q)(i) = p[q[i]]
    assert compose(p, q) == (1, 0, 2)


@pytest.mark.parametrize(
    "name,order",
    [
        ("complete_4", 24),
        ("path_4", 2),
        ("cycle_6", 12),
        ("petersen", 120),
        ("hoffman", 48),
        ("hypercube_3", 48),
    ],
)
def test_known_group_orders(name, order):
    g = catalog(name)
    p = find_automorphisms(g)
    assert not p.exhausted
    assert len(p.gens) <= g.n - 1
    assert group_order(p) == order
    perm = np.random.default_rng(0).permutation(g.n).tolist()
    h = Graph(g.n, normalize_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges]))
    assert group_order(find_automorphisms(h)) == order


def test_hypercube_6_search_within_budget():
    g = catalog("hypercube_6")
    p = find_automorphisms(g)
    assert not p.exhausted
    orb = orbits(g, p)
    assert orb.num_vertex_orbits == 1
    assert orb.num_edge_orbits == 1


def test_exhausted_search_returns_automorphisms_found_so_far():
    g = catalog("hypercube_4")
    p = find_automorphisms(g, limit=50)
    assert p.exhausted
    assert p.gens
    orbits(g, p)  # raises NotAutomorphismError on a non-automorphism
    assert group_order(p) < 384


def test_orbit_counts():
    g = catalog("hoffman")
    p = find_automorphisms(g)
    orb = orbits(g, p)
    assert orb.num_vertex_orbits == 3
    assert orb.num_edge_orbits == 2
    assert not is_vertex_transitive(g, p)
    assert not is_edge_transitive(g, p)


def test_complete_bipartite_orbits():
    g = catalog("complete_bipartite_2_3")
    p = find_automorphisms(g)
    orb = orbits(g, p)
    assert orb.num_vertex_orbits == 2
    assert orb.num_edge_orbits == 1
    assert is_edge_transitive(g, p)


def test_cycle_rotation_is_transitive():
    g = catalog("cycle_6")
    rot = PermutationSet(n=6, gens=((1, 2, 3, 4, 5, 0),))
    orb = orbits(g, rot)
    assert orb.num_vertex_orbits == 1
    assert orb.num_edge_orbits == 1


def test_cayley_translations_circulant():
    g = circulant(18, {1, 5})
    p = cayley_translations(g.cayley_spec)
    assert group_order(p) == 18
    orb = orbits(g, p)
    assert orb.num_vertex_orbits == 1
    assert orb.num_edge_orbits == 2


def test_non_automorphism_rejected():
    g = catalog("path_4")
    bad = PermutationSet(n=4, gens=((1, 0, 2, 3),))
    with pytest.raises(NotAutomorphismError):
        orbits(g, bad)


def test_group_closure_is_a_group():
    g = catalog("complete_4")
    p = find_automorphisms(g)
    elems = group_closure(p)
    ids = set(elems)
    assert tuple(range(4)) in ids
    for a in elems[:6]:
        for b in elems[:6]:
            assert compose(a, b) in ids


def test_parse_generators_formats():
    p = parse_generators("1 0 2 3\n0,1,3,2\n", 4)
    assert p.gens == ((1, 0, 2, 3), (0, 1, 3, 2))
    with pytest.raises(ValueError):
        parse_generators("0 1\n", 4)
