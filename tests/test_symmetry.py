"""Automorphism search, group closure, and orbit partitions."""

import itertools

import numpy as np
import pytest

from confrigid.catalog import catalog
from confrigid import symmetry
from confrigid.errors import GroupTooLargeError, NotAutomorphismError
from confrigid.graphs import CayleySpec, Graph, cayley_abelian, circulant, normalize_edges
from confrigid.symmetry import (
    PermutationSet,
    _orbit_blocks,
    _refine_colors,
    cayley_orbits,
    cayley_translations,
    compose,
    find_automorphisms,
    group_closure,
    group_order,
    orbits,
    parse_generators,
)
from test_census import CONNECTED, _connected_graphs
from test_falsify import _gnm


def _relabelled(g, seed=0):
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    return Graph(g.n, normalize_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges]))


def _refine_colors_by_adjacency(A):
    """Oracle: refinement by per-vertex signature tuples on the dense
    adjacency matrix, which `_refine_colors` must match colour for colour."""
    n = A.shape[0]
    deg = A.sum(axis=1)
    _, colors = np.unique(deg, return_inverse=True)
    while True:
        sigs = []
        for v in range(n):
            nbr = tuple(sorted(int(colors[u]) for u in range(n) if A[v, u]))
            sigs.append((int(colors[v]), nbr))
        palette = {s: c for c, s in enumerate(sorted(set(sigs)))}
        new = np.array([palette[s] for s in sigs], dtype=int)
        if np.array_equal(new, colors):
            return colors
        colors = new


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
    assert group_order(find_automorphisms(_relabelled(g))) == order


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


def test_group_closure_stops_at_the_cap(monkeypatch):
    p = find_automorphisms(catalog("complete_5"))
    assert group_order(p) == 120
    monkeypatch.setattr(symmetry, "GROUP_CAP", 100)
    with pytest.raises(GroupTooLargeError, match="cap 100"):
        group_closure(p)


def test_orbit_counts():
    g = catalog("hoffman")
    p = find_automorphisms(g)
    orb = orbits(g, p)
    assert orb.num_vertex_orbits == 3
    assert orb.num_edge_orbits == 2


def test_complete_bipartite_orbits():
    g = catalog("complete_bipartite_2_3")
    p = find_automorphisms(g)
    orb = orbits(g, p)
    assert orb.num_vertex_orbits == 2
    assert orb.num_edge_orbits == 1


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


def _product_specs():
    """Thirty seeded random symmetric generating sets over each of eight
    products of cyclic groups, the disconnected ones included."""
    rng = np.random.default_rng(20)
    for orders in ((2, 2), (2, 4), (3, 3), (4, 6), (2, 2, 2), (2, 2, 4), (3, 5), (2, 3, 4)):
        elems = [e for e in itertools.product(*(range(o) for o in orders)) if any(e)]
        for _ in range(30):
            picks = rng.choice(len(elems), size=rng.integers(1, min(4, len(elems)) + 1),
                               replace=False)
            gens = set()
            for k in picks.tolist():
                gens.add(elems[k])
                gens.add(tuple((-c) % o for c, o in zip(elems[k], orders)))
            yield CayleySpec(orders, tuple(sorted(gens)))


def test_cayley_orbits_match_the_translation_orbits():
    # every circulant with N = 3..40 and |S| <= 2 or N <= 18 and |S| = 3,
    # connected or not, and random product-group specs: the spec's orbits
    # are the DFS's
    graphs = [
        circulant(N, set(S))
        for N in range(3, 41)
        for k in ((1, 2, 3) if N <= 18 else (1, 2))
        for S in itertools.combinations(range(1, N // 2 + 1), k)
    ]
    graphs += [cayley_abelian(spec) for spec in _product_specs()]
    for g in graphs:
        want = orbits(g, cayley_translations(g.cayley_spec))
        assert cayley_orbits(g) == want, g.cayley_spec


def test_non_automorphism_rejected():
    g = catalog("path_4")
    bad = PermutationSet(n=4, gens=((1, 0, 2, 3),))
    # (0,1) maps to itself; (1,2) is the first edge it breaks, also after
    # the reflection, which is an automorphism
    for p in (bad, PermutationSet(n=4, gens=((3, 2, 1, 0),) + bad.gens)):
        with pytest.raises(NotAutomorphismError, match=r"edge \(1,2\) to non-edge \(0,2\)$"):
            orbits(g, p)


def _brute_force_group_order(g):
    """Oracle: the vertex permutations that map the edge set onto itself."""
    edges = set(g.edges)
    return sum(
        all(tuple(sorted((p[i], p[j]))) in edges for i, j in g.edges)
        for p in itertools.permutations(range(g.n))
    )


def test_group_orders_match_brute_force():
    # every connected graph with n <= 6, natural and relabelled: a pruned
    # search that skipped an orbit holding an automorphism loses group order
    for n in CONNECTED:
        for g in _connected_graphs(n):
            want = _brute_force_group_order(g)
            for h in (g, _relabelled(g, n)):
                p = find_automorphisms(h)
                assert not p.exhausted
                assert group_order(p) == want, h.edges


@pytest.mark.parametrize(
    "g",
    [catalog(name) for name in ("hoffman", "petersen", "path_5", "complete_bipartite_2_3")]
    + [_relabelled(circulant(12, {1, 4}), 3), _relabelled(catalog("hypercube_3"), 1)],
)
def test_edge_orbits_match_group_listing(g):
    # oracle: map every edge by every element of the listed group
    p = find_automorphisms(g)
    index = {e: k for k, e in enumerate(g.edges)}
    seen, blocks = set(), []
    elems = group_closure(p)
    for k, (i, j) in enumerate(g.edges):
        if k not in seen:
            block = sorted({index[tuple(sorted((s[i], s[j])))] for s in elems})
            seen.update(block)
            blocks.append(tuple(block))
    assert orbits(g, p).edge_orbits == tuple(blocks)


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


def _refinement_inputs():
    for n in CONNECTED:
        yield from _connected_graphs(n)
    yield catalog("path_40")
    for name in ("petersen", "hoffman", "shrikhande_complement", "hypercube_4",
                 "complete_bipartite_2_3", "triangular_prism", "cycle_12"):
        for seed in range(3):
            yield _relabelled(catalog(name), seed)
    yield Graph(3, ((0, 1),))  # an isolated vertex: a row of padding only
    yield Graph(1, ())


def test_refinement_matches_adjacency_oracle():
    for g in _refinement_inputs():
        want = _refine_colors_by_adjacency(g.adjacency())
        got = _refine_colors(g)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), g.edges


@pytest.mark.parametrize("name", ["hypercube_4", "petersen", "cycle_12"])
def test_refinement_of_regular_graph_runs_no_round(monkeypatch, name):
    # the unit partition of a regular graph is equitable: all zeros, with
    # no sort of the half-edges or the signatures
    g = _relabelled(catalog(name))
    want = _refine_colors_by_adjacency(g.adjacency())

    def no_sort(*args, **kwargs):
        raise AssertionError("refinement sorted on a regular graph")

    monkeypatch.setattr(np, "lexsort", no_sort)
    monkeypatch.setattr(np, "argsort", no_sort)
    got = _refine_colors(g)
    assert got.dtype == want.dtype and got.tolist() == [0] * g.n


# the vertex order, the candidate order and the orbit pruning decide each
# generator, so these pin the search tree
PINNED_GENERATORS = {
    "petersen": (
        (0, 1, 2, 9, 8, 5, 7, 6, 4, 3),
        (0, 1, 5, 3, 7, 2, 8, 4, 6, 9),
        (0, 2, 1, 6, 4, 5, 3, 9, 8, 7),
        (1, 0, 3, 2, 6, 9, 4, 7, 8, 5),
    ),
    "hoffman": (
        (0, 1, 4, 5, 2, 3, 15, 7, 14, 9, 10, 11, 12, 13, 8, 6),
        (0, 11, 6, 8, 15, 14, 2, 10, 3, 9, 7, 1, 13, 12, 5, 4),
        (0, 11, 15, 3, 6, 5, 4, 12, 8, 9, 13, 1, 7, 10, 14, 2),
        (3, 11, 13, 9, 15, 14, 2, 4, 0, 8, 7, 1, 6, 12, 5, 10),
    ),
    "cycle_12": (
        (0, 2, 1, 11, 10, 6, 5, 8, 7, 9, 4, 3),
        (1, 0, 5, 8, 7, 2, 10, 4, 3, 11, 6, 9),
    ),
    # two colour classes of different sizes, which steer the vertex order
    "complete_bipartite_4_5": (
        (0, 1, 2, 3, 4, 5, 6, 8, 7),
        (0, 1, 2, 7, 4, 5, 6, 3, 8),
        (0, 1, 2, 3, 4, 6, 5, 7, 8),
        (0, 3, 2, 1, 4, 5, 6, 7, 8),
        (0, 1, 2, 3, 5, 4, 6, 7, 8),
        (1, 0, 2, 3, 4, 5, 6, 7, 8),
        (0, 1, 4, 3, 2, 5, 6, 7, 8),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_GENERATORS))
def test_generators_pinned_under_relabelling(name):
    p = find_automorphisms(_relabelled(catalog(name)))
    assert not p.exhausted
    assert p.gens == PINNED_GENERATORS[name]


@pytest.mark.parametrize(
    "name,nodes",
    [
        ("petersen", 34),
        ("hoffman", 261),
        ("shrikhande_complement", 142),
        ("cycle_12", 23),
        ("hypercube_4", 73),
        ("complete_bipartite_4_5", 41),
        ("triangular_prism", 22),
    ],
)
def test_search_node_count_pinned(name, nodes):
    # the whole search takes exactly `nodes` candidate assignments: a budget
    # one short is exhausted.  Pruning by non-adjacency to the prefix and
    # failed-orbit pruning (no search into the orbit of a candidate whose
    # search failed) never change the generators found, only this count.
    g = _relabelled(catalog(name))
    assert not find_automorphisms(g, limit=nodes).exhausted
    assert find_automorphisms(g, limit=nodes - 1).exhausted


def test_exhausted_generators_pinned():
    p = find_automorphisms(catalog("hypercube_4"), limit=50)
    assert p.exhausted
    assert p.gens == (
        (0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15),
        (0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15),
        (0, 2, 1, 3, 4, 6, 5, 7, 8, 10, 9, 11, 12, 14, 13, 15),
    )


def test_asymmetric_graph_needs_no_search_nodes():
    # the smallest asymmetric graphs have 6 vertices; refinement separates
    # every vertex of this one, so not a single node is spent
    g = Graph(6, ((0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 5)))
    p = find_automorphisms(g, limit=0)
    assert p.gens == ()
    assert p.exhausted is False


@pytest.mark.parametrize("n, m, seed", [(10, 22, 0), (14, 31, 1), (18, 40, 2), (30, 60, 4)])
def test_trivial_group_orbits_match_the_dfs(n, m, seed):
    # with no generators the blocks are built directly; they must be the
    # singletons the DFS builds, and those of the identity as a generator
    g = _gnm(n, m, seed)
    trivial = orbits(g, PermutationSet(n=g.n, gens=()))
    assert trivial.vertex_orbits == _orbit_blocks(g.n, [])
    assert trivial.edge_orbits == _orbit_blocks(g.m, [])
    assert trivial == orbits(g, PermutationSet(n=g.n, gens=(tuple(range(g.n)),)))
    assert (trivial.num_vertex_orbits, trivial.num_edge_orbits) == (g.n, g.m)
    with pytest.raises(ValueError):
        orbits(g, PermutationSet(n=g.n + 1, gens=()))
