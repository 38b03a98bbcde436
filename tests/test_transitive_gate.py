"""An identity gate over small vertex-transitive graphs, as plain edge lists
(so the check finds each group by search): every end keeps the method
pinned here.

The graphs are the connected circulant(N, S) with N = 5..12 and |S| <= 3,
and the connected Cayley graphs Cay(D_n, S) of the dihedral groups with
n = 3..6 and S a union of up to three inverse-closed classes.  Their ends
cover the EdgeTransitive, CanonicalIsometric, Eigenvector, SdpGram and
Falsifier methods, and the Eigenvector ends have two edge orbits."""

import itertools
from collections import Counter

from confrigid.certify import check_conformal_rigidity
from confrigid.graphs import Graph, circulant, normalize_edges

_METHODS = {
    "ET": "EdgeTransitive",
    "CI": "CanonicalIsometric",
    "EV": "Eigenvector",
    "GR": "SdpGram",
    "F": "Falsifier",
}

# lower/upper per graph, in the order `_circulants` and `_dihedral_cayleys`
# list them, as computed before the Eigenvector stage read its vector off a
# k x k eigensolve
_CIRCULANT_METHODS = {
    5: "ET/ET ET/ET ET/ET",
    6: "ET/ET ET/ET ET/ET F/F ET/ET",
    7: "ET/ET ET/ET ET/ET F/F F/F F/F ET/ET",
    8: "ET/ET ET/ET F/F ET/ET F/F F/F F/F ET/ET F/F F/F F/F",
    9: "ET/ET ET/ET ET/ET F/CI F/F F/CI F/F F/CI F/F F/F ET/ET F/F F/F",
    10: "ET/ET ET/ET F/F ET/ET ET/ET F/CI ET/ET F/F F/F F/CI F/F F/F F/F F/F "
        "F/F ET/ET F/F F/F F/F F/F F/F",
    11: "ET/ET ET/ET ET/ET ET/ET ET/ET F/F F/F F/F F/F F/F F/F F/F F/F F/F F/F "
        "F/F F/F F/F F/F F/F F/F F/F F/F F/F F/F",
    12: "ET/ET ET/ET F/EV F/CI F/F ET/ET F/F EV/F F/EV F/F F/CI F/F F/F F/GR "
        "F/CI ET/ET F/F F/F ET/ET F/F F/CI GR/F F/F F/F F/GR F/F F/CI F/F F/F "
        "F/F F/F GR/F",
}
_DIHEDRAL_METHODS = {
    3: "F/F F/F F/F ET/ET ET/ET ET/ET ET/ET ET/ET ET/ET ET/ET",
    4: "ET/ET ET/ET ET/ET ET/ET ET/ET ET/ET ET/ET ET/ET F/F F/F F/F F/F F/F "
       "ET/ET F/F F/F ET/ET F/F F/F F/F F/F F/F ET/ET ET/ET ET/ET ET/ET",
    5: "F/F F/F F/F F/F F/F F/F F/F F/F F/F F/F ET/ET ET/ET ET/ET ET/ET ET/ET "
       "ET/ET ET/ET ET/ET ET/ET ET/ET F/F F/F F/F F/F F/F F/F ET/ET ET/ET F/F "
       "F/F ET/ET ET/ET F/F ET/ET F/F ET/ET F/F F/F ET/ET ET/ET F/F F/F ET/ET "
       "F/F ET/ET F/CI F/CI F/CI F/CI F/CI F/CI F/CI F/CI F/CI F/CI",
    6: "F/CI F/CI F/CI F/CI F/CI F/CI ET/ET ET/ET ET/ET ET/ET ET/ET ET/ET F/F "
       "F/F F/F F/F F/F F/F F/CI F/CI F/CI F/CI F/CI F/CI F/EV ET/ET EV/F "
       "ET/ET F/EV F/EV ET/ET EV/F ET/ET F/EV ET/ET EV/F F/EV ET/ET F/EV F/F "
       "F/F F/F F/F F/F F/F F/F F/F F/F F/F F/F F/F F/F F/F F/F F/F F/CI F/CI "
       "F/F F/F F/CI F/CI F/F F/CI F/F F/CI F/F F/CI F/CI F/CI F/CI F/CI F/CI "
       "F/CI F/CI F/CI F/CI F/CI F/CI F/CI F/CI F/CI F/CI F/CI F/CI",
}


def dihedral_cayley(n, gens):
    """Cay(D_n, gens) as a plain edge list.  The element r^i s^j is the pair
    (i, j) and the vertex i + n j, with s r = r^-1 s; each vertex x is joined
    to x g for every g in gens, which must be inverse-closed."""

    def times(x, y):
        (a, b), (c, d) = x, y
        return (a + (-c if b else c)) % n, (b + d) % 2

    def vertex(x):
        return x[0] + n * x[1]

    elements = itertools.product(range(n), (0, 1))
    edges = {tuple(sorted((vertex(x), vertex(times(x, g))))) for x in elements for g in gens}
    return Graph(2 * n, normalize_edges(2 * n, sorted(edges)))


def _circulants(n):
    for size in (1, 2, 3):
        for S in itertools.combinations(range(1, n // 2 + 1), size):
            c = circulant(n, set(S))
            g = Graph(c.n, c.edges)
            if g.is_connected():
                yield g


def _dihedral_cayleys(n):
    # the inverse-closed classes: {r^i, r^-i}, then each reflection r^i s alone
    classes = [{(i, 0), (-i % n, 0)} for i in range(1, n // 2 + 1)]
    classes += [{(i, 1)} for i in range(n)]
    for size in (1, 2, 3):
        for chosen in itertools.combinations(classes, size):
            g = dihedral_cayley(n, set().union(*chosen))
            if g.is_connected():
                yield g


def test_vertex_transitive_gate_keeps_every_method():
    tally = Counter()
    for source, pinned in ((_circulants, _CIRCULANT_METHODS), (_dihedral_cayleys, _DIHEDRAL_METHODS)):
        for n, row in pinned.items():
            cells = row.split()
            graphs = list(source(n))
            assert len(graphs) == len(cells), (source.__name__, n)
            for i, (g, cell) in enumerate(zip(graphs, cells)):
                rep = check_conformal_rigidity(g)
                want = [_METHODS[code] for code in cell.split("/")]
                got = [rep.lower.method, rep.upper.method]
                assert got == want, (source.__name__, n, i, g.edges)
                tally.update(got)
    assert sum(tally.values()) == 2 * 292
    assert tally == {
        "EdgeTransitive": 176,
        "Falsifier": 336,
        "CanonicalIsometric": 56,
        "Eigenvector": 12,
        "SdpGram": 4,
    }
