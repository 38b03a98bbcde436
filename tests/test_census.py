"""Every connected graph on 2 to 6 vertices is decided at both spectrum
ends, with the same verdict and method under a random relabelling.  The
graphs are generated here: all edge sets, deduplicated by a brute-force
canonical form (the least edge bitmask over all vertex permutations)."""

import itertools

import numpy as np

from confrigid.certify import check_conformal_rigidity
from confrigid.graphs import Graph, normalize_edges

# connected graphs on n = 2..6 vertices (OEIS A001349)
CONNECTED = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def _connected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: bit for bit, pair in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    # weight of edge bit b under permutation p: the bit of p's image of b
    image = np.array(
        [[1 << index[tuple(sorted((p[i], p[j])))] for i, j in pairs] for p in perms]
    )
    masks = np.arange(1 << len(pairs))
    bits = (masks[:, None] >> np.arange(len(pairs))) & 1
    canon = masks.copy()
    for chunk in np.array_split(image, -(-len(perms) // 120)):
        canon = np.minimum(canon, (bits @ chunk.T).min(axis=1))
    graphs = []
    for mask in np.unique(canon):
        g = Graph(n, tuple(pair for bit, pair in enumerate(pairs) if mask >> bit & 1))
        if g.is_connected():
            graphs.append(g)
    return graphs


def test_every_small_connected_graph_is_decided():
    decided = 0
    rng = np.random.default_rng(0)
    for n, count in CONNECTED.items():
        graphs = _connected_graphs(n)
        assert len(graphs) == count, n
        for g in graphs:
            rep = check_conformal_rigidity(g)
            p = rng.permutation(n)
            h = Graph(n, normalize_edges(n, [(p[i], p[j]) for i, j in g.edges]))
            rep_h = check_conformal_rigidity(h)
            for er, er_h in ((rep.lower, rep_h.lower), (rep.upper, rep_h.upper)):
                assert er.verdict in ("certified", "refuted"), (g.edges, er.end)
                assert (er_h.verdict, er_h.method) == (er.verdict, er.method), (
                    g.edges,
                    p.tolist(),
                    er.end,
                )
                decided += 1
    assert decided == 2 * sum(CONNECTED.values())
