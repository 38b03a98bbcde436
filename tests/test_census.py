"""Every connected graph on 2 to 6 vertices is decided at both spectrum
ends, with the same verdict and method under a random relabelling, and
every verdict passes a recheck made with numpy alone.  The graphs are
generated here: all edge sets, deduplicated by a brute-force canonical form
(the least edge bitmask over all vertex permutations)."""

import itertools

import numpy as np
import pytest

from confrigid.catalog import catalog
from confrigid.certify import CheckOptions, check_conformal_rigidity
from confrigid.graphs import Graph, circulant, normalize_edges
from confrigid.symmetry import find_automorphisms

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


def _laplacian(n, edges, w=None):
    w = np.ones(len(edges)) if w is None else np.asarray(w, dtype=float)
    L = np.zeros((n, n))
    for (i, j), x in zip(edges, w):
        L[i, j] -= x
        L[j, i] -= x
        L[i, i] += x
        L[j, j] += x
    return L


def _recheck(g, rep):
    """Recheck both ends of rep from the graph alone.  A certificate's
    embedding P must lie in the eigenspace of a fresh eigvalsh end
    (L P = lambda P), be centred, and give every edge the same positive
    length, all within 1e-7; a witness w must be a weighting (w >= 0,
    sum w = m) whose fresh end beats the unit end by the relative margin
    1e-6."""
    L = _laplacian(g.n, g.edges)
    vals = np.linalg.eigvalsh(L)
    for er, k in ((rep.lower, 1), (rep.upper, -1)):
        lam = vals[k]
        if er.verdict == "certified":
            cert = er.certificate
            assert abs(cert.eigenvalue - lam) <= 1e-7 * (1.0 + lam), (g.edges, er.end)
            P = cert.embedding.points
            scale = max(1.0, float(np.max(np.abs(P))))
            assert np.max(np.abs(L @ P - lam * P)) <= 1e-7 * (1.0 + lam) * scale
            assert np.max(np.abs(P.sum(axis=0))) <= 1e-7 * g.n * scale
            ends = np.array(g.edges)
            lengths = np.linalg.norm(P[ends[:, 0]] - P[ends[:, 1]], axis=1)
            assert lengths.min() > 1e-7, (g.edges, er.end)
            assert np.ptp(lengths) <= 1e-7 * (1.0 + lengths.max()), (g.edges, er.end)
        elif er.verdict == "refuted":
            w = er.witness
            assert np.all(w >= 0.0) and abs(w.sum() - g.m) <= 1e-9 * g.m
            val = np.linalg.eigvalsh(_laplacian(g.n, g.edges, w))[k]
            if k == 1:
                assert val > lam * (1.0 + 1e-6), (g.edges, er.end)
            else:
                assert val < lam * (1.0 - 1e-6), (g.edges, er.end)


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
            _recheck(g, rep)
            _recheck(h, rep_h)
            for er, er_h in ((rep.lower, rep_h.lower), (rep.upper, rep_h.upper)):
                assert er.verdict in ("certified", "refuted"), (g.edges, er.end)
                assert (er_h.verdict, er_h.method) == (er.verdict, er.method), (
                    g.edges,
                    p.tolist(),
                    er.end,
                )
                decided += 1
    assert decided == 2 * sum(CONNECTED.values())


# (verdict, method) of an end, by its letter in PINNED
END_LABELS = {
    "E": ("certified", "EdgeTransitive"),
    "S": ("certified", "SdpGram"),
    "F": ("refuted", "Falsifier"),
}
# the letters of the lower and the upper end of every connected graph on n
# vertices, keyed by n and the graph's canonical edge bitmask
PINNED = {
    2: {1: "EE"},
    3: {3: "EE", 7: "EE"},
    4: {7: "EE", 13: "FF", 15: "FF", 30: "EE", 31: "FS", 63: "EE"},
    5: {15: "EE", 29: "FF", 31: "FF", 58: "FF", 59: "FF", 62: "FF", 63: "FF", 126: "EE",
        127: "FS", 185: "FF", 187: "FF", 191: "FF", 207: "FF", 220: "EE", 221: "FF",
        223: "FF", 254: "FF", 255: "FF", 495: "FS", 511: "FS", 1023: "EE"},
    6: {31: "EE", 61: "FF", 63: "FF", 121: "FF", 122: "FF", 123: "FF", 126: "FF",
        127: "FF", 246: "FF", 247: "FF", 254: "FF", 255: "FF", 510: "EE", 511: "FS",
        633: "FF", 635: "FF", 639: "FF", 659: "FF", 663: "FF", 671: "FF", 691: "FF",
        692: "FF", 693: "FF", 694: "FF", 695: "FF", 700: "FF", 701: "FF", 703: "FF",
        758: "FF", 759: "FF", 760: "FF", 761: "FF", 762: "FF", 763: "FF", 766: "FF",
        767: "FF", 922: "FF", 923: "FF", 926: "FF", 927: "FF", 954: "FF", 955: "FF",
        956: "FF", 957: "FF", 958: "FF", 959: "FF", 1022: "FF", 1023: "FF", 1749: "FF",
        1751: "FF", 1759: "FF", 1780: "FF", 1781: "FF", 1783: "FF", 1788: "FF",
        1789: "FF", 1791: "FF", 1880: "EE", 1881: "FF", 1883: "FF", 1884: "FF",
        1885: "FF", 1887: "FF", 1915: "FF", 1916: "FF", 1917: "FF", 1919: "FF",
        2012: "FF", 2013: "FF", 2014: "FF", 2015: "FF", 2046: "FF", 2047: "FF",
        4060: "EE", 4061: "FF", 4063: "FS", 4095: "FS", 5873: "FF", 5875: "FF",
        5879: "FF", 5887: "FF", 5907: "FF", 5911: "FF", 5919: "FF", 5941: "FF",
        5943: "FF", 5948: "FF", 5949: "FF", 5950: "FF", 5951: "FF", 6007: "FF",
        6010: "FF", 6011: "FF", 6014: "FF", 6015: "FF", 6142: "FF", 6143: "FF",
        6654: "FF", 6655: "FF", 7071: "FF", 7100: "FF", 7101: "FF", 7103: "FF",
        7166: "FF", 7167: "FF", 8157: "FF", 8159: "FF", 8191: "FF", 15870: "EE",
        15871: "FS", 16383: "FS", 32767: "EE"},
}


def test_every_small_connected_graph_keeps_its_verdicts_and_methods():
    got = {}
    for n in CONNECTED:
        index = {pair: bit for bit, pair in enumerate(itertools.combinations(range(n), 2))}
        for g in _connected_graphs(n):
            rep = check_conformal_rigidity(g)
            mask = sum(1 << index[e] for e in g.edges)
            got[n, mask] = [(er.verdict, er.method) for er in (rep.lower, rep.upper)]
    want = {
        (n, mask): [END_LABELS[c] for c in ends]
        for n, row in PINNED.items()
        for mask, ends in row.items()
    }
    assert got == want


@pytest.mark.parametrize(
    "g, group_tol",
    [(catalog("path_40"), 0.01), (catalog("path_40"), 0.3), (circulant(30, {1, 2}), 0.3)],
    ids=["path_40-0.01", "path_40-0.3", "circulant_30_1_2-0.3"],
)
def test_coarse_group_tol_keeps_the_kernel_apart(g, group_tol):
    # the reported lambda_2 is that of a grouping that keeps the kernel
    # apart: the mean of the first group of the spectrum above 0, however
    # coarse, which spans at most group_tol from its smallest value;
    # whatever the check decides there passes the recheck
    rep = check_conformal_rigidity(g, CheckOptions(group_tol=group_tol))
    vals = np.linalg.eigvalsh(_laplacian(g.n, g.edges))[1:]
    lam2 = np.mean(vals[vals - vals[0] <= group_tol])
    assert rep.lambda2 == pytest.approx(lam2, rel=1e-9)
    _recheck(g, rep)


def test_coarse_group_tol_refutes_path_40_at_both_ends():
    # group_tol = 0.3 spans the 39 nonzero eigenvalues of path_40 in one
    # chain of gaps; bounded groups keep lambda_2's group to the 7 values
    # within 0.3 of its smallest, and the falsifier starts from that raw
    # value, so both ends are refuted as at the default group_tol
    g = catalog("path_40")
    rep = check_conformal_rigidity(g, CheckOptions(group_tol=0.3))
    vals = np.linalg.eigvalsh(_laplacian(g.n, g.edges))
    assert rep.lambda2 == pytest.approx(np.mean(vals[1:8]), rel=1e-9)
    for er, k in ((rep.lower, 1), (rep.upper, -1)):
        assert (er.verdict, er.method) == ("refuted", "Falsifier")
        assert er.residuals["falsifier_unit"] == pytest.approx(vals[k], rel=1e-9)
    _recheck(g, rep)


def test_lazy_group_gives_the_report_of_an_eager_group():
    # the group built only where an end reads it, against the same group
    # supplied up front: the same verdicts, methods and certificates, and
    # witnesses that moved only by rounding (per-edge values where the
    # eager group gives block means at a simple eigenvalue)
    graphs = [g for n in CONNECTED for g in _connected_graphs(n)]
    graphs += [catalog(name) for name in ("path_20", "path_40", "triangular_prism")]
    for g in graphs:
        lazy = check_conformal_rigidity(g).to_json_dict()
        eager = check_conformal_rigidity(
            g, CheckOptions(generators=find_automorphisms(g))
        ).to_json_dict()
        for end in ("lower", "upper"):
            a, b = lazy[end], eager[end]
            assert (a["verdict"], a["method"]) == (b["verdict"], b["method"]), g.edges
            assert a["certificate"] == b["certificate"], g.edges
            assert (a["witness"] is None) == (b["witness"] is None)
            if a["witness"] is not None:
                np.testing.assert_allclose(a["witness"], b["witness"], rtol=0, atol=1e-12)
