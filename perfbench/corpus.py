"""Workload inputs, generated from the benchmark seed.

The seed drives the G(n, M) draws and the vertex numberings only: each pass
of a run draws its random graphs afresh and checks the fixed graphs under a
fresh numbering, both from (seed, pass).
The program under test receives plain ``Graph`` objects and its default
``CheckOptions`` (its own seed stays 0).

Each item carries a ``truth``: ``"rigid"`` (both ends must be certified),
``"never_certified"`` (no end may be certified) or ``None`` (only the
certificates and witnesses are rechecked).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from confrigid.catalog import catalog
from confrigid.graphs import Graph, cartesian_product, circulant, normalize_edges

# Catalog graphs with large automorphism groups.  The edge-transitive ones
# are rigid at both ends; hoffman and shrikhande_complement are 1-walk-regular
# but not edge-transitive, which is also enough for rigidity at both ends.
SYMMETRIC_CATALOG = (
    ("petersen", "rigid"),
    ("hoffman", "rigid"),
    ("shrikhande_complement", "rigid"),
    ("hypercube_4", "rigid"),
    ("complete_7", "rigid"),
    ("complete_bipartite_4_5", "rigid"),
    ("cycle_48", "rigid"),
)

# Orders of the asymmetric workload's random graphs.  Each is uniform among
# graphs with exactly round(MEAN_DEGREE * n / 2) edges (G(n, M), G(n, p) with
# the edge count fixed), so its cost swings less with the draw; a draw that
# is not connected is drawn again.  Every pass draws them afresh, so a run's
# latencies cover several draws of each order rather than one.
RANDOM_ORDERS = (12, 16, 20, 24, 28, 32, 36, 40)
MEAN_DEGREE = 4.5

# `confrigid family FAMILY_START FAMILY_END`: the circulants Cay(Z_3n, {1, n-1}).
FAMILY_START, FAMILY_END = 6, 24


@dataclass(frozen=True)
class Item:
    """One check of a workload: a graph for `check_conformal_rigidity`, or
    the `n` of one `confrigid family n n --json` call.  A random graph is
    given by its order alone until `numbered` draws it for a pass."""

    id: str
    graph: Graph | None = None
    family_n: int | None = None
    truth: str | None = None
    random_order: int | None = None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def relabel(g: Graph, rng: np.random.Generator) -> Graph:
    """The same graph under a uniformly random vertex numbering."""
    perm = rng.permutation(g.n)
    edges = normalize_edges(g.n, [(int(perm[i]), int(perm[j])) for i, j in g.edges])
    return Graph(g.n, edges, name=g.name)


def connected_gnm(n: int, rng: np.random.Generator) -> Graph:
    """A connected G(n, M) draw with M = round(MEAN_DEGREE * n / 2)."""
    iu, ju = np.triu_indices(n, k=1)
    while True:
        keep = np.sort(rng.choice(len(iu), size=round(MEAN_DEGREE * n / 2), replace=False))
        edges = tuple(zip(iu[keep].tolist(), ju[keep].tolist()))
        g = Graph(n, edges, name=f"gnm_{n}")
        if g.is_connected():
            return g


def _two_orbit_graphs():
    """Vertex-transitive graphs with two edge orbits, as plain edge lists."""
    cay = circulant(18, {1, 5})  # rebuilt below without its Cayley spec
    prism = cartesian_product(catalog("petersen"), catalog("path_2"))
    return (
        Graph(cay.n, cay.edges, name="cay_z18_1_5"),
        Graph(prism.n, prism.edges, name="petersen_x_k2"),
    )


def symmetric(seed: int) -> list[Item]:
    del seed  # only the numbering, drawn per pass, depends on it
    items = [Item(name, catalog(name), truth=truth) for name, truth in SYMMETRIC_CATALOG]
    items += [Item(g.name, g) for g in _two_orbit_graphs()]
    return items


def asymmetric(seed: int) -> list[Item]:
    del seed  # the random graphs are drawn per pass
    items = [Item(f"gnm_{n}", random_order=n) for n in RANDOM_ORDERS]
    items += [Item(name, catalog(name), truth="never_certified")
              for name in ("path_20", "path_40", "triangular_prism")]
    return items


def family(seed: int) -> list[Item]:
    """The scan is issued one n at a time, so each graph's latency is seen;
    the rows are those of one `family FAMILY_START FAMILY_END` call.  The
    inputs do not depend on the seed."""
    del seed
    return [Item(f"family_{n}", family_n=n) for n in range(FAMILY_START, FAMILY_END + 1)]


def numbered(items: list[Item], seed: int, pass_index: int) -> list[Item]:
    """The items of one pass: every random graph drawn afresh and every
    other graph under a fresh random numbering.  Verdicts and costs that
    depend on the numbering or the draw then vary between passes, and a run
    reports their median over them."""
    rng = _rng(seed, 1 + pass_index)

    def draw(item: Item) -> Item:
        if item.random_order is not None:
            return replace(item, graph=connected_gnm(item.random_order, rng))
        if item.graph is not None:
            return replace(item, graph=relabel(item.graph, rng))
        return item

    return [draw(item) for item in items]


WORKLOADS = {"symmetric": symmetric, "asymmetric": asymmetric, "family": family}


def warmup_items() -> list[Item]:
    """Small checks run before timing: one certified at both ends, one
    refuted, and one family row.  The checker's self-test reuses them."""
    return [
        Item("petersen", catalog("petersen"), truth="rigid"),
        Item("triangular_prism", catalog("triangular_prism"), truth="never_certified"),
        Item("family_6", family_n=6),
    ]
