"""Graph representation, constructors, and weighted Laplacian assembly.

Vertices are dense 0-based indices.  Group labels on Cayley graphs are
annotations only, never keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from . import graph6 as g6
from .errors import GeneratorError, WeightError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Edges are unordered pairs (i, j) with i < j, lexicographically sorted,
    without duplicates or loops.  Connectivity is not an invariant but is a
    precondition of every rigidity operation.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple | None = None
    name: str | None = None
    cayley_spec: "CayleySpec | None" = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        prev = None
        for e in self.edges:
            i, j = e
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge {e} for n={self.n}")
            if prev is not None and e <= prev:
                raise ValueError("edge list not sorted / has duplicates")
            prev = e

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def is_regular(self) -> bool:
        deg = self.degrees()
        return bool(np.all(deg == deg[0]))

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=int)
        for i, j in self.edges:
            A[i, j] = A[j, i] = 1
        return A

    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: k for k, e in enumerate(self.edges)}

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    count += 1
                    stack.append(u)
        return count == self.n


def normalize_edges(n: int, pairs) -> tuple[tuple[int, int], ...]:
    """Sort, orient i < j, and deduplicate an edge collection; drop loops are errors."""
    out = set()
    for i, j in pairs:
        if i == j:
            raise ValueError(f"loop at vertex {i}")
        if i > j:
            i, j = j, i
        if not (0 <= i < j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        out.add((i, j))
    return tuple(sorted(out))


@dataclass(frozen=True)
class CayleySpec:
    """Abelian group Z_{n1} x ... x Z_{nr} together with a symmetric generating set.

    Group elements are tuples; the generating set must be closed under
    negation and must not contain the identity.
    """

    orders: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.orders or any(o < 1 for o in self.orders):
            raise ValueError("orders must be positive")
        if not self.gens:
            raise GeneratorError("empty generating set")
        gens = set(self.gens)
        zero = tuple(0 for _ in self.orders)
        for s in gens:
            if len(s) != len(self.orders):
                raise GeneratorError(f"generator {s} has wrong arity")
            s = tuple(c % o for c, o in zip(s, self.orders))
            if s == zero:
                raise GeneratorError("identity element in generating set")
            if self.neg(s) not in gens:
                raise GeneratorError(f"generating set not symmetric: missing -{s}")

    @property
    def size(self) -> int:
        out = 1
        for o in self.orders:
            out *= o
        return out

    def neg(self, g: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-c) % o for c, o in zip(g, self.orders))

    def add(self, g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((a + b) % o for a, b, o in zip(g, h, self.orders))

    def elements(self) -> list[tuple[int, ...]]:
        """All group elements in mixed-radix order (last coordinate fastest)."""
        return [tuple(g) for g in iter_product(*(range(o) for o in self.orders))]

    def index_of(self, g: tuple[int, ...]) -> int:
        idx = 0
        for c, o in zip(g, self.orders):
            idx = idx * o + (c % o)
        return idx


def cayley_abelian(spec: CayleySpec, name: str | None = None) -> Graph:
    """Cayley graph of an abelian group: vertices enumerate the group in
    mixed-radix order, with an edge {g, g+s} for every generator s."""
    elems = spec.elements()
    pairs = []
    for g in elems:
        gi = spec.index_of(g)
        for s in spec.gens:
            hi = spec.index_of(spec.add(g, s))
            if gi != hi:
                pairs.append((gi, hi))
    return Graph(
        n=spec.size,
        edges=normalize_edges(spec.size, pairs),
        labels=tuple(elems),
        name=name,
        cayley_spec=spec,
    )


def circulant(N: int, S) -> Graph:
    """Circulant graph Cay(Z_N, S).  S is symmetrized internally."""
    if N < 3:
        raise ValueError("circulant needs N >= 3")
    residues = set()
    for s in S:
        s = s % N
        if s == 0:
            raise GeneratorError("identity element in generating set")
        residues.add(s)
        residues.add((-s) % N)
    if not residues:
        raise GeneratorError("empty generating set")
    spec = CayleySpec(orders=(N,), gens=tuple((s,) for s in sorted(residues)))
    g = cayley_abelian(spec)
    half = sorted(s for s in residues if s <= N - s)
    return Graph(
        n=g.n,
        edges=g.edges,
        labels=tuple(range(N)),
        name=f"circulant_{N}_{','.join(map(str, half))}",
        cayley_spec=spec,
    )


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: vertex (a, x) has index a*h.n + x; (a,x) ~ (b,y)
    iff (a=b and x~y) or (a~b and x=y)."""
    pairs = []
    for a in range(g.n):
        for x, y in h.edges:
            pairs.append((a * h.n + x, a * h.n + y))
    for a, b in g.edges:
        for x in range(h.n):
            pairs.append((a * h.n + x, b * h.n + x))
    n = g.n * h.n
    return Graph(n=n, edges=normalize_edges(n, pairs))


def laplacian(g: Graph, w=None) -> np.ndarray:
    """Weighted Laplacian L(w) = D(w) - A(w); unit weights when w is None.

    Rows sum to zero exactly by construction.  Weight-zero edges stay in the
    edge list; they vanish only at the Laplacian level.
    """
    if w is None:
        w = np.ones(g.m)
    w = np.asarray(w, dtype=float)
    if w.shape != (g.m,):
        raise WeightError(f"expected {g.m} weights, got shape {w.shape}")
    if np.any(w < 0):
        raise WeightError("negative edge weight")
    e = np.array(g.edges, dtype=int).reshape(-1, 2)
    L = np.zeros((g.n, g.n))
    # bit for bit what a per-edge loop gives: `-=` keeps a zero weight +0.0,
    # and bincount sums each vertex's weights in edge order
    L[e[:, 0], e[:, 1]] -= w
    L[e[:, 1], e[:, 0]] -= w
    L[np.diag_indices(g.n)] = np.bincount(e.ravel(), np.repeat(w, 2), g.n)
    return L


def normalized_weights(g: Graph, w) -> np.ndarray:
    """Scale nonnegative weights so that sum_e w_e = |E| (equivalently, the
    sum over ordered vertex pairs equals 2|E|)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (g.m,):
        raise WeightError(f"expected {g.m} weights, got shape {w.shape}")
    if np.any(w < 0):
        raise WeightError("negative edge weight")
    total = float(w.sum())
    if total <= 0:
        raise WeightError("weights sum to zero")
    return w * (g.m / total)


def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 record into a Graph."""
    n, edges = g6.parse_graph6(text)
    return Graph(n=n, edges=tuple(edges))


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 encoding of a Graph."""
    return g6.emit_graph6(g.n, list(g.edges))


def parse_edge_list(text: str) -> Graph:
    """Edge-list text format: first line "n m", then m lines "i j"."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    n, m = map(int, lines[0].split())
    pairs = []
    for ln in lines[1 : m + 1]:
        i, j = map(int, ln.split())
        pairs.append((i, j))
    if len(pairs) != m:
        raise ValueError(f"expected {m} edges, got {len(pairs)}")
    return Graph(n=n, edges=normalize_edges(n, pairs))
