"""Graph representation, constructors, and weighted Laplacian assembly.

Vertices are dense 0-based indices; a Cayley graph numbers its group
elements in mixed-radix order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import graph6 as g6
from .errors import GeneratorError, WeightError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Edges are unordered pairs (i, j) with i < j, lexicographically sorted,
    without duplicates or loops.  Connectivity is not an invariant but is a
    precondition of every rigidity operation.  Equality compares n, edges
    and name; cayley_spec takes no part in it.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
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

    @functools.cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, 2) integer array, built once."""
        e = np.array(self.edges, dtype=int).reshape(-1, 2)
        e.setflags(write=False)
        return e

    @functools.cached_property
    def laplacian_index(self) -> np.ndarray:
        """Read-only flat index of length 4m into an n x n Laplacian: for
        each edge (i, j) in order, the entries (i, j), (j, i), (i, i) and
        (j, j).  `laplacian` scatters the signed weights onto it with one
        bincount; the diagonal entries come in edge_array.ravel() order, so
        each degree is summed in edge order."""
        n = self.n
        i, j = self.edge_array.T
        idx = np.empty((self.m, 4), dtype=int)
        idx[:, 0] = i * n + j
        idx[:, 1] = j * n + i
        idx[:, 2] = i * (n + 1)
        idx[:, 3] = j * (n + 1)
        idx = idx.ravel()
        idx.setflags(write=False)
        return idx

    @functools.cached_property
    def unit_laplacian(self) -> np.ndarray:
        """The unit-weight Laplacian laplacian(self) as a read-only n x n
        array, built once."""
        L = laplacian(self)
        L.setflags(write=False)
        return L

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n)

    def is_regular(self) -> bool:
        deg = self.degrees()
        return bool(np.logical_and.reduce(deg == deg[0]))

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=int)
        e = self.edge_array
        A[e[:, 0], e[:, 1]] = A[e[:, 1], e[:, 0]] = 1
        return A

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

    Group elements are tuples.  Generators are reduced mod the orders and
    repeats dropped, keeping first occurrences in order; gens is then a
    tuple, even when given as a set.  The generating set must be closed
    under negation and must not contain the identity.
    """

    orders: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_orders(self.orders)
        if not self.gens:
            raise GeneratorError("empty generating set")
        # each generator reduced mod the orders, repeats dropped, first
        # occurrence kept: a valid spec keeps its gens and their order
        reduced: dict = {}
        for s in self.gens:
            if len(s) != len(self.orders):
                raise GeneratorError(f"generator {s} has wrong arity")
            reduced.setdefault(tuple(c % o for c, o in zip(s, self.orders)), None)
        gens = tuple(reduced)
        object.__setattr__(self, "gens", gens)
        zero = tuple(0 for _ in self.orders)
        for s in gens:
            if s == zero:
                raise GeneratorError("identity element in generating set")
            if self.neg(s) not in reduced:
                raise GeneratorError(f"generating set not symmetric: missing -{s}")

    @property
    def size(self) -> int:
        out = 1
        for o in self.orders:
            out *= o
        return out

    def neg(self, g: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-c) % o for c, o in zip(g, self.orders))


def check_orders(orders: tuple[int, ...]) -> None:
    """Reject a group with no factor or a factor of order below 1, before
    anything is reduced modulo the orders."""
    if not orders or any(o < 1 for o in orders):
        raise ValueError("orders must be positive")


def _cayley_edges(spec: CayleySpec) -> tuple[tuple[int, int], ...]:
    """Sorted edges {g, g+s} of the Cayley graph, g in mixed-radix order:
    one wrapped ravel_multi_index of the element grid shifted by every
    generator at once, then lexicographic order with duplicates (each edge
    twice, an involution's once per end) removed by sort-and-diff."""
    N = spec.size
    grid = np.array(np.unravel_index(np.arange(N), spec.orders)).reshape(len(spec.orders), 1, N)
    shift = np.array(spec.gens).T[:, :, None]  # r x |S| x 1
    head = np.ravel_multi_index(grid + shift, spec.orders, mode="wrap").ravel()
    tail = np.arange(N * len(spec.gens)) % N
    key = np.minimum(tail, head) * N + np.maximum(tail, head)
    # argsort, not np.sort or np.unique: the check path already runs it,
    # while either of those maps more of numpy into memory on first call
    key = key[key.argsort()]
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    lo, hi = divmod(key, N)
    return tuple(zip(lo.tolist(), hi.tolist()))


def cayley_abelian(spec: CayleySpec, name: str | None = None) -> Graph:
    """Cayley graph of an abelian group: vertices enumerate the group in
    mixed-radix order, with an edge {g, g+s} for every generator s."""
    return Graph(n=spec.size, edges=_cayley_edges(spec), name=name, cayley_spec=spec)


def circulant(N: int, S) -> Graph:
    """Circulant graph Cay(Z_N, S).  S is symmetrized internally; the
    Graph is built once, on cayley_abelian's edges."""
    if N < 3:
        raise ValueError("circulant needs N >= 3")
    # CayleySpec rejects the identity and an empty set
    residues = {s % N for s in S}
    residues = sorted(residues | {-s % N for s in residues})
    spec = CayleySpec(orders=(N,), gens=tuple((s,) for s in residues))
    half = [s for s in residues if s <= N - s]
    return Graph(
        n=N,
        edges=_cayley_edges(spec),
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


_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])  # per edge: (i, j), (j, i), (i, i), (j, j)


def laplacian(g: Graph, w=None) -> np.ndarray:
    """Weighted Laplacian L(w) = D(w) - A(w); unit weights when w is None.

    w is one weight per edge, shape (m,).  Rows sum to zero exactly by
    construction.  Weight-zero edges stay in the edge list; they vanish only
    at the Laplacian level.  Weights must be finite and nonnegative.

    One bincount scatters -w_e, -w_e, w_e, w_e onto g.laplacian_index.
    That is bit for bit what a per-edge loop gives: each off-diagonal bin
    gets one term, 0.0 + -w_e (a zero weight stays +0.0), and each diagonal
    bin sums its vertex's weights in edge order.
    """
    if w is None:
        w = np.ones(g.m)
    w = np.asarray(w, dtype=float)
    if w.shape != (g.m,):
        raise WeightError(f"expected {g.m} weights, got shape {w.shape}")
    # one min and one max reduction: NaN propagates through both, and
    # initial=0 makes them defined on zero edges without changing either test
    lo = np.minimum.reduce(w, initial=0.0)
    if not (lo >= 0 and np.maximum.reduce(w, initial=0.0) < np.inf):
        raise WeightError("negative edge weight" if lo < 0 else "non-finite edge weight")
    return _scatter_laplacian(g, w)


def _scatter_laplacian(g: Graph, w: np.ndarray) -> np.ndarray:
    """D(w) - A(w) for any float vector w of one value per edge, signed
    ones included, with no check: the bincount behind `laplacian`."""
    # bincount of no indices is an integer array, whatever the weights
    L = np.bincount(g.laplacian_index, (w[:, None] * _SIGNS).ravel(), g.n * g.n)
    return L.astype(float, copy=False).reshape(g.n, g.n)


def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 record into a Graph."""
    n, edges = g6.parse_graph6(text)
    return Graph(n=n, edges=tuple(edges))


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 encoding of a Graph."""
    return g6.emit_graph6(g.n, list(g.edges))


def parse_edge_list(text: str) -> Graph:
    """Edge-list text format: first line "n m", then exactly m lines "i j"
    naming m distinct edges ("i j" and "j i" are one edge).  Blank lines
    are skipped, but count in the line numbers that errors name."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    n, m = _int_pair(*lines[0], 'the header "n m"')
    if len(lines) - 1 != m:
        raise ValueError(f"header says {m} edges, but {len(lines) - 1} edge lines follow")
    pairs = [_int_pair(k, ln, 'an edge line "i j"') for k, ln in lines[1:]]
    edges = normalize_edges(n, pairs)
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, but the lines name {len(edges)} distinct edges")
    return Graph(n=n, edges=edges)


def _int_pair(lineno: int, line: str, what: str) -> tuple[int, int]:
    """The two integers of one edge-list line; a ValueError naming the line
    when it holds anything else."""
    tokens = line.split()
    if len(tokens) == 2:
        try:
            return int(tokens[0]), int(tokens[1])
        except ValueError:
            pass
    raise ValueError(f"line {lineno}: {what} must be two integers, got {line.strip()!r}")
