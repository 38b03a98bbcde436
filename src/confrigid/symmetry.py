"""Permutation groups given by generators: orbit computation, transitivity
tests, group closure, and a budgeted backtracking automorphism search."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphTooLargeError, GroupTooLargeError, NotAutomorphismError
from .graphs import CayleySpec, Graph


@dataclass(frozen=True)
class PermutationSet:
    """Degree-n permutations as full image tuples.  `exhausted` marks a
    search that hit its node budget; results then hold for the subgroup
    generated by the returned set."""

    n: int
    gens: tuple[tuple[int, ...], ...]
    exhausted: bool = field(default=False, compare=False)

    def __post_init__(self):
        for p in self.gens:
            if len(p) != self.n or sorted(p) != list(range(self.n)):
                raise ValueError(f"not a permutation of 0..{self.n - 1}: {p}")


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def group_closure(p: PermutationSet, cap: int = 10**6) -> list[tuple[int, ...]]:
    """All elements of the group generated by p.gens, by BFS over generators."""
    seen = {identity_perm(p.n)}
    frontier = [identity_perm(p.n)]
    while frontier:
        nxt = []
        for a in frontier:
            for g in p.gens:
                b = compose(g, a)
                if b not in seen:
                    if len(seen) >= cap:
                        raise GroupTooLargeError(f"group order exceeds cap {cap}")
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(seen)


def group_order(p: PermutationSet, cap: int = 10**6) -> int:
    return len(group_closure(p, cap))


@dataclass(frozen=True)
class OrbitPartition:
    """Vertex and edge orbits; blocks ordered by their smallest member and
    represented by it."""

    vertex_orbits: tuple[tuple[int, ...], ...]
    edge_orbits: tuple[tuple[int, ...], ...]
    vertex_representatives: tuple[int, ...]
    edge_representatives: tuple[int, ...]

    @property
    def num_vertex_orbits(self) -> int:
        return len(self.vertex_orbits)

    @property
    def num_edge_orbits(self) -> int:
        return len(self.edge_orbits)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def orbits(g: Graph, p: PermutationSet) -> OrbitPartition:
    """Vertex and edge orbits as connected components of the generator action."""
    if p.n != g.n:
        raise ValueError("permutation degree does not match graph order")
    uf_v = _UnionFind(g.n)
    for perm in p.gens:
        for i in range(g.n):
            uf_v.union(i, perm[i])
    eidx = g.edge_index()
    uf_e = _UnionFind(g.m)
    for perm in p.gens:
        for k, (i, j) in enumerate(g.edges):
            a, b = perm[i], perm[j]
            if a > b:
                a, b = b, a
            t = eidx.get((a, b))
            if t is None:
                raise NotAutomorphismError(
                    f"generator maps edge ({i},{j}) to non-edge ({a},{b})"
                )
            uf_e.union(k, t)
    vblocks: dict[int, list[int]] = {}
    for i in range(g.n):
        vblocks.setdefault(uf_v.find(i), []).append(i)
    eblocks: dict[int, list[int]] = {}
    for k in range(g.m):
        eblocks.setdefault(uf_e.find(k), []).append(k)
    vorb = tuple(tuple(b) for b in sorted(vblocks.values(), key=lambda b: b[0]))
    eorb = tuple(tuple(b) for b in sorted(eblocks.values(), key=lambda b: b[0]))
    return OrbitPartition(
        vertex_orbits=vorb,
        edge_orbits=eorb,
        vertex_representatives=tuple(b[0] for b in vorb),
        edge_representatives=tuple(b[0] for b in eorb),
    )


def is_vertex_transitive(g: Graph, p: PermutationSet) -> bool:
    """Transitivity with respect to the supplied subgroup; sufficient for the
    graph property, not necessary."""
    return orbits(g, p).num_vertex_orbits == 1


def is_edge_transitive(g: Graph, p: PermutationSet) -> bool:
    return orbits(g, p).num_edge_orbits == 1


def _refine_colors(A: np.ndarray) -> np.ndarray:
    """Equitable partition by iterated (color, multiset of neighbor colors)."""
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


def find_automorphisms(
    g: Graph, limit: int = 500_000, max_n: int = 512
) -> PermutationSet:
    """Generating set of Aut(G), one automorphism per point of each basic
    orbit: at most n - 1 generators, and the group is never held.

    Walks the levels of the vertex order from the deepest to the shallowest.
    At level l, with order[:l] fixed pointwise, each vertex c of the colour
    of v = order[l] outside v's orbit under the generators found so far gets
    one depth-first search for an automorphism with v -> c, which stops at
    the first.  Generators found deeper fix order[:l], so the orbit test is
    exact and the result generates Aut(G) (Schreier-Sims, with the first-path
    orbit pruning of McKay-Piperno).  Each candidate assignment counts one
    node against `limit`; if the budget is exhausted, the generators found so
    far are returned with the exhausted flag, and downstream results then
    hold for the subgroup they generate."""
    if g.n > max_n:
        raise GraphTooLargeError(f"automorphism search capped at n = {max_n}")
    n = g.n
    A = g.adjacency()
    colors = _refine_colors(A)
    # order vertices so each new one touches as many assigned ones as
    # possible, then has the smallest colour class, then the smallest index
    class_size = np.bincount(colors)[colors]
    touched = np.zeros(n, dtype=int)
    placed = np.zeros(n, dtype=bool)
    order: list[int] = []
    for _ in range(n):
        key = np.where(placed, -1, touched * (n + 1) + n - class_size)
        best = int(np.argmax(key))
        order.append(best)
        placed[best] = True
        touched += A[best]

    order_arr = np.array(order, dtype=int)
    level_of = np.argsort(order_arr)
    image = order_arr.copy()  # image[i] is the image of order[i]
    used = np.ones(n, dtype=bool)
    gens: list[tuple[int, ...]] = []
    orbit_of = _UnionFind(n)
    nodes = 0
    exhausted = False

    def candidates(level: int) -> np.ndarray:
        """Unused vertices of order[level]'s colour whose adjacency to the
        mapped prefix is that of order[level] to the prefix."""
        v = order[level]
        cand = np.flatnonzero((colors == colors[v]) & ~used)
        match = A[np.ix_(cand, image[:level])] == A[v, order_arr[:level]]
        return cand[match.all(axis=1)]

    def extend(level: int, c: int) -> bool:
        """Map order[level] to c and complete the map depth-first to an
        automorphism, stopping at the first; `used` is restored on return."""
        nonlocal nodes, exhausted
        if nodes >= limit:
            exhausted = True
            return False
        nodes += 1
        image[level] = c
        used[c] = True
        found = level + 1 == n
        if not found:
            for d in candidates(level + 1):
                if extend(level + 1, d):
                    found = True
                    break
        used[c] = False
        return found

    for level in range(n - 1, -1, -1):
        v = order[level]
        used[v] = False  # order[:level] stays fixed pointwise
        for c in candidates(level):
            if orbit_of.find(c) != orbit_of.find(v) and extend(level, c):
                gens.append(tuple(image[level_of].tolist()))
                for i, j in enumerate(gens[-1]):
                    orbit_of.union(i, j)
        if exhausted:
            break
    return PermutationSet(n=n, gens=tuple(gens), exhausted=exhausted)


def cayley_translations(spec: CayleySpec) -> PermutationSet:
    """Translation action of the group on itself (one generator per cyclic
    factor), making the Cayley graph vertex-transitive by construction."""
    elems = spec.elements()
    gens = []
    for t in range(len(spec.orders)):
        unit = tuple(1 if i == t else 0 for i in range(len(spec.orders)))
        gens.append(tuple(spec.index_of(spec.add(gel, unit)) for gel in elems))
    return PermutationSet(n=spec.size, gens=tuple(gens))


def parse_generators(text: str, n: int) -> PermutationSet:
    """One permutation per line as images pi(0) ... pi(n-1), separated by
    spaces or commas."""
    gens = []
    for ln in text.splitlines():
        if not ln.strip():
            continue
        images = tuple(int(tok) for tok in ln.replace(",", " ").split())
        if len(images) != n:
            raise ValueError(f"expected {n} images per line, got {len(images)}")
        gens.append(images)
    return PermutationSet(n=n, gens=tuple(gens))
