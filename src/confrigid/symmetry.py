"""Permutation groups given by generators: orbit computation, group
closure, and a budgeted backtracking automorphism search."""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import GroupTooLargeError, NotAutomorphismError
from .graphs import CayleySpec, Graph

GROUP_CAP = 10**6  # most elements group_closure lists


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


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def group_closure(p: PermutationSet) -> list[tuple[int, ...]]:
    """All elements of the group generated by p.gens, by BFS over generators;
    GroupTooLargeError past GROUP_CAP elements."""
    seen = {tuple(range(p.n))}  # the identity
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in p.gens:
                b = compose(g, a)
                if b not in seen:
                    if len(seen) >= GROUP_CAP:
                        raise GroupTooLargeError(f"group order exceeds cap {GROUP_CAP}")
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(seen)


@dataclass(frozen=True)
class OrbitPartition:
    """Vertex and edge orbits; blocks ordered by their smallest member."""

    vertex_orbits: tuple[tuple[int, ...], ...]
    edge_orbits: tuple[tuple[int, ...], ...]

    @property
    def num_vertex_orbits(self) -> int:
        return len(self.vertex_orbits)

    @property
    def num_edge_orbits(self) -> int:
        return len(self.edge_orbits)


def _orbit_blocks(
    size: int, images: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Orbits of 0..size-1 under the permutations `images` (one sequence of
    images each), each sorted and ordered by its smallest member.  In a
    finite group every inverse is a power, so forward images reach the
    whole orbit."""
    seen = [False] * size
    blocks = []
    for x in range(size):
        if seen[x]:
            continue
        seen[x] = True
        block, stack = [x], [x]
        while stack:
            y = stack.pop()
            for img in images:
                z = img[y]
                if not seen[z]:
                    seen[z] = True
                    block.append(z)
                    stack.append(z)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def orbits(g: Graph, p: PermutationSet) -> OrbitPartition:
    """Vertex and edge orbits as connected components of the generator action.
    With no generators (the trivial group) every block is a singleton."""
    if p.n != g.n:
        raise ValueError("permutation degree does not match graph order")
    if not p.gens:
        return OrbitPartition(
            vertex_orbits=tuple((v,) for v in range(g.n)),
            edge_orbits=tuple((k,) for k in range(g.m)),
        )
    P = np.array(p.gens, dtype=int).reshape(-1, g.n)
    e = g.edge_array
    # edges are sorted, so their keys i * n + j are too
    keys = e[:, 0] * g.n + e[:, 1]
    img = P[:, e]  # generators x edges x 2
    a, b = np.minimum.reduce(img, axis=2).ravel(), np.maximum.reduce(img, axis=2).ravel()
    # a key past the last edge's searches to m: clip, then compare
    t = np.minimum(keys.searchsorted(a * g.n + b), g.m - 1)
    bad = (keys[t] != a * g.n + b).nonzero()[0]
    if len(bad):
        # generators in order, each over the edges in order: the first one
        k = bad[0]
        i, j = g.edges[k % g.m]
        raise NotAutomorphismError(
            f"generator maps edge ({i},{j}) to non-edge ({a[k]},{b[k]})"
        )
    return OrbitPartition(
        vertex_orbits=_orbit_blocks(g.n, p.gens),
        edge_orbits=_orbit_blocks(g.m, t.reshape(len(P), g.m).tolist()),
    )


def cayley_orbits(g: Graph) -> OrbitPartition:
    """The orbits of `orbits(g, cayley_translations(g.cayley_spec))`, read
    from the spec of the abelian Cayley graph g without the permutations.

    The translations reach every element, so the vertex orbit is the whole
    group; they map the edge {a, a + s} onto every edge {b, b + s}, so
    there is one edge orbit per class {s, -s}.  An edge's class is the
    smaller mixed-radix index of the difference of its ends and of its
    negative.  Vertex 0 meets the edge (0, s) of every class, and the edge
    list starts with them in order of s, so ordering the blocks by class
    orders them by their smallest member.  One argsort of the unique keys
    class * m + edge lists each block ascending."""
    spec = g.cayley_spec
    coords = np.array(np.unravel_index(np.arange(g.n), spec.orders))
    orders = np.array(spec.orders)[:, None]
    e = g.edge_array
    diff = (coords[:, e[:, 1]] - coords[:, e[:, 0]]) % orders
    cls = np.minimum(
        np.ravel_multi_index(diff, spec.orders),
        np.ravel_multi_index(-diff % orders, spec.orders),
    )
    order = (cls * g.m + np.arange(g.m)).argsort()
    ranked = cls[order]
    cuts = ((ranked[1:] != ranked[:-1]).nonzero()[0] + 1).tolist()
    edges = order.tolist()
    return OrbitPartition(
        vertex_orbits=(tuple(range(g.n)),),
        edge_orbits=tuple(
            tuple(edges[a:b]) for a, b in zip([0, *cuts], [*cuts, g.m])
        ),
    )


def _refine_colors(g: Graph) -> np.ndarray:
    """Equitable partition by iterated (color, multiset of neighbor colors),
    colours numbered by the rank of their signature.

    On a regular graph the unit partition is already equitable, so the
    all-zero colouring returns without a round.  Otherwise each vertex's
    signature is one row of a preallocated array: its colour in column 0,
    then its neighbour colours ascending, padded with -1.  A round sorts
    the half-edges by (source, colour of the far end); that keeps the
    sources ascending, so each half-edge's row and slot are fixed before
    the loop and a round only writes the sorted far colours into them.
    One lexsort then ranks the signatures.  Vertices of one colour have
    the same degree, so the padding never decides between two
    signatures."""
    n = g.n
    deg = g.degrees()
    top = np.maximum.reduce(deg)
    if np.minimum.reduce(deg) == top:
        return np.zeros(n, dtype=np.intp)
    e = g.edge_array
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    key = src * n
    row = np.arange(n).repeat(deg)  # src sorted: vertex v deg[v] times
    slot = 1 + np.arange(len(src)) - (deg.cumsum() - deg)[row]
    sigs = np.empty((n, 1 + int(top)), dtype=int)
    sigs.fill(-1)
    colors = ((np.bincount(deg) > 0).cumsum() - 1)[deg]  # the rank of each degree
    while True:
        far = colors[dst]
        sigs[:, 0] = colors
        sigs[row, slot] = far[(key + far).argsort()]
        rank = np.lexsort(sigs.T[::-1])
        ordered = sigs[rank]
        new = np.zeros(n, dtype=colors.dtype)
        new[rank[1:]] = np.logical_or.reduce(ordered[1:] != ordered[:-1], axis=1).cumsum()
        if new[rank[-1]] == n - 1 or np.logical_and.reduce(new == colors):
            return new  # a discrete partition is stable
        colors = new


def _search_adjacency(g: Graph) -> tuple[list[int], list[list[int]]]:
    """Neighbourhood bitsets and ascending neighbour lists of the graph the
    search runs on: G itself, or its complement when G holds more than half
    of the n(n - 1)/2 pairs.  Aut(G) = Aut of the complement, and the
    sparser graph prunes more candidates per prefix neighbour.  For the
    complement no Python loop runs over G's edges: its bitsets are the
    boolean complement rows packed little-endian, and its lists are read
    off the bitsets."""
    n = g.n
    e = g.edge_array
    if 4 * g.m <= n * (n - 1):
        adj = [0] * n
        nbr: list[list[int]] = [[] for _ in range(n)]
        for i, j in e.tolist():
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            nbr[i].append(j)
            nbr[j].append(i)
        return adj, nbr
    free = np.empty((n, n), dtype=bool)
    free.fill(True)
    free.reshape(-1)[:: n + 1] = False
    free[e[:, 0], e[:, 1]] = free[e[:, 1], e[:, 0]] = False
    rows = np.packbits(free, axis=1, bitorder="little").tobytes()
    w = len(rows) // n
    adj = [int.from_bytes(rows[v * w : (v + 1) * w], "little") for v in range(n)]
    nbr = []
    for mask in adj:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        nbr.append(out)
    return adj, nbr


def find_automorphisms(g: Graph, limit: int = 500_000) -> PermutationSet:
    """Generating set of Aut(G), one automorphism per point of each basic
    orbit: at most n - 1 generators, and the group is never held.

    Walks the levels of the vertex order from the deepest to the shallowest.
    At level l, with order[:l] fixed pointwise, each vertex c of the colour
    of v = order[l] outside v's orbit under the generators found so far gets
    one depth-first search for an automorphism with v -> c, which stops at
    the first.  Generators found deeper fix order[:l], so the orbit test is
    exact and the result generates Aut(G) (Schreier-Sims, with the first-path
    orbit pruning of McKay-Piperno).  The same holds for a failed search:
    if no automorphism fixing order[:l] maps v to c, none maps v into c's
    orbit, so that orbit is skipped for the rest of the level.  Only failed
    searches are skipped, so the generators are those found without the
    pruning.  Each candidate assignment counts one node against `limit`; if
    the budget is exhausted, the generators found so far are returned with
    the exhausted flag, and downstream results then hold for the subgroup
    they generate.

    Neighbourhoods, colour classes and the used vertices are bitsets held
    in Python ints, so each node costs a few word operations.  Candidates
    are tested lazily: a node walks the next level's candidate mask in
    ascending order and descends into each passing vertex before testing
    the next, so once a descent succeeds no later candidate of that level
    is tested.  On a graph with more than half of all pairs as
    edges the search runs on the complement (as nauty does), which has
    the same automorphisms and the same equitable colouring, so
    _refine_colors(g) serves both; the tree, and so the generators, then
    differ from a search on G's own edges, but the group they generate
    does not.  The search runs at any order: it keeps its path on an
    explicit stack, and only `limit` bounds its work."""
    n = g.n
    colors = _refine_colors(g)
    class_size = np.bincount(colors)
    if len(class_size) == n:  # discrete: only the identity
        return PermutationSet(n=n, gens=())
    adj, nbr = _search_adjacency(g)
    color = colors.tolist()
    class_mask = [0] * len(class_size)
    for v, c in enumerate(color):
        class_mask[c] |= 1 << v
    # order vertices so each new one touches as many assigned ones as
    # possible, then has the smallest colour class, then the smallest index:
    # a heap of (-touched, class size, vertex), stale entries skipped
    size_of = class_size[colors].tolist()
    touched = [0] * n
    placed = [False] * n
    heap = [(0, size_of[v], v) for v in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    while len(order) < n:
        t, _, v = heapq.heappop(heap)
        if placed[v] or -t != touched[v]:
            continue
        placed[v] = True
        order.append(v)
        for u in nbr[v]:
            if not placed[u]:
                touched[u] += 1
                heapq.heappush(heap, (-touched[u], size_of[u], u))
    level_of = [0] * n
    for level, v in enumerate(order):
        level_of[v] = level
    # per level: the class of order[l], and the prefix levels adjacent to it
    level_class = [class_mask[color[v]] for v in order]
    prefix_nbrs = [
        [level_of[u] for u in nbr[v] if level_of[u] < level]
        for level, v in enumerate(order)
    ]
    image = list(order)  # image[i] is the image of order[i]
    used = (1 << n) - 1
    gens: list[tuple[int, ...]] = []
    parent = list(range(n))  # union-find of the orbits, each root its least
    nodes = 0
    exhausted = False

    def find(x: int) -> int:
        """The root of x's orbit, with path halving; the hot loops below
        inline it."""
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def extend(level: int, c: int) -> bool:
        """Map order[level] to c and complete the map depth-first to an
        automorphism, stopping at the first; `used` is restored on return.

        The next level's candidates are the unused vertices of its colour
        adjacent to the images of all its prefix neighbours (`mask`) that
        have no other used neighbour: the prefix is exactly `used`, so that
        is a popcount equal to the number of those neighbours.  Each is
        tested just before its search, in ascending order.  The search
        holds its path on an explicit stack, one [image, untried
        candidates, prefix count] entry per open level, so its depth is
        not bounded by Python's recursion limit."""
        nonlocal nodes, exhausted, used
        start = used
        stack: list[list[int]] = []
        while True:
            if nodes >= limit:  # out of budget: every open level fails
                exhausted = True
                used = start
                return False
            nodes += 1
            image[level] = c
            level += 1
            if level == n:
                used = start
                return True
            used |= 1 << c
            mask = level_class[level] & ~used
            nbrs = prefix_nbrs[level]
            for j in nbrs:
                mask &= adj[image[j]]
            stack.append([c, mask, len(nbrs)])
            while stack:  # the next candidate of the deepest open level
                placed, mask, k = stack[-1]
                while mask:
                    low = mask & -mask
                    mask ^= low
                    c = low.bit_length() - 1
                    if (adj[c] & used).bit_count() == k:
                        break
                else:  # none left: the level fails, and its parent moves on
                    stack.pop()
                    used ^= 1 << placed
                    level -= 1
                    continue
                stack[-1][1] = mask
                break
            else:
                return False

    for level in range(n - 1, -1, -1):
        v = order[level]
        used &= ~(1 << v)  # order[:level] stays fixed pointwise
        home = find(v)
        failed = set()  # roots of the orbits where extend failed
        # the level's candidates, tested as in extend
        mask = level_class[level] & ~used
        nbrs = prefix_nbrs[level]
        for j in nbrs:
            mask &= adj[image[j]]
        k = len(nbrs)
        while mask:
            low = mask & -mask
            c = low.bit_length() - 1
            mask ^= low
            if (adj[c] & used).bit_count() != k:
                continue
            root = c  # find(c), inlined as in the union below
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            if root == home or root in failed:
                continue
            if not extend(level, c):
                failed.add(root)
                continue
            gens.append(tuple([image[l] for l in level_of]))
            for i, j in enumerate(gens[-1]):
                if i != j:  # union(i, j): the larger root under the smaller
                    while parent[i] != i:
                        parent[i] = i = parent[parent[i]]
                    while parent[j] != j:
                        parent[j] = j = parent[parent[j]]
                    if i < j:
                        parent[j] = i
                    elif j < i:
                        parent[i] = j
            home = find(v)
            failed = {find(r) for r in failed}
        if exhausted:
            break
    return PermutationSet(n=n, gens=tuple(gens), exhausted=exhausted)


def cayley_translations(spec: CayleySpec) -> PermutationSet:
    """Translation action of the group on itself (one generator per cyclic
    factor), making the Cayley graph vertex-transitive by construction.
    Generator t maps element g to g + e_t: one wrapped ravel of the element
    grid with coordinate t advanced."""
    r = len(spec.orders)
    grid = np.array(np.unravel_index(np.arange(spec.size), spec.orders))
    units = np.zeros((r, r, 1), dtype=int)  # units[:, t] is e_t as a column
    units.reshape(-1)[:: r + 1] = 1
    gens = tuple(
        tuple(np.ravel_multi_index(grid + units[:, t], spec.orders, mode="wrap").tolist())
        for t in range(r)
    )
    return PermutationSet(n=spec.size, gens=gens)


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
