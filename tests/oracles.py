"""Reference code the tests check the library against and that no check
runs: the per-element loop over an abelian group Z_{n1} x ... x Z_{nr},
whose elements are tuples numbered in mixed-radix order (last coordinate
fastest), the Cayley character sums built on it, and the order of a
permutation group by listing it."""

from itertools import product

import numpy as np

from confrigid.graphs import normalize_edges
from confrigid.symmetry import group_closure


def _elements(orders):
    return [tuple(g) for g in product(*(range(o) for o in orders))]


def _index_of(orders, g):
    idx = 0
    for c, o in zip(g, orders):
        idx = idx * o + (c % o)
    return idx


def _add(orders, g, h):
    return tuple((a + b) % o for a, b, o in zip(g, h, orders))


def _cayley_edges_oracle(spec):
    pairs = []
    for g in _elements(spec.orders):
        gi = _index_of(spec.orders, g)
        for s in spec.gens:
            hi = _index_of(spec.orders, _add(spec.orders, g, s))
            if gi != hi:
                pairs.append((gi, hi))
    return normalize_edges(spec.size, pairs)


def chi_gamma(spec, k, cross_check_tol=1e-9):
    """Vector (sum_g chi(g) * conj(chi(g o s)))_{s in S} for the k-th
    character; equals |Gamma| * conj(chi(s)) by the homomorphism property.
    Both forms are computed and cross-asserted."""
    elems = _elements(spec.orders)
    N = spec.size
    if not 0 <= k < N:
        raise ValueError(f"character index {k} out of range")
    orders = np.array(spec.orders, dtype=float)
    chi = np.exp(2j * np.pi * (np.array(elems, dtype=float) @ (np.array(elems[k]) / orders)))
    out = np.empty(len(spec.gens), dtype=complex)
    for t, s in enumerate(spec.gens):
        shifted = [_index_of(spec.orders, _add(spec.orders, g, s)) for g in elems]
        brute = np.sum(chi * np.conj(chi[shifted]))
        closed = N * np.conj(chi[_index_of(spec.orders, s)])
        if abs(brute - closed) > cross_check_tol * N:
            raise AssertionError("character sum disagrees with the closed form")
        out[t] = closed
    return out


def group_order(p):
    """The order of the group generated by p.gens, by listing it."""
    return len(group_closure(p))
