"""0-walk and 1-walk regularity via exact integer adjacency powers, and the
equivalent canonical-embedding characterization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedError, NotRegularError
from .graphs import Graph
from .spectra import EigenspaceDecomposition, eigendecompose


@dataclass(frozen=True)
class WalkRegularityReport:
    regular: bool
    walk0: bool
    walk1: bool
    failing_power: int | None
    powers_checked: int


def _distinct_adjacency_eigenvalues(g: Graph) -> int:
    dec = eigendecompose(g.adjacency().astype(float))
    return len(dec.eigenvalues)


def walk_regularity(g: Graph) -> WalkRegularityReport:
    """Check A^s for s up to the adjacency-algebra dimension bound.

    Walk counts are exact (arbitrary-precision integers).  The bound m-1
    (m = distinct adjacency eigenvalues) suffices since A^s lies in the
    algebra spanned by I, A, ..., A^{m-1} (m counts eigendecompose's groups,
    which keep the smallest eigenvalue apart: at most one too many); for n <= 24 we also sweep up to
    n-1 as a margin against eigenvalue-grouping errors.
    """
    if not g.is_connected():
        raise DisconnectedError("walk regularity assumes a connected graph")
    if not g.is_regular():
        raise NotRegularError("walk regularity is defined for regular graphs")
    m = _distinct_adjacency_eigenvalues(g)
    smax = m - 1
    if g.n <= 24:
        smax = max(smax, g.n - 1)
    A = g.adjacency().astype(object)
    P = np.eye(g.n, dtype=object)
    walk0, walk1 = True, True
    failing = None
    for s in range(1, smax + 1):
        P = P @ A
        if walk0 and len({P[i, i] for i in range(g.n)}) > 1:
            walk0 = walk1 = False
            failing = s
        if walk1 and len({P[i, j] for i, j in g.edges}) > 1:
            walk1 = False
            if failing is None:
                failing = s
        if not walk0:
            break
    return WalkRegularityReport(
        regular=True,
        walk0=walk0,
        walk1=walk1,
        failing_power=failing,
        powers_checked=smax,
    )


def canonical_walk1_check(
    g: Graph, dec: EigenspaceDecomposition, tol: float = 1e-8
) -> bool:
    """True iff every eigenspace's canonical embedding is spherical and
    edge-isometric: diag(U U^T) constant and (U U^T)_{ij} constant over
    edges.  Must agree with walk_regularity().walk1 on every regular input."""
    if not g.is_regular():
        raise NotRegularError("canonical walk-regularity check needs a regular graph")
    e = g.edge_array
    for U in dec.bases:
        P = U @ U.T
        d = np.diag(P)
        if d.max() - d.min() > tol:
            return False
        if g.m:
            ev = P[e[:, 0], e[:, 1]]
            if ev.max() - ev.min() > tol:
                return False
    return True
