"""0-walk and 1-walk regularity via exact integer adjacency powers, and the
equivalent canonical-embedding characterization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedError, NotRegularError
from .graphs import Graph
from .spectra import WALK1_TOL, EigenspaceDecomposition, eigendecompose


@dataclass(frozen=True)
class WalkRegularityReport:
    walk0: bool
    walk1: bool


def walk_regularity(g: Graph) -> WalkRegularityReport:
    """walk0 and walk1 from the powers A^s; the first varying diagonal fails both.

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
    smax = len(eigendecompose(g.adjacency().astype(float)).eigenvalues) - 1
    if g.n <= 24:
        smax = max(smax, g.n - 1)
    A = g.adjacency().astype(object)
    P = np.eye(g.n, dtype=object)
    walk1 = True
    for _ in range(smax):
        P = P @ A
        if len({P[i, i] for i in range(g.n)}) > 1:
            return WalkRegularityReport(walk0=False, walk1=False)
        walk1 = walk1 and len({P[i, j] for i, j in g.edges}) <= 1
    return WalkRegularityReport(walk0=True, walk1=walk1)


# a batch's (n + m) x K product of basis columns holds at most this many
# n x n matrices' worth of entries; eigh's eigenvector matrix is one
BATCH_SQUARES = 4


def canonical_walk1_check(g: Graph, dec: EigenspaceDecomposition) -> bool:
    """True iff every eigenspace's canonical embedding is spherical and
    edge-isometric: diag(U U^T) constant and (U U^T)_{ij} constant over
    edges, each to within WALK1_TOL.  Must agree with
    walk_regularity().walk1 on every regular input.

    The test reads the projector entries at the pairs (i, i), one per
    vertex, then (i, j), one per edge.  Consecutive eigenspaces are tested
    in batches of K basis columns in all: one elementwise product of the
    basis rows of each pair's two ends gives every such entry of every
    column's rank-one projector ((n + m) x K), and one product with the
    K x s 0/1 indicator of the batch's s eigenspaces sums each
    eigenspace's columns.  A batch grows while (n + m) * K stays within
    BATCH_SQUARES * n^2 entries; an eigenspace too wide for that alone gets
    its projector U U^T (n x n).  The first failing batch returns False."""
    if not g.is_regular():
        raise NotRegularError("canonical walk-regularity check needs a regular graph")
    n = g.n
    pairs = np.concatenate((np.arange(n).repeat(2).reshape(n, 2), g.edge_array))
    # the diagonal entries, then the edge entries (if any): one spread each
    cuts = [0, n] if g.m else [0]
    budget = BATCH_SQUARES * n * n
    batch: list[np.ndarray] = []
    width = 0
    for U in dec.bases:
        k = U.shape[1]
        if len(pairs) * (width + k) > budget and batch:
            if not _batch_walk1(pairs, cuts, batch):
                return False
            batch, width = [], 0
        if len(pairs) * k > budget:
            P = U @ U.T
            if not _constant_blocks(P[pairs[:, 0], pairs[:, 1]], cuts):
                return False
            continue
        batch.append(U)
        width += k
    return not batch or _batch_walk1(pairs, cuts, batch)


def _constant_blocks(entries: np.ndarray, cuts: list[int]) -> bool:
    """Whether every block of rows entries[cuts[i]:cuts[i + 1]] spans at
    most WALK1_TOL in every column."""
    spread = np.maximum.reduceat(entries, cuts) - np.minimum.reduceat(entries, cuts)
    return not np.logical_or.reduce(spread > WALK1_TOL, axis=None)


def _batch_walk1(pairs: np.ndarray, cuts: list[int], bases: list[np.ndarray]) -> bool:
    """The projector test on consecutive eigenspaces at once: the entries
    at `pairs` of each eigenspace's projector, one column per eigenspace,
    as sums of products of its basis columns.  The sums are one matrix
    product with the eigenspace indicator, a single BLAS call however
    many rows a dense graph has; they agree with sums taken column by
    column up to the last bits, far inside WALK1_TOL."""
    U = np.concatenate(bases, axis=1)
    indicator = np.eye(len(bases)).repeat([B.shape[1] for B in bases], axis=0)
    prod = U[pairs[:, 0]]
    prod *= U[pairs[:, 1]]
    return _constant_blocks(prod @ indicator, cuts)
