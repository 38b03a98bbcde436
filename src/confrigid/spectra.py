"""Dense symmetric eigendecomposition with eigenvalue grouping, weighted
spectrum endpoints, and closed-form abelian Cayley spectra via characters."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedError, EigenvalueError, NotSymmetricError
from .graphs import CayleySpec, Graph, laplacian

# 1-walk regularity's tolerance on the spread of an eigenprojector's edge
# entries (and diagonal entries), in `character_walk1` and
# `walkreg.canonical_walk1_check` alike.
WALK1_TOL = 1e-8


def default_group_tol(M: np.ndarray, scale: float | None = None) -> float:
    """1e-8 * max(1, max|M|) * n; scale is max(1, max|M|) when the caller
    has it, which saves a pass over M."""
    if scale is None:
        scale = max(1.0, float(np.max(np.abs(M)))) if M.size else 1.0
    return 1e-8 * scale * M.shape[0]


@dataclass
class EigenspaceDecomposition:
    """Eigenvalues grouped into eigenspaces under an explicit tolerance.

    eigenvalues are the group means, ascending: eigenvalues[0] is the
    smallest eigenvalue alone, and after it each group's raw eigenvalues
    span at most group_tol (`_group`).  bases[i] is an n x
    multiplicities[i] matrix with orthonormal columns.  raw_eigenvalues is
    the full ungrouped spectrum.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    bases: list
    group_tol: float
    raw_eigenvalues: np.ndarray

    def index_of(self, lam: float) -> int:
        """The eigenspace whose value is within group_tol of lam."""
        d = np.abs(self.eigenvalues - lam)
        k = int(np.argmin(d))
        if d[k] > self.group_tol + 1e-12 * max(1.0, abs(lam)):
            raise EigenvalueError(f"no eigenvalue near {lam}")
        return k

    def basis_for(self, lam: float) -> np.ndarray:
        return self.bases[self.index_of(lam)]


def resolve_group_tol(
    M: np.ndarray, group_tol: float | None, scale: float | None = None
) -> float:
    """group_tol, or default_group_tol(M, scale) when it is None; it must be
    finite and positive."""
    if group_tol is None:
        group_tol = default_group_tol(M, scale)
    check_tolerance("group_tol", group_tol)
    return group_tol


def check_tolerance(name: str, tol: float) -> None:
    """Reject a tolerance that is NaN, infinite or not positive."""
    if not 0 < tol < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {tol!r}")


def _group(vals: np.ndarray, group_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cuts and means of ascending vals grouped under group_tol: group 0 is
    vals[0] alone (a connected graph's Laplacian kernel, never merged with
    lambda_2 however small lambda_2 is), and after it a new group starts
    wherever consecutive values differ by more than group_tol.  A group
    whose spread still exceeds group_tol is then split greedily from its
    first value, so no group spans more than group_tol.  Group i is
    vals[cuts[i]:cuts[i + 1]].  Each mean is bit for bit np.mean of its
    group: a singleton is its value, a pair (a + b) / 2, and a larger group
    the sum and division np.mean makes, without its wrapper."""
    breaks = np.diff(vals) > group_tol
    breaks[:1] = True
    cuts = np.concatenate(([0], np.flatnonzero(breaks) + 1, [len(vals)]))
    mults = np.diff(cuts)
    big = np.flatnonzero(mults > 2).tolist()
    bounds = cuts.tolist()
    # a chained pair spans at most group_tol, a longer chain can span more
    splits = []
    for k in big:
        a, b = bounds[k], bounds[k + 1]
        while vals[b - 1] - vals[a] > group_tol:
            a += int(np.argmax(vals[a:b] - vals[a] > group_tol))
            splits.append(a)
    if splits:
        cuts = np.union1d(cuts, splits)
        mults = np.diff(cuts)
        big = np.flatnonzero(mults > 2).tolist()
        bounds = cuts.tolist()
    starts = cuts[:-1]
    means = vals[starts]
    pair = mults == 2
    means[pair] = (vals[starts[pair]] + vals[starts[pair] + 1]) / 2
    for k in big:
        a, b = bounds[k], bounds[k + 1]
        means[k] = np.add.reduce(vals[a:b]) / (b - a)
    return cuts, means


def eigendecompose(M: np.ndarray, group_tol: float | None = None) -> EigenspaceDecomposition:
    """Full decomposition of a symmetric matrix; near-equal eigenvalues
    above the smallest are merged into one eigenspace (`_group`), whose
    basis is eigh's columns for them and whose value is the mean of the
    merged eigenvalues.

    M must be finite and symmetric to within 1e-12 * max(1, max|M|), tested
    in one pass over M - M.T; that scale is computed once and also sets the
    default group_tol.  A NaN or infinite entry makes max|M| non-finite and
    raises NotSymmetricError."""
    M = np.asarray(M, dtype=float)
    top = float(np.max(np.abs(M))) if M.size else 0.0
    if not top < np.inf:
        bad = np.argwhere(~np.isfinite(M)).tolist()
        more = " ..." if len(bad) > 8 else ""
        raise NotSymmetricError(f"matrix has non-finite entries at {bad[:8]}{more}")
    scale = max(1.0, top)
    if M.size and not np.max(np.abs(M - M.T)) <= 1e-12 * scale:
        raise NotSymmetricError("matrix is not symmetric")
    group_tol = resolve_group_tol(M, group_tol, scale)
    vals, vecs = np.linalg.eigh((M + M.T) / 2.0)
    # eigh's columns are orthonormal, so each group's slice is a basis
    cuts, eigenvalues = _group(vals, group_tol)
    bases = [vecs[:, a:b] for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())]
    return EigenspaceDecomposition(
        eigenvalues=eigenvalues,
        multiplicities=np.diff(cuts),
        bases=bases,
        group_tol=group_tol,
        raw_eigenvalues=vals,
    )


def lambda_ends(g: Graph, w=None) -> tuple[float, float]:
    """Second-smallest and largest eigenvalue of L(w).  No normalization is
    applied to w here."""
    if not g.is_connected():
        raise DisconnectedError("graph is disconnected")
    if g.n < 2:
        raise DisconnectedError("spectrum endpoints need n >= 2")
    vals = np.linalg.eigvalsh(laplacian(g, w))
    return float(vals[1]), float(vals[-1])


def _phase_block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows @ cols.T, each entry formed as the full table's matrix product
    forms it.  numpy hands a single row or column to BLAS's matrix-vector
    kernel, whose sums can round differently from the matrix-matrix
    kernel's in the last bit, so a lone row or column is doubled for the
    product and the copy dropped."""
    if len(rows) == 1:
        return _phase_block(np.concatenate((rows, rows)), cols)[:1]
    if len(cols) == 1:
        return _phase_block(rows, np.concatenate((cols, cols)))[:, :1]
    return rows @ cols.T


@dataclass
class CharacterTable:
    """Characters of an abelian group together with the per-character
    Laplacian eigenvalue of the attached Cayley graph.

    The character chi^k at the element g is exp(2*pi*i * sum_t k_t g_t / n_t),
    with both the character index k and the group element g enumerated in
    the same mixed-radix order as the Cayley graph's vertices.  The table
    holds the element coordinates `coords` (N x r), the phase matrix
    `phases` = coords / orders, and the characters at the generators only:
    gen_chars[k, j] = chi^k(s_j) at the spec's generators s_j, with
    gen_idx[j] the column of s_j.  `rows(ks)` gives whole characters, and
    `chars`, the full N x N table, is built on first access; both agree
    with gen_chars bit for bit.
    """

    coords: np.ndarray
    phases: np.ndarray
    gen_chars: np.ndarray
    eigenvalues: np.ndarray
    gen_idx: np.ndarray

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def rows(self, ks) -> np.ndarray:
        """The characters chi^k for k in ks, one row each (len(ks) x N)."""
        return np.exp(2j * np.pi * _phase_block(self.phases[ks], self.coords))

    @functools.cached_property
    def chars(self) -> np.ndarray:
        """The full N x N character table, chars[k, g] = chi^k(g)."""
        return np.exp(2j * np.pi * _phase_block(self.phases, self.coords))


def character_spectrum(spec: CayleySpec) -> CharacterTable:
    """The characters of the group at its generators, with eigenvalues
    lambda_k = sum over the full symmetric S of (1 - Re chi^k(s)).
    Element coordinates come from one np.indices grid, generator columns
    from one ravel of the generators; no N x N table is built."""
    grid = np.indices(spec.orders).reshape(len(spec.orders), -1)
    arr = grid.T.astype(float)  # N x r, mixed-radix order
    # phases[k] @ arr[g] = sum_t k_t * g_t / n_t
    phases = arr / np.array(spec.orders, dtype=float)
    gen_idx = np.ravel_multi_index(np.array(spec.gens).T, spec.orders)
    # column-major, as the table's columns chars[:, gen_idx] are: numpy's
    # row sums over the two layouts can round differently
    gen_chars = np.asfortranarray(np.exp(2j * np.pi * _phase_block(phases, arr[gen_idx])))
    eigenvalues = np.sum(1.0 - gen_chars.real, axis=1)
    return CharacterTable(arr, phases, gen_chars, eigenvalues, gen_idx)


def character_eigenspaces(
    table: CharacterTable, group_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct Laplacian eigenvalues of the Cayley graph from its
    characters, grouped as `eigendecompose` groups a dense spectrum (same
    rule and group_tol, same means): (means, order, cuts), with order the
    character indices sorted by eigenvalue and order[cuts[i]:cuts[i + 1]]
    the characters of means[i].  No dense eigensolve is made."""
    order = np.argsort(table.eigenvalues)
    cuts, means = _group(table.eigenvalues[order], group_tol)
    return means, order, cuts


def character_walk1(table: CharacterTable, order: np.ndarray, cuts: np.ndarray) -> bool:
    """1-walk regularity of the Cayley graph from its characters, grouped
    by `character_eigenspaces`.  The eigenprojector onto the characters K of
    one eigenvalue has (1/N) sum_{k in K} Re chi^k(s) on every edge
    {g, g + s} and |K| / N, the same at every vertex, on its diagonal; so
    walk1 holds iff for every K the edge entries agree within WALK1_TOL, the
    test `canonical_walk1_check` makes on the dense projectors."""
    sums = np.add.reduceat(table.gen_chars.real[order], cuts[:-1], axis=0)
    return bool(np.all(sums.max(axis=1) - sums.min(axis=1) <= WALK1_TOL * table.size))


def circulant_curve_extremes(n: int) -> tuple[int, int]:
    """Indices attaining min and max nonzero eigenvalue of
    Cay(Z_{3n}, {1, n-1}): (3, 3*floor(n/2)) for n >= 6.

    Verifies that for k not divisible by 3 the eigenvalues lie in [2, 6]
    per the three-curve decomposition, and that full enumeration agrees.
    """
    if n < 6:
        raise ValueError("circulant family extremes need n >= 6")
    N = 3 * n
    k = np.arange(N)
    lam = np.zeros(N)
    for s in (1, n - 1, N - 1, N - (n - 1)):
        lam += 1.0 - np.cos(2 * np.pi * k * s / N)
    off3 = lam[k % 3 != 0]
    if np.any(off3 < 2 - 1e-9) or np.any(off3 > 6 + 1e-9):
        raise AssertionError("off-lattice eigenvalue outside [2, 6]")
    nz = k[1:]
    argmin = int(nz[np.argmin(lam[1:])])
    argmax = int(np.argmin(-lam))
    expect = (3, 3 * (n // 2))
    # ties (odd n has a symmetric pair at the top) resolve to the smaller index
    if abs(lam[argmin] - lam[expect[0]]) > 1e-9 or abs(lam[argmax] - lam[expect[1]]) > 1e-9:
        raise AssertionError("enumerated extremes disagree with the closed form")
    return expect
