"""Dense symmetric eigendecomposition with eigenvalue grouping, weighted
spectrum endpoints, and closed-form abelian Cayley spectra via characters."""

from __future__ import annotations

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
        scale = max(1.0, float(np.maximum.reduce(np.abs(M), axis=None))) if M.size else 1.0
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
        """The eigenspace whose value is within group_tol of lam; NaN and
        +-inf are near none (an infinite lam would pass the bound alone)."""
        d = np.abs(self.eigenvalues - lam)
        k = int(d.argmin())
        if not (abs(lam) < np.inf and d[k] <= self.group_tol + 1e-12 * max(1.0, abs(lam))):
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
    lambda_2 however small lambda_2 is), and after it a new group starts at
    the first value more than group_tol above the current group's first
    value, so no group spans more than group_tol.  Group i is
    vals[cuts[i]:cuts[i + 1]].  Each mean is bit for bit np.mean of its
    group (but a singleton is its value, so -0.0 stays -0.0): a pair is
    (a + b) / 2, and a larger group the sum and division np.mean makes."""
    raw = vals.tolist()
    bounds = [0]
    for i in range(1, len(raw)):
        if i == 1 or raw[i] - raw[bounds[-1]] > group_tol:
            bounds.append(i)
    bounds.append(len(raw))
    cuts = np.array(bounds)
    mults = cuts[1:] - cuts[:-1]
    starts = cuts[:-1]
    means = vals[starts]
    pair = mults == 2
    means[pair] = (vals[starts[pair]] + vals[starts[pair] + 1]) / 2
    for k in (mults > 2).nonzero()[0].tolist():
        a, b = bounds[k], bounds[k + 1]
        means[k] = np.add.reduce(vals[a:b]) / (b - a)
    return cuts, means


def eigendecompose(M: np.ndarray, group_tol: float | None = None) -> EigenspaceDecomposition:
    """Full decomposition of a symmetric matrix; above the smallest
    eigenvalue, each run of eigenvalues within group_tol of the run's first
    is merged into one eigenspace (`_group`), whose basis is eigh's columns
    for them and whose value is the mean of the merged eigenvalues.

    M must be finite and symmetric to within 1e-12 * max(1, max|M|), tested
    in one pass over M - M.T; that scale is computed once and also sets the
    default group_tol.  A NaN or infinite entry makes max|M| non-finite and
    raises NotSymmetricError.  M goes to eigh as it is, and eigh reads
    only its lower triangle, so an asymmetry within the bound is resolved
    in favour of that triangle."""
    M = np.asarray(M, dtype=float)
    top = float(np.maximum.reduce(np.abs(M), axis=None)) if M.size else 0.0
    if not top < np.inf:
        bad = np.argwhere(~np.isfinite(M)).tolist()
        more = " ..." if len(bad) > 8 else ""
        raise NotSymmetricError(f"matrix has non-finite entries at {bad[:8]}{more}")
    scale = max(1.0, top)
    asymmetry = np.maximum.reduce(np.abs(M - M.T), axis=None) if M.size else 0.0
    if not asymmetry <= 1e-12 * scale:
        raise NotSymmetricError("matrix is not symmetric")
    group_tol = resolve_group_tol(M, group_tol, scale)
    vals, vecs = np.linalg.eigh(M)
    # eigh's columns are orthonormal, so each group's slice is a basis
    cuts, eigenvalues = _group(vals, group_tol)
    bases = [vecs[:, a:b] for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())]
    return EigenspaceDecomposition(
        eigenvalues=eigenvalues,
        multiplicities=cuts[1:] - cuts[:-1],
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
    gen_chars[k, j] = chi^k(s_j) at the spec's generators s_j.  `rows(ks)`
    gives whole characters, agreeing with gen_chars bit for bit, and
    `real(ks)` tells which of them are real-valued without evaluating them.
    """

    coords: np.ndarray
    phases: np.ndarray
    gen_chars: np.ndarray
    eigenvalues: np.ndarray

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def rows(self, ks) -> np.ndarray:
        """The characters chi^k for k in ks, one row each (len(ks) x N)."""
        return np.exp(2j * np.pi * _phase_block(self.phases[ks], self.coords))

    def real(self, ks) -> list[bool]:
        """Whether each chi^k for k in ks is real-valued, read from its
        index: iff 2 k_t = 0 (mod n_t) for every t, that is iff each phase
        k_t / n_t is 0 or 1/2 (exactly so in floating point: the division is
        correctly rounded, and any other k_t / n_t in [0, 1) lies at least
        1 / (2 n_t) from both)."""
        return [set(row) <= {0.0, 0.5} for row in self.phases[ks].tolist()]


def character_spectrum(spec: CayleySpec) -> CharacterTable:
    """The characters of the group at its generators, with eigenvalues
    lambda_k = sum over the full symmetric S of (1 - Re chi^k(s)).
    Element coordinates come from one unravel of 0..N-1, generator columns
    from one ravel of the generators; no N x N table is built."""
    grid = np.array(np.unravel_index(np.arange(spec.size), spec.orders))
    arr = grid.T.astype(float)  # N x r, mixed-radix order
    # phases[k] @ arr[g] = sum_t k_t * g_t / n_t
    phases = arr / np.array(spec.orders, dtype=float)
    gen_idx = np.ravel_multi_index(np.array(spec.gens).T, spec.orders)
    # column-major, as the full table's generator columns are: numpy's row
    # sums over the two layouts can round differently
    gen_chars = np.asfortranarray(np.exp(2j * np.pi * _phase_block(phases, arr[gen_idx])))
    eigenvalues = np.add.reduce(1.0 - gen_chars.real, axis=1)
    return CharacterTable(arr, phases, gen_chars, eigenvalues)


def character_eigenspaces(
    table: CharacterTable, group_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct Laplacian eigenvalues of the Cayley graph from its
    characters, grouped as `eigendecompose` groups a dense spectrum (same
    rule and group_tol, same means): (means, order, cuts), with order the
    character indices sorted by eigenvalue and order[cuts[i]:cuts[i + 1]]
    the characters of means[i].  No dense eigensolve is made."""
    order = table.eigenvalues.argsort()
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
    spread = np.maximum.reduce(sums, axis=1) - np.minimum.reduce(sums, axis=1)
    return bool(np.logical_and.reduce(spread <= WALK1_TOL * table.size))


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
    if np.logical_or.reduce((off3 < 2 - 1e-9) | (off3 > 6 + 1e-9)):
        raise AssertionError("off-lattice eigenvalue outside [2, 6]")
    nz = k[1:]
    argmin = int(nz[lam[1:].argmin()])
    argmax = int((-lam).argmin())
    expect = (3, 3 * (n // 2))
    # ties (odd n has a symmetric pair at the top) resolve to the smaller index
    if abs(lam[argmin] - lam[expect[0]]) > 1e-9 or abs(lam[argmax] - lam[expect[1]]) > 1e-9:
        raise AssertionError("enumerated extremes disagree with the closed form")
    return expect
