"""One equal-length Gram matrix per eigenspace: the primal-dual decision on
the mean squared lengths of edge blocks (Wolfe's minimum-norm point over
the spectraplex), and `rank_one_vector`, which reads a rank-one Gram matrix
as a vector.  The minimum-norm point itself (`min_norm_point`) takes its
atoms from an oracle, so the character stage decides its polytope with it
too.  The explicit instance (`build_sdp_instance`), its Dykstra
solver `sdp_feasibility` and Barvinok-Pataki rank reduction (`rank_reduce`)
are test oracles that no check calls."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericalRankAmbiguityError
from .graphs import Graph
from .symmetry import OrbitPartition, PermutationSet

RANK_CUTOFF = 1e-7

# A guard: atoms `min_norm_point` adds before it reports "undecided".
DECISION_ITERATIONS = 500
# `min_norm_point` reports "not_rigid" when the least <c, l> over its atoms
# exceeds this multiple of a bound on |<c, l>| (sum_e |c_e| |b_e|^2 for
# `length_decision`, a bound on |S(c)|): far above rounding.
DUAL_TOL = 1e-10
FEAS_TOL = 1e-8


@dataclass(frozen=True)
class SdpInstance:
    """Feasibility data on S^k: find X psd with <trace_mat, X> = 1 and equal
    functionals <C_r, X> across the edge blocks r.

    orbit_mats[r] is the mean of b_e b_e^T (b_e = u_i - u_j) over the edges
    e = (i, j) of block r, so <C_r, X> is the block's mean squared edge
    length in the embedding U V (X = V V^T).  The blocks are the edge orbits
    of a group, or single edges; in the commutant of the group equal block
    means are equal lengths.
    group_size is the number of generators the edge orbits came from (0
    for the trivial group); the group itself is never listed.
    """

    orbit_mats: np.ndarray  # blocks x k x k
    trace_mat: np.ndarray
    group_size: int

    @property
    def k(self) -> int:
        return self.trace_mat.shape[0]

    def constraint_mats(self) -> np.ndarray:
        """Equality constraints: trace = 1 and orbit_r - orbit_1 = 0."""
        return np.concatenate(
            [self.trace_mat[None], self.orbit_mats[1:] - self.orbit_mats[:1]]
        )

    def rhs(self) -> np.ndarray:
        b = np.zeros(len(self.orbit_mats))
        b[0] = 1.0
        return b

    def residual(self, X: np.ndarray) -> float:
        vals = np.tensordot(self.constraint_mats(), X) - self.rhs()
        return float(np.max(np.abs(vals)))


def build_sdp_instance(
    g: Graph,
    U: np.ndarray,
    p: PermutationSet | None = None,
    orb: OrbitPartition | None = None,
) -> SdpInstance:
    """Precompute the block functionals for eigenspace basis U: the mean of
    b_e b_e^T over each edge orbit of orb, the orbit partition of the group
    generated by p, or over each single edge when both are None (the
    trivial group).  A test oracle for the decision and the Eigenvector
    stage, which form only what they read."""
    if (p is None) != (orb is None):
        raise ValueError("the generators and their orbit partition come together")
    U = np.asarray(U, dtype=float)
    e = g.edge_array
    B = U[e[:, 0]] - U[e[:, 1]]
    mats = B[:, :, None] * B[:, None, :]
    if orb is not None:
        mats = np.stack([mats[list(block)].mean(axis=0) for block in orb.edge_orbits])
    return SdpInstance(
        orbit_mats=mats,
        trace_mat=U.T @ U,
        group_size=0 if p is None else len(p.gens),
    )


@dataclass(frozen=True)
class SdpResult:
    status: str  # "feasible" | "undecided"
    X: np.ndarray | None
    residual: float
    iterations: int


def _psd_project(X: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((X + X.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.T


def sdp_feasibility(
    inst: SdpInstance, tol: float = FEAS_TOL, max_iter: int = 5000
) -> SdpResult:
    """Dykstra alternating projection between the PSD cone (eigenvalue clip)
    and the affine constraint set: a test oracle that no check calls.

    The constraint matrices span at most k(k+1)/2 dimensions of S^k, so
    the affine projection works in the row space of the constraint matrix
    A (one row per constraint, on vec(X)), from one thin SVD: with A = W
    diag(s) Vt, the projection of v is v - Vt^T (Vt v - diag(1/s) W^T b).
    It starts at the affine projection of I / k.  On edge-orbit blocks the
    constraints are invariant under the group's action X -> R X R^T, so
    both projections commute with it and every iterate stays in the
    commutant.  Never claims infeasibility: after max_iter the result is
    `undecided` with the final residual.
    """
    k = inst.k
    A = inst.constraint_mats().reshape(-1, k * k)  # one row per constraint on vec(X)
    W, s, Vt = np.linalg.svd(A, full_matrices=False)
    # the cutoff a pinv of A A^T applies, on the scale of A's singular values
    rank = int(np.sum(s > np.sqrt(max(A.shape) * np.finfo(float).eps) * s[0]))
    Vt = Vt[:rank]
    y0 = (W[:, :rank].T @ inst.rhs()) / s[:rank]

    def affine_project(X: np.ndarray) -> np.ndarray:
        v = X.reshape(-1)
        Y = (v - Vt.T @ (Vt @ v - y0)).reshape(k, k)
        return (Y + Y.T) / 2.0

    X = affine_project(np.eye(k) / max(float(np.trace(inst.trace_mat)), 1.0))
    P = np.zeros((k, k))  # Dykstra correction for the cone step
    scale = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        Y = _psd_project(X + P)
        P = X + P - Y
        X_new = affine_project(Y)
        scale = max(1.0, float(np.max(np.abs(X_new))))
        if np.max(np.abs(X_new - Y)) <= tol * scale:
            X = X_new
            break
        X = X_new

    cand = _psd_project(X)
    resid = inst.residual(cand)
    min_eig = float(np.linalg.eigvalsh((X + X.T) / 2.0)[0])
    status = (
        "feasible"
        if resid <= 10 * tol * scale and min_eig >= -10 * tol * scale
        else "undecided"
    )
    return SdpResult(status=status, X=cand, residual=resid, iterations=it)


@dataclass(frozen=True)
class LengthDecision:
    """Outcome of `min_norm_point`, as `length_decision` reads it.

    status is "rigid" when X gives every edge block the same mean squared
    length to within the tolerance, "not_rigid" when S(c) is positive
    definite, "undecided" at the iteration cap or where rounding stalls.
    c is the centred block means of the squared edge lengths of X, one
    entry per edge, dual_min_eig is lambda_min(S(c)) and gap is |c| / |l|.
    For the character stage X is the weights over the characters, c the
    centred edge lengths they give and dual_min_eig the least <c, l_j>.
    """

    status: str  # "rigid" | "not_rigid" | "undecided"
    X: np.ndarray
    c: np.ndarray
    dual_min_eig: float
    gap: float
    iterations: int

    @property
    def spread(self) -> float:
        """max |c_r - c_1| over the blocks r: the equal-length residual."""
        return float(np.maximum.reduce(np.abs(self.c - self.c[0])))

    def residuals(self) -> dict[str, float]:
        """What an end reports when this decision certified nothing: the
        dual certificate, or how far the decision got."""
        if self.status == "not_rigid":
            return {"dual_min_eig": self.dual_min_eig}
        return {"decision_gap": self.gap, "decision_iterations": self.iterations}


def length_decision(
    B: np.ndarray,
    tol: float = FEAS_TOL,
    max_iter: int = DECISION_ITERATIONS,
    blocks: Sequence[Sequence[int]] | None = None,
) -> LengthDecision:
    """Decide whether some X on the spectraplex {X psd, tr X = 1} gives
    every block of rows of B (m x k) the same mean squared length
    l_e = b_e^T X b_e; blocks partitions the rows (edge orbits), and
    without it every row is a block.

    Exactly one of two things holds: such an X exists, or some centred c,
    constant on the blocks, has S(c) = B^T diag(c) B positive definite (the
    separating hyperplane).  `min_norm_point` finds the minimum-norm point
    of the centred block means c(X), from the atom I / k.  The gradient of
    |c(X)|^2 is S(c), and its linear minimizer over the spectraplex is the
    atom V V^T / j on the bottom eigenspace V of S(c) (j columns), whose
    value is lambda_min(S(c)).
    At k = 1, S(c) is the 1 x 1 matrix c . sum B^2, reported as dual_min_eig:
    |c|^2 only up to rounding, since c sums to zero only up to rounding.
    A 1 x 1 matrix is its own eigenvalue, so no eigensolve runs, and
    without blocks a block mean is the row itself, so no mean is formed: the
    first two tests return at iteration 0 with X = [[1]].  A value that
    passes neither goes to the corral, whose only atom is X again, and ends
    "undecided" with no descent left.
    With B = U_i - U_j over the edges (U an eigenspace basis) and edge-orbit
    blocks, S(c), I / k and every atom commute with the group's action on
    the eigenspace, so X lies in the commutant (never projected), where an
    orbit's edges have equal lengths: "rigid" means U V is edge-isometric
    for X = V V^T.  And
    U^T L(1 + t c) U = lambda I + t S(c): a small step along c (-c at
    lambda_n) moves the whole eigenvalue cluster the improving way.
    """
    k = B.shape[1]
    if blocks:
        label = np.arange(len(B))
        for r, block in enumerate(blocks):
            label[list(block)] = r
        size = np.bincount(label)

        def mean(x: np.ndarray) -> np.ndarray:
            return (np.bincount(label, weights=x) / size)[label]
    else:
        def mean(x: np.ndarray) -> np.ndarray:  # every row is its own block
            return x

    def bottom_eigenspace(c: np.ndarray) -> tuple:
        S = (B.T * c) @ B
        # a 1 x 1 S(c) is its own eigenvalue, with eigenvector 1: no solve
        vals, vecs = np.linalg.eigh(S) if k > 1 else (S[0], np.array([[1.0]]))
        # sum |c_e| |b_e|^2 bounds |S(c)|, so rounding cannot pass this test
        bound = DUAL_TOL * float(np.abs(c) @ sq)
        if vals[0] > bound:  # the run stops here: no atom is needed
            return float(vals[0]), bound, None, None
        # the bottom eigenvalue's whole eigenspace, split only by rounding
        j = int(np.add.reduce(vals - vals[0] <= bound))
        V = vecs[:, :j]
        return float(vals[0]), bound, V @ V.T / j, mean(np.add.reduce((B @ V) ** 2, axis=1)) / j

    sq = np.add.reduce(B * B, axis=1)
    X = np.zeros((k, k))
    X.reshape(-1)[:: k + 1] = 1.0 / k
    return min_norm_point(X, mean(sq) / k, bottom_eigenspace, tol, max_iter)


def min_norm_point(
    start: np.ndarray,
    lengths: np.ndarray,
    oracle: Callable[[np.ndarray], tuple],
    tol: float,
    max_iter: int = DECISION_ITERATIONS,
) -> LengthDecision:
    """Wolfe's minimum-norm point of the centred length vectors
    c(x) = l(x) - mean l(x) over the convex hull of a set of atoms, each an
    array x with a length vector l(x) that is linear in x (Wolfe, "Finding
    the nearest point in a polytope", Math. Programming 11 (1976)); start
    is one atom and lengths its length vector.  An atom of equal lengths
    has c = 0; the equal-length decisions of `length_decision` (Gram
    matrices) and of the character stage (weights over characters) are
    both this question.

    oracle(c) returns (value, bound, atom, length): an atom minimizing
    <c, l(x)>, its length vector, that minimum, and a bound on its
    rounding (DUAL_TOL times a bound on |<c, l(x)>|); atom and length may
    be None when value > bound.  A point with equal lengths has <c, l> = 0
    for centred c, so value > bound separates every atom, and their hull,
    from equal lengths.
    The atoms the run has used form a corral; the minor cycle weights it at
    the affine minimum-norm point of its centred length vectors (one
    (s+1) x (s+1) solve), walking to the boundary and dropping an atom
    while a weight is not positive; the point is the weighted sum of the
    atoms.  The run stops at "rigid" when |c| <= tol |l| (or c = 0), at
    "not_rigid" when value > bound, with value as dual_min_eig, and at
    "undecided" at the max_iter guard or where rounding stalls the run (no
    descent left, or a singular corral), with the point (X) and c it
    reached.  The corral is first built at the first descent, so a run
    that ends at iteration 0 returns start itself.
    """
    X = start
    it = 0
    while True:
        c = lengths - np.add.reduce(lengths) / len(lengths)
        cc = c @ c
        gap = float(np.sqrt(cc) / np.sqrt(lengths @ lengths)) if cc else 0.0
        if gap <= tol:
            return LengthDecision("rigid", X, c, np.nan, gap, it)
        value, bound, atom, length = oracle(c)
        if value > bound:
            return LengthDecision("not_rigid", X, c, value, gap, it)
        # <c, atom - mean> = value < |c|^2 unless rounding hides the step
        descent = float(cc) - float(c @ (length - np.add.reduce(length) / len(length)))
        if it == max_iter or descent <= 0.0:
            return LengthDecision("undecided", X, c, value, gap, it)
        if it == 0:  # the corral, first needed here: the start alone
            atoms, A, w = start.reshape(1, -1), lengths[None], np.array([1.0])
        atoms = np.concatenate((atoms, atom.reshape(1, -1)))
        A = np.concatenate((A, length[None]))
        w = np.concatenate((w, [0.0]))
        while True:  # minor cycle: the corral's affine minimum-norm point
            Ac = A - np.add.reduce(A, axis=1, keepdims=True) / A.shape[1]
            K = np.empty((len(A) + 1, len(A) + 1))
            K.fill(1.0)
            K[:-1, :-1] = Ac @ Ac.T
            K[-1, -1] = 0.0
            e = np.zeros(len(K))  # the last unit vector
            e[-1] = 1.0
            try:
                y = np.linalg.solve(K, e)[:-1]
            except np.linalg.LinAlgError:  # a singular corral: rounding, as above
                return LengthDecision("undecided", X, c, value, gap, it)
            if np.logical_and.reduce(y > 0.0):
                w = y
                break
            out = (y <= 0.0).nonzero()[0]  # walk to the boundary toward y
            ratio = w[out] / (w[out] - y[out])
            w = w + np.minimum.reduce(ratio) * (y - w)
            keep = w > 0.0
            keep[out[ratio.argmin()]] = False  # the atom the walk reached
            atoms, A, w = atoms[keep], A[keep], w[keep]
        X = (w @ atoms).reshape(start.shape)
        lengths = w @ A
        it += 1


def rank_reduce(X: np.ndarray, inst: SdpInstance) -> np.ndarray:
    """Reduce a feasible X until rank(X') * (rank(X') + 1) / 2 <= number of
    equality constraints, staying feasible.  With exactly two constraints the
    output has rank one.  A test oracle: the Eigenvector stage reads its
    rank-one solution off one eigensolve instead (`eigenvector_certificate`).

    Each step factors X = V V^T, finds a nonzero symmetric Delta with all
    constraint functionals vanishing on V Delta V^T, and moves to the
    boundary of the psd cone where the rank drops.
    """
    mats = inst.constraint_mats()
    c = len(mats)
    X = (np.asarray(X, float) + np.asarray(X, float).T) / 2.0
    for _ in range(inst.k + 1):
        vals, vecs = np.linalg.eigh(X)
        smax = float(vals.max()) if vals.size else 0.0
        cutoff = RANK_CUTOFF * max(smax, 1e-30)
        near = np.abs(np.abs(vals) - cutoff) <= 0.1 * cutoff
        if np.any(near & (np.abs(vals) > 0)):
            raise NumericalRankAmbiguityError(
                "eigenvalue too close to the rank cutoff to proceed"
            )
        keep = vals > cutoff
        r = int(keep.sum())
        if r * (r + 1) // 2 <= c:
            break
        V = vecs[:, keep] * np.sqrt(vals[keep])
        # constraints restricted to the face: <C, V D V^T> = <V^T C V, D>
        rows = []
        for C in mats:
            M = V.T @ C @ V
            M = (M + M.T) / 2.0
            rows.append(M.reshape(-1))
        Amat = np.stack(rows)  # c x r^2
        _, s, Vt = np.linalg.svd(Amat, full_matrices=True)
        null = Vt[len(s[s > 1e-12 * max(1.0, s[0])]):]
        D = None
        for row in null:
            cand = row.reshape(r, r)
            cand = (cand + cand.T) / 2.0  # constraints only see the symmetric part
            if np.max(np.abs(cand)) > 1e-12:
                D = cand
                break
        if D is None:
            break
        mu = np.linalg.eigvalsh(D)
        extreme = mu[np.argmax(np.abs(mu))]
        t = -1.0 / extreme
        Xn = V @ (np.eye(r) + t * D) @ V.T
        X = (Xn + Xn.T) / 2.0
    return _psd_project(X)


def rank_one_vector(X: np.ndarray) -> np.ndarray | None:
    """If X = a a^T up to RANK_CUTOFF (relative), return a; else None."""
    vals, vecs = np.linalg.eigh((X + X.T) / 2.0)
    if vals[-1] <= 0:
        return None
    if len(vals) > 1 and vals[-2] > RANK_CUTOFF * vals[-1]:
        return None
    return vecs[:, -1] * np.sqrt(vals[-1])
