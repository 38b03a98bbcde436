"""SDP feasibility over eigenspace Gram matrices with orbit constraints,
solved by Dykstra-corrected alternating projections, plus Barvinok-Pataki
rank reduction of feasible points."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalRankAmbiguityError
from .graphs import Graph
from .symmetry import OrbitPartition, PermutationSet, orbits

RANK_CUTOFF = 1e-7


@dataclass(frozen=True)
class SdpInstance:
    """Feasibility data on S^k: find X psd with <trace_mat, X> = 1 and equal
    orbit functionals <C_r, X> across edge orbits.

    orbit_mats[r] is the k x k coefficient matrix of the functional
    X -> mean over the edges (i, j) of orbit E_r of (U X U^T)_{ij}, which is
    the sum over the group of (U X U^T)_{sigma(i_r) sigma(j_r)} divided by
    the group order.  group_size is the number of generators the edge orbits
    came from (0 for the trivial group); the group itself is never listed.
    """

    U: np.ndarray
    orbit_mats: tuple[np.ndarray, ...]
    trace_mat: np.ndarray
    representatives: tuple[tuple[int, int], ...]
    group_size: int
    degenerate: bool = False

    @property
    def k(self) -> int:
        return self.U.shape[1]

    def constraint_mats(self) -> list[np.ndarray]:
        """Equality constraints as (matrix, rhs): trace = 1 and
        orbit_r - orbit_1 = 0."""
        mats = [self.trace_mat]
        for C in self.orbit_mats[1:]:
            mats.append(C - self.orbit_mats[0])
        return mats

    def rhs(self) -> np.ndarray:
        return np.array([1.0] + [0.0] * (len(self.orbit_mats) - 1))

    def residual(self, X: np.ndarray) -> float:
        vals = [abs(float(np.tensordot(self.trace_mat, X)) - 1.0)]
        base = float(np.tensordot(self.orbit_mats[0], X))
        for C in self.orbit_mats[1:]:
            vals.append(abs(float(np.tensordot(C, X)) - base))
        return max(vals)


def build_sdp_instance(
    g: Graph,
    U: np.ndarray,
    p: PermutationSet | None = None,
    orb: OrbitPartition | None = None,
) -> SdpInstance:
    """Precompute the orbit functionals for eigenspace basis U under the
    group generated by p (trivial group when p is None: one constraint per
    edge)."""
    U = np.asarray(U, dtype=float)
    if p is None:
        blocks = [(k,) for k in range(g.m)]
    else:
        blocks = (orb or orbits(g, p)).edge_orbits
    mats = []
    for block in blocks:
        ij = np.array([g.edges[k] for k in block])
        C = U[ij[:, 0]].T @ U[ij[:, 1]] / len(block)
        mats.append((C + C.T) / 2.0)
    return SdpInstance(
        U=U,
        orbit_mats=tuple(mats),
        trace_mat=U.T @ U,
        representatives=tuple(g.edges[block[0]] for block in blocks),
        group_size=0 if p is None else len(p.gens),
    )


@dataclass(frozen=True)
class SdpResult:
    status: str  # "feasible" | "undecided"
    X: np.ndarray | None
    residual: float
    iterations: int
    degenerate: bool


def _psd_project(X: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((X + X.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.T


def sdp_feasibility(
    inst: SdpInstance, tol: float = 1e-8, max_iter: int = 5000
) -> SdpResult:
    """Dykstra alternating projection between the PSD cone (eigenvalue clip)
    and the affine constraint set (least-squares projector).

    Never claims infeasibility: after max_iter the result is `undecided`
    with the final residual.
    """
    k = inst.k
    mats = inst.constraint_mats()
    b = inst.rhs()
    A = np.stack([C.reshape(-1) for C in mats])  # c x k^2 on vec(X)
    AAt = A @ A.T
    rank = np.linalg.matrix_rank(AAt, tol=1e-12 * max(1.0, np.max(np.abs(AAt))))
    degenerate = rank < len(mats)
    AAt_pinv = np.linalg.pinv(AAt)

    def affine_project(X: np.ndarray) -> np.ndarray:
        v = X.reshape(-1)
        corr = A.T @ (AAt_pinv @ (A @ v - b))
        Y = (v - corr).reshape(k, k)
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
    if resid <= 10 * tol * scale and min_eig >= -10 * tol * scale:
        return SdpResult(
            status="feasible", X=cand, residual=resid, iterations=it,
            degenerate=degenerate,
        )
    return SdpResult(
        status="undecided", X=cand, residual=resid, iterations=it,
        degenerate=degenerate,
    )


def rank_reduce(X: np.ndarray, inst: SdpInstance, tol: float = 1e-8) -> np.ndarray:
    """Reduce a feasible X until rank(X') * (rank(X') + 1) / 2 <= number of
    equality constraints, staying feasible.  With exactly two constraints the
    output has rank one.

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


def rank_one_vector(X: np.ndarray, tol: float = RANK_CUTOFF) -> np.ndarray | None:
    """If X = a a^T up to tol, return a; else None."""
    vals, vecs = np.linalg.eigh((X + X.T) / 2.0)
    if vals[-1] <= 0:
        return None
    if len(vals) > 1 and vals[-2] > tol * vals[-1]:
        return None
    return vecs[:, -1] * np.sqrt(vals[-1])
