"""Spectral embeddings: canonical, symmetrized, from given columns;
edge-isometry and sphericity diagnostics; orbit-sum vectors; and
Cartesian-product embeddings."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EigenvalueError, HypothesisViolatedError
from .graphs import Graph, cartesian_product
from .spectra import EigenspaceDecomposition
from .symmetry import OrbitPartition, PermutationSet, group_closure, orbits

RESIDUAL_TOL = 1e-7
ISO_TOL = 1e-7


@dataclass(frozen=True)
class Embedding:
    """n points in R^k (rows of `points`) attached to one eigenspace."""

    points: np.ndarray
    eigenvalue: float

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _check_residual(resid: float, value: float, scale: float, what: str) -> None:
    """EigenvalueError when resid exceeds RESIDUAL_TOL * (1 + |value|) * scale."""
    if resid > RESIDUAL_TOL * (1.0 + abs(value)) * scale:
        raise EigenvalueError(f"{what}: residual {resid:.3e}")


def make_embedding(g: Graph, points: np.ndarray, eigenvalue: float) -> Embedding:
    """Embedding from eigenspace columns (or one eigenvector), validated:
    eigenspace residual (to RESIDUAL_TOL), centering, and nontriviality."""
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    if P.shape[0] != g.n:
        raise ValueError("points must have one row per vertex")
    scale = float(np.maximum.reduce(np.abs(P), axis=None))
    if scale == 0.0:
        raise ValueError("zero embedding")
    resid = np.maximum.reduce(np.abs(g.unit_laplacian @ P - eigenvalue * P), axis=None)
    _check_residual(
        resid, eigenvalue, max(scale, 1.0), f"columns are not in the eigenspace of {eigenvalue}"
    )
    if np.maximum.reduce(np.abs(np.add.reduce(P))) > 1e-6 * max(scale, 1.0) * g.n:
        raise EigenvalueError("embedding is not centered")
    return Embedding(points=P, eigenvalue=float(eigenvalue))


def canonical_embedding(g: Graph, dec: EigenspaceDecomposition, lam: float) -> Embedding:
    """Rows of an orthonormal eigenspace basis, under make_embedding's
    eigenspace residual test.  Each basis column u is an eigenvector of one
    raw eigenvalue v of its group, so |L u - value u| = |v - value|: the test
    reads the group's raw eigenvalues and makes no product with L."""
    idx = dec.index_of(lam)
    if idx == 0:  # the kernel, a group of its own however small lambda_2 is
        raise EigenvalueError("canonical embedding needs a positive eigenvalue")
    value = float(dec.eigenvalues[idx])
    start = int(np.add.reduce(dec.multiplicities[:idx]))
    raw = dec.raw_eigenvalues[start : start + dec.multiplicities[idx]]
    resid = float(np.maximum.reduce(np.abs(raw - value)))
    _check_residual(resid, value, 1.0, f"columns are not in the eigenspace of {value}")
    return Embedding(points=dec.bases[idx], eigenvalue=value)


def rayleigh_eigenvalue(g: Graph, phi: np.ndarray) -> float:
    """Eigenvalue of phi, verified by residual; raises if phi is not an
    eigenvector (up to RESIDUAL_TOL)."""
    phi = np.asarray(phi, dtype=float)
    nrm = float(np.linalg.norm(phi))
    if nrm == 0:
        raise ValueError("zero vector")
    L = g.unit_laplacian
    lam = float(phi @ L @ phi) / (nrm * nrm)
    resid = np.max(np.abs(L @ phi - lam * phi))
    _check_residual(resid, lam, nrm, "vector is not an eigenvector")
    return lam


def symmetrized_embedding(g: Graph, phi: np.ndarray, p: PermutationSet) -> Embedding:
    """One column per group element sigma, with entry i equal to
    phi[sigma(i)].  The group generated by p.gens is enumerated explicitly."""
    lam = rayleigh_eigenvalue(g, phi)
    if lam <= 0:
        raise EigenvalueError("symmetrized embedding needs a positive eigenvalue")
    elements = group_closure(p)
    phi = np.asarray(phi, dtype=float)
    cols = np.stack([phi[np.array(sigma)] for sigma in elements], axis=1)
    return make_embedding(g, cols, lam)


@dataclass(frozen=True)
class EdgeLengthProfile:
    """Edge lengths of an embedding and whether they are equal, with its
    sphericity diagnostics.

    vertex_norms, is_spherical and radius are computed on first read and
    cached: the certification cascade reads only the edge lengths, the
    isometry test and the mean length c, while the `embed` command and the
    product embeddings also read the sphericity.
    """

    points: np.ndarray
    lengths: np.ndarray
    is_edge_isometric: bool
    c: float
    tol: float

    @cached_property
    def vertex_norms(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    @cached_property
    def is_spherical(self) -> bool:
        norms = self.vertex_norms
        return bool(norms.max() - norms.min() <= self.tol * (1.0 + norms.max()))

    @cached_property
    def radius(self) -> float:
        return float(self.vertex_norms.mean())


def edge_length_profile(
    e: Embedding, g: Graph, tol: float = ISO_TOL
) -> EdgeLengthProfile:
    """Per-edge lengths and sphericity diagnostics.

    Edge-isometric requires max-min <= tol*(1+max) and min > tol (zero-length
    edges count as failures since the common length must be positive).
    Sphericity has the same relative tolerance on the vertex norms.
    """
    P = e.points
    ends = g.edge_array
    diff = P[ends[:, 0]] - P[ends[:, 1]]
    lengths = np.sqrt(np.add.reduce(diff * diff, axis=1))
    if len(lengths):
        hi, lo = np.maximum.reduce(lengths), np.minimum.reduce(lengths)
        iso = bool(hi - lo <= tol * (1.0 + hi) and lo > tol)
        c = float(np.add.reduce(lengths) / len(lengths))
    else:
        iso, c = False, 0.0
    return EdgeLengthProfile(points=P, lengths=lengths, is_edge_isometric=iso, c=c, tol=tol)


def unit_edge_normalized(e: Embedding, g: Graph, tol: float = ISO_TOL) -> Embedding:
    """Rescale an edge-isometric embedding so all edges have length 1."""
    prof = edge_length_profile(e, g, tol)
    if not prof.is_edge_isometric:
        raise HypothesisViolatedError("embedding is not edge-isometric")
    return Embedding(points=e.points / prof.c, eigenvalue=e.eigenvalue)


@dataclass(frozen=True)
class OrbitVector:
    """One orbit-summed product per edge orbit, ordered by the orbit's
    lexicographically smallest edge."""

    values: tuple[float, ...]
    representatives: tuple[tuple[int, int], ...]


def phi_psi(
    g: Graph,
    phi: np.ndarray,
    p: PermutationSet,
    orb: OrbitPartition | None = None,
) -> OrbitVector:
    """Per edge orbit, sum over the group of phi[sigma(i)]*phi[sigma(j)] at the
    orbit representative; the value is asserted equal across orbit members,
    to within 1e-9 of the largest pair sum."""
    rayleigh_eigenvalue(g, phi)  # membership check; raises if not an eigenvector
    if orb is None:
        orb = orbits(g, p)
    phi = np.asarray(phi, dtype=float)
    # M[i, j] = sum over sigma of phi[sigma(i)] * phi[sigma(j)]
    S = np.stack([phi[np.array(sigma)] for sigma in group_closure(p)], axis=0)
    M = S.T @ S
    scale = max(1.0, float(np.max(np.abs(M))))
    values, reps = [], []
    for block in orb.edge_orbits:
        vals = [M[g.edges[k][0], g.edges[k][1]] for k in block]
        if max(vals) - min(vals) > 1e-9 * scale:
            raise AssertionError("orbit sum varies across an edge orbit")
        rep = g.edges[block[0]]
        values.append(float(M[rep[0], rep[1]]))
        reps.append(rep)
    return OrbitVector(values=tuple(values), representatives=tuple(reps))


def product_embedding(
    gG: Graph,
    eG: Embedding,
    gH: Graph,
    eH: Embedding,
    mode: str,
    iso_tol: float = ISO_TOL,
) -> tuple[Graph, Embedding]:
    """Edge-isometric embedding of the Cartesian product from edge-isometric
    factor embeddings, each first rescaled to unit edges.

    mode="lambda2": requires equal positive eigenvalues; output columns are
    [U_G (x) 1 | 1 (x) U_H] at the common eigenvalue.

    mode="lambdamax": requires spherical inputs whose unit-edge radii agree
    (equivalently equal avg-degree / (2 lambda_max)); output is the
    row-wise tensor embedding at the sum of eigenvalues, which is also
    spherical.

    iso_tol is the factors' edge-isometry and sphericity tolerance; the
    eigenvalues and the radii must agree to a relative 1e-8.
    """
    if mode not in ("lambda2", "lambdamax"):
        raise ValueError(f"unknown product mode {mode!r}")
    profG = edge_length_profile(eG, gG, iso_tol)
    profH = edge_length_profile(eH, gH, iso_tol)
    for prof, which in ((profG, "first"), (profH, "second")):
        if not prof.is_edge_isometric:
            raise HypothesisViolatedError(f"{which} factor embedding not edge-isometric")
    UG = eG.points / profG.c
    UH = eH.points / profH.c
    prod = cartesian_product(gG, gH)
    if mode == "lambda2":
        if abs(eG.eigenvalue - eH.eigenvalue) > 1e-8 * (1.0 + abs(eG.eigenvalue)):
            raise HypothesisViolatedError(
                f"eigenvalues differ: {eG.eigenvalue} vs {eH.eigenvalue}"
            )
        cols = np.hstack(
            [np.kron(UG, np.ones((gH.n, 1))), np.kron(np.ones((gG.n, 1)), UH)]
        )
        return prod, make_embedding(prod, cols, eG.eigenvalue)
    for prof, which in ((profG, "first"), (profH, "second")):
        if not prof.is_spherical:
            raise HypothesisViolatedError(f"{which} factor not spherical")
    rG = profG.radius / profG.c
    rH = profH.radius / profH.c
    if abs(rG - rH) > 1e-8 * (1.0 + rG):
        raise HypothesisViolatedError(f"unit-edge radii differ: {rG} vs {rH}")
    return prod, make_embedding(prod, np.kron(UG, UH), eG.eigenvalue + eH.eigenvalue)


def embedding_to_csv(e: Embedding) -> str:
    """CSV export: vertex index followed by coordinates."""
    lines = ["vertex," + ",".join(f"x{k}" for k in range(e.dim))]
    for i, row in enumerate(e.points):
        lines.append(f"{i}," + ",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"
