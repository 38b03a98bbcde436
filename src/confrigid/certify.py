"""Positive certificates and the top-level rigidity pipeline.

A graph is lower (upper) conformally rigid iff it has an edge-isometric
embedding on the eigenspace of lambda_2 (lambda_n).  Every certificate
emitted here is re-verified by reconstructing a concrete embedding and
running the edge-length diagnostics; a certificate that fails re-verification
is never emitted.  Refutations always carry a normalized weight vector that
strictly beats the unit weights, its value re-verified on a fresh Laplacian
by two Cholesky factorizations.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from .embeddings import (
    ISO_TOL,
    Embedding,
    canonical_embedding,
    edge_length_profile,
    make_embedding,
)
from .errors import (
    DisconnectedError,
    EigenvalueError,
    HypothesisViolatedError,
    NotVertexTransitiveError,
)
from .falsify import FalsifierResult, line_search, reverify
from .graphs import Graph
from .lp import phase1_feasibility
from .sdp import FEAS_TOL, LengthDecision, length_decision, rank_one_vector
from .spectra import (
    CharacterTable,
    EigenspaceDecomposition,
    character_eigenspaces,
    character_spectrum,
    character_walk1,
    check_tolerance,
    default_group_tol,
    eigendecompose,
    resolve_group_tol,
)
from .symmetry import (
    SEARCH_MAX_N,
    OrbitPartition,
    PermutationSet,
    cayley_orbits,
    cayley_translations,
    find_automorphisms,
    orbits,
)
from .walkreg import canonical_walk1_check

STAGES = (
    "edge_transitive",
    "character_lp",
    "walk_regular",
    "canonical",
    "symmetrized_sdp",
    "trivial_sdp",
    "falsify",
)


@dataclass(frozen=True)
class CheckOptions:
    group_tol: float | None = None
    iso_tol: float = ISO_TOL
    feas_tol: float = FEAS_TOL
    generators: PermutationSet | None = None
    skip_stages: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        # a NaN tolerance fails every comparison, which leaves ends undecided
        check_tolerance("iso_tol", self.iso_tol)
        check_tolerance("feas_tol", self.feas_tol)
        if self.group_tol is not None:
            check_tolerance("group_tol", self.group_tol)
        # a misspelt stage would skip nothing; a bare string is not a set of names
        skip = frozenset(self.skip_stages)
        if unknown := skip - set(STAGES):
            raise ValueError(f"unknown stages: {sorted(unknown)}")
        object.__setattr__(self, "skip_stages", skip)

    def stage_enabled(self, name: str) -> bool:
        return name not in self.skip_stages


@dataclass(frozen=True)
class Certificate:
    kind: str
    eigenvalue: float
    embedding: Embedding
    payload: dict
    residuals: dict


@dataclass(frozen=True)
class EndReport:
    end: str  # "lower" | "upper"
    verdict: str  # "certified" | "refuted" | "undecided"
    method: str | None
    certificate: Certificate | None
    witness: np.ndarray | None
    residuals: dict


@dataclass(frozen=True)
class RigidityReport:
    graph_name: str | None
    n: int
    m: int
    lambda2: float
    lambda_max: float
    lower: EndReport
    upper: EndReport
    walk1: bool | None
    vertex_transitive: bool | None
    edge_orbits: int | None
    timings: dict
    # whether the automorphism search ran out of its node budget (its
    # results then hold for the subgroup found); None when no search ran
    search_exhausted: bool | None = None

    @property
    def rigid(self) -> bool:
        return self.lower.verdict == "certified" and self.upper.verdict == "certified"

    def to_json_dict(self) -> dict:
        def end_dict(er: EndReport) -> dict:
            cert = None
            if er.certificate is not None:
                payload = {
                    k: (v.tolist() if isinstance(v, np.ndarray) else v)
                    for k, v in er.certificate.payload.items()
                }
                cert = {
                    "kind": er.certificate.kind,
                    "eigenvalue": er.certificate.eigenvalue,
                    "payload": payload,
                }
            return {
                "verdict": er.verdict,
                "method": er.method,
                "certificate": cert,
                "witness": None if er.witness is None else er.witness.tolist(),
                "residuals": {k: float(v) for k, v in er.residuals.items()},
            }

        return {
            "graph": {"name": self.graph_name, "n": self.n, "m": self.m},
            "lambda2": self.lambda2,
            "lambdaMax": self.lambda_max,
            "lower": end_dict(self.lower),
            "upper": end_dict(self.upper),
            "walk1": self.walk1,
            "vertexTransitive": self.vertex_transitive,
            "edgeOrbits": self.edge_orbits,
            "searchExhausted": self.search_exhausted,
            "rigid": self.rigid,
            "toolVersion": __version__,
            "timings": {k: float(v) for k, v in self.timings.items()},
        }


def _verified_certificate(
    g: Graph,
    emb: Embedding,
    kind: str,
    payload: dict,
    iso_tol: float,
    extra_residuals: dict | None = None,
) -> Certificate | None:
    prof = edge_length_profile(emb, g, tol=iso_tol)
    if not prof.is_edge_isometric:
        return None
    residuals = {
        "edge_length_spread": float(
            np.maximum.reduce(prof.lengths) - np.minimum.reduce(prof.lengths)
        ),
        "edge_length": prof.c,
    }
    if extra_residuals:
        residuals.update(extra_residuals)
    return Certificate(
        kind=kind,
        eigenvalue=emb.eigenvalue,
        embedding=emb,
        payload=payload,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# character LP certificate (abelian Cayley graphs)
# ---------------------------------------------------------------------------


# the bound on the character LP's objective and on the one-class residual
# under which an end is certified
LP_CERTIFY_TOL = 1e-9


@dataclass(frozen=True)
class LpCertificateResult:
    status: str  # "certified" | "not_in_polytope" | "degenerate"
    coefficients: np.ndarray | None
    character_indices: tuple[int, ...]
    t: float | None
    lp_objective: float
    complex_only: bool = False


def abelian_lp_certificate(
    table: CharacterTable, characters: Sequence[int]
) -> LpCertificateResult:
    """Decide whether the constant line meets the character polytope of one
    eigenspace: find convex weights c over its characters and a real t with
    sum_j c_j * chi^j_Gamma = t * 1.

    characters are the indices of the eigenspace's characters in table, as
    `character_eigenspaces` groups them (any order; the LP takes them
    ascending).

    When the characters form one conjugate class ({chi} or {chi, conj chi},
    neither real) the only candidate is the uniform c = 1/d: on a pair the
    imaginary rows force c_1 = c_2 unless Im chi vanishes on S, and then
    every c gives the same values.  Its values at the generators are one
    d x |S| product, t is the mean of their real parts, and the end is
    certified when every value lies within LP_CERTIFY_TOL of t; the
    residual is reported as lp_objective.  Every other eigenspace, and a
    class that misses the bound, goes to the phase-1 simplex.

    Certified implies an edge-isometric embedding on that eigenspace exists;
    not_in_polytope (LP objective above 1e-7) implies none exists, hence at
    lambda_2 or lambda_n the graph is not rigid at that end; degenerate is
    an objective in (LP_CERTIFY_TOL, 1e-7] or a solution that fails the
    substitution check.
    """
    idxs = sorted(int(k) for k in characters)
    # chi_Gamma / |Gamma| has entry s equal to conj(chi(s))
    V = np.conj(table.gen_chars[idxs])  # d x |S|
    d = len(idxs)
    c = None
    if d == 1 or (d == 2 and not any(table.real(idxs))):
        uniform = np.full(d, 1.0 / d)
        w = uniform @ V
        t = float(np.add.reduce(w.real) / len(w))
        objective = float(np.maximum.reduce(np.abs(w - t)))
        if objective <= LP_CERTIFY_TOL:
            c = uniform
    if c is None:
        res = phase1_feasibility(*character_lp_system(V))
        objective = res.objective
        if objective <= LP_CERTIFY_TOL:
            c = np.maximum(res.x[:d], 0.0)
            c = c / np.add.reduce(c)
            t = float(res.x[d] - res.x[d + 1])
            if np.maximum.reduce(np.abs(c @ V - t)) > 1e-7:  # substitution check
                c = None
    if c is None:
        return LpCertificateResult(
            status="not_in_polytope" if objective > 1e-7 else "degenerate",
            coefficients=None,
            character_indices=tuple(idxs),
            t=None,
            lp_objective=objective,
        )
    # does a single real eigenvector achieve it, or only a complex combination?
    support = [k for k, ck in zip(idxs, c) if ck > 1e-10]
    return LpCertificateResult(
        status="certified",
        coefficients=c,
        character_indices=tuple(idxs),
        t=t,
        lp_objective=objective,
        complex_only=not any(table.real(support)),
    )


def character_lp_system(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The character LP A x = b, x >= 0, for the d x |S| generator values V
    of d characters.  The variables are c_1..c_d, t_plus and t_minus; each
    generator s gives the rows Re(c V[:, s]) - t = 0 and Im(c V[:, s]) = 0,
    in that order, and the last row is sum c = 1: (2|S| + 1) x (d + 2)."""
    d, s = V.shape
    A = np.zeros((2 * s + 1, d + 2))
    A[0 : 2 * s : 2, :d] = V.real.T
    A[0 : 2 * s : 2, d] = -1.0
    A[0 : 2 * s : 2, d + 1] = 1.0
    A[1 : 2 * s : 2, :d] = V.imag.T
    A[-1, :d] = 1.0
    b = np.zeros(2 * s + 1)
    b[-1] = 1.0
    return A, b


def lp_certificate_embedding(
    g: Graph, table: CharacterTable, lp: LpCertificateResult, lam: float
) -> Embedding:
    """Concrete embedding implied by a certified LP solution over the
    characters of table: the n x 2d columns sqrt(c_j) * [Re chi^j, Im chi^j].
    Its Gram matrix is that of the group-symmetrized
    phi = sum_j sqrt(c_j) chi^j divided by the group order."""
    pos = lp.coefficients > 0
    ks = np.asarray(lp.character_indices)[pos]
    chi = np.sqrt(lp.coefficients[pos])[:, None] * table.rows(ks)
    # n x 2d: the columns Re chi^j, Im chi^j, j by j
    P = np.empty((chi.shape[1], 2 * len(chi)))
    P[:, 0::2] = chi.real.T
    P[:, 1::2] = chi.imag.T
    keep = np.sqrt(np.add.reduce(P * P)) > 1e-12
    return make_embedding(g, P[:, keep], lam)


def _lp_certificate(
    g: Graph,
    table: CharacterTable,
    lp: LpCertificateResult,
    lam: float,
    iso_tol: float,
) -> Certificate | None:
    """The re-verified certificate of a certified LP solution; None when the
    LP did not certify or its embedding fails."""
    if lp.status != "certified":
        return None
    try:
        emb = lp_certificate_embedding(g, table, lp, lam)
    except EigenvalueError:
        # under a coarse group_tol a class can merge characters of distinct
        # eigenvalues, and their combination is then no eigenvector of lam
        return None
    payload = {
        "coefficients": lp.coefficients,
        "character_indices": list(lp.character_indices),
        "t": lp.t,
        "complex_only": lp.complex_only,
    }
    extra = {"lp_objective": lp.lp_objective}
    return _verified_certificate(g, emb, "character_lp", payload, iso_tol, extra)


# ---------------------------------------------------------------------------
# SDP-backed certificates
# ---------------------------------------------------------------------------


def _commutant_projection(
    U: np.ndarray, p: PermutationSet, X: np.ndarray
) -> np.ndarray:
    """Orthogonal projection of X onto the commutant {X : R_g X R_g^T = X}
    of the generators' action R_g = U^T P_g U on the eigenspace.  This is the
    group average of R_h X R_h^T over all h, computed from generators only;
    it keeps X psd and keeps every orbit functional and the trace.
    kron(R, R) is formed by broadcasting: entry (i k + j, a k + b) is the
    one product R[i, a] R[j, b], as np.kron computes it, at a fraction of
    its call overhead."""
    k = U.shape[1]
    H = np.zeros((k * k, k * k))
    for sigma in p.gens:
        R = U.T @ U[np.array(sigma)]
        D = (R[:, None, :, None] * R[None, :, None, :]).reshape(k * k, k * k)
        D -= np.eye(k * k)
        H += D.T @ D
    vals, vecs = np.linalg.eigh(H)
    N = vecs[:, vals <= 1e-9 * max(1.0, float(vals[-1]))]
    return (N @ (N.T @ X.reshape(-1))).reshape(k, k)


def _sdp_embedding(g: Graph, U: np.ndarray, X: np.ndarray, lam: float) -> Embedding:
    """Embedding implied by a Gram matrix: factor X as V V^T and embed as
    U V (n x k at most).  Raises EigenvalueError when X has no positive
    eigenvalue, so there is no embedding to test."""
    vals, vecs = np.linalg.eigh((X + X.T) / 2.0)
    keep = vals > 1e-10 * max(float(np.maximum.reduce(vals)), 1e-30)
    if not np.logical_or.reduce(keep):
        raise EigenvalueError("the Gram matrix has no positive eigenvalue")
    V = vecs[:, keep] * np.sqrt(vals[keep])
    return make_embedding(g, U @ V, lam)


def _gram_certificate(
    g: Graph, U: np.ndarray, gram: LengthDecision, lam: float, iso_tol: float
) -> Certificate | None:
    emb = _sdp_embedding(g, U, gram.X, lam)
    extra = {"sdp_residual": gram.spread}
    return _verified_certificate(g, emb, "sdp_gram", {"X": gram.X}, iso_tol, extra)


def _decide(g: Graph, U: np.ndarray, group: _Group, tol: float) -> LengthDecision:
    """The equal-length decision on basis U.  Its blocks are the edge
    orbits of the group when U has k > 1 columns.  At k = 1 every
    automorphism maps the eigenvector u to +-u, so the edge lengths are
    already equal on each orbit and the per-edge decision is the block
    decision: the group is not read."""
    e = g.edge_array
    orb = group.orb() if U.shape[1] > 1 else None
    blocks = orb.edge_orbits if orb is not None and orb.num_edge_orbits < g.m else None
    return length_decision(U[e[:, 0]] - U[e[:, 1]], tol=tol, blocks=blocks)


def eigenvector_certificate(
    g: Graph,
    U: np.ndarray,
    lam: float,
    p: PermutationSet,
    orb: OrbitPartition,
    gram: LengthDecision,
    feas_tol: float = FEAS_TOL,
    iso_tol: float = ISO_TOL,
) -> Certificate | None:
    """An eigenvector phi = U a of lam's eigenspace (basis U) whose edge
    orbits orb, under the group p, have equal mean squared lengths
    (orbit_sums), embedded through the projection of a a^T onto the
    commutant.  gram is the rigid equal-length decision on those orbits.

    C_r = B_r^T B_r / |r| is orbit r's mean of b_e b_e^T (b_e = u_i - u_j).
    With one or two orbits the only equality besides the trace is
    a^T D a = 0 for D = C_2 - C_1 (D = 0 for one orbit), and a rank-one
    solution exists exactly when D is not definite (Pataki 1998).  It is
    read off D's extreme eigenpairs (mu, w): when mu_min < 0 < mu_max,
    a = sqrt(mu_max) w_min + sqrt(-mu_min) w_max over sqrt(mu_max - mu_min),
    else the eigenvector of the smaller |mu|; then a^T U^T U a = 1.  With
    three or more orbits a is gram's X itself when that has rank one.
    None when no such phi passes the orbit-sum and residual tests or the
    edge-length check of its embedding."""
    if orb.num_vertex_orbits != 1:
        raise NotVertexTransitiveError("supplied group is not vertex-transitive")
    if lam <= 0:
        raise EigenvalueError("certificate needs a positive eigenvalue")
    e = g.edge_array
    B = U[e[:, 0]] - U[e[:, 1]]
    C = [Br.T @ Br / len(Br) for Br in (B[list(r)] for r in orb.edge_orbits)]
    G = U.T @ U
    if len(C) <= 2:
        mu, W = np.linalg.eigh(C[-1] - C[0])
        if mu[0] < 0.0 < mu[-1]:
            a = np.sqrt(mu[-1]) * W[:, 0] + np.sqrt(-mu[0]) * W[:, -1]
            a /= np.sqrt(mu[-1] - mu[0])
        else:
            a = W[:, np.abs(mu).argmin()]
        a = a / np.sqrt(a @ G @ a)
    else:
        a = rank_one_vector(gram.X)
        if a is None:
            return None
    sums = [float(a @ Cr @ a) for Cr in C]
    spread = max(sums) - min(sums)
    # the residual of the trace and equal-sum constraints at a a^T
    residual = max(abs(float(a @ G @ a) - 1.0), *(abs(v - sums[0]) for v in sums))
    if not (
        residual <= 10 * feas_tol
        and spread <= 1e-8 * max(1.0, max(abs(v) for v in sums))
    ):
        return None
    return _verified_certificate(
        g,
        _sdp_embedding(g, U, _commutant_projection(U, p, a[:, None] * a), lam),
        "eigenvector",
        {"phi": U @ a, "orbit_sums": sums},
        iso_tol,
        extra_residuals={"orbit_sum_spread": spread, "sdp_residual": gram.spread},
    )


# ---------------------------------------------------------------------------
# Cartesian products
# ---------------------------------------------------------------------------


def product_rigidity(
    gG: Graph,
    gH: Graph,
    options: CheckOptions | None = None,
) -> Certificate | None:
    """Conformal rigidity of a Cartesian product from rigid factors with
    equal algebraic connectivity and equal avg-degree / (2 lambda_max),
    re-verified directly on the product graph.  Raises when a hypothesis
    fails (`product_embedding` tests both equalities); returns None when a
    factor cannot be certified."""
    from .embeddings import product_embedding

    options = options or CheckOptions()
    repG = check_conformal_rigidity(gG, options)
    # a repeated factor is checked once (equal graphs may differ in spec)
    same = gH == gG and gH.cayley_spec == gG.cayley_spec
    repH = repG if same else check_conformal_rigidity(gH, options)
    if not (repG.rigid and repH.rigid):
        return None

    def spherical(emb: Embedding, g: Graph) -> bool:
        prof = edge_length_profile(emb, g, tol=options.iso_tol)
        return prof.is_edge_isometric and prof.is_spherical

    def spherical_max_embedding(g: Graph, rep: RigidityReport) -> Embedding:
        emb = rep.upper.certificate.embedding
        if spherical(emb, g):
            return emb
        # the canonical embedding, on the report's own grouping
        dec = eigendecompose(g.unit_laplacian, group_tol=options.group_tol)
        try:
            emb = canonical_embedding(g, dec, rep.lambda_max)
        except EigenvalueError:
            pass
        else:
            if spherical(emb, g):
                return emb
        raise HypothesisViolatedError(
            "no spherical edge-isometric lambda_max embedding found"
        )

    lowG = repG.lower.certificate.embedding
    lowH = repH.lower.certificate.embedding
    prod, emb2 = product_embedding(
        gG, lowG, gH, lowH, mode="lambda2", iso_tol=options.iso_tol
    )
    maxG = spherical_max_embedding(gG, repG)
    maxH = spherical_max_embedding(gH, repH)
    _, embmax = product_embedding(
        gG, maxG, gH, maxH, mode="lambdamax", iso_tol=options.iso_tol
    )
    prof2 = edge_length_profile(emb2, prod, tol=options.iso_tol)
    profmax = edge_length_profile(embmax, prod, tol=options.iso_tol)
    if not (prof2.is_edge_isometric and profmax.is_edge_isometric):
        return None
    return Certificate(
        kind="product",
        eigenvalue=emb2.eigenvalue,
        embedding=emb2,
        payload={
            "lower_methods": (repG.lower.method, repH.lower.method),
            "upper_methods": (repG.upper.method, repH.upper.method),
            "lambda_max_product": embmax.eigenvalue,
        },
        residuals={
            "lambda2_edge_spread": float(prof2.lengths.max() - prof2.lengths.min()),
            "lambdamax_edge_spread": float(
                profmax.lengths.max() - profmax.lengths.min()
            ),
        },
    )


# ---------------------------------------------------------------------------
# top-level cascade
# ---------------------------------------------------------------------------


class _Group:
    """The automorphisms the cascade reads, built on first read.

    Supplied generators and a Cayley spec's orbits are taken up front, so a
    non-automorphism raises even when no end reads the group.  Otherwise
    the search runs the first time an end reads the orbits, and never above
    SEARCH_MAX_N.  A Cayley spec's translations are built only when the
    symmetrized SDP asks for the generators.  seconds is the time spent
    building, wherever it ran."""

    def __init__(self, g: Graph, generators: PermutationSet | None):
        self._g = g
        self._perms = generators
        self.partition: OrbitPartition | None = None  # None until built
        self.exhausted: bool | None = None  # None when no search ran
        self.seconds = 0.0
        # whether the first read of the orbits runs the search
        self._search = (
            generators is None and g.cayley_spec is None and g.n <= SEARCH_MAX_N
        )
        if generators is not None or g.cayley_spec is not None:
            t0 = time.perf_counter()
            if generators is not None:
                self.partition = orbits(g, generators)
            else:
                self.partition = cayley_orbits(g)
            self.seconds = time.perf_counter() - t0

    def orb(self) -> OrbitPartition | None:
        if self._search:
            self._search = False
            t0 = time.perf_counter()
            self._perms = find_automorphisms(self._g)
            self.exhausted = self._perms.exhausted
            self.partition = orbits(self._g, self._perms)
            self.seconds += time.perf_counter() - t0
        return self.partition

    def perms(self) -> PermutationSet | None:
        if self.orb() is not None and self._perms is None:
            t0 = time.perf_counter()
            self._perms = cayley_translations(self._g.cayley_spec)
            self.seconds += time.perf_counter() - t0
        return self._perms

    def vertex_transitive(self) -> bool:
        orb = self.orb()
        return orb is not None and orb.num_vertex_orbits == 1


def _falsify_end(
    g: Graph, end: str, lam: float, decision: LengthDecision
) -> tuple[FalsifierResult, bool]:
    """One line search along the decision's dual c from the unit value lam
    and whether its witness refutes rigidity: the first improving step,
    its value confirmed on a fresh L(w) by two Cholesky factorizations.  No
    solve recomputes lam."""
    step = line_search(g, end, decision.c, lam)
    return step, step.improved and reverify(g, step, lam)


def _certify_end(
    g: Graph,
    end: str,
    lam: float,
    decomposition: Callable[[], EigenspaceDecomposition],
    group: _Group,
    walk1: bool | None,
    table: CharacterTable | None,
    characters: np.ndarray | None,
    opts: CheckOptions,
) -> EndReport:
    """One end of the cascade.  decomposition returns the dense
    eigendecomposition, built on its first call, so an end the character LP
    certifies before any stage asks for it makes no dense eigensolve.  The
    group is read only by the EdgeTransitive label, by the decision at
    k > 1 and by the vertex-transitivity test of a rigid decision the LP
    did not refute.  characters are the table's characters of lam, grouped
    under the check's group_tol (None without a table)."""

    def certified(cert: Certificate | None, method: str) -> EndReport | None:
        return cert and EndReport(end, "certified", method, cert, None, cert.residuals)

    @functools.cache
    def canonical() -> Certificate | None:
        try:
            emb = canonical_embedding(g, decomposition(), lam)
        except EigenvalueError:
            return None
        return _verified_certificate(g, emb, "canonical_isometric", {}, opts.iso_tol)

    def labelled(kind: str, method: str) -> EndReport | None:
        """EdgeTransitive, OneWalkRegular and CanonicalIsometric share one
        test of the canonical embedding; only the label differs."""
        cert = canonical()
        return certified(cert and replace(cert, kind=kind), method)

    # with no table the canonical test goes first, so only an end it passes
    # reads the group; a table's spec orbits are already at hand.  The
    # projector U U^T commutes with every automorphism, so an edge-transitive
    # group makes the canonical embedding edge-isometric
    if opts.stage_enabled("edge_transitive") and (table is not None or canonical()):
        orb = group.orb()
        if orb is not None and orb.num_edge_orbits == 1:
            if found := labelled("edge_transitive", "EdgeTransitive"):
                return found

    lp = None if table is None else abelian_lp_certificate(table, characters)
    if lp is not None:
        cert = _lp_certificate(g, table, lp, lam, opts.iso_tol)
        if found := certified(cert, "CharacterLP"):
            return found
    # decisive: nothing certifies, and the falsifier refutes.  Not on a split
    # class: a group_tol below rounding can leave out characters of lam that
    # the default group_tol keeps, and the polytope of a part proves nothing
    lp_refuted = (
        lp is not None
        and lp.status == "not_in_polytope"
        and np.add.reduce(np.abs(table.eigenvalues - lam) <= default_group_tol(g.unit_laplacian))
        <= len(characters)
    )

    walk_label = opts.stage_enabled("walk_regular") and walk1
    if not lp_refuted and (walk_label or opts.stage_enabled("canonical")):
        kind = "one_walk_regular" if walk_label else "canonical_isometric"
        method = "OneWalkRegular" if walk_label else "CanonicalIsometric"
        if found := labelled(kind, method):
            return found

    U = decomposition().basis_for(lam)
    decision = _decide(g, U, group, opts.feas_tol)
    # both SDP stages certify from the end's one Gram matrix, a rigid
    # decision's X (none after a separating c or at the decision's cap)
    rigid = decision.status == "rigid" and not lp_refuted
    try:
        if rigid and opts.stage_enabled("symmetrized_sdp") and group.vertex_transitive():
            cert = eigenvector_certificate(
                g, U, lam, group.perms(), group.orb(), decision, opts.feas_tol, opts.iso_tol
            )
            if found := certified(cert, "Eigenvector"):
                return found
        if rigid and opts.stage_enabled("trivial_sdp"):  # the Gram matrix itself
            cert = _gram_certificate(g, U, decision, lam, opts.iso_tol)
            if found := certified(cert, "SdpGram"):
                return found
    except EigenvalueError:
        pass  # as at the LP: a merged eigenspace is no eigenspace of lam

    facts = decision.residuals()
    if table is None:
        raw = decomposition().raw_eigenvalues
    else:
        raw = table.eigenvalues.copy()
        raw.sort()
    # a rigid decision found equal lengths: there is no direction to follow
    if opts.stage_enabled("falsify") and decision.status != "rigid":
        # the end's own extreme raw eigenvalue, not the group mean lam
        unit = float(raw[1] if end == "lower" else raw[-1])
        wit, refutes = _falsify_end(g, end, unit, decision)
        if refutes:
            method = "CharacterLP+Falsifier" if lp_refuted else "Falsifier"
            # the margin is re-checkable: best_value against the unit value
            residuals = {"best_value": wit.best_value, "falsifier_unit": unit, **facts}
            return EndReport(end, "refuted", method, None, wit.best_w, residuals)
        # why this end stays undecided: how close the falsifier came
        facts = {**facts, "falsifier_best": wit.best_value, "falsifier_unit": unit}
    # a group_tol below rounding can split lam's eigenspace; say so at an open end
    near = int(np.add.reduce(np.abs(raw - lam) <= default_group_tol(g.unit_laplacian)))
    if near > U.shape[1]:
        facts = {**facts, "default_multiplicity": float(near)}
    residuals = {"lp_refuted": 1.0, **facts} if lp_refuted else facts
    return EndReport(end, "undecided", None, None, None, residuals)


def check_conformal_rigidity(g: Graph, options: CheckOptions | None = None) -> RigidityReport:
    """Run the certificate cascade at both spectrum ends.

    Stage order per end: edge-transitivity, character LP (abelian Cayley,
    decisive both ways), 1-walk regularity, canonical embedding, the
    equal-length decision (over the edge orbits when the end's eigenspace
    has k > 1, over single edges at k = 1), symmetrized SDP, the Gram
    certificate (stage `trivial_sdp`), falsifier.  The edge-transitivity,
    1-walk regularity and canonical stages share one test of the canonical
    embedding.  The decision runs at every end those stages leave open,
    whatever is skipped; both SDP stages certify from the end's one Gram
    matrix, the decision's when it is rigid.  A decision that finds a
    separating c skips both SDP stages; at every end it does not settle as
    rigid, the falsifier makes one line search along c.  No random numbers
    are drawn, so no verdict depends on a seed.
    walk1 comes from the eigenprojectors (no walk counts), and no group is
    listed.  An abelian Cayley graph with no supplied generators takes its
    orbits from its spec (`cayley_orbits`).  Any other graph with no
    supplied generators runs the automorphism search only when an end reads
    the group: the EdgeTransitive label of an end whose canonical test
    passes, a decision at k > 1, or a rigid decision's test for vertex
    transitivity.  When no end reads it, vertex_transitive, edge_orbits
    and search_exhausted are None.  With the character LP enabled,
    lambda_2, lambda_n and walk1 come from the characters at the generators
    (closed-form eigenvalues, projector entries summed over each
    eigenvalue's characters), and the dense eigendecomposition is built
    only for an end that needs it: the edge-transitive stage's canonical
    test, or an end the LP does not certify.  Both ends must certify for
    the headline verdict.
    """
    opts = options or CheckOptions()
    if not g.is_connected():
        raise DisconnectedError("conformal rigidity is defined for connected graphs")
    if g.n < 2:
        raise DisconnectedError("spectrum endpoints need n >= 2")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    decomposition = functools.cache(
        lambda: eigendecompose(g.unit_laplacian, group_tol=opts.group_tol)
    )
    table = lower_chars = upper_chars = None
    if opts.stage_enabled("character_lp") and g.cayley_spec is not None:
        table = character_spectrum(g.cayley_spec)  # shared by both ends
        values, order, cuts = character_eigenspaces(
            table, resolve_group_tol(g.unit_laplacian, opts.group_tol)
        )
        # each end's LP runs over the characters grouped into its eigenvalue
        lower_chars, upper_chars = order[cuts[1] : cuts[2]], order[cuts[-2] : cuts[-1]]
    else:
        values = decomposition().eigenvalues
    lam2 = float(values[1])
    lamn = float(values[-1])
    timings["spectrum"] = time.perf_counter() - t0

    group = _Group(g, opts.generators)
    timings["symmetry"] = group.seconds  # the final total is set below

    t0 = time.perf_counter()
    if table is not None:
        walk1 = character_walk1(table, order, cuts)
    elif g.is_regular():
        walk1 = canonical_walk1_check(g, decomposition())
    else:
        walk1 = None
    timings["walkreg"] = time.perf_counter() - t0

    def timed_end(end: str, lam: float, characters: np.ndarray | None) -> EndReport:
        t0, built = time.perf_counter(), group.seconds
        report = _certify_end(
            g, end, lam, decomposition, group, walk1, table, characters, opts
        )
        # the group's build time counts under "symmetry", not under the end
        # that triggered it
        timings[end] = time.perf_counter() - t0 - (group.seconds - built)
        return report

    lower = timed_end("lower", lam2, lower_chars)
    upper = timed_end("upper", lamn, upper_chars)
    timings["symmetry"] = group.seconds
    orb = group.partition

    return RigidityReport(
        graph_name=g.name,
        n=g.n,
        m=g.m,
        lambda2=lam2,
        lambda_max=lamn,
        lower=lower,
        upper=upper,
        walk1=walk1,
        vertex_transitive=None if orb is None else orb.num_vertex_orbits == 1,
        edge_orbits=None if orb is None else orb.num_edge_orbits,
        timings=timings,
        search_exhausted=group.exhausted,
    )
