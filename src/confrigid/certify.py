"""Positive certificates and the top-level rigidity pipeline.

A graph is lower (upper) conformally rigid iff it has an edge-isometric
embedding on the eigenspace of lambda_2 (lambda_n).  Every certificate
emitted here is re-verified by reconstructing a concrete embedding and
running the edge-length diagnostics; a certificate that fails re-verification
is never emitted.  Refutations always carry a normalized weight vector that
strictly beats the unit weights after an independent eigensolve.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from .embeddings import (
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
    NumericalRankAmbiguityError,
)
from .falsify import FalsifierResult, line_search, reverify
from .graphs import Graph
from .lp import phase1_feasibility
from .sdp import (
    LengthDecision,
    build_sdp_instance,
    length_decision,
    rank_one_vector,
    rank_reduce,
)
from .spectra import (
    CharacterTable,
    EigenspaceDecomposition,
    character_eigenspaces,
    character_spectrum,
    character_walk1,
    check_tolerance,
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
    iso_tol: float = 1e-7
    feas_tol: float = 1e-8
    generators: PermutationSet | None = None
    skip_stages: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        # a NaN tolerance fails every comparison, which leaves ends undecided
        check_tolerance("iso_tol", self.iso_tol)
        check_tolerance("feas_tol", self.feas_tol)
        if self.group_tol is not None:
            check_tolerance("group_tol", self.group_tol)

    def stage_enabled(self, name: str) -> bool:
        return name not in self.skip_stages


@dataclass(frozen=True)
class Certificate:
    kind: str
    end: str
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
    end: str,
    payload: dict,
    iso_tol: float,
    extra_residuals: dict | None = None,
) -> Certificate | None:
    prof = edge_length_profile(emb, g, tol=iso_tol)
    if not prof.is_edge_isometric:
        return None
    residuals = {
        "edge_length_spread": float(prof.lengths.max() - prof.lengths.min()),
        "edge_length": prof.c,
    }
    if extra_residuals:
        residuals.update(extra_residuals)
    return Certificate(
        kind=kind,
        end=end,
        eigenvalue=emb.eigenvalue,
        embedding=emb,
        payload=payload,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# character LP certificate (abelian Cayley graphs)
# ---------------------------------------------------------------------------


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

    Certified implies an edge-isometric embedding on that eigenspace exists;
    not_in_polytope (LP objective above 1e-7) implies none exists, hence at
    lambda_2 or lambda_n the graph is not rigid at that end; degenerate is
    an objective in (1e-9, 1e-7] or a solution that fails the substitution
    check.
    """
    idxs = sorted(int(k) for k in characters)
    # chi_Gamma / |Gamma| has entry s equal to conj(chi(s))
    V = np.conj(table.gen_chars[idxs])  # d x |S|
    d = len(idxs)
    res = phase1_feasibility(*character_lp_system(V))
    status = "not_in_polytope" if res.objective > 1e-7 else "degenerate"
    if res.objective <= 1e-9:
        c = np.clip(res.x[:d], 0.0, None)
        c = c / c.sum()
        t = float(res.x[d] - res.x[d + 1])
        if np.max(np.abs(c @ V - t)) <= 1e-7:  # substitution check
            # does a single real eigenvector achieve it, or only a complex combination?
            support = [k for k, ck in zip(idxs, c) if ck > 1e-10]
            complex_only = bool(np.all(np.max(np.abs(table.rows(support).imag), axis=1) > 1e-9))
            return LpCertificateResult(
                status="certified",
                coefficients=c,
                character_indices=tuple(idxs),
                t=t,
                lp_objective=res.objective,
                complex_only=complex_only,
            )
    return LpCertificateResult(
        status=status,
        coefficients=None,
        character_indices=tuple(idxs),
        t=None,
        lp_objective=res.objective,
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
    ks = [k for ck, k in zip(lp.coefficients, lp.character_indices) if ck > 0]
    cols = []
    for ck, row in zip(lp.coefficients[lp.coefficients > 0], table.rows(ks)):
        chi = np.sqrt(ck) * row
        cols += [chi.real, chi.imag]
    P = np.stack(cols, axis=1)
    keep = np.linalg.norm(P, axis=0) > 1e-12
    return make_embedding(g, P[:, keep], lam, source="character-lp")


# ---------------------------------------------------------------------------
# SDP-backed certificates
# ---------------------------------------------------------------------------


def _commutant_projection(
    U: np.ndarray, p: PermutationSet, X: np.ndarray
) -> np.ndarray:
    """Orthogonal projection of X onto the commutant {X : R_g X R_g^T = X}
    of the generators' action R_g = U^T P_g U on the eigenspace.  This is the
    group average of R_h X R_h^T over all h, computed from generators only;
    it keeps X psd and keeps every orbit functional and the trace."""
    k = U.shape[1]
    H = np.zeros((k * k, k * k))
    for sigma in p.gens:
        R = U.T @ U[np.array(sigma)]
        D = np.kron(R, R) - np.eye(k * k)
        H += D.T @ D
    vals, vecs = np.linalg.eigh(H)
    N = vecs[:, vals <= 1e-9 * max(1.0, float(vals[-1]))]
    return (N @ (N.T @ X.reshape(-1))).reshape(k, k)


def _sdp_embedding(g: Graph, U: np.ndarray, X: np.ndarray, lam: float) -> Embedding:
    """Embedding implied by a Gram matrix: factor X as V V^T and embed as
    U V (n x k at most)."""
    vals, vecs = np.linalg.eigh((X + X.T) / 2.0)
    keep = vals > 1e-10 * max(float(vals.max()), 1e-30)
    V = vecs[:, keep] * np.sqrt(vals[keep])
    return make_embedding(g, U @ V, lam, source="sdp-gram")


def _gram_certificate(
    g: Graph, U: np.ndarray, gram: LengthDecision, lam: float, end: str, iso_tol: float
) -> Certificate | None:
    emb = _sdp_embedding(g, U, gram.X, lam)
    extra = {"sdp_residual": gram.spread}
    return _verified_certificate(g, emb, "sdp_gram", end, {"X": gram.X}, iso_tol, extra)


def _decide(
    g: Graph, U: np.ndarray, orb: OrbitPartition | None, tol: float
) -> LengthDecision:
    """The equal-length decision on basis U over the edge orbits of orb."""
    e = g.edge_array
    blocks = orb.edge_orbits if orb is not None and orb.num_edge_orbits < g.m else None
    return length_decision(U[e[:, 0]] - U[e[:, 1]], tol=tol, blocks=blocks)


def eigenvector_certificate(
    g: Graph,
    U: np.ndarray,
    lam: float,
    p: PermutationSet,
    orb: OrbitPartition,
    gram: LengthDecision,
    feas_tol: float = 1e-8,
    iso_tol: float = 1e-7,
    end: str = "lower",
) -> Certificate | None:
    """Rank reduction of the X of gram, the rigid equal-length decision on
    basis U of lam's eigenspace over the edge orbits orb of the group p: a
    rank-one a a^T yields an eigenvector phi = U a whose edge orbits have
    equal mean squared lengths (orbit_sums), embedded through its
    projection onto the commutant.  None when no such phi passes."""
    if orb.num_vertex_orbits != 1:
        raise NotVertexTransitiveError("supplied group is not vertex-transitive")
    if lam <= 0:
        raise EigenvalueError("certificate needs a positive eigenvalue")
    inst = build_sdp_instance(g, U, p, orb)
    try:
        Xr = rank_reduce(gram.X, inst)
    except NumericalRankAmbiguityError:
        Xr = gram.X
    a = rank_one_vector(Xr)
    if a is None:
        return None
    aa = np.outer(a, a)
    sums = [float(np.tensordot(C, aa)) for C in inst.orbit_mats]
    spread = max(sums) - min(sums)
    if not (
        inst.residual(aa) <= 10 * feas_tol
        and spread <= 1e-8 * max(1.0, max(abs(v) for v in sums))
    ):
        return None
    return _verified_certificate(
        g,
        _sdp_embedding(g, U, _commutant_projection(U, p, aa), lam),
        "eigenvector",
        end,
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
    fails; returns None when a factor cannot be certified."""
    from .embeddings import product_embedding

    options = options or CheckOptions()
    repG = check_conformal_rigidity(gG, options)
    repH = check_conformal_rigidity(gH, options)
    if not (repG.rigid and repH.rigid):
        return None
    if abs(repG.lambda2 - repH.lambda2) > 1e-8 * (1.0 + abs(repG.lambda2)):
        raise HypothesisViolatedError(
            f"lambda_2 mismatch: {repG.lambda2} vs {repH.lambda2}"
        )
    dG = 2.0 * gG.m / gG.n
    dH = 2.0 * gH.m / gH.n
    rG = dG / (2.0 * repG.lambda_max)
    rH = dH / (2.0 * repH.lambda_max)
    if abs(rG - rH) > 1e-8 * (1.0 + rG):
        raise HypothesisViolatedError(
            f"avg-degree/(2 lambda_max) mismatch: {rG} vs {rH}"
        )

    def spherical_max_embedding(g: Graph, rep: RigidityReport) -> Embedding:
        candidates = [rep.upper.certificate.embedding]
        dec = eigendecompose(g.unit_laplacian)
        try:
            candidates.append(canonical_embedding(g, dec, rep.lambda_max))
        except EigenvalueError:
            pass
        for emb in candidates:
            prof = edge_length_profile(emb, g, tol=options.iso_tol)
            if prof.is_edge_isometric and prof.is_spherical:
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
        end="both",
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


def _falsify_end(
    g: Graph, end: str, lam: float, decision: LengthDecision
) -> tuple[FalsifierResult, bool]:
    """One line search along the decision's dual c from the unit value lam
    and whether its witness refutes rigidity: the first improving step,
    confirmed by one fresh eigensolve.  No solve recomputes lam."""
    step = line_search(g, end, decision.c, lam)
    return step, step.improved and reverify(g, step, lam)


def _certify_end(
    g: Graph,
    end: str,
    lam: float,
    decomposition: Callable[[], EigenspaceDecomposition],
    perms: PermutationSet | None,
    orb: OrbitPartition | None,
    walk1: bool | None,
    table: CharacterTable | None,
    characters: np.ndarray | None,
    opts: CheckOptions,
) -> EndReport:
    """One end of the cascade.  decomposition returns the dense
    eigendecomposition, built on its first call, so an end the character LP
    certifies before any stage asks for it makes no dense eigensolve.
    characters are the table's characters of lam, grouped under the check's
    group_tol (None without a table)."""
    lp_refuted = False

    @functools.cache
    def canonical() -> Certificate | None:
        try:
            emb = canonical_embedding(g, decomposition(), lam)
        except EigenvalueError:
            return None
        return _verified_certificate(
            g, emb, "canonical_isometric", end, {}, opts.iso_tol
        )

    def canonical_report(kind: str, method: str) -> EndReport | None:
        """EdgeTransitive, OneWalkRegular and CanonicalIsometric share one
        test of the canonical embedding; only the label differs."""
        cert = canonical()
        if cert is None:
            return None
        cert = replace(cert, kind=kind)
        return EndReport(end, "certified", method, cert, None, cert.residuals)

    if (
        opts.stage_enabled("edge_transitive")
        and orb is not None
        and orb.num_edge_orbits == 1
    ):
        # the projector U U^T commutes with every automorphism, so an
        # edge-transitive group makes the canonical embedding edge-isometric
        found = canonical_report("edge_transitive", "EdgeTransitive")
        if found is not None:
            return found

    if table is not None:
        lp = abelian_lp_certificate(table, characters)
        if lp.status == "certified":
            try:
                emb = lp_certificate_embedding(g, table, lp, lam)
            except EigenvalueError:
                # under a coarse group_tol a class can merge characters of
                # distinct eigenvalues, and their combination is then no
                # eigenvector of lam: no certificate
                cert = None
            else:
                cert = _verified_certificate(
                    g,
                    emb,
                    "character_lp",
                    end,
                    {
                        "coefficients": lp.coefficients,
                        "character_indices": list(lp.character_indices),
                        "t": lp.t,
                        "complex_only": lp.complex_only,
                    },
                    opts.iso_tol,
                    extra_residuals={"lp_objective": lp.lp_objective},
                )
            if cert is not None:
                return EndReport(
                    end, "certified", "CharacterLP", cert, None, cert.residuals
                )
        elif lp.status == "not_in_polytope":
            lp_refuted = True  # decisive: nothing certifies; the falsifier refutes

    if not lp_refuted:
        found = None
        if opts.stage_enabled("walk_regular") and walk1:
            found = canonical_report("one_walk_regular", "OneWalkRegular")
        elif opts.stage_enabled("canonical"):
            found = canonical_report("canonical_isometric", "CanonicalIsometric")
        if found is not None:
            return found

    U = decomposition().basis_for(lam)
    decision = _decide(g, U, orb, opts.feas_tol)

    # both SDP stages certify from the end's one Gram matrix, a rigid
    # decision's X (none after a separating c or at the decision's cap)
    vt = orb is not None and orb.num_vertex_orbits == 1
    symmetrized = vt and opts.stage_enabled("symmetrized_sdp")
    gram_stage = symmetrized or opts.stage_enabled("trivial_sdp")
    if decision.status == "rigid" and not lp_refuted and gram_stage:
        try:
            cert = None
            if symmetrized:
                cert = eigenvector_certificate(
                    g, U, lam, perms, orb, decision, opts.feas_tol, opts.iso_tol, end
                )
            if cert is None:  # no rank-one phi: the Gram matrix itself
                cert = _gram_certificate(g, U, decision, lam, end, opts.iso_tol)
        except EigenvalueError:
            cert = None  # as at the LP: a merged eigenspace is no eigenspace of lam
        if cert is not None:
            method = "Eigenvector" if cert.kind == "eigenvector" else "SdpGram"
            return EndReport(end, "certified", method, cert, None, cert.residuals)

    facts = decision.residuals()
    residuals = {"lp_refuted": 1.0} if lp_refuted else {}
    residuals.update(facts)
    # a rigid decision found equal lengths: there is no direction to follow
    if opts.stage_enabled("falsify") and decision.status != "rigid":
        wit, refutes = _falsify_end(g, end, lam, decision)
        if refutes:
            method = "CharacterLP+Falsifier" if lp_refuted else "Falsifier"
            return EndReport(
                end,
                "refuted",
                method,
                None,
                wit.best_w,
                # the margin is re-checkable: best_value against the unit value
                {"best_value": wit.best_value, "falsifier_unit": lam, **facts},
            )
        # why this end stays undecided: how close the falsifier came
        residuals.update(falsifier_best=wit.best_value, falsifier_unit=lam)

    return EndReport(end, "undecided", None, None, None, residuals)


def check_conformal_rigidity(g: Graph, options: CheckOptions | None = None) -> RigidityReport:
    """Run the certificate cascade at both spectrum ends.

    Stage order per end: edge-transitivity, character LP (abelian Cayley,
    decisive both ways), 1-walk regularity, canonical embedding, the
    equal-length decision on the edge orbits, symmetrized SDP, the Gram
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
    orbits from its spec (`cayley_orbits`).  With the character LP enabled,
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

    t0 = time.perf_counter()
    perms, search_exhausted = opts.generators, None
    if perms is None and g.cayley_spec is not None:
        # the translations, whose orbits follow from the spec
        perms, orb = cayley_translations(g.cayley_spec), cayley_orbits(g)
    else:
        if perms is None and g.n <= SEARCH_MAX_N:
            perms = find_automorphisms(g)
            search_exhausted = perms.exhausted
        orb = orbits(g, perms) if perms is not None else None
    timings["symmetry"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if table is not None:
        walk1 = character_walk1(table, order, cuts)
    elif g.is_regular():
        walk1 = canonical_walk1_check(g, decomposition())
    else:
        walk1 = None
    timings["walkreg"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lower = _certify_end(
        g, "lower", lam2, decomposition, perms, orb, walk1, table, lower_chars, opts
    )
    timings["lower"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    upper = _certify_end(
        g, "upper", lamn, decomposition, perms, orb, walk1, table, upper_chars, opts
    )
    timings["upper"] = time.perf_counter() - t0

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
        search_exhausted=search_exhausted,
    )
