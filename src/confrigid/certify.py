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
from .falsify import FalsifierResult, random_weight_search, reverify, subgradient_ascent
from .graphs import CayleySpec, Graph, laplacian
from .lp import phase1_feasibility
from .sdp import (
    SdpInstance,
    SdpResult,
    build_sdp_instance,
    rank_one_vector,
    rank_reduce,
    sdp_feasibility,
)
from .spectra import (
    CharacterTable,
    EigenspaceDecomposition,
    character_spectrum,
    characters_for_eigenvalue,
    eigendecompose,
)
from .symmetry import (
    OrbitPartition,
    PermutationSet,
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
    trials: int = 1000
    steps: int = 500
    seed: int = 0
    generators: PermutationSet | None = None
    skip_stages: frozenset = field(default_factory=frozenset)

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
    seed: int
    timings: dict

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
            "rigid": self.rigid,
            "seed": self.seed,
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
    spec: CayleySpec,
    lam: float,
    table: CharacterTable | None = None,
    char_tol: float = 1e-8,
) -> LpCertificateResult:
    """Decide whether the constant line meets the character polytope for the
    eigenspace of lam: find convex weights c over the characters of lam and a
    real t with sum_j c_j * chi^j_Gamma = t * 1.

    Certified implies an edge-isometric embedding on that eigenspace exists;
    NotInPolytope implies none exists, hence at lambda_2 or lambda_n the
    graph is not rigid at that end.
    """
    if table is None:
        table = character_spectrum(spec)
    idxs = characters_for_eigenvalue(table, lam, tol=char_tol)
    gen_idx = [spec.index_of(s) for s in spec.gens]
    # chi_Gamma / |Gamma| has entry s equal to conj(chi(s))
    V = np.conj(table.chars[np.ix_(idxs, gen_idx)])  # d x |S|
    d = len(idxs)
    # variables: c_1..c_d, t_plus, t_minus (all >= 0)
    rows, rhs = [], []
    for col in range(len(gen_idx)):
        rows.append(np.concatenate([V[:, col].real, [-1.0, 1.0]]))
        rhs.append(0.0)
        rows.append(np.concatenate([V[:, col].imag, [0.0, 0.0]]))
        rhs.append(0.0)
    rows.append(np.concatenate([np.ones(d), [0.0, 0.0]]))
    rhs.append(1.0)
    res = phase1_feasibility(np.stack(rows), np.array(rhs))
    if res.objective > 1e-7:
        return LpCertificateResult(
            status="not_in_polytope",
            coefficients=None,
            character_indices=tuple(idxs),
            t=None,
            lp_objective=res.objective,
        )
    if res.objective > 1e-9:
        return LpCertificateResult(
            status="degenerate",
            coefficients=None,
            character_indices=tuple(idxs),
            t=None,
            lp_objective=res.objective,
        )
    c = np.clip(res.x[:d], 0.0, None)
    c = c / c.sum()
    t = float(res.x[d] - res.x[d + 1])
    # substitution check
    combo = c @ V
    if np.max(np.abs(combo - t)) > 1e-7:
        return LpCertificateResult(
            status="degenerate",
            coefficients=None,
            character_indices=tuple(idxs),
            t=None,
            lp_objective=res.objective,
        )
    # does a single real eigenvector achieve it, or only a complex combination?
    support = [k for k, ck in zip(idxs, c) if ck > 1e-10]
    complex_only = all(np.max(np.abs(table.chars[k].imag)) > 1e-9 for k in support)
    return LpCertificateResult(
        status="certified",
        coefficients=c,
        character_indices=tuple(idxs),
        t=t,
        lp_objective=res.objective,
        complex_only=complex_only,
    )


def lp_certificate_embedding(
    spec: CayleySpec, lam: float, lp: LpCertificateResult, g: Graph
) -> Embedding:
    """Concrete embedding implied by a certified LP solution: the n x 2d
    columns sqrt(c_j) * [Re chi^j, Im chi^j].  Its Gram matrix is that of the
    group-symmetrized phi = sum_j sqrt(c_j) chi^j divided by the group order."""
    table = character_spectrum(spec)
    cols = []
    for ck, k in zip(lp.coefficients, lp.character_indices):
        if ck > 0:
            chi = np.sqrt(ck) * table.chars[k]
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


def _sdp_embedding(
    g: Graph,
    inst: SdpInstance,
    X: np.ndarray,
    lam: float,
    p: PermutationSet | None,
) -> Embedding:
    """Embedding implied by a feasible Gram matrix: project X onto the
    commutant of the group when one is attached, factor the result as
    V V^T and embed as U V (n x k at most)."""
    if p is not None:
        X = _commutant_projection(inst.U, p, X)
    vals, vecs = np.linalg.eigh((X + X.T) / 2.0)
    keep = vals > 1e-10 * max(float(vals.max()), 1e-30)
    V = vecs[:, keep] * np.sqrt(vals[keep])
    source = "sdp-gram" if p is None else "sdp-gram-symmetrized"
    return make_embedding(g, inst.U @ V, lam, source=source)


def _gram_certificate(
    g: Graph,
    inst: SdpInstance,
    res: SdpResult,
    lam: float,
    p: PermutationSet | None,
    end: str,
    iso_tol: float,
) -> Certificate | None:
    if res.status != "feasible":
        return None
    return _verified_certificate(
        g,
        _sdp_embedding(g, inst, res.X, lam, p),
        "sdp_gram",
        end,
        {"X": res.X},
        iso_tol,
        extra_residuals={"sdp_residual": res.residual},
    )


def eigenvector_certificate(
    g: Graph,
    dec: EigenspaceDecomposition,
    lam: float,
    p: PermutationSet,
    feas_tol: float = 1e-8,
    max_iter: int = 5000,
    iso_tol: float = 1e-7,
    end: str = "lower",
) -> Certificate | None:
    """Symmetrized SDP feasibility followed by rank reduction; a rank-one
    solution a a^T yields an eigenvector phi = U a with constant orbit sums
    (the instance functionals at a a^T), otherwise the Gram certificate
    itself is returned (still valid for rigidity)."""
    orb = orbits(g, p)
    if orb.num_vertex_orbits != 1:
        raise NotVertexTransitiveError("supplied group is not vertex-transitive")
    if lam <= 0:
        raise EigenvalueError("certificate needs a positive eigenvalue")
    U = dec.basis_for(lam)
    inst = build_sdp_instance(g, U, p, orb)
    res = sdp_feasibility(inst, tol=feas_tol, max_iter=max_iter)
    if res.status != "feasible":
        return None
    try:
        Xr = rank_reduce(res.X, inst, tol=feas_tol)
    except NumericalRankAmbiguityError:
        Xr = res.X
    a = rank_one_vector(Xr)
    if a is not None:
        aa = np.outer(a, a)
        sums = [float(np.tensordot(C, aa)) for C in inst.orbit_mats]
        spread = max(sums) - min(sums)
        if inst.residual(aa) <= 10 * feas_tol and spread <= 1e-8 * max(
            1.0, max(abs(v) for v in sums)
        ):
            cert = _verified_certificate(
                g,
                _sdp_embedding(g, inst, aa, lam, p),
                "eigenvector",
                end,
                {"phi": U @ a, "orbit_sums": sums},
                iso_tol,
                extra_residuals={
                    "orbit_sum_spread": spread,
                    "sdp_residual": res.residual,
                },
            )
            if cert is not None:
                return cert
    return _gram_certificate(g, inst, res, lam, p, end, iso_tol)


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
        dec = eigendecompose(laplacian(g))
        try:
            candidates.append(canonical_embedding(g, dec, rep.lambda_max))
        except EigenvalueError:
            pass
        for emb in candidates:
            prof = edge_length_profile(emb, g)
            if prof.is_edge_isometric and prof.is_spherical:
                return emb
        raise HypothesisViolatedError(
            "no spherical edge-isometric lambda_max embedding found"
        )

    lowG = repG.lower.certificate.embedding
    lowH = repH.lower.certificate.embedding
    prod, emb2 = product_embedding(gG, lowG, gH, lowH, mode="lambda2")
    maxG = spherical_max_embedding(gG, repG)
    maxH = spherical_max_embedding(gH, repH)
    _, embmax = product_embedding(gG, maxG, gH, maxH, mode="lambdamax")
    prof2 = edge_length_profile(emb2, prod)
    profmax = edge_length_profile(embmax, prod)
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


def _falsify_end(g: Graph, end: str, opts: CheckOptions) -> FalsifierResult | None:
    best: FalsifierResult | None = None
    if opts.trials > 0:
        best = random_weight_search(g, end, trials=opts.trials, seed=opts.seed)
    if opts.steps > 0:
        start = best.best_w if (best is not None and best.improved) else None
        asc = subgradient_ascent(
            g, end, start_w=start, steps=opts.steps, seed=opts.seed + 1
        )
        if best is None or (
            asc.best_value > best.best_value
            if end == "lower"
            else asc.best_value < best.best_value
        ):
            best = asc
    if best is not None and best.improved and reverify(g, best):
        return best
    return None


def _certify_end(
    g: Graph,
    end: str,
    lam: float,
    dec: EigenspaceDecomposition,
    perms: PermutationSet | None,
    orb: OrbitPartition | None,
    walk1: bool | None,
    opts: CheckOptions,
) -> EndReport:
    spec = g.cayley_spec
    lp_refuted = False

    @functools.cache
    def canonical() -> Certificate | None:
        try:
            emb = canonical_embedding(g, dec, lam)
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

    if opts.stage_enabled("character_lp") and spec is not None:
        lp = abelian_lp_certificate(spec, lam)
        if lp.status == "certified":
            emb = lp_certificate_embedding(spec, lam, lp, g)
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
            lp_refuted = True  # decisive: go straight to the falsifier for a witness

    if not lp_refuted:
        found = None
        if opts.stage_enabled("walk_regular") and walk1:
            found = canonical_report("one_walk_regular", "OneWalkRegular")
        elif opts.stage_enabled("canonical"):
            found = canonical_report("canonical_isometric", "CanonicalIsometric")
        if found is not None:
            return found

        if (
            opts.stage_enabled("symmetrized_sdp")
            and orb is not None
            and orb.num_vertex_orbits == 1
        ):
            cert = eigenvector_certificate(
                g,
                dec,
                lam,
                perms,
                feas_tol=opts.feas_tol,
                iso_tol=opts.iso_tol,
                end=end,
            )
            if cert is not None:
                method = "Eigenvector" if cert.kind == "eigenvector" else "SdpGram"
                return EndReport(end, "certified", method, cert, None, cert.residuals)

        if opts.stage_enabled("trivial_sdp"):
            inst = build_sdp_instance(g, dec.basis_for(lam))
            res = sdp_feasibility(inst, tol=opts.feas_tol)
            cert = _gram_certificate(g, inst, res, lam, None, end, opts.iso_tol)
            if cert is not None:
                return EndReport(
                    end, "certified", "SdpGram", cert, None, cert.residuals
                )

    if opts.stage_enabled("falsify"):
        wit = _falsify_end(g, end, opts)
        if wit is not None:
            method = "CharacterLP+Falsifier" if lp_refuted else "Falsifier"
            return EndReport(
                end,
                "refuted",
                method,
                None,
                wit.best_w,
                {"best_value": wit.best_value},
            )

    residuals = {"lp_refuted": 1.0} if lp_refuted else {}
    return EndReport(end, "undecided", None, None, None, residuals)


def check_conformal_rigidity(g: Graph, options: CheckOptions | None = None) -> RigidityReport:
    """Run the certificate cascade at both spectrum ends.

    Stage order per end: edge-transitivity, character LP (abelian Cayley,
    decisive both ways), 1-walk regularity, canonical embedding, symmetrized
    SDP, trivial-group SDP, falsifier.  The edge-transitivity, 1-walk
    regularity and canonical stages share one test of the canonical
    embedding.  walk1 comes from the eigenprojectors (no walk counts), and
    no group is listed.  Both ends must certify for the headline verdict.
    """
    opts = options or CheckOptions()
    if not g.is_connected():
        raise DisconnectedError("conformal rigidity is defined for connected graphs")
    if g.n < 2:
        raise DisconnectedError("spectrum endpoints need n >= 2")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    L = laplacian(g)
    dec = eigendecompose(L, group_tol=opts.group_tol)
    lam2 = float(dec.eigenvalues[1])
    lamn = float(dec.eigenvalues[-1])
    timings["spectrum"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    perms = opts.generators
    if perms is None:
        if g.cayley_spec is not None:
            perms = cayley_translations(g.cayley_spec)
        elif g.n <= 512:
            perms = find_automorphisms(g)
    orb = orbits(g, perms) if perms is not None else None
    timings["symmetry"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    walk1 = canonical_walk1_check(g, dec) if g.is_regular() else None
    timings["walkreg"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lower = _certify_end(g, "lower", lam2, dec, perms, orb, walk1, opts)
    timings["lower"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    upper = _certify_end(g, "upper", lamn, dec, perms, orb, walk1, opts)
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
        seed=opts.seed,
        timings=timings,
    )
