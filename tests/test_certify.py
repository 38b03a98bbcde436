"""Certificate layer: LP decisions, SDP-backed certificates, product theorem,
and the full cascade."""

import numpy as np
import pytest

from confrigid import certify
from confrigid.catalog import catalog
from confrigid.certify import (
    STAGES,
    CheckOptions,
    abelian_lp_certificate,
    check_conformal_rigidity,
    eigenvector_certificate,
    lp_certificate_embedding,
    product_rigidity,
)
from confrigid.embeddings import edge_length_profile
from confrigid.errors import (
    DisconnectedError,
    HypothesisViolatedError,
    NotVertexTransitiveError,
)
from confrigid.graphs import Graph, cartesian_product, circulant, laplacian
from confrigid.spectra import eigendecompose
from confrigid.symmetry import PermutationSet, cayley_translations


def test_lp_certifies_circulant_18_1_5_both_ends():
    g = circulant(18, {1, 5})
    dec = eigendecompose(laplacian(g))
    for lam in (dec.eigenvalues[1], dec.eigenvalues[-1]):
        lp = abelian_lp_certificate(g.cayley_spec, lam)
        assert lp.status == "certified"
        assert np.all(lp.coefficients >= -1e-12)
        assert lp.coefficients.sum() == pytest.approx(1.0)
        emb = lp_certificate_embedding(g.cayley_spec, lam, lp, g)
        assert edge_length_profile(emb, g).is_edge_isometric
        assert emb.points.shape[0] == 18
        assert emb.dim <= 2 * len(lp.character_indices)


def test_lp_rejects_triangular_prism_as_cayley_graph():
    # the triangular prism is Cay(Z_6, {2, 3, 4}); rigidity fails at lambda_2
    g = circulant(6, {2, 3})
    assert g.m == 9 and g.degrees().tolist() == [3] * 6
    dec = eigendecompose(laplacian(g))
    lp = abelian_lp_certificate(g.cayley_spec, dec.eigenvalues[1])
    assert lp.status == "not_in_polytope"


def test_eigenvector_certificate_circulant():
    g = circulant(18, {1, 5})
    dec = eigendecompose(laplacian(g))
    p = cayley_translations(g.cayley_spec)
    cert = eigenvector_certificate(g, dec, dec.eigenvalues[1], p)
    assert cert is not None
    assert cert.kind == "eigenvector"
    phi = np.asarray(cert.payload["phi"])
    s1 = sum(phi[i] * phi[(i + 1) % 18] for i in range(18))
    s5 = sum(phi[i] * phi[(i + 5) % 18] for i in range(18))
    assert abs(s1 - s5) <= 1e-8 * float(phi @ phi)


def _petersen_prism():
    return cartesian_product(catalog("petersen"), catalog("path_2"))


def test_symmetrized_sdp_stage_petersen_prism():
    # vertex-transitive with two edge orbits and a non-isometric canonical
    # embedding at lambda_2: the symmetrized SDP certifies that end
    g = _petersen_prism()
    rep = check_conformal_rigidity(g)
    assert rep.edge_orbits == 2 and rep.vertex_transitive
    assert rep.lower.method == "Eigenvector"
    mult = eigendecompose(laplacian(g)).basis_for(rep.lambda2).shape[1]
    assert rep.lower.certificate.embedding.dim <= mult
    assert edge_length_profile(rep.lower.certificate.embedding, g).is_edge_isometric
    assert rep.upper.method == "Falsifier"


def test_iso_tol_reaches_symmetrized_sdp_stage(monkeypatch):
    seen = []

    def spy(emb, g, tol=1e-7):
        seen.append(tol)
        return edge_length_profile(emb, g, tol=tol)

    monkeypatch.setattr(certify, "edge_length_profile", spy)
    opts = CheckOptions(
        iso_tol=3e-7, skip_stages=frozenset(STAGES) - {"symmetrized_sdp"}
    )
    rep = check_conformal_rigidity(_petersen_prism(), opts)
    assert rep.lower.method == "Eigenvector"
    assert set(seen) == {3e-7}


def test_complete_10_with_supplied_generators_is_edge_transitive():
    # S_10 from a transposition and a 10-cycle: 10! elements, never listed
    gens = PermutationSet(
        10, ((1, 0) + tuple(range(2, 10)), tuple(range(1, 10)) + (0,))
    )
    opts = CheckOptions(generators=gens)
    rep = check_conformal_rigidity(catalog("complete_10"), opts)
    assert rep.rigid
    assert rep.lower.method == "EdgeTransitive"
    assert rep.upper.method == "EdgeTransitive"
    assert rep.lower.certificate.embedding.dim == 9


def test_eigenvector_certificate_requires_transitive_group():
    g = catalog("path_4")
    dec = eigendecompose(laplacian(g))
    from confrigid.symmetry import PermutationSet

    p = PermutationSet(n=4, gens=((3, 2, 1, 0),))
    with pytest.raises(NotVertexTransitiveError):
        eigenvector_certificate(g, dec, dec.eigenvalues[1], p)


def test_full_pipeline_verdicts():
    cases = {
        "hoffman": ("certified", "certified"),
        "petersen": ("certified", "certified"),
        "triangular_prism": ("refuted", "refuted"),
    }
    for name, (lo, up) in cases.items():
        rep = check_conformal_rigidity(catalog(name))
        assert rep.lower.verdict == lo, name
        assert rep.upper.verdict == up, name


def test_pipeline_methods():
    rep = check_conformal_rigidity(catalog("hoffman"))
    assert rep.lower.method == "OneWalkRegular"
    assert not rep.vertex_transitive
    rep = check_conformal_rigidity(catalog("petersen"))
    assert rep.lower.method == "EdgeTransitive"
    rep = check_conformal_rigidity(circulant(18, {1, 5}))
    assert rep.lower.method in ("CharacterLP", "Eigenvector")
    assert rep.upper.method in ("CharacterLP", "Eigenvector")


def test_refuted_reports_carry_verified_witness():
    rep = check_conformal_rigidity(catalog("triangular_prism"))
    for er in (rep.lower, rep.upper):
        assert er.verdict == "refuted"
        assert er.witness is not None
        assert np.all(er.witness >= 0)
        assert er.witness.sum() == pytest.approx(rep.m, abs=1e-6)


def test_lp_negative_routes_to_falsifier_method():
    rep = check_conformal_rigidity(circulant(6, {2, 3}))
    assert rep.lower.verdict == "refuted"
    assert rep.lower.method == "CharacterLP+Falsifier"


def test_stage_skipping_changes_method():
    g = catalog("petersen")
    opts = CheckOptions(skip_stages=frozenset({"edge_transitive"}))
    rep = check_conformal_rigidity(g, opts)
    assert rep.lower.verdict == "certified"
    assert rep.lower.method != "EdgeTransitive"


def test_skipping_everything_gives_undecided():
    g = catalog("petersen")
    opts = CheckOptions(skip_stages=frozenset(
        {"edge_transitive", "character_lp", "walk_regular", "canonical",
         "symmetrized_sdp", "trivial_sdp", "falsify"}
    ))
    rep = check_conformal_rigidity(g, opts)
    assert rep.lower.verdict == "undecided"
    assert rep.upper.verdict == "undecided"


def test_disconnected_rejected():
    for g in (Graph(4, ((0, 1), (2, 3))), Graph(1, ())):
        with pytest.raises(DisconnectedError):
            check_conformal_rigidity(g)


def test_complete_bipartite_6_7_is_edge_transitive():
    rep = check_conformal_rigidity(catalog("complete_bipartite_6_7"))
    assert rep.edge_orbits == 1
    assert rep.lower.method == "EdgeTransitive"
    assert rep.upper.method == "EdgeTransitive"


def test_product_rigidity_c4_c4_and_k3_k3():
    c4 = catalog("cycle_4")
    k3 = catalog("complete_3")
    cert = product_rigidity(c4, c4)
    assert cert is not None and cert.kind == "product"
    cert = product_rigidity(k3, k3)
    assert cert is not None and cert.kind == "product"


def test_product_rigidity_rejects_c4_c6():
    with pytest.raises(HypothesisViolatedError):
        product_rigidity(catalog("cycle_4"), catalog("cycle_6"))


def test_report_json_roundtrip():
    import json

    rep = check_conformal_rigidity(catalog("complete_4"))
    d = rep.to_json_dict()
    text = json.dumps(d)
    back = json.loads(text)
    assert back["rigid"] is True
    assert back["graph"]["n"] == 4
    assert back["lower"]["verdict"] == "certified"
