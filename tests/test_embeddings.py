"""Embedding construction, edge-length diagnostics, orbit sums, characters,
and product embeddings."""

import numpy as np
import pytest
from oracles import chi_gamma

from confrigid.catalog import catalog
from confrigid.certify import check_conformal_rigidity, product_rigidity
from confrigid.embeddings import (
    canonical_embedding,
    edge_length_profile,
    embedding_to_csv,
    make_embedding,
    phi_psi,
    product_embedding,
    rayleigh_eigenvalue,
    symmetrized_embedding,
    unit_edge_normalized,
)
from confrigid.errors import EigenvalueError, HypothesisViolatedError
from confrigid.graphs import CayleySpec, Graph, cartesian_product, circulant, laplacian
from confrigid.spectra import eigendecompose
from confrigid.symmetry import cayley_translations, find_automorphisms

SQRT2 = np.sqrt(2.0)


def test_make_embedding_rejects_non_eigenvectors():
    g = catalog("cycle_4")
    with pytest.raises(EigenvalueError):
        make_embedding(g, np.array([1.0, 2.0, -3.0, 0.0]), 2.0)


def test_make_embedding_rejects_uncentered():
    g = catalog("cycle_4")
    with pytest.raises(EigenvalueError):
        make_embedding(g, np.ones(4), 0.0)


def test_path4_lambdamax_explicit_embedding():
    # eigenvector of 2 + sqrt(2): the 1-dimensional line drawing
    g = catalog("path_4")
    phi = np.array([-1.0, 1.0 + SQRT2, -1.0 - SQRT2, 1.0])
    lam = rayleigh_eigenvalue(g, phi)
    assert lam == pytest.approx(2.0 + SQRT2, abs=1e-12)
    emb = make_embedding(g, phi, lam)
    prof = edge_length_profile(emb, g)
    lengths = sorted(prof.lengths)
    assert lengths[0] == pytest.approx(2.0 + SQRT2, abs=1e-12)
    assert lengths[1] == pytest.approx(2.0 + SQRT2, abs=1e-12)
    assert lengths[2] == pytest.approx(2.0 + 2.0 * SQRT2, abs=1e-12)
    assert not prof.is_edge_isometric


def test_canonical_embedding_cycle_is_polygon():
    g = catalog("cycle_6")
    dec = eigendecompose(laplacian(g))
    emb = canonical_embedding(g, dec, dec.eigenvalues[1])
    prof = edge_length_profile(emb, g)
    assert emb.dim == 2
    assert prof.is_edge_isometric
    assert prof.is_spherical


def test_canonical_embedding_rejects_kernel():
    g = catalog("cycle_6")
    dec = eigendecompose(laplacian(g))
    with pytest.raises(EigenvalueError):
        canonical_embedding(g, dec, 0.0)


def test_canonical_embedding_below_group_tol():
    # lambda_2 = 0.2166 of circulant(30, {1, 2}) lies below group_tol = 0.3,
    # yet it is an eigenspace of its own; at lambda_n the same group_tol
    # merges five eigenvalues, and the residual test rejects their basis
    g = circulant(30, {1, 2})
    dec = eigendecompose(laplacian(g), group_tol=0.3)
    emb = canonical_embedding(g, dec, dec.eigenvalues[1])
    assert emb.dim == 2 and emb.eigenvalue == pytest.approx(0.2166138832)
    with pytest.raises(EigenvalueError, match="not in the eigenspace"):
        canonical_embedding(g, dec, dec.eigenvalues[-1])


def test_symmetrized_embedding_edge_transitive_is_isometric():
    g = catalog("petersen")
    p = find_automorphisms(g)
    dec = eigendecompose(laplacian(g))
    U = dec.basis_for(dec.eigenvalues[1])
    emb = symmetrized_embedding(g, U[:, 0], p)
    prof = edge_length_profile(emb, g)
    assert prof.is_edge_isometric
    assert emb.dim == 120


def test_phi_psi_orbit_sums_circulant():
    g = circulant(18, {1, 5})
    p = cayley_translations(g.cayley_spec)
    dec = eigendecompose(laplacian(g))
    U = dec.basis_for(dec.eigenvalues[1])
    phi = U[:, 0]
    ov = phi_psi(g, phi, p)
    assert len(ov.values) == 2  # one entry per edge orbit
    # independent recomputation: sum over the 18 rotations at each representative
    for val, (i, j) in zip(ov.values, ov.representatives):
        brute = sum(phi[(i + t) % 18] * phi[(j + t) % 18] for t in range(18))
        assert val == pytest.approx(brute, abs=1e-12)


def test_chi_gamma_closed_form():
    spec = CayleySpec(orders=(3, 3), gens=((1, 0), (2, 0), (0, 1), (0, 2)))
    v = chi_gamma(spec, 4)  # character indexed by (1, 1)
    assert v.shape == (4,)
    assert np.allclose(np.abs(v), 9.0)


def test_unit_edge_normalized():
    g = catalog("complete_4")
    dec = eigendecompose(laplacian(g))
    emb = canonical_embedding(g, dec, 4.0)
    unit = unit_edge_normalized(emb, g)
    prof = edge_length_profile(unit, g)
    assert prof.c == pytest.approx(1.0, abs=1e-12)
    # radius identity for K4: sqrt(delta / (2 lambda_max)) = sqrt(3/8)
    assert prof.radius == pytest.approx(np.sqrt(3.0 / 8.0), abs=1e-10)
    with pytest.raises(HypothesisViolatedError):
        unit_edge_normalized(
            make_embedding(
                catalog("path_4"),
                np.array([-1.0, 1.0 + SQRT2, -1.0 - SQRT2, 1.0]),
                2.0 + SQRT2,
            ),
            catalog("path_4"),
        )


def test_sphericity_is_computed_on_first_read():
    # canonical, character-LP, SDP-Gram, symmetrized and product
    # embeddings: the lazy fields equal the eager formulas bit for bit
    k5_minus_edge = Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5) if j > 1))
    petersen_prism = cartesian_product(catalog("petersen"), catalog("path_2"))
    cases = []
    for g in (catalog("petersen"), catalog("hypercube_3"), circulant(18, {1, 5}),
              k5_minus_edge, petersen_prism):
        rep = check_conformal_rigidity(g)
        cases += [(er.certificate.embedding, g) for er in (rep.lower, rep.upper) if er.certificate]
    c4 = catalog("cycle_4")
    cases.append((product_rigidity(c4, c4).embedding, cartesian_product(c4, c4)))
    emb = canonical_embedding(c4, eigendecompose(laplacian(c4)), 4.0)
    cases.append(product_embedding(c4, emb, c4, emb, mode="lambdamax")[::-1])
    c6 = catalog("cycle_6")
    phi = eigendecompose(laplacian(c6)).basis_for(1.0)[:, 0]
    cases.append((symmetrized_embedding(c6, phi, find_automorphisms(c6)), c6))
    for e, g in cases:
        prof = edge_length_profile(e, g)
        assert not {"vertex_norms", "is_spherical", "radius"} & set(vars(prof))
        norms = np.linalg.norm(e.points, axis=1)
        assert prof.is_spherical is bool(norms.max() - norms.min() <= prof.tol * (1.0 + norms.max()))
        assert np.array_equal(prof.vertex_norms, norms)
        assert prof.radius == float(norms.mean())
        assert prof.vertex_norms is prof.vertex_norms  # computed once
    assert {edge_length_profile(e, g).is_spherical for e, g in cases} == {True, False}


def test_product_embedding_lambda2_c4_c4():
    g = catalog("cycle_4")
    dec = eigendecompose(laplacian(g))
    emb = canonical_embedding(g, dec, 2.0)
    prod, pemb = product_embedding(g, emb, g, emb, mode="lambda2")
    assert prod.n == 16
    prof = edge_length_profile(pemb, prod)
    assert prof.is_edge_isometric
    assert pemb.eigenvalue == pytest.approx(2.0)


def test_product_embedding_lambdamax_c4_c4():
    g = catalog("cycle_4")
    dec = eigendecompose(laplacian(g))
    emb = canonical_embedding(g, dec, 4.0)
    prod, pemb = product_embedding(g, emb, g, emb, mode="lambdamax")
    prof = edge_length_profile(pemb, prod)
    assert prof.is_edge_isometric
    assert prof.is_spherical
    assert pemb.eigenvalue == pytest.approx(8.0)


def test_product_embedding_rejects_mismatched_eigenvalues():
    c4 = catalog("cycle_4")
    c6 = catalog("cycle_6")
    dec4 = eigendecompose(laplacian(c4))
    dec6 = eigendecompose(laplacian(c6))
    e4 = canonical_embedding(c4, dec4, dec4.eigenvalues[1])
    e6 = canonical_embedding(c6, dec6, dec6.eigenvalues[1])
    with pytest.raises(HypothesisViolatedError):
        product_embedding(c4, e4, c6, e6, mode="lambda2")


def test_embedding_csv_shape():
    g = catalog("cycle_4")
    dec = eigendecompose(laplacian(g))
    emb = canonical_embedding(g, dec, 2.0)
    text = embedding_to_csv(emb)
    lines = text.strip().splitlines()
    assert lines[0] == "vertex,x0,x1"
    assert len(lines) == 5
