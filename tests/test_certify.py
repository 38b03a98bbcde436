"""Certificate layer: LP decisions, SDP-backed certificates, product theorem,
and the full cascade."""

import functools
import importlib
import itertools
import json
import pkgutil
import time
from dataclasses import replace

import jsonschema
import numpy as np
import pytest
from test_lp_sdp import _connected_gnm, _plain_circulants, _simple_end_graphs
from test_symmetry import _relabelled
from test_transitive_gate import dihedral_cayley

import confrigid
from confrigid import certify, cli, sdp, symmetry
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
from confrigid.embeddings import ISO_TOL, edge_length_profile
from confrigid.errors import (
    DisconnectedError,
    HypothesisViolatedError,
    NotVertexTransitiveError,
)
from confrigid.graphs import (
    CayleySpec,
    Graph,
    cartesian_product,
    cayley_abelian,
    circulant,
    laplacian,
    normalize_edges,
)
from confrigid.lp import Phase1Result
from confrigid.sdp import length_decision
from confrigid.spectra import (
    CharacterTable,
    character_eigenspaces,
    character_spectrum,
    default_group_tol,
    eigendecompose,
)
from confrigid.symmetry import (
    PermutationSet,
    cayley_translations,
    find_automorphisms,
    orbits,
)


BAD_TOLS = [np.nan, np.inf, 0.0, -1.0]


@pytest.mark.parametrize("bad", BAD_TOLS)
@pytest.mark.parametrize("name", ["group_tol", "iso_tol", "feas_tol"])
def test_check_options_reject_a_tolerance_not_finite_and_positive(name, bad):
    # a NaN tolerance fails every comparison and would leave both ends undecided
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        CheckOptions(**{name: bad})


@pytest.mark.parametrize(
    "skip",
    [{"falsifier"}, "falsify", ("canonical", "sdp")],
    ids=["misspelt", "bare-string", "one-unknown"],
)
def test_check_options_reject_an_unknown_stage(skip):
    # a misspelt stage would skip nothing, and a bare string is no set of stages
    with pytest.raises(ValueError, match="unknown stages"):
        CheckOptions(skip_stages=skip)


def test_check_options_store_skipped_stages_as_a_frozenset():
    opts = CheckOptions(skip_stages=["falsify", "canonical"])
    assert opts.skip_stages == frozenset({"falsify", "canonical"})
    assert not opts.stage_enabled("falsify") and opts.stage_enabled("trivial_sdp")


@pytest.mark.parametrize(
    "g, skip, mult",
    [
        (catalog("complete_4"), (), 3.0),
        (circulant(5, {1, 2}), ("character_lp",), 4.0),
        (circulant(5, {1, 2}), (), 4.0),
    ],
    ids=["complete_4", "circulant_5_1_2-no-lp", "circulant_5_1_2"],
)
def test_group_tol_below_rounding_gives_a_report(g, skip, mult):
    # the commutant projection of a a^T keeps no eigenvalue above its cutoff,
    # so the Gram matrix has no embedding to test, and the character LP runs
    # on a split class, whose not_in_polytope refutes nothing: the end stays
    # undecided, and says that the default group_tol finds more eigenvalues
    # at its lambda than the check used
    rep = check_conformal_rigidity(g, CheckOptions(group_tol=1e-16, skip_stages=skip))
    assert (rep.lower.verdict, rep.upper.verdict) == ("undecided", "undecided")
    for er in (rep.lower, rep.upper):
        assert er.residuals["default_multiplicity"] == mult
        assert "lp_refuted" not in er.residuals


@pytest.mark.parametrize("bad", BAD_TOLS)
def test_group_tol_resolves_only_when_finite_and_positive(bad):
    with pytest.raises(ValueError, match="group_tol must be finite and positive"):
        eigendecompose(catalog("petersen").unit_laplacian, group_tol=bad)


@pytest.mark.parametrize("feas_tol", [1e-18, 1e-20])
def test_decision_tolerance_below_rounding_gives_a_report(feas_tol):
    # so far below rounding the lower end's decision reaches a singular
    # corral, where a centred c that lowers no weight leaves no step to take:
    # the end stays undecided and the upper end is refuted as by default
    g = cartesian_product(catalog("petersen"), catalog("path_2"))
    rep = check_conformal_rigidity(g, CheckOptions(feas_tol=feas_tol))
    assert rep.lower.verdict == "undecided"
    assert rep.lower.residuals["falsifier_best"] == rep.lower.residuals["falsifier_unit"]
    default = check_conformal_rigidity(g)
    assert default.lower.method == "Eigenvector"
    assert (rep.upper.verdict, rep.upper.method) == ("refuted", "Falsifier")
    assert (default.upper.verdict, default.upper.method) == ("refuted", "Falsifier")


def _end_classes(g):
    """The character table of g and its grouped classes at lambda_2 and
    lambda_n, as the check groups them."""
    table = character_spectrum(g.cayley_spec)
    means, order, cuts = character_eigenspaces(table, default_group_tol(g.unit_laplacian))
    return table, [(means[1], order[cuts[1] : cuts[2]]), (means[-1], order[cuts[-2] :])]


def test_lp_certifies_circulant_18_1_5_both_ends():
    g = circulant(18, {1, 5})
    table, ends = _end_classes(g)
    for lam, chars in ends:
        lp = abelian_lp_certificate(table, chars)
        assert lp.status == "certified"
        assert np.all(lp.coefficients >= -1e-12)
        assert lp.coefficients.sum() == pytest.approx(1.0)
        emb = lp_certificate_embedding(g, table, lp, lam)
        assert edge_length_profile(emb, g).is_edge_isometric
        assert emb.points.shape[0] == 18
        assert emb.dim <= 2 * len(lp.character_indices)


def test_lp_rejects_triangular_prism_as_cayley_graph(monkeypatch):
    # the triangular prism is Cay(Z_6, {2, 3, 4}); rigidity fails at lambda_2.
    # Both end classes are one conjugate class, {chi^3} at lambda_2 and
    # {chi^1, chi^5} at lambda_n, whose uniform combination is not constant
    # on S: each goes to the simplex once, which refutes it
    g = circulant(6, {2, 3})
    assert g.m == 9 and g.degrees().tolist() == [3] * 6
    table, ends = _end_classes(g)
    assert [sorted(chars.tolist()) for _, chars in ends] == [[3], [1, 5]]
    calls = _count_calls(monkeypatch, certify, "phase1_feasibility")
    for _, chars in ends:
        calls.clear()
        lp = abelian_lp_certificate(table, chars)
        assert lp.status == "not_in_polytope"
        assert len(calls) == 1


def test_lp_takes_the_simplex_only_for_the_multi_class_end(monkeypatch):
    # circulant(12, {1, 2, 4, 5}): the lambda_2 class has 9 characters in
    # several conjugate classes and is certified by one simplex call, with
    # the coefficients and t of that solve bit for bit; the lambda_n class
    # {chi^4, chi^8} is one class, certified by its uniform combination
    # with no simplex call
    g = circulant(12, {1, 2, 4, 5})
    table, [(_, low), (lam, high)] = _end_classes(g)
    assert sorted(low.tolist()) == [1, 2, 3, 5, 6, 7, 9, 10, 11]
    assert sorted(high.tolist()) == [4, 8]
    calls = _count_calls(monkeypatch, certify, "phase1_feasibility")
    lp = abelian_lp_certificate(table, low)
    assert lp.status == "certified" and len(calls) == 1
    d = len(low)
    V = np.conj(table.gen_chars[sorted(low.tolist())])
    res = certify.phase1_feasibility(*certify.character_lp_system(V))
    c = np.clip(res.x[:d], 0.0, None)
    c = c / c.sum()
    assert lp.coefficients.tobytes() == c.tobytes()
    assert lp.t == float(res.x[d] - res.x[d + 1])
    assert lp.lp_objective == res.objective
    calls.clear()
    lp = abelian_lp_certificate(table, high)
    assert not calls
    assert (lp.status, lp.coefficients.tolist(), lp.complex_only) == (
        "certified", [0.5, 0.5], True)
    assert lp.t == pytest.approx(-0.5, abs=1e-12)
    assert lp.lp_objective <= certify.LP_CERTIFY_TOL
    emb = lp_certificate_embedding(g, table, lp, lam)
    assert edge_length_profile(emb, g).is_edge_isometric


@pytest.mark.parametrize(
    "objective, x, status",
    [
        (1e-8, [0.5, 0.5, 0.0, 0.0], "degenerate"),  # objective in (1e-9, 1e-7]
        (1e-7, [0.5, 0.5, 0.0, 0.0], "degenerate"),
        (0.0, [1.0, 0.0, 5.0, 0.0], "degenerate"),  # fails the substitution check
        (2e-7, [0.5, 0.5, 0.0, 0.0], "not_in_polytope"),
    ],
)
def test_lp_failure_keeps_its_status(monkeypatch, objective, x, status):
    # the lambda_n class of the prism Cay(Z_6, {2, 3, 4}) is the pair
    # {chi^1, chi^5}, whose real parts on S are -1/2, -1, -1/2: its uniform
    # combination misses the bound, so the simplex runs.  The solver's answer
    # is replaced, so each exit of the LP is reached
    g = circulant(6, {2, 3})
    table, [_, (_, chars)] = _end_classes(g)
    assert sorted(chars.tolist()) == [1, 5]
    assert np.conj(table.gen_chars[1]).real.tolist() == pytest.approx([-0.5, -1.0, -0.5])
    result = Phase1Result(np.array(x), objective, 0)
    monkeypatch.setattr(certify, "phase1_feasibility", lambda A, b: result)
    lp = abelian_lp_certificate(table, chars)
    assert (lp.status, lp.coefficients, lp.t) == (status, None, None)
    assert (lp.lp_objective, lp.character_indices) == (objective, tuple(sorted(chars.tolist())))


def _rigid_decision(g, U, orb):
    return length_decision(U[g.edge_array[:, 0]] - U[g.edge_array[:, 1]], blocks=orb.edge_orbits)


def test_eigenvector_certificate_circulant():
    g = circulant(18, {1, 5})
    dec = eigendecompose(laplacian(g))
    p = cayley_translations(g.cayley_spec)
    orb = orbits(g, p)
    U = dec.bases[1]
    cert = eigenvector_certificate(g, U, dec.eigenvalues[1], p, orb, _rigid_decision(g, U, orb))
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


def test_iso_tol_reaches_every_product_profile(monkeypatch):
    from confrigid import embeddings

    seen = []

    def spy(emb, g, tol=1e-7):
        seen.append(tol)
        return edge_length_profile(emb, g, tol=tol)

    monkeypatch.setattr(certify, "edge_length_profile", spy)
    monkeypatch.setattr(embeddings, "edge_length_profile", spy)
    c4 = catalog("cycle_4")
    cert = product_rigidity(c4, c4, CheckOptions(iso_tol=3e-7))
    assert cert is not None and cert.kind == "product"
    # factor checks, both spherical_max_embedding tests, both factor
    # profiles of each product_embedding, prof2 and profmax
    assert len(seen) >= 10
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


def _sdp_feasibility_bindings():
    """The confrigid modules other than sdp that bind sdp_feasibility: the
    Dykstra solver is an oracle for tests, and no check may reach it."""
    names = ["confrigid"] + [
        f"confrigid.{m.name}" for m in pkgutil.iter_modules(confrigid.__path__)
    ]
    return [
        name
        for name in names
        if name != "confrigid.sdp"
        and hasattr(importlib.import_module(name), "sdp_feasibility")
    ]


@pytest.mark.parametrize("capped", [False, True])
def test_complete_5_minus_edge_upper_end_is_sdp_gram(monkeypatch, capped):
    # lambda_n = 5 has multiplicity 3 and the canonical embedding is not
    # edge-isometric, but an equal-length Gram matrix exists: the decision
    # finds it (inner-product constraints missed it); a decision stopped at
    # its cap has no Gram matrix, and no line search refutes a rigid end
    assert not _sdp_feasibility_bindings()
    if capped:
        monkeypatch.setattr(certify, "length_decision", functools.partial(length_decision, max_iter=0))
    g = Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)))
    rep = check_conformal_rigidity(g)
    assert rep.lambda_max == pytest.approx(5.0)
    if capped:
        er = rep.upper
        assert (er.verdict, er.method, er.certificate, er.witness) == ("undecided", None, None, None)
        assert er.residuals["decision_iterations"] == 0
        assert er.residuals["decision_gap"] > 1e-8
        assert er.residuals["falsifier_best"] >= 5.0 * (1.0 - 1e-6)
        return
    assert (rep.upper.verdict, rep.upper.method) == ("certified", "SdpGram")
    emb = rep.upper.certificate.embedding
    assert emb.dim <= 3
    assert edge_length_profile(emb, g).is_edge_isometric
    X = rep.upper.certificate.payload["X"]
    assert np.trace(X) == pytest.approx(1.0)
    assert np.min(np.linalg.eigvalsh(X)) >= -1e-12


def test_eigenvector_certificate_requires_transitive_group():
    g = catalog("path_4")
    dec = eigendecompose(laplacian(g))
    from confrigid.symmetry import PermutationSet

    p = PermutationSet(n=4, gens=((3, 2, 1, 0),))
    orb = orbits(g, p)
    U = dec.bases[1]
    with pytest.raises(NotVertexTransitiveError):
        eigenvector_certificate(g, U, dec.eigenvalues[1], p, orb, _rigid_decision(g, U, orb))


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


@pytest.mark.parametrize("name", ["path_40", "path_64"])
def test_long_path_lower_end_refuted_under_relabelling(name):
    # raw (phi_i - phi_j)^2 steps shrink like n^-3 on paths; the normalized
    # subgradient step refutes lambda_2 whatever the vertex numbering
    g = catalog(name)
    numberings = [np.arange(g.n)] + [
        np.random.default_rng(seed).permutation(g.n) for seed in range(3)
    ]
    for k, p in enumerate(numberings):
        h = Graph(g.n, normalize_edges(g.n, [(p[i], p[j]) for i, j in g.edges]))
        rep = check_conformal_rigidity(h)
        assert rep.lower.verdict == "refuted", k
        assert rep.lower.method == "Falsifier", k


def test_lp_negative_routes_to_falsifier_method():
    rep = check_conformal_rigidity(circulant(6, {2, 3}))
    assert rep.lower.verdict == "refuted"
    assert rep.lower.method == "CharacterLP+Falsifier"


def test_lp_refuted_ends_follow_the_decisions_dual():
    # the character LP refutes both ends of Cay(Z_7, {1, 2}); the decision
    # still runs there, and the line search along its dual c gives the
    # witness
    rep = check_conformal_rigidity(circulant(7, {1, 2}))
    for er in (rep.lower, rep.upper):
        assert (er.verdict, er.method) == ("refuted", "CharacterLP+Falsifier")
        assert er.residuals["dual_min_eig"] > 0


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_family_scan_makes_no_dense_eigensolve(monkeypatch, capsys):
    # the character LP certifies every end of the family, and the lambda
    # ends and walk1 come from the character table: no eigh, no projectors
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    walk = _count_calls(monkeypatch, certify, "canonical_walk1_check")
    assert cli.main(["family", "6", "24", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 19
    assert {(r["lowerVerdict"], r["upperVerdict"]) for r in rows} == {("certified", "certified")}
    assert not eigh and not walk


def test_family_scan_pivots_and_evaluates_each_character_once(monkeypatch, capsys):
    # every end of the family is one conjugate class whose uniform
    # combination is constant on S, so no end reaches the simplex; each
    # certified end evaluates its whole characters once, for its embedding
    its = []
    phase1 = certify.phase1_feasibility

    def counting_phase1(A, b):
        res = phase1(A, b)
        its.append(res.iterations)
        return res

    monkeypatch.setattr(certify, "phase1_feasibility", counting_phase1)
    rows = _count_calls(monkeypatch, CharacterTable, "rows")
    assert cli.main(["family", "6", "24", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {(r["lowerVerdict"], r["upperVerdict"]) for r in report} == {("certified",) * 2}
    assert (len(its), sum(its)) == (0, 0)
    assert len(rows) == 38
    rows.clear()
    rep = check_conformal_rigidity(circulant(18, {1, 5}))
    assert (rep.lower.method, rep.upper.method) == ("CharacterLP", "CharacterLP")
    assert len(rows) == 2


def _raising(what):
    def raising(*args, **kwargs):
        raise AssertionError(f"{what} was called")

    return raising


def test_cayley_check_reads_no_full_table_and_no_orbit_search(monkeypatch, capsys):
    # on an abelian Cayley graph the orbits come from the spec and the LP
    # reads the characters at the generators and a few rows: no N x N
    # table, no orbit DFS over the translations.  An eigenspace above the
    # kernel never holds the trivial character, so no call from the check
    # asks for all N characters
    asked = []
    table_rows = CharacterTable.rows

    def partial_rows(self, ks):
        asked.append(len(ks))
        if len(set(np.asarray(ks).tolist())) == self.size:
            raise AssertionError("the full character table was built")
        return table_rows(self, ks)

    monkeypatch.setattr(CharacterTable, "rows", partial_rows)
    monkeypatch.setattr(certify, "orbits", _raising("orbits"))
    monkeypatch.setattr(symmetry, "orbits", _raising("orbits"))
    # only the symmetrized SDP reads the translations, and no family end
    # reaches it
    with monkeypatch.context() as mp:
        mp.setattr(certify, "cayley_translations", _raising("cayley_translations"))
        mp.setattr(symmetry, "cayley_translations", _raising("cayley_translations"))
        assert cli.main(["family", "6", "24", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {(r["lowerVerdict"], r["upperVerdict"]) for r in rows} == {("certified", "certified")}
    g = circulant(12, {1, 2})
    for skip in ((), ("character_lp",)):
        rep = check_conformal_rigidity(g, CheckOptions(skip_stages=frozenset(skip)))
        assert (rep.vertex_transitive, rep.edge_orbits) == (True, 2)
        assert rep.upper.verdict == "certified"
    assert asked


@pytest.mark.parametrize("skip", [(), ("character_lp",)])
@pytest.mark.parametrize(
    "g",
    [circulant(12, {1, 2}), circulant(18, {1, 5}), circulant(10, {1, 2})]
    + [cayley_abelian(spec) for spec in (
        CayleySpec((2, 4), ((1, 0), (0, 1), (0, 3))),
        CayleySpec((3, 3), ((1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 2))),
    )],
    ids=["c12_1_2", "c18_1_5", "c10_1_2", "z2xz4", "z3xz3"],
)
def test_spec_orbits_give_the_report_of_the_supplied_translations(g, skip):
    # the spec path (no generators) and the translations supplied as
    # generators, whose orbits the DFS computes, give the same report
    opts = CheckOptions(skip_stages=frozenset(skip))
    supplied = replace(opts, generators=cayley_translations(g.cayley_spec))
    a = check_conformal_rigidity(g, opts).to_json_dict()
    b = check_conformal_rigidity(g, supplied).to_json_dict()
    del a["timings"], b["timings"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_circulant_12_keeps_its_eigenvector_end_without_the_lp():
    # with the character LP skipped the upper end of circulant(12, {1, 2})
    # is certified by a rank-one phi over the spec's two edge orbits
    g = circulant(12, {1, 2})
    rep = check_conformal_rigidity(g, CheckOptions(skip_stages=frozenset({"character_lp"})))
    assert (rep.upper.verdict, rep.upper.method) == ("certified", "Eigenvector")
    assert len(rep.upper.certificate.payload["orbit_sums"]) == 2
    assert (rep.lower.verdict, rep.lower.method) == ("refuted", "Falsifier")


def test_lp_refuted_ends_share_one_dense_decomposition(monkeypatch):
    # the LP leaves both ends of circulant(10, {1, 2}) open (not in the
    # polytope); the decision and the falsifier at both ends read one
    # eigendecomposition, built on first use
    calls = _count_calls(monkeypatch, certify, "eigendecompose")
    walk = _count_calls(monkeypatch, certify, "canonical_walk1_check")
    for checks in (1, 2):
        rep = check_conformal_rigidity(circulant(10, {1, 2}))
        assert len(calls) == checks
        for er in (rep.lower, rep.upper):
            assert (er.verdict, er.method) == ("refuted", "CharacterLP+Falsifier")
    assert not walk


def test_coarse_group_tol_runs_each_lp_on_its_grouped_characters(monkeypatch):
    # group_tol = 0.3 merges the top six characters, of three distinct
    # eigenvalues within 0.3 of the smallest of them, and their mean is the
    # eigenvalue of none of them; the kernel stays apart, so lambda_2 =
    # 0.2166 keeps its own two characters.  Each end's LP takes its grouped
    # class: the lower end is refuted as at the default group_tol, and a
    # combination that is no eigenvector of the upper mean certifies nothing
    g = circulant(30, {1, 2})
    _, order, cuts = character_eigenspaces(character_spectrum(g.cayley_spec), 0.3)
    classes = [order[cuts[1] : cuts[2]], order[cuts[-2] : cuts[-1]]]
    assert (cuts[1], len(classes[0]), len(classes[1])) == (1, 2, 6)
    seen = []
    lp = certify.abelian_lp_certificate

    def recording(*args):
        out = lp(*args)
        seen.append(out.character_indices)
        return out

    monkeypatch.setattr(certify, "abelian_lp_certificate", recording)
    rep = check_conformal_rigidity(g, CheckOptions(group_tol=0.3))
    assert seen == [tuple(sorted(c.tolist())) for c in classes]
    assert rep.lambda2 == check_conformal_rigidity(g).lambda2
    assert (rep.lower.verdict, rep.lower.method) == ("refuted", "CharacterLP+Falsifier")
    assert rep.upper.verdict == "undecided"


def _plain(g):
    return Graph(g.n, g.edges, name=g.name)


def test_skipped_trivial_sdp_leaves_a_rigid_decision_undecided():
    # the plain-edge-list circulant(12, {1, 2, 3}) is vertex-transitive and
    # its upper decision is rigid, but no rank-one phi passes: only the Gram
    # certificate, which trivial_sdp names, certifies it.  Skipped, the end
    # stays undecided with the decision's residuals, and the falsifier has
    # no direction to follow
    g = _plain(circulant(12, {1, 2, 3}))
    assert check_conformal_rigidity(g).upper.method == "SdpGram"
    rep = check_conformal_rigidity(g, CheckOptions(skip_stages=frozenset({"trivial_sdp"})))
    assert (rep.upper.verdict, rep.upper.method, rep.upper.certificate) == (
        "undecided", None, None
    )
    assert set(rep.upper.residuals) == {"decision_gap", "decision_iterations"}
    assert (rep.lower.verdict, rep.lower.method) == ("refuted", "Falsifier")


_DECISION_CODES = {
    "ET": ("certified", "EdgeTransitive"),
    "W1": ("certified", "OneWalkRegular"),
    "CI": ("certified", "CanonicalIsometric"),
    "LP": ("certified", "CharacterLP"),
    "EV": ("certified", "Eigenvector"),
    "GR": ("certified", "SdpGram"),
    "F": ("refuted", "Falsifier"),
    "LPF": ("refuted", "CharacterLP+Falsifier"),
    "U": ("undecided", None),
}

# the skip sets: none, each stage on its own, and every stage but falsify
_SKIP_SETS = [frozenset()] + [frozenset({s}) for s in STAGES]
_SKIP_SETS.append(frozenset(STAGES) - {"falsify"})

# lower/upper per skip set, in _SKIP_SETS order.  Computed before the
# cascade was rewritten; the one entry that changed since is circulant(12,
# {1, 2, 3})'s upper end with trivial_sdp skipped, once certified by SdpGram
_DECISION_TABLE = {
    "petersen": "ET/ET W1/W1 ET/ET ET/ET ET/ET ET/ET ET/ET ET/ET U/U",
    "hoffman": "W1/W1 W1/W1 W1/W1 CI/CI W1/W1 W1/W1 W1/W1 W1/W1 U/U",
    "triangular_prism": "F/F F/F F/F F/F F/F F/F F/F U/U F/F",
    "path_20": "F/F F/F F/F F/F F/F F/F F/F U/U F/F",
    "complete_bipartite_3_4": "ET/ET CI/CI ET/ET ET/ET ET/ET ET/ET ET/ET ET/ET U/U",
    "petersen_x_k2": "EV/F EV/F EV/F EV/F EV/F GR/F EV/F EV/U U/F",
    "circulant_12_123": "F/GR F/GR F/GR F/GR F/GR F/GR F/U U/GR F/U",
    "cayley_12_12": "LPF/LP LPF/LP F/EV LPF/LP LPF/LP LPF/LP LPF/LP U/LP F/U",
    "cayley_18_15": "LP/LP LP/LP CI/CI LP/LP LP/LP LP/LP LP/LP LP/LP U/U",
}


def test_cascade_decision_table():
    graphs = {name: catalog(name) for name in list(_DECISION_TABLE)[:5]}
    graphs["petersen_x_k2"] = _plain(_petersen_prism())
    graphs["circulant_12_123"] = _plain(circulant(12, {1, 2, 3}))
    graphs["cayley_12_12"] = circulant(12, {1, 2})
    graphs["cayley_18_15"] = circulant(18, {1, 5})
    for name, row in _DECISION_TABLE.items():
        for skip, cell in zip(_SKIP_SETS, row.split(), strict=True):
            rep = check_conformal_rigidity(graphs[name], CheckOptions(skip_stages=skip))
            got = [(er.verdict, er.method) for er in (rep.lower, rep.upper)]
            want = [_DECISION_CODES[code] for code in cell.split("/")]
            assert got == want, (name, sorted(skip))


def test_refuting_decision_skips_the_symmetrized_sdp(monkeypatch):
    # the prism is vertex-transitive, but the decision separates at both
    # ends, so no symmetrized SDP is solved
    calls = _count_calls(monkeypatch, certify, "eigenvector_certificate")
    rep = check_conformal_rigidity(catalog("triangular_prism"))
    assert rep.vertex_transitive
    assert (rep.lower.verdict, rep.upper.verdict) == ("refuted", "refuted")
    assert not calls


@pytest.mark.parametrize("case", ["circulant_12_upper", "petersen_prism_lower"])
def test_eigenvector_end_needs_no_sdp_feasibility(case):
    # the decision on the edge orbits is rigid, and its two orbits give the
    # eigenvector in closed form: no Dykstra solver is in reach
    assert not _sdp_feasibility_bindings()
    if case == "circulant_12_upper":
        c = circulant(12, {1, 2})
        rep = check_conformal_rigidity(Graph(c.n, c.edges))
        er = rep.upper
    else:
        rep = check_conformal_rigidity(_petersen_prism())
        er = rep.lower
    assert (er.verdict, er.method) == ("certified", "Eigenvector")


def _eigenvector_ends():
    """Three vertex-transitive plain edge lists with two edge orbits, and
    the end of each that the Eigenvector stage certifies."""
    d12 = dihedral_cayley(12, {(1, 0), (11, 0), (5, 0), (7, 0), (0, 1)})  # r^+-1, r^+-5, s
    return {
        "petersen_x_k2": (_plain(_petersen_prism()), "lower"),
        "circulant_12_12": (_plain(circulant(12, {1, 2})), "upper"),
        "dihedral_12": (d12, "lower"),
    }


def _count_rank_reduction(monkeypatch):
    """Calls of rank_reduce and build_sdp_instance, through certify (which
    binds neither) or through sdp."""
    calls = []
    for name in ("rank_reduce", "build_sdp_instance"):
        def counting(*args, fn=getattr(sdp, name), **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        monkeypatch.setattr(certify, name, counting, raising=False)
        monkeypatch.setattr(sdp, name, counting)
    return calls


@pytest.mark.parametrize("case", list(_eigenvector_ends()))
def test_two_orbit_eigenvector_end_needs_no_rank_reduction(monkeypatch, case):
    # with two edge orbits phi is read off the eigenpairs of C_2 - C_1, so
    # its orbit sums agree to rounding and no rank reduction runs
    calls = _count_rank_reduction(monkeypatch)
    g, end = _eigenvector_ends()[case]
    rep = check_conformal_rigidity(g)
    assert rep.edge_orbits == 2
    er = getattr(rep, end)
    assert (er.verdict, er.method) == ("certified", "Eigenvector")
    sums = er.certificate.payload["orbit_sums"]
    assert er.residuals["orbit_sum_spread"] <= 1e-12 * max(1.0, max(abs(v) for v in sums))
    assert not calls


def test_three_orbit_end_reads_only_the_decisions_gram_matrix(monkeypatch):
    # three edge orbits: the Eigenvector stage tries the decision's X alone,
    # which is not rank one here, so the Gram certificate labels the end
    calls = _count_rank_reduction(monkeypatch)
    tried = _count_calls(monkeypatch, certify, "eigenvector_certificate")
    rep = check_conformal_rigidity(_plain(circulant(12, {1, 2, 3})))
    assert rep.edge_orbits == 3
    assert (rep.upper.verdict, rep.upper.method) == ("certified", "SdpGram")
    assert len(tried) == 1 and not calls


def test_eigenvector_certificate_with_one_edge_orbit():
    # one orbit: there is no equal-sum constraint, and any unit vector of
    # the eigenspace is an eigenvector certificate
    g = catalog("petersen")
    dec = eigendecompose(laplacian(g))
    p = find_automorphisms(g)
    orb = orbits(g, p)
    assert orb.num_edge_orbits == 1
    U = dec.bases[1]
    cert = eigenvector_certificate(g, U, dec.eigenvalues[1], p, orb, _rigid_decision(g, U, orb))
    assert cert is not None and cert.kind == "eigenvector"
    assert len(cert.payload["orbit_sums"]) == 1
    assert float(np.linalg.norm(cert.payload["phi"])) == pytest.approx(1.0)


def _recheck(g, cert):
    """An independent recheck of a certificate on g: its points are
    eigenvectors of the Laplacian, centred, with equal edge lengths, and an
    Eigenvector certificate's phi has equal mean squared edge lengths over
    the edge orbits of the searched group."""
    P = cert.embedding.points
    assert np.max(np.abs(laplacian(g) @ P - cert.eigenvalue * P)) <= 1e-9
    assert np.max(np.abs(P.sum(axis=0))) <= 1e-9
    e = g.edge_array
    lengths = np.linalg.norm(P[e[:, 0]] - P[e[:, 1]], axis=1)
    assert np.ptp(lengths) <= ISO_TOL * (1.0 + lengths.max())
    if cert.kind == "eigenvector":
        phi = np.asarray(cert.payload["phi"])
        sq = (phi[e[:, 0]] - phi[e[:, 1]]) ** 2
        sums = [sq[list(r)].mean() for r in orbits(g, find_automorphisms(g)).edge_orbits]
        assert np.ptp(sums) <= 1e-9 * max(sums)
        assert sorted(sums) == pytest.approx(sorted(cert.payload["orbit_sums"]), rel=1e-9)


@pytest.mark.parametrize("case", list(_eigenvector_ends()))
def test_eigenvector_labels_do_not_depend_on_the_numbering(case):
    g, _ = _eigenvector_ends()[case]
    rep = check_conformal_rigidity(g)
    labels = [(er.verdict, er.method) for er in (rep.lower, rep.upper)]
    assert ("certified", "Eigenvector") in labels
    for seed in range(5):
        h = _relabelled(g, seed)
        rep = check_conformal_rigidity(h)
        assert [(er.verdict, er.method) for er in (rep.lower, rep.upper)] == labels, seed
        for er in (rep.lower, rep.upper):
            if er.certificate is not None:
                _recheck(h, er.certificate)


def _commutant_projection_by_kron(U, p, X):
    """Oracle: the commutant projection with kron(R, R) from np.kron."""
    k = U.shape[1]
    H = np.zeros((k * k, k * k))
    for sigma in p.gens:
        R = U.T @ U[np.array(sigma)]
        D = np.kron(R, R) - np.eye(k * k)
        H += D.T @ D
    vals, vecs = np.linalg.eigh(H)
    N = vecs[:, vals <= 1e-9 * max(1.0, float(vals[-1]))]
    return (N @ (N.T @ X.reshape(-1))).reshape(k, k)


def test_commutant_projection_matches_np_kron(monkeypatch):
    # the broadcast kron(R, R) holds the same products as np.kron, so the
    # projection is bit-identical on every eigenspace a check passes it
    project = certify._commutant_projection
    calls = _count_calls(monkeypatch, certify, "_commutant_projection")
    graphs = [_petersen_prism()]
    for S in ({1, 2}, {2, 3}):
        c = circulant(12, S)
        graphs.append(Graph(c.n, c.edges))
    for g in graphs:
        check_conformal_rigidity(g)
    assert sorted(U.shape[1] for U, _, _ in calls) == [4, 6, 6]
    for U, p, X in calls:
        assert np.array_equal(project(U, p, X), _commutant_projection_by_kron(U, p, X))


@pytest.mark.parametrize("n", [7, 40])
def test_rigid_decision_gram_needs_no_projection(monkeypatch, n):
    # K_n minus a 3-edge matching is not vertex-transitive: at lambda_n = n
    # the decision on its edge orbits is rigid, and its atoms commute with
    # the group, so X has equal lengths inside each orbit and is certified
    # as it is, with no Dykstra solver and no projection onto the commutant
    cut = {(0, 1), (2, 3), (4, 5)}
    g = Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in cut))
    U = eigendecompose(laplacian(g)).basis_for(float(n))
    assert U.shape[1] == n - 4
    p = find_automorphisms(g)
    orb = orbits(g, p)
    B = U[g.edge_array[:, 0]] - U[g.edge_array[:, 1]]
    d = length_decision(B, blocks=orb.edge_orbits)
    assert d.status == "rigid"
    for sigma in p.gens:
        R = U.T @ U[list(sigma)]
        assert np.allclose(R @ d.X @ R.T, d.X, rtol=0.0, atol=1e-12)
    lengths = np.einsum("ek,kl,el->e", B, d.X, B)
    for block in orb.edge_orbits:
        assert np.ptp(lengths[list(block)]) <= 1e-12
    assert not _sdp_feasibility_bindings()
    projections = _count_calls(monkeypatch, certify, "_commutant_projection")
    rep = check_conformal_rigidity(g)
    assert (rep.upper.verdict, rep.upper.method) == ("certified", "SdpGram")
    assert not projections


def test_no_decision_in_a_check_reaches_its_cap(monkeypatch):
    # every plain-edge-list circulant(N, S) with N <= 14 and |S| <= 3: the
    # decision settles every end it is asked about before its cap (plain
    # Frank-Wolfe stopped there at four ends with N = 12)
    decisions = []

    def recording(*args, **kwargs):
        decisions.append(length_decision(*args, **kwargs))
        return decisions[-1]

    monkeypatch.setattr(certify, "length_decision", recording)
    for g in _plain_circulants(14, [1, 2, 3]):
        check_conformal_rigidity(g)
    assert decisions
    assert [d.status for d in decisions if d.status == "undecided"] == []


def test_character_table_built_once_per_check(monkeypatch):
    calls = _count_calls(monkeypatch, certify, "character_spectrum")
    rep = check_conformal_rigidity(circulant(18, {1, 5}))
    assert (rep.lower.method, rep.upper.method) == ("CharacterLP", "CharacterLP")
    assert len(calls) == 1


@pytest.mark.parametrize("n", [512, 513])
def test_check_searches_automorphisms_at_any_order(n):
    # no order caps the search: cycle_513 is labelled as cycle_512 is, and
    # hypercube_10 (n = 1024, one search level per vertex) is searched in
    # full without running out of Python's recursion limit
    g = catalog(f"cycle_{n}")
    rep = check_conformal_rigidity(g)
    assert rep.edge_orbits == 1
    assert rep.search_exhausted is False
    assert (rep.lower.method, rep.upper.method) == ("EdgeTransitive",) * 2
    if n == 513:
        assert not find_automorphisms(catalog("hypercube_10")).exhausted


def test_report_says_whether_the_search_ran_out(monkeypatch):
    # a completed search, no search (a Cayley spec or supplied generators)
    # and a search cut at its budget
    petersen = catalog("petersen")
    rep = check_conformal_rigidity(petersen)
    assert rep.search_exhausted is False
    assert rep.to_json_dict()["searchExhausted"] is False
    assert check_conformal_rigidity(circulant(18, {1, 5})).search_exhausted is None
    gens = find_automorphisms(petersen)
    opts = CheckOptions(generators=gens)
    assert check_conformal_rigidity(petersen, opts).search_exhausted is None
    monkeypatch.setattr(certify, "find_automorphisms", lambda g: find_automorphisms(g, limit=1))
    rep = check_conformal_rigidity(petersen)
    assert rep.search_exhausted is True
    assert rep.to_json_dict()["searchExhausted"] is True


def _random_cubic(n, rng):
    """A uniform simple connected 3-regular graph: random pairings of 3n
    half-edges, drawn again until the pairing has no loop, no multiple
    edge and one component."""
    while True:
        pairs = np.sort(rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2), axis=1)
        simple = np.all(pairs[:, 0] < pairs[:, 1])
        if simple and len(np.unique(pairs[:, 0] * n + pairs[:, 1])) == len(pairs):
            g = Graph(n, normalize_edges(n, map(tuple, pairs.tolist())))
            if g.is_connected():
                return g


def test_simple_ends_run_no_automorphism_search(monkeypatch):
    # at a simple eigenvalue every automorphism maps the eigenvector u to
    # +-u, so an end whose canonical test fails is decided without a group
    from test_cli import _schema

    rng = np.random.default_rng(5)
    graphs = [catalog("path_40"), _random_cubic(200, rng)]
    graphs += [_connected_gnm(n, round(2.25 * n), rng) for n in (24, 32, 40)]
    monkeypatch.setattr(certify, "find_automorphisms", _raising("find_automorphisms"))
    for g in graphs:
        vals = np.linalg.eigvalsh(laplacian(g))
        assert vals[2] - vals[1] > 1e-6 and vals[-1] - vals[-2] > 1e-6  # simple ends
        rep = check_conformal_rigidity(g)
        assert (rep.lower.verdict, rep.upper.verdict) == ("refuted", "refuted"), (g.n, g.m)
        d = rep.to_json_dict()
        jsonschema.validate(d, _schema())
        assert (d["vertexTransitive"], d["edgeOrbits"], d["searchExhausted"]) == (None,) * 3
        assert d["timings"]["symmetry"] == 0.0
    # the prism's lambda_n = 5 is double, so its upper end reads the group
    monkeypatch.undo()
    rep = check_conformal_rigidity(catalog("triangular_prism"))
    assert rep.vertex_transitive is True and rep.search_exhausted is False


def test_simple_ends_make_one_eigensolve_per_check(monkeypatch):
    # at simple ends the spectrum is the check's only eigensolve: neither
    # decision solves its 1 x 1 S(c).  The reports equal those of decisions
    # over singleton blocks, which form the block means
    def singleton_blocks(B, tol, blocks=None):
        return length_decision(B, tol=tol, blocks=[(e,) for e in range(len(B))])

    for g in _simple_end_graphs():
        with monkeypatch.context() as m:
            m.setattr(certify, "length_decision", singleton_blocks)
            want = check_conformal_rigidity(g).to_json_dict()
        with monkeypatch.context() as m:
            solves = _count_calls(m, np.linalg, "eigh")
            got = check_conformal_rigidity(g).to_json_dict()
        assert len(solves) == 1, g.edges
        assert (got["lower"]["verdict"], got["upper"]["verdict"]) == ("refuted", "refuted")
        del want["timings"], got["timings"]
        assert got == want


def test_cascade_computes_no_sphericity(monkeypatch, capsys):
    # the cascade reads only the edge lengths, the isometry test and the
    # mean length: no profile it builds computes its vertex norms
    from test_census import CONNECTED, _connected_graphs

    profiles = []

    def recording(*args, **kwargs):
        profiles.append(edge_length_profile(*args, **kwargs))
        return profiles[-1]

    monkeypatch.setattr(certify, "edge_length_profile", recording)
    graphs = [g for n in CONNECTED for g in _connected_graphs(n)]
    graphs += [catalog(name) for name in ("petersen", "hoffman", "shrikhande_complement",
                                          "hypercube_4", "complete_7", "complete_bipartite_4_5",
                                          "cycle_48")]
    graphs += [Graph(18, circulant(18, {1, 5}).edges), _petersen_prism()]
    for g in graphs:
        check_conformal_rigidity(g)
    assert cli.main(["family", "6", "8"]) == 0
    capsys.readouterr()
    assert any(p.is_edge_isometric for p in profiles)
    assert not [p for p in profiles if "vertex_norms" in vars(p)]


def test_symmetry_timing_is_the_group_build_wherever_it_ran(monkeypatch):
    # the prism's upper end triggers the search; its time counts under
    # "symmetry", not under "upper", so the entries still add up to the check
    def slow_search(g):
        time.sleep(0.2)
        return find_automorphisms(g)

    monkeypatch.setattr(certify, "find_automorphisms", slow_search)
    t0 = time.perf_counter()
    rep = check_conformal_rigidity(catalog("triangular_prism"))
    elapsed = time.perf_counter() - t0
    assert rep.timings["symmetry"] >= 0.2
    assert rep.timings["upper"] < 0.2 and rep.timings["lower"] < 0.2
    assert sum(rep.timings.values()) <= elapsed


def test_orbits_computed_once_per_check(monkeypatch):
    # the symmetrized SDP stage reuses the cascade's orbit partition, and
    # the SDP layer cannot compute another
    assert not hasattr(sdp, "orbits")
    calls = _count_calls(monkeypatch, certify, "orbits")
    rep = check_conformal_rigidity(_petersen_prism())
    assert rep.lower.method == "Eigenvector"
    assert len(calls) == 1


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


def test_product_rigidity_checks_a_repeated_factor_once(monkeypatch):
    # the upper certificate's own embedding is spherical, so the canonical
    # fallback never decomposes the factor again
    calls = {"check": 0, "eigendecompose": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(certify, "check_conformal_rigidity",
                        counting("check", check_conformal_rigidity))
    monkeypatch.setattr(certify, "eigendecompose", counting("eigendecompose", eigendecompose))
    cert = product_rigidity(catalog("petersen"), catalog("petersen"))
    assert cert is not None and cert.kind == "product"
    assert calls == {"check": 1, "eigendecompose": 1}


def test_product_fallback_decomposes_at_the_callers_group_tol(monkeypatch):
    # a certificate embedding that is not spherical sends the factor to its
    # canonical embedding, grouped as the factor's own check grouped it
    seen = []

    def recording(L, group_tol=None):
        seen.append(group_tol)
        return eigendecompose(L, group_tol=group_tol)

    c4 = catalog("cycle_4")
    opts = CheckOptions(group_tol=1e-6)
    rep = check_conformal_rigidity(c4, opts)
    emb = rep.upper.certificate.embedding
    skewed = replace(emb, points=emb.points + 1.0)  # off-centre: not spherical
    upper = replace(rep.upper, certificate=replace(rep.upper.certificate, embedding=skewed))
    monkeypatch.setattr(certify, "check_conformal_rigidity",
                        lambda g, options: replace(rep, upper=upper))
    monkeypatch.setattr(certify, "eigendecompose", recording)
    cert = product_rigidity(c4, c4, opts)
    assert cert is not None and cert.kind == "product"
    assert seen == [1e-6, 1e-6]


def test_character_lp_agrees_with_the_sdp_route_on_small_circulants():
    # the paper's abelian criterion (a convex combination of the end's
    # characters) against the equal-length SDP route, on every connected
    # circulant(N, S) with N = 5..16 and |S| <= 3: same verdicts, all decided
    checked = rigid = 0
    for N in range(5, 17):
        for r in (1, 2, 3):
            for S in itertools.combinations(range(1, N // 2 + 1), r):
                g = circulant(N, set(S))
                if not g.is_connected():
                    continue
                lp = check_conformal_rigidity(g)
                sdp_route = check_conformal_rigidity(
                    g, CheckOptions(skip_stages={"character_lp"})
                )
                verdicts = (lp.lower.verdict, lp.upper.verdict)
                assert verdicts == (sdp_route.lower.verdict, sdp_route.upper.verdict), g.name
                assert "undecided" not in verdicts, g.name
                checked += 1
                rigid += lp.rigid
    assert (checked, rigid) == (350, 67)


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
