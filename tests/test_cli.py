"""Command-line interface: exit codes, JSON schema conformance, and the
embed/family subcommands."""

import json
from importlib import resources

import jsonschema
import pytest

from confrigid.catalog import catalog
from confrigid.certify import CheckOptions, check_conformal_rigidity
from confrigid.cli import build_options, main, make_parser
from confrigid.errors import NotAutomorphismError
from confrigid.graphs import circulant
from confrigid.symmetry import PermutationSet


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _schema():
    with resources.files("confrigid").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def test_check_rigid_exit_zero(capsys):
    code, out, _ = _run(capsys, ["check", "--catalog", "hoffman", "--json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, _schema())
    assert report["rigid"] is True
    assert report["lower"]["method"] == "OneWalkRegular"
    assert report["searchExhausted"] is False


def test_text_report_says_whether_the_search_ran_out(capsys):
    _, out, _ = _run(capsys, ["check", "--catalog", "petersen"])
    assert "search exhausted = False" in out
    _, out, _ = _run(capsys, ["check", "--circulant", "18", "1,5"])
    assert "search exhausted = None" in out


def test_check_refuted_exit_two(capsys):
    code, out, _ = _run(capsys, ["check", "--catalog", "triangular_prism", "--json"])
    assert code == 2
    report = json.loads(out)
    jsonschema.validate(report, _schema())
    assert report["lower"]["verdict"] == "refuted"
    assert report["lower"]["witness"] is not None
    # the margin is re-checkable from the report: best value against unit
    for end, unit in (("lower", report["lambda2"]), ("upper", report["lambdaMax"])):
        res = report[end]["residuals"]
        assert set(res) == {"best_value", "falsifier_unit", "dual_min_eig"}
        assert res["falsifier_unit"] == pytest.approx(unit)
        sign = 1.0 if end == "lower" else -1.0
        assert sign * (res["best_value"] - unit) > 1e-6 * unit
        # the equal-length decision's dual certificate: S(c) is positive definite
        assert res["dual_min_eig"] > 0


def test_text_report_of_a_refuted_graph(capsys):
    code, out, _ = _run(capsys, ["check", "--catalog", "path_4"])
    assert code == 2
    lines = out.splitlines()
    assert lines[-1] == "overall: refuted"
    for end in ("lower", "upper"):
        i = next(k for k, ln in enumerate(lines) if ln.lstrip().startswith(end + ":"))
        assert lines[i].endswith("refuted via Falsifier")
        assert lines[i + 1].strip().startswith("witness weights: [")
        assert lines[i + 2].strip().startswith("achieved value: ")
    # the witness and value lines print the JSON report's figures
    _, out, _ = _run(capsys, ["check", "--catalog", "path_4", "--json"])
    report = json.loads(out)
    w = ", ".join(f"{x:.6g}" for x in report["lower"]["witness"])
    assert f"witness weights: [{w}]" in "\n".join(lines)


def test_check_undecided_exit_three(capsys):
    skip = "edge_transitive,character_lp,walk_regular,canonical,symmetrized_sdp,trivial_sdp,falsify"
    code, out, _ = _run(
        capsys, ["check", "--catalog", "petersen", "--stage-skip", skip, "--json"]
    )
    assert code == 3
    assert json.loads(out)["lower"]["verdict"] == "undecided"


def test_undecided_end_names_falsifier_values(capsys):
    # only the decision and the falsifier run, and petersen is rigid: the
    # decision settles equal lengths at once, which leaves the falsifier
    # no direction, and the report says so
    skip = "edge_transitive,character_lp,walk_regular,canonical,symmetrized_sdp,trivial_sdp"
    code, out, _ = _run(
        capsys, ["check", "--catalog", "petersen", "--stage-skip", skip, "--json"]
    )
    assert code == 3
    report = json.loads(out)
    jsonschema.validate(report, _schema())
    for end in ("lower", "upper"):
        assert report[end]["verdict"] == "undecided"
        res = report[end]["residuals"]
        assert set(res) == {"decision_gap", "decision_iterations"}
        assert res["decision_iterations"] == 0
        assert res["decision_gap"] <= 1e-8


def test_check_circulant_text(capsys):
    code, out, _ = _run(capsys, ["check", "--circulant", "18", "1,5"])
    assert code == 0
    assert "conformally rigid" in out
    assert "CharacterLP" in out or "Eigenvector" in out


def test_text_and_json_verdicts_agree(capsys):
    code_t, out_t, _ = _run(capsys, ["check", "--catalog", "complete_4"])
    code_j, out_j, _ = _run(capsys, ["check", "--catalog", "complete_4", "--json"])
    assert code_t == code_j == 0
    assert ("conformally rigid" in out_t) == json.loads(out_j)["rigid"]


def test_check_cayley_input(capsys):
    code, out, _ = _run(
        capsys, ["check", "--cayley", "3,3", "1,0", "0,1", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["graph"]["n"] == 9
    assert report["rigid"] is True


def test_unknown_catalog_is_input_error(capsys):
    code, _, err = _run(capsys, ["check", "--catalog", "nonexistent_graph"])
    assert code == 1
    assert "error" in err


def test_bad_stage_skip_is_input_error(capsys):
    code, _, err = _run(
        capsys, ["check", "--catalog", "complete_4", "--stage-skip", "warp_drive"]
    )
    assert code == 1
    assert "warp_drive" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("flag", ["--tol-group", "--tol-iso", "--tol-feas"])
def test_tolerance_not_finite_and_positive_is_input_error(capsys, flag, bad):
    code, out, err = _run(capsys, ["check", "--catalog", "petersen", flag, bad])
    assert code == 1
    assert out == ""
    assert "must be finite and positive" in err


@pytest.mark.parametrize("bad", ["nan", "-1"])
def test_embed_tolerance_not_finite_and_positive_is_input_error(capsys, bad):
    # a NaN isometry tolerance would report cycle_6 as not edge-isometric
    argv = ["embed", "--catalog", "cycle_6", "--at", "lambda2", "--tol-iso", bad]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "iso_tol must be finite and positive" in err


def test_disconnected_edges_file_is_input_error(tmp_path, capsys):
    f = tmp_path / "g.txt"
    for text in ("4 2\n0 1\n2 3\n", "1 0\n"):
        f.write_text(text)
        code, _, err = _run(capsys, ["check", "--edges", str(f)])
        assert code == 1
        assert "Disconnected" in err


def test_cayley_generator_arity_is_input_error(capsys):
    code, _, err = _run(capsys, ["check", "--cayley", "6", "1,5"])
    assert code == 1
    assert "wrong arity" in err


def test_graph6_file_input(tmp_path, capsys):
    f = tmp_path / "petersen.g6"
    f.write_text("IheA@GUAo\n")
    code, out, _ = _run(capsys, ["check", "--graph6", str(f), "--json"])
    assert code == 0
    assert json.loads(out)["graph"]["n"] == 10


def test_gens_file_bypasses_search(tmp_path, capsys):
    f = tmp_path / "gens.txt"
    f.write_text("1 2 3 4 5 0\n")  # rotation of C6
    code, out, _ = _run(
        capsys, ["check", "--catalog", "cycle_6", "--gens", str(f), "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["edgeOrbits"] == 1
    assert report["lower"]["method"] == "EdgeTransitive"


def test_gens_file_on_a_cayley_graph_is_checked(tmp_path, capsys):
    # supplied generators replace the spec's translations, and their orbits
    # are computed, so a non-automorphism is still caught
    g = circulant(8, {1, 2})
    bad = PermutationSet(n=8, gens=((1, 0, 2, 3, 4, 5, 6, 7),))
    with pytest.raises(NotAutomorphismError):
        check_conformal_rigidity(g, CheckOptions(generators=bad))
    f = tmp_path / "gens.txt"
    f.write_text("1 0 2 3 4 5 6 7\n")
    code, out, err = _run(capsys, ["check", "--circulant", "8", "1,2", "--gens", str(f)])
    assert code == 1 and not out
    assert "non-edge" in err
    f.write_text("1 2 3 4 5 6 7 0\n")  # the rotation, an automorphism
    code, out, _ = _run(capsys, ["check", "--circulant", "8", "1,2", "--gens", str(f), "--json"])
    assert code in (0, 2)  # a report, not an input error
    assert json.loads(out)["edgeOrbits"] == 2


def test_gens_are_checked_where_no_end_reads_the_group(tmp_path, capsys):
    # both ends of path_20 are simple and refuted without a group, yet
    # supplied generators are still checked up front
    bad = PermutationSet(n=20, gens=((1, 0) + tuple(range(2, 20)),))
    with pytest.raises(NotAutomorphismError):
        check_conformal_rigidity(catalog("path_20"), CheckOptions(generators=bad))
    f = tmp_path / "gens.txt"
    f.write_text(" ".join(map(str, bad.gens[0])) + "\n")
    code, out, err = _run(capsys, ["check", "--catalog", "path_20", "--gens", str(f)])
    assert code == 1 and not out
    assert "non-edge" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--catalog", "petersen", "--trails", "5"],
        ["check", "--catalog", "petersen", "--seed", "7"],
        ["check"],
        ["frobnicate"],
    ],
)
def test_usage_error_is_input_error(capsys, argv):
    # argparse's own exit status 2 would read as "refuted at some end"
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert "usage:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "--catalog", "petersen", "--gens", "FILE"],
        ["embed", "--catalog", "petersen", "--tol-feas", "1e-6"],
        ["embed", "--catalog", "petersen", "--stage-skip", "falsify"],
        ["family", "6", "6", "--gens", "FILE"],
    ],
    ids=["embed-gens", "embed-tol-feas", "embed-stage-skip", "family-gens"],
)
def test_a_command_rejects_a_flag_it_does_not_read(capsys, argv):
    # embed runs no cascade, and family builds its own circulants
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "usage:" in err and argv[-2] in err


def test_cli_defaults_are_the_library_defaults():
    parser = make_parser()
    defaults = CheckOptions()
    for argv in (["check", "--catalog", "petersen"], ["family", "6", "6"]):
        args = parser.parse_args(argv)
        assert args.tol_iso == defaults.iso_tol
        assert args.tol_feas == defaults.feas_tol
        assert build_options(args, catalog("petersen")) == defaults
    assert parser.parse_args(["embed", "--catalog", "petersen"]).tol_iso == defaults.iso_tol


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["check", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out


def test_embed_path4_lambdamax(capsys):
    code, out, _ = _run(
        capsys, ["embed", "--catalog", "path_4", "--at", "lambdamax"]
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "vertex,x0"
    coords = [float(ln.split(",")[1]) for ln in lines[1:]]
    # line-drawing order: vertex 2, 0, 3, 1 from most negative to most positive
    order = sorted(range(4), key=lambda i: coords[i])
    assert order == [2, 0, 3, 1]
    assert "edge-isometric: False" in out


def test_embed_at_a_given_value(capsys):
    code, out, _ = _run(capsys, ["embed", "--catalog", "petersen", "--value", "5"])
    assert code == 0
    assert "# eigenvalue = 5 (multiplicity 4)" in out
    assert "edge-isometric: True" in out
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "vertex,x0,x1,x2,x3"
    assert len(lines) == 11
    # a value that is no eigenvalue is an input error
    code, out, err = _run(capsys, ["embed", "--catalog", "petersen", "--value", "3"])
    assert code == 1 and out == ""
    assert "no eigenvalue near 3" in err


def test_embed_circulant_21_traces_heptagon(capsys):
    code, out, _ = _run(
        capsys, ["embed", "--circulant", "21", "1,6", "--at", "lambda2", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    pts = data["points"]
    assert len(pts[0]) == 2
    # the 21-cycle image visits only 7 distinct points (three times around)
    rounded = {tuple(round(c, 8) for c in p) for p in pts}
    assert len(rounded) == 7


def test_family_range_and_walk1(capsys):
    # the whole range the CLI accepts, up to N = 192
    code, out, _ = _run(capsys, ["family", "6", "64", "--json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == list(range(6, 65))
    for r in rows:
        assert r["lowerVerdict"] == "certified"
        assert r["upperVerdict"] == "certified"
        assert r["walk1"] is (r["n"] % 3 == 2)
        assert r["argminIndex"] == 3
        assert r["argmaxIndex"] == 3 * (r["n"] // 2)


def test_family_range_error(capsys):
    code, _, err = _run(capsys, ["family", "2", "5"])
    assert code == 1
    assert "6..64" in err
