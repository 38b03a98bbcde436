"""Command-line interface: exit codes, JSON schema conformance, and the
embed/family subcommands."""

import json
from importlib import resources

import jsonschema
import pytest

from confrigid.cli import main


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


def test_check_refuted_exit_two(capsys):
    code, out, _ = _run(capsys, ["check", "--catalog", "triangular_prism", "--json"])
    assert code == 2
    report = json.loads(out)
    jsonschema.validate(report, _schema())
    assert report["lower"]["verdict"] == "refuted"
    assert report["lower"]["witness"] is not None


def test_check_undecided_exit_three(capsys):
    skip = "edge_transitive,character_lp,walk_regular,canonical,symmetrized_sdp,trivial_sdp,falsify"
    code, out, _ = _run(
        capsys, ["check", "--catalog", "petersen", "--stage-skip", skip, "--json"]
    )
    assert code == 3
    assert json.loads(out)["lower"]["verdict"] == "undecided"


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


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CRG_SEED", "42")
    code, out, _ = _run(capsys, ["check", "--catalog", "complete_4", "--json"])
    assert code == 0
    assert json.loads(out)["seed"] == 42


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
    code, out, _ = _run(capsys, ["family", "6", "12", "--json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == list(range(6, 13))
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
