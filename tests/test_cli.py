import json

import pytest

from stratakit.cli import main
from stratakit.kan_strata import SModulePoint, kan_intermediate, representable_rep
from stratakit.quiver_core import Window, a_n_quiver, parse_vertex


A2_JSON = json.dumps({"vertices": ["1", "2"],
                      "arrows": [{"id": "a", "source": "1", "target": "2"}]})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hom_vanishing_composite(capsys):
    code, out, _ = run(capsys, "hom", "--quiver", A2_JSON, "--from", "1@0", "--to", "1@1",
                       "--window", "0", "1")
    assert code == 0
    assert json.loads(out) == {"dim": 0, "basis": []}


def test_hom_dq_and_cartan_round_trip(capsys):
    code, out, _ = run(capsys, "hom-dq", "--quiver", A2_JSON, "--from", "1@1", "--p", "1",
                       "--to", "1@0", "--window", "0", "4")
    assert code == 0 and json.loads(out)["dim"] == 1

    m = json.dumps({"1@1": 1, "2@1": -1, "1@2": 1})
    code, out, _ = run(capsys, "cartan-solve", "--quiver", A2_JSON, "--window", "0", "4", "--m", m)
    assert code == 0
    assert json.loads(out) == {"d": {"1@1": 1}}


def test_cartan_solve_window_error_exit_code(capsys):
    code, out, err = run(capsys, "cartan-solve", "--quiver", A2_JSON, "--window", "0", "2",
                         "--m", json.dumps({"1@0": 1}))
    assert code == 2
    assert json.loads(err.strip())["error"] == "WindowInsufficiencyError"


def test_phi_of_frozen_simple(capsys):
    rep = {"quiver": json.loads(A2_JSON), "framed": True, "window": [0, 3],
           "configuration": None, "dims": {"1'@1": 1}, "mats": {}}
    code, out, _ = run(capsys, "phi", "--rep", json.dumps(rep))
    assert code == 0
    data = json.loads(out)
    assert data == {"phi": {"1@2": 1}, "v": {}, "w": {"1'@1": 1}}


def test_validate_reports_violations_with_exit_1(capsys):
    rep = {"quiver": json.loads(A2_JSON), "framed": True, "window": [0, 2],
           "configuration": None,
           "dims": {"1@0": 1, "2@0": 1, "1@1": 1, "1'@0": 0},
           "mats": {"a:a@0": [["1"]], "s:a@1": [["1"]]}}
    code, out, _ = run(capsys, "validate", "--rep", json.dumps(rep))
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["violations"][0]["vertex"] == "1@1"

    rep["mats"].pop("s:a@1")
    code, out, _ = run(capsys, "validate", "--rep", json.dumps(rep))
    assert code == 0 and json.loads(out) == {"ok": True}


def test_stratum_and_degen_round_trip(capsys, tmp_path):
    q = a_n_quiver(2)
    w = Window(0, 3)
    klr = kan_intermediate(SModulePoint.semisimple(q, w, {parse_vertex("1'@1"): 1}), w).rep
    f1 = tmp_path / "rep1.json"
    f1.write_text(json.dumps(klr.to_json()))
    semis = {"quiver": json.loads(A2_JSON), "framed": True, "window": [0, 3],
             "configuration": None, "dims": {"1'@1": 1}, "mats": {}}
    f2 = tmp_path / "rep2.json"
    f2.write_text(json.dumps(semis))
    code, out, _ = run(capsys, "stratum", "--rep", str(f1), "--other", str(f2))
    assert code == 0 and json.loads(out) == {"same_stratum": True}

    code, out, _ = run(capsys, "degen", "--rep", str(f1), "--other", str(f2))
    assert code == 0
    assert json.loads(out) == {"rep2_in_closure_of_rep1": True, "rep1_in_closure_of_rep2": True}


def test_sing_quiver_dot_output(capsys, tmp_path):
    dot = tmp_path / "s.dot"
    code, out, _ = run(capsys, "sing-quiver", "--quiver", A2_JSON, "--window", "0", "4",
                       "--dot", str(dot))
    assert code == 0
    assert json.loads(out)["dynkin"]["family"] == "A"
    assert dot.read_text().startswith("digraph")


def test_fiber_cli(capsys):
    semis = {"quiver": json.loads(A2_JSON), "framed": True, "window": [0, 4],
             "configuration": None, "dims": {"1'@1": 1}, "mats": {}}
    code, out, _ = run(capsys, "fiber", "--rep", json.dumps(semis), "--v", json.dumps({"1@2": 1}),
                       "--field", "2", "--bound", "32")
    assert code == 0
    data = json.loads(out)
    assert data["nonempty"] is True and data["field"] == 2
    assert data["witness"]["dims"] == {"1'@1": 1, "1@2": 1}


def test_ext_oracle_cli(capsys):
    code, out, _ = run(capsys, "ext-oracle", "--quiver", A2_JSON, "--window", "0", "6",
                       "--from", "1'@4", "--to", "1'@3", "--p", "1")
    assert code == 0 and json.loads(out)["dim"] == 1


def test_emitted_json_reparses_to_equal_values(capsys):
    q = a_n_quiver(2)
    w = Window(0, 3)
    rep = representable_rep(q, w, parse_vertex("2'@1"))
    code, out, _ = run(capsys, "klr", "--rep", json.dumps(rep.to_json()))
    assert code == 0
    from stratakit.kan_strata import WindowRep

    emitted = json.loads(out)
    again = WindowRep.from_json(emitted)
    assert again.to_json() == emitted


def test_selftest_d4_suite(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "d4")
    assert code == 0
    assert "[PASS] criterion 2" in out


def test_cache_dir_env_wiring(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STRATAKIT_CACHE_DIR", str(tmp_path))
    from stratakit import mesh_hom

    mesh_hom.clear_cache()
    try:
        code, out, _ = run(capsys, "hom", "--quiver", A2_JSON, "--from", "1@0", "--to", "2@0",
                           "--window", "0", "2")
        assert code == 0 and json.loads(out)["dim"] == 1
        assert list(tmp_path.glob("hom-*.json"))
    finally:
        mesh_hom.enable_disk_cache(None)
        mesh_hom.clear_cache()


@pytest.mark.parametrize("argv", [
    ["cartan-solve", "--quiver", A2_JSON, "--window", "0", "4", "--m", '{"1@1": "x"}'],
    ["check-config", "--quiver", A2_JSON, "--window", "0", "4",
     "--config", '{"members": ["1@0"], "period": "2"}'],
    ["check-config", "--quiver", A2_JSON, "--window", "0", "4", "--config", "[1, 2]"],
    ["hom", "--quiver", A2_JSON, "--window", "0", "4", "--from", "7@0", "--to", "7@1"],
], ids=["non-integer-entry", "string-period", "non-string-members", "unknown-node"])
def test_bad_input_exits_1_with_json_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err.strip())["error"] == "InvalidInputError"
