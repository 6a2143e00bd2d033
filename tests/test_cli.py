import json
import re
import time
from pathlib import Path

import pytest

from stratakit.cli import main
from stratakit.kan_strata import SModulePoint, kan_intermediate, representable_rep
from stratakit.errors import InvalidInputError
from stratakit.mesh_hom import MAX_SWEEP_ENTRIES
from stratakit.quiver_core import MAX_WINDOW_LEVELS, Window, a_n_quiver, parse_vertex


A2_JSON = json.dumps({"vertices": ["1", "2"],
                      "arrows": [{"id": "a", "source": "1", "target": "2"}]})
A2_REP = {"quiver": json.loads(A2_JSON), "framed": True, "window": [0, 2], "configuration": None,
          "dims": {"1@0": 1}, "mats": {}}


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


@pytest.mark.parametrize("p", [3, 2])
def test_validate_over_gf_p_reports_the_violation_like_over_qq(capsys, p):
    # the golden validate-violation-exit-1 input, read over GF(p): its residual 1 is 1 mod p too
    rep = {"quiver": json.loads(A2_JSON), "framed": True, "window": [0, 2], "configuration": None,
           "dims": {"1@0": 1, "2@0": 1, "1@1": 1}, "mats": {"a:a@0": [["1"]], "s:a@1": [["1"]]}}
    golden = json.loads((Path(__file__).parent / "golden" / "cli_expected.json").read_text())
    code, out, err = run(capsys, "validate", "--rep", json.dumps({**rep, "field": p}))
    assert (code, err) == (1, "")
    assert out == golden["validate-violation-exit-1"]["stdout"]


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


def test_fiber_rejects_a_representation_over_another_prime(capsys):
    semis = {"quiver": json.loads(A2_JSON), "framed": True, "window": [0, 4],
             "configuration": None, "dims": {"1'@1": 1}, "mats": {}, "field": 3}
    argv = ["fiber", "--rep", json.dumps(semis), "--v", json.dumps({"1@2": 1}), "--bound", "32"]
    code, out, err = run(capsys, *argv, "--field", "2")
    assert code == 1 and out == ""
    error = json.loads(err.strip())
    assert error["error"] == "InvalidInputError" and "GF(3)" in error["detail"]
    code, out, _ = run(capsys, *argv, "--field", "3")
    assert code == 0
    data = json.loads(out)
    assert data["nonempty"] is True and data["field"] == 3 and data["witness"]["field"] == 3


def test_fiber_negative_bound_exits_1_with_json_error(capsys):
    rep = str(Path(__file__).parent / "golden" / "a2_fiber.json")
    code, out, err = run(capsys, "fiber", "--rep", rep, "--v", "{}", "--bound", "-1")
    assert code == 1 and out == ""
    error = json.loads(err.strip())
    assert error["error"] == "InvalidInputError" and "bound" in error["detail"]
    code, out, _ = run(capsys, "fiber", "--rep", rep, "--v", "{}", "--bound", "0")
    assert code == 0
    data = json.loads(out)
    assert data["nonempty"] is None and data["detail"] == "CK dimension 2 exceeds the bound 0"


def test_ext_oracle_cli(capsys):
    code, out, _ = run(capsys, "ext-oracle", "--quiver", A2_JSON, "--window", "0", "6",
                       "--from", "1'@4", "--to", "1'@3", "--p", "1")
    assert code == 0 and json.loads(out)["dim"] == 1


@pytest.mark.parametrize("config", [None, json.dumps({"members": ["1@0"], "period": 1})],
                         ids=["node-outside-the-quiver", "vertex-the-configuration-drops"])
@pytest.mark.parametrize("target_above", [True, False])
def test_ext_oracle_rejects_a_vertex_that_is_no_object(capsys, config, target_above):
    bad = "7'@1" if config is None else "2'@1"  # A2 has no node 7; the configuration keeps only 1'@p
    pair = [bad, "1'@3"] if target_above else ["1'@3", bad]
    argv = ["ext-oracle", "--quiver", A2_JSON, "--window", "0", "5", "--from", pair[0], "--to", pair[1], "--p", "1"]
    if config is not None:
        argv += ["--config", config]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err.strip()) == {"error": "InvalidInputError", "code": 1,
                                       "detail": "both vertices must be retained objects inside the window"}


def test_main_output_is_unchanged_after_a_parse_error_and_a_failed_command(capsys):
    argv = ["hom", "--quiver", A2_JSON, "--from", "1@0", "--to", "2@0", "--window", "0", "2"]
    first = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["hom", "--quiver", A2_JSON, "--window", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "cartan-solve", "--quiver", A2_JSON, "--window", "0", "2", "--m", "[1]")[0] == 1
    assert run(capsys, *argv) == first
    assert first[0] == 0 and json.loads(first[1])["dim"] == 1


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
    assert re.search(r"criterion 2: .*, \d+\.\ds of 30s$", out.strip())


def test_run_suite_times_a_criterion_that_raises(monkeypatch):
    from stratakit import acceptance

    def broken(seed):
        raise RuntimeError("inconsistent")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", acceptance.ALL_CRITERIA[:10] + [broken])
    lines = []
    assert acceptance.run_suite([11], out=lines.append) is False
    assert re.fullmatch(r"\[FAIL\] criterion 11: broken -- exception: inconsistent, \d+\.\ds of 120s", lines[0])


def test_cache_dir_env_wiring(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STRATAKIT_CACHE_DIR", str(tmp_path))
    from stratakit import mesh_hom

    mesh_hom.clear_cache()
    try:
        code, out, _ = run(capsys, "hom", "--quiver", A2_JSON, "--from", "1@0", "--to", "2@0",
                           "--window", "0", "2")
        assert code == 0 and json.loads(out)["dim"] == 1
        assert [p.suffix for p in tmp_path.iterdir()] == [".log"]
    finally:
        mesh_hom.enable_disk_cache(None)
        mesh_hom.clear_cache()


@pytest.mark.parametrize("argv", [
    ["cartan-solve", "--quiver", A2_JSON, "--window", "0", "4", "--m", '{"1@1": "x"}'],
    ["check-config", "--quiver", A2_JSON, "--window", "0", "4",
     "--config", '{"members": ["1@0"], "period": "2"}'],
    ["check-config", "--quiver", A2_JSON, "--window", "0", "4", "--config", "[1, 2]"],
    ["hom", "--quiver", A2_JSON, "--window", "0", "4", "--from", "7@0", "--to", "7@1"],
    ["cartan-solve", "--quiver", A2_JSON, "--window", "0", "4", "--m", '{"1@1": 1.5, "2@1": -1, "1@2": 1}'],
    ["cartan-solve", "--quiver", A2_JSON, "--window", "0", "4", "--m", '{"1@1": true}'],
    ["fiber", "--rep", json.dumps({"quiver": json.loads(A2_JSON), "framed": True, "window": [0, 4],
                                   "configuration": None, "dims": {"1'@1": 1}, "mats": {}}),
     "--v", '{"1@2": 1.5}'],
    ["cartan-solve", "--quiver", '{"vertices": null, "arrows": []}', "--window", "0", "4", "--m", "{}"],
    ["cartan-solve", "--quiver", A2_JSON, "--window", "0", "4", "--m", '{"3@2": 1}'],
    ["validate", "--rep", json.dumps(dict(A2_REP, dims=[1]))],
    ["validate", "--rep", json.dumps(dict(A2_REP, dims={"1@0": 1.5}))],
    ["validate", "--rep", json.dumps(dict(A2_REP, field=float("inf")))],
    ["validate", "--rep", json.dumps(dict(A2_REP, window=[float("-inf"), 2]))],
    ["validate", "--rep", json.dumps(dict(A2_REP, field=2, dims={"1@0": 1, "2@0": 1}, mats={"a:a@0": [[1.5]]}))],
    ["validate", "--rep", "[]"],
    ["check-config", "--quiver", A2_JSON, "--window", "0", "4", "--config", '{"members": ["7@0"]}'],
    ["sing-quiver", "--quiver", A2_JSON, "--window", "0", "4", "--max-span", "-1"],
], ids=["non-integer-entry", "string-period", "non-string-members", "unknown-node", "fractional-entry",
        "boolean-entry", "fiber-fractional-entry", "null-vertices", "cartan-unknown-node", "dims-not-an-object",
        "fractional-dimension", "infinite-field", "infinite-window", "fractional-gf-entry", "rep-not-an-object",
        "config-unknown-node", "negative-max-span"])
def test_bad_input_exits_1_with_json_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err.strip())["error"] == "InvalidInputError"


@pytest.mark.parametrize("argv", [
    ["validate", "--rep", json.dumps(dict(A2_REP, window=[0, 100000000]))],
    ["hom", "--quiver", A2_JSON, "--window", "0", "100000000", "--from", "1@0", "--to", "1@1"],
    ["sing-quiver", "--quiver", A2_JSON, "--window", "-100000000", "0"],
    ["validate", "--rep", json.dumps(dict(A2_REP, window=[0, 2.7]))],
    ["validate", "--rep", json.dumps(dict(A2_REP, window=[False, "3"]))],
    ["validate", "--rep", json.dumps(dict(A2_REP, window=[0, 2, 5]))],
    ["validate", "--rep", json.dumps(dict(A2_REP, field=100000000000031))],
    ["validate", "--rep", json.dumps(dict(A2_REP, field=2 ** 89 - 1))],
    ["fiber", "--rep", json.dumps(dict(A2_REP, dims={"1'@1": 1})), "--v", "{}", "--field", str(2 ** 89 - 1)],
], ids=["rep-window-too-wide", "hom-window-too-wide", "sing-quiver-window-too-wide", "fractional-window",
        "boolean-and-string-window", "three-entry-window", "prime-above-2-31", "mersenne-89", "fiber-mersenne-89"])
def test_oversized_or_non_integer_input_exits_1_within_a_second(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert json.loads(err.strip())["error"] == "InvalidInputError"


def test_window_input_takes_two_integers_spanning_at_most_the_limit():
    assert Window.from_json([5, 5 + MAX_WINDOW_LEVELS - 1]) == Window(5, 5 + MAX_WINDOW_LEVELS - 1)
    for bad in ([5, 5 + MAX_WINDOW_LEVELS], [0, 2.0], [False, 2], [0, "2"], [0], [0, 1, 2], "0 2", None):
        with pytest.raises(InvalidInputError):
            Window.from_json(bad)


@pytest.mark.parametrize("where", ["regular-file", "under-a-file"])
def test_unusable_cache_dir_exits_1_with_json_error(capsys, tmp_path, monkeypatch, where):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    cache_dir = blocker if where == "regular-file" else blocker / "cache"
    monkeypatch.setenv("STRATAKIT_CACHE_DIR", str(cache_dir))
    from stratakit import mesh_hom

    try:
        code, out, err = run(capsys, "hom", "--quiver", A2_JSON, "--from", "1@0", "--to", "2@0",
                             "--window", "0", "2")
    finally:
        mesh_hom.enable_disk_cache(None)
        mesh_hom.clear_cache()
    assert code == 1 and out == ""
    error = json.loads(err.strip())
    assert error["error"] == "InvalidInputError" and "STRATAKIT_CACHE_DIR" in error["detail"]
    assert [p.name for p in tmp_path.iterdir()] == ["not-a-dir"] and blocker.read_text() == ""


def test_sing_quiver_over_its_work_budget_exits_1_at_once(capsys):
    """sing-quiver over A2 [0, 999] needs 999,000 source-levels of sweeps: it is refused
    before any sweep, with the JSON error, and never gets near running out of memory."""
    start = time.perf_counter()
    code, out, err = run(capsys, "sing-quiver", "--quiver", A2_JSON, "--window", "0", "999")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    error = json.loads(err.strip())
    assert (error["error"], error["code"]) == ("InvalidInputError", 1)
    assert "999000 source-levels" in error["detail"] and "limit 10000" in error["detail"]


K3_JSON = json.dumps({"vertices": ["1", "2"], "arrows": [{"id": f"k{i}", "source": "1", "target": "2"}
                                                         for i in (1, 2, 3)]})


@pytest.mark.parametrize("argv", [
    ["hom", "--quiver", K3_JSON, "--flavor", "kZQ", "--from", "1@0", "--to", "2@5", "--window", "0", "5"],
    ["sing-quiver", "--quiver", K3_JSON, "--window", "0", "6"],
], ids=["hom-K3-0-5", "sing-quiver-K3-0-6"])
def test_a_sweep_over_its_entry_limit_exits_1_with_json_error(capsys, argv):
    """The 3-Kronecker Hom spaces grow exponentially with the level distance: a sweep
    that would hold more than mesh_hom.MAX_SWEEP_ENTRIES matrix entries is refused with
    the JSON error naming the limit, long before it could exhaust memory."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    error = json.loads(err.strip())
    assert (error["error"], error["code"]) == ("InvalidInputError", 1)
    assert f"the limit of {MAX_SWEEP_ENTRIES} matrix entries" in error["detail"]


def test_out_of_memory_exits_1_with_json_error(capsys, monkeypatch):
    """A command that runs out of memory (here a stand-in raising MemoryError, as sing-quiver
    over [0, 999] did before its work budget) reports the JSON error and exit code 1, and the
    next command runs as before."""
    from stratakit import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_sing_quiver", exhausted)
    code, out, err = run(capsys, "sing-quiver", "--quiver", A2_JSON, "--window", "0", "999")
    assert code == 1 and out == ""
    error = json.loads(err.strip())
    assert (error["error"], error["code"]) == ("InvalidInputError", 1)
    assert error["detail"].startswith("sing-quiver: out of memory")
    code, out, err = run(capsys, "hom", "--quiver", A2_JSON, "--from", "1@0", "--to", "2@0", "--window", "0", "2")
    assert code == 0 and err == "" and json.loads(out)["dim"] == 1
