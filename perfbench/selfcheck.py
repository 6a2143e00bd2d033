"""Self-check of the benchmark on tiny inputs; runs in seconds.

Each workload runs one cold and one warm pass on shrunken inputs and must
pass its own checks.  Then every check is fed a deliberately wrong answer
and must reject it, so that no check passes vacuously.  The result line of
a run and the traced run are checked for their form.

Run it with `python3 -m pytest perfbench/selfcheck.py`.  The file name is
outside pytest's `test_*.py` pattern on purpose, so a plain `pytest` of the
repository does not collect it: it imports and drives the package in the
test process, and the acceptance criteria with wall-clock gates run later
in that same process.
"""
from __future__ import annotations

import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402

# Module constants of each workload that shrink its inputs.
TINY = {
    "hom_oracle": {"JOBS": (("A2", "kZQ", (0, 2)), ("A2", "RC", (0, 1))), "SAMPLE": 4},
    "strata": {"A2_POINTS": 2, "A3_POINTS": 1, "STRATUM_POINTS": 2, "FIBER_WS": ({("1", 1): 1, ("2", 0): 1},)},
    "resolutions": {"EXT_JOBS": (("A2", (0, 9), (1, 2), (1, 2), None), ("D4", (0, 5), (1, 2), (1,), (0, 1)),
                                 ("K2", (0, 3), (0, 3), (2,), (0, 1)))},
    "cli_session": {"REPS": 1, "PAIRS": 1, "STABLE": 1, "CARTAN": 2},
}


@pytest.fixture
def program(monkeypatch):
    """A fresh import of the package and tiny workloads; the caller's modules are put back afterwards."""
    for name, constants in TINY.items():
        wl = __import__(f"wl_{name}")
        for key, value in constants.items():
            monkeypatch.setattr(wl, key, value)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    saved = {k: v for k, v in sys.modules.items() if k == "stratakit" or k.startswith("stratakit.")}
    try:
        yield run.load_program()
    finally:
        for k in [k for k in sys.modules if k == "stratakit" or k.startswith("stratakit.")]:
            del sys.modules[k]
        sys.modules.update(saved)


def _tiny_round(name, sk, tmp_path, tracer=None):
    wl = __import__(f"wl_{name}")
    inputs = wl.setup(sk, 7, str(tmp_path))
    rd = run.run_round(wl, sk, inputs, str(tmp_path), 0, run.Clock(), tracer)
    return wl, inputs, rd


def _mutated(rd, label, change):
    """A copy of the round whose cold record `label` has its output replaced by change(output)."""
    bad = copy.copy(rd)
    records = []
    for r in rd["cold"][0]:
        if r.label == label:
            r = run.Record(r.label, r.start, r.end, r.seconds, change(r.output), r.error)
        records.append(r)
    bad["cold"] = (records, rd["cold"][1])
    return bad


def _problems(wl, sk, inputs, rd):
    return run.judge(wl, sk, inputs, [rd])[0]


def _label(rd, prefix):
    return next(r.label for r in rd["cold"][0] if r.label.startswith(prefix))


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_round_passes_its_checks(name, program, tmp_path):
    wl, inputs, rd = _tiny_round(name, program, tmp_path)
    problems, attempted, failed = run.judge(wl, program, inputs, [rd])
    assert problems == []
    assert attempted == 2 * len(rd["cold"][0]) > 0
    assert failed == 2 * len(wl.EXPECTED_FAILURES)


def test_hom_oracle_checks_reject_wrong_answers(program, tmp_path):
    wl, inputs, rd = _tiny_round("hom_oracle", program, tmp_path)
    sampled = rd["cold"][0][inputs["sample"][0]].label
    for change in (lambda o: (o[0] + 1, o[1], o[2]),      # dimension off: sample recomputation
                   lambda o: (o[0], o[1], False)):        # oracle disagreement
        assert _problems(wl, program, inputs, _mutated(rd, sampled, change))
    ident = next(r.label for (j, x, y), r in zip(inputs["pairs"], rd["cold"][0]) if x == y)
    assert _problems(wl, program, inputs, _mutated(rd, ident, lambda o: (2, o[1] * 2, o[2])))


def test_strata_checks_reject_wrong_answers(program, tmp_path):
    wl, inputs, rd = _tiny_round("strata", program, tmp_path)
    ks = program.kan_strata

    def bump_mult(res):
        x = next(iter(res.klr.rq.vertices))
        x = program.quiver_core.RepVertex(x.node, x.level)
        mult = dict(res.mult)
        mult[x] = mult.get(x, 0) + 1
        return ks.PhiResult(mult, res.v, res.w, res.klr)

    assert _problems(wl, program, inputs, _mutated(rd, "point0:phi", bump_mult))
    other = next(r.output for r in rd["cold"][0] if r.label == "stratum0:semisimple")
    assert _problems(wl, program, inputs, _mutated(rd, "point0:restrict_klr", lambda o: other))
    assert _problems(wl, program, inputs, _mutated(rd, "degen1,1", lambda o: not o))
    assert _problems(wl, program, inputs, _mutated(rd, "degen1,0", lambda o: not o))
    lift = _label(rd, "fiber0:lift")
    assert _problems(wl, program, inputs, _mutated(rd, lift, lambda o: ks.FiberResult(
        False, o.field_char, o.v0, o.attained, None, "wrong")))
    assert _problems(wl, program, inputs, _mutated(rd, "fiber0:overshoot", lambda o: ks.FiberResult(
        True, o.field_char, o.v0, o.attained, None, "wrong")))


def test_resolutions_checks_reject_wrong_answers(program, tmp_path):
    wl, inputs, rd = _tiny_round("resolutions", program, tmp_path)
    for prefix in ("ext:A2:", "ext:D4:", "ext:K2:", "ext:D4:double"):
        assert _problems(wl, program, inputs, _mutated(rd, _label(rd, prefix), lambda o: o + 1))
    assert _problems(wl, program, inputs, _mutated(rd, "ext_injective0",
                                                   lambda o: {u: 1 for u in o}))

    def add_relation(report):
        bad = copy.copy(report)
        bad.relations = {(report.vertices[0], report.vertices[0]): 1}
        return bad

    assert _problems(wl, program, inputs, _mutated(rd, "report:K2", add_relation))


def test_cli_checks_reject_wrong_answers(program, tmp_path):
    wl, inputs, rd = _tiny_round("cli_session", program, tmp_path)
    cartan = _label(rd, "cartan-solve 0")
    assert _problems(wl, program, inputs, _mutated(rd, cartan, lambda o: (
        o[0], json.dumps({"d": {"1@1": 99}}), o[2], o[3])))
    assert _problems(wl, program, inputs, _mutated(rd, "phi rep0", lambda o: (1, "", "{}", None)))
    # a warm pass that differs from the cold one
    assert _problems(wl, program, inputs, _mutated(rd, "phi rep0", lambda o: (o[0], o[1] + " ", o[2], o[3])))
    # a bad-input invocation counts as failed until it exits 1 with the JSON error
    fixed = _mutated(rd, "hom vertex outside the quiver", lambda o: (
        1, "", '{"error": "InvalidInputError", "code": 1, "detail": "no vertex 7"}\n', None))
    assert run.judge(wl, program, inputs, [fixed])[2] == 2 * len(wl.EXPECTED_FAILURES) - 1


def test_result_line_form(program):
    res = run.run_workload("hom_oracle", 3, 0, False)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0
    names = ["setup_s", "cold_s", "warm_s", "op_p50_ms", "op_p90_ms", "peak_rss_mib", "disk_cache_kib"]
    assert list(res["metrics"]) == names
    assert all(m["value"] > 0 for m in res["metrics"].values())
    bench = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    assert [m["name"] for m in bench["end_to_end"]] == names
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in spans.METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_traced_run_reports_every_layer_and_restores_the_program(program, tmp_path):
    original = program.exact_linalg.rref
    tracer = spans.Tracer()
    _tiny_round("strata", program, tmp_path, tracer)
    assert program.exact_linalg.rref is original
    assert program.kan_strata.rref is original
    metrics = tracer.metrics(0.0)
    assert list(metrics) == [n for n, _ in spans.METRICS]
    assert metrics["kan_strata.phi.calls"]["value"] > 0
    assert metrics["exact_linalg.rref_gf.calls"]["value"] > 0
    assert 0 < metrics["mesh_hom.sweep.hit_ratio"]["value"] < 1
    assert metrics["mesh_hom.disk.loads"]["value"] > 0
    assert metrics["quiver_core.key.calls"]["value"] >= metrics["mesh_hom.sweep.calls"]["value"]
