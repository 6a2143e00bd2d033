"""cli_session: strata-kit invocations through cli.main, in-process, one after another.

The invocations run in a fixed order: in a cold pass the first one to need
a sweep computes and stores it and later ones load it, so the order decides
which invocations are slow.  The representations have dimension vectors
from a fixed draw and seeded matrices.

Before each invocation the in-memory Hom cache is cleared, as a separate
process would start with it empty; the disk cache (STRATAKIT_CACHE_DIR)
is written by the cold pass and read by the warm pass.  Set-up writes the
quiver and representation files the invocations read.  Four invocations
fail every time on bad input that the program does not reject cleanly;
they are counted as failed until each exits 1 with the JSON error.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random

from independent import cartan_apply
from inputs import FIBER_WS, STRATUM_W, is_stable, random_rep

REPS = 8
PAIRS = 4
STABLE = 3
STABLE_ATTEMPTS = 400
CARTAN = 54
# Bad inputs; none of them depends on the seed.
EXPECTED_FAILURES = frozenset({
    "cartan-solve non-integer m",
    "check-config string period",
    "check-config list config",
    "hom vertex outside the quiver",
})


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def setup(sk, seed, workdir):
    qc = sk.quiver_core
    rng = random.Random(seed)
    d = os.path.join(workdir, "cli")
    os.makedirs(d, exist_ok=True)
    q2, k2, d4 = qc.a_n_quiver(2), qc.kronecker_quiver(2), qc.d4_quiver()
    a2f = _write(os.path.join(d, "a2.json"), q2.to_json())
    k2f = _write(os.path.join(d, "k2.json"), k2.to_json())
    d4f = _write(os.path.join(d, "d4.json"), d4.to_json())
    w3, w4 = qc.Window(0, 3), qc.Window(0, 4)
    rep_files = [_write(os.path.join(d, f"rep{i}.json"),
                        random_rep(sk, q2, w3, rng, dims_rng=random.Random(1000 + i)).to_json())
                 for i in range(REPS)]
    pair_files = [_write(os.path.join(d, f"fixedw{i}.json"),
                         random_rep(sk, q2, w3, rng, dim_choices=(0, 1, 1, 2), frozen_dims=STRATUM_W,
                                    dims_rng=random.Random(1100 + i)).to_json())
                  for i in range(PAIRS + 1)]
    stable_files = []
    for _ in range(STABLE_ATTEMPTS):
        rep = random_rep(sk, q2, w3, rng, dim_choices=(0, 1), coeff_range=3,
                         frozen_dims={(n, p): 2 for n in ("1", "2") for p in (0, 1, 2, 3)})
        if is_stable(sk, rep):
            stable_files.append(_write(os.path.join(d, f"stable{len(stable_files)}.json"), rep.to_json()))
            if len(stable_files) == STABLE:
                break
    if len(stable_files) < STABLE:
        raise RuntimeError(f"no {STABLE} stable representations in {STABLE_ATTEMPTS} draws")
    fiber_files = [_write(os.path.join(d, f"fiber{i}.json"),
                          random_rep(sk, q2, w4, rng, dim_choices=(0, 1, 1), support=qc.Window(0, 1),
                                     frozen_dims=fw, dims_rng=random.Random(1200 + i)).to_json())
                   for i, fw in enumerate(FIBER_WS)]
    cartan_cases = []
    for _ in range(CARTAN):
        dvec = {(n, p): rng.randint(-2, 2) for n in ("1", "2") for p in (1, 2)}
        m = cartan_apply(q2.arrows, dvec)
        cartan_cases.append(({f"{n}@{p}": v for (n, p), v in sorted(dvec.items()) if v},
                             {f"{n}@{p}": v for (n, p), v in sorted(m.items())}))

    cmds = []
    for i, src in enumerate(("1@0", "2'@0")):
        cmds.append((f"hom K2 RC {i}", ["hom", "--quiver", k2f, "--flavor", "RC", "--from", src, "--to", "2@3",
                                        "--window", "0", "3"]))
    for i, (src, tgt) in enumerate((("1@0", "2@3"), ("2@0", "1@4"), ("1@1", "1@5"), ("2@1", "2@4"),
                                    ("1@2", "2@5"), ("2@2", "1@5"), ("1@0", "1@3"), ("2@0", "2@2"))):
        cmds.append((f"hom A2 kZQ {i}", ["hom", "--quiver", a2f, "--from", src, "--to", tgt, "--window", "0", "5"]))
    cmds.append(("hom A2 RC", ["hom", "--quiver", a2f, "--flavor", "RC", "--from", "1'@0", "--to", "2@3",
                               "--window", "0", "3"]))
    for i, f in enumerate(rep_files):
        for sub in ("validate", "phi", "klr", "resolve", "stratum"):
            cmds.append((f"{sub} rep{i}", [sub, "--rep", f]))
    for i in range(PAIRS):
        a, b = pair_files[i], pair_files[i + 1]
        cmds.append((f"stratum pair{i}", ["stratum", "--rep", a, "--other", b]))
        cmds.append((f"degen pair{i}", ["degen", "--rep", a, "--other", b]))
    for i, f in enumerate(pair_files + stable_files + fiber_files):
        cmds.append((f"validate extra{i}", ["validate", "--rep", f]))
    for i, f in enumerate(stable_files):
        cmds.append((f"orbit stable{i}", ["orbit", "--rep", f]))
    for i, (src, p, tgt) in enumerate((("1@1", 0, "2@3"), ("1@1", 1, "2@1"), ("2@2", 1, "1@1"), ("1@2", 2, "1@1"))):
        cmds.append((f"hom-dq A2 {i}", ["hom-dq", "--quiver", a2f, "--from", src, "--p", str(p), "--to", tgt,
                                        "--window", "0", "5"]))
    for i, f in enumerate(fiber_files):
        cmds.append((f"fiber probe{i}", ["fiber", "--rep", f, "--v", "{}"]))
        cmds.append((f"fiber one{i}", ["fiber", "--rep", f, "--v", '{"1@2": 1}']))
    cmds.append(("sing-quiver A2", ["sing-quiver", "--quiver", a2f, "--window", "0", "6"]))
    cmds.append(("sing-quiver D4", ["sing-quiver", "--quiver", d4f, "--window", "0", "4"]))
    cmds.append(("sing-quiver K2", ["sing-quiver", "--quiver", k2f, "--window", "0", "4", "--max-span", "2"]))
    for i, (_, m) in enumerate(cartan_cases):
        cmds.append((f"cartan-solve {i}", ["cartan-solve", "--quiver", a2f, "--window", "0", "6",
                                           "--m", json.dumps(m)]))
    for i, (src, tgt, p) in enumerate((("1'@4", "1'@3", 1), ("2'@4", "1'@2", 2), ("1'@5", "2'@4", 1),
                                       ("2'@5", "2'@3", 2), ("1'@3", "2'@2", 1))):
        cmds.append((f"ext-oracle A2 {i}", ["ext-oracle", "--quiver", a2f, "--window", "0", "6", "--from", src,
                                            "--to", tgt, "--p", str(p)]))
    cmds.append(("ext-oracle D4", ["ext-oracle", "--quiver", d4f, "--window", "0", "5", "--from", "0'@3",
                                   "--to", "0'@1", "--p", "1"]))
    cmds.append(("check-config full", ["check-config", "--quiver", a2f, "--window", "0", "4"]))
    for i, config in enumerate(('{"members": ["1@0", "2@1"], "period": 2}', '{"members": ["1@0"], "period": 1}',
                                '{"members": ["2@0", "1@1", "2@2"], "period": 3}', '{"members": ["1@0", "2@0"]}')):
        cmds.append((f"check-config periodic {i}", ["check-config", "--quiver", a2f, "--window", "0", "4",
                                                    "--config", config]))
    cmds.append(("cartan-solve non-integer m", ["cartan-solve", "--quiver", a2f, "--window", "0", "4",
                                                "--m", '{"1@1": "x"}']))
    cmds.append(("check-config string period", ["check-config", "--quiver", a2f, "--window", "0", "4", "--config",
                                                '{"members": ["1@0"], "period": "2"}']))
    cmds.append(("check-config list config", ["check-config", "--quiver", a2f, "--window", "0", "4",
                                              "--config", "[1, 2]"]))
    cmds.append(("hom vertex outside the quiver", ["hom", "--quiver", a2f, "--window", "0", "4",
                                                   "--from", "7@0", "--to", "7@1"]))
    return {"cmds": cmds, "cartan": {f"cartan-solve {i}": c for i, c in enumerate(cartan_cases)}}


def _invoke(main, argv):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as e:  # a traceback where the CLI promises a JSON error
            rc, exc = None, f"{type(e).__name__}: {e}"
    return rc, out.getvalue(), err.getvalue(), exc


def run_pass(sk, inputs, p):
    for label, argv in inputs["cmds"]:
        sk.mesh_hom.clear_cache()
        p.op(label, _invoke, sk.cli.main, argv)


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def classify(record):
    """Valid commands exit 0 with JSON; bad input must exit 1 with a JSON error on stderr."""
    if record.error is not None:
        return False
    rc, out, err, exc = record.output
    if record.label in EXPECTED_FAILURES:
        lines = err.strip().splitlines()
        return rc == 1 and bool(lines) and isinstance(_json(lines[-1]), dict) and "error" in _json(lines[-1])
    return rc == 0 and exc is None and _json(out) is not None


def summary(record):
    return record.output


def check(sk, inputs, records):
    problems = []
    for r in records:
        case = inputs["cartan"].get(r.label)
        if case is None or _json(r.output[1]) is None:
            continue
        d = _json(r.output[1])["d"]
        dvec = {tuple(k.split("@")): v for k, v in d.items()}
        dvec = {(n, int(p)): v for (n, p), v in dvec.items()}
        got = {f"{n}@{p}": v for (n, p), v in sorted(cartan_apply(sk.quiver_core.a_n_quiver(2).arrows, dvec).items())}
        if got != case[1] or d != case[0]:
            problems.append(f"{r.label}: d = {d} with C_q d = {got}; expected d = {case[0]}, m = {case[1]}")
    return problems
