"""resolutions: singular-quiver reports, the syzygy Ext oracle and Ext from cofree injectives.

Per pass:
  * singular-quiver reports over A2 [0,9], A3 [0,8], D4 [0,5], the
    Kronecker quiver [0,5] and the 3-Kronecker quiver [0,4] (span 2);
  * ext_oracle on every frozen pair of fixed level ranges: Ext^1 and Ext^2
    over A2 and A3, Ext^1 over D4 (plus the D4 double arrow), Ext^2 over
    both Kronecker quivers, where single non-Dynkin sweeps are large;
  * weak-Gorenstein Ext^2 from the cofree injectives at level 0 over
    A2 [0,14] into one module.

The cost of an Ext computation swings by a factor of two with the module
and with the level gap of the pair, and in a cold pass the first
operation to need a sweep pays for it; drawing the pairs or the module
from the seed made the figures swing with it.  So this workload has no
seeded inputs: its operations and their order are fixed, and the seed
is accepted and unused.
"""
from __future__ import annotations

import itertools
import random

from inputs import named_quiver, random_rep

REPORTS = (("A2", (0, 9), None), ("A3", (0, 8), None), ("D4", (0, 5), None), ("K2", (0, 5), None),
           ("K3", (0, 4), 2))
# (quiver, window, levels of the frozen pairs, degrees, level gaps allowed)
EXT_JOBS = (("A2", (0, 9), (1, 3), (1, 2), None), ("A3", (0, 10), (1, 2), (1,), None),
            ("D4", (0, 5), (1, 2), (1,), (1,)), ("K2", (0, 5), (0, 5), (2,), (0, 1, 2)),
            ("K3", (0, 4), (0, 3), (2,), (0, 1, 2)))
D4_DOUBLE = (("0", 3), ("0", 1))
INJ_WINDOW = (0, 14)
# The module fed to Ext from injectives: a fixed draw with fixed dimensions.
INJ_SEED = 20230313
INJ_W = {("1", 0): 1, ("2", 0): 1, ("1", 1): 1}
EXPECTED_FAILURES = frozenset()


def _frozen(sk, q, lo, hi):
    return [sk.quiver_core.RepVertex(n, p, True) for p in range(lo, hi + 1) for n in q.vertices]


def setup(sk, seed, workdir):
    qc = sk.quiver_core
    quivers = {name: named_quiver(sk, name) for name in ("A2", "A3", "D4", "K2", "K3")}
    ext_ops = []
    for name, (lo, hi), (plo, phi_), degrees, gaps in EXT_JOBS:
        fr = _frozen(sk, quivers[name], plo, phi_)
        ext_ops += [(name, qc.Window(lo, hi), u, u2, p) for u, u2 in itertools.product(fr, repeat=2)
                    for p in degrees if gaps is None or u.level - u2.level in gaps]
    q2 = quivers["A2"]
    cat = sk.catmod.SCategoryWindow(q2, None, qc.Window(*INJ_WINDOW))
    rep = random_rep(sk, q2, qc.Window(0, 3), random.Random(INJ_SEED), dim_choices=(1,),
                     support=qc.Window(0, 1), frozen_dims=INJ_W)
    return {"quivers": quivers, "ext_ops": ext_ops, "cat": cat, "inj_reps": [rep],
            "sources": [u for u in cat.objects if u.level == 0]}


def _ext_injective(sk, cat, rep, sources):
    M = sk.kan_strata.restrict(rep)
    module = sk.catmod.CatModule(cat, dict(M.module.dims), dict(M.module.act))
    return sk.catmod.ext_from_injective_multi(cat, sources, module, 2)


def run_pass(sk, inputs, p):
    sb, qc = sk.sing_builder, sk.quiver_core
    for name, (lo, hi), span in REPORTS:
        p.op(f"report:{name}", sb.build_sing_quiver, inputs["quivers"][name], None, qc.Window(lo, hi), span)
    (n1, l1), (n2, l2) = D4_DOUBLE
    p.op("ext:D4:double", sb.ext_oracle, inputs["quivers"]["D4"], None, qc.Window(0, 5),
         qc.RepVertex(n1, l1, True), qc.RepVertex(n2, l2, True), 1)
    for name, w, u, u2, deg in inputs["ext_ops"]:
        p.op(f"ext:{name}:{u.key()}->{u2.key()}:{deg}", sb.ext_oracle, inputs["quivers"][name], None, w, u, u2, deg)
    for i, rep in enumerate(inputs["inj_reps"]):
        p.op(f"ext_injective{i}", _ext_injective, sk, inputs["cat"], rep, inputs["sources"])


def classify(record):
    return record.error is None


def summary(record):
    out = record.output
    return repr(out.to_json()) if hasattr(out, "to_json") else repr(out)


def check(sk, inputs, records):
    qc, mh, dq = sk.quiver_core, sk.mesh_hom, sk.dq_engine
    by = {r.label: r.output for r in records}
    problems = []
    reports = {name: by[f"report:{name}"] for name, _, _ in REPORTS}

    a2, (lo, hi) = reports["A2"], REPORTS[0][1]
    interior = [u for u in a2.vertices if u.level <= hi - 4 and u not in a2.partial]
    if len(interior) < 10:
        problems.append(f"A2 report has only {len(interior)} interior vertices")
    for u in interior:
        if a2.out_arrow_total(u) != 2:
            problems.append(f"A2 {u.key()} has {a2.out_arrow_total(u)} arrows out, not 2")
    (n1, l1), (n2, l2) = D4_DOUBLE
    if reports["D4"].arrow_count(qc.RepVertex(n2, l2, True), qc.RepVertex(n1, l1, True)) != 2 \
            or by["ext:D4:double"] != 2:
        problems.append("D4 double arrow missing from the report or from Ext^1")
    for name in ("K2", "K3"):
        if reports[name].relations or reports[name].dynkin.is_dynkin:
            problems.append(f"{name}: non-Dynkin report has relations or is classified Dynkin")

    for name, w, u, u2, deg in inputs["ext_ops"]:
        val = by[f"ext:{name}:{u.key()}->{u2.key()}:{deg}"]
        q = inputs["quivers"][name]
        if name.startswith("K"):
            if val != 0:
                problems.append(f"{name} Ext^2({u.key()},{u2.key()}) = {val}, not 0")
            continue
        if deg == 1 and val != reports[name].arrow_count(u2, u):
            problems.append(f"{name} Ext^1({u.key()},{u2.key()}) = {val}, arrow count "
                            f"{reports[name].arrow_count(u2, u)}")
        if name == "D4":
            continue
        x, y = qc.sigma_inv(u), qc.sigma_inv(u2)
        if deg == 1:
            closed = dq.hom_dq(q, x, 1, y, w)
        else:
            closed = mh.hom_dim(mh.MeshContext(q, "kZQ"), x,
                                dq.sigma_shift_vertex(q, dq.sigma_shift_vertex(q, y, w), w), w)
        if val != closed:
            problems.append(f"{name} Ext^{deg}({u.key()},{u2.key()}) = {val}, closed form {closed}")

    for i in range(len(inputs["inj_reps"])):
        vals = by[f"ext_injective{i}"]
        if any(vals.values()):
            problems.append(f"Ext^2 from a cofree injective is nonzero on module {i}: {vals}")
    return problems
