"""strata: seeded module points through phi, Kan identities, the degeneration order and fibers.

Every point has a dimension vector from a fixed draw and seeded matrices.

Per pass:
  * restrict, phi and restrict(K_LR) for every random point over A2 [0,3]
    and A3 [0,2];
  * a stratum set over A2 [0,3] with fixed w (every frozen dimension fixed,
    so no sample is rejected) plus its semisimple point: restrict, phi,
    then degeneration_leq on all ordered pairs;
  * GF(2) fibers over A2 [0,4] (support on levels 0-1, fixed w): a probe query that
    lists the attained vectors, lifts of LIFTS of them (seeded choice) and
    one overshooting query.  How many vectors are attained depends on the
    point (6 or 21 for one w), so lifting all of them made the work swing
    with the seed.
"""
from __future__ import annotations

import random

from independent import cartan_apply
from inputs import FIBER_WS, STRATUM_W, random_rep

A2_POINTS = 8
A3_POINTS = 6
STRATUM_POINTS = 4
LIFTS = 5
ADDITIVE_PAIRS = 3
EXPECTED_FAILURES = frozenset()


def setup(sk, seed, workdir):
    qc = sk.quiver_core
    rng = random.Random(seed)
    q2, q3 = qc.a_n_quiver(2), qc.a_n_quiver(3)
    w3, w2, w4 = qc.Window(0, 3), qc.Window(0, 2), qc.Window(0, 4)
    points = [random_rep(sk, q2, w3, rng, dims_rng=random.Random(2000 + i)) for i in range(A2_POINTS)]
    points += [random_rep(sk, q3, w2, rng, dim_choices=(0, 1, 1, 2, 3), dims_rng=random.Random(3000 + i))
               for i in range(A3_POINTS)]
    strat = [random_rep(sk, q2, w3, rng, dim_choices=(0, 1, 1, 2), frozen_dims=STRATUM_W,
                        dims_rng=random.Random(4000 + i)) for i in range(STRATUM_POINTS)]
    fib = [random_rep(sk, q2, w4, rng, dim_choices=(0, 1, 1), support=qc.Window(0, 1), frozen_dims=fw,
                      dims_rng=random.Random(5000 + i)) for i, fw in enumerate(FIBER_WS)]
    wdims = {qc.RepVertex(n, p, True): d for (n, p), d in STRATUM_W.items()}
    return {"points": points, "stratum": strat, "stratum_w": wdims, "stratum_window": w3,
            "fibers": fib, "fiber_window": w4, "q2": q2, "lift_seed": seed}


def run_pass(sk, inputs, p):
    ks = sk.kan_strata
    for i, rep in enumerate(inputs["points"]):
        M = p.op(f"point{i}:restrict", ks.restrict, rep)
        res = p.op(f"point{i}:phi", ks.phi, M, rep.window)
        p.op(f"point{i}:restrict_klr", ks.restrict, res.klr)

    w = inputs["stratum_window"]
    pts = [p.op("stratum0:semisimple", ks.SModulePoint.semisimple, inputs["q2"], w, inputs["stratum_w"])]
    pts += [p.op(f"stratum{i + 1}:restrict", ks.restrict, rep) for i, rep in enumerate(inputs["stratum"])]
    for i, M in enumerate(pts):
        p.op(f"stratum{i}:phi", ks.phi, M, w)
    for i, M1 in enumerate(pts):
        for j, M2 in enumerate(pts):
            p.op(f"degen{i},{j}", ks.degeneration_leq, M1, M2, w)

    fw = inputs["fiber_window"]
    for i, rep in enumerate(inputs["fibers"]):
        M = p.op(f"fiber{i}:restrict", ks.restrict, rep)
        probe = p.op(f"fiber{i}:probe", ks.fiber, M, {}, 2, fw)
        if probe.nonempty is None:
            continue
        for k, target in enumerate(_lift_targets(sk, probe, random.Random(inputs["lift_seed"] * 100 + i))):
            p.op(f"fiber{i}:lift{k}", ks.fiber, M, target, 2, fw)
        p.op(f"fiber{i}:overshoot", ks.fiber, M, _overshoot(sk, probe), 2, fw)


def _lift_targets(sk, probe, rng):
    """Dimension vectors v0 + u for LIFTS attained u (all of them if fewer)."""
    attained = probe.attained
    chosen = sorted(rng.sample(range(len(attained)), min(LIFTS, len(attained))))
    out = []
    for uvec in (attained[c] for c in chosen):
        target = dict(probe.v0)
        for key, d in uvec.items():
            vx = sk.quiver_core.parse_vertex(key)
            target[vx] = target.get(vx, 0) + d
        out.append(target)
    return out


def _overshoot(sk, probe):
    big = dict(probe.v0)
    vx = sk.quiver_core.RepVertex("1", 0)
    big[vx] = big.get(vx, 0) + 9
    return big


def classify(record):
    return record.error is None


def summary(record):
    out = record.output
    if hasattr(out, "to_json"):
        return repr(out.to_json())
    if hasattr(out, "module"):
        return repr(sorted((repr(k), v) for k, v in out.module.dims.items())) + repr(
            sorted((repr(k), repr(v)) for k, v in out.module.act.items()))
    return repr(out)


def _own_mult(q, res):
    """w o sigma - C_q v from the point's dimension vectors, with the benchmark's C_q."""
    v = {(x.node, x.level): d for x, d in res.v.items()}
    cq = cartan_apply(q.arrows, v)
    wsig = {(u.node, u.level + 1): d for u, d in res.w.items()}  # sigma(i, p) = (i', p - 1)
    keys = set(cq) | set(wsig)
    out = {k: wsig.get(k, 0) - cq.get(k, 0) for k in keys}
    return {k: val for k, val in out.items() if val}


def _mult_keys(res):
    return {(x.node, x.level): d for x, d in res.mult.items()}


def check(sk, inputs, records):
    ks = sk.kan_strata
    by = {r.label: r.output for r in records}
    problems = []
    npts = len(inputs["points"])
    for i, rep in enumerate(inputs["points"]):
        M, res, back = by[f"point{i}:restrict"], by[f"point{i}:phi"], by[f"point{i}:restrict_klr"]
        if _mult_keys(res) != _own_mult(rep.q, res):
            problems.append(f"point{i}: multiplicities differ from w o sigma - C_q v")
        if not back.equal(M):
            problems.append(f"point{i}: restrict(K_LR(M)) != M")
    for k in range(min(ADDITIVE_PAIRS, npts // 2)):
        a, b = inputs["points"][2 * k], inputs["points"][2 * k + 1]
        if a.q.key() != b.q.key():
            continue
        whole = ks.phi(ks.restrict(a.direct_sum(b)), a.window)
        ra, rb = by[f"point{2 * k}:phi"], by[f"point{2 * k + 1}:phi"]
        summed = {x: ra.mult.get(x, 0) + rb.mult.get(x, 0) for x in set(ra.mult) | set(rb.mult)}
        if whole.mult != {x: d for x, d in summed.items() if d}:
            problems.append(f"phi not additive on point{2 * k} + point{2 * k + 1}")

    n = len(inputs["stratum"]) + 1
    leq = [[by[f"degen{i},{j}"] for j in range(n)] for i in range(n)]
    vs = [by[f"stratum{i}:phi"].v for i in range(n)]
    for i in range(n):
        if not leq[i][i]:
            problems.append(f"degeneration order not reflexive at {i}")
        if not leq[i][0]:
            problems.append(f"semisimple point not below stratum point {i}")
        for j in range(n):
            if leq[i][j] and leq[j][i] and vs[i] != vs[j]:
                problems.append(f"antisymmetry fails at ({i},{j})")
            below = all(vs[j].get(x, 0) <= vs[i].get(x, 0) for x in set(vs[i]) | set(vs[j]))
            if leq[i][j] != below:
                problems.append(f"degeneration ({i},{j}) disagrees with the componentwise order on v")
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    problems.append(f"transitivity fails at ({i},{j},{k})")

    for i in range(len(inputs["fibers"])):
        probe = by[f"fiber{i}:probe"]
        if probe.nonempty is None:
            continue
        for k, target in enumerate(_lift_targets(sk, probe, random.Random(inputs["lift_seed"] * 100 + i))):
            fr = by[f"fiber{i}:lift{k}"]
            want = {x: d for x, d in target.items() if d}
            if fr.nonempty is not True or fr.witness is None:
                problems.append(f"fiber{i}: attained vector {k} did not lift")
            elif ks.validate(fr.witness) or fr.witness.nonfrozen_dims() != want:
                problems.append(f"fiber{i}: witness {k} fails validate or has the wrong dimension")
        if by[f"fiber{i}:overshoot"].nonempty is not False:
            problems.append(f"fiber{i}: overshooting vector gave a nonempty fiber")
    return problems
