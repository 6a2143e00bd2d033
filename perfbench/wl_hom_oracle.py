"""hom_oracle: every ordered vertex pair of fixed windows checked against path enumeration.

One operation is one pair (x, y) with level(y) >= level(x): the Hom basis
from the sweep plus ``sweep_matches_oracle``, which enumerates every path
and ranks the mesh relator matrix with dense Fraction elimination.  The
seed fixes the order of the pairs and which of them are re-derived by the
benchmark's own modular elimination.
"""
from __future__ import annotations

import random

from independent import hom_dim_mod_p
from inputs import named_quiver

# (quiver, flavor, window); A3 kZQ [0,5] carries relator matrices of hundreds of rows.
JOBS = (("A2", "RC", (0, 3)), ("D4", "RC", (0, 2)), ("D4", "kZQ", (0, 2)), ("A3", "kZQ", (0, 5)))
SAMPLE = 24
EXPECTED_FAILURES = frozenset()


def setup(sk, seed, workdir):
    rng = random.Random(seed)
    contexts = []
    pairs = []
    for j, (qname, flavor, (lo, hi)) in enumerate(JOBS):
        ctx = sk.mesh_hom.MeshContext(named_quiver(sk, qname), flavor)
        w = sk.quiver_core.Window(lo, hi)
        contexts.append((f"{qname}/{flavor}/{lo}-{hi}", qname, ctx, w))
        verts = ctx.vertices_in(w)
        pairs += [(j, x, y) for x in verts for y in verts if y.level >= x.level]
    rng.shuffle(pairs)
    return {"contexts": contexts, "pairs": pairs, "sample": sorted(rng.sample(range(len(pairs)), SAMPLE))}


def _pair(sk, ctx, x, y, w):
    hb = sk.mesh_hom.hom_basis(ctx, x, y, w)
    return hb.dim, tuple(tuple(a.key() for a in p) for p in hb.basis), sk.mesh_hom.sweep_matches_oracle(ctx, x, y, w)


def run_pass(sk, inputs, p):
    for j, x, y in inputs["pairs"]:
        tag, _, ctx, w = inputs["contexts"][j]
        p.op(f"{tag}:{x.key()}->{y.key()}", _pair, sk, ctx, x, y, w)


def classify(record):
    return record.error is None


def summary(record):
    return record.output


def check(sk, inputs, records):
    problems = []
    for (j, x, y), r in zip(inputs["pairs"], records):
        tag, qname, ctx, _ = inputs["contexts"][j]
        dim, basis, matches = r.output
        if not matches:
            problems.append(f"{r.label}: sweep basis disagrees with path enumeration")
        if len(basis) != dim:
            problems.append(f"{r.label}: {len(basis)} basis paths for dimension {dim}")
        if x == y and dim != 1:
            problems.append(f"{r.label}: Hom(x,x) has dimension {dim}")
        if ctx.flavor == "kZQ" and qname.startswith("A") and dim > 1:
            problems.append(f"{r.label}: kZQ Hom over A_n has dimension {dim} > 1")
    for i in inputs["sample"]:
        j, x, y = inputs["pairs"][i]
        _, _, ctx, w = inputs["contexts"][j]
        expected = hom_dim_mod_p(sk, ctx, x, y, w)
        if records[i].output[0] != expected:
            problems.append(f"{records[i].label}: dimension {records[i].output[0]}, "
                            f"#paths - rank mod p gives {expected}")
    return problems
