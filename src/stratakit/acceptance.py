"""The acceptance suite: worked examples plus property and oracle checks.

Each criterion runs an exact computation and returns (name, ok, detail);
the pytest module and the command-line selftest both print one line per
criterion.  All expected values are either hand-derivable from the
definitions or computed by a second, independent route inside the run;
nothing here is tuned or loosened.
"""
from __future__ import annotations

import itertools
import random
import time
from typing import Dict, Iterable, List, Tuple

from .catmod import window_category
from .dq_engine import hom_dq, sigma_shift_vertex
from .kan_strata import (
    SModulePoint,
    can_matrices,
    degeneration_leq,
    fiber,
    is_costable,
    is_stable,
    kan_intermediate,
    kan_left,
    kan_right,
    phi,
    restrict,
)
from .mesh_hom import MeshContext, hom_dim, sweep_matches_oracle
from .exact_linalg import mat_rank
from .quiver_core import (
    RepVertex,
    Window,
    parse_vertex,
    a_n_quiver,
    build_repetition,
    d4_quiver,
    kronecker_quiver,
    sigma_inv,
    tau,
)
from .randrep import random_module_point, random_window_rep

DEFAULT_SEED = 20230313

# Wall-clock bound of each criterion, in seconds.
TIME_BOUNDS = {1: 10, 2: 30, 3: 60, 4: 300, 5: 300, 6: 300, 7: 300, 8: 300, 9: 300, 10: 300, 11: 120}


def _clock(elapsed: float, number: int) -> str:
    """A criterion's time against its bound, e.g. "118.2s of 120s"."""
    return f"{elapsed:.1f}s of {TIME_BOUNDS[number]}s"


def _sing_arrow_graph(report):
    """Adjacency with multiplicities from a singular-quiver report."""
    adj: Dict[RepVertex, Dict[RepVertex, int]] = {}
    for (a, b), n in report.arrows.items():
        adj.setdefault(a, {})[b] = n
    return adj


def _paths_of_length(adj, u, length):
    """Multiset of endpoints of arrow paths of the given length from u."""
    frontier = {u: 1}
    for _ in range(length):
        nxt: Dict[RepVertex, int] = {}
        for v, mult in frontier.items():
            for w2, n in adj.get(v, {}).items():
                nxt[w2] = nxt.get(w2, 0) + mult * n
        frontier = nxt
    return frontier


def criterion_1(seed=DEFAULT_SEED):
    """A2 singular quiver: two arrows out of every interior vertex; one minimal
    relation exactly on the commuting squares and on the pairs closed by a
    length-three against a length-two path."""
    t0 = time.time()
    from .sing_builder import build_sing_quiver

    q = a_n_quiver(2)
    w = Window(0, 9)
    report = build_sing_quiver(q, None, w)
    adj = _sing_arrow_graph(report)
    interior = [u for u in report.vertices if u.level <= w.hi - 4 and u not in report.partial]
    problems = []
    for u in interior:
        outs = adj.get(u, {})
        if sum(outs.values()) != 2:
            problems.append(f"{u.key()} has {sum(outs.values())} outgoing arrows")
            continue
        two = _paths_of_length(adj, u, 2)
        three = _paths_of_length(adj, u, 3)
        squares = {v for v, n in two.items() if n >= 2}
        cubes = {v for v, n in two.items() if n == 1 and three.get(v, 0) >= 1}
        expected = {v: 1 for v in squares | cubes}
        got = {v: n for (a, v), n in report.relations.items() if a == u and v.level <= u.level + 4}
        if len(squares) != 1 or len(cubes) != 1:
            problems.append(f"{u.key()} square/cube targets {len(squares)}/{len(cubes)}")
        if got != expected:
            problems.append(f"{u.key()} relations {got} != expected {expected}")
    elapsed = time.time() - t0
    ok = not problems and len(interior) >= 10 and elapsed < TIME_BOUNDS[1]
    detail = f"{len(interior)} interior vertices, {_clock(elapsed, 1)}" + ("" if not problems else f"; {problems[:3]}")
    return "A2 singular quiver arrows and relations", ok, detail


def criterion_2(seed=DEFAULT_SEED):
    """D4 double arrow between the frozen companion of the central vertex and
    that of its double translate."""
    t0 = time.time()
    from .sing_builder import build_sing_quiver, ext_oracle

    q = d4_quiver()
    w = Window(0, 5)
    x = RepVertex("0", 2)
    u = RepVertex("0", 1, True)            # sigma(x)
    u2 = RepVertex("0", 3, True)           # sigma(tau^{-2} x)
    report = build_sing_quiver(q, None, w)
    count = report.arrow_count(u, u2)
    oracle = ext_oracle(q, None, w, u2, u, 1)
    rad = len(window_category(q, None, w).generators(u, u2))  # dim rad/rad^2 (u, u2) in S itself
    elapsed = time.time() - t0
    ok = count == 2 and oracle == 2 and rad == 2 and elapsed < TIME_BOUNDS[2]
    return ("D4 double arrow", ok,
            f"arrow count {count}, Ext^1 oracle {oracle}, dim rad/rad^2 {rad}, {_clock(elapsed, 2)}")


def criterion_3(seed=DEFAULT_SEED):
    """Non-Dynkin affine-space corollary: no relations and no second extensions
    for the Kronecker and 3-Kronecker quivers."""
    t0 = time.time()
    from .sing_builder import build_sing_quiver, ext_oracle, second_syzygy_is_zero

    problems = []
    checks = 0
    for nq, span in ((2, 3), (3, 2)):
        q = kronecker_quiver(nq)
        w = Window(0, 6) if nq == 2 else Window(0, 5)
        report = build_sing_quiver(q, None, w, max_span=None if nq == 2 else span)
        if report.relations:
            problems.append(f"{nq}-Kronecker has relation entries {report.relations}")
        if report.dynkin.is_dynkin:
            problems.append(f"{nq}-Kronecker misclassified as Dynkin")
        for u in report.vertices:
            for u2 in report.vertices:
                if 0 <= u.level - u2.level <= span:
                    val = ext_oracle(q, None, w, u, u2, 2)
                    checks += 1
                    if val != 0:
                        problems.append(f"Ext^2({u.key()},{u2.key()}) = {val} for {nq}-Kronecker")
        for u in report.vertices:
            if w.lo + 2 <= u.level <= w.lo + 3:
                if not second_syzygy_is_zero(q, None, Window(u.level - 2, u.level), u):
                    problems.append(f"second syzygy at {u.key()} nonzero for {nq}-Kronecker")
    elapsed = time.time() - t0
    ok = not problems and checks >= 50 and elapsed < TIME_BOUNDS[3]
    return ("non-Dynkin affine-space corollary", ok,
            f"{checks} Ext^2 oracle checks all zero, {_clock(elapsed, 3)}" + ("" if not problems else f"; {problems[:3]}"))


def criterion_4(seed=DEFAULT_SEED):
    """Closed-form extension counts against the syzygy oracle on A2 and A3."""
    t0 = time.time()
    from .sing_builder import ext_oracle

    pairs_checked = 0
    problems = []
    for q, w, levels in ((a_n_quiver(2), Window(0, 9), range(1, 5)),
                         (a_n_quiver(3), Window(0, 10), range(1, 4))):
        frozen = [RepVertex(node, p, True) for p in levels for node in q.vertices]
        shift_cache = {}

        def shifted(y, qq=q, ww=w):
            if y not in shift_cache:
                z = sigma_shift_vertex(qq, y, ww)
                shift_cache[y] = sigma_shift_vertex(qq, z, ww)
            return shift_cache[y]

        ctx = MeshContext(q, "kZQ")
        for u, u2 in itertools.product(frozen, repeat=2):
            x, y = sigma_inv(u), sigma_inv(u2)
            for p in (1, 2):
                oracle = ext_oracle(q, None, w, u, u2, p)
                if p == 1:
                    closed = hom_dq(q, x, 1, y, w)
                else:
                    closed = hom_dim(ctx, x, shifted(y), w)
                if oracle != closed:
                    problems.append(f"{q.vertices} {u.key()}->{u2.key()} p={p}: {oracle} != {closed}")
                pairs_checked += 1
    elapsed = time.time() - t0
    ok = not problems and pairs_checked >= 200 and elapsed < TIME_BOUNDS[4]
    return ("extension counts: oracle vs closed form (A2, A3)", ok,
            f"{pairs_checked} checks, {_clock(elapsed, 4)}" + ("" if not problems else f"; {problems[:3]}"))


def _sample_points(seed, specs) -> List[Tuple[SModulePoint, Window]]:
    rng = random.Random(seed)
    out = []
    for q, w, count, choices in specs:
        for _ in range(count):
            out.append((random_module_point(q, w, rng, dim_choices=choices), w))
    return out


def criterion_5(seed=DEFAULT_SEED):
    """Phi two-way consistency on seeded random points over A2 and A3.

    phi() itself recomputes every multiplicity by mesh homology and raises
    on any disagreement or negative value, so the criterion is that all
    samples pass without an internal-consistency error."""
    t0 = time.time()
    samples = _sample_points(seed, [
        (a_n_quiver(2), Window(0, 3), 60, (0, 1, 1, 2, 2, 3)),
        (a_n_quiver(3), Window(0, 2), 42, (0, 1, 1, 2, 3)),
    ])
    nonzero = 0
    for M, w in samples:
        res = phi(M, w)
        if res.mult:
            nonzero += 1
    elapsed = time.time() - t0
    ok = len(samples) >= 100 and elapsed < TIME_BOUNDS[5]
    return ("Phi multiplicities: formula vs mesh homology", ok,
            f"{len(samples)} samples ({nonzero} with nonzero Phi), {_clock(elapsed, 5)}")


def criterion_6(seed=DEFAULT_SEED):
    """Kan-extension contracts: res(K_LR) = M, stability, co-stability."""
    t0 = time.time()
    samples = _sample_points(seed + 1, [
        (a_n_quiver(2), Window(0, 3), 60, (0, 1, 1, 2, 2, 3)),
        (a_n_quiver(3), Window(0, 2), 42, (0, 1, 1, 2, 3)),
    ])
    problems = []
    for i, (M, w) in enumerate(samples):
        ki = kan_intermediate(M, w)     # asserts all three contracts internally
        if not restrict(ki.rep).equal(M):
            problems.append(f"sample {i}: restriction mismatch")
        if not is_stable(ki.rep) or not is_costable(ki.rep):
            problems.append(f"sample {i}: stability failure")
        again = kan_intermediate(restrict(ki.rep), w)
        if not again.rep.equal_data(ki.rep):
            # idempotence up to the canonical coordinates used here is literal equality
            problems.append(f"sample {i}: intermediate extension not idempotent")
    elapsed = time.time() - t0
    ok = not problems and len(samples) >= 100 and elapsed < TIME_BOUNDS[6]
    return ("Kan extension contracts on random points", ok,
            f"{len(samples)} samples, {_clock(elapsed, 6)}" + ("" if not problems else f"; {problems[:3]}"))


def criterion_7(seed=DEFAULT_SEED):
    """Kernel and cokernel of K_L -> K_R against the derived-category dimensions."""
    t0 = time.time()
    samples = _sample_points(seed + 2, [
        (a_n_quiver(2), Window(0, 3), 32, (0, 1, 1, 2)),
        (a_n_quiver(3), Window(0, 2), 20, (0, 1, 1, 2)),
    ])
    problems = []
    checks = 0
    for i, (M, w) in enumerate(samples):
        q = M.q
        ctx = MeshContext(q, "kZQ")
        res = phi(M, w)
        kl = kan_left(M, w)
        kr = kan_right(M, w)
        can = can_matrices(M, kl, kr)
        wide = Window(w.lo - 1, w.hi)
        for x in kr.rep.rq.vertices:
            if x.frozen:
                continue
            dl, dr = kl.dim(x), kr.dim(x)
            rk = mat_rank(can[x], dl, M.field)
            kk = dl - rk
            ck = dr - rk
            kk_expected = sum(m * hom_dim(ctx, x, tau(z), wide) for z, m in res.mult.items())
            ck_expected = sum(m * hom_dim(ctx, z, x, w) for z, m in res.mult.items())
            checks += 1
            if kk != kk_expected or ck != ck_expected:
                problems.append(f"sample {i} at {x.key()}: KK {kk}/{kk_expected} CK {ck}/{ck_expected}")
            if rk != res.klr.dim(x):
                problems.append(f"sample {i} at {x.key()}: image of can != K_LR")
    elapsed = time.time() - t0
    ok = not problems and len(samples) >= 50 and elapsed < TIME_BOUNDS[7]
    return ("KK and CK dimension identities", ok,
            f"{len(samples)} samples, {checks} vertex checks, {_clock(elapsed, 7)}"
            + ("" if not problems else f"; {problems[:3]}"))


def criterion_8(seed=DEFAULT_SEED):
    """Degeneration order: both closure criteria agree; partial order; the
    zero stratum sits below everything."""
    t0 = time.time()
    rng = random.Random(seed + 3)
    q = a_n_quiver(2)
    w = Window(0, 3)
    wdims = {RepVertex("1", 1, True): 1, RepVertex("2", 1, True): 1,
             RepVertex("1", 2, True): 1, RepVertex("2", 0, True): 1}
    # every frozen vertex is fixed (0 off wdims), so each draw has this w
    frozen = {x: wdims.get(x, 0) for x in build_repetition(q, True, w, None).vertices if x.frozen}
    points = [SModulePoint.semisimple(q, w, wdims)]
    points += [restrict(random_window_rep(q, w, rng, dim_choices=(0, 1, 1, 2), fixed_dims=frozen))
               for _ in range(11)]
    problems = [f"point {i} has w {M.w_vector()}" for i, M in enumerate(points) if M.w_vector() != wdims]
    results = [phi(M, w) for M in points]
    vs = [r.v for r in results]
    leq = [[degeneration_leq(points[i], points[j], w) for j in range(len(points))] for i in range(len(points))]
    for i in range(len(points)):
        if not leq[i][i]:
            problems.append(f"not reflexive at {i}")
        if not leq[i][0]:
            problems.append(f"zero stratum not below point {i}")
        for j in range(len(points)):
            if leq[i][j] and leq[j][i] and vs[i] != vs[j]:
                problems.append(f"antisymmetry fails at ({i},{j})")
            for k in range(len(points)):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    problems.append(f"transitivity fails at ({i},{j},{k})")
    elapsed = time.time() - t0
    ok = not problems and elapsed < TIME_BOUNDS[8]
    return ("degeneration order on an enumerated stratum set", ok,
            f"{len(points)} points, {_clock(elapsed, 8)}" + ("" if not problems else f"; {problems[:3]}"))


def criterion_9(seed=DEFAULT_SEED):
    """Fibers over GF(2): enumeration and constructive lifting agree both ways."""
    t0 = time.time()
    rng = random.Random(seed + 4)
    q = a_n_quiver(2)
    w = Window(0, 4)
    instances = 0
    lifts = 0
    problems = []
    while instances < 8:
        M = random_module_point(q, w, rng, dim_choices=(0, 1, 1), support=Window(0, 1))
        res = phi(M, w)
        fr = fiber(M, dict(res.v), 2, w)
        if fr.nonempty is None:
            continue
        instances += 1
        if fr.nonempty is not True:
            problems.append(f"distinguished point missing: {fr.detail}")
            continue
        v0 = fr.v0
        attained_keys = {tuple(sorted(u.items())) for u in fr.attained}
        for uvec in fr.attained:
            v_target = dict(v0)
            for key, d in uvec.items():
                vx = parse_vertex(key)
                v_target[vx] = v_target.get(vx, 0) + d
            r2 = fiber(M, v_target, 2, w)
            if r2.nonempty is not True or r2.witness is None:
                problems.append(f"attained vector {uvec} failed to lift: {r2.detail}")
            else:
                lifts += 1
        # a vector strictly beyond every attained one must give the empty fiber
        big = dict(v0)
        probe = RepVertex("1", 0)
        big[probe] = big.get(probe, 0) + 9
        r3 = fiber(M, big, 2, w)
        if r3.nonempty is not False:
            problems.append("overshooting dimension vector reported nonempty")
    elapsed = time.time() - t0
    ok = not problems and lifts >= 10 and elapsed < TIME_BOUNDS[9]
    return ("GF(2) fibers: enumeration vs constructive lifting", ok,
            f"{instances} instances, {lifts} witnesses lifted and validated, {_clock(elapsed, 9)}"
            + ("" if not problems else f"; {problems[:3]}"))


def criterion_10(seed=DEFAULT_SEED):
    """Weak Gorenstein vanishing: Ext^2 from cofree injectives vanishes.

    The cofree modules are infinite-dimensional for the full configuration
    (powers of the horizontal arrow survive the relations), so the Ext is
    computed by k-duality over the opposite category, never by truncating
    the injective."""
    t0 = time.time()
    from .catmod import CatModule, ext_from_injective_multi

    rng = random.Random(seed + 5)
    q = a_n_quiver(2)
    wbig = Window(0, 15)
    cat = window_category(q, None, wbig)
    sources = [u for u in cat.objects if u.level <= 1]
    problems = []
    count = 0
    while count < 20:
        M = random_module_point(q, Window(0, 3), rng, dim_choices=(0, 1, 1, 2), support=Window(0, 1))
        if M.is_zero():
            continue
        count += 1
        module = CatModule(cat, dict(M.module.dims), dict(M.module.act))
        vals = ext_from_injective_multi(cat, sources, module, 2)
        for u, val in vals.items():
            if val != 0:
                problems.append(f"Ext^2({u.key()}^dual, sample {count}) = {val}")
    elapsed = time.time() - t0
    ok = not problems and count >= 20 and elapsed < TIME_BOUNDS[10]
    return ("weak Gorenstein vanishing over A2", ok,
            f"{count} modules x {len(sources)} cofree sources, {_clock(elapsed, 10)}"
            + ("" if not problems else f"; {problems[:3]}"))


def criterion_11(seed=DEFAULT_SEED):
    """Sweep Hom bases equal raw path enumeration plus elimination."""
    t0 = time.time()
    problems = []
    checks = 0
    jobs = [
        (a_n_quiver(2), "kZQ", Window(0, 5)),
        (a_n_quiver(2), "RC", Window(0, 5)),
        (d4_quiver(), "kZQ", Window(0, 3)),
        (d4_quiver(), "RC", Window(0, 3)),
    ]
    for q, flavor, w in jobs:
        ctx = MeshContext(q, flavor)
        verts = ctx.vertices_in(w)
        for x in verts:
            for y in verts:
                if y.level < x.level:
                    continue
                checks += 1
                if not sweep_matches_oracle(ctx, x, y, w):
                    problems.append(f"{flavor} {x.key()}->{y.key()}")
    elapsed = time.time() - t0
    ok = not problems and elapsed < TIME_BOUNDS[11]
    return ("Hom bases: sweep vs path enumeration", ok,
            f"{checks} pairs, {_clock(elapsed, 11)}" + ("" if not problems else f"; {problems[:3]}"))


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6,
    criterion_7, criterion_8, criterion_9, criterion_10, criterion_11,
]

SUITES = {
    "all": list(range(1, 12)),
    "a2": [1, 5, 6, 8, 9, 10, 11],
    "d4": [2],
    "nondynkin": [3],
    "ext": [4, 7],
}


def run_suite(names: Iterable[int], seed: int = DEFAULT_SEED, out=print) -> bool:
    all_ok = True
    for n in names:
        fn = ALL_CRITERIA[n - 1]
        t0 = time.time()
        try:
            name, ok, detail = fn(seed)
        except Exception as exc:  # a raised inconsistency is a failed criterion
            name, ok, detail = fn.__name__, False, f"exception: {exc}, {_clock(time.time() - t0, n)}"
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {name} -- {detail}")
    return all_ok
