import ast
import inspect
import itertools
import math
import random
import time
from fractions import Fraction

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from stratakit import kan_strata, mesh_hom, quiver_core
from stratakit.catmod import SCategoryWindow, CatModule, ext_dim
from stratakit.dq_engine import is_dynkin
from stratakit.errors import InternalConsistencyError, InvalidInputError, WindowInsufficiencyError
from stratakit.exact_linalg import (
    QQ,
    KernelBasis,
    identity_rows,
    kernel_cols,
    mat_mul,
    mat_rank,
    mat_vec,
    quotient_coords,
    quotient_map,
    rref,
    solve_many,
    span_basis,
    sub_map,
    transpose_rows,
)
from stratakit.kan_strata import (
    PrimeField,
    SModulePoint,
    WindowRep,
    _enumerate_subspaces,
    _quotient_rep,
    _torsion_cols,
    closed_orbit,
    degeneration_leq,
    fiber,
    is_costable,
    is_stable,
    kan_intermediate,
    kan_left,
    kan_right,
    phi,
    representable_rep,
    resolution_shape,
    restrict,
    same_stratum,
    stabilize,
    validate,
)
from stratakit.mesh_hom import MeshContext, enumerate_paths, hom_dim
from stratakit.quiver_core import (
    Configuration,
    RepVertex,
    Window,
    a_n_quiver,
    d4_quiver,
    kronecker_quiver,
    parse_vertex,
    rep_in_arrows,
    sigma_arrow,
    sigma_inv,
    tau,
)
from stratakit.randrep import random_module_point, random_window_rep

A2 = a_n_quiver(2)
W = Window(0, 3)


def _invert(mat: list, field) -> list:
    """The inverse of a square matrix: its columns solve mat x = e_j."""
    cols = solve_many(transpose_rows(mat), identity_rows(len(mat), field), field)
    if any(col is None for col in cols):
        raise InvalidInputError("matrix is not invertible")
    return transpose_rows(cols)


def base_change(rep: WindowRep, g) -> WindowRep:
    """Conjugate by invertible matrices at the given (non-frozen) vertices."""
    ginv = {}
    for v, mat in g.items():
        d = rep.dim(v)
        if len(mat) != d or any(len(row) != d for row in mat):
            raise InvalidInputError(f"base change at {v} has wrong size")
        ginv[v] = _invert(mat, rep.field)
    mats = {}
    for a in rep.mats:
        m = rep.mat(a)
        if a.source in g:
            m = mat_mul(g[a.source], m, rep.field)
        if a.target in ginv and m:
            m = mat_mul(m, ginv[a.target], rep.field)
        mats[a] = m
    return WindowRep(rep.q, rep.window, rep.config, dict(rep.dims), mats, rep.field)


def zero_rep(q, window, config=None) -> WindowRep:
    return WindowRep(q, window, config, {}, {})


def simple_rep(q, window, v) -> WindowRep:
    return WindowRep(q, window, None, {v: 1}, {})


# ---------------------------------------------------------------------------
# An independent right-Kan oracle built on raw path enumeration only.
# ---------------------------------------------------------------------------

def _oracle_hom(ctx, x, y, w):
    """(paths, kept indices, coords per path) of Hom(x,y), by elimination."""
    from stratakit.quiver_core import sigma_arrow as s_arrow, tau as tau_v

    paths = enumerate_paths(ctx, x, y, w)
    if x == y:
        paths = [()]
    index = {p: i for i, p in enumerate(paths)}
    rel_cols = []
    for p in range(x.level, y.level + 1):
        for node in ctx.q._topo:
            z = RepVertex(node, p)
            if z.frozen or not w.contains(tau_v(z)) or tau_v(z).level < x.level:
                continue
            heads = enumerate_paths(ctx, x, tau_v(z), w) if tau_v(z) != x else [()]
            tails = enumerate_paths(ctx, z, y, w) if z != y else ([()] if z == y else [])
            if z == y:
                tails = [()]
            branches = [(s_arrow(ctx.q, b), b) for b in ctx.in_arrows(z, w)]
            for hp in heads:
                for tp in tails:
                    col = [QQ.zero] * len(paths)
                    for sb, b in branches:
                        whole = hp + (sb, b) + tp
                        if whole in index:
                            col[index[whole]] += QQ.one
                    rel_cols.append(col)
    kept, coords = quotient_coords(len(paths), rel_cols, QQ)
    return paths, index, kept, coords


def kan_right_dims_oracle(M, w):
    """dims of Hom(res x^, M) solved over oracle-presented Hom spaces."""
    ctx = MeshContext(M.q, "RC", M.cat.config)
    cat = M.cat
    support = [u for u in cat.objects if M.dim(u) > 0]
    out = {}
    for x in ctx.vertices_in(w):
        data = {}
        for u in cat.objects:
            if u.level <= x.level:
                data[u] = _oracle_hom(ctx, u, x, w)
        nvars = 0
        offsets = {}
        for u in support:
            if u not in data:
                continue
            kept = data[u][2]
            offsets[u] = nvars
            nvars += len(kept) * M.dim(u)
        if nvars == 0:
            out[x] = 0
            continue
        rows = []
        for u in support:
            if u not in data:
                continue
            paths_u, index_u, kept_u, coords_u = data[u]
            for v in cat.objects:
                if v.level < u.level or v not in data:
                    continue
                svals = _oracle_hom(ctx, u, v, w)
                paths_s, _, kept_s, coords_s = svals
                paths_v, index_v, kept_v, coords_v = data[v]
                for ks in kept_s:
                    s_path = paths_s[ks]
                    for iv in kept_v:
                        f_path = paths_v[iv]
                        whole = tuple(s_path) + tuple(f_path)
                        comp = coords_u[index_u[whole]] if whole in index_u else {}
                        amat = M.module.act_mat(u, v, list(kept_s).index(ks)) if M.dim(v) else None
                        for j in range(M.dim(u)):
                            row = [QQ.zero] * nvars
                            for li, c in comp.items():
                                row[offsets[u] + li * M.dim(u) + j] = c
                            if amat is not None and v in offsets:
                                for j2 in range(M.dim(v)):
                                    c = amat[j][j2]
                                    if c != QQ.zero:
                                        row[offsets[v] + list(kept_v).index(iv) * M.dim(v) + j2] -= c
                            if any(val != QQ.zero for val in row):
                                rows.append(row)
        out[x] = len(kernel_cols(rows, nvars, QQ)) if rows else nvars
    return out


def test_kan_right_matches_raw_path_oracle():
    rng = random.Random(2)
    w = Window(0, 2)
    for _ in range(3):
        M = random_module_point(A2, w, rng, dim_choices=(0, 1, 1))
        kr = kan_right(M, w)
        oracle = kan_right_dims_oracle(M, w)
        for x, d in oracle.items():
            assert kr.dim(x) == d, (x, kr.dim(x), d)


# ---------------------------------------------------------------------------
# Validation and restriction.
# ---------------------------------------------------------------------------

def test_zero_rep_is_valid():
    assert validate(zero_rep(A2, W)) == []


def test_single_framing_matrix_is_valid():
    x = parse_vertex("1@3")
    u = parse_vertex("1'@3")
    from stratakit.quiver_core import RepArrow

    arrow = RepArrow("f", "1", x, u)
    rep = WindowRep(A2, W, None, {x: 1, u: 1}, {arrow: [[Fraction(7)]]})
    assert validate(rep) == []


def test_validate_allocates_nothing_for_absent_matrices():
    d = 400
    dims = {parse_vertex(k): d for k in ("1@0", "2@0", "1@1", "2@1")}
    rep = WindowRep(A2, Window(0, 2), None, dims, {})
    tracemalloc.start()
    try:
        assert validate(rep) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_perturbed_rep_reports_exact_relator():
    rng = random.Random(9)
    rep = random_window_rep(A2, W, rng, dim_choices=(1, 1, 2))
    assert validate(rep) == []
    # perturb one entry of one arrow that feeds a relator
    target = parse_vertex("2@2")
    beta = rep.rq.in_arrows(target)[0]
    mats = {a: [list(r) for r in m] for a, m in rep.mats.items()}
    m = [list(r) for r in rep.mat(beta)]
    m[0][0] += 1
    mats[beta] = m
    bad = WindowRep(A2, W, None, dict(rep.dims), mats)
    violated = {x for x, _ in validate(bad)}
    # the arrow beta: y -> x feeds the relators at x and at tau^{-1}(y)
    possible = {beta.target, tau(beta.source) if False else RepVertex(beta.source.node, beta.source.level + 1, False)}
    possible = {beta.target, RepVertex(beta.source.node, beta.source.level + 1)}
    assert violated
    assert violated <= possible


def test_restrict_simple_and_base_change_invariance():
    u = parse_vertex("2'@1")
    M = restrict(simple_rep(A2, W, u))
    assert M.w_vector() == {u: 1}
    assert all(all(x == 0 for row in m for x in row)
               for (a, b, k), m in M.module.act.items() if a != b)

    rng = random.Random(4)
    rep = random_window_rep(A2, W, rng, dim_choices=(1, 2))
    g = {}
    for v in rep.rq.vertices:
        if not v.frozen and rep.dim(v) == 2:
            g[v] = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    moved = base_change(rep, g)
    assert restrict(moved).equal(restrict(rep))


def test_base_change_rejects_a_singular_or_misshapen_matrix():
    rep = random_window_rep(A2, W, random.Random(4), dim_choices=(1, 2))
    v = next(v for v in rep.rq.vertices if not v.frozen and rep.dim(v) == 2)
    for bad in ([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],   # singular
                [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]],   # zero
                [[Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)]]):
        with pytest.raises(InvalidInputError):
            base_change(rep, {v: bad})
    gf = rep.reduce_mod(PrimeField(3))
    with pytest.raises(InvalidInputError):  # invertible over QQ (det 3), singular mod 3
        base_change(gf, {v: [[gf.field.of_int(1), gf.field.of_int(1)], [gf.field.of_int(-1), gf.field.of_int(2)]]})


def _plain_path_matrix(rep, path):
    """The twin of path_matrix without products: every arrow multiplied in, from the first on."""
    out = rep.mat(path[0])
    for a in path[1:]:
        out = kan_strata._mul(out, rep.mat(a), rep.dim(path[0].source), rep.dim(a.source), rep.dim(a.target),
                              rep.field)
    return out


@pytest.mark.parametrize("quiver, window", [(A2, Window(0, 4)), (d4_quiver(), Window(0, 3)),
                                            (kronecker_quiver(), Window(0, 3))], ids=["A2", "D4", "K2"])
def test_restrict_multiplies_each_prefix_once_and_matches_the_plain_products(quiver, window, monkeypatch):
    """restrict's action tables hold the product of each basis path's arrow matrices taken
    from its first arrow on, equal entry by entry and type by type, and it multiplies each
    prefix of two or more arrows once."""
    rep = random_window_rep(quiver, window, random.Random(3), dim_choices=(1, 2))
    cat = kan_strata.window_category(rep.q, rep.config, rep.window, rep.field)
    paths = [(u, v, k, cat.basis_paths(u, v)[k]) for u, v, dk in cat.hom_pairs()
             if u != v and rep.dim(u) and rep.dim(v) for k in range(dk)]
    prefixes = {p[:n] for _, _, _, p in paths for n in range(2, len(p) + 1)}
    calls = []
    real = kan_strata._mul
    monkeypatch.setattr(kan_strata, "_mul", lambda *a: calls.append(a) or real(*a))
    act = restrict(rep).module.act
    assert len(calls) == len(prefixes) > 0
    monkeypatch.undo()
    nonzero = 0
    for u, v, k, p in paths:
        want = _plain_path_matrix(rep, p)
        if any(x for row in want for x in row):
            nonzero += 1
            assert [[(x, type(x)) for x in row] for row in act[(u, v, k)]] == [[(x, type(x)) for x in row]
                                                                                for row in want]
        else:
            assert (u, v, k) not in act
    assert nonzero == len(act) > 0


def test_restrict_representable_values():
    u0 = parse_vertex("2'@2")
    rep = representable_rep(A2, W, u0)
    assert validate(rep) == []
    M = restrict(rep)
    sc = MeshContext(A2, "SC")
    for u in M.cat.objects:
        assert M.dim(u) == (hom_dim(sc, u, u0, W) if u.level <= u0.level else 0)


# ---------------------------------------------------------------------------
# Kan extensions.
# ---------------------------------------------------------------------------

def test_kan_right_of_zero_and_simple():
    z = SModulePoint.semisimple(A2, W, {})
    kr = kan_right(z, W)
    assert kr.rep.total_dim() == 0

    u = parse_vertex("1'@0")
    M = SModulePoint.semisimple(A2, W, {u: 1})
    kr = kan_right(M, W)
    # naturality kills morphisms factoring through later frozen vertices:
    # here the class into (1,2) factors through (1',1), so the value drops
    # below dim R((1',0),(1,2)) = 1
    assert kr.dim(parse_vertex("1@1")) == 1
    assert kr.dim(parse_vertex("1@2")) == 0


def test_kan_left_simple_and_non_dynkin_rejection():
    u = parse_vertex("1'@1")
    M = SModulePoint.semisimple(A2, W, {u: 1})
    kl = kan_left(M, W)
    assert kl.dim(u) == 1
    kr_dims = {x: kan_right(M, W).dim(x) for x in kl.rep.rq.vertices}
    assert kl.rep.support_levels()[1] <= 1  # right bounded by the support top

    k2 = kronecker_quiver(2)
    M2 = SModulePoint.semisimple(k2, W, {parse_vertex("1'@1"): 1})
    with pytest.raises(InvalidInputError):
        kan_left(M2, W)


def test_kan_intermediate_of_frozen_simple_is_simple():
    u = parse_vertex("2'@2")
    M = SModulePoint.semisimple(A2, W, {u: 1})
    ki = kan_intermediate(M, W)
    assert dict(ki.rep.dims) == {u: 1}
    assert is_stable(ki.rep) and is_costable(ki.rep)


def test_kan_intermediate_of_representable_restriction():
    # for a projective over a locally bounded configuration (whose morphism
    # spaces die within the window) the intermediate extension of the
    # restriction is the projective itself
    c1 = Configuration([parse_vertex("1@0")], period=1)
    u0 = parse_vertex("1'@2")
    rep = representable_rep(A2, W, u0, config=c1)
    # certify the representable's true support lies inside the window:
    # morphism spaces of this configuration die at level distance three
    sc = MeshContext(A2, "SC", c1)
    assert hom_dim(sc, parse_vertex("1'@1"), parse_vertex("1'@4"), Window(0, 5)) == 0
    ki = kan_intermediate(restrict(rep), W)
    assert dict(ki.rep.dims) == dict(rep.dims)


def test_kan_intermediate_zero():
    M = SModulePoint.semisimple(A2, W, {})
    assert kan_intermediate(M, W).rep.total_dim() == 0


# ---------------------------------------------------------------------------
# Stability machinery.
# ---------------------------------------------------------------------------

def test_simple_nonfrozen_unstable_and_stabilize():
    x = parse_vertex("1@2")
    rep = simple_rep(A2, W, x)
    assert not is_stable(rep)
    assert not is_costable(rep)
    assert stabilize(rep).total_dim() == 0


def test_simple_frozen_stable_costable():
    rep = simple_rep(A2, W, parse_vertex("1'@2"))
    assert is_stable(rep) and is_costable(rep)


def test_stabilize_quotients_only_nonfrozen_part():
    u = parse_vertex("1'@1")
    klr = kan_intermediate(SModulePoint.semisimple(A2, W, {u: 1, parse_vertex("2'@0"): 1}), W).rep
    noisy = klr.direct_sum(simple_rep(A2, W, parse_vertex("2@1")))
    out = stabilize(noisy)
    assert dict(out.dims) == dict(klr.dims)


@pytest.mark.parametrize("quiver, window", [(A2, Window(0, 3)), (a_n_quiver(3), Window(0, 2))])
def test_phi_is_additive_on_direct_sums_of_seeded_points(quiver, window):
    """Phi(N + N') = Phi(N) + Phi(N'): the direct sum of two seeded points validates, its
    dimensions add, each arrow acts by the block diagonal of the two matrices, and the
    multiplicities of phi on its restriction are the sums of the two points'."""
    rng, zero = random.Random(13), [QQ.zero]
    for _ in range(3):
        a, b = random_window_rep(quiver, window, rng), random_window_rep(quiver, window, rng)
        s = a.direct_sum(b)
        assert validate(s) == [] and a.mats and b.mats
        assert s.dims == {v: a.dim(v) + b.dim(v) for v in set(a.dims) | set(b.dims)}
        for arrow in s.rq.arrows:
            assert s.mat(arrow) == ([row + zero * b.dim(arrow.target) for row in a.mat(arrow)]
                                    + [zero * a.dim(arrow.target) + row for row in b.mat(arrow)])
        ra, rb = phi(restrict(a), window), phi(restrict(b), window)
        summed = {x: ra.mult.get(x, 0) + rb.mult.get(x, 0) for x in set(ra.mult) | set(rb.mult)}
        assert phi(restrict(s), window).mult == {x: d for x, d in summed.items() if d}


# The intersection-of-preimages computation stabilize made before it took one
# kernel per vertex, kept here as the reference it must reproduce.

def _twin_intersect_spans(cols_a, cols_b, dim, field):
    if not cols_a or not cols_b:
        return []
    rows = [[a[i] for a in cols_a] + [-b[i] for b in cols_b] for i in range(dim)]
    out = []
    for k in kernel_cols(rows, len(cols_a) + len(cols_b), field):
        vec = [sum((cols_a[j][i] * k[j] for j in range(len(cols_a))), field.zero) for i in range(dim)]
        if any(x != field.zero for x in vec):
            out.append(vec)
    if not out:
        return []
    _, pivots = rref([[out[j][i] for j in range(len(out))] for i in range(dim)], len(out), field)
    return [out[j] for j in pivots]


def _twin_preimage_cols(map_rows, nsrc, sub_cols, field):
    ntgt = len(map_rows)
    if ntgt == 0 or nsrc == 0:
        return identity_rows(nsrc, field)
    if sub_cols:
        proj = kernel_cols([list(c) for c in sub_cols], ntgt, field)  # rows y with y . col = 0
    else:
        proj = identity_rows(ntgt, field)
    if not proj:
        return identity_rows(nsrc, field)
    return kernel_cols(mat_mul(proj, map_rows, field), nsrc, field)


def _twin_torsion_cols(rep):
    field = rep.field
    tcols = {}
    for x in rep.rq.vertices:
        d = rep.dim(x)
        if d == 0 or x.frozen:
            tcols[x] = []
            continue
        cols = identity_rows(d, field)
        for beta in rep.rq.in_arrows(x):
            pre = (_twin_preimage_cols(rep.mat(beta), d, tcols.get(beta.source, []), field)
                   if rep.dim(beta.source) else identity_rows(d, field))
            cols = _twin_intersect_spans(cols, pre, d, field)
            if not cols:
                break
        tcols[x] = cols
    return tcols


TWIN_QUIVERS = {"A2": A2, "A3": a_n_quiver(3), "D4": d4_quiver(), "K2": kronecker_quiver()}


def _random_rep(q, seed, p, coeff_range=2, window=Window(0, 2), config=None):
    """A random valid representation over QQ (p = 0) or GF(p)."""
    rep = random_window_rep(q, window, random.Random(seed), config, dim_choices=(0, 1, 1, 2),
                            coeff_range=coeff_range)
    if p:
        # one common scale clears the denominators and keeps every (quadratic) relator zero
        den = math.lcm(*(x.denominator for m in rep.mats.values() for row in m for x in row))
        mats = {a: [[x * den for x in row] for row in m] for a, m in rep.mats.items()}
        rep = WindowRep(q, rep.window, rep.config, rep.dims, mats).reduce_mod(PrimeField(p))
        assert validate(rep) == []
    return rep


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(sorted(TWIN_QUIVERS)), st.sampled_from([0, 3]),
       st.sampled_from([1, 2]))
def test_stabilize_matches_intersect_and_preimage_twin(seed, qname, p, coeff_range):
    rep = _random_rep(TWIN_QUIVERS[qname], seed, p, coeff_range)
    new, old = _torsion_cols(rep), _twin_torsion_cols(rep)
    for x in rep.rq.vertices:
        d = rep.dim(x)
        rank_new, rank_old = mat_rank(new[x], d, rep.field), mat_rank(old[x], d, rep.field)
        assert rank_new == len(new[x]) and rank_old == len(old[x])
        assert rank_new == rank_old == mat_rank(new[x] + old[x], d, rep.field)
    assert stabilize(rep).to_json() == _quotient_rep(rep, old)[0].to_json()


# The consumers of the mesh relator as they were before they read it off the
# slice (RepQuiver.relator) and kan_strata.relator_row, each pairing arrows with
# their sigma-images itself, kept here as the references they must reproduce.

def _twin_validate(rep):
    bad = []
    for x in rep.rq.vertices:
        if x.frozen or not rep.window.contains(tau(x)):
            continue
        residual = None
        for beta in rep.rq.in_arrows(x):
            m_sb, m_beta = rep.mats.get(sigma_arrow(rep.q, beta)), rep.mats.get(beta)
            if m_sb is None or m_beta is None:
                continue
            part = mat_mul(m_sb, m_beta, rep.field)
            residual = part if residual is None else [[a + b for a, b in zip(r, t)] for r, t in zip(residual, part)]
        if residual is not None and any(xv != rep.field.zero for r in residual for xv in r):
            bad.append((x, residual))
    return bad


def _twin_is_stable(rep):
    for x in rep.rq.vertices:
        if x.frozen or rep.dim(x) == 0:
            continue
        rows = [r for beta in rep.rq.in_arrows(x) for r in rep.mat(beta)]
        if mat_rank(rows, rep.dim(x), rep.field) < rep.dim(x):
            return False
    return True


def _twin_is_costable(rep):
    for x in rep.rq.vertices:
        if x.frozen or rep.dim(x) == 0:
            continue
        out = rep.rq.out_arrows(x)
        mats = [rep.mat(gamma) for gamma in out]
        rows = [[c for m in mats for c in m[i]] for i in range(rep.dim(x))]
        if mat_rank(rows, sum(rep.dim(gamma.target) for gamma in out), rep.field) < rep.dim(x):
            return False
    return True


def _twin_ext1_simple_into(rep, x):
    field = rep.field
    arrows = [b for b in rep_in_arrows(rep.q, x) if not b.source.frozen or rep.config.retains(b.source)]
    tx = tau(x)
    mid_total = sum(rep.dim(b.source) for b in arrows)
    if mid_total == 0:
        return 0
    a_rows = [r for b in arrows for r in rep.mat(b)]
    b_mats = [rep.mat(sigma_arrow(rep.q, b)) for b in arrows]
    b_rows = [[c for m in b_mats for c in m[i]] for i in range(rep.dim(tx))]
    rank_a = mat_rank(a_rows, rep.dim(x), field)
    rank_b = mat_rank(b_rows, mid_total, field)
    if any(v != field.zero for r in mat_mul(b_rows, a_rows, field) for v in r):
        raise InternalConsistencyError(f"mesh relator at {x} not satisfied by the representation")
    return (mid_total - rank_b) - rank_a


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InternalConsistencyError:
        return InternalConsistencyError


def _relator_consumers(rep):
    """What validate (residuals encoded), is_stable, is_costable and ext1_simple_into
    say of rep, by the code under test and by its twins; ext1 at every non-frozen
    vertex from one level below the window to two above it."""
    w, enc = rep.window, rep.field.encode
    xs = [RepVertex(n, p) for p in range(w.lo - 1, w.hi + 3) for n in rep.q.vertices]
    got, want = [], []
    for out, (val, stable, costable, ext1) in ((got, (validate, is_stable, is_costable, kan_strata.ext1_simple_into)),
                                                (want, (_twin_validate, _twin_is_stable, _twin_is_costable,
                                                        _twin_ext1_simple_into))):
        out.append([(x, [[enc(c) for c in row] for row in r]) for x, r in val(rep)])
        out += [stable(rep), costable(rep)] + [_outcome(ext1, rep, x) for x in xs]
    return got, want


A2_PERIODIC = Configuration([parse_vertex("1@0"), parse_vertex("2@1")], period=2)
RELATOR_TWIN_CASES = {"A2": (A2, None, Window(0, 3)), "A3": (a_n_quiver(3), None, Window(0, 2)),
                      "D4": (d4_quiver(), None, Window(0, 2)), "K2": (kronecker_quiver(), None, Window(0, 2)),
                      "A2-periodic": (A2, A2_PERIODIC, Window(0, 3))}


@pytest.mark.parametrize("case", sorted(RELATOR_TWIN_CASES))
def test_relator_consumers_match_their_own_pairing_twins(case):
    """Random reps, each with one entry perturbed, their reductions to GF(3) and
    GF(5), and the K_LR and stabilize outputs of the valid ones (random reps are
    almost never stable): every answer agrees with the twins."""
    q, config, w = RELATOR_TWIN_CASES[case]
    seen = {"stable and costable": 0, "unstable": 0, "invalid": 0}
    for seed in range(10):
        rng = random.Random(7919 * seed + 3)
        rep = random_window_rep(q, w, rng, config, dim_choices=(0, 1, 1, 2))
        a = rng.choice(sorted(rep.mats, key=lambda a: a.key()))
        mats = {b: [list(row) for row in m] for b, m in rep.mats.items()}
        mats[a][rng.randrange(len(mats[a]))][0] += 1
        reps = [rep, WindowRep(q, w, config, dict(rep.dims), mats)]
        for r in list(reps):
            for p in (3, 5):
                try:
                    reps.append(r.reduce_mod(PrimeField(p)))
                except InvalidInputError:  # a denominator divisible by p
                    pass
        reps += [kan_intermediate(restrict(rep), w).rep, stabilize(rep)]
        for r in reps:
            got, want = _relator_consumers(r)
            assert got == want
            seen["stable and costable"] += want[1] and want[2]
            seen["unstable"] += not want[1]
            seen["invalid"] += bool(want[0])
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# Phi, strata, degeneration, orbits, resolutions.
# ---------------------------------------------------------------------------

def test_phi_of_frozen_simple_is_single_indecomposable():
    u = parse_vertex("1'@1")
    res = phi(SModulePoint.semisimple(A2, W, {u: 1}), W)
    assert res.mult == {sigma_inv(u): 1}
    assert res.v == {}
    assert res.w == {u: 1}


def test_phi_of_zero():
    res = phi(SModulePoint.semisimple(A2, W, {}), W)
    assert res.mult == {} and res.v == {}


def test_same_stratum_reflexive_and_base_change():
    rng = random.Random(21)
    rep = random_window_rep(A2, W, rng, dim_choices=(0, 1, 2))
    M = restrict(rep)
    assert same_stratum(M, M, W)
    g = {v: [[Fraction(2)]] for v in rep.rq.vertices if not v.frozen and rep.dim(v) == 1}
    assert same_stratum(M, restrict(base_change(rep, g)), W)


def test_same_stratum_distinct_points():
    # search for two module points with different action tables but equal Phi
    rng = random.Random(8)
    wdims = {parse_vertex("1'@1"): 1, parse_vertex("2'@0"): 1, parse_vertex("2'@2"): 1}
    pins = {v: wdims.get(v, 0) for v in MeshContext(A2, "RC").vertices_in(W) if v.frozen}
    found = None
    points = []
    for _ in range(40):
        rep = random_window_rep(A2, W, rng, dim_choices=(0, 1, 1), fixed_dims=pins)
        points.append(restrict(rep))
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if not points[i].equal(points[j]) and same_stratum(points[i], points[j], W):
                found = (i, j)
                break
        if found:
            break
    assert found is not None


def test_same_stratum_w_mismatch_rejected():
    M1 = SModulePoint.semisimple(A2, W, {parse_vertex("1'@1"): 1})
    M2 = SModulePoint.semisimple(A2, W, {parse_vertex("2'@1"): 1})
    with pytest.raises(InvalidInputError):
        same_stratum(M1, M2, W)


def test_degeneration_reflexive_and_zero_stratum():
    rng = random.Random(3)
    rep = random_window_rep(A2, W, rng, dim_choices=(0, 1, 2))
    M = restrict(rep)
    assert degeneration_leq(M, M, W)
    semis = SModulePoint.semisimple(A2, W, M.w_vector())
    assert degeneration_leq(M, semis, W)


def test_degeneration_single_translation_step():
    # hunt for a same-w pair whose dimension vectors differ by one unit;
    # the order then holds in exactly one direction
    rng = random.Random(14)
    wdims = {parse_vertex("1'@1"): 1, parse_vertex("2'@0"): 1, parse_vertex("1'@2"): 1}
    pins = {v: wdims.get(v, 0) for v in MeshContext(A2, "RC").vertices_in(W) if v.frozen}
    points = []
    for _ in range(60):
        rep = random_window_rep(A2, W, rng, dim_choices=(0, 1, 1), fixed_dims=pins)
        M = restrict(rep)
        points.append((M, phi(M, W).v))
    hit = None
    for i in range(len(points)):
        for j in range(len(points)):
            vi, vj = points[i][1], points[j][1]
            diff = {x: vi.get(x, 0) - vj.get(x, 0) for x in set(vi) | set(vj)}
            nonzero = {x: d for x, d in diff.items() if d}
            if len(nonzero) == 1 and list(nonzero.values()) == [1]:
                hit = (i, j)
                break
        if hit:
            break
    assert hit is not None
    Mi, Mj = points[hit[0]][0], points[hit[1]][0]
    assert degeneration_leq(Mi, Mj, W)
    assert not degeneration_leq(Mj, Mi, W)


def test_closed_orbit_of_intermediate_extension():
    u = parse_vertex("1'@0")
    klr = kan_intermediate(SModulePoint.semisimple(A2, W, {u: 1, parse_vertex("2'@1"): 2}), W).rep
    out, complement = closed_orbit(klr)
    assert complement == {}
    assert dict(out.dims) == dict(klr.dims)


def test_closed_orbit_requires_stability():
    rep = simple_rep(A2, W, parse_vertex("1@1"))
    with pytest.raises(InvalidInputError):
        closed_orbit(rep)


def test_closed_orbit_generic_bookkeeping():
    # right Kan extensions are stable, so their window slices provide a
    # deterministic supply of stable representations with nonzero complement
    rng = random.Random(17)
    found = nonzero_complements = 0
    for _ in range(12):
        M = random_module_point(A2, W, rng, dim_choices=(0, 1, 1))
        rep = kan_right(M, W).rep
        if rep.total_dim() == 0 or not is_stable(rep):
            continue
        found += 1
        klr, complement = closed_orbit(rep)
        if complement:
            nonzero_complements += 1
        for x in set(list(rep.nonfrozen_dims()) + list(klr.nonfrozen_dims())):
            assert rep.dim(x) == klr.dim(x) + complement.get(x, 0)
        # the complement is the non-frozen dimension vector of CK on the window
        for x, d in complement.items():
            assert d == rep.dim(x) - klr.dim(x)
    assert found >= 5 and nonzero_complements >= 1


def test_resolution_shape_of_frozen_simple():
    u = parse_vertex("1'@1")
    shape = resolution_shape(SModulePoint.semisimple(A2, W, {u: 1}), W)
    assert shape["I0"] == {u: 1}
    assert shape["I1"]["nonfrozen"] == {sigma_inv(u): 1}
    assert shape["I1"]["frozen"] == {}


def test_resolution_shape_zero():
    shape = resolution_shape(SModulePoint.semisimple(A2, W, {}), W)
    assert shape["I0"] == {} and shape["P0"] == {}
    assert shape["I1"]["nonfrozen"] == {}


def test_resolution_shape_i1_matches_phi():
    rng = random.Random(23)
    for _ in range(5):
        M = random_module_point(A2, W, rng, dim_choices=(0, 1, 1, 2))
        shape = resolution_shape(M, W)
        assert shape["I1"]["nonfrozen"] == shape["phi"]


# ---------------------------------------------------------------------------
# Phi once per point.
# ---------------------------------------------------------------------------

def _count_kan_intermediate(monkeypatch):
    calls = []
    inner = kan_strata.kan_intermediate

    def counted(M, w):
        calls.append(M)
        return inner(M, w)

    monkeypatch.setattr(kan_strata, "kan_intermediate", counted)
    return calls


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("qname", ["A2", "A3", "D4"])
def test_phi_memo_matches_a_fresh_twin(qname, p):
    for seed in range(4):
        rep = _random_rep(TWIN_QUIVERS[qname], 100 * seed + 7, p)
        M = restrict(rep)
        first = phi(M, rep.window)
        assert phi(M, rep.window) is first
        fresh = phi(restrict(rep), rep.window)
        assert first is not fresh
        assert first.to_json() == fresh.to_json()
        assert first.klr.to_json() == fresh.klr.to_json()


def _twin_kan_right_basis_cols(M, w):
    """kan_right's kernel columns with the naturality system built as it was:
    sweeps looked up per vertex and one dense row per (u, v, k, i, j)."""
    from stratakit.mesh_hom import precomposition_matrix, sweep

    cat, field = M.cat, M.field
    rc = MeshContext(cat.q, "RC", cat.config)
    support = [u for u in cat.objects if M.dim(u) > 0]
    sup_levels = M.support_levels()
    out = {}
    for x in zero_rep(cat.q, w, cat.config).rq.vertices:
        if sup_levels is None or x.level < sup_levels[0]:
            out[x] = []
            continue
        offsets, nvars = {}, 0
        for u in support:
            d = sweep(rc, u, w, field).dim(x)
            if d:
                offsets[u] = nvars
                nvars += d * M.dim(u)
        if nvars == 0:
            out[x] = []
            continue
        rows = []
        for u in support:
            mu = M.dim(u)
            for v in cat.objects:
                if v.level < u.level or cat.dim(u, v) == 0:
                    continue
                dv_x = sweep(rc, v, w, field).dim(x)
                if dv_x == 0:
                    continue
                for k in range(cat.dim(u, v)):
                    pre = precomposition_matrix(rc, cat.basis_paths(u, v)[k], u, v, x, w, field)
                    amat = M.module.act_mat(u, v, k) if M.dim(v) > 0 else None
                    for i in range(dv_x):
                        comp = [r[i] for r in pre]
                        for j in range(mu):
                            row = [field.zero] * nvars
                            nonzero = False
                            for l, c in enumerate(comp):
                                if c != field.zero:
                                    row[offsets[u] + l * mu + j] = c
                                    nonzero = True
                            if amat is not None and v in offsets:
                                for j2 in range(M.dim(v)):
                                    c = amat[j][j2]
                                    if c != field.zero:
                                        row[offsets[v] + i * M.dim(v) + j2] -= c
                                        nonzero = True
                            if nonzero:
                                rows.append(row)
        out[x] = kernel_cols(rows, nvars, field)
    return out


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("qname", ["A2", "A3", "D4"])
def test_kan_right_rows_match_the_dense_row_twin(qname, p):
    nonzero = 0
    for seed in range(4):
        rep = _random_rep(TWIN_QUIVERS[qname], 53 * seed + 11, p)
        M = restrict(rep)
        kr = kan_right(M, rep.window)
        assert kr.basis_cols == _twin_kan_right_basis_cols(M, rep.window)
        nonzero += sum(map(len, kr.basis_cols.values()))
    assert nonzero > 0


def _twin_kan_left_quotients(M, w):
    """kan_left's (gen_index, kept, gen_coords) from the coend presentation at each vertex:
    the relations of every basis morphism of S, built as they were before the recursion."""
    from stratakit.mesh_hom import postcomposition_matrix, sweep

    cat, field = M.cat, M.field
    rc = MeshContext(cat.q, "RC", cat.config)
    support = [u for u in cat.objects if M.dim(u) > 0]
    index, kept, coords = {}, {}, {}
    for x in zero_rep(cat.q, w, cat.config).rq.vertices:
        fx = sweep(rc, x, w, field)
        offsets, n = {}, 0
        index[x] = [(u, g, j) for u in support for g in range(fx.dim(u)) for j in range(M.dim(u))]
        for u in support:
            if fx.dim(u):
                offsets[u] = n
                n += fx.dim(u) * M.dim(u)
        if n == 0:
            kept[x], coords[x] = [], []
            continue
        rel_cols = []
        for u in cat.objects:
            du = fx.dim(u)
            if du == 0:
                continue
            for v in support:
                if v.level < u.level:
                    continue
                for k in range(cat.dim(u, v)):
                    post = postcomposition_matrix(rc, x, cat.basis_paths(u, v)[k], u, w, field)
                    amat = M.module.act_mat(u, v, k)
                    for g in range(du):
                        for j2 in range(M.dim(v)):
                            col = [field.zero] * n
                            if v in offsets:
                                for l, r in enumerate(post):
                                    col[offsets[v] + l * M.dim(v) + j2] += r[g]
                            if u in offsets:
                                for j in range(M.dim(u)):
                                    col[offsets[u] + g * M.dim(u) + j] -= amat[j][j2]
                            if any(c != field.zero for c in col):
                                rel_cols.append(col)
        kept[x], coords[x] = quotient_coords(n, rel_cols, field)
    return index, kept, coords


def _twin_amb_index(M, w):
    """kan_right's ambient coordinates as the naturality system numbered its variables:
    (u, i, j) for u in the support, f_i over the sweep basis of Hom(u,x), j over M(u)."""
    from stratakit.mesh_hom import sweep

    cat, field = M.cat, M.field
    rc = MeshContext(cat.q, "RC", cat.config)
    support = [u for u in cat.objects if M.dim(u) > 0]
    return {x: [(u, i, j) for u in support for i in range(sweep(rc, u, w, field).dim(x)) for j in range(M.dim(u))]
            for x in zero_rep(cat.q, w, cat.config).rq.vertices}


def _twin_theta(M, amb_index, basis_cols):
    """theta at each frozen u: the coordinates (u, 0, j) of each basis column, the identity's."""
    return {u: [[col[amb_index[u].index((u, 0, j))] for col in basis_cols[u]] for j in range(M.dim(u))]
            for u in M.cat.objects}


# A non-full configuration over A2: the frozen vertices 2'@0 and 1'@1 are dropped.
A2_CONFIG = Configuration([parse_vertex(k) for k in ("1@0", "2@1", "1@2", "2@2", "1@3", "2@3")])
# (quiver, configuration, window): K2 has parallel arrows into one vertex, and A2-lo1 a window above level 0.
KAN_TWIN_CASES = {"A2": (A2, None, Window(0, 2)), "A3": (a_n_quiver(3), None, Window(0, 2)),
                  "D4": (d4_quiver(), None, Window(0, 2)), "A2-config": (A2, A2_CONFIG, Window(0, 2)),
                  "K2": (kronecker_quiver(), None, Window(0, 2)), "A2-lo1": (A2, None, Window(1, 4))}


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("case", sorted(KAN_TWIN_CASES))
def test_kan_extensions_along_generators_match_the_all_basis_twins(case, p):
    """kan_right's recursion gives what the naturality system along every basis morphism
    gave (a test-local twin): the same ambient coordinates, kernel bases with the same
    free and pivot columns, and theta.  kan_left's recursion down the window gives what
    the coend relations along every basis morphism gave (a test-local twin): the same
    generators, kept generators and coordinates."""
    q, config, w = KAN_TWIN_CASES[case]
    nonzero = 0
    for seed in range(3):
        rep = _random_rep(q, 71 * seed + 5, p, window=w, config=config)
        M = restrict(rep)
        if config is not None:
            assert len(M.cat.objects) < len(SCategoryWindow(q, None, w).objects)
        kr, twin_cols = kan_right(M, w), _twin_kan_right_basis_cols(M, w)
        assert kr.amb_index == _twin_amb_index(M, w)
        assert kr.basis_cols == twin_cols
        for x, cols in twin_cols.items():
            got = kr.basis_cols[x]
            assert type(got) is type(cols)
            if isinstance(cols, KernelBasis):
                assert (got.free, got.pivots) == (cols.free, cols.pivots)
        assert kr.theta == _twin_theta(M, kr.amb_index, twin_cols)
        nonzero += sum(map(len, kr.basis_cols.values()))
        if not is_dynkin(q).is_dynkin:
            continue
        kl = kan_left(M, w)
        assert (kl.gen_index, kl.kept, kl.gen_coords) == _twin_kan_left_quotients(M, w)
        nonzero += sum(map(len, kl.kept.values()))
    assert nonzero > 0


def _names_called_in(name):
    """The names that kan_strata's top-level function name calls, nested functions included."""
    tree = ast.parse(inspect.getsource(kan_strata))
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    called = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            called.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
    return called


def _yoneda_kan_dims(M, w):
    """dim K_R(M)(x) and dim K_L(M)(x) at every window vertex x by catmod's Yoneda route,
    which shares no code with either recursion: K_R(M)(x) = Hom_S(N_x, M) with
    N_x = R_C(?, x)|_S acting by precomposition, and K_L(M)(x) is dual to
    Hom_S(M, D R_C(x, ?)|_S) acting by transposed postcomposition; each Hom is
    catmod.ext_dim in degree 0, read off a minimal presentation."""
    from stratakit.mesh_hom import postcomposition_matrix, precomposition_matrix, sweep

    cat, field = M.cat, M.field
    rc = MeshContext(cat.q, "RC", cat.config)
    morphisms = [(u, v, k, cat.basis_paths(u, v)[k]) for u, v, d in cat.hom_pairs() if u != v for k in range(d)]
    right, left = {}, {}
    for x in zero_rep(cat.q, w, cat.config).rq.vertices:
        into = {u: sweep(rc, u, w, field).dim(x) for u in cat.objects}
        out_of = {u: sweep(rc, x, w, field).dim(u) for u in cat.objects}
        n_act = {(u, v, k): precomposition_matrix(rc, s, u, v, x, w, field)
                 for u, v, k, s in morphisms if into[u] and into[v]}
        d_act = {(u, v, k): transpose_rows(postcomposition_matrix(rc, x, s, u, w, field))
                 for u, v, k, s in morphisms if out_of[u] and out_of[v]}
        right[x] = ext_dim(cat, CatModule(cat, into, n_act), M.module, 0)
        left[x] = ext_dim(cat, M.module, CatModule(cat, out_of, d_act), 0)
    return right, left


@pytest.mark.parametrize("qname, window", [("A2", Window(0, 3)), ("A3", Window(0, 2)), ("D4", Window(0, 2))],
                         ids=["A2", "A3", "D4"])
def test_kan_extension_dims_match_the_yoneda_route(qname, window):
    """Every value dimension of K_R and K_L equals the Yoneda route's, over QQ and GF(3)."""
    nonzero_r = nonzero_l = 0
    for seed in range(5 if qname == "A2" else 4):
        rep = _random_rep(TWIN_QUIVERS[qname], 29 * seed + 3, 3 * (seed % 2), window=window)
        M = restrict(rep)
        right, left = _yoneda_kan_dims(M, window)
        kr, kl = kan_right(M, window), kan_left(M, window)
        assert {x: kr.dim(x) for x in right} == right
        assert {x: kl.dim(x) for x in left} == left
        nonzero_r += sum(1 for d in right.values() if d)
        nonzero_l += sum(1 for d in left.values() if d)
    assert nonzero_r > 0 and nonzero_l > 0


def test_kan_right_builds_no_naturality_system():
    """kan_right reads neither the generators of S nor precomposition matrices, and
    builds no naturality rows: its values come from the recursion over the window."""
    called = _names_called_in("kan_right")
    assert called  # the walk sees the calls it should
    assert "sweep" in called and "span_kernel_basis" in called
    assert not called & {"_naturality_rows", "generators", "precomposition_matrix"}


def test_kan_left_builds_no_naturality_system():
    """kan_left reads neither the generators of S nor postcomposition matrices: its
    relations come from the recursion down the window, through single-arrow precomposition."""
    called = _names_called_in("kan_left")
    assert "sweep" in called and "quotient_coords" in called and "precomposition_matrix" in called
    assert not called & {"_naturality_rows", "generators", "postcomposition_matrix"}


@pytest.mark.parametrize("case", ["A2", "K2", "A2-config"])
def test_kan_right_solves_only_for_the_framing_arrows(case, monkeypatch):
    """in_basis, kan_right's only solve, runs once per framing arrow x -> u with
    K_R(x) and K_R(u) both nonzero; every other structure map is read off."""
    q, config, w = KAN_TWIN_CASES[case]
    calls = []
    inner = kan_strata.in_basis

    def counted(vecs, cols, field):
        calls.append(len(vecs))
        return inner(vecs, cols, field)

    monkeypatch.setattr(kan_strata, "in_basis", counted)
    framing = 0
    for seed in range(3):
        rep = _random_rep(q, 71 * seed + 5, 0, window=w, config=config)
        kr = kan_right(restrict(rep), w)
        framing += sum(1 for a in kr.rep.rq.arrows
                       if a.kind == "f" and kr.dim(a.source) and kr.dim(a.target))
    assert framing > 0
    assert len(calls) == framing


def _twin_kan_right_rep(kr):
    """K_R with its structure maps built as they were: a dense ambient transform
    amb(x) x amb(y) per arrow from postcomposition_matrix, restricted by sub_map."""
    from stratakit.mesh_hom import postcomposition_matrix

    M = kr.M
    cat, field, w = M.cat, M.field, M.window
    rc = MeshContext(cat.q, "RC", cat.config)
    mats = {}
    for a in kr.rep.rq.arrows:
        x, y = a.source, a.target
        if kr.dim(x) == 0 or kr.dim(y) == 0:
            continue
        idx_y = {t: pos for pos, t in enumerate(kr.amb_index[y])}
        amb = [[field.zero] * len(idx_y) for _ in kr.amb_index[x]]
        post = {}  # u -> the matrix of Hom(u,x) -> Hom(u,y), f |-> a o f
        for pos, (u, l, j) in enumerate(kr.amb_index[x]):
            if u not in post:
                post[u] = postcomposition_matrix(rc, u, (a,), x, w, field)
            for m_i, row in enumerate(post[u]):
                col = idx_y.get((u, m_i, j))
                if row[l] != field.zero and col is not None:
                    amb[pos][col] = row[l]
        mats[a] = sub_map(amb, kr.basis_cols[y], kr.basis_cols[x], field)
        assert mats[a] is not None
    return WindowRep(cat.q, w, cat.config, {x: kr.dim(x) for x in kr.rep.rq.vertices}, mats, field)


def _twin_kan_left_rep(kl):
    """K_L with its structure maps built as they were: a dense generator transform
    gen(x) x gen(y) per arrow from precomposition_matrix, pushed to the quotients by quotient_map."""
    from stratakit.mesh_hom import precomposition_matrix

    M = kl.M
    cat, field, w = M.cat, M.field, M.window
    rc = MeshContext(cat.q, "RC", cat.config)
    mats = {}
    for a in kl.rep.rq.arrows:
        x, y = a.source, a.target
        if kl.dim(x) == 0 or kl.dim(y) == 0:
            continue
        idx_x = {t: pos for pos, t in enumerate(kl.gen_index[x])}
        gen = [[field.zero] * len(kl.gen_index[y]) for _ in kl.gen_index[x]]
        pre = {}  # u -> the matrix of Hom(y,u) -> Hom(x,u), f |-> f o a
        for t in kl.kept[y]:
            (u, g, j) = kl.gen_index[y][t]
            if u not in pre:
                pre[u] = precomposition_matrix(rc, (a,), x, y, u, w, field)
            for l, row in enumerate(pre[u]):
                if row[g] != field.zero:
                    gen[idx_x[(u, l, j)]][t] = row[g]
        mats[a] = quotient_map(gen, kl.kept[y], (kl.kept[x], kl.gen_coords[x]), field)
    return WindowRep(cat.q, w, cat.config, {x: kl.dim(x) for x in kl.rep.rq.vertices}, mats, field)


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("case", sorted(KAN_TWIN_CASES))
def test_kan_structure_maps_match_the_dense_transform_twins(case, p):
    """K_R's structure maps, read off the recursion's coefficients (a framing arrow's through
    the sweeps' arrow matrices and in_basis), and K_L's, read on the kept generators only,
    equal the dense transforms they replaced, K_R's in the slice's arrow order."""
    q, config, w = KAN_TWIN_CASES[case]
    maps = 0
    for seed in range(3):
        rep = _random_rep(q, 71 * seed + 5, p, window=w, config=config)
        M = restrict(rep)
        kr = kan_right(M, w)
        twin = _twin_kan_right_rep(kr)
        assert kr.rep.to_json() == twin.to_json()
        assert list(kr.rep.mats) == list(twin.mats)  # both in the slice's arrow order
        maps += len(kr.rep.mats)
        if is_dynkin(q).is_dynkin:
            kl = kan_left(M, w)
            assert kl.rep.to_json() == _twin_kan_left_rep(kl).to_json()
            maps += len(kl.rep.mats)
    assert maps > 0


def _twin_kan_intermediate(M, w):
    """kan_intermediate's closure as it was: span_basis picks each K_LR(x) from the gathered
    images, then _sub_rep restricts every arrow by a second elimination."""
    kr = kan_right(M, w)
    field = M.field
    incl = {}
    for x in reversed(kr.rep.rq.vertices):
        if kr.dim(x) == 0:
            incl[x] = []
        elif x.frozen:
            incl[x] = solve_many(transpose_rows(kr.theta[x]), identity_rows(M.dim(x), field), field)
        else:
            gathered = [img for a in kr.rep.rq.out_arrows(x) if a in kr.rep.mats
                        for img in (mat_vec(kr.rep.mats[a], col, field) for col in incl.get(a.target, []))
                        if any(e != field.zero for e in img)]
            incl[x] = span_basis(gathered, kr.dim(x), field)[0]
    return kan_strata._sub_rep(kr.rep, incl, "K_LR is not closed under the structure maps"), incl


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("case", sorted(KAN_TWIN_CASES))
def test_klr_maps_read_off_the_closure_match_the_sub_rep_twin(case, p):
    """K_LR's structure maps, read off the elimination that picks its bases, equal those
    of the twin that restricts K_R's maps by solving again: the same dimensions, inclusion
    columns, matrices (in the slice's arrow order) and JSON."""
    q, config, w = KAN_TWIN_CASES[case]
    maps = 0
    for seed in range(12):  # the configured case has nonzero maps from seed 8 on
        M = restrict(_random_rep(q, 71 * seed + 5, p, window=w, config=config))
        ki = kan_intermediate(M, w)
        twin, twin_incl = _twin_kan_intermediate(M, w)
        assert ki.rep.dims == twin.dims
        assert ki.incl_cols == twin_incl
        assert list(ki.rep.mats) == list(twin.mats)
        assert ki.rep.mats == twin.mats
        assert ki.rep.to_json() == twin.to_json()
        maps += len(twin.mats)
    assert maps > 0


def test_degeneration_pairs_run_kan_intermediate_once_per_point(monkeypatch):
    rng = random.Random(14)
    wdims = {parse_vertex("1'@1"): 1, parse_vertex("2'@0"): 1, parse_vertex("1'@2"): 1}
    pins = {v: wdims.get(v, 0) for v in MeshContext(A2, "RC").vertices_in(W) if v.frozen}
    points = [SModulePoint.semisimple(A2, W, wdims)]
    points += [restrict(random_window_rep(A2, W, rng, dim_choices=(0, 1, 1), fixed_dims=pins)) for _ in range(4)]
    calls = _count_kan_intermediate(monkeypatch)
    leq = [[degeneration_leq(M1, M2, W) for M2 in points] for M1 in points]
    assert len(calls) == len(points)
    assert all(leq[i][i] and leq[i][0] for i in range(len(points)))
    assert all(same_stratum(M1, M2, W) == (phi(M1, W).v == phi(M2, W).v) for M1 in points for M2 in points)
    resolution_shape(points[1], W)
    assert len(calls) == len(points)


def test_phi_that_raised_is_recomputed(monkeypatch):
    rep = _random_rep(A2, 5, 0, window=W)
    M = restrict(rep)
    calls = _count_kan_intermediate(monkeypatch)
    honest = kan_strata.ext1_simple_into
    monkeypatch.setattr(kan_strata, "ext1_simple_into", lambda klr, x: -1)
    with pytest.raises(InternalConsistencyError):
        phi(M, W)
    monkeypatch.setattr(kan_strata, "ext1_simple_into", honest)
    res = phi(M, W)
    assert len(calls) == 2
    assert phi(M, W) is res and len(calls) == 2
    assert res.to_json() == phi(restrict(rep), W).to_json()


def test_foreign_window_still_raises_after_a_memo_hit():
    M = restrict(_random_rep(A2, 9, 0, window=W))
    res = phi(M, W)
    assert phi(M, W) is res
    with pytest.raises(WindowInsufficiencyError):
        phi(M, Window(0, 4))
    with pytest.raises(WindowInsufficiencyError):
        degeneration_leq(M, M, Window(0, 4))
    assert phi(M, W) is res


# ---------------------------------------------------------------------------
# Lean restrict and the shared window category.
# ---------------------------------------------------------------------------

def _twin_restrict(rep):
    """restrict as it stored every action: identities and zero matrices included."""
    cat = SCategoryWindow(rep.q, rep.config, rep.window, rep.field)
    dims = {u: rep.dim(u) for u in cat.objects}
    act = {}
    for u, v, dk in cat.hom_pairs():
        if dims.get(u, 0) == 0 or dims.get(v, 0) == 0:
            continue
        for k in range(dk):
            path = cat.basis_paths(u, v)[k]
            act[(u, v, k)] = rep.path_matrix(path) if path else identity_rows(rep.dim(u), rep.field)
    return SModulePoint(cat, CatModule(cat, dims, act))


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("qname", ["A2", "A3", "D4"])
def test_lean_restrict_matches_the_full_table_twin(qname, p):
    dropped = 0
    for seed in range(4):
        rep = _random_rep(TWIN_QUIVERS[qname], 31 * seed + 2, p)
        new, old = restrict(rep), _twin_restrict(rep)
        assert new.equal(old) and old.equal(new)
        zero = rep.field.zero
        for u, v, dk in old.cat.hom_pairs():
            for k in range(dk):
                assert new.module.act_mat(u, v, k) == old.module.act_mat(u, v, k)
        for u in old.cat.objects:
            assert new.module.socle_dim(u) == old.module.socle_dim(u)
            assert new.module.top_generators(u) == old.module.top_generators(u)
        for (u, v, k), m in new.module.act.items():
            assert u != v
            assert any(x != zero for row in m for x in row)
        dropped += len(old.module.act) - len(new.module.act)
        assert phi(new, rep.window).to_json() == phi(old, rep.window).to_json()
        assert phi(new, rep.window).klr.to_json() == phi(old, rep.window).klr.to_json()
    assert dropped > 0


def test_restricts_share_one_category_until_clear_cache():
    mesh_hom.clear_cache()
    try:
        a, b = restrict(_random_rep(A2, 1, 0, window=W)), restrict(_random_rep(A2, 2, 0, window=W))
        assert a.cat is b.cat
        assert SModulePoint.semisimple(A2, W, {}).cat is a.cat
        assert a.reduce_mod(PrimeField(3)).cat is restrict(_random_rep(A2, 3, 3, window=W)).cat
        assert restrict(zero_rep(A2, Window(0, 2))).cat is not a.cat
        categories = [obj for key, obj in quiver_core._SHARED.items() if key[0] == "category"]
        assert a.cat in categories and restrict(zero_rep(A2, Window(0, 2))).cat in categories
        mesh_hom.clear_cache()
        assert quiver_core._SHARED == {}
        fresh = restrict(_random_rep(A2, 1, 0, window=W))
        assert fresh.cat is not a.cat
        assert fresh.cat.objects == a.cat.objects and fresh.equal(a)
    finally:
        mesh_hom.clear_cache()


# ---------------------------------------------------------------------------
# Fibers.
# ---------------------------------------------------------------------------

def test_fiber_distinguished_point():
    u = parse_vertex("1'@1")
    M = SModulePoint.semisimple(A2, Window(0, 4), {u: 1})
    res = fiber(M, {}, 2, Window(0, 4))
    assert res.nonempty is True
    assert res.witness is not None
    assert res.witness.nonfrozen_dims() == {}


def test_fiber_negative_component_empty():
    u = parse_vertex("1'@1")
    M = SModulePoint.semisimple(A2, Window(0, 4), {u: 1})
    res = fiber(M, {parse_vertex("1@2"): -1}, 2, Window(0, 4))
    assert res.nonempty is False


def test_fiber_socle_witness():
    # CK(S_{sigma x}) is the cofree mesh module at x; adding its socle vertex
    # gives a nonempty fiber with an explicit stable witness
    u = parse_vertex("1'@1")
    x = sigma_inv(u)
    w4 = Window(0, 4)
    M = SModulePoint.semisimple(A2, w4, {u: 1})
    res = fiber(M, {x: 1}, 2, w4)
    assert res.nonempty is True
    wit = res.witness
    assert wit.nonfrozen_dims() == {x: 1}
    assert is_stable(wit)
    assert restrict(wit).w_vector() == {u: 1}


def test_fiber_bound_gives_undetermined():
    rng = random.Random(6)
    M = random_module_point(A2, Window(0, 4), rng, dim_choices=(1, 1), support=Window(0, 1))
    res = fiber(M, {}, 2, Window(0, 4), bound=0)
    assert res.nonempty is None


def test_fiber_rejects_a_negative_bound():
    rng = random.Random(6)
    M = random_module_point(A2, Window(0, 4), rng, dim_choices=(1, 1), support=Window(0, 1))
    with pytest.raises(InvalidInputError, match="bound must be >= 0"):
        fiber(M, {}, 2, Window(0, 4), bound=-1)
    assert fiber(M, {}, 2, Window(0, 4), bound=0).detail.endswith("exceeds the bound 0")


def _twin_enumerate_subspaces(d, field):
    """_enumerate_subspaces as it was: one list holding every subspace."""
    values = [field.of_int(i) for i in range(field.p)]
    out = [[]]
    for k in range(1, d + 1):
        for pivots in itertools.combinations(range(d), k):
            free_pos = []
            for i, p in enumerate(pivots):
                for c in range(p + 1, d):
                    if c not in pivots:
                        free_pos.append((i, c))
            for assign in itertools.product(values, repeat=len(free_pos)):
                rows = [[field.zero] * d for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = field.one
                for (i, c), val in zip(free_pos, assign):
                    rows[i][c] = val
                out.append([list(r) for r in rows])
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_subspaces_are_generated_in_the_old_order(p):
    field = PrimeField(p)
    for d in range(5):
        assert list(_enumerate_subspaces(d, field)) == _twin_enumerate_subspaces(d, field)


def test_subspace_enumeration_holds_one_subspace_at_a_time():
    field = PrimeField(2)
    tracemalloc.start()
    try:
        count = sum(1 for _ in _enumerate_subspaces(7, field))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 29212  # the Gaussian binomials [7 k]_2 summed over k
    assert peak < 1 << 20


def test_planes_over_a_large_prime_draw_their_free_entries_one_at_a_time():
    """The first 4 subspaces of GF(1,000,003)^2, in the old order, come at once and in
    little memory: no pool of field elements is listed for the lines with a free entry."""
    field = PrimeField(1_000_003)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        first = list(itertools.islice(_enumerate_subspaces(2, field), 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.1
    assert peak < 1 << 20
    assert first == [[]] + [[[field.one, field.of_int(c)]] for c in range(3)]


def test_lines_over_a_large_prime_list_no_field_elements():
    """A one-dimensional stalk has no free entries, so its 2 subspaces come at once:
    fiber over GF(2^31 - 1) answers as over GF(2)."""
    big = 2147483647
    u = parse_vertex("1'@1")
    x = sigma_inv(u)
    w4 = Window(0, 4)
    M = SModulePoint.semisimple(A2, w4, {u: 1})
    small = fiber(M, {x: 1}, 2, w4)
    field = PrimeField(big)
    assert list(_enumerate_subspaces(1, field)) == [[], [[field.one]]]
    res = fiber(M, {x: 1}, big, w4)
    assert len(res.attained) == 3  # CK has two one-dimensional stalks
    assert (res.nonempty, res.v0, res.attained) == (small.nonempty, small.v0, small.attained)
    assert res.witness.nonfrozen_dims() == {x: 1}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subspace_counts_are_the_enumerated_counts(p):
    field = PrimeField(p)
    for d in range(5 if p < 5 else 4):
        assert kan_strata._subspace_count(d, p) == sum(1 for _ in _enumerate_subspaces(d, field))


def test_a_plane_stalk_over_a_large_prime_is_refused_before_any_subspace_is_made(monkeypatch):
    """CK(S_{sigma x}^2) has a 2-dimensional stalk: over GF(1,000,003) it has 1,000,004 lines,
    1,000,006 subspaces in all, so fiber answers undetermined at once; over GF(2) it answers."""
    u = parse_vertex("1'@1")
    x = sigma_inv(u)
    w4 = Window(0, 4)
    M = SModulePoint.semisimple(A2, w4, {u: 2})
    small = fiber(M, {x: 1}, 2, w4)
    assert small.nonempty is True and max(small.v0.values(), default=0) == 0

    def no_subspaces(d, field):
        raise AssertionError("a subspace was made")

    monkeypatch.setattr(kan_strata, "_enumerate_subspaces", no_subspaces)
    start = time.perf_counter()
    res = fiber(M, {x: 1}, 1_000_003, w4)
    assert time.perf_counter() - start < 1.0
    assert res.nonempty is None and res.witness is None and res.attained == []
    assert res.detail == (f"a CK stalk of dimension 2 has 1000006 subspaces, more than the limit "
                          f"{kan_strata.MAX_STALK_SUBSPACES}")
    assert kan_strata.MAX_STALK_SUBSPACES < 1_000_006


def test_a_search_over_too_many_stalk_combinations_is_refused_before_any_subspace_is_made(monkeypatch):
    """The semisimple A2 point with dimensions 3, 3 and 2 at 1'@1, 2'@2 and 1'@3 has CK stalks
    of dimensions 2, 3, 3, 3 and 5 over GF(2): 16 in all, inside the bound 64, each stalk
    within the limit, but their subspace counts multiply to 7,659,520, so fiber answers
    undetermined at once instead of walking the combinations."""
    w = Window(0, 7)
    M = SModulePoint.semisimple(A2, w, {parse_vertex("1'@1"): 3, parse_vertex("2'@2"): 3, parse_vertex("1'@3"): 2})

    def no_subspaces(d, field):
        raise AssertionError("a subspace was made")

    monkeypatch.setattr(kan_strata, "_enumerate_subspaces", no_subspaces)
    start = time.perf_counter()
    res = fiber(M, {}, 2, w)
    assert time.perf_counter() - start < 1.0
    assert res.nonempty is None and res.witness is None and res.attained == []
    assert res.detail == (f"the CK stalks' subspaces combine in 7659520 ways, more than the limit "
                          f"{kan_strata.MAX_STALK_SUBSPACES}")
    ck = quiver_core.shared(("fiber", id(M), 2, w), pytest.fail).ck  # the stage the call built
    assert sorted(ck.dims.values()) == [2, 3, 3, 3, 5] and ck.total_dim() <= 64


def test_fiber_field_reduction_guard():
    u = parse_vertex("1'@1")
    M = SModulePoint.semisimple(A2, Window(0, 4), {u: 1})
    with pytest.raises(InvalidInputError):
        fiber(M, {}, 4, Window(0, 4))  # 4 is not prime


def test_fiber_rejects_a_point_over_another_prime():
    mesh_hom.clear_cache()
    try:
        u, w = parse_vertex("1'@1"), Window(0, 4)
        M = SModulePoint.semisimple(A2, w, {u: 1}, field=PrimeField(3))
        with pytest.raises(InvalidInputError, match=r"GF\(3\)"):
            fiber(M, {}, 2, w)
        assert _fiber_stages() == []
        res = fiber(M, {sigma_inv(u): 1}, 3, w)
        assert res.nonempty is True and res.field_char == 3 and res.witness.field.p == 3
        assert fiber(SModulePoint.semisimple(A2, w, {u: 1}), {sigma_inv(u): 1}, 2, w).field_char == 2
    finally:
        mesh_hom.clear_cache()


def _fiber_rep(seed, p):
    """A random valid A2 representation on [0,4] supported on levels 0-1, over QQ (p = 0) or GF(p)."""
    rep = random_window_rep(A2, Window(0, 4), random.Random(seed), dim_choices=(0, 1, 1), support=Window(0, 1))
    if p:
        den = math.lcm(*(x.denominator for m in rep.mats.values() for row in m for x in row))
        mats = {a: [[x * den for x in row] for row in m] for a, m in rep.mats.items()}
        rep = WindowRep(A2, rep.window, rep.config, rep.dims, mats).reduce_mod(PrimeField(p))
        assert validate(rep) == []
    return rep


def _fiber_queries(M, p, w):
    """The probe, a lift of every attained vector and one overshoot, as fiber() arguments."""
    probe = fiber(M, {}, p, w)
    queries = [{}]
    for uvec in probe.attained:
        target = dict(probe.v0)
        for key, d in uvec.items():
            target[parse_vertex(key)] = target.get(parse_vertex(key), 0) + d
        queries.append(target)
    big = dict(probe.v0)
    big[parse_vertex("1@0")] = big.get(parse_vertex("1@0"), 0) + 9
    queries.append(big)
    return queries


def _fiber_stages():
    return [key for key in quiver_core._SHARED if key[0] == "fiber"]


@pytest.mark.parametrize("p, seeds", [(2, range(6)), (3, range(3))])
def test_shared_fiber_stage_matches_fresh_calls(monkeypatch, p, seeds):
    w = Window(0, 4)
    lifted = 0
    for seed in seeds:
        rep = _fiber_rep(seed, p if p == 3 else 0)
        mesh_hom.clear_cache()
        calls = _count_kan_intermediate(monkeypatch)
        M = restrict(rep)
        queries = _fiber_queries(M, p, w)
        shared = [fiber(M, v, p, w).to_json() for v in queries]
        assert len(calls) == 1 and len(_fiber_stages()) == 1
        for v, got in zip(queries, shared):
            mesh_hom.clear_cache()
            assert fiber(restrict(rep), v, p, w).to_json() == got
        assert shared[0]["nonempty"] is not None and shared[-1]["nonempty"] is False
        assert all(got["nonempty"] is True for got in shared[1:-1])
        lifted += len(queries) - 2
        monkeypatch.undo()
    assert lifted >= 5
    mesh_hom.clear_cache()


def test_fiber_call_that_raises_stores_no_stage(monkeypatch):
    mesh_hom.clear_cache()
    try:
        M = restrict(_fiber_rep(1, 0))
        with pytest.raises(InvalidInputError):
            fiber(M, {}, 4, Window(0, 4))
        honest = kan_strata.kan_intermediate
        monkeypatch.setattr(kan_strata, "kan_intermediate", lambda M, w: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            fiber(M, {}, 2, Window(0, 4))
        assert _fiber_stages() == []
        monkeypatch.setattr(kan_strata, "kan_intermediate", honest)
        u = parse_vertex("1'@1")
        top = SModulePoint.semisimple(A2, Window(0, 2), {u: 1})
        with pytest.raises(WindowInsufficiencyError):
            fiber(top, {}, 2, Window(0, 2))
        assert _fiber_stages() == []
        assert fiber(M, {}, 2, Window(0, 4)).to_json() == fiber(restrict(_fiber_rep(1, 0)), {}, 2, Window(0, 4)).to_json()
    finally:
        mesh_hom.clear_cache()


def test_fiber_stage_is_per_prime_and_window_and_dropped_by_clear_cache(monkeypatch):
    mesh_hom.clear_cache()
    try:
        w = Window(0, 4)
        M = restrict(_fiber_rep(2, 0))
        calls = _count_kan_intermediate(monkeypatch)
        r2, r3 = fiber(M, {}, 2, w), fiber(M, {}, 3, w)
        assert (r2.field_char, r3.field_char) == (2, 3)
        assert len(calls) == 2 and len(_fiber_stages()) == 2
        with pytest.raises(WindowInsufficiencyError):
            fiber(M, {}, 2, Window(0, 5))
        assert fiber(M, {}, 2, w).to_json() == r2.to_json()
        assert len(calls) == 3 and len(_fiber_stages()) == 2  # the foreign window ran and raised
        mesh_hom.clear_cache()
        assert _fiber_stages() == []
        assert fiber(M, {}, 2, w).to_json() == r2.to_json()
        assert len(calls) == 4
    finally:
        mesh_hom.clear_cache()


def test_fiber_bound_is_checked_on_every_call():
    mesh_hom.clear_cache()
    try:
        w = Window(0, 4)
        M = restrict(_fiber_rep(3, 0))
        assert fiber(M, {}, 2, w, bound=0).nonempty is None
        full = fiber(M, {}, 2, w)
        assert full.nonempty is True and full.attained
        assert fiber(M, {}, 2, w, bound=0).to_json() == fiber(restrict(_fiber_rep(3, 0)), {}, 2, w, bound=0).to_json()
    finally:
        mesh_hom.clear_cache()


def test_mutating_a_fiber_result_leaves_the_stage_unchanged():
    mesh_hom.clear_cache()
    try:
        w = Window(0, 4)
        M = restrict(_fiber_rep(4, 0))
        first = fiber(M, {}, 2, w)
        before = first.to_json()
        first.attained[0]["1@2"] = 99
        first.attained.append({"2@3": 1})
        first.v0[parse_vertex("2@2")] = 7
        again = fiber(M, {}, 2, w)
        assert again.to_json() == before
        assert again.attained is not first.attained and again.v0 is not first.v0
    finally:
        mesh_hom.clear_cache()


def test_prime_field_arithmetic():
    gf = PrimeField(5)
    a, b = gf.of_int(3), gf.of_int(4)
    assert (a * b).v == 2
    assert (a / b).v == (3 * pow(4, 3, 5)) % 5
    assert gf.of_fraction(Fraction(1, 2)).v == 3
    with pytest.raises(InvalidInputError):
        gf.of_fraction(Fraction(1, 5))


# ---------------------------------------------------------------------------
# JSON round trips.
# ---------------------------------------------------------------------------

def test_window_rep_json_round_trip():
    rng = random.Random(12)
    rep = random_window_rep(A2, W, rng, dim_choices=(0, 1, 2))
    again = WindowRep.from_json(rep.to_json())
    assert again.equal_data(rep)
    assert again.to_json() == rep.to_json()


def test_window_rep_from_json_checks_rational_matrices():
    rep = random_window_rep(A2, Window(0, 2), random.Random(3), dim_choices=(1, 2))
    data = rep.to_json()
    key = next(k for k, m in sorted(data["mats"].items()) if len(m) >= 2)
    for corrupt, msg in [(lambda m: m[0].append("1"), "ragged matrix"),
                         (lambda m: m.pop(), "row count mismatch"),
                         (lambda m: m[0].__setitem__(0, "x/y"), "bad rational 'x/y'")]:
        bad = WindowRep.from_json(rep.to_json()).to_json()
        corrupt(bad["mats"][key])
        with pytest.raises(InvalidInputError) as info:
            WindowRep.from_json(bad)
        assert str(info.value) == msg
    for tag in (3.9, 2.5, True):
        with pytest.raises(InvalidInputError) as info:
            WindowRep.from_json({**data, "field": tag})
        assert str(info.value) == f"bad field tag {tag!r}: expected an integer"
    data["mats"][key][0][0] = "1/2"
    parsed = WindowRep.from_json(data)
    assert parsed.mats[next(a for a in parsed.mats if a.key() == key)][0][0] == Fraction(1, 2)


def test_window_rep_from_json_reads_integral_rationals_as_ints():
    rep = random_window_rep(A2, Window(0, 2), random.Random(3), dim_choices=(1, 2))
    data = rep.to_json()
    key = next(k for k, m in sorted(data["mats"].items()) if len(m) >= 2)
    m = data["mats"][key]
    m[0][0], m[1][0] = 3, "1/2"
    for given in (3, "3", "6/2"):
        m[0][1] = given
        parsed = WindowRep.from_json(data)
        rows = parsed.mats[next(a for a in parsed.mats if a.key() == key)]
        assert [type(x) for x in rows[0]] == [int, int] and rows[0] == [3, 3]
        assert type(rows[1][0]) is Fraction and rows[1][0] == Fraction(1, 2)
        out = parsed.to_json()
        assert out["mats"][key][0][:2] == ["3", "3"] and out["mats"][key][1][0] == "1/2"
        assert WindowRep.from_json(out).to_json() == out
    # integral Fractions passed in directly are stored as ints as well
    direct = WindowRep(A2, parsed.window, None, dict(parsed.dims),
                       {a: [[Fraction(x) for x in row] for row in m] for a, m in parsed.mats.items()})
    assert direct.mats == parsed.mats
    assert all(type(x) is int or x.denominator != 1 for m in direct.mats.values() for row in m for x in row)


# ---------------------------------------------------------------------------
# Shared window slices.
# ---------------------------------------------------------------------------

def _slice_snapshot(rq):
    return (rq.vertices, rq.arrows, {v: (rq.in_arrows(v), rq.out_arrows(v)) for v in rq.vertices})


def test_window_reps_share_one_slice_per_window_and_configuration():
    c = Configuration([parse_vertex("1@%d" % p) for p in range(0, 4)])
    first = zero_rep(A2, W)
    assert simple_rep(a_n_quiver(2), W, parse_vertex("1@1")).rq is first.rq
    assert zero_rep(A2, W, Configuration.full()).rq is first.rq
    assert zero_rep(A2, W, c).rq is zero_rep(A2, W, Configuration(c.members)).rq
    others = [zero_rep(A2, Window(0, 4)).rq, zero_rep(A2, W, c).rq, zero_rep(a_n_quiver(3), W).rq]
    assert len({id(rq) for rq in [first.rq] + others}) == 4
    assert zero_rep(A2, W, c).rq.vertices != first.rq.vertices


def test_phi_and_fiber_leave_the_shared_slice_unchanged():
    from stratakit import mesh_hom

    mesh_hom.clear_cache()
    try:
        w4 = Window(0, 4)
        u = parse_vertex("1'@1")
        M = SModulePoint.semisimple(A2, w4, {u: 1})
        rq = zero_rep(A2, w4).rq
        before = _slice_snapshot(rq)
        phi(M, w4)
        res = fiber(M, {sigma_inv(u): 1}, 2, w4)
        assert res.witness.rq is rq
        assert _slice_snapshot(rq) == before
        rng = random.Random(8)
        N = random_module_point(A2, W, rng, dim_choices=(0, 1, 1, 2))
        small = zero_rep(A2, W).rq
        snapshot = _slice_snapshot(small)
        assert phi(N, W).klr.rq is small
        assert _slice_snapshot(small) == snapshot
    finally:
        mesh_hom.clear_cache()


def test_clear_cache_drops_the_shared_slices():
    old = zero_rep(A2, W).rq
    assert old in [obj for key, obj in quiver_core._SHARED.items() if key[0] == "slice"]
    mesh_hom.clear_cache()
    assert quiver_core._SHARED == {}
    fresh = zero_rep(A2, W).rq
    assert fresh is not old
    assert _slice_snapshot(fresh) == _slice_snapshot(old)
    mesh_hom.clear_cache()
