import random

import pytest
from hypothesis import given, settings, strategies as st

from stratakit.dq_engine import (
    ar_relation_vector,
    cartan_apply,
    cartan_solve,
    hom_dq,
    is_dynkin,
    iterate_shift,
    nu_inv_vertex,
    nu_vertex,
    sigma_shift_vertex,
    zq_in_neighbours,
)
from stratakit import mesh_hom
from stratakit.errors import InternalConsistencyError, InvalidInputError, WindowInsufficiencyError
from stratakit.mesh_hom import MeshContext, hom_dim, sweep
from stratakit.quiver_core import (
    QArrow,
    Quiver,
    RepVertex,
    Window,
    a_n_quiver,
    d4_quiver,
    kronecker_quiver,
    parse_vertex,
)

A2 = a_n_quiver(2)


def test_dynkin_classification():
    assert is_dynkin(A2) == is_dynkin(a_n_quiver(2))
    assert is_dynkin(A2).family == "A" and is_dynkin(A2).rank == 2
    assert is_dynkin(d4_quiver()).family == "D" and is_dynkin(d4_quiver()).rank == 4
    assert not is_dynkin(kronecker_quiver(2)).is_dynkin
    e6 = Quiver(["1", "2", "3", "4", "5", "6"],
                [QArrow("a", "1", "2"), QArrow("b", "2", "3"), QArrow("c", "3", "4"),
                 QArrow("d", "4", "5"), QArrow("e", "3", "6")])
    assert is_dynkin(e6).family == "E" and is_dynkin(e6).rank == 6
    star5 = Quiver(["0", "1", "2", "3", "4"],
                   [QArrow(f"a{i}", "0", str(i)) for i in range(1, 5)])
    assert not is_dynkin(star5).is_dynkin
    disconnected = Quiver(["1", "2"], [])
    with pytest.raises(InvalidInputError):
        is_dynkin(disconnected)


def test_nu_values_a2():
    # derived from the defining Hom-dimension pattern; see also the classical
    # identities nu(projective at a node) = the injective at that node
    w = Window(0, 6)
    assert nu_vertex(A2, parse_vertex("1@1"), w) == parse_vertex("2@1")
    assert nu_vertex(A2, parse_vertex("2@1"), w) == parse_vertex("1@2")
    assert sigma_shift_vertex(A2, parse_vertex("2@1"), w) == parse_vertex("1@3")
    assert sigma_shift_vertex(A2, parse_vertex("1@1"), w) == parse_vertex("2@2")


def test_nu_inverse_round_trip():
    w = Window(0, 8)
    for key in ["1@2", "2@2", "1@3", "2@4"]:
        x = parse_vertex(key)
        assert nu_inv_vertex(A2, nu_vertex(A2, x, w), w) == x
    d4 = d4_quiver()
    wd = Window(0, 6)
    for key in ["0@2", "1@2", "2@3"]:
        x = parse_vertex(key)
        assert nu_inv_vertex(d4, nu_vertex(d4, x, wd), wd) == x


def test_serre_duality_dimension_level():
    w = Window(0, 6)
    ctx = MeshContext(A2, "kZQ")
    xs = [RepVertex(n, p) for n in A2.vertices for p in range(1, 4)]
    for x in xs:
        nx = nu_vertex(A2, x, w)
        for y in ctx.vertices_in(w):
            assert hom_dim(ctx, x, y, w) == hom_dim(ctx, y, nx, w)


def test_nu_window_certificates():
    with pytest.raises(WindowInsufficiencyError):
        nu_vertex(A2, parse_vertex("1@0"), Window(0, 4))  # no level below x
    with pytest.raises(WindowInsufficiencyError):
        nu_vertex(A2, parse_vertex("2@4"), Window(0, 5))  # support reaches the top


# ---------------------------------------------------------------------------
# The Serre table against the per-vertex Hom search it replaced.
# ---------------------------------------------------------------------------

def _twin_nu_vertex(q, x, w):
    if x.frozen:
        raise InvalidInputError(f"{x} is frozen; derived-category vertices are non-frozen")
    if not is_dynkin(q).is_dynkin:
        raise InvalidInputError("nu is only defined for Dynkin quivers")
    if not w.contains(x):
        raise WindowInsufficiencyError(f"{x} outside window")
    if x.level <= w.lo:
        raise WindowInsufficiencyError(f"nu search needs a level below {x} inside the window")
    ctx = MeshContext(q, "kZQ")
    fun = sweep(ctx, x, w)
    verts = ctx.vertices_in(w)
    if any(fun.dim(y) for y in verts if y.level == w.hi):
        raise WindowInsufficiencyError(f"Hom support of {x} reaches the window top {w.hi}")
    out = {y: fun.dim(y) for y in verts}
    candidates = [z for z in verts if all(hom_dim(ctx, y, z, w) == out[y] for y in verts)]
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise WindowInsufficiencyError(f"no nu candidate for {x} in window {w.to_json()}")
    raise InternalConsistencyError(f"multiple nu candidates for {x}: {candidates}")


def _twin_nu_inv_vertex(q, z, w):
    if z.frozen:
        raise InvalidInputError(f"{z} is frozen; derived-category vertices are non-frozen")
    if not is_dynkin(q).is_dynkin:
        raise InvalidInputError("nu is only defined for Dynkin quivers")
    if not w.contains(z):
        raise WindowInsufficiencyError(f"{z} outside window")
    if z.level >= w.hi:
        raise WindowInsufficiencyError(f"inverse nu search needs a level above {z} inside the window")
    ctx = MeshContext(q, "kZQ")
    verts = ctx.vertices_in(w)
    if any(hom_dim(ctx, y, z, w) for y in verts if y.level == w.lo):
        raise WindowInsufficiencyError(f"incoming Hom support of {z} reaches the window bottom {w.lo}")
    inc = {y: hom_dim(ctx, y, z, w) for y in verts}
    candidates = [x for x in verts if all(hom_dim(ctx, x, y, w) == inc[y] for y in verts)]
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise WindowInsufficiencyError(f"no inverse nu candidate for {z} in window {w.to_json()}")
    raise InternalConsistencyError(f"multiple inverse nu candidates for {z}: {candidates}")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InvalidInputError, WindowInsufficiencyError, InternalConsistencyError) as exc:
        return type(exc).__name__, str(exc)


# (quiver, window, answers found among the nu and inverse nu calls; the rest are errors)
SERRE_CASES = [(A2, 0, 6, 18), (a_n_quiver(3), 0, 8, 36), (d4_quiver(), 0, 5, 16), (A2, 2, 3, 0)]


@pytest.mark.parametrize("q, lo, hi, found", SERRE_CASES, ids=["A2", "A3", "D4", "A2-narrow"])
def test_serre_table_matches_the_per_vertex_search(q, lo, hi, found):
    w = Window(lo, hi)
    verts = [RepVertex(n, p) for p in range(lo - 1, hi + 2) for n in q.vertices]
    verts += [RepVertex("7", lo + 1), RepVertex(q.vertices[0], lo + 1, True)]  # no such node; frozen
    for order in (verts, verts[::-1]):  # the table is swept bottom-up and on demand from the top
        mesh_hom.clear_cache()
        got = [(_outcome(nu_vertex, q, x, w), _outcome(nu_inv_vertex, q, x, w)) for x in order]
        want = [(_outcome(_twin_nu_vertex, q, x, w), _outcome(_twin_nu_inv_vertex, q, x, w)) for x in order]
        assert got == want
    assert sum(isinstance(o, RepVertex) for pair in got for o in pair) == found


def test_serre_table_rejects_non_dynkin_quivers():
    k2 = kronecker_quiver(2)
    x = RepVertex("1", 2)
    for fn in (nu_vertex, nu_inv_vertex):
        assert _outcome(fn, k2, x, Window(0, 5)) == _outcome(
            {nu_vertex: _twin_nu_vertex, nu_inv_vertex: _twin_nu_inv_vertex}[fn], k2, x, Window(0, 5))


def test_hom_dq_dispatch_consistency():
    # p = 0, 1 dispatches agree with iterated Sigma shifts in the Dynkin case
    w = Window(0, 8)
    ctx = MeshContext(A2, "kZQ")
    pairs = [(RepVertex(a, i), RepVertex(b, j))
             for a in A2.vertices for b in A2.vertices for i in (2, 3) for j in (2, 3)]
    for x, y in pairs:
        for p in (0, 1, 2, 3):
            direct = hom_dq(A2, x, p, y, w)
            shifted = hom_dim(ctx, x, iterate_shift(A2, y, p, w), w)
            assert direct == shifted, (x, p, y)


def test_hom_dq_identity_and_vanishing():
    w = Window(0, 6)
    x = parse_vertex("1@2")
    assert hom_dq(A2, x, 0, x, w) == 1
    kr = kronecker_quiver(2)
    verts = [RepVertex(n, p) for n in kr.vertices for p in (1, 2)]
    for x in verts:
        for y in verts:
            assert hom_dq(kr, x, 2, y, w) == 0
            assert hom_dq(kr, x, -1, y, w) == 0


def test_d4_double_arrow_dimension():
    d4 = d4_quiver()
    w = Window(0, 4)
    x = RepVertex("0", 1)
    assert hom_dq(d4, x, 0, RepVertex("0", 2), w) == 2


def test_cartan_zero_and_ar_vector():
    assert cartan_apply(A2, {}) == {}
    u = parse_vertex("1@1")
    vec = ar_relation_vector(A2, u)
    expected = {u: 1, parse_vertex("2@1"): -1, parse_vertex("1@2"): 1}
    assert vec == expected
    # inverse identity
    assert cartan_solve(A2, vec, Window(0, 4)) == {u: 1}


def test_cartan_apply_matches_dense_matrix():
    rng = random.Random(1)
    w = Window(0, 3)
    verts = [RepVertex(n, p) for n in A2.vertices for p in w.levels()]
    index = {v: i for i, v in enumerate(verts)}
    big = [RepVertex(n, p) for n in A2.vertices for p in range(0, 5)]
    bindex = {v: i for i, v in enumerate(big)}
    mat = [[0] * len(verts) for _ in range(len(big))]
    # dense matrix of C_q: column at v gives C_q(e_v)
    for v in verts:
        col = cartan_apply(A2, {v: 1})
        for x, val in col.items():
            if x in bindex:
                mat[bindex[x]][index[v]] += val
    for _ in range(10):
        vec = {v: rng.randint(-3, 3) for v in verts}
        direct = cartan_apply(A2, vec)
        dense = [sum(mat[i][index[v]] * vec[v] for v in verts) for i in range(len(big))]
        for x, i in bindex.items():
            assert direct.get(x, 0) == dense[i], x


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.tuples(st.sampled_from(["1", "2"]), st.integers(0, 2)),
    st.integers(min_value=-3, max_value=3), max_size=5))
def test_cartan_solve_inverts_apply(raw):
    v = {RepVertex(n, p): val for (n, p), val in raw.items() if val}
    m = cartan_apply(A2, v)
    assert cartan_solve(A2, m, Window(0, 6)) == v


def test_cartan_solve_window_insufficiency():
    # a bare unit vector has no finitely supported preimage inside a short window
    m = {parse_vertex("1@0"): 1}
    with pytest.raises(WindowInsufficiencyError):
        cartan_solve(A2, m, Window(0, 2))


def test_cartan_solve_bare_unit_vector_is_rejected():
    # the forward substitution for a bare unit vector on A2 cycles with
    # period three and never dies, so no window is ever sufficient; the
    # dense tail is cross-checked explicitly
    m = {parse_vertex("1@0"): 1}
    for hi in (6, 9):
        with pytest.raises(WindowInsufficiencyError):
            cartan_solve(A2, m, Window(0, hi))
    d = {parse_vertex("1@0"): 1, parse_vertex("2@0"): 1,
         parse_vertex("2@1"): -1, parse_vertex("1@2"): -1}
    residual = cartan_apply(A2, d)
    support = {parse_vertex("1@0"), parse_vertex("2@0"), parse_vertex("2@1"), parse_vertex("1@2")}
    assert residual[parse_vertex("1@0")] == 1
    assert all(x.level >= 3 or x in support or v == 0 for x, v in residual.items())


def test_in_neighbours_multiplicity():
    kr = kronecker_quiver(2)
    ys = zq_in_neighbours(kr, RepVertex("2", 1))
    assert sorted(v.key() for v in ys) == ["1@1", "1@1"]
