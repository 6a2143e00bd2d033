import errno
import json
import os
import random

import pytest

from stratakit import mesh_hom
from stratakit.errors import InvalidInputError
from stratakit.mesh_hom import (
    MeshContext,
    arrow_morphism,
    clear_cache,
    compose,
    enable_disk_cache,
    enumerate_paths,
    hom_basis,
    hom_dim,
    hom_dim_oracle,
    identity_morphism,
    sweep,
    sweep_matches_oracle,
)
from stratakit.exact_linalg import QQ
from stratakit.quiver_core import (
    Configuration,
    RepVertex,
    Window,
    a_n_quiver,
    d4_quiver,
    kronecker_quiver,
    parse_vertex,
)

A2 = a_n_quiver(2)
W6 = Window(0, 5)
KZ = MeshContext(A2, "kZQ")
RC = MeshContext(A2, "RC")


def test_identity_dimension():
    for key in ["1@0", "2@3", "1@5"]:
        assert hom_dim(KZ, parse_vertex(key), parse_vertex(key), W6) == 1


def test_a2_consecutive_arrows_vanish():
    # dim Hom((1,0),(1,1)) = 0: the composite of two consecutive arrows dies
    assert hom_dim(KZ, parse_vertex("1@0"), parse_vertex("1@1"), W6) == 0
    f = arrow_morphism(KZ, next(iter(KZ.in_arrows(parse_vertex("2@0"), W6))), W6)
    g = arrow_morphism(KZ, KZ.in_arrows(parse_vertex("1@1"), W6)[0], W6)
    assert compose(KZ, f, g, W6).is_zero()


def test_a2_basic_dims():
    assert hom_dim(KZ, parse_vertex("1@0"), parse_vertex("2@0"), W6) == 1
    assert hom_dim(KZ, parse_vertex("2@0"), parse_vertex("1@1"), W6) == 1
    assert hom_dim(KZ, parse_vertex("2@0"), parse_vertex("2@1"), W6) == 0
    assert hom_dim(KZ, parse_vertex("2@1"), parse_vertex("1@0"), W6) == 0


def test_identity_neutral_for_composition():
    x, y = parse_vertex("1@1"), parse_vertex("2@1")
    idx = identity_morphism(KZ, x, W6)
    f = hom_basis(KZ, x, y, W6).basis_elements()[0]
    assert compose(KZ, idx, f, W6) == f
    idy = identity_morphism(KZ, y, W6)
    assert compose(KZ, f, idy, W6) == f


def test_sc_equals_rc_on_frozen_pairs():
    sc = MeshContext(A2, "SC")
    u, v = parse_vertex("1'@0"), parse_vertex("2'@1")
    assert hom_dim(sc, u, v, W6) == hom_dim(RC, u, v, W6)
    with pytest.raises(InvalidInputError):
        hom_basis(sc, parse_vertex("1@0"), v, W6)


def test_rc_dim_against_oracle_example():
    u, v = parse_vertex("1'@0"), parse_vertex("2'@1")
    assert hom_dim(RC, u, v, W6) == hom_dim_oracle(RC, u, v, W6) == 1


def test_associativity_against_path_oracle():
    # random triples composed two ways, plus against raw path concatenation
    rng = random.Random(5)
    ctx = RC
    verts = ctx.vertices_in(Window(0, 3))
    count = 0
    for _ in range(600):
        x, y, z, t = (rng.choice(verts) for _ in range(4))
        if not (x.level <= y.level <= z.level <= t.level):
            continue
        bxy = hom_basis(ctx, x, y, Window(0, 3))
        byz = hom_basis(ctx, y, z, Window(0, 3))
        bzt = hom_basis(ctx, z, t, Window(0, 3))
        if 0 in (bxy.dim, byz.dim, bzt.dim):
            continue
        f = bxy.basis_elements()[rng.randrange(bxy.dim)]
        g = byz.basis_elements()[rng.randrange(byz.dim)]
        h = bzt.basis_elements()[rng.randrange(bzt.dim)]
        lhs = compose(ctx, compose(ctx, f, g, Window(0, 3)), h, Window(0, 3))
        rhs = compose(ctx, f, compose(ctx, g, h, Window(0, 3)), Window(0, 3))
        assert lhs == rhs
        count += 1
    assert count >= 20


def test_basis_paths_concatenate_consistently():
    # reducing the concatenation of two basis paths equals composing the elements
    ctx = KZ
    w = Window(0, 3)
    x, y, z = parse_vertex("1@0"), parse_vertex("2@0"), parse_vertex("1@1")
    bxy = hom_basis(ctx, x, y, w)
    byz = hom_basis(ctx, y, z, w)
    f, g = bxy.basis_elements()[0], byz.basis_elements()[0]
    via_compose = compose(ctx, f, g, w)
    path = tuple(bxy.basis[0]) + tuple(byz.basis[0])
    via_reduce = hom_basis(ctx, x, z, w).reduce_path(path)
    assert via_compose == via_reduce


def test_sweep_vs_oracle_small_windows():
    for q, flavor, w in [(A2, "kZQ", Window(0, 3)), (A2, "RC", Window(0, 3)),
                         (kronecker_quiver(2), "RC", Window(0, 2))]:
        ctx = MeshContext(q, flavor)
        verts = ctx.vertices_in(w)
        for x in verts:
            for y in verts:
                if y.level < x.level:
                    continue
                assert sweep_matches_oracle(ctx, x, y, w), (flavor, x, y)


def test_pointwise_finiteness_row_sums():
    # total Hom dimension out of any vertex over a window is finite and,
    # for Dynkin quivers, stabilizes level by level (here: vanishes above)
    fun = sweep(KZ, parse_vertex("1@0"), W6)
    total = sum(fun.dims.values())
    assert 0 < total <= 3
    assert all(fun.dim(RepVertex(n, 4)) == 0 for n in A2.vertices)


def test_mesh_exactness_relator_composite_is_zero():
    # postcomposition around the mesh vanishes: Hom(u,tau x) -> (+)Hom(u,y) -> Hom(u,x)
    ctx = RC
    w = Window(0, 4)
    u = parse_vertex("1@0")
    fun = sweep(ctx, u, w)
    from stratakit.quiver_core import sigma_arrow, tau

    for x in ctx.vertices_in(w):
        if x.frozen or not w.contains(tau(x)) or fun.dim(tau(x)) == 0:
            continue
        dt = fun.dim(tau(x))
        for k in range(dt):
            vec = [QQ.zero] * dt
            vec[k] = QQ.one
            acc = [QQ.zero] * fun.dim(x)
            for b in ctx.in_arrows(x, w):
                sb = sigma_arrow(ctx.q, b)
                mid = fun.apply_arrow(sb, vec)
                out = fun.apply_arrow(b, mid)
                acc = [a + o for a, o in zip(acc, out)]
            assert all(a == 0 for a in acc)


def test_cache_determinism_and_disk_round_trip(tmp_path):
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        f1 = sweep(KZ, parse_vertex("1@0"), Window(0, 2))
        dims1 = dict(f1.dims)
        mats1 = {a.key(): m for a, m in f1.mats.items()}
        clear_cache()
        f2 = sweep(KZ, parse_vertex("1@0"), Window(0, 2))  # now loaded from disk
        assert dict(f2.dims) == dims1
        assert {a.key(): m for a, m in f2.mats.items()} == mats1
        assert list(tmp_path.glob("hom-*.json"))
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_configured_flavor_changes_dims():
    # killing the node-2 frozen line makes the composite through (2,p) die again
    c = Configuration([parse_vertex("1@%d" % p) for p in range(0, 6)])
    rc_c = MeshContext(A2, "RC", c)
    x, y = parse_vertex("1@0"), parse_vertex("2@1")
    full = hom_dim(RC, x, y, W6)
    small = hom_dim(rc_c, x, y, W6)
    assert full != small
    assert small == hom_dim_oracle(rc_c, x, y, W6)
    assert full == hom_dim_oracle(RC, x, y, W6)


def test_enumerate_paths_counts():
    d4 = d4_quiver()
    ctx = MeshContext(d4, "kZQ")
    w = Window(0, 2)
    c0, c2 = RepVertex("0", 0), RepVertex("0", 2)
    paths = enumerate_paths(ctx, c0, c2, w)
    assert len(paths) == 9  # three rim choices at each of the two meshes


def test_cache_key_shared_by_sc_and_rc_and_distinct_per_configuration():
    periodic = Configuration([parse_vertex("1@0")], period=2)
    assert MeshContext(A2, "SC", periodic).cache_key() == MeshContext(A2, "RC", periodic).cache_key()
    assert MeshContext(A2, "SC").cache_key() == RC.cache_key()
    contexts = [KZ, RC, MeshContext(A2, "RC", Configuration([parse_vertex("1@0")])), MeshContext(A2, "RC", periodic),
                MeshContext(A2, "RC", Configuration([parse_vertex("1@0")], period=3)),
                MeshContext(a_n_quiver(3), "RC")]
    assert len({ctx.cache_key() for ctx in contexts}) == len(contexts)
    assert RC.cache_key() == json.dumps(A2.to_json(), sort_keys=True) + "|RC|ALL"
    assert KZ.cache_key() == json.dumps(A2.to_json(), sort_keys=True) + "|kZQ|-"


def test_second_sweep_returns_cached_functor():
    clear_cache()
    try:
        first = sweep(RC, parse_vertex("1'@0"), W6)
        assert sweep(RC, parse_vertex("1'@0"), W6) is first
        assert sweep(MeshContext(a_n_quiver(2), "SC"), parse_vertex("1'@0"), W6) is first
    finally:
        clear_cache()


def test_disk_file_name_keeps_its_key_format(tmp_path):
    # The file name hashes repr((quiver JSON|flavor|configuration, lo, hi, source, field)).
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        ctx = MeshContext(A2, "SC", Configuration([parse_vertex("1@0")], period=2))
        source = parse_vertex("1'@0")
        sweep(ctx, source, Window(0, 3))
        key = ('{"arrows": [{"id": "a1", "source": "1", "target": "2"}], "vertices": ["1", "2"]}|RC|1@0;period=2',
               0, 3, source, "QQ")
        expected = tmp_path / "hom-71bf09e706699cc15efa4ce8c2bb7fbd.json"
        assert mesh_hom._disk_path(key) == str(expected)
        assert list(tmp_path.glob("hom-*.json")) == [expected]
        assert json.loads(expected.read_text())["key"] == repr(key)
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_unknown_node_is_not_an_object():
    with pytest.raises(InvalidInputError):
        hom_basis(KZ, parse_vertex("7@0"), parse_vertex("7@1"), W6)
    with pytest.raises(InvalidInputError):
        sweep(RC, parse_vertex("7'@0"), W6)


@pytest.mark.parametrize("damage", ["wrong-shape", "truncated", "short-matrix", "not-an-object"])
def test_malformed_disk_file_is_a_miss(tmp_path, damage):
    # A file with the right version and key but broken content is recomputed, not trusted.
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        source, w = parse_vertex("1@0"), Window(0, 3)
        good = sweep(KZ, source, w)
        dims, mats = dict(good.dims), {a.key(): m for a, m in good.mats.items()}
        (path,) = tmp_path.glob("hom-*.json")
        text = path.read_text()
        data = json.loads(text)
        if damage == "wrong-shape":
            data["dims"] = []
            text = json.dumps(data)
        elif damage == "truncated":
            text = text[:len(text) // 2]
        elif damage == "short-matrix":
            arrow = next(k for k, m in data["mats"].items() if m and m[0])
            data["mats"][arrow] = [row[:-1] for row in data["mats"][arrow]]
            text = json.dumps(data)
        else:
            text = json.dumps([data])
        path.write_text(text)
        clear_cache()
        again = sweep(KZ, source, w)
        assert again is not good
        assert dict(again.dims) == dims
        assert {a.key(): m for a, m in again.mats.items()} == mats
    finally:
        enable_disk_cache(None)
        clear_cache()


# ---------------------------------------------------------------------------
# The reduce_path memo and the atomic disk writes.
# ---------------------------------------------------------------------------

def _extended_basis_paths(ctx, w):
    """(source, path) for every basis path of every sweep, extended by each out-arrow."""
    out = []
    for x in ctx.vertices_in(w):
        fun = sweep(ctx, x, w)
        for y in ctx.vertices_in(w):
            for p in fun.basis_paths(y):
                for a in ctx.out_arrows(y, w):
                    out.append((x, p + (a,)))
    return out


@pytest.mark.parametrize("quiver,window", [(A2, Window(0, 4)), (kronecker_quiver(), Window(0, 3))],
                         ids=["A2", "Kronecker"])
def test_reduce_path_memo_matches_a_fresh_walk(quiver, window, monkeypatch):
    ctx = MeshContext(quiver, "RC")
    clear_cache()
    try:
        cases = _extended_basis_paths(ctx, window)
        assert len(cases) > 50
        for x, path in cases:
            sweep(ctx, x, window).reduce_path(path)
        walks = []
        real_walk = mesh_hom.HomFunctor._walk
        monkeypatch.setattr(mesh_hom.HomFunctor, "_walk", lambda self, p: walks.append(p) or real_walk(self, p))
        memo = [sweep(ctx, x, window).reduce_path(path) for x, path in cases]
        assert walks == []  # every answer came from the memo
        clear_cache()
        fresh = [sweep(ctx, x, window).reduce_path(path) for x, path in cases]
        assert len(walks) == len({(x, path) for x, path in cases})
        assert memo == fresh
    finally:
        clear_cache()


def test_reduce_path_returns_a_fresh_list():
    clear_cache()
    try:
        x, w = parse_vertex("1@0"), Window(0, 3)
        fun = sweep(RC, x, w)
        path = fun.basis_paths(parse_vertex("2@0"))[0]
        first = fun.reduce_path(path)
        expected = list(first)
        first[0] += 7
        first.append(QQ.one)
        assert fun.reduce_path(path) == expected
        assert fun.reduce_path(list(path)) == expected
    finally:
        clear_cache()


def test_reduce_path_from_the_wrong_vertex_raises_every_time():
    clear_cache()
    try:
        w = Window(0, 3)
        fun = sweep(RC, parse_vertex("1@0"), w)
        stray = RC.out_arrows(parse_vertex("2@1"), w)[0]
        for _ in range(2):
            with pytest.raises(InvalidInputError):
                fun.reduce_path((stray,))
    finally:
        clear_cache()


def _broken_dump(exc):
    def dump(obj, fh):
        fh.write(json.dumps(obj)[:40])  # part of the file is out when the write fails
        raise exc
    return dump


@pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"), RuntimeError("interrupted")],
                         ids=["disk-full", "other-error"])
def test_failed_disk_write_leaves_no_file_and_is_recomputed(tmp_path, monkeypatch, exc):
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        source, w = parse_vertex("1@0"), Window(0, 3)
        monkeypatch.setattr(json, "dump", _broken_dump(exc))
        if isinstance(exc, OSError):
            first = sweep(KZ, source, w)  # the sweep itself still succeeds
        else:
            with pytest.raises(RuntimeError):
                sweep(KZ, source, w)
            first = mesh_hom._sweep(KZ, source, w, QQ)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        clear_cache()
        computed = []
        real_sweep = mesh_hom._sweep
        monkeypatch.setattr(mesh_hom, "_sweep", lambda *a: computed.append(a) or real_sweep(*a))
        again = sweep(KZ, source, w)
        assert len(computed) == 1
        assert dict(again.dims) == dict(first.dims)
        assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(mesh_hom._disk_path(
            (KZ.cache_key(), w.lo, w.hi, source, "QQ")))]
    finally:
        enable_disk_cache(None)
        clear_cache()
