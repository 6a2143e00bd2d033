import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from stratakit import mesh_hom
from stratakit.errors import InvalidInputError
from stratakit.mesh_hom import (
    MeshContext,
    Morphism,
    clear_cache,
    compose,
    enable_disk_cache,
    enumerate_paths,
    hom_basis,
    hom_dim,
    hom_dim_oracle,
    postcomposition_matrix,
    precomposition_matrix,
    sweep,
    sweep_matches_oracle,
)
from stratakit.exact_linalg import QQ, PrimeField
from stratakit.quiver_core import (
    Configuration,
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
W6 = Window(0, 5)
KZ = MeshContext(A2, "kZQ")
RC = MeshContext(A2, "RC")


def basis_elements(hb) -> list:
    """The basis of a HomBasis as morphisms, one unit coordinate vector each."""
    field = hb.functor.field
    return [Morphism(hb.source, hb.target, tuple(field.one if j == i else field.zero for j in range(hb.dim)))
            for i in range(hb.dim)]


def identity_morphism(ctx, x, w) -> Morphism:
    return hom_basis(ctx, x, x, w).reduce_path(())


def arrow_morphism(ctx, arrow, w) -> Morphism:
    return hom_basis(ctx, arrow.source, arrow.target, w).reduce_path((arrow,))


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
    f = basis_elements(hom_basis(KZ, x, y, W6))[0]
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
        f = basis_elements(bxy)[rng.randrange(bxy.dim)]
        g = basis_elements(byz)[rng.randrange(byz.dim)]
        h = basis_elements(bzt)[rng.randrange(bzt.dim)]
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
    f, g = basis_elements(bxy)[0], basis_elements(byz)[0]
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
        assert list(tmp_path.glob("hom-*.log"))
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_disk_record_stored_loaded_and_stored_again_is_identical(tmp_path):
    """A loaded sweep writes the bytes it was read from, and its integral entries load as ints."""
    ctx, x, w = MeshContext(d4_quiver(), "RC"), parse_vertex("1'@0"), Window(0, 3)
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        computed = sweep(ctx, x, w)
        (path,) = tmp_path.glob("hom-*.log")
        first = path.read_bytes()
        clear_cache()
        loaded = sweep(ctx, x, w)  # read back from the log
        assert loaded is not computed and loaded.mats == computed.mats
        entries = [e for m in loaded.mats.values() for col in m for e in col.values()]
        assert entries and all(type(e) is int for e in entries)
        path.unlink()
        mesh_hom._disk_store(loaded, (ctx.cache_key(), w.lo, w.hi, x, "QQ"))
        assert path.read_bytes() == first
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_oracle_ranks_fraction_rows_only(monkeypatch):
    """The path oracle never runs the int arithmetic the sweeps run on: every row it hands
    to reference_rref holds Fractions only."""
    seen = []
    real = mesh_hom.reference_rref

    def capturing(rows, ncols, field):
        seen.extend(rows)
        return real(rows, ncols, field)

    monkeypatch.setattr(mesh_hom, "reference_rref", capturing)
    w = Window(0, 3)
    verts = RC.vertices_in(w)
    for x in verts:
        for y in verts:
            if y.level >= x.level:
                assert hom_dim_oracle(RC, x, y, w) == hom_dim(RC, x, y, w)
                assert sweep_matches_oracle(RC, x, y, w)
    assert seen and all(type(e) is Fraction for row in seen for e in row)


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
    # The log name hashes repr((quiver JSON|flavor|configuration, lo, hi, field)); each
    # line is the source key, a tab and [version, repr(sweep key), kept, mats].
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        ctx = MeshContext(A2, "SC", Configuration([parse_vertex("1@0")], period=2))
        source = parse_vertex("1'@0")
        sweep(ctx, source, Window(0, 3))
        key = ('{"arrows": [{"id": "a1", "source": "1", "target": "2"}], "vertices": ["1", "2"]}|RC|1@0;period=2',
               0, 3, source, "QQ")
        expected = tmp_path / "hom-6dba989130f198d710d277f511faa794.log"
        assert mesh_hom._disk_path(key) == str(expected)
        assert mesh_hom._disk_path(key[:3] + (parse_vertex("2@1"), "QQ")) == str(expected)
        assert list(tmp_path.glob("hom-*")) == [expected]
        assert expected.read_bytes().startswith(b"\n1'@0\t[3,")
        ((prefix, record),) = _records(expected)
        assert prefix == b"1'@0" and record[:2] == [3, repr(key)]
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_importing_the_package_loads_no_openssl_digest():
    # The log name's sha256 comes from a builtin module when one exists, so
    # importing the package does not load hashlib's OpenSSL backend.
    script = ("import importlib.util, sys; import stratakit; "
              "builtin = any(importlib.util.find_spec(m) for m in ('_sha256', '_sha2')); "
              "print(builtin, '_hashlib' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    builtin, loaded = proc.stdout.split()
    assert builtin == "False" or loaded == "False"
    assert mesh_hom.sha256(b"log").hexdigest() == hashlib.sha256(b"log").hexdigest()


def test_unknown_node_is_not_an_object():
    with pytest.raises(InvalidInputError):
        hom_basis(KZ, parse_vertex("7@0"), parse_vertex("7@1"), W6)
    with pytest.raises(InvalidInputError):
        sweep(RC, parse_vertex("7'@0"), W6)


def _records(path):
    """(prefix, parsed JSON) for every line of a sweep log."""
    return [(line.split(b"\t")[0], json.loads(line.split(b"\t")[1]))
            for line in path.read_bytes().split(b"\n") if line]


def _record_line(prefix, record):
    return b"\n" + prefix + b"\t" + json.dumps(record, separators=(",", ":")).encode() + b"\n"


def _counting_sweep(monkeypatch):
    computed = []
    real_sweep = mesh_hom._sweep
    monkeypatch.setattr(mesh_hom, "_sweep", lambda *a: computed.append(a[1]) or real_sweep(*a))
    return computed


def _dense(fun, a):
    """The matrix of the arrow a in fun as rows: zero where a column holds no entry."""
    cols = fun.mats.get(a, ())
    return [[col.get(r, QQ.zero) for col in cols] for r in range(fun.dim(a.target))]


def _same_sweep(fun, other):
    """Equal dims, paths and matrices, each dict with the same key order."""
    return all(list(a.items()) == list(b.items())
               for a, b in ((fun.dims, other.dims), (fun.paths, other.paths), (fun.mats, other.mats)))


def _damage(data, damage):
    """A version-3 record [version, key, kept, mats] with one fault."""
    kept, mats = data[2], data[3]
    ks = next(ks for ks in kept if len(ks) > 1)
    col = next(col for m in mats for col in m if col)
    if damage == "wrong-shape":
        del kept[-1]  # one vertex short
    elif damage == "short-matrix":
        next(m for m in mats if m).pop()  # one column short
    elif damage == "missing-matrix":
        mats.pop()  # an arrow would act by zero
    elif damage == "extra-matrix":
        mats.append([])
    elif damage == "kept-out-of-range":
        ks[-1] = 10 ** 6
    elif damage == "kept-not-increasing":
        ks[0], ks[1] = ks[1], ks[0]
    elif damage == "kept-repeated":
        ks[1] = ks[0]
    elif damage == "kept-negative":
        ks[0] = -1
    elif damage == "row-outside":
        col[0] = 10 ** 6
    elif damage == "row-negative":
        col[0] = -1
    elif damage == "row-repeated":
        col.extend(col[:2])
    elif damage == "stored-zero":
        col[1] = 0
    elif damage == "integral-fraction":
        col[1] = f"{2 * col[1]}/2"
    elif damage == "odd-column":
        col.pop()
    elif damage == "not-an-object":
        return {"record": data}
    return data


@pytest.mark.parametrize("damage", ["wrong-shape", "truncated", "short-matrix", "not-an-object", "missing-matrix",
                                    "extra-matrix", "kept-out-of-range", "kept-not-increasing", "kept-repeated",
                                    "kept-negative", "row-outside", "row-negative", "row-repeated", "stored-zero",
                                    "integral-fraction", "odd-column"])
def test_malformed_disk_file_is_a_miss(tmp_path, monkeypatch, damage):
    # A record with the right version and key but broken content is recomputed, not trusted.
    ctx, source, w = MeshContext(kronecker_quiver(), "kZQ"), parse_vertex("1@0"), Window(0, 3)
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        good = sweep(ctx, source, w)
        (path,) = tmp_path.glob("hom-*.log")
        ((prefix, data),) = _records(path)
        text = _record_line(prefix, _damage(data, damage))
        if damage == "truncated":
            text = text[:len(text) // 2]
        path.write_bytes(text)
        clear_cache()
        computed = _counting_sweep(monkeypatch)
        again = sweep(ctx, source, w)
        assert again is not good and computed == [source]
        assert _same_sweep(again, good)
    finally:
        enable_disk_cache(None)
        clear_cache()


# ---------------------------------------------------------------------------
# The two composition routines against a walk of the concatenated path.
# ---------------------------------------------------------------------------

def _walker(fun):
    """Coordinates of paths from fun.source, one arrow matrix at a time; each prefix is walked once."""
    memo = {(): [fun.field.one]}

    def walk(path):
        vec = memo.get(path)
        if vec is None:
            assert path[-1].source == (path[-2].target if len(path) > 1 else fun.source)
            vec = memo[path] = fun.apply_arrow(path[-1], walk(path[:-1]))
        return vec
    return walk


def _walked_matrix(walk, rows, paths):
    cols = [walk(p) for p in paths]
    return [[c[i] for c in cols] for i in range(rows)]


def _composable(ctx, w, x):
    """(path, end) for every basis path out of x and every single arrow out of x."""
    fun = sweep(ctx, x, w)
    out = [(p, y) for y in ctx.vertices_in(w) for p in fun.basis_paths(y)]
    return out + [((a,), a.target) for a in ctx.out_arrows(x, w)]


on_twin_cases = pytest.mark.parametrize(
    "quiver,flavor,window",
    [(A2, "RC", Window(0, 4)), (a_n_quiver(3), "kZQ", Window(0, 3)),
     (d4_quiver(), "RC", Window(0, 3)), (kronecker_quiver(), "RC", Window(0, 3))],
    ids=["A2-RC", "A3-kZQ", "D4-RC", "Kronecker-RC"])


@on_twin_cases
def test_composition_matrices_equal_a_walk_of_the_concatenated_path(quiver, flavor, window):
    ctx = MeshContext(quiver, flavor)
    verts = ctx.vertices_in(window)
    clear_cache()
    try:
        count = 0
        for u in verts:
            fun_u = sweep(ctx, u, window)
            walk = _walker(fun_u)
            for s, v in _composable(ctx, window, u):
                for m in verts:
                    if m.level < v.level:
                        continue
                    paths = [s + p for p in sweep(ctx, v, window).basis_paths(m)]
                    assert precomposition_matrix(ctx, s, u, v, m, window) == _walked_matrix(walk, fun_u.dim(m), paths)
                    count += 1
            for y in verts:
                if y.level < u.level:
                    continue
                for p, z in _composable(ctx, window, y):
                    paths = [q + p for q in fun_u.basis_paths(y)]
                    assert postcomposition_matrix(ctx, u, p, y, window) == _walked_matrix(walk, fun_u.dim(z), paths)
                    count += 1
        assert count > 500
    finally:
        clear_cache()


@on_twin_cases
def test_postcomposition_by_one_arrow_is_the_sweep_arrow_matrix(quiver, flavor, window):
    ctx = MeshContext(quiver, flavor)
    verts = ctx.vertices_in(window)
    clear_cache()
    try:
        for u in verts:
            fun = sweep(ctx, u, window)
            for y in verts:
                for a in ctx.out_arrows(y, window):
                    assert postcomposition_matrix(ctx, u, (a,), y, window) == _dense(fun, a)
    finally:
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


def _count_arrow_applications(monkeypatch):
    applied = []
    real_apply = mesh_hom.HomFunctor.apply_arrow
    monkeypatch.setattr(mesh_hom.HomFunctor, "apply_arrow",
                        lambda self, arrow, vec: applied.append(arrow) or real_apply(self, arrow, vec))
    return applied


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
        applied = _count_arrow_applications(monkeypatch)
        memo = [sweep(ctx, x, window).reduce_path(path) for x, path in cases]
        assert applied == []  # every answer came from the memo
        monkeypatch.undo()
        clear_cache()
        walkers = {}
        fresh = [walkers.setdefault(x, _walker(sweep(ctx, x, window)))(path) for x, path in cases]
        assert memo == fresh
        # a path whose prefix is memoized costs exactly one arrow application
        clear_cache()
        applied = _count_arrow_applications(monkeypatch)
        for x, path in cases:
            fun = sweep(ctx, x, window)
            fun.reduce_path(path[:-1])
            del applied[:]
            assert fun.reduce_path(path) == walkers[x](path)
            assert applied == [path[-1]]
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
        # a walk that goes wrong after a valid prefix: the prefix is memoized, the walk is not
        prefix = fun.basis_paths(parse_vertex("2@0"))[0]
        assert prefix and prefix[-1].target != stray.source
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="does not start where expected"):
                fun.reduce_path(prefix + (stray,))
        assert prefix in fun._reduced and prefix + (stray,) not in fun._reduced
    finally:
        clear_cache()


def _broken_write(exc):
    real_write = os.write

    def write(fd, data):
        real_write(fd, data[:40])  # part of the record is out when the write fails
        raise exc
    return write


@pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"), RuntimeError("interrupted")],
                         ids=["disk-full", "other-error"])
def test_failed_or_partial_append_is_a_miss_and_is_recomputed(tmp_path, monkeypatch, exc):
    # A disk-full append leaves a torn record, swallowed; any other error propagates.
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        source, w = parse_vertex("1@0"), Window(0, 3)
        monkeypatch.setattr(os, "write", _broken_write(exc))
        if isinstance(exc, OSError):
            first = sweep(KZ, source, w)  # the sweep itself still succeeds
        else:
            with pytest.raises(RuntimeError):
                sweep(KZ, source, w)
            first = mesh_hom._sweep(KZ, source, w, QQ)
        (path,) = tmp_path.iterdir()
        assert path.name == os.path.basename(mesh_hom._disk_path((KZ.cache_key(), w.lo, w.hi, source, "QQ")))
        torn = path.read_bytes()
        assert len(torn) == 40 and torn.startswith(b"\n1@0\t[3,") and not torn.endswith(b"\n")
        monkeypatch.undo()
        clear_cache()
        computed = _counting_sweep(monkeypatch)
        again = sweep(KZ, source, w)
        assert computed == [source]
        assert _same_sweep(again, first)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        clear_cache()
        assert _same_sweep(sweep(KZ, source, w), first) and computed == [source]  # the next append loads
    finally:
        enable_disk_cache(None)
        clear_cache()


# ---------------------------------------------------------------------------
# The append-only sweep logs: concurrent writers, torn and duplicate records,
# records appended by other processes.
# ---------------------------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Run as `python -c LOG_SCRIPT write|read DIR`: write appends every A2 RC [0,4]
# sweep three times after one line on stdin; read loads every sweep and compares
# it with a fresh _sweep.
LOG_SCRIPT = """
import json, sys
from stratakit import mesh_hom
from stratakit.exact_linalg import QQ, PrimeField
from stratakit.mesh_hom import MeshContext
from stratakit.quiver_core import Window, a_n_quiver
ctx, w = MeshContext(a_n_quiver(2), "RC"), Window(0, 4)
sources = [s for s in ctx.vertices_in(w) if len(sys.argv) < 4 or s.key() in sys.argv[3:]]
mesh_hom.enable_disk_cache(sys.argv[2])
real = mesh_hom._sweep
if sys.argv[1] == "write":
    print("ready", flush=True)
    sys.stdin.readline()
    for _ in range(3):
        for s in sources:
            mesh_hom._disk_store(real(ctx, s, w, QQ), (ctx.cache_key(), w.lo, w.hi, s, "QQ"))
else:
    computed = []
    mesh_hom._sweep = lambda *a: computed.append(a) or real(*a)
    same = [(f.dims, f.paths, f.mats) == (g.dims, g.paths, g.mats)
            for f, g in ((mesh_hom.sweep(ctx, s, w), real(ctx, s, w, QQ)) for s in sources)]
    print(json.dumps({"computed": len(computed), "same": sum(same), "sources": len(sources)}))
"""
RC4 = Window(0, 4)


def _log_process(mode, directory, *sources, **kw):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("STRATAKIT_CACHE_DIR", None)
    return subprocess.Popen([sys.executable, "-c", LOG_SCRIPT, mode, str(directory), *sources], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, **kw)


def test_concurrent_appends_all_load_in_a_fresh_process(tmp_path):
    writers = [_log_process("write", tmp_path) for _ in range(4)]
    try:
        assert [p.stdout.readline() for p in writers] == ["ready\n"] * 4
        for p in writers:  # release all four at once
            p.stdin.write("go\n")
            p.stdin.close()
        assert [p.wait(timeout=120) for p in writers] == [0] * 4
    finally:
        for p in writers:
            p.kill()
            p.stdout.close()
    (path,) = tmp_path.iterdir()
    sources = RC.vertices_in(RC4)
    records = _records(path)  # every line parses: no two appends interleaved
    assert len(records) == 4 * 3 * len(sources)
    assert sorted(prefix for prefix, _ in records) == sorted(s.key().encode() for s in sources * 12)
    reader = _log_process("read", tmp_path)
    out, _ = reader.communicate(timeout=120)
    assert json.loads(out) == {"computed": 0, "same": len(sources), "sources": len(sources)}


def test_record_appended_by_another_process_is_found(tmp_path, monkeypatch):
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        first, other = parse_vertex("1@0"), parse_vertex("2'@1")
        sweep(RC, first, RC4)  # a miss: the log is read, then appended to
        writer = _log_process("write", tmp_path, other.key())
        writer.communicate("go\n", timeout=120)
        assert writer.returncode == 0
        computed = _counting_sweep(monkeypatch)
        assert _same_sweep(sweep(RC, other, RC4), mesh_hom._sweep(RC, other, RC4, QQ))
        assert computed == [other]  # only the comparison above computed
    finally:
        enable_disk_cache(None)
        clear_cache()


def _two_records(tmp_path):
    """Store the sweeps from 1@0 and 2@0 of A2 RC [0,4]; return the log and its two lines."""
    enable_disk_cache(str(tmp_path))
    first, second = parse_vertex("1@0"), parse_vertex("2@0")
    sweep(RC, first, RC4)
    sweep(RC, second, RC4)
    (path,) = tmp_path.iterdir()
    lines = [line for line in path.read_bytes().split(b"\n") if line]
    assert [line.split(b"\t")[0] for line in lines] == [b"1@0", b"2@0"]
    clear_cache()
    return path, first, second, lines


def test_torn_tail_record_is_a_miss_and_the_next_append_loads(tmp_path, monkeypatch):
    clear_cache()
    try:
        path, first, second, (line1, line2) = _two_records(tmp_path)
        torn = b"\n" + line2
        path.write_bytes(b"\n" + line1 + b"\n" + torn[:len(torn) // 2])
        computed = _counting_sweep(monkeypatch)
        sweep(RC, first, RC4)
        assert computed == []
        good = sweep(RC, second, RC4)
        assert computed == [second]
        clear_cache()
        assert _same_sweep(sweep(RC, second, RC4), good) and computed == [second]
        lines = path.read_bytes().split(b"\n")
        assert [line.split(b"\t")[0] for line in lines if line] == [b"1@0", b"2@0", b"2@0"]
        assert torn[1:len(torn) // 2] in lines  # the torn record, ended by the next append
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_record_still_being_written_is_read_once_complete(tmp_path, monkeypatch):
    clear_cache()
    try:
        path, first, second, (line1, line2) = _two_records(tmp_path)
        record = b"\n" + line2 + b"\n"
        half = len(record) // 2
        path.write_bytes(b"\n" + line1 + b"\n" + record[:half])  # the writer is midway
        computed = _counting_sweep(monkeypatch)
        sweep(RC, first, RC4)  # reads the log, leaving the unfinished line
        with open(path, "ab") as fh:
            fh.write(record[half:])
        sweep(RC, second, RC4)
        assert computed == []
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_malformed_record_before_a_good_one_is_skipped(tmp_path, monkeypatch):
    clear_cache()
    try:
        path, first, _, (line1, _) = _two_records(tmp_path)
        prefix, record = line1.split(b"\t")
        bad = json.loads(record)
        next(m for m in bad[3] if m).append([])  # a matrix of the wrong shape
        path.write_bytes(_record_line(prefix, bad) + b"\n" + line1 + b"\n")
        size = path.stat().st_size
        computed = _counting_sweep(monkeypatch)
        loaded = sweep(RC, first, RC4)
        clear_cache()
        assert _same_sweep(sweep(RC, first, RC4), loaded)
        assert _same_sweep(loaded, mesh_hom._sweep(RC, first, RC4, QQ))
        assert computed == [first]  # only the comparison above computed
        assert path.stat().st_size == size  # nothing was appended
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_negative_kept_index_is_a_miss(tmp_path, monkeypatch):
    clear_cache()
    try:
        path, first, _, (line1, _) = _two_records(tmp_path)
        prefix, record = line1.split(b"\t")
        data = json.loads(record)
        rq, fun = RC._slice(RC4), mesh_hom._sweep(RC, first, RC4, QQ)
        v, kept = next((v, ks) for v, ks in zip(rq.vertices, data[2]) if len(ks) == 1 and v != first)
        kept[0] -= sum(fun.dim(b.source) for b in rq.in_arrows(v))  # the same generator, counted from the end
        path.write_bytes(_record_line(prefix, data))
        computed = _counting_sweep(monkeypatch)
        again = sweep(RC, first, RC4)
        assert computed == [first]
        assert _same_sweep(again, mesh_hom._sweep(RC, first, RC4, QQ))
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_version_1_json_files_are_ignored(tmp_path, monkeypatch):
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        source = parse_vertex("1@0")
        key = (RC.cache_key(), RC4.lo, RC4.hi, source, "QQ")
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
        v1 = tmp_path / f"hom-{digest}.json"
        v1.write_text(json.dumps({"version": 1, "key": repr(key), "dims": {}, "paths": {}, "mats": {}}))
        stray = tmp_path / "hom-0123456789abcdef0123456789abcdef.json"
        stray.write_text("{")
        computed = _counting_sweep(monkeypatch)
        fun = sweep(RC, source, RC4)
        assert computed == [source] and fun.dim(source) == 1
        clear_cache()
        sweep(RC, source, RC4)
        assert computed == [source]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [v1.name, stray.name, os.path.basename(mesh_hom._disk_path(key))])
        assert json.loads(v1.read_text())["dims"] == {} and stray.read_text() == "{"
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_clear_cache_parses_the_log_again(tmp_path, monkeypatch):
    clear_cache()
    try:
        _, first, _, _ = _two_records(tmp_path)
        decoded = []
        real_decode = mesh_hom._decode
        monkeypatch.setattr(mesh_hom, "_decode", lambda *a: decoded.append(a[1]) or real_decode(*a))
        computed = _counting_sweep(monkeypatch)
        for _ in range(2):
            loaded = sweep(RC, first, RC4)
            assert sweep(RC, first, RC4) is loaded
            clear_cache()
        assert decoded == [first, first] and computed == []
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_source_keys_with_tabs_and_newlines_round_trip(tmp_path, monkeypatch):
    q = Quiver(["x\ty", "p\nq"], [QArrow("a", "x\ty", "p\nq")])
    ctx, w = MeshContext(q, "RC"), Window(0, 3)
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        fresh = [sweep(ctx, s, w) for s in ctx.vertices_in(w)]
        clear_cache()
        computed = _counting_sweep(monkeypatch)
        assert all(_same_sweep(sweep(ctx, s, w), f) for s, f in zip(ctx.vertices_in(w), fresh))
        assert computed == []
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_two_cli_runs_on_one_cache_directory_agree(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, STRATAKIT_CACHE_DIR=str(tmp_path))
    quiver = json.dumps(A2.to_json())
    argv = [sys.executable, "-m", "stratakit.cli", "check-config", "--quiver", quiver, "--window", "0", "3"]
    runs, logs = [], []
    for _ in range(2):
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == b""
        runs.append(proc.stdout)
        logs.append({p.name: p.read_bytes() for p in tmp_path.iterdir()})
    assert runs[0] == runs[1] and json.loads(runs[0])["condition_R"]
    # Every rational sweep computed with the cache on is appended to its log, so
    # logs left byte-identical mean the second run computed none.
    assert len(logs[0]) == 2 and logs[1] == logs[0]


# ---------------------------------------------------------------------------
# Translated sweeps: in a tau-invariant context every sweep no taller than
# the tallest one held for its node is read off that one.
# ---------------------------------------------------------------------------

def _counting_translate(monkeypatch):
    translated = []
    real = mesh_hom._translate
    monkeypatch.setattr(mesh_hom, "_translate", lambda *a: translated.append(a[2]) or real(*a))
    return translated


@pytest.mark.parametrize("flavor", ["kZQ", "RC", "SC"])
@pytest.mark.parametrize("quiver", [a_n_quiver(2), a_n_quiver(3), d4_quiver(), kronecker_quiver(2)],
                         ids=["A2", "A3", "D4", "K2"])
def test_translated_sweeps_equal_their_twin_sweeps(quiver, flavor, monkeypatch):
    monkeypatch.setattr(mesh_hom, "_DISK_DIR", None)
    translated = _counting_translate(monkeypatch)
    ctx = MeshContext(quiver, flavor)
    for field in (QQ, PrimeField(2)):
        requests = [(v, Window(lo, hi)) for lo in range(-2, 4) for hi in range(lo, lo + 5)
                    for v in ctx.vertices_in(Window(lo, hi)) if flavor != "SC" or v.frozen]
        random.Random(f"{flavor}{field.key}").shuffle(requests)
        clear_cache()
        try:
            for v, w in requests:
                assert _same_sweep(sweep(ctx, v, w, field), mesh_hom._sweep(ctx, v, w, field)), (v, w)
        finally:
            clear_cache()
    assert translated


@pytest.mark.parametrize("config", [Configuration([parse_vertex("1@0")], period=2),
                                    Configuration([parse_vertex("1@0"), parse_vertex("2@2")])],
                         ids=["periodic", "arbitrary"])
def test_configured_contexts_are_never_translated(config, monkeypatch):
    monkeypatch.setattr(mesh_hom, "_DISK_DIR", None)
    translated = _counting_translate(monkeypatch)
    ctx = MeshContext(A2, "RC", config)
    clear_cache()
    try:
        for w in (Window(0, 4), Window(1, 3), Window(-1, 2)):
            for v in ctx.vertices_in(w):
                assert _same_sweep(sweep(ctx, v, w), mesh_hom._sweep(ctx, v, w, QQ))
    finally:
        clear_cache()
    assert translated == []


def test_ascending_sweeps_store_one_record_per_node_and_load_in_a_fresh_process(tmp_path, monkeypatch):
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        computed = _counting_sweep(monkeypatch)
        sources = RC.vertices_in(RC4)
        for s in sources:  # ascending levels: the first source of each node is its tallest
            sweep(RC, s, RC4)
        assert computed == [s for s in sources if s.level == 0]
    finally:
        enable_disk_cache(None)
        clear_cache()
    (path,) = tmp_path.iterdir()
    assert [prefix for prefix, _ in _records(path)] == [b"1@0", b"1'@0", b"2@0", b"2'@0"]
    reader = _log_process("read", tmp_path)
    out, _ = reader.communicate(timeout=120)
    assert json.loads(out) == {"computed": 0, "same": len(sources), "sources": len(sources)}


def _held_entries(fun):
    """The twin count of the sweep's entry bound: gen_dim**2 summed over the vertices above
    the source."""
    rq = fun.ctx._slice(fun.window)
    gens = [sum(fun.dim(b.source) for b in rq.in_arrows(v)) for v in rq.vertices
            if v.level >= fun.source.level and v != fun.source]
    return sum(g * g for g in gens)


@pytest.mark.parametrize("quiver, flavor, source, w", [
    (kronecker_quiver(3), "kZQ", "1@0", Window(0, 3)),
    (kronecker_quiver(2), "RC", "1'@0", Window(0, 4)),
    (d4_quiver(), "kZQ", "0@0", Window(0, 5)),
], ids=["K3-kZQ", "K2-RC", "D4-kZQ"])
def test_a_sweep_is_refused_before_the_vertex_that_passes_its_entry_limit(quiver, flavor, source, w,
                                                                          monkeypatch):
    """_sweep counts gen_dim**2 per vertex: at a limit equal to that count the sweep runs,
    one entry below it raises InvalidInputError before the elimination of the vertex
    that passes it, which is the last one with generators."""
    ctx, x = MeshContext(quiver, flavor), parse_vertex(source)
    fun = mesh_hom._sweep(ctx, x, w, QQ)
    held = _held_entries(fun)
    assert held <= mesh_hom.MAX_SWEEP_ENTRIES
    monkeypatch.setattr(mesh_hom, "MAX_SWEEP_ENTRIES", held)
    assert _same_sweep(mesh_hom._sweep(ctx, x, w, QQ), fun)
    monkeypatch.setattr(mesh_hom, "MAX_SWEEP_ENTRIES", held - 1)
    eliminated = []
    real = mesh_hom.quotient_coords
    monkeypatch.setattr(mesh_hom, "quotient_coords", lambda *args: eliminated.append(args) or real(*args))
    with pytest.raises(InvalidInputError, match=f"more than the limit of {held - 1} matrix entries") as refused:
        mesh_hom._sweep(ctx, x, w, QQ)
    rq = ctx._slice(w)
    generated = [v for v in rq.vertices if v.level >= x.level and v != x
                 and any(fun.dim(b.source) for b in rq.in_arrows(v))]
    assert len(eliminated) == len(generated) - 1
    assert f"at {generated[-1]};" in str(refused.value)


# ---------------------------------------------------------------------------
# Version-3 records: kept generator indices and the nonzero matrix entries.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("quiver, flavor, w", [(A2, "RC", Window(0, 4)), (d4_quiver(), "kZQ", Window(0, 3)),
                                               (kronecker_quiver(), "RC", Window(0, 3))],
                         ids=["A2-RC", "D4-kZQ", "K2-RC"])
def test_stored_sweeps_load_as_they_were_computed(tmp_path, monkeypatch, quiver, flavor, w):
    """Every sweep of a window, stored, dropped by clear_cache() and loaded, equals a fresh
    _sweep, and so does every translate read off a loaded sweep."""
    ctx, real = MeshContext(quiver, flavor), mesh_hom._sweep
    sources = ctx.vertices_in(w)
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        for s in sources:  # ascending: one record per node, the rest translates
            sweep(ctx, s, w)
        clear_cache()
        computed, translated = _counting_sweep(monkeypatch), _counting_translate(monkeypatch)
        for s in sources:
            assert _same_sweep(sweep(ctx, s, w), real(ctx, s, w, QQ)), s
        assert computed == [] and len(translated) == len(sources) - len({(s.node, s.frozen) for s in sources})
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_fraction_entries_round_trip_through_a_record(tmp_path, monkeypatch):
    """The disk layer keeps any rational: entries set to 1/2 and -3/4 load as those Fractions,
    every other entry as an int, and the loaded sweep stores the same bytes."""
    source, key = parse_vertex("1@0"), (RC.cache_key(), RC4.lo, RC4.hi, parse_vertex("1@0"), "QQ")
    fun = mesh_hom._sweep(RC, source, RC4, QQ)
    cols = [col for m in fun.mats.values() for col in m if col]
    for col, x in ((cols[0], Fraction(1, 2)), (cols[-1], Fraction(-3, 4))):
        col[next(iter(col))] = x
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        mesh_hom._disk_store(fun, key)
        (path,) = tmp_path.iterdir()
        first = path.read_bytes()
        assert b'"1/2"' in first and b'"-3/4"' in first
        clear_cache()  # the log index skips the records this process appended
        computed = _counting_sweep(monkeypatch)
        loaded = sweep(RC, source, RC4)
        assert computed == [] and loaded is not fun and _same_sweep(loaded, fun)
        entries = [x for m in loaded.mats.values() for col in m for x in col.values()]
        assert sorted(x for x in entries if type(x) is Fraction) == [Fraction(-3, 4), Fraction(1, 2)]
        assert all(type(x) in (int, Fraction) for x in entries)
        path.unlink()
        mesh_hom._disk_store(loaded, key)
        assert path.read_bytes() == first
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_a_source_without_its_identity_is_a_miss(tmp_path, monkeypatch):
    """The source's kept list is [0], its identity: a record of a sweep from the top of the
    window, where no other vertex has a generator, is refused with [] there."""
    ctx, source, w = MeshContext(kronecker_quiver(), "kZQ"), parse_vertex("2@3"), Window(0, 3)
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        good = sweep(ctx, source, w)
        (path,) = tmp_path.iterdir()
        ((prefix, data),) = _records(path)
        at = ctx._slice(w).vertices.index(source)
        assert data[2] == [[0] if i == at else [] for i in range(len(data[2]))]
        data[2][at] = []
        path.write_bytes(_record_line(prefix, data))
        clear_cache()
        computed = _counting_sweep(monkeypatch)
        assert _same_sweep(sweep(ctx, source, w), good) and computed == [source]
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_version_2_records_are_skipped_and_recomputed(tmp_path, monkeypatch):
    clear_cache()
    try:
        path, first, _, (line1, _) = _two_records(tmp_path)
        prefix, record = line1.split(b"\t")
        old = json.loads(record)
        old[0] = 2
        path.write_bytes(_record_line(prefix, old))
        computed = _counting_sweep(monkeypatch)
        again = sweep(RC, first, RC4)
        assert computed == [first]
        assert [data[0] for _, data in _records(path)] == [2, 3]  # the recomputed sweep is appended
        clear_cache()
        assert _same_sweep(sweep(RC, first, RC4), again) and computed == [first]
    finally:
        enable_disk_cache(None)
        clear_cache()
