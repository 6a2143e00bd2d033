import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stratakit import mesh_hom
from stratakit.errors import InternalConsistencyError, InvalidInputError
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
from stratakit.exact_linalg import QQ, PrimeField, mat_vec
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
    total = sum(fun.dim(v) for v in KZ.vertices_in(W6))
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
                mid = _apply_arrow(fun, sb, vec)
                out = _apply_arrow(fun, b, mid)
                acc = [a + o for a, o in zip(acc, out)]
            assert all(a == 0 for a in acc)


def test_cache_determinism_and_disk_round_trip(tmp_path):
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        f1 = sweep(KZ, parse_vertex("1@0"), Window(0, 2))
        clear_cache()
        f2 = sweep(KZ, parse_vertex("1@0"), Window(0, 2))  # now loaded from disk
        assert f2 is not f1 and _same_sweep(f2, f1)
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
        assert loaded is not computed and _same_sweep(loaded, computed)
        entries = _entries(loaded)
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
    # line is the source key, a tab and [4, entries], the dropped generators' classes.
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
        line = expected.read_bytes()
        assert line.startswith(b"\n1'@0\t[4,[[")
        # the name and the prefix identify the sweep: the record repeats no part of its key
        assert b"vertices" not in line and b"RC" not in line and b"period" not in line
        ((prefix, record),) = _records(expected)
        assert prefix == b"1'@0" and record[0] == 4 and len(record) == 2
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
    return [[col.get(r, QQ.zero) for col in fun.columns(a)] for r in range(fun.dim(a.target))]


def _same_sweep(fun, other):
    """fun and other read alike through the accessors: dim, basis_paths and columns at every
    vertex and arrow of fun's window slice widened by a level each way (so the zero answers
    below the source and above the window count too), and reduce_path of every basis path."""
    rq = fun.ctx._slice(Window(fun.window.lo - 1, fun.window.hi + 1))
    return (all(fun.dim(v) == other.dim(v) and fun.basis_paths(v) == other.basis_paths(v)
                for v in rq.vertices)
            and all(list(fun.columns(b)) == list(other.columns(b)) for b in rq.arrows)
            and all(fun.reduce_path(p) == other.reduce_path(p) for v in rq.vertices for p in fun.basis_paths(v)))


def _entries(fun):
    """Every matrix entry of a sweep, read through columns over its window slice."""
    return [x for b in fun.ctx._slice(fun.window).arrows for col in fun.columns(b) for x in col.values()]


def _damage(data, damage, at):
    """A version-4 record [4, entries] of a sweep from the at-th slice vertex, with one fault.
    Each damage of a version-3 record [3, key, kept, mats] keeps its name for the fault of
    the new layout that stands in for it; the last four have no version-3 counterpart."""
    entries = data[1]
    ent = entries[0]  # an entry with one coordinate
    assert len(ent) == 4 and any(e[0] == f[0] for e, f in zip(entries, entries[1:]))
    if damage == "wrong-shape":
        data.append([])  # a third item
    elif damage == "short-matrix":
        del ent[1:]  # no generator index
    elif damage == "missing-matrix":
        del data[1]  # no entries
    elif damage == "extra-matrix":
        entries.append([entries[-1][0] + 1, 0])  # one vertex past the slice: left over after the walk
    elif damage == "kept-out-of-range":
        entries[-1][1] = 10 ** 6  # past the vertex's generators
    elif damage == "kept-not-increasing":
        k = next(k for k, (e, f) in enumerate(zip(entries, entries[1:])) if e[0] == f[0])
        entries[k], entries[k + 1] = entries[k + 1], entries[k]  # two generators of one vertex swapped
    elif damage == "kept-repeated":
        entries.insert(1, list(ent))
    elif damage == "kept-negative":
        ent[1] = -1
    elif damage == "row-outside":
        ent[2] = 10 ** 6
    elif damage == "row-negative":
        ent[2] = -1
    elif damage == "row-repeated":
        ent.extend(ent[2:4])
    elif damage == "stored-zero":
        ent[3] = 0
    elif damage == "integral-fraction":
        ent[3] = f"{2 * ent[3]}/2"
    elif damage == "odd-column":
        ent.pop()
    elif damage == "not-an-object":
        return {"record": data}
    elif damage == "vertex-out-of-range":
        entries[-1][0] = 10 ** 6
    elif damage == "entries-not-increasing":
        entries[0], entries[-1] = entries[-1], entries[0]  # two vertices swapped
    elif damage == "at-or-below-source":
        entries.insert(0, [at, 0])  # the identity dropped
    elif damage == "not-a-rational":
        ent[3] = 0.5
    return data


def _twin_decode(ctx, source, window, raw):
    """The record decoder as it was before loading went through the sweep's own walk:
    mesh_hom._decode must return an equal sweep, or None exactly where this twin does."""
    rq = ctx._slice(window)
    fracs = {}

    def rational(x):
        if type(x) is str:
            x = fracs.get(x) or fracs.setdefault(x, Fraction(x))
            if x.denominator == 1:
                raise ValueError(x)
        elif type(x) is not int:
            raise TypeError(x)
        if not x:
            raise ValueError(x)
        return x

    try:
        version, entries = json.loads(raw)
        if version != 4 or type(entries) is not list:
            return None
        last = (-1, -1)
        for ent in entries:
            if (type(ent) is not list or len(ent) < 2 or len(ent) % 2 or type(ent[0]) is not int
                    or type(ent[1]) is not int or ent[1] < 0 or (ent[0], ent[1]) <= last):
                return None
            last = (ent[0], ent[1])
        fun = mesh_hom.HomFunctor(ctx, source, window, QQ)
        dims, paths, kept, mats = fun.dims, fun.paths, fun.kept, fun.mats
        e = 0
        for i, v in enumerate(rq.vertices):
            if v.level < source.level:
                dims[v], paths[v], kept[v] = 0, [], []
                continue
            in_arrows = rq.in_arrows(v)
            if v == source:
                dims[v], paths[v], kept[v] = 1, [()], [0]
                for b in in_arrows:
                    mats[b] = []
                continue
            gen_dim = sum(dims[b.source] for b in in_arrows)
            dropped = {}
            while e < len(entries) and entries[e][0] == i:
                if entries[e][1] >= gen_dim:
                    return None
                dropped[entries[e][1]] = entries[e]
                e += 1
            ks = kept[v] = [g for g in range(gen_dim) if g not in dropped]
            dims[v] = rows = len(ks)
            paths[v] = mesh_hom._kept_paths(in_arrows, paths, ks)
            g = k = 0
            for b in in_arrows:
                cols = mats[b] = []
                for _ in range(dims[b.source]):
                    ent = dropped.get(g)
                    if ent is None:
                        cols.append({k: 1})
                        k += 1
                    else:
                        col = {ent[j]: rational(ent[j + 1]) for j in range(2, len(ent), 2)}
                        if 2 * len(col) != len(ent) - 2 or any(type(r) is not int or not 0 <= r < rows for r in col):
                            return None
                        cols.append(col)
                    g += 1
        if e != len(entries):
            return None
    except (ValueError, TypeError, ZeroDivisionError):
        return None
    return fun


def _decodes_as_the_twin(ctx, source, window, raw):
    """mesh_hom._decode(raw) is None exactly where the twin's is, and else holds what the
    twin's holds (_held); returns the decoded sweep."""
    got, want = mesh_hom._decode(ctx, source, window, raw), _twin_decode(ctx, source, window, raw)
    assert (got is None) == (want is None)
    assert got is None or _held(got) == _held(want)
    return got


@pytest.mark.parametrize("damage", ["wrong-shape", "truncated", "short-matrix", "not-an-object", "missing-matrix",
                                    "extra-matrix", "kept-out-of-range", "kept-not-increasing", "kept-repeated",
                                    "kept-negative", "row-outside", "row-negative", "row-repeated", "stored-zero",
                                    "integral-fraction", "odd-column", "vertex-out-of-range",
                                    "entries-not-increasing", "at-or-below-source", "not-a-rational"])
def test_malformed_disk_file_is_a_miss(tmp_path, monkeypatch, damage):
    # A record with the right version but broken content is recomputed, not trusted; the
    # decoder and its twin both refuse it.
    ctx, source, w = MeshContext(kronecker_quiver(), "kZQ"), parse_vertex("1@0"), Window(0, 3)
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        good = sweep(ctx, source, w)
        (path,) = tmp_path.glob("hom-*.log")
        ((prefix, data),) = _records(path)
        text = _record_line(prefix, _damage(data, damage, ctx._slice(w).vertices.index(source)))
        if damage == "truncated":
            text = text[:len(text) // 2]
        path.write_bytes(text)
        assert _decodes_as_the_twin(ctx, source, w, text.strip(b"\n").partition(b"\t")[2]) is None
        clear_cache()
        computed = _counting_sweep(monkeypatch)
        again = sweep(ctx, source, w)
        assert again is not good and computed == [source]
        assert _same_sweep(again, good)
    finally:
        enable_disk_cache(None)
        clear_cache()


# ---------------------------------------------------------------------------
# The composition routines against their twin: a dense walk of the
# concatenated path, one arrow matrix at a time.
# ---------------------------------------------------------------------------

def _apply_arrow(fun, arrow, vec):
    """The dense image of vec under the arrow's matrix in fun."""
    out = [fun.field.zero] * fun.dim(arrow.target)
    for x, col in zip(vec, fun.columns(arrow)):
        if x:
            for r, c in col.items():
                out[r] += c * x
    return out


def _walker(fun):
    """Coordinates of paths from fun.source, one arrow matrix at a time; each prefix is walked once."""
    memo = {(): [fun.field.one]}

    def walk(path):
        vec = memo.get(path)
        if vec is None:
            assert path[-1].source == (path[-2].target if len(path) > 1 else fun.source)
            vec = memo[path] = _apply_arrow(fun, path[-1], walk(path[:-1]))
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
# reduce_path and the composites against the dense walk, entry by entry and
# type by type; then the atomic disk writes.
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
def test_reduce_path_memo_matches_a_fresh_walk(quiver, window):
    """reduce_path keeps no memo: asked twice, and after its prefix, it gives the fresh walk."""
    ctx = MeshContext(quiver, "RC")
    clear_cache()
    try:
        cases = _extended_basis_paths(ctx, window)
        assert len(cases) > 50
        for x, path in cases:
            sweep(ctx, x, window).reduce_path(path)
        again = [sweep(ctx, x, window).reduce_path(path) for x, path in cases]
        clear_cache()
        walkers = {}
        fresh = [walkers.setdefault(x, _walker(sweep(ctx, x, window)))(path) for x, path in cases]
        assert again == fresh
        clear_cache()
        for x, path in cases:
            fun = sweep(ctx, x, window)
            assert fun.reduce_path(path[:-1]) == walkers[x](path[:-1])
            assert fun.reduce_path(path) == walkers[x](path)
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
        # a walk that goes wrong after a valid prefix
        prefix = fun.basis_paths(parse_vertex("2@0"))[0]
        assert prefix and prefix[-1].target != stray.source
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="does not start where expected"):
                fun.reduce_path(prefix + (stray,))
    finally:
        clear_cache()


def _twin_reduce_path(fun, path):
    """reduce_path as a dense walk: the identity, one arrow matrix applied at a time."""
    if fun.dim(fun.source) == 0:
        raise InvalidInputError(f"source {fun.source} has no identity in this window")
    vec, at = [fun.field.one], fun.source
    for arrow in path:
        if arrow.source != at:
            raise InvalidInputError(f"path does not start where expected at {arrow}")
        vec, at = _apply_arrow(fun, arrow, vec), arrow.target
    return vec


def _twin_columns(fun, end, paths):
    cols = [_twin_reduce_path(fun, p) for p in paths]
    return [[c[i] for c in cols] for i in range(fun.dim(end))]


def _twin_precomposition(ctx, s, u, v, m, w, field):
    return _twin_columns(sweep(ctx, u, w, field), m, [tuple(s) + p for p in sweep(ctx, v, w, field).basis_paths(m)])


def _twin_postcomposition(ctx, a, path, y, w, field):
    fun = sweep(ctx, a, w, field)
    return _twin_columns(fun, path[-1].target if path else y, [p + tuple(path) for p in fun.basis_paths(y)])


def _twin_compose(ctx, f, g, w, field):
    acc = [field.zero] * sweep(ctx, f.source, w, field).dim(g.target)
    for cj, path in zip(g.coeffs, sweep(ctx, g.source, w, field).basis_paths(g.target)):
        if cj != field.zero:
            img = mat_vec(_twin_postcomposition(ctx, f.source, path, f.target, w, field), f.coeffs, field)
            acc = [x + cj * y for x, y in zip(acc, img)]
    return Morphism(f.source, g.target, tuple(acc))


def _typed(x):
    """x with every scalar paired with its type, so equal values of different types differ."""
    if isinstance(x, (list, tuple)):
        return [_typed(y) for y in x]
    return type(x), x


# Coefficients whose products make ints, integral Fractions and proper Fractions over QQ.
_COEFFS = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 1))


@pytest.mark.parametrize("flavor", ["kZQ", "RC", "SC"])
@pytest.mark.parametrize("quiver,hi", [(A2, 4), (a_n_quiver(3), 3), (d4_quiver(), 2), (kronecker_quiver(2), 2)],
                         ids=["A2", "A3", "D4", "K2"])
def test_composites_equal_the_dense_walk_entry_by_entry_and_type_by_type(quiver, hi, flavor, monkeypatch):
    """precomposition_matrix, postcomposition_matrix, compose and HomBasis.reduce_path against
    the dense walk, over QQ and GF(3), on sweeps asked for lowest source first (so most are
    translates), with every basis path, every single arrow and the empty path."""
    monkeypatch.setattr(mesh_hom, "_DISK_DIR", None)
    translated = _counting_translate(monkeypatch)
    ctx, w = MeshContext(quiver, flavor), Window(0, hi)
    verts = ctx.vertices_in(w)
    objs = [v for v in verts if flavor != "SC" or v.frozen]
    rng = random.Random(f"{quiver.key()}{flavor}")
    for field in (QQ, PrimeField(3)):
        clear_cache()
        try:
            count = 0
            for u in objs:
                fun = sweep(ctx, u, w, field)
                # s: u -> v over every basis path (the empty one included) and, outside SC, every arrow
                steps = [(p, v) for v in objs for p in fun.basis_paths(v)]
                if flavor != "SC":
                    steps += [((a,), a.target) for a in ctx.out_arrows(u, w)]
                for s, v in steps:
                    for m in objs:
                        got = precomposition_matrix(ctx, s, u, v, m, w, field)
                        assert _typed(got) == _typed(_twin_precomposition(ctx, s, u, v, m, w, field))
                        assert _typed(postcomposition_matrix(ctx, m, s, u, w, field)) == _typed(
                            _twin_postcomposition(ctx, m, s, u, w, field))
                        count += 1
                    if flavor != "SC" or v.frozen:
                        got = hom_basis(ctx, u, v, w, field).reduce_path(s)
                        assert got.target == v and _typed(got.coeffs) == _typed(_twin_reduce_path(fun, s))
                for y in objs:
                    for z in objs:
                        dims = (fun.dim(y), sweep(ctx, y, w, field).dim(z))
                        if not all(dims) or rng.random() < 0.5:
                            continue
                        f, g = (Morphism(a, b, tuple(field.of_int(rng.choice((0, 1, -1, 2))) if field is not QQ
                                                     else rng.choice(_COEFFS) for _ in range(d)))
                                for a, b, d in ((u, y, dims[0]), (y, z, dims[1])))
                        got = compose(ctx, f, g, w, field)
                        assert got == _twin_compose(ctx, f, g, w, field)
                        assert _typed(got.coeffs) == _typed(_twin_compose(ctx, f, g, w, field).coeffs)
                        count += 1
            assert count > 100
        finally:
            clear_cache()
    assert translated


@pytest.mark.parametrize("flavor", ["kZQ", "RC"])
@pytest.mark.parametrize("quiver", [A2, a_n_quiver(3), d4_quiver(), kronecker_quiver(2)], ids=["A2", "A3", "D4", "K2"])
def test_a_basis_path_reduces_to_its_unit_vector(quiver, flavor):
    ctx, w = MeshContext(quiver, flavor), Window(0, 3)
    for field in (QQ, PrimeField(3)):
        clear_cache()
        try:
            for x in ctx.vertices_in(w):
                fun = sweep(ctx, x, w, field)
                for y in ctx.vertices_in(w):
                    for k, p in enumerate(fun.basis_paths(y)):
                        unit = [field.one if i == k else field.zero for i in range(fun.dim(y))]
                        assert _typed(fun.reduce_path(p)) == _typed(unit)
        finally:
            clear_cache()


def test_composites_along_a_basis_path_of_1400_arrows():
    """The pushes walk iteratively: over A2 in S_C the powers of the horizontal arrow never
    die, so Hom(1'@0, 1'@700) has one basis path, 1400 arrows long."""
    ctx, w = MeshContext(A2, "SC"), Window(0, 700)
    u, m = parse_vertex("1'@0"), parse_vertex("1'@700")
    clear_cache()
    try:
        fun = sweep(ctx, u, w)
        (path,) = fun.basis_paths(m)
        assert len(path) == 1400
        assert precomposition_matrix(ctx, (), u, u, m, w) == postcomposition_matrix(ctx, u, path, u, w) == [[1]]
        assert fun.reduce_path(path) == _twin_reduce_path(fun, path) == [1]
    finally:
        clear_cache()


def test_composites_raise_both_input_errors_on_every_call(monkeypatch):
    w, u = Window(0, 3), parse_vertex("1@0")
    stray = RC.out_arrows(parse_vertex("2@1"), w)[0]
    v = stray.target
    clear_cache()
    try:
        fun = sweep(RC, u, w)
        assert fun.dim(v) and stray.source != u
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="does not start where expected"):
                fun.reduce_path((stray,))
            with pytest.raises(InvalidInputError, match="does not start where expected"):
                precomposition_matrix(RC, (stray,), u, v, v, w)
            with pytest.raises(InvalidInputError, match="does not start where expected"):
                postcomposition_matrix(RC, u, (stray,), u, w)
        # a functor without its source's identity
        bare = mesh_hom.HomFunctor(RC, u, w, QQ)
        real = mesh_hom.sweep
        monkeypatch.setattr(mesh_hom, "sweep", lambda ctx, x, win, field=QQ: bare if x == u else real(ctx, x, win, field))
        arrow = RC.out_arrows(u, w)[0]
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="no identity"):
                bare.reduce_path(())
            with pytest.raises(InvalidInputError, match="no identity"):
                precomposition_matrix(RC, (arrow,), u, arrow.target, arrow.target, w)
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
        source, w = parse_vertex("1@0"), RC4  # a record of more than 40 bytes
        monkeypatch.setattr(os, "write", _broken_write(exc))
        if isinstance(exc, OSError):
            first = sweep(RC, source, w)  # the sweep itself still succeeds
        else:
            with pytest.raises(RuntimeError):
                sweep(RC, source, w)
            first = mesh_hom._sweep(RC, source, w, QQ)
        (path,) = tmp_path.iterdir()
        assert path.name == os.path.basename(mesh_hom._disk_path((RC.cache_key(), w.lo, w.hi, source, "QQ")))
        torn = path.read_bytes()
        assert len(torn) == 40 and torn.startswith(b"\n1@0\t[4,") and not torn.endswith(b"\n")
        monkeypatch.undo()
        clear_cache()
        computed = _counting_sweep(monkeypatch)
        again = sweep(RC, source, w)
        assert computed == [source]
        assert _same_sweep(again, first)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        clear_cache()
        assert _same_sweep(sweep(RC, source, w), first) and computed == [source]  # the next append loads
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
from stratakit.exact_linalg import QQ, PrimeField, mat_vec
from stratakit.mesh_hom import MeshContext
from stratakit.quiver_core import Window, a_n_quiver
ctx, w = MeshContext(a_n_quiver(2), "RC"), Window(0, 4)
sources = [s for s in ctx.vertices_in(w) if len(sys.argv) < 4 or s.key() in sys.argv[3:]]
mesh_hom.enable_disk_cache(sys.argv[2])
real = mesh_hom._sweep
rq = ctx._slice(w)
if sys.argv[1] == "write":
    print("ready", flush=True)
    sys.stdin.readline()
    for _ in range(3):
        for s in sources:
            mesh_hom._disk_store(real(ctx, s, w, QQ), (ctx.cache_key(), w.lo, w.hi, s, "QQ"))
else:
    computed = []
    mesh_hom._sweep = lambda *a: computed.append(a) or real(*a)
    same = [all(f.dim(v) == g.dim(v) and f.basis_paths(v) == g.basis_paths(v) for v in rq.vertices)
            and all(list(f.columns(b)) == list(g.columns(b)) for b in rq.arrows)
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
        bad[1][0].append(0)  # a class of odd length
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
    """A dropped generator's index counted from the end of its vertex's generators, as a
    Python index would take it, is refused."""
    clear_cache()
    try:
        path, first, _, (line1, _) = _two_records(tmp_path)
        prefix, record = line1.split(b"\t")
        data = json.loads(record)
        rq, fun = RC._slice(RC4), mesh_hom._sweep(RC, first, RC4, QQ)
        entry = data[1][0]
        entry[1] -= sum(fun.dim(b.source) for b in rq.in_arrows(rq.vertices[entry[0]]))  # the same generator
        assert entry[1] < 0
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
    real = mesh_hom._Translate
    monkeypatch.setattr(mesh_hom, "_Translate", lambda *a: translated.append(a[1]) or real(*a))
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


@pytest.mark.parametrize("quiver, flavor", [(A2, "RC"), (a_n_quiver(3), "SC"), (d4_quiver(), "kZQ"),
                                            (kronecker_quiver(2), "kZQ")], ids=["A2-RC", "A3-SC", "D4-kZQ", "K2-kZQ"])
def test_a_translate_reads_a_base_swept_on_a_taller_other_window(quiver, flavor, monkeypatch):
    """Sweeps held over [-1, 6] serve every request over [1, 4] as views that copy nothing."""
    monkeypatch.setattr(mesh_hom, "_DISK_DIR", None)
    ctx, tall, w = MeshContext(quiver, flavor), Window(-1, 6), Window(1, 4)
    clear_cache()
    try:
        bases = {(v.node, v.frozen): sweep(ctx, v, tall) for v in ctx.vertices_in(tall) if v.level == -1}
        for v in ctx.vertices_in(w):
            fun = sweep(ctx, v, w)
            assert isinstance(fun, mesh_hom._Translate) and fun.base is bases[(v.node, v.frozen)]
            assert (fun.shift, fun.base.window) == (v.level + 1, tall)
            assert fun.dims == fun.paths == fun.mats == {}  # nothing is read off the base until asked
            assert _same_sweep(fun, mesh_hom._sweep(ctx, v, w, QQ)), v
    finally:
        clear_cache()


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
# Version-4 records: the dropped generators' classes, nothing else.
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


ROUND_TRIP_CASES = [(q, flavor, None, w) for q, w in [(A2, Window(0, 6)), (a_n_quiver(3), Window(0, 5)),
                                                       (d4_quiver(), Window(0, 4)), (kronecker_quiver(2), Window(0, 4)),
                                                       (kronecker_quiver(3), Window(0, 2))]
                    for flavor in ("kZQ", "RC", "SC")]
ROUND_TRIP_CASES.append((A2, "RC", Configuration([parse_vertex("1@0")], period=2), Window(0, 6)))


def _held(fun):
    """Everything a computed or decoded sweep holds, in order and with the type of every
    entry: dims, basis paths, kept lists and each column's (row, value, type) list."""
    return (list(fun.dims.items()), list(fun.paths.items()), list(fun.kept.items()),
            [(b, [[(r, x, type(x)) for r, x in col.items()] for col in cols]) for b, cols in fun.mats.items()])


def test_every_sweep_of_small_windows_round_trips_through_a_record():
    """Every sweep of A2, A3, D4 and the 2- and 3-Kronecker quivers over small windows, in
    kZQ, RC and SC and under a periodic configuration, decodes from its record to what
    _sweep computed (dims, paths, kept lists and columns, in the same order and with the
    same int and Fraction entries), as the old decoder's twin does, and the decoded sweep
    encodes to the same record."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    count = dropped = 0
    for q, flavor, config, w in ROUND_TRIP_CASES:
        ctx = MeshContext(q, flavor, config)
        for s in ctx.vertices_in(w):
            if flavor == "SC" and not s.frozen:
                continue
            fun = mesh_hom._sweep(ctx, s, w, QQ)
            raw = encode([4, list(mesh_hom._dropped_entries(fun))]).encode()
            loaded = _decodes_as_the_twin(ctx, s, w, raw)
            assert loaded is not None and _held(loaded) == _held(fun), (ctx.cache_key(), s)
            assert encode([4, list(mesh_hom._dropped_entries(loaded))]).encode() == raw
            count += 1
            dropped += raw != b"[4,[]]"
    assert (count, dropped) == (290, 209)  # sweeps, and those with a dropped generator


def _dropped_columns(fun):
    """(vertex, column) for every dropped generator with a nonzero class, in slice order."""
    rq = fun.ctx._slice(fun.window)
    out = []
    for v in rq.vertices:
        if v == fun.source:
            continue
        g = 0
        for b in rq.in_arrows(v):
            for col in fun.columns(b):
                if g not in fun.kept[v] and col:
                    out.append((v, col))
                g += 1
    return out


def test_fraction_entries_round_trip_through_a_record(tmp_path, monkeypatch):
    """The disk layer keeps any rational: entries of dropped classes set to 1/2 and -3/4 load
    as those Fractions, every other entry as an int, and the loaded sweep stores the same
    bytes."""
    source, key = parse_vertex("1@0"), (RC.cache_key(), RC4.lo, RC4.hi, parse_vertex("1@0"), "QQ")
    fun = mesh_hom._sweep(RC, source, RC4, QQ)
    cols = [col for _, col in _dropped_columns(fun)]
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
        entries = _entries(loaded)
        assert sorted(x for x in entries if type(x) is Fraction) == [Fraction(-3, 4), Fraction(1, 2)]
        assert all(type(x) in (int, Fraction) for x in entries)
        path.unlink()
        mesh_hom._disk_store(loaded, key)
        assert path.read_bytes() == first
    finally:
        enable_disk_cache(None)
        clear_cache()


@pytest.mark.parametrize("fault", ["scaled", "moved", "extra-entry", "kept-past-the-generators"])
def test_a_sweep_whose_kept_columns_are_not_unit_vectors_is_not_stored(tmp_path, fault):
    """A record holds no kept column, so _disk_store raises InternalConsistencyError, and
    writes nothing, when a kept generator's column is not its unit vector or a kept list
    names a generator its vertex does not have."""
    ctx, source, w = MeshContext(kronecker_quiver(), "kZQ"), parse_vertex("1@0"), Window(0, 3)
    key = (ctx.cache_key(), w.lo, w.hi, source, "QQ")
    fun = mesh_hom._sweep(ctx, source, w, QQ)
    rq = ctx._slice(w)
    v = next(v for v in rq.vertices if len(fun.kept[v]) == 2)
    b = next(b for b in rq.in_arrows(v) if fun.columns(b))
    col = fun.columns(b)[0]  # the column of the generator kept[v][0] = 0
    assert fun.kept[v][0] == 0 and col == {0: 1}
    if fault == "scaled":
        col[0] = 2
    elif fault == "moved":
        col[1] = col.pop(0)
    elif fault == "extra-entry":
        col[1] = Fraction(1, 2)
    else:
        fun.kept[v].append(10 ** 6)
    enable_disk_cache(str(tmp_path))
    try:
        with pytest.raises(InternalConsistencyError, match=f"at {v}"):
            mesh_hom._disk_store(fun, key)
        assert list(tmp_path.iterdir()) == []
    finally:
        enable_disk_cache(None)
        clear_cache()


def test_a_source_without_its_identity_is_a_miss(tmp_path, monkeypatch):
    """The source's one generator, its identity, is kept: a record of a sweep from the top of
    the window, where no other vertex has a generator, holds no entry, and is refused with
    an entry that drops the identity."""
    ctx, source, w = MeshContext(kronecker_quiver(), "kZQ"), parse_vertex("2@3"), Window(0, 3)
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        good = sweep(ctx, source, w)
        (path,) = tmp_path.iterdir()
        ((prefix, data),) = _records(path)
        assert data == [4, []]
        data[1].append([ctx._slice(w).vertices.index(source), 0])
        path.write_bytes(_record_line(prefix, data))
        clear_cache()
        computed = _counting_sweep(monkeypatch)
        assert _same_sweep(sweep(ctx, source, w), good) and computed == [source]
    finally:
        enable_disk_cache(None)
        clear_cache()


def _old_record(fun, version):
    """A record of the earlier layout [version, repr(key), kept, mats], as versions 2 and 3
    wrote it."""
    rq = fun.ctx._slice(fun.window)
    key = (fun.ctx.cache_key(), fun.window.lo, fun.window.hi, fun.source, "QQ")
    mats = [[mesh_hom._stored_column(col) for col in fun.columns(b)]
            for b in rq.arrows if b.target.level >= fun.source.level]
    return [version, repr(key), [fun.kept[v] for v in rq.vertices], mats]


def test_version_2_records_are_skipped_and_recomputed(tmp_path, monkeypatch):
    """A log that holds the source's records of versions 2 and 3 only is recomputed, and the
    version-4 record is appended after them."""
    clear_cache()
    try:
        path, first, _, (line1, _) = _two_records(tmp_path)
        prefix = line1.split(b"\t")[0]
        old = mesh_hom._sweep(RC, first, RC4, QQ)
        path.write_bytes(_record_line(prefix, _old_record(old, 2)) + _record_line(prefix, _old_record(old, 3)))
        computed = _counting_sweep(monkeypatch)
        again = sweep(RC, first, RC4)
        assert computed == [first]
        assert [data[0] for _, data in _records(path)] == [2, 3, 4]  # the recomputed sweep is appended
        clear_cache()
        assert _same_sweep(sweep(RC, first, RC4), again) and computed == [first]
    finally:
        enable_disk_cache(None)
        clear_cache()


def _json_values():
    return st.one_of(st.integers(-3, 40), st.sampled_from([10 ** 6, -1, 0, "1/2", "2/2", "x", "1/0", 0.5, True,
                                                           None, [], {}]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_truncated_or_damaged_record_never_raises_out_of_sweep(tmp_path, data):
    """Whatever one cut or one edit of a stored record leaves, sweep() returns a sweep: a
    record that fails a check is recomputed, and none raises.  The decoder takes the
    damaged record exactly where the old decoder's twin does, to an equal sweep."""
    ctx, source, w = MeshContext(kronecker_quiver(), "RC"), parse_vertex("1@0"), Window(0, 3)
    clear_cache()
    enable_disk_cache(str(tmp_path))
    try:
        for p in tmp_path.iterdir():
            p.unlink()
        sweep(ctx, source, w)
        (path,) = tmp_path.iterdir()
        ((prefix, record),) = _records(path)
        if data.draw(st.booleans(), label="cut"):
            line = _record_line(prefix, record)
            line = line[:data.draw(st.integers(0, len(line) - 1), label="at")]
        else:
            entries = record[1]
            target = data.draw(st.sampled_from([record, entries] + entries), label="list")
            k = data.draw(st.integers(0, len(target)), label="position")
            edit = data.draw(st.sampled_from(["set", "insert", "delete"]), label="edit")
            if edit == "insert" or not target:
                target.insert(k, data.draw(_json_values(), label="value"))
            elif edit == "set":
                target[k % len(target)] = data.draw(_json_values(), label="value")
            else:
                del target[k % len(target)]
            line = _record_line(prefix, record)
        path.write_bytes(line)
        _decodes_as_the_twin(ctx, source, w, line.strip(b"\n").partition(b"\t")[2])
        clear_cache()
        fun = sweep(ctx, source, w)
        assert isinstance(fun, mesh_hom.HomFunctor) and fun.dim(source) == 1
    finally:
        enable_disk_cache(None)
        clear_cache()


# ---------------------------------------------------------------------------
# The path oracle's enumeration: one slice lookup, heads from one memo.
# ---------------------------------------------------------------------------

def _twin_enumerate_paths(ctx, a, b, w):
    """enumerate_paths as it was: a fresh memo per call, the slice looked up at every step."""
    memo = {}

    def back(v):
        if v == a:
            return [()]
        if v.level < a.level:
            return []
        if v in memo:
            return memo[v]
        out = []
        for arr in ctx.in_arrows(v, w):
            for p in back(arr.source):
                out.append(p + (arr,))
        memo[v] = out
        return out

    return back(b)


def _twin_relator_rows(ctx, x, y, w, paths):
    """_relator_rows as it was: the heads and tails of every site enumerated afresh."""
    from stratakit.quiver_core import tau
    index = {p: i for i, p in enumerate(paths)}
    rq = ctx._slice(w)
    rows = []
    for p in range(x.level, y.level + 1):
        for node in ctx.q._topo:
            z = RepVertex(node, p)
            rel = rq.relator(z)
            if rel is None or tau(z).level < x.level:
                continue
            for hpath in _twin_enumerate_paths(ctx, x, tau(z), w):
                for tpath in _twin_enumerate_paths(ctx, z, y, w):
                    row = [Fraction(0)] * len(paths)
                    for sb, b in rel.terms:
                        row[index[hpath + (sb, b) + tpath]] += Fraction(1)
                    rows.append(row)
    return rows


ORACLE_CASES = [(A2, "kZQ", Window(0, 3)), (A2, "RC", Window(0, 3)), (a_n_quiver(3), "kZQ", Window(0, 3)),
                (a_n_quiver(3), "RC", Window(0, 2)), (d4_quiver(), "kZQ", Window(0, 2)),
                (d4_quiver(), "RC", Window(0, 2)), (kronecker_quiver(2), "RC", Window(0, 2))]


@pytest.mark.parametrize("quiver, flavor, w", ORACLE_CASES,
                         ids=["A2-kZQ", "A2-RC", "A3-kZQ", "A3-RC", "D4-kZQ", "D4-RC", "K2-RC"])
def test_relator_rows_match_the_per_site_enumeration_twin(quiver, flavor, w):
    """Every pair's paths and relator rows, in the same order, are those of the per-site twin."""
    ctx = MeshContext(quiver, flavor)
    verts = ctx.vertices_in(w)
    rows_seen = 0
    for x in verts:
        for y in verts:
            if y.level < x.level:
                continue
            paths = enumerate_paths(ctx, x, y, w)
            assert paths == _twin_enumerate_paths(ctx, x, y, w)
            rows = mesh_hom._relator_rows(ctx, x, y, w, paths)
            assert rows == _twin_relator_rows(ctx, x, y, w, paths)
            assert all(type(e) is Fraction for row in rows for e in row)
            rows_seen += len(rows)
    assert rows_seen > 0


def test_the_oracle_looks_its_slice_up_once_per_call(monkeypatch):
    ctx, w = MeshContext(d4_quiver(), "kZQ"), Window(0, 2)
    x, y = RepVertex("0", 0), RepVertex("0", 2)
    paths = enumerate_paths(ctx, x, y, w)
    looked = []
    real = mesh_hom.build_repetition
    monkeypatch.setattr(mesh_hom, "build_repetition", lambda *a: looked.append(a) or real(*a))
    assert enumerate_paths(ctx, x, y, w) == paths and len(looked) == 1
    assert mesh_hom._relator_rows(ctx, x, y, w, paths) and len(looked) == 2


def test_a_basis_with_a_repeated_path_fails_the_oracle(monkeypatch):
    """Replacing one basis path by a copy of another keeps the dimension but not independence,
    and sweep_matches_oracle says so."""
    real = mesh_hom.hom_basis
    checked = 0
    for quiver, flavor, w in ORACLE_CASES:
        ctx = MeshContext(quiver, flavor)
        verts = ctx.vertices_in(w)
        for x in verts:
            for y in verts:
                if y.level < x.level or real(ctx, x, y, w).dim < 2:
                    continue
                assert sweep_matches_oracle(ctx, x, y, w)

                def repeated(*args, **kwargs):
                    hb = real(*args, **kwargs)
                    hb.basis = [hb.basis[0], hb.basis[0]] + list(hb.basis[2:])
                    return hb

                monkeypatch.setattr(mesh_hom, "hom_basis", repeated)
                assert not sweep_matches_oracle(ctx, x, y, w), (flavor, x, y)
                monkeypatch.setattr(mesh_hom, "hom_basis", real)
                checked += 1
    assert checked > 0
