"""Explicit Hom bases in the mesh categories k(ZQ), R_C and S_C on a window.

For a fixed source a, the functor Hom(a, -) is built by a level sweep in
topological order: at each vertex the generators are "previous basis
element followed by an incoming arrow" and the mesh relator of the vertex
is imposed once, as the image of Hom(a, tau(x)) inside the generator sum.
Basis elements are therefore single paths, picked deterministically, and
every arrow acts by an explicit (sparse) matrix on the chosen bases.  Raw path
enumeration plus dense Gaussian elimination (exact_linalg.reference_rref,
not the sparse rref the sweep runs on) is kept as the test oracle.

A Hom space computed on a window is exact (equal to the one of the full
infinite category) whenever both endpoints lie in the window: every path
and every relator instance between them lives on the intermediate levels.

In a tau-invariant context (kZQ, and RC and SC under the full
configuration) tau is an automorphism of the category, so
Hom(tau^-s x, tau^-s y) = Hom(x, y).  There a sweep is loaded or computed
only when no sweep held from the same node is at least as tall (reaches
as many levels above its source); every other one is the translate of the
tallest held, sharing its arrow matrices, kept in memory and never stored.
_sweep is the only code that computes a sweep, and it refuses one that
would hold more than MAX_SWEEP_ENTRIES matrix entries.
"""
from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvalidInputError
from .exact_linalg import QQ, mat_vec, quotient_coords, reference_rref
from .quiver_core import (
    Configuration,
    Quiver,
    RepArrow,
    RepVertex,
    Window,
    build_repetition,
    clear_slices,
    tau,
)

try:  # the builtin digest, as in the stdlib's random: hashlib would load OpenSSL's libcrypto
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

FLAVORS = ("kZQ", "RC", "SC")


class MeshContext:
    """A mesh category flavor: the base quiver, framing and configuration.

    kZQ: repetition quiver of Q, mesh relations at every vertex.
    RC:  framed repetition quiver, frozen vertices outside the retained set
         dropped, mesh relations at non-frozen vertices only.
    SC:  the full subcategory of RC on the retained frozen vertices; its
         Hom spaces are literally the RC ones between frozen endpoints.

    Immutable once built, like its quiver and configuration: the cache key
    that identifies its sweeps is computed once, at construction.
    """

    def __init__(self, q: Quiver, flavor: str, config: Optional[Configuration] = None):
        if flavor not in FLAVORS:
            raise InvalidInputError(f"unknown flavor {flavor!r}")
        self.q = q
        self.flavor = flavor
        self.framed = flavor != "kZQ"
        if not self.framed and config is not None and not config.is_full():
            raise InvalidInputError("configurations only apply to the framed flavors")
        self.config = config if config is not None else Configuration.full()
        # tau is an automorphism of kZQ, and of RC and SC under the full configuration
        self.tau_invariant = self.config.is_full()
        fl = "RC" if flavor == "SC" else flavor  # SC shares the RC sweeps
        self._cache_key = f"{q.key()}|{fl}|{self.config.key() if self.framed else '-'}"

    def cache_key(self) -> str:
        return self._cache_key

    def contains(self, v: RepVertex) -> bool:
        if v.node not in self.q.topo_index:
            return False
        if v.frozen:
            return self.framed and self.config.retains(v)
        return True

    def vertices_in(self, w: Window) -> List[RepVertex]:
        return list(self._slice(w).vertices)

    def in_arrows(self, v: RepVertex, w: Window):
        return self._slice(w).in_arrows(v)

    def out_arrows(self, v: RepVertex, w: Window):
        return self._slice(w).out_arrows(v)

    def _slice(self, w: Window):
        """The shared window slice of this category's quiver: its objects and arrows."""
        return build_repetition(self.q, self.framed, w, self.config)


class HomFunctor:
    """Hom(source, -) on a window: dimensions, basis paths, arrow actions.

    The matrix of an arrow b: y -> v is held as its columns, one per basis
    element of Hom(source, y), each a dict of its nonzero coordinates in
    the basis at v.  kept[v] lists the generators whose classes form that
    basis (see _sweep): 0, the identity, at the source.
    """

    def __init__(self, ctx: MeshContext, source: RepVertex, window: Window, field):
        self.ctx = ctx
        self.source = source
        self.window = window
        self.field = field
        self.dims: Dict[RepVertex, int] = {}
        self.paths: Dict[RepVertex, List[Tuple[RepArrow, ...]]] = {}
        self.kept: Dict[RepVertex, List[int]] = {}
        self.mats: Dict[RepArrow, List[Dict[int, object]]] = {}
        self._reduced: Dict[Tuple[RepArrow, ...], tuple] = {}

    def dim(self, y: RepVertex) -> int:
        return self.dims.get(y, 0)

    def basis_paths(self, y: RepVertex):
        return self.paths.get(y, [])

    def apply_arrow(self, arrow: RepArrow, vec):
        out = [self.field.zero] * self.dim(arrow.target)
        for x, col in zip(vec, self.mats.get(arrow, ())):
            if x:
                for r, c in col.items():
                    out[r] += c * x
        return out

    def reduce_path(self, path: Sequence[RepArrow]):
        """Coordinates of a path from the source in the basis at its endpoint.

        Walks are memoized by path on the functor, so they live and die with
        the cached sweep and never reach the disk; a walk that raised is not
        memoized.  Each call returns a fresh list.
        """
        return list(self._reduce(tuple(path)))

    def _reduce(self, path: Tuple[RepArrow, ...]) -> tuple:
        """The memoized reduction of a path: its last arrow applied to the
        reduction of the longest memoized prefix, one arrow at a time, with
        every prefix walked on the way memoized too.  Basis paths form a
        prefix tree, so a path whose prefix was reduced costs one arrow
        matrix."""
        memo = self._reduced
        vec = memo.get(path)
        if vec is not None:
            return vec
        n = len(path) - 1
        while n >= 0:
            vec = memo.get(path[:n])
            if vec is not None:
                break
            n -= 1
        else:
            if self.dim(self.source) == 0:
                raise InvalidInputError(f"source {self.source} has no identity in this window")
            vec = memo[()] = (self.field.one,)
            n = 0
        for i in range(n, len(path)):
            arrow = path[i]
            if arrow.source != (path[i - 1].target if i else self.source):
                raise InvalidInputError(f"path does not start where expected at {arrow}")
            vec = memo[path[:i + 1]] = tuple(self.apply_arrow(arrow, vec))
        return vec


# The most elimination entries one sweep may take on.  A vertex with gen_dim
# generators counts gen_dim**2, the size of the square system its elimination
# reduces (relator rows gen_dim wide, one class per generator); the arrow
# matrices are held sparse and never laid out dense.  _sweep refuses, before
# its elimination, the vertex that takes that total past the limit.  The
# largest sweep in the tests counts 12.0 M (the 3-Kronecker RC from 1'@0 over
# [0, 4], whose matrices hold 7,652 nonzero entries), in the benchmark 56 K.
MAX_SWEEP_ENTRIES = 16_000_000


def _kept_paths(in_arrows, paths, kept) -> list:
    """The basis paths named by increasing generator indices at a vertex: generator
    offset_b + j is the j-th basis path at the source of the in-arrow b (in slice order),
    followed by b."""
    out, i, off = [], 0, 0
    for g in kept:
        while g - off >= len(paths[in_arrows[i].source]):
            off += len(paths[in_arrows[i].source])
            i += 1
        b = in_arrows[i]
        out.append(paths[b.source][g - off] + (b,))
    return out


def _sweep(ctx: MeshContext, source: RepVertex, window: Window, field) -> HomFunctor:
    if not window.contains(source):
        raise InvalidInputError(f"hom source {source} outside window {window.to_json()}")
    if not ctx.contains(source):
        raise InvalidInputError(f"{source} is not an object of the {ctx.flavor} category")
    fun = HomFunctor(ctx, source, window, field)
    dims, paths, kept, mats = fun.dims, fun.paths, fun.kept, fun.mats
    rq = ctx._slice(window)
    entries = 0
    for v in rq.vertices:
        if v.level < source.level:
            dims[v], paths[v], kept[v] = 0, [], []
            continue
        in_arrows = rq.in_arrows(v)
        for b in in_arrows:  # every arrow into the levels swept has a matrix, in slice order
            mats[b] = []
        if v == source:
            dims[v], paths[v], kept[v] = 1, [()], [0]
            continue
        offsets = []
        gen_dim = 0
        for b in in_arrows:
            offsets.append(gen_dim)
            gen_dim += dims[b.source]
        if gen_dim == 0:
            dims[v], paths[v], kept[v] = 0, [], []
            continue
        entries += gen_dim * gen_dim
        if entries > MAX_SWEEP_ENTRIES:
            raise InvalidInputError(
                f"the sweep of Hom({source}, -) on the window {window.to_json()} would hold more than "
                f"the limit of {MAX_SWEEP_ENTRIES} matrix entries at {v}; narrow the window")
        rel_cols = []
        rel = rq.relator(v)
        if rel is not None:
            # column k of the relator: column k of each sigma-arrow's matrix, at its block
            blocks = [(mats[sb], off) for (sb, _), off in zip(rel.terms, offsets) if sb in mats]
            rel_cols = [{off + j: x for m, off in blocks for j, x in m[k].items()} for k in range(dims[tau(v)])]
        kept[v], coords = quotient_coords(gen_dim, rel_cols, field)
        dims[v] = len(kept[v])
        paths[v] = _kept_paths(in_arrows, paths, kept[v])
        for b, off in zip(in_arrows, offsets):
            mats[b] = coords[off:off + dims[b.source]]
    return fun


# ---------------------------------------------------------------------------
# Cache.  Append-only: concurrent readers are safe, insertion is exclusive.
# On disk, one append-only log per (context, window, field) holds one line
# per stored sweep (translates are never stored): the escaped source key, a
# tab, then the compact JSON [version, repr(key), kept, mats].  kept holds
# each slice vertex's kept generator indices, from which the basis paths are
# rebuilt (_kept_paths); mats holds, for each arrow into the levels the sweep
# covers in slice order, its columns as alternating row indices and nonzero
# rationals (ints or "p/q" strings).
# ---------------------------------------------------------------------------

_CACHE: Dict[tuple, HomFunctor] = {}
# The tallest sweep loaded or computed so far per (context key, node, frozen,
# field), for the tau-invariant contexts only: every shorter request from the
# same node is its translate (_translate), held in _CACHE and never on disk.
_TALLEST: Dict[tuple, HomFunctor] = {}
_CACHE_LOCK = threading.Lock()
_DISK_DIR: Optional[str] = None
_DISK_VERSION = 3


class _Log:
    """The records of one sweep log read so far, indexed by source key and parsed on demand."""

    def __init__(self, path: str):
        self.path = path
        self.offset = 0  # end of the last complete line read or appended
        self.records: Dict[bytes, List[bytes]] = {}

    def read_new(self) -> bool:
        """Index the complete lines appended since the last read; False if there were none.

        A trailing line without its newline (a record still being written,
        or torn by a writer that died) is left for a later read.
        """
        try:
            if os.stat(self.path).st_size <= self.offset:
                return False
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                chunk = fh.read()
        except OSError:
            return False
        lines = chunk.split(b"\n")
        self.offset += len(chunk) - len(lines.pop())  # the part after the last newline waits
        for line in lines:
            skey, tab, raw = line.partition(b"\t")
            if tab:
                self.records.setdefault(skey, []).append(raw)
        return bool(lines)


_LOGS: Dict[tuple, _Log] = {}


def clear_cache():
    """Drop every cached sweep, with its path memo, the tallest sweep held per node, every
    read log index and every shared window slice, category, Serre node map and fiber stage
    (quiver_core.shared)."""
    with _CACHE_LOCK:
        _CACHE.clear()
        _TALLEST.clear()
        _LOGS.clear()
        clear_slices()


def enable_disk_cache(directory: Optional[str]):
    """Persist rational Hom sweeps under the given directory (append-only logs)."""
    global _DISK_DIR
    if directory:
        os.makedirs(directory, exist_ok=True)
    _DISK_DIR = directory
    _LOGS.clear()


def _height(fun: HomFunctor) -> int:
    return fun.window.hi - fun.source.level


def sweep(ctx: MeshContext, source: RepVertex, window: Window, field=QQ) -> HomFunctor:
    """Hom(source, -) on the window: the cached sweep, else in a tau-invariant
    context the translate of the tallest sweep held from the source's node if
    that is at least as tall (window.hi - source.level), else the stored or a
    newly computed (and stored) sweep, which becomes its node's tallest."""
    fkey = field.key
    key = (ctx.cache_key(), window.lo, window.hi, source, fkey)
    fun = _CACHE.get(key)
    if fun is not None:
        return fun
    node_key = None
    if ctx.tau_invariant and window.contains(source) and ctx.contains(source):
        node_key = (key[0], source.node, source.frozen, fkey)
        base = _TALLEST.get(node_key)
        if base is not None and _height(base) >= window.hi - source.level:
            fun = _translate(ctx, base, source, window, field)
    if fun is None:
        on_disk = _DISK_DIR and fkey == "QQ"
        if on_disk:
            fun = _disk_load(ctx, source, window, key)
        if fun is None:
            fun = _sweep(ctx, source, window, field)
            if on_disk:
                _disk_store(fun, key)
    with _CACHE_LOCK:
        fun = _CACHE.setdefault(key, fun)
        if node_key is not None:  # a translate is at most as tall as its base: it never replaces it
            held = _TALLEST.get(node_key)
            if held is None or _height(held) < _height(fun):
                _TALLEST[node_key] = fun
        return fun


def _translate(ctx: MeshContext, base: HomFunctor, source: RepVertex, window: Window, field) -> HomFunctor:
    """The sweep of Hom(source, -) on the window, read off the sweep base from
    a vertex of the same node, at least as tall, in a tau-invariant context.

    tau^-s, s the level difference, is an automorphism of the category, and a
    sweep at and above its source does not depend on the levels below it, so
    dims, kept generators and basis paths are the base's shifted by s levels
    and each arrow acts by the base's matrix (the same list object).  Spaces
    below the source are zero, an arrow into the source level from below
    acts by a matrix with no columns, and every dict has the key order _sweep
    gives it.
    """
    s = source.level - base.source.level
    fun = HomFunctor(ctx, source, window, field)
    dims, paths, kept, mats = fun.dims, fun.paths, fun.kept, fun.mats
    moved: Dict[RepArrow, RepArrow] = {}  # base arrow -> its translate
    lo = source.level
    rq = ctx._slice(window)
    for v in rq.vertices:
        if v.level < lo:
            dims[v], paths[v], kept[v] = 0, [], []
            continue
        bv = RepVertex(v.node, v.level - s, v.frozen)
        dims[v], kept[v] = base.dims[bv], base.kept[bv]
        for b in rq.in_arrows(v):
            u = b.source
            if u.level < lo:
                mats[b] = []
                continue
            bb = RepArrow(b.kind, b.base, RepVertex(u.node, u.level - s, u.frozen), bv)
            moved[bb] = b
            mats[b] = base.mats[bb]
        paths[v] = [tuple(map(moved.__getitem__, p)) for p in base.paths[bv]]
    return fun


def _disk_path(key) -> str:
    """The log holding every source's sweep for the key's context, window and field."""
    ctx_key, lo, hi, _source, fkey = key
    digest = sha256(repr((ctx_key, lo, hi, fkey)).encode()).hexdigest()[:32]
    return os.path.join(_DISK_DIR, f"hom-{digest}.log")


def _log(key) -> _Log:
    lkey = (key[0], key[1], key[2], key[4])
    log = _LOGS.get(lkey)
    if log is None:
        log = _LOGS[lkey] = _Log(_disk_path(key))
    return log


def _source_key(source: RepVertex) -> bytes:
    return source.key().encode("unicode_escape")  # no raw tab or newline


def _stored_column(col) -> list:
    """A sparse column as JSON takes it: row index and value, alternating, each integral
    value as its numerator and any other as a "p/q" string."""
    out = []
    for r, x in col.items():
        out.append(r)
        out.append(x if type(x) is int else x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}")
    return out


def _disk_store(fun: HomFunctor, key):
    rq = fun.ctx._slice(fun.window)
    compact = json.JSONEncoder(separators=(",", ":")).encode
    kept = compact([fun.kept[v] for v in rq.vertices])
    # Encoded arrow by arrow, in slice order: one encode of the whole record
    # would hold a string per number until the end.
    mats = ",".join(compact([_stored_column(col) for col in m]) for m in fun.mats.values())
    skey = _source_key(fun.source).decode("ascii")
    line = f"\n{skey}\t[{_DISK_VERSION},{compact(repr(key))},{kept},[{mats}]]\n"
    del kept, mats
    data = line.encode()
    del line
    # One write on an O_APPEND descriptor: concurrent appends never interleave,
    # and the leading newline ends any torn record a crashed writer left.
    log = _log(key)
    try:
        fd = os.open(log.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            written = os.write(fd, data)
            end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
    except OSError:
        return
    if written == len(data) and end - written == log.offset:
        log.offset = end  # nothing else was appended since the last read: skip our own record


def _disk_load(ctx: MeshContext, source: RepVertex, window: Window, key) -> Optional[HomFunctor]:
    """The first stored record for the key that passes every check, or None.

    The log is read once per clear_cache(); on a miss only the bytes appended
    since, by this or another process, are read before giving up.
    """
    log = _log(key)
    skey = _source_key(source)
    while True:
        for raw in log.records.pop(skey, ()):
            fun = _decode(ctx, source, window, key, raw)
            if fun is not None:
                return fun
        if not log.read_new():
            return None


def _decode(ctx: MeshContext, source: RepVertex, window: Window, key, raw: bytes) -> Optional[HomFunctor]:
    """The sweep a record holds, or None unless each kept list increases within its vertex's
    generators ([0] at the source) and each column lists rows of its matrix once, nonzero."""
    rq = ctx._slice(window)
    vertices = rq.vertices
    fracs: Dict[str, Fraction] = {}  # equal "p/q" entries share one Fraction

    def rational(x):  # a nonzero int, or a "p/q" string of a rational that is not one
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
        version, rkey, kept, mats = json.loads(raw)
        if version != _DISK_VERSION or rkey != repr(key) or len(kept) != len(vertices):
            return None
        fun = HomFunctor(ctx, source, window, QQ)
        dims, paths = fun.dims, fun.paths
        for v, ks in zip(vertices, kept):
            if (type(ks) is not list or any(type(g) is not int for g in ks) or ks != sorted(set(ks))
                    or ks and ks[0] < 0 or (v == source and ks != [0])):
                return None
            fun.kept[v], dims[v] = ks, len(ks)
            # an index past the vertex's generators raises IndexError in _kept_paths
            paths[v] = [()] if v == source else _kept_paths(rq.in_arrows(v), paths, ks)
        arrows = [b for b in rq.arrows if b.target.level >= source.level]  # one matrix each, in slice order
        if type(mats) is not list or len(mats) != len(arrows):
            return None
        for b, m in zip(arrows, mats):
            rows = dims[b.target]
            if type(m) is not list or len(m) != dims[b.source] or any(type(flat) is not list for flat in m):
                return None
            cols = fun.mats[b] = [{flat[i]: rational(flat[i + 1]) for i in range(0, len(flat), 2)} for flat in m]
            # each column lists rows inside the matrix, each once
            if any(2 * len(col) != len(flat) or any(type(r) is not int or not 0 <= r < rows for r in col)
                   for col, flat in zip(cols, m)):
                return None
    except (ValueError, TypeError, IndexError, ZeroDivisionError):
        return None  # unreadable, truncated or malformed: try the next record, else recompute
    return fun


# ---------------------------------------------------------------------------
# Public morphism-space API.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Morphism:
    """An element of Hom(source, target), as coordinates in the chosen basis."""

    source: RepVertex
    target: RepVertex
    coeffs: tuple

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)


class HomBasis:
    """An explicit basis of a morphism space, with its reduction map."""

    def __init__(self, functor: HomFunctor, target: RepVertex):
        self.functor = functor
        self.source = functor.source
        self.target = target
        self.dim = functor.dim(target)
        self.basis = functor.basis_paths(target)

    def reduce_path(self, path: Sequence[RepArrow]) -> Morphism:
        vec = self.functor.reduce_path(path)
        return Morphism(self.source, self.target, tuple(vec))

    def to_json(self):
        return {"dim": self.dim, "basis": [[a.key() for a in p] for p in self.basis]}


def _check_endpoint(ctx: MeshContext, v: RepVertex, w: Window, role: str):
    if not w.contains(v):
        raise InvalidInputError(f"{role} {v} outside window {w.to_json()}")
    if ctx.flavor == "SC" and not v.frozen:
        raise InvalidInputError(f"S_C morphism spaces live between frozen vertices, got {v}")
    if not ctx.contains(v):
        raise InvalidInputError(f"{v} is not an object of the {ctx.flavor} category")


def hom_basis(ctx: MeshContext, x: RepVertex, y: RepVertex, w: Window, field=QQ) -> HomBasis:
    _check_endpoint(ctx, x, w, "source")
    _check_endpoint(ctx, y, w, "target")
    return HomBasis(sweep(ctx, x, w, field), y)


def hom_dim(ctx: MeshContext, x: RepVertex, y: RepVertex, w: Window, field=QQ) -> int:
    if y.level < x.level:
        return 0
    return hom_basis(ctx, x, y, w, field).dim


def compose(ctx: MeshContext, f: Morphism, g: Morphism, w: Window, field=QQ) -> Morphism:
    """g after f: f in Hom(x,y), g in Hom(y,z) gives an element of Hom(x,z)."""
    if f.target != g.source:
        raise InvalidInputError(f"cannot compose {f.source}->{f.target} with {g.source}->{g.target}")
    acc = [field.zero] * sweep(ctx, f.source, w, field).dim(g.target)
    for cj, path in zip(g.coeffs, sweep(ctx, g.source, w, field).basis_paths(g.target)):
        if cj != field.zero:
            img = mat_vec(postcomposition_matrix(ctx, f.source, path, f.target, w, field), f.coeffs, field)
            acc = [x + cj * y for x, y in zip(acc, img)]
    return Morphism(f.source, g.target, tuple(acc))


# Every composite in the package is read off one of the two matrices below:
# the reduced concatenated path, one column per basis path.

def _reduced_columns(fun: HomFunctor, end: RepVertex, paths) -> list:
    """The matrix whose columns are the reductions of paths, all from fun.source to end."""
    cols = [fun.reduce_path(p) for p in paths]
    return [[c[i] for c in cols] for i in range(fun.dim(end))]


def precomposition_matrix(ctx: MeshContext, s_path: Sequence[RepArrow], u: RepVertex, v: RepVertex,
                          m: RepVertex, w: Window, field=QQ):
    """Matrix of Hom(v,m) -> Hom(u,m), f |-> f o s, for a path s: u -> v."""
    s_path = tuple(s_path)
    return _reduced_columns(sweep(ctx, u, w, field), m,
                            [s_path + p for p in sweep(ctx, v, w, field).basis_paths(m)])


def postcomposition_matrix(ctx: MeshContext, a: RepVertex, path: Sequence[RepArrow], y: RepVertex,
                           w: Window, field=QQ):
    """Matrix of Hom(a,y) -> Hom(a,z), f |-> p o f, for a path p: y -> z."""
    path = tuple(path)
    fun = sweep(ctx, a, w, field)
    return _reduced_columns(fun, path[-1].target if path else y, [p + path for p in fun.basis_paths(y)])


# ---------------------------------------------------------------------------
# Raw path-enumeration oracle (ground truth for the sweep).
# ---------------------------------------------------------------------------

def enumerate_paths(ctx: MeshContext, a: RepVertex, b: RepVertex, w: Window) -> List[Tuple[RepArrow, ...]]:
    """All directed paths a -> b inside the window, lexicographic by construction."""
    if not (w.contains(a) and w.contains(b)):
        raise InvalidInputError("path enumeration endpoints must lie in the window")
    memo: Dict[RepVertex, List[Tuple[RepArrow, ...]]] = {}

    def back(v: RepVertex) -> List[Tuple[RepArrow, ...]]:
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


# The oracle's rows hold Fractions only, never the ints the sweeps run on.
_ZERO, _ONE = Fraction(0), Fraction(1)


def _relator_rows(ctx: MeshContext, x: RepVertex, y: RepVertex, w: Window, paths) -> List[list]:
    """One row per mesh-relator instance x -> tau(z) ~> z -> y, over the given paths x -> y."""
    index = {p: i for i, p in enumerate(paths)}
    rq = ctx._slice(w)
    rel_rows = []
    for p in range(x.level, y.level + 1):
        for node in ctx.q._topo:
            z = RepVertex(node, p)
            rel = rq.relator(z)
            if rel is None or tau(z).level < x.level:
                continue
            heads = enumerate_paths(ctx, x, tau(z), w)
            tails = enumerate_paths(ctx, z, y, w)
            for hpath in heads:
                for tpath in tails:
                    row = [_ZERO] * len(paths)
                    for sb, b in rel.terms:
                        row[index[hpath + (sb, b) + tpath]] += _ONE
                    rel_rows.append(row)
    return rel_rows


def hom_dim_oracle(ctx: MeshContext, x: RepVertex, y: RepVertex, w: Window) -> int:
    """dim Hom(x,y) by listing every path and every mesh-relator instance."""
    paths = enumerate_paths(ctx, x, y, w)
    if not paths:
        return 1 if x == y else 0
    rel_rows = _relator_rows(ctx, x, y, w, paths)
    return len(paths) - len(reference_rref(rel_rows, len(paths), QQ)[1])


def sweep_matches_oracle(ctx: MeshContext, x: RepVertex, y: RepVertex, w: Window) -> bool:
    """Check that the sweep basis spans and is independent modulo the relator ideal.

    The relator rows are built and ranked once: their rank gives the oracle
    dimension, and one more rank with the basis paths' unit rows appended
    tests that the basis is independent modulo them.
    """
    paths = enumerate_paths(ctx, x, y, w)
    hb = hom_basis(ctx, x, y, w)
    if not paths:
        return hb.dim == (1 if x == y else 0)
    rel_rows = _relator_rows(ctx, x, y, w, paths)
    base_rank = len(reference_rref(rel_rows, len(paths), QQ)[1])
    if hb.dim != len(paths) - base_rank:
        return False
    index = {p: i for i, p in enumerate(paths)}
    unit_rows = []
    for bp in hb.basis:
        row = [_ZERO] * len(paths)
        row[index[bp]] = _ONE
        unit_rows.append(row)
    return len(reference_rref(rel_rows + unit_rows, len(paths), QQ)[1]) == base_rank + hb.dim
