"""Explicit Hom bases in the mesh categories k(ZQ), R_C and S_C on a window.

For a fixed source a, the functor Hom(a, -) is built by one walk of the
window slice in order (_walk): at each vertex the generators are "previous
basis element followed by an incoming arrow" and the mesh relator of the
vertex is imposed once, as the image of Hom(a, tau(x)) inside the generator
sum, laid out by quiver_core.relator_row.  Basis elements are therefore
single paths, picked deterministically, and every arrow acts by an explicit
(sparse) matrix on the chosen bases.  The same walk loads a stored sweep,
reading each vertex's classes off the record instead of eliminating.  Raw path
enumeration plus dense Gaussian elimination (exact_linalg.reference_rref,
not the sparse rref the sweep runs on) is kept as the test oracle.

A Hom space computed on a window is exact (equal to the one of the full
infinite category) whenever both endpoints lie in the window: every path
and every relator instance between them lives on the intermediate levels.

In a tau-invariant context (kZQ, and RC and SC under the full
configuration) tau is an automorphism of the category, so
Hom(tau^-s x, tau^-s y) = Hom(x, y).  There a sweep is loaded or computed
only when no sweep held from the same node is at least as tall (reaches
as many levels above its source); every other one is a translate: a view
that reads the tallest held s levels lower, one vertex or arrow at a time
when asked, copies nothing, and is kept in memory and never stored.
_sweep, the walk without a record, is the only code that computes a sweep,
and it refuses one that would hold more than MAX_SWEEP_ENTRIES matrix entries.
"""
from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InternalConsistencyError, InvalidInputError
from .exact_linalg import QQ, mat_rank, mat_vec, quotient_coords, reference_rref
from .quiver_core import (
    Configuration,
    Quiver,
    RepArrow,
    RepVertex,
    Window,
    build_repetition,
    clear_slices,
    relator_row,
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

    It is read only through dim, basis_paths and columns, which a translate
    (_Translate) answers from its base.  The matrix of an arrow b: y -> v
    is held as its columns, one per basis element of Hom(source, y), each a
    dict of its nonzero coordinates in the basis at v.  kept[v] lists the
    generators whose classes form that basis (see _walk): 0, the identity,
    at the source.  The column of the kept generator kept[v][k] is the unit
    vector {k: 1}, so only the dropped generators' columns carry
    information, a disk record holds those alone, and a basis path reduces
    to its unit vector.  reduce_path and the composition matrices push sparse
    coordinates through the columns (_push) and keep no memo of reductions.
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

    def dim(self, y: RepVertex) -> int:
        return self.dims.get(y, 0)

    def basis_paths(self, y: RepVertex):
        return self.paths.get(y, [])

    def columns(self, b: RepArrow):
        """The columns of the matrix of the arrow b; none for an arrow into a level
        below the source or outside the window."""
        return self.mats.get(b, ())

    def reduce_path(self, path: Sequence[RepArrow]):
        """Coordinates of a path from the source in the basis at its endpoint, as a fresh list."""
        vec, end = _push(self, path)
        return [vec.get(r, self.field.zero) for r in range(self.dim(end))]


def _push(fun: HomFunctor, path, vec: Optional[dict] = None, at: Optional[RepVertex] = None):
    """vec, sparse coordinates in the basis of Hom(fun.source, at), pushed through the
    arrows of path one column lookup at a time, with the vertex it ends at; without vec,
    the identity of the source.

    The one routine that walks a sweep's arrows: every composite is such a push.  A
    coordinate that cancels is kept, with the value and type its sum gave."""
    if vec is None:
        if fun.dim(fun.source) == 0:
            raise InvalidInputError(f"source {fun.source} has no identity in this window")
        vec, at = {0: fun.field.one}, fun.source
    for arrow in path:
        if arrow.source != at:
            raise InvalidInputError(f"path does not start where expected at {arrow}")
        cols = fun.columns(arrow)
        out = {}
        if cols:
            for j, x in vec.items():
                if x:
                    for r, c in cols[j].items():
                        y = out.get(r)
                        out[r] = c * x if y is None else y + c * x
        vec, at = out, arrow.target
    return vec, at


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
    """Hom(source, -) on the window, computed: the only code that eliminates a sweep."""
    return _walk(ctx, source, window, field)


def _walk(ctx: MeshContext, source: RepVertex, window: Window, field, stored=None) -> HomFunctor:
    """Hom(source, -) on the window, built vertex by vertex in slice order: the generators at
    a vertex are its in-arrows in slice order, each after every basis path at its source,
    taken modulo the mesh relator's block row (relator_row) by quotient_coords; or, with
    stored, a record's dropped classes {vertex index: {generator: class}}, every other
    generator kept with its unit vector, and ValueError where the record does not fit."""
    if not window.contains(source):
        raise InvalidInputError(f"hom source {source} outside window {window.to_json()}")
    if not ctx.contains(source):
        raise InvalidInputError(f"{source} is not an object of the {ctx.flavor} category")
    fun = HomFunctor(ctx, source, window, field)
    dims, paths, kept, mats = fun.dims, fun.paths, fun.kept, fun.mats
    rq = ctx._slice(window)
    entries = 0
    for i, v in enumerate(rq.vertices):
        if v.level < source.level:
            dims[v], paths[v], kept[v] = 0, [], []
            continue
        in_arrows = rq.in_arrows(v)  # every arrow into the levels swept has a matrix, in slice order
        if v == source:
            dims[v], paths[v], kept[v] = 1, [()], [0]
            for b in in_arrows:
                mats[b] = []
            continue
        gen_dim = sum(dims[b.source] for b in in_arrows)
        if stored is not None:
            ks, coords = _stored_classes(stored.pop(i, {}), gen_dim)
        elif gen_dim:
            entries += gen_dim * gen_dim
            if entries > MAX_SWEEP_ENTRIES:
                raise InvalidInputError(
                    f"the sweep of Hom({source}, -) on the window {window.to_json()} would hold more than "
                    f"the limit of {MAX_SWEEP_ENTRIES} matrix entries at {v}; narrow the window")
            rel = relator_row(rq, v, dims, mats)
            ks, coords = quotient_coords(gen_dim, rel[0] if rel else [], field)
        else:
            ks = coords = []
        kept[v], dims[v], paths[v] = ks, len(ks), _kept_paths(in_arrows, paths, ks)
        off = 0
        for b in in_arrows:
            mats[b] = coords[off:off + dims[b.source]]
            off += dims[b.source]
    if stored:
        raise ValueError("classes stored at or below the source, or past the slice")
    return fun


def _stored_classes(dropped: dict, gen_dim: int):
    """The kept generators and every generator's class at a vertex with gen_dim generators,
    as quotient_coords gives them, from the classes a record stores for the dropped ones."""
    if any(g >= gen_dim for g in dropped):
        raise ValueError("a dropped generator past the vertex's generators")
    kept = [g for g in range(gen_dim) if g not in dropped]
    if any(r >= len(kept) for col in dropped.values() for r in col):
        raise ValueError("a class with a row past the kept basis")
    coords = [dropped.get(g) for g in range(gen_dim)]
    for k, g in enumerate(kept):
        coords[g] = {k: 1}
    return kept, coords


# ---------------------------------------------------------------------------
# Cache.  Append-only: concurrent readers are safe, insertion is exclusive.
# On disk, one append-only log per (context, window, field) holds one line
# per stored sweep (a translate is a view of one and is never stored): the
# escaped source key, a tab, then the compact JSON [4, entries].  The log's
# name hashes the context, window and field and the line's prefix names the
# source, so a record repeats neither.  entries holds [i, g, r, x, r, x, ...]
# for each dropped generator, in increasing (i, g): i is its vertex's index
# in slice order, g its index among that vertex's generators, then the
# nonzero coordinates of its class over the kept basis, row index and value
# (an int or a "p/q" string) alternating.  A kept generator's column is its
# unit vector, so _decode parses and checks the entries alone and hands the
# classes to the walk that computes sweeps (_walk), which rebuilds the kept
# lists, dimensions, basis paths and columns and refuses what does not fit.
# ---------------------------------------------------------------------------

_CACHE: Dict[tuple, HomFunctor] = {}
# The tallest sweep loaded or computed so far per (context key, node, frozen,
# field), for the tau-invariant contexts only: every shorter request from the
# same node is a view of it (_Translate), held in _CACHE and never on disk.
_TALLEST: Dict[tuple, HomFunctor] = {}
_CACHE_LOCK = threading.Lock()
_DISK_DIR: Optional[str] = None
_DISK_VERSION = 4


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
    """Drop every cached sweep, the tallest sweep held per node, every read log index and
    every shared window slice, category, Serre node map and fiber stage (quiver_core.shared).
    A sweep holds no memo of reduced paths: every composite is pushed afresh (_push)."""
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
    context a view translating the tallest sweep held from the source's node if
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
            fun = _Translate(base, source, window)
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


class _Translate(HomFunctor):
    """The sweep of Hom(source, -) on the window as a view of base, the sweep
    from a vertex of the same node, shift levels lower and at least as tall,
    in a tau-invariant context.

    tau^-shift is an automorphism of the category, and a sweep at and above
    its source does not depend on the levels below it, so the space at y is
    the base's at y shifted down, with each basis path shifted up, and each
    arrow acts by the base's matrix of the arrow shifted down (the same list
    object).  Spaces below the source and above the window are zero.
    Nothing is copied: each accessor reads the base the first time a vertex
    or arrow is asked for and memoizes the answer.
    """

    def __init__(self, base: HomFunctor, source: RepVertex, window: Window):
        super().__init__(base.ctx, source, window, base.field)
        self.base = base
        self.shift = source.level - base.source.level
        self._moved: Dict[RepArrow, RepArrow] = {}  # base arrow -> its translate

    def _covers(self, v: RepVertex) -> bool:
        return self.source.level <= v.level <= self.window.hi

    def _down(self, v: RepVertex) -> RepVertex:
        """The base's vertex that v translates."""
        return RepVertex(v.node, v.level - self.shift, v.frozen)

    def _up(self, bb: RepArrow) -> RepArrow:
        """The translate of the base's arrow bb: the window slice's own arrow object, so
        basis paths compare by identity wherever a sweep's would."""
        b = self._moved.get(bb)
        if b is None:
            u, v, s = bb.source, bb.target, self.shift
            b = RepArrow(bb.kind, bb.base, RepVertex(u.node, u.level + s, u.frozen), RepVertex(v.node, v.level + s, v.frozen))
            self._moved[bb] = b
        return b

    def dim(self, y: RepVertex) -> int:
        d = self.dims.get(y)
        if d is None:
            d = self.dims[y] = self.base.dim(self._down(y)) if self._covers(y) else 0
        return d

    def basis_paths(self, y: RepVertex):
        ps = self.paths.get(y)
        if ps is None:
            ps = self.paths[y] = ([tuple(map(self._up, p)) for p in self.base.basis_paths(self._down(y))]
                                  if self._covers(y) else [])
        return ps

    def columns(self, b: RepArrow):
        cols = self.mats.get(b)
        if cols is None:
            cols = self.mats[b] = (self.base.columns(RepArrow(b.kind, b.base, self._down(b.source),
                                                              self._down(b.target)))
                                   if self._covers(b.target) else ())
        return cols


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


def _dropped_entries(fun: HomFunctor):
    """[i, g, *stored class] for each dropped generator g at the i-th slice vertex, in
    increasing (i, g).  Raises InternalConsistencyError where a kept generator's column is
    not its unit vector, or a kept list names a generator the vertex does not have, since
    a record that omits the kept columns could not restore them."""
    rq = fun.ctx._slice(fun.window)
    for i, v in enumerate(rq.vertices):
        if v == fun.source:  # its one generator, the identity, is no arrow's column
            continue
        kept, g, k = fun.kept[v], 0, 0  # k: the position of the next kept generator
        for b in rq.in_arrows(v):
            for col in fun.columns(b):
                if k < len(kept) and kept[k] == g:
                    if col != {k: 1}:
                        raise InternalConsistencyError(
                            f"the sweep of Hom({fun.source}, -) on the window {fun.window.to_json()} holds the "
                            f"column {col} for the kept generator {g} at {v}, not its unit vector")
                    k += 1
                else:
                    yield [i, g] + _stored_column(col)
                g += 1
        if k != len(kept):
            raise InternalConsistencyError(
                f"the sweep of Hom({fun.source}, -) on the window {fun.window.to_json()} keeps the generators "
                f"{kept} at {v}, which has {g}")


def _disk_store(fun: HomFunctor, key):
    compact = json.JSONEncoder(separators=(",", ":")).encode
    # Encoded entry by entry: one encode of the whole record would hold a
    # string per number until the end.
    entries = ",".join(map(compact, _dropped_entries(fun)))
    skey = _source_key(fun.source).decode("ascii")
    line = f"\n{skey}\t[{_DISK_VERSION},[{entries}]]\n"
    del entries
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
            fun = _decode(ctx, source, window, raw)
            if fun is not None:
                return fun
        if not log.read_new():
            return None


def _decode(ctx: MeshContext, source: RepVertex, window: Window, raw: bytes) -> Optional[HomFunctor]:
    """The sweep a record holds (_walk), or None unless its entries increase in (i, g), each
    a class whose rows are distinct nonnegative ints with nonzero rational values, and
    the walk takes them all: each at a vertex above the source, inside its generators,
    with rows inside the kept basis."""
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
        version, entries = json.loads(raw)
        if version != _DISK_VERSION or type(entries) is not list:
            return None
        stored, last = {}, (-1, -1)
        for ent in entries:
            if (type(ent) is not list or len(ent) < 2 or len(ent) % 2 or type(ent[0]) is not int
                    or type(ent[1]) is not int or ent[1] < 0 or (ent[0], ent[1]) <= last):
                return None
            last = (ent[0], ent[1])
            col = {ent[j]: rational(ent[j + 1]) for j in range(2, len(ent), 2)}
            if 2 * len(col) != len(ent) - 2 or any(type(r) is not int or r < 0 for r in col):
                return None  # each row once
            stored.setdefault(ent[0], {})[ent[1]] = col
        return _walk(ctx, source, window, QQ, stored)
    except (ValueError, TypeError, ZeroDivisionError):
        return None  # unreadable, truncated or malformed: try the next record, else recompute


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


def _check_endpoints(ctx: MeshContext, x: RepVertex, y: RepVertex, w: Window):
    for v, role in ((x, "source"), (y, "target")):
        if not w.contains(v):
            raise InvalidInputError(f"{role} {v} outside window {w.to_json()}")
        if ctx.flavor == "SC" and not v.frozen:
            raise InvalidInputError(f"S_C morphism spaces live between frozen vertices, got {v}")
        if not ctx.contains(v):
            raise InvalidInputError(f"{v} is not an object of the {ctx.flavor} category")


def hom_basis(ctx: MeshContext, x: RepVertex, y: RepVertex, w: Window, field=QQ) -> HomBasis:
    _check_endpoints(ctx, x, y, w)
    return HomBasis(sweep(ctx, x, w, field), y)


def hom_dim(ctx: MeshContext, x: RepVertex, y: RepVertex, w: Window, field=QQ) -> int:
    if y.level < x.level:
        return 0
    _check_endpoints(ctx, x, y, w)
    return sweep(ctx, x, w, field).dim(y)


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


# Every composite in the package is read off one of the two matrices below,
# one column per basis path, each a push (_push) of sparse coordinates.

def precomposition_matrix(ctx: MeshContext, s_path: Sequence[RepArrow], u: RepVertex, v: RepVertex,
                          m: RepVertex, w: Window, field=QQ):
    """Matrix of Hom(v,m) -> Hom(u,m), f |-> f o s, for a path s: u -> v.

    The reduction of s is pushed along the prefix tree of Hom(v, m)'s basis
    paths (each is a basis path followed by one arrow), one arrow per path."""
    fun = sweep(ctx, u, w, field)
    paths = sweep(ctx, v, w, field).basis_paths(m)
    pushed = {(): _push(fun, s_path)} if paths else {}  # basis path p -> (s followed by p, pushed; its end)
    cols = []
    for p in paths:
        n = len(p)
        while p[:n] not in pushed:  # the longest prefix of p pushed so far
            n -= 1
        got = pushed[p[:n]]
        for i in range(n, len(p)):
            got = pushed[p[:i + 1]] = _push(fun, p[i:i + 1], *got)
        cols.append(got[0])
    return [[c.get(r, field.zero) for c in cols] for r in range(fun.dim(m))]


def postcomposition_matrix(ctx: MeshContext, a: RepVertex, path: Sequence[RepArrow], y: RepVertex,
                           w: Window, field=QQ):
    """Matrix of Hom(a,y) -> Hom(a,z), f |-> p o f, for a path p: y -> z: each basis
    element of Hom(a,y) pushed through p's arrows."""
    fun = sweep(ctx, a, w, field)
    cols = [_push(fun, path, {i: field.one}, y)[0] for i in range(fun.dim(y))]
    return [[c.get(r, field.zero) for c in cols] for r in range(fun.dim(path[-1].target if path else y))]


def check_configuration(q: Quiver, config: Configuration, w: Window) -> dict:
    """Report on condition (R) and on the two left-exact mesh sequences.

    For every vertex x of the window, condition (R) asks for some c in C
    with a nonzero mesh morphism x -> c.  A vertex whose morphisms could
    still reach a member above the window is reported "undetermined";
    vanishing on the entire top level certifies the support was seen.

    Left-exactness is checked per interior non-frozen vertex by a rank
    computation on Hom bases: the map Hom(u,x) -> (+) Hom(u,y) over arrows
    x -> y must be injective for every test object u (and dually).
    """
    ctx = MeshContext(q, "RC", config)
    kzq = MeshContext(q, "kZQ", None)
    rq = build_repetition(q, True, w, config)
    nonfrozen = [v for v in rq.vertices if not v.frozen]
    report = {"condition_R": {}, "left_exact": {}}

    for x in nonfrozen:
        found = None
        support_hits_top = False
        for c in nonfrozen:
            if c.level < x.level:
                continue
            if not config.contains(c):
                continue
            if hom_dim(kzq, x, c, w) > 0:
                found = c
                break
        if found is None:
            for y in nonfrozen:
                if y.level == w.hi and hom_dim(kzq, x, y, w) > 0:
                    support_hits_top = True
                    break
        if found is not None:
            report["condition_R"][x.key()] = {"holds": True, "witness": found.key()}
        elif support_hits_top:
            report["condition_R"][x.key()] = {"holds": None, "detail": "undetermined: window too small"}
        else:
            report["condition_R"][x.key()] = {"holds": False}

    for x in nonfrozen:
        if x.level >= w.hi:  # outgoing mesh leaves the window
            report["left_exact"][x.key()] = {"holds": None, "detail": "undetermined: boundary vertex"}
            continue
        ok = True
        outgoing = rq.out_arrows(x)
        incoming = rq.in_arrows(x)
        for u in rq.vertices:
            if u.level > x.level:
                continue
            dom = hom_dim(ctx, u, x, w)
            if dom == 0:
                continue
            rows = [r for a in outgoing for r in postcomposition_matrix(ctx, u, (a,), x, w)]
            if mat_rank(rows, dom, QQ) != dom:
                ok = False
                break
        if ok and x.level > w.lo:
            for u in rq.vertices:
                if u.level < x.level:
                    continue
                dom = hom_dim(ctx, x, u, w)
                if dom == 0:
                    continue
                rows = [r for a in incoming for r in precomposition_matrix(ctx, (a,), a.source, x, u, w)]
                if mat_rank(rows, dom, QQ) != dom:
                    ok = False
                    break
        report["left_exact"][x.key()] = {"holds": ok}
    return report


# ---------------------------------------------------------------------------
# Raw path-enumeration oracle (ground truth for the sweep).
# ---------------------------------------------------------------------------

def _paths_from(rq, a: RepVertex):
    """back(v): every directed path a -> v in the slice rq, lexicographic by construction
    (by last arrow, then by prefix), memoized per endpoint, so paths from a to many
    endpoints share their prefixes."""
    memo: Dict[RepVertex, List[Tuple[RepArrow, ...]]] = {a: [()]}

    def back(v: RepVertex) -> List[Tuple[RepArrow, ...]]:
        out = memo.get(v)
        if out is None:
            if v.level < a.level:
                return []
            out = memo[v] = [p + (arr,) for arr in rq.in_arrows(v) for p in back(arr.source)]
        return out

    return back


def enumerate_paths(ctx: MeshContext, a: RepVertex, b: RepVertex, w: Window) -> List[Tuple[RepArrow, ...]]:
    """All directed paths a -> b inside the window, lexicographic by construction."""
    if not (w.contains(a) and w.contains(b)):
        raise InvalidInputError("path enumeration endpoints must lie in the window")
    return _paths_from(ctx._slice(w), a)(b)


# The oracle's rows hold Fractions only, never the ints the sweeps run on.
_ZERO, _ONE = Fraction(0), Fraction(1)


def _relator_rows(ctx: MeshContext, x: RepVertex, y: RepVertex, w: Window, paths) -> List[list]:
    """One row per mesh-relator instance x -> tau(z) ~> z -> y, over the given paths x -> y.

    The slice is looked up once; every head x -> tau(z) comes from one memo of the paths
    out of x, and the tails z -> y of each site from their own."""
    index = {p: i for i, p in enumerate(paths)}
    rq = ctx._slice(w)
    heads_to = _paths_from(rq, x)
    rel_rows = []
    for p in range(x.level, y.level + 1):
        for node in ctx.q._topo:
            z = RepVertex(node, p)
            rel = rq.relator(z)
            if rel is None or tau(z).level < x.level:
                continue
            heads = heads_to(tau(z))
            tails = _paths_from(rq, z)(y)
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
