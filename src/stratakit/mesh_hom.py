"""Explicit Hom bases in the mesh categories k(ZQ), R_C and S_C on a window.

For a fixed source a, the functor Hom(a, -) is built by a level sweep in
topological order: at each vertex the generators are "previous basis
element followed by an incoming arrow" and the mesh relator of the vertex
is imposed once, as the image of Hom(a, tau(x)) inside the generator sum.
Basis elements are therefore single paths, picked deterministically, and
every arrow acts by an explicit matrix on the chosen bases.  Raw path
enumeration plus Gaussian elimination is kept as the test oracle.

A Hom space computed on a window is exact (equal to the one of the full
infinite category) whenever both endpoints lie in the window: every path
and every relator instance between them lives on the intermediate levels.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvalidInputError
from .exact_linalg import QQ, mat_rank, quotient_coords
from .quiver_core import (
    Configuration,
    Quiver,
    RepArrow,
    RepVertex,
    Window,
    parse_arrow_key,
    sigma_arrow,
    tau,
)

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

    def topo_key(self, v: RepVertex):
        return (v.level, 2 * self.q.topo_index[v.node] + (1 if v.frozen else 0))

    def vertices_in(self, w: Window) -> List[RepVertex]:
        out = []
        for p in w.levels():
            for node in self.q._topo:
                v = RepVertex(node, p)
                out.append(v)
                u = RepVertex(node, p, True)
                if self.contains(u):
                    out.append(u)
        return out

    def in_arrows(self, v: RepVertex, w: Window) -> List[RepArrow]:
        if not w.contains(v) or not self.contains(v):
            return []
        out = []
        if v.frozen:
            src = RepVertex(v.node, v.level)
            if w.contains(src):
                out.append(RepArrow("f", v.node, src, v))
            return out
        for a in self.q.arrows_into(v.node):
            src = RepVertex(a.source, v.level)
            if w.contains(src):
                out.append(RepArrow("a", a.id, src, v))
        for a in self.q.arrows_from(v.node):
            src = RepVertex(a.target, v.level - 1)
            if w.contains(src):
                out.append(RepArrow("s", a.id, src, v))
        src = RepVertex(v.node, v.level - 1, True)
        if self.contains(src) and w.contains(src):
            out.append(RepArrow("c", v.node, src, v))
        return out

    def out_arrows(self, v: RepVertex, w: Window) -> List[RepArrow]:
        if not w.contains(v) or not self.contains(v):
            return []
        out = []
        if v.frozen:
            tgt = RepVertex(v.node, v.level + 1)
            if w.contains(tgt):
                out.append(RepArrow("c", v.node, v, tgt))
            return out
        for a in self.q.arrows_from(v.node):
            tgt = RepVertex(a.target, v.level)
            if w.contains(tgt):
                out.append(RepArrow("a", a.id, v, tgt))
        for a in self.q.arrows_into(v.node):
            tgt = RepVertex(a.source, v.level + 1)
            if w.contains(tgt):
                out.append(RepArrow("s", a.id, v, tgt))
        u = RepVertex(v.node, v.level, True)
        if self.contains(u) and w.contains(u):
            out.append(RepArrow("f", v.node, v, u))
        return out

    def imposes_relator(self, v: RepVertex, w: Window) -> bool:
        return (not v.frozen) and w.contains(tau(v))


class HomFunctor:
    """Hom(source, -) on a window: dimensions, basis paths, arrow actions."""

    def __init__(self, ctx: MeshContext, source: RepVertex, window: Window, field):
        self.ctx = ctx
        self.source = source
        self.window = window
        self.field = field
        self.dims: Dict[RepVertex, int] = {}
        self.paths: Dict[RepVertex, List[Tuple[RepArrow, ...]]] = {}
        self.mats: Dict[RepArrow, List[List]] = {}

    def dim(self, y: RepVertex) -> int:
        return self.dims.get(y, 0)

    def basis_paths(self, y: RepVertex):
        return self.paths.get(y, [])

    def apply_arrow(self, arrow: RepArrow, vec):
        mat = self.mats.get(arrow)
        if mat is None:
            return [self.field.zero] * self.dim(arrow.target)
        return [sum((row[j] * vec[j] for j in range(len(vec)) if vec[j] != self.field.zero), self.field.zero)
                for row in mat]

    def reduce_path(self, path: Sequence[RepArrow]):
        """Coordinates of a path from the source in the basis at its endpoint."""
        at = self.source
        vec = [self.field.one] if self.dim(at) else []
        if self.dim(at) == 0:
            raise InvalidInputError(f"source {self.source} has no identity in this window")
        for arrow in path:
            if arrow.source != at:
                raise InvalidInputError(f"path does not start where expected at {arrow}")
            vec = self.apply_arrow(arrow, vec)
            at = arrow.target
        return vec


def _sweep(ctx: MeshContext, source: RepVertex, window: Window, field) -> HomFunctor:
    if not window.contains(source):
        raise InvalidInputError(f"hom source {source} outside window {window.to_json()}")
    if not ctx.contains(source):
        raise InvalidInputError(f"{source} is not an object of the {ctx.flavor} category")
    fun = HomFunctor(ctx, source, window, field)
    for v in ctx.vertices_in(window):
        if v.level < source.level:
            fun.dims[v] = 0
            fun.paths[v] = []
            continue
        in_arrows = ctx.in_arrows(v, window)
        if v == source:
            fun.dims[v] = 1
            fun.paths[v] = [()]
            for b in in_arrows:
                fun.mats[b] = [[] for _ in range(1)]
            continue
        blocks = []
        offsets = []
        gen_dim = 0
        for b in in_arrows:
            offsets.append(gen_dim)
            gen_dim += fun.dim(b.source)
            blocks.append(b)
        if gen_dim == 0:
            fun.dims[v] = 0
            fun.paths[v] = []
            for b in in_arrows:
                fun.mats[b] = []
            continue
        rel_cols = []
        if ctx.imposes_relator(v, window):
            tv = tau(v)
            dt = fun.dim(tv)
            for k in range(dt):
                unit = [field.zero] * dt
                unit[k] = field.one
                col = [field.zero] * gen_dim
                for b, off in zip(blocks, offsets):
                    sb = sigma_arrow(ctx.q, b)
                    img = fun.apply_arrow(sb, unit)
                    for j, x in enumerate(img):
                        col[off + j] = x
                rel_cols.append(col)
        kept, coords = quotient_coords(gen_dim, rel_cols, field)
        dim_v = len(kept)
        fun.dims[v] = dim_v
        gen_path = []
        for b, off in zip(blocks, offsets):
            for k in range(fun.dim(b.source)):
                gen_path.append(fun.paths[b.source][k] + (b,))
        fun.paths[v] = [gen_path[g] for g in kept]
        for b, off in zip(blocks, offsets):
            db = fun.dim(b.source)
            mat = [[field.zero] * db for _ in range(dim_v)]
            for k in range(db):
                cv = coords[off + k]
                for i in range(dim_v):
                    mat[i][k] = cv[i]
            fun.mats[b] = mat
    return fun


# ---------------------------------------------------------------------------
# Cache.  Append-only: concurrent readers are safe, insertion is exclusive.
# ---------------------------------------------------------------------------

_CACHE: Dict[tuple, HomFunctor] = {}
_CACHE_LOCK = threading.Lock()
_DISK_DIR: Optional[str] = None
_DISK_VERSION = 1


def clear_cache():
    with _CACHE_LOCK:
        _CACHE.clear()


def enable_disk_cache(directory: Optional[str]):
    """Persist rational Hom sweeps under the given directory (versioned JSON)."""
    global _DISK_DIR
    _DISK_DIR = directory
    if directory:
        os.makedirs(directory, exist_ok=True)


def _field_key(field) -> str:
    return getattr(field, "key", "QQ")


def sweep(ctx: MeshContext, source: RepVertex, window: Window, field=QQ) -> HomFunctor:
    fkey = _field_key(field)
    key = (ctx.cache_key(), window.lo, window.hi, source, fkey)
    fun = _CACHE.get(key)
    if fun is not None:
        return fun
    on_disk = _DISK_DIR and fkey == "QQ"
    if on_disk:
        fun = _disk_load(ctx, source, window, key)
    if fun is None:
        fun = _sweep(ctx, source, window, field)
        if on_disk:
            _disk_store(fun, key)
    with _CACHE_LOCK:
        return _CACHE.setdefault(key, fun)


def _disk_path(key) -> str:
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
    return os.path.join(_DISK_DIR, f"hom-{digest}.json")


def _disk_store(fun: HomFunctor, key):
    from .exact_linalg import format_fraction

    data = {
        "version": _DISK_VERSION,
        "key": repr(key),
        "dims": {v.key(): d for v, d in fun.dims.items()},
        "paths": {v.key(): [[a.key() for a in p] for p in ps] for v, ps in fun.paths.items()},
        "mats": {a.key(): [[format_fraction(x) for x in row] for row in m] for a, m in fun.mats.items()},
    }
    try:
        with open(_disk_path(key), "w") as fh:
            json.dump(data, fh)
    except OSError:
        pass


def _disk_load(ctx: MeshContext, source: RepVertex, window: Window, key) -> Optional[HomFunctor]:
    from .exact_linalg import parse_fraction
    from .quiver_core import parse_vertex

    path = _disk_path(key)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
        if data.get("version") != _DISK_VERSION or data.get("key") != repr(key):
            return None
        fun = HomFunctor(ctx, source, window, QQ)
        fun.dims = {parse_vertex(k): d for k, d in data["dims"].items()}
        fun.paths = {
            parse_vertex(k): [tuple(parse_arrow_key(ctx.q, ak) for ak in p) for p in ps]
            for k, ps in data["paths"].items()
        }
        fun.mats = {
            parse_arrow_key(ctx.q, ak): [[parse_fraction(x) for x in row] for row in m]
            for ak, m in data["mats"].items()
        }
        return fun
    except (OSError, ValueError, KeyError):
        return None


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

    def element(self, coeffs) -> Morphism:
        if len(coeffs) != self.dim:
            raise InvalidInputError("coefficient length mismatch")
        return Morphism(self.source, self.target, tuple(coeffs))

    def basis_elements(self) -> List[Morphism]:
        out = []
        for i in range(self.dim):
            co = [self.functor.field.zero] * self.dim
            co[i] = self.functor.field.one
            out.append(Morphism(self.source, self.target, tuple(co)))
        return out

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


def identity_morphism(ctx: MeshContext, x: RepVertex, w: Window, field=QQ) -> Morphism:
    return hom_basis(ctx, x, x, w, field).reduce_path(())


def arrow_morphism(ctx: MeshContext, arrow: RepArrow, w: Window, field=QQ) -> Morphism:
    return hom_basis(ctx, arrow.source, arrow.target, w, field).reduce_path((arrow,))


def compose(ctx: MeshContext, f: Morphism, g: Morphism, w: Window, field=QQ) -> Morphism:
    """g after f: f in Hom(x,y), g in Hom(y,z) gives an element of Hom(x,z)."""
    if f.target != g.source:
        raise InvalidInputError(f"cannot compose {f.source}->{f.target} with {g.source}->{g.target}")
    fun = sweep(ctx, f.source, w, field)
    gfun = sweep(ctx, g.source, w, field)
    dim_z = fun.dim(g.target)
    acc = [field.zero] * dim_z
    for j, cj in enumerate(g.coeffs):
        if cj == field.zero:
            continue
        vec = list(f.coeffs)
        for arrow in gfun.basis_paths(g.target)[j]:
            vec = fun.apply_arrow(arrow, vec)
        for i in range(dim_z):
            acc[i] += cj * vec[i]
    return Morphism(f.source, g.target, tuple(acc))


def precomposition_matrix(ctx: MeshContext, s_path: Sequence[RepArrow], u: RepVertex, v: RepVertex,
                          m: RepVertex, w: Window, field=QQ):
    """Matrix of Hom(v,m) -> Hom(u,m), f |-> f o s, for a path s: u -> v."""
    fun_u = sweep(ctx, u, w, field)
    fun_v = sweep(ctx, v, w, field)
    rows = fun_u.dim(m)
    cols = fun_v.dim(m)
    mat = [[field.zero] * cols for _ in range(rows)]
    for j, p in enumerate(fun_v.basis_paths(m)):
        vec = fun_u.reduce_path(tuple(s_path) + tuple(p))
        for i in range(rows):
            mat[i][j] = vec[i]
    return mat


def postcomposition_rank(ctx: MeshContext, u: RepVertex, x: RepVertex, arrows, w: Window) -> int:
    """Rank of Hom(u,x) -> (+)_a Hom(u, tgt(a)), postcomposition with the arrows."""
    fun = sweep(ctx, u, w, QQ)
    dom = fun.dim(x)
    rows = []
    for a in arrows:
        mat = fun.mats.get(a)
        if mat is None:
            mat = [[QQ.zero] * dom for _ in range(fun.dim(a.target))]
        rows.extend(mat)
    if not rows:
        return 0
    return mat_rank(rows, dom, QQ)


def precomposition_rank(ctx: MeshContext, x: RepVertex, u: RepVertex, arrows, w: Window) -> int:
    """Rank of Hom(x,u) -> (+)_a Hom(src(a),u), precomposition with arrows ending at x."""
    dom = hom_dim(ctx, x, u, w)
    rows = []
    for a in arrows:
        mat = precomposition_matrix(ctx, (a,), a.source, x, u, w)
        rows.extend(mat)
    if not rows:
        return 0
    return mat_rank(rows, dom, QQ)


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


def hom_dim_oracle(ctx: MeshContext, x: RepVertex, y: RepVertex, w: Window) -> int:
    """dim Hom(x,y) by listing every path and every mesh-relator instance."""
    paths = enumerate_paths(ctx, x, y, w)
    if not paths:
        return 1 if x == y else 0
    index = {p: i for i, p in enumerate(paths)}
    rel_rows = []
    for p in range(x.level, y.level + 1):
        for node in ctx.q._topo:
            z = RepVertex(node, p)
            if not ctx.imposes_relator(z, w):
                continue
            tz = tau(z)
            if tz.level < x.level:
                continue
            heads = enumerate_paths(ctx, x, tz, w)
            tails = enumerate_paths(ctx, z, y, w)
            if not heads or not tails:
                continue
            branches = [(sigma_arrow(ctx.q, b), b) for b in ctx.in_arrows(z, w)]
            for hpath in heads:
                for tpath in tails:
                    row = [QQ.zero] * len(paths)
                    for sb, b in branches:
                        whole = hpath + (sb, b) + tpath
                        row[index[whole]] += QQ.one
                    rel_rows.append(row)
    rk = mat_rank(rel_rows, len(paths), QQ) if rel_rows else 0
    return len(paths) - rk


def sweep_matches_oracle(ctx: MeshContext, x: RepVertex, y: RepVertex, w: Window) -> bool:
    """Check that the sweep basis spans and is independent modulo the relator ideal."""
    paths = enumerate_paths(ctx, x, y, w)
    dim_oracle = hom_dim_oracle(ctx, x, y, w)
    hb = hom_basis(ctx, x, y, w)
    if hb.dim != dim_oracle:
        return False
    if not paths:
        return True
    index = {p: i for i, p in enumerate(paths)}
    rel_rows = []
    for p in range(x.level, y.level + 1):
        for node in ctx.q._topo:
            z = RepVertex(node, p)
            if not ctx.imposes_relator(z, w) or tau(z).level < x.level:
                continue
            heads = enumerate_paths(ctx, x, tau(z), w)
            tails = enumerate_paths(ctx, z, y, w)
            branches = [(sigma_arrow(ctx.q, b), b) for b in ctx.in_arrows(z, w)]
            for hpath in heads:
                for tpath in tails:
                    row = [QQ.zero] * len(paths)
                    for sb, b in branches:
                        row[index[hpath + (sb, b) + tpath]] += QQ.one
                    rel_rows.append(row)
    base_rank = mat_rank(rel_rows, len(paths), QQ) if rel_rows else 0
    unit_rows = []
    for bp in hb.basis:
        row = [QQ.zero] * len(paths)
        row[index[bp]] = QQ.one
        unit_rows.append(row)
    joint = mat_rank(rel_rows + unit_rows, len(paths), QQ)
    if joint != base_rank + hb.dim:
        return False
    return True
