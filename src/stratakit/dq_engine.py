"""Derived-category bookkeeping through the mesh category.

All dimensions of morphism spaces between shifted objects are reduced to
mesh-category dimensions: p = 0 is a plain Hom, p = 1 goes through the
Auslander-Reiten formula, and in the Dynkin case arbitrary shifts go
through the vertex map Sigma = tau^{-1} nu.  The Serre vertex map nu is
found by searching for its defining Hom-dimension pattern, never by
per-type closed formulas; a window certificate (vanishing of the relevant
Hom rows on the boundary levels) guarantees the search saw the whole
support, so a returned value is always correct.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .errors import InternalConsistencyError, InvalidInputError, WindowInsufficiencyError
from .mesh_hom import MeshContext, hom_dim, sweep
from .quiver_core import Quiver, RepVertex, Window, rep_in_arrows, rep_out_arrows, shared, tau, tau_inv


@dataclass(frozen=True)
class DynkinInfo:
    is_dynkin: bool
    family: Optional[str] = None
    rank: Optional[int] = None


def is_dynkin(q: Quiver) -> DynkinInfo:
    """ADE detection on the underlying graph.  Requires a connected quiver."""
    if not q.vertices:
        raise InvalidInputError("empty quiver")
    if not q.is_connected():
        raise InvalidInputError("disconnected quiver: split into components first")
    n = len(q.vertices)
    pairs = [tuple(sorted((a.source, a.target))) for a in q.arrows]
    if len(set(pairs)) != len(pairs):
        return DynkinInfo(False)  # parallel edges
    if len(q.arrows) != n - 1:
        return DynkinInfo(False)  # connected with a cycle in the underlying graph
    deg: Dict[str, int] = {v: 0 for v in q.vertices}
    adj: Dict[str, list] = {v: [] for v in q.vertices}
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    branch = [v for v in q.vertices if deg[v] >= 3]
    if not branch:
        return DynkinInfo(True, "A", n)
    if len(branch) > 1 or deg[branch[0]] > 3:
        return DynkinInfo(False)
    center = branch[0]
    arms = []
    for start in adj[center]:
        length = 1
        prev, cur = center, start
        while deg[cur] == 2:
            nxt = next(u for u in adj[cur] if u != prev)
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return DynkinInfo(True, "D", n)
    if arms == [1, 2, 2]:
        return DynkinInfo(True, "E", 6)
    if arms == [1, 2, 3]:
        return DynkinInfo(True, "E", 7)
    if arms == [1, 2, 4]:
        return DynkinInfo(True, "E", 8)
    return DynkinInfo(False)


def _require_nonfrozen(x: RepVertex):
    if x.frozen:
        raise InvalidInputError(f"{x} is frozen; derived-category vertices are non-frozen")


class _SerreTable:
    """The Hom dimensions between the vertices of one window of kZQ, for the nu searches.

    rows[x] lists dim Hom(x, y) over every window vertex y; by_row and
    by_col list vertices by their outgoing (rows[x]) and incoming (dim
    Hom(y, z) over y) patterns, in window order.  Rows are swept level by
    level, as far up as a search needs: a candidate's identity must match
    the pattern, so it lies in the support searched, and Hom into a vertex
    vanishes from every level above it, so its column is complete once
    the rows up to its level are.
    """

    def __init__(self, q: Quiver, w: Window):
        self.ctx = MeshContext(q, "kZQ")
        self.window = w
        self.verts = self.ctx.vertices_in(w)
        self.index = {y: i for i, y in enumerate(self.verts)}
        self.rows: Dict[RepVertex, tuple] = {}
        self.by_row: Dict[tuple, list] = {}
        self.by_col: Dict[tuple, list] = {}
        self.top = w.lo - 1  # the highest level swept so far

    def require(self, x: RepVertex):
        if x not in self.index:
            raise InvalidInputError(f"{x} is not an object of the kZQ category")

    def row(self, x: RepVertex) -> tuple:
        """dim Hom(x, y) over every window vertex y."""
        r = self.rows.get(x)
        if r is None:
            fun = sweep(self.ctx, x, self.window)
            r = tuple(fun.dim(y) if y.level >= x.level else 0 for y in self.verts)
        return r

    def sweep_to(self, level: int):
        """Sweep every vertex up to level and index the new rows and columns."""
        for lv in range(self.top + 1, level + 1):
            new = [x for x in self.verts if x.level == lv]
            for x in new:
                self.rows[x] = self.row(x)
                self.by_row.setdefault(self.rows[x], []).append(x)
            for z in new:
                self.by_col.setdefault(self.column(z), []).append(z)
        self.top = max(self.top, level)

    def column(self, z: RepVertex) -> tuple:
        """dim Hom(y, z) over every window vertex y, once the rows up to z's level are swept."""
        iz = self.index[z]
        return tuple(self.rows[y][iz] if y in self.rows else 0 for y in self.verts)


def _serre_table(q: Quiver, w: Window) -> _SerreTable:
    """One table per (quiver, window), shared until mesh_hom.clear_cache()."""
    return shared(("serre", q._key, w), _SerreTable, q, w)


def nu_vertex(q: Quiver, x: RepVertex, w: Window) -> RepVertex:
    """The Serre vertex: the unique z with dim Hom(y,z) = dim Hom(x,y) for all y.

    Certificates make the window search exact: Hom(x,-) must vanish on the
    whole top window level (so its support was seen completely), and x must
    sit strictly above the bottom level (so a match certifies the incoming
    support of the candidate by the same level-cut argument).  Candidates
    are looked up by pattern in the window's Serre table.
    """
    _require_nonfrozen(x)
    if not is_dynkin(q).is_dynkin:
        raise InvalidInputError("nu is only defined for Dynkin quivers")
    if not w.contains(x):
        raise WindowInsufficiencyError(f"{x} outside window")
    if x.level <= w.lo:
        raise WindowInsufficiencyError(f"nu search needs a level below {x} inside the window")
    table = _serre_table(q, w)
    table.require(x)
    out = table.row(x)
    if any(d for y, d in zip(table.verts, out) if y.level == w.hi):
        raise WindowInsufficiencyError(f"Hom support of {x} reaches the window top {w.hi}")
    table.sweep_to(max(y.level for y, d in zip(table.verts, out) if d))
    candidates = table.by_col.get(out, [])
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise WindowInsufficiencyError(f"no nu candidate for {x} in window {w.to_json()}")
    raise InternalConsistencyError(f"multiple nu candidates for {x}: {candidates}")


def nu_inv_vertex(q: Quiver, z: RepVertex, w: Window) -> RepVertex:
    """Inverse Serre vertex: the unique x with dim Hom(x,y) = dim Hom(y,z) for all y."""
    _require_nonfrozen(z)
    if not is_dynkin(q).is_dynkin:
        raise InvalidInputError("nu is only defined for Dynkin quivers")
    if not w.contains(z):
        raise WindowInsufficiencyError(f"{z} outside window")
    if z.level >= w.hi:
        raise WindowInsufficiencyError(f"inverse nu search needs a level above {z} inside the window")
    table = _serre_table(q, w)
    table.require(z)
    if any(table.row(y)[table.index[z]] for y in table.verts if y.level == w.lo):
        raise WindowInsufficiencyError(f"incoming Hom support of {z} reaches the window bottom {w.lo}")
    table.sweep_to(z.level)
    inc = table.column(z)
    candidates = table.by_row.get(inc, [])
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise WindowInsufficiencyError(f"no inverse nu candidate for {z} in window {w.to_json()}")
    raise InternalConsistencyError(f"multiple inverse nu candidates for {z}: {candidates}")


def sigma_shift_vertex(q: Quiver, x: RepVertex, w: Window) -> RepVertex:
    """The suspension on vertices: Sigma(x) = tau^{-1}(nu(x))."""
    return tau_inv(nu_vertex(q, x, w))


def sigma_shift_inv_vertex(q: Quiver, x: RepVertex, w: Window) -> RepVertex:
    """Sigma^{-1}(x) = nu^{-1}(tau(x))."""
    return nu_inv_vertex(q, tau(x), w)


def iterate_shift(q: Quiver, x: RepVertex, p: int, w: Window) -> RepVertex:
    z = x
    for _ in range(abs(p)):
        z = sigma_shift_vertex(q, z, w) if p > 0 else sigma_shift_inv_vertex(q, z, w)
    return z


def hom_dq(q: Quiver, x: RepVertex, p: int, y: RepVertex, w: Window) -> int:
    """dim Hom(H(x), Sigma^p H(y)) between images of the canonical embedding.

    Dispatch: p = 0 is the mesh dimension, p = 1 uses Serre duality in the
    form Ext^1(X,Y) = D Hom(Y, tau X).  For Dynkin quivers general p goes
    through the Sigma vertex map; otherwise every |p| >= 2 (and every
    negative p between heart-like objects) vanishes.
    """
    _require_nonfrozen(x)
    _require_nonfrozen(y)
    ctx = MeshContext(q, "kZQ")
    if p == 0:
        return hom_dim(ctx, x, y, w)
    if p == 1:
        tx = tau(x)
        if not w.contains(tx):
            raise WindowInsufficiencyError(f"tau({x}) outside window")
        return hom_dim(ctx, y, tx, w)
    if not is_dynkin(q).is_dynkin:
        return 0
    z = iterate_shift(q, y, p, w)
    return hom_dim(ctx, x, z, w)


# ---------------------------------------------------------------------------
# The quantum Cartan operator.
# ---------------------------------------------------------------------------

def zq_in_neighbours(q: Quiver, x: RepVertex):
    """Sources of the repetition-quiver arrows into x (with multiplicity)."""
    _require_nonfrozen(x)
    return [a.source for a in rep_in_arrows(q, x, framed=False)]


def cartan_apply(q: Quiver, v: Dict[RepVertex, int], w: Optional[Window] = None) -> Dict[RepVertex, int]:
    """(C_q v)(x) = v(x) - sum over arrows y -> x of v(y) + v(tau(x)).

    The sum ranges over the arrows of the plain repetition quiver of Q (no
    framing).  The result of a finitely supported v is finitely supported,
    with levels at most one above the input; when a window is supplied, the
    input and the result must both fit inside it.
    """
    for u in v:
        _require_nonfrozen(u)
    if w is not None:
        for u in v:
            if v[u] and not w.contains(u):
                raise WindowInsufficiencyError(f"support vertex {u} outside window")
    affected = set()
    for u, val in v.items():
        if not val:
            continue
        affected.add(u)
        affected.add(tau_inv(u))
        affected.update(a.target for a in rep_out_arrows(q, u, framed=False))
    out: Dict[RepVertex, int] = {}
    for x in affected:
        val = v.get(x, 0) - sum(v.get(y, 0) for y in zq_in_neighbours(q, x)) + v.get(tau(x), 0)
        if val:
            out[x] = val
    if w is not None:
        for x in out:
            if not w.contains(x):
                raise WindowInsufficiencyError(f"halo missing: C_q value lands on {x} outside window")
    return out


def ar_relation_vector(q: Quiver, u: RepVertex) -> Dict[RepVertex, int]:
    """C_q applied to a unit vector: e_u - sum of heads of arrows out of u + e_{tau^{-1} u}."""
    return cartan_apply(q, {u: 1})


def cartan_solve(q: Quiver, m: Dict[RepVertex, int], w: Window) -> Dict[RepVertex, int]:
    """The unique finitely supported d with C_q d = m, by forward substitution.

    C_q is unitriangular for the level-then-topological order, so the
    formal solution always exists and is unique; finite support is the
    only question.  Substitution ascends level by level and stops at the
    first all-zero level above the support of m (once a level vanishes,
    everything above it does too).  Running out of window before that
    happens raises a window-insufficiency error.
    """
    m = {u: val for u, val in m.items() if val}
    for u in m:
        _require_nonfrozen(u)
        if u.node not in q.topo_index:
            raise InvalidInputError(f"{u.node!r} is not a vertex of the quiver")
        if not w.contains(u):
            raise WindowInsufficiencyError(f"support vertex {u} outside window")
    if not m:
        return {}
    lo = min(u.level for u in m)
    top_m = max(u.level for u in m)
    d: Dict[RepVertex, int] = {}
    for p in range(lo, w.hi + 1):
        level_zero = True
        for node in q._topo:
            x = RepVertex(node, p)
            val = m.get(x, 0) + sum(d.get(y, 0) for y in zq_in_neighbours(q, x)) - d.get(tau(x), 0)
            if val:
                d[x] = val
                level_zero = False
        if level_zero and p > top_m:
            check = cartan_apply(q, d)
            if check != m:
                raise InternalConsistencyError("forward substitution produced a wrong solution")
            return d
    raise WindowInsufficiencyError(
        f"no finitely supported solution inside window {w.to_json()}: substitution did not terminate")
