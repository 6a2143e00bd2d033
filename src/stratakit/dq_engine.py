"""Derived-category bookkeeping through the mesh category.

All dimensions of morphism spaces between shifted objects are reduced to
mesh-category dimensions: p = 0 is a plain Hom, p = 1 goes through the
Auslander-Reiten formula, and in the Dynkin case arbitrary shifts go
through the vertex map Sigma = tau^{-1} nu.  The Serre vertex map nu is
found by searching for its defining Hom-dimension pattern, never by
per-type closed formulas.  nu commutes with tau, so one certified search
per quiver, on the smallest window [0, top] above which no Hom((i, 1), -)
reaches, gives its node map i -> (j, d), nu(i, p) = (j, p + d).  The
window certificates of a call on w (the Hom support of the vertex stays
inside w) are read off that map, so a returned value is always correct.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .errors import InternalConsistencyError, InvalidInputError, WindowInsufficiencyError
from . import mesh_hom
from .exact_linalg import QQ
from .mesh_hom import MeshContext, hom_dim
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


def _serre_search(q: Quiver):
    """nu on the nodes: the maps i -> (j, d) with nu(i, p) = (j, p + d), and back.

    nu commutes with tau, so nu(i, 1) fixes the map at node i.  Each node's
    Hom((i, 0), -) is swept, for the search alone (neither cached nor
    stored), over [0, top], top raised from the last node's until
    Hom((i, 1), -) misses the top level: its support is an interval of
    levels, so it was seen whole.  By tau-invariance dim Hom((i, p), (j, l))
    is the (i, 0) sweep's dimension at (j, l - p).  nu(i, 1) is the unique
    vertex of [0, top] whose incoming pattern equals the outgoing pattern of
    (i, 1); the level below (i, 1) certifies the candidate's incoming
    support as the top level certifies the outgoing one.
    """
    ctx = MeshContext(q, "kZQ")
    funs = {}
    top = 2  # Hom((i, 1), (i, 1)) is nonzero, so level 1 is never the top
    for i in q.vertices:
        while True:
            funs[i] = mesh_hom._sweep(ctx, RepVertex(i, 0), Window(0, top), QQ)
            if not any(funs[i].dim(RepVertex(j, top - 1)) for j in q.vertices):
                break
            top += 1
    w = Window(0, top)
    verts = ctx.vertices_in(w)

    def dim(y: RepVertex, z: RepVertex) -> int:
        return funs[y.node].dim(RepVertex(z.node, z.level - y.level)) if z.level >= y.level else 0

    by_incoming: Dict[tuple, list] = {}
    for z in verts:
        by_incoming.setdefault(tuple(dim(y, z) for y in verts), []).append(z)
    nu: Dict[str, tuple] = {}
    nu_inv: Dict[str, tuple] = {}
    for i in q.vertices:
        x = RepVertex(i, 1)
        candidates = by_incoming.get(tuple(dim(x, y) for y in verts), [])
        if len(candidates) != 1:
            raise InternalConsistencyError(f"{len(candidates)} nu candidates for {x} in window {w.to_json()}")
        z = candidates[0]
        nu[i] = (z.node, z.level - 1)
        nu_inv[z.node] = (i, 1 - z.level)
    return nu, nu_inv


def _moved(q: Quiver, x: RepVertex, inverse: bool) -> RepVertex:
    """nu(x), or nu^{-1}(x), by the node maps of one search per quiver, kept in
    quiver_core.shared until mesh_hom.clear_cache()."""
    if x.node not in q.topo_index:
        raise InvalidInputError(f"{x} is not an object of the kZQ category")
    node, d = shared(("serre", q._key), _serre_search, q)[inverse][x.node]
    return RepVertex(node, x.level + d)


def nu_vertex(q: Quiver, x: RepVertex, w: Window) -> RepVertex:
    """The Serre vertex: the unique z with dim Hom(y,z) = dim Hom(x,y) for all y.

    Read off the node map of _serre_search.  The window certificates of a
    search on w follow from it: Hom(x,-) is supported on exactly the levels
    from x's to nu(x)'s (a nonzero path x -> nu(x) crosses each of them, and
    Serre duality puts every support vertex on such a path), so it vanishes
    on the window top exactly when nu(x) lies below it; and x must sit
    strictly above the bottom level.
    """
    _require_nonfrozen(x)
    if not is_dynkin(q).is_dynkin:
        raise InvalidInputError("nu is only defined for Dynkin quivers")
    if not w.contains(x):
        raise WindowInsufficiencyError(f"{x} outside window")
    if x.level <= w.lo:
        raise WindowInsufficiencyError(f"nu search needs a level below {x} inside the window")
    z = _moved(q, x, False)
    if z.level >= w.hi:
        raise WindowInsufficiencyError(f"Hom support of {x} reaches the window top {w.hi}")
    return z


def nu_inv_vertex(q: Quiver, z: RepVertex, w: Window) -> RepVertex:
    """Inverse Serre vertex: the unique x with dim Hom(x,y) = dim Hom(y,z) for all y.

    The incoming Hom support of z spans the levels from nu^{-1}(z)'s to z's,
    so it reaches the window bottom exactly when nu^{-1}(z) does.
    """
    _require_nonfrozen(z)
    if not is_dynkin(q).is_dynkin:
        raise InvalidInputError("nu is only defined for Dynkin quivers")
    if not w.contains(z):
        raise WindowInsufficiencyError(f"{z} outside window")
    if z.level >= w.hi:
        raise WindowInsufficiencyError(f"inverse nu search needs a level above {z} inside the window")
    x = _moved(q, z, True)
    if x.level <= w.lo:
        raise WindowInsufficiencyError(f"incoming Hom support of {z} reaches the window bottom {w.lo}")
    return x


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
    negative p between heart-like objects) vanishes.  Once both endpoints
    lie in w, the dimension is swept over the levels between them only,
    which carry every path and relator between them (as in sing_builder).
    """
    _require_nonfrozen(x)
    _require_nonfrozen(y)
    if p == 1:
        if not w.contains(tau(x)):
            raise WindowInsufficiencyError(f"tau({x}) outside window")
        x, y = y, tau(x)
    elif p != 0:
        if not is_dynkin(q).is_dynkin:
            return 0
        y = iterate_shift(q, y, p, w)
    if x.level <= y.level and w.contains(x) and w.contains(y):
        w = Window(x.level, y.level)
    return hom_dim(MeshContext(q, "kZQ"), x, y, w)


# ---------------------------------------------------------------------------
# The quantum Cartan operator.
# ---------------------------------------------------------------------------

def zq_in_neighbours(q: Quiver, x: RepVertex):
    """Sources of the repetition-quiver arrows into x (with multiplicity)."""
    _require_nonfrozen(x)
    return [a.source for a in rep_in_arrows(q, x, framed=False)]


def cartan_apply(q: Quiver, v: Dict[RepVertex, int]) -> Dict[RepVertex, int]:
    """(C_q v)(x) = v(x) - sum over arrows y -> x of v(y) + v(tau(x)).

    The sum ranges over the arrows of the plain repetition quiver of Q (no
    framing).  The result of a finitely supported v is finitely supported,
    with levels at most one above the input.
    """
    for u in v:
        _require_nonfrozen(u)
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
