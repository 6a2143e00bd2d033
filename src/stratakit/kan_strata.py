"""Window representations, Kan extensions, the stratifying decomposition,
degeneration order, closed orbits, resolution shapes and fibers.

Matrix conventions are contravariant throughout: the matrix of an arrow
a: x -> y maps the space at y to the space at x (rows indexed by the
source, columns by the target), matching functors out of the opposite
category.  A window representation is the data of a point of the
representation space rep(R_C^op, v, w).

Points of the affine variety M_0(w) are entered as restrictions of window
representations; semisimple points need only the frozen dimension vector.

K_R(M) is computed by one recursion over the window, in the order the Hom
sweeps run (kan_right): the Yoneda image of M at a frozen vertex, the
kernel of the mesh relator's map at a non-frozen one.  Its bases are those
of the naturality system's kernel, which survives as a test twin.  K_L(M)
is computed by the mirror recursion down the window (kan_left): the
kernel of the Yoneda map to M at a frozen vertex, the relations pulled
back along the out-arrows at a non-frozen one.  Its bases are those of
the coend presentation's quotient, also a test twin.

Two independent computations back every stratum invariant: the
multiplicity formula w o sigma - C_q v and the mesh-homology Ext^1 count.
A disagreement raises InternalConsistencyError and is never smoothed over.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .catmod import CatModule, SCategoryWindow, semisimple_module, window_category
from .dq_engine import cartan_apply, cartan_solve, is_dynkin
from .errors import InternalConsistencyError, InvalidInputError, WindowInsufficiencyError
from .exact_linalg import (
    QQ,
    PrimeField,
    identity_rows,
    in_basis,
    kernel_cols,
    mat_mul,
    mat_rank,
    mat_vec,
    parse_fraction,
    quotient_coords,
    quotient_map,
    rref,  # not called here; perfbench/selfcheck.py looks the name up on this module
    solve_many,
    span_basis,
    span_kernel_basis,
    sub_map,
    transpose_rows,
)
from .mesh_hom import MeshContext, postcomposition_matrix, precomposition_matrix, sweep
from .quiver_core import (
    Configuration,
    Quiver,
    RepArrow,
    RepVertex,
    Window,
    build_repetition,
    parse_arrow_key,
    parse_vertex,
    relator_row,
    rep_in_arrows,
    rep_out_arrows,
    shared,
    sigma,
    sigma_inv,
    tau,
    tau_inv,
)


# ---------------------------------------------------------------------------
# Window representations.
# ---------------------------------------------------------------------------

class WindowRep:
    """A representation of the configured framed repetition quiver on a window."""

    def __init__(self, q: Quiver, window: Window, config: Optional[Configuration],
                 dims: Dict[RepVertex, int], mats: Dict[RepArrow, list], field=QQ):
        self.q = q
        self.window = window
        self.config = config if config is not None else Configuration.full()
        self.field = field
        self.rq = build_repetition(q, True, window, self.config)
        self.dims = {}
        for v, d in dims.items():
            if d < 0:
                raise InvalidInputError(f"negative dimension at {v}")
            if d:
                if not window.contains(v):
                    raise InvalidInputError(f"support vertex {v} outside window")
                if v.frozen and not self.config.retains(v):
                    raise InvalidInputError(f"frozen vertex {v} is not retained by the configuration")
                self.dims[v] = d
        self.mats = {}
        for a, m in mats.items():
            rows, cols = self.dim(a.source), self.dim(a.target)
            if not self.rq.has_vertex(a.source) or not self.rq.has_vertex(a.target):
                raise InvalidInputError(f"arrow {a} leaves the window")
            if field is QQ:  # integral entries as ints, the cheap scalars of the exact core
                mm = [[x.numerator if x.denominator == 1 else x for x in r] for r in m]
            else:
                mm = [list(r) for r in m]
            if len(mm) != rows or any(len(r) != cols for r in mm):
                raise InvalidInputError(f"matrix for {a} must be {rows}x{cols}")
            if any(x != self.field.zero for r in mm for x in r):
                self.mats[a] = mm

    def dim(self, v: RepVertex) -> int:
        return self.dims.get(v, 0)

    def mat(self, a: RepArrow) -> list:
        m = self.mats.get(a)
        if m is None:
            return [[self.field.zero] * self.dim(a.target) for _ in range(self.dim(a.source))]
        return m

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def nonfrozen_dims(self) -> Dict[RepVertex, int]:
        return {v: d for v, d in self.dims.items() if not v.frozen}

    def support_levels(self) -> Optional[Tuple[int, int]]:
        if not self.dims:
            return None
        levels = [v.level for v in self.dims]
        return min(levels), max(levels)

    def path_matrix(self, path, products=None) -> list:
        """The action of a path, composed contravariantly along its arrows, multiplied from
        its first arrow on.  With a dict of products, the product of every prefix is kept
        there and the longest one kept is taken up, so paths sharing a prefix multiply it
        once, in the same order."""
        if not path:
            raise InvalidInputError("path_matrix needs a nonempty path; identities are implicit")
        path = tuple(path)
        products = {} if products is None else products
        n = len(path)
        while n > 1 and path[:n] not in products:
            n -= 1
        out = products[path[:n]] if n > 1 else self.mat(path[0])
        rows = self.dim(path[0].source)
        for i in range(n, len(path)):
            a = path[i]
            out = products[path[:i + 1]] = _mul(out, self.mat(a), rows, self.dim(a.source), self.dim(a.target),
                                                self.field)
        return out

    def equal_data(self, other: "WindowRep") -> bool:
        if self.dims != other.dims:
            return False
        keys = set(self.mats) | set(other.mats)
        return all(self.mat(a) == other.mat(a) for a in keys)

    def direct_sum(self, other: "WindowRep") -> "WindowRep":
        if self.window != other.window or self.q.key() != other.q.key():
            raise InvalidInputError("direct sum needs matching quiver and window")
        dims = {v: self.dim(v) + other.dim(v) for v in set(self.dims) | set(other.dims)}
        zero = [self.field.zero]
        mats = {a: [row + zero * other.dim(a.target) for row in self.mat(a)]
                + [zero * self.dim(a.target) + row for row in other.mat(a)]
                for a in set(self.mats) | set(other.mats)}
        return WindowRep(self.q, self.window, self.config, dims, mats, self.field)

    def reduce_mod(self, field: PrimeField) -> "WindowRep":
        mats = {a: [[field.of_fraction(x) for x in row] for row in m] for a, m in self.mats.items()}
        return WindowRep(self.q, self.window, self.config, dict(self.dims), mats, field)

    def to_json(self):
        encode = self.field.encode
        data = {
            "quiver": self.q.to_json(),
            "framed": True,
            "window": self.window.to_json(),
            "configuration": self.config.to_json(),
            "dims": {v.key(): d for v, d in sorted(self.dims.items())},
            "mats": {a.key(): [[encode(x) for x in row] for row in m]
                     for a, m in sorted(self.mats.items(), key=lambda kv: kv[0].key())},
        }
        if isinstance(self.field, PrimeField):
            data["field"] = self.field.p
        return data

    @classmethod
    def from_json(cls, data) -> "WindowRep":
        if not isinstance(data, dict):
            raise InvalidInputError(f"window representation must be a JSON object, got {data!r}")
        dims_data, mats_data = data.get("dims", {}), data.get("mats", {})
        if not isinstance(dims_data, dict) or not isinstance(mats_data, dict):
            raise InvalidInputError("window representation dims and mats must be JSON objects")
        for k, d in dims_data.items():
            if isinstance(d, bool) or not isinstance(d, int):
                raise InvalidInputError(f"bad dimension {d!r} for vertex {k!r}")
        try:
            q = Quiver.from_json(data["quiver"])
            window = Window.from_json(data["window"])
            config = Configuration.from_json(data.get("configuration"))
            dims = {parse_vertex(k): d for k, d in dims_data.items()}
            field_tag = data.get("field", "QQ")
            field = QQ if field_tag == "QQ" else PrimeField(_gf_int(field_tag, "field tag"))
            mats = {}
            for key, rowsdata in mats_data.items():
                a = parse_arrow_key(q, key)
                if field_tag == "QQ":
                    mats[a] = [[parse_fraction(x) for x in row] for row in rowsdata]
                    if any(len(row) != len(mats[a][0]) for row in mats[a]):
                        raise InvalidInputError("ragged matrix")
                    if mats[a] and len(mats[a]) != dims.get(a.source, 0):
                        raise InvalidInputError("row count mismatch")
                else:
                    mats[a] = [[field.of_int(_gf_int(x)) for x in row] for row in rowsdata]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"malformed window representation: {exc}") from exc
        return cls(q, window, config, dims, mats, field)


def _gf_int(x, what: str = "GF(p) entry") -> int:
    """An entry over GF(p), or the prime itself: an integer or its decimal string, never a
    float that int() would truncate or a boolean."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InvalidInputError(f"bad {what} {x!r}: expected an integer")
    return int(x)


def _mul(a, b, n, k, m, field):
    """Product of an n x k and a k x m matrix, tolerating zero dimensions."""
    if n == 0 or m == 0 or k == 0:
        return [[field.zero] * m for _ in range(n)]
    return mat_mul(a, b, field)


def _sub_rep(rep: WindowRep, cols: Dict[RepVertex, list], failure_msg: str) -> WindowRep:
    """The subrepresentation spanned by cols[x] at each vertex, in those bases."""
    mats = {}
    for a in rep.rq.arrows:
        if cols.get(a.source) and cols.get(a.target):
            mats[a] = sub_map(rep.mat(a), cols[a.target], cols[a.source], rep.field)
            if mats[a] is None:
                raise InternalConsistencyError(failure_msg)
    dims = {x: len(c) for x, c in cols.items()}
    return WindowRep(rep.q, rep.window, rep.config, dims, mats, rep.field)


def _quotient_rep(rep: WindowRep, rel_cols: Dict[RepVertex, list]):
    """The quotient by span(rel_cols[x]) at each vertex, with the kept indices.

    Kept indices are the coordinates of rep(x) whose classes form the
    quotient basis at x (see quotient_coords).
    """
    proj = {x: quotient_coords(rep.dim(x), rel_cols[x], rep.field) for x in rep.rq.vertices}
    mats = {}
    for a in rep.rq.arrows:
        if proj[a.source][0] and proj[a.target][0]:
            mats[a] = quotient_map(rep.mat(a), proj[a.target][0], proj[a.source], rep.field)
    kept = {x: k for x, (k, _) in proj.items()}
    dims = {x: len(k) for x, k in kept.items()}
    return WindowRep(rep.q, rep.window, rep.config, dims, mats, rep.field), kept


def mesh_residual(rep: WindowRep, x: RepVertex):
    """sum_b mat(sigma b) mat(b) over the relator's terms at x, a matrix from the space at x to the
    one at tau(x), when it is nonzero, else None.  An absent matrix is zero, so a term lacking one
    vanishes, and a vertex with no term (or no relator) has nothing to check."""
    rel = rep.rq.relator(x)
    residual = None
    for sb, b in rel.terms if rel is not None else ():
        m_sb, m_b = rep.mats.get(sb), rep.mats.get(b)
        if m_sb is None or m_b is None:
            continue
        part = mat_mul(m_sb, m_b, rep.field)
        residual = part if residual is None else [[a + c for a, c in zip(r, t)] for r, t in zip(residual, part)]
    if residual is not None and any(xv != rep.field.zero for r in residual for xv in r):
        return residual
    return None


def validate(rep: WindowRep) -> list:
    """All in-window mesh relators violated by the representation, with residuals (mesh_residual)."""
    return [(x, r) for x in rep.rq.vertices if (r := mesh_residual(rep, x)) is not None]


# ---------------------------------------------------------------------------
# Points of the affine quiver variety: restrictions to the singular category.
# ---------------------------------------------------------------------------

class SModulePoint:
    """A point of M_0(w): a module over the windowed singular category.

    Points are immutable and shared, and so is everything computed from
    them: a point keeps the PhiResult of phi() on its own window and hands
    the same object to every later caller (degeneration_leq, same_stratum,
    resolution_shape).  Neither the module data nor that result may be
    modified after construction.
    """

    def __init__(self, cat: SCategoryWindow, module: CatModule):
        self.cat = cat
        self.module = module
        self._phi: Optional["PhiResult"] = None

    @property
    def q(self) -> Quiver:
        return self.cat.q

    @property
    def window(self) -> Window:
        return self.cat.window

    @property
    def field(self):
        return self.cat.field

    def dim(self, u: RepVertex) -> int:
        return self.module.dim(u)

    def w_vector(self) -> Dict[RepVertex, int]:
        return {u: d for u, d in self.module.dims.items() if d}

    def support_levels(self) -> Optional[Tuple[int, int]]:
        sup = [u.level for u, d in self.module.dims.items() if d]
        if not sup:
            return None
        return min(sup), max(sup)

    def equal(self, other: "SModulePoint") -> bool:
        return self.module.equal(other.module)

    def is_zero(self) -> bool:
        return self.module.is_zero()

    @classmethod
    def semisimple(cls, q: Quiver, window: Window, w: Dict[RepVertex, int],
                   config: Optional[Configuration] = None, field=QQ) -> "SModulePoint":
        cat = window_category(q, config, window, field)
        return cls(cat, semisimple_module(cat, {u: d for u, d in w.items() if d}))

    def reduce_mod(self, field: PrimeField) -> "SModulePoint":
        cat = window_category(self.q, self.cat.config, self.window, field)
        act = {}
        for key, m in self.module.act.items():
            act[key] = [[field.of_fraction(x) for x in row] for row in m]
        return SModulePoint(cat, CatModule(cat, dict(self.module.dims), act))


def restrict(rep: WindowRep) -> SModulePoint:
    """The frozen part of a valid representation, with its action tables.

    Base change at non-frozen vertices leaves the result unchanged: the
    action of a singular-category morphism is the product of the arrow
    matrices along any representative path, and validity makes that class
    independent of the representative.  Identities and zero actions are not
    stored: CatModule.act_mat supplies both.
    """
    bad = validate(rep)
    if bad:
        raise InvalidInputError(f"representation violates {len(bad)} mesh relator(s), first at {bad[0][0]}")
    cat = window_category(rep.q, rep.config, rep.window, rep.field)
    zero = rep.field.zero
    act = {}
    products = {}  # basis paths form a prefix tree: each prefix is multiplied once
    for u, v, dk in cat.hom_pairs():
        if u == v or rep.dim(u) == 0 or rep.dim(v) == 0:
            continue
        for k in range(dk):
            m = rep.path_matrix(cat.basis_paths(u, v)[k], products)
            if any(x != zero for row in m for x in row):
                act[(u, v, k)] = m
    return SModulePoint(cat, CatModule(cat, {u: rep.dim(u) for u in cat.objects}, act))


# ---------------------------------------------------------------------------
# Right Kan extension: pointwise spaces of natural transformations.
# ---------------------------------------------------------------------------

class KanRight:
    """K_R(M) on the window, with the ambient data needed by later stages.

    The value at x is the space of module maps res(x^) -> M, held as
    columns over the coordinates phi_u(f_i)[j], u running over frozen
    objects in the support of M and f_i over the sweep's Hom basis of
    R_C(u, x).  Its basis is the KernelBasis that kernel_cols picks for
    the naturality system at x, though kan_right builds no such system
    (see there).  Values at window vertices are exact: every morphism and
    every constraint between the support and x lives on the intermediate
    levels.
    """

    def __init__(self, M: SModulePoint, rep: WindowRep, amb_index, basis_cols, theta):
        self.M = M
        self.rep = rep
        self.amb_index = amb_index        # x -> list of (u, i, j)
        self.basis_cols = basis_cols      # x -> list of kernel columns
        self.theta = theta                # frozen u -> matrix K(u) -> M(u)

    def dim(self, x: RepVertex) -> int:
        return len(self.basis_cols.get(x, []))


def kan_right(M: SModulePoint, w: Window) -> KanRight:
    """K_R(M), by one recursion over the window in slice order, as the sweeps run.

    A frozen u takes the Yoneda image of M(u): e_j has the coordinate
    act_mat(u', u, i)[j'][j] at (u', i, j').  A non-frozen x takes the
    kernel of (+)_b K_R(y_b) -> K_R(tau x) over its in-arrows b: y_b -> x,
    the map being sum_b K_R(sigma b) where the sweep imposes the mesh
    relator at x and zero elsewhere: the sweep makes each Hom(u, x) the
    cokernel of that relator, and Hom_S(-, M) is left exact.  A kernel
    vector enters the ambient coordinates by copying, since the sweep
    builds each basis path f_i of Hom(u, x) as a basis path p of
    Hom(u, y_b) followed by b: coordinate (u, i, j) is coordinate
    (u, index of p, j) of component b.  exact_linalg.span_kernel_basis
    turns the embedded vectors into the basis kernel_cols picks for the
    naturality system at x, and its coefficients give each in-arrow's
    matrix, the projection to component b.  Only the framing arrows
    x -> u solve, through in_basis.
    """
    if w != M.window:
        raise WindowInsufficiencyError("kan_right must be computed on the module's own window")
    cat, field, q = M.cat, M.field, M.q
    rc = MeshContext(q, "RC", cat.config)
    rq = build_repetition(q, True, w, cat.config)
    mdims = M.module.dims
    support = [u for u in cat.objects if mdims[u]]
    zero = field.zero
    funs = {u: sweep(rc, u, w, field) for u in support}
    path_pos: Dict[tuple, dict] = {}  # (u, y) -> {basis path of Hom(u,y): its index}

    amb_index: Dict[RepVertex, list] = {}
    basis_cols: Dict[RepVertex, list] = {}
    offsets: Dict[RepVertex, dict] = {}
    dims: Dict[RepVertex, int] = {}
    mats = {}
    for x in rq.vertices:
        amb = amb_index[x] = []
        off = offsets[x] = {}
        for u in support:
            d = funs[u].dim(x)
            if d:
                off[u] = len(amb)
                amb.extend((u, i, j) for i in range(d) for j in range(mdims[u]))
        if not amb:
            basis_cols[x], dims[x] = [], 0
            continue
        if x.frozen:
            vecs = [{} for _ in range(mdims[x])]
            for u, o in off.items():
                for i in range(funs[u].dim(x)):
                    for j2, row in enumerate(M.module.act_mat(u, x, i)):
                        for j, c in enumerate(row):
                            if c:
                                vecs[j][o + i * mdims[u] + j2] = c
        else:
            # the kernel of the relator map, one block of columns per in-arrow b with K_R(y_b) != 0
            blocks, total = [], 0
            for b in rq.in_arrows(x):
                if dims[b.source]:
                    blocks.append((b, total))
                    total += dims[b.source]
            rel = relator_row(rq, x, dims, mats)
            kernel = kernel_cols(rel[0] if rel else [], total, field) if total else []
            # copy pairs (position at x, position at y_b) of each in-arrow b
            pairs = {b: [] for b, _ in blocks}
            for u, o in off.items():
                fun, mu = funs[u], mdims[u]
                for i, f in enumerate(fun.basis_paths(x)):
                    pb = pairs.get(f[-1])
                    if pb is None:
                        continue
                    y = f[-1].source
                    pos = path_pos.get((u, y))
                    if pos is None:
                        pos = path_pos[(u, y)] = {p: k for k, p in enumerate(fun.basis_paths(y))}
                    oy = offsets[y][u] + pos[f[:-1]] * mu
                    pb.extend((o + i * mu + j, oy + j) for j in range(mu))
            vecs = []
            for z in kernel:
                vec = {}
                for b, ob in blocks:
                    terms = [(col, z[ob + t]) for t, col in enumerate(basis_cols[b.source]) if z[ob + t]]
                    for px, py in pairs[b] if terms else ():
                        s = sum((col[py] * c for col, c in terms if col[py]), zero)
                        if s:
                            vec[px] = s
                vecs.append(vec)
        got = span_kernel_basis(vecs, len(amb), field)
        if got is None:
            raise InternalConsistencyError(f"K_R at {x} does not embed in its Hom spaces")
        basis_cols[x], coefs = got
        dims[x] = len(coefs)
        if not dims[x]:
            continue
        if not x.frozen:
            # column f of the matrix of b is component b of sum_t coefs[f][t] kernel[t]
            for b, ob in blocks:
                db = dims[b.source]
                mats[b] = transpose_rows(mat_mul(coefs, [z[ob:ob + db] for z in kernel], field))
            continue
        # The framing arrow a: x0 -> x sends a column phi at x to phi o (a o -) at
        # x0, whose coordinate (u, l, j) sums phi(u, m, j) times the entry (m, l)
        # of the sweep's matrix of a, Hom(u,x0) -> Hom(u,x), f |-> a o f: column l
        # of that matrix holds the entries (m, l) that are nonzero.
        (a,) = rq.in_arrows(x)
        x0 = a.source
        if not dims[x0]:
            continue
        images = []
        for col in basis_cols[x]:
            img = [zero] * len(amb_index[x0])
            for u, o in off.items():
                mu = mdims[u]
                for l, post in enumerate(funs[u].columns(a)):
                    base = offsets[x0][u] + l * mu
                    for m_i, p in post.items():
                        for j in range(mu):
                            c = col[o + m_i * mu + j]
                            if c:
                                img[base + j] += p * c
            images.append(img)
        mats[a] = in_basis(images, basis_cols[x0], field)
        if mats[a] is None:
            raise InternalConsistencyError("K_R structure map leaves the computed value space")

    rep = WindowRep(q, w, cat.config, dims, mats, field)

    theta = {}
    for u in cat.objects:
        mu = M.dim(u)
        o = offsets[u].get(u)  # Hom(u,u) is spanned by the identity, so (u, 0, j) sits at o + j
        rows_t = theta[u] = [[col[o + j] for col in basis_cols[u]] for j in range(mu)]
        if rep.dim(u) != mu:
            raise InternalConsistencyError(f"res K_R at {u} has dimension {rep.dim(u)} != {mu}")
        if mat_rank(rows_t, mu, field) != mu:
            raise InternalConsistencyError(f"adjunction map at {u} is not invertible")
    return KanRight(M, rep, amb_index, basis_cols, theta)


# ---------------------------------------------------------------------------
# Left Kan extension (Dynkin only) and the canonical map.
# ---------------------------------------------------------------------------

class KanLeft:
    def __init__(self, M: SModulePoint, rep: WindowRep, gen_index, gen_coords, kept):
        self.M = M
        self.rep = rep
        self.gen_index = gen_index    # x -> list of (u, g, j)
        self.gen_coords = gen_coords  # x -> per-generator coordinates in the chosen basis
        self.kept = kept              # x -> generator indices forming the basis

    def dim(self, x: RepVertex) -> int:
        return len(self.kept.get(x, []))


def kan_left(M: SModulePoint, w: Window) -> KanLeft:
    """K_L(M), by one recursion down the window, kan_right's mirror.

    The generators at x are the (u, g, j) with u in the support, g over the
    sweep's Hom basis of R_C(x, u) and j over M(u); K_L(M)(x) is their span
    modulo the coend relations R(x).  A frozen x takes the kernel of the
    Yoneda map to M(x), (u, g, j) |-> M(g) e_j: one row per generator with
    u != x, whose image is spanned by the (x, 0, j').  Every morphism out of
    a non-frozen x but the identity factors through an out-arrow b: x -> z,
    so R(x) is the sum of the images of the R(z) under f |-> f o b; R(z) is
    spanned by e_t - (the class of t) over the dropped generators t.  The
    basis quotient_coords picks depends only on span R(x).  Unsupported for
    non-Dynkin quivers, where K_L(M) has unbounded support.
    """
    if not is_dynkin(M.q).is_dynkin:
        raise InvalidInputError("kan_left requires a Dynkin quiver (K_L has unbounded support otherwise)")
    if w != M.window:
        raise WindowInsufficiencyError("kan_left must be computed on the module's own window")
    cat, field, q = M.cat, M.field, M.q
    rc = MeshContext(q, "RC", cat.config)
    rq = build_repetition(q, True, w, cat.config)
    mdims = M.module.dims
    support = [u for u in cat.objects if mdims[u]]
    zero, one = field.zero, field.one
    pre: Dict[tuple, list] = {}  # (a: x -> y, u) -> the matrix of Hom(y,u) -> Hom(x,u), f |-> f o a

    def precompose(a, u):
        mat = pre.get((a, u))
        if mat is None:
            mat = pre[(a, u)] = precomposition_matrix(rc, (a,), a.source, a.target, u, w, field)
        return mat

    gen_index: Dict[RepVertex, list] = {}
    gen_coords: Dict[RepVertex, list] = {}
    kept: Dict[RepVertex, list] = {}
    offsets: Dict[RepVertex, dict] = {}
    for x in reversed(rq.vertices):
        fx = sweep(rc, x, w, field)
        index = gen_index[x] = []
        off = offsets[x] = {}
        for u in support:
            d = fx.dim(u)
            if d:
                off[u] = len(index)
                index.extend((u, g, j) for g in range(d) for j in range(mdims[u]))
        if not index:
            kept[x], gen_coords[x] = [], []
            continue
        rows = []
        if x.frozen:
            ox = off.get(x)
            for u, o in off.items():
                if u == x:
                    continue
                mu = mdims[u]
                for g in range(fx.dim(u)):
                    act = M.module.act_mat(x, u, g)
                    for j in range(mu):
                        row = {o + g * mu + j: one}
                        for j2, r in enumerate(act):
                            if r[j]:
                                row[ox + j2] = -r[j]
                        rows.append(row)
        else:
            for b in rq.out_arrows(x):
                z = b.target
                kept_z = set(kept[z])
                for t, cls in enumerate(gen_coords[z]):
                    if t in kept_z:
                        continue
                    # the relation e_t - cls at z, each generator (u, g, j) sent to sum_l pre[l][g] (u, l, j)
                    row = {}
                    for s, c in [(t, one)] + [(kept[z][r], -c) for r, c in cls.items()]:
                        u, g, j = gen_index[z][s]
                        mu = mdims[u]
                        for l, r in enumerate(precompose(b, u)):
                            if r[g]:
                                pos = off[u] + l * mu + j
                                row[pos] = row.get(pos, zero) + r[g] * c
                    row = {pos: c for pos, c in row.items() if c}
                    if row:
                        rows.append(row)
        kept[x], gen_coords[x] = quotient_coords(len(index), rows, field)

    # Structure maps on the kept generators: a: x -> y sends the generator
    # (u, g, j) at y to the class at x of sum_l pre[l][g] (u, l, j).
    dims = {x: len(kept[x]) for x in rq.vertices}
    mats = {}
    for a in rq.arrows:
        x, y = a.source, a.target
        if not dims[x] or not dims[y]:
            continue
        m = [[zero] * dims[y] for _ in range(dims[x])]
        for t_pos, t in enumerate(kept[y]):
            u, g, j = gen_index[y][t]
            for l, row in enumerate(precompose(a, u)):
                p = row[g]
                if not p:
                    continue
                for r, c in gen_coords[x][offsets[x][u] + l * mdims[u] + j].items():
                    m[r][t_pos] += p * c
        mats[a] = m
    rep = WindowRep(q, w, cat.config, dims, mats, field)
    return KanLeft(M, rep, gen_index, gen_coords, kept)


def can_matrices(M: SModulePoint, kl: KanLeft, kr: KanRight) -> Dict[RepVertex, list]:
    """The canonical map K_L -> K_R, one matrix per window vertex."""
    cat = M.cat
    field = M.field
    rc = MeshContext(cat.q, "RC", cat.config)
    out = {}
    for x in kl.rep.rq.vertices:
        dl = kl.dim(x)
        dr = kr.dim(x)
        if dl == 0 or dr == 0:
            out[x] = [[field.zero] * dl for _ in range(dr)]
            continue
        amb = kr.amb_index[x]
        vecs = []
        post = {}  # (u2, u, g) -> the matrix of Hom(u2,x) -> Hom(u2,u), f |-> g o f
        for t in kl.kept[x]:
            (u, g, j) = kl.gen_index[x][t]
            g_path = sweep(rc, x, M.window, field).basis_paths(u)[g]
            vec = [field.zero] * len(amb)
            for pos, (u2, i, j2) in enumerate(amb):
                if (u2, u, g) not in post:
                    post[(u2, u, g)] = postcomposition_matrix(rc, u2, g_path, x, M.window, field)
                s = field.zero
                for k, row in enumerate(post[(u2, u, g)]):
                    if row[i] != field.zero:
                        s += row[i] * M.module.act_mat(u2, u, k)[j2][j]
                vec[pos] = s
            vecs.append(vec)
        out[x] = in_basis(vecs, kr.basis_cols[x], field)
        if out[x] is None:
            raise InternalConsistencyError("canonical map does not land in K_R (bug)")
    return out


# ---------------------------------------------------------------------------
# The intermediate extension and its consequences.
# ---------------------------------------------------------------------------

class KanIntermediate:
    def __init__(self, M: SModulePoint, rep: WindowRep, kr: KanRight, incl_cols):
        self.M = M
        self.rep = rep
        self.kr = kr
        self.incl_cols = incl_cols  # x -> columns of the inclusion K_LR(x) <= K_R(x)

    def dim(self, x: RepVertex) -> int:
        return self.rep.dim(x)


def kan_intermediate(M: SModulePoint, w: Window) -> KanIntermediate:
    """K_LR(M): the subrepresentation of K_R(M) generated by the frozen part.

    Computed by one downward closure pass (module maps go against the
    arrows), seeded with the full frozen components; the result restricts
    to M, is stable and co-stable, and is supported on the levels of
    supp(M).  All three facts are asserted, not assumed.  At a non-frozen x
    the images along the out-arrows span K_LR(x), so the elimination that
    picks its basis (span_basis) also gives their coordinates, which are
    the columns of the out-arrows' matrices; an arrow out of a frozen
    vertex is restricted by sub_map, which checks that its images stay in
    the theta-normalized basis.
    """
    kr = kan_right(M, w)
    field = M.field
    zero = field.zero
    rq = kr.rep.rq
    incl: Dict[RepVertex, list] = {}
    read_off: Dict[RepArrow, list] = {}  # arrow out of a non-frozen vertex -> its matrix on K_LR
    for x in reversed(rq.vertices):
        dkx = kr.dim(x)
        if dkx == 0:
            incl[x] = []
            continue
        if x.frozen:
            # theta-normalized basis: columns mapping to the standard basis of M(x)
            th = kr.theta[x]
            cols = solve_many(transpose_rows(th), identity_rows(M.dim(x), field), field)
            if any(sol is None for sol in cols):
                raise InternalConsistencyError("theta not invertible at a frozen vertex")
            incl[x] = cols
            continue
        gathered = []
        placed = []  # (a, the index in gathered of each column's image, None where it is zero)
        for a in rq.out_arrows(x):
            m = kr.rep.mats.get(a)
            if m is None or not incl.get(a.target):
                continue
            at = []
            for col in incl[a.target]:
                img = mat_vec(m, col, field)
                if any(xx != zero for xx in img):
                    at.append(len(gathered))
                    gathered.append(img)
                else:
                    at.append(None)
            placed.append((a, at))
        incl[x], coords = span_basis(gathered, dkx, field)
        for a, at in placed if incl[x] else ():
            read_off[a] = [[zero if t is None else coords[t][i] for t in at] for i in range(len(incl[x]))]

    mats = {}
    for a in rq.arrows:
        if incl.get(a.source) and incl.get(a.target):
            if a.source.frozen:
                mats[a] = sub_map(kr.rep.mat(a), incl[a.target], incl[a.source], field)
                if mats[a] is None:
                    raise InternalConsistencyError("K_LR is not closed under the structure maps")
            elif a in read_off:
                mats[a] = read_off[a]
    dims = {x: len(c) for x, c in incl.items()}
    rep = WindowRep(kr.rep.q, kr.rep.window, kr.rep.config, dims, mats, field)
    out = KanIntermediate(M, rep, kr, incl)

    sup = M.support_levels()
    rep_sup = rep.support_levels()
    if rep_sup is not None and sup is not None:
        if rep_sup[0] < sup[0] or rep_sup[1] > sup[1]:
            raise InternalConsistencyError("K_LR support leaves the support levels of M")
    if rep_sup is not None and sup is None:
        raise InternalConsistencyError("K_LR of the zero module is nonzero")
    if not is_stable(rep):
        raise InternalConsistencyError("K_LR is not stable")
    if not is_costable(rep):
        raise InternalConsistencyError("K_LR is not co-stable")
    if not restrict(rep).equal(M):
        raise InternalConsistencyError("restriction of K_LR differs from the input module")
    return out


# ---------------------------------------------------------------------------
# Stability, co-stability, stabilization.
# ---------------------------------------------------------------------------

def _in_arrow_stack(rep: WindowRep, x: RepVertex):
    """Vertical stack of mat(beta) over the arrows beta: y -> x (maps out of the x-space)."""
    rows = []
    for beta in rep.rq.in_arrows(x):
        rows.extend(rep.mat(beta))
    return rows


def is_stable(rep: WindowRep) -> bool:
    """No nonzero submodule supported on non-frozen vertices: trivial socles there."""
    for x in rep.rq.vertices:
        if x.frozen or rep.dim(x) == 0:
            continue
        if mat_rank(_in_arrow_stack(rep, x), rep.dim(x), rep.field) < rep.dim(x):
            return False
    return True


def is_costable(rep: WindowRep) -> bool:
    """The frozen part generates everything: non-frozen values are hit from outgoing arrows.
    The arrows out of x are the sigma-images of those into tau^-1(x), so the relator row at
    tau^-1(x), which may lie one level above the window, must have full rank."""
    for x in rep.rq.vertices:
        if x.frozen or rep.dim(x) == 0:
            continue
        rows, width = relator_row(rep.rq, tau_inv(x), rep.dims, rep.mats)
        if mat_rank(rows, width, rep.field) < rep.dim(x):
            return False
    return True


def _torsion_cols(rep: WindowRep) -> Dict[RepVertex, list]:
    """Columns spanning T(x), the largest submodule supported on non-frozen vertices.

    T(x) is the set of vectors every in-arrow beta: y -> x maps into T(y),
    the kernel of the stacked rows ann(T(y)) mat(beta), where ann(T(y))
    (the rows annihilating T(y)) is the identity when T(y) = 0.  Vertices
    are taken in slice order, and a source not yet reached counts as T = 0.
    """
    field = rep.field
    tcols: Dict[RepVertex, list] = {}
    for x in rep.rq.vertices:
        if rep.dim(x) == 0 or x.frozen:
            tcols[x] = []
            continue
        rows = []
        for beta in rep.rq.in_arrows(x):
            m = rep.mats.get(beta)  # an absent matrix maps everything into T(y)
            if m is not None:
                rows.extend(mat_mul(kernel_cols(tcols.get(beta.source, []), rep.dim(beta.source), field), m, field))
        tcols[x] = kernel_cols(rows, rep.dim(x), field)
    return tcols


def stabilize(rep: WindowRep) -> WindowRep:
    """Quotient by the largest submodule supported on non-frozen vertices."""
    out, _ = _quotient_rep(rep, _torsion_cols(rep))
    if not is_stable(out):
        raise InternalConsistencyError("stabilize failed to produce a stable representation")
    return out


# ---------------------------------------------------------------------------
# The stratifying decomposition Phi and the stratum order.
# ---------------------------------------------------------------------------

def ext1_simple_into(rep: WindowRep, x: RepVertex) -> int:
    """dim Ext^1(S_x, rep) as the middle homology of rep(x) -> (+) rep(y) -> rep(tau x).

    The representation is treated as extended by zero outside its window,
    which is exact for intermediate extensions (their support certifiably
    stays inside); the middle term is read off the relator row, which
    answers one level above the window too.
    """
    field = rep.field
    row = relator_row(rep.rq, x, rep.dims, rep.mats)
    b_rows, mid_total = row if row is not None else ([], sum(rep.dim(b.source) for b in rep.rq.in_arrows(x)))
    if mid_total == 0:
        return 0
    if mesh_residual(rep, x) is not None:
        raise InternalConsistencyError(f"mesh relator at {x} not satisfied by the representation")
    rank_a = mat_rank(_in_arrow_stack(rep, x), rep.dim(x), field)
    return (mid_total - mat_rank(b_rows, mid_total, field)) - rank_a


@dataclass
class PhiResult:
    """The value of the stratifying decomposition at a point, with its stratum id.

    Shared by every caller that asks phi() about the same point: it and
    its dicts and klr must not be modified.
    """

    mult: Dict[RepVertex, int]       # multiplicity of the indecomposable at each vertex
    v: Dict[RepVertex, int]          # non-frozen dimension vector of the intermediate extension
    w: Dict[RepVertex, int]          # frozen dimension vector
    klr: WindowRep

    def stratum_id(self):
        return (tuple(sorted((x.key(), d) for x, d in self.v.items())),
                tuple(sorted((u.key(), d) for u, d in self.w.items())))

    def to_json(self):
        return {
            "phi": {x.key(): d for x, d in sorted(self.mult.items())},
            "v": {x.key(): d for x, d in sorted(self.v.items())},
            "w": {u.key(): d for u, d in sorted(self.w.items())},
        }


def phi(M: SModulePoint, w: Window) -> PhiResult:
    """Multiplicities of Phi(M), computed two independent ways and compared.

    The formula route reads (w o sigma - C_q v)(x) off the dimension vector
    of the intermediate extension; the homology route computes
    dim Ext^1(S_x, K_LR(M)) from the mesh complex.  Disagreement or a
    negative multiplicity is an internal-consistency failure.

    Computed once per point: on the point's own window the result is kept
    on M and the same object returned on every later call.  A call that
    raises keeps nothing.
    """
    if M._phi is not None and w == M.window:
        return M._phi
    klr = kan_intermediate(M, w).rep
    v = {x: d for x, d in klr.nonfrozen_dims().items()}
    wvec = M.w_vector()
    cq = cartan_apply(M.q, v)
    candidates = set(cq) | {sigma_inv(u) for u in wvec}
    for x in klr.rq.vertices:
        if not x.frozen:
            candidates.add(x)
    mult = {}
    for x in sorted(candidates):
        formula = wvec.get(sigma(x), 0) - cq.get(x, 0)
        homology = ext1_simple_into(klr, x)
        if formula != homology:
            raise InternalConsistencyError(
                f"Phi multiplicity mismatch at {x}: formula {formula}, homology {homology}")
        if formula < 0:
            raise InternalConsistencyError(f"negative Phi multiplicity at {x}")
        if formula:
            mult[x] = formula
    M._phi = PhiResult(mult, v, wvec, klr)  # kan_intermediate rejected any other window
    return M._phi


def same_stratum(M1: SModulePoint, M2: SModulePoint, w: Window) -> bool:
    """Whether two points of M_0(w) lie in the same stratum."""
    if M1.w_vector() != M2.w_vector():
        raise InvalidInputError("same_stratum needs equal frozen dimension vectors")
    r1, r2 = phi(M1, w), phi(M2, w)
    by_phi = r1.mult == r2.mult
    by_v = r1.v == r2.v
    if by_phi != by_v:
        raise InternalConsistencyError("Phi equality and dimension-vector equality disagree")
    return by_phi


def degeneration_leq(M1: SModulePoint, M2: SModulePoint, w: Window) -> bool:
    """Is the stratum of M2 contained in the closure of the stratum of M1?

    The componentwise criterion v2 <= v1 is cross-checked against solving
    C_q d = m2 - m1 and testing d >= 0; the two answers must agree.
    """
    if M1.w_vector() != M2.w_vector():
        raise InvalidInputError("degeneration_leq needs equal frozen dimension vectors")
    r1, r2 = phi(M1, w), phi(M2, w)
    keys = set(r1.v) | set(r2.v)
    by_v = all(r2.v.get(x, 0) <= r1.v.get(x, 0) for x in keys)
    mdiff = {}
    for x in set(r1.mult) | set(r2.mult):
        d = r2.mult.get(x, 0) - r1.mult.get(x, 0)
        if d:
            mdiff[x] = d
    solve_window = Window(w.lo - 1, w.hi + 2)
    d = cartan_solve(M1.q, mdiff, solve_window)
    by_cartan = all(val >= 0 for val in d.values())
    expected = {x: r1.v.get(x, 0) - r2.v.get(x, 0) for x in keys}
    expected = {x: val for x, val in expected.items() if val}
    if d != expected:
        raise InternalConsistencyError("C_q solve disagrees with the dimension-vector difference")
    if by_cartan != by_v:
        raise InternalConsistencyError("closure criteria disagree")
    return by_v


def closed_orbit(rep: WindowRep) -> Tuple[WindowRep, Dict[RepVertex, int]]:
    """The closed-orbit representative under the stable representation's orbit closure.

    Returns the intermediate extension of the restriction, on the
    representation's window, together with the non-frozen dimension vector
    of the semisimple complement.
    """
    if validate(rep):
        raise InvalidInputError("representation violates mesh relations")
    if not is_stable(rep):
        raise InvalidInputError("closed_orbit needs a stable representation")
    M = restrict(rep)
    klr = kan_intermediate(M, rep.window).rep
    complement = {}
    for x, d in rep.nonfrozen_dims().items():
        c = d - klr.dim(x)
        if c < 0:
            raise InternalConsistencyError("intermediate extension exceeds the stable representation")
        if c:
            complement[x] = c
    for x in klr.nonfrozen_dims():
        if klr.dim(x) > rep.dim(x):
            raise InternalConsistencyError("intermediate extension exceeds the stable representation")
    return klr, complement


def resolution_shape(M: SModulePoint, w: Window) -> dict:
    """Multiplicity lists of the length-one injective and projective resolutions
    of the intermediate extension."""
    res = phi(M, w)
    klr = res.klr
    field = M.field
    I0, I1f, P0, P1f = {}, {}, {}, {}
    for u in M.cat.objects:
        (b,), (c,) = rep_in_arrows(M.q, u), rep_out_arrows(M.q, u)
        xprev, xnext = b.source, c.target           # tau of sigma^{-1}(u), and sigma^{-1}(u)
        mb = klr.mat(b) if klr.window.contains(u) else []
        rank_b = mat_rank(mb, klr.dim(u), field)
        ker_b = klr.dim(u) - rank_b
        cok_b = klr.dim(xprev) - rank_b
        mc = klr.mat(c) if klr.window.contains(xnext) else []
        rank_c = mat_rank(mc, klr.dim(xnext), field)
        cok_c = klr.dim(u) - rank_c
        ker_c = klr.dim(xnext) - rank_c
        if ker_b:
            I0[u] = ker_b
        if cok_b:
            I1f[u] = cok_b
        if cok_c:
            P0[u] = cok_c
        if ker_c:
            P1f[u] = ker_c
        socle = M.module.socle_dim(u)
        if socle != ker_b:
            raise InternalConsistencyError(
                f"socle of M at {u} is {socle} but Hom(S, K_LR) has dimension {ker_b}")
    P1n = {}
    for x, m in res.mult.items():
        txi = tau_inv(x)
        P1n[txi] = P1n.get(txi, 0) + m
    return {
        "I0": I0,
        "I1": {"frozen": I1f, "nonfrozen": dict(res.mult)},
        "P0": P0,
        "P1": {"frozen": P1f, "nonfrozen": P1n},
        "phi": dict(res.mult),
    }


# ---------------------------------------------------------------------------
# Desingularization fibers via submodule enumeration over a prime field.
# ---------------------------------------------------------------------------

@dataclass
class FiberResult:
    nonempty: Optional[bool]            # None means undetermined (bound exceeded)
    field_char: int
    v0: Dict[RepVertex, int]            # dimension vector of the intermediate extension
    attained: List[dict]                # submodule dimension vectors of CK (as key dicts)
    witness: Optional[WindowRep]        # a stable representation of dimension (v, w), if nonempty
    detail: str = ""

    def to_json(self):
        return {
            "nonempty": self.nonempty,
            "field": self.field_char,
            "v0": {x.key(): d for x, d in sorted(self.v0.items())},
            "attained": [dict(sorted(u.items())) for u in self.attained],
            "witness": self.witness.to_json() if self.witness is not None else None,
            "detail": self.detail,
        }


# The most subspaces fiber() enumerates in one CK stalk, and the most combinations of
# every stalk's subspaces its search may walk; past either, the answer is undetermined.
MAX_STALK_SUBSPACES = 100_000


def _subspace_count(d: int, p: int) -> int:
    """The number of subspaces of GF(p)^d: the Gaussian binomials [d k]_p summed over k,
    in integers (each binomial's product divides exactly)."""
    total = 0
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (d - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def _field_words(field: PrimeField, n: int):
    """Every n-tuple of field elements, lexicographic in their values 0, ..., p - 1,
    made one at a time: an element is made when a word first takes its value, so
    no pool of the field's elements is listed up front."""
    made = [field.zero]  # made[i] is the element of value i
    top = field.p - 1
    values = [0] * n
    word = [field.zero] * n
    while True:
        yield tuple(word)
        j = n - 1
        while j >= 0 and values[j] == top:
            values[j] = 0
            word[j] = field.zero
            j -= 1
        if j < 0:
            return
        i = values[j] = values[j] + 1
        if i == len(made):
            made.append(field.of_int(i))
        word[j] = made[i]


def _enumerate_subspaces(d: int, field: PrimeField):
    """Every subspace of field^d, each as a fresh list of basis columns (RREF rows).

    A generator: the subspaces are made one at a time, in order of
    dimension, then pivot positions, then free entries, never all at once.
    The free entries are drawn one word at a time (_field_words), so a
    large prime costs time only for the subspaces actually taken.
    """
    yield []
    for k in range(1, d + 1):
        for pivots in itertools.combinations(range(d), k):
            free_pos = []
            for i, p in enumerate(pivots):
                for c in range(p + 1, d):
                    if c not in pivots:
                        free_pos.append((i, c))
            pivot_rows = [[field.zero] * d for _ in range(k)]
            for i, p in enumerate(pivots):
                pivot_rows[i][p] = field.one
            for assign in _field_words(field, len(free_pos)):
                rows = [r[:] for r in pivot_rows]
                for (i, c), val in zip(free_pos, assign):
                    rows[i][c] = val
                yield rows


class _FiberStage:
    """The GF(p) stage of fiber() at one point, prime and window.

    It holds the reduced point, its intermediate extension and CK =
    K_R/K_LR in the kernel coordinates of K_R, after the checks that CK
    vanishes on frozen vertices and stays below the window top; and, once
    a call lies within its bound, the first submodule of CK found for each
    attained dimension vector.  fiber() keeps one per (point, p, window) in
    quiver_core.shared, so mesh_hom.clear_cache() drops it; a build that
    raises keeps nothing.  Nothing in it may be modified.
    """

    def __init__(self, M: SModulePoint, p: int, w: Window):
        self.point = M  # keeps M alive, so its id names no other point while the stage is shared
        field = self.field = PrimeField(p)
        self.Mp = M.reduce_mod(field) if not isinstance(M.field, PrimeField) else M
        self.ki = kan_intermediate(self.Mp, w)
        self.v0 = self.ki.rep.nonfrozen_dims()
        ck, self.ck_kept = _quotient_rep(self.ki.kr.rep, self.ki.incl_cols)
        for x in ck.rq.vertices:
            if x.frozen and ck.dim(x):
                raise InternalConsistencyError("CK does not vanish on a frozen vertex")
        for x in ck.rq.vertices:
            if x.level == w.hi and ck.dim(x):
                raise WindowInsufficiencyError("CK support reaches the window top; enlarge the window")
        self.ck = ck

    @cached_property
    def choices(self) -> int:
        """The most subspace choices attained's search can walk: the product of every CK
        stalk's subspace count."""
        return math.prod(_subspace_count(d, self.field.p) for d in self.ck.dims.values())

    @cached_property
    def attained(self) -> Dict[tuple, Dict[RepVertex, list]]:
        """Every submodule dimension vector of CK, keyed by its sorted (vertex key, dim) pairs."""
        ck, field = self.ck, self.field
        order = [x for x in reversed(ck.rq.vertices) if ck.dim(x)]
        attained: Dict[tuple, Dict[RepVertex, list]] = {}

        def forced_at(x, choice):
            cols = []
            for a in ck.rq.out_arrows(x):
                m = ck.mats.get(a)
                if a.target not in choice or m is None:
                    continue
                for colv in choice[a.target]:
                    img = mat_vec(m, colv, field)
                    if any(c != field.zero for c in img):
                        cols.append(img)
            return cols

        def recurse(i, choice):
            if i == len(order):
                key = tuple(sorted((x.key(), len(cols)) for x, cols in choice.items() if cols))
                if key not in attained:
                    attained[key] = {x: [list(c) for c in cols] for x, cols in choice.items()}
                return
            x = order[i]
            forced = forced_at(x, choice)
            for cols in _enumerate_subspaces(ck.dim(x), field):
                if any(co is None for co in solve_many(cols, forced, field)):
                    continue
                choice[x] = cols
                recurse(i + 1, choice)
            choice.pop(x, None)

        recurse(0, {})
        return {key: attained[key] for key in sorted(attained)}


def fiber(M: SModulePoint, v: Dict[RepVertex, int], p: int, w: Window, bound: int = 64) -> FiberResult:
    """Non-emptiness of the desingularization fiber over M at dimension vector v.

    Materializes CK(M) = K_R(M)/K_LR(M) over GF(p), enumerates all of its
    submodule dimension vectors exhaustively, and reports whether v - v0 is
    attained.  When it is, the preimage inside K_R(M) is returned as an
    explicit stable representation of dimension (v, w) and validated.
    Everything happens over GF(p); the answer is labeled with its field.
    M must be over QQ, which is reduced mod p, or already over GF(p).

    The GF(p) stage (see _FiberStage) is computed once per (M, p, w) and
    shared by later calls until mesh_hom.clear_cache(); each call checks
    its own bound, looks up its target and lifts and validates its witness.
    A negative bound is an input error; bound 0 answers only when CK is zero.
    """
    if bound < 0:
        raise InvalidInputError("bound must be >= 0")
    if not is_dynkin(M.q).is_dynkin:
        raise InvalidInputError("fiber enumeration requires a Dynkin quiver")
    if isinstance(M.field, PrimeField) and M.field.p != p:
        raise InvalidInputError(f"the point is over GF({M.field.p}), not GF({p}); "
                                f"fiber over GF({p}) takes a point over QQ or GF({p})")
    stage = shared(("fiber", id(M), p, w), _FiberStage, M, p, w)
    field, kr, ki = stage.field, stage.ki.kr, stage.ki
    v0 = dict(stage.v0)

    total = stage.ck.total_dim()
    if total > bound:
        return FiberResult(None, p, v0, [], None, f"CK dimension {total} exceeds the bound {bound}")
    d = max(stage.ck.dims.values(), default=0)  # the largest stalk has the most subspaces
    count = _subspace_count(d, p)
    if count > MAX_STALK_SUBSPACES:
        return FiberResult(None, p, v0, [], None, f"a CK stalk of dimension {d} has {count} subspaces, "
                           f"more than the limit {MAX_STALK_SUBSPACES}")
    if stage.choices > MAX_STALK_SUBSPACES:
        return FiberResult(None, p, v0, [], None, f"the CK stalks' subspaces combine in {stage.choices} ways, "
                           f"more than the limit {MAX_STALK_SUBSPACES}")

    attained = stage.attained
    attained_dims = [dict(key) for key in attained]

    target = {}
    negative = False
    for x in set(v) | set(v0):
        diff = v.get(x, 0) - v0.get(x, 0)
        if diff < 0:
            negative = True
        if diff:
            target[x] = diff
    if negative:
        return FiberResult(False, p, v0, attained_dims, None, "v - v0 has a negative component")
    key = tuple(sorted((x.key(), d) for x, d in target.items()))
    if key not in attained:
        return FiberResult(False, p, v0, attained_dims, None, "dimension vector not attained by any submodule")

    witness_sub = attained[key]
    lift_cols: Dict[RepVertex, list] = {}
    for x in kr.rep.rq.vertices:
        cols = [list(c) for c in ki.incl_cols[x]]
        for colv in witness_sub.get(x, []):
            vec = [field.zero] * kr.dim(x)
            for t, c in enumerate(colv):
                if c != field.zero:
                    vec[stage.ck_kept[x][t]] += c
            cols.append(vec)
        lift_cols[x] = cols
    witness = _sub_rep(kr.rep, lift_cols, "witness lift is not closed under the structure maps")
    if validate(witness):
        raise InternalConsistencyError("witness violates mesh relations")
    if not is_stable(witness):
        raise InternalConsistencyError("witness is not stable")
    if not restrict(witness).equal(stage.Mp):
        raise InternalConsistencyError("witness does not restrict to the input point")
    got_v = witness.nonfrozen_dims()
    want_v = {x: d for x, d in v.items() if d}
    if got_v != want_v:
        raise InternalConsistencyError(f"witness dimension vector {got_v} differs from requested {want_v}")
    return FiberResult(True, p, v0, attained_dims, witness, "witness lifted and validated")


# ---------------------------------------------------------------------------
# Representable representations (used by demos, tests and oracles).
# ---------------------------------------------------------------------------

def representable_rep(q: Quiver, window: Window, u0: RepVertex,
                      config: Optional[Configuration] = None, field=QQ) -> WindowRep:
    """The free module at u0 as a window representation: z |-> Hom(z, u0)."""
    config = config if config is not None else Configuration.full()
    rc = MeshContext(q, "RC", config)
    if not rc.contains(u0):
        raise InvalidInputError(f"{u0} is not an object of the configured category")
    rq = build_repetition(q, True, window, config)
    dims = {}
    for z in rq.vertices:
        d = sweep(rc, z, window, field).dim(u0) if z.level <= u0.level else 0
        if d:
            dims[z] = d
    mats = {}
    for a in rq.arrows:
        if dims.get(a.source) and dims.get(a.target):
            mats[a] = precomposition_matrix(rc, (a,), a.source, a.target, u0, window, field)
    return WindowRep(q, window, config, dims, mats, field)
