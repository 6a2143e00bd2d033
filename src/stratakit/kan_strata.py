"""Window representations, Kan extensions, the stratifying decomposition,
degeneration order, closed orbits, resolution shapes and fibers.

Matrix conventions are contravariant throughout: the matrix of an arrow
a: x -> y maps the space at y to the space at x (rows indexed by the
source, columns by the target), matching functors out of the opposite
category.  A window representation is the data of a point of the
representation space rep(R_C^op, v, w).

Points of the affine variety M_0(w) are entered as restrictions of window
representations; semisimple points need only the frozen dimension vector.

Two independent computations back every stratum invariant: the
multiplicity formula w o sigma - C_q v and the mesh-homology Ext^1 count.
A disagreement raises InternalConsistencyError and is never smoothed over.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .catmod import CatModule, SCategoryWindow, semisimple_module
from .dq_engine import cartan_apply, cartan_solve, is_dynkin
from .errors import InternalConsistencyError, InvalidInputError, WindowInsufficiencyError
from .exact_linalg import (
    QQ,
    RatMatrix,
    coords_in_col_span,
    identity_rows,
    kernel_cols,
    mat_mul,
    mat_rank,
    quotient_coords,
    rref,
    solve_cols,
)
from .mesh_hom import MeshContext, sweep
from .quiver_core import (
    Configuration,
    Quiver,
    RepArrow,
    RepQuiver,
    RepVertex,
    Window,
    parse_arrow_key,
    parse_vertex,
    sigma,
    sigma_arrow,
    sigma_inv,
    tau,
    tau_inv,
)


# ---------------------------------------------------------------------------
# A small prime field for the fiber oracle.  Exhaustive subspace enumeration
# is only finite over finite fields, so the fiber answer is labeled with its
# field and not asserted to equal the complex-geometric one.
# ---------------------------------------------------------------------------

class GFElement:
    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return GFElement(self.v + other.v, self.p)

    def __sub__(self, other):
        return GFElement(self.v - other.v, self.p)

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __mul__(self, other):
        return GFElement(self.v * other.v, self.p)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}(mod {self.p})"


class PrimeField:
    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise InvalidInputError(f"{p} is not prime")
        self.p = p
        self.zero = GFElement(0, p)
        self.one = GFElement(1, p)
        self.key = f"GF{p}"

    def of_int(self, n: int) -> GFElement:
        return GFElement(n, self.p)

    def of_fraction(self, x: Fraction) -> GFElement:
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise InvalidInputError(f"denominator of {x} not invertible mod {self.p}")
        return GFElement(x.numerator * pow(x.denominator % self.p, self.p - 2, self.p), self.p)

    def elements(self):
        return [GFElement(i, self.p) for i in range(self.p)]


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
        self.rq = RepQuiver(q, True, window, self.config)
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

    def frozen_dims(self) -> Dict[RepVertex, int]:
        return {v: d for v, d in self.dims.items() if v.frozen}

    def support_levels(self) -> Optional[Tuple[int, int]]:
        if not self.dims:
            return None
        levels = [v.level for v in self.dims]
        return min(levels), max(levels)

    def path_matrix(self, path) -> list:
        """The action of a path, composed contravariantly along its arrows."""
        if not path:
            raise InvalidInputError("path_matrix needs a nonempty path; identities are implicit")
        out = self.mat(path[0])
        rows = self.dim(path[0].source)
        for a in path[1:]:
            out = _mul(out, self.mat(a), rows, self.dim(a.source), self.dim(a.target), self.field)
        return out

    def value_of_path(self, path, start: RepVertex):
        if not path:
            return identity_rows(self.dim(start), self.field)
        return self.path_matrix(path)

    def equal_data(self, other: "WindowRep") -> bool:
        if self.dims != other.dims:
            return False
        keys = set(self.mats) | set(other.mats)
        return all(self.mat(a) == other.mat(a) for a in keys)

    def direct_sum(self, other: "WindowRep") -> "WindowRep":
        if self.window != other.window or self.q.key() != other.q.key():
            raise InvalidInputError("direct sum needs matching quiver and window")
        dims = {v: self.dim(v) + other.dim(v) for v in set(self.dims) | set(other.dims)}
        mats = {}
        for a in set(self.mats) | set(other.mats):
            r1, c1 = self.dim(a.source), self.dim(a.target)
            r2, c2 = other.dim(a.source), other.dim(a.target)
            m = [[self.field.zero] * (c1 + c2) for _ in range(r1 + r2)]
            m1, m2 = self.mat(a), other.mat(a)
            for i in range(r1):
                for j in range(c1):
                    m[i][j] = m1[i][j]
            for i in range(r2):
                for j in range(c2):
                    m[r1 + i][c1 + j] = m2[i][j]
            mats[a] = m
        return WindowRep(self.q, self.window, self.config, dims, mats, self.field)

    def base_change(self, g: Dict[RepVertex, list]) -> "WindowRep":
        """Conjugate by invertible matrices at the given (non-frozen) vertices."""
        ginv = {}
        for v, mat in g.items():
            d = self.dim(v)
            if len(mat) != d:
                raise InvalidInputError(f"base change at {v} has wrong size")
            inv = _invert(mat, self.field)
            ginv[v] = inv
        mats = {}
        for a in self.mats:
            m = self.mat(a)
            if a.source in g:
                m = mat_mul(g[a.source], m, self.field)
            if a.target in ginv and m:
                m = mat_mul(m, ginv[a.target], self.field)
            mats[a] = m
        return WindowRep(self.q, self.window, self.config, dict(self.dims), mats, self.field)

    def reduce_mod(self, field: PrimeField) -> "WindowRep":
        mats = {a: [[field.of_fraction(x) for x in row] for row in m] for a, m in self.mats.items()}
        return WindowRep(self.q, self.window, self.config, dict(self.dims), mats, field)

    def to_json(self):
        if isinstance(self.field, PrimeField):
            encode = lambda x: str(x.v)
            field_tag = self.field.p
        else:
            from .exact_linalg import format_fraction

            encode = format_fraction
            field_tag = "QQ"
        data = {
            "quiver": self.q.to_json(),
            "framed": True,
            "window": self.window.to_json(),
            "configuration": self.config.to_json(),
            "dims": {v.key(): d for v, d in sorted(self.dims.items())},
            "mats": {a.key(): [[encode(x) for x in row] for row in m]
                     for a, m in sorted(self.mats.items(), key=lambda kv: kv[0].key())},
        }
        if field_tag != "QQ":
            data["field"] = field_tag
        return data

    @classmethod
    def from_json(cls, data) -> "WindowRep":
        try:
            q = Quiver.from_json(data["quiver"])
            window = Window.from_json(data["window"])
            config = Configuration.from_json(data.get("configuration"))
            dims = {parse_vertex(k): int(d) for k, d in data.get("dims", {}).items()}
            field_tag = data.get("field", "QQ")
            field = QQ if field_tag == "QQ" else PrimeField(int(field_tag))
            mats = {}
            for key, rowsdata in data.get("mats", {}).items():
                a = parse_arrow_key(q, key)
                if field_tag == "QQ":
                    mats[a] = RatMatrix.from_json(rowsdata, rows=dims.get(a.source, 0),
                                                  cols=dims.get(a.target, 0)).row_list()
                else:
                    mats[a] = [[field.of_int(int(x)) for x in row] for row in rowsdata]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed window representation: {exc}") from exc
        return cls(q, window, config, dims, mats, field)


def _mul(a, b, n, k, m, field):
    """Product of an n x k and a k x m matrix, tolerating zero dimensions."""
    if n == 0 or m == 0 or k == 0:
        return [[field.zero] * m for _ in range(n)]
    return mat_mul(a, b, field)


def _invert(mat: list, field) -> list:
    n = len(mat)
    aug = [list(mat[i]) + [field.one if j == i else field.zero for j in range(n)] for i in range(n)]
    red, pivots = rref(aug, 2 * n, field)
    if pivots[:n] != list(range(n)):
        raise InvalidInputError("matrix is not invertible")
    return [row[n:] for row in red]


def zero_rep(q: Quiver, window: Window, config: Optional[Configuration] = None, field=QQ) -> WindowRep:
    return WindowRep(q, window, config, {}, {}, field)


def simple_rep(q: Quiver, window: Window, v: RepVertex, config: Optional[Configuration] = None, field=QQ) -> WindowRep:
    return WindowRep(q, window, config, {v: 1}, {}, field)


def validate(rep: WindowRep) -> list:
    """All in-window mesh relators violated by the representation, with residuals.

    For each non-frozen x with tau(x) in the window, the residual is the sum
    over arrows beta: y -> x of mat(sigma beta) mat(beta), a matrix from the
    space at x to the space at tau(x); it must vanish exactly.
    """
    bad = []
    for x in rep.rq.vertices:
        if x.frozen or not rep.window.contains(tau(x)):
            continue
        tx = tau(x)
        rows, cols = rep.dim(tx), rep.dim(x)
        if rows == 0 or cols == 0:
            continue
        residual = [[rep.field.zero] * cols for _ in range(rows)]
        for beta in rep.rq.in_arrows(x):
            sb = sigma_arrow(rep.q, beta)
            part = _mul(rep.mat(sb), rep.mat(beta), rows, rep.dim(beta.source), cols, rep.field)
            for i in range(rows):
                for j in range(cols):
                    residual[i][j] += part[i][j]
        if any(xv != rep.field.zero for r in residual for xv in r):
            bad.append((x, residual))
    return bad


# ---------------------------------------------------------------------------
# Points of the affine quiver variety: restrictions to the singular category.
# ---------------------------------------------------------------------------

class SModulePoint:
    """A point of M_0(w): a module over the windowed singular category."""

    def __init__(self, cat: SCategoryWindow, module: CatModule):
        self.cat = cat
        self.module = module

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
        cat = SCategoryWindow(q, config, window, field)
        return cls(cat, semisimple_module(cat, {u: d for u, d in w.items() if d}))

    def reduce_mod(self, field: PrimeField) -> "SModulePoint":
        cat = SCategoryWindow(self.q, self.cat.config, self.window, field)
        act = {}
        for key, m in self.module.act.items():
            act[key] = [[field.of_fraction(x) for x in row] for row in m]
        return SModulePoint(cat, CatModule(cat, dict(self.module.dims), act))


def restrict(rep: WindowRep) -> SModulePoint:
    """The frozen part of a valid representation, with its full action tables.

    Base change at non-frozen vertices leaves the result unchanged: the
    action of a singular-category morphism is the product of the arrow
    matrices along any representative path, and validity makes that class
    independent of the representative.
    """
    bad = validate(rep)
    if bad:
        raise InvalidInputError(f"representation violates {len(bad)} mesh relator(s), first at {bad[0][0]}")
    cat = SCategoryWindow(rep.q, rep.config, rep.window, rep.field)
    dims = {u: rep.dim(u) for u in cat.objects}
    act = {}
    for u, v, dk in cat.hom_pairs():
        if dims.get(u, 0) == 0 or dims.get(v, 0) == 0:
            continue
        for k in range(dk):
            path = cat.basis_paths(u, v)[k]
            act[(u, v, k)] = rep.value_of_path(path, u)
    return SModulePoint(cat, CatModule(cat, dims, act))


# ---------------------------------------------------------------------------
# Right Kan extension: pointwise spaces of natural transformations.
# ---------------------------------------------------------------------------

class KanRight:
    """K_R(M) on the window, with the ambient data needed by later stages.

    The value at x is the space of module maps res(x^) -> M, realized as
    the kernel of the naturality system over the coordinates phi_u(f_i)[j],
    u running over frozen objects in the support of M and f_i over a Hom
    basis of R_C(u, x).  Values at window vertices are exact: every
    morphism and every constraint between the support and x lives on the
    intermediate levels.
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
    if w != M.window:
        raise WindowInsufficiencyError("kan_right must be computed on the module's own window")
    cat = M.cat
    field = M.field
    rc = MeshContext(cat.q, "RC", cat.config)
    rq = RepQuiver(cat.q, True, w, cat.config)
    support = [u for u in cat.objects if M.dim(u) > 0]
    sup_levels = M.support_levels()

    amb_index: Dict[RepVertex, list] = {}
    basis_cols: Dict[RepVertex, list] = {}

    def hom_fun(u):
        return sweep(rc, u, w, field)

    for x in rq.vertices:
        if sup_levels is None or x.level < sup_levels[0]:
            amb_index[x] = []
            basis_cols[x] = []
            continue
        index = []
        offsets = {}
        for u in support:
            d = hom_fun(u).dim(x)
            if d == 0:
                continue
            offsets[u] = len(index)
            for i in range(d):
                for j in range(M.dim(u)):
                    index.append((u, i, j))
        amb_index[x] = index
        nvars = len(index)
        if nvars == 0:
            basis_cols[x] = []
            continue
        rows = []
        for u in support:
            fu = hom_fun(u)
            # when Hom(u,x) vanishes the left side of naturality is zero,
            # but the square still forces M(s) phi_v(f) = 0, so keep going
            mu = M.dim(u)
            du_x = fu.dim(x)
            for v in cat.objects:
                if v.level < u.level:
                    continue
                dk = cat.dim(u, v)
                if dk == 0:
                    continue
                fv = hom_fun(v) if M.dim(v) > 0 else sweep(rc, v, w, field)
                dv_x = fv.dim(x)
                if dv_x == 0:
                    continue
                for k in range(dk):
                    s_path = cat.basis_paths(u, v)[k]
                    for i in range(dv_x):
                        f_path = fv.basis_paths(x)[i]
                        comp = fu.reduce_path(tuple(s_path) + tuple(f_path))
                        amat = M.module.act_mat(u, v, k) if M.dim(v) > 0 else None
                        for j in range(mu):
                            row = [field.zero] * nvars
                            nonzero = False
                            for l in range(du_x):
                                if comp[l] != field.zero:
                                    row[offsets[u] + l * mu + j] = comp[l]
                                    nonzero = True
                            if amat is not None and v in offsets:
                                for j2 in range(M.dim(v)):
                                    c = amat[j][j2]
                                    if c != field.zero:
                                        row[offsets[v] + i * M.dim(v) + j2] -= c
                                        nonzero = True
                            if nonzero:
                                rows.append(row)
        basis_cols[x] = kernel_cols(rows, nvars, field) if rows else identity_rows(nvars, field)

    # Structure maps in kernel coordinates.
    dims = {x: len(basis_cols[x]) for x in rq.vertices}
    mats = {}
    for a in rq.arrows:
        x, y = a.source, a.target
        if dims.get(x, 0) == 0 or dims.get(y, 0) == 0:
            continue
        # ambient transform amb(y) -> amb(x)
        idx_y = {t: pos for pos, t in enumerate(amb_index[y])}
        cols = []
        for col in basis_cols[y]:
            vec = [field.zero] * len(amb_index[x])
            for pos, (u, l, j) in enumerate(amb_index[x]):
                fu = hom_fun(u)
                d = fu.reduce_path(tuple(fu.basis_paths(x)[l]) + (a,))
                s = field.zero
                for m_i, c in enumerate(d):
                    if c != field.zero:
                        key = (u, m_i, j)
                        if key in idx_y:
                            s += c * col[idx_y[key]]
                vec[pos] = s
            co = coords_in_col_span(basis_cols[x], vec, field)
            if co is None:
                raise InternalConsistencyError("K_R structure map leaves the computed value space")
            cols.append(co)
        mats[a] = [[cols[j][i] for j in range(len(cols))] for i in range(dims[x])]

    rep = WindowRep(cat.q, w, cat.config, dims, mats, field)

    theta = {}
    for u in cat.objects:
        mu = M.dim(u)
        rows_t = []
        pos_of = {t: pos for pos, t in enumerate(amb_index.get(u, []))}
        for j in range(mu):
            rows_t.append([col[pos_of[(u, 0, j)]] if (u, 0, j) in pos_of else field.zero
                           for col in basis_cols.get(u, [])])
        theta[u] = rows_t
        if rep.dim(u) != mu:
            raise InternalConsistencyError(f"res K_R at {u} has dimension {rep.dim(u)} != {mu}")
        if mu and mat_rank(rows_t, mu, field) != mu:
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
    """K_L(M): the coend presentation, as the cokernel of the bilinearity relations.

    Unsupported for non-Dynkin quivers, where K_L(M) has unbounded support.
    """
    if not is_dynkin(M.q).is_dynkin:
        raise InvalidInputError("kan_left requires a Dynkin quiver (K_L has unbounded support otherwise)")
    if w != M.window:
        raise WindowInsufficiencyError("kan_left must be computed on the module's own window")
    cat = M.cat
    field = M.field
    rc = MeshContext(cat.q, "RC", cat.config)
    rq = RepQuiver(cat.q, True, w, cat.config)
    support = [u for u in cat.objects if M.dim(u) > 0]

    def fun(z):
        return sweep(rc, z, w, field)

    gen_index: Dict[RepVertex, list] = {}
    gen_coords: Dict[RepVertex, list] = {}
    kept: Dict[RepVertex, list] = {}
    for x in rq.vertices:
        index = []
        offsets = {}
        fx = fun(x)
        for u in support:
            d = fx.dim(u)
            if d == 0:
                continue
            offsets[u] = len(index)
            for g in range(d):
                for j in range(M.dim(u)):
                    index.append((u, g, j))
        gen_index[x] = index
        n = len(index)
        if n == 0:
            gen_coords[x] = []
            kept[x] = []
            continue
        rel_cols = []
        for u in cat.objects:
            du = fx.dim(u)
            if du == 0:
                continue
            for v in support:
                if v.level < u.level:
                    continue
                dk = cat.dim(u, v)
                if dk == 0:
                    continue
                for k in range(dk):
                    s_path = cat.basis_paths(u, v)[k]
                    amat = M.module.act_mat(u, v, k)
                    for g in range(du):
                        comp = fx.reduce_path(tuple(fx.basis_paths(u)[g]) + tuple(s_path))
                        for j2 in range(M.dim(v)):
                            col = [field.zero] * n
                            if v in offsets:
                                for l, c in enumerate(comp):
                                    if c != field.zero:
                                        col[offsets[v] + l * M.dim(v) + j2] += c
                            if u in offsets:
                                for j in range(M.dim(u)):
                                    c = amat[j][j2]
                                    if c != field.zero:
                                        col[offsets[u] + g * M.dim(u) + j] -= c
                            if any(cv != field.zero for cv in col):
                                rel_cols.append(col)
        kx, coords = quotient_coords(n, rel_cols, field)
        kept[x] = kx
        gen_coords[x] = coords

    dims = {x: len(kept[x]) for x in rq.vertices}
    mats = {}
    for a in rq.arrows:
        x, y = a.source, a.target
        if dims.get(x, 0) == 0 or dims.get(y, 0) == 0:
            continue
        fx = fun(x)
        idx_x = {t: pos for pos, t in enumerate(gen_index[x])}
        cols = []
        for t in kept[y]:
            (u, g, j) = gen_index[y][t]
            f_path = fun(y).basis_paths(u)[g]
            d = fx.reduce_path((a,) + tuple(f_path))
            vec = [field.zero] * dims[x]
            for l, c in enumerate(d):
                if c == field.zero:
                    continue
                key = (u, l, j)
                pos = idx_x.get(key)
                if pos is None:
                    raise InternalConsistencyError("K_L generator bookkeeping out of sync")
                co = gen_coords[x][pos]
                for i in range(dims[x]):
                    vec[i] += c * co[i]
            cols.append(vec)
        mats[a] = [[cols[jj][ii] for jj in range(len(cols))] for ii in range(dims[x])]
    rep = WindowRep(cat.q, w, cat.config, dims, mats, field)
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
        cols = []
        for t in kl.kept[x]:
            (u, g, j) = kl.gen_index[x][t]
            g_path = sweep(rc, x, M.window, field).basis_paths(u)[g]
            vec = [field.zero] * len(amb)
            for pos, (u2, i, j2) in enumerate(amb):
                fu2 = sweep(rc, u2, M.window, field)
                f_path = fu2.basis_paths(x)[i]
                e = fu2.reduce_path(tuple(f_path) + tuple(g_path))
                s = field.zero
                for k, c in enumerate(e):
                    if c != field.zero:
                        s += c * M.module.act_mat(u2, u, k)[j2][j]
                vec[pos] = s
            co = coords_in_col_span(kr.basis_cols[x], vec, field)
            if co is None:
                raise InternalConsistencyError("canonical map does not land in K_R (bug)")
            cols.append(co)
        out[x] = [[cols[jj][ii] for jj in range(len(cols))] for ii in range(dr)]
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
    supp(M).  All three facts are asserted, not assumed.
    """
    kr = kan_right(M, w)
    cat = M.cat
    field = M.field
    rq = kr.rep.rq
    incl: Dict[RepVertex, list] = {}
    for x in reversed(rq.vertices):
        dkx = kr.dim(x)
        if dkx == 0:
            incl[x] = []
            continue
        if x.frozen:
            # theta-normalized basis: columns mapping to the standard basis of M(x)
            cols = []
            th = kr.theta[x]
            for j in range(M.dim(x)):
                e = [field.one if i == j else field.zero for i in range(M.dim(x))]
                sol, cert = solve_cols(th, e, field)
                if sol is None:
                    raise InternalConsistencyError("theta not invertible at a frozen vertex")
                cols.append(sol)
            incl[x] = cols
            continue
        gathered = []
        for a in rq.out_arrows(x):
            m = kr.rep.mats.get(a)
            if m is None or not incl.get(a.target):
                continue
            for col in incl[a.target]:
                img = [sum((m[i][jj] * col[jj] for jj in range(len(col)) if col[jj] != field.zero), field.zero)
                       for i in range(dkx)]
                if any(xx != field.zero for xx in img):
                    gathered.append(img)
        if not gathered:
            incl[x] = []
            continue
        rows = [[gathered[j][i] for j in range(len(gathered))] for i in range(dkx)]
        _, pivots = rref(rows, len(gathered), field)
        incl[x] = [gathered[j] for j in pivots]

    dims = {x: len(incl[x]) for x in rq.vertices}
    mats = {}
    for a in rq.arrows:
        x, y = a.source, a.target
        if dims.get(x, 0) == 0 or dims.get(y, 0) == 0:
            continue
        m = kr.rep.mat(a)
        cols = []
        for col in incl[y]:
            img = [sum((m[i][jj] * col[jj] for jj in range(len(col)) if col[jj] != field.zero), field.zero)
                   for i in range(kr.dim(x))]
            co = coords_in_col_span(incl[x], img, field)
            if co is None:
                raise InternalConsistencyError("K_LR is not closed under the structure maps")
            cols.append(co)
        mats[a] = [[cols[jj][ii] for jj in range(len(cols))] for ii in range(dims[x])]
    rep = WindowRep(cat.q, w, cat.config, dims, mats, field)
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


def _out_arrow_stack(rep: WindowRep, x: RepVertex):
    """Horizontal stack of mat(gamma) over arrows gamma: x -> y (maps into the x-space)."""
    cols = []
    for gamma in rep.rq.out_arrows(x):
        m = rep.mat(gamma)
        dy = rep.dim(gamma.target)
        for j in range(dy):
            cols.append([m[i][j] for i in range(rep.dim(x))])
    return cols


def is_stable(rep: WindowRep) -> bool:
    """No nonzero submodule supported on non-frozen vertices: trivial socles there."""
    for x in rep.rq.vertices:
        if x.frozen or rep.dim(x) == 0:
            continue
        rows = _in_arrow_stack(rep, x)
        if not rows or mat_rank(rows, rep.dim(x), rep.field) < rep.dim(x):
            return False
    return True


def is_costable(rep: WindowRep) -> bool:
    """The frozen part generates everything: non-frozen values are hit from outgoing arrows."""
    for x in rep.rq.vertices:
        if x.frozen or rep.dim(x) == 0:
            continue
        cols = _out_arrow_stack(rep, x)
        if not cols:
            return False
        rows = [[c[i] for c in cols] for i in range(rep.dim(x))]
        if mat_rank(rows, len(cols), rep.field) < rep.dim(x):
            return False
    return True


def stabilize(rep: WindowRep) -> WindowRep:
    """Quotient by the largest submodule supported on non-frozen vertices."""
    field = rep.field
    tcols: Dict[RepVertex, list] = {}
    for x in rep.rq.vertices:
        d = rep.dim(x)
        if d == 0 or x.frozen:
            tcols[x] = []
            continue
        cols = identity_rows(d, field)
        for beta in rep.rq.in_arrows(x):
            m = rep.mat(beta)
            sub = tcols.get(beta.source)
            if sub is None:
                sub = []
            from .exact_linalg import preimage_cols
            pre = preimage_cols(m, d, sub, field) if rep.dim(beta.source) else identity_rows(d, field)
            cols = _intersect_spans(cols, pre, d, field)
            if not cols:
                break
        tcols[x] = cols
    # quotient spaces and induced maps
    proj = {}
    dims = {}
    for x in rep.rq.vertices:
        d = rep.dim(x)
        kept, coords = quotient_coords(d, tcols[x], field)
        dims[x] = len(kept)
        proj[x] = (kept, coords)
    mats = {}
    for a in rep.rq.arrows:
        x, y = a.source, a.target
        if dims.get(x, 0) == 0 or dims.get(y, 0) == 0:
            continue
        kept_y, _ = proj[y]
        _, coords_x = proj[x]
        m = rep.mat(a)
        cols = []
        for t in kept_y:
            img = [m[i][t] for i in range(rep.dim(x))]
            vec = [field.zero] * dims[x]
            for i, c in enumerate(img):
                if c != field.zero:
                    co = coords_x[i]
                    for r in range(dims[x]):
                        vec[r] += c * co[r]
            cols.append(vec)
        mats[a] = [[cols[jj][ii] for jj in range(len(cols))] for ii in range(dims[x])]
    out = WindowRep(rep.q, rep.window, rep.config, dims, mats, field)
    if not is_stable(out):
        raise InternalConsistencyError("stabilize failed to produce a stable representation")
    return out


def _intersect_spans(cols_a, cols_b, dim, field):
    """Basis of the intersection of two column spans in field^dim."""
    if not cols_a or not cols_b:
        return []
    rows = [[a[i] for a in cols_a] + [-b[i] for b in cols_b] for i in range(dim)]
    ker = kernel_cols(rows, len(cols_a) + len(cols_b), field)
    out = []
    for k in ker:
        vec = [sum((cols_a[j][i] * k[j] for j in range(len(cols_a)) if k[j] != field.zero), field.zero)
               for i in range(dim)]
        if any(x != field.zero for x in vec):
            out.append(vec)
    if not out:
        return []
    rows2 = [[out[j][i] for j in range(len(out))] for i in range(dim)]
    _, pivots = rref(rows2, len(out), field)
    return [out[j] for j in pivots]


# ---------------------------------------------------------------------------
# The stratifying decomposition Phi and the stratum order.
# ---------------------------------------------------------------------------

def struct_in_arrows(q: Quiver, config: Configuration, x: RepVertex) -> List[RepArrow]:
    """Arrows into a non-frozen vertex, enumerated structurally (no window)."""
    out = [RepArrow("a", a.id, RepVertex(a.source, x.level), x) for a in q.arrows_into(x.node)]
    out += [RepArrow("s", a.id, RepVertex(a.target, x.level - 1), x) for a in q.arrows_from(x.node)]
    u = RepVertex(x.node, x.level - 1, True)
    if config.retains(u):
        out.append(RepArrow("c", x.node, u, x))
    return out


def ext1_simple_into(rep: WindowRep, x: RepVertex) -> int:
    """dim Ext^1(S_x, rep) as the middle homology of rep(x) -> (+) rep(y) -> rep(tau x).

    The representation is treated as extended by zero outside its window,
    which is exact for intermediate extensions (their support certifiably
    stays inside).
    """
    field = rep.field
    arrows = struct_in_arrows(rep.q, rep.config, x)
    tx = tau(x)
    mid_dims = [rep.dim(b.source) for b in arrows]
    mid_total = sum(mid_dims)
    if mid_total == 0:
        return 0
    a_rows = []
    for b in arrows:
        a_rows.extend(rep.mat(b))
    b_cols = []
    for b, d in zip(arrows, mid_dims):
        sb = sigma_arrow(rep.q, b)
        m = rep.mat(sb)
        for j in range(d):
            b_cols.append([m[i][j] for i in range(rep.dim(tx))])
    b_rows = [[b_cols[j][i] for j in range(mid_total)] for i in range(rep.dim(tx))]
    rank_a = mat_rank(a_rows, rep.dim(x), field) if (a_rows and rep.dim(x)) else 0
    rank_b = mat_rank(b_rows, mid_total, field) if b_rows else 0
    if a_rows and b_rows and rep.dim(x):
        comp = mat_mul(b_rows, a_rows, field)
        if any(v != field.zero for r in comp for v in r):
            raise InternalConsistencyError(f"mesh relator at {x} not satisfied by the representation")
    return (mid_total - rank_b) - rank_a


@dataclass
class PhiResult:
    """The value of the stratifying decomposition at a point, with its stratum id."""

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
    """
    ki = kan_intermediate(M, w)
    klr = ki.rep
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
    return PhiResult(mult, v, wvec, klr)


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


def closed_orbit(rep: WindowRep, w: Optional[Window] = None) -> Tuple[WindowRep, Dict[RepVertex, int]]:
    """The closed-orbit representative under the stable representation's orbit closure.

    Returns the intermediate extension of the restriction together with the
    non-frozen dimension vector of the semisimple complement.
    """
    w = w or rep.window
    if validate(rep):
        raise InvalidInputError("representation violates mesh relations")
    if not is_stable(rep):
        raise InvalidInputError("closed_orbit needs a stable representation")
    M = restrict(rep)
    klr = kan_intermediate(M, w).rep
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
        xprev = RepVertex(u.node, u.level)          # tau of sigma^{-1}(u)
        xnext = RepVertex(u.node, u.level + 1)      # sigma^{-1}(u)
        b = RepArrow("f", u.node, xprev, u)
        c = RepArrow("c", u.node, u, xnext)
        mb = klr.mat(b) if klr.window.contains(u) else []
        rank_b = mat_rank(mb, klr.dim(u), field) if (mb and klr.dim(u)) else 0
        ker_b = klr.dim(u) - rank_b
        cok_b = klr.dim(xprev) - rank_b
        mc = klr.mat(c) if klr.window.contains(xnext) else []
        rank_c = mat_rank(mc, klr.dim(xnext), field) if (mc and klr.dim(xnext)) else 0
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


def _enumerate_subspaces(d: int, field: PrimeField):
    """All subspaces of field^d, each as a list of basis columns (RREF rows)."""
    values = field.elements()
    out = [[]]
    for k in range(1, d + 1):
        for pivots in itertools.combinations(range(d), k):
            free_pos = []
            for i, p in enumerate(pivots):
                for c in range(p + 1, d):
                    if c not in pivots:
                        free_pos.append((i, c))
            for assign in itertools.product(values, repeat=len(free_pos)):
                rows = [[field.zero] * d for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = field.one
                for (i, c), val in zip(free_pos, assign):
                    rows[i][c] = val
                out.append([list(r) for r in rows])
    return out


def _span_contains(cols, vec, field) -> bool:
    if all(x == field.zero for x in vec):
        return True
    return coords_in_col_span(cols, vec, field) is not None


def fiber(M: SModulePoint, v: Dict[RepVertex, int], p: int, w: Window, bound: int = 64) -> FiberResult:
    """Non-emptiness of the desingularization fiber over M at dimension vector v.

    Materializes CK(M) = K_R(M)/K_LR(M) over GF(p), enumerates all of its
    submodule dimension vectors exhaustively, and reports whether v - v0 is
    attained.  When it is, the preimage inside K_R(M) is returned as an
    explicit stable representation of dimension (v, w) and validated.
    Everything happens over GF(p); the answer is labeled with its field.
    """
    if not is_dynkin(M.q).is_dynkin:
        raise InvalidInputError("fiber enumeration requires a Dynkin quiver")
    field = PrimeField(p)
    Mp = M.reduce_mod(field) if not isinstance(M.field, PrimeField) else M
    ki = kan_intermediate(Mp, w)
    kr = ki.kr
    klr = ki.rep
    v0 = klr.nonfrozen_dims()

    # CK = K_R / K_LR in the kernel coordinates of K_R.
    ck_dims: Dict[RepVertex, int] = {}
    ck_coords: Dict[RepVertex, tuple] = {}
    for x in kr.rep.rq.vertices:
        kept, coords = quotient_coords(kr.dim(x), ki.incl_cols[x], field)
        ck_dims[x] = len(kept)
        ck_coords[x] = (kept, coords)
        if x.frozen and ck_dims[x]:
            raise InternalConsistencyError("CK does not vanish on a frozen vertex")
    for x in kr.rep.rq.vertices:
        if x.level == w.hi and ck_dims[x]:
            raise WindowInsufficiencyError("CK support reaches the window top; enlarge the window")

    total = sum(ck_dims.values())
    if total > bound:
        return FiberResult(None, p, v0, [], None, f"CK dimension {total} exceeds the bound {bound}")

    ck_mats: Dict[RepArrow, list] = {}
    for a in kr.rep.rq.arrows:
        x, y = a.source, a.target
        if ck_dims.get(x, 0) == 0 or ck_dims.get(y, 0) == 0:
            continue
        m = kr.rep.mat(a)
        kept_y, _ = ck_coords[y]
        _, coords_x = ck_coords[x]
        cols = []
        for t in kept_y:
            img = [m[i][t] for i in range(kr.dim(x))]
            vec = [field.zero] * ck_dims[x]
            for i, c in enumerate(img):
                if c != field.zero:
                    co = coords_x[i]
                    for r in range(ck_dims[x]):
                        vec[r] += c * co[r]
            cols.append(vec)
        ck_mats[a] = [[cols[jj][ii] for jj in range(len(cols))] for ii in range(ck_dims[x])]

    verts = [x for x in kr.rep.rq.vertices if ck_dims.get(x, 0) > 0]
    order = list(reversed([x for x in kr.rep.rq.vertices if x in set(verts)]))
    subspace_pool = {x: _enumerate_subspaces(ck_dims[x], field) for x in verts}

    attained: Dict[tuple, Dict[RepVertex, list]] = {}

    def forced_at(x, choice):
        cols = []
        for a in kr.rep.rq.out_arrows(x):
            if a.target not in choice or a not in ck_mats:
                continue
            m = ck_mats[a]
            for colv in choice[a.target]:
                img = [sum((m[i][j] * colv[j] for j in range(len(colv)) if colv[j] != field.zero), field.zero)
                       for i in range(ck_dims[x])]
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
        for sub_rows in subspace_pool[x]:
            cols = [list(r) for r in sub_rows]  # each basis vector of the subspace
            if not all(_span_contains(cols, f, field) for f in forced):
                continue
            choice[x] = cols
            recurse(i + 1, choice)
        choice.pop(x, None)

    recurse(0, {})

    attained_dims = []
    for key in sorted(attained):
        attained_dims.append({k: d for k, d in key})

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
        if x in witness_sub and witness_sub[x]:
            kept, _ = ck_coords[x]
            for colv in witness_sub[x]:
                vec = [field.zero] * kr.dim(x)
                for t, c in enumerate(colv):
                    if c != field.zero:
                        vec[kept[t]] += c
                cols.append(vec)
        lift_cols[x] = cols
    dims = {x: len(cols) for x, cols in lift_cols.items() if cols}
    mats = {}
    for a in kr.rep.rq.arrows:
        x, y = a.source, a.target
        if dims.get(x, 0) == 0 or dims.get(y, 0) == 0:
            continue
        m = kr.rep.mat(a)
        cols = []
        for colv in lift_cols[y]:
            img = [sum((m[i][j] * colv[j] for j in range(len(colv)) if colv[j] != field.zero), field.zero)
                   for i in range(kr.dim(x))]
            co = coords_in_col_span(lift_cols[x], img, field)
            if co is None:
                raise InternalConsistencyError("witness lift is not closed under the structure maps")
            cols.append(co)
        mats[a] = [[cols[jj][ii] for jj in range(len(cols))] for ii in range(dims[x])]
    witness = WindowRep(M.q, w, M.cat.config, dims, mats, field)
    if validate(witness):
        raise InternalConsistencyError("witness violates mesh relations")
    if not is_stable(witness):
        raise InternalConsistencyError("witness is not stable")
    if not restrict(witness).equal(Mp):
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
    rq = RepQuiver(q, True, window, config)
    dims = {}
    for z in rq.vertices:
        d = sweep(rc, z, window, field).dim(u0) if z.level <= u0.level else 0
        if d:
            dims[z] = d
    mats = {}
    for a in rq.arrows:
        z, zp = a.source, a.target
        dz, dzp = dims.get(z, 0), dims.get(zp, 0)
        if dz == 0 or dzp == 0:
            continue
        fz = sweep(rc, z, window, field)
        cols = [fz.reduce_path((a,) + tuple(pth)) for pth in sweep(rc, zp, window, field).basis_paths(u0)]
        mats[a] = [[cols[j][i] for j in range(dzp)] for i in range(dz)]
    return WindowRep(q, window, config, dims, mats, field)
