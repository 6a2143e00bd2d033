"""Modules over the singular category on a window: covers, syzygies, Ext.

A module assigns a space to every retained frozen vertex and a matrix to
every Hom-basis element s: u -> v, acting contravariantly M(s): M(v) ->
M(u).  The category is directed with strictly level-increasing radical
(the only arrow out of a frozen vertex climbs a level), so radicals are
combinatorially visible and minimal covers are read off from tops.

Values, covers and kernels at window vertices are exact however the
window is chosen: cover summands below the window contribute nothing at
window vertices, and all generators relevant to a vertex live on the
levels between it and the resolved simple.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import InternalConsistencyError, InvalidInputError, WindowInsufficiencyError
from .exact_linalg import (
    QQ,
    coords_in_col_span,
    kernel_cols,
    mat_rank,
    quotient_coords,
)
from .mesh_hom import MeshContext, sweep
from .quiver_core import Configuration, Quiver, RepVertex, Window


class SCategoryWindow:
    """The singular category S_C restricted to a window, with explicit Hom data."""

    def __init__(self, q: Quiver, config: Optional[Configuration], window: Window, field=QQ):
        self.q = q
        self.config = config if config is not None else Configuration.full()
        self.window = window
        self.field = field
        self.ctx = MeshContext(q, "SC", self.config)
        self.objects: List[RepVertex] = [v for v in self.ctx.vertices_in(window) if v.frozen]
        self.obj_index = {u: i for i, u in enumerate(self.objects)}
        self._precomp: Dict[tuple, list] = {}
        self._postcomp: Dict[tuple, list] = {}

    def dim(self, u: RepVertex, v: RepVertex) -> int:
        if v.level < u.level:
            return 0
        return sweep(self.ctx, u, self.window, self.field).dim(v)

    def basis_paths(self, u: RepVertex, v: RepVertex):
        return sweep(self.ctx, u, self.window, self.field).basis_paths(v)

    def hom_pairs(self):
        """All ordered object pairs with a nonzero morphism space."""
        for u in self.objects:
            fun = sweep(self.ctx, u, self.window, self.field)
            for v in self.objects:
                if v.level >= u.level and fun.dim(v) > 0:
                    yield u, v, fun.dim(v)

    def precomposition(self, u: RepVertex, v: RepVertex, k: int, m: RepVertex):
        """Matrix of Hom(v,m) -> Hom(u,m), f |-> f o s_k, for the k-th basis morphism u -> v."""
        key = (u, v, k, m)
        mat = self._precomp.get(key)
        if mat is None:
            fun_u = sweep(self.ctx, u, self.window, self.field)
            fun_v = sweep(self.ctx, v, self.window, self.field)
            s_path = self.basis_paths(u, v)[k]
            cols = []
            for p in fun_v.basis_paths(m):
                cols.append(fun_u.reduce_path(tuple(s_path) + tuple(p)))
            rows = fun_u.dim(m)
            mat = [[cols[j][i] for j in range(len(cols))] for i in range(rows)]
            self._precomp[key] = mat
        return mat

    def postcomposition(self, u0: RepVertex, u: RepVertex, v: RepVertex, k: int):
        """Matrix of Hom(u0,u) -> Hom(u0,v), f |-> s_k o f."""
        key = (u0, u, v, k)
        mat = self._postcomp.get(key)
        if mat is None:
            fun = sweep(self.ctx, u0, self.window, self.field)
            s_path = self.basis_paths(u, v)[k]
            cols = [fun.reduce_path(tuple(p) + tuple(s_path)) for p in fun.basis_paths(u)]
            rows = fun.dim(v)
            mat = [[cols[j][i] for j in range(len(cols))] for i in range(rows)]
            self._postcomp[key] = mat
        return mat


class CatModule:
    """A pointwise finite module over an SCategoryWindow."""

    def __init__(self, cat: SCategoryWindow, dims: Dict[RepVertex, int], act: Dict[tuple, list]):
        self.cat = cat
        self.field = cat.field
        self.dims = {u: dims.get(u, 0) for u in cat.objects}
        self.act = act  # (u, v, k) -> matrix dims[u] x dims[v], the action of s_k: u -> v

    def dim(self, u: RepVertex) -> int:
        return self.dims.get(u, 0)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def act_mat(self, u: RepVertex, v: RepVertex, k: int):
        if u == v:
            # directed category: End(u) = k, spanned by the identity
            d = self.dim(u)
            return [[self.field.one if i == j else self.field.zero for j in range(d)] for i in range(d)]
        mat = self.act.get((u, v, k))
        if mat is None:
            return [[self.field.zero] * self.dim(v) for _ in range(self.dim(u))]
        return mat

    def apply(self, u: RepVertex, v: RepVertex, coeffs, vec):
        """Act by the morphism with the given basis coefficients, M(v) -> M(u)."""
        out = [self.field.zero] * self.dim(u)
        for k, c in enumerate(coeffs):
            if c == self.field.zero:
                continue
            mat = self.act_mat(u, v, k)
            for i in range(len(out)):
                row = mat[i]
                out[i] += c * sum((row[j] * vec[j] for j in range(len(vec)) if vec[j] != self.field.zero),
                                  self.field.zero)
        return out

    def radical_cols(self, u: RepVertex):
        """Columns spanning the radical part of M(u): images from later objects."""
        cols = []
        du = self.dim(u)
        if du == 0:
            return cols
        for v in self.cat.objects:
            if v == u or self.dim(v) == 0:
                continue
            for k in range(self.cat.dim(u, v)):
                mat = self.act.get((u, v, k))
                if mat is None:
                    continue
                for j in range(self.dim(v)):
                    col = [mat[i][j] for i in range(du)]
                    if any(x != self.field.zero for x in col):
                        cols.append(col)
        return cols

    def top_generators(self, u: RepVertex):
        """Unit vectors of M(u) completing the radical to the whole space."""
        du = self.dim(u)
        if du == 0:
            return []
        kept, _ = quotient_coords(du, self.radical_cols(u), self.field)
        gens = []
        for g in kept:
            vec = [self.field.zero] * du
            vec[g] = self.field.one
            gens.append(vec)
        return gens

    def socle_dim(self, u: RepVertex) -> int:
        """Multiplicity of the simple at u in the socle."""
        du = self.dim(u)
        if du == 0:
            return 0
        rows = []
        for w in self.cat.objects:
            if w == u:
                continue
            for k in range(self.cat.dim(w, u)):
                mat = self.act.get((w, u, k))
                if mat is not None:
                    rows.extend(mat)
        if not rows:
            return du
        return du - mat_rank(rows, du, self.field)

    def equal(self, other: "CatModule") -> bool:
        if self.dims != other.dims:
            return False
        for u, v, dk in self.cat.hom_pairs():
            if self.dim(u) == 0 or self.dim(v) == 0:
                continue
            for k in range(dk):
                if self.act_mat(u, v, k) != other.act_mat(u, v, k):
                    return False
        return True


def simple_module(cat: SCategoryWindow, u0: RepVertex) -> CatModule:
    if u0 not in cat.obj_index:
        raise InvalidInputError(f"{u0} is not an object of the windowed singular category")
    return CatModule(cat, {u0: 1}, {})


def semisimple_module(cat: SCategoryWindow, w: Dict[RepVertex, int]) -> CatModule:
    for u in w:
        if w[u] and u not in cat.obj_index:
            raise InvalidInputError(f"{u} is not an object of the windowed singular category")
    return CatModule(cat, dict(w), {})


def projective_module(cat: SCategoryWindow, u0: RepVertex) -> CatModule:
    """The free module Hom(?, u0)."""
    dims = {u: cat.dim(u, u0) for u in cat.objects}
    act = {}
    for u, v, dk in cat.hom_pairs():
        if dims.get(v, 0) == 0 or dims.get(u, 0) == 0:
            continue
        for k in range(dk):
            act[(u, v, k)] = cat.precomposition(u, v, k, u0)
    return CatModule(cat, dims, act)


def injective_module(cat: SCategoryWindow, u0: RepVertex) -> CatModule:
    """The cofree module D Hom(u0, ?)."""
    dims = {u: cat.dim(u0, u) for u in cat.objects}
    act = {}
    for u, v, dk in cat.hom_pairs():
        if dims.get(v, 0) == 0 or dims.get(u, 0) == 0:
            continue
        for k in range(dk):
            post = cat.postcomposition(u0, u, v, k)  # Hom(u0,u) -> Hom(u0,v)
            act[(u, v, k)] = [[post[j][i] for j in range(len(post))] for i in range(dims[u])]
    return CatModule(cat, dims, act)


class ProjectiveCover:
    """A minimal cover P -> N: summand objects with generator vectors in N."""

    def __init__(self, cat: SCategoryWindow, summands: List[Tuple[RepVertex, list]], target: CatModule):
        self.cat = cat
        self.summands = summands
        self.target = target

    def space_dim(self, z: RepVertex) -> int:
        return sum(self.cat.dim(z, u) for u, _ in self.summands)

    def proj_module(self) -> CatModule:
        dims = {z: self.space_dim(z) for z in self.cat.objects}
        act: Dict[tuple, list] = {}
        for u, v, dk in self.cat.hom_pairs():
            if dims.get(u, 0) == 0 or dims.get(v, 0) == 0:
                continue
            for k in range(dk):
                blocks = [(self.cat.precomposition(u, v, k, s), self.cat.dim(u, s), self.cat.dim(v, s))
                          for s, _ in self.summands]
                act[(u, v, k)] = _block_diag(blocks, dims[u], dims[v], self.cat.field.zero)
        return CatModule(self.cat, dims, act)

    def map_at(self, z: RepVertex):
        """The matrix P(z) -> N(z): columns send a basis morphism f: z -> u_i to N(f)(gen_i)."""
        rows = self.target.dim(z)
        cols = []
        for u, gen in self.summands:
            dzu = self.cat.dim(z, u)
            for idx in range(dzu):
                coeffs = [self.cat.field.zero] * dzu
                coeffs[idx] = self.cat.field.one
                cols.append(self.target.apply(z, u, coeffs, gen))
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(rows)]
        return mat


def _block_diag(blocks, rows, cols, zero):
    out = [[zero] * cols for _ in range(rows)]
    r = c = 0
    for b, br, bc in blocks:
        for i in range(br):
            for j in range(bc):
                out[r + i][c + j] = b[i][j]
        r += br
        c += bc
    return out


def minimal_cover(mod: CatModule) -> ProjectiveCover:
    summands = []
    for u in mod.cat.objects:
        for gen in mod.top_generators(u):
            summands.append((u, gen))
    return ProjectiveCover(mod.cat, summands, mod)


def kernel_submodule(cover: ProjectiveCover) -> Tuple[CatModule, Dict[RepVertex, list]]:
    """The kernel of a cover as a module, with its inclusion columns into P."""
    cat = cover.cat
    field = cat.field
    P = cover.proj_module()
    incl: Dict[RepVertex, list] = {}
    dims: Dict[RepVertex, int] = {}
    for z in cat.objects:
        pz = P.dim(z)
        if pz == 0:
            incl[z] = []
            dims[z] = 0
            continue
        mat = cover.map_at(z)
        if not mat:
            cols = [[field.one if i == j else field.zero for i in range(pz)] for j in range(pz)]
        else:
            cols = kernel_cols(mat, pz, field)
        incl[z] = cols
        dims[z] = len(cols)
    act: Dict[tuple, list] = {}
    for u, v, dk in cat.hom_pairs():
        if dims.get(u, 0) == 0 or dims.get(v, 0) == 0:
            continue
        for k in range(dk):
            pmat = P.act_mat(u, v, k)
            cols = []
            for col in incl[v]:
                img = [sum((pmat[i][j] * col[j] for j in range(len(col)) if col[j] != field.zero), field.zero)
                       for i in range(P.dim(u))]
                co = coords_in_col_span(incl[u], img, field)
                if co is None:
                    raise InvalidInputError("kernel is not closed under the action (bug)")
                cols.append(co)
            act[(u, v, k)] = [[cols[j][i] for j in range(len(cols))] for i in range(dims[u])]
    return CatModule(cat, dims, act), incl


def radical_of_projective(cat: SCategoryWindow, u0: RepVertex) -> CatModule:
    """rad Hom(?, u0): the free module with the identity component removed."""
    proj = projective_module(cat, u0)
    dims = dict(proj.dims)
    dims[u0] = 0
    act = {}
    for key, mat in proj.act.items():
        u, v, k = key
        if dims.get(u, 0) == 0 or dims.get(v, 0) == 0:
            continue
        act[key] = mat
    return CatModule(cat, dims, act)


def syzygy_modules(cat: SCategoryWindow, x: RepVertex, p: int) -> List[CatModule]:
    """[Omega^1 S_x, ..., Omega^p S_x] by iterated minimal covers."""
    if x not in cat.obj_index:
        raise InvalidInputError(f"{x} is not an object of the windowed singular category")
    out = []
    omega = radical_of_projective(cat, x)
    out.append(omega)
    for _ in range(p - 1):
        cover = minimal_cover(omega)
        omega, _ = kernel_submodule(cover)
        out.append(omega)
    return out


def ext_simple_multiplicity(cat: SCategoryWindow, x: RepVertex, y: RepVertex, p: int) -> int:
    """dim Ext^p(S_x, S_y): the multiplicity of y's projective in the p-th cover."""
    if p <= 0:
        raise InvalidInputError("ext_simple_multiplicity needs p >= 1")
    omega = syzygy_modules(cat, x, p)[-1]
    return len(omega.top_generators(y))


def ext_dim(cat: SCategoryWindow, N: CatModule, M: CatModule, p: int) -> int:
    """dim Ext^p(N, M) from a minimal resolution of N and the Yoneda identification.

    Hom from a sum of representables into M is the sum of the values of M,
    so the Hom complex is assembled from the action of M on the morphism
    coefficients of the resolution differentials.
    """
    if p < 0:
        raise InvalidInputError("negative Ext degree")
    field = cat.field
    # Resolution: list of (summands, map-to-previous as morphism-coefficient vectors).
    covers = []
    cur = N
    lift_cols = None  # inclusion of the current syzygy into the previous projective
    for step in range(p + 2):
        cover = minimal_cover(cur)
        if lift_cols is None:
            summand_coeffs = None  # P0 -> N, not needed in coefficients
        else:
            summand_coeffs = []
            for u, gen in cover.summands:
                # gen lives in the syzygy's coordinates at u; push into P_{step-1}(u).
                cols = lift_cols[u]
                vec = [sum((cols[j][i] * gen[j] for j in range(len(gen)) if gen[j] != field.zero), field.zero)
                       for i in range(len(cols[0]))] if cols else []
                summand_coeffs.append(vec)
        covers.append((cover, summand_coeffs))
        cur, lift_cols = kernel_submodule(cover)
    # Hom(P_i, M) has one M(u) block per summand.
    def hom_space_dims(cover):
        return [M.dim(u) for u, _ in cover.summands]

    def differential(i):
        """Matrix of Hom(P_i, M) -> Hom(P_{i+1}, M)."""
        cover_i, _ = covers[i]
        cover_next, coeffs_next = covers[i + 1]
        src_blocks = hom_space_dims(cover_i)
        tgt_blocks = hom_space_dims(cover_next)
        src_dim = sum(src_blocks)
        tgt_dim = sum(tgt_blocks)
        mat = [[field.zero] * src_dim for _ in range(tgt_dim)]
        src_off = []
        off = 0
        for d in src_blocks:
            src_off.append(off)
            off += d
        tgt_off = []
        off = 0
        for d in tgt_blocks:
            tgt_off.append(off)
            off += d
        for knext, ((uk, _), coeff_vec) in enumerate(zip(cover_next.summands, coeffs_next)):
            # coeff_vec is a vector over (+)_j Hom(uk, u_j): apply M per block.
            pos = 0
            for j, (uj, _) in enumerate(cover_i.summands):
                d = cat.dim(uk, uj)
                coeffs = coeff_vec[pos:pos + d]
                pos += d
                if all(c == field.zero for c in coeffs) or M.dim(uj) == 0 or M.dim(uk) == 0:
                    continue
                block = [[field.zero] * M.dim(uj) for _ in range(M.dim(uk))]
                for k, c in enumerate(coeffs):
                    if c == field.zero:
                        continue
                    amat = M.act_mat(uk, uj, k)
                    for r in range(M.dim(uk)):
                        for s in range(M.dim(uj)):
                            block[r][s] += c * amat[r][s]
                for r in range(M.dim(uk)):
                    for s in range(M.dim(uj)):
                        mat[tgt_off[knext] + r][src_off[j] + s] = block[r][s]
        return mat, src_dim, tgt_dim

    d_p, src_p, tgt_p = differential(p)
    rank_p = mat_rank(d_p, src_p, field) if (d_p and src_p) else 0
    ker_p = src_p - rank_p
    if p == 0:
        return ker_p
    d_prev, src_prev, tgt_prev = differential(p - 1)
    rank_prev = mat_rank(d_prev, src_prev, field) if (d_prev and src_prev) else 0
    return ker_p - rank_prev


# ---------------------------------------------------------------------------
# The opposite category and Ext from injectives.
#
# For the full configuration the singular category need not be locally
# bounded (over A2 the powers of the horizontal arrow never die), so the
# cofree module at a frozen vertex is infinite-dimensional and cannot be
# truncated into a window without corrupting its homology.  Duality over
# the ground field converts Ext from it into Ext over the opposite
# category from the (finite) dual module into an op-representable, which
# the cover machinery handles with no truncation of the first argument.
# ---------------------------------------------------------------------------

class OpSCategoryWindow:
    """The opposite of a windowed singular category, quacking like one."""

    def __init__(self, base: SCategoryWindow):
        self.base = base
        self.q = base.q
        self.window = base.window
        self.field = base.field
        self.objects = list(reversed(base.objects))
        self.obj_index = {u: i for i, u in enumerate(self.objects)}

    def dim(self, u: RepVertex, v: RepVertex) -> int:
        return self.base.dim(v, u)

    def hom_pairs(self):
        for u in self.objects:
            for v in self.objects:
                d = self.base.dim(v, u)
                if d > 0:
                    yield u, v, d

    def precomposition(self, u: RepVertex, v: RepVertex, k: int, m: RepVertex):
        # op-morphism u -> v is the k-th basis morphism v -> u of the base;
        # op-Hom(v, m) is the base Hom(m, v), and precomposing is base
        # postcomposition with that morphism.
        return self.base.postcomposition(m, v, u, k)


def dual_module(opcat: OpSCategoryWindow, M: CatModule) -> CatModule:
    """The k-dual of a module, as a module over the opposite category."""
    base = opcat.base
    act = {}
    for u, v, dk in opcat.hom_pairs():
        if M.dim(u) == 0 or M.dim(v) == 0 or u == v:
            continue
        for k in range(dk):
            m = M.act_mat(v, u, k)  # the base action M(u) -> M(v)
            act[(u, v, k)] = [[m[j][i] for j in range(M.dim(v))] for i in range(M.dim(u))]
    return CatModule(opcat, dict(M.dims), act)


def op_representable(opcat: OpSCategoryWindow, x0: RepVertex) -> CatModule:
    """The op-projective at x0: u |-> Hom(x0, u), with postcomposition actions."""
    base = opcat.base
    dims = {u: base.dim(x0, u) for u in opcat.objects}
    act = {}
    for u, v, dk in opcat.hom_pairs():
        if dims.get(u, 0) == 0 or dims.get(v, 0) == 0 or u == v:
            continue
        for k in range(dk):
            act[(u, v, k)] = base.postcomposition(x0, v, u, k)
    return CatModule(opcat, dims, act)


def _op_resolution(cat: SCategoryWindow, M: CatModule, steps: int, shift_span: int):
    """Minimal covers of the dual module over the opposite category.

    Summand levels climb at most shift_span per step above the support of
    M; the bound is checked, and the window must leave that headroom so no
    summand (whose Hom into a representable would not vanish) is missed.
    """
    sup = [u.level for u, d in M.dims.items() if d]
    top = max(sup)
    need = top + shift_span * steps + 1
    if cat.window.hi < need:
        raise WindowInsufficiencyError(
            f"resolving the dual module needs window top >= {need}, have {cat.window.hi}")
    opcat = OpSCategoryWindow(cat)
    DM = dual_module(opcat, M)
    covers = []
    cur = DM
    lift_cols = None
    field = cat.field
    for step in range(steps):
        cover = minimal_cover(cur)
        for u, _ in cover.summands:
            if u.level > top + shift_span * step + 1:
                raise InternalConsistencyError(
                    f"op-cover summand {u} above the shift bound at step {step}")
        if lift_cols is None:
            coeffs = None
        else:
            coeffs = []
            for u, gen in cover.summands:
                cols = lift_cols[u]
                vec = [sum((cols[j][i] * gen[j] for j in range(len(gen)) if gen[j] != field.zero), field.zero)
                       for i in range(len(cols[0]))] if cols else []
                coeffs.append(vec)
        covers.append((cover, coeffs))
        cur, lift_cols = kernel_submodule(cover)
    return opcat, covers


def _hom_complex_dim(opcat, covers, X: CatModule, p: int) -> int:
    field = opcat.field

    def differential(i):
        cover_i, _ = covers[i]
        cover_next, coeffs_next = covers[i + 1]
        src_blocks = [X.dim(u) for u, _ in cover_i.summands]
        tgt_blocks = [X.dim(u) for u, _ in cover_next.summands]
        src_dim = sum(src_blocks)
        tgt_dim = sum(tgt_blocks)
        mat = [[field.zero] * src_dim for _ in range(tgt_dim)]
        src_off = [0]
        for d in src_blocks[:-1]:
            src_off.append(src_off[-1] + d)
        tgt_off = [0]
        for d in tgt_blocks[:-1]:
            tgt_off.append(tgt_off[-1] + d)
        for knext, ((uk, _), coeff_vec) in enumerate(zip(cover_next.summands, coeffs_next)):
            pos = 0
            for j, (uj, _) in enumerate(cover_i.summands):
                d = opcat.dim(uk, uj)
                coeffs = coeff_vec[pos:pos + d]
                pos += d
                if all(c == field.zero for c in coeffs) or X.dim(uj) == 0 or X.dim(uk) == 0:
                    continue
                for k, c in enumerate(coeffs):
                    if c == field.zero:
                        continue
                    amat = X.act_mat(uk, uj, k)
                    for r in range(X.dim(uk)):
                        for s in range(X.dim(uj)):
                            mat[tgt_off[knext] + r][src_off[j] + s] += c * amat[r][s]
        return mat, src_dim

    d_p, src_p = differential(p)
    rank_p = mat_rank(d_p, src_p, field) if (d_p and src_p) else 0
    ker_p = src_p - rank_p
    if p == 0:
        return ker_p
    d_prev, src_prev = differential(p - 1)
    rank_prev = mat_rank(d_prev, src_prev, field) if (d_prev and src_prev) else 0
    return ker_p - rank_prev


def ext_from_injective(cat: SCategoryWindow, x0: RepVertex, M: CatModule, p: int,
                       shift_span: int = 3) -> int:
    """dim Ext^p from the cofree module at x0 into a finite module M.

    The cofree module need not be finite-dimensional (for the full
    configuration it never is), so it cannot be truncated; instead the
    computation runs over the opposite category, resolving the k-dual of
    M and mapping into the op-representable at x0.
    """
    return ext_from_injective_multi(cat, [x0], M, p, shift_span)[x0]


def ext_from_injective_multi(cat: SCategoryWindow, x0_list, M: CatModule, p: int,
                             shift_span: int = 3):
    """Ext^p from several cofree modules into M, sharing one op-resolution."""
    for x0 in x0_list:
        if x0 not in cat.obj_index:
            raise InvalidInputError(f"{x0} is not an object of the windowed singular category")
    if M.is_zero():
        return {x0: 0 for x0 in x0_list}
    opcat, covers = _op_resolution(cat, M, p + 2, shift_span)
    out = {}
    for x0 in x0_list:
        X = op_representable(opcat, x0)
        out[x0] = _hom_complex_dim(opcat, covers, X, p)
    return out
