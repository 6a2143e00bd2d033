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
from .exact_linalg import QQ, in_basis, kernel_cols, mat_rank, mat_vec, quotient_coords, transpose_rows
from .mesh_hom import MeshContext, postcomposition_matrix, precomposition_matrix, sweep
from .quiver_core import Configuration, Quiver, RepVertex, Window, shared

# The levels a summand of the op-resolution in ext_from_injective_multi may climb per step.
SHIFT_SPAN = 3


class SCategoryWindow:
    """The singular category S_C restricted to a window, with explicit Hom data."""

    __slots__ = ("q", "config", "window", "field", "ctx", "objects", "obj_index",
                 "_precomp", "_postcomp", "_resolutions", "_generators", "_pairs")

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
        self._resolutions: Dict[RepVertex, tuple] = {}  # x -> (S_x, the kept terms of its resolution)
        self._generators: Optional[Dict[tuple, List[int]]] = None  # made on first use
        self._pairs: Optional[List[tuple]] = None  # made on first use

    def release(self):
        """Drop the memos; called when mesh_hom.clear_cache() drops a shared category,
        so a module kept beyond it holds no composition matrices, generators, resolutions
        or pair table."""
        self._precomp.clear()
        self._postcomp.clear()
        self._resolutions.clear()
        self._generators = None
        self._pairs = None

    def dim(self, u: RepVertex, v: RepVertex) -> int:
        if v.level < u.level:
            return 0
        return sweep(self.ctx, u, self.window, self.field).dim(v)

    def basis_paths(self, u: RepVertex, v: RepVertex):
        return sweep(self.ctx, u, self.window, self.field).basis_paths(v)

    def hom_pairs(self):
        """All ordered object pairs (u, v, dim) with a nonzero morphism space, as a table built
        on the first call: the Hom data is fixed until mesh_hom.clear_cache(), which drops it."""
        if self._pairs is None:
            pairs = []
            for u in self.objects:  # lowest first, so each node's first sweep is its tallest
                fun = sweep(self.ctx, u, self.window, self.field)
                for v in self.objects:
                    d = fun.dim(v) if v.level >= u.level else 0
                    if d:
                        pairs.append((u, v, d))
            self._pairs = pairs
        return self._pairs

    def generators(self, u: RepVertex, v: RepVertex) -> List[int]:
        """The indices k of the basis morphisms s_k: u -> v spanning S(u,v) modulo rad^2(u,v).

        Their number is the number of arrows u -> v in the quiver of S, and
        every morphism u -> v is a sum of composites of them, so a module map
        or a relation that holds along them holds along every morphism.  The
        radical squared is spanned by the composites s o g through the objects
        w strictly between u and v, with g among the generators u -> w (a
        longer factor of g lies in rad(u,w') rad(w',w) and is counted at w'),
        so only u and the objects it maps to are swept.  Identities are not
        arrows: generators(u, u) is empty.
        """
        if self._generators is None:
            self._generators = {}
        gens = self._generators.get((u, v))
        if gens is None:
            gens = []
            d = self.dim(u, v) if u != v else 0
            if d:
                rel_cols = []
                for w in self.objects:
                    gw = self.generators(u, w) if u.level < w.level < v.level else ()
                    if gw and self.dim(w, v):
                        for g in gw:
                            rel_cols.extend(transpose_rows(self.precomposition(u, w, g, v)))
                gens = quotient_coords(d, rel_cols, self.field)[0]
            self._generators[(u, v)] = gens
        return gens

    def precomposition(self, u: RepVertex, v: RepVertex, k: int, m: RepVertex):
        """Matrix of Hom(v,m) -> Hom(u,m), f |-> f o s_k, for the k-th basis morphism u -> v."""
        key = (u, v, k, m)
        mat = self._precomp.get(key)
        if mat is None:
            mat = self._precomp[key] = precomposition_matrix(self.ctx, self.basis_paths(u, v)[k], u, v, m,
                                                             self.window, self.field)
        return mat

    def postcomposition(self, u0: RepVertex, u: RepVertex, v: RepVertex, k: int):
        """Matrix of Hom(u0,u) -> Hom(u0,v), f |-> s_k o f."""
        key = (u0, u, v, k)
        mat = self._postcomp.get(key)
        if mat is None:
            mat = self._postcomp[key] = postcomposition_matrix(self.ctx, u0, self.basis_paths(u, v)[k], u,
                                                               self.window, self.field)
        return mat


def window_category(q: Quiver, config: Optional[Configuration], window: Window, field=QQ) -> SCategoryWindow:
    """The windowed singular category, one per (quiver, configuration, window, field).

    Shared by every caller until mesh_hom.clear_cache(), like the slices of
    build_repetition, with its memos (composition matrices, generators,
    the simples' resolutions), which clear_cache() releases; its Hom data
    must not be modified.
    """
    config = config if config is not None else Configuration.full()
    return shared(("category", q._key, config.key(), window, field.key), SCategoryWindow, q, config, window, field)


class CatModule:
    """A pointwise finite module over an SCategoryWindow.

    Its actions are read only through act_mat.  act holds the action of the
    k-th basis morphism s_k: u -> v under the key (u, v, k), as a dims[u] x
    dims[v] matrix; an identity is never stored, and a missing action is
    zero, or, when the module has a solve(u, v, k), solved and stored the
    first time it is read.
    """

    def __init__(self, cat: SCategoryWindow, dims: Dict[RepVertex, int], act: Dict[tuple, list], solve=None):
        self.cat = cat
        self.field = cat.field
        self.dims = {u: dims.get(u, 0) for u in cat.objects}
        self.act = act
        self._solve = solve

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
            if self._solve is None or not (self.dim(u) and self.dim(v) and 0 <= k < self.cat.dim(u, v)):
                return [[self.field.zero] * self.dim(v) for _ in range(self.dim(u))]
            mat = self.act[(u, v, k)] = self._solve(u, v, k)
        return mat

    def radical_cols(self, u: RepVertex):
        """Columns spanning the radical part of M(u): images of the generators out of u.

        The image of a composite lies in the image of its first factor, so
        the generators' images span the radical part."""
        cols = []
        du = self.dim(u)
        if du == 0:
            return cols
        for v in self.cat.objects:
            if v == u or self.dim(v) == 0:
                continue
            for k in self.cat.generators(u, v):
                mat = self.act_mat(u, v, k)
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
        """Multiplicity of the simple at u in the socle: the common kernel of the
        generators into u (a composite's kernel contains its last factor's)."""
        du = self.dim(u)
        if du == 0:
            return 0
        rows = []
        for w in self.cat.objects:
            if w == u or self.dim(w) == 0:
                continue
            for k in self.cat.generators(w, u):
                rows.extend(self.act_mat(w, u, k))
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


class ProjectiveCover:
    """A minimal cover P -> N: summand objects with generator vectors in N."""

    def __init__(self, cat: SCategoryWindow, summands: List[Tuple[RepVertex, list]], target: CatModule):
        self.cat = cat
        self.summands = summands
        self.target = target

    def map_at(self, z: RepVertex):
        """The matrix P(z) -> N(z): columns send a basis morphism f: z -> u_i to N(f)(gen_i)."""
        rows = self.target.dim(z)
        cols = []
        for u, gen in self.summands:
            if u == z:  # the identity of z sends the generator to itself
                cols.append(gen)
            else:
                cols.extend(mat_vec(self.target.act_mat(z, u, idx), gen, self.cat.field)
                            for idx in range(self.cat.dim(z, u)))
        return [[cols[j][i] for j in range(len(cols))] for i in range(rows)]


def minimal_cover(mod: CatModule) -> ProjectiveCover:
    summands = []
    for u in mod.cat.objects:
        for gen in mod.top_generators(u):
            summands.append((u, gen))
    return ProjectiveCover(mod.cat, summands, mod)


def kernel_submodule(cover: ProjectiveCover) -> Tuple[CatModule, Dict[RepVertex, list]]:
    """The kernel of a cover as a module, with its inclusion columns into P.

    P(z) is the sum over the cover's summands s of Hom(z, s), one block per
    summand.  A basis morphism u -> v acts on a kernel column of P(v) one
    block at a time, by precomposition into that summand (zero blocks are
    skipped), and the image is read off in the kernel basis at u, which is
    a KernelBasis: no elimination beyond one kernel_cols per vertex.

    Only the actions along the generators of S are solved here, each checked
    to land in the kernel: composites of generators span every morphism
    space, so the kernel is a submodule once it is closed along them, and
    radical_cols and socle_dim read no other action.  Every other action is
    solved, with the same check, the first time act_mat reads it.
    """
    cat = cover.cat
    field = cat.field
    incl: Dict[RepVertex, list] = {}
    dims: Dict[RepVertex, int] = {}
    blocks: Dict[RepVertex, dict] = {}  # z -> {summand index t: (offset, dim) of Hom(z, s_t) in P(z)}
    for z in cat.objects:
        off = 0
        blocks[z] = {}
        for t, (s, _) in enumerate(cover.summands):
            d = cat.dim(z, s)
            if d:
                blocks[z][t] = (off, d)
                off += d
        cols = kernel_cols(cover.map_at(z), off, field) if off else []
        incl[z] = cols
        dims[z] = len(cols)

    def solve(u, v, k):
        """The action of the k-th basis morphism u -> v on the kernel, checked to land in it."""
        # (summand, its block in P(v), its block in P(u)) for the summands seen at both
        common = [(cover.summands[t][0], blocks[v][t], blocks[u][t]) for t in blocks[v] if t in blocks[u]]
        pu = len(incl[u][0])
        images = []
        for col in incl[v]:
            img = [field.zero] * pu
            for s, (v_off, dv), (u_off, du) in common:
                block = col[v_off:v_off + dv]
                if any(x != field.zero for x in block):
                    img[u_off:u_off + du] = mat_vec(cat.precomposition(u, v, k, s), block, field)
            images.append(img)
        mat = in_basis(images, incl[u], field)
        if mat is None:
            raise InternalConsistencyError("kernel is not closed under the action")
        return mat

    act = {(u, v, k): solve(u, v, k) for u, v, _ in cat.hom_pairs() if u != v and dims[u] and dims[v]
           for k in cat.generators(u, v)}
    return CatModule(cat, dims, act, solve), incl


def _resolution(N: CatModule, steps: int, terms: list) -> list:
    """Extend `terms`, the start of a minimal projective resolution of N, to `steps` terms.

    Term i is (cover, coeffs): the minimal cover P_i -> Omega^i N, whose
    target is the i-th syzygy (Omega^0 N = N), and coeffs[t], which writes
    the generator of summand t as a vector of morphism coefficients over
    the summands of P_{i-1}: the differential P_i -> P_{i-1} (None for
    P_0 -> N).  Omega^i N is the kernel of P_{i-1} -> Omega^{i-1} N, taken
    only when term i is.  This is the one routine that covers and takes
    kernels; the terms are extended in place and the first `steps` are
    returned.
    """
    field = N.field
    while len(terms) < steps:
        if terms:
            cur, lift_cols = kernel_submodule(terms[-1][0])
        else:
            cur, lift_cols = N, None
        cover = minimal_cover(cur)
        coeffs = None
        if lift_cols is not None:
            # each generator lives in the syzygy's coordinates at u; push it into P_{i-1}(u)
            coeffs = [mat_vec(transpose_rows(lift_cols[u]), gen, field) for u, gen in cover.summands]
        terms.append((cover, coeffs))
    return terms[:steps]


def simple_resolution(cat: SCategoryWindow, x: RepVertex, steps: int) -> list:
    """The first `steps` terms of the minimal resolution of the simple at x (see _resolution).

    Each simple's resolution is kept on the category and extended on
    demand, so every syzygy is covered and its kernel taken once per
    category; the terms are shared with later callers and must not be
    modified.
    """
    kept = cat._resolutions.get(x)
    if kept is None:
        kept = cat._resolutions[x] = (simple_module(cat, x), [])
    return _resolution(kept[0], steps, kept[1])


def syzygy_modules(cat: SCategoryWindow, x: RepVertex, p: int) -> List[CatModule]:
    """[Omega^1 S_x, ..., Omega^p S_x], the targets of the kept covers P_1, ..., P_p."""
    return [cover.target for cover, _ in simple_resolution(cat, x, p + 1)[1:]]


def ext_simple_multiplicity(cat: SCategoryWindow, x: RepVertex, y: RepVertex, p: int) -> int:
    """dim Ext^p(S_x, S_y): the number of summands at y of P_p in the minimal resolution of S_x."""
    if p <= 0:
        raise InvalidInputError("ext_simple_multiplicity needs p >= 1")
    cover, _ = simple_resolution(cat, x, p + 1)[p]
    return sum(1 for u, _ in cover.summands if u == y)


def _hom_complex_dim(cat, covers, X: CatModule, p: int) -> int:
    """dim H^p of Hom(P_*, X) for a resolution from _resolution.

    Hom from a sum of representables into X is the sum of the values of X,
    so each differential is assembled from the action of X on the morphism
    coefficients of the resolution differentials.
    """
    field = cat.field

    def differential(i):
        """Matrix of Hom(P_i, X) -> Hom(P_{i+1}, X), with its source dimension."""
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
            # coeff_vec is a vector over (+)_j Hom(uk, u_j): apply X per block
            pos = 0
            for j, (uj, _) in enumerate(cover_i.summands):
                d = cat.dim(uk, uj)
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
    rank_p = mat_rank(d_p, src_p, field)
    ker_p = src_p - rank_p
    if p == 0:
        return ker_p
    d_prev, src_prev = differential(p - 1)
    rank_prev = mat_rank(d_prev, src_prev, field)
    return ker_p - rank_prev


def ext_dim(cat: SCategoryWindow, N: CatModule, M: CatModule, p: int) -> int:
    """dim Ext^p(N, M) from a minimal resolution of N and the Yoneda identification."""
    if p < 0:
        raise InvalidInputError("negative Ext degree")
    return _hom_complex_dim(cat, _resolution(N, p + 2, []), M, p)


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
        self._pairs: Optional[List[tuple]] = None  # made on first use

    def dim(self, u: RepVertex, v: RepVertex) -> int:
        return self.base.dim(v, u)

    def hom_pairs(self):
        """All ordered object pairs with a nonzero morphism space, as a table built on the
        first call: the base's Hom data is fixed until mesh_hom.clear_cache()."""
        if self._pairs is None:
            # base.dim(v, u) sweeps from v: the lowest v is asked first, so in a tau-invariant
            # context each node's first sweep is its tallest and serves the others by translation
            dims = {v: [self.base.dim(v, u) for u in self.objects] for v in self.base.objects}
            self._pairs = [(u, v, dims[v][i]) for i, u in enumerate(self.objects)
                           for v in self.objects if dims[v][i] > 0]
        return self._pairs

    def generators(self, u: RepVertex, v: RepVertex) -> List[int]:
        return self.base.generators(v, u)

    def precomposition(self, u: RepVertex, v: RepVertex, k: int, m: RepVertex):
        # op-morphism u -> v is the k-th basis morphism v -> u of the base;
        # op-Hom(v, m) is the base Hom(m, v), and precomposing is base
        # postcomposition with that morphism.
        return self.base.postcomposition(m, v, u, k)


def dual_module(opcat: OpSCategoryWindow, M: CatModule) -> CatModule:
    """The k-dual of a module, as a module over the opposite category."""
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


def ext_from_injective_multi(cat: SCategoryWindow, x0_list, M: CatModule, p: int):
    """dim Ext^p from the cofree module at each x0 into a finite module M.

    The cofree module need not be finite-dimensional (for the full
    configuration it never is), so it cannot be truncated; instead the
    computation runs over the opposite category, resolving the k-dual of
    M once and mapping into the op-representable at each x0.
    """
    for x0 in x0_list:
        if x0 not in cat.obj_index:
            raise InvalidInputError(f"{x0} is not an object of the windowed singular category")
    if M.is_zero():
        return {x0: 0 for x0 in x0_list}
    # Summand levels climb at most SHIFT_SPAN per step above the support of
    # M; the bound is checked, and the window must leave that headroom so
    # no summand (whose Hom into a representable would not vanish) is missed.
    steps = p + 2
    top = max(u.level for u, d in M.dims.items() if d)
    need = top + SHIFT_SPAN * steps + 1
    if cat.window.hi < need:
        raise WindowInsufficiencyError(
            f"resolving the dual module needs window top >= {need}, have {cat.window.hi}")
    opcat = OpSCategoryWindow(cat)
    covers = _resolution(dual_module(opcat, M), steps, [])
    for step, (cover, _) in enumerate(covers):
        for u, _ in cover.summands:
            if u.level > top + SHIFT_SPAN * step + 1:
                raise InternalConsistencyError(
                    f"op-cover summand {u} above the shift bound at step {step}")
    out = {}
    for x0 in x0_list:
        X = op_representable(opcat, x0)
        out[x0] = _hom_complex_dim(opcat, covers, X, p)
    return out
