"""Kernels of projective covers: the summand-by-summand action against the dense twin."""
from fractions import Fraction

import pytest

from stratakit import catmod, exact_linalg
from stratakit.catmod import (
    CatModule,
    OpSCategoryWindow,
    SCategoryWindow,
    dual_module,
    ext_from_injective_multi,
    kernel_submodule,
    minimal_cover,
    radical_of_projective,
)
from stratakit.errors import InternalConsistencyError
from stratakit.exact_linalg import kernel_cols, mat_vec, sub_map
from stratakit.quiver_core import RepVertex, Window, a_n_quiver, d4_quiver, kronecker_quiver, parse_vertex

A2 = a_n_quiver(2)


# ---------------------------------------------------------------------------
# The dense twin: the projective cover as one module with block-diagonal
# actions, and its kernel's action solved by elimination in plain lists.
# ---------------------------------------------------------------------------

def _twin_block_diag(blocks, rows, cols, zero):
    out = [[zero] * cols for _ in range(rows)]
    r = c = 0
    for b, br, bc in blocks:
        for i in range(br):
            for j in range(bc):
                out[r + i][c + j] = b[i][j]
        r += br
        c += bc
    return out


def _twin_proj_module(cover):
    cat = cover.cat
    dims = {z: sum(cat.dim(z, u) for u, _ in cover.summands) for z in cat.objects}
    act = {}
    for u, v, dk in cat.hom_pairs():
        if dims.get(u, 0) == 0 or dims.get(v, 0) == 0:
            continue
        for k in range(dk):
            blocks = [(cat.precomposition(u, v, k, s), cat.dim(u, s), cat.dim(v, s)) for s, _ in cover.summands]
            act[(u, v, k)] = _twin_block_diag(blocks, dims[u], dims[v], cat.field.zero)
    return CatModule(cat, dims, act)


def _twin_map_at(cover, z):
    """P(z) -> N(z), one column per basis morphism, through coefficient vectors."""
    cat, field, target = cover.cat, cover.cat.field, cover.target
    cols = []
    for u, gen in cover.summands:
        dzu = cat.dim(z, u)
        for idx in range(dzu):
            coeffs = [field.zero] * dzu
            coeffs[idx] = field.one
            out = [field.zero] * target.dim(z)
            for k, c in enumerate(coeffs):
                if c != field.zero:
                    for i, x in enumerate(mat_vec(target.act_mat(z, u, k), gen, field)):
                        out[i] += c * x
            cols.append(out)
    return [[cols[j][i] for j in range(len(cols))] for i in range(target.dim(z))]


def _twin_kernel_submodule(cover):
    cat, field = cover.cat, cover.cat.field
    P = _twin_proj_module(cover)
    incl, dims = {}, {}
    for z in cat.objects:
        pz = P.dim(z)
        incl[z] = [list(c) for c in kernel_cols(_twin_map_at(cover, z), pz, field)] if pz else []
        dims[z] = len(incl[z])
    act = {}
    for u, v, dk in cat.hom_pairs():
        if dims.get(u, 0) == 0 or dims.get(v, 0) == 0:
            continue
        for k in range(dk):
            act[(u, v, k)] = sub_map(P.act_mat(u, v, k), incl[v], incl[u], field)
            assert act[(u, v, k)] is not None
    return CatModule(cat, dims, act), incl


def _assert_same_kernel(cover):
    got, got_incl = kernel_submodule(cover)
    want, want_incl = _twin_kernel_submodule(cover)
    assert got.dims == want.dims
    assert {z: [list(c) for c in cols] for z, cols in got_incl.items()} == want_incl
    assert list(got.act) == list(want.act)
    assert got.act == want.act
    return got, got_incl


# (quiver, window, highest level of the resolved simples, syzygies taken, nonzero kernels seen).
# Over A2 the chains run several steps with nonzero actions, but every cover
# block they act on is one-dimensional; over A3 the blocks are larger.  Over
# D4 and the Kronecker quivers every second syzygy inside these windows is
# zero, so there the twin checks the covers' kernels are zero.
CHAINS = [
    (A2, (0, 9), 6, 4, 18),
    (a_n_quiver(3), (0, 7), 4, 3, 6),
    (d4_quiver(), (0, 5), 3, 3, 0),
    (kronecker_quiver(2), (0, 5), 3, 3, 0),
    (kronecker_quiver(3), (0, 4), 2, 3, 0),
]


@pytest.mark.parametrize("q, window, top, depth, nonzero", CHAINS, ids=["A2", "A3", "D4", "K2", "K3"])
def test_kernel_submodule_matches_dense_twin_on_syzygy_chains(q, window, top, depth, nonzero):
    cat = SCategoryWindow(q, None, Window(*window))
    covers = kernels = 0
    for x in [u for u in cat.objects if u.level <= top]:
        mod = radical_of_projective(cat, x)
        for _ in range(depth - 1):
            cover = minimal_cover(mod)
            covers += bool(cover.summands)
            mod, _ = _assert_same_kernel(cover)
            kernels += not mod.is_zero()
    assert covers > 0 and kernels == nonzero


# The module of the resolutions benchmark's Ext from cofree injectives:
# A2 [0,14], sources at level 0.
INJ_DIMS = {"1'@0": 1, "2'@0": 1, "1'@1": 1}
INJ_ACT = {("1'@0", "1'@1", 0): [[Fraction(2)]]}


def _injective_case():
    cat = SCategoryWindow(A2, None, Window(0, 14))
    module = CatModule(cat, {parse_vertex(k): d for k, d in INJ_DIMS.items()},
                       {(parse_vertex(u), parse_vertex(v), k): m for (u, v, k), m in INJ_ACT.items()})
    return cat, module, [u for u in cat.objects if u.level == 0]


def test_kernel_submodule_matches_dense_twin_on_the_op_resolution():
    cat, module, _ = _injective_case()
    opcat = OpSCategoryWindow(cat)
    cur, lifted = dual_module(opcat, module), 0
    for _ in range(4):  # the p + 2 steps of Ext^2 from the cofree injectives
        cur, _ = _assert_same_kernel(minimal_cover(cur))
        lifted += not cur.is_zero()
    assert lifted > 0


def test_kernels_eliminate_once_per_cover_vertex(monkeypatch):
    """Inside kernel_submodule, rref runs only in one kernel_cols per vertex with a nonzero cover space."""
    cat, module, sources = _injective_case()
    seen = {"rref": 0, "allowed": 0, "inside": False}
    real_rref, real_kernel = exact_linalg.rref, catmod.kernel_submodule

    def counting_rref(*args):
        seen["rref"] += seen["inside"]
        return real_rref(*args)

    def counting_kernel(cover):
        list(cover.cat.hom_pairs())  # every sweep is computed before the count starts
        seen["allowed"] += sum(1 for z in cover.cat.objects if any(cover.cat.dim(z, s) for s, _ in cover.summands))
        seen["inside"] = True
        try:
            return real_kernel(cover)
        finally:
            seen["inside"] = False

    monkeypatch.setattr(exact_linalg, "rref", counting_rref)
    monkeypatch.setattr(catmod, "kernel_submodule", counting_kernel)
    assert ext_from_injective_multi(cat, sources, module, 2) == {u: 0 for u in sources}
    assert 0 < seen["rref"] <= seen["allowed"]


def test_kernel_not_closed_under_the_action_is_an_internal_fault(monkeypatch):
    cat = SCategoryWindow(A2, None, Window(0, 9))
    cover = minimal_cover(radical_of_projective(cat, RepVertex("2", 5, True)))
    assert kernel_submodule(cover)[0].act  # and fills the category's precomposition memo
    first = cover.summands[0][0]
    for key, mat in list(cat._precomp.items()):
        if key[3] == first:  # scale the action into one summand only
            monkeypatch.setitem(cat._precomp, key, [[2 * x for x in row] for row in mat])
    with pytest.raises(InternalConsistencyError, match="not closed under the action"):
        kernel_submodule(cover)
