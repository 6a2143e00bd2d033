"""Kernels of projective covers against the dense twin; the generators of the
singular category against its quiver; radical and socle along the generators
against their all-basis-morphism twins; the category memos across clear_cache();
_resolution as the one routine that covers and takes kernels."""
import ast
import inspect
import pathlib
import random
from fractions import Fraction

import pytest

from stratakit import catmod, exact_linalg, mesh_hom
from stratakit.catmod import (
    CatModule,
    OpSCategoryWindow,
    SCategoryWindow,
    dual_module,
    ext_from_injective_multi,
    kernel_submodule,
    minimal_cover,
    op_representable,
    syzygy_modules,
    window_category,
)
from stratakit.errors import InternalConsistencyError
from stratakit.exact_linalg import kernel_cols, mat_rank, mat_vec, quotient_coords, sub_map
from stratakit.kan_strata import restrict
from stratakit.mesh_hom import clear_cache
from stratakit.quiver_core import RepVertex, Window, a_n_quiver, d4_quiver, kronecker_quiver, parse_vertex
from stratakit.randrep import random_window_rep
from stratakit.sing_builder import build_sing_quiver

A2 = a_n_quiver(2)


# ---------------------------------------------------------------------------
# The dense twin: the projective cover as one module with block-diagonal
# actions, and its kernel's action solved by elimination in plain lists.
# ---------------------------------------------------------------------------

def _twin_radical_of_projective(cat, u0):
    """rad Hom(?, u0) built directly: the free module at u0 with its identity component removed."""
    dims = {u: cat.dim(u, u0) for u in cat.objects}
    dims[u0] = 0
    act = {(u, v, k): cat.precomposition(u, v, k, u0)
           for u, v, dk in cat.hom_pairs() if dims[u] and dims[v] for k in range(dk)}
    return CatModule(cat, dims, act)


def _first_syzygy(cat, x):
    """Omega^1 S_x = ker(P_x -> S_x) from the kept resolution, checked against the twin."""
    mod = _twin_radical_of_projective(cat, x)
    assert syzygy_modules(cat, x, 1)[0].equal(mod)
    return mod

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
        mod = _first_syzygy(cat, x)
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


def test_ext_from_injectives_computes_one_sweep_per_node(monkeypatch):
    """The opposite category asks for its Hom spaces lowest source first, so over A2 [0, 14]
    each frozen node's sweep from level 0 is the only one computed: every other is its translate."""
    computed = []
    real = mesh_hom._sweep
    monkeypatch.setattr(mesh_hom, "_sweep", lambda *args: computed.append(args[1]) or real(*args))
    monkeypatch.setattr(mesh_hom, "_DISK_DIR", None)
    mesh_hom.clear_cache()
    try:
        cat, module, sources = _injective_case()
        assert ext_from_injective_multi(cat, sources, module, 2) == {u: 0 for u in sources}
        assert [ext_from_injective_multi(cat, sources, module, p) for p in (0, 1)] == [
            {u: 0 for u in sources}, {u: 1 for u in sources}]
        assert computed == [parse_vertex("1'@0"), parse_vertex("2'@0")]
    finally:
        mesh_hom.clear_cache()


def test_kernel_not_closed_under_the_action_is_an_internal_fault(monkeypatch):
    cat = SCategoryWindow(A2, None, Window(0, 9))
    cover = minimal_cover(_twin_radical_of_projective(cat, RepVertex("2", 5, True)))
    assert kernel_submodule(cover)[0].act  # and fills the category's precomposition memo
    first = cover.summands[0][0]
    for key, mat in list(cat._precomp.items()):
        if key[3] == first:  # scale the action into one summand only
            monkeypatch.setitem(cat._precomp, key, [[2 * x for x in row] for row in mat])
    with pytest.raises(InternalConsistencyError, match="not closed under the action"):
        kernel_submodule(cover)


# ---------------------------------------------------------------------------
# The generators of S against the paper's quiver of S, and the radical and
# socle along them against their all-basis-morphism twins.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, window, arrows", [
    (A2, (0, 6), 23), (a_n_quiver(3), (0, 5), 45), (d4_quiver(), (0, 4), 84), (kronecker_quiver(), (0, 4), 120)],
    ids=["A2", "A3", "D4", "Kronecker"])
def test_generators_count_the_arrows_of_the_singular_quiver(q, window, arrows):
    """len(generators(u, v)) = dim rad/rad^2 (u, v) is the arrow count of build_sing_quiver,
    an independent route through first extensions and mesh dimensions."""
    clear_cache()
    try:
        w = Window(*window)
        cat = window_category(q, None, w)
        report = build_sing_quiver(q, None, w)
        pairs = [(u, v) for u in cat.objects for v in cat.objects]
        assert [len(cat.generators(u, v)) for u, v in pairs] == [report.arrow_count(u, v) for u, v in pairs]
        assert sum(len(cat.generators(u, v)) for u, v in pairs) == arrows
        # the generators are basis morphisms, and identities are not arrows
        assert all(0 <= k < cat.dim(u, v) for u, v in pairs for k in cat.generators(u, v))
        assert all(cat.generators(u, u) == [] for u in cat.objects)
    finally:
        clear_cache()


def test_op_category_generators_are_the_reversed_base_generators():
    cat, _, _ = _injective_case()
    opcat = OpSCategoryWindow(cat)
    pairs = [(u, v) for u in cat.objects if u.level <= 4 for v in cat.objects if v.level <= 4]
    assert any(opcat.generators(v, u) for u, v in pairs)
    assert all(opcat.generators(v, u) == cat.generators(u, v) for u, v in pairs)


def _twin_radical_cols(mod, u):
    """radical_cols as it was: the images of every basis morphism out of u."""
    cols = []
    du = mod.dim(u)
    if du == 0:
        return cols
    for v in mod.cat.objects:
        if v == u or mod.dim(v) == 0:
            continue
        for k in range(mod.cat.dim(u, v)):
            mat = mod.act.get((u, v, k))
            if mat is None:
                continue
            for j in range(mod.dim(v)):
                col = [mat[i][j] for i in range(du)]
                if any(x != mod.field.zero for x in col):
                    cols.append(col)
    return cols


def _twin_socle_dim(mod, u):
    """socle_dim as it was: the common kernel of every basis morphism into u."""
    du = mod.dim(u)
    if du == 0:
        return 0
    rows = []
    for w in mod.cat.objects:
        if w == u:
            continue
        for k in range(mod.cat.dim(w, u)):
            mat = mod.act.get((w, u, k))
            if mat is not None:
                rows.extend(mat)
    return du - mat_rank(rows, du, mod.field)


def _same_span(a, b, dim, field):
    return mat_rank(a, dim, field) == mat_rank(b, dim, field) == mat_rank(a + b, dim, field)


def _assert_radical_and_socle_match_the_twins(mod):
    """Same radical span, hence the same top generators, and the same socle, at every object."""
    nonzero = 0
    for u in mod.cat.objects:
        d = mod.dim(u)
        got, want = mod.radical_cols(u), _twin_radical_cols(mod, u)
        assert _same_span(got, want, d, mod.field)
        assert quotient_coords(d, got, mod.field) == quotient_coords(d, want, mod.field)
        assert mod.socle_dim(u) == _twin_socle_dim(mod, u)
        nonzero += len(want) > 0
    return nonzero


@pytest.mark.parametrize("q, window, top, depth", [c[:4] for c in CHAINS], ids=["A2", "A3", "D4", "K2", "K3"])
def test_radical_and_socle_match_the_all_basis_twins_on_syzygy_chains(q, window, top, depth):
    cat = SCategoryWindow(q, None, Window(*window))
    nonzero = 0
    for x in [u for u in cat.objects if u.level <= top]:
        mod = _first_syzygy(cat, x)
        for _ in range(depth - 1):
            nonzero += _assert_radical_and_socle_match_the_twins(mod)
            mod = kernel_submodule(minimal_cover(mod))[0]
    assert nonzero > 0


@pytest.mark.parametrize("q", [A2, a_n_quiver(3), d4_quiver(), kronecker_quiver()], ids=["A2", "A3", "D4", "Kronecker"])
def test_radical_and_socle_match_the_all_basis_twins_on_random_points(q):
    """Seeded points, where a module's action along parallel generators differs."""
    nonzero = 0
    for seed in range(6):
        rep = random_window_rep(q, Window(0, 2), random.Random(seed), dim_choices=(0, 1, 1, 2))
        nonzero += _assert_radical_and_socle_match_the_twins(restrict(rep).module)
    assert nonzero > 0


def test_radical_and_socle_see_every_parallel_generator():
    """A Kronecker module acting by zero along one of two parallel arrows and by one along the other."""
    cat = SCategoryWindow(kronecker_quiver(), None, Window(0, 2))
    w, u = parse_vertex("1'@0"), parse_vertex("2'@1")
    gens = cat.generators(w, u)
    assert len(gens) == 2
    for one in gens:
        mod = CatModule(cat, {w: 1, u: 1}, {(w, u, k): [[Fraction(int(k == one))]] for k in gens})
        assert _assert_radical_and_socle_match_the_twins(mod) == 1
        assert mod.radical_cols(w) and mod.top_generators(w) == []
        assert mod.socle_dim(u) == 0 and mod.socle_dim(w) == 1


def test_radical_and_socle_match_the_all_basis_twins_on_the_op_resolution(monkeypatch):
    """Every module ext_from_injective_multi resolves over the opposite category."""
    cat, module, sources = _injective_case()
    seen = []
    real_cover = catmod.minimal_cover

    def checked_cover(mod):
        seen.append(_assert_radical_and_socle_match_the_twins(mod))
        return real_cover(mod)

    monkeypatch.setattr(catmod, "minimal_cover", checked_cover)
    assert ext_from_injective_multi(cat, sources, module, 2) == {u: 0 for u in sources}
    assert len(seen) == 4 and sum(seen) > 0


# ---------------------------------------------------------------------------
# Memos of the windowed categories across mesh_hom.clear_cache().
# ---------------------------------------------------------------------------

def _memo_sizes(cat):
    return [len(cat._precomp), len(cat._postcomp), len(cat._resolutions), len(cat._generators or ())]


def _fill_memos(cat):
    x = cat.objects[2]
    syzygy_modules(cat, x, 2)
    op_representable(OpSCategoryWindow(cat), x)
    for u in cat.objects:
        for v in cat.objects:
            cat.generators(u, v)


def test_clear_cache_releases_the_memos_of_a_shared_category():
    clear_cache()
    try:
        cat = window_category(A2, None, Window(0, 6))
        _fill_memos(cat)
        assert all(_memo_sizes(cat))
        before = {(u, v): list(cat.generators(u, v)) for u in cat.objects for v in cat.objects}
        clear_cache()
        assert _memo_sizes(cat) == [0, 0, 0, 0]
        assert window_category(A2, None, Window(0, 6)) is not cat
        # a category kept beyond clear_cache() still answers, from fresh sweeps
        assert {(u, v): cat.generators(u, v) for u in cat.objects for v in cat.objects} == before
    finally:
        clear_cache()


def test_clear_cache_leaves_the_memos_of_a_category_built_directly():
    clear_cache()
    try:
        cat = SCategoryWindow(A2, None, Window(0, 6))
        _fill_memos(cat)
        sizes = _memo_sizes(cat)
        assert all(sizes)
        clear_cache()
        assert _memo_sizes(cat) == sizes
    finally:
        clear_cache()


# ---------------------------------------------------------------------------
# One minimal-resolution routine.
# ---------------------------------------------------------------------------

def test_resolution_is_the_only_routine_that_covers_and_takes_kernels():
    """In the package, minimal_cover and kernel_submodule are called from catmod._resolution only;
    the single-purpose chain builders are gone, and Ext from cofree modules takes no span option."""
    package = pathlib.Path(catmod.__file__).parent
    callers, names = set(), set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in ("minimal_cover", "kernel_submodule"):
                        callers.add((path.name, getattr(top, "name", None), called))
                names.update(n for n in (getattr(node, "name", None), getattr(node, "id", None),
                                         getattr(node, "attr", None)) if isinstance(n, str))
    assert callers == {("catmod.py", "_resolution", "minimal_cover"), ("catmod.py", "_resolution", "kernel_submodule")}
    assert not names & {"radical_of_projective", "projective_module", "ext_from_injective", "shift_span"}
    assert list(inspect.signature(ext_from_injective_multi).parameters) == ["cat", "x0_list", "M", "p"]
