import itertools

import pytest

from stratakit import catmod, mesh_hom, quiver_core
from stratakit.catmod import (
    CatModule,
    OpSCategoryWindow,
    SCategoryWindow,
    dual_module,
    ext_dim,
    ext_from_injective_multi,
    kernel_submodule,
    minimal_cover,
    simple_module,
    syzygy_modules,
)
from stratakit.dq_engine import hom_dq, is_dynkin, sigma_shift_inv_vertex
from stratakit.errors import InvalidInputError, WindowInsufficiencyError
from stratakit.mesh_hom import MeshContext, hom_dim
from stratakit.quiver_core import (
    Configuration,
    RepVertex,
    Window,
    a_n_quiver,
    d4_quiver,
    kronecker_quiver,
    parse_vertex,
    sigma,
    sigma_inv,
)
from stratakit.sing_builder import (
    MAX_SING_QUIVER_WORK,
    SingQuiverReport,
    _sweep_work,
    build_sing_quiver,
    ext_oracle,
    second_syzygy_is_zero,
)

A2 = a_n_quiver(2)


def projective_module(cat: SCategoryWindow, u0: RepVertex) -> CatModule:
    """The free module Hom(?, u0)."""
    dims = {u: cat.dim(u, u0) for u in cat.objects}
    act = {(u, v, k): cat.precomposition(u, v, k, u0)
           for u, v, dk in cat.hom_pairs() if dims[u] and dims[v] for k in range(dk)}
    return CatModule(cat, dims, act)


def radical_of_projective(cat: SCategoryWindow, u0: RepVertex) -> CatModule:
    """rad Hom(?, u0): the free module with the identity component removed."""
    proj = projective_module(cat, u0)
    dims = {**proj.dims, u0: 0}
    return CatModule(cat, dims, {(u, v, k): m for (u, v, k), m in proj.act.items() if dims[u] and dims[v]})


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


def test_a2_interior_arrow_targets():
    report = build_sing_quiver(A2, None, Window(0, 9))
    u = parse_vertex("1'@3")
    outs = {b.key(): n for (a, b), n in report.arrows.items() if a == u}
    assert outs == {"1'@4": 1, "2'@4": 1}
    u2 = parse_vertex("2'@3")
    outs2 = {b.key(): n for (a, b), n in report.arrows.items() if a == u2}
    assert outs2 == {"2'@4": 1, "1'@5": 1}


def test_a2_relation_targets():
    report = build_sing_quiver(A2, None, Window(0, 9))
    rels1 = {b.key(): n for (a, b), n in report.relations.items() if a == parse_vertex("1'@3")}
    rels2 = {b.key(): n for (a, b), n in report.relations.items() if a == parse_vertex("2'@3")}
    assert rels1 == {"2'@5": 1, "1'@6": 1}     # commuting square and the cube pair
    assert rels2 == {"1'@6": 1, "2'@6": 1}


def test_singular_quiver_respects_configuration():
    config_members = [parse_vertex("1@0")]
    from stratakit.quiver_core import Configuration

    c = Configuration(config_members, period=1)   # all (1,p), no (2,p)
    report = build_sing_quiver(A2, c, Window(0, 6))
    assert all(v.node == "1" for v in report.vertices)
    # counts between surviving vertices are unchanged
    full = build_sing_quiver(A2, None, Window(0, 6))
    for (a, b), n in report.arrows.items():
        assert full.arrow_count(a, b) == n


def test_ext_oracle_p1_equals_arrow_counts():
    report = build_sing_quiver(A2, None, Window(0, 7))
    for u, u2 in itertools.product([parse_vertex(k) for k in ["1'@1", "2'@1", "1'@2", "2'@2"]], repeat=2):
        oracle = ext_oracle(A2, None, Window(0, 7), u2, u, 1)
        assert oracle == report.arrow_count(u, u2), (u, u2)


def test_ext_oracle_directedness_no_self_extension():
    assert ext_oracle(A2, None, Window(0, 6), parse_vertex("1'@2"), parse_vertex("1'@2"), 1) == 0


def test_min_resolution_shape_matches_shifted_counts():
    # step-k cover multiplicities of the simple at f follow the shifted pattern
    w = Window(0, 12)
    cat = SCategoryWindow(A2, None, Window(0, 6))
    f = parse_vertex("2'@4")
    ctx = MeshContext(A2, "kZQ")
    for k in (1, 2):
        omega = syzygy_modules(cat, f, k)[-1]
        mults = {u: len(omega.top_generators(u)) for u in cat.objects}
        mults = {u: m for u, m in mults.items() if m}
        expected = {}
        for u in cat.objects:
            d = hom_dq(A2, sigma_inv(f), k, sigma_inv(u), w)
            if d:
                expected[u] = d
        assert mults == expected, (k, mults, expected)


def test_projective_module_values_and_socle():
    cat = SCategoryWindow(A2, None, Window(0, 4))
    u0 = parse_vertex("2'@3")
    proj = projective_module(cat, u0)
    for u in cat.objects:
        assert proj.dim(u) == cat.dim(u, u0)
    simple = simple_module(cat, u0)
    assert simple.socle_dim(u0) == 1
    rad = radical_of_projective(cat, u0)
    assert rad.dim(u0) == 0
    assert syzygy_modules(cat, u0, 1)[0].equal(rad)  # the kept first kernel is rad P_u0


def test_kronecker_resolutions_stop():
    kr = kronecker_quiver(2)
    w = Window(0, 5)
    assert second_syzygy_is_zero(kr, None, Window(1, 3), parse_vertex("1'@3"))
    assert ext_oracle(kr, None, w, parse_vertex("2'@3"), parse_vertex("1'@1"), 2) == 0
    assert ext_oracle(kr, None, w, parse_vertex("2'@3"), parse_vertex("1'@2"), 3) == 0


def test_duality_self_check():
    import random

    from stratakit.randrep import random_module_point

    w = Window(0, 4)
    cat = SCategoryWindow(A2, None, w)
    opcat = OpSCategoryWindow(cat)
    rng = random.Random(11)
    for _ in range(4):
        a = simple_module(cat, rng.choice(cat.objects))
        bmod = random_module_point(A2, w, rng, dim_choices=(0, 1, 1)).module
        b = CatModule(cat, dict(bmod.dims), dict(bmod.act))
        for p in (0, 1, 2):
            assert ext_dim(cat, a, b, p) == ext_dim(opcat, dual_module(opcat, b), dual_module(opcat, a), p)


def test_ext_from_injective_vanishes_high():
    cat = SCategoryWindow(A2, None, Window(0, 17))
    module = CatModule(cat, {parse_vertex("1'@0"): 1, parse_vertex("2'@1"): 1}, {})
    x0 = parse_vertex("1'@0")
    vals = {p: ext_from_injective_multi(cat, [x0], module, p)[x0] for p in (2, 3)}
    assert vals == {2: 0, 3: 0}


def test_injective_module_is_not_window_bounded():
    # the cofree module at a frozen vertex keeps nonzero values level after
    # level: the full singular category is not locally bounded
    cat = SCategoryWindow(A2, None, Window(0, 8))
    inj = injective_module(cat, parse_vertex("1'@0"))
    assert all(inj.dim(parse_vertex(f"1'@{p}")) >= 1 for p in range(0, 9))


def test_d4_double_arrow_in_report():
    report = build_sing_quiver(d4_quiver(), None, Window(0, 5))
    assert report.arrow_count(parse_vertex("0'@1"), parse_vertex("0'@3")) == 2


def test_d4_relation_counts_equal_the_ext2_oracle():
    """Every relation count of the D4 report over [0, 5] is dim Ext^2 between the simples,
    by syzygies: each reported pair, and each pair left at zero from a source the report
    does not list as partial."""
    q, w = d4_quiver(), Window(0, 5)
    report = build_sing_quiver(q, None, w)
    pairs = set(report.relations) | {(u, u2) for u in report.vertices if u not in report.partial
                                     for u2 in report.vertices}
    assert len(pairs) == 315 and any(report.relations.values())
    for u, u2 in sorted(pairs):
        assert report.relations.get((u, u2), 0) == ext_oracle(q, None, w, u2, u, 2), (u, u2)


def test_report_json_and_dot():
    report = build_sing_quiver(A2, None, Window(0, 4))
    data = report.to_json()
    assert data["dynkin"]["family"] == "A"
    dot = report.to_dot()
    assert dot.startswith("digraph") and "->" in dot


# ---------------------------------------------------------------------------
# One sweep per source in the report, one syzygy chain per simple.
# ---------------------------------------------------------------------------

def _per_pair_report(q, config, w, max_span=None):
    """The report with one sweep per pair, on the window between the pair's two levels."""
    config = config if config is not None else Configuration.full()
    info = is_dynkin(q)
    ctx = MeshContext(q, "kZQ")
    objects = [v for v in MeshContext(q, "RC", config).vertices_in(w) if v.frozen]
    arrows, relations, partial = {}, {}, []

    def shifted(v):
        try:
            return sigma_shift_inv_vertex(q, v, w)
        except WindowInsufficiencyError:
            return None

    def pair_dim(x, y):
        return 0 if y.level < x.level else hom_dim(ctx, x, y, Window(x.level, y.level))

    for u in objects:
        x = sigma_inv(u)
        if not w.contains(x):
            partial.append(u)
            continue
        src_partial = False
        for u2 in objects:
            if max_span is not None and abs(u2.level - u.level) > max_span:
                continue
            n = pair_dim(x, sigma(u2))
            if n:
                arrows[(u, u2)] = n
            if info.is_dynkin:
                z = shifted(sigma(u2))
                if z is None:
                    src_partial = src_partial or u2.level >= u.level + 2
                    continue
                r = pair_dim(x, z)
                if r:
                    relations[(u, u2)] = r
        if src_partial:
            partial.append(u)
    return SingQuiverReport(objects, arrows, relations, sorted(set(partial)), info)


PERIODIC = Configuration([parse_vertex("1@0")], period=1)


@pytest.mark.parametrize("q, config, lo, hi, span", [
    (A2, None, 0, 9, None),
    (a_n_quiver(3), None, 0, 8, None),
    (d4_quiver(), None, 0, 5, None),
    (kronecker_quiver(2), None, 0, 5, None),
    (kronecker_quiver(3), None, 0, 4, 2),
    (A2, None, -2, 2, None),
    (A2, PERIODIC, 0, 6, None),
    (A2, None, 0, 6, 0),
], ids=["A2", "A3", "D4", "K2", "K3-span2", "A2-negative", "A2-periodic", "A2-span0"])
def test_report_equals_the_per_pair_window_twin(q, config, lo, hi, span):
    mesh_hom.clear_cache()
    report = build_sing_quiver(q, config, Window(lo, hi), span)
    mesh_hom.clear_cache()
    twin = _per_pair_report(q, config, Window(lo, hi), span)
    assert report.to_json() == twin.to_json()
    assert report.to_dot() == twin.to_dot()


def test_report_sweeps_once_per_source(monkeypatch):
    computed = []
    real = mesh_hom._sweep
    monkeypatch.setattr(mesh_hom, "_DISK_DIR", None)
    monkeypatch.setattr(mesh_hom, "_sweep", lambda *args: computed.append(args) or real(*args))
    mesh_hom.clear_cache()
    # the Serre search sweeps each node from level 0 on [0, 2] and node 2, whose
    # support reaches level 2, again on [0, 3], for itself alone (neither cached
    # nor stored); kZQ is tau-invariant, so the report then computes its first
    # source per node, the tallest, and every other source is a translate
    search = [(parse_vertex(v), Window(0, top)) for v, top in (("1@0", 2), ("2@0", 2), ("2@0", 3))]
    report = build_sing_quiver(A2, None, Window(0, 9))
    assert [(args[1], args[2]) for args in computed] == search + [(parse_vertex("1@1"), Window(1, 9)),
                                                                  (parse_vertex("2@1"), Window(1, 9))]
    mesh_hom.clear_cache()
    computed.clear()
    # the twin's first pair asks for the one-level window [1, 1], then the Serre
    # search runs; each node's sweeps from level 1 then grow with the pair's target
    _per_pair_report(A2, None, Window(0, 9))
    assert [(args[1], args[2]) for args in computed] == (
        [(parse_vertex("1@1"), Window(1, 1))] + search
        + [(parse_vertex("1@1"), Window(1, hi)) for hi in range(2, 10)]
        + [(parse_vertex("2@1"), Window(1, hi)) for hi in range(1, 10)])
    mesh_hom.clear_cache()
    assert report.to_json() == build_sing_quiver(A2, None, Window(0, 9)).to_json()


def _objects(q, w):
    return [v for v in MeshContext(q, "RC").vertices_in(w) if v.frozen]


@pytest.mark.parametrize("q, hi, span", [
    (A2, 9, None), (a_n_quiver(3), 9, None), (d4_quiver(), 5, None), (kronecker_quiver(2), 5, None),
    (kronecker_quiver(3), 4, 2),
], ids=["A2", "A3", "D4", "K2", "K3-span2"])
def test_the_widest_reports_in_use_stay_under_the_work_budget(q, hi, span, monkeypatch):
    """The widest windows the tests, golden files and benchmark report on are counted
    below the budget, and the count bounds the levels the report really sweeps."""
    w = Window(0, hi)
    work = _sweep_work(_objects(q, w), w, span)
    assert work <= MAX_SING_QUIVER_WORK
    swept = []
    real = mesh_hom._sweep
    monkeypatch.setattr(mesh_hom, "_sweep", lambda ctx, source, window, field: swept.append(
        window.hi - window.lo + 1) or real(ctx, source, window, field))
    mesh_hom.clear_cache()
    build_sing_quiver(q, None, w, span)
    mesh_hom.clear_cache()
    assert swept and sum(swept) <= work


def test_sing_quiver_over_the_work_budget_is_rejected_before_any_sweep(monkeypatch):
    """Just over the budget raises InvalidInputError before any sweep; max_span brings the
    same window under it."""
    w = Window(0, 100)  # A2 over [0, 100]: 10,100 source-levels
    assert _sweep_work(_objects(A2, w), w, None) == 10_100 > MAX_SING_QUIVER_WORK
    monkeypatch.setattr(mesh_hom, "_sweep", lambda *args: pytest.fail("swept before the budget check"))
    with pytest.raises(InvalidInputError, match="10100 source-levels of sweeps, above the limit 10000"):
        build_sing_quiver(A2, None, w)
    assert _sweep_work(_objects(A2, w), w, 3) <= MAX_SING_QUIVER_WORK
    monkeypatch.undo()
    mesh_hom.clear_cache()
    assert build_sing_quiver(A2, None, w, 3).arrows


def test_negative_max_span_is_rejected():
    with pytest.raises(InvalidInputError, match="max_span must be >= 0"):
        build_sing_quiver(A2, None, Window(0, 4), max_span=-1)


def _syzygies_twin(cat, x, p):
    out = [radical_of_projective(cat, x)]
    for _ in range(p - 1):
        out.append(kernel_submodule(minimal_cover(out[-1]))[0])
    return out


def _count_kernels(monkeypatch):
    calls = []
    real = catmod.kernel_submodule
    monkeypatch.setattr(catmod, "kernel_submodule", lambda cover: calls.append(cover) or real(cover))
    return calls


@pytest.mark.parametrize("q, lo, hi, key", [
    (A2, 0, 6, "2'@4"), (A2, 0, 6, "1'@6"), (d4_quiver(), 0, 4, "0'@4"), (kronecker_quiver(2), 1, 4, "1'@4"),
], ids=["A2-2'@4", "A2-1'@6", "D4-0'@4", "K2-1'@4"])
def test_syzygy_chain_is_kept_on_the_category(monkeypatch, q, lo, hi, key):
    cat = SCategoryWindow(q, None, Window(lo, hi))
    x = parse_vertex(key)
    chain = syzygy_modules(cat, x, 3)
    assert len(chain) == 3
    calls = _count_kernels(monkeypatch)
    for p in (1, 2, 3):
        again = syzygy_modules(cat, x, p)
        assert len(again) == p and all(a is b for a, b in zip(again, chain))
    again.clear()  # the returned list is the caller's own
    assert [id(m) for m in syzygy_modules(cat, x, 3)] == [id(m) for m in chain]
    assert calls == []
    fresh = _syzygies_twin(SCategoryWindow(q, None, Window(lo, hi)), x, 3)
    assert all(a.equal(b) for a, b in zip(chain, fresh))
    assert len(syzygy_modules(cat, x, 4)) == 4 and len(calls) == 1  # extended on demand


def _ext_oracle_twin(q, config, w, x, y, p):
    """ext_oracle on a category of its own, with the syzygies computed afresh."""
    if y.level > x.level:
        return 0
    cat = SCategoryWindow(q, config, Window(max(w.lo, y.level), min(w.hi, x.level)))
    return len(_syzygies_twin(cat, x, p)[-1].top_generators(y))


def _frozen(q, lo, hi):
    return [RepVertex(n, p, True) for p in range(lo, hi + 1) for n in q.vertices]


@pytest.mark.parametrize("q, lo, hi, levels, degrees, gaps", [
    (A2, 0, 9, (1, 3), (1, 2), None),
    (a_n_quiver(3), 0, 10, (1, 2), (1,), None),
    (d4_quiver(), 0, 5, (1, 2), (1,), None),
    (kronecker_quiver(2), 0, 5, (0, 5), (1, 2), (0, 1, 2)),
], ids=["A2", "A3", "D4", "K2"])
def test_ext_oracle_on_shared_categories_equals_a_private_twin(q, lo, hi, levels, degrees, gaps):
    mesh_hom.clear_cache()
    w = Window(lo, hi)
    jobs = [(x, y, p) for x, y in itertools.product(_frozen(q, *levels), repeat=2) for p in degrees
            if gaps is None or x.level - y.level in gaps]
    got = [ext_oracle(q, None, w, x, y, p) for x, y, p in jobs]
    mesh_hom.clear_cache()
    assert got == [_ext_oracle_twin(q, None, w, x, y, p) for x, y, p in jobs]
    assert any(got)


def test_clear_cache_drops_the_shared_syzygies(monkeypatch):
    mesh_hom.clear_cache()
    w, x = Window(0, 9), parse_vertex("2'@3")
    targets = [parse_vertex(k) for k in ("1'@1", "2'@1")]
    calls = _count_kernels(monkeypatch)
    first = [ext_oracle(A2, None, w, x, y, 2) for y in targets]
    assert len(calls) == 2  # both targets read one resolution: the kernels Omega^1 and Omega^2
    categories = [obj for key, obj in quiver_core._SHARED.items() if key[0] == "category"]
    assert len(categories) == 1 and list(categories[0]._resolutions) == [x]
    mesh_hom.clear_cache()
    assert quiver_core._SHARED == {}
    assert [ext_oracle(A2, None, w, x, y, 2) for y in targets] == first
    assert len(calls) == 4
