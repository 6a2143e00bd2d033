import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from stratakit import mesh_hom, quiver_core
from stratakit.errors import InvalidInputError
from stratakit.quiver_core import (
    Configuration,
    QArrow,
    Quiver,
    RepArrow,
    RepVertex,
    Window,
    a_n_quiver,
    build_repetition,
    check_configuration,
    d4_quiver,
    kronecker_quiver,
    mesh_relators,
    parse_arrow_key,
    parse_vertex,
    rep_in_arrows,
    rep_out_arrows,
    sigma,
    sigma_arrow,
    sigma_inv,
    tau,
)


def tau_arrow(a: RepArrow) -> RepArrow:
    """tau on arrows: the same arrow one level down."""
    return RepArrow(a.kind, a.base, tau(a.source), tau(a.target))


def test_cyclic_quiver_rejected():
    with pytest.raises(InvalidInputError):
        Quiver(["1", "2"], [QArrow("a", "1", "2"), QArrow("b", "2", "1")])


@pytest.mark.parametrize("vertices, arrows, message", [
    (["x'", "y"], [], "frozen marker"),
    (["1", "2'"], [QArrow("a", "1", "2'")], "frozen marker"),
    ([1, 2], [], "must be strings"),
    (["1", "2"], [QArrow(3, "1", "2")], "must be strings"),
    (["1", "2"], [QArrow("a", "1", 2)], "must be strings"),
], ids=["frozen-id", "frozen-endpoint", "int-vertices", "int-arrow-id", "int-endpoint"])
def test_direct_construction_checks_vertex_and_arrow_ids(vertices, arrows, message):
    """Quiver() itself refuses what from_json refuses: a vertex read back from its key is the one it names."""
    with pytest.raises(InvalidInputError, match=message):
        Quiver(vertices, arrows)
    with pytest.raises(InvalidInputError, match=message):
        Quiver.from_json({"vertices": vertices, "arrows": [{"id": a.id, "source": a.source, "target": a.target}
                                                           for a in arrows]})


def test_vertex_keys_round_trip():
    for key in ["1@0", "2'@-3", "center@17"]:
        assert parse_vertex(key).key() == key


def test_sigma_tau_relations():
    for v in [parse_vertex("1@0"), parse_vertex("2'@5"), parse_vertex("1@-2")]:
        assert sigma(sigma(v)) == tau(v)
        assert sigma_inv(sigma(v)) == v
        assert tau(parse_vertex("1@3")) == parse_vertex("1@2")


def test_sigma_on_arrows_squares_to_tau():
    q = a_n_quiver(2)
    rq = build_repetition(q, True, Window(0, 3))
    for a in rq.arrows:
        assert sigma_arrow(q, sigma_arrow(q, a)) == tau_arrow(a)
        # sigma of beta: y -> x starts at tau(x) and ends at y
        sb = sigma_arrow(q, a)
        assert sb.source == tau(a.target)
        assert sb.target == a.source


def test_unframed_a2_window_0_1():
    rq = build_repetition(a_n_quiver(2), False, Window(0, 1))
    assert len(rq.vertices) == 4
    keys = sorted(a.key() for a in rq.arrows)
    assert keys == ["a:a1@0", "a:a1@1", "s:a1@1"]


def test_framed_a2_window_0_0():
    rq = build_repetition(a_n_quiver(2), True, Window(0, 0))
    assert len(rq.vertices) == 4
    assert sum(1 for v in rq.vertices if v.frozen) == 2
    kinds = sorted(a.kind for a in rq.arrows)
    assert kinds == ["a", "f", "f"]  # inherited arrow plus one framing per node


def test_framed_d4_window_counts():
    q = d4_quiver()
    rq = build_repetition(q, True, Window(0, 2))
    # 8 vertices per level: 4 ordinary + 4 frozen
    assert len(rq.vertices) == 24
    level1 = [a for a in rq.arrows if a.target.level == 1 and not a.target.frozen and not a.source.frozen
              and a.source.level == 0]
    # reversed arrows into level 1: one per base arrow
    assert len(level1) == 3
    central_in = rq.in_arrows(RepVertex("0", 1))
    # central vertex receives three reversed branches plus the frozen one
    assert len(central_in) == 4


def test_arrows_weakly_increase_level():
    rq = build_repetition(d4_quiver(), True, Window(0, 3))
    for a in rq.arrows:
        assert a.target.level in (a.source.level, a.source.level + 1)
        if a.target.level == a.source.level:
            assert a.kind in ("a", "f")


def test_mesh_relators_enumeration():
    q = a_n_quiver(2)
    rq = build_repetition(q, True, Window(0, 2))
    rels = mesh_relators(rq)
    eligible = [x for x in rq.vertices if not x.frozen and 0 < x.level <= 2]
    assert sorted(r.vertex for r in rels) == sorted(eligible)
    for r in rels:
        incoming = rq.in_arrows(r.vertex)
        assert len(r.terms) == len(incoming)
        for sb, b in r.terms:
            assert b in incoming
            assert sb.source == tau(r.vertex)
            assert sb.target == b.source


def test_kronecker_relator_has_parallel_terms():
    q = kronecker_quiver(2)
    rq = build_repetition(q, True, Window(0, 1))
    rel = rq.relator(RepVertex("1", 1))
    # two reversed parallel arrows plus the frozen branch
    assert len(rel.terms) == 3


@pytest.mark.parametrize("framed", [True, False])
def test_relator_is_imposed_exactly_where_tau_x_lies_in_the_window(framed):
    """None at frozen vertices and wherever tau(x) leaves the window; one level above
    the window the terms are the arrows from inside the slice.  Memoized."""
    q, w = d4_quiver(), Window(1, 3)
    rq = build_repetition(q, framed, w)
    for p in range(w.lo - 1, w.hi + 3):
        for node in q.vertices:
            x, u = RepVertex(node, p), RepVertex(node, p, True)
            assert rq.relator(u) is None
            rel = rq.relator(x)
            if not w.lo < p <= w.hi + 1:
                assert rel is None
                continue
            assert rel.vertex == x and rq.relator(x) is rel
            want = [b for b in rep_in_arrows(q, x, framed) if rq.has_vertex(b.source)]
            assert [b for _, b in rel.terms] == want
            if p <= w.hi:
                assert want == list(rq.in_arrows(x))
            assert all(sb == sigma_arrow(q, b) and rq.has_vertex(sb.source) for sb, b in rel.terms)


def test_sigma_arrow_is_called_only_by_the_relator():
    """RepQuiver.relator is the one place the package pairs arrows with their
    sigma-images, and MeshContext no longer decides where a relator is imposed."""
    import ast
    import pathlib

    users = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id == "sigma_arrow"
                    or isinstance(child, ast.Attribute) and child.attr == "sigma_arrow"):
                users.add(scope)
            visit(child, scope)

    for path in sorted(pathlib.Path(quiver_core.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert users == {"quiver_core.RepQuiver.relator"}
    assert not hasattr(mesh_hom.MeshContext, "imposes_relator")


def test_configuration_membership_and_period():
    c = Configuration([parse_vertex("1@0")], period=2)
    assert c.contains(parse_vertex("1@4"))
    assert c.contains(parse_vertex("1@-2"))
    assert not c.contains(parse_vertex("1@1"))
    assert not c.contains(parse_vertex("2@0"))
    assert c.retains(parse_vertex("1'@0"))
    assert not c.retains(parse_vertex("1'@1"))
    full = Configuration.full()
    assert full.contains(parse_vertex("2@13"))
    assert Configuration.from_json(c.to_json()).key() == c.key()


def test_configured_repetition_drops_dead_frozen():
    c = Configuration([parse_vertex("1@0")], period=2)
    rq = build_repetition(a_n_quiver(2), True, Window(0, 3), c)
    frozen = sorted(v.key() for v in rq.vertices if v.frozen)
    assert frozen == ["1'@0", "1'@2"]


def test_check_configuration_full_and_empty():
    q = a_n_quiver(2)
    w = Window(0, 3)
    full = check_configuration(q, Configuration.full(), w)
    assert all(entry["holds"] for entry in full["condition_R"].values())
    empty = check_configuration(q, Configuration([]), w)
    assert not any(entry["holds"] for entry in empty["condition_R"].values())


def test_check_configuration_even_levels_pattern():
    # members (1,p) for even p: morphisms reach them exactly from (1,even) and (2,odd)
    q = a_n_quiver(2)
    c = Configuration([parse_vertex("1@0")], period=2)
    report = check_configuration(q, c, Window(0, 4))
    for key, entry in report["condition_R"].items():
        v = parse_vertex(key)
        expected = (v.node == "1" and v.level % 2 == 0) or (v.node == "2" and v.level % 2 == 1)
        if entry["holds"] is None:
            assert v.level >= 3  # undetermined only near the top
        else:
            assert entry["holds"] == expected, key


def test_quiver_json_round_trip():
    q = d4_quiver()
    assert Quiver.from_json(q.to_json()).key() == q.key()


@pytest.mark.parametrize("make", [lambda: a_n_quiver(2), lambda: a_n_quiver(3), d4_quiver, kronecker_quiver],
                         ids=["A2", "A3", "D4", "Kronecker"])
def test_quiver_key_is_sorted_json(make):
    q = make()
    assert q.key() == json.dumps(q.to_json(), sort_keys=True)


def test_configuration_key_format():
    assert Configuration.full().key() == "ALL"
    assert Configuration([parse_vertex("2@1"), parse_vertex("1@0")], period=2).key() == "1@0,2@1;period=2"
    assert Configuration([parse_vertex("1@0")]).key() == "1@0;period=None"
    assert Configuration([]).key() == ";period=None"


@pytest.mark.parametrize("period", ["2", True, 2.0, 0, -1])
def test_configuration_period_must_be_positive_int(period):
    with pytest.raises(InvalidInputError):
        Configuration([parse_vertex("1@0")], period=period)


@pytest.mark.parametrize("data", [[1, 2], {"members": [None]}, {"members": "1@0"}, "1@0"])
def test_configuration_json_rejects_malformed_members(data):
    with pytest.raises(InvalidInputError):
        Configuration.from_json(data)


@pytest.mark.parametrize("make", [lambda: a_n_quiver(3), d4_quiver, kronecker_quiver], ids=["A3", "D4", "Kronecker"])
@pytest.mark.parametrize("framed", [True, False])
def test_slice_adjacency_is_the_windowless_adjacency_filtered(make, framed):
    q = make()
    config = Configuration([RepVertex(n, p) for n in q.vertices for p in range(0, 4, 2)])
    rq = build_repetition(q, framed, Window(0, 3), config if framed else None)
    for v in rq.vertices:
        assert list(rq.in_arrows(v)) == [a for a in rep_in_arrows(q, v, framed) if rq.has_vertex(a.source)]
        assert list(rq.out_arrows(v)) == [a for a in rep_out_arrows(q, v, framed) if rq.has_vertex(a.target)]
        for a in rep_in_arrows(q, v, framed):
            assert a.target == v and a in rep_out_arrows(q, a.source, framed)
        for a in rep_out_arrows(q, v, framed):
            assert a.source == v and a in rep_in_arrows(q, a.target, framed)
        if not v.frozen and 0 < v.level < 3 and (not framed or config.retains(RepVertex(v.node, v.level - 1, True))):
            assert list(rq.in_arrows(v)) == rep_in_arrows(q, v, framed)


def test_windowless_adjacency_keeps_the_slice_order():
    q = a_n_quiver(3)
    assert [a.key() for a in rep_in_arrows(q, parse_vertex("2@1"))] == ["a:a1@1", "s:a2@1", "c:2@1"]
    assert [a.key() for a in rep_out_arrows(q, parse_vertex("2@1"))] == ["a:a2@1", "s:a1@2", "f:2@1"]
    assert [a.key() for a in rep_in_arrows(q, parse_vertex("2@1"), framed=False)] == ["a:a1@1", "s:a2@1"]
    assert [a.key() for a in rep_in_arrows(q, parse_vertex("2'@1"))] == ["f:2@1"]
    assert [a.key() for a in rep_out_arrows(q, parse_vertex("2'@1"))] == ["c:2@2"]


def test_configuration_member_outside_the_quiver_is_rejected():
    config = Configuration([parse_vertex("7@0"), parse_vertex("1@0")])
    with pytest.raises(InvalidInputError, match="7@0"):
        build_repetition(a_n_quiver(2), True, Window(0, 2), config)


# ---------------------------------------------------------------------------
# RepVertex and RepArrow against copies of the frozen dataclasses they were.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class TwinVertex:
    node: str
    level: int
    frozen: bool = False

    def key(self) -> str:
        prime = "'" if self.frozen else ""
        return f"{self.node}{prime}@{self.level}"

    def __repr__(self):
        return self.key()


@dataclass(frozen=True)
class TwinArrow:
    kind: str
    base: str
    source: TwinVertex
    target: TwinVertex

    def key(self) -> str:
        return f"{self.kind}:{self.base}@{self.target.level}"

    def __repr__(self):
        return f"{self.key()}[{self.source}->{self.target}]"


def twin_vertex(v: RepVertex) -> TwinVertex:
    return TwinVertex(v.node, v.level, v.frozen)


def twin_arrow(a: RepArrow) -> TwinArrow:
    return TwinArrow(a.kind, a.base, twin_vertex(a.source), twin_vertex(a.target))


TWIN_QUIVERS = {"A3": a_n_quiver(3), "D4": d4_quiver(), "Kronecker": kronecker_quiver(2)}
levels = st.integers(-40, 40)
vertices = st.builds(RepVertex, st.sampled_from(["0", "1", "2", "10", "center", "x_1"]), levels, st.booleans())


@st.composite
def arrows(draw):
    """(quiver, arrow): an arrow into or out of a vertex of a stock quiver's (framed) ZQ."""
    q = TWIN_QUIVERS[draw(st.sampled_from(sorted(TWIN_QUIVERS)))]
    v = RepVertex(draw(st.sampled_from(q.vertices)), draw(levels), draw(st.booleans()))
    framed = draw(st.booleans())
    return q, draw(st.sampled_from(rep_in_arrows(q, v, framed) + rep_out_arrows(q, v, framed)))


@settings(max_examples=200, deadline=None)
@given(st.lists(vertices, min_size=1, max_size=8))
def test_vertices_hash_compare_and_sort_as_their_dataclass_twins(vs):
    twins = [twin_vertex(v) for v in vs]
    for v, t in zip(vs, twins):
        assert hash(v) == hash(t) == hash((t.node, t.level, t.frozen))
        assert repr(v) == repr(t) and str(v) == str(t) and v.key() == t.key()
        assert parse_vertex(v.key()) == v
        for u, s in zip(vs, twins):
            assert (v == u) == (t == s) and (v != u) == (t != s)
            assert (v < u) == (t < s) and (v <= u) == (t <= s)
            assert (v > u) == (t > s) and (v >= u) == (t >= s)
    assert [twin_vertex(v) for v in sorted(vs)] == sorted(twins)
    assert [twin_vertex(v) for v in set(vs)] == list(set(twins))


@settings(max_examples=200, deadline=None)
@given(st.lists(arrows(), min_size=1, max_size=6))
def test_arrows_hash_compare_and_parse_as_their_dataclass_twins(drawn):
    arrs = [a for _, a in drawn]
    twins = [twin_arrow(a) for a in arrs]
    for (q, a), t in zip(drawn, twins):
        assert hash(a) == hash(t) == hash((t.kind, t.base, t.source, t.target))
        assert repr(a) == repr(t) and a.key() == t.key()
        assert parse_arrow_key(q, a.key()) == a
        for b, s in zip(arrs, twins):
            assert (a == b) == (t == s) and (a != b) == (t != s)
    assert [twin_arrow(a) for a in set(arrs)] == list(set(twins))


@settings(max_examples=200, deadline=None)
@given(vertices, st.lists(arrows(), min_size=1, max_size=4))
def test_a_vertex_never_equals_an_arrow_or_a_path(v, drawn):
    arrs = [a for _, a in drawn]
    table = {v: "vertex"}
    for n in range(len(arrs) + 1):
        path = tuple(arrs[:n])
        assert not v == path and not path == v and v != path and path != v and path not in table
    for a in arrs:
        assert not v == a and not a == v and v != a and a != v and a not in table


def test_arrow_keys_are_built_once_per_arrow_until_clear_cache():
    mesh_hom.clear_cache()
    try:
        rq = build_repetition(a_n_quiver(3), True, Window(0, 3))
        keys = [a.key() for a in rq.arrows]
        assert keys == [twin_arrow(a).key() for a in rq.arrows]
        for a, k in zip(rq.arrows, keys):
            again = RepArrow(a.kind, a.base, RepVertex(*a.source), RepVertex(*a.target))
            assert again is not a and again.key() is k
        assert len(quiver_core._ARROW_KEYS) == len(rq.arrows)
        mesh_hom.clear_cache()
        assert quiver_core._ARROW_KEYS == {}
        assert [a.key() for a in rq.arrows] == keys
    finally:
        mesh_hom.clear_cache()
