import json

import pytest

from stratakit.errors import InvalidInputError
from stratakit.quiver_core import (
    Configuration,
    QArrow,
    Quiver,
    RepVertex,
    Window,
    a_n_quiver,
    build_repetition,
    check_configuration,
    d4_quiver,
    kronecker_quiver,
    mesh_relators,
    parse_vertex,
    sigma,
    sigma_arrow,
    sigma_inv,
    tau,
    tau_arrow,
)


def test_cyclic_quiver_rejected():
    with pytest.raises(InvalidInputError):
        Quiver(["1", "2"], [QArrow("a", "1", "2"), QArrow("b", "2", "1")])


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
        assert sigma_arrow(q, sigma_arrow(q, a)) == tau_arrow(q, a)
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
