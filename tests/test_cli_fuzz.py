"""Fuzz the CLI's JSON arguments: every input ends in a result or the documented JSON error.

Arguments are drawn both as arbitrary JSON and as near-valid quivers,
configurations, vertex maps and window representations, so that the
draws reach past the first parse into the mesh categories, the Serre
and suspension vertex maps (hom-dq, sing-quiver with and without
--max-span, ext-oracle), and the representations on into the Kan
extensions, Phi and the closure order (phi, klr, stratum with and
without --other, degen).  Most integers
are drawn small, but SCALARS also draws unbounded ones, so a window or a
field characteristic can be huge: the input boundary must reject those
before any work, as the pinned examples check.
"""
import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from stratakit import mesh_hom
from stratakit.cli import main

SMALL = st.integers(-2, 3)
SCALARS = st.one_of(st.none(), st.booleans(), SMALL, st.integers(), st.floats(), st.text(max_size=4))
ANY_JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)), max_leaves=8)

NODES = st.sampled_from(["1", "2", "3"])
VERTEX_KEYS = st.one_of(
    st.builds("{}{}@{}".format, NODES, st.sampled_from(["", "'"]), SMALL),
    st.sampled_from(["7@0", "1@x", "@", "", "1'", "1@@0", "1@1.5"]),
    st.text(max_size=4))
ARROW_KEYS = st.one_of(
    st.builds("{}:{}@{}".format, st.sampled_from(["a", "s", "f", "c", "x"]),
              st.sampled_from(["a", "b", "1", "2", "9"]), SMALL),
    st.text(max_size=5))
ARROW = st.fixed_dictionaries({"id": st.one_of(st.sampled_from(["a", "b"]), ANY_JSON),
                               "source": st.one_of(NODES, ANY_JSON), "target": st.one_of(NODES, ANY_JSON)})
QUIVER = st.one_of(
    ANY_JSON,
    st.fixed_dictionaries({"vertices": st.one_of(st.lists(NODES, max_size=3), ANY_JSON),
                           "arrows": st.one_of(st.lists(ARROW, max_size=3), ANY_JSON)}),
    st.just({"vertices": ["1", "2"], "arrows": [{"id": "a", "source": "1", "target": "2"}]}),
    st.just({"vertices": ["1", "2"], "arrows": [{"id": "a", "source": "1", "target": "2"},
                                                {"id": "b", "source": "1", "target": "2"}]}))
CONFIG = st.one_of(
    ANY_JSON, st.lists(VERTEX_KEYS, max_size=3),
    st.fixed_dictionaries({"members": st.one_of(st.lists(VERTEX_KEYS, max_size=3), ANY_JSON)},
                          optional={"period": st.one_of(SMALL, ANY_JSON)}))
VERTEX_MAP = st.one_of(ANY_JSON, st.dictionaries(VERTEX_KEYS, st.one_of(SMALL, SCALARS), max_size=3))
MATRIX = st.one_of(ANY_JSON, st.lists(st.lists(st.one_of(SMALL, st.sampled_from(["1/2", "x", "1/0"]), SCALARS),
                                               max_size=2), max_size=2))
A2 = {"vertices": ["1", "2"], "arrows": [{"id": "a", "source": "1", "target": "2"}]}
VALID_REP = {"quiver": A2, "framed": True, "window": [0, 2], "configuration": None,
             "dims": {"1@0": 1, "2@0": 1, "1'@0": 1}, "mats": {"a:a@0": [["1/2"]], "f:1@0": [[2]]}}
REP_FIELDS = {"quiver": QUIVER, "window": st.one_of(st.lists(SMALL, min_size=2, max_size=2), ANY_JSON),
              "framed": st.one_of(st.booleans(), ANY_JSON), "configuration": CONFIG, "dims": VERTEX_MAP,
              "mats": st.one_of(ANY_JSON, st.dictionaries(ARROW_KEYS, MATRIX, max_size=3)),
              "field": st.one_of(st.sampled_from(["QQ", 2, 3, 4, "2"]), ANY_JSON)}
REP = st.one_of(
    ANY_JSON,
    st.fixed_dictionaries({k: REP_FIELDS[k] for k in ("quiver", "window")},
                          optional={k: v for k, v in REP_FIELDS.items() if k not in ("quiver", "window")}),
    # a valid representation with one field redrawn
    st.sampled_from(sorted(REP_FIELDS)).flatmap(
        lambda k: REP_FIELDS[k].map(lambda v: dict(VALID_REP, **{k: v}))))
WINDOW = st.tuples(SMALL, st.integers(-1, 3)).map(lambda t: [str(t[0]), str(t[0] + t[1])])
# Dynkin quivers, vertices and windows wide enough that the draws reach nu and Sigma
A3 = {"vertices": ["1", "2", "3"], "arrows": [{"id": "a", "source": "1", "target": "2"},
                                              {"id": "b", "source": "3", "target": "2"}]}
DQ_QUIVER = st.one_of(QUIVER, st.sampled_from([A2, A3]))
DQ_VERTEX = st.one_of(VERTEX_KEYS, st.builds("{}{}@{}".format, NODES, st.sampled_from(["", "'"]),
                                             st.integers(-2, 9)))
DQ_WINDOW = st.one_of(WINDOW, st.tuples(SMALL, st.integers(3, 6)).map(lambda t: [str(t[0]), str(t[0] + t[1])]))
DQ_CONFIG = st.one_of(st.none(), CONFIG)
FROZEN_VERTEX = st.one_of(DQ_VERTEX, st.builds("{}'@{}".format, NODES, st.integers(-2, 9)))


def _arg(flag, value):
    return f"--{flag}={json.dumps(value)}"  # "=" keeps a value like -Infinity from reading as a flag


COMMANDS = st.one_of(
    st.builds(lambda q, w, c, f, x, y: ["hom", _arg("quiver", q), "--window", *w, _arg("config", c),
                                        f"--flavor={f}", f"--from={x}", f"--to={y}"],
              QUIVER, WINDOW, CONFIG, st.sampled_from(["kZQ", "RC", "SC"]), VERTEX_KEYS, VERTEX_KEYS),
    st.builds(lambda q, w, x, p, y: ["hom-dq", _arg("quiver", q), "--window", *w, f"--from={x}", f"--p={p}",
                                     f"--to={y}"],
              DQ_QUIVER, DQ_WINDOW, DQ_VERTEX, SMALL, DQ_VERTEX),
    st.builds(lambda q, w, m: ["cartan-solve", _arg("quiver", q), "--window", *w, _arg("m", m)],
              QUIVER, WINDOW, VERTEX_MAP),
    st.builds(lambda q, w, c, span: ["sing-quiver", _arg("quiver", q), "--window", *w, _arg("config", c)]
              + ([] if span is None else [f"--max-span={span}"]),
              DQ_QUIVER, DQ_WINDOW, DQ_CONFIG, st.one_of(st.none(), SMALL)),
    st.builds(lambda q, w, c, x, y, p: ["ext-oracle", _arg("quiver", q), "--window", *w, _arg("config", c),
                                        f"--from={x}", f"--to={y}", f"--p={p}"],
              DQ_QUIVER, DQ_WINDOW, DQ_CONFIG, FROZEN_VERTEX, FROZEN_VERTEX, SMALL),
    st.builds(lambda q, w, c: ["check-config", _arg("quiver", q), "--window", *w, _arg("config", c)],
              QUIVER, WINDOW, CONFIG),
    st.builds(lambda cmd, r: [cmd, _arg("rep", r)], st.sampled_from(["validate", "phi", "klr", "stratum"]), REP),
    # the second point is often the first, so that pairs with equal w reach Phi and the closure order
    st.builds(lambda cmd, ro: [cmd, _arg("rep", ro[0]), _arg("other", ro[1])], st.sampled_from(["stratum", "degen"]),
              REP.flatmap(lambda r: st.tuples(st.just(r), st.one_of(st.just(r), REP)))))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(COMMANDS)
@example(["validate", _arg("rep", dict(VALID_REP, window=[0, 100000000]))])
@example(["validate", _arg("rep", dict(VALID_REP, field=2 ** 89 - 1))])
def test_cli_json_arguments_end_in_a_result_or_a_json_error(argv):
    out, err = io.StringIO(), io.StringIO()
    mesh_hom.clear_cache()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        lines = err.getvalue().strip().splitlines()
        assert lines, argv
        error = json.loads(lines[-1])
        assert isinstance(error, dict) and "error" in error, (argv, lines[-1])
