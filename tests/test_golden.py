"""Golden outputs: the exact bytes of every CLI subcommand, and library results.

Each CLI case runs `strata-kit` in-process on the small A2, D4 and
Kronecker fixtures in tests/golden/ and compares exit code, stdout and
stderr byte for byte with tests/golden/cli_expected.json, with the disk
cache off, and again cold and then warm through one cache directory; the
SHA-256 of every log the cold run stores is pinned in
tests/golden/cache_logs.json, so the records' bytes are pinned too.  The library
cases pin the results of `stabilize`, `kan_left` with the canonical map,
`ext_dim` and `ext_from_injective_multi` in tests/golden/library_expected.json.

The expected files were written once and are never regenerated by the
test: a refactor that changes a chosen basis, a matrix entry or an error
message fails here.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from stratakit import mesh_hom
from stratakit.catmod import CatModule, SCategoryWindow, ext_dim, ext_from_injective_multi, simple_module
from stratakit.cli import build_parser, main
from stratakit.errors import StrataKitError
from stratakit.exact_linalg import QQ, format_fraction
from stratakit.kan_strata import WindowRep, can_matrices, kan_left, kan_right, restrict, stabilize
from stratakit.quiver_core import Window, a_n_quiver

GOLDEN = Path(__file__).parent / "golden"

# "@name" stands for the fixture file tests/golden/name; "%dot" for a
# scratch path whose contents are pinned too.
CLI_CASES = {
    "hom-a2-kzq": ["hom", "--quiver", "@a2.json", "--from", "1@0", "--to", "1@2", "--window", "0", "3"],
    "hom-a2-sc": ["hom", "--quiver", "@a2.json", "--flavor", "SC", "--from", "1'@0", "--to", "2'@2",
                  "--window", "0", "3"],
    "hom-d4-rc": ["hom", "--quiver", "@d4.json", "--flavor", "RC", "--from", "0@0", "--to", "0@2",
                  "--window", "0", "3"],
    "hom-k2-rc": ["hom", "--quiver", "@k2.json", "--flavor", "RC", "--from", "1@0", "--to", "2@3",
                  "--window", "0", "3"],
    "hom-dq-a2": ["hom-dq", "--quiver", "@a2.json", "--from", "1@1", "--p", "1", "--to", "1@0",
                  "--window", "0", "4"],
    "cartan-solve-a2": ["cartan-solve", "--quiver", "@a2.json", "--window", "0", "4",
                        "--m", '{"1@1": 1, "2@1": -1, "1@2": 1}'],
    "cartan-solve-window-exit-2": ["cartan-solve", "--quiver", "@a2.json", "--window", "0", "2",
                                   "--m", '{"1@0": 1}'],
    "sing-quiver-a2-dot": ["sing-quiver", "--quiver", "@a2.json", "--window", "0", "6", "--dot", "%dot"],
    "sing-quiver-d4": ["sing-quiver", "--quiver", "@d4.json", "--window", "0", "4"],
    "sing-quiver-k2": ["sing-quiver", "--quiver", "@k2.json", "--window", "0", "4", "--max-span", "2"],
    "validate-a2": ["validate", "--rep", "@a2_point.json"],
    "validate-violation-exit-1": [
        "validate", "--rep",
        '{"quiver": {"vertices": ["1", "2"], "arrows": [{"id": "a", "source": "1", "target": "2"}]},'
        ' "framed": true, "window": [0, 2], "configuration": null,'
        ' "dims": {"1@0": 1, "2@0": 1, "1@1": 1}, "mats": {"a:a@0": [["1"]], "s:a@1": [["1"]]}}'],
    "hom-unknown-node-exit-1": ["hom", "--quiver", "@a2.json", "--window", "0", "4", "--from", "7@0",
                                "--to", "7@1"],
    "klr-a2": ["klr", "--rep", "@a2_point.json"],
    "klr-k2": ["klr", "--rep", "@k2_point.json"],
    "phi-a2": ["phi", "--rep", "@a2_point.json"],
    "phi-d4": ["phi", "--rep", "@d4_point.json"],
    "stratum-a2": ["stratum", "--rep", "@a2_other.json"],
    "stratum-pair-a2": ["stratum", "--rep", "@a2_point.json", "--other", "@a2_other.json"],
    "degen-pair-a2": ["degen", "--rep", "@a2_point.json", "--other", "@a2_other.json"],
    "orbit-a2": ["orbit", "--rep", "@a2_stable.json"],
    "resolve-a2": ["resolve", "--rep", "@a2_point.json"],
    "resolve-d4": ["resolve", "--rep", "@d4_point.json"],
    "fiber-probe-a2": ["fiber", "--rep", "@a2_fiber2.json", "--v", "{}"],
    "fiber-lift-a2": ["fiber", "--rep", "@a2_fiber2.json", "--v", '{"1@1": 2, "1@2": 1, "2@1": 1}'],
    "fiber-lift-ck-only": ["fiber", "--rep", "@a2_fiber.json", "--v", '{"1@2": 1, "2@1": 1}', "--field", "3"],
    "fiber-bound": ["fiber", "--rep", "@a2_fiber2.json", "--v", "{}", "--bound", "2"],
    "check-config-full": ["check-config", "--quiver", "@a2.json", "--window", "0", "4"],
    "check-config-periodic": ["check-config", "--quiver", "@a2.json", "--window", "0", "4",
                              "--config", '{"members": ["1@0", "2@1"], "period": 2}'],
    "ext-oracle-a2": ["ext-oracle", "--quiver", "@a2.json", "--window", "0", "6", "--from", "2'@4",
                      "--to", "1'@2", "--p", "2"],
    "ext-oracle-d4": ["ext-oracle", "--quiver", "@d4.json", "--window", "0", "5", "--from", "0'@3",
                      "--to", "0'@1", "--p", "1"],
    "ext-oracle-k2": ["ext-oracle", "--quiver", "@k2.json", "--window", "0", "5", "--from", "2'@3",
                      "--to", "1'@1", "--p", "2"],
}


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    monkeypatch.delenv("STRATAKIT_CACHE_DIR", raising=False)
    mesh_hom.enable_disk_cache(None)
    mesh_hom.clear_cache()
    yield
    mesh_hom.clear_cache()


def _expected(name):
    return json.loads((GOLDEN / name).read_text())


def _argv(args, dot_path):
    out = []
    for a in args:
        if a.startswith("@"):
            out.append(str(GOLDEN / a[1:]))
        elif a == "%dot":
            out.append(str(dot_path))
        else:
            out.append(a)
    return out


def test_every_subcommand_but_selftest_is_pinned():
    commands = {args[0] for args in CLI_CASES.values()}
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert commands == set(subparsers.choices) - {"selftest"}
    assert set(_expected("cli_expected.json")) == set(_expected("cache_logs.json")) == set(CLI_CASES)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_bytes(name, capsys, tmp_path):
    want = _expected("cli_expected.json")[name]
    dot = tmp_path / "out.dot"
    code = main(_argv(CLI_CASES[name], dot))
    got = capsys.readouterr()
    assert code == want["exit"]
    assert got.out == want["stdout"]
    assert got.err == want["stderr"]
    if "dot" in want:
        assert dot.read_text() == want["dot"]


def _sweeps_computed_for_sweep(monkeypatch):
    """The sources of the rational sweeps that mesh_hom.sweep computes, the ones it stores
    with a disk cache on; dq_engine's node-map sweeps and sweeps over a prime field are
    never stored, so they are not counted."""
    computed = []
    real = mesh_hom._sweep

    def counting(ctx, source, window, field):
        if field is QQ and sys._getframe(1).f_code is mesh_hom.sweep.__code__:
            computed.append(source)
        return real(ctx, source, window, field)

    monkeypatch.setattr(mesh_hom, "_sweep", counting)
    return computed


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_bytes_cold_then_warm_through_one_disk_cache(name, capsys, tmp_path, monkeypatch):
    """The same bytes with STRATAKIT_CACHE_DIR set: once on an empty cache directory, then,
    with the memory cache cleared as in a second invocation, on what the first run stored.
    The cold run stores the pinned logs, byte for byte.  The warm run loads every sweep the
    cold run computed and stored, computes none, and appends nothing."""
    want = _expected("cli_expected.json")[name]
    cache = tmp_path / "cache"
    monkeypatch.setenv("STRATAKIT_CACHE_DIR", str(cache))
    computed = _sweeps_computed_for_sweep(monkeypatch)
    loaded = []
    real_decode = mesh_hom._decode
    monkeypatch.setattr(mesh_hom, "_decode", lambda *a: _noted(loaded, a[1], real_decode(*a)))
    runs = []
    for run in ("cold", "warm"):
        mesh_hom.clear_cache()
        computed.clear()
        loaded.clear()
        dot = tmp_path / f"{run}.dot"
        code = main(_argv(CLI_CASES[name], dot))
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (want["exit"], want["stdout"], want["stderr"]), run
        if "dot" in want:
            assert dot.read_text() == want["dot"]
        runs.append((list(computed), list(loaded), {p.name: p.read_bytes() for p in cache.iterdir()}))
    (cold_computed, _, cold_logs), (warm_computed, warm_loaded, warm_logs) = runs
    assert warm_computed == [] and warm_loaded == cold_computed and warm_logs == cold_logs
    assert {n: hashlib.sha256(b).hexdigest() for n, b in cold_logs.items()} == _expected("cache_logs.json")[name]


def _noted(seen, source, fun):
    if fun is not None:
        seen.append(source)
    return fun


def _rep(name):
    return WindowRep.from_json(json.loads((GOLDEN / name).read_text()))


def _matrices(mats):
    return {x.key(): [[format_fraction(c) for c in row] for row in m] for x, m in sorted(mats.items())}


def _ext_or_error(fn):
    try:
        return fn()
    except StrataKitError as exc:
        return {"error": type(exc).__name__, "detail": str(exc)}


def library_results():
    """Every pinned library value, as JSON-ready data."""
    out = {}
    out["stabilize"] = {name: stabilize(_rep(name)).to_json()
                        for name in ("a2_point.json", "a2_other.json", "a2_fiber2.json")}

    kl_out = {}
    for name in ("a2_point.json", "a2_fiber2.json"):
        rep = _rep(name)
        M = restrict(rep)
        kl = kan_left(M, rep.window)
        kl_out[name] = {"rep": kl.rep.to_json(),
                        "can": _matrices(can_matrices(M, kl, kan_right(M, rep.window)))}
    out["kan_left"] = kl_out

    point = restrict(_rep("a2_point.json"))
    other = restrict(_rep("a2_other.json"))
    cat = point.cat
    other_mod = CatModule(cat, dict(other.module.dims), dict(other.module.act))
    pairs = {"point,other": (point.module, other_mod), "other,point": (other_mod, point.module)}
    for u in cat.objects[:4]:
        pairs[f"S({u.key()}),point"] = (simple_module(cat, u), point.module)
    out["ext_dim"] = {name: {str(p): ext_dim(cat, n, m, p) for p in (0, 1, 2)} for name, (n, m) in pairs.items()}

    small = restrict(_rep("a2_fiber2.json")).module
    inj = {}
    for hi in (15, 6):
        big = SCategoryWindow(a_n_quiver(2), None, Window(0, hi))
        module = CatModule(big, dict(small.dims), dict(small.act))
        sources = [u for u in big.objects if u.level <= 1]
        for p in (0, 1, 2):
            vals = _ext_or_error(lambda: ext_from_injective_multi(big, sources, module, p))
            if isinstance(vals, dict) and "error" not in vals:
                vals = {u.key(): d for u, d in sorted(vals.items())}
            inj[f"0-{hi} p={p}"] = vals
    out["ext_from_injective_multi"] = inj
    return out


def test_library_results():
    assert json.loads(json.dumps(library_results(), sort_keys=True)) == _expected("library_expected.json")
