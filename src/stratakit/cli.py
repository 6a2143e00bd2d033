"""Command-line entry point: JSON in, JSON out, deterministic.

Exit codes: 0 success, 1 invalid input (including violated relations),
2 window insufficiency, 3 internal-consistency failure.  Setting
STRATAKIT_CACHE_DIR persists Hom-basis caches between runs as versioned
JSON files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import mesh_hom
from .dq_engine import cartan_solve, hom_dq
from .errors import InvalidInputError, StrataKitError
from .kan_strata import (
    WindowRep,
    closed_orbit,
    degeneration_leq,
    fiber,
    kan_intermediate,
    phi,
    resolution_shape,
    restrict,
    same_stratum,
    validate,
)
from .mesh_hom import MeshContext, hom_basis
from .quiver_core import (
    Configuration,
    Quiver,
    Window,
    check_configuration,
    parse_vertex,
)
from .sing_builder import build_sing_quiver, ext_oracle


def _load_json_arg(value):
    """Accept either inline JSON or a path to a JSON file."""
    if value is None:
        return None
    try:
        return json.loads(value)
    except ValueError:
        pass
    try:
        with open(value) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read JSON argument {value!r}: {exc}") from exc


def _quiver(args) -> Quiver:
    data = _load_json_arg(args.quiver)
    if data is None:
        raise InvalidInputError("--quiver is required")
    return Quiver.from_json(data)


def _window(args) -> Window:
    if args.window is None:
        raise InvalidInputError("--window LO HI is required")
    return Window(args.window[0], args.window[1])


def _config(args) -> Configuration:
    data = _load_json_arg(getattr(args, "config", None))
    return Configuration.from_json(data)


def _rep(args, attr="rep") -> WindowRep:
    value = getattr(args, attr, None)
    if value is None:
        raise InvalidInputError(f"--{attr} is required")
    return WindowRep.from_json(_load_json_arg(value))


def _vertex_map(data):
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise InvalidInputError(f"expected a JSON object of vertex: integer, got {data!r}")
    out = {}
    for k, v in data.items():
        try:
            out[parse_vertex(k)] = int(v)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad integer {v!r} for vertex {k!r}") from exc
    return out


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_hom(args):
    ctx = MeshContext(_quiver(args), args.flavor, _config(args))
    hb = hom_basis(ctx, parse_vertex(getattr(args, "from")), parse_vertex(args.to), _window(args))
    _emit(hb.to_json())


def cmd_hom_dq(args):
    dim = hom_dq(_quiver(args), parse_vertex(getattr(args, "from")), args.p, parse_vertex(args.to), _window(args))
    _emit({"dim": dim})


def cmd_cartan_solve(args):
    m = _vertex_map(_load_json_arg(args.m))
    d = cartan_solve(_quiver(args), m, _window(args))
    _emit({"d": {k.key(): v for k, v in sorted(d.items())}})


def cmd_sing_quiver(args):
    report = build_sing_quiver(_quiver(args), _config(args), _window(args), max_span=args.max_span)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(report.to_dot() + "\n")
    _emit(report.to_json())


def cmd_validate(args):
    rep = _rep(args)
    bad = validate(rep)
    if not bad:
        _emit({"ok": True})
        return 0
    from .exact_linalg import RatMatrix

    _emit({"ok": False,
           "violations": [{"vertex": x.key(), "residual": RatMatrix(m).to_json()} for x, m in bad]})
    return 1


def cmd_klr(args):
    rep = _rep(args)
    ki = kan_intermediate(restrict(rep), rep.window)
    _emit(ki.rep.to_json())


def cmd_phi(args):
    rep = _rep(args)
    res = phi(restrict(rep), rep.window)
    _emit(res.to_json())


def cmd_stratum(args):
    rep = _rep(args)
    M = restrict(rep)
    if args.other is None:
        res = phi(M, rep.window)
        _emit(res.to_json())
        return 0
    other = _rep(args, "other")
    _emit({"same_stratum": same_stratum(M, restrict(other), rep.window)})


def cmd_degen(args):
    rep = _rep(args)
    other = _rep(args, "other")
    M1, M2 = restrict(rep), restrict(other)
    _emit({
        "rep2_in_closure_of_rep1": degeneration_leq(M1, M2, rep.window),
        "rep1_in_closure_of_rep2": degeneration_leq(M2, M1, rep.window),
    })


def cmd_orbit(args):
    rep = _rep(args)
    klr, complement = closed_orbit(rep)
    _emit({"klr": klr.to_json(), "semisimple_complement": {k.key(): v for k, v in sorted(complement.items())}})


def cmd_resolve(args):
    rep = _rep(args)
    shape = resolution_shape(restrict(rep), rep.window)

    def keyed(d):
        return {k.key(): v for k, v in sorted(d.items())}

    _emit({
        "I0": keyed(shape["I0"]),
        "I1": {"frozen": keyed(shape["I1"]["frozen"]), "nonfrozen": keyed(shape["I1"]["nonfrozen"])},
        "P0": keyed(shape["P0"]),
        "P1": {"frozen": keyed(shape["P1"]["frozen"]), "nonfrozen": keyed(shape["P1"]["nonfrozen"])},
    })


def cmd_fiber(args):
    rep = _rep(args)
    v = _vertex_map(_load_json_arg(args.v))
    res = fiber(restrict(rep), v, args.field, rep.window, bound=args.bound)
    _emit(res.to_json())


def cmd_check_config(args):
    report = check_configuration(_quiver(args), _config(args), _window(args))
    _emit(report)


def cmd_ext_oracle(args):
    dim = ext_oracle(_quiver(args), _config(args), _window(args),
                     parse_vertex(getattr(args, "from")), parse_vertex(args.to), args.p)
    _emit({"dim": dim})


def cmd_selftest(args):
    from .acceptance import SUITES, run_suite

    suite = SUITES.get(args.suite)
    if suite is None:
        raise InvalidInputError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    ok = run_suite(suite, seed=args.seed)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="strata-kit",
                                     description="exact invariants of graded affine quiver varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        if flags.get("quiver"):
            p.add_argument("--quiver", required=True, help="quiver JSON (inline or file path)")
        if flags.get("window"):
            p.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"))
        if flags.get("config"):
            p.add_argument("--config", help="configuration JSON (inline or file path); omit for the full one")
        if flags.get("rep"):
            p.add_argument("--rep", required=True, help="window representation JSON (inline or file path)")
        if flags.get("other"):
            p.add_argument("--other", help="second window representation")
        p.set_defaults(fn=fn)
        return p

    p = add("hom", cmd_hom, quiver=True, window=True, config=True)
    p.add_argument("--flavor", default="kZQ", choices=["kZQ", "RC", "SC"])
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)

    p = add("hom-dq", cmd_hom_dq, quiver=True, window=True)
    p.add_argument("--from", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--to", required=True)

    p = add("cartan-solve", cmd_cartan_solve, quiver=True, window=True)
    p.add_argument("--m", required=True, help="integer vector JSON, e.g. '{\"1@0\": 1}'")

    p = add("sing-quiver", cmd_sing_quiver, quiver=True, window=True, config=True)
    p.add_argument("--max-span", type=int, default=None)
    p.add_argument("--dot", help="also write a DOT graph to this path")

    add("validate", cmd_validate, rep=True)
    add("klr", cmd_klr, rep=True)
    add("phi", cmd_phi, rep=True)
    p = add("stratum", cmd_stratum, rep=True, other=True)
    p = add("degen", cmd_degen, rep=True)
    p.add_argument("--other", required=True)
    add("orbit", cmd_orbit, rep=True)
    add("resolve", cmd_resolve, rep=True)

    p = add("fiber", cmd_fiber, rep=True)
    p.add_argument("--v", required=True, help="non-frozen dimension vector JSON")
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--bound", type=int, default=64)

    add("check-config", cmd_check_config, quiver=True, window=True, config=True)

    p = add("ext-oracle", cmd_ext_oracle, quiver=True, window=True, config=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("selftest", cmd_selftest)
    p.add_argument("--suite", default="a2")
    p.add_argument("--seed", type=int, default=20230313)
    return parser


def main(argv=None) -> int:
    cache_dir = os.environ.get("STRATAKIT_CACHE_DIR")
    if cache_dir:
        mesh_hom.enable_disk_cache(cache_dir)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.fn(args)
        return 0 if rc is None else rc
    except StrataKitError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "code": exc.exit_code, "detail": str(exc)}) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
