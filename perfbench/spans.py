"""Per-layer spans, recorded by wrapping the program's functions from outside.

Each wrapped function records a span: layer name, start, end, parent span
and the id of the benchmark operation it ran under.  A wrapper is
installed on the defining module and under every other name that refers
to the same function object in the program's modules, so a module that
imported a function by name (``from .exact_linalg import rref``) calls
the wrapper too.  Self time is span time minus the time of child spans;
calls count entries into a layer from another layer, so a layer that
calls itself is counted once per entry.  Aggregates are kept as spans
end; the span records themselves are held in memory (up to SPAN_CAP) and
written out once, when the run ends.
"""
from __future__ import annotations

import hashlib
import json
import sys
import time

SPAN_CAP = 100_000
PACKAGE = "stratakit"

# (layer, module, attribute); a dotted attribute names a method.
TARGETS = [
    ("exact_linalg.rref", "exact_linalg", "rref"),
    ("exact_linalg.solve", "exact_linalg", "solve_cols"),
    ("exact_linalg.solve", "exact_linalg", "coords_in_col_span"),
    ("quiver_core.key", "quiver_core", "Quiver.key"),
    ("mesh_hom.sweep", "mesh_hom", "sweep"),
    ("mesh_hom.disk.load", "mesh_hom", "_disk_load"),
    ("mesh_hom.disk.store", "mesh_hom", "_disk_store"),
    ("mesh_hom.oracle", "mesh_hom", "sweep_matches_oracle"),
    ("mesh_hom.oracle", "mesh_hom", "hom_dim_oracle"),
    ("mesh_hom.oracle", "mesh_hom", "enumerate_paths"),
    ("mesh_hom.reduce_path", "mesh_hom", "HomFunctor.reduce_path"),
    ("catmod.cover", "catmod", "minimal_cover"),
    ("catmod.cover", "catmod", "ProjectiveCover.proj_module"),
    ("catmod.cover", "catmod", "ProjectiveCover.map_at"),
    ("catmod.kernel", "catmod", "kernel_submodule"),
    ("catmod.ext", "catmod", "syzygy_modules"),
    ("catmod.ext", "catmod", "ext_simple_multiplicity"),
    ("catmod.ext", "catmod", "ext_dim"),
    ("catmod.ext", "catmod", "ext_from_injective"),
    ("catmod.ext", "catmod", "ext_from_injective_multi"),
    ("kan_strata.kan_right", "kan_strata", "kan_right"),
    ("kan_strata.kan_intermediate", "kan_strata", "kan_intermediate"),
    ("kan_strata.phi", "kan_strata", "phi"),
    ("kan_strata.restrict", "kan_strata", "restrict"),
    ("kan_strata.fiber", "kan_strata", "fiber"),
    ("dq_engine.cartan", "dq_engine", "cartan_apply"),
    ("dq_engine.cartan", "dq_engine", "cartan_solve"),
    ("dq_engine.shift", "dq_engine", "nu_vertex"),
    ("dq_engine.shift", "dq_engine", "nu_inv_vertex"),
    ("dq_engine.shift", "dq_engine", "sigma_shift_vertex"),
    ("dq_engine.shift", "dq_engine", "sigma_shift_inv_vertex"),
    ("dq_engine.shift", "dq_engine", "iterate_shift"),
    ("sing_builder.report", "sing_builder", "build_sing_quiver"),
    ("sing_builder.ext_oracle", "sing_builder", "ext_oracle"),
    ("cli.main", "cli", "main"),
]

# Every per-layer metric the traced run reports, 0 where a layer is idle.
METRICS = [
    ("exact_linalg.rref.calls", "count"), ("exact_linalg.rref.self_s", "s"),
    ("exact_linalg.rref.cells", "count"), ("exact_linalg.rref.max_cells", "count"),
    ("exact_linalg.rref_gf.calls", "count"), ("exact_linalg.rref_gf.self_s", "s"),
    ("exact_linalg.solve.calls", "count"), ("exact_linalg.solve.self_s", "s"),
    ("mesh_hom.sweep.calls", "count"), ("mesh_hom.sweep.computed", "count"),
    ("mesh_hom.sweep.hit_ratio", "ratio"), ("mesh_hom.sweep.self_s", "s"),
    ("quiver_core.key.calls", "count"), ("quiver_core.key.self_s", "s"),
    ("mesh_hom.disk.loads", "count"), ("mesh_hom.disk.load_s", "s"), ("mesh_hom.disk.store_s", "s"),
    ("mesh_hom.oracle.self_s", "s"), ("mesh_hom.oracle.paths", "count"),
    ("mesh_hom.reduce_path.calls", "count"),
    ("catmod.cover.self_s", "s"), ("catmod.kernel.calls", "count"), ("catmod.kernel.self_s", "s"),
    ("catmod.ext.self_s", "s"),
    ("kan_strata.kan_right.calls", "count"), ("kan_strata.kan_right.self_s", "s"),
    ("kan_strata.kan_intermediate.calls", "count"), ("kan_strata.kan_intermediate.self_s", "s"),
    ("kan_strata.phi.calls", "count"), ("kan_strata.phi.distinct_ratio", "ratio"),
    ("kan_strata.restrict.self_s", "s"), ("kan_strata.fiber.self_s", "s"),
    ("dq_engine.cartan.self_s", "s"), ("dq_engine.shift.self_s", "s"),
    ("sing_builder.report.self_s", "s"),
    ("sing_builder.ext_oracle.calls", "count"), ("sing_builder.ext_oracle.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Layer:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Installs span-recording wrappers and aggregates per-layer figures."""

    def __init__(self):
        self.layers = {}
        self.stack = []            # [layer name, span index, child time]
        self.spans = []
        self.dropped = 0
        self.op_id = -1
        self.rref_cells = 0
        self.rref_max_cells = 0
        self.sweep_calls = 0
        self.sweep_misses = 0
        self.disk_loads = 0
        self.paths = 0
        self.phi_calls = 0
        self.phi_digests = set()
        self._undo = []

    # -- installation -------------------------------------------------------
    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for layer, modname, attr in TARGETS:
            mod = mods.get(f"{PACKAGE}.{modname}")
            if mod is None:
                continue
            owner, _, meth = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            if holder is None or not hasattr(holder, meth):
                continue
            orig = getattr(holder, meth)
            wrapped = self._wrap(layer, orig, mod)
            self._swap(holder, meth, orig, wrapped)
            if not owner:
                for other in mods.values():
                    for name, value in list(vars(other).items()):
                        if value is orig:
                            self._swap(other, name, orig, wrapped)

    def _swap(self, holder, name, orig, wrapped):
        setattr(holder, name, wrapped)
        self._undo.append((holder, name, orig))

    def uninstall(self):
        for holder, name, orig in reversed(self._undo):
            setattr(holder, name, orig)
        self._undo.clear()

    # -- spans --------------------------------------------------------------
    def _wrap(self, layer, fn, mod):
        tracer = self
        name = fn.__name__
        if name == "rref":
            def wrapper(rows, ncols, field, *a, **kw):
                gf = getattr(field, "key", "QQ") != "QQ"
                if not gf:
                    cells = len(rows) * ncols
                    tracer.rref_cells += cells
                    tracer.rref_max_cells = max(tracer.rref_max_cells, cells)
                return tracer._span("exact_linalg.rref_gf" if gf else layer, fn, (rows, ncols, field) + a, kw)
        elif name == "sweep":
            cache = getattr(mod, "_CACHE", None)

            def wrapper(*a, **kw):
                before = len(cache) if cache is not None else 0
                out = tracer._span(layer, fn, a, kw)
                tracer.sweep_calls += 1
                if cache is not None and len(cache) > before:
                    tracer.sweep_misses += 1
                return out
        elif name == "_disk_load":
            def wrapper(*a, **kw):
                out = tracer._span(layer, fn, a, kw)
                if out is not None:
                    tracer.disk_loads += 1
                return out
        elif name == "enumerate_paths":
            def wrapper(*a, **kw):
                out = tracer._span(layer, fn, a, kw)
                tracer.paths += len(out)
                return out
        elif name == "phi":
            def wrapper(M, *a, **kw):
                tracer.phi_calls += 1
                tracer.phi_digests.add(module_digest(M))
                return tracer._span(layer, fn, (M,) + a, kw)
        else:
            def wrapper(*a, **kw):
                return tracer._span(layer, fn, a, kw)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    def _span(self, layer, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        frame = [layer, index, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            agg = self.layers.get(layer)
            if agg is None:
                agg = self.layers[layer] = Layer()
            agg.self_s += dur - frame[2]
            if parent is None or parent[0] != layer:
                agg.calls += 1
                agg.total_s += dur
            if parent is not None:
                parent[2] += dur
            if index >= 0:
                self.spans[index] = (layer, start, end, parent[1] if parent else -1, self.op_id)

    # -- results ------------------------------------------------------------
    def metrics(self, overhead_s):
        def lay(name):
            return self.layers.get(name) or Layer()

        out = {}
        for name, _unit in METRICS:
            layer, _, field = name.rpartition(".")
            out[name] = getattr(lay(layer), field) if field in ("calls", "self_s") else 0
        out["exact_linalg.rref.cells"] = self.rref_cells
        out["exact_linalg.rref.max_cells"] = self.rref_max_cells
        out["mesh_hom.sweep.calls"] = self.sweep_calls
        out["mesh_hom.sweep.computed"] = self.sweep_misses - self.disk_loads
        out["mesh_hom.sweep.hit_ratio"] = ((self.sweep_calls - self.sweep_misses) / self.sweep_calls
                                           if self.sweep_calls else 0.0)
        out["mesh_hom.disk.loads"] = self.disk_loads
        out["mesh_hom.disk.load_s"] = lay("mesh_hom.disk.load").total_s
        out["mesh_hom.disk.store_s"] = lay("mesh_hom.disk.store").total_s
        out["mesh_hom.oracle.paths"] = self.paths
        out["mesh_hom.reduce_path.calls"] = lay("mesh_hom.reduce_path").calls
        out["kan_strata.phi.calls"] = self.phi_calls
        out["kan_strata.phi.distinct_ratio"] = (len(self.phi_digests) / self.phi_calls
                                                if self.phi_calls else 0.0)
        out["trace.overhead_s"] = overhead_s
        units = dict(METRICS)
        return {name: {"value": out[name], "unit": units[name]} for name, _ in METRICS}

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans), dropped=self.dropped,
                                     fields=["layer", "start", "end", "parent", "op"])) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def module_digest(M):
    """Digest of a module point's data: its dimensions and every action matrix."""
    mod = getattr(M, "module", None)
    if mod is None:
        return repr(M)
    dims = sorted((repr(u), d) for u, d in mod.dims.items() if d)
    act = sorted((repr(k), repr(v)) for k, v in mod.act.items())
    return hashlib.sha1(repr((dims, act)).encode()).hexdigest()
