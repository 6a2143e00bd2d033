"""Benchmark of stratakit: one workload per process, a cold and a warm pass per round.

Usage (from the repository root):

    python3 perfbench/run.py --workload strata --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run imports the package from ``src/`` beside this directory and builds
its inputs from the seed (set-up, repeated SETUP_REPEATS times and timed),
then runs rounds until ``--seconds`` have passed.  A round is a cold pass
(empty in-memory Hom cache, empty disk cache directory) followed by a warm
pass (in-memory cache cleared, disk cache kept from the cold pass).  The
load is a closed loop with one caller: each operation starts when the
previous one returns.  Times are calibrated (see calib.py) and each
operation's best round counts.  Correctness checks run outside the timed
passes.  The last line of standard output is a JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics from wrapped program functions with
``--trace 1``).  ``--workload all`` runs every workload in its own fresh
process, one after another.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

from calib import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("hom_oracle", "strata", "resolutions", "cli_session")
PROGRAM_MODULES = ("errors", "quiver_core", "exact_linalg", "mesh_hom", "dq_engine", "catmod",
                   "kan_strata", "sing_builder", "cli")
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (no program to load)."""


def load_program():
    """Import the package from src/ afresh, dropping any earlier import of it."""
    if not os.path.isfile(os.path.join(SRC, "stratakit", "__init__.py")):
        raise BenchError(f"no stratakit package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "stratakit" or n.startswith("stratakit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("stratakit")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise BenchError(f"stratakit imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"stratakit.{m}") for m in PROGRAM_MODULES})


class Record:
    __slots__ = ("label", "start", "end", "seconds", "output", "error")

    def __init__(self, label, start, end, seconds, output, error):
        self.label = label
        self.start = start
        self.end = end
        self.seconds = seconds     # end - start without the clock's sampling
        self.output = output
        self.error = error

    def calibrated(self, clock):
        return self.seconds * clock.scale(self.start, self.end)


class Pass:
    """One pass over a workload's operations; each operation is timed on its own."""

    def __init__(self, clock, tracer=None):
        self.records = []
        self.clock = clock
        self.tracer = tracer

    def op(self, label, fn, *args):
        if self.tracer is not None:
            self.tracer.op_id = len(self.records)
        error = None
        paused = self.clock.paused
        start = time.perf_counter()
        try:
            output = fn(*args)
        except Exception as exc:  # an operation's failure is counted, never fatal to the run
            output = None
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        self.records.append(Record(label, start, end, end - start - (self.clock.paused - paused), output, error))
        return output


def dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def run_round(wl, sk, inputs, workdir, index, clock, tracer=None):
    """A cold pass and a warm pass sharing one fresh disk cache directory."""
    cache = os.path.join(workdir, f"cache-{index}")
    os.makedirs(cache)
    previous_env = os.environ.get("STRATAKIT_CACHE_DIR")
    os.environ["STRATAKIT_CACHE_DIR"] = cache
    result = {}
    try:
        for kind in ("cold", "warm"):
            sk.mesh_hom.clear_cache()
            sk.mesh_hom.enable_disk_cache(cache)
            gc.collect()
            if tracer is not None:
                tracer.install()
            p = Pass(clock, tracer)
            start = time.perf_counter()
            try:
                with clock.ticking():
                    wl.run_pass(sk, inputs, p)
            finally:
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            result[kind] = (p.records, wall)
            if kind == "cold":
                result["disk_bytes"] = dir_bytes(cache)
    finally:
        sk.mesh_hom.clear_cache()
        sk.mesh_hom.enable_disk_cache(None)
        if previous_env is None:
            os.environ.pop("STRATAKIT_CACHE_DIR", None)
        else:
            os.environ["STRATAKIT_CACHE_DIR"] = previous_env
        shutil.rmtree(cache, ignore_errors=True)
    return result


def op_times(rounds, kind, clock, stat):
    """stat (min or median) of each operation's calibrated times over the rounds of a run.

    Every round repeats the same operations.  A pass's time is the sum of
    its operations' fastest repetitions, the ones least touched by other
    tenants of the machine; latency quantiles are taken over each
    operation's median, which is steadier for sub-millisecond operations.
    """
    return [stat(ts) for ts in zip(*[[r.calibrated(clock) for r in rd[kind][0]] for rd in rounds])]


def run_workload(name, seed, seconds, trace):
    """One workload in this process; returns the result object."""
    wl = importlib.import_module(f"wl_{name}")
    workdir = os.path.join(TMP, f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        clock = Clock()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            with clock.ticking():
                paused = clock.paused
                start = time.perf_counter()
                sk = load_program()
                inputs = wl.setup(sk, seed, workdir)
                end = time.perf_counter()
            setup_times.append((end - start - (clock.paused - paused)) * clock.scale(start, end))

        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()
        rounds, traced = [], []
        begin = time.perf_counter()
        while True:
            rounds.append(run_round(wl, sk, inputs, workdir, len(rounds) + len(traced), clock))
            if tracer is not None and not traced:
                traced.append(run_round(wl, sk, inputs, workdir, len(rounds) + len(traced), clock, tracer))
            if time.perf_counter() - begin >= seconds:
                break

        problems, attempted, failed = judge(wl, sk, inputs, rounds + traced)
        if trace:
            def cold_time(rd):
                return sum(r.calibrated(clock) for r in rd["cold"][0])

            overhead = cold_time(traced[0]) - statistics.median(cold_time(rd) for rd in rounds)
            metrics = tracer.metrics(overhead)
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl"),
                         {"workload": name, "seed": seed, "rounds_traced": 1})
        else:
            lat = [t * 1000 for t in op_times(rounds, "cold", clock, statistics.median)]
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "cold_s": (sum(op_times(rounds, "cold", clock, min)), "s"),
                "warm_s": (sum(op_times(rounds, "warm", clock, min)), "s"),
                "op_p50_ms": (statistics.median(lat), "ms"),
                "op_p90_ms": (statistics.quantiles(lat, n=10)[-1], "ms"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "disk_cache_kib": (statistics.median(r["disk_bytes"] for r in rounds) / 1024, "KiB"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        for line in problems:
            print(f"CHECK FAILED [{name}]: {line}", file=sys.stderr)
        result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
            json.dump(dict(result, rounds=len(rounds) + len(traced), ops_per_pass=len(rounds[0]["cold"][0]),
                           setup_times=setup_times), fh, indent=1)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP)
        except OSError:
            pass


def judge(wl, sk, inputs, rounds):
    """Count attempted and failed operations and collect every failed check.

    An operation fails when the workload's classify() says so.  Only the
    workload's EXPECTED_FAILURES may fail; any other failure is a wrong
    output.  Warm outputs must equal cold outputs, every round must repeat
    the first, and the first round's cold outputs go through check().
    """
    problems = []
    attempted = failed = 0
    first = None
    for rd in rounds:
        for kind in ("cold", "warm"):
            records = rd[kind][0]
            summaries = []
            for r in records:
                attempted += 1
                if not wl.classify(r):
                    failed += 1
                    if r.label not in wl.EXPECTED_FAILURES:
                        problems.append(f"{kind} {r.label}: {r.error or 'unexpected result'}")
                summaries.append((r.label, wl.summary(r)))
            if first is None:
                first = summaries
            elif summaries != first:
                bad = next((a[0] for a, b in zip(summaries, first) if a != b), "operation list")
                problems.append(f"{kind} pass differs from the first cold pass at {bad}")
    try:
        problems += wl.check(sk, inputs, rounds[0]["cold"][0])
    except Exception as exc:  # a check that cannot run (say, on a failed operation) is a failed check
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    return problems, attempted, failed


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:40s} {mv['value']:.6g} {mv['unit']}")
            combined["metrics"][f"{name}.{metric}"] = mv
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
