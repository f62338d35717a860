#!/usr/bin/env python3
"""Benchmark for cogtrans: training, greedy decoding and OOV correction.

Run from the repository root:

    python3 bench/run.py --workload train --seed 1 --seconds 10 --trace 0

Workloads are ``train``, ``decode`` and ``oov-correct`` (see
``bench/README.md``).  The run builds its inputs from ``--seed``, runs whole
rounds of the workload's operations until ``--seconds`` have passed, checks
every output, and prints one JSON object as its last line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Times in the metrics are nominal
seconds (see ``speed.py``); ``result.json`` also keeps the wall seconds.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the run
then repeats two rounds under the span tracer and reports the per-layer
ones.  Files go to ``bench/out/``.
"""

import os

# one BLAS/OpenMP thread, set before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import inspect
import json
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def environment():
    """Core count, BLAS threads and library versions, recorded with every
    result."""
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas_thread_env": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def check_oracles():
    """Run the hand-worked oracle cases; any failure stops the run."""
    import test_oracles
    for name, fn in inspect.getmembers(test_oracles, inspect.isfunction):
        if name.startswith("test_"):
            fn()


def select(spec, values):
    """The metrics ``spec`` lists, in its order, with its units."""
    out = {}
    for entry in spec:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} != {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def end_to_end(rounds, setup_s, scopes):
    """Medians over rounds.  ``items`` are the workload's unit of work:
    pairs trained per epoch pass, words decoded, or sentences corrected
    (counted once per shortlist size)."""
    def per_round(fn, scope=None):
        return statistics.median(fn(r) for r in rounds
                                 if scope is None or scope in r.items)

    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB"),
        "items_per_s": (per_round(lambda r: sum(r.items.values()) / r.total_seconds),
                        "items/s"),
    }
    for scope in scopes:
        values[f"items_per_s.{scope}"] = (
            per_round(lambda r: r.items[scope] / r.seconds[scope], scope),
            "items/s")
        values[f"quality.{scope}"] = (
            per_round(lambda r: r.quality[scope], scope), "score")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cogtrans", "__init__.py")):
        print("bench: src/cogtrans not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)

    import cogtrans
    import tracer
    import workloads
    from speed import SpeedProbe

    check_oracles()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(BENCH_DIR, "out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with SpeedProbe() as probe:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, probe)
        setup_s = wl.setup()
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(wl.run_round(None))
        traced, tracers = [], []
        if args.trace:
            for _ in range(2):
                tr = tracer.Tracer()
                tr.install(cogtrans)
                try:
                    traced.append(wl.run_round(tr))
                finally:
                    tr.uninstall()
                tracers.append(tr)
    everything = rounds + traced

    problems = list(wl.problems)
    for r in everything:
        problems += r.problems
    if tracers and tracers[0].counts() != tracers[1].counts():
        a, b = tracers[0].counts(), tracers[1].counts()
        problems.append("traced rounds differ in counts: " + str(
            {k: (a.get(k), b.get(k)) for k in set(a) | set(b)
             if a.get(k) != b.get(k)}))

    if args.trace:
        layer = tracer.layer_metrics(tracers)
        untraced = statistics.median(r.total_seconds for r in rounds)
        layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(r.total_seconds for r in traced) / untraced - 1.0)
        metrics = select(spec["per_layer"], {
            k: (v, tracer.layer_unit(k)) for k, v in layer.items()})
        with open(os.path.join(workdir, "trace.jsonl"), "w",
                  encoding="utf-8") as fh:
            for i, tr in enumerate(tracers):
                tr.write(fh, i)
    else:
        metrics = select(spec["end_to_end"],
                         end_to_end(rounds, setup_s, wl.scopes))

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "metrics": metrics,
    }
    env = environment()
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "rounds": len(rounds),
                   "round_nominal_seconds": [r.total_seconds for r in everything],
                   "round_wall_seconds": [sum(r.wall.values()) for r in everything],
                   "wall_items_per_s": [{s: r.items[s] / r.wall[s] for s in r.wall}
                                        for r in everything],
                   "problems": problems,
                   "errors": [e for r in everything for e in r.errors],
                   "result": result}, fh, indent=1)
    for line in problems + [e for r in everything for e in r.errors]:
        print(f"bench: {line}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
