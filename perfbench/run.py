"""Benchmark of gammanoise: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload series_1d_q2 --seed 1 --seconds 27 --trace 0

Run from the root of a checkout; gammanoise is imported from its ``src``
with no install step.  The workload repeats whole rounds of the same
operations until ``--seconds`` have passed, checks every outcome, and prints
as its last stdout line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
split (see README.md).  Files go under ``perfbench/out/`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# A second OpenBLAS thread busy-waits on the other core: CPU time came out at
# twice the wall time and rounds drifted with both cores.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
# a process imports a module once, so the other set-up samples are child processes
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("series_1d_q2", "series_2d_q4", "heat", "cli_defaults")


def set_up(workload_name: str, seed: int, workdir: str):
    """Import gammanoise and make the workload's inputs; returns (gn, workload, inputs, s)."""
    t0 = time.perf_counter()
    import workloads
    gn = workloads.load_gammanoise(REPO_ROOT)
    workload = workloads.WORKLOADS[workload_name]
    inputs = workload.make_inputs(seed, workdir)
    return gn, workload, inputs, time.perf_counter() - t0


def setup_samples(args, first: float) -> list:
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return samples


class Tally:
    """Operation counts and check verdicts over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = []

    def add(self, workload, inputs, outcomes) -> None:
        for out in outcomes:
            self.attempted += 1
            if out.error is not None:
                self.failed += 1
                self.errors.append(f"{out.op}: {out.error}")
                continue
            problem = workload.check(inputs, out)
            if problem is not None:
                self.failed += 1
                self.wrong.append(f"{out.op}: {problem}")


def timed_round(workload, gn, inputs):
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    outcomes = workload.run(gn, inputs)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return outcomes, wall, cpu


def measure(workload, gn, inputs, seconds: float, tally: Tally) -> dict:
    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    while True:
        outcomes, wall, cpu = timed_round(workload, gn, inputs)
        walls.append(wall)
        cpus.append(cpu)
        tally.add(workload, inputs, outcomes)
        if time.perf_counter() >= deadline:
            break
    return {"rounds": walls, "wall_s": upper_decile(walls), "cpu_s": upper_decile(cpus)}


def upper_decile(values: list) -> float:
    """90th percentile of per-round figures.

    The host's speed drifts in phases of seconds to minutes, and boosted
    phases make the fastest rounds of a run depend on when it ran.  The top
    decile tracks the unboosted speed, which repeats from run to run, and
    leaves out the one or two slowest rounds.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure_traced(workload, gn, inputs, seconds: float, tally: Tally, trace_path: str) -> dict:
    """Alternate untraced and traced rounds; per-layer figures are per traced round."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, remainders = [], [], []
    deadline = time.perf_counter() + seconds
    # the first round pays one-off costs (allocator, FFT plans) in neither column
    tally.add(workload, inputs, timed_round(workload, gn, inputs)[0])
    while True:
        outcomes, wall, _ = timed_round(workload, gn, inputs)
        plain.append(wall)
        tally.add(workload, inputs, outcomes)
        with tracer:
            outcomes, wall, _ = timed_round(workload, gn, inputs)
        traced.append(wall)
        remainders.append(wall - tracer.close_round())
        tally.add(workload, inputs, outcomes)
        if time.perf_counter() >= deadline:
            break

    rounds = len(traced)
    layers = {name: {"calls": st.calls / rounds, "self_s": st.self_s / rounds,
                     "wall_s": st.wall_s / rounds,
                     **{k: (v / rounds if k in st.summed else v) for k, v in st.sizes.items()}}
              for name, st in tracer.stats.items()}
    wall = statistics.fmean(traced)
    remainder = statistics.fmean(remainders)
    accounted = sum(layer["self_s"] for layer in layers.values()) + remainder
    if abs(accounted - wall) > 1e-6 * wall:
        raise RuntimeError(f"layer self times add up to {accounted}, traced wall is {wall}")
    # adjacent rounds share the host's speed phase, so pair them for the overhead
    summary = {"rounds": rounds, "wall_s": wall, "untraced_wall_s": statistics.fmean(plain),
               "remainder_s": remainder,
               "overhead_s": statistics.median(t - p for p, t in zip(plain, traced))}
    tracer.write(trace_path, {"workload": workload.name, "summary": summary,
                              "layers": layers, "spans_of": "last traced round"})
    return {"summary": summary, "layers": layers}


def per_layer_metrics(spec: list, traced: dict) -> dict:
    """Read every per-layer metric named in BENCHMARK.json out of the trace."""
    summary, layers = traced["summary"], traced["layers"]
    out = {}
    for m in spec:
        name = m["name"]
        if name.startswith("trace."):
            value = summary[name[len("trace."):]]
        elif name.startswith("cli.") and name.endswith(".wall_s"):
            value = layers.get(name[:-len(".wall_s")], {}).get("wall_s", 0.0)
        elif name == "cli.run.self_s":
            value = sum(v["self_s"] for k, v in layers.items()
                        if k.startswith("cli.") and k != "cli.main")
        else:
            layer, kind = name.rsplit(".", 1)
            value = layers.get(layer, {}).get(kind, 0)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def environment() -> str:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={blas_threads()}")


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or 'unknown'."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    try:
        gn, workload, inputs, setup = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup))
            return 0
        print(environment())
        tally = Tally()
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            traced = measure_traced(workload, gn, inputs, args.seconds, tally, trace_path)
            with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
                spec = json.load(fh)["per_layer"]
            metrics = per_layer_metrics(spec, traced)
            print(f"# {traced['summary']['rounds']} traced rounds, trace in {trace_path}")
        else:
            timing = measure(workload, gn, inputs, args.seconds, tally)
            metrics = {
                "wall_s": {"value": timing["wall_s"], "unit": "s"},
                "cpu_s": {"value": timing["cpu_s"], "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
                "setup_s": {"value": statistics.median(setup_samples(args, setup)), "unit": "s"},
            }
            print("# round wall times: " + " ".join(f"{w:.3f}" for w in timing["rounds"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.errors + tally.wrong:
        print(f"# FAILED {line}")
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
