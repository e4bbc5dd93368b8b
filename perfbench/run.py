"""Benchmark runner: one workload, one seed, a closed loop of passes.

    python3 perfbench/run.py --workload coulomb_gauge --seed 1 --seconds 20 --trace 0

One caller solves the workload's task list again and again, each pass
started after the previous one completed, until the next pass would run past
--seconds.  Every unit of every pass is checked against references.json.
Set-up and plain passes run under a host-speed sampler (calib.py), and their
times are reported at its reference speed.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 half the time is measured plain and half with per-layer spans, and
the last line carries the per-layer metrics.  A record with provenance,
per-pass times and counts goes to perfbench/out/.
"""

import time

import calib

SAMPLER = calib.Sampler().__enter__()   # samples host speed from here to the last plain pass
T_START = time.perf_counter()      # set-up time counts from here: imports included

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = 1        # one caller, one thread: steadier on a shared machine
SETUP_SAMPLES = 5       # this process plus four fresh interpreters

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)
os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
sys.path[:0] = [str(SRC), str(HERE)]

CHILD_SETUP = """
import time, calib
with calib.Sampler() as sampler:
    t0 = time.perf_counter()
    import json, sys, workloads
    refs = json.load(open(sys.argv[1]))[sys.argv[2]]
    workloads.make(sys.argv[2], sys.argv[3], sys.argv[5]).setup(refs, int(sys.argv[4]))
    t1 = time.perf_counter()
print(*sampler.scaled(t0, t1))
"""

# Layers whose call count / self time are per-layer metrics (BENCHMARK.json).
PER_LAYER_CALLS = [
    "coulomb.neumann_poisson", "coulomb.diff4", "torus_he.donaldson_functional",
    "torus_he.metric_log", "torus_he.i_lambda_F_metric", "torus_he.MetricField.sqrt_pair",
    "torus_he.WeylTransform.apply_symbol", "kernel.eigh", "kernel.einsum", "kernel.fft",
    "farey.is_farey_triangle", "stability.lattice_interior_count", "cli.run",
    "reporting.write_report",
]
PER_LAYER_SELF = [n for n in PER_LAYER_CALLS if n != "farey.is_farey_triangle"] + [
    "coulomb.div_residuals", "coulomb.gauge_act", "coulomb.grid_norms",
    "torus_he.build_model_bundle", "torus_he.he_residual", "torus_he.theta_section",
    "torus_he.second_fundamental_form", "contfrac.gauss_digit_density",
    "contfrac.lagrange_estimate", "farey.enumerate_triangles", "stability.select_subsequence",
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["coulomb_gauge", "torus_flow", "torus_geometry", "exact_arith"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke shrinks every task list (used by perfbench/smoke.py)")
    ap.add_argument("--references", default=str(HERE / "references.json"),
                    help="reference file (references.json holds the full size)")
    return ap.parse_args(argv)


def provenance():
    """Where and on what the numbers were measured."""
    import numpy as np
    import scipy
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16], "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": blas_threads()}


def blas_threads():
    """Threads the loaded OpenBLAS reports, or the pinned value if it cannot be asked."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), sym, None)
            if fn is not None:
                return int(fn())
    return BLAS_THREADS


def child_setup_times(args, scratch, n):
    """Set-up (imports + input generation) timed in n fresh interpreters, as
    (program time, time at the reference speed) pairs."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", CHILD_SETUP, args.references, args.workload,
             args.size, str(args.seed), scratch],
            capture_output=True, text=True, timeout=150, cwd=str(ROOT), check=True)
        times.append(tuple(map(float, proc.stdout.strip().splitlines()[-1].split())))
    return times


def measure(wl, units, seconds, log, sampler=None, tracer=None):
    """Closed loop of passes for `seconds`; every pass is checked after it is timed.

    Each log entry has the pass's program time `time_s` and, under a sampler,
    its time at the reference speed `solve_s`."""
    spent = []
    while not spent or sum(spent) + statistics.mean(spent) <= seconds:
        t0 = time.perf_counter()
        results = wl.run_pass(units)
        t1 = time.perf_counter()
        spent.append(t1 - t0)
        verdicts = wl.check(units, results)
        entry = {"time_s": t1 - t0, "units": len(verdicts),
                 "failed": [why for ok, why in verdicts if not ok],
                 "counts": wl.counts(results)}
        if sampler is not None:
            entry["time_s"], entry["solve_s"] = sampler.scaled(t0, t1)
        if tracer is not None:
            spans, counters = tracer.take()
            entry["spans"], entry["counters"] = spans, dict(counters)
        log.append(entry)


def layer_metrics(passes):
    """Per-layer metrics of each traced pass, then the median over passes."""
    from tracer import layer_totals
    rows = []
    for p in passes:
        tot = layer_totals(p["spans"])
        get = lambda name, key: tot.get(name, {}).get(key, 0)
        row = {"%s.calls" % n: get(n, "calls") for n in PER_LAYER_CALLS}
        row.update({"%s.self_s" % n: get(n, "self_s") for n in PER_LAYER_SELF})
        steps = p["counters"].get("contfrac.euclid_steps", 0)
        density_s = sum(t1 - t0 for name, t0, t1, _ in p["spans"]
                        if name == "contfrac.gauss_digit_density")
        evaluations = get("torus_he.donaldson_functional", "calls")
        row.update({
            "coulomb.sweeps": p["counts"].get("coulomb.sweeps", 0),
            "torus_he.flow.iterations": p["counts"].get("torus_he.flow.iterations", 0),
            "torus_he.flow.accepted_frac":
                p["counts"].get("torus_he.flow.accepted", 0) / evaluations
                if evaluations else 0.0,
            "contfrac.euclid_steps": steps,
            "contfrac.euclid_steps_per_s": steps / density_s if density_s else 0.0,
        })
        rows.append(row)
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fareyflow" / "__init__.py").is_file():
        print("perfbench: no fareyflow sources under %s" % SRC, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    import workloads
    from tracer import Tracer
    import fareyflow
    if Path(fareyflow.__file__).resolve().parent != (SRC / "fareyflow").resolve():
        print("perfbench: fareyflow imported from %s, not from this checkout"
              % fareyflow.__file__, file=sys.stderr)
        return 2
    with open(args.references, encoding="utf-8") as fh:
        refs = json.load(fh)[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl = workloads.make(args.workload, args.size, scratch)
        units = wl.setup(refs, args.seed)
        setup_times = [SAMPLER.scaled(T_START, time.perf_counter())]
        SAMPLER.__exit__(None, None, None)
        setup_times += child_setup_times(args, scratch, SETUP_SAMPLES - 1)

        log = {"plain": [], "traced": []}
        budget = args.seconds / 2 if args.trace else args.seconds
        with SAMPLER:
            measure(wl, units, budget, log["plain"], sampler=SAMPLER)
        if args.trace:
            with Tracer() as tracer:
                measure(wl, units, budget, log["traced"], tracer=tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = log["plain"] + log["traced"]
    attempted = sum(p["units"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    wall_s = statistics.median(p["time_s"] for p in log["plain"])
    solve_s = statistics.median(p["solve_s"] for p in log["plain"])
    setup_s = statistics.median(scaled for _, scaled in setup_times)
    if args.trace:
        metrics = {"trace.overhead_s":
                   statistics.median(p["time_s"] for p in log["traced"]) - wall_s}
        metrics.update(layer_metrics(log["traced"]))
        units_of = {"calls": "count", "self_s": "s", "sweeps": "count", "iterations": "count",
                    "accepted_frac": "fraction", "euclid_steps": "count",
                    "euclid_steps_per_s": "1/s", "overhead_s": "s"}
        metrics = {k: {"value": v, "unit": units_of[k.rsplit(".", 1)[1]]}
                   for k, v in metrics.items()}
    else:
        metrics = {"solve_s": {"value": solve_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "provenance": provenance(),
              "setup_samples_s": setup_times, "wall_s": wall_s, "solve_s": solve_s,
              "failed_frac": failed / attempted, "metrics": metrics,
              "passes": {k: [{key: v for key, v in p.items() if key != "spans"} for p in ps]
                         for k, ps in log.items()}}
    stem = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                    "-smoke" if args.size == "smoke" else "")
    with open(OUT / (stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(OUT / (stem + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump([p["spans"] for p in log["traced"]], fh)

    counts = log["plain"][0]["counts"]
    print("%s seed=%d: solve_s=%.4f wall_s=%.4f setup_s=%.4f peak_rss_mb=%.1f "
          "failed_frac=%.4g (%d passes%s; rev %s, %s, nproc %d, blas threads %d)"
          % (args.workload, args.seed, solve_s, wall_s, setup_s, peak_rss_mb,
             failed / attempted, len(log["plain"]),
             "".join(", %s=%s" % kv for kv in counts.items()),
             record["provenance"]["git_rev"] or record["provenance"]["src_sha256"],
             record["provenance"]["cpu"], record["provenance"]["nproc"],
             record["provenance"]["blas_threads"]))
    for p in passes:
        for why in p["failed"]:
            print("FAILED: %s" % why)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SAMPLER.__exit__(None, None, None)   # no timer outlives an early exit
    raise SystemExit(code)
