"""A tour of fareyflow's entry points under a line tracer.

    PYTHONPATH=src python tests/entry_tour.py SCRATCH_DIR

Runs the CLI runs of CLI_RUNS and CLI_EXITS, the demos of DEMOS and the
smoke-size benchmark workloads of WORKLOADS in this one process, under one
`sys.settrace` tracer.  Its global function sees every Python call and keeps
the code object of each call into src/fareyflow; for those frames alone it
returns a local tracer, which keeps the number of every line that runs.
Each CLI run must end with its exit code: 0 for CLI_RUNS, the listed one for
CLI_EXITS.  The tour then reads back what the runs wrote: the `--dump-grid`
file must load with a header of N = 32 and rank 2 and an array of shape
(32, 32, 2, 2), and the journal must hold one record per run that exited 0
or 2 (`--help` excepted), in run order; a mismatch stops the tour.  Each
workload is recorded and then run once along the benchmark's timed path on
that fresh record (`setup` with seed WORKLOAD_SEED, `run_pass`, `check`); a
failed check stops the tour.
Prints one JSON object: `called`, the [file relative to src/fareyflow, first
line] of each called code object of the package, `lines`, the executed line
numbers of each package file, and `ran`, the subcommands, demos and workloads
the tour ran.  Journals, dumps, the config file and workload scratch files go
to SCRATCH_DIR; the output of the runs themselves is swallowed.
"""

import contextlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

# imported before the tracer starts, so that their imports stay untraced
import numpy  # noqa: F401
import scipy.fft  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fareyflow"

# Every subcommand at its defaults, then the flag values that take the code the
# defaults leave out.  "{out}" is the scratch directory.  These runs exit 0.
CLI_RUNS = [
    ["lagrange"], ["convergents"], ["farey"], ["stability"], ["sequence"],
    ["torus-he"], ["chern-weil"], ["donaldson"], ["coulomb"], ["density"],
    # theta values beyond the defaults' periodic: and irrational surd:
    ["convergents", "--theta", "rational:3/2"],
    ["convergents", "--theta", "decimal:3.14159@12"],
    ["convergents", "--theta", "surd:1,1,4,2"],              # rational, D a square
    ["convergents", "--theta", "decimal:3"],                # an integer decimal
    ["convergents", "--theta", "decimal:0.12"],             # an endpoint's digits end
    ["stability", "--theta", "decimal:0.6180339887@30"],    # an interval theta
    ["sequence", "--theta", "decimal:0.6180339887@30"],     # interval products
    ["lagrange", "--theta", "periodic:0,2|1,3"],            # a preperiod
    ["--config", "{out}/run.cfg", "farey"],                 # CONFIG's triangle
    ["--config", "{out}/run.cfg", "convergents"],           # CONFIG's number
    ["chern-weil", "--N", "32", "--dump-grid", "{out}/grid.csv"],
    ["torus-he", "--rank", "3"],
    ["donaldson", "--rank", "1"],
    ["donaldson", "--rank", "3", "--N", "32", "--tol", "1e-3"],   # at N = 64: 40 s
    ["coulomb", "--rank", "1", "--N", "32", "--samples", "1", "--tol", "1e-5",
     "--dump-trajectory", "{out}/trajectory.csv"],
    ["density", "--samples", "0"],                          # the no-data record
    ["density", "--samples", "4", "--depth", "600"],        # expansions that end
    ["--help"],
]
# Runs that end otherwise, with their exit codes: 2 for a failing verdict or a
# numerical error, 1 for a usage error.
CLI_EXITS = [
    (["lagrange", "--theta", "decimal:1.6180339887@30", "--L", "2.236"], 2),  # truncated
    (["sequence", "--theta", "decimal:0.6180339887@12", "--L", "3"], 2),  # 12 digits
    (["stability", "--theta", "rational:3/2"], 2),          # a rational theta
    (["farey", "--triangle", "1/1,1/2,0/1"], 2),            # out of order
    (["farey", "--triangle", "0/1,1/3,1/1"], 2),            # not a mediant
    (["farey", "--triangle", "1/3,3/4,2/1"], 2),            # not unimodular
    (["coulomb", "--N", "16", "--samples", "1", "--curvature", "0.5"], 2),  # no fix
    (["coulomb", "--N", "16", "--samples", "1", "--curvature", "0"], 2),    # no field
    (["torus-he", "--degree", "2"], 2),                     # gcd(2, 2) = 2
    (["convergents", "--depth", "-1"], 2),                  # a negative index
    (["density", "--samples", "-5"], 2),                    # a negative count
    (["lagrange", "--tail-depth", "-3"], 2),                # a negative tail depth
    (["sequence", "--L", "1/0"], 2),                        # a zero denominator
    ([], 1),
    (["nosuch"], 1),
    (["farey", "--triangle", "1/2,1/1"], 1),
    (["torus-he", "--tol", "inf"], 1),                      # a bound that decides nothing
    (["--config", "{out}/run.cfg", "density"], 1),          # CONFIG's 1e3 samples
]
CONFIG = ("[farey]\ntriangle = 1/1,-2/-1,1/0\n"    # uncanonical vertices
          "[convergents]\ndepth = 6\n"             # typed as --depth 6 is
          "[density]\nsamples = 1e3\n")            # not an int: a usage error
DEMOS = ["coulomb_gauge.py", "farey_charges.py", "lagrange_parity.py",
         "torus_bundle_geometry.py"]
WORKLOADS = ["coulomb_gauge", "torus_flow", "torus_geometry", "exact_arith"]
WORKLOAD_SEED = 1


def tour(out: str) -> dict:
    """Run every entry of the tour; an unexpected exit code, grid dump or
    journal stops it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from fareyflow import cli
    from fareyflow.reporting import read_journal
    from fareyflow.torus_he.fields import load_grid_csv
    import workloads

    Path(out, "run.cfg").write_text(CONFIG)
    ran = {"cli": [], "demos": [], "workloads": []}
    journaled = []      # the subcommand of each run that must leave a record
    for argv, expected in [(argv, 0) for argv in CLI_RUNS] + CLI_EXITS:
        argv = [a.format(out=out) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--out", os.path.join(out, "journal.jsonl")] + argv)
        if code != expected:
            raise SystemExit("tour run %r exited %d, not %d" % (argv, code, expected))
        subcommands = [a for a in argv if a in cli.DEFAULTS]
        ran["cli"] += subcommands
        if code in (0, 2) and "--help" not in argv:
            journaled += subcommands
    header, data = load_grid_csv(os.path.join(out, "grid.csv"))
    if (header["N"], header["rank"], data.shape) != (32, 2, (32, 32, 2, 2)):
        raise SystemExit("grid dump reads back as N = %d, rank %d, shape %r"
                         % (header["N"], header["rank"], data.shape))
    ops = [record["op"] for record in read_journal(os.path.join(out, "journal.jsonl"))]
    if ops != journaled:
        raise SystemExit("journal holds records %r, not one per run %r" % (ops, journaled))
    for name in DEMOS:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
        ran["demos"].append(name)
    for name in WORKLOADS:
        scratch = os.path.join(out, name)
        os.mkdir(scratch)
        work = workloads.make(name, "smoke", scratch)
        units = work.setup(work.record(), WORKLOAD_SEED)
        failed = [why for ok, why in work.check(units, work.run_pass(units)) if not ok]
        if failed:
            raise SystemExit("workload %s failed its checks: %s" % (name, failed))
        ran["workloads"].append(name)
    return ran


def main(out: str) -> None:
    called = set()      # code objects of the package that were called
    lines = {}          # file relative to the package: executed line numbers
    local = {}          # co_filename: its local tracer, None outside the package

    def local_tracer(filename):
        path = Path(filename).resolve()
        if PACKAGE not in path.parents:
            return None
        seen = lines.setdefault(path.relative_to(PACKAGE).as_posix(), set())

        def note_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return note_line
        return note_line

    def note_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in local:
            local[code.co_filename] = local_tracer(code.co_filename)
        tracer = local[code.co_filename]
        if tracer is not None:
            called.add(code)
        return tracer

    sys.settrace(note_call)     # before the first import of the package
    try:
        ran = tour(out)
    finally:
        sys.settrace(None)
    keys = sorted([Path(code.co_filename).resolve().relative_to(PACKAGE).as_posix(),
                   code.co_firstlineno] for code in called)
    print(json.dumps({"called": keys,
                      "lines": {rel: sorted(seen) for rel, seen in lines.items()},
                      "ran": ran}))


if __name__ == "__main__":
    main(sys.argv[1])
