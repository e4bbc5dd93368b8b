"""A tour of fareyflow's entry points under a call profiler.

    PYTHONPATH=src python tests/entry_tour.py SCRATCH_DIR

Runs the CLI runs of CLI_RUNS, the demos of DEMOS and the smoke-size
benchmark workloads of WORKLOADS in this one process, with `sys.setprofile`
noting the code object of every Python call (calls only, no line events).
Each workload is recorded and then run once along the benchmark's timed
path on that fresh record (`setup` with seed WORKLOAD_SEED, `run_pass`,
`check`); a failed check stops the tour.
Prints one JSON object: `called`, the [file relative to src/fareyflow, first
line] of each called code object of the package, and `ran`, the subcommands,
demos and workloads the tour ran.  Journals, dumps and workload scratch files
go to SCRATCH_DIR; the output of the runs themselves is swallowed.
"""

import contextlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

# imported before the profiler starts, so that their imports stay untraced
import numpy  # noqa: F401
import scipy.fft  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fareyflow"

# Every subcommand at its defaults, then the flag values that take the code the
# defaults leave out.  "{out}" is the scratch directory.
CLI_RUNS = [
    ["lagrange"], ["convergents"], ["farey"], ["stability"], ["sequence"],
    ["torus-he"], ["chern-weil"], ["donaldson"], ["coulomb"], ["density"],
    # theta values beyond the defaults' periodic: and irrational surd:
    ["convergents", "--theta", "rational:3/2"],
    ["convergents", "--theta", "decimal:3.14159@12"],
    ["convergents", "--theta", "surd:3,0,5,2"],              # a rational surd
    ["stability", "--theta", "decimal:0.6180339887@30"],    # an interval theta
    ["lagrange", "--theta", "decimal:1.6180339887@30", "--L", "2"],  # --L on intervals
    ["chern-weil", "--N", "32", "--dump-grid", "{out}/grid.csv"],
    ["torus-he", "--rank", "3"],
    ["donaldson", "--rank", "1"],
    ["donaldson", "--rank", "3", "--N", "32", "--tol", "1e-3"],   # at N = 64: 40 s
    ["coulomb", "--rank", "1", "--N", "32", "--samples", "1", "--tol", "1e-5",
     "--dump-trajectory", "{out}/trajectory.csv"],
]
DEMOS = ["coulomb_gauge.py", "farey_charges.py", "lagrange_parity.py",
         "torus_bundle_geometry.py"]
WORKLOADS = ["coulomb_gauge", "torus_flow", "torus_geometry", "exact_arith"]
WORKLOAD_SEED = 1


def tour(out: str) -> dict:
    """Run every entry of the tour; a CLI usage error stops it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from fareyflow import cli
    import workloads

    ran = {"cli": [], "demos": [], "workloads": []}
    for argv in CLI_RUNS:
        argv = [a.format(out=out) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out", os.path.join(out, "journal.jsonl")] + argv)
        if code == 1:
            raise SystemExit("usage error in tour run %r" % argv)
        ran["cli"].append(argv[0])
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
    called = set()

    def note(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(note)        # before the first import of the package
    try:
        ran = tour(out)
    finally:
        sys.setprofile(None)
    lines = {}
    for code in called:
        lines.setdefault(code.co_filename, set()).add(code.co_firstlineno)
    keys = []
    for filename, firsts in lines.items():
        path = Path(filename).resolve()
        if PACKAGE in path.parents:
            keys += [[path.relative_to(PACKAGE).as_posix(), n] for n in firsts]
    print(json.dumps({"called": sorted(keys), "ran": ran}))


if __name__ == "__main__":
    main(sys.argv[1])
