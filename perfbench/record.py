"""Record the references every benchmark unit is checked against.

    python3 perfbench/record.py                      # full size -> perfbench/references.json
    python3 perfbench/record.py --size smoke --out refs-smoke.json

Run it at the commit whose outputs are the reference (a full-size recording
takes about ten minutes on one core).  It solves every member of every input
pool once and stores what the checks compare: Coulomb sweep counts and norm
ratios, flow iteration and functional-evaluation counts, the theta-line
Chern-Weil integrals, and the stable view of each CLI journal record.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    ap.add_argument("--out", default=str(HERE / "references.json"))
    args = ap.parse_args(argv)
    (HERE / "out").mkdir(exist_ok=True)
    try:
        rev = subprocess.run(["git", "-C", str(HERE.parent), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    refs = {"recorded_at": rev or None, "size": args.size}
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        for name in workloads.NAMES:
            print("recording %s ..." % name, file=sys.stderr, flush=True)
            refs[name] = workloads.make(name, args.size, scratch).record()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
