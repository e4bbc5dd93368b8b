"""Smoke test of the benchmark itself, at reduced size (about two minutes).

    python3 perfbench/smoke.py

Records smoke-size references, then for every workload checks that
  1. a run finishes and reports no failed unit, at --trace 0 and --trace 1;
  2. its last line names every metric of BENCHMARK.json with that metric's unit;
  3. a deliberately wrong reference makes failed_frac rise above 0.
Exits non-zero with the reasons when any check fails.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def corrupt(refs):
    """One wrong reference per workload, whichever pool member a seed picks."""
    bad = copy.deepcopy(refs)
    for e in bad["coulomb_gauge"]["stream"]:
        e["ratio"] *= 1 + 1e-6
    for e in bad["torus_flow"]["flows"]:
        e["iterations"] += 1
    bad["torus_geometry"]["lhs"][0] *= 1 + 1e-6
    for e in bad["exact_arith"]["density"]:
        e["record"]["outputs"]["empirical"] += 1e-3
    return bad


def run(workload, refs_path, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke",
         "--references", str(refs_path)],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError("%s --trace %d exited %d: %s"
                           % (workload, trace, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        good, bad = Path(tmp) / "refs.json", Path(tmp) / "refs-wrong.json"
        subprocess.run([sys.executable, str(HERE / "record.py"), "--size", "smoke",
                        "--out", str(good)], check=True, timeout=170, cwd=str(ROOT))
        bad.write_text(json.dumps(corrupt(json.loads(good.read_text()))))
        for w in bench["workloads"]:
            name = w["name"]
            for trace in (0, 1):
                res = run(name, good, trace)
                units = {k: v["unit"] for k, v in res["metrics"].items()}
                if units != expected[trace]:
                    problems.append("%s --trace %d: metrics/units differ from BENCHMARK.json: "
                                    "%s" % (name, trace, sorted(set(units.items())
                                                                ^ set(expected[trace].items()))))
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append("%s --trace %d: %d of %d units failed"
                                    % (name, trace, res["failed"], res["attempted"]))
            res = run(name, bad, 0)
            if res["correct"] or not res["failed"] / res["attempted"] > 0:
                problems.append("%s: a wrong reference was not detected" % name)
            print("%s: checked" % name, flush=True)
    for p in problems:
        print("SMOKE FAIL: %s" % p)
    print("smoke test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
