"""scipy is loaded by the Coulomb cosine transforms only.

Each check runs in a fresh interpreter, since this test process has long
since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: output directory, then "scipy-first" to import scipy.fft before fareyflow.
PROBE = """
import json, sys
out, order = sys.argv[1], sys.argv[2]
if order == "scipy-first":
    import scipy.fft
import numpy as np
import fareyflow, fareyflow.cli, fareyflow.torus_he
from fareyflow import coulomb
code = fareyflow.cli.main(["--out", out + "/journal.jsonl", "lagrange"])
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
grid = coulomb.SquareGrid(16)
rhs = np.cos(np.pi * grid.X) * np.cos(2 * np.pi * grid.Y)
w = np.zeros((4, grid.N + 1))
np.save(out + "/neumann.npy", coulomb.neumann_poisson(rhs, w, grid)[0])
print(json.dumps({"cli_exit": code, "scipy_before_solves": before,
                  "scipy_fft_after_solves": "scipy.fft" in sys.modules}))
"""


def _probe(out: Path, order: str) -> dict:
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out), order], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scipy_loads_only_for_sine_cosine_solves(tmp_path):
    lazy = _probe(tmp_path / "lazy", "fareyflow-first")
    assert lazy["cli_exit"] == 0
    assert lazy["scipy_before_solves"] == []
    assert lazy["scipy_fft_after_solves"]

    _probe(tmp_path / "eager", "scipy-first")
    assert np.array_equal(np.load(tmp_path / "lazy" / "neumann.npy"),
                          np.load(tmp_path / "eager" / "neumann.npy"))
