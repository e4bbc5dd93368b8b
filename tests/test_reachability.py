"""Every function and method in src/ is called when the entry points run.

`entry_tour.py` runs the CLI, the demos and the benchmark workloads in a
fresh interpreter under `sys.setprofile` and reports the code objects it saw
called; a fresh process keeps caches that earlier tests filled from hiding a
call.  A definition is a module-level function or a method of a class (nested
classes included); it is keyed by its file and the line of its first
decorator or `def`, which is the `co_firstlineno` of its code object, and it
is reached when the tour called that code object.  So a method counts only
when it runs itself, not when some other object's method of the same name
does.  Classes themselves are not checked: the methods a dataclass generates
have no line in src/.

What the tour never calls must be in ALLOWED, with the reason it stays.  The
acceptance criteria are not part of the tour (they take half a minute), so a
definition that only a criterion calls is listed with that criterion.  A
guard checks that the tour runs every CLI subcommand, demo and workload.
"""

import ast
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from fareyflow.cli import DEFAULTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fareyflow"
TOUR = ROOT / "tests" / "entry_tour.py"

ALLOWED = {
    # the Farey, stability and continued-fraction library surface
    "fareyflow.farey.is_farey_geodesic": "library surface: is a pair of slopes unimodular",
    "fareyflow.farey.translate": "library surface: integer shift of a Farey triangle",
    "fareyflow.farey.PrimitiveVector.charge": "library surface: the charge -p + i q",
    "fareyflow.farey.PrimitiveVector.fraction": "library surface: the slope as a Fraction",
    "fareyflow.stability.euler_pairing": "library surface: the Euler form chi(F, E)",
    "fareyflow.stability.hom_one_dim": "library surface: h^1(F, E) of a stable pair",
    "fareyflow.stability.min_destabilizing_gap": "library surface: brute-force slope gap",
    "fareyflow.stability.KClass.charge": "library surface: the charge -deg + i rk",
    "fareyflow.surd.RatInterval.contains_interval": "library surface: interval inclusion",
    "fareyflow.contfrac.semiconvergents": "library surface: the intermediate fractions",
    "fareyflow.contfrac.Convergent.fraction": "library surface: p/q as a Fraction",
    # documented or test-facing helpers
    "fareyflow.torus_he.fields.load_grid_csv": "the reader of --dump-grid files that README documents",
    "fareyflow.torus_he.model.section_basis": "test fixture: the d theta sections as one block",
    "fareyflow.torus_he.grid.TorusGrid.weight": "test fixture: the quadrature weight 1/N^2",
    "fareyflow.coulomb.div_residuals": "library surface: the two residuals of a field, which "
                                       "coulomb_fix forms from the d*A it solves; the "
                                       "benchmark's tracer wraps it by name",
    # branches and guards the tour does not take
    "fareyflow.fiber.comm": "the general-metric branch of MetricField.chern_dz; "
                            "the identity-path test compares against it",
    "fareyflow.fiber.op_norm": "the general-metric branch of he_residual; "
                               "the identity-path tests compare against it",
    "fareyflow.torus_he.fields.rho_norm_field": "the general-metric branch of he_residual; "
                                                "the identity-path tests compare against it",
    "fareyflow.stability.WellApproxVerdict.__bool__":
        "guard: an undecided verdict raises instead of reading as true",
    # called only by an acceptance criterion
    "fareyflow.reporting.read_journal": "criterion 13 reads the journals back",
    "fareyflow.stability.SubsequenceReport.passing": "criterion 5",
}


def definitions() -> dict:
    """{(file relative to the package, first line): qualified name}."""
    defs = {}
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def walk(body, rel, prefix):
        for node in body:
            if isinstance(node, funcs):
                first = node.decorator_list[0] if node.decorator_list else node
                defs[(rel, first.lineno)] = prefix + node.name
            elif isinstance(node, ast.ClassDef):
                walk(node.body, rel, prefix + node.name + ".")

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        walk(ast.parse(path.read_text()).body, rel, module.removesuffix(".__init__") + ".")
    return defs


def run_tour(out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(TOUR), str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_definition_is_reached_or_allowed(tmp_path):
    tour = run_tour(tmp_path)

    # the tour covers every entry point, so a new one cannot escape the check
    ran = tour["ran"]
    assert set(ran["cli"]) == set(DEFAULTS), "subcommands not in the tour"
    demos = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
    assert sorted(ran["demos"]) == demos, "demos not in the tour"
    names = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["NAMES"]
    assert sorted(ran["workloads"]) == sorted(names), "workloads not in the tour"

    called = {tuple(key) for key in tour["called"]}
    missed = {name for key, name in definitions().items() if key not in called}
    unlisted, stale = sorted(missed - set(ALLOWED)), sorted(set(ALLOWED) - missed)
    assert not unlisted, "never called and not in ALLOWED: %s" % unlisted
    assert not stale, "in ALLOWED but called or gone: %s" % stale
