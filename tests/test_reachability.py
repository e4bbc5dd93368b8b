"""Every function in src/ is called, and every statement of it runs, when the
entry points run.

`entry_tour.py` runs the CLI, the demos and the benchmark workloads in a
fresh interpreter under one `sys.settrace` tracer and reports the code
objects of src/fareyflow it saw called and the lines it saw run there; a
fresh process keeps caches that earlier tests filled from hiding a call.
Both checks below read that one tour.

Definitions.  A definition is a module-level function or a method of a class
(nested classes included); it is keyed by its file and the line of its first
decorator or `def`, which is the `co_firstlineno` of its code object, and it
is reached when the tour called that code object.  So a method counts only
when it runs itself, not when some other object's method of the same name
does.  Classes themselves are not checked: the methods a dataclass generates
have no line in src/.  What the tour never calls must be in ALLOWED, with
the reason it stays.

Statements.  Every statement of a called function must run in the tour,
unless it is a `raise` or the docstring.  A statement ran when the tracer saw
any of its lines; a nested function when its code object was called.  A
maximal run of consecutive sibling statements that never ran counts once,
keyed by its first statement, and the statements nested in it are not
counted apart.  What stays unrun must be in ALLOWED_STATEMENTS, keyed by the
qualified function name and the stripped first line of the statement (not
its line number, so that edits elsewhere in the file leave the key alone),
with the reason it stays.  A branch inside one expression (`x if c else y`)
is invisible to a line trace, so such a branch is its own statement or is
not checked.  A failure prints each unlisted statement as
`file:line function | text` and each stale entry.

The acceptance criteria are not part of the tour (they take half a minute),
so a definition that only a criterion calls is listed with that criterion.
A guard checks that the tour runs every CLI subcommand, demo and workload.
"""

import ast
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from fareyflow.cli import DEFAULTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fareyflow"
TOUR = ROOT / "tests" / "entry_tour.py"

ALLOWED = {
    # documented or test-facing helpers
    "fareyflow.coulomb.div_residuals": "the benchmark's tracer (perfbench/tracer.py) looks it "
                                       "up by name, so `--trace 1` needs it; it goes when the "
                                       "tracer wraps _residual_norms (ROADMAP item 1)",
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
    "fareyflow.stability.SubsequenceReport.passing": "criterion 5",
}

_GENERAL = ("general-metric path: only tests pass a metric other than identity_metric, "
            "and the identity-path tests compare against it")

ALLOWED_STATEMENTS = {
    # inputs that only tests give the exact-arithmetic layer
    ("fareyflow.contfrac.cf_expand", "eps = Fraction(4 * math.ulp(abs(x) or 1.0))"):
        "a float theta: six tests expand math.pi and other floats; the CLI reads decimals",
    ("fareyflow.surd.QuadraticSurd.__eq__", "return False"):
        "surds of two fields: the CLI compares the numbers of one theta's field only; "
        "tests compare across fields",
    ("fareyflow.surd.QuadraticSurd.__eq__", "return NotImplemented"):
        "a foreign operand compares unequal instead of raising: dataclass equality of "
        "two `RatInterval`s compares an `exact` surd with None",
    ("fareyflow.surd.QuadraticSurd.__repr__",
     'return "QuadraticSurd(%d/%d)" % (self.a, self.c)'):
        "the repr of a rational surd, which can be built (surd:1,1,4,2 folds a square D); "
        "the irrational format would print sqrt(0)",
    ("fareyflow.surd.QuadraticSurd.enclosure", "v = Fraction(self.a, self.c)"):
        "the point enclosure of a rational surd: floor() of a surd with b = 0 reads it "
        "(test_floor_matches_interval draws b = 0); cf_expand expands a rational surd "
        "as its Fraction",
    ("fareyflow.farey.stern_brocot_path", "p, q = r"):
        "a (p, q) target is refused when unreduced, which _as_vec would reduce silently",
    # general-metric paths and test-only inputs
    ("fareyflow.torus_he.fields.MetricField.dual",
     "return np.matmul(dagger(cols), self.data)"): _GENERAL,
    ("fareyflow.torus_he.hermitian.he_residual",
     "return float(rho_norm_field(curvature_defect(H, conn, mu), H).max())"): _GENERAL,
    ("fareyflow.torus_he.fields.SectionField.sigma_min_field",
     "svals = np.linalg.svd(np.where(finite[..., None, None], cols, 0), compute_uv=False)"):
        "only tests build a block of m >= 2 section columns (field_reference.section_basis)",
    ("fareyflow.coulomb._expm_skew", "q, buf = np.matmul(q, q, out=buf), q"):
        "the squaring of a rank >= 3 exponent above EXPM_THETA: Coulomb sweeps reach "
        "at most about 4e-3; test_expm_skew_against_eigh squares up to 8 times",
    # robustness: branches for failures that no toured input provokes
    ("fareyflow.torus_he.donaldson.donaldson_flow", "step *= 0.5"):
        "robustness: metric_log refuses a trial metric, and the step halves",
    ("fareyflow.reporting._plain", "return _plain(value.item())"):
        "robustness: `run` journals any params dict, so a record may hold a numpy "
        "scalar (test_record_plains_numpy_scalars_and_rejects_arrays)",
}


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions() -> dict:
    """{(file relative to the package, first line): (qualified name, node)}."""
    defs = {}

    def walk(body, rel, prefix):
        for node in body:
            if isinstance(node, FUNCS):
                defs[(rel, _first_line(node))] = (prefix + node.name, node)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, rel, prefix + node.name + ".")

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        walk(ast.parse(path.read_text()).body, rel, module.removesuffix(".__init__") + ".")
    return defs


def _first_line(node) -> int:
    """The line of a statement's first decorator, or of the statement."""
    decorators = getattr(node, "decorator_list", None)
    return decorators[0].lineno if decorators else node.lineno


def _blocks(node):
    """The statement lists nested in a compound statement."""
    for _, value in ast.iter_fields(node):
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            yield value
        elif isinstance(value, list):
            yield from (item.body for item in value
                        if isinstance(item, (ast.excepthandler, ast.match_case)))


def _unrun(rel, name, body, lines, called) -> list:
    """(first statement, function name) of each maximal run of unrun sibling
    statements in `body`, nested blocks of run statements included.

    A nested function runs when its code object was called; any other
    statement when a line of it ran.  A run of `raise` statements only is
    left out.
    """
    found, run = [], []

    def close():
        if not all(isinstance(node, ast.Raise) for node in run):
            found.append((run[0], name))
        run.clear()

    for node in body:
        if isinstance(node, FUNCS):
            ran = (rel, _first_line(node)) in called
        else:
            ran = not lines.isdisjoint(range(_first_line(node), node.end_lineno + 1))
        if not ran:
            run.append(node)
            continue
        close()
        if isinstance(node, FUNCS):
            found += _unrun(rel, name + "." + node.name, _body(node), lines, called)
        else:
            for block in _blocks(node):
                found += _unrun(rel, name, block, lines, called)
    close()
    return found


def _body(func) -> list:
    """A function's statements without its docstring."""
    return func.body[1:] if ast.get_docstring(func, clean=False) is not None else func.body


@pytest.fixture(scope="module")
def tour_out(tmp_path_factory) -> Path:
    """The tour's scratch directory: its journal, dumps and workload files."""
    return tmp_path_factory.mktemp("tour")


@pytest.fixture(scope="module")
def tour(tour_out) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(TOUR), str(tour_out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tour_journal_is_strict_json(tour, tour_out):
    """Every journal line of the tour is RFC 8259 JSON: no Infinity or NaN."""
    def refuse(name):
        raise ValueError("journal line holds %s" % name)

    lines = (tour_out / "journal.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        json.loads(line, parse_constant=refuse)


def test_every_definition_is_reached_or_allowed(tour):
    # the tour covers every entry point, so a new one cannot escape the check
    ran = tour["ran"]
    assert set(ran["cli"]) == set(DEFAULTS), "subcommands not in the tour"
    demos = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
    assert sorted(ran["demos"]) == demos, "demos not in the tour"
    names = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["NAMES"]
    assert sorted(ran["workloads"]) == sorted(names), "workloads not in the tour"

    called = {tuple(key) for key in tour["called"]}
    missed = {name for key, (name, _) in definitions().items() if key not in called}
    unlisted, stale = sorted(missed - set(ALLOWED)), sorted(set(ALLOWED) - missed)
    assert not unlisted, "never called and not in ALLOWED: %s" % unlisted
    assert not stale, "in ALLOWED but called or gone: %s" % stale


def test_every_statement_runs_or_is_allowed(tour):
    called = {tuple(key) for key in tour["called"]}
    defs = definitions()
    texts = {rel: (PACKAGE / rel).read_text().splitlines() for rel in {rel for rel, _ in defs}}
    unrun = {}          # (function, statement text): ["file:line", ...]
    for (rel, first), (name, node) in sorted(defs.items()):
        if (rel, first) not in called:
            continue
        lines = set(tour["lines"].get(rel, ()))
        for stmt, owner in _unrun(rel, name, _body(node), lines, called):
            key = (owner, texts[rel][stmt.lineno - 1].strip())
            unrun.setdefault(key, []).append("%s:%d" % (rel, stmt.lineno))
    unlisted = ["%s %s | %s" % (where, *key) for key, wheres in unrun.items()
                if key not in ALLOWED_STATEMENTS for where in wheres]
    stale = ["%s | %s" % key for key in ALLOWED_STATEMENTS if key not in unrun]
    if unlisted or stale:
        pytest.fail("statements the tour never runs, not in ALLOWED_STATEMENTS:\n  %s\n"
                    "ALLOWED_STATEMENTS entries that ran or are gone:\n  %s"
                    % ("\n  ".join(unlisted) or "none", "\n  ".join(stale) or "none"),
                    pytrace=False)
