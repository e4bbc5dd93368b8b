"""Every function and class in src/ is reached from an entry point.

A definition stays only if the CLI, a demo, a benchmark workload or an
acceptance criterion reaches it.  The check is name-based: the entry files
(`demos/*.py`, `perfbench/workloads.py`, `tests/test_acceptance.py`,
`tests/conftest.py`), the CLI's `main` and the module-level code of every
src/ module seed a set of identifiers (plain names and attribute names).  A
module-level function, class or method whose name is in the set is reached,
and the identifiers its body reads join the set, until nothing changes.  A
class's special methods (`__init__`, `__post_init__`, ...) are reached with
the class.  Matching by name over-approximates: a method counts as reached
when any object's attribute of the same name is read.

What the closure misses must be in ALLOWED, with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fareyflow"
ENTRY_FILES = [*sorted((ROOT / "demos").glob("*.py")), ROOT / "perfbench" / "workloads.py",
               ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]
CLI_ENTRY = "main"          # the `fareyflow` console script, fareyflow.cli:main

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
}


def _identifiers(nodes) -> set:
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


def _is_special(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """({key: (name, owning class key or None, body nodes)}, module-level seeds)."""
    defs, seeds = {}, set()
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, funcs):
                defs[module + "." + stmt.name] = (stmt.name, None, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                cls = module + "." + stmt.name
                own = [s for s in stmt.body if not isinstance(s, funcs)]
                defs[cls] = (stmt.name, None, own + stmt.bases + stmt.decorator_list)
                for meth in stmt.body:
                    if isinstance(meth, funcs):
                        defs[cls + "." + meth.name] = (meth.name, cls, [meth])
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                seeds |= _identifiers([stmt])
    return defs, seeds


def unreached() -> set:
    defs, names = _definitions()
    names |= {CLI_ENTRY}
    names |= _identifiers(ast.parse(p.read_text()) for p in ENTRY_FILES)
    reached, grew = set(), True
    while grew:
        grew = False
        for key, (name, cls, body) in defs.items():
            if key in reached:
                continue
            if (cls in reached) if _is_special(name) else (name in names):
                reached.add(key)
                names |= _identifiers(body)
                grew = True
    return set(defs) - reached


def test_every_definition_is_reached_or_allowed():
    missed = unreached()
    assert sorted(missed - set(ALLOWED)) == [], "unreached and not in ALLOWED"
    assert sorted(set(ALLOWED) - missed) == [], "in ALLOWED but reached or gone"
