"""Every settable parameter in src/ is a real option, and every parameter is read.

A settable parameter is a function parameter with a default.  It stays only
if callers outside the tests set it to different values, or a documented
caller relies on its default; a one-value knob is a named module constant
instead.  The checks parse src/ with `ast` and name each parameter
`module.function.parameter` (with the class for a method).  The set of
parameters with a default must equal OPTIONS, and the set of parameters that
never appear as a name in their function's body (nested functions included)
must equal UNREAD.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fareyflow"

OPTIONS = {
    "fareyflow.cli.parse_theta.depth":
        "the stability run uses the default, the other runs pass the depth they need",
    "fareyflow.cli.main.argv": "the console script passes none (sys.argv), the tests a list",
    "fareyflow.contfrac.lagrange_estimate.check_L": "the CLI's --L and the demo set it",
    "fareyflow.contfrac.gauss_digit_density.bits":
        "the Lehmer oracle test sweeps 8-768 bits across the one-word boundary",
    "fareyflow.coulomb.coulomb_fix.eps0":
        "the CLI's --eps0 sets it; the benchmark workload and criterion 12 use the default",
}

_BENCH_CALL = ("perfbench/workloads.py passes it positionally, so it goes together with "
               "that call, in a change to the benchmark")
UNREAD = {
    "fareyflow.torus_he.hermitian.second_fundamental_form.conn": _BENCH_CALL,
    "fareyflow.torus_he.hermitian.chern_weil_check.H": _BENCH_CALL,
}
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _with_default(args: ast.arguments) -> list:
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in named]


def functions():
    """(qualified name, node) of every function in src/, nested ones included."""
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + "." + child.name)
            elif isinstance(child, FUNCS):
                yield prefix + "." + child.name, child
                yield from visit(child, prefix + "." + child.name)
            else:
                yield from visit(child, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        yield from visit(ast.parse(path.read_text()), module.removesuffix(".__init__"))


def settable_parameters() -> set:
    return {name + "." + arg for name, node in functions() for arg in _with_default(node.args)}


def unread_parameters() -> set:
    out = set()
    for name, node in functions():
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        names = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        out.update(name + "." + p for p in params if p not in names)
    return out


def test_every_settable_parameter_is_an_option():
    found = settable_parameters()
    assert sorted(found - set(OPTIONS)) == [], "settable parameters not in OPTIONS"
    assert sorted(set(OPTIONS) - found) == [], "in OPTIONS but gone or required"


def test_every_parameter_is_read():
    found = unread_parameters()
    assert sorted(found - set(UNREAD)) == [], "parameters their function never reads"
    assert sorted(set(UNREAD) - found) == [], "in UNREAD but read or gone"
