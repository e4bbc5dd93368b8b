"""Every settable parameter in src/ is a real option.

A settable parameter is a function parameter with a default.  It stays only
if callers outside the tests set it to different values, or a documented
caller relies on its default; a one-value knob is a named module constant
instead.  The check parses src/ with `ast` and requires the set of
parameters with a default, named `module.function.parameter` (with the
class for a method), to equal OPTIONS.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fareyflow"

OPTIONS = {
    "fareyflow.cli.parse_theta.depth":
        "the stability run uses the default, the other runs pass the depth they need",
    "fareyflow.cli.main.argv": "the console script passes none (sys.argv), the tests a list",
    "fareyflow.contfrac.lagrange_estimate.check_L": "the CLI's --L and the demo set it",
    "fareyflow.contfrac.gauss_digit_density.burn_in":
        "a CLI flag; criterion 3 uses the default",
    "fareyflow.contfrac.gauss_digit_density.bits":
        "the Lehmer oracle test sweeps 8-768 bits across the one-word boundary",
    "fareyflow.coulomb.coulomb_fix.eps0":
        "the CLI's --eps0 sets it; the benchmark workload and criterion 12 use the default",
    "fareyflow.surd.QuadraticSurd.enclosure.bits": "src/ uses both 96 and 120",
}


def _with_default(args: ast.arguments) -> list:
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in named]


def settable_parameters() -> set:
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + "." + child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + "." + child.name
                out.update(name + "." + arg for arg in _with_default(child.args))
                visit(child, name)
            else:
                visit(child, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        visit(ast.parse(path.read_text()), module.removesuffix(".__init__"))
    return out


def test_every_settable_parameter_is_an_option():
    found = settable_parameters()
    assert sorted(found - set(OPTIONS)) == [], "settable parameters not in OPTIONS"
    assert sorted(set(OPTIONS) - found) == [], "in OPTIONS but gone or required"
