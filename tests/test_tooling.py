"""Source layout rules.

The traced benchmark charges the transform sizes it observes to the next
grid.convolve_grid span, so a transform taken anywhere else would be
billed to the wrong call.  Every transform there takes the one length
convolve_grid chooses, so products that share a factor can share its
spectrum, and a command's products run at as few lengths as possible.

Exact values become floats in one place, PiecewisePoly.sample_lattice,
at one kind of node, integers m over den (grid.sample hands its float
nodes over as integers over 2^53).  It runs a certified double-word
Horner over all nodes at once and divides integers once only at the
nodes it cannot certify, instead of building a Fraction per node;
float(f.eval(x)) elsewhere in the package would be a second route.

A plain pair convolve_grid(f, g) with no window transforms at a power
of two, not at the 5-smooth length of every other product.  It survives
only where its bits are pinned: the exact solve's residual
(solver.run_fixed_point) and euler_lagrange.estimate_x6_grid; C_n
elsewhere is convolution_power.

PiecewisePoly and GridFunction answer the same questions (mass,
lp_mass, convolution_power, dilate, scaling, values, support), so code
outside the two density modules and the solver's exact-lane guard has
no reason to ask which one it holds.

Library reports and densities return plain values; cli.py alone spells
numbers for output, so a 17-digit format spec or a to_json method
elsewhere would be a second output format.

The package ships what its commands run: every public function, class
and method is used somewhere in the package, and checkers that only
tests call live in tests/instruments.py.

The runtime needs numpy and the standard library only; scipy and sympy
are test oracles.
"""
import ast
import pathlib
import re
import sys
from collections import defaultdict

import renyiconv

SRC = pathlib.Path(renyiconv.__file__).parent
FFT_OWNER = ("grid.py", "convolve_grid")
PAIR_ROUTE_OWNERS = {("solver.py", "run_fixed_point"), ("euler_lagrange.py", "estimate_x6_grid")}
DENSITY_TYPES = {"PiecewisePoly", "GridFunction"}
DENSITY_TYPE_OWNERS = {"piecewise.py", "grid.py", "solver.py"}
FLOAT_EVAL_OWNER = "piecewise.py"
OUTPUT_FORMAT_OWNER = "cli.py"


def fft_references(source: str) -> list[tuple[int, str]]:
    """(line, enclosing top-level function or '') of every numpy.fft use."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not owner:
                inner = child.name
            if isinstance(child, ast.Attribute) and child.attr == "fft" \
                    and isinstance(child.value, ast.Name) and child.value.id in ("np", "numpy"):
                found.append((child.lineno, owner))
            elif isinstance(child, ast.ImportFrom) and child.module and (
                    child.module.startswith("numpy.fft")
                    or (child.module == "numpy" and any(a.name == "fft" for a in child.names))):
                found.append((child.lineno, owner))
            elif isinstance(child, ast.Import) and any(a.name.startswith("numpy.fft") for a in child.names):
                found.append((child.lineno, owner))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_fft_only_inside_convolve_grid():
    outside, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        for line, owner in fft_references(path.read_text()):
            if (path.name, owner) == FFT_OWNER:
                inside += 1
            else:
                outside.append(f"{path.name}:{line} in {owner or 'module scope'}")
    assert not outside, "numpy.fft used outside grid.convolve_grid: " + ", ".join(outside)
    assert inside > 0


def test_finder_sees_every_spelling():
    src = (
        "import numpy.fft\n"
        "from numpy import fft\n"
        "from numpy.fft import rfft\n"
        "def f(x):\n"
        "    return np.fft.rfft(x)\n"
        "class C:\n"
        "    def g(self, x):\n"
        "        return numpy.fft.irfft(x)\n"
    )
    assert fft_references(src) == [(1, ""), (2, ""), (3, ""), (5, "f"), (8, "C")]


def transform_lengths(source: str) -> list[tuple[int, str]]:
    """(line, length argument as written) of every call np.fft.F(a, n, ...)
    or numpy.fft.F(a, n=...); '' when no length is given."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "fft" \
                and isinstance(node.func.value.value, ast.Name) and node.func.value.value.id in ("np", "numpy"):
            length = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "n"), None)
            found.append((node.lineno, "" if length is None else ast.unparse(length)))
    return sorted(found)


def calls_of(name: str, source: str) -> list[tuple[int, str]]:
    """(line, enclosing top-level function or '') of every call of name."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
        found += [(node.lineno, owner) for node in ast.walk(top) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == name]
    return sorted(found)


def test_every_transform_takes_the_one_length():
    # convolve_grid chooses n_fft once (5-smooth, or a power of two for a
    # plain pair) and every transform takes it
    source = (SRC / FFT_OWNER[0]).read_text()
    lengths = transform_lengths(source)
    assert lengths and {length for _, length in lengths} == {"n_fft"}
    assert {owner for _, owner in calls_of("_smooth_length", source)} == {FFT_OWNER[1]}
    for path in sorted(SRC.glob("*.py")):
        if path.name != FFT_OWNER[0]:
            assert not calls_of("_smooth_length", path.read_text()), path.name


def test_length_finder_sees_every_spelling():
    src = (
        "def f(x, m):\n"
        "    a = np.fft.rfft(x, m)\n"
        "    b = numpy.fft.irfft(x, n=2 * m)\n"
        "    return np.fft.fft(x), _smooth_length(m)\n"
        "_smooth_length(3)\n"
    )
    assert transform_lengths(src) == [(2, "m"), (3, "2 * m"), (4, "")]
    assert calls_of("_smooth_length", src) == [(4, "f"), (5, "")]


def plain_pair_calls(source: str) -> list[tuple[int, str]]:
    """(line, enclosing top-level function or '') of every convolve_grid
    call, by name or attribute, with no lo or hi keyword and either
    exactly two positional factors or a starred one, which may expand to
    two: the power-of-two pair."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            windowed = any(k.arg in ("lo", "hi") for k in node.keywords)
            may_be_pair = len(node.args) == 2 or any(isinstance(a, ast.Starred) for a in node.args)
            if name == "convolve_grid" and may_be_pair and not windowed:
                found.append((node.lineno, owner))
    return sorted(found)


def test_power_of_two_pair_only_where_pinned():
    owners = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
              for _, owner in plain_pair_calls(path.read_text())}
    assert owners == PAIR_ROUTE_OWNERS, "plain convolve_grid pairs outside the pinned callers"


def test_pair_finder_sees_every_spelling():
    src = (
        "def f(a, b, fs, s):\n"
        "    c = convolve_grid(a, b)\n"
        "    d = _grid.convolve_grid(_grid.convolve_grid(a, a), b)\n"
        "    e = grid.convolve_grid(*fs)\n"
        "    g = convolve_grid(a, b, spectra=s)\n"
        "    convolve_grid(a, b, lo=0.0)\n"
        "    convolve_grid(a, b, hi=1.0)\n"
        "    convolve_grid(*[a] * 3, lo=-1.0, hi=1.0)\n"
        "    convolve_grid(a, b, c)\n"
        "    return a.convolve(b)\n"
        "class C:\n"
        "    def h(self, a):\n"
        "        return convolve_grid(a, self)\n"
        "convolve_grid(x, y)\n"
    )
    assert plain_pair_calls(src) == [(2, "f"), (3, "f"), (3, "f"), (4, "f"), (5, "f"), (13, "C"), (14, "")]


def density_type_checks(source: str) -> list[int]:
    """Lines of every isinstance(_, T) whose T names a density class,
    alone, in a tuple, in a union or through a module attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1]) if isinstance(n, (ast.Name, ast.Attribute))}
            if names & DENSITY_TYPES:
                found.append(node.lineno)
    return found


def test_no_density_type_checks_outside_owners():
    hits = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            if path.name not in DENSITY_TYPE_OWNERS for line in density_type_checks(path.read_text())]
    assert not hits, "isinstance on a density class outside its owners: " + ", ".join(hits)


def test_density_finder_sees_every_spelling():
    src = (
        "isinstance(f, PiecewisePoly)\n"
        "isinstance(f, (int, GridFunction))\n"
        "isinstance(f, _grid.GridFunction)\n"
        "isinstance(f, PiecewisePoly | GridFunction)\n"
        "isinstance(f, Fraction)\n"
        "def g(f):\n"
        "    return isinstance(f, GridFunction)\n"
    )
    assert density_type_checks(src) == [1, 2, 3, 4, 7]


def float_of_eval_calls(source: str) -> list[int]:
    """Lines of every float(<expr>.eval(...)) call."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
            and node.args and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Attribute) and node.args[0].func.attr == "eval"]


def test_exact_to_float_has_one_route():
    hits = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            if path.name != FLOAT_EVAL_OWNER for line in float_of_eval_calls(path.read_text())]
    assert not hits, "float(... .eval(...)) outside piecewise.py: " + ", ".join(hits)


def test_float_eval_finder_sees_every_spelling():
    src = (
        "float(f.eval(x))\n"
        "float(self.f.eval(Fraction(k, 3)))\n"
        "v = [float(g.eval(x)) for x in xs]\n"
        "float(f(x))\n"
        "f.eval(x)\n"
        "def h(f):\n"
        "    return float(\n"
        "        f.eval(0))\n"
    )
    assert float_of_eval_calls(src) == [1, 2, 3, 7]


def output_format_sites(source: str) -> list[int]:
    """Lines of every 17g format spec (in an f-string, a format() or
    str.format call, or a % template) and every to_json or to_json_dict
    definition."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.search(r"17g", node.value):
            found.add(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ("to_json", "to_json_dict"):
            found.add(node.lineno)
    return sorted(found)


def test_only_cli_formats_output():
    hits = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            if path.name != OUTPUT_FORMAT_OWNER for line in output_format_sites(path.read_text())]
    assert not hits, "output number format outside cli.py: " + ", ".join(hits)


def test_output_format_finder_sees_every_spelling():
    src = (
        'f"{x:.17g}"\n'
        'format(x, ".17g")\n'
        '"%.17g" % x\n'
        '"{:.17g}".format(x)\n'
        'f"{x:.6g} {n}"\n'
        "class R:\n"
        "    def to_json_dict(self):\n"
        "        return {}\n"
        "def to_json(f):\n"
        "    return ''\n"
        "def to_dict(f):\n"
        "    return {}\n"
    )
    assert output_format_sites(src) == [1, 2, 3, 4, 7, 9]


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """"file:name" of every public module-level function or class and
    every public method, in sources {file name: text}, whose name is used
    nowhere in them outside its own definition.  A use is a name or an
    attribute, so imports do not count; dunders and main are exempt."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defs = []
    for name, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + members:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                        and not d.name.startswith("_") and not (d is node and d.name == "main"):
                    defs.append((name, d))
    uses = defaultdict(list)
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses[node.id if isinstance(node, ast.Name) else node.attr].append((name, node.lineno))
    return [f"{name}:{d.name}" for name, d in defs
            if all(where == name and d.lineno <= line <= d.end_lineno for where, line in uses[d.name])]


def test_every_public_name_is_used_in_the_package():
    unused = unreferenced_public_names({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert not unused, "public names the package never uses (move test-only ones to tests/): " + ", ".join(unused)


def test_public_name_finder_sees_every_spelling():
    sources = {
        "a.py": (
            "from .b import helper\n"
            "def main():\n"
            "    return run(1)\n"
            "def run(x):\n"
            "    return run(x - 1) if x else Box().size\n"
            "def lonely():\n"
            "    return lonely()\n"
            "def _private():\n"
            "    pass\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def unused(self):\n"
            "        return self.size\n"
        ),
        "b.py": (
            "def helper():\n"
            "    pass\n"
            "class Report:\n"
            "    pass\n"
            "def make() -> Report:\n"
            "    pass\n"
        ),
    }
    assert unreferenced_public_names(sources) == ["a.py:lonely", "a.py:unused", "b.py:helper", "b.py:make"]


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every absolute import, at any depth, of a module
    outside the standard library and numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules
                  if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "numpy"]
    return sorted(found)


def test_runtime_imports_only_numpy_and_stdlib():
    hits = [f"{path.name}:{line} {module}" for path in sorted(SRC.glob("*.py"))
            for line, module in foreign_imports(path.read_text())]
    assert not hits, "imports beyond numpy and the standard library: " + ", ".join(hits)


def test_import_finder_sees_every_spelling():
    src = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "import numpy as np\n"
        "from numpy.fft import rfft\n"
        "from . import grid\n"
        "from .piecewise import PiecewisePoly\n"
        "import scipy\n"
        "from sympy import Rational\n"
        "import numpy, matplotlib.pyplot as plt\n"
        "def f():\n"
        "    from scipy import integrate\n"
        "    return integrate\n"
        "class C:\n"
        "    def g(self):\n"
        "        import numpyx\n"
    )
    assert foreign_imports(src) == [(7, "scipy"), (8, "sympy"), (9, "matplotlib.pyplot"),
                                    (11, "scipy"), (15, "numpyx")]
