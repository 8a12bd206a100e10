"""Source layout rules that the benchmark's per-layer attribution relies on.

The traced benchmark charges the transform sizes it observes to the next
grid.convolve_grid span, so a transform taken anywhere else would be
billed to the wrong call.
"""
import ast
import pathlib

import renyiconv

SRC = pathlib.Path(renyiconv.__file__).parent
FFT_OWNER = ("grid.py", "convolve_grid")


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
