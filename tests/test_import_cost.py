"""No statement a package module runs at import calls into np.linalg.

Every run, and every fresh process of the benchmark, pays for what the
modules compute at import. Inverting a 4x4 Vandermonde matrix with
np.linalg.inv at import raised the peak RSS of `import slitsim.cli` by
about 0.4-0.5 MiB (LAPACK's first call), and fd1d_fan's peak_rss_mib by
0.23 MiB; such constants are written out as literals instead (see
bohm._BASIS).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slitsim"


def _dotted(node):
    """'np.linalg.inv' for the expression np.linalg.inv, '' if it is not a
    plain dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id] + parts[::-1])


def _run_at_import(body):
    """The nodes of a module or class body that run at import: every
    statement, but of a function only its decorators and defaults."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from stmt.decorator_list
            yield from stmt.args.defaults
            yield from filter(None, stmt.args.kw_defaults)
        elif isinstance(stmt, ast.ClassDef):
            yield from stmt.decorator_list + stmt.bases + stmt.keywords
            yield from _run_at_import(stmt.body)
        else:
            yield stmt


def _linalg_calls_at_import(source):
    """(line, callee) of each call into numpy.linalg that runs at import."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "numpy.linalg" for alias in node.names}
    calls = []
    for top in _run_at_import(tree.body):
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if "linalg" in name.split(".") or name in imported:
                    calls.append((node.lineno, name))
    return sorted(calls)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_linalg_call_at_import(path):
    assert _linalg_calls_at_import(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_linalg_call_at_import():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import inv as invert\n"
        "A = np.linalg.inv(np.eye(4))\n"                # 3: module level
        "def f(x=np.linalg.norm([1.0])):\n"             # 4: a default
        "    return np.linalg.inv(x)\n"                 # in a body: runs later
        "class C:\n"
        "    B = invert(np.eye(2))\n"                   # 7: class body
        "    def g(self):\n"
        "        return np.linalg.solve(self, self)\n"
        "if True:\n"
        "    D = np.linalg.pinv(np.eye(2))\n")          # 11: under an if
    assert _linalg_calls_at_import(source) == [
        (3, "np.linalg.inv"), (4, "np.linalg.norm"), (7, "invert"),
        (11, "np.linalg.pinv")]
