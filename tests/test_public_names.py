"""Every public top-level function or class is used in the package (or
exported): a public name that only tests reach is dead code."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "slitsim"


def _unused_public(sources):
    """(module, name) of each public top-level function or class that no
    module of `sources` (module name -> source text) references and no
    `__all__` lists."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                used.update(ast.literal_eval(node.value))
    return sorted(
        (mod, node.name) for mod, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in used)


def test_no_unused_public_names():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert _unused_public(sources) == []


def test_the_check_sees_an_unused_public_name():
    sources = {
        "a": ("def called():\n    pass\n\ndef orphan():\n    pass\n\n"
              "class Exported:\n    pass\n\n__all__ = ['Exported']\n"),
        "b": ("from . import a\n\nclass _Private:\n    pass\n\n"
              "class Lonely:\n    pass\n\na.called()\n"),
    }
    assert _unused_public(sources) == [("a", "orphan"), ("b", "Lonely")]
