"""Every public top-level function or class, and every public method of a
class, is used in the package (or exported): a public name that only tests
reach is dead code."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "slitsim"

#: Public names that no module of the package uses, and why each stays.
KEPT_UNUSED = {("analytic", "ExactField.velocity_at"): "perfbench/layer_trace"
               ".py times it, until the benchmark reads the manifest"}


def _unused_public(sources):
    """(module, name) of each public top-level function or class, and
    (module, "Class.method") of each public method, that no module of
    `sources` (module name -> source text) references and no `__all__`
    lists."""
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
    defs = [(mod, node.name, node) for mod, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defs += [(mod, f"{name}.{m.name}", m) for mod, name, c in defs
             if isinstance(c, ast.ClassDef) and not name.startswith("_")
             for m in c.body if isinstance(m, ast.FunctionDef)]
    return sorted((mod, name) for mod, name, node in defs
                  if not node.name.startswith("_") and node.name not in used)

def test_no_unused_public_names():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert _unused_public(sources) == sorted(KEPT_UNUSED)


def test_the_check_sees_an_unused_public_name():
    sources = {
        "a": ("def called():\n    pass\n\ndef orphan():\n    pass\n\n"
              "class Exported:\n    def run(self):\n        pass\n\n"
              "    def stray(self):\n        pass\n\n"
              "__all__ = ['Exported']\n"),
        "b": ("from . import a\n\nclass _Private:\n    def hidden(self):\n"
              "        pass\n\n"
              "class Lonely:\n    pass\n\na.called()\na.Exported().run()\n"),
    }
    assert _unused_public(sources) == [
        ("a", "Exported.stray"), ("a", "orphan"), ("b", "Lonely")]
