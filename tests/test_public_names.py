"""Every public top-level function or class, and every public method of a
class, is used in the package (or exported): a public name that only tests
reach is dead code."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "slitsim"

#: Public names that no module of the package uses, and why each stays.
KEPT_UNUSED = {("analytic", "ExactField.velocity_at"): "perfbench/layer_trace"
               ".py times it, until the benchmark reads the manifest"}


def _references(tree):
    """(names, attributes) that `tree` references: every bare name or
    `__all__` entry, and every attribute name except inside a function of
    that same name."""
    names, attrs = set(), set()

    def visit(node, enclosing):
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            attrs.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            names.update(ast.literal_eval(node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return names, attrs


def _unused_public(sources):
    """(module, name) of each public top-level function or class that no
    module of `sources` (module name -> source text) references, and
    (module, "Class.method") of each public method that no attribute
    reference outside the method's own family reaches (_references)."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    names, attrs = set(), set()
    for tree in trees.values():
        n, a = _references(tree)
        names |= n
        attrs |= a
    defs = [(mod, node.name, node) for mod, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [(mod, name) for mod, name, _ in defs
              if not name.startswith("_") and name not in names | attrs]
    unused += [(mod, f"{name}.{m.name}") for mod, name, c in defs
               if isinstance(c, ast.ClassDef) and not name.startswith("_")
               for m in c.body if isinstance(m, ast.FunctionDef)
               and not m.name.startswith("_") and m.name not in attrs]
    return sorted(unused)

def test_no_unused_public_names():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert _unused_public(sources) == sorted(KEPT_UNUSED)


def test_the_check_sees_an_unused_public_name():
    sources = {
        "a": ("def called():\n    pass\n\ndef orphan():\n    pass\n\n"
              "class Exported:\n    def run(self):\n        pass\n\n"
              "    def stray(self):\n        pass\n\n"
              "    def shadowed(self):\n        pass\n\n"
              "    def recursive(self):\n        return self.recursive()\n\n"
              "__all__ = ['Exported']\n"),
        "b": ("from . import a\n\nclass _Private:\n    def hidden(self):\n"
              "        pass\n\n"
              "class Lonely:\n    pass\n\na.called()\na.Exported().run()\n"
              # a bare name and a call inside the own family do not count
              "shadowed = 1\n\nclass _Wrapper:\n    def recursive(self):\n"
              "        return self.inner.recursive()\n"),
    }
    assert _unused_public(sources) == [
        ("a", "Exported.recursive"), ("a", "Exported.shadowed"),
        ("a", "Exported.stray"), ("a", "orphan"), ("b", "Lonely")]
