"""Every public top-level function or class, and every public method of a
class, is used in the package (or exported), and every private top-level
function, class or constant is used in the package outside its own
definition: a name that only tests reach is dead code."""

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


def _defined(node):
    """Names that a top-level statement defines: a function or class, or
    the plain-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _unused_private(sources):
    """(module, name) of each private (_name, not __dunder__) top-level
    function, class or constant that no statement of `sources` other than
    its own definition reads, as a bare name or an attribute. An import
    alone is not a use."""
    private, used = [], set()
    for mod, src in sources.items():
        for node in ast.parse(src).body:
            own = _defined(node)
            private += [(mod, n) for n in own
                        if n.startswith("_") and not n.startswith("__")]
            used |= {x.id if isinstance(x, ast.Name) else x.attr
                     for x in ast.walk(node)
                     if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Load)
                     or isinstance(x, ast.Attribute)} - set(own)
    return sorted(d for d in private if d[1] not in used)


def _package_sources():
    return {p.stem: p.read_text(encoding="utf-8")
            for p in sorted(SRC.glob("*.py"))}


def test_no_unused_public_names():
    assert _unused_public(_package_sources()) == sorted(KEPT_UNUSED)


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


def test_no_unused_private_names():
    assert _unused_private(_package_sources()) == []


def test_the_check_sees_an_unused_private_name():
    sources = {
        "a": ("_LIMIT = 1\n_spare: int = 2\n__version__ = '0'\n\n"
              "def _helper():\n    return _LIMIT\n\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n\n"
              "def _shared():\n    pass\n\n"
              "def _imported():\n    pass\n\n"
              "class _Lonely:\n    pass\n\n"
              "def public():\n    return _helper()\n"),
        "b": ("from . import a\nfrom .a import _imported\n\n"
              "_total = a._shared()\n"),
    }
    assert _unused_private(sources) == [
        ("a", "_Lonely"), ("a", "_imported"), ("a", "_recursive"),
        ("a", "_spare"), ("b", "_total")]
