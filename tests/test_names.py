"""No test-only code in the package, on the standard library's ast: every
top-level function, class and assignment of a package module (dunder names
aside) is read somewhere in the package, as a name or as an attribute."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/chiralbag/*.py"))


def defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def read(tree: ast.Module) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def unread_names(sources: dict[str, str]) -> list[str]:
    """'module:name' for each top-level name no module of sources reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*map(read, trees.values()))
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in defined(tree) - used)


def test_checker_finds_an_unread_name():
    sources = {"a": "X = 1\nY: int = 2\n__all__ = []\n"
                    "def f():\n    return X\n"
                    "def g():\n    Z = 3\n"
                    "class C:\n    pass\n",
               "b": "import a\nfrom a import f\nf(a.C)\n"}
    assert unread_names(sources) == ["a:Y", "a:g"]


def test_every_package_name_is_read():
    assert unread_names({p.stem: p.read_text() for p in PACKAGE}) == []
