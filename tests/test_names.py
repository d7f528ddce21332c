"""No test-only code in the package, on the standard library's ast: every
top-level function, class and assignment of a package module (dunder names
aside) is read somewhere in the package, as a name or as an attribute, and
every exception class a package module defines is raised somewhere in the
package, and every parameter of a package function is read in its body."""

import ast
import builtins
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


def _builtin_exception(name: str) -> bool:
    base = getattr(builtins, name, None)
    return isinstance(base, type) and issubclass(base, BaseException)


def exception_classes(tree: ast.Module) -> set[str]:
    """Top-level classes of tree whose bases name a builtin exception or an
    exception class defined above them in tree."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name)
                and (b.id in found or _builtin_exception(b.id))
                for b in node.bases):
            found.add(node.name)
    return found


def raised(tree: ast.Module) -> set[str]:
    """The names the raise statements of tree raise: `raise E`,
    `raise E(...)` and `raise mod.E(...)` each give E."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def unraised_exceptions(sources: dict[str, str]) -> list[str]:
    """'module:name' for each exception class no module of sources
    raises."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*map(raised, trees.values()))
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in exception_classes(tree) - used)


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """'module:function:parameter' for each parameter of a function or
    lambda ('<lambda>') of sources that the function never reads."""
    found = []
    for module, text in sources.items():
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                a, name = fn.args, getattr(fn, "name", "<lambda>")
                loads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Load)}
                found += [f"{module}:{name}:{p.arg}" for p in (
                    *a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                    if p is not None and p.arg not in loads]
    return sorted(found)


def test_checker_finds_an_unread_name():
    sources = {"a": "X = 1\nY: int = 2\n__all__ = []\n"
                    "def f():\n    return X\n"
                    "def g():\n    Z = 3\n"
                    "class C:\n    pass\n",
               "b": "import a\nfrom a import f\nf(a.C)\n"}
    assert unread_names(sources) == ["a:Y", "a:g"]


def test_every_package_name_is_read():
    assert unread_names({p.stem: p.read_text() for p in PACKAGE}) == []


def test_checker_finds_an_unraised_exception():
    sources = {"a": "class E(ValueError):\n    pass\n"
                    "class F(E):\n    pass\n"
                    "class G(RuntimeError):\n    pass\n"
                    "class H:\n    pass\n"
                    "def f():\n    raise E('x')\n",
               "b": "import a\n"
                    "def g():\n    raise a.G\n"}
    assert unraised_exceptions(sources) == ["a:F"]


def test_every_package_exception_is_raised():
    assert unraised_exceptions({p.stem: p.read_text()
                                for p in PACKAGE}) == []


def test_checker_finds_an_unread_parameter():
    sources = {"a": "def f(x, y, *args, z=1, **kw):\n    return x + z + kw\n"
                    "def g(u):\n    def h(v):\n        return u\n"
                    "    return h\nk = lambda p, q: q\n"}
    assert unread_parameters(sources) == ["a:<lambda>:p", "a:f:args",
                                          "a:f:y", "a:h:v"]


def test_every_package_parameter_is_read():
    assert unread_parameters({p.stem: p.read_text() for p in PACKAGE}) == []
