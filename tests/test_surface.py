"""The declared library surface: the README's "Library API" section.

Each name listed there resolves, and each public module-level function
or class in `src/cfrow`, and each public method of a public class, is
either used by other src code or listed there, so code that only tests
call cannot sit in src undeclared.
"""

import ast
import functools
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cfrow"


def declared_api(readme: str) -> dict:
    """{module: [name, ...]} from the bullets of the README's "Library
    API" section, each "* `cfrow.<module>`: `name`, `Class.method`, ...":
    a dotted name declares a method of one of the module's classes."""
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    api = {}
    for bullet in re.split(r"\n\* ", "\n" + section)[1:]:
        module, *names = re.findall(r"`([^`]+)`", bullet.split("\n\n", 1)[0])
        assert module.startswith("cfrow.") and module not in api, module
        for name in names:
            assert re.fullmatch(r"\w+(\.\w+)?", name), (module, name)
        api[module[len("cfrow."):]] = names
    return api


def uncalled_public_defs(src: pathlib.Path) -> dict:
    """{module: [name, ...]}: the public module-level functions and
    classes, and the public methods of public classes as "Class.method",
    that no src code names outside their own body.  A method is named
    only by an attribute access (`x.method`): a local variable of the
    same name does not use it."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    uses = [(module, node.lineno, isinstance(node, ast.Attribute),
             node.attr if isinstance(node, ast.Attribute) else node.id)
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]

    def uncalled(module, d, method=False):
        return not d.name.startswith("_") and not any(
            name == d.name and (attr or not method)
            and not (m == module and d.lineno <= line <= d.end_lineno)
            for m, line, attr, name in uses)

    out = {}
    for module, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("_"):
                continue
            if uncalled(module, d):
                out.setdefault(module, []).append(d.name)
            if isinstance(d, ast.ClassDef):
                out.setdefault(module, []).extend(
                    f"{d.name}.{f.name}" for f in d.body
                    if isinstance(f, ast.FunctionDef) and uncalled(module, f, method=True))
    return {module: names for module, names in out.items() if names}


API = declared_api((ROOT / "README.md").read_text())


def test_every_declared_name_resolves():
    assert len(API) >= 10
    for module, names in API.items():
        mod = importlib.import_module(f"cfrow.{module}")
        assert names, module
        for name in names:
            assert not name.startswith("_"), (module, name)
            try:
                functools.reduce(getattr, name.split("."), mod)
            except AttributeError:
                raise AssertionError(f"README declares cfrow.{module}.{name}, which is gone") from None


def test_every_uncalled_public_def_is_declared():
    undeclared = [f"cfrow.{module}.{name}"
                  for module, names in uncalled_public_defs(SRC).items()
                  for name in names if name not in API.get(module, [])]
    assert not undeclared, ("public and called by no src code: call it, make it private, "
                            f"delete it or declare it in the README's Library API: {undeclared}")


def test_the_scan_sees_an_uncalled_def(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return 1\n\n\ndef unused():\n    return used()\n")
    (tmp_path / "b.py").write_text("from .a import used\n\n\ndef _private():\n    return used\n")
    assert uncalled_public_defs(tmp_path) == {"a": ["unused"]}


def test_the_scan_sees_an_uncalled_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class P:\n"
        "    def __init__(self):\n        self.used()\n\n"
        "    def used(self):\n        return self\n\n"
        "    def unused(self):\n        return self.unused\n\n"
        "    def _private(self):\n        return 1\n\n"
        "    def shadowed(self):\n        return 1\n\n\n"
        "class _Q:\n    def hidden(self):\n        return 1\n\n\n"
        "def f():\n    shadowed = 2\n    return P(), _Q(), shadowed\n")
    # a local variable named like a method does not use it
    assert uncalled_public_defs(tmp_path) == {"a": ["P.unused", "P.shadowed", "f"]}
    assert declared_api("\n## Library API\n\n* `cfrow.a`: `f`, `P.unused`\n") == {"a": ["f", "P.unused"]}
