"""The package exports only what a program uses.

Every module-level public function or class in src/liouville, and every
public method of such a class, must be used somewhere in src/, demos/ or
bench/. A use is a name, an attribute or an import of it, or a string
literal that is exactly the name (as in a table of names to trace); a
word in a comment, a docstring or a message is not. A name only tests
call belongs in the test that calls it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liouville"
CALLERS = ["src", "demos", "bench"]


def public_definitions():
    """(module file, name) of each public def."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node.name


def docstrings(tree):
    """The docstring nodes of a module and of its functions and classes."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.FunctionDef,
                              ast.AsyncFunctionDef, ast.ClassDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            yield node.body[0].value


def used_names():
    """Every name that the Python under CALLERS uses."""
    used = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            skip = set(map(id, docstrings(tree)))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str) and id(node) not in skip):
                    used.add(node.value)
    return used


def test_every_public_name_has_a_caller():
    used = used_names()
    unused = [f"{home.stem}.{name}" for home, name in public_definitions()
              if name not in used]
    assert not unused, f"public names that no program uses: {unused}"


def public_methods():
    """(module file, class, name) of each public method of a public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield path, node.name, item.name


def test_every_public_method_has_a_caller():
    used = used_names()
    unused = [f"{home.stem}.{cls}.{name}"
              for home, cls, name in public_methods() if name not in used]
    assert not unused, f"public methods that no program uses: {unused}"
