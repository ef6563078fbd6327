"""The package exports only what a program uses.

Every module-level public function or class in src/liouville, and every
public method of such a class, must be named somewhere in src/, demos/ or
bench/ besides its own definition line. A name only tests call belongs in
the test that calls it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liouville"
CALLERS = ["src", "demos", "bench"]


def public_definitions():
    """(module file, name, definition line number) of each public def."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node.name, node.lineno


def caller_lines():
    """(file, line number, text) of every line of Python under CALLERS."""
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for number, text in enumerate(path.read_text().splitlines(), 1):
                yield path, number, text


def test_every_public_name_has_a_caller():
    lines = list(caller_lines())
    unused = []
    for home, name, lineno in public_definitions():
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(text) for path, number, text in lines
                   if (path, number) != (home, lineno)):
            unused.append(f"{home.stem}.{name}")
    assert not unused, f"public names that no program uses: {unused}"


def public_methods():
    """(module file, class, name, definition line number) of each public
    method of a public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield path, node.name, item.name, item.lineno


def test_every_public_method_has_a_caller():
    lines = list(caller_lines())
    unused = []
    for home, cls, name, lineno in public_methods():
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(text) for path, number, text in lines
                   if (path, number) != (home, lineno)):
            unused.append(f"{home.stem}.{cls}.{name}")
    assert not unused, f"public methods that no program uses: {unused}"
