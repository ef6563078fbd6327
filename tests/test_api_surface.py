"""The package exports only what a program uses.

Every module-level public function or class in src/liouville, and every
public method of such a class, must be used somewhere in src/, demos/ or
bench/. A use is a name, an attribute or an import of it, or a string
literal that is exactly the name (as in a table of names to trace); a
word in a comment, a docstring or a message is not. A name only tests
call belongs in the test that calls it. Every module-level private
function must be used in src/liouville outside its own body, and every
name a module imports at module level must be used in that module, so a
deletion cannot leave a helper or an import behind. The (x, y) ring that
y_{d,q} and the Killing operator share is defined once, in polyspaces.
"""

import ast
from collections import Counter
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


def uses(tree):
    """Each use of a name in tree, one item per use."""
    skip = set(map(id, docstrings(tree)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, str) and id(node) not in skip):
            yield node.value


def used_names():
    """Every name that the Python under CALLERS uses."""
    return {name for top in CALLERS
            for path in sorted((ROOT / top).rglob("*.py"))
            for name in uses(ast.parse(path.read_text()))}


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


def test_every_private_function_has_a_caller():
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    helpers = [node for tree in trees for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.endswith("__")]
    used = Counter(name for tree in trees for name in uses(tree))
    orphans = [f.name for f in helpers
               if used[f.name] == Counter(uses(f))[f.name]]
    assert helpers
    assert not orphans, f"private functions nothing in src/ calls: {orphans}"


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        unused += [f"{path.stem}: {name}" for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names
                   if (name := (alias.asname or alias.name).partition(".")[0])
                   not in loaded]
    assert not unused, f"imports their module does not use: {unused}"


RING = ["bipoly_basis", "_polarize", "_pairs"]


def imported_modules(tree):
    """The last dotted name of each module an import in tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.rpartition(".")[2] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rpartition(".")[2]
            if node.module in (None, "liouville"):
                yield from (a.name for a in node.names)


def test_the_xy_ring_has_one_home():
    # the bidegree basis, the polarization and the z_k z_l table of the
    # (x, y) ring are defined in polyspaces alone, and killing reads them
    # from there, not through young_map
    homes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in RING:
                homes.setdefault(node.name, []).append(path.stem)
    assert homes == {name: ["polyspaces"] for name in RING}
    killing = ast.parse((PACKAGE / "killing.py").read_text())
    assert "polyspaces" in set(imported_modules(killing))
    assert "young_map" not in set(imported_modules(killing))
