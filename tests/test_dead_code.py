"""Every definition in the package has a reader in the package, and every
import a reader in its module.

A name check, not a call graph: a def or class, or a name a module binds
at top level by assignment (a constant, or an alias such as `Degree`),
counts as used when some expression, attribute or import anywhere in
src/roqcharts reads it (its own definition does not), so it only catches
names that nothing in src/ reads.  An imported name counts as used when
an expression of the importing module reads it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "roqcharts"

# the slice re-indexing, read only by tests until it gets a caller in src/
UNREFERENCED = {"bss_to_sss", "sss_to_bss", "sss_entry_e1", "sss_entry_einf"}


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _read_names(trees) -> set[str]:
    """Every name some expression, attribute or import reads."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
    return read


def test_every_definition_is_mentioned():
    trees = _trees().values()
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    # equal, not a subset: an allowlisted name that gets a reader fails too
    assert defined - _read_names(trees) == UNREFERENCED


def test_every_module_level_name_is_read():
    trees = _trees()
    bound = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        bound[node.id] = f"{module}:{stmt.lineno}"
    assert "Degree" in bound
    read = _read_names(trees.values())
    assert {name: where for name, where in bound.items() if name not in read} == {}


def test_every_import_is_read_in_its_module():
    # a name a module imports and never reads is left over from a reader
    # that went; `from __future__` imports bind nothing to read
    stale = {}
    for module, tree in _trees().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        stale[name] = f"{module}:{node.lineno}"
    assert stale == {}
