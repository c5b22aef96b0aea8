"""Every definition in the package has a reader in the package.

A name check, not a call graph: a def or class counts as used when some
name, attribute or import anywhere in src/roqcharts mentions it (the
def or class statement itself does not), so it only catches names that
nothing in src/ mentions.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "roqcharts"

# the slice re-indexing, read only by tests until it gets a caller in src/
UNREFERENCED = {"bss_to_sss", "sss_to_bss", "sss_entry_e1", "sss_entry_einf"}


def test_every_definition_is_mentioned():
    defined, mentioned = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.alias):
                mentioned.add(node.name.rpartition(".")[2])
    # equal, not a subset: an allowlisted name that gets a reader fails too
    assert defined - mentioned == UNREFERENCED
