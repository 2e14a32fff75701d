"""src/ keeps only what src/ uses: every top-level function and class, and
every non-dunder method, is named (as a name or an attribute) somewhere in
src/fusiondepth. Code that only tests reach fails here unless it is
allowlisted with a reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fusiondepth"

ALLOWED = {
    "nonoccluded_mask": "test oracle for the renderer, the gt warp (criterion 7) and recovery MAE (criterion 3)",
    "default_config_text": "the README's way to write a config",
}


def definitions(tree):
    """(qualified name, bare name) of each top-level def and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def scan():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    defined = {(file, qual, name) for file, tree in trees.items() for qual, name in definitions(tree)}
    return defined, named


def test_every_definition_is_named_in_src():
    defined, named = scan()
    unused = sorted(f"{file}: {qual}" for file, qual, name in defined if name not in named and name not in ALLOWED)
    assert not unused, "defined in src/ but never named there: " + ", ".join(unused)


def test_allowlist_entries_are_still_unused_definitions():
    defined, named = scan()
    names = {name for _, _, name in defined}
    for name in ALLOWED:
        assert name in names, f"{name} is no longer defined; drop it from ALLOWED"
        assert name not in named, f"{name} is now named in src/; drop it from ALLOWED"
