import ast
from pathlib import Path

import phasesort

# The packed Gram layout, the shifted-Cholesky kernel and the screens' error
# allowances
SCREEN_NAMES = {
    "pack", "unpack", "packed_pairs", "_row_starts", "_packed_order", "shifted_cholesky_ok",
    "_shifted_cholesky_ok_inplace", "GRAM_SCREEN_SLACK", "_gram_screen_errors",
}


def _names(tree):
    """Every name a module defines, binds, imports or reads, attributes included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword):
            yield node.arg


def test_only_screens_defines_or_references_the_packed_layout():
    # one module owns the Gram screens' layout, kernel and allowances; the
    # others call the screens
    src = Path(phasesort.__file__).parent
    users = {}
    for path in sorted(src.glob("*.py")):
        found = SCREEN_NAMES & set(_names(ast.parse(path.read_text(encoding="utf-8"))))
        if found:
            users[path.name] = found
    assert users == {"screens.py": SCREEN_NAMES}
