"""Each jamloop module uses only the public names of the others."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jamloop"


def test_no_private_name_imported_from_another_module():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("jamloop"):
                continue  # another package
            private += [f"{path.name}:{node.lineno}: {alias.name}"
                        for alias in node.names if alias.name.startswith("_")]
    assert not private, f"private names imported across modules: {private}"
