"""Each jamloop module uses only the public names of the others."""

import ast
import os
import subprocess
import sys
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


def test_every_imported_name_is_used():
    # __init__.py's imports are the package's exports
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}:{node.lineno}: {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in read]
    assert not unused, f"imported names never used: {unused}"


def test_cli_import_does_not_load_yaml():
    # PyYAML is imported by the two functions that read a YAML file, not at import
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", "import sys, jamloop, jamloop.cli; "
                          "print('yaml' in sys.modules)"],
                         capture_output=True, text=True, env=env, timeout=60, check=False)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "False"
