"""The package's modules reach each other only through public names."""

import ast
from pathlib import Path

import mrpsim

_PACKAGE = Path(mrpsim.__file__).resolve().parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "mrpsim":
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names if _private(alias.name)]
    assert found == []
