"""Every name that README.md's Python examples import from tourbench resolves."""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _imports() -> list[tuple[str, str]]:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    return [
        (node.module, alias.name)
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tourbench"
        for alias in node.names
    ]


def _resolves(module: str, name: str) -> bool:
    # As the import statement does: an attribute of the module, or its submodule.
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_readme_imports_resolve():
    imports = _imports()
    assert imports, "README.md has no Python example importing from tourbench"
    missing = [f"from {m} import {name}" for m, name in imports if not _resolves(m, name)]
    assert missing == []
