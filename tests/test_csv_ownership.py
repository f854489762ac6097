"""The artifact tables have one owner: ``model.write_rows``/``read_rows``
fix their dialect, and ``ingest`` alone parses the outside input files. No
other module may reach for the ``csv`` module."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vinevalue"


def _imports_csv(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "csv":
            return True
    return False


def test_only_model_and_ingest_import_csv():
    importers = {p.name for p in sorted(PACKAGE.glob("*.py")) if _imports_csv(p)}
    assert importers == {"model.py", "ingest.py"}
