"""The benchmark tracer (``perfbench/tracing.py``) wraps program functions
by module and attribute name. It records a name it cannot find as missing
and drops the metrics built on it without an error, so a rename in the
program must fail here instead."""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while being built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("table", ["WRAPPED", "COUNTED"])
def test_traced_names_resolve(tracing, table):
    missing = [
        f"{module_name}.{attr}"
        for module_name, attrs in getattr(tracing, table).items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"vinevalue.{module_name}"), attr, None))
    ]
    assert missing == []
