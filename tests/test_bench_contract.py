"""The benchmark tracer (``perfbench/tracing.py``) wraps program functions
by module and attribute name. It records a name it cannot find as missing
and drops the metrics built on it without an error, so a rename in the
program must fail here instead. The same holds for the result fields the
tracer and the input writer read, and for the configuration fields the
benchmark scripts read: their self-tests are not collected with this
suite."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

from vinevalue import cli, synth
from vinevalue.config import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
ALSACE_CONFIG = Path(__file__).parent / "fixtures" / "alsace" / "pipeline.ini"


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


def test_config_fields_read_by_the_benchmark_exist():
    cfg = load_config(ALSACE_CONFIG)
    owners = {"cfg": cfg, "columns": cfg.columns}
    reads = {
        (node.value.id, node.attr)
        for script in PERFBENCH.glob("*.py")
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in owners
    }
    assert reads
    assert sorted(f"{owner}.{attr}" for owner, attr in reads
                  if not hasattr(owners[owner], attr)) == []


def test_traced_run_reads_every_result(tracing, monkeypatch, tmp_path):
    # The tracer replaces module attributes; monkeypatch puts them back.
    for table in (tracing.WRAPPED, tracing.COUNTED):
        for module_name, attrs in table.items():
            module = importlib.import_module(f"vinevalue.{module_name}")
            for attr in attrs:
                monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracing.install()
    cfg = load_config(ALSACE_CONFIG, overrides={"output.directory": str(tmp_path)})
    cli.run_pipeline(cfg)
    names = {span.name for span in tracer.spans}
    assert {"allocator.multi_start_average", "validate.compare_solutions"} <= names
    assert [span.name for span in tracer.spans if span.attrs.get("unreadable")] == []


def test_synthetic_truth_cells_are_a_mapping():
    # The benchmark's input writer iterates over ``truth.cells.items()``.
    instance = synth.generate((4, 10, 0.5), seed=0)
    assert isinstance(instance.truth.cells, Mapping)
