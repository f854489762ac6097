"""Fast tests of the benchmark itself, on tiny instances.

Run with ``python3 -m pytest -q perfbench/selftest.py`` (the file name keeps
it out of the repository's own test run).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
from vinevalue import allocator, cli, ingest  # noqa: E402
from vinevalue.config import load_config  # noqa: E402

TINY = (14, 60, 0.1)


@pytest.fixture(scope="module")
def instance():
    return inputs.generate(TINY, seed=3, counties_per_department=20)[0]


def _write(instance, directory: Path, seed: int) -> Path:
    return inputs.write_inputs(instance, directory, seed=seed, n_labels=6, k_starts=2)


def test_written_inputs_ingest_to_the_synthetic_problem(instance, tmp_path):
    cfg = load_config(_write(instance, tmp_path, seed=1))
    columns = cfg.columns
    appellations, _ = ingest.parse_customs_by_appellation(
        cfg.customs_by_appellation, code_col=columns.appellation_code,
        surface_col=columns.appellation_surface, name_col=columns.appellation_name,
        category_col=columns.appellation_category, yield_cols=columns.yield_cols,
    )
    counties, _ = ingest.parse_customs_by_county(cfg.customs_by_county)
    mask, _ = ingest.parse_inao_authorizations(cfg.inao_authorizations, appellations, counties)
    problem = allocator.build_problem(appellations, counties, mask)

    assert len(appellations) == TINY[0]
    assert checks.Problem(
        appellation_caps=problem.appellation_caps, county_caps=problem.county_caps,
        weights=problem.weights, cells=frozenset(problem.cells),
    ) == inputs.reference_problem(instance)
    assert set(problem.weights.values()) == {1.0, 1.0 / 3.0, 0.25}


def test_output_check_counts_a_corrupted_solution_cell(instance, tmp_path):
    cfg = load_config(_write(instance, tmp_path / "in", seed=1),
                      overrides={"output.directory": str(tmp_path / "out")})
    cli.run_pipeline(cfg)
    out = cfg.output_dir
    failures, _ = checks.check_run(out, None)
    assert failures == []
    digest = checks.directory_digest(out)

    report_path = out / "solve_report.json"
    report_text = report_path.read_text(encoding="utf-8")
    report = json.loads(report_text)
    report["average_objective"] = report["optimal_value"] * (1 - 2 * checks.OBJECTIVE_REL_TOL)
    report_path.write_text(json.dumps(report), encoding="utf-8")
    failures, _ = checks.check_run(out, None)
    assert any("below optimum" in message for message in failures)
    report_path.write_text(report_text, encoding="utf-8")

    solution = out / "solution.csv"
    header, first, *rest = solution.read_text(encoding="utf-8").splitlines()
    code, insee, value = first.split(";")
    corrupted = f"{code};{insee};{float(value) * 1000.0!r}"
    solution.write_text("\n".join([header, corrupted, *rest]) + "\n", encoding="utf-8")

    failures, _ = checks.check_run(out, None)
    assert any("over cap" in message for message in failures)
    assert checks.directory_digest(out) != digest


def test_inputs_depend_on_the_seed_only(instance, tmp_path):
    def written(directory: Path, seed: int) -> dict[str, bytes]:
        _write(instance, directory, seed)
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    first = written(tmp_path / "a", seed=1)
    assert written(tmp_path / "b", seed=1) == first
    other = written(tmp_path / "c", seed=2)
    assert other.keys() == first.keys()
    assert other["prices.csv"] != first["prices.csv"]
    assert other["appellations.csv"] != first["appellations.csv"]
