from __future__ import annotations

import hashlib
import json
import logging
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from vinevalue import allocator, cli, linkage, validate
from vinevalue.cli import (
    CATEGORY_CSV,
    COMPARISON_JSON,
    PORTFOLIO_CSV,
    REGION_CSV,
    SOLUTION_CSV,
    SOLVE_REPORT,
    SYNTH_REPORT,
    VALUE_REPORT,
    YIELDS_CSV,
)
from vinevalue.config import load_config

END_TO_END_ARTIFACTS = [
    "appellations.csv", "counties.csv", "mask.csv", "prices.csv",
    "ingest_report.jsonl", "matches.csv", YIELDS_CSV, SOLUTION_CSV,
    SOLVE_REPORT, COMPARISON_JSON, "scatter.csv", PORTFOLIO_CSV,
    CATEGORY_CSV, REGION_CSV, VALUE_REPORT,
]


def run_cli(*args) -> int:
    return cli.main(list(args))


def artifact_bytes(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """One shared end-to-end run over the bundled fixture."""
    config = Path(__file__).parent / "fixtures" / "alsace" / "pipeline.ini"
    out = tmp_path_factory.mktemp("pipeline")
    rc = cli.main(["run", "--config", str(config), "--output-dir", str(out)])
    assert rc == 0
    return out


class TestEndToEnd:
    def test_all_artifacts_written(self, pipeline_out):
        for name in END_TO_END_ARTIFACTS:
            assert (pipeline_out / name).exists(), name

    def test_portfolio_has_nineteen_rows(self, pipeline_out):
        lines = (pipeline_out / PORTFOLIO_CSV).read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) - 1 == 19

    def test_expected_yields_match_targets(self, pipeline_out):
        rows = (pipeline_out / YIELDS_CSV).read_text(encoding="utf-8").strip().splitlines()[1:]
        table = {r.split(";")[0]: float(r.split(";")[1]) for r in rows}
        assert table["1B001M"] == 73.16
        assert table["1B001S"] == 64.60
        assert table["1S001M"] == 63.59

    def test_restricted_appellation_stays_in_county(self, pipeline_out):
        rows = (pipeline_out / SOLUTION_CSV).read_text(encoding="utf-8").strip().splitlines()[1:]
        kaefferkopf = [r for r in rows if r.startswith("1B053S")]
        assert len(kaefferkopf) == 1
        assert kaefferkopf[0].split(";")[1] == "67051"

    def test_solve_report_objective_unaffected_by_starts(self, pipeline_out):
        report = json.loads((pipeline_out / SOLVE_REPORT).read_text(encoding="utf-8"))
        # Agreement between starts is recorded only in comparison.json.
        assert set(report) == {
            "n_active_cells", "k_starts", "n_solved", "failures", "optimal_value",
            "average_objective",
        }
        assert report["n_solved"] == 20
        assert report["average_objective"] == pytest.approx(report["optimal_value"], rel=1e-12)

    def test_every_start_reaches_the_optimum(self, alsace_config, pipeline_out):
        problem = allocator.load_problem(pipeline_out / "problem")
        low, high = allocator.optimal_value(problem).bounds.T
        # The Alsace face fixes one cell at its cap through its reduced cost.
        assert np.count_nonzero((low == high) & (high > 0.0)) == 1
        seed = load_config(alsace_config).seed
        result = allocator.multi_start_average(problem, k_starts=20, seed_base=seed)
        assert len(result.solutions) == 20
        for solution in [*result.solutions, result.average]:
            assert allocator.objective(problem.weights, solution.cells) == pytest.approx(
                result.optimal_value, rel=1e-12)

    def test_start_agreement_is_pinned(self, pipeline_out):
        comparison = json.loads((pipeline_out / COMPARISON_JSON).read_text(encoding="utf-8"))
        assert comparison["solutions"] == {
            "kendall_tau": 0.24358776223344678,
            "kendall_tau_min": -0.2777777777777778,
            "restricted_tau": -0.042105263157894736,
            "restricted_tau_min": -1.0,
            "pair_count": 19,
            "restricted_count": 2,
            "notes": {"solution_count": 20, "tau_pairs": 190},
        }

    def test_category_summary_single_category(self, pipeline_out):
        lines = (pipeline_out / CATEGORY_CSV).read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(";")
        assert fields[0] == "AOP"
        assert float(fields[2]) == 1.0

    def test_region_summary_covers_both_regions(self, pipeline_out):
        lines = (pipeline_out / REGION_CSV).read_text(encoding="utf-8").strip().splitlines()
        regions = {line.split(";")[0] for line in lines[1:]}
        assert regions == {"RA-6701", "RA-6702"}


class TestDeterminism:
    def test_two_runs_byte_identical(self, alsace_config, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run_cli("run", "--config", str(alsace_config), "--output-dir", str(first)) == 0
        assert run_cli("run", "--config", str(alsace_config), "--output-dir", str(second)) == 0
        assert artifact_bytes(first) == artifact_bytes(second)

    def test_staged_equals_end_to_end(self, alsace_config, pipeline_out, tmp_path):
        staged = tmp_path / "staged"
        for stage in ("ingest", "link", "yields", "solve", "validate", "value"):
            rc = run_cli(stage, "--config", str(alsace_config), "--output-dir", str(staged))
            assert rc == 0, stage
        assert artifact_bytes(staged) == artifact_bytes(pipeline_out)

    def test_seed_override_changes_solution(self, alsace_config, pipeline_out, tmp_path):
        other = tmp_path / "other-seed"
        rc = run_cli(
            "run", "--config", str(alsace_config),
            "--output-dir", str(other), "--seed", "999",
        )
        assert rc == 0
        assert (other / SOLUTION_CSV).read_bytes() != (pipeline_out / SOLUTION_CSV).read_bytes()
        first_report = json.loads((pipeline_out / SOLVE_REPORT).read_text())
        other_report = json.loads((other / SOLVE_REPORT).read_text())
        assert other_report["optimal_value"] == pytest.approx(
            first_report["optimal_value"], rel=1e-9
        )


class TestSolutionAgreement:
    def test_compared_once_in_validate(self, alsace_config, tmp_path, monkeypatch):
        calls = {"total": 0, "in_solve": 0}
        inside_solve = False
        compare = validate.compare_solutions
        average = allocator.multi_start_average

        def counting_compare(*args, **kwargs):
            calls["total"] += 1
            calls["in_solve"] += inside_solve
            return compare(*args, **kwargs)

        def flagged_average(*args, **kwargs):
            nonlocal inside_solve
            inside_solve = True
            try:
                return average(*args, **kwargs)
            finally:
                inside_solve = False

        monkeypatch.setattr(validate, "compare_solutions", counting_compare)
        monkeypatch.setattr(allocator, "multi_start_average", flagged_average)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(alsace_config), "--output-dir", str(out)) == 0
        assert calls == {"total": 1, "in_solve": 0}

    def test_fewer_starts_replace_earlier_start_files(self, alsace_config, tmp_path):
        out = tmp_path / "out"
        for k in ("5", "2"):
            rc = run_cli("run", "--config", str(alsace_config),
                         "--output-dir", str(out), "--k-starts", k)
            assert rc == 0
        assert sorted(p.name for p in (out / "solutions").iterdir()) == [
            "start_000.csv", "start_001.csv",
        ]
        notes = json.loads((out / COMPARISON_JSON).read_text(encoding="utf-8"))["solutions"]["notes"]
        assert notes == {"solution_count": 2, "tau_pairs": 1}


def scale_county_surfaces(fixture: Path, factor: float) -> None:
    """Multiply every county surface of the Alsace inputs in ``fixture`` by
    ``factor``; at 0.8 the counties cannot hold every appellation row, so the
    starts run on the phase-1 face."""
    path = fixture / "customs_counties.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    scaled = [f"{insee};{factor * float(surface)!r}"
              for insee, surface in (row.split(";") for row in rows)]
    path.write_text("\n".join([header, *scaled]) + "\n", encoding="utf-8")


class TestAllocationsEqualTheirFiles:
    """Every allocation the solver hands out holds exactly the cells of the
    file it is written to, in keys and float bits."""

    @staticmethod
    def run_and_compare(monkeypatch, command, config, out):
        results = []
        average = allocator.multi_start_average

        def kept(*args, **kwargs):
            results.append(average(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(allocator, "multi_start_average", kept)
        assert run_cli(command, "--config", str(config), "--output-dir", str(out)) == 0
        [result] = results
        paths = sorted((out / "solutions").glob("start_*.csv"))
        assert len(paths) == len(result.solutions)
        for solution, path in zip(result.solutions, paths):
            assert solution.cells == allocator.read_solution(path)
        assert result.average.cells == allocator.read_solution(out / SOLUTION_CSV)
        return result

    def test_alsace(self, alsace_config, tmp_path, monkeypatch):
        result = self.run_and_compare(monkeypatch, "run", alsace_config, tmp_path / "out")
        assert len(result.solutions) == 20

    def test_alsace_on_the_phase_one_face(self, alsace_config, tmp_path, monkeypatch):
        fixture = shutil.copytree(alsace_config.parent, tmp_path / "alsace")
        scale_county_surfaces(fixture, 0.8)
        out = tmp_path / "out"
        result = self.run_and_compare(monkeypatch, "run", fixture / "pipeline.ini", out)
        problem = allocator.load_problem(out / "problem")
        filled = math.fsum(problem.weights[code] * cap
                           for code, cap in problem.appellation_caps.items())
        assert result.optimal_value < filled

    def test_sifted_synth(self, tmp_path, monkeypatch):
        config = Path(__file__).parent / "fixtures" / "sifted_synth.ini"
        result = self.run_and_compare(monkeypatch, "synth", config, tmp_path / "out")
        assert len(result.solutions) == 8


class TestStageIsolation:
    def test_missing_intermediate_names_prior_stage(self, alsace_config, tmp_path, caplog):
        out = tmp_path / "empty"
        for stage, prior in (("value", "solve"), ("solve", "ingest")):
            caplog.clear()
            rc = run_cli(stage, "--config", str(alsace_config), "--output-dir", str(out))
            assert rc == 2
            assert any(f"run the '{prior}' stage" in r.message for r in caplog.records)

    def test_solve_from_problem_triple_only(self, alsace_config, pipeline_out, tmp_path):
        # A dumped problem triple alone is enough to run the solve stage.
        out = tmp_path / "triple"
        out.mkdir()
        shutil.copytree(pipeline_out / "problem", out / "problem")
        rc = run_cli("solve", "--config", str(alsace_config), "--output-dir", str(out))
        assert rc == 0
        assert (out / SOLUTION_CSV).read_bytes() == (pipeline_out / SOLUTION_CSV).read_bytes()

    def test_validate_from_solution_files(self, alsace_config, pipeline_out, tmp_path):
        out = tmp_path / "revalidate"
        (out / "solutions").mkdir(parents=True)
        for path in sorted((pipeline_out / "solutions").glob("start_*.csv"))[:2]:
            shutil.copy(path, out / "solutions" / path.name)
        rc = run_cli("validate", "--config", str(alsace_config), "--output-dir", str(out))
        assert rc == 0
        payload = json.loads((out / COMPARISON_JSON).read_text(encoding="utf-8"))
        assert payload["solutions"]["pair_count"] > 0

    def test_value_does_not_read_prices_csv(self, alsace_config, pipeline_out, tmp_path):
        # Every match carries its own row's price, so matches.csv is enough.
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        (out / "prices.csv").unlink()
        (out / PORTFOLIO_CSV).unlink()
        assert run_cli("value", "--config", str(alsace_config), "--output-dir", str(out)) == 0
        assert (out / PORTFOLIO_CSV).read_bytes() == (pipeline_out / PORTFOLIO_CSV).read_bytes()

    @pytest.mark.parametrize("stage, name, old_layout, error", [
        # appellations.csv when it still had a colour column.
        ("yields", "appellations.csv",
         lambda row: [*row[:3], "color" if row[0] == "code" else "UNKNOWN", *row[3:]],
         " has columns "),
        # matches.csv before it carried each row's price and production mode.
        ("value", "matches.csv", lambda row: row[:4], " has columns "),
        # A field that does not parse, from the first data row on.
        ("value", "expected_yields.csv",
         lambda row: row if row[0] == "code" else [*row[:2], "abc"],
         " line 2: 'abc' is not a valid YieldProvenance; "),
        ("value", "matches.csv",
         lambda row: row if row[0] == "label" else [*row[:2], "abc", *row[3:]],
         " line 2: could not convert string to float: 'abc'; "),
        ("value", "solution.csv",
         lambda row: row if row[0] == "appellation" else [*row[:2], "abc"],
         " line 2: could not convert string to float: 'abc'; "),
        # A number field that parses but is not finite.
        ("value", "solution.csv",
         lambda row: row if row[0] == "appellation" else [*row[:2], "nan"],
         " line 2: non-finite number 'nan'; "),
        ("value", "expected_yields.csv",
         lambda row: row if row[0] == "code" else [row[0], "nan", row[2]],
         " line 2: non-finite number 'nan'; "),
        # A yield history that is JSON but not an object of numbers.
        ("yields", "appellations.csv",
         lambda row: row if row[0] == "code" else [*row[:4], "[1]"],
         " line 2: yield history '[1]' is not an object of numbers; "),
        ("yields", "appellations.csv",
         lambda row: row if row[0] == "code" else [*row[:4], '"{""2018"": [1]}"'],
         """ line 2: yield history '{"2018": [1]}' is not an object of numbers; """),
    ], ids=["appellations", "matches", "yields-provenance", "matches-distance",
            "solution-surface", "solution-nan", "yields-nan", "history-list",
            "history-nested-list"])
    def test_stale_layout_is_a_one_line_stage_error(
        self, alsace_config, pipeline_out, tmp_path, caplog, stage, name, old_layout, error
    ):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        (out / name).write_text(
            "".join(";".join(old_layout(line.split(";"))) + "\r\n" for line in lines),
            encoding="utf-8",
        )
        with caplog.at_level(logging.ERROR):
            rc = run_cli(stage, "--config", str(alsace_config), "--output-dir", str(out))
        assert rc == 2
        [record] = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert record.exc_info is None
        message = record.getMessage()
        assert "\n" not in message
        assert message.startswith(f"[{stage}] {name}{error}")
        assert message.endswith("re-run the stage that writes it")

    def test_negative_surface_is_a_one_line_stage_error(
        self, alsace_config, pipeline_out, tmp_path, caplog
    ):
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        header, first, *rest = (out / SOLUTION_CSV).read_text(encoding="utf-8").splitlines()
        first = ";".join([*first.split(";")[:2], "-13.2"])
        (out / SOLUTION_CSV).write_text(
            "".join(line + "\r\n" for line in (header, first, *rest)), encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            rc = run_cli("value", "--config", str(alsace_config), "--output-dir", str(out))
        assert rc == 2
        [record] = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert record.getMessage() == (
            f"[value] {SOLUTION_CSV} line 2: negative surface '-13.2'; "
            "re-run the stage that writes it")


class TestSharedProblem:
    """``solve`` reads nothing but ``problem/``, so a bad value there is a
    one-line stage error that names its file."""

    @pytest.mark.parametrize("name, old, new, message", [
        ("caps_appellations.csv", "1B001M;69.5;1.0", "1B001M;69.5;nan",
         "caps_appellations.csv: weights must be finite and > 0: '1B001M' = nan"),
        ("caps_counties.csv", "67003;48.7", "67003;-5.0",
         "caps_counties.csv: county caps must be finite and >= 0: '67003' = -5.0"),
        ("caps_counties.csv", "67003;48.7", "67003;nan",
         "caps_counties.csv: county caps must be finite and >= 0: '67003' = nan"),
        ("caps_counties.csv", "67003;48.7", "67003;inf",
         "caps_counties.csv: county caps must be finite and >= 0: '67003' = inf"),
        ("caps_counties.csv", "67003;48.7", "67003;abc",
         "caps_counties.csv line 2: could not convert string to float: 'abc'; "
         "re-run the stage that writes it"),
        ("mask_cells.csv", "1B001M;67003;", "1B001M;67003;nan",
         "mask_cells.csv: known surfaces must be finite and >= 0: ('1B001M', '67003') = nan"),
        ("mask_cells.csv", "appellation;insee;known_ha", "appellation;insee",
         "mask_cells.csv has columns 'appellation;insee', not 'appellation;insee;known_ha'; "
         "re-run the stage that writes it"),
        ("mask_cells.csv", "1B001M;67003;", "1B001M;67003",
         "mask_cells.csv line 2 has 2 fields, not 3; re-run the stage that writes it"),
    ], ids=["alpha-nan", "cap-negative", "cap-nan", "cap-inf", "cap-abc", "known-nan",
            "two-column-mask", "short-mask-row"])
    def test_bad_value_is_a_one_line_stage_error(
        self, alsace_config, pipeline_out, tmp_path, caplog, name, old, new, message
    ):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out / "problem", out / "problem")
        path = out / "problem" / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[lines.index(old)] = new
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            rc = run_cli("solve", "--config", str(alsace_config), "--output-dir", str(out))
        assert rc == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
            f"[solve] {message}"
        ]

    def test_infeasible_estimate_is_a_one_line_stage_error(
        self, alsace_config, pipeline_out, tmp_path, caplog, monkeypatch
    ):
        real = allocator.multi_start_average

        def one_cell_scaled(*args, **kwargs):
            result = real(*args, **kwargs)
            cell = min(result.average.cells)
            result.average.cells[cell] *= 1000
            return result

        monkeypatch.setattr(allocator, "multi_start_average", one_cell_scaled)
        out = tmp_path / "out"
        shutil.copytree(pipeline_out / "problem", out / "problem")
        with caplog.at_level(logging.ERROR):
            rc = run_cli("solve", "--config", str(alsace_config), "--output-dir", str(out))
        assert rc == 2
        [message] = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert message.startswith("[solve] appellation 1B001M over cap: ")

    def test_non_finite_price_is_a_row_error(self, alsace_config, tmp_path):
        fixture = shutil.copytree(alsace_config.parent, tmp_path / "alsace")
        prices = fixture / "prices.csv"
        prices.write_text(
            prices.read_text(encoding="utf-8").replace(";265\n", ";nan\n", 1), encoding="utf-8"
        )
        out = tmp_path / "out"
        rc = run_cli("run", "--config", str(fixture / "pipeline.ini"), "--output-dir", str(out))
        assert rc == 0
        [price_report] = [json.loads(line) for line in
                          (out / "ingest_report.jsonl").read_text(encoding="utf-8").splitlines()
                          if json.loads(line)["dataset"] == "price_scale"]
        assert price_report["row_errors"] == [{"line": 4, "message": "malformed price 'nan'"}]

        def no_constant(name):
            raise AssertionError(f"{name} in {VALUE_REPORT}")

        report = json.loads((out / VALUE_REPORT).read_text(encoding="utf-8"),
                            parse_constant=no_constant)
        assert math.isfinite(report["total_value_eur"])
        assert "nan" not in (out / CATEGORY_CSV).read_text(encoding="utf-8")


class TestSynthMode:
    def test_run_with_synth_flag(self, alsace_config, tmp_path):
        out = tmp_path / "synth"
        rc = run_cli(
            "synth", "--config", str(alsace_config),
            "--output-dir", str(out), "--k-starts", "3",
        )
        assert rc == 0
        report = json.loads((out / SYNTH_REPORT).read_text(encoding="utf-8"))
        assert -1.0 <= report["cell_tau"] <= 1.0
        assert -1.0 <= report["aggregate_tau"] <= 1.0
        assert (out / "truth.csv").exists()
        assert (out / SOLUTION_CSV).exists()
        # The solve stage itself runs, so its outputs are written too.
        solve_report = json.loads((out / SOLVE_REPORT).read_text(encoding="utf-8"))
        assert solve_report["k_starts"] == solve_report["n_solved"] == 3
        assert sorted(p.name for p in (out / "solutions").iterdir()) == [
            "start_000.csv", "start_001.csv", "start_002.csv",
        ]

    def test_synth_subcommand_deterministic(self, alsace_config, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            rc = run_cli(
                "synth", "--config", str(alsace_config),
                "--output-dir", str(out), "--seed", "77", "--k-starts", "2",
            )
            assert rc == 0
        assert artifact_bytes(a) == artifact_bytes(b)

    def test_run_has_no_synth_flag(self, alsace_config, tmp_path):
        # ``vinevalue synth`` is the one way to run the synthetic mode.
        with pytest.raises(SystemExit):
            run_cli("run", "--synth", "--config", str(alsace_config),
                    "--output-dir", str(tmp_path / "out"))


@pytest.fixture
def extended_config(tmp_path):
    """Config exercising the optional inputs: pseudo-appellation injection,
    supplemental known cells, and a reference-aggregates comparison."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "apps.csv").write_text(
        "cvi;name;surface_ha\n"
        "1B001M01;Blanc un;40.0\n"
        "1B001M02;Blanc un;20.0\n"
        "3B011M01;Rose deux;30.0\n",
        encoding="utf-8",
    )
    (data / "counties.csv").write_text(
        "insee;surface_ha\n67003;50.0\n67051;40.0\n68001;30.0\n", encoding="utf-8"
    )
    (data / "inao.csv").write_text(
        "appellation;insee\n"
        "1B001M;67003\n1B001M;67051\n3B011M;67051\n3B011M;68001\n",
        encoding="utf-8",
    )
    (data / "prices.csv").write_text(
        "label;price_eur_hl\nBlanc un C;200\nRose deux C;100\n", encoding="utf-8"
    )
    (data / "nonpgi.csv").write_text("dept;surface_ha\n67;12.0\n", encoding="utf-8")
    (data / "champagne.csv").write_text(
        "appellation;insee;surface_ha;name\n7C001M;68001;3.5;Champagne test\n",
        encoding="utf-8",
    )
    (data / "reference.csv").write_text(
        "department;wine_type;surface_ha\n67;AOP;55.0\n67;NON_PGI;12.0\n68;AOP;5.0\n",
        encoding="utf-8",
    )
    config = tmp_path / "pipeline.ini"
    config.write_text(
        "[inputs]\n"
        "customs_by_appellation = data/apps.csv\n"
        "customs_by_county = data/counties.csv\n"
        "inao_authorizations = data/inao.csv\n"
        "price_scale = data/prices.csv\n"
        "non_pgi_by_department = data/nonpgi.csv\n"
        "champagne_cells = data/champagne.csv\n"
        "reference_aggregates = data/reference.csv\n"
        "[columns.appellations]\n"
        "code = cvi\nsurface = surface_ha\nname = name\n"
        "[solver]\n"
        "k_starts = 4\nseed = 11\n"
        "[validate]\n"
        "reference_min_hectares = 10\n",
        encoding="utf-8",
    )
    return config


class TestOptionalInputs:
    def test_pipeline_with_all_optional_inputs(self, extended_config, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("run", "--config", str(extended_config), "--output-dir", str(out))
        assert rc == 0

        # Pseudo-appellation injected for department 67 only.
        apps = (out / "appellations.csv").read_text(encoding="utf-8")
        assert "NONPGI67" in apps
        assert "PSEUDO_NON_PGI" in apps

        # The supplemental champagne cell is a column of the problem fixed at
        # its surface, and lands in the solution and the valued portfolio.
        problem = allocator.load_problem(out / "problem")
        assert {cell: lb for cell, lb in zip(problem.cells, problem.lower_bounds) if lb} == {
            ("7C001M", "68001"): 3.5}
        solution = (out / SOLUTION_CSV).read_text(encoding="utf-8")
        assert "7C001M;68001;3.5" in solution
        portfolio = (out / PORTFOLIO_CSV).read_text(encoding="utf-8")
        assert "7C001M Champagne test" in portfolio

        # Aggregate comparison against the reference table ran and produced
        # scatter rows for every key.
        comparison = json.loads((out / COMPARISON_JSON).read_text(encoding="utf-8"))
        assert comparison["aggregates"] is not None
        scatter = (out / "scatter.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(scatter) > 1

        # Category summary covers AOP and the folded pseudo non-PGI row.
        categories = (out / CATEGORY_CSV).read_text(encoding="utf-8")
        assert "AOP" in categories and "NON_PGI" in categories

    def test_value_report_counts_price_fallbacks(self, extended_config, tmp_path):
        # The pseudo-appellation and champagne code have no price-scale rows,
        # so their cells are valued with the fallback median and flagged.
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(extended_config), "--output-dir", str(out)) == 0
        report = json.loads((out / VALUE_REPORT).read_text(encoding="utf-8"))
        assert report["price_fallbacks"] >= 1
        assert "7C001M" in report["fallback_codes"] or "NONPGI67" in report["fallback_codes"]

    def test_reference_total_echoed_next_to_portfolio_total(self, extended_config, tmp_path):
        config_text = extended_config.read_text(encoding="utf-8")
        config_text = config_text.replace(
            "[validate]\n", "[validate]\nreference_total_eur = 1000000\n"
        )
        extended_config.write_text(config_text, encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(extended_config), "--output-dir", str(out)) == 0
        report = json.loads((out / VALUE_REPORT).read_text(encoding="utf-8"))
        assert report["reference_total_eur"] == 1000000
        assert report["total_over_reference"] == pytest.approx(
            report["total_value_eur"] / 1000000
        )

    def test_weights_override_reaches_codes_without_mask_rows(self, extended_config, tmp_path):
        # 7C001M exists only through its known cell and has no mask row: like
        # every code, it takes the configured weight of its category (AOP).
        extended_config.write_text(
            extended_config.read_text(encoding="utf-8") + "[weights]\naop = 0.5\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(extended_config), "--output-dir", str(out)) == 0
        assert (out / "problem" / "caps_appellations.csv").read_text(encoding="utf-8") == (
            "code;cap_ha;alpha\n"
            "1B001M;60.0;0.5\n3B011M;30.0;0.5\n7C001M;3.5;0.5\nNONPGI67;12.0;0.25\n"
        )
        report = json.loads((out / SOLVE_REPORT).read_text(encoding="utf-8"))
        assert report["optimal_value"] == 49.75

    def test_duplicated_supplemental_cell_rows_are_summed(self, extended_config, tmp_path):
        (extended_config.parent / "data" / "champagne.csv").write_text(
            "appellation;insee;surface_ha;name\n"
            "7C001M;68001;3.5;Champagne test\n"
            "7C001M;68001;1.5;Champagne test\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(extended_config), "--output-dir", str(out)) == 0
        # The appellation's marginal and its known cell carry both rows.
        assert "7C001M;Champagne test;AOP;5.0;" in (
            out / "appellations.csv").read_text(encoding="utf-8")
        assert allocator.read_solution(out / SOLUTION_CSV)[("7C001M", "68001")] == 5.0

    def test_known_cell_takes_county_capacity(self, extended_config, tmp_path):
        # With 3B011M authorized only in 68001, the 3.5 ha known cell must
        # leave 26.5 ha of the county's 30 ha to the solver.
        (extended_config.parent / "data" / "inao.csv").write_text(
            "appellation;insee\n1B001M;67003\n1B001M;67051\n3B011M;68001\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(extended_config), "--output-dir", str(out)) == 0
        problem = allocator.load_problem(out / "problem")
        solution = allocator.read_solution(out / SOLUTION_CSV)
        assert allocator.feasibility_violations(problem, solution) == []
        assert solution[("7C001M", "68001")] == 3.5
        assert solution[("3B011M", "68001")] == pytest.approx(26.5, rel=1e-12)

    @pytest.mark.parametrize("cells, name", [
        ("7C001M;68001;31.0\n", "county 68001"),
        ("1B001M;67003;45.0\n1B001M;67051;20.0\n", "appellation 1B001M"),
    ], ids=["county", "appellation"])
    def test_known_cells_over_a_cap_are_a_stage_error(
        self, extended_config, tmp_path, caplog, cells, name
    ):
        (extended_config.parent / "data" / "champagne.csv").write_text(
            "appellation;insee;surface_ha\n" + cells, encoding="utf-8"
        )
        rc = run_cli("ingest", "--config", str(extended_config), "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        assert any(f"{name} over cap" in record.getMessage() for record in caplog.records)

    def test_rerun_without_known_cells_drops_them(self, extended_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(extended_config), "--output-dir", str(out)) == 0
        extended_config.write_text(
            extended_config.read_text(encoding="utf-8").replace(
                "champagne_cells = data/champagne.csv\n", ""
            ),
            encoding="utf-8",
        )
        assert run_cli("run", "--config", str(extended_config), "--output-dir", str(out)) == 0
        assert "7C001M" not in {code for code, _ in allocator.read_solution(out / SOLUTION_CSV)}
        assert not allocator.load_problem(out / "problem").lower_bounds.any()

    def test_reference_table_with_trailing_blank_line(self, extended_config, tmp_path):
        reference = extended_config.parent / "data" / "reference.csv"
        reference.write_text(reference.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(extended_config), "--output-dir", str(out)) == 0
        comparison = json.loads((out / COMPARISON_JSON).read_text(encoding="utf-8"))
        assert comparison["aggregates"]["pair_count"] == 3

    @pytest.mark.parametrize("name, text, message", [
        ("champagne.csv", "appellation;insee;surface_ha\n7C001M;68001;-2.0\n",
         "cell_surfaces: negative surface '-2.0' at line 2"),
        ("champagne.csv", "appellation;insee;surface_ha\n1B001M;68001;-2.0\n",
         "cell_surfaces: negative surface '-2.0' at line 2"),
        ("nonpgi.csv", "dept;surface_ha\n67;12.0\n68;-5\n",
         "department_surfaces: negative surface '-5' at line 3"),
    ], ids=["new-code", "known-code", "department"])
    def test_negative_supplemental_surface_is_a_stage_error(
        self, extended_config, tmp_path, caplog, name, text, message
    ):
        (extended_config.parent / "data" / name).write_text(text, encoding="utf-8")
        rc = run_cli("ingest", "--config", str(extended_config), "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        assert any(message in record.getMessage() for record in caplog.records)

    @pytest.mark.parametrize("key, stage", [("ra_map", "value"), ("region_map", "link")],
                             ids=["ra_map", "region_map"])
    def test_one_field_map_row_is_a_stage_error(
        self, extended_config, tmp_path, caplog, key, stage
    ):
        (extended_config.parent / "data" / "map.csv").write_text(
            "key;value\n67003\n", encoding="utf-8"
        )
        extended_config.write_text(
            extended_config.read_text(encoding="utf-8").replace(
                "[inputs]\n", f"[inputs]\n{key} = data/map.csv\n"
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR):
            assert run_cli("run", "--config", str(extended_config), "--output-dir", str(out)) == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
            f"[{stage}] {key}: malformed row at line 2"
        ]


class TestPinnedTotals:
    """Every per-key total is an exactly rounded ``math.fsum``, so the
    artifacts built from them are pinned to the byte."""

    def test_alsace_run(self, pipeline_out):
        assert {name: (pipeline_out / name).read_bytes() for name in (
            SOLVE_REPORT, CATEGORY_CSV, REGION_CSV, VALUE_REPORT,
        )} == {
            SOLVE_REPORT: b'{"average_objective": 281.2, "failures": [], "k_starts": 20, '
                          b'"n_active_cells": 19, "n_solved": 20, "optimal_value": 281.2}\n',
            CATEGORY_CSV: b"category;value_eur;value_share;surface_ha;surface_share\r\n"
                          b"AOP;4789837.09;1.0;281.2;1.0\r\n",
            REGION_CSV: b"agricultural_region;value_eur;surface_ha;value_eur_per_ha\r\n"
                        b"RA-6701;811418.3725;48.7;16661.5682238193\r\n"
                        b"RA-6702;3978418.7175;232.49999999999997;17111.47835483871\r\n",
            VALUE_REPORT: b'{"fallback_codes": [], "price_fallbacks": 0, "records": 19, '
                          b'"total_surface_ha": 281.2, "total_value_eur": 4789837.09}\n',
        }

    def test_synth_run(self, alsace_config, tmp_path):
        out = tmp_path / "synth"
        rc = run_cli("synth", "--config", str(alsace_config), "--output-dir", str(out),
                     "--seed", "77", "--k-starts", "2")
        assert rc == 0
        assert (out / SYNTH_REPORT).read_bytes() == (
            b'{"aggregate_tau": 0.9696969696969697, "average_objective": 1592.6749448905134, '
            b'"cell_tau": 0.07330039169751495, "max_row_relative_error": 3.6172152554755014e-16, '
            b'"n_active_cells": 265, "seed": 77, "shape": [20, 100, 0.1], '
            b'"truth_objective": 1592.6749448905134}\n'
        )
        digests = {name: hashlib.sha256((out / "problem" / name).read_bytes()).hexdigest()
                   for name in ("caps_appellations.csv", "caps_counties.csv")}
        assert digests == {
            "caps_appellations.csv":
                "d6752b000aa3e76d155e827888260e79ac0dcad396c0dfd63e5e19265d8f8f3a",
            "caps_counties.csv":
                "a0e2c58be04033ddbc7a807d9d97a4c7e02ce531fd873f983a7ed9f37ec22695",
        }

    def test_extended_run(self, extended_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(extended_config), "--output-dir", str(out)) == 0
        assert {name: (out / name).read_bytes() for name in (
            "problem/caps_appellations.csv", "problem/mask_cells.csv", "scatter.csv",
        )} == {
            "problem/caps_appellations.csv":
                b"code;cap_ha;alpha\r\n1B001M;60.0;1.0\r\n3B011M;30.0;1.0\r\n"
                b"7C001M;3.5;1.0\r\nNONPGI67;12.0;0.25\r\n",
            "problem/mask_cells.csv":
                b"appellation;insee;known_ha\r\n1B001M;67003;\r\n1B001M;67051;\r\n"
                b"3B011M;67051;\r\n3B011M;68001;\r\n7C001M;68001;3.5\r\n"
                b"NONPGI67;67003;\r\nNONPGI67;67051;\r\n",
            "scatter.csv": b"key;model_value;reference_value\r\n67|AOP;70.75;55.0\r\n"
                           b"67|NON_PGI;12.0;12.0\r\n68|AOP;22.75;5.0\r\n",
        }
        comparison = json.loads((out / COMPARISON_JSON).read_text(encoding="utf-8"))
        assert comparison["aggregates"] == {
            "kendall_tau": 0.3333333333333333,
            "kendall_tau_min": None,
            "restricted_tau": 1.0,
            "restricted_tau_min": None,
            "pair_count": 3,
            "restricted_count": 2,
            "notes": {"model_only_keys": 0, "reference_only_keys": 0},
        }


def test_relative_output_dir_is_under_working_directory(
    alsace_config, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    rc = run_cli("ingest", "--config", str(alsace_config), "--output-dir", "art/x")
    assert rc == 0
    assert (tmp_path / "art" / "x" / "appellations.csv").exists()
    assert not (alsace_config.parent / "art").exists()


class TestErrors:
    def test_missing_config_is_config_error(self, tmp_path):
        rc = run_cli("run", "--config", str(tmp_path / "nope.ini"))
        assert rc == 1

    def test_config_with_missing_input_path(self, tmp_path):
        config = tmp_path / "broken.ini"
        config.write_text(
            "[inputs]\n"
            "customs_by_appellation = missing.csv\n"
            "customs_by_county = missing.csv\n"
            "inao_authorizations = missing.csv\n"
            "price_scale = missing.csv\n",
            encoding="utf-8",
        )
        assert run_cli("run", "--config", str(config)) == 1

    def test_one_key_reference_table_is_a_stage_error(self, alsace_config, tmp_path, caplog):
        # Every Alsace cell aggregates to (67, AOP), so a one-row reference
        # table leaves a single key and no rank to compare.
        fixture = shutil.copytree(alsace_config.parent, tmp_path / "alsace")
        (fixture / "reference.csv").write_text(
            "department;wine_type;surface_ha\n67;AOP;281.2\n", encoding="utf-8"
        )
        config = fixture / "pipeline.ini"
        config.write_text(
            config.read_text(encoding="utf-8").replace(
                "[inputs]\n", "[inputs]\nreference_aggregates = reference.csv\n"
            ),
            encoding="utf-8",
        )
        with caplog.at_level(logging.ERROR):
            rc = run_cli("run", "--config", str(config), "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
            "[validate] need at least two aggregate keys to compare"
        ]

    def test_empty_portfolio_is_a_stage_error(self, alsace_config, tmp_path, caplog):
        # With every county cap at 0 the problem has no cells: solve succeeds
        # with an empty solution, and value has nothing to summarize.
        fixture = shutil.copytree(alsace_config.parent, tmp_path / "alsace")
        (fixture / "customs_counties.csv").write_text(
            "insee;surface_ha\n67003;0\n67051;0\n67155;0\n", encoding="utf-8"
        )
        with caplog.at_level(logging.ERROR):
            rc = run_cli("run", "--config", str(fixture / "pipeline.ini"),
                         "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
            "[value] empty portfolio"
        ]

    def test_one_appellation_synth_is_a_stage_error(self, tmp_path, caplog):
        config = tmp_path / "synth.ini"
        # Seed 1 draws its one appellation's cells in a single department.
        config.write_text("[solver]\nseed = 1\nk_starts = 2\n\n[synth]\nappellations = 1\n",
                          encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            rc = run_cli("synth", "--config", str(config), "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
            "[synth] need at least two aggregate keys to compare"
        ]

    def test_synth_with_97_departments_is_a_stage_error(self, tmp_path, caplog):
        # Department 97 would be read back as the overseas prefix 970.
        config = tmp_path / "synth.ini"
        config.write_text("[solver]\nseed = 1\nk_starts = 1\n\n[synth]\nappellations = 5\n"
                          "counties = 97\ncounties_per_department = 1\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            rc = run_cli("synth", "--config", str(config), "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
            "[synth] 97 departments; from 97 on a code reads as overseas 97x"
        ]

    @pytest.mark.parametrize("counties, per_department", [(1000, 1000), (1999, 999)])
    def test_synth_with_1000_counties_in_a_department_is_a_stage_error(
        self, tmp_path, caplog, counties, per_department
    ):
        # A county index has three digits; the last department takes the
        # remainder, so 1999 counties at 999 a department leave it 1000.
        config = tmp_path / "synth.ini"
        config.write_text(f"[solver]\nseed = 1\nk_starts = 1\n\n[synth]\nappellations = 5\n"
                          f"counties = {counties}\ncounties_per_department = {per_department}\n",
                          encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            rc = run_cli("synth", "--config", str(config), "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
            f"[synth] 1000 counties in one department with counties_per_department = "
            f"{per_department}; a county index has 3 digits"
        ]

    def test_value_error_from_a_defect_is_a_traceback(
        self, alsace_config, pipeline_out, tmp_path, monkeypatch
    ):
        # Only a PipelineError (or OSError) ends a stage in one line; any
        # other ValueError is a defect and must show where it was raised.
        def defect(*args, **kwargs):
            raise ValueError("a defect")

        monkeypatch.setattr(validate, "compare_solutions", defect)
        out = shutil.copytree(pipeline_out, tmp_path / "out")
        with pytest.raises(ValueError, match="a defect"):
            run_cli("validate", "--config", str(alsace_config), "--output-dir", str(out))

    def test_missing_configured_column_stops_ingest(self, alsace_config, tmp_path, caplog):
        fixture = shutil.copytree(alsace_config.parent, tmp_path / "alsace")
        config = fixture / "pipeline.ini"
        config.write_text(
            config.read_text(encoding="utf-8").replace("name = name\n", "category = category\n"),
            encoding="utf-8",
        )
        with caplog.at_level(logging.ERROR):
            rc = run_cli("ingest", "--config", str(config), "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].startswith(
            "[ingest] customs_by_appellation: missing column(s) ['category'] in header"
        )

    def test_acronym_line_without_equals_stops_link(self, alsace_config, tmp_path, caplog):
        config = _with_word_list(alsace_config, tmp_path, "acronyms", b"BOURG Bourgogne\n")
        with caplog.at_level(logging.ERROR):
            rc = run_cli("run", "--config", str(config), "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
            "[link] acronyms.txt: line 1 is not SHORT=Long form: 'BOURG Bourgogne'"
        ]

    def test_repeated_acronym_stops_link(self, alsace_config, tmp_path, caplog):
        config = _with_word_list(alsace_config, tmp_path, "acronyms",
                                 "CDR=Cote du Rhone\nCDR=Cotes de Bourg\n".encode())
        out = tmp_path / "out"
        assert run_cli("ingest", "--config", str(config), "--output-dir", str(out)) == 0
        with caplog.at_level(logging.ERROR):
            rc = run_cli("link", "--config", str(config), "--output-dir", str(out))
        assert rc == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
            "[link] acronyms.txt: repeated acronym 'CDR' at line 2"
        ]

    def test_latin1_stopwords_take_effect(self, alsace_config, tmp_path):
        # Without ROSE and ROUGE the three Pinot noir names normalize alike,
        # so the rosé label goes to the smallest of their codes.
        config = _with_word_list(alsace_config, tmp_path, "stopwords",
                                 "rosé\nrouge\n".encode("latin-1"))
        out = tmp_path / "out"
        assert run_cli("ingest", "--config", str(config), "--output-dir", str(out)) == 0
        assert run_cli("link", "--config", str(config), "--output-dir", str(out)) == 0
        codes = {m.source_label: m.target_code
                 for m in linkage.read_match_report(out / "matches.csv")}
        assert codes["Alsace rosé (Pinot noir)"] == "1B001S"


def _with_word_list(alsace_config: Path, tmp_path: Path, key: str, content: bytes) -> Path:
    """A copy of the Alsace fixture whose ``[inputs] key`` names a word list
    holding ``content``; returns its configuration."""
    fixture = shutil.copytree(alsace_config.parent, tmp_path / "alsace")
    (fixture / f"{key}.txt").write_bytes(content)
    config = fixture / "pipeline.ini"
    config.write_text(
        config.read_text(encoding="utf-8").replace("[inputs]\n", f"[inputs]\n{key} = {key}.txt\n"),
        encoding="utf-8",
    )
    return config
