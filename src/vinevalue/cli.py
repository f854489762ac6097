"""Command-line pipeline: ingest, link, yields, solve, validate, value.

Every stage reads and writes plain CSV/JSON intermediates in the output
directory, so each can be re-run in isolation and an end-to-end run is
exactly the stages in sequence. All randomness flows from the configured
seed; two runs with the same config produce byte-identical artifacts.
A stage that cannot go on raises a :class:`~vinevalue.model.PipelineError`
(or an ``OSError``), which :func:`main` reports in one line naming it.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import allocator, ingest, linkage, synth, validate, valuation, yields
from .config import PipelineConfig, load_config
from .ingest import IngestReport
from .model import (AppellationRecord, Category, Cell, ConfigError, InputError, PipelineError,
                    exact_sums)

logger = logging.getLogger(__name__)

APPELLATIONS_CSV = "appellations.csv"
COUNTIES_CSV = "counties.csv"
MASK_CSV = "mask.csv"
PRICES_CSV = "prices.csv"
INGEST_REPORT = "ingest_report.jsonl"
MATCHES_CSV = "matches.csv"
YIELDS_CSV = "expected_yields.csv"
PROBLEM_DIR = "problem"
SOLUTIONS_DIR = "solutions"
SOLUTION_CSV = "solution.csv"
SOLVE_REPORT = "solve_report.json"
COMPARISON_JSON = "comparison.json"
SCATTER_CSV = "scatter.csv"
PORTFOLIO_CSV = "portfolio.csv"
CATEGORY_CSV = "category_summary.csv"
REGION_CSV = "ra_summary.csv"
VALUE_REPORT = "value_report.json"
TRUTH_CSV = "truth.csv"
SYNTH_REPORT = "synth_report.json"


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise InputError(f"missing {path.name}; run the '{produced_by}' stage first")
    return path


def stage_ingest(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    columns = cfg.columns
    reports: list[IngestReport] = []

    appellations, report = ingest.parse_customs_by_appellation(
        cfg.customs_by_appellation,
        code_col=columns.appellation_code,
        surface_col=columns.appellation_surface,
        name_col=columns.appellation_name,
        category_col=columns.appellation_category,
        yield_cols=columns.yield_cols,
        volume_cols=columns.volume_cols,
        default_category=cfg.default_category,
        truncation=cfg.truncation,
        delimiter=cfg.delimiter,
    )
    reports.append(report)

    counties, report = ingest.parse_customs_by_county(
        cfg.customs_by_county,
        insee_col=columns.county_insee,
        surface_col=columns.county_surface,
        ra_col=columns.county_ra,
        delimiter=cfg.delimiter,
    )
    reports.append(report)

    mask, report = ingest.parse_inao_authorizations(
        cfg.inao_authorizations,
        appellations,
        counties,
        appellation_col=columns.mask_appellation,
        insee_col=columns.mask_insee,
        delimiter=cfg.delimiter,
    )
    reports.append(report)

    prices, report = ingest.parse_price_scale(
        cfg.price_scale,
        label_col=columns.price_label,
        price_col=columns.price_value,
        region_col=columns.price_region,
        delimiter=cfg.delimiter,
    )
    reports.append(report)

    if cfg.non_pgi_by_department:
        by_department = ingest.parse_department_surfaces(
            cfg.non_pgi_by_department, delimiter=cfg.delimiter
        )
        before = len(appellations)
        appellations, mask = ingest.inject_pseudo_appellations(
            appellations, counties, mask, by_department
        )
        reports.append(IngestReport("pseudo_appellations", rows_read=len(by_department),
                                    records_out=len(appellations) - before))

    known: dict[Cell, float] = {}
    if cfg.champagne_cells:
        cells = ingest.parse_cell_surfaces(cfg.champagne_cells, delimiter=cfg.delimiter)
        known = exact_sums(((code, insee), surface) for code, insee, surface, _ in cells)
        caps = exact_sums((code, surface) for (code, _), surface in known.items())
        names: dict[str, str] = {}
        for code, _, _, name in cells:
            names.setdefault(code, name)
        added = sorted(caps.keys() - {a.code for a in appellations})
        appellations = [*appellations, *(
            AppellationRecord(code=code, name=names[code], category=Category.AOP,
                              marginal_surface=caps[code])
            for code in added
        )]
        reports.append(IngestReport("champagne_cells", rows_read=len(cells),
                                    records_out=len(added)))

    problem = allocator.build_problem(appellations, counties, mask, known, cfg.weights)
    ingest.write_appellations(appellations, out / APPELLATIONS_CSV)
    ingest.write_counties(counties, out / COUNTIES_CSV)
    ingest.write_mask(mask, out / MASK_CSV)
    ingest.write_prices(prices, out / PRICES_CSV)
    ingest.write_reports_jsonl(reports, out / INGEST_REPORT)
    allocator.dump_problem(problem, out / PROBLEM_DIR)
    logger.info(
        "ingest: %d appellations, %d counties, %d mask cells, %d prices",
        len(appellations), len(counties), len(mask), len(prices),
    )


def stage_link(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    appellations = ingest.read_appellations(_require(out / APPELLATIONS_CSV, "ingest"))
    prices = ingest.read_prices(_require(out / PRICES_CSV, "ingest"))
    region_filter = None
    if cfg.region_map:
        region_filter = ingest.parse_key_value_map(cfg.region_map, delimiter=cfg.delimiter,
                                                  dataset="region_map")
    matches = linkage.match_labels(
        prices,
        appellations,
        threshold_fraction=cfg.threshold_fraction,
        region_filter=region_filter,
        acronyms=linkage.load_acronyms(cfg.acronyms) if cfg.acronyms else None,
        stopwords=linkage.load_wordlist(cfg.stopwords) if cfg.stopwords else None,
    )
    linkage.write_match_report(matches, out / MATCHES_CSV)
    accepted = sum(1 for m in matches if m.accepted)
    logger.info("link: %d labels, %d accepted", len(matches), accepted)


def stage_yields(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    appellations = ingest.read_appellations(_require(out / APPELLATIONS_CSV, "ingest"))
    table = yields.expected_yield_table(appellations, cfg.harvest_year)
    yields.write_expected_yields(table, out / YIELDS_CSV)
    logger.info("yields: %d appellations for harvest %d", len(table), cfg.harvest_year)


def stage_solve(cfg: PipelineConfig) -> allocator.MultiStartResult:
    out = cfg.output_dir
    problem = allocator.load_problem(_require(out / PROBLEM_DIR, "ingest"))
    result = allocator.multi_start_average(problem, k_starts=cfg.k_starts, seed_base=cfg.seed)
    allocator.assert_feasible(problem, result.average.cells)

    solutions_dir = out / SOLUTIONS_DIR
    solutions_dir.mkdir(parents=True, exist_ok=True)
    # The validate stage compares every start file present, so files left by
    # an earlier run with more starts must not survive.
    for stale in solutions_dir.glob("start_*.csv"):
        stale.unlink()
    for i, solution in enumerate(result.solutions):
        allocator.write_solution(solution.cells, solutions_dir / f"start_{i:03d}.csv")

    allocator.write_solution(result.average.cells, out / SOLUTION_CSV)

    report = {
        "n_active_cells": problem.n_cells,
        "k_starts": cfg.k_starts,
        "n_solved": len(result.solutions),
        "failures": [{"seed": seed, "error": message} for seed, message in result.failures],
        "optimal_value": result.optimal_value,
        "average_objective": allocator.objective(problem.weights, result.average.cells),
    }
    (out / SOLVE_REPORT).write_text(json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")
    logger.info(
        "solve: %d cells, %d/%d starts, objective %.6g",
        problem.n_cells, len(result.solutions), cfg.k_starts, report["optimal_value"],
    )
    return result


def stage_validate(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    solutions_dir = _require(out / SOLUTIONS_DIR, "solve")
    paths = sorted(solutions_dir.glob("start_*.csv"))
    solutions_report = None
    if len(paths) >= 2:
        solutions = [allocator.read_solution(p) for p in paths]
        solutions_report = validate.compare_solutions(
            solutions, restrict_min_hectares=cfg.restrict_min_hectares
        )

    aggregates_report = None
    if cfg.reference_aggregates:
        alloc = allocator.read_solution(_require(out / SOLUTION_CSV, "solve"))
        appellations = ingest.read_appellations(_require(out / APPELLATIONS_CSV, "ingest"))
        categories = {a.code: a.category for a in appellations}
        reference = ingest.parse_reference_aggregates(
            cfg.reference_aggregates, delimiter=cfg.delimiter
        )
        aggregates_report = validate.compare_aggregates(
            alloc, categories, reference, restrict_min_hectares=cfg.reference_min_hectares
        )

    payload = {
        "solutions": solutions_report.to_dict() if solutions_report else None,
        "aggregates": aggregates_report.to_dict() if aggregates_report else None,
    }
    (out / COMPARISON_JSON).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    scatter_source = aggregates_report or validate.ComparisonReport(0, 0.0)
    validate.write_scatter_csv(scatter_source, out / SCATTER_CSV)
    logger.info("validate: solutions=%s aggregates=%s",
                bool(solutions_report), bool(aggregates_report))


def stage_value(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    alloc = allocator.read_solution(_require(out / SOLUTION_CSV, "solve"))
    expected = yields.read_expected_yields(_require(out / YIELDS_CSV, "yields"))
    matches = linkage.read_match_report(_require(out / MATCHES_CSV, "link"))
    appellations = ingest.read_appellations(_require(out / APPELLATIONS_CSV, "ingest"))
    counties = ingest.read_counties(_require(out / COUNTIES_CSV, "ingest"))

    price_by_code = valuation.resolve_prices(matches)
    apps_by_code = {a.code: a for a in appellations}
    portfolio, report = valuation.build_portfolio(alloc, expected, price_by_code, apps_by_code)

    categories = {a.code: a.category for a in appellations}
    by_category = valuation.summarize_by_category(portfolio, categories)
    region_by_county = {
        c.insee_code: c.agricultural_region_id for c in counties if c.agricultural_region_id
    }
    if cfg.ra_map:
        region_by_county.update(ingest.parse_key_value_map(cfg.ra_map, delimiter=cfg.delimiter,
                                                          dataset="ra_map"))
    by_region = valuation.summarize_by_region(portfolio, region_by_county)

    valuation.write_portfolio(portfolio, out / PORTFOLIO_CSV)
    valuation.write_category_summary(by_category, out / CATEGORY_CSV)
    valuation.write_region_summary(by_region, out / REGION_CSV)
    payload = report.to_dict()
    if cfg.reference_total_eur is not None:
        payload["reference_total_eur"] = cfg.reference_total_eur
        payload["total_over_reference"] = report.total_value / cfg.reference_total_eur
    (out / VALUE_REPORT).write_text(
        json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
    )
    logger.info(
        "value: %d records, %.4g EUR total, %d price fallbacks",
        report.records, report.total_value, report.price_fallbacks,
    )


def stage_synth(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    settings = cfg.synth
    shape = (settings.appellations, settings.counties, settings.density)
    instance = synth.generate(
        shape,
        seed=cfg.seed,
        extra_mask_factor=settings.extra_mask_factor,
        counties_per_department=settings.counties_per_department,
        weights=cfg.weights,
    )
    allocator.dump_problem(instance.problem, out / PROBLEM_DIR)
    allocator.write_solution(instance.truth.cells, out / TRUTH_CSV)

    result = stage_solve(cfg)
    truth, average = instance.truth.cells, result.average.cells
    weights = instance.problem.weights
    cell_tau = validate.kendall_tau(*validate.align([truth, average])[1])
    # Each cap is the exact sum of its truth row, positive where the truth has cells.
    row_sums = exact_sums((code, v) for (code, _), v in average.items())
    row_errors = [abs(row_sums.get(code, 0.0) - cap) / cap
                  for code, cap in instance.problem.appellation_caps.items() if cap]
    truth_aggregates = validate.aggregate_allocation(truth, instance.categories)
    aggregates = validate.compare_aggregates(
        average, instance.categories, truth_aggregates,
        restrict_min_hectares=cfg.reference_min_hectares,
    )
    report = {
        "seed": cfg.seed,
        "shape": list(shape),
        "n_active_cells": instance.problem.n_cells,
        "cell_tau": cell_tau,
        "max_row_relative_error": max(row_errors, default=0.0),
        "aggregate_tau": aggregates.kendall_tau,
        "average_objective": allocator.objective(weights, average),
        "truth_objective": allocator.objective(weights, truth),
    }
    (out / SYNTH_REPORT).write_text(json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")
    logger.info("synth: cell tau %.3f, aggregate tau %.3f", cell_tau, aggregates.kendall_tau)


#: Every stage: the function it runs and its help line.
STAGES = {
    "ingest": (stage_ingest, "parse the input files into canonical tables"),
    "link": (stage_link, "match price-scale labels to appellations"),
    "yields": (stage_yields, "compute expected yields"),
    "solve": (stage_solve, "estimate the surface allocation"),
    "validate": (stage_validate, "rank-correlation checks between solutions and references"),
    "value": (stage_value, "build the valued portfolio and its summaries"),
    "synth": (stage_synth, "generate a synthetic instance, recover it and score recovery"),
}
#: The stages ``run`` runs, in order.
PIPELINE = ("ingest", "link", "yields", "solve", "validate", "value")


def run_pipeline(cfg: PipelineConfig) -> None:
    for stage in PIPELINE:
        STAGES[stage][0](cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vinevalue",
        description="Estimate per-appellation, per-county vineyard surfaces and harvest values",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"run": "run the full pipeline end to end",
                **{name: help_text for name, (_, help_text) in STAGES.items()}}
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="pipeline configuration file")
        cmd.add_argument("--seed", type=int, default=None, help="override solver seed")
        cmd.add_argument("--k-starts", type=int, default=None, help="override start count")
        cmd.add_argument("--output-dir", default=None, help="override output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    overrides = {
        "solver.seed": args.seed,
        "solver.k_starts": args.k_starts,
        # A relative flag names a directory under the working directory, not
        # under the configuration file like the config key does.
        "output.directory": args.output_dir and Path(args.output_dir).absolute(),
    }
    command = args.command
    try:
        cfg = load_config(args.config, overrides=overrides)
        cfg.validate(require_inputs=command != "synth")
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        return 1
    for stage in PIPELINE if command == "run" else (command,):
        try:
            STAGES[stage][0](cfg)
        except (PipelineError, OSError) as exc:
            logger.error("[%s] %s", stage, exc)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
