"""Command-line pipeline: ingest, link, yields, solve, validate, value.

Every stage reads and writes plain CSV/JSON intermediates in the output
directory, so each can be re-run in isolation and an end-to-end run is
exactly the stages in sequence. All randomness flows from the configured
seed; two runs with the same config produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from . import allocator, ingest, linkage, synth, validate, valuation, yields
from .config import PipelineConfig, load_config
from .ingest import ConfigError, IngestReport, IntegrityError
from .model import AppellationRecord, Category

logger = logging.getLogger(__name__)

APPELLATIONS_CSV = "appellations.csv"
COUNTIES_CSV = "counties.csv"
MASK_CSV = "mask.csv"
PRICES_CSV = "prices.csv"
CHAMPAGNE_CSV = "champagne_cells.csv"
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


class StageError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _require(path: Path, stage: str, produced_by: str) -> Path:
    if not path.exists():
        raise StageError(stage, f"missing {path.name}; run the '{produced_by}' stage first")
    return path


def _normalize_kwargs(cfg: PipelineConfig) -> dict:
    kwargs = {}
    if cfg.acronyms:
        kwargs["acronyms"] = linkage.load_acronyms(cfg.acronyms)
    if cfg.stopwords:
        kwargs["stopwords"] = linkage.load_wordlist(cfg.stopwords)
    return kwargs


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
        color_col=columns.appellation_color,
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
        weight_col=columns.mask_weight,
        weights=cfg.weights,
        delimiter=cfg.delimiter,
    )
    reports.append(report)

    prices, report = ingest.parse_price_scale(
        cfg.price_scale,
        label_col=columns.price_label,
        price_col=columns.price_value,
        region_col=columns.price_region,
        delimiter=cfg.delimiter,
        **_normalize_kwargs(cfg),
    )
    reports.append(report)

    if cfg.non_pgi_by_department:
        by_department = ingest.parse_department_surfaces(
            cfg.non_pgi_by_department, delimiter=cfg.delimiter
        )
        before = len(appellations)
        appellations, mask = ingest.inject_pseudo_appellations(
            appellations, counties, mask, by_department,
            weight=cfg.weights[Category.PSEUDO_NON_PGI],
        )
        pseudo_report = IngestReport(dataset="pseudo_appellations")
        pseudo_report.rows_read = len(by_department)
        pseudo_report.records_out = len(appellations) - before
        reports.append(pseudo_report)

    if cfg.champagne_cells:
        cells = ingest.parse_cell_surfaces(cfg.champagne_cells, delimiter=cfg.delimiter)
        known = {a.code for a in appellations}
        extra_surface: dict[str, list[float]] = {}
        extra_names: dict[str, str] = {}
        for code, _, surface, name in cells:
            extra_surface.setdefault(code, []).append(surface)
            extra_names.setdefault(code, name)
        added = 0
        appellations = list(appellations)
        for code in sorted(extra_surface):
            if code in known:
                continue
            appellations.append(
                AppellationRecord(
                    code=code,
                    name=extra_names[code],
                    category=Category.AOP,
                    marginal_surface=math.fsum(extra_surface[code]),
                )
            )
            added += 1
        with open(out / CHAMPAGNE_CSV, "w", encoding="utf-8", newline="") as fh:
            fh.write("appellation;insee;surface_ha\n")
            for code, insee, surface, _ in sorted(cells):
                fh.write(f"{code};{insee};{surface!r}\n")
        supplemental = IngestReport(dataset="champagne_cells")
        supplemental.rows_read = len(cells)
        supplemental.records_out = added
        reports.append(supplemental)

    ingest.check_referential_integrity(appellations, counties, mask)
    ingest.write_appellations(appellations, out / APPELLATIONS_CSV)
    ingest.write_counties(counties, out / COUNTIES_CSV)
    ingest.write_mask(mask, out / MASK_CSV)
    ingest.write_prices(prices, out / PRICES_CSV)
    ingest.write_reports_jsonl(reports, out / INGEST_REPORT)
    logger.info(
        "ingest: %d appellations, %d counties, %d mask cells, %d prices",
        len(appellations), len(counties), len(mask.cells), len(prices),
    )


def stage_link(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    appellations = ingest.read_appellations(_require(out / APPELLATIONS_CSV, "link", "ingest"))
    prices = ingest.read_prices(_require(out / PRICES_CSV, "link", "ingest"))
    region_filter = None
    if cfg.region_map:
        region_filter = ingest.parse_key_value_map(cfg.region_map, delimiter=cfg.delimiter)
    matches = linkage.match_labels(
        prices,
        appellations,
        threshold=cfg.threshold,
        threshold_fraction=cfg.threshold_fraction,
        region_filter=region_filter,
        **_normalize_kwargs(cfg),
    )
    linkage.write_match_report(matches, out / MATCHES_CSV)
    accepted = sum(1 for m in matches if m.accepted)
    logger.info("link: %d labels, %d accepted", len(matches), accepted)


def stage_yields(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    appellations = ingest.read_appellations(_require(out / APPELLATIONS_CSV, "yields", "ingest"))
    table = yields.expected_yield_table(appellations, cfg.harvest_year)
    yields.write_expected_yields(table, out / YIELDS_CSV)
    logger.info("yields: %d appellations for harvest %d", len(table), cfg.harvest_year)


def stage_solve(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    if (out / APPELLATIONS_CSV).exists():
        appellations = ingest.read_appellations(out / APPELLATIONS_CSV)
        counties = ingest.read_counties(_require(out / COUNTIES_CSV, "solve", "ingest"))
        mask = ingest.read_mask(_require(out / MASK_CSV, "solve", "ingest"))
        problem = allocator.build_problem(appellations, counties, mask)
    elif (out / PROBLEM_DIR).exists():
        # A dumped problem triple is a complete instance of its own; this
        # lets shared instances be solved without the ingest artifacts.
        problem = allocator.load_problem(out / PROBLEM_DIR)
    else:
        raise StageError("solve", f"missing {APPELLATIONS_CSV}; run the 'ingest' stage first")
    allocator.dump_problem(problem, out / PROBLEM_DIR)

    result = allocator.multi_start_average(
        problem,
        k_starts=cfg.k_starts,
        seed_base=cfg.seed,
        optimality_slack=cfg.optimality_slack,
    )
    allocator.assert_feasible(problem, result.average.cells, rel_tol=cfg.feasibility_tol)

    solutions_dir = out / SOLUTIONS_DIR
    solutions_dir.mkdir(parents=True, exist_ok=True)
    # The validate stage compares every start file present, so files left by
    # an earlier run with more starts must not survive.
    for stale in solutions_dir.glob("start_*.csv"):
        stale.unlink()
    for i, solution in enumerate(result.solutions):
        allocator.write_solution(solution.cells, solutions_dir / f"start_{i:03d}.csv")

    average = result.average.cells
    champagne_merged = 0
    champagne_path = out / CHAMPAGNE_CSV
    if champagne_path.exists():
        for cell, value in allocator.read_solution(champagne_path).items():
            average[cell] = average.get(cell, 0.0) + value
            champagne_merged += 1
    allocator.write_solution(average, out / SOLUTION_CSV)

    report = {
        "n_active_cells": problem.n_cells,
        "k_starts": cfg.k_starts,
        "n_solved": len(result.solutions),
        "failures": [{"seed": seed, "error": message} for seed, message in result.failures],
        "optimal_value": result.optimal_value,
        "average_objective": result.average.objective_value,
        "supplemental_cells_merged": champagne_merged,
    }
    (out / SOLVE_REPORT).write_text(json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")
    logger.info(
        "solve: %d cells, %d/%d starts, objective %.6g",
        problem.n_cells, len(result.solutions), cfg.k_starts, report["optimal_value"],
    )


def stage_validate(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    solutions_dir = _require(out / SOLUTIONS_DIR, "validate", "solve")
    paths = sorted(solutions_dir.glob("start_*.csv"))
    solutions_report = None
    if len(paths) >= 2:
        solutions = [allocator.read_solution(p) for p in paths]
        solutions_report = validate.compare_solutions(
            solutions, restrict_min_hectares=cfg.restrict_min_hectares
        )

    aggregates_report = None
    if cfg.reference_aggregates:
        alloc = allocator.read_solution(_require(out / SOLUTION_CSV, "validate", "solve"))
        appellations = ingest.read_appellations(
            _require(out / APPELLATIONS_CSV, "validate", "ingest")
        )
        categories = {a.code: a.category for a in appellations}
        reference = validate.load_reference_aggregates(
            cfg.reference_aggregates, delimiter=cfg.delimiter
        )
        aggregates_report = validate.compare_aggregates(
            alloc, categories, reference, restrict_min_hectares=cfg.reference_min_hectares
        )

    payload = {
        "solutions": json.loads(solutions_report.to_json()) if solutions_report else None,
        "aggregates": json.loads(aggregates_report.to_json()) if aggregates_report else None,
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
    alloc = allocator.read_solution(_require(out / SOLUTION_CSV, "value", "solve"))
    expected = yields.read_expected_yields(_require(out / YIELDS_CSV, "value", "yields"))
    matches = linkage.read_match_report(_require(out / MATCHES_CSV, "value", "link"))
    prices = ingest.read_prices(_require(out / PRICES_CSV, "value", "ingest"))
    appellations = ingest.read_appellations(_require(out / APPELLATIONS_CSV, "value", "ingest"))
    counties = ingest.read_counties(_require(out / COUNTIES_CSV, "value", "ingest"))

    expanded = linkage.expand_price_entries(prices, **_normalize_kwargs(cfg))
    price_by_code = valuation.resolve_prices(matches, expanded)
    apps_by_code = {a.code: a for a in appellations}
    try:
        portfolio, report = valuation.build_portfolio(alloc, expected, price_by_code, apps_by_code)
    except ValueError as exc:
        raise StageError("value", str(exc)) from exc

    categories = {a.code: a.category for a in appellations}
    by_category = valuation.summarize_by_category(portfolio, categories)
    region_by_county = {
        c.insee_code: c.agricultural_region_id for c in counties if c.agricultural_region_id
    }
    if cfg.ra_map:
        region_by_county.update(ingest.parse_key_value_map(cfg.ra_map, delimiter=cfg.delimiter))
    by_region = valuation.summarize_by_region(portfolio, region_by_county)

    valuation.write_portfolio(portfolio, out / PORTFOLIO_CSV)
    valuation.write_category_summary(by_category, out / CATEGORY_CSV)
    valuation.write_region_summary(by_region, out / REGION_CSV)
    payload = json.loads(report.to_json())
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
    seed = settings.seed if settings.seed is not None else cfg.seed
    k_starts = settings.k_starts if settings.k_starts is not None else cfg.k_starts

    instance = synth.generate(
        (settings.appellations, settings.counties, settings.density),
        seed=seed,
        extra_mask_factor=settings.extra_mask_factor,
        counties_per_department=settings.counties_per_department,
        weights=cfg.weights,
    )
    allocator.dump_problem(instance.problem, out / PROBLEM_DIR)
    allocator.write_solution(instance.truth.cells, out / TRUTH_CSV)

    result = allocator.multi_start_average(
        instance.problem, k_starts=k_starts, seed_base=seed,
        optimality_slack=cfg.optimality_slack,
    )
    average = result.average.cells
    allocator.assert_feasible(instance.problem, average, rel_tol=cfg.feasibility_tol)
    allocator.write_solution(average, out / SOLUTION_CSV)

    score = synth.score_recovery(instance.truth.cells, average)
    truth_aggregates = validate.aggregate_allocation(instance.truth.cells, instance.categories)
    aggregates = validate.compare_aggregates(
        average, instance.categories, truth_aggregates,
        restrict_min_hectares=cfg.reference_min_hectares,
    )
    report = {
        "seed": seed,
        "shape": list(instance.shape),
        "n_active_cells": instance.problem.n_cells,
        "cell_tau": score.kendall_tau,
        "max_row_relative_error": max(score.row_relative_errors.values(), default=0.0),
        "aggregate_tau": aggregates.kendall_tau,
        "average_objective": result.average.objective_value,
        "truth_objective": instance.truth.objective_value,
    }
    (out / SYNTH_REPORT).write_text(json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")
    logger.info("synth: cell tau %.3f, aggregate tau %.3f",
                score.kendall_tau, aggregates.kendall_tau)


def run_pipeline(cfg: PipelineConfig) -> None:
    stage_ingest(cfg)
    stage_link(cfg)
    stage_yields(cfg)
    stage_solve(cfg)
    stage_validate(cfg)
    stage_value(cfg)


STAGES = {
    "run": run_pipeline,
    "ingest": stage_ingest,
    "link": stage_link,
    "yields": stage_yields,
    "solve": stage_solve,
    "validate": stage_validate,
    "value": stage_value,
    "synth": stage_synth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vinevalue",
        description="Estimate per-appellation, per-county vineyard surfaces and harvest values",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run the full pipeline end to end"),
        ("ingest", "parse the input files into canonical tables"),
        ("link", "match price-scale labels to appellations"),
        ("yields", "compute expected yields"),
        ("solve", "estimate the surface allocation"),
        ("validate", "rank-correlation checks between solutions and references"),
        ("value", "build the valued portfolio and its summaries"),
        ("synth", "generate a synthetic instance, recover it and score recovery"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="pipeline configuration file")
        cmd.add_argument("--seed", type=int, default=None, help="override solver seed")
        cmd.add_argument("--k-starts", type=int, default=None, help="override start count")
        cmd.add_argument("--output-dir", default=None, help="override output directory")
        if name == "run":
            cmd.add_argument(
                "--synth", action="store_true", dest="synth_mode",
                help="run the synthetic generate/recover/score mode instead of ingesting",
            )
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
        # Explicit flags must also beat any [synth] section overrides.
        "synth.seed": args.seed,
        "synth.k_starts": args.k_starts,
        "output.directory": args.output_dir,
    }
    command = args.command
    if command == "run" and getattr(args, "synth_mode", False):
        command = "synth"
    try:
        cfg = load_config(args.config, overrides=overrides)
        cfg.validate(require_inputs=command not in ("synth",))
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        return 1
    try:
        STAGES[command](cfg)
    except StageError as exc:
        logger.error("%s", exc)
        return 2
    except (ConfigError, IntegrityError, allocator.SolveError, OSError) as exc:
        logger.error("[%s] %s", command, exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
