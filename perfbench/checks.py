"""Output checks on one pipeline run, made from the artifacts on disk.

The checks read the output directory with their own small CSV readers, so
they keep working when the program's internal API changes:

- the dumped problem (``problem/``) equals the synthetic instance, when the
  workload has one;
- ``solution.csv`` is feasible for that problem, under the rule of
  ``allocator.feasibility_violations`` (support inside the mask,
  nonnegative cells, row and column sums within ``rel_tol``);
- ``solve_report.json`` shows no failed start and an averaged objective of
  at least ``optimal_value * (1 - OBJECTIVE_REL_TOL)``;
- ``portfolio.csv`` has at least one row and every row is priced;
- on synthetic workloads, the aggregate tau against the truth written to
  ``comparison.json`` reaches :data:`AGGREGATE_TAU_FLOOR`.

Byte identity between runs is checked by comparing :func:`directory_digest`.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

#: The pipeline's default ``solver.optimality_slack`` and
#: ``solver.feasibility_tol``; no workload overrides them.
OPTIMALITY_SLACK = 1e-9
#: The averaged objective may sit on the phase-2 floor, ``OPTIMALITY_SLACK``
#: below the optimum, and that floor row is itself met only within HiGHS's
#: 1e-9 primal feasibility tolerance, so a run that binds it can land a few
#: 1e-15 (relative) under ``optimum * (1 - OPTIMALITY_SLACK)``. The margin is
#: the one the repository's own tests give this promise (``test_cli.py``,
#: ``test_allocator.py``): ten times the slack.
OBJECTIVE_REL_TOL = 10 * OPTIMALITY_SLACK
FEASIBILITY_REL_TOL = 1e-6
FEASIBILITY_ABS_TOL = 1e-9
#: Floor for the tau-b between the estimate and the synthetic truth,
#: aggregated to department x wine type. One start gives about 0.81 and four
#: about 0.88 at full scale; the floor only catches gross breakage.
AGGREGATE_TAU_FLOOR = 0.6


@dataclass(frozen=True)
class Problem:
    appellation_caps: dict[str, float]
    county_caps: dict[str, float]
    weights: dict[str, float]
    cells: frozenset[tuple[str, str]]


def _rows(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=";")
        next(reader)
        return [row for row in reader if row]


def read_problem(directory: Path) -> Problem:
    """The dumped problem triple (``caps_appellations.csv``,
    ``caps_counties.csv``, ``mask_cells.csv``)."""
    apps = _rows(directory / "caps_appellations.csv")
    return Problem(
        appellation_caps={r[0]: float(r[1]) for r in apps},
        county_caps={r[0]: float(r[1]) for r in _rows(directory / "caps_counties.csv")},
        weights={r[0]: float(r[2]) for r in apps},
        cells=frozenset((r[0], r[1]) for r in _rows(directory / "mask_cells.csv")),
    )


def read_cells(path: Path) -> dict[tuple[str, str], float]:
    return {(r[0], r[1]): float(r[2]) for r in _rows(path)}


def feasibility_violations(problem: Problem, cells: dict[tuple[str, str], float]) -> list[str]:
    out = []
    rows: dict[str, list[float]] = {}
    cols: dict[str, list[float]] = {}
    for (code, insee), value in cells.items():
        if (code, insee) not in problem.cells:
            out.append(f"cell ({code}, {insee}) outside the mask")
            continue
        if value < -FEASIBILITY_ABS_TOL:
            out.append(f"cell ({code}, {insee}) negative: {value!r}")
        rows.setdefault(code, []).append(value)
        cols.setdefault(insee, []).append(value)
    for sums, caps, kind in ((rows, problem.appellation_caps, "appellation"),
                             (cols, problem.county_caps, "county")):
        for key, values in sorted(sums.items()):
            total = math.fsum(values)
            if total > caps[key] * (1 + FEASIBILITY_REL_TOL) + FEASIBILITY_ABS_TOL:
                out.append(f"{kind} {key} over cap: {total!r} > {caps[key]!r}")
    return out


def check_run(out: Path, reference: Problem | None) -> tuple[list[str], float | None]:
    """Every failed check of the run in ``out``, as messages, and the
    aggregate tau the run reports (None without a reference table)."""
    try:
        problem = read_problem(out / "problem")
        solution = read_cells(out / "solution.csv")
        report = json.loads((out / "solve_report.json").read_text(encoding="utf-8"))
        optimum, average = report["optimal_value"], report["average_objective"]
        failed_starts = report["failures"] or report["n_solved"] != report["k_starts"]
        prices = [float(row[4]) for row in _rows(out / "portfolio.csv")]
        comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        aggregates = comparison["aggregates"]
    except (OSError, ValueError, IndexError, KeyError, TypeError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"], None

    failures = []
    tau = aggregates["kendall_tau"] if aggregates else None
    if reference is not None:
        if problem != reference:
            failures.append("ingested problem differs from the synthetic instance "
                            f"({len(problem.cells)} cells, expected {len(reference.cells)})")
        if tau is None or not tau >= AGGREGATE_TAU_FLOOR:
            failures.append(f"aggregate tau {tau!r} below {AGGREGATE_TAU_FLOOR}")
    failures += feasibility_violations(problem, solution)[:10]
    if failed_starts:
        failures.append(f"failed starts: {report['failures']}")
    if not average >= optimum * (1 - OBJECTIVE_REL_TOL):
        failures.append(f"average objective {average!r} more than {OBJECTIVE_REL_TOL:g} "
                        f"(relative) below optimum {optimum!r}")
    if not prices:
        failures.append("empty portfolio.csv")
    elif not all(price > 0 for price in prices):
        failures.append("unpriced portfolio rows")
    return failures, tau


def directory_digest(directory: Path) -> str:
    """SHA-256 over every file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
