"""Constrained surface allocation from the two marginal tables.

The unknown per-cell surfaces maximize the weighted total
``sum(alpha_a * s_ac)`` subject to row sums at most the per-appellation
totals, column sums at most the per-county totals, zero outside the
authorization mask, and per-cell upper bounds ``min(s_a, s_c)``.

The optimum value of this linear program is unique but the optimal point is
not. Each solve runs two exact LP phases: the first computes the optimal
value, the second picks the vertex of the (tolerance-widened) optimal face
that maximizes a random objective derived from the start point. Different
starts therefore land on different optimal vertices while the objective
value itself never depends on the start, and the retained estimate is the
cell-wise average over many starts.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .model import (
    AppellationRecord,
    AuthorizationMask,
    Cell,
    CountyRecord,
    DEFAULT_WEIGHTS,
)
from .ingest import IntegrityError

logger = logging.getLogger(__name__)

#: Tight HiGHS tolerances keep the optimality-floor constraint meaningful.
_HIGHS_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}

BRUTE_FORCE_MAX_CELLS = 9
BRUTE_FORCE_MAX_LEVELS = 12


class SolveError(Exception):
    """Raised when the LP solver fails; carries the best feasible point
    obtained by projecting the start onto the constraint set."""

    def __init__(self, message: str, best: "AllocationMatrix | None" = None):
        super().__init__(message)
        self.best = best


class FeasibilityError(ValueError):
    pass


@dataclass(eq=False)
class AllocationProblem:
    """Allocation instance: caps, weights and the active masked cells.

    ``cells`` is sorted lexicographically and fixed; random starts draw one
    uniform value per cell in this order, which makes seeds portable.
    """

    appellation_caps: dict[str, float]
    county_caps: dict[str, float]
    weights: dict[str, float]
    cells: tuple[Cell, ...]
    upper_bounds: np.ndarray
    row_codes: tuple[str, ...] = field(repr=False, default=())
    col_codes: tuple[str, ...] = field(repr=False, default=())
    row_index: np.ndarray = field(repr=False, default=None)
    col_index: np.ndarray = field(repr=False, default=None)
    alpha: np.ndarray = field(repr=False, default=None)

    @property
    def n_cells(self) -> int:
        return len(self.cells)


@dataclass(eq=False)
class AllocationMatrix:
    """Solver output: the sparse nonnegative surfaces (support inside the
    mask) and their weighted objective. Functions that read an allocation
    take the ``cells`` mapping itself."""

    cells: dict[Cell, float]
    objective_value: float | None = None


def problem_from_caps(
    appellation_caps: Mapping[str, float],
    county_caps: Mapping[str, float],
    weights: Mapping[str, float],
    mask_cells: Iterable[Cell],
) -> AllocationProblem:
    """Assemble a problem from raw caps. Cells whose upper bound
    ``min(row cap, column cap)`` is zero are dropped from the active set."""
    active: list[Cell] = []
    bounds: list[float] = []
    for code, insee in sorted(set(mask_cells)):
        if code not in appellation_caps:
            raise IntegrityError(f"mask cell references unknown appellation {code!r}")
        if insee not in county_caps:
            raise IntegrityError(f"mask cell references unknown county {insee!r}")
        ub = min(appellation_caps[code], county_caps[insee])
        if ub > 0:
            active.append((code, insee))
            bounds.append(ub)
    row_codes = tuple(sorted({c for c, _ in active}))
    col_codes = tuple(sorted({i for _, i in active}))
    row_pos = {code: k for k, code in enumerate(row_codes)}
    col_pos = {insee: k for k, insee in enumerate(col_codes)}
    return AllocationProblem(
        appellation_caps=dict(appellation_caps),
        county_caps=dict(county_caps),
        weights=dict(weights),
        cells=tuple(active),
        upper_bounds=np.asarray(bounds, dtype=float),
        row_codes=row_codes,
        col_codes=col_codes,
        row_index=np.array([row_pos[c] for c, _ in active], dtype=np.intp),
        col_index=np.array([col_pos[i] for _, i in active], dtype=np.intp),
        alpha=np.array([weights[c] for c, _ in active], dtype=float),
    )


def build_problem(
    appellations: Sequence[AppellationRecord],
    counties: Sequence[CountyRecord],
    mask: AuthorizationMask,
) -> AllocationProblem:
    """Build the allocation problem from parsed records. Pseudo-appellations
    must already be injected. Weights default per category when the mask
    carries none."""
    appellation_caps = {a.code: a.marginal_surface for a in appellations}
    county_caps = {c.insee_code: c.marginal_surface for c in counties}
    categories = {a.code: a.category for a in appellations}
    weights = {}
    for code in appellation_caps:
        weights[code] = mask.weight.get(code, DEFAULT_WEIGHTS[categories[code]])
    return problem_from_caps(appellation_caps, county_caps, weights, mask.cells)


def _constraints(problem: AllocationProblem):
    m = problem.n_cells
    ones = np.ones(m)
    a_rows = sparse.csr_matrix(
        (ones, (problem.row_index, np.arange(m))), shape=(len(problem.row_codes), m)
    )
    a_cols = sparse.csr_matrix(
        (ones, (problem.col_index, np.arange(m))), shape=(len(problem.col_codes), m)
    )
    matrix = sparse.vstack([a_rows, a_cols]).tocsr()
    rhs = np.concatenate(
        [
            np.array([problem.appellation_caps[c] for c in problem.row_codes]),
            np.array([problem.county_caps[i] for i in problem.col_codes]),
        ]
    )
    return matrix, rhs


def project_feasible(problem: AllocationProblem, point: np.ndarray) -> np.ndarray:
    """Restore feasibility by clipping to the box and downscaling violated
    rows then columns. Downscaling never breaks an already-satisfied
    constraint, so one pass suffices."""
    x = np.clip(np.asarray(point, dtype=float), 0.0, problem.upper_bounds)
    for index, codes, caps in (
        (problem.row_index, problem.row_codes, problem.appellation_caps),
        (problem.col_index, problem.col_codes, problem.county_caps),
    ):
        cap = np.array([caps[c] for c in codes])
        sums = np.bincount(index, weights=x, minlength=len(codes))
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(sums > cap, np.where(sums > 0, cap / sums, 1.0), 1.0)
        x = x * factor[index]
    return x


def random_init(problem: AllocationProblem, seed: int) -> np.ndarray:
    """Independent uniform draw in [0, upper_bound] per active cell,
    deterministic for a fixed seed and the fixed cell ordering."""
    rng = np.random.default_rng(int(seed))
    return rng.random(problem.n_cells) * problem.upper_bounds


def _matrix_from_vector(problem: AllocationProblem, x: np.ndarray) -> AllocationMatrix:
    cells = {
        cell: float(v) for cell, v in zip(problem.cells, x) if v > 0.0
    }
    obj = math.fsum(problem.weights[code] * v for (code, _), v in cells.items())
    return AllocationMatrix(cells=cells, objective_value=obj)


def optimal_value(problem: AllocationProblem) -> float:
    """Exact optimum of the weighted-surface LP (phase one)."""
    if problem.n_cells == 0:
        return 0.0
    matrix, rhs = _constraints(problem)
    bounds = np.column_stack([np.zeros(problem.n_cells), problem.upper_bounds])
    res = linprog(
        -problem.alpha, A_ub=matrix, b_ub=rhs, bounds=bounds,
        method="highs", options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise SolveError(
            f"phase-1 LP failed (status {res.status}): {res.message}",
            best=_matrix_from_vector(problem, np.zeros(problem.n_cells)),
        )
    return float(-res.fun)


def solve(
    problem: AllocationProblem,
    init: np.ndarray,
    *,
    optimality_slack: float = 1e-9,
    _optimal_value: float | None = None,
) -> AllocationMatrix:
    """Solve one start: pick the optimal-face vertex selected by ``init``.

    ``init`` must respect the per-cell bounds (row/column sums need not be
    feasible). The returned matrix is exactly feasible and its objective is
    within ``optimality_slack`` (relative) of the LP optimum.
    """
    m = problem.n_cells
    if m == 0:
        return AllocationMatrix(cells={}, objective_value=0.0)
    init = np.asarray(init, dtype=float)
    if init.shape != (m,):
        raise ValueError(f"init has shape {init.shape}, expected ({m},)")
    if np.any(init < -1e-9) or np.any(init > problem.upper_bounds * (1 + 1e-9) + 1e-9):
        raise ValueError("init violates the per-cell bounds")

    best = _optimal_value if _optimal_value is not None else optimal_value(problem)
    slack = max(optimality_slack * abs(best), 1e-12)

    matrix, rhs = _constraints(problem)
    floor = sparse.csr_matrix(-problem.alpha.reshape(1, -1))
    matrix2 = sparse.vstack([matrix, floor]).tocsr()
    rhs2 = np.concatenate([rhs, [-(best - slack)]])
    bounds = np.column_stack([np.zeros(m), problem.upper_bounds])
    tiebreak = init / problem.upper_bounds
    res = linprog(
        -tiebreak, A_ub=matrix2, b_ub=rhs2, bounds=bounds,
        method="highs", options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        projected = project_feasible(problem, init)
        raise SolveError(
            f"phase-2 LP failed (status {res.status}): {res.message}",
            best=_matrix_from_vector(problem, projected),
        )
    x = project_feasible(problem, res.x)
    x[x < 1e-12] = 0.0
    return _matrix_from_vector(problem, x)


def brute_force_optimum(problem: AllocationProblem, grid_step: float) -> AllocationMatrix:
    """Exhaustive oracle over the discretized feasible set.

    Refuses instances with more than 9 active cells or more than 12 grid
    levels per cell. With integer caps and an integer step the constraint
    matrix is totally unimodular, so the grid contains a true LP optimum.
    """
    m = problem.n_cells
    if m > BRUTE_FORCE_MAX_CELLS:
        raise ValueError(f"instance too large for brute force: {m} cells > {BRUTE_FORCE_MAX_CELLS}")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    levels = [int(math.floor(ub / grid_step + 1e-9)) for ub in problem.upper_bounds]
    if any(lv > BRUTE_FORCE_MAX_LEVELS for lv in levels):
        raise ValueError(
            f"instance too large for brute force: more than {BRUTE_FORCE_MAX_LEVELS} grid levels"
        )
    order = sorted(range(m), key=lambda k: (-problem.alpha[k], problem.cells[k]))
    row_res = dict(problem.appellation_caps)
    col_res = dict(problem.county_caps)
    values = [0.0] * m
    best_obj = -math.inf
    best_values: list[float] = [0.0] * m

    def residual_bound(pos: int) -> float:
        bound = 0.0
        for k in order[pos:]:
            code, insee = problem.cells[k]
            bound += problem.alpha[k] * min(
                problem.upper_bounds[k], row_res[code], col_res[insee]
            )
        return bound

    def descend(pos: int, acc: float) -> None:
        nonlocal best_obj, best_values
        if acc + residual_bound(pos) <= best_obj + 1e-12:
            return
        if pos == m:
            best_obj = acc
            best_values = values.copy()
            return
        k = order[pos]
        code, insee = problem.cells[k]
        max_units = int(
            math.floor(
                (min(problem.upper_bounds[k], row_res[code], col_res[insee]) + 1e-9)
                / grid_step
            )
        )
        for units in range(max_units, -1, -1):
            value = units * grid_step
            values[k] = value
            row_res[code] -= value
            col_res[insee] -= value
            descend(pos + 1, acc + problem.alpha[k] * value)
            row_res[code] += value
            col_res[insee] += value
            values[k] = 0.0

    descend(0, 0.0)
    cells = {problem.cells[k]: v for k, v in enumerate(best_values) if v > 0}
    obj = math.fsum(problem.weights[code] * v for (code, _), v in cells.items())
    return AllocationMatrix(cells=cells, objective_value=obj)


@dataclass(eq=False)
class MultiStartResult:
    """Averaged allocation plus the per-start solutions and the failed
    starts as (seed, message)."""

    average: AllocationMatrix
    solutions: list[AllocationMatrix]
    failures: list[tuple[int, str]]
    optimal_value: float = 0.0


def multi_start_average(
    problem: AllocationProblem,
    k_starts: int = 20,
    seed_base: int = 0,
    *,
    optimality_slack: float = 1e-9,
) -> MultiStartResult:
    """Average the solutions of ``k_starts`` random starts cell-wise.

    The average is feasible by convexity of the constraint set. Failed starts
    are excluded and reported; all starts failing is fatal. The reduction
    runs in seed order so repeated runs are bit-identical. Agreement between
    the starts is measured by ``validate.compare_solutions``.
    """
    if k_starts < 1:
        raise ValueError("k_starts must be >= 1")

    best = optimal_value(problem)
    solutions: list[AllocationMatrix] = []
    vectors: list[np.ndarray] = []
    failures: list[tuple[int, str]] = []
    for i in range(k_starts):
        seed = seed_base + i
        init = random_init(problem, seed)
        try:
            solution = solve(
                problem, init,
                optimality_slack=optimality_slack,
                _optimal_value=best,
            )
        except SolveError as exc:
            logger.warning("start %d (seed %d) failed: %s", i, seed, exc)
            failures.append((seed, str(exc)))
            continue
        solutions.append(solution)
        vectors.append(
            np.array([solution.cells.get(cell, 0.0) for cell in problem.cells])
        )
    if not solutions:
        raise SolveError(f"all {k_starts} starts failed")

    if problem.n_cells:
        stacked = np.vstack(vectors)
        avg = project_feasible(problem, stacked.sum(axis=0) / len(vectors))
    else:
        avg = np.zeros(0)
    average = _matrix_from_vector(problem, avg)
    return MultiStartResult(average, solutions, failures, optimal_value=best)


def feasibility_violations(
    problem: AllocationProblem,
    cells: Mapping[Cell, float],
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-9,
) -> list[str]:
    """All constraint-family violations beyond tolerance: mask support,
    nonnegativity, row sums, column sums. Sums use exact summation."""
    known = set(problem.cells)
    violations = []
    row_values: dict[str, list[float]] = {}
    col_values: dict[str, list[float]] = {}
    for (code, insee), value in cells.items():
        if (code, insee) not in known:
            violations.append(f"cell ({code}, {insee}) outside the mask")
            continue
        if value < -abs_tol:
            violations.append(f"cell ({code}, {insee}) negative: {value!r}")
        row_values.setdefault(code, []).append(value)
        col_values.setdefault(insee, []).append(value)
    for code, values in sorted(row_values.items()):
        cap = problem.appellation_caps[code]
        total = math.fsum(values)
        if total > cap * (1 + rel_tol) + abs_tol:
            violations.append(f"appellation {code} over cap: {total!r} > {cap!r}")
    for insee, values in sorted(col_values.items()):
        cap = problem.county_caps[insee]
        total = math.fsum(values)
        if total > cap * (1 + rel_tol) + abs_tol:
            violations.append(f"county {insee} over cap: {total!r} > {cap!r}")
    return violations


def assert_feasible(
    problem: AllocationProblem,
    cells: Mapping[Cell, float],
    rel_tol: float = 1e-6,
) -> None:
    violations = feasibility_violations(problem, cells, rel_tol=rel_tol)
    if violations:
        raise FeasibilityError("; ".join(violations[:10]))


# Canonical CSV triple so instances can be dumped, shared and reloaded.

CAPS_APPELLATIONS_FILE = "caps_appellations.csv"
CAPS_COUNTIES_FILE = "caps_counties.csv"
MASK_CELLS_FILE = "mask_cells.csv"


def dump_problem(problem: AllocationProblem, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / CAPS_APPELLATIONS_FILE, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";")
        writer.writerow(["code", "cap_ha", "alpha"])
        for code in sorted(problem.appellation_caps):
            writer.writerow(
                [code, repr(problem.appellation_caps[code]), repr(problem.weights.get(code, 0.25))]
            )
    with open(directory / CAPS_COUNTIES_FILE, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";")
        writer.writerow(["insee", "cap_ha"])
        for insee in sorted(problem.county_caps):
            writer.writerow([insee, repr(problem.county_caps[insee])])
    with open(directory / MASK_CELLS_FILE, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";")
        writer.writerow(["appellation", "insee"])
        for code, insee in problem.cells:
            writer.writerow([code, insee])


def load_problem(directory: str | Path) -> AllocationProblem:
    directory = Path(directory)
    appellation_caps: dict[str, float] = {}
    weights: dict[str, float] = {}
    with open(directory / CAPS_APPELLATIONS_FILE, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=";")
        next(reader)
        for row in reader:
            appellation_caps[row[0]] = float(row[1])
            weights[row[0]] = float(row[2])
    county_caps: dict[str, float] = {}
    with open(directory / CAPS_COUNTIES_FILE, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=";")
        next(reader)
        for row in reader:
            county_caps[row[0]] = float(row[1])
    cells: list[Cell] = []
    with open(directory / MASK_CELLS_FILE, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=";")
        next(reader)
        for row in reader:
            cells.append((row[0], row[1]))
    return problem_from_caps(appellation_caps, county_caps, weights, cells)


def write_solution(cells: Mapping[Cell, float], path: str | Path, min_cell: float = 1e-9) -> None:
    """Sparse allocation CSV in cell order, values by ``repr`` so they read
    back bit-exact; cells at or below ``min_cell`` are omitted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";")
        writer.writerow(["appellation", "insee", "surface_ha"])
        for (code, insee) in sorted(cells):
            value = cells[(code, insee)]
            if value > min_cell:
                writer.writerow([code, insee, repr(value)])


def read_solution(path: str | Path) -> dict[Cell, float]:
    cells: dict[Cell, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=";")
        next(reader)
        for row in reader:
            cells[(row[0], row[1])] = float(row[2])
    return cells
