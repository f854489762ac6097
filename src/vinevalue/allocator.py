"""Constrained surface allocation from the two marginal tables.

The unknown per-cell surfaces maximize the weighted total
``sum(alpha_a * s_ac)`` subject to row sums at most the per-appellation
totals, column sums at most the per-county totals, zero outside the
authorization mask, and per-cell upper bounds ``min(s_a, s_c)``.

The optimum value of this linear program is unique but the optimal point is
not. Each solve runs two exact LP phases. The first computes the optimal
value and reads the optimal face from its duals: rows with a nonzero dual
become equalities and columns with a nonzero reduced cost are fixed at the
bound they press against. The second picks the vertex of that face that
maximizes a random objective derived from the start point. Different starts
therefore land on different optimal vertices while the objective value
itself never depends on the start, and the retained estimate is the
cell-wise average over many starts.
"""
from __future__ import annotations

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
    read_rows,
    write_rows,
)
from .ingest import IntegrityError

logger = logging.getLogger(__name__)

#: Tight HiGHS tolerances: a phase-1 dual counts as nonzero, and so pins its
#: row or column to the optimal face, only beyond the dual feasibility
#: tolerance, and phase 2 meets the face's equality rows within the primal one.
_HIGHS_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}

class SolveError(Exception):
    """Raised when the LP solver fails."""


class FeasibilityError(ValueError):
    pass


@dataclass(eq=False)
class AllocationProblem:
    """Allocation instance: caps, weights and the active masked cells.

    ``cells`` is sorted lexicographically and fixed; random starts draw one
    uniform value per cell in this order, which makes seeds portable. Known
    cells are columns with ``lower_bounds`` equal to ``upper_bounds``; every
    other lower bound is zero.
    """

    appellation_caps: dict[str, float]
    county_caps: dict[str, float]
    weights: dict[str, float]
    cells: tuple[Cell, ...]
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    row_codes: tuple[str, ...] = field(repr=False)
    col_codes: tuple[str, ...] = field(repr=False)
    row_caps: np.ndarray = field(repr=False)
    col_caps: np.ndarray = field(repr=False)
    row_index: np.ndarray = field(repr=False)
    col_index: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return len(self.cells)


@dataclass(eq=False)
class AllocationMatrix:
    """Solver output: the sparse nonnegative surfaces (support inside the
    mask) and their weighted objective. Functions that read an allocation
    take the ``cells`` mapping itself.

    It stays while the benchmark reads ``.cells`` of the per-start solutions
    and of the synthetic truth; ROADMAP items 3, then 2, replace it with one
    ``(k, m)`` array over ``AllocationProblem.cells``."""

    cells: dict[Cell, float]
    objective_value: float | None = None


def problem_from_caps(
    appellation_caps: Mapping[str, float],
    county_caps: Mapping[str, float],
    weights: Mapping[str, float],
    mask_cells: Iterable[Cell],
    known: Mapping[Cell, float] = {},
) -> AllocationProblem:
    """Assemble a problem from raw caps. A mask cell is bounded by
    ``min(row cap, column cap)``; a ``known`` cell is fixed at its surface,
    which counts against its caps (any excess over a cap, however small, is an
    :class:`IntegrityError`). Cells whose upper bound is zero are dropped
    from the active set."""
    active: list[Cell] = []
    lower: list[float] = []
    upper: list[float] = []
    for code, insee in sorted(set(mask_cells) | set(known)):
        if code not in appellation_caps:
            raise IntegrityError(f"cell references unknown appellation {code!r}")
        if insee not in county_caps:
            raise IntegrityError(f"cell references unknown county {insee!r}")
        if (code, insee) in known:
            lb = ub = known[code, insee]
        else:
            lb, ub = 0.0, min(appellation_caps[code], county_caps[insee])
        if ub > 0:
            active.append((code, insee))
            lower.append(lb)
            upper.append(ub)
    row_codes = tuple(sorted({c for c, _ in active}))
    col_codes = tuple(sorted({i for _, i in active}))
    row_pos = {code: k for k, code in enumerate(row_codes)}
    col_pos = {insee: k for k, insee in enumerate(col_codes)}
    problem = AllocationProblem(
        appellation_caps=dict(appellation_caps),
        county_caps=dict(county_caps),
        weights=dict(weights),
        cells=tuple(active),
        lower_bounds=np.asarray(lower, dtype=float),
        upper_bounds=np.asarray(upper, dtype=float),
        row_codes=row_codes,
        col_codes=col_codes,
        row_caps=np.array([appellation_caps[c] for c in row_codes], dtype=float),
        col_caps=np.array([county_caps[i] for i in col_codes], dtype=float),
        row_index=np.array([row_pos[c] for c, _ in active], dtype=np.intp),
        col_index=np.array([col_pos[i] for _, i in active], dtype=np.intp),
        alpha=np.array([weights[c] for c, _ in active], dtype=float),
    )
    known_positive = {cell: s for cell, s in known.items() if s > 0}
    over = feasibility_violations(problem, known_positive, rel_tol=0.0, abs_tol=0.0)
    if over:
        raise IntegrityError("known cells exceed their caps: " + "; ".join(over[:10]))
    return problem


def build_problem(
    appellations: Sequence[AppellationRecord],
    counties: Sequence[CountyRecord],
    mask: AuthorizationMask,
    known: Mapping[Cell, float] = {},
) -> AllocationProblem:
    """Build the allocation problem from parsed records and the known cells.
    Pseudo-appellations and the codes of known cells must already be among
    the records. Weights default per category when the mask carries none."""
    appellation_caps = {a.code: a.marginal_surface for a in appellations}
    county_caps = {c.insee_code: c.marginal_surface for c in counties}
    categories = {a.code: a.category for a in appellations}
    weights = {}
    for code in appellation_caps:
        weights[code] = mask.weight.get(code, DEFAULT_WEIGHTS[categories[code]])
    return problem_from_caps(appellation_caps, county_caps, weights, mask.cells, known)


@dataclass(frozen=True, eq=False)
class OptimalFace:
    """Phase-1 result: the LP optimum ``value`` and the constraints of its
    optimal face, tight rows as equalities and fixed columns as equal bounds.
    Every phase-2 start solves over these with its own costs."""

    value: float
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    bounds: np.ndarray


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
    return matrix, np.concatenate([problem.row_caps, problem.col_caps])


def project_feasible(problem: AllocationProblem, point: np.ndarray) -> np.ndarray:
    """Restore feasibility by clipping to the box and downscaling the part
    above the lower bounds in violated rows then columns, so known cells
    keep their surface. Downscaling never breaks an already-satisfied
    constraint, so one pass suffices."""
    lower = problem.lower_bounds
    free = np.clip(np.asarray(point, dtype=float), lower, problem.upper_bounds) - lower
    for index, cap in (
        (problem.row_index, problem.row_caps),
        (problem.col_index, problem.col_caps),
    ):
        fixed = np.bincount(index, weights=lower, minlength=len(cap))
        sums = np.bincount(index, weights=free, minlength=len(cap))
        room = np.maximum(cap - fixed, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(fixed + sums > cap, np.where(sums > 0, room / sums, 1.0), 1.0)
        free = free * factor[index]
    return lower + free


def random_init(problem: AllocationProblem, seed: int) -> np.ndarray:
    """Independent uniform draw in [lower_bound, upper_bound] per active
    cell, deterministic for a fixed seed and the fixed cell ordering."""
    rng = np.random.default_rng(int(seed))
    lower = problem.lower_bounds
    return lower + rng.random(problem.n_cells) * (problem.upper_bounds - lower)


def _matrix_from_vector(problem: AllocationProblem, x: np.ndarray) -> AllocationMatrix:
    cells = {
        cell: float(v) for cell, v in zip(problem.cells, x) if v > 0.0
    }
    obj = math.fsum(problem.weights[code] * v for (code, _), v in cells.items())
    return AllocationMatrix(cells=cells, objective_value=obj)


def optimal_value(problem: AllocationProblem) -> OptimalFace:
    """Phase one: the exact optimum of the weighted-surface LP and its
    optimal face.

    By complementary slackness with the phase-1 duals, a feasible point is
    optimal exactly when every row with a nonzero dual is tight and every
    column with a nonzero reduced cost sits at the bound it presses against.
    """
    m = problem.n_cells
    matrix, rhs = _constraints(problem)
    bounds = np.column_stack([problem.lower_bounds, problem.upper_bounds])
    if m == 0:
        return OptimalFace(0.0, matrix, rhs, matrix, rhs, bounds)
    res = linprog(
        -problem.alpha, A_ub=matrix, b_ub=rhs, bounds=bounds,
        method="highs", options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise SolveError(f"phase-1 LP failed (status {res.status}): {res.message}")
    tol = _HIGHS_OPTIONS["dual_feasibility_tolerance"]
    tight = np.abs(res.ineqlin.marginals) > tol
    at_cap = np.abs(res.upper.marginals) > tol
    at_floor = np.abs(res.lower.marginals) > tol
    bounds[at_cap, 0] = bounds[at_cap, 1]
    bounds[at_floor, 1] = bounds[at_floor, 0]
    return OptimalFace(
        float(-res.fun), matrix[tight], rhs[tight], matrix[~tight], rhs[~tight], bounds
    )


def solve(
    problem: AllocationProblem,
    init: np.ndarray,
    face: OptimalFace | None = None,
) -> AllocationMatrix:
    """Solve one start: the vertex of the optimal face that maximizes
    ``init / upper_bounds``.

    ``init`` must respect the per-cell bounds (row/column sums need not be
    feasible). ``face`` is ``optimal_value(problem)``, computed here when not
    given. The returned matrix is exactly feasible and its objective equals
    the LP optimum up to float rounding.
    """
    m = problem.n_cells
    if m == 0:
        return AllocationMatrix(cells={}, objective_value=0.0)
    init = np.asarray(init, dtype=float)
    if init.shape != (m,):
        raise ValueError(f"init has shape {init.shape}, expected ({m},)")
    if np.any(init < -1e-9) or np.any(init > problem.upper_bounds * (1 + 1e-9) + 1e-9):
        raise ValueError("init violates the per-cell bounds")

    if face is None:
        face = optimal_value(problem)
    res = linprog(
        -init / problem.upper_bounds,
        A_ub=face.a_ub, b_ub=face.b_ub, A_eq=face.a_eq, b_eq=face.b_eq,
        bounds=face.bounds, method="highs", options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise SolveError(f"phase-2 LP failed (status {res.status}): {res.message}")
    x = project_feasible(problem, res.x)
    x[x < 1e-12] = 0.0
    return _matrix_from_vector(problem, x)


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
) -> MultiStartResult:
    """Average the solutions of ``k_starts`` random starts cell-wise.

    The average is feasible by convexity of the constraint set. Failed starts
    are excluded and reported; all starts failing is fatal. The reduction
    runs in seed order so repeated runs are bit-identical. Agreement between
    the starts is measured by ``validate.compare_solutions``.
    """
    if k_starts < 1:
        raise ValueError("k_starts must be >= 1")

    face = optimal_value(problem)
    solutions: list[AllocationMatrix] = []
    vectors: list[np.ndarray] = []
    failures: list[tuple[int, str]] = []
    for i in range(k_starts):
        seed = seed_base + i
        init = random_init(problem, seed)
        try:
            solution = solve(problem, init, face)
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
    return MultiStartResult(average, solutions, failures, optimal_value=face.value)


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
    for family, sums, caps in (("appellation", row_values, problem.appellation_caps),
                               ("county", col_values, problem.county_caps)):
        for key, values in sorted(sums.items()):
            total = math.fsum(values)
            if total > caps[key] * (1 + rel_tol) + abs_tol:
                violations.append(f"{family} {key} over cap: {total!r} > {caps[key]!r}")
    return violations


def assert_feasible(problem: AllocationProblem, cells: Mapping[Cell, float]) -> None:
    violations = feasibility_violations(problem, cells)
    if violations:
        raise FeasibilityError("; ".join(violations[:10]))


# Canonical CSV triple (plus known cells) so instances can be dumped, shared and reloaded.

CAPS_APPELLATIONS_FILE = "caps_appellations.csv"
CAPS_COUNTIES_FILE = "caps_counties.csv"
MASK_CELLS_FILE = "mask_cells.csv"
KNOWN_CELLS_FILE = "known_cells.csv"


def dump_problem(problem: AllocationProblem, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_rows(
        directory / CAPS_APPELLATIONS_FILE, ["code", "cap_ha", "alpha"],
        ([code, repr(cap), repr(problem.weights.get(code, 0.25))]
         for code, cap in sorted(problem.appellation_caps.items())),
    )
    write_rows(
        directory / CAPS_COUNTIES_FILE, ["insee", "cap_ha"],
        ([insee, repr(cap)] for insee, cap in sorted(problem.county_caps.items())),
    )
    write_rows(directory / MASK_CELLS_FILE, ["appellation", "insee"], problem.cells)
    known = [[*cell, repr(lb)]
             for cell, lb in zip(problem.cells, problem.lower_bounds.tolist()) if lb > 0]
    if known:
        write_rows(directory / KNOWN_CELLS_FILE, ["appellation", "insee", "surface_ha"], known)
    else:
        (directory / KNOWN_CELLS_FILE).unlink(missing_ok=True)


def load_problem(directory: str | Path) -> AllocationProblem:
    directory = Path(directory)
    appellation_caps: dict[str, float] = {}
    weights: dict[str, float] = {}
    for code, cap, alpha in read_rows(directory / CAPS_APPELLATIONS_FILE):
        appellation_caps[code] = float(cap)
        weights[code] = float(alpha)
    county_caps = {insee: float(cap) for insee, cap in read_rows(directory / CAPS_COUNTIES_FILE)}
    cells = [(code, insee) for code, insee in read_rows(directory / MASK_CELLS_FILE)]
    known_path = directory / KNOWN_CELLS_FILE
    known = read_solution(known_path) if known_path.exists() else {}
    return problem_from_caps(appellation_caps, county_caps, weights, cells, known)


def write_solution(cells: Mapping[Cell, float], path: str | Path) -> None:
    """Sparse allocation CSV in cell order, values by ``repr`` so they read
    back bit-exact; cells at or below 1e-9 ha are omitted."""
    write_rows(
        path, ["appellation", "insee", "surface_ha"],
        ([*cell, repr(cells[cell])] for cell in sorted(cells) if cells[cell] > 1e-9),
    )


def read_solution(path: str | Path) -> dict[Cell, float]:
    return {(code, insee): float(value) for code, insee, value in read_rows(path)}
