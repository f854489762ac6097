"""Reference allocations, statistics and label matches the tests compare the program against."""
from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linprog

from vinevalue import allocator
from vinevalue.allocator import (
    AllocationMatrix,
    AllocationProblem,
    OptimalFace,
    SolveError,
    optimal_value,
    project_feasible,
    random_init,
)
from vinevalue.linkage import LabelMatch, expand_price_entries, normalize_label
from vinevalue.model import AppellationRecord, Cell, PriceEntry

BRUTE_FORCE_MAX_CELLS = 9
BRUTE_FORCE_MAX_LEVELS = 12


def greedy_baseline(problem: AllocationProblem) -> AllocationMatrix:
    """Fill cells in descending weight order, each to its residual capacity.
    A lower bound for the LP optimum, used as a solver sanity check."""
    row_res = dict(problem.appellation_caps)
    col_res = dict(problem.county_caps)
    order = sorted(
        range(problem.n_cells),
        key=lambda k: (-problem.alpha[k], problem.cells[k]),
    )
    values: dict[Cell, float] = {}
    for k in order:
        code, insee = problem.cells[k]
        take = min(problem.upper_bounds[k], row_res[code], col_res[insee])
        if take > 0:
            values[(code, insee)] = take
            row_res[code] -= take
            col_res[insee] -= take
    return AllocationMatrix(values)


def uniform_spread_baseline(problem: AllocationProblem) -> AllocationMatrix:
    """Naive baseline: each appellation's cap spread evenly over its
    authorized cells. Ignores county caps, so it is generally infeasible;
    useful only as a rank-correlation reference."""
    per_row: dict[str, int] = {}
    for code, _ in problem.cells:
        per_row[code] = per_row.get(code, 0) + 1
    cells = {}
    for code, insee in problem.cells:
        cells[(code, insee)] = problem.appellation_caps[code] / per_row[code]
    return AllocationMatrix(cells)


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
    return AllocationMatrix({problem.cells[k]: v for k, v in enumerate(best_values) if v > 0})


def solve_start(problem: AllocationProblem, seed: int, face: OptimalFace) -> AllocationMatrix:
    """One start of ``allocator.solve`` as one LP over the whole face, with
    no working set: every column in the model from the start."""
    m = problem.n_cells
    if m == 0:
        return AllocationMatrix({})
    costs = -random_init(problem, seed) / problem.upper_bounds
    highs = allocator._phase2_highs()
    lp = allocator._FaceLP(problem, face).model(np.arange(m), costs)
    assert highs.passModel(lp) == allocator._core.HighsStatus.kOk
    assert highs.run() == allocator._core.HighsStatus.kOk
    status = highs.getModelStatus()
    if status != allocator._core.HighsModelStatus.kOptimal:
        raise SolveError(f"phase-2 LP failed ({highs.modelStatusToString(status)})")
    x = project_feasible(problem, np.array(highs.getSolution().col_value))
    return AllocationMatrix({cell: float(v) for cell, v in zip(problem.cells, x)
                             if v > allocator._SUPPORT_HA})


def phase1_multi_start(
    problem: AllocationProblem, k_starts: int, seed_base: int = 0
) -> tuple[OptimalFace, list[AllocationMatrix]]:
    """The optimal face and the start solutions of ``multi_start_average``
    with the face always read from the phase-1 duals, the starts solved one
    at a time in seed order."""
    face = optimal_value(problem)
    return face, [solve_start(problem, seed, face)
                  for seed in range(seed_base, seed_base + k_starts)]


def linprog_start(problem: AllocationProblem, seed: int, face: OptimalFace,
                  pricing: str) -> AllocationMatrix:
    """One start of ``allocator.solve`` as a ``linprog`` call of its own,
    priced by ``pricing``, a ``simplex_dual_edge_weight_strategy`` of
    ``linprog``: ``"devex"``, as the starts price, or ``"steepest-devex"``,
    the HiGHS default."""
    matrix, rhs = allocator._constraints(problem)
    res = linprog(
        -random_init(problem, seed) / problem.upper_bounds,
        A_ub=matrix[~face.tight], b_ub=rhs[~face.tight],
        A_eq=matrix[face.tight], b_eq=rhs[face.tight],
        bounds=face.bounds, method="highs",
        options={**allocator._HIGHS_OPTIONS, "simplex_dual_edge_weight_strategy": pricing},
    )
    assert res.status == 0, res.message
    x = project_feasible(problem, res.x)
    return AllocationMatrix({cell: float(v) for cell, v in zip(problem.cells, x)
                             if v > allocator._SUPPORT_HA})


def kendall_tau_oracle(x, y) -> float:
    """Tau-b from an O(n^2) pass over every pair, with the final formula of
    ``validate.kendall_tau``. Raises ValueError where tau is undefined."""
    n = len(x)
    n0 = n * (n - 1) // 2
    ties_x = ties_y = ties_joint = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            ties_x += dx == 0
            ties_y += dy == 0
            ties_joint += dx == 0 and dy == 0
            discordant += dx * dy < 0
    if n < 2 or ties_x == n0 or ties_y == n0:
        raise ValueError("tau undefined")
    con_minus_dis = n0 - ties_x - ties_y + ties_joint - 2 * discordant
    return con_minus_dis / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def full_edit_distance(a: str, b: str) -> float:
    """Unrestricted Damerau-Levenshtein distance over the full Lowrance-Wagner
    table, with no cutoff: the reference ``linkage.edit_distance`` must equal
    at or under its limit."""
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return float(la + lb)
    inf = float("inf")
    # Lowrance-Wagner: d has two sentinel rows/columns so the transposition
    # lookup d[i1-1][j1-1] is always in range.
    d = [[inf] * (lb + 2) for _ in range(la + 2)]
    d[1][1] = 0.0
    for i in range(1, la + 1):
        d[i + 1][1] = float(i)
    for j in range(1, lb + 1):
        d[1][j + 1] = float(j)
    last_row: dict[str, int] = {}
    for i in range(1, la + 1):
        last_col = 0
        for j in range(1, lb + 1):
            i1 = last_row.get(b[j - 1], 0)
            j1 = last_col
            if a[i - 1] == b[j - 1]:
                sub = 0.0
                last_col = j
            else:
                sub = 1.0
            best = min(d[i][j] + sub, d[i][j + 1] + 1.0, d[i + 1][j] + 1.0)
            if i1 > 0 and j1 > 0:
                trans = d[i1][j1] + (i - i1 - 1) + 1.0 + (j - j1 - 1)
                if trans < best:
                    best = trans
            d[i + 1][j + 1] = best
        last_row[a[i - 1]] = i
    return d[la + 1][lb + 1]


def match_labels_oracle(
    prices: Sequence[PriceEntry],
    appellations: Sequence[AppellationRecord],
    *,
    threshold_fraction: float = 0.10,
    region_filter: Mapping[str, str] | None = None,
    acronyms: Mapping[str, str] | None = None,
    stopwords: frozenset[str] | set[str] | None = None,
) -> list[LabelMatch]:
    """``linkage.match_labels`` without pruning: every label is scored
    against every appellation by :func:`full_edit_distance`, and the first
    minimum in code order wins."""
    norm_kwargs = {"acronyms": acronyms, "stopwords": stopwords}
    targets = sorted(
        (app.code, normalize_label(app.name, **norm_kwargs)) for app in appellations
    )
    matches: list[LabelMatch] = []
    for entry in expand_price_entries(prices):
        source = normalize_label(entry.label, **norm_kwargs)
        if not targets:
            matches.append(LabelMatch(entry.label, "", float("inf"), False,
                                      entry.price, entry.production_mode))
            continue
        best_code = ""
        best_name = ""
        best_dist = float("inf")
        for code, name in targets:
            dist = full_edit_distance(source, name)
            if dist < best_dist:
                best_code, best_name, best_dist = code, name, dist
        limit = threshold_fraction * max(len(source), len(best_name))
        accepted = bool(source) and best_dist <= limit
        if accepted and region_filter is not None:
            expected = region_filter.get(best_code)
            if expected is not None and entry.region_hint is not None:
                accepted = expected == entry.region_hint
        matches.append(LabelMatch(entry.label, best_code, best_dist, accepted,
                                  entry.price, entry.production_mode))
    return matches
