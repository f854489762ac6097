"""Reference allocations the tests compare the solver against."""
from __future__ import annotations

import math

from vinevalue.allocator import AllocationMatrix, AllocationProblem
from vinevalue.model import Cell


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
    obj = math.fsum(problem.weights[code] * v for (code, _), v in values.items())
    return AllocationMatrix(cells=values, objective_value=obj)


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
    return AllocationMatrix(cells=cells, objective_value=None)
