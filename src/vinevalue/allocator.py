"""Constrained surface allocation from the two marginal tables.

The unknown per-cell surfaces maximize the weighted total
``sum(alpha_a * s_ac)`` subject to row sums at most the per-appellation
totals, column sums at most the per-county totals, zero outside the
authorization mask, and per-cell upper bounds ``min(s_a, s_c)``.

The optimum value of this linear program is unique but the optimal point is
not. Every start picks the vertex of the optimal face that maximizes a
random objective derived from the start point, so different starts land on
different optimal vertices while the objective value itself never depends on
the start; the retained estimate is the cell-wise average over many starts.

The optimal face is known without solving anything when every appellation
row can be filled to its cap: every weight is positive, so no allocation
weighs more than ``sum(alpha_a * s_a)``, and the points that reach it are
exactly the feasible points with every row sum at its cap. The starts try
that face first; if an LP on it fails, a phase-1 LP computes the optimal
value and reads the face from its duals instead: rows with a nonzero dual
become equalities and columns with a nonzero reduced cost are fixed at the
bound they press against.

A face's LP is far wider than it is tall: one column per mask cell, one row
per appellation and per county, and two unit entries a column. So each start
sifts (Bixby et al. 1992): it solves over a working set of the columns its
random objective favours, prices every other column exactly against the
row duals, adds those that would improve it and solves again, until none
would.
"""
from __future__ import annotations

import logging
import math
import os
import queue
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

from .model import (
    AppellationRecord,
    Category,
    Cell,
    CountyRecord,
    DEFAULT_WEIGHTS,
    IntegrityError,
    PipelineError,
    exact_sums,
    finite_float,
    read_rows,
    write_rows,
)

logger = logging.getLogger(__name__)

#: Tight HiGHS tolerances: a phase-1 dual counts as nonzero, and so pins its
#: row or column to the optimal face, only beyond the dual feasibility
#: tolerance, and phase 2 meets the face's equality rows within the primal one.
#: Presolve is off: on these bound-heavy transportation LPs it costs more time
#: and memory than it saves, at every scale measured. It can change which dual
#: HiGHS returns when the phase-1 LP is degenerate, but any optimal dual gives
#: the exact optimal set by complementary slackness, so phase 2 reaches the
#: same optimum; values move only by float rounding.
#:
#: The phase-2 starts price with devex dual edge weights: a start on the
#: full-scale instance takes about 18k dual simplex iterations, against 32k
#: at the HiGHS default (steepest-devex), and lands on the same vertex.
#: Phase 1 keeps the default. Devex saves it no time, and on the degenerate
#: Alsace phase-1 LP it returns another optimal dual, one that fixes no cell
#: at its cap; that face is exact too, but it is not the one the tests pin.
_HIGHS_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}
#: ``_HIGHS_OPTIONS`` as HiGHS spells them, plus what ``linprog`` sets on every call.
_PHASE2_OPTIONS = {
    **_HIGHS_OPTIONS, "presolve": "off", "output_flag": False,
    "simplex_strategy": 1,  # dual
    "simplex_dual_edge_weight_strategy": 1,  # devex
}
#: A start's first LP holds each appellation row's cheapest cells up to this
#: many, and each county's cheapest up to the second (:func:`solve`). On the
#: full-scale instance (131,651 cells) that is about 36k columns, and a start
#: takes 2 or 3 LPs. At 16, some working sets cannot fill their rows and fall
#: back to the whole face; from 48 up, the first LP costs more than it saves.
_SIFT_ROW_CELLS = 32
_SIFT_COUNTY_CELLS = 2
#: A cell is a column of the problem, and held by an allocation, above this many hectares.
_SUPPORT_HA = 1e-9

#: The range of a cap or known surface and of a weight, as (rule text, test);
#: NaN fails both tests.
_SURFACE_RULE = (">= 0", lambda value: 0 <= value < math.inf)
_WEIGHT_RULE = ("> 0", lambda value: 0 < value < math.inf)


class SolveError(PipelineError):
    """Raised when an LP does not solve or the estimate breaks a constraint."""


@dataclass(eq=False)
class AllocationProblem:
    """Allocation instance: caps, weights and the active masked cells.

    ``cells``, those whose upper bound is above ``_SUPPORT_HA``, is sorted and
    fixed; random starts draw one uniform value per cell in this order, which
    makes seeds portable. Known cells are columns with ``lower_bounds`` equal
    to ``upper_bounds``; every other lower bound is zero.
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
    """Solver output: the cells of the mask above ``_SUPPORT_HA``, the cells
    its file holds. Functions that read an allocation take the ``cells``
    mapping itself, and :func:`objective` values it.

    It stays while the benchmark reads ``.cells`` of the per-start solutions
    and of the synthetic truth; ROADMAP item 5, after item 3, replaces it
    with one ``(k, m)`` array over ``AllocationProblem.cells``."""

    cells: dict[Cell, float]


def problem_from_caps(
    appellation_caps: Mapping[str, float],
    county_caps: Mapping[str, float],
    weights: Mapping[str, float],
    mask_cells: Iterable[Cell],
    known: Mapping[Cell, float] = {},
) -> AllocationProblem:
    """Assemble a problem from raw caps. Caps and known surfaces must be
    finite and >= 0, weights finite and > 0. A mask cell is bounded by
    ``min(row cap, column cap)``; a ``known`` cell is fixed at its surface,
    which counts against its caps (any excess over a cap, however small, is an
    :class:`IntegrityError`). A cell whose upper bound (a known cell's
    surface) is at or below ``_SUPPORT_HA`` is no column: no allocation holds it."""
    for values, what, (rule, test) in (
        (appellation_caps, f"{CAPS_APPELLATIONS_FILE}: appellation caps", _SURFACE_RULE),
        (weights, f"{CAPS_APPELLATIONS_FILE}: weights", _WEIGHT_RULE),
        (county_caps, f"{CAPS_COUNTIES_FILE}: county caps", _SURFACE_RULE),
        (known, f"{MASK_CELLS_FILE}: known surfaces", _SURFACE_RULE),
    ):
        bad = [f"{key!r} = {value!r}" for key, value in values.items() if not test(value)]
        if bad:
            raise IntegrityError(f"{what} must be finite and {rule}: " + ", ".join(bad[:10]))
    active: list[Cell] = []
    lower: list[float] = []
    upper: list[float] = []
    for code, insee in sorted(dict.fromkeys([*mask_cells, *known])):
        if code not in appellation_caps:
            raise IntegrityError(f"cell references unknown appellation {code!r}")
        if insee not in county_caps:
            raise IntegrityError(f"cell references unknown county {insee!r}")
        if (code, insee) in known:
            lb = ub = known[code, insee]
        else:
            lb, ub = 0.0, min(appellation_caps[code], county_caps[insee])
        if ub > _SUPPORT_HA:
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
    kept = {active[i]: lower[i] for i in np.flatnonzero(problem.lower_bounds)}
    over = feasibility_violations(problem, kept, rel_tol=0.0, abs_tol=0.0)
    if over:
        raise IntegrityError("known cells exceed their caps: " + "; ".join(over[:10]))
    return problem


def build_problem(
    appellations: Sequence[AppellationRecord],
    counties: Sequence[CountyRecord],
    mask: Iterable[Cell],
    known: Mapping[Cell, float] = {},
    category_weights: Mapping[Category, float] = DEFAULT_WEIGHTS,
) -> AllocationProblem:
    """Build the allocation problem from parsed records, the mask cells and
    the known cells. Pseudo-appellations and the codes of known cells must
    already be among the records. This is where a code gets its priority:
    every code takes the weight of its category in ``category_weights``.
    Ingest and ``synth.generate`` both build their problem here."""
    appellation_caps = {a.code: a.marginal_surface for a in appellations}
    county_caps = {c.insee_code: c.marginal_surface for c in counties}
    weights = {a.code: category_weights[a.category] for a in appellations}
    return problem_from_caps(appellation_caps, county_caps, weights, mask, known)


@dataclass(frozen=True, eq=False)
class OptimalFace:
    """The LP optimum ``value`` and its optimal face: ``tight`` marks the rows
    of :func:`_constraints` (appellation rows, then county rows) that hold
    with equality on it, and ``bounds`` holds each column's (lower, upper)
    bound, equal for a fixed column. Either every appellation row is tight
    (:func:`_saturated_face`) or the face is read from the phase-1 duals
    (:func:`optimal_value`). Every start solves over it with its own costs."""

    value: float
    tight: np.ndarray
    bounds: np.ndarray


def _constraints(problem: AllocationProblem) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The row-sum matrix and its caps: one row per appellation, then one per county."""
    m = problem.n_cells
    rows = len(problem.row_codes)
    matrix = sparse.csr_matrix(
        (np.ones(2 * m), (np.concatenate([problem.row_index, rows + problem.col_index]),
                          np.tile(np.arange(m), 2))),
        shape=(rows + len(problem.col_codes), m),
    )
    return matrix, np.concatenate([problem.row_caps, problem.col_caps])


def _saturated_face(problem: AllocationProblem) -> OptimalFace | None:
    """The face on which every appellation row is filled to its cap, valued
    at the exactly rounded ``sum(alpha_a * s_a)``. Its feasible points, if
    any, are exactly the optimal ones. None when a necessary condition
    already fails: the row caps exceed the county caps in total, or a row's
    cells cannot hold its cap."""
    rows = len(problem.row_codes)
    room = np.bincount(problem.row_index, weights=problem.upper_bounds, minlength=rows)
    if (math.fsum(problem.row_caps.tolist()) > math.fsum(problem.col_caps.tolist())
            or np.any(room < problem.row_caps)):
        return None
    value = math.fsum(problem.weights[code] * cap
                      for code, cap in zip(problem.row_codes, problem.row_caps.tolist()))
    tight = np.arange(rows + len(problem.col_codes)) < rows
    bounds = np.column_stack([problem.lower_bounds, problem.upper_bounds])
    return OptimalFace(value, tight, bounds)


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


def objective(weights: Mapping[str, float], cells: Mapping[Cell, float]) -> float:
    """The weighted total ``sum(alpha_a * s_ac)`` of an allocation, exactly rounded."""
    return math.fsum(weights[code] * v for (code, _), v in cells.items())


def _matrix_from_vector(problem: AllocationProblem, x: np.ndarray) -> AllocationMatrix:
    return AllocationMatrix({c: float(v) for c, v in zip(problem.cells, x) if v > _SUPPORT_HA})


def optimal_value(problem: AllocationProblem) -> OptimalFace:
    """Phase one: the exact optimum of the weighted-surface LP and its
    optimal face.

    By complementary slackness with the phase-1 duals, a feasible point is
    optimal exactly when every row with a nonzero dual is tight and every
    column with a nonzero reduced cost sits at the bound it presses against.
    """
    matrix, rhs = _constraints(problem)
    bounds = np.column_stack([problem.lower_bounds, problem.upper_bounds])
    if problem.n_cells == 0:
        return OptimalFace(0.0, np.zeros(len(rhs), dtype=bool), bounds)
    # Still ``linprog``, not a :class:`_FaceLP` model: the benchmark's
    # tracer counts phase-1 iterations by wrapping ``allocator.linprog``, and
    # its contract test pins that name.
    res = linprog(
        -problem.alpha, A_ub=matrix, b_ub=rhs, bounds=bounds,
        method="highs", options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise SolveError(f"phase-1 LP failed (status {res.status}): {res.message}")
    tol = _HIGHS_OPTIONS["dual_feasibility_tolerance"]
    at_cap = np.abs(res.upper.marginals) > tol
    at_floor = np.abs(res.lower.marginals) > tol
    bounds[at_cap, 0] = bounds[at_cap, 1]
    bounds[at_floor, 1] = bounds[at_floor, 0]
    return OptimalFace(float(-res.fun), np.abs(res.ineqlin.marginals) > tol, bounds)


def _checked(status: _core.HighsStatus, step: str) -> None:
    if status == _core.HighsStatus.kError:
        raise SolveError(f"phase-2 LP failed: HiGHS {step} returned an error")


class _FaceLP:
    """The LP of ``face``, laid out once for every start on it, as ``linprog``
    lays it out: the rows of :func:`_constraints` that may be slack first, as
    inequalities, then the tight ones, as equalities, each group in its order
    there, and the matrix by column. Each column has two unit entries, so
    ``rows`` holds each cell's two rows in that layout, ascending, and
    :meth:`model` lays out the LP over any set of columns. This is the one
    place that lays out a face's LP. When every appellation row has at most
    ``_SIFT_ROW_CELLS`` cells, every start's first LP is the whole face, so
    ``whole`` holds it, without costs, for the starts to share; else None."""

    def __init__(self, problem: AllocationProblem, face: OptimalFace):
        order = np.argsort(face.tight, kind="stable")  # the slack rows, then the tight ones
        position = np.empty(len(order), dtype=np.int32)
        position[order] = np.arange(len(order), dtype=np.int32)
        self.rows = np.column_stack([position[problem.row_index],
                                     position[len(problem.row_codes) + problem.col_index]])
        self.rows.sort(axis=1)
        caps = np.concatenate([problem.row_caps, problem.col_caps])
        self.row_lower = np.where(face.tight, caps, -_core.kHighsInf)[order]
        self.row_upper = caps[order]
        self.bounds = face.bounds
        m = problem.n_cells
        fits = np.bincount(problem.row_index).max(initial=0) <= _SIFT_ROW_CELLS
        self.whole = self.model(np.arange(m), np.zeros(m)) if fits else None

    def model(self, columns: np.ndarray, costs: np.ndarray) -> _core.HighsLp:
        """The LP over the cells ``columns`` only, in that order, with their
        ``costs``."""
        lp = _core.HighsLp()
        lp.num_row_ = lp.a_matrix_.num_row_ = len(self.row_upper)
        lp.num_col_ = lp.a_matrix_.num_col_ = len(columns)
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = np.arange(0, 2 * len(columns) + 1, 2, dtype=np.int32)
        lp.a_matrix_.index_ = self.rows[columns].ravel()
        lp.a_matrix_.value_ = np.ones(2 * len(columns))
        lp.col_cost_ = costs[columns]
        lp.col_lower_, lp.col_upper_ = self.bounds[columns].T.copy()
        lp.row_lower_, lp.row_upper_ = self.row_lower, self.row_upper
        return lp


def _phase2_highs() -> _core._Highs:
    """A HiGHS instance set up for phase-2 LPs; each start passes it a model."""
    highs = _core._Highs()
    for key, value in _PHASE2_OPTIONS.items():
        _checked(highs.setOptionValue(key, value), f"setOptionValue({key!r})")
    return highs


def _cheapest(group: np.ndarray, by_cost: np.ndarray, count: int) -> np.ndarray:
    """Marks the ``count`` cheapest cells of each group, given the cell
    indices in ascending order of cost; a tie goes to the earlier cell."""
    key = group[by_cost]
    # In the narrowest integer type that holds it, a key of up to 16 bits
    # sorts by radix: several times faster than a comparison sort.
    grouped = np.argsort(key.astype(np.min_scalar_type(key.max())), kind="stable")
    ordered = key[grouped]
    rank = np.arange(len(key)) - np.searchsorted(ordered, ordered)
    chosen = np.zeros(len(key), dtype=bool)
    chosen[by_cost[grouped[rank < count]]] = True
    return chosen


def solve(problem: AllocationProblem, seed: int, lp: _FaceLP,
          highs: _core._Highs) -> np.ndarray:
    """The vertex of the face ``lp`` lays out that maximizes
    ``random_init(problem, seed) / upper_bounds``, as a vector over
    ``problem.cells``: exactly feasible, its objective the optimum up to float
    rounding, zero at or below ``_SUPPORT_HA``. ``highs`` is any
    :func:`_phase2_highs` instance; the start passes it a model of its own.

    The LP is sifted. It starts on a working set of columns: each appellation
    row's ``_SIFT_ROW_CELLS`` cheapest cells, each county's
    ``_SIFT_COUNTY_CELLS`` cheapest ones and every column with a positive lower
    bound. After each run, every column left out that is not fixed and whose
    reduced cost under the run's row duals is below minus the dual
    feasibility tolerance joins the model, which runs again from its basis.
    When none joins, no column of the face prices in, so the vertex is optimal
    for the whole face at HiGHS's own tolerance. A working set that does not
    solve gets every column left out, and that LP's status is the start's.
    The working set depends only on the problem, the face and the seed, so a
    start lands on the same bits whichever thread solves it. When every row
    has at most ``_SIFT_ROW_CELLS`` cells, the first LP is ``lp.whole``, and
    the start is bit for bit one ``linprog`` call over the face."""
    m = problem.n_cells
    if m == 0:
        return np.zeros(0)
    costs = -random_init(problem, seed) / problem.upper_bounds
    lower, upper = lp.bounds.T
    if lp.whole is not None:
        working = np.ones(m, dtype=bool)
        _checked(highs.passModel(lp.whole), "passModel")
        _checked(highs.changeColsCost(m, np.arange(m, dtype=np.int32), costs), "changeColsCost")
    else:
        by_cost = np.argsort(costs, kind="stable")
        working = (_cheapest(problem.row_index, by_cost, _SIFT_ROW_CELLS)
                   | _cheapest(problem.col_index, by_cost, _SIFT_COUNTY_CELLS) | (lower > 0))
        _checked(highs.passModel(lp.model(np.flatnonzero(working), costs)), "passModel")
    columns = np.flatnonzero(working)
    tol = _HIGHS_OPTIONS["dual_feasibility_tolerance"]
    while True:
        _checked(highs.run(), "run")
        status = highs.getModelStatus()
        if len(columns) == m:  # the LP of the whole face: its status is the start's
            if status != _core.HighsModelStatus.kOptimal:
                raise SolveError(f"phase-2 LP failed ({highs.modelStatusToString(status)})")
            break
        if status != _core.HighsModelStatus.kOptimal:
            joining = np.flatnonzero(~working)
        else:
            duals = np.asarray(highs.getSolution().row_dual)
            reduced = costs - duals[lp.rows[:, 0]] - duals[lp.rows[:, 1]]
            joining = np.flatnonzero(~working & (upper > lower) & (reduced < -tol))
            if len(joining) == 0:
                break
        n = len(joining)
        _checked(highs.addCols(
            n, costs[joining], lower[joining], upper[joining], 2 * n,
            np.arange(0, 2 * n, 2, dtype=np.int32), lp.rows[joining].ravel(), np.ones(2 * n),
        ), "addCols")
        working[joining] = True
        columns = np.concatenate([columns, joining])
    x = np.zeros(m)
    x[columns] = highs.getSolution().col_value
    x = project_feasible(problem, x)
    x[x <= _SUPPORT_HA] = 0.0
    return x


@dataclass(eq=False)
class MultiStartResult:
    """Averaged allocation, the per-start solutions in seed order, each one
    holding exactly the cells of its file, and the failed starts as (seed, message)."""

    average: AllocationMatrix
    solutions: list[AllocationMatrix]
    failures: list[tuple[int, str]]
    optimal_value: float


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_starts(pool: ThreadPoolExecutor, workers: int, problem: AllocationProblem,
                face: OptimalFace, seeds: Sequence[int],
                probe: bool) -> dict[int, np.ndarray | SolveError] | None:
    """Solve every start on ``face`` on ``workers`` threads: this one and
    ``workers - 1`` of ``pool``. The face's LP is laid out once for them all.
    Each thread takes seeds from one queue until none is left, and solves them
    on one HiGHS instance, made at its first seed, to which each start passes
    a model of its own. With ``probe``, the
    first failed start rejects the face: no thread takes a seed after it, the
    starts already running finish, and the result is None. Without it, a
    failed start records its error."""
    pending: queue.SimpleQueue[int] = queue.SimpleQueue()
    for seed in seeds:
        pending.put(seed)
    outcomes: dict[int, np.ndarray | SolveError] = {}
    rejected = threading.Event()
    lp = _FaceLP(problem, face)

    def run() -> None:
        highs = None
        while not rejected.is_set():
            try:
                seed = pending.get_nowait()
            except queue.Empty:
                return
            try:
                if highs is None:
                    highs = _phase2_highs()
                outcomes[seed] = solve(problem, seed, lp, highs)
            except SolveError as exc:
                if probe:
                    rejected.set()
                else:
                    outcomes[seed] = exc

    helpers = [pool.submit(run) for _ in range(workers - 1)]
    run()
    for helper in helpers:
        helper.result()
    return None if rejected.is_set() else outcomes


def multi_start_average(
    problem: AllocationProblem,
    k_starts: int = 20,
    seed_base: int = 0,
) -> MultiStartResult:
    """Average the solutions of ``k_starts`` random starts cell-wise.

    Each start is one sifted LP (:func:`solve`). The starts first run on the
    face where every appellation row is filled; if one fails there, phase 1
    computes the optimal face and every start runs again on it, so no start on
    the rejected face counts as failed. The starts run on ``min(k_starts,
    CPUs)`` threads, this one included, as HiGHS releases the GIL. Outcomes are
    kept by seed and reduced in seed order, so results are bit-identical
    whatever the thread count. The average, feasible by convexity, and each
    start are cut at ``_SUPPORT_HA``. Failed starts are excluded and reported;
    all starts failing is fatal, and any other error in a start propagates.
    Agreement between the starts is measured by ``validate.compare_solutions``.
    """
    if k_starts < 1:
        raise ValueError("k_starts must be >= 1")

    seeds = range(seed_base, seed_base + k_starts)
    workers = min(k_starts, _cpu_count())
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        face = _saturated_face(problem)
        outcomes = None if face is None else _run_starts(
            pool, workers, problem, face, seeds, probe=True)
        if outcomes is None:
            face = optimal_value(problem)
            outcomes = _run_starts(pool, workers, problem, face, seeds, probe=False)

    vectors: list[np.ndarray] = []
    failures: list[tuple[int, str]] = []
    for i, seed in enumerate(seeds):
        outcome = outcomes[seed]
        if isinstance(outcome, SolveError):
            logger.warning("start %d (seed %d) failed: %s", i, seed, outcome)
            failures.append((seed, str(outcome)))
            continue
        vectors.append(outcome)
    if not vectors:
        raise SolveError(f"all {k_starts} starts failed")

    avg = project_feasible(problem, np.vstack(vectors).sum(axis=0) / len(vectors))
    solutions = [_matrix_from_vector(problem, x) for x in vectors]
    return MultiStartResult(_matrix_from_vector(problem, avg), solutions, failures, face.value)


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
    inside = []
    for (code, insee), value in cells.items():
        if (code, insee) not in known:
            violations.append(f"cell ({code}, {insee}) outside the mask")
            continue
        if value < -abs_tol:
            violations.append(f"cell ({code}, {insee}) negative: {value!r}")
        inside.append(((code, insee), value))
    for family, side, caps in (("appellation", 0, problem.appellation_caps),
                               ("county", 1, problem.county_caps)):
        for key, total in sorted(exact_sums((cell[side], v) for cell, v in inside).items()):
            if total > caps[key] * (1 + rel_tol) + abs_tol:
                violations.append(f"{family} {key} over cap: {total!r} > {caps[key]!r}")
    return violations


def assert_feasible(problem: AllocationProblem, cells: Mapping[Cell, float]) -> None:
    violations = feasibility_violations(problem, cells)
    if violations:
        raise SolveError("; ".join(violations[:10]))


# Canonical CSV triple so instances can be dumped, shared and reloaded.

CAPS_APPELLATIONS_FILE = "caps_appellations.csv"
CAPS_COUNTIES_FILE = "caps_counties.csv"
MASK_CELLS_FILE = "mask_cells.csv"
#: Header rows, each shared by a table's writer and its reader. A mask cell's
#: ``known_ha`` is its fixed surface if it is a known cell, else empty.
CAPS_APPELLATIONS_HEADER = ("code", "cap_ha", "alpha")
CAPS_COUNTIES_HEADER = ("insee", "cap_ha")
MASK_CELLS_HEADER = ("appellation", "insee", "known_ha")
SOLUTION_HEADER = ("appellation", "insee", "surface_ha")


def dump_problem(problem: AllocationProblem, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_rows(
        directory / CAPS_APPELLATIONS_FILE, CAPS_APPELLATIONS_HEADER,
        ([code, repr(cap), repr(problem.weights[code])]
         for code, cap in sorted(problem.appellation_caps.items())),
    )
    write_rows(
        directory / CAPS_COUNTIES_FILE, CAPS_COUNTIES_HEADER,
        ([insee, repr(cap)] for insee, cap in sorted(problem.county_caps.items())),
    )
    write_rows(
        directory / MASK_CELLS_FILE, MASK_CELLS_HEADER,
        ([*cell, repr(lb) if lb > 0 else ""]
         for cell, lb in zip(problem.cells, problem.lower_bounds.tolist())),
    )


def load_problem(directory: str | Path) -> AllocationProblem:
    """Read a problem written by :func:`dump_problem`. A malformed row is a
    ``model.LayoutError`` naming the file and line, and a repeated key or a
    value out of the ranges :func:`problem_from_caps` checks an
    :class:`IntegrityError` naming the file."""
    directory = Path(directory)
    appellations = list(read_rows(directory / CAPS_APPELLATIONS_FILE, CAPS_APPELLATIONS_HEADER,
                                  lambda code, cap, alpha: (code, float(cap), float(alpha))))
    county_caps = list(read_rows(directory / CAPS_COUNTIES_FILE, CAPS_COUNTIES_HEADER,
                                 lambda insee, cap: (insee, float(cap))))

    def mask_row(code: str, insee: str, known_ha: str) -> tuple[Cell, float | None]:
        return (code, insee), float(known_ha) if known_ha else None

    cells: list[Cell] = []
    known: dict[Cell, float] = {}
    for cell, surface in read_rows(directory / MASK_CELLS_FILE, MASK_CELLS_HEADER, mask_row):
        cells.append(cell)
        if surface is not None:
            known[cell] = surface
    for name, what, keys in ((CAPS_APPELLATIONS_FILE, "code", [c for c, _, _ in appellations]),
                             (CAPS_COUNTIES_FILE, "county", [i for i, _ in county_caps]),
                             (MASK_CELLS_FILE, "cell", cells)):
        if len(set(keys)) < len(keys):
            repeated = next(key for key, n in Counter(keys).items() if n > 1)
            raise IntegrityError(f"{name}: {what} {repeated!r} is repeated")
    return problem_from_caps({code: cap for code, cap, _ in appellations}, dict(county_caps),
                             {code: alpha for code, _, alpha in appellations}, cells, known)


def write_solution(cells: Mapping[Cell, float], path: str | Path) -> None:
    """Sparse allocation CSV in cell order, values by ``repr`` so they read
    back bit-exact; cells at or below ``_SUPPORT_HA`` are omitted."""
    write_rows(
        path, SOLUTION_HEADER,
        ([*cell, repr(cells[cell])] for cell in sorted(cells) if cells[cell] > _SUPPORT_HA),
    )


def read_solution(path: str | Path) -> dict[Cell, float]:
    """Read a solution written by :func:`write_solution`. A malformed row, a
    non-finite surface or a negative one is a ``model.LayoutError`` naming
    the file and line."""

    def row(code: str, insee: str, text: str) -> tuple[Cell, float]:
        value = finite_float(text)
        if value < 0:
            raise ValueError(f"negative surface {text!r}")
        return (code, insee), value

    return dict(read_rows(path, SOLUTION_HEADER, row))
