from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from baselines import (
    brute_force_optimum,
    greedy_baseline,
    linprog_start,
    phase1_multi_start,
    solve_start,
)
from vinevalue import allocator, cli, synth
from vinevalue.allocator import (
    SolveError,
    assert_feasible,
    build_problem,
    dump_problem,
    feasibility_violations,
    load_problem,
    multi_start_average,
    objective,
    optimal_value,
    problem_from_caps,
    project_feasible,
    random_init,
    read_solution,
    solve,
    write_solution,
)
from vinevalue.config import load_config
from vinevalue.model import AppellationRecord, Category, CountyRecord, IntegrityError
from vinevalue.validate import compare_solutions


def _simple(app_caps, county_caps, weights, cells):
    return problem_from_caps(app_caps, county_caps, weights, cells)


def priority_problem():
    """Two appellations with weights 1 and 1/4 competing for one county."""
    return _simple(
        {"AOP1": 10.0, "NP1": 10.0},
        {"01001": 10.0},
        {"AOP1": 1.0, "NP1": 0.25},
        [("AOP1", "01001"), ("NP1", "01001")],
    )


def fixed_columns_problem():
    """Three priorities over three counties, with a unique optimum. The
    phase-1 LP is degenerate: one optimal dual fixes the NP1 cell in county
    01002, which PGI1 fills, at zero, another fixes the PGI1 cell there at its
    cap, and either face holds only the optimum."""
    return _simple(
        {"AOP1": 8.0, "PGI1": 9.0, "NP1": 10.0},
        {"01001": 8.0, "01002": 5.0, "01003": 3.0},
        {"AOP1": 1.0, "PGI1": 1.0 / 3.0, "NP1": 0.25},
        [("AOP1", "01001"), ("PGI1", "01001"), ("PGI1", "01002"),
         ("NP1", "01002"), ("NP1", "01003")],
    )


def stable_face_problem():
    """Three priorities over two counties, with a unique optimum whose
    phase-1 face HiGHS reads the same with presolve on or off. AOP1 takes 11
    of county 01002's 12 ha and PGI1 the last one, strictly inside its bounds,
    so every optimal dual prices 01002 at 1/3 and fixes the NP1 cell there (1/4)
    at zero. The AOP1 cell in 01002 and the PGI1 cell in 01001 sit at their
    caps."""
    return _simple(
        {"AOP1": 11.0, "PGI1": 10.0, "NP1": 4.0},
        {"01001": 2.0, "01002": 12.0},
        {"AOP1": 1.0, "PGI1": 1.0 / 3.0, "NP1": 0.25},
        [("AOP1", "01002"), ("PGI1", "01001"), ("PGI1", "01002"), ("NP1", "01002")],
    )


def contested_problem():
    """Both AOP1 and NP1 reach only county 01001, which holds one of them:
    the caps in total and every row's cells could hold every row, yet the
    rows cannot all be filled. PGI1 fills its row in county 01002."""
    return _simple(
        {"AOP1": 10.0, "NP1": 10.0, "PGI1": 1.0},
        {"01001": 10.0, "01002": 19.0},
        {"AOP1": 1.0, "NP1": 0.25, "PGI1": 1.0 / 3.0},
        [("AOP1", "01001"), ("NP1", "01001"), ("PGI1", "01002")],
    )


def random_small_problem(rng, max_rows=3, max_cols=3, integer_caps=True):
    n_rows = int(rng.integers(1, max_rows + 1))
    n_cols = int(rng.integers(1, max_cols + 1))
    rows = [f"A{i}" for i in range(n_rows)]
    cols = [f"{j + 1:05d}" for j in range(n_cols)]
    caps_r = {
        r: float(rng.integers(1, 13)) if integer_caps else float(rng.uniform(0.5, 12))
        for r in rows
    }
    caps_c = {
        c: float(rng.integers(1, 13)) if integer_caps else float(rng.uniform(0.5, 12))
        for c in cols
    }
    weights = {r: float(rng.choice([1.0, 1.0 / 3.0, 0.25])) for r in rows}
    cells = [(r, c) for r in rows for c in cols if rng.random() < 0.8]
    if not cells:
        cells = [(rows[0], cols[0])]
    return _simple(caps_r, caps_c, weights, cells[:9])


def record_phase1(monkeypatch):
    """Patches phase 1 to append every face it computes to the list returned."""
    faces = []
    real_optimal_value = allocator.optimal_value

    def recording_optimal_value(problem):
        faces.append(real_optimal_value(problem))
        return faces[-1]

    monkeypatch.setattr(allocator, "optimal_value", recording_optimal_value)
    return faces


class TestBuildProblem:
    def test_bounds_are_min_of_caps(self):
        problem = _simple(
            {"A": 4.0, "B": 7.0}, {"00001": 5.0, "00002": 2.0},
            {"A": 1.0, "B": 1.0},
            [("A", "00001"), ("A", "00002"), ("B", "00001"), ("B", "00002")],
        )
        bounds = dict(zip(problem.cells, problem.upper_bounds))
        assert bounds == {
            ("A", "00001"): 4.0, ("A", "00002"): 2.0,
            ("B", "00001"): 5.0, ("B", "00002"): 2.0,
        }

    def test_zero_cap_county_drops_cells(self):
        problem = _simple(
            {"A": 4.0}, {"00001": 0.0, "00002": 1.0}, {"A": 1.0},
            [("A", "00001"), ("A", "00002")],
        )
        assert problem.cells == (("A", "00002"),)

    def test_cell_at_or_below_the_support_cut_off_is_no_column(self, monkeypatch):
        # B's cell in county 02 could hold 5e-10 ha, which no allocation
        # holds; the optimum leaves it out too. The rows cannot all be filled.
        problem = _simple(
            {"A": 1.0, "B": 1.0}, {"01": 1.0, "02": 5e-10}, {"A": 1.0, "B": 1.0},
            [("A", "01"), ("B", "01"), ("B", "02")],
        )
        assert problem.cells == (("A", "01"), ("B", "01"))
        faces = record_phase1(monkeypatch)
        result = multi_start_average(problem, k_starts=3)
        assert len(faces) == 1
        assert result.optimal_value == 1.0
        for solution in (*result.solutions, result.average):
            assert objective(problem.weights, solution.cells) == result.optimal_value

    def test_unknown_reference_fatal(self):
        for cells, known, name in (
            ([("B", "00001")], {}, "appellation 'B'"),
            ([("A", "00002")], {}, "county '00002'"),
            ([("A", "00001")], {("A", "00002"): 0.5}, "county '00002'"),
        ):
            with pytest.raises(IntegrityError, match=f"unknown {name}"):
                problem_from_caps({"A": 1.0}, {"00001": 1.0}, {"A": 1.0}, cells, known)

    def test_from_records(self):
        apps = [AppellationRecord(code="A", category=Category.AOP, marginal_surface=5.0)]
        counties = [CountyRecord(insee_code="00001", marginal_surface=3.0)]
        problem = build_problem(apps, counties, {("A", "00001")})
        assert problem.weights["A"] == 1.0
        assert problem.cells == (("A", "00001"),)

    def test_cells_sorted_lexicographically(self):
        problem = _simple(
            {"B": 1.0, "A": 1.0}, {"00002": 1.0, "00001": 1.0},
            {"A": 1.0, "B": 1.0},
            [("B", "00002"), ("A", "00002"), ("B", "00001"), ("A", "00001")],
        )
        assert list(problem.cells) == sorted(problem.cells)


def known_cell_problem():
    """AOP1 and the known cell of K1 compete for county 01001. K1 is fixed
    at 3 ha although its weight is the lowest, so the phase-1 duals press
    its column against its lower bound."""
    return problem_from_caps(
        {"AOP1": 20.0, "K1": 3.0},
        {"01001": 10.0, "01002": 3.0},
        {"AOP1": 1.0, "K1": 0.25},
        [("AOP1", "01001"), ("AOP1", "01002")],
        {("K1", "01001"): 3.0},
    )


class TestKnownCells:
    def test_bounds(self):
        problem = known_cell_problem()
        assert problem.cells == (("AOP1", "01001"), ("AOP1", "01002"), ("K1", "01001"))
        assert problem.lower_bounds.tolist() == [0.0, 0.0, 3.0]
        assert problem.upper_bounds.tolist() == [10.0, 3.0, 3.0]
        for seed in range(5):
            draw = random_init(problem, seed)
            assert draw[2] == 3.0
            assert np.all(draw[:2] <= problem.upper_bounds[:2])

    def test_fixed_surface_takes_capacity_in_the_lp(self):
        problem = known_cell_problem()
        result = multi_start_average(problem, k_starts=4, seed_base=3)
        assert result.optimal_value == pytest.approx(10.0 + 0.25 * 3.0, rel=1e-12)
        for solution in [*result.solutions, result.average]:
            assert solution.cells[("K1", "01001")] == 3.0
            assert solution.cells[("AOP1", "01001")] == pytest.approx(7.0, rel=1e-12)
            assert solution.cells[("AOP1", "01002")] == pytest.approx(3.0, rel=1e-12)
            assert feasibility_violations(problem, solution.cells) == []

    def test_projection_keeps_known_cells(self):
        problem = known_cell_problem()
        projected = project_feasible(problem, np.array([9.0, 4.0, 0.0]))
        assert projected[2] == 3.0
        assert feasibility_violations(problem, dict(zip(problem.cells, projected))) == []

    @pytest.mark.parametrize("known, message", [
        ({("K1", "01001"): 3.0, ("K1", "01002"): 1.5}, "appellation K1 over cap"),
        ({("AOP1", "01002"): 4.5}, "county 01002 over cap"),
    ], ids=["appellation", "county"])
    def test_known_surface_over_a_cap_is_fatal(self, known, message):
        with pytest.raises(IntegrityError, match=message):
            problem_from_caps(
                {"AOP1": 10.0, "K1": 3.0}, {"01001": 10.0, "01002": 3.0},
                {"AOP1": 1.0, "K1": 0.25}, [("AOP1", "01001")], known,
            )

    def test_known_surface_over_a_cap_by_a_hair_is_fatal(self):
        # 30.00001 is within the 1e-6 relative tolerance of the post-solve
        # check, but no LP point can hold it under a cap of 30.0.
        with pytest.raises(IntegrityError, match="county 01 over cap"):
            problem_from_caps(
                {"A": 10.0, "K": 31.0}, {"01": 30.0}, {"A": 1.0, "K": 1.0},
                [("A", "01")], {("K", "01"): 30.00001},
            )

    def test_new_code_capped_at_the_sum_of_its_cells(self):
        # 0.1 + 0.2 + 0.3 adds up to 0.6000000000000001 in float order, one
        # ulp over the exactly rounded cap.
        known = {("K1", "01001"): 0.1, ("K1", "01002"): 0.2, ("K1", "01003"): 0.3}
        problem = problem_from_caps(
            {"K1": math.fsum(known.values())}, dict.fromkeys(("01001", "01002", "01003"), 1.0),
            {"K1": 1.0}, [], known,
        )
        assert multi_start_average(problem, k_starts=2).average.cells == known


class TestRandomInit:
    def test_deterministic(self):
        problem = priority_problem()
        assert np.array_equal(random_init(problem, 7), random_init(problem, 7))

    def test_within_bounds(self):
        problem = priority_problem()
        for seed in range(20):
            draw = random_init(problem, seed)
            assert np.all(draw >= 0)
            assert np.all(draw <= problem.upper_bounds)

    def test_zero_capacity_problem(self):
        problem = _simple({"A": 0.0}, {"00001": 5.0}, {"A": 1.0}, [("A", "00001")])
        assert random_init(problem, 1).size == 0


class TestSolve:
    def test_one_by_one_forced_by_caps(self):
        problem = _simple({"A": 5.0}, {"00001": 3.0}, {"A": 1.0}, [("A", "00001")])
        solution = solve_start(problem, 0, optimal_value(problem))
        assert solution.cells[("A", "00001")] == pytest.approx(3.0, abs=1e-9)
        assert objective(problem.weights, solution.cells) == pytest.approx(3.0, abs=1e-9)

    def test_priority_weighting(self):
        problem = priority_problem()
        face = optimal_value(problem)
        for seed in range(5):
            solution = solve_start(problem, seed, face)
            assert solution.cells.get(("AOP1", "01001"), 0.0) == pytest.approx(10.0, abs=1e-6)
            assert solution.cells.get(("NP1", "01001"), 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_output_satisfies_all_constraints(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            problem = random_small_problem(rng, max_rows=4, max_cols=4, integer_caps=False)
            face = optimal_value(problem)
            for seed in (1, 2, 3):
                assert feasibility_violations(problem, solve_start(problem, seed, face).cells) == []

    def test_empty_problem(self):
        problem = _simple({"A": 0.0}, {"00001": 0.0}, {"A": 1.0}, [("A", "00001")])
        solution = solve_start(problem, 0, optimal_value(problem))
        assert solution.cells == {}
        assert objective(problem.weights, solution.cells) == 0.0

    def test_non_unique_optimum_depends_on_start(self):
        # Degenerate instance with two optimal vertices: different starts
        # reach different solutions while the objective never changes.
        problem = _simple(
            {"A": 1.0, "B": 1.0}, {"00001": 1.0, "00002": 1.0},
            {"A": 1.0, "B": 1.0},
            [("A", "00001"), ("A", "00002"), ("B", "00001"), ("B", "00002")],
        )
        face = optimal_value(problem)
        first, second = (solve_start(problem, seed, face) for seed in (0, 2))
        assert first.cells != second.cells
        value = objective(problem.weights, first.cells)
        assert value == pytest.approx(objective(problem.weights, second.cells), rel=1e-9)
        assert value == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("county_scale", [1.0, 0.8], ids=["filled rows", "phase 1"])
    def test_reused_model_reaches_each_start_s_own_vertex(self, county_scale):
        """Each start passes a model of its own to the HiGHS instance it
        shares with the starts before it, so it lands on the bits of an
        instance of its own."""
        problem = criterion_2_problem(np.random.default_rng(2424), county_scale)
        face = allocator._saturated_face(problem) if county_scale == 1.0 \
            else optimal_value(problem)
        assert face is not None
        lp, highs = allocator._FaceLP(problem, face), allocator._phase2_highs()
        for seed in range(10):
            assert np.array_equal(solve(problem, seed, lp, highs),
                                  solve(problem, seed, lp, allocator._phase2_highs()))

    def test_a_highs_error_names_the_call(self, monkeypatch):
        problem = priority_problem()
        face = optimal_value(problem)
        monkeypatch.setattr(allocator._core._Highs, "run",
                            lambda highs: allocator._core.HighsStatus.kError)
        with pytest.raises(SolveError, match=r"^phase-2 LP failed: HiGHS run returned an error$"):
            solve(problem, 0, allocator._FaceLP(problem, face), allocator._phase2_highs())


class TestBruteForce:
    def test_one_by_one(self):
        problem = _simple({"A": 5.0}, {"00001": 3.0}, {"A": 1.0}, [("A", "00001")])
        best = brute_force_optimum(problem, 1.0)
        assert best.cells == {("A", "00001"): 3.0}
        assert objective(problem.weights, best.cells) == 3.0

    def test_two_by_two_saturates_marginals(self):
        problem = _simple(
            {"A": 1.0, "B": 1.0}, {"00001": 1.0, "00002": 1.0},
            {"A": 1.0, "B": 1.0},
            [("A", "00001"), ("A", "00002"), ("B", "00001"), ("B", "00002")],
        )
        best = brute_force_optimum(problem, 0.5)
        assert objective(problem.weights, best.cells) == pytest.approx(2.0)

    def test_masked_cell_reduces_optimum(self):
        full = _simple(
            {"A": 2.0, "B": 2.0}, {"00001": 2.0, "00002": 2.0},
            {"A": 1.0, "B": 1.0},
            [("A", "00001"), ("A", "00002"), ("B", "00001"), ("B", "00002")],
        )
        masked = _simple(
            {"A": 2.0, "B": 2.0}, {"00001": 2.0, "00002": 2.0},
            {"A": 1.0, "B": 1.0},
            [("A", "00001"), ("B", "00001")],
        )
        assert objective(masked.weights, brute_force_optimum(masked, 1.0).cells) < objective(
            full.weights, brute_force_optimum(full, 1.0).cells)

    def test_refuses_large_instances(self):
        rows = {f"A{i}": 1.0 for i in range(4)}
        cols = {f"{j + 1:05d}": 1.0 for j in range(3)}
        weights = dict.fromkeys(rows, 1.0)
        cells = [(r, c) for r in rows for c in cols]
        problem = _simple(rows, cols, weights, cells)
        with pytest.raises(ValueError, match="too large"):
            brute_force_optimum(problem, 1.0)

    def test_refuses_fine_grids(self):
        problem = _simple({"A": 10.0}, {"00001": 10.0}, {"A": 1.0}, [("A", "00001")])
        with pytest.raises(ValueError, match="too large"):
            brute_force_optimum(problem, 0.5)


class TestSolverAgainstOracles:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            problem = random_small_problem(rng)
            best = brute_force_optimum(problem, 1.0)
            result = multi_start_average(problem, k_starts=3, seed_base=2)
            best_value = objective(problem.weights, best.cells)
            scale = max(abs(best_value), 1.0)
            assert abs(result.optimal_value - best_value) <= 1e-6 * scale
            for solution in [*result.solutions, result.average]:
                assert objective(problem.weights, solution.cells) == pytest.approx(
                    result.optimal_value, rel=1e-12
                )

    def test_face_with_fixed_columns_matches_brute_force(self):
        problem = stable_face_problem()
        low, high = optimal_value(problem).bounds.T
        assert [cell for cell, h in zip(problem.cells, high) if h == 0.0] == [("NP1", "01002")]
        assert [cell for cell, lo, hi, ub in zip(problem.cells, low, high, problem.upper_bounds)
                if lo == hi == ub] == [("AOP1", "01002"), ("PGI1", "01001")]
        for problem in (fixed_columns_problem(), stable_face_problem()):
            best = brute_force_optimum(problem, 1.0)
            face = optimal_value(problem)
            for seed in range(10):
                solution = solve_start(problem, seed, face)
                assert objective(problem.weights, solution.cells) == pytest.approx(
                    objective(problem.weights, best.cells), rel=1e-12)
                assert solution.cells.keys() == best.cells.keys()
                for cell, value in best.cells.items():
                    assert solution.cells[cell] == pytest.approx(value, rel=1e-12)

    def test_at_least_greedy_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            problem = random_small_problem(rng, max_rows=5, max_cols=5, integer_caps=False)
            greedy = greedy_baseline(problem)
            assert feasibility_violations(problem, greedy.cells) == []
            solution = solve_start(problem, 3, optimal_value(problem))
            # The solver returns a point of the exact optimal face, so it can
            # fall short of greedy by float rounding only.
            greedy_value = objective(problem.weights, greedy.cells)
            slack = 1e-12 * max(1.0, greedy_value)
            assert objective(problem.weights, solution.cells) >= greedy_value - slack

    def test_priority_instance_brute_force_unique(self):
        problem = priority_problem()
        best = brute_force_optimum(problem, 1.0)
        assert best.cells == {("AOP1", "01001"): 10.0}


class TestMultiStart:
    def test_single_start_equals_solve(self):
        problem = priority_problem()
        result = multi_start_average(problem, k_starts=1, seed_base=5)
        direct = solve_start(problem, 5, optimal_value(problem))
        assert result.average.cells == direct.cells

    def test_average_is_feasible(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            problem = random_small_problem(rng, max_rows=6, max_cols=8, integer_caps=False)
            result = multi_start_average(problem, k_starts=4, seed_base=0)
            assert feasibility_violations(problem, result.average.cells) == []

    def test_unique_optimum_gives_tau_one(self):
        result = multi_start_average(priority_problem(), k_starts=3, seed_base=9)
        assert compare_solutions([s.cells for s in result.solutions]).kendall_tau == 1.0
        assert result.average.cells[("AOP1", "01001")] == pytest.approx(10.0, abs=1e-6)

    def test_average_objective_between_min_and_max(self):
        rng = np.random.default_rng(23)
        problem = random_small_problem(rng, max_rows=6, max_cols=8, integer_caps=False)
        result = multi_start_average(problem, k_starts=5, seed_base=1)
        objectives = [objective(problem.weights, s.cells) for s in result.solutions]
        average = objective(problem.weights, result.average.cells)
        assert min(objectives) - 1e-9 <= average <= max(objectives) + 1e-9

    def test_bit_identical_across_runs(self):
        rng = np.random.default_rng(29)
        problem = random_small_problem(rng, max_rows=5, max_cols=6, integer_caps=False)
        first = multi_start_average(problem, k_starts=6, seed_base=42)
        second = multi_start_average(problem, k_starts=6, seed_base=42)
        assert first.average.cells == second.average.cells
        assert (objective(problem.weights, first.average.cells)
                == objective(problem.weights, second.average.cells))

    def test_empty_problem(self):
        problem = _simple({"A": 0.0}, {"00001": 0.0}, {"A": 1.0}, [("A", "00001")])
        result = multi_start_average(problem, k_starts=3)
        assert [s.cells for s in result.solutions] == [{}, {}, {}]
        assert result.average.cells == {}
        assert result.optimal_value == 0.0

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            multi_start_average(priority_problem(), k_starts=0)

    def test_no_allocation_holds_a_cell_at_or_below_the_support_cut_off(
            self, monkeypatch, tmp_path):
        """Cells of 5e-10 and 2e-12 ha in a start's vector, float noise that
        no file holds, are in neither the start nor the average handed out."""
        problem = _simple({"A": 1.0, "B": 1.0, "C": 1.0}, {"01": 3.0},
                          {"A": 1.0, "B": 1.0, "C": 1.0}, [("A", "01"), ("B", "01"), ("C", "01")])
        monkeypatch.setattr(allocator, "solve",
                            lambda *args: np.array([1.0, 5e-10, 2e-12]))
        result = multi_start_average(problem, k_starts=2)
        for solution in (*result.solutions, result.average):
            assert solution.cells == {("A", "01"): 1.0}
            write_solution(solution.cells, tmp_path / "solution.csv")
            assert read_solution(tmp_path / "solution.csv") == solution.cells

    @pytest.mark.parametrize("cpus", [3, 8])
    def test_same_result_for_any_worker_count(self, monkeypatch, cpus):
        """8 workers exceed the cores here; a thread switch every microsecond
        must still lose no start."""
        problem = random_small_problem(np.random.default_rng(37), max_rows=6, max_cols=8,
                                       integer_caps=False)
        fail_starts(monkeypatch, [3, 20, 42])
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, cpus):
                monkeypatch.setattr(allocator, "_cpu_count", lambda: workers)
                results.append(multi_start_average(problem, k_starts=40, seed_base=3))
        finally:
            sys.setswitchinterval(interval)
        one, many = results
        assert len(many.solutions) == 37
        assert [s.cells for s in one.solutions] == [s.cells for s in many.solutions]
        assert one.average.cells == many.average.cells
        assert (objective(problem.weights, one.average.cells)
                == objective(problem.weights, many.average.cells))
        assert one.failures == many.failures == [
            (seed, f"start {seed} made to fail") for seed in (3, 20, 42)]

    def test_same_result_for_any_cpu_count_on_a_synth_instance(self, monkeypatch):
        """Each thread reuses its HiGHS instance for the starts it takes,
        whichever they are, and a failed start fails alone."""
        problem = synth.generate((30, 60, 0.2), seed=5, counties_per_department=12).problem
        assert problem.n_cells == 537
        fail_starts(monkeypatch, [9])
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 3, 8):
                monkeypatch.setattr(allocator, "_cpu_count", lambda: cpus)
                results.append(multi_start_average(problem, k_starts=20, seed_base=3))
        finally:
            sys.setswitchinterval(interval)
        one = results[0]
        assert one.failures == [(9, "start 9 made to fail")]
        assert len(one.solutions) == 19
        for many in results[1:]:
            assert [s.cells for s in one.solutions] == [s.cells for s in many.solutions]
            assert one.average.cells == many.average.cells
            assert one.failures == many.failures
            assert one.optimal_value == many.optimal_value

    @pytest.mark.parametrize(("k_starts", "most_threads"), [(1, 1), (7, 3)])
    def test_calling_thread_runs_starts(self, monkeypatch, k_starts, most_threads):
        real = allocator.solve
        threads = set()
        # Each thread's first start waits for the others' first, so the
        # helpers cannot drain the queue before the calling thread takes a
        # start; two blocked helpers hold only two of the seven.
        first_starts = threading.Barrier(most_threads, timeout=10)

        def recording_solve(*args):
            if threading.current_thread() not in threads:
                threads.add(threading.current_thread())
                first_starts.wait()
            return real(*args)

        monkeypatch.setattr(allocator, "_cpu_count", lambda: 3)
        monkeypatch.setattr(allocator, "solve", recording_solve)
        multi_start_average(priority_problem(), k_starts=k_starts)
        assert threading.main_thread() in threads
        assert len(threads) <= most_threads


def fail_starts(monkeypatch, seeds):
    """Make ``allocator.solve`` raise ``SolveError`` on the starts of
    ``seeds``, on every face. A failure on the filled-rows face rejects that
    face, as an LP that HiGHS does not solve does, so the starts run again on
    the phase-1 face, where the starts of ``seeds`` fail for good."""
    real = allocator.solve

    def solve_or_fail(problem, seed, *args):
        if seed in seeds:
            raise SolveError(f"start {seed} made to fail")
        return real(problem, seed, *args)

    monkeypatch.setattr(allocator, "solve", solve_or_fail)


class TestFailedStarts:
    @pytest.fixture(autouse=True)
    def three_workers(self, monkeypatch):
        monkeypatch.setattr(allocator, "_cpu_count", lambda: 3)

    def problem(self):
        return random_small_problem(np.random.default_rng(41), max_rows=5, max_cols=6,
                                    integer_caps=False)

    def test_failures_reported_in_seed_order(self, monkeypatch):
        problem = self.problem()
        assert allocator._saturated_face(problem) is not None
        faces = record_phase1(monkeypatch)
        fail_starts(monkeypatch, [15, 11, 13])
        result = multi_start_average(problem, k_starts=6, seed_base=10)
        assert result.failures == [(11, "start 11 made to fail"), (13, "start 13 made to fail"),
                                   (15, "start 15 made to fail")]
        [face] = faces
        assert result.optimal_value == face.value
        assert [s.cells for s in result.solutions] == [
            solve_start(problem, seed, face).cells for seed in (10, 12, 14)]

    def test_average_over_the_starts_that_succeeded(self, monkeypatch):
        problem = self.problem()
        survivors = multi_start_average(problem, k_starts=4, seed_base=12)
        fail_starts(monkeypatch, [10, 11])
        result = multi_start_average(problem, k_starts=6, seed_base=10)
        assert [s.cells for s in result.solutions] == [s.cells for s in survivors.solutions]
        assert result.average.cells == survivors.average.cells
        assert (objective(problem.weights, result.average.cells)
                == objective(problem.weights, survivors.average.cells))

    def test_all_starts_failing_is_fatal(self, monkeypatch):
        problem = self.problem()
        fail_starts(monkeypatch, [0, 1, 2])
        with pytest.raises(SolveError, match="^all 3 starts failed$"):
            multi_start_average(problem, k_starts=3)

    def test_other_error_on_a_helper_thread_propagates(self, monkeypatch):
        real = allocator.solve
        helper_called = threading.Event()

        def solve_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                helper_called.set()
                raise RuntimeError("helper broke")
            helper_called.wait(timeout=30)
            return real(*args)

        monkeypatch.setattr(allocator, "solve", solve_off_main)
        with pytest.raises(RuntimeError, match="helper broke"):
            multi_start_average(priority_problem(), k_starts=4)
        assert helper_called.is_set()


def count_lps(monkeypatch) -> tuple[list[int], list[int]]:
    """Record one entry per phase-1 LP (an ``allocator.linprog`` call) and
    one per phase-2 LP (a model passed to a HiGHS instance outside
    ``linprog``: one per start, however many times its sifted LP runs), from
    any thread."""
    phase1: list[int] = []
    phase2: list[int] = []
    in_linprog = threading.local()
    real_linprog = allocator.linprog
    real_pass = allocator._core._Highs.passModel

    def counted_linprog(*args, **kwargs):
        phase1.append(1)
        in_linprog.active = True
        try:
            return real_linprog(*args, **kwargs)
        finally:
            in_linprog.active = False

    def counted_pass(highs, *args):
        if not getattr(in_linprog, "active", False):
            phase2.append(1)
        return real_pass(highs, *args)

    monkeypatch.setattr(allocator, "linprog", counted_linprog)
    monkeypatch.setattr(allocator._core._Highs, "passModel", counted_pass)
    return phase1, phase2


def same_starts(result, oracle_face, oracle_solutions):
    """``result`` has no failed start, and agrees with the phase-1 oracle
    on the optimum, on each start's support and on its values within 1e-9 ha."""
    assert result.failures == []
    assert result.optimal_value == pytest.approx(oracle_face.value, rel=1e-12)
    assert len(result.solutions) == len(oracle_solutions)
    for solution, expected in zip(result.solutions, oracle_solutions):
        assert solution.cells.keys() == expected.cells.keys()
        for cell, value in expected.cells.items():
            assert solution.cells[cell] == pytest.approx(value, rel=0, abs=1e-9)


@st.composite
def small_problems(draw):
    """Up to 4 x 4 instances in quarter hectares, with the paper's three
    weights and up to two known cells, plus, in half of them, the overflow of
    ``contested_problem``: two rows that fit in their one county apart but
    not together, and a spare county large enough for every row. So some
    instances can fill every row, some fail a cheap check, and some pass both
    checks but still cannot fill their rows."""
    rows = [f"A{i}" for i in range(draw(st.integers(1, 4)))]
    cols = [f"{j + 1:05d}" for j in range(draw(st.integers(1, 4)))]
    cells = sorted({(r, c) for r in rows
                    for c in draw(st.lists(st.sampled_from(cols), min_size=1, max_size=3))})
    known_cells = draw(st.lists(st.sampled_from(cells), max_size=2, unique=True))
    known = {cell: draw(st.integers(1, 16)) / 4 for cell in known_cells}
    caps_r = {r: draw(st.integers(1, 48)) / 4 for r in rows}
    caps_c = {c: draw(st.integers(1, 48)) * draw(st.sampled_from([4, 1])) / 4 for c in cols}
    for (r, c), value in known.items():
        caps_r[r] += value
        caps_c[c] += value
    if draw(st.booleans()):
        caps_r |= dict.fromkeys(("B0", "B1"), draw(st.integers(1, 48)) / 4)
        caps_r["B2"] = draw(st.integers(1, 48)) / 4
        caps_c |= {"09001": caps_r["B0"], "09002": sum(caps_r.values())}
        cells += [("B0", "09001"), ("B1", "09001"), ("B2", "09002")]
    weights = {r: draw(st.sampled_from([1.0, 1.0 / 3.0, 0.25])) for r in caps_r}
    mask = [cell for cell in cells if cell not in known]
    return problem_from_caps(caps_r, caps_c, weights, mask, known)


class TestFilledRowsFace:
    def test_filled_rows_run_no_phase_one(self, monkeypatch):
        problem = synth.generate((6, 12, 0.4), seed=3, counties_per_department=4).problem
        phase1, phase2 = count_lps(monkeypatch)
        result = multi_start_average(problem, k_starts=3, seed_base=1)
        assert (len(phase1), len(phase2)) == (0, 3)
        assert result.optimal_value == math.fsum(
            problem.weights[code] * cap for code, cap in problem.appellation_caps.items())
        same_starts(result, *phase1_multi_start(problem, 3, 1))

    @pytest.mark.parametrize("problem", [
        priority_problem(),
        # Each row fits the counties in total, but A's one cell holds 4 of its 10 ha.
        _simple({"A": 10.0, "B": 1.0}, {"01": 4.0, "02": 20.0}, {"A": 1.0, "B": 1.0},
                [("A", "01"), ("B", "02")]),
    ], ids=["county caps short", "row cells short"])
    def test_rows_that_clearly_cannot_fill_go_straight_to_phase_one(self, monkeypatch, problem):
        phase1, phase2 = count_lps(monkeypatch)
        result = multi_start_average(problem, k_starts=4, seed_base=2)
        assert (len(phase1), len(phase2)) == (1, 4)
        same_starts(result, *phase1_multi_start(problem, 4, 2))

    @pytest.mark.parametrize("cpus", [1, 3, 8])
    def test_rejected_face_costs_at_most_one_lp_per_thread(self, monkeypatch, cpus):
        """8 workers exceed the cores here; with a thread switch every
        microsecond, no thread may start a second LP on the rejected face."""
        problem = contested_problem()
        oracle = phase1_multi_start(problem, 6, 4)
        monkeypatch.setattr(allocator, "_cpu_count", lambda: cpus)
        phase1, phase2 = count_lps(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = multi_start_average(problem, k_starts=6, seed_base=4)
        finally:
            sys.setswitchinterval(interval)
        assert len(phase1) == 1
        assert 1 + 6 <= len(phase2) <= min(cpus, 6) + 6
        same_starts(result, *oracle)
        assert result.average.cells == pytest.approx(
            {("AOP1", "01001"): 10.0, ("PGI1", "01002"): 1.0}, abs=1e-9)

    def test_tied_totals_run_no_phase_one(self, monkeypatch):
        """Criterion 2's draws whose row and county caps have the same exact
        total fill every row, although numpy's rounded sums put the rows
        over the counties in some of them."""
        rng = np.random.default_rng(2424)
        tied = rounded_over = 0
        for i in range(40):
            problem = criterion_2_problem(rng)
            if math.fsum(problem.row_caps.tolist()) != math.fsum(problem.col_caps.tolist()):
                continue
            tied += 1
            rounded_over += bool(problem.row_caps.sum() > problem.col_caps.sum())
            with monkeypatch.context() as patch:
                phase1, phase2 = count_lps(patch)
                result = multi_start_average(problem, k_starts=2, seed_base=i)
            assert (len(phase1), len(phase2)) == (0, 2)
            assert result.failures == []
            assert result.optimal_value == math.fsum(
                problem.weights[code] * cap for code, cap in problem.appellation_caps.items())
        assert (tied, rounded_over) == (36, 10)

    def test_rejection_carries_the_highs_status(self):
        problem = contested_problem()
        face = allocator._saturated_face(problem)
        assert face.value == 10.0 + 10.0 * 0.25 + 1.0 / 3.0
        with pytest.raises(SolveError, match=r"^phase-2 LP failed \(Infeasible\)$"):
            solve_start(problem, 0, face)

    @settings(max_examples=150, deadline=None)
    @given(problem=small_problems(), k_starts=st.integers(1, 4),
           seed_base=st.integers(0, 1000))
    def test_same_starts_as_the_phase_one_face(self, problem, k_starts, seed_base):
        result = multi_start_average(problem, k_starts=k_starts, seed_base=seed_base)
        same_starts(result, *phase1_multi_start(problem, k_starts, seed_base))

    def test_contested_county_caps_at_criterion_2_scale(self, monkeypatch):
        """Criterion 2's instances with every county cap scaled by 0.8: the
        rows cannot all be filled, so phase 1 runs, and its faces have tight
        county rows and fixed columns."""
        rng = np.random.default_rng(2002)
        tight_county_faces = fixed_column_faces = 0
        for i in range(40):
            n_apps = int(rng.integers(2, 51))
            n_counties = int(rng.integers(5, 201))
            density = float(rng.uniform(0.02, 0.3))
            instance = synth.generate(
                (n_apps, n_counties, density), seed=int(rng.integers(1 << 62)),
                counties_per_department=max(2, n_counties // 5),
            ).problem
            problem = problem_from_caps(
                instance.appellation_caps,
                {insee: 0.8 * cap for insee, cap in instance.county_caps.items()},
                instance.weights, instance.cells,
            )
            face, solutions = phase1_multi_start(problem, 2, i)
            tight_county_faces += bool(face.tight[len(problem.row_codes):].any())
            low, high = face.bounds.T
            fixed_column_faces += bool(np.any((low == high) & (problem.lower_bounds == 0)))
            with monkeypatch.context() as patch:
                phase1, phase2 = count_lps(patch)
                result = multi_start_average(problem, k_starts=2, seed_base=i)
            assert (len(phase1), len(phase2)) == (1, 2)
            same_starts(result, face, solutions)
            for solution in (*result.solutions, result.average):
                assert feasibility_violations(problem, solution.cells) == []
        assert tight_county_faces >= 30 and fixed_column_faces >= 25


def criterion_2_problem(rng, county_scale=1.0):
    """One of criterion 2's random instances, drawn from ``rng``, with every
    county cap multiplied by ``county_scale``."""
    n_apps = int(rng.integers(2, 51))
    n_counties = int(rng.integers(5, 201))
    density = float(rng.uniform(0.02, 0.3))
    instance = synth.generate(
        (n_apps, n_counties, density), seed=int(rng.integers(1 << 62)),
        counties_per_department=max(2, n_counties // 5),
    ).problem
    return problem_from_caps(
        instance.appellation_caps,
        {insee: county_scale * cap for insee, cap in instance.county_caps.items()},
        instance.weights, instance.cells,
    )


class TestFaceModel:
    """``_FaceLP`` lays out a face's LP as ``linprog`` does, the rows of
    ``_constraints`` that may be slack, then the tight ones, over the whole
    face and over a subset of its columns, in the order given."""

    @staticmethod
    def same_layout(problem, face):
        matrix, rhs = allocator._constraints(problem)
        slack, tight = ~face.tight, face.tight
        full = sparse.vstack([matrix[slack], matrix[tight]]).tocsc()
        costs = -random_init(problem, 3) / problem.upper_bounds
        face_lp = allocator._FaceLP(problem, face)
        m = problem.n_cells
        models = [(columns, costs, face_lp.model(columns, costs))
                  for columns in (np.arange(m), np.arange(m)[::-3], np.arange(0))]
        # The whole face without costs, shared by the starts, when every row
        # fits in a start's first LP.
        fits = np.bincount(problem.row_index).max(initial=0) <= allocator._SIFT_ROW_CELLS
        assert (face_lp.whole is not None) == fits
        if fits:
            models.append((np.arange(m), np.zeros(m), face_lp.whole))
        for columns, costs, lp in models:
            expected = full[:, columns]
            assert (lp.num_row_, lp.num_col_) == expected.shape
            assert (lp.a_matrix_.num_row_, lp.a_matrix_.num_col_) == expected.shape
            assert lp.a_matrix_.format_ == allocator._core.MatrixFormat.kColwise
            assert np.array_equal(lp.a_matrix_.start_, expected.indptr)
            assert np.array_equal(lp.a_matrix_.index_, expected.indices)
            assert np.array_equal(lp.a_matrix_.value_, expected.data)
            assert np.array_equal(lp.row_lower_,
                                  np.concatenate([np.full(slack.sum(), -np.inf), rhs[tight]]))
            assert np.array_equal(lp.row_upper_, np.concatenate([rhs[slack], rhs[tight]]))
            assert np.array_equal(lp.col_cost_, costs[columns])
            assert np.array_equal(lp.col_lower_, face.bounds[columns, 0])
            assert np.array_equal(lp.col_upper_, face.bounds[columns, 1])

    def test_alsace_filled_rows_face(self, alsace_config, tmp_path):
        cfg = load_config(alsace_config, overrides={"output.directory": str(tmp_path)})
        cli.stage_ingest(cfg)
        problem = load_problem(tmp_path / cli.PROBLEM_DIR)
        face = allocator._saturated_face(problem)
        rows = len(problem.row_codes)
        assert face.tight.tolist() == [True] * rows + [False] * len(problem.col_codes)
        self.same_layout(problem, face)

    def test_contested_phase_one_face(self):
        problem = criterion_2_problem(np.random.default_rng(2424), county_scale=0.8)
        face = optimal_value(problem)
        rows = len(problem.row_codes)
        # Tight county rows, and a tight row ahead of a slack one, which the
        # layout moves behind it.
        assert face.tight[rows:].any()
        assert face.tight.tolist() != sorted(face.tight.tolist())
        self.same_layout(problem, face)

    def test_empty_problem_has_no_tight_row(self):
        problem = _simple({"A": 0.0}, {"00001": 0.0}, {"A": 1.0}, [("A", "00001")])
        face = optimal_value(problem)
        assert face.tight.dtype == bool and not face.tight.any()
        self.same_layout(problem, face)


class TestOneLinprogPerStart:
    """A start whose first LP holds the whole face is bit for bit the start
    of one ``linprog`` call with the same options, although a thread reuses
    its HiGHS instance. Alsace's rows fit in the first LP; on the other
    instances, some rows have more cells than it takes, so the tests let it
    take them all (``TestSifting`` checks their sifted starts)."""

    @staticmethod
    def same_as_linprog(monkeypatch, problem, k_starts, seed_base):
        monkeypatch.setattr(allocator, "_SIFT_ROW_CELLS", max(problem.n_cells, 1))
        face = allocator._saturated_face(problem) or optimal_value(problem)
        result = multi_start_average(problem, k_starts=k_starts, seed_base=seed_base)
        assert result.failures == []
        assert [s.cells for s in result.solutions] == [
            linprog_start(problem, seed, face, "devex").cells
            for seed in range(seed_base, seed_base + k_starts)]

    def test_alsace(self, alsace_config, tmp_path, monkeypatch):
        cfg = load_config(alsace_config, overrides={"output.directory": str(tmp_path)})
        cli.stage_ingest(cfg)
        problem = load_problem(tmp_path / cli.PROBLEM_DIR)
        assert problem.n_cells == 19
        assert np.bincount(problem.row_index).max() <= allocator._SIFT_ROW_CELLS
        self.same_as_linprog(monkeypatch, problem, cfg.k_starts, cfg.seed)

    def test_synth_instance(self, monkeypatch):
        problem = synth.generate((50, 150, 0.2), seed=5, counties_per_department=30).problem
        assert problem.n_cells == 2213
        self.same_as_linprog(monkeypatch, problem, 4, 0)

    def test_criterion_2_draws(self, monkeypatch):
        rng = np.random.default_rng(2424)
        for i in range(6):
            self.same_as_linprog(monkeypatch, criterion_2_problem(rng), 3, i)


def first_lp_columns(monkeypatch) -> list[np.ndarray]:
    """Record the columns of each LP that ``_FaceLP.model`` lays out, from
    any thread: the first LP of each start on a face whose rows do not all
    fit in it."""
    columns: list[np.ndarray] = []
    real = allocator._FaceLP.model

    def recording(lp, cols, costs):
        columns.append(cols.copy())
        return real(lp, cols, costs)

    monkeypatch.setattr(allocator._FaceLP, "model", recording)
    return columns


def sift_runs(monkeypatch) -> list[tuple[int, bool]]:
    """Record each phase-2 ``run()`` as (columns in the model, optimal)."""
    runs: list[tuple[int, bool]] = []
    real = allocator._core._Highs.run

    def recording(highs):
        status = real(highs)
        runs.append((highs.getNumCol(),
                     highs.getModelStatus() == allocator._core.HighsModelStatus.kOptimal))
        return status

    monkeypatch.setattr(allocator._core._Highs, "run", recording)
    return runs


def with_known_cells(problem, every):
    """``problem`` with every ``every``-th cell known at 1 ha, the caps of its
    row and county raised by as much."""
    caps_r, caps_c = dict(problem.appellation_caps), dict(problem.county_caps)
    known = {}
    for code, insee in problem.cells[::every]:
        known[code, insee] = 1.0
        caps_r[code] += 1.0
        caps_c[insee] += 1.0
    mask = [cell for cell in problem.cells if cell not in known]
    return problem_from_caps(caps_r, caps_c, problem.weights, mask, known)


def overflowing_problem():
    """A synthetic instance with every county cap scaled by 0.8, plus a spare
    county that only the first row reaches, large enough for every row: the
    caps in total and every row's cells could hold every row, yet the rows
    cannot all be filled."""
    base = synth.generate((50, 150, 0.2), seed=5, counties_per_department=30).problem
    county_caps = {insee: 0.8 * cap for insee, cap in base.county_caps.items()}
    county_caps["99999"] = sum(base.appellation_caps.values())
    return problem_from_caps(base.appellation_caps, county_caps, base.weights,
                             [*base.cells, (base.row_codes[0], "99999")])


class TestSifting:
    """A start solves over a working set of its cheapest columns and prices
    the rest in. Checked against ``solve_start``, one LP over the whole face,
    on instances whose rows have more cells than the first LP takes."""

    @staticmethod
    def same_as_full_lp(problem, face, seeds):
        """The support is the full LP's, every cell agrees within 1e-9
        relative (1e-9 ha near zero), and the objective is the face's within
        1e-12 relative."""
        lp = allocator._FaceLP(problem, face)
        for seed in seeds:
            sifted = solve(problem, seed, lp, allocator._phase2_highs())
            full = solve_start(problem, seed, face).cells
            expected = np.array([full.get(cell, 0.0) for cell in problem.cells])
            assert np.array_equal(sifted > 0, expected > 0)
            assert np.all(np.abs(sifted - expected) <= 1e-9 * np.maximum(expected, 1.0))
            cells = {cell: float(v) for cell, v in zip(problem.cells, sifted) if v > 0}
            assert objective(problem.weights, cells) == pytest.approx(face.value, rel=1e-12)

    @staticmethod
    def restricted(problem, columns):
        """Some row has more cells than the first LP takes, and no start's
        first LP holds every column."""
        assert np.bincount(problem.row_index).max() > allocator._SIFT_ROW_CELLS
        assert columns and all(len(cols) < problem.n_cells for cols in columns)

    @pytest.mark.parametrize(("shape", "seed", "per_department"), [
        ((40, 600, 0.1), 5, 100),
        ((30, 3000, 0.05), 11, 100),
    ])
    def test_starts_match_the_full_lp(self, monkeypatch, shape, seed, per_department):
        problem = synth.generate(shape, seed=seed, counties_per_department=per_department).problem
        face = allocator._saturated_face(problem)
        columns = first_lp_columns(monkeypatch)
        runs = sift_runs(monkeypatch)
        self.same_as_full_lp(problem, face, range(6))
        # Every other first LP and run is the oracle's.
        self.restricted(problem, columns[::2])
        sifted = [run for run in runs if run[0] < problem.n_cells]
        # Some start priced columns in, and every LP solved.
        assert len(sifted) > 6 and all(optimal for _, optimal in runs)

    def test_criterion_2_draws(self, monkeypatch):
        rng = np.random.default_rng(2424)
        columns = first_lp_columns(monkeypatch)
        restricted = 0
        for i in range(12):
            problem = criterion_2_problem(rng)
            face = allocator._saturated_face(problem) or optimal_value(problem)
            columns.clear()
            self.same_as_full_lp(problem, face, (i, i + 100))
            restricted += any(len(cols) < problem.n_cells for cols in columns[::2])
        assert restricted >= 6

    @pytest.mark.parametrize(("row_cells", "county_cells"), [(0, 0), (32, 2)])
    @pytest.mark.parametrize("face_of", ["contested phase-1 face", "known cells"])
    def test_columns_with_a_positive_lower_bound_are_in_every_first_lp(
            self, monkeypatch, face_of, row_cells, county_cells):
        """Also when no row or county takes a cell: then the first LP holds
        exactly the columns with a positive lower bound."""
        if face_of == "known cells":
            problem = with_known_cells(synth.generate(
                (50, 150, 0.2), seed=5, counties_per_department=30).problem, 37)
            assert np.count_nonzero(problem.lower_bounds) == 60
        else:
            rng = np.random.default_rng(2424)
            criterion_2_problem(rng, county_scale=0.8)
            problem = criterion_2_problem(rng, county_scale=0.8)
        face = optimal_value(problem)
        positive = np.flatnonzero(face.bounds[:, 0] > 0)
        if face_of == "contested phase-1 face":
            # Cells fixed at their cap, none of them known.
            assert len(positive) == 8 and not problem.lower_bounds.any()
        monkeypatch.setattr(allocator, "_SIFT_ROW_CELLS", row_cells)
        monkeypatch.setattr(allocator, "_SIFT_COUNTY_CELLS", county_cells)
        columns = first_lp_columns(monkeypatch)
        self.same_as_full_lp(problem, face, range(4))
        self.restricted(problem, columns[::2])
        for cols in columns:
            assert np.isin(positive, cols).all()
        if row_cells == 0:
            assert all(np.array_equal(cols, positive) for cols in columns[::2])

    def test_infeasible_working_set_falls_back_to_the_whole_face(self, monkeypatch):
        problem = synth.generate((50, 150, 0.2), seed=5, counties_per_department=30).problem
        face = allocator._saturated_face(problem)
        monkeypatch.setattr(allocator, "_SIFT_ROW_CELLS", 1)
        runs = sift_runs(monkeypatch)
        self.same_as_full_lp(problem, face, range(4))
        # Each start's first LP cannot fill every row, and the LP after it
        # holds the whole face; then comes the oracle's LP.
        whole = (problem.n_cells, True)
        assert len(runs) == 3 * 4
        for first, fallback, oracle in zip(runs[0::3], runs[1::3], runs[2::3]):
            assert first[0] < problem.n_cells and not first[1]
            assert fallback == oracle == whole

    def test_fallback_does_not_reject_a_filled_rows_face(self, monkeypatch):
        problem = synth.generate((50, 150, 0.2), seed=5, counties_per_department=30).problem
        face = allocator._saturated_face(problem)
        oracle = [solve_start(problem, seed, face) for seed in range(3, 7)]
        monkeypatch.setattr(allocator, "_SIFT_ROW_CELLS", 1)
        runs = sift_runs(monkeypatch)
        phase1, _ = count_lps(monkeypatch)
        result = multi_start_average(problem, k_starts=4, seed_base=3)
        assert phase1 == [] and sum(not optimal for _, optimal in runs) == 4
        same_starts(result, face, oracle)

    def test_fallback_rejects_a_face_only_on_the_whole_face(self, monkeypatch):
        """The filled-rows face of ``overflowing_problem`` passes the cheap
        checks; the LP over the whole face rejects it, and the starts run
        again on phase 1's face."""
        problem = overflowing_problem()
        assert allocator._saturated_face(problem) is not None
        oracle = phase1_multi_start(problem, 3, 0)
        monkeypatch.setattr(allocator, "_SIFT_ROW_CELLS", 1)
        monkeypatch.setattr(allocator, "_cpu_count", lambda: 1)
        runs = sift_runs(monkeypatch)
        phase1, _ = count_lps(monkeypatch)
        result = multi_start_average(problem, k_starts=3, seed_base=0)
        assert len(phase1) == 1
        # The probe's first LP, then its LP over the whole face, both infeasible.
        assert runs[0][0] < problem.n_cells
        assert [optimal for _, optimal in runs[:2]] == [False, False]
        assert runs[1][0] == problem.n_cells
        same_starts(result, *oracle)

    def test_rows_within_the_first_lp_give_the_full_lp_s_bits(self, monkeypatch):
        problem = synth.generate((30, 60, 0.2), seed=5, counties_per_department=12).problem
        assert np.bincount(problem.row_index).max() <= allocator._SIFT_ROW_CELLS
        face = allocator._saturated_face(problem)
        lp = allocator._FaceLP(problem, face)
        assert lp.whole is not None
        runs = sift_runs(monkeypatch)
        for seed in range(5):
            x = solve(problem, seed, lp, allocator._phase2_highs())
            assert {cell: float(v) for cell, v in zip(problem.cells, x) if v > 0} \
                == solve_start(problem, seed, face).cells
        # One run a start over every column, and one for the oracle's LP.
        assert runs == [(problem.n_cells, True)] * 10

    def test_same_bits_for_any_cpu_count(self, monkeypatch):
        problem = synth.generate((40, 600, 0.1), seed=5, counties_per_department=100).problem
        columns = first_lp_columns(monkeypatch)
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(allocator, "_cpu_count", lambda: cpus)
            results.append(multi_start_average(problem, k_starts=6, seed_base=8))
        self.restricted(problem, columns)
        one, two = results
        assert one.failures == two.failures == []
        assert [s.cells for s in one.solutions] == [s.cells for s in two.solutions]
        assert one.average.cells == two.average.cells


class TestPhaseTwoPricing:
    """The starts price their LPs with devex; priced at the HiGHS default,
    each start lands on the same vertex, within 1e-9 ha."""

    @staticmethod
    def same_as_default_pricing(problem, face, k_starts, seed_base):
        result = multi_start_average(problem, k_starts=k_starts, seed_base=seed_base)
        same_starts(result, face, [linprog_start(problem, seed, face, "steepest-devex")
                                   for seed in range(seed_base, seed_base + k_starts)])

    def test_criterion_2_instances(self):
        rng = np.random.default_rng(2424)
        for i in range(40):
            problem = criterion_2_problem(rng)
            face = allocator._saturated_face(problem) or optimal_value(problem)
            self.same_as_default_pricing(problem, face, 2, i)

    def test_phase_one_face_with_contested_county_caps(self):
        problem = criterion_2_problem(np.random.default_rng(2424), county_scale=0.8)
        face = optimal_value(problem)
        # More tight rows than appellations: some county rows are tight.
        assert face.tight.sum() > len(problem.row_codes)
        low, high = face.bounds.T
        assert np.any((low == high) & (problem.lower_bounds == 0))
        self.same_as_default_pricing(problem, face, 4, 0)

    def test_labels_shape(self):
        problem = synth.generate((1100, 900, 0.0096), seed=7,
                                 counties_per_department=90).problem
        assert problem.n_cells == 14797
        self.same_as_default_pricing(problem, allocator._saturated_face(problem), 2, 11)


class TestProjectFeasible:
    def test_projection_restores_feasibility(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            problem = random_small_problem(rng, max_rows=4, max_cols=4, integer_caps=False)
            wild = problem.upper_bounds * rng.uniform(0, 3, size=problem.n_cells)
            projected = project_feasible(problem, wild)
            cells = dict(zip(problem.cells, projected))
            assert feasibility_violations(problem, cells) == []

    def test_feasible_point_unchanged(self):
        problem = priority_problem()
        point = np.array([4.0, 2.0])
        assert np.allclose(project_feasible(problem, point), point)


class TestPersistence:
    def test_problem_dump_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(37)
        problem = random_small_problem(rng, max_rows=4, max_cols=4, integer_caps=False)
        dump_problem(problem, tmp_path)
        loaded = load_problem(tmp_path)
        assert loaded.appellation_caps == problem.appellation_caps
        assert loaded.county_caps == problem.county_caps
        assert loaded.weights == problem.weights
        assert loaded.cells == problem.cells
        assert np.array_equal(loaded.upper_bounds, problem.upper_bounds)

    def test_known_cells_round_trip(self, tmp_path):
        problem = known_cell_problem()
        dump_problem(problem, tmp_path)
        assert (tmp_path / "mask_cells.csv").read_text(encoding="utf-8").splitlines() == [
            "appellation;insee;known_ha", "AOP1;01001;", "AOP1;01002;", "K1;01001;3.0"]
        loaded = load_problem(tmp_path)
        assert loaded.appellation_caps == problem.appellation_caps
        assert loaded.county_caps == problem.county_caps
        assert loaded.weights == problem.weights
        assert loaded.cells == problem.cells
        assert np.array_equal(loaded.lower_bounds, problem.lower_bounds)
        assert np.array_equal(loaded.upper_bounds, problem.upper_bounds)
        # A problem without known cells dumped over it leaves none behind.
        dump_problem(priority_problem(), tmp_path)
        assert not load_problem(tmp_path).lower_bounds.any()

    def test_tiny_known_cells_round_trip(self, tmp_path):
        # Known cells at or below the support cut-off are no columns, as a
        # known 0 ha cell is not: the optimum, every allocation and every
        # file leave them out alike.
        problem = problem_from_caps(
            {"A": 1.0, "K": 1.0}, {"01": 1.0, "02": 1.0}, {"A": 1.0, "K": 1.0},
            [("A", "01")], {("K", "01"): 5e-10, ("K", "02"): 1e-9},
        )
        assert problem.cells == (("A", "01"),)
        dump_problem(problem, tmp_path)
        assert (tmp_path / "mask_cells.csv").read_text(encoding="utf-8").splitlines() == [
            "appellation;insee;known_ha", "A;01;"]
        loaded = load_problem(tmp_path)
        assert loaded.cells == problem.cells
        assert loaded.lower_bounds.tolist() == [0.0]
        assert loaded.upper_bounds.tolist() == [1.0]
        result = multi_start_average(loaded, k_starts=2)
        assert result.optimal_value == 1.0
        for solution in (*result.solutions, result.average):
            assert solution.cells == {("A", "01"): 1.0}

    def test_cap_edited_below_the_support_cut_off_drops_its_cells(self, tmp_path):
        dump_problem(known_cell_problem(), tmp_path)
        path = tmp_path / "caps_counties.csv"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("01002;3.0", "01002;1e-10"), encoding="utf-8")
        loaded = load_problem(tmp_path)
        assert loaded.county_caps["01002"] == 1e-10
        assert loaded.cells == (("AOP1", "01001"), ("K1", "01001"))
        assert loaded.col_codes == ("01001",)

    @pytest.mark.parametrize("name, row, message", [
        ("caps_appellations.csv", "AOP1;5.0;1.0",
         "caps_appellations.csv: code 'AOP1' is repeated"),
        ("caps_counties.csv", "01001;1.0", "caps_counties.csv: county '01001' is repeated"),
        ("mask_cells.csv", "AOP1;01001;0.5",
         "mask_cells.csv: cell \\('AOP1', '01001'\\) is repeated"),
    ], ids=["appellations", "counties", "mask"])
    def test_repeated_row_is_fatal(self, tmp_path, name, row, message):
        # Read as a dict, the last row would silently win: a cap of 5.0, or a
        # free cell turned into a known one.
        dump_problem(known_cell_problem(), tmp_path)
        with open(tmp_path / name, "a", encoding="utf-8", newline="") as fh:
            fh.write(row + "\n")
        with pytest.raises(IntegrityError, match=f"^{message}$"):
            load_problem(tmp_path)

    def test_solution_round_trip(self, tmp_path):
        cells = {("A", "00001"): 1.2345678901234567, ("B", "00002"): 1e-12}
        path = tmp_path / "solution.csv"
        write_solution(cells, path)
        # The sub-threshold cell is dropped; the real cell survives bit-exact.
        assert read_solution(path) == {("A", "00001"): 1.2345678901234567}


def test_assert_feasible_raises_on_violation():
    problem = priority_problem()
    with pytest.raises(SolveError, match="^appellation AOP1 over cap"):
        assert_feasible(problem, {("AOP1", "01001"): 11.0})


def test_feasibility_violations_reports_all_families():
    problem = priority_problem()
    violations = feasibility_violations(
        problem, {("AOP1", "01001"): 11.0, ("ZZ", "01001"): 1.0}
    )
    assert any("outside the mask" in v for v in violations)
    assert any("over cap" in v for v in violations)
