from __future__ import annotations

import math

import numpy as np
import pytest

from baselines import brute_force_optimum, greedy_baseline
from vinevalue.allocator import (
    assert_feasible,
    build_problem,
    dump_problem,
    feasibility_violations,
    load_problem,
    multi_start_average,
    optimal_value,
    problem_from_caps,
    project_feasible,
    random_init,
    read_solution,
    solve,
    write_solution,
)
from vinevalue.ingest import IntegrityError
from vinevalue.model import AppellationRecord, AuthorizationMask, Category, CountyRecord
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
    phase-1 duals fix the NP1 cell in county 01002, which PGI1 fills, at
    zero, and the AOP1 cell and the NP1 cell in 01003 at their caps."""
    return _simple(
        {"AOP1": 8.0, "PGI1": 9.0, "NP1": 10.0},
        {"01001": 8.0, "01002": 5.0, "01003": 3.0},
        {"AOP1": 1.0, "PGI1": 1.0 / 3.0, "NP1": 0.25},
        [("AOP1", "01001"), ("PGI1", "01001"), ("PGI1", "01002"),
         ("NP1", "01002"), ("NP1", "01003")],
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
        mask = AuthorizationMask(cells={("A", "00001")}, weight={})
        problem = build_problem(apps, counties, mask)
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
        solution = solve(problem, random_init(problem, 0))
        assert solution.cells[("A", "00001")] == pytest.approx(3.0, abs=1e-9)
        assert solution.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_priority_weighting(self):
        problem = priority_problem()
        for seed in range(5):
            solution = solve(problem, random_init(problem, seed))
            assert solution.cells.get(("AOP1", "01001"), 0.0) == pytest.approx(10.0, abs=1e-6)
            assert solution.cells.get(("NP1", "01001"), 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_output_satisfies_all_constraints(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            problem = random_small_problem(rng, max_rows=4, max_cols=4, integer_caps=False)
            solution = solve(problem, random_init(problem, 1))
            assert feasibility_violations(problem, solution.cells) == []

    def test_init_outside_bounds_rejected(self):
        problem = priority_problem()
        bad = problem.upper_bounds * 2.0
        with pytest.raises(ValueError):
            solve(problem, bad)

    def test_bad_shape_rejected(self):
        problem = priority_problem()
        with pytest.raises(ValueError):
            solve(problem, np.zeros(5))

    def test_empty_problem(self):
        problem = _simple({"A": 0.0}, {"00001": 0.0}, {"A": 1.0}, [("A", "00001")])
        solution = solve(problem, random_init(problem, 0))
        assert solution.cells == {}
        assert solution.objective_value == 0.0

    def test_non_unique_optimum_depends_on_start(self):
        # Degenerate instance with two optimal vertices: different starts
        # reach different solutions while the objective never changes.
        problem = _simple(
            {"A": 1.0, "B": 1.0}, {"00001": 1.0, "00002": 1.0},
            {"A": 1.0, "B": 1.0},
            [("A", "00001"), ("A", "00002"), ("B", "00001"), ("B", "00002")],
        )
        first = solve(problem, random_init(problem, 0))
        second = solve(problem, random_init(problem, 2))
        assert first.cells != second.cells
        assert first.objective_value == pytest.approx(second.objective_value, rel=1e-9)
        assert first.objective_value == pytest.approx(2.0, rel=1e-9)


class TestBruteForce:
    def test_one_by_one(self):
        problem = _simple({"A": 5.0}, {"00001": 3.0}, {"A": 1.0}, [("A", "00001")])
        best = brute_force_optimum(problem, 1.0)
        assert best.cells == {("A", "00001"): 3.0}
        assert best.objective_value == 3.0

    def test_two_by_two_saturates_marginals(self):
        problem = _simple(
            {"A": 1.0, "B": 1.0}, {"00001": 1.0, "00002": 1.0},
            {"A": 1.0, "B": 1.0},
            [("A", "00001"), ("A", "00002"), ("B", "00001"), ("B", "00002")],
        )
        best = brute_force_optimum(problem, 0.5)
        assert best.objective_value == pytest.approx(2.0)

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
        assert brute_force_optimum(masked, 1.0).objective_value < brute_force_optimum(
            full, 1.0
        ).objective_value

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
            scale = max(abs(best.objective_value), 1.0)
            assert abs(result.optimal_value - best.objective_value) <= 1e-6 * scale
            for solution in [*result.solutions, result.average]:
                assert solution.objective_value == pytest.approx(
                    result.optimal_value, rel=1e-12
                )

    def test_face_with_fixed_columns_matches_brute_force(self):
        problem = fixed_columns_problem()
        low, high = optimal_value(problem).bounds.T
        assert np.any(high == 0.0)
        assert np.any((low == high) & (high == problem.upper_bounds))
        best = brute_force_optimum(problem, 1.0)
        for seed in range(10):
            solution = solve(problem, random_init(problem, seed))
            assert solution.objective_value == pytest.approx(best.objective_value, rel=1e-12)
            assert solution.cells.keys() == best.cells.keys()
            for cell, value in best.cells.items():
                assert solution.cells[cell] == pytest.approx(value, rel=1e-12)

    def test_at_least_greedy_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            problem = random_small_problem(rng, max_rows=5, max_cols=5, integer_caps=False)
            greedy = greedy_baseline(problem)
            assert feasibility_violations(problem, greedy.cells) == []
            solution = solve(problem, random_init(problem, 3))
            # The solver returns a point of the exact optimal face, so it can
            # fall short of greedy by float rounding only.
            slack = 1e-12 * max(1.0, greedy.objective_value)
            assert solution.objective_value >= greedy.objective_value - slack

    def test_priority_instance_brute_force_unique(self):
        problem = priority_problem()
        best = brute_force_optimum(problem, 1.0)
        assert best.cells == {("AOP1", "01001"): 10.0}


class TestMultiStart:
    def test_single_start_equals_solve(self):
        problem = priority_problem()
        result = multi_start_average(problem, k_starts=1, seed_base=5)
        direct = solve(problem, random_init(problem, 5))
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
        objectives = [s.objective_value for s in result.solutions]
        assert min(objectives) - 1e-9 <= result.average.objective_value <= max(objectives) + 1e-9

    def test_bit_identical_across_runs(self):
        rng = np.random.default_rng(29)
        problem = random_small_problem(rng, max_rows=5, max_cols=6, integer_caps=False)
        first = multi_start_average(problem, k_starts=6, seed_base=42)
        second = multi_start_average(problem, k_starts=6, seed_base=42)
        assert first.average.cells == second.average.cells
        assert first.average.objective_value == second.average.objective_value

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            multi_start_average(priority_problem(), k_starts=0)


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
        assert read_solution(tmp_path / "known_cells.csv") == {("K1", "01001"): 3.0}
        loaded = load_problem(tmp_path)
        assert loaded.appellation_caps == problem.appellation_caps
        assert loaded.county_caps == problem.county_caps
        assert loaded.weights == problem.weights
        assert loaded.cells == problem.cells
        assert np.array_equal(loaded.lower_bounds, problem.lower_bounds)
        assert np.array_equal(loaded.upper_bounds, problem.upper_bounds)
        # A problem without known cells dumped over it leaves no stale file.
        dump_problem(priority_problem(), tmp_path)
        assert not (tmp_path / "known_cells.csv").exists()
        assert not load_problem(tmp_path).lower_bounds.any()

    def test_tiny_known_cells_round_trip(self, tmp_path):
        problem = problem_from_caps(
            {"A": 1.0, "K": 1.0}, {"01": 1.0, "02": 1.0}, {"A": 1.0, "K": 1.0},
            [("A", "01")], {("K", "01"): 5e-10, ("K", "02"): 1e-9},
        )
        dump_problem(problem, tmp_path)
        loaded = load_problem(tmp_path)
        assert loaded.cells == problem.cells
        assert loaded.lower_bounds.tolist() == [0.0, 5e-10, 1e-9]
        assert loaded.upper_bounds.tolist() == [1.0, 5e-10, 1e-9]

    def test_solution_round_trip(self, tmp_path):
        cells = {("A", "00001"): 1.2345678901234567, ("B", "00002"): 1e-12}
        path = tmp_path / "solution.csv"
        write_solution(cells, path)
        # The sub-threshold cell is dropped; the real cell survives bit-exact.
        assert read_solution(path) == {("A", "00001"): 1.2345678901234567}


def test_assert_feasible_raises_on_violation():
    problem = priority_problem()
    with pytest.raises(ValueError):
        assert_feasible(problem, {("AOP1", "01001"): 11.0})


def test_feasibility_violations_reports_all_families():
    problem = priority_problem()
    violations = feasibility_violations(
        problem, {("AOP1", "01001"): 11.0, ("ZZ", "01001"): 1.0}
    )
    assert any("outside the mask" in v for v in violations)
    assert any("over cap" in v for v in violations)
