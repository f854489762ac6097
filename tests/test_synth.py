from __future__ import annotations

import math

import numpy as np
import pytest

from baselines import uniform_spread_baseline
from vinevalue import allocator
from vinevalue.model import Category
from vinevalue.synth import SyntheticInstance, generate, score_recovery


class TestGenerate:
    def test_full_density_two_by_two(self):
        instance = generate((2, 2, 1.0), seed=0, extra_mask_factor=0.0,
                            counties_per_department=2)
        assert len(instance.truth.cells) == 4
        assert set(instance.problem.cells) == set(instance.truth.cells)
        for code, cap in instance.problem.appellation_caps.items():
            row = [v for (a, _), v in instance.truth.cells.items() if a == code]
            assert cap == math.fsum(row)

    def test_deterministic_for_fixed_seed(self):
        a = generate((5, 20, 0.2), seed=123)
        b = generate((5, 20, 0.2), seed=123)
        assert a.truth.cells == b.truth.cells
        assert a.problem.cells == b.problem.cells
        assert a.categories == b.categories

    def test_mask_covers_truth_support(self):
        instance = generate((10, 40, 0.15), seed=7, extra_mask_factor=0.5)
        assert set(instance.truth.cells) <= set(instance.problem.cells)

    def test_truth_exactly_feasible(self):
        instance = generate((8, 30, 0.2), seed=11)
        # Exact feasibility, zero tolerance: caps are exact sums of the truth.
        assert allocator.feasibility_violations(
            instance.problem, instance.truth.cells, rel_tol=0.0, abs_tol=0.0
        ) == []

    def test_degenerate_shape_rejected(self):
        with pytest.raises(ValueError):
            generate((0, 10, 0.5), seed=0)
        with pytest.raises(ValueError):
            generate((5, 10, 0.0), seed=0)
        with pytest.raises(ValueError):
            generate((5, 10, 1.5), seed=0)

    def test_category_mix_respected(self):
        instance = generate((40, 100, 0.1), seed=3,
                            category_mix={Category.AOP: 1.0})
        assert set(instance.categories.values()) == {Category.AOP}


class TestRecovery:
    def test_recovered_allocation_is_feasible(self):
        instance = generate((10, 50, 0.1), seed=19)
        result = allocator.multi_start_average(instance.problem, k_starts=3, seed_base=19)
        assert allocator.feasibility_violations(instance.problem, result.average.cells) == []

    def test_score_identity(self):
        instance = generate((6, 24, 0.2), seed=23)
        score = score_recovery(instance.truth.cells, instance.truth.cells)
        assert score.kendall_tau == 1.0
        assert all(err == 0.0 for err in score.row_relative_errors.values())

    def test_uniform_spread_baseline_scores(self):
        instance = generate((6, 24, 0.2), seed=29)
        baseline = uniform_spread_baseline(instance.problem)
        score = score_recovery(instance.truth.cells, baseline.cells)
        assert -1.0 <= score.kendall_tau <= 1.0

    def test_row_errors_near_zero_when_caps_bind(self):
        instance = generate((8, 30, 0.15), seed=31)
        result = allocator.multi_start_average(instance.problem, k_starts=2, seed_base=31)
        score = score_recovery(instance.truth.cells, result.average.cells)
        assert max(score.row_relative_errors.values()) < 1e-6

    def test_recovery_degrades_with_extra_mask_cells(self):
        # With more authorized-but-unused cells the estimate has more freedom
        # to wander from the truth, so cell-level agreement must fall on
        # average across seeds (paired comparison per seed).
        low, high = [], []
        for seed in range(30):
            for factor, bucket in ((0.25, low), (2.0, high)):
                instance = generate((8, 40, 0.12), seed=seed, extra_mask_factor=factor)
                solution = allocator.solve(
                    instance.problem, allocator.random_init(instance.problem, seed)
                )
                bucket.append(score_recovery(instance.truth.cells, solution.cells).kendall_tau)
        low_mean = np.mean(low)
        high_mean = np.mean(high)
        assert low_mean > high_mean
        decreases = sum(1 for a, b in zip(low, high) if a > b)
        assert decreases >= 20


def test_truth_round_trip(tmp_path):
    instance = generate((4, 12, 0.3), seed=37, counties_per_department=6)
    path = tmp_path / "truth.csv"
    allocator.write_solution(instance.truth.cells, path)
    assert allocator.read_solution(path) == instance.truth.cells


def test_instance_shape_recorded():
    instance = generate((4, 12, 0.3), seed=41, counties_per_department=6)
    assert isinstance(instance, SyntheticInstance)
    assert instance.shape == (4, 12, 0.3)
    assert instance.generator_seed == 41
