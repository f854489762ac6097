from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from baselines import uniform_spread_baseline
from vinevalue import allocator
from vinevalue.model import Category, DEFAULT_WEIGHTS, exact_sums
from vinevalue.synth import CATEGORY_MIX, generate
from vinevalue.validate import align, kendall_tau

# Seeded instances must not move when the generator gets faster: the digests
# cover the mask cells, both cap tables and the truth. The third shape is the
# first instance of acceptance criterion 2.
SEEDED = [
    ((20, 100, 0.1), 20230601, 20,
     "33ead581889d59c5cef82a5a7a2748599d3a68bff4dffcb49984b7941316dfcd"),
    ((5, 20, 0.2), 123, 20,
     "66f2593ccbe9aa48c4473fbdbcb98d31b31063a33ddc2f6d3cfba6f3a82fb630"),
    ((43, 179, 0.28899914370856117), 3035008728410985601, 35,
     "9828330b47b436824fcc8093b0ca355ba510f8684dab1f6bdd853641490a23a9"),
    ((2, 2, 1.0), 0, 2,
     "311e0016d4e2d8121e4e52122a6b16c0f3cc4710b3d0e1bb1d4dce0d3a97f989"),
]


class TestGenerate:
    def test_full_density_two_by_two(self):
        instance = generate((2, 2, 1.0), seed=0, extra_mask_factor=0.0,
                            counties_per_department=2)
        assert len(instance.truth.cells) == 4
        assert set(instance.problem.cells) == set(instance.truth.cells)
        # The synth report scores row sums against the caps, so each cap must
        # be the exact sum of its truth row, and positive where that row has cells.
        seeded = [generate(shape, seed=seed, counties_per_department=per_department)
                  for shape, seed, per_department, _ in SEEDED]
        for each in (instance, *seeded):
            for code, cap in each.problem.appellation_caps.items():
                row = [v for (a, _), v in each.truth.cells.items() if a == code]
                assert cap == math.fsum(row)
                assert (cap > 0) == bool(row)

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

    def test_weights_come_from_categories(self):
        weights = {**DEFAULT_WEIGHTS, Category.PGI: 0.5}
        instance = generate((40, 100, 0.1), seed=3, weights=weights)
        assert Category.PGI in instance.categories.values()
        assert instance.problem.weights == {
            code: weights[category] for code, category in instance.categories.items()
        }

    def test_at_most_96_departments(self):
        # A code from department 97 on would read as an overseas 97x prefix.
        instance = generate((2, 96, 0.5), seed=0, counties_per_department=1)
        assert max(instance.problem.county_caps) == "96001"
        with pytest.raises(ValueError, match="97 departments"):
            generate((2, 97, 0.5), seed=0, counties_per_department=1)

    def test_at_most_999_counties_in_a_department(self):
        # The last department takes the remainder of the counties.
        instance = generate((2, 1998, 0.01), seed=0, counties_per_department=999)
        assert max(instance.problem.county_caps) == "02999"
        with pytest.raises(ValueError, match="1000 counties in one department"):
            generate((2, 1999, 0.01), seed=0, counties_per_department=999)

    def test_category_mix_respected(self):
        instance = generate((40, 100, 0.1), seed=3)
        assert set(instance.categories.values()) == set(CATEGORY_MIX)

    @pytest.mark.parametrize("shape, seed, per_department, expected", SEEDED)
    def test_seeded_instances_are_pinned(self, shape, seed, per_department, expected):
        instance = generate(shape, seed=seed, counties_per_department=per_department)
        problem = instance.problem
        digest = hashlib.sha256()
        for part in (problem.cells, sorted(problem.appellation_caps.items()),
                     sorted(problem.county_caps.items()), sorted(instance.truth.cells.items())):
            digest.update(repr(part).encode())
        assert digest.hexdigest() == expected


class TestRecovery:
    def test_recovered_allocation_is_feasible(self):
        instance = generate((10, 50, 0.1), seed=19)
        result = allocator.multi_start_average(instance.problem, k_starts=3, seed_base=19)
        assert allocator.feasibility_violations(instance.problem, result.average.cells) == []

    def test_uniform_spread_baseline_scores(self):
        instance = generate((6, 24, 0.2), seed=29)
        baseline = uniform_spread_baseline(instance.problem)
        assert -1.0 <= kendall_tau(*align([instance.truth.cells, baseline.cells])[1]) <= 1.0

    def test_row_errors_near_zero_when_caps_bind(self):
        instance = generate((8, 30, 0.15), seed=31)
        result = allocator.multi_start_average(instance.problem, k_starts=2, seed_base=31)
        row_sums = exact_sums((code, v) for (code, _), v in result.average.cells.items())
        caps = {code: cap for code, cap in instance.problem.appellation_caps.items() if cap}
        assert max(abs(row_sums[code] - cap) / cap for code, cap in caps.items()) < 1e-6

    def test_recovery_degrades_with_extra_mask_cells(self):
        # With more authorized-but-unused cells the estimate has more freedom
        # to wander from the truth, so cell-level agreement must fall on
        # average across seeds (paired comparison per seed).
        low, high = [], []
        for seed in range(30):
            for factor, bucket in ((0.25, low), (2.0, high)):
                instance = generate((8, 40, 0.12), seed=seed, extra_mask_factor=factor)
                problem = instance.problem
                solution = allocator.solve(problem, seed, allocator.optimal_value(problem))
                bucket.append(kendall_tau(*align([instance.truth.cells, solution.cells])[1]))
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
