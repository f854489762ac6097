"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criterion 9 needs the real open-data files and is skipped unless
``VINEVALUE_FULLDATA_CONFIG`` points at a pipeline configuration for them.
"""
from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from baselines import brute_force_optimum
from vinevalue import allocator, cli, synth, validate
from vinevalue.allocator import (
    feasibility_violations,
    multi_start_average,
    objective,
    optimal_value,
    problem_from_caps,
    solve,
)
from vinevalue.valuation import harvest_value
from vinevalue.yields import olympic_average

FIXTURE_CONFIG = Path(__file__).parent / "fixtures" / "alsace" / "pipeline.ini"


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _random_brute_instance(rng):
    n_rows = int(rng.integers(1, 4))
    n_cols = int(rng.integers(1, 4))
    rows = [f"A{i}" for i in range(n_rows)]
    cols = [f"{j + 1:05d}" for j in range(n_cols)]
    caps_r = {r: float(rng.integers(1, 13)) for r in rows}
    caps_c = {c: float(rng.integers(1, 13)) for c in cols}
    weights = {r: float(rng.choice([1.0, 1.0 / 3.0, 0.25])) for r in rows}
    cells = [(r, c) for r in rows for c in cols if rng.random() < 0.85][:9]
    if not cells:
        cells = [(rows[0], cols[0])]
    return problem_from_caps(caps_r, caps_c, weights, cells)


def test_criterion_1_solver_matches_brute_force_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 50:
        problem = _random_brute_instance(rng)
        try:
            oracle = brute_force_optimum(problem, 1.0)
        except ValueError:
            continue
        checked += 1
        solution = solve(problem, checked, optimal_value(problem))
        best = objective(problem.weights, oracle.cells)
        scale = max(abs(best), 1.0)
        gap = abs(objective(problem.weights, solution.cells) - best) / scale
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(
        1, worst <= 1e-6 and elapsed < 10.0,
        f"50 instances, worst relative gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_feasibility_on_random_instances():
    rng = np.random.default_rng(2002)
    start = time.perf_counter()
    violations = 0
    for i in range(1000):
        n_apps = int(rng.integers(2, 51))
        n_counties = int(rng.integers(5, 201))
        density = float(rng.uniform(0.02, 0.3))
        instance = synth.generate(
            (n_apps, n_counties, density), seed=int(rng.integers(1 << 62)),
            counties_per_department=max(2, n_counties // 5),
        )
        result = multi_start_average(instance.problem, k_starts=2, seed_base=i)
        for matrix in (*result.solutions, result.average):
            if feasibility_violations(instance.problem, matrix.cells, rel_tol=1e-6):
                violations += 1
    elapsed = time.perf_counter() - start
    _report(
        2, violations == 0 and elapsed < 120.0,
        f"1000 instances, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_3_priority_weighting():
    problem = problem_from_caps(
        {"AOP1": 10.0, "NP1": 10.0}, {"01001": 10.0},
        {"AOP1": 1.0, "NP1": 0.25},
        [("AOP1", "01001"), ("NP1", "01001")],
    )
    face = optimal_value(problem)
    aop_ok = True
    np_ok = True
    for seed in range(10):
        solution = solve(problem, seed, face)
        aop = solution.cells.get(("AOP1", "01001"), 0.0)
        non_pgi = solution.cells.get(("NP1", "01001"), 0.0)
        aop_ok = aop_ok and abs(aop - 10.0) <= 1e-6
        np_ok = np_ok and abs(non_pgi) <= 1e-6
    _report(3, aop_ok and np_ok, "AOP row receives 10.0, non-PGI row 0 across 10 starts")


def test_criterion_4_olympic_average():
    exact = olympic_average([30, 40, 50, 60, 70]) == 50.0
    constant = all(olympic_average([x] * 5) == x for x in (0.3, 1.0, 40.0, 97.25))
    rng = np.random.default_rng(4004)
    bounded = True
    samples = rng.uniform(0.1, 300.0, size=(10_000, 5))
    for row in samples:
        value = olympic_average(list(row))
        if not (row.min() <= value <= row.max()):
            bounded = False
            break
    _report(4, exact and constant and bounded,
            "exact on [30..70], identity on constants, bounded on 10,000 tuples")


def test_criterion_5_valuation_arithmetic():
    value = harvest_value(13.5, 73.16, 260.0)
    gap = abs(value - 256_902) / 256_902
    _report(5, gap < 0.005, f"(13.5, 73.16, 260) -> {value:.0f} EUR, gap {gap:.3%}")


def test_criterion_6_kendall_tau():
    exact = validate.kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == 2 / 3
    self_one = validate.kendall_tau([3.5, 1.25, 9.0], [3.5, 1.25, 9.0]) == 1.0
    reversed_minus_one = validate.kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
    _report(6, exact and self_one and reversed_minus_one,
            "2/3 exact, self-comparison 1, reversal -1")


def test_criterion_7_recovery_quality_on_synthetic_instances():
    start = time.perf_counter()
    passing = 0
    taus = []
    for seed in range(30):
        instance = synth.generate((20, 100, 0.1), seed=seed, extra_mask_factor=0.5)
        result = multi_start_average(instance.problem, k_starts=5, seed_base=seed)
        truth_aggregates = validate.aggregate_allocation(instance.truth.cells, instance.categories)
        report = validate.compare_aggregates(
            result.average.cells, instance.categories, truth_aggregates
        )
        taus.append(report.kendall_tau)
        if report.kendall_tau >= 0.8:
            passing += 1
    elapsed = time.perf_counter() - start
    _report(
        7, passing >= 27 and elapsed < 300.0,
        f"aggregate tau >= 0.8 on {passing}/30 instances "
        f"(min {min(taus):.3f}, mean {sum(taus) / 30:.3f}), {elapsed:.1f}s",
    )


def test_criterion_8_multi_start_stability():
    problem = synth.generate((10, 50, 0.12), seed=8008).problem
    first = multi_start_average(problem, k_starts=20, seed_base=8008)
    second = multi_start_average(problem, k_starts=20, seed_base=8008)
    feasible = not feasibility_violations(problem, first.average.cells, rel_tol=1e-6)
    best = max(objective(problem.weights, s.cells) for s in first.solutions)
    average = objective(problem.weights, first.average.cells)
    within = abs(average - best) <= 1e-3 * best
    identical = (
        first.average.cells == second.average.cells
        and average == objective(problem.weights, second.average.cells)
    )
    _report(
        8, feasible and within and identical,
        f"k=20 average feasible, objective within "
        f"{abs(average - best) / best:.2e} of best start, bit-identical",
    )


@pytest.mark.skipif(
    "VINEVALUE_FULLDATA_CONFIG" not in os.environ,
    reason="full-data reproduction needs the user-downloaded open data; "
    "set VINEVALUE_FULLDATA_CONFIG to its pipeline configuration",
)
def test_criterion_9_full_data_reproduction(tmp_path):
    config = os.environ["VINEVALUE_FULLDATA_CONFIG"]
    out = tmp_path / "fulldata"
    rc = cli.main(["run", "--config", config, "--output-dir", str(out)])
    assert rc == 0
    report = json.loads((out / cli.VALUE_REPORT).read_text(encoding="utf-8"))
    total_value = report["total_value_eur"]
    total_surface = report["total_surface_ha"]
    value_ok = abs(total_value - 7_527.0e6) / 7_527.0e6 <= 0.05
    surface_ok = abs(total_surface - 753.3e3) / 753.3e3 <= 0.02
    shares = {}
    for line in (out / cli.CATEGORY_CSV).read_text(encoding="utf-8").splitlines()[1:]:
        fields = line.split(";")
        shares[fields[0]] = float(fields[2]) * 100.0
    expected_shares = {"AOP": 69.19, "AOP_BRANDY": 13.32, "PGI": 15.60, "NON_PGI": 1.89}
    shares_ok = all(
        abs(shares.get(category, 0.0) - expected) <= 3.0
        for category, expected in expected_shares.items()
    )
    _report(
        9, value_ok and surface_ok and shares_ok,
        f"total {total_value / 1e6:.1f}M EUR, {total_surface / 1e3:.1f} Kha, shares {shares}",
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli.main(["run", "--config", str(FIXTURE_CONFIG), "--output-dir", str(out)])
        assert rc == 0
        outputs.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
        )
    identical = outputs[0] == outputs[1]
    _report(10, identical, f"{len(outputs[0])} artifacts byte-identical across two runs")
