from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from baselines import kendall_tau_oracle

from vinevalue import validate
from vinevalue.ingest import parse_reference_aggregates
from vinevalue.model import Category
from vinevalue.validate import (
    ComparisonReport,
    aggregate_allocation,
    compare_aggregates,
    compare_solutions,
    kendall_tau,
    write_scatter_csv,
)

value_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=30
)
#: Few distinct values with both signed zeros, like sparse allocations.
tied_values = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 100.0, 250.0])


class TestKendallTau:
    def test_hand_derived_two_thirds(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == 2 / 3

    def test_perfect_concordance(self):
        assert kendall_tau([1.5, 2.5, 9.0], [1.5, 2.5, 9.0]) == 1.0

    def test_perfect_discordance(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_tie_correction(self):
        # C-D = 4, one tie on each side: 4 / sqrt(5 * 5).
        assert kendall_tau([1, 1, 2, 3], [1, 2, 2, 3]) == 0.8

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            kendall_tau([1], [1])

    def test_all_tied_undefined(self):
        with pytest.raises(ValueError):
            kendall_tau([5, 5, 5], [1, 2, 3])

    @given(value_lists)
    def test_self_comparison_is_one(self, values):
        if len(set(values)) < 2:
            return
        assert kendall_tau(values, values) == 1.0

    @given(st.lists(st.tuples(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ), min_size=2, max_size=25))
    def test_symmetry(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        assert kendall_tau(x, y) == kendall_tau(y, x)

    @given(st.lists(st.tuples(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ), min_size=2, max_size=25))
    def test_invariant_under_increasing_transform(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        # 2x + 1 is strictly increasing; skip examples where float rounding
        # of the transform collapses distinct values into new ties.
        transformed = [2.0 * v + 1.0 for v in x]
        assume(len(set(transformed)) == len(set(x)))
        assert kendall_tau(transformed, y) == kendall_tau(x, y)

    @given(st.lists(st.tuples(tied_values, tied_values), max_size=60))
    def test_equals_brute_force_oracle(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        try:
            expected = kendall_tau_oracle(x, y)
        except ValueError:
            with pytest.raises(ValueError):
                kendall_tau(x, y)
            return
        assert kendall_tau(x, y) == expected

    @given(value_lists, value_lists)
    def test_range(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        if n < 2 or len(set(x)) < 2 or len(set(y)) < 2:
            return
        assert -1.0 <= kendall_tau(x, y) <= 1.0


class TestCompareSolutions:
    def test_identical_solutions(self):
        sol = {("A", "00001"): 5.0, ("B", "00002"): 150.0}
        report = compare_solutions([sol, dict(sol)], restrict_min_hectares=100.0)
        assert report.kendall_tau == 1.0
        assert report.kendall_tau_min == 1.0
        assert report.restricted_tau == 1.0
        assert report.restricted_count == 1

    def test_mismatched_supports_fill_zero(self):
        a = {("A", "00001"): 5.0, ("B", "00002"): 2.0, ("C", "00003"): 1.0}
        b = {("A", "00001"): 5.0, ("C", "00003"): 1.0}
        report = compare_solutions([a, b])
        assert report.pair_count == 3
        assert report.kendall_tau < 1.0

    def test_restriction_threshold(self):
        a = {("A", "00001"): 500.0, ("B", "00002"): 200.0, ("C", "00003"): 1.0}
        b = {("A", "00001"): 400.0, ("B", "00002"): 300.0, ("C", "00003"): 2.0}
        report = compare_solutions([a, b], restrict_min_hectares=100.0)
        assert report.restricted_count == 2
        assert report.restricted_tau == 1.0

    @given(
        st.lists(st.lists(st.one_of(st.none(), tied_values), min_size=60, max_size=60),
                 min_size=2, max_size=5),
        st.integers(min_value=0, max_value=60),
        st.sampled_from([1.0, 100.0]),
    )
    def test_equals_brute_force_oracle(self, rows, n, threshold):
        cells = [(f"A{c % 3}", f"{c:05d}") for c in range(n)]
        solutions = [
            {cell: value for cell, value in zip(cells, row) if value is not None}
            for row in rows
        ]
        support = sorted(set().union(*solutions))
        vectors = [[s.get(cell, 0.0) for cell in support] for s in solutions]
        keep = [c for c in range(len(support)) if max(v[c] for v in vectors) >= threshold]
        taus = oracle_pairwise_taus(vectors)
        restricted = oracle_pairwise_taus([[v[c] for c in keep] for v in vectors]) if keep else []
        if not taus:
            with pytest.raises(ValueError):
                compare_solutions(solutions, restrict_min_hectares=threshold)
            return
        report = compare_solutions(solutions, restrict_min_hectares=threshold)
        assert report.pair_count == len(support)
        assert report.kendall_tau == math.fsum(taus) / len(taus)
        assert report.kendall_tau_min == min(taus)
        assert report.notes["tau_pairs"] == len(taus)
        assert report.restricted_count == len(keep)
        if restricted:
            assert report.restricted_tau == math.fsum(restricted) / len(restricted)
            assert report.restricted_tau_min == min(restricted)
        else:
            assert report.restricted_tau is None
            assert report.restricted_tau_min is None

    def test_needs_two_solutions(self):
        with pytest.raises(ValueError):
            compare_solutions([{("A", "00001"): 1.0}])

    @pytest.mark.parametrize("pairs_per_batch", [1, 4])
    def test_pairs_scored_in_batches(self, monkeypatch, pairs_per_batch):
        """Six tie-heavy solutions over 50 cells give 15 pairs. Scored in
        batches of one pair or of a few, every statistic is the one-batch
        result and the oracle's."""
        rng = np.random.default_rng(6)
        levels = [0.0, 0.5, 1.0, 2.0, 100.0, 250.0]
        cells = [(f"A{c % 3}", f"{c:05d}") for c in range(50)]
        solutions = [{cell: float(rng.choice(levels)) for cell in cells if rng.random() < 0.8}
                     for _ in range(6)]
        whole = compare_solutions(solutions).to_dict()
        support = sorted(set().union(*solutions))
        assert len(support) == 50
        batches = []
        discordant = validate._discordant

        def recorded(sequences):
            batches.append(len(sequences))
            return discordant(sequences)

        monkeypatch.setattr(validate, "_discordant", recorded)
        monkeypatch.setattr(validate, "_BATCH_CELLS", pairs_per_batch * len(support))
        assert compare_solutions(solutions).to_dict() == whole
        # The 15 pairs over the whole support, then the restricted pairs.
        assert batches[:math.ceil(15 / pairs_per_batch)] == [
            min(pairs_per_batch, 15 - lo) for lo in range(0, 15, pairs_per_batch)]
        taus = oracle_pairwise_taus([[s.get(cell, 0.0) for cell in support] for s in solutions])
        assert len(taus) == 15
        assert whole["kendall_tau"] == math.fsum(taus) / len(taus)
        assert whole["kendall_tau_min"] == min(taus)


def oracle_pairwise_taus(vectors: list[list[float]]) -> list[float]:
    """Pairwise taus by the oracle: identical vectors score 1.0, and
    undefined pairs are skipped."""
    taus = []
    for a, b in itertools.combinations(vectors, 2):
        if a == b:
            taus.append(1.0)
            continue
        try:
            taus.append(kendall_tau_oracle(a, b))
        except ValueError:
            continue
    return taus


CATEGORIES = {
    "A": Category.AOP,
    "B": Category.PGI,
    "P": Category.PSEUDO_NON_PGI,
}


class TestCompareAggregates:
    def test_self_comparison_exactly_one(self):
        alloc = {
            ("A", "67003"): 5.0, ("A", "68001"): 2.0,
            ("B", "67003"): 1.0, ("P", "68001"): 4.0,
        }
        reference = aggregate_allocation(alloc, CATEGORIES)
        report = compare_aggregates(alloc, CATEGORIES, reference)
        assert report.kendall_tau == 1.0

    def test_pseudo_category_folds_into_non_pgi(self):
        alloc = {("P", "68001"): 4.0}
        aggregated = aggregate_allocation(alloc, CATEGORIES)
        assert aggregated == {("68", "NON_PGI"): 4.0}

    def test_one_sided_keys_counted(self):
        alloc = {("A", "67003"): 5.0, ("B", "68001"): 1.0}
        reference = {("67", "AOP"): 5.0, ("99", "AOP"): 7.0}
        report = compare_aggregates(alloc, CATEGORIES, reference)
        assert report.notes["model_only_keys"] == 1
        assert report.notes["reference_only_keys"] == 1
        keys = [row[0] for row in report.scatter_rows]
        assert "99|AOP" in keys

    def test_restriction_by_reference_surface(self):
        alloc = {("A", "67003"): 10.0, ("A", "68001"): 2000.0,
                 ("A", "69001"): 3000.0, ("A", "70001"): 1.0}
        reference = {("67", "AOP"): 1500.0, ("68", "AOP"): 1200.0,
                     ("69", "AOP"): 1100.0, ("70", "AOP"): 5.0}
        report = compare_aggregates(alloc, CATEGORIES, reference, restrict_min_hectares=1000.0)
        assert report.kendall_tau == 0.0
        assert report.restricted_count == 3
        assert report.restricted_tau == -1.0

    def test_scatter_round_trip(self, tmp_path):
        alloc = {("A", "67003"): 5.0, ("B", "68001"): 1.0}
        reference = aggregate_allocation(alloc, CATEGORIES)
        report = compare_aggregates(alloc, CATEGORIES, reference)
        path = tmp_path / "scatter.csv"
        write_scatter_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "key;model_value;reference_value"
        assert len(lines) == 1 + len(report.scatter_rows)

    def test_reference_file_loader(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text("department;wine_type;surface_ha\n67;AOP;120.5\n\n68;PGI;3\n\n",
                        encoding="utf-8")
        assert parse_reference_aggregates(path) == {("67", "AOP"): 120.5, ("68", "PGI"): 3.0}


def test_report_json_is_stable():
    report = ComparisonReport(pair_count=3, kendall_tau=0.5, restricted_tau=None)
    payload = report.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["pair_count"] == 3
    assert payload["restricted_tau"] is None
