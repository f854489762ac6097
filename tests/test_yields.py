from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from vinevalue.model import AppellationRecord, Category
from vinevalue.yields import (
    DEFAULT_YIELD,
    ExpectedYield,
    YieldProvenance,
    expected_yield,
    expected_yield_table,
    olympic_average,
    read_expected_yields,
    type_level_histories,
    window,
    write_expected_yields,
)

positive_yields = st.floats(min_value=0.1, max_value=500.0, allow_nan=False)


class TestOlympicAverage:
    def test_textbook_case(self):
        assert olympic_average([30, 40, 50, 60, 70]) == 50.0

    def test_constant_series_identity(self):
        for x in (0.1, 1.0, 3.7, 40.0, 123.456):
            assert olympic_average([x] * 5) == x

    def test_duplicate_extreme_removed_once(self):
        assert olympic_average([10, 10, 10, 10, 100]) == 10.0

    def test_symmetric_middle_equals_plain_mean(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert olympic_average(values) == pytest.approx(sum(values) / 5)

    @pytest.mark.parametrize("count", [0, 1, 4, 6])
    def test_wrong_length_refused(self, count):
        with pytest.raises(ValueError):
            olympic_average([50.0] * count)

    def test_non_positive_refused(self):
        with pytest.raises(ValueError):
            olympic_average([10, 20, 0, 30, 40])

    @given(st.lists(positive_yields, min_size=5, max_size=5))
    def test_bounded_by_min_and_max(self, values):
        result = olympic_average(values)
        assert min(values) <= result <= max(values)

    @given(st.lists(positive_yields, min_size=5, max_size=5), st.randoms())
    def test_permutation_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert olympic_average(shuffled) == olympic_average(values)

    @given(st.floats(min_value=0.01, max_value=1e6, allow_nan=False))
    def test_constant_identity_property(self, x):
        assert olympic_average([x] * 5) == x


class TestExpectedYield:
    def _app(self, history):
        return AppellationRecord(code="1B001M", category=Category.AOP, yield_history=history)

    def test_full_history_uses_appellation_average(self):
        app = self._app({y: 50.0 + y - 2018 for y in range(2018, 2023)})
        result = expected_yield(app, {}, 2023)
        assert result.provenance is YieldProvenance.APPELLATION_OLYMPIC
        assert result.value == olympic_average([50, 51, 52, 53, 54])

    def test_partial_history_falls_back_to_type(self):
        app = self._app({2020: 50.0, 2021: 52.0, 2022: 54.0})
        result = expected_yield(app, {Category.AOP: [40, 42, 44, 46, 48]}, 2023)
        assert result.provenance is YieldProvenance.TYPE_LEVEL_OLYMPIC
        assert result.value == olympic_average([40, 42, 44, 46, 48])

    def test_no_history_uses_default(self):
        result = expected_yield(self._app({}), {}, 2023)
        assert result.provenance is YieldProvenance.DEFAULT_40
        assert result.value == DEFAULT_YIELD

    def test_history_outside_window_ignored(self):
        app = self._app({y: 60.0 for y in range(2000, 2005)})
        assert expected_yield(app, {}, 2023).provenance is YieldProvenance.DEFAULT_40

    def test_window_selects_five_years(self):
        history = {y: float(y - 2000) for y in range(2015, 2023)}
        assert window(history, 2023) == [18.0, 19.0, 20.0, 21.0, 22.0]
        assert window({2020: 5.0}, 2023) is None


class TestTypeLevelHistories:
    def test_surface_weighted(self):
        apps = [
            AppellationRecord(
                code="A", category=Category.AOP, marginal_surface=10.0,
                yield_history={y: 40.0 for y in range(2018, 2023)},
            ),
            AppellationRecord(
                code="B", category=Category.AOP, marginal_surface=30.0,
                yield_history={y: 80.0 for y in range(2018, 2023)},
            ),
        ]
        histories = type_level_histories(apps, 2023)
        assert histories[Category.AOP] == [70.0] * 5

    def test_incomplete_category_dropped(self):
        apps = [
            AppellationRecord(
                code="A", category=Category.PGI, marginal_surface=10.0,
                yield_history={2020: 40.0},
            )
        ]
        assert Category.PGI not in type_level_histories(apps, 2023)

    def test_independent_of_record_order(self):
        rng = random.Random(5)
        apps = [
            AppellationRecord(
                code=f"A{k}", category=rng.choice([Category.AOP, Category.PGI]),
                marginal_surface=rng.uniform(0.1, 500.0),
                yield_history={y: rng.uniform(20.0, 90.0) for y in range(2018, 2023)},
            )
            for k in range(50)
        ]
        expected = {
            category: [
                math.fsum(a.marginal_surface * a.yield_history[y] for a in members)
                / math.fsum(a.marginal_surface for a in members)
                for y in range(2018, 2023)
            ]
            for category in (Category.AOP, Category.PGI)
            for members in [[a for a in apps if a.category is category]]
        }
        for _ in range(20):
            rng.shuffle(apps)
            assert type_level_histories(apps, 2023) == expected


def test_expected_yield_invariant_value_positive():
    with pytest.raises(ValueError):
        ExpectedYield("X", 0.0, YieldProvenance.APPELLATION_OLYMPIC)
    with pytest.raises(ValueError):
        ExpectedYield("X", 30.0, YieldProvenance.DEFAULT_40)


def test_table_round_trip(tmp_path):
    apps = [
        AppellationRecord(
            code="A", category=Category.AOP, marginal_surface=5.0,
            yield_history={y: 45.0 + 0.1 * (y - 2018) for y in range(2018, 2023)},
        ),
        AppellationRecord(code="B", category=Category.NON_PGI),
    ]
    table = expected_yield_table(apps, 2023)
    assert table["B"].provenance is YieldProvenance.DEFAULT_40
    path = tmp_path / "yields.csv"
    write_expected_yields(table, path)
    loaded = read_expected_yields(path)
    assert loaded == table
    assert all(not math.isnan(e.value) for e in loaded.values())
