from __future__ import annotations

import math
import statistics

import pytest

from vinevalue.linkage import LabelMatch, match_labels
from vinevalue.model import AppellationRecord, Category, PriceEntry, ProductionMode
from vinevalue.valuation import (
    CATEGORY_ORDER,
    HarvestValueRecord,
    build_portfolio,
    harvest_value,
    resolve_prices,
    summarize_by_category,
    summarize_by_region,
    write_category_summary,
    write_portfolio,
    write_region_summary,
)
from vinevalue.yields import ExpectedYield, YieldProvenance


class TestHarvestValue:
    def test_published_reference_cell(self):
        # The published table rounds the surface column to 0.1 ha, hence the
        # half-percent tolerance around its 256,902 euro cell.
        value = harvest_value(13.5, 73.16, 260.0)
        assert abs(value - 256_902) / 256_902 < 0.005

    def test_zero_surface(self):
        assert harvest_value(0.0, 55.0, 120.0) == 0.0

    def test_hand_arithmetic(self):
        assert harvest_value(2.0, 50.0, 100.0) == 10_000.0

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            harvest_value(-1.0, 50.0, 100.0)


def _ey(code, value):
    return ExpectedYield(code, value, YieldProvenance.APPELLATION_OLYMPIC)


APPS = {
    "A1": AppellationRecord(code="A1", name="Alpha", category=Category.AOP),
    "A2": AppellationRecord(code="A2", name="Beta", category=Category.AOP),
    "A3": AppellationRecord(code="A3", name="Gamma", category=Category.AOP),
    "B1": AppellationRecord(code="B1", name="Delta", category=Category.PGI),
    "P1": AppellationRecord(code="P1", name="Pseudo 67", category=Category.PSEUDO_NON_PGI),
}


class TestResolvePrices:
    def test_prefers_conventional_then_distance_then_price(self):
        matches = [
            LabelMatch("alpha", "A1", 0.0, True, 200.0, ProductionMode.ORGANIC),
            LabelMatch("alpha", "A1", 0.0, True, 150.0, ProductionMode.CONVENTIONAL),
            LabelMatch("alghx", "A1", 3.0, True, 90.0, ProductionMode.CONVENTIONAL),
        ]
        assert resolve_prices(matches) == {"A1": 150.0}

    def test_rejected_matches_ignored(self):
        matches = [LabelMatch("alpha", "A1", 5.0, False, 100.0, ProductionMode.CONVENTIONAL)]
        assert resolve_prices(matches) == {}

    def test_a_rejected_row_never_prices_a_code(self):
        # Two scale rows share a label; the region filter rejects the Loire
        # row's match, so only the Bourgogne row's own price may reach A1.
        prices = [
            PriceEntry(label="Chablis", price=150.0, region_hint="Bourgogne"),
            PriceEntry(label="Chablis", price=90.0, region_hint="Loire"),
        ]
        apps = [AppellationRecord(code="A1", name="Chablis")]
        matches = match_labels(prices, apps, region_filter={"A1": "Bourgogne"})
        assert [m.accepted for m in matches] == [True, False]
        assert resolve_prices(matches) == {"A1": 150.0}


class TestBuildPortfolio:
    def _alloc(self):
        return {("A1", "67003"): 2.0, ("A2", "67051"): 3.0, ("B1", "67155"): 4.0}

    def _yields(self):
        return {"A1": _ey("A1", 50.0), "A2": _ey("A2", 60.0), "A3": _ey("A3", 55.0),
                "B1": _ey("B1", 70.0)}

    def test_full_lookups_give_one_record_per_cell(self):
        records, report = build_portfolio(
            self._alloc(), self._yields(),
            {"A1": 100.0, "A2": 120.0, "B1": 80.0}, APPS,
        )
        assert len(records) == 3
        assert report.price_fallbacks == 0
        first = records[0]
        assert first.value == first.surface * first.expected_yield * first.price

    def test_missing_price_uses_category_median_and_flags(self):
        # A2 has no accepted price; the AOP median of the matched prices
        # (100, 150, 300) is 150 by the independent median oracle.
        matched = {"A1": 100.0, "A3": 150.0, "B1": 80.0}
        matched_aop_extra = dict(matched)
        matched_aop_extra["A4"] = 300.0
        apps = dict(APPS)
        apps["A4"] = AppellationRecord(code="A4", name="Omega", category=Category.AOP)
        records, report = build_portfolio(
            self._alloc(), self._yields(), matched_aop_extra, apps,
        )
        assert report.fallback_codes == ["A2"]
        assert report.price_fallbacks == 1
        assert {r.appellation_code: r.price for r in records}["A2"] == statistics.median(
            [100.0, 150.0, 300.0]
        )

    def test_pseudo_non_pgi_falls_back_to_non_pgi_prices(self):
        # NONPGI<dept> codes never carry a price label; they report as
        # non-PGI, so their fallback is the non-PGI median, not the overall one.
        apps = {
            "A1": AppellationRecord(code="A1", name="Alpha", category=Category.AOP),
            "A2": AppellationRecord(code="A2", name="Beta", category=Category.AOP),
            "V1": AppellationRecord(code="V1", name="Vin", category=Category.NON_PGI),
            "NONPGI67": AppellationRecord(
                code="NONPGI67", name="Non-PGI 67", category=Category.PSEUDO_NON_PGI
            ),
        }
        yields_ = {code: _ey(code, 50.0) for code in apps}
        records, report = build_portfolio(
            {("NONPGI67", "67003"): 2.0}, yields_, {"A1": 1000.0, "A2": 900.0, "V1": 50.0}, apps,
        )
        assert [(r.appellation_code, r.price) for r in records] == [("NONPGI67", 50.0)]
        assert report.fallback_codes == ["NONPGI67"]

    def test_surface_conserved(self):
        alloc = self._alloc()
        records, _ = build_portfolio(
            alloc, self._yields(), {"A1": 100.0, "A2": 120.0, "B1": 80.0}, APPS
        )
        assert math.fsum(r.surface for r in records) == pytest.approx(
            math.fsum(alloc.values()), rel=1e-12
        )

    def test_unknown_appellation_rejected(self):
        alloc = {("ZZ", "67003"): 1.0}
        with pytest.raises(ValueError):
            build_portfolio(alloc, self._yields(), {"A1": 100.0}, APPS)

    def test_no_prices_at_all_rejected(self):
        with pytest.raises(ValueError):
            build_portfolio(self._alloc(), self._yields(), {}, APPS)


def _record(code, insee, surface, value, name=""):
    return HarvestValueRecord(
        insee_code=insee, appellation_code=code, appellation_name=name,
        surface=surface, expected_yield=1.0, price=1.0, value=value,
    )


class TestSummaries:
    def test_single_category_full_share(self):
        portfolio = [_record("A1", "67003", 2.0, 100.0)]
        summaries = summarize_by_category(portfolio, {"A1": Category.AOP})
        assert len(summaries) == 1
        assert summaries[0].value_share == 1.0
        assert summaries[0].surface_share == 1.0

    def test_two_equal_categories_split_evenly(self):
        portfolio = [
            _record("A1", "67003", 1.0, 500.0),
            _record("B1", "67051", 1.0, 500.0),
        ]
        summaries = summarize_by_category(
            portfolio, {"A1": Category.AOP, "B1": Category.PGI}
        )
        assert [s.value_share for s in summaries] == [0.5, 0.5]

    def test_presentation_order(self):
        portfolio = [
            _record("N", "67003", 1.0, 1.0),
            _record("B", "67003", 1.0, 1.0),
            _record("A", "67003", 1.0, 1.0),
            _record("V", "67003", 1.0, 1.0),
        ]
        cats = {"A": Category.AOP, "V": Category.AOP_BRANDY,
                "B": Category.PGI, "N": Category.NON_PGI}
        summaries = summarize_by_category(portfolio, cats)
        assert [s.category for s in summaries] == list(CATEGORY_ORDER)

    def test_pseudo_reported_as_non_pgi(self):
        portfolio = [_record("P1", "67003", 1.0, 10.0)]
        summaries = summarize_by_category(portfolio, {"P1": Category.PSEUDO_NON_PGI})
        assert summaries[0].category is Category.NON_PGI

    def test_shares_sum_to_one(self):
        portfolio = [
            _record(code, "67003", s, v)
            for code, s, v in [("A1", 1.5, 10.0), ("A2", 2.5, 23.0), ("B1", 4.0, 7.5)]
        ]
        cats = {"A1": Category.AOP, "A2": Category.AOP, "B1": Category.PGI}
        summaries = summarize_by_category(portfolio, cats)
        assert math.fsum(s.value_share for s in summaries) == pytest.approx(1.0, abs=1e-9)
        assert math.fsum(s.surface_share for s in summaries) == pytest.approx(1.0, abs=1e-9)

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            summarize_by_category([], {})

    def test_region_mean_value_per_hectare(self):
        portfolio = [
            _record("A1", "67003", 10.0, 50_000.0),
            _record("A2", "67051", 10.0, 150_000.0),
        ]
        summaries = summarize_by_region(portfolio, {"67003": "RA-1", "67051": "RA-1"})
        assert len(summaries) == 1
        assert summaries[0].value_per_hectare == 10_000.0

    def test_region_empty_portfolio(self):
        assert summarize_by_region([], {}) == []

    def test_unmapped_county_goes_to_unknown(self):
        portfolio = [_record("A1", "99999", 1.0, 5.0)]
        summaries = summarize_by_region(portfolio, {})
        assert summaries[0].region_id == "UNKNOWN"

    def test_value_per_hectare_within_member_range(self):
        portfolio = [
            _record("A1", "67003", 2.0, 30.0),
            _record("A2", "67003", 5.0, 200.0),
            _record("A3", "67003", 1.0, 90.0),
        ]
        summaries = summarize_by_region(portfolio, {"67003": "RA-1"})
        per_ha = [r.value / r.surface for r in portfolio]
        assert min(per_ha) <= summaries[0].value_per_hectare <= max(per_ha)

    def test_conservation_across_aggregations(self):
        portfolio = [
            _record("A1", "67003", 1.5, 11.25),
            _record("A2", "67051", 2.5, 23.75),
            _record("B1", "68001", 4.0, 7.5),
            _record("P1", "68001", 1.0, 2.0),
        ]
        cats = {"A1": Category.AOP, "A2": Category.AOP, "B1": Category.PGI,
                "P1": Category.PSEUDO_NON_PGI}
        regions = {"67003": "RA-1", "67051": "RA-1", "68001": "RA-2"}
        total = math.fsum(r.value for r in portfolio)
        by_cat = math.fsum(s.total_value for s in summarize_by_category(portfolio, cats))
        by_region = math.fsum(s.total_value for s in summarize_by_region(portfolio, regions))
        assert by_cat == pytest.approx(total, rel=1e-6)
        assert by_region == pytest.approx(total, rel=1e-6)


class TestWriters:
    def test_portfolio_display_rounding(self, tmp_path):
        record = HarvestValueRecord(
            insee_code="67003", appellation_code="1B001M",
            appellation_name="Crémant d'Alsace blanc",
            surface=13.5058, expected_yield=73.16, price=260.0,
            value=13.5058 * 73.16 * 260.0,
        )
        path = tmp_path / "portfolio.csv"
        write_portfolio([record], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split(";") == [
            "county", "appellation", "surface_ha", "expected_yield_hl_ha",
            "price_eur_hl", "harvest_value_eur",
        ]
        fields = lines[1].split(";")
        assert fields[2] == "13.5"
        assert fields[5] == "256902"

    def test_summary_writers(self, tmp_path):
        portfolio = [_record("A1", "67003", 2.0, 100.0)]
        cats = summarize_by_category(portfolio, {"A1": Category.AOP})
        regions = summarize_by_region(portfolio, {"67003": "RA-1"})
        write_category_summary(cats, tmp_path / "cat.csv")
        write_region_summary(regions, tmp_path / "ra.csv")
        assert (tmp_path / "cat.csv").read_text().startswith("category;")
        assert (tmp_path / "ra.csv").read_text().startswith("agricultural_region;")
