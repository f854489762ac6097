"""Harvest valuation: surface times expected yield times scale price, with
category, department and agricultural-region aggregation.

Values are stored unrounded; rounding (surfaces to 0.1 ha, values to whole
euros) happens only when writing the presentation CSV. Totals use exact
summation so aggregates are independent of fold order.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .linkage import LabelMatch
from .model import AppellationRecord, Category, Cell, InputError, ProductionMode, write_rows
from .model import exact_sums, reporting_category
from .yields import ExpectedYield

#: Presentation order of the category summary.
CATEGORY_ORDER = (Category.AOP, Category.AOP_BRANDY, Category.PGI, Category.NON_PGI)


@dataclass(frozen=True)
class HarvestValueRecord:
    """One valued allocation cell. ``value`` is the exact product of the
    three factors."""

    insee_code: str
    appellation_code: str
    appellation_name: str
    surface: float
    expected_yield: float
    price: float
    value: float


@dataclass(frozen=True)
class CategorySummary:
    category: Category
    total_value: float
    value_share: float
    total_surface: float
    surface_share: float


@dataclass(frozen=True)
class RegionSummary:
    region_id: str
    total_value: float
    total_surface: float
    value_per_hectare: float


@dataclass
class ValueReport:
    records: int = 0
    price_fallbacks: int = 0
    fallback_codes: list[str] = field(default_factory=list)
    total_value: float = 0.0
    total_surface: float = 0.0

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "price_fallbacks": self.price_fallbacks,
            "fallback_codes": sorted(set(self.fallback_codes))[:50],
            "total_value_eur": self.total_value,
            "total_surface_ha": self.total_surface,
        }


def harvest_value(surface: float, expected_yield: float, price: float) -> float:
    """Exact product of surface (ha), yield (hl/ha) and price (eur/hl)."""
    if surface < 0 or expected_yield < 0 or price < 0:
        raise InputError("harvest value factors must be nonnegative")
    return surface * expected_yield * price


def resolve_prices(matches: Sequence[LabelMatch]) -> dict[str, float]:
    """Price per appellation code from the accepted matches, each at its own row's price.

    When several price rows map to one code the conventional entries win,
    then the smallest distance, then the lowest price (deterministic).
    """
    best: dict[str, tuple[bool, float, float]] = {}
    for match in matches:
        if match.accepted and match.target_code:
            rank = (match.production_mode is not ProductionMode.CONVENTIONAL,
                    match.distance, match.price)
            best[match.target_code] = min(best.get(match.target_code, rank), rank)
    return {code: rank[2] for code, rank in best.items()}


def build_portfolio(
    cells: Mapping[Cell, float],
    expected_yields: Mapping[str, ExpectedYield],
    price_by_code: Mapping[str, float],
    appellations: Mapping[str, AppellationRecord],
) -> tuple[list[HarvestValueRecord], ValueReport]:
    """One valued record per positive allocation cell.

    Cells whose appellation has no accepted price use the median price of
    matched appellations in the same reporting category (a pseudo non-PGI
    code takes the non-PGI prices; any matched price as a last resort) and
    are counted in the report.
    """
    report = ValueReport()
    prices_by_category: dict[Category, list[float]] = {}
    for code, price in price_by_code.items():
        app = appellations.get(code)
        if app is not None:
            prices_by_category.setdefault(reporting_category(app.category), []).append(price)
    if not price_by_code:
        raise InputError("no resolved prices; cannot value the portfolio")
    overall_median = statistics.median(price_by_code.values())
    category_median = {cat: statistics.median(p) for cat, p in prices_by_category.items()}

    records = []
    for (code, insee) in sorted(cells):
        surface = cells[(code, insee)]
        if surface <= 0:
            continue
        app = appellations.get(code)
        if app is None:
            raise InputError(f"allocation references unknown appellation {code!r}")
        if code not in expected_yields:
            raise InputError(f"no expected yield for appellation {code!r}")
        ey = expected_yields[code].value
        if code not in price_by_code:
            price = category_median.get(reporting_category(app.category), overall_median)
            report.price_fallbacks += 1
            report.fallback_codes.append(code)
        else:
            price = price_by_code[code]
        records.append(
            HarvestValueRecord(
                insee_code=insee,
                appellation_code=code,
                appellation_name=app.name,
                surface=surface,
                expected_yield=ey,
                price=price,
                value=harvest_value(surface, ey, price),
            )
        )
    report.records = len(records)
    report.total_value = math.fsum(r.value for r in records)
    report.total_surface = math.fsum(r.surface for r in records)
    return records, report


def summarize_by_category(
    portfolio: Sequence[HarvestValueRecord],
    categories_by_code: Mapping[str, Category],
) -> list[CategorySummary]:
    """Totals and shares per category in the fixed presentation order.
    Pseudo non-PGI appellations are reported as non-PGI."""
    if not portfolio:
        raise InputError("empty portfolio")
    keys = [reporting_category(categories_by_code.get(r.appellation_code)) for r in portfolio]
    values = exact_sums(zip(keys, (r.value for r in portfolio)))
    surfaces = exact_sums(zip(keys, (r.surface for r in portfolio)))
    total_value = math.fsum(r.value for r in portfolio)
    total_surface = math.fsum(r.surface for r in portfolio)
    summaries = []
    for category in CATEGORY_ORDER:
        if category not in values:
            continue
        value, surface = values[category], surfaces[category]
        summaries.append(
            CategorySummary(
                category=category,
                total_value=value,
                value_share=value / total_value if total_value else 0.0,
                total_surface=surface,
                surface_share=surface / total_surface if total_surface else 0.0,
            )
        )
    return summaries


def summarize_by_region(
    portfolio: Sequence[HarvestValueRecord],
    region_by_county: Mapping[str, str],
) -> list[RegionSummary]:
    """Value and surface totals per agricultural region, with the mean value
    per hectare. Counties without a mapping group under UNKNOWN; regions with
    zero surface are omitted."""
    keys = [region_by_county.get(r.insee_code) or "UNKNOWN" for r in portfolio]
    values = exact_sums(zip(keys, (r.value for r in portfolio)))
    surfaces = exact_sums(zip(keys, (r.surface for r in portfolio)))
    return [
        RegionSummary(region, values[region], surfaces[region], values[region] / surfaces[region])
        for region in sorted(values) if surfaces[region] > 0
    ]


def write_portfolio(portfolio: Iterable[HarvestValueRecord], path: str | Path) -> None:
    """Presentation CSV: surfaces rounded to 0.1 ha, values to whole euros."""
    write_rows(
        path,
        ["county", "appellation", "surface_ha", "expected_yield_hl_ha",
         "price_eur_hl", "harvest_value_eur"],
        ([r.insee_code, f"{r.appellation_code} {r.appellation_name}".strip(),
          f"{r.surface:.1f}", f"{r.expected_yield:.2f}", f"{r.price:g}", f"{r.value:.0f}"]
         for r in portfolio),
    )


def write_category_summary(summaries: Iterable[CategorySummary], path: str | Path) -> None:
    write_rows(
        path, ["category", "value_eur", "value_share", "surface_ha", "surface_share"],
        ([s.category.value, repr(s.total_value), repr(s.value_share),
          repr(s.total_surface), repr(s.surface_share)] for s in summaries),
    )


def write_region_summary(summaries: Iterable[RegionSummary], path: str | Path) -> None:
    write_rows(
        path, ["agricultural_region", "value_eur", "surface_ha", "value_eur_per_ha"],
        ([s.region_id, repr(s.total_value), repr(s.total_surface), repr(s.value_per_hectare)]
         for s in summaries),
    )
