"""Harvest valuation: surface times expected yield times scale price, with
category, department and agricultural-region aggregation.

Values are stored unrounded; rounding (surfaces to 0.1 ha, values to whole
euros) happens only when writing the presentation CSV. Totals use exact
summation so aggregates are independent of fold order.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .linkage import LabelMatch
from .model import AppellationRecord, Category, Cell, PriceEntry, ProductionMode
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
    price_fallback: bool = False


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "records": self.records,
                "price_fallbacks": self.price_fallbacks,
                "fallback_codes": sorted(set(self.fallback_codes))[:50],
                "total_value_eur": self.total_value,
                "total_surface_ha": self.total_surface,
            },
            sort_keys=True,
        )


def harvest_value(surface: float, expected_yield: float, price: float) -> float:
    """Exact product of surface (ha), yield (hl/ha) and price (eur/hl)."""
    if surface < 0 or expected_yield < 0 or price < 0:
        raise ValueError("harvest value factors must be nonnegative")
    return surface * expected_yield * price


def resolve_prices(
    matches: Sequence[LabelMatch],
    prices: Sequence[PriceEntry],
    *,
    prefer_mode: ProductionMode = ProductionMode.CONVENTIONAL,
) -> dict[str, float]:
    """Price per appellation code from the accepted matches.

    When several price rows map to one code the conventional entries win,
    then the smallest distance, then the lowest price (deterministic).
    """
    by_label: dict[str, list[PriceEntry]] = {}
    for entry in prices:
        by_label.setdefault(entry.label, []).append(entry)
    candidates: dict[str, list[tuple[int, float, float]]] = {}
    for match in matches:
        if not match.accepted or not match.target_code:
            continue
        for entry in by_label.get(match.source_label, []):
            mode_rank = 0 if entry.production_mode is prefer_mode else 1
            candidates.setdefault(match.target_code, []).append(
                (mode_rank, match.distance, entry.price)
            )
    return {
        code: min(options)[2] for code, options in candidates.items()
    }


def build_portfolio(
    cells: Mapping[Cell, float],
    expected_yields: Mapping[str, ExpectedYield],
    price_by_code: Mapping[str, float],
    appellations: Mapping[str, AppellationRecord],
) -> tuple[list[HarvestValueRecord], ValueReport]:
    """One valued record per positive allocation cell.

    Cells whose appellation has no accepted price use the median price of
    matched appellations in the same category (any matched price as a last
    resort) and are flagged.
    """
    report = ValueReport()
    prices_by_category: dict[Category, list[float]] = {}
    for code, price in price_by_code.items():
        app = appellations.get(code)
        if app is not None:
            prices_by_category.setdefault(app.category, []).append(price)
    if not price_by_code:
        raise ValueError("no resolved prices; cannot value the portfolio")
    overall_median = statistics.median(price_by_code.values())

    records = []
    for (code, insee) in sorted(cells):
        surface = cells[(code, insee)]
        if surface <= 0:
            continue
        app = appellations.get(code)
        if app is None:
            raise ValueError(f"allocation references unknown appellation {code!r}")
        if code not in expected_yields:
            raise ValueError(f"no expected yield for appellation {code!r}")
        ey = expected_yields[code].value
        fallback = code not in price_by_code
        if fallback:
            in_category = prices_by_category.get(app.category)
            price = statistics.median(in_category) if in_category else overall_median
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
                price_fallback=fallback,
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
        raise ValueError("empty portfolio")
    values: dict[Category, list[float]] = {}
    surfaces: dict[Category, list[float]] = {}
    for record in portfolio:
        category = categories_by_code.get(record.appellation_code, Category.NON_PGI)
        if category is Category.PSEUDO_NON_PGI:
            category = Category.NON_PGI
        values.setdefault(category, []).append(record.value)
        surfaces.setdefault(category, []).append(record.surface)
    total_value = math.fsum(v for vs in values.values() for v in vs)
    total_surface = math.fsum(s for ss in surfaces.values() for s in ss)
    summaries = []
    for category in CATEGORY_ORDER:
        if category not in values:
            continue
        value = math.fsum(values[category])
        surface = math.fsum(surfaces[category])
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
    values: dict[str, list[float]] = {}
    surfaces: dict[str, list[float]] = {}
    for record in portfolio:
        region = region_by_county.get(record.insee_code) or "UNKNOWN"
        values.setdefault(region, []).append(record.value)
        surfaces.setdefault(region, []).append(record.surface)
    summaries = []
    for region in sorted(values):
        surface = math.fsum(surfaces[region])
        if surface <= 0:
            continue
        value = math.fsum(values[region])
        summaries.append(RegionSummary(region, value, surface, value / surface))
    return summaries


def write_portfolio(portfolio: Iterable[HarvestValueRecord], path: str | Path) -> None:
    """Presentation CSV: surfaces rounded to 0.1 ha, values to whole euros."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";")
        writer.writerow(
            ["county", "appellation", "surface_ha", "expected_yield_hl_ha",
             "price_eur_hl", "harvest_value_eur"]
        )
        for r in portfolio:
            writer.writerow(
                [
                    r.insee_code,
                    f"{r.appellation_code} {r.appellation_name}".strip(),
                    f"{r.surface:.1f}",
                    f"{r.expected_yield:.2f}",
                    f"{r.price:g}",
                    f"{r.value:.0f}",
                ]
            )


def write_category_summary(summaries: Iterable[CategorySummary], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";")
        writer.writerow(
            ["category", "value_eur", "value_share", "surface_ha", "surface_share"]
        )
        for s in summaries:
            writer.writerow(
                [s.category.value, repr(s.total_value), repr(s.value_share),
                 repr(s.total_surface), repr(s.surface_share)]
            )


def write_region_summary(summaries: Iterable[RegionSummary], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";")
        writer.writerow(["agricultural_region", "value_eur", "surface_ha", "value_eur_per_ha"])
        for s in summaries:
            writer.writerow(
                [s.region_id, repr(s.total_value), repr(s.total_surface),
                 repr(s.value_per_hectare)]
            )
