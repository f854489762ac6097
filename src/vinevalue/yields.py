"""Expected harvest yields per appellation.

The expected yield for harvest year ``n`` is the Olympic average of the five
preceding yearly yields: drop one minimum and one maximum, then average the
middle three. Appellations without a full five-year history fall back to the
category-level Olympic average, and finally to a flat 40 hl/ha.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .model import AppellationRecord, Category, exact_sums, finite_float, read_rows, write_rows

#: Flat fallback when neither the appellation nor its category has a usable
#: five-year history.
DEFAULT_YIELD = 40.0

WINDOW_YEARS = 5


class YieldProvenance(str, enum.Enum):
    APPELLATION_OLYMPIC = "APPELLATION_OLYMPIC"
    TYPE_LEVEL_OLYMPIC = "TYPE_LEVEL_OLYMPIC"
    DEFAULT_40 = "DEFAULT_40"


@dataclass(frozen=True)
class ExpectedYield:
    appellation_code: str
    value: float
    provenance: YieldProvenance

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"{self.appellation_code}: expected yield must be > 0")
        if self.provenance is YieldProvenance.DEFAULT_40 and self.value != DEFAULT_YIELD:
            raise ValueError("DEFAULT_40 provenance requires the default value")


def olympic_average(history: Sequence[float]) -> float:
    """Trimmed mean of exactly five positive yearly yields: one instance of
    the minimum and one of the maximum are removed, the rest averaged.

    The result is clamped into the range of the middle values so that a
    constant series returns the constant exactly and the min/max bounds hold
    under floating point.
    """
    if len(history) != WINDOW_YEARS:
        raise ValueError(f"olympic average needs exactly {WINDOW_YEARS} values, got {len(history)}")
    if any(v <= 0 for v in history):
        raise ValueError("olympic average needs positive yields")
    middle = sorted(history)[1:-1]
    value = math.fsum(middle) / 3.0
    return min(max(value, middle[0]), middle[-1])


def window(history: Mapping[int, float], harvest_year: int) -> list[float] | None:
    """The five yields for years ``harvest_year - 5 .. harvest_year - 1``, or
    None when any is missing. Zero yields are stored as missing at ingest."""
    values = []
    for year in range(harvest_year - WINDOW_YEARS, harvest_year):
        value = history.get(year)
        if value is None or value <= 0:
            return None
        values.append(value)
    return values


def expected_yield(
    appellation: AppellationRecord,
    type_level: Mapping[Category, Sequence[float]],
    harvest_year: int,
) -> ExpectedYield:
    """Expected yield with the fallback chain: appellation history, then the
    category-level history, then the flat default. Total by construction."""
    own = window(appellation.yield_history, harvest_year)
    if own is not None:
        return ExpectedYield(
            appellation.code, olympic_average(own), YieldProvenance.APPELLATION_OLYMPIC
        )
    fallback = type_level.get(appellation.category)
    if fallback is not None and len(fallback) == WINDOW_YEARS and all(v > 0 for v in fallback):
        return ExpectedYield(
            appellation.code, olympic_average(fallback), YieldProvenance.TYPE_LEVEL_OLYMPIC
        )
    return ExpectedYield(appellation.code, DEFAULT_YIELD, YieldProvenance.DEFAULT_40)


def type_level_histories(
    appellations: Iterable[AppellationRecord], harvest_year: int
) -> dict[Category, list[float]]:
    """Surface-weighted yearly yields per category, kept only for categories
    covering the full five-year window. Both sums are exact, so the order of
    the appellations never changes a bit."""
    terms = [
        ((app.category, year), app.marginal_surface * value, app.marginal_surface)
        for app in appellations
        if app.marginal_surface > 0
        for year, value in app.yield_history.items()
        if value > 0
    ]
    sums = exact_sums((key, weighted) for key, weighted, _ in terms)
    weights = exact_sums((key, w) for key, _, w in terms)
    years = range(harvest_year - WINDOW_YEARS, harvest_year)
    return {
        category: [sums[(category, year)] / weights[(category, year)] for year in years]
        for category in dict.fromkeys(category for category, _ in sums)
        if all((category, year) in sums for year in years)
    }


def expected_yield_table(
    appellations: Iterable[AppellationRecord], harvest_year: int
) -> dict[str, ExpectedYield]:
    apps = list(appellations)
    type_level = type_level_histories(apps, harvest_year)
    return {app.code: expected_yield(app, type_level, harvest_year) for app in apps}


YIELDS_HEADER = ("code", "expected_yield_hl_ha", "provenance")


def write_expected_yields(table: Mapping[str, ExpectedYield], path: str | Path) -> None:
    write_rows(
        path, YIELDS_HEADER,
        ([code, repr(ey.value), ey.provenance.value] for code, ey in sorted(table.items())),
    )


def read_expected_yields(path: str | Path) -> dict[str, ExpectedYield]:
    def row(code: str, value: str, provenance: str) -> tuple[str, ExpectedYield]:
        return code, ExpectedYield(code, finite_float(value), YieldProvenance(provenance))

    return dict(read_rows(path, YIELDS_HEADER, row))
