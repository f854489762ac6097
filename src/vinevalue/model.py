"""Domain records shared across the pipeline stages.

The pipeline joins four open data sets: customs vineyard-register totals by
appellation and by county, the list of counties where each appellation is
authorized, and the crop-insurance price scale. Everything downstream (the
surface allocator, yield estimation, valuation) works on the types below.
The stages hand them to each other as artifact tables in one CSV dialect,
written and read by :func:`write_rows` and :func:`read_rows` only, with
every number read by :func:`finite_float`. Every per-key total (caps,
marginals, aggregates, summaries) is taken by :func:`exact_sums`, and every
report folds categories with :func:`reporting_category`.
"""
from __future__ import annotations

import csv
import enum
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

#: An (appellation code, INSEE county code) pair. Allocation readers take a
#: ``Mapping[Cell, float]`` of hectares: a solution read back from CSV, or the
#: ``cells`` of an ``allocator.AllocationMatrix`` (the synthetic truth, or solver
#: output, equal to its CSV). ``allocator.objective`` computes its weighted objective.
Cell = tuple[str, str]


class PipelineError(Exception):
    """A stage cannot use its inputs; ``cli.main`` reports it in one line naming the stage."""


class InputError(PipelineError, ValueError):
    """Inputs a computation cannot use: too few points to rank, an empty portfolio."""


class ConfigError(PipelineError):
    """Fatal configuration problem (missing configured column, bad mapping)."""


class IntegrityError(PipelineError):
    """Fatal referential-integrity violation in the parsed data."""


class Category(str, enum.Enum):
    """Wine product category; drives the allocation priority weight."""

    AOP = "AOP"
    AOP_BRANDY = "AOP_BRANDY"
    PGI = "PGI"
    NON_PGI = "NON_PGI"
    PSEUDO_NON_PGI = "PSEUDO_NON_PGI"


class ProductionMode(str, enum.Enum):
    CONVENTIONAL = "CONVENTIONAL"
    ORGANIC = "ORGANIC"


#: Default allocation priority per category. AOP brandy is an AOP product and
#: shares the AOP weight; override via configuration when needed.
DEFAULT_WEIGHTS: Mapping[Category, float] = {
    Category.AOP: 1.0,
    Category.AOP_BRANDY: 1.0,
    Category.PGI: 1.0 / 3.0,
    Category.NON_PGI: 0.25,
    Category.PSEUDO_NON_PGI: 0.25,
}


def reporting_category(category: Category | None) -> Category:
    """The category a code reports under: pseudo non-PGI appellations and
    codes of unknown category count as non-PGI."""
    if category is None or category is Category.PSEUDO_NON_PGI:
        return Category.NON_PGI
    return category


def exact_sums(pairs: Iterable[tuple[Hashable, float]]) -> dict[Hashable, float]:
    """Total of the values per key, keys in first-seen order. Each total is
    ``math.fsum`` of its values, exactly rounded, so the order of the pairs
    never changes a bit."""
    groups: dict[Hashable, list[float]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: math.fsum(values) for key, values in groups.items()}


_INSEE_RE = re.compile(r"^[0-9][0-9AB][0-9]{3}$")
_LAST_LETTER_RE = re.compile(r"^(.*[A-Za-z])")


def department_of_insee(insee_code: str) -> str:
    """Department prefix of a 5-char county code (3 chars for overseas 97x)."""
    return insee_code[:3] if insee_code.startswith("97") else insee_code[:2]


def is_valid_insee(insee_code: str) -> bool:
    return bool(_INSEE_RE.match(insee_code))


def cvi_prefix(raw: str, truncation: int | None = None) -> str:
    """The appellation-level prefix of a vineyard-register product code.

    With ``truncation=None`` the prefix is the longest leading substring
    ending in a letter (the trailing numeric product code is dropped);
    codes without any letter are kept whole. An integer ``truncation``
    forces a fixed prefix length instead.
    """
    raw = raw.strip()
    if not raw:
        raise ValueError("empty CVI code")
    if truncation is None:
        m = _LAST_LETTER_RE.match(raw)
        return m.group(1) if m else raw
    if truncation < 1:
        raise ValueError("truncation length must be >= 1")
    return raw[:truncation]


@dataclass(frozen=True)
class AppellationRecord:
    """One wine product/appellation with its published marginal surface and
    yearly yield history (hl/ha, positive values only)."""

    code: str
    name: str = ""
    category: Category = Category.AOP
    marginal_surface: float = 0.0
    yield_history: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.marginal_surface < 0:
            raise ValueError(f"{self.code}: negative marginal surface")
        for year, value in self.yield_history.items():
            if value <= 0:
                raise ValueError(f"{self.code}: non-positive yield for {year}")


@dataclass(frozen=True)
class CountyRecord:
    """One administrative county with its published marginal surface."""

    insee_code: str
    agricultural_region_id: str = ""
    marginal_surface: float = 0.0

    def __post_init__(self) -> None:
        if len(self.insee_code) != 5:
            raise ValueError(f"insee code {self.insee_code!r} is not 5 characters")
        if self.marginal_surface < 0:
            raise ValueError(f"{self.insee_code}: negative marginal surface")

    @property
    def department(self) -> str:
        return department_of_insee(self.insee_code)


@dataclass(frozen=True)
class PriceEntry:
    """One row of the insurance price scale.

    The production mode comes from a trailing "C" (conventional) or "B"
    (organic) marker on the label; conventional is the default.
    """

    label: str
    price: float
    production_mode: ProductionMode = ProductionMode.CONVENTIONAL
    region_hint: str | None = None

    def __post_init__(self) -> None:
        if self.price <= 0:
            raise ValueError(f"{self.label!r}: price must be positive")


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write an artifact table: UTF-8, ``;``-separated, one header row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";")
        writer.writerow(header)
        writer.writerows(rows)


def finite_float(text: str) -> float:
    """``float(text)``, raising ValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


class LayoutError(PipelineError):
    """An artifact table is not as its reader expects: another header row, a
    row with another number of fields, or a field that does not parse."""


Row = TypeVar("Row")


def read_rows(path: str | Path, header: Sequence[str],
              parse: Callable[..., Row]) -> Iterator[Row]:
    """The data rows of an artifact table written by :func:`write_rows` with
    ``header``, one at a time, each as ``parse(*fields)``. Raises
    :class:`LayoutError` naming the file when its header row differs, and
    naming the file and line when a row has another number of fields or
    ``parse`` raises ``ValueError`` on it."""
    name = Path(path).name
    rerun = "re-run the stage that writes it"
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=";")
        found, expected = ";".join(next(reader, [])), ";".join(header)
        if found != expected:
            raise LayoutError(f"{name} has columns {found!r}, not {expected!r}; {rerun}")
        for fields in reader:
            if len(fields) != len(header):
                raise LayoutError(f"{name} line {reader.line_num} has {len(fields)} fields, "
                                  f"not {len(header)}; {rerun}")
            try:
                row = parse(*fields)
            except ValueError as exc:
                raise LayoutError(f"{name} line {reader.line_num}: {exc}; {rerun}") from None
            yield row
