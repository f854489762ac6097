"""Domain records shared across the pipeline stages.

The pipeline joins four open data sets: customs vineyard-register totals by
appellation and by county, the list of counties where each appellation is
authorized, and the crop-insurance price scale. Everything downstream (the
surface allocator, yield estimation, valuation) works on the types below.
The stages hand them to each other as artifact tables in one CSV dialect,
written and read by :func:`write_rows` and :func:`read_rows` only.
"""
from __future__ import annotations

import csv
import enum
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

#: An (appellation code, INSEE county code) pair. Allocation readers take a
#: ``Mapping[Cell, float]`` of hectares: a solution read back from CSV, or the
#: ``cells`` of an ``allocator.AllocationMatrix`` (solver output, synthetic truth).
Cell = tuple[str, str]


class Category(str, enum.Enum):
    """Wine product category; drives the allocation priority weight."""

    AOP = "AOP"
    AOP_BRANDY = "AOP_BRANDY"
    PGI = "PGI"
    NON_PGI = "NON_PGI"
    PSEUDO_NON_PGI = "PSEUDO_NON_PGI"


class WineColor(str, enum.Enum):
    WHITE = "WHITE"
    RED = "RED"
    ROSE = "ROSE"
    MIXED = "MIXED"
    UNKNOWN = "UNKNOWN"


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

_INSEE_RE = re.compile(r"^[0-9][0-9AB][0-9]{3}$")
_LAST_LETTER_RE = re.compile(r"^(.*[A-Za-z])")


def department_of_insee(insee_code: str) -> str:
    """Department prefix of a 5-char county code (3 chars for overseas 97x)."""
    return insee_code[:3] if insee_code.startswith("97") else insee_code[:2]


def is_valid_insee(insee_code: str) -> bool:
    return bool(_INSEE_RE.match(insee_code))


@dataclass(frozen=True)
class CviCode:
    """A vineyard-register product code split into its appellation-level
    prefix and the trailing numeric product suffix."""

    raw: str
    prefix: str
    product_suffix: str | None = None

    def __post_init__(self) -> None:
        if not self.prefix:
            raise ValueError(f"empty prefix for CVI code {self.raw!r}")
        if not self.raw.startswith(self.prefix):
            raise ValueError(
                f"prefix {self.prefix!r} is not a leading substring of {self.raw!r}"
            )

    @classmethod
    def from_raw(cls, raw: str, truncation: int | None = None) -> "CviCode":
        """Split ``raw`` deterministically.

        With ``truncation=None`` the prefix is the longest leading substring
        ending in a letter (the trailing numeric product code is dropped);
        codes without any letter are kept whole. An integer ``truncation``
        forces a fixed prefix length instead.
        """
        raw = raw.strip()
        if not raw:
            raise ValueError("empty CVI code")
        if truncation is not None:
            if truncation < 1:
                raise ValueError("truncation length must be >= 1")
            prefix = raw[: min(truncation, len(raw))]
        else:
            m = _LAST_LETTER_RE.match(raw)
            prefix = m.group(1) if m else raw
        suffix = raw[len(prefix):] or None
        return cls(raw=raw, prefix=prefix, product_suffix=suffix)


@dataclass(frozen=True)
class AppellationRecord:
    """One wine product/appellation with its published marginal surface and
    yearly yield history (hl/ha, positive values only)."""

    code: str
    name: str = ""
    category: Category = Category.AOP
    color: WineColor = WineColor.UNKNOWN
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
    department: str = ""
    agricultural_region_id: str = ""
    marginal_surface: float = 0.0

    def __post_init__(self) -> None:
        if len(self.insee_code) != 5:
            raise ValueError(f"insee code {self.insee_code!r} is not 5 characters")
        dept = self.department or department_of_insee(self.insee_code)
        if not self.insee_code.startswith(dept):
            raise ValueError(
                f"department {dept!r} is not a prefix of {self.insee_code!r}"
            )
        if not self.department:
            object.__setattr__(self, "department", dept)
        if self.marginal_surface < 0:
            raise ValueError(f"{self.insee_code}: negative marginal surface")


@dataclass
class AuthorizationMask:
    """Sparse set of permitted (appellation_code, insee_code) cells plus the
    per-appellation objective weight. Cells outside the mask are forced to
    zero surface by the allocator."""

    cells: set[tuple[str, str]] = field(default_factory=set)
    weight: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.cells)

    def copy(self) -> "AuthorizationMask":
        return AuthorizationMask(cells=set(self.cells), weight=dict(self.weight))


@dataclass(frozen=True)
class PriceEntry:
    """One row of the insurance price scale.

    The production mode comes from a trailing "C" (conventional) or "B"
    (organic) marker on the label; conventional is the default.
    """

    label: str
    normalized_label: str
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


def read_rows(path: str | Path) -> Iterator[list[str]]:
    """The data rows of an artifact table written by :func:`write_rows`,
    one at a time, header skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=";")
        next(reader, None)
        yield from reader
