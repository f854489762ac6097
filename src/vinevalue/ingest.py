"""Parsers for the four open data inputs and canonical serialization of the
domain records.

All parsers are pure: they take a file path (UTF-8 with a Latin-1 fallback)
or an open text stream, and return records plus an :class:`IngestReport`
carrying row-level errors and counts. Secretized cells (blank or sentinel
surface values) are treated as absent, never as zero, and counted.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .model import (
    AppellationRecord,
    Category,
    Cell,
    ConfigError,
    CountyRecord,
    IntegrityError,
    PriceEntry,
    ProductionMode,
    cvi_prefix,
    finite_float,
    is_valid_insee,
    read_rows,
    write_rows,
)

logger = logging.getLogger(__name__)

#: Surface cell values treated as secretized (absent, not zero).
SECRET_VALUES = ("", "s", "S", "n/a", "N/A")

_CATEGORY_ALIASES = {
    "AOP": Category.AOP,
    "AOC": Category.AOP,
    "AOP_BRANDY": Category.AOP_BRANDY,
    "BRANDY": Category.AOP_BRANDY,
    "EAU_DE_VIE": Category.AOP_BRANDY,
    "PGI": Category.PGI,
    "IGP": Category.PGI,
    "NON_PGI": Category.NON_PGI,
    "SIG": Category.NON_PGI,
    "VSIG": Category.NON_PGI,
    "PSEUDO_NON_PGI": Category.PSEUDO_NON_PGI,
}


@dataclass
class IngestReport:
    """Counts and row-level errors for one parsed dataset."""

    dataset: str
    rows_read: int = 0
    records_out: int = 0
    secretized: int = 0
    unmatched: int = 0
    row_errors: list[tuple[int, str]] = field(default_factory=list)
    notes: dict[str, int] = field(default_factory=dict)

    def add_error(self, line: int, message: str) -> None:
        self.row_errors.append((line, message))

    def to_json(self) -> str:
        payload = {
            "dataset": self.dataset,
            "rows_read": self.rows_read,
            "records_out": self.records_out,
            "secretized": self.secretized,
            "unmatched": self.unmatched,
            "row_error_count": len(self.row_errors),
            "row_errors": [
                {"line": line, "message": message} for line, message in self.row_errors[:50]
            ],
            "notes": dict(sorted(self.notes.items())),
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False)


def write_reports_jsonl(reports: Iterable[IngestReport], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for report in reports:
            fh.write(report.to_json())
            fh.write("\n")


def open_source(source) -> IO[str]:
    """Path-like sources are decoded as UTF-8 with a Latin-1 fallback (the
    upstream files mix encodings for French accents)."""
    if isinstance(source, (str, Path)):
        raw = Path(source).read_bytes()
        try:
            return io.StringIO(raw.decode("utf-8"))
        except UnicodeDecodeError:
            return io.StringIO(raw.decode("latin-1"))
    return source


def _read_fields(source, delimiter: str,
                 dataset: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Header list, read now, plus the (line_number, fields) pairs, read as
    they are taken, fields stripped and blank rows skipped; the header is
    mandatory."""
    reader = csv.reader(open_source(source), delimiter=delimiter)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ConfigError(f"{dataset}: input has no header row") from None

    def rows() -> Iterator[tuple[int, list[str]]]:
        for fields in reader:
            stripped = [f.strip() for f in fields]
            if any(stripped):
                yield reader.line_num, stripped

    return header, rows()


def _read_table(source, delimiter: str, report: IngestReport,
                columns: Iterable[str | None]) -> Iterator[tuple[int, dict[str, str]]]:
    """(line, row keyed by the header) pairs of a headed input table, after
    :func:`_read_fields`, read as they are taken. Every configured column
    must be in the header (``None`` is a column that is not configured),
    which is checked before the first row; ``report.rows_read`` is set when
    the rows run out."""
    header, rows = _read_fields(source, delimiter, report.dataset)
    missing = [c for c in columns if c is not None and c not in header]
    if missing:
        raise ConfigError(f"{report.dataset}: missing column(s) {missing} in header {header}")
    count = 0
    for count, (line, fields) in enumerate(rows, 1):
        yield line, dict(zip(header, fields))
    report.rows_read = count


def _parse_float(text: str) -> float:
    """A number cell, spaces ignored. Raises ValueError unless it is finite."""
    return finite_float(text.replace(" ", "").replace(" ", ""))


def _surface(text: str) -> float:
    """A published surface cell in hectares. Raises ValueError naming a
    malformed or negative cell."""
    try:
        surface = _parse_float(text)
    except ValueError:
        raise ValueError(f"malformed surface {text!r}") from None
    if surface < 0:
        raise ValueError(f"negative surface {text!r}")
    return surface


def parse_customs_by_appellation(
    source,
    *,
    code_col: str = "cvi",
    surface_col: str = "surface_ha",
    name_col: str | None = None,
    category_col: str | None = None,
    yield_cols: Mapping[int, str] | None = None,
    volume_cols: Mapping[int, str] | None = None,
    default_category: Category = Category.AOP,
    truncation: int | None = None,
    delimiter: str = ";",
) -> tuple[list[AppellationRecord], IngestReport]:
    """Parse the customs per-appellation statistics.

    Product rows sharing a CVI prefix are merged into one appellation record:
    surfaces are summed and yearly yields are volume-weight-averaged (plain
    average when no volume column carries data). Secretized surface cells are
    skipped and counted. Zero yields encode non-production and are stored as
    missing. When a prefix's rows name different categories, the first in
    :class:`Category` declaration order wins, whatever the row order, and
    the prefix is counted in ``notes["category_conflicts"]``.
    """
    report = IngestReport(dataset="customs_by_appellation")
    yield_cols = dict(yield_cols or {})
    volume_cols = dict(volume_cols or {})
    rows = _read_table(source, delimiter, report, [
        code_col, surface_col, name_col, category_col, *yield_cols.values(), *volume_cols.values()
    ])

    groups: dict[str, dict] = {}
    for line, row in rows:
        surface_text = row.get(surface_col, "")
        try:
            prefix = cvi_prefix(row.get(code_col, ""), truncation=truncation)
            surface = None if surface_text in SECRET_VALUES else _surface(surface_text)
        except ValueError as exc:
            report.add_error(line, str(exc))
            continue
        if surface is None:
            report.secretized += 1

        group = groups.setdefault(
            prefix,
            {"surfaces": [], "name": "", "categories": set(), "yields": {}},
        )
        if surface is not None:
            group["surfaces"].append(surface)
        if name_col and not group["name"]:
            group["name"] = row.get(name_col, "")
        if category_col:
            alias = row.get(category_col, "").upper()
            if alias in _CATEGORY_ALIASES:
                group["categories"].add(_CATEGORY_ALIASES[alias])
            elif alias:
                report.notes["unknown_category"] = report.notes.get("unknown_category", 0) + 1
        for year, col in yield_cols.items():
            text = row.get(col, "")
            if text in SECRET_VALUES:
                continue
            try:
                value = _parse_float(text)
            except ValueError:
                report.add_error(line, f"malformed yield {text!r} in column {col}")
                continue
            if value <= 0:
                continue
            weight = 1.0
            vol_col = volume_cols.get(year)
            if vol_col:
                vol_text = row.get(vol_col, "")
                if vol_text not in SECRET_VALUES:
                    try:
                        weight = max(_parse_float(vol_text), 0.0)
                    except ValueError:
                        report.add_error(line, f"malformed volume {vol_text!r} in column {vol_col}")
                        continue
            group["yields"].setdefault(year, []).append((value, weight))

    records = []
    for prefix in sorted(groups):
        group = groups[prefix]
        history = {}
        for year, pairs in group["yields"].items():
            weighted = [(v, w) for v, w in pairs if w > 0]
            if weighted:
                history[year] = math.fsum(v * w for v, w in weighted) / math.fsum(
                    w for _, w in weighted
                )
            else:
                history[year] = math.fsum(v for v, _ in pairs) / len(pairs)
        if len(group["categories"]) > 1:
            report.notes["category_conflicts"] = report.notes.get("category_conflicts", 0) + 1
        records.append(
            AppellationRecord(
                code=prefix,
                name=group["name"],
                category=min(group["categories"], key=list(Category).index,
                             default=default_category),
                marginal_surface=math.fsum(group["surfaces"]),
                yield_history=history,
            )
        )
    report.records_out = len(records)
    return records, report


def parse_customs_by_county(
    source,
    *,
    insee_col: str = "insee",
    surface_col: str = "surface_ha",
    ra_col: str | None = None,
    delimiter: str = ";",
) -> tuple[list[CountyRecord], IngestReport]:
    """Parse the customs per-county statistics. Codes are read as text so
    leading zeros survive; a duplicated county is a fatal error, whichever
    of its rows are secretized or malformed."""
    report = IngestReport(dataset="customs_by_county")
    rows = _read_table(source, delimiter, report, [insee_col, surface_col, ra_col])

    records: dict[str, CountyRecord] = {}
    seen: set[str] = set()
    for line, row in rows:
        insee = row.get(insee_col, "")
        if not is_valid_insee(insee):
            report.add_error(line, f"invalid insee code {insee!r}")
            continue
        if insee in seen:
            raise IntegrityError(f"duplicate insee code {insee!r} at line {line}")
        seen.add(insee)
        surface_text = row.get(surface_col, "")
        if surface_text in SECRET_VALUES:
            report.secretized += 1
            continue
        try:
            surface = _surface(surface_text)
        except ValueError as exc:
            report.add_error(line, str(exc))
            continue
        records[insee] = CountyRecord(
            insee_code=insee,
            agricultural_region_id=row.get(ra_col, "") if ra_col else "",
            marginal_surface=surface,
        )
    out = [records[k] for k in sorted(records)]
    report.records_out = len(out)
    return out, report


def parse_inao_authorizations(
    source,
    appellations: Sequence[AppellationRecord],
    counties: Sequence[CountyRecord],
    *,
    appellation_col: str = "appellation",
    insee_col: str = "insee",
    delimiter: str = ";",
) -> tuple[set[Cell], IngestReport]:
    """Parse the authorization list into a sparse mask: the set of
    permitted (appellation code, insee code) cells.

    Rows referencing unknown appellations or counties are excluded and
    counted, never silently dropped; a repeated row adds no cell and is
    counted in ``notes["duplicate_rows"]``. A cell holds the records' own
    code strings, so the cells of a code or county share one string.
    """
    report = IngestReport(dataset="inao_authorizations")
    known_codes = {app.code: app.code for app in appellations}
    known_counties = {c.insee_code: c.insee_code for c in counties}
    rows = _read_table(source, delimiter, report, [appellation_col, insee_col])

    mask: set[Cell] = set()
    for _, row in rows:
        code = known_codes.get(row.get(appellation_col, ""))
        insee = known_counties.get(row.get(insee_col, ""))
        if code is None:
            report.unmatched += 1
            report.notes["unmatched_appellation"] = report.notes.get("unmatched_appellation", 0) + 1
            continue
        if insee is None:
            report.unmatched += 1
            report.notes["unmatched_county"] = report.notes.get("unmatched_county", 0) + 1
            continue
        if (code, insee) in mask:
            report.notes["duplicate_rows"] = report.notes.get("duplicate_rows", 0) + 1
        mask.add((code, insee))
    report.records_out = len(mask)
    return mask, report


def inject_pseudo_appellations(
    appellations: Sequence[AppellationRecord],
    counties: Sequence[CountyRecord],
    mask: set[Cell],
    non_pgi_surface_by_department: Mapping[str, float],
) -> tuple[list[AppellationRecord], set[Cell]]:
    """Add one non-PGI pseudo-appellation per department.

    Non-PGI wine is absent from the per-appellation statistics, so each
    department with positive non-PGI surface gets a synthetic appellation,
    coded ``NONPGI<department>``, authorized in exactly its counties. Inputs
    are never modified; new lists are returned. Departments without counties
    are skipped with a warning.
    """
    counties_by_department: dict[str, list[str]] = {}
    for county in counties:
        counties_by_department.setdefault(county.department, []).append(county.insee_code)

    new_apps = list(appellations)
    new_mask = set(mask)
    existing = {app.code for app in appellations}
    for department in sorted(non_pgi_surface_by_department):
        surface = non_pgi_surface_by_department[department]
        if surface <= 0:
            continue
        members = counties_by_department.get(department)
        if not members:
            logger.warning(
                "department %s has %.3f ha of non-PGI surface but no counties; skipped",
                department, surface,
            )
            continue
        code = f"NONPGI{department}"
        if code in existing:
            raise IntegrityError(f"pseudo-appellation code {code} collides with an existing record")
        new_apps.append(
            AppellationRecord(
                code=code,
                name=f"Non-PGI pseudo-appellation {department}",
                category=Category.PSEUDO_NON_PGI,
                marginal_surface=surface,
            )
        )
        new_mask.update((code, insee) for insee in members)
    return new_apps, new_mask


def parse_price_scale(
    source,
    *,
    label_col: str = "label",
    price_col: str = "price_eur_hl",
    region_col: str | None = None,
    delimiter: str = ";",
) -> tuple[list[PriceEntry], IngestReport]:
    """Parse the insurance price scale.

    A trailing "C" or "B" token on the label selects the production mode
    (conventional when absent) and is stripped from the label.
    """
    report = IngestReport(dataset="price_scale")
    rows = _read_table(source, delimiter, report, [label_col, price_col, region_col])

    entries = []
    for line, row in rows:
        label = row.get(label_col, "")
        *words, marker = label.split() or [""]
        mode = ProductionMode.ORGANIC if marker == "B" else ProductionMode.CONVENTIONAL
        name = " ".join(words) if marker in ("C", "B") else label
        if not name:
            report.add_error(line, "empty label")
            continue
        price_text = row.get(price_col, "")
        try:
            price = _parse_float(price_text)
        except ValueError:
            report.add_error(line, f"malformed price {price_text!r}")
            continue
        if price <= 0:
            report.add_error(line, f"non-positive price {price!r}")
            continue
        entries.append(
            PriceEntry(
                label=name,
                price=price,
                production_mode=mode,
                region_hint=(row.get(region_col) or None) if region_col else None,
            )
        )
    report.records_out = len(entries)
    return entries, report


def _positional_rows(source, delimiter: str, dataset: str, columns: Sequence[str],
                     key: int = 0) -> Iterator[tuple[int, list[str]]]:
    """(line, fields) of a headed table read by position; ``columns`` names
    the leading fields every row must have. Later fields are optional. The
    first ``key`` fields form a key that no two rows may share."""
    header, rows = _read_fields(source, delimiter, dataset)
    if len(header) < len(columns):
        raise ConfigError(f"{dataset}: need {', '.join(columns)} columns")
    seen: set[tuple[str, ...]] = set()
    for line, fields in rows:
        if len(fields) < len(columns):
            raise ConfigError(f"{dataset}: malformed row at line {line}")
        if key and tuple(fields[:key]) in seen:
            raise ConfigError(f"{dataset}: repeated key {';'.join(fields[:key])!r} at line {line}")
        seen.add(tuple(fields[:key]))
        yield line, fields


def _table_surface(text: str, dataset: str, line: int) -> float:
    """:func:`_surface` for the headed side tables, where a bad cell is fatal."""
    try:
        return _surface(text)
    except ValueError as exc:
        raise ConfigError(f"{dataset}: {exc} at line {line}") from None


def parse_department_surfaces(source, *, delimiter: str = ";") -> dict[str, float]:
    """Two-column file: department; non-PGI surface in hectares."""
    dataset = "department_surfaces"
    return {
        fields[0]: _table_surface(fields[1], dataset, line)
        for line, fields in _positional_rows(source, delimiter, dataset,
                                             ("department", "surface"), key=1)
    }


def parse_cell_surfaces(source, *, delimiter: str = ";") -> list[tuple[str, str, float, str]]:
    """Supplemental known cells (appellation; insee; surface_ha[; name]), used
    for vineyard area absent from the customs statistics."""
    dataset = "cell_surfaces"
    return [
        (fields[0], fields[1], _table_surface(fields[2], dataset, line),
         fields[3] if len(fields) > 3 else "")
        for line, fields in _positional_rows(source, delimiter, dataset,
                                             ("appellation", "insee", "surface"))
    ]


def parse_key_value_map(source, *, delimiter: str = ";",
                        dataset: str = "key_value_map") -> dict[str, str]:
    """Generic two-column mapping file (county to agricultural region,
    appellation to region, ...); errors name ``dataset``."""
    return {
        fields[0]: fields[1]
        for _, fields in _positional_rows(source, delimiter, dataset, ("key", "value"), key=1)
    }


def parse_reference_aggregates(source, *, delimiter: str = ";") -> dict[tuple[str, str], float]:
    """Reference surfaces: department; wine_type; surface_ha."""
    dataset = "reference_aggregates"
    return {
        (fields[0], fields[1]): _table_surface(fields[2], dataset, line)
        for line, fields in _positional_rows(source, delimiter, dataset,
                                             ("department", "wine type", "surface"), key=2)
    }


# Canonical round-trip serialization. Floats are written with repr so a
# write/read cycle reproduces records bit for bit. Each table's header row is
# declared once, for its writer and its reader.

APPELLATIONS_HEADER = ("code", "name", "category", "surface_ha", "yield_history")
COUNTIES_HEADER = ("insee", "department", "agricultural_region", "surface_ha")
MASK_HEADER = ("appellation", "insee")
PRICES_HEADER = ("label", "price_eur_hl", "production_mode", "region")


def write_appellations(records: Iterable[AppellationRecord], path: str | Path) -> None:
    def row(rec: AppellationRecord) -> list[str]:
        history = {str(year): repr(value) for year, value in sorted(rec.yield_history.items())}
        return [rec.code, rec.name, rec.category.value,
                repr(rec.marginal_surface), json.dumps(history, sort_keys=True)]

    write_rows(path, APPELLATIONS_HEADER, map(row, sorted(records, key=lambda r: r.code)))


def read_appellations(path: str | Path) -> list[AppellationRecord]:
    def row(code: str, name: str, category: str, surface: str, history: str) -> AppellationRecord:
        years = json.loads(history)
        if not isinstance(years, dict) or not all(isinstance(v, str) for v in years.values()):
            raise ValueError(f"yield history {history!r} is not an object of numbers")
        return AppellationRecord(
            code=code, name=name, category=Category(category),
            marginal_surface=finite_float(surface),
            yield_history={int(y): finite_float(v) for y, v in years.items()},
        )

    return list(read_rows(path, APPELLATIONS_HEADER, row, key=1))


def write_counties(records: Iterable[CountyRecord], path: str | Path) -> None:
    write_rows(
        path, COUNTIES_HEADER,
        ([rec.insee_code, rec.department, rec.agricultural_region_id, repr(rec.marginal_surface)]
         for rec in sorted(records, key=lambda r: r.insee_code)),
    )


def read_counties(path: str | Path) -> list[CountyRecord]:
    def row(insee: str, department: str, region: str, surface: str) -> CountyRecord:
        return CountyRecord(insee_code=insee, agricultural_region_id=region,
                            marginal_surface=finite_float(surface))

    return list(read_rows(path, COUNTIES_HEADER, row, key=1))


def write_mask(mask: Iterable[Cell], path: str | Path) -> None:
    write_rows(path, MASK_HEADER, sorted(mask))


def read_mask(path: str | Path) -> set[Cell]:
    return set(read_rows(path, MASK_HEADER, lambda *cell: cell))


def write_prices(entries: Iterable[PriceEntry], path: str | Path) -> None:
    write_rows(
        path, PRICES_HEADER,
        ([e.label, repr(e.price), e.production_mode.value, e.region_hint or ""]
         for e in sorted(entries, key=lambda e: (e.label, e.production_mode.value))),
    )


def read_prices(path: str | Path) -> list[PriceEntry]:
    def row(label: str, price: str, mode: str, region: str) -> PriceEntry:
        return PriceEntry(label=label, price=finite_float(price),
                          production_mode=ProductionMode(mode), region_hint=region or None)

    return list(read_rows(path, PRICES_HEADER, row))
