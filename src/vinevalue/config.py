"""Declarative pipeline configuration.

One INI-style file with a section per stage; command-line flags override
individual keys. Values are taken literally (no ``%`` interpolation). Paths
are resolved relative to the configuration file and checked eagerly so a bad
path fails before any stage runs.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from .ingest import ConfigError
from .model import Category, DEFAULT_WEIGHTS


@dataclass
class ColumnSettings:
    """Column-name mappings for the four input files."""

    appellation_code: str = "cvi"
    appellation_surface: str = "surface_ha"
    appellation_name: str | None = None
    appellation_category: str | None = None
    yield_cols: dict[int, str] = field(default_factory=dict)
    volume_cols: dict[int, str] = field(default_factory=dict)
    county_insee: str = "insee"
    county_surface: str = "surface_ha"
    county_ra: str | None = None
    mask_appellation: str = "appellation"
    mask_insee: str = "insee"
    price_label: str = "label"
    price_value: str = "price_eur_hl"
    price_region: str | None = None


#: The ``[inputs]`` keys, each an optional path resolved against the
#: configuration file.
INPUT_NAMES = (
    "customs_by_appellation", "customs_by_county", "inao_authorizations",
    "price_scale", "champagne_cells", "non_pgi_by_department", "ra_map",
    "region_map", "reference_aggregates", "acronyms", "stopwords",
)


@dataclass
class SynthSettings:
    appellations: int = 20
    counties: int = 100
    density: float = 0.1
    extra_mask_factor: float = 0.5
    counties_per_department: int = 20


@dataclass
class PipelineConfig:
    # inputs
    customs_by_appellation: Path | None = None
    customs_by_county: Path | None = None
    inao_authorizations: Path | None = None
    price_scale: Path | None = None
    champagne_cells: Path | None = None
    non_pgi_by_department: Path | None = None
    ra_map: Path | None = None
    region_map: Path | None = None
    reference_aggregates: Path | None = None
    acronyms: Path | None = None
    stopwords: Path | None = None
    # behaviour
    columns: ColumnSettings = field(default_factory=ColumnSettings)
    delimiter: str = ";"
    truncation: int | None = None
    default_category: Category = Category.AOP
    weights: dict[Category, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    threshold_fraction: float = 0.10
    harvest_year: int = 2023
    k_starts: int = 20
    seed: int = 20230601
    restrict_min_hectares: float = 100.0
    reference_min_hectares: float = 1000.0
    reference_total_eur: float | None = None
    synth: SynthSettings = field(default_factory=SynthSettings)
    output_dir: Path = Path("out")

    def validate(self, require_inputs: bool = True) -> None:
        if require_inputs:
            required = {
                "customs_by_appellation": self.customs_by_appellation,
                "customs_by_county": self.customs_by_county,
                "inao_authorizations": self.inao_authorizations,
                "price_scale": self.price_scale,
            }
            for name, path in required.items():
                if path is None:
                    raise ConfigError(f"missing required input path: {name}")
        for name in INPUT_NAMES:
            path = getattr(self, name)
            if path is not None and not Path(path).exists():
                raise ConfigError(f"input path for {name} does not exist: {path}")
        if self.k_starts < 1:
            raise ConfigError("k_starts must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"solver.seed must be >= 0, got {self.seed}")
        for key, value in (("linkage.threshold_fraction", self.threshold_fraction),
                           ("validate.reference_total_eur", self.reference_total_eur)):
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value!r}")
        if self.truncation is not None and self.truncation < 1:
            raise ConfigError(f"ingest.truncation must be >= 1, got {self.truncation}")
        for key in ("appellations", "counties", "counties_per_department"):
            if getattr(self.synth, key) < 1:
                raise ConfigError(f"synth.{key} must be >= 1")
        if not 0 < self.synth.density <= 1:
            raise ConfigError("synth.density must be in (0, 1]")
        if not self.synth.extra_mask_factor >= 0:
            raise ConfigError("synth.extra_mask_factor must be >= 0")
        for category, weight in self.weights.items():
            if not 0 < weight <= 1:
                raise ConfigError(
                    f"weights.{category.value.lower()} must be in (0, 1], got {weight!r}"
                )


def _truncation(text: str) -> int | None:
    return None if text == "letter" else int(text)


def _category(text: str) -> Category:
    return Category(text.upper())


#: Every fixed key as (section, key, attribute of PipelineConfig, cast). A
#: dotted attribute names a field of a nested settings object; a ``Path``
#: is resolved against the configuration file.
_KEYS: tuple[tuple[str, str, str, Callable], ...] = (
    *(("inputs", name, name, Path) for name in INPUT_NAMES),
    ("columns.appellations", "code", "columns.appellation_code", str),
    ("columns.appellations", "surface", "columns.appellation_surface", str),
    ("columns.appellations", "name", "columns.appellation_name", str),
    ("columns.appellations", "category", "columns.appellation_category", str),
    ("columns.counties", "insee", "columns.county_insee", str),
    ("columns.counties", "surface", "columns.county_surface", str),
    ("columns.counties", "ra", "columns.county_ra", str),
    ("columns.mask", "appellation", "columns.mask_appellation", str),
    ("columns.mask", "insee", "columns.mask_insee", str),
    ("columns.prices", "label", "columns.price_label", str),
    ("columns.prices", "price", "columns.price_value", str),
    ("columns.prices", "region", "columns.price_region", str),
    ("ingest", "delimiter", "delimiter", str),
    ("ingest", "truncation", "truncation", _truncation),
    ("ingest", "default_category", "default_category", _category),
    ("linkage", "threshold_fraction", "threshold_fraction", float),
    ("yields", "harvest_year", "harvest_year", int),
    ("solver", "k_starts", "k_starts", int),
    ("solver", "seed", "seed", int),
    ("solver", "restrict_min_hectares", "restrict_min_hectares", float),
    ("validate", "reference_min_hectares", "reference_min_hectares", float),
    ("validate", "reference_total_eur", "reference_total_eur", float),
    ("synth", "appellations", "synth.appellations", int),
    ("synth", "counties", "synth.counties", int),
    ("synth", "density", "synth.density", float),
    ("synth", "extra_mask_factor", "synth.extra_mask_factor", float),
    ("synth", "counties_per_department", "synth.counties_per_department", int),
    ("output", "directory", "output_dir", Path),
)


def _cast(cast: Callable, text: str, section: str, key: str):
    try:
        return cast(text)
    except ValueError:
        raise ConfigError(f"{section}.{key}: invalid value {text!r}") from None


def load_config(path: str | Path, overrides: Mapping[str, str] | None = None) -> PipelineConfig:
    """Parse a pipeline configuration file.

    ``overrides`` maps flat keys (``solver.seed``, ``solver.k_starts``,
    ``output.directory``) to replacement values, mirroring CLI flags.
    Unknown keys are ignored; a value that does not parse is a
    :class:`ConfigError` naming its ``section.key``.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    for flat_key, value in (overrides or {}).items():
        if value is None:
            continue
        section, _, key = flat_key.partition(".")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, str(value))

    cfg = PipelineConfig()
    for section, key, attribute, cast in _KEYS:
        text = parser.get(section, key, fallback="").strip()
        if not text:
            continue
        owner, _, name = attribute.rpartition(".")
        value = path.parent / text if cast is Path else _cast(cast, text, section, key)
        setattr(getattr(cfg, owner) if owner else cfg, name, value)

    section = "columns.appellations"
    families = {"yield": cfg.columns.yield_cols, "volume": cfg.columns.volume_cols}
    if parser.has_section(section):
        for key, text in parser.items(section):
            family, dot, year = key.partition(".")
            if dot and family in families and text.strip():
                families[family][_cast(int, year, section, key)] = text.strip()
    for category in Category:
        key = category.value.lower()
        text = parser.get("weights", key, fallback="").strip()
        if text:
            cfg.weights[category] = _cast(float, text, "weights", key)
    return cfg
