"""Declarative pipeline configuration.

One INI-style file with a section per stage; command-line flags override
individual keys. Paths are resolved relative to the configuration file and
checked eagerly so a bad path fails before any stage runs.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .ingest import ConfigError
from .model import Category, DEFAULT_WEIGHTS


@dataclass
class ColumnSettings:
    """Column-name mappings for the four input files."""

    appellation_code: str = "cvi"
    appellation_surface: str = "surface_ha"
    appellation_name: str | None = None
    appellation_color: str | None = None
    appellation_category: str | None = None
    yield_cols: dict[int, str] = field(default_factory=dict)
    volume_cols: dict[int, str] = field(default_factory=dict)
    county_insee: str = "insee"
    county_surface: str = "surface_ha"
    county_ra: str | None = None
    mask_appellation: str = "appellation"
    mask_insee: str = "insee"
    mask_weight: str | None = None
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
    threshold: float | None = None
    harvest_year: int = 2023
    k_starts: int = 20
    seed: int = 20230601
    feasibility_tol: float = 1e-6
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
        for name in ("feasibility_tol", "threshold_fraction"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")


def _get(parser: configparser.ConfigParser, section: str, key: str, fallback=None):
    try:
        value = parser.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        return fallback
    value = value.strip()
    return value if value else fallback


def _get_path(parser, section, key, base: Path) -> Path | None:
    value = _get(parser, section, key)
    if value is None:
        return None
    path = Path(value)
    return path if path.is_absolute() else base / path


def load_config(path: str | Path, overrides: Mapping[str, str] | None = None) -> PipelineConfig:
    """Parse a pipeline configuration file.

    ``overrides`` maps flat keys (``solver.seed``, ``solver.k_starts``,
    ``output.directory``) to replacement values, mirroring CLI flags.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if overrides:
        for flat_key, value in overrides.items():
            if value is None:
                continue
            section, _, key = flat_key.partition(".")
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, str(value))
    base = path.parent

    cfg = PipelineConfig()
    for name in INPUT_NAMES:
        setattr(cfg, name, _get_path(parser, "inputs", name, base))

    columns = cfg.columns
    columns.appellation_code = _get(parser, "columns.appellations", "code", columns.appellation_code)
    columns.appellation_surface = _get(parser, "columns.appellations", "surface", columns.appellation_surface)
    columns.appellation_name = _get(parser, "columns.appellations", "name")
    columns.appellation_color = _get(parser, "columns.appellations", "color")
    columns.appellation_category = _get(parser, "columns.appellations", "category")
    if parser.has_section("columns.appellations"):
        for key, value in parser.items("columns.appellations"):
            if key.startswith("yield."):
                columns.yield_cols[int(key.split(".", 1)[1])] = value.strip()
            elif key.startswith("volume."):
                columns.volume_cols[int(key.split(".", 1)[1])] = value.strip()
    columns.county_insee = _get(parser, "columns.counties", "insee", columns.county_insee)
    columns.county_surface = _get(parser, "columns.counties", "surface", columns.county_surface)
    columns.county_ra = _get(parser, "columns.counties", "ra")
    columns.mask_appellation = _get(parser, "columns.mask", "appellation", columns.mask_appellation)
    columns.mask_insee = _get(parser, "columns.mask", "insee", columns.mask_insee)
    columns.mask_weight = _get(parser, "columns.mask", "weight")
    columns.price_label = _get(parser, "columns.prices", "label", columns.price_label)
    columns.price_value = _get(parser, "columns.prices", "price", columns.price_value)
    columns.price_region = _get(parser, "columns.prices", "region")

    cfg.delimiter = _get(parser, "ingest", "delimiter", cfg.delimiter)
    truncation = _get(parser, "ingest", "truncation")
    if truncation is not None and truncation != "letter":
        try:
            cfg.truncation = int(truncation)
        except ValueError:
            raise ConfigError(f"ingest.truncation must be 'letter' or an integer, got {truncation!r}")
    category = _get(parser, "ingest", "default_category")
    if category is not None:
        try:
            cfg.default_category = Category(category.upper())
        except ValueError:
            raise ConfigError(f"unknown default_category {category!r}")

    for category_enum in Category:
        value = _get(parser, "weights", category_enum.value.lower())
        if value is not None:
            cfg.weights[category_enum] = float(value)

    value = _get(parser, "linkage", "threshold_fraction")
    if value is not None:
        cfg.threshold_fraction = float(value)
    value = _get(parser, "linkage", "threshold")
    if value is not None:
        cfg.threshold = float(value)

    value = _get(parser, "yields", "harvest_year")
    if value is not None:
        cfg.harvest_year = int(value)

    for name, caster in (
        ("k_starts", int), ("seed", int), ("feasibility_tol", float),
        ("restrict_min_hectares", float),
    ):
        value = _get(parser, "solver", name)
        if value is not None:
            setattr(cfg, name, caster(value))

    value = _get(parser, "validate", "reference_min_hectares")
    if value is not None:
        cfg.reference_min_hectares = float(value)
    value = _get(parser, "validate", "reference_total_eur")
    if value is not None:
        cfg.reference_total_eur = float(value)

    synth = cfg.synth
    for name, caster in (
        ("appellations", int), ("counties", int), ("density", float),
        ("extra_mask_factor", float), ("counties_per_department", int),
    ):
        value = _get(parser, "synth", name)
        if value is not None:
            setattr(synth, name, caster(value))

    value = _get(parser, "output", "directory")
    if value is not None:
        out = Path(value)
        cfg.output_dir = out if out.is_absolute() else base / out
    return cfg
