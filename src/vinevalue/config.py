"""Declarative pipeline configuration.

One INI-style file with a section per stage; command-line flags override
individual keys. Values are taken literally (no ``%`` interpolation). Paths
are resolved relative to the configuration file and checked eagerly so a bad
path fails before any stage runs.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import Field, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from .model import Category, ConfigError, DEFAULT_WEIGHTS

#: An allowed range as (rule text, test of the cast value).
Rule = tuple[str, Callable[[Any], bool]]

_AT_LEAST_ONE: Rule = (">= 1", lambda value: value >= 1)
_NOT_NEGATIVE: Rule = (">= 0", lambda value: value >= 0)
_FINITE_NOT_NEGATIVE: Rule = ("finite and >= 0", lambda value: 0 <= value < math.inf)
_POSITIVE_FINITE: Rule = ("positive and finite", lambda value: 0 < value < math.inf)
_UNIT_INTERVAL: Rule = ("in (0, 1]", lambda value: 0 < value <= 1)


def _key(section: str, default: Any, cast: Callable = str, key: str | None = None,
         allowed: Rule | None = None):
    """A field set by the fixed key ``[section] key`` (the field's name
    unless ``key`` is given): its text is read with ``cast``, and the value
    must pass ``allowed``. A ``Path`` is resolved against the configuration
    file."""
    return field(default=default,
                 metadata={"section": section, "key": key, "cast": cast, "allowed": allowed})


def _truncation(text: str) -> int | None:
    return None if text == "letter" else int(text)


def _category(text: str) -> Category:
    return Category(text.upper())


def _delimiter(text: str) -> str:
    # configparser strips a literal tab, so a tab is written as ``\t``.
    return "\t" if text == r"\t" else text


@dataclass
class ColumnSettings:
    """Column-name mappings for the four input files."""

    appellation_code: str = _key("columns.appellations", "cvi", key="code")
    appellation_surface: str = _key("columns.appellations", "surface_ha", key="surface")
    appellation_name: str | None = _key("columns.appellations", None, key="name")
    appellation_category: str | None = _key("columns.appellations", None, key="category")
    yield_cols: dict[int, str] = field(default_factory=dict)
    volume_cols: dict[int, str] = field(default_factory=dict)
    county_insee: str = _key("columns.counties", "insee", key="insee")
    county_surface: str = _key("columns.counties", "surface_ha", key="surface")
    county_ra: str | None = _key("columns.counties", None, key="ra")
    mask_appellation: str = _key("columns.mask", "appellation", key="appellation")
    mask_insee: str = _key("columns.mask", "insee", key="insee")
    price_label: str = _key("columns.prices", "label", key="label")
    price_value: str = _key("columns.prices", "price_eur_hl", key="price")
    price_region: str | None = _key("columns.prices", None, key="region")


@dataclass
class SynthSettings:
    appellations: int = _key("synth", 20, int, allowed=_AT_LEAST_ONE)
    counties: int = _key("synth", 100, int, allowed=_AT_LEAST_ONE)
    density: float = _key("synth", 0.1, float, allowed=_UNIT_INTERVAL)
    extra_mask_factor: float = _key("synth", 0.5, float, allowed=_FINITE_NOT_NEGATIVE)
    counties_per_department: int = _key("synth", 20, int, allowed=_AT_LEAST_ONE)


@dataclass
class PipelineConfig:
    # inputs, each an optional path
    customs_by_appellation: Path | None = _key("inputs", None, Path)
    customs_by_county: Path | None = _key("inputs", None, Path)
    inao_authorizations: Path | None = _key("inputs", None, Path)
    price_scale: Path | None = _key("inputs", None, Path)
    champagne_cells: Path | None = _key("inputs", None, Path)
    non_pgi_by_department: Path | None = _key("inputs", None, Path)
    ra_map: Path | None = _key("inputs", None, Path)
    region_map: Path | None = _key("inputs", None, Path)
    reference_aggregates: Path | None = _key("inputs", None, Path)
    acronyms: Path | None = _key("inputs", None, Path)
    stopwords: Path | None = _key("inputs", None, Path)
    # behaviour
    columns: ColumnSettings = field(default_factory=ColumnSettings)
    delimiter: str = _key("ingest", ";", _delimiter,
                          allowed=("one character", lambda value: len(value) == 1))
    truncation: int | None = _key("ingest", None, _truncation, allowed=_AT_LEAST_ONE)
    default_category: Category = _key("ingest", Category.AOP, _category)
    weights: dict[Category, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    threshold_fraction: float = _key("linkage", 0.10, float, allowed=_POSITIVE_FINITE)
    harvest_year: int = _key("yields", 2023, int)
    k_starts: int = _key("solver", 20, int, allowed=_AT_LEAST_ONE)
    seed: int = _key("solver", 20230601, int, allowed=_NOT_NEGATIVE)
    restrict_min_hectares: float = _key("solver", 100.0, float, allowed=_FINITE_NOT_NEGATIVE)
    reference_min_hectares: float = _key("validate", 1000.0, float, allowed=_FINITE_NOT_NEGATIVE)
    reference_total_eur: float | None = _key("validate", None, float, allowed=_POSITIVE_FINITE)
    synth: SynthSettings = field(default_factory=SynthSettings)
    output_dir: Path = _key("output", Path("out"), Path, key="directory")

    def validate(self, require_inputs: bool = True) -> None:
        """Check the input files: the four required paths are set, and every
        path that is set exists."""
        if require_inputs:
            for name in ("customs_by_appellation", "customs_by_county",
                         "inao_authorizations", "price_scale"):
                if getattr(self, name) is None:
                    raise ConfigError(f"missing required input path: {name}")
        for name in INPUT_NAMES:
            path = getattr(self, name)
            if path is not None and not Path(path).exists():
                raise ConfigError(f"input path for {name} does not exist: {path}")


def _fixed_keys(cfg: PipelineConfig) -> Iterator[tuple[object, Field, str, str]]:
    """(owner, field, section, key) of every fixed key, the owner being
    ``cfg`` or one of its settings objects."""
    for owner in (cfg, cfg.columns, cfg.synth):
        for declared in fields(owner):
            meta = declared.metadata
            if meta:
                yield owner, declared, meta["section"], meta["key"] or declared.name


#: The ``[inputs]`` keys, each an optional path resolved against the
#: configuration file.
INPUT_NAMES = tuple(declared.name for _, declared, section, _ in _fixed_keys(PipelineConfig())
                    if section == "inputs")


def _cast(text: str, section: str, key: str, cast: Callable, allowed: Rule | None):
    try:
        value = cast(text)
    except ValueError:
        raise ConfigError(f"{section}.{key}: invalid value {text!r}") from None
    # A cast may read a value as "not set" (``truncation = letter``).
    if allowed is not None and value is not None and not allowed[1](value):
        raise ConfigError(f"{section}.{key} must be {allowed[0]}, got {value!r}")
    return value


def load_config(path: str | Path, overrides: Mapping[str, str] | None = None) -> PipelineConfig:
    """Parse a pipeline configuration file.

    Every fixed key is declared once, on the field it sets, with its
    section, cast and allowed range. ``overrides`` maps flat keys
    (``solver.seed``, ``solver.k_starts``, ``output.directory``) to
    replacement values, mirroring CLI flags. Unknown keys are ignored; a
    value that does not parse or is out of range is a :class:`ConfigError`
    naming its ``section.key``.
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
    for owner, declared, section, key in _fixed_keys(cfg):
        text = parser.get(section, key, fallback="").strip()
        if text:
            cast = declared.metadata["cast"]
            setattr(owner, declared.name, path.parent / text if cast is Path
                    else _cast(text, section, key, cast, declared.metadata["allowed"]))

    section = "columns.appellations"
    families = {"yield": cfg.columns.yield_cols, "volume": cfg.columns.volume_cols}
    if parser.has_section(section):
        for key, text in parser.items(section):
            family, dot, year = key.partition(".")
            if dot and family in families and text.strip():
                families[family][_cast(year, section, key, int, None)] = text.strip()
    for category in Category:
        key = category.value.lower()
        text = parser.get("weights", key, fallback="").strip()
        if text:
            cfg.weights[category] = _cast(text, "weights", key, float, _UNIT_INTERVAL)
    return cfg
