"""The configuration layer: every key is declared once, on the field it sets,
with its section, cast and allowed range; a value that does not parse or is
out of range is a configuration error naming its key, and values are literal
text."""
from __future__ import annotations

import logging
import shutil
from pathlib import Path

import pytest

from vinevalue import cli
from vinevalue.config import INPUT_NAMES, PipelineConfig, _fixed_keys, load_config

ALSACE = Path(__file__).parent / "fixtures" / "alsace"


@pytest.fixture
def alsace_copy(tmp_path) -> Path:
    """A writable copy of the Alsace fixture; returns its configuration."""
    shutil.copytree(ALSACE, tmp_path / "alsace")
    return tmp_path / "alsace" / "pipeline.ini"


def _set_key(config: Path, section: str, key: str, value: str) -> None:
    """Set one key, replacing the fixture's own line for it if any."""
    lines = [line for line in config.read_text(encoding="utf-8").splitlines()
             if not line.startswith(f"{key} =")]
    header = f"[{section}]"
    if header not in lines:
        lines += ["", header]
    lines.insert(lines.index(header) + 1, f"{key} = {value}")
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")


# The last field is the text that fails to parse: the year for the
# ``yield.<year>`` and ``volume.<year>`` families, the value otherwise.
@pytest.mark.parametrize("section, key, value, bad", [
    ("solver", "k_starts", "twenty", "twenty"),
    ("solver", "restrict_min_hectares", "many", "many"),
    ("ingest", "default_category", "GRAND_CRU", "GRAND_CRU"),
    ("ingest", "truncation", "short", "short"),
    ("columns.appellations", "yield.abc", "y", "abc"),
    ("columns.appellations", "volume.2020x", "v", "2020x"),
    ("weights", "aop", "high", "high"),
])
def test_malformed_value_names_its_key(alsace_copy, tmp_path, caplog, section, key, value, bad):
    _set_key(alsace_copy, section, key, value)
    with caplog.at_level(logging.ERROR):
        rc = cli.main(["run", "--config", str(alsace_copy), "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
        f"configuration error: {section}.{key}: invalid value {bad!r}"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, shown", [
    ("aop", "2", "2.0"),
    ("pgi", "0", "0.0"),
    ("non_pgi", "-0.25", "-0.25"),
    ("aop_brandy", "nan", "nan"),
])
def test_out_of_range_weight_is_a_config_error(alsace_copy, tmp_path, caplog, key, value, shown):
    # Every code takes its category's weight in the LP objective, so a weight
    # outside (0, 1] would break the priority order the method relies on.
    _set_key(alsace_copy, "weights", key, value)
    with caplog.at_level(logging.ERROR):
        rc = cli.main(["run", "--config", str(alsace_copy), "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
        f"configuration error: weights.{key} must be in (0, 1], got {shown}"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value, shown", [
    ("validate", "reference_total_eur", "0", "0.0"),
    ("validate", "reference_total_eur", "-5", "-5.0"),
    ("validate", "reference_total_eur", "inf", "inf"),
    ("linkage", "threshold_fraction", "nan", "nan"),
    ("linkage", "threshold_fraction", "0", "0.0"),
    ("linkage", "threshold_fraction", "inf", "inf"),
])
def test_value_that_is_not_positive_and_finite_is_a_config_error(
    alsace_copy, tmp_path, caplog, section, key, value, shown
):
    # A zero reference total used to end the value stage in a division by
    # zero, and a NaN threshold rejected every price label, each only after
    # the earlier stages had run.
    _set_key(alsace_copy, section, key, value)
    with caplog.at_level(logging.ERROR):
        rc = cli.main(["run", "--config", str(alsace_copy), "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
        f"configuration error: {section}.{key} must be positive and finite, got {shown}"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("from_flag", [False, True])
def test_negative_seed_is_a_config_error(alsace_copy, tmp_path, caplog, from_flag):
    # numpy refuses a negative seed only once the solve stage starts.
    flags = ["--seed", "-3"] if from_flag else []
    if not from_flag:
        _set_key(alsace_copy, "solver", "seed", "-3")
    with caplog.at_level(logging.ERROR):
        rc = cli.main(["run", "--config", str(alsace_copy),
                       "--output-dir", str(tmp_path / "out"), *flags])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
        "configuration error: solver.seed must be >= 0, got -3"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_truncation_below_one_is_a_config_error(alsace_copy, tmp_path, caplog, value):
    # Otherwise every customs row becomes a row error and the run goes on
    # with no appellations until the value stage finds no price.
    _set_key(alsace_copy, "ingest", "truncation", value)
    with caplog.at_level(logging.ERROR):
        rc = cli.main(["run", "--config", str(alsace_copy), "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
        f"configuration error: ingest.truncation must be >= 1, got {value}"
    ]
    assert not (tmp_path / "out").exists()


def test_zero_k_starts_flag_is_a_config_error(tmp_path, caplog):
    with caplog.at_level(logging.ERROR):
        rc = cli.main(["run", "--config", str(ALSACE / "pipeline.ini"),
                       "--output-dir", str(tmp_path / "out"), "--k-starts", "0"])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
        "configuration error: solver.k_starts must be >= 1, got 0"
    ]
    assert not (tmp_path / "out").exists()


def test_delimiter_of_two_characters_is_a_config_error(alsace_copy, tmp_path, caplog):
    # ``csv`` refuses it only once ingest has created the output directory.
    _set_key(alsace_copy, "ingest", "delimiter", ";;")
    with caplog.at_level(logging.ERROR):
        rc = cli.main(["run", "--config", str(alsace_copy), "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
        "configuration error: ingest.delimiter must be one character, got ';;'"
    ]
    assert not (tmp_path / "out").exists()


def test_tab_separated_inputs_give_the_same_artifacts(alsace_copy, tmp_path):
    for path in alsace_copy.parent.glob("*.csv"):
        path.write_bytes(path.read_bytes().replace(b";", b"\t"))
    # configparser strips a literal tab from the value.
    _set_key(alsace_copy, "ingest", "delimiter", "\\t")
    assert load_config(alsace_copy).delimiter == "\t"
    artifacts = []
    for config, out in ((ALSACE / "pipeline.ini", tmp_path / "semicolon"),
                        (alsace_copy, tmp_path / "tab")):
        assert cli.main(["run", "--config", str(config), "--output-dir", str(out)]) == 0
        artifacts.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
    assert artifacts[0] == artifacts[1]


def test_every_fixed_key_is_declared_once():
    # ``insee`` is a key of both [columns.counties] and [columns.mask].
    keys = [(section, key) for _, _, section, key in _fixed_keys(PipelineConfig())]
    assert len(keys) == len(set(keys))
    assert {("columns.counties", "insee"), ("columns.mask", "insee")} <= set(keys)


def test_config_that_is_not_utf8_is_a_config_error(alsace_copy, tmp_path, caplog):
    alsace_copy.write_bytes(alsace_copy.read_bytes() + "\n[validate]\nnote = caf\xe9\n".encode("latin-1"))
    rc = cli.main(["run", "--config", str(alsace_copy), "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    assert any("cannot parse config" in r.getMessage() for r in caplog.records)


def test_percent_in_output_dir_is_literal(tmp_path):
    out = tmp_path / "pct%dir"
    rc = cli.main(["ingest", "--config", str(ALSACE / "pipeline.ini"), "--output-dir", str(out)])
    assert rc == 0
    assert (out / "appellations.csv").exists()


def test_percent_in_input_path_is_literal(alsace_copy):
    data = alsace_copy.parent
    (data / "ra_map.csv").rename(data / "ra%map.csv")
    alsace_copy.write_text(
        alsace_copy.read_text(encoding="utf-8").replace("ra_map.csv", "ra%map.csv"),
        encoding="utf-8",
    )
    cfg = load_config(alsace_copy)
    assert cfg.ra_map == data / "ra%map.csv"
    cfg.validate()


@pytest.mark.parametrize("section, key", [
    ("solver", "feasibility_tol"),
    ("linkage", "threshold"),
    ("solver", "no_such_key"),
    ("columns.appellations", "color"),
    ("columns.mask", "weight"),
])
def test_removed_keys_are_ignored_like_unknown_keys(alsace_copy, section, key):
    before = load_config(alsace_copy)
    _set_key(alsace_copy, section, key, "0.5")
    after = load_config(alsace_copy)
    assert after == before
    assert not hasattr(after, key)


@pytest.mark.parametrize("key, value, message", [
    ("density", "2", "synth.density must be in (0, 1], got 2.0"),
    ("density", "0", "synth.density must be in (0, 1], got 0.0"),
    ("counties_per_department", "0", "synth.counties_per_department must be >= 1, got 0"),
    ("appellations", "0", "synth.appellations must be >= 1, got 0"),
    ("counties", "-3", "synth.counties must be >= 1, got -3"),
    ("extra_mask_factor", "-0.5", "synth.extra_mask_factor must be finite and >= 0, got -0.5"),
    ("extra_mask_factor", "inf", "synth.extra_mask_factor must be finite and >= 0, got inf"),
    ("restrict_min_hectares", "nan",
     "solver.restrict_min_hectares must be finite and >= 0, got nan"),
    ("restrict_min_hectares", "-1",
     "solver.restrict_min_hectares must be finite and >= 0, got -1.0"),
    ("reference_min_hectares", "inf",
     "validate.reference_min_hectares must be finite and >= 0, got inf"),
])
def test_out_of_range_synth_setting_is_a_config_error(
    alsace_copy, tmp_path, caplog, key, value, message
):
    # Synth mode reads the [solver] and [validate] keys too; the message names
    # the key's section.
    _set_key(alsace_copy, message.partition(".")[0], key, value)
    with caplog.at_level(logging.ERROR):
        rc = cli.main(["synth", "--config", str(alsace_copy), "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
        f"configuration error: {message}"
    ]


def test_blank_column_key_is_not_configured(alsace_copy):
    # Ingest requires every configured column, so a blank value must not
    # configure a column named ''.
    _set_key(alsace_copy, "columns.appellations", "volume.2018", "")
    _set_key(alsace_copy, "columns.appellations", "category", "")
    columns = load_config(alsace_copy).columns
    assert (columns.volume_cols, columns.appellation_category) == ({}, None)


def test_readme_configuration_example_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "pipeline.ini"
    config.write_text(example, encoding="utf-8")
    cfg = load_config(config)
    assert cfg.truncation is None
    assert cfg.delimiter == ";"
    assert cfg.columns.appellation_name == "name"
    assert cfg.columns.yield_cols == {2018: "y2018"}
    assert cfg.threshold_fraction == 0.10
    assert cfg.harvest_year == 2023
    names = {name: getattr(cfg, name) for name in INPUT_NAMES}
    assert names == {
        "customs_by_appellation": tmp_path / "appellations.csv",
        "customs_by_county": tmp_path / "counties.csv",
        "inao_authorizations": tmp_path / "inao.csv",
        "price_scale": tmp_path / "prices.csv",
        "champagne_cells": tmp_path / "champagne.csv",
        "non_pgi_by_department": tmp_path / "nonpgi.csv",
        "ra_map": tmp_path / "ra.csv",
        "region_map": tmp_path / "regions.csv",
        "reference_aggregates": tmp_path / "reference.csv",
        "acronyms": tmp_path / "acronyms.txt",
        "stopwords": tmp_path / "stopwords.txt",
    }
