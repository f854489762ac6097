"""The configuration layer: every key is read through one table, a value that
does not parse is a configuration error naming its key, and values are
literal text."""
from __future__ import annotations

import logging
import shutil
from pathlib import Path

import pytest

from vinevalue import cli
from vinevalue.config import load_config

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
])
def test_removed_keys_are_ignored_like_unknown_keys(alsace_copy, section, key):
    before = load_config(alsace_copy)
    _set_key(alsace_copy, section, key, "0.5")
    after = load_config(alsace_copy)
    assert after == before
    assert not hasattr(after, key)
