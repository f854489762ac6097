from __future__ import annotations

import io
import json
import logging
import math

import pytest
from hypothesis import given, strategies as st

from vinevalue.allocator import build_problem
from vinevalue.ingest import (
    inject_pseudo_appellations,
    parse_cell_surfaces,
    parse_customs_by_appellation,
    parse_customs_by_county,
    parse_department_surfaces,
    parse_inao_authorizations,
    parse_key_value_map,
    parse_price_scale,
    parse_reference_aggregates,
    read_appellations,
    read_counties,
    read_mask,
    read_prices,
    write_appellations,
    write_counties,
    write_mask,
    write_prices,
)
from vinevalue.linkage import match_labels
from vinevalue.model import (
    AppellationRecord,
    Category,
    ConfigError,
    CountyRecord,
    DEFAULT_WEIGHTS,
    IntegrityError,
    PriceEntry,
    ProductionMode,
    cvi_prefix,
)


def _src(text: str) -> io.StringIO:
    return io.StringIO(text)


class TestCviCode:
    def test_trailing_product_code_removed(self):
        assert cvi_prefix("1B001M01") == "1B001M"

    def test_no_trailing_digits(self):
        assert cvi_prefix("1B001M") == "1B001M"

    def test_all_digits_kept_whole(self):
        assert cvi_prefix("12345") == "12345"

    def test_fixed_length_override(self):
        assert cvi_prefix("1B001M01", truncation=5) == "1B001"
        assert cvi_prefix("1B0", truncation=5) == "1B0"

    def test_deterministic(self):
        assert cvi_prefix(" 3B011M07 ") == cvi_prefix("3B011M07") == "3B011M"

    def test_empty_code_rejected(self):
        with pytest.raises(ValueError, match="empty CVI code"):
            cvi_prefix("  ")

    def test_truncation_below_one_rejected(self):
        with pytest.raises(ValueError, match="truncation length must be >= 1"):
            cvi_prefix("1B001M01", truncation=0)


class TestParseCustomsByAppellation:
    def test_published_reference_row(self):
        records, report = parse_customs_by_appellation(
            _src("cvi;surface_ha\n1B001M01;3064.79\n")
        )
        assert len(records) == 1
        assert records[0].code == "1B001M"
        assert records[0].marginal_surface == 3064.79
        assert not report.row_errors

    def test_empty_file_with_header(self):
        records, report = parse_customs_by_appellation(_src("cvi;surface_ha\n"))
        assert records == []
        assert report.rows_read == 0
        assert not report.row_errors

    def test_rows_sharing_prefix_summed(self):
        records, _ = parse_customs_by_appellation(
            _src("cvi;surface_ha\n1B001M01;10.0\n1B001M02;5.0\n")
        )
        assert len(records) == 1
        assert records[0].marginal_surface == 15.0

    def test_secretized_cells_skipped_and_counted(self):
        records, report = parse_customs_by_appellation(
            _src("cvi;surface_ha\n1B001M01;10.0\n1B001M02;\n1B002S01;s\n")
        )
        assert report.secretized == 2
        by_code = {r.code: r for r in records}
        assert by_code["1B001M"].marginal_surface == 10.0
        # Secretized means absent, not zero: the record still exists with the
        # surfaces that were published.
        assert by_code["1B002S"].marginal_surface == 0.0

    def test_malformed_surface_is_row_error_with_line(self):
        _, report = parse_customs_by_appellation(
            _src("cvi;surface_ha\n1B001M01;abc\n1B001M02;nan\n1B001M03;inf\n")
        )
        assert report.row_errors == [(2, "malformed surface 'abc'"),
                                     (3, "malformed surface 'nan'"),
                                     (4, "malformed surface 'inf'")]

    def test_non_finite_yield_and_volume_are_row_errors(self):
        records, report = parse_customs_by_appellation(
            _src("cvi;surface_ha;y2020;v2020\n1B001M01;10.0;NaN;100\n1B001M02;5.0;60.0;-inf\n"),
            yield_cols={2020: "y2020"},
            volume_cols={2020: "v2020"},
        )
        assert report.row_errors == [(2, "malformed yield 'NaN' in column y2020"),
                                     (3, "malformed volume '-inf' in column v2020")]
        assert 2020 not in records[0].yield_history

    def test_negative_surface_is_row_error_with_line(self):
        records, report = parse_customs_by_appellation(_src("cvi;surface_ha\n1B001M01;-1\n"))
        assert records == []
        assert report.row_errors == [(2, "negative surface '-1'")]

    def test_missing_column_fatal(self):
        with pytest.raises(ConfigError):
            parse_customs_by_appellation(_src("code;surface_ha\n"))

    def test_volume_weighted_yields(self):
        records, _ = parse_customs_by_appellation(
            _src(
                "cvi;surface_ha;y2020;v2020\n"
                "1B001M01;10.0;40.0;100\n"
                "1B001M02;5.0;60.0;300\n"
            ),
            yield_cols={2020: "y2020"},
            volume_cols={2020: "v2020"},
        )
        assert records[0].yield_history[2020] == pytest.approx(55.0)

    def test_zero_yield_treated_as_missing(self):
        records, _ = parse_customs_by_appellation(
            _src("cvi;surface_ha;y2020\n1B001M01;10.0;0\n"),
            yield_cols={2020: "y2020"},
        )
        assert 2020 not in records[0].yield_history

    def test_surface_sum_preserved(self):
        rows = [f"1B{i:03d}M01;{i * 1.7}" for i in range(1, 30)]
        text = "cvi;surface_ha\n" + "\n".join(rows) + "\n"
        records, _ = parse_customs_by_appellation(_src(text))
        total = math.fsum(r.marginal_surface for r in records)
        expected = math.fsum(i * 1.7 for i in range(1, 30))
        assert abs(total - expected) <= 1e-6 * expected

    def test_unknown_category_keeps_the_default_and_is_counted(self):
        records, report = parse_customs_by_appellation(
            _src("cvi;surface_ha;cat\n3B011M01;4.0;IGPP\n3B012M01;1.0;\n3B013M01;2.0;XX\n"),
            category_col="cat",
        )
        assert [r.category for r in records] == [Category.AOP] * 3
        assert report.notes == {"unknown_category": 2}
        assert json.loads(report.to_json())["notes"] == {"unknown_category": 2}

    def test_category_and_color_columns(self):
        # The category column is read; a colour column is input no stage
        # uses, and is ignored.
        records, report = parse_customs_by_appellation(
            _src("cvi;surface_ha;cat;col\n3B011M01;4.0;IGP;rouge\n"),
            category_col="cat",
        )
        assert records == [AppellationRecord(code="3B011M", category=Category.PGI,
                                             marginal_surface=4.0)]
        assert not report.row_errors

    @pytest.mark.parametrize("rows", [
        "3B011M01;4.0;IGP\n3B011M02;1.0;AOC\n",
        "3B011M02;1.0;AOC\n3B011M01;4.0;IGP\n",
    ])
    def test_conflicting_categories_take_the_first_declared(self, rows):
        # The category sets the LP weight, so it must not depend on row order.
        records, report = parse_customs_by_appellation(
            _src("cvi;surface_ha;cat\n" + rows + "3B012M01;2.0;IGP\n3B012M02;1.0;\n"),
            category_col="cat",
        )
        assert [(r.code, r.category) for r in records] == [
            ("3B011M", Category.AOP), ("3B012M", Category.PGI)]
        assert report.notes == {"category_conflicts": 1}


class TestParseCustomsByCounty:
    def test_published_reference_row(self):
        records, report = parse_customs_by_county(_src("insee;surface_ha\n01001;0.2\n"))
        assert records == [
            CountyRecord(insee_code="01001", marginal_surface=0.2)
        ]
        assert not report.row_errors

    def test_zero_surface_retained(self):
        records, _ = parse_customs_by_county(_src("insee;surface_ha\n01001;0\n"))
        assert records[0].marginal_surface == 0.0

    def test_short_code_is_row_error(self):
        records, report = parse_customs_by_county(_src("insee;surface_ha\n1001;0.2\n"))
        assert records == []
        assert report.row_errors and report.row_errors[0][0] == 2

    def test_bad_surfaces_are_row_errors_with_line(self):
        records, report = parse_customs_by_county(
            _src("insee;surface_ha\n01001;abc\n01002;-1.0\n01003;nan\n01004;inf\n")
        )
        assert records == []
        assert report.row_errors == [
            (2, "malformed surface 'abc'"), (3, "negative surface '-1.0'"),
            (4, "malformed surface 'nan'"), (5, "malformed surface 'inf'"),
        ]

    def test_blank_rows_are_skipped_and_lines_keep_their_numbers(self):
        # An empty line, a row of empty fields, and a row of spaces and tabs.
        text = "insee;surface_ha\n\n;\n01001;abc\n \t; \n01002; 2.5 \n01003;-1\n"
        records, report = parse_customs_by_county(_src(text))
        assert report.rows_read == 3
        assert [(r.insee_code, r.marginal_surface) for r in records] == [("01002", 2.5)]
        assert report.row_errors == [(4, "malformed surface 'abc'"),
                                     (7, "negative surface '-1'")]

    def test_leading_zeros_preserved(self):
        records, _ = parse_customs_by_county(_src("insee;surface_ha\n01001;1.0\n"))
        assert records[0].insee_code == "01001"

    def test_duplicate_insee_fatal(self):
        # A secretized or malformed first row holds no record, but it names
        # the county all the same.
        for first in ("1.0", "s", "abc"):
            with pytest.raises(IntegrityError, match="duplicate insee code '01001' at line 3"):
                parse_customs_by_county(_src(f"insee;surface_ha\n01001;{first}\n01001;5.0\n"))

    def test_corsican_codes(self):
        records, _ = parse_customs_by_county(_src("insee;surface_ha\n2A004;3.5\n"))
        assert records[0].department == "2A"

    def test_overseas_department_prefix(self):
        records, _ = parse_customs_by_county(_src("insee;surface_ha\n97101;3.5\n"))
        assert records[0].department == "971"


APPS = [
    AppellationRecord(code="3B011", category=Category.PGI),
    AppellationRecord(code="3B012", category=Category.PGI),
    AppellationRecord(code="1B001M", category=Category.AOP),
]
COUNTIES = [
    CountyRecord(insee_code="01001", marginal_surface=0.2),
    CountyRecord(insee_code="01002", marginal_surface=5.0),
]


class TestParseInaoAuthorizations:
    def test_direct_construction(self):
        mask, report = parse_inao_authorizations(
            _src("appellation;insee\n3B011;01001\n3B011;01002\n3B012;01001\n"),
            APPS, COUNTIES,
        )
        assert mask == {("3B011", "01001"), ("3B011", "01002"), ("3B012", "01001")}
        assert report.unmatched == 0

    def test_unknown_county_excluded_and_counted(self):
        mask, report = parse_inao_authorizations(
            _src("appellation;insee\n3B011;99999\n"), APPS, COUNTIES
        )
        assert mask == set()
        assert report.unmatched == 1

    def test_duplicate_rows_are_counted(self):
        mask, report = parse_inao_authorizations(
            _src("appellation;insee\n3B011;01001\n3B011;01001\n3B012;01001\n"),
            APPS, COUNTIES,
        )
        assert mask == {("3B011", "01001"), ("3B012", "01001")}
        assert (report.rows_read, report.records_out, report.unmatched) == (3, 2, 0)
        assert report.notes == {"duplicate_rows": 1}

    def test_category_weights_when_no_column(self):
        mask, _ = parse_inao_authorizations(
            _src("appellation;insee\n3B011;01001\n1B001M;01001\n"), APPS, COUNTIES
        )
        weights = build_problem(APPS, COUNTIES, mask).weights
        assert weights["3B011"] == 1.0 / 3.0
        assert weights["1B001M"] == 1.0


def _authorizations(source, **columns):
    return parse_inao_authorizations(source, APPS, COUNTIES, **columns)


# Every configured column must be in the header, an optional one included:
# an unread category column would turn an IGP row into AOP (weight 1, not 1/3).
@pytest.mark.parametrize("parse, text, columns, missing", [
    (parse_customs_by_appellation, "code;surface_ha\n1B001M01;1\n", {}, "cvi"),
    (parse_customs_by_appellation, "cvi;area\n1B001M01;1\n", {}, "surface_ha"),
    (parse_customs_by_appellation, "cvi;surface_ha;nom\n3B011M01;4;Rose\n",
     {"name_col": "name"}, "name"),
    (parse_customs_by_appellation, "cvi;surface_ha;cat\n3B011M01;4;IGP\n",
     {"category_col": "category"}, "category"),
    (parse_customs_by_appellation, "cvi;surface_ha;y2020\n3B011M01;4;50\n",
     {"yield_cols": {2021: "y2021"}}, "y2021"),
    (parse_customs_by_appellation, "cvi;surface_ha;y2020\n3B011M01;4;50\n",
     {"yield_cols": {2020: "y2020"}, "volume_cols": {2020: "v2020"}}, "v2020"),
    (parse_customs_by_county, "code;surface_ha\n01001;1\n", {}, "insee"),
    (parse_customs_by_county, "insee;area\n01001;1\n", {}, "surface_ha"),
    (parse_customs_by_county, "insee;surface_ha;region\n01001;1;RA\n", {"ra_col": "ra"}, "ra"),
    (_authorizations, "code;insee\n3B011;01001\n", {}, "appellation"),
    (_authorizations, "appellation;commune\n3B011;01001\n", {}, "insee"),
    (parse_price_scale, "libelle;price_eur_hl\nChablis;150\n", {}, "label"),
    (parse_price_scale, "label;price\nChablis;150\n", {}, "price_eur_hl"),
    (parse_price_scale, "label;price_eur_hl;zone\nChablis;150;Bourgogne\n",
     {"region_col": "region"}, "region"),
], ids=["appellation-code", "appellation-surface", "name", "category", "yield", "volume",
        "county-insee", "county-surface", "ra", "mask-appellation", "mask-insee",
        "price-label", "price-value", "region"])
def test_missing_configured_column_is_config_error(parse, text, columns, missing):
    dataset = {_authorizations: "inao_authorizations"}.get(parse, parse.__name__[6:])
    with pytest.raises(ConfigError, match=rf"^{dataset}: missing column\(s\) \['{missing}'\] "):
        parse(_src(text), **columns)


class TestInjectPseudoAppellations:
    def _inputs(self):
        counties = [
            CountyRecord(insee_code="67003", marginal_surface=1.0),
            CountyRecord(insee_code="67051", marginal_surface=2.0),
            CountyRecord(insee_code="67155", marginal_surface=3.0),
            CountyRecord(insee_code="68001", marginal_surface=4.0),
        ]
        return [APPS[2]], counties, {("1B001M", "67003")}

    def test_adds_one_appellation_and_cells(self):
        apps, counties, mask = self._inputs()
        new_apps, new_mask = inject_pseudo_appellations(apps, counties, mask, {"67": 100.0})
        added = [a for a in new_apps if a.category is Category.PSEUDO_NON_PGI]
        assert len(added) == 1
        assert added[0].marginal_surface == 100.0
        assert len(new_mask) == len(mask) + 3

    def test_injected_weight_is_a_quarter(self):
        apps, counties, mask = self._inputs()
        new_apps, new_mask = inject_pseudo_appellations(apps, counties, mask, {"67": 100.0})
        assert build_problem(new_apps, counties, new_mask).weights["NONPGI67"] == 0.25
        weights = {**DEFAULT_WEIGHTS, Category.PSEUDO_NON_PGI: 0.125}
        problem = build_problem(new_apps, counties, new_mask, category_weights=weights)
        assert problem.weights["NONPGI67"] == 0.125

    def test_empty_map_is_identity(self):
        apps, counties, mask = self._inputs()
        new_apps, new_mask = inject_pseudo_appellations(apps, counties, mask, {})
        assert new_apps == apps
        assert new_mask == mask

    def test_inputs_never_modified(self):
        apps, counties, mask = self._inputs()
        cells_before = set(mask)
        apps_before = list(apps)
        inject_pseudo_appellations(apps, counties, mask, {"67": 100.0, "68": 5.0})
        assert mask == cells_before
        assert apps == apps_before

    def test_department_without_counties_skipped_with_warning(self, caplog):
        apps, counties, mask = self._inputs()
        with caplog.at_level(logging.WARNING):
            new_apps, _ = inject_pseudo_appellations(apps, counties, mask, {"99": 50.0})
        assert len(new_apps) == len(apps)
        assert any("99" in record.message for record in caplog.records)

    def test_zero_surface_department_ignored(self):
        apps, counties, mask = self._inputs()
        new_apps, _ = inject_pseudo_appellations(apps, counties, mask, {"67": 0.0})
        assert len(new_apps) == len(apps)


class TestParsePriceScale:
    def test_published_reference_row(self):
        entries, _ = parse_price_scale(
            _src("label;price_eur_hl\nCrémant d'Alsace blanc C;260\n")
        )
        assert entries[0].price == 260.0
        assert entries[0].production_mode is ProductionMode.CONVENTIONAL
        assert entries[0].label == "Crémant d'Alsace blanc"

    def test_organic_suffix(self):
        entries, _ = parse_price_scale(_src("label;price_eur_hl\nX B;300\n"))
        assert entries[0].production_mode is ProductionMode.ORGANIC

    def test_no_suffix_defaults_conventional(self):
        entries, _ = parse_price_scale(_src("label;price_eur_hl\nChablis;150\n"))
        assert entries[0].production_mode is ProductionMode.CONVENTIONAL
        assert entries[0].label == "Chablis"

    def test_negative_price_row_error(self):
        entries, report = parse_price_scale(_src("label;price_eur_hl\nY;-5\n"))
        assert entries == []
        assert report.row_errors

    def test_marker_only_label_is_an_empty_label(self):
        entries, report = parse_price_scale(_src("label;price_eur_hl\nC;100\nB;90\n;80\nX;70\n"))
        assert [e.label for e in entries] == ["X"]
        assert report.row_errors == [(2, "empty label"), (3, "empty label"), (4, "empty label")]

    def test_raw_label_is_normalized_by_match_labels(self):
        entries, _ = parse_price_scale(_src("label;price_eur_hl\nCôte du Rhône C;100\n"))
        assert entries[0].label == "Côte du Rhône"
        matches = match_labels(entries, [AppellationRecord(code="3B011", name="COTE RHONE")])
        assert [(m.target_code, m.distance, m.accepted) for m in matches] == [
            ("3B011", 0.0, True)
        ]


class TestEncodingFallback:
    def test_latin1_file(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_bytes("label;price_eur_hl\nCrémant d'Alsace C;260\n".encode("latin-1"))
        entries, _ = parse_price_scale(path)
        assert entries[0].label == "Crémant d'Alsace"

    def test_utf8_file(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("label;price_eur_hl\nCrémant C;260\n", encoding="utf-8")
        entries, _ = parse_price_scale(path)
        assert entries[0].label == "Crémant"


class TestAuxiliaryParsers:
    def test_department_surfaces(self):
        assert parse_department_surfaces(_src("dept;surface\n67;120.5\n")) == {"67": 120.5}

    def test_cell_surfaces(self):
        cells = parse_cell_surfaces(
            _src("appellation;insee;surface_ha;name\n7C001M;51001;12.0;Champagne\n")
        )
        assert cells == [("7C001M", "51001", 12.0, "Champagne")]

    def test_cell_surfaces_name_beyond_the_header(self):
        # The name is an optional fourth field, also under a three-column header.
        cells = parse_cell_surfaces(
            _src("appellation;insee;surface_ha\n7C001M;68001;3.5;Champagne test\n")
        )
        assert cells == [("7C001M", "68001", 3.5, "Champagne test")]

    def test_key_value_map(self):
        assert parse_key_value_map(_src("insee;ra\n67003;RA-1\n")) == {"67003": "RA-1"}

    def test_key_value_map_repeated_header_name(self):
        # Fields are read by position, so header names need not differ.
        assert parse_key_value_map(_src("a;a\n67003;RA1\n")) == {"67003": "RA1"}

    def test_key_value_map_short_row(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_key_value_map(_src("insee;ra\n67003;RA-1\n67051\n"))

    @pytest.mark.parametrize("parse, text", [
        (parse_department_surfaces, "dept;surface\n67;-0.5\n"),
        (parse_cell_surfaces, "appellation;insee;surface_ha\n7C001M;51001;-1\n"),
        (parse_reference_aggregates, "department;wine_type;surface_ha\n67;AOP;-3\n"),
    ], ids=["department", "cell", "reference"])
    def test_negative_surface_is_config_error(self, parse, text):
        with pytest.raises(ConfigError, match="negative surface .* at line 2"):
            parse(_src(text))

    # The last row used to win silently: 10 ha of non-PGI surface vanished.
    @pytest.mark.parametrize("parse, text, message", [
        (parse_department_surfaces, "dept;surface\n67;10\n68;2\n67;5\n",
         "department_surfaces: repeated key '67' at line 4"),
        (parse_key_value_map, "insee;ra\n67003;RA-1\n67003;RA-2\n",
         "key_value_map: repeated key '67003' at line 3"),
        (parse_reference_aggregates,
         "department;wine_type;surface_ha\n67;AOP;3\n67;PGI;1\n67;AOP;4\n",
         "reference_aggregates: repeated key '67;AOP' at line 4"),
    ], ids=["department", "key_value", "reference"])
    def test_repeated_key_is_config_error(self, parse, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse(_src(text))

    @pytest.mark.parametrize("row", ["67;AOP", "67;AOP;lots", "67;AOP;nan", "67;AOP;inf"])
    def test_reference_aggregates_malformed_row(self, row):
        with pytest.raises(ConfigError, match="line 2"):
            parse_reference_aggregates(_src(f"department;wine_type;surface_ha\n{row}\n"))


surface_values = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)


class TestCanonicalRoundTrip:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["1B001M", "3B011", "2A100S", "NONPGI67"]),
                surface_values,
                st.sampled_from(list(Category)),
                st.floats(min_value=0.1, max_value=200.0, allow_nan=False),
            ),
            max_size=4,
            unique_by=lambda t: t[0],
        )
    )
    def test_appellations(self, rows):
        import tempfile
        from pathlib import Path

        records = [
            AppellationRecord(
                code=code, name=f"Name {code}", category=category,
                marginal_surface=surface,
                yield_history={2020: yield_value, 2021: 43.25},
            )
            for code, surface, category, yield_value in rows
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "apps.csv"
            write_appellations(records, path)
            assert read_appellations(path) == sorted(records, key=lambda r: r.code)

    def test_counties(self, tmp_path):
        records = [
            CountyRecord(insee_code="01001", agricultural_region_id="RA-1", marginal_surface=0.2),
            CountyRecord(insee_code="2A004", marginal_surface=123.456789012345),
        ]
        path = tmp_path / "counties.csv"
        write_counties(records, path)
        assert read_counties(path) == records

    def test_mask(self, tmp_path):
        mask = {("3B011", "01001"), ("1B001M", "01002")}
        path = tmp_path / "mask.csv"
        write_mask(mask, path)
        assert read_mask(path) == mask

    def test_prices(self, tmp_path):
        entries = [
            PriceEntry(label="Chablis", price=150.5,
                       production_mode=ProductionMode.ORGANIC, region_hint="Bourgogne"),
            PriceEntry(label="Côte du Rhône", price=100.0),
        ]
        path = tmp_path / "prices.csv"
        write_prices(entries, path)
        assert read_prices(path) == sorted(entries, key=lambda e: (e.label, e.production_mode.value))
