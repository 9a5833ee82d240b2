import re

import numpy as np
import pytest

from fuzzyloc.data import (
    Dataset,
    Normalization,
    fit_normalization,
    label_universe,
    load_csv,
    parse_label,
    read_csv_header,
    read_feature_rows,
)
from fuzzyloc.errors import ConfigError, DataError, InvalidInputError, SchemaError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseLabel:
    def test_plain_integers(self):
        assert parse_label("8") == (8, "plain")
        assert parse_label("-3") == (-3, "plain")
        assert parse_label(" 12 ") == (12, "plain")

    def test_class_prefixed(self):
        assert parse_label("c8") == (8, "prefixed")
        assert parse_label("C21") == (21, "prefixed")

    def test_rejects_everything_else(self):
        for bad in ["", "label", "8.5", "c", "cc8", "8c"]:
            with pytest.raises(SchemaError):
                parse_label(bad)

    def test_labels_are_64_bit(self):
        assert parse_label(str(2**63 - 1)) == (2**63 - 1, "plain")
        assert parse_label(f"c{-(2**63)}") == (-(2**63), "prefixed")
        for bad in [str(2**63), f"c{-(2**63) - 1}", "9" * 23]:
            with pytest.raises(DataError, match="64-bit"):
                parse_label(bad)


class TestLabelUniverse:
    def test_derived_from_the_labels(self):
        assert label_universe([3, 1, 3]) == (1, 2, 3)
        assert label_universe(np.array([-1, 1], dtype=np.int64)) == (-1, 0, 1)

    def test_given_must_cover_the_labels(self):
        assert label_universe([2], (1, 2, 5)) == (1, 2, 5)
        with pytest.raises(InvalidInputError, match=re.escape("[4, 6]")):
            label_universe([2, 4, 6], (1, 2, 5))

    @pytest.mark.parametrize(
        "given, named",
        [
            ((), "non-empty"),
            (range(3, 2), "non-empty"),
            ((1, 3, 2), "strictly increasing"),
            ((1, 1), "strictly increasing"),
            ((1, 2**63), "64-bit"),
            ((-(2**63) - 1, 1), "64-bit"),
        ],
    )
    def test_bad_universes(self, given, named):
        with pytest.raises(InvalidInputError, match=named):
            label_universe([], given)

    def test_a_range_spans_at_most_1024_labels(self):
        assert label_universe([], range(-5, 1019)) == tuple(range(-5, 1019))
        assert label_universe([1, 1024]) == tuple(range(1, 1025))
        for labels, given in [([1, 1025], None), ([], range(1, 1026))]:
            with pytest.raises(InvalidInputError, match=re.escape("1..1025 spans more than 1024")):
                label_universe(labels, given)

    def test_a_huge_range_is_refused_without_expanding_it(self):
        with pytest.raises(InvalidInputError, match=re.escape("1..99999999999999999999")):
            label_universe([], range(1, 10**20))
        with pytest.raises(InvalidInputError, match=re.escape("-9223372036854775808..9223372036854775807")):
            label_universe([-(2**63), 2**63 - 1])

    def test_a_list_is_not_bounded(self):
        listed = tuple(range(0, 4000, 2))
        assert label_universe([0, 3998], listed) == listed


class TestNormalization:
    def test_maps_training_range_to_unit_interval(self):
        norm = Normalization(mins=(10.0,), maxs=(30.0,))
        assert norm.apply_value(10.0, 0) == 0.0
        assert norm.apply_value(30.0, 0) == 1.0
        assert norm.apply_value(20.0, 0) == 0.5

    def test_out_of_range_values_pass_through_unclamped(self):
        norm = Normalization(mins=(10.0,), maxs=(30.0,))
        assert norm.apply_value(35.0, 0) == 1.25
        assert norm.apply_value(0.0, 0) == -0.5

    def test_constant_feature_normalizes_to_zero(self):
        norm = Normalization(mins=(4.0,), maxs=(4.0,))
        assert norm.apply_value(4.0, 0) == 0.0
        assert norm.apply_value(9.0, 0) == 0.0

    def test_bounds_must_be_ordered_and_finite(self):
        with pytest.raises(InvalidInputError):
            Normalization(mins=(2.0,), maxs=(1.0,))
        with pytest.raises(InvalidInputError):
            Normalization(mins=(float("nan"),), maxs=(1.0,))

    def test_bounds_go_through_the_finite_real_check(self):
        with pytest.raises(InvalidInputError, match=r"normalization\[1\]\.max .* got bool"):
            Normalization(mins=(0.0, 0.0), maxs=(1.0, True))
        with pytest.raises(InvalidInputError, match=r"non-finite normalization\[0\]\.min"):
            Normalization(mins=(-(10**400),), maxs=(1.0,))
        norm = Normalization(mins=(0, np.float64(-2.5)), maxs=(4, np.float32(8.0)))
        assert [type(v) for v in norm.mins + norm.maxs] == [float] * 4

    def test_span_must_stay_in_the_float_range(self):
        with pytest.raises(InvalidInputError, match=r"bad bounds \(-1e\+308, 1e\+308\) for normalization\[0\]"):
            Normalization(mins=(-1e308,), maxs=(1e308,))
        raw = Dataset(
            features=[[1.0, 1e308], [2.0, -1e308]], labels=[1, 2], feature_names=("a", "b")
        )
        with pytest.raises(InvalidInputError, match=r"normalization\[1\]"):
            fit_normalization(raw)

    def test_fit_normalization_records_column_extrema(self):
        raw = Dataset(
            features=[[1.0, 5.0], [3.0, 5.0], [2.0, 5.0]],
            labels=[1, 2, 3],
            feature_names=("a", "b"),
        )
        data = fit_normalization(raw)
        assert data.normalization.mins == (1.0, 5.0)
        assert data.normalization.maxs == (3.0, 5.0)
        assert data.features[:, 0].tolist() == [0.0, 1.0, 0.5]
        assert data.features[:, 1].tolist() == [0.0, 0.0, 0.0]

    def test_fit_refuses_double_normalization(self):
        raw = Dataset(features=[[1.0], [2.0]], labels=[1, 2], feature_names=("a",))
        data = fit_normalization(raw)
        with pytest.raises(InvalidInputError):
            fit_normalization(data)


class TestDataset:
    def test_subset_keeps_names_and_normalization(self):
        raw = Dataset(
            features=[[1.0], [2.0], [3.0]], labels=[1, 2, 3], feature_names=("a",)
        )
        data = fit_normalization(raw)
        picked = data.subset(data.labels > 1)
        assert picked.n_instances == 2
        assert picked.feature_names == ("a",)
        assert picked.normalization is data.normalization

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            Dataset(features=[1.0, 2.0], labels=[1, 2], feature_names=("a",))
        with pytest.raises(InvalidInputError):
            Dataset(features=[[1.0], [2.0]], labels=[1], feature_names=("a",))
        with pytest.raises(InvalidInputError):
            Dataset(features=[[1.0]], labels=[1], feature_names=("a", "b"))


class TestLoadCsv:
    def test_basic_file(self, tmp_path):
        path = write(tmp_path, "f1,f2,label\n1,2,c3\n")
        data = load_csv(path, "label", ["f1", "f2"])
        assert data.n_instances == 1
        assert data.features.tolist() == [[1.0, 2.0]]
        assert data.labels.tolist() == [3]
        assert data.feature_names == ("f1", "f2")

    def test_columns_come_back_in_requested_order(self, tmp_path):
        path = write(tmp_path, "f1,f2,label\n1,2,5\n")
        data = load_csv(path, "label", ["f2", "f1"])
        assert data.features.tolist() == [[2.0, 1.0]]

    def test_missing_column_is_named(self, tmp_path):
        path = write(tmp_path, "f1,f2,label\n1,2,3\n")
        with pytest.raises(SchemaError, match="f9"):
            load_csv(path, "label", ["f1", "f9"])

    def test_duplicate_column_is_rejected(self, tmp_path):
        path = write(tmp_path, "f1,f1,label\n1,2,3\n")
        with pytest.raises(SchemaError, match="f1"):
            load_csv(path, "label", ["f1"])

    def test_mixed_label_formats_are_rejected(self, tmp_path):
        path = write(tmp_path, "f1,label\n1,c3\n2,4\n")
        with pytest.raises(SchemaError, match="mixed"):
            load_csv(path, "label", ["f1"])

    def test_bad_cells_are_reported_with_row_numbers(self, tmp_path):
        path = write(tmp_path, "f1,label\n1,1\noops,2\n3,3\n,4\n")
        with pytest.raises(DataError) as err:
            load_csv(path, "label", ["f1"])
        assert "row 3" in str(err.value)
        assert "row 5" in str(err.value)

    def test_rows_are_named_by_the_line_they_start_on(self, tmp_path):
        # the quoted cell of row 2 spans lines 2 and 3, so x sits on line 4
        path = write(tmp_path, 'b1,room\n"1\n2",1\nx,1\n')
        named = r"2 unusable rows: row 2: unparseable cell '1\\n2'; row 4: unparseable cell 'x'$"
        with pytest.raises(DataError, match=named):
            load_csv(path, "room", ["b1"])
        with pytest.raises(DataError, match=named):
            read_feature_rows(path, ["b1"])
        # a reader error names the line its record starts on too
        path = write(tmp_path, 'b1,room\n1,1\n"1\n2\n' + "9" * 200_000 + '",1\n')
        with pytest.raises(DataError, match="row 3: field larger than field limit"):
            load_csv(path, "room", ["b1"])

    def test_non_finite_cells_are_rejected(self, tmp_path):
        path = write(tmp_path, "f1,label\nnan,1\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, "label", ["f1"])

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, "label", ["f1"])

    def test_header_only_file(self, tmp_path):
        path = write(tmp_path, "f1,label\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, "label", ["f1"])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path, "f1,label\n1,1\n\n2,2\n")
        data = load_csv(path, "label", ["f1"])
        assert data.n_instances == 2


class TestRejectedRows:
    """Both readers name every rejected row by number and cell."""

    TEXT = "f1,f2,label\n1,2,3\n1,oops,3\n , 2,3\nnan,2,3\n1,1e999,3\n1,2\n5,6,7\n"
    REASONS = [
        "row 3: unparseable cell 'oops'",
        "row 4: unparseable cell ''",
        "row 5: non-finite cell 'nan'",
        "row 6: non-finite cell '1e999'",
        "row 7: too few cells",
    ]

    def test_load_csv(self, tmp_path):
        with pytest.raises(DataError) as err:
            load_csv(write(tmp_path, self.TEXT), "label", ["f1", "f2"])
        assert str(err.value).endswith("5 unusable rows: " + "; ".join(self.REASONS))

    def test_read_feature_rows(self, tmp_path):
        with pytest.raises(DataError) as err:
            read_feature_rows(write(tmp_path, self.TEXT), ["f1", "f2"])
        assert str(err.value).endswith("5 unusable rows: " + "; ".join(self.REASONS))

    def test_first_failing_cell_in_requested_order_is_named(self, tmp_path):
        path = write(tmp_path, "f1,f2,label\nnan,x,1\n")
        with pytest.raises(DataError, match="row 2: unparseable cell 'x'"):
            read_feature_rows(path, ["f2", "f1"])
        with pytest.raises(DataError, match="row 2: non-finite cell 'nan'"):
            load_csv(path, "label", ["f1", "f2"])

    def test_long_lists_are_cut_after_ten_rows(self, tmp_path):
        path = write(tmp_path, "f1\n" + "x\n" * 12 + "1\n")
        with pytest.raises(DataError, match=r"12 unusable rows: .*row 11: .*\(and 2 more\)$"):
            read_feature_rows(path, ["f1"])

    def test_cell_that_float_does_not_strip_is_named(self, tmp_path):
        # str.strip() drops "\x1c" but float() does not
        path = write(tmp_path, "f1,label\n1\x1c,1\n")
        with pytest.raises(DataError, match=r"row 2: unparseable cell '1\\x1c'"):
            load_csv(path, "label", ["f1"])

    def test_label_beyond_64_bits_names_its_row(self, tmp_path):
        path = write(tmp_path, "f1,label\n1,3\n2,99999999999999999999999\n")
        with pytest.raises(DataError, match="row 3: label '9+' does not fit"):
            load_csv(path, "label", ["f1"])

    def test_oversized_field_names_its_row(self, tmp_path):
        path = write(tmp_path, "f1,label\n1,3\n" + "1" * 200_000 + ",3\n")
        with pytest.raises(DataError, match="row 3: field larger than field limit"):
            load_csv(path, "label", ["f1"])

    def test_unparseable_label_names_its_row(self, tmp_path):
        path = write(tmp_path, "f1,label\n1,3\n2,room4\n")
        with pytest.raises(SchemaError, match="row 3: label 'room4'"):
            load_csv(path, "label", ["f1"])

    def test_readers_agree_on_good_rows(self, tmp_path):
        path = write(tmp_path, "f1,label,f2\n 1.5 ,c1, -2\n\n3e2,c2,4\n")
        data = load_csv(path, "label", ["f2", "f1"])
        rows = read_feature_rows(path, ["f2", "f1"])
        assert data.features.tolist() == rows.tolist() == [[-2.0, 1.5], [4.0, 300.0]]
        assert data.labels.tolist() == [1, 2]


class TestReadFeatureRows:
    def test_reads_requested_columns(self, tmp_path):
        path = write(tmp_path, "f1,f2,extra\n1,2,x\n3,4,y\n")
        rows = read_feature_rows(path, ["f2", "f1"])
        assert rows.tolist() == [[2.0, 1.0], [4.0, 3.0]]

    def test_rejects_unusable_rows(self, tmp_path):
        path = write(tmp_path, "f1\n1\nbad\n")
        with pytest.raises(DataError, match="row 3"):
            read_feature_rows(path, ["f1"])


class TestByteOrderMark:
    """Spreadsheet exports often start with a UTF-8 byte order mark."""

    def write_bom(self, tmp_path, text):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        return str(path)

    def test_load_csv(self, tmp_path):
        data = load_csv(self.write_bom(tmp_path, "b1,label\n1,2\n"), "label", ["b1"])
        assert data.features.tolist() == [[1.0]]

    def test_read_feature_rows(self, tmp_path):
        rows = read_feature_rows(self.write_bom(tmp_path, "b1,b2\n1,2\n"), ["b1"])
        assert rows.tolist() == [[1.0]]

    def test_read_csv_header(self, tmp_path):
        assert read_csv_header(self.write_bom(tmp_path, "b1,b2\n1,2\n")) == ["b1", "b2"]


READERS = [
    lambda path: load_csv(path, "label", ["b1"]),
    lambda path: read_feature_rows(path, ["b1"]),
    read_csv_header,
]


class TestFileFailures:
    """Every reader turns its file failures into errors that name the path."""

    @pytest.mark.parametrize("read", READERS)
    def test_missing_file_is_a_config_error(self, tmp_path, read):
        path = str(tmp_path / "absent.csv")
        with pytest.raises(ConfigError, match=f"cannot read {path}: No such file"):
            read(path)

    @pytest.mark.parametrize("read", READERS)
    def test_directory_is_a_config_error(self, tmp_path, read):
        with pytest.raises(ConfigError, match=str(tmp_path)):
            read(str(tmp_path))

    @pytest.mark.parametrize("read", READERS)
    @pytest.mark.parametrize("text", [b"b1,label\n1,\xff\n", b"\xffb1,label\n1,2\n"])
    def test_bytes_that_are_not_utf8_are_a_data_error(self, tmp_path, read, text):
        path = tmp_path / "latin1.csv"
        path.write_bytes(text)
        with pytest.raises(DataError, match=f"{path}: not UTF-8 text"):
            read(str(path))
