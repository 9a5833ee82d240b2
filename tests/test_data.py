import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzyloc import data
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
from fuzzyloc.errors import (
    ConfigError, DataError, FuzzylocError, InvalidInputError, SchemaError,
)


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
        # int() reads Arabic-Indic and fullwidth digits; no label holds them
        for bad in ["", "label", "8.5", "c", "cc8", "8c", "\u0663", "\uff15", "c\u0661\u0662"]:
            with pytest.raises(SchemaError):
                parse_label(bad)

    def test_labels_are_64_bit(self):
        assert parse_label(str(2**63 - 1)) == (2**63 - 1, "plain")
        assert parse_label(f"c{-(2**63)}") == (-(2**63), "prefixed")
        # 5,000 digits are more than int() converts by default
        for bad in [str(2**63), f"c{-(2**63) - 1}", "9" * 23, "9" * 5000, "c" + "9" * 5000]:
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
            ((1, 2**63), r"^label_universe\[1\] must be <= 9223372036854775807, got 9223372036854775808$"),
            ((-(2**63) - 1, 1), r"^label_universe\[0\] must be >= -9223372036854775808, got -9223372036854775809$"),
            ((1, 5, 10**20), r"^label_universe\[2\] must be <= 9223372036854775807, got an integer beyond 64 bits$"),
            # an entry is never truncated or parsed into an int
            ((1.7, 2.2), r"label_universe\[0\] must be an integer, got float"),
            (("1", "2", "3"), r"label_universe\[0\] must be an integer, got str"),
            ((True, 2, 3), r"label_universe\[0\] must be an integer, got bool"),
            ((1, np.float64(2.0)), r"label_universe\[1\] must be an integer, got float64"),
        ],
    )
    def test_bad_universes(self, given, named):
        with pytest.raises(InvalidInputError, match=named):
            label_universe([], given)

    @pytest.mark.parametrize("labels, named", [([2.5], "float"), ([True], "bool"), (["2"], "str")])
    def test_bad_labels(self, labels, named):
        with pytest.raises(InvalidInputError, match=re.escape(f"labels[0] must be an integer, got {named}")):
            label_universe(labels, (1, 2, 3))

    def test_a_range_spans_at_most_1024_labels(self):
        assert label_universe([], range(-5, 1019)) == tuple(range(-5, 1019))
        assert label_universe([1, 1024]) == tuple(range(1, 1025))
        for labels, given in [([1, 1025], None), ([], range(1, 1026))]:
            with pytest.raises(InvalidInputError, match=re.escape("1..1025 spans more than 1024")):
                label_universe(labels, given)

    @pytest.mark.parametrize("huge, named", [
        (range(1, 10**20), "label range ends[1] must be <= 9223372036854775807"),
        (range(10**5000), "label range ends[1] must be <= 9223372036854775807"),
        (range(-(10**5000), 0), "label range ends[0] must be >= -9223372036854775808"),
    ])
    def test_a_huge_range_is_refused_without_expanding_it(self, huge, named):
        # an end beyond 64 bits is refused before the span, which formats both
        # ends; str() refuses an int of more than 4,300 digits
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}, got an integer beyond 64 bits$"):
            label_universe([], huge)
        with pytest.raises(InvalidInputError, match=re.escape("-9223372036854775808..9223372036854775807")):
            label_universe([-(2**63), 2**63 - 1])

    def test_a_label_beyond_64_bits_is_refused_before_the_cover_check(self):
        # so the list of uncovered labels only ever formats int64 values
        named = "labels[2] must be <= 9223372036854775807, got an integer beyond 64 bits"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}$"):
            label_universe([1, 3, 10**5000], (1, 2))
        with pytest.raises(InvalidInputError, match=re.escape("cover labels [3, 9223372036854775807]") + "$"):
            label_universe([1, 3, 2**63 - 1], (1, 2))

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

    @pytest.mark.parametrize("labels, dtype", [
        ([1.5, 2.5], "float64"), ([1.0, 2.0], "float64"), ([True, False], "bool"), (["3", "4"], "<U1"),
        (np.array([2**63, 1], dtype=np.uint64), "uint64"),
    ])
    def test_labels_are_integers_and_never_cast(self, labels, dtype):
        with pytest.raises(InvalidInputError, match=f"labels must be 64-bit integers, got dtype {dtype}"):
            Dataset(features=[[0.0], [1.0]], labels=labels, feature_names=("a",))

    def test_integer_labels_of_any_width_become_int64(self):
        for labels in ([3, 4], np.array([3, 4], dtype=np.uint8), np.array([3, 4], dtype=np.int64)):
            data = Dataset(features=[[0.0], [1.0]], labels=labels, feature_names=("a",))
            assert data.labels.dtype == np.int64 and data.labels.tolist() == [3, 4]
        empty = Dataset(features=np.zeros((0, 1)), labels=[], feature_names=("a",))
        assert empty.labels.dtype == np.int64


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

    @pytest.mark.parametrize("header, features, named", [
        ("f1,f1,label", ["f1"], "column 'f1' appears 2 times in header"),
        ("f1,f2,label", ["f1", "f1"], "column 'f1' is requested twice"),
        ("f1,f2,label", ["f1", "label"], "column 'label' is requested twice"),
    ])
    def test_duplicate_column_is_rejected(self, tmp_path, header, features, named):
        path = write(tmp_path, f"{header}\n1,2,3\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: {named}")):
            load_csv(path, "label", features)
        if "label" not in features:
            with pytest.raises(SchemaError, match=re.escape(f"{path}: {named}")):
                read_feature_rows(path, features)

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
    """Both readers name every rejected row by number and cell. Row 9 holds
    decimal commas: -51,5 and -61,2 would read as f1 -51, f2 5 and label -61."""

    TEXT = "f1,f2,label\n1,2,3\n1,oops,3\n , 2,3\nnan,2,3\n1,1e999,3\n1,2\n5,6,7\n-51,5,-61,2\n"
    REASONS = [
        "row 3: unparseable cell 'oops'",
        "row 4: unparseable cell ''",
        "row 5: non-finite cell 'nan'",
        "row 6: non-finite cell '1e999'",
        "row 7: too few cells",
        "row 9: too many cells",
    ]

    def test_load_csv(self, tmp_path):
        with pytest.raises(DataError) as err:
            load_csv(write(tmp_path, self.TEXT), "label", ["f1", "f2"])
        assert str(err.value).endswith("6 unusable rows: " + "; ".join(self.REASONS))

    def test_read_feature_rows(self, tmp_path):
        with pytest.raises(DataError) as err:
            read_feature_rows(write(tmp_path, self.TEXT), ["f1", "f2"])
        assert str(err.value).endswith("6 unusable rows: " + "; ".join(self.REASONS))

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

    @pytest.mark.parametrize("cell", ["1_5", "1_000.5", "1e1_0", "\u0661\u0662", "\uff15.5"])
    def test_cell_with_digit_separators_is_named(self, tmp_path, cell):
        # float() reads PEP 515 underscores, as 1_5 = 15.0, and non-ASCII
        # digits, as Arabic-Indic 12 = 12.0; no CSV number holds them
        path = write(tmp_path, f"f1,f2,label\n1,2,1\n3,{cell},2\n")
        with pytest.raises(DataError, match=f"1 unusable rows: row 3: unparseable cell '{cell}'$"):
            load_csv(path, "label", ["f1", "f2"])
        with pytest.raises(DataError, match=f"row 3: unparseable cell '{cell}'$"):
            read_feature_rows(path, ["f2"])

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


    @pytest.mark.parametrize("read", [
        lambda path: read_feature_rows(path, []),
        lambda path: load_csv(path, "label", []),
    ])
    def test_both_readers_refuse_an_empty_feature_list_alike(self, tmp_path, read):
        path = write(tmp_path, "f1,label\n1,2\n")
        with pytest.raises(SchemaError) as info:
            read(path)
        assert str(info.value) == f"{path}: no feature columns requested"
        # refused before the file is opened, so a missing file says the same
        absent = str(tmp_path / "absent.csv")
        with pytest.raises(SchemaError, match="no feature columns requested"):
            read(absent)


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


def outcome(read):
    """What read gives: the bytes, shape and labels it returns, or the
    class and message of the error it raises."""
    try:
        features, labels = read()
    except FuzzylocError as exc:
        return type(exc), str(exc)
    return features.tobytes(), features.shape, labels


SIGNS = st.sampled_from(["", "+", "-"])
DIGITS = st.text("0123456789", min_size=1, max_size=4)


@st.composite
def numbers(draw):
    """A cell that float() reads as a finite number, in one of the forms a
    numeric export holds."""
    kind = draw(st.sampled_from(["repr", "integer", "decimal", "subnormal"]))
    if kind == "repr":
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == "subnormal":
        return draw(st.sampled_from(["5e-324", "-4.9e-324", "1e-320", "2.2250738585072009e-308"]))
    text = draw(SIGNS) + "0" * draw(st.integers(0, 2)) + draw(DIGITS)
    if kind == "decimal":
        text += "." + draw(st.text("0123456789", max_size=17))
        exponent = draw(st.sampled_from("eE")) + draw(SIGNS) + draw(DIGITS)
        if draw(st.booleans()) and math.isfinite(float(text + exponent)):
            text += exponent
    return text


LABELS = st.builds(lambda sign, zeros, n: sign + "0" * zeros + str(n),
                   SIGNS, st.integers(0, 2), st.integers(0, 2**63 - 1))
# any text of the plainly numeric alphabet, "," aside: faults such as "1e",
# "--", "" or "1e400" among numbers
NUMERIC_TEXT = st.text("0123456789.eE+-", max_size=6)


@st.composite
def numeric_tables(draw, faulty=False):
    """(text, cell count, feature positions, label position or None) of a
    numeric CSV file: random shape, requested column order and label
    position, blank lines, and a final newline or none. A faulty table
    also draws cells from NUMERIC_TEXT and rows of other widths."""
    n_cells = draw(st.integers(1, 6))
    label_pos = draw(st.none() | st.integers(0, n_cells - 1)) if n_cells > 1 else None
    others = [i for i in range(n_cells) if i != label_pos]
    feat_pos = draw(st.permutations(others))[: draw(st.integers(1, len(others)))]
    cell = numbers() | NUMERIC_TEXT if faulty else numbers()
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        width = n_cells + (draw(st.sampled_from([0, 0, 0, -1, 1])) if faulty else 0)
        row = [draw(cell) for _ in range(max(width, 1))]
        if label_pos is not None and label_pos < len(row):
            row[label_pos] = draw(LABELS | NUMERIC_TEXT if faulty else LABELS)
        lines.append(",".join(row))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    text = "\n".join([",".join(f"b{i}" for i in range(n_cells))] + lines)
    return text + draw(st.sampled_from(["\n", ""])), n_cells, list(feat_pos), label_pos


class TestNumericBodies:
    """A plainly numeric file goes through np.loadtxt (data._numeric_table);
    every other file, and every fault, goes to the csv reader, so arrays,
    messages and row numbers are the same either way."""

    # a missing final newline, a blank line, and a label between features
    PLAIN = "b1,room,b2\n-61.5,3,-70\n\n+1e-5,-04,2.5E+2\n0.0,7,5e-324"

    @pytest.fixture(autouse=True, scope="class")
    def files_of_any_size(self):
        with mock.patch.object(data, "_NUMERIC_MIN_BYTES", 0):
            yield

    def test_a_small_file_is_left_to_the_csv_reader(self, tmp_path):
        with mock.patch.object(data, "_NUMERIC_MIN_BYTES", 8192):
            row = "-61.5,3,-70\n"
            rows = 8192 // len(row)
            small = write(tmp_path, "b1,room,b2\n" + row * (rows - 1), "small.csv")
            large = write(tmp_path, "b1,room,b2\n" + row * rows, "large.csv")
            assert data._numeric_table(small, 3, [0, 2], 1) is None
            assert data._numeric_table(large, 3, [0, 2], 1)[1] == [3] * rows

    @staticmethod
    def csv_reader_only():
        return mock.patch.object(data, "_numeric_table", lambda *args: None)

    @pytest.mark.parametrize("body, reason", [
        ("1,2,3\n4,5,6,7\n", "row 3: too many cells"),
        ("1,2,3\n4,5\n", "row 3: too few cells"),
        ("\n1,2,3,\n4,5,6\n", "row 3: too many cells"),
        ("1,2,3\n\n4,5", "row 4: too few cells"),
    ])
    def test_every_row_width_is_checked(self, tmp_path, body, reason):
        # np.loadtxt with usecols reads 4,5,6,7 as [4, 5]; the cut cell of
        # 4,5 is the label, which read_feature_rows never reads
        path = write(tmp_path, "b1,b2,room\n" + body)
        for read in (lambda: load_csv(path, "room", ["b1", "b2"]),
                     lambda: read_feature_rows(path, ["b2", "b1"])):
            with pytest.raises(DataError) as info:
                read()
            assert str(info.value) == f"{path}: 1 unusable rows: {reason}"

    def test_a_plain_file_takes_numpys_parser(self, tmp_path):
        path = write(tmp_path, self.PLAIN)
        fast = data._numeric_table(path, 3, [2, 0], 1)
        assert fast is not None
        with self.csv_reader_only():
            features, labels = data._read_table(path, ["b2", "b1"], "room")
        assert fast[0].tobytes() == features.tobytes() and fast[1] == labels == [3, -4, 7]
        assert features.tolist() == [[-70.0, -61.5], [250.0, 1e-5], [5e-324, 0.0]]

    def test_the_body_is_read_once_for_the_checks_and_the_parser(self, tmp_path):
        path = write(tmp_path, self.PLAIN)
        with mock.patch.object(data, "open", wraps=open, create=True) as opened, \
                mock.patch.object(data.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            features, labels = data._read_table(path, ["b2", "b1"], "room")
        assert labels == [3, -4, 7]
        # the csv module's handle for the header, then the body's bytes
        assert [call.args[0] for call in opened.call_args_list] == [path, path]
        assert opened.call_args_list[1].args[1:] == ("rb",)
        assert not isinstance(loadtxt.call_args.args[0], (str, os.PathLike))

    @pytest.mark.parametrize("cell, reason", [
        ("1e400", "non-finite cell '1e400'"),
        ("-1e400", "non-finite cell '-1e400'"),
        ("", "unparseable cell ''"),
        ("1e", "unparseable cell '1e'"),
        ("1-2", "unparseable cell '1-2'"),
    ])
    def test_a_faulty_cell_keeps_its_message(self, tmp_path, cell, reason):
        path = write(tmp_path, f"b1,b2,room\n1,2,3\n4,{cell},6\n")
        assert data._numeric_table(path, 3, [0, 1], 2) is None
        for read in (lambda: load_csv(path, "room", ["b1", "b2"]),
                     lambda: read_feature_rows(path, ["b2"])):
            with pytest.raises(DataError) as info:
                read()
            assert str(info.value) == f"{path}: 1 unusable rows: row 3: {reason}"
        # an unselected cell is not read
        assert read_feature_rows(path, ["b1"]).tolist() == [[1.0], [4.0]]

    @pytest.mark.parametrize("label, error, message", [
        ("99999999999999999999", DataError, "does not fit in a 64-bit integer"),
        ("1.0", SchemaError, "is neither an integer nor a c<N> class name"),
        ("-", SchemaError, "is neither an integer nor a c<N> class name"),
    ])
    def test_a_faulty_label_keeps_its_message(self, tmp_path, label, error, message):
        path = write(tmp_path, f"b1,room\n1,3\n2,{label}\n")
        with pytest.raises(error) as info:
            load_csv(path, "room", ["b1"])
        assert str(info.value) == f"{path}: row 3: label {label!r} {message}"
        assert read_feature_rows(path, ["b1"]).tolist() == [[1.0], [2.0]]

    def test_an_oversized_unselected_cell_is_refused_as_before(self, tmp_path):
        path = write(tmp_path, "b1,b2\n1,2\n3," + "4" * 200_000 + "\n")
        with pytest.raises(DataError, match="row 3: field larger than field limit"):
            read_feature_rows(path, ["b1"])

    def test_a_header_record_is_not_taken_for_its_first_line(self, tmp_path):
        # "\r" ends the header record, so 5,6 is a row of two cells
        path = write(tmp_path, "b1\r5,6\n7\n")
        with pytest.raises(DataError, match=r"1 unusable rows: row 2: too many cells$"):
            read_feature_rows(path, ["b1"])
        # a quoted "\n" does not end it
        path = write(tmp_path, '"b\n1",b2\n5,6\n')
        assert read_feature_rows(path, ["b\n1"]).tolist() == [[5.0]]

    @pytest.mark.parametrize("text", [
        "b1,b2\r\n1,2\r\n3,4\r\n",
        '"b1",b2\n1,2\n3,4\n',
        "b1,b2\n1,2\n3, 4\n",
        'b1,b2\n1,2\n3,"4"\n',
        "\ufeffb1,b2\n1,2\n3,4\n",
    ])
    def test_other_files_read_as_before(self, tmp_path, text):
        path = write(tmp_path, text)
        assert read_feature_rows(path, ["b2", "b1"]).tolist() == [[2.0, 1.0], [4.0, 3.0]]

    @settings(max_examples=150, deadline=None)
    @given(table=numeric_tables())
    def test_plain_files_read_bit_for_bit_as_the_csv_reader_reads_them(
        self, tmp_path_factory, table
    ):
        text, n_cells, feat_pos, label_pos = table
        path = tmp_path_factory.getbasetemp() / "plain.csv"
        path.write_text(text, encoding="utf-8")
        names = [f"b{i}" for i in feat_pos]
        label = None if label_pos is None else f"b{label_pos}"
        fast = data._numeric_table(str(path), n_cells, feat_pos, label_pos)
        assert fast is not None
        with self.csv_reader_only():
            features, labels = data._read_table(str(path), names, label)
        assert fast[0].shape == features.shape
        assert fast[0].tobytes() == features.tobytes()
        assert fast[1] == labels

    @settings(max_examples=150, deadline=None)
    @given(table=numeric_tables(faulty=True))
    def test_any_numeric_text_reads_or_fails_as_the_csv_reader_has_it(
        self, tmp_path_factory, table
    ):
        text, _, feat_pos, label_pos = table
        path = tmp_path_factory.getbasetemp() / "numeric.csv"
        path.write_text(text, encoding="utf-8")
        names = [f"b{i}" for i in feat_pos]
        label = None if label_pos is None else f"b{label_pos}"
        got = outcome(lambda: data._read_table(str(path), names, label))
        with self.csv_reader_only():
            assert got == outcome(lambda: data._read_table(str(path), names, label))
