import numpy as np
import pytest

from fuzzyloc.data import (
    Dataset,
    Normalization,
    fit_normalization,
    load_csv,
    parse_label,
    read_csv_header,
    read_feature_rows,
)
from fuzzyloc.errors import DataError, InvalidInputError, SchemaError


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
