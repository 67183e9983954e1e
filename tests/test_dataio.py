import warnings

import numpy as np
import pytest

from influence_market import (
    DatasetSchema,
    DomainError,
    EmptyAfterFiltering,
    IoError,
    MissingColumn,
    NonNumericCell,
    builtin_schema,
    builtin_schemas,
    load_csv,
    load_csv_with_stats,
    read_results,
    read_schema,
    write_results,
    write_schema,
)


def write_file(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_exact_small_file(self, tmp_path):
        path = write_file(
            tmp_path / "t.csv",
            "a,b,target\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n",
        )
        schema = DatasetSchema(name="t", target_column="target", standardize=False)
        data = load_csv(path, schema)
        np.testing.assert_array_equal(data.X, [[1, 2], [4, 5], [7, 8]])
        np.testing.assert_array_equal(data.y, [3, 6, 9])

    def test_drop_row_na_policy(self, tmp_path):
        path = write_file(
            tmp_path / "t.csv",
            "a,target\n1.0,1.0\n,2.0\n3.0,3.0\n",
        )
        schema = DatasetSchema(name="t", target_column="target", standardize=False)
        data = load_csv(path, schema)
        assert len(data) == 2
        np.testing.assert_array_equal(data.y, [1.0, 3.0])

    def test_error_na_policy(self, tmp_path):
        path = write_file(tmp_path / "t.csv", "a,target\n1.0,1.0\n?,2.0\n")
        schema = DatasetSchema(
            name="t", target_column="target", standardize=False, na_policy="error"
        )
        with pytest.raises(NonNumericCell) as err:
            load_csv(path, schema)
        assert err.value.row == 3
        assert err.value.column == "a"

    def test_non_numeric_cell_coordinates(self, tmp_path):
        path = write_file(tmp_path / "t.csv", "a,b,target\n1.0,oops,3.0\n")
        schema = DatasetSchema(name="t", target_column="target", standardize=False)
        with pytest.raises(NonNumericCell) as err:
            load_csv(path, schema)
        assert err.value.row == 2
        assert err.value.column == "b"

    @pytest.mark.parametrize(
        "text, row, column",
        [
            ("a,b,target\n1.0,2.0,3.0\n4.0,inf,5.0\n", 3, "b"),
            ("a,b,target\n1.0,2.0,-Infinity\n4.0,5.0,6.0\n", 2, "target"),
            ("a,b,target\n1.0,2.0,3.0\n1e400,5.0,6.0\n", 3, "a"),
        ],
    )
    def test_non_finite_cell_rejected_before_standardizing(self, tmp_path, text, row, column):
        path = write_file(tmp_path / "t.csv", text)
        schema = DatasetSchema(name="t", target_column="target", standardize=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonNumericCell) as err:
                load_csv_with_stats(path, schema)
        assert err.value.row == row
        assert err.value.column == column
        assert "non-finite" in str(err.value)

    def test_missing_target_column(self, tmp_path):
        path = write_file(tmp_path / "t.csv", "a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(path, DatasetSchema(name="t", target_column="target"))

    def test_dropped_columns_removed(self, tmp_path):
        path = write_file(
            tmp_path / "t.csv", "id,a,target\n9,1.0,2.0\n8,3.0,4.0\n"
        )
        schema = DatasetSchema(
            name="t", target_column="target", dropped_columns=("id",), standardize=False
        )
        data = load_csv(path, schema)
        assert data.dimension == 1
        np.testing.assert_array_equal(data.X, [[1.0], [3.0]])

    def test_empty_after_filtering(self, tmp_path):
        path = write_file(tmp_path / "t.csv", "a,target\n,1.0\n,2.0\n")
        schema = DatasetSchema(name="t", target_column="target")
        with pytest.raises(EmptyAfterFiltering):
            load_csv(path, schema)

    def test_missing_file(self, tmp_path):
        schema = DatasetSchema(name="t", target_column="target")
        with pytest.raises(IoError):
            load_csv(tmp_path / "absent.csv", schema)

    def test_order_preserved_and_deterministic(self, tmp_path):
        rows = "\n".join(f"{i}.0,{i * 2}.0" for i in range(20))
        path = write_file(tmp_path / "t.csv", "a,target\n" + rows + "\n")
        schema = DatasetSchema(name="t", target_column="target", standardize=False)
        a = load_csv(path, schema)
        b = load_csv(path, schema)
        np.testing.assert_array_equal(a.X, b.X)
        assert list(a.y) == [2.0 * i for i in range(20)]

    def test_custom_delimiter(self, tmp_path):
        path = write_file(tmp_path / "t.csv", "a;target\n1.0;2.0\n")
        schema = DatasetSchema(
            name="t", target_column="target", delimiter=";", standardize=False
        )
        data = load_csv(path, schema)
        assert data.y[0] == 2.0


class TestStandardization:
    def test_stats_invert_to_originals(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = rng.normal(loc=3.0, scale=7.0, size=(30, 2))
        lines = ["a,b,target"] + [f"{float(r[0])!r},{float(r[1])!r},0.0" for r in raw]
        path = write_file(tmp_path / "t.csv", "\n".join(lines) + "\n")
        schema = DatasetSchema(name="t", target_column="target", standardize=True)
        data, stats = load_csv_with_stats(path, schema)
        assert stats is not None
        assert abs(data.X.mean()) < 1e-12
        np.testing.assert_allclose(stats.invert(data.X), raw, atol=1e-12)

    def test_no_standardization_returns_none(self, tmp_path):
        path = write_file(tmp_path / "t.csv", "a,target\n1.0,2.0\n3.0,4.0\n")
        schema = DatasetSchema(name="t", target_column="target", standardize=False)
        _, stats = load_csv_with_stats(path, schema)
        assert stats is None


class TestBuiltinSchemas:
    def test_all_five_present(self):
        names = {s.name for s in builtin_schemas()}
        assert names == {"red-wine", "white-wine", "air-quality", "crime", "parkinsons"}

    def test_red_wine_has_eleven_predictors(self, tmp_path):
        schema = builtin_schema("red-wine")
        columns = [
            "fixed acidity", "volatile acidity", "citric acid", "residual sugar",
            "chlorides", "free sulfur dioxide", "total sulfur dioxide", "density",
            "pH", "sulphates", "alcohol", "quality",
        ]
        header = ";".join(columns)
        row = ";".join(["1.0"] * 12)
        path = write_file(tmp_path / "wine.csv", header + "\n" + row + "\n" + row + "\n")
        data = load_csv(path, schema)
        assert data.dimension == 11

    def test_crime_drops_27_leaving_100_predictors(self, tmp_path):
        schema = builtin_schema("crime")
        assert len(schema.dropped_columns) == 27
        filler = [f"f{i}" for i in range(100)]
        columns = list(schema.dropped_columns) + filler + ["ViolentCrimesPerPop"]
        assert len(columns) == 128
        header = ",".join(columns)
        row = ",".join(["0.5"] * 128)
        path = write_file(tmp_path / "crime.csv", header + "\n" + row + "\n" + row + "\n")
        data = load_csv(path, schema)
        assert data.dimension == 100

    def test_air_quality_schema(self):
        schema = builtin_schema("air-quality")
        assert schema.target_column == "C6H6(GT)"
        assert len(schema.dropped_columns) == 6
        assert schema.delimiter == ";"

    def test_parkinsons_schema(self):
        schema = builtin_schema("parkinsons")
        assert schema.target_column == "total_UPDRS"
        assert len(schema.dropped_columns) == 4

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            builtin_schema("nope")


class TestWriteResults:
    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([], path, columns=["a", "b"])
        assert path.read_text() == "a,b\n"

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [
            {"x": float(rng.normal()) * 10 ** int(rng.integers(-8, 9)), "tag": f"r{i}"}
            for i in range(50)
        ]
        path = tmp_path / "out.csv"
        write_results(rows, path)
        back = read_results(path)
        assert len(back) == 50
        for row, orig in zip(back, rows):
            assert float(row["x"]) == orig["x"]
            assert row["tag"] == orig["tag"]

    def test_large_table_row_count(self, tmp_path):
        rows = [{"i": i, "v": i * 0.5} for i in range(5000)]
        path = tmp_path / "big.csv"
        write_results(rows, path)
        assert len(read_results(path)) == 5000

    def test_key_value_round_trip(self, tmp_path):
        data = {"alpha": 1.5, "mode": "inclusive", "flag": True, "n": 12}
        path = tmp_path / "summary.txt"
        write_results(data, path, fmt="key-value-summary")
        back = read_results(path, fmt="key-value-summary")
        assert back["alpha"] == 1.5
        assert back["mode"] == "inclusive"
        assert back["flag"] is True
        assert back["n"] == 12

    def test_deterministic_column_order(self, tmp_path):
        rows = [{"b": 1, "a": 2}]
        path = tmp_path / "cols.csv"
        write_results(rows, path)
        assert path.read_text().splitlines()[0] == "b,a"


class TestSchemaFiles:
    def test_schema_round_trip(self, tmp_path):
        schema = builtin_schema("crime")
        path = tmp_path / "crime.schema"
        write_schema(schema, path)
        back = read_schema(path)
        assert back == schema

    def test_target_in_dropped_rejected(self):
        with pytest.raises(DomainError):
            DatasetSchema(name="x", target_column="t", dropped_columns=("t",))
