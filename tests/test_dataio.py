import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from influence_market.dataio import _WRITE_BLOCK, _load_clean, _load_columns
from influence_market.errors import InfluenceMarketError

from helpers import per_row_load_csv, per_row_read_results, per_row_write_results

# At least 150 examples each, and the profile's count where it is larger.
CONVERTER_SETTINGS = settings(max_examples=max(150, settings().max_examples), deadline=None)


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

    @pytest.mark.parametrize("name", ["007", "1e3", "true", "010"])
    def test_schema_round_trip_keeps_names_as_written(self, tmp_path, name):
        schema = DatasetSchema(
            name=name, target_column=name, dropped_columns=("1e3x", name + "0", "false"),
            delimiter=";", standardize=False,
        )
        path = tmp_path / "t.schema"
        write_schema(schema, path)
        assert read_schema(path) == schema

    @pytest.mark.parametrize("key", ["name", "target_column"])
    def test_schema_missing_key(self, tmp_path, key):
        path = tmp_path / "t.schema"
        path.write_text("name=t\ntarget_column=y\n".replace(f"{key}=", "other="))
        with pytest.raises(IoError, match=f"t.schema.*'{key}'"):
            read_schema(path)

    @pytest.mark.parametrize(
        "text, value", [("true", True), ("1", True), ("false", False), ("0", False)]
    )
    def test_schema_standardize_spellings(self, tmp_path, text, value):
        path = tmp_path / "t.schema"
        path.write_text(f"name=t\ntarget_column=y\nstandardize={text}\n")
        assert read_schema(path).standardize is value

    @pytest.mark.parametrize("text", ["False", "no", "maybe", "", "yes", "2"])
    def test_schema_standardize_other_values_rejected(self, tmp_path, text):
        path = tmp_path / "t.schema"
        path.write_text(f"name=t\ntarget_column=y\nstandardize={text}\n")
        with pytest.raises(IoError, match=f"t.schema.*'standardize'.*{text!r}"):
            read_schema(path)

    def test_target_in_dropped_rejected(self):
        with pytest.raises(DomainError):
            DatasetSchema(name="x", target_column="t", dropped_columns=("t",))


class TestUnreadableFiles:
    BYTES = b"a,b,target\n1.0,\xff2.0,3.0\n"

    def test_load_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(self.BYTES)
        with pytest.raises(IoError, match="t.csv"):
            load_csv(path, DatasetSchema(name="t", target_column="target"))

    def test_unreadable_line_before_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        # The bad byte lies past the first 8 KB that reading the header decodes.
        path.write_bytes(b"a,b\n" + b"1.0,2.0\n" * 2000 + b"3.0,\xff\n")
        with pytest.raises(IoError, match="t.csv"):
            load_csv(path, DatasetSchema(name="t", target_column="target"))

    @pytest.mark.parametrize("fmt", ["csv", "key-value-summary"])
    def test_read_results(self, tmp_path, fmt):
        path = tmp_path / "t.out"
        path.write_bytes(self.BYTES)
        with pytest.raises(IoError, match="t.out"):
            read_results(path, fmt=fmt)

    @pytest.mark.parametrize(
        "cell", ["1" * 200_000, "0" * 200_000 + "1", '"1' + "\n" * 200_000 + '"']
    )
    def test_oversized_csv_field(self, tmp_path, cell):
        path = write_file(tmp_path / "t.csv", "a,target\n" + cell + ",1\n")
        with pytest.raises(IoError, match="t.csv.*field limit"):
            load_csv(path, DatasetSchema(name="t", target_column="target"))
        with pytest.raises(IoError, match="t.csv.*field limit"):
            read_results(path)

    def test_read_schema(self, tmp_path):
        path = tmp_path / "t.schema"
        path.write_bytes(b"name=t\ntarget_column=\xe9\n")
        with pytest.raises(IoError, match="t.schema"):
            read_schema(path)


class TestCPass:
    SCHEMA = DatasetSchema(name="t", target_column="target", standardize=False)

    @pytest.mark.parametrize(
        "text",
        [
            '"x\ny",target\n1,2\n3,4\n',  # a header holding a quoted newline
            "x,target\r\n1,2\r\n3,4",  # CRLF, no final newline
            'x,target\n"1","2"\n\n3,4,5\n',  # quoted numbers, a blank line, a wide row
        ],
    )
    def test_clean_file_takes_c_pass(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        clean = _load_clean(path, self.SCHEMA)
        assert clean is not None
        assert [bits(a) for a in clean] == [bits(a) for a in _load_columns(path, self.SCHEMA)]

    @pytest.mark.parametrize(
        "text",
        [
            "x,target\n",  # no body
            "x,target\n\r\n\n",  # blank lines only
            "x,target\n1,nan\n",
            "x,target\n1,2\n3\n",  # a short row
            "x,target\n" + "0" * 200_000 + "1,2\n",  # a field over csv's limit
            'x,target\n"1' + "\n" * 200_000 + '",2\n',
        ],
    )
    def test_other_file_goes_to_column_path(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        assert _load_clean(path, self.SCHEMA) is None


class TestWriteResultsColumns:
    def test_missing_column_names_row_and_column(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(MissingColumn, match=r"row 1 .*'a'"):
            write_results([{"a": 1.0}, {"b": 2.0}], path)
        assert not path.exists()

    def test_first_missing_cell_in_row_order(self, tmp_path):
        rows = [{"a": 1, "b": 2}, {"a": 3}, {"b": 4}]
        with pytest.raises(MissingColumn, match=r"row 1 .*'b'"):
            write_results(rows, tmp_path / "out.csv")

    def test_numpy_bools_round_trip_in_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([{"flag": np.True_, "n": 1}, {"flag": np.False_, "n": 2}], path)
        assert path.read_text() == "flag,n\ntrue,1\nfalse,2\n"
        back = read_results(path)
        assert [row["flag"] for row in back] == [True, False]
        assert all(type(row["flag"]) is bool for row in back)

    def test_numpy_bools_round_trip_in_key_value(self, tmp_path):
        path = tmp_path / "summary.txt"
        write_results({"yes": np.True_, "no": np.False_}, path, fmt="key-value-summary")
        assert read_results(path, fmt="key-value-summary") == {"yes": True, "no": False}


class TestReadResultsTypes:
    @pytest.mark.parametrize("blank_line", [False, True])
    def test_cells_keep_their_python_types(self, tmp_path, blank_line):
        rows = ["i,x,s", "-0,1_000,true", "9" * 400 + ",1e3,x", "5,2.5,false"]
        if blank_line:
            rows.insert(2, "")
        path = write_file(tmp_path / "t.csv", "\n".join(rows) + "\n")
        back = read_results(path)
        assert typed(back) == typed(per_row_read_results(path))
        types = [[int, int, bool], [int, float, str], [int, float, bool]]
        if blank_line:
            types.insert(1, [])
        assert [list(map(type, row.values())) for row in back] == types
        assert back[-2]["i"] == int("9" * 400)


# Cells for the column-at-a-time converters, mixed so that most columns take
# the bulk path and some need a cell-by-cell look.
NUMBERS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from([" 2.5 ", "1_000", "-0", "1e3", "7"]),
)
NA_CELLS = st.sampled_from(["", "  ", "NA", " NA ", "N/A", "NaN", "nan", " nan", "?", " ? "])
NON_FINITE = st.sampled_from(["NAN", "-nan", "inf", " -Infinity", "1e400", "-1e400"])
NON_NUMERIC = st.sampled_from(["oops", "1,5", "2;3", 'say "hi"', "1.2.3", "true"])
LOAD_CELLS = st.one_of(NUMBERS, NUMBERS, NUMBERS, NUMBERS, NUMBERS, NUMBERS,
                       NA_CELLS, NA_CELLS, NON_FINITE, NON_NUMERIC)


@st.composite
def csv_tables(draw):
    """A schema and the text of a CSV it loads: csv.writer rows that are all
    numbers, numbers and NaN spellings, or ragged and blank rows with NA
    spellings, non-finite and non-numeric cells and quoted delimiters; or
    raw text csv.writer never writes."""
    n_features = draw(st.integers(0, 3))
    names = [f"x{j}" for j in range(n_features)] + ["target"]
    dropped = ("id",) if draw(st.booleans()) else ()
    names += list(dropped)
    names = draw(st.permutations(names))
    schema = DatasetSchema(
        name="t",
        target_column="target",
        dropped_columns=dropped,
        delimiter=draw(st.sampled_from([",", ";"])),
        standardize=draw(st.booleans()),
        na_policy=draw(st.sampled_from(["drop-row", "error"])),
    )
    width = len(names)
    mode = draw(st.sampled_from(["numbers", "nan spellings", "messy", "raw text"]))
    if mode == "raw text":
        return schema, draw(raw_csv_text(names, schema.delimiter))
    if mode == "numbers":
        # Every column takes the bulk conversion.
        row = st.lists(NUMBERS, min_size=width, max_size=width)
    elif mode == "nan spellings":
        # The bulk conversion succeeds but gives NaNs, some of them missing values.
        cells = st.one_of(NUMBERS, NUMBERS, NUMBERS, st.sampled_from(["nan", " NaN", "NAN"]))
        row = st.lists(cells, min_size=width, max_size=width)
    else:
        row = st.one_of(
            st.lists(LOAD_CELLS, min_size=width, max_size=width),
            st.lists(LOAD_CELLS, min_size=max(width - 2, 0), max_size=width + 2),
            st.sampled_from([[], [""], [" ", ""], ["", "", "", ""]]),
        )
    rows = draw(st.lists(row, max_size=30))
    buffer = io.StringIO()
    csv.writer(buffer, delimiter=schema.delimiter, lineterminator="\n").writerows([names] + rows)
    return schema, buffer.getvalue()


@st.composite
def raw_csv_text(draw, names, delimiter):
    """CSV text with fully quoted numbers, blank and whitespace-only lines,
    ``#`` cells and all-number rows wider than the header; CRLF or LF
    endings, a UTF-8 BOM or none, a last row with or without its newline;
    an empty body among them."""
    width = len(names)
    numbers = st.lists(NUMBERS, min_size=width, max_size=width)
    line = st.one_of(
        numbers.map(delimiter.join),
        numbers.map(lambda cells: delimiter.join(f'"{cell}"' for cell in cells)),
        st.lists(NUMBERS, min_size=width + 1, max_size=width + 3).map(delimiter.join),
        st.lists(
            st.one_of(NUMBERS, NUMBERS, st.sampled_from(["#", "# 1", "1#"])),
            min_size=width,
            max_size=width,
        ).map(delimiter.join),
        st.sampled_from(["", " ", "\t", "  "]),
    )
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join([delimiter.join(names)] + draw(st.lists(line, max_size=20)))
    if draw(st.booleans()):
        text += ending
    return "\ufeff" + text if draw(st.booleans()) else text


@st.composite
def results_tables(draw):
    """Header and rows of a results CSV: either full rows of numbers, so that
    columns take the bulk parse, or ragged and blank rows of any cells."""
    header = draw(st.lists(st.sampled_from(["a", "b", "c", "a b"]), max_size=4))
    if draw(st.booleans()):
        row = st.lists(NUMBERS, min_size=len(header), max_size=len(header))
    else:
        cells = st.one_of(NUMBERS, NA_CELLS, NON_FINITE, NON_NUMERIC,
                          st.sampled_from(["9" * 400, "false", "x\ny", "0x10"]))
        row = st.lists(cells, max_size=5)
    return [header] + draw(st.lists(row, max_size=8))


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def outcome(call):
    """What a converter returned, or its exception's type, text and coordinates."""
    try:
        return "ok", call()
    except InfluenceMarketError as exc:
        return "error", (type(exc), str(exc), getattr(exc, "row", None),
                         getattr(exc, "column", None))


def bits(array):
    """Shape, dtype, memory layout and bytes: equal bits means equal arrays."""
    if array is None:
        return None
    return array.shape, array.dtype, array.flags.c_contiguous, array.tobytes()


def typed(records):
    return [[(k, type(v), repr(v)) for k, v in row.items()] for row in records]


class TestColumnConvertersMatchPerRowReference:
    @CONVERTER_SETTINGS
    @given(table=csv_tables())
    def test_load_csv(self, tmp_path_factory, table):
        schema, text = table
        path = tmp_path_factory.mktemp("load") / "t.csv"
        path.write_bytes(text.encode("utf-8"))

        def columnwise():
            data, stats = load_csv_with_stats(path, schema)
            mean, scale = (None, None) if stats is None else (stats.mean, stats.scale)
            return [bits(a) for a in (data.X, data.y, mean, scale)]

        def per_row():
            return [bits(a) for a in per_row_load_csv(path, schema)]

        assert outcome(columnwise) == outcome(per_row)

    @pytest.mark.parametrize("na_policy", ["drop-row", "error"])
    @pytest.mark.parametrize(
        "text",
        [
            "a,b,target\n1,2,3\n?,oops,4\n5,6,7\n",  # NA and non-numeric in one row
            "a,b,target\n1,inf,3\n4,oops,5\n",  # non-numeric after a non-finite row
            "a,b,target\n1,2,3\n , ,\n\n4,5,6\n",  # blank rows
            "a,b,target\n1,nan,3\n4,NAN,6\n",  # NA spelling, then a NaN that is not NA
            "a,b,target\n1,2\n4,5,6,7\n",  # short and long rows
        ],
    )
    def test_row_decisions(self, tmp_path, text, na_policy):
        path = write_file(tmp_path / "t.csv", text)
        schema = DatasetSchema(name="t", target_column="target", na_policy=na_policy)

        def columnwise():
            data, stats = load_csv_with_stats(path, schema)
            return [bits(a) for a in (data.X, data.y, stats.mean, stats.scale)]

        def per_row():
            return [bits(a) for a in per_row_load_csv(path, schema)]

        assert outcome(columnwise) == outcome(per_row)

    @CONVERTER_SETTINGS
    @given(table=results_tables())
    def test_read_results(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("read") / "t.csv"
        write_csv(path, table)
        assert typed(read_results(path)) == typed(per_row_read_results(path))

    @CONVERTER_SETTINGS
    @given(
        columns=st.lists(
            st.sampled_from(["bool", "np.bool_", "int", "float", "np.float64",
                             "np.float32", "None", "str", "mixed"]),
            min_size=1,
            max_size=5,
        ),
        n_rows=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_write_results(self, tmp_path_factory, columns, n_rows, seed):
        rng = np.random.default_rng(seed)
        texts = ["plain", "a,b", 'say "hi"', "two\nlines", "", " x "]

        def value(kind):
            if kind == "mixed":
                kind = str(rng.choice(["bool", "np.bool_", "int", "float", "np.float32",
                                       "None", "str"]))
            x = float(rng.normal()) * 10.0 ** int(rng.integers(-20, 20))
            return {
                "bool": bool(rng.integers(2)),
                "np.bool_": np.bool_(rng.integers(2)),
                "int": int(rng.integers(-10**6, 10**6)),
                "float": x,
                "np.float64": np.float64(x),
                "np.float32": np.float32(x),
                "None": None,
                "str": texts[int(rng.integers(len(texts)))],
            }[kind]

        names = [f"c{j}" for j in range(len(columns))]
        rows = [{n: value(kind) for n, kind in zip(names, columns)} for _ in range(n_rows)]
        folder = tmp_path_factory.mktemp("write")
        write_results(rows, folder / "new.csv", columns=names)
        per_row_write_results(rows, folder / "old.csv", columns=names)
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()

    def test_write_results_in_blocks(self, tmp_path):
        # Three write blocks; cells that need quotes only in the last one.
        n = 2 * _WRITE_BLOCK + 5
        texts = ["", "a,b", 'say "hi"', "two\nlines", "cr\rhere"]
        rows = [
            {
                "i": i,
                "x": i / 7,
                "tag": f"r{i}" if i < 2 * _WRITE_BLOCK else texts[i % len(texts)],
                "none": None,
            }
            for i in range(n)
        ]
        write_results(rows, tmp_path / "new.csv")
        per_row_write_results(rows, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert '"a,b"' in (tmp_path / "new.csv").read_text()
