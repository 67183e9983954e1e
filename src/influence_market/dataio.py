"""
CSV ingestion with per-dataset preprocessing schemas, plus result
serialization (plot-ready CSV tables and flat key-value summaries).

Files are read and written as UTF-8; a file that does not decode, or that
the csv module cannot parse, raises IoError. The CSV converters work on a
whole file or a whole column at a time:

- ``load_csv_with_stats`` reads the header with ``csv``, then parses the
  wanted columns of the body in one C pass (``np.loadtxt``). A file that
  pass rejects, or whose wanted cells are not all finite numbers, goes to
  the column path: ``csv`` rows, one ``map(float, ...)`` per wanted column,
  and a look at single cells only in a column where that raised or gave a
  NaN. The column path decides missing, blank and bad rows and every error.
- ``write_results`` formats each column once, quotes only the cells that
  need it, and writes the lines in blocks of rows.
- ``read_results`` parses each column with ``float`` and tries ``int``
  only where the value is integral or infinite; a column that is not all
  numbers is parsed once per distinct cell.

Files, values and errors are those of converting one cell at a time.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    EmptyAfterFiltering,
    IoError,
    MissingColumn,
    NonNumericCell,
)
from .regression import Dataset

# Cell contents treated as missing values ("?" appears in the crime data).
NA_STRINGS = {"", "NA", "N/A", "NaN", "nan", "?"}

NA_POLICIES = ("drop-row", "error")


@dataclass(frozen=True)
class DatasetSchema:
    """How to turn one CSV file into a numeric dataset.

    The target column is extracted as y, dropped columns are discarded, every
    remaining column becomes a feature. Schemas are plain data and can be
    written to / read from flat key-value files so users can adjust the
    dropped-column lists.
    """

    name: str
    target_column: str
    dropped_columns: tuple = ()
    delimiter: str = ","
    standardize: bool = True
    na_policy: str = "drop-row"

    def __post_init__(self):
        object.__setattr__(self, "dropped_columns", tuple(self.dropped_columns))
        if len(self.delimiter) != 1 or self.delimiter in '"\r\n':
            raise DomainError(
                "delimiter must be one character other than a quote, CR or LF, "
                f"got {self.delimiter!r}"
            )
        if self.target_column in self.dropped_columns:
            raise DomainError("target_column must not be in dropped_columns")
        if self.na_policy not in NA_POLICIES:
            raise DomainError(f"na_policy must be one of {NA_POLICIES}")


@dataclass(frozen=True)
class Standardization:
    """Per-feature z-score statistics recorded at load time."""

    mean: np.ndarray
    scale: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale

    def invert(self, X: np.ndarray) -> np.ndarray:
        return X * self.scale + self.mean


def load_csv_with_stats(path, schema: DatasetSchema):
    """Load a CSV per the schema; returns (dataset, standardization | None).

    The header row is required. Rows with missing cells are dropped or
    rejected per the schema's NA policy; any other non-numeric or non-finite
    cell (such as ``inf``) raises NonNumericCell with its coordinates, before
    any standardization. Row order is preserved.
    """
    table = _load_clean(path, schema)
    X, y = table if table is not None else _load_columns(path, schema)
    stats = None
    if schema.standardize:
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        stats = Standardization(mean=mean, scale=scale)
        X = stats.apply(X)
    return Dataset(X, y), stats


def load_csv(path, schema: DatasetSchema) -> Dataset:
    """Load a CSV per the schema (see :func:`load_csv_with_stats`)."""
    dataset, _ = load_csv_with_stats(path, schema)
    return dataset


def _wanted_columns(header: list, schema: DatasetSchema):
    """Indices of the feature columns and of the target in the stripped
    header; MissingColumn for a column the schema names and the header lacks."""
    if schema.target_column not in header:
        raise MissingColumn(f"target column {schema.target_column!r} not in header")
    for col in schema.dropped_columns:
        if col not in header:
            raise MissingColumn(f"dropped column {col!r} not in header")
    keep = [
        i
        for i, name in enumerate(header)
        if name not in schema.dropped_columns and name != schema.target_column
    ]
    return keep, header.index(schema.target_column)


def _load_clean(path, schema: DatasetSchema):
    """X and y of a file whose wanted cells are all finite numbers: the
    header read with csv, the rest parsed in one C pass. None for any other
    file, which :func:`_load_columns` then reads and diagnoses."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh, delimiter=schema.delimiter), None)
            if header is None:
                return None
            keep, target_idx = _wanted_columns([h.strip() for h in header], schema)
            table = np.loadtxt(
                _csv_safe_lines(fh),
                delimiter=schema.delimiter,
                quotechar='"',
                comments=None,
                usecols=keep + [target_idx],
                ndmin=2,
            )
    except (OSError, UnicodeDecodeError, csv.Error, MissingColumn, ValueError):
        # The column path reads the whole file before it looks at the header,
        # so it raises a later unreadable line before a missing column.
        return None
    if not np.isfinite(table).all():
        return None
    return np.ascontiguousarray(table[:, :-1]), table[:, -1].copy()


def _csv_safe_lines(lines):
    """``lines`` unchanged, raising ValueError on one that csv could read as
    a field over its size limit, and at the end when every line was blank
    (``np.loadtxt`` warns on a body with no rows).

    A field lies within one line unless quotes carry it over several, so
    once a quote has appeared the whole length read so far is the bound."""
    limit = csv.field_size_limit()
    length, quoted, rows = 0, False, False
    for line in lines:
        length += len(line)
        quoted = quoted or '"' in line
        if len(line) > limit or (quoted and length > limit):
            raise ValueError("a field may be over the csv field size limit")
        rows = rows or line not in ("\n", "\r\n", "\r")
        yield line
    if not rows:
        raise ValueError("no rows")


def _load_columns(path, schema: DatasetSchema):
    """X and y of any file, converted a column at a time from csv rows; the
    path that decides NA, blank and bad rows and raises every load error."""
    rows = _read_rows(path, schema.delimiter)
    if not rows:
        raise IoError(f"{path} is empty; a header row is required")
    header = [h.strip() for h in rows[0]]
    keep, target_idx = _wanted_columns(header, schema)

    body = rows[1:]
    n = len(body)
    columns = _columns(body, len(header))
    X = np.empty((n, len(keep)))
    y = np.empty(n)
    # (name, stripped cells, NA mask, non-numeric mask) of each wanted column,
    # in keep-then-target order, whose bulk conversion raised or gave a NaN.
    looked = []
    for i, out in zip(keep + [target_idx], [*X.T, y]):
        try:
            out[:] = np.fromiter(map(float, columns[i]), np.float64, n)
            if not np.isnan(out).any():
                continue
        except ValueError:
            pass
        cells = [cell.strip() for cell in columns[i]]
        na = np.array([cell in NA_STRINGS for cell in cells], dtype=bool)
        bad = np.zeros(n, dtype=bool)
        for r in np.flatnonzero(~na).tolist():
            try:
                out[r] = float(cells[r])
            except ValueError:
                bad[r] = True
        looked.append((header[i], cells, na, bad))

    na_row = np.zeros(n, dtype=bool)
    bad_row = np.zeros(n, dtype=bool)
    for _, _, na, bad in looked:
        na_row |= na
        bad_row |= bad
    # A blank row has only NA cells, so only rows with an NA cell can be blank.
    blank = np.zeros(n, dtype=bool)
    for r in np.flatnonzero(na_row).tolist():
        blank[r] = not "".join(body[r]).strip()
    na_row &= ~blank
    bad_row &= ~blank
    if schema.na_policy == "error":
        offending = na_row | bad_row
    else:
        offending = bad_row & ~na_row
    if offending.any():
        r = int(np.argmax(offending))
        row_number = r + 2
        if na_row[r]:
            missing = next(name for name, _, na, _ in looked if na[r])
            raise NonNumericCell(
                f"missing value at row {row_number}, column {missing!r}",
                row=row_number,
                column=missing,
            )
        name, cells = next((name, cells) for name, cells, _, bad in looked if bad[r])
        raise NonNumericCell(
            f"non-numeric cell {cells[r]!r} at row {row_number}, column {name!r}",
            row=row_number,
            column=name,
        )
    kept = ~(blank | na_row)
    if not kept.any():
        raise EmptyAfterFiltering(f"no usable rows left in {path}")
    if not kept.all():
        X, y = X[kept], y[kept]
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        row_numbers = np.flatnonzero(kept) + 2
        finite = np.isfinite(np.column_stack([X, y]))
        row, col = np.argwhere(~finite)[0]
        name = header[(keep + [target_idx])[col]]
        value = float(X[row, col] if col < len(keep) else y[row])
        raise NonNumericCell(
            f"non-finite cell {str(value)!r} at row {row_numbers[row]}, column {name!r}",
            row=int(row_numbers[row]),
            column=name,
        )
    return X, y


def _read_rows(path, delimiter: str = ",") -> list:
    """Every row of a UTF-8 CSV file as a list of cell strings."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh, delimiter=delimiter))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _columns(rows: list, width: int) -> list:
    """The first ``width`` columns of ``rows`` as tuples; cells missing from
    short rows read as ``""`` and cells beyond ``width`` are ignored."""
    if set(map(len, rows)) - {width}:
        rows = [(row + [""] * width)[:width] for row in rows]
    return list(zip(*rows)) if rows else [()] * width


# Dropped columns follow the stated criteria (non-predictive identifiers,
# heavily missing measurements, redundant targets) applied to the public
# dataset documentation; edit the schema files to match other choices.
_CRIME_DROPPED = (
    "state",
    "county",
    "community",
    "communityname",
    "fold",
    "LemasSwornFT",
    "LemasSwFTPerPop",
    "LemasSwFTFieldOps",
    "LemasSwFTFieldPerPop",
    "LemasTotalReq",
    "LemasTotReqPerPop",
    "PolicReqPerOffic",
    "PolicPerPop",
    "RacialMatchCommPol",
    "PctPolicWhite",
    "PctPolicBlack",
    "PctPolicHisp",
    "PctPolicAsian",
    "PctPolicMinor",
    "OfficAssgnDrugUnits",
    "NumKindsDrugsSeiz",
    "PolicAveOTWorked",
    "PolicCars",
    "PolicOperBudg",
    "LemasPctPolicOnPatr",
    "LemasGangUnitDeploy",
    "PolicBudgPerPop",
)

_AIR_QUALITY_DROPPED = (
    "Date",
    "Time",
    "NMHC(GT)",
    "CO(GT)",
    "NOx(GT)",
    "NO2(GT)",
)

_PARKINSONS_DROPPED = ("subject#", "motor_UPDRS", "test_time", "sex")


def builtin_schemas() -> list:
    """Preprocessing schemas for the five benchmark datasets."""
    return [
        DatasetSchema(
            name="red-wine",
            target_column="quality",
            dropped_columns=(),
            delimiter=";",
        ),
        DatasetSchema(
            name="white-wine",
            target_column="quality",
            dropped_columns=(),
            delimiter=";",
        ),
        DatasetSchema(
            name="air-quality",
            target_column="C6H6(GT)",
            dropped_columns=_AIR_QUALITY_DROPPED,
            delimiter=";",
        ),
        DatasetSchema(
            name="crime",
            target_column="ViolentCrimesPerPop",
            dropped_columns=_CRIME_DROPPED,
        ),
        DatasetSchema(
            name="parkinsons",
            target_column="total_UPDRS",
            dropped_columns=_PARKINSONS_DROPPED,
        ),
    ]


def builtin_schema(name: str) -> DatasetSchema:
    for schema in builtin_schemas():
        if schema.name == name:
            return schema
    raise DomainError(f"no builtin schema named {name!r}")


def _format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


# Types whose formatted cells never hold a comma, a quote or a line break.
_UNQUOTED_TYPES = {float, int, bool, type(None), np.bool_, np.float64, np.float32}

# Rows per write of a CSV body. 4096-row blocks were no faster and added
# about 15% to a write's peak memory.
_WRITE_BLOCK = 256


def _format_column(values: list, lone: bool) -> list:
    """``_format_value`` of every value as csv.writer writes it in a column
    that is (``lone``) or is not the only one. One call per column when the
    column holds only floats, or only ints, strings and Nones."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map("{:.17g}".format, values))
    if kinds <= {int, str, type(None)}:
        cells = list(map(str, values))
    else:
        cells = list(map(_format_value, values))
    return cells if kinds <= _UNQUOTED_TYPES else _quote_cells(cells, lone)


def _quote_cells(cells: list, lone: bool) -> list:
    """``cells`` as csv.writer writes them: a cell holding a comma, a quote
    or a line break, or the empty field of a one-column row, goes through
    csv.writer; every other cell is written as it is."""
    text = "\0".join(cells)
    if not any(c in text for c in ',"\r\n') and not (lone and "" in cells):
        return cells
    out = []
    for cell in cells:
        if any(c in cell for c in ',"\r\n') or (lone and not cell):
            # The line terminator decides which cells csv quotes, so it is
            # the file's, then cut off.
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerow([cell])
            cell = buffer.getvalue()[:-1]
        out.append(cell)
    return out


def write_results(data, path, fmt: str = "csv", columns: Optional[Sequence[str]] = None):
    """Serialize results deterministically.

    ``fmt="csv"``: ``data`` is a sequence of dicts sharing keys; the column
    order is ``columns`` or the first row's key order, and a row lacking one
    of those keys raises MissingColumn before the file is opened. Floats are
    rendered with 17 significant digits so a read-back is bit-exact.
    ``fmt="key-value-summary"``: ``data`` is a flat mapping written as
    ``key=value`` lines in insertion order.
    """
    if fmt == "key-value-summary":
        try:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                for key, value in data.items():
                    fh.write(f"{key}={_format_value(value)}\n")
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
        return
    if fmt != "csv":
        raise DomainError(f"unknown format {fmt!r}")
    rows = list(data)
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    try:
        cells = [_format_column([row[c] for row in rows], len(columns) == 1) for c in columns]
    except KeyError:
        index, column = next(
            (i, c) for i, row in enumerate(rows) for c in columns if c not in row
        )
        raise MissingColumn(f"row {index} has no column {column!r}") from None
    lines = map(",".join, zip(*cells)) if cells else iter([""] * len(rows))
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(columns)
            while block := list(islice(lines, _WRITE_BLOCK)):
                fh.write("\n".join(block))
                fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _parse_cell(cell: str):
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def _parse_column(cells) -> list:
    """``_parse_cell`` of every cell. ``int()`` can succeed only on a cell
    whose float value is integral or infinite, so only those cells are parsed
    one at a time; a column that is not all numbers is parsed once per
    distinct cell."""
    try:
        values = list(map(float, cells))
    except ValueError:
        parsed = {cell: _parse_cell(cell) for cell in dict.fromkeys(cells)}
        return list(map(parsed.__getitem__, cells))
    array = np.array(values)
    integral = np.flatnonzero(np.floor(array) == array).tolist()
    if len(integral) == len(values):
        try:
            return list(map(int, cells))
        except ValueError:
            pass
    for i in integral:
        values[i] = _parse_cell(cells[i])
    return values


def _read_key_values(path) -> dict:
    """``key=value`` lines of a key-value file, values kept as strings."""
    out = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line:
                    key, _, value = line.partition("=")
                    out[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return out


def read_results(path, fmt: str = "csv"):
    """Read back files produced by :func:`write_results`.

    CSV cells parse to ``True``/``False`` for ``true``/``false``, else to int
    or float where possible, otherwise stay strings; key-value files parse
    values the same way. A file that is not valid UTF-8 raises IoError.
    """
    if fmt == "key-value-summary":
        return {key: _parse_cell(value) for key, value in _read_key_values(path).items()}
    if fmt != "csv":
        raise DomainError(f"unknown format {fmt!r}")
    rows = _read_rows(path)
    if not rows:
        return []
    header, body = rows[0], rows[1:]
    columns = [_parse_column(cells) for cells in _columns(body, len(header))]
    parsed = zip(*columns) if columns else [()] * len(body)
    if min(map(len, body), default=len(header)) >= len(header):
        return [dict(zip(header, values)) for values in parsed]
    # A short row keeps only its own cells, a long row drops its extra ones.
    return [dict(zip(header, values[: len(row)])) for values, row in zip(parsed, body)]


def write_schema(schema: DatasetSchema, path) -> None:
    """Write a schema as an editable flat key-value file."""
    write_results(
        {
            "name": schema.name,
            "target_column": schema.target_column,
            "dropped_columns": ",".join(schema.dropped_columns),
            "delimiter": schema.delimiter,
            "standardize": schema.standardize,
            "na_policy": schema.na_policy,
        },
        path,
        fmt="key-value-summary",
    )


# Spellings of ``standardize`` in a schema file.
_SCHEMA_FLAGS = {"true": True, "1": True, "false": False, "0": False}


def read_schema(path) -> DatasetSchema:
    """Schema written by :func:`write_schema`. Names are kept as written and
    only ``standardize`` is parsed, from ``true``/``1`` or ``false``/``0``;
    a missing ``name`` or ``target_column``, or any other ``standardize``,
    raises IoError."""
    raw = _read_key_values(path)
    for key in ("name", "target_column"):
        if key not in raw:
            raise IoError(f"schema file {path} has no {key!r} entry")
    standardize = raw.get("standardize", "true")
    if standardize not in _SCHEMA_FLAGS:
        raise IoError(
            f"schema file {path} has 'standardize' = {standardize!r}; "
            "expected true, false, 1 or 0"
        )
    return DatasetSchema(
        name=raw["name"],
        target_column=raw["target_column"],
        dropped_columns=tuple(c for c in raw.get("dropped_columns", "").split(",") if c),
        delimiter=raw.get("delimiter", ","),
        standardize=_SCHEMA_FLAGS[standardize],
        na_policy=raw.get("na_policy", "drop-row"),
    )
