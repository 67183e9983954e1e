"""
CSV ingestion with per-dataset preprocessing schemas, plus result
serialization (plot-ready CSV tables and flat key-value summaries).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh, delimiter=schema.delimiter)
            rows = list(reader)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IoError(f"{path} is empty; a header row is required")
    header = [h.strip() for h in rows[0]]
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
    target_idx = header.index(schema.target_column)

    features = []
    targets = []
    row_numbers = []
    for row_number, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        cells = [row[i].strip() if i < len(row) else "" for i in range(len(header))]
        wanted = [cells[i] for i in keep] + [cells[target_idx]]
        if any(cell in NA_STRINGS for cell in wanted):
            if schema.na_policy == "drop-row":
                continue
            missing = next(
                header[i] for i in keep + [target_idx] if cells[i] in NA_STRINGS
            )
            raise NonNumericCell(
                f"missing value at row {row_number}, column {missing!r}",
                row=row_number,
                column=missing,
            )
        try:
            features.append([float(cells[i]) for i in keep])
        except ValueError:
            bad = next(i for i in keep if not _is_float(cells[i]))
            raise NonNumericCell(
                f"non-numeric cell {cells[bad]!r} at row {row_number}, "
                f"column {header[bad]!r}",
                row=row_number,
                column=header[bad],
            ) from None
        if not _is_float(cells[target_idx]):
            raise NonNumericCell(
                f"non-numeric cell {cells[target_idx]!r} at row {row_number}, "
                f"column {schema.target_column!r}",
                row=row_number,
                column=schema.target_column,
            )
        targets.append(float(cells[target_idx]))
        row_numbers.append(row_number)
    if not features:
        raise EmptyAfterFiltering(f"no usable rows left in {path}")
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    finite = np.isfinite(np.column_stack([X, y]))
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        name = header[(keep + [target_idx])[col]]
        value = float(X[row, col] if col < len(keep) else y[row])
        raise NonNumericCell(
            f"non-finite cell {str(value)!r} at row {row_numbers[row]}, column {name!r}",
            row=row_numbers[row],
            column=name,
        )
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


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    return str(value)


def write_results(data, path, fmt: str = "csv", columns: Optional[Sequence[str]] = None):
    """Serialize results deterministically.

    ``fmt="csv"``: ``data`` is a sequence of dicts sharing keys; the column
    order is ``columns`` or the first row's key order. Floats are rendered
    with 17 significant digits so a read-back is bit-exact.
    ``fmt="key-value-summary"``: ``data`` is a flat mapping written as
    ``key=value`` lines in insertion order.
    """
    if fmt == "key-value-summary":
        try:
            with open(path, "w", newline="") as fh:
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_value(row[c]) for c in columns])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_results(path, fmt: str = "csv"):
    """Read back files produced by :func:`write_results`.

    CSV cells parse to float where possible, otherwise stay strings;
    key-value files parse values the same way.
    """

    def parse(cell: str):
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

    try:
        if fmt == "key-value-summary":
            out = {}
            with open(path, newline="") as fh:
                for line in fh:
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    key, _, value = line.partition("=")
                    out[key] = parse(value)
            return out
        if fmt != "csv":
            raise DomainError(f"unknown format {fmt!r}")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not rows:
        return []
    header = rows[0]
    return [{h: parse(cell) for h, cell in zip(header, row)} for row in rows[1:]]


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


def read_schema(path) -> DatasetSchema:
    raw = read_results(path, fmt="key-value-summary")
    dropped = raw.get("dropped_columns", "")
    if isinstance(dropped, str):
        dropped = tuple(c for c in dropped.split(",") if c)
    else:
        dropped = (str(dropped),)
    return DatasetSchema(
        name=str(raw["name"]),
        target_column=str(raw["target_column"]),
        dropped_columns=dropped,
        delimiter=str(raw.get("delimiter", ",")),
        standardize=bool(raw.get("standardize", True)),
        na_policy=str(raw.get("na_policy", "drop-row")),
    )
