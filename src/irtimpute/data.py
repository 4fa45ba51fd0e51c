"""Typed categorical datasets: schemas, CSV I/O, quantile discretization.

A dataset is a dense float64 matrix plus one schema per column.  Categorical
columns (binary / ordinal / nominal) store exact integer category codes
``0..arity-1``; continuous columns store raw values.  Missing cells hold the
sentinel ``-1`` in every column.  Because the sentinel lives in-band, a
continuous column may not contain a legitimate value of exactly ``-1``; the
loader rejects such files rather than corrupt them silently.

CSV files are read and written in blocks of ``_BLOCK`` rows, a column at a
time: each distinct token of a categorical column is parsed once, and labels
are written by indexing an array of them with the codes.  On bad input the
loader raises the first error in row-major order; a row with the wrong number
of fields fails before any of its cells is read.  Every file is written to a
temporary file first and then moved over its target.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .errors import (
    CodeOutOfRange,
    DataError,
    DegenerateColumn,
    UnknownLabel,
)

MISSING = -1

KINDS = ("binary", "ordinal", "nominal", "continuous")
ROLES = ("feature", "id", "excluded")

_CATEGORICAL_KINDS = frozenset({"binary", "ordinal", "nominal"})

# rows per block read or written by the CSV functions
_BLOCK = 8192


def _fields_equal(self, other) -> bool:
    """``==`` for a dataclass with array fields: arrays compare by value,
    NaN equal to NaN (the generated ``__eq__`` would raise on them).

    Classes using it pass ``eq=False`` to ``@dataclass``, which then adds no
    ``__hash__``, so they stay unhashable instead of hashing their arrays.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name))
             for f in fields(self))
    return all(np.array_equal(a, b, equal_nan=True)
               if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True)
class ColumnSchema:
    """Declared type of one dataset column.

    ``labels`` gives the category strings in code order (code 0 first); for
    ordinal columns that order *is* the category order.  When omitted, labels
    default to ``"0".."arity-1"``.  ``role`` controls pipeline visibility:
    only ``feature`` columns are ever modeled; ``excluded`` columns (e.g. an
    outcome held out for a downstream task) and ``id`` columns are carried
    through untouched.
    """

    name: str
    kind: str
    arity: int | None = None
    labels: tuple[str, ...] | None = None
    role: str = "feature"

    def __post_init__(self) -> None:
        if not self.name or any(ch in self.name for ch in ":|,"):
            raise DataError(f"invalid column name {self.name!r}")
        if self.kind not in KINDS:
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise DataError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.kind == "continuous":
            if self.arity is not None or self.labels is not None:
                raise DataError(
                    f"column {self.name!r}: continuous columns take no arity/labels"
                )
            return
        arity = self.arity
        if arity is None:
            if self.kind == "binary":
                arity = 2
            elif self.labels is not None:
                arity = len(self.labels)
            else:
                raise DataError(f"column {self.name!r}: arity or labels required")
            object.__setattr__(self, "arity", arity)
        if self.kind == "binary" and arity != 2:
            raise DataError(f"column {self.name!r}: binary arity must be 2")
        if arity < 2:
            raise DataError(f"column {self.name!r}: arity must be >= 2")
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(str(k) for k in range(arity)))
        labels = self.labels
        assert labels is not None
        if len(labels) != arity:
            raise DataError(
                f"column {self.name!r}: {len(labels)} labels for arity {arity}"
            )
        if len(set(labels)) != arity:
            raise DataError(f"column {self.name!r}: duplicate labels")

    @property
    def is_categorical(self) -> bool:
        return self.kind in _CATEGORICAL_KINDS


@dataclass(frozen=True, eq=False)
class CategoricalDataset:
    """Immutable (schemas, cells) pair with the invariants enforced.

    ``cells`` has one row per case and one column per schema; the stored
    array is a read-only copy of whatever was passed in.
    """

    schemas: tuple[ColumnSchema, ...]
    cells: np.ndarray = field(repr=False)

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        schemas = tuple(self.schemas)
        object.__setattr__(self, "schemas", schemas)
        names = [s.name for s in schemas]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
        cells = np.array(self.cells, dtype=np.float64, copy=True)
        if cells.ndim != 2 or cells.shape[1] != len(schemas):
            raise DataError(
                f"cells shape {cells.shape} does not match {len(schemas)} columns"
            )
        for j, schema in enumerate(schemas):
            if not schema.is_categorical:
                continue
            col = cells[:, j]
            observed = col[col != MISSING]
            if observed.size and (
                np.any(observed != np.floor(observed))
                or np.any(observed < 0)
                or np.any(observed >= schema.arity)
            ):
                raise CodeOutOfRange(
                    f"column {schema.name!r}: codes must be integers in "
                    f"0..{schema.arity - 1}"
                )
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def n_rows(self) -> int:
        return self.cells.shape[0]

    @property
    def n_cols(self) -> int:
        return self.cells.shape[1]

    @property
    def feature_indices(self) -> tuple[int, ...]:
        return tuple(
            j for j, s in enumerate(self.schemas) if s.role == "feature"
        )

    @property
    def missing_mask(self) -> np.ndarray:
        """Boolean (n_rows, n_cols) matrix, True where a cell is missing."""
        return self.cells == MISSING

    def column_index(self, name: str) -> int:
        for j, s in enumerate(self.schemas):
            if s.name == name:
                return j
        raise DataError(f"no column named {name!r}")

    def schema_for(self, column: int | str) -> ColumnSchema:
        return self.schemas[self._col(column)]

    def _col(self, column: int | str) -> int:
        return self.column_index(column) if isinstance(column, str) else column

    def codes(self, column: int | str) -> np.ndarray:
        """Integer codes for a categorical column (missing cells = -1)."""
        j = self._col(column)
        if not self.schemas[j].is_categorical:
            raise DataError(f"column {self.schemas[j].name!r} is not categorical")
        return self.cells[:, j].astype(np.int64)

    def column_values(self, column: int | str) -> np.ndarray:
        return self.cells[:, self._col(column)].copy()

    def with_cells(self, cells: np.ndarray) -> "CategoricalDataset":
        """New dataset with the same schemas and replaced cell matrix."""
        return CategoricalDataset(self.schemas, cells)

    def to_numeric(self, columns: tuple[int, ...] | None = None) -> np.ndarray:
        """Float matrix of the selected columns with NaN where missing."""
        cols = tuple(range(self.n_cols)) if columns is None else columns
        out = self.cells[:, cols].astype(np.float64, copy=True)
        out[self.cells[:, cols] == MISSING] = np.nan
        return out


# ---------------------------------------------------------------------------
# Schema files
# ---------------------------------------------------------------------------

def parse_schema(text: str) -> tuple[ColumnSchema, ...]:
    """Parse a schema description, one column per line.

    Line format: ``name: kind [arity=K] [labels=a|b|c] [role=feature]``.
    Blank lines and ``#`` comments are skipped.
    """
    schemas: list[ColumnSchema] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise DataError(f"schema line {lineno}: missing ':' in {line!r}")
        name, _, rest = line.partition(":")
        tokens = rest.split()
        if not tokens:
            raise DataError(f"schema line {lineno}: missing kind")
        kind = tokens[0]
        kwargs: dict = {}
        for token in tokens[1:]:
            if "=" not in token:
                raise DataError(f"schema line {lineno}: bad token {token!r}")
            key, _, value = token.partition("=")
            if key == "arity":
                try:
                    kwargs["arity"] = int(value)
                except ValueError:
                    raise DataError(
                        f"schema line {lineno}: arity must be an integer"
                    ) from None
            elif key == "labels":
                kwargs["labels"] = tuple(value.split("|"))
            elif key == "role":
                kwargs["role"] = value
            else:
                raise DataError(f"schema line {lineno}: unknown key {key!r}")
        schemas.append(ColumnSchema(name.strip(), kind, **kwargs))
    if not schemas:
        raise DataError("schema is empty")
    return tuple(schemas)


def format_schema(schemas: tuple[ColumnSchema, ...]) -> str:
    lines = []
    for s in schemas:
        parts = [f"{s.name}: {s.kind}"]
        if s.is_categorical:
            parts.append(f"arity={s.arity}")
            assert s.labels is not None
            if list(s.labels) != [str(k) for k in range(s.arity or 0)]:
                parts.append("labels=" + "|".join(s.labels))
        if s.role != "feature":
            parts.append(f"role={s.role}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_schema(path: str | Path) -> tuple[ColumnSchema, ...]:
    return parse_schema(Path(path).read_text())


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def load_csv(
    path: str | Path,
    schemas: tuple[ColumnSchema, ...],
    missing_tokens: tuple[str, ...] = ("", "-1"),
) -> CategoricalDataset:
    """Read a CSV file with a header row into a typed dataset.

    The header must list exactly the schema column names, in order.  Cells
    equal to one of ``missing_tokens`` (after stripping whitespace) load as
    missing.  Categorical cells must match a declared label; continuous cells
    must parse as finite floats and may not equal the -1 sentinel.

    Records are read in blocks of ``_BLOCK`` rows and converted a column at a
    time; the first error in row-major order is raised, and a row with the
    wrong number of fields fails before any cell of that row is read.  A file
    without a quote or NUL character, whose lines all fit ``csv``'s field
    limit, is split at line ends and commas, which reads it as
    ``csv.reader`` does; any other file goes through ``csv.reader``.
    """
    lookups = [_CellLookup(schema, frozenset(missing_tokens))
               for schema in schemas]
    n_cols = len(schemas)
    blocks = [np.empty((0, n_cols))]
    plain = _is_plain(path)
    with open(path, newline="") as handle:
        records = _plain_blocks(handle) if plain else _csv_blocks(handle)
        header = next(records)
        if header is None:
            raise DataError(f"{path}: empty file")
        expected = [s.name for s in schemas]
        if [h.strip() for h in header] != expected:
            raise DataError(
                f"{path}: header {header!r} does not match schema columns "
                f"{expected!r}"
            )
        first_row = 2
        for lengths, columns in records:
            ragged = np.flatnonzero(lengths != n_cols)
            # the rows before the first one with a wrong field count
            n = int(ragged[0]) if ragged.size else len(lengths)
            block = np.empty((n, n_cols))
            for j, (lookup, column) in enumerate(
                    zip(lookups, columns(n, n_cols))):
                read = (lookup.__getitem__ if lookup.codes is not None
                        else lookup.parse)
                block[:, j] = np.fromiter(map(read, column), np.float64, n)
            bad = np.argwhere(np.isnan(block))
            if bad.size:
                i, j = bad[0]
                lookups[j].value(columns(n, n_cols)[j][i],
                                 f"{path}:{first_row + i}")
            if ragged.size:
                raise DataError(
                    f"{path}:{first_row + n}: {lengths[n]} fields, expected "
                    f"{n_cols}"
                )
            blocks.append(block)
            first_row += len(lengths)
    return CategoricalDataset(tuple(schemas), np.concatenate(blocks))


def _is_plain(path: str | Path) -> bool:
    """True if the file holds no quote and no NUL, and no line longer than
    ``csv.field_size_limit()`` bytes."""
    raw = Path(path).read_bytes()
    return (b'"' not in raw and b"\0" not in raw
            and max(map(len, raw.splitlines()), default=0)
            <= csv.field_size_limit())


def _csv_blocks(handle):
    """The header record (None for an empty file), then per block of
    records their field counts and a function ``columns(n, n_cols)``
    giving the columns of the first ``n`` records."""
    reader = csv.reader(handle)
    try:
        yield next(reader, None)
        for records in iter(lambda: list(islice(reader, _BLOCK)), []):
            lengths = np.fromiter(map(len, records), np.intp, len(records))

            def columns(n, n_cols, records=records):
                return list(zip(*records[:n]))
            yield lengths, columns
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"{handle.name}:{reader.line_num}: {exc}") from None


def _plain_blocks(handle):
    """:func:`_csv_blocks` for a file :func:`_is_plain` accepts: a record is
    a line without its line end split at commas, and an empty line is a
    record of no fields."""
    lines = map(str.rstrip, handle, repeat("\r\n"))
    first = next(lines, None)
    yield None if first is None else first.split(",") if first else []
    for records in iter(lambda: list(islice(lines, _BLOCK)), []):
        n = len(records)
        # commas plus one, or no field at all for an empty line
        commas = np.fromiter(map(str.count, records, repeat(",")), np.intp, n)
        lengths = commas + np.fromiter(map(bool, records), bool, n)

        def columns(n, n_cols, records=records):
            cells = ",".join(records[:n]).split(",") if n else []
            return [cells[j::n_cols] for j in range(n_cols)]
        yield lengths, columns


class _CellLookup(dict):
    """Raw token -> cell value of one column, NaN for a bad token.

    Indexing caches each distinct token, so a categorical column parses it
    once; continuous columns call :meth:`parse` directly, since their tokens
    rarely repeat.
    """

    def __init__(self, schema: ColumnSchema, missing: frozenset) -> None:
        super().__init__()
        self.schema = schema
        self.missing = missing
        self.codes = ({label: float(code)
                       for code, label in enumerate(schema.labels)}
                      if schema.is_categorical else None)

    def value(self, text: str, where: str = "") -> float:
        """One raw cell's value, or the error for it that names ``where``."""
        cell = text.strip()
        if cell in self.missing:
            return float(MISSING)
        name = self.schema.name
        if self.codes is not None:
            if cell not in self.codes:
                raise UnknownLabel(
                    f"{where}: {cell!r} is not a label of column {name!r}")
            return self.codes[cell]
        try:
            value = float(cell)
        except ValueError:
            raise DataError(
                f"{where}: {cell!r} is not numeric (column {name!r})"
            ) from None
        if not math.isfinite(value):
            raise DataError(f"{where}: non-finite value in column {name!r}")
        if value == MISSING:
            raise DataError(
                f"{where}: continuous value -1 collides with the missing "
                f"sentinel (column {name!r})"
            )
        return value

    def parse(self, text: str) -> float:
        try:
            return self.value(text)
        except DataError:
            return math.nan

    def __missing__(self, text: str) -> float:
        value = self[text] = self.parse(text)
        return value


def emit_csv(data: CategoricalDataset, path: str | Path) -> None:
    """Write a dataset back to CSV; inverse of :func:`load_csv`.

    Categorical cells are written as their labels, continuous cells with
    ``repr`` (shortest round-trip form), missing cells as empty cells.
    """
    labels = [np.array((*map(_csv_field, schema.labels), ""), dtype=object)
              if schema.is_categorical else None for schema in data.schemas]

    def columns(rows: slice) -> list:
        cells = data.cells[rows]
        return [
            names[cells[:, j].astype(np.intp)] if names is not None
            else _float_text(cells[:, j], cells[:, j] == MISSING)
            for j, names in enumerate(labels)
        ]

    _write_csv_blocks(path, [s.name for s in data.schemas], data.n_rows,
                      columns)


def emit_probabilities(data: CategoricalDataset, mask: np.ndarray,
                       probabilities: np.ndarray, path: str | Path) -> None:
    """Write an ``ImputedDataset``'s ``mask`` and ``probabilities`` as CSV:
    per imputed cell its row (``case``), the name of its column in ``data``
    and ``p0, p1, ...``, empty past the column's arity."""
    names = np.array([_csv_field(schema.name) for schema in data.schemas],
                     dtype=object)

    def columns(rows: slice) -> list:
        cells, probs = mask[rows], probabilities[rows]
        return [list(map(str, cells[:, 0].tolist())), names[cells[:, 1]],
                *_float_text(probs, np.isnan(probs)).T]

    header = ["case", "column"] + [
        f"p{k}" for k in range(probabilities.shape[1])]
    _write_csv_blocks(path, header, len(mask), columns)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a record of several fields:
    quoted only if it holds a comma, a quote or a line break."""
    line = io.StringIO()
    csv.writer(line).writerow((text, ""))
    return line.getvalue()[:-3]  # the empty second field's "," and "\r\n"


def _float_text(values: np.ndarray, blank: np.ndarray) -> np.ndarray:
    """``repr`` of each value as an object array, ``""`` where ``blank``."""
    text = np.full(values.shape, "", dtype=object)
    keep = ~blank
    text[keep] = list(map(repr, values[keep].tolist()))
    return text


def _write_csv_blocks(path: str | Path, header: list[str], n_rows: int,
                      columns: Callable[[slice], list]) -> None:
    """Write ``header`` and then ``n_rows`` rows, ``_BLOCK`` at a time.

    ``columns(rows)`` returns one sequence of field texts per CSV column for
    the rows in the slice ``rows``, each already as ``csv.writer`` would
    write it (see :func:`_csv_field`; numbers need no quoting), so a record
    is the fields joined by commas.  The file is written atomically.
    """
    with atomic_write(path, newline="") as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, n_rows, _BLOCK):
            fields = columns(slice(start, start + _BLOCK))
            records = map(",".join, zip(*fields))
            if len(header) == 1:
                # csv.writer quotes a record that is one empty field
                records = (record or '""' for record in records)
            handle.write("\r\n".join(records) + "\r\n")


@contextmanager
def atomic_write(path: str | Path, newline: str | None = None):
    """Open a text file that replaces ``path`` only once it is complete
    (see :func:`replaced_together`)."""
    with replaced_together(path) as (temporary,), \
            open(temporary, "w", newline=newline) as handle:
        yield handle


@contextmanager
def replaced_together(*paths: str | Path):
    """Temporary paths beside ``paths`` that replace them only together.

    The block writes every temporary path; when it exits normally,
    ``os.replace`` moves each over its target, so only a failing rename
    can leave the targets from different runs.  On an error in the block
    the temporary files are removed and every target is left as it was.
    """
    temporaries = [f"{os.fspath(path)}.{os.getpid()}.tmp" for path in paths]
    try:
        yield temporaries
        for temporary, path in zip(temporaries, paths):
            os.replace(temporary, path)
    finally:
        for temporary in temporaries:
            if os.path.exists(temporary):
                os.remove(temporary)


# ---------------------------------------------------------------------------
# Quantile discretization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscretizationMap:
    """Cut points mapping a continuous column onto ordinal codes.

    ``cuts`` are the interior quantile boundaries (``bins - 1`` of them,
    strictly increasing).  A value lands in the lowest bin whose cut exceeds
    it; a value exactly equal to a cut goes to the *higher* bin.
    """

    column: str
    cuts: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(v, str) for v in (self.column, *self.labels)):
            raise DataError("discretized column and labels must be strings")
        if len(self.labels) != len(self.cuts) + 1:
            raise DataError("labels must number one more than cuts")
        if np.any(np.diff(self.cuts) <= 0):
            raise DegenerateColumn(
                f"column {self.column!r}: cut points are not strictly "
                "increasing"
            )

    @property
    def bins(self) -> int:
        return len(self.labels)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Map values to bin codes (ties at a cut go to the higher bin)."""
        return np.searchsorted(np.asarray(self.cuts), values, side="right")


def discretize(
    values: np.ndarray,
    bins: int = 4,
    column: str = "x",
) -> tuple[DiscretizationMap, np.ndarray]:
    """Quantile-bin a continuous vector into ``bins`` ordinal codes.

    Cut points are the ``k/bins`` quantiles (linear interpolation) of the
    observed values for ``k = 1..bins-1``.  Raises
    :class:`~irtimpute.errors.DegenerateColumn` when the values cannot
    support ``bins`` distinct bins.
    """
    if bins < 2:
        raise DataError("bins must be >= 2")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise DataError("values must be a nonempty 1-D array")
    if not np.all(np.isfinite(values)):
        raise DataError("values must be finite; mask missing cells first")
    if np.unique(values).size < bins:
        raise DegenerateColumn(
            f"column {column!r}: fewer than {bins} distinct values"
        )
    quantiles = np.arange(1, bins) / bins
    cuts = np.quantile(values, quantiles)
    if np.any(np.diff(cuts) <= 0):
        raise DegenerateColumn(
            f"column {column!r}: quantile cut points collide; too much mass "
            "on too few values"
        )
    labels = tuple(f"q{k + 1}" for k in range(bins))
    mapping = DiscretizationMap(column, tuple(float(c) for c in cuts), labels)
    return mapping, mapping.apply(values)


def discretize_dataset(
    data: CategoricalDataset,
    bins: int = 4,
) -> tuple[CategoricalDataset, dict[str, DiscretizationMap]]:
    """Quantile-bin every continuous *feature* column of a dataset.

    Returns the converted dataset (continuous feature columns become ordinal
    with ``bins`` categories; all other columns untouched) plus the map used
    for each converted column.  Missing cells stay missing; cut points come
    from the observed values only.
    """
    maps: dict[str, DiscretizationMap] = {}
    for j, schema in enumerate(data.schemas):
        if schema.kind != "continuous" or schema.role != "feature":
            continue
        col = data.cells[:, j]
        observed = col != MISSING
        if not observed.any():
            raise DataError(f"column {schema.name!r} has no observed values")
        maps[schema.name], _ = discretize(col[observed], bins,
                                          column=schema.name)
    return apply_discretization(data, tuple(maps.values())), maps


def apply_discretization(
    data: CategoricalDataset,
    maps: tuple[DiscretizationMap, ...],
) -> CategoricalDataset:
    """Bin each mapped continuous column with its stored cut points.

    Mapped columns become ordinal with the map's labels; missing cells stay
    missing.  Returns ``data`` itself when there are no maps.
    """
    if not maps:
        return data
    cells = np.array(data.cells, copy=True)
    schemas = list(data.schemas)
    for mapping in maps:
        j = data.column_index(mapping.column)
        schema = data.schemas[j]
        if schema.kind != "continuous":
            raise DataError(
                f"column {schema.name!r} is {schema.kind}, but the model "
                "discretized a continuous column of that name"
            )
        col = cells[:, j]
        observed = col != MISSING
        binned = np.full(col.shape, float(MISSING))
        binned[observed] = mapping.apply(col[observed]).astype(np.float64)
        cells[:, j] = binned
        schemas[j] = ColumnSchema(schema.name, "ordinal", arity=mapping.bins,
                                  labels=mapping.labels, role=schema.role)
    return CategoricalDataset(tuple(schemas), cells)
