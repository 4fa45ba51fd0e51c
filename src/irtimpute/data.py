"""Typed categorical datasets: schemas, CSV I/O, quantile discretization.

A dataset is a dense float64 matrix plus one schema per column.  Categorical
columns (binary / ordinal / nominal) store exact integer category codes
``0..arity-1``; continuous columns store raw values.  Missing cells hold the
sentinel ``-1`` in every column.  Because the sentinel lives in-band, a
continuous column may not contain a legitimate value of exactly ``-1``; the
loader rejects such files rather than corrupt them silently.

Every file the package reads or writes is UTF-8: a leading byte order mark
is skipped on input and none is written.  CSV files are read and written in
blocks of ``_BLOCK`` rows.  The data rows of a plain file (see
:func:`_is_plain`) are split in numpy at their line ends and commas, and
each distinct token of up to 7 bytes in a column is looked up once per block
(a longer one, such as most continuous values, once per cell); every other
file (quoted data rows, a header whose quotes span a line break, a NUL, an
over-long line, bytes that are not UTF-8) reads the same through
``csv.reader``, a column at a time.  Labels are written by indexing an array
of them with the codes.  On bad input the loader raises the first error in
row-major order; a row with the wrong number of fields fails before any of
its cells is read.  Every file is written to a temporary file first and then
moved over its target.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
from collections.abc import Callable
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, fields
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import (
    CodeOutOfRange,
    DataError,
    DegenerateColumn,
    UnknownLabel,
)

__all__ = ["MISSING", "CategoricalDataset", "ColumnSchema",
           "DiscretizationMap", "apply_discretization", "discretize",
           "discretize_dataset", "emit_csv", "format_schema", "load_csv",
           "load_schema", "parse_schema"]

MISSING = -1

# defaults of the loader and the discretizer, which the CLI reads too
MISSING_TOKENS = ("", "-1")
DEFAULT_BINS = 4

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
        labels = self.labels
        if labels is None:
            labels = tuple(str(k) for k in range(arity))
            object.__setattr__(self, "labels", labels)
        if len(labels) != arity:
            raise DataError(
                f"column {self.name!r}: {len(labels)} labels for arity {arity}"
            )
        if len(set(labels)) != arity:
            raise DataError(f"column {self.name!r}: duplicate labels")
        for label in labels:
            if not label or label != label.strip():
                raise DataError(f"column {self.name!r}: label {label!r} is "
                                "empty or padded with spaces")

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
        categorical = [s for s in schemas if s.is_categorical]
        columns = [s.is_categorical for s in schemas]
        arity = [s.arity for s in categorical]
        bad = np.zeros(len(categorical), bool)
        # a block of rows at a time, which bounds the temporaries
        for lo in range(0, len(cells), _BLOCK):
            codes = cells[lo:lo + _BLOCK, columns]
            # the integers from the sentinel -1 to arity - 1; NaN is none
            bad |= ((codes != np.floor(codes)) | (codes < MISSING)
                    | (codes >= arity)).any(axis=0)
        if bad.any():
            schema = categorical[int(np.argmax(bad))]
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

    @property
    def filled_mask(self) -> np.ndarray:
        """Boolean (n_rows, n_cols) matrix, True on the cells a model fills
        and a score counts: missing cells of categorical feature columns."""
        return self.missing_mask & np.array(
            [s.is_categorical and s.role == "feature" for s in self.schemas],
            dtype=bool)

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
            raise DataError(f"column {self.schemas[j].name!r} is not "
                            "categorical; discretize first")
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
    return parse_schema(read_text(path))


def read_text(path: str | Path) -> str:
    """A whole UTF-8 file's text, without a leading byte order mark."""
    return Path(path).read_text(encoding="utf-8-sig")


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def load_csv(
    path: str | Path,
    schemas: tuple[ColumnSchema, ...],
    missing_tokens: tuple[str, ...] = MISSING_TOKENS,
) -> CategoricalDataset:
    """Read a CSV file with a header row into a typed dataset.

    The header must list exactly the schema column names, in order.  Cells
    equal to one of ``missing_tokens`` once stripped, which no label may
    equal, load as missing.  Categorical cells must match a declared label;
    continuous cells must be finite floats other than the -1 sentinel.

    Records are read in blocks of ``_BLOCK`` rows; the first error in
    row-major order is raised, and a row with the wrong number of fields
    fails before any cell of that row is read.  The data rows of a plain
    file (see :func:`_is_plain`) are split in numpy at line ends and commas,
    and each distinct token of up to 7 bytes in a column is looked up once
    per block (a longer one once per cell); every other file reads the same
    through ``csv.reader``, a column at a time.
    """
    lookups = [_CellLookup(schema, frozenset(missing_tokens))
               for schema in schemas]
    n_cols = len(schemas)
    blocks = [np.empty((0, n_cols))]
    plain = _is_plain(path)
    records = _plain_blocks(*plain, lookups) if plain \
        else _csv_blocks(path, lookups)
    with closing(records):
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
        for lengths, values, cell in records:
            ragged = np.flatnonzero(lengths != n_cols)
            # the rows before the first one with a wrong field count
            n = int(ragged[0]) if ragged.size else len(lengths)
            block = values(n)
            bad = np.argwhere(np.isnan(block))
            if bad.size:
                i, j = bad[0]
                lookups[j].value(cell(i, j), f"{path}:{first_row + i}")
            if ragged.size:
                raise DataError(
                    f"{path}:{first_row + n}: {lengths[n]} fields, expected "
                    f"{n_cols}"
                )
            blocks.append(block)
            first_row += len(lengths)
    cells = np.concatenate(blocks)
    del blocks  # before the dataset copies the cells
    return CategoricalDataset(tuple(schemas), cells)


def _is_plain(path: str | Path
              ) -> tuple[list[str], bytes, np.ndarray, np.ndarray] | None:
    """The header record, the file's bytes after a leading UTF-8 byte order
    mark, and the bounds of their lines (see :func:`_line_bounds`) if the
    file is plain, else None: the file then reads through ``csv.reader``.

    A plain file is not empty once the mark is skipped, is valid UTF-8,
    holds no NUL and no quote after its header line, has no line longer
    than ``csv.field_size_limit()`` bytes, and its header line, read alone
    by ``csv.reader``, ends outside quotes; its data rows, split at their
    line ends and commas, give the records ``csv.reader`` gives.
    """
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    if not raw or b"\0" in raw:
        return None
    if not raw.isascii():
        try:
            raw.decode()
        except UnicodeDecodeError:
            return None
    starts, ends = _line_bounds(raw)
    if (ends - starts).max() > csv.field_size_limit() \
            or raw.find(b'"', ends[0]) >= 0:
        return None
    line = raw[:starts[1]] if len(starts) > 1 else raw
    header = next(csv.reader([line.decode()]), [])
    # a line end inside a field is a quote left open at the line's end
    if any("\n" in name or "\r" in name for name in header):
        return None
    return header, raw, starts, ends


def _csv_blocks(path: str | Path, lookups: list[_CellLookup]):
    """The header record (None for an empty file), then per block of
    records: their field counts, a function ``values(n)`` giving the cell
    values of the first ``n`` records (NaN for a bad cell), and a function
    ``cell(i, j)`` giving the raw text of a cell of those records."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            yield next(reader, None)
            for records in iter(lambda: list(islice(reader, _BLOCK)), []):
                lengths = np.fromiter(map(len, records), np.intp,
                                      len(records))

                def values(n, records=records):
                    block = np.empty((n, len(lookups)))
                    for j, column in enumerate(zip(*records[:n])):
                        block[:, j] = np.fromiter(map(lookups[j].read, column),
                                                  np.float64, n)
                    return block
                yield lengths, values, lambda i, j, records=records: \
                    records[i][j]
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def _line_bounds(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Where each line of ``raw`` starts, and where its line end begins.

    A line ends at LF, CR LF or a lone CR, as universal newlines read it; a
    last line without a line end counts, an empty tail does not.
    """
    buf = np.frombuffer(raw, np.uint8)
    breaks = np.flatnonzero((buf == 10) | (buf == 13))
    # a CR right before an LF opens a line end that the LF closes
    pair = ((np.diff(breaks) == 1) & (buf[breaks[:-1]] == 13)
            & (buf[breaks[1:]] == 10))
    opens = np.ones(len(breaks), bool)
    opens[1:] = ~pair
    closes = np.ones(len(breaks), bool)
    closes[:-1] = ~pair
    ends = breaks[opens]
    starts = np.append(0, breaks[closes] + 1)
    if starts[-1] < len(raw):
        ends = np.append(ends, len(raw))
    else:
        starts = starts[:-1]
    return starts, ends


def _plain_blocks(header: list[str], raw: bytes, starts: np.ndarray,
                  ends: np.ndarray, lookups: list[_CellLookup]):
    """:func:`_csv_blocks` for a file :func:`_is_plain` accepts, from what
    it returns: a data record is a line without its line end split at
    commas, and an empty line is a record of no fields."""
    yield header
    tokens = _TokenTable(lookups)
    for first in range(1, len(starts), _BLOCK):
        lines = slice(first, first + _BLOCK)
        lo = starts[first]
        yield _split_block(raw[lo:ends[lines][-1]], starts[lines] - lo,
                           ends[lines] - lo, tokens)


def _split_block(chunk: bytes, starts: np.ndarray, ends: np.ndarray,
                 tokens: _TokenTable):
    """One block of :func:`_plain_blocks`: the bytes ``chunk`` of whole
    lines, and where each line starts and its line end begins in it."""
    commas = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord(","))
    # commas plus one, or no field at all for an empty line
    lengths = (np.diff(np.searchsorted(commas, ends), prepend=0)
               + (ends > starts))
    width = len(tokens.lookups) - 1

    def separators(first: int, stop: int) -> np.ndarray:
        """The byte before and the byte after each field of the lines
        ``first:stop``, all with one field per column; row ``i`` holds the
        bounds of field ``j`` as ``[i, j] + 1`` and ``[i, j + 1]``."""
        bounds = np.empty((stop - first, width + 2), np.intp)
        bounds[:, 0] = starts[first:stop] - 1
        bounds[:, 1:-1] = commas[first * width:stop * width].reshape(
            stop - first, width)
        bounds[:, -1] = ends[first:stop]
        return bounds

    def cell(i: int, j: int) -> str:
        before, after = separators(i, i + 1)[0, j:j + 2]
        return chunk[before + 1:after].decode()
    return lengths, lambda n: tokens.values(chunk, separators(0, n)), cell


class _TokenTable:
    """The cell values of short tokens, for the columns of ``lookups``.

    Each token of up to 7 bytes that a column's lookup reads without error
    (its labels and missing tokens) has a key: its UTF-8 bytes as a
    little-endian ``uint64``.  A plain file holds no NUL, so the key tells
    tokens of different lengths apart, and a longer token's first 8 bytes
    never equal a key.  :meth:`values` finds the key of every cell of a
    block by a multiplicative hash; each other short token (and a key whose
    hash slot another key took) is read by its column's lookup once per
    block, and each longer token once per cell.
    """

    # the bits of a token of k bytes in its first 8 bytes; all of them for
    # a token of 8 bytes or more
    _MASKS = np.array([(1 << 8 * k) - 1 for k in range(8)] + [2**64 - 1],
                      np.uint64)
    # 2**64 over the golden ratio, odd
    _MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, lookups: list[_CellLookup]) -> None:
        self.lookups = lookups
        known = {}
        for j, lookup in enumerate(lookups):
            for token in (*(lookup.codes or ()), *lookup.missing):
                value = lookup.parse(token)
                encoded = token.encode()
                if len(encoded) < 8 and value == value:
                    known[j, int.from_bytes(encoded, "little")] = value
        # the last key, which no token has, marks a token with no entry
        keys = sorted({key for _, key in known}) + [2**64 - 1]
        self.keys = np.array(keys, np.uint64)
        self.table = np.full((len(lookups), len(keys)), np.nan)
        for (j, key), value in known.items():
            self.table[j, keys.index(key)] = value
        self.offsets = np.arange(len(lookups)) * len(keys)
        # at least 8 slots per key
        bits = len(keys).bit_length() + 3
        self.shift = np.uint64(64 - bits)
        self.slots = np.full(2**bits, len(keys) - 1)
        self.slots[self._slot(self.keys[:-1])] = np.arange(len(keys) - 1)

    def _slot(self, keys: np.ndarray) -> np.ndarray:
        return (keys * self._MULTIPLIER) >> self.shift

    def values(self, chunk: bytes, separators: np.ndarray) -> np.ndarray:
        """The cell values of the fields within ``separators`` (see
        :func:`_split_block`) of ``chunk``, NaN for a bad cell."""
        words = np.ndarray((len(chunk) + 1,), "<u8", chunk + bytes(8), 0,
                           (1,))
        starts = separators[:, :-1] + 1
        sizes = separators[:, 1:] - starts
        keys = words.take(starts)
        keys &= self._MASKS.take(sizes, mode="clip")
        index = self.slots.take(self._slot(keys))
        index[self.keys.take(index) != keys] = len(self.keys) - 1
        index += self.offsets
        block = self.table.take(index)
        unread = np.isnan(block)
        if not unread.any():
            return block
        for j in np.flatnonzero(unread.any(axis=0)):
            def read(rows: np.ndarray, j: int = j) -> np.ndarray:
                """Column ``j``'s lookup of the cells in ``rows``."""
                cells = map(bytes.decode, map(chunk.__getitem__, map(
                    slice, starts[rows, j].tolist(),
                    separators[rows, j + 1].tolist())))
                return np.fromiter(map(self.lookups[j].read, cells),
                                   np.float64, len(rows))

            rows = np.flatnonzero(unread[:, j])
            short = rows[sizes[rows, j] < 8]
            _, first, inverse = np.unique(keys[short, j], return_index=True,
                                          return_inverse=True)
            block[short, j] = read(short[first])[inverse]
            wide = rows[sizes[rows, j] >= 8]
            block[wide, j] = read(wide)
        return block


class _CellLookup(dict):
    """Raw token -> cell value of one column, NaN for a bad token.

    Indexing caches each distinct token, so a categorical column parses it
    once; :meth:`read` is that for a categorical column and :meth:`parse`
    for a continuous one, whose tokens rarely repeat.
    """

    def __init__(self, schema: ColumnSchema, missing: frozenset) -> None:
        super().__init__()
        self.schema = schema
        self.missing = missing
        self.codes = ({label: float(code)
                       for code, label in enumerate(schema.labels)}
                      if schema.is_categorical else None)
        for label in self.codes or ():
            if label in missing:
                raise DataError(f"column {schema.name!r}: label {label!r} "
                                "is a missing token")
        self.read = self.__getitem__ if self.codes is not None else self.parse

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
            open(temporary, "w", encoding="utf-8", newline=newline) as handle:
        yield handle


@contextmanager
def replaced_together(*paths: str | Path):
    """Temporary paths beside ``paths`` that replace them only together.

    The block writes every temporary path; when it exits normally,
    ``os.replace`` moves each over its target, so only a failing rename
    can leave the targets from different runs.  On an error in the block
    the temporary files are removed, every target is left as it was, and
    an ``OSError`` names the target where it named its temporary path.
    """
    temporaries = [f"{os.fspath(path)}.{os.getpid()}.tmp" for path in paths]
    try:
        yield temporaries
        for temporary, path in zip(temporaries, paths):
            os.replace(temporary, path)
    except OSError as exc:
        if exc.filename in temporaries:
            exc.filename = os.fspath(paths[temporaries.index(exc.filename)])
        raise
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
        if not (np.all(np.isfinite(self.cuts))
                and np.all(np.diff(self.cuts) > 0)):
            raise DegenerateColumn(
                f"column {self.column!r}: cut points are not finite and "
                "strictly increasing"
            )

    @property
    def bins(self) -> int:
        return len(self.labels)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Map values to bin codes (ties at a cut go to the higher bin)."""
        return np.searchsorted(np.asarray(self.cuts), values, side="right")


def discretize(
    values: np.ndarray,
    bins: int = DEFAULT_BINS,
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
    bins: int = DEFAULT_BINS,
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
