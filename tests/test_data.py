"""Schema parsing, dataset validation, CSV round trips, discretization."""

import csv
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from irtimpute import data as data_module
from irtimpute.data import (
    MISSING,
    MISSING_TOKENS,
    CategoricalDataset,
    ColumnSchema,
    DiscretizationMap,
    apply_discretization,
    atomic_write,
    discretize,
    discretize_dataset,
    emit_csv,
    format_schema,
    load_csv,
    parse_schema,
)
from irtimpute.errors import (
    CodeOutOfRange,
    DataError,
    DegenerateColumn,
    UnknownLabel,
    UsageError,
)

from helpers import emit_csv_loop, load_csv_loop


class TestColumnSchema:
    def test_binary_defaults(self):
        s = ColumnSchema("sex", "binary")
        assert s.arity == 2
        assert s.labels == ("0", "1")

    def test_labels_imply_arity(self):
        s = ColumnSchema("size", "ordinal", labels=("s", "m", "l"))
        assert s.arity == 3

    def test_label_order_defines_codes(self):
        s = ColumnSchema("size", "ordinal", labels=("low", "mid", "high"))
        assert s.labels.index("low") == 0
        assert s.labels.index("high") == 2

    def test_continuous_takes_no_arity(self):
        with pytest.raises(DataError):
            ColumnSchema("age", "continuous", arity=4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DataError):
            ColumnSchema("x", "categorical", arity=3)
        with pytest.raises(DataError):
            ColumnSchema("x", "ordinal", arity=1)
        with pytest.raises(DataError):
            ColumnSchema("x", "binary", arity=3)
        with pytest.raises(DataError):
            ColumnSchema("x", "nominal", labels=("a", "a", "b"))
        with pytest.raises(DataError):
            ColumnSchema("x", "ordinal", arity=3, labels=("a", "b"))
        with pytest.raises(DataError):
            ColumnSchema("x", "ordinal", arity=3, role="target")

    @pytest.mark.parametrize("line", ["c: nominal labels=|x|y",
                                      "c: nominal labels=x|y|"])
    def test_empty_label_is_refused(self, line):
        # emit_csv writes an empty label as it writes a missing cell
        with pytest.raises(DataError, match="label '' is empty"):
            parse_schema(line)

    @pytest.mark.parametrize("labels", [(" a", "b"), ("a", "b\t")])
    def test_padded_label_is_refused(self, labels):
        # load_csv strips each cell, so a padded label never matches
        with pytest.raises(DataError, match="padded with spaces"):
            ColumnSchema("c", "nominal", labels=labels)


class TestSchemaFile:
    TEXT = """\
# toy schema
sex: binary
grade: ordinal arity=4
city: nominal labels=ny|sf|la role=feature
age: continuous
outcome: binary role=excluded
"""

    def test_parse(self):
        schemas = parse_schema(self.TEXT)
        assert [s.name for s in schemas] == [
            "sex", "grade", "city", "age", "outcome"]
        assert schemas[1].arity == 4
        assert schemas[2].labels == ("ny", "sf", "la")
        assert schemas[3].kind == "continuous"
        assert schemas[4].role == "excluded"

    def test_format_roundtrip(self):
        schemas = parse_schema(self.TEXT)
        assert parse_schema(format_schema(schemas)) == schemas

    def test_bad_lines(self):
        with pytest.raises(DataError):
            parse_schema("sex binary")
        with pytest.raises(DataError):
            parse_schema("sex:")
        with pytest.raises(DataError):
            parse_schema("sex: binary arity=two")
        with pytest.raises(DataError):
            parse_schema("sex: binary sort=up")
        with pytest.raises(DataError):
            parse_schema("")


def toy_dataset():
    schemas = (
        ColumnSchema("u", "binary"),
        ColumnSchema("v", "ordinal", arity=3),
        ColumnSchema("z", "continuous", role="excluded"),
    )
    cells = np.array([
        [0, 2, 1.5],
        [1, MISSING, 2.25],
        [MISSING, 0, -0.5],
    ], dtype=float)
    return CategoricalDataset(schemas, cells)


class TestCategoricalDataset:
    def test_basic_accessors(self):
        data = toy_dataset()
        assert data.n_rows == 3
        assert data.n_cols == 3
        assert data.feature_indices == (0, 1)
        assert_array_equal(data.codes("v"), [2, -1, 0])
        assert_array_equal(
            data.missing_mask,
            [[False, False, False], [False, True, False], [True, False, False]],
        )

    def test_filled_mask_is_missing_categorical_features(self):
        # u and v are features, w a continuous feature, y an excluded and
        # k an id column; every column misses row 1
        schemas = (ColumnSchema("k", "ordinal", arity=3, role="id"),
                   ColumnSchema("u", "binary"),
                   ColumnSchema("w", "continuous"),
                   ColumnSchema("v", "nominal", arity=3),
                   ColumnSchema("y", "binary", role="excluded"))
        cells = np.array([[0, 1, 0.5, 2, 0],
                          [MISSING] * 5,
                          [2, MISSING, 1.5, 0, 1]], dtype=float)
        filled = CategoricalDataset(schemas, cells).filled_mask
        assert_array_equal(np.argwhere(filled), [[1, 1], [1, 3], [2, 1]])

    def test_cells_are_read_only(self):
        data = toy_dataset()
        with pytest.raises(ValueError):
            data.cells[0, 0] = 1.0

    def test_code_out_of_range(self):
        schemas = (ColumnSchema("u", "binary"),)
        with pytest.raises(CodeOutOfRange):
            CategoricalDataset(schemas, np.array([[2.0]]))
        with pytest.raises(CodeOutOfRange):
            CategoricalDataset(schemas, np.array([[0.5]]))

    def test_codes_rejects_continuous(self):
        data = toy_dataset()
        with pytest.raises(DataError, match="^column 'z' is not categorical; "
                                            "discretize first$"):
            data.codes("z")

    def test_to_numeric_maps_missing_to_nan(self):
        data = toy_dataset()
        numeric = data.to_numeric((0, 1))
        assert np.isnan(numeric[2, 0])
        assert np.isnan(numeric[1, 1])
        assert numeric[0, 1] == 2.0

    def test_duplicate_names_rejected(self):
        schemas = (ColumnSchema("u", "binary"), ColumnSchema("u", "binary"))
        with pytest.raises(DataError):
            CategoricalDataset(schemas, np.zeros((1, 2)))


BINARY_U = (ColumnSchema("u", "binary"),)
CONTINUOUS_X = (ColumnSchema("x", "continuous"),)


class TestCsvRoundTrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        data = toy_dataset()
        path = tmp_path / "toy.csv"
        emit_csv(data, path)
        back = load_csv(path, data.schemas)
        assert_array_equal(back.cells, data.cells)

    def test_float_cells_roundtrip_bit_exact(self, tmp_path):
        schemas = (ColumnSchema("x", "continuous"),)
        values = np.array([[0.1], [1 / 3], [2.5e-17], [12345.678901234567]])
        path = tmp_path / "floats.csv"
        emit_csv(CategoricalDataset(schemas, values), path)
        back = load_csv(path, schemas)
        assert_array_equal(back.cells, values)

    def test_missing_tokens(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("u,v\n1,-1\n,2\n")
        schemas = (ColumnSchema("u", "binary"),
                   ColumnSchema("v", "ordinal", arity=3))
        data = load_csv(path, schemas)
        assert_array_equal(data.cells, [[1, MISSING], [MISSING, 2]])

    def test_custom_missing_token(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("u\nNA\n1\n")
        data = load_csv(path, (ColumnSchema("u", "binary"),),
                        missing_tokens=("NA",))
        assert_array_equal(data.cells, [[MISSING], [1]])

    def test_label_equal_to_a_missing_token_is_refused(self, tmp_path):
        schemas = (ColumnSchema("u", "binary"),
                   ColumnSchema("c", "nominal", labels=("-1", "0", "1")))
        path = tmp_path / "m.csv"
        path.write_text("u,c\n1,-1\n0,1\n")
        with pytest.raises(DataError) as caught:
            load_csv(path, schemas)
        assert str(caught.value) == "column 'c': label '-1' is a missing token"
        # with only the empty token missing, -1 is a label and round-trips
        data = load_csv(path, schemas, missing_tokens=("",))
        assert_array_equal(data.cells, [[1, 0], [0, 2]])
        emit_csv(data, tmp_path / "back.csv")
        back = (tmp_path / "back.csv").read_bytes()
        assert back == path.read_bytes().replace(b"\n", b"\r\n")

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("u\nmaybe\n")
        with pytest.raises(UnknownLabel):
            load_csv(path, (ColumnSchema("u", "binary"),))

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n0,1\n")
        schemas = (ColumnSchema("u", "binary"), ColumnSchema("v", "binary"))
        with pytest.raises(DataError):
            load_csv(path, schemas)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("u,v\n0\n")
        schemas = (ColumnSchema("u", "binary"), ColumnSchema("v", "binary"))
        with pytest.raises(DataError):
            load_csv(path, schemas)

    def test_continuous_sentinel_collision(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x\n-1.0\n")
        with pytest.raises(DataError):
            load_csv(path, (ColumnSchema("x", "continuous"),))

    def test_non_numeric_continuous(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x\nabc\n")
        with pytest.raises(DataError):
            load_csv(path, (ColumnSchema("x", "continuous"),))

    @pytest.mark.parametrize("text, schemas, error, message", [
        ("u\n1\n0\nmaybe\n", BINARY_U, UnknownLabel,
         ":4: 'maybe' is not a label of column 'u'"),
        ("x\n1.5\n abc \n", CONTINUOUS_X, DataError,
         ":3: 'abc' is not numeric (column 'x')"),
        ("x\ninf\n", CONTINUOUS_X, DataError,
         ":2: non-finite value in column 'x'"),
        ("x\n2\n3\n-1.0\n", CONTINUOUS_X, DataError,
         ":4: continuous value -1 collides with the missing sentinel "
         "(column 'x')"),
        ("u,x\n0,1.5\n1\n", BINARY_U + CONTINUOUS_X, DataError,
         ":3: 1 fields, expected 2"),
        ("u,x\n0,1.5\n\n", BINARY_U + CONTINUOUS_X, DataError,
         ":3: 0 fields, expected 2"),
        ("u,x\n2,1.5\n1\n", BINARY_U + CONTINUOUS_X, UnknownLabel,
         ":2: '2' is not a label of column 'u'"),
        ("u,x\n0,1.5\n2\n", BINARY_U + CONTINUOUS_X, DataError,
         ":3: 1 fields, expected 2"),
    ], ids=["label", "numeric", "inf", "sentinel", "ragged", "blank-line",
            "bad-before-ragged", "ragged-beats-own-cell"])
    def test_errors_name_the_row(self, tmp_path, text, schemas, error,
                                 message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(error) as caught:
            load_csv(path, schemas)
        assert type(caught.value) is error
        assert str(caught.value) == f"{path}{message}"

    def test_labels_that_need_quoting_roundtrip(self, tmp_path):
        schemas = (ColumnSchema("s", "nominal",
                                labels=("a,b", 'say "hi"', "plain")),
                   ColumnSchema("x", "continuous"))
        data = CategoricalDataset(schemas, np.array(
            [[0, 0.5], [1, MISSING], [2, -2.0], [MISSING, 1e-300]]))
        path = tmp_path / "q.csv"
        emit_csv(data, path)
        assert path.read_bytes() == (b's,x\r\n"a,b",0.5\r\n"say ""hi""",\r\n'
                                     b"plain,-2.0\r\n,1e-300\r\n")
        assert load_csv(path, schemas) == data

    def test_crlf_line_ends_and_padded_cells(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b" u , x\r\n 1 , 2.5 \r\n\t0\t, -1 \r\n  ,3\r\n")
        data = load_csv(path, BINARY_U + CONTINUOUS_X)
        assert_array_equal(data.cells,
                           [[1, 2.5], [0, MISSING], [MISSING, 3]])


BLOCKED_SCHEMAS = (
    ColumnSchema("u", "binary", labels=("no", "yes")),
    ColumnSchema("v", "ordinal", labels=("lo", "mid", "hi")),
    ColumnSchema("w", "nominal", labels=("a,b", "c", 'say "hi"', "d")),
    ColumnSchema("x", "continuous"),
    ColumnSchema("y", "continuous", role="excluded"),
)
BLOCKED_TOKENS = ("", "-1", "NA")
BAD_TOKENS = {"label": "zz", "numeric": "abc", "inf": "inf",
              "collision": "-1.0"}


def _random_records(rng, n_rows):
    """Valid CSV records over ``BLOCKED_SCHEMAS``: padded labels and floats,
    every missing token of ``BLOCKED_TOKENS``."""
    records = []
    for _ in range(n_rows):
        record = []
        for schema in BLOCKED_SCHEMAS:
            if rng.uniform() < 0.2:
                token = str(rng.choice(BLOCKED_TOKENS))
            elif schema.is_categorical:
                token = schema.labels[rng.integers(schema.arity)]
            else:
                token = repr(float(rng.normal(0, 3)))
            pad = " " * int(rng.integers(3))
            record.append(pad + token + pad[:1])
        records.append(record)
    return records


def _spoil(rng, records, kind):
    """Put one fault of ``kind`` (a ``BAD_TOKENS`` key or "ragged") at a
    random position."""
    i = int(rng.integers(len(records)))
    if kind == "ragged":
        records[i] = records[i][:-1] if rng.uniform() < 0.5 \
            else records[i] + ["0"]
        return
    columns = [j for j, s in enumerate(BLOCKED_SCHEMAS)
               if s.is_categorical == (kind == "label")]
    records[i][int(rng.choice(columns))] = f" {BAD_TOKENS[kind]} "


def _write_records(path, records, line_end):
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator=line_end).writerows(
            [[s.name for s in BLOCKED_SCHEMAS], *records])


def _outcome(loader, path, schemas=BLOCKED_SCHEMAS):
    try:
        return loader(path, schemas, BLOCKED_TOKENS).cells
    except DataError as exc:
        return type(exc), str(exc)


class TestBlockedCsv:
    """The blocked loader and writer against the per-cell references, on
    files several blocks long."""

    BLOCK = 7

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(data_module, "_BLOCK", self.BLOCK)

    FAULT_SETS = [
        (), ("label",), ("numeric",), ("inf",), ("collision",), ("ragged",),
        ("ragged", "label"), ("numeric", "ragged"), ("collision", "label"),
    ]

    @pytest.mark.parametrize("faults", FAULT_SETS)
    def test_load_matches_reference(self, tmp_path, faults):
        rng = np.random.default_rng(self.FAULT_SETS.index(faults))
        for trial in range(12):
            n_rows = int(rng.integers(1, 6 * self.BLOCK))
            records = _random_records(rng, n_rows)
            for kind in faults:
                _spoil(rng, records, kind)
            path = tmp_path / f"t{trial}.csv"
            _write_records(path, records, "\r\n" if trial % 2 else "\n")
            expected = _outcome(load_csv_loop, path)
            got = _outcome(load_csv, path)
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert_array_equal(got, expected)

    def test_bad_cell_and_ragged_row_in_one_block(self, tmp_path):
        rng = np.random.default_rng(7)
        seen = set()
        for trial in range(60):
            records = _random_records(rng, 4 * self.BLOCK)
            block = int(rng.integers(4)) * self.BLOCK
            bad, ragged = block + rng.integers(self.BLOCK, size=2)
            kind = str(rng.choice(list(BAD_TOKENS)))
            column = 0 if kind == "label" else 3
            records[bad][column] = BAD_TOKENS[kind]
            records[ragged] = records[ragged][:2]
            seen.add(np.sign(bad - ragged))
            path = tmp_path / f"t{trial}.csv"
            _write_records(path, records, "\n")
            expected = _outcome(load_csv_loop, path)
            assert _outcome(load_csv, path) == expected
            row = min(bad, ragged) + 2
            assert expected[1].startswith(f"{path}:{row}: ")
        assert seen == {-1, 0, 1}

    def test_emit_matches_reference(self, tmp_path):
        rng = np.random.default_rng(3)
        for n_rows in (0, 1, self.BLOCK, 5 * self.BLOCK + 3):
            cells = np.empty((n_rows, len(BLOCKED_SCHEMAS)))
            for j, schema in enumerate(BLOCKED_SCHEMAS):
                if schema.is_categorical:
                    cells[:, j] = rng.integers(-1, schema.arity, size=n_rows)
                else:
                    cells[:, j] = np.where(rng.uniform(size=n_rows) < 0.2,
                                           MISSING,
                                           rng.normal(0, 1e3, size=n_rows))
            data = CategoricalDataset(BLOCKED_SCHEMAS, cells)
            emit_csv(data, tmp_path / "new.csv")
            emit_csv_loop(data, tmp_path / "old.csv")
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "old.csv").read_bytes())
            assert load_csv(tmp_path / "new.csv", BLOCKED_SCHEMAS) == data


PLAIN_SCHEMAS = (
    ColumnSchema("u", "binary", labels=("no", "yes")),
    ColumnSchema("w", "nominal", labels=("a", "b c", "d")),
    ColumnSchema("x", "continuous"),
)


def _plain_text(rng, n_rows):
    """Quote-free CSV text over ``PLAIN_SCHEMAS``: padded cells, missing
    tokens, one fault or none, blank lines and every kind of line end."""
    lines = [" u ,w,x"]
    for _ in range(n_rows):
        cells = [str(rng.choice(["no", "yes", " yes", "", "-1", "NA "])),
                 str(rng.choice(["a", " b c ", "d", "", "NA"])),
                 str(rng.choice(["1.5", " -2e-3 ", "", "-1", "7"]))]
        if rng.uniform() < 0.01:
            cells[int(rng.integers(3))] = str(rng.choice(
                ["zz", "abc", "inf", "-1.0"]))
        if rng.uniform() < 0.01:
            cells = cells[:int(rng.integers(3))] if rng.uniform() < 0.5 \
                else cells + [""]
        lines.append(",".join(cells))
    ends = [str(rng.choice(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if rng.uniform() < 0.5 else text.rstrip("\r\n")


def _matches_reference(path, schemas):
    """Load ``path`` and assert that the outcome (cells, or exception class
    and message) is the per-cell reference's; return it."""
    got = _outcome(load_csv, path, schemas)
    expected = _outcome(load_csv_loop, path, schemas)
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and got == expected
    else:
        assert_array_equal(got, expected)
    return got


class TestPlainCsv:
    """Every file, quoted or not, reads as the per-cell reference reads it
    through csv.reader."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(data_module, "_BLOCK", 5)

    def test_split_matches_csv_reader(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(80):
            path = tmp_path / f"p{trial}.csv"
            path.write_bytes(_plain_text(rng, int(rng.integers(0, 30)))
                             .encode())
            _matches_reference(path, PLAIN_SCHEMAS)

    @pytest.mark.parametrize("text", [
        "", "\n", "u,w,x", "u,w,x\r\n\r\n", "u,w\nno,a\n",
        "u,w,x\rno,a,1\r\n\nyes,d,2",
    ], ids=["empty", "blank-header", "header-only", "blank-row",
            "short-header", "mixed-ends"])
    def test_edge_files(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_bytes(text.encode())
        _matches_reference(path, PLAIN_SCHEMAS)

    def test_quote_nul_or_long_line_goes_through_csv(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_bytes(b'u,w,x\nno,"a",1\n')
        cells = _matches_reference(path, PLAIN_SCHEMAS)
        assert_array_equal(cells, [[0, 0, 1]])
        # csv.reader refuses a NUL before Python 3.11, so no reference
        path.write_bytes(b"u,w,x\nno,a\x00,1\n")
        with pytest.raises(UnknownLabel) as caught:
            load_csv(path, PLAIN_SCHEMAS)
        assert str(caught.value) == (f"{path}:2: 'a\\x00' is not a label of "
                                     "column 'w'")
        path.write_bytes(b"u,w,x\nno,a,"
                         + b"1" * (csv.field_size_limit() + 1))
        with pytest.raises(DataError,
                           match=r"q\.csv:2: field larger than field limit"):
            load_csv(path, PLAIN_SCHEMAS)

    def test_non_ascii_label_is_split(self, tmp_path):
        schemas = (ColumnSchema("c", "nominal", labels=("café", "b")),
                   ColumnSchema("x", "continuous"))
        path = tmp_path / "u.csv"
        path.write_bytes("c,x\ncafé,1.5\nb,\n café ,-2\n".encode())
        cells = _matches_reference(path, schemas)
        assert_array_equal(cells, [[0, 1.5], [1, MISSING], [0, -2]])

    # labels of 2-, 3- and 4-byte characters ending at or across the 7th
    # byte, the last one a key holds
    UTF8_SCHEMAS = (
        ColumnSchema("säule", "nominal",
                     labels=("é", "€", "😀", "abcdeé", "abcdefé", "abcd€",
                             "abcde€", "abc😀", "abcd😀", "ab😀cd", "😀😀")),
        ColumnSchema("x", "continuous"),
    )

    def test_utf8_tokens_across_the_word_edge(self, tmp_path):
        rng = np.random.default_rng(17)
        labels = list(self.UTF8_SCHEMAS[0].labels)
        good = (labels + [" é", "abc😀 ", "\u00a0abcdeé", "\u3000😀😀",
                          "\u2028€\x85", "", "NA", '"é"', '"😀😀"'],
                ["1.5", " -2e-3 ", "", "١٥", " ٣ "])
        bad = (["abcdeè", "abcdefè", "ü", "😀😁", "abc😁"], ["١٥x", "€"])
        seen = set()
        for trial in range(40):
            lines = ["säule,x"]
            for _ in range(int(rng.integers(1, 30))):
                cells = [str(rng.choice(ok if rng.uniform() < 0.98
                                        else ok + no))
                         for ok, no in zip(good, bad)]
                lines.append(",".join(cells))
            path = tmp_path / f"t{trial}.csv"
            path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
            outcome = _matches_reference(path, self.UTF8_SCHEMAS)
            seen.add(isinstance(outcome, tuple))
        assert seen == {False, True}

    @pytest.mark.parametrize("text", [
        "\ufeff", "\ufeff\n", "\ufeffu,w,x", "\ufeffu,w,x\nno,a,1\n",
        '\ufeff"u",w,x\r\nyes,b c,\r\n', "\ufeff\ufeffu,w,x\nno,a,1\n",
    ], ids=["alone", "blank-header", "header-only", "rows", "quoted-header",
            "twice"])
    def test_byte_order_mark(self, tmp_path, text):
        path = tmp_path / "bom.csv"
        path.write_bytes(text.encode())
        outcome = _matches_reference(path, PLAIN_SCHEMAS)
        if text == "\ufeff":
            assert outcome == (DataError, f"{path}: empty file")

    def test_quoted_header_names(self, tmp_path):
        schemas = (PLAIN_SCHEMAS[0], ColumnSchema('w"', "nominal",
                                                  labels=("a", "b")))
        path = tmp_path / "h.csv"
        for header, expected in [('"u","w"""', [[0, 1], [1, MISSING]]),
                                 ('u ,"w""" ', [[0, 1], [1, MISSING]]),
                                 ('"u,w"""', None), ('"u"x,"w"""', None)]:
            path.write_bytes(f"{header}\r\nno,b\r\nyes,\r\n".encode())
            outcome = _matches_reference(path, schemas)
            if expected is None:
                assert outcome[0] is DataError
                assert "does not match schema columns" in outcome[1]
            else:
                assert_array_equal(outcome, expected)

    @pytest.mark.parametrize("text, header", [
        ('u,"w\nx",x\nno,a,1\n', ["u", "w\nx", "x"]),
        ('u,"w,x\nno,a,1\n', ["u", "w,x\nno,a,1\n"]),
        ('u,w",",x\r\nno,a,1', ["u", 'w"', ",x\r\nno,a,1"]),
        ('"u\r",w,x\nno,a,1\n', ["u\r", "w", "x"]),
    ], ids=["closed", "never-closed", "after-a-literal-quote", "lone-cr"])
    def test_header_quote_across_a_line_end_goes_through_csv(
            self, tmp_path, text, header):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        outcome = _matches_reference(path, PLAIN_SCHEMAS)
        if header[1:] == ["w", "x"]:
            assert_array_equal(outcome, [[0, 0, 1]])
        else:
            assert outcome == (DataError, f"{path}: header {header!r} does "
                               "not match schema columns ['u', 'w', 'x']")
        if header == ["u", "w\nx", "x"]:
            schemas = (PLAIN_SCHEMAS[0],
                       ColumnSchema("w\nx", "nominal", labels=("a", "b")),
                       PLAIN_SCHEMAS[2])
            assert_array_equal(_matches_reference(path, schemas), [[0, 0, 1]])

    @pytest.mark.parametrize("text, row", [
        (b"u,w\xff,x\nno,a,1\n", 1), (b"u,w,x\nno,a\xc3,1\n", 2),
        (b'\xef\xbb\xbfu,w,x\r\nno,a,"1\n\n.\xe2\x82"\n', 2),
    ], ids=["header", "label", "continuous"])
    def test_invalid_utf8_goes_through_csv(self, tmp_path, text, row):
        path = tmp_path / "i.csv"
        path.write_bytes(text)
        with pytest.raises(UnicodeDecodeError) as bad:
            text.decode()
        with pytest.raises(DataError) as caught:
            load_csv(path, PLAIN_SCHEMAS)
        assert type(caught.value) is DataError
        # the position counts from the file's first byte
        assert str(caught.value) == f"{path}:{row}: {bad.value}"

    LONG_SCHEMAS = (
        ColumnSchema("s", "nominal",
                     labels=("a", "abcdefg", "abcdefgh", "a longer label")),
        ColumnSchema("b", "binary", labels=("n", "y")),
        ColumnSchema("x", "continuous"),
    )

    def test_long_labels_beside_short_ones(self, tmp_path):
        # 7 bytes is the longest token the split looks up by its key
        rng = np.random.default_rng(5)
        good = (["a", "abcdefg", "abcdefgh", "a longer label", " a ",
                 " abcdefgh", "", "NA", '"abcde"', '"abcdefg"'],
                ["n", "y", " y", "", "-1"],
                ["1.5", " 7 ", "-0.123456789", "12345.678901", "", "1e-300"])
        bad = (["abcdefgz", "abcdef", "abcdefghi", '"abcdef"'], ["nn"],
               ["-1.0", "abcdefghi", "inf"])
        seen = set()
        for trial in range(40):
            lines = ["s,b,x"]
            for _ in range(int(rng.integers(1, 30))):
                # a bad token in about one file of five
                cells = [str(rng.choice(ok if rng.uniform() < 0.98
                                        else ok + no))
                         for ok, no in zip(good, bad)]
                lines.append(",".join(cells))
            path = tmp_path / f"l{trial}.csv"
            path.write_bytes(("\n".join(lines) + "\n").encode())
            outcome = _matches_reference(path, self.LONG_SCHEMAS)
            seen.add(isinstance(outcome, tuple))
        assert seen == {False, True}

    def test_repeated_bad_token_names_its_first_row(self, tmp_path):
        rows = [["abcdefgh", "y", "0.5"] for _ in range(30)]
        for i in (7, 12, 23):   # in the second, third and fifth blocks
            rows[i][1] = " maybe"
        path = tmp_path / "r.csv"
        path.write_bytes("".join(",".join(row) + "\n"
                                 for row in [["s", "b", "x"], *rows])
                         .encode())
        outcome = _matches_reference(path, self.LONG_SCHEMAS)
        assert outcome == (UnknownLabel, f"{path}:9: 'maybe' is not a label "
                                         "of column 'b'")

    @pytest.mark.parametrize("block", [5, data_module._BLOCK])
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("line_end", ["\n", ""],
                             ids=["final-line-end", "none"])
    def test_files_of_one_block_and_one_more_row(self, tmp_path, monkeypatch,
                                                 block, extra, line_end):
        monkeypatch.setattr(data_module, "_BLOCK", block)
        rng = np.random.default_rng(block + extra)
        labels = np.array(["no", "yes", ""])[rng.integers(3, size=block
                                                          + extra)]
        text = "u,w,x\n" + "\n".join(f"{label},a,{k}"
                                     for k, label in enumerate(labels))
        path = tmp_path / "b.csv"
        path.write_bytes((text + line_end).encode())
        cells = _matches_reference(path, PLAIN_SCHEMAS)
        assert cells.shape == (block + extra, 3)
        assert_array_equal(cells[:, 2], np.arange(block + extra))

    def test_lone_carriage_returns(self, tmp_path):
        rng = np.random.default_rng(13)
        for trial in range(10):
            text = _plain_text(rng, int(rng.integers(1, 30)))
            path = tmp_path / f"cr{trial}.csv"
            path.write_bytes(text.replace("\r\n", "\n").replace("\n", "\r")
                             .encode())
            _matches_reference(path, PLAIN_SCHEMAS)

    # quoted and bare tokens of 1 to 8 bytes, "" escapes, commas and every
    # kind of line end inside quotes, and the quirks x"y, "x"y and "a" "b"
    QUOTED_SCHEMAS = (
        ColumnSchema("u", "binary", labels=("no", "yes")),
        ColumnSchema("w\r\nv", "nominal",
                     labels=("a", "b c", 'q"', "x,y", "l\nm", "l\rm", "l\r\nm",
                             "abcde", "abcdef", "abcdefgh", 'x"y', "xy")),
        ColumnSchema("x", "continuous"),
    )
    QUOTED_HEADERS = ['u,"w\r\nv",x', '"u","w\r\nv","x"', 'u ,"w\r\nv" ,x',
                      '"u",w\r\nv,x', 'u,"w\nv",x', '"u"x,"w\r\nv",x']
    GOOD = (['no', ' yes', '"no"', '"yes" ', '""', '"NA"', 'NA', '-1', '',
             '"n"o'],
            ['a', '"a"', 'b c', '"b c"', '"q"""', 'q"', '"x,y"', '"l\nm"',
             '"l\rm"', '"l\r\nm"', '"abcde"', '"abcdef"', 'abcdef',
             '"abcdefgh"', 'x"y', '"x"y', '""', ' "a"'],
            ['1.5', '"2.5"', ' -3 ', '""', '', '"-1"', '1e-300', '"1e3"'])
    BAD = (['"no', ' "no"', '"n""o"', 'maybe'],
           ['"a" "b"', '"', '""""', 'zz', '"a"""', 'a"'],
           ['"1,5"', '"7"x', 'inf', '-1.0', '"1e\n3"'])

    def quoted_text(self, rng):
        """A random CSV text over ``QUOTED_SCHEMAS``: about one cell in 30
        bad, one record in 30 ragged or blank, every kind of line end, and
        now and then a byte order mark or an unclosed quote at the end."""
        headers = self.QUOTED_HEADERS
        lines = [headers[rng.integers(len(headers))] if rng.uniform() < 0.1
                 else headers[0]]
        for _ in range(int(rng.integers(0, 14))):
            cells = [str(rng.choice(good if rng.uniform() < 0.97 else bad))
                     for good, bad in zip(self.GOOD, self.BAD)]
            if rng.uniform() < 0.03:
                cells = cells[:int(rng.integers(3))] if rng.uniform() < 0.5 \
                    else cells + ['"e"']
            lines.append(",".join(cells) if rng.uniform() < 0.97 else "")
        text = "".join(line + str(rng.choice(["\n", "\r\n", "\r"]))
                       for line in lines)
        tail = rng.uniform()
        if tail < 0.3:
            text = text.rstrip("\r\n")
        elif tail < 0.4:
            text += '"' + str(rng.choice(["abc", "a,b\n", "", "x\r\n"]))
        return "\ufeff" + text if rng.uniform() < 0.1 else text

    def test_quoted_files_match_csv_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(19)
        seen = set()
        for trial in range(400):
            # records of several lines straddle blocks of 1 to 5
            monkeypatch.setattr(data_module, "_BLOCK",
                                int(rng.integers(1, 6)))
            path = tmp_path / f"q{trial}.csv"
            path.write_bytes(self.quoted_text(rng).encode())
            outcome = _matches_reference(path, self.QUOTED_SCHEMAS)
            seen.add(outcome[0] if isinstance(outcome, tuple) else "cells")
        assert seen == {"cells", DataError, UnknownLabel}

    def test_nul_is_a_character(self, tmp_path):
        # csv.reader refuses a NUL before Python 3.11, so no reference
        schemas = (ColumnSchema("n", "nominal", labels=("n\x00", "a")),)
        path = tmp_path / "n.csv"
        rows = b'n\nn\x00\n"n\x00"\n n\x00 \na\n'
        path.write_bytes(rows)
        assert_array_equal(load_csv(path, schemas).cells,
                           [[0], [0], [0], [1]])
        # a label with a NUL after it, or 8 NULs, is no label
        for cell in (b"a\x00", b'"a\x00b,"', b"\x00" * 8):
            path.write_bytes(rows + cell + b"\n")
            with pytest.raises(UnknownLabel) as caught:
                load_csv(path, schemas)
            text = cell.strip(b'"').decode()
            assert str(caught.value) == (f"{path}:6: {text!r} is not a "
                                         "label of column 'n'")

    def test_label_that_starts_with_a_quote(self, tmp_path):
        schemas = (ColumnSchema("q", "nominal", labels=('"x', "x", 'x"')),)
        path = tmp_path / "q.csv"
        # an unclosed quote at the end reads as the text after it
        path.write_bytes(b'q\n"""x"\nx\n"x"""\n"x')
        cells = _matches_reference(path, schemas)
        assert_array_equal(cells, [[0], [1], [2], [1]])

    def test_field_over_the_limit_names_its_record(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(data_module, "_BLOCK", 2)
        limit = csv.field_size_limit()
        path = tmp_path / "f.csv"
        # a record of three lines, in the second block
        path.write_bytes(b'u,w,x\nno,a,1\nyes,b c,2\nno,"a\n\n'
                         + b"a" * limit + b'",3\n')
        with pytest.raises(DataError) as caught:
            load_csv(path, PLAIN_SCHEMAS)
        assert str(caught.value) == (f"{path}:4: field larger than field "
                                     f"limit ({limit})")
        # before a bad cell earlier in its block, after one a block before
        for rows, message in ((b"no,a,1\nno,zz,1\n", ":5: field larger"),
                              (b"no,zz,1\nno,a,1\n", ":3: 'zz' is not")):
            path.write_bytes(b"u,w,x\nno,a,1\n" + rows + b'no,"'
                             + b"a" * (limit + 1) + b'",3\n')
            with pytest.raises(DataError, match=message):
                load_csv(path, PLAIN_SCHEMAS)
        # the limit counts characters, after the quotes and escapes
        path.write_bytes(b'u,w,x\nno,"' + "é".encode() * limit
                         + b'",1\nno,"""' + b"a" * (limit - 1) + b'",1\n')
        with pytest.raises(UnknownLabel, match=":2: "):
            load_csv(path, PLAIN_SCHEMAS)
        path.write_bytes(b"u,w,x\n" + b"a" * (limit + 1) + b",a,1\n")
        with pytest.raises(DataError, match=r":2: field larger"):
            load_csv(path, PLAIN_SCHEMAS)

    def test_every_key_has_its_own_slot(self):
        # the apply-mixed-50k schema: binary, ordinal and nominal labels
        schemas = tuple(
            ColumnSchema(f"c{j}", kind, labels=labels)
            for j, (kind, labels) in enumerate(
                [("binary", ("0", "1")), ("ordinal", tuple("01234")),
                 ("nominal", ("n0", "n1", "n2", "n3"))]))
        tokens = data_module._TokenTable(
            [data_module._CellLookup(schema, frozenset(MISSING_TOKENS))
             for schema in schemas])
        keys = tokens.keys[:-1]
        assert len(keys) == 22  # 11 bare tokens and their quoted forms
        assert_array_equal(tokens.keys[tokens.slots[tokens._slot(keys)]],
                           keys)


def test_one_column_file_quotes_empty_records(tmp_path):
    data = CategoricalDataset((ColumnSchema("u", "binary"),),
                              np.array([[1.0], [MISSING], [0.0]]))
    emit_csv(data, tmp_path / "new.csv")
    emit_csv_loop(data, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == b'u\r\n1\r\n""\r\n0\r\n'
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()
    assert load_csv(tmp_path / "new.csv", data.schemas) == data


class TestAtomicWrite:
    def test_failed_writer_keeps_old_target(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("new, half")
                raise RuntimeError("interrupted")
        assert target.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_symlink_keeps_pointing_to_the_replaced_file(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        with atomic_write(link) as handle:
            handle.write("new")
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.json", "target.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_is_refused_before_anything_is_written(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        with pytest.raises(UsageError) as refused:
            with atomic_write(pipe) as handle:
                handle.write("new")
        assert str(refused.value) == f"{pipe}: not a regular file"
        assert pipe.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]

    def test_emit_failing_mid_file(self, tmp_path, monkeypatch):
        blocks = []
        float_text = data_module._float_text

        def fail_on_second_block(values, blank):
            blocks.append(len(values))
            if len(blocks) > 1:
                raise RuntimeError("disk gone")
            return float_text(values, blank)

        monkeypatch.setattr(data_module, "_BLOCK", 1)
        monkeypatch.setattr(data_module, "_float_text",
                            fail_on_second_block)
        target = tmp_path / "toy.csv"
        target.write_text("previous\n")
        with pytest.raises(RuntimeError):
            emit_csv(toy_dataset(), target)
        assert blocks == [1, 1]
        assert target.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.csv"]

    def test_success_replaces_target(self, tmp_path):
        target = tmp_path / "toy.csv"
        target.write_text("previous\n")
        emit_csv(toy_dataset(), target)
        assert load_csv(target, toy_dataset().schemas) == toy_dataset()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.csv"]


class TestDiscretize:
    def test_quartiles_of_1_to_100(self):
        # brute force: with linear-interpolation quantiles the three cuts
        # are 25.75, 50.5, 75.25, putting exactly 25 values in each bin
        mapping, codes = discretize(np.arange(1, 101, dtype=float), bins=4)
        assert_allclose(mapping.cuts, (25.75, 50.5, 75.25))
        assert_array_equal(np.bincount(codes), [25, 25, 25, 25])

    def test_four_distinct_values_four_bins(self):
        mapping, codes = discretize(np.array([1.0, 2.0, 3.0, 4.0]), bins=4)
        assert_allclose(mapping.cuts, (1.75, 2.5, 3.25))
        assert_array_equal(codes, [0, 1, 2, 3])

    def test_tie_at_cut_goes_to_higher_bin(self):
        mapping, _ = discretize(np.array([1.0, 2.0, 3.0, 4.0]), bins=4)
        assert mapping.apply(np.array([2.5]))[0] == 2
        assert mapping.apply(np.array([1.75]))[0] == 1

    def test_degenerate_columns(self):
        with pytest.raises(DegenerateColumn):
            discretize(np.full(50, 3.0), bins=4)
        with pytest.raises(DegenerateColumn):
            discretize(np.array([1.0, 2.0, 3.0]), bins=4)
        # enough distinct values, but the mass piles onto one of them
        with pytest.raises(DegenerateColumn):
            discretize(np.array([1.0] * 96 + [2.0, 3.0, 4.0, 5.0]), bins=4)

    def test_rejects_unknown_strategy_and_bad_input(self):
        with pytest.raises(DataError):
            discretize(np.array([1.0, np.nan, 2.0]), bins=2)
        with pytest.raises(DataError):
            discretize(np.arange(10.0), bins=1)


class TestDiscretizeDataset:
    def test_converts_feature_continuous_only(self):
        schemas = (
            ColumnSchema("u", "binary"),
            ColumnSchema("x", "continuous"),
            ColumnSchema("y", "continuous", role="excluded"),
        )
        rng = np.random.default_rng(3)
        cells = np.column_stack([
            rng.integers(0, 2, 40).astype(float),
            rng.normal(10, 2, 40),
            rng.normal(0, 1, 40),
        ])
        cells[5, 1] = MISSING
        data = CategoricalDataset(schemas, cells)
        converted, maps = discretize_dataset(data, bins=4)
        assert set(maps) == {"x"}
        assert converted.schemas[1].kind == "ordinal"
        assert converted.schemas[1].arity == 4
        assert converted.cells[5, 1] == MISSING
        # excluded continuous column untouched
        assert_array_equal(converted.cells[:, 2], cells[:, 2])
        codes = converted.codes("x")
        observed = codes[codes >= 0]
        assert observed.min() == 0 and observed.max() == 3
        # cut points computed from observed values only
        expected_map, _ = discretize(cells[cells[:, 1] != MISSING, 1], 4,
                                     column="x")
        assert maps["x"].cuts == expected_map.cuts


def _all_missing_continuous_feature():
    schemas = (ColumnSchema("u", "binary"), ColumnSchema("x", "continuous"))
    cells = np.column_stack([np.tile([0.0, 1.0], 5), np.full(10, -1.0)])
    return discretize_dataset(CategoricalDataset(schemas, cells))


def _ordinal_column_the_model_discretized():
    schemas = (ColumnSchema("x", "ordinal", arity=2),)
    data = CategoricalDataset(schemas, np.array([[0.0], [1.0]]))
    return apply_discretization(
        data, (DiscretizationMap("x", (0.5,), ("q1", "q2")),))


@pytest.mark.parametrize("make, message", [
    (lambda: parse_schema("c: nominal"),
     "column 'c': arity or labels required"),
    (lambda: CategoricalDataset(BINARY_U, np.zeros((3, 2))),
     "cells shape (3, 2) does not match 1 columns"),
    (lambda: toy_dataset().column_index("nope"), "no column named 'nope'"),
    (lambda: DiscretizationMap("x", (0.5,), ("q1", 2)),
     "discretized column and labels must be strings"),
    (lambda: DiscretizationMap("x", (0.5,), ("q1",)),
     "labels must number one more than cuts"),
    (lambda: discretize(np.zeros((5, 2)), bins=2),
     "values must be a nonempty 1-D array"),
    (_all_missing_continuous_feature, "column 'x' has no observed values"),
    (_ordinal_column_the_model_discretized,
     "column 'x' is ordinal, but the model discretized a continuous column "
     "of that name"),
], ids=["nominal-without-arity", "cells-shape", "unknown-column",
        "label-not-string", "label-count", "values-2d",
        "continuous-never-observed", "discretized-column-ordinal"])
def test_input_checks(make, message):
    with pytest.raises(DataError) as caught:
        make()
    assert type(caught.value) is DataError
    assert str(caught.value) == message
