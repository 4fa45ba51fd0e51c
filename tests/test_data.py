"""Schema parsing, dataset validation, CSV round trips, discretization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from irtimpute.data import (
    MISSING,
    CategoricalDataset,
    ColumnSchema,
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
)


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
        with pytest.raises(DataError):
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
