"""Cell-level decision rules and whole-dataset imputation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from irtimpute.data import MISSING, CategoricalDataset, ColumnSchema
from irtimpute.errors import DataError
from irtimpute.estimation import FittedModel, build_grid
from irtimpute.impute import ImputedDataset, _decide, impute_dataset
from irtimpute.models import (
    Binary2PL,
    GradedItem,
    NominalItem,
    category_probs,
)


def decide(theta, item):
    """The filled code and probability vector of one cell at ``theta``."""
    probs = category_probs(theta, item)
    return int(_decide(probs)), probs


class TestBinaryRule:
    def test_clear_cases(self):
        for p_one, code in ((0.9, 1), (0.1, 0), (1.0, 1), (0.0, 0)):
            assert _decide([1.0 - p_one, p_one]) == code

    def test_exact_half_imputes_one(self):
        assert _decide([0.5, 0.5]) == 1


class TestImputeCell:
    def test_binary_follows_probability_of_one(self):
        item = Binary2PL(1.5, 0.4, column="u")
        code, probs = decide(3.0, item)
        assert code == 1
        assert_allclose(probs[1], expit(1.5 * (3.0 - 0.4)), rtol=1e-12)
        code, _ = decide(-3.0, item)
        assert code == 0

    def test_binary_at_location_is_exact_tie(self):
        # theta == b gives p1 == 0.5 exactly; the rule picks 1
        item = Binary2PL(1.5, 0.4, column="u")
        code, probs = decide(0.4, item)
        assert probs[1] == 0.5
        assert code == 1

    def test_graded_extremes(self):
        item = GradedItem(1.3, (-1.0, 0.0, 1.0), column="v")
        assert decide(-5.0, item)[0] == 0
        assert decide(5.0, item)[0] == 3

    def test_nominal_matches_manual_argmax(self):
        item = NominalItem((0.0, 0.8, -0.4), (0.0, 0.3, 0.9), column="w")
        for theta in (-2.0, 0.0, 1.5):
            code, probs = decide(theta, item)
            assert code == int(np.argmax(category_probs(theta, item)))
            assert_allclose(probs.sum(), 1.0, atol=1e-12)

    def test_multiway_tie_takes_lowest_code(self):
        # zero slopes and intercepts: all three categories sit at 1/3
        item = NominalItem((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), column="w")
        code, probs = decide(0.7, item)
        assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert code == 0


def tiny_dataset():
    schemas = (
        ColumnSchema("u", "binary"),
        ColumnSchema("v", "ordinal", arity=3),
        ColumnSchema("keep", "binary", role="excluded"),
    )
    cells = np.array([
        [1, MISSING, 0],
        [MISSING, 2, 1],
        [0, 0, 0],
        [MISSING, MISSING, 1],
        [1, 1, MISSING],
    ], dtype=float)
    return CategoricalDataset(schemas, cells)


def tiny_model():
    items = (
        Binary2PL(1.6, 0.2, column="u"),
        GradedItem(1.1, (-0.7, 0.9), column="v"),
    )
    return FittedModel(items, build_grid(), True, 0, 0.0, (0.0,))


class TestImputedDataset:
    def completed(self):
        data = tiny_dataset()
        cells = np.array(data.cells)
        cells[0, 1] = 2.0
        return data.with_cells(cells)

    def test_alignment_checked(self):
        with pytest.raises(DataError, match="align"):
            ImputedDataset(self.completed(), ((0, 1),), ())

    def test_ragged_probabilities_rejected(self):
        with pytest.raises(DataError, match="NaN past its arity"):
            ImputedDataset(self.completed(), ((0, 1), (1, 0)),
                           ([0.5, 0.3, 0.2], [0.4, 0.6]))

    def test_detects_missing_cell_in_mask(self):
        with pytest.raises(DataError, match="left missing"):
            ImputedDataset(tiny_dataset(), ((0, 1),),
                           (np.array([0.1, 0.2, 0.7]),))

    def test_probability_length_must_match_arity(self):
        with pytest.raises(DataError, match="arity"):
            ImputedDataset(self.completed(), ((0, 1),),
                           (np.array([0.3, 0.7]),))

    def test_stored_code_must_match_argmax(self):
        with pytest.raises(DataError, match="does not match"):
            ImputedDataset(self.completed(), ((0, 1),),
                           (np.array([0.5, 0.3, 0.2]),))

    def test_binary_half_must_resolve_to_one(self):
        data = tiny_dataset()
        cells = np.array(data.cells)
        cells[1, 0] = 0.0
        bad = data.with_cells(cells)
        with pytest.raises(DataError, match="does not match"):
            ImputedDataset(bad, ((1, 0),), (np.array([0.5, 0.5]),))

    def test_positions_outside_the_dataset_rejected(self):
        for position in ((-1, 1), (5, 1), (0, 3)):
            with pytest.raises(DataError, match=r"outside the dataset"):
                ImputedDataset(self.completed(), (position,),
                               (np.array([0.1, 0.2, 0.7]),))

    def test_first_bad_cell_in_mask_order_names_the_error(self):
        # cell (0, 1) fails only the code check and cell (1, 0) is
        # missing; the error names whichever the mask lists first
        with pytest.raises(DataError, match=r"cell \(0, 1\): stored code 2"):
            ImputedDataset(self.completed(), ((0, 1), (1, 0)),
                           [[0.5, 0.3, 0.2], [0.4, 0.6, np.nan]])
        with pytest.raises(DataError, match=r"cell \(1, 0\) left missing"):
            ImputedDataset(self.completed(), ((1, 0), (0, 1)),
                           [[0.4, 0.6, np.nan], [0.5, 0.3, 0.2]])


class TestImputeDataset:
    def test_fills_every_modeled_cell(self):
        result = impute_dataset(tiny_dataset(), tiny_model())
        modeled = result.completed.cells[:, :2]
        assert not np.any(modeled == MISSING)

    def test_mask_is_row_major_and_complete(self):
        result = impute_dataset(tiny_dataset(), tiny_model())
        assert result.mask.tolist() == [[0, 1], [1, 0], [3, 0], [3, 1]]

    def test_observed_cells_untouched(self):
        data = tiny_dataset()
        result = impute_dataset(data, tiny_model())
        observed = data.cells != MISSING
        assert_array_equal(result.completed.cells[observed],
                           data.cells[observed])

    def test_unmodeled_column_passes_through(self):
        data = tiny_dataset()
        result = impute_dataset(data, tiny_model())
        assert_array_equal(result.completed.cells[:, 2], data.cells[:, 2])
        assert result.completed.cells[4, 2] == MISSING

    def test_probabilities_align_with_mask(self):
        data = tiny_dataset()
        result = impute_dataset(data, tiny_model())
        arities = {0: 2, 1: 3}
        for (row, col), probs in zip(result.mask.tolist(),
                                     result.probabilities):
            probs = probs[~np.isnan(probs)]
            assert len(probs) == arities[col]
            assert_allclose(probs.sum(), 1.0, atol=1e-12)
            assert data.cells[row, col] == MISSING

    def test_all_missing_row_imputed_at_prior_mean(self):
        # row 3 has no observed model cells, so theta is the prior mean 0
        result = impute_dataset(tiny_dataset(), tiny_model())
        model = tiny_model()
        for col, item in ((0, model.items[0]), (1, model.items[1])):
            expected_code, expected_probs = decide(0.0, item)
            assert result.completed.cells[3, col] == expected_code
            idx = result.mask.tolist().index([3, col])
            probs = result.probabilities[idx]
            assert_allclose(probs[~np.isnan(probs)], expected_probs,
                            atol=1e-9)

    def test_codes_agree_with_probability_vectors(self):
        result = impute_dataset(tiny_dataset(), tiny_model())
        for (row, col), probs in zip(result.mask.tolist(),
                                     result.probabilities):
            probs = probs[~np.isnan(probs)]
            code = int(result.completed.cells[row, col])
            if len(probs) == 2:
                assert code == (1 if probs[1] >= 0.5 else 0)
            else:
                assert code == int(np.argmax(probs))

    def test_complete_data_yields_empty_mask(self):
        schemas = (ColumnSchema("u", "binary"),)
        data = CategoricalDataset(schemas, np.array([[0.0], [1.0]]))
        items = (Binary2PL(1.0, 0.0, column="u"),)
        model = FittedModel(items, build_grid(), True, 0, 0.0, (0.0,))
        result = impute_dataset(data, model)
        assert result.mask.tolist() == []
        assert result.probabilities.tolist() == []
        assert_array_equal(result.completed.cells, data.cells)

    def test_arity_mismatch_rejected(self):
        items = (
            Binary2PL(1.6, 0.2, column="u"),
            GradedItem(1.1, (-0.7, 0.0, 0.9), column="v"),
        )
        model = FittedModel(items, build_grid(), True, 0, 0.0, (0.0,))
        with pytest.raises(DataError, match="arity"):
            impute_dataset(tiny_dataset(), model)

    @pytest.mark.parametrize("role, columns", [
        ("excluded", ("u", "v", "keep")),
        ("id", ("u", "v", "keep")),
        ("excluded", ("u",)),
        ("excluded", ("v", "u")),
    ], ids=["binds-excluded", "binds-id", "lacks-feature", "out-of-order"])
    def test_model_binds_exactly_the_feature_columns(self, role, columns):
        data = tiny_dataset()
        schemas = (*data.schemas[:2],
                   ColumnSchema("keep", "binary", role=role))
        items = {item.column: item for item in tiny_model().items}
        items["keep"] = Binary2PL(1.0, 0.0, column="keep")
        model = FittedModel(tuple(items[c] for c in columns), build_grid(),
                            True, 0, 0.0, (0.0,))
        with pytest.raises(DataError, match="feature columns are"):
            impute_dataset(CategoricalDataset(schemas, data.cells), model)

    def test_features_after_an_id_column(self):
        data = tiny_dataset()
        schemas = (ColumnSchema("case", "ordinal", arity=5, role="id"),
                   *data.schemas)
        shifted = CategoricalDataset(
            schemas, np.column_stack([np.arange(5.0), data.cells]))
        result = impute_dataset(shifted, tiny_model())
        expected = impute_dataset(data, tiny_model())
        assert_array_equal(result.mask, expected.mask + [0, 1])
        assert_array_equal(result.completed.cells[:, 1:],
                           expected.completed.cells)
        assert_array_equal(result.probabilities, expected.probabilities)

    def test_unknown_model_column_rejected(self):
        items = (Binary2PL(1.0, 0.0, column="nope"),)
        model = FittedModel(items, build_grid(), True, 0, 0.0, (0.0,))
        with pytest.raises(DataError):
            impute_dataset(tiny_dataset(), model)

    def test_higher_scoring_cases_get_higher_categories(self):
        # two cases differing only in their observed responses: the one
        # answering everything high should never impute lower than the
        # one answering everything low
        schemas = (
            ColumnSchema("a", "binary"),
            ColumnSchema("b", "binary"),
            ColumnSchema("c", "ordinal", arity=4),
        )
        cells = np.array([
            [1, 1, MISSING],
            [0, 0, MISSING],
        ], dtype=float)
        data = CategoricalDataset(schemas, cells)
        items = (
            Binary2PL(1.8, 0.0, column="a"),
            Binary2PL(1.2, -0.4, column="b"),
            GradedItem(1.5, (-1.0, 0.0, 1.0), column="c"),
        )
        model = FittedModel(items, build_grid(), True, 0, 0.0, (0.0,))
        result = impute_dataset(data, model)
        high = result.completed.cells[0, 2]
        low = result.completed.cells[1, 2]
        assert high >= low
