"""Imputed-cell scoring: confusion matrix, per-category F1, macro/micro."""

import collections.abc
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from irtimpute.data import MISSING, CategoricalDataset, ColumnSchema
from irtimpute.errors import DataError
from irtimpute.impute import ImputedDataset
from irtimpute.metrics import report_text, score, score_cells


def binary_pair(truth_codes, imputed_codes):
    schemas = (ColumnSchema("u", "binary"),)
    truth = CategoricalDataset(
        schemas, np.asarray(truth_codes, dtype=float)[:, None])
    completed = CategoricalDataset(
        schemas, np.asarray(imputed_codes, dtype=float)[:, None])
    mask = tuple((i, 0) for i in range(len(truth_codes)))
    return truth, completed, mask


class TestScoreCells:
    def test_binary_half_right(self):
        # truth 1,1,0,0 against imputed 1,0,0,1: one hit and one miss per
        # class, so precision = recall = f1 = 0.5 for both categories
        truth, completed, mask = binary_pair([1, 1, 0, 0], [1, 0, 0, 1])
        report = score_cells(truth, completed, mask)
        assert_array_equal(report.confusion, [[1, 1], [1, 1]])
        for cs in report.per_category:
            assert cs.precision == 0.5
            assert cs.recall == 0.5
            assert cs.f1 == 0.5
        assert report.macro_f1 == 0.5
        assert report.micro_f1 == 0.5
        assert report.cell_count == 4
        assert report.macro_categories == (0, 1)

    def test_perfect_imputation(self):
        truth, completed, mask = binary_pair([0, 1, 1, 0], [0, 1, 1, 0])
        report = score_cells(truth, completed, mask)
        assert report.macro_f1 == 1.0
        assert report.micro_f1 == 1.0

    def test_all_wrong(self):
        truth, completed, mask = binary_pair([0, 1], [1, 0])
        report = score_cells(truth, completed, mask)
        assert report.macro_f1 == 0.0
        assert report.micro_f1 == 0.0

    def test_zero_over_zero_is_zero(self):
        # category 1 never true and never imputed: its precision, recall,
        # and f1 all hit 0/0 and must come out 0, not NaN
        truth, completed, mask = binary_pair([0, 0, 0], [0, 0, 0])
        report = score_cells(truth, completed, mask)
        cs = report.per_category[1]
        assert cs.precision == 0.0 and cs.recall == 0.0 and cs.f1 == 0.0
        assert report.macro_categories == (0,)
        assert report.macro_f1 == 1.0

    def test_absent_category_excluded_from_macro(self):
        # truth uses categories 0 and 2 only; category 1 is imputed once
        # (wrongly) but has no truth support, so the macro average covers
        # categories 0 and 2
        schemas = (ColumnSchema("v", "ordinal", arity=3),)
        truth = CategoricalDataset(
            schemas, np.array([[0.0], [0.0], [2.0], [2.0]]))
        completed = CategoricalDataset(
            schemas, np.array([[0.0], [1.0], [2.0], [2.0]]))
        mask = ((0, 0), (1, 0), (2, 0), (3, 0))
        report = score_cells(truth, completed, mask)
        assert report.macro_categories == (0, 2)
        f0 = report.per_category[0].f1    # p=1, r=1/2 -> 2/3
        f2 = report.per_category[2].f1    # p=1, r=1 -> 1
        assert_allclose(f0, 2 / 3, rtol=1e-12)
        assert f2 == 1.0
        assert_allclose(report.macro_f1, (f0 + f2) / 2, rtol=1e-12)
        assert_allclose(report.micro_f1, 0.75, rtol=1e-12)

    def test_only_masked_cells_count(self):
        schemas = (ColumnSchema("u", "binary"), ColumnSchema("v", "binary"))
        truth = CategoricalDataset(
            schemas, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        completed = CategoricalDataset(
            schemas, np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]))
        report = score_cells(truth, completed, ((1, 0), (1, 1)))
        assert report.cell_count == 2
        assert report.micro_f1 == 1.0

    def test_mixed_arity_mask(self):
        schemas = (
            ColumnSchema("u", "binary"),
            ColumnSchema("v", "ordinal", arity=4),
        )
        truth = CategoricalDataset(schemas, np.array([[1.0, 3.0], [0.0, 2.0]]))
        completed = CategoricalDataset(
            schemas, np.array([[1.0, 3.0], [0.0, 0.0]]))
        report = score_cells(truth, completed,
                             ((0, 0), (0, 1), (1, 0), (1, 1)))
        assert report.confusion.shape == (4, 4)
        assert_allclose(report.micro_f1, 0.75, rtol=1e-12)

    def test_validation_errors(self):
        truth, completed, mask = binary_pair([1, 0], [1, 0])
        with pytest.raises(DataError, match="no imputed cells"):
            score_cells(truth, completed, ())
        other = CategoricalDataset(
            (ColumnSchema("w", "binary"),), np.array([[1.0], [0.0]]))
        with pytest.raises(DataError, match="schemas"):
            score_cells(truth, other, mask)
        longer = CategoricalDataset(
            truth.schemas, np.array([[1.0], [0.0], [1.0]]))
        with pytest.raises(DataError, match="sizes"):
            score_cells(truth, longer, mask)

    def test_missing_truth_or_completed_cell_rejected(self):
        schemas = (ColumnSchema("u", "binary"),)
        holed = CategoricalDataset(schemas, np.array([[float(MISSING)], [1.0]]))
        full = CategoricalDataset(schemas, np.array([[1.0], [1.0]]))
        with pytest.raises(DataError, match="missing in the truth"):
            score_cells(holed, full, ((0, 0),))
        with pytest.raises(DataError, match="not imputed"):
            score_cells(full, holed, ((0, 0),))

    def test_positions_outside_the_dataset_rejected(self):
        truth, completed, _ = binary_pair([1, 0, 1], [1, 0, 1])
        for position in ((-1, 0), (5, 0), (0, 1)):
            with pytest.raises(DataError,
                               match=rf"cell \({position[0]}, "
                                     rf"{position[1]}\) is outside"):
                score_cells(truth, completed, (position,))

    def test_tuple_and_array_masks_agree(self):
        schemas = (
            ColumnSchema("u", "binary"),
            ColumnSchema("v", "ordinal", arity=4),
        )
        truth = CategoricalDataset(
            schemas, np.array([[1.0, 3.0], [0.0, 2.0], [1.0, 1.0]]))
        completed = CategoricalDataset(
            schemas, np.array([[1.0, 3.0], [1.0, 0.0], [1.0, 1.0]]))
        pairs = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1))
        from_tuple = score_cells(truth, completed, pairs)
        from_array = score_cells(truth, completed, np.array(pairs))
        assert_array_equal(from_array.confusion, from_tuple.confusion)
        assert report_text(from_array) == report_text(from_tuple)

    def test_continuous_cell_rejected(self):
        schemas = (ColumnSchema("u", "binary"), ColumnSchema("z", "continuous"))
        truth = CategoricalDataset(schemas, np.array([[1.0, 2.5]]))
        with pytest.raises(DataError, match="non-categorical"):
            score_cells(truth, truth, ((0, 1),))


def test_score_checks_and_scores_the_imputed_cells():
    truth, completed, mask = binary_pair([1, 1, 0, 0], [1, 0, 0, 1])
    imputed = ImputedDataset(completed, mask, [
        [0.4, 0.6] if code else [0.6, 0.4] for code in completed.cells[:, 0]])
    assert score(truth, imputed) == score_cells(truth, completed, mask)
    other = CategoricalDataset((ColumnSchema("w", "binary"),), truth.cells)
    with pytest.raises(DataError) as caught:
        score(other, imputed)
    assert str(caught.value) == ("truth and completed datasets have "
                                 "different schemas")


class TestReportText:
    def test_contains_scores_and_support(self):
        truth, completed, mask = binary_pair([1, 1, 0, 0], [1, 0, 0, 1])
        text = report_text(score_cells(truth, completed, mask))
        assert "imputed cells: 4" in text
        assert "micro F1 (accuracy): 0.500000" in text
        assert "macro F1: 0.500000 over categories [0, 1]" in text
        assert text.endswith("\n")
        assert "1 0.500000 0.500000 0.500000 2" in text


def _dataset(last=2):
    schemas = (ColumnSchema("u", "binary"),
               ColumnSchema("v", "ordinal", arity=3))
    return CategoricalDataset(schemas, np.array([[1.0, 1.0], [1.0, last]]))


def _imputed(low=0.1):
    # the binary cell's row is NaN past its two probabilities
    return ImputedDataset(_dataset(), ((0, 0), (1, 1)),
                          ([0.3, 0.7, np.nan], [low, 0.2, 0.7]))


def _report(extra=0):
    report = score_cells(_dataset(), _dataset(), ((0, 0), (1, 1)))
    confusion = report.confusion.copy()
    confusion[0, 0] += extra
    return dataclasses.replace(report, confusion=confusion)


@pytest.mark.parametrize("make, changed", [
    (_dataset, 0.0),
    (_imputed, 0.05),
    (_report, 1),
], ids=["dataset", "imputed", "report"])
def test_array_fields_compare_by_value(make, changed):
    assert make() == make()
    assert make() != make(changed)


@pytest.mark.parametrize("make", [_dataset, _imputed, _report],
                         ids=["dataset", "imputed", "report"])
def test_array_holders_differ_from_other_types(make):
    # ``_fields_equal`` defers to the other operand, and Python then falls
    # back to identity
    assert make() != object()
    assert (make() == make().__class__.__name__) is False


@pytest.mark.parametrize("make", [_dataset, _imputed, _report],
                         ids=["dataset", "imputed", "report"])
def test_array_holders_are_unhashable(make):
    assert not isinstance(make(), collections.abc.Hashable)
    with pytest.raises(TypeError, match="unhashable"):
        hash(make())
