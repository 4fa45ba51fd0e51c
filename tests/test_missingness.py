"""Missingness injection and the completely-at-random test.

The two-pattern oracle uses the factored-likelihood closed form for a
bivariate normal with monotone missingness (marginal moments of the
complete column from all rows, regression moments from complete rows),
which the EM estimates must reproduce.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import chdtrc
from scipy.stats import chi2

from helpers import littles_test_loop
from irtimpute.data import MISSING, CategoricalDataset, ColumnSchema
from irtimpute.errors import (
    DataError,
    NumericalFailure,
    SingularCovariance,
)
from irtimpute import missingness
from irtimpute.missingness import (
    LittleTestResult,
    _chi2_tail,
    _row_keys,
    _solve_observed,
    inject_mar,
    inject_mcar,
    littles_test,
)


def ladder_dataset(n=20):
    """Two ordinal columns; `v` equals the case index mod 5, fully observed."""
    schemas = (
        ColumnSchema("u", "ordinal", arity=5),
        ColumnSchema("v", "ordinal", arity=5),
    )
    u = np.arange(n) % 5
    v = (np.arange(n) * 3) % 5
    return CategoricalDataset(schemas, np.column_stack([u, v]).astype(float))


class TestInjectMcar:
    def test_exact_cell_count(self):
        data = ladder_dataset(20)
        for fraction, expect in ((0.1, 2), (0.25, 5), (0.33, 6)):
            out = inject_mcar(data, "u", fraction, seed=1)
            assert int((out.cells[:, 0] == MISSING).sum()) == expect

    def test_only_target_column_touched(self):
        data = ladder_dataset()
        out = inject_mcar(data, "u", 0.3, seed=2)
        assert_array_equal(out.cells[:, 1], data.cells[:, 1])
        observed = out.cells[:, 0] != MISSING
        assert_array_equal(out.cells[observed, 0], data.cells[observed, 0])

    def test_seed_determinism(self):
        data = ladder_dataset(50)
        one = inject_mcar(data, "u", 0.3, seed=7)
        two = inject_mcar(data, "u", 0.3, seed=7)
        assert_array_equal(one.cells, two.cells)
        other = inject_mcar(data, "u", 0.3, seed=8)
        assert not np.array_equal(one.cells, other.cells)

    def test_rejects_bad_fractions(self):
        data = ladder_dataset()
        for fraction in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DataError):
                inject_mcar(data, "u", fraction, seed=0)
        with pytest.raises(DataError, match="removes no cells"):
            inject_mcar(ladder_dataset(4), "u", 0.2, seed=0)

    def test_rejects_target_with_existing_missing(self):
        data = ladder_dataset()
        holed = inject_mcar(data, "u", 0.2, seed=3)
        with pytest.raises(DataError, match="already has missing"):
            inject_mcar(holed, "u", 0.2, seed=4)


class TestInjectMar:
    def test_top_removes_largest_conditional_rows(self):
        schemas = (
            ColumnSchema("t", "ordinal", arity=4),
            ColumnSchema("c", "ordinal", arity=4),
        )
        cells = np.array([
            [1, 0], [2, 3], [0, 1], [3, 3], [1, 2], [2, 1],
        ], dtype=float)
        data = CategoricalDataset(schemas, cells)
        out = inject_mar(data, "t", "c", fraction=0.34, direction="top")
        # two cells go; the largest conditional value 3 appears in rows 1
        # and 3, and the tie breaks toward the earlier row -- both go here
        assert_array_equal(np.flatnonzero(out.cells[:, 0] == MISSING), [1, 3])

    def test_tie_break_is_row_order(self):
        schemas = (
            ColumnSchema("t", "binary"),
            ColumnSchema("c", "binary"),
        )
        cells = np.array([
            [0, 1], [1, 1], [0, 1], [1, 0],
        ], dtype=float)
        data = CategoricalDataset(schemas, cells)
        out = inject_mar(data, "t", "c", fraction=0.5, direction="top")
        assert_array_equal(np.flatnonzero(out.cells[:, 0] == MISSING), [0, 1])

    def test_bottom_direction(self):
        data = ladder_dataset(10)
        out = inject_mar(data, "u", "v", fraction=0.2, direction="bottom")
        gone = np.flatnonzero(out.cells[:, 0] == MISSING)
        smallest = np.argsort(data.cells[:, 1], kind="stable")[:2]
        assert_array_equal(gone, np.sort(smallest))

    def test_fully_deterministic(self):
        data = ladder_dataset(40)
        one = inject_mar(data, "u", "v", 0.25)
        two = inject_mar(data, "u", "v", 0.25)
        assert_array_equal(one.cells, two.cells)

    def test_conditional_must_differ_and_be_observed(self):
        data = ladder_dataset()
        with pytest.raises(DataError, match="differ"):
            inject_mar(data, "u", "u", 0.2)
        holed = inject_mcar(data, "v", 0.2, seed=5)
        with pytest.raises(DataError, match="fully observed"):
            inject_mar(holed, "u", "v", 0.2)

    def test_constant_conditional_warns(self):
        schemas = (
            ColumnSchema("t", "binary"),
            ColumnSchema("c", "binary"),
        )
        cells = np.array([[0, 1], [1, 1], [0, 1], [1, 1]], dtype=float)
        data = CategoricalDataset(schemas, cells)
        with pytest.warns(UserWarning, match="constant"):
            out = inject_mar(data, "t", "c", 0.5)
        assert_array_equal(np.flatnonzero(out.cells[:, 0] == MISSING), [0, 1])

    def test_rejects_bad_direction(self):
        with pytest.raises(DataError, match="direction"):
            inject_mar(ladder_dataset(), "u", "v", 0.2, direction="sideways")


def monotone_bivariate_oracle(y, n_complete):
    """Factored-likelihood ML for two columns where only the second can be
    missing, plus the resulting pattern statistic."""
    x1 = y[:, 0]
    comp = y[:n_complete]
    mu1, s11 = x1.mean(), x1.var()
    beta = np.cov(comp[:, 0], comp[:, 1], ddof=0)[0, 1] / comp[:, 0].var()
    alpha = comp[:, 1].mean() - beta * comp[:, 0].mean()
    se2 = (comp[:, 1] - alpha - beta * comp[:, 0]).var()
    mu2 = alpha + beta * mu1
    mean = np.array([mu1, mu2])
    cov = np.array([[s11, beta * s11],
                    [beta * s11, se2 + beta**2 * s11]])
    stat = 0.0
    diff = comp.mean(axis=0) - mean
    stat += n_complete * diff @ np.linalg.solve(cov, diff)
    tail = y[n_complete:, 0].mean() - mu1
    stat += (len(y) - n_complete) * tail * tail / s11
    return stat, chi2.sf(stat, 1)


class TestChiSquareTail:
    """The finite-sum χ² tail against scipy's chdtrc, its oracle."""

    def test_matches_chdtrc(self):
        rng = np.random.default_rng(37)
        dfs = np.concatenate([np.arange(1, 21), np.unique(np.round(
            np.exp(rng.uniform(np.log(21), np.log(300_000), 60))))])
        for df in dfs.astype(int):
            sd = math.sqrt(2.0 * df)
            for x in np.maximum(df + sd * rng.uniform(-6.0, 6.0, 6), 1e-3):
                got, want = _chi2_tail(float(x), int(df)), chdtrc(df, x)
                assert abs(got - want) <= 1e-9 * want, (df, x)
                assert f"{got:.6g}" == f"{want:.6g}", (df, x)

    def test_closed_forms_of_one_and_two_df(self):
        for x in (1e-6, 0.3, 1.0, 7.5, 40.0, 300.0):
            assert_allclose(_chi2_tail(x, 1), math.erfc(math.sqrt(x / 2)),
                            rtol=1e-15)
            assert_allclose(_chi2_tail(x, 2), math.exp(-x / 2), rtol=1e-15)

    @pytest.mark.parametrize("df", [1, 2, 7, 100_218])
    def test_nonpositive_statistic_has_tail_one(self, df):
        assert _chi2_tail(0.0, df) == 1.0
        assert _chi2_tail(-3.0, df) == 1.0


class TestLittlesTest:
    def test_complete_data_is_trivially_mcar(self):
        rng = np.random.default_rng(11)
        result = littles_test(rng.normal(size=(30, 3)))
        assert result == LittleTestResult(0.0, 0, 1.0, 1)

    def test_two_pattern_closed_form(self):
        rng = np.random.default_rng(5150)
        x1 = rng.normal(0, 1.3, 40)
        x2 = 0.8 * x1 + rng.normal(0, 0.9, 40)
        y = np.column_stack([x1, x2])
        y[25:, 1] = np.nan
        stat, p = monotone_bivariate_oracle(y, 25)
        result = littles_test(y)
        assert result.df == 1
        assert result.n_patterns == 2
        assert_allclose(result.statistic, stat, rtol=1e-9)
        assert_allclose(result.p_value, p, rtol=1e-9)

    def test_all_missing_rows_are_dropped(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=(25, 3))
        y[3:10, 2] = np.nan
        padded = np.vstack([y, np.full((4, 3), np.nan)])
        assert_allclose(littles_test(padded).statistic,
                        littles_test(y).statistic, rtol=1e-12)

    def test_mcar_calibration(self):
        # seeded, hence deterministic: 4 of 60 rejections measured at the
        # 5% level (expected ~3 under the null); generous ceiling guards
        # against platform-level numeric wiggle only
        rejections = 0
        scale = np.array([[1.0, 0.0, 0.0],
                          [0.6, 0.8, 0.0],
                          [0.3, 0.4, 0.85]])
        for seed in range(60):
            rng = np.random.default_rng(9000 + seed)
            y = rng.normal(size=(500, 3)) @ scale.T
            y = np.where(rng.random(y.shape) < 0.10, np.nan, y)
            rejections += littles_test(y).p_value < 0.05
        assert rejections <= 9

    def test_conditional_deletion_is_detected(self):
        rng = np.random.default_rng(1234)
        y = rng.normal(size=(500, 2)) @ np.array([[1.0, 0.0], [0.7, 0.7]]).T
        order = np.argsort(-y[:, 0])
        y[order[:150], 1] = np.nan
        result = littles_test(y)
        assert result.p_value < 1e-10

    def test_disjoint_patterns_have_zero_df(self):
        y = np.array([
            [1.0, np.nan], [2.0, np.nan], [0.5, np.nan],
            [np.nan, 3.0], [np.nan, 2.5], [np.nan, 3.5],
        ])
        result = littles_test(y)
        assert result.df == 0
        assert result.p_value == 1.0
        assert result.n_patterns == 2

    def test_input_validation(self):
        with pytest.raises(DataError, match="two columns"):
            littles_test(np.ones((10, 1)))
        with pytest.raises(DataError, match="two rows"):
            littles_test(np.full((3, 2), np.nan))
        y = np.ones((10, 2))
        y[:, 1] = np.nan
        with pytest.raises(DataError, match="no observed values"):
            littles_test(y)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, value):
        y = code_matrix(4, 50, 3, 0.2)
        y[7, 1] = value
        with pytest.raises(DataError, match="^entries must be finite or NaN$"):
            littles_test(y)

    @pytest.mark.parametrize("scale, offset", [(1e200, 0.0), (1e306, 1e307)],
                             ids=["squares-overflow", "mean-overflows"])
    def test_overflowing_moments_raise(self, scale, offset):
        # two of three columns overflow their moment sums
        rng = np.random.default_rng(1)
        y = rng.normal(size=(60, 3))
        y[:, :2] = offset + np.abs(y[:, :2]) * scale
        y[rng.random(y.shape) < 0.2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="^EM step: the "
                               "covariance overflows; rescale the columns$"):
                littles_test(y)

    def test_statistic_ignores_a_column_shift(self):
        # centred on the observed means, a shift that dwarfs the spread
        # leaves the moments, and so the statistic, as they were
        rng = np.random.default_rng(0)
        y = rng.normal(size=(200, 3))
        y[rng.random(y.shape) < 0.2] = np.nan
        base = littles_test(y)
        for shift in (1e6, 1e7, 1e9):
            shifted = y + [0.0, shift, 0.0]
            result = littles_test(shifted)
            if shift <= 1e7:
                assert_allclose(result.statistic, base.statistic, rtol=1e-8)
            assert (result.df, result.n_patterns) == (base.df,
                                                      base.n_patterns)

    def test_singular_solver_raises_after_ridge(self):
        with pytest.raises(SingularCovariance):
            _solve_observed(np.zeros((2, 2)), np.ones(2), "test")

    def test_zero_column_observed_alone_raises(self):
        # the pattern that observes only the zero column has a zero
        # observed-block covariance, which no ridge can fix
        y = zero_column_matrix()
        y[:5, :-1] = np.nan
        with pytest.raises(SingularCovariance,
                           match="^EM step: observed-block covariance is "
                                 "singular even after ridge regularization$"):
            littles_test(y)


def code_matrix(seed, n, p, rate):
    """Seeded category codes 0-3 driven by one trait; NaN where missing."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(n, 1))
    y = np.digitize(0.8 * theta + rng.normal(size=(n, p)),
                    [-1.0, 0.0, 1.0]).astype(float)
    y[rng.random(y.shape) < rate] = np.nan
    return y


def zero_column_matrix():
    """Four code columns, 30 % missing, then a fully observed zero column.

    Every row observes a code column, so no row observes the zero column
    alone.
    """
    y = code_matrix(5, 600, 4, 0.3)
    y[np.isnan(y).all(axis=1), 0] = 1.0
    return np.column_stack([y, np.zeros(len(y))])


def duplicate_column_matrix():
    """Four code columns, 25 % missing, then column 0 again, holes and all."""
    y = code_matrix(6, 500, 4, 0.25)
    return np.column_stack([y, y[:, 0]])


def every_missing_count(p=6, repeats=40, seed=8):
    """Rows missing k random columns for every k from 0 to p - 1."""
    y = code_matrix(seed, p * repeats, p, 0.0)
    rng = np.random.default_rng(seed)
    for i, row in enumerate(y):
        row[rng.permutation(p)[:i % p]] = np.nan
    return y


@pytest.fixture
def solves(monkeypatch):
    """Record the ``what`` of every per-pattern observed-block solve."""
    calls = []

    def spy(cov, rhs, what):
        calls.append(what)
        return _solve_observed(cov, rhs, what)

    monkeypatch.setattr(missingness, "_solve_observed", spy)
    return calls


class TestBlockedLittlesTest:
    """The precision-matrix test against the per-pattern loop in ``helpers``."""

    @staticmethod
    def assert_matches_loop(y):
        result = littles_test(y)
        expected = littles_test_loop(y)
        assert result.df == expected.df
        assert result.n_patterns == expected.n_patterns
        assert_allclose(result.statistic, expected.statistic, rtol=1e-10)
        assert_allclose(result.p_value, expected.p_value, rtol=1e-10)
        return result

    @pytest.mark.parametrize("seed, rate", [(1, 0.1), (2, 0.3)])
    def test_more_patterns_than_one_block(self, seed, rate):
        n = 1500 if rate < 0.2 else 600
        result = self.assert_matches_loop(code_matrix(seed, n, 14, rate))
        assert result.n_patterns > 256

    def test_seventy_columns(self):
        # patterns that differ only past column 62 must stay apart
        result = self.assert_matches_loop(code_matrix(3, 300, 70, 0.05))
        assert result.n_patterns > 256

    def test_every_missing_count(self):
        # groups of every k from 1 to p - 1; k = p - 1 observes one column
        y = every_missing_count()
        assert set(np.isnan(y).sum(axis=1)) == set(range(6))
        assert self.assert_matches_loop(y).n_patterns > 40

    @pytest.mark.parametrize("p", [3, 8, 9, 14, 70])
    def test_row_keys_group_as_unique_rows(self, p):
        # the one-dimensional void keys give np.unique(axis=0)'s groups
        packed = np.packbits(~np.isnan(code_matrix(p, 400, p, 0.2)), axis=1)
        keyed = np.unique(_row_keys(packed), return_index=True,
                          return_inverse=True, return_counts=True)
        rows = np.unique(packed, axis=0, return_index=True,
                         return_inverse=True, return_counts=True)
        assert_array_equal(
            keyed[0].view(np.uint8).reshape(rows[0].shape), rows[0])
        for got, expected in zip(keyed[1:], rows[1:]):
            assert_array_equal(got, expected.ravel())
        assert len(rows[0]) >= 8

    def test_groups_split_at_the_entry_limit(self, monkeypatch):
        # each pattern's arithmetic does not depend on its group's size
        y = code_matrix(2, 600, 14, 0.3)
        whole = littles_test(y)
        monkeypatch.setattr(missingness, "_GROUP_ENTRIES", 4)
        assert littles_test(y) == whole
        self.assert_matches_loop(y)

    def test_well_conditioned_takes_no_fallback(self, solves):
        self.assert_matches_loop(code_matrix(1, 1500, 14, 0.1))
        self.assert_matches_loop(every_missing_count())
        assert solves == []

    def test_zero_column_takes_the_ridge(self, solves):
        # every observed block holds the zero column's zero row, so Σ is
        # singular and each pattern is solved with a ridge
        result = self.assert_matches_loop(zero_column_matrix())
        assert np.isfinite(result.statistic)
        assert result.df > 0
        assert {"EM step", "test statistic"} <= set(solves)

    def test_duplicate_column_takes_the_fallback(self, solves):
        result = self.assert_matches_loop(duplicate_column_matrix())
        assert np.isfinite(result.statistic)
        assert {"EM step", "test statistic"} <= set(solves)
