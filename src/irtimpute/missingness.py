"""Controlled missingness injection and Little's MCAR test.

Two injection mechanisms produce benchmark datasets with known ground
truth: completely-at-random deletion of a fixed cell count in one column,
and at-random deletion driven by a fully observed conditional column (the
rows with the largest — or smallest — conditional values lose their
target value, deterministically).

Little's test compares per-pattern observed means against the maximum
likelihood estimates under multivariate normality; a small p-value rejects
the completely-at-random hypothesis.  Category codes enter as plain
numbers, a deliberate approximation for categorical data (the test is a
mean-comparison screen, not a distributional fit).

Rows are grouped once: ``np.unique`` over the bit-packed observed masks
gives every row its pattern (exact for any column count), and the rows are
sorted by pattern.  The EM and the statistic then walk the patterns in
blocks of ``_BLOCK``.  Per block, one batched ``np.linalg.solve`` runs on
the covariance masked to each pattern's observed rows and columns, with 1
on the diagonal of its missing columns; the right-hand sides are the
pattern's missing columns, padded to the block's widest.  In the EM this
gives every pattern's regression of its missing columns on its observed
ones, applied to the block's rows by one sparse product with a
block-diagonal design; in the statistic it gives each pattern's
Mahalanobis term.  If a block's batched solve finds a singular matrix, that
block is solved again pattern by pattern with a ridge retry, and a block
that stays singular raises ``SingularCovariance``.  Temporaries stay
within one block: nothing is sized patterns × p² or rows × p × k.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import MISSING, CategoricalDataset
from .errors import DataError, SingularCovariance

__all__ = ["LittleTestResult", "inject_mcar", "inject_mar", "littles_test"]


# ---------------------------------------------------------------------------
# Injection
# ---------------------------------------------------------------------------

def _target_index(data: CategoricalDataset, target: str) -> int:
    j = data.column_index(target)
    if np.any(data.cells[:, j] == MISSING):
        raise DataError(
            f"target column {target!r} already has missing cells"
        )
    return j


def _n_cells(data: CategoricalDataset, fraction: float) -> int:
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must be in (0, 1), got {fraction}")
    count = int(np.floor(fraction * data.n_rows))
    if count < 1:
        raise DataError(
            f"fraction {fraction} of {data.n_rows} rows removes no cells"
        )
    return count


def inject_mcar(data: CategoricalDataset, target: str, fraction: float,
                seed: int) -> CategoricalDataset:
    """Blank ``floor(fraction * N)`` uniformly random cells of one column."""
    j = _target_index(data, target)
    count = _n_cells(data, fraction)
    if seed < 0:
        raise DataError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    rows = rng.choice(data.n_rows, size=count, replace=False)
    cells = np.array(data.cells, copy=True)
    cells[rows, j] = MISSING
    return data.with_cells(cells)


def inject_mar(data: CategoricalDataset, target: str, conditional: str,
               fraction: float, direction: str = "top") -> CategoricalDataset:
    """Blank the target in the rows with the most extreme conditional values.

    ``direction="top"`` removes the target from the ``floor(fraction * N)``
    rows with the *largest* conditional values; ``"bottom"`` from the
    smallest.  Ties break by original row order, so the operation is fully
    deterministic.  Row order of the output matches the input.
    """
    j = _target_index(data, target)
    c = data.column_index(conditional)
    if c == j:
        raise DataError("conditional column must differ from the target")
    if direction not in ("top", "bottom"):
        raise DataError(f"direction must be 'top' or 'bottom', got {direction!r}")
    values = data.cells[:, c]
    if np.any(values == MISSING):
        raise DataError(
            f"conditional column {conditional!r} must be fully observed"
        )
    if np.all(values == values[0]):
        warnings.warn(
            f"conditional column {conditional!r} is constant; the selection "
            "degenerates to the first rows in file order",
            stacklevel=2,
        )
    count = _n_cells(data, fraction)
    keys = -values if direction == "top" else values
    order = np.lexsort((np.arange(data.n_rows), keys))
    cells = np.array(data.cells, copy=True)
    cells[order[:count], j] = MISSING
    return data.with_cells(cells)


# ---------------------------------------------------------------------------
# Little's MCAR test
# ---------------------------------------------------------------------------

# patterns per batched solve: bounds each per-pattern temporary to this many
# p × p matrices
_BLOCK = 256

# The EM of the normal model stops when no mean or covariance entry moves
# by EM_TOL, or after EM_MAX_ITER iterations.
EM_TOL = 1e-6
EM_MAX_ITER = 200


@dataclass(frozen=True)
class LittleTestResult:
    statistic: float
    df: int
    p_value: float
    n_patterns: int


def _solve_observed(cov: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve ``cov @ x = rhs`` with one ridge retry on singularity."""
    try:
        return np.linalg.solve(cov, rhs)
    except np.linalg.LinAlgError:
        pass
    ridge = 1e-8 * np.trace(cov) / cov.shape[0]
    try:
        return np.linalg.solve(cov + ridge * np.eye(cov.shape[0]), rhs)
    except np.linalg.LinAlgError:
        raise SingularCovariance(
            f"{what}: observed-block covariance is singular even after "
            "ridge regularization"
        ) from None


def _solve_patterns(cov: np.ndarray, observed: np.ndarray, rhs: np.ndarray,
                    what: str) -> np.ndarray:
    """Solve ``cov[O, O] @ x[O] = rhs[O]`` for every pattern's observed set O.

    ``observed`` is patterns × p and ``rhs`` patterns × p × k, zero in the
    rows of missing columns.  One batched solve runs on ``cov`` masked to
    each pattern's observed rows and columns with 1 on the diagonal of its
    missing columns, so ``x`` is zero in those rows.  If any matrix of the
    batch is singular, each pattern is solved alone by ``_solve_observed``,
    which keeps its ridge retry and its error.
    """
    padded = np.where(observed[:, :, None] & observed[:, None, :], cov, 0.0)
    diagonal = np.arange(cov.shape[0])
    padded[:, diagonal, diagonal] += ~observed
    try:
        return np.linalg.solve(padded, rhs)
    except np.linalg.LinAlgError:
        pass
    solved = np.zeros_like(rhs)
    for g, mask in enumerate(observed):
        idx = np.flatnonzero(mask)
        solved[g, idx] = _solve_observed(cov[np.ix_(idx, idx)], rhs[g, idx],
                                         what)
    return solved


class _EMBlock:
    """One block of patterns, each with a missing column, for the E-step.

    ``filled`` holds the block's rows sorted by pattern with 0 at missing
    entries, ``observed`` the patterns' masks and ``counts`` their row
    counts.  Everything that does not change between EM iterations is built
    here once.
    """

    def __init__(self, filled: np.ndarray, observed: np.ndarray,
                 counts: np.ndarray) -> None:
        from scipy.sparse import csr_array
        n_rows, p = filled.shape
        n_missing = p - observed.sum(axis=1)
        valid = np.arange(n_missing.max()) < n_missing[:, None]
        self.filled = filled
        self.observed = observed
        # each pattern's missing columns in column order, then padding
        self.missing = np.argsort(observed, axis=1, kind="stable")[
            :, :valid.shape[1]]
        self.cross_mask = observed[:, :, None] & valid[:, None, :]
        self.weights = counts[:, None, None] * (valid[:, :, None]
                                                & valid[:, None, :])
        self.pattern = np.repeat(np.arange(counts.size), counts)
        row_observed = observed[self.pattern]
        self.row_missing = ~row_observed
        self.row_valid = valid[self.pattern]
        # block-diagonal design: a row's observed values sit in the p
        # columns of its own pattern, so one product applies every
        # pattern's regression to its own rows
        rows, cols = np.nonzero(row_observed)
        indptr = np.concatenate(([0], np.cumsum(row_observed.sum(axis=1))))
        self.design = csr_array(
            (filled[rows, cols], self.pattern[rows] * p + cols, indptr),
            shape=(n_rows, counts.size * p))

    def accumulate(self, mean: np.ndarray, cov: np.ndarray,
                   sum1: np.ndarray, sum2: np.ndarray) -> None:
        """Add the block's completed sums and residual covariance."""
        # cov[O, M] of every pattern, padded to the block's widest M
        cross = cov[:, self.missing].transpose(1, 0, 2) * self.cross_mask
        coef = _solve_patterns(cov, self.observed, cross, "EM step")
        shift = mean[self.missing] - np.einsum("j,gjc->gc", mean, coef)
        predicted = (self.design @ coef.reshape(-1, coef.shape[2])
                     + shift[self.pattern])
        completed = self.filled.copy()
        completed[self.row_missing] = predicted[self.row_valid]
        sum1 += completed.sum(axis=0)
        sum2 += completed.T @ completed
        square = (self.missing[:, :, None], self.missing[:, None, :])
        resid_cov = cov[square] - cross.transpose(0, 2, 1) @ coef
        np.add.at(sum2, square, self.weights * resid_cov)


def _em_normal(y: np.ndarray, filled: np.ndarray, observed: np.ndarray,
               starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ML mean and covariance of a normal model with missing entries.

    The rows of ``y`` (NaN where missing) and ``filled`` (0 there) are
    sorted by pattern: pattern g observes ``observed[g]`` and owns rows
    ``starts[g]:starts[g + 1]``.
    """
    n, p = y.shape
    mean = np.nanmean(y, axis=0)
    variance = np.nanvar(y, axis=0)
    variance = np.where(variance > 0, variance, 1.0)
    cov = np.diag(variance)
    # the fully observed pattern, if any, sorts last; its rows need no
    # regression (so no solve that could fail), and their sums are the same
    # in every iteration
    regressed = len(observed) - int(observed[-1].all())
    complete = filled[starts[regressed]:]
    complete_sum1 = complete.sum(axis=0)
    complete_sum2 = complete.T @ complete
    blocks = []
    for lo in range(0, regressed, _BLOCK):
        hi = min(lo + _BLOCK, regressed)
        blocks.append(_EMBlock(filled[starts[lo]:starts[hi]], observed[lo:hi],
                               np.diff(starts[lo:hi + 1])))
    for _ in range(EM_MAX_ITER):
        sum1 = complete_sum1.copy()
        sum2 = complete_sum2.copy()
        for block in blocks:
            block.accumulate(mean, cov, sum1, sum2)
        new_mean = sum1 / n
        new_cov = sum2 / n - np.outer(new_mean, new_mean)
        new_cov = 0.5 * (new_cov + new_cov.T)
        change = max(float(np.max(np.abs(new_mean - mean))),
                     float(np.max(np.abs(new_cov - cov))))
        mean, cov = new_mean, new_cov
        if change < EM_TOL:
            break
    return mean, cov


def littles_test(y: np.ndarray) -> LittleTestResult:
    """Little's completely-at-random test on a numeric matrix.

    ``y`` holds one row per case with NaN marking missing entries.  Rows
    with no observed entries are dropped (they carry no moments).  The
    statistic sums, over missingness patterns, the Mahalanobis distance of
    the pattern's observed means from the EM estimates; under MCAR it is
    asymptotically chi-square with ``sum(p_j) - p`` degrees of freedom.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] < 2:
        raise DataError("need a 2-D matrix with at least two columns")
    observed = ~np.isnan(y)
    keep = observed.any(axis=1)
    y = y[keep]
    observed = observed[keep]
    if y.shape[0] < 2:
        raise DataError("need at least two rows with observed values")
    if not observed.any(axis=0).all():
        empty = int(np.flatnonzero(~observed.any(axis=0))[0])
        raise DataError(f"column {empty} has no observed values")

    # one pattern index per row; packed bytes keep the key exact for any p
    _, first, inverse, counts = np.unique(
        np.packbits(observed, axis=1), axis=0, return_index=True,
        return_inverse=True, return_counts=True)
    if counts.size == 1:
        return LittleTestResult(0.0, 0, 1.0, 1)
    patterns = observed[first]
    order = np.argsort(inverse.ravel(), kind="stable")
    y = y[order]
    filled = np.where(observed[order], y, 0.0)
    starts = np.concatenate(([0], np.cumsum(counts)))

    mean, cov = _em_normal(y, filled, patterns, starts)

    means = np.add.reduceat(filled, starts[:-1], axis=0) / counts[:, None]
    diff = np.where(patterns, means - mean, 0.0)
    statistic = 0.0
    for lo in range(0, counts.size, _BLOCK):
        block = diff[lo:lo + _BLOCK]
        solved = _solve_patterns(cov, patterns[lo:lo + _BLOCK],
                                 block[:, :, None], "test statistic")
        statistic += float(counts[lo:lo + _BLOCK]
                           @ np.einsum("gj,gj->g", block, solved[:, :, 0]))
    df = int(patterns.sum()) - y.shape[1]
    if df <= 0:
        return LittleTestResult(float(statistic), 0, 1.0, counts.size)
    from scipy.special import chdtrc
    p_value = float(chdtrc(df, statistic))
    return LittleTestResult(float(statistic), df, p_value, counts.size)
