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
mean-comparison screen, not a distributional fit).  Its degrees of freedom
are an integer, so the χ² p-value is a finite sum (``_chi2_tail``) and the
test needs no scipy.

Rows are grouped by ``np.unique`` over the bit-packed observed masks
(exact for any column count) and sorted by pattern, the patterns by their
number k of missing columns.  Each EM iteration inverts Σ once, giving
P = Σ⁻¹ (the sweep-operator identity of Schafer 1997, ch. 5).  With
d = x − μ zero on a pattern's missing set M, P d is one product over all
rows, and the pattern needs only its k × k block P_MM: its missing entries
are μ_M − P_MM⁻¹ (P d)_M with residual covariance P_MM⁻¹, and its
statistic term d_Oᵀ Σ_OO⁻¹ d_O is dᵀPd − (Pd)_Mᵀ P_MM⁻¹ (Pd)_M.  Patterns
of one k form groups of at most ``_GROUP_ENTRIES`` block entries, so each
batched inverse is k × k with no padding.  When Σ's reciprocal condition
number is below ``_MIN_RCOND`` (a constant column makes Σ singular), each
pattern's observed block is solved on its own with one ridge retry, and a
block that stays singular raises ``SingularCovariance``.  Both paths share
the step that fills the missing entries and adds the residual covariance.
Each column is centred on its observed mean first: the statistic does not
depend on location, and centred, E[xxᵀ] − μμᵀ keeps its digits.  A centre
or Σ that is not finite (the sums overflowed) raises ``NumericalFailure``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import MISSING, CategoricalDataset
from .errors import DataError, NumericalFailure, SingularCovariance

__all__ = ["LittleTestResult", "inject_mcar", "inject_mar", "littles_test"]


# ---------------------------------------------------------------------------
# Injection
# ---------------------------------------------------------------------------

# which conditional extreme inject_mar blanks
DEFAULT_DIRECTION = "top"
MAR_DIRECTIONS = (DEFAULT_DIRECTION, "bottom")


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


def conditional_values(data: CategoricalDataset, conditional: str
                       ) -> np.ndarray:
    """The column a mar injection ranks rows by; it must be fully observed."""
    values = data.cells[:, data.column_index(conditional)]
    if np.any(values == MISSING):
        raise DataError(
            f"conditional column {conditional!r} must be fully observed"
        )
    return values


def inject_mar(data: CategoricalDataset, target: str, conditional: str,
               fraction: float, direction: str = DEFAULT_DIRECTION
               ) -> CategoricalDataset:
    """Blank the target in the rows with the most extreme conditional values.

    ``direction="top"`` removes the target from the ``floor(fraction * N)``
    rows with the *largest* conditional values; ``"bottom"`` from the
    smallest.  Ties break by original row order, so the operation is fully
    deterministic.  Row order of the output matches the input.
    """
    j = _target_index(data, target)
    if data.column_index(conditional) == j:
        raise DataError("conditional column must differ from the target")
    if direction not in MAR_DIRECTIONS:
        raise DataError(
            f"direction must be one of {MAR_DIRECTIONS}, got {direction!r}")
    values = conditional_values(data, conditional)
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

# The EM of the normal model stops when no mean or covariance entry moves
# by EM_TOL, or after EM_MAX_ITER iterations.
EM_TOL = 1e-6
EM_MAX_ITER = 200

# reciprocal condition number of Σ below which each observed block is solved
_MIN_RCOND = 1e-8

# entries of a group's k × k blocks: bounds its patterns to this over k²
_GROUP_ENTRIES = 1 << 16


@dataclass(frozen=True)
class LittleTestResult:
    statistic: float
    df: int
    p_value: float
    n_patterns: int


@dataclass(frozen=True)
class _Group:
    """Patterns that each miss k columns, with their rows contiguous."""

    patterns: slice          # into the patterns, ordered by k
    rows: slice              # into the incomplete rows, sorted by pattern
    missing: np.ndarray      # patterns × k missing columns, ascending
    square: tuple            # index of each pattern's M × M block
    row_pattern: np.ndarray  # each row's pattern within the group
    counts: np.ndarray       # rows per pattern


def _groups(patterns: np.ndarray, counts: np.ndarray
            ) -> tuple[int, list[_Group]]:
    """Count of complete rows; groups of one k >= 1 for the other rows."""
    n_missing = patterns.shape[1] - patterns.sum(axis=1)
    starts = np.concatenate(([0], np.cumsum(counts)))
    skip = starts[np.searchsorted(n_missing, 1)]
    groups = []
    for k in np.unique(n_missing[n_missing > 0]):
        first, stop = np.searchsorted(n_missing, [k, k + 1])
        step = max(1, _GROUP_ENTRIES // (k * k))
        for lo in range(first, stop, step):
            hi = min(lo + step, stop)
            missing = np.argsort(patterns[lo:hi], axis=1, kind="stable")[:, :k]
            groups.append(_Group(
                slice(lo, hi), slice(starts[lo] - skip, starts[hi] - skip),
                missing, (missing[:, :, None], missing[:, None, :]),
                np.repeat(np.arange(hi - lo), counts[lo:hi]), counts[lo:hi]))
    return int(skip), groups


def _check_moments(moments: np.ndarray) -> None:
    if not np.isfinite(moments).all():
        raise NumericalFailure(
            "EM step: the covariance overflows; rescale the columns")


def _precision(cov: np.ndarray) -> np.ndarray | None:
    """Σ⁻¹, or None when Σ is too close to singular."""
    _check_moments(cov)
    well_posed = np.linalg.cond(cov) * _MIN_RCOND <= 1.0
    return np.linalg.inv(cov) if well_posed else None


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


def _regress(mean: np.ndarray, cov: np.ndarray, precision: np.ndarray | None,
             given: np.ndarray, group: _Group
             ) -> tuple[np.ndarray, np.ndarray]:
    """The group's rows' missing entries and its residual covariances.

    With ``precision`` P, ``given`` holds the rows of P d, and P_MM⁻¹ is
    applied a column at a time (no temporary is rows × k × k); without, it
    holds d, and each pattern's observed block of Σ is solved on its own.
    """
    if precision is not None:
        resid = np.linalg.inv(precision[group.square])
        row_missing = group.missing[group.row_pattern]
        pd = np.take_along_axis(given, row_missing, axis=1)
        predicted = mean[row_missing]
        for j in range(row_missing.shape[1]):
            predicted -= resid[group.row_pattern, :, j] * pd[:, j, None]
        return predicted, resid
    predicted = np.empty((len(given), group.missing.shape[1]))
    resid = np.empty(group.missing.shape + group.missing.shape[1:])
    bounds = np.concatenate(([0], np.cumsum(group.counts)))
    for g, mis in enumerate(group.missing):
        obs = np.setdiff1d(np.arange(len(mean)), mis)
        coef = _solve_observed(cov[np.ix_(obs, obs)], cov[np.ix_(obs, mis)],
                               "EM step")
        rows = slice(bounds[g], bounds[g + 1])
        predicted[rows] = mean[mis] + given[rows][:, obs] @ coef
        resid[g] = cov[np.ix_(mis, mis)] - cov[np.ix_(mis, obs)] @ coef
    return predicted, resid


@np.errstate(over="ignore", invalid="ignore")
def _em_normal(y: np.ndarray, filled: np.ndarray, n_complete: int,
               groups: list[_Group]) -> tuple[np.ndarray, np.ndarray]:
    """ML normal mean and covariance from ``_groups``' rows of ``y`` (NaN
    where missing) and ``filled`` (0 there)."""
    mean = np.nanmean(y, axis=0)
    variance = np.nanvar(y, axis=0)
    cov = np.diag(np.where(variance > 0, variance, 1.0))
    # complete rows need no regression, and their sums never change
    complete, filled = filled[:n_complete], filled[n_complete:]
    complete_sum1, complete_sum2 = complete.sum(axis=0), complete.T @ complete
    observed = ~np.isnan(y[n_complete:])
    for _ in range(EM_MAX_ITER):
        precision = _precision(cov)
        given = np.where(observed, filled - mean, 0.0)
        if precision is not None:
            given = given @ precision
        completed = filled.copy()
        sum2 = complete_sum2.copy()
        for group in groups:
            predicted, resid = _regress(mean, cov, precision,
                                        given[group.rows], group)
            np.put_along_axis(completed[group.rows],
                              group.missing[group.row_pattern], predicted, 1)
            np.add.at(sum2, group.square, group.counts[:, None, None] * resid)
        new_mean = (complete_sum1 + completed.sum(axis=0)) / len(y)
        new_cov = ((sum2 + completed.T @ completed) / len(y)
                   - np.outer(new_mean, new_mean))
        new_cov = 0.5 * (new_cov + new_cov.T)
        change = max(float(np.max(np.abs(new_mean - mean))),
                     float(np.max(np.abs(new_cov - cov))))
        mean, cov = new_mean, new_cov
        if change < EM_TOL:
            break
    return mean, cov


# Terms of the χ² tail more than this far (in log) below the largest one
# are left out: even 10⁶ of them cannot change the sum's last bit.
_TAIL_WINDOW = 50.0


def _chi2_tail(x: float, df: int) -> float:
    """P(χ² > x) with ``df`` > 0 degrees of freedom, for a finite ``x``.

    With y = x / 2 and h = 1/2 for odd ``df`` (else 0), the tail is
    [erfc √y, for odd df] + Σ e⁻ʸ y^(i+h) / Γ(i+h+1) over i < df // 2.
    The terms rise to their largest at i = ⌊y − h⌋ and fall away on both
    sides, so the sum walks out from there until they drop below the
    window.
    """
    if x <= 0:
        return 1.0
    y, h, n = x / 2.0, 0.5 * (df % 2), df // 2
    head = math.erfc(math.sqrt(y)) if h else 0.0
    if n == 0:
        return head
    log_y = math.log(y)

    def log_term(i: int) -> float:
        return (i + h) * log_y - y - math.lgamma(i + h + 1.0)

    peak = min(max(int(y - h), 0), n - 1)
    floor = log_term(peak) - _TAIL_WINDOW
    terms = []
    for side in (range(peak, -1, -1), range(peak + 1, n)):
        terms += itertools.takewhile(lambda t: t > floor, map(log_term, side))
    return head + math.fsum(map(math.exp, terms))


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous uint8 matrix as one ``np.void`` key."""
    return rows.view(np.dtype((np.void, rows.shape[1])))[:, 0]


def littles_test(y: np.ndarray) -> LittleTestResult:
    """Little's completely-at-random test on a numeric matrix.

    ``y`` holds one row per case with NaN marking missing entries; every
    other entry must be finite.  Rows with no observed entries are dropped
    (they carry no moments).  The statistic sums, over missingness
    patterns, the Mahalanobis distance of the pattern's observed means from
    the EM estimates; under MCAR it is asymptotically chi-square with
    ``sum(p_j) - p`` degrees of freedom.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] < 2:
        raise DataError("need a 2-D matrix with at least two columns")
    if np.isinf(y).any():
        raise DataError("entries must be finite or NaN")
    observed = ~np.isnan(y)
    keep = observed.any(axis=1)
    y, observed = y[keep], observed[keep]
    if y.shape[0] < 2:
        raise DataError("need at least two rows with observed values")
    if not observed.any(axis=0).all():
        empty = int(np.flatnonzero(~observed.any(axis=0))[0])
        raise DataError(f"column {empty} has no observed values")
    with np.errstate(over="ignore", invalid="ignore"):
        centre = np.nanmean(y, axis=0)
    _check_moments(centre)
    y = y - centre

    # one pattern index per row; packed bytes keep the key exact for any p
    _, first, inverse, counts = np.unique(
        _row_keys(np.packbits(observed, axis=1)), return_index=True,
        return_inverse=True, return_counts=True)
    if counts.size == 1:
        return LittleTestResult(0.0, 0, 1.0, 1)
    # patterns by missing count, then rows by pattern
    by_count = np.argsort(-observed[first].sum(axis=1), kind="stable")
    patterns, counts = observed[first[by_count]], counts[by_count]
    order = np.lexsort((inverse.ravel(), -observed.sum(axis=1)))
    y = y[order]
    filled = np.where(observed[order], y, 0.0)
    n_complete, groups = _groups(patterns, counts)

    mean, cov = _em_normal(y, filled, n_complete, groups)

    means = (np.add.reduceat(filled, np.cumsum(counts) - counts, axis=0)
             / counts[:, None])
    diff = np.where(patterns, means - mean, 0.0)
    # each pattern's d_Oᵀ Σ_OO⁻¹ d_O, weighted by its rows
    precision = _precision(cov)
    if precision is None:
        terms = np.array([
            d[o] @ _solve_observed(cov[np.ix_(o, o)], d[o], "test statistic")
            for d, o in zip(diff, patterns)])
    else:
        product = diff @ precision
        terms = np.einsum("gj,gj->g", diff, product)
        for group in groups:
            given = np.take_along_axis(product[group.patterns], group.missing,
                                       axis=1)
            terms[group.patterns] -= np.einsum(
                "gi,gij,gj->g", given,
                np.linalg.inv(precision[group.square]), given)
    statistic = float(counts @ terms)
    df = int(patterns.sum()) - y.shape[1]
    if df <= 0:
        return LittleTestResult(statistic, 0, 1.0, counts.size)
    p_value = _chi2_tail(statistic, df)
    return LittleTestResult(statistic, df, p_value, counts.size)
