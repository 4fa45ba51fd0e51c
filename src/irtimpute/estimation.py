"""Marginal maximum-likelihood fitting and latent-trait scoring.

The latent trait is integrated out over a fixed, equally spaced quadrature
grid carrying standard-normal prior weights.  One EM map is:

* E-step: each case's posterior over grid nodes (prior weight times the
  pattern likelihood, normalized), accumulated into expected response
  counts per item, node, and category;
* M-step: projected Fisher scoring with step-halving on the expected
  complete-data log-likelihood, in a parameterization where the structural
  constraints (positive slopes, ordered boundaries, anchored zero category)
  cannot be violated.  The Newton matrix is the expected information
  (Bock & Aitkin 1981); coordinates pressed out of the parameter box are
  held, as in Bertsekas's projected Newton.  Items that share a kernel and
  a category count take one stacked Newton, but every item converges,
  halves its step and fails on its own.

The fit runs the map in SQUAREM cycles (Varadhan & Roland 2008, step length
S3) over the stacked x-space vector of all items.  Two maps x1 = F(x0) and
x2 = F(x1) give r = x1 - x0 and v = x2 - 2 x1 + x0; the point
x0 - 2 alpha r + alpha^2 v, with alpha = min(-|r|/|v|, -1), is projected onto
the parameter boxes and one map is taken from it.  A monotone guard keeps
x2 instead when the projected point's log-likelihood is below x1's, so the
log-likelihood never falls.  A plain map ends each cycle; near the
iteration cap, which counts maps, only plain maps run.

The E-step is two sparse products.  The code matrix is encoded once per fit
as a CSR design ``X`` of shape cases × (1 + ΣK): column 0 holds ones, then
each item has a block of one-hot columns, one per category, and a missing
cell has no entry in its item's block.  Stacking the log prior weights on
the transposed per-item log-probability tables gives ``L`` of shape
(1 + ΣK) × nodes, so ``X @ L`` is every case's log prior plus log pattern
likelihood, and ``X.T @ posterior`` holds every item's expected counts
(block by block) with the node masses in row 0.  Scipy adds each output
row's terms one at a time in index order, starting from zero: the prior
first and then the items in order, or the cases in order.  That is the
order of a plain per-item loop, so the products match such a loop bit for
bit, and no BLAS thread count can change them.  An absent entry is never
multiplied, so a log-probability of ``-inf`` on a category a case did not
give cannot turn into ``0 × -inf = nan``.

Convergence is declared when a cycle's closing map changes no parameter by
more than the tolerance, not on the log-likelihood change.  Scoring is the
posterior mean (and SD) of the trait on the same grid; missing cells simply
drop out of the pattern likelihood.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .data import CategoricalDataset, DiscretizationMap, atomic_write
from .errors import (
    DataError,
    EmptyCategory,
    InsufficientData,
    NewtonDiverged,
    NumericalFailure,
    UnobservedCategory,
)
from .models import (
    Binary2PL,
    GradedItem,
    ItemModel,
    NominalItem,
    _as_json,
    _check_code,
    log_category_probs,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_array

COUNT_FLOOR = 1e-10

# Each M-step's Newton: iteration cap and projected-gradient tolerance
# (relative to the objective's magnitude).
NEWTON_MAX_ITER = 20
NEWTON_TOL = 1e-8

MODEL_FORMAT = "irtimpute-model"
MODEL_VERSION = 1

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Grid and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureGrid:
    """Trait nodes with their (normalized) prior weights."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(float(v) for v in self.nodes))
        object.__setattr__(self, "weights", tuple(float(v) for v in self.weights))
        nodes = np.asarray(self.nodes)
        weights = np.asarray(self.weights)
        if nodes.size != weights.size or nodes.size == 0:
            raise DataError("grid nodes and weights must align")
        if np.any(np.diff(nodes) <= 0):
            raise DataError("grid nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise DataError("grid weights must be strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DataError("grid weights must sum to 1")

    @property
    def size(self) -> int:
        return len(self.nodes)

    def node_array(self) -> np.ndarray:
        return np.asarray(self.nodes)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights)


def build_grid(size: int = 61, grid_range: tuple[float, float] = (-6.0, 6.0)
               ) -> QuadratureGrid:
    """Equally spaced nodes with standard-normal weights normalized to 1."""
    lo, hi = grid_range
    if size < 11:
        raise DataError("grid size must be at least 11")
    if not lo < hi:
        raise DataError(f"invalid grid range [{lo}, {hi}]")
    nodes = np.linspace(lo, hi, size)
    # scipy.stats.norm.pdf's own formula: the same weights, bit for bit
    weights = np.exp(-nodes**2 / 2.0) / np.sqrt(2 * np.pi)
    weights /= weights.sum()
    return QuadratureGrid(tuple(nodes), tuple(weights))


@dataclass(frozen=True)
class FitConfig:
    grid_size: int = 61
    grid_range: tuple[float, float] = (-6.0, 6.0)
    max_iter: int = 500
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        # the grid's size and range are checked by build_grid
        if self.tol <= 0:
            raise DataError("tolerance must be positive")
        if self.max_iter < 1:
            raise DataError("iteration cap must be at least 1")


@dataclass(frozen=True)
class FittedModel:
    items: tuple[ItemModel, ...]
    grid: QuadratureGrid
    converged: bool
    iterations: int
    final_loglik: float
    loglik_trace: tuple[float, ...]
    clamp_events: tuple[str, ...] = ()
    discretization: tuple[DiscretizationMap, ...] = ()


@dataclass(frozen=True)
class ThetaEstimate:
    eap_mean: float
    posterior_sd: float


# ---------------------------------------------------------------------------
# Vectorized likelihood core
# ---------------------------------------------------------------------------

def _design(codes: np.ndarray, items: tuple[ItemModel, ...]) -> csr_array:
    """One-hot design matrix: cases × (1 + total categories).

    ``codes`` is an integer matrix aligned with ``items``; -1 marks a
    missing cell, which gets no entry.  Each row's column indices increase,
    so products add the prior first and then the items in order.
    """
    from scipy.sparse import csr_array
    sizes = [item.n_categories for item in items]
    starts = np.cumsum([1, *sizes])
    n = codes.shape[0]
    columns = np.column_stack([np.zeros(n, np.int64), codes + starts[:-1]])
    present = np.column_stack([np.ones(n, bool), codes >= 0])
    indices = columns[present]
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
    return csr_array((np.ones(indices.size), indices, indptr),
                     shape=(n, int(starts[-1])))


def _log_table(items: tuple[ItemModel, ...], grid: QuadratureGrid
               ) -> np.ndarray:
    """Log prior weights over the items' transposed log-probability tables.

    Shape (1 + total categories, nodes), matching the columns of
    :func:`_design`.
    """
    nodes = grid.node_array()
    return np.vstack([np.log(grid.weight_array())[None, :],
                      *(log_category_probs(nodes, item).T for item in items)])


def _posteriors_and_loglik(log_joint: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Per-case posterior over the nodes and marginal log-likelihood.

    ``log_joint`` is overwritten: it becomes the posterior matrix.
    """
    peak = log_joint.max(axis=1, keepdims=True)
    # A row that is -inf at every node turns into nan here; the isfinite
    # check below reports it.
    with np.errstate(invalid="ignore"):
        log_joint -= peak
    posterior = np.exp(log_joint, out=log_joint)
    total = posterior.sum(axis=1, keepdims=True)
    case_loglik = (np.log(total) + peak)[:, 0]
    if not np.all(np.isfinite(case_loglik)):
        raise NumericalFailure(
            "a response pattern has zero likelihood at every grid node"
        )
    posterior /= total
    return posterior, case_loglik


def _posterior(x: csr_array, log_table: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Per-case posterior over the grid and marginal log-likelihood."""
    return _posteriors_and_loglik(x @ log_table)


def _codes_matrix(data: CategoricalDataset, items: tuple[ItemModel, ...]
                  ) -> np.ndarray:
    """Integer code matrix for the item-bound columns, validated."""
    cols = []
    for item in items:
        schema = data.schema_for(item.column)
        if not schema.is_categorical:
            raise DataError(
                f"column {item.column!r} is not categorical; discretize first"
            )
        if schema.arity != item.n_categories:
            raise DataError(
                f"column {item.column!r} has arity {schema.arity} but the "
                f"item models {item.n_categories} categories"
            )
        cols.append(data.codes(item.column))
    return np.column_stack(cols) if cols else np.empty((data.n_rows, 0), int)


@dataclass(frozen=True)
class EStepResult:
    """Expected counts per item plus posterior bookkeeping."""

    expected_counts: tuple[np.ndarray, ...]
    node_masses: np.ndarray
    marginal_loglik: float
    posteriors: np.ndarray = field(repr=False)


def e_step(data: CategoricalDataset, items: tuple[ItemModel, ...],
           grid: QuadratureGrid) -> EStepResult:
    """Posterior-weighted response counts r[i][node, category].

    Every feature column of ``data`` must be bound to exactly one item, in
    column order.
    """
    feature_names = [data.schemas[j].name for j in data.feature_indices]
    if [item.column for item in items] != feature_names:
        raise DataError(
            f"items are bound to {[i.column for i in items]!r} but the "
            f"feature columns are {feature_names!r}"
        )
    items = tuple(items)
    return _e_step_core(_design(_codes_matrix(data, items), items), items,
                        grid)


def _e_step_core(x: csr_array, items: tuple[ItemModel, ...],
                 grid: QuadratureGrid) -> EStepResult:
    posterior, case_loglik = _posterior(x, _log_table(items, grid))
    # x.T is the CSC view of the same arrays; its product also adds each
    # output row's terms in case order.
    totals = x.T @ posterior
    counts = []
    start = 1
    for item in items:
        stop = start + item.n_categories
        counts.append(np.ascontiguousarray(totals[start:stop].T))
        start = stop
    return EStepResult(
        expected_counts=tuple(counts),
        node_masses=totals[0],
        marginal_loglik=float(case_loglik.sum()),
        posteriors=posterior,
    )


# ---------------------------------------------------------------------------
# M-step: projected Fisher scoring, one stacked Newton per kernel and size
# ---------------------------------------------------------------------------
# Items that share a kernel (``models``: cumulative or softmax) and a
# category count are solved together on arrays of shape
# items × nodes × categories × coordinates.  Every reduction runs per item,
# in a fixed order and outside BLAS, so an item's update depends neither on
# the other items of its group nor on the BLAS thread count.

_PROBE = 1e-9


def _objective(kernel, x: np.ndarray, r: np.ndarray, nodes: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective, x-space gradient and expected information per item.

    ``r`` holds the floored expected counts, items × nodes × categories.
    The information is I = Σ_q N_q Σ_k π_qk d_qk d_qkᵀ, with N_q the count
    total at node q and d_qk the x-space derivative of log π_qk.  It is
    minus the Hessian of the objective when r = N π.
    """
    log_pi, _, d_params = kernel.derivatives(*kernel.natural(x), nodes)
    d = kernel.chain(x[:, None, None, :], d_params)
    f = (r * log_pi).reshape(len(x), -1).sum(axis=1)
    g = np.einsum("iqk,iqkp->ip", r, d)
    weights = r.sum(axis=2, keepdims=True) * np.exp(log_pi)
    info = np.einsum("iqk,iqkp,iqkr->ipr", weights, d, d)
    return f, g, info


def _held(kernel, x: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Coordinates the parameter box holds against a move in ``direction``.

    Each coordinate is probed on its own, a small step along the sign of
    its ``direction``; it is held when the projection undoes at least half
    of the probe.
    """
    step = _PROBE * np.maximum(1.0, np.abs(x)) * np.sign(direction)
    probes = x[:, None, :] + step[:, :, None] * np.eye(x.shape[1])
    moved = np.diagonal(kernel.clamp(probes), axis1=1, axis2=2) - x
    return moved * np.sign(direction) < 0.5 * np.abs(step)


def _solve_free(info: np.ndarray, g: np.ndarray, held: np.ndarray
                ) -> np.ndarray:
    """Newton direction on the free coordinates, zero on the held ones.

    NaN for an item whose reduced system is singular.
    """
    free = ~held
    n, p = g.shape
    a = np.where(free[:, :, None] & free[:, None, :], info, 0.0)
    a[:, range(p), range(p)] += held
    b = (g * free)[:, :, None]
    try:
        return np.linalg.solve(a, b)[:, :, 0]
    except np.linalg.LinAlgError:
        delta = np.full((n, p), np.nan)
        for i in range(n):
            try:
                delta[i] = np.linalg.solve(a[i], b[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return delta


def _projected_direction(kernel, x: np.ndarray, info: np.ndarray,
                         g: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Projected Newton direction per item, or a scaled ascent step.

    A coordinate is held when the box stops it along its gradient (the
    given ``held``) or along the Newton direction.  The solve is repeated
    until the direction moves no coordinate the box stops.
    """
    while True:
        delta = _solve_free(info, g, held)
        more = _held(kernel, x, delta) & ~held
        if not more.any():
            break
        held |= more
    ascent = np.all(np.isfinite(delta), axis=1) & ((g * delta).sum(axis=1) > 0)
    # fall back to a conservatively scaled ascent step
    curvature = np.maximum(
        1.0, np.abs(np.diagonal(info, axis1=1, axis2=2)).max(axis=1))
    return np.where(ascent[:, None], delta, g / curvature[:, None])


def _newton_maximize(kernel, x0: np.ndarray, r: np.ndarray,
                     nodes: np.ndarray, columns: list[str]) -> np.ndarray:
    """Projected Newton with the expected information, one row per item.

    Coordinates the parameter box stops are held before each step
    (Bertsekas's projected Newton); step-halving, convergence and failure
    are decided per item.
    """
    x = kernel.clamp(x0)
    f, g, info = _objective(kernel, x, r, nodes)
    bad = ~(np.isfinite(f) & np.all(np.isfinite(g), axis=1))
    if bad.any():
        raise NumericalFailure(
            f"item {columns[np.argmax(bad)]!r}: non-finite objective at start")
    active = np.arange(len(x))
    for _ in range(NEWTON_MAX_ITER):
        scale = np.maximum(1.0, np.abs(f[active]))
        # converge on the projected gradient: a held coordinate cannot move
        held = _held(kernel, x[active], g[active])
        going = ~(np.abs(g[active] * ~held).max(axis=1) <= NEWTON_TOL * scale)
        active, held = active[going], held[going]
        if not active.size:
            break
        delta = _projected_direction(kernel, x[active], info[active],
                                     g[active], held)
        step = 1.0
        trying = np.arange(active.size)
        for _ in range(60):
            rows = active[trying]
            x_new = kernel.clamp(x[rows] + step * delta[trying])
            f_new, g_new, info_new = _objective(kernel, x_new, r[rows], nodes)
            up = np.isfinite(f_new) & (f_new > f[rows])
            done = rows[up]
            x[done], f[done], g[done], info[done] = (
                x_new[up], f_new[up], g_new[up], info_new[up])
            trying = trying[~up]
            if not trying.size:
                break
            step *= 0.5
        # flat to machine precision along every probe: either at the
        # optimum (possibly pressed against a bound) or genuinely stuck
        # with a large gradient
        for i in active[trying]:
            gmax = np.max(np.abs(g[i]))
            if (gmax > 1e3 * NEWTON_TOL * max(1.0, abs(f[i]))
                    and not _at_bound(kernel, x[i:i + 1])):
                raise NewtonDiverged(
                    f"item {columns[i]!r}: no improving step with gradient "
                    f"{gmax:.3e}")
        active = np.delete(active, trying)
    return x


def _at_bound(kernel, x: np.ndarray) -> bool:
    """True when the projection holds some coordinate in some direction."""
    ones = np.ones_like(x)
    return bool(np.any(_held(kernel, x, ones) | _held(kernel, x, -ones)))


def _floored_counts(item: ItemModel, expected_counts: np.ndarray,
                    grid: QuadratureGrid) -> np.ndarray:
    r = np.asarray(expected_counts, dtype=np.float64)
    if r.shape != (grid.size, item.n_categories):
        raise DataError(
            f"expected counts for {item.column!r} must have shape "
            f"{(grid.size, item.n_categories)}, got {r.shape}"
        )
    if not np.all(np.isfinite(r) & (r >= 0)):
        raise DataError("expected counts must be finite and nonnegative")
    totals = r.sum(axis=0)
    zeros = np.flatnonzero(totals == 0)
    if zeros.size:
        raise EmptyCategory(
            f"column {item.column!r}: category {int(zeros[0])} has zero "
            "expected count"
        )
    return np.maximum(r, COUNT_FLOOR)


def _m_step(items: tuple[ItemModel, ...], expected_counts, grid: QuadratureGrid
            ) -> tuple[tuple[ItemModel, ...], list[str]]:
    """Improve every item against its expected counts.

    Returns the updated items and the clamp events of their parameters.
    """
    counts = [_floored_counts(item, r, grid)
              for item, r in zip(items, expected_counts)]
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault((item.params.kernel, item.n_categories), []).append(i)
    x = [None] * len(items)
    for (kernel, _), members in groups.items():
        solved = _newton_maximize(
            kernel, np.array([items[i].params.to_x() for i in members]),
            np.array([counts[i] for i in members]), grid.node_array(),
            [items[i].column for i in members])
        for i, row in zip(members, solved):
            x[i] = row
    updated = tuple(ItemModel(item.column, item.params.from_x(row))
                    for item, row in zip(items, x))
    events = [event for item in updated
              for event in item.params.bound_events(item.column)]
    return updated, events


def m_step_item(item: ItemModel, expected_counts: np.ndarray,
                grid: QuadratureGrid) -> ItemModel:
    """Improve one item's parameters against its expected counts."""
    (updated,), _ = _m_step((item,), (expected_counts,), grid)
    return updated


# ---------------------------------------------------------------------------
# Full fit
# ---------------------------------------------------------------------------

def _initial_items(data: CategoricalDataset, config: FitConfig
                   ) -> tuple[ItemModel, ...]:
    """Starting parameters from observed category proportions.

    Slopes start at 1; boundary locations at the inverse-normal transform
    of the cumulative observed proportions; nominal parameters at zero with
    a seeded +-0.01 jitter to break the symmetry of the anchored softmax.
    """
    from scipy.special import ndtri
    rng = np.random.default_rng(config.seed)
    items = []
    for j in data.feature_indices:
        schema = data.schemas[j]
        codes = data.codes(j)
        observed = codes[codes >= 0]
        assert schema.arity is not None
        counts = np.bincount(observed, minlength=schema.arity)
        proportions = counts / counts.sum()
        if schema.kind != "nominal":
            cum = np.clip(np.cumsum(proportions)[:-1], 1e-3, 1 - 1e-3)
            bs = ndtri(cum)
            for k in range(1, bs.size):
                bs[k] = max(bs[k], bs[k - 1] + 1e-3)
            family = Binary2PL if schema.kind == "binary" else GradedItem
            items.append(ItemModel(schema.name, family.from_bounds(1.0, bs)))
        else:
            free = rng.uniform(-0.01, 0.01, size=2 * (schema.arity - 1))
            items.append(ItemModel(schema.name, NominalItem(
                (0.0, *free[: schema.arity - 1]),
                (0.0, *free[schema.arity - 1:]),
            )))
    return tuple(items)


def _check_fit_preconditions(data: CategoricalDataset) -> None:
    features = data.feature_indices
    if not features:
        raise DataError("dataset has no feature columns")
    max_arity = 2
    for j in features:
        schema = data.schemas[j]
        if not schema.is_categorical:
            raise DataError(
                f"feature column {schema.name!r} is continuous; "
                "discretize it before fitting"
            )
        assert schema.arity is not None
        max_arity = max(max_arity, schema.arity)
        codes = data.codes(j)
        observed = codes[codes >= 0]
        if observed.size == 0:
            raise UnobservedCategory(
                f"column {schema.name!r} has no observed values"
            )
        present = np.bincount(observed, minlength=schema.arity) > 0
        if not present.all():
            missing_code = int(np.flatnonzero(~present)[0])
            raise UnobservedCategory(
                f"column {schema.name!r}: category code {missing_code} "
                "never observed"
            )
    if data.n_rows < 10 * max_arity:
        raise InsufficientData(
            f"{data.n_rows} cases cannot support items with up to "
            f"{max_arity} categories (need at least {10 * max_arity})"
        )


def _canonicalize_orientation(items: tuple[ItemModel, ...]
                              ) -> tuple[ItemModel, ...]:
    """Fix the trait's sign when nothing in the model pins it.

    A model made purely of nominal items is invariant under jointly negating
    the trait and every slope (the prior is symmetric), so the two mirrored
    solutions fit identically.  Binary/graded items break the tie via their
    positive-slope constraint; when none are present, orient the fit so the
    summed slopes are nonnegative.
    """
    if not items or not all(i.family == "nrm" for i in items):
        return items
    total = sum(sum(item.params.slopes) for item in items)
    if total >= 0:
        return items
    return tuple(
        ItemModel(item.column, NominalItem(
            tuple(-s for s in item.params.slopes), item.params.intercepts
        ))
        for item in items
    )


def _stacked_x(items: tuple[ItemModel, ...]) -> np.ndarray:
    """Every item's x-space point, concatenated in item order."""
    return np.concatenate([item.params.to_x() for item in items])


def _at_stacked_x(items: tuple[ItemModel, ...], x: np.ndarray
                  ) -> tuple[ItemModel, ...]:
    """``items`` at the stacked point ``x``, each projected onto its box."""
    ends = np.cumsum([item.params.to_x().size for item in items])[:-1]
    # a long step can overflow exp in the projection, which then puts the
    # boundaries on the box edge
    with np.errstate(over="ignore"):
        return tuple(
            ItemModel(item.column,
                      item.params.from_x(item.params.kernel.clamp(part)))
            for item, part in zip(items, np.split(x, ends)))


def _step_length(r: np.ndarray, v: np.ndarray) -> float:
    """SQUAREM's S3 step length -|r|/|v|, at most -1 (no extrapolation)."""
    # sums, not BLAS dot products, which may depend on the thread count
    rr, vv = float((r * r).sum()), float((v * v).sum())
    return min(-np.sqrt(rr / vv), -1.0) if vv > 0 else -1.0


class _EMMap:
    """The EM map of one fit: each call is one E-step and one M-step.

    ``trace`` gets each map's log-likelihood, so its length counts the
    maps; ``clamp_events`` are the last M-step's.
    """

    def __init__(self, design: csr_array, grid: QuadratureGrid) -> None:
        self.design, self.grid = design, grid
        self.trace: list[float] = []
        self.clamp_events: list[str] = []

    def __call__(self, items: tuple[ItemModel, ...],
                 es: EStepResult | None = None) -> tuple[ItemModel, ...]:
        """The map from ``items``; ``es`` is their E-step if already run."""
        if es is None:
            es = _e_step_core(self.design, items, self.grid)
        self.trace.append(es.marginal_loglik)
        items, self.clamp_events = _m_step(items, es.expected_counts,
                                           self.grid)
        return items

    def squarem(self, items: tuple[ItemModel, ...]) -> tuple[ItemModel, ...]:
        """Two maps, x1 = F(x0) and x2 = F(x1), then the map of the
        extrapolated point x0 - 2 alpha r + alpha^2 v when its
        log-likelihood is at least x1's, else x2 (the monotone guard)."""
        x0 = _stacked_x(items)
        one = self(items)
        two = self(one)
        x1, x2 = _stacked_x(one), _stacked_x(two)
        r, v = x1 - x0, x2 - 2.0 * x1 + x0
        alpha = _step_length(r, v)
        trial = _at_stacked_x(items, x0 - 2.0 * alpha * r + alpha**2 * v)
        es = _e_step_core(self.design, trial, self.grid)
        kept = es.marginal_loglik >= self.trace[-1]
        logger.debug("squarem: alpha %.6g, extrapolation %s, loglik %.6f "
                     "(%.6f at x1)", alpha, "kept" if kept else "rejected",
                     es.marginal_loglik, self.trace[-1])
        return self(trial, es) if kept else two


def fit(data: CategoricalDataset, config: FitConfig | None = None
        ) -> FittedModel:
    """Fit all feature columns by SQUAREM-accelerated EM over the grid;
    ``config.max_iter`` caps the EM maps."""
    config = config or FitConfig()
    grid = build_grid(config.grid_size, config.grid_range)
    _check_fit_preconditions(data)
    items = _initial_items(data, config)
    em = _EMMap(_design(_codes_matrix(data, items), items), grid)
    converged = False
    while not converged and len(em.trace) < config.max_iter:
        # a cycle takes up to four maps; nearer the cap, plain maps
        if config.max_iter - len(em.trace) >= 4:
            items = em.squarem(items)
        new_items = em(items)
        delta = max(
            float(np.max(np.abs(new.params.vector() - old.params.vector())))
            for new, old in zip(new_items, items)
        )
        items = new_items
        converged = delta < config.tol
    iterations = len(em.trace)
    items = _canonicalize_orientation(items)
    final = _e_step_core(em.design, items, grid)
    em.trace.append(final.marginal_loglik)
    return FittedModel(
        items=items,
        grid=grid,
        converged=converged,
        iterations=iterations,
        final_loglik=final.marginal_loglik,
        loglik_trace=tuple(em.trace),
        clamp_events=tuple(em.clamp_events),
    )


# ---------------------------------------------------------------------------
# EAP scoring
# ---------------------------------------------------------------------------

def _eap(codes: np.ndarray, model: FittedModel
         ) -> tuple[np.ndarray, np.ndarray]:
    posterior, _ = _posterior(_design(codes, model.items),
                              _log_table(model.items, model.grid))
    nodes = model.grid.node_array()
    means = posterior @ nodes
    second = posterior @ (nodes ** 2)
    variances = np.maximum(second - means ** 2, 0.0)
    return means, np.sqrt(variances)


def eap_score(pattern, model: FittedModel) -> ThetaEstimate:
    """Posterior mean and SD of the trait for one response pattern."""
    pattern = np.asarray(pattern, dtype=np.int64)
    if pattern.shape != (len(model.items),):
        raise DataError(
            f"pattern has {pattern.size} entries for {len(model.items)} items"
        )
    for code, item in zip(pattern, model.items):
        _check_code(int(code), item)
    means, sds = _eap(pattern[None, :], model)
    return ThetaEstimate(float(means[0]), float(sds[0]))


def eap_scores(data: CategoricalDataset, model: FittedModel
               ) -> tuple[np.ndarray, np.ndarray]:
    """EAP mean and posterior SD for every case in the dataset."""
    return _eap(_codes_matrix(data, model.items), model)


# ---------------------------------------------------------------------------
# Persistence and diagnostics
# ---------------------------------------------------------------------------

def save_model(model: FittedModel, path: str | Path) -> None:
    """Write a fitted model to a versioned, human-readable JSON file: one
    key per :class:`FittedModel` field besides ``format`` and ``version``."""
    payload = {"format": MODEL_FORMAT, "version": MODEL_VERSION,
               **_as_json(model)}
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_model(path: str | Path) -> FittedModel:
    """Read a :func:`save_model` file (no ``discretization`` key: none)."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DataError(f"{path}: not a valid model file ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise DataError(f"{path}: not a model file")
    if payload.get("version") != MODEL_VERSION:
        raise DataError(
            f"{path}: unsupported model version {payload.get('version')!r}"
        )
    try:
        grid = QuadratureGrid(tuple(payload["grid"]["nodes"]),
                              tuple(payload["grid"]["weights"]))
        items = tuple(ItemModel.from_dict(entry) for entry in payload["items"])
        return FittedModel(
            items=items,
            grid=grid,
            converged=bool(payload["converged"]),
            iterations=int(payload["iterations"]),
            final_loglik=float(payload["final_loglik"]),
            loglik_trace=tuple(float(v) for v in payload["loglik_trace"]),
            clamp_events=tuple(str(v) for v in payload["clamp_events"]),
            discretization=tuple(
                DiscretizationMap(entry["column"],
                                  tuple(float(v) for v in entry["cuts"]),
                                  tuple(entry["labels"]))
                for entry in payload.get("discretization", ())
            ),
        )
    except KeyError as exc:
        raise DataError(f"{path}: model file missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from None


def diagnostics_report(model: FittedModel) -> str:
    """Structured text summary of a fit."""
    lines = [
        f"converged: {'yes' if model.converged else 'NO'} "
        f"({model.iterations} iterations)",
        f"final marginal log-likelihood: {model.final_loglik:.6f}",
        f"grid: {model.grid.size} nodes on "
        f"[{model.grid.nodes[0]:g}, {model.grid.nodes[-1]:g}]",
        f"items: {len(model.items)}",
    ]
    for item in model.items:
        lines.append(
            f"  {item.column} ({item.family}): {item.params.describe()}")
    if model.clamp_events:
        lines.append("clamping events:")
        lines.extend(f"  {event}" for event in model.clamp_events)
    else:
        lines.append("clamping events: none")
    return "\n".join(lines) + "\n"
