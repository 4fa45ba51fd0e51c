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
  halves its step and fails on its own: a failed item is reported, not
  raised, and its fit's error is that of its first failed item in item
  order, as a loop over the items would raise.  An item whose trial step
  rounds back to its point leaves the step-halving, since every shorter
  step would repeat that trial.

The fit runs the map in SQUAREM cycles (Varadhan & Roland 2008, step length
S3) over the stacked x-space vector of all items.  Two maps x1 = F(x0) and
x2 = F(x1) give r = x1 - x0 and v = x2 - 2 x1 + x0; the point
x0 - 2 alpha r + alpha^2 v, with alpha = min(-|r|/|v|, -1), is projected onto
the parameter boxes and one map is taken from it.  A monotone guard keeps
x2 instead when the projected point's log-likelihood is below x1's, so the
log-likelihood never falls.  A plain map ends each cycle; near the
iteration cap, which counts maps, only plain maps run.

:func:`fit_many` runs several fits in lockstep, and :func:`fit` is its
one-fit case.  One fit's EM is one generator, :func:`_em`, which yields
each point it needs and is sent back its map or its E-step, so it keeps
its own cycle, trace, convergence test and iteration cap.
A driver takes the fits round by round: each fit steps to its next
point, the E-steps stay per fit, and the round's M-steps are one stacked
call over the items of every fit, so a kernel's Newton runs once per
round, not once per fit.  No item's update depends on the other rows of
its stack, so each fit gets the bits it gets alone.  A failure takes one
path, whatever step failed: a dataset that cannot start, an E-step, an
M-step or the generator records its error on its fit's run, no later fit
steps after it, and the error is raised once the models of the fits
before it are out.  The datasets are read in groups whose designs stay
within ``DESIGN_BUDGET`` bytes, so a group of large fits holds about what
one fit holds.

The E-step is two sparse products per block of cases.  The code matrix is
encoded once per fit as CSR designs, one per ``_JOINT_BLOCK`` cases, of
1 + ΣK columns: column 0 holds ones, then each item has a block of one-hot
columns, one per category, and a missing cell has no entry in its item's
block.  Stacking the log prior weights on the transposed per-item
log-probability tables gives ``L`` of shape (1 + ΣK) × nodes, so ``X @ L``
is every case's log prior plus log pattern likelihood, and ``X.T @
posterior`` holds every item's expected counts (block by block) with the
node masses in row 0.  Both products are scipy's compiled kernels,
``csr_matvecs`` and its CSC twin over the same arrays, which add each
output row's terms one at a time in index order onto the output they are
given: the prior first and then the items in order, or the cases in order.
That is the order of a plain per-item loop, so the products match such a
loop bit for bit, and no BLAS thread count can change them.  An absent
entry is never multiplied, so a log-probability of ``-inf`` on a category
a case did not give cannot turn into ``0 × -inf = nan``.  The counts'
kernel adds each block's cases onto the earlier blocks' totals, so the
totals are those of one product over all the cases, bit for bit, while
only one block's posterior is held.  The kernels are loaded from their
file in scipy's tree, so no process imports the ``scipy`` package.

Convergence is declared when a cycle's closing map changes no parameter by
more than the tolerance, not on the log-likelihood change.  Scoring is the
posterior mean (and SD) of the trait on the same grid; missing cells simply
drop out of the pattern likelihood.  Scoring walks the same blocks and
builds ``X @ L`` without the design: each case's row starts from the log
prior and gathers its items' rows of ``L`` in item order, the same
additions in the same order, so it matches the product bit for bit and
needs no scipy.  The moments are ``einsum`` sums over each case's row, not
BLAS products, so a case's score depends neither on the cases scored with
it nor on the BLAS thread count.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Generator, Iterable, Iterator

import numpy as np

from .data import (DEFAULT_BINS, CategoricalDataset, DiscretizationMap,
                   apply_discretization, atomic_write, discretize_dataset,
                   read_text)
from .errors import (
    DataError,
    EmptyCategory,
    InsufficientData,
    IrtImputeError,
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
    _from_json,
    _separate,
    log_category_probs,
)

__all__ = ["EStepResult", "FitConfig", "FittedModel", "QuadratureGrid",
           "ThetaEstimate", "build_grid", "diagnostics_report", "e_step",
           "eap_score", "eap_scores", "fit", "fit_many", "load_model",
           "m_step_item", "save_model"]

COUNT_FLOOR = 1e-10

# Each M-step's Newton: iteration cap and projected-gradient tolerance
# (relative to the objective's magnitude).
NEWTON_MAX_ITER = 20
NEWTON_TOL = 1e-8

# Bytes of design that :func:`fit_many` holds in one lockstep group.  At
# 1 500 cases of 13 items a design takes 0.20 MB in two blocks, so a
# six-cell bench is one group; a design over half of this runs alone.
DESIGN_BUDGET = 4 * 2**20

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
        # written so that a NaN fails each check
        if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
            raise DataError("grid nodes must be finite and strictly increasing")
        if not np.all(weights > 0):
            raise DataError("grid weights must be strictly positive")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise DataError("grid weights must sum to 1")

    @property
    def size(self) -> int:
        return len(self.nodes)

    def node_array(self) -> np.ndarray:
        return np.asarray(self.nodes)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights)


@dataclass(frozen=True)
class FitConfig:
    """Fit settings; the CLI's defaults too."""

    grid_size: int = 61
    grid_range: tuple[float, float] = (-6.0, 6.0)
    max_iter: int = 500
    tol: float = 1e-4
    seed: int = 0
    bins: int = DEFAULT_BINS   # quantile bins per continuous feature

    def __post_init__(self) -> None:
        # the grid's size and range are checked by build_grid
        if not self.tol > 0:  # NaN fails too
            raise DataError("tolerance must be positive")
        if self.max_iter < 1:
            raise DataError("iteration cap must be at least 1")
        if self.seed < 0:
            raise DataError("seed must be nonnegative")
        if self.bins < 2:
            raise DataError("bins must be >= 2")


def build_grid(size: int = FitConfig.grid_size,
               grid_range: tuple[float, float] = FitConfig.grid_range
               ) -> QuadratureGrid:
    """Equally spaced nodes with standard-normal weights normalized to 1."""
    lo, hi = grid_range
    if size < 11:
        raise DataError("grid size must be at least 11")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DataError(f"invalid grid range [{lo}, {hi}]")
    nodes = np.linspace(lo, hi, size)
    # scipy.stats.norm.pdf's own formula: the same weights, bit for bit; a
    # range too wide for it gives weights the grid's own check reports
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(-nodes**2 / 2.0) / np.sqrt(2 * np.pi)
        weights /= weights.sum()
    return QuadratureGrid(tuple(nodes), tuple(weights))


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

# Cases per block of the likelihood core: the fit's E-step and EAP scoring
# hold one block's log joint and posterior at a time.  At 61 nodes a block
# and its gathered item rows take 0.5 MB each, so both stay in a core's L2
# cache.  The cuts change no bit: scoring sums within each case's row, and
# the E-step adds each block's counts onto the earlier blocks' totals.
_JOINT_BLOCK = 1024


# scipy's compiled sparse kernels, the only part of scipy the fit uses
_SPARSETOOLS = "scipy.sparse._sparsetools"


def _sparsetools_file() -> str | None:
    """The file of scipy's ``_sparsetools`` extension, or None.

    A ``find_spec`` of the top-level package tells where scipy lies
    without running its ``__init__``; one of a submodule would run it.
    """
    from importlib.machinery import EXTENSION_SUFFIXES
    from importlib.util import find_spec
    spec = find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                return path
    return None


@functools.cache
def _kernels():
    """scipy's ``_sparsetools``, loaded from its file, so that neither
    ``scipy/__init__`` nor ``scipy/sparse/__init__`` runs; imported through
    ``scipy.sparse`` where the file is not found."""
    path = _sparsetools_file()
    if path is None:
        from scipy.sparse import _sparsetools
        return _sparsetools
    from importlib.machinery import ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_loader
    loader = ExtensionFileLoader(_SPARSETOOLS, path)
    held = sys.modules.get(_SPARSETOOLS)
    module = module_from_spec(spec_from_loader(_SPARSETOOLS, loader))
    loader.exec_module(module)
    # an extension may enter itself in sys.modules; leave them as they
    # were, so that scipy.sparse, imported before or after, keeps its own
    sys.modules.pop(_SPARSETOOLS, None)
    if held is not None:
        sys.modules[_SPARSETOOLS] = held
    return module


def _design(codes: np.ndarray, items: tuple[ItemModel, ...]
            ) -> tuple[np.ndarray, np.ndarray]:
    """One-hot design matrix, cases × (1 + ΣK) for ΣK total categories, as
    the row pointers and int32 column indices of a CSR matrix whose every
    value is 1.

    ``codes`` is an integer matrix aligned with ``items``; -1 marks a
    missing cell, which gets no entry.  Each row's column indices increase,
    so products add the prior first and then the items in order.
    """
    starts = np.cumsum([1, *(item.n_categories for item in items)])
    n, k = codes.shape
    # int32 indices take half the bytes of int64; a block of at most
    # _JOINT_BLOCK cases is far below 2**31 entries
    columns = np.zeros((n, 1 + k), np.int32)
    np.add(codes, starts[:-1], out=columns[:, 1:], casting="unsafe")
    present = np.column_stack([np.ones(n, bool), codes >= 0])
    indptr = np.zeros(n + 1, np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    return indptr, columns[present]


@dataclass(frozen=True)
class _Design:
    """A fit's design: the :func:`_design` of each ``_JOINT_BLOCK`` cases,
    in case order, and the ones that are every block's values, as many as
    its largest block has entries."""

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    ones: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.ones.nbytes + sum(indptr.nbytes + indices.nbytes
                                      for indptr, indices in self.blocks)


def _blocks(codes: np.ndarray, items: tuple[ItemModel, ...]) -> _Design:
    """The design of ``codes``, block by block; an empty ``codes`` gets one
    block with no cases."""
    blocks = tuple(_design(codes[lo:lo + _JOINT_BLOCK], items)
                   for lo in range(0, max(len(codes), 1), _JOINT_BLOCK))
    return _Design(blocks, np.ones(max(len(indices) for _, indices in blocks)))


def _log_joint(block: tuple[np.ndarray, np.ndarray], ones: np.ndarray,
               table: np.ndarray) -> np.ndarray:
    """``X @ table`` for the design block ``X``: each case's row adds the
    table rows of its entries in column order, starting from zero."""
    indptr, indices = block
    n = len(indptr) - 1
    joint = np.zeros((n, table.shape[1]))
    _kernels().csr_matvecs(n, table.shape[0], table.shape[1], indptr,
                           indices, ones[:len(indices)], table, joint)
    return joint


def _add_counts(block: tuple[np.ndarray, np.ndarray], ones: np.ndarray,
                posterior: np.ndarray, totals: np.ndarray) -> None:
    """Add ``X.T @ posterior`` onto ``totals`` for the design block ``X``:
    the kernel of ``X.T``, the CSC view of the same arrays, adds onto each
    row of ``totals`` the posterior rows of its column's cases, in case
    order."""
    indptr, indices = block
    _kernels().csc_matvecs(totals.shape[0], len(indptr) - 1,
                           totals.shape[1], indptr, indices,
                           ones[:len(indices)], posterior, totals)


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


def _codes_matrix(data: CategoricalDataset, items: tuple[ItemModel, ...]
                  ) -> np.ndarray:
    """The one rule binding a model to a dataset: ``items`` bind its feature
    columns one to one, in column order, each categorical with its item's
    category count.  Returns their integer codes (-1 where missing)."""
    features = list(data.feature_indices)
    names = [data.schemas[j].name for j in features]
    if [item.column for item in items] != names:
        raise DataError(
            f"items are bound to {[i.column for i in items]!r} but the "
            f"feature columns are {names!r}"
        )
    codes = np.empty((data.n_rows, len(features)), dtype=np.int64)
    for k, (j, item) in enumerate(zip(features, items)):
        codes[:, k] = data.codes(j)
        if data.schemas[j].arity != item.n_categories:
            raise DataError(
                f"column {item.column!r} has arity {data.schemas[j].arity} "
                f"but the item models {item.n_categories} categories"
            )
    return codes


@dataclass(frozen=True)
class EStepResult:
    """Expected counts per item, node masses and marginal log-likelihood."""

    expected_counts: tuple[np.ndarray, ...]
    node_masses: np.ndarray
    marginal_loglik: float


def e_step(data: CategoricalDataset, items: tuple[ItemModel, ...],
           grid: QuadratureGrid) -> EStepResult:
    """Posterior-weighted response counts r[i][node, category]; ``items``
    bind the feature columns of ``data`` (see :func:`_codes_matrix`)."""
    items = tuple(items)
    return _e_step_core(_blocks(_codes_matrix(data, items), items), items,
                        grid)


def _e_step_core(design: _Design, items: tuple[ItemModel, ...],
                 grid: QuadratureGrid) -> EStepResult:
    """The E-step over the :func:`_blocks` of a design, one block's
    posterior at a time."""
    table = _log_table(items, grid)
    totals = np.zeros_like(table)
    case_logliks = []
    for block in design.blocks:
        # the log joint becomes the block's posterior in place
        posterior, case_loglik = _posteriors_and_loglik(
            _log_joint(block, design.ones, table))
        # onto the earlier blocks' totals, the cases in order: the bits of
        # one product over all the cases
        _add_counts(block, design.ones, posterior, totals)
        case_logliks.append(case_loglik)
    counts = []
    start = 1
    for item in items:
        stop = start + item.n_categories
        counts.append(np.ascontiguousarray(totals[start:stop].T))
        start = stop
    # a copy: a held result does not keep the whole of ``totals``
    return EStepResult(
        expected_counts=tuple(counts),
        node_masses=totals[0].copy(),
        marginal_loglik=float(np.concatenate(case_logliks).sum()),
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
    # counts too large to sum give a non-finite objective; the caller fails it
    with np.errstate(over="ignore"):
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
                     nodes: np.ndarray, columns: list[str]
                     ) -> tuple[np.ndarray, dict[int, NumericalFailure]]:
    """Projected Newton with the expected information, one row per item.

    Coordinates the parameter box stops are held before each step
    (Bertsekas's projected Newton); step-halving, convergence and failure
    are decided per item.  Returns the solved rows and the error of each
    failed row, keyed by row.
    """
    x = kernel.clamp(x0)
    f, g, info = _objective(kernel, x, r, nodes)
    bad = ~(np.isfinite(f) & np.all(np.isfinite(g), axis=1))
    failures = {i: NumericalFailure(
        f"item {columns[i]!r}: non-finite objective at start")
        for i in np.flatnonzero(bad)}
    active = np.flatnonzero(~bad)
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
        stalled = []
        for _ in range(60):
            rows = active[trying]
            moved = x[rows] + step * delta[trying]
            # a step that rounds back to the point: every shorter step
            # repeats this trial
            still = np.all(moved == x[rows], axis=1)
            x_new = kernel.clamp(moved)
            f_new, g_new, info_new = _objective(kernel, x_new, r[rows], nodes)
            up = np.isfinite(f_new) & (f_new > f[rows])
            done = rows[up]
            x[done], f[done], g[done], info[done] = (
                x_new[up], f_new[up], g_new[up], info_new[up])
            stalled.append(trying[still & ~up])
            trying = trying[~(up | still)]
            if not trying.size:
                break
            step *= 0.5
        failed = np.sort(np.concatenate([trying, *stalled]))
        # flat to machine precision along every probe: either at the
        # optimum (possibly pressed against a bound) or genuinely stuck
        # with a large gradient
        for i in active[failed]:
            gmax = np.max(np.abs(g[i]))
            if (gmax > 1e3 * NEWTON_TOL * max(1.0, abs(f[i]))
                    and not _at_bound(kernel, x[i:i + 1])):
                failures[i] = NewtonDiverged(
                    f"item {columns[i]!r}: no improving step with gradient "
                    f"{gmax:.3e}")
        active = np.delete(active, failed)
    return x, failures


def _at_bound(kernel, x: np.ndarray) -> bool:
    """True when the projection holds some coordinate in some direction."""
    ones = np.ones_like(x)
    return bool(np.any(_held(kernel, x, ones) | _held(kernel, x, -ones)))


def _floored_counts(item: ItemModel, r: np.ndarray) -> np.ndarray:
    zeros = np.flatnonzero(~r.any(axis=0))
    if zeros.size:
        raise EmptyCategory(
            f"column {item.column!r}: category {int(zeros[0])} has zero "
            "expected count"
        )
    return np.maximum(r, COUNT_FLOOR)


def _m_steps(fits: list[tuple[tuple[ItemModel, ...], tuple]],
             grid: QuadratureGrid) -> list:
    """The M-steps of several fits, each given as (items, expected counts).

    The counts are an E-step's, or ones :func:`m_step_item` has checked.
    Items of every fit that share a kernel and a category count take one
    stacked Newton.  Returns per fit its updated items or its error: an
    empty category first, else its first failed item's, in item order, as
    a loop over :func:`m_step_item` raises.
    """
    outcomes: list = [None] * len(fits)
    groups: dict = {}
    for k, (items, expected_counts) in enumerate(fits):
        try:
            counts = [_floored_counts(item, r)
                      for item, r in zip(items, expected_counts)]
        except EmptyCategory as exc:
            outcomes[k] = exc
            continue
        for i, (item, r) in enumerate(zip(items, counts)):
            groups.setdefault((item.kernel, item.n_categories),
                              []).append((k, i, r))
    # per fit and item, its solved point or its error
    x = [[None] * len(items) for items, _ in fits]
    for key, members in groups.items():
        solved, failures = _newton_maximize(
            key[0], np.array([fits[k][0][i].to_x() for k, i, _ in members]),
            np.array([r for _, _, r in members]), grid.node_array(),
            [fits[k][0][i].column for k, i, _ in members])
        for row, ((k, i, _), point) in enumerate(zip(members, solved)):
            x[k][i] = failures.get(row, point)
    for k, (items, _) in enumerate(fits):
        failed = [row for row in x[k] if isinstance(row, IrtImputeError)]
        if outcomes[k] is None:
            outcomes[k] = failed[0] if failed else tuple(
                item.from_x(row) for item, row in zip(items, x[k]))
    return outcomes


def m_step_item(item: ItemModel, expected_counts: np.ndarray,
                grid: QuadratureGrid) -> ItemModel:
    """Improve one item's parameters against its expected counts."""
    r = np.asarray(expected_counts, dtype=np.float64)
    if r.shape != (grid.size, item.n_categories):
        raise DataError(
            f"expected counts for {item.column!r} must have shape "
            f"{(grid.size, item.n_categories)}, got {r.shape}"
        )
    if not np.all(np.isfinite(r) & (r >= 0)):
        raise DataError("expected counts must be finite and nonnegative")
    (outcome,) = _m_steps([((item,), (r,))], grid)
    if isinstance(outcome, IrtImputeError):
        raise outcome
    return outcome[0]


# ---------------------------------------------------------------------------
# Full fit
# ---------------------------------------------------------------------------

def _initial_items(data: CategoricalDataset, config: FitConfig
                   ) -> tuple[ItemModel, ...]:
    """Starting parameters from observed category proportions.

    Slopes start at 1; boundary locations at the inverse-normal transform
    of the cumulative observed proportions; nominal parameters at zero with
    a seeded +-0.01 jitter to break the symmetry of the anchored softmax.
    Raises for data that cannot be fitted.
    """
    from statistics import NormalDist
    if not data.feature_indices:
        raise DataError("dataset has no feature columns")
    rng = np.random.default_rng(config.seed)
    items = []
    for j in data.feature_indices:
        schema = data.schemas[j]
        codes = data.codes(j)
        counts = np.bincount(codes[codes >= 0], minlength=schema.arity)
        if not counts.any():
            raise UnobservedCategory(
                f"column {schema.name!r} has no observed values"
            )
        if not counts.all():
            missing_code = int(np.flatnonzero(counts == 0)[0])
            raise UnobservedCategory(
                f"column {schema.name!r}: category code {missing_code} "
                "never observed"
            )
        proportions = counts / counts.sum()
        if schema.kind != "nominal":
            cum = np.clip(np.cumsum(proportions)[:-1], 1e-3, 1 - 1e-3)
            bs = _separate(np.array([NormalDist().inv_cdf(p) for p in cum]),
                           1e-3)
            family = Binary2PL if schema.kind == "binary" else GradedItem
            items.append(family.from_bounds(1.0, bs, schema.name))
        else:
            free = rng.uniform(-0.01, 0.01, size=2 * (schema.arity - 1))
            items.append(NominalItem(*NominalItem.kernel.natural(free),
                                     column=schema.name))
    max_arity = max(item.n_categories for item in items)
    if data.n_rows < 10 * max_arity:
        raise InsufficientData(
            f"{data.n_rows} cases cannot support items with up to "
            f"{max_arity} categories (need at least {10 * max_arity})"
        )
    return tuple(items)


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
    total = sum(sum(item.slopes) for item in items)
    if total >= 0:
        return items
    return tuple(replace(item, slopes=tuple(-s for s in item.slopes))
                 for item in items)


def _stacked_x(items: tuple[ItemModel, ...]) -> np.ndarray:
    """Every item's x-space point, concatenated in item order."""
    return np.concatenate([item.to_x() for item in items])


def _at_stacked_x(items: tuple[ItemModel, ...], x: np.ndarray
                  ) -> tuple[ItemModel, ...]:
    """``items`` at the stacked point ``x``, each projected onto its box."""
    ends = np.cumsum([item.to_x().size for item in items])[:-1]
    return tuple(item.from_x(item.kernel.clamp(part))
                 for item, part in zip(items, np.split(x, ends)))


def _step_length(r: np.ndarray, v: np.ndarray) -> float:
    """SQUAREM's S3 step length -|r|/|v|, at most -1 (no extrapolation)."""
    # sums, not BLAS dot products, which may depend on the thread count
    rr, vv = float((r * r).sum()), float((v * v).sum())
    return min(-np.sqrt(rr / vv), -1.0) if vv > 0 else -1.0


@dataclass(eq=False)
class _Run:
    """One fit in a lockstep group: its design, and its point and record,
    which its :func:`_em` and :func:`_fit_group` write.

    ``trace`` gets each map's log-likelihood, so its length counts the
    maps, then the final E-step's.
    """

    design: _Design | None   # dropped after the final E-step
    items: tuple[ItemModel, ...]
    discretization: tuple[DiscretizationMap, ...] = ()
    trace: list[float] = field(default_factory=list)
    converged: bool = False
    error: IrtImputeError | None = None

    @property
    def design_bytes(self) -> int:
        return 0 if self.design is None else self.design.nbytes


def _em(run: _Run, config: FitConfig) -> Generator[tuple, object, None]:
    """One fit's SQUAREM cycles, from ``run.items`` to its final E-step.

    Yields each point it needs as ``(point, e_step, to_map)``, with the
    point's E-step if it has had one, else None, and is sent back the
    point's map when ``to_map`` is true, else its E-step.
    """
    while not run.converged and len(run.trace) < config.max_iter:
        # a cycle takes up to four maps; nearer the cap, plain maps
        if config.max_iter - len(run.trace) >= 4:
            x0 = run.items
            x1 = yield x0, None, True
            x2 = yield x1, None, True
            start, one = _stacked_x(x0), _stacked_x(x1)
            r, v = one - start, _stacked_x(x2) - 2.0 * one + start
            alpha = _step_length(r, v)
            trial = _at_stacked_x(x0, start - 2.0 * alpha * r
                                  + alpha**2 * v)
            es = yield trial, None, False
            kept = es.marginal_loglik >= run.trace[-1]
            logger.debug("squarem: alpha %.6g, extrapolation %s, loglik %.6f "
                         "(%.6f at x1)", alpha, "kept" if kept else "rejected",
                         es.marginal_loglik, run.trace[-1])
            run.items = (yield trial, es, True) if kept else x2
        old = run.items
        run.items = yield old, None, True
        delta = max(float(np.max(np.abs(new.vector() - prior.vector())))
                    for new, prior in zip(run.items, old))
        run.converged = delta < config.tol
    run.items = _canonicalize_orientation(run.items)
    final = yield run.items, None, False
    run.trace.append(final.marginal_loglik)


def _fit_group(runs: list[_Run], grid: QuadratureGrid, config: FitConfig
               ) -> Iterator[FittedModel]:
    """Drive the :func:`_em` of every run round by round, then yield their
    models in order up to the first failed run, whose error is raised then.

    Each round sends every run before the first failed one its reply and
    takes the E-steps of the points they yield; the round's maps then take
    their M-steps in one :func:`_m_steps` call.  A package error from an
    E-step, an M-step or the generator fails its run.
    """
    ems = {run: _em(run, config) for run in runs}
    replies: dict = {}
    while live := [run for run in itertools.takewhile(
            lambda run: run.error is None, runs) if run in ems]:
        maps = []
        for run in live:
            try:
                point, es, to_map = ems[run].send(replies.pop(run, None))
                es = es or _e_step_core(run.design, point, grid)
            except StopIteration:
                del ems[run]
                run.design = None
                continue
            except IrtImputeError as exc:
                run.error = exc
                continue
            if to_map:
                run.trace.append(es.marginal_loglik)
                maps.append((run, point, es.expected_counts))
            else:
                replies[run] = es
        if maps:
            outcomes = _m_steps([(point, counts)
                                 for _, point, counts in maps], grid)
            for (run, _, _), outcome in zip(maps, outcomes):
                if isinstance(outcome, IrtImputeError):
                    run.error = outcome
                else:
                    replies[run] = outcome
    for run in runs:
        if run.error is not None:
            raise run.error
        yield FittedModel(run.items, grid, run.converged, len(run.trace) - 1,
                          run.trace[-1], tuple(run.trace),
                          tuple(event for item in run.items
                                for event in item.bound_events()),
                          run.discretization)


def _runs(datasets: Iterable[CategoricalDataset], config: FitConfig
          ) -> Iterator[_Run]:
    """A run per dataset, in order, binned and at its starting items.  A
    dataset that cannot start, or a package error raised by ``datasets``,
    gives a failed run with no design and no items, the last."""
    try:
        for data in datasets:
            data, maps = discretize_dataset(data, config.bins)
            items = _initial_items(data, config)
            yield _Run(_blocks(_codes_matrix(data, items), items), items,
                       tuple(maps[column] for column in sorted(maps)))
    except IrtImputeError as exc:
        yield _Run(None, (), error=exc)


def fit_many(datasets: Iterable[CategoricalDataset],
             config: FitConfig | None = None) -> Iterator[FittedModel]:
    """Fit each dataset as :func:`fit` does, yielding the models in order.

    The same models and errors as ``(fit(d, config) for d in datasets)``,
    each model with its own dataset's cut points.  A failed fit is a failed
    run, whichever step failed: its set-up, an E-step, an M-step (whose
    error is its first failed item's), building a trial point, or a
    package error raised by ``datasets`` itself.  Its error comes after
    the models of the datasets before it, and no later dataset is read.
    The datasets are read in groups (see ``DESIGN_BUDGET``); each fit's EM
    is one :func:`_em` generator, and :func:`_fit_group` batches the
    M-steps of each round of a group's fits into one stacked call.
    """
    config = config or FitConfig()
    grid = build_grid(config.grid_size, config.grid_range)
    group, held = [], 0
    for run in _runs(datasets, config):
        group.append(run)
        held += run.design_bytes
        # one more design of this size would pass the budget
        if held + run.design_bytes > DESIGN_BUDGET:
            yield from _fit_group(group, grid, config)
            group, held = [], 0
    if group:
        yield from _fit_group(group, grid, config)


def fit(data: CategoricalDataset, config: FitConfig | None = None
        ) -> FittedModel:
    """Fit all feature columns by SQUAREM-accelerated EM over the grid;
    ``config.max_iter`` caps the EM maps.  Each continuous feature is cut
    into ``config.bins`` quantile bins first, and the model keeps the cut
    points as its ``discretization``, in column-name order."""
    (model,) = fit_many([data], config)
    return model


# ---------------------------------------------------------------------------
# EAP scoring
# ---------------------------------------------------------------------------

def _log_joints(codes: np.ndarray, items: tuple[ItemModel, ...],
                grid: QuadratureGrid) -> Iterator[np.ndarray]:
    """Each block's log prior plus log pattern likelihood, cases × nodes,
    for the blocks of ``_JOINT_BLOCK`` cases in order.

    The bits of :func:`_log_joint` over the design of ``codes``: each row
    starts from the log prior and adds the items' rows in item order.  A
    missing cell adds a zero row, which changes no sum.
    Every block is written into the same buffer, so the caller is done with
    one block before it asks for the next.
    """
    table = _log_table(items, grid)
    starts = np.cumsum([1, *(item.n_categories for item in items)])
    # codes are in range, and "wrap" sends code -1 to the zero row appended
    # to each item's table; it skips the bounds check "raise" makes
    tables = [np.vstack([table[lo:hi], np.zeros((1, grid.size))])
              for lo, hi in zip(starts[:-1], starts[1:])]
    joint = np.empty((min(_JOINT_BLOCK, len(codes)), grid.size))
    term = np.empty_like(joint)
    for lo in range(0, len(codes), _JOINT_BLOCK):
        block = codes[lo:lo + _JOINT_BLOCK]
        rows, gathered = joint[:len(block)], term[:len(block)]
        rows[:] = table[0]
        for item_table, item_codes in zip(tables, block.T):
            np.take(item_table, item_codes, axis=0, out=gathered, mode="wrap")
            rows += gathered
        yield rows


def _eap(codes: np.ndarray, model: FittedModel
         ) -> tuple[np.ndarray, np.ndarray]:
    nodes = model.grid.node_array()
    squares = nodes ** 2
    means, second = np.empty((2, codes.shape[0]))
    lo = 0
    for joint in _log_joints(codes, model.items, model.grid):
        posterior, _ = _posteriors_and_loglik(joint)
        hi = lo + len(posterior)
        # einsum, not BLAS: each case's sums depend on its row alone
        means[lo:hi] = np.einsum("qn,n->q", posterior, nodes)
        second[lo:hi] = np.einsum("qn,n->q", posterior, squares)
        lo = hi
    variances = np.maximum(second - means ** 2, 0.0)
    return means, np.sqrt(variances)


def eap_score(pattern, model: FittedModel) -> ThetaEstimate:
    """Posterior mean and SD of the trait for one response pattern."""
    pattern = np.asarray(pattern)
    if pattern.shape != (len(model.items),):
        raise DataError(
            f"pattern has {pattern.size} entries for {len(model.items)} items"
        )
    codes = np.array([_check_code(code, item)
                      for code, item in zip(pattern, model.items)], np.int64)
    means, sds = _eap(codes[None, :], model)
    return ThetaEstimate(float(means[0]), float(sds[0]))


def eap_scores(data: CategoricalDataset, model: FittedModel
               ) -> tuple[np.ndarray, np.ndarray]:
    """EAP mean and posterior SD for every case in the dataset, once the
    model's ``discretization`` bins it."""
    data = apply_discretization(data, model.discretization)
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
    """Read a :func:`save_model` file, each field as its annotation
    declares (a field with a default may be left out)."""
    try:
        payload = json.loads(read_text(path))
    except ValueError as exc:  # JSONDecodeError
        raise DataError(f"{path}: not a valid model file ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise DataError(f"{path}: not a model file")
    if payload.get("version") != MODEL_VERSION:
        raise DataError(
            f"{path}: unsupported model version {payload.get('version')!r}"
        )
    try:
        return _from_json(FittedModel, payload)
    except KeyError as exc:
        raise DataError(f"{path}: model file missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
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
            f"  {item.column} ({item.family}): {item.describe()}")
    if model.clamp_events:
        lines.append("clamping events:")
        lines.extend(f"  {event}" for event in model.clamp_events)
    else:
        lines.append("clamping events: none")
    return "\n".join(lines) + "\n"
