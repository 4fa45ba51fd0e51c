"""Marginal maximum-likelihood fitting and latent-trait scoring.

The latent trait is integrated out over a fixed, equally spaced quadrature
grid carrying standard-normal prior weights.  One EM map is:

* E-step: each case's posterior over grid nodes (prior weight times the
  pattern likelihood, normalized), accumulated into expected response
  counts per item, node, and category;
* M-step: projected Fisher scoring with step-halving on the expected
  complete-data log-likelihood, in a parameterization ("x-space") where
  positive slopes, ordered boundaries and the anchored zero category
  cannot be violated.  The Newton matrix is the expected information
  (Bock & Aitkin 1981); coordinates pressed out of the parameter box are
  held, as in Bertsekas's projected Newton.  Each item converges, halves
  its step and fails on its own, and a fit's error is that of its first
  failed item in item order, as a loop over the items would raise.

A fit holds its point as arrays: the items that share a kernel and a
category count form a group, laid out once per fit, and between maps the
point is each group's natural parameters, the floats its items would hold.
The E-step's log table takes one kernel call per group, the M-step solves
each group's rows in one stacked Newton, and SQUAREM and the convergence
test read the same arrays.  Items are built only where they leave the fit:
the model, and the error of a trial point that is not finite.

The fit runs the map in SQUAREM cycles (Varadhan & Roland 2008, step length
S3) over every item's x-space point, concatenated in item order.  Two maps
x1 = F(x0) and x2 = F(x1) give r = x1 - x0 and v = x2 - 2 x1 + x0; the
point x0 - 2 alpha r + alpha^2 v, with alpha = min(-|r|/|v|, -1), is
projected onto the parameter boxes and one map is taken from it.  A
monotone guard keeps x2 instead when the projected point's log-likelihood
is below x1's, so the log-likelihood never falls.  A plain map ends each
cycle, and convergence is declared when it changes no parameter by more
than the tolerance; near the iteration cap, which counts maps, only plain
maps run.

:func:`fit_many` runs several fits in lockstep, and :func:`fit` is its
one-fit case.  One fit's EM is one generator, :func:`_em`, which keeps its
own cycle, trace, convergence test and iteration cap; :func:`_fit_group`
takes the fits round by round, with one stacked M-step call per round over
the groups of every fit.  No item's update depends on the other rows of
its stack, so each fit gets the bits it gets alone.  A failed step fails
its own fit, no later fit steps after it, and the error is raised once
the models of the fits before it are out.  The datasets are read in
groups whose designs stay within ``DESIGN_BUDGET`` bytes.

The E-step is two sparse products per block of ``_JOINT_BLOCK`` cases.  A
case's row of the design ``X`` has a one in column 0 and one in its
category's column of each item it answered, and the log table ``L`` stacks
the log prior weights on the items' transposed log-probability tables, so
``X @ L`` is every case's log prior plus log pattern likelihood, and
``X.T @ posterior`` holds the expected counts with the node masses in row
0.  Both products are scipy's compiled kernels, loaded from their file
without importing the ``scipy`` package; they add each output row's terms
one at a time in index order, the order of a plain per-item loop, so no
BLAS thread count can change them, and an absent entry is never
multiplied, so a log-probability of ``-inf`` cannot give ``0 × -inf``.
The counts of each block are added onto the earlier blocks' totals, the
bits of one product over all the cases, while one block's posterior is
held.

Scoring is the posterior mean (and SD) of the trait on the same grid;
missing cells drop out of the pattern likelihood.  It builds ``X @ L``
block by block without the design or scipy, by the same additions in the
same order, and takes the moments as ``einsum`` sums over each case's row,
so a case's score depends neither on the cases scored with it nor on the
BLAS thread count.
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
    UsageError,
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
        try:
            from scipy.sparse import _sparsetools
        except ImportError:
            raise UsageError("fitting needs scipy, which cannot be imported: "
                             "fit, bench and impute without --model use it"
                             ) from None
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


@dataclass(frozen=True)
class _Group:
    """Items of a fit that share a kernel and a category count: their places
    in item order, and, members first, their categories' rows of the log
    table and their coordinates' places in the stacked x-space vector."""

    kernel: type
    members: tuple[int, ...]
    rows: np.ndarray
    coordinates: np.ndarray


@dataclass(frozen=True)
class _Point:
    """A fit's point between EM maps: per :class:`_Group` of ``items``, in
    order of each group's first item, the members' natural parameters as
    the kernel's stacked arrays.  ``items`` are the items last read into
    it, which give each member its family and column; ``starts`` are each
    item's first row of the log table, then the table's size."""

    items: tuple[ItemModel, ...]
    groups: tuple[_Group, ...]
    starts: np.ndarray
    natural: tuple[tuple[np.ndarray, ...], ...] = ()

    def built(self) -> tuple[ItemModel, ...]:
        """The items at this point, built in item order: the first that
        cannot be built raises its family's error."""
        rows: dict = {}
        for group, natural in zip(self.groups, self.natural):
            rows.update(zip(group.members, zip(*natural)))
        return tuple(item.with_natural(*rows[i])
                     for i, item in enumerate(self.items))

    def x(self) -> np.ndarray:
        """Every item's x-space point, concatenated in item order."""
        x = np.empty(sum(group.coordinates.size for group in self.groups))
        for group, natural in zip(self.groups, self.natural):
            x[group.coordinates] = group.kernel.to_x(*natural)
        return x

    def at_x(self, x: np.ndarray) -> _Point:
        """The point at the stacked vector ``x``, each item projected onto
        its box; a point that is not finite raises its first item's error."""
        point = replace(self, natural=tuple(
            group.kernel.natural(group.kernel.clamp(x[group.coordinates]))
            for group in self.groups))
        if not all(np.isfinite(v).all() for natural in point.natural
                   for v in natural):
            point.built()
        return point


def _point(items: tuple[ItemModel, ...], like: _Point | None = None
           ) -> _Point:
    """``items`` as a point, laid out as ``like`` or in their own groups."""
    if like is None:
        places: dict = {}
        for i, item in enumerate(items):
            places.setdefault((item.kernel, item.n_categories), []).append(i)
        starts = np.cumsum([1, *(item.n_categories for item in items)])
        ends = np.cumsum([0, *(item.vector().size for item in items)])
        like = _Point(items, tuple(
            _Group(kernel, tuple(members), starts[members, None] + np.arange(m),
                   ends[members, None]
                   + np.arange(items[members[0]].vector().size))
            for (kernel, m), members in places.items()), starts)
    return replace(like, items=tuple(items), natural=tuple(
        tuple(np.array(v) for v in zip(*(items[i].natural
                                         for i in group.members)))
        for group in like.groups))


def _log_table(point: _Point, grid: QuadratureGrid) -> np.ndarray:
    """Log prior weights over the items' transposed log-probability tables,
    one kernel call per group.

    Shape (1 + total categories, nodes), matching the columns of
    :func:`_design`.
    """
    nodes = grid.node_array()
    table = np.empty((point.starts[-1], grid.size))
    table[0] = np.log(grid.weight_array())
    for group, natural in zip(point.groups, point.natural):
        # members on the first axis, nodes on the second
        table[group.rows] = group.kernel.log_probs(
            *(v.reshape(len(v), 1, -1) for v in natural),
            nodes).transpose(0, 2, 1)
    return table


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
    point = _point(tuple(items))
    totals, loglik = _e_step_core(
        _blocks(_codes_matrix(data, point.items), point.items), point, grid)
    # copies: a held result does not keep the whole of ``totals``
    return EStepResult(tuple(r.T.copy() for r in np.split(
        totals[1:], point.starts[1:-1] - 1)), totals[0].copy(), loglik)


def _e_step_core(design: _Design, point: _Point, grid: QuadratureGrid
                 ) -> tuple[np.ndarray, float]:
    """The E-step over the :func:`_blocks` of a design, one block's
    posterior at a time: the counts, shaped as the log table, with the node
    masses in row 0, and the marginal log-likelihood."""
    table = _log_table(point, grid)
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
    return totals, float(np.concatenate(case_logliks).sum())


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


def _m_steps(fits: list[tuple[_Point, np.ndarray]], grid: QuadratureGrid
             ) -> list:
    """The M-steps of several fits, each given as its point and its
    expected counts, shaped as its log table (row 0 is not read).

    The counts are an E-step's, or ones :func:`m_step_item` has checked.
    The groups of every fit that share a kernel and a category count take
    one stacked Newton.  Returns per fit its new point or its error: an
    empty category first, else its first failed item's, in item order, as
    a loop over :func:`m_step_item` raises.
    """
    outcomes: list = [None] * len(fits)
    stacks: dict = {}
    for k, (point, totals) in enumerate(fits):
        # the table's rows run through the items' categories in item order
        empty = 1 + np.flatnonzero(~totals[1:].any(axis=1))
        if empty.size:
            i = np.searchsorted(point.starts, empty[0], "right") - 1
            outcomes[k] = EmptyCategory(
                f"column {point.items[i].column!r}: category "
                f"{empty[0] - point.starts[i]} has zero expected count")
            continue
        for g, (group, natural) in enumerate(zip(point.groups,
                                                 point.natural)):
            stacks.setdefault((group.kernel, group.rows.shape[1]), []).append(
                (k, g, group, natural, totals[group.rows].transpose(0, 2, 1)))
    # per fit, its groups' solved parameters and its failed items' errors
    solved = [list(point.natural) for point, _ in fits]
    failed: list = [{} for _ in fits]
    for (kernel, _), members in stacks.items():
        x, failures = _newton_maximize(
            kernel, np.concatenate([kernel.to_x(*natural)
                                    for *_, natural, _ in members]),
            np.maximum(np.concatenate([np.ascontiguousarray(r)
                                       for *_, r in members]), COUNT_FLOOR),
            grid.node_array(), [fits[k][0].items[i].column
                                for k, _, group, *_ in members
                                for i in group.members])
        row = 0
        for k, g, group, *_ in members:
            solved[k][g] = kernel.natural(x[row:row + len(group.members)])
            failed[k].update((i, failures[j]) for j, i in
                             enumerate(group.members, row) if j in failures)
            row += len(group.members)
    for k, (point, _) in enumerate(fits):
        if outcomes[k] is None:
            outcomes[k] = (failed[k][min(failed[k])] if failed[k]
                           else replace(point, natural=tuple(solved[k])))
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
    (outcome,) = _m_steps([(_point((item,)),
                            np.vstack([np.zeros(grid.size), r.T]))], grid)
    if isinstance(outcome, IrtImputeError):
        raise outcome
    return outcome.built()[0]


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
    point: _Point | None     # None for a dataset that could not start
    discretization: tuple[DiscretizationMap, ...] = ()
    trace: list[float] = field(default_factory=list)
    converged: bool = False
    error: IrtImputeError | None = None

    @property
    def design_bytes(self) -> int:
        return 0 if self.design is None else self.design.nbytes


def _em(run: _Run, config: FitConfig) -> Generator[tuple, object, None]:
    """One fit's SQUAREM cycles, from ``run.point`` to its final E-step.

    Yields each point it needs as ``(point, e_step, to_map)``, with the
    point's E-step if it has had one, else None, and is sent back the
    point's map when ``to_map`` is true, else its E-step.
    """
    while not run.converged and len(run.trace) < config.max_iter:
        # a cycle takes up to four maps; nearer the cap, plain maps
        if config.max_iter - len(run.trace) >= 4:
            x0 = run.point
            x1 = yield x0, None, True
            x2 = yield x1, None, True
            start, one = x0.x(), x1.x()
            r, v = one - start, x2.x() - 2.0 * one + start
            alpha = _step_length(r, v)
            trial = x0.at_x(start - 2.0 * alpha * r + alpha**2 * v)
            es = yield trial, None, False
            kept = es[1] >= run.trace[-1]
            logger.debug("squarem: alpha %.6g, extrapolation %s, loglik %.6f "
                         "(%.6f at x1)", alpha, "kept" if kept else "rejected",
                         es[1], run.trace[-1])
            run.point = (yield trial, es, True) if kept else x2
        old = run.point
        run.point = yield old, None, True
        # a cycle's closing map against its start, parameter by parameter
        run.converged = max(
            float(np.max(np.abs(new - prior)))
            for olds, news in zip(old.natural, run.point.natural)
            for prior, new in zip(olds, news)) < config.tol
    run.point = _point(_canonicalize_orientation(run.point.built()),
                       run.point)
    _, loglik = yield run.point, None, False
    run.trace.append(loglik)


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
                totals, loglik = es
                run.trace.append(loglik)
                maps.append((run, point, totals))
            else:
                replies[run] = es
        if maps:
            outcomes = _m_steps([(point, totals)
                                 for _, point, totals in maps], grid)
            for (run, _, _), outcome in zip(maps, outcomes):
                if isinstance(outcome, IrtImputeError):
                    run.error = outcome
                else:
                    replies[run] = outcome
    for run in runs:
        if run.error is not None:
            raise run.error
        items = run.point.items
        yield FittedModel(items, grid, run.converged, len(run.trace) - 1,
                          run.trace[-1], tuple(run.trace),
                          tuple(event for item in items
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
            yield _Run(_blocks(_codes_matrix(data, items), items),
                       _point(items),
                       tuple(maps[column] for column in sorted(maps)))
    except IrtImputeError as exc:
        yield _Run(None, None, error=exc)


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
    point = _point(items)
    table, starts = _log_table(point, grid), point.starts
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
