"""Shared builders for randomized test items and synthetic patterns."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math

import numpy as np
from scipy.stats import chi2

from irtimpute import cli
from irtimpute.data import MISSING, CategoricalDataset
from irtimpute.errors import (
    DataError,
    IrtImputeError,
    NewtonDiverged,
    NumericalFailure,
    UnknownLabel,
)
from irtimpute.estimation import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    FitConfig,
    FittedModel,
    _blocks,
    _canonicalize_orientation,
    _codes_matrix,
    _e_step_core,
    _floored_counts,
    _initial_items,
    _m_step,
    _posteriors_and_loglik,
    build_grid,
    fit,
)
from irtimpute.impute import impute_dataset
from irtimpute.metrics import score_cells
from irtimpute.missingness import (
    LittleTestResult,
    _solve_observed,
    littles_test,
)
from irtimpute.models import (
    Binary2PL,
    GradedItem,
    ItemModel,
    NominalItem,
    log_category_probs,
    pattern_loglik,
)


def ulp_distance(got, want) -> np.ndarray:
    """``|got - want|`` in units in the last place of ``want``; 0 where the
    two are equal, infinities included."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    spacing = np.spacing(np.maximum(np.abs(want), np.finfo(float).tiny))
    with np.errstate(invalid="ignore"):
        return np.where(got == want, 0.0, np.abs(got - want) / spacing)


def random_item(rng: np.random.Generator, family: str, m: int = 4,
                min_gap: float = 0.3) -> ItemModel:
    """One random item with well-separated parameters.

    Slopes land in [0.8, 2]; locations in [-2, 2].  Graded boundaries keep
    at least ``min_gap`` between neighbors so small finite-difference
    perturbations cannot reorder them.
    """
    a = float(rng.uniform(0.8, 2.0))
    if family == "2pl":
        return Binary2PL(a, float(rng.uniform(-2, 2)), column="x")
    if family == "grm":
        gaps = rng.uniform(min_gap, 1.0, size=m - 2)
        b1 = float(rng.uniform(-2.0, 0.0))
        bounds = b1 + np.concatenate([[0.0], np.cumsum(gaps)])
        return GradedItem(a, tuple(bounds), column="x")
    if family == "nrm":
        slopes = (0.0, *rng.uniform(-2.0, 2.0, size=m - 1))
        intercepts = (0.0, *rng.uniform(-2.0, 2.0, size=m - 1))
        return NominalItem(slopes, intercepts, column="x")
    raise ValueError(family)


def random_items(rng: np.random.Generator, family: str, n_items: int,
                 m: int = 4) -> tuple[ItemModel, ...]:
    items = []
    for i in range(n_items):
        item = random_item(rng, family, m)
        items.append(dataclasses.replace(item, column=f"item{i:02d}"))
    return tuple(items)


def random_pattern(rng: np.random.Generator, items, missing_rate: float = 0.3):
    """A response pattern with codes in range and some cells missing."""
    pattern = []
    for item in items:
        if rng.uniform() < missing_rate:
            pattern.append(-1)
        else:
            pattern.append(int(rng.integers(item.n_categories)))
    return pattern


def finite_difference_score(pattern, items, theta, h=1e-5):
    """Central-difference gradient of pattern_loglik (test oracle)."""
    d_theta = (pattern_loglik(pattern, items, theta + h)
               - pattern_loglik(pattern, items, theta - h)) / (2 * h)
    d_items = []
    for idx, item in enumerate(items):
        vec = item.vector()
        grad = np.zeros_like(vec)
        for p in range(vec.size):
            hi, lo = vec.copy(), vec.copy()
            hi[p] += h
            lo[p] -= h
            up = list(items)
            up[idx] = item.with_vector(hi)
            f_hi = pattern_loglik(pattern, tuple(up), theta)
            up[idx] = item.with_vector(lo)
            f_lo = pattern_loglik(pattern, tuple(up), theta)
            grad[p] = (f_hi - f_lo) / (2 * h)
        d_items.append(grad)
    return d_theta, d_items


def dense_e_step(codes, items, grid):
    """Per-item dense E-step loop (bit-for-bit reference for the sparse core).

    ``codes`` is the case × item code matrix, -1 for a missing cell.  The log
    joint starts from the log prior and adds the items in order; each
    category's counts sum the posterior rows of the cases that gave it, in
    case order.  Returns ``(posteriors, counts, node_masses, loglik)``.
    """
    nodes = grid.node_array()
    total = np.tile(np.log(grid.weight_array()), (codes.shape[0], 1))
    for i, item in enumerate(items):
        col = codes[:, i]
        observed = col >= 0
        if observed.any():
            table = log_category_probs(nodes, item)
            total[observed] += table[:, col[observed]].T
    posterior, case_loglik = _posteriors_and_loglik(total)
    counts = []
    for i, item in enumerate(items):
        r = np.zeros((grid.size, item.n_categories))
        for k in range(item.n_categories):
            rows = codes[:, i] == k
            if rows.any():
                r[:, k] = posterior[rows].sum(axis=0)
        counts.append(r)
    return posterior, counts, posterior.sum(axis=0), float(case_loglik.sum())


def design_cases(blocks):
    """The cases of a fit's block design: its rows less the carry rows."""
    return sum(x.shape[0] - x.shape[1] for x in blocks)


def design_entries(blocks):
    """The stored entries of a fit's block design, less the carry rows'."""
    return sum(x.nnz - x.shape[1] for x in blocks)


def reference_objective(item, r, nodes):
    """Objective and x-space gradient of one item built from each candidate."""
    def fg(x):
        candidate = item.from_x(x)
        f = float(np.sum(r * candidate.log_probs(nodes)))
        _, d_params = candidate.grad(nodes)
        return f, item.kernel.chain(x, np.einsum("qk,qkp->p", r, d_params))

    return fg


def fd_hessian(fg, x):
    """Central differences of the gradient, symmetrized."""
    n = x.size
    hess = np.empty((n, n))
    for p in range(n):
        h = 1e-6 * max(1.0, abs(float(x[p])))
        probe = np.zeros(n)
        probe[p] = h
        _, g_hi = fg(x + probe)
        _, g_lo = fg(x - probe)
        hess[:, p] = (g_hi - g_lo) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def _reference_at_bound(x, clamp):
    for sign in (1.0, -1.0):
        probe = x + sign * 1e-9
        if np.any(np.abs(clamp(probe) - probe) > 1e-12):
            return True
    return False


def reference_newton(fg, clamp, x0, max_iter, tol, context):
    """Per-item Newton with the finite-difference Hessian (reference)."""
    x = clamp(x0)
    f, g = fg(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise NumericalFailure(f"{context}: non-finite objective at start")
    for _ in range(max_iter):
        scale = max(1.0, abs(f))
        if np.max(np.abs(g)) <= tol * scale:
            break
        hess = fd_hessian(fg, x)
        delta = None
        try:
            candidate = np.linalg.solve(-hess, g)
            if np.all(np.isfinite(candidate)) and float(g @ candidate) > 0:
                delta = candidate
        except np.linalg.LinAlgError:
            delta = None
        if delta is None:
            curvature = max(1.0, float(np.abs(np.diag(hess)).max()))
            delta = g / curvature
        step = 1.0
        improved = False
        for _ in range(60):
            x_new = clamp(x + step * delta)
            f_new, g_new = fg(x_new)
            if np.isfinite(f_new) and f_new > f:
                x, f, g = x_new, f_new, g_new
                improved = True
                break
            step *= 0.5
        if not improved:
            if (np.max(np.abs(g)) > 1e3 * tol * scale
                    and not _reference_at_bound(x, clamp)):
                raise NewtonDiverged(
                    f"{context}: no improving step with gradient "
                    f"{np.max(np.abs(g)):.3e}"
                )
            break
    return x


def reference_m_step(items, expected_counts, grid):
    """The finite-difference Newton M-step, one item at a time (reference).

    Same signature and result shape as ``estimation._m_step``.
    """
    nodes = grid.node_array()
    updated = []
    for item, counts in zip(items, expected_counts):
        r = _floored_counts(item, counts, grid)
        x = reference_newton(
            reference_objective(item, r, nodes), item.kernel.clamp,
            item.to_x(), NEWTON_MAX_ITER, NEWTON_TOL,
            context=f"item {item.column!r}")
        updated.append(item.from_x(x))
    events = [event for item in updated for event in item.bound_events()]
    return tuple(updated), events


def reference_m_steps(fits, grid):
    """``estimation._m_steps`` with each fit's M-step taken alone by
    :func:`reference_m_step` (reference)."""
    outcomes = []
    for items, expected_counts in fits:
        try:
            outcomes.append(reference_m_step(items, expected_counts, grid))
        except IrtImputeError as exc:
            outcomes.append(exc)
    return outcomes


def em_loop_fit(data, config=None):
    """Plain EM, one E-step and one M-step per iteration (reference).

    Same signature and result as ``estimation.fit``, which accelerates
    this loop with SQUAREM.
    """
    config = config or FitConfig()
    grid = build_grid(config.grid_size, config.grid_range)
    items = _initial_items(data, config)
    x = _blocks(_codes_matrix(data, items), items)
    trace, clamp_events = [], []
    converged = False
    iterations = 0
    for _ in range(config.max_iter):
        iterations += 1
        es = _e_step_core(x, items, grid)
        trace.append(es.marginal_loglik)
        new_items, clamp_events = _m_step(items, es.expected_counts, grid)
        delta = max(
            float(np.max(np.abs(new.vector() - old.vector())))
            for new, old in zip(new_items, items)
        )
        items = new_items
        if delta < config.tol:
            converged = True
            break
    items = _canonicalize_orientation(items)
    final = _e_step_core(x, items, grid)
    trace.append(final.marginal_loglik)
    return FittedModel(items=items, grid=grid, converged=converged,
                       iterations=iterations,
                       final_loglik=final.marginal_loglik,
                       loglik_trace=tuple(trace),
                       clamp_events=tuple(clamp_events))


def _em_normal_loop(y, tol, max_iter, patterns):
    """Per-pattern EM of a normal model with missing entries (reference)."""
    n, p = y.shape
    mean = np.nanmean(y, axis=0)
    variance = np.nanvar(y, axis=0)
    variance = np.where(variance > 0, variance, 1.0)
    cov = np.diag(variance)
    for _ in range(max_iter):
        sum1 = np.zeros(p)
        sum2 = np.zeros((p, p))
        for observed, rows in patterns:
            block = y[rows]
            miss = ~observed
            if miss.any():
                obs_idx = np.flatnonzero(observed)
                mis_idx = np.flatnonzero(miss)
                coef = _solve_observed(
                    cov[np.ix_(obs_idx, obs_idx)],
                    cov[np.ix_(obs_idx, mis_idx)],
                    "EM step",
                )
                centered = block[:, obs_idx] - mean[obs_idx]
                predicted = mean[mis_idx] + centered @ coef
                resid_cov = (cov[np.ix_(mis_idx, mis_idx)]
                             - cov[np.ix_(mis_idx, obs_idx)] @ coef)
                completed = np.empty_like(block)
                completed[:, obs_idx] = block[:, obs_idx]
                completed[:, mis_idx] = predicted
                sum2[np.ix_(mis_idx, mis_idx)] += len(rows) * resid_cov
            else:
                completed = block
            sum1 += completed.sum(axis=0)
            sum2 += completed.T @ completed
        new_mean = sum1 / n
        new_cov = sum2 / n - np.outer(new_mean, new_mean)
        new_cov = 0.5 * (new_cov + new_cov.T)
        change = max(float(np.max(np.abs(new_mean - mean))),
                     float(np.max(np.abs(new_cov - cov))))
        mean, cov = new_mean, new_cov
        if change < tol:
            break
    return mean, cov


def littles_test_loop(y, em_tol=1e-6, em_max_iter=200):
    """Little's test with one Python step per pattern (reference).

    Rows are grouped by a per-row dict in first-appearance order, and the
    EM and the statistic solve each pattern's observed block on its own.
    Input checks are left to ``littles_test``.
    """
    y = np.asarray(y, dtype=np.float64)
    observed = ~np.isnan(y)
    keep = observed.any(axis=1)
    y = y[keep]
    observed = observed[keep]
    pattern_rows = {}
    for i, row in enumerate(observed):
        pattern_rows.setdefault(row.tobytes(), []).append(i)
    patterns = [
        (np.frombuffer(key, dtype=bool), np.asarray(rows))
        for key, rows in pattern_rows.items()
    ]
    if len(patterns) == 1:
        return LittleTestResult(0.0, 0, 1.0, 1)

    mean, cov = _em_normal_loop(y, em_tol, em_max_iter, patterns)

    statistic = 0.0
    df = -y.shape[1]
    for pattern, rows in patterns:
        obs_idx = np.flatnonzero(pattern)
        df += obs_idx.size
        diff = y[np.ix_(rows, obs_idx)].mean(axis=0) - mean[obs_idx]
        solved = _solve_observed(cov[np.ix_(obs_idx, obs_idx)], diff,
                                 "test statistic")
        statistic += rows.size * float(diff @ solved)
    if df <= 0:
        return LittleTestResult(float(statistic), 0, 1.0, len(patterns))
    p_value = float(chi2.sf(statistic, df))
    return LittleTestResult(float(statistic), int(df), p_value, len(patterns))


def load_csv_loop(path, schemas, missing_tokens=("", "-1")):
    """``load_csv`` converting one cell at a time, row by row (reference)."""
    label_maps = [
        {label: code for code, label in enumerate(s.labels)} if s.is_categorical
        else None
        for s in schemas
    ]
    missing = frozenset(missing_tokens)
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        expected = [s.name for s in schemas]
        if [h.strip() for h in header] != expected:
            raise DataError(
                f"{path}: header {header!r} does not match schema columns "
                f"{expected!r}"
            )
        for rownum, record in enumerate(reader, start=2):
            if len(record) != len(schemas):
                raise DataError(
                    f"{path}:{rownum}: {len(record)} fields, expected "
                    f"{len(schemas)}"
                )
            parsed = []
            for schema, label_map, text in zip(schemas, label_maps, record):
                cell = text.strip()
                if cell in missing:
                    parsed.append(float(MISSING))
                    continue
                if label_map is not None:
                    if cell not in label_map:
                        raise UnknownLabel(
                            f"{path}:{rownum}: {cell!r} is not a label of "
                            f"column {schema.name!r}"
                        )
                    parsed.append(float(label_map[cell]))
                else:
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}:{rownum}: {cell!r} is not numeric "
                            f"(column {schema.name!r})"
                        ) from None
                    if not np.isfinite(value):
                        raise DataError(
                            f"{path}:{rownum}: non-finite value in column "
                            f"{schema.name!r}"
                        )
                    if value == MISSING:
                        raise DataError(
                            f"{path}:{rownum}: continuous value -1 collides "
                            f"with the missing sentinel (column "
                            f"{schema.name!r})"
                        )
                    parsed.append(value)
            rows.append(parsed)
    cells = np.array(rows, dtype=np.float64).reshape(len(rows), len(schemas))
    return CategoricalDataset(tuple(schemas), cells)


def emit_csv_loop(data, path):
    """``emit_csv`` writing one cell at a time, row by row (reference)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([s.name for s in data.schemas])
        for i in range(data.n_rows):
            record = []
            for j, schema in enumerate(data.schemas):
                value = data.cells[i, j]
                if value == MISSING:
                    record.append("")
                elif schema.is_categorical:
                    record.append(schema.labels[int(value)])
                else:
                    record.append(repr(float(value)))
            writer.writerow(record)


def write_probabilities_loop(path, view, result):
    """The CLI's probability sidecar, one cell's row at a time (reference)."""
    names = [schema.name for schema in view.schemas]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case", "column"] + [
            f"p{k}" for k in range(result.probabilities.shape[1])])
        writer.writerows(
            [row, names[col],
             *("" if math.isnan(p) else repr(p) for p in probs.tolist())]
            for (row, col), probs in zip(result.mask.tolist(),
                                         result.probabilities))


def bench_loop(args) -> int:
    """``irtimpute bench`` as a loop over its cells, each injected, tested,
    fitted by ``fit``, imputed and scored before the next (reference for
    the cells that ``bench`` fits together).  Takes the place of
    ``cli.cmd_bench``."""
    truth, mechanisms, fractions = cli._bench_setup(args)
    config = cli._fit_options(args)
    little_rows, f1_rows = [], []
    for cell_index, (mechanism, fraction) in enumerate(
            itertools.product(mechanisms, fractions)):
        injected = cli._inject(truth, args, mechanism, fraction,
                               config.seed + cell_index)
        little = littles_test(injected.to_numeric(injected.feature_indices))
        result = impute_dataset(injected, fit(injected, config))
        mask, _ = cli._scored_cells(truth, injected)
        scored = score_cells(
            truth, cli._written_back(injected, result), mask)
        baseline = score_cells(
            truth, cli._majority_fill(injected, args.target), mask)
        cells = len(mask)
        little_rows.append(
            f"{mechanism:<9} {fraction:<8g} {cells:<6d} "
            f"{little.statistic:<12.6f} {little.df:<4d} "
            f"{little.p_value:.6g}")
        f1_rows.append(
            f"{mechanism:<9} {fraction:<8g} {cells:<6d} "
            f"{scored.macro_f1:<12.6f} {scored.micro_f1:<12.6f} "
            f"{baseline.macro_f1:<15.6f} {baseline.micro_f1:.6f}")
    cli._write_bench_report(args, mechanisms, fractions, config,
                            little_rows, f1_rows)
    return 0
