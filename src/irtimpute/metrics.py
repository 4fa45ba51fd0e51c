"""Imputation accuracy on exactly the cells that were filled in.

Scores compare imputed codes against ground truth over the imputation mask
only — untouched cells never dilute the result.  Per-category precision,
recall, and F1 come from the pooled confusion matrix; the macro average is
the unweighted mean over the categories that actually occur in the masked
truth (absent categories are reported, not averaged in as zeros); the
micro average pools all cells and therefore equals plain accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import MISSING, CategoricalDataset, _fields_equal
from .errors import DataError
from .impute import ImputedDataset, _positions, _raise_first_bad

__all__ = ["CategoryScore", "ImputationReport", "score", "score_cells",
           "report_text"]


@dataclass(frozen=True)
class CategoryScore:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True, eq=False)
class ImputationReport:
    """Confusion matrix (true x imputed) and derived scores."""

    confusion: np.ndarray = field(repr=False)
    per_category: tuple[CategoryScore, ...]
    macro_f1: float
    micro_f1: float
    cell_count: int
    macro_categories: tuple[int, ...]

    __eq__ = _fields_equal


def _safe_ratio(numerator, denominator: np.ndarray) -> np.ndarray:
    return np.divide(numerator, denominator, out=np.zeros(len(denominator)),
                     where=denominator > 0)


def score_cells(truth: CategoricalDataset, completed: CategoricalDataset,
                mask) -> ImputationReport:
    """Score a completed dataset against truth over the given cells.

    ``mask`` holds the (row, column) positions: a sequence of pairs or an
    ``(n, 2)`` integer array.  The datasets name the same columns, each
    categorical one in ``truth`` with its schema; a continuous one may be
    binned in ``completed``.
    """
    if ([s.name for s in truth.schemas] != [s.name for s in completed.schemas]
            or any(t != c for t, c in zip(truth.schemas, completed.schemas)
                   if t.is_categorical)):
        raise DataError("truth and completed datasets have different schemas")
    if truth.n_rows != completed.n_rows:
        raise DataError("truth and completed datasets have different sizes")
    mask, inside, rows, cols = _positions(mask, truth.cells.shape)
    if not len(mask):
        raise DataError("no imputed cells to score")
    arities = np.array([schema.arity or 0 for schema in truth.schemas])[cols]
    true_codes = truth.cells[rows, cols]
    imputed_codes = completed.cells[rows, cols]
    _raise_first_bad(mask, [
        (~inside, lambda i: " is outside the dataset"),
        (arities == 0, lambda i: " is in a non-categorical column"),
        (true_codes == MISSING, lambda i: " is missing in the truth"),
        (imputed_codes == MISSING, lambda i: " was not imputed"),
    ])

    arity = int(arities.max())
    pairs = (arity * true_codes + imputed_codes).astype(np.int64)
    confusion = np.bincount(pairs, minlength=arity ** 2).reshape(arity, arity)

    hits = np.diag(confusion)
    support = confusion.sum(axis=1)
    precision = _safe_ratio(hits, confusion.sum(axis=0))
    recall = _safe_ratio(hits, support)
    f1 = _safe_ratio(2 * precision * recall, precision + recall)
    return ImputationReport(
        confusion=confusion,
        per_category=tuple(map(CategoryScore, precision.tolist(),
                               recall.tolist(), f1.tolist())),
        macro_f1=float(np.mean(f1[support > 0])),
        micro_f1=float(hits.sum() / len(mask)),
        cell_count=len(mask),
        macro_categories=tuple(np.flatnonzero(support > 0).tolist()),
    )


def score(truth: CategoricalDataset, imputed: ImputedDataset
          ) -> ImputationReport:
    """Score an imputation result against the complete ground truth over
    its cells in the columns categorical in ``truth``, as ``evaluate``
    scores the file ``impute`` writes: a filled bin of a continuous column
    has no code in the truth."""
    categorical = [j for j, s in enumerate(truth.schemas) if s.is_categorical]
    mask = imputed.mask[np.isin(imputed.mask[:, 1], categorical)]
    return score_cells(truth, imputed.completed, mask)


def report_text(report: ImputationReport) -> str:
    """Human-readable rendering of an imputation report."""
    lines = [
        f"imputed cells: {report.cell_count}",
        f"micro F1 (accuracy): {report.micro_f1:.6f}",
        f"macro F1: {report.macro_f1:.6f} over categories "
        f"{list(report.macro_categories)}",
        "category precision recall f1 support",
    ]
    for k, cs in enumerate(report.per_category):
        support = int(report.confusion[k].sum())
        lines.append(
            f"{k} {cs.precision:.6f} {cs.recall:.6f} {cs.f1:.6f} {support}"
        )
    return "\n".join(lines) + "\n"
