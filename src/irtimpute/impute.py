"""Fill missing cells with their most probable category.

Each case's trait is scored from its observed cells (posterior mean over
the model's grid); every missing cell then receives the category with the
highest model probability at that trait value.  Binary cells follow the
probability-of-one rule (p >= 0.5 imputes 1); cells with three or more
categories take the argmax, lowest category on exact ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import MISSING, CategoricalDataset
from .errors import DataError
from .estimation import FittedModel, eap_scores
from .models import ItemModel, category_probs

__all__ = ["ImputedDataset", "impute_binary_cell", "impute_cell",
           "impute_dataset"]


def impute_binary_cell(p_one: float) -> int:
    """Binary decision rule: probability of category 1 at least one half."""
    if not 0.0 <= p_one <= 1.0:
        raise DataError(f"probability {p_one} outside [0, 1]")
    return 1 if p_one >= 0.5 else 0


def impute_cell(theta: float, item: ItemModel) -> tuple[int, np.ndarray]:
    """Most probable category at ``theta`` plus the full probability vector.

    Ties break to the lowest category code, except binary items, which
    follow :func:`impute_binary_cell` (an exact 0.5 imputes 1).
    """
    probs = category_probs(theta, item)
    return int(_decide(probs)), probs


def _decide(probs) -> np.ndarray:
    """Imputed code for each probability vector along the last axis.

    Binary items take 1 when P(1) >= 0.5; wider items take the argmax,
    lowest code on ties.
    """
    probs = np.asarray(probs)
    if probs.shape[-1] == 2:
        return (probs[..., 1] >= 0.5).astype(np.int64)
    return np.argmax(probs, axis=-1)


@dataclass(frozen=True)
class ImputedDataset:
    """A completed dataset plus what was filled in and how confidently.

    ``mask`` lists the imputed (row, column) positions in row-major order;
    ``probabilities`` holds the model's category distribution for each of
    those cells, aligned with ``mask``.
    """

    completed: CategoricalDataset
    mask: tuple[tuple[int, int], ...]
    probabilities: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.mask) != len(self.probabilities):
            raise DataError("mask and probabilities must align")
        for (row, col), probs in zip(self.mask, self.probabilities):
            value = self.completed.cells[row, col]
            if value == MISSING:
                raise DataError(f"cell ({row}, {col}) left missing")
            schema = self.completed.schemas[col]
            arity = schema.arity or 0
            if len(probs) != arity:
                raise DataError(
                    f"cell ({row}, {col}): {len(probs)} probabilities for "
                    f"arity {arity}"
                )
            if int(value) != int(_decide(probs)):
                raise DataError(
                    f"cell ({row}, {col}): stored code {int(value)} does not "
                    "match its probability vector"
                )


def impute_dataset(data: CategoricalDataset, model: FittedModel
                   ) -> ImputedDataset:
    """Fill every missing cell in the model's columns.

    The model must bind exactly the categorical feature columns of ``data``
    (matching name and category count).  Cases with every modeled cell
    missing are scored at the prior mean.  Columns the model does not bind
    (ids, excluded columns) pass through untouched.
    """
    items_by_column = {item.column: item for item in model.items}
    if len(items_by_column) != len(model.items):
        raise DataError("model binds the same column twice")
    column_items: dict[int, ItemModel] = {}
    for item in model.items:
        j = data.column_index(item.column)
        schema = data.schemas[j]
        if not schema.is_categorical:
            raise DataError(f"column {item.column!r} is not categorical")
        if schema.arity != item.n_categories:
            raise DataError(
                f"column {item.column!r}: arity {schema.arity} does not "
                f"match the model's {item.n_categories} categories"
            )
        column_items[j] = item

    means, _ = eap_scores(data, model)
    cells = np.array(data.cells, copy=True)
    mask: list[tuple[int, int]] = []
    probabilities: list[np.ndarray] = []
    filled: dict[tuple[int, int], np.ndarray] = {}
    for j in sorted(column_items):
        item = column_items[j]
        rows = np.flatnonzero(data.cells[:, j] == MISSING)
        if rows.size == 0:
            continue
        probs = category_probs(means[rows], item)
        cells[rows, j] = _decide(probs)
        for idx, row in enumerate(rows):
            filled[(int(row), j)] = probs[idx]
    for position in sorted(filled):
        mask.append(position)
        probabilities.append(filled[position])
    return ImputedDataset(
        completed=data.with_cells(cells),
        mask=tuple(mask),
        probabilities=tuple(probabilities),
    )
