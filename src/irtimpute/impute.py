"""Fill missing cells with their most probable category.

Each case's trait is scored from its observed cells (posterior mean over
the model's grid); every cell of ``filled_mask`` then receives the category
with the highest model probability at that trait value (:func:`_decide`).
Binary cells follow the probability-of-one rule (p >= 0.5 imputes 1);
cells with three or more categories take the argmax, lowest category on
exact ties.  The filled positions and their probability vectors are kept
as two aligned arrays (see :class:`ImputedDataset`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import (MISSING, CategoricalDataset, _fields_equal,
                   apply_discretization)
from .errors import DataError
from .estimation import FittedModel, eap_scores
from .models import category_probs

__all__ = ["ImputedDataset", "impute_dataset"]


def _decide(probs) -> np.ndarray:
    """Imputed code for each probability vector along the last axis: the
    one rule that turns a model's probabilities into a filled cell.

    NaN pads a vector past its arity.  Binary vectors take 1 when
    P(1) >= 0.5; wider ones take the argmax, lowest code on ties.
    """
    probs = np.asarray(probs)
    binary = np.isnan(probs[..., 2:]).all(axis=-1)
    codes = np.argmax(np.nan_to_num(probs, nan=-np.inf), axis=-1)
    return np.where(binary, probs[..., 1] >= 0.5, codes)


def _positions(mask, shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Positions as an ``(n, 2)`` int64 array, which lie inside ``shape``,
    and rows and columns to index with (0 in place of an outside one)."""
    mask = np.asarray(mask, dtype=np.int64).reshape(-1, 2)
    inside = np.all((mask >= 0) & (mask < shape), axis=1)
    return mask, inside, *np.where(inside[:, None], mask, 0).T


def _raise_first_bad(mask: np.ndarray, checks) -> None:
    """Raise for the first cell in mask order failing a check, naming its
    first failed check.  ``checks`` pairs a boolean array, True on failing
    cells, with a function of the cell index giving the message's end."""
    bad = np.array([failed for failed, _ in checks])
    if bad.any():
        cell = int(np.argmax(bad.any(axis=0)))
        _, message = checks[int(np.argmax(bad[:, cell]))]
        row, col = mask[cell].tolist()
        raise DataError(f"cell ({row}, {col}){message(cell)}")


@dataclass(frozen=True, eq=False)
class ImputedDataset:
    """A completed dataset plus what was filled in and how confidently.

    ``mask`` is an ``(n, 2)`` int64 array of the imputed (row, column)
    positions in row-major order; ``probabilities`` is an ``(n, K)``
    float64 matrix whose row ``i`` holds the model's category distribution
    for cell ``i``, NaN past that column's arity.  Anything ``np.asarray``
    turns into these arrays is converted, such as a sequence of pairs.
    """

    completed: CategoricalDataset
    mask: np.ndarray
    probabilities: np.ndarray = field(repr=False)

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        cells = self.completed.cells
        mask, inside, rows, cols = _positions(self.mask, cells.shape)
        try:
            probs = np.asarray(self.probabilities, dtype=np.float64)
        except ValueError:  # rows of unequal length
            probs = None
        if probs is None or probs.ndim != 2 or len(probs) != len(mask):
            raise DataError("probabilities must be a matrix aligned with the "
                            "mask, one row per cell, NaN past its arity")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "probabilities", probs)
        values = cells[rows, cols]
        arity = np.array([s.arity or 0 for s in self.completed.schemas])[cols]
        count = np.count_nonzero(~np.isnan(probs), axis=1)
        padding = np.arange(probs.shape[1]) >= arity[:, None]
        shaped = (count == arity) & np.all(np.isnan(probs) == padding, axis=1)
        checks = [
            (~inside, lambda i: " is outside the dataset"),
            (values == MISSING, lambda i: " left missing"),
            (arity == 0, lambda i: " is in a non-categorical column"),
            (~shaped, lambda i: f": {count[i]} probabilities for arity "
                                f"{arity[i]}"),
        ]
        # with no row two wide, every cell fails the shape check
        decided = _decide(probs) if probs.shape[1] >= 2 else values
        checks.append((values != decided,
                       lambda i: f": stored code {int(values[i])} does not "
                                 "match its probability vector"))
        _raise_first_bad(mask, checks)


def impute_dataset(data: CategoricalDataset, model: FittedModel
                   ) -> ImputedDataset:
    """Fill the missing cells of the feature columns of ``data``, once the
    model's ``discretization`` bins it; ``completed`` is the binned view.

    The model's items must bind the feature columns, one to one and in
    column order, with matching category counts; anything else is a
    :class:`DataError`.  Cases with every feature cell missing are scored
    at the prior mean.  Other columns (ids, excluded columns) pass through
    untouched.
    """
    data = apply_discretization(data, model.discretization)
    # binned once: the scores take the view, not the cut points again
    means, _ = eap_scores(data, replace(model, discretization=()))
    items = dict(zip(data.feature_indices, model.items))
    cells = np.array(data.cells, copy=True)
    mask = np.argwhere(data.filled_mask)
    filled = np.flatnonzero(np.bincount(mask[:, 1])).tolist()
    width = max((items[j].n_categories for j in filled), default=0)
    probabilities = np.full((len(mask), width), np.nan)
    for j in filled:
        at = np.flatnonzero(mask[:, 1] == j)
        probs = category_probs(means[mask[at, 0]], items[j])
        cells[mask[at, 0], j] = _decide(probs)
        probabilities[at, :probs.shape[1]] = probs
    return ImputedDataset(
        completed=data.with_cells(cells),
        mask=mask,
        probabilities=probabilities,
    )
