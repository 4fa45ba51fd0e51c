"""Fill missing cells with their most probable category.

Each case's trait is scored from its observed cells (posterior mean over
the model's grid); every missing cell then receives the category with the
highest model probability at that trait value.  Binary cells follow the
probability-of-one rule (p >= 0.5 imputes 1); cells with three or more
categories take the argmax, lowest category on exact ties.  The filled
positions and their probability vectors are kept as two aligned arrays
(see :class:`ImputedDataset`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import MISSING, CategoricalDataset, _fields_equal
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


def _padded(rows) -> np.ndarray:
    """Probability vectors as a float64 matrix, NaN past each one's end."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows.astype(np.float64, copy=False)
    ends = np.array([len(row) for row in rows], dtype=np.int64)[:, None]
    out = np.full((len(rows), ends.max(initial=0)), np.nan)
    out[np.arange(out.shape[1]) < ends] = np.concatenate([[], *rows])
    return out


@dataclass(frozen=True, eq=False)
class ImputedDataset:
    """A completed dataset plus what was filled in and how confidently.

    ``mask`` is an ``(n, 2)`` int64 array of the imputed (row, column)
    positions in row-major order; ``probabilities`` is an ``(n, K)``
    float64 matrix whose row ``i`` holds the model's category distribution
    for cell ``i``, NaN past that column's arity.  Sequences of pairs and
    of probability vectors are converted to these arrays.
    """

    completed: CategoricalDataset
    mask: np.ndarray
    probabilities: np.ndarray = field(repr=False)

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        cells = self.completed.cells
        mask, inside, rows, cols = _positions(self.mask, cells.shape)
        probs = _padded(self.probabilities)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "probabilities", probs)
        if len(mask) != len(probs):
            raise DataError("mask and probabilities must align")
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
    """Fill every missing cell in the model's columns.

    The model must bind exactly the categorical feature columns of ``data``
    (matching name and category count).  Cases with every modeled cell
    missing are scored at the prior mean.  Columns the model does not bind
    (ids, excluded columns) pass through untouched.
    """
    if len({item.column for item in model.items}) != len(model.items):
        raise DataError("model binds the same column twice")
    means, _ = eap_scores(data, model)
    column_items = {data.column_index(item.column): item
                    for item in model.items}
    cells = np.array(data.cells, copy=True)
    modeled = np.isin(np.arange(data.n_cols), list(column_items))
    mask = np.argwhere((cells == MISSING) & modeled)
    filled = np.unique(mask[:, 1]).tolist()
    width = max((column_items[j].n_categories for j in filled), default=0)
    probabilities = np.full((len(mask), width), np.nan)
    for j in filled:
        at = np.flatnonzero(mask[:, 1] == j)
        probs = category_probs(means[mask[at, 0]], column_items[j])
        cells[mask[at, 0], j] = _decide(probs)
        probabilities[at, :probs.shape[1]] = probs
    return ImputedDataset(
        completed=data.with_cells(cells),
        mask=mask,
        probabilities=probabilities,
    )
