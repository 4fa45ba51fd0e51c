"""Synthetic data generation from known item parameters.

Used by the benchmark pipeline, the test suite's parameter-recovery
checks, and the demo scripts: draw traits from the standard normal prior,
then sample each response from its item's category distribution.
"""

from __future__ import annotations

import numpy as np

from .data import CategoricalDataset, ColumnSchema
from .errors import DataError
from .models import (
    _CLASS_BY_FAMILY,
    ItemModel,
    NominalItem,
    _separate,
    category_probs,
)

__all__ = ["simulate_items", "simulate_responses", "simulate_dataset"]

# Uniform ranges of the drawn slopes and locations.
SLOPE_RANGE = (0.8, 2.0)
LOCATION_RANGE = (-2.0, 2.0)


def simulate_items(
    family: str,
    n_items: int,
    rng: np.random.Generator,
    n_categories: int = 4,
    name_prefix: str = "item",
) -> tuple[ItemModel, ...]:
    """Random items with slopes and locations drawn uniformly.

    Slopes come from ``SLOPE_RANGE`` and locations from ``LOCATION_RANGE``.
    Graded boundaries are sorted location draws; nominal free slopes are
    slope draws and free intercepts location draws (category 0 stays
    anchored at zero).
    """
    if family not in _CLASS_BY_FAMILY:
        raise DataError(f"unknown family {family!r}")
    # a binary item is a graded item with one boundary
    n_bounds = 1 if family == "2pl" else n_categories - 1
    items = []
    for i in range(n_items):
        a = float(rng.uniform(*SLOPE_RANGE))
        column = f"{name_prefix}{i:02d}"
        if family != "nrm":
            bs = np.sort(rng.uniform(*LOCATION_RANGE, size=n_bounds))
            # keep boundaries separated so every category carries real mass
            _separate(bs, 0.15)
            items.append(_CLASS_BY_FAMILY[family].from_bounds(a, bs, column))
        else:
            free = np.concatenate([
                rng.uniform(*SLOPE_RANGE, size=n_categories - 1),
                rng.uniform(*LOCATION_RANGE, size=n_categories - 1)])
            items.append(NominalItem(*NominalItem.kernel.natural(free),
                                     column=column))
    return tuple(items)


def simulate_responses(
    items: tuple[ItemModel, ...],
    thetas: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample one code per (case, item) from the model probabilities."""
    thetas = np.asarray(thetas, dtype=np.float64)
    codes = np.empty((thetas.size, len(items)), dtype=np.int64)
    for i, item in enumerate(items):
        probs = category_probs(thetas, item)
        cumulative = np.cumsum(probs, axis=1)
        draws = rng.uniform(size=thetas.size)
        codes[:, i] = np.minimum(
            (draws[:, None] > cumulative).sum(axis=1), item.n_categories - 1
        )
    return codes


def simulate_dataset(
    items: tuple[ItemModel, ...],
    n_cases: int,
    seed: int,
) -> CategoricalDataset:
    """Complete synthetic dataset drawn from the given items.

    Column kinds follow the item families (binary / ordinal / nominal);
    every column is a feature.  Traits are standard normal.
    """
    rng = np.random.default_rng(seed)
    thetas = rng.standard_normal(n_cases)
    codes = simulate_responses(items, thetas, rng)
    schemas = tuple(
        ColumnSchema(item.column, item.kind, arity=item.n_categories)
        for item in items
    )
    return CategoricalDataset(schemas, codes.astype(np.float64))
