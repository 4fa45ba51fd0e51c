"""Seeded synthetic corpora for the benchmark, written as CSV plus schema.

The generator uses numpy only and none of the package under test, so a
change to ``irtimpute.simulate`` cannot change the benchmark's inputs.
Traits are standard normal; every categorical column is drawn from a
binary 2PL, graded or nominal item, and a continuous column is a noisy copy
of the trait (the MAR conditional).

Item parameters come from a fixed stream and only the sample comes from the
seed: traits, responses and blanked cells.  The work a fit does and the
quality it reaches then vary from seed to seed only as much as sampling
makes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

PARAMETER_SEED = 20230208


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # binary | ordinal | nominal | continuous
    arity: int = 0

    @property
    def labels(self) -> tuple[str, ...]:
        if self.kind == "nominal":
            return tuple(f"n{k}" for k in range(self.arity))
        return tuple(str(k) for k in range(self.arity))

    def schema_line(self) -> str:
        if self.kind == "continuous":
            return f"{self.name}: continuous"
        line = f"{self.name}: {self.kind} arity={self.arity}"
        if self.kind == "nominal":
            line += " labels=" + "|".join(self.labels)
        return line


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _category_probs(column: Column, theta: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Item parameters for one column drawn from ``rng`` (the ranges
    ``irtimpute.simulate.simulate_items`` uses), evaluated at every trait."""
    a = rng.uniform(0.8, 2.0)
    if column.kind == "binary":
        p1 = _sigmoid(a * (theta - rng.uniform(-2.0, 2.0)))
        return np.column_stack([1.0 - p1, p1])
    if column.kind == "ordinal":
        bounds = np.sort(rng.uniform(-2.0, 2.0, size=column.arity - 1))
        for k in range(1, bounds.size):
            bounds[k] = max(bounds[k], bounds[k - 1] + 0.15)
        upper = _sigmoid(a * (theta[:, None] - bounds))
        cum = np.hstack([np.ones((theta.size, 1)), upper,
                         np.zeros((theta.size, 1))])
        return cum[:, :-1] - cum[:, 1:]
    slopes = np.concatenate([[0.0], rng.uniform(0.8, 2.0, column.arity - 1)])
    intercepts = np.concatenate([[0.0], rng.uniform(-2.0, 2.0,
                                                    column.arity - 1)])
    logits = theta[:, None] * slopes + intercepts
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    return probs / probs.sum(axis=1, keepdims=True)


def generate(columns: tuple[Column, ...], n_rows: int,
             seed: int) -> np.ndarray:
    """(n_rows, columns) float matrix: category codes or continuous values."""
    parameters = np.random.default_rng(PARAMETER_SEED)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(n_rows)
    cells = np.empty((n_rows, len(columns)))
    for j, column in enumerate(columns):
        if column.kind == "continuous":
            values = np.round(0.8 * theta + 0.6 * rng.standard_normal(n_rows),
                              6)
            # -1 is the loader's missing sentinel for continuous columns
            values[values == -1.0] = -1.000001
            cells[:, j] = values
            continue
        probs = _category_probs(column, theta, parameters)
        draws = rng.uniform(size=n_rows)
        codes = (draws[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
        cells[:, j] = np.minimum(codes, column.arity - 1)
    return cells


def blank_cells(cells: np.ndarray, fraction: float, seed) -> np.ndarray:
    """Boolean mask blanking floor(fraction * rows) random cells per column."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols = cells.shape
    mask = np.zeros(cells.shape, dtype=bool)
    count = int(fraction * n_rows)
    for j in range(n_cols):
        mask[rng.choice(n_rows, size=count, replace=False), j] = True
    return mask


def write_schema(columns: tuple[Column, ...], path: Path) -> None:
    path.write_text("".join(c.schema_line() + "\n" for c in columns))


def write_csv(columns: tuple[Column, ...], cells: np.ndarray, path: Path,
              missing: np.ndarray | None = None) -> None:
    """Write labels / repr'd floats; cells under ``missing`` become empty."""
    text_cols = []
    for j, column in enumerate(columns):
        if column.kind == "continuous":
            col = np.array([repr(float(v)) for v in cells[:, j]], dtype=object)
        else:
            col = np.array(column.labels, dtype=object)[
                cells[:, j].astype(np.int64)]
        if missing is not None:
            col[missing[:, j]] = ""
        text_cols.append(col)
    lines = [",".join(c.name for c in columns)]
    lines.extend(",".join(row) for row in zip(*text_cols))
    path.write_text("\n".join(lines) + "\n")


def read_csv_codes(columns: tuple[Column, ...], path: Path) -> np.ndarray:
    """Category codes of a CSV written by the CLI; -1 for an empty cell.

    Continuous columns read as -1 where empty and 0 elsewhere: the checks
    only compare categorical cells.
    """
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    if header != [c.name for c in columns]:
        raise ValueError(f"{path}: unexpected header {header[:4]}...")
    rows = [line.split(",") for line in lines[1:]]
    out = np.full((len(rows), len(columns)), -1, dtype=np.int64)
    for j, column in enumerate(columns):
        texts = [row[j] for row in rows]
        if column.kind == "continuous":
            out[:, j] = [-1 if t == "" else 0 for t in texts]
            continue
        lookup = {label: k for k, label in enumerate(column.labels)}
        lookup[""] = -1
        out[:, j] = [lookup[t] for t in texts]
    return out
