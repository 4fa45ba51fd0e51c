"""In-process measurements for the traced run.

These import the package from the checkout's ``src`` and call its public
functions directly: the CLI replay under the tracer, one E-step and one
M-step sweep at a mid-fit point, and per-call costs of the item models on
the default quadrature grid.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer


def import_package(root: Path) -> None:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def replay(tracer: Tracer, work: Path, argvs: list[list[str]]
           ) -> list[tuple[int, str, str]]:
    """Run each CLI command in-process, one span per command.

    Returns (exit code, captured stdout, captured stderr) per command.
    """
    from irtimpute import cli

    outcomes = []
    here = os.getcwd()
    os.chdir(work)
    try:
        with tracer.patched():
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with tracer.span(f"cli.{argv[0]}"), \
                        contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except Exception:  # a crash is a failed command
                        traceback.print_exc()
                        code = 1
                outcomes.append((code, out.getvalue(), err.getvalue()))
    finally:
        os.chdir(here)
    return outcomes


def call_unexercised(tracer: Tracer, work: Path, fit_csv: str,
                     schema: str) -> list[str]:
    """Call each traced layer the replay never reached once, on the
    workload's own files, so that every layer figure is a measurement.

    Each call gets a root span ``probe`` that holds the layer's span.
    Returns the span names probed.
    """
    import irtimpute as lib

    called = {span.name for span in tracer.spans}
    schemas = lib.load_schema(work / schema)
    truth = lib.load_csv(work / "truth.csv", schemas)
    holed = lib.load_csv(work / "holed.csv", schemas) \
        if (work / "holed.csv").exists() else truth
    fit_data = lib.load_csv(work / fit_csv, schemas)
    categorical = [j for j in holed.feature_indices
                   if holed.schemas[j].is_categorical]
    if len(categorical) < len(holed.feature_indices):
        fit_data, _ = lib.discretize_dataset(fit_data)

    def score_filled():
        filled = lib.load_csv(work / "filled.csv", schemas)
        blanked = holed.missing_mask[:, categorical]
        mask = tuple((int(i), categorical[j])
                     for i, j in zip(*blanked.nonzero()))
        return lib.score_cells(truth, filled, tuple(sorted(mask)))

    calls = {
        "data.discretize_dataset": lambda: lib.discretize_dataset(holed),
        "data.emit_csv": lambda: lib.emit_csv(holed, work / "probe.csv"),
        "estimation.fit": lambda: lib.fit(fit_data),
        "metrics.score_cells": score_filled,
        "missingness.littles_test": lambda: lib.littles_test(
            holed.to_numeric(holed.feature_indices)),
    }
    if not called & {"missingness.inject_mcar", "missingness.inject_mar"}:
        target = holed.schemas[categorical[0]].name
        calls["missingness.inject_mcar"] = lambda: lib.inject_mcar(
            truth, target, 0.1, 0)
    probed = [name for name in calls if name not in called]
    with tracer.patched():
        for name in probed:
            with tracer.span("probe"):
                calls[name]()
    return probed


def _median_time(func, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def em_step_costs(csv_path: Path, schema_path: Path, repeats: int = 3
                  ) -> dict[str, float]:
    """Seconds for one E-step and one M-step sweep after one EM iteration."""
    from irtimpute import (FitConfig, discretize_dataset, e_step, fit,
                           load_csv, load_schema, m_step_item)

    data = load_csv(csv_path, load_schema(schema_path))
    if any(data.schemas[j].kind == "continuous"
           for j in data.feature_indices):
        data, _ = discretize_dataset(data)
    model = fit(data, FitConfig(max_iter=1))
    items, grid = model.items, model.grid
    counts = e_step(data, items, grid).expected_counts
    return {
        "rows": data.n_rows,
        "grid": grid.size,
        "e_step_s": _median_time(lambda: e_step(data, items, grid), repeats),
        "m_step_s": _median_time(
            lambda: [m_step_item(item, counts[i], grid)
                     for i, item in enumerate(items)], repeats),
    }


def _per_call_us(func, batch_s: float = 0.05, batches: int = 5) -> float:
    calls = 1
    while _median_time(lambda: [func() for _ in range(calls)], 1) < batch_s:
        calls *= 2
    per_batch = _median_time(lambda: [func() for _ in range(calls)], batches)
    return per_batch / calls * 1e6


def model_call_costs() -> dict[str, float]:
    """Microseconds per call of each family's log-probabilities and
    gradients on the default 61-node grid (4 categories for graded and
    nominal items)."""
    from irtimpute import (Binary2PL, GradedItem, NominalItem, build_grid,
                           log_category_probs)
    from irtimpute.models import grad_log_probs

    nodes = build_grid().node_array()
    params = {
        "2pl": Binary2PL(1.2, 0.3),
        "grm": GradedItem(1.2, (-1.0, 0.0, 1.0)),
        "nrm": NominalItem((0.0, 0.8, 1.4, 2.0), (0.0, 0.3, -0.2, 0.5)),
    }
    costs = {f"log_category_probs_us.{family}":
             _per_call_us(lambda p=p: log_category_probs(nodes, p))
             for family, p in params.items()}
    costs["grad_log_probs_us"] = _per_call_us(
        lambda: [grad_log_probs(p, nodes) for p in params.values()]) / 3
    return costs
