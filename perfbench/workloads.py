"""The benchmark's workloads: inputs, timed CLI commands and output checks.

A workload writes its corpus in ``setup``, lists the CLI commands a user
would run in ``commands`` (each with a check of its own output), and turns
the outputs into the deterministic quality metrics in ``quality``.  Sizes
come in two scales: ``full`` for the measured runs and ``toy`` for the
benchmark's self-test.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from corpus import (
    Column,
    blank_cells,
    generate,
    read_csv_codes,
    write_csv,
    write_schema,
)
from procs import Result, Runner

SCHEMA = "corpus.cols"


@dataclass
class Command:
    """One CLI invocation; ``check`` returns the failures found in its output."""

    argv: list[str]            # arguments of ``irtimpute``, subcommand first
    check: Callable[[Result], list[str]]
    outputs: tuple[str, ...] = ()   # files that must repeat byte for byte


@dataclass
class Inputs:
    """What set-up wrote, plus the truth the checks compare against."""

    columns: tuple[Column, ...]
    cells: np.ndarray          # generated codes and continuous values
    truth: np.ndarray          # category codes; continuous columns are 0
    blanked: np.ndarray        # cells the imputer has to fill
    fit_csv: str               # the data a fit in this workload sees

    @property
    def categorical(self) -> np.ndarray:
        return np.array([c.kind != "continuous" for c in self.columns])


def pooled_f1(truth: np.ndarray, imputed: np.ndarray) -> tuple[float, float]:
    """Macro and micro F1 over one pooled confusion matrix of category codes.

    Same definition as ``irtimpute evaluate``: macro averages over the
    categories present in the truth, micro is accuracy.
    """
    size = int(max(truth.max(), imputed.max())) + 1
    confusion = np.zeros((size, size), dtype=np.int64)
    np.add.at(confusion, (truth, imputed), 1)
    hits = np.diag(confusion).astype(np.float64)
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    precision = np.divide(hits, predicted, out=np.zeros(size),
                          where=predicted > 0)
    recall = np.divide(hits, support, out=np.zeros(size), where=support > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros(size),
                   where=denom > 0)
    return float(f1[support > 0].mean()), float(hits.sum() / truth.size)


def _write_corpus(work: Path, columns: tuple[Column, ...], n_rows: int,
                  seed: int, blank_fraction: float) -> Inputs:
    cells = generate(columns, n_rows, seed)
    truth = np.where([c.kind == "continuous" for c in columns], 0,
                     cells).astype(np.int64)
    write_schema(columns, work / SCHEMA)
    write_csv(columns, cells, work / "truth.csv")
    blanked = np.zeros(cells.shape, dtype=bool)
    fit_csv = "truth.csv"
    if blank_fraction:
        blanked = blank_cells(cells, blank_fraction, [seed, 1])
        write_csv(columns, cells, work / "holed.csv", blanked)
        fit_csv = "holed.csv"
    return Inputs(columns, cells, truth, blanked, fit_csv)


def _imputed_count(result: Result, expected: int) -> list[str]:
    match = re.search(r"imputed (\d+) cells", result.stdout)
    if not match:
        return ["impute printed no cell count"]
    if int(match.group(1)) != expected:
        return [f"imputed {match.group(1)} cells, {expected} were blanked"]
    return []


def _filled_cells(inputs: Inputs, path: Path) -> tuple[list[str], np.ndarray]:
    """Check a completed CSV against the truth; return its codes."""
    codes = read_csv_codes(inputs.columns, path)
    cat = inputs.categorical
    failures = []
    if np.any(codes[inputs.blanked & cat] < 0):
        failures.append("a blanked categorical cell is still empty")
    kept = ~inputs.blanked & cat
    if np.any(codes[kept] != inputs.truth[kept]):
        failures.append("an observed cell changed")
    return failures, codes


class Workload:
    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, scale: str):
        self.size = self.sizes[scale]
        self._outputs: dict = {}

    def setup(self, runner: Runner, seed: int) -> tuple[Inputs, list[Result]]:
        raise NotImplementedError

    def commands(self, inputs: Inputs, work: Path) -> list[Command]:
        raise NotImplementedError

    def quality(self, runner: Runner, inputs: Inputs
                ) -> tuple[dict[str, float], list[Result]]:
        """Deterministic quality metrics of the last iteration's outputs."""
        raise NotImplementedError


def _neg_loglik(path: Path) -> float:
    return -float(json.loads(path.read_text())["final_loglik"])


class FitGrm(Workload):
    name = "fit-grm-20k"
    sizes = {"full": {"rows": 20_000, "items": 20},
             "toy": {"rows": 600, "items": 5}}

    def setup(self, runner, seed):
        columns = tuple(Column(f"g{j:02d}", "ordinal", 5)
                        for j in range(self.size["items"]))
        return _write_corpus(runner.work, columns, self.size["rows"], seed,
                             0.1), []

    def commands(self, inputs, work):
        blanked = int(inputs.blanked.sum())

        def check_fit(result):
            self._outputs["neg_loglik"] = _neg_loglik(work / "model.json")
            return []

        def check_impute(result):
            failures = _imputed_count(result, blanked)
            more, codes = _filled_cells(inputs, work / "filled.csv")
            self._outputs["filled"] = codes
            return failures + more

        return [
            Command(["fit", "--data", "holed.csv",
                     "--schema", SCHEMA, "--out", "model.json"], check_fit,
                    ("model.json",)),
            Command(["impute", "--data", "holed.csv",
                     "--schema", SCHEMA, "--model", "model.json",
                     "--out", "filled.csv"], check_impute, ("filled.csv",)),
        ]

    def quality(self, runner, inputs):
        mask = inputs.blanked
        macro, micro = pooled_f1(inputs.truth[mask],
                                 self._outputs["filled"][mask])
        return {"macro_f1": macro, "micro_f1": micro,
                "final_neg_loglik": self._outputs["neg_loglik"]}, []


# The F1 table of a bench report: mechanism, fraction, cells, model macro,
# model micro, baseline macro, baseline micro.
_F1_HEADER = "imputed-cell F1, model vs majority baseline"


def parse_bench_f1(text: str) -> list[list[str]]:
    lines = text.splitlines()
    start = lines.index(_F1_HEADER) + 2
    return [line.split() for line in lines[start:] if line.strip()]


class BenchMixed(Workload):
    name = "bench-mixed-1500"
    sizes = {"full": {"rows": 1500, "per_kind": 4, "fractions": "0.1,0.3,0.5"},
             "toy": {"rows": 300, "per_kind": 2, "fractions": "0.3"}}

    def setup(self, runner, seed):
        per_kind = range(self.size["per_kind"])
        columns = (tuple(Column(f"b{j}", "binary", 2) for j in per_kind)
                   + tuple(Column(f"g{j}", "ordinal", 4) for j in per_kind)
                   + tuple(Column(f"n{j}", "nominal", 4) for j in per_kind)
                   + (Column("x", "continuous"),))
        return _write_corpus(runner.work, columns, self.size["rows"], seed,
                             0.0), []

    def commands(self, inputs, work):
        fractions = [float(f) for f in self.size["fractions"].split(",")]
        rows = inputs.truth.shape[0]

        def check_report(result):
            table = parse_bench_f1((work / "report.txt").read_text())
            failures = []
            expected = [int(np.floor(f * rows)) for f in fractions] * 2
            if [int(r[2]) for r in table] != expected:
                failures.append(f"bench cell counts {[r[2] for r in table]} "
                                f"!= {expected}")
            for r in table:
                if not float(r[3]) > float(r[5]):
                    failures.append(f"{r[0]} {r[1]}: model macro-F1 {r[3]} "
                                    f"does not beat the baseline {r[5]}")
            self._outputs["table"] = table
            return failures

        return [Command(
            ["bench", "--data", "truth.csv",
             "--schema", SCHEMA, "--target", "g0", "--conditional", "x",
             "--fractions", self.size["fractions"], "--mechanisms",
             "mcar,mar", "--out", "report.txt"], check_report,
            ("report.txt",))]

    def quality(self, runner, inputs):
        # The report carries no log-likelihood, so fit the complete corpus
        # (untimed) to give the workload's fit a deterministic quality number.
        result = runner.cli("fit", "--data", "truth.csv", "--schema", SCHEMA,
                            "--out", "model.json")
        table = self._outputs["table"]
        metrics = {
            "macro_f1": float(np.mean([float(r[3]) for r in table])),
            "micro_f1": float(np.mean([float(r[4]) for r in table])),
        }
        if result.ok:
            metrics["final_neg_loglik"] = _neg_loglik(
                runner.work / "model.json")
        return metrics, [result]


class ApplyMixed(Workload):
    name = "apply-mixed-50k"
    sizes = {"full": {"rows": 50_000, "train": 5_000, "kinds": (6, 8, 6)},
             "toy": {"rows": 1_200, "train": 400, "kinds": (2, 2, 2)}}

    def setup(self, runner, seed):
        binary, ordinal, nominal = self.size["kinds"]
        kinds = ("binary",) * binary + ("ordinal",) * ordinal \
            + ("nominal",) * nominal
        arity = {"binary": 2, "ordinal": 5, "nominal": 4}
        columns = tuple(Column(f"c{j:02d}", kind, arity[kind])
                        for j, kind in enumerate(kinds))
        inputs = _write_corpus(runner.work, columns, self.size["rows"], seed,
                               0.1)
        train = self.size["train"]
        write_csv(columns, inputs.cells[:train],
                  runner.work / "train.csv", inputs.blanked[:train])
        inputs.fit_csv = "train.csv"
        fitted = runner.cli("fit", "--data", "train.csv", "--schema", SCHEMA,
                            "--out", "model.json")
        return inputs, [fitted]

    def commands(self, inputs, work):
        blanked = int(inputs.blanked.sum())
        patterns = np.unique(~inputs.blanked[~inputs.blanked.all(axis=1)],
                             axis=0).shape[0]

        def check_impute(result):
            failures = _imputed_count(result, blanked)
            more, codes = _filled_cells(inputs, work / "filled.csv")
            self._outputs["filled"] = codes
            with open(work / "probs.csv") as handle:
                lines = sum(1 for _ in handle)
            if lines != blanked + 1:
                more.append(f"probability sidecar has {lines - 1} rows, "
                            f"{blanked} cells were imputed")
            return failures + more

        def check_evaluate(result):
            mask = inputs.blanked
            macro, micro = pooled_f1(inputs.truth[mask],
                                     self._outputs["filled"][mask])
            text = result.stdout
            got = [re.search(pattern, text) for pattern in
                   (r"imputed cells: (\d+)", r"micro F1 \(accuracy\): (\S+)",
                    r"macro F1: (\S+)")]
            if not all(got):
                return ["evaluate output lacks its summary lines"]
            failures = []
            if int(got[0].group(1)) != blanked:
                failures.append(f"evaluate scored {got[0].group(1)} cells")
            if (abs(float(got[1].group(1)) - micro) > 1e-6
                    or abs(float(got[2].group(1)) - macro) > 1e-6):
                failures.append("evaluate F1 disagrees with the benchmark's")
            return failures

        def check_mcar(result):
            match = re.search(r"patterns: (\d+)", result.stdout)
            p_value = re.search(r"p-value: (\S+)", result.stdout)
            if not match or not p_value:
                return ["mcar-test output lacks patterns or p-value"]
            failures = []
            if int(match.group(1)) != patterns:
                failures.append(f"mcar-test saw {match.group(1)} patterns, "
                                f"the corpus has {patterns}")
            if not 0.0 <= float(p_value.group(1)) <= 1.0:
                failures.append(f"p-value {p_value.group(1)} outside [0, 1]")
            return failures

        return [
            Command(["impute", "--data", "holed.csv",
                     "--schema", SCHEMA, "--model", "model.json",
                     "--out", "filled.csv", "--probabilities", "probs.csv"],
                    check_impute, ("filled.csv", "probs.csv")),
            Command(["evaluate", "--truth",
                     "truth.csv", "--with-missing", "holed.csv", "--imputed",
                     "filled.csv", "--schema", SCHEMA], check_evaluate),
            Command(["mcar-test", "--data",
                     "holed.csv", "--schema", SCHEMA], check_mcar),
        ]

    def quality(self, runner, inputs):
        mask = inputs.blanked
        macro, micro = pooled_f1(inputs.truth[mask],
                                 self._outputs["filled"][mask])
        # no EM runs in the timed part: report the set-up fit it applies
        return {"macro_f1": macro, "micro_f1": micro,
                "final_neg_loglik": _neg_loglik(runner.work / "model.json")
                }, []


WORKLOADS = {cls.name: cls for cls in (FitGrm, BenchMixed, ApplyMixed)}
