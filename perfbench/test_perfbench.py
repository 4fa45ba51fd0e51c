"""Self-test of the benchmark at toy sizes.

Run from the repository root with ``python3 -m pytest -q perfbench``.  It
checks ``BENCHMARK.json`` and ``layers.json`` against the code, runs every
workload's timed and traced paths on toy inputs, and checks that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import E2E_UNITS, LAYER_UNITS  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, pooled_f1  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_layer_map_covers_every_layer_metric():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    assert set(layers) == set(LAYER_UNITS)
    for entry in layers.values():
        for expect in entry["expect"]:
            assert expect["metric"] in E2E_UNITS
            assert expect["workload"] in WORKLOADS
            assert expect["effect"] in ("moves", "flat")


def test_pooled_f1_matches_the_package():
    sys.path.insert(0, str(ROOT / "src"))
    from irtimpute import CategoricalDataset, ColumnSchema, score_cells

    rng = np.random.default_rng(0)
    truth = rng.integers(0, 4, size=(200, 3))
    imputed = np.where(rng.random(truth.shape) < 0.6, truth,
                       rng.integers(0, 4, size=truth.shape))
    mask = rng.random(truth.shape) < 0.3
    schemas = tuple(ColumnSchema(f"c{j}", "nominal", arity=4)
                    for j in range(3))
    cells = tuple(sorted(zip(*map(lambda a: a.tolist(), np.nonzero(mask)))))
    report = score_cells(CategoricalDataset(schemas, truth),
                         CategoricalDataset(schemas, imputed), cells)
    macro, micro = pooled_f1(truth[mask], imputed[mask])
    assert macro == pytest.approx(report.macro_f1, abs=1e-12)
    assert micro == pytest.approx(report.micro_f1, abs=1e-12)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    own = tracer.self_times()
    assert inner.parent == 0 and outer.parent is None
    assert own["outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_toy_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", trace, "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    units = LAYER_UNITS if trace == "1" else E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "fit-grm-20k", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
