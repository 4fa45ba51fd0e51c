"""Repeat the benchmark over seeds and summarise each metric's spread.

Run from the repository root::

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload in ``BENCHMARK.json`` (or those named by
``--workloads``) this runs ``perfbench/run.py`` once per seed with the
declared ``run_seconds``, then reports per end-to-end metric the median,
the quartiles from ``statistics.quantiles(values, n=4)``, and the spread
(q3 - q1) / median next to a third of the metric's bound.  ``--traced``
adds one traced run per workload on the first seed.  ``--out`` writes every
run and the summary, with the host description, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import host_info

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": elapsed, **result}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    runs, summary = [], {}
    for name in names:
        mine = []
        for seed in seeds:
            run = run_once(name, seed, spec["run_seconds"], 0)
            mine.append(run)
            print(f"{name} seed {seed}: {run['elapsed_s']:.1f} s elapsed, "
                  f"correct={run['correct']} wall_s="
                  f"{run['metrics']['wall_s']['value']:.3f}", flush=True)
        runs.extend(mine)
        summary[name] = {"elapsed_s": spread([r["elapsed_s"] for r in mine])}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in mine]
            summary[name][metric] = stats = spread(values)
            if len(values) >= 2:
                flag = "" if stats["spread"] <= bounds[metric] / 3 else "  WIDE"
                print(f"  {metric:<18} median {stats['median']:<12.6g} "
                      f"spread {stats['spread']:.4f} (bound/3 "
                      f"{bounds[metric] / 3:.4f}){flag}")
        if args.traced:
            runs.append(run_once(name, seeds[0], spec["run_seconds"], 1))
    if args.out:
        args.out.write_text(json.dumps(
            {"host": host_info(), "run_seconds": spec["run_seconds"],
             "seeds": seeds, "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
