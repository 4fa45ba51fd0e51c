"""Benchmark of the irtimpute command line: timed runs and a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload fit-grm-20k --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up from ``--seed``, then repeats its CLI
commands (``python -m irtimpute.cli`` children, ``PYTHONPATH=src``) for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs the
commands once more as children, replays them in-process with a span
around every library call, and reports the per-layer metrics.  Either way
every command's output is checked, and the last line on stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record, host description included, is written under
``.perfbench_work/results/``.

Load model: closed loop with one client.  Each command starts after the
previous one exits, and BLAS/OpenMP are pinned to one thread.
"""

from __future__ import annotations

import os

from procs import THREAD_VARS

# Pin BLAS before numpy loads: the in-process replay must match the children.
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

import probes
from procs import Result, Runner
from tracing import Tracer
from workloads import SCHEMA, WORKLOADS, Command, Workload

RUN_LIMIT_S = 170.0     # the whole run must end within 180 s
QUALITY_RESERVE_S = 20.0
IMPORT_REPEATS = 3

E2E_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "macro_f1": "ratio",
    "micro_f1": "ratio",
    "final_neg_loglik": "nat",
    "ok_rate": "ratio",
}

LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.residual_s": "s",
    "data.load_csv_s": "s",
    "data.emit_csv_s": "s",
    "data.discretize_s": "s",
    "estimation.fit_s": "s",
    "estimation.em_iterations": "count",
    "estimation.e_step_s": "s",
    "estimation.e_step_share": "ratio",
    "estimation.m_step_s": "s",
    "estimation.posterior_bytes": "B",
    "estimation.eap_scores_s": "s",
    "models.log_category_probs_us.2pl": "us",
    "models.log_category_probs_us.grm": "us",
    "models.log_category_probs_us.nrm": "us",
    "models.grad_log_probs_us": "us",
    "impute.impute_dataset_s": "s",
    "impute.cells_imputed": "count",
    "metrics.score_cells_s": "s",
    "missingness.inject_s": "s",
    "missingness.littles_test_s": "s",
    "missingness.patterns": "count",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Commands attempted; a command fails on a non-zero exit or a failed
    check of its output."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def add(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def command(self, result: Result, command: Command | None = None,
                fingerprints: dict | None = None, work: Path | None = None
                ) -> bool:
        if not result.ok:
            return self.add([result.failure()])
        try:
            problems = command.check(result) if command else []
            if fingerprints is not None:
                digest = _fingerprint(result, work, command.outputs)
                if fingerprints.setdefault(command.argv[0], digest) != digest:
                    problems.append(f"{command.argv[0]}: outputs differ "
                                    "from an earlier run of the command")
        except Exception as exc:  # a crashed check is a failed command
            problems = [f"{result.argv[:4]}: check raised {exc!r}"]
        return self.add(problems)


def _fingerprint(result: Result, work: Path, outputs: tuple[str, ...]) -> str:
    digest = hashlib.sha256(result.stdout.encode())
    for name in outputs:
        digest.update((work / name).read_bytes())
    return digest.hexdigest()


def host_info() -> dict:
    """What a result needs to be compared with one from another host."""
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = "missing"
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _setup(workload: Workload, runner: Runner, seed: int, tally: Tally):
    started = time.perf_counter()
    inputs, results = workload.setup(runner, seed)
    elapsed = time.perf_counter() - started
    for result in results:
        tally.command(result)
    return inputs, elapsed


def _warm_up(runner: Runner, tally: Tally) -> Result:
    """Import the CLI once so byte-code and file caches are filled."""
    result = runner.run(["-c", "import irtimpute.cli"])
    tally.command(result)
    return result


def _iteration(runner: Runner, commands: list[Command], tally: Tally,
               fingerprints: dict | None) -> list[Result] | None:
    """Run the commands in order; None once one of them fails."""
    results = []
    for command in commands:
        result = runner.cli(*command.argv)
        if not tally.command(result, command, fingerprints, runner.work):
            return None
        results.append(result)
    return results


def timed_run(workload: Workload, runner: Runner, seed: int, seconds: int,
              tally: Tally) -> tuple[dict, dict]:
    setups = []
    # set up at least three times and for at least a second, then take the
    # median, so cheap set-ups still give a steady figure
    while len(setups) < 3 or (sum(setups) < 1.0 and len(setups) < 25):
        inputs, elapsed = _setup(workload, runner, seed, tally)
        setups.append(elapsed)
    _warm_up(runner, tally)
    commands = workload.commands(inputs, runner.work)
    walls: list[float] = []
    peak = 0.0
    fingerprints: dict = {}
    started = time.monotonic()
    while True:
        results = _iteration(runner, commands, tally, fingerprints)
        if results is None:
            break
        walls.append(sum(r.wall_s for r in results))
        peak = max([peak] + [r.peak_rss_mb for r in results])
        now = time.monotonic()
        typical = statistics.median(walls)
        if now - started + typical > seconds:
            break
        if now + typical > runner.deadline - QUALITY_RESERVE_S:
            break
    metrics = {"wall_s": statistics.median(walls) if walls else 0.0,
               "peak_rss_mb": peak,
               "setup_s": statistics.median(setups)}
    if walls and not tally.failed:
        quality, extra = workload.quality(runner, inputs)
        for result in extra:
            tally.command(result)
        metrics.update(quality)
    metrics["ok_rate"] = 1.0 - tally.failed / max(tally.attempted, 1)
    detail = {"wall_samples": walls, "setup_samples": setups,
              "fingerprints": fingerprints}
    return metrics, detail


def traced_run(workload: Workload, runner: Runner, seed: int, tally: Tally,
               root: Path, spans_path: Path) -> tuple[dict, dict]:
    inputs, _ = _setup(workload, runner, seed, tally)
    _warm_up(runner, tally)
    commands = workload.commands(inputs, runner.work)
    # the replay must reproduce the children's outputs byte for byte
    fingerprints: dict = {}
    results = _iteration(runner, commands, tally, fingerprints) or []
    cli_wall = sum(r.wall_s for r in results)
    imports = []
    for _ in range(IMPORT_REPEATS):
        imports.append(_warm_up(runner, tally).wall_s)
    import_s = statistics.median(imports)

    probes.import_package(root)
    tracer = Tracer()
    outcomes = probes.replay(tracer, runner.work,
                             [command.argv for command in commands])
    for command, (code, out, err) in zip(commands, outcomes):
        tally.command(Result(tuple(command.argv), code, 0.0, 0.0, 0.0, out,
                             err), command, fingerprints, runner.work)
    replay_s = sum(span.end - span.start for span in tracer.spans
                   if span.parent is None)
    probed = probes.call_unexercised(tracer, runner.work, inputs.fit_csv,
                                     SCHEMA)
    tracer.write(spans_path)

    em = probes.em_step_costs(runner.work / inputs.fit_csv,
                              runner.work / SCHEMA)
    own = tracer.self_times()
    counts = tracer.counts()
    fit_s = own.get("estimation.fit", 0.0)
    iterations = counts.get("em_iterations", 0)
    metrics = {
        "cli.import_s": import_s,
        "cli.residual_s": sum(t for name, t in own.items()
                              if name.startswith("cli.")),
        "data.load_csv_s": own.get("data.load_csv", 0.0),
        "data.emit_csv_s": own.get("data.emit_csv", 0.0),
        "data.discretize_s": own.get("data.discretize_dataset", 0.0),
        "estimation.fit_s": fit_s,
        "estimation.em_iterations": iterations,
        "estimation.e_step_s": em["e_step_s"],
        "estimation.e_step_share": (em["e_step_s"] * iterations / fit_s
                                    if fit_s else 0.0),
        "estimation.m_step_s": em["m_step_s"],
        # computed, not measured: one float64 per row and grid node
        "estimation.posterior_bytes": inputs.truth.shape[0] * em["grid"] * 8,
        "estimation.eap_scores_s": own.get("estimation.eap_scores", 0.0),
        **{f"models.{name}": cost
           for name, cost in probes.model_call_costs().items()},
        "impute.impute_dataset_s": own.get("impute.impute_dataset", 0.0),
        "impute.cells_imputed": counts.get("cells_imputed", 0),
        "metrics.score_cells_s": own.get("metrics.score_cells", 0.0),
        "missingness.inject_s": (own.get("missingness.inject_mcar", 0.0)
                                 + own.get("missingness.inject_mar", 0.0)),
        "missingness.littles_test_s": own.get("missingness.littles_test",
                                              0.0),
        "missingness.patterns": counts.get("patterns", 0),
        "process.cpu_s": sum(r.cpu_s for r in results),
        # the replay skips interpreter start-up, which the children pay
        "trace.overhead_s": replay_s - (cli_wall - len(results) * import_s),
    }
    detail = {"cli_wall_s": cli_wall, "replay_s": replay_s,
              "import_samples": imports, "spans": len(tracer.spans),
              "probed": probed,
              "self_times": own, "counts": counts, "em_probe": em}
    return metrics, detail


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="input sizes; toy is for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if not (root / "src" / "irtimpute" / "cli.py").is_file():
        print("perfbench: no src/irtimpute/cli.py here; run from the "
              "repository root", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    base = root / ".perfbench_work"
    work = base / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (base / "results").mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](args.scale)
    runner = Runner(root, work, started + RUN_LIMIT_S)
    tally = Tally()
    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics, detail = {}, {}
    try:
        if args.trace:
            metrics, detail = traced_run(
                workload, runner, args.seed, tally, root,
                base / "results" / f"{tag}-spans.jsonl")
        else:
            metrics, detail = timed_run(workload, runner, args.seed,
                                        args.seconds, tally)
    except Exception as exc:  # report a broken program as a failed run
        tally.add([f"benchmark stopped: {exc!r}"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        tally.add([f"metrics not measured: {missing}"])
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale, "host": host_info(), "detail": detail,
              "problems": tally.problems, **summary}
    (base / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale}")
    if "wall_samples" in detail:
        print(f"wall_s samples ({len(detail['wall_samples'])}): "
              + " ".join(f"{w:.3f}" for w in detail["wall_samples"]))
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    for name, entry in summary["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
