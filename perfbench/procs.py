"""Run ``python -m irtimpute.cli`` children one at a time and measure them.

Each child is reaped with ``os.wait4`` so its own CPU time and peak RSS
come back with its exit status.  Children run from the checkout with
``PYTHONPATH=src`` and single-threaded BLAS; a watchdog kills a child that
outlives its time limit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_env(root: Path) -> dict[str, str]:
    """Environment for every child: checkout sources, one BLAS thread."""
    env = dict(os.environ)
    env.pop("IRTIMPUTE_LOG", None)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass(frozen=True)
class Result:
    argv: tuple[str, ...]
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0

    def failure(self) -> str:
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"{' '.join(self.argv[:4])}: exit {self.returncode}: {tail[0]}"


class Runner:
    """Sequential child runner bound to one checkout and one work directory."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = pinned_env(root)

    def run(self, argv: list[str]) -> Result:
        """Run ``python <argv>`` in the work directory and wait for it."""
        full = (sys.executable, *argv)
        limit = max(1.0, self.deadline - time.monotonic())
        out_path = self.work / "child.out"
        err_path = self.work / "child.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(full, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(limit, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(
            argv=tuple(argv),
            returncode=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )

    def cli(self, *args: str) -> Result:
        return self.run(["-m", "irtimpute.cli", *args])
