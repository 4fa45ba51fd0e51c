"""In-memory spans around the calls the CLI makes into each library layer.

Tracing lives in the benchmark, not the program: ``Tracer.patched``
rebinds each traced library function, in every ``irtimpute`` module that
imported it, to a wrapper that records a span.  The CLI's own code then
runs unchanged, and whatever time a command span does not spend in a
library span is the CLI layer's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# (module, function) pairs traced, one span per call; the span is named
# "<module>.<function>".
TRACED = (
    ("data", "load_csv"),
    ("data", "emit_csv"),
    ("data", "discretize_dataset"),
    ("estimation", "fit"),
    ("estimation", "eap_scores"),
    ("impute", "impute_dataset"),
    ("metrics", "score_cells"),
    ("missingness", "inject_mcar"),
    ("missingness", "inject_mar"),
    ("missingness", "littles_test"),
)

# Exact counts read off a traced call's result.
COUNTERS = {
    "estimation.fit": lambda model: {"em_iterations": model.iterations},
    "impute.impute_dataset": lambda result: {
        "cells_imputed": len(result.mask)},
    "missingness.littles_test": lambda result: {
        "patterns": result.n_patterns},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id, {})
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, func):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if count:
                    record.counts = count(result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route every traced library function through a span while active."""
        restore = []
        modules = [module for name, module in list(sys.modules.items())
                   if name.startswith("irtimpute") and module is not None]
        for module_name, attr in TRACED:
            home = importlib.import_module(f"irtimpute.{module_name}")
            original = getattr(home, attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original)
            for module in modules:
                if vars(module).get(attr) is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original in restore:
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus time covered by children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            own = span.end - span.start - covered
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for span in self.spans:
            for key, value in span.counts.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
