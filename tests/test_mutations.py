"""Seeded corruption of every file the command line reads.

Each case corrupts one input of a small mixed corpus with a fixed seed: the
schema, the data CSV, a config file or a saved model.  Text files get
quotes, commas, line ends and NULs inserted, or a few characters deleted;
model files also lose a key or have a value replaced by one of another
type.  ``cli.main`` then runs in-process on the corrupted input, and every
run must return an exit code of 0-3, print at most one ``error:`` line and
raise nothing.
"""

import json

import numpy as np
import pytest

from irtimpute.cli import main
from irtimpute.data import (
    MISSING,
    CategoricalDataset,
    ColumnSchema,
    emit_csv,
    format_schema,
)
from irtimpute.models import Binary2PL, GradedItem, NominalItem
from irtimpute.simulate import simulate_dataset

CASES = 150
INSERTS = ('"', ",", "\n", "\r", "\0", '""', ",,")
RETYPES = (lambda v: [v], str, lambda v: None, lambda v: {"x": v},
           lambda v: 7, lambda v: -1.5)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    items = (Binary2PL(1.2, 0.1, column="b"),
             GradedItem(1.0, (-0.5, 0.6), column="g"),
             NominalItem((0.0, 0.8, 1.5), (0.0, 0.2, -0.3), column="n"))
    base = simulate_dataset(items, 80, seed=3)
    rng = np.random.default_rng(4)
    wear = np.round(base.cells[:, 1] + rng.normal(0.0, 1.0, 80), 3)
    cells = np.column_stack([base.cells, wear, np.arange(80.0)])
    cells[:, :4][rng.random((80, 4)) < 0.1] = MISSING
    schemas = base.schemas + (ColumnSchema("wear", "continuous"),
                              ColumnSchema("id", "nominal", arity=80,
                                           role="id"))
    emit_csv(CategoricalDataset(schemas, cells), root / "d.csv")
    (root / "d.cols").write_text(format_schema(schemas))
    (root / "fit.cfg").write_text(
        f"# small fit\ndata = {root / 'd.csv'}\nschema = {root / 'd.cols'}\n"
        f"out = {root / 'fit.json'}\nmax_iter = 6\ntol = 1e-3\n"
        "grid_size = 21\ngrid_lo = -4\ngrid_hi = 4\nbins = 3\nseed = 1\n")
    assert main(["fit", "--config", str(root / "fit.cfg"),
                 "--out", str(root / "m.json")]) == 0
    return root


def corrupt_text(text: str, rng: np.random.Generator) -> str:
    for _ in range(rng.integers(1, 4)):
        at = int(rng.integers(0, len(text) + 1))
        if rng.random() < 0.7:
            text = text[:at] + INSERTS[rng.integers(len(INSERTS))] + text[at:]
        else:
            text = text[:at] + text[at + int(rng.integers(1, 5)):]
    return text


def json_paths(node, rng: np.random.Generator, path=()) -> list:
    """Paths to the values under ``node``: every key of a dict, one random
    element of a list."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list) and node:
        keys = [int(rng.integers(len(node)))]
    else:
        return []
    return [found for key in keys
            for found in [(*path, key), *json_paths(node[key], rng,
                                                    (*path, key))]]


def corrupt_json(payload, rng: np.random.Generator):
    """Delete a key of ``payload``, or give its value, or a list element's,
    another type."""
    paths = json_paths(payload, rng)
    *parents, key = paths[rng.integers(len(paths))]
    node = payload
    for parent in parents:
        node = node[parent]
    if isinstance(key, str) and rng.random() < 0.3:
        del node[key]
    else:
        node[key] = RETYPES[rng.integers(len(RETYPES))](node[key])
    return payload


def run_clean(argv, capsys) -> str:
    """Run one command; return a failure description, or ''."""
    capsys.readouterr()
    try:
        rc = main([str(token) for token in argv])
    except (Exception, SystemExit) as exc:
        return f"raised {exc!r}"
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if rc not in (0, 1, 2, 3) or len(errors) > 1 or "Traceback" in err:
        return f"exit {rc!r}, stderr {err!r}"
    return ""


@pytest.mark.filterwarnings("ignore:.*stay missing:UserWarning")
@pytest.mark.parametrize("target", ["schema", "csv", "config", "model"])
def test_corrupted_inputs_fail_cleanly(corpus, tmp_path, capsys, target):
    rng = np.random.default_rng(["schema", "csv", "config",
                                 "model"].index(target) + 100)
    paths = {"schema": corpus / "d.cols", "csv": corpus / "d.csv",
             "config": corpus / "fit.cfg", "model": corpus / "m.json"}
    failures = []
    for case in range(CASES):
        mutated = tmp_path / f"mutated-{target}"
        original = paths[target].read_text()
        if target == "model" and rng.random() < 0.8:
            text = json.dumps(corrupt_json(json.loads(original), rng))
        else:
            text = corrupt_text(original, rng)
        mutated.write_text(text, newline="")
        inputs = dict(paths, **{target: mutated})
        common = ["--data", inputs["csv"], "--schema", inputs["schema"]]
        if target == "config":
            commands = [["fit", "--config", inputs["config"]]]
        else:
            commands = [
                ["impute", *common, "--model", inputs["model"],
                 "--out", tmp_path / "out.csv",
                 "--probabilities", tmp_path / "p.csv"],
                ["mcar-test", *common],
            ]
            if target == "csv":
                commands.append(["fit", "--config", inputs["config"],
                                 *common, "--out", tmp_path / "m.json"])
        for argv in commands:
            failure = run_clean(argv, capsys)
            if failure:
                failures.append(f"case {case} {argv[0]}: {text!r:.300}: "
                                f"{failure}")
    assert not failures, "\n".join(failures)
