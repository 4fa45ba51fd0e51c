"""End-to-end command-line runs: exit codes, files written, determinism."""

import ast
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import irtimpute
import irtimpute.cli
from irtimpute import data as data_module
from irtimpute import estimation
from irtimpute.cli import (
    _expand_config,
    _majority_fill,
    _read_config,
    main,
)
from irtimpute.data import (
    MISSING,
    CategoricalDataset,
    ColumnSchema,
    emit_csv,
    emit_probabilities,
    format_schema,
    load_csv,
    load_schema,
)
from irtimpute.errors import NumericalFailure, UsageError
from irtimpute.estimation import FitConfig, fit, load_model, save_model
from irtimpute.simulate import simulate_dataset, simulate_items

from helpers import bench_loop, design_entries, write_probabilities_loop


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small complete dataset with a continuous and an excluded column."""
    root = tmp_path_factory.mktemp("corpus")
    rng = np.random.default_rng(42)
    items = simulate_items("grm", 4, rng, n_categories=3)
    base = simulate_dataset(items, 240, seed=43)
    proxy = base.cells[:, :2].sum(axis=1)
    wear = proxy + rng.normal(0, 1.0, 240)
    wear = np.where(wear == float(MISSING), -0.999, wear)
    flag = (proxy > 2).astype(float)
    schemas = tuple(base.schemas) + (
        ColumnSchema("wear", "continuous"),
        ColumnSchema("flag", "binary", role="excluded"),
    )
    truth = CategoricalDataset(
        schemas, np.column_stack([base.cells, wear, flag]))
    emit_csv(truth, root / "truth.csv")
    (root / "truth.cols").write_text(format_schema(schemas))
    return root


def run(argv):
    return main([str(token) for token in argv])


class TestConfigFiles:
    def test_key_value_lines_become_tokens(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nseed = 3\ngrid_size = 41\n\ntol=1e-5\n")
        assert _read_config(cfg) == [
            "--seed=3", "--grid-size=41", "--tol=1e-5",
        ]

    def test_bad_lines_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(UsageError, match="key = value"):
            _read_config(cfg)
        cfg.write_text("= 3\n")
        with pytest.raises(UsageError, match="empty key"):
            _read_config(cfg)
        with pytest.raises(UsageError, match="cannot read"):
            _read_config(tmp_path / "absent.cfg")

    def test_tokens_splice_after_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        argv = ["fit", "--data", "d.csv", "--config", str(cfg)]
        assert _expand_config(argv) == [
            "fit", "--seed=3", "--data", "d.csv",
        ]

    def test_config_needs_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        with pytest.raises(UsageError, match="subcommand"):
            _expand_config(["--config", str(cfg)])

    def test_values_may_begin_with_a_dash(self, corpus, holed, tmp_path):
        # the holed file with "-" for each missing cell
        dashed = tmp_path / "dashed.csv"
        dashed.write_text("".join(
            ",".join(field or "-" for field in line.split(",")) + "\n"
            for line in holed.read_text().splitlines()))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid-lo = -1e1\nmissing-tokens = -,NA\n")
        assert run(["fit", "--data", dashed, "--schema", corpus / "truth.cols",
                    "--config", cfg, "--out", tmp_path / "a.json"]) == 0
        assert run(["fit", "--data", holed, "--schema", corpus / "truth.cols",
                    "--grid-lo", "-10", "--out", tmp_path / "b.json"]) == 0
        assert load_model(tmp_path / "a.json").grid.nodes[0] == -10.0
        assert ((tmp_path / "a.json").read_bytes()
                == (tmp_path / "b.json").read_bytes())

    def test_explicit_flags_beat_config(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target = item00\nfractions = 0.1\n"
                       "mechanisms = mcar\n")
        rc = run(["bench", "--data", corpus / "truth.csv",
                  "--schema", corpus / "truth.cols", "--config", cfg,
                  "--target", "item01"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "target: item01" in out
        assert "fractions: 0.1" in out

    @pytest.mark.parametrize("tail, message", [
        (["--config"], "--config needs a file path"),
        # the file's value reaches the parser
        (["--config={cfg}"], "argument --max-iter: invalid int value: 'x'"),
    ], ids=["config-without-path", "config-one-token"])
    def test_input_checks(self, tmp_path, capsys, tail, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = x\n")
        rc = run(["fit", *(token.format(cfg=cfg) for token in tail)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: usage: {message}\n"


class TestExitCodes:
    @pytest.mark.parametrize("flags", [
        ("--out", "--probabilities"),
        ("--save-model", "--out"),
        ("--probabilities", "--save-model"),
    ])
    def test_impute_outputs_name_different_files(self, corpus, holed,
                                                 tmp_path, capsys, flags):
        target = tmp_path / "f.csv"
        target.write_text("previous\n")
        argv = ["impute", "--data", holed, "--schema", corpus / "truth.cols",
                "--out", tmp_path / "other.csv"]
        for flag in flags:
            argv += [flag, target if flag == flags[0]
                     else Path(os.path.relpath(target))]
        capsys.readouterr()
        rc = run(argv)
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: usage: ")
        assert target.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv"]

    def test_config_value_with_nul_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nout = m\0.json\n")
        rc = run(["fit", "--config", cfg, "--data", "d.csv",
                  "--schema", "d.cols"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: usage: {cfg}:2: NUL character\n")

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error: usage:" in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["fit", "--data", "d.csv"]) == 1
        assert "required" in capsys.readouterr().err

    def test_absent_data_file_is_data_error(self, corpus, tmp_path, capsys):
        rc = run(["fit", "--data", tmp_path / "nope.csv",
                  "--schema", corpus / "truth.cols",
                  "--out", tmp_path / "m.json"])
        assert rc == 2
        assert "error: data:" in capsys.readouterr().err

    def test_bad_label_is_data_error(self, corpus, tmp_path):
        bad = tmp_path / "bad.csv"
        lines = (corpus / "truth.csv").read_text().splitlines()
        lines[1] = lines[1].replace(lines[1].split(",")[0], "7", 1)
        bad.write_text("\n".join(lines) + "\n")
        rc = run(["fit", "--data", bad, "--schema", corpus / "truth.cols",
                  "--out", tmp_path / "m.json"])
        assert rc == 2

    @pytest.mark.parametrize("grid_range", [("-1e200", "1e200"),
                                            ("1e300", "1.0000001e300")])
    def test_too_wide_a_grid_prints_one_line(self, corpus, tmp_path,
                                             grid_range):
        # in a child process, where numpy's warnings would print too
        src = str(Path(irtimpute.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "irtimpute.cli", "fit",
             "--data", str(corpus / "truth.csv"),
             "--schema", str(corpus / "truth.cols"),
             f"--grid-lo={grid_range[0]}", f"--grid-hi={grid_range[1]}",
             "--out", str(tmp_path / "m.json")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == ("error: data: grid weights must be strictly "
                               "positive\n")

    def test_numerical_failure_maps_to_three(self, corpus, tmp_path,
                                             monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise NumericalFailure("synthetic blow-up")
        monkeypatch.setattr("irtimpute.cli.fit", explode)
        rc = run(["fit", "--data", corpus / "truth.csv",
                  "--schema", corpus / "truth.cols",
                  "--out", tmp_path / "m.json"])
        assert rc == 3
        assert "error: numerical:" in capsys.readouterr().err


class TestInject:
    def test_mcar_count_and_reload(self, corpus, tmp_path, capsys):
        out = tmp_path / "holed.csv"
        rc = run(["inject", "--data", corpus / "truth.csv",
                  "--schema", corpus / "truth.cols", "--target", "item02",
                  "--fraction", "0.25", "--mechanism", "mcar",
                  "--seed", "5", "--out", out])
        assert rc == 0
        assert "removed 60 cells" in capsys.readouterr().out
        schemas = load_schema(corpus / "truth.cols")
        holed = load_csv(out, schemas)
        assert int((holed.cells[:, 2] == MISSING).sum()) == 60

    def test_mar_reruns_identically(self, corpus, tmp_path):
        args = ["inject", "--data", corpus / "truth.csv",
                "--schema", corpus / "truth.cols", "--target", "item02",
                "--fraction", "0.2", "--mechanism", "mar",
                "--conditional", "item00"]
        assert run(args + ["--out", tmp_path / "a.csv"]) == 0
        assert run(args + ["--out", tmp_path / "b.csv"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_mechanism_flag_exclusivity(self, corpus, tmp_path, capsys):
        base = ["inject", "--data", corpus / "truth.csv",
                "--schema", corpus / "truth.cols", "--target", "item02",
                "--fraction", "0.2", "--out", tmp_path / "x.csv"]
        assert run(base + ["--mechanism", "mcar"]) == 1          # no seed
        assert run(base + ["--mechanism", "mcar", "--seed", "1",
                           "--conditional", "item00"]) == 1
        assert run(base + ["--mechanism", "mar",
                           "--conditional", "item00", "--seed", "1"]) == 1
        assert run(base + ["--mechanism", "mar"]) == 1           # no cond
        capsys.readouterr()

    @pytest.mark.parametrize("fraction", ["2", "0", "nan"])
    def test_fraction_outside_unit_interval_is_usage_error(
            self, corpus, tmp_path, capsys, fraction):
        capsys.readouterr()
        rc = run(["inject", "--data", corpus / "truth.csv",
                  "--schema", corpus / "truth.cols", "--target", "item02",
                  "--fraction", fraction, "--mechanism", "mcar",
                  "--seed", "1", "--out", tmp_path / "x.csv"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: usage: --fraction must lie in (0, 1)\n")
        assert not (tmp_path / "x.csv").exists()

    def test_conditional_equal_to_target_is_usage_error(self, corpus,
                                                        tmp_path, capsys):
        capsys.readouterr()
        rc = run(["inject", "--data", tmp_path / "never-read.csv",
                  "--schema", corpus / "truth.cols", "--target", "item02",
                  "--fraction", "0.2", "--mechanism", "mar",
                  "--conditional", "item02", "--out", tmp_path / "x.csv"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: usage: --conditional must differ from --target\n")
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_target_fails_before_reading_data(self, corpus, tmp_path):
        rc = run(["inject", "--data", tmp_path / "never-read.csv",
                  "--schema", corpus / "truth.cols", "--target", "ghost",
                  "--fraction", "0.2", "--mechanism", "mcar", "--seed", "1",
                  "--out", tmp_path / "x.csv"])
        assert rc == 1


@pytest.fixture(scope="module")
def holed(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("holed")
    out = root / "holed.csv"
    rc = main(["inject", "--data", str(corpus / "truth.csv"),
               "--schema", str(corpus / "truth.cols"), "--target", "item02",
               "--fraction", "0.25", "--mechanism", "mcar", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    return out


class TestFitCommand:
    def test_model_file_reloads_and_reports(self, corpus, holed, tmp_path,
                                            capsys):
        out = tmp_path / "model.json"
        rc = run(["fit", "--data", holed, "--schema", corpus / "truth.cols",
                  "--out", out])
        assert rc == 0
        assert "converged: yes" in capsys.readouterr().out
        model = load_model(out)
        # 4 ordinal items plus the auto-discretized continuous column;
        # the excluded column must not be modeled
        assert [item.column for item in model.items] == [
            "item00", "item01", "item02", "item03", "wear",
        ]

    def test_rerun_is_byte_identical(self, corpus, holed, tmp_path):
        args = ["fit", "--data", holed, "--schema", corpus / "truth.cols",
                "--seed", "9"]
        assert run(args + ["--out", tmp_path / "a.json"]) == 0
        assert run(args + ["--out", tmp_path / "b.json"]) == 0
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_defaults_are_the_librarys(self, corpus, holed, tmp_path):
        # fit with no fit flags against the library pipeline at its own
        # defaults, on data with blanks and a continuous column
        out = tmp_path / "cli.json"
        assert run(["fit", "--data", holed, "--schema", corpus / "truth.cols",
                    "--out", out]) == 0
        save_model(fit(load_csv(holed, load_schema(corpus / "truth.cols")),
                       FitConfig()), tmp_path / "library.json")
        assert (tmp_path / "library.json").read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("bins", ["1", "0", "-3"])
    def test_bins_below_two_is_data_error(self, tmp_path, capsys, bins):
        # refused even when no column is continuous
        items = simulate_items("grm", 3, np.random.default_rng(5),
                               n_categories=3)
        data = simulate_dataset(items, 400, seed=6)
        emit_csv(data, tmp_path / "d.csv")
        (tmp_path / "d.cols").write_text(format_schema(data.schemas))
        capsys.readouterr()
        rc = run(["fit", "--data", tmp_path / "d.csv",
                  "--schema", tmp_path / "d.cols", f"--bins={bins}",
                  "--out", tmp_path / "m.json"])
        assert rc == 2
        assert capsys.readouterr().err == "error: data: bins must be >= 2\n"
        assert not (tmp_path / "m.json").exists()

    def test_library_save_reproduces_cli_model_file(self, corpus, holed,
                                                   tmp_path):
        out = tmp_path / "model.json"
        assert run(["fit", "--data", holed, "--schema", corpus / "truth.cols",
                    "--out", out]) == 0
        model = load_model(out)
        assert [m.column for m in model.discretization] == ["wear"]
        again = tmp_path / "again.json"
        save_model(model, again)
        assert again.read_bytes() == out.read_bytes()

    def test_model_file_independent_of_blas_thread_count(self, tmp_path):
        rng = np.random.default_rng(71)
        items = (simulate_items("2pl", 2, rng, name_prefix="b")
                 + simulate_items("grm", 2, rng, n_categories=4,
                                  name_prefix="g")
                 + simulate_items("nrm", 2, rng, n_categories=3,
                                  name_prefix="n"))
        data = simulate_dataset(items, 300, seed=72)
        cells = data.cells.copy()
        cells[rng.uniform(size=cells.shape) < 0.15] = MISSING
        emit_csv(data.with_cells(cells), tmp_path / "d.csv")
        (tmp_path / "d.cols").write_text(format_schema(data.schemas))
        src = str(Path(irtimpute.__file__).resolve().parents[1])
        models = []
        for threads in ("1", "2"):
            out = tmp_path / f"model-{threads}.json"
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "irtimpute.cli", "fit",
                 "--data", str(tmp_path / "d.csv"),
                 "--schema", str(tmp_path / "d.cols"), "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=60)
            models.append(out.read_bytes())
        assert models[0] == models[1]


def test_cli_imports_no_private_name():
    tree = ast.parse(Path(irtimpute.cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names and not [name for name in names if name.startswith("_")]


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats takes most of a CLI start-up; no command needs it
    src = str(Path(irtimpute.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, irtimpute.cli; print('scipy.stats' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True, timeout=60)
    assert out.stdout == "False\n"


def test_cli_import_leaves_out_scipy():
    # only the fit's sparse E-step loads scipy, when it runs
    src = str(Path(irtimpute.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, irtimpute.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True, timeout=60)
    assert out.stdout == "[]\n"


def loaded_by(argv, package="scipy") -> tuple[list[str], list[str]]:
    """Run ``main(argv)`` in a child process, which must exit 0; return its
    stdout lines and the modules of ``package`` it loaded."""
    src = str(Path(irtimpute.__file__).resolve().parents[1])
    argv = [str(token) for token in argv]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from irtimpute.cli import main; "
         f"rc = main({argv!r}); "
         "print(rc, sorted(m for m in sys.modules "
         f"if (m + '.').startswith({package + '.'!r})))"],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True, timeout=60)
    lines = out.stdout.splitlines()
    rc, loaded = lines[-1].split(" ", 1)
    assert rc == "0"
    return lines[:-1], ast.literal_eval(loaded)


class TestScipyImports:
    """Only the fit's sparse E-step imports scipy, and only scipy.sparse."""

    def test_applying_a_model_loads_no_scipy(self, corpus, holed, tmp_path):
        model, filled = tmp_path / "model.json", tmp_path / "filled.csv"
        cols = corpus / "truth.cols"
        assert run(["fit", "--data", holed, "--schema", cols,
                    "--out", model]) == 0
        for argv in (["impute", "--data", holed, "--schema", cols,
                      "--model", model, "--out", filled,
                      "--probabilities", tmp_path / "probs.csv"],
                     ["evaluate", "--truth", corpus / "truth.csv",
                      "--with-missing", holed, "--imputed", filled,
                      "--schema", cols]):
            _, loaded = loaded_by(argv)
            assert loaded == [], argv[0]

    def test_fitting_loads_only_scipy_sparse(self, corpus, holed, tmp_path):
        cols = corpus / "truth.cols"
        for argv in (["fit", "--data", holed, "--schema", cols,
                      "--out", tmp_path / "model.json"],
                     ["impute", "--data", holed, "--schema", cols,
                      "--out", tmp_path / "filled.csv"],
                     ["bench", "--data", corpus / "truth.csv", "--schema", cols,
                      "--target", "item02", "--mechanisms", "mcar",
                      "--fractions", "0.2", "--out", tmp_path / "r.txt"]):
            _, loaded = loaded_by(argv)
            assert "scipy.sparse" in loaded, argv[0]
            assert not [m for m in loaded if m.startswith("scipy.special")], \
                argv[0]


def test_applying_a_model_loads_no_numpy_ma(corpus, holed, tmp_path):
    # np.unique without return_* loads numpy.ma, 15 ms of a start-up
    cols = corpus / "truth.cols"
    assert run(["fit", "--data", holed, "--schema", cols,
                "--out", tmp_path / "model.json"]) == 0
    for argv in (["impute", "--data", holed, "--schema", cols,
                  "--model", tmp_path / "model.json",
                  "--out", tmp_path / "filled.csv"],
                 ["mcar-test", "--data", holed, "--schema", cols]):
        _, loaded = loaded_by(argv, "numpy.ma")
        assert loaded == [], argv[0]


class TestDataErrorBoundary:
    """Unreadable, unwritable or malformed files exit 2 with one line."""

    @pytest.fixture
    def model_file(self, corpus, holed, tmp_path):
        out = tmp_path / "model.json"
        assert run(["fit", "--data", holed, "--schema", corpus / "truth.cols",
                    "--out", out]) == 0
        return out

    @staticmethod
    def assert_one_data_error(rc, capsys):
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: data: ")

    @pytest.mark.parametrize("corrupt", [
        lambda payload: payload["items"][0].update(a="oops"),
        lambda payload: payload["items"][0].update(boundaries=5),
        lambda payload: payload["discretization"][0].pop("cuts"),
        lambda payload: payload["items"][0].update(column=["item00"]),
        lambda payload: payload["discretization"][0]["labels"].__setitem__(
            0, ["q1"]),
        # each field takes only the JSON type its annotation declares
        lambda payload: payload.update(converged="no"),
        lambda payload: payload.update(iterations=2.7),
        lambda payload: payload.update(iterations=True),
        lambda payload: payload.update(final_loglik="-12.5"),
        lambda payload: payload.update(loglik_trace=["1", "2"]),
        lambda payload: payload.update(clamp_events=[1, 2]),
        lambda payload: payload["items"][0].update(a=True),
        lambda payload: payload["items"][0].update(boundaries="01"),
        lambda payload: payload["grid"]["nodes"].__setitem__(0, 10**400),
        # a NaN fails every range check
        lambda payload: payload["grid"]["nodes"].__setitem__(3, math.nan),
        lambda payload: payload["grid"]["weights"].__setitem__(3, math.nan),
        lambda payload: payload["discretization"][0]["cuts"].__setitem__(
            0, math.nan),
    ], ids=["slope-string", "boundaries-number", "cuts-missing",
            "column-list", "label-list", "converged-string",
            "iterations-float", "iterations-bool", "loglik-string",
            "trace-strings", "events-numbers", "slope-bool",
            "boundaries-string", "node-huge-int", "node-nan", "weight-nan",
            "cut-nan"])
    def test_corrupted_model_file(self, corpus, holed, model_file, tmp_path,
                                  capsys, corrupt):
        payload = json.loads(model_file.read_text())
        corrupt(payload)
        model_file.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = run(["impute", "--data", holed, "--schema", corpus / "truth.cols",
                  "--model", model_file, "--out", tmp_path / "out.csv"])
        self.assert_one_data_error(rc, capsys)

    def test_field_over_csv_limit(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        lines = (corpus / "truth.csv").read_text().splitlines()
        lines[2] = lines[2] + ',"' + "x" * 200_000 + '"'
        bad.write_text("\n".join(lines) + "\n")
        rc = run(["mcar-test", "--data", bad,
                  "--schema", corpus / "truth.cols"])
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {bad}:3: field larger than "
                              "field limit")
        assert len(err.splitlines()) == 1
        assert rc == 2

    def test_data_file_not_utf8(self, corpus, tmp_path, capsys):
        text = (corpus / "truth.csv").read_bytes()
        bad = tmp_path / "bad.csv"
        bad.write_bytes(text + b"\xff\xfe\n")
        rc = run(["mcar-test", "--data", bad, "--schema", corpus / "truth.cols"])
        row = text.count(b"\n") + 1  # a record after the last line
        assert capsys.readouterr().err == (
            f"error: data: {bad}:{row}: 'utf-8' codec can't decode byte 0xff "
            f"in position {len(text)}: invalid start byte\n")
        assert rc == 2

    @pytest.mark.parametrize("row, field", [(0, 0), (1, 0), (1, 4)],
                             ids=["header", "label", "continuous"])
    def test_invalid_utf8_is_one_data_error(self, corpus, tmp_path, capsys,
                                            row, field):
        lines = (corpus / "truth.csv").read_bytes().split(b"\r\n")
        fields = lines[row].split(b",")
        fields[field] += b"\xc3"
        lines[row] = b",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\r\n".join(lines))
        capsys.readouterr()
        rc = run(["mcar-test", "--data", bad, "--schema", corpus / "truth.cols"])
        assert capsys.readouterr().err.startswith(
            f"error: data: {bad}:{row + 1}: 'utf-8' codec can't decode byte "
            "0xc3 in position ")
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--schema", "--config"])
    def test_schema_or_config_not_utf8(self, corpus, tmp_path, capsys, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xef\xbb\xbf" + (corpus / "truth.cols").read_bytes()
                        + b"\xff")
        argv = ["mcar-test", "--data", corpus / "truth.csv",
                "--schema", corpus / "truth.cols", flag, bad]
        capsys.readouterr()
        assert run(argv) == 2
        # the position counts from the file's first byte
        assert capsys.readouterr().err == (
            f"error: data: {bad}: 'utf-8' codec can't decode byte 0xff in "
            f"position {bad.stat().st_size - 1}: invalid start byte\n")

    def test_unwritable_model_out(self, corpus, holed, tmp_path, capsys):
        rc = run(["fit", "--data", holed, "--schema", corpus / "truth.cols",
                  "--out", tmp_path / "absent-dir" / "m.json"])
        self.assert_one_data_error(rc, capsys)

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "nan", "tolerance must be positive"),
        ("--grid-hi", "inf", "invalid grid range [-6.0, inf]"),
    ])
    def test_non_finite_fit_option(self, corpus, holed, tmp_path, capsys,
                                   flag, value, message):
        rc = run(["fit", "--data", holed, "--schema", corpus / "truth.cols",
                  flag, value, "--out", tmp_path / "m.json"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: data: {message}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command, flags", [
        ("fit", []),
        ("impute", []),
        ("inject", ["--target", "item02", "--fraction", "0.1",
                    "--mechanism", "mcar"]),
        ("bench", ["--target", "item02", "--mechanisms", "mcar"]),
    ])
    def test_negative_seed(self, corpus, holed, tmp_path, capsys, command,
                           flags):
        data = holed if command in ("fit", "impute") else corpus / "truth.csv"
        out = tmp_path / "out"
        rc = run([command, "--data", data, "--schema", corpus / "truth.cols",
                  "--seed", "-1", "--out", out, *flags])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: data: seed must be nonnegative\n")
        assert not out.exists()

    def test_model_must_bind_the_feature_columns(self, corpus, holed,
                                                 model_file, tmp_path,
                                                 capsys):
        # the model was fitted with item01 as a feature
        schema = tmp_path / "excluded.cols"
        schema.write_text((corpus / "truth.cols").read_text().replace(
            "item01: ordinal arity=3", "item01: ordinal arity=3 "
                                       "role=excluded"))
        capsys.readouterr()
        rc = run(["impute", "--data", holed, "--schema", schema,
                  "--model", model_file, "--out", tmp_path / "out.csv",
                  "--probabilities", tmp_path / "p.csv"])
        self.assert_one_data_error(rc, capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "excluded.cols", "model.json"]

    def test_grid_smaller_than_eleven_nodes(self, corpus, holed, tmp_path,
                                           capsys):
        rc = run(["fit", "--data", holed, "--schema", corpus / "truth.cols",
                  "--grid-size", 5, "--out", tmp_path / "m.json"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: data: grid size must be at least 11\n")
        assert not (tmp_path / "m.json").exists()

    def test_unwritable_probabilities(self, corpus, holed, model_file,
                                      tmp_path, capsys):
        capsys.readouterr()
        rc = run(["impute", "--data", holed, "--schema", corpus / "truth.cols",
                  "--model", model_file, "--out", tmp_path / "out.csv",
                  "--probabilities", tmp_path / "absent-dir" / "p.csv"])
        self.assert_one_data_error(rc, capsys)
        assert not list(tmp_path.glob("*.tmp"))
        # the completed CSV is replaced together with its sidecar or not
        # at all
        assert not (tmp_path / "out.csv").exists()

    def test_unwritable_probabilities_keep_old_out(self, corpus, holed,
                                                   model_file, tmp_path,
                                                   capsys):
        out = tmp_path / "out.csv"
        out.write_text("previous\n")
        capsys.readouterr()
        rc = run(["impute", "--data", holed, "--schema", corpus / "truth.cols",
                  "--model", model_file, "--out", out,
                  "--probabilities", tmp_path / "absent-dir" / "p.csv"])
        self.assert_one_data_error(rc, capsys)
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.json", "out.csv"]

    def test_failed_model_write_keeps_old_file(self, corpus, holed, tmp_path,
                                               capsys, monkeypatch):
        out = tmp_path / "m.json"
        out.write_text("previous\n")

        def dump_half(payload, handle, **kwargs):
            handle.write("{")
            raise OSError("disk gone")

        monkeypatch.setattr("irtimpute.estimation.json.dump", dump_half)
        rc = run(["fit", "--data", holed, "--schema", corpus / "truth.cols",
                  "--out", out])
        self.assert_one_data_error(rc, capsys)
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    @pytest.mark.parametrize("command, out", [
        ("fit", "m.json"), ("impute", "x.csv")])
    def test_write_error_names_the_given_path(self, corpus, holed, tmp_path,
                                              capsys, command, out):
        target = tmp_path / "absent-dir" / out
        capsys.readouterr()
        rc = run([command, "--data", holed, "--schema", corpus / "truth.cols",
                  "--out", target])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: data: [Errno 2] No such file or directory: "
            f"'{target}'\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_impute_keeps_the_saved_model(self, corpus, holed,
                                                 tmp_path, capsys):
        # the model file is replaced together with the completed CSV
        saved = tmp_path / "m.json"
        argv = ["impute", "--data", holed, "--schema", corpus / "truth.cols",
                "--save-model", saved,
                "--out", tmp_path / "absent-dir" / "x.csv"]
        capsys.readouterr()
        self.assert_one_data_error(run(argv), capsys)
        assert list(tmp_path.iterdir()) == []
        saved.write_text("previous\n")
        self.assert_one_data_error(run(argv), capsys)
        assert saved.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    def test_label_equal_to_a_missing_token(self, tmp_path, capsys):
        (tmp_path / "d.cols").write_text("c: nominal labels=-1|0|1\n")
        (tmp_path / "d.csv").write_text("c\n-1\n0\n1\n-1\n")
        argv = ["inject", "--data", tmp_path / "d.csv",
                "--schema", tmp_path / "d.cols", "--target", "c",
                "--fraction", "0.25", "--mechanism", "mcar", "--seed", "1",
                "--out", tmp_path / "out.csv"]
        capsys.readouterr()
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err == ("error: data: column 'c': label '-1' is a missing "
                       "token\n")
        assert not (tmp_path / "out.csv").exists()
        assert run(argv + ["--missing-tokens", ""]) == 0
        # one of the four cells is blanked, written "" as a lone empty
        # field; the -1 labels are kept
        cells = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert cells.count('""') == 1 and "-1" in cells


class TestProbabilitySidecar:
    def test_matches_reference_over_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_module, "_BLOCK", 5)
        schemas = (ColumnSchema("b", "binary"),
                   ColumnSchema("ord", "ordinal", arity=4),
                   ColumnSchema("z", "continuous"),
                   ColumnSchema("n", "nominal", arity=3))
        view = CategoricalDataset(schemas, np.zeros((40, 4)))
        rng = np.random.default_rng(11)
        for n_cells in (0, 1, 5, 23):
            rows = np.sort(rng.choice(40, size=n_cells, replace=False))
            cols = rng.choice([0, 1, 3], size=n_cells)
            arity = np.array([2, 4, 0, 3])[cols]
            probs = rng.dirichlet(np.ones(4), size=n_cells)
            probs[np.arange(4) >= arity[:, None]] = np.nan
            result = SimpleNamespace(mask=np.column_stack([rows, cols]),
                                     probabilities=probs.reshape(n_cells, 4))
            emit_probabilities(view, result.mask, result.probabilities,
                               tmp_path / "new.csv")
            write_probabilities_loop(tmp_path / "old.csv", view, result)
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "old.csv").read_bytes())


class TestImputeCommand:
    def test_saved_model_round_trip_completes_target(self, corpus, holed,
                                                     tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", holed,
                    "--schema", corpus / "truth.cols", "--out", model]) == 0
        out = tmp_path / "completed.csv"
        rc = run(["impute", "--data", holed,
                  "--schema", corpus / "truth.cols", "--model", model,
                  "--out", out, "--probabilities", tmp_path / "probs.csv"])
        assert rc == 0
        assert "imputed 60 cells" in capsys.readouterr().out
        schemas = load_schema(corpus / "truth.cols")
        completed = load_csv(out, schemas)
        assert not np.any(completed.cells[:, 2] == MISSING)
        sidecar = (tmp_path / "probs.csv").read_text().splitlines()
        assert sidecar[0] == "case,column,p0,p1,p2"
        assert len(sidecar) == 61
        assert all(line.split(",")[1] == "item02" for line in sidecar[1:])

    def test_fit_and_impute_matches_two_step(self, corpus, holed, tmp_path):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", holed,
                    "--schema", corpus / "truth.cols", "--out", model]) == 0
        two_step = tmp_path / "two.csv"
        assert run(["impute", "--data", holed,
                    "--schema", corpus / "truth.cols", "--model", model,
                    "--out", two_step]) == 0
        one_step = tmp_path / "one.csv"
        saved = tmp_path / "saved.json"
        assert run(["impute", "--data", holed,
                    "--schema", corpus / "truth.cols", "--out", one_step,
                    "--save-model", saved]) == 0
        assert one_step.read_bytes() == two_step.read_bytes()
        assert saved.read_bytes() == model.read_bytes()

    def test_complete_input_passes_through(self, corpus, tmp_path, capsys):
        out = tmp_path / "unchanged.csv"
        rc = run(["impute", "--data", corpus / "truth.csv",
                  "--schema", corpus / "truth.cols", "--out", out])
        assert rc == 0
        assert "imputed 0 cells" in capsys.readouterr().out
        assert out.read_bytes() == (corpus / "truth.csv").read_bytes()

    def test_header_only_file_with_a_model(self, corpus, holed, tmp_path,
                                           capsys):
        model = tmp_path / "model.json"
        assert run(["fit", "--data", holed,
                    "--schema", corpus / "truth.cols", "--out", model]) == 0
        header = tmp_path / "header.csv"
        header.write_bytes(holed.read_bytes().splitlines(keepends=True)[0])
        out = tmp_path / "filled.csv"
        capsys.readouterr()
        rc = run(["impute", "--data", header,
                  "--schema", corpus / "truth.cols", "--model", model,
                  "--out", out, "--probabilities", tmp_path / "probs.csv"])
        assert rc == 0
        assert "imputed 0 cells" in capsys.readouterr().out
        assert out.read_bytes() == header.read_bytes()

    def test_model_flag_conflicts_with_fit_flags(self, corpus, holed,
                                                 tmp_path, capsys):
        rc = run(["impute", "--data", holed,
                  "--schema", corpus / "truth.cols",
                  "--model", tmp_path / "m.json", "--seed", "4",
                  "--out", tmp_path / "c.csv"])
        assert rc == 1
        assert "--seed" in capsys.readouterr().err

    def test_missing_continuous_cells_stay_missing(self, corpus, tmp_path,
                                                   capsys):
        holed = tmp_path / "wear-holed.csv"
        assert run(["inject", "--data", corpus / "truth.csv",
                    "--schema", corpus / "truth.cols", "--target", "wear",
                    "--fraction", "0.1", "--mechanism", "mcar",
                    "--seed", "2", "--out", holed]) == 0
        capsys.readouterr()
        out = tmp_path / "completed.csv"
        with pytest.warns(UserWarning, match="stay missing"):
            rc = run(["impute", "--data", holed,
                      "--schema", corpus / "truth.cols", "--out", out])
        assert rc == 0
        schemas = load_schema(corpus / "truth.cols")
        completed = load_csv(out, schemas)
        wear = completed.column_values("wear")
        assert int((wear == MISSING).sum()) == 24


def test_warning_prints_one_line(corpus, tmp_path):
    holed = tmp_path / "wear-holed.csv"
    assert run(["inject", "--data", corpus / "truth.csv",
                "--schema", corpus / "truth.cols", "--target", "wear",
                "--fraction", "0.1", "--mechanism", "mcar",
                "--seed", "2", "--out", holed]) == 0
    src = str(Path(irtimpute.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "irtimpute.cli", "impute", "--data", str(holed),
         "--schema", str(corpus / "truth.cols"), "--max-iter", "3",
         "--out", str(tmp_path / "completed.csv")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ("warning: 24 missing continuous cells stay "
                           "missing: the model imputes their bins, not "
                           "their values\n")


class TestEvaluateCommand:
    def test_scores_the_blanked_cells(self, corpus, holed, tmp_path, capsys):
        completed = tmp_path / "completed.csv"
        assert run(["impute", "--data", holed,
                    "--schema", corpus / "truth.cols",
                    "--out", completed]) == 0
        capsys.readouterr()
        rc = run(["evaluate", "--truth", corpus / "truth.csv",
                  "--with-missing", holed, "--imputed", completed,
                  "--schema", corpus / "truth.cols"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "imputed cells: 60" in out
        assert "macro F1:" in out
        accuracy = float(out.splitlines()[1].split(": ")[1])
        assert 0.0 <= accuracy <= 1.0

    def test_row_count_mismatch_rejected(self, corpus, holed, tmp_path):
        short = tmp_path / "short.csv"
        lines = (corpus / "truth.csv").read_text().splitlines()
        short.write_text("\n".join(lines[:-5]) + "\n")
        rc = run(["evaluate", "--truth", short, "--with-missing", holed,
                  "--imputed", corpus / "truth.csv",
                  "--schema", corpus / "truth.cols"])
        assert rc == 2

    @staticmethod
    def impute_and_evaluate(schema, truth, holed, tmp_path, capsys):
        """Fill ``holed`` and score it against ``truth``: the exit code,
        stdout and the warnings raised."""
        completed = tmp_path / "completed.csv"
        assert run(["impute", "--data", holed, "--schema", schema,
                    "--out", completed]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["evaluate", "--truth", truth, "--with-missing", holed,
                      "--imputed", completed, "--schema", schema])
        return rc, capsys.readouterr().out, caught

    def test_outcome_missing_in_the_truth_is_not_scored(self, corpus,
                                                        tmp_path, capsys):
        # the excluded outcome misses 20 rows in the truth and in the
        # holed file; only item02's 60 blanked cells are filled and scored
        schemas = load_schema(corpus / "truth.cols")
        truth = load_csv(corpus / "truth.csv", schemas)
        cells = np.array(truth.cells)
        cells[::12, truth.column_index("flag")] = MISSING
        gaps = tmp_path / "gaps.csv"
        emit_csv(truth.with_cells(cells), gaps)
        holed = tmp_path / "holed.csv"
        assert run(["inject", "--data", gaps,
                    "--schema", corpus / "truth.cols", "--target", "item02",
                    "--fraction", "0.25",
                    "--mechanism", "mcar", "--seed", "5", "--out", holed]) == 0
        rc, out, caught = self.impute_and_evaluate(
            corpus / "truth.cols", gaps, holed, tmp_path, capsys)
        assert rc == 0
        assert [str(w.message) for w in caught] == []
        assert "imputed cells: 60" in out

    def test_blanked_cell_missing_in_the_truth_is_warned(self, corpus, holed,
                                                         tmp_path, capsys):
        # the truth lacks one of item02's 60 blanked cells: it is filled
        # but cannot be scored
        schema = corpus / "truth.cols"
        schemas = load_schema(schema)
        truth = load_csv(corpus / "truth.csv", schemas)
        j = truth.column_index("item02")
        blanked = load_csv(holed, schemas).cells[:, j] == MISSING
        cells = np.array(truth.cells)
        cells[np.flatnonzero(blanked)[0], j] = MISSING
        gaps = tmp_path / "gaps.csv"
        emit_csv(truth.with_cells(cells), gaps)
        completed = tmp_path / "completed.csv"
        assert run(["impute", "--data", holed, "--schema", schema,
                    "--out", completed]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            # show each warning as a user sees it, in main's format
            warnings.showwarning = lambda *args, **_: sys.stderr.write(
                warnings.formatwarning(*args[:4]))
            rc = run(["evaluate", "--truth", gaps, "--with-missing", holed,
                      "--imputed", completed, "--schema", schema])
        out, err = capsys.readouterr()
        assert rc == 0
        assert err == ("warning: 1 blanked cells are missing in the truth too "
                       "and cannot be scored\n")
        assert "imputed cells: 59" in out

    def test_blanked_excluded_column_is_not_scored(self, corpus, holed,
                                                   tmp_path, capsys):
        both = tmp_path / "both.csv"
        assert run(["inject", "--data", holed,
                    "--schema", corpus / "truth.cols", "--target", "flag",
                    "--fraction", "0.1",
                    "--mechanism", "mcar", "--seed", "3", "--out", both]) == 0
        rc, out, _ = self.impute_and_evaluate(
            corpus / "truth.cols", corpus / "truth.csv", both, tmp_path,
            capsys)
        assert rc == 0
        assert "imputed cells: 60" in out


class TestMcarTestCommand:
    def test_reports_on_mcar_data(self, corpus, holed, capsys):
        rc = run(["mcar-test", "--data", holed,
                  "--schema", corpus / "truth.cols"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("Little's MCAR test\n")
        fields = dict(line.split(": ") for line in out.splitlines()[1:])
        assert float(fields["statistic"]) >= 0.0
        assert int(fields["patterns"]) == 2
        assert 0.0 <= float(fields["p-value"]) <= 1.0

    def test_leaves_out_scipy_sparse(self, corpus, holed):
        # Little's test works on dense arrays and sums its own χ² tail
        lines, loaded = loaded_by(
            ["mcar-test", "--data", holed, "--schema", corpus / "truth.cols"])
        assert lines[0] == "Little's MCAR test"
        assert loaded == []

    def test_complete_data_is_single_pattern(self, corpus, capsys):
        rc = run(["mcar-test", "--data", corpus / "truth.csv",
                  "--schema", corpus / "truth.cols"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "patterns: 1" in out
        assert "p-value: 1" in out

    def test_singular_covariance_exits_three(self, tmp_path, capsys):
        # column c is always code 0, and rows 0-4 observe only c
        rng = np.random.default_rng(8)
        schemas = tuple(ColumnSchema(name, "binary") for name in "abc")
        cells = np.column_stack([rng.integers(0, 2, (60, 2)),
                                 np.zeros(60)]).astype(float)
        cells[:5, :2] = MISSING
        cells[5:20, 0] = MISSING
        emit_csv(CategoricalDataset(schemas, cells), tmp_path / "d.csv")
        (tmp_path / "d.cols").write_text(format_schema(schemas))
        rc = run(["mcar-test", "--data", tmp_path / "d.csv",
                  "--schema", tmp_path / "d.cols"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "Traceback" not in err
        assert err.splitlines() == [
            "error: numerical: EM step: observed-block covariance is "
            "singular even after ridge regularization"]

    def test_overflowing_moments_exit_three(self, tmp_path, capsys):
        # the squares of values near 1e200 overflow the EM's moment sums
        rng = np.random.default_rng(0)
        w = rng.normal(size=40) * 1e200
        w[rng.random(40) < 0.25] = MISSING
        schemas = (ColumnSchema("w", "continuous"),
                   ColumnSchema("u", "binary"))
        emit_csv(CategoricalDataset(schemas, np.column_stack(
            [w, rng.integers(0, 2, 40)])), tmp_path / "d.csv")
        (tmp_path / "d.cols").write_text(format_schema(schemas))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["mcar-test", "--data", tmp_path / "d.csv",
                      "--schema", tmp_path / "d.cols"])
        err = capsys.readouterr().err
        assert rc == 3
        assert [str(w.message) for w in caught] == []
        assert "warning:" not in err
        assert err.splitlines() == [
            "error: numerical: EM step: the covariance overflows; rescale "
            "the columns"]


class TestBenchCommand:
    def test_report_shape_and_determinism(self, corpus, tmp_path):
        args = ["bench", "--data", corpus / "truth.csv",
                "--schema", corpus / "truth.cols", "--target", "item02",
                "--conditional", "item00", "--fractions", "0.1,0.3"]
        assert run(args + ["--out", tmp_path / "a.txt"]) == 0
        assert run(args + ["--out", tmp_path / "b.txt"]) == 0
        a = (tmp_path / "a.txt").read_bytes()
        assert a == (tmp_path / "b.txt").read_bytes()
        lines = a.decode().splitlines()
        little = [ln for ln in lines if ln.startswith(("mcar", "mar"))]
        # 2 mechanisms x 2 fractions, each appearing in both sections
        assert len(little) == 8

    def test_mar_rows_flagged_significant(self, corpus, tmp_path):
        assert run(["bench", "--data", corpus / "truth.csv",
                    "--schema", corpus / "truth.cols", "--target", "item02",
                    "--conditional", "item00", "--fractions", "0.3",
                    "--out", tmp_path / "r.txt"]) == 0
        lines = (tmp_path / "r.txt").read_text().splitlines()
        little_section = lines[lines.index(
            "Little's MCAR test on each injected dataset") + 1:]
        mar_p = float(next(ln for ln in little_section
                           if ln.startswith("mar")).split()[-1])
        mcar_p = float(next(ln for ln in little_section
                            if ln.startswith("mcar")).split()[-1])
        assert mar_p < 0.001
        assert mcar_p > mar_p

    def test_target_must_be_categorical_feature(self, corpus, tmp_path,
                                                capsys):
        base = ["bench", "--data", corpus / "truth.csv",
                "--schema", corpus / "truth.cols",
                "--fractions", "0.1", "--mechanisms", "mcar",
                "--out", tmp_path / "r.txt"]
        assert run(base + ["--target", "wear"]) == 1
        assert run(base + ["--target", "flag"]) == 1
        capsys.readouterr()

    def test_bad_fraction_and_mechanism_lists(self, corpus, tmp_path):
        base = ["bench", "--data", corpus / "truth.csv",
                "--schema", corpus / "truth.cols", "--target", "item02",
                "--out", tmp_path / "r.txt"]
        assert run(base + ["--fractions", "0.1,oops"]) == 1
        assert run(base + ["--fractions", "1.5"]) == 1
        assert run(base + ["--mechanisms", "mcar,magic"]) == 1
        assert run(base + ["--mechanisms", "mar"]) == 1   # needs conditional

    @pytest.mark.parametrize("tail, message", [
        (["--mechanisms", "mar"], "mar injection needs --conditional"),
        (["--mechanisms", "mcar", "--direction", "bottom"],
         "--conditional/--direction are mar-only flags"),
        (["--mechanisms", "mcar", "--conditional", "item00"],
         "--conditional/--direction are mar-only flags"),
        (["--fractions", "0.1,2"], "--fractions must lie in (0, 1)"),
    ], ids=["mar-without-conditional", "mcar-with-direction",
            "mcar-with-conditional", "fraction-above-one"])
    def test_injection_flags_follow_inject_rules(self, corpus, tmp_path,
                                                 capsys, tail, message):
        capsys.readouterr()
        rc = run(["bench", "--data", corpus / "truth.csv",
                  "--schema", corpus / "truth.cols", "--target", "item02",
                  "--fractions", "0.1", *tail, "--out", tmp_path / "r.txt"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: usage: {message}\n"
        assert not (tmp_path / "r.txt").exists()

    def test_conditional_equal_to_target_fits_nothing(
            self, corpus, tmp_path, capsys, caplog, monkeypatch):
        monkeypatch.setenv("IRTIMPUTE_LOG", "INFO")
        caplog.set_level(logging.INFO, logger="irtimpute")
        base = ["bench", "--data", corpus / "truth.csv",
                "--schema", corpus / "truth.cols", "--target", "item02",
                "--fractions", "0.1", "--out", tmp_path / "r.txt"]
        capsys.readouterr()
        # mcar cells run first, so a late refusal would follow a fit
        assert run(base + ["--conditional", "item02"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: usage: --conditional must differ from --target"]
        assert not [r for r in caplog.records
                    if r.getMessage().startswith("fitting")]
        assert not (tmp_path / "r.txt").exists()
        # the same run with another conditional column logs its fits
        assert run(base + ["--conditional", "item00"]) == 0
        assert [r for r in caplog.records
                if r.getMessage().startswith("fitting")]

    def test_conditional_with_gaps_fits_nothing(
            self, corpus, holed, tmp_path, capsys, caplog, monkeypatch):
        monkeypatch.setenv("IRTIMPUTE_LOG", "INFO")
        caplog.set_level(logging.INFO, logger="irtimpute")
        capsys.readouterr()
        # item02 has missing cells in the holed file; mcar cells run first
        rc = run(["bench", "--data", holed, "--schema", corpus / "truth.cols",
                  "--target", "item00", "--conditional", "item02",
                  "--fractions", "0.1,0.3", "--out", tmp_path / "r.txt"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: data: conditional column 'item02' must be "
                       "fully observed"]
        assert not [r for r in caplog.records
                    if r.getMessage().startswith(("fitting", "mcar"))]
        assert not (tmp_path / "r.txt").exists()

    def test_report_names_the_direction(self, corpus, tmp_path):
        base = ["bench", "--data", corpus / "truth.csv",
                "--schema", corpus / "truth.cols", "--target", "item02",
                "--fractions", "0.3"]
        reports = {}
        for name, tail in [("top", ["--conditional", "item00"]),
                           ("bottom", ["--conditional", "item00",
                                       "--direction", "bottom"]),
                           ("mcar", ["--mechanisms", "mcar"])]:
            out = tmp_path / f"{name}.txt"
            assert run(base + tail + ["--out", out]) == 0
            reports[name] = out.read_text().splitlines()
        top, bottom = reports["top"], reports["bottom"]
        assert "direction: -" in reports["mcar"]
        # the line sits in the header, above the F1 table
        at = top.index("direction: top")
        assert at == bottom.index("direction: bottom")
        assert at < top.index("imputed-cell F1, model vs majority baseline")
        del top[at], bottom[at]
        # beside that line, the reports differ in their numbers alone
        assert top != bottom
        number = re.compile(r"\s*-?\d[\d.e+-]*")
        assert [number.sub(" #", line) for line in top] == \
            [number.sub(" #", line) for line in bottom]

    def test_truth_with_missing_continuous_cells(self, corpus, tmp_path):
        # wear misses 15 values in the truth; those cells are filled but
        # not scored, so each row scores the target's blanked cells only
        schemas = load_schema(corpus / "truth.cols")
        truth = load_csv(corpus / "truth.csv", schemas)
        cells = np.array(truth.cells)
        cells[::16, truth.column_index("wear")] = MISSING
        gaps = tmp_path / "gaps.csv"
        emit_csv(truth.with_cells(cells), gaps)
        assert run(["bench", "--data", gaps, "--schema", corpus / "truth.cols",
                    "--target", "item02", "--conditional", "item00",
                    "--fractions", "0.1,0.3",
                    "--out", tmp_path / "r.txt"]) == 0
        lines = (tmp_path / "r.txt").read_text().splitlines()
        rows = [ln for ln in lines if ln.startswith(("mcar", "mar"))]
        assert [int(row.split()[2]) for row in rows] == [24, 72] * 4

    @staticmethod
    def against_loop(argv, out, capsys, monkeypatch, patch=None):
        """Exit code, stderr and report of ``bench`` and then of the cell-by-
        cell ``bench_loop``; ``patch()`` is applied afresh before each."""
        outcomes = []
        for command in (irtimpute.cli.cmd_bench, bench_loop):
            monkeypatch.setitem(irtimpute.cli._COMMANDS, "bench", command)
            if patch:
                patch()
            if out.exists():
                out.unlink()
            capsys.readouterr()
            rc = run([*argv, "--out", out])
            outcomes.append((rc, capsys.readouterr().err,
                             out.read_bytes() if out.exists() else None))
        return outcomes

    @pytest.mark.parametrize("budget, groups", [
        (estimation.DESIGN_BUDGET, [6]), (1, [1] * 6)],
        ids=["one-group", "split"])
    def test_report_equals_the_cell_by_cell_loop(
            self, corpus, tmp_path, capsys, monkeypatch, budget, groups):
        monkeypatch.setattr(estimation, "DESIGN_BUDGET", budget)
        sizes = []
        fit_group = estimation._fit_group

        def counted(runs, *args):
            sizes.append(len(runs))
            return fit_group(runs, *args)

        monkeypatch.setattr(estimation, "_fit_group", counted)
        (rc, err, report), loop = self.against_loop(
            ["bench", "--data", corpus / "truth.csv",
             "--schema", corpus / "truth.cols", "--target", "item02",
             "--conditional", "item00", "--fractions", "0.1,0.3,0.5"],
            tmp_path / "r.txt", capsys, monkeypatch)
        # then the loop's fits, one at a time
        assert sizes == groups + [1] * 6
        assert (rc, err) == (0, "")
        assert (rc, err, report) == loop

    def test_setup_error_of_a_later_cell_keeps_cell_order(
            self, corpus, tmp_path, capsys, monkeypatch):
        # item02's category 2 lies only in rows ranked 30-39 by wear: the
        # mar cell at 0.3 blanks all of them, after three cells that fit
        schemas = load_schema(corpus / "truth.cols")
        truth = load_csv(corpus / "truth.csv", schemas)
        cells = np.array(truth.cells)
        target = truth.column_index("item02")
        ranked = np.argsort(-cells[:, truth.column_index("wear")],
                            kind="stable")
        cells[:, target] = np.minimum(cells[:, target], 1)
        cells[ranked[30:40], target] = 2
        data = tmp_path / "rare.csv"
        emit_csv(truth.with_cells(cells), data)
        (rc, err, report), loop = self.against_loop(
            ["bench", "--data", data, "--schema", corpus / "truth.cols",
             "--target", "item02", "--conditional", "wear",
             "--fractions", "0.1,0.3"], tmp_path / "r.txt", capsys,
            monkeypatch)
        assert (rc, err, report) == (
            2, "error: data: column 'item02': category code 2 never "
               "observed\n", None)
        assert loop == (rc, err, report)

    def test_em_failure_of_an_earlier_cell_keeps_cell_order(
            self, corpus, tmp_path, capsys, monkeypatch):
        # the cell at 0.3 fails at its second E-step, before the cell at
        # 0.1 fails at its eighth; the cells are told apart by their
        # designs' entries, 6 per row (the ones column and five features)
        # less the blanked cells
        failing = {240 * 6 - 24: 8, 240 * 6 - 72: 2}
        e_step_core = estimation._e_step_core
        calls: dict = {}

        def e_step(blocks, items, grid):
            nnz = design_entries(blocks)
            calls[nnz] = calls.get(nnz, 0) + 1
            if failing.get(nnz) == calls[nnz]:
                raise NumericalFailure(
                    f"E-step {calls[nnz]} of the fit with {nnz} entries")
            return e_step_core(blocks, items, grid)

        def patch():
            calls.clear()
            monkeypatch.setattr(estimation, "_e_step_core", e_step)

        (rc, err, report), loop = self.against_loop(
            ["bench", "--data", corpus / "truth.csv",
             "--schema", corpus / "truth.cols", "--target", "item02",
             "--mechanisms", "mcar", "--fractions", "0.1,0.2,0.3"],
            tmp_path / "r.txt", capsys, monkeypatch, patch)
        assert (rc, err, report) == (
            3, "error: numerical: E-step 8 of the fit with 1416 entries\n",
            None)
        assert loop == (rc, err, report)

    def test_baseline_fills_only_the_target(self):
        schemas = (ColumnSchema("t", "ordinal", arity=3),
                   ColumnSchema("u", "binary"))
        view = CategoricalDataset(schemas, np.array(
            [[2, MISSING], [MISSING, 1], [2, 0], [0, MISSING]], dtype=float))
        filled = _majority_fill(view, "t")
        assert filled.cells.tolist() == [[2, MISSING], [2, 1], [2, 0],
                                         [0, MISSING]]


@pytest.fixture(scope="module")
def utf8_corpus(tmp_path_factory):
    """A dataset whose schema holds UTF-8 labels and a UTF-8 column name:
    complete (``t.csv``), with 10 % of its cells blanked (``d.csv``), and
    its schema file."""
    root = tmp_path_factory.mktemp("utf8")
    items = simulate_items("grm", 4, np.random.default_rng(81),
                           n_categories=3)
    base = simulate_dataset(items, 200, seed=82)
    schemas = (ColumnSchema("größe", "ordinal",
                            labels=("klein", "mittel", "groß")),
               ColumnSchema("item01", "ordinal", labels=("é", "€", "😀")),
               *base.schemas[2:])
    truth = CategoricalDataset(schemas, base.cells)
    emit_csv(truth, root / "t.csv")
    cells = base.cells.copy()
    cells[np.random.default_rng(83).random(cells.shape) < 0.1] = MISSING
    emit_csv(truth.with_cells(cells), root / "d.csv")
    (root / "d.cols").write_bytes(format_schema(schemas).encode())
    return root


class TestUtf8Files:
    """Every file is UTF-8, whatever the locale's encoding."""

    ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}

    @staticmethod
    def child(argv, locale=None):
        """Run the command line in a child process, under an ASCII locale
        if ``locale`` is given, and return its stdout; it must exit 0 with
        nothing on stderr."""
        src = str(Path(irtimpute.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items()
               if key not in ("PYTHONIOENCODING", "PYTHONUTF8")}
        env.update(locale or {}, PYTHONPATH=src)
        flags = ("-X", "utf8=0") if locale else ()
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "irtimpute.cli", *map(str, argv)],
            env=env, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b""), argv[0]
        return proc.stdout

    def fit_and_impute(self, corpus, out, locale=None):
        out.mkdir()
        for argv in (["fit", "--out", out / "model.json"],
                     ["impute", "--model", out / "model.json",
                      "--out", out / "filled.csv",
                      "--probabilities", out / "probs.csv"]):
            self.child([*argv, "--data", corpus / "d.csv",
                        "--schema", corpus / "d.cols"], locale)

    def test_ascii_locale_writes_the_same_files(self, utf8_corpus,
                                                tmp_path):
        self.fit_and_impute(utf8_corpus, tmp_path / "default")
        self.fit_and_impute(utf8_corpus, tmp_path / "ascii",
                            self.ASCII_LOCALE)
        for name in ("model.json", "filled.csv", "probs.csv"):
            assert ((tmp_path / "default" / name).read_bytes()
                    == (tmp_path / "ascii" / name).read_bytes()), name
        filled = (tmp_path / "default" / "filled.csv").read_bytes()
        assert filled.startswith("größe,".encode())
        assert "groß".encode() in filled and "😀".encode() in filled

    def test_ascii_locale_reads_arguments_as_utf8(self, utf8_corpus,
                                                  tmp_path):
        argv = ["inject", "--data", utf8_corpus / "t.csv",
                "--schema", utf8_corpus / "d.cols", "--target", "größe",
                "--fraction", "0.2", "--mechanism", "mcar", "--seed", "1"]
        default = self.child([*argv, "--out", tmp_path / "default.csv"])
        ascii = self.child([*argv, "--out", tmp_path / "ascii.csv"],
                           self.ASCII_LOCALE)
        assert ((tmp_path / "default.csv").read_bytes()
                == (tmp_path / "ascii.csv").read_bytes())
        assert default.decode() == ascii.decode("unicode_escape")
        assert re.fullmatch(r"removed \d+ cells from column 'größe'\n",
                            default.decode())

    def test_undecoded_argument_bytes_read_as_utf8(self, utf8_corpus,
                                                   tmp_path, capsys):
        def undecoded(text):
            """``text`` as an ASCII locale passes its UTF-8 bytes on."""
            return text.encode().decode("ascii", "surrogateescape")

        argv = ["inject", "--data", utf8_corpus / "t.csv",
                "--schema", utf8_corpus / "d.cols", "--fraction", "0.2",
                "--mechanism", "mar", "--out", tmp_path / "injected.csv"]
        assert run([*argv, "--target", "item01",
                    "--conditional", undecoded("größe")]) == 0
        capsys.readouterr()
        assert run([*argv, "--target", undecoded("größe"), "--conditional",
                    "item01", "--missing-tokens", undecoded(",-1,groß")]) == 2
        assert capsys.readouterr().err == ("error: data: column 'größe': "
                                           "label 'groß' is a missing token\n")
        # bytes that are not UTF-8 are a usage error
        assert run([*argv, "--target", "gr\udcc3e",
                    "--conditional", "item01"]) == 1
        assert capsys.readouterr().err == (
            "error: usage: argument --target: 'gr\\udcc3e' is not UTF-8\n")

    def test_report_escapes_what_stdout_cannot_encode(
            self, utf8_corpus, tmp_path, monkeypatch):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii",
                                  errors="strict")
        monkeypatch.setattr(sys, "stdout", stdout)
        rc = run(["inject", "--data", utf8_corpus / "t.csv",
                  "--schema", utf8_corpus / "d.cols", "--target", "größe",
                  "--fraction", "0.2", "--mechanism", "mcar", "--seed", "1",
                  "--out", tmp_path / "injected.csv"])
        assert rc == 0
        assert stdout.errors == "strict"
        stdout.flush()
        assert re.fullmatch(rb"removed \d+ cells from column "
                            rb"'gr\\xf6\\xdfe'\n",
                            stdout.buffer.getvalue())

    def test_byte_order_marks_are_skipped(self, utf8_corpus, tmp_path,
                                          capsys):
        bom = b"\xef\xbb\xbf"
        for name in ("d.csv", "d.cols"):
            (tmp_path / name).write_bytes(
                bom + (utf8_corpus / name).read_bytes())
        (tmp_path / "run.cfg").write_bytes(
            bom + b"schema = " + bytes(tmp_path / "d.cols") + b"\n")
        assert run(["fit", "--data", tmp_path / "d.csv", "--config",
                    tmp_path / "run.cfg", "--out", tmp_path / "m.json"]) == 0
        model = tmp_path / "m.json"
        model.write_bytes(bom + model.read_bytes())
        assert run(["impute", "--data", utf8_corpus / "d.csv",
                    "--schema", utf8_corpus / "d.cols", "--model", model,
                    "--out", tmp_path / "filled.csv"]) == 0
        assert capsys.readouterr().err == ""
        assert not (tmp_path / "filled.csv").read_bytes().startswith(bom)
