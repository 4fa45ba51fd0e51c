"""End-to-end command-line runs: exit codes, files written, determinism."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import irtimpute
import irtimpute.cli
from irtimpute import data as data_module
from irtimpute.cli import _expand_config, _read_config, main
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
from irtimpute.estimation import load_model, save_model
from irtimpute.simulate import simulate_dataset, simulate_items

from helpers import write_probabilities_loop


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
            "--seed", "3", "--grid-size", "41", "--tol", "1e-5",
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
            "fit", "--seed", "3", "--data", "d.csv",
        ]

    def test_config_needs_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        with pytest.raises(UsageError, match="subcommand"):
            _expand_config(["--config", str(cfg)])

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
    # scipy.stats takes most of a CLI start-up; scipy.special serves instead
    src = str(Path(irtimpute.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, irtimpute.cli; print('scipy.stats' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True, timeout=60)
    assert out.stdout == "False\n"


def test_cli_import_leaves_out_scipy():
    # commands load scipy where they compute probabilities, so evaluate,
    # which computes none, starts on numpy alone
    src = str(Path(irtimpute.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, irtimpute.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True, timeout=60)
    assert out.stdout == "[]\n"


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
    ], ids=["slope-string", "boundaries-number", "cuts-missing",
            "column-list", "label-list"])
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
        bad = tmp_path / "bad.csv"
        bad.write_bytes((corpus / "truth.csv").read_bytes() + b"\xff\xfe\n")
        rc = run(["mcar-test", "--data", bad, "--schema", corpus / "truth.cols"])
        self.assert_one_data_error(rc, capsys)

    def test_unwritable_model_out(self, corpus, holed, tmp_path, capsys):
        rc = run(["fit", "--data", holed, "--schema", corpus / "truth.cols",
                  "--out", tmp_path / "absent-dir" / "m.json"])
        self.assert_one_data_error(rc, capsys)

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
